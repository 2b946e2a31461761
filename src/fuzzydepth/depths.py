"""Depth functions for fuzzy sets with respect to an empirical variable.

``projection_depth`` inverts the worst-case robust outlyingness of the
support function over directions and thresholds.  The four L^r-type depths
are one ``metric_depth``, the inverted expected distance to the atoms:
``natural_depth`` uses the support metric rho_r, ``location_depth`` the
mid/spread metric d_{r,theta}, and the raised variants use the r-th powers of
those distances.  All five map into [0, 1], larger meaning more central.

Every depth reads the sample through its cached fit (``EmpiricalFRV.fit``):
the support matrices of the atoms and the median/MAD profiles are computed
once per sample.  The queries are stacked the same way, and a whole stack is
scored against all atoms at once; a single depth is a stack of one query.
Atoms and weights of a sample are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import stack_supports
from .exceptions import DimensionMismatch, GridMismatch, OutOfRange
from .fuzzyset import DEFAULT_N_ALPHA, check_n_alpha
from .metrics import MetricSpec, expected_metric

# Depth method -> (metric family, distance raised to the power r); the
# projection depth uses no metric.
_METHOD_METRICS = {
    "projection": None,
    "natural": ("rho_r", False),
    "natural_raised": ("rho_r", True),
    "location": ("d_r_theta", False),
    "location_raised": ("d_r_theta", True),
}
DEPTH_METHODS = tuple(_METHOD_METRICS)


def _require_compatible(a, x):
    if a.dim != x.dim:
        raise DimensionMismatch(
            f"query has dimension {a.dim} but the sample has dimension {x.dim}"
        )
    if a.dim == 2 and not a.same_grids(x.atoms[0]):
        raise GridMismatch("query and atoms must share direction and alpha grids")


def outlyingness(a, x, n_alpha=DEFAULT_N_ALPHA):
    """Worst-case robust outlyingness of the support function.

    Over every direction u and threshold alpha, the support value of the
    query is compared with the weighted median of the support marginal of x,
    scaled by the marginal MAD:

        sup |s_A(u, alpha) - med s_X(u, alpha)| / MAD s_X(u, alpha)

    A vanishing MAD contributes nothing when the numerator also vanishes and
    makes the outlyingness infinite otherwise.  For one-dimensional sets the
    supremum is taken on the uniform alpha grid augmented with every
    breakpoint of the query and the atoms.  That is an approximation: the
    median and MAD profiles also bend between those points, wherever two atom
    supports or two absolute deviations cross, so the value returned is a
    lower bound on the exact supremum.  Planar sets are evaluated on their
    stored grids.

    The sample's median and MAD on that grid are cached per ``n_alpha``; a
    query breakpoint off the grid gets its own median and MAD columns, which
    are computed, not interpolated.
    """
    _require_compatible(a, x)
    return float(_outlyingness(stack_supports([a]), 1, x, n_alpha)[0])


def _outlyingness(blocks, n, x, n_alpha):
    """The outlyingness of the n queries stacked in ``blocks``, as one array.

    Queries that miss the same breakpoints of the profile grid share one
    median/MAD pass for those extra columns.
    """
    fit = x.fit()
    alphas, med, mad = fit.projection_profile(n_alpha)
    out = np.empty(n)
    for block in blocks:
        worst = _worst_ratios(block, alphas, med, mad)
        for extra, rows in block.groups_off(alphas):
            if extra.size:
                off_grid = _worst_ratios(block.rows(rows), extra, *fit.median_mad(extra))
                worst[rows] = np.maximum(worst[rows], off_grid)
        out[block.index] = worst
    return out


def _worst_ratios(block, alphas, med, mad):
    """Largest |s_A - med| / MAD of each row of the block at ``alphas``.

    0/0 counts 0 and x/0 inf.  Rows are taken in chunks.
    """
    out = np.empty(len(block.index))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in block.row_chunks(med.size):
            ratio = np.abs(block.rows(rows).at(alphas).reshape(-1, med.size) - med) / mad
            # 0/0 is NaN, which fmax skips, and x/0 is inf
            out[rows] = np.fmax.reduce(ratio, axis=1, initial=0.0)
    return out


def projection_depth(a, x, n_alpha=DEFAULT_N_ALPHA):
    """Depth 1 / (1 + outlyingness); infinite outlyingness gives exactly 0."""
    return 1.0 / (1.0 + outlyingness(a, x, n_alpha=n_alpha))


def metric_depth(a, x, metric, raised=False):
    """Depth 1 / (1 + E m(A, X)), or 1 / (1 + E m(A, X)^r) when ``raised``.

    ``metric`` is a MetricSpec of the rho_r or the d_{r,theta} family; its
    exponent r is the one the distance is raised to.  The four L^r-type depths
    of the paper are this function.  The distances to all atoms of the
    sample's fit are evaluated at once; OutOfRange reports r-th powers that
    overflow.
    """
    _require_compatible(a, x)
    return float(_metric_depths(stack_supports([a]), 1, x, metric, raised)[0])


def _metric_depths(blocks, n, x, metric, raised):
    """``metric_depth`` of the n queries stacked in ``blocks``, as one array.

    On the line, the queries that miss the same breakpoints of an atom
    block's shared grid are one group, and the block gets those breakpoints
    once per group.  Every trapezoid query is in the group with none.
    """
    fit = x.fit()
    total = np.zeros(n)
    for atoms in fit.blocks:
        weights = fit.weights[atoms.index]
        for block in blocks:
            for extra, rows in block.groups_off(atoms.shared):
                queries = block.rows(rows)
                total[queries.index] += expected_metric(
                    metric, fit.directions, queries, atoms.with_breakpoints(extra), weights, raised
                )
    return 1.0 / (1.0 + total)


def natural_depth(a, x, r):
    """Depth 1 / (1 + E rho_r(A, X))."""
    return metric_depth(a, x, MetricSpec("rho_r", r))


def natural_raised_depth(a, x, r):
    """Depth 1 / (1 + E rho_r(A, X)^r)."""
    return metric_depth(a, x, MetricSpec("rho_r", r), raised=True)


def location_depth(a, x, r, theta):
    """Depth 1 / (1 + E d_{r,theta}(A, X))."""
    return metric_depth(a, x, MetricSpec("d_r_theta", r, theta))


def location_raised_depth(a, x, r, theta):
    """Depth 1 / (1 + E d_{r,theta}(A, X)^r)."""
    return metric_depth(a, x, MetricSpec("d_r_theta", r, theta), raised=True)


@dataclass(frozen=True)
class DepthConfig:
    """Method plus parameters for a depth-table run.

    ``theta`` is required by the location methods and must stay unset for the
    others; ``r`` defaults to 1.  ``n_alpha`` is the alpha grid of the
    one-dimensional outlyingness supremum.  The metric methods are validated
    by the MetricSpec they bind; the rest is checked here.
    """

    method: str
    r: float = 1.0
    theta: float | None = None
    n_alpha: int = DEFAULT_N_ALPHA

    def __post_init__(self):
        if self.method not in _METHOD_METRICS:
            raise OutOfRange(f"unknown depth method {self.method!r}")
        check_n_alpha(self.n_alpha)
        if self.method != "projection":
            self.depth_function()  # the MetricSpec it binds checks r and theta
        elif not float(self.r) >= 1.0:
            raise OutOfRange(f"r must be at least 1, got {self.r}")
        elif self.theta is not None:
            raise OutOfRange(f"method {self.method!r} does not accept theta")

    def depth_function(self):
        """Bind the configuration into a callable (A, X) -> depth."""
        if self.method == "projection":
            return lambda a, x: projection_depth(a, x, n_alpha=self.n_alpha)
        metric, raised = self._metric()
        return lambda a, x: metric_depth(a, x, metric, raised)

    def _metric(self):
        """(MetricSpec, raised) of a metric method."""
        family, raised = _METHOD_METRICS[self.method]
        return MetricSpec(family, self.r, self.theta), raised


@dataclass(frozen=True)
class DepthReport:
    """Depth values and descending ranks for a list of queries."""

    ids: tuple
    depths: tuple
    ranks: tuple
    method: str
    r: float
    theta: float | None
    n_alpha: int

    def to_dict(self):
        return {
            "method": self.method,
            "r": self.r,
            "theta": self.theta,
            "results": [
                {"id": i, "depth": d, "rank": k}
                for i, d, k in zip(self.ids, self.depths, self.ranks)
            ],
        }


def rankdata(values):
    """Ascending ranks 1..n of ``values``; tied values share their mean rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def depth_table(x, queries=None, config=None, ids=None):
    """Evaluate one depth method over a list of queries and rank the results.

    Queries default to the atoms of x.  They are stacked like the sample and
    scored at once; each depth equals the one-query function bitwise.  Ranks
    are descending in depth and tied values share their average rank.  The
    computation is deterministic: identical inputs give identical tables.
    """
    if config is None:
        config = DepthConfig(method="projection")
    if queries is None:
        queries = list(x.atoms)
        blocks = x.fit().blocks
    else:
        queries = list(queries)
        for a in queries:
            _require_compatible(a, x)
        blocks = stack_supports(queries)
    if ids is None:
        ids = [f"A{k + 1}" for k in range(len(queries))]
    ids = [str(i) for i in ids]
    if len(ids) != len(queries):
        raise DimensionMismatch("one id per query is required")
    if config.method == "projection":
        depths = 1.0 / (1.0 + _outlyingness(blocks, len(queries), x, config.n_alpha))
    else:
        depths = _metric_depths(blocks, len(queries), x, *config._metric())
    ranks = rankdata(-depths)
    return DepthReport(
        ids=tuple(ids),
        depths=tuple(depths.tolist()),
        ranks=tuple(ranks.tolist()),
        method=config.method,
        r=float(config.r),
        theta=None if config.theta is None else float(config.theta),
        n_alpha=config.n_alpha,
    )
