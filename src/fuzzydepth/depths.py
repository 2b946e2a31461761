"""Depth functions for fuzzy sets with respect to an empirical variable.

``projection_depth`` inverts the worst-case robust outlyingness of the
support function over directions and thresholds.  The four L^r-type depths
are one ``metric_depth``, the inverted expected distance to the atoms:
``natural_depth`` uses the support metric rho_r, ``location_depth`` the
mid/spread metric d_{r,theta}, and the raised variants use the r-th powers of
those distances.  All five map into [0, 1], larger meaning more central.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .empirical import _mad_columns, _median_columns
from .exceptions import DimensionMismatch, GridMismatch, OutOfRange
from .fuzzyset import DEFAULT_N_ALPHA, LevelFuzzySet, merge_alphas, uniform_alphas
from .metrics import MetricSpec

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
    """
    _require_compatible(a, x)
    grid = a.alphas  # planar atoms share the query's grid
    if isinstance(a, LevelFuzzySet):
        grid = merge_alphas(uniform_alphas(n_alpha), grid, *(atom.alphas for atom in x.atoms))
    s_a = a.support_values(grid).reshape(-1)
    marginals = np.stack([atom.support_values(grid).reshape(-1) for atom in x.atoms])
    lo, hi = _median_columns(marginals, x.weights)
    med = 0.5 * (lo + hi)
    mad = _mad_columns(marginals, x.weights, med)
    num = np.abs(s_a - med)
    degenerate = mad == 0.0
    if np.any(degenerate & (num > 0.0)):
        return math.inf
    ratio = np.divide(num, mad, out=np.zeros_like(num), where=~degenerate)
    return float(np.max(ratio))


def projection_depth(a, x, n_alpha=DEFAULT_N_ALPHA):
    """Depth 1 / (1 + outlyingness); infinite outlyingness gives exactly 0."""
    out = outlyingness(a, x, n_alpha=n_alpha)
    if math.isinf(out):
        return 0.0
    return 1.0 / (1.0 + out)


def metric_depth(a, x, metric, raised=False):
    """Depth 1 / (1 + E m(A, X)), or 1 / (1 + E m(A, X)^r) when ``raised``.

    ``metric`` is a MetricSpec; its exponent r is the one the distance is
    raised to.  The four L^r-type depths of the paper are this function with
    the rho_r or the d_{r,theta} family.
    """
    _require_compatible(a, x)
    if raised:
        r = float(metric.r)
        return 1.0 / (1.0 + x.expectation(lambda atom: metric(a, atom) ** r))
    return 1.0 / (1.0 + x.expectation(lambda atom: metric(a, atom)))


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
        if self.n_alpha < 1:
            raise OutOfRange("n_alpha must be at least 1")
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
        family, raised = _METHOD_METRICS[self.method]
        metric = MetricSpec(family, self.r, self.theta)
        return lambda a, x: metric_depth(a, x, metric, raised)


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


def depth_table(x, queries=None, config=None, ids=None):
    """Evaluate one depth method over a list of queries and rank the results.

    Queries default to the atoms of x.  Ranks are descending in depth and
    tied values share their average rank.  The computation is deterministic:
    identical inputs give identical tables.
    """
    if config is None:
        config = DepthConfig(method="projection")
    if queries is None:
        queries = list(x.atoms)
    queries = list(queries)
    if ids is None:
        ids = [f"A{k + 1}" for k in range(len(queries))]
    ids = [str(i) for i in ids]
    if len(ids) != len(queries):
        raise DimensionMismatch("one id per query is required")
    depth_fn = config.depth_function()
    depths = [depth_fn(a, x) for a in queries]
    ranks = rankdata([-d for d in depths], method="average")
    return DepthReport(
        ids=tuple(ids),
        depths=tuple(depths),
        ranks=tuple(float(k) for k in ranks),
        method=config.method,
        r=float(config.r),
        theta=None if config.theta is None else float(config.theta),
        n_alpha=config.n_alpha,
    )
