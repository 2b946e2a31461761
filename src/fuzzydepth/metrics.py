"""Metrics between fuzzy sets.

Three families are provided.  ``metric_d_r`` aggregates the Hausdorff
distance between alpha-levels with an L^r norm over alpha (r = inf takes the
supremum).  ``metric_rho_r`` integrates |s_A - s_B|^r over directions and
alpha with the normalized invariant measure on directions.
``metric_d_r_theta`` combines the L^r distances of the mid and spread
components of the support functions, the spread term weighted by theta;
theta = 0 makes it a pseudometric only.

For one-dimensional sets every endpoint is piecewise linear in alpha, so all
integrals are evaluated segment by segment in closed form and the returned
values are exact up to floating-point rounding.  Planar sets are handled on
their grids with the composite trapezoidal rule over alpha and the uniform
weights over directions.  An r-th power past the float range raises
OutOfRange.

``metric_powers`` gives the r-th powers of rho_r or d_{r,theta} between every
set of one stack of support matrices and every set of another at once, with
the same rules, and ``expected_metric`` sums them over a weighted sample in
chunks; the depths use them, and the pairwise functions are their reference.
On that batched path r = 1 and r = 2 take closed-form segment means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, OutOfRange
from .fuzzyset import merge_alphas

_METRIC_FAMILIES = ("d_r", "rho_r", "d_r_theta")
# Smallest positive normal float.
_TINY = float(np.finfo(float).tiny)


def _check_r(r, allow_inf):
    r = float(r)
    if math.isinf(r):
        if not allow_inf:
            raise OutOfRange("r = inf is only supported by metric_d_r")
        return r
    if not r >= 1.0:
        raise OutOfRange(f"r must be at least 1, got {r}")
    return r


def _check_theta(theta):
    theta = float(theta)
    if not (math.isfinite(theta) and theta >= 0.0):
        raise OutOfRange(f"theta must be finite and non-negative, got {theta}")
    return theta


def _overflow(r):
    return OutOfRange(f"r-th powers at r = {r:g} overflow the float range")


def _same_sign_abs_pow(p, q, r):
    """Mean of |y|^r over a linear segment running from p to q, p*q >= 0.

    With t = |p| / |q| <= 1 the mean is q^r (1 - t^(r+1)) / ((r + 1)(1 - t)).
    That form cannot cancel when q > 2p; otherwise both differences are
    formed without cancellation, as 1 - t = (q - p) / q and
    1 - t^(r+1) = -expm1(-(r + 1) log1p((q - p) / p)).
    """
    p, q = sorted((abs(p), abs(q)))
    try:
        if q > 2.0 * p:
            t = p / q
            return q**r * (1.0 - t ** (r + 1.0)) / ((r + 1.0) * (1.0 - t))
        if q == p:
            return p**r
        x = (r + 1.0) * math.log1p((q - p) / p)
        return q**r * (-math.expm1(-x) / ((r + 1.0) * ((q - p) / q)))
    except OverflowError as err:
        raise _overflow(r) from err


def _segment_abs_pow(a0, a1, y0, y1, r):
    """Exact integral of |y(alpha)|^r over [a0, a1] for linear y."""
    da = a1 - a0
    if da <= 0.0:
        return 0.0
    if (y0 >= 0.0) == (y1 >= 0.0) or y0 == 0.0 or y1 == 0.0:
        return _same_sign_abs_pow(y0, y1, r) * da
    # strict sign change: split where the segment crosses zero
    t = y0 / (y0 - y1)
    return da * (t * _same_sign_abs_pow(y0, 0.0, r) + (1.0 - t) * _same_sign_abs_pow(0.0, y1, r))


def _segment_means(y0, y1, r):
    """``_segment_abs_pow(0, 1, y0, y1, r)`` elementwise over arrays.

    r = 2 takes the polynomial mean (y0^2 + y0 y1 + y1^2) / 3, which needs no
    split at a crossing.  r = 1 takes (|y0| + |y1|) / 2 on one sign and, at a
    strict crossing, 0.5 (t |y0| + (1 - t) |y1|) with t = |y0| / (|y0| + |y1|),
    which is the generic rule's split, term by term.  (The shorter crossing
    form (y0^2 + y1^2) / (2 (|y0| + |y1|)) would overflow and underflow near
    1e+-154.)  An entry of a nonzero segment that the closed forms leave
    outside the normal float range, where their products overflow before the
    mean does or have lost precision, takes the generic rule, as does every
    other r; so overflow and underflow are those of the generic rule.  The
    caller silences numpy's floating-point warnings.
    """
    if r == 2.0:
        out = y0 * y0
        out += y0 * y1
        out += y1 * y1
        out /= 3.0
    elif r == 1.0:
        ay0, ay1 = np.abs(y0), np.abs(y1)
        total = ay0 + ay1
        out = 0.5 * total
        cross = (y0 < 0.0) != (y1 < 0.0)
        if cross.any():
            t = ay0 / total
            out = np.where(cross, 0.5 * (t * ay0 + (1.0 - t) * ay1), out)
    else:
        return _generic_segment_means(y0, y1, r)
    redo = ~((out >= _TINY) & (out < math.inf))
    if redo.any():
        redo &= (y0 != 0.0) | (y1 != 0.0)
        if redo.any():
            out[redo] = _generic_segment_means(y0[redo], y1[redo], r)
    return out


def _generic_segment_means(y0, y1, r):
    """The segment means of ``_segment_means`` by the closed forms of any r.

    Those of ``_same_sign_abs_pow`` and the zero-crossing split, each
    evaluated everywhere and then selected.  A zero endpoint counts as a
    crossing, whose split then gives the p = 0 form.
    """
    ay0, ay1 = np.abs(y0), np.abs(y1)
    pow0, pow1 = ay0**r, ay1**r
    p, q = np.minimum(ay0, ay1), np.maximum(ay0, ay1)
    gap = q - p
    r1 = r + 1.0
    t = p / q
    ratio = np.where(
        q > 2.0 * p,
        (1.0 - t**r1) / (r1 * (1.0 - t)),
        np.expm1(np.log1p(gap / p) * -r1) / ((gap / q) * -r1),
    )
    out = np.maximum(pow0, pow1) * np.where(gap > 0.0, ratio, 1.0)
    cross = (y0 < 0.0) != (y1 < 0.0)
    if np.any(cross):
        t = y0 / (y0 - y1)
        out = np.where(cross, (t * pow0 + (1.0 - t) * pow1) / r1, out)
    return out


def _abs_pow_integral(alphas, weights, rows, r, exact):
    """Sum over k of weights[k] times the integral of |rows[k]|^r over alpha.

    With ``exact`` each row is piecewise linear between the alphas and every
    segment is integrated in closed form; otherwise the composite trapezoidal
    rule applies.
    """
    if not exact:
        with np.errstate(all="ignore"):
            return _abs_pow_integrals(alphas, weights, rows, r, exact)
    alphas = alphas.tolist()
    total = 0.0
    for w, ys in zip(weights.tolist(), rows.tolist()):
        row_total = 0.0
        for k in range(len(alphas) - 1):
            row_total += _segment_abs_pow(alphas[k], alphas[k + 1], ys[k], ys[k + 1], r)
        total += w * row_total
    return total


def _abs_pow_integrals(alphas, weights, rows, r, exact):
    """``_abs_pow_integral`` for a stack of row matrices, shape (..., m, rows, K).

    ``alphas`` is (m, K), one grid per matrix.  The exact rule runs on numpy
    arrays through ``_segment_means`` and sums the weighted segment terms of
    each matrix along one contiguous axis, so a matrix's result does not
    depend on the stack it is in.  The trapezoidal rule also takes a single
    (rows, K) matrix with its (K,) alphas.  The caller silences numpy's
    floating-point warnings and checks the result for overflow.
    """
    if not exact:
        powers = np.abs(rows)
        powers **= r
        return np.trapezoid(weights @ powers, alphas)
    terms = _segment_means(rows[..., :-1], rows[..., 1:], r)
    terms *= weights[:, None] * (alphas[..., 1:] - alphas[..., :-1])[..., None, :]
    return np.add.reduce(terms.reshape(*terms.shape[:-2], -1), axis=-1)


def _root(total, r):
    """The r-th root of an r-th power integral; OutOfRange when it overflowed."""
    if not math.isfinite(total):
        raise _overflow(r)
    return float(total ** (1.0 / r))


def _metric_rows(diff, directions, theta):
    """Direction weights and rows whose |.|^r integrals sum to the metric's r-th power.

    ``diff`` holds support differences with directions on axis -2.  theta
    None gives rho_r: the rows are the differences.  Otherwise d_{r,theta}:
    |mid| and spr take equal values at u and -u, so the first half of the
    directions, at twice their weight, carries each whole norm.
    """
    if theta is None:
        return directions.weights, diff
    half = directions.size // 2
    weights = 2.0 * directions.weights[:half]
    head, tail = diff[..., :half, :], diff[..., half:, :]
    rows = np.empty_like(diff)
    np.subtract(head, tail, out=rows[..., :half, :])
    np.add(head, tail, out=rows[..., half:, :])
    rows *= 0.5
    return np.concatenate([weights, theta * weights]), rows


def _refine_for_max(alphas, f, g):
    """Breakpoints augmented with the crossings of |f| and |g|.

    f and g are piecewise linear on the given breakpoints; |f| = |g| can only
    happen where f - g or f + g vanishes, both linear per segment.
    """
    extra = []
    for k in range(len(alphas) - 1):
        a0, a1 = alphas[k], alphas[k + 1]
        for d0, d1 in ((f[k] - g[k], f[k + 1] - g[k + 1]), (f[k] + g[k], f[k + 1] + g[k + 1])):
            if d0 == d1:
                continue
            t = d0 / (d0 - d1)
            if 0.0 < t < 1.0:
                extra.append(a0 + t * (a1 - a0))
    if not extra:
        return np.asarray(alphas)
    return merge_alphas(np.asarray(alphas), np.asarray(extra))


def _support_difference(a, b):
    """Shared alphas, direction grid and the support matrix s_A - s_B.

    Sets on the line meet on the union of their breakpoints; a planar b is
    resampled onto the grids of a when they differ.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("metric operands must share dimension")
    if a.dim == 1:
        alphas = merge_alphas(a.alphas, b.alphas)
        return alphas, a.directions, a.support_values(alphas) - b.support_values(alphas)
    if not a.same_grids(b):
        b = b.resample(a.directions, a.alphas)
    return a.alphas, a.directions, a.values - b.values


def hausdorff(i, j):
    """Hausdorff distance between two compact convex sets.

    Intervals are passed as (lo, hi) pairs.  Planar sets are passed as arrays
    of support values over one shared direction grid.  Either way the distance
    is the largest absolute difference of corresponding entries.
    """
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    if i.shape != j.shape:
        raise DimensionMismatch("operands must share their representation")
    return float(np.max(np.abs(i - j)))


def metric_d_r(a, b, r):
    """L^r aggregation over alpha of the levelwise Hausdorff distance."""
    r = _check_r(r, allow_inf=True)
    alphas, _, diff = _support_difference(a, b)
    if math.isinf(r):
        return float(np.max(np.abs(diff)))
    if a.dim == 2:
        per_alpha = np.max(np.abs(diff), axis=0)
        with np.errstate(over="ignore"):
            return _root(np.trapezoid(per_alpha**r, alphas), r)
    g, f = diff  # the s(+1) and s(-1) rows
    refined = _refine_for_max(alphas, f, g)
    f = np.interp(refined, alphas, f).tolist()
    g = np.interp(refined, alphas, g).tolist()
    refined = refined.tolist()
    total = 0.0
    for k in range(len(refined) - 1):
        # After refinement one branch dominates the whole segment, so the
        # absolute values at the segment midpoint decide which one.
        mid_f = abs(0.5 * (f[k] + f[k + 1]))
        mid_g = abs(0.5 * (g[k] + g[k + 1]))
        y0, y1 = (f[k], f[k + 1]) if mid_f >= mid_g else (g[k], g[k + 1])
        total += _segment_abs_pow(refined[k], refined[k + 1], y0, y1, r)
    return _root(total, r)


def metric_rho_r(a, b, r):
    """L^r distance of the support functions over directions and alpha.

    Directions carry the normalized invariant measure: weights 1/2 on the
    line, 1/n_dir on the planar grid.
    """
    r = _check_r(r, allow_inf=False)
    alphas, directions, diff = _support_difference(a, b)
    weights, rows = _metric_rows(diff, directions, None)
    return _root(_abs_pow_integral(alphas, weights, rows, r, directions.dim == 1), r)


def metric_d_r_theta(a, b, r, theta):
    """Mid/spread decomposition metric with spread weight theta.

    Returns (||mid_A - mid_B||_r^r + theta * ||spr_A - spr_B||_r^r)^(1/r)
    with norms taken over directions and alpha.  theta = 0 is accepted but
    only defines a pseudometric: sets sharing midpoints are at distance zero.
    """
    r = _check_r(r, allow_inf=False)
    theta = _check_theta(theta)
    alphas, directions, diff = _support_difference(a, b)
    weights, rows = _metric_rows(diff, directions, theta)
    return _root(_abs_pow_integral(alphas, weights, rows, r, directions.dim == 1), r)


def metric_powers(metric, directions, queries, atoms):
    """r-th powers of a rho_r or d_{r,theta} metric from every query to every atom.

    ``queries`` and ``atoms`` are ``empirical.SupportBlock``s on the
    ``directions`` grid; every breakpoint of a query must be one of every atom
    row (``SupportBlock.with_breakpoints``), so on the line each pair meets on
    the atom's alphas, and planar sets share one grid.  Returns a (queries,
    atoms) array; OutOfRange reports r-th powers that overflow.  Agrees with
    the pairwise metric raised to the power r up to rounding.
    """
    r = float(metric.r)
    if len(atoms.shared) == atoms.alphas.shape[1]:
        s_q = queries.at(atoms.shared)[:, None]
    else:
        grid, inverse = np.unique(atoms.alphas, return_inverse=True)
        s_q = np.moveaxis(queries.at(grid)[..., inverse.reshape(atoms.alphas.shape)], 2, 1)
    with np.errstate(all="ignore"):
        weights, rows = _metric_rows(s_q - atoms.values, directions, metric.theta)
        powers = _abs_pow_integrals(atoms.alphas, weights, rows, r, directions.dim == 1)
    if not np.isfinite(powers).all():
        raise _overflow(r)
    return powers


def expected_metric(metric, directions, queries, atoms, weights, raised=False):
    """Sum over the atoms of weights times the metric from each query.

    With ``raised`` the metric's r-th power is summed.  The (query, atom)
    pairs of ``metric_powers`` are taken in chunks of about
    ``empirical._CHUNK_ELEMENTS`` temporaries (``SupportBlock.row_chunks``),
    and each chunk of queries is reduced over all atoms at once, so a query's
    sum is the same whichever queries it is stacked with.  Returns one sum
    per query row.
    """
    if metric.family == "d_r":
        raise OutOfRange("metric depths use the rho_r or d_r_theta family")
    root = 1.0 / float(metric.r)
    pair_size = atoms.values[0].size
    atom_chunks = [atoms.rows(cols) for cols in atoms.row_chunks(pair_size)]
    out = np.empty(len(queries.index))
    for rows in queries.row_chunks(pair_size * len(atom_chunks[0].index)):
        chunk = queries.rows(rows)
        powers = np.concatenate(
            [metric_powers(metric, directions, chunk, block) for block in atom_chunks], axis=1
        )
        if not raised:
            powers **= root
        out[rows] = np.add.reduce(powers * weights, axis=1)
    return out


@dataclass(frozen=True)
class MetricSpec:
    """Parameterized metric choice usable wherever a callable is expected."""

    family: str
    r: float = 1.0
    theta: float | None = None

    def __post_init__(self):
        if self.family not in _METRIC_FAMILIES:
            raise OutOfRange(f"unknown metric family {self.family!r}")
        _check_r(self.r, allow_inf=self.family == "d_r")
        if self.family == "d_r_theta":
            if self.theta is None:
                raise OutOfRange("d_r_theta requires theta")
            _check_theta(self.theta)
        elif self.theta is not None:
            raise OutOfRange(f"theta does not apply to family {self.family!r}")

    @property
    def is_pseudometric(self):
        """True when distinct sets can be at distance zero (theta = 0)."""
        return self.family == "d_r_theta" and self.theta == 0.0

    def __call__(self, a, b):
        if self.family == "d_r":
            return metric_d_r(a, b, self.r)
        if self.family == "rho_r":
            return metric_rho_r(a, b, self.r)
        return metric_d_r_theta(a, b, self.r, self.theta)

    def label(self):
        r = "inf" if math.isinf(self.r) else f"{self.r:g}"
        if self.family == "d_r":
            return f"d_{r}"
        if self.family == "rho_r":
            return f"rho_{r}"
        return f"d_{r},theta={self.theta:g}"
