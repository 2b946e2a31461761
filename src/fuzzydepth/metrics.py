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
weights over directions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, OutOfRange
from .fuzzyset import merge_alphas

_METRIC_FAMILIES = ("d_r", "rho_r", "d_r_theta")
_LOG_MAX_FLOAT = math.log(sys.float_info.max)


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


def _same_sign_abs_pow(p, q, r):
    """Mean of |y|^r over a linear segment running from p to q, p*q >= 0.

    Written without the antiderivative difference (q^{r+1} - p^{r+1}), which
    cancels catastrophically when the segment is nearly level.
    """
    p, q = sorted((abs(p), abs(q)))
    if q == 0.0:
        return 0.0
    if p == 0.0:
        return q**r / (r + 1.0)
    s = (q - p) / p
    if s == 0.0:
        return p**r
    x = (r + 1.0) * math.log1p(s)
    if x > _LOG_MAX_FLOAT:
        # expm1 would overflow; p^(r+1) is then negligible next to q^(r+1)
        return q**r / (r + 1.0) * (q / (q - p))
    return p**r * math.expm1(x) / ((r + 1.0) * s)


def _segment_abs_pow(a0, a1, y0, y1, r):
    """Exact integral of |y(alpha)|^r over [a0, a1] for linear y."""
    da = a1 - a0
    if da <= 0.0:
        return 0.0
    if y1 == y0:
        return abs(y0) ** r * da
    if (y0 >= 0.0) == (y1 >= 0.0) or y0 == 0.0 or y1 == 0.0:
        return _same_sign_abs_pow(y0, y1, r) * da
    # strict sign change: split where the segment crosses zero
    t = y0 / (y0 - y1)
    return da * (t * _same_sign_abs_pow(y0, 0.0, r) + (1.0 - t) * _same_sign_abs_pow(0.0, y1, r))


def _abs_pow_integral(alphas, weights, rows, r, exact):
    """Sum over k of weights[k] times the integral of |rows[k]|^r over alpha.

    With ``exact`` each row is piecewise linear between the alphas and every
    segment is integrated in closed form; otherwise the composite trapezoidal
    rule applies.
    """
    if not exact:
        return np.trapezoid(weights @ (np.abs(rows) ** r), alphas)
    alphas = alphas.tolist()
    total = 0.0
    for w, ys in zip(weights.tolist(), rows.tolist()):
        row_total = 0.0
        for k in range(len(alphas) - 1):
            row_total += _segment_abs_pow(alphas[k], alphas[k + 1], ys[k], ys[k + 1], r)
        total += w * row_total
    return total


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
        return float(np.trapezoid(per_alpha**r, alphas) ** (1.0 / r))
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
    return total ** (1.0 / r)


def metric_rho_r(a, b, r):
    """L^r distance of the support functions over directions and alpha.

    Directions carry the normalized invariant measure: weights 1/2 on the
    line, 1/n_dir on the planar grid.
    """
    r = _check_r(r, allow_inf=False)
    alphas, directions, diff = _support_difference(a, b)
    total = _abs_pow_integral(alphas, directions.weights, diff, r, directions.dim == 1)
    return float(total ** (1.0 / r))


def metric_d_r_theta(a, b, r, theta):
    """Mid/spread decomposition metric with spread weight theta.

    Returns (||mid_A - mid_B||_r^r + theta * ||spr_A - spr_B||_r^r)^(1/r)
    with norms taken over directions and alpha.  theta = 0 is accepted but
    only defines a pseudometric: sets sharing midpoints are at distance zero.
    """
    r = _check_r(r, allow_inf=False)
    theta = _check_theta(theta)
    alphas, directions, diff = _support_difference(a, b)
    # |mid| and spr take equal values at u and -u, so the first half of the
    # directions, at twice their weight, carries each whole norm.
    half = directions.size // 2
    weights = 2.0 * directions.weights[:half]
    head, tail = diff[:half], diff[half:]
    rows = np.concatenate([head - tail, head + tail])
    rows *= 0.5
    weights = np.concatenate([weights, theta * weights])
    total = _abs_pow_integral(alphas, weights, rows, r, directions.dim == 1)
    return float(total ** (1.0 / r))


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
