"""Fuzzy sets with compact convex alpha-levels on the line and the plane.

Both dimensions share one layout, the support matrix: row i holds the support
function at direction ``directions.vectors[i]``, column j at threshold
``alphas[j]``, and for n directions row i + n/2 is the antipode -u_i of row
i.  On the line the directions are +1 and -1, so the two rows are hi and -lo.
A fuzzy set on the line is stored as its alpha-level endpoints, piecewise
linear in alpha, which makes every operation in this module exact, and
``support_values`` builds its matrix at any alphas.  A fuzzy set on the plane
stores the matrix itself over finite direction and alpha grids.  Both offer
the same operations: level extraction, support evaluation, Minkowski sum,
product by a scalar, convex combination and non-singular matrix transforms.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .exceptions import (
    DimensionMismatch,
    GridMismatch,
    OrderViolation,
    OutOfRange,
    SingularMatrix,
)

DEFAULT_N_ALPHA = 100
# Upper bound on n_alpha: at 200 atoms a 1-D median/MAD profile then holds
# about 4e6 floats.
MAX_N_ALPHA = 10_000
DEFAULT_N_DIR = 360

_UNIT_NORM_TOL = 1e-9
_ANGLE_SNAP_TOL = 1e-9
_SINGULAR_TOL = 1e-12


def check_n_alpha(n_alpha):
    """Return ``n_alpha`` as an int; OutOfRange unless it is an integer in [1, MAX_N_ALPHA]."""
    try:
        n = operator.index(n_alpha)
    except TypeError:
        raise OutOfRange(f"n_alpha must be an integer, got {n_alpha!r}") from None
    if not 1 <= n <= MAX_N_ALPHA:
        raise OutOfRange(f"n_alpha must be between 1 and {MAX_N_ALPHA}, got {n}")
    return n


def uniform_alphas(n_alpha=DEFAULT_N_ALPHA):
    """Uniform grid of ``n_alpha + 1`` membership thresholds spanning [0, 1]."""
    return np.linspace(0.0, 1.0, check_n_alpha(n_alpha) + 1)


def merge_alphas(*alpha_arrays):
    """Sorted union of several alpha breakpoint arrays."""
    # One sort and a neighbour test: np.unique costs more, and every 1-D
    # metric pair calls this.
    merged = np.sort(np.concatenate(alpha_arrays))
    return np.concatenate((merged[:1], merged[1:][merged[1:] != merged[:-1]]))


def missing_alphas(alphas, grid):
    """The entries of ``alphas`` that are not in the sorted ``grid``."""
    pos = np.minimum(np.searchsorted(grid, alphas), len(grid) - 1)
    return alphas[grid[pos] != alphas]


def _check_alpha(alpha):
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _line_direction(u):
    """Validate a direction on the line; returns +1.0 or -1.0."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != 1:
        raise DimensionMismatch(f"expected a direction on the line, got shape {u.shape}")
    if abs(abs(u[0]) - 1.0) > _UNIT_NORM_TOL:
        raise OutOfRange(f"direction must have unit norm, got {u[0]}")
    return 1.0 if u[0] > 0 else -1.0


class DirectionGrid:
    """Finite set of unit directions carrying normalized weights.

    For dimension 1 the grid is {+1, -1} with weight 1/2 each.  For dimension
    2 it holds ``n_dir`` evenly spaced unit vectors at angles 2*pi*k/n_dir
    with weight 1/n_dir each; ``n_dir`` must be even so that -u belongs to
    the grid whenever u does.
    """

    __slots__ = ("dim", "angles", "vectors", "weights")

    def __init__(self, dim, angles, vectors, weights):
        self.dim = int(dim)
        self.angles = None if angles is None else np.asarray(angles, dtype=float)
        self.vectors = np.asarray(vectors, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        norms = np.linalg.norm(np.atleast_2d(self.vectors), axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
            raise OutOfRange("direction vectors must have unit norm")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise OutOfRange("direction weights must sum to one")

    @classmethod
    def line(cls):
        return cls(1, None, np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))

    @classmethod
    def circle(cls, n_dir=DEFAULT_N_DIR):
        if n_dir < 4 or n_dir % 2 != 0:
            raise OutOfRange(f"n_dir must be even and at least 4, got {n_dir}")
        angles = 2.0 * np.pi * np.arange(n_dir) / n_dir
        vectors = np.column_stack([np.cos(angles), np.sin(angles)])
        weights = np.full(n_dir, 1.0 / n_dir)
        return cls(2, angles, vectors, weights)

    @property
    def size(self):
        return len(self.vectors)

    def antipode_indices(self):
        """Index permutation mapping each direction u to -u."""
        n = self.size
        return (np.arange(n) + n // 2) % n

    def same_as(self, other):
        return (
            self.dim == other.dim
            and self.size == other.size
            and np.array_equal(self.vectors, other.vectors)
        )

    def __repr__(self):
        return f"DirectionGrid(dim={self.dim}, size={self.size})"


class LevelFuzzySet:
    """Fuzzy set on the line stored through piecewise-linear level endpoints.

    The level at alpha is the interval [lo(alpha), hi(alpha)] where lo and hi
    interpolate linearly between the stored breakpoints.  Validity requires
    lo non-decreasing, hi non-increasing and lo <= hi throughout, so levels
    are non-empty compact intervals nested as alpha grows.
    """

    __slots__ = ("alphas", "lo", "hi")
    dim = 1
    directions = DirectionGrid.line()

    def __init__(self, alphas, lo, hi, validate=True):
        self.alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if validate:
            self._validate()

    def _validate(self):
        a = self.alphas
        if not all(np.all(np.isfinite(v)) for v in (a, self.lo, self.hi)):
            raise OutOfRange("breakpoints and endpoints must be finite")
        if a.ndim != 1 or len(a) < 2 or a[0] != 0.0 or a[-1] != 1.0:
            raise OutOfRange("alpha breakpoints must run from 0 to 1")
        if np.any(np.diff(a) <= 0):
            raise OutOfRange("alpha breakpoints must be strictly increasing")
        if self.lo.shape != a.shape or self.hi.shape != a.shape:
            raise DimensionMismatch("endpoint arrays must match the breakpoints")
        scale = max(1.0, float(np.abs(self.lo).max()), float(np.abs(self.hi).max()))
        tol = 1e-9 * scale
        if np.any(self.lo > self.hi + tol):
            raise OrderViolation("lower endpoint exceeds upper endpoint")
        if np.any(np.diff(self.lo) < -tol):
            raise OrderViolation("lower endpoint must be non-decreasing in alpha")
        if np.any(np.diff(self.hi) > tol):
            raise OrderViolation("upper endpoint must be non-increasing in alpha")

    def endpoints(self, alphas):
        """Level endpoints interpolated at the given alpha values."""
        alphas = np.asarray(alphas, dtype=float)
        return (
            np.interp(alphas, self.alphas, self.lo),
            np.interp(alphas, self.alphas, self.hi),
        )

    def level(self, alpha):
        alpha = _check_alpha(alpha)
        return (
            float(np.interp(alpha, self.alphas, self.lo)),
            float(np.interp(alpha, self.alphas, self.hi)),
        )

    def support(self, u, alpha):
        sign = _line_direction(u)
        lo, hi = self.level(alpha)
        return hi if sign > 0 else -lo

    def support_values(self, alphas):
        """Support matrix at the given alphas: row 0 is s(+1) = hi, row 1 s(-1) = -lo."""
        lo, hi = self.endpoints(alphas)
        return np.array([hi, -lo])

    def resample(self, alphas):
        """Same fuzzy set represented on a superset of breakpoints."""
        merged = merge_alphas(self.alphas, np.asarray(alphas, dtype=float))
        lo, hi = self.endpoints(merged)
        return LevelFuzzySet(merged, lo, hi, validate=False)

    def __add__(self, other):
        if isinstance(other, (LevelFuzzySet, GridFuzzySet)):
            return add(self, other)
        return NotImplemented

    def __mul__(self, gamma):
        if np.isscalar(gamma):
            return scale(self, gamma)
        return NotImplemented

    __rmul__ = __mul__

    def isclose(self, other, tol=1e-9):
        merged = merge_alphas(self.alphas, other.alphas)
        diff = self.support_values(merged) - other.support_values(merged)
        return bool(np.all(np.abs(diff) <= tol))

    def __repr__(self):
        lo0, hi0 = self.lo[0], self.hi[0]
        lo1, hi1 = self.lo[-1], self.hi[-1]
        return (
            f"LevelFuzzySet(support=[{lo0:g}, {hi0:g}], core=[{lo1:g}, {hi1:g}], "
            f"breakpoints={len(self.alphas)})"
        )


def make_trapezoid(a, b, c, d):
    """Trapezoidal fuzzy number with support [a, d] and core [b, c].

    The level at alpha is [a + alpha*(b - a), d - alpha*(d - c)].  Knots must
    be finite and satisfy a <= b <= c <= d.
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    if not all(map(math.isfinite, (a, b, c, d))):
        raise OutOfRange(f"knots must be finite, got {(a, b, c, d)}")
    if not (a <= b <= c <= d):
        raise OrderViolation(f"knots must satisfy a <= b <= c <= d, got {(a, b, c, d)}")
    return LevelFuzzySet([0.0, 1.0], [a, b], [d, c], validate=False)


def crisp_interval(lo, hi):
    """Indicator of the interval [lo, hi] as a fuzzy set."""
    return make_trapezoid(lo, lo, hi, hi)


def crisp_point(x):
    """Indicator of a single point on the line."""
    return crisp_interval(x, x)


class GridFuzzySet:
    """Fuzzy set on the plane stored as support values over finite grids.

    ``values[i, j]`` is the support function evaluated at direction
    ``directions.vectors[i]`` and membership threshold ``alphas[j]``.  For a
    valid fuzzy set the values are non-increasing in alpha and the spread
    (s(u) + s(-u)) / 2 is non-negative.
    """

    __slots__ = ("directions", "alphas", "values")
    dim = 2

    def __init__(self, directions, alphas, values, validate=True):
        if directions.dim != 2:
            raise DimensionMismatch("grid representation expects a planar direction grid")
        self.directions = directions
        self.alphas = np.asarray(alphas, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if validate:
            self._validate()

    def _validate(self):
        a = self.alphas
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(self.values))):
            raise OutOfRange("alpha grid and support values must be finite")
        if a.ndim != 1 or len(a) < 2 or a[0] != 0.0 or a[-1] != 1.0 or np.any(np.diff(a) <= 0):
            raise OutOfRange("alpha grid must increase strictly from 0 to 1")
        if self.values.shape != (self.directions.size, len(a)):
            raise DimensionMismatch(
                f"support values must have shape {(self.directions.size, len(a))}, "
                f"got {self.values.shape}"
            )
        scale = max(1.0, float(np.abs(self.values).max()))
        tol = 1e-9 * scale
        if np.any(np.diff(self.values, axis=1) > tol):
            raise OrderViolation("support values must be non-increasing in alpha")
        anti = self.directions.antipode_indices()
        if np.any(self.values + self.values[anti] < -2.0 * tol):
            raise OrderViolation("negative spread: values do not describe a non-empty set")

    def _snap_alpha(self, alpha):
        alpha = _check_alpha(alpha)
        return int(np.argmin(np.abs(self.alphas - alpha)))

    def _angle_position(self, u):
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.size != 2:
            raise DimensionMismatch(f"expected a planar direction, got shape {u.shape}")
        if abs(math.hypot(u[0], u[1]) - 1.0) > _UNIT_NORM_TOL:
            raise OutOfRange("direction must have unit norm")
        theta = math.atan2(u[1], u[0]) % (2.0 * math.pi)
        return theta * self.directions.size / (2.0 * math.pi)

    def support(self, u, alpha):
        """Support value at direction u, alpha snapped to the nearest grid node.

        Directions off the angular grid are handled by linear interpolation
        between the two neighbouring grid directions.
        """
        j = self._snap_alpha(alpha)
        return float(self.support_column(u)[j])

    def support_column(self, u):
        """Support values over the whole alpha grid for one direction."""
        return _interp_periodic(self.values, self._angle_position(u))

    def level(self, alpha):
        """Convex polygon approximating the alpha-level.

        Vertices are the intersections of support lines of consecutive grid
        directions; returned as an array of shape (n_dir, 2).
        """
        j = self._snap_alpha(alpha)
        s = self.values[:, j]
        ang = self.directions.angles
        cos_i, sin_i = np.cos(ang), np.sin(ang)
        cos_k, sin_k = np.roll(cos_i, -1), np.roll(sin_i, -1)
        s_k = np.roll(s, -1)
        det = cos_i * sin_k - sin_i * cos_k
        x = (s * sin_k - s_k * sin_i) / det
        y = (cos_i * s_k - cos_k * s) / det
        return np.column_stack([x, y])

    def support_values(self, alphas):
        """Support matrix at the given alphas, each snapped like ``support``."""
        alphas = np.asarray(alphas, dtype=float)
        return self.values[:, np.argmin(np.abs(self.alphas - alphas[:, None]), axis=1)]

    def same_grids(self, other):
        return self.directions.same_as(other.directions) and np.array_equal(
            self.alphas, other.alphas
        )

    def resample(self, directions, alphas):
        """Interpolate the support values onto different grids."""
        alphas = np.asarray(alphas, dtype=float)
        pos = directions.angles * self.directions.size / (2.0 * math.pi)
        by_angle = _interp_periodic(self.values, pos)
        out = _interp_columns(alphas, self.alphas, by_angle)
        return GridFuzzySet(directions, alphas, out, validate=False)

    def __add__(self, other):
        if isinstance(other, (LevelFuzzySet, GridFuzzySet)):
            return add(self, other)
        return NotImplemented

    def __mul__(self, gamma):
        if np.isscalar(gamma):
            return scale(self, gamma)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"GridFuzzySet(n_dir={self.directions.size}, n_alpha={len(self.alphas) - 1})"
        )


def _interp_periodic(values, pos):
    """Rows of ``values`` at fractional row positions, periodic in the row.

    Row i sits at position i and row 0 follows the last row.  ``pos`` is a
    scalar, giving one row, or an array, giving one row per position.  A
    position within _ANGLE_SNAP_TOL of a row returns that row exactly;
    otherwise the two neighbouring rows are blended linearly.
    """
    n = len(values)
    pos = np.asarray(pos, dtype=float)
    floor = np.floor(pos)
    frac = (pos - floor)[..., None]
    i0 = floor.astype(int) % n
    i1 = (i0 + 1) % n
    blend = (1.0 - frac) * values[i0] + frac * values[i1]
    out = np.where(frac < _ANGLE_SNAP_TOL, values[i0], blend)
    return np.where(frac > 1.0 - _ANGLE_SNAP_TOL, values[i1], out)


def _interp_columns(x, xp, fp):
    """``np.interp(x, xp, row)`` for every row of ``fp`` at once.

    np.interp takes one row per call.  This uses its formula and, like it,
    returns the stored value exactly at a node, so for x inside
    [xp[0], xp[-1]] the result is bitwise that of a loop over rows.
    """
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    slope = (fp[:, j + 1] - fp[:, j]) / (xp[j + 1] - xp[j])
    out = np.where(x == xp[j], fp[:, j], slope * (x - xp[j]) + fp[:, j])
    return np.where(x == xp[-1], fp[:, -1:], out)


def grid_from_support(fn, directions, alphas):
    """Build a planar fuzzy set by sampling a support function.

    ``fn(u, alpha)`` must return the support value for a unit vector u; it is
    evaluated on every grid node.
    """
    alphas = np.asarray(alphas, dtype=float)
    values = np.empty((directions.size, len(alphas)))
    for i, u in enumerate(directions.vectors):
        for j, alpha in enumerate(alphas):
            values[i, j] = fn(u, alpha)
    return GridFuzzySet(directions, alphas, values)


def grid_crisp_point(xy, directions, alphas):
    """Indicator of a single point in the plane on the given grids."""
    xy = np.asarray(xy, dtype=float).reshape(2)
    alphas = np.asarray(alphas, dtype=float)
    col = directions.vectors @ xy
    values = np.repeat(col[:, None], len(alphas), axis=1)
    return GridFuzzySet(directions, alphas, values, validate=False)


def grid_zonotope(center, generators, directions, alphas, shrink=0.5):
    """Fuzzy set whose levels are shrinking zonotopes around a center.

    The level at alpha is center + (1 - shrink * alpha) * Z where Z is the
    zonotope spanned by the generator segments, so the support values are
    <u, center> + (1 - shrink * alpha) * sum_k |<u, g_k>|.  ``shrink`` must
    lie in [0, 1]; inputs and support values must be finite.
    """
    center = np.asarray(center, dtype=float).reshape(2)
    generators = np.atleast_2d(np.asarray(generators, dtype=float))
    alphas = np.asarray(alphas, dtype=float)
    shrink = float(shrink)
    if not 0.0 <= shrink <= 1.0:
        raise OutOfRange(f"shrink must lie in [0, 1], got {shrink}")
    if not all(np.all(np.isfinite(v)) for v in (center, generators, alphas)):
        raise OutOfRange("center, generators and alphas must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.abs(directions.vectors @ generators.T).sum(axis=1)
        col = directions.vectors @ center
        values = col[:, None] + base[:, None] * (1.0 - shrink * alphas)[None, :]
    if not np.all(np.isfinite(values)):
        raise OutOfRange("support values overflow the float range")
    return GridFuzzySet(directions, alphas, values, validate=False)


def level(a, alpha):
    """Alpha-level of a fuzzy set; interval endpoints or polygon vertices."""
    return a.level(alpha)


def support(a, u, alpha):
    """Support function of a fuzzy set at direction u and threshold alpha."""
    return a.support(u, alpha)


def mid(a, u, alpha):
    """Midpoint component (s(u) - s(-u)) / 2 of the support function."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return 0.5 * (a.support(u, alpha) - a.support(-u, alpha))


def spr(a, u, alpha):
    """Spread component (s(u) + s(-u)) / 2 of the support function."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return 0.5 * (a.support(u, alpha) + a.support(-u, alpha))


def add(a, b):
    """Minkowski (levelwise) sum of two fuzzy sets of equal dimension."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot add sets of dimension {a.dim} and {b.dim}")
    if a.dim == 1:
        merged = merge_alphas(a.alphas, b.alphas)
        lo_a, hi_a = a.endpoints(merged)
        lo_b, hi_b = b.endpoints(merged)
        return LevelFuzzySet(merged, lo_a + lo_b, hi_a + hi_b, validate=False)
    if not a.same_grids(b):
        b = b.resample(a.directions, a.alphas)
    return GridFuzzySet(a.directions, a.alphas, a.values + b.values, validate=False)


def scale(a, gamma):
    """Product of a fuzzy set by a real scalar, levelwise.

    Negative scalars reflect the levels; gamma = 0 collapses the set to the
    indicator of the origin.
    """
    gamma = float(gamma)
    if a.dim == 1:
        if gamma > 0:
            return LevelFuzzySet(a.alphas, gamma * a.lo, gamma * a.hi, validate=False)
        if gamma < 0:
            return LevelFuzzySet(a.alphas, gamma * a.hi, gamma * a.lo, validate=False)
        return crisp_point(0.0)
    if gamma > 0:
        return GridFuzzySet(a.directions, a.alphas, gamma * a.values, validate=False)
    if gamma < 0:
        anti = a.directions.antipode_indices()
        return GridFuzzySet(a.directions, a.alphas, -gamma * a.values[anti], validate=False)
    return GridFuzzySet(a.directions, a.alphas, np.zeros_like(a.values), validate=False)


def convex_combo(a, b, lam):
    """Convex combination (1 - lam) * a + lam * b, levelwise."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"lambda must lie in [0, 1], got {lam}")
    return add(scale(a, 1.0 - lam), scale(b, lam))


def matrix_transform(a, m):
    """Image of a fuzzy set under a non-singular linear map.

    The support function transforms as s_{M.A}(u, alpha) =
    ||M^T u|| * s_A(M^T u / ||M^T u||, alpha).  On the line this is the
    product by the single matrix entry.  On the plane, rotations by a
    multiple of the angular grid step permute the stored support values
    exactly; any other map falls back to angular interpolation.
    """
    m = np.asarray(m, dtype=float)
    if a.dim == 1:
        entries = m.reshape(-1)
        if entries.size != 1:
            raise DimensionMismatch(f"expected a 1x1 matrix, got shape {m.shape}")
        gamma = float(entries[0])
        if abs(gamma) <= _SINGULAR_TOL:
            raise SingularMatrix("matrix entry is zero")
        return scale(a, gamma)
    if m.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got shape {m.shape}")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= _SINGULAR_TOL:
        raise SingularMatrix(f"matrix determinant {det} is numerically zero")
    n = a.directions.size
    if det > 0 and np.allclose(m.T @ m, np.eye(2), atol=1e-12):
        # Pure rotation: when the angle sits on the grid, permute exactly.
        phi = math.atan2(m[1, 0], m[0, 0])
        steps = phi * n / (2.0 * math.pi)
        if abs(steps - round(steps)) < _ANGLE_SNAP_TOL:
            shift = int(round(steps)) % n
            idx = (np.arange(n) - shift) % n
            return GridFuzzySet(a.directions, a.alphas, a.values[idx], validate=False)
    transposed = a.directions.vectors @ m  # row k holds M^T u_k
    norms = np.linalg.norm(transposed, axis=1)
    pos = (np.arctan2(transposed[:, 1], transposed[:, 0]) % (2.0 * math.pi)) * n / (
        2.0 * math.pi
    )
    values = norms[:, None] * _interp_periodic(a.values, pos)
    return GridFuzzySet(a.directions, a.alphas, values, validate=False)
