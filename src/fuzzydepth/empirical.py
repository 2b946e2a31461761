"""Empirical fuzzy random variables and weighted location statistics.

An empirical fuzzy random variable is a finite family of fuzzy-set atoms with
positive weights summing to one.  Expectations over it are exact weighted
sums; nothing here is sampled.

What the depths need of a sample is fitted once and cached on it: the atoms'
support matrices stacked by breakpoint grid, and the median/MAD profiles of
the projection depth.  Atoms and weights are therefore treated as immutable;
the variable keeps its own read-only copy of the weights.

The weighted median follows the interval convention: the lower endpoint is
the smallest value y with P(Y <= y) >= 1/2, the upper endpoint the largest y
with P(Y >= y) >= 1/2, and the reported point is the midpoint of that
interval.  The median absolute deviation (MAD) is the weighted median of the
absolute deviations from that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EmptySample,
    GridMismatch,
    InvalidPerturbation,
    OrderViolation,
    OutOfRange,
)
from .fuzzyset import GridFuzzySet, LevelFuzzySet, merge_alphas, uniform_alphas

# Slack on the cumulative-weight comparisons so that weights like 1/3, whose
# partial sums only reach 0.5 up to rounding, still split correctly.
_HALF_TOL = 1e-12


@dataclass(frozen=True)
class MedianInterval:
    """Set of weighted medians, reported through its endpoints."""

    lo: float
    hi: float

    @property
    def point(self):
        """Midpoint of the median interval, the convention used throughout."""
        return 0.5 * (self.lo + self.hi)


def _check_weights(weights, n, allow_zero=False):
    """Weights of n values as a float array, finite and strictly positive.

    With ``allow_zero`` zeros are accepted, as long as one weight is positive.
    """
    if n == 0:
        raise EmptySample("no values supplied")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise DimensionMismatch("one weight per value is required")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise OutOfRange("weights must be finite and non-negative")
    if not allow_zero and np.any(weights == 0.0):
        raise OutOfRange("weights must be strictly positive")
    if not np.any(weights > 0.0):
        raise EmptySample("at least one weight must be positive")
    return weights


def _normalized_weights(n, weights):
    """Checked weights scaled to sum to one; None means equal weights."""
    weights = _check_weights(np.ones(n) if weights is None else weights, n)
    return weights / weights.sum()


def _median_columns(values, weights):
    """Columnwise weighted median interval of a (n, m) value matrix.

    Returns (lo, hi) arrays of shape (m,).  Weights are shared by rows and
    must be normalized.
    """
    n, m = values.shape
    order = np.argsort(values, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=0)
    sorted_w = weights[order]
    cum = np.cumsum(sorted_w, axis=0)
    cols = np.arange(m)
    lo_idx = np.argmax(cum >= 0.5 - _HALF_TOL, axis=0)
    lo = sorted_vals[lo_idx, cols]
    tail = np.cumsum(sorted_w[::-1], axis=0)[::-1]
    hi_mask = tail >= 0.5 - _HALF_TOL
    hi_idx = n - 1 - np.argmax(hi_mask[::-1], axis=0)
    hi = sorted_vals[hi_idx, cols]
    return lo, hi


def _mad_columns(values, weights, center):
    lo, hi = _median_columns(np.abs(values - center), weights)
    return 0.5 * (lo + hi)


def weighted_median(values, weights=None):
    """Weighted median of real values, as a MedianInterval."""
    values = np.asarray(values, dtype=float).reshape(-1)
    weights = _normalized_weights(len(values), weights)
    lo, hi = _median_columns(values[:, None], weights)
    return MedianInterval(float(lo[0]), float(hi[0]))


def weighted_mad(values, weights=None):
    """Weighted median absolute deviation around the weighted median point."""
    values = np.asarray(values, dtype=float).reshape(-1)
    weights = _normalized_weights(len(values), weights)
    center = weighted_median(values, weights).point
    return weighted_median(np.abs(values - center), weights).point


class SupportBlock:
    """Atoms with the same number of breakpoints, their support matrices stacked.

    Row i is atom ``index[i]``: ``alphas[i]`` are its own breakpoints and
    ``values[i]`` its support matrix there, so the block has shape
    (m, n_dir, K) and no atom is resampled.  ``shared`` holds the alphas that
    every row has in the same column: all of them when the atoms share one
    grid, as trapezoids and planar atoms do, and at least 0 and 1.
    """

    __slots__ = ("alphas", "index", "values", "shared")

    def __init__(self, alphas, index, values):
        self.alphas = alphas
        self.index = index
        self.values = values
        self.shared = alphas[0][np.all(alphas == alphas[0], axis=0)]

    def at(self, alphas):
        """Every atom's support matrix at the sorted ``alphas``, (m, n_dir, len(alphas)).

        Planar blocks take only their own grid.  On the line the endpoints are
        linear between each atom's breakpoints, so this is exact, and bitwise
        what ``support_values`` gives.
        """
        if len(self.shared) == self.alphas.shape[1] and np.array_equal(alphas, self.shared):
            return self.values
        return _interp_rows(alphas, self.alphas, self.values)

    def with_breakpoints(self, extra):
        """Each atom's breakpoints merged with the sorted ``extra``, and its values there.

        Returns (alphas, values) of shapes (m, K + len(extra)) and
        (m, n_dir, K + len(extra)); an extra alpha that is already a
        breakpoint of a row repeats it, a segment of length zero.
        """
        if not extra.size:
            return self.alphas, self.values
        m = len(self.alphas)
        alphas = np.concatenate([self.alphas, np.broadcast_to(extra, (m, len(extra)))], axis=1)
        values = np.concatenate([self.values, _interp_rows(extra, self.alphas, self.values)], axis=2)
        order = np.argsort(alphas, axis=1, kind="stable")
        return (
            np.take_along_axis(alphas, order, axis=1),
            np.take_along_axis(values, order[:, None, :], axis=2),
        )


def _interp_rows(x, xp, fp):
    """``np.interp(x, xp[i], fp[i, d])`` for every row i and every d at once.

    x is sorted and within every row's range; xp is (m, K) with sorted rows
    and fp (m, n, K).  Like ``_interp_columns`` this is np.interp's formula
    and returns the stored value exactly at a node, so it is bitwise a loop
    of np.interp calls.
    """
    m, k = xp.shape
    nodes = np.concatenate([xp, np.broadcast_to(x, (m, len(x)))], axis=1)
    is_node = np.argsort(nodes, axis=1, kind="stable") < k
    # after a stable sort, the last node at or before each x
    j = (np.cumsum(is_node, axis=1) - 1)[~is_node].reshape(m, len(x))
    j1 = np.minimum(j + 1, k - 1)
    x0, x1 = np.take_along_axis(xp, j, axis=1), np.take_along_axis(xp, j1, axis=1)
    f0 = np.take_along_axis(fp, j[:, None, :], axis=2)
    f1 = np.take_along_axis(fp, j1[:, None, :], axis=2)
    slope = (f1 - f0) / np.where(x1 > x0, x1 - x0, 1.0)[:, None, :]
    return np.where((x == x0)[:, None, :], f0, slope * (x - x0)[:, None, :] + f0)


class SampleFit:
    """Everything the depths compute from a sample alone, built once.

    ``blocks`` stacks the atoms by their number of breakpoints, each atom on
    its own breakpoints (all trapezoids share [0, 1], planar atoms share
    their grid).  No atom is put on the union of all breakpoints, which grows
    with the sample.  Median/MAD profiles are computed on demand and cached
    per alpha grid size.
    """

    __slots__ = ("dim", "size", "weights", "blocks", "_profiles")

    def __init__(self, atoms, weights):
        groups = {}
        for i, atom in enumerate(atoms):
            groups.setdefault(len(atom.alphas), []).append(i)
        self.dim = atoms[0].dim
        self.size = len(atoms)
        self.weights = weights
        self.blocks = tuple(
            SupportBlock(
                np.stack([atoms[i].alphas for i in index]),
                np.array(index),
                np.stack([atoms[i].support_values(atoms[i].alphas) for i in index]),
            )
            for index in groups.values()
        )
        self._profiles = {}

    def support_columns(self, alphas):
        """Each atom's support matrix at ``alphas``, one flattened row per atom."""
        n_dir = self.blocks[0].values.shape[1]
        out = np.empty((self.size, n_dir, len(alphas)))
        for block in self.blocks:
            out[block.index] = block.at(alphas)
        return out.reshape(self.size, -1)

    def median_mad(self, alphas):
        """Weighted median points and MADs of the support columns at ``alphas``."""
        values = self.support_columns(alphas)
        lo, hi = _median_columns(values, self.weights)
        med = 0.5 * (lo + hi)
        return med, _mad_columns(values, self.weights, med)

    def projection_profile(self, n_alpha):
        """(alphas, median, MAD) of the projection depth, cached per ``n_alpha``.

        On the line the alphas are the uniform grid of ``n_alpha`` steps plus
        every breakpoint of the atoms; planar atoms use their stored grid.
        """
        if n_alpha not in self._profiles:
            alphas = self.blocks[0].shared
            if self.dim == 1:
                alphas = merge_alphas(uniform_alphas(n_alpha), *(b.alphas.ravel() for b in self.blocks))
            self._profiles[n_alpha] = (alphas, *self.median_mad(alphas))
        return self._profiles[n_alpha]


class EmpiricalFRV:
    """Finitely supported fuzzy random variable.

    Atoms are fuzzy sets of one common dimension; weights are positive and
    sum to one within 1e-12.  Planar atoms must share their direction and
    alpha grids.  ``fit()`` caches the sample's SampleFit, so atoms must not
    be modified after construction; ``weights`` is a read-only copy.
    """

    __slots__ = ("atoms", "weights", "_fit")

    def __init__(self, atoms, weights):
        atoms = tuple(atoms)
        weights = _check_weights(weights, len(atoms))
        if abs(weights.sum() - 1.0) > 1e-12:
            raise OutOfRange("atom weights must sum to one within 1e-12")
        dim = atoms[0].dim
        for atom in atoms[1:]:
            if atom.dim != dim:
                raise DimensionMismatch("atoms must share one dimension")
        if dim == 2:
            first = atoms[0]
            for atom in atoms[1:]:
                if not first.same_grids(atom):
                    raise GridMismatch("planar atoms must share their grids")
        self.atoms = atoms
        self.weights = weights.copy()
        self.weights.flags.writeable = False
        self._fit = None

    def fit(self):
        """The sample's SampleFit, built on first use and then reused."""
        if self._fit is None:
            self._fit = SampleFit(self.atoms, self.weights)
        return self._fit

    @property
    def dim(self):
        return self.atoms[0].dim

    @property
    def size(self):
        return len(self.atoms)

    def map_atoms(self, fn):
        """New variable with the same weights and transformed atoms."""
        return EmpiricalFRV([fn(atom) for atom in self.atoms], self.weights)

    def expectation(self, fn):
        """Exact weighted sum of fn over the atoms, accumulated in order."""
        total = 0.0
        for weight, atom in zip(self.weights, self.atoms):
            total += weight * fn(atom)
        return total

    def __repr__(self):
        return f"EmpiricalFRV(size={self.size}, dim={self.dim})"


def make_frv(atoms, weights=None, frequencies=None):
    """Empirical fuzzy random variable from atoms plus weights or counts.

    Exactly one of ``weights`` and ``frequencies`` may be given; with neither
    the atoms are equally weighted.  Frequencies are non-negative counts, at
    least one positive; atoms with frequency zero are dropped from the
    distribution.  Weights are normalized by their sum.
    """
    atoms = list(atoms)
    if weights is not None and frequencies is not None:
        raise OutOfRange("pass either weights or frequencies, not both")
    if frequencies is not None:
        freq = _check_weights(frequencies, len(atoms), allow_zero=True)
        keep = freq > 0.0
        atoms = [atom for atom, k in zip(atoms, keep) if k]
        weights = freq[keep]
    return EmpiricalFRV(atoms, _normalized_weights(len(atoms), weights))


def support_marginal(x, u, alpha):
    """Values and weights of the support marginal s_X(u, alpha).

    Returns the pair (values, weights) describing the distribution of the
    real random variable obtained by evaluating the support function of X at
    a fixed direction and threshold.
    """
    values = np.array([atom.support(u, alpha) for atom in x.atoms])
    return values, x.weights.copy()


def _delta_profile(component, alphas):
    """Perturbation profile as values on the given breakpoints.

    A scalar means a constant profile; a (breakpoints, values) pair is
    interpolated linearly.
    """
    if np.isscalar(component):
        value = float(component)
        return np.full(len(alphas), value), np.asarray([0.0, 1.0])
    knots, vals = component
    knots = np.asarray(knots, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if knots.ndim != 1 or knots.shape != vals.shape:
        raise InvalidPerturbation("a profile needs matching breakpoints and values")
    if knots[0] != 0.0 or knots[-1] != 1.0 or np.any(np.diff(knots) <= 0):
        raise InvalidPerturbation("profile breakpoints must increase from 0 to 1")
    return np.interp(alphas, knots, vals), knots


def sign_flip_symmetric_frv(center, deltas):
    """Symmetric empirical variable built by widening/narrowing a center.

    Each delta is a pair (delta_lo, delta_hi) of non-negative perturbation
    profiles of the lower and upper level endpoints; profiles are scalars or
    (breakpoints, values) pairs.  Every choice of sign epsilon_k = +/-1 per
    delta yields one atom with endpoints
    lo - sum_k epsilon_k delta_lo_k and hi + sum_k epsilon_k delta_hi_k,
    all atoms equally weighted.  The support process of the atoms is then
    distributed symmetrically around the center, jointly over directions and
    thresholds.  Raises InvalidPerturbation when any signed combination
    breaks level nesting or empties a level.
    """
    if center.dim != 1:
        raise DimensionMismatch("the sign-flip construction is one-dimensional")
    deltas = list(deltas)
    if not deltas:
        raise InvalidPerturbation("at least one delta is required")
    alphas = center.alphas
    profiles = []
    for delta_lo, delta_hi in deltas:
        for comp in (delta_lo, delta_hi):
            _, knots = _delta_profile(comp, alphas)
            alphas = merge_alphas(alphas, knots)
    lo_c, hi_c = center.endpoints(alphas)
    for delta_lo, delta_hi in deltas:
        p_lo, _ = _delta_profile(delta_lo, alphas)
        p_hi, _ = _delta_profile(delta_hi, alphas)
        if np.any(p_lo < 0.0) or np.any(p_hi < 0.0):
            raise InvalidPerturbation("perturbation profiles must be non-negative")
        profiles.append((p_lo, p_hi))
    atoms = []
    for signs in product((1.0, -1.0), repeat=len(profiles)):
        lo = lo_c.copy()
        hi = hi_c.copy()
        for sign, (p_lo, p_hi) in zip(signs, profiles):
            lo = lo - sign * p_lo
            hi = hi + sign * p_hi
        try:
            atoms.append(LevelFuzzySet(alphas, lo, hi))
        except (OrderViolation, OutOfRange) as err:
            raise InvalidPerturbation(
                f"sign pattern {tuple(int(s) for s in signs)} breaks validity: {err}"
            ) from err
    return make_frv(atoms)
