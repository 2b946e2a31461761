"""Weighted medians, empirical variables, and the symmetric generator."""

import numpy as np
import pytest

from fuzzydepth import (
    DimensionMismatch,
    DirectionGrid,
    EmpiricalFRV,
    EmptySample,
    GridMismatch,
    InvalidPerturbation,
    MedianInterval,
    OutOfRange,
    crisp_interval,
    grid_crisp_point,
    make_frv,
    make_trapezoid,
    sign_flip_symmetric_frv,
    support_marginal,
    uniform_alphas,
    weighted_mad,
    weighted_median,
)

HALF_TOL = 1e-12


def brute_median_interval(values, weights):
    """Median interval straight from the distribution-function definition."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    lo = min(y for y in values if weights[values <= y].sum() >= 0.5 - HALF_TOL)
    hi = max(y for y in values if weights[values >= y].sum() >= 0.5 - HALF_TOL)
    return lo, hi


class TestWeightedMedian:
    def test_odd_unweighted(self):
        m = weighted_median([3.0, 1.0, 2.0])
        assert (m.lo, m.hi) == (2.0, 2.0)
        assert m.point == 2.0

    def test_even_unweighted_interval(self):
        m = weighted_median([1.0, 2.0, 3.0, 4.0])
        assert (m.lo, m.hi) == (2.0, 3.0)
        assert m.point == 2.5

    def test_weight_tips_the_balance(self):
        m = weighted_median([1.0, 2.0, 3.0], weights=[5.0, 1.0, 1.0])
        assert (m.lo, m.hi) == (1.0, 1.0)

    def test_third_weights_land_on_middle(self):
        # cumulative sums hit 1/3 and 2/3 only up to rounding; the 1e-12
        # slack must not let the comparison slip past the middle atom
        m = weighted_median([10.0, 20.0, 30.0], weights=[1 / 3, 1 / 3, 1 / 3])
        assert (m.lo, m.hi) == (20.0, 20.0)

    def test_duplicated_values(self):
        m = weighted_median([1.0, 2.0, 2.0, 5.0])
        assert (m.lo, m.hi) == (2.0, 2.0)

    def test_single_value(self):
        m = weighted_median([7.0])
        assert (m.lo, m.hi) == (7.0, 7.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = rng.integers(1, 12)
            values = np.round(rng.normal(size=n), 2)  # rounding forces ties
            weights = rng.uniform(0.1, 2.0, size=n)
            m = weighted_median(values, weights)
            assert (m.lo, m.hi) == brute_median_interval(values, weights)

    def test_validation(self):
        with pytest.raises(Exception):
            weighted_median([])
        with pytest.raises(DimensionMismatch):
            weighted_median([1.0, 2.0], weights=[1.0])
        with pytest.raises(OutOfRange):
            weighted_median([1.0, 2.0], weights=[1.0, 0.0])


class TestWeightedMad:
    def test_symmetric_sample(self):
        assert weighted_mad([1.0, 2.0, 3.0]) == 1.0

    def test_even_sample_midpoint_convention(self):
        # median point 2.5, deviations (1.5, 0.5, 0.5, 1.5), median 1.0
        assert weighted_mad([1.0, 2.0, 3.0, 4.0]) == 1.0

    def test_degenerate_sample(self):
        assert weighted_mad([4.0, 4.0, 4.0]) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            n = rng.integers(1, 10)
            values = np.round(rng.normal(size=n), 2)
            weights = rng.uniform(0.1, 2.0, size=n)
            center = sum(brute_median_interval(values, weights)) / 2.0
            lo, hi = brute_median_interval(np.abs(values - center), weights)
            assert weighted_mad(values, weights) == pytest.approx(
                0.5 * (lo + hi), abs=1e-14
            )


class TestEmpiricalFRV:
    def test_basic_properties(self):
        x = make_frv([crisp_interval(0.0, 1.0), crisp_interval(2.0, 3.0)])
        assert x.size == 2
        assert x.dim == 1
        assert np.allclose(x.weights, [0.5, 0.5])

    def test_expectation_is_weighted_sum(self):
        x = make_frv(
            [crisp_interval(0.0, 1.0), crisp_interval(2.0, 3.0)], weights=[3.0, 1.0]
        )
        got = x.expectation(lambda atom: atom.level(0.0)[1])
        assert got == 0.75 * 1.0 + 0.25 * 3.0

    def test_map_atoms_keeps_weights(self):
        x = make_frv([crisp_interval(0.0, 1.0)], weights=[1.0])
        y = x.map_atoms(lambda a: 2.0 * a)
        assert y.atoms[0].level(0.0) == (0.0, 2.0)
        assert np.array_equal(y.weights, x.weights)

    def test_frequencies_drop_zero_rows(self):
        atoms = [crisp_interval(float(k), float(k + 1)) for k in range(3)]
        x = make_frv(atoms, frequencies=[2, 0, 6])
        assert x.size == 2
        assert np.allclose(x.weights, [0.25, 0.75])

    def test_weights_and_frequencies_exclusive(self):
        atoms = [crisp_interval(0.0, 1.0)]
        with pytest.raises(OutOfRange):
            make_frv(atoms, weights=[1.0], frequencies=[1])

    def test_all_zero_frequencies(self):
        with pytest.raises(EmptySample):
            make_frv([crisp_interval(0.0, 1.0)], frequencies=[0])

    def test_negative_frequency(self):
        with pytest.raises(OutOfRange):
            make_frv([crisp_interval(0.0, 1.0)], frequencies=[-1])

    def test_non_finite_frequencies_rejected(self):
        atoms = [crisp_interval(0.0, 1.0), crisp_interval(1.0, 2.0)]
        for bad in (np.nan, np.inf):
            with pytest.raises(OutOfRange):
                make_frv(atoms, frequencies=[1, bad])

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            make_frv([])

    def test_weight_validation(self):
        atoms = [crisp_interval(0.0, 1.0), crisp_interval(1.0, 2.0)]
        with pytest.raises(DimensionMismatch):
            EmpiricalFRV(atoms, [1.0])
        with pytest.raises(OutOfRange):
            EmpiricalFRV(atoms, [0.5, 0.6])
        with pytest.raises(OutOfRange):
            EmpiricalFRV(atoms, [1.0, -0.1])
        for bad in (np.nan, np.inf):
            with pytest.raises(OutOfRange):
                EmpiricalFRV(atoms, [bad, 0.5])
            with pytest.raises(OutOfRange):
                make_frv(atoms[:1], weights=[bad])
            with pytest.raises(OutOfRange):
                make_frv(atoms, weights=[1.0, bad])

    def test_mixed_dimensions_rejected(self):
        grid = DirectionGrid.circle(8)
        g = grid_crisp_point([0.0, 0.0], grid, uniform_alphas(2))
        with pytest.raises(DimensionMismatch):
            EmpiricalFRV([crisp_interval(0.0, 1.0), g], [0.5, 0.5])

    def test_planar_grid_mismatch_rejected(self):
        a = grid_crisp_point([0.0, 0.0], DirectionGrid.circle(8), uniform_alphas(2))
        b = grid_crisp_point([0.0, 0.0], DirectionGrid.circle(16), uniform_alphas(2))
        with pytest.raises(GridMismatch):
            EmpiricalFRV([a, b], [0.5, 0.5])


class TestSupportMarginal:
    def test_values_and_weights(self):
        x = make_frv(
            [crisp_interval(1.0, 2.0), crisp_interval(5.0, 7.0)], weights=[0.25, 0.75]
        )
        values, weights = support_marginal(x, [1.0], 0.0)
        assert list(values) == [2.0, 7.0]
        assert list(weights) == [0.25, 0.75]
        values, _ = support_marginal(x, [-1.0], 0.0)
        assert list(values) == [-1.0, -5.0]

    def test_trapezoid_support_value(self):
        x = make_frv([crisp_interval(3.0, 4.0)])
        values, _ = support_marginal(x, [1.0], 0.0)
        assert values[0] == 4.0


class TestSignFlipSymmetric:
    def test_two_deltas_make_four_atoms(self):
        center = make_trapezoid(0.0, 1.0, 3.0, 4.0)
        x = sign_flip_symmetric_frv(center, [(0.25, 0.25), (0.125, 0.0625)])
        assert x.size == 4
        assert np.allclose(x.weights, 0.25)

    def test_marginals_symmetric_about_center(self):
        center = make_trapezoid(0.0, 1.0, 3.0, 4.0)
        x = sign_flip_symmetric_frv(center, [(0.25, 0.25), (0.125, 0.0625)])
        for u in ([1.0], [-1.0]):
            for alpha in (0.0, 0.5, 1.0):
                values, weights = support_marginal(x, u, alpha)
                c = center.support(u, alpha)
                deviations = np.sort(values - c)
                # sign flip: the deviation multiset is its own negation
                assert np.allclose(deviations, -deviations[::-1], atol=1e-12)
                assert np.allclose(weights, 0.25)

    def test_alpha_dependent_profile(self):
        center = make_trapezoid(0.0, 1.0, 3.0, 4.0)
        profile = ([0.0, 0.5, 1.0], [0.5, 0.25, 0.0])  # shrinks toward the core
        x = sign_flip_symmetric_frv(center, [(profile, 0.25)])
        assert x.size == 2
        widened, narrowed = x.atoms
        assert widened.level(0.0)[0] == pytest.approx(-0.5)
        assert widened.level(1.0)[0] == pytest.approx(1.0)
        assert narrowed.level(0.0)[0] == pytest.approx(0.5)
        # the profile knot 0.5 must survive into the atom breakpoints
        assert 0.5 in set(widened.alphas)

    def test_oversized_delta_rejected(self):
        center = make_trapezoid(0.0, 1.0, 1.5, 2.0)  # core width 0.5
        with pytest.raises(InvalidPerturbation):
            sign_flip_symmetric_frv(center, [(1.0, 1.0)])

    def test_negative_profile_rejected(self):
        center = make_trapezoid(0.0, 1.0, 3.0, 4.0)
        with pytest.raises(InvalidPerturbation):
            sign_flip_symmetric_frv(center, [(-0.25, 0.25)])

    def test_bad_profile_knots_rejected(self):
        center = make_trapezoid(0.0, 1.0, 3.0, 4.0)
        with pytest.raises(InvalidPerturbation):
            sign_flip_symmetric_frv(center, [(([0.2, 1.0], [0.1, 0.1]), 0.25)])

    def test_no_deltas_rejected(self):
        with pytest.raises(InvalidPerturbation):
            sign_flip_symmetric_frv(make_trapezoid(0.0, 1.0, 3.0, 4.0), [])

    def test_planar_center_rejected(self):
        g = grid_crisp_point([0.0, 0.0], DirectionGrid.circle(8), uniform_alphas(2))
        with pytest.raises(DimensionMismatch):
            sign_flip_symmetric_frv(g, [(0.1, 0.1)])


def test_median_interval_point():
    m = MedianInterval(1.0, 3.0)
    assert m.point == 2.0
