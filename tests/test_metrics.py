"""Metric families: frozen values, quadrature oracles, metric axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fuzzydepth import (
    DimensionMismatch,
    DirectionGrid,
    LevelFuzzySet,
    MetricSpec,
    OutOfRange,
    add,
    convex_combo,
    crisp_interval,
    crisp_point,
    grid_crisp_point,
    grid_zonotope,
    hausdorff,
    make_trapezoid,
    metric_d_r,
    metric_d_r_theta,
    metric_rho_r,
    scale,
    uniform_alphas,
)
from fuzzydepth.empirical import stack_supports
from fuzzydepth.metrics import (
    _generic_segment_means,
    _refine_for_max,
    _segment_abs_pow,
    _segment_means,
    metric_powers,
)


def random_trapezoid(rng, span=10.0):
    knots = np.sort(rng.uniform(-span, span, size=4))
    return make_trapezoid(*knots)


def random_pl_set(rng, max_interior=4):
    """Piecewise-linear fuzzy set with a few random breakpoints."""
    k = rng.integers(0, max_interior + 1)
    alphas = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k)), [1.0]])
    n = len(alphas)
    lo = rng.uniform(-10.0, -8.0) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.5, n - 1))])
    hi = rng.uniform(5.0, 7.0) - np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 0.5, n - 1))])
    return LevelFuzzySet(alphas, lo, hi)


# Reference: the 1-D metrics written on the lo/hi level endpoints, each
# segment integrated in closed form.  The library computes them from the
# support matrix (rows s(+1) = hi and s(-1) = -lo) and must agree bitwise.


def _endpoint_differences(a, b):
    merged = np.union1d(a.alphas, b.alphas)
    lo_a, hi_a = a.endpoints(merged)
    lo_b, hi_b = b.endpoints(merged)
    return merged, lo_a - lo_b, hi_a - hi_b


def _piecewise_abs_pow_integral(alphas, ys, r):
    alphas, ys = alphas.tolist(), ys.tolist()  # Python floats, like the library
    total = 0.0
    for k in range(len(alphas) - 1):
        total += _segment_abs_pow(alphas[k], alphas[k + 1], ys[k], ys[k + 1], r)
    return total


def reference_rho_r(a, b, r):
    merged, dlo, dhi = _endpoint_differences(a, b)
    total = 0.5 * _piecewise_abs_pow_integral(merged, dhi, r)
    total += 0.5 * _piecewise_abs_pow_integral(merged, dlo, r)
    return total ** (1.0 / r)


def reference_d_r_theta(a, b, r, theta):
    merged, dlo, dhi = _endpoint_differences(a, b)
    total = _piecewise_abs_pow_integral(merged, 0.5 * (dhi + dlo), r)
    total += theta * _piecewise_abs_pow_integral(merged, 0.5 * (dhi - dlo), r)
    return total ** (1.0 / r)


def reference_d_r(a, b, r):
    merged, dlo, dhi = _endpoint_differences(a, b)
    if math.isinf(r):
        return float(np.max(np.maximum(np.abs(dlo), np.abs(dhi))))
    refined = _refine_for_max(merged, dlo, dhi)
    f = np.interp(refined, merged, dlo).tolist()
    g = np.interp(refined, merged, dhi).tolist()
    refined = refined.tolist()
    total = 0.0
    for k in range(len(refined) - 1):
        mid_f = abs(0.5 * (f[k] + f[k + 1]))
        mid_g = abs(0.5 * (g[k] + g[k + 1]))
        y0, y1 = (f[k], f[k + 1]) if mid_f >= mid_g else (g[k], g[k + 1])
        total += _segment_abs_pow(refined[k], refined[k + 1], y0, y1, r)
    return total ** (1.0 / r)


@st.composite
def trapezoid_pairs(draw):
    def knots():
        a = draw(st.floats(-50, 50))
        b = a + draw(st.floats(0, 10))
        c = b + draw(st.floats(0, 10))
        return a, b, c, c + draw(st.floats(0, 10))

    return make_trapezoid(*knots()), make_trapezoid(*knots())


class TestEndpointReference:
    """The support-matrix metrics equal the endpoint formulas bitwise on the line."""

    @given(
        trapezoid_pairs(),
        st.sampled_from([1.0, 1.5, 2.0, 3.5]),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_trapezoid_pairs_bitwise(self, pair, r, theta):
        a, b = pair
        assert metric_rho_r(a, b, r) == reference_rho_r(a, b, r)
        assert metric_d_r_theta(a, b, r, theta) == reference_d_r_theta(a, b, r, theta)
        assert metric_d_r(a, b, r) == reference_d_r(a, b, r)
        assert metric_d_r(a, b, math.inf) == reference_d_r(a, b, math.inf)

    def test_piecewise_linear_pairs_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            a, b = random_pl_set(rng), random_pl_set(rng)
            for r in (1.0, 1.5, 2.0, 3.5):
                assert metric_rho_r(a, b, r) == reference_rho_r(a, b, r)
                assert metric_d_r_theta(a, b, r, 0.7) == reference_d_r_theta(a, b, r, 0.7)
                assert metric_d_r(a, b, r) == reference_d_r(a, b, r)
            assert metric_d_r(a, b, math.inf) == reference_d_r(a, b, math.inf)


class TestHausdorff:
    def test_shifted_intervals(self):
        assert hausdorff((1.0, 2.0), (3.0, 4.0)) == 2.0

    def test_identity(self):
        assert hausdorff((0.0, 5.0), (0.0, 5.0)) == 0.0

    def test_interval_vs_point(self):
        assert hausdorff((0.0, 4.0), (0.0, 0.0)) == 4.0

    def test_support_arrays(self):
        a = np.array([1.0, 0.5, -0.25])
        b = np.array([0.0, 0.5, 0.75])
        assert hausdorff(a, b) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hausdorff((0.0, 1.0), np.zeros(3))


class TestFrozenValues:
    """Interval pairs whose distances have pencil-and-paper values."""

    def test_d_r_constant_integrand(self):
        a, b = crisp_interval(1.0, 2.0), crisp_interval(3.0, 4.0)
        for r in (1.0, 2.0, 3.5, math.inf):
            assert metric_d_r(a, b, r) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
    def test_rho_r_interval_pairs(self, r):
        mid_pair = metric_rho_r(crisp_interval(3.0, 4.0), crisp_interval(1.0, 2.0), r)
        assert mid_pair == pytest.approx(2.0, abs=1e-12)
        far_pair = metric_rho_r(crisp_interval(3.0, 4.0), crisp_interval(5.0, 7.0), r)
        want = ((3.0**r + 2.0**r) / 2.0) ** (1.0 / r)
        assert far_pair == pytest.approx(want, abs=1e-12)

    def test_rho_2_value(self):
        got = metric_rho_r(crisp_interval(3.0, 4.0), crisp_interval(5.0, 7.0), 2.0)
        assert got == pytest.approx(math.sqrt(6.5), abs=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 5.0])
    def test_d_r_theta_interval_pairs(self, r, theta):
        got = metric_d_r_theta(crisp_interval(1.0, 2.0), crisp_interval(0.0, 2.0), r, theta)
        assert got == pytest.approx(0.5 * (1.0 + theta) ** (1.0 / r), abs=1e-12)
        shifted = metric_d_r_theta(crisp_interval(1.0, 2.0), crisp_interval(2.0, 3.0), r, theta)
        assert shifted == pytest.approx(1.0, abs=1e-12)

    def test_d_r_theta_on_points_matches_rho(self):
        # spreads vanish, so the theta term drops out entirely
        x, y = crisp_point(1.25), crisp_point(-2.0)
        for r in (1.0, 2.0, 3.0):
            for theta in (0.0, 4.0, 100.0):
                assert metric_d_r_theta(x, y, r, theta) == pytest.approx(
                    metric_rho_r(x, y, r), abs=1e-12
                )

    def test_planar_point_distance(self):
        grid = DirectionGrid.circle(3600)
        alphas = uniform_alphas(4)
        p = grid_crisp_point([2.0, 3.0], grid, alphas)
        q = grid_crisp_point([3.0, 7.0], grid, alphas)
        want = 2.0 * math.sqrt(17.0) / math.pi
        assert metric_rho_r(p, q, 1.0) == pytest.approx(want, abs=1e-3)

    def test_theta_zero_pseudometric(self):
        # same midpoints, different spreads: distance collapses to zero
        a, b = crisp_interval(-1.0, 1.0), crisp_interval(-2.0, 2.0)
        assert metric_d_r_theta(a, b, 2.0, 0.0) == 0.0
        assert metric_d_r_theta(a, b, 2.0, 1.0) > 0.5


class TestQuadratureOracle:
    """Closed-form segment integration against independent quadrature.

    Adaptive quadrature can under-resolve the kinks of |difference| and
    max-of-branches integrands, so the cross-check for those uses a dense
    trapezoid grid instead; quad is kept for a smooth case.
    """

    DENSE = np.linspace(0.0, 1.0, 200001)

    @pytest.mark.parametrize("r", [1.0, 1.7, 2.0, 3.0])
    def test_rho_r_matches_dense_grid(self, r):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, b = random_pl_set(rng), random_pl_set(rng)
            lo_a, hi_a = a.endpoints(self.DENSE)
            lo_b, hi_b = b.endpoints(self.DENSE)
            vals = 0.5 * np.abs(hi_a - hi_b) ** r + 0.5 * np.abs(lo_a - lo_b) ** r
            want = np.trapezoid(vals, self.DENSE) ** (1.0 / r)
            assert metric_rho_r(a, b, r) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("r", [1.0, 2.0, 2.5])
    def test_d_r_matches_dense_grid(self, r):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a, b = random_pl_set(rng), random_pl_set(rng)
            lo_a, hi_a = a.endpoints(self.DENSE)
            lo_b, hi_b = b.endpoints(self.DENSE)
            vals = np.maximum(np.abs(hi_a - hi_b), np.abs(lo_a - lo_b)) ** r
            want = np.trapezoid(vals, self.DENSE) ** (1.0 / r)
            assert metric_d_r(a, b, r) == pytest.approx(want, abs=1e-8)

    def test_rho_2_matches_quad(self):
        # r = 2 integrand is smooth, adaptive quadrature applies directly
        rng = np.random.default_rng(44)
        a, b = random_pl_set(rng), random_pl_set(rng)
        merged = np.union1d(a.alphas, b.alphas)

        def integrand(al):
            lo_a, hi_a = a.endpoints(al)
            lo_b, hi_b = b.endpoints(al)
            return 0.5 * (hi_a - hi_b) ** 2 + 0.5 * (lo_a - lo_b) ** 2

        want, _ = quad(integrand, 0.0, 1.0, points=list(merged))
        assert metric_rho_r(a, b, 2.0) == pytest.approx(math.sqrt(want), abs=1e-10)

    def test_d_r_crossing_branches(self):
        # dominant endpoint changes inside a segment: refinement must catch it
        a = LevelFuzzySet([0.0, 1.0], [0.0, 0.0], [3.0, 2.0])
        b = LevelFuzzySet([0.0, 1.0], [-2.0, 0.0], [0.0, 0.0])
        # dhi runs 3 -> 2, dlo runs 2 -> 0; |dhi| dominates throughout here
        assert metric_d_r(a, b, 1.0) == pytest.approx(2.5, abs=1e-12)
        c = LevelFuzzySet([0.0, 1.0], [-4.0, 0.0], [0.0, 0.0])
        # now dlo runs 4 -> 0 and crosses dhi at alpha = 1/2
        want = quad(
            lambda al: max(3.0 - al, 4.0 - 4.0 * al), 0.0, 1.0, points=[0.5]
        )[0]
        assert metric_d_r(a, c, 1.0) == pytest.approx(want, abs=1e-12)

    def test_near_level_segments_stay_accurate(self):
        # endpoints that differ only in the last float bits must not lose
        # precision to cancellation in the closed-form antiderivative
        base = crisp_interval(0.0, 1.0)
        eps = 1e-15
        wobble = LevelFuzzySet([0.0, 1.0], [0.25, 0.25 + eps], [1.25, 1.25 - eps])
        for r in (1.0, 2.0, 3.0):
            got = metric_rho_r(base, wobble, r)
            assert got == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("tiny", [5e-324, 2.2e-309, 1e-300, 1e-200, 1e-150, 1e-70])
    def test_steep_segments_stay_finite(self, tiny):
        # a segment running from `scale` down to tiny * scale: the ratio of its
        # ends is past any closed form's exponential, and at scale 1e-40 the
        # r-th power of the small end underflows; the value is the p = 0 limit
        origin = crisp_point(0.0)
        for scale in (1.0, 1e-40):
            steep = make_trapezoid(0.0, tiny * scale, tiny * scale, scale)
            assert metric_rho_r(origin, steep, 1.0) == pytest.approx(0.25 * scale, rel=1e-15, abs=0.0)
            assert metric_d_r(origin, steep, 1.0) == pytest.approx(0.5 * scale, rel=1e-15, abs=0.0)
            assert metric_d_r_theta(origin, steep, 1.0, 1.0) == pytest.approx(0.5 * scale, rel=1e-15, abs=0.0)
            # 0.5 * integral of (scale * (1 - alpha))^r, and twice that for
            # d_r; the root is taken as the library takes it, since a rounded
            # 1/r alone moves a root of 1e-120 by 5e-15
            for r in (3.0, 3.5):
                want = (0.5 / (r + 1.0) * scale**r) ** (1.0 / r)
                assert metric_rho_r(origin, steep, r) == pytest.approx(want, rel=1e-15, abs=0.0)
                want = (1.0 / (r + 1.0) * scale**r) ** (1.0 / r)
                assert metric_d_r(origin, steep, r) == pytest.approx(want, rel=1e-15, abs=0.0)


# Segment ends from the subnormal 1e-323 to 1e300 in size, of either sign,
# and signed zeros.
_MAGNITUDES = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.999), st.integers(-323, 300))
_ENDS = st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda v: -v), st.sampled_from([0.0, -0.0]))
_SMALLEST_NORMAL = np.finfo(float).tiny


@st.composite
def segments(draw):
    """(y0, y1) with strict crossings, zero ends, y1 = -y0 and near-level pairs."""
    y0 = draw(_ENDS)
    y1 = draw(
        st.one_of(
            _ENDS,
            st.just(-y0),
            st.floats(0.5, 2.0).map(lambda f: y0 * f),
            st.floats(0.5, 2.0).map(lambda f: -y0 * f),
        )
    )
    return y0, y1


def assert_closed_forms_match(y0, y1, r):
    """Within 1e-15 relative in the normal float range; the same bits outside it."""
    with np.errstate(all="ignore"):
        closed = _segment_means(y0, y1, r)
        generic = _generic_segment_means(y0, y1, r)
    normal = (generic >= _SMALLEST_NORMAL) & (generic < math.inf)
    np.testing.assert_array_equal(closed[~normal], generic[~normal])
    error = np.abs(closed[normal] - generic[normal])
    assert np.all(error <= 1e-15 * generic[normal]), (y0[normal], y1[normal], error)
    return closed


class TestClosedFormSegmentMeans:
    """r = 1 and r = 2 take closed forms on the batched path; the generic rule is their oracle.

    Where the generic rule underflows to 0, lands below the normal range or
    overflows to inf, the closed forms hand the entry to it, so both agree
    there bitwise.
    """

    @given(st.lists(segments(), min_size=1, max_size=40), st.sampled_from([1.0, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_match_the_generic_rule(self, segs, r):
        y0, y1 = np.array(segs).T
        assert_closed_forms_match(y0, y1, r)

    def test_range_edges(self):
        y0 = np.array([1e154, 1e155, 1e-300, 0.0, -0.0, 1e300, 3.4e-320, -6.5996e-163, 7.1e-160])
        y1 = np.array([1e154, -1e155, -1e-300, 0.0, 0.0, -1e300, 3.8e-320, -1.58109e-162, -9.7e-160])
        means = assert_closed_forms_match(y0, y1, 1.0)
        # (|y0| + |y1|) / 2 rounds otherwise in the subnormal range
        assert means[6] == _generic_segment_means(y0[6], y1[6], 1.0) != 3.6e-320
        squares = assert_closed_forms_match(y0, y1, 2.0)
        # (y0^2 + y0 y1 + y1^2) / 3 passes the float range at 1e154 although
        # the mean, 1e308, does not: that entry takes the generic rule
        assert squares[0] == pytest.approx(1e308, rel=1e-15)
        # at 1e155, inf - inf would be NaN; the generic rule gives inf
        assert squares[1] == squares[5] == math.inf
        assert squares[2] == squares[3] == squares[4] == 0.0
        # the products underflow to 0 where the generic rule still gives the
        # smallest subnormal, and round otherwise below the normal range
        assert squares[7] == 5e-324
        assert 0.0 < squares[8] < _SMALLEST_NORMAL

    @pytest.mark.parametrize("r, wide", [(1.0, 1.5e308), (2.0, 1e200)])
    def test_overflow_raises_from_metric_powers(self, r, wide):
        queries = stack_supports([make_trapezoid(-wide, -wide, -wide, -wide)])[0]
        atoms = stack_supports([make_trapezoid(wide, wide, wide, wide), crisp_interval(0.0, 1.0)])[0]
        for metric in (MetricSpec("rho_r", r), MetricSpec("d_r_theta", r, 1.0)):
            with pytest.raises(OutOfRange, match="overflow"):
                metric_powers(metric, DirectionGrid.line(), queries, atoms)


class TestMetricAxioms:
    def test_axioms_on_seeded_triples(self):
        rng = np.random.default_rng(2024)
        specs = [
            MetricSpec("d_r", 1.0),
            MetricSpec("d_r", 2.0),
            MetricSpec("d_r", math.inf),
            MetricSpec("rho_r", 1.0),
            MetricSpec("rho_r", 2.0),
            MetricSpec("d_r_theta", 2.0, 1.0),
            MetricSpec("d_r_theta", 1.0, 5.0),
        ]
        for _ in range(50):
            a, b, c = (random_trapezoid(rng) for _ in range(3))
            for m in specs:
                dab, dba = m(a, b), m(b, a)
                assert dab >= 0.0
                assert dab == pytest.approx(dba, abs=1e-9)
                assert m(a, a) == pytest.approx(0.0, abs=1e-12)
                assert m(a, c) <= dab + m(b, c) + 1e-9

    def test_rho_monotone_in_r(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_trapezoid(rng), random_trapezoid(rng)
            rs = [1.0, 1.5, 2.0, 3.0, 6.0]
            rho = [metric_rho_r(a, b, r) for r in rs]
            assert all(x <= y + 1e-9 for x, y in zip(rho, rho[1:]))

    def test_d_r_theta_not_monotone_in_r(self):
        # unlike rho_r, the combined mid/spread norm carries total weight
        # 1 + theta, so constant differences shrink as r grows:
        # d_{r,theta}(I_[1,2], I_[0,2]) = 0.5 (1 + theta)^(1/r)
        a, b = crisp_interval(1.0, 2.0), crisp_interval(0.0, 2.0)
        vals = [metric_d_r_theta(a, b, r, 3.0) for r in (1.0, 2.0, 4.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_rho_dominated_by_sup_hausdorff(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = random_trapezoid(rng), random_trapezoid(rng)
            d_inf = metric_d_r(a, b, math.inf)
            for r in (1.0, 2.0, 4.0):
                assert metric_rho_r(a, b, r) <= d_inf + 1e-9
                assert metric_d_r(a, b, r) <= d_inf + 1e-9

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(13)
        shift = make_trapezoid(1.0, 1.5, 2.0, 4.0)
        specs = [MetricSpec("d_r", 2.0), MetricSpec("rho_r", 1.0), MetricSpec("d_r_theta", 2.0, 3.0)]
        for _ in range(25):
            a, b = random_trapezoid(rng), random_trapezoid(rng)
            gamma = rng.uniform(0.0, 3.0)
            for m in specs:
                d = m(a, b)
                assert m(add(a, shift), add(b, shift)) == pytest.approx(d, abs=1e-9)
                assert m(scale(a, gamma), scale(b, gamma)) == pytest.approx(
                    gamma * d, abs=1e-9
                )

    def test_convex_in_first_argument(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a, b, target = (random_trapezoid(rng) for _ in range(3))
            lam = rng.uniform(0.0, 1.0)
            mix = convex_combo(a, b, lam)
            for m in (MetricSpec("rho_r", 2.0), MetricSpec("d_r_theta", 1.0, 1.0)):
                bound = (1.0 - lam) * m(a, target) + lam * m(b, target)
                assert m(mix, target) <= bound + 1e-9


class TestPlanarMetrics:
    def setup_method(self):
        self.grid = DirectionGrid.circle(72)
        self.alphas = uniform_alphas(12)
        rng = np.random.default_rng(5)
        self.a = grid_zonotope(rng.normal(size=2), rng.normal(size=(2, 2)), self.grid, self.alphas)
        self.b = grid_zonotope(rng.normal(size=2), rng.normal(size=(2, 2)), self.grid, self.alphas)

    def test_identity_and_symmetry(self):
        for m in (MetricSpec("d_r", 2.0), MetricSpec("rho_r", 1.0), MetricSpec("d_r_theta", 2.0, 1.0)):
            assert m(self.a, self.a) == pytest.approx(0.0, abs=1e-12)
            assert m(self.a, self.b) == pytest.approx(m(self.b, self.a), abs=1e-12)

    def test_translation_invariance(self):
        w = grid_crisp_point([4.0, -2.0], self.grid, self.alphas)
        d0 = metric_rho_r(self.a, self.b, 2.0)
        d1 = metric_rho_r(add(self.a, w), add(self.b, w), 2.0)
        assert d1 == pytest.approx(d0, abs=1e-9)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.5])
    def test_d_r_theta_half_rows_match_full_sum(self, r, theta):
        # the metric sums mid/spr over half the directions at double weight;
        # the full sum over every direction u and its antipode must agree
        for b in (self.b, self.b.resample(DirectionGrid.circle(144), uniform_alphas(24))):
            if not self.a.same_grids(b):
                b = b.resample(self.grid, self.alphas)
            diff = self.a.values - b.values
            anti = self.grid.antipode_indices()
            w = self.grid.weights
            mid_term = np.trapezoid(w @ np.abs(0.5 * (diff - diff[anti])) ** r, self.alphas)
            spr_term = np.trapezoid(w @ np.abs(0.5 * (diff + diff[anti])) ** r, self.alphas)
            want = (mid_term + theta * spr_term) ** (1.0 / r)
            assert metric_d_r_theta(self.a, b, r, theta) == pytest.approx(want, rel=1e-12)

    def test_resample_alignment(self):
        other = self.b.resample(DirectionGrid.circle(144), uniform_alphas(24))
        d_same = metric_rho_r(self.a, self.b, 2.0)
        d_cross = metric_rho_r(self.a, other, 2.0)
        assert d_cross == pytest.approx(d_same, abs=1e-6)


class TestMetricSpec:
    def test_dispatch(self):
        a, b = crisp_interval(0.0, 1.0), crisp_interval(2.0, 3.0)
        assert MetricSpec("d_r", 2.0)(a, b) == metric_d_r(a, b, 2.0)
        assert MetricSpec("rho_r", 2.0)(a, b) == metric_rho_r(a, b, 2.0)
        assert MetricSpec("d_r_theta", 2.0, 1.0)(a, b) == metric_d_r_theta(a, b, 2.0, 1.0)

    def test_labels(self):
        assert MetricSpec("d_r", math.inf).label() == "d_inf"
        assert MetricSpec("rho_r", 1.5).label() == "rho_1.5"
        assert MetricSpec("d_r_theta", 2.0, 0.5).label() == "d_2,theta=0.5"

    def test_pseudometric_flag(self):
        assert MetricSpec("d_r_theta", 1.0, 0.0).is_pseudometric
        assert not MetricSpec("d_r_theta", 1.0, 2.0).is_pseudometric
        assert not MetricSpec("rho_r", 1.0).is_pseudometric

    def test_validation(self):
        with pytest.raises(OutOfRange):
            MetricSpec("nope", 1.0)
        with pytest.raises(OutOfRange):
            MetricSpec("rho_r", 0.5)
        with pytest.raises(OutOfRange):
            MetricSpec("rho_r", math.inf)  # sup form only exists for d_r
        with pytest.raises(OutOfRange):
            MetricSpec("d_r_theta", 1.0)  # theta missing
        a, b = crisp_interval(0.0, 1.0), crisp_interval(2.0, 3.0)
        for theta in (-1.0, math.nan, math.inf):
            with pytest.raises(OutOfRange):
                MetricSpec("d_r_theta", 1.0, theta)
            with pytest.raises(OutOfRange):
                metric_d_r_theta(a, b, 1.0, theta)
        with pytest.raises(OutOfRange):
            MetricSpec("rho_r", 1.0, 1.0)  # theta not applicable

    def test_dim_mismatch(self):
        g = grid_crisp_point([0.0, 0.0], DirectionGrid.circle(8), uniform_alphas(2))
        with pytest.raises(DimensionMismatch):
            metric_rho_r(crisp_interval(0.0, 1.0), g, 1.0)
