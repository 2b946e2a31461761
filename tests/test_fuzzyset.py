"""Level arithmetic and support-function tests for both representations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzydepth import (
    DimensionMismatch,
    DirectionGrid,
    GridFuzzySet,
    LevelFuzzySet,
    OrderViolation,
    OutOfRange,
    SingularMatrix,
    add,
    convex_combo,
    crisp_interval,
    crisp_point,
    grid_crisp_point,
    grid_from_support,
    grid_zonotope,
    make_trapezoid,
    matrix_transform,
    merge_alphas,
    mid,
    scale,
    spr,
    support,
    uniform_alphas,
)


def rot(phi):
    return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


@st.composite
def trapezoids(draw):
    a = draw(st.floats(-50, 50))
    b = a + draw(st.floats(0, 10))
    c = b + draw(st.floats(0, 10))
    d = c + draw(st.floats(0, 10))
    return make_trapezoid(a, b, c, d)


class TestTrapezoid:
    def test_levels(self):
        t = make_trapezoid(0.0, 1.0, 2.0, 4.0)
        assert t.level(0.0) == (0.0, 4.0)
        assert t.level(1.0) == (1.0, 2.0)
        assert t.level(0.5) == (0.5, 3.0)

    def test_support_values(self):
        t = make_trapezoid(0.0, 1.0, 2.0, 4.0)
        # s(+1) is the upper endpoint, s(-1) minus the lower one
        assert support(t, [1.0], 0.0) == 4.0
        assert support(t, [-1.0], 0.0) == 0.0
        assert support(t, [1.0], 1.0) == 2.0
        assert support(t, [-1.0], 1.0) == -1.0

    def test_crisp_interval_constant_in_alpha(self):
        i = crisp_interval(3.0, 4.0)
        for alpha in (0.0, 0.25, 1.0):
            assert i.level(alpha) == (3.0, 4.0)
        # the support value the closed-form depth examples rely on
        assert support(i, [1.0], 0.0) == 4.0

    def test_mid_spr_on_line(self):
        i = crisp_interval(1.0, 2.0)
        assert mid(i, [1.0], 0.5) == pytest.approx(1.5)
        assert spr(i, [1.0], 0.5) == pytest.approx(0.5)
        # mid flips sign with the direction, spr does not
        assert mid(i, [-1.0], 0.5) == pytest.approx(-1.5)
        assert spr(i, [-1.0], 0.5) == pytest.approx(0.5)

    def test_bad_knot_order(self):
        with pytest.raises(OrderViolation):
            make_trapezoid(3.0, 2.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_knots_rejected(self, bad):
        with pytest.raises(OutOfRange):
            make_trapezoid(0.0, 1.0, 2.0, bad)
        with pytest.raises(OutOfRange):
            make_trapezoid(bad, 1.0, 2.0, 3.0)

    def test_alpha_out_of_range(self):
        t = make_trapezoid(0.0, 1.0, 2.0, 4.0)
        with pytest.raises(OutOfRange):
            t.level(1.5)
        with pytest.raises(OutOfRange):
            t.level(-0.1)

    def test_invalid_endpoint_arrays(self):
        with pytest.raises(OrderViolation):
            LevelFuzzySet([0.0, 1.0], [0.0, 2.0], [3.0, 1.0])  # lo > hi at the core
        with pytest.raises(OutOfRange):
            LevelFuzzySet([0.0, 0.5], [0.0, 0.0], [1.0, 1.0])  # grid does not reach 1
        with pytest.raises(DimensionMismatch):
            LevelFuzzySet([0.0, 1.0], [0.0], [1.0, 1.0])

    def test_non_nested_levels_rejected(self):
        with pytest.raises(OrderViolation):
            LevelFuzzySet([0.0, 0.5, 1.0], [0.0, -1.0, 0.0], [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_endpoints_rejected(self, bad):
        # every order check compares false with NaN, so it needs its own test
        with pytest.raises(OutOfRange):
            LevelFuzzySet([0.0, 1.0], [bad, 0.0], [1.0, 1.0])
        with pytest.raises(OutOfRange):
            LevelFuzzySet([0.0, 1.0], [0.0, 0.0], [1.0, bad])
        with pytest.raises(OutOfRange):
            LevelFuzzySet([0.0, bad, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


class TestLineArithmetic:
    def test_minkowski_sum_levelwise(self):
        s = add(make_trapezoid(0.0, 1.0, 2.0, 4.0), crisp_interval(10.0, 11.0))
        assert s.level(0.0) == (10.0, 15.0)
        assert s.level(1.0) == (11.0, 13.0)

    def test_sum_merges_breakpoints(self):
        a = LevelFuzzySet([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [4.0, 3.0, 2.0])
        b = make_trapezoid(0.0, 2.0, 2.0, 2.0)
        s = a + b
        assert set(np.round(s.alphas, 12)) == {0.0, 0.5, 1.0}
        assert s.level(0.5) == (1.5, 5.0)

    def test_scale_positive(self):
        t = make_trapezoid(1.0, 2.0, 3.0, 4.0)
        assert scale(t, 2.0).level(0.0) == (2.0, 8.0)
        assert (2.0 * t).level(1.0) == (4.0, 6.0)

    def test_scale_negative_reflects(self):
        t = make_trapezoid(1.0, 2.0, 3.0, 4.0)
        r = scale(t, -1.0)
        assert r.level(0.0) == (-4.0, -1.0)
        assert r.level(1.0) == (-3.0, -2.0)

    def test_scale_zero_is_origin(self):
        t = make_trapezoid(1.0, 2.0, 3.0, 4.0)
        z = scale(t, 0.0)
        assert z.level(0.0) == (0.0, 0.0)

    def test_matrix_scaling_of_interval(self):
        # 5 * I_[1,2] = I_[5,10]
        img = matrix_transform(crisp_interval(1.0, 2.0), np.array([[5.0]]))
        assert img.level(0.0) == (5.0, 10.0)
        assert img.level(1.0) == (5.0, 10.0)

    def test_convex_combo_midpoint(self):
        m = convex_combo(crisp_interval(0.0, 1.0), crisp_interval(2.0, 5.0), 0.5)
        assert m.level(0.0) == (1.0, 3.0)

    def test_convex_combo_rejects_bad_lambda(self):
        a = crisp_interval(0.0, 1.0)
        with pytest.raises(OutOfRange):
            convex_combo(a, a, 1.5)

    def test_singular_line_matrix(self):
        with pytest.raises(SingularMatrix):
            matrix_transform(crisp_interval(0.0, 1.0), np.array([[0.0]]))

    def test_dim_mismatch_add(self):
        grid = DirectionGrid.circle(8)
        g = grid_crisp_point([0.0, 0.0], grid, uniform_alphas(4))
        with pytest.raises(DimensionMismatch):
            add(crisp_interval(0.0, 1.0), g)

    @given(trapezoids(), trapezoids(), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_support_is_additive(self, a, b, alpha):
        s = add(a, b)
        for u in ([1.0], [-1.0]):
            assert support(s, u, alpha) == pytest.approx(
                support(a, u, alpha) + support(b, u, alpha), rel=1e-12, abs=1e-12
            )

    @given(trapezoids(), st.floats(-4.0, 4.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_support_identity(self, a, gamma, alpha):
        # s_{gamma A}(u) = gamma s_A(u) for gamma > 0, |gamma| s_A(-u) otherwise
        s = scale(a, gamma)
        for u in (1.0, -1.0):
            if gamma > 0:
                want = gamma * support(a, [u], alpha)
            elif gamma < 0:
                want = -gamma * support(a, [-u], alpha)
            else:
                want = 0.0
            assert support(s, [u], alpha) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(trapezoids(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_support_values_rows(self, a, alphas):
        # row 0 is the support at u = +1 and row 1 the support at u = -1
        rows = a.support_values(alphas)
        assert rows.shape == (2, len(alphas))
        for j, alpha in enumerate(alphas):
            assert rows[0, j] == support(a, [1.0], alpha)
            assert rows[1, j] == support(a, [-1.0], alpha)

    @given(trapezoids())
    @settings(max_examples=100, deadline=None)
    def test_levels_nested(self, a):
        grid = uniform_alphas(20)
        lo, hi = a.endpoints(grid)
        assert np.all(np.diff(lo) >= -1e-12)
        assert np.all(np.diff(hi) <= 1e-12)
        assert np.all(lo <= hi + 1e-12)


class TestDirectionGrid:
    def test_line_grid(self):
        g = DirectionGrid.line()
        assert g.size == 2
        assert np.allclose(g.weights, [0.5, 0.5])
        assert list(g.antipode_indices()) == [1, 0]

    def test_circle_antipodesise_exact(self):
        g = DirectionGrid.circle(12)
        anti = g.antipode_indices()
        assert np.allclose(g.vectors[anti], -g.vectors, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 7, 2])
    def test_odd_or_tiny_circle_rejected(self, n):
        with pytest.raises(OutOfRange):
            DirectionGrid.circle(n)


class TestGridFuzzySet:
    def setup_method(self):
        self.grid = DirectionGrid.circle(16)
        self.alphas = uniform_alphas(8)

    def test_crisp_point_support(self):
        p = grid_crisp_point([3.0, -1.0], self.grid, self.alphas)
        u = np.array([1.0, 0.0])
        assert p.support(u, 0.0) == pytest.approx(3.0)
        assert p.support(-u, 0.0) == pytest.approx(-3.0)
        assert spr(p, u, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_zonotope_support_and_level(self):
        # axis-aligned box [-1,1]^2 shrinking to half size at the core
        z = grid_zonotope([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], self.grid, self.alphas)
        assert z.support([1.0, 0.0], 0.0) == pytest.approx(1.0)
        assert z.support([1.0, 0.0], 1.0) == pytest.approx(0.5)
        poly = z.level(0.0)
        assert poly.shape == (16, 2)
        assert np.max(np.abs(poly)) == pytest.approx(1.0, abs=1e-9)

    def test_mid_spr_split(self):
        z = grid_zonotope([2.0, 1.0], [[1.0, 0.0]], self.grid, self.alphas)
        u = np.array([1.0, 0.0])
        assert mid(z, u, 0.0) == pytest.approx(2.0)
        assert spr(z, u, 0.0) == pytest.approx(1.0)

    def test_add_and_scale(self):
        p = grid_crisp_point([1.0, 0.0], self.grid, self.alphas)
        z = grid_zonotope([0.0, 0.0], [[0.0, 1.0]], self.grid, self.alphas)
        s = p + z
        assert s.support([1.0, 0.0], 0.0) == pytest.approx(1.0)
        assert s.support([0.0, 1.0], 0.0) == pytest.approx(1.0)
        neg = scale(p, -2.0)
        assert neg.support([1.0, 0.0], 0.0) == pytest.approx(-2.0)

    def test_rotation_permutes_exactly(self):
        z = grid_zonotope([1.0, 0.0], [[1.0, 0.5]], self.grid, self.alphas)
        img = matrix_transform(z, rot(2.0 * math.pi * 4 / 16))
        # quarter turn: support at rotated direction equals original exactly
        i = 5
        assert img.values[(i + 4) % 16, 0] == z.values[i, 0]

    def test_rotation_off_grid_close(self):
        grid = DirectionGrid.circle(360)
        alphas = uniform_alphas(10)
        z = grid_zonotope([0.5, -0.25], [[1.0, 0.0], [0.3, 0.7]], grid, alphas)
        img = matrix_transform(z, rot(0.123))
        back = matrix_transform(img, rot(-0.123))
        # angular interpolation is first order at the kinks of a zonotope
        # support, so a 1-degree grid only gives a few 1e-3 round trip
        assert np.max(np.abs(back.values - z.values)) < 5e-3

    def test_general_matrix_scales_support(self):
        p = grid_crisp_point([1.0, 2.0], self.grid, self.alphas)
        m = np.array([[2.0, 0.0], [0.0, 3.0]])
        img = matrix_transform(p, m)
        assert img.support([1.0, 0.0], 0.0) == pytest.approx(2.0)
        assert img.support([0.0, 1.0], 0.0) == pytest.approx(6.0)

    def test_singular_matrix_rejected(self):
        p = grid_crisp_point([1.0, 2.0], self.grid, self.alphas)
        with pytest.raises(SingularMatrix):
            matrix_transform(p, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_support_additivity_on_grids(self):
        rng = np.random.default_rng(7)
        a = grid_zonotope(rng.normal(size=2), rng.normal(size=(2, 2)), self.grid, self.alphas)
        b = grid_zonotope(rng.normal(size=2), rng.normal(size=(1, 2)), self.grid, self.alphas)
        s = add(a, b)
        assert np.allclose(s.values, a.values + b.values, atol=1e-12)

    def test_grid_from_support_roundtrip(self):
        z = grid_zonotope([0.0, 1.0], [[1.0, 0.0]], self.grid, self.alphas)
        rebuilt = grid_from_support(lambda u, al: z.support(u, al), self.grid, self.alphas)
        assert np.allclose(rebuilt.values, z.values, atol=1e-12)

    def test_support_values_snap_like_support(self):
        z = grid_zonotope([0.5, -1.0], [[1.0, 0.2], [0.0, 0.7]], self.grid, self.alphas)
        alphas = [0.0, 0.06, 0.3, 0.5, 0.99, 1.0]
        rows = z.support_values(alphas)
        assert np.array_equal(z.support_values(self.alphas), z.values)
        for i, u in enumerate(self.grid.vectors):
            for j, alpha in enumerate(alphas):
                assert rows[i, j] == z.support(u, alpha)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, bad):
        values = np.ones((16, 9))
        values[3, 4] = bad
        with pytest.raises(OutOfRange):
            GridFuzzySet(self.grid, self.alphas, values)
        with pytest.raises(OutOfRange):
            grid_from_support(lambda u, al: bad if al > 0.5 else 1.0, self.grid, self.alphas)
        with pytest.raises(OutOfRange):
            grid_zonotope([bad, 0.0], [[1.0, 0.0]], self.grid, self.alphas)
        with pytest.raises(OutOfRange):
            grid_zonotope([0.0, 0.0], [[1.0, bad]], self.grid, self.alphas)
        with pytest.raises(OutOfRange):
            grid_zonotope([0.0, 0.0], [[1e308, 0.0], [1e308, 0.0]], self.grid, self.alphas)

    def test_alpha_monotonicity_enforced(self):
        values = np.ones((16, 9))
        values[0, -1] = 2.0  # support growing in alpha: levels not nested
        with pytest.raises(OrderViolation):
            grid_from_support(lambda u, al: 1.0 + (al if u[0] > 0.99 else 0.0),
                              self.grid, self.alphas)


class TestPlanarInterpolation:
    """Angular interpolation of planar support values between grid rows."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.grid = DirectionGrid.circle(24)
        self.alphas = uniform_alphas(6)
        self.z = grid_zonotope(
            rng.normal(size=2), rng.normal(size=(3, 2)), self.grid, self.alphas, shrink=0.4
        )

    def at_position(self, pos):
        """Unit vector at fractional grid position pos."""
        t = 2.0 * math.pi * pos / self.grid.size
        return np.array([math.cos(t), math.sin(t)])

    def test_near_grid_direction_returns_stored_row(self):
        v = self.z.values
        for i in (0, 5, 23):
            for offset in (0.0, 4e-10, -4e-10):
                col = self.z.support_column(self.at_position(i + offset))
                assert np.array_equal(col, v[i]), (i, offset)
                assert self.z.support(self.at_position(i + offset), 0.5) == v[i, 3]

    def test_off_grid_blends_neighbours(self):
        v = self.z.values
        n = self.grid.size
        for i, f in ((3, 0.25), (10, 0.5), (n - 1, 0.75)):  # the last pair wraps to row 0
            u = self.at_position(i + f)
            frac = math.atan2(u[1], u[0]) % (2.0 * math.pi) * n / (2.0 * math.pi) - i
            want = (1.0 - frac) * v[i] + frac * v[(i + 1) % n]
            assert np.array_equal(self.z.support_column(u), want)

    def test_resample_matches_per_row_reference(self):
        grid = DirectionGrid.circle(10)
        alphas = np.array([0.0, 0.07, 0.1, 1.0 / 6.0, 0.45, 0.5, 0.95, 1.0])
        got = self.z.resample(grid, alphas).values
        want = np.array(
            [np.interp(alphas, self.alphas, self.z.support_column(u)) for u in grid.vectors]
        )
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        # On its own direction grid every row snaps, so only alpha is
        # interpolated: bitwise as np.interp row by row, on rows that are not
        # linear in alpha.
        rng = np.random.default_rng(5)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, (self.grid.size, 1))
        values = -np.sort(rng.normal(size=(self.grid.size, 7)) * scales, axis=1)
        own_alphas = np.array([0.0, 0.07, 0.2, 0.45, 0.6, 0.83, 1.0])
        s = GridFuzzySet(self.grid, own_alphas, values, validate=False)
        by_row = [np.interp(alphas, own_alphas, row) for row in values]
        assert np.array_equal(s.resample(self.grid, alphas).values, np.array(by_row))

    def test_off_grid_matrix_transform_matches_per_row_reference(self):
        m = np.array([[1.5, 0.4], [-0.3, 0.8]])
        got = matrix_transform(self.z, m).values
        want = []
        for u in self.grid.vectors:
            w = m.T @ u
            norm = np.linalg.norm(w)
            want.append(norm * self.z.support_column(w / norm))
        np.testing.assert_allclose(got, np.array(want), rtol=0.0, atol=1e-12)


def test_uniform_alphas_shape():
    g = uniform_alphas(4)
    assert list(g) == [0.0, 0.25, 0.5, 0.75, 1.0]
    for bad in (0, -2, 2.5, 4.0):
        with pytest.raises(OutOfRange):
            uniform_alphas(bad)


def test_merge_alphas_union():
    merged = merge_alphas(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0]))
    assert list(merged) == [0.0, 0.25, 0.5, 1.0]
    merged = merge_alphas(np.array([0.0, 1.0]), np.array([0.0, 0.75, 1.0]), np.array([0.0, 0.5, 0.75, 1.0]))
    assert list(merged) == [0.0, 0.5, 0.75, 1.0]


def test_crisp_point_is_degenerate():
    p = crisp_point(2.5)
    assert p.level(0.0) == (2.5, 2.5)
    assert support(p, [1.0], 0.7) == 2.5
