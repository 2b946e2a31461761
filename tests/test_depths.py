"""Depth functions: frozen values, crisp reduction oracle, report table."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from fuzzydepth import (
    DepthConfig,
    DimensionMismatch,
    DirectionGrid,
    GridMismatch,
    MAX_N_ALPHA,
    OutOfRange,
    crisp_interval,
    crisp_point,
    depth_table,
    grid_crisp_point,
    location_depth,
    location_raised_depth,
    make_frv,
    make_trapezoid,
    matrix_transform,
    natural_depth,
    natural_raised_depth,
    outlyingness,
    projection_depth,
    scale,
    uniform_alphas,
)
from fuzzydepth.depths import DEPTH_METHODS, rankdata

HALF_TOL = 1e-12


def brute_median_point(values, weights):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    lo = min(y for y in values if weights[values <= y].sum() >= 0.5 - HALF_TOL)
    hi = max(y for y in values if weights[values >= y].sum() >= 0.5 - HALF_TOL)
    return 0.5 * (lo + hi)


def brute_projection_depth_1d(x, data, weights):
    """Multivariate projection depth of a real point, by definition."""
    med = brute_median_point(data, weights)
    mad = brute_median_point(np.abs(data - med), weights)
    num = abs(x - med)
    if mad == 0.0:
        return 1.0 if num == 0.0 else 0.0
    return 1.0 / (1.0 + num / mad)


def brute_projection_depth_2d(q, points, weights, grid):
    worst = 0.0
    for u in grid.vectors:
        proj = points @ u
        med = brute_median_point(proj, weights)
        mad = brute_median_point(np.abs(proj - med), weights)
        num = abs(q @ u - med)
        if mad == 0.0:
            if num > 0.0:
                return 0.0
            continue
        worst = max(worst, num / mad)
    return 1.0 / (1.0 + worst)


def three_atoms():
    return make_frv([crisp_interval(0.0, 1.0), crisp_interval(2.0, 3.0), crisp_interval(4.0, 5.0)])


def example_pair():
    return make_frv([crisp_interval(1.0, 2.0), crisp_interval(5.0, 7.0)])


class TestOutlyingness:
    def test_central_atom_has_zero(self):
        assert outlyingness(crisp_interval(2.0, 3.0), three_atoms()) == 0.0

    def test_extreme_atom_has_one(self):
        assert outlyingness(crisp_interval(0.0, 1.0), three_atoms()) == 1.0

    def test_degenerate_sample_zero_over_zero(self):
        a = make_trapezoid(0.0, 1.0, 2.0, 4.0)
        x = make_frv([a])
        assert outlyingness(a, x) == 0.0
        assert projection_depth(a, x) == 1.0

    def test_degenerate_sample_positive_over_zero(self):
        x = make_frv([crisp_interval(0.0, 1.0)])
        assert outlyingness(crisp_interval(0.0, 2.0), x) == math.inf
        assert projection_depth(crisp_interval(0.0, 2.0), x) == 0.0

    def test_example_pair_query(self):
        # u=+1: med 4.5, MAD 2.5, |4 - 4.5| = 0.5; u=-1 contributes 0
        assert outlyingness(crisp_interval(3.0, 4.0), example_pair()) == pytest.approx(0.2, abs=1e-15)
        assert projection_depth(crisp_interval(3.0, 4.0), example_pair()) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_dimension_mismatch(self):
        g = grid_crisp_point([0.0, 0.0], DirectionGrid.circle(8), uniform_alphas(2))
        with pytest.raises(DimensionMismatch):
            outlyingness(g, three_atoms())

    def test_grid_mismatch(self):
        grid_a, grid_b = DirectionGrid.circle(8), DirectionGrid.circle(16)
        alphas = uniform_alphas(2)
        x = make_frv([grid_crisp_point([0.0, 0.0], grid_a, alphas)])
        q = grid_crisp_point([0.0, 0.0], grid_b, alphas)
        with pytest.raises(GridMismatch):
            outlyingness(q, x)


class TestCrispReduction:
    def test_three_point_values(self):
        x = make_frv([crisp_point(0.0), crisp_point(1.0), crisp_point(2.0)])
        assert projection_depth(crisp_point(1.0), x) == 1.0
        assert projection_depth(crisp_point(0.0), x) == 0.5

    def test_line_matches_brute_force_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = rng.integers(3, 9)
            data = np.round(rng.normal(0.0, 3.0, size=n), 3)
            weights = rng.uniform(0.2, 2.0, size=n)
            x = make_frv([crisp_point(v) for v in data], weights=weights)
            for q in np.concatenate([data[:2], rng.normal(0.0, 3.0, size=2)]):
                want = brute_projection_depth_1d(q, data, weights)
                assert projection_depth(crisp_point(q), x) == want

    def test_plane_matches_brute_force(self):
        rng = np.random.default_rng(32)
        grid = DirectionGrid.circle(72)
        alphas = uniform_alphas(4)
        for _ in range(5):
            pts = rng.normal(0.0, 2.0, size=(6, 2))
            weights = rng.uniform(0.5, 1.5, size=6)
            x = make_frv([grid_crisp_point(p, grid, alphas) for p in pts], weights=weights)
            q = rng.normal(0.0, 2.0, size=2)
            want = brute_projection_depth_2d(q, pts, weights, grid)
            got = projection_depth(grid_crisp_point(q, grid, alphas), x)
            assert got == pytest.approx(want, abs=1e-6)


class TestClosedFormDepths:
    """The two worked interval examples with pencil-and-paper values."""

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
    def test_natural_depth_closed_form(self, r):
        want = 1.0 / (1.0 + 0.5 * (2.0 + ((3.0**r + 2.0**r) / 2.0) ** (1.0 / r)))
        got = natural_depth(crisp_interval(3.0, 4.0), example_pair(), r)
        assert got == pytest.approx(want, abs=1e-12)

    def test_natural_depth_fractions(self):
        a = crisp_interval(3.0, 4.0)
        assert natural_depth(a, example_pair(), 1.0) == pytest.approx(4.0 / 13.0, abs=1e-12)
        assert natural_depth(a, example_pair(), 2.0) == pytest.approx(
            1.0 / (2.0 + 0.5 * math.sqrt(6.5)), abs=1e-12
        )

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_natural_raised_closed_form(self, r):
        want = 1.0 / (1.0 + 0.5 * (2.0**r + (3.0**r + 2.0**r) / 2.0))
        got = natural_raised_depth(crisp_interval(3.0, 4.0), example_pair(), r)
        assert got == pytest.approx(want, abs=1e-12)
        if r == 2.0:
            assert got == pytest.approx(0.16, abs=1e-12)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 5.0, 10.0])
    def test_location_depths_closed_form(self, r, theta):
        x = make_frv([crisp_interval(0.0, 2.0), crisp_interval(2.0, 3.0)])
        a = crisp_interval(1.0, 2.0)
        want = 1.0 / (1.0 + 0.5 * (1.0 + (1.0 + theta) ** (1.0 / r) / 2.0))
        assert location_depth(a, x, r, theta) == pytest.approx(want, abs=1e-12)
        want_raised = 1.0 / (1.0 + 0.5 * (1.0 + (1.0 + theta) / 2.0**r))
        assert location_raised_depth(a, x, r, theta) == pytest.approx(want_raised, abs=1e-12)


class TestScaleBehaviour:
    def test_projection_invariant_under_doubling_bitwise(self):
        # multiplying every support value by a power of two is exact in
        # floating point, so the outlyingness ratios are reproduced verbatim
        x = example_pair()
        a = crisp_interval(3.0, 4.0)
        m = np.array([[2.0]])
        assert projection_depth(matrix_transform(a, m), x.map_atoms(lambda s: 2.0 * s)) == projection_depth(a, x)
        m = np.array([[-0.5]])
        assert projection_depth(
            matrix_transform(a, m), x.map_atoms(lambda s: scale(s, -0.5))
        ) == projection_depth(a, x)

    def test_metric_depths_shift_under_scaling(self):
        x = example_pair()
        a = crisp_interval(3.0, 4.0)
        x5 = x.map_atoms(lambda s: 5.0 * s)
        a5 = 5.0 * a
        assert abs(natural_depth(a5, x5, 1.0) - natural_depth(a, x, 1.0)) > 0.01
        assert abs(natural_raised_depth(a5, x5, 2.0) - natural_raised_depth(a, x, 2.0)) > 0.01
        assert abs(location_depth(a5, x5, 1.0, 1.0) - location_depth(a, x, 1.0, 1.0)) > 0.01
        assert abs(
            location_raised_depth(a5, x5, 2.0, 1.0) - location_raised_depth(a, x, 2.0, 1.0)
        ) > 0.01


class TestDepthConfig:
    def test_unknown_method(self):
        with pytest.raises(OutOfRange):
            DepthConfig(method="tukey")

    def test_r_below_one(self):
        with pytest.raises(OutOfRange):
            DepthConfig(method="natural", r=0.5)

    def test_theta_requirements(self):
        with pytest.raises(OutOfRange):
            DepthConfig(method="location")  # theta missing
        with pytest.raises(OutOfRange):
            DepthConfig(method="natural", theta=1.0)  # theta not accepted
        for theta in (-1.0, math.nan, math.inf):
            with pytest.raises(OutOfRange):
                DepthConfig(method="location", theta=theta)

    def test_depth_function_binding(self):
        x = make_frv([crisp_interval(1, 2), make_trapezoid(4, 5, 6, 8), crisp_interval(5, 7)])
        queries = [crisp_interval(3.0, 4.0), make_trapezoid(0.0, 1.5, 2.0, 6.5), *x.atoms]
        bindings = [
            (DepthConfig(method="projection", n_alpha=7), lambda a: projection_depth(a, x, 7)),
            (DepthConfig(method="natural", r=2.0), lambda a: natural_depth(a, x, 2.0)),
            (
                DepthConfig(method="natural_raised", r=1.5),
                lambda a: natural_raised_depth(a, x, 1.5),
            ),
            (
                DepthConfig(method="location", r=3.0, theta=0.5),
                lambda a: location_depth(a, x, 3.0, 0.5),
            ),
            (
                DepthConfig(method="location_raised", r=2.0, theta=1.0),
                lambda a: location_raised_depth(a, x, 2.0, 1.0),
            ),
        ]
        assert sorted(c.method for c, _ in bindings) == sorted(DEPTH_METHODS)
        for config, alias in bindings:
            fn = config.depth_function()
            for a in queries:
                assert fn(a, x) == alias(a), config.method

    def test_projection_rejects_metric_parameters(self):
        with pytest.raises(OutOfRange):
            DepthConfig(method="projection", theta=1.0)
        with pytest.raises(OutOfRange):
            DepthConfig(method="projection", r=0.5)
        with pytest.raises(OutOfRange):
            DepthConfig(method="projection", n_alpha=0)

    @pytest.mark.parametrize("method", ["projection", "natural"])
    @pytest.mark.parametrize("n_alpha", [2.5, 3.0, "7", None])
    def test_non_integer_n_alpha(self, method, n_alpha):
        with pytest.raises(OutOfRange):
            DepthConfig(method=method, n_alpha=n_alpha)

    def test_n_alpha_bound(self):
        assert DepthConfig(method="projection", n_alpha=MAX_N_ALPHA).n_alpha == MAX_N_ALPHA
        assert DepthConfig(method="projection", n_alpha=np.int64(7)).n_alpha == 7

    @pytest.mark.parametrize("n_alpha", [MAX_N_ALPHA + 1, 10**8])
    def test_n_alpha_above_bound_is_rejected_before_allocation(self, n_alpha):
        x = three_atoms()
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange):
                DepthConfig(method="projection", n_alpha=n_alpha)
            with pytest.raises(OutOfRange):
                projection_depth(x.atoms[0], x, n_alpha=n_alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n_alpha", [0, -1, 2.5])
    def test_projection_depth_rejects_bad_n_alpha(self, n_alpha):
        x = three_atoms()
        with pytest.raises(OutOfRange):
            projection_depth(x.atoms[0], x, n_alpha=n_alpha)


class TestDepthTable:
    def test_defaults_to_atoms(self):
        report = depth_table(three_atoms())
        assert report.ids == ("A1", "A2", "A3")
        assert report.method == "projection"
        assert report.depths[1] == 1.0
        assert report.ranks[1] == 1.0

    def test_symmetric_ties_share_rank(self):
        report = depth_table(three_atoms())
        # the two outer atoms sit symmetrically: equal depth, averaged rank
        assert report.depths[0] == report.depths[2]
        assert report.ranks[0] == report.ranks[2] == 2.5

    def test_no_queries_give_empty_ranks(self):
        report = depth_table(three_atoms(), queries=[])
        assert report.ids == report.depths == report.ranks == ()

    def test_custom_queries_and_ids(self):
        x = three_atoms()
        report = depth_table(
            x,
            queries=[crisp_interval(2.0, 3.0), crisp_interval(-10.0, -9.0)],
            config=DepthConfig(method="natural", r=1.0),
            ids=["center", "far"],
        )
        assert report.ids == ("center", "far")
        assert report.depths[0] > report.depths[1]
        assert report.ranks == (1.0, 2.0)

    def test_id_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            depth_table(three_atoms(), ids=["only-one"])

    def test_to_dict_structure(self):
        report = depth_table(three_atoms(), config=DepthConfig(method="location", r=2.0, theta=1.0))
        d = report.to_dict()
        assert d["method"] == "location"
        assert d["r"] == 2.0
        assert d["theta"] == 1.0
        assert len(d["results"]) == 3
        assert set(d["results"][0]) == {"id", "depth", "rank"}

    def test_depths_lie_in_unit_interval(self):
        rng = np.random.default_rng(8)
        atoms = [make_trapezoid(*np.sort(rng.uniform(-5, 5, 4))) for _ in range(6)]
        x = make_frv(atoms)
        for config in (
            DepthConfig(method="projection"),
            DepthConfig(method="natural", r=2.0),
            DepthConfig(method="natural_raised", r=3.0),
            DepthConfig(method="location", r=1.0, theta=0.5),
            DepthConfig(method="location_raised", r=2.0, theta=2.0),
        ):
            report = depth_table(x, config=config)
            assert all(0.0 <= d <= 1.0 for d in report.depths)
            assert sorted(report.ranks) == sorted(
                float(k) for k in np.argsort(np.argsort([-d for d in report.depths])) + 1.0
            ) or len(set(report.depths)) < len(report.depths)


# A small pool so that drawn vectors tie often; -0.0 and 0.0 compare equal.
_TIE_POOL = [-0.0, 0.0, -1.0, 0.25, 0.5, 1.0, 1e-300, -2.5e17]


class TestRankdata:
    """The numpy ranker against scipy.stats.rankdata(method="average")."""

    @staticmethod
    def assert_matches_scipy(values):
        got = rankdata(values)
        want = scipy.stats.rankdata(np.asarray(values, dtype=float), method="average")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(
        st.lists(
            st.one_of(st.sampled_from(_TIE_POOL), st.floats(allow_nan=False)),
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_with_ties(self, values):
        self.assert_matches_scipy(values)

    @pytest.mark.parametrize(
        "values",
        [[], [0.0], [-0.0], [-0.0, 0.0, -0.0], [3.0, 1.0, 3.0, 2.0, 1.0, 3.0], [-0.5] * 200],
    )
    def test_edge_cases(self, values):
        self.assert_matches_scipy(values)

    def test_negated_depths_rank_descending(self):
        depths = [0.0, 0.5, 0.0, 1.0, 0.5]
        ranks = rankdata([-d for d in depths])
        assert ranks.tolist() == [4.5, 2.5, 4.5, 1.0, 2.5]


class TestPlanarDepths:
    def test_center_is_deepest(self):
        grid = DirectionGrid.circle(24)
        alphas = uniform_alphas(6)
        pts = [(0.0, 0.0), (2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0)]
        x = make_frv([grid_crisp_point(p, grid, alphas) for p in pts])
        depths = [natural_depth(a, x, 2.0) for a in x.atoms]
        assert depths[0] == max(depths)
        proj = [projection_depth(a, x) for a in x.atoms]
        assert proj[0] == max(proj)
        assert proj[0] == 1.0
