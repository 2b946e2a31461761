"""The batched sample engine against the per-query reference path.

``reference_outlyingness`` and ``reference_metric_depth`` are the per-query
computations the engine replaced: the first restacks every atom's support
matrix for each query, the second sums the pairwise metric over the atoms.
Projection depths must match them bitwise; metric depths to 1e-12, because
the batched sums run in another order.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzydepth import (
    DepthConfig,
    DirectionGrid,
    LevelFuzzySet,
    MetricSpec,
    OutOfRange,
    crisp_interval,
    depth_table,
    grid_zonotope,
    make_frv,
    make_trapezoid,
    merge_alphas,
    metric_d_r,
    metric_d_r_theta,
    metric_depth,
    metric_rho_r,
    natural_depth,
    projection_depth,
    uniform_alphas,
)
from fuzzydepth import empirical, metrics
from fuzzydepth.empirical import _mad_columns, _median_columns


def reference_outlyingness(a, x, n_alpha=100):
    grid = a.alphas  # planar atoms share the query's grid
    if a.dim == 1:
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


def reference_metric_depth(a, x, metric, raised=False):
    if raised:
        r = float(metric.r)
        return 1.0 / (1.0 + x.expectation(lambda atom: metric(a, atom) ** r))
    return 1.0 / (1.0 + x.expectation(lambda atom: metric(a, atom)))


_REFERENCE_METRICS = {
    "natural": ("rho_r", False),
    "natural_raised": ("rho_r", True),
    "location": ("d_r_theta", False),
    "location_raised": ("d_r_theta", True),
}


def reference_depth(config, a, x):
    if config.method == "projection":
        out = reference_outlyingness(a, x, config.n_alpha)
        return 0.0 if math.isinf(out) else 1.0 / (1.0 + out)
    family, raised = _REFERENCE_METRICS[config.method]
    return reference_metric_depth(a, x, MetricSpec(family, config.r, config.theta), raised)


def metric_configs(r, theta):
    return [
        DepthConfig("natural", r=r),
        DepthConfig("natural_raised", r=r),
        DepthConfig("location", r=r, theta=theta),
        DepthConfig("location_raised", r=r, theta=theta),
    ]


def assert_table_matches_reference(x, queries, config):
    got = depth_table(x, queries=queries, config=config).depths
    want = [reference_depth(config, a, x) for a in queries]
    if config.method == "projection":
        assert list(got) == want
    else:
        assert list(got) == pytest.approx(want, rel=0.0, abs=1e-12)


def random_trapezoid(rng):
    return make_trapezoid(*np.sort(rng.normal(0.0, 3.0, 4)))


def random_grid(rng):
    inner = np.sort(rng.uniform(0.05, 0.95, rng.integers(1, 4)))
    return np.concatenate([[0.0], inner, [1.0]])


def random_pl_set(rng, alphas):
    """Levels around a random centre; at most 4 steps of 0.25 keep them non-empty."""
    steps = len(alphas) - 1
    centre = rng.normal(0.0, 3.0)
    lo = centre - rng.uniform(1.0, 3.0) + np.cumsum(np.r_[0.0, rng.uniform(0.0, 0.25, steps)])
    hi = centre + rng.uniform(1.0, 3.0) - np.cumsum(np.r_[0.0, rng.uniform(0.0, 0.25, steps)])
    return LevelFuzzySet(alphas, lo, hi)


@st.composite
def line_samples(draw):
    """A weighted sample of trapezoids and piecewise-linear atoms, plus queries.

    Most piecewise-linear atoms share one of two grids, so blocks hold several
    atoms; frequencies include 0, and the extra queries have breakpoints that
    are not in the sample.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = [random_grid(rng) for _ in range(2)]
    atoms = [random_trapezoid(rng) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0 if atoms else 1, 8))):
        grid = shared[rng.integers(2)] if rng.random() < 0.7 else random_grid(rng)
        atoms.append(random_pl_set(rng, grid))
    if draw(st.booleans()):
        atoms.append(atoms[0])
    frequencies = rng.integers(0, 4, len(atoms))
    frequencies[rng.integers(len(atoms))] += 1
    queries = atoms + [random_pl_set(rng, random_grid(rng)) for _ in range(3)]
    queries.append(random_trapezoid(rng))
    return make_frv(atoms, frequencies=frequencies), queries


class TestAgainstReference:
    @given(
        line_samples(),
        st.sampled_from([1.0, 1.5, 2.0, 3.5]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([1, 7, 100]),
    )
    @settings(max_examples=60, deadline=None)
    def test_line_tables(self, sample, r, theta, n_alpha):
        x, queries = sample
        assert_table_matches_reference(x, queries, DepthConfig("projection", n_alpha=n_alpha))
        for config in metric_configs(r, theta):
            assert_table_matches_reference(x, queries, config)

    def test_planar_tables(self):
        # 360 directions x 21 alphas: a stack of 20 atoms runs in three chunks
        grid = DirectionGrid.circle(360)
        alphas = uniform_alphas(20)
        rng = np.random.default_rng(3)

        def zonotope():
            return grid_zonotope(rng.normal(0.0, 1.0, 2), rng.normal(0.0, 0.4, (2, 2)), grid, alphas)

        atoms = [zonotope() for _ in range(20)]
        x = make_frv(atoms, weights=rng.uniform(0.5, 2.0, len(atoms)))
        queries = atoms[:6] + [zonotope() for _ in range(2)]
        assert_table_matches_reference(x, queries, DepthConfig("projection"))
        for config in metric_configs(2.0, 1.0) + metric_configs(1.5, 0.0):
            assert_table_matches_reference(x, queries, config)

    def test_query_breakpoints_that_some_atoms_have(self):
        # a query breakpoint that one atom of a block already has is repeated
        # in that atom's grid: a segment of length zero
        rng = np.random.default_rng(7)
        grids = [np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.6, 1.0])]
        atoms = [random_pl_set(rng, grids[k % 2]) for k in range(6)]
        x = make_frv(atoms)
        queries = atoms + [random_pl_set(rng, np.array([0.0, 0.3, 0.6, 1.0]))]
        for config in (DepthConfig("projection", n_alpha=1), *metric_configs(1.5, 1.0)):
            assert_table_matches_reference(x, queries, config)

    def test_small_chunks_change_nothing(self, monkeypatch):
        monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 1)
        rng = np.random.default_rng(5)
        atoms = [random_trapezoid(rng) for _ in range(5)] + [
            random_pl_set(rng, random_grid(rng)) for _ in range(3)
        ]
        x = make_frv(atoms)
        for config in metric_configs(2.5, 0.5):
            assert_table_matches_reference(x, atoms, config)


class TestFitOnce:
    def test_table_reads_each_atom_a_bounded_number_of_times(self, monkeypatch):
        calls = Counter()
        original = LevelFuzzySet.support_values

        def counting(self, alphas):
            calls[id(self)] += 1
            return original(self, alphas)

        monkeypatch.setattr(LevelFuzzySet, "support_values", counting)
        rng = np.random.default_rng(4)
        for n in (8, 64):
            atoms = [random_trapezoid(rng) for _ in range(n)]
            for config in (DepthConfig("projection"), *metric_configs(2.0, 1.0)):
                calls.clear()
                depth_table(make_frv(atoms), config=config)
                # once for the fit, at most once as a query
                assert max(calls[id(atom)] for atom in atoms) <= 2, (n, config.method)

    def test_repeated_projection_computes_profiles_once(self, monkeypatch):
        passes = []
        original = empirical._median_columns

        def counting(values, weights):
            passes.append(values.shape)
            return original(values, weights)

        monkeypatch.setattr(empirical, "_median_columns", counting)
        rng = np.random.default_rng(6)
        x = make_frv([random_trapezoid(rng) for _ in range(9)])
        for _ in range(3):
            for atom in x.atoms:
                projection_depth(atom, x)
        assert len(passes) == 2  # one median pass and one MAD pass
        off_grid = random_pl_set(rng, np.array([0.0, 0.3731, 1.0]))
        projection_depth(off_grid, x)
        assert len(passes) == 4 and passes[-1] == (9, 2)  # its one extra alpha
        projection_depth(x.atoms[0], x, n_alpha=7)
        projection_depth(x.atoms[1], x, n_alpha=7)
        assert len(passes) == 6
        assert x.fit() is x.fit()


class TestOverflow:
    def test_line_depths_and_metrics(self):
        x = make_frv([make_trapezoid(0, 1, 2, 3), make_trapezoid(4, 5, 6, 9)])
        a = make_trapezoid(1, 2, 3, 5)
        for config in metric_configs(1e6, 1.0):
            with pytest.raises(OutOfRange, match="overflow"):
                depth_table(x, config=config)
        for distance in (
            lambda b: metric_rho_r(a, b, 1e6),
            lambda b: metric_d_r_theta(a, b, 1e6, 1.0),
            lambda b: metric_d_r(a, b, 1e6),
        ):
            with pytest.raises(OutOfRange, match="overflow"):
                distance(x.atoms[1])

    def test_planar_depths_and_metrics(self):
        grid, alphas = DirectionGrid.circle(8), uniform_alphas(3)
        atoms = [grid_zonotope(c, [[1.0, 0.0]], grid, alphas) for c in ([0, 0], [5, 5])]
        x = make_frv(atoms)
        for config in metric_configs(1e6, 1.0):
            with pytest.raises(OutOfRange, match="overflow"):
                depth_table(x, config=config)
        for distance in (metric_rho_r, metric_d_r):
            with pytest.raises(OutOfRange, match="overflow"):
                distance(atoms[0], atoms[1], 1e6)
        with pytest.raises(OutOfRange, match="overflow"):
            metric_d_r_theta(atoms[0], atoms[1], 1e6, 1.0)

    def test_large_r_with_small_distances_stays_finite(self):
        # the mean of |y|^r over a segment from 1 to 0.6 at r = 2000 is finite
        # although (r + 1) log(1 / 0.6) is past the exponential's range
        r = 2000.0
        x = make_frv([make_trapezoid(0.5, 0.6, 0.6, 1.0)])
        a = crisp_interval(0.0, 0.0)
        hi = (1.0 - 0.6 ** (r + 1.0)) / ((r + 1.0) * 0.4)
        lo = (0.6 ** (r + 1.0) - 0.5 ** (r + 1.0)) / ((r + 1.0) * 0.1)
        want = (0.5 * hi + 0.5 * lo) ** (1.0 / r)
        assert metric_rho_r(a, x.atoms[0], r) == pytest.approx(want, rel=1e-12)
        assert natural_depth(a, x, r) == pytest.approx(1.0 / (1.0 + want), rel=1e-12)


def test_metric_depth_takes_the_depth_families_only():
    x = make_frv([crisp_interval(0.0, 1.0), crisp_interval(2.0, 3.0)])
    with pytest.raises(OutOfRange):
        metric_depth(crisp_interval(1.0, 2.0), x, MetricSpec("d_r", 1.0))
