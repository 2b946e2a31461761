"""Built-in verification suite: axiom checks with expected verdicts.

Every case pairs a depth family with one axiom checker on a bundled fixture
and an expected outcome.  Invariance under general non-singular maps is
expected to fail for the distance-based depths, and the theta = 0 location
depths are expected to keep full depth along symmetric inflations; those
failures are part of the contract, so the suite succeeds exactly when each
verdict matches its expectation.  The search-based case (monotonicity along
Hausdorff-collinear triples for the projection depth) passes the suite with
either a found counterexample or an inconclusive search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    check_p1,
    check_p1_star,
    check_p2,
    check_p3a,
    check_p3b,
    check_p4a,
    check_p4b,
    combo_collinear_triples,
    search_p3b_violation,
)
from .dataset import records_frv, trees_like_records
from .depths import DepthConfig
from .empirical import make_frv, sign_flip_symmetric_frv
from .fuzzyset import (
    DirectionGrid,
    convex_combo,
    crisp_interval,
    crisp_point,
    grid_crisp_point,
    grid_zonotope,
    make_trapezoid,
    uniform_alphas,
)
from .metrics import MetricSpec

EXPECT_PASS = "pass"
EXPECT_FAIL = "fail"
EXPECT_FAIL_OR_INCONCLUSIVE = "fail-or-inconclusive"


@dataclass(frozen=True)
class VerifyCase:
    name: str
    suite: str
    expected: str
    run: object  # callable seed -> AxiomVerdict

    def matches(self, verdict):
        if self.expected == EXPECT_PASS:
            return verdict.status == PASS
        if self.expected == EXPECT_FAIL:
            return verdict.status == FAIL
        return verdict.status in (FAIL, INCONCLUSIVE)


def _family(method, r=1.0, theta=None):
    """Display name and depth callable of one configured depth method."""
    name = method.replace("_", "-")
    if method != "projection":
        name += f" r={r:g}" + ("" if theta is None else f" theta={theta:g}")
    return name, DepthConfig(method, r, theta).depth_function()


def example_pair_frv():
    """Two crisp atoms [1, 2] and [5, 7], equal weights."""
    return make_frv([crisp_interval(1, 2), crisp_interval(5, 7)])


def three_atom_frv():
    """Crisp atoms [0, 1], [2, 3], [4, 5]; the middle one has full depth."""
    return make_frv([crisp_interval(0, 1), crisp_interval(2, 3), crisp_interval(4, 5)])


def skewed_frv():
    """Small lower spread, large upper spread; maximizer [0, 5]."""
    return make_frv(
        [crisp_interval(0, 1), crisp_interval(-0.25, 5), crisp_interval(0.25, 10)]
    )


def dyadic_sign_flip(seed, n_deltas=2):
    """Seeded symmetric variable with dyadic knots, plus its center.

    Dyadic values keep the widened/narrowed support pairs exactly symmetric
    in floating point, so the center attains depth one bitwise.
    """
    rng = np.random.default_rng(seed)
    b = rng.integers(-32, 32) / 16.0
    a = b - rng.integers(4, 32) / 16.0
    c = b + rng.integers(8, 32) / 16.0
    d = c + rng.integers(4, 32) / 16.0
    center = make_trapezoid(a, b, c, d)
    core = c - b
    deltas = []
    for _ in range(n_deltas):
        d_lo = rng.integers(1, 8) / 64.0
        d_hi = rng.integers(1, 8) / 64.0
        limit = core / (2.0 * n_deltas)
        deltas.append((min(d_lo, limit), min(d_hi, limit)))
    return center, sign_flip_symmetric_frv(center, deltas)


def _combo_probes(x, rng, count=20):
    """Random convex combinations of atom pairs, as extra probes."""
    atoms = list(x.atoms)
    probes = []
    for _ in range(count):
        i, j = rng.integers(0, len(atoms), size=2)
        lam = rng.uniform(0.0, 1.0)
        probes.append(convex_combo(atoms[i], atoms[j], lam))
    return probes


def planar_zonotope_frv(seed, n_dir=72, n_alpha=15, size=3):
    rng = np.random.default_rng(seed)
    directions = DirectionGrid.circle(n_dir)
    alphas = uniform_alphas(n_alpha)
    atoms = []
    for _ in range(size):
        center = rng.uniform(-3.0, 3.0, size=2)
        generators = rng.uniform(-1.5, 1.5, size=(rng.integers(1, 4), 2))
        atoms.append(
            grid_zonotope(center, generators, directions, alphas, shrink=rng.uniform(0.0, 0.9))
        )
    return make_frv(atoms)


def _line_transforms():
    return [
        (np.array([[5.0]]), make_trapezoid(1.0, 1.0, 2.0, 2.0)),
        (np.array([[-2.0]]), None),
        (np.array([[0.5]]), crisp_interval(-1.0, 1.0)),
    ]


def _case_p1_pass(depth_fn):
    def run(seed):
        x = three_atom_frv()
        probes = list(x.atoms) + [crisp_interval(3, 4), make_trapezoid(0, 1, 2, 4)]
        return check_p1(depth_fn, x, _line_transforms(), probes=probes, tol=1e-9)

    return run


def _case_p1_fail(depth_fn):
    def run(seed):
        x = example_pair_frv()
        return check_p1(
            depth_fn,
            x,
            [(np.array([[5.0]]), None)],
            probes=[crisp_interval(3, 4)],
            tol=1e-9,
        )

    return run


def _case_p1_star_line(depth_fn):
    def run(seed):
        x = example_pair_frv()
        probes = [crisp_interval(3, 4)] + list(x.atoms)
        shifts = [None, crisp_interval(1, 2), crisp_point(-3.0)]
        return check_p1_star(depth_fn, x, shifts=shifts, probes=probes, tol=1e-9)

    return run


def _case_p1_star_plane(depth_fn):
    def run(seed):
        x = planar_zonotope_frv(seed)
        n = x.atoms[0].directions.size
        rotations = [2.0 * np.pi * 18 / n, 2.0 * np.pi * 30 / n]
        shifts = [
            None,
            grid_crisp_point((0.5, -1.25), x.atoms[0].directions, x.atoms[0].alphas),
        ]
        return check_p1_star(depth_fn, x, rotations=rotations, shifts=shifts, tol=1e-9)

    return run


def _case_p2(depth_fn):
    def run(seed):
        center, x = dyadic_sign_flip(seed)
        rng = np.random.default_rng(seed + 1)
        probes = list(x.atoms) + _combo_probes(x, rng)
        return check_p2(depth_fn, center, x, probes, tol=1e-9)

    return run


def _case_p3a(depth_fn):
    def run(seed):
        center, x = dyadic_sign_flip(seed)
        rng = np.random.default_rng(seed + 2)
        probes = list(x.atoms) + _combo_probes(x, rng, count=5) + [
            crisp_interval(-20, -18),
            make_trapezoid(5, 6, 7, 10),
        ]
        return check_p3a(depth_fn, x, center, probes, tol=1e-9)

    return run


def _case_p3b_pass(depth_fn, metric):
    def run(seed):
        x = three_atom_frv()
        maximizer = crisp_interval(2, 3)
        targets = [crisp_interval(6, 8), make_trapezoid(-9, -8, -8, -6), crisp_point(12.0)]
        triples = combo_collinear_triples(maximizer, targets, (0.25, 0.5, 0.75))
        return check_p3b(depth_fn, x, maximizer, metric, triples, tol=1e-9)

    return run


def _case_p3b_search(depth_fn):
    def run(seed):
        x = skewed_frv()
        maximizer = crisp_interval(0, 5)
        return search_p3b_violation(
            depth_fn, x, maximizer, MetricSpec("d_r", 1.0), seed=seed, n_trials=400
        )

    return run


def _case_p4a(depth_fn):
    def run(seed):
        x = three_atom_frv()
        return check_p4a(depth_fn, x, crisp_interval(2, 3), crisp_interval(0, 1))

    return run


def _case_p4a_theta0(depth_fn):
    def run(seed):
        x = make_frv([crisp_interval(-1, 1)])
        return check_p4a(depth_fn, x, crisp_interval(-1, 1), crisp_interval(-2, 2))

    return run


def _case_p4b(depth_fn, metric):
    def run(seed):
        x = three_atom_frv()
        sequence = [crisp_interval(n, n + 1.0) for n in (10.0, 100.0, 1e3, 1e4, 1e5)]
        return check_p4b(depth_fn, x, crisp_interval(2, 3), metric, sequence)

    return run


def _case_p4b_theta0(depth_fn):
    def run(seed):
        x = make_frv([crisp_interval(-1, 1)])
        sequence = [crisp_interval(-n, n) for n in (10.0, 100.0, 1e3, 1e4)]
        return check_p4b(depth_fn, x, crisp_interval(-1, 1), MetricSpec("rho_r", 2.0), sequence)

    return run


def _case_trees_center(depth_fn):
    def run(seed):
        x, queries, _ = records_frv(trees_like_records())
        probes = list(queries)
        return check_p2(depth_fn, probes[4], x, probes, tol=0.0)

    return run


def build_cases():
    """The full expected-verdict matrix."""
    # Depth families under test, as DepthConfig arguments.
    proj = ("projection",)
    nat1 = ("natural", 1.0)
    nat_raised2 = ("natural_raised", 2.0)
    loc11 = ("location", 1.0, 1.0)
    metric_families = (nat1, nat_raised2, loc11, ("location_raised", 2.0, 1.0))
    rho1 = MetricSpec("rho_r", 1.0)
    rho2 = MetricSpec("rho_r", 2.0)
    d11 = MetricSpec("d_r_theta", 1.0, 1.0)
    d21 = MetricSpec("d_r_theta", 2.0, 1.0)
    # (families, property, suite, expectation, case factory, extra arguments):
    # one case per family, named "<family>: <property>", in table order.
    table = [
        ([proj], "affine invariance", "p1", EXPECT_PASS, _case_p1_pass),
        (metric_families, "affine invariance", "p1", EXPECT_FAIL, _case_p1_fail),
        (metric_families, "rigid-motion invariance (line)", "p1", EXPECT_PASS,
         _case_p1_star_line),
        ([nat1, ("location", 2.0, 1.0)], "rigid-motion invariance (plane)", "p1",
         EXPECT_PASS, _case_p1_star_plane),
        ([proj, nat1, nat_raised2, ("natural", 3.0), loc11, ("location_raised", 2.0, 5.0)],
         "maximal at symmetry center", "p2", EXPECT_PASS, _case_p2),
        ([proj], "maximal at weighted median group", "p2", EXPECT_PASS, _case_trees_center),
        ([proj, *metric_families], "decay along convex paths", "p3", EXPECT_PASS, _case_p3a),
        ([proj, nat1], "monotone on rho_2-collinear triples", "p3", EXPECT_PASS,
         _case_p3b_pass, rho2),
        ([nat_raised2], "monotone on d_{2,1}-collinear triples", "p3", EXPECT_PASS,
         _case_p3b_pass, d21),
        ([loc11], "monotone on d_{1,1}-collinear triples", "p3", EXPECT_PASS,
         _case_p3b_pass, d11),
        ([proj], "search on Hausdorff-collinear triples", "p3",
         EXPECT_FAIL_OR_INCONCLUSIVE, _case_p3b_search),
        ([proj, *metric_families], "vanishing for growing translates", "p4", EXPECT_PASS,
         _case_p4a),
        ([("location", 1.0, 0.0), ("location_raised", 2.0, 0.0)],
         "vanishing for growing translates", "p4", EXPECT_FAIL, _case_p4a_theta0),
        ([proj], "vanishing along rho_1 divergence", "p4", EXPECT_PASS, _case_p4b, rho1),
        ([proj], "vanishing along d_2 divergence", "p4", EXPECT_PASS, _case_p4b,
         MetricSpec("d_r", 2.0)),
        ([nat1], "vanishing along rho_1 divergence", "p4", EXPECT_PASS, _case_p4b, rho1),
        ([nat_raised2], "vanishing along rho_2 divergence", "p4", EXPECT_PASS, _case_p4b, rho2),
        ([loc11], "vanishing along d_{1,1} divergence", "p4", EXPECT_PASS, _case_p4b, d11),
        ([("location", 2.0, 0.0)], "vanishing along rho_2 divergence", "p4", EXPECT_FAIL,
         _case_p4b_theta0),
    ]
    cases = []
    for families, prop, suite, expected, factory, *args in table:
        for family in families:
            name, depth_fn = _family(*family)
            cases.append(VerifyCase(f"{name}: {prop}", suite, expected, factory(depth_fn, *args)))
    return cases


def run_suite(suite="all", seed=0):
    """Run the verification cases and compare against expectations.

    Returns (rows, ok) where rows are (case, verdict, matched) triples and ok
    is True when every verdict matched its expectation.
    """
    rows = []
    ok = True
    for case in build_cases():
        if suite != "all" and case.suite != suite:
            continue
        verdict = case.run(seed)
        matched = case.matches(verdict)
        ok = ok and matched
        rows.append((case, verdict, matched))
    return rows, ok


def format_rows(rows):
    lines = []
    for case, verdict, matched in rows:
        mark = "ok" if matched else "UNEXPECTED"
        lines.append(
            f"[{mark}] {case.name}: {verdict.status} (expected {case.expected})"
        )
    return lines
