"""End-to-end verification suite sanity."""

import pytest

from fuzzydepth.verification import (
    EXPECT_FAIL,
    EXPECT_PASS,
    build_cases,
    dyadic_sign_flip,
    format_rows,
    run_suite,
)


# Every case of the built-in suite, in order: (name, suite, expectation).
EXPECTED_CASES = [
    ("projection: affine invariance", "p1", "pass"),
    ("natural r=1: affine invariance", "p1", "fail"),
    ("natural-raised r=2: affine invariance", "p1", "fail"),
    ("location r=1 theta=1: affine invariance", "p1", "fail"),
    ("location-raised r=2 theta=1: affine invariance", "p1", "fail"),
    ("natural r=1: rigid-motion invariance (line)", "p1", "pass"),
    ("natural-raised r=2: rigid-motion invariance (line)", "p1", "pass"),
    ("location r=1 theta=1: rigid-motion invariance (line)", "p1", "pass"),
    ("location-raised r=2 theta=1: rigid-motion invariance (line)", "p1", "pass"),
    ("natural r=1: rigid-motion invariance (plane)", "p1", "pass"),
    ("location r=2 theta=1: rigid-motion invariance (plane)", "p1", "pass"),
    ("projection: maximal at symmetry center", "p2", "pass"),
    ("natural r=1: maximal at symmetry center", "p2", "pass"),
    ("natural-raised r=2: maximal at symmetry center", "p2", "pass"),
    ("natural r=3: maximal at symmetry center", "p2", "pass"),
    ("location r=1 theta=1: maximal at symmetry center", "p2", "pass"),
    ("location-raised r=2 theta=5: maximal at symmetry center", "p2", "pass"),
    ("projection: maximal at weighted median group", "p2", "pass"),
    ("projection: decay along convex paths", "p3", "pass"),
    ("natural r=1: decay along convex paths", "p3", "pass"),
    ("natural-raised r=2: decay along convex paths", "p3", "pass"),
    ("location r=1 theta=1: decay along convex paths", "p3", "pass"),
    ("location-raised r=2 theta=1: decay along convex paths", "p3", "pass"),
    ("projection: monotone on rho_2-collinear triples", "p3", "pass"),
    ("natural r=1: monotone on rho_2-collinear triples", "p3", "pass"),
    ("natural-raised r=2: monotone on d_{2,1}-collinear triples", "p3", "pass"),
    ("location r=1 theta=1: monotone on d_{1,1}-collinear triples", "p3", "pass"),
    ("projection: search on Hausdorff-collinear triples", "p3", "fail-or-inconclusive"),
    ("projection: vanishing for growing translates", "p4", "pass"),
    ("natural r=1: vanishing for growing translates", "p4", "pass"),
    ("natural-raised r=2: vanishing for growing translates", "p4", "pass"),
    ("location r=1 theta=1: vanishing for growing translates", "p4", "pass"),
    ("location-raised r=2 theta=1: vanishing for growing translates", "p4", "pass"),
    ("location r=1 theta=0: vanishing for growing translates", "p4", "fail"),
    ("location-raised r=2 theta=0: vanishing for growing translates", "p4", "fail"),
    ("projection: vanishing along rho_1 divergence", "p4", "pass"),
    ("projection: vanishing along d_2 divergence", "p4", "pass"),
    ("natural r=1: vanishing along rho_1 divergence", "p4", "pass"),
    ("natural-raised r=2: vanishing along rho_2 divergence", "p4", "pass"),
    ("location r=1 theta=1: vanishing along d_{1,1} divergence", "p4", "pass"),
    ("location r=2 theta=0: vanishing along rho_2 divergence", "p4", "fail"),
]


def test_case_matrix_is_pinned():
    cases = build_cases()
    assert len(cases) == 41
    assert [(c.name, c.suite, c.expected) for c in cases] == EXPECTED_CASES


def test_full_suite_matches_expectations():
    rows, ok = run_suite("all", seed=0)
    assert ok
    assert len(rows) >= 30
    assert all(matched for _, _, matched in rows)


def test_suite_filters_partition_the_cases():
    all_rows, _ = run_suite("all", seed=0)
    total = 0
    for suite in ("p1", "p2", "p3", "p4"):
        rows, ok = run_suite(suite, seed=0)
        assert ok
        assert rows, suite
        assert all(case.suite == suite for case, _, _ in rows)
        total += len(rows)
    assert total == len(all_rows)


def test_expected_failures_are_present():
    cases = build_cases()
    expected_fail = [c for c in cases if c.expected != EXPECT_PASS]
    assert expected_fail  # counterexamples are part of the contract
    names = " ".join(c.name for c in expected_fail)
    assert "affine" in names
    assert "theta" in names or "theta=0" in names


def test_format_rows_shape():
    rows, _ = run_suite("p2", seed=1)
    lines = format_rows(rows)
    assert len(lines) == len(rows)
    for line in lines:
        assert line.startswith("[ok]") or line.startswith("[UNEXPECTED]")
        assert "(expected" in line


def test_dyadic_sign_flip_center_has_full_depth():
    from fuzzydepth import projection_depth

    for seed in (0, 7):
        center, x = dyadic_sign_flip(seed)
        assert projection_depth(center, x, n_alpha=128) == 1.0


def test_seeded_runs_are_deterministic():
    rows_a, _ = run_suite("p2", seed=4)
    rows_b, _ = run_suite("p2", seed=4)
    assert [(c.name, v.status) for c, v, _ in rows_a] == [
        (c.name, v.status) for c, v, _ in rows_b
    ]


def test_unknown_suite_returns_nothing():
    rows, ok = run_suite("nope", seed=0)
    assert rows == []
    assert ok  # vacuously
