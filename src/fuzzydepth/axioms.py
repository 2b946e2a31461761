"""Reusable checkers for the depth axioms.

Each checker evaluates one property of a depth function against an empirical
fuzzy random variable and returns an AxiomVerdict carrying a pass/fail/
inconclusive status, the tolerance used and, on failure, a witness with the
concrete inputs and values that broke the property.  Checkers are
deterministic given their probes and seeds, so failed verdicts replay.

Covered properties: invariance under non-singular affine transforms (P1) and
under rigid motions (P1*), maximality at a symmetry center (P2), monotone
decay along convex paths from the maximizer (P3a) and along metric-collinear
triples (P3b), and vanishing depth for growing translates (P4a) or for
sequences drifting away in a metric (P4b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OrderViolation, OutOfRange
from .fuzzyset import LevelFuzzySet, add, convex_combo, matrix_transform, scale

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class AxiomVerdict:
    """Outcome of one axiom check."""

    axiom: str
    status: str
    tolerance: float
    witness: dict | None = None
    note: str = ""

    @property
    def passed(self):
        return self.status == PASS

    def to_dict(self):
        return {
            "axiom": self.axiom,
            "status": self.status,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "note": self.note,
        }


def transform_frv(x, matrix=None, shift=None):
    """Apply an affine map atom by atom: atom -> M . atom + shift."""
    return x.map_atoms(lambda a: transform_set(a, matrix, shift))


def transform_set(a, matrix=None, shift=None):
    if matrix is not None:
        a = matrix_transform(a, matrix)
    if shift is not None:
        a = add(a, shift)
    return a


def check_p1(depth, x, transforms, probes=None, tol=1e-9, axiom="P1"):
    """Invariance D(M.A + V; M.X + V) = D(A; X) over the given transforms.

    ``transforms`` is a list of (matrix, shift) pairs, shift a fuzzy set or
    None.  Probes default to the atoms of x.
    """
    if probes is None:
        probes = list(x.atoms)
    for t_index, (matrix, shift) in enumerate(transforms):
        x_t = transform_frv(x, matrix, shift)
        for p_index, probe in enumerate(probes):
            before = depth(probe, x)
            after = depth(transform_set(probe, matrix, shift), x_t)
            if abs(after - before) > tol:
                return AxiomVerdict(
                    axiom,
                    FAIL,
                    tol,
                    witness={
                        "transform": t_index,
                        "probe": p_index,
                        "depth_before": before,
                        "depth_after": after,
                    },
                )
    return AxiomVerdict(axiom, PASS, tol)


def check_p1_star(depth, x, rotations=None, shifts=None, probes=None, tol=1e-9):
    """Invariance under rigid motions: rotations plus translations.

    On the line the only rotations are the identity and the reflection.  On
    the plane pass rotation angles; each is combined with every shift (a
    fuzzy set or None).
    """
    if x.dim == 1:
        matrices = [np.array([[1.0]]), np.array([[-1.0]])]
    else:
        if rotations is None:
            rotations = [0.5 * np.pi]
        matrices = [
            np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            for t in rotations
        ]
    if shifts is None:
        shifts = [None]
    transforms = [(m, v) for m in matrices for v in shifts]
    return check_p1(depth, x, transforms, probes=probes, tol=tol, axiom="P1*")


def check_p2(depth, center, x, probes, tol=1e-9):
    """The center of a symmetric variable attains the maximal depth."""
    d_center = depth(center, x)
    for index, probe in enumerate(probes):
        d_probe = depth(probe, x)
        if d_probe > d_center + tol:
            return AxiomVerdict(
                "P2",
                FAIL,
                tol,
                witness={
                    "probe": index,
                    "depth_center": d_center,
                    "depth_probe": d_probe,
                },
            )
    return AxiomVerdict("P2", PASS, tol, note=f"depth at center {d_center:.12g}")


def check_p3a(depth, x, maximizer, probes, lambdas=None, tol=1e-9):
    """Depth is non-increasing along (1 - lam) * maximizer + lam * probe."""
    if lambdas is None:
        lambdas = np.linspace(0.0, 1.0, 11)
    for index, probe in enumerate(probes):
        values = [
            depth(convex_combo(maximizer, probe, lam), x) for lam in lambdas
        ]
        for k in range(len(values) - 1):
            if values[k + 1] > values[k] + tol:
                return AxiomVerdict(
                    "P3a",
                    FAIL,
                    tol,
                    witness={
                        "probe": index,
                        "lambda": float(lambdas[k + 1]),
                        "depths": values,
                    },
                )
    return AxiomVerdict("P3a", PASS, tol)


def combo_collinear_triples(maximizer, targets, lambdas):
    """Metric-collinear triples (A, U, V) with U on the segment from A to V.

    U = (1 - lam) * A + lam * V is collinear for every metric in this
    package because the support function of a convex combination interpolates
    the support functions linearly.
    """
    triples = []
    for v in targets:
        for lam in lambdas:
            triples.append((maximizer, convex_combo(maximizer, v, lam), v))
    return triples


def check_p3b(depth, x, maximizer, metric, collinear_triples, tol=1e-9):
    """Monotonicity D(A) >= D(U) >= D(V) along metric-collinear triples.

    Triples must satisfy metric(A, V) = metric(A, U) + metric(U, V); this is
    re-verified and a triple violating it is reported as inconclusive.
    """
    for index, (a, u, v) in enumerate(collinear_triples):
        d_av = metric(a, v)
        gap = abs(metric(a, u) + metric(u, v) - d_av)
        if gap > 1e-9 * max(1.0, d_av):
            return AxiomVerdict(
                "P3b",
                INCONCLUSIVE,
                tol,
                witness={"triple": index, "collinearity_gap": gap},
                note="triple is not metric-collinear",
            )
        depth_a = depth(a, x)
        depth_u = depth(u, x)
        depth_v = depth(v, x)
        if depth_u > depth_a + tol or depth_v > depth_u + tol:
            return AxiomVerdict(
                "P3b",
                FAIL,
                tol,
                witness={
                    "triple": index,
                    "depths": (depth_a, depth_u, depth_v),
                },
            )
    return AxiomVerdict("P3b", PASS, tol)


def search_p3b_violation(depth, x, maximizer, metric, seed=0, n_trials=200, tol=1e-9):
    """Randomized search for a metric-collinear triple violating P3b.

    Candidate triples move the upper endpoint away from the maximizer by two
    proportional increments, which keeps the per-level Hausdorff distances of
    the two legs proportional, hence exactly additive for every L^r
    aggregation; the lower endpoint wanders freely inside the dominance
    budget.  Finding a triple with D(U) < D(V) proves the violation; finding
    none is reported as inconclusive, never as a pass.
    """
    if maximizer.dim != 1:
        raise NotImplementedError("the violation search works on the line")
    rng = np.random.default_rng(seed)
    alphas = maximizer.alphas
    for trial in range(n_trials):
        dc1 = rng.uniform(0.2, 2.0)
        dd1 = rng.uniform(0.2, 2.0)
        ratio = rng.uniform(0.3, 3.0)
        dc2, dd2 = ratio * dc1, ratio * dd1
        da1 = rng.uniform(-dd1, dd1)
        db1 = rng.uniform(-dc1, dc1)
        da2 = rng.uniform(-dd2, dd2)
        db2 = rng.uniform(-dc2, dc2)
        try:
            u = _shift_endpoints(maximizer, alphas, da1, db1, dd1, dc1)
            v = _shift_endpoints(u, alphas, da2, db2, dd2, dc2)
        except (OrderViolation, OutOfRange):
            continue
        d_av = metric(maximizer, v)
        if abs(metric(maximizer, u) + metric(u, v) - d_av) > 1e-9 * max(1.0, d_av):
            continue
        depth_u = depth(u, x)
        depth_v = depth(v, x)
        if depth_v > depth_u + tol:
            return AxiomVerdict(
                "P3b",
                FAIL,
                tol,
                witness={
                    "trial": trial,
                    "seed": seed,
                    "depth_mid": depth_u,
                    "depth_far": depth_v,
                    "u": (u.alphas.tolist(), u.lo.tolist(), u.hi.tolist()),
                    "v": (v.alphas.tolist(), v.lo.tolist(), v.hi.tolist()),
                },
                note="collinear triple with non-monotone depth",
            )
    return AxiomVerdict(
        "P3b",
        INCONCLUSIVE,
        tol,
        note=f"no violating triple in {n_trials} trials (seed {seed})",
    )


def _shift_endpoints(a, alphas, d_lo0, d_lo1, d_hi0, d_hi1):
    """Add linear-in-alpha increments to the endpoints of a fuzzy set.

    The lower endpoint gains (1 - alpha) * d_lo0 + alpha * d_lo1, the upper
    endpoint (1 - alpha) * d_hi0 + alpha * d_hi1.  Raises when the result is
    not a valid fuzzy set.
    """
    lo, hi = a.endpoints(alphas)
    lo = lo + (1.0 - alphas) * d_lo0 + alphas * d_lo1
    hi = hi + (1.0 - alphas) * d_hi0 + alphas * d_hi1
    return LevelFuzzySet(alphas, lo, hi)


def check_p4a(depth, x, maximizer, direction, lambda_schedule=None, epsilon=1e-3):
    """Depth of maximizer + lam * direction must sink below epsilon.

    A trajectory that fails to decay, for example the constant depth of the
    theta = 0 location depths along symmetric directions, yields a failed
    verdict with the whole trajectory as witness.
    """
    if lambda_schedule is None:
        lambda_schedule = (1.0, 10.0, 1e2, 1e3, 1e4, 1e5)
    trajectory = []
    for lam in lambda_schedule:
        probe = add(maximizer, scale(direction, lam))
        trajectory.append(depth(probe, x))
    if trajectory[-1] < epsilon:
        return AxiomVerdict("P4a", PASS, epsilon, note=f"final depth {trajectory[-1]:.3g}")
    return AxiomVerdict(
        "P4a",
        FAIL,
        epsilon,
        witness={
            "lambdas": [float(l) for l in lambda_schedule],
            "depths": trajectory,
        },
    )


def check_p4b(depth, x, maximizer, metric, sequence, epsilon=1e-3):
    """Depth must vanish along a sequence drifting away in the metric."""
    distances = [metric(a_n, maximizer) for a_n in sequence]
    if any(d2 <= d1 for d1, d2 in zip(distances, distances[1:])):
        return AxiomVerdict(
            "P4b",
            INCONCLUSIVE,
            epsilon,
            witness={"distances": distances},
            note="sequence does not drift away in the metric",
        )
    final = depth(sequence[-1], x)
    if final < epsilon:
        return AxiomVerdict(
            "P4b", PASS, epsilon, note=f"final depth {final:.3g} at distance {distances[-1]:.3g}"
        )
    return AxiomVerdict(
        "P4b",
        FAIL,
        epsilon,
        witness={"distances": distances, "final_depth": final},
    )
