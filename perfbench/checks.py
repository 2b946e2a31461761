"""Output checks: row shape, depth range, ranking and closed-form oracles.

Each check returns a list of problems; an empty list means the output is
correct.  The oracles integrate exactly over alpha, so they hold whatever
alpha grid the library uses internally.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Depths printed with six decimals are compared at that resolution.
CSV_DEPTH_TOL = 5e-7 + 1e-9
EXACT_TOL = 1e-9


def average_ranks(depths):
    """Ranks of -depth, 1 for the deepest, tied values sharing their mean rank."""
    order = sorted(range(len(depths)), key=lambda i: -depths[i])
    ranks = [0.0] * len(depths)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and depths[order[stop + 1]] == depths[order[start]]:
            stop += 1
        for k in range(start, stop + 1):
            ranks[order[k]] = (start + stop + 2) / 2.0
        start = stop + 1
    return ranks


def check_rows(ids, depths, ranks, expected_ids, exact_ranks=True):
    """n rows in input order, finite depths in [0, 1], ranks of -depth.

    With ``exact_ranks`` false the depths are rounded, so rows whose printed
    depths tie may carry any ranks inside their tie block that average to
    the block's rank.
    """
    problems = []
    if list(ids) != list(expected_ids):
        problems.append(f"expected {len(expected_ids)} rows in input order, got {len(ids)}")
        return problems
    bad = [d for d in depths if not (math.isfinite(d) and 0.0 <= d <= 1.0)]
    if bad:
        problems.append(f"{len(bad)} depths outside [0, 1], e.g. {bad[0]!r}")
        return problems
    want = average_ranks(depths)
    if exact_ranks:
        wrong = sum(1 for r, w in zip(ranks, want) if r != w)
    else:
        blocks = {}
        for d, r, w in zip(depths, ranks, want):
            blocks.setdefault(d, []).append((r, w))
        wrong = 0
        for block in blocks.values():
            half = (len(block) - 1) / 2.0
            lo, hi = block[0][1] - half, block[0][1] + half
            wrong += sum(1 for r, _ in block if not lo <= r <= hi)
            if sum(r for r, _ in block) != sum(w for _, w in block):
                wrong += len(block)
    if wrong:
        problems.append(f"{wrong} ranks differ from the average-tie ranking of -depth")
    return problems


def parse_json_report(text):
    results = json.loads(text)["results"]
    return (
        [row["id"] for row in results],
        [float(row["depth"]) for row in results],
        [float(row["rank"]) for row in results],
    )


def parse_csv_report(text):
    lines = text.splitlines()
    if not lines or lines[0] != "id,depth,rank":
        raise ValueError("CSV report lacks its id,depth,rank header")
    ids, depths, ranks = [], [], []
    for line in lines[1:]:
        i, d, r = line.split(",")
        ids.append(i)
        depths.append(float(d))
        ranks.append(float(r))
    return ids, depths, ranks


def _mean_square(y0, y1):
    """Integral over [0, 1] of y^2 for y linear from y0 to y1."""
    return (y0 * y0 + y0 * y1 + y1 * y1) / 3.0


def oracle_depths(rows, method, theta=None):
    """Closed-form ``natural`` r=2 or ``location`` r=2 depths of every row.

    Rows are (id, a, b, c, d, frequency) trapezoids; the sample weights the
    positive-frequency rows by frequency.  A trapezoid's level endpoints are
    linear in alpha, lo from a to b and hi from d to c, so every squared
    difference integrates in closed form.
    """
    knots = np.array([row[1:5] for row in rows], dtype=float)
    freq = np.array([row[5] for row in rows], dtype=float)
    keep = freq > 0
    atoms = knots[keep]
    weights = freq[keep] / freq[keep].sum()
    diff = knots[:, None, :] - atoms[None, :, :]
    lo0, lo1, hi1, hi0 = (diff[..., k] for k in range(4))
    if method == "natural":
        sq = 0.5 * (_mean_square(hi0, hi1) + _mean_square(lo0, lo1))
    elif method == "location":
        mid = _mean_square(0.5 * (hi0 + lo0), 0.5 * (hi1 + lo1))
        spr = _mean_square(0.5 * (hi0 - lo0), 0.5 * (hi1 - lo1))
        sq = mid + theta * spr
    else:
        raise ValueError(f"no oracle for method {method!r}")
    return 1.0 / (1.0 + np.sqrt(sq) @ weights)


def check_oracle(depths, rows, method, theta, tol):
    want = oracle_depths(rows, method, theta)
    err = np.abs(np.asarray(depths) - want)
    worst = float(err.max())
    if not worst <= tol:
        return [f"{method} r=2 depth off its closed form by {worst:.3g} (tolerance {tol:g})"]
    return []


def check_close(got, want, tol, what):
    err = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    if len(got) != len(want) or not err <= tol:
        return [f"{what}: depths differ by {err:.3g} (tolerance {tol:g})"]
    return []
