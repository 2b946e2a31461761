"""Seeded input generators for the benchmark workloads.

Everything here depends on numpy only, so inputs are made before the library
is touched and outside every timed region.  The same ``(seed, index)`` always
gives the same input.
"""

from __future__ import annotations

import numpy as np

N_PROJECTION_1D = 160
N_METRIC_1D = 200
N_PLANAR = 40
PLANAR_N_DIR = 360
PLANAR_N_ALPHA = 20
MAX_FREQUENCY = 29
# Table index of the untimed check inputs, past any timed table of a run.
CHECK_INDEX = 999_999

# Methods cycled through, table by table.  Each entry is the CLI argument
# list for the 1-D workloads and a DepthConfig keyword set for the planar one.
METRIC_1D_METHODS = (
    ["--method", "natural", "--r", "2"],
    ["--method", "natural-raised", "--r", "1.5"],
    ["--method", "location", "--r", "2", "--theta", "1"],
    ["--method", "location-raised", "--r", "1", "--theta", "0.5"],
)
PLANAR_METHODS = (
    {"method": "projection"},
    {"method": "natural", "r": 2.0},
    {"method": "location", "r": 2.0, "theta": 1.0},
)


def table_rng(seed, index):
    """Generator for table ``index`` of a run started with ``seed``."""
    return np.random.default_rng([int(seed), int(index)])


def trapezoid_rows(rng, n):
    """``n`` rows (id, a, b, c, d, frequency) with knots rounded to 6 digits.

    Centres ~ N(0, 1), core half-width |N(0.2, 0.1)|, left and right side
    widths |N(0.5, 0.2)|, integer frequencies 0..29 (zero rows are ranked
    but carry no weight).
    """
    centre = rng.normal(0.0, 1.0, n)
    half = np.abs(rng.normal(0.2, 0.1, n))
    left = np.abs(rng.normal(0.5, 0.2, n))
    right = np.abs(rng.normal(0.5, 0.2, n))
    freq = rng.integers(0, MAX_FREQUENCY + 1, n)
    if not freq.any():
        freq[0] = 1
    rows = []
    for k in range(n):
        b = centre[k] - half[k]
        c = centre[k] + half[k]
        knots = [float(f"{v:.6g}") for v in (b - left[k], b, c, c + right[k])]
        rows.append((f"r{k:04d}", *knots, int(freq[k])))
    return rows


def csv_text(rows):
    """CSV in the ``id,a,b,c,d,frequency`` layout the CLI reads."""
    lines = ["id,a,b,c,d,frequency"]
    lines.extend(f"{i},{a!r},{b!r},{c!r},{d!r},{f}" for i, a, b, c, d, f in rows)
    return "\n".join(lines) + "\n"


def affine_rows(rows, scale=2.0, shift=3.0):
    """The rows mapped by x -> scale * x + shift, knots in full precision."""
    return [
        (i, *(scale * v + shift for v in (a, b, c, d)), f) for i, a, b, c, d, f in rows
    ]


def zonotope_specs(rng, n):
    """Centres ~ N(0, I) and two generators ~ N(0, 0.3^2 I) per planar atom."""
    centres = rng.normal(0.0, 1.0, (n, 2))
    generators = rng.normal(0.0, 0.3, (n, 2, 2))
    return centres, generators
