"""Scale baseline: ``fuzzydepth depth`` on 10^2, 10^3 and 10^4 trapezoids.

    python3 tools/bench_scale.py [--checkout LABEL=PATH ...] [--output FILE] [--note TEXT]

For each checkout (default: this one), each of the five depth methods and
each n, the CLI ranks the seeded CSV of ``perfbench.workloads.trapezoid_rows(
table_rng(5, 0), n)``.  Every run is a fresh interpreter with
``PYTHONPATH=<checkout>/src`` and one BLAS thread, timed wall to wall, so the
figures include interpreter start and import.  The result per (method, n) is
the median of 3 runs.  A first run still going after 60 s is stopped; that n
is recorded as skipped, and so is every larger n of the method, which is not
run.  The JSON written records each checkout's commit, the Python and numpy
versions and the host.  Needs the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SIZES = (100, 1_000, 10_000)
RUNS = 3
LIMIT_S = 60.0
SEED = 5
# The CLI arguments of each method: the settings the benchmark workloads use.
METHODS = {
    "projection": ["--method", "projection"],
    "natural": ["--method", "natural", "--r", "2"],
    "natural-raised": ["--method", "natural-raised", "--r", "1.5"],
    "location": ["--method", "location", "--r", "2", "--theta", "1"],
    "location-raised": ["--method", "location-raised", "--r", "1", "--theta", "0.5"],
}


def _commit(checkout):
    """HEAD of the checkout, with ``+changes`` when its tracked files differ from it."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=False
        )

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+changes" if dirty else "")


def _host():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model, "cpus": os.cpu_count()}


def _run(checkout, csv_path, args, timeout):
    """Wall seconds of one CLI run, or None when it was stopped at ``timeout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(checkout) / "src")
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    argv = [sys.executable, "-m", "fuzzydepth.cli", "depth", "--input", str(csv_path), *args]
    argv += ["--format", "csv"]
    t0 = time.perf_counter()
    try:
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return time.perf_counter() - t0


def measure(checkout, workdir):
    """Median seconds per (method, n) for one checkout, with skips recorded."""
    inputs = {}
    for n in SIZES:
        path = Path(workdir) / f"trapezoids_{n}.csv"
        rows = workloads.trapezoid_rows(workloads.table_rng(SEED, 0), n)
        path.write_text(workloads.csv_text(rows), encoding="utf-8")
        inputs[n] = path
    results = []
    for method, args in METHODS.items():
        too_slow = None
        for n in SIZES:
            entry = {"method": method, "n": n}
            if too_slow is not None:
                entry["skipped"] = f"not run: n = {too_slow} took over {LIMIT_S:g} s"
                results.append(entry)
                continue
            first = _run(checkout, inputs[n], args, LIMIT_S)
            if first is None:
                too_slow = n
                entry["skipped"] = f"first run stopped after {LIMIT_S:g} s"
                results.append(entry)
                continue
            runs = [first] + [_run(checkout, inputs[n], args, None) for _ in range(RUNS - 1)]
            entry["median_s"] = round(statistics.median(runs), 4)
            entry["runs_s"] = [round(t, 4) for t in runs]
            results.append(entry)
            print(f"{checkout}: {method} n={n} {entry['median_s']:.3f} s", file=sys.stderr)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checkout",
        action="append",
        metavar="LABEL=PATH",
        help="a checkout to measure (repeatable; default: this one, labelled 'this')",
    )
    parser.add_argument("--output", default=None, help="JSON file to write (default: stdout)")
    parser.add_argument("--note", default="", help="free-text note on the host")
    args = parser.parse_args(argv)
    checkouts = [c.split("=", 1) for c in args.checkout or [f"this={ROOT}"]]
    report = {
        "command": "fuzzydepth depth --input <csv> <method arguments> --format csv",
        "input": f"perfbench.workloads.trapezoid_rows(table_rng({SEED}, 0), n)",
        "sizes": list(SIZES),
        "runs": RUNS,
        "limit_s": LIMIT_S,
        "timing": (
            "wall seconds of a fresh interpreter per run, start and import included;"
            " median of the runs"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": {**_host(), "note": args.note},
        "checkouts": {},
    }
    with tempfile.TemporaryDirectory() as workdir:
        for label, path in checkouts:
            results = measure(path, workdir)
            report["checkouts"][label] = {"commit": _commit(path), "results": results}
    text = json.dumps(report, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
