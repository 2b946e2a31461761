"""fuzzydepth benchmark: four workloads, checked outputs, metrics by name.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads (closed loop, one client, one
process, one thread; inputs from ``--seed``, a fresh one per table):

- ``rank_projection_1d``: ``fuzzydepth depth --method projection --format
  json`` on a CSV of 160 trapezoids; the median/MAD outlyingness path.
- ``rank_metric_1d``: the same CLI on 200 trapezoids with ``--format csv``,
  cycling natural r=2, natural-raised r=1.5, location r=2 theta=1 and
  location-raised r=1 theta=0.5; the exact per-pair metric path.
- ``verify_suite``: ``run_suite("all", seed)``, 41 cases on small samples;
  many fits with few queries each, and the only user of the axiom checkers.
- ``rank_planar``: ``depth_table(make_frv(atoms))`` on 40 zonotopes over 360
  directions x 21 alphas, cycling projection, natural r=2 and location r=2
  theta=1; the planar grid branches.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``items_per_s`` (rows ranked per second, or verify cases per second; the
median over whole method cycles), ``task_s_p50`` (median seconds per table
or per suite), ``setup_s`` (median cold start: import ``fuzzydepth.cli``,
parse and build the first sample, or ``build_cases``) and ``peak_rss_mb``
(peak resident memory of the measuring process).  Times are scaled by a reference kernel
timed next to each task (see ``worker.py``); the line before the result
gives the unscaled figures.  With ``--trace 1`` the result carries the
per-layer metrics of a traced run (see ``spans.py`` and ``worker.py``), and
the top-level spans go to ``.perfbench/<workload>/trace-<workload>-<seed>.json``.
The failure ratio is ``failed / attempted`` of the result line.

Each measurement runs in a fresh interpreter with ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1.  The exit code is
not 0, and no result is printed, when the checkout has no library to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("rank_projection_1d", "rank_metric_1d", "verify_suite", "rank_planar")
ITEM_NAMES = {"verify_suite": "cases"}
SETUP_STARTS = 3
IMPORTTIME_STARTS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Every child gets the time left of this budget, so a run ends within 180 s.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    # Cold starts read cached bytecode, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run_child(argv, deadline, capture_stderr=False):
    """Run a Python child to completion (killed at the deadline); its output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}")
    return proc.stdout, proc.stderr


def _worker(args, deadline):
    stdout, _ = _run_child([str(HERE / "worker.py"), *args], deadline)
    return json.loads(stdout.strip().splitlines()[-1])


def _import_times(stderr):
    """(fuzzydepth import, outermost scipy imports) in seconds from -X importtime."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line.split("|")
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((level, raw.strip(), int(cumulative) / 1e6))
    total = scipy = 0.0
    ancestors = []
    # -X importtime lists a module after its children; read it backwards so
    # that every module comes after its ancestors.
    for level, name, seconds in reversed(entries):
        ancestors = ancestors[:level]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy += seconds
        if level == 0 and name.split(".")[0] == "fuzzydepth":
            total += seconds
        ancestors.append(name)
    return total, scipy


def end_to_end(name, seed, seconds, workdir, deadline):
    probes = [
        _worker(["probe", name, str(seed), str(workdir)], deadline) for _ in range(SETUP_STARTS)
    ]
    run = _worker(["run", name, str(seed), str(seconds), "0", str(workdir)], deadline)

    def rate(times):
        cycle = run["cycle"]
        cycle_s = [sum(times[k : k + cycle]) for k in range(0, len(times), cycle)]
        return run["items"] * cycle / statistics.median(cycle_s)

    scaled = run["scaled_times"]
    metrics = {
        "items_per_s": (rate(scaled), "1/s"),
        "task_s_p50": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    item = ITEM_NAMES.get(name, "rows")
    summary = (
        f"{name} seed {seed}: {len(scaled)} tasks, {metrics['items_per_s'][0]:.1f} {item}_per_s "
        f"scaled ({rate(run['times']):.1f} raw), setup {metrics['setup_s'][0]:.3f} s scaled "
        f"({statistics.median(p['setup_raw_s'] for p in probes):.3f} raw), "
        f"reference kernel {run['reference_s']:.4f} s"
    )
    return run, metrics, summary


def per_layer(name, seed, seconds, workdir, deadline):
    imports = []
    for _ in range(IMPORTTIME_STARTS):
        _, stderr = _run_child(
            ["-X", "importtime", "-c", "import fuzzydepth.cli"], deadline, capture_stderr=True
        )
        imports.append(_import_times(stderr))
    run = _worker(["run", name, str(seed), str(seconds), "1", str(workdir)], deadline)
    metrics = {key: tuple(value) for key, value in run["layers"].items()}
    metrics["setup.import_s"] = (statistics.median(t for t, _ in imports), "s")
    metrics["setup.import_scipy_s"] = (statistics.median(s for _, s in imports), "s")
    metrics["bench.fail_ratio"] = (run["failed"] / run["attempted"], "ratio")
    overhead = metrics["trace.overhead"][0]
    summary = f"{name} seed {seed}: traced, overhead {overhead:.3f} (traced / untraced rate)"
    return run, metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "fuzzydepth" / "__init__.py").is_file():
        sys.stderr.write(f"error: no library at {ROOT / 'src' / 'fuzzydepth'}\n")
        return 1
    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        run, metrics, summary = measure(
            args.workload, args.seed, args.seconds, workdir, deadline
        )
    except BenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    for problem in run["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(f"{summary}, fail_ratio {run['failed']}/{run['attempted']}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
