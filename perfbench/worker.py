"""One benchmark process: a cold-start probe or a measured workload loop.

``run.py`` starts it in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and single-threaded BLAS.  The last stdout line is a
JSON object for ``run.py``.  Only the stdlib is imported at module level, so
a probe times the library import from a cold interpreter.

    python3 perfbench/worker.py probe <workload> <seed> <workdir>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace> <workdir>
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Sizes of the untimed check tables.
CHECK_N_1D = 40
CHECK_N_PLANAR = 16
VERIFY_CASES = 41


# Machine-speed reference: fixed code outside the library, timed next to
# every task and cold start.  A value measured while the reference took r
# seconds is reported as value * REFERENCE_NOMINAL_S / r, i.e. in seconds of
# a machine on which the reference takes REFERENCE_NOMINAL_S (its median on
# the 2-vCPU Xeon host of the first baseline).  On shared hosts the speed of
# a core drifts by +-25% over minutes, which the scaling cancels.
REFERENCE_NOMINAL_S = 0.03
REFERENCE_ROUNDS = 20


def reference_s():
    """Seconds taken by the reference kernel.

    It mimics the library's two hot paths at the workloads' sizes, so that it
    feels host contention the way they do: columnwise medians of 160
    interpolated rows, and closed-form segment integrals over 4 x 160 pairs
    per round in plain Python floats.
    """
    import math

    import numpy as np

    rng = np.random.default_rng(0)
    knots = rng.normal(size=(160, 2))
    pairs = knots.tolist()
    grid = np.linspace(0.0, 1.0, 101)
    ends = np.array([0.0, 1.0])
    acc = 0.0
    t0 = time.perf_counter()
    for q in range(REFERENCE_ROUNDS):
        cols = np.stack([np.interp(grid, ends, row) for row in knots])
        order = np.argsort(cols, axis=0, kind="stable")
        med = np.take_along_axis(cols, order, axis=0)[80]
        acc += float(np.max(np.abs(cols[q] - med)))
        for a0, a1 in pairs[4 * q : 4 * q + 4]:
            for b0, b1 in pairs:
                y0, y1 = a0 - b0, a1 - b1
                acc += math.sqrt((y0 * y0 + y0 * y1 + y1 * y1) / 3.0)
    return time.perf_counter() - t0


def _require_checkout_library():
    import fuzzydepth

    if Path(fuzzydepth.__file__).resolve().parent != SRC / "fuzzydepth":
        raise SystemExit(f"fuzzydepth imported from {fuzzydepth.__file__}, not {SRC}")


class Task:
    """One timed unit of work: a depth table or a verify suite."""

    def __init__(self, run, check, key):
        self.run = run  # () -> output; the timed call
        self.check = check  # output -> list of problems
        self.key = key  # output -> text that must repeat exactly


class CliWorkload:
    """The 1-D workloads: ``fuzzydepth depth`` on a generated CSV file."""

    root_span = "cli.main"

    def __init__(self, name, seed, workdir):
        import workloads

        self.w = workloads
        self.seed = seed
        self.workdir = workdir
        if name == "rank_projection_1d":
            self.items = workloads.N_PROJECTION_1D
            self.methods = (["--method", "projection", "--format", "json"],)
        else:
            self.items = workloads.N_METRIC_1D
            self.methods = tuple(m + ["--format", "csv"] for m in workloads.METRIC_1D_METHODS)
        self.cycle = len(self.methods)
        self.rows_parsed = self.items

    def _depth(self, rows, args, filename="table.csv"):
        """Write rows as CSV (untimed) and return the timed CLI call."""
        from fuzzydepth import cli

        path = self.workdir / filename
        path.write_text(self.w.csv_text(rows), encoding="utf-8")
        argv = ["depth", "--input", str(path), *args]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"fuzzydepth {' '.join(argv)} exited {code}")
            return out.getvalue()

        return run

    def task(self, index):
        import checks

        rows = self.w.trapezoid_rows(self.w.table_rng(self.seed, index), self.items)
        args = self.methods[index % self.cycle]
        ids = [row[0] for row in rows]

        def check(text):
            if "json" in args:
                return checks.check_rows(*checks.parse_json_report(text), ids)
            got = checks.parse_csv_report(text)
            problems = checks.check_rows(*got, ids, exact_ranks=False)
            method, r = args[1], args[3]
            if not problems and method in ("natural", "location") and r == "2":
                theta = float(args[5]) if method == "location" else None
                problems = checks.check_oracle(got[1], rows, method, theta, checks.CSV_DEPTH_TOL)
            return problems

        return Task(self._depth(rows, args), check, lambda text: text)

    def extra_checks(self):
        """P1 on a projection table, or the oracles at full JSON precision."""
        import checks

        rows = self.w.trapezoid_rows(self.w.table_rng(self.seed, self.w.CHECK_INDEX), CHECK_N_1D)
        if self.cycle == 1:

            def p1():
                before = checks.parse_json_report(self._depth(rows, self.methods[0])())
                mapped = self._depth(self.w.affine_rows(rows), self.methods[0])
                after = checks.parse_json_report(mapped())
                return checks.check_close(before[1], after[1], checks.EXACT_TOL, "x -> 2x + 3")

            return [("P1 invariance", p1)]

        def oracle(method, theta):
            extra = [] if theta is None else ["--theta", f"{theta:g}"]
            args = ["--method", method, "--r", "2", *extra, "--format", "json"]
            _, depths, _ = checks.parse_json_report(self._depth(rows, args)())
            return checks.check_oracle(depths, rows, method, theta, checks.EXACT_TOL)

        return [
            ("natural r=2 oracle", lambda: oracle("natural", None)),
            ("location r=2 theta=1 oracle", lambda: oracle("location", 1.0)),
        ]


class PlanarWorkload:
    """``depth_table(make_frv(atoms), config=...)`` on zonotope samples."""

    root_span = "bench.table"
    rows_parsed = 0

    def __init__(self, seed):
        import workloads
        from fuzzydepth.fuzzyset import DirectionGrid, uniform_alphas

        self.w = workloads
        self.seed = seed
        self.directions = DirectionGrid.circle(workloads.PLANAR_N_DIR)
        self.alphas = uniform_alphas(workloads.PLANAR_N_ALPHA)
        self.cycle = len(workloads.PLANAR_METHODS)
        self.items = workloads.N_PLANAR

    def atoms(self, centres, generators):
        from fuzzydepth.fuzzyset import grid_zonotope

        return [
            grid_zonotope(c, g, self.directions, self.alphas)
            for c, g in zip(centres, generators)
        ]

    @staticmethod
    def _table(atoms, config):
        from fuzzydepth import depths, empirical

        return depths.depth_table(empirical.make_frv(atoms), config=config)

    def task(self, index):
        import checks
        from fuzzydepth.depths import DepthConfig

        rng = self.w.table_rng(self.seed, index)
        atoms = self.atoms(*self.w.zonotope_specs(rng, self.items))
        config = DepthConfig(**self.w.PLANAR_METHODS[index % self.cycle])
        ids = [f"A{k + 1}" for k in range(len(atoms))]

        def check(report):
            return checks.check_rows(report.ids, report.depths, report.ranks, ids)

        def key(report):
            return repr((report.ids, report.depths, report.ranks))

        return Task(lambda: self._table(atoms, config), check, key)

    def extra_checks(self):
        import checks
        from fuzzydepth.depths import DepthConfig

        def p1():
            rng = self.w.table_rng(self.seed, self.w.CHECK_INDEX)
            centres, generators = self.w.zonotope_specs(rng, CHECK_N_PLANAR)
            config = DepthConfig(method="projection")
            before = self._table(self.atoms(centres, generators), config)
            after = self._table(self.atoms(2.0 * centres + 3.0, 2.0 * generators), config)
            return checks.check_close(
                before.depths, after.depths, checks.EXACT_TOL, "x -> 2x + (3, 3)"
            )

        return [("P1 invariance", p1)]


class VerifyWorkload:
    """``run_suite("all", seed)`` with a fresh seed per suite."""

    root_span = "verification.run_suite"
    rows_parsed = 0
    cycle = 1
    items = VERIFY_CASES

    def __init__(self, seed):
        import workloads

        self.w = workloads
        self.seed = seed
        self.unexpected = 0

    def task(self, index):
        from fuzzydepth import verification

        suite_seed = int(self.w.table_rng(self.seed, index).integers(2**31))

        def check(result):
            rows, ok = result
            unexpected = sum(1 for _, _, matched in rows if not matched)
            self.unexpected += unexpected
            if len(rows) != VERIFY_CASES or unexpected or not ok:
                return [f"{len(rows) - unexpected}/{len(rows)} verdicts as expected"]
            return []

        def key(result):
            rows, _ = result
            lines = verification.format_rows(rows)
            return repr([(line, verdict.to_dict()) for line, (_, verdict, _) in zip(lines, rows)])

        return Task(lambda: verification.run_suite("all", suite_seed), check, key)

    def extra_checks(self):
        return []


def make_workload(name, seed, workdir):
    if name in ("rank_projection_1d", "rank_metric_1d"):
        return CliWorkload(name, seed, workdir)
    if name == "rank_planar":
        return PlanarWorkload(seed)
    return VerifyWorkload(seed)


def probe(name, seed, workdir):
    """Cold start: import the CLI, then parse and build the first sample.

    Input generation sits between the two timed parts and is not counted.
    """
    t0 = time.perf_counter()
    import fuzzydepth.cli  # noqa: F401

    imported = time.perf_counter() - t0
    _require_checkout_library()
    import workloads

    rng = workloads.table_rng(seed, 0)
    if name == "verify_suite":
        from fuzzydepth.verification import build_cases

        t0 = time.perf_counter()
        build_cases()
    elif name == "rank_planar":
        from fuzzydepth.empirical import make_frv

        atoms = PlanarWorkload(seed).atoms(*workloads.zonotope_specs(rng, workloads.N_PLANAR))
        t0 = time.perf_counter()
        make_frv(atoms)
    else:
        from fuzzydepth.dataset import parse_dataset, records_frv

        n = workloads.N_PROJECTION_1D if name == "rank_projection_1d" else workloads.N_METRIC_1D
        path = workdir / "probe.csv"
        path.write_text(workloads.csv_text(workloads.trapezoid_rows(rng, n)), encoding="utf-8")
        t0 = time.perf_counter()
        records_frv(parse_dataset(path.read_text(encoding="utf-8")))
    raw = imported + time.perf_counter() - t0
    ref = sorted(reference_s() for _ in range(3))[1]
    return {"setup_raw_s": raw, "setup_s": raw * REFERENCE_NOMINAL_S / ref}


def _timed(run, tracer=None, root=None):
    t0 = time.perf_counter()
    output = run() if tracer is None else tracer.span(root, run)
    return output, time.perf_counter() - t0


def measure(name, seed, seconds, trace, workdir):
    """Run whole method cycles until ``seconds`` of timed work are done.

    An untimed warm-up runs the first task once, and its timed run must give
    the identical output.  Untraced, each task runs once, between two runs
    of the reference kernel.  Traced, each task runs untraced and then traced
    on the same input; both outputs must match exactly, and the time ratio
    gives the tracing overhead.  The workload's extra checks run last,
    untimed.
    """
    _require_checkout_library()
    workload = make_workload(name, seed, workdir)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    times, traced_times, problems = [], [], []
    first_key = None
    try:
        warm_up = workload.task(0)
        first_key = warm_up.key(warm_up.run())
    except Exception:
        traceback.print_exc()
    refs = [] if tracer else [reference_s()]
    index = 0
    while index % workload.cycle or sum(times) < seconds:
        try:
            task = workload.task(index)
            output, elapsed = _timed(task.run)
            found = task.check(output)
            if tracer is not None:
                tracer.install()
                try:
                    traced, traced_elapsed = _timed(task.run, tracer, workload.root_span)
                finally:
                    tracer.uninstall()
                traced_times.append(traced_elapsed)
                if task.key(traced) != task.key(output):
                    found.append("traced output differs from the untraced output")
            if index == 0 and task.key(output) != first_key:
                found.append("output differs from the warm-up run of the same input")
        except Exception:
            traceback.print_exc()
            found, elapsed = ["raised"], 0.0
        times.append(elapsed)
        problems.append([f"task {index}: {p}" for p in found])
        if tracer is None:
            refs.append(reference_s())
        index += 1

    for label, check in workload.extra_checks():
        try:
            found = check()
        except Exception:
            traceback.print_exc()
            found = ["raised"]
        problems.append([f"{label}: {p}" for p in found])

    result = {
        "attempted": len(problems),
        "failed": sum(1 for found in problems if found),
        "problems": [p for found in problems for p in found],
        "times": times,
        # Each task scaled by the mean of the references run just before and after it.
        "scaled_times": [
            t * 2.0 * REFERENCE_NOMINAL_S / (before + after)
            for t, before, after in zip(times, refs, refs[1:])
        ],
        "reference_s": sorted(refs)[len(refs) // 2] if refs else None,
        "items": workload.items,
        "cycle": workload.cycle,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, workload, sum(times), traced_times)
        (workdir / f"trace-{name}-{seed}.json").write_text(
            json.dumps({"spans": tracer.span_log()}), encoding="utf-8"
        )
    return result


_TIMED_LAYERS = (
    "empirical.expectation",
    "empirical.make_frv",
    "fuzzyset.merge_alphas",
    "fuzzyset.endpoints",
    "fuzzyset.resample",
    "fuzzyset.matrix_transform",
    "metrics.rho_r",
    "metrics.d_r_theta",
    "metrics.d_r",
    "axioms.p1",
    "axioms.p1_star",
    "axioms.p2",
    "axioms.p3a",
    "axioms.p3b",
    "axioms.p4a",
    "axioms.p4b",
)


def layer_metrics(tracer, workload, untraced_s, traced_times):
    """Per-layer metrics as (value, unit), means over the traced tasks.

    ``<layer>_s`` is inclusive seconds per task, ``self_s`` excludes traced
    children, ``.calls`` and other counts are per task.  ``metrics.pair_us``
    and ``metrics.segments`` are per metric call, ``fuzzyset.grid_cells`` per
    projection query, ``depths.queries_per_fit`` per sample built.
    """
    calls, inc, own, tallies = tracer.calls, tracer.inclusive_s, tracer.self_s, tracer.tallies
    tasks = len(traced_times)

    def per_task(value):
        return value / tasks if tasks else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = ("metrics.rho_r", "metrics.d_r_theta", "metrics.d_r")
    metric_calls = sum(calls[m] for m in metrics)
    queries = calls["depths.query"] + calls["axioms.depth"]
    out = {
        "cli.self_s": (per_task(own["cli.main"]), "s"),
        "dataset.parse_s": (per_task(inc["dataset.parse"]), "s"),
        "dataset.build_s": (per_task(inc["dataset.build"]), "s"),
        "dataset.rows": (float(workload.rows_parsed), "count"),
        "depths.table_s": (per_task(inc["depths.table"]), "s"),
        "depths.self_s": (per_task(own["depths.table"]), "s"),
        "depths.queries": (per_task(queries), "count"),
        "depths.queries_per_fit": (ratio(queries, calls["empirical.sample"]), "count"),
        "depths.outlyingness_s": (per_task(inc["depths.outlyingness"]), "s"),
        "depths.outlyingness.calls": (per_task(calls["depths.outlyingness"]), "count"),
        "depths.rank_s": (per_task(inc["depths.rank"]), "s"),
        "metrics.pair_us": (1e6 * ratio(sum(inc[m] for m in metrics), metric_calls), "us"),
        "metrics.segments": (ratio(tallies["metrics.segments"], metric_calls), "count"),
        "fuzzyset.grid_cells": (
            ratio(tallies["fuzzyset.grid_cells"], calls["depths.outlyingness"]),
            "count",
        ),
        "report.emit_s": (per_task(inc["report.emit"]), "s"),
        "axioms.depth_calls": (per_task(calls["axioms.depth"]), "count"),
        "verification.build_cases_s": (per_task(inc["verification.build_cases"]), "s"),
        "verification.unexpected": (per_task(getattr(workload, "unexpected", 0)), "count"),
        "trace.overhead": (ratio(untraced_s, sum(traced_times)), "ratio"),
    }
    for layer in _TIMED_LAYERS:
        out[f"{layer}_s"] = (per_task(inc[layer]), "s")
        out[f"{layer}.calls"] = (per_task(calls[layer]), "count")
    return out


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "probe":
        result = probe(name, seed, Path(argv[3]))
    else:
        seconds, trace, workdir = float(argv[3]), argv[4] == "1", Path(argv[5])
        result = measure(name, seed, seconds, trace, workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
