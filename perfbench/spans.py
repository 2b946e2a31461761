"""Span tracer for the traced benchmark run.

The tracer wraps public library names at the sites the library itself looks
them up (for example ``fuzzydepth.depths.metric_rho_r``, which is the name
``natural_depth`` calls), so no library file changes.  Each wrapped call is
a span with a name, start, end and parent; the tracer keeps per-name call
counts, inclusive time and self time (duration minus the traced children),
and keeps the spans of the top ``SPAN_LOG_DEPTH`` levels in memory for the
trace file.  A target that a later refactor removes is skipped, and its
metrics read zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# Spans nested deeper than this are aggregated but not logged one by one:
# the per-pair metric spans alone run to 10^5 per table.
SPAN_LOG_DEPTH = 1

# (module, attribute, span name).  A dotted attribute names a method.
SPAN_TARGETS = (
    ("fuzzydepth.cli", "parse_dataset", "dataset.parse"),
    ("fuzzydepth.cli", "records_frv", "dataset.build"),
    ("fuzzydepth.cli", "depth_table", "depths.table"),
    ("fuzzydepth.depths", "depth_table", "depths.table"),
    ("fuzzydepth.cli", "emit_report", "report.emit"),
    ("fuzzydepth.cli", "format_table", "report.emit"),
    ("fuzzydepth.depths", "outlyingness", "depths.outlyingness"),
    ("fuzzydepth.depths", "rankdata", "depths.rank"),
    ("fuzzydepth.dataset", "make_frv", "empirical.make_frv"),
    ("fuzzydepth.empirical", "make_frv", "empirical.make_frv"),
    ("fuzzydepth.verification", "make_frv", "empirical.make_frv"),
    ("fuzzydepth.empirical", "EmpiricalFRV.expectation", "empirical.expectation"),
    ("fuzzydepth.depths", "merge_alphas", "fuzzyset.merge_alphas"),
    ("fuzzydepth.metrics", "merge_alphas", "fuzzyset.merge_alphas"),
    ("fuzzydepth.empirical", "merge_alphas", "fuzzyset.merge_alphas"),
    ("fuzzydepth.fuzzyset", "merge_alphas", "fuzzyset.merge_alphas"),
    ("fuzzydepth.fuzzyset", "LevelFuzzySet.endpoints", "fuzzyset.endpoints"),
    ("fuzzydepth.fuzzyset", "LevelFuzzySet.support_on", "fuzzyset.endpoints"),
    ("fuzzydepth.fuzzyset", "LevelFuzzySet.resample", "fuzzyset.resample"),
    ("fuzzydepth.fuzzyset", "GridFuzzySet.resample", "fuzzyset.resample"),
    ("fuzzydepth.axioms", "matrix_transform", "fuzzyset.matrix_transform"),
    ("fuzzydepth.depths", "metric_rho_r", "metrics.rho_r"),
    ("fuzzydepth.metrics", "metric_rho_r", "metrics.rho_r"),
    ("fuzzydepth.depths", "metric_d_r_theta", "metrics.d_r_theta"),
    ("fuzzydepth.metrics", "metric_d_r_theta", "metrics.d_r_theta"),
    ("fuzzydepth.metrics", "metric_d_r", "metrics.d_r"),
    ("fuzzydepth.verification", "check_p1", "axioms.p1"),
    ("fuzzydepth.verification", "check_p1_star", "axioms.p1_star"),
    ("fuzzydepth.verification", "check_p2", "axioms.p2"),
    ("fuzzydepth.verification", "check_p3a", "axioms.p3a"),
    ("fuzzydepth.verification", "check_p3b", "axioms.p3b"),
    ("fuzzydepth.verification", "search_p3b_violation", "axioms.p3b"),
    ("fuzzydepth.verification", "check_p4a", "axioms.p4a"),
    ("fuzzydepth.verification", "check_p4b", "axioms.p4b"),
    ("fuzzydepth.verification", "build_cases", "verification.build_cases"),
)

_DEPTH_FUNCTIONS = (
    "projection_depth",
    "natural_depth",
    "natural_raised_depth",
    "location_depth",
    "location_raised_depth",
)

# (module, attribute, counter name): calls counted without a span.  Depth
# evaluations are counted where ``DepthConfig`` (depths) and the verify cases
# (verification) look the depth functions up.
COUNT_TARGETS = (
    *(("fuzzydepth.depths", name, "depths.query") for name in _DEPTH_FUNCTIONS),
    *(("fuzzydepth.verification", name, "axioms.depth") for name in _DEPTH_FUNCTIONS),
    ("fuzzydepth.empirical", "EmpiricalFRV.__init__", "empirical.sample"),
)


def _merged_segments(a, b, *_, **__):
    """Alpha segments a metric integrates for the pair (a, b)."""
    if a.dim == 1:
        return len(np.union1d(a.alphas, b.alphas)) - 1
    return len(a.alphas) - 1


def _grid_cells(a, x, n_alpha=100, *_, **__):
    """Support values compared for one projection query (100: the default grid)."""
    if a.dim == 1:
        grids = [np.linspace(0.0, 1.0, n_alpha + 1), a.alphas]
        grids.extend(atom.alphas for atom in x.atoms)
        return len(np.unique(np.concatenate(grids))) * 2 * x.size
    return len(a.alphas) * a.directions.size * x.size


# Figures computed from a call's arguments: span name -> (tally name, function).
_TALLIES = {
    "metrics.rho_r": ("metrics.segments", _merged_segments),
    "metrics.d_r_theta": ("metrics.segments", _merged_segments),
    "metrics.d_r": ("metrics.segments", _merged_segments),
    "depths.outlyingness": ("fuzzyset.grid_cells", _grid_cells),
}


class Tracer:
    """Span stack plus per-name totals; install() wraps, uninstall() restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.tallies = defaultdict(float)
        self.spans = []
        self._stack = []
        self._open = defaultdict(int)
        self._saved = []

    def enter(self, name):
        self.calls[name] += 1
        self._open[name] += 1
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self._stack) <= SPAN_LOG_DEPTH:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, index = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self._open[name] -= 1
        if self._open[name] == 0:
            self.inclusive_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1:3] = [start, end]

    def charge_to_tracer(self, seconds):
        """Keep time the tracer spent on its own figures out of self times."""
        if self._stack:
            self._stack[-1][2] += seconds

    def span(self, name, fn, *args, **kwargs):
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def _span_wrapper(self, name, fn):
        tally = _TALLIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)
                if tally is not None:
                    t0 = time.perf_counter()
                    self.tallies[tally[0]] += tally[1](*args, **kwargs)
                    self.charge_to_tracer(time.perf_counter() - t0)

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target that exists; missing ones are skipped."""
        for targets, make in (
            (SPAN_TARGETS, self._span_wrapper),
            (COUNT_TARGETS, self._count_wrapper),
        ):
            for module_name, attr, name in targets:
                owner, leaf = _resolve(module_name, attr)
                if owner is None:
                    continue
                original = owner.__dict__[leaf]
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, make(name, original))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def span_log(self):
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _resolve(module_name, attr):
    """(object holding the attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if leaf not in getattr(owner, "__dict__", {}):
        return None, None
    return owner, leaf
