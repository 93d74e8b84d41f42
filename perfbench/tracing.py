"""Spans and counts around the calls into each delaysched layer.

A :class:`Tracer` replaces each probed public function with a timing wrapper
at every module attribute of the package that holds it, so the package's own
``run_pipeline`` resolves the wrappers at its usual call sites and nothing in
the package changes.  Spans (name, start, end, parent, instance) stay in
memory until :meth:`Tracer.write_spans`.  Counts are read from the wrapped
calls' public return values, and only while ``counting`` is set.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _count_model(counts, args, kwargs, model):
    counts["lp.vars"] += model.n_vars
    counts["lp.rows"] += len(model.rows)
    counts["lp.nnz"] += sum(len(coeffs) for _, coeffs, _, _ in model.rows)


def _count_solution(counts, args, kwargs, sol):
    counts["lp.not_optimal"] += sol.status != "optimal"


def _count_validation(counts, args, kwargs, report):
    counts["instance.validate_instance.calls"] += 1


def _count_pairs(counts, args, kwargs, closure):
    # every call within one instance sees the same DAG: count the first
    if "instance.pairs" not in counts:
        counts["instance.pairs"] = sum(len(p) for p in closure.values())


def _count_filter(counts, args, kwargs, result):
    counts["preprocess.removed"] += len(result.removed_ids)


def _count_assignment(counts, args, kwargs, assignment):
    counts["grouping.groups"] += len(assignment.groups)
    counts["grouping.max_band"] += max(assignment.bands.values(), default=1)


def _scheduler_trace(args, kwargs):
    # clock events are the 'sweep' entries of the trace= list; supply a list
    # when the caller passed none
    if len(args) <= 3 and kwargs.get("trace") is None:
        kwargs = {**kwargs, "trace": []}
    return kwargs


def _count_schedule(counts, args, kwargs, sched):
    counts["scheduler.placements"] += len(sched.placements)
    counts["scheduler.jobs"] += args[0].n
    trace = args[3] if len(args) > 3 else kwargs["trace"]
    counts["scheduler.clock_events"] += sum(1 for e in trace or () if e.get("event") == "sweep")


def _count_analysis(counts, args, kwargs, report):
    counts["schedmodel.phases"] += len(report.phase_labels)


@dataclass(frozen=True)
class Probe:
    module: str  # delaysched submodule that defines the function
    func: str
    count: Callable | None = None  # (counts, args, kwargs, result) -> None
    prepare: Callable | None = None  # (args, kwargs) -> kwargs passed on


PROBES = (
    Probe("instance", "validate_instance", _count_validation),
    Probe("instance", "transitive_predecessors", _count_pairs),
    Probe("instance", "normalize_instance"),
    Probe("preprocess", "filter_slow_machines", _count_filter),
    Probe("lp", "build_relaxation", _count_model),
    Probe("lp", "solve_lp", _count_solution),
    Probe("grouping", "partition_machine_groups"),
    Probe("grouping", "assign_job_groups", _count_assignment),
    Probe("scheduler", "run_group_scheduler", _count_schedule, _scheduler_trace),
    Probe("schedmodel", "validate_schedule"),
    Probe("schedmodel", "lemma_diagnostics", _count_analysis),
    Probe("oracle", "exact_optimal_makespan"),
    Probe("cli", "run_pipeline"),
)

SPAN_NAMES = tuple(f"{p.module}.{p.func}" for p in PROBES)


class Tracer:
    """Wrappers for every probe; :meth:`install` and :meth:`uninstall` swap them in and out.

    Build it after the package is imported: the wrappers are bound to the
    module attributes that exist at that point.
    """

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, instance)
        self.instance = None
        self.counting = False
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._instance_counts: Counter = Counter()
        self._patches: list = []  # (module, attribute, original, wrapper)
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "delaysched" or key.startswith("delaysched."))
        ]
        for probe in PROBES:
            fn = getattr(sys.modules[f"delaysched.{probe.module}"], probe.func)
            wrapper = self._wrap(probe, fn)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        self._patches.append((mod, attr, fn, wrapper))

    def _wrap(self, probe: Probe, fn):
        name = f"{probe.module}.{probe.func}"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if probe.prepare is not None:
                kwargs = probe.prepare(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            if self.counting and probe.count is not None:
                probe.count(self._instance_counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Point every package attribute bound to a probed function at its wrapper."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def begin_instance(self, k: int, counting: bool):
        self.instance = k
        self.counting = counting
        self._instance_counts = Counter()

    def end_instance(self):
        self.counts.update(self._instance_counts)
        self._instance_counts = Counter()
        self.counting = False

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
