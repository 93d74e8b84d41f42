"""Pipeline benchmark for delaysched: a closed loop with one instance in flight.

    python3 perfbench/run.py --workload lp_heavy --seed 1 --seconds 30 --trace 0

Run from anywhere inside a delaysched checkout; the package is imported from
the checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer ones.  Every output is checked; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is nonzero when any check
failed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "delaysched" / "__init__.py").is_file():
    sys.exit(f"error: no delaysched package at {SRC / 'delaysched'}")
sys.path.insert(0, str(SRC))

import delaysched  # noqa: E402
from delaysched import schedmodel  # noqa: E402

from tracing import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WARMUP_ARGS, WORKLOADS, Workload  # noqa: E402

if Path(delaysched.__file__).resolve().parent != (SRC / "delaysched").resolve():
    sys.exit(f"error: delaysched was imported from {delaysched.__file__}, not {SRC}")

SETUP_REPEATS = 5
CHECK_TOL = 1e-6
SPAN_DIR = HERE / "out"
# printed, but not a BENCHMARK.json metric: its self time is 0 on every
# workload without the oracle
ORACLE_SPAN = "oracle.exact_optimal_makespan"

# Cold start as a CLI call pays it: a fresh interpreter imports the package
# and runs the pipeline once on the warm-up instance.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import delaysched
t1 = time.perf_counter()
inst = delaysched.gen_random_dag(*json.loads(sys.argv[2]))
t2 = time.perf_counter()
delaysched.run_pipeline(inst)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_run_s": t3 - t2}))
"""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    times: list[float] = field(default_factory=list)  # seconds per passing instance
    ratio_lp: list[float] = field(default_factory=list)  # over the quality prefix
    ratio_opt: list[float] = field(default_factory=list)
    plain_s: float = 0.0  # traced runs: untraced and traced time of the same instances
    traced_s: float = 0.0

    def fail(self, workload: Workload, seed: int, k: int, why: str):
        self.failed += 1
        sys.stderr.write(f"FAILED {workload.name} seed={seed} instance={k}: {why}\n")


def measure_setup() -> list[dict]:
    """Cold starts in fresh interpreters, after one untimed start that compiles bytecode."""
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(WARMUP_ARGS)]
    samples = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if k:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def stream(workload: Workload, seed: int, seconds: float, minimum: int):
    """Instances k = 0, 1, ... until ``seconds`` have passed and ``minimum`` were given."""
    start = time.perf_counter()
    k = 0
    while k < minimum or time.perf_counter() - start < seconds:
        yield k, workload.instance(seed, k)
        k += 1


def solve(workload: Workload, inst, tracer: Tracer | None = None):
    """One closed-loop request: the pipeline, plus the exact optimum on oracle
    workloads.  Returns ((result, opt), seconds)."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        result = delaysched.run_pipeline(inst)
        opt = delaysched.exact_optimal_makespan(inst, True) if workload.oracle else None
        return (result, opt), time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


def check(inst, result, opt) -> list[str]:
    """Problems with one instance's outputs; empty when every check passes."""
    problems = []
    report = schedmodel.validate_schedule(result.filtered, result.schedule)
    if not report.valid:
        problems.append("schedule invalid: " + "; ".join(report.violations[:2]))
    # any valid schedule embeds as an LP point of twice its makespan
    ms_norm = result.report.makespan
    if result.lp_objective > 2 * ms_norm + CHECK_TOL * max(1.0, ms_norm):
        problems.append(f"LP objective {result.lp_objective} above twice the makespan {ms_norm}")
    if opt is not None:
        value, witness = opt
        wreport = schedmodel.validate_schedule(inst, witness)
        if not wreport.valid or abs(wreport.makespan - value) > CHECK_TOL * max(1.0, value):
            problems.append("oracle witness invalid or off its stated makespan")
        if result.makespan < value - CHECK_TOL:
            problems.append(f"makespan {result.makespan} below the exact optimum {value}")
    return problems


def same_outputs(a, b) -> list[str]:
    (ra, opt_a), (rb, opt_b) = a, b
    same = (
        ra.schedule == rb.schedule
        and ra.makespan == rb.makespan
        and ra.report.makespan == rb.report.makespan
        and ra.lp_objective == rb.lp_objective
        and (opt_a is None or opt_a[0] == opt_b[0])
    )
    return [] if same else ["traced run differs from the untraced run"]


def run_untraced(workload: Workload, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    for k, inst in stream(workload, seed, seconds, workload.quality_prefix):
        out.attempted += 1
        try:
            (result, opt), elapsed = solve(workload, inst)
        except Exception as exc:  # a raising instance counts as failed; keep measuring
            out.fail(workload, seed, k, traceback.format_exc() if out.failed < 3 else repr(exc))
            continue
        problems = check(inst, result, opt)
        if problems:
            out.fail(workload, seed, k, "; ".join(problems))
            continue
        out.times.append(elapsed)
        if k < workload.quality_prefix:
            out.ratio_lp.append(result.report.makespan / result.lp_objective)
            if opt is not None:
                out.ratio_opt.append(result.makespan / opt[0])
    return out


def run_traced(workload: Workload, seed: int, seconds: float, tracer: Tracer) -> Outcome:
    """Each instance runs untraced and traced, alternating which goes first."""
    out = Outcome()
    for k, inst in stream(workload, seed, seconds, workload.count_prefix):
        out.attempted += 1
        tracer.begin_instance(k, counting=k < workload.count_prefix)
        try:
            if k % 2 == 0:
                plain, plain_s = solve(workload, inst)
                traced, traced_s = solve(workload, inst, tracer)
            else:
                traced, traced_s = solve(workload, inst, tracer)
                plain, plain_s = solve(workload, inst)
        except Exception as exc:  # a raising instance counts as failed; keep measuring
            out.fail(workload, seed, k, traceback.format_exc() if out.failed < 3 else repr(exc))
            continue
        finally:
            tracer.end_instance()
        problems = check(inst, *plain) + same_outputs(plain, traced)
        if problems:
            out.fail(workload, seed, k, "; ".join(problems))
            continue
        out.plain_s += plain_s
        out.traced_s += traced_s
    return out


def percentile(times: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(times)
    return xs[max(math.ceil(pct / 100.0 * len(xs)) - 1, 0)]


def geomean(xs: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def end_to_end(workload: Workload, out: Outcome, setup: list[dict]) -> tuple[dict, list[str]]:
    """Metrics as {name: (value, unit)}, and lines that explain them."""
    setup_s = [s["import_s"] + s["first_run_s"] for s in setup]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "inst_per_s": (len(out.times) / sum(out.times), "1/s"),
        "inst_s_p50": (statistics.median(out.times), "s"),
        "inst_s_tail": (percentile(out.times, workload.tail_pct), "s"),
        "makespan_over_lp": (geomean(out.ratio_lp), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} cold starts; import median "
        f"{statistics.median(s['import_s'] for s in setup):.4f} s, first run median "
        f"{statistics.median(s['first_run_s'] for s in setup):.4f} s",
        f"inst_s_tail: p{workload.tail_pct:g} of {len(out.times)} instances, "
        f"{len(out.times) - math.ceil(workload.tail_pct / 100.0 * len(out.times))} beyond it",
        f"makespan_over_lp: geometric mean over the first {len(out.ratio_lp)} instances",
        f"fail_frac: {out.failed / out.attempted} ratio ({out.failed} of {out.attempted})",
    ]
    if out.ratio_opt:
        notes.append(
            f"makespan_over_opt: {geomean(out.ratio_opt)} ratio "
            f"(geometric mean over the first {len(out.ratio_opt)} instances)"
        )
    return metrics, notes


def per_layer(workload: Workload, out: Outcome, tracer: Tracer) -> tuple[dict, list[str]]:
    selfs = tracer.self_times()
    c = tracer.counts
    metrics = {f"{name}.s": (selfs[name], "s") for name in SPAN_NAMES if name != ORACLE_SPAN}
    for name in (
        "lp.vars", "lp.rows", "lp.nnz", "lp.not_optimal", "instance.pairs",
        "instance.validate_instance.calls", "preprocess.removed", "grouping.groups",
        "grouping.max_band", "scheduler.placements", "scheduler.clock_events",
        "schedmodel.phases",
    ):
        metrics[name] = (c[name], "count")
    metrics["scheduler.copies_per_job"] = (
        c["scheduler.placements"] / c["scheduler.jobs"] if c["scheduler.jobs"] else 0.0, "ratio"
    )
    metrics["bench.trace_overhead_frac"] = (
        out.traced_s / out.plain_s - 1 if out.plain_s else 0.0, "ratio"
    )
    total = sum(selfs.values())
    notes = [f"{ORACLE_SPAN}.s: {selfs[ORACLE_SPAN]} s"]
    notes += [
        f"self time {name}: {t:.4f} s ({100 * t / total:.1f}%)"
        for name, t in sorted(selfs.items(), key=lambda kv: -kv[1])
        if total and t
    ]
    notes.append(f"counts are totals over the first {workload.count_prefix} instances")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup = measure_setup() if not args.trace else []
    delaysched.run_pipeline(delaysched.gen_random_dag(*WARMUP_ARGS))  # lazy imports
    if args.trace:
        tracer = Tracer()
        out = run_traced(workload, args.seed, args.seconds, tracer)
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write_spans(span_path)
        metrics, notes = per_layer(workload, out, tracer)
        notes.append(f"spans: {span_path}")
    else:
        out = run_untraced(workload, args.seed, args.seconds)
        # no metrics when every instance of the quality prefix failed
        metrics, notes = end_to_end(workload, out, setup) if out.ratio_lp else ({}, [])

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    for line in notes:
        print(line)
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
