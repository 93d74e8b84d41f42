"""Command-line entry point and the end-to-end pipeline.

Pipeline stages: validate, normalize, drop slow machines, solve the
relaxation, round to a group assignment, run the duplication scheduler, then
validate and analyze the result.  All stage artifacts can be persisted, and a
fixed (instance, config) pair reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import grouping, lp, preprocess, schedmodel, scheduler
from .instance import (
    Instance,
    _derive,
    gen_binary_tree,
    gen_layered_gap,
    gen_random_dag,
    instance_from_json,
    instance_to_json,
    normalize_instance,
)
from .schedmodel import Schedule, schedule_from_json, schedule_to_json


@dataclass(frozen=True)
class PipelineConfig:
    eta: float | None = None
    skip_preprocess: bool = False
    emit_trace: bool = False


@dataclass
class PipelineResult:
    schedule: Schedule  # original time units, filtered machine set
    report: schedmodel.AnalysisReport  # normalized-space diagnostics
    makespan: float  # original time units
    lp_objective: float
    assignment: grouping.GroupAssignment
    filtered: Instance
    eta: float
    removed_machines: tuple[str, ...]
    trace: list | None = None

    def report_json(self) -> str:
        doc = json.loads(self.report.to_json())
        doc["makespan_original_units"] = self.makespan
        doc["lp_objective"] = self.lp_objective
        doc["eta"] = self.eta
        doc["removed_machines"] = list(self.removed_machines)
        return json.dumps(doc, indent=2, sort_keys=True)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(name: str, errors=ValueError):
    """Re-raise ``errors`` from the enclosed stage as ``PipelineError(name, ...)``."""
    try:
        yield
    except errors as exc:
        raise PipelineError(name, str(exc)) from exc


def _require_valid(inst: Instance) -> Instance:
    """``inst`` itself, or ``PipelineError("validate", ...)`` listing every violation."""
    report = inst._report
    if not report.ok:
        raise PipelineError("validate", "; ".join(report.violations))
    return inst


def _solve_relaxation(inst: Instance) -> lp.LpSolution:
    """``lp.solve_relaxation(inst)``, with a ``ValueError`` from it or a
    solution that is not optimal raised as ``PipelineError("lp", ...)``."""
    with _stage("lp"):
        sol = lp.solve_relaxation(inst)
    if sol.status != "optimal":
        raise PipelineError("lp", f"solver returned {sol.status}")
    return sol


def run_pipeline(inst: Instance, config: PipelineConfig | None = None) -> PipelineResult:
    config = config or PipelineConfig()
    _require_valid(inst)

    norm, scale = normalize_instance(inst)
    removed: tuple[str, ...] = ()
    if config.skip_preprocess:
        work = norm
    else:
        with _stage("preprocess"):
            filtered = preprocess.filter_slow_machines(norm)
        work = filtered.filtered
        removed = filtered.removed_ids

    sol = _solve_relaxation(work)

    assignment = grouping.assign_job_groups(work, sol)

    trace: list | None = [] if config.emit_trace else None
    with _stage("schedule", (ValueError, scheduler.SchedulerInvariantError)):
        eta = scheduler.resolve_eta(config.eta, work.rho)
        sched_norm = scheduler.run_group_scheduler(work, assignment, eta, trace=trace)

    sreport = schedmodel.validate_schedule(work, sched_norm)
    if not sreport.valid:
        raise PipelineError("schedule", "; ".join(sreport.violations[:3]))
    with _stage("diagnostics", (schedmodel.LemmaViolation, ValueError)):
        analysis = schedmodel.lemma_diagnostics(work, sol, assignment, sched_norm, eta=eta)

    out_sched = Schedule(
        tuple(
            schedmodel.Placement(p.job, p.machine, scale.time_to_original(p.start))
            for p in sched_norm.placements
        )
    )
    kept = tuple(mc for mc in inst.machines if mc.id not in removed)
    orig_filtered = _derive(inst, machines=kept)
    return PipelineResult(
        schedule=out_sched,
        report=analysis,
        makespan=schedmodel.makespan(orig_filtered, out_sched),
        lp_objective=sol.objective,
        assignment=assignment,
        filtered=orig_filtered,
        eta=eta,
        removed_machines=removed,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, validation failures 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _read_instance(path: str) -> Instance:
    """The validated instance at ``path``; every command reads its input here."""
    with open(path, "r", encoding="utf-8") as fh:
        return _require_valid(instance_from_json(fh.read()))


def _read_schedule(path: str) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_json(fh.read())


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _sweep_pairs(text: str) -> list[tuple[int, int]]:
    """The ``L,d`` pairs of a semicolon list, all parsed before any is run."""
    pairs = []
    for part in text.split(";"):
        try:
            L, d = (int(x) for x in part.split(","))
        except ValueError:
            raise ValueError(f"--sweep entry {part!r} is not an L,d pair of integers") from None
        pairs.append((L, d))
    return pairs


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DELAYSCHED_SEED")
    return int(env) if env else 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="delaysched", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("--kind", choices=["random", "layered", "tree"], required=True)
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--edge-prob", type=float, default=0.3)
    g.add_argument("--size-range", type=float, nargs=2, default=[1.0, 4.0])
    g.add_argument("--speed-range", type=float, nargs=2, default=[0.5, 1.0])
    g.add_argument("--rho", type=float, default=4.0)
    g.add_argument("--layers", type=int, default=2)
    g.add_argument("--degree", type=int, default=2)
    g.add_argument("--rho-exp", type=int, default=3)
    g.add_argument("--seed", type=int)
    g.add_argument("--output")

    pp = sub.add_parser("preprocess", help="drop sub-threshold machines")
    pp.add_argument("--input", required=True)
    pp.add_argument("--output")

    sv = sub.add_parser("solve", help="build and solve a relaxation")
    sv.add_argument("--input", required=True)
    sv.add_argument(
        "--relaxation",
        choices=["main", "same_machine", "time_indexed", "same_phase"],
        default="main",
    )
    sv.add_argument("--horizon", type=int, help="time-indexed horizon override")
    sv.add_argument("--export-lp", help="also write the model in LP text format")
    sv.add_argument("--output")

    sc = sub.add_parser("schedule", help="run the full pipeline")
    sc.add_argument("--input", required=True)
    sc.add_argument("--output", help="schedule JSON path")
    sc.add_argument("--report", help="analysis report JSON path")
    sc.add_argument("--eta", type=float)
    sc.add_argument("--skip-preprocess", action="store_true")
    sc.add_argument("--trace", help="JSONL trace path")
    sc.add_argument("--gantt", help="Gantt rows JSON path")

    va = sub.add_parser("validate", help="validate a schedule against an instance")
    va.add_argument("--input", required=True)
    va.add_argument("--schedule", required=True)

    an = sub.add_parser("analyze", help="analyze a schedule (report-only checks)")
    an.add_argument("--input", required=True)
    an.add_argument("--schedule", required=True)
    an.add_argument("--eta", type=float)
    an.add_argument("--output")
    an.add_argument("--gantt")

    dd = sub.add_parser("dedup", help="remove duplication from a schedule")
    dd.add_argument("--input", required=True)
    dd.add_argument("--schedule", required=True)
    dd.add_argument("--output")
    dd.add_argument("--stats")

    orc = sub.add_parser("oracle", help="exact optimum for tiny instances")
    orc.add_argument("--input", required=True)
    orc.add_argument("--allow-dup", action="store_true")
    orc.add_argument("--max-jobs", type=int)
    orc.add_argument("--max-machines", type=int)
    orc.add_argument("--time-budget", type=float)
    orc.add_argument("--output")

    gp = sub.add_parser("gap", help="relaxation-gap report")
    gp.add_argument("--input")
    gp.add_argument("--layers", type=int)
    gp.add_argument("--degree", type=int)
    gp.add_argument("--seed", type=int)
    gp.add_argument("--eta", type=float)
    gp.add_argument("--output")
    gp.add_argument("--sweep", help="semicolon list of L,d pairs for a CSV sweep")
    gp.add_argument("--csv", help="CSV output path for --sweep")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, PipelineError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "gen":
        seed = _seed(args)
        if args.kind == "random":
            inst = gen_random_dag(
                args.n, args.m, args.edge_prob, tuple(args.size_range),
                tuple(args.speed_range), args.rho, seed,
            )
        elif args.kind == "layered":
            inst = gen_layered_gap(args.layers, args.degree, seed)
        else:
            inst = gen_binary_tree(args.rho_exp)
        _write(instance_to_json(_require_valid(inst)), args.output)
        return 0

    if cmd == "preprocess":
        inst = _read_instance(args.input)
        result = preprocess.filter_slow_machines(inst)
        _write(instance_to_json(result.filtered), args.output)
        return 0

    if cmd == "solve":
        inst = _read_instance(args.input)
        norm, scale = normalize_instance(inst)
        if args.relaxation == "main":
            # the export writes the full model; the solve separates rows (4) as cuts
            if args.export_lp:
                _write(lp.export_lp_text(lp.build_relaxation(norm)), args.export_lp)
            sol = lp.solve_relaxation(norm)
        else:
            from .gaplab import build_alternate_relaxation

            model = build_alternate_relaxation(norm, args.relaxation, args.horizon)
            if args.export_lp:
                _write(lp.export_lp_text(model), args.export_lp)
            sol = lp.solve_lp(model)
        optimal = sol.status == "optimal"  # else the objective is no bound: write null
        doc = {
            "relaxation": args.relaxation,
            "status": sol.status,
            "objective_normalized": sol.objective if optimal else None,
            "objective_original_units": scale.time_to_original(sol.objective) if optimal else None,
        }
        _write(json.dumps(doc, indent=2, sort_keys=True), args.output)
        return 0 if optimal else 2

    if cmd == "schedule":
        inst = _read_instance(args.input)
        config = PipelineConfig(
            eta=args.eta,
            skip_preprocess=args.skip_preprocess,
            emit_trace=bool(args.trace),
        )
        result = run_pipeline(inst, config)
        _write(schedule_to_json(result.schedule), args.output)
        if args.report:
            _write(result.report_json(), args.report)
        if args.trace and result.trace is not None:
            _write("\n".join(json.dumps(e, sort_keys=True) for e in result.trace), args.trace)
        if args.gantt:
            rows = schedmodel.gantt_rows(result.filtered, result.schedule)
            _write(json.dumps(rows, indent=2, sort_keys=True), args.gantt)
        return 0

    if cmd == "validate":
        inst = _read_instance(args.input)
        sched = _read_schedule(args.schedule)
        rep = schedmodel.validate_schedule(inst, sched)
        doc = {"valid": rep.valid, "makespan": rep.makespan, "violations": list(rep.violations)}
        _write(json.dumps(doc, indent=2, sort_keys=True), None)
        return 0 if rep.valid else 2

    if cmd == "analyze":
        inst = _read_instance(args.input)
        sched = _read_schedule(args.schedule)
        rep = schedmodel.validate_schedule(inst, sched)
        if not rep.valid:
            sys.stderr.write("error: schedule invalid; run validate for details\n")
            return 2
        norm, scale = normalize_instance(inst)
        eta = scheduler.resolve_eta(args.eta, norm.rho)  # before the solve
        norm_sched = Schedule(
            tuple(
                schedmodel.Placement(p.job, p.machine, scale.time_to_normalized(p.start))
                for p in sched.placements
            )
        )
        sol = _solve_relaxation(norm)
        assignment = grouping.assign_job_groups(norm, sol)
        report = schedmodel.lemma_diagnostics(
            norm, sol, assignment, norm_sched, eta=eta, strict=False
        )
        _write(report.to_json(), args.output)
        if args.gantt:
            _write(json.dumps(schedmodel.gantt_rows(inst, sched), indent=2, sort_keys=True), args.gantt)
        return 0

    if cmd == "dedup":
        from .dedup import dedup_with_plan
        from .schedmodel import makespan

        inst = _read_instance(args.input)
        sched = _read_schedule(args.schedule)
        out, plan = dedup_with_plan(inst, sched)
        rep = schedmodel.validate_schedule(inst, out)
        if not rep.valid:
            sys.stderr.write(f"error: dedup output invalid: {rep.violations[:2]}\n")
            return 2
        _write(schedule_to_json(out), args.output)
        before, after = makespan(inst, sched), makespan(inst, out)
        stats = {
            "rounds": len(plan.rounds),
            "ratio": after / before if before > 0 else None,
            "groups": plan.bucket_count,
            "fast_path": plan.fast_path,
        }
        _write(json.dumps(stats, indent=2, sort_keys=True), args.stats)
        return 0

    if cmd == "oracle":
        from .oracle import OracleLimits, exact_optimal_makespan

        inst = _read_instance(args.input)
        limits = OracleLimits(args.max_jobs, args.max_machines, args.time_budget)
        value, witness = exact_optimal_makespan(inst, args.allow_dup, limits)
        rep = schedmodel.validate_schedule(inst, witness)
        if not rep.valid:
            sys.stderr.write(f"error: oracle witness invalid: {rep.violations[:2]}\n")
            return 2
        doc = json.loads(schedule_to_json(witness))
        doc["makespan"] = value
        _write(json.dumps(doc, indent=2, sort_keys=True), args.output)
        return 0

    if cmd == "gap":
        from .gaplab import measure_gap

        if args.sweep:
            rows = ["L,d,rho,m,n,lp_value,pipeline,baseline,ratio"]
            for L, d in _sweep_pairs(args.sweep):
                inst = gen_layered_gap(L, d, _seed(args))
                rep = measure_gap(inst, eta=args.eta)
                rows.append(
                    f"{L},{d},{inst.rho},{inst.m},{inst.n},{rep.lp_value},"
                    f"{rep.pipeline_makespan},{rep.baseline_makespan},{rep.ratio}"
                )
            _write("\n".join(rows), args.csv)
            return 0
        if args.input:
            inst = _read_instance(args.input)
        else:
            if args.layers is None or args.degree is None:
                sys.stderr.write("error: gap needs --input, --sweep, or --layers with --degree\n")
                return 1
            inst = gen_layered_gap(args.layers, args.degree, _seed(args))
        rep = measure_gap(inst, eta=args.eta)
        _write(rep.to_json(), args.output)
        return 0

    raise SystemExit(1)


if __name__ == "__main__":
    raise SystemExit(main())
