import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaysched

from delaysched.cli import main, run_pipeline, PipelineConfig, PipelineError
from delaysched import (
    Job,
    Machine,
    gen_random_dag,
    instance_to_json,
    instance_from_json,
    make_instance,
    normalize_instance,
)
from delaysched.dedup import dedup_with_plan
from delaysched.schedmodel import schedule_from_json, validate_schedule


def run(args):
    return main(args)


def test_gen_schedule_validate_round_trip(tmp_path):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    report_path = tmp_path / "report.json"
    assert run(["gen", "--kind", "random", "--n", "8", "--m", "2", "--rho", "2",
                "--seed", "5", "--output", str(inst_path)]) == 0
    assert run(["schedule", "--input", str(inst_path), "--output", str(sched_path),
                "--report", str(report_path)]) == 0
    assert run(["validate", "--input", str(inst_path), "--schedule", str(sched_path)]) == 0
    report = json.loads(report_path.read_text())
    assert "makespan_original_units" in report and "diagnostics" in report


def test_schedule_deterministic_reports(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "12", "--m", "3", "--rho", "4",
         "--seed", "9", "--output", str(inst_path)])
    outs = []
    for k in (1, 2):
        rp = tmp_path / f"report{k}.json"
        sp = tmp_path / f"sched{k}.json"
        assert run(["schedule", "--input", str(inst_path), "--output", str(sp),
                    "--report", str(rp)]) == 0
        outs.append((rp.read_bytes(), sp.read_bytes()))
    assert outs[0] == outs[1]


def test_validate_exit_code_on_bad_schedule(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "4", "--m", "2", "--rho", "1",
         "--seed", "2", "--output", str(inst_path)])
    bad = tmp_path / "bad.json"
    bad.write_text('{"placements": [{"job": "j0", "machine": "m0", "start": 0.0}]}')
    assert run(["validate", "--input", str(inst_path), "--schedule", str(bad)]) == 2


@pytest.mark.parametrize("start", ["NaN", "Infinity"])
def test_validate_rejects_a_non_finite_start(tmp_path, capsys, start):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    run(["gen", "--kind", "random", "--n", "4", "--m", "2", "--seed", "3",
         "--output", str(inst_path)])
    run(["schedule", "--input", str(inst_path), "--output", str(sched_path)])
    doc = json.loads(sched_path.read_text())
    sink = next(p for p in doc["placements"] if p["job"] == "j3")
    other = "m0" if sink["machine"] == "m1" else "m1"
    doc["placements"].append({**sink, "machine": other, "start": "START"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"START"', start))  # the codec reads NaN and Infinity
    capsys.readouterr()
    assert run(["validate", "--input", str(inst_path), "--schedule", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # no NaN or Infinity
    assert not out["valid"] and out["violations"][0].startswith("non-finite start for j3")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["gen"])  # missing required --kind
    assert exc.value.code == 1


def test_gap_without_instance_prints_usage_error(capsys):
    assert run(["gap"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--input" in err


def test_preprocess_cli(tmp_path):
    inst_path = tmp_path / "inst.json"
    out_path = tmp_path / "filtered.json"
    from conftest import slow_machine_instance

    inst_path.write_text(instance_to_json(slow_machine_instance(1)))
    assert run(["preprocess", "--input", str(inst_path), "--output", str(out_path)]) == 0
    filtered = instance_from_json(out_path.read_text())
    assert all(mc.id != "crawl" for mc in filtered.machines)


def test_preprocess_and_schedule_drop_the_same_machines(tmp_path):
    # m0 is 5e-10 below s_max/m in raw speed and 5e-7 below it once normalized
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_speeds_doc(("m0", 0.0004999995), ("m1", 0.001))))
    out_path, report_path = tmp_path / "filtered.json", tmp_path / "report.json"
    assert run(["preprocess", "--input", str(inst_path), "--output", str(out_path)]) == 0
    assert [mc.id for mc in instance_from_json(out_path.read_text()).machines] == ["m1"]
    assert run(["schedule", "--input", str(inst_path), "--output", str(tmp_path / "s.json"),
                "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["removed_machines"] == ["m0"]


def test_solve_cli_with_lp_export(tmp_path):
    inst_path = tmp_path / "inst.json"
    lp_path = tmp_path / "model.lp"
    run(["gen", "--kind", "random", "--n", "4", "--m", "2", "--rho", "2",
         "--seed", "3", "--output", str(inst_path)])
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", str(inst_path), "--export-lp", str(lp_path),
                "--output", str(out)]) == 0
    assert "Minimize" in lp_path.read_text()
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal"


@pytest.mark.parametrize("kind", ["same_machine", "same_phase", "time_indexed"])
def test_solve_cli_alternate_relaxation(tmp_path, kind):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--m", "2", "--rho", "1",
         "--edge-prob", "1.0", "--seed", "1", "--output", str(inst_path)])
    out, lp_path = tmp_path / "sol.json", tmp_path / "model.lp"
    assert run(["solve", "--input", str(inst_path), "--relaxation", kind,
                "--horizon", "6", "--output", str(out), "--export-lp", str(lp_path)]) == 0
    doc = json.loads(out.read_text())
    assert doc["relaxation"] == kind and doc["status"] == "optimal"
    text = lp_path.read_text()
    assert text.startswith("Minimize")
    if kind != "time_indexed":
        # the scaffold's columns come first, named: C, then S per job, then x
        # per job and machine, machines in the normalized order
        norm, _ = normalize_instance(instance_from_json(inst_path.read_text()))
        jobs, machines = [v.id for v in norm.jobs], [mc.id for mc in norm.machines]
        want = ["C", *(f"S_{v}" for v in jobs), *(f"x_{v}_{i}" for v in jobs for i in machines)]
        bounds = text.split("\nBounds\n")[1].splitlines()
        assert [line.split()[2] for line in bounds[:len(want)]] == want


def test_solve_cli_writes_null_when_not_optimal(tmp_path):
    # a one-step time-indexed horizon fits no schedule of four jobs on two machines
    inst_path, out = tmp_path / "inst.json", tmp_path / "sol.json"
    run(["gen", "--kind", "random", "--n", "4", "--m", "2", "--seed", "1",
         "--output", str(inst_path)])
    assert run(["solve", "--input", str(inst_path), "--relaxation", "time_indexed",
                "--horizon", "1", "--output", str(out)]) == 2
    doc = json.loads(out.read_text(), parse_constant=pytest.fail)  # no NaN or Infinity
    assert doc["status"] == "infeasible"
    assert doc["objective_normalized"] is None and doc["objective_original_units"] is None


@st.composite
def small_dags(draw):
    """Instances of at most 10 jobs and 4 machines, sizes and speeds in
    1e-3..1e3, edges from index order, and rho 0, 0.3, 16 or e^e."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    values = st.floats(1e-3, 1e3)
    sizes = draw(st.lists(values, min_size=n, max_size=n))
    speeds = draw(st.lists(values, min_size=m, max_size=m))
    pairs = [(a, b) for b in range(n) for a in range(b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rho = draw(st.sampled_from([0.0, 0.3, 16.0, 15.154262241479259]))
    return make_instance(
        [Job(f"j{k}", size) for k, size in enumerate(sizes)],
        [Machine(f"m{k}", speed) for k, speed in enumerate(speeds)],
        [(f"j{a}", f"j{b}") for a, b in edges],
        rho,
    )


def _outcome(inst):
    try:
        return run_pipeline(inst)
    except PipelineError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(small_dags())
def test_dedup_of_a_pipeline_schedule_places_every_job_once(inst):
    result = _outcome(inst)
    if isinstance(result, str):  # the pipeline stopped with PipelineError
        return
    out, _ = dedup_with_plan(inst, result.schedule)
    report = validate_schedule(inst, out)
    assert report.valid, report.violations
    assert sorted(p.job for p in out.placements) == sorted(v.id for v in inst.jobs)


@settings(max_examples=60, deadline=None)
@given(small_dags(), st.integers(-20, 20), st.integers(-20, 20))
def test_power_of_two_rescaling_scales_the_schedule_exactly(inst, a, b):
    # sizes times 2^a, speeds times 2^b and rho times 2^(a-b) normalize to
    # the same bits, so the schedule differs only by the exact factor 2^(a-b)
    factor = 2.0 ** (a - b)
    scaled = make_instance(
        [Job(v.id, v.size * 2.0**a) for v in inst.jobs],
        [Machine(mc.id, mc.speed * 2.0**b) for mc in inst.machines],
        inst.edges,
        inst.rho * factor,
    )
    got, want = _outcome(scaled), _outcome(inst)
    if isinstance(want, str):
        assert got == want
        return
    assert [(p.job, p.machine) for p in got.schedule.placements] == [
        (p.job, p.machine) for p in want.schedule.placements
    ]
    assert [p.start for p in got.schedule.placements] == [
        p.start * factor for p in want.schedule.placements
    ]
    assert got.makespan == want.makespan * factor
    got_report, want_report = json.loads(got.report_json()), json.loads(want.report_json())
    assert got_report.pop("makespan_original_units") == got.makespan
    want_report.pop("makespan_original_units")
    assert json.dumps(got_report, sort_keys=True) == json.dumps(want_report, sort_keys=True)


def test_oracle_cli(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--m", "2", "--rho", "2",
         "--seed", "4", "--output", str(inst_path)])
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--input", str(inst_path), "--allow-dup",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["makespan"] > 0 and doc["placements"]


def test_oracle_cli_max_jobs_zero_refuses_every_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--m", "2", "--rho", "2",
         "--seed", "4", "--output", str(inst_path)])
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--input", str(inst_path), "--max-jobs", "0",
                "--output", str(out)]) == 2
    assert "exceeds oracle limits (0 jobs, 3 machines)" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_cli_rejects_a_nan_time_budget(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--m", "2", "--rho", "2",
         "--seed", "4", "--output", str(inst_path)])
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--input", str(inst_path), "--allow-dup",
                "--time-budget", "nan", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: oracle time budget nan is not a number\n"
    assert not out.exists()


def test_dedup_cli(tmp_path):
    from conftest import everywhere_schedule
    from delaysched.schedmodel import schedule_to_json

    inst = gen_random_dag(5, 2, 0.3, (1, 2), (0.5, 1), 2.0, seed=8)
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "dup.json"
    out_path = tmp_path / "nodup.json"
    stats_path = tmp_path / "stats.json"
    inst_path.write_text(instance_to_json(inst))
    sched_path.write_text(schedule_to_json(everywhere_schedule(inst)))
    assert run(["dedup", "--input", str(inst_path), "--schedule", str(sched_path),
                "--output", str(out_path), "--stats", str(stats_path)]) == 0
    out = schedule_from_json(out_path.read_text())
    assert set(out.multiplicity().values()) == {1}
    stats = json.loads(stats_path.read_text())
    assert stats["rounds"] >= 1 and stats["ratio"] is not None


def test_gap_cli_layered(tmp_path):
    out = tmp_path / "gap.json"
    assert run(["gap", "--layers", "2", "--degree", "1", "--seed", "1",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lp_source"] == "certificate" and doc["ratio"] >= 1.0 - 1e-6


def test_analyze_cli(tmp_path):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    out = tmp_path / "analysis.json"
    run(["gen", "--kind", "random", "--n", "6", "--m", "2", "--rho", "2",
         "--seed", "6", "--output", str(inst_path)])
    run(["schedule", "--input", str(inst_path), "--output", str(sched_path)])
    assert run(["analyze", "--input", str(inst_path), "--schedule", str(sched_path),
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "phase_counts" in doc


@pytest.mark.parametrize("eta", ["nan", "0.5", "-3"])
def test_analyze_rejects_eta_below_one(tmp_path, capsys, eta):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    run(["gen", "--kind", "random", "--n", "6", "--m", "2", "--rho", "2",
         "--seed", "6", "--output", str(inst_path)])
    run(["schedule", "--input", str(inst_path), "--output", str(sched_path)])
    capsys.readouterr()
    assert run(["analyze", "--input", str(inst_path), "--schedule", str(sched_path),
                f"--eta={eta}", "--output", str(tmp_path / "analysis.json")]) == 2
    assert capsys.readouterr().err == "error: eta must be >= 1\n"


def test_analyze_rejects_infinite_eta(tmp_path, capsys, monkeypatch):
    # an infinite eta would reach the analysis as Infinity, which is not JSON
    from delaysched import cli

    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    run(["gen", "--kind", "random", "--n", "6", "--m", "2", "--rho", "2",
         "--seed", "6", "--output", str(inst_path)])
    run(["schedule", "--input", str(inst_path), "--output", str(sched_path)])
    capsys.readouterr()

    def fail(*args, **kwargs):
        pytest.fail("analyze solved the relaxation before checking --eta")

    monkeypatch.setattr(cli.lp, "solve_relaxation", fail)
    assert run(["analyze", "--input", str(inst_path), "--schedule", str(sched_path),
                "--eta=inf", "--output", str(tmp_path / "analysis.json")]) == 2
    assert capsys.readouterr().err == "error: eta must be finite\n"
    assert not (tmp_path / "analysis.json").exists()


def test_analyze_checks_eta_before_the_solve(tmp_path, capsys, monkeypatch):
    from delaysched import cli

    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    run(["gen", "--kind", "random", "--n", "6", "--m", "2", "--rho", "2",
         "--seed", "6", "--output", str(inst_path)])
    run(["schedule", "--input", str(inst_path), "--output", str(sched_path)])
    capsys.readouterr()

    def fail(*args, **kwargs):
        pytest.fail("analyze solved the relaxation before checking --eta")

    monkeypatch.setattr(cli.lp, "solve_relaxation", fail)
    assert run(["analyze", "--input", str(inst_path), "--schedule", str(sched_path),
                "--eta", "0.5", "--output", str(tmp_path / "analysis.json")]) == 2
    assert capsys.readouterr().err == "error: eta must be >= 1\n"


def _first_solve_fails(monkeypatch, failure):
    """Make the first ``lp.solve_relaxation`` call fail: return a solution of
    status ``error`` (C, S and x all zero, objective NaN) when ``failure`` is
    "error", else raise ``ValueError``; later calls solve as usual."""
    from delaysched import lp

    real = lp.solve_relaxation
    calls = []

    def first_fails(inst):
        calls.append(inst)
        if len(calls) > 1:
            return real(inst)
        if failure != "error":
            raise ValueError("injected failure")
        return lp.LpSolution((0.0,) * (1 + inst.n + inst.n * inst.m), math.nan, "error")

    monkeypatch.setattr(lp, "solve_relaxation", first_fails)


@pytest.mark.parametrize("failure, message", [
    ("error", "[lp] solver returned error"),
    ("raise", "[lp] injected failure"),
])
def test_analyze_stops_when_the_lp_fails(tmp_path, capsys, monkeypatch, failure, message):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    out = tmp_path / "analysis.json"
    run(["gen", "--kind", "random", "--n", "6", "--m", "2", "--rho", "2",
         "--seed", "6", "--output", str(inst_path)])
    run(["schedule", "--input", str(inst_path), "--output", str(sched_path)])
    capsys.readouterr()
    _first_solve_fails(monkeypatch, failure)
    assert run(["analyze", "--input", str(inst_path), "--schedule", str(sched_path),
                "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gap_stops_when_the_lp_fails(tmp_path, capsys, monkeypatch):
    # measure_gap solves the relaxation of a non-layered instance before the
    # pipeline does; a NaN LP value would be written as bare NaN, not JSON
    inst_path = tmp_path / "inst.json"
    out = tmp_path / "gap.json"
    inst_path.write_text(json.dumps(_RANDOM))
    _first_solve_fails(monkeypatch, "error")
    assert run(["gap", "--input", str(inst_path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: [lp] solver returned error\n"
    assert not out.exists()


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DELAYSCHED_SEED", "77")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "--kind", "random", "--n", "5", "--m", "2", "--output", str(a)])
    run(["gen", "--kind", "random", "--n", "5", "--m", "2", "--seed", "77",
         "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gap_sweep_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert run(["gap", "--sweep", "2,1;2,2", "--seed", "0", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("L,d,") and len(lines) == 3


@pytest.mark.parametrize("sweep", ["2", "a,b", "2,1,3", "2,1;"])
def test_gap_sweep_names_a_malformed_entry(tmp_path, capsys, sweep):
    csv_path = tmp_path / "sweep.csv"
    assert run(["gap", "--sweep", sweep, "--csv", str(csv_path)]) == 2
    bad = sweep.split(";")[-1]
    assert capsys.readouterr().err == (
        f"error: --sweep entry {bad!r} is not an L,d pair of integers\n"
    )
    assert not csv_path.exists()


@pytest.mark.parametrize("flags, message", [
    (["--speed-range", "-1", "-0.5", "--rho", "-3"], "machine m0: speed must be > 0"),
    (["--size-range", "1", "nan"], "job j0: size must be finite"),
])
def test_gen_refuses_an_instance_no_command_reads(tmp_path, capsys, flags, message):
    out = tmp_path / "inst.json"
    assert run(["gen", "--kind", "random", "--n", "4", "--m", "2", *flags,
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [validate] ") and message in err
    assert not out.exists()


def test_deeply_nested_json_exits_2_without_traceback(tmp_path, capsys):
    deep, inst_path = tmp_path / "deep.json", tmp_path / "inst.json"
    deep.write_text("[" * 100_000)
    run(["gen", "--kind", "random", "--n", "3", "--m", "1", "--output", str(inst_path)])
    for args in (["schedule", "--input", str(deep)],
                 ["validate", "--input", str(inst_path), "--schedule", str(deep)]):
        assert run(args) == 2
        assert capsys.readouterr().err == "error: JSON nested too deeply to decode\n"


def test_nan_rho_exits_2_without_traceback(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(
        '{"rho": NaN, "jobs": [{"id": "a", "size": 1.0}], '
        '"machines": [{"id": "m0", "speed": 1.0}], "edges": []}'
    )
    assert run(["schedule", "--input", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rho must be finite" in err
    assert "Traceback" not in err
    # malformed documents are codec errors that name the field
    good = {"rho": 1.0, "jobs": [{"id": "a", "size": 1.0}],
            "machines": [{"id": "m0", "speed": 1.0}], "edges": []}
    for key, value, field in [("rho", None, "'rho'"), ("jobs", [1], "jobs[0]"),
                              ("machines", {"id": "m0"}, "'machines'"),
                              ("jobs", [{"id": None, "size": 1.0}], "'id' in jobs[0]"),
                              ("machines", [{"id": 3, "speed": 1.0}], "'id' in machines[0]"),
                              ("edges", [["a", 7]], "edges[0][1]")]:
        inst_path.write_text(json.dumps({**good, key: value}))
        assert run(["schedule", "--input", str(inst_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err
    inst_path.write_text(json.dumps(good))
    sched_path = tmp_path / "sched.json"
    for placements, field in [([{"job": "a", "machine": "m0", "start": None}], "'start'"),
                              ([1], "placements[0]"), ("a", "'placements'"),
                              ([{"job": None, "machine": "m0", "start": 0.0}], "'job'"),
                              ([{"job": "a", "machine": 0, "start": 0.0}], "'machine'")]:
        sched_path.write_text(json.dumps({"placements": placements}))
        assert run(["validate", "--input", str(inst_path), "--schedule", str(sched_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize("module, func, error, stage", [
    ("scheduler", "run_group_scheduler", "SchedulerInvariantError", "schedule"),
    ("schedmodel", "lemma_diagnostics", "LemmaViolation", "diagnostics"),
])
def test_assertion_errors_become_stage_errors(tmp_path, capsys, monkeypatch,
                                              module, func, error, stage):
    from delaysched import cli

    mod = getattr(cli, module)
    exc_type = getattr(mod, error)

    def fail(*args, **kwargs):
        raise exc_type("injected failure")

    monkeypatch.setattr(mod, func, fail)
    inst = gen_random_dag(6, 2, 0.3, (1, 2), (0.5, 1), 2.0, seed=4)
    with pytest.raises(cli.PipelineError) as info:
        run_pipeline(inst)
    assert info.value.stage == stage and isinstance(info.value.__cause__, exc_type)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst))
    assert run(["schedule", "--input", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [{stage}] injected failure\n"


# normalizing sizes 1e-300 and 1e10 would overflow job b's size to inf
_OVERFLOWS = {"rho": 1.0, "jobs": [{"id": "a", "size": 1e-300}, {"id": "b", "size": 1e10}],
              "machines": [{"id": "m0", "speed": 1.0}], "edges": [["a", "b"]]}
_RANDOM = json.loads(instance_to_json(gen_random_dag(6, 2, 0.3, (1, 2), (0.5, 1), 2.0, seed=4)))


@pytest.mark.parametrize("flags", [[], ["--skip-preprocess"]])
def test_normalization_overflow_is_a_validation_error(tmp_path, capsys, flags):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_OVERFLOWS))
    assert run(["schedule", "--input", str(inst_path), *flags]) == 2
    assert capsys.readouterr().err == "error: [validate] job b: size / min size is not finite\n"


def test_time_scale_that_underflows_is_a_validation_error(tmp_path, capsys):
    # sizes 1e308 at speed 1e-300: alpha / beta is 1e-608, which is 0 as a float
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "rho": 1.0, "jobs": [{"id": "a", "size": 1e308}, {"id": "b", "size": 1e308}],
        "machines": [{"id": "m0", "speed": 1e-300}], "edges": [],
    }))
    assert run(["schedule", "--input", str(inst_path)]) == 2
    assert capsys.readouterr().err == "error: [validate] min size / max speed is not finite\n"


def test_coefficient_highs_refuses_is_named(tmp_path, capsys):
    # valid, and finite once normalized, but job b's normalized size 1e307
    # enters its row (1) far past what HiGHS accepts
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "rho": 0.0, "jobs": [{"id": "a", "size": 1e-300}, {"id": "b", "size": 1e7}],
        "machines": [{"id": "m0", "speed": 1e10}], "edges": [],
    }))
    assert run(["schedule", "--input", str(inst_path)]) == 2
    assert capsys.readouterr().err == (
        "error: [lp] row c1_b has coefficient -9.999999999999999e+306; "
        "HiGHS refuses magnitudes of 1e+15 and above\n"
    )


def test_coefficient_first_added_in_round_two_is_named(tmp_path, capsys):
    # round one holds no cut; the cut that round two adds for v's violated
    # row (4) has the x coefficient rho s - A_U = 1e15 - 5 * 4e14
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "rho": 1e15,
        "jobs": [{"id": f"u{k}", "size": 4e14} for k in range(5)] + [{"id": "v", "size": 1.0}],
        "machines": [{"id": "m0", "speed": 1.0}],
        "edges": [[f"u{k}", "v"] for k in range(5)],
    }))
    assert run(["schedule", "--input", str(inst_path)]) == 2
    assert capsys.readouterr().err == (
        "error: [lp] row c4_v_m0 has coefficient -1000000000000000.0; "
        "HiGHS refuses magnitudes of 1e+15 and above\n"
    )


@pytest.mark.parametrize("command", [
    ["solve"], ["preprocess"], ["validate", "--schedule"], ["analyze", "--schedule"],
    ["dedup", "--schedule"], ["oracle"], ["gap"],
], ids=lambda command: command[0])
def test_every_command_validates_its_instance_first(tmp_path, capsys, command):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_OVERFLOWS))
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps({"placements": []}))
    if command[1:]:
        command = [*command, str(sched_path)]
    assert run([*command, "--input", str(inst_path)]) == 2
    assert capsys.readouterr().err == "error: [validate] job b: size / min size is not finite\n"


@pytest.mark.parametrize("failing, flags, message", [
    (("preprocess", "filter_slow_machines"), [], "[preprocess] injected failure"),
    (("lp", "solve_relaxation"), [], "[lp] injected failure"),
    (None, ["--eta", "0.5"], "[schedule] eta must be >= 1"),
    (None, ["--eta", "nan"], "[schedule] eta must be >= 1"),
    (None, ["--eta", "inf"], "[schedule] eta must be finite"),
], ids=["preprocess", "lp", "schedule", "schedule-nan", "schedule-inf"])
def test_value_errors_name_their_stage(tmp_path, capsys, monkeypatch, failing, flags, message):
    # a validated instance raises no ValueError in preprocess or lp, so one is injected
    from delaysched import cli

    if failing is not None:
        module, func = failing

        def fail(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(getattr(cli, module), func, fail)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_RANDOM))
    assert run(["schedule", "--input", str(inst_path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("module, func", [
    ("lp", "solve_relaxation"), ("scheduler", "run_group_scheduler"),
])
def test_out_of_memory_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch, module, func):
    # the stage is replaced by one that raises; no memory is allocated to provoke it
    from delaysched import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(getattr(cli, module), func, exhausted)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_RANDOM))
    out = tmp_path / "sched.json"
    assert run(["schedule", "--input", str(inst_path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


def test_import_loads_neither_scipy_nor_numpy():
    # the CLI's cold start depends on scipy and numpy loading only at the first solve
    src = str(Path(delaysched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, delaysched; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_entry_runs_without_warnings():
    src = str(Path(delaysched.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "delaysched", "--help"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("usage: ")


def test_tiny_rho_stops_before_phase_analysis(tmp_path):
    # the makespan spans about 4e12 phases; allocating per phase exhausted
    # memory, so this runs in a subprocess with a timeout rather than in-process
    doc = {"rho": 1e-12, "jobs": [{"id": "a", "size": 1}, {"id": "b", "size": 1},
                                  {"id": "c", "size": 2}],
           "machines": [{"id": "m1", "speed": 0.5}, {"id": "m0", "speed": 1}],
           "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    src = str(Path(delaysched.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "delaysched", "schedule", "--input", str(inst_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stderr == ("error: [diagnostics] the makespan spans 4e+12 phases of length rho; "
                          "phase analysis stops above 1,000,000\n")


def test_same_machine_relaxation_solves_lp_heavy_instance(tmp_path):
    # lp_heavy instance 3 at seed 7; under Dantzig pricing HiGHS sat in this
    # solve for minutes, so it runs in a subprocess with a timeout
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    src = str(Path(delaysched.__file__).resolve().parents[1])
    for args in (
        ["gen", "--kind", "random", "--n", "32", "--m", "8", "--edge-prob", "0.2",
         "--size-range", "1", "4", "--speed-range", "0.25", "1", "--rho", "16",
         "--seed", "7000003", "--output", str(inst_path)],
        ["solve", "--relaxation", "same_machine", "--input", str(inst_path),
         "--output", str(sol_path)],
    ):
        out = subprocess.run(
            [sys.executable, "-m", "delaysched", *args],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
    assert json.loads(sol_path.read_text())["status"] == "optimal"


def test_rescaled_schedule_validates(tmp_path):
    # sizes and rho a million times those that validate at scale 1: times
    # reach about 5e7, where an absolute TOL of 1e-9 is below float resolution
    inst_path, sched_path = tmp_path / "big.json", tmp_path / "s.json"
    src = str(Path(delaysched.__file__).resolve().parents[1])
    for args in (
        ["gen", "--kind", "random", "--n", "12", "--m", "2", "--edge-prob", "0.5",
         "--size-range", "1e6", "4e6", "--speed-range", "0.25", "1", "--rho", "1.6e7",
         "--seed", "0", "--output", str(inst_path)],
        ["schedule", "--input", str(inst_path), "--output", str(sched_path)],
        ["validate", "--input", str(inst_path), "--schedule", str(sched_path)],
    ):
        out = subprocess.run(
            [sys.executable, "-m", "delaysched", *args],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stdout + out.stderr


def _speeds_doc(*machines):
    return {"rho": 1, "jobs": [{"id": "a", "size": 1}, {"id": "b", "size": 2}],
            "machines": [{"id": k, "speed": s} for k, s in machines], "edges": [["a", "b"]]}


@pytest.mark.parametrize("command", ["schedule", "solve"])
@pytest.mark.parametrize("machines", [
    # 5e-10 apart in raw speed, 5e-9 apart once divided by the fastest speed
    [("m0", 0.1 + 0.5e-9), ("m1", 0.1)],
    # neighbours tie in id order, but z and a tie out of it once slow machine
    # zz (below 0.25 - TOL) is dropped
    [("z", 0.25 - 0.5e-9), ("zz", 0.25 - 1.2e-9), ("a", 0.25 - 0.1e-9), ("f", 1.0)],
], ids=["scaled-gap", "tie-after-filter"])
def test_machine_order_is_judged_on_the_normalized_scale(tmp_path, capsys, command, machines):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_speeds_doc(*machines)))
    assert run([command, "--input", str(inst_path)]) == 2
    assert capsys.readouterr().err == (
        "error: [validate] machines not sorted by nondecreasing speed (ties by id)\n"
    )


@pytest.mark.parametrize("command", ["schedule", "solve"])
def test_machines_tied_on_the_normalized_scale_run(tmp_path, command):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(_speeds_doc(("m0", 2 + 0.5e-9), ("m1", 2))))
    assert run([command, "--input", str(inst_path), "--output", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("config", [PipelineConfig(), PipelineConfig(skip_preprocess=True)])
def test_pipeline_validates_once_and_orders_twice(monkeypatch, config):
    # the input's default order comes from its cycle check and the scheduler
    # sorts by band; normalized and filtered copies inherit the rest
    from conftest import slow_machine_instance
    from delaysched import instance

    calls = {"validate_instance": 0, "_kahn": 0}
    for name in calls:
        def spy(*args, real=getattr(instance, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(instance, name, spy)
    result = run_pipeline(slow_machine_instance(2), config)
    assert result.removed_machines == (() if config.skip_preprocess else ("crawl",))
    assert calls == {"validate_instance": 1, "_kahn": 2}
