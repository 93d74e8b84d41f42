import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delaysched

from delaysched.cli import main, run_pipeline, PipelineConfig
from delaysched import gen_random_dag, instance_to_json, instance_from_json
from delaysched.schedmodel import schedule_from_json


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


def test_solve_cli_alternate_relaxation(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--m", "1", "--rho", "1",
         "--edge-prob", "1.0", "--seed", "1", "--output", str(inst_path)])
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", str(inst_path), "--relaxation", "time_indexed",
                "--horizon", "6", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["relaxation"] == "time_indexed" and doc["status"] == "optimal"


def test_oracle_cli(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "random", "--n", "3", "--m", "2", "--rho", "2",
         "--seed", "4", "--output", str(inst_path)])
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--input", str(inst_path), "--allow-dup",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["makespan"] > 0 and doc["placements"]


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


def test_bench_cli(tmp_path):
    out = tmp_path / "bench.jsonl"
    assert run(["bench", "--count", "2", "--n", "6", "--m", "2", "--rho", "2",
                "--seed", "3", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and all(json.loads(x)["makespan"] > 0 for x in lines)


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


@pytest.mark.parametrize("failing, flags, message", [
    (("preprocess", "filter_slow_machines"), [], "[preprocess] injected failure"),
    (("lp", "solve_relaxation"), [], "[lp] injected failure"),
    (None, ["--eta", "0.5"], "[schedule] eta must be >= 1"),
], ids=["preprocess", "lp", "schedule"])
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


def test_import_loads_neither_scipy_nor_numpy():
    # the CLI's cold start depends on scipy and numpy loading only at the first solve
    src = str(Path(delaysched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, delaysched; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
