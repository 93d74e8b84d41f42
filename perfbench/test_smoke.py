"""Smoke test of the benchmark at reduced size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (imports delaysched from the checkout's src)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "lp_heavy": dict(n=10, m=3, count_prefix=3),
    "many_phases": dict(n=30, edge_prob=0.05, count_prefix=3),
    "tiny_exact": dict(quality_prefix=100, tail_pct=90.0, count_prefix=10),
}
FAKE_SETUP = [{"import_s": 0.25, "first_run_s": 0.5}]


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def names(section):
    return [m["name"] for m in BENCHMARK[section]]


def test_benchmark_json_names_the_workloads():
    # tiny_exact stays runnable but unlisted until its known failure is fixed
    listed = [name for name in WORKLOADS if name != "tiny_exact"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == listed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_passes_its_checks(name):
    workload = small(name)
    out = run.run_untraced(workload, seed=3, seconds=0.0)
    assert out.failed == 0
    assert out.attempted == len(out.times) == workload.quality_prefix
    assert bool(out.ratio_opt) == workload.oracle
    metrics, _ = run.end_to_end(workload, out, FAKE_SETUP)
    assert list(metrics) == names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    workload = small(name)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        out = run.run_traced(workload, seed=5, seconds=0.0, tracer=tracer)
        assert out.failed == 0
        metrics, _ = run.per_layer(workload, out, tracer)
        assert list(metrics) == names("per_layer")
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lp.vars"] > 0 and counts[0]["instance.validate_instance.calls"] > 0


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    real = run.delaysched.run_pipeline

    def broken(inst, config=None):
        result = real(inst, config)
        return dataclasses.replace(result, lp_objective=3 * result.report.makespan)

    monkeypatch.setattr(run.delaysched, "run_pipeline", broken)
    monkeypatch.setattr(run, "measure_setup", lambda: FAKE_SETUP)
    monkeypatch.setitem(run.WORKLOADS, "tiny_exact", small("tiny_exact"))
    code = run.main(["--workload", "tiny_exact", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == SMALL["tiny_exact"]["quality_prefix"]


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric(trace, section):
    cmd = BENCHMARK["command"] + ["--workload", "tiny_exact", "--seed", "2",
                                  "--seconds", "0", "--trace", trace]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == names(section)
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "tiny_exact", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
