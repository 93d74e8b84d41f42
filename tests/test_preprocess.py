import pytest

from conftest import fresh_copy, slow_machine_instance
from delaysched import (
    Job,
    Machine,
    Placement,
    Schedule,
    filter_slow_machines,
    make_instance,
    makespan,
    rehost_schedule,
    validate_instance,
    validate_schedule,
)
from delaysched.cli import PipelineConfig, run_pipeline


def speeds_instance(*speeds, rho=1.0):
    return make_instance(
        [Job("a", 1.0)], [Machine(f"m{k}", s) for k, s in enumerate(speeds)], [], rho
    )


def test_uniform_speed_keeps_all():
    result = filter_slow_machines(speeds_instance(1.0))
    assert result.removed_ids == () and result.filtered.m == 1


def test_threshold_removes_slow():
    result = filter_slow_machines(speeds_instance(1.0, 0.3, 0.1))
    assert result.filtered.m == 1
    assert set(result.removed_ids) == {"m1", "m2"}  # the 0.3 and 0.1 machines
    assert result.filtered.machine_index("m0") == 0


def test_threshold_boundary_keeps_exact_third():
    result = filter_slow_machines(speeds_instance(1.0, 0.5, 0.34))
    assert result.filtered.m == 3 and result.removed_ids == ()


def test_filter_output_is_valid_and_keeps_fastest():
    for seed in range(10):
        inst = slow_machine_instance(seed)
        result = filter_slow_machines(inst)
        assert validate_instance(fresh_copy(result.filtered)).ok
        fastest = max(mc.speed for mc in inst.machines)
        assert any(mc.speed == fastest for mc in result.filtered.machines)


def test_filter_idempotent_on_threshold_examples():
    # stable cases: a second pass removes nothing further
    for speeds in [(1.0,), (1.0, 0.3, 0.1), (1.0, 0.5, 0.34)]:
        once = filter_slow_machines(speeds_instance(*speeds)).filtered
        twice = filter_slow_machines(once).filtered
        assert twice == once


def test_rehost_identity_when_slow_unused():
    inst = speeds_instance(0.05, 1.0, 1.0)
    sched = Schedule((Placement("a", "m2", 0.0),))
    assert rehost_schedule(inst, sched) == sched


def test_rehost_single_slow_job():
    inst = make_instance(
        [Job("a", 1.0)], [Machine("slow", 0.1), Machine("fast", 1.0)], [], 1.0
    )
    sched = Schedule((Placement("a", "slow", 0.0),))
    out = rehost_schedule(inst, sched)
    filtered = filter_slow_machines(inst).filtered
    rep = validate_schedule(filtered, out)
    assert rep.valid
    assert rep.makespan <= 6.0 * makespan(inst, sched) + 1e-6
    assert all(p.machine == "fast" for p in out.placements)


def test_rehost_rejects_invalid_schedule():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)],
        [Machine("slow", 0.01), Machine("fast", 1.0)],
        [("a", "b")],
        1.0,
    )
    broken = Schedule((Placement("b", "slow", 0.0),))
    with pytest.raises(ValueError):
        rehost_schedule(inst, broken)


def test_rehost_corpus_six_fold_bound():
    from conftest import everywhere_schedule, round_robin_schedule

    checked = 0
    for seed in range(12):
        inst = slow_machine_instance(seed)
        for sched in (
            everywhere_schedule(inst),
            round_robin_schedule(inst, offset=seed),
        ):
            assert validate_schedule(inst, sched).valid
            if not any(p.machine == "crawl" for p in sched.placements):
                continue
            checked += 1
            before = makespan(inst, sched)
            out = rehost_schedule(inst, sched)
            filtered = filter_slow_machines(inst).filtered
            rep = validate_schedule(filtered, out)
            assert rep.valid, rep.violations[:3]
            assert rep.makespan <= 6.0 * before + 1e-6
            assert set(out.multiplicity()) == {j.id for j in inst.jobs}
    assert checked >= 12  # corpus must actually exercise the transform


def test_rehost_rho_zero_direct_insertion():
    inst = make_instance(
        [Job("a", 2.0), Job("b", 1.0)],
        [Machine("slow", 0.01), Machine("fast", 1.0)],
        [("a", "b")],
        0.0,
    )
    sched = Schedule((Placement("a", "fast", 0.0), Placement("b", "slow", 2.0)))
    out = rehost_schedule(inst, sched)
    filtered = filter_slow_machines(inst).filtered
    rep = validate_schedule(filtered, out)
    assert rep.valid and rep.makespan <= 6.0 * makespan(inst, sched) + 1e-6
