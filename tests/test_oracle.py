import dataclasses
import itertools
import math

import pytest

from conftest import RESCALINGS, rescaled, scaled_placements, tiny_instance
from delaysched import (
    Job,
    Machine,
    OracleLimits,
    combinatorial_baseline,
    exact_optimal_makespan,
    gen_binary_tree,
    gen_random_dag,
    make_instance,
    makespan,
    validate_schedule,
)
from delaysched.cli import run_pipeline
from delaysched.oracle import OracleLimitError


def unit(n_jobs, n_machines, edges, rho):
    return make_instance(
        [Job(x, 1.0) for x in "abcdefg"[:n_jobs]],
        [Machine(f"m{k}", 1.0) for k in range(n_machines)],
        edges,
        rho,
    )


def test_chain_on_one_machine():
    v, w = exact_optimal_makespan(unit(2, 1, [("a", "b")], 1.0), allow_duplication=True)
    assert v == pytest.approx(2.0)
    assert validate_schedule(unit(2, 1, [("a", "b")], 1.0), w).valid


def test_chain_colocation_beats_delay():
    inst = unit(2, 2, [("a", "b")], 10.0)
    v, _ = exact_optimal_makespan(inst, allow_duplication=True)
    assert v == pytest.approx(2.0)


def test_two_independent_jobs():
    v, _ = exact_optimal_makespan(unit(2, 2, [], 1.0), allow_duplication=True)
    assert v == pytest.approx(1.0)


def test_duplication_tree_value():
    inst = gen_binary_tree(2)  # 4 jobs, 2 machines
    v, w = exact_optimal_makespan(inst, allow_duplication=True)
    assert v == pytest.approx(3.0)  # one root-leaf path per machine
    assert validate_schedule(inst, w).valid


def test_nodup_at_least_dup():
    for seed in range(12):
        inst = tiny_instance(seed)
        dup, _ = exact_optimal_makespan(inst, allow_duplication=True)
        nodup, _ = exact_optimal_makespan(inst, allow_duplication=False)
        assert nodup >= dup - 1e-9


def test_pipeline_dominates_oracle():
    for seed in range(8):
        inst = tiny_instance(seed)
        dup, _ = exact_optimal_makespan(inst, allow_duplication=True)
        result = run_pipeline(inst)
        assert result.makespan >= dup - 1e-6


def test_witness_deterministic():
    inst = tiny_instance(7)
    _, w1 = exact_optimal_makespan(inst, allow_duplication=True)
    _, w2 = exact_optimal_makespan(inst, allow_duplication=True)
    assert w1 == w2


def test_limits_enforced():
    inst = unit(6, 2, [], 1.0)
    with pytest.raises(OracleLimitError):
        exact_optimal_makespan(inst, allow_duplication=True)
    exact_optimal_makespan(inst, allow_duplication=False)  # within no-dup limits


def test_limits_default_per_mode():
    assert [f.name for f in dataclasses.fields(OracleLimits)] == [
        "max_jobs", "max_machines", "time_budget"]
    for dup, jobs, machines in ((True, 5, 2), (False, 7, 3)):
        too_many_jobs = make_instance(
            [Job(f"j{k}", 1.0) for k in range(jobs + 1)], [Machine("m0", 1.0)], [], 1.0
        )
        with pytest.raises(OracleLimitError, match=rf"limits \({jobs} jobs, {machines} machines\)"):
            exact_optimal_makespan(too_many_jobs, dup)
        exact_optimal_makespan(unit(2, machines, [], 1.0), dup)
        with pytest.raises(OracleLimitError, match=rf"limits \({jobs} jobs, {machines} machines\)"):
            exact_optimal_makespan(unit(2, machines + 1, [], 1.0), dup)


@pytest.mark.parametrize("dup", [True, False])
def test_one_job_limit_and_one_machine_limit_serve_both_modes(dup):
    three_on_four = unit(3, 4, [("a", "b")], 1.0)  # past the machine default of both modes
    exact_optimal_makespan(three_on_four, dup, OracleLimits(max_jobs=3, max_machines=4))
    for limits, text in (
        (OracleLimits(max_jobs=2, max_machines=4), "2 jobs, 4 machines"),
        (OracleLimits(max_jobs=3, max_machines=3), "3 jobs, 3 machines"),
        (OracleLimits(max_jobs=0, max_machines=0), "0 jobs, 0 machines"),  # 0 is no default
    ):
        with pytest.raises(OracleLimitError, match=rf"limits \({text}\)"):
            exact_optimal_makespan(three_on_four, dup, limits)


@pytest.mark.parametrize("budget", [0.0, -1.0, 1e-9])
def test_exhausted_time_budget_stops_the_search(budget):
    with pytest.raises(OracleLimitError, match="time budget exhausted"):
        exact_optimal_makespan(tiny_instance(7), True, OracleLimits(time_budget=budget))


def test_nan_time_budget_is_rejected():
    # a NaN deadline is never reached: without the check the search ran unlimited
    with pytest.raises(OracleLimitError, match="time budget nan is not a number"):
        exact_optimal_makespan(tiny_instance(7), True, OracleLimits(time_budget=math.nan))


def _fixpoint_makespan(inst, seqs):
    """Earliest starts for fixed per-machine sequences, by naive relaxation.

    Returns the makespan, or None when the sequences deadlock (cyclic waits).
    """
    dpred = inst.direct_predecessors()
    copies = [(v, m) for m, seq in seqs.items() for v in seq]
    start = {c: 0.0 for c in copies}
    horizon = sum(inst.size(v) / min(mc.speed for mc in inst.machines) for v in
                  {c[0] for c in copies}) * len(copies) + 10 * inst.rho + 10
    for _ in range(len(copies) * len(copies) + 4):
        changed = False
        for m, seq in seqs.items():
            t = 0.0
            for v in seq:
                lo = max(start[(v, m)], t)
                for u in dpred[v]:
                    opts = []
                    for m2, seq2 in seqs.items():
                        if u in seq2:
                            cu = start[(u, m2)] + inst.size(u) / inst.speed(m2)
                            opts.append(cu if m2 == m else cu + inst.rho)
                    lo = max(lo, min(opts))
                if lo > start[(v, m)] + 1e-12:
                    start[(v, m)] = lo
                    changed = True
                t = start[(v, m)] + inst.size(v) / inst.speed(m)
        if not changed:
            break
        if max(start.values()) > horizon:
            return None
    else:
        return None
    return max(start[(v, m)] + inst.size(v) / inst.speed(m) for v, m in copies)


def _exhaustive_optimum(inst, allow_duplication):
    """Independent oracle: every assignment x every per-machine permutation."""
    jobs = [j.id for j in inst.jobs]
    machines = [mc.id for mc in inst.machines]
    if allow_duplication:
        subsets = [
            s
            for r in range(1, len(machines) + 1)
            for s in itertools.combinations(machines, r)
        ]
    else:
        subsets = [(m,) for m in machines]
    best = math.inf
    for combo in itertools.product(subsets, repeat=len(jobs)):
        assign = dict(zip(jobs, combo))
        per = {m: [v for v in jobs if m in assign[v]] for m in machines}
        for orders in itertools.product(
            *[itertools.permutations(per[m]) for m in machines]
        ):
            seqs = dict(zip(machines, orders))
            ms = _fixpoint_makespan(inst, seqs)
            if ms is not None:
                best = min(best, ms)
    return best


def test_nodup_oracle_matches_exhaustive_cross_check():
    for seed in (0, 2, 5, 9):
        inst = tiny_instance(seed, n_max=4, m_max=2)
        v, _ = exact_optimal_makespan(inst, allow_duplication=False)
        assert v == pytest.approx(_exhaustive_optimum(inst, False), abs=1e-7)


def test_dup_oracle_matches_exhaustive_cross_check():
    for seed in (1, 3, 6, 10, 14):
        inst = tiny_instance(seed, n_max=3, m_max=2)
        v, _ = exact_optimal_makespan(inst, allow_duplication=True)
        assert v == pytest.approx(_exhaustive_optimum(inst, True), abs=1e-7)


def test_baseline_independent_unit_jobs():
    inst = unit(4, 2, [], 1.0)
    sched = combinatorial_baseline(inst)
    rep = validate_schedule(inst, sched)
    assert rep.valid and rep.makespan == pytest.approx(2.0)


def test_baseline_single_machine_serial():
    inst = unit(3, 1, [], 2.0)
    sched = combinatorial_baseline(inst)
    rep = validate_schedule(inst, sched)
    assert rep.valid and rep.makespan == pytest.approx(3.0)


def test_baseline_chain_fan_comparison():
    # scaled-down chain-plus-fans with one fast machine
    jobs = [Job("c1", 1.0), Job("c2", 1.0), Job("c3", 1.0), Job("c4", 1.0)]
    edges = [("c1", "c2"), ("c2", "c3"), ("c3", "c4")]
    for k in range(1, 5):
        for d in range(4):
            jobs.append(Job(f"f{k}_{d}", 1.0))
            edges.append((f"c{k}", f"f{k}_{d}"))
    inst = make_instance(
        jobs,
        [Machine(f"m{k}", 2.0) for k in range(3)] + [Machine("big", 8.0)],
        edges,
        4.0,
    )
    base = combinatorial_baseline(inst)
    rep = validate_schedule(inst, base)
    assert rep.valid
    result = run_pipeline(inst)
    assert result.makespan > 0  # both recorded; no dominance asserted


def test_baseline_valid_on_corpus():
    for seed in range(10):
        inst = tiny_instance(seed, n_max=8, m_max=3, rho_choices=(0.0, 1.0, 4.0))
        sched = combinatorial_baseline(inst)
        assert validate_schedule(inst, sched).valid


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
def test_baseline_valid_far_from_unit_scale(scale):
    # one recipe at three scales: times are judged relative to the instance's
    # time unit, so an absolute 1e-9 neither swamps 1e-12 times nor vanishes
    # below the resolution of 1e7 ones
    inst = gen_random_dag(12, 2, 0.5, (scale, 4 * scale), (0.25, 1.0), 16 * scale, 0)
    rep = validate_schedule(inst, combinatorial_baseline(inst))
    assert rep.valid, rep.violations[:2]


@pytest.mark.parametrize("a, b", RESCALINGS)
@pytest.mark.parametrize("dup", [False, True])
def test_power_of_two_rescaling_scales_the_optimum_exactly(a, b, dup):
    # the search prunes with the instance's _time_tol, so a copy with sizes
    # times 2^a, speeds times 2^b and rho times 2^(a-b) has exactly the scaled
    # optimum and witness; with an absolute 1e-12, 15 of these 40 optima
    # were off in each mode at (-40, 0) and at (0, 40)
    factor = 2.0 ** (a - b)
    for s in range(40):
        inst = gen_random_dag(4, 2, 0.4, (1, 3), (0.4, 1), 1.0, seed=s)
        value, witness = exact_optimal_makespan(inst, dup)
        got_value, got_witness = exact_optimal_makespan(rescaled(inst, a, b), dup)
        assert got_value == value * factor
        assert got_witness.placements == scaled_placements(witness, factor)
