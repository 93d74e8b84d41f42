import dataclasses
import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RESCALINGS, mid_instance, rescaled, scaled_placements, tiny_instance
from delaysched import (
    GroupAssignment,
    Job,
    Machine,
    MachineGroup,
    Placement,
    Schedule,
    assign_job_groups,
    build_relaxation,
    default_eta,
    exact_optimal_makespan,
    gen_binary_tree,
    gen_layered_gap,
    gen_random_dag,
    make_instance,
    makespan,
    normalize_instance,
    partition_machine_groups,
    run_group_scheduler,
    solve_lp,
    validate_schedule,
)
from delaysched import scheduler
from delaysched.cli import PipelineConfig, run_pipeline
from delaysched.instance import TOL, topological_order, transitive_predecessors
from delaysched.scheduler import (
    PRED_MASS_FACTOR,
    SchedulerInvariantError,
    _merged_events,
    _next_event,
)


def schedule_via_lp(inst, eta=None, trace=None):
    norm, _ = normalize_instance(inst)
    sol = solve_lp(build_relaxation(norm))
    asg = assign_job_groups(norm, sol)
    eta = eta if eta is not None else default_eta(norm.rho)
    return norm, run_group_scheduler(norm, asg, eta, trace=trace)


def test_default_eta_values():
    assert default_eta(math.e ** (math.e**2)) == pytest.approx(math.e**2 / 2, rel=1e-9)
    assert default_eta(2.0) == 2.0
    assert default_eta(1e6) == pytest.approx(math.log(1e6) / math.log(math.log(1e6)), rel=1e-9)
    assert default_eta(0.0) == 2.0


def test_serial_on_single_machine():
    inst = make_instance(
        [Job(f"j{k}", 1.0) for k in range(5)], [Machine("m0", 1.0)], [], 7.0
    )
    norm, sched = schedule_via_lp(inst)
    rep = validate_schedule(norm, sched)
    assert rep.valid and rep.makespan == pytest.approx(5.0)


def test_chain_matches_oracle():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [("a", "b")],
        10.0,
    )
    norm, sched = schedule_via_lp(inst, eta=2.0)
    rep = validate_schedule(norm, sched)
    opt, _ = exact_optimal_makespan(inst, allow_duplication=True)
    assert rep.valid and rep.makespan == pytest.approx(opt) == pytest.approx(2.0)


def test_binary_tree_schedules_validly():
    inst = gen_binary_tree(3)
    norm, sched = schedule_via_lp(inst)
    rep = validate_schedule(norm, sched)
    assert rep.valid
    assert rep.makespan >= 4.0 - 1e-9  # path length including the pre-root job
    lp_value = solve_lp(build_relaxation(norm)).objective
    assert rep.makespan / lp_value >= 0.5  # ratio recorded; sanity floor


def test_trace_emission():
    inst = tiny_instance(5)
    trace = []
    schedule_via_lp(inst, trace=trace)
    kinds = {e["event"] for e in trace}
    assert "place" in kinds
    assert all(set(e) >= {"event"} for e in trace)


def test_eta_load_inequality_on_corpus():
    for seed in (0, 3, 6, 9, 12, 15):
        inst = mid_instance(seed, n_max=16, m_max=5)
        result = run_pipeline(inst)
        diag = result.report.diagnostics
        assert diag["eta_load"]["ok"]
        assert diag["long_copy_group"]["ok"]


def test_invariant_checks_run_silently_on_corpus():
    # the shadow frontier/event assertions are enabled by default and must
    # never fire on well-formed runs
    for seed in range(8):
        inst = tiny_instance(seed, n_max=6, m_max=3, rho_choices=(0.0, 1.0, 4.0))
        norm, sched = schedule_via_lp(inst)
        assert validate_schedule(norm, sched).valid


def test_every_job_placed_at_least_once():
    inst = mid_instance(21, n_max=20, m_max=4)
    norm, sched = schedule_via_lp(inst)
    assert set(sched.multiplicity()) == {j.id for j in norm.jobs}


def test_pipeline_handles_zero_delay():
    # classical related-machines case: every job lands in band 1 and the
    # scheduler degenerates to a no-duplication list scheduler
    inst = make_instance(
        [Job("a", 2.0), Job("b", 1.0), Job("c", 1.0)],
        [Machine("m0", 0.5), Machine("m1", 1.0)],
        [("a", "b")],
        0.0,
    )
    result = run_pipeline(inst)
    rep = validate_schedule(result.filtered, result.schedule)
    assert rep.valid
    assert set(result.schedule.multiplicity().values()) == {1}
    assert set(result.assignment.bands.values()) == {1}


def test_rejects_bad_eta_and_partial_assignment():
    inst = tiny_instance(1)
    norm, _ = normalize_instance(inst)
    sol = solve_lp(build_relaxation(norm))
    asg = assign_job_groups(norm, sol)
    with pytest.raises(ValueError):
        run_group_scheduler(norm, asg, 0.5)
    broken = type(asg)(groups=asg.groups, mu=asg.mu, kappa={}, bands=asg.bands)
    with pytest.raises(ValueError):
        run_group_scheduler(norm, broken, 2.0)


# offsets above the clock on a coarse grid, each raised by up to 3 * TOL:
# exact repeats, the clock itself, clock + TOL exactly, and runs of times
# closer than TOL, which the merge thins by chaining
EVENT_OFFSETS = st.builds(
    lambda base, lift: base * 0.5 + lift * TOL,
    st.integers(0, 3),
    st.one_of(st.integers(0, 3), st.floats(0.0, 3.0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(EVENT_OFFSETS, max_size=6), min_size=1, max_size=12))
def test_event_clock_matches_the_full_merge_at_every_advance(batches):
    # every time is pushed at or after the clock, as the scheduler pushes them
    events, seen, clock = [], [0.0], 0.0
    for batch in batches:
        for t in (clock + offset for offset in batch):
            heapq.heappush(events, t)
            seen.append(t)
        want = next((t for t in _merged_events(seen, TOL) if t > clock + TOL), None)
        assert _next_event(events, clock, TOL) == want
        if want is not None:
            clock = want


def test_merge_keeps_a_time_by_chaining():
    # 0.9 TOL lies within TOL of 0; 1.8 TOL does not, so it is kept, and 2.7 TOL
    # lies within TOL of it
    step = 0.9 * TOL
    assert _merged_events([0.0, step, 2 * step, 2 * step, 3 * step], TOL) == [0.0, 2 * step]
    events = []
    for t in (3 * step, step, 2 * step):
        heapq.heappush(events, t)
    assert _next_event(events, 0.0, TOL) == 2 * step
    assert _next_event(events, 2 * step, TOL) is None


def test_replay_catches_a_skipped_clock_event(monkeypatch):
    # the replay against _merged_events is the only check of the heap rule in
    # a real run, so a _next_event that skips one event must trip it
    inst = mid_instance(3, n_max=40, m_max=8, rho_choices=(1.0, 4.0, 16.0))
    norm, _ = normalize_instance(inst)
    asg = assign_job_groups(norm, solve_lp(build_relaxation(norm)))
    run_group_scheduler(norm, asg, None)  # the real rule passes the replay
    skipped = []

    def skip_one(events, clock, tol):
        nxt = _next_event(events, clock, tol)
        if nxt is not None and not skipped:
            skipped.append(nxt)
            nxt = _next_event(events, nxt, tol)
        return nxt

    monkeypatch.setattr(scheduler, "_next_event", skip_one)
    with pytest.raises(SchedulerInvariantError, match="clock visited") as info:
        run_group_scheduler(norm, asg, None)
    assert str(info.value).endswith(f"expected event {skipped[0]}")


def rescan_scheduler(inst, assignment, eta, trace, visits=None):
    """Reference: the batch loop that evaluates every unplaced job on every
    visit, with no skip and no cached machine.  ``visits`` collects
    ``(job, machine, accepted)`` per evaluation."""
    rho, tol = inst.rho, inst._time_tol
    preds = transitive_predecessors(inst)
    size, speed = inst._sizes, inst._speeds
    mass_tol = TOL * min(size.values())
    bands, kappa = assignment.bands, assignment.kappa
    order = topological_order(inst, key=lambda v: (bands[v], v))
    topo_pos = {v: k for k, v in enumerate(order)}
    candidates = {v: sorted(preds[v] | {v}, key=topo_pos.__getitem__) for v in order}
    group_jobs = {g.index: [v for v in order if kappa[v] == g.index] for g in assignment.groups}
    clock = 0.0
    frontier = {mc.id: 0.0 for mc in inst.machines}
    placed, placements, events = set(), [], []
    comp_on = {v.id: {} for v in inst.jobs}
    earliest_comp = {v.id: math.inf for v in inst.jobs}
    while len(placed) < inst.n:
        for g in assignment.groups:
            for v in group_jobs[g.index]:
                if v in placed:
                    continue
                i = min(g.machine_ids, key=lambda mid: (frontier[mid], mid))
                t_i = frontier[i]
                batch = []
                for u in candidates[v]:
                    done_here = comp_on[u].get(i, math.inf) <= t_i + tol
                    done_far = earliest_comp[u] <= t_i - rho + tol
                    if not (done_here or done_far):
                        batch.append(u)
                mass = sum(size[u] for u in batch)
                mass_minus_v = mass - (size[v] if v in batch else 0.0)
                new_mass = sum(size[u] for u in batch if u not in placed)
                accepted = not (
                    mass_minus_v > PRED_MASS_FACTOR * rho * g.gamma + mass_tol
                    or new_mass < mass / eta - mass_tol
                    or any(kappa[u] < g.index for u in batch)
                )
                if visits is not None:
                    visits.append((v, i, accepted))
                if not accepted:
                    continue
                for u in batch:
                    start = frontier[i]
                    placements.append(Placement(u, i, start))
                    end = start + size[u] / speed[i]
                    frontier[i] = comp_on[u][i] = end
                    earliest_comp[u] = min(earliest_comp[u], end)
                    heapq.heappush(events, end)
                    heapq.heappush(events, end + rho)
                    trace.append({"event": "place", "job": u, "machine": i, "start": start})
                placed |= set(batch)
        if len(placed) == inst.n:
            break
        clock = _next_event(events, clock, tol)
        for mid in frontier:
            frontier[mid] = max(frontier[mid], clock)
        trace.append({"event": "sweep", "clock": clock})
    return Schedule(tuple(placements))


def _assert_matches_rescan(inst, assignment, eta):
    trace, want_trace = [], []
    got = run_group_scheduler(inst, assignment, eta, trace=trace)
    want = rescan_scheduler(inst, assignment, eta, want_trace)
    assert got.placements == want.placements
    assert trace == want_trace


DIFFERENTIAL_CORPORA = {
    "tiny": [tiny_instance(s, rho_choices=(0.0, 0.5, 1.0, 4.0)) for s in range(40)],
    "mid": [mid_instance(s) for s in range(20)],
    "layered-4-2": [gen_layered_gap(4, 2, seed=1)],
    "tied-speeds": [
        gen_random_dag(20, 4, 0.2, (1.0, 4.0), (0.5, 0.5), rho, seed=s)
        for s, rho in enumerate((0.0, 1.0, 4.0, 16.0) * 3)
    ],
    "lp_heavy-shape": [
        gen_random_dag(32, 8, 0.2, (1.0, 4.0), (0.25, 1.0), 16.0, seed=s) for s in range(10)
    ],
    "many_phases-shape": [
        gen_random_dag(150, 4, 0.01, (1.0, 4.0), (0.25, 1.0), 1.0, seed=s) for s in range(10)
    ],
}


@pytest.mark.parametrize("corpus", sorted(DIFFERENTIAL_CORPORA))
def test_skip_matches_the_rescan_loop(corpus, monkeypatch):
    # run_pipeline's own (work, assignment, eta), captured at the call
    calls = []
    real = scheduler.run_group_scheduler

    def capture(work, assignment, eta, trace=None):
        calls.append((work, assignment, eta))
        return real(work, assignment, eta, trace=trace)

    monkeypatch.setattr(scheduler, "run_group_scheduler", capture)
    for inst in DIFFERENTIAL_CORPORA[corpus]:
        run_pipeline(inst)
    monkeypatch.undo()
    assert len(calls) == len(DIFFERENTIAL_CORPORA[corpus])
    for work, assignment, eta in calls:
        _assert_matches_rescan(work, assignment, eta)


def test_skipped_job_is_accepted_later_on_another_machine():
    # b (after a, size 3) is rejected on m1 at time 0: its batch {a, b} is
    # three quarters old work.  c then moves m1's frontier to 0.5, and b's
    # second visit finds the same machine and the same batch, so it is
    # skipped.  At clock 3, m0 (where a ran) is least loaded by id and b
    # goes there alone.
    inst = make_instance(
        [Job("a", 3.0), Job("b", 1.0), Job("c", 0.5)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [("a", "b")],
        4.0,
    )
    one = {v: 1 for v in ("a", "b", "c")}
    asg = GroupAssignment((MachineGroup(1, ("m0", "m1"), 1.0),), one, one, one)
    visits = []
    rescan_scheduler(inst, asg, 2.0, [], visits)
    assert [(i, ok) for v, i, ok in visits if v == "b"] == [
        ("m1", False), ("m1", False), ("m0", True)
    ]
    _assert_matches_rescan(inst, asg, 2.0)
    sched = run_group_scheduler(inst, asg, 2.0)
    assert [(p.job, p.machine, p.start) for p in sched.placements] == [
        ("a", "m0", 0.0), ("c", "m1", 0.0), ("b", "m0", 3.0)
    ]


@pytest.mark.parametrize("a, b", RESCALINGS)
def test_power_of_two_rescaling_scales_the_group_schedule_exactly(a, b):
    # with eta fixed, the copy with sizes times 2^a, speeds (and gammas) times
    # 2^b and rho times 2^(a-b) gets the same sequence at exactly scaled
    # starts: times are judged with the instance's _time_tol and masses with
    # TOL times the smallest size; with an absolute TOL, 21 of these 30
    # schedules failed validate_schedule at (-40, 0) and at (0, 40)
    factor = 2.0 ** (a - b)
    for s in range(30):
        norm, _ = normalize_instance(gen_random_dag(12, 2, 0.5, (1, 4), (0.25, 1), 1.6, seed=s))
        asg = assign_job_groups(norm, solve_lp(build_relaxation(norm)))
        eta = default_eta(norm.rho)
        want = run_group_scheduler(norm, asg, eta)
        scaled = rescaled(norm, a, b)
        groups = tuple(dataclasses.replace(g, gamma=g.gamma * 2.0**b) for g in asg.groups)
        scaled_asg = dataclasses.replace(asg, groups=groups)
        got = run_group_scheduler(scaled, scaled_asg, eta)
        assert got.placements == scaled_placements(want, factor)
        report = validate_schedule(scaled, got)
        assert report.valid, report.violations
        _assert_matches_rescan(scaled, scaled_asg, eta)
