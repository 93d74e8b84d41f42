import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mid_instance, tiny_instance
from delaysched import (
    Job,
    Machine,
    Placement,
    Schedule,
    build_chain,
    build_relaxation,
    check_lp_feasibility,
    classify_phases,
    embed_schedule_as_lp,
    gen_random_dag,
    make_instance,
    makespan,
    run_pipeline,
    schedule_from_json,
    schedule_to_json,
    validate_schedule,
)
from delaysched.dedup import dedup_with_plan
from delaysched.grouping import partition_machine_groups
from delaysched.instance import TOL, CodecError, validate_instance
from delaysched.oracle import exact_optimal_makespan
from delaysched.schedmodel import MAX_PHASES, Chain, _phase_sums, gantt_rows, phase_count


def unit_pair(rho):
    return make_instance(
        [Job("a", 1.0), Job("b", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [("a", "b")],
        rho,
    )


def test_valid_colocated_chain():
    inst = unit_pair(4.0)
    sched = Schedule((Placement("a", "m0", 0.0), Placement("b", "m0", 1.0)))
    rep = validate_schedule(inst, sched)
    assert rep.valid and rep.makespan == pytest.approx(2.0)


def test_delay_violation_detected():
    inst = unit_pair(4.0)
    sched = Schedule((Placement("a", "m0", 0.0), Placement("b", "m1", 1.0 + 4.0 - 0.5)))
    rep = validate_schedule(inst, sched)
    assert not rep.valid
    assert any("delay" in v for v in rep.violations)


def test_delay_violations_listed_by_edge_then_placement():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0), Job("c", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0), Machine("m2", 1.0)],
        [("a", "c"), ("b", "c")],
        4.0,
    )
    sched = Schedule((
        Placement("a", "m0", 0.0), Placement("b", "m1", 0.0),
        Placement("c", "m1", 1.0), Placement("c", "m2", 1.0), Placement("c", "m0", 1.0),
    ))
    assert validate_schedule(inst, sched).violations == (
        "delay violation: c on m1 at 1 without usable copy of a",
        "delay violation: c on m2 at 1 without usable copy of a",
        "delay violation: c on m2 at 1 without usable copy of b",
        "delay violation: c on m0 at 1 without usable copy of b",
    )


def test_missing_predecessor_detected():
    inst = unit_pair(4.0)
    sched = Schedule((Placement("b", "m0", 0.0), Placement("a", "m1", 5.0)))
    rep = validate_schedule(inst, sched)
    assert not rep.valid


def test_overlap_detected():
    inst = unit_pair(0.0)
    sched = Schedule(
        (Placement("a", "m0", 0.0), Placement("b", "m0", 0.5))
    )
    rep = validate_schedule(inst, sched)
    assert any("overlap" in v for v in rep.violations)


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_non_finite_start_detected(start):
    inst = unit_pair(4.0)
    sched = Schedule((Placement("a", "m0", 0.0), Placement("b", "m0", 1.0),
                      Placement("b", "m1", start)))
    rep = validate_schedule(inst, sched)
    assert not rep.valid and rep.makespan == 0.0
    assert rep.violations == ("non-finite start for b on m1",)


def test_unplaced_job_detected():
    inst = unit_pair(1.0)
    rep = validate_schedule(inst, Schedule((Placement("a", "m0", 0.0),)))
    assert any("never placed" in v for v in rep.violations)


@pytest.mark.parametrize("k", [-20, 20, 30])
def test_rescaled_pipeline_schedules_validate(k):
    # lp_heavy-shaped instances with sizes and rho times 2**k normalize to the
    # unscaled ones exactly, so the schedule scales exactly; at 2**20 its times
    # reach about 1e7, where an absolute TOL of 1e-9 is below float resolution
    scale = 2.0**k
    for seed in range(30):
        base = gen_random_dag(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, seed)
        inst = make_instance([Job(v.id, v.size * scale) for v in base.jobs], base.machines,
                             base.edges, base.rho * scale)
        result = run_pipeline(inst)
        report = validate_schedule(result.filtered, result.schedule)
        assert report.valid, (seed, report.violations[:3])
        assert result.makespan == run_pipeline(base).makespan * scale


def brute_force_violations(inst, sched):
    """The violation messages of ``sched``, found by scanning every pair of
    placements and every copy of each predecessor, with the time tolerance
    computed here from min size and max speed."""
    tol = TOL * min(j.size for j in inst.jobs) / max(mc.speed for mc in inst.machines)
    size = {j.id: j.size for j in inst.jobs}
    speed = {mc.id: mc.speed for mc in inst.machines}
    ps = sched.placements
    bad = []
    for p in ps:
        if p.job not in size:
            bad.append(f"unknown job {p.job}")
        if p.machine not in speed:
            bad.append(f"unknown machine {p.machine}")
        if not math.isfinite(p.start):
            bad.append(f"non-finite start for {p.job} on {p.machine}")
        elif p.start < -tol:
            bad.append(f"negative start for {p.job} on {p.machine}")
    if bad:
        return bad, 0.0
    placed = {p.job for p in ps}
    bad += [f"job {j.id} never placed" for j in inst.jobs if j.id not in placed]
    end = [p.start + size[p.job] / speed[p.machine] for p in ps]
    key = [(p.start, p.job, k) for k, p in enumerate(ps)]
    for b, q in enumerate(ps):
        same = [a for a, p in enumerate(ps) if p.machine == q.machine and a != b]
        if any(ps[a].job == q.job for a in same if a < b):
            bad.append(f"job {q.job} placed twice on machine {q.machine}")
        # q overlaps the placement that runs just before it on its machine
        before = [a for a in same if key[a] < key[b]]
        for a in before:
            if all(not key[a] < key[r] for r in before) and q.start < end[a] - tol:
                bad.append(f"overlap on {q.machine}: {ps[a].job} and {q.job}")
    for u, v in inst.edges:
        if u not in placed:
            continue  # reported as never placed
        for q in (q for q in ps if q.job == v):
            if not any(
                p.job == u and (end[a] <= q.start + tol if p.machine == q.machine
                                else end[a] <= q.start - inst.rho + tol)
                for a, p in enumerate(ps)
            ):
                bad.append(f"delay violation: {v} on {q.machine} at {q.start:.6g} "
                           f"without usable copy of {u}")
    return bad, max(end, default=0.0)


@st.composite
def perturbed_schedules(draw):
    """A pipeline schedule or an oracle witness on a small instance (n <= 6,
    m <= 3, sizes and rho at one of three scales), with up to three copies
    shifted, dropped, moved to another machine or duplicated."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 2.0**-30, 1e6]))
    rho = draw(st.sampled_from([0.0, 0.5, 1.0, 4.0])) * scale
    inst = gen_random_dag(n, m, draw(st.sampled_from([0.2, 0.5, 0.8])), (scale, 4 * scale),
                          (0.25, 1.0), rho, draw(st.integers(0, 10**6)))
    source = draw(st.sampled_from(["pipeline", "oracle", "oracle_dup"]))
    if source == "pipeline":
        result = run_pipeline(inst)
        inst, sched = result.filtered, result.schedule
    else:
        dup = source == "oracle_dup" and n <= 5 and m <= 2
        sched = exact_optimal_makespan(inst, dup)[1]
    tol = TOL * min(j.size for j in inst.jobs) / max(mc.speed for mc in inst.machines)
    # shifts by a fraction of the tolerance test its edges, larger ones break the schedule
    shifts = [-3 * tol, -tol / 2, tol / 2, 3 * tol] * 2 + [-rho, rho / 2, -scale, scale]
    ps = list(sched.placements)
    mids = [mc.id for mc in inst.machines]
    for _ in range(draw(st.integers(0, 3))):
        if not ps:
            break
        k = draw(st.integers(0, len(ps) - 1))
        p, op = ps[k], draw(st.sampled_from(["shift", "shift", "drop", "move", "duplicate"]))
        if op == "shift":
            ps[k] = Placement(p.job, p.machine, p.start + draw(st.sampled_from(shifts)))
        elif op == "drop":
            del ps[k]
        else:
            moved = Placement(p.job, draw(st.sampled_from(mids)), p.start)
            if op == "move":
                ps[k] = moved
            else:
                ps.insert(draw(st.integers(0, len(ps))), moved)
    return inst, Schedule(tuple(ps))


@settings(max_examples=300, deadline=None)
@given(perturbed_schedules())
@example((unit_pair(4.0), Schedule((  # b arrives from m0 half a tolerance early
    Placement("a", "m0", 0.0), Placement("b", "m1", 5.0 - TOL / 2)))))
@example((unit_pair(4.0), Schedule((  # b starts on m0 half a tolerance before a ends
    Placement("a", "m0", 0.0), Placement("b", "m0", 1.0 - TOL / 2)))))
@example((make_instance(  # a start exactly at -tol, TOL * min size / max speed
    [Job("j0", 1.4030927323372038)], [Machine("m0", 0.8855753027029245)], [], 0.0),
    Schedule((Placement("j0", "m0", -1.5843855717912744e-09),))))
def test_validate_schedule_matches_brute_force_checker(case):
    inst, sched = case
    report = validate_schedule(inst, sched)
    bad, span = brute_force_violations(inst, sched)
    assert report.valid == (not bad)
    assert sorted(report.violations) == sorted(bad)
    assert report.makespan == span


def _rescaled(inst, sched, k):
    """``inst`` and ``sched`` with sizes, rho and starts times 2**k, exactly."""
    f = 2.0**k
    scaled = make_instance([Job(j.id, j.size * f) for j in inst.jobs], inst.machines,
                           inst.edges, inst.rho * f)
    return scaled, Schedule(tuple(Placement(p.job, p.machine, p.start * f)
                                  for p in sched.placements))


@pytest.mark.parametrize("k", [-40, 40])
def test_chain_and_labels_survive_power_of_two_rescaling(k):
    # the analyses and transforms judge times on the normalized scale; with an
    # absolute TOL, no placement at 2**-40 would be long, every phase would be
    # chain, every pair would count as same-phase in the embedding, and dedup
    # would mark other spanning jobs
    recipes = [(30, 3, 0.1, (1, 4), (0.25, 1), 0.25, s) for s in range(20)]
    recipes.append((40, 3, 0.05, (1, 4), (0.25, 1), 1.0, 3))
    links, labels = 0, set()
    for recipe in recipes:
        result = run_pipeline(gen_random_dag(*recipe))
        inst, sched = result.filtered, result.schedule
        scaled, scaled_sched = _rescaled(inst, sched, k)
        assert validate_instance(scaled).ok  # so times are judged on its normalized scale
        chain, scaled_chain = build_chain(inst, sched), build_chain(scaled, scaled_sched)
        assert [(p.job, p.machine) for p in scaled_chain.links] == [
            (p.job, p.machine) for p in chain.links
        ]
        assert scaled_chain.windows == chain.windows
        got = classify_phases(inst, sched, chain)
        assert classify_phases(scaled, scaled_sched, scaled_chain) == got
        model, scaled_model = build_relaxation(inst), build_relaxation(scaled)
        point = embed_schedule_as_lp(inst, sched, model)
        scaled_point = embed_schedule_as_lp(scaled, scaled_sched, scaled_model)
        assert check_lp_feasibility(scaled_point, scaled_model) == []
        z = model._layout.x_end
        assert scaled_point.values[z:] == point.values[z:]
        deduped, plan = dedup_with_plan(inst, sched)
        scaled_deduped, scaled_plan = dedup_with_plan(scaled, scaled_sched)
        assert scaled_plan.marked == plan.marked
        assert scaled_deduped == _rescaled(inst, deduped, k)[1]
        links += len(chain.links)
        labels.update(got)
    assert links and labels == {"chain", "load", "height"}


def big_small_instance():
    # big tail job preceded by an even bigger one; both long on slow machines
    return make_instance(
        [Job("huge", 40.0), Job("big", 20.0), Job("tiny", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [("huge", "big"), ("big", "tiny")],
        1.0,
    )


def test_chain_empty_without_long_pairs():
    inst = unit_pair(4.0)
    sched = Schedule((Placement("a", "m0", 0.0), Placement("b", "m0", 1.0)))
    chain = build_chain(inst, sched)
    assert chain.links == ()
    assert chain.windows[0] == {"a", "b"}


def test_single_long_pair_chain():
    inst = make_instance(
        [Job("big", 20.0)], [Machine("m0", 1.0)], [], 1.0
    )
    sched = Schedule((Placement("big", "m0", 0.0),))
    chain = build_chain(inst, sched)
    assert [(p.job, p.machine) for p in chain.links] == [("big", "m0")]


def test_two_link_chain_recurrence():
    inst = big_small_instance()
    sched = Schedule(
        (
            Placement("huge", "m0", 0.0),
            Placement("big", "m0", 40.0),
            Placement("tiny", "m0", 60.0),
        )
    )
    chain = build_chain(inst, sched)
    assert [p.job for p in chain.links] == ["big", "huge"]  # newest link first
    # windows: jobs completing after the first link, then between links
    assert "tiny" in chain.windows[0]
    assert chain.windows[-1] == frozenset()  # nothing precedes "huge"


def test_phase_classification_rules():
    inst = make_instance(
        [Job("long", 40.0), Job("filler", 4.0), Job("x", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [],
        4.0,
    )
    # m0 runs the long job from t=0; m1 runs filler then idles; x parks late
    sched = Schedule(
        (
            Placement("long", "m0", 0.0),
            Placement("filler", "m1", 0.0),
            Placement("x", "m1", 28.0),
        )
    )
    chain = build_chain(inst, sched)
    assert [p.job for p in chain.links] == ["long"]
    labels = classify_phases(inst, sched, chain)
    assert labels[0] == "chain"  # long-job execution dominates every phase
    assert set(labels) == {"chain"}

    # no chain: fully busy group -> load, empty region -> height
    inst2 = make_instance(
        [Job("a", 4.0), Job("b", 4.0), Job("late", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [],
        4.0,
    )
    sched2 = Schedule(
        (
            Placement("a", "m0", 0.0),
            Placement("b", "m1", 0.0),
            Placement("late", "m0", 11.0),
        )
    )
    labels2 = classify_phases(inst2, sched2, Chain((), (frozenset(),)))
    assert labels2[0] == "load"
    assert labels2[1] == "height"  # empty region: nothing runs in [4, 8)


def test_phases_partition_makespan():
    for seed in (1, 4, 7):
        inst = mid_instance(seed, n_max=12, m_max=3)
        from delaysched.cli import run_pipeline

        res = run_pipeline(inst)
        labels = res.report.phase_labels
        norm_makespan = res.report.makespan
        rho = (
            __import__("delaysched").normalize_instance(inst)[0].rho
        )
        assert len(labels) == max(1, math.ceil(norm_makespan / rho - 1e-9))


def test_classify_rejects_nonpositive_rho():
    inst = make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [], 0.0)
    sched = Schedule((Placement("a", "m0", 0.0),))
    with pytest.raises(ValueError):
        classify_phases(inst, sched, Chain((), (frozenset(),)))


def _reference_overlaps(inst, placements, tau):
    """Per-phase reference: every placement's overlap with phase tau, summed."""
    lo, hi = tau * inst.rho, (tau + 1) * inst.rho
    return sum(max(0.0, min(hi, p.end(inst)) - max(lo, p.start)) for p in placements)


def _reference_labels(inst, sched, chain, groups):
    """Phase labels recomputed phase by phase over every placement."""
    half = inst.rho / 2 - TOL
    by_machine = sched.by_machine()
    labels = []
    for tau in range(phase_count(inst, sched)):
        if _reference_overlaps(inst, chain.links, tau) >= half:
            labels.append("chain")
            continue
        busy = {
            mc.id: _reference_overlaps(inst, by_machine.get(mc.id, []), tau) >= half
            for mc in inst.machines
        }
        if any(all(busy[i] for i in g.machine_ids) for g in groups):
            labels.append("load")
        else:
            labels.append("height")
    return labels


@st.composite
def phase_cases(draw):
    """Instance, schedule and chain for phase classification.

    Dyadic rho and speeds put starts and ends exactly on phase boundaries
    (and can make the makespan a multiple of rho); rho = 0.3 or 1/3 puts them
    within rounding of one.  Speeds a factor 2 or more apart form several
    groups, a machine may stay idle, and long placements span many phases.
    """
    rho = draw(st.sampled_from([0.5, 1.0, 2.0, 0.3, 1 / 3]))
    speeds = draw(st.lists(st.sampled_from([0.125, 0.25, 0.3, 0.5, 1.0, 1.5, 4.0]),
                           min_size=1, max_size=5))
    machines = [Machine(f"m{i}", s) for i, s in enumerate(speeds)]
    jobs, placements = [], []
    for mc in machines:
        t = 0.0
        for _ in range(draw(st.integers(0, 5))):  # zero placements: an idle machine
            if draw(st.booleans()):
                t = draw(st.integers(math.ceil(t / rho), math.ceil(t / rho) + 3)) * rho
            duration = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 7.0, 12.5])) * rho
            job = f"j{len(jobs)}"
            jobs.append(Job(job, duration * mc.speed))
            placements.append(Placement(job, mc.id, t))
            t += duration
    if not placements:
        jobs.append(Job("only", rho * speeds[0]))
        placements.append(Placement("only", machines[0].id, 0.0))
    inst = make_instance(jobs, machines, [], rho)
    links = draw(st.lists(st.sampled_from(placements), unique=True, max_size=4))
    return inst, Schedule(tuple(placements)), Chain(tuple(links), ())


@settings(max_examples=200, deadline=None)
@given(phase_cases())
@example((  # makespan exactly 3*rho: three phases, none past it
    make_instance([Job("a", 2.0), Job("b", 3.0)], [Machine("m0", 1.0), Machine("m1", 1.0)], [], 1.0),
    Schedule((Placement("a", "m0", 1.0), Placement("b", "m1", 0.0))),
    Chain((), ()),
))
def test_classify_phases_matches_per_phase_reference(case):
    inst, sched, chain = case
    groups = partition_machine_groups(inst)
    assert classify_phases(inst, sched, chain) == _reference_labels(inst, sched, chain, groups)
    # the one-pass sums are the per-phase sums bit for bit
    count = phase_count(inst, sched)
    by_machine = sched.by_machine()
    for placements in (chain.links, *by_machine.values()):
        spans = [(p.start, p.end(inst)) for p in placements]
        assert _phase_sums(inst.rho, spans, count) == [
            _reference_overlaps(inst, placements, tau) for tau in range(count)
        ]


@pytest.mark.parametrize("makespan_in_phases, count", [
    (MAX_PHASES, MAX_PHASES), (2 * MAX_PHASES, None), (math.inf, None),
])
def test_phase_count_is_bounded(makespan_in_phases, count):
    # a makespan of 2 over rho 5e-324 spans an infinite number of phases
    rho = 2.0 / makespan_in_phases if math.isfinite(makespan_in_phases) else 5e-324
    sched = Schedule((Placement("a", "m0", 0.0), Placement("b", "m0", 1.0)))
    if count is None:
        with pytest.raises(ValueError, match="phase analysis stops above 1,000,000"):
            phase_count(unit_pair(rho), sched)
    else:
        assert phase_count(unit_pair(rho), sched) == count


def test_schedule_codec_round_trip():
    sched = Schedule((Placement("a", "m0", 0.125),))
    assert schedule_from_json(schedule_to_json(sched)) == sched


def test_schedule_codec_missing_field():
    with pytest.raises(CodecError, match="placements"):
        schedule_from_json("{}")
    with pytest.raises(CodecError, match="start"):
        schedule_from_json('{"placements": [{"job": "a", "machine": "m0"}]}')


@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"placements": [{"job": "a", "machine": "m0", "start": null}]}', "'start' in placements[0]"),
        ('{"placements": [1]}', "placements[0] must be an object"),
        ('{"placements": "a"}', "'placements' in schedule document must be an array"),
        ('{"placements": [{"job": null, "machine": "m0", "start": 0}]}',
         "'job' in placements[0] must be a string"),
        ('{"placements": [{"job": "a", "machine": 0, "start": 0}]}',
         "'machine' in placements[0] must be a string"),
        ('{"placements": [{"job": "a", "machine": "m0", "start": "0"}]}',
         "'start' in placements[0] must be a number"),
        ('{"placements": [{"job": "a", "machine": "m0", "start": false}]}',
         "'start' in placements[0] must be a number"),
        ('{"placements": [', "not valid JSON: "),
        ("[" * 100_000, "JSON nested too deeply to decode"),
    ],
    ids=["null-start", "scalar-placement", "text-placements", "null-job", "number-machine",
         "text-start", "bool-start", "truncated", "deep"],
)
def test_schedule_codec_rejects_malformed_fields(doc, field):
    with pytest.raises(CodecError, match=re.escape(field)):
        schedule_from_json(doc)


def test_gantt_rows_cover_all_machines():
    inst = unit_pair(1.0)
    sched = Schedule((Placement("a", "m0", 0.0), Placement("b", "m0", 1.0)))
    rows = gantt_rows(inst, sched)
    assert set(rows) == {"m0", "m1"}
    assert rows["m0"][0]["end"] == pytest.approx(1.0)
    assert rows["m1"] == []
