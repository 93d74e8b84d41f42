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
    classify_phases,
    make_instance,
    makespan,
    schedule_from_json,
    schedule_to_json,
    validate_schedule,
)
from delaysched.grouping import partition_machine_groups
from delaysched.instance import TOL, CodecError
from delaysched.schedmodel import Chain, _phase_sums, gantt_rows, phase_count


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


def test_unplaced_job_detected():
    inst = unit_pair(1.0)
    rep = validate_schedule(inst, Schedule((Placement("a", "m0", 0.0),)))
    assert any("never placed" in v for v in rep.violations)


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
        assert _phase_sums(inst, placements, count) == [
            _reference_overlaps(inst, placements, tau) for tau in range(count)
        ]


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
    ],
    ids=["null-start", "scalar-placement", "text-placements", "null-job", "number-machine",
         "text-start", "bool-start"],
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
