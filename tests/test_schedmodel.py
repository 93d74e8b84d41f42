import math
import re

import pytest

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
from delaysched.instance import CodecError
from delaysched.schedmodel import Chain, gantt_rows, phase_count


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
    ],
    ids=["null-start", "scalar-placement", "text-placements", "null-job", "number-machine"],
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
