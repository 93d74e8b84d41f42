import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import everywhere_schedule, mid_instance, tiny_instance
from delaysched import (
    Job,
    Machine,
    Placement,
    Schedule,
    ball_grow_decomposition,
    conflict_graph,
    deduplicate_schedule,
    gen_binary_tree,
    make_instance,
    makespan,
    transitive_predecessors,
    validate_schedule,
)
from delaysched.dedup import DedupError, dedup_with_plan, duplication_width
from delaysched.instance import binary_tree_path_schedule


def test_conflict_graph_independent_sinks():
    inst = make_instance(
        [Job(x, 1.0) for x in "ab"], [Machine("m0", 1.0)], [], 1.0
    )
    preds = transitive_predecessors(inst)
    adj = conflict_graph({"a", "b"}, preds)
    assert adj == {"a": set(), "b": set()}


def test_conflict_graph_shared_parent_edge():
    inst = make_instance(
        [Job(x, 1.0) for x in "pab"],
        [Machine("m0", 1.0)],
        [("p", "a"), ("p", "b")],
        1.0,
    )
    preds = transitive_predecessors(inst)
    adj = conflict_graph({"p", "a", "b"}, preds)
    assert adj == {"a": {"b"}, "b": {"a"}}  # p is not a sink


def test_conflict_graph_fan_triangle():
    inst = make_instance(
        [Job(x, 1.0) for x in "pabc"],
        [Machine("m0", 1.0)],
        [("p", "a"), ("p", "b"), ("p", "c")],
        1.0,
    )
    preds = transitive_predecessors(inst)
    adj = conflict_graph({"p", "a", "b", "c"}, preds)
    assert adj["a"] == {"b", "c"} and adj["b"] == {"a", "c"} and adj["c"] == {"a", "b"}


def test_ball_grow_edgeless_singletons():
    regions = ball_grow_decomposition({v: set() for v in "abcd"})
    assert [set(r.members) for r in regions] == [{"a"}, {"b"}, {"c"}, {"d"}]
    assert all(r.radius == 0 for r in regions)


def test_ball_grow_star_absorbs_all():
    adj = {"a": {"b", "c", "d"}, "b": {"a"}, "c": {"a"}, "d": {"a"}}
    regions = ball_grow_decomposition(adj)
    assert len(regions) == 1
    assert regions[0].center == "a" and regions[0].radius == 1
    assert regions[0].members == {"a", "b", "c", "d"}


def test_ball_grow_path_of_two():
    regions = ball_grow_decomposition({"a": {"b"}, "b": {"a"}})
    assert len(regions) == 1
    assert regions[0].members == {"a"} and regions[0].radius == 0


def test_ball_grow_properties_on_random_graphs():
    import random

    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(1, 18)
        names = [f"v{k}" for k in range(n)]
        adj = {v: set() for v in names}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    adj[names[i]].add(names[j])
                    adj[names[j]].add(names[i])
        regions = ball_grow_decomposition(adj)  # internal checks assert
        covered = sum(len(r.members) for r in regions)
        assert 2 * covered >= n
        cap = math.ceil(math.log2(n)) if n > 1 else 0
        assert all(r.radius <= cap for r in regions)
        seen = set()
        for r in regions:
            assert not (r.members & seen)
            seen |= r.members


def reference_ball(adj, alive, center, radius):
    """The ball of ``radius`` hops around ``center`` within ``alive``, by a
    breadth-first search from the center."""
    seen = {center}
    frontier = {center}
    for _ in range(radius):
        nxt = set()
        for v in frontier:
            nxt |= adj[v] & alive
        nxt -= seen
        if not nxt:
            break
        seen |= nxt
        frontier = nxt
    return seen


def reference_ball_grow(adj):
    """Ball growing with the balls of radius x and x + 1 rebuilt from the
    center at every step, as (center, members, radius) per region."""
    alive = set(adj)
    regions = []
    while alive:
        center = min(alive)
        x = 0
        while True:
            inner = reference_ball(adj, alive, center, x)
            outer = reference_ball(adj, alive, center, x + 1)
            if len(outer) <= 2 * len(inner):
                break
            x += 1
        regions.append((center, frozenset(inner), x))
        alive -= outer
    return regions


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.sets(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=80))
def test_ball_growing_matches_the_two_search_reference(n, pairs):
    adj = {f"v{k}": set() for k in range(n)}
    for a, b in pairs:
        if a != b and a < n and b < n:
            adj[f"v{a}"].add(f"v{b}")
            adj[f"v{b}"].add(f"v{a}")
    got = [(r.center, r.members, r.radius) for r in ball_grow_decomposition(adj)]
    assert got == reference_ball_grow(adj)


def test_duplication_width_guard():
    assert duplication_width(2) == 1.0
    assert duplication_width(16) == pytest.approx(1.0 / 8.0)


def test_fast_path_identity():
    inst = tiny_instance(3)
    from delaysched.instance import topological_order

    t = 0.0
    placements = []
    for v in topological_order(inst):
        placements.append(Placement(v, inst.machines[-1].id, t))
        t += inst.size(v) / inst.machines[-1].speed
    sched = Schedule(tuple(placements))
    out, plan = dedup_with_plan(inst, sched)
    assert plan.fast_path and out == sched


def test_two_duplicated_independent_jobs_split_across_machines():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [],
        4.0,
    )
    sched = Schedule(
        (
            Placement("a", "m0", 0.0),
            Placement("b", "m0", 1.0),
            Placement("b", "m1", 0.0),
            Placement("a", "m1", 1.0),
        )
    )
    out, plan = dedup_with_plan(inst, sched)
    assert len(plan.rounds) == 1
    assignments = plan.rounds[0].assignments
    assert sorted(len(v) for v in assignments.values()) == [1, 1]
    rep = validate_schedule(inst, out)
    assert rep.valid and set(out.multiplicity().values()) == {1}


def test_binary_tree_dedup():
    inst = gen_binary_tree(3)
    sched = binary_tree_path_schedule(inst)
    out = deduplicate_schedule(inst, sched)
    rep = validate_schedule(inst, out)
    assert rep.valid
    assert set(out.multiplicity().values()) == {1}


def test_everywhere_schedules_dedup_cleanly():
    for seed in (0, 2, 5, 8, 11, 14):
        inst = tiny_instance(seed, n_max=8, m_max=3, rho_choices=(1.0, 4.0))
        sched = everywhere_schedule(inst)
        assert validate_schedule(inst, sched).valid
        out, plan = dedup_with_plan(inst, sched)
        rep = validate_schedule(inst, out)
        assert rep.valid, rep.violations[:3]
        assert set(out.multiplicity().values()) == {1}
        for stat in plan.ballgrow_stats:
            assert 2 * stat["covered"] >= stat["sinks"]


def test_rho_zero_keeps_earliest_completions():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)],
        [Machine("slow", 0.5), Machine("fast", 1.0)],
        [("a", "b")],
        0.0,
    )
    sched = Schedule(
        (
            Placement("a", "slow", 0.0),
            Placement("a", "fast", 0.0),
            Placement("b", "fast", 1.0),
        )
    )
    out, plan = dedup_with_plan(inst, sched)
    assert plan.fast_path
    assert set(out.multiplicity().values()) == {1}
    rep = validate_schedule(inst, out)
    assert rep.valid and rep.makespan == pytest.approx(2.0)
    assert all(p.machine == "fast" for p in out.placements)


def test_dedup_rejects_invalid_input():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)], [Machine("m0", 1.0)], [("a", "b")], 1.0
    )
    with pytest.raises(ValueError):
        deduplicate_schedule(inst, Schedule((Placement("b", "m0", 0.0),)))


def test_rounds_separated_by_delay():
    inst = gen_binary_tree(3)
    sched = binary_tree_path_schedule(inst)
    out, plan = dedup_with_plan(inst, sched)
    starts = [r.start for r in plan.rounds]
    assert all(b > a for a, b in zip(starts, starts[1:]))
    ends = {}
    for p in out.placements:
        rnd = max(r.start for r in plan.rounds if r.start <= p.start + 1e-9)
        ends[rnd] = max(ends.get(rnd, rnd), p.end(inst))
    for a, b in zip(starts, starts[1:]):
        assert b >= ends[a] + inst.rho - 1e-9
