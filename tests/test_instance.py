import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_instance
from delaysched import (
    Job,
    Machine,
    gen_binary_tree,
    gen_layered_gap,
    gen_random_dag,
    instance_from_json,
    instance_to_json,
    make_instance,
    normalize_instance,
    transitive_predecessors,
    validate_instance,
)
from delaysched.instance import CodecError, Instance


def test_minimal_instance_is_valid():
    inst = make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [], 0.0)
    assert validate_instance(inst).ok


def test_dangling_edge_reported():
    inst = make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [("a", "b")], 0.0)
    report = validate_instance(inst)
    assert any("dangling" in v for v in report.violations)


def test_cycle_reported():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)], [Machine("m0", 1.0)], [("a", "b"), ("b", "a")], 0.0
    )
    assert any("cycle" in v for v in validate_instance(inst).violations)


def test_unsorted_machines_reported():
    inst = Instance(
        (Job("a", 1.0),), (Machine("m1", 2.0), Machine("m0", 1.0)), (), 0.0
    )
    assert any("sorted" in v for v in validate_instance(inst).violations)


@pytest.mark.parametrize(
    "jobs, machines, rho, expected",
    [
        ([Job("a", 1.0)], [Machine("m0", 1.0)], math.nan, "rho must be finite"),
        ([Job("a", 1.0)], [Machine("m0", 1.0)], math.inf, "rho must be finite"),
        ([Job("a", math.nan)], [Machine("m0", 1.0)], 1.0, "job a: size must be finite"),
        ([Job("a", math.inf)], [Machine("m0", 1.0)], 1.0, "job a: size must be finite"),
        ([Job("a", 1.0)], [Machine("m0", math.nan)], 1.0, "machine m0: speed must be finite"),
        ([Job("a", 1.0)], [Machine("m0", -math.inf)], 1.0, "machine m0: speed must be finite"),
        ([], [Machine("m0", 1.0)], 1.0, "no jobs"),
        ([Job("a", 1.0)], [], 1.0, "no machines"),
    ],
)
def test_bad_numbers_and_empty_sets_reported(jobs, machines, rho, expected):
    inst = Instance(tuple(jobs), tuple(machines), (), rho)
    assert expected in validate_instance(inst).violations


def test_lookups_on_direct_instance_ignore_equality():
    jobs = (Job("a", 2.0), Job("b", 3.0))
    machines = (Machine("m0", 0.5), Machine("m1", 1.0))
    inst = Instance(jobs, machines, (("a", "b"),), 1.0)
    assert (inst.size("b"), inst.speed("m0"), inst.machine_index("m1")) == (3.0, 0.5, 2)
    preds = transitive_predecessors(inst)
    assert transitive_predecessors(inst) is preds and preds["b"] == {"a"}
    with pytest.raises(TypeError):
        preds["b"] = frozenset()
    fresh = Instance(jobs, machines, (("a", "b"),), 1.0)
    assert inst == fresh and hash(inst) == hash(fresh)
    with pytest.raises(KeyError):
        inst.machine_index("m9")


def _paths_oracle(inst):
    """Independent predecessor oracle: DFS path existence from every node."""
    succ = inst.successors()

    def reachable(src):
        seen, stack = set(), [src]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    out = {j.id: set() for j in inst.jobs}
    for j in inst.jobs:
        for w in reachable(j.id):
            out[w].add(j.id)
    return out


def test_chain_predecessors():
    inst = make_instance(
        [Job(x, 1.0) for x in "abc"], [Machine("m0", 1.0)], [("a", "b"), ("b", "c")], 0.0
    )
    preds = transitive_predecessors(inst)
    assert preds["c"] == {"a", "b"} and preds["a"] == frozenset()


def test_no_edges_no_predecessors():
    inst = make_instance([Job(x, 1.0) for x in "ab"], [Machine("m0", 1.0)], [], 0.0)
    assert all(not p for p in transitive_predecessors(inst).values())


def test_diamond_predecessors_match_path_oracle():
    inst = make_instance(
        [Job(x, 1.0) for x in "abcd"],
        [Machine("m0", 1.0)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        0.0,
    )
    preds = transitive_predecessors(inst)
    assert preds["d"] == {"a", "b", "c"}
    assert {k: set(v) for k, v in preds.items()} == _paths_oracle(inst)


def test_predecessors_match_path_oracle_on_corpus():
    for seed in range(40):
        inst = tiny_instance(seed, n_max=12, m_max=3)
        preds = transitive_predecessors(inst)
        assert {k: set(v) for k, v in preds.items()} == _paths_oracle(inst)


def test_transitive_predecessors_rejects_invalid():
    bad = make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [("a", "x")], 0.0)
    with pytest.raises(ValueError):
        transitive_predecessors(bad)


def test_normalize_scales_sizes_speeds_and_delay():
    inst = make_instance(
        [Job("a", 2.0), Job("b", 4.0)], [Machine("m0", 0.5)], [], 3.0
    )
    norm, scale = normalize_instance(inst)
    assert [j.size for j in norm.jobs] == [1.0, 2.0]
    assert [mc.speed for mc in norm.machines] == [1.0]
    # times scale by alpha/beta = (1/2)/2, and rho scales with them
    assert scale.alpha == 0.5 and scale.beta == 2.0
    assert norm.rho == pytest.approx(3.0 * scale.alpha / scale.beta)


def test_normalize_identity_cases():
    inst = make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [], 2.0)
    norm, scale = normalize_instance(inst)
    assert norm == inst and scale.alpha == scale.beta == 1.0


def test_normalize_preserves_oracle_makespan():
    from delaysched import exact_optimal_makespan

    for seed in (0, 3, 9, 12):
        inst = tiny_instance(seed, n_max=5, m_max=2)
        norm, scale = normalize_instance(inst)
        before, _ = exact_optimal_makespan(inst, allow_duplication=True)
        after, _ = exact_optimal_makespan(norm, allow_duplication=True)
        assert after == pytest.approx(before * scale.time_scale, abs=1e-9)


def test_gen_random_dag_edge_prob_extremes():
    loose = gen_random_dag(5, 2, 0.0, (1, 2), (1, 1), 1.0, seed=0)
    assert not loose.edges
    total = gen_random_dag(3, 1, 1.0, (1, 2), (1, 1), 1.0, seed=0)
    preds = transitive_predecessors(total)
    assert sorted(len(p) for p in preds.values()) == [0, 1, 2]


def test_gen_random_dag_deterministic():
    a = gen_random_dag(8, 3, 0.4, (1, 3), (0.5, 1), 2.0, seed=42)
    b = gen_random_dag(8, 3, 0.4, (1, 3), (0.5, 1), 2.0, seed=42)
    assert a == b


def test_generated_instances_validate():
    for seed in range(20):
        assert validate_instance(tiny_instance(seed)).ok
    assert validate_instance(gen_layered_gap(2, 2, 0)).ok
    assert validate_instance(gen_binary_tree(3)).ok


def test_layered_gap_shape():
    inst = gen_layered_gap(2, 4, seed=5)
    assert inst.rho == 16 and inst.m == 16
    per_layer = [j.id for j in inst.jobs if j.id.startswith("L1_")]
    assert len(per_layer) == 128 and inst.n == 256
    assert len(inst.edges) == 512


def test_layered_gap_degenerate_degree():
    inst = gen_layered_gap(2, 1, seed=5)
    assert inst.rho == 2 and inst.m == 2
    layer1 = [j.id for j in inst.jobs if j.id.startswith("L1_")]
    assert len(layer1) == 2
    preds = transitive_predecessors(inst)
    assert all(len(preds[v]) == 1 for v in layer1)


def test_layered_gap_degree_regular_and_deterministic():
    a = gen_layered_gap(2, 2, seed=9)
    b = gen_layered_gap(2, 2, seed=9)
    assert a.edges == b.edges
    direct = a.direct_predecessors()
    sizes = {}
    for j in a.jobs:
        layer = int(j.id[1 : j.id.index("_")])
        sizes.setdefault(layer, 0)
        sizes[layer] += 1
        if layer < 2:
            assert len(direct[j.id]) == 2
            assert len(set(direct[j.id])) == 2
    assert len(set(sizes.values())) == 1


def test_layered_gap_rejects_fractional_layers():
    with pytest.raises(ValueError, match="integer"):
        gen_layered_gap(3, 2, seed=0)


def test_binary_tree_shapes():
    t3 = gen_binary_tree(3)
    assert t3.n == 8 and t3.m == 4
    t1 = gen_binary_tree(1)
    assert t1.n == 2 and t1.m == 1
    t4 = gen_binary_tree(4)
    assert t4.n == 16 and t4.m == 8
    preds = transitive_predecessors(t4)
    leaves = [v for v in preds if v.startswith("t") and not any(
        u in preds and v in preds[u] for u in preds
    )]
    # each leaf's root path includes the pre-root job: rho + 1 jobs
    depths = [len(preds[f"t{k}"]) + 1 for k in range(8, 16)]
    assert depths == [5] * 8


def test_binary_tree_degrees():
    inst = gen_binary_tree(3)
    direct = inst.direct_predecessors()
    for j in inst.jobs:
        if j.id == "pre":
            continue
        assert len(direct[j.id]) == 1
    succ = inst.successors()
    assert succ["pre"] == ["t1"]


def test_codec_round_trip():
    for seed in range(6):
        inst = tiny_instance(seed)
        assert instance_from_json(instance_to_json(inst)) == inst


def test_codec_missing_rho():
    with pytest.raises(CodecError, match="rho"):
        instance_from_json('{"jobs": [], "machines": [], "edges": []}')


_GOOD_JOBS = '[{"id": "a", "size": 1.0}]'
_GOOD_MACHINES = '[{"id": "m0", "speed": 1.0}]'


@pytest.mark.parametrize(
    "rho, jobs, machines, edges, field",
    [
        ("null", _GOOD_JOBS, _GOOD_MACHINES, "[]", "'rho' in instance document"),
        ("1.0", '[{"id": "a", "size": null}]', _GOOD_MACHINES, "[]", "'size' in jobs[0]"),
        ("1.0", _GOOD_JOBS, '[{"id": "m0", "speed": "fast"}]', "[]", "'speed' in machines[0]"),
        ("1.0", "[1]", _GOOD_MACHINES, "[]", "jobs[0] must be an object"),
        ("1.0", '{"a": 1.0}', _GOOD_MACHINES, "[]", "'jobs' in instance document must be an array"),
        ("1.0", _GOOD_JOBS, "null", "[]", "'machines' in instance document must be an array"),
        ("1.0", _GOOD_JOBS, _GOOD_MACHINES, '"ab"', "'edges' in instance document must be an array"),
        ("1" + "0" * 400, _GOOD_JOBS, _GOOD_MACHINES, "[]", "'rho' in instance document"),
        ("1.0", '[{"id": null, "size": 1.0}]', _GOOD_MACHINES, "[]", "'id' in jobs[0] must be a string"),
        ("1.0", _GOOD_JOBS, '[{"id": 3, "speed": 1.0}]', "[]", "'id' in machines[0] must be a string"),
        ("1.0", _GOOD_JOBS, _GOOD_MACHINES, '[["a", 1]]', "edges[0][1] must be a job id string"),
        ("1.0", _GOOD_JOBS, _GOOD_MACHINES, '[[null, "a"]]', "edges[0][0] must be a job id string"),
    ],
    ids=["null-rho", "null-size", "text-speed", "scalar-job", "object-jobs", "null-machines",
         "text-edges", "huge-rho", "null-job-id", "number-machine-id", "number-edge-end",
         "null-edge-start"],
)
def test_codec_rejects_malformed_fields(rho, jobs, machines, edges, field):
    doc = f'{{"rho": {rho}, "jobs": {jobs}, "machines": {machines}, "edges": {edges}}}'
    with pytest.raises(CodecError, match=re.escape(field)):
        instance_from_json(doc)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9),
    st.floats(0.0, 1.0),
    st.integers(0, 10_000),
)
def test_random_dag_is_always_acyclic(n, prob, seed):
    inst = gen_random_dag(n, 2, prob, (1, 2), (0.5, 1), 1.0, seed=seed)
    assert validate_instance(inst).ok
