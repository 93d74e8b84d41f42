import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_copy, tiny_instance
from delaysched import (
    Job,
    Machine,
    filter_slow_machines,
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
from delaysched.cli import main
from delaysched.instance import TOL, CodecError, Instance, topological_order


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
        # finite numbers that normalize_instance would scale out of range
        ([Job("a", 1e-300), Job("b", 1e10)], [Machine("m0", 1.0)], 1.0,
         "job b: size / min size is not finite"),
        ([Job("a", 5e-324)], [Machine("m0", 1.0)], 1.0, "1 / min job size is not finite"),
        ([Job("a", 1.0)], [Machine("m0", 1e-320)], 1.0, "1 / max machine speed is not finite"),
        ([Job("a", 1.0)], [Machine("m0", 1e-300), Machine("m1", 1e300)], 1.0,
         "machine m0: speed / max speed is 0"),
        ([Job("a", 1e-300)], [Machine("m0", 1e10)], 1.0,
         "rho * max speed / min size is not finite"),
        # the time scale alpha / beta underflows to 0, or to a subnormal
        # whose inverse is not finite
        ([Job("a", 1e308), Job("b", 1e308)], [Machine("m0", 1e-300)], 1.0,
         "min size / max speed is not finite"),
        ([Job("a", 1e308)], [Machine("m0", 1e-300)], 0.0, "min size / max speed is not finite"),
        ([Job("a", 1e308)], [Machine("m0", 1e-7)], 1e-9, "min size / max speed is not finite"),
    ],
)
def test_bad_numbers_and_empty_sets_reported(jobs, machines, rho, expected):
    inst = Instance(tuple(jobs), tuple(machines), (), rho)
    assert expected in validate_instance(inst).violations


def test_positive_rho_that_normalizes_to_zero_is_valid():
    # under a time scale with a finite inverse, such a rho is below 1e-15
    for jobs, machines, rho in [
        ([Job("a", 2.0)], [Machine("m0", 1.0)], 5e-324),
        ([Job("a", 1e305)], [Machine("m0", 1e300)], 1e-20),  # rho * alpha underflows
    ]:
        inst = Instance(tuple(jobs), tuple(machines), (), rho)
        assert validate_instance(inst).ok
        norm, _ = normalize_instance(inst)
        assert norm.rho == 0.0 and validate_instance(fresh_copy(norm)).ok


def test_extreme_scale_that_normalizes_finitely_is_valid():
    # with rho = 0 nothing but sizes and speeds is scaled
    inst = Instance((Job("a", 1e-300), Job("b", 1e7)), (Machine("m0", 1e10),), (), 0.0)
    assert validate_instance(inst).ok
    norm, _ = normalize_instance(inst)
    assert validate_instance(fresh_copy(norm)).ok


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


def _chain(n, back_edge=False):
    ids = [f"j{k}" for k in range(n)]
    edges = list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if back_edge else [])
    return ids, make_instance([Job(v, 1.0) for v in ids], [Machine("m0", 1.0)], edges, 1.0)


def test_deep_chain_validates_and_sorts():
    ids, inst = _chain(3000)
    assert validate_instance(inst).ok
    assert topological_order(inst) == ids


def test_deep_chain_with_back_edge_reports_cycle():
    _, inst = _chain(3000, back_edge=True)
    assert validate_instance(inst).violations == ("cycle in precedence graph",)
    with pytest.raises(ValueError, match="cycle"):
        topological_order(inst)


def test_duplicate_ids_are_not_a_cycle():
    inst = make_instance([Job("a", 1.0), Job("a", 2.0)], [Machine("m0", 1.0)], [], 1.0)
    assert validate_instance(inst).violations == ("duplicate job ids",)
    assert topological_order(inst) == ["a"]


def test_cli_reports_deep_cycle_at_validate_stage(tmp_path, capsys):
    _, inst = _chain(1500, back_edge=True)
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(inst))
    assert main(["schedule", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: [validate] cycle in precedence graph\n"


def _dfs_has_cycle(ids, edges):
    """Reference verdict: iterative three-colour DFS over the distinct ids."""
    succ = {v: [] for v in ids}
    for a, b in edges:
        succ[a].append(b)
    colour = dict.fromkeys(succ, 0)  # 0 unseen, 1 on the path, 2 finished
    for root in succ:
        if colour[root]:
            continue
        colour[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            w = next(it, None)
            if w is None:
                colour[v] = 2
                stack.pop()
            elif colour[w] == 1:
                return True
            elif colour[w] == 0:
                colour[w] = 1
                stack.append((w, iter(succ[w])))
    return False


_IDS = "abcdef"  # jobs are drawn from a..e, so edges touching f dangle


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_IDS[:5]), min_size=1, max_size=7),
    st.lists(st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS)), max_size=10),
)
def test_cycle_verdict_matches_dfs_reference(job_ids, edges):
    inst = make_instance([Job(v, 1.0) for v in job_ids], [Machine("m0", 1.0)], edges, 1.0)
    known = set(job_ids)
    dangling = [f"dangling edge ({a}, {b})" for a, b in edges if not {a, b} <= known]
    expected = ["duplicate job ids"] if len(known) < len(job_ids) else []
    expected += dangling
    cyclic = not dangling and _dfs_has_cycle(list(dict.fromkeys(job_ids)), edges)
    if cyclic:
        expected.append("cycle in precedence graph")
    assert validate_instance(inst).violations == tuple(expected)
    if cyclic:
        with pytest.raises(ValueError, match="cycle"):
            topological_order(inst)
    elif not expected:
        order = topological_order(inst)
        pos = {v: k for k, v in enumerate(order)}
        assert sorted(order) == sorted(job_ids)
        assert all(pos[a] < pos[b] for a, b in edges)


@st.composite
def _near_tied_instances(draw):
    """Clusters of speeds within a few TOL of each other on the scale
    validation judges them (speed / fastest), in any order within a cluster and
    with ids in any order, plus job lists with duplicate ids and cycles."""
    job_ids = draw(st.lists(st.sampled_from(_IDS[:5]), min_size=1, max_size=5))
    jobs = [Job(v, draw(st.floats(1e-3, 1e3))) for v in job_ids]
    edges = draw(st.lists(st.tuples(st.sampled_from(job_ids), st.sampled_from(job_ids)),
                          max_size=6))
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    bases = [draw(st.floats(1e-3, 1.0)) for _ in counts]
    with_fastest = draw(st.booleans())
    if with_fastest:
        # a fastest machine of speed 1 puts the slow-machine threshold,
        # fastest / machine count, on the cluster around bases[0]
        bases[0] = 1.0 / (sum(counts) + 1)
    fracs = [b + TOL * draw(st.floats(-3.0, 3.0))
             for b, count in sorted(zip(bases, counts)) for _ in range(count)]
    if with_fastest:
        fracs.append(1.0)
    names = draw(st.permutations([f"m{k}" for k in range(len(fracs))]))
    top = draw(st.floats(1e-3, 1e3)) / max(fracs)
    machines = [Machine(name, f * top) for name, f in zip(names, fracs)]
    return Instance(tuple(jobs), tuple(machines), tuple(edges), draw(st.floats(0.0, 10.0)))


def _order_or_cycle(inst):
    try:
        return topological_order(inst)
    except ValueError:
        return "cycle"


@settings(max_examples=300, deadline=None)
@given(_near_tied_instances())
def test_derived_copies_earn_the_verdict_and_order_they_inherit(inst):
    # a fresh copy recomputes everything, so it shows what the derived copy
    # would have found had it not inherited the input's cached facts
    report, order = inst._report, _order_or_cycle(inst)
    norm, _ = normalize_instance(inst)
    derived = [norm]
    if report.ok:
        derived += [filter_slow_machines(inst).filtered, filter_slow_machines(norm).filtered]
    else:
        with pytest.raises(ValueError, match="invalid instance"):
            filter_slow_machines(inst)
    for copy in derived:
        assert copy._report is inst._report
        assert validate_instance(fresh_copy(copy)) == report
        assert _order_or_cycle(fresh_copy(copy)) == order


def test_derived_copy_keeps_equality_and_recomputes_lookups():
    inst = make_instance([Job("a", 2.0), Job("b", 4.0)], [Machine("m0", 0.5), Machine("m1", 2.0)],
                         [("a", "b")], 1.0)
    closure = transitive_predecessors(inst)
    norm, _ = normalize_instance(inst)
    assert transitive_predecessors(norm) is closure
    assert norm == fresh_copy(norm) and hash(norm) == hash(fresh_copy(norm))
    assert (norm.size("a"), norm.speed("m1")) == (1.0, 1.0)


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
        ('"4"', _GOOD_JOBS, _GOOD_MACHINES, "[]", "'rho' in instance document must be a number"),
        ("1.0", '[{"id": "a", "size": true}]', _GOOD_MACHINES, "[]",
         "'size' in jobs[0] must be a number"),
        ("1.0", _GOOD_JOBS, '[{"id": "m0", "speed": " 1e0 "}]', "[]",
         "'speed' in machines[0] must be a number"),
        ("", _GOOD_JOBS, _GOOD_MACHINES, "[]", "not valid JSON: "),
        ("[" * 100_000, _GOOD_JOBS, _GOOD_MACHINES, "[]", "JSON nested too deeply to decode"),
        ("[" * 100_000 + "]" * 100_000, _GOOD_JOBS, _GOOD_MACHINES, "[]",
         "JSON nested too deeply to decode"),
    ],
    ids=["null-rho", "null-size", "text-speed", "scalar-job", "object-jobs", "null-machines",
         "text-edges", "huge-rho", "null-job-id", "number-machine-id", "number-edge-end",
         "null-edge-start", "text-rho", "bool-size", "padded-text-speed", "missing-rho-value",
         "unclosed-deep-rho", "deep-rho"],
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
