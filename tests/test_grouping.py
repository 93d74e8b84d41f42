import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    RESCALINGS,
    RULE_CASE_IDS,
    RULE_CASES,
    by_the_rule,
    mid_instance,
    rescaled,
    tiny_instance,
)
from delaysched import (
    Job,
    Machine,
    assign_job_groups,
    build_relaxation,
    compute_bands,
    filter_slow_machines,
    gen_layered_gap,
    gen_random_dag,
    make_instance,
    normalize_instance,
    partition_machine_groups,
    solve_lp,
    solve_relaxation,
)
from delaysched.gaplab import build_alternate_relaxation
from delaysched.grouping import (
    MU_TOL,
    GroupAssignment,
    _band,
    band_bound_check,
    capacity_monotonic,
    load_bound_check,
)
from delaysched.instance import TOL
from delaysched.lp import LpSolution


def machines(*speeds):
    return make_instance(
        [Job("a", 1.0)], [Machine(f"m{k}", s) for k, s in enumerate(speeds)], [], 1.0
    )


def test_uniform_speeds_one_group():
    groups = partition_machine_groups(machines(1, 1, 1))
    assert len(groups) == 1 and groups[0].size == 3 and groups[0].gamma == 1


def test_factor_two_boundary_splits():
    groups = partition_machine_groups(machines(1, 2))
    assert [g.size for g in groups] == [1, 1]


def test_greedy_grouping_example():
    groups = partition_machine_groups(machines(1, 1.9, 2, 5))
    assert [tuple(g.machine_ids) for g in groups] == [("m0", "m1"), ("m2",), ("m3",)]
    assert [g.gamma for g in groups] == [1, 2, 5]


def fake_solution(inst, x, starts, objective=1.0):
    """A solution whose values hold ``x`` and ``starts``, keyed by ids, in
    their columns by the index rule; a missing entry is 0."""
    values = [objective, *(starts.get(v.id, 0.0) for v in inst.jobs)]
    values += [x.get((v.id, mc.id), 0.0) for v in inst.jobs for mc in inst.machines]
    return LpSolution(values=tuple(values), objective=objective, status="feasible")


def one_machine(rho, *job_ids):
    return make_instance([Job(v, 1.0) for v in job_ids], [Machine("m0", 1.0)], [], rho)


def test_single_group_assignment():
    inst = machines(1, 1)
    sol = fake_solution(inst, {("a", "m0"): 0.5, ("a", "m1"): 0.5}, {"a": 0.0})
    asg = assign_job_groups(inst, sol)
    assert asg.mu["a"] == 1 and asg.kappa["a"] == 1


def test_capacity_argmax_prefers_higher_capacity():
    # group 1: four speed-1 machines (capacity 4); group 2: one speed-3 (capacity 3)
    inst = make_instance(
        [Job("a", 1.0)],
        [Machine(f"m{k}", 1.0) for k in range(4)] + [Machine("fast", 3.0)],
        [],
        1.0,
    )
    groups = partition_machine_groups(inst)
    assert [g.capacity for g in groups] == [4.0, 3.0]
    x = {("a", f"m{k}"): 0.25 for k in range(4)} | {("a", "fast"): 0.0}
    sol = fake_solution(inst, x, {"a": 0.0})
    asg = assign_job_groups(inst, sol)
    assert asg.mu["a"] == 1 and asg.kappa["a"] == 1


def test_kappa_tie_breaks_to_faster_group():
    inst = make_instance(
        [Job("a", 1.0)],
        [Machine("s", 1.0), Machine("f", 2.0)],
        [],
        1.0,
    )
    groups = partition_machine_groups(inst)
    assert [g.capacity for g in groups] == [1.0, 2.0]
    sol = fake_solution(inst, {("a", "s"): 0.6, ("a", "f"): 0.4}, {"a": 0.0})
    asg = assign_job_groups(inst, sol)
    assert asg.mu["a"] == 1 and asg.kappa["a"] == 2  # higher capacity wins


def test_band_formula():
    inst = one_machine(4.0, "a", "b", "c")
    sol = fake_solution(inst, {}, {"a": 0.0, "b": 1.0, "c": 0.999999})
    bands = compute_bands(inst, sol)
    assert bands == {"a": 1, "b": 2, "c": 1}


def test_band_zero_start_is_band_one():
    inst = machines(1)
    sol = fake_solution(inst, {("a", "m0"): 1.0}, {"a": 0.0})
    asg = assign_job_groups(inst, sol)
    assert asg.bands["a"] == 1


def test_bands_reject_nonpositive_rho():
    with pytest.raises(ValueError):
        inst = one_machine(0.0, "a")
        compute_bands(inst, fake_solution(inst, {}, {"a": 0.0}))


def test_bands_stop_below_2_52():
    # from 2**52 on rho * r / 4 can stop changing as r steps by 1, so the
    # band could not settle; an infinite 4*S/rho is refused too
    inst = one_machine(4.0, "a")
    assert compute_bands(inst, fake_solution(inst, {}, {"a": 2.0**52 - 1}))["a"] == 2**52
    for rho, start in ((4.0, 2.0**52), (1e-320, 1.0)):
        inst = one_machine(rho, "a")
        with pytest.raises(ValueError, match=r"starts reach 4\*S/rho = .*; banding stops below 2\*\*52"):
            compute_bands(inst, fake_solution(inst, {}, {"a": start}))


def test_rho_zero_bypass_puts_all_in_band_one():
    inst = make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [], 0.0)
    sol = fake_solution(inst, {("a", "m0"): 1.0}, {"a": 7.0})
    asg = assign_job_groups(inst, sol)
    assert asg.bands == {"a": 1}


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 100.0), st.floats(0.1, 50.0))
@example(85.99999999999999, 0.3333333333333333)  # 4*s/rho rounds up to a boundary
def test_band_halfopen_membership(start, rho):
    inst = one_machine(rho, "a")
    r = compute_bands(inst, fake_solution(inst, {}, {"a": start}))["a"]
    assert rho * (r - 1) / 4 <= start
    assert start < rho * r / 4 or start == pytest.approx(rho * (r - 1) / 4)


def test_lemma_checks_on_solved_corpus():
    for seed in (0, 2, 5, 8, 11):
        inst, _ = normalize_instance(tiny_instance(seed, n_max=5, m_max=2))
        sol = solve_lp(build_relaxation(inst))
        asg = assign_job_groups(inst, sol)
        assert capacity_monotonic(inst, asg)
        assert band_bound_check(inst, asg)["ok"]
        assert load_bound_check(inst, sol, asg)["ok"]


def test_assignment_refuses_a_point_without_c_s_and_x():
    inst = machines(1, 1)
    short = LpSolution(values=(1.0, 0.0, 1.0), objective=1.0, status="feasible")
    with pytest.raises(ValueError, match="the LP point has 3 values; .* take 4"):
        assign_job_groups(inst, short)
    with pytest.raises(ValueError, match="the LP point has 3 values"):
        compute_bands(inst, short)


def reference_assignment(inst, sol):
    """The rounding as it read the LP point through id-keyed maps of x and S:
    per job, the median group by a sum over each group's machine ids, the
    capacity argmax over groups at least that fast, and bands from the map of
    starts."""
    x, start = by_the_rule(inst, sol.values)
    groups = tuple(partition_machine_groups(inst))
    mu, kappa = {}, {}
    for v in inst.jobs:
        acc = 0.0
        med = len(groups)
        for g in groups:
            acc += sum(x.get((v.id, mid), 0.0) for mid in g.machine_ids)
            if acc >= 0.5 - MU_TOL:
                med = g.index
                break
        mu[v.id] = med
        best = med
        for g in groups[med - 1 :]:
            if g.capacity >= groups[best - 1].capacity - TOL:
                best = g.index
        kappa[v.id] = best
    if inst.rho > 0:
        bands = {v: _band(s, inst.rho) for v, s in start.items()}
    else:
        bands = {v.id: 1 for v in inst.jobs}
    return GroupAssignment(groups=groups, mu=mu, kappa=kappa, bands=bands)


def assert_rounding_matches_reference(inst, sol):
    got, want = assign_job_groups(inst, sol), reference_assignment(inst, sol)
    assert got == want
    for name in ("mu", "kappa", "bands"):
        assert list(getattr(got, name).items()) == list(getattr(want, name).items())


def pipeline_solution(inst):
    """The instance the pipeline rounds for ``inst``, and its LP point."""
    norm, _ = normalize_instance(inst)
    work = filter_slow_machines(norm).filtered
    return work, solve_relaxation(work)


@pytest.mark.parametrize("inst", RULE_CASES, ids=RULE_CASE_IDS)
def test_rounding_matches_the_id_keyed_reference_on_every_model_kind(inst):
    # C, S and x lead the columns of every model whose point the rounding reads
    models = [
        build_relaxation(inst),
        build_relaxation(inst, pairs=False),
        build_alternate_relaxation(inst, "same_machine"),
        build_alternate_relaxation(inst, "same_phase"),
    ]
    for sol in [solve_lp(model) for model in models] + [solve_relaxation(inst)]:
        assert sol.status == "optimal"
        assert_rounding_matches_reference(inst, sol)


def differential_corpus():
    yield from (tiny_instance(seed, n_max=5, m_max=2) for seed in range(200))
    yield from (mid_instance(seed, n_max=40, m_max=8, rho_choices=(1.0, 4.0, 16.0))
                for seed in range(100))
    yield gen_layered_gap(2, 4, 0)
    for seed in range(20):  # the benchmark's lp_heavy and many_phases shapes
        yield gen_random_dag(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, seed)
        yield gen_random_dag(150, 4, 0.01, (1, 4), (0.25, 1), 1.0, seed)


def test_rounding_matches_the_id_keyed_reference_on_the_corpora():
    for inst in differential_corpus():
        work, sol = pipeline_solution(inst)
        assert sol.status == "optimal"
        assert_rounding_matches_reference(work, sol)


@pytest.mark.parametrize("a, b", RESCALINGS)
def test_power_of_two_rescaling_keeps_the_groups_and_the_rounding(a, b):
    # speeds and capacities are judged with TOL times the fastest speed, so
    # a copy with sizes times 2^a, speeds times 2^b, rho times 2^(a-b) and C
    # and S times 2^(a-b) gets equal groups (gamma times 2^b), mu, kappa and
    # bands; with an absolute TOL, at (0, -40) every machine of these 40
    # instances had a group of its own
    factor = 2.0 ** (a - b)
    for s in range(40):
        norm, _ = normalize_instance(gen_random_dag(6, 6, 0.3, (1, 3), (0.1, 1), 4.0, seed=s))
        sol = solve_lp(build_relaxation(norm))
        asg = assign_job_groups(norm, sol)
        scaled = rescaled(norm, a, b)
        n, m = norm.n, norm.m
        c_and_s = [v * factor for v in sol.values[: 1 + n]]
        point = LpSolution(tuple(c_and_s) + sol.values[1 + n : 1 + n + n * m], c_and_s[0], "feasible")
        got = assign_job_groups(scaled, point)
        want_groups = [(g.index, g.machine_ids, g.gamma * 2.0**b) for g in asg.groups]
        assert [(g.index, g.machine_ids, g.gamma) for g in got.groups] == want_groups
        assert [(g.index, g.machine_ids, g.gamma) for g in partition_machine_groups(scaled)] == want_groups
        assert (got.mu, got.kappa, got.bands) == (asg.mu, asg.kappa, asg.bands)
        assert capacity_monotonic(scaled, got) == capacity_monotonic(norm, asg)
