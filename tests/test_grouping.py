import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tiny_instance
from delaysched import (
    Job,
    Machine,
    assign_job_groups,
    build_relaxation,
    compute_bands,
    make_instance,
    normalize_instance,
    partition_machine_groups,
    solve_lp,
)
from delaysched.grouping import band_bound_check, capacity_monotonic, load_bound_check
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


def fake_solution(x, starts, objective=1.0):
    return LpSolution(values=(), objective=objective, status="feasible", x=x, start=starts)


def test_single_group_assignment():
    inst = machines(1, 1)
    groups = partition_machine_groups(inst)
    sol = fake_solution({("a", "m0"): 0.5, ("a", "m1"): 0.5}, {"a": 0.0})
    asg = assign_job_groups(inst, sol, groups)
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
    sol = fake_solution({("a", f"m{k}"): 0.25 for k in range(4)} | {("a", "fast"): 0.0}, {"a": 0.0})
    asg = assign_job_groups(inst, sol, groups)
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
    sol = fake_solution({("a", "s"): 0.6, ("a", "f"): 0.4}, {"a": 0.0})
    asg = assign_job_groups(inst, sol, groups)
    assert asg.mu["a"] == 1 and asg.kappa["a"] == 2  # higher capacity wins


def test_band_formula():
    sol = fake_solution({}, {"a": 0.0, "b": 1.0, "c": 0.999999})
    bands = compute_bands(sol, 4.0)
    assert bands == {"a": 1, "b": 2, "c": 1}


def test_band_zero_start_is_band_one():
    sol = fake_solution({("a", "m0"): 1.0}, {"a": 0.0})
    inst = machines(1)
    asg = assign_job_groups(inst, sol)
    assert asg.bands["a"] == 1


def test_bands_reject_nonpositive_rho():
    with pytest.raises(ValueError):
        compute_bands(fake_solution({}, {"a": 0.0}), 0.0)


def test_rho_zero_bypass_puts_all_in_band_one():
    inst = make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [], 0.0)
    sol = fake_solution({("a", "m0"): 1.0}, {"a": 7.0})
    asg = assign_job_groups(inst, sol)
    assert asg.bands == {"a": 1}


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 100.0), st.floats(0.1, 50.0))
@example(85.99999999999999, 0.3333333333333333)  # 4*s/rho rounds up to a boundary
def test_band_halfopen_membership(start, rho):
    sol = fake_solution({}, {"a": start})
    r = compute_bands(sol, rho)["a"]
    assert rho * (r - 1) / 4 <= start
    assert start < rho * r / 4 or start == pytest.approx(rho * (r - 1) / 4)


def test_lemma_checks_on_solved_corpus():
    for seed in (0, 2, 5, 8, 11):
        inst, _ = normalize_instance(tiny_instance(seed, n_max=5, m_max=2))
        sol = solve_lp(build_relaxation(inst))
        asg = assign_job_groups(inst, sol)
        assert capacity_monotonic(asg)
        assert band_bound_check(inst, asg)["ok"]
        assert load_bound_check(inst, sol, asg)["ok"]
