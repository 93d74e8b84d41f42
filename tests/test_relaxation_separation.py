"""Lazy same-phase pair generation against the full relaxation.

``solve_relaxation`` must reach the full model's optimum, and its extended
point (C, S and x from the last restricted solve, z for every transitive pair)
must be feasible for the full model.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tiny_instance
from delaysched import (
    Job,
    Machine,
    build_relaxation,
    check_lp_feasibility,
    filter_slow_machines,
    gen_random_dag,
    make_instance,
    normalize_instance,
    solve_lp,
    solve_relaxation,
    transitive_predecessors,
)
from delaysched import lp
from delaysched.lp import FEAS_TOL, LpSolution


def extended_point(full, model, sol):
    """The restricted solution as a point of the full model ``full``."""
    values = [0.0] * full.n_vars
    values[full.c_index] = sol.values[model.c_index]
    for key, idx in full.x_index.items():
        values[idx] = sol.x[key]
    for key, idx in full.s_index.items():
        values[idx] = sol.start[key]
    for key, idx in full.z_index.items():
        values[idx] = sol.z[key]
    return LpSolution(tuple(values), sol.objective, "feasible")


def assert_exact(inst):
    full = build_relaxation(inst)
    reference = solve_lp(full)
    model, sol = solve_relaxation(inst)
    assert sol.status == reference.status == "optimal"
    assert sol.objective == pytest.approx(reference.objective, rel=1e-9)
    assert set(sol.z) == set(full.z_index)
    assert sol.values[model.c_index] == pytest.approx(sol.objective, rel=1e-9)
    assert not check_lp_feasibility(extended_point(full, model, sol), full, FEAS_TOL)
    assert not check_lp_feasibility(sol, model, FEAS_TOL)


def pipeline_input(*args):
    norm, _ = normalize_instance(gen_random_dag(*args))
    return filter_slow_machines(norm).filtered


@pytest.mark.parametrize("seed", range(40))
def test_tiny_corpus_matches_full_model(seed):
    assert_exact(tiny_instance(seed, n_max=5, m_max=2))


RHOS = [0.3, 1.0, math.e**math.e, 16.0, 64.0, 0.0]


def separation_instance():
    """Needs two rounds: the direct edges, then implied pairs."""
    return pipeline_input(12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 5)


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_dags_match_full_model(rho, seed):
    assert_exact(pipeline_input(12, 3, 0.35, (1, 4), (0.25, 1), rho, seed))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lp_heavy_scale_matches_full_model(seed):
    # the benchmark's lp_heavy shape; these seeds take one, three and two separation rounds
    assert_exact(pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, seed))


def test_long_chain_matches_full_model():
    jobs = [Job(f"j{k}", 1.0 + (k % 3)) for k in range(14)]
    edges = [(f"j{k}", f"j{k + 1}") for k in range(13)]
    inst = make_instance(jobs, [Machine("m0", 0.5), Machine("m1", 1.0)], edges, 4.0)
    assert sum(len(p) for p in transitive_predecessors(inst).values()) == 13 * 14 // 2
    assert_exact(inst)


def test_duplicate_edges_match_full_model():
    base = pipeline_input(10, 3, 0.3, (1, 4), (0.25, 1), 8.0, 4)
    inst = make_instance(base.jobs, base.machines, base.edges + base.edges[:3], base.rho)
    assert_exact(inst)


def test_separation_adds_pairs_until_none_violate(monkeypatch):
    calls = []
    real = lp.solve_lp

    def counting(model, *args, **kwargs):
        calls.append(len(model.z_index))
        return real(model, *args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counting)
    inst = pipeline_input(12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 5)
    assert_exact(inst)  # its reference solve does not go through lp.solve_lp
    assert len(calls) >= 2
    assert calls[0] == len(set(inst.edges)) * inst.m  # the first round has the direct edges
    assert calls == sorted(set(calls))  # every later round adds pairs


def test_later_rounds_start_warm(monkeypatch):
    rounds = []  # each solve's own iteration counts
    real = lp.solve_lp

    def recording(model, *args, **kwargs):
        sol = real(model, *args, **kwargs)
        rounds.append(sol.iterations)
        return sol

    monkeypatch.setattr(lp, "solve_lp", recording)
    model, sol = solve_relaxation(separation_instance())
    assert len(rounds) >= 2 and all(len(counts) == 1 for counts in rounds)
    assert sol.iterations == sum(rounds, ())
    first, *later = sol.iterations
    assert all(k < first for k in later)
    assert sol.iterations[-1] < real(model).iterations[0]  # the same model, cold


def test_round_two_basis_keeps_round_one_statuses(monkeypatch):
    from scipy.optimize._highspy import _core

    solved = []  # (model, solution) of each round
    given = []  # (col_status, row_status) passed to setBasis
    real = lp.solve_lp

    def recording(model, *args, **kwargs):
        solved.append((model, real(model, *args, **kwargs)))
        return solved[-1][1]

    class Spy(_core._Highs):
        def setBasis(self, basis):
            given.append((list(basis.col_status), list(basis.row_status)))
            return super().setBasis(basis)

    monkeypatch.setattr(lp, "solve_lp", recording)
    monkeypatch.setattr(_core, "_Highs", Spy)
    solve_relaxation(separation_instance())
    assert len(solved) >= 2 and len(given) == len(solved) - 1  # round one starts cold
    (first, sol), (second, _) = solved[:2]
    col_was = dict(zip(first.var_names, sol.basis[1]))
    row_was = dict(zip(first.row_names, sol.basis[3]))
    assert len(col_was) == first.n_vars and len(row_was) == len(first.row_names)
    assert col_was.keys() <= set(second.var_names) and row_was.keys() <= set(second.row_names)
    cols, rows = given[0]
    assert cols == [col_was.get(name, _core.HighsBasisStatus.kLower) for name in second.var_names]
    assert rows == [row_was.get(name, _core.HighsBasisStatus.kBasic) for name in second.row_names]
    assert len(cols) > first.n_vars and len(rows) > len(first.row_names)  # new ones exist


def test_colliding_ids_reach_the_full_optimum():
    # "a-b" and "a_b" give the same model names; the round-two basis, matched
    # by name, then starts some z columns and rows from the other pair's status
    base = separation_instance()
    rename = {"j5": "a-b", "j4": "a_b"}.get
    inst = make_instance(
        [Job(rename(v.id, v.id), v.size) for v in base.jobs],
        base.machines,
        [(rename(u, u), rename(v, v)) for u, v in base.edges],
        base.rho,
    )
    model, sol = solve_relaxation(inst)
    z_names = [model.var_names[idx] for idx in model.z_index.values()]
    assert len(set(z_names)) < len(z_names)
    assert len(sol.iterations) >= 2
    assert_exact(inst)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(1, 3),
    st.floats(0.0, 1.0),
    st.sampled_from([0.3, 1.0, math.e**math.e, 16.0]),
    st.integers(0, 2**32 - 1),
)
@example(10, 3, 0.8, math.e**math.e, 112)  # two rounds
@example(5, 1, 0.8, math.e**math.e, 235)
def test_random_dags_match_full_model_property(n, m, p, rho, seed):
    assert_exact(gen_random_dag(n, m, p, (1, 4), (0.25, 1), rho, seed))


def test_precedence_rows_per_distinct_direct_edge():
    unit = [Job(x, 1.0) for x in "abcd"]
    machines = [Machine("m0", 1.0), Machine("m1", 1.0)]
    diamond = make_instance(unit, machines, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], 2.0)
    c2 = [name for name, *_ in build_relaxation(diamond).rows if name.startswith("c2_")]
    assert c2 == ["c2_a_b", "c2_a_c", "c2_b_d", "c2_c_d"]  # no row for the implied (a, d)
    doubled = make_instance(unit[:2], machines, [("a", "b"), ("a", "b")], 2.0)
    c2 = [name for name, *_ in build_relaxation(doubled).rows if name.startswith("c2_")]
    assert c2 == ["c2_a_b"]


def test_restricted_model_keeps_only_chosen_pairs():
    inst = make_instance(
        [Job(x, 1.0) for x in "abc"], [Machine("m0", 1.0)], [("a", "b"), ("b", "c")], 2.0
    )
    model = build_relaxation(inst, {("a", "b"), ("b", "c")})
    assert sorted(model.z_index) == [("a", "b", "m0"), ("b", "c", "m0")]
    assert sum(1 for name, *_ in model.rows if name.startswith("c3_")) == 2
    assert len(build_relaxation(inst).z_index) == 3
