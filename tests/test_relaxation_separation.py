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
    gen_layered_gap,
    gen_random_dag,
    make_instance,
    normalize_instance,
    solve_lp,
    solve_relaxation,
    transitive_predecessors,
)
from delaysched import lp
from delaysched.gaplab import gap_lp_certificate
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
    """Needs two rounds: no pairs, then the pairs behind violated rows (4)."""
    return pipeline_input(12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 52)


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_dags_match_full_model(rho, seed):
    assert_exact(pipeline_input(12, 3, 0.35, (1, 4), (0.25, 1), rho, seed))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lp_heavy_scale_matches_full_model(seed):
    # the benchmark's lp_heavy shape; these seeds take three, three and four separation rounds
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
    inst = pipeline_input(12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 52)
    assert_exact(inst)  # its reference solve does not go through lp.solve_lp
    assert len(calls) >= 2
    assert calls[0] == 0  # the first round has no same-phase pairs
    assert calls == sorted(set(calls))  # every later round adds pairs


@pytest.mark.parametrize("layers, degree, seed", [(2, 4, 0), (4, 2, 1)])
def test_layered_gap_reaches_the_certificate_value(monkeypatch, layers, degree, seed):
    # the certificate's value rho is the LP optimum of the layered family
    first = []
    real = lp.solve_lp

    def recording(model, *args, **kwargs):
        if not first:
            first.append(len(model.z_index))
        return real(model, *args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", recording)
    inst = gen_layered_gap(layers, degree, seed)
    _, sol = solve_relaxation(inst)
    assert first == [0]  # the first round has no z column
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(gap_lp_certificate(inst).objective, rel=1e-9)
    assert sol.objective == pytest.approx(inst.rho, rel=1e-9)


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


def column_identity(model):
    """What each column stands for: ("C",), ("S", v), ("x", v, i) or ("z", u, v, i)."""
    out = [None] * model.n_vars
    out[model.c_index] = ("C",)
    for v, idx in model.s_index.items():
        out[idx] = ("S", v)
    for key, idx in model.x_index.items():
        out[idx] = ("x", *key)
    for key, idx in model.z_index.items():
        out[idx] = ("z", *key)
    return out


def row_identity(model):
    """What each row stands for, read from the row itself: its family and the
    columns other than z in it, which tell the pair, job or machine apart
    whatever the ids are called (a row (4) gains z terms between rounds)."""
    cols = column_identity(model)
    return [
        (name.split("_")[0], frozenset(cols[j] for j in coeffs if cols[j][0] != "z"))
        for name, coeffs, _, _ in model.rows
    ]


def spy_on_set_basis(monkeypatch):
    """The (col_status, row_status) of every ``setBasis`` call from now on."""
    from scipy.optimize._highspy import _core

    given = []

    class Spy(_core._Highs):
        def setBasis(self, basis):
            given.append((list(basis.col_status), list(basis.row_status)))
            return super().setBasis(basis)

    monkeypatch.setattr(_core, "_Highs", Spy)
    return given


def solved_rounds(monkeypatch, inst):
    """Every round as (model, solution), and the statuses each round after
    the first was started from."""
    solved = []
    real = lp.solve_lp

    def recording(model, *args, **kwargs):
        solved.append((model, real(model, *args, **kwargs)))
        return solved[-1][1]

    given = spy_on_set_basis(monkeypatch)
    monkeypatch.setattr(lp, "solve_lp", recording)
    solve_relaxation(inst)
    assert len(solved) >= 2 and len(given) == len(solved) - 1  # round one starts cold
    return solved, given


def assert_carried(first, sol, second, cols, rows):
    """``cols`` and ``rows``, the statuses ``second`` was started from, are
    those ``sol`` ended with on the same column or row of ``first``, and the
    defaults where ``first`` has none."""
    from scipy.optimize._highspy import _core

    layout, col_status, row_status = sol.basis
    assert layout is first._layout
    col_was = dict(zip(column_identity(first), col_status))
    row_was = dict(zip(row_identity(first), row_status))
    # every column and row stands for something different, in both models
    assert len(col_was) == first.n_vars and len(row_was) == len(first.rows)
    assert len(set(row_identity(second))) == len(second.rows)
    assert col_was.keys() <= set(column_identity(second))
    assert row_was.keys() <= set(row_identity(second))
    kept, kept_rows = _core.HighsBasisStatus.kLower, _core.HighsBasisStatus.kBasic
    assert cols == [col_was.get(c, kept) for c in column_identity(second)]
    assert rows == [row_was.get(r, kept_rows) for r in row_identity(second)]
    assert len(cols) > first.n_vars and len(rows) > len(first.rows)  # new ones exist


def assert_each_round_keeps_the_previous_statuses(monkeypatch, inst):
    """Returns the rounds as (model, solution)."""
    solved, given = solved_rounds(monkeypatch, inst)
    for (first, sol), (second, _), (cols, rows) in zip(solved, solved[1:], given):
        assert_carried(first, sol, second, cols, rows)
    return solved


def test_round_two_basis_keeps_round_one_statuses(monkeypatch):
    assert_each_round_keeps_the_previous_statuses(monkeypatch, separation_instance())


def test_every_round_keeps_the_previous_round_statuses(monkeypatch):
    # lp_heavy-shaped, three rounds; new z columns land between carried ones
    inst = pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 2)
    solved = assert_each_round_keeps_the_previous_statuses(monkeypatch, inst)
    assert len(solved) >= 3
    models = [model for model, _ in solved]
    assert any(
        column_identity(second)[: first.n_vars] != column_identity(first)
        for first, second in zip(models, models[1:])
    )


def test_new_rows_four_between_carried_ones_keep_their_order(monkeypatch):
    # a job gains its rows (4) in the round that adds its first pair, so a
    # later round can add rows (4) between carried ones; this builds such a
    # step directly, whatever rounds solve_relaxation happens to take
    inst = separation_instance()
    every = lp._Pairs(inst).ids
    with_pairs = {v for _, v in every}
    jobs = [v.id for v in inst.jobs if v.id in with_pairs]
    few = {(u, v) for u, v in every if v in jobs[::2]}
    first = build_relaxation(inst, few)
    sol = solve_lp(first)
    second = build_relaxation(inst, set(every))
    new = set(second._layout.c4.tolist()) - set(first._layout.c4.tolist())
    assert min(first._layout.c4) < min(new) < max(first._layout.c4)
    given = spy_on_set_basis(monkeypatch)
    assert solve_lp(second, warm=sol).status == "optimal"
    (cols, rows), = given
    assert_carried(first, sol, second, cols, rows)


def test_other_warm_sources_start_cold(monkeypatch):
    from delaysched.gaplab import build_alternate_relaxation

    inst = separation_instance()
    model = build_relaxation(inst, set(inst.edges))
    sol = solve_lp(model)
    equal = make_instance(inst.jobs, inst.machines, inst.edges, inst.rho)  # another object
    alternate = build_alternate_relaxation(inst, "same_machine")
    alternate_sol = solve_lp(alternate)
    assert alternate_sol.status == "optimal" and alternate_sol.basis is None
    given = spy_on_set_basis(monkeypatch)
    for target, warm in [
        (build_relaxation(equal, set(inst.edges)), sol),
        (build_relaxation(inst, set(inst.edges)), alternate_sol),
        (alternate, sol),
    ]:
        assert solve_lp(target, warm=warm).status == "optimal"
    assert given == []
    assert solve_lp(build_relaxation(inst), warm=sol).status == "optimal"
    assert len(given) == 1  # the same instance, a later relaxation


def test_colliding_ids_reach_the_full_optimum(monkeypatch):
    # "a-b" and "a_b" give the same model names, and both are chosen
    # predecessors of j0; round two still starts each column and row from the
    # status of its own job, pair and machine
    base = separation_instance()
    rename = {"j1": "a-b", "j2": "a_b"}.get
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
    assert_each_round_keeps_the_previous_statuses(monkeypatch, inst)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(1, 3),
    st.floats(0.0, 1.0),
    st.sampled_from([0.3, 1.0, math.e**math.e, 16.0]),
    st.integers(0, 2**32 - 1),
)
@example(10, 3, 0.8, math.e**math.e, 112)
@example(10, 3, 0.8, math.e**math.e, 12)  # three rounds
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


@pytest.mark.parametrize("edges, sinks, reduction", [
    # diamond: no edge is implied, d is the only sink
    ([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], ["d"],
     [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    # chain with the shortcut (a, c) and the isolated job d
    ([("a", "b"), ("b", "c"), ("a", "c")], ["c", "d"], [("a", "b"), ("b", "c")]),
    # duplicate edges, the shortcut among them
    ([("a", "c"), ("a", "b"), ("b", "c"), ("a", "b"), ("c", "d"), ("a", "c")], ["d"],
     [("a", "b"), ("b", "c"), ("c", "d")]),
])
@pytest.mark.parametrize("rho", [0.0, 2.0])
def test_rows_one_and_two_only_where_chaining_does_not_imply_them(edges, sinks, reduction, rho):
    inst = make_instance([Job(x, 1.0 + k) for k, x in enumerate("abcd")],
                         [Machine("m0", 0.5), Machine("m1", 1.0)], edges, rho)
    want_c1 = [f"c1_{v}" for v in sinks]
    want_c2 = [f"c2_{u}_{v}" for u, v in reduction]
    for model in (build_relaxation(inst), build_relaxation(inst, set(edges))):
        names = [name for name, *_ in model.rows]
        assert [name for name in names if name.startswith("c1_")] == want_c1
        assert [name for name in names if name.startswith("c2_")] == want_c2


def test_restricted_model_keeps_only_chosen_pairs():
    inst = make_instance(
        [Job(x, 1.0) for x in "abc"], [Machine("m0", 1.0)], [("a", "b"), ("b", "c")], 2.0
    )
    model = build_relaxation(inst, {("a", "b"), ("b", "c")})
    assert sorted(model.z_index) == [("a", "b", "m0"), ("b", "c", "m0")]
    assert sum(1 for name, *_ in model.rows if name.startswith("c3_")) == 2
    assert len(build_relaxation(inst).z_index) == 3
