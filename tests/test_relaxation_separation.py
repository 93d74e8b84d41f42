"""Lazy same-phase pair generation against the full relaxation.

``solve_relaxation`` must reach the full model's optimum, and its extended
point (C, S and x from the last restricted solve, z for every transitive pair)
must be feasible for the full model.
"""

import math

import numpy as np
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


def spy_on_highs(monkeypatch):
    """Every HiGHS object made from now on; each lists, per run, the columns
    it held and the simplex iterations the run took."""
    from scipy.optimize._highspy import _core

    made = []

    class Spy(_core._Highs):
        def __init__(self):
            super().__init__()
            self.runs = []
            made.append(self)

        def run(self):
            status = super().run()
            self.runs.append((self.getNumCol(), self.getInfo().simplex_iteration_count))
            return status

    monkeypatch.setattr(_core, "_Highs", Spy)
    return made


def test_separation_adds_pairs_until_none_violate(monkeypatch):
    inst = separation_instance()
    made = spy_on_highs(monkeypatch)
    solve_relaxation(inst)
    (session,) = made  # one HiGHS object serves every round
    cols = [n_cols for n_cols, _ in session.runs]
    assert len(cols) >= 2
    assert cols[0] == 1 + inst.n + inst.n * inst.m  # the first round has no same-phase pairs
    assert cols == sorted(set(cols))  # every later round adds pairs
    assert_exact(inst)


@pytest.mark.parametrize("layers, degree, seed", [(2, 4, 0), (4, 2, 1)])
def test_layered_gap_reaches_the_certificate_value(monkeypatch, layers, degree, seed):
    # the certificate's value rho is the LP optimum of the layered family
    inst = gen_layered_gap(layers, degree, seed)
    made = spy_on_highs(monkeypatch)
    _, sol = solve_relaxation(inst)
    assert made[0].runs[0][0] == 1 + inst.n + inst.n * inst.m  # the first round has no z column
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(gap_lp_certificate(inst).objective, rel=1e-9)
    assert sol.objective == pytest.approx(inst.rho, rel=1e-9)


def test_later_rounds_start_warm(monkeypatch):
    made = spy_on_highs(monkeypatch)
    model, sol = solve_relaxation(separation_instance())
    (session,) = made
    assert len(session.runs) >= 2
    assert sol.iterations == tuple(count for _, count in session.runs)
    first, *later = sol.iterations
    assert all(k < first for k in later)
    assert sol.iterations[-1] < solve_lp(model).iterations[0]  # the same model, cold


def canonical(cost, col_lower, col_upper, row_lower, row_upper, entries, fixed):
    """A model as sets that do not depend on the order of its z columns and
    rows: the first ``fixed`` columns (C, S and x) by position, every other
    column by its bounds and its entries, every row by its bounds and its
    entries in the fixed columns.  ``entries`` are (row, column, value).
    Asserts that no two rows and no two columns get the same key, so two
    models with equal canonical forms differ by a permutation only."""
    rows = [[] for _ in row_lower]
    cols = [[] for _ in col_lower]
    for r, j, a in entries:
        rows[r].append((j, a))
        cols[j].append((r, a))
    row_key = [
        (lo, hi, frozenset((j, a) for j, a in terms if j < fixed))
        for lo, hi, terms in zip(row_lower, row_upper, rows)
    ]
    col_key = [
        j if j < fixed else (lo, hi, c, frozenset((row_key[r], a) for r, a in terms))
        for j, (lo, hi, c, terms) in enumerate(zip(col_lower, col_upper, cost, cols))
    ]
    assert len(set(row_key)) == len(rows) and len(set(col_key)) == len(cols)
    return (
        [(lo, hi, c) for lo, hi, c in zip(col_lower[:fixed], col_upper[:fixed], cost[:fixed])],
        set(col_key[fixed:]),
        {(key, frozenset((col_key[j], a) for j, a in terms)) for key, terms in zip(row_key, rows)},
    )


def model_form(model):
    cost = [model.objective.get(j, 0.0) for j in range(model.n_vars)]
    entries = [(r, j, a) for r, (_, coeffs, _, _) in enumerate(model.rows) for j, a in coeffs.items()]
    return canonical(cost, *(list(map(float, a)) for a in (
        model.col_lower, model.col_upper, model.row_lower, model.row_upper)),
        entries, 1 + len(model.s_index) + len(model.x_index))


def highs_form(highs, fixed):
    from scipy.optimize._highspy import _core

    held = highs.getLp()
    matrix = held.a_matrix_
    rowwise = matrix.format_ == _core.MatrixFormat.kRowwise
    start, index, value = matrix.start_, matrix.index_, matrix.value_  # each read copies
    entries = [
        (k, index[p], value[p]) if rowwise else (index[p], k, value[p])
        for k in range(len(start) - 1)
        for p in range(start[k], start[k + 1])
    ]
    return canonical(list(held.col_cost_), list(held.col_lower_), list(held.col_upper_),
                     list(held.row_lower_), list(held.row_upper_), entries, fixed)


def assert_session_holds_the_final_relaxation(monkeypatch, inst):
    """Returns the rounds solve_relaxation took."""
    made = spy_on_highs(monkeypatch)
    model, sol = solve_relaxation(inst)
    (session,) = made
    final = build_relaxation(inst, {(u, v) for u, v, _ in model.z_index})
    for name in ("col_lower", "col_upper", "row_lower", "row_upper", "row_start", "row_cols", "row_vals"):
        assert np.array_equal(getattr(model, name), getattr(final, name))
    assert model.z_index == final.z_index
    fixed = 1 + inst.n + inst.n * inst.m
    assert highs_form(session, fixed) == model_form(final)
    assert not check_lp_feasibility(sol, model, FEAS_TOL)
    return len(sol.iterations)


@pytest.mark.parametrize("inst, rounds", [
    (pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 2), 3),  # lp_heavy-shaped
    (gen_layered_gap(4, 2, 1), 1),
    # a job that has rows (4) gains more pairs in a later round, whose z
    # entries go into those rows
    (pipeline_input(60, 8, 0.1, (1, 4), (0.25, 1), 16.0, 10), 4),
], ids=["lp_heavy-2", "layered-4-2", "rows-four-grow"])
def test_session_holds_the_final_relaxation(monkeypatch, inst, rounds):
    # after the last round, what HiGHS holds is the model solve_relaxation
    # returns, up to the order of the z columns and of the rows
    assert assert_session_holds_the_final_relaxation(monkeypatch, inst) == rounds


def test_rejected_append_raises(monkeypatch):
    from scipy.optimize._highspy import _core

    class Refusing(_core._Highs):
        def addCols(self, *args):
            super().addCols(*args)
            return _core.HighsStatus.kWarning

    monkeypatch.setattr(_core, "_Highs", Refusing)
    with pytest.raises(ValueError, match="^HiGHS rejected the rows and columns of a separation round$"):
        solve_relaxation(separation_instance())


def test_colliding_ids_reach_the_full_optimum(monkeypatch):
    # "a-b" and "a_b" give the same model names, and both are chosen
    # predecessors of j0; the columns and rows HiGHS holds still stand for
    # their own jobs, pairs and machines
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
    assert assert_session_holds_the_final_relaxation(monkeypatch, inst) >= 2


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
