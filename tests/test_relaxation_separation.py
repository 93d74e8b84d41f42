"""Lazy same-phase pair generation against the full relaxation.

``solve_relaxation`` must reach the full model's optimum, and its extended
point (C, S and x from the last restricted solve, the solved z of the pairs
that joined, the least z rows (3) allow for every other transitive pair) must
be feasible for the full model.
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
from delaysched.gaplab import gap_lp_certificate
from delaysched.lp import FEAS_TOL, LpSolution


def solved_z(inst, sol):
    """The z values of ``solve_relaxation``'s solution by (u, v, i): m
    columns per pair of ``sol.pairs``, in that order, after C, S and x."""
    base = 1 + inst.n + inst.n * inst.m
    machines = [mc.id for mc in inst.machines]
    return {
        (u, v, i): sol.values[base + k * inst.m + b]
        for k, (u, v) in enumerate(sol.pairs) for b, i in enumerate(machines)
    }


def least_z(inst, sol, u, v, i):
    """The least z_{u,v,i} rows (3) allow at the solved x and S:
    max(0, X[v,i] - (S_v - S_u) / rho) with X[v,i] = x[v,1] + ... + x[v,i]."""
    machines = [mc.id for mc in inst.machines]
    prefix = sum(sol.x[(v, k)] for k in machines[: machines.index(i) + 1])
    return max(0.0, prefix - (sol.start[v] - sol.start[u]) / inst.rho)


def point(model, sol, z):
    """C, S and x of ``sol`` and the values ``z`` as a point of ``model``."""
    values = [0.0] * model.n_vars
    values[model.c_index] = sol.values[0]
    for key, idx in model.x_index.items():
        values[idx] = sol.x[key]
    for key, idx in model.s_index.items():
        values[idx] = sol.start[key]
    for key, idx in model.z_index.items():
        values[idx] = z[key]
    return LpSolution(tuple(values), sol.objective, "feasible")


def assert_exact(inst):
    full = build_relaxation(inst)
    reference = solve_lp(full)
    sol = solve_relaxation(inst)
    assert sol.status == reference.status == "optimal"
    assert sol.objective == pytest.approx(reference.objective, rel=1e-9)
    assert len(set(sol.pairs)) == len(sol.pairs)
    assert len(sol.values) == 1 + inst.n + inst.n * inst.m + inst.m * len(sol.pairs)
    assert sol.values[0] == pytest.approx(sol.objective, rel=1e-9)  # C
    z = solved_z(inst, sol)
    extended = {key: z[key] if key in z else least_z(inst, sol, *key) for key in full.z_index}
    assert not check_lp_feasibility(point(full, sol, extended), full, FEAS_TOL)
    model = build_relaxation(inst, set(sol.pairs))
    assert set(model.z_index) == set(z)
    assert not check_lp_feasibility(point(model, sol, z), model, FEAS_TOL)


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
    sol = solve_relaxation(inst)
    assert made[0].runs[0][0] == 1 + inst.n + inst.n * inst.m  # the first round has no z column
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(gap_lp_certificate(inst).objective, rel=1e-9)
    assert sol.objective == pytest.approx(inst.rho, rel=1e-9)


def test_later_rounds_start_warm(monkeypatch):
    inst = separation_instance()
    made = spy_on_highs(monkeypatch)
    sol = solve_relaxation(inst)
    (session,) = made
    assert len(session.runs) >= 2
    assert sol.iterations == tuple(count for _, count in session.runs)
    first, *later = sol.iterations
    assert all(k < first for k in later)
    model = build_relaxation(inst, set(sol.pairs))
    assert sol.iterations[-1] < solve_lp(model).iterations[0]  # the same model, cold


def canonical(cost, col_lower, col_upper, row_lower, row_upper, entries):
    """A model as its columns by position and its rows as a set, so that two
    models compare equal when they differ in the order of their rows only.
    ``entries`` are (row, column, value).  Asserts that no two rows are
    equal."""
    rows = [[] for _ in row_lower]
    for r, j, a in entries:
        rows[r].append((j, a))
    row_key = [(lo, hi, frozenset(terms)) for lo, hi, terms in zip(row_lower, row_upper, rows)]
    assert len(set(row_key)) == len(rows)
    return list(zip(col_lower, col_upper, cost)), set(row_key)


def session_columns(inst, model, pairs):
    """Where HiGHS holds each column of ``model`` when the z columns joined in
    the order of ``pairs``: C, S and x in place, then m columns per pair."""
    at = list(range(model.n_vars))
    k_of = {pair: k for k, pair in enumerate(pairs)}
    b_of = {mc.id: b for b, mc in enumerate(inst.machines)}
    base = 1 + inst.n + inst.n * inst.m
    for (u, v, i), j in model.z_index.items():
        at[j] = base + k_of[(u, v)] * inst.m + b_of[i]
    return at


def model_form(model, at):
    """The canonical form of ``model`` with its column j moved to ``at[j]``."""
    n = model.n_vars
    cost, lower, upper = [0.0] * n, [0.0] * n, [0.0] * n
    for j, lo, hi in zip(range(n), model.col_lower, model.col_upper):
        cost[at[j]], lower[at[j]], upper[at[j]] = model.objective.get(j, 0.0), float(lo), float(hi)
    entries = [(r, at[j], a) for r, (_, coeffs, _, _) in enumerate(model.rows)
               for j, a in coeffs.items()]
    return canonical(cost, lower, upper, *(list(map(float, a)) for a in (
        model.row_lower, model.row_upper)), entries)


def highs_form(highs):
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
                     list(held.row_lower_), list(held.row_upper_), entries)


def assert_session_holds_the_final_relaxation(monkeypatch, inst):
    """Returns the rounds solve_relaxation took."""
    made = spy_on_highs(monkeypatch)
    sol = solve_relaxation(inst)
    (session,) = made
    final = build_relaxation(inst, set(sol.pairs))
    # every column at its position: the z columns of sol.pairs[k] are the
    # k-th m columns after C, S and x
    assert highs_form(session) == model_form(
        final, session_columns(inst, final, sol.pairs))
    assert sol.values == tuple(session.getSolution().col_value)
    assert not check_lp_feasibility(point(final, sol, solved_z(inst, sol)), final, FEAS_TOL)
    return len(sol.iterations)


@pytest.mark.parametrize("inst, rounds", [
    (pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 2), 3),  # lp_heavy-shaped
    (gen_layered_gap(4, 2, 1), 1),
    # a job that has rows (4) gains more pairs in a later round, whose z
    # entries go into those rows
    (pipeline_input(60, 8, 0.1, (1, 4), (0.25, 1), 16.0, 10), 4),
], ids=["lp_heavy-2", "layered-4-2", "rows-four-grow"])
def test_session_holds_the_final_relaxation(monkeypatch, inst, rounds):
    # after the last round, what HiGHS holds is build_relaxation(inst,
    # set(sol.pairs)) with its z columns in the order of sol.pairs, up to the
    # order of the rows
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
    sol = solve_relaxation(inst)
    model = build_relaxation(inst, set(sol.pairs))
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
