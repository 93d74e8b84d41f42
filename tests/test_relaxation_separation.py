"""Subset-cut separation of rows (4) against the full relaxation.

``solve_relaxation`` must reach the full model's optimum, and its extended
point (C, S and x from the last solve, with the least z rows (3) allow for
every transitive pair) must be feasible for the full model.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import by_the_rule, mid_instance, reference_cuts, tiny_instance
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


def least_z(inst, x, start, u, v, i):
    """The least z_{u,v,i} rows (3) allow at the solved x and S, keyed by ids
    as :func:`by_the_rule` reads them: max(0, X[v,i] - (S_v - S_u) / rho)
    with X[v,i] = x[v,1] + ... + x[v,i]."""
    machines = [mc.id for mc in inst.machines]
    prefix = sum(x[(v, k)] for k in machines[: machines.index(i) + 1])
    return max(0.0, prefix - (start[v] - start[u]) / inst.rho)


def z_keys(model):
    """The (u, v, machine) ids of the z columns of ``model``, in column order
    from its layout's ``x_end``: by layout pair, then by machine."""
    layout = model._layout
    jobs, machines = [v.id for v in layout.inst.jobs], [mc.id for mc in layout.inst.machines]
    pairs = zip(layout.pu.tolist(), layout.pv.tolist())
    return [(jobs[u], jobs[v], i) for u, v in pairs for i in machines]


def point(inst, model, sol, z):
    """C, S and x of ``sol``, a point of the first model of ``inst``, and the
    values ``z``, by (u, v, machine) ids, as a point of ``model``: C, S and x
    lead both models' columns by the index rule, and z follows."""
    x_end = 1 + inst.n + inst.n * inst.m
    assert len(sol.values) == x_end == model._layout.x_end
    values = sol.values + tuple(z[key] for key in z_keys(model))
    return LpSolution(values, sol.objective, "feasible")


def assert_exact(inst):
    full = build_relaxation(inst)
    reference = solve_lp(full)
    sol = solve_relaxation(inst)
    assert sol.status == reference.status == "optimal"
    assert sol.objective == pytest.approx(reference.objective, rel=1e-9)
    assert sol.values[0] == pytest.approx(sol.objective, rel=1e-9)  # C
    # cuts add no columns: the values are the first model's C, S and x
    first = build_relaxation(inst, pairs=False)
    assert not check_lp_feasibility(sol, first, FEAS_TOL)
    x, start = by_the_rule(inst, sol.values)
    extended = {key: least_z(inst, x, start, *key) for key in z_keys(full)}
    assert not check_lp_feasibility(point(inst, full, sol, extended), full, FEAS_TOL)


def pipeline_input(*args):
    norm, _ = normalize_instance(gen_random_dag(*args))
    return filter_slow_machines(norm).filtered


@pytest.mark.parametrize("seed", range(200))  # the acceptance suite's tiny corpus
def test_tiny_corpus_matches_full_model(seed):
    assert_exact(tiny_instance(seed, n_max=5, m_max=2))


@pytest.mark.parametrize("seed", range(100))
def test_pipeline_corpus_matches_full_model(seed):
    # the acceptance suite's pipeline corpus, as the pipeline solves it
    inst = mid_instance(seed, n_max=40, m_max=8, rho_choices=(1.0, 4.0, 16.0))
    norm, _ = normalize_instance(inst)
    assert_exact(filter_slow_machines(norm).filtered)


RHOS = [0.3, 1.0, math.e**math.e, 16.0, 64.0, 0.0]


def separation_instance():
    """Needs two rounds: no cuts, then the cuts of the violated rows (4)."""
    return pipeline_input(12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 52)


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_dags_match_full_model(rho, seed):
    assert_exact(pipeline_input(12, 3, 0.35, (1, 4), (0.25, 1), rho, seed))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lp_heavy_scale_matches_full_model(seed):
    # the benchmark's lp_heavy shape; these seeds take two, four and three separation rounds
    assert_exact(pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, seed))


def assert_exact_at_scale(inst):
    """Assert that the extended point of ``solve_relaxation`` (C, S and x,
    with the least z of every transitive pair in array arithmetic) meets
    every row and bound of the full model at ``FEAS_TOL``.  Returns whether
    separation stopped on the held-cut rule; where it did, every row (4) is
    also checked against the bound the ``solve_relaxation`` docstring states,
    1e-7 / (rho s_i)."""
    sol = solve_relaxation(inst)
    assert sol.status == "optimal" and sol.values[0] == pytest.approx(sol.objective, rel=1e-9)
    full = build_relaxation(inst)
    layout, rho = full._layout, inst.rho
    n, m, u, v = layout.n, layout.m, layout.u, layout.v
    values = np.asarray(sol.values)
    start = values[1 : 1 + n]
    prefix = np.cumsum(values[1 + n : layout.x_end].reshape(n, m), axis=1)  # X[v, i]
    z = np.maximum(0.0, prefix[v] - ((start[v] - start[u]) / rho)[:, None])
    extended = np.concatenate((values, z.ravel()))
    assert not check_lp_feasibility(LpSolution(extended, sol.objective, "feasible"), full, FEAS_TOL)
    held_stop = len(lp._separate(layout, values)[0]) > 0
    if held_stop:
        row_of = np.repeat(np.arange(len(full.row_lower)), np.diff(full.row_start))
        lhs = np.bincount(row_of, weights=full.row_vals * extended[full.row_cols])
        first = len(layout.c1) + len(layout.eu) + len(u) * m  # rows (4) follow (1) to (3)
        rows4 = lhs[first : first + len(layout.c4) * m].reshape(-1, m)
        assert (rows4 >= -1e-7 / (rho * layout.speed)).all()
    return held_stop


@pytest.mark.parametrize("seed", [1, 2])
def test_scale_row_1000_is_exact(seed, record_property):
    # a CI step runs the same check at (2000, 8, .0032), too slow for tier-1
    inst = pipeline_input(1000, 8, 0.0064, (1, 4), (0.25, 1), 16.0, seed)
    record_property("held_cut_stop", assert_exact_at_scale(inst))


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
    and rows it held and the simplex iterations the run took."""
    from scipy.optimize._highspy import _core

    made = []

    class Spy(_core._Highs):
        def __init__(self):
            super().__init__()
            self.runs = []
            made.append(self)

        def run(self):
            status = super().run()
            self.runs.append((self.getNumCol(), self.getNumRow(),
                              self.getInfo().simplex_iteration_count))
            return status

    monkeypatch.setattr(_core, "_Highs", Spy)
    return made


def record_points(monkeypatch):
    """The point (C, S and x) that each separation round starts from."""
    points, real = [], lp._separate

    def recording(layout, values):
        points.append(values.copy())
        return real(layout, values)

    monkeypatch.setattr(lp, "_separate", recording)
    return points


def test_separation_adds_cuts_until_none_violate(monkeypatch):
    inst = separation_instance()
    made = spy_on_highs(monkeypatch)
    solve_relaxation(inst)
    (session,) = made  # one HiGHS object serves every round
    cols = {n_cols for n_cols, _, _ in session.runs}
    rows = [n_rows for _, n_rows, _ in session.runs]
    assert cols == {1 + inst.n + inst.n * inst.m}  # cuts add no columns
    assert len(rows) >= 2
    assert rows[0] == len(build_relaxation(inst, pairs=False).row_lower)
    assert rows == sorted(set(rows))  # every later round adds cuts
    assert_exact(inst)


@pytest.mark.parametrize("layers, degree, seed", [(2, 4, 0), (4, 2, 1)])
def test_layered_gap_reaches_the_certificate_value(monkeypatch, layers, degree, seed):
    # the certificate's value rho is the LP optimum of the layered family
    inst = gen_layered_gap(layers, degree, seed)
    made = spy_on_highs(monkeypatch)
    sol = solve_relaxation(inst)
    assert made[0].runs[0][0] == 1 + inst.n + inst.n * inst.m  # no z column
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(gap_lp_certificate(inst).objective, rel=1e-9)
    assert sol.objective == pytest.approx(inst.rho, rel=1e-9)


def cut_model(inst, points):
    """The first model with the reference cut rows of each point appended in
    turn, each distinct row once: the model a session holds after rounds
    that start from ``points``."""
    model = build_relaxation(inst, pairs=False)
    for name in ("row_lower", "row_upper", "row_start", "row_cols", "row_vals"):
        setattr(model, name, np.asarray(getattr(model, name)).tolist())
    held = set()
    for values in points:
        for v, i, row in reference_cuts(inst, values):
            if (key := tuple(row.items())) not in held:
                held.add(key)
                model.add_row(f"c4_{v}_{i}", row, ">=", 0.0)
    return model


def test_later_rounds_start_warm(monkeypatch):
    inst = separation_instance()
    made = spy_on_highs(monkeypatch)
    points = record_points(monkeypatch)
    sol = solve_relaxation(inst)
    (session,) = made
    assert len(session.runs) >= 2
    assert sol.iterations == tuple(count for _, _, count in session.runs)
    first, *later = sol.iterations
    assert all(k < first for k in later)
    # the same model, cold
    assert sol.iterations[-1] < solve_lp(cut_model(inst, points)).iterations[0]


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


def model_form(model):
    cost = [model.objective.get(j, 0.0) for j in range(model.n_vars)]
    entries = [(r, j, a) for r, (_, coeffs, _, _) in enumerate(model.rows)
               for j, a in coeffs.items()]
    return canonical(cost, *(list(map(float, a)) for a in (
        model.col_lower, model.col_upper, model.row_lower, model.row_upper)), entries)


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
    points = record_points(monkeypatch)
    sol = solve_relaxation(inst)
    (session,) = made
    final = cut_model(inst, points)
    assert highs_form(session) == model_form(final)
    assert sol.values == tuple(session.getSolution().col_value)
    assert not check_lp_feasibility(sol, final, FEAS_TOL)
    return len(sol.iterations)


@pytest.mark.parametrize("inst, rounds", [
    (pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 2), 4),  # lp_heavy-shaped
    (gen_layered_gap(4, 2, 1), 1),
    # some (v, i) gets a second cut, with another U, in a later round
    (pipeline_input(60, 8, 0.1, (1, 4), (0.25, 1), 16.0, 10), 4),
], ids=["lp_heavy-2", "layered-4-2", "rows-four-grow"])
def test_session_holds_the_final_relaxation(monkeypatch, inst, rounds):
    # after the last round, what HiGHS holds is the first model with the
    # loop-built cut rows of every round, up to the order of the rows
    assert assert_session_holds_the_final_relaxation(monkeypatch, inst) == rounds


def test_a_held_cut_is_not_added_again(monkeypatch):
    # real runs never find a held cut violated again; here every run reports
    # the first run's point, and the first round keeps only its first cut, so
    # round two adds the others and round three none
    inst = pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 2)
    made = spy_on_highs(monkeypatch)
    runs, real_run = [], lp._run

    def replay(highs):
        runs.append(real_run(highs))
        return runs[0]

    points, real_separate = [], lp._separate

    def first_cut_first(layout, values):
        points.append(values.copy())
        job, machine, member, cut = real_separate(layout, values)
        if len(points) > 1:
            return job, machine, member, cut
        keep = np.arange(len(job)) == 0
        sel = keep[cut]
        return job[keep], machine[keep], member[sel], (np.cumsum(keep) - 1)[cut[sel]]

    monkeypatch.setattr(lp, "_run", replay)
    monkeypatch.setattr(lp, "_separate", first_cut_first)
    sol = solve_relaxation(inst)
    (session,) = made
    rows = [n_rows for _, n_rows, _ in session.runs]
    cuts = reference_cuts(inst, points[0])
    assert len(cuts) >= 2
    assert len(rows) == 3 and rows[0] < rows[1] < rows[2] == session.getNumRow()
    assert rows[2] - rows[0] == len(cuts)
    assert highs_form(session) == model_form(cut_model(inst, points[:1]))  # no row twice
    assert sol.objective == runs[0][2]


def test_rejected_append_raises(monkeypatch):
    from scipy.optimize._highspy import _core

    class Refusing(_core._Highs):
        def addRows(self, *args):
            super().addRows(*args)
            return _core.HighsStatus.kWarning

    monkeypatch.setattr(_core, "_Highs", Refusing)
    with pytest.raises(ValueError, match="^HiGHS rejected the cut rows of a separation round$"):
        solve_relaxation(separation_instance())


def test_refused_starting_basis_raises(monkeypatch):
    from scipy.optimize._highspy import _core

    class Refusing(_core._Highs):
        def setBasis(self, basis):
            return _core.HighsStatus.kError

    monkeypatch.setattr(_core, "_Highs", Refusing)
    with pytest.raises(ValueError, match="^HiGHS rejected the starting basis$"):
        solve_relaxation(separation_instance())


def test_colliding_ids_reach_the_full_optimum(monkeypatch):
    # "a-b" and "a_b" give the same model names, and both are predecessors of
    # j0; the cut rows HiGHS holds still stand for their own jobs and machines
    base = separation_instance()
    rename = {"j1": "a-b", "j2": "a_b"}.get
    inst = make_instance(
        [Job(rename(v.id, v.id), v.size) for v in base.jobs],
        base.machines,
        [(rename(u, u), rename(v, v)) for u, v in base.edges],
        base.rho,
    )
    model = build_relaxation(inst)
    z_names = model.var_names[model._layout.x_end:]
    assert len(set(z_names)) < len(z_names)
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
    # diamond: d is the only sink
    ([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], ["d"],
     [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    # chain with the shortcut (a, c) and the isolated job d
    ([("a", "b"), ("b", "c"), ("a", "c")], ["c", "d"], [("a", "b"), ("a", "c"), ("b", "c")]),
    # duplicate edges, the shortcut among them
    ([("a", "c"), ("a", "b"), ("b", "c"), ("a", "b"), ("c", "d"), ("a", "c")], ["d"],
     [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]),
])
@pytest.mark.parametrize("rho", [0.0, 2.0])
def test_rows_one_and_two_only_where_chaining_does_not_imply_them(edges, sinks, reduction, rho):
    # rows (1) for the sinks only; `reduction` is the edges with rows (2),
    # which is every distinct direct edge, shortcuts included, by v, then u
    inst = make_instance([Job(x, 1.0 + k) for k, x in enumerate("abcd")],
                         [Machine("m0", 0.5), Machine("m1", 1.0)], edges, rho)
    want_c1 = [f"c1_{v}" for v in sinks]
    want_c2 = [f"c2_{u}_{v}" for u, v in reduction]
    for model in (build_relaxation(inst), build_relaxation(inst, pairs=False)):
        names = [name for name, *_ in model.rows]
        assert [name for name in names if name.startswith("c1_")] == want_c1
        assert [name for name in names if name.startswith("c2_")] == want_c2


def test_first_model_has_no_pairs():
    inst = make_instance(
        [Job(x, 1.0) for x in "abc"], [Machine("m0", 1.0)], [("a", "b"), ("b", "c")], 2.0
    )
    first = build_relaxation(inst, pairs=False)
    assert first.n_vars == first._layout.x_end == 1 + 3 + 3  # no z columns
    assert not [name for name in first.row_names if name.startswith(("c3_", "c4_"))]
    full = build_relaxation(inst)
    assert full.n_vars - full._layout.x_end == 3  # z columns
    with pytest.raises(TypeError, match="^pairs must be True or False"):
        build_relaxation(inst, {("a", "b")})  # the subset form is gone


def start_point(inst):
    """The first model of ``inst``, its starting basis (basic columns, basic
    rows), and the duals, reduced costs and point that basis fixes, with
    every nonbasic column at 0 and every tight row at its lower bound; None
    without a basis.  Asserts that the basis is square and nonsingular."""
    model = build_relaxation(inst, pairs=False)
    start = lp._critical_path_basis(model._layout)
    if start is None:
        return None
    cols, rows = start
    n_rows = len(model.row_lower)
    A = np.zeros((n_rows, model.n_vars))
    for r, (_, coeffs, _, _) in enumerate(model.rows):
        for j, a in coeffs.items():
            A[r, j] = a
    cost = np.zeros(model.n_vars)
    cost[0] = 1.0  # C
    tight = ~rows
    assert tight.sum() == cols.sum()  # a square basic submatrix
    B = A[np.ix_(tight, cols)]
    assert np.linalg.matrix_rank(B) == len(B)
    y = np.zeros(n_rows)
    y[tight] = np.linalg.solve(B.T, cost[cols])
    d = cost - A.T @ y
    x = np.zeros(model.n_vars)
    x[cols] = np.linalg.solve(B, np.asarray(model.row_lower)[tight])
    return model, cols, rows, y, d, x


def assert_dual_feasible_start(inst):
    """The starting basis is dual feasible, and only rows (5) can be
    violated at its point.  Returns whether a job left the fastest machine
    (None without a basis)."""
    got = start_point(inst)
    if got is None:
        return None
    model, cols, rows, y, d, x = got
    assert (d[~cols] >= -1e-9).all()
    assert np.allclose(d[cols], 0.0, atol=1e-9)
    names = model.row_names
    ge = np.array([not name.startswith("c6_") for name in names])  # rows >= 0
    assert (y[ge] >= -1e-9).all()
    assert (x >= -1e-9).all() and (x[1 + inst.n:] <= 1 + 1e-9).all()
    activity = np.array([sum(a * x[j] for j, a in coeffs.items())
                         for _, coeffs, _, _ in model.rows])
    met = ((activity >= np.asarray(model.row_lower) - 1e-9)
           & (activity <= np.asarray(model.row_upper) + 1e-9))
    assert all(ok or name.startswith("c5_") for ok, name in zip(met, names))
    on = x[1 + inst.n:].reshape(inst.n, inst.m) > 0.5
    return bool((~on[:, -1]).any())


def test_starting_basis_is_dual_feasible_on_the_tiny_corpus():
    moved = [assert_dual_feasible_start(tiny_instance(seed, n_max=5, m_max=2))
             for seed in range(200)]
    assert moved.count(None) < len(moved)


def test_starting_basis_is_dual_feasible_on_the_pipeline_corpus():
    moved = []
    for seed in range(100):
        inst = mid_instance(seed, n_max=40, m_max=8, rho_choices=(1.0, 4.0, 16.0))
        norm, _ = normalize_instance(inst)
        moved.append(assert_dual_feasible_start(filter_slow_machines(norm).filtered))
    assert True in moved  # the load moves are exercised


def test_starting_basis_cuts_the_first_round():
    inst = pipeline_input(32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 2)  # lp_heavy-2
    assert assert_dual_feasible_start(inst)
    cold = solve_lp(build_relaxation(inst, pairs=False))
    sol = solve_relaxation(inst)
    assert sol.iterations[0] < cold.iterations[0]


@pytest.mark.parametrize("inst", [
    gen_layered_gap(4, 2, 1),
    pipeline_input(32, 8, 0.2, (1, 4), (0.5, 0.5), 16.0, 2),
], ids=["layered-4-2", "lp_heavy-shaped-one-speed"])
def test_one_speed_starts_cold(inst):
    # with no strictly slower machine there is no basis, and the first round
    # is the cold solve of the first model
    assert len({mc.speed for mc in inst.machines}) == 1
    assert lp._critical_path_basis(build_relaxation(inst, pairs=False)._layout) is None
    cold = solve_lp(build_relaxation(inst, pairs=False))
    sol = solve_relaxation(inst)
    assert sol.iterations[0] == cold.iterations[0]
    if len(sol.iterations) == 1:
        assert sol.values == cold.values
