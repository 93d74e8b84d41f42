import math

import pytest

from conftest import tiny_instance
from delaysched import (
    Job,
    Machine,
    Placement,
    Schedule,
    build_relaxation,
    check_lp_feasibility,
    embed_schedule_as_lp,
    exact_optimal_makespan,
    gen_random_dag,
    make_instance,
    normalize_instance,
    solve_lp,
)
from delaysched.lp import LpModel, LpSolution, export_lp_text


def unit(n_jobs, n_machines, edges, rho):
    return make_instance(
        [Job(x, 1.0) for x in "abcdefgh"[:n_jobs]],
        [Machine(f"m{k}", 1.0) for k in range(n_machines)],
        edges,
        rho,
    )


def test_single_job_model_shape():
    model = build_relaxation(unit(1, 1, [], 2.0))
    assert not model.z_index
    families = {name.split("_")[0] for name, *_ in model.rows}
    assert families == {"c1", "c5", "c6"}
    # bounds carry the remaining families: S >= 0, x in [0, 1]
    assert model.bounds[model.s_index["a"]] == (0.0, math.inf)
    assert model.bounds[model.x_index[("a", "m0")]] == (0.0, 1.0)


def test_chain_model_counts():
    model = build_relaxation(unit(2, 2, [("a", "b")], 2.0))
    assert len(model.z_index) == 2
    assert sum(1 for name, *_ in model.rows if name.startswith("c3_")) == 2


def test_diamond_z_count():
    inst = unit(4, 2, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], 2.0)
    model = build_relaxation(inst)
    assert len(model.z_index) == 5 * 2


def test_solve_single_job():
    sol = solve_lp(build_relaxation(unit(1, 1, [], 2.0)))
    assert sol.status == "optimal" and sol.objective == pytest.approx(1.0, abs=1e-7)


def test_solve_two_independent():
    sol = solve_lp(build_relaxation(unit(2, 2, [], 1.0)))
    assert sol.objective == pytest.approx(1.0, abs=1e-7)


def test_solve_chain_single_machine():
    inst = unit(2, 1, [("a", "b")], 3.0)
    sol = solve_lp(build_relaxation(inst))
    assert sol.objective == pytest.approx(2.0, abs=1e-7)
    # the serial schedule embeds feasibly, confirming 2 is reachable
    serial = Schedule((Placement("a", "m0", 0.0), Placement("b", "m0", 1.0)))
    emb = embed_schedule_as_lp(inst, serial)
    assert not check_lp_feasibility(emb, build_relaxation(inst))


def test_feasibility_checker_flags_zero_point():
    model = build_relaxation(unit(1, 1, [], 1.0))
    zero = LpSolution(values=(0.0,) * model.n_vars, objective=0.0, status="feasible")
    names = [name for name, _ in check_lp_feasibility(zero, model)]
    assert any(name.startswith("c6_") for name in names)


def test_solver_output_feasible():
    for seed in (0, 4, 7):
        inst, _ = normalize_instance(tiny_instance(seed, n_max=4))
        model = build_relaxation(inst)
        sol = solve_lp(model)
        assert sol.status == "optimal"
        assert not check_lp_feasibility(sol, model)


def _dense_arrays(model):
    """The model as dense linprog arrays, built independently of solve_lp."""
    import numpy as np

    n = model.n_vars
    c = np.zeros(n)
    for j, a in model.objective.items():
        c[j] = a
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for _, coeffs, sense, rhs in model.rows:
        row = np.zeros(n)
        for j, a in coeffs.items():
            row[j] = a
        if sense == "=":
            a_eq.append(row)
            b_eq.append(rhs)
        elif sense == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        else:
            a_ub.append(-row)
            b_ub.append(-rhs)
    bounds = [(lo, None if hi == math.inf else hi) for lo, hi in model.bounds]
    return c, np.array(a_ub), np.array(b_ub), np.array(a_eq), np.array(b_eq), bounds


def test_engines_agree():
    """HiGHS dual simplex (solve_lp) against HiGHS interior point on the same LPs."""
    from scipy.optimize import linprog

    for seed in (1, 5, 9):
        inst, _ = normalize_instance(tiny_instance(seed, n_max=5))
        model = build_relaxation(inst)
        c, a_ub, b_ub, a_eq, b_eq, bounds = _dense_arrays(model)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                      method="highs-ipm")
        assert ref.status == 0
        assert solve_lp(model).objective == pytest.approx(ref.fun, abs=1e-6)


def test_solution_values_follow_indices_when_names_collide():
    # "a-b" and "a_b" sanitize to the same variable names; values must still
    # be read by index, not by name
    inst = make_instance(
        [Job("a-b", 1.0), Job("a_b", 3.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [("a-b", "a_b")],
        2.0,
    )
    model = build_relaxation(inst)
    assert len(set(model.var_names)) < model.n_vars
    sol = solve_lp(model)
    assert sol.start == {v: sol.values[idx] for v, idx in model.s_index.items()}
    assert not check_lp_feasibility(sol, model)


def test_solver_deterministic_bit_pattern():
    inst, _ = normalize_instance(tiny_instance(3))
    model = build_relaxation(inst)
    a = solve_lp(model)
    b = solve_lp(model)
    assert a.values == b.values and a.objective == b.objective


def test_infeasible_status():
    model = LpModel()
    x = model.add_var("x", 0.0, 1.0)
    model.objective = {x: 1.0}
    model.add_row("force_two", {x: 1.0}, "=", 2.0)
    sol = solve_lp(model)
    assert sol.status == "infeasible"
    assert math.isnan(sol.objective)


def test_unbounded_status():
    model = LpModel()
    model.objective = {model.add_var("x"): -1.0}
    sol = solve_lp(model)
    assert sol.status == "unbounded"
    assert math.isnan(sol.objective)


def test_embed_single_job():
    inst = unit(1, 1, [], 2.0)
    sched = Schedule((Placement("a", "m0", 0.0),))
    sol = embed_schedule_as_lp(inst, sched)
    assert sol.objective == pytest.approx(2.0)
    assert sol.x[("a", "m0")] == 1.0 and sol.start["a"] == 0.0


def test_embed_serial_chain_phase_doubling():
    inst = unit(2, 1, [("a", "b")], 5.0)
    sched = Schedule((Placement("a", "m0", 0.0), Placement("b", "m0", 1.0)))
    model = build_relaxation(inst)
    sol = embed_schedule_as_lp(inst, sched, model)
    assert sol.objective == pytest.approx(4.0)  # both jobs in phase 0, no shift
    assert not check_lp_feasibility(sol, model)


def test_embed_oracle_witnesses_feasible():
    for seed in range(10):
        inst = tiny_instance(seed, n_max=4)
        _, witness = exact_optimal_makespan(inst, allow_duplication=True)
        model = build_relaxation(inst)
        sol = embed_schedule_as_lp(inst, witness, model)
        assert not check_lp_feasibility(sol, model)


def test_embed_rejects_invalid_schedule():
    inst = unit(2, 1, [("a", "b")], 1.0)
    broken = Schedule((Placement("a", "m0", 0.0),))  # b never placed
    with pytest.raises(ValueError):
        embed_schedule_as_lp(inst, broken)


def test_relaxation_validity_small():
    for seed in range(8):
        inst = tiny_instance(seed)
        c_star, _ = exact_optimal_makespan(inst, allow_duplication=True)
        sol = solve_lp(build_relaxation(inst))
        assert sol.objective <= 2.0 * c_star + 1e-6


def test_edge_addition_never_decreases_optimum():
    base = unit(3, 2, [("a", "b")], 2.0)
    more = unit(3, 2, [("a", "b"), ("b", "c")], 2.0)
    v0 = solve_lp(build_relaxation(base)).objective
    v1 = solve_lp(build_relaxation(more)).objective
    assert v1 >= v0 - 1e-6
    base2 = tiny_instance(6, n_max=4)
    import itertools

    ids = [j.id for j in base2.jobs]
    extra = None
    preds = __import__("delaysched").transitive_predecessors(base2)
    for u, v in itertools.permutations(ids, 2):
        if u not in preds[v] and v not in preds[u]:
            extra = (u, v)
            break
    if extra:
        from delaysched.instance import Instance

        aug = Instance(base2.jobs, base2.machines, base2.edges + (extra,), base2.rho)
        a = solve_lp(build_relaxation(base2)).objective
        b = solve_lp(build_relaxation(aug)).objective
        assert b >= a - 1e-6


def test_scaling_multiplies_optimum():
    inst = tiny_instance(4, n_max=4)
    alpha, beta = 3.0, 0.5
    from delaysched.instance import Instance

    scaled = Instance(
        tuple(Job(j.id, j.size * alpha) for j in inst.jobs),
        tuple(Machine(mc.id, mc.speed * beta) for mc in inst.machines),
        inst.edges,
        inst.rho * alpha / beta,
    )
    v0 = solve_lp(build_relaxation(inst)).objective
    v1 = solve_lp(build_relaxation(scaled)).objective
    assert v1 == pytest.approx(v0 * alpha / beta, rel=1e-6)


def test_rho_zero_model_drops_delay_rows():
    model = build_relaxation(unit(2, 1, [("a", "b")], 0.0))
    assert not model.z_index
    assert not any(name.startswith(("c3_", "c4_")) for name, *_ in model.rows)
    assert solve_lp(model).objective == pytest.approx(2.0, abs=1e-7)


def test_lp_text_export():
    model = build_relaxation(unit(2, 1, [("a", "b")], 2.0))
    text = export_lp_text(model)
    for token in ("Minimize", "Subject To", "Bounds", "End", "c1_a", "c3_a_b_m0"):
        assert token in text


def test_lp_text_export_names_are_distinct():
    # "a-b" and "a_b" give equal model names; the export tells them apart and
    # leaves the names of alphanumeric ids as they are
    inst = make_instance(
        [Job("a-b", 1.0), Job("a_b", 3.0)],
        [Machine("m0", 1.0), Machine("m1", 1.0)],
        [("a-b", "a_b")],
        2.0,
    )
    model = build_relaxation(inst)
    lines = export_lp_text(model).splitlines()
    rows = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
    row_names = [line.split(":")[0].strip() for line in rows]
    var_names = [line.split("<=")[1].strip() for line in lines[lines.index("Bounds") + 1 : -1]]
    assert len(model.rows) == len(row_names) == len(set(row_names)) == 11
    assert len({name for name, *_ in model.rows}) < 11
    assert len(var_names) == len(set(var_names)) == model.n_vars
    assert row_names[:2] == ["c1_a_b", "c1_a_b#2"]
    assert {"C", "c5_m0", "c5_m1"} <= set(var_names) | set(row_names)


def test_rows_view_round_trips_added_rows():
    model = LpModel()
    x, y, z = (model.add_var(name) for name in ("x", "y", "z"))
    added = [
        ("first", {z: 2.0, x: -1.5}, ">=", 0.0),
        ("empty", {}, "<=", 3.0),
        ("second", {y: 1.0, x: 4.0, z: -0.25}, "=", 1.0),
    ]
    for row in added:
        model.add_row(*row)
    assert list(model.rows) == added
    assert [list(coeffs) for _, coeffs, _, _ in model.rows] == [[z, x], [], [y, x, z]]
    assert len(model.rows) == 3
    assert model.rows[0] == added[0] and model.rows[-1] == added[2]
    with pytest.raises(IndexError):
        model.rows[3]
    # the view hands out copies: changing one leaves the model as it was
    before = [(name, dict(coeffs), sense, rhs) for name, coeffs, sense, rhs in added]
    model.rows[0][1][y] = 9.0
    assert list(model.rows) == before


def _assembly_models():
    from delaysched.gaplab import build_alternate_relaxation

    inst, _ = normalize_instance(gen_random_dag(6, 3, 0.4, (1, 4), (0.25, 1), 4.0, 3))
    # ">=" and "=" rows; then "<=" rows as well
    return build_relaxation(inst), build_alternate_relaxation(inst, "time_indexed", 6)


def test_solve_lp_assembles_the_rows_it_is_given(monkeypatch):
    import numpy as np
    from scipy.optimize._highspy import _core

    seen = []

    class Spy(_core._Highs):
        def passModel(self, lp):
            seen.append(lp)
            return super().passModel(lp)

    monkeypatch.setattr(_core, "_Highs", Spy)
    for model in _assembly_models():
        seen.clear()
        assert solve_lp(model).status == "optimal"
        (lp,), n, m = seen, model.n_vars, len(model.rows)
        ref_c = _dense_arrays(model)[0]
        ref_a = np.zeros((m, n))
        for r, (_, coeffs, _, _) in enumerate(model.rows):
            for j, a in coeffs.items():
                ref_a[r, j] = a
        matrix = lp.a_matrix_
        assert matrix.format_ == _core.MatrixFormat.kRowwise
        assert (lp.num_col_, lp.num_row_, matrix.num_col_, matrix.num_row_) == (n, m, n, m)
        a = np.zeros((m, n))
        for r in range(m):
            for k in range(matrix.start_[r], matrix.start_[r + 1]):
                a[r, matrix.index_[k]] += matrix.value_[k]
        assert np.array_equal(a, ref_a) and np.array_equal(lp.col_cost_, ref_c)
        assert list(zip(lp.col_lower_, lp.col_upper_)) == model.bounds
        senses = [sense for _, _, sense, _ in model.rows]
        rhs = [b for *_, b in model.rows]
        assert lp.row_lower_ == [-math.inf if s == "<=" else b for s, b in zip(senses, rhs)]
        assert lp.row_upper_ == [math.inf if s == ">=" else b for s, b in zip(senses, rhs)]


def test_row_with_unknown_column_is_rejected():
    model = LpModel()
    model.objective = {model.add_var("x"): 1.0}
    model.add_row("r", {5: 1.0}, ">=", 1.0)
    with pytest.raises(ValueError):
        solve_lp(model)


@pytest.mark.parametrize("j", [5, -1])
def test_objective_with_unknown_column_is_rejected(j):
    model = LpModel()
    model.add_var("x")
    model.objective = {j: 1.0}
    with pytest.raises(ValueError, match=f"objective names column {j} "):
        solve_lp(model)


@pytest.mark.parametrize("cost, coeff, rhs, match", [
    (math.nan, 1.0, 1.0, "objective coefficient of x is nan"),
    (math.inf, 1.0, 1.0, "objective coefficient of x is inf"),
    (1.0, math.nan, 1.0, "row r has coefficient nan"),
    (1.0, 1.0, math.nan, "HiGHS rejected the model"),
])
def test_non_finite_model_is_rejected(cost, coeff, rhs, match):
    model = LpModel()
    x = model.add_var("x")
    model.objective = {x: cost}
    model.add_row("q", {x: 1.0}, "<=", 5.0)
    model.add_row("r", {x: coeff}, ">=", rhs)
    with pytest.raises(ValueError, match=match):
        solve_lp(model)


def test_finite_objective_whose_sum_overflows_is_accepted():
    model = LpModel()
    model.objective = {model.add_var(name, 0.0, 1.0): 1e308 for name in "xy"}
    assert solve_lp(model).status == "optimal"


DIAMOND_LP = """\
Minimize
 obj: C
Subject To
 c1_a: C - S_a - 2 x_a_m1 - x_a_m0 >= 0
 c1_b: C - S_b - 4 x_b_m1 - 2 x_b_m0 >= 0
 c1_c: C - S_c - 6 x_c_m1 - 3 x_c_m0 >= 0
 c1_d: C - S_d - 2 x_d_m1 - x_d_m0 >= 0
 c2_a_b: - S_a + S_b - 2 x_a_m1 - x_a_m0 >= 0
 c2_a_c: - S_a + S_c - 2 x_a_m1 - x_a_m0 >= 0
 c2_b_d: - S_b + S_d - 4 x_b_m1 - 2 x_b_m0 >= 0
 c2_c_d: - S_c + S_d - 6 x_c_m1 - 3 x_c_m0 >= 0
 c3_a_b_m1: - S_a + S_b - 2 x_b_m1 + 2 z_a_b_m1 >= 0
 c3_a_b_m0: - S_a + S_b - 2 x_b_m1 - 2 x_b_m0 + 2 z_a_b_m0 >= 0
 c3_a_c_m1: - S_a + S_c - 2 x_c_m1 + 2 z_a_c_m1 >= 0
 c3_a_c_m0: - S_a + S_c - 2 x_c_m1 - 2 x_c_m0 + 2 z_a_c_m0 >= 0
 c3_a_d_m1: - S_a + S_d - 2 x_d_m1 + 2 z_a_d_m1 >= 0
 c3_a_d_m0: - S_a + S_d - 2 x_d_m1 - 2 x_d_m0 + 2 z_a_d_m0 >= 0
 c3_b_d_m1: - S_b + S_d - 2 x_d_m1 + 2 z_b_d_m1 >= 0
 c3_b_d_m0: - S_b + S_d - 2 x_d_m1 - 2 x_d_m0 + 2 z_b_d_m0 >= 0
 c3_c_d_m1: - S_c + S_d - 2 x_d_m1 + 2 z_c_d_m1 >= 0
 c3_c_d_m0: - S_c + S_d - 2 x_d_m1 - 2 x_d_m0 + 2 z_c_d_m0 >= 0
 c4_b_m1: x_b_m1 - z_a_b_m1 >= 0
 c4_b_m0: x_b_m1 + x_b_m0 - 0.5 z_a_b_m0 >= 0
 c4_c_m1: x_c_m1 - z_a_c_m1 >= 0
 c4_c_m0: x_c_m1 + x_c_m0 - 0.5 z_a_c_m0 >= 0
 c4_d_m1: x_d_m1 - z_a_d_m1 - 2 z_b_d_m1 - 3 z_c_d_m1 >= 0
 c4_d_m0: x_d_m1 + x_d_m0 - 0.5 z_a_d_m0 - z_b_d_m0 - 1.5 z_c_d_m0 >= 0
 c5_m1: 0.5 C - x_a_m1 - 2 x_b_m1 - 3 x_c_m1 - x_d_m1 >= 0
 c5_m0: C - x_a_m0 - 2 x_b_m0 - 3 x_c_m0 - x_d_m0 >= 0
 c6_a: x_a_m1 + x_a_m0 = 1
 c6_b: x_b_m1 + x_b_m0 = 1
 c6_c: x_c_m1 + x_c_m0 = 1
 c6_d: x_d_m1 + x_d_m0 = 1
Bounds
 0 <= C
 0 <= S_a
 0 <= S_b
 0 <= S_c
 0 <= S_d
 0 <= x_a_m1 <= 1
 0 <= x_a_m0 <= 1
 0 <= x_b_m1 <= 1
 0 <= x_b_m0 <= 1
 0 <= x_c_m1 <= 1
 0 <= x_c_m0 <= 1
 0 <= x_d_m1 <= 1
 0 <= x_d_m0 <= 1
 0 <= z_a_b_m1 <= 1
 0 <= z_a_b_m0 <= 1
 0 <= z_a_c_m1 <= 1
 0 <= z_a_c_m0 <= 1
 0 <= z_a_d_m1 <= 1
 0 <= z_a_d_m0 <= 1
 0 <= z_b_d_m1 <= 1
 0 <= z_b_d_m0 <= 1
 0 <= z_c_d_m1 <= 1
 0 <= z_c_d_m0 <= 1
End
"""


def test_lp_text_export_of_diamond_is_pinned():
    # guards variable and row names, row order and coefficients of all six families
    inst = make_instance(
        [Job("a", 1.0), Job("b", 2.0), Job("c", 3.0), Job("d", 1.0)],
        [Machine("m0", 1.0), Machine("m1", 0.5)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        2.0,
    )
    model = build_relaxation(inst)
    assert export_lp_text(model) == DIAMOND_LP
    # the export sorts terms by column; the rows keep the order they were built in
    order = {name: list(coeffs) for name, coeffs, _, _ in model.rows}
    assert [order[name] for name in ("c1_a", "c2_b_d", "c3_a_b_m0", "c4_d_m0", "c5_m0", "c6_a")] == [
        [0, 1, 5, 6], [4, 2, 7, 8], [2, 1, 7, 8, 14], [11, 12, 18, 20, 22], [0, 6, 8, 10, 12], [5, 6],
    ]
