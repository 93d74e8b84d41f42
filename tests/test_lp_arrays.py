"""The array-built relaxation against row-by-row references.

``build_relaxation`` computes its rows by index arithmetic; here a builder
that appends the same rows one at a time with ``add_row`` is the reference,
and a loop over each job's pairs is the reference for the cut rows of
separation.  Both must agree exactly.  The same builder with every row (1)
kept must reach the same optimum, and the constructed points must meet those
rows too.  The first-round HiGHS input of two benchmark-shaped instances is
pinned by digest, and names are shown to be made only on read.
"""

import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import by_the_rule, mid_instance, reference_cuts, tiny_instance
from delaysched import (
    Job,
    build_relaxation,
    check_lp_feasibility,
    embed_schedule_as_lp,
    exact_optimal_makespan,
    filter_slow_machines,
    gen_layered_gap,
    gen_random_dag,
    make_instance,
    normalize_instance,
    run_pipeline,
    solve_lp,
    transitive_predecessors,
)
from delaysched import lp
from delaysched.gaplab import gap_lp_certificate
from delaysched.instance import TOL


def reference_relaxation(inst, pairs=True, trimmed=True):
    """Rows (1) to (6) appended one at a time, in the builder's order.

    ``pairs=False`` leaves out every same-phase pair, as the builder does.
    Every distinct direct edge has a row (2).  ``trimmed`` keeps rows (1) for
    the sinks only, as the builder does; without it every job has a row (1).
    """
    closure = transitive_predecessors(inst)
    preds = {v.id: sorted(closure[v.id]) if pairs and inst.rho > 0 else [] for v in inst.jobs}
    direct = {v: set(us) for v, us in inst.direct_predecessors().items()}
    has_successor = {u for us in direct.values() for u in us}
    rho, size = inst.rho, inst.size
    machines = [(mc.id, mc.speed) for mc in inst.machines]
    model = lp._scaffold(inst)
    # the reference encoding of the scaffold's columns, keyed by ids
    C = 0
    S = {v.id: 1 + k for k, v in enumerate(inst.jobs)}
    x = {(v.id, mc.id): 1 + inst.n + k * inst.m + i
         for k, v in enumerate(inst.jobs) for i, mc in enumerate(inst.machines)}
    z = {}
    for v in inst.jobs:
        for u in preds[v.id]:
            for i, _ in machines:
                z[(u, v.id, i)] = model.add_var(
                    f"z_{lp._safe(u)}_{lp._safe(v.id)}_{lp._safe(i)}", 0.0, 1.0
                )
    for v in inst.jobs:
        if trimmed and v.id in has_successor:
            continue
        row = {C: 1.0, S[v.id]: -1.0} | {x[(v.id, i)]: -v.size / s for i, s in machines}
        model.add_row(f"c1_{lp._safe(v.id)}", row, ">=", 0.0)
    for v in inst.jobs:
        for u in sorted(direct[v.id]):
            row = {S[v.id]: 1.0, S[u]: -1.0} | {x[(u, i)]: -size(u) / s for i, s in machines}
            model.add_row(f"c2_{lp._safe(u)}_{lp._safe(v.id)}", row, ">=", 0.0)
    for v in inst.jobs:
        for u in preds[v.id]:
            for k, (i, _) in enumerate(machines):
                row = {S[v.id]: 1.0, S[u]: -1.0}
                row |= {x[(v.id, j)]: -rho for j, _ in machines[: k + 1]}
                row[z[(u, v.id, i)]] = rho
                model.add_row(f"c3_{lp._safe(u)}_{lp._safe(v.id)}_{lp._safe(i)}", row, ">=", 0.0)
    for v in inst.jobs:
        for k, (i, s) in enumerate(machines):
            if preds[v.id]:
                row = {x[(v.id, j)]: 1.0 for j, _ in machines[: k + 1]}
                row |= {z[(u, v.id, i)]: -size(u) / (rho * s) for u in preds[v.id]}
                model.add_row(f"c4_{lp._safe(v.id)}_{lp._safe(i)}", row, ">=", 0.0)
    for i, s in machines:
        row = {C: s} | {x[(v.id, i)]: -v.size for v in inst.jobs}
        model.add_row(f"c5_{lp._safe(i)}", row, ">=", 0.0)
    for v in inst.jobs:
        model.add_row(f"c6_{lp._safe(v.id)}", {x[(v.id, i)]: 1.0 for i, _ in machines}, "=", 1.0)
    return model


ARRAYS = ("col_lower", "col_upper", "row_lower", "row_upper", "row_start", "row_cols", "row_vals")


def assert_same_model(got, want):
    for name in ARRAYS:
        assert np.asarray(getattr(got, name)).tolist() == list(getattr(want, name)), name
    # equal var_names also pin each column's job, pair, machine and position
    assert got.var_names == want.var_names and got.row_names == want.row_names
    assert got.objective == want.objective


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 4),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.3, math.e**math.e, 16.0]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_arrays_match_the_row_by_row_builder(n, m, p, rho, seed, pairs):
    inst = gen_random_dag(n, m, p, (1, 4), (0.25, 1), rho, seed)
    assert_same_model(build_relaxation(inst, pairs), reference_relaxation(inst, pairs))


def test_ids_that_need_renaming_match_the_row_by_row_builder():
    base = gen_random_dag(8, 3, 0.5, (1, 4), (0.25, 1), 4.0, 3)
    rename = {v.id: f"{v.id}-x" if k % 2 else f"{v.id}.y" for k, v in enumerate(base.jobs)}
    inst = make_instance(
        [Job(rename[v.id], v.size) for v in base.jobs],
        base.machines,
        [(rename[u], rename[v]) for u, v in base.edges],
        base.rho,
    )
    assert_same_model(build_relaxation(inst), reference_relaxation(inst))


UNTRIMMED_CASES = [tiny_instance(seed) for seed in range(40)] + [
    gen_random_dag(12, 3, 0.35, (1, 4), (0.25, 1), rho, seed)
    for rho in (0.0, 1.0, 16.0) for seed in (1, 2, 3)
]


@pytest.mark.parametrize("inst", UNTRIMMED_CASES)
def test_optimum_equals_the_untrimmed_reference(inst):
    trimmed = solve_lp(build_relaxation(inst))
    untrimmed = solve_lp(reference_relaxation(inst, trimmed=False))
    assert trimmed.status == untrimmed.status == "optimal"
    assert trimmed.objective == pytest.approx(untrimmed.objective, rel=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_embedding_meets_the_rows_chaining_implies(seed):
    inst = tiny_instance(seed)
    _, witness = exact_optimal_makespan(inst, allow_duplication=True)
    model, untrimmed = build_relaxation(inst), reference_relaxation(inst, trimmed=False)
    assert untrimmed.var_names == model.var_names  # one point serves both
    embedded = embed_schedule_as_lp(inst, witness, model)
    assert not check_lp_feasibility(embedded, model)
    assert not check_lp_feasibility(embedded, untrimmed)


@pytest.mark.parametrize("L, d, seed", [(2, 1, 1), (2, 2, 0), (4, 1, 2)])
def test_gap_certificate_meets_the_rows_chaining_implies(L, d, seed):
    inst = gen_layered_gap(L, d, seed)
    model, untrimmed = build_relaxation(inst), reference_relaxation(inst, trimmed=False)
    assert untrimmed.var_names == model.var_names  # one point serves both
    certificate = gap_lp_certificate(inst, model)
    assert not check_lp_feasibility(certificate, model)
    assert not check_lp_feasibility(certificate, untrimmed)


def reference_z(inst, rule):
    """``rule(u, v, machine)`` by a loop over id triples in z order (v in job
    order, u by id, then machine), the reference for the z values that
    ``embed_schedule_as_lp`` and ``gap_lp_certificate`` compute by pair index."""
    if inst.rho <= 0:
        return ()
    closure = transitive_predecessors(inst)
    return tuple(rule(u, v.id, mc.id)
                 for v in inst.jobs for u in sorted(closure[v.id]) for mc in inst.machines)


def acceptance_schedules():
    """The acceptance suite's corpora: the tiny one with its oracle
    witnesses, and the pipeline one with the pipeline's schedules."""
    for seed in range(200):
        inst = tiny_instance(seed, n_max=5, m_max=2)
        yield inst, exact_optimal_makespan(inst, allow_duplication=True)[1]
    for seed in range(100):
        result = run_pipeline(mid_instance(seed, n_max=40, m_max=8, rho_choices=(1.0, 4.0, 16.0)))
        yield result.filtered, result.schedule


def test_embedding_z_matches_the_loop():
    for inst, sched in acceptance_schedules():
        model = build_relaxation(inst)
        sol = embed_schedule_as_lp(inst, sched, model)
        x, start = by_the_rule(inst, sol.values)
        star = {v: i for (v, i), xv in x.items() if xv == 1.0}

        def rule(u, v, i):
            on = (inst.machine_index(i) >= inst.machine_index(star[v])
                  and start[v] - start[u] <= inst.rho + TOL)
            return 1.0 if on else 0.0

        assert sol.values == sol.values[:model._layout.x_end] + reference_z(inst, rule)


@pytest.mark.parametrize("L, d", [(2, 4), (4, 2)])
@pytest.mark.parametrize("seed", [0, 1])
def test_gap_certificate_z_matches_the_loop(L, d, seed):
    inst = gen_layered_gap(L, d, seed)
    model = build_relaxation(inst)
    cert = gap_lp_certificate(inst, model)
    want = reference_z(inst, lambda u, v, i: (inst.machine_index(i) + 1) / inst.m)
    assert len(want) > 0 and cert.values == cert.values[:model._layout.x_end] + want


# HiGHS inputs of gen_random_dag at the benchmark workloads' parameters (seed
# 1), normalized and with slow machines dropped as the pipeline builds them:
# the model without pairs, which is the first round solve_relaxation solves
PINNED = {
    (32, 8, 0.2, (1.0, 4.0), (0.25, 1.0), 16.0, 1):
        "2d4a7df937e50a3179c344c8773b96484e89f5dd7028da9e72b51c09d3b81859",
    (150, 4, 0.01, (1.0, 4.0), (0.25, 1.0), 1.0, 1):
        "a92f6d6cd4be59479a2a1e36be093377176493a6b713a50ff6a2470e3cddb5ec",
}


def pipeline_input(args):
    norm, _ = normalize_instance(gen_random_dag(*args))
    return filter_slow_machines(norm).filtered


def highs_input_digest(model):
    """sha256 of the cost, column bounds, row bounds and row-wise matrix that
    ``solve_lp`` hands to HiGHS."""
    cost = np.zeros(model.n_vars)
    for j, c in model.objective.items():
        cost[j] = c
    parts = [(cost, "<f8")] + [(getattr(model, a), "<f8") for a in ARRAYS[:4]]
    parts += [(model.row_start, "<i8"), (model.row_cols, "<i8"), (model.row_vals, "<f8")]
    digest = hashlib.sha256()
    for values, dtype in parts:
        digest.update(np.asarray(values, dtype=dtype).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("args", list(PINNED))
def test_first_round_highs_input_is_pinned(args):
    inst = pipeline_input(args)
    assert highs_input_digest(build_relaxation(inst, pairs=False)) == PINNED[args]


def test_the_pipeline_makes_no_names(monkeypatch):
    inst = pipeline_input((12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 52))  # two rounds

    def no_names(_inst):
        raise AssertionError("a name was made")

    monkeypatch.setattr(lp, "_safe_ids", no_names)
    run_pipeline(inst)
    model = build_relaxation(inst)
    monkeypatch.undo()
    assert len(set(model.var_names)) == model.n_vars and model.row_names[0].startswith("c1_")


@pytest.mark.parametrize("args", [
    (12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 5),
    (32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 2),
    (32, 8, 0.2, (1, 4), (0.25, 1), 16.0, 3),
    (40, 4, 0.1, (1, 4), (0.25, 1), 1.0, 4),
])
def test_separation_matches_the_loop_in_every_round(monkeypatch, args):
    inst = pipeline_input(args)
    rounds = []  # the point and the cut rows of each round solve_relaxation takes
    real_separate, real_rows = lp._separate, lp._cut_rows

    def separate(layout, values):
        rounds.append([values.copy()])
        return real_separate(layout, values)

    def cut_rows(*args):
        rows = real_rows(*args)
        rounds[-1].append(rows)
        return rows

    monkeypatch.setattr(lp, "_separate", separate)
    monkeypatch.setattr(lp, "_cut_rows", cut_rows)
    lp.solve_relaxation(inst)
    # the last round cuts none, so the loop stops before it builds any rows
    assert rounds and len(rounds[-1]) == 1 and not reference_cuts(inst, rounds[-1][0])
    for values, (start, cols, vals) in rounds[:-1]:
        bounds = start.tolist()
        got = [list(zip(cols[a:b].tolist(), vals[a:b].tolist()))
               for a, b in zip(bounds, bounds[1:])]
        assert got == [list(row.items()) for _, _, row in reference_cuts(inst, values)]


def reference_feasibility(solution, model, tol):
    """Violated rows and bounds as a loop over ``model.rows``, then over the
    columns: (name, residual) with residual < -tol."""
    arr = solution.values
    out = []
    for name, coeffs, sense, rhs in model.rows:
        lhs = sum(a * arr[j] for j, a in coeffs.items())
        if sense == ">=":
            resid = lhs - rhs
        elif sense == "<=":
            resid = rhs - lhs
        else:
            resid = -abs(lhs - rhs)
        if resid < -tol:
            out.append((name, resid))
    for j, (lo, hi) in enumerate(model.bounds):
        if arr[j] < lo - tol:
            out.append((f"bound_lo_{model.var_names[j]}", arr[j] - lo))
        if arr[j] > hi + tol:
            out.append((f"bound_hi_{model.var_names[j]}", hi - arr[j]))
    return out


@functools.cache
def feasibility_cases():
    """(model, feasible point) pairs: the optima of a full and a restricted
    model, an embedded schedule on an array-built and a row-by-row model, and
    a gap certificate."""
    inst = pipeline_input((12, 3, 0.5709, (1, 4), (0.25, 1), 16.0, 52))
    full, restricted = build_relaxation(inst), build_relaxation(inst, pairs=False)
    cases = [(full, solve_lp(full)), (restricted, solve_lp(restricted))]
    tiny = tiny_instance(3)
    _, witness = exact_optimal_makespan(tiny, allow_duplication=True)
    model = build_relaxation(tiny)
    embedded = embed_schedule_as_lp(tiny, witness, model)  # a point of both models' columns
    cases += [(model, embedded), (reference_relaxation(tiny, trimmed=False), embedded)]
    layered = gen_layered_gap(2, 2, 0)
    model = build_relaxation(layered)
    cases.append((model, gap_lp_certificate(layered, model)))
    return cases


@pytest.mark.parametrize("case", range(5))
@pytest.mark.parametrize("noise", [0.0, 1e-7, 1e-3, 0.5])
def test_feasibility_check_matches_the_loop(case, noise):
    model, point = feasibility_cases()[case]
    rng = np.random.default_rng(case)
    values = np.asarray(point.values) + noise * rng.standard_normal(model.n_vars)
    if noise:
        values[rng.integers(model.n_vars)] = math.nan  # a NaN term makes its row's lhs NaN
    perturbed = lp.LpSolution(tuple(values.tolist()), point.objective, "feasible")
    for tol in (0.0, 1e-6):
        got = check_lp_feasibility(perturbed, model, tol)
        want = reference_feasibility(perturbed, model, tol)
        assert got == want
        assert all(type(r) is float for _, r in got)
    if not noise:
        assert check_lp_feasibility(perturbed, model) == []
    if noise >= 1e-3:
        names = [name for name, _ in check_lp_feasibility(perturbed, model)]
        assert any(name.startswith("c") for name in names)
        assert any(name.startswith("bound_") for name in names)
