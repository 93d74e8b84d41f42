"""Linear relaxation of delay scheduling: model builder, solver, checker.

The relaxation has per-copy assignment variables x[v,i], same-phase variables
z[u,v,i] for transitive predecessor pairs and machines, start times S[v], and
the makespan C.  Machine indices follow nondecreasing speed order, which the
delay and phase rows depend on.  Precedence rows (2) are emitted per distinct
direct edge: the rows of transitive pairs follow by chaining, since fractional
processing times are non-negative.  :func:`solve_relaxation` solves the full
relaxation exactly while generating same-phase pairs lazily by separation.

Every model is solved by the HiGHS dual simplex bundled with scipy (1.15 or
later), driven through scipy's private binding: the flat rows go to HiGHS
row-wise with each row's sense in its bounds, and a solve can start from an
earlier solution's basis, which later separation rounds do.  Every solve uses
one setting: presolve on, dual simplex, Dantzig pricing and no output.
Dantzig pricing replaces HiGHS's default dual steepest edge because on these
small, degenerate relaxations the cold first solve needs about half the
iterations, each cheaper, which halves the time per pipeline instance at
n=32, m=8.  It is slower on the large, fully symmetric layered gap instances
(see ROADMAP).  Solves are deterministic for a fixed model and start.

Package import loads neither scipy nor numpy.  The first solve loads only
scipy's compiled HiGHS module, ``scipy.optimize._highspy._core``, from its
file: importing it by name would first run ``scipy.optimize``'s package
init, which pulls in linalg, sparse and the rest of ``scipy.optimize`` and
is most of a CLI call's cold start, yet the binding needs none of it.  The
module is registered under its own name, so a later ``import scipy.optimize``
(or ``linprog``) reuses it; where the file is not found, the plain import
loads the same module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

from .instance import TOL, Instance, transitive_predecessors

FEAS_TOL = 1e-6
SEPARATION_TOL = 1e-9  # row (4) violation that brings omitted same-phase pairs in


class _Rows(Sequence):
    """Read-only view of a model's rows as ``(name, {col: value}, sense, rhs)``;
    each access builds a fresh coefficient dict in the row's entry order."""

    __slots__ = ("_model",)

    def __init__(self, model: LpModel):
        self._model = model

    def __len__(self) -> int:
        return len(self._model.row_names)

    def __getitem__(self, r: int):
        m = self._model
        r = range(len(m.row_names))[r]
        lo, hi = m.row_start[r], m.row_start[r + 1]
        coeffs = dict(zip(m.row_cols[lo:hi], m.row_vals[lo:hi]))
        return m.row_names[r], coeffs, m.row_senses[r], m.row_rhs[r]

    def __iter__(self):
        m = self._model
        cols, vals, start = m.row_cols, m.row_vals, m.row_start
        for r, (name, sense, rhs) in enumerate(zip(m.row_names, m.row_senses, m.row_rhs)):
            lo, hi = start[r], start[r + 1]
            yield name, dict(zip(cols[lo:hi], vals[lo:hi])), sense, rhs


@dataclass
class LpModel:
    """Sparse LP: named variables with bounds, named rows, min objective.

    Rows are stored flat, CSR-style: row ``r`` holds the terms
    ``row_cols[row_start[r]:row_start[r + 1]]`` (distinct columns) with the
    matching ``row_vals``.  ``rows`` reads them back as tuples.
    """

    var_names: list[str] = field(default_factory=list)
    bounds: list[tuple[float, float]] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)
    row_senses: list[str] = field(default_factory=list)
    row_rhs: list[float] = field(default_factory=list)
    row_start: list[int] = field(default_factory=lambda: [0])
    row_cols: list[int] = field(default_factory=list)
    row_vals: list[float] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    # semantic lookup for scheduling models (empty for alternate relaxations)
    x_index: dict[tuple[str, str], int] = field(default_factory=dict)
    z_index: dict[tuple[str, str, str], int] = field(default_factory=dict)
    s_index: dict[str, int] = field(default_factory=dict)
    c_index: int | None = None

    def add_var(self, name: str, lo: float = 0.0, hi: float = math.inf) -> int:
        self.var_names.append(name)
        self.bounds.append((lo, hi))
        return len(self.var_names) - 1

    def add_row(self, name: str, coeffs: dict[int, float], sense: str, rhs: float):
        self.row_cols.extend(coeffs)
        self.row_vals.extend(coeffs.values())
        self.end_row(name, sense, rhs)

    def end_row(self, name: str, sense: str, rhs: float):
        """Close a row whose terms were appended to ``row_cols``/``row_vals``
        since the previous row; its columns must be distinct."""
        self.row_names.append(name)
        self.row_senses.append(sense)
        self.row_rhs.append(rhs)
        self.row_start.append(len(self.row_cols))

    @property
    def rows(self) -> _Rows:
        return _Rows(self)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)


@dataclass
class LpSolution:
    """Variable assignment with objective; status 'feasible' marks constructed
    (not solver-optimal) solutions such as embeddings and gap certificates.
    ``values`` is aligned with the model's ``var_names``.  ``iterations``
    holds the simplex iteration count of each solve behind the solution, and
    ``basis`` the final HiGHS basis that :func:`solve_lp` can start from."""

    values: tuple[float, ...]
    objective: float
    status: str
    x: dict[tuple[str, str], float] = field(default_factory=dict)
    z: dict[tuple[str, str, str], float] = field(default_factory=dict)
    start: dict[str, float] = field(default_factory=dict)
    iterations: tuple[int, ...] = ()
    # (var_names, col_status, row_names, row_status) of the solved model
    basis: tuple | None = field(default=None, repr=False, compare=False)


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _safe_ids(inst: Instance) -> tuple[dict[str, str], dict[str, str]]:
    """``_safe`` of every job id and of every machine id, computed once."""
    return ({v.id: _safe(v.id) for v in inst.jobs},
            {mc.id: _safe(mc.id) for mc in inst.machines})


def _scaffold(inst: Instance, job_names: dict[str, str], machine_names: dict[str, str]) -> LpModel:
    """Model minimizing C, with C, then S_v per job, then x_{v,i} per job and
    machine; the relaxations append their own variables and rows after these.
    The name maps are :func:`_safe_ids`'s."""
    model = LpModel()
    model.c_index = model.add_var("C")
    for v in inst.jobs:
        model.s_index[v.id] = model.add_var(f"S_{job_names[v.id]}")
    for v in inst.jobs:
        for mc in inst.machines:
            model.x_index[(v.id, mc.id)] = model.add_var(
                f"x_{job_names[v.id]}_{machine_names[mc.id]}", 0.0, 1.0
            )
    model.objective = {model.c_index: 1.0}
    return model


def build_relaxation(inst: Instance, pairs=None) -> LpModel:
    """Instantiate the nine constraint families over a valid instance.

    ``pairs``, a collection of transitive predecessor pairs (u, v), restricts
    the same-phase pairs: their z variables, delay rows (3) and terms in rows
    (4).  Without it every transitive pair takes part, which is the full
    relaxation.  With rho = 0 the same-phase machinery is vacuous: z variables
    and the delay/phase rows are omitted (the pipeline skips delay logic
    entirely).
    """
    closure = transitive_predecessors(inst)  # raises ValueError on an invalid instance
    if pairs is None:
        preds = {v.id: sorted(closure[v.id]) for v in inst.jobs}
    else:
        chosen = set(pairs)
        preds = {
            v.id: sorted(u for u in closure[v.id] if (u, v.id) in chosen) for v in inst.jobs
        }
    direct = inst.direct_predecessors()
    rho = inst.rho
    machines = inst.machines
    speeds = [mc.speed for mc in machines]
    sizes = inst._sizes
    jn, mn = _safe_ids(inst)
    model = _scaffold(inst, jn, mn)
    C = model.c_index
    S = model.s_index
    xs = {v.id: [model.x_index[(v.id, mc.id)] for mc in machines] for v in inst.jobs}
    # zs[v][k][i]: z of the k-th same-phase predecessor of v on machine i
    zs: dict[str, list[list[int]]] = {}
    if rho > 0:
        for v in inst.jobs:
            zs[v.id] = []
            for u in preds[v.id]:
                row = []
                for mc in machines:
                    idx = model.add_var(f"z_{jn[u]}_{jn[v.id]}_{mn[mc.id]}", 0.0, 1.0)
                    model.z_index[(u, v.id, mc.id)] = idx
                    row.append(idx)
                zs[v.id].append(row)

    cols, vals, end_row = model.row_cols, model.row_vals, model.end_row

    for v in inst.jobs:
        # (1) makespan covers start plus fractional execution time
        cols += (C, S[v.id], *xs[v.id])
        vals += (1.0, -1.0)
        vals += [-v.size / s for s in speeds]
        end_row(f"c1_{jn[v.id]}", ">=", 0.0)

    for v in inst.jobs:
        for u in sorted(set(direct[v.id])):
            # (2) a job starts after each direct predecessor's fractional completion
            cols += (S[v.id], S[u], *xs[u])
            vals += (1.0, -1.0)
            vals += [-sizes[u] / s for s in speeds]
            end_row(f"c2_{jn[u]}_{jn[v.id]}", ">=", 0.0)

    if rho > 0:
        for v in inst.jobs:
            xv = xs[v.id]
            for u, zu in zip(preds[v.id], zs[v.id]):
                for i, mc in enumerate(machines):
                    # (3) delay: rho gap unless u shares v's phase at index <= i
                    cols += (S[v.id], S[u], *xv[: i + 1], zu[i])
                    vals += (1.0, -1.0)
                    vals += [-rho] * (i + 1)
                    vals.append(rho)
                    end_row(f"c3_{jn[u]}_{jn[v.id]}_{mn[mc.id]}", ">=", 0.0)
        for v in inst.jobs:
            if not preds[v.id]:
                continue
            xv, zv = xs[v.id], zs[v.id]
            for i, mc in enumerate(machines):
                # (4) same-phase predecessors fit in rho time at speed s_i
                cols += xv[: i + 1]
                vals += [1.0] * (i + 1)
                cols += [zu[i] for zu in zv]
                vals += [-sizes[u] / (rho * mc.speed) for u in preds[v.id]]
                end_row(f"c4_{jn[v.id]}_{mn[mc.id]}", ">=", 0.0)

    for i, mc in enumerate(machines):
        # (5) machine load at most C * speed
        cols.append(C)
        vals.append(mc.speed)
        cols += [xs[v.id][i] for v in inst.jobs]
        vals += [-v.size for v in inst.jobs]
        end_row(f"c5_{mn[mc.id]}", ">=", 0.0)

    for v in inst.jobs:
        # (6) every job fully assigned
        cols += xs[v.id]
        vals += [1.0] * len(machines)
        end_row(f"c6_{jn[v.id]}", "=", 1.0)

    return model


def _solution_from_values(model: LpModel, values_arr, status, objective):
    values = tuple(float(a) for a in values_arr)
    sol = LpSolution(values=values, objective=float(objective), status=status)
    sol.x = {key: values[idx] for key, idx in model.x_index.items()}
    sol.z = {key: values[idx] for key, idx in model.z_index.items()}
    sol.start = {key: values[idx] for key, idx in model.s_index.items()}
    return sol


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core() -> None:
    """Load scipy's HiGHS extension by file, without ``scipy.optimize``'s init.

    Does nothing once the module is imported, by this or by scipy itself.
    If no extension file is found, the ``from`` imports in :func:`solve_lp`
    fall back to the plain import of the same module.
    """
    if _HIGHS_CORE in sys.modules:
        return
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return  # the plain import reports a missing scipy
    for base in scipy_spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_HIGHS_CORE] = module
                try:
                    spec.loader.exec_module(module)
                except BaseException:
                    del sys.modules[_HIGHS_CORE]
                    raise
                return


def solve_lp(model: LpModel, *, warm: LpSolution | None = None) -> LpSolution:
    """Minimize the model objective with HiGHS; deterministic for identical inputs.

    Status is 'optimal', 'infeasible', 'unbounded' (also when HiGHS cannot
    tell unbounded from infeasible) or 'error' for any other outcome, with no
    certificate row.  Only an undersized time-indexed horizon makes a model
    infeasible: a valid instance always embeds its serial schedule, and its
    relaxations are bounded below by zero.  A non-finite objective coefficient
    or matrix value, a NaN bound or right-hand side, or an objective or row
    naming a column the model lacks raises ``ValueError``.

    ``warm``, an optimal solution of a related model, starts the simplex from
    its final basis, matched by variable and row name: a column or row it
    lacks starts nonbasic at its lower bound or basic, respectively.  HiGHS
    checks and repairs the basis it is given, so a poor match costs iterations,
    not correctness.
    """
    _load_highs_core()
    from scipy.optimize._highspy._core import (
        HighsBasis,
        HighsBasisStatus,
        HighsLp,
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        _Highs,
    )
    from scipy.optimize._highspy._core.simplex_constants import (
        SimplexEdgeWeightStrategy,
        SimplexStrategy,
    )

    n, senses, rhs = model.n_vars, model.row_senses, model.row_rhs
    cost = [0.0] * n
    for j, cj in model.objective.items():
        if not 0 <= j < n:
            raise ValueError(f"objective names column {j} of a model with {n} variables")
        cost[j] = cj
    # HiGHS would report such a model optimal, so it is rejected here
    if (j := _first_nonfinite(cost)) is not None:
        raise ValueError(f"objective coefficient of {model.var_names[j]} is {cost[j]}")
    if (k := _first_nonfinite(model.row_vals)) is not None:
        r = bisect_right(model.row_start, k) - 1
        raise ValueError(f"row {model.row_names[r]} has coefficient {model.row_vals[k]}")
    lp = HighsLp()
    lp.num_col_ = n
    lp.num_row_ = len(senses)
    lp.col_cost_ = cost
    lp.col_lower_ = [lo for lo, _ in model.bounds]
    lp.col_upper_ = [hi for _, hi in model.bounds]
    # a row's sense is its bounds: ">=" leaves the upper open, "<=" the lower
    lp.row_lower_ = [-math.inf if sense == "<=" else b for sense, b in zip(senses, rhs)]
    lp.row_upper_ = [math.inf if sense == ">=" else b for sense, b in zip(senses, rhs)]
    matrix = lp.a_matrix_
    matrix.format_ = MatrixFormat.kRowwise
    matrix.num_col_ = n
    matrix.num_row_ = len(senses)
    matrix.start_ = model.row_start
    matrix.index_ = model.row_cols
    matrix.value_ = model.row_vals

    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("simplex_strategy", SimplexStrategy.kSimplexStrategyDual)
    highs.setOptionValue("simplex_dual_edge_weight_strategy",
                         SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDantzig)
    if highs.passModel(lp) == HighsStatus.kError:
        raise ValueError("HiGHS rejected the model")
    if warm is not None and warm.basis is not None:
        var_names, col_status, row_names, row_status = warm.basis
        col_of = dict(zip(_distinct(var_names), col_status))
        row_of = dict(zip(_distinct(row_names), row_status))
        basis = HighsBasis()  # alien: HiGHS factors it and repairs a singular one
        basis.col_status = [col_of.get(name, HighsBasisStatus.kLower)
                            for name in _distinct(model.var_names)]
        basis.row_status = [row_of.get(name, HighsBasisStatus.kBasic)
                            for name in _distinct(model.row_names)]
        highs.setBasis(basis)  # on failure the solve simply starts cold
    highs.run()

    info = highs.getInfo()
    status = highs.getModelStatus()
    if status == HighsModelStatus.kOptimal:
        sol = _solution_from_values(
            model, highs.getSolution().col_value, "optimal", info.objective_function_value
        )
        final = highs.getBasis()
        sol.basis = (model.var_names, final.col_status, model.row_names, final.row_status)
    else:
        if status in (HighsModelStatus.kUnbounded, HighsModelStatus.kUnboundedOrInfeasible):
            name = "unbounded"
        elif status == HighsModelStatus.kInfeasible:
            name = "infeasible"
        else:
            name = "error"
        sol = _solution_from_values(model, [0.0] * n, name, math.nan)
    sol.iterations = (info.simplex_iteration_count,)
    return sol


def _first_nonfinite(values: list[float]) -> int | None:
    """Index of the first NaN or infinite entry of ``values``, if any."""
    if math.isfinite(sum(values)):  # any NaN or infinity makes the sum non-finite
        return None
    # the sum also overflows on large finite values
    return next((k for k, a in enumerate(values) if not math.isfinite(a)), None)


def solve_relaxation(inst: Instance) -> tuple[LpModel, LpSolution]:
    """Optimum of the full relaxation, found by lazy same-phase pair generation.

    The first restricted model takes the direct edges as its same-phase pairs.
    After each solve every omitted pair (u, v) gets the least z its delay rows
    (3) allow, ``z[u,v,i] = max(0, X[v,i] - (S_v - S_u) / rho)`` with
    ``X[v,i] = x[v,1] + ... + x[v,i]``; the omitted pairs with z > 0 behind
    each row (4) these values violate by more than ``SEPARATION_TOL`` join the
    model, which is rebuilt and solved again.  When none joins, the extended
    point is feasible for the full relaxation (z <= 1 as X <= 1 and S_v >= S_u)
    and has the restricted optimum's value; the restricted model being a
    relaxation of the full one, that value is the full optimum.  Each round
    adds a pair, so there are at most as many rounds as transitive pairs.

    Every round after the first starts from the previous round's basis.
    Returns the last restricted model and its solution: ``values`` (aligned
    with that model), ``x``, ``start`` and ``objective`` come from the last
    solve, ``z`` holds a value for every transitive pair, and ``iterations``
    one count per round.
    """
    pairs = set(inst.edges)
    sol, iterations = None, ()
    while True:
        model = build_relaxation(inst, pairs)
        sol = solve_lp(model, warm=sol)
        iterations = sol.iterations = iterations + sol.iterations
        if sol.status != "optimal" or inst.rho <= 0:
            return model, sol
        sol.z, added = _separate(inst, sol, pairs)
        if not added:
            return model, sol
        pairs |= added


def _separate(inst: Instance, sol: LpSolution, pairs: set[tuple[str, str]]):
    """z for every transitive pair (solved values for ``pairs``, least values
    meeting rows (3) for the others), and the omitted pairs with z > 0 behind
    each row (4) that z violates."""
    preds = transitive_predecessors(inst)
    rho = inst.rho
    z: dict[tuple[str, str, str], float] = {}
    added: set[tuple[str, str]] = set()
    for v in inst.jobs:
        us = sorted(preds[v.id])
        if not us:
            continue
        prefix = list(accumulate(sol.x[(v.id, mc.id)] for mc in inst.machines))
        for u in us:
            if (u, v.id) in pairs:
                for mc in inst.machines:
                    z[(u, v.id, mc.id)] = sol.z[(u, v.id, mc.id)]
            else:
                gap = (sol.start[v.id] - sol.start[u]) / rho
                for mc, x_sum in zip(inst.machines, prefix):
                    z[(u, v.id, mc.id)] = max(0.0, x_sum - gap)
        for mc, x_sum in zip(inst.machines, prefix):
            load = sum(inst.size(u) * z[(u, v.id, mc.id)] for u in us) / (rho * mc.speed)
            if x_sum - load < -SEPARATION_TOL:
                added.update(
                    (u, v.id) for u in us
                    if (u, v.id) not in pairs and z[(u, v.id, mc.id)] > 0
                )
    return z, added


def check_lp_feasibility(solution: LpSolution, model: LpModel, tol: float = FEAS_TOL):
    """Every violated row or bound, as (name, residual) with residual < -tol."""
    arr = solution.values
    if len(arr) != model.n_vars:
        raise ValueError(f"solution has {len(arr)} values for {model.n_vars} variables")
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


def embed_schedule_as_lp(inst: Instance, sched, model: LpModel | None = None) -> LpSolution:
    """Turn a valid schedule into a feasible point with objective twice its
    makespan: phase-doubled starts, unit assignment to the first-completion
    machine, and 0/1 same-phase variables."""
    from .schedmodel import makespan as sched_makespan
    from .schedmodel import phase_of, require_valid_schedule

    require_valid_schedule(inst, sched)
    model = model if model is not None else build_relaxation(inst)
    rho = inst.rho

    def doubled_start(p):
        if rho <= 0:
            return p.start
        return p.start + phase_of(p.start, rho) * rho

    first: dict[str, tuple[float, int, str]] = {}
    for p in sched.placements:
        s2 = doubled_start(p)
        comp = s2 + inst.size(p.job) / inst.speed(p.machine)
        key = (comp, inst.machine_index(p.machine), p.machine)
        if p.job not in first or key < first[p.job]:
            first[p.job] = key
    star_machine = {v: key[2] for v, key in first.items()}
    start_of: dict[str, float] = {}
    for p in sched.placements:
        if p.machine == star_machine[p.job]:
            s2 = doubled_start(p)
            if p.job not in start_of or s2 < start_of[p.job]:
                start_of[p.job] = s2

    values = [0.0] * model.n_vars
    for (v, i), idx in model.x_index.items():
        values[idx] = 1.0 if i == star_machine[v] else 0.0
    for v, idx in model.s_index.items():
        values[idx] = start_of[v]
    for (u, v, i), idx in model.z_index.items():
        on = (
            inst.machine_index(i) >= inst.machine_index(star_machine[v])
            and start_of[v] - start_of[u] <= rho + TOL
        )
        values[idx] = 1.0 if on else 0.0
    objective = 2.0 * sched_makespan(inst, sched)
    values[model.c_index] = objective
    return _solution_from_values(model, values, "feasible", objective)


def _distinct(names: list[str]) -> list[str]:
    """``names`` with every repeat renamed ``<name>#<k>`` (k = 2, 3, ...),
    skipping names already in use, so no two are equal; unique names stay."""
    taken = set(names)
    seen: set[str] = set()
    out = []
    for name in names:
        if name in seen:
            k = 2
            while f"{name}#{k}" in taken:
                k += 1
            name = f"{name}#{k}"
            taken.add(name)
        seen.add(name)
        out.append(name)
    return out


def export_lp_text(model: LpModel) -> str:
    """LP-format text: objective, named constraint rows, bounds section.

    Variable and row names are made distinct here: ids that differ only in
    characters the model names replace by ``_`` give equal model names.
    """
    var_names = _distinct(model.var_names)
    row_names = _distinct([name for name, *_ in model.rows])

    def term(j, a, first):
        sign = "-" if a < 0 else ("" if first else "+")
        mag = abs(a)
        coef = "" if abs(mag - 1.0) < 1e-15 else f"{mag:.12g} "
        return f"{sign} {coef}{var_names[j]} ".replace("  ", " ")

    lines = ["Minimize", " obj: " + "".join(
        term(j, a, k == 0) for k, (j, a) in enumerate(sorted(model.objective.items()))
    ).strip(), "Subject To"]
    for name, (_, coeffs, sense, rhs) in zip(row_names, model.rows):
        expr = "".join(
            term(j, a, k == 0) for k, (j, a) in enumerate(sorted(coeffs.items()))
        ).strip()
        op = {"<=": "<=", ">=": ">=", "=": "="}[sense]
        lines.append(f" {name}: {expr} {op} {rhs:.12g}")
    lines.append("Bounds")
    for name, (lo, hi) in zip(var_names, model.bounds):
        if hi == math.inf:
            lines.append(f" {lo:.12g} <= {name}")
        else:
            lines.append(f" {lo:.12g} <= {name} <= {hi:.12g}")
    lines.append("End")
    return "\n".join(lines) + "\n"
