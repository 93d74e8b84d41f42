"""Relaxation-gap experiments: the layered fractional certificate, alternate
relaxations, and an empirical gap driver.

The layered family admits a hand-built fractional point of value rho (uniform
machine split, layer-staggered starts), while integral schedules provably
need many more communication phases; the driver reports the measured ratio
without asserting any asymptotic claim.

The certificate and the same-machine and same-phase relaxations read the
position of every C, S, x and d column from :class:`lp._Columns`; the rules
of this module are only phi's column and the time-indexed model's layout.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import asdict, dataclass

from .instance import TOL, Instance, normalize_instance, require_valid_instance
from .lp import LpModel, LpSolution, _Columns, _Layout, _safe_ids, _scaffold, build_relaxation

_LAYER_RE = re.compile(r"^L(\d+)_j\d+$")


def _layer_structure(inst: Instance) -> dict[str, int]:
    """Map job -> layer for a layered-gap instance; raises if not layered."""
    layers: dict[str, int] = {}
    for j in inst.jobs:
        m = _LAYER_RE.match(j.id)
        if not m:
            raise ValueError(f"job {j.id} does not follow the layered naming")
        layers[j.id] = int(m.group(1))
        if abs(j.size - 1.0) > TOL:
            raise ValueError("layered instances must have unit jobs")
    for mc in inst.machines:
        if abs(mc.speed - 1.0) > TOL:
            raise ValueError("layered instances must have unit machines")
    L = max(layers.values())
    counts = [sum(1 for l in layers.values() if l == k) for k in range(1, L + 1)]
    if len(set(counts)) != 1:
        raise ValueError("layer sizes differ")
    if counts[0] * L != inst.m * inst.rho:
        raise ValueError("layer size does not match m*rho/L")
    for a, b in inst.edges:
        if layers[a] != layers[b] + 1:
            raise ValueError(f"edge ({a}, {b}) does not point one layer down")
    return layers


def gap_lp_certificate(inst: Instance, model: LpModel | None = None) -> LpSolution:
    """Feasible point of value exactly rho for a layered-gap instance.

    Every job is spread uniformly over the machines, same-phase variables
    grow linearly with machine index, and starts step down by rho/L per
    layer.
    """
    import numpy as np

    layers = _layer_structure(inst)
    model = model if model is not None else build_relaxation(inst)
    L, m, rho = max(layers.values()), inst.m, inst.rho
    cols = _Columns(inst.n, m)
    values = np.zeros(model.n_vars)
    values[cols.C] = rho
    values[cols.S] = [(L - layers[v.id]) * rho / L for v in inst.jobs]
    values[cols.X] = 1.0 / m
    if (layout := model._layout) is not None:
        # z_{u,v,i} = (i + 1) / m for machine index i; z runs by pair, then machine
        values[layout.x_end :] = np.tile(np.arange(1, m + 1) / m, len(layout.pu))
    return LpSolution(tuple(map(float, values)), float(rho), "feasible")


def build_alternate_relaxation(inst: Instance, kind: str, horizon: int | None = None) -> LpModel:
    """Alternate programs: same_machine, time_indexed, or same_phase."""
    require_valid_instance(inst)
    if kind == "same_machine":
        return _same_machine_model(inst)
    if kind == "time_indexed":
        return _time_indexed_model(inst, horizon)
    if kind == "same_phase":
        return _same_phase_model(inst)
    raise ValueError(f"unknown relaxation kind: {kind}")


def _pairs(inst: Instance) -> list[tuple[int, int]]:
    """Every transitive pair (u, v) by job index, in ``lp``'s z order (by v's
    index, then u's id); pair p's own columns are placed by p."""
    layout = _Layout(inst, True)
    return list(zip(layout.u.tolist(), layout.v.tolist()))


def _same_machine_model(inst: Instance) -> LpModel:
    """Same-machine indicator program (unit-style execution/load rows).

    d of pair p and machine index i is that pair's column of
    :class:`lp._Columns` (the z rule).
    """
    n, m, rho = inst.n, inst.m, inst.rho
    jobs, machines = _safe_ids(inst)
    pairs = _pairs(inst)
    model, cols = _scaffold(inst), _Columns(n, m)
    for u, v in pairs:
        for mc in machines:
            model.add_var(f"d_{jobs[u]}_{jobs[v]}_{mc}", 0.0, 1.0)
    for k in range(n):
        model.add_row(f"comp_{jobs[k]}", {cols.C: 1.0, cols.s(k): -1.0}, ">=", 1.0)
    for i, mc in enumerate(inst.machines):
        coeffs = {cols.C: mc.speed}
        for k in range(n):
            coeffs[cols.x(k, i)] = -1.0
        model.add_row(f"load_{machines[i]}", coeffs, ">=", 0.0)
    for p, (u, v) in enumerate(pairs):
        coeffs = {cols.s(v): 1.0, cols.s(u): -1.0}
        coeffs.update(dict.fromkeys((cols.pair(p, i) for i in range(m)), rho))
        model.add_row(f"delay_{jobs[u]}_{jobs[v]}", coeffs, ">=", rho)
        model.add_row(f"exec_{jobs[u]}_{jobs[v]}", {cols.s(v): 1.0, cols.s(u): -1.0}, ">=", 1.0)
        for i in range(m):
            name = f"{jobs[u]}_{jobs[v]}_{machines[i]}"
            model.add_row(f"dv_{name}", {cols.x(v, i): 1.0, cols.pair(p, i): -1.0}, ">=", 0.0)
            model.add_row(f"du_{name}", {cols.x(u, i): 1.0, cols.pair(p, i): -1.0}, ">=", 0.0)
    for k in range(n):
        coeffs = {cols.x(k, i): 1.0 for i in range(m)}
        model.add_row(f"cover_{jobs[k]}", coeffs, "=", 1.0)
    return model


def _time_indexed_model(inst: Instance, horizon: int | None) -> LpModel:
    """Completion-indexed program over integer steps 1..horizon.

    The makespan variable dominates each job's fractional completion time; an
    undersized horizon makes the model infeasible, which callers may report,
    and a horizon below 1 is an error.  x of job index k, machine index i and
    step t is column ``1 + (k*m + i)*horizon + t - 1``.
    """
    s_max = max(mc.speed for mc in inst.machines)
    if horizon is None:
        horizon = math.ceil(2.0 * sum(j.size for j in inst.jobs) / s_max)
    elif horizon < 1:
        raise ValueError(f"time-indexed horizon must be >= 1, got {horizon}")
    H = int(horizon)
    n, m, rho = inst.n, inst.m, inst.rho
    jobs, machines = _safe_ids(inst)

    def x(k: int, i: int) -> int:
        # the column of job k on machine i at step 1; step t is t - 1 after it
        return 1 + (k * m + i) * H

    model = LpModel()
    model.add_var("C")  # column 0
    for v in jobs:
        for mc in machines:
            for t in range(1, H + 1):
                model.add_var(f"x_{v}_{mc}_{t}", 0.0, 1.0)
    model.objective = {0: 1.0}
    for k in range(n):
        cover = range(x(k, 0), x(k, 0) + m * H)  # job k's columns run by machine, then step
        model.add_row(f"cover_{jobs[k]}", dict.fromkeys(cover, 1.0), "=", 1.0)
        coeffs = {0: 1.0}
        for i in range(m):
            for t in range(1, H + 1):
                coeffs[x(k, i) + t - 1] = -float(t)
        model.add_row(f"mk_{jobs[k]}", coeffs, ">=", 0.0)
    for i in range(m):
        for t in range(1, H + 1):
            coeffs = {x(k, i) + t - 1: 1.0 for k in range(n)}
            model.add_row(f"cap_{machines[i]}_{t}", coeffs, "<=", 1.0)
    for u, v in _pairs(inst):
        for t in range(0, H):
            coeffs: dict[int, float] = {}
            for i in range(m):
                coeffs.update(dict.fromkeys(range(x(v, i), x(v, i) + t + 1), 1.0))
                coeffs.update(dict.fromkeys(range(x(u, i), x(u, i) + t), -1.0))
            model.add_row(f"prec_{jobs[u]}_{jobs[v]}_{t}", coeffs, "<=", 0.0)
        for i in range(m):
            for t in range(0, H):
                coeffs = {x(v, i) + t: 1.0}
                lo = max(1, t - int(rho)) - 1
                for i2 in range(m):
                    if i2 != i:
                        coeffs.update(dict.fromkeys(range(x(u, i2) + lo, x(u, i2) + t), 1.0))
                model.add_row(
                    f"delay_{jobs[u]}_{jobs[v]}_{machines[i]}_{t}", coeffs, "<=", 1.0
                )
    return model


def _same_phase_model(inst: Instance) -> LpModel:
    """Pairwise same-phase indicator program with speed-weighted phase row.

    phi of pair p is column ``x_end + p``, after C, S and x.
    """
    n, m, rho = inst.n, inst.m, inst.rho
    jobs, machines = _safe_ids(inst)
    pairs = _pairs(inst)
    model, cols = _scaffold(inst), _Columns(n, m)
    for u, v in pairs:
        model.add_var(f"phi_{jobs[u]}_{jobs[v]}", 0.0, 1.0)
    for k in range(n):
        model.add_row(f"mk_{jobs[k]}", {cols.C: 1.0, cols.s(k): -1.0}, ">=", 0.0)
    for i, mc in enumerate(inst.machines):
        coeffs = {cols.C: mc.speed}
        for k, v in enumerate(inst.jobs):
            coeffs[cols.x(k, i)] = -v.size
        model.add_row(f"load_{machines[i]}", coeffs, ">=", 0.0)
    for p, (u, v) in enumerate(pairs):
        coeffs = {cols.s(v): 1.0, cols.s(u): -1.0, cols.x_end + p: rho}
        model.add_row(f"delay_{jobs[u]}_{jobs[v]}", coeffs, ">=", rho)
        model.add_row(f"prec_{jobs[u]}_{jobs[v]}", {cols.s(v): 1.0, cols.s(u): -1.0}, ">=", 0.0)
    # one phase row per job with pairs, in job order; a job's pairs are adjacent
    for v, group in itertools.groupby(enumerate(pairs), key=lambda e: e[1][1]):
        coeffs = {cols.x(v, i): rho * mc.speed for i, mc in enumerate(inst.machines)}
        for p, (u, _) in group:
            coeffs[cols.x_end + p] = -inst.jobs[u].size
        model.add_row(f"phase_{jobs[v]}", coeffs, ">=", 0.0)
    for k in range(n):
        coeffs = {cols.x(k, i): 1.0 for i in range(m)}
        model.add_row(f"cover_{jobs[k]}", coeffs, "=", 1.0)
    return model


@dataclass(frozen=True)
class GapReport:
    params: dict
    lp_value: float
    lp_source: str  # "certificate" or "solved"
    pipeline_makespan: float | None
    baseline_makespan: float | None
    ratio: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def measure_gap(inst: Instance, eta: float | None = None) -> GapReport:
    """LP value (certificate when layered), pipeline and baseline makespans.

    The relaxation and the baseline run on the normalized instance, as the
    pipeline does, and every value is reported in the input's units.
    """
    from .cli import PipelineConfig, _require_valid, _solve_relaxation, run_pipeline
    from .oracle import combinatorial_baseline
    from .schedmodel import makespan

    norm, scale = normalize_instance(_require_valid(inst))
    try:
        _layer_structure(inst)
        lp_value = float(inst.rho)
        lp_source = "certificate"
    except ValueError:
        lp_value = scale.time_to_original(_solve_relaxation(norm).objective)
        lp_source = "solved"

    result = run_pipeline(inst, PipelineConfig(eta=eta))
    pipe_ms = result.makespan
    base_ms = scale.time_to_original(makespan(norm, combinatorial_baseline(norm)))
    ratio = min(pipe_ms, base_ms) / lp_value if lp_value > 0 else None
    return GapReport(
        params={"n": inst.n, "m": inst.m, "rho": inst.rho},
        lp_value=lp_value,
        lp_source=lp_source,
        pipeline_makespan=pipe_ms,
        baseline_makespan=base_ms,
        ratio=ratio,
    )
