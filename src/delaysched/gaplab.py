"""Relaxation-gap experiments: the layered fractional certificate, alternate
relaxations, and an empirical gap driver.

The layered family admits a hand-built fractional point of value rho (uniform
machine split, layer-staggered starts), while integral schedules provably
need many more communication phases; the driver reports the measured ratio
without asserting any asymptotic claim.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .instance import TOL, Instance, require_valid_instance, transitive_predecessors
from .lp import (
    LpModel,
    LpSolution,
    _safe,
    _scaffold,
    build_relaxation,
)

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
    L = max(layers.values())
    n, m = inst.n, inst.m
    rho = inst.rho
    values = np.zeros(model.n_vars)
    values[0] = rho
    values[1 : 1 + n] = [(L - layers[v.id]) * rho / L for v in inst.jobs]
    values[1 + n : 1 + n + n * m] = 1.0 / m
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


def _same_machine_model(inst: Instance) -> LpModel:
    """Same-machine indicator program (unit-style execution/load rows)."""
    preds = transitive_predecessors(inst)
    n, m, rho = inst.n, inst.m, inst.rho
    pos = {v.id: k for k, v in enumerate(inst.jobs)}
    model = _scaffold(inst)
    delta: dict[tuple[str, str, str], int] = {}
    for v in inst.jobs:
        for u in sorted(preds[v.id]):
            for mc in inst.machines:
                delta[(u, v.id, mc.id)] = model.add_var(
                    f"d_{_safe(u)}_{_safe(v.id)}_{_safe(mc.id)}", 0.0, 1.0
                )
    for k, v in enumerate(inst.jobs):
        model.add_row(f"comp_{_safe(v.id)}", {0: 1.0, 1 + k: -1.0}, ">=", 1.0)
    for i, mc in enumerate(inst.machines):
        coeffs = {0: mc.speed}
        for k in range(n):
            coeffs[1 + n + k * m + i] = -1.0
        model.add_row(f"load_{_safe(mc.id)}", coeffs, ">=", 0.0)
    for k, v in enumerate(inst.jobs):
        for u in sorted(preds[v.id]):
            coeffs = {1 + k: 1.0, 1 + pos[u]: -1.0}
            for mc in inst.machines:
                coeffs[delta[(u, v.id, mc.id)]] = rho
            model.add_row(f"delay_{_safe(u)}_{_safe(v.id)}", coeffs, ">=", rho)
            model.add_row(
                f"exec_{_safe(u)}_{_safe(v.id)}", {1 + k: 1.0, 1 + pos[u]: -1.0}, ">=", 1.0
            )
            for i, mc in enumerate(inst.machines):
                model.add_row(
                    f"dv_{_safe(u)}_{_safe(v.id)}_{_safe(mc.id)}",
                    {1 + n + k * m + i: 1.0, delta[(u, v.id, mc.id)]: -1.0},
                    ">=",
                    0.0,
                )
                model.add_row(
                    f"du_{_safe(u)}_{_safe(v.id)}_{_safe(mc.id)}",
                    {1 + n + pos[u] * m + i: 1.0, delta[(u, v.id, mc.id)]: -1.0},
                    ">=",
                    0.0,
                )
    for k, v in enumerate(inst.jobs):
        coeffs = {1 + n + k * m + i: 1.0 for i in range(m)}
        model.add_row(f"cover_{_safe(v.id)}", coeffs, "=", 1.0)
    return model


def _time_indexed_model(inst: Instance, horizon: int | None) -> LpModel:
    """Completion-indexed program over integer steps 1..horizon.

    The makespan variable dominates each job's fractional completion time; an
    undersized horizon makes the model infeasible, which callers may report.
    """
    s_max = max(mc.speed for mc in inst.machines)
    if horizon is None:
        horizon = math.ceil(2.0 * sum(j.size for j in inst.jobs) / s_max)
    horizon = max(1, int(horizon))
    preds = transitive_predecessors(inst)
    rho = inst.rho
    model = LpModel()
    model.add_var("C")  # column 0
    idx: dict[tuple[str, str, int], int] = {}
    for v in inst.jobs:
        for mc in inst.machines:
            for t in range(1, horizon + 1):
                idx[(v.id, mc.id, t)] = model.add_var(
                    f"x_{_safe(v.id)}_{_safe(mc.id)}_{t}", 0.0, 1.0
                )
    model.objective = {0: 1.0}
    for v in inst.jobs:
        coeffs = {idx[(v.id, mc.id, t)]: 1.0 for mc in inst.machines for t in range(1, horizon + 1)}
        model.add_row(f"cover_{_safe(v.id)}", coeffs, "=", 1.0)
        coeffs = {0: 1.0}
        for mc in inst.machines:
            for t in range(1, horizon + 1):
                coeffs[idx[(v.id, mc.id, t)]] = -float(t)
        model.add_row(f"mk_{_safe(v.id)}", coeffs, ">=", 0.0)
    for mc in inst.machines:
        for t in range(1, horizon + 1):
            coeffs = {idx[(v.id, mc.id, t)]: 1.0 for v in inst.jobs}
            model.add_row(f"cap_{_safe(mc.id)}_{t}", coeffs, "<=", 1.0)
    for v in inst.jobs:
        for u in sorted(preds[v.id]):
            for t in range(0, horizon):
                coeffs: dict[int, float] = {}
                for mc in inst.machines:
                    for t2 in range(1, t + 2):
                        coeffs[idx[(v.id, mc.id, t2)]] = 1.0
                    for t2 in range(1, t + 1):
                        coeffs[idx[(u, mc.id, t2)]] = coeffs.get(idx[(u, mc.id, t2)], 0.0) - 1.0
                model.add_row(f"prec_{_safe(u)}_{_safe(v.id)}_{t}", coeffs, "<=", 0.0)
            for mc in inst.machines:
                for t in range(0, horizon):
                    coeffs = {idx[(v.id, mc.id, t + 1)]: 1.0}
                    for mc2 in inst.machines:
                        if mc2.id == mc.id:
                            continue
                        for t2 in range(max(1, t - int(rho)), t + 1):
                            key = idx[(u, mc2.id, t2)]
                            coeffs[key] = coeffs.get(key, 0.0) + 1.0
                    model.add_row(
                        f"delay_{_safe(u)}_{_safe(v.id)}_{_safe(mc.id)}_{t}",
                        coeffs,
                        "<=",
                        1.0,
                    )
    return model


def _same_phase_model(inst: Instance) -> LpModel:
    """Pairwise same-phase indicator program with speed-weighted phase row."""
    preds = transitive_predecessors(inst)
    n, m, rho = inst.n, inst.m, inst.rho
    pos = {v.id: k for k, v in enumerate(inst.jobs)}
    model = _scaffold(inst)
    phi: dict[tuple[str, str], int] = {}
    for v in inst.jobs:
        for u in sorted(preds[v.id]):
            phi[(u, v.id)] = model.add_var(f"phi_{_safe(u)}_{_safe(v.id)}", 0.0, 1.0)
    for k, v in enumerate(inst.jobs):
        model.add_row(f"mk_{_safe(v.id)}", {0: 1.0, 1 + k: -1.0}, ">=", 0.0)
    for i, mc in enumerate(inst.machines):
        coeffs = {0: mc.speed}
        for k, v in enumerate(inst.jobs):
            coeffs[1 + n + k * m + i] = -v.size
        model.add_row(f"load_{_safe(mc.id)}", coeffs, ">=", 0.0)
    for k, v in enumerate(inst.jobs):
        for u in sorted(preds[v.id]):
            model.add_row(
                f"delay_{_safe(u)}_{_safe(v.id)}",
                {1 + k: 1.0, 1 + pos[u]: -1.0, phi[(u, v.id)]: rho},
                ">=",
                rho,
            )
            model.add_row(
                f"prec_{_safe(u)}_{_safe(v.id)}", {1 + k: 1.0, 1 + pos[u]: -1.0}, ">=", 0.0
            )
    for k, v in enumerate(inst.jobs):
        if not preds[v.id]:
            continue
        coeffs: dict[int, float] = {}
        for i, mc in enumerate(inst.machines):
            coeffs[1 + n + k * m + i] = rho * mc.speed
        for u in sorted(preds[v.id]):
            coeffs[phi[(u, v.id)]] = -inst.size(u)
        model.add_row(f"phase_{_safe(v.id)}", coeffs, ">=", 0.0)
    for k, v in enumerate(inst.jobs):
        coeffs = {1 + n + k * m + i: 1.0 for i in range(m)}
        model.add_row(f"cover_{_safe(v.id)}", coeffs, "=", 1.0)
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
        doc = {
            "params": self.params,
            "lp_value": self.lp_value,
            "lp_source": self.lp_source,
            "pipeline_makespan": self.pipeline_makespan,
            "baseline_makespan": self.baseline_makespan,
            "ratio": self.ratio,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def measure_gap(inst: Instance, eta: float | None = None) -> GapReport:
    """LP value (certificate when layered), pipeline and baseline makespans."""
    from .cli import PipelineConfig, _solve_relaxation, run_pipeline
    from .oracle import combinatorial_baseline
    from .schedmodel import makespan

    try:
        _layer_structure(inst)
        lp_value = float(inst.rho)
        lp_source = "certificate"
    except ValueError:
        lp_value = _solve_relaxation(inst).objective
        lp_source = "solved"

    result = run_pipeline(inst, PipelineConfig(eta=eta))
    pipe_ms = result.makespan  # original units, like the LP value and the baseline
    base_ms = makespan(inst, combinatorial_baseline(inst))
    ratio = min(pipe_ms, base_ms) / lp_value if lp_value > 0 else None
    return GapReport(
        params={"n": inst.n, "m": inst.m, "rho": inst.rho},
        lp_value=lp_value,
        lp_source=lp_source,
        pipeline_makespan=pipe_ms,
        baseline_makespan=base_ms,
        ratio=ratio,
    )
