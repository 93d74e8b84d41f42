"""Factor-2 machine groups and the fractional-assignment rounding.

Machines are greedily grouped so every group's speeds lie within a factor two
of its slowest member.  Each job gets a median group (where its cumulative
fractional assignment first reaches one half) and is rounded to the highest
capacity group at least that fast.  Jobs are also banded by their relaxation
start times in quarter-phase widths.  Both read the relaxation's point from
``LpSolution.values`` by the index rule of :mod:`lp`: for job index k and
machine index i, S_v is ``values[1 + k]`` and x_{v,i} is
``values[1 + n + k*m + i]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import TOL, Instance, transitive_predecessors
from .lp import LpSolution

MU_TOL = 1e-9  # slack on the one-half cumulative-mass threshold


@dataclass(frozen=True)
class MachineGroup:
    index: int  # 1-based, slowest group first
    machine_ids: tuple[str, ...]
    gamma: float  # slowest member speed

    @property
    def size(self) -> int:
        return len(self.machine_ids)

    @property
    def capacity(self) -> float:
        return self.size * self.gamma


@dataclass(frozen=True)
class GroupAssignment:
    groups: tuple[MachineGroup, ...]
    mu: dict[str, int]
    kappa: dict[str, int]
    bands: dict[str, int]

    def group(self, k: int) -> MachineGroup:
        return self.groups[k - 1]


def partition_machine_groups(inst: Instance) -> list[MachineGroup]:
    """Greedy partition: a group opens at the slowest unassigned machine and
    absorbs machines with speed below twice that speed, judged with ``TOL``
    times the fastest speed."""
    speed_tol = TOL * max(mc.speed for mc in inst.machines)
    groups: list[MachineGroup] = []
    k = 0
    members: list[str] = []
    gamma = None
    for mc in inst.machines:
        if gamma is not None and mc.speed < 2 * gamma - speed_tol:
            members.append(mc.id)
            continue
        if members:
            k += 1
            groups.append(MachineGroup(k, tuple(members), gamma))
        gamma = mc.speed
        members = [mc.id]
    if members:
        groups.append(MachineGroup(k + 1, tuple(members), gamma))
    return groups


def _lp_point(inst: Instance, lp_sol: LpSolution) -> tuple[float, ...]:
    """``lp_sol.values``, once checked to hold C, S and x for ``inst``."""
    if len(lp_sol.values) < (need := 1 + inst.n + inst.n * inst.m):
        raise ValueError(f"the LP point has {len(lp_sol.values)} values; C, S and x take {need}")
    return lp_sol.values


def compute_bands(inst: Instance, lp_sol: LpSolution) -> dict[str, int]:
    """Band r(v) = floor(4*S_v/rho) + 1 under ``inst.rho``; band 1 covers
    starts in [0, rho/4)."""
    rho = inst.rho
    if rho <= 0:
        raise ValueError("bands are undefined for rho <= 0; use the rho=0 bypass")
    starts = _lp_point(inst, lp_sol)[1 : 1 + inst.n]
    return {v.id: _band(s, rho) for v, s in zip(inst.jobs, starts)}


def _band(s: float, rho: float) -> int:
    # 4*s/rho can round across a boundary; settle r against rho*(r-1)/4 <= s < rho*r/4
    r = int(math.floor(4.0 * s / rho)) + 1
    while r > 1 and rho * (r - 1) / 4 > s:
        r -= 1
    while s >= rho * r / 4:
        r += 1
    return r


def assign_job_groups(inst: Instance, lp_sol: LpSolution) -> GroupAssignment:
    """Round a fractional solution to per-job groups and bands, over the
    groups of :func:`partition_machine_groups`.

    Each group is a run of consecutive machine indices, so its share of a
    job's x is one slice of that job's x row.  With rho = 0 every job lands
    in band 1 (classical related-machines case).
    """
    n, m = inst.n, inst.m
    cap_tol = TOL * max(mc.speed for mc in inst.machines)
    values = _lp_point(inst, lp_sol)
    groups = tuple(partition_machine_groups(inst))
    first = [inst.machine_index(g.machine_ids[0]) - 1 for g in groups]
    mu: dict[str, int] = {}
    kappa: dict[str, int] = {}
    for k, v in enumerate(inst.jobs):
        x = values[1 + n + k * m : 1 + n + (k + 1) * m]
        acc = 0.0
        med = len(groups)
        for g, i in zip(groups, first):
            acc += sum(x[i : i + g.size])
            if acc >= 0.5 - MU_TOL:
                med = g.index
                break
        mu[v.id] = med
        # capacity argmax over groups at least as fast; ties toward faster
        best = med
        for g in groups[med - 1 :]:
            if g.capacity >= groups[best - 1].capacity - cap_tol:
                best = g.index
        kappa[v.id] = best
    if inst.rho > 0:
        bands = compute_bands(inst, lp_sol)
    else:
        bands = {v.id: 1 for v in inst.jobs}
    return GroupAssignment(groups=groups, mu=mu, kappa=kappa, bands=bands)


def capacity_monotonic(inst: Instance, assignment: GroupAssignment) -> bool:
    """Among groups with assigned jobs, capacity never increases with speed,
    judged with ``TOL`` times the fastest speed of ``inst``."""
    cap_tol = TOL * max(mc.speed for mc in inst.machines)
    used = sorted({k for k in assignment.kappa.values()})
    caps = [assignment.group(k).capacity for k in used]
    return all(a >= b - cap_tol for a, b in zip(caps, caps[1:]))


def band_bound_check(inst: Instance, assignment: GroupAssignment):
    """Per-band predecessor mass of each job against 8*rho*gamma(kappa(v))."""
    preds = transitive_predecessors(inst)
    rho = inst.rho
    worst = -math.inf
    ok = True
    if rho > 0:
        for v in inst.jobs:
            r = assignment.bands[v.id]
            mass = sum(
                inst.size(u) for u in preds[v.id] if assignment.bands[u] == r
            )
            bound = 8.0 * rho * assignment.group(assignment.kappa[v.id]).gamma
            worst = max(worst, mass - bound)
            if mass > bound + 1e-6:
                ok = False
    return {"measured_excess": worst if worst > -math.inf else None, "ok": ok, "asserted": True}


def load_bound_check(inst: Instance, lp_sol: LpSolution, assignment: GroupAssignment):
    """Sum over groups of assigned work over capacity, against 4*K*C_LP."""
    total = 0.0
    for g in assignment.groups:
        work = sum(inst.size(v) for v, k in assignment.kappa.items() if k == g.index)
        if work > 0:
            total += work / g.capacity
    k_count = len(assignment.groups)
    bound = 4.0 * k_count * lp_sol.objective + 1e-6
    return {"measured": total, "bound": bound, "ok": total <= bound, "asserted": True}
