"""Slow-machine elimination and the schedule-rehosting transformation.

Machines slower than the fastest speed divided by the machine count are
dropped.  Any schedule that used dropped machines can be rehosted onto the
surviving set with at most a six-fold makespan increase: per-phase workloads
from the dropped machines are first re-packed onto a virtual machine running
at top speed (with a trailing communication gap per step), and that virtual
workload is then interleaved into the real fastest machine by staged
insertion shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import TOL, Instance, _derive, require_valid_instance, topological_order
from .schedmodel import Placement, Schedule, phase_of, require_valid_schedule


@dataclass(frozen=True)
class MachineFilterResult:
    filtered: Instance
    removed_ids: tuple[str, ...]


def _slow_ids(inst: Instance) -> set[str]:
    # TOL applies on the normalized scale, where s_max is 1, so raw and
    # normalized input drop the same machines
    threshold = max(mc.speed for mc in inst.machines) * (1 / inst.m - TOL)
    return {mc.id for mc in inst.machines if mc.speed < threshold}


def filter_slow_machines(inst: Instance) -> MachineFilterResult:
    """Keep machines with speed at least s_max/m (tolerance 1e-9 * s_max)."""
    require_valid_instance(inst)
    slow = _slow_ids(inst)
    kept = tuple(mc for mc in inst.machines if mc.id not in slow)
    return MachineFilterResult(_derive(inst, machines=kept), tuple(sorted(slow)))


def rehost_schedule(inst: Instance, sched: Schedule) -> Schedule:
    """Move all work off sub-threshold machines; makespan grows at most 6x."""
    require_valid_schedule(inst, sched)
    slow = _slow_ids(inst)
    if not any(p.machine in slow for p in sched.placements):
        return sched

    fast_machine = inst.machines[-1]  # fastest; ties resolved by sort order
    s_max = fast_machine.speed
    rho = inst.rho
    topo_pos = {v: k for k, v in enumerate(topological_order(inst))}

    if rho > 0:
        working = _repack_through_virtual(inst, sched, slow, s_max, rho, topo_pos)
    else:
        working = _virtualize_direct(sched, slow, topo_pos)
    return _absorb_virtual(inst, working, fast_machine.id, s_max)


_VIRTUAL = "__virtual__"


def _repack_through_virtual(inst, sched, slow, s_max, rho, topo_pos):
    """Phase-by-phase step construction onto the virtual top-speed machine."""
    first_slow_start: dict[str, float] = {}
    for p in sched.placements:
        if p.machine in slow:
            if p.job not in first_slow_start or p.start < first_slow_start[p.job]:
                first_slow_start[p.job] = p.start
    phases: dict[int, list[str]] = {}
    for v, t in first_slow_start.items():
        phases.setdefault(phase_of(t, rho), []).append(v)
    last_phase = max(phase_of(p.start, rho) for p in sched.placements)

    step_start: dict[int, float] = {}
    t = 0.0
    for tau in range(last_phase + 1):
        step_start[tau] = t
        load = sum(inst.size(v) for v in phases.get(tau, ()))
        t += max(rho, load / s_max) + rho

    placements: list[Placement] = []
    for tau in range(last_phase + 1):
        cursor = step_start[tau]
        for v in sorted(phases.get(tau, ()), key=lambda v: (topo_pos[v], v)):
            placements.append(Placement(v, _VIRTUAL, cursor))
            cursor += inst.size(v) / s_max
    for p in sched.placements:
        if p.machine in slow:
            continue
        tau = phase_of(p.start, rho)
        placements.append(Placement(p.job, p.machine, step_start[tau] + p.start - tau * rho))
    return placements


def _virtualize_direct(sched, slow, topo_pos):
    """rho = 0: no communication constraints, so dropped-machine placements
    move to the virtual machine at their original times (earliest copy only)."""
    first_slow: dict[str, Placement] = {}
    placements = []
    for p in sched.placements:
        if p.machine in slow:
            old = first_slow.get(p.job)
            if old is None or (p.start, p.machine) < (old.start, old.machine):
                first_slow[p.job] = p
        else:
            placements.append(p)
    for p in first_slow.values():
        placements.append(Placement(p.job, _VIRTUAL, p.start))
    return placements


def _absorb_virtual(inst, placements, target_id, s_max):
    """Insert virtual placements into the real fastest machine one by one,
    shifting every later start right; validity is preserved because every
    insertion only delays starts at or after the insertion point."""
    work = sorted(
        (p for p in placements if p.machine == _VIRTUAL),
        key=lambda p: (p.start, p.job),
    )
    rest = [p for p in placements if p.machine != _VIRTUAL]
    while work:
        v = work.pop(0)
        t_ins = v.start
        busy_until = max(
            (
                p.start + inst.size(p.job) / s_max
                for p in rest
                if p.machine == target_id and p.start < t_ins - inst._time_tol
            ),
            default=0.0,
        )
        s_star = max(t_ins, busy_until)
        end = s_star + inst.size(v.job) / s_max
        delta = end - t_ins

        def shifted(p):
            if p.start >= t_ins - inst._time_tol:
                return Placement(p.job, p.machine, p.start + delta)
            return p

        rest = [shifted(p) for p in rest]
        work = [shifted(p) for p in work]
        rest.append(Placement(v.job, target_id, s_star))
    # a rehosted copy may duplicate an existing copy on the target machine;
    # keeping only the earlier copy per (job, machine) is always valid
    best: dict[tuple[str, str], Placement] = {}
    for p in rest:
        key = (p.job, p.machine)
        if key not in best or p.start < best[key].start:
            best[key] = p
    return Schedule(tuple(best.values()))
