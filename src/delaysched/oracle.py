"""Exact optimum for tiny instances and a greedy combinatorial baseline.

The exact search enumerates, per job, a nonempty machine subset (singletons
when duplication is off) and then branches over placement interleavings in
nondecreasing start order, restricted to per-machine topological sequences.
Start times are the earliest feasible under precedence, delay, and machine
order.  Branch and bound with a serial-schedule incumbent keeps this viable
at oracle scale.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .instance import (
    Instance,
    require_valid_instance,
    topological_order,
    transitive_predecessors,
)
from .schedmodel import Placement, Schedule, makespan


class OracleLimitError(ValueError):
    """Instance exceeds the configured oracle search limits."""


@dataclass(frozen=True)
class OracleLimits:
    """The largest instance the exact search takes, in either mode, and its
    time budget.  A ``None`` size limit is the mode's default: 5 jobs and 2
    machines with duplication, 7 jobs and 3 machines without."""

    max_jobs: int | None = None
    max_machines: int | None = None
    time_budget: float | None = None  # seconds; None = unlimited

    def check(self, inst: Instance, allow_duplication: bool):
        if self.time_budget is not None and math.isnan(self.time_budget):
            # a NaN deadline is never reached, so the search would run unlimited
            raise OracleLimitError(f"oracle time budget {self.time_budget} is not a number")
        default_jobs, default_m = (5, 2) if allow_duplication else (7, 3)
        max_jobs = default_jobs if self.max_jobs is None else self.max_jobs
        max_m = default_m if self.max_machines is None else self.max_machines
        if inst.n > max_jobs or inst.m > max_m:
            raise OracleLimitError(
                f"instance ({inst.n} jobs, {inst.m} machines) exceeds oracle "
                f"limits ({max_jobs} jobs, {max_m} machines)"
            )


def _serial_schedule(inst: Instance) -> Schedule:
    fastest = inst.machines[-1]
    t = 0.0
    placements = []
    for v in topological_order(inst):
        placements.append(Placement(v, fastest.id, t))
        t += inst.size(v) / fastest.speed
    return Schedule(tuple(placements))


def exact_optimal_makespan(
    inst: Instance, allow_duplication: bool, limits: OracleLimits | None = None
) -> tuple[float, Schedule]:
    """Minimum makespan and one deterministic witness schedule.  Bounds are
    pruned with ``Instance._time_tol``, so both scale exactly when sizes,
    speeds and rho are scaled by powers of two."""
    limits = limits or OracleLimits()
    limits.check(inst, allow_duplication)
    require_valid_instance(inst)

    jobs = [j.id for j in inst.jobs]
    machines = [mc.id for mc in inst.machines]
    size, speed = inst._sizes, inst._speeds
    direct_preds = inst.direct_predecessors()
    topo_pos = {v: k for k, v in enumerate(topological_order(inst))}
    rho, tol = inst.rho, inst._time_tol
    deadline = None if limits.time_budget is None else time.monotonic() + limits.time_budget

    if allow_duplication:
        subsets = [
            tuple(s)
            for r in range(1, inst.m + 1)
            for s in itertools.combinations(machines, r)
        ]
    else:
        subsets = [(mid,) for mid in machines]

    incumbent_sched = _serial_schedule(inst)
    incumbent = makespan(inst, incumbent_sched)

    s_max = speed[machines[-1]]
    path_lb = _critical_path(inst, topo_pos, s_max)
    load_lb = sum(size.values()) / sum(speed.values())
    global_lb = max(path_lb, load_lb)

    for combo in itertools.product(*[subsets for _ in jobs]):
        if deadline is not None and time.monotonic() >= deadline:
            raise OracleLimitError("oracle time budget exhausted")
        if incumbent <= global_lb + tol:
            break
        assign = dict(zip(jobs, combo))
        lb = global_lb
        for mid in machines:
            lb = max(
                lb,
                sum(size[v] / speed[mid] for v in jobs if mid in assign[v]),
            )
        for v in jobs:
            lb = max(lb, max(size[v] / speed[mid] for mid in assign[v]))
        if lb >= incumbent - tol:
            continue
        found = _search_orders(
            inst, assign, direct_preds, topo_pos, size, speed, rho, incumbent, deadline
        )
        if found is not None and found[0] < incumbent - tol:
            incumbent, incumbent_sched = found

    return incumbent, incumbent_sched


def _critical_path(inst, topo_pos, s_max) -> float:
    dpreds = inst.direct_predecessors()
    dist = {}
    for v in sorted(topo_pos, key=topo_pos.__getitem__):
        best = max((dist[u] for u in dpreds[v]), default=0.0)
        dist[v] = best + inst.size(v) / s_max
    return max(dist.values(), default=0.0)


def _search_orders(inst, assign, dpreds, topo_pos, size, speed, rho, bound, deadline):
    machines = [mc.id for mc in inst.machines]
    tol = inst._time_tol
    remaining = {
        mid: sorted(
            (v for v in assign if mid in assign[v]), key=topo_pos.__getitem__
        )
        for mid in machines
    }
    comp: dict[str, dict[str, float]] = {v: {} for v in assign}
    frontier = {mid: 0.0 for mid in machines}
    best: list = [bound, None]
    placements: list[Placement] = []

    def earliest(v, mid):
        t = frontier[mid]
        for u in dpreds[v]:
            opts = [c for m2, c in comp[u].items() if m2 == mid]
            opts += [c + rho for m2, c in comp[u].items() if m2 != mid]
            if not opts:
                return None  # predecessor has no copy yet
            t = max(t, min(opts))
        return t

    def descend(last_start, cur_max):
        if deadline is not None and time.monotonic() >= deadline:
            raise OracleLimitError("oracle time budget exhausted")
        if cur_max >= best[0] - tol:
            return
        if all(not lst for lst in remaining.values()):
            best[0] = cur_max
            best[1] = Schedule(tuple(placements))
            return
        for mid in machines:
            if frontier[mid] + sum(size[v] / speed[mid] for v in remaining[mid]) >= best[0] - tol:
                return
        cands = []
        for mid in machines:
            lst = remaining[mid]
            rem_set = set(lst)
            for v in lst:
                # only copies with no remaining direct predecessor on the same
                # machine may run next; deeper blockers fall out of earliest()
                if any(u in rem_set for u in dpreds[v]):
                    continue
                t = earliest(v, mid)
                if t is not None and t >= last_start - tol:
                    cands.append((t, mid, v))
        cands.sort(key=lambda c: (c[0], inst.machine_index(c[1]), topo_pos[c[2]]))
        for t, mid, v in cands:
            end = t + size[v] / speed[mid]
            remaining[mid].remove(v)
            comp[v][mid] = end
            old_frontier = frontier[mid]
            frontier[mid] = end
            placements.append(Placement(v, mid, t))
            descend(t, max(cur_max, end))
            placements.pop()
            frontier[mid] = old_frontier
            del comp[v][mid]
            remaining[mid].append(v)
            remaining[mid].sort(key=topo_pos.__getitem__)

    descend(0.0, 0.0)
    if best[1] is None:
        return None
    return best[0], best[1]


def combinatorial_baseline(inst: Instance) -> Schedule:
    """Greedy least-loaded baseline with half-new-work duplication rule.

    Known to be badly suboptimal on chain-fan instances with one fast
    machine; kept as a comparison point, its output is always valid.  Times
    are compared with ``TOL`` on the normalized scale, as
    :func:`validate_schedule` compares them.
    """
    require_valid_instance(inst)
    tpreds = transitive_predecessors(inst)
    tol = inst._time_tol
    rho = inst.rho
    size, speed = inst._sizes, inst._speeds
    topo_pos = {v: k for k, v in enumerate(topological_order(inst))}

    clock = 0.0
    frontier = {mc.id: 0.0 for mc in inst.machines}
    placements: list[Placement] = []
    on_machine: dict[str, set[str]] = {mc.id: set() for mc in inst.machines}
    comp: dict[str, list[float]] = {}
    start_of: dict[str, list[float]] = {}
    unscheduled = {j.id for j in inst.jobs}
    guard = 0
    guard_cap = 4 * inst.n * inst.m + 4 * inst.n + 16

    while unscheduled:
        guard += 1
        if guard > guard_cap:
            raise AssertionError("baseline failed to make progress")
        recent = {
            v for v, ts in start_of.items() if any(t >= clock - tol for t in ts)
        }
        finished = {
            v for v, ts in comp.items() if any(t <= clock + tol for t in ts)
        }
        mid = min(frontier, key=lambda k: (frontier[k], k))
        threshold = rho * speed[mid] if rho > 0 else math.inf
        placed_one = False
        for v in sorted(unscheduled, key=lambda v: (topo_pos[v], v)):
            open_preds = tpreds[v] - finished
            if len(open_preds) >= threshold:
                continue
            needed = [u for u in sorted(tpreds[v] | {v}, key=topo_pos.__getitem__) if u not in finished]
            if 2 * len([u for u in needed if u not in recent]) < len(needed):
                continue
            t = frontier[mid]
            for u in needed:
                unscheduled.discard(u)
                if u in on_machine[mid]:
                    continue
                placements.append(Placement(u, mid, t))
                on_machine[mid].add(u)
                start_of.setdefault(u, []).append(t)
                end = t + size[u] / speed[mid]
                comp.setdefault(u, []).append(end)
                t = end
            frontier[mid] = t
            placed_one = True
            break
        if not placed_one:
            latest = max((max(ts) for ts in comp.values()), default=0.0)
            clock = latest + rho
            for k in frontier:
                frontier[k] = max(frontier[k], clock)
    return Schedule(tuple(placements))
