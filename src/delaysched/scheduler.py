"""Event-driven group scheduler with job duplication.

Jobs are considered group by group in a fixed topological order.  A job and
its not-yet-communicated predecessors are packed onto the least-loaded
machine of the job's group when three conditions hold: the predecessor mass
fits in 8*rho at the group's slowest speed, at least a 1/eta fraction of the
packed mass is new work, and every packed job is assigned to this group or a
faster one.  The clock then advances through the event set of completion
times and communication arrivals, kept in a heap: the next event is the first
time more than the time tolerance above the clock.  Every tolerance is
``TOL`` on the normalized scale: ``Instance._time_tol`` on times and ``TOL``
times the smallest size on masses, so no decision changes when sizes,
speeds, rho and times are scaled by powers of two.

A rejected job is not evaluated again until its verdict can change.  The
verdict for job v depends only on the chosen machine i, its frontier t_i, and
for each candidate u of v on whether i holds a copy of u, ``earliest_comp[u]``
and whether u is placed; those candidate values change only when u gets a
placement, and a placement of u drops the record of every job that has u as a
candidate.
With the same i, t_i only grows, so the batch can only shrink, and it shrinks
exactly when a member becomes done.  No member has a copy on i, since every
copy there ends by t_i; so a member becomes done only when its least
completion anywhere reaches ``t_i - rho + tol``, the comparison the batch is
built with, which is monotone in the least such completion over the batch.
So a rejection records ``(i, min_far)``, and a later visit skips v while the
least-loaded machine is still i and ``min_far > t_i - rho + tol``.  Each
group's least-loaded machine is cached until one of its frontiers moves: by
a placement in the group, or by a clock advance past it.

The loop keeps its state in lists by index: a job's index is its position in
the scheduling order, so its candidates are an ascending list that ends with
the job itself, and a machine's index is its position in ``inst.machines``,
:meth:`Instance.machine_index`.
Ids are read only to write placements, trace entries and error messages.
"""

from __future__ import annotations

import heapq
import math

from .grouping import GroupAssignment
from .instance import TOL, Instance, topological_order, transitive_predecessors
from .schedmodel import Placement, Schedule, _ends

PRED_MASS_FACTOR = 8.0  # condition (a): predecessor mass within 8*rho*gamma


class SchedulerInvariantError(AssertionError):
    """A bookkeeping invariant of the scheduling loop failed."""


def default_eta(rho: float) -> float:
    """Overlap parameter log(rho)/loglog(rho), guarded to 2 for small rho."""
    if rho <= math.e**math.e:
        return 2.0
    return max(2.0, math.log(rho) / math.log(math.log(rho)))


def _merged_events(times, tol: float) -> list[float]:
    """The distinct ``times`` in increasing order, dropping each that lies
    within ``tol`` above the last one kept."""
    out = sorted(set(times))
    merged = out[:1]
    for t in out[1:]:
        if t > merged[-1] + tol:
            merged.append(t)
    return merged


def _next_event(events: list[float], clock: float, tol: float) -> float | None:
    """Pop every time at or below ``clock + tol`` off the heap ``events`` and
    return the new top, or None once the heap is empty.

    This is the first :func:`_merged_events` time above ``clock + tol`` as
    long as every time was pushed at or after the clock of its push: the
    clock is then a merged event that no later time can drop, and the merge
    keeps the first time more than ``tol`` above it.
    """
    above = clock + tol
    while events and events[0] <= above:
        heapq.heappop(events)
    return events[0] if events else None


def resolve_eta(eta: float | None, rho: float) -> float:
    """``eta``, or :func:`default_eta` of ``rho`` when None; below 1, NaN or
    infinite is an error (an infinite eta has no JSON form for the report)."""
    if eta is None:
        return default_eta(rho)
    if not eta >= 1.0:  # NaN included
        raise ValueError("eta must be >= 1")
    if eta == math.inf:
        raise ValueError("eta must be finite")
    return eta


def run_group_scheduler(
    inst: Instance,
    assignment: GroupAssignment,
    eta: float | None,
    trace: list | None = None,
) -> Schedule:
    """Schedule every job, duplicating where the three conditions allow."""
    eta = resolve_eta(eta, inst.rho)
    missing = [j.id for j in inst.jobs if j.id not in assignment.kappa]
    if missing:
        raise ValueError(f"assignment does not cover job {missing[0]}")

    rho, n, m = inst.rho, inst.n, inst.m
    tol = inst._time_tol
    preds = transitive_predecessors(inst)
    bands, kappa = assignment.bands, assignment.kappa
    order = topological_order(inst, key=lambda v: (bands[v], v))
    job_at = {v: k for k, v in enumerate(order)}
    sz = [inst._sizes[v] for v in order]
    mass_tol = TOL * min(sz)
    kap = [kappa[v] for v in order]
    # each job's batch candidates: its predecessors in scheduling order, then
    # itself (every predecessor comes earlier)
    candidates = [sorted(map(job_at.__getitem__, preds[v])) + [k] for k, v in enumerate(order)]
    # the jobs that have each job as a candidate: itself and its successors
    dependents: list[list[int]] = [[] for _ in range(n)]
    for v, cand in enumerate(candidates):
        for u in cand:
            dependents[u].append(v)
    mids = [mc.id for mc in inst.machines]
    spd = [mc.speed for mc in inst.machines]
    groups = assignment.groups
    # each group's machines in id order, so the first least frontier breaks
    # ties by id; and its jobs, in scheduling order
    group_machines = [[inst.machine_index(mid) for mid in sorted(g.machine_ids)] for g in groups]
    group_jobs = [[k for k in range(n) if kap[k] == g.index] for g in groups]
    group_of = [-1] * m
    for gk, g in enumerate(groups):
        for mid in g.machine_ids:
            group_of[inst.machine_index(mid)] = gk

    clock = 0.0
    clock_history = [clock]
    frontier = [0.0] * m
    placed = [False] * n
    n_placed = 0
    placements: list[Placement] = []
    on = [[False] * n for _ in range(m)]  # on[i][u]: machine i holds a copy of u
    earliest_comp = [math.inf] * n
    max_comp_on = [0.0] * m
    events: list[float] = []  # heap of completion and arrival times
    least: list[int | None] = [None] * len(groups)  # each group's least-loaded machine, while valid
    rejected_on = [-1] * n  # v -> the machine i of its rejection, or -1
    rejected_far = [0.0] * n  # v -> min_far of its rejection
    max_rounds = 2 * m * (n - 1) + 2

    rounds = 0
    while n_placed < n:
        rounds += 1
        if rounds > max_rounds:
            raise SchedulerInvariantError(f"exceeded {max_rounds} scheduling rounds")
        placed_before = n_placed
        for gk, g in enumerate(groups):
            mass_cap = PRED_MASS_FACTOR * rho * g.gamma + mass_tol
            for v in group_jobs[gk]:
                if placed[v]:
                    continue
                i = least[gk]
                if i is None:
                    i = least[gk] = min(group_machines[gk], key=frontier.__getitem__)
                far = frontier[i] - rho + tol
                if rejected_on[v] == i and not rejected_far[v] <= far:
                    continue  # the same batch, rejected again
                # every completion on i is at or before its frontier, as the
                # frontier check at each clock advance asserts
                on_i = on[i]
                batch = [u for u in candidates[v] if not (on_i[u] or earliest_comp[u] <= far)]
                # v has no copy yet, so it is in the batch, last: mass - sz[v]
                # is the predecessor mass of condition (a)
                mass = sum([sz[u] for u in batch])
                if (
                    mass - sz[v] > mass_cap
                    or sum([sz[u] for u in batch if not placed[u]]) < mass / eta - mass_tol
                    or any([kap[u] < g.index for u in batch])
                ):
                    rejected_on[v] = i
                    rejected_far[v] = min([earliest_comp[u] for u in batch])
                    continue
                for u in batch:
                    if on_i[u]:
                        raise SchedulerInvariantError(
                            f"second placement of {order[u]} on {mids[i]}"
                        )
                    start = frontier[i]
                    placements.append(Placement(order[u], mids[i], start))
                    end = start + sz[u] / spd[i]
                    frontier[i] = end
                    on_i[u] = True
                    if end < earliest_comp[u]:
                        earliest_comp[u] = end
                    if end > max_comp_on[i]:
                        max_comp_on[i] = end
                    heapq.heappush(events, end)  # start is the frontier, at or after the clock
                    heapq.heappush(events, end + rho)
                    if trace is not None:
                        trace.append(
                            {"event": "place", "job": order[u], "machine": mids[i], "start": start}
                        )
                    if abs(frontier[i] - max(clock, max_comp_on[i])) > tol:
                        raise SchedulerInvariantError(f"frontier drift on {mids[i]}")
                    for w in dependents[u]:
                        rejected_on[w] = -1
                    if not placed[u]:
                        placed[u] = True
                        n_placed += 1
                least[gk] = None

        if n_placed == n:
            break
        # later rounds visit only the jobs still to place; the check inside
        # the round stays, as a batch can place jobs of later groups
        if n_placed > placed_before:  # else the lists are unchanged
            for gk, jobs in enumerate(group_jobs):
                group_jobs[gk] = [v for v in jobs if not placed[v]]
        nxt = _next_event(events, clock, tol)
        if nxt is None:
            raise SchedulerInvariantError(
                "no clock event beyond current time while jobs remain"
            )
        clock = nxt
        clock_history.append(nxt)
        if trace is not None:
            trace.append({"event": "sweep", "clock": clock})
        for i, t in enumerate(frontier):
            if t < clock:
                frontier[i] = t = clock
                if group_of[i] >= 0:
                    least[group_of[i]] = None
            want = max_comp_on[i] if max_comp_on[i] > clock else clock
            if abs(t - want) > tol:
                raise SchedulerInvariantError(f"frontier of {mids[i]} is {t}, expected {want}")

    # the clock walked a prefix of the final event set, recomputed from the
    # placements themselves, in sorted order; this replay is what checks the
    # heap rule of _next_event
    sched = Schedule(tuple(placements))
    ends = _ends(inst, sched)
    ev = _merged_events([0.0, *ends, *(c + rho for c in ends)], tol)
    if len(clock_history) > len(ev):
        raise SchedulerInvariantError("clock advanced past the event set")
    for want, got in zip(ev, clock_history):
        if abs(want - got) > 10 * tol:
            raise SchedulerInvariantError(f"clock visited {got}, expected event {want}")

    return sched
