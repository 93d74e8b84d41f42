"""Event-driven group scheduler with job duplication.

Jobs are considered group by group in a fixed topological order.  A job and
its not-yet-communicated predecessors are packed onto the least-loaded
machine of the job's group when three conditions hold: the predecessor mass
fits in 8*rho at the group's slowest speed, at least a 1/eta fraction of the
packed mass is new work, and every packed job is assigned to this group or a
faster one.  The clock then advances through the event set of completion
times and communication arrivals, kept in a heap: the next event is the first
time more than TOL above the clock.

A rejected job is not evaluated again until its verdict can change.  The
verdict for job v depends only on the chosen machine i, its frontier t_i, and
for each candidate u of v on ``comp_on[u]``, ``earliest_comp[u]`` and whether
u is placed; those candidate values change only when u gets a placement, and
a placement of u drops the record of every job that has u as a candidate.
With the same i, t_i only grows, so the batch can only shrink, and it shrinks
exactly when a member becomes done.  No member has a copy on i, since every
copy there ends by t_i; so a member becomes done only when its least
completion anywhere reaches ``t_i - rho + TOL``, the comparison the batch is
built with, which is monotone in the least such completion over the batch.
So a rejection records ``(i, min_far)``, and a later visit skips v while the
least-loaded machine is still i and ``min_far > t_i - rho + TOL``.  Each
group's least-loaded machine is cached until one of its frontiers moves: by
a placement in the group, or by a clock advance past it.
"""

from __future__ import annotations

import heapq
import math

from .grouping import GroupAssignment
from .instance import TOL, Instance, topological_order, transitive_predecessors
from .schedmodel import Placement, Schedule

PRED_MASS_FACTOR = 8.0  # condition (a): predecessor mass within 8*rho*gamma


class SchedulerInvariantError(AssertionError):
    """A bookkeeping invariant of the scheduling loop failed."""


def default_eta(rho: float) -> float:
    """Overlap parameter log(rho)/loglog(rho), guarded to 2 for small rho."""
    if rho <= math.e**math.e:
        return 2.0
    return max(2.0, math.log(rho) / math.log(math.log(rho)))


def _merged_events(times) -> list[float]:
    """The distinct ``times`` in increasing order, dropping each that lies
    within TOL above the last one kept."""
    out = sorted(set(times))
    merged = out[:1]
    for t in out[1:]:
        if t > merged[-1] + TOL:
            merged.append(t)
    return merged


def _next_event(events: list[float], clock: float) -> float | None:
    """Pop every time at or below ``clock + TOL`` off the heap ``events`` and
    return the new top, or None once the heap is empty.

    This is the first :func:`_merged_events` time above ``clock + TOL`` as
    long as every time was pushed at or after the clock of its push: the
    clock is then a merged event that no later time can drop, and the merge
    keeps the first time more than TOL above it.
    """
    above = clock + TOL
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

    rho = inst.rho
    preds = transitive_predecessors(inst)
    size, speed = inst._sizes, inst._speeds
    bands, kappa = assignment.bands, assignment.kappa
    order = topological_order(inst, key=lambda v: (bands[v], v))
    topo_pos = {v: k for k, v in enumerate(order)}
    # each job's batch candidates: itself and its predecessors, in topological order
    candidates = {v: sorted(preds[v] | {v}, key=topo_pos.__getitem__) for v in order}
    group_jobs = {g.index: [v for v in order if kappa[v] == g.index] for g in assignment.groups}
    # the jobs that have each job as a candidate: itself and its successors
    dependents: dict[str, list[str]] = {v: [] for v in order}
    for v in order:
        for u in candidates[v]:
            dependents[u].append(v)
    group_of = {mid: g.index for g in assignment.groups for mid in g.machine_ids}

    clock = 0.0
    clock_history = [clock]
    frontier = {mc.id: 0.0 for mc in inst.machines}
    placed: set[str] = set()
    placements: list[Placement] = []
    comp_on: dict[str, set[str]] = {v.id: set() for v in inst.jobs}  # machines holding a copy
    earliest_comp: dict[str, float] = {v.id: math.inf for v in inst.jobs}
    max_comp_on = {mc.id: 0.0 for mc in inst.machines}
    events: list[float] = []  # heap of completion and arrival times
    least: dict[int, str] = {}  # each group's least-loaded machine, while valid
    rejected: dict[str, tuple[str, float]] = {}  # v -> (i, min_far)
    n, m = inst.n, inst.m
    max_rounds = 2 * m * (n - 1) + 2

    def assert_frontiers():
        for mc in inst.machines:
            want = max(clock, max_comp_on[mc.id])
            if abs(frontier[mc.id] - want) > TOL:
                raise SchedulerInvariantError(
                    f"frontier of {mc.id} is {frontier[mc.id]}, expected {want}"
                )

    rounds = 0
    while len(placed) < n:
        rounds += 1
        if rounds > max_rounds:
            raise SchedulerInvariantError(f"exceeded {max_rounds} scheduling rounds")
        for g in assignment.groups:
            for v in group_jobs[g.index]:
                if v in placed:
                    continue
                i = least.get(g.index)
                if i is None:
                    i = least[g.index] = min(g.machine_ids, key=lambda mid: (frontier[mid], mid))
                t_i = frontier[i]
                seen = rejected.get(v)
                if seen is not None and seen[0] == i and not seen[1] <= t_i - rho + TOL:
                    continue  # the same batch, rejected again
                batch = []
                for u in candidates[v]:
                    # every completion on i is at or before t_i, as the
                    # frontier check above asserts each round
                    done_here = i in comp_on[u]
                    done_far = earliest_comp[u] <= t_i - rho + TOL
                    if not (done_here or done_far):
                        batch.append(u)
                mass = sum(size[u] for u in batch)
                mass_minus_v = mass - (size[v] if v in batch else 0.0)
                new_mass = sum(size[u] for u in batch if u not in placed)
                if (
                    mass_minus_v > PRED_MASS_FACTOR * rho * g.gamma + TOL
                    or new_mass < mass / eta - TOL
                    or any(kappa[u] < g.index for u in batch)
                ):
                    rejected[v] = (i, min(earliest_comp[u] for u in batch))
                    continue
                for u in batch:
                    if i in comp_on[u]:
                        raise SchedulerInvariantError(
                            f"second placement of {u} on {i}"
                        )
                    start = frontier[i]
                    placements.append(Placement(u, i, start))
                    end = start + size[u] / speed[i]
                    frontier[i] = end
                    comp_on[u].add(i)
                    earliest_comp[u] = min(earliest_comp[u], end)
                    max_comp_on[i] = max(max_comp_on[i], end)
                    heapq.heappush(events, end)  # start is the frontier, at or after the clock
                    heapq.heappush(events, end + rho)
                    if trace is not None:
                        trace.append(
                            {"event": "place", "job": u, "machine": i, "start": start}
                        )
                    if abs(frontier[i] - max(clock, max_comp_on[i])) > TOL:
                        raise SchedulerInvariantError(f"frontier drift on {i}")
                    for w in dependents[u]:
                        rejected.pop(w, None)
                placed |= set(batch)
                del least[g.index]

        if len(placed) == n:
            break
        # later rounds visit only the jobs still to place; the check inside
        # the round stays, as a batch can place jobs of later groups
        for g, jobs in group_jobs.items():
            group_jobs[g] = [v for v in jobs if v not in placed]
        nxt = _next_event(events, clock)
        if nxt is None:
            raise SchedulerInvariantError(
                "no clock event beyond current time while jobs remain"
            )
        clock = nxt
        clock_history.append(nxt)
        for mid, t in frontier.items():
            if t < clock:
                frontier[mid] = clock
                least.pop(group_of.get(mid), None)
        if trace is not None:
            trace.append({"event": "sweep", "clock": clock})
        assert_frontiers()

    # the clock walked a prefix of the final event set, recomputed from the
    # placements themselves, in sorted order; this replay is what checks the
    # heap rule of _next_event
    ends = [p.start + size[p.job] / speed[p.machine] for p in placements]
    ev = _merged_events([0.0, *ends, *(c + rho for c in ends)])
    if len(clock_history) > len(ev):
        raise SchedulerInvariantError("clock advanced past the event set")
    for want, got in zip(ev, clock_history):
        if abs(want - got) > 10 * TOL:
            raise SchedulerInvariantError(f"clock visited {got}, expected event {want}")

    return Schedule(tuple(placements))
