"""Event-driven group scheduler with job duplication.

Jobs are considered group by group in a fixed topological order.  A job and
its not-yet-communicated predecessors are packed onto the least-loaded
machine of the job's group when three conditions hold: the predecessor mass
fits in 8*rho at the group's slowest speed, at least a 1/eta fraction of the
packed mass is new work, and every packed job is assigned to this group or a
faster one.  The clock then advances through the event set of completion
times and communication arrivals, which :class:`_EventClock` keeps sorted as
placements are made.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

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


class _EventClock:
    """Event times kept sorted as they arrive, read as :func:`_merged_events`
    would merge them.

    The merge is a chain (a time is kept if it lies more than TOL above the
    last time kept), but a time more than TOL above the raw time before it is
    always kept.  So the merged events from such a time on follow from the
    raw times from there, and the next event replays only the current run of
    times closer than TOL, not the whole set.
    """

    def __init__(self):
        self.raw = [0.0]  # distinct, increasing

    def add(self, t: float) -> None:
        k = bisect_left(self.raw, t)
        if k == len(self.raw) or self.raw[k] != t:
            self.raw.insert(k, t)

    def next_after(self, clock: float) -> float | None:
        """The first merged event above ``clock + TOL``, if any."""
        raw, above = self.raw, clock + TOL
        k = bisect_right(raw, above)
        if k == len(raw):
            return None
        s = k  # back to the first time of k's run, which the merge keeps
        while s > 0 and raw[s] <= raw[s - 1] + TOL:
            s -= 1
        kept = raw[s]
        if kept > above:
            return kept
        for j in range(s + 1, len(raw)):  # ends at the next run's first time at the latest
            if raw[j] > kept + TOL:
                kept = raw[j]
                if kept > above:
                    return kept
        return None


@dataclass
class SchedulerState:
    clock: float = 0.0
    frontier: dict[str, float] = field(default_factory=dict)
    placed: set[str] = field(default_factory=set)
    placements: list[Placement] = field(default_factory=list)
    clock_history: list[float] = field(default_factory=list)


def run_group_scheduler(
    inst: Instance,
    assignment: GroupAssignment,
    eta: float,
    trace: list | None = None,
) -> Schedule:
    """Schedule every job, duplicating where the three conditions allow."""
    if not eta >= 1.0:  # NaN included
        raise ValueError("eta must be >= 1")
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

    st = SchedulerState(frontier={mc.id: 0.0 for mc in inst.machines})
    st.clock_history.append(0.0)
    comp_on: dict[str, dict[str, float]] = {v.id: {} for v in inst.jobs}
    earliest_comp: dict[str, float] = {v.id: math.inf for v in inst.jobs}
    max_comp_on = {mc.id: 0.0 for mc in inst.machines}
    events = _EventClock()
    n, m = inst.n, inst.m
    max_rounds = 2 * m * (n - 1) + 2

    def assert_frontiers():
        for mc in inst.machines:
            want = max(st.clock, max_comp_on[mc.id])
            if abs(st.frontier[mc.id] - want) > TOL:
                raise SchedulerInvariantError(
                    f"frontier of {mc.id} is {st.frontier[mc.id]}, expected {want}"
                )

    rounds = 0
    while len(st.placed) < n:
        rounds += 1
        if rounds > max_rounds:
            raise SchedulerInvariantError(f"exceeded {max_rounds} scheduling rounds")
        for g in assignment.groups:
            for v in group_jobs[g.index]:
                if v in st.placed:
                    continue
                i = min(g.machine_ids, key=lambda mid: (st.frontier[mid], mid))
                t_i = st.frontier[i]
                batch = []
                for u in candidates[v]:
                    done_here = comp_on[u].get(i, math.inf) <= t_i + TOL
                    done_far = earliest_comp[u] <= t_i - rho + TOL
                    if not (done_here or done_far):
                        batch.append(u)
                mass = sum(size[u] for u in batch)
                mass_minus_v = mass - (size[v] if v in batch else 0.0)
                new_mass = sum(size[u] for u in batch if u not in st.placed)
                if mass_minus_v > PRED_MASS_FACTOR * rho * g.gamma + TOL:
                    continue
                if new_mass < mass / eta - TOL:
                    continue
                if any(kappa[u] < g.index for u in batch):
                    continue
                for u in batch:
                    if i in comp_on[u]:
                        raise SchedulerInvariantError(
                            f"second placement of {u} on {i}"
                        )
                    start = st.frontier[i]
                    st.placements.append(Placement(u, i, start))
                    end = start + size[u] / speed[i]
                    st.frontier[i] = end
                    comp_on[u][i] = min(comp_on[u].get(i, math.inf), end)
                    earliest_comp[u] = min(earliest_comp[u], end)
                    max_comp_on[i] = max(max_comp_on[i], end)
                    events.add(end)
                    events.add(end + rho)
                    if trace is not None:
                        trace.append(
                            {"event": "place", "job": u, "machine": i, "start": start}
                        )
                    if abs(st.frontier[i] - max(st.clock, max_comp_on[i])) > TOL:
                        raise SchedulerInvariantError(f"frontier drift on {i}")
                st.placed |= set(batch)

        if len(st.placed) == n:
            break
        nxt = events.next_after(st.clock)
        if nxt is None:
            raise SchedulerInvariantError(
                "no clock event beyond current time while jobs remain"
            )
        st.clock = nxt
        st.clock_history.append(nxt)
        for mid in st.frontier:
            st.frontier[mid] = max(st.frontier[mid], st.clock)
        if trace is not None:
            trace.append({"event": "sweep", "clock": st.clock})
        assert_frontiers()

    # the clock walked a prefix of the final event set, recomputed from the
    # placements themselves, in sorted order
    ends = [p.start + size[p.job] / speed[p.machine] for p in st.placements]
    ev = _merged_events([0.0, *ends, *(c + rho for c in ends)])
    hist = st.clock_history
    if len(hist) > len(ev):
        raise SchedulerInvariantError("clock advanced past the event set")
    for want, got in zip(ev, hist):
        if abs(want - got) > 10 * TOL:
            raise SchedulerInvariantError(f"clock visited {got}, expected event {want}")

    return Schedule(tuple(st.placements))
