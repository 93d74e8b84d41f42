"""Transform any schedule into one that runs every job exactly once.

Jobs are blocked by the phase of their first start.  Within a phase block,
jobs are split into duplication-level buckets (copy counts within a factor
1+mu, mu = 1/(2 log2 n)) and processed from most to least duplicated.  Each
bucket is drained in rounds: build the conflict graph over current sinks
(edges join sinks sharing an unscheduled in-bucket predecessor), decompose it
into low-diameter non-adjacent regions by ball growing, and run each region's
hosted subset plus its in-bucket predecessors on one hosting machine.  Rounds
are separated by one communication delay so earlier results are visible
everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .instance import TOL, Instance, _kahn, topological_order, transitive_predecessors
from .schedmodel import Placement, Schedule, phase_of, require_valid_schedule


class DedupError(AssertionError):
    """A structural guarantee of the transformation failed."""


@dataclass(frozen=True)
class BallRegion:
    center: str
    members: frozenset[str]
    radius: int


@dataclass
class Round:
    assignments: dict[str, list[str]]  # machine id -> ordered job list
    start: float = 0.0


@dataclass
class DedupPlan:
    rounds: list[Round] = field(default_factory=list)
    marked: set[str] = field(default_factory=set)
    ballgrow_stats: list[dict] = field(default_factory=list)
    bucket_count: int = 0
    fast_path: bool = False


def duplication_width(n: int) -> float:
    """Bucket width parameter mu; guarded to 1 for tiny instances."""
    if n <= 2:
        return 1.0
    return 1.0 / (2.0 * math.log2(n))


def conflict_graph(group_jobs, preds) -> dict[str, set[str]]:
    """Undirected graph over the sinks of ``group_jobs``.

    Sinks have no successor inside the group; two sinks are adjacent exactly
    when they share a predecessor inside the group.
    """
    group = set(group_jobs)
    non_sinks = set()
    for w in group:
        non_sinks |= preds[w] & group
    sinks = sorted(group - non_sinks)
    adj: dict[str, set[str]] = {v: set() for v in sinks}
    for a_pos, a in enumerate(sinks):
        pa = preds[a] & group
        for b in sinks[a_pos + 1 :]:
            if pa & preds[b]:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _ball(adj, alive, center, radius) -> set[str]:
    seen = {center}
    frontier = {center}
    for _ in range(radius):
        nxt = set()
        for v in frontier:
            nxt |= adj[v] & alive
        nxt -= seen
        if not nxt:
            break
        seen |= nxt
        frontier = nxt
    return seen


def ball_grow_decomposition(adj) -> list[BallRegion]:
    """Disjoint, pairwise non-adjacent sink sets covering at least half of H.

    Each region is the smallest ball around its center whose next hop fails
    to double it; the boundary hop is discarded, which enforces separation.
    """
    alive = set(adj)
    n_h = len(alive)
    regions: list[BallRegion] = []
    max_radius = math.ceil(math.log2(n_h)) if n_h > 1 else 0
    while alive:
        center = min(alive)
        x = 0
        while True:
            inner = _ball(adj, alive, center, x)
            outer = _ball(adj, alive, center, x + 1)
            if len(outer) <= 2 * len(inner):
                break
            x += 1
        if x > max_radius:
            raise DedupError(f"ball radius {x} exceeds log2 of {n_h}")
        regions.append(BallRegion(center, frozenset(inner), x))
        alive -= outer
    covered = sum(len(r.members) for r in regions)
    if 2 * covered < n_h:
        raise DedupError(f"ball growing covered {covered} of {n_h} sinks")
    owner = {v: k for k, r in enumerate(regions) for v in r.members}
    for v, k in owner.items():
        for w in adj[v]:
            if w in owner and owner[w] != k:
                raise DedupError(f"regions of {v} and {w} are adjacent")
    return regions


def deduplicate_schedule(inst: Instance, sched: Schedule) -> Schedule:
    out, _ = dedup_with_plan(inst, sched)
    return out


def dedup_with_plan(inst: Instance, sched: Schedule) -> tuple[Schedule, DedupPlan]:
    require_valid_schedule(inst, sched)
    plan = DedupPlan()
    if all(count == 1 for count in sched.multiplicity().values()):
        plan.fast_path = True
        return sched, plan

    rho = inst.rho
    if rho <= 0:
        # communication is free, so the earliest-completing copy of each job
        # serves every consumer; simply drop the rest
        plan.fast_path = True
        best: dict[str, Placement] = {}
        for p in sched.placements:
            if p.job not in best or p.end(inst) < best[p.job].end(inst):
                best[p.job] = p
        return Schedule(tuple(best[j.id] for j in inst.jobs)), plan
    preds = transitive_predecessors(inst)
    topo_pos = {v: k for k, v in enumerate(topological_order(inst))}
    mu = duplication_width(inst.n)

    # Block jobs by the phase of their first start.
    first_start: dict[str, float] = {}
    for p in sched.placements:
        if p.job not in first_start or p.start < first_start[p.job]:
            first_start[p.job] = p.start
    blocks: dict[int, set[str]] = {}
    for v, t in first_start.items():
        blocks.setdefault(phase_of(t, rho), set()).add(v)

    # Copies of v inside its block's phase, and which span past the phase end.
    hosts: dict[str, set[str]] = {v: set() for v in first_start}
    for p in sched.placements:
        if phase_of(p.start, rho) == phase_of(first_start[p.job], rho):
            hosts[p.job].add(p.machine)
            if p.end(inst) > (phase_of(p.start, rho) + 1) * rho + TOL:
                plan.marked.add(p.job)

    placements: list[Placement] = []
    cursor = 0.0

    def run_round(assign: dict[str, list[str]]):
        nonlocal cursor
        start = cursor + rho
        plan.rounds.append(Round(assignments=assign, start=start))
        end = start
        for mid, jobs in assign.items():
            t = start
            for v in jobs:
                placements.append(Placement(v, mid, t))
                t += inst.size(v) / inst.speed(mid)
            end = max(end, t)
        cursor = end

    def spanning_last(v: str):
        # spanning (marked) jobs as late as their successors allow
        return (v in plan.marked, topo_pos[v])

    for phase in sorted(blocks):
        block = blocks[phase]
        bucket_of: dict[str, int] = {}
        for v in block:
            count = len(hosts[v])
            bucket_of[v] = int(math.floor(math.log(count) / math.log(1.0 + mu) + 1e-9))
        for v in block:
            for u in preds[v] & block:
                if bucket_of[u] < bucket_of[v]:
                    raise DedupError(
                        f"predecessor {u} less duplicated than {v} in one phase"
                    )
        buckets: dict[int, set[str]] = {}
        for v, r in bucket_of.items():
            buckets.setdefault(r, set()).add(v)
        plan.bucket_count = max(plan.bucket_count, len(buckets))

        for r in sorted(buckets, reverse=True):
            remaining = set(buckets[r])
            while remaining:
                adj = conflict_graph(remaining, preds)
                regions = ball_grow_decomposition(adj)
                plan.ballgrow_stats.append(
                    {
                        "sinks": len(adj),
                        "covered": sum(len(rg.members) for rg in regions),
                        "regions": len(regions),
                        "max_radius": max((rg.radius for rg in regions), default=0),
                    }
                )
                assign: dict[str, list[str]] = {}
                scheduled: set[str] = set()
                for rg in regions:
                    # most members hosted wins; ties prefer idle machines
                    machine = min(
                        hosts[rg.center],
                        key=lambda mid: (
                            -sum(1 for u in rg.members if mid in hosts[u]),
                            len(assign.get(mid, ())),
                            mid,
                        ),
                    )
                    hosted = {u for u in rg.members if machine in hosts[u]}
                    closure = set(hosted)
                    for u in hosted:
                        closure |= preds[u] & remaining
                    for v in closure:
                        if machine not in hosts[v]:
                            raise DedupError(
                                f"{v} not hosted with its dependents on {machine}"
                            )
                    if closure & scheduled:
                        raise DedupError("regions overlap inside one round")
                    order = _kahn({v: preds[v] & closure for v in closure}, spanning_last)
                    if len(order) != len(closure):
                        raise DedupError("cycle while ordering a round")
                    assign.setdefault(machine, []).extend(order)
                    scheduled |= closure
                if not scheduled:
                    raise DedupError("round made no progress")
                run_round(assign)
                remaining -= scheduled

    return Schedule(tuple(placements)), plan
