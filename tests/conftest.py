"""Shared corpus builders and references for the test suite."""

import random

from delaysched import Job, Machine, Placement, Schedule, make_instance
from delaysched.instance import (
    Instance,
    gen_layered_gap,
    gen_random_dag,
    topological_order,
    transitive_predecessors,
)
from delaysched.lp import SEPARATION_TOL


def tiny_instance(seed, n_max=5, m_max=2, rho_choices=(0.5, 1.0, 4.0)):
    """Seeded random instance at oracle scale."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    rho = rng.choice(rho_choices)
    return gen_random_dag(
        n, m, rng.uniform(0.1, 0.7), (1.0, 3.0), (0.4, 1.0), rho, seed=seed + 1000
    )


def mid_instance(seed, n_max=40, m_max=8, rho_choices=(1.0, 4.0, 16.0)):
    """Seeded random instance at pipeline scale (mixed sizes and speeds)."""
    rng = random.Random(seed)
    n = rng.randint(4, n_max)
    m = rng.randint(1, m_max)
    rho = rng.choice(rho_choices)
    return gen_random_dag(
        n, m, rng.uniform(0.05, 0.5), (1.0, 5.0), (0.2, 1.0), rho, seed=seed + 2000
    )


def slow_machine_instance(seed, n_max=10):
    """Instance guaranteed to contain at least one sub-threshold machine."""
    rng = random.Random(seed)
    base = gen_random_dag(
        rng.randint(2, n_max), 3, rng.uniform(0.1, 0.5), (1.0, 3.0), (0.8, 1.0),
        rng.choice((1.0, 4.0)), seed=seed + 3000,
    )
    machines = list(base.machines) + [Machine("crawl", base.machines[-1].speed / 20.0)]
    return make_instance(base.jobs, machines, base.edges, base.rho)


# (a, b) of :func:`rescaled`: each moves times by 2^(a - b), and sizes or
# speeds alone far off the unit scale
RESCALINGS = [(-40, 0), (40, 0), (0, -40), (0, 40)]


def rescaled(inst, a, b):
    """``inst`` with sizes times 2^a, speeds times 2^b and rho times 2^(a-b),
    exactly: it normalizes to the same bits, and its times are 2^(a-b) times
    the times of ``inst``."""
    return make_instance(
        [Job(j.id, j.size * 2.0**a) for j in inst.jobs],
        [Machine(mc.id, mc.speed * 2.0**b) for mc in inst.machines],
        inst.edges,
        inst.rho * 2.0 ** (a - b),
    )


def scaled_placements(sched, factor):
    """The placements of ``sched`` with every start times ``factor``."""
    return tuple(Placement(p.job, p.machine, p.start * factor) for p in sched.placements)


def by_the_rule(inst, values):
    """``x`` and ``start`` read from ``values`` by the index rule: x_{v,i} at
    ``1 + n + k*m + i`` and S_v at ``1 + k``, for job index k and machine
    index i, keyed by ids in job, then machine, order."""
    n, m = inst.n, inst.m
    x = {(v.id, mc.id): values[1 + n + k * m + i]
         for k, v in enumerate(inst.jobs) for i, mc in enumerate(inst.machines)}
    return x, {v.id: values[1 + k] for k, v in enumerate(inst.jobs)}


RULE_CASES = [
    # "a-b" and "a_b" share a model name; the machines have two speeds
    make_instance(
        [Job("a-b", 1.0), Job("a_b", 3.0), Job("c", 2.0)],
        [Machine("m-0", 0.5), Machine("m_0", 1.0)],
        [("a-b", "a_b"), ("a-b", "c")],
        2.0,
    ),
    gen_random_dag(7, 3, 0.4, (1, 4), (0.25, 1), 16.0, 5),
    gen_layered_gap(2, 2, 0),
]
RULE_CASE_IDS = ["colliding", "random", "layered"]


def fresh_copy(inst) -> Instance:
    """``inst`` with nothing cached, so a check of it reads its own numbers
    instead of a verdict inherited from the instance it was derived from."""
    return Instance(inst.jobs, inst.machines, inst.edges, inst.rho)


def everywhere_schedule(inst) -> Schedule:
    """Fully duplicated schedule: every machine runs all jobs serially."""
    order = topological_order(inst)
    placements = []
    for mc in inst.machines:
        t = 0.0
        for v in order:
            placements.append(Placement(v, mc.id, t))
            t += inst.size(v) / mc.speed
    return Schedule(tuple(placements))


def round_robin_schedule(inst, offset=0) -> Schedule:
    """No-duplication schedule cycling jobs over all machines (slow included),
    waiting out the full communication delay between cross-machine steps."""
    order = topological_order(inst)
    dpred = inst.direct_predecessors()
    frontier = {mc.id: 0.0 for mc in inst.machines}
    where, comp = {}, {}
    placements = []
    for k, v in enumerate(order):
        mc = inst.machines[(k + offset) % inst.m]
        t = frontier[mc.id]
        for u in dpred[v]:
            gap = 0.0 if where[u] == mc.id else inst.rho
            t = max(t, comp[u] + gap)
        placements.append(Placement(v, mc.id, t))
        where[v] = mc.id
        comp[v] = t + inst.size(v) / mc.speed
        frontier[mc.id] = comp[v]
    return Schedule(tuple(placements))



def reference_cuts(inst, values):
    """The cut rows of one separation round, as a loop over each job's pairs.

    ``values`` are C, S and x.  For every job v and machine index i whose row
    (4) the least z, max(0, X[v,i] - (S_v - S_u) / rho), violates by more than
    SEPARATION_TOL, in job then machine order: (v, i, {column: value}) with
    x_{v,0..i}, S_v, then S_u for the u in U = {u : X[v,i] > (S_v - S_u) /
    rho} in id order, scaled by rho s_i."""
    preds = transitive_predecessors(inst)
    n, m, rho = inst.n, inst.m, inst.rho
    col_s = {v.id: 1 + a for a, v in enumerate(inst.jobs)}
    cuts = []
    for a, v in enumerate(inst.jobs):
        us = sorted(preds[v.id])
        gap = {u: (values[col_s[v.id]] - values[col_s[u]]) / rho for u in us}
        x_sum = 0.0
        for i, mc in enumerate(inst.machines):
            x_sum += values[1 + n + a * m + i]
            load = sum(inst.size(u) * max(0.0, x_sum - gap[u]) for u in us) / (rho * mc.speed)
            if x_sum - load >= -SEPARATION_TOL:
                continue
            inside = [u for u in us if x_sum - gap[u] > 0.0]
            mass = sum(inst.size(u) for u in inside)
            row = {1 + n + a * m + j: rho * mc.speed - mass for j in range(i + 1)}
            row[col_s[v.id]] = mass / rho
            row |= {col_s[u]: -inst.size(u) / rho for u in inside}
            cuts.append((v.id, mc.id, row))
    return cuts
