"""Shared corpus builders for the test suite."""

import random
import sys

import pytest

from delaysched import Job, Machine, Placement, Schedule, make_instance
from delaysched.instance import gen_random_dag, topological_order


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


@pytest.fixture
def linprog_calls(monkeypatch):
    """Hide scipy's private HiGHS binding, as an older scipy would, so that
    ``solve_lp`` takes its ``linprog`` path; yields every ``linprog`` call's
    positional and keyword arguments."""
    import scipy.optimize  # linprog loads the binding for itself first

    real = scipy.optimize.linprog
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls
