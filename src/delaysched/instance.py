"""Instance data model: jobs, machines, DAG edges, and a fixed communication delay.

Provides validation, transitive-predecessor computation, normalization to
(min size, max speed) = (1, 1), seeded instance generators, and the JSON codec.
Every tolerance is ``TOL`` on the normalized scale: times use
``Instance._time_tol``, sizes and masses ``TOL`` times the smallest size, and
speeds and capacities ``TOL`` times the fastest speed.
An instance is checked and ordered once, on first use; the copies that
normalization and slow-machine elimination derive from it inherit its
verdict, order and closure (:func:`_derive`).
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections.abc import Collection, Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

TOL = 1e-9


@dataclass(frozen=True)
class Job:
    id: str
    size: float


@dataclass(frozen=True)
class Machine:
    id: str
    speed: float


@dataclass(frozen=True)
class Instance:
    """A scheduling instance: DAG of jobs, related machines, delay ``rho``.

    Machines are expected in nondecreasing speed order (ties by id); the
    position in that order is the machine index used by the relaxation.
    """

    jobs: tuple[Job, ...]
    machines: tuple[Machine, ...]
    edges: tuple[tuple[str, str], ...]
    rho: float

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def m(self) -> int:
        return len(self.machines)

    # lookup maps, the order, the verdict, the time tolerance and the closure
    # built on first use; cached_property stores them in the instance
    # __dict__, outside the dataclass fields, so they take no part in
    # equality or hashing
    @cached_property
    def _sizes(self) -> dict[str, float]:
        return {j.id: j.size for j in self.jobs}

    @cached_property
    def _speeds(self) -> dict[str, float]:
        return {mc.id: mc.speed for mc in self.machines}

    @cached_property
    def _positions(self) -> dict[str, int]:
        # reversed so a duplicated id maps to its first position
        return {mc.id: pos for pos, mc in reversed(list(enumerate(self.machines, start=1)))}

    @cached_property
    def _order(self) -> tuple[str, ...]:
        # the default-key Kahn order; shorter than the distinct job ids on a cycle
        return tuple(_kahn(self.direct_predecessors()))

    @cached_property
    def _report(self) -> ValidationReport:
        return validate_instance(self)

    @cached_property
    def _time_tol(self) -> float:
        # TOL on the normalized scale, whose time unit is min size / max speed
        # (TOL itself for a rejected instance): every comparison of two times
        # uses it, so no verdict changes when sizes, rho and times are scaled
        # by a power of two
        if not self._report.ok:
            return TOL
        return TOL * min(j.size for j in self.jobs) / max(mc.speed for mc in self.machines)

    @cached_property
    def _closure(self) -> Mapping[str, frozenset[str]]:
        require_valid_instance(self)
        pred = self.direct_predecessors()
        closure: dict[str, frozenset[str]] = {}
        for v in self._order:
            closure[v] = frozenset(pred[v]).union(*(closure[u] for u in pred[v]))
        return MappingProxyType(closure)

    def size(self, job_id: str) -> float:
        return self._sizes[job_id]

    def speed(self, machine_id: str) -> float:
        return self._speeds[machine_id]

    def machine_index(self, machine_id: str) -> int:
        """1-based position of a machine in the speed-sorted machine list."""
        return self._positions[machine_id]

    def successors(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {j.id: [] for j in self.jobs}
        for a, b in self.edges:
            succ[a].append(b)
        return succ

    def direct_predecessors(self) -> dict[str, list[str]]:
        pred: dict[str, list[str]] = {j.id: [] for j in self.jobs}
        for a, b in self.edges:
            pred[b].append(a)
        return pred


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ScaleRecord:
    """Scaling applied by :func:`normalize_instance`; allows exact inversion.

    Sizes were multiplied by ``alpha``, speeds by ``beta``, and all times
    (including rho) by ``alpha / beta``.
    """

    alpha: float
    beta: float

    @property
    def time_scale(self) -> float:
        return self.alpha / self.beta

    def time_to_original(self, t: float) -> float:
        return t / self.time_scale

    def time_to_normalized(self, t: float) -> float:
        return t * self.time_scale


def make_instance(jobs, machines, edges, rho) -> Instance:
    """Build an Instance with machines sorted by (speed, id)."""
    ms = tuple(sorted(machines, key=lambda mc: (mc.speed, mc.id)))
    return Instance(jobs=tuple(jobs), machines=ms, edges=tuple(edges), rho=float(rho))


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every Instance invariant; violations are returned, not raised."""
    bad: list[str] = []
    job_ids = [j.id for j in inst.jobs]
    mach_ids = [mc.id for mc in inst.machines]
    if len(set(job_ids)) != len(job_ids):
        bad.append("duplicate job ids")
    if len(set(mach_ids)) != len(mach_ids):
        bad.append("duplicate machine ids")
    if not inst.jobs:
        bad.append("no jobs")
    if not inst.machines:
        bad.append("no machines")
    before_numbers = len(bad)
    for j in inst.jobs:
        if not math.isfinite(j.size):
            bad.append(f"job {j.id}: size must be finite")
        elif not (j.size > 0):
            bad.append(f"job {j.id}: size must be > 0")
    for mc in inst.machines:
        if not math.isfinite(mc.speed):
            bad.append(f"machine {mc.id}: speed must be finite")
        elif not (mc.speed > 0):
            bad.append(f"machine {mc.id}: speed must be > 0")
    if not math.isfinite(inst.rho):
        bad.append("rho must be finite")
    elif inst.rho < 0:
        bad.append("rho must be >= 0")
    numbers_ok = len(bad) == before_numbers and inst.jobs and inst.machines
    if numbers_ok:
        bad += _normalization_overflows(inst)
    # judged on speed / fastest, as normalized, and on every pair: with a
    # tolerance, a sorted list can have an unsorted subsequence (a filtered one)
    beta = _scale_factors(inst)[1] if numbers_ok and len(bad) == before_numbers else 1.0
    scaled = [(mc.speed * beta, mc.id) for mc in inst.machines]
    if any(a > b + TOL or (abs(a - b) <= TOL and ida > idb)
           for (a, ida), (b, idb) in combinations(scaled, 2)):
        bad.append("machines not sorted by nondecreasing speed (ties by id)")
    known = set(job_ids)
    for a, b in inst.edges:
        if a not in known or b not in known:
            bad.append(f"dangling edge ({a}, {b})")
    if not any(v.startswith("dangling") for v in bad) and len(inst._order) < len(inst._sizes):
        bad.append("cycle in precedence graph")
    return ValidationReport(tuple(bad))


def _scale_factors(inst: Instance) -> tuple[float, float]:
    """``alpha`` and ``beta`` of :func:`normalize_instance`."""
    return 1.0 / min(j.size for j in inst.jobs), 1.0 / max(mc.speed for mc in inst.machines)


def _normalization_overflows(inst: Instance) -> list[str]:
    """Numbers :func:`normalize_instance` would scale out of the float range,
    for finite positive sizes and speeds and a finite non-negative rho.

    The time scale ``alpha / beta`` must have a finite inverse, ``min size /
    max speed``: below about 5e-309 :meth:`ScaleRecord.time_to_original`
    would divide by 0 or map every time back to infinity.  With that inverse
    finite, a positive rho that normalizes to 0 was below 1e-15 (the smallest
    positive float times the largest), far under TOL, so it is accepted.  An
    infinite time scale is accepted too: it maps times back to 0, and a time
    of TOL or more would normalize to over 1e299, far beyond the coefficients
    HiGHS accepts.
    """
    alpha, beta = _scale_factors(inst)
    if not math.isfinite(alpha):
        return ["1 / min job size is not finite"]
    if not math.isfinite(beta):
        return ["1 / max machine speed is not finite"]
    bad = [f"job {j.id}: size / min size is not finite"
           for j in inst.jobs if not math.isfinite(j.size * alpha)]
    bad += [f"machine {mc.id}: speed / max speed is 0"
            for mc in inst.machines if not mc.speed * beta > 0]
    if not math.isfinite(beta / alpha):
        bad.append("min size / max speed is not finite")
    if not math.isfinite(inst.rho * alpha / beta):
        bad.append("rho * max speed / min size is not finite")
    return bad


def require_valid_instance(inst: Instance) -> None:
    """Raise ``ValueError("invalid instance: ...")`` listing every violation."""
    report = inst._report
    if not report.ok:
        raise ValueError(f"invalid instance: {'; '.join(report.violations)}")


def _kahn(preds: Mapping[str, Collection[str]], key=None) -> list[str]:
    """Kahn's topological sort of the keys of ``preds``.

    ``preds[v]`` holds the ids that must come before ``v``, each itself a key
    (a repeated id counts as often as it is listed).  Among ready ids the
    smallest ``(key(v), v)`` goes first.  Iterative, so any depth works; on a
    cycle it returns the prefix it could order, shorter than ``preds``.
    """
    key = key or (lambda v: v)
    indeg = {v: len(us) for v, us in preds.items()}
    succ: dict[str, list[str]] = {v: [] for v in preds}
    for v, us in preds.items():
        for u in us:
            succ[u].append(v)
    heap = [(key(v), v) for v, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    out: list[str] = []
    while heap:
        _, v = heapq.heappop(heap)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (key(w), w))
    return out


def topological_order(inst: Instance, key=None) -> list[str]:
    """Topological order of job ids; among ready jobs, smallest ``key`` first."""
    out = list(inst._order) if key is None else _kahn(inst.direct_predecessors(), key)
    if len(out) != len(inst._sizes):  # one entry per distinct id
        raise ValueError("precedence graph has a cycle")
    return out


def transitive_predecessors(inst: Instance) -> Mapping[str, frozenset[str]]:
    """Exact transitive closure of the edge relation, keyed by job id.

    Validated and built on the first call per instance; every call returns the
    same read-only mapping.
    """
    return inst._closure


def _derive(inst: Instance, **fields) -> Instance:
    """``inst`` with ``fields`` replaced, keeping every job id and edge and
    whichever of the order, closure and verdict ``inst`` has computed; callers
    keep each speed's ratio to the fastest, on which machine order is judged."""
    out = replace(inst, **fields)
    out.__dict__.update({name: inst.__dict__[name] for name in ("_order", "_closure", "_report")
                         if name in inst.__dict__})
    return out


def normalize_instance(inst: Instance) -> tuple[Instance, ScaleRecord]:
    """Scale so the shortest job has size 1 and the fastest machine speed 1.

    All execution times (size/speed) scale uniformly by ``alpha/beta``, and
    rho is scaled by the same factor so behavior is preserved exactly.  A
    valid instance normalizes to finite sizes, positive speeds and finite rho:
    :func:`validate_instance` rejects one whose numbers would leave that range.
    """
    alpha, beta = _scale_factors(inst)
    if alpha == 1.0 and beta == 1.0:
        return inst, ScaleRecord(1.0, 1.0)
    jobs = tuple(Job(j.id, j.size * alpha) for j in inst.jobs)
    machines = tuple(Machine(mc.id, mc.speed * beta) for mc in inst.machines)
    rho = inst.rho * alpha / beta
    return _derive(inst, jobs=jobs, machines=machines, rho=rho), ScaleRecord(alpha, beta)


# ---------------------------------------------------------------------------
# Generators.  All use random.Random (Mersenne Twister) seeded explicitly, so
# corpora are reproducible across runs and platforms.
# ---------------------------------------------------------------------------


def gen_random_dag(
    n: int,
    m: int,
    edge_prob: float,
    size_range: tuple[float, float],
    speed_range: tuple[float, float],
    rho: float,
    seed: int,
) -> Instance:
    """Random DAG: edge (i, j), i < j in a shuffled topological order, w.p. edge_prob."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    names = [f"j{k}" for k in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                edges.append((order[a], order[b]))
    jobs = [Job(v, rng.uniform(*size_range)) for v in names]
    machines = [Machine(f"m{k}", rng.uniform(*speed_range)) for k in range(m)]
    return make_instance(jobs, machines, edges, rho)


def gen_layered_gap(L: int, d: int, seed: int) -> Instance:
    """Layered unit instance used for relaxation-gap experiments.

    rho = d**L, m = rho unit machines, L layers of n = m*rho/L unit jobs, and
    each layer-l job (l < L) depends on d distinct random jobs one layer up.
    For d = 1 the power formula degenerates below L, so rho = max(d**L, L)
    keeps the per-layer count m*rho/L integral in the smallest cases.
    """
    if L < 2 or d < 1:
        raise ValueError("need L >= 2 and d >= 1")
    rho = max(d**L, L)
    m = rho
    per_layer, rem = divmod(m * rho, L)
    if rem != 0:
        raise ValueError(f"m*rho/L = {m * rho}/{L} is not an integer")
    if d > per_layer:
        raise ValueError("layer too small to pick d distinct predecessors")
    rng = random.Random(seed)
    jobs = []
    layer_ids: dict[int, list[str]] = {}
    for layer in range(1, L + 1):
        ids = [f"L{layer}_j{k}" for k in range(per_layer)]
        layer_ids[layer] = ids
        jobs.extend(Job(v, 1.0) for v in ids)
    edges = []
    for layer in range(1, L):
        for v in layer_ids[layer]:
            for u in rng.sample(layer_ids[layer + 1], d):
                edges.append((u, v))
    machines = [Machine(f"m{k}", 1.0) for k in range(m)]
    return make_instance(jobs, machines, edges, float(rho))


def gen_binary_tree(rho_exp: int) -> Instance:
    """Complete binary out-tree with rho levels plus a root-predecessor job.

    All jobs are unit size; there are 2**(rho-1) leaves and as many unit
    machines.  rho_exp doubles as the communication delay.
    """
    if rho_exp < 1 or rho_exp != int(rho_exp):
        raise ValueError("rho_exp must be an integer >= 1")
    rho = int(rho_exp)
    n_tree = 2**rho - 1
    jobs = [Job("pre", 1.0)]
    edges = [("pre", "t1")]
    for k in range(1, n_tree + 1):
        jobs.append(Job(f"t{k}", 1.0))
        if 2 * k <= n_tree:
            edges.append((f"t{k}", f"t{2 * k}"))
        if 2 * k + 1 <= n_tree:
            edges.append((f"t{k}", f"t{2 * k + 1}"))
    machines = [Machine(f"m{k}", 1.0) for k in range(2 ** (rho - 1))]
    return make_instance(jobs, machines, edges, float(rho))


def binary_tree_path_schedule(inst: Instance):
    """One machine per leaf running its root-to-leaf path back to back.

    Valid for instances from :func:`gen_binary_tree`; makespan is rho + 1.
    """
    from .schedmodel import Placement, Schedule

    n_tree = sum(1 for j in inst.jobs if j.id != "pre")
    leaves = [k for k in range(1, n_tree + 1) if 2 * k > n_tree]
    placements = []
    for mc, leaf in zip(inst.machines, leaves):
        path = []
        k = leaf
        while k >= 1:
            path.append(f"t{k}")
            k //= 2
        path.append("pre")
        t = 0.0
        for v in reversed(path):
            placements.append(Placement(v, mc.id, t))
            t += inst.size(v) / mc.speed
    return Schedule(tuple(placements))


# ---------------------------------------------------------------------------
# JSON codec.  Round-trips are exact: floats are emitted with repr precision.
# ---------------------------------------------------------------------------


class CodecError(ValueError):
    """Malformed document; the message names the offending field."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise CodecError(f"missing field '{key}' in {where}")
    return doc[key]


def _number(doc: dict, key: str, where: str) -> float:
    value = _require(doc, key, where)
    # JSON numbers only (bool is its own type): no strings, no integers beyond a float
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise CodecError(f"field '{key}' in {where} must be a number")


def _string(doc: dict, key: str, where: str) -> str:
    value = _require(doc, key, where)
    if not isinstance(value, str):
        raise CodecError(f"field '{key}' in {where} must be a string")
    return value


def _array(doc: dict, key: str, where: str) -> list:
    items = _require(doc, key, where)
    if not isinstance(items, list):
        raise CodecError(f"field '{key}' in {where} must be an array")
    return items


def _objects(doc: dict, key: str, where: str) -> list[tuple[str, dict]]:
    """Entries of array field ``key``, each an object, with its location."""
    out = []
    for k, item in enumerate(_array(doc, key, where)):
        if not isinstance(item, dict):
            raise CodecError(f"{key}[{k}] must be an object")
        out.append((f"{key}[{k}]", item))
    return out


def instance_to_json(inst: Instance) -> str:
    doc = {
        "rho": inst.rho,
        "jobs": [{"id": j.id, "size": j.size} for j in inst.jobs],
        "machines": [{"id": mc.id, "speed": mc.speed} for mc in inst.machines],
        "edges": [[a, b] for a, b in inst.edges],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _json_document(text: str):
    """``json.loads(text)``, with text that is not JSON, or that nests too
    deeply for the decoder, raised as ``CodecError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise CodecError("JSON nested too deeply to decode") from None


def instance_from_json(text: str) -> Instance:
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise CodecError("instance document must be a JSON object")
    rho = _number(doc, "rho", "instance document")
    jobs = [
        Job(_string(item, "id", at), _number(item, "size", at))
        for at, item in _objects(doc, "jobs", "instance document")
    ]
    machines = [
        Machine(_string(item, "id", at), _number(item, "speed", at))
        for at, item in _objects(doc, "machines", "instance document")
    ]
    edges = []
    for k, pair in enumerate(_array(doc, "edges", "instance document")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CodecError(f"edges[{k}] must be a [from, to] pair")
        for end, job_id in enumerate(pair):
            if not isinstance(job_id, str):
                raise CodecError(f"edges[{k}][{end}] must be a job id string")
        edges.append((pair[0], pair[1]))
    return Instance(tuple(jobs), tuple(machines), tuple(edges), rho)
