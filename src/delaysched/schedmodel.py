"""Schedules over an instance: validation, makespan, chain and phase analysis.

A schedule is a multiset of (job, machine, start) placements; a job may be
duplicated across machines but appears at most once per machine.  Analysis
splits time into half-open phases [tau*rho, (tau+1)*rho) and classifies each
phase as chain, load, or height.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .instance import (
    TOL, CodecError, Instance, _json_document, _number, _objects, _string,
    transitive_predecessors,
)

LONG_FACTOR = 8.0  # a placement is long when its execution time exceeds 8*rho
MAX_PHASES = 1_000_000  # phase analysis keeps a few lists of this length per machine


@dataclass(frozen=True)
class Placement:
    job: str
    machine: str
    start: float

    def end(self, inst: Instance) -> float:
        return self.start + inst.size(self.job) / inst.speed(self.machine)


@dataclass(frozen=True)
class Schedule:
    placements: tuple[Placement, ...]

    def by_machine(self) -> dict[str, list[Placement]]:
        return {mc: [self.placements[k] for k in lst] for mc, lst in _by_machine(self).items()}

    def multiplicity(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for p in self.placements:
            out[p.job] = out.get(p.job, 0) + 1
        return out


def makespan(inst: Instance, sched: Schedule) -> float:
    return max(_ends(inst, sched), default=0.0)


def _ends(inst: Instance, sched: Schedule) -> list[float]:
    """Each placement's end, aligned with ``sched.placements``: the expression
    of :meth:`Placement.end`, evaluated once per placement."""
    size, speed = inst._sizes, inst._speeds
    return [p.start + size[p.job] / speed[p.machine] for p in sched.placements]


def _by_machine(sched: Schedule) -> dict[str, list[int]]:
    """Indices into ``sched.placements`` per machine, in order of first
    appearance, each list sorted by (start, job): :meth:`Schedule.by_machine`
    by index."""
    placements = sched.placements
    out: dict[str, list[int]] = {}
    for k, p in enumerate(placements):
        out.setdefault(p.machine, []).append(k)
    for lst in out.values():
        lst.sort(key=lambda k: (placements[k].start, placements[k].job))
    return out


def phase_of(t: float, rho: float) -> int:
    """Index of the half-open phase [tau*rho, (tau+1)*rho) holding time t."""
    return int(math.floor(t / rho + TOL))


@dataclass(frozen=True)
class ScheduleReport:
    valid: bool
    makespan: float
    violations: tuple[str, ...]


def validate_schedule(inst: Instance, sched: Schedule) -> ScheduleReport:
    """Check coverage, per-machine disjointness, and precedence with delay.

    For every edge (u, v) and placement of v on machine i starting at t, some
    copy of u must complete on i by t, or on another machine by t - rho.
    Times are compared with ``inst._time_tol``.
    """
    tol = inst._time_tol
    bad: list[str] = []
    placed_jobs = set()
    for p in sched.placements:
        if p.job not in inst._sizes:
            bad.append(f"unknown job {p.job}")
        if p.machine not in inst._speeds:
            bad.append(f"unknown machine {p.machine}")
        if not math.isfinite(p.start):
            bad.append(f"non-finite start for {p.job} on {p.machine}")
        elif p.start < -tol:
            bad.append(f"negative start for {p.job} on {p.machine}")
        placed_jobs.add(p.job)
    if bad:
        return ScheduleReport(False, 0.0, tuple(bad))

    for j in inst.jobs:
        if j.id not in placed_jobs:
            bad.append(f"job {j.id} never placed")

    placements, ends = sched.placements, _ends(inst, sched)
    for mc, lst in _by_machine(sched).items():
        seen = set()
        for k in lst:
            job = placements[k].job
            if job in seen:
                bad.append(f"job {job} placed twice on machine {mc}")
            seen.add(job)
        for a, b in zip(lst, lst[1:]):
            if placements[b].start < ends[a] - tol:
                bad.append(f"overlap on {mc}: {placements[a].job} and {placements[b].job}")

    # Completion lookup: per job, completions on each machine and the
    # earliest completion anywhere; and each job's placements in order.
    comp: dict[str, dict[str, float]] = {}
    copies: dict[str, list[Placement]] = {}
    for p, end in zip(placements, ends):
        on = comp.setdefault(p.job, {})
        on[p.machine] = min(on.get(p.machine, math.inf), end)
        copies.setdefault(p.job, []).append(p)
    for a, b in inst.edges:
        if a not in comp:
            continue
        for p in copies.get(b, ()):
            if not comp[a].get(p.machine, math.inf) > p.start + tol:
                continue  # a copy on the same machine completes in time
            other = min(
                (t for mc, t in comp[a].items() if mc != p.machine), default=math.inf
            )
            if other > p.start - inst.rho + tol:
                bad.append(
                    f"delay violation: {b} on {p.machine} at {p.start:.6g} "
                    f"without usable copy of {a}"
                )
    return ScheduleReport(not bad, max(ends, default=0.0), tuple(bad))


def require_valid_schedule(inst: Instance, sched: Schedule) -> None:
    """Raise ``ValueError("invalid schedule: ...")`` with the first three violations."""
    report = validate_schedule(inst, sched)
    if not report.valid:
        raise ValueError(f"invalid schedule: {'; '.join(report.violations[:3])}")


# ---------------------------------------------------------------------------
# Chain construction and phase classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """Backward chain of long placements; links[0] completes last."""

    links: tuple[Placement, ...]
    windows: tuple[frozenset[str], ...]  # jobs completing in each link window


def _long(inst: Instance, sched: Schedule) -> list[int]:
    """Indices into ``sched.placements`` of the long placements: execution
    time above ``LONG_FACTOR * rho``."""
    thr = LONG_FACTOR * inst.rho + inst._time_tol
    size, speed = inst._sizes, inst._speeds
    return [
        k
        for k, p in enumerate(sched.placements)
        if size[p.job] / speed[p.machine] > thr
    ]


def build_chain(inst: Instance, sched: Schedule) -> Chain:
    """Chain of long placements linked through predecessors, plus the sets of
    jobs whose completions fall between consecutive links."""
    preds = transitive_predecessors(inst)
    placements, ends, tol = sched.placements, _ends(inst, sched), inst._time_tol
    pool = _long(inst, sched)

    def latest(ks):
        return max(ks, key=lambda k: (ends[k], placements[k].job, placements[k].machine))

    links: list[int] = []
    if pool:
        links.append(latest(pool))
        while True:
            before = preds[placements[links[-1]].job]
            cand = [k for k in pool if placements[k].job in before]
            if not cand:
                break
            links.append(latest(cand))

    completions: dict[str, list[float]] = {}
    for p, end in zip(placements, ends):
        completions.setdefault(p.job, []).append(end)

    windows: list[frozenset[str]] = []
    if not links:
        windows.append(frozenset(j.id for j in inst.jobs))
    else:
        first_end = ends[links[0]]
        windows.append(
            frozenset(v for v, ts in completions.items() if max(ts) >= first_end - tol)
        )
        for q in range(len(links) - 1):
            v_link = placements[links[q]]
            lo, hi = ends[links[q + 1]], v_link.start
            members = {v_link.job}
            for u in preds[v_link.job]:
                if any(lo - tol <= t <= hi + tol for t in completions.get(u, [])):
                    members.add(u)
            windows.append(frozenset(members))
        windows.append(frozenset(preds[placements[links[-1]].job]))
    return Chain(tuple(placements[k] for k in links), tuple(windows))


def phase_count(inst: Instance, sched: Schedule) -> int:
    """Phases the makespan spans, at least 1; ``ValueError`` for ``rho <= 0``
    and above ``MAX_PHASES``, before anything is allocated per phase."""
    if inst.rho <= 0:
        raise ValueError("phases are undefined for rho <= 0")
    spans = makespan(inst, sched) / inst.rho  # inf once rho is tiny enough
    if not spans - TOL <= MAX_PHASES:
        raise ValueError(
            f"the makespan spans {spans:.3g} phases of length rho; "
            f"phase analysis stops above {MAX_PHASES:,}"
        )
    return max(1, math.ceil(spans - TOL))


def _phase_sums(rho: float, spans, count: int) -> list[float]:
    """For each phase tau < count, the sum over the ``(start, end)`` intervals
    ``spans`` (in order) of their overlap with [tau*rho, (tau+1)*rho).

    One pass: an interval visits only the phases it spans, widened by one on
    each side against rounding in the floor.  The phases it skips would add an
    overlap of 0.0, which leaves a float sum unchanged, so each total is the one
    a sum over every interval gives, bit for bit.  Only positive overlaps are
    kept, for the same reason.  The totals come from ``sum`` rather than ``+=``
    so that this holds where ``sum`` compensates rounding (Python 3.12 and
    later).
    """
    terms: list[list[float]] = [[] for _ in range(count)]
    for a, b in spans:
        for tau in range(max(0, math.floor(a / rho) - 1), min(count, math.floor(b / rho) + 2)):
            lo, hi = tau * rho, (tau + 1) * rho
            t = (b if b < hi else hi) - (a if a > lo else lo)  # min(hi, b) - max(lo, a)
            if t > 0.0:
                terms[tau].append(t)
    return [sum(ts) for ts in terms]


def classify_phases(inst: Instance, sched: Schedule, chain: Chain):
    """Label each phase chain / load / height.

    A phase is chain if chain links execute for at least rho/2 inside it;
    otherwise load if every machine of some group of
    :func:`partition_machine_groups` is busy (>= rho/2 execution) in it;
    otherwise height.
    """
    count = phase_count(inst, sched)
    from .grouping import partition_machine_groups

    rho, placements, ends = inst.rho, sched.placements, _ends(inst, sched)
    half = rho / 2 - inst._time_tol
    chain_time = _phase_sums(rho, [(p.start, p.end(inst)) for p in chain.links], count)
    by_machine = _by_machine(sched)
    busy = {}
    for mc in inst.machines:
        spans = [(placements[k].start, ends[k]) for k in by_machine.get(mc.id, [])]
        busy[mc.id] = [t >= half for t in _phase_sums(rho, spans, count)]
    # load[tau]: every machine of some group is busy in phase tau
    load = [False] * count
    for g in partition_machine_groups(inst):
        cols = zip(*(busy[i] for i in g.machine_ids))
        load = [was or all(col) for was, col in zip(load, cols)]
    return ["chain" if c >= half else "load" if l else "height" for c, l in zip(chain_time, load)]


@dataclass(frozen=True)
class AnalysisReport:
    makespan: float
    chain: tuple[tuple[str, str], ...]
    phase_labels: tuple[str, ...]
    phase_counts: dict[str, int]
    windows: tuple[frozenset[str], ...]
    diagnostics: dict[str, dict]

    def to_json(self) -> str:
        doc = {
            "makespan": self.makespan,
            "chain": [list(link) for link in self.chain],
            "phase_labels": list(self.phase_labels),
            "phase_counts": self.phase_counts,
            "window_sizes": [len(w) for w in self.windows],
            "diagnostics": self.diagnostics,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


class LemmaViolation(AssertionError):
    """An inequality with a proven explicit constant failed on real data."""


def lemma_diagnostics(inst, lp_sol, assignment, sched, eta, strict=True):
    """Measured slack for every proven inequality, over one pipeline run.

    Checks with explicit proven constants raise LemmaViolation when they fail
    (strict mode); asymptotic bounds are reported with measured constants only.
    ``eta`` is the scheduler's, as :func:`scheduler.resolve_eta` returned it.
    """
    from .grouping import band_bound_check, capacity_monotonic, load_bound_check

    rho = inst.rho
    c_lp = lp_sol.objective
    checks: dict[str, dict] = {}

    checks["band_bound"] = band_bound_check(inst, assignment)
    checks["load_bound"] = load_bound_check(inst, lp_sol, assignment)
    checks["capacity_monotonic"] = {
        "ok": capacity_monotonic(inst, assignment),
        "asserted": True,
    }

    # Highest band times rho against 4*(C_LP + rho).
    r_max = max(assignment.bands.values(), default=1)
    checks["band_count"] = {
        "measured": r_max * rho,
        "bound": 4.0 * (c_lp + rho) + 1e-6,
        "ok": r_max * rho <= 4.0 * (c_lp + rho) + 1e-6,
        "asserted": True,
    }

    # eta-load: per group suffix, scheduled work at most eta times assigned work.
    placements, span = sched.placements, makespan(inst, sched)
    size = inst._sizes
    group_of = {mid: g.index for g in assignment.groups for mid in g.machine_ids}
    sched_load = {g.index: 0.0 for g in assignment.groups}
    for mc_id, lst in _by_machine(sched).items():
        sched_load[group_of[mc_id]] += sum(size[placements[k].job] for k in lst)
    assigned = {g.index: 0.0 for g in assignment.groups}
    for v, k in assignment.kappa.items():
        assigned[k] += inst.size(v)
    ks = sorted(sched_load)
    eta_ok, eta_worst = True, 0.0
    for k in ks:
        lhs = sum(sched_load[kk] for kk in ks if kk >= k)
        rhs = eta * sum(assigned[kk] for kk in ks if kk >= k)
        eta_worst = max(eta_worst, lhs - rhs)
        if lhs > rhs + 1e-6:
            eta_ok = False
    checks["eta_load"] = {"measured_excess": eta_worst, "ok": eta_ok, "asserted": True}

    # Long placements must sit inside their job's assigned group.
    pool = _long(inst, sched)
    long_ok = True
    for k in pool:
        if group_of[placements[k].machine] != assignment.kappa[placements[k].job]:
            long_ok = False
    checks["long_copy_group"] = {"ok": long_ok, "asserted": True}

    chain = build_chain(inst, sched)
    labels = classify_phases(inst, sched, chain) if rho > 0 else []
    counts = {lab: labels.count(lab) for lab in ("chain", "load", "height")}

    gamma_of = {g.index: g.gamma for g in assignment.groups}
    chain_time = sum(
        inst.size(p.job) / gamma_of[assignment.kappa[p.job]] for p in chain.links
    )
    checks["chain_time"] = {
        "measured": chain_time,
        "bound": 8.0 * c_lp + 1e-6,
        "ok": chain_time <= 8.0 * c_lp + 1e-6,
        "asserted": True,
    }
    checks["chain_phase_count"] = {
        "measured": counts.get("chain", 0),
        "reference": 4.0 * c_lp / rho + 2 if rho > 0 else None,
        "asserted": False,
    }

    # the load bound's sum of assigned work over group capacity
    load_bound_val = (2.0 * eta / rho) * checks["load_bound"]["measured"] + 1 if rho > 0 else None
    checks["load_phase_count"] = {
        "measured": counts.get("load", 0),
        "bound": load_bound_val,
        "ok": rho <= 0 or counts.get("load", 0) <= load_bound_val,
        "asserted": True,
    }

    k_groups = len(assignment.groups)
    log_eta_rho = math.log(rho) / math.log(eta) if rho > 1 and eta > 1 else None
    ref = k_groups * r_max * log_eta_rho if log_eta_rho else None
    checks["height_phase_count"] = {
        "measured": counts.get("height", 0),
        "reference": ref,
        "measured_constant": (counts.get("height", 0) / ref) if ref else None,
        "asserted": False,
    }

    if strict:
        failed = [name for name, c in checks.items() if c.get("asserted") and not c.get("ok", True)]
        if failed:
            raise LemmaViolation(f"asserted checks failed: {', '.join(failed)}")

    return AnalysisReport(
        makespan=span,
        chain=tuple((p.job, p.machine) for p in chain.links),
        phase_labels=tuple(labels),
        phase_counts=counts,
        windows=chain.windows,
        diagnostics=checks,
    )


# ---------------------------------------------------------------------------
# Schedule codec and Gantt export.
# ---------------------------------------------------------------------------


def schedule_to_json(sched: Schedule) -> str:
    doc = {
        "placements": [
            {"job": p.job, "machine": p.machine, "start": p.start}
            for p in sched.placements
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def schedule_from_json(text: str) -> Schedule:
    doc = _json_document(text)
    if not isinstance(doc, dict):
        raise CodecError("schedule document must be a JSON object")
    placements = [
        Placement(_string(item, "job", at), _string(item, "machine", at),
                  _number(item, "start", at))
        for at, item in _objects(doc, "placements", "schedule document")
    ]
    return Schedule(tuple(placements))


def gantt_rows(inst: Instance, sched: Schedule) -> dict[str, list[dict]]:
    """Rows keyed by machine id, each a list of {job, start, end} intervals."""
    rows: dict[str, list[dict]] = {mc.id: [] for mc in inst.machines}
    for mc_id, lst in sched.by_machine().items():
        rows[mc_id] = [{"job": p.job, "start": p.start, "end": p.end(inst)} for p in lst]
    return rows
