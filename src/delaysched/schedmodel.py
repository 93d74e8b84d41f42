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

from .instance import TOL, CodecError, Instance, _number, _objects, _string, transitive_predecessors

LONG_FACTOR = 8.0  # a placement is long when its execution time exceeds 8*rho


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
        out: dict[str, list[Placement]] = {}
        for p in self.placements:
            out.setdefault(p.machine, []).append(p)
        for lst in out.values():
            lst.sort(key=lambda p: (p.start, p.job))
        return out

    def multiplicity(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for p in self.placements:
            out[p.job] = out.get(p.job, 0) + 1
        return out


def makespan(inst: Instance, sched: Schedule) -> float:
    return max((p.end(inst) for p in sched.placements), default=0.0)


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
    """
    bad: list[str] = []
    placed_jobs = set()
    for p in sched.placements:
        if p.job not in inst._sizes:
            bad.append(f"unknown job {p.job}")
        if p.machine not in inst._speeds:
            bad.append(f"unknown machine {p.machine}")
        if p.start < -TOL:
            bad.append(f"negative start for {p.job} on {p.machine}")
        placed_jobs.add(p.job)
    if bad:
        return ScheduleReport(False, 0.0, tuple(bad))

    for j in inst.jobs:
        if j.id not in placed_jobs:
            bad.append(f"job {j.id} never placed")

    for mc, lst in sched.by_machine().items():
        seen = set()
        for p in lst:
            if p.job in seen:
                bad.append(f"job {p.job} placed twice on machine {mc}")
            seen.add(p.job)
        for a, b in zip(lst, lst[1:]):
            if b.start < a.end(inst) - TOL:
                bad.append(f"overlap on {mc}: {a.job} and {b.job}")

    # Completion lookup: per job, completions on each machine and the
    # earliest completion anywhere; and each job's placements in order.
    comp: dict[str, dict[str, float]] = {}
    copies: dict[str, list[Placement]] = {}
    for p in sched.placements:
        comp.setdefault(p.job, {})[p.machine] = min(
            comp.get(p.job, {}).get(p.machine, math.inf), p.end(inst)
        )
        copies.setdefault(p.job, []).append(p)
    for a, b in inst.edges:
        if a not in comp:
            continue
        for p in copies.get(b, ()):
            same = comp[a].get(p.machine, math.inf)
            other = min(
                (t for mc, t in comp[a].items() if mc != p.machine), default=math.inf
            )
            if same > p.start + TOL and other > p.start - inst.rho + TOL:
                bad.append(
                    f"delay violation: {b} on {p.machine} at {p.start:.6g} "
                    f"without usable copy of {a}"
                )
    return ScheduleReport(not bad, makespan(inst, sched), tuple(bad))


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


def long_pairs(inst: Instance, sched: Schedule) -> list[Placement]:
    thr = LONG_FACTOR * inst.rho
    return [
        p
        for p in sched.placements
        if inst.size(p.job) / inst.speed(p.machine) > thr + TOL
    ]


def build_chain(inst: Instance, sched: Schedule) -> Chain:
    """Chain of long placements linked through predecessors, plus the sets of
    jobs whose completions fall between consecutive links."""
    preds = transitive_predecessors(inst)
    pool = long_pairs(inst, sched)
    links: list[Placement] = []
    if pool:
        cur = max(pool, key=lambda p: (p.end(inst), p.job, p.machine))
        links.append(cur)
        while True:
            cand = [p for p in pool if p.job in preds[cur.job]]
            if not cand:
                break
            cur = max(cand, key=lambda p: (p.end(inst), p.job, p.machine))
            links.append(cur)

    completions: dict[str, list[float]] = {}
    for p in sched.placements:
        completions.setdefault(p.job, []).append(p.end(inst))

    windows: list[frozenset[str]] = []
    if not links:
        windows.append(frozenset(j.id for j in inst.jobs))
    else:
        first_end = links[0].end(inst)
        windows.append(
            frozenset(v for v, ts in completions.items() if max(ts) >= first_end - TOL)
        )
        for q in range(len(links) - 1):
            v_link, nxt = links[q], links[q + 1]
            lo, hi = nxt.end(inst), v_link.start
            members = {v_link.job}
            for u in preds[v_link.job]:
                if any(lo - TOL <= t <= hi + TOL for t in completions.get(u, [])):
                    members.add(u)
            windows.append(frozenset(members))
        windows.append(frozenset(preds[links[-1].job]))
    return Chain(tuple(links), tuple(windows))


def phase_count(inst: Instance, sched: Schedule) -> int:
    if inst.rho <= 0:
        raise ValueError("phases are undefined for rho <= 0")
    ms = makespan(inst, sched)
    return max(1, math.ceil(ms / inst.rho - TOL))


def _overlap(lo: float, hi: float, a: float, b: float) -> float:
    return max(0.0, min(hi, b) - max(lo, a))


def _phase_sums(inst: Instance, placements, count: int) -> list[float]:
    """For each phase tau < count, the sum over ``placements`` (in order) of
    their overlap with [tau*rho, (tau+1)*rho).

    One pass: a placement visits only the phases its interval spans, widened by
    one on each side against rounding in the floor.  The phases it skips would
    add an overlap of 0.0, which leaves a float sum unchanged, so each total is
    the one a sum over every placement gives, bit for bit.  The totals come from
    ``sum`` rather than ``+=`` so that this holds where ``sum`` compensates
    rounding (Python 3.12 and later).
    """
    rho = inst.rho
    terms: list[list[float]] = [[] for _ in range(count)]
    for p in placements:
        a, b = p.start, p.end(inst)
        for tau in range(max(0, math.floor(a / rho) - 1), min(count, math.floor(b / rho) + 2)):
            t = _overlap(tau * rho, (tau + 1) * rho, a, b)
            if t > 0.0:
                terms[tau].append(t)
    return [sum(ts) for ts in terms]


def classify_phases(inst: Instance, sched: Schedule, chain: Chain, groups=None):
    """Label each phase chain / load / height.

    A phase is chain if chain links execute for at least rho/2 inside it;
    otherwise load if every machine of some group is busy (>= rho/2 execution)
    in it; otherwise height.
    """
    if inst.rho <= 0:
        raise ValueError("phases are undefined for rho <= 0")
    from .grouping import partition_machine_groups

    groups = groups if groups is not None else partition_machine_groups(inst)
    count = phase_count(inst, sched)
    half = inst.rho / 2 - TOL
    chain_time = _phase_sums(inst, chain.links, count)
    by_machine = sched.by_machine()
    busy = {
        mc.id: [t >= half for t in _phase_sums(inst, by_machine.get(mc.id, []), count)]
        for mc in inst.machines
    }
    labels: list[str] = []
    for tau in range(count):
        if chain_time[tau] >= half:
            labels.append("chain")
        elif any(all(busy[i][tau] for i in g.machine_ids) for g in groups):
            labels.append("load")
        else:
            labels.append("height")
    return labels


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


def lemma_diagnostics(inst, lp_sol, assignment, sched, eta=None, strict=True):
    """Measured slack for every proven inequality, over one pipeline run.

    Checks with explicit proven constants raise LemmaViolation when they fail
    (strict mode); asymptotic bounds are reported with measured constants only.
    """
    from .grouping import band_bound_check, capacity_monotonic, load_bound_check
    from .scheduler import default_eta

    eta = eta if eta is not None else default_eta(inst.rho)
    rho = inst.rho
    c_lp = lp_sol.objective
    checks: dict[str, dict] = {}

    checks["band_bound"] = band_bound_check(inst, assignment)
    checks["load_bound"] = load_bound_check(inst, lp_sol, assignment)
    checks["capacity_monotonic"] = {
        "ok": capacity_monotonic(assignment),
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
    group_of = {mid: g.index for g in assignment.groups for mid in g.machine_ids}
    sched_load = {g.index: 0.0 for g in assignment.groups}
    for mc_id, lst in sched.by_machine().items():
        sched_load[group_of[mc_id]] += sum(inst.size(p.job) for p in lst)
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
    long_ok = True
    for p in long_pairs(inst, sched):
        if group_of[p.machine] != assignment.kappa[p.job]:
            long_ok = False
    checks["long_copy_group"] = {"ok": long_ok, "asserted": True}

    chain = build_chain(inst, sched)
    labels = classify_phases(inst, sched, chain, assignment.groups) if rho > 0 else []
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
        makespan=makespan(inst, sched),
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"not valid JSON: {exc}") from exc
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
