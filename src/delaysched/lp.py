"""Linear relaxation of delay scheduling: model builder, solver, checker.

The relaxation has per-copy assignment variables x[v,i], same-phase variables
z[u,v,i] for transitive predecessor pairs and machines, start times S[v], and
the makespan C.  Machine indices follow nondecreasing speed order, which the
delay and phase rows depend on.  Every model has one precedence row (2) per
distinct direct edge, and makespan rows (1) for the sinks only: a job's row
(1) follows from a successor's row (1) and the row (2) between them, since
fractional processing times are non-negative.

:func:`solve_relaxation` solves the full relaxation exactly without its z
columns.  At any (x, S) the least z the delay rows (3) allow is
``max(0, X[v,i] - g_uv)``, with ``X[v,i] = x[v,0] + ... + x[v,i]`` and
``g_uv = (S_v - S_u) / rho >= 0`` by rows (2); it is at most 1, so z's upper
bound never binds.  Projecting z out of rows (3) and (4) leaves, for each job
v and machine index i, ``X[v,i] >= sum_u size_u max(0, X[v,i] - g_uv) /
(rho s_i)``.  A sum of positive parts is the largest of its partial sums, so
this is the family of subset cuts "for every set U of v's transitive
predecessors, ``(rho s_i - A_U) X[v,i] + sum_{u in U} size_u (S_v - S_u) /
rho >= 0``", scaled by rho s_i, with ``A_U = sum_{u in U} size_u``.  The
family is exponential, but its oracle is exact and cheap: at a given point
the most violated U of (v, i) is ``{u : X[v,i] > g_uv}``.  The first model has
C, S and x with rows (1), (2), (5) and (6) only, and each round adds the most
violated cut of every violated (v, i).

A model is held in the layout HiGHS reads: column bounds, row bounds (a row's
sense is its bounds) and the rows' terms flat and row-wise (``row_start``,
``row_cols``, ``row_vals``).  :func:`build_relaxation` computes these arrays
by index arithmetic over job, pair and machine indices, a few numpy
operations per constraint family and no loop per row; the cuts of a round are
assembled the same way.  The columns are C, then S per job, then x per job and
machine, then z per pair and machine in the full model, placed as
:class:`_Columns` states; that class is the one statement of where they sit,
and every module reads their positions from it.  The rows are families (1) to
(6) in that order.  Each model holds its structure by index in one
:class:`_Layout`, which the builder, the separation oracle and the starting
basis read.  The alternate relaxations of :mod:`gaplab` add variables and rows
one at a time with ``add_var`` and ``add_row``, so they hold lists instead;
:func:`solve_lp` takes both.  They read their pairs from a :class:`_Layout`'s
``u`` and ``v``, in z order; the same-machine and same-phase models start from
the C, S and x columns (:func:`_scaffold`) and put their per-pair columns
after them.  A solution holds the point only as ``values``, by column;
:mod:`grouping` reads S and x from it with :meth:`_Columns.s_and_x`.

A relaxation's column and row names are made only when something reads them:
``var_names``, ``row_names``, ``rows``, :func:`export_lp_text` and error
messages.
:func:`solve_relaxation` keeps one HiGHS object per instance (:class:`_Session`):
the first model goes in whole, and each separation round appends its cut rows
to the model HiGHS holds, so HiGHS keeps its basis and factorization from one
round to the next.  Cuts add no columns, so its solution's values are the
first model's columns; only the first model is built in Python.

Every model is solved by the HiGHS dual simplex bundled with scipy (1.15 or
later), driven through scipy's private binding: the arrays go to HiGHS in
one ``passModel`` call, the rows row-wise with each row's sense in its
bounds; separation rounds add theirs with ``addRows``.
Every solve uses one setting: Devex pricing (Forrest and Goldfarb, Math.
Programming 57, 1992), no output, and HiGHS's defaults otherwise.  Devex was
the fastest rule measured as models grow: at n=2000, m=8 (edge probability
.0032) :func:`solve_relaxation` took 3.2 s, against 6.5 s under the Dantzig
pricing used before and 9.0 s under HiGHS's default dual steepest edge, and
:mod:`gaplab`'s same-machine relaxation of an n=32, m=8 pipeline instance
took 1 s where Dantzig ran for minutes.  On the pipeline instances at n=32,
m=8 and n=150, m=4 it took fewer iterations than Dantzig, in the same time.
Presolve runs only on cold starts, since HiGHS skips it once a basis is set;
on the equal-speed cold starts it pays (layered (3, 3) took 1,885 iterations
with it and 9,738 without).  Solves are deterministic for a fixed model, and a
session's rounds for a fixed instance.

:func:`solve_lp` starts cold, from the all-slack basis.  The first run of
:func:`solve_relaxation` starts from a basis built from the instance
(:func:`_critical_path_basis`): every job's x on the fastest machine, S
from the longest-path schedule under fastest times and C basic, and the rows
of the critical chain tight.  Its duals are 1 along the critical chain and the
reduced cost of moving a chain job to a slower machine is its longer time, so
the start is dual feasible, and the dual simplex only has to repair machine
loads; jobs move to slower machines within their free float first.  Over the
first 60 instances of the benchmark's workloads at seed 7, as the pipeline
solves them, the first run took 1,410 iterations instead of 12,685 cold on
``lp_heavy`` (n=32, m=8) and 2,224 instead of 12,411 on ``many_phases``
(n=150, m=4).  When every machine has one speed there is nowhere to move a
job, and the start is cold: with every job on one machine, layered (4, 2)
took 926 iterations instead of 685 and layered (3, 3) 4,914 instead of
1,885.  On 2 shared vCPUs the cold (3, 3) solve took 0.2-0.3 s, against
1.7 s from every job on one machine and 2.8 s cold without presolve.

Package import loads neither scipy nor numpy: both are imported inside the
functions that use them.  The first solve loads only scipy's compiled HiGHS
module, ``scipy.optimize._highspy._core``, from its file: importing it by
name would first run ``scipy.optimize``'s package init, which pulls in
linalg, sparse and the rest of ``scipy.optimize`` and is most of a CLI call's
cold start, yet the binding needs none of it.  The module is registered under
its own name, so a later ``import scipy.optimize`` (or ``linprog``) reuses
it; where the file is not found, the plain import loads the same module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .instance import Instance, transitive_predecessors

FEAS_TOL = 1e-6
SEPARATION_TOL = 1e-9  # row (4) violation of the least z that adds a subset cut


def _as_list(seq):
    """A numpy array as a list of Python numbers; a list as it is."""
    return seq.tolist() if hasattr(seq, "tolist") else seq


def _sense(lo: float, hi: float) -> tuple[str, float]:
    """A row's sense and right-hand side, read back from its bounds."""
    if lo == -math.inf:
        return "<=", hi
    return (">=", lo) if hi == math.inf else ("=", lo)


@dataclass(eq=False)
class LpModel:
    """Sparse LP: variables with bounds, rows with bounds, min objective.

    Column ``j`` lies in ``[col_lower[j], col_upper[j]]``.  Rows are stored
    flat, CSR-style: row ``r`` holds the terms
    ``row_cols[row_start[r]:row_start[r + 1]]`` (distinct columns) with the
    matching ``row_vals``, and its value lies in
    ``[row_lower[r], row_upper[r]]``.  :func:`build_relaxation` fills these
    with numpy arrays; ``add_var`` and ``add_row`` append to the lists of a
    model built from ``LpModel()`` or :func:`_scaffold`, which :mod:`gaplab`
    does, each column landing where the module's index rules place it.
    ``rows`` reads the
    rows back as a list of tuples.  ``var_names`` and ``row_names`` are a
    relaxation's names, made on first read, then the names a model holds as
    a list.
    """

    col_lower: Sequence[float] = field(default_factory=list)
    col_upper: Sequence[float] = field(default_factory=list)
    row_lower: Sequence[float] = field(default_factory=list)
    row_upper: Sequence[float] = field(default_factory=list)
    row_start: Sequence[int] = field(default_factory=lambda: [0])
    row_cols: Sequence[int] = field(default_factory=list)
    row_vals: Sequence[float] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    # a relaxation's columns and rows, which come first; then the names of
    # the scaffold's columns and of those given to add_var and add_row
    _layout: _Layout | None = field(default=None, repr=False)
    _var_names: list[str] = field(default_factory=list, repr=False)
    _row_names: list[str] = field(default_factory=list, repr=False)

    def add_var(self, name: str, lo: float = 0.0, hi: float = math.inf) -> int:
        self.col_lower.append(lo)
        self.col_upper.append(hi)
        self._var_names.append(name)
        return len(self.col_lower) - 1

    def add_row(self, name: str, coeffs: dict[int, float], sense: str, rhs: float):
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"row {name} has sense {sense!r}")
        self.row_cols.extend(coeffs)
        self.row_vals.extend(coeffs.values())
        self.row_lower.append(-math.inf if sense == "<=" else rhs)
        self.row_upper.append(math.inf if sense == ">=" else rhs)
        self.row_start.append(len(self.row_cols))
        self._row_names.append(name)

    @property
    def rows(self) -> list[tuple[str, dict[int, float], str, float]]:
        """Every row as ``(name, {col: value}, sense, rhs)``, in row order,
        each coefficient dict in the row's entry order; built on each read."""
        cols, vals, start = (_as_list(a) for a in (self.row_cols, self.row_vals, self.row_start))
        bounds = zip(_as_list(self.row_lower), _as_list(self.row_upper))
        return [
            (name, dict(zip(cols[start[r]:start[r + 1]], vals[start[r]:start[r + 1]])),
             *_sense(lo, hi))
            for r, (name, (lo, hi)) in enumerate(zip(self.row_names, bounds))
        ]

    @property
    def n_vars(self) -> int:
        return len(self.col_lower)

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return list(zip(map(float, self.col_lower), map(float, self.col_upper)))

    @property
    def var_names(self) -> list[str]:
        return (self._layout.col_names if self._layout else []) + self._var_names

    @property
    def row_names(self) -> list[str]:
        return (self._layout.row_names if self._layout else []) + self._row_names


@dataclass
class LpSolution:
    """Variable assignment with objective; status 'feasible' marks constructed
    (not solver-optimal) solutions such as embeddings and gap certificates.
    ``values`` is aligned with the model's ``var_names``; on the solution of
    :func:`solve_relaxation` that model is its first one,
    ``build_relaxation(inst, pairs=False)``: C, S and x, since cuts add no
    columns.  In every model but the time-indexed one, whose column 0 is
    still C, C, S and x sit where :class:`_Columns` places them, and
    :meth:`_Columns.s_and_x` reads S and x.  ``iterations`` holds the simplex
    iteration count of each solve behind the solution."""

    values: tuple[float, ...]
    objective: float
    status: str
    iterations: tuple[int, ...] = ()


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _safe_ids(inst: Instance) -> tuple[list[str], list[str]]:
    """Model-name forms of the job ids and of the machine ids, by index."""
    return [_safe(v.id) for v in inst.jobs], [_safe(mc.id) for mc in inst.machines]


def _scaffold_names(jobs: list[str], machines: list[str]) -> list[str]:
    """Names of the columns every relaxation starts with, C, S_v and x_{v,i},
    from the model-name forms of the job and machine ids by index."""
    return ["C", *(f"S_{v}" for v in jobs), *(f"x_{v}_{i}" for v in jobs for i in machines)]


class _Columns:
    """Where each column of a relaxation over n jobs and m machines sits, for
    job index k, machine index i and pair index p; every module reads the
    positions from here.

    C is column 0, S_v column ``1 + k`` and x_{v,i} column
    ``1 + n + k*m + i``; the x columns end at ``x_end = 1 + n + n*m``.
    ``S`` and ``X`` are the slices of the S and the x columns.  After them
    come blocks of m columns per pair, in z order (by v's index, then u's
    id): the column of pair p and machine index i is ``x_end + p*m + i``
    (z in this module, d in :mod:`gaplab`'s same-machine relaxation).  C and
    S lie in [0, inf), x and the pair columns in [0, 1].  ``s``, ``x`` and
    ``pair`` take numpy index arrays too.
    """

    C = 0

    def __init__(self, n: int, m: int):
        self.n, self.m, self.x_end = n, m, 1 + n + n * m
        self.S, self.X = slice(1, 1 + n), slice(1 + n, self.x_end)

    def s(self, k):
        return 1 + k

    def x(self, k, i):
        return 1 + self.n + k * self.m + i

    def pair(self, p, i):
        return self.x_end + p * self.m + i

    def bounds(self, n_pairs: int = 0):
        """Column lower and upper bounds, as numpy arrays, of C, S and x
        followed by the pair columns of ``n_pairs`` pairs."""
        import numpy as np

        upper = np.ones(self.x_end + n_pairs * self.m)
        upper[: 1 + self.n] = math.inf
        return np.zeros(len(upper)), upper

    def s_and_x(self, solution: LpSolution):
        """S by job index and an iterator over the jobs' x rows, each by
        machine index, as slices of ``solution.values``; raises
        ``ValueError`` when the values are too few to hold C, S and x."""
        values, m = solution.values, self.m
        if len(values) < self.x_end:
            raise ValueError(f"the LP point has {len(values)} values; C, S and x take {self.x_end}")
        return values[self.S], (values[a : a + m] for a in range(self.X.start, self.x_end, m))


def _scaffold(inst: Instance) -> LpModel:
    """Model minimizing C, with the C, S and x columns of :class:`_Columns`,
    named now; the alternate relaxations of :mod:`gaplab` append their own
    variables and rows after these."""
    lower, upper = _Columns(inst.n, inst.m).bounds()
    return LpModel(
        col_lower=lower.tolist(), col_upper=upper.tolist(),
        objective={_Columns.C: 1.0},
        _var_names=_scaffold_names(*_safe_ids(inst)),
    )


class _Layout(_Columns):
    """The structure of one relaxation by index: its columns as
    :class:`_Columns` places them, z_{u,v,i} per model pair and machine after
    C, S and x, and rows (1) to (6).  Built once per model, from a valid
    instance.

    ``pos`` maps a job id to its index, and ``size`` and ``speed`` hold the
    jobs' sizes and machines' speeds by index.  ``u`` and ``v`` are every
    transitive pair (u, v) by job index, in z order (by v's index, then u's
    id), as the separation oracle and :mod:`gaplab`'s relaxations read them; ``pu`` and ``pv`` are the
    model's own pairs: all of them when ``with_pairs`` is set, else none.
    ``eu`` and ``ev`` are the distinct direct edges (u, v), one row (2) each,
    in row order (by v's index, then u's id); ``c1`` are the sinks, the jobs
    with rows (1), and ``c4`` the jobs with rows (4).  Names are made on
    first read and kept.
    """

    def __init__(self, inst: Instance, with_pairs: bool):
        import numpy as np

        closure = transitive_predecessors(inst)  # raises ValueError on an invalid instance
        super().__init__(n := inst.n, inst.m)
        self.inst = inst
        self.pos = pos = {v.id: k for k, v in enumerate(inst.jobs)}
        self.size = np.array([v.size for v in inst.jobs])
        self.speed = np.array([mc.speed for mc in inst.machines])
        counts = [len(closure[v.id]) for v in inst.jobs]
        self.u = np.fromiter((pos[u] for v in inst.jobs for u in sorted(closure[v.id])),
                             dtype=np.int64, count=sum(counts))
        self.v = np.repeat(np.arange(n, dtype=np.int64), counts)
        direct = inst.direct_predecessors()
        ups = [sorted(set(direct[v.id])) for v in inst.jobs]
        self.eu = np.array([pos[u] for us in ups for u in us], dtype=np.int64)
        self.ev = np.repeat(np.arange(n, dtype=np.int64), [len(us) for us in ups])
        self.c1 = np.flatnonzero(np.bincount(self.eu, minlength=n) == 0)
        self.pu, self.pv = (self.u, self.v) if with_pairs else (self.u[:0], self.v[:0])
        # jobs with rows (4), in job order (np.unique would load numpy.ma)
        self.c4 = np.flatnonzero(np.bincount(self.pv, minlength=n))

    @cached_property
    def col_names(self) -> list[str]:
        jobs, machines = _safe_ids(self.inst)
        pairs = zip(self.pu.tolist(), self.pv.tolist())
        return _scaffold_names(jobs, machines) + [
            f"z_{jobs[u]}_{jobs[v]}_{i}" for u, v in pairs for i in machines
        ]

    @cached_property
    def row_names(self) -> list[str]:
        jobs, machines = _safe_ids(self.inst)
        pairs = list(zip(self.pu.tolist(), self.pv.tolist()))
        return [
            *(f"c1_{jobs[v]}" for v in self.c1.tolist()),
            *(f"c2_{jobs[u]}_{jobs[v]}" for u, v in zip(self.eu.tolist(), self.ev.tolist())),
            *(f"c3_{jobs[u]}_{jobs[v]}_{i}" for u, v in pairs for i in machines),
            *(f"c4_{jobs[v]}_{i}" for v in self.c4.tolist() for i in machines),
            *(f"c5_{i}" for i in machines),
            *(f"c6_{v}" for v in jobs),
        ]


def build_relaxation(inst: Instance, pairs: bool = True) -> LpModel:
    """Instantiate the nine constraint families over a valid instance.

    Every transitive predecessor pair (u, v) has z variables, delay rows (3)
    and terms in rows (4), which is the full relaxation.  ``pairs=False``
    leaves out all three: C, S and x with rows (1), (2), (5) and (6), the
    first model of :func:`solve_relaxation`.  With rho = 0 the same-phase
    machinery is vacuous and is left out too (the pipeline skips delay logic
    entirely).  Row (2) is emitted for every distinct direct edge and row (1)
    for the sinks only, since the rows (1) of the other jobs follow from them.
    Families (7) to (9) are the column bounds.
    """
    import numpy as np

    if not isinstance(pairs, bool):
        raise TypeError(f"pairs must be True or False, not {pairs!r}")
    layout = _Layout(inst, pairs and inst.rho > 0)  # validates the instance
    n, m, rho = inst.n, inst.m, inst.rho
    size, speed = layout.size, layout.speed
    pu, pv, c1, eu, ev, c4 = layout.pu, layout.pv, layout.c1, layout.eu, layout.ev, layout.c4
    n_pairs, n1 = len(pu), len(c1)
    S = layout.s(np.arange(n))
    X = layout.x(np.arange(n)[:, None], np.arange(m))  # X[v, i] is x_{v,i}; x_{v,i} = X[v, 0] + i
    Z = layout.pair(np.arange(n_pairs)[:, None], np.arange(m))

    # (1) makespan covers a sink's start plus its fractional execution time
    cols1 = np.column_stack((np.full(n1, layout.C), S[c1], X[c1]))
    vals1 = np.column_stack((np.ones(n1), -np.ones(n1), -size[c1][:, None] / speed))
    # (2) a job starts after each direct predecessor's fractional completion
    cols2 = np.column_stack((S[ev], S[eu], X[eu]))
    vals2 = np.column_stack((np.ones(len(eu)), -np.ones(len(eu)), -size[eu][:, None] / speed))
    # (3) delay: rho gap unless u shares v's phase at index <= i
    cols3, vals3, len3 = _delay_rows(S[pv], S[pu], X[pv, 0], Z[:, 0], m, rho)
    # (4) same-phase predecessors fit in rho time at speed s_i: row (v, i) has
    # x_{v,0..i}, then z_{u,v,i} for v's pairs in z order
    per_job = np.bincount(pv, minlength=n)[c4]
    len4 = (np.arange(1, m + 1) + per_job[:, None]).ravel()
    at4 = (np.cumsum(len4) - len4).reshape(-1, m)  # first entry of row (v, i)
    cols4, vals4 = np.empty(int(len4.sum()), dtype=np.int64), np.empty(int(len4.sum()))
    tri_i, tri_j = np.tril_indices(m)
    x_at = at4[:, tri_i] + tri_j
    cols4[x_at] = X[c4, 0][:, None] + tri_j
    vals4[x_at] = 1.0
    rank = np.arange(n_pairs) - np.searchsorted(pv, pv)  # position among v's pairs
    z_at = at4[np.searchsorted(c4, pv)] + np.arange(1, m + 1) + rank[:, None]
    cols4[z_at] = Z
    vals4[z_at] = -size[pu][:, None] / (rho * speed)
    # (5) machine load at most C * speed
    cols5 = np.column_stack((np.full(m, layout.C), X.T))
    vals5 = np.column_stack((speed, np.broadcast_to(-size, (m, n))))
    # (6) every job fully assigned
    cols6, vals6 = X, np.ones((n, m))

    lengths = np.concatenate((
        np.full(n1 + len(eu), 2 + m), len3, len4, np.full(m, 1 + n), np.full(n, m),
    ))
    n_rows = len(lengths)
    col_lower, col_upper = layout.bounds(n_pairs)
    return LpModel(
        col_lower=col_lower, col_upper=col_upper,
        row_lower=np.concatenate((np.zeros(n_rows - n), np.ones(n))),
        row_upper=np.concatenate((np.full(n_rows - n, math.inf), np.ones(n))),
        row_start=np.concatenate(([0], np.cumsum(lengths))),
        row_cols=np.concatenate([a.ravel() for a in (cols1, cols2, cols3, cols4, cols5, cols6)]),
        row_vals=np.concatenate([a.ravel() for a in (vals1, vals2, vals3, vals4, vals5, vals6)]),
        objective={layout.C: 1.0},
        _layout=layout,
    )


def _delay_rows(s_v, s_u, x_v, z_uv, m: int, rho: float):
    """Rows (3) of pairs (u, v), given by the columns of S_v, S_u, x_{v,0} and
    z_{u,v,0} (the x and z columns of a pair run consecutively by machine), as
    row-wise (cols, vals, lengths), pair by pair and machine by machine.  One
    pair's m rows follow a fixed template of slots (S_v, S_u, x_{v,0..i},
    z_{u,v,i})."""
    import numpy as np

    slot_base, slot_off, slot_val = [], [], []
    for i in range(m):
        slot_base += [0, 1] + [2] * (i + 1) + [3]
        slot_off += [0, 0, *range(i + 1), i]
        slot_val += [1.0, -1.0] + [-rho] * (i + 1) + [rho]
    bases = np.column_stack((s_v, s_u, x_v, z_uv))
    cols = bases[:, slot_base] + np.array(slot_off, dtype=np.int64)
    return cols.ravel(), np.tile(slot_val, len(s_v)), np.tile(np.arange(4, m + 4), len(s_v))


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core() -> None:
    """Load scipy's HiGHS extension by file, without ``scipy.optimize``'s init.

    Does nothing once the module is imported, by this or by scipy itself.
    If no extension file is found, the ``from`` imports in :func:`solve_lp`
    fall back to the plain import of the same module.
    """
    if _HIGHS_CORE in sys.modules:
        return
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return  # the plain import reports a missing scipy
    for base in scipy_spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_HIGHS_CORE] = module
                try:
                    spec.loader.exec_module(module)
                except BaseException:
                    del sys.modules[_HIGHS_CORE]
                    raise
                return


def solve_lp(model: LpModel) -> LpSolution:
    """Minimize the model objective with HiGHS; deterministic for identical inputs.

    Status is 'optimal', 'infeasible', 'unbounded' (also when HiGHS cannot
    tell unbounded from infeasible) or 'error' for any other outcome, with no
    certificate row.  Only an undersized time-indexed horizon makes a model
    infeasible: a valid instance always embeds its serial schedule, and its
    relaxations are bounded below by zero.  A non-finite objective coefficient
    or matrix value, a matrix value at or above HiGHS's ``large_matrix_value``
    (which HiGHS refuses without naming it), a NaN bound or right-hand side, or
    an objective or row naming a column the model lacks raises ``ValueError``.

    The model goes to HiGHS in one call of the binding's array form of
    ``passModel`` (:func:`_open`), and the solve starts cold, so HiGHS
    presolves it.
    :func:`solve_relaxation` opens its first model the same way, then sets
    its starting basis.
    """
    status, values, objective, count = _run(_open(model))
    return LpSolution(tuple(map(float, values)), float(objective), status, (count,))


def _open(model: LpModel):
    """A HiGHS object holding ``model``, after the checks :func:`solve_lp`
    lists, with the module's one setting: Devex pricing and no output, every
    other option at HiGHS's default.  Raises ``ValueError`` if HiGHS refuses
    either value."""
    import numpy as np

    _load_highs_core()
    from scipy.optimize._highspy._core import HighsStatus, MatrixFormat, ObjSense, _Highs
    from scipy.optimize._highspy._core.simplex_constants import SimplexEdgeWeightStrategy

    n, n_rows = model.n_vars, len(model.row_lower)
    cost = np.zeros(n)
    for j, cj in model.objective.items():
        if not 0 <= j < n:
            raise ValueError(f"objective names column {j} of a model with {n} variables")
        cost[j] = cj
    # HiGHS would report such a model optimal, so it is rejected here
    if (j := _first_true(~np.isfinite(cost))) is not None:
        raise ValueError(f"objective coefficient of {model.var_names[j]} is {cost[j]}")

    def row_of(k: int) -> str:
        return model.row_names[int(np.searchsorted(model.row_start, k, side="right")) - 1]

    values = np.asarray(model.row_vals, dtype=np.float64)
    highs = _Highs()
    _check_entries(highs, values, row_of)
    for option, value in (
        ("output_flag", False),
        ("simplex_dual_edge_weight_strategy",
         SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex),
    ):
        if highs.setOptionValue(option, value) != HighsStatus.kOk:
            raise ValueError(f"HiGHS refused the value {value!r} of option {option}")
    floats = (np.asarray(a, dtype=np.float64) for a in (
        model.col_lower, model.col_upper, model.row_lower, model.row_upper))
    ints = (np.asarray(a, dtype=np.int32) for a in (model.row_start, model.row_cols))
    status = highs.passModel(
        n, n_rows, len(values), MatrixFormat.kRowwise, ObjSense.kMinimize, 0.0,
        cost, *floats, *ints, values, np.zeros(n, dtype=np.int32),
    )
    if status == HighsStatus.kError:
        raise ValueError("HiGHS rejected the model")
    return highs


def _check_entries(highs, values, row_of) -> None:
    """Raise ``ValueError`` naming the row of the first entry of ``values``
    that is not finite, else of the first at or above HiGHS's
    ``large_matrix_value`` in magnitude, which HiGHS refuses without naming
    it; ``row_of(k)`` names the row of entry ``k``."""
    import numpy as np

    if (k := _first_true(~np.isfinite(values))) is not None:
        raise ValueError(f"row {row_of(k)} has coefficient {values[k]}")
    _, limit = highs.getOptionValue("large_matrix_value")
    if (k := _first_true(np.abs(values) >= limit)) is not None:
        raise ValueError(
            f"row {row_of(k)} has coefficient {values[k]}; "
            f"HiGHS refuses magnitudes of {limit:g} and above"
        )


def _run(highs):
    """Solve the model ``highs`` holds, from the basis it holds.  Returns the
    status name, the column values (zeros unless optimal), the objective (NaN
    unless optimal) and this run's simplex iteration count."""
    import numpy as np
    from scipy.optimize._highspy._core import HighsModelStatus

    highs.run()
    info = highs.getInfo()
    status = highs.getModelStatus()
    if status == HighsModelStatus.kOptimal:
        values = np.asarray(highs.getSolution().col_value, dtype=np.float64)
        return "optimal", values, info.objective_function_value, info.simplex_iteration_count
    if status in (HighsModelStatus.kUnbounded, HighsModelStatus.kUnboundedOrInfeasible):
        name = "unbounded"
    elif status == HighsModelStatus.kInfeasible:
        name = "infeasible"
    else:
        name = "error"
    return name, np.zeros(highs.getNumCol()), math.nan, info.simplex_iteration_count


def _first_true(mask) -> int | None:
    """Index of the first true entry of a boolean numpy array, if any."""
    return int(mask.argmax()) if mask.any() else None


def _critical_path_basis(layout: _Layout):
    """A starting basis for the first model of :func:`solve_relaxation`, as
    boolean ``(basic_cols, basic_rows)``; every nonbasic column and row sits
    at its lower bound.  None when every machine has one speed.

    With every job on the fastest machine f, the basic columns are each
    job's x_{v,a(v)} (a(v) = f), S_v for every job with a row (2), that row
    taken from v's longest-path predecessor under fastest-machine times, and
    C.  A shortcut edge (u, v) is never chosen: the path through v's other
    predecessor w that follows u is longer by w's positive size.  The tight
    rows are every row (6), each chosen row (2) and the row (1) of the sink
    that finishes last; every other row keeps its slack basic.
    Ordered by a topological order, the basic columns against the tight rows
    form a triangular matrix, so the basis is nonsingular.  The duals are 1
    on the rows of the critical chain, 0 on the other rows (2) and (1), and
    ``size_v / s_a(v)`` on the row (6) of a chain job, so the reduced cost of
    x_{v,i} is ``size_v / s_i - size_v / s_f >= 0`` on the chain and 0 off
    it: the start is dual feasible, and only row (5) of f can be violated.

    While f's load is above ``C0 s_f``, with ``C0`` the larger of the
    critical path and the total size over the total speed, jobs in job order
    move to the fastest strictly slower machine i where the longer time fits
    in the job's free float (its earliest successor's start, or the critical
    path for a sink, less its finish) and ``load_i + size_v <= C0 s_i``.  A
    move within the free float changes no start and no chosen row, and a job
    with a float is off the chain, so the duals stay as they are; the rows
    (5) of the machines that took jobs can be violated only where ``C0`` is
    above the critical path, which C keeps.
    """
    import numpy as np

    speed, size = layout.speed, layout.size
    if speed.max() == speed.min():
        return None
    n, m = layout.n, layout.m
    c1, eu, ev = layout.c1, layout.eu, layout.ev
    f = m - 1 - int(np.argmax(speed[::-1]))  # the last of the fastest machines
    fast = size / speed[f]
    # earliest starts under fastest times, from the rows (2); the edges are
    # sorted by v, so v's rows are eu[first[v]:first[v + 1]]
    first = np.searchsorted(ev, np.arange(n + 1)).tolist()
    src, fast_l = eu.tolist(), fast.tolist()
    start, chosen = [0.0] * n, [-1] * n  # chosen: the row (2) index taken for v
    for vid in layout.inst._order:
        v = layout.pos[vid]
        for k in range(first[v], first[v + 1]):
            t = start[src[k]] + fast_l[src[k]]
            if chosen[v] < 0 or t > start[v]:
                start[v], chosen[v] = t, k
    start = np.array(start)
    finish = start + fast
    last = int(np.argmax(finish[c1]))  # the row (1) of the sink that finishes last
    path = float(finish[c1[last]])
    succ_start = np.full(n, path)
    np.minimum.at(succ_start, eu, start[ev])
    slack = (succ_start - finish).tolist()

    sizes, speeds = size.tolist(), speed.tolist()
    machine = [f] * n
    load = [0.0] * m
    load[f] = sum(sizes)
    bound = max(path, load[f] / sum(speeds))
    slower = [i for i in range(m - 1, -1, -1) if speeds[i] < speeds[f]]
    for v in range(n):
        if load[f] <= bound * speeds[f]:
            break
        for i in slower:
            if (sizes[v] / speeds[i] - fast_l[v] <= slack[v]
                    and load[i] + sizes[v] <= bound * speeds[i]):
                machine[v] = i
                load[i] += sizes[v]
                load[f] -= sizes[v]
                break

    cols = np.zeros(layout.x_end, dtype=bool)
    cols[layout.C] = True
    chosen = np.array(chosen)
    cols[layout.s(np.flatnonzero(chosen >= 0))] = True
    cols[layout.x(np.arange(n), np.array(machine))] = True
    n1, n2 = len(c1), len(eu)
    rows = np.ones(n1 + n2 + m + n, dtype=bool)  # rows (1), (2), (5), (6)
    rows[last] = False
    rows[n1 + chosen[chosen >= 0]] = False
    rows[n1 + n2 + m:] = False
    return cols, rows


class _Session:
    """One HiGHS object holding the first model of one instance, which
    separation rounds grow in place.

    It opens with a model without pairs (C, S and x with rows (1), (2), (5)
    and (6)) and the basis :func:`_critical_path_basis` builds, where there
    is one, so the first run starts from it rather than from every slack;
    :meth:`add` appends cut rows.  No column is added and no row removed or
    moved, so HiGHS keeps its basis and factorization and each later run
    starts from the last.  ``held`` holds the columns of every cut row added,
    as bytes: they name v, i and U, which fix the row's values.
    """

    def __init__(self, model: LpModel):
        self.layout = model._layout
        self.highs = _open(model)
        self.held: set[bytes] = set()
        start = _critical_path_basis(self.layout)
        if start is not None:
            from scipy.optimize._highspy._core import HighsBasis, HighsBasisStatus, HighsStatus

            basis = HighsBasis()
            basic, lower = HighsBasisStatus.kBasic, HighsBasisStatus.kLower
            basis.col_status = [basic if b else lower for b in start[0].tolist()]
            basis.row_status = [basic if b else lower for b in start[1].tolist()]
            basis.alien = False
            if self.highs.setBasis(basis) != HighsStatus.kOk:
                raise ValueError("HiGHS rejected the starting basis")

    def add(self, cuts) -> int:
        """Append the cuts of :func:`_separate` whose rows the model does not
        hold yet, and return how many there were.

        Their entries go through the checks of the first model
        (:func:`_check_entries`) before any is added, and an error names the
        row (4) of the cut, ``c4_<job>_<machine>``."""
        import numpy as np
        from scipy.optimize._highspy._core import HighsStatus

        layout, highs = self.layout, self.highs
        start, cols, vals = _cut_rows(layout, *cuts)
        blob, at = cols.tobytes(), (start * cols.itemsize).tolist()
        keys = [blob[a:b] for a, b in zip(at, at[1:])]
        keep = np.array([key not in self.held for key in keys], dtype=bool)
        self.held.update(keys)
        lengths = np.diff(start)
        cols, vals = cols[np.repeat(keep, lengths)], vals[np.repeat(keep, lengths)]
        start = np.concatenate(([0], np.cumsum(lengths[keep])))
        job, machine = cuts[0][keep], cuts[1][keep]

        def row_of(k: int) -> str:
            jobs, machines = _safe_ids(layout.inst)
            c = int(np.searchsorted(start, k, side="right")) - 1
            return f"c4_{jobs[job[c]]}_{machines[machine[c]]}"

        _check_entries(highs, vals, row_of)
        n_rows = len(job)
        if n_rows and highs.addRows(
            n_rows, np.zeros(n_rows), np.full(n_rows, math.inf), len(vals),
            start[:-1].astype(np.int32), cols.astype(np.int32), vals,
        ) != HighsStatus.kOk:
            raise ValueError("HiGHS rejected the cut rows of a separation round")
        return n_rows


def solve_relaxation(inst: Instance) -> LpSolution:
    """Optimum of the full relaxation, found by separating rows (4) as cuts.

    The first model has no same-phase pairs: C, S and x, with rows (1), (2),
    (5) and (6) only (``build_relaxation(inst, pairs=False)``).  After each
    solve, every job v and machine index i whose row (4) the least z
    (``max(0, X[v,i] - g_uv)`` for every pair, see the module docstring)
    violates by more than ``SEPARATION_TOL`` gets its most violated subset
    cut, and the model is solved again.  When no (v, i) is violated, the
    extended point, C, S and x with the least z, is feasible for the full
    relaxation (z <= 1 as X <= 1 and S_v >= S_u) and has the cut model's
    optimal value.  Each cut follows from rows (3), (4) and z >= 0, so the
    cut model is a relaxation of the full one, and that value is the full
    optimum.

    No cut is added twice (:class:`_Session`).  HiGHS meets a row only to
    within its primal feasibility tolerance (1e-7), which is above
    ``SEPARATION_TOL``, so a cut the model holds can read as violated again.
    The loop also stops when every violated (v, i)'s cut is held: each row
    (4) of the extended point is then violated by at most 1e-7 / (rho s_i),
    as HiGHS meets the held cut, scaled by rho s_i, to within 1e-7.  There
    are finitely many cuts, so the loop ends.

    One HiGHS object serves every round: the first run starts from the
    critical-path basis of :func:`_critical_path_basis` (cold when every
    machine has one speed), a round appends its cut rows to the model HiGHS
    holds, and HiGHS starts from the basis it ended the last round with.
    Returns the last solve's solution: ``values`` are C, S and x as HiGHS
    holds them, and ``iterations`` has one count per round.  A ``ValueError``
    from the checks of :func:`solve_lp` can come from any round.
    """
    model = build_relaxation(inst, pairs=False)
    session = _Session(model)
    iterations = ()
    while True:
        status, values, objective, count = _run(session.highs)
        iterations += (count,)
        if status != "optimal" or inst.rho <= 0:
            break
        cuts = _separate(session.layout, values)
        if not len(cuts[0]) or not session.add(cuts):
            break  # nothing violated, or every violated cut held
    return LpSolution(tuple(values.tolist()), float(objective), status, iterations)


def _separate(layout: _Layout, values):
    """The most violated cut of every (v, i) whose row (4) the least z
    violates by more than ``SEPARATION_TOL`` at the point ``values`` (C, S
    and x, laid out as in ``layout``).

    Returns ``(job, machine, member, cut)``: cut c is for job ``job[c]`` and
    machine index ``machine[c]``, in job then machine order, and its set U is
    the pairs (u, v) with ``X[v,i] > g_uv``, as the indices into the
    layout's ``u`` and ``v`` of ``member[cut == c]``, in pair order.  Each row's load
    is summed in pair order, as a loop over each job's pairs would, so the
    cuts do not depend on how the arithmetic is laid out.
    """
    import numpy as np

    n, m, rho = layout.n, layout.m, layout.inst.rho
    tu, tv = layout.u, layout.v
    start = values[layout.S]
    prefix = np.cumsum(values[layout.X].reshape(n, m), axis=1)  # X[v, i]
    least = prefix[tv] - ((start[tv] - start[tu]) / rho)[:, None]  # X[v,i] - g_uv
    inside = least > 0.0
    slot = (tv[:, None] * m + np.arange(m)).ravel()  # (v, i) of each entry
    weights = (layout.size[tu][:, None] * np.where(inside, least, 0.0)).ravel()
    load = np.bincount(slot, weights=weights, minlength=n * m).reshape(n, m) / (rho * layout.speed)
    violated = prefix - load < -SEPARATION_TOL
    member, i = np.nonzero(inside & violated[tv])
    cut = (np.cumsum(violated) - 1).reshape(n, m)[tv[member], i]
    return (*np.nonzero(violated), member, cut)


def _cut_rows(layout: _Layout, job, machine, member, cut):
    """The rows of the cuts :func:`_separate` returns, row-wise as
    ``(start, cols, vals)``.

    The cut of job v, machine index i and set U reads, scaled by rho s_i,
    ``(rho s_i - A_U) (x_{v,0} + ... + x_{v,i}) + (A_U / rho) S_v
    - sum_{u in U} (size_u / rho) S_u >= 0``, with ``A_U`` the sum of the
    sizes of U in pair order.  Its entries are the x terms, then S_v, then
    the S_u in pair order.  ``rho s_i - A_U`` is negative on a violated cut,
    since rows (2) keep S_v above S_u.
    """
    import numpy as np

    m, rho = layout.m, layout.inst.rho
    n_cuts, pred = len(job), layout.u[member]
    mass = np.bincount(cut, weights=layout.size[pred], minlength=n_cuts)  # A_U
    x_cut, x_j = np.nonzero(np.arange(m) <= machine[:, None])  # x_{v,0..i} of each cut
    row = np.concatenate((x_cut, np.arange(n_cuts), cut))
    order = np.argsort(row, kind="stable")
    cols = np.concatenate((layout.x(job[x_cut], x_j), layout.s(job), layout.s(pred)))[order]
    coef = rho * layout.speed[machine] - mass
    vals = np.concatenate((coef[x_cut], mass / rho, -layout.size[pred] / rho))[order]
    return np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_cuts)))), cols, vals


def check_lp_feasibility(solution: LpSolution, model: LpModel, tol: float = FEAS_TOL):
    """Every violated row or bound, as (name, residual) with residual < -tol:
    the rows in row order, then the bounds by column, lower before upper.

    A row's residual follows its sense as ``model.rows`` reads it:
    ``lhs - lo`` for >=, ``hi - lhs`` for <= and ``-|lhs - lo|`` for =.  Each
    row's terms are summed in entry order, as a loop over the row would, and
    names are made only when something is violated.
    """
    import numpy as np

    arr = solution.values
    if len(arr) != model.n_vars:
        raise ValueError(f"solution has {len(arr)} values for {model.n_vars} variables")
    x = np.asarray(arr, dtype=np.float64)
    lo, hi, col_lo, col_hi, vals = (np.asarray(a, dtype=np.float64) for a in (
        model.row_lower, model.row_upper, model.col_lower, model.col_upper, model.row_vals))
    cols = np.asarray(model.row_cols, dtype=np.int64)
    row_of = np.repeat(np.arange(len(lo)), np.diff(np.asarray(model.row_start, dtype=np.int64)))
    lhs = np.bincount(row_of, weights=vals * x[cols], minlength=len(lo))
    with np.errstate(invalid="ignore"):
        resid = np.where(lo == -math.inf, hi - lhs,
                         np.where(hi == math.inf, lhs - lo, -np.abs(lhs - lo)))
    out = []
    if (bad := np.flatnonzero(resid < -tol).tolist()):
        names = model.row_names
        out += [(names[r], float(resid[r])) for r in bad]
    below, above = x < col_lo - tol, x > col_hi + tol
    if (bad := np.flatnonzero(below | above).tolist()):
        names = model.var_names
        for j in bad:
            if below[j]:
                out.append((f"bound_lo_{names[j]}", float(x[j] - col_lo[j])))
            if above[j]:
                out.append((f"bound_hi_{names[j]}", float(col_hi[j] - x[j])))
    return out


def embed_schedule_as_lp(inst: Instance, sched, model: LpModel | None = None) -> LpSolution:
    """Turn a valid schedule into a feasible point with objective twice its
    makespan: phase-doubled starts, unit assignment to the first-completion
    machine, and 0/1 same-phase variables.  ``model``, by default
    ``build_relaxation(inst)``, has ``inst``'s C, S and x as its first columns."""
    import numpy as np

    from .schedmodel import makespan as sched_makespan
    from .schedmodel import phase_of, require_valid_schedule

    require_valid_schedule(inst, sched)
    model = model if model is not None else build_relaxation(inst)
    rho = inst.rho

    def doubled_start(p):
        if rho <= 0:
            return p.start
        return p.start + phase_of(p.start, rho) * rho

    # each job's first completion, its machine index and its doubled start; a
    # valid schedule has one copy per job and machine, so the index breaks
    # every tie and the start never decides
    first: dict[str, tuple[float, int, float]] = {}
    for p in sched.placements:
        s2 = doubled_start(p)
        key = (s2 + inst.size(p.job) / inst.speed(p.machine), inst.machine_index(p.machine), s2)
        if p.job not in first or key < first[p.job]:
            first[p.job] = key

    cols = _Columns(inst.n, inst.m)
    start = np.array([first[v.id][2] for v in inst.jobs])
    star = np.array([first[v.id][1] for v in inst.jobs])
    objective = 2.0 * sched_makespan(inst, sched)
    values = np.zeros(model.n_vars)
    values[cols.C] = objective
    values[cols.S] = start
    values[cols.x(np.arange(inst.n), star)] = 1.0
    if (layout := model._layout) is not None:
        # z_{u,v,i} is 1 where machine index i is at or after v's machine
        # and S_v - S_u <= rho; the z columns run by pair, then machine
        pu, pv = layout.pu, layout.pv
        late = np.arange(layout.m) >= star[pv][:, None]
        near = start[pv] - start[pu] <= rho + inst._time_tol
        values[layout.x_end :] = (late & near[:, None]).ravel()
    return LpSolution(tuple(map(float, values)), float(objective), "feasible")


def _distinct(names: list[str]) -> list[str]:
    """``names`` with every repeat renamed ``<name>#<k>`` (k = 2, 3, ...),
    skipping names already in use, so no two are equal; unique names stay."""
    taken = set(names)
    seen: set[str] = set()
    out = []
    for name in names:
        if name in seen:
            k = 2
            while f"{name}#{k}" in taken:
                k += 1
            name = f"{name}#{k}"
            taken.add(name)
        seen.add(name)
        out.append(name)
    return out


def export_lp_text(model: LpModel) -> str:
    """LP-format text: objective, named constraint rows, bounds section.

    Variable and row names are made distinct here: ids that differ only in
    characters the model names replace by ``_`` give equal model names.
    """
    var_names = _distinct(model.var_names)
    row_names = _distinct(model.row_names)

    def term(j, a, first):
        sign = "-" if a < 0 else ("" if first else "+")
        mag = abs(a)
        coef = "" if abs(mag - 1.0) < 1e-15 else f"{mag:.12g} "
        return f"{sign} {coef}{var_names[j]} ".replace("  ", " ")

    lines = ["Minimize", " obj: " + "".join(
        term(j, a, k == 0) for k, (j, a) in enumerate(sorted(model.objective.items()))
    ).strip(), "Subject To"]
    for name, (_, coeffs, sense, rhs) in zip(row_names, model.rows):
        expr = "".join(
            term(j, a, k == 0) for k, (j, a) in enumerate(sorted(coeffs.items()))
        ).strip()
        lines.append(f" {name}: {expr} {sense} {rhs:.12g}")
    lines.append("Bounds")
    for name, (lo, hi) in zip(var_names, model.bounds):
        if hi == math.inf:
            lines.append(f" {lo:.12g} <= {name}")
        else:
            lines.append(f" {lo:.12g} <= {name} <= {hi:.12g}")
    lines.append("End")
    return "\n".join(lines) + "\n"
