"""DAG scheduling on related machines with a fixed communication delay.

Pipeline: validate and normalize an instance, drop machines too slow to
matter, solve a linear relaxation with per-machine same-phase variables,
round the fractional assignment to factor-2 speed groups, and run an
event-driven scheduler that duplicates jobs to hide latency.  Companion
tooling validates and analyzes schedules, removes duplication, computes
exact optima for tiny instances, and measures relaxation gaps on layered
instance families.
"""

from .cli import PipelineConfig, PipelineResult, run_pipeline
from .dedup import ball_grow_decomposition, conflict_graph, deduplicate_schedule
from .grouping import GroupAssignment, MachineGroup, assign_job_groups, compute_bands, partition_machine_groups
from .instance import (
    Instance,
    Job,
    Machine,
    gen_binary_tree,
    gen_layered_gap,
    gen_random_dag,
    instance_from_json,
    instance_to_json,
    make_instance,
    normalize_instance,
    transitive_predecessors,
    validate_instance,
)
from .lp import (
    LpModel,
    LpSolution,
    build_relaxation,
    check_lp_feasibility,
    embed_schedule_as_lp,
    solve_lp,
    solve_relaxation,
)
from .oracle import OracleLimits, combinatorial_baseline, exact_optimal_makespan
from .preprocess import filter_slow_machines, rehost_schedule
from .schedmodel import (
    AnalysisReport,
    Placement,
    Schedule,
    build_chain,
    classify_phases,
    lemma_diagnostics,
    makespan,
    schedule_from_json,
    schedule_to_json,
    validate_schedule,
)
from .scheduler import default_eta, run_group_scheduler

__all__ = [
    "AnalysisReport",
    "GroupAssignment",
    "Instance",
    "Job",
    "LpModel",
    "LpSolution",
    "Machine",
    "MachineGroup",
    "OracleLimits",
    "Placement",
    "PipelineConfig",
    "PipelineResult",
    "Schedule",
    "assign_job_groups",
    "ball_grow_decomposition",
    "build_chain",
    "build_relaxation",
    "check_lp_feasibility",
    "classify_phases",
    "combinatorial_baseline",
    "compute_bands",
    "conflict_graph",
    "deduplicate_schedule",
    "default_eta",
    "embed_schedule_as_lp",
    "exact_optimal_makespan",
    "filter_slow_machines",
    "gen_binary_tree",
    "gen_layered_gap",
    "gen_random_dag",
    "instance_from_json",
    "instance_to_json",
    "lemma_diagnostics",
    "make_instance",
    "makespan",
    "normalize_instance",
    "partition_machine_groups",
    "rehost_schedule",
    "run_group_scheduler",
    "run_pipeline",
    "schedule_from_json",
    "schedule_to_json",
    "solve_lp",
    "solve_relaxation",
    "transitive_predecessors",
    "validate_instance",
    "validate_schedule",
]
