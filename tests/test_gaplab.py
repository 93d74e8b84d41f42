import pytest

from conftest import by_the_rule, tiny_instance
from delaysched import (
    Job,
    Machine,
    build_relaxation,
    check_lp_feasibility,
    gen_layered_gap,
    gen_random_dag,
    make_instance,
    run_pipeline,
    solve_lp,
)
from delaysched.gaplab import (
    build_alternate_relaxation,
    gap_lp_certificate,
    measure_gap,
)
from delaysched.instance import Instance


def test_certificate_small_degree():
    inst = gen_layered_gap(2, 1, seed=1)
    model = build_relaxation(inst)
    cert = gap_lp_certificate(inst, model)
    assert cert.objective == pytest.approx(2.0)
    assert not check_lp_feasibility(cert, model, tol=1e-6)


def test_certificate_headline_parameters():
    inst = gen_layered_gap(2, 4, seed=0)
    model = build_relaxation(inst)
    cert = gap_lp_certificate(inst, model)
    assert cert.objective == 16.0
    assert not check_lp_feasibility(cert, model, tol=1e-6)


def test_certificate_multi_layer():
    inst = gen_layered_gap(4, 1, seed=2)  # rho = m = 4, four layers of 4 jobs
    model = build_relaxation(inst)
    cert = gap_lp_certificate(inst, model)
    assert cert.objective == pytest.approx(4.0)
    assert not check_lp_feasibility(cert, model, tol=1e-6)
    # starts step down by rho/L per layer
    _, start = by_the_rule(inst, cert.values)
    assert start["L4_j0"] == 0.0
    assert start["L1_j0"] == pytest.approx(3.0)


def test_certificate_rejects_tampered_instance():
    inst = gen_layered_gap(2, 1, seed=1)
    layer1 = [j.id for j in inst.jobs if j.id.startswith("L1_")]
    tampered = Instance(
        inst.jobs, inst.machines, inst.edges + ((layer1[0], layer1[1]),), inst.rho
    )
    with pytest.raises(ValueError):
        gap_lp_certificate(tampered)


def test_certificate_rejects_non_layered():
    inst = tiny_instance(0)
    with pytest.raises(ValueError):
        gap_lp_certificate(inst)


def unit_single():
    return make_instance([Job("a", 1.0)], [Machine("m0", 1.0)], [], 2.0)


@pytest.mark.parametrize("kind", ["same_machine", "time_indexed", "same_phase"])
def test_alternate_single_job_optimum_one(kind):
    model = build_alternate_relaxation(unit_single(), kind, horizon=2)
    sol = solve_lp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_same_machine_layered_value_collapses():
    # two all-to-all levels of 2 unit jobs, 2 unit machines, rho = 2: the
    # uniform split with same-machine mass 1 erases the delay term
    jobs = [Job(f"L{l}_{k}", 1.0) for l in (1, 2) for k in (0, 1)]
    edges = [(f"L1_{a}", f"L2_{b}") for a in (0, 1) for b in (0, 1)]
    inst = make_instance(jobs, [Machine("m0", 1.0), Machine("m1", 1.0)], edges, 2.0)
    sol = solve_lp(build_alternate_relaxation(inst, "same_machine"))
    assert sol.status == "optimal"
    assert sol.objective <= 2.0 + 1e-6


def test_time_indexed_chain_two_steps():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)], [Machine("m0", 1.0)], [("a", "b")], 1.0
    )
    sol = solve_lp(build_alternate_relaxation(inst, "time_indexed", horizon=2))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-6)


def test_time_indexed_undersized_horizon_infeasible():
    inst = make_instance(
        [Job("a", 1.0), Job("b", 1.0)], [Machine("m0", 1.0)], [("a", "b")], 1.0
    )
    sol = solve_lp(build_alternate_relaxation(inst, "time_indexed", horizon=1))
    assert sol.status == "infeasible"


def test_measure_gap_single_job():
    rep = measure_gap(unit_single())
    assert rep.lp_source == "solved"
    assert rep.ratio == pytest.approx(1.0, abs=1e-6)


def test_measure_gap_layered_certificate():
    inst = gen_layered_gap(2, 1, seed=4)
    rep = measure_gap(inst)
    assert rep.lp_source == "certificate"
    assert rep.lp_value == pytest.approx(2.0)
    assert rep.pipeline_makespan >= rep.lp_value - 1e-6
    assert rep.ratio >= 1.0 - 1e-6


@pytest.mark.parametrize(
    "inst",
    [
        tiny_instance(11, n_max=5, m_max=2),
        # normalization shrinks its times about ninefold: a makespan in
        # normalized units would fall below half the LP value
        gen_random_dag(8, 3, 0.3, (4, 8), (0.25, 0.5), 8.0, 1),
    ],
    ids=["tiny", "unnormalized"],
)
def test_measure_gap_random_instance_fields(inst):
    rep = measure_gap(inst)
    assert rep.lp_source == "solved"
    assert rep.pipeline_makespan == run_pipeline(inst).makespan
    assert rep.pipeline_makespan >= rep.lp_value / 2
    assert rep.baseline_makespan is not None
    # the main relaxation lower-bounds twice the optimum
    integral = min(rep.pipeline_makespan, rep.baseline_makespan)
    assert integral >= rep.lp_value / 2.0 - 1e-6
    assert set(rep.params) == {"n", "m", "rho"}
