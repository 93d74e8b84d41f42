import hashlib

import pytest

from conftest import by_the_rule, tiny_instance
from delaysched import (
    Job,
    Machine,
    Placement,
    Schedule,
    build_relaxation,
    check_lp_feasibility,
    combinatorial_baseline,
    gen_layered_gap,
    gen_random_dag,
    make_instance,
    normalize_instance,
    run_pipeline,
    solve_lp,
    validate_schedule,
)
from delaysched.gaplab import (
    build_alternate_relaxation,
    gap_lp_certificate,
    measure_gap,
)
from delaysched.instance import Instance
from delaysched.lp import export_lp_text
from test_lp_arrays import highs_input_digest


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



def test_measure_gap_works_in_normalized_units():
    # at sizes near 1e-12, HiGHS rejects the raw relaxation's cut rows, and
    # the baseline's absolute tolerance exceeds the instance's times
    tiny = gen_random_dag(12, 2, 0.5, (1e-12, 4e-12), (0.25, 1), 1.6e-11, 0)
    twin = gen_random_dag(12, 2, 0.5, (1, 4), (0.25, 1), 16.0, 0)
    got, want = measure_gap(tiny), measure_gap(twin)
    assert got.lp_source == want.lp_source == "solved"
    assert got.lp_value == pytest.approx(want.lp_value * 1e-12, rel=1e-9)
    assert got.baseline_makespan == pytest.approx(want.baseline_makespan * 1e-12, rel=1e-9)
    # the baseline measured: run on the normalized instance, mapped back
    norm, scale = normalize_instance(tiny)
    baseline = Schedule(tuple(
        Placement(p.job, p.machine, scale.time_to_original(p.start))
        for p in combinatorial_baseline(norm).placements
    ))
    report = validate_schedule(tiny, baseline)
    assert report.valid, report.violations
    assert report.makespan == pytest.approx(got.baseline_makespan, rel=1e-9)

PINNED_INSTANCES = {
    "random-7": lambda: gen_random_dag(7, 3, 0.4, (1, 4), (0.25, 1), 16.0, 5),
    "layered-2-2": lambda: gen_layered_gap(2, 2, 0),
    "random-12": lambda: gen_random_dag(12, 3, 0.35, (1, 4), (0.25, 1), 4.0, 3),
    "rho-0": lambda: gen_random_dag(8, 2, 0.4, (1, 4), (0.25, 1), 0.0, 1),
}

# (instance, kind): (highs_input_digest, sha256 of export_lp_text), the
# time-indexed models at horizon 8
PINNED_ALTERNATES = {
    ("random-7", "same_machine"): (
        "bacabff9e217420da014675445538c6c967629fbc725c5e9325281c5503f8e22",
        "801de57dafae72fa4d78f7f221b79dfdda2f5b615d47f213d3b7e455e2d1e621",
    ),
    ("random-7", "same_phase"): (
        "f954fbceecf9b811e07c3df49ca6d361029e44a9a4a0f8588e8331ba0aec7687",
        "5d85cf7af3ec944bae1f579426153fa5d6fde169282ca365ed6da0d8f48507f6",
    ),
    ("random-7", "time_indexed"): (
        "3cd231e58e58dd44317e84d4da37910ef3d8a9e288de4793c17e9030acc5a283",
        "f5d264f8bddc6bb6786e12bd1fe2802d2341ccbbbee1f37977b85f247e380395",
    ),
    ("layered-2-2", "same_machine"): (
        "4237405c3bc8a2b79d793ed987399b053bce3e9a31d51cdc515bd0a45295fc8d",
        "694fd9c5313f77a27feddb067a6cdb9b0aacd35de24df6864ed4ec0bac504aa9",
    ),
    ("layered-2-2", "same_phase"): (
        "fb9208705388c53329c1561ba11b8908ce65a096d39008f75f6d8f915434e010",
        "c754fe37ab332ce8428d28a62cc8c2623e2a454d64551ad35b8c7ab53773d8b4",
    ),
    ("layered-2-2", "time_indexed"): (
        "cf854338dfa7473c299a57d6dc2f96335a505148cf4ffb7d73c5c1656f94a288",
        "7ef5663bf047a67b1559a44c92f7991a0256f10992dedf40475c73273b17e96e",
    ),
    ("random-12", "same_machine"): (
        "40cfba27b00d6369dd6f71933457160242d41c6f2d03b76358f4bb51be8d001b",
        "33e5c6c478620b97359d49cfb56848f2ce34265ff50ca3ac04aa7181dc9d8268",
    ),
    ("random-12", "same_phase"): (
        "b1d6f2cba9dfcc5b93202ace4b56fb6ec806ec8041cae32551de7f7e87951aa4",
        "7126b4859c8148db5bf7805607d12bc79c6851786513d01ead31741efb199622",
    ),
    ("random-12", "time_indexed"): (
        "f14717ca76df09231ab9da6c468bd8dbcf2ebe1c5621a5cadc991ae7934c48d1",
        "61816b6c757f7525847e02136dbb55fee9d96ab8682d35ebf3e6c1bda16069fb",
    ),
    ("rho-0", "same_machine"): (
        "69b14d9a2c668612b7a3a727b293f43bd0abb1e91f463bb4ca33259b8b3991dc",
        "e25c46531d781dcebed75d9472dc47a47820f30545d9cfd1b390473f6c90c947",
    ),
    ("rho-0", "same_phase"): (
        "a5a291b4c529e61d17c888873699775e8ea5d95457f906793264f0121237f3a4",
        "976598d536c5326f560b44fafa046e106b677f55bb4648d21fd072ac0a7357cb",
    ),
    ("rho-0", "time_indexed"): (
        "231fbe33011871a1f73e89dc7ac4d04c0f9e6c1d219bcd2318dc4175b3b5631e",
        "15cd248c2205c1fed13841c2b94b752f8e4286fd857f3fcf9d21f6676c0b54ef",
    ),
}


@pytest.mark.parametrize("key", list(PINNED_ALTERNATES), ids="-".join)
def test_alternate_models_are_pinned(key):
    # the HiGHS input pins each row's entry order as well as the values; the
    # LP text pins the names
    name, kind = key
    inst, _ = normalize_instance(PINNED_INSTANCES[name]())
    model = build_alternate_relaxation(inst, kind, horizon=8)
    text = hashlib.sha256(export_lp_text(model).encode()).hexdigest()
    assert (highs_input_digest(model), text) == PINNED_ALTERNATES[key]
