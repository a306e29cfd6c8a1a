"""Release gate: one test per shipped guarantee.

Each criterion below pins the fixture, the tolerance, and (where one is
advertised) the runtime budget.  A failure here means the package no
longer honors something the documentation promises, so these tests
assert published numbers directly instead of deriving them from the
code under test.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from scmkit.casecontrol import estimate_cc_or, simulate_case_control
from scmkit.diagnostics import homogeneity_report
from scmkit.docalc import NodePartition, verify_rule
from scmkit.estimands import (
    antibiotic_policy,
    iv_theta,
    iv_tsls,
    natural_indirect,
    odds_ratio,
    two_stage_direct,
)
from scmkit.examples import ExampleSpec, build_example
from scmkit.exogenous import DigitStream, uniforms_at
from scmkit.gaussian import (
    lg_condition,
    lg_moments,
    lg_sample,
    simpson_cont_model,
)
from scmkit.graph import Dag, check_backdoor, check_backdoor_extended
from scmkit.identify import adjust, eelworms_effect, frontdoor, gformula2
from scmkit.scm import (
    Cpt,
    Dataset,
    Domain,
    Intervention,
    JointTable,
    Scm,
    intervene,
    joint_distribution,
    restrict,
    sample,
)

from structures import (
    EELWORMS_ROLES,
    GFORMULA_ROLES,
    HIRING_ROLES,
    TWO_STAGE_ROLES,
    backdoor_model,
    diagonal_position,
    drift_dataset,
    drift_model,
    eelworms_model,
    expectation,
    fill,
    frontdoor_model,
    gformula_model,
    hiring_model,
    lord_report,
    simpson_cont_report,
    two_stage_model,
)
from test_docalc import first_values, random_dag, random_partition
from test_estimands import (
    assumed_covariate_model,
    policy_oracle,
    three_type_iv_model,
    two_stage_with_second_edge,
)
from test_exogenous import DIAGONAL_ROWS
from test_graph import (
    COLLIDER_EDGES,
    COLLIDER_NODES,
    FIG1_EDGES,
    FIG1_NODES,
    FIG1A_EDGES,
    FIG1A_NODES,
)

IV_ROLES = {"I": "I", "T": "T", "R": "R"}
OR_ROLES = {"X": "X", "T": "T", "R": "R"}


def law_tv(got: dict, want: dict) -> float:
    """Total variation between two value -> probability mappings."""
    keys = set(got) | set(want)
    return 0.5 * sum(abs(float(got.get(k, 0)) - float(want.get(k, 0))) for k in keys)


def do_law(scm: Scm, assignments: dict, node: str, given: dict | None = None) -> dict:
    """Marginal of `node` in the mutilated model, optionally conditioned."""
    forced = intervene(scm, Intervention(assignments))
    table = restrict(joint_distribution(forced), (node,), given)
    return {cfg[0]: p for cfg, p in table.probs.items()}


def cond_law(joint: JointTable, node: str, given: dict) -> dict:
    table = restrict(joint, (node,), given)
    return {cfg[0]: p for cfg, p in table.probs.items()}


def test_criterion_01_binary_simpson_reversal_and_adjustment():
    start = time.perf_counter()

    # Float mode: the aggregate comparison reverses while every stratum
    # and the adjusted laws favor treatment.
    joint = joint_distribution(build_example(ExampleSpec("simpson_binary")))
    treated = cond_law(joint, "R", {"T": 1})[1]
    untreated = cond_law(joint, "R", {"T": 0})[1]
    assert abs(treated - 0.58) <= 1e-12
    assert abs(untreated - 0.60) <= 1e-12
    assert treated <= untreated
    adjusted = {t: adjust(joint, "T", t, "R", ("X",))[1] for t in (0, 1)}
    assert abs(adjusted[1] - 0.70) <= 1e-12
    assert abs(adjusted[0] - 0.45) <= 1e-12
    assert abs((adjusted[1] - adjusted[0]) - 0.25) <= 1e-12

    # Rational mode: the same numbers drop out exactly.
    exact = build_example(
        ExampleSpec(
            "simpson_binary",
            {
                "p": (
                    (Fraction(1, 5), Fraction(7, 10)),
                    (Fraction(1, 2), Fraction(9, 10)),
                ),
                "beta": Fraction(4, 5),
                "x0_weight": Fraction(1, 2),
            },
        )
    )
    joint = joint_distribution(exact)
    assert cond_law(joint, "R", {"T": 1})[1] == Fraction(29, 50)
    assert cond_law(joint, "R", {"T": 0})[1] == Fraction(3, 5)
    laws = {t: adjust(joint, "T", t, "R", ("X",)) for t in (0, 1)}
    assert laws[1][1] == Fraction(7, 10)
    assert laws[0][1] == Fraction(9, 20)
    assert laws[1][1] - laws[0][1] == Fraction(1, 4)

    assert time.perf_counter() - start < 1.0


def test_criterion_02_continuous_simpson_slopes():
    start = time.perf_counter()
    observational_want = math.sqrt(3.0) / 2.0 - 0.2

    model = simpson_cont_model(1.0, 0.2, 1.0, 0.0, 1.0, 1.0, 1.0)
    law = lg_moments(model)
    observational = (
        lg_condition(law, {"T": 1.0}).mean_of("R")
        - lg_condition(law, {"T": 0.0}).mean_of("R")
    )
    assert abs(observational - observational_want) <= 1e-9

    report = simpson_cont_report(1.0, 0.2, 1.0, 0.0, 1.0, 1.0, 1.0)
    assert abs(report["observational_slope"] - observational_want) <= 1e-9
    assert abs(report["causal_slope"] - (-0.2)) <= 1e-9

    # The reversal flag must track the sign of the observed slope.
    assert report["paradox"] is (observational_want > 0)
    steep = simpson_cont_report(1.0, 2.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    assert steep["paradox"] is False
    assert steep["observational_slope"] < 0

    # Seeded Monte Carlo regression agrees with the closed form.
    n = 100_000
    data = lg_sample(model, DigitStream(17), n)
    t = np.array(data.column("T"))
    r = np.array(data.column("R"))
    var_t = float(np.var(t))
    slope = float(np.cov(t, r)[0, 1] / var_t)
    residual = r - r.mean() - slope * (t - t.mean())
    stderr = math.sqrt(float(np.var(residual)) / (n * var_t))
    assert abs(slope - observational_want) <= 3 * stderr

    assert time.perf_counter() - start < 10.0


def test_criterion_03_lord_pre_post():
    report = lord_report(0.0, 1.0, 1.0, 0.5, 0.5)
    gain_mean, gain_var = report["gain_law"]
    assert abs(gain_mean - 0.0) <= 1e-9
    assert abs(gain_var - 1.0) <= 1e-9
    for t, mu in ((1, 0.0), (2, 1.0)):
        mean, var = report["group_laws"][t]
        assert abs(mean - mu) <= 1e-9
        assert abs(var - 1.0) <= 1e-9
        by_group = report["gain_law_by_group"][t]
        assert abs(by_group[0] - 0.0) <= 1e-9
        assert abs(by_group[1] - 1.0) <= 1e-9
    assert abs(report["mean_response"] - 0.5) <= 1e-9
    assert abs(report["var_response"] - 1.25) <= 1e-9
    assert abs(report["direct_difference"] - (-0.5)) <= 1e-9


def test_criterion_04_backdoor_criterion_on_the_reference_graphs():
    start = time.perf_counter()

    # Two-level graph: a set is admissible exactly when it holds X3 plus
    # at least one of X1, X2, X4, X5.
    fig1 = Dag(FIG1_NODES, FIG1_EDGES)
    pool = ("X1", "X2", "X3", "X4", "X5")
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            z = set(combo)
            want = "X3" in z and bool(z & {"X1", "X2", "X4", "X5"})
            assert check_backdoor(fig1, "T", "R", z).valid == want, sorted(z)
    assert not check_backdoor(fig1, "T", "R", {"X3"}).valid

    # Collider-only variant: the empty set blocks, X3 unblocks.
    collider = Dag(COLLIDER_NODES, COLLIDER_EDGES)
    assert check_backdoor(collider, "T", "R", set()).valid
    assert not check_backdoor(collider, "T", "R", {"X3"}).valid

    # Extended criterion with treatment descendants.  Merging X7 and X8
    # into the treatment swallows the X4 route, so admissibility needs
    # X3 plus one of X1, X2, X5, with no warnings.
    fig1a = Dag(FIG1A_NODES, FIG1A_EDGES)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            z = set(combo)
            report = check_backdoor_extended(fig1a, "T", "R", {"X7", "X8"}, z)
            want = "X3" in z and bool(z & {"X1", "X2", "X5"})
            assert report.valid == want, sorted(z)
            assert report.warnings == []

    # Deleting X6 and X9 removes response parents: still admissible, but
    # the verdict must warn that the conditioning overrules the effect.
    report = check_backdoor_extended(fig1a, "T", "R", {"X6", "X9"}, {"X1", "X3", "X5"})
    assert report.valid
    assert len(report.warnings) == 1
    assert "overrule" in report.warnings[0]

    assert time.perf_counter() - start < 1.0


def test_criterion_05_identification_formulas_match_mutilation_oracles():
    start = time.perf_counter()
    seeds = range(100)

    for seed in seeds:
        scm = backdoor_model(seed)
        joint = joint_distribution(scm)
        z = tuple(scm.dag.parents("T"))
        for t in (0, 1):
            got = adjust(joint, "T", t, "R", z)
            assert law_tv(got, do_law(scm, {"T": t}, "R")) <= 1e-12

    for seed in seeds:
        scm = frontdoor_model(seed)
        observed = restrict(joint_distribution(scm), ("Y", "Z", "W"))
        report = frontdoor(observed, "Y", "Z", "W")
        for y in (0, 1):
            got = {w: report.effect[y, w] for w in (0, 1)}
            assert law_tv(got, do_law(scm, {"Y": y}, "W")) <= 1e-12

    for seed in seeds:
        scm = eelworms_model(seed)
        observed = restrict(joint_distribution(scm), ("U", "X", "V", "W", "Y"))
        effect = eelworms_effect(observed, EELWORMS_ROLES)
        for x in (0, 1):
            got = {y: effect[x, y] for y in (0, 1)}
            assert law_tv(got, do_law(scm, {"X": x}, "Y")) <= 1e-12

    for seed in seeds:
        scm = gformula_model(seed)
        joint = joint_distribution(scm)
        for t, t2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = gformula2(joint, GFORMULA_ROLES, t, t2)
            want = do_law(scm, {"T": t, "T2": t2}, "R2")
            assert law_tv(got, want) <= 1e-12

    for seed in seeds:
        scm = two_stage_model(seed)
        joint = joint_distribution(scm)
        for y2, t in ((0, 0), (1, 1)):
            got = two_stage_direct(joint, TWO_STAGE_ROLES, y2, t)["law"]
            want = do_law(scm, {"Y2": y2}, "Y1", {"Y4": t})
            assert law_tv(got, want) <= 1e-12

    for seed in seeds:
        scm = two_stage_with_second_edge(seed)
        result = antibiotic_policy(joint_distribution(scm), TWO_STAGE_ROLES)
        oracle = joint_distribution(policy_oracle(scm))
        for y4 in (0, 1):
            got = {y1: result["law"][y1, y4] for y1 in (0, 1)}
            assert law_tv(got, cond_law(oracle, "Y1", {"Y4": y4})) <= 1e-12

    for seed in seeds:
        scm = hiring_model(seed)
        got = natural_indirect(joint_distribution(scm), HIRING_ROLES)
        oracle = joint_distribution(assumed_covariate_model(scm, {1: 1.0}))
        want = expectation(oracle, "H", {"S": 0}) - expectation(oracle, "H", {"S": 1})
        assert abs(got - want) <= 1e-12

    assert time.perf_counter() - start < 300.0


def test_criterion_06_instrumental_variables():
    # Exact three-type population: the instrument ratio equals the
    # complier effect, both as exact rationals.
    scm = three_type_iv_model()
    joint = joint_distribution(scm)
    result = iv_theta(joint, IV_ROLES)
    assert result.theta == Fraction(1, 2)
    late = expectation(
        joint_distribution(intervene(scm, Intervention({"T": 1}))), "R", {"D": 1}
    ) - expectation(
        joint_distribution(intervene(scm, Intervention({"T": 0}))), "R", {"D": 1}
    )
    assert late == Fraction(1, 2)
    assert result.theta == late

    # The slope-ratio identity holds on arbitrary numeric datasets.
    rng = np.random.default_rng(40)
    for _ in range(25):
        n = int(rng.integers(30, 200))
        i = rng.integers(0, 2, size=n).astype(float)
        t = rng.normal(size=n) + 0.7 * i + 0.2 * i * rng.normal(size=n)
        r = rng.normal(size=n) * (1 + 0.5 * i) + np.sin(t)
        result = iv_tsls(Dataset(("I", "T", "R"), list(zip(i, t, r))), IV_ROLES)
        assert abs(result.reduced_form / result.first_stage - result.theta) <= 1e-10

    # Planted confounding: the instrument recovers the structural slope
    # while least squares lands on the analytically biased value.
    beta, gamma = 0.7, 0.9
    n = 100_000
    rng = np.random.default_rng(6)
    u = rng.normal(size=n)
    i = rng.integers(0, 2, size=n).astype(float)
    t = 0.8 * i + u + 0.5 * rng.normal(size=n)
    r = beta * t + gamma * u + 0.5 * rng.normal(size=n)
    result = iv_tsls(Dataset(("I", "T", "R"), list(zip(i, t, r))), IV_ROLES)

    cov_it = float(np.cov(i, t)[0, 1])
    residual = r - float(result.theta) * t
    se_iv = math.sqrt(float(np.var(residual)) * float(np.var(i)) / n) / abs(cov_it)
    assert abs(float(result.theta) - beta) <= 3 * se_iv

    var_t_pop = 0.8**2 * 0.25 + 1.0 + 0.25
    planted_bias = gamma * 1.0 / var_t_pop
    var_t = float(np.var(t))
    ols = float(np.cov(t, r)[0, 1] / var_t)
    ols_residual = r - r.mean() - ols * (t - t.mean())
    se_ols = math.sqrt(float(np.var(ols_residual)) / (n * var_t))
    assert abs(ols - (beta + planted_bias)) <= 3 * se_ols
    assert abs(ols - beta) > 10 * se_ols


def test_criterion_07_odds_ratio_routes_and_case_control_recovery():
    # Both computations of the stratified odds ratio agree on random
    # strictly positive tables.
    rng = np.random.default_rng(3)
    for _ in range(1000):
        probs = {}
        for x in (0, 1):
            cells = rng.uniform(0.05, 1.0, size=4)
            cells /= 2.0 * cells.sum()
            for (t, r), mass in zip(
                ((0, 0), (0, 1), (1, 0), (1, 1)), cells
            ):
                probs[(x, t, r)] = float(mass)
        joint = JointTable(("X", "T", "R"), probs)
        report = odds_ratio(joint, OR_ROLES)
        for cell in report.per_x.values():
            a = cell["ratio_response_odds"]
            b = cell["ratio_exposure_odds"]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    # Matched pairs at scale recover the population exposure odds ratio
    # within three delta-method standard errors, stratum by stratum.
    population = build_example(ExampleSpec("case_control_pop"))
    pairs = simulate_case_control(population, 20_000, DigitStream(29))
    report = estimate_cc_or(pairs)
    counts = {x: {"a": 0, "b": 0, "c": 0, "d": 0} for x in (0, 1)}
    for (x, t, r), role in zip(pairs.rows, pairs.roles):
        key = ("a" if t else "b") if role == "case" else ("c" if t else "d")
        counts[x][key] += 1
    for x in (0, 1):
        cell = counts[x]
        estimate = report.per_x[x]["ratio_exposure_odds"]
        se_log = math.sqrt(sum(1.0 / cell[k] for k in "abcd"))
        assert abs(math.log(estimate) - math.log(3.5)) <= 3 * se_log


def test_criterion_08_rule_checks_imply_their_identities():
    cases = 0
    rule1_hits = 0
    rule2_hits = 0

    for seed in range(100):
        scm = fill(random_dag(seed, n=5), seed)
        part = random_partition(scm.dag, seed + 301)
        x = first_values(scm, part.x)
        verdict = verify_rule(scm, part, 1, x)
        cases += 1
        if verdict.condition_holds:
            assert verdict.identity_deviation <= 1e-12
            assert verdict.passed
            rule1_hits += 1

    for seed in range(100):
        scm = fill(random_dag(seed + 400, n=5), seed)
        part = random_partition(scm.dag, seed + 401)
        x = first_values(scm, part.x)
        z = first_values(scm, part.z)
        verdict = verify_rule(scm, part, 2, x, z)
        cases += 1
        if verdict.condition_holds:
            assert verdict.identity_deviation <= 1e-12
            assert verdict.passed
            rule2_hits += 1

    assert cases >= 200
    assert rule1_hits >= 3 and rule2_hits >= 3

    # Planted violations fail with a nonzero deviation witness.
    domains = {n: Domain(n, (0, 1)) for n in ("Z", "Y")}
    direct = Scm(
        Dag(["Z", "Y"], [("Z", "Y")]),
        domains,
        {
            "Z": Cpt("Z", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", ("Z",), {(0,): (0.9, 0.1), (1,): (0.1, 0.9)}),
        },
    )
    verdict = verify_rule(
        direct, NodePartition(w=set(), x=set(), y={"Y"}, z={"Z"}), 1, {}
    )
    assert not verdict.condition_holds
    assert not verdict.passed
    assert verdict.condition_deviation > 0
    assert verdict.identity_deviation > 0.1

    domains = {n: Domain(n, (0, 1)) for n in ("U", "Z", "Y")}
    confounded = Scm(
        Dag(["U", "Z", "Y"], [("U", "Z"), ("U", "Y")]),
        domains,
        {
            "U": Cpt("U", (), {(): (0.5, 0.5)}),
            "Z": Cpt("Z", ("U",), {(0,): (0.9, 0.1), (1,): (0.1, 0.9)}),
            "Y": Cpt("Y", ("U",), {(0,): (0.8, 0.2), (1,): (0.2, 0.8)}),
        },
    )
    verdict = verify_rule(
        confounded,
        NodePartition(w=set(), x=set(), y={"Y"}, z={"Z"}),
        2,
        {},
        {"Z": 1},
    )
    assert not verdict.condition_holds
    assert not verdict.passed
    assert verdict.condition_deviation > 0
    assert verdict.identity_deviation > 0.1


def test_criterion_09_diagnostics_false_alarms_and_power():
    false_alarms = 0
    for rep in range(100):
        data = sample(drift_model(0.0), DigitStream(1000 + rep), 600)
        false_alarms += homogeneity_report(data, ["X"], "T", "R", k=2).alarm
    assert false_alarms <= 5

    detections = 0
    for rep in range(20):
        data = drift_dataset(2000 + rep, 10_000, 0.3)
        detections += homogeneity_report(data, ["X"], "T", "R", k=2).alarm
    assert detections >= 18


def test_criterion_10_exogenous_streams():
    for row, expected in DIAGONAL_ROWS.items():
        got = [diagonal_position(row, col + 1) for col in range(len(expected))]
        assert got == expected

    n = 100_000
    for row in (1, 2, 3):
        draws = np.sort(uniforms_at(DigitStream(5), row, 0, n))
        grid = np.arange(n, dtype=float)
        distance = max(
            float(np.max((grid + 1.0) / n - draws)),
            float(np.max(draws - grid / n)),
        )
        assert distance <= 0.01
