"""Tests for the named estimands: two-stage direct effect, test-and-treat
policy, hiring mediation, natural indirect effect, instrumental variables,
and stratified odds ratios."""

from fractions import Fraction

import numpy as np
import pytest

from scmkit.errors import (
    InvalidArgumentError,
    PositivityError,
    WeakInstrumentError,
)
from scmkit.estimands import (
    IvResult,
    OddsRatioReport,
    antibiotic_policy,
    iv_multi,
    iv_theta,
    iv_tsls,
    mediation_fixed_sex,
    natural_indirect,
    odds_ratio,
    two_stage_direct,
)
from scmkit.graph import Dag
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
)

from structures import (
    HIRING_EDGES,
    HIRING_NODES,
    HIRING_ROLES,
    TWO_STAGE_EDGES,
    TWO_STAGE_NODES,
    TWO_STAGE_ROLES,
    expectation,
    fill,
    hiring_model,
    two_stage_model,
)

IV_ROLES = {"I": "I", "T": "T", "R": "R"}


def cond(joint, target, given):
    law = restrict(joint, (target,), given)
    return {cfg[0]: p for cfg, p in law.probs.items()}


# ---------------------------------------------------------------- two-stage


def two_stage_with_second_edge(seed: int) -> Scm:
    dag = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES + [("Y4", "Y2")])
    return fill(dag, seed)


def linear_two_stage() -> Scm:
    """Y1 has mean 0.5 + 0.4 t + 0.3 y2 + 0.6 u, encoded on values {0, 3}."""
    dag = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES)
    domains = {n: Domain(n, (0, 1)) for n in TWO_STAGE_NODES}
    domains["Y1"] = Domain("Y1", (0, 3))
    p31 = {(0, 0): 0.2, (0, 1): 0.4, (1, 0): 0.5, (1, 1): 0.7}
    cpts = {
        "Y4": Cpt("Y4", (), {(): (0.5, 0.5)}),
        "U": Cpt("U", (), {(): (0.6, 0.4)}),
        "Y3": Cpt(
            "Y3",
            ("U", "Y4"),
            {cfg: (1 - p, p) for cfg, p in p31.items()},
        ),
        "Y2": Cpt("Y2", ("Y3",), {(0,): (0.7, 0.3), (1,): (0.4, 0.6)}),
        "Y1": Cpt(
            "Y1",
            ("U", "Y2", "Y4"),
            {
                (u, y2, t): (1 - m / 3, m / 3)
                for u in (0, 1)
                for y2 in (0, 1)
                for t in (0, 1)
                for m in [0.5 + 0.4 * t + 0.3 * y2 + 0.6 * u]
            },
        ),
    }
    return Scm(dag, domains, cpts)


class TestTwoStageDirect:
    def test_linear_means_shift_by_slope_times_treatment(self):
        joint = joint_distribution(linear_two_stage())
        for y2 in (0, 1):
            nu = {
                t: two_stage_direct(joint, TWO_STAGE_ROLES, y2, t)["mean"]
                for t in (0, 1)
            }
            assert nu[1] - nu[0] == pytest.approx(0.4, abs=1e-12)

    def test_law_is_a_distribution(self):
        joint = joint_distribution(two_stage_model(3))
        law = two_stage_direct(joint, TWO_STAGE_ROLES, 1, 0)["law"]
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in law.values())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_edge", [False, True])
    def test_matches_intervention_oracle(self, seed, with_edge):
        scm = two_stage_with_second_edge(seed) if with_edge else two_stage_model(seed)
        joint = joint_distribution(scm)
        for y2 in (0, 1):
            do_joint = joint_distribution(intervene(scm, Intervention({"Y2": y2})))
            for t in (0, 1):
                want = cond(do_joint, "Y1", {"Y4": t})
                got = two_stage_direct(joint, TWO_STAGE_ROLES, y2, t)["law"]
                dev = max(
                    abs(got.get(y, 0) - want.get(y, 0))
                    for y in set(got) | set(want)
                )
                assert dev <= 1e-12

    def test_accepts_both_graph_shapes(self):
        base = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES)
        extended = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES + [("Y4", "Y2")])
        joint = joint_distribution(two_stage_model(0))
        for dag in (base, extended):
            two_stage_direct(joint, TWO_STAGE_ROLES, 0, 0, dag=dag)

    def test_rejects_wrong_graph_shape(self):
        joint = joint_distribution(two_stage_model(0))
        wrong = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES[:-1] + [("Y3", "Y1")])
        with pytest.raises(InvalidArgumentError):
            two_stage_direct(joint, TWO_STAGE_ROLES, 0, 0, dag=wrong)

    def test_rejects_two_latent_nodes(self):
        nodes = TWO_STAGE_NODES + ["U2"]
        dag = Dag(nodes, TWO_STAGE_EDGES + [("U2", "Y1")])
        joint = joint_distribution(fill(dag, 1))
        with pytest.raises(InvalidArgumentError, match="latent"):
            two_stage_direct(joint, TWO_STAGE_ROLES, 0, 0, dag=dag)

    def test_missing_role(self):
        joint = joint_distribution(two_stage_model(0))
        with pytest.raises(InvalidArgumentError, match="Y4"):
            two_stage_direct(joint, {"Y1": "Y1", "Y2": "Y2", "Y3": "Y3"}, 0, 0)


# ------------------------------------------------------------------- policy


def policy_oracle(scm: Scm) -> Scm:
    """Force the second treatment to 1 whenever the test is positive."""
    old = scm.cpts["Y2"]
    assert old.parents == ("Y3", "Y4")
    table = {
        cfg: ((0, 1) if cfg[0] == 1 else row) for cfg, row in old.table.items()
    }
    cpts = dict(scm.cpts)
    cpts["Y2"] = Cpt("Y2", old.parents, table)
    return Scm(scm.dag, scm.domains, cpts)


class TestAntibioticPolicy:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_mechanism_replacement_oracle(self, seed):
        scm = two_stage_with_second_edge(seed)
        joint = joint_distribution(scm)
        result = antibiotic_policy(joint, TWO_STAGE_ROLES, dag=scm.dag)
        want_joint = joint_distribution(policy_oracle(scm))
        for y4 in (0, 1):
            want = cond(want_joint, "Y1", {"Y4": y4})
            for y1 in (0, 1):
                got = result["law"][y1, y4]
                assert got == pytest.approx(want.get(y1, 0), abs=1e-12)
            assert result["means"][y4] == pytest.approx(
                expectation(want_joint, "Y1", {"Y4": y4}), abs=1e-12
            )

    def test_reports_whether_severe_patients_fare_worse(self):
        joint = joint_distribution(two_stage_with_second_edge(2))
        result = antibiotic_policy(joint, TWO_STAGE_ROLES)
        assert result["mean_at_1_lower"] == (
            result["means"][1] < result["means"][0]
        )

    def test_no_comparison_without_both_severities(self):
        # Y4 takes the one value 0, so there is no mean at 1 to compare.
        dag = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES + [("Y4", "Y2")])
        joint = joint_distribution(fill(dag, 2, sizes={"Y4": 1}))
        result = antibiotic_policy(joint, TWO_STAGE_ROLES)
        assert list(result["means"]) == [0]
        assert result["mean_at_1_lower"] is None

    def test_vacuous_policy_reproduces_observational_law(self):
        scm = two_stage_with_second_edge(4)
        scm = policy_oracle(scm)  # second treatment already follows the rule
        joint = joint_distribution(scm)
        result = antibiotic_policy(joint, TWO_STAGE_ROLES)
        for y4 in (0, 1):
            want = cond(joint, "Y1", {"Y4": y4})
            for y1 in (0, 1):
                assert result["law"][y1, y4] == pytest.approx(
                    want.get(y1, 0), abs=1e-12
                )

    def test_ignored_treatment_reproduces_observational_law(self):
        scm = two_stage_with_second_edge(5)
        old = scm.cpts["Y1"]
        i = old.parents.index("Y2")
        table = {
            cfg: old.table[tuple(0 if j == i else v for j, v in enumerate(cfg))]
            for cfg in old.table
        }
        cpts = dict(scm.cpts)
        cpts["Y1"] = Cpt("Y1", old.parents, table)
        joint = joint_distribution(Scm(scm.dag, scm.domains, cpts))
        result = antibiotic_policy(joint, TWO_STAGE_ROLES)
        for y4 in (0, 1):
            want = cond(joint, "Y1", {"Y4": y4})
            for y1 in (0, 1):
                assert result["law"][y1, y4] == pytest.approx(
                    want.get(y1, 0), abs=1e-12
                )

    def test_requires_edge_from_severity_to_second_treatment(self):
        scm = two_stage_model(0)
        joint = joint_distribution(scm)
        with pytest.raises(InvalidArgumentError, match="shape"):
            antibiotic_policy(joint, TWO_STAGE_ROLES, dag=scm.dag)

    def test_requires_binary_test_and_treatment(self):
        dag = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES + [("Y4", "Y2")])
        joint = joint_distribution(fill(dag, 1, sizes={"Y2": 3}))
        with pytest.raises(InvalidArgumentError, match="Y2"):
            antibiotic_policy(joint, TWO_STAGE_ROLES)


# ---------------------------------------------------------------- mediation


def assumed_covariate_model(scm: Scm, sigma_dist: dict) -> Scm:
    """Rewire the decision to read an exogenous stand-in for the covariate."""
    nodes = list(HIRING_NODES) + ["SIGMA"]
    edges = [e for e in HIRING_EDGES if e != ("S", "H")] + [("SIGMA", "H")]
    dag = Dag(nodes, edges)
    domains = dict(scm.domains)
    domains["SIGMA"] = Domain("SIGMA", scm.domains["S"].values)
    row = tuple(sigma_dist.get(v, 0) for v in domains["SIGMA"].values)
    old = scm.cpts["H"]
    assert old.parents == ("B", "Q", "S")
    cpts = dict(scm.cpts)
    cpts["SIGMA"] = Cpt("SIGMA", (), {(): row})
    cpts["H"] = Cpt("H", ("B", "Q", "SIGMA"), dict(old.table))
    return Scm(dag, domains, cpts)


class TestMediationFixedSex:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_rewired_model_oracle(self, seed):
        scm = hiring_model(seed)
        joint = joint_distribution(scm)
        sigma = {0: 0.25, 1: 0.75}
        got = mediation_fixed_sex(joint, HIRING_ROLES, sigma, dag=scm.dag)
        oracle = joint_distribution(assumed_covariate_model(scm, sigma))
        for (h, b, q), p in got.items():
            want = cond(oracle, "H", {"B": b, "Q": q})
            assert p == pytest.approx(want.get(h, 0), abs=1e-12)

    def test_each_stratum_gets_a_distribution(self):
        joint = joint_distribution(hiring_model(7))
        got = mediation_fixed_sex(joint, HIRING_ROLES, {0: 0.5, 1: 0.5})
        by_bq = {}
        for (h, b, q), p in got.items():
            by_bq.setdefault((b, q), 0)
            by_bq[b, q] += p
        for total in by_bq.values():
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_differs_from_plain_conditional_when_covariate_matters(self):
        scm = strong_covariate_model()
        joint = joint_distribution(scm)
        got = mediation_fixed_sex(joint, HIRING_ROLES, {1: 1.0})
        dev = max(
            abs(p - cond(joint, "H", {"B": b, "Q": q}).get(h, 0))
            for (h, b, q), p in got.items()
        )
        assert dev > 0.01

    def test_weights_must_sum_to_one(self):
        joint = joint_distribution(hiring_model(0))
        with pytest.raises(InvalidArgumentError, match="sum"):
            mediation_fixed_sex(joint, HIRING_ROLES, {0: 0.5, 1: 0.6})

    def test_weight_on_impossible_stratum(self):
        scm = hiring_model(0)
        cpts = dict(scm.cpts)
        cpts["S"] = Cpt("S", (), {(): (1, 0)})
        joint = joint_distribution(Scm(scm.dag, scm.domains, cpts))
        with pytest.raises(PositivityError):
            mediation_fixed_sex(joint, HIRING_ROLES, {1: 1.0})

    def test_rejects_wrong_graph(self):
        joint = joint_distribution(hiring_model(0))
        wrong = Dag(HIRING_NODES, HIRING_EDGES[:-1])
        with pytest.raises(InvalidArgumentError, match="shape"):
            mediation_fixed_sex(joint, HIRING_ROLES, {0: 1.0}, dag=wrong)


def strong_covariate_model() -> Scm:
    """Hiring model where the decision leans hard on the covariate."""
    dag = Dag(HIRING_NODES, HIRING_EDGES)
    domains = {n: Domain(n, (0, 1)) for n in HIRING_NODES}
    h_rows = {
        (b, q, s): (0.8 - 0.6 * s, 0.2 + 0.6 * s)
        for b in (0, 1)
        for q in (0, 1)
        for s in (0, 1)
    }
    cpts = {
        "S": Cpt("S", (), {(): (0.5, 0.5)}),
        "B": Cpt("B", ("S",), {(0,): (0.7, 0.3), (1,): (0.3, 0.7)}),
        "Q": Cpt(
            "Q",
            ("B", "S"),
            {cfg: (0.5, 0.5) for cfg in [(0, 0), (0, 1), (1, 0), (1, 1)]},
        ),
        "H": Cpt("H", ("B", "Q", "S"), h_rows),
    }
    return Scm(dag, domains, cpts)


class TestNaturalIndirect:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_rewired_model_oracle(self, seed):
        scm = hiring_model(seed)
        joint = joint_distribution(scm)
        got = natural_indirect(joint, HIRING_ROLES, dag=scm.dag)
        oracle = joint_distribution(assumed_covariate_model(scm, {1: 1.0}))
        want = expectation(oracle, "H", {"S": 0}) - expectation(
            oracle, "H", {"S": 1}
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_when_decision_ignores_background_and_qualifications(self):
        joint = joint_distribution(strong_covariate_model())
        assert natural_indirect(joint, HIRING_ROLES) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_when_covariate_does_not_move_the_mediators(self):
        scm = hiring_model(2)
        cpts = dict(scm.cpts)
        for node in ("B", "Q"):
            old = scm.cpts[node]
            i = old.parents.index("S")
            table = {
                cfg: old.table[tuple(0 if j == i else v for j, v in enumerate(cfg))]
                for cfg in old.table
            }
            cpts[node] = Cpt(node, old.parents, table)
        joint = joint_distribution(Scm(scm.dag, scm.domains, cpts))
        assert natural_indirect(joint, HIRING_ROLES) == pytest.approx(
            0.0, abs=1e-12
        )

    @staticmethod
    def one_sided_model(s_without_b1: int) -> Scm:
        """B = 1 occurs only under S = 1 - s_without_b1; Q is always 0 and
        P(H=1 | b, q, s) = (1 + b)/4 + s/8."""
        half, zero, one = Fraction(1, 2), Fraction(0), Fraction(1)
        b_rows = {(s,): (one, zero) if s == s_without_b1 else (half, half) for s in (0, 1)}
        h_rows = {}
        for b in (0, 1):
            for q in (0, 1):
                for s in (0, 1):
                    p = Fraction(1 + b, 4) + Fraction(s, 8)
                    h_rows[b, q, s] = (1 - p, p)
        cpts = {
            "S": Cpt("S", (), {(): (half, half)}),
            "B": Cpt("B", ("S",), b_rows),
            "Q": Cpt("Q", ("B", "S"), {(b, s): (one, zero) for b in (0, 1) for s in (0, 1)}),
            "H": Cpt("H", ("B", "Q", "S"), h_rows),
        }
        domains = {n: Domain(n, (0, 1)) for n in HIRING_NODES}
        return Scm(Dag(HIRING_NODES, HIRING_EDGES), domains, cpts)

    def test_a_stratum_seen_under_s1_only_counts(self):
        # P(b, q | S=0) = {(0, 0): 1} and P(b, q | S=1) = {(0, 0): 1/2,
        # (1, 0): 1/2}: 3/8 (1 - 1/2) + 5/8 (0 - 1/2) = -1/8.
        joint = joint_distribution(self.one_sided_model(0))
        assert natural_indirect(joint, HIRING_ROLES) == Fraction(-1, 8)

    def test_a_stratum_seen_under_s0_only_needs_its_s1_law(self):
        # (B=1, Q=0) has mass under S=0 only, so E(H | 1, 0, S=1) is undefined.
        joint = joint_distribution(self.one_sided_model(1))
        with pytest.raises(PositivityError, match="B=1, Q=0, S=1"):
            natural_indirect(joint, HIRING_ROLES)

    def test_requires_binary_covariate(self):
        dag = Dag(HIRING_NODES, HIRING_EDGES)
        joint = joint_distribution(fill(dag, 3, sizes={"S": 3}))
        with pytest.raises(InvalidArgumentError, match="S"):
            natural_indirect(joint, HIRING_ROLES)

    def test_requires_numeric_outcome(self):
        scm = hiring_model(0)
        domains = dict(scm.domains)
        domains["H"] = Domain("H", ("no", "yes"))
        joint = joint_distribution(Scm(scm.dag, domains, scm.cpts))
        with pytest.raises(InvalidArgumentError, match="numeric"):
            natural_indirect(joint, HIRING_ROLES)


# ------------------------------------------------------- instrument: binary


def three_type_iv_model() -> Scm:
    """Exact-rational population with always-takers, compliers, and
    never-takers (type D = 0, 1, 2), a fair binary instrument, treatment
    determined by type and instrument, and Bernoulli responses."""
    half = Fraction(1, 2)
    dag = Dag(["D", "I", "T", "R"], [("D", "T"), ("I", "T"), ("D", "R"), ("T", "R")])
    domains = {
        "D": Domain("D", (0, 1, 2)),
        "I": Domain("I", (0, 1)),
        "T": Domain("T", (0, 1)),
        "R": Domain("R", (0, 1)),
    }
    t_rows = {}
    for d in (0, 1, 2):
        for i in (0, 1):
            t = 1 if d == 0 else (i if d == 1 else 0)
            t_rows[d, i] = (1 - t, t)
    means = {
        (0, 1): Fraction(1),
        (0, 0): half,
        (1, 1): Fraction(4, 5),
        (1, 0): Fraction(3, 10),
        (2, 1): Fraction(1, 5),
        (2, 0): Fraction(1, 10),
    }
    cpts = {
        "D": Cpt("D", (), {(): (Fraction(1, 5), half, Fraction(3, 10))}),
        "I": Cpt("I", (), {(): (half, half)}),
        "T": Cpt("T", ("D", "I"), t_rows),
        "R": Cpt("R", ("D", "T"), {cfg: (1 - m, m) for cfg, m in means.items()}),
    }
    return Scm(dag, domains, cpts)


class TestIvTheta:
    def test_three_type_population_exact(self):
        joint = joint_distribution(three_type_iv_model())
        assert expectation(joint, "R", {"I": 1}) == Fraction(63, 100)
        assert expectation(joint, "R", {"I": 0}) == Fraction(19, 50)
        result = iv_theta(joint, IV_ROLES)
        assert result.theta == Fraction(1, 2)
        assert result.numerator == Fraction(1, 4)
        assert result.denominator == Fraction(1, 2)
        assert result.valid

    def test_same_answer_after_marginalizing_the_type(self):
        joint = joint_distribution(three_type_iv_model())
        visible = restrict(joint, ("I", "T", "R"))
        assert iv_theta(visible, IV_ROLES).theta == Fraction(1, 2)

    def test_dataset_route(self):
        data = Dataset(("I", "T", "R"), [(0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)])
        result = iv_theta(data, IV_ROLES)
        assert result.theta == pytest.approx(0.0, abs=1e-12)
        assert result.denominator == pytest.approx(0.5, abs=1e-12)
        # R means 0 and 1/2, T means 1/2 and 1 in the two arms.
        data = Dataset(("I", "T", "R"), [(0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, 0)])
        result = iv_theta(data, IV_ROLES)
        assert (result.numerator, result.denominator, result.theta) == (0.5, 0.5, 1.0)

    def test_weak_instrument(self):
        data = Dataset(("I", "T", "R"), [(0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 0, 0)])
        with pytest.raises(WeakInstrumentError):
            iv_theta(data, IV_ROLES)

    def test_dataset_instrument_must_be_binary(self):
        data = Dataset(("I", "T", "R"), [(0, 0, 0), (2, 1, 1)])
        with pytest.raises(InvalidArgumentError, match="I"):
            iv_theta(data, IV_ROLES)

    def test_dataset_needs_both_arms(self):
        data = Dataset(("I", "T", "R"), [(1, 0, 0), (1, 1, 1)])
        with pytest.raises(InvalidArgumentError, match="arms"):
            iv_theta(data, IV_ROLES)
        data = Dataset(("I", "T", "R"), [(0, 0, 0), (0, 1, 1)])
        with pytest.raises(InvalidArgumentError, match="arms"):
            iv_theta(data, IV_ROLES)

    def test_result_consistency_guard(self):
        with pytest.raises(InvalidArgumentError, match="inconsistent"):
            IvResult(theta=2.0, numerator=1.0, denominator=1.0, valid=True)


# -------------------------------------------------- instrument: multi-level


MULTI_WEIGHTS = {0: 0.3, 1: 0.25, 2: 0.25, 3: 0.2}
MULTI_MEANS = {
    (0, 0): 0.1,
    (0, 1): 0.35,
    (1, 0): 0.2,
    (1, 1): 0.6,
    (2, 0): 0.15,
    (2, 1): 0.7,
    (3, 0): 0.25,
    (3, 1): 0.5,
}
MULTI_INSTRUMENT = {0: 0.5, 1: 0.3, 2: 0.2}


def threshold_iv_model(weights=None) -> Scm:
    """Latent threshold C; treatment taken exactly when the instrument
    level reaches the threshold."""
    weights = weights or MULTI_WEIGHTS
    dag = Dag(["C", "I", "T", "R"], [("C", "T"), ("I", "T"), ("C", "R"), ("T", "R")])
    domains = {
        "C": Domain("C", (0, 1, 2, 3)),
        "I": Domain("I", (0, 1, 2)),
        "T": Domain("T", (0, 1)),
        "R": Domain("R", (0, 1)),
    }
    t_rows = {}
    for c in range(4):
        for i in range(3):
            t = 1 if i >= c else 0
            t_rows[c, i] = (1 - t, t)
    cpts = {
        "C": Cpt("C", (), {(): tuple(weights[c] for c in range(4))}),
        "I": Cpt("I", (), {(): tuple(MULTI_INSTRUMENT[i] for i in range(3))}),
        "T": Cpt("T", ("C", "I"), t_rows),
        "R": Cpt(
            "R",
            ("C", "T"),
            {cfg: (1 - m, m) for cfg, m in MULTI_MEANS.items()},
        ),
    }
    return Scm(dag, domains, cpts)


def threshold_level_effect(ik: int) -> tuple:
    """Within-stratum effect and weight picked out by instrument level ik."""
    moved = [c for c in range(1, ik + 1)]
    num = sum(MULTI_WEIGHTS[c] * (MULTI_MEANS[c, 1] - MULTI_MEANS[c, 0]) for c in moved)
    den = sum(MULTI_WEIGHTS[c] for c in moved)
    return num, den


class TestIvMulti:
    def test_levels_match_latent_threshold_oracle(self):
        joint = joint_distribution(threshold_iv_model())
        result = iv_multi(joint, IV_ROLES, 0)
        for k, ik in enumerate((1, 2)):
            num, den = threshold_level_effect(ik)
            assert result.thetas[k] == pytest.approx(num / den, abs=1e-12)

    def test_aggregate_is_the_weighted_mixture(self):
        joint = joint_distribution(threshold_iv_model())
        result = iv_multi(joint, IV_ROLES, 0)
        assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)
        num = den = 0.0
        for ik in (1, 2):
            n, d = threshold_level_effect(ik)
            num += MULTI_INSTRUMENT[ik] * n
            den += MULTI_INSTRUMENT[ik] * d
        assert result.theta == pytest.approx(num / den, abs=1e-12)
        assert result.theta == pytest.approx(
            sum(t * w for t, w in zip(result.thetas, result.weights)), abs=1e-12
        )

    def test_binary_instrument_reduces_to_simple_ratio(self):
        joint = joint_distribution(three_type_iv_model())
        result = iv_multi(joint, IV_ROLES, 0)
        assert result.thetas == (Fraction(1, 2),)
        assert result.theta == Fraction(1, 2)

    def test_base_level_defaults_to_the_smallest(self):
        joint = joint_distribution(threshold_iv_model())
        assert iv_multi(joint, IV_ROLES) == iv_multi(joint, IV_ROLES, 0)

    def test_base_level_must_be_the_smallest(self):
        joint = joint_distribution(threshold_iv_model())
        with pytest.raises(InvalidArgumentError, match="smallest"):
            iv_multi(joint, IV_ROLES, 1)

    def test_base_level_must_exist(self):
        joint = joint_distribution(threshold_iv_model())
        with pytest.raises(InvalidArgumentError, match="support"):
            iv_multi(joint, IV_ROLES, -1)

    def test_level_that_moves_nothing(self):
        joint = joint_distribution(
            threshold_iv_model(weights={0: 0.5, 1: 0, 2: 0.25, 3: 0.25})
        )
        with pytest.raises(WeakInstrumentError, match="level 1"):
            iv_multi(joint, IV_ROLES, 0)


# -------------------------------------------------- instrument: least squares


class TestIvTsls:
    def test_exact_linear_response(self):
        data = Dataset(
            ("I", "T", "R"),
            [(0, 1.0, 3.0), (0, 2.0, 6.0), (1, 3.0, 9.0), (1, 4.0, 12.0)],
        )
        result = iv_tsls(data, IV_ROLES)
        assert result.theta == pytest.approx(3.0, abs=1e-12)
        assert result.first_stage == pytest.approx(2.0, abs=1e-12)
        assert result.reduced_form == pytest.approx(6.0, abs=1e-12)

    def test_slope_ratio_identity_on_noise(self):
        rng = np.random.default_rng(7)
        i = rng.integers(0, 2, size=400).astype(float)
        t = 0.8 * i + rng.normal(size=400)
        r = 1.7 * t + rng.normal(size=400)
        result = iv_tsls(Dataset(("I", "T", "R"), list(zip(i, t, r))), IV_ROLES)
        assert abs(result.reduced_form / result.first_stage - result.theta) <= 1e-10
        cov = np.cov(np.vstack([i, t, r]))
        assert result.theta == pytest.approx(cov[0, 2] / cov[0, 1], abs=1e-10)

    def test_weak_instrument(self):
        data = Dataset(("I", "T", "R"), [(0, 1.0, 0.0), (1, 1.0, 1.0)])
        with pytest.raises(WeakInstrumentError):
            iv_tsls(data, IV_ROLES)

    def test_needs_rows(self):
        with pytest.raises(InvalidArgumentError, match="rows"):
            iv_tsls(Dataset(("I", "T", "R"), [(0, 1.0, 1.0)]), IV_ROLES)


# --------------------------------------------------------------- odds ratio

OR_ROLES = {"R": "R", "T": "T", "X": "X"}


def stratified_table(strata: dict) -> JointTable:
    """Joint over (X, T, R) from per-stratum masses {x: {(t, r): mass}}."""
    probs = {}
    total = sum(sum(cells.values()) for cells in strata.values())
    for x, cells in strata.items():
        for (t, r), mass in cells.items():
            probs[x, t, r] = mass / total
    return JointTable(order=("X", "T", "R"), probs=probs)


REFERENCE_STRATUM = {(1, 1): 0.3, (0, 1): 0.2, (1, 0): 0.15, (0, 0): 0.35}
SECOND_STRATUM = {(1, 1): 0.2, (0, 1): 0.2, (1, 0): 0.15, (0, 0): 0.45}


class TestOddsRatio:
    def test_reference_exposure_rates(self):
        joint = stratified_table({0: REFERENCE_STRATUM})
        report = odds_ratio(joint, OR_ROLES)
        cell = report.per_x[0]
        assert cell["p"] == pytest.approx(0.6, abs=1e-12)
        assert cell["q"] == pytest.approx(0.3, abs=1e-12)
        assert cell["ratio_exposure_odds"] == pytest.approx(3.5, abs=1e-12)
        assert cell["ratio_response_odds"] == pytest.approx(3.5, abs=1e-12)
        assert report.overall == pytest.approx(3.5, abs=1e-12)

    def test_overall_averages_over_the_case_population(self):
        joint = stratified_table({0: REFERENCE_STRATUM, 1: SECOND_STRATUM})
        report = odds_ratio(joint, OR_ROLES)
        assert report.per_x[1]["ratio_exposure_odds"] == pytest.approx(
            3.0, abs=1e-12
        )
        # Case mass is 0.25 at x=0 and 0.2 at x=1.
        want = 3.5 * (0.25 / 0.45) + 3.0 * (0.2 / 0.45)
        assert report.overall == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_both_routes_equal_the_cross_ratio(self, seed):
        rng = np.random.default_rng(seed)
        cells = {
            (t, r): float(v)
            for (t, r), v in zip(
                [(1, 1), (0, 1), (1, 0), (0, 0)], rng.uniform(0.01, 1.0, size=4)
            )
        }
        joint = stratified_table({0: cells})
        report = odds_ratio(joint, OR_ROLES)
        total = sum(cells.values())
        c = {k: v / total for k, v in cells.items()}
        cross = (c[1, 1] * c[0, 0]) / (c[0, 1] * c[1, 0])
        for key in ("ratio_exposure_odds", "ratio_response_odds"):
            got = report.per_x[0][key]
            assert abs(got - cross) <= 1e-12 * max(1.0, abs(cross))

    def test_empty_cell_is_named(self):
        cells = dict(REFERENCE_STRATUM)
        cells[1, 1] = 0.0
        joint = stratified_table({0: REFERENCE_STRATUM, 1: cells})
        with pytest.raises(PositivityError, match="X=1"):
            odds_ratio(joint, OR_ROLES)

    def test_requires_binary_treatment(self):
        probs = {(0, t, r): 1 / 6 for t in (0, 1, 2) for r in (0, 1)}
        joint = JointTable(order=("X", "T", "R"), probs=probs)
        with pytest.raises(InvalidArgumentError, match="T"):
            odds_ratio(joint, OR_ROLES)

    def test_route_disagreement_guard(self):
        with pytest.raises(InvalidArgumentError, match="disagree"):
            OddsRatioReport(
                per_x={
                    0: {
                        "p": 0.6,
                        "q": 0.3,
                        "ratio_response_odds": 3.5,
                        "ratio_exposure_odds": 3.6,
                    }
                },
                overall=3.5,
            )
