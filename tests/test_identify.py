from fractions import Fraction

import pytest

from scmkit.errors import InvalidArgumentError, PositivityError
from scmkit.graph import Dag
from scmkit.identify import (
    EffectReport,
    PropensityTable,
    adjust,
    ate,
    backdoor_effect,
    eelworms_effect,
    frontdoor,
    gformula2,
    gformula2_given_x,
    propensity_adjust,
    propensity_table,
)
from scmkit.scm import (
    Cpt,
    Domain,
    Intervention,
    JointTable,
    Scm,
    intervene,
    joint_distribution,
    restrict,
    total_variation,
)

from structures import (
    EELWORMS_ROLES,
    GFORMULA_ROLES,
    backdoor_model,
    eelworms_model,
    fill,
    frontdoor_model,
    gformula_model,
)
from test_scm import simpson_scm


def as_table(dist: dict, node: str) -> JointTable:
    return JointTable((node,), {(k,): v for k, v in dist.items()})


def do_marginal(scm: Scm, assignments: dict, node: str) -> JointTable:
    forced = intervene(scm, Intervention(assignments))
    return restrict(joint_distribution(forced), (node,))


def rational(scm: Scm) -> Scm:
    """The same graph with every table row turned into exact fractions."""
    cpts = {}
    for node, cpt in scm.cpts.items():
        table = {}
        for cfg, row in cpt.table.items():
            head = [Fraction(p).limit_denominator(100) for p in row[:-1]]
            table[cfg] = (*head, 1 - sum(head))
        cpts[node] = Cpt(node, cpt.parents, table)
    return Scm(scm.dag, scm.domains, cpts)


class TestAdjust:
    def test_simpson_fixture(self):
        joint = joint_distribution(simpson_scm())
        assert adjust(joint, "T", 1, "R", ("X",))[1] == pytest.approx(0.70, abs=1e-12)
        assert adjust(joint, "T", 0, "R", ("X",))[1] == pytest.approx(0.45, abs=1e-12)

    def test_empty_set_on_parentless_treatment(self):
        dag = Dag(["T", "R"], [("T", "R")])
        scm = fill(dag, seed=4)
        joint = joint_distribution(scm)
        got = adjust(joint, "T", 1, "R", ())
        want = restrict(joint, ("R",), {"T": 1})
        assert total_variation(as_table(got, "R"), want) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_valid_set_matches_interventional_oracle(self, seed):
        scm = backdoor_model(seed)
        joint = joint_distribution(scm)
        for t in (0, 1):
            got = adjust(joint, "T", t, "R", ("X3", "X1"))
            want = do_marginal(scm, {"T": t}, "R")
            assert total_variation(as_table(got, "R"), want) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_full_parent_set_always_works(self, seed):
        scm = backdoor_model(seed)
        joint = joint_distribution(scm)
        parents = tuple(scm.dag.parents("T"))
        for t in (0, 1):
            got = adjust(joint, "T", t, "R", parents)
            want = do_marginal(scm, {"T": t}, "R")
            assert total_variation(as_table(got, "R"), want) <= 1e-12

    def test_positivity_violation_names_stratum(self):
        scm = simpson_scm()
        scm.cpts["T"] = Cpt("T", ("X",), {(0,): (1.0, 0.0), (1,): (0.2, 0.8)})
        joint = joint_distribution(scm)
        with pytest.raises(PositivityError, match="X=0"):
            adjust(joint, "T", 1, "R", ("X",))

    def test_unknown_node(self):
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError):
            adjust(joint, "T", 1, "R", ("Q",))


class TestAte:
    def test_simpson_fixture(self):
        joint = joint_distribution(simpson_scm())
        assert ate(joint, "T", 1, 0, "R", ("X",)) == pytest.approx(0.25, abs=1e-12)

    def test_same_value_is_zero(self):
        joint = joint_distribution(simpson_scm())
        assert ate(joint, "T", 1, 1, "R", ("X",)) == 0.0

    def test_null_effect(self):
        # Response generated without looking at the treatment.
        dag = Dag(["X", "T", "R"], [("X", "T"), ("X", "R"), ("T", "R")])
        scm = fill(dag, seed=9)
        scm.cpts["R"] = Cpt(
            "R",
            ("T", "X"),
            {(t, x): (0.3 + 0.1 * x, 0.7 - 0.1 * x) for t in (0, 1) for x in (0, 1)},
        )
        joint = joint_distribution(scm)
        assert ate(joint, "T", 1, 0, "R", ("X",)) == pytest.approx(0.0, abs=1e-12)


class TestPropensity:
    def test_simpson_table(self):
        joint = joint_distribution(simpson_scm())
        table = propensity_table(joint, "T", ("X",))
        assert table.t_values == (0, 1)
        assert table.rows[(0,)] == pytest.approx((0.2, 0.8), abs=1e-12)
        assert table.rows[(1,)] == pytest.approx((0.8, 0.2), abs=1e-12)

    def test_injective_scores_reduce_to_adjust(self):
        joint = joint_distribution(simpson_scm(beta=0.7))
        for t in (0, 1):
            plain = adjust(joint, "T", t, "R", ("X",))
            grouped = propensity_adjust(joint, "T", t, "R", ("X",))
            assert plain[1] == pytest.approx(grouped[1], abs=1e-12)

    def test_shared_score_grouping_keeps_oracle(self):
        # x = 1 and x = 2 share an assignment vector but respond differently.
        dag = Dag(["X", "T", "R"], [("X", "T"), ("X", "R"), ("T", "R")])
        domains = {
            "X": Domain("X", (0, 1, 2)),
            "T": Domain("T", (0, 1)),
            "R": Domain("R", (0, 1)),
        }
        cpts = {
            "X": Cpt("X", (), {(): (0.5, 0.3, 0.2)}),
            "T": Cpt(
                "T", ("X",), {(0,): (0.3, 0.7), (1,): (0.6, 0.4), (2,): (0.6, 0.4)}
            ),
            "R": Cpt(
                "R",
                ("T", "X"),
                {
                    (0, 0): (0.9, 0.1),
                    (0, 1): (0.5, 0.5),
                    (0, 2): (0.2, 0.8),
                    (1, 0): (0.6, 0.4),
                    (1, 1): (0.3, 0.7),
                    (1, 2): (0.1, 0.9),
                },
            ),
        }
        scm = Scm(dag, domains, cpts)
        joint = joint_distribution(scm)
        table = propensity_table(joint, "T", ("X",))
        assert table.rows[(1,)] == pytest.approx(table.rows[(2,)], abs=1e-12)
        for t in (0, 1):
            got = propensity_adjust(joint, "T", t, "R", ("X",))
            want = do_marginal(scm, {"T": t}, "R")
            assert total_variation(as_table(got, "R"), want) <= 1e-12

    def test_simpson_fixture(self):
        joint = joint_distribution(simpson_scm())
        assert propensity_adjust(joint, "T", 1, "R", ("X",))[1] == pytest.approx(
            0.70, abs=1e-12
        )
        assert propensity_adjust(joint, "T", 0, "R", ("X",))[1] == pytest.approx(
            0.45, abs=1e-12
        )


class TestEffectReport:
    def test_simpson_report(self):
        joint = joint_distribution(simpson_scm())
        report = backdoor_effect(joint, "T", (1, 0), "R", ("X",))
        assert report.distributions[1][1] == pytest.approx(0.70, abs=1e-12)
        assert report.distributions[0][1] == pytest.approx(0.45, abs=1e-12)
        assert report.ate == pytest.approx(0.25, abs=1e-12)
        assert "R" in report.citation and "T" in report.citation

    def test_propensity_method(self):
        joint = joint_distribution(simpson_scm())
        report = backdoor_effect(joint, "T", (1, 0), "R", ("X",), method="propensity")
        assert report.ate == pytest.approx(0.25, abs=1e-12)

    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EffectReport(
                estimand="x",
                treatment="T",
                treatment_values=(0,),
                response="R",
                distributions={0: {0: 0.4, 1: 0.4}},
                ate=None,
                citation="",
            )

    def test_bad_method(self):
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError):
            backdoor_effect(joint, "T", (1, 0), "R", ("X",), method="magic")

    def test_propensity_rows_must_normalize(self):
        with pytest.raises(InvalidArgumentError):
            PropensityTable(("X",), "T", (0, 1), {(0,): (0.5, 0.6)})


class TestFrontdoor:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_latent_visible_sum(self, seed):
        scm = frontdoor_model(seed)
        full = joint_distribution(scm)
        observed = restrict(full, ("Y", "Z", "W"))
        report = frontdoor(observed, "Y", "Z", "W", dag=scm.dag)
        p_x = restrict(full, ("X",))
        for y in (0, 1):
            for w in (0, 1):
                oracle = sum(
                    restrict(full, ("W",), {"X": x, "Y": y}).probs.get((w,), 0)
                    * p
                    for (x,), p in p_x.probs.items()
                )
                assert report.effect[y, w] == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_interventional_oracle(self, seed):
        scm = frontdoor_model(seed, sizes={"Z": 3})
        observed = restrict(joint_distribution(scm), ("Y", "Z", "W"))
        report = frontdoor(observed, "Y", "Z", "W")
        for y in (0, 1):
            want = do_marginal(scm, {"Y": y}, "W")
            got = as_table({w: report.effect[y, w] for w in (0, 1)}, "W")
            assert total_variation(got, want) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_rational_tables_give_the_exact_oracle(self, seed):
        scm = rational(frontdoor_model(seed, sizes={"Z": 3}))
        observed = restrict(joint_distribution(scm), ("Y", "Z", "W"))
        report = frontdoor(observed, "Y", "Z", "W", dag=scm.dag)
        for y in (0, 1):
            want = do_marginal(scm, {"Y": y}, "W").probs
            got = {w: report.effect[y, w] for w in (0, 1)}
            assert got == {w: want[(w,)] for w in (0, 1)}
            assert all(isinstance(p, Fraction) for p in got.values())

    def test_intermediate_composes_to_effect(self):
        scm = frontdoor_model(21)
        observed = restrict(joint_distribution(scm), ("Y", "Z", "W"))
        report = frontdoor(observed, "Y", "Z", "W")
        for y in (0, 1):
            z_law = restrict(observed, ("Z",), {"Y": y})
            for w in (0, 1):
                composed = sum(
                    report.intermediate[z, w] * p for (z,), p in z_law.probs.items()
                )
                assert composed == pytest.approx(report.effect[y, w], abs=1e-14)

    def test_inert_mediator_gives_flat_effect(self):
        # W ignores Z, so setting the exposure cannot move W.
        scm = frontdoor_model(5)
        table = {
            (x, z): scm.cpts["W"].table[(x, 0)]
            for x in (0, 1)
            for z in (0, 1)
        }
        scm.cpts["W"] = Cpt("W", ("X", "Z"), table)
        observed = restrict(joint_distribution(scm), ("Y", "Z", "W"))
        report = frontdoor(observed, "Y", "Z", "W")
        for w in (0, 1):
            assert report.effect[0, w] == pytest.approx(report.effect[1, w], abs=1e-12)
            oracle = do_marginal(scm, {"Y": 0}, "W").probs[(w,)]
            assert report.effect[0, w] == pytest.approx(oracle, abs=1e-12)

    def test_deterministic_mediator_fails_positivity(self):
        scm = frontdoor_model(5)
        scm.cpts["Z"] = Cpt("Z", ("Y",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)})
        observed = restrict(joint_distribution(scm), ("Y", "Z", "W"))
        with pytest.raises(PositivityError):
            frontdoor(observed, "Y", "Z", "W")

    def test_structure_validation(self):
        scm = frontdoor_model(5)
        observed = restrict(joint_distribution(scm), ("Y", "Z", "W"))
        wrong = Dag(["X", "Y", "Z", "W"], [("X", "Y"), ("Y", "Z"), ("Z", "W")])
        with pytest.raises(InvalidArgumentError):
            frontdoor(observed, "Y", "Z", "W", dag=wrong)


class TestEelworms:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_latent_visible_sum(self, seed):
        scm = eelworms_model(seed)
        full = joint_distribution(scm)
        observed = restrict(full, ("U", "X", "V", "W", "Y"))
        effect = eelworms_effect(observed, EELWORMS_ROLES, dag=scm.dag)
        p_a = restrict(full, ("A",))
        for x in (0, 1):
            for y in (0, 1):
                oracle = sum(
                    restrict(full, ("Y",), {"X": x, "A": a}).probs.get((y,), 0) * p
                    for (a,), p in p_a.probs.items()
                )
                assert effect[x, y] == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_interventional_oracle(self, seed):
        scm = eelworms_model(seed, sizes={"V": 3})
        observed = restrict(joint_distribution(scm), ("U", "X", "V", "W", "Y"))
        effect = eelworms_effect(observed, EELWORMS_ROLES)
        for x in (0, 1):
            want = do_marginal(scm, {"X": x}, "Y")
            got = as_table({y: effect[x, y] for y in (0, 1)}, "Y")
            assert total_variation(got, want) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_rational_tables_give_the_exact_oracle(self, seed):
        scm = rational(eelworms_model(seed, sizes={"V": 3}))
        observed = restrict(joint_distribution(scm), ("U", "X", "V", "W", "Y"))
        effect = eelworms_effect(observed, EELWORMS_ROLES)
        for x in (0, 1):
            want = do_marginal(scm, {"X": x}, "Y").probs
            got = {y: effect[x, y] for y in (0, 1)}
            assert got == {y: want[(y,)] for y in (0, 1)}
            assert all(isinstance(p, Fraction) for p in got.values())

    def test_inert_yield_is_flat(self):
        scm = eelworms_model(3)
        scm.cpts["Y"] = Cpt(
            "Y",
            ("X", "V", "W"),
            {cfg: (0.35, 0.65) for cfg in scm.cpts["Y"].table},
        )
        observed = restrict(joint_distribution(scm), ("U", "X", "V", "W", "Y"))
        effect = eelworms_effect(observed, EELWORMS_ROLES)
        assert effect[0, 1] == pytest.approx(0.65, abs=1e-12)
        assert effect[1, 1] == pytest.approx(0.65, abs=1e-12)

    def test_missing_role(self):
        observed = restrict(
            joint_distribution(eelworms_model(3)), ("U", "X", "V", "W", "Y")
        )
        with pytest.raises(InvalidArgumentError):
            eelworms_effect(observed, {"X": "X", "U": "U", "V": "V", "W": "W"})


class TestGformula:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_double_mutilation(self, seed):
        scm = gformula_model(seed)
        joint = joint_distribution(scm)
        for t in (0, 1):
            for t2 in (0, 1):
                got = gformula2(joint, GFORMULA_ROLES, t, t2, dag=scm.dag)
                want = do_marginal(scm, {"T": t, "T2": t2}, "R2")
                assert total_variation(as_table(got, "R2"), want) <= 1e-12

    def test_conditional_variant_matches_mutilation(self):
        scm = gformula_model(12)
        joint = joint_distribution(scm)
        forced = intervene(scm, Intervention({"T": 1, "T2": 0}))
        want = restrict(joint_distribution(forced), ("R2",), {"X": 1})
        got = gformula2_given_x(joint, GFORMULA_ROLES, 1, 0, 1)
        assert total_variation(as_table(got, "R2"), want) <= 1e-12

    def test_inert_second_response(self):
        scm = gformula_model(7)
        scm.cpts["R2"] = Cpt(
            "R2",
            ("X2", "T2", "T"),
            {
                (x2, t2, t): (0.2 + 0.5 * x2, 0.8 - 0.5 * x2)
                for x2 in (0, 1)
                for t2 in (0, 1)
                for t in (0, 1)
            },
        )
        scm.cpts["X2"] = Cpt(
            "X2",
            ("X", "T", "R"),
            {
                (x, t, r): (0.3 + 0.4 * x, 0.7 - 0.4 * x)
                for x in (0, 1)
                for t in (0, 1)
                for r in (0, 1)
            },
        )
        joint = joint_distribution(scm)
        baseline = gformula2(joint, GFORMULA_ROLES, 0, 0)
        for t in (0, 1):
            for t2 in (0, 1):
                got = gformula2(joint, GFORMULA_ROLES, t, t2)
                assert got[1] == pytest.approx(baseline[1], abs=1e-12)

    def test_degenerate_second_stage_collapses_to_adjust(self):
        # With the second covariate and second treatment both frozen, the
        # two-stage formula reduces to one-stage adjustment of R2 on T.
        scm = gformula_model(15)
        scm.cpts["X2"] = Cpt(
            "X2",
            ("X", "T", "R"),
            {cfg: (1.0, 0.0) for cfg in scm.cpts["X2"].table},
        )
        scm.cpts["T2"] = Cpt(
            "T2",
            ("X2", "T", "R"),
            {cfg: (0.0, 1.0) for cfg in scm.cpts["T2"].table},
        )
        joint = joint_distribution(scm)
        for t in (0, 1):
            got = gformula2(joint, GFORMULA_ROLES, t, 1)
            want = adjust(joint, "T", t, "R2", ("X",))
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_structure_validation(self):
        scm = gformula_model(3)
        joint = joint_distribution(scm)
        wrong = Dag(GFORMULA_ROLES.values(), [("X", "T")])
        with pytest.raises(InvalidArgumentError):
            gformula2(joint, GFORMULA_ROLES, 0, 0, dag=wrong)

    def test_positivity_violation_named(self):
        scm = gformula_model(3)
        scm.cpts["T"] = Cpt("T", ("X",), {(0,): (1.0, 0.0), (1,): (0.2, 0.8)})
        joint = joint_distribution(scm)
        with pytest.raises(PositivityError, match="T=1"):
            gformula2(joint, GFORMULA_ROLES, 1, 0)
