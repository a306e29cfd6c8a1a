"""Tests for the example catalog and the linear-Gaussian discretizer."""

import json
import math
from fractions import Fraction

import pytest

from scmkit.errors import ConstraintError, InvalidArgumentError
from scmkit.examples import (
    ExampleSpec,
    build_example,
    discretize_lg,
    list_examples,
)
from scmkit.estimands import odds_ratio
from scmkit.gaussian import LinearGaussianScm, lg_intervene, lg_moments
from scmkit.identify import adjust, frontdoor
from scmkit.scm import (
    Intervention,
    Scm,
    intervene,
    joint_distribution,
    load_model,
    restrict,
    save_model,
    validate_scm,
)

from structures import expectation, lord_report

CATALOG_NAMES = (
    "simpson_binary",
    "simpson_continuous",
    "lord",
    "fig1",
    "fig1a",
    "two_stage",
    "smoking",
    "eelworms",
    "treatment_plan",
    "hiring",
    "iv_binary",
    "case_control_pop",
)

EXACT_SIMPSON = {
    "p": (
        (Fraction(1, 5), Fraction(7, 10)),
        (Fraction(1, 2), Fraction(9, 10)),
    ),
    "beta": Fraction(4, 5),
    "x0_weight": Fraction(1, 2),
}


FILE_SPECS = [
    ExampleSpec(name, seed=seed)
    for name in CATALOG_NAMES
    if name not in ("simpson_continuous", "lord")
    for seed in (0, 3)
] + [
    ExampleSpec(name, {"discrete": True, "bins": bins})
    for name in ("simpson_continuous", "lord")
    for bins in range(2, 18)
]


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


class TestCatalog:
    def test_exactly_the_twelve_names_in_stable_order(self):
        assert tuple(e["name"] for e in list_examples()) == CATALOG_NAMES

    def test_every_entry_documents_itself(self):
        for entry in list_examples():
            assert entry["summary"]
            assert entry["citation"]
            assert isinstance(entry["parameters"], dict)
            for label, doc in entry["parameters"].items():
                assert isinstance(label, str) and isinstance(doc, str) and doc

    def test_catalog_is_byte_stable(self):
        first = json.dumps(list_examples(), sort_keys=True)
        second = json.dumps(list_examples(), sort_keys=True)
        assert first == second

    def test_every_builder_output_validates(self):
        for name in CATALOG_NAMES:
            model = build_example(ExampleSpec(name, seed=1))
            if isinstance(model, Scm):
                assert validate_scm(model) == []
            else:
                assert isinstance(model, LinearGaussianScm)

    def test_unknown_name_is_rejected_with_the_catalog(self):
        with pytest.raises(InvalidArgumentError, match="simpson_binary"):
            ExampleSpec("simpson")

    def test_unknown_parameter_is_rejected_with_the_documented_ones(self):
        with pytest.raises(InvalidArgumentError, match="beta"):
            ExampleSpec("simpson_binary", {"slope": 2.0})


class TestModelFiles:
    @pytest.mark.parametrize(
        "spec",
        FILE_SPECS,
        ids=lambda spec: (
            f"{spec.name}-bins{spec.params['bins']}" if spec.params else f"{spec.name}-seed{spec.seed}"
        ),
    )
    def test_written_files_load_and_resave_to_the_same_bytes(self, spec, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_example(spec), path)
        text = path.read_text()
        save_model(load_model(path), path)
        assert path.read_text() == text


class TestSimpsonBinary:
    def test_default_fixture_reverses_in_aggregate_only(self):
        joint = joint_distribution(build_example(ExampleSpec("simpson_binary")))
        treated = restrict(joint, ("R",), {"T": 1}).probs[(1,)]
        untreated = restrict(joint, ("R",), {"T": 0}).probs[(1,)]
        assert treated == pytest.approx(0.58, abs=1e-12)
        assert untreated == pytest.approx(0.60, abs=1e-12)
        for x in (0, 1):
            helped = restrict(joint, ("R",), {"T": 1, "X": x}).probs[(1,)]
            unhelped = restrict(joint, ("R",), {"T": 0, "X": x}).probs[(1,)]
            assert helped > unhelped

    def test_adjusted_values_undo_the_reversal(self):
        joint = joint_distribution(build_example(ExampleSpec("simpson_binary")))
        assert adjust(joint, "T", 1, "R", ("X",))[1] == pytest.approx(0.70, abs=1e-12)
        assert adjust(joint, "T", 0, "R", ("X",))[1] == pytest.approx(0.45, abs=1e-12)

    def test_rational_parameters_stay_exact(self):
        model = build_example(ExampleSpec("simpson_binary", EXACT_SIMPSON))
        joint = joint_distribution(model)
        treated = restrict(joint, ("R",), {"T": 1}).probs[(1,)]
        untreated = restrict(joint, ("R",), {"T": 0}).probs[(1,)]
        assert treated == Fraction(29, 50)
        assert untreated == Fraction(3, 5)
        assert adjust(joint, "T", 1, "R", ("X",))[1] == Fraction(7, 10)
        assert adjust(joint, "T", 0, "R", ("X",))[1] == Fraction(9, 20)

    def test_weak_uptake_breaks_the_paradox_constraint(self):
        with pytest.raises(ConstraintError, match="theta = 3.5"):
            build_example(ExampleSpec("simpson_binary", {"beta": 0.6}))

    def test_broken_recovery_ordering_is_named(self):
        params = {"p": ((0.7, 0.2), (0.5, 0.9))}
        with pytest.raises(ConstraintError, match="ordering"):
            build_example(ExampleSpec("simpson_binary", params))

    def test_asymmetric_uptake_builds_without_paradox_mode(self):
        params = {"beta0": 0.7, "beta1": 0.4, "paradox": False}
        model = build_example(ExampleSpec("simpson_binary", params))
        joint = joint_distribution(model)
        assert restrict(joint, ("T",), {"X": 0}).probs[(1,)] == pytest.approx(0.7)
        assert restrict(joint, ("T",), {"X": 1}).probs[(1,)] == pytest.approx(0.4)

    def test_asymmetric_uptake_refuses_paradox_mode(self):
        params = {"beta0": 0.7, "beta1": 0.4}
        with pytest.raises(ConstraintError, match="symmetric"):
            build_example(ExampleSpec("simpson_binary", params))

    def test_asymmetric_uptake_must_decrease(self):
        params = {"beta0": 0.4, "beta1": 0.7, "paradox": False}
        with pytest.raises(ConstraintError, match="beta0 > beta1"):
            build_example(ExampleSpec("simpson_binary", params))

    def test_half_given_uptake_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="together"):
            build_example(ExampleSpec("simpson_binary", {"beta0": 0.7, "paradox": False}))


class TestContinuousEntries:
    def test_simpson_continuous_defaults_reproduce_the_slopes(self):
        model = build_example(ExampleSpec("simpson_continuous"))
        law = lg_moments(model)
        observational = law.cov_of("R", "T") / law.var_of("T")
        assert observational == pytest.approx(math.sqrt(3) / 2 - 0.2, abs=1e-9)
        frozen = {
            t: lg_moments(lg_intervene(model, "T", t)).mean_of("R")
            for t in (0.0, 1.0)
        }
        assert frozen[1.0] - frozen[0.0] == pytest.approx(-0.2, abs=1e-9)

    def test_lord_defaults_reproduce_the_report_values(self):
        build_example(ExampleSpec("lord"))
        report = lord_report(mu1=0.0, mu2=1.0, sigma=1.0, p=0.5, rho=0.5)
        assert report["gain_law"] == (pytest.approx(0.0), pytest.approx(1.0))
        assert report["group_laws"][1] == (pytest.approx(0.0), pytest.approx(1.0))
        assert report["group_laws"][2] == (pytest.approx(1.0), pytest.approx(1.0))
        assert report["mean_response"] == pytest.approx(0.5, abs=1e-9)
        assert report["var_response"] == pytest.approx(1.25, abs=1e-9)
        assert report["direct_difference"] == pytest.approx(-0.5, abs=1e-9)

    def test_lord_group_two_component_is_centered_at_mu2(self):
        model = build_example(ExampleSpec("lord", {"group": 2}))
        law = lg_moments(model)
        assert law.mean_of("X") == pytest.approx(1.0)
        assert law.mean_of("G") == pytest.approx(0.0)

    def test_bad_group_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="group"):
            build_example(ExampleSpec("lord", {"group": 3}))


class TestSeededEntries:
    @pytest.mark.parametrize(
        "name", ["fig1", "fig1a", "two_stage", "smoking", "eelworms",
                 "treatment_plan", "hiring", "iv_binary"]
    )
    def test_same_seed_same_model_new_seed_new_model(self, name):
        first = build_example(ExampleSpec(name, seed=4))
        again = build_example(ExampleSpec(name, seed=4))
        other = build_example(ExampleSpec(name, seed=5))
        assert first.cpts == again.cpts
        assert first.cpts != other.cpts

    def test_fig1_shape(self):
        model = build_example(ExampleSpec("fig1", seed=2))
        assert set(model.dag.nodes) == {"X1", "X2", "X3", "X4", "X5", "X6", "T", "R"}
        assert ("X3", "T") in model.dag.edges and ("T", "X6") in model.dag.edges

    def test_fig1a_extends_fig1(self):
        base = build_example(ExampleSpec("fig1", seed=2))
        extended = build_example(ExampleSpec("fig1a", seed=2))
        assert set(base.dag.edges) < set(extended.dag.edges)
        assert {"X7", "X8", "X9"} < set(extended.dag.nodes)

    def test_tables_are_strictly_positive(self):
        model = build_example(ExampleSpec("eelworms", seed=7))
        for cpt in model.cpts.values():
            for row in cpt.table.values():
                assert min(row) > 0

    def test_sizes_override(self):
        model = build_example(ExampleSpec("two_stage", {"sizes": {"Y3": 3}}, seed=1))
        assert len(model.domains["Y3"].values) == 3
        assert len(model.domains["Y1"].values) == 2

    def test_bad_sizes_are_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown nodes"):
            build_example(ExampleSpec("fig1", {"sizes": {"Q": 3}}, seed=1))
        with pytest.raises(InvalidArgumentError, match=">= 2"):
            build_example(ExampleSpec("fig1", {"sizes": {"T": 1}}, seed=1))

    def test_smoking_front_door_matches_the_do_oracle(self):
        model = build_example(ExampleSpec("smoking", seed=11))
        joint = joint_distribution(model)
        for y in (0, 1):
            report = frontdoor(joint, "Y", "Z", "W", dag=model.dag)
            oracle = joint_distribution(intervene(model, Intervention({"Y": y})))
            want = restrict(oracle, ("W",))
            got = {w: report.effect[(y, w)] for w in (0, 1)}
            dev = max(abs(got[w] - want.probs[(w,)]) for w in (0, 1))
            assert dev <= 1e-12


class TestCaseControlPopulation:
    def test_default_exposure_odds_ratio_is_three_and_a_half(self):
        joint = joint_distribution(build_example(ExampleSpec("case_control_pop")))
        report = odds_ratio(joint, {"R": "R", "T": "T", "X": "X"})
        for x in (0, 1):
            assert report.per_x[x]["ratio_exposure_odds"] == pytest.approx(
                3.5, abs=1e-9
            )
        assert report.overall == pytest.approx(3.5, abs=1e-9)

    def test_recovery_table_must_cover_all_arms(self):
        params = {"recovery": {(1, 0): 0.5, (0, 0): 0.2}}
        with pytest.raises(InvalidArgumentError, match="four"):
            build_example(ExampleSpec("case_control_pop", params))

    def test_degenerate_recovery_is_rejected(self):
        params = {
            "recovery": {(1, 0): 1.0, (0, 0): 0.2, (1, 1): 0.5, (0, 1): 0.2}
        }
        with pytest.raises(InvalidArgumentError, match=r"recovery\(1, 0\)"):
            build_example(ExampleSpec("case_control_pop", params))


class TestDiscretizeLg:
    def test_marginals_stay_close_to_the_binned_normal(self):
        continuous = build_example(ExampleSpec("simpson_continuous"))
        binned = build_example(ExampleSpec("simpson_continuous", {"discrete": True}))
        law = lg_moments(continuous)
        joint = joint_distribution(binned)
        for node in ("X", "T", "R"):
            mean, sd = law.mean_of(node), math.sqrt(law.var_of(node))
            cuts = [mean + sd * 4.0 * (2 * j / 16 - 1) for j in range(17)]
            exact = []
            for j in range(16):
                lo = norm_cdf((cuts[j] - mean) / sd) if j else 0.0
                hi = norm_cdf((cuts[j + 1] - mean) / sd) if j < 15 else 1.0
                exact.append(hi - lo)
            got = restrict(joint, (node,))
            values = binned.domains[node].values
            tv = 0.5 * sum(
                abs(got.probs.get((values[j],), 0) - exact[j]) for j in range(16)
            )
            assert tv <= 0.02

    def test_domains_are_bin_midpoints(self):
        binned = build_example(
            ExampleSpec("simpson_continuous", {"discrete": True, "bins": 8})
        )
        values = binned.domains["X"].values
        assert len(values) == 8
        steps = [b - a for a, b in zip(values, values[1:])]
        assert all(step == pytest.approx(steps[0], rel=1e-9) for step in steps)

    def test_zero_noise_node_gets_point_mass_rows(self):
        binned = build_example(ExampleSpec("lord", {"discrete": True, "bins": 8}))
        gain = binned.cpts["G"]
        for row in gain.table.values():
            assert sorted(row)[-1] == 1.0 and sum(row) == 1.0

    def test_interventional_means_survive_binning(self):
        continuous = build_example(ExampleSpec("simpson_continuous"))
        binned = discretize_lg(continuous, bins=32)
        value = binned.domains["T"].values[20]
        joint = joint_distribution(intervene(binned, Intervention({"T": value})))
        exact = lg_moments(lg_intervene(continuous, "T", value)).mean_of("R")
        assert expectation(joint, "R") == pytest.approx(exact, abs=0.05)

    def test_bad_grid_parameters_are_rejected(self):
        continuous = build_example(ExampleSpec("simpson_continuous"))
        with pytest.raises(InvalidArgumentError, match="bins"):
            discretize_lg(continuous, bins=1)
        with pytest.raises(InvalidArgumentError, match="span"):
            discretize_lg(continuous, span=0.0)
