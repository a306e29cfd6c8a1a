"""End-to-end checks of the command-line surface."""

import json
import os
import subprocess
import sys

import pytest

from scmkit.casecontrol import export_sample, simulate_case_control
from scmkit.errors import DescendantConditioningError
from scmkit.estimands import iv_tsls, natural_indirect, odds_ratio
from scmkit.examples import ExampleSpec, build_example, list_examples
from scmkit.exogenous import DigitStream
from scmkit.cli import main
from scmkit.graph import check_backdoor
from scmkit.identify import eelworms_effect, frontdoor, gformula2
from scmkit.scm import (
    Dataset,
    joint_distribution,
    load_model,
    restrict,
    sample,
    save_model,
)

from structures import TWO_STAGE_EDGES, TWO_STAGE_NODES, fill
from scmkit.graph import Dag


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture()
def simpson_path(tmp_path):
    path = tmp_path / "simpson.json"
    save_model(build_example(ExampleSpec("simpson_binary")), path)
    return str(path)


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    save_model(build_example(ExampleSpec("fig1", seed=3)), path)
    return str(path)


class TestReportShape:
    def test_reports_carry_the_standard_fields(self, capsys, simpson_path):
        code, rep = report(capsys, "validate", "-m", simpson_path)
        assert code == 0
        assert sorted(rep) == [
            "citations",
            "command",
            "error",
            "inputs",
            "result",
            "warnings",
        ]
        assert rep["command"] == "validate"
        assert rep["error"] is None
        assert rep["inputs"]["model"] == simpson_path

    def test_equal_invocations_produce_equal_bytes(self, capsys, simpson_path):
        argv = (
            "effect", "-m", simpson_path,
            "-t", "T", "-r", "R", "--adjust", "X", "--t-values", "0,1",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert first.endswith("\n")

    def test_out_redirects_the_report(self, capsys, simpson_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(
            capsys, "validate", "-m", simpson_path, "--out", str(target)
        )
        assert code == 0
        assert out == "" and err == ""
        assert json.loads(target.read_text())["result"] == {
            "ok": True,
            "problems": [],
        }


class TestEndToEndQueries:
    def test_adjusted_effect_recovers_the_stratified_means(
        self, capsys, simpson_path
    ):
        code, rep = report(
            capsys,
            "effect", "-m", simpson_path,
            "-t", "T", "-r", "R", "--adjust", "X", "--t-values", "0,1",
        )
        assert code == 0
        laws = rep["result"]["laws"]
        assert laws["1"]["1"] == pytest.approx(0.70, abs=1e-12)
        assert laws["0"]["1"] == pytest.approx(0.45, abs=1e-12)
        assert rep["result"]["ate"] == pytest.approx(0.25, abs=1e-12)

    def test_joint_conditional_shows_the_observational_reversal(
        self, capsys, simpson_path
    ):
        _, rep = report(
            capsys, "joint", "-m", simpson_path, "--targets", "R", "--given", "T=1"
        )
        treated = rep["result"]["probs"]["1"]
        _, rep = report(
            capsys, "joint", "-m", simpson_path, "--targets", "R", "--given", "T=0"
        )
        untreated = rep["result"]["probs"]["1"]
        assert treated == pytest.approx(0.58, abs=1e-12)
        assert untreated == pytest.approx(0.60, abs=1e-12)

    def test_backdoor_rejects_the_collider_alone(self, capsys, fig1_path):
        code, rep = report(
            capsys, "backdoor", "-m", fig1_path, "-t", "T", "-r", "R", "-z", "X3"
        )
        assert code == 1
        assert rep["result"]["valid"] is False
        assert rep["result"]["violating_paths"] == [
            "T <- X4 <- X1 -> X3 <- X2 -> X5 -> R"
        ]

    def test_backdoor_accepts_a_completed_set(self, capsys, fig1_path):
        code, rep = report(
            capsys, "backdoor", "-m", fig1_path, "-t", "T", "-r", "R", "-z", "X3,X5"
        )
        assert code == 0
        assert rep["result"]["valid"] is True

    def test_adjust_sets_lists_the_minimal_completions(self, capsys, fig1_path):
        code, rep = report(
            capsys, "adjust-sets", "-m", fig1_path, "-t", "T", "-r", "R"
        )
        assert code == 0
        assert rep["result"]["minimal_sets"] == [
            ["X1", "X3"], ["X2", "X3"], ["X3", "X4"], ["X3", "X5"]
        ]

    def test_intervene_model_roundtrips(self, capsys, simpson_path, tmp_path):
        cut_path = tmp_path / "cut.json"
        code, rep = report(
            capsys,
            "intervene", "-m", simpson_path, "--set", "T=1",
            "--model-out", str(cut_path),
        )
        assert code == 0
        cut = load_model(cut_path)
        law = restrict(joint_distribution(cut), ("R",))
        assert law.probs[(1,)] == pytest.approx(0.70, abs=1e-12)
        assert rep["result"]["model"] == json.loads(cut_path.read_text())


class TestTables:
    def test_sample_csv_matches_the_library_rows(self, capsys, simpson_path):
        code, out, _ = run(
            capsys,
            "sample", "-m", simpson_path,
            "--seed", "7", "--n", "5", "--format", "csv",
        )
        assert code == 0
        model = load_model(simpson_path)
        want = sample(model, DigitStream(7), 5)
        lines = out.splitlines()
        assert lines[0] == "X,T,R"
        assert lines[1:] == [",".join(str(v) for v in row) for row in want.rows]

    def test_sample_report_embeds_the_rows(self, capsys, simpson_path):
        _, rep = report(
            capsys, "sample", "-m", simpson_path, "--seed", "7", "--n", "5"
        )
        model = load_model(simpson_path)
        want = sample(model, DigitStream(7), 5)
        assert rep["result"]["columns"] == ["X", "T", "R"]
        assert rep["result"]["rows"] == [list(r) for r in want.rows]

    def test_casecontrol_csv_matches_export_sample(self, capsys, tmp_path):
        path = tmp_path / "pop.json"
        save_model(build_example(ExampleSpec("case_control_pop")), path)
        code, out, _ = run(
            capsys,
            "casecontrol", "-m", str(path),
            "--seed", "11", "--n", "8", "--format", "csv",
        )
        assert code == 0
        pairs = simulate_case_control(load_model(path), 8, DigitStream(11))
        assert out == export_sample(pairs)

    def test_csv_for_plain_reports_is_a_usage_error(self, capsys, simpson_path):
        code, out, err = run(
            capsys, "validate", "-m", simpson_path, "--format", "csv"
        )
        assert code == 2
        assert out == ""
        assert "row tables" in err


class TestErrors:
    def test_module_errors_surface_verbatim(self, capsys, fig1_path):
        with pytest.raises(DescendantConditioningError) as info:
            check_backdoor(load_model(fig1_path).dag, "T", "R", ["X6"])
        code, rep = report(
            capsys, "backdoor", "-m", fig1_path, "-t", "T", "-r", "R", "-z", "X6"
        )
        assert code == 1
        assert rep["error"] == str(info.value)
        assert rep["result"] is None

    def test_missing_model_file_is_a_domain_failure(self, capsys, tmp_path):
        code, rep = report(capsys, "validate", "-m", str(tmp_path / "no.json"))
        assert code == 1
        assert "no.json" in rep["error"]

    def test_error_reports_leave_out_files_unwritten(
        self, capsys, fig1_path, tmp_path
    ):
        target = tmp_path / "report.json"
        code, rep = report(
            capsys,
            "backdoor", "-m", fig1_path,
            "-t", "T", "-r", "R", "-z", "X6", "--out", str(target),
        )
        assert code == 1
        assert rep["error"]
        assert not target.exists()

    def test_unknown_domain_value_is_a_usage_error(self, capsys, simpson_path):
        code, out, err = run(
            capsys,
            "effect", "-m", simpson_path,
            "-t", "T", "-r", "R", "--t-values", "0,9",
        )
        assert code == 2
        assert out == ""
        assert "'9'" in err and "domain" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "backdoor" in out

    @pytest.mark.parametrize("command", ["validate", "joint"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_probability_is_a_domain_failure(
        self, capsys, simpson_path, tmp_path, command, bad
    ):
        with open(simpson_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["nodes"][0]["table"][next(iter(doc["nodes"][0]["table"]))][0] = float(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, command, "-m", str(path))
        assert code == 1
        assert err == ""
        rep = json.loads(out)
        assert "non-finite" in rep["error"]
        assert rep["result"] is None


def test_module_entry_point_prints_the_in_process_report(capsys, simpson_path):
    argv = ["effect", "-m", simpson_path, "-t", "T", "-r", "R", "--adjust", "X",
            "--t-values", "0,1"]
    want = run(capsys, *argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "scmkit.cli", *argv], env=env, capture_output=True, check=False
    )
    assert (proc.returncode, proc.stdout.decode("utf-8")) == want[:2]
    assert want[1].startswith("{")


class TestIdentificationCommands:
    def test_frontdoor_matches_the_module(self, capsys, tmp_path):
        path = tmp_path / "smoking.json"
        save_model(build_example(ExampleSpec("smoking", seed=5)), path)
        code, rep = report(capsys, "frontdoor", "-m", str(path))
        assert code == 0
        model = load_model(path)
        want = frontdoor(joint_distribution(model), "Y", "Z", "W", dag=model.dag)
        for (y, w), p in want.effect.items():
            assert rep["result"]["effect"][f"{y}|{w}"] == pytest.approx(
                p, abs=1e-12
            )

    def test_eelworms_matches_the_module(self, capsys, tmp_path):
        path = tmp_path / "eel.json"
        save_model(build_example(ExampleSpec("eelworms", seed=2)), path)
        code, rep = report(capsys, "eelworms", "-m", str(path))
        assert code == 0
        model = load_model(path)
        roles = {r: r for r in ("X", "U", "V", "W", "Y")}
        want = eelworms_effect(joint_distribution(model), roles, dag=model.dag)
        for (x, y), p in want.items():
            assert rep["result"]["effect"][f"{x}|{y}"] == pytest.approx(
                p, abs=1e-12
            )

    def test_gformula_matches_the_module(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        save_model(build_example(ExampleSpec("treatment_plan", seed=4)), path)
        code, rep = report(
            capsys, "gformula", "-m", str(path), "--t", "1", "--t2", "0"
        )
        assert code == 0
        model = load_model(path)
        roles = {r: r for r in ("X", "T", "R", "X2", "T2", "R2")}
        want = gformula2(joint_distribution(model), roles, 1, 0, dag=model.dag)
        for r2, p in want.items():
            assert rep["result"]["law"][str(r2)] == pytest.approx(p, abs=1e-12)

    def test_policy_reports_the_severity_comparison(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        dag = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES + [("Y4", "Y2")])
        save_model(fill(dag, 3), path)
        code, rep = report(capsys, "policy", "-m", str(path))
        assert code == 0
        means = rep["result"]["means"]
        assert rep["result"]["mean_at_1_lower"] == (means["1"] < means["0"])

    def test_direct_effect_reports_law_and_mean(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        save_model(build_example(ExampleSpec("two_stage", seed=6)), path)
        code, rep = report(
            capsys, "direct-effect", "-m", str(path), "--y2", "1", "--t", "0"
        )
        assert code == 0
        law = rep["result"]["law"]
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)
        assert rep["result"]["mean"] == pytest.approx(
            law["1"], abs=1e-12
        )

    def test_mediation_matches_the_module(self, capsys, tmp_path):
        path = tmp_path / "hiring.json"
        save_model(build_example(ExampleSpec("hiring", seed=8)), path)
        code, rep = report(capsys, "mediation", "-m", str(path))
        assert code == 0
        model = load_model(path)
        roles = {r: r for r in ("H", "B", "Q", "S")}
        want = natural_indirect(joint_distribution(model), roles, dag=model.dag)
        assert rep["result"]["natural_indirect"] == pytest.approx(want, abs=1e-12)

    def test_iv_tsls_matches_the_module(self, capsys, tmp_path):
        model_path = tmp_path / "iv.json"
        save_model(build_example(ExampleSpec("iv_binary", seed=9)), model_path)
        rows_path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "sample", "-m", str(model_path),
            "--seed", "21", "--n", "500", "--format", "csv",
            "--out", str(rows_path),
        )
        assert code == 0
        code, rep = report(
            capsys, "iv", "--data", str(rows_path), "--method", "tsls"
        )
        assert code == 0
        want = iv_tsls(Dataset.read_csv(rows_path), {r: r for r in ("I", "T", "R")})
        assert rep["result"]["theta"] == pytest.approx(float(want.theta), abs=1e-12)
        assert rep["result"]["first_stage"] == pytest.approx(
            float(want.first_stage), abs=1e-12
        )

    def test_iv_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "iv")
        assert code == 2
        assert "exactly one" in err

    def test_oddsratio_reports_both_strata(self, capsys, tmp_path):
        path = tmp_path / "pop.json"
        save_model(build_example(ExampleSpec("case_control_pop")), path)
        code, rep = report(capsys, "oddsratio", "-m", str(path))
        assert code == 0
        want = odds_ratio(
            joint_distribution(load_model(path)), {r: r for r in ("X", "T", "R")}
        )
        assert rep["result"]["overall"] == pytest.approx(want.overall, abs=1e-12)
        for x in ("0", "1"):
            assert rep["result"]["per_x"][x]["ratio_exposure_odds"] == (
                pytest.approx(3.5, abs=1e-9)
            )

    def test_docalc_passes_an_admissible_cut(self, capsys, fig1_path):
        code, rep = report(
            capsys,
            "docalc", "-m", fig1_path,
            "--rule", "2", "--y", "R", "--z", "T=1", "--w", "X3,X4",
        )
        assert code == 0
        assert rep["result"]["passed"] is True
        assert rep["result"]["identity_deviation"] <= 1e-12

    def test_docalc_failing_condition_exits_one(self, capsys, fig1_path):
        code, rep = report(
            capsys,
            "docalc", "-m", fig1_path,
            "--rule", "1", "--x", "T=1", "--y", "R", "--z", "X4=0", "--w", "X3",
        )
        assert code == 1
        assert rep["result"]["condition_holds"] is False
        assert rep["result"]["passed"] is False

    def test_diagnose_reads_a_table(self, capsys, simpson_path, tmp_path):
        rows_path = tmp_path / "rows.csv"
        run(
            capsys,
            "sample", "-m", simpson_path,
            "--seed", "3", "--n", "400", "--format", "csv",
            "--out", str(rows_path),
        )
        code, rep = report(
            capsys,
            "diagnose", "--data", str(rows_path),
            "--x-cols", "X", "--t-col", "T", "--r-col", "R", "--k", "2",
        )
        assert code == 0
        assert rep["result"]["alarm"] is False
        assert len(rep["result"]["pvalues"]) == 6


class TestExampleCommand:
    def test_listing_matches_the_library(self, capsys):
        code, rep = report(capsys, "example")
        assert code == 0
        assert rep["result"]["catalog"] == json.loads(
            json.dumps(list(list_examples()))
        )

    def test_model_out_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "fig1a.json"
        code, rep = report(
            capsys, "example", "fig1a", "--seed", "4", "--model-out", str(path)
        )
        assert code == 0
        assert load_model(path).cpts == build_example(
            ExampleSpec("fig1a", seed=4)
        ).cpts

    def test_gaussian_entries_embed_their_structure(self, capsys):
        code, rep = report(capsys, "example", "simpson_continuous")
        assert code == 0
        doc = rep["result"]["gaussian"]
        assert doc["nodes"] == ["R", "T", "X"]
        assert ["X", "T"] in doc["edges"]
        assert doc["coefficients"]["R"]["T"] == pytest.approx(-0.2)

    def test_gaussian_entries_refuse_model_out(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "example", "lord", "--model-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "discrete" in err

    def test_builder_errors_surface_verbatim(self, capsys):
        code, rep = report(
            capsys, "example", "simpson_binary", "--params", "beta=0.6"
        )
        assert code == 1
        assert "theta = 3.5" in rep["error"]
