"""End-to-end checks of the command-line surface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scmkit.casecontrol import export_sample, simulate_case_control
from scmkit.errors import DescendantConditioningError
from scmkit.estimands import iv_tsls, natural_indirect, odds_ratio
from scmkit.examples import ExampleSpec, build_example, list_examples
from scmkit.exogenous import DigitStream
from scmkit.cli import _build_parser, main
from scmkit.graph import check_backdoor
from scmkit.identify import eelworms_effect, frontdoor, gformula2
from scmkit.scm import (
    MAX_META_DEPTH,
    Cpt,
    Dataset,
    Domain,
    Scm,
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


def cli_process(argv, **env) -> subprocess.CompletedProcess:
    """`python -m scmkit.cli` in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, **env, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "scmkit.cli", *argv], env=env, capture_output=True, check=False
    )


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


@pytest.fixture()
def long_chain_path(tmp_path):
    """T <- A0 <- ... <- A1499 -> R plus T -> R: one back-door path of 1,502 nodes."""
    chain, halves = [f"A{i}" for i in range(1500)], [0.5, 0.5]
    links = [("T", "A0"), *zip(chain, chain[1:])]
    nodes = [{"id": a, "domain": [0, 1], "parents": [b], "table": {"0": halves, "1": halves}}
             for a, b in links]
    nodes.append({"id": chain[-1], "domain": [0, 1], "parents": [], "table": {"": halves}})
    nodes.append({"id": "R", "domain": [0, 1], "parents": ["T", chain[-1]],
                  "table": {f"{a}|{b}": halves for a in "01" for b in "01"}})
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"meta": {}, "nodes": nodes}))
    return str(path)


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

    def test_backdoor_reports_a_path_of_1502_nodes(self, capsys, long_chain_path):
        code, rep = report(capsys, "backdoor", "-m", long_chain_path, "-t", "T", "-r", "R")
        assert code == 1
        chain = " <- ".join(["T", *(f"A{i}" for i in range(1500))])
        assert rep["result"]["violating_paths"] == [f"{chain} -> R"]

    def test_adjust_sets_blocks_a_path_of_1502_nodes(self, capsys, long_chain_path):
        code, rep = report(
            capsys, "adjust-sets", "-m", long_chain_path, "-t", "T", "-r", "R", "--candidates", "A5"
        )
        assert code == 0
        assert rep["result"]["minimal_sets"] == [["A5"]]

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

    @pytest.mark.parametrize("argv, flag, key", [
        (["joint", "--targets", "R", "--given", "T=0,T=1"], "--given", "T"),
        (["intervene", "--set", "T=0,T=1"], "--set", "T"),
        (["docalc", "--rule", "1", "--y", "R", "--x", "T=0,T=1"], "--x", "T"),
        (["docalc", "--rule", "2", "--y", "R", "--x", "T=0", "--z", "X=0,X=1"], "--z", "X"),
        (["gformula", "--t", "0", "--t2", "1", "--roles", "T=T,T=X"], "--roles", "T"),
        (["mediation", "--sigma", "0=0.5,0=0.5"], "--sigma", "0"),
        (["example", "simpson_binary", "--params", "p=0.1,p=0.2"], "--params", "p"),
    ])
    def test_a_repeated_key_is_a_usage_error(self, capsys, tmp_path, argv, flag, key):
        # The last of two equal keys used to win without a word.
        if argv[0] != "example":
            path = tmp_path / "model.json"
            name = "hiring" if argv[0] == "mediation" else "simpson_binary"
            save_model(build_example(ExampleSpec(name)), path)
            argv = [argv[0], "-m", str(path), *argv[1:]]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} repeats {key!r}\n"

    @pytest.mark.parametrize("pair", ["T=", "=1"])
    def test_a_pair_without_a_key_or_a_value_is_a_usage_error(self, capsys, simpson_path, pair):
        code, out, err = run(capsys, "joint", "-m", simpson_path, "--given", pair)
        assert (code, out) == (2, "")
        assert err == f"error: --given expects k=v pairs, got {pair!r}\n"

    @pytest.mark.parametrize("command", ["validate", "joint"])
    def test_row_of_the_wrong_length_is_a_domain_failure(self, capsys, tmp_path, command):
        # Every row sums to 1, but A's row is too long and B's too short.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": [
            {"id": "A", "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.3, 0.2]}},
            {"id": "B", "domain": [0, 1, 2], "parents": ["A"],
             "table": {"0": [0.5, 0.5], "1": [1.0]}},
        ]}))
        code, rep = report(capsys, command, "-m", str(path))
        assert code == 1
        assert rep["error"] == "'A': row '' has length 3, not 2"
        assert rep["result"] is None

    @pytest.mark.parametrize("command", ["validate", "joint"])
    def test_two_domain_values_of_one_spelling_are_a_load_failure(self, capsys, tmp_path,
                                                                  command):
        # Read, the law would print both values' mass under one key.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": [
            {"id": "A", "domain": [1, "1"], "parents": [], "table": {"": [0.25, 0.75]}},
        ]}))
        code, rep = report(capsys, command, "-m", str(path))
        assert code == 1
        assert rep["error"] == "node 'A': domain values 1 and '1' are both written '1'"
        assert rep["result"] is None

    @pytest.mark.parametrize("command", ["validate", "joint"])
    def test_a_repeated_parent_is_a_load_failure(self, capsys, tmp_path, command):
        # The model cannot be built, so the file fails to load.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": [
            {"id": "A", "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.5]}},
            {"id": "B", "domain": [0, 1], "parents": ["A", "A"],
             "table": {"0|0": [0.5, 0.5], "1|1": [0.5, 0.5]}},
        ]}))
        code, rep = report(capsys, command, "-m", str(path))
        assert code == 1
        assert rep["error"] == "'B': duplicate parent in table"
        assert rep["result"] is None

    def test_a_node_of_forty_parents_and_one_row_fails_validation(self, capsys, tmp_path):
        # The model loads without visiting the 2**40 parent configurations.
        parents = [f"P{i:02d}" for i in range(40)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"nodes": [
            *({"id": p, "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.5]}} for p in parents),
            {"id": "Y", "domain": [0, 1], "parents": parents, "table": {"|".join("0" * 40): [0.5, 0.5]}},
        ]}))
        code, rep = report(capsys, "validate", "-m", str(path))
        assert code == 1
        assert rep["error"] == "model failed validation with 1 problem(s)"
        assert rep["result"] == {"ok": False, "problems": ["'Y': table has 1 rows, expected 1099511627776"]}

    def test_non_finite_cell_fails_diagnose(self, capsys, tmp_path):
        # Two nan responses in one block used to count as distinct values.
        rows_path = tmp_path / "rows.csv"
        rows_path.write_text("X,T,R\n0,0,1\n0,0,nan\n0,1,1\n0,1,nan\n")
        code, rep = report(
            capsys,
            "diagnose", "--data", str(rows_path),
            "--x-cols", "X", "--t-col", "T", "--r-col", "R", "--k", "2",
        )
        assert code == 1
        assert rep["error"].endswith("non-finite value 'nan'")
        assert rep["result"] is None

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "backdoor" in out

    @pytest.mark.parametrize("command", ["intervene", "example"])
    def test_an_unwritable_model_out_gives_a_bare_failure_report(
        self, capsys, simpson_path, tmp_path, command
    ):
        target = str(tmp_path / "missing" / "model.json")
        argv = {
            "intervene": ["intervene", "-m", simpson_path, "--set", "T=1"],
            "example": ["example", "fig1"],
        }[command]
        code, rep = report(capsys, *argv, "--model-out", target)
        assert code == 1
        assert "No such file or directory" in rep["error"]
        assert rep["result"] is None
        assert rep["citations"] == []

    @pytest.mark.parametrize("argv", [["validate"], ["sample", "--seed", "1", "--n", "5"],
                                      ["sample", "--seed", "1", "--n", "5", "--format", "csv"]])
    def test_an_unwritable_out_gives_a_bare_failure_report(
        self, capsys, simpson_path, tmp_path, argv
    ):
        target = str(tmp_path / "missing" / "report.json")
        code, rep = report(capsys, *argv, "-m", simpson_path, "--out", target)
        assert code == 1
        assert "No such file or directory" in rep["error"]
        assert rep["result"] is None
        assert rep["citations"] == []

    def test_a_rejected_sigma_gives_a_bare_failure_report(self, capsys, tmp_path):
        path = tmp_path / "hiring.json"
        save_model(build_example(ExampleSpec("hiring", seed=8)), path)
        code, rep = report(capsys, "mediation", "-m", str(path), "--sigma", "0=0.25,1=-5")
        assert code == 1
        assert rep["error"] == "assumed-covariate weights sum to -4.75"
        assert rep["result"] is None
        assert rep["citations"] == []

    def test_an_empty_model_path_is_a_domain_failure(self, capsys):
        # iv used to take an empty -m for a dataset path of None and raise.
        for command in ("iv", "validate"):
            code, rep = report(capsys, command, "-m", "")
            assert code == 1
            assert "No such file or directory" in rep["error"]

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

    @pytest.mark.parametrize("content, message", [
        (b"[" * 100_000 + b"]" * 100_000, "model is not valid JSON: maximum recursion depth"),
        (b'{"nodes": [' + b"1" * 5000 + b"]}", "model is not valid JSON: Exceeds the limit"),
        (b'\xff\xfe{"nodes": []}', "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["nested-100000-deep", "int-of-5000-digits", "not-utf-8"])
    def test_an_unreadable_model_file_is_a_domain_failure(self, capsys, tmp_path, content, message):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        code, rep = report(capsys, "validate", "-m", str(path))
        assert code == 1
        assert message in rep["error"]
        assert rep["result"] is None

    @pytest.mark.parametrize("argv", [["diagnose", "--x-cols", "X", "--t-col", "T", "--r-col", "R"],
                                      ["iv"]], ids=["diagnose", "iv"])
    def test_a_data_file_that_is_not_utf_8_is_a_domain_failure(self, capsys, tmp_path, argv):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"X,T,R,I\n0,1,\xff,1\n")
        code, rep = report(capsys, *argv, "--data", str(path))
        assert code == 1
        assert rep["error"] == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"
        )
        assert rep["result"] is None

    @pytest.mark.parametrize("depth, code", [(100, 0), (101, 1), (330, 1)])
    def test_intervene_writes_back_a_nested_meta_or_reports_a_failure(
        self, capsys, simpson_path, tmp_path, depth, code
    ):
        # A meta nested past MAX_META_DEPTH is refused at load, so every
        # command fails on it alike; one that loads is written back.
        with open(simpson_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["meta"] = meta = {}
        for _ in range(depth - 1):
            meta["a"] = meta = {}
        path = tmp_path / "deep_meta.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["validate"], ["intervene", "--set", "T=1"]):
            got, rep = report(capsys, argv[0], "-m", str(path), *argv[1:])
            assert got == code
            if code:
                assert rep["error"] == f"model document: 'meta' nests deeper than {MAX_META_DEPTH} levels"
                assert rep["result"] is None
        if not code:
            assert json.dumps(rep["result"]["model"]["meta"]) == json.dumps(doc["meta"])


def _pinned_help() -> dict:
    """{argv: text} from cli_help.txt, the --help output at 80 columns."""
    text = (Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")
    parts = re.split(r"^==> scmkit (.*) <==\n", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


PINNED_HELP = _pinned_help()


def test_help_pins_the_top_level_and_every_subcommand():
    commands = re.search(r"\{(.*)\}", PINNED_HELP["--help"]).group(1).split(",")
    assert len(commands) == 19
    assert list(PINNED_HELP) == ["--help"] + [f"{c} --help" for c in commands]


# argparse's layout changed in 3.13 ("-m, --model MODEL"), so the bytes are
# pinned on older interpreters and the option order on every one.
@pytest.mark.skipif(sys.version_info >= (3, 13), reason="help layout of argparse < 3.13")
@pytest.mark.parametrize("argv", list(PINNED_HELP))
def test_help_text_is_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv.split()) == (0, PINNED_HELP[argv], "")


def test_every_subcommand_keeps_its_pinned_option_order():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == [k.split()[0] for k in PINNED_HELP if k != "--help"]
    for name, sub in subparsers.choices.items():
        pinned = re.findall(r"^  (-[\w-]+)", PINNED_HELP[f"{name} --help"], flags=re.M)
        assert [a.option_strings[0] for a in sub._actions if a.option_strings] == pinned, name


def _drop(key, i=0):
    return lambda doc: doc["nodes"][i].pop(key)


def _set(key, value, i=0):
    return lambda doc: doc["nodes"][i].__setitem__(key, value)


def _first_row(value):
    def edit(doc):
        table = doc["nodes"][0]["table"]
        table[next(iter(table))][0] = value

    return edit


_MALFORMED = {
    "node-without-id": (_drop("id"), "node entry 0 lacks a 'id' field"),
    "node-without-table": (_drop("table", 2), "node 'X' lacks a 'table' field"),
    "domain-not-a-list": (_set("domain", 2), "node 'R': 'domain' must be a list, got int"),
    "nodes-not-a-list": (lambda doc: doc.update(nodes={"R": {}}), "'nodes' must be a list"),
    "string-probability": (_first_row("abc"), "'R': row '0|0' must be a list of numbers"),
}


@pytest.mark.parametrize("argv", [["validate"], ["joint"], ["sample", "--seed", "1", "--n", "20"]])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_model_documents_are_domain_failures(capsys, simpson_path, tmp_path, argv, case):
    edit, message = _MALFORMED[case]
    with open(simpson_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = report(capsys, *argv, "-m", str(path))
    assert code == 1
    assert message in rep["error"]
    assert rep["result"] is None


@pytest.mark.parametrize("argv", [["joint"], ["sample", "--seed", "1", "--n", "20"],
                                  ["sample", "--seed", "1", "--n", "0"]])
def test_a_missing_table_row_is_a_domain_failure(capsys, simpson_path, tmp_path, argv):
    with open(simpson_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["nodes"][0]["table"]["1|0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = report(capsys, *argv, "-m", str(path))
    assert code == 1
    assert rep["error"] == "'R': table lacks the row for parents ['T', 'X'] = [1, 0]"
    assert rep["result"] is None


@pytest.mark.parametrize("argv", [["validate"], ["joint"], ["sample", "--seed", "1", "--n", "2000"]])
@pytest.mark.parametrize("row, message", [
    ([0.2, 0.7], "'A': row '' sums to 0.8999999999999999, not 1"),
    ([1.2, -0.2], "'A': row '' has a negative probability"),
], ids=["short", "negative"])
def test_a_non_normalized_row_is_a_domain_failure(capsys, tmp_path, argv, row, message):
    doc = {"nodes": [{"id": "A", "domain": [0, 1], "parents": [], "table": {"": row}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = report(capsys, *argv, "-m", str(path))
    assert code == 1
    assert rep["error"] == message
    assert rep["result"] is None


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "lord", "--params", "mu1=NaN"],
        ["example", "fig1", "--params", "floor=NaN"],
        ["example", "lord", "--params", "group=2,mu2=-Infinity"],
        ["example", "smoking", "--params", "floor=Infinity"],
    ],
)
def test_non_finite_results_are_domain_failures(tmp_path, argv):
    target = tmp_path / "report.json"
    proc = cli_process([*argv, "--out", str(target)])
    assert proc.returncode == 1
    assert proc.stderr == b""
    rep = _strict_json(proc.stdout.decode("utf-8"))
    assert "non-finite" in rep["error"]
    parameter = argv[-1].split(",")[-1].split("=")[0]
    assert rep["error"].startswith(f"{parameter} is non-finite")
    assert rep["result"] is None
    assert not target.exists()


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("simpson_binary", "p=2", "p must be a 2x2 table indexed [t][x]"),
        ("simpson_binary", "x0_weight=[1]", "x0_weight must be a number, got [1]"),
        ("simpson_binary", 'x0_weight="a"', "x0_weight must be a number, got 'a'"),
        ("simpson_binary", "beta=nan", "beta must be a number, got 'nan'"),
        ("simpson_binary", 'beta="0.5"', "beta must be a number, got '0.5'"),
        ("case_control_pop", "recovery=3", "recovery must map all four (t, x) pairs"),
        ("case_control_pop", "uptake=3", "uptake must map x = 0 and x = 1"),
        ("fig1", "sizes=3", "sizes must map node names to domain sizes, got 3"),
        ("simpson_continuous", 'alpha="x"', "alpha must be a number, got 'x'"),
        # A comma, or a comma after an escaped quote, inside a JSON string
        # does not split the pairs.
        ("fig1", 'floor="x,y"', "floor must be a number, got 'x,y'"),
        ("fig1", r'floor="a\",b"', """floor must be a number, got 'a",b'"""),
        ("simpson_continuous", 'discrete=true,bins="x"', "bins must be an integer >= 2, got 'x'"),
        ("simpson_continuous", 'discrete=true,span="x"', "span must be a number, got 'x'"),
        ("lord", "rho=[1]", "rho must be a number, got [1]"),
        ("lord", "discrete=true,bins=1e400", "bins must be an integer >= 2, got inf"),
        ("fig1", "floor=" + "1" * 5000, "floor must be a number, got '" + "1" * 5000 + "'"),
        ("fig1", "floor=" + "[" * 100_000, "floor must be a number, got '" + "[" * 100_000 + "'"),
    ],
    ids=lambda v: v[:40],
)
def test_wrong_kind_params_are_failure_reports(capsys, name, params, message):
    code, out, err = run(capsys, "example", name, "--params", params)
    assert (code, err) == (1, "")
    rep = _strict_json(out)
    assert rep["error"] == message
    assert rep["result"] is None


@pytest.mark.parametrize(
    "name, params",
    [
        # Each would need more than MAX_JOINT_CONFIGS table cells.
        ("simpson_continuous", "discrete=true,bins=1000000000"),
        ("lord", "discrete=true,bins=216"),
        ("fig1", 'sizes={"X1":1000000000}'),
        ("fig1a", 'sizes={"T":4000,"X6":4000}'),
    ],
)
def test_oversized_state_spaces_are_refused_before_any_table(capsys, name, params):
    code, rep = report(capsys, "example", name, "--params", params)
    assert code == 1
    assert rep["error"] == "model tables would exceed 10000000 cells"


def test_a_fractional_bin_count_is_refused(capsys):
    code, rep = report(capsys, "example", "lord", "--params", "discrete=true,bins=2.7")
    assert code == 1
    assert rep["error"] == "bins must be an integer >= 2, got 2.7"


@pytest.mark.parametrize(
    "name, params, spec",
    [
        ("simpson_binary", "p=[[0.2,0.7],[0.5,0.9]], beta=0.8",
         ExampleSpec("simpson_binary", {"p": ((0.2, 0.7), (0.5, 0.9))})),
        ("fig1", 'sizes={"X1":3,"X2":3},floor=0.1',
         ExampleSpec("fig1", {"sizes": {"X1": 3, "X2": 3}, "floor": 0.1})),
    ],
)
def test_table_valued_params_pass_through_the_cli(capsys, tmp_path, name, params, spec):
    path = tmp_path / "model.json"
    code, rep = report(capsys, "example", name, "--params", params, "--model-out", str(path))
    assert code == 0
    assert load_model(path).cpts == build_example(spec).cpts


def test_a_comma_inside_a_json_string_does_not_split_params(capsys):
    code, rep = report(
        capsys, "example", "case_control_pop", "--params", 'x1_weight=0.25,recovery={"a,b":1}'
    )
    assert code == 1
    assert rep["error"] == "recovery must map all four (t, x) pairs"


@pytest.mark.parametrize("flag", ["--tol", "--threshold"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
def test_non_finite_float_options_are_usage_errors(capsys, fig1_path, flag, bad):
    argv = {
        "--tol": ["docalc", "-m", fig1_path, "--rule", "1", "--y", "R", "--z", "X3=0"],
        "--threshold": ["diagnose", "--data", "rows.csv", "--t-col", "T", "--r-col", "R"],
    }[flag]
    code, out, err = run(capsys, *argv, f"{flag}={bad}")
    assert code == 2
    assert out == ""
    assert "finite number" in err


@pytest.mark.parametrize("flag, bad", [
    (["--tol=-1e-300"], "-1e-300"), (["--tol=-1"], "-1"), (["--tol", "-1"], "-1"),
])
def test_a_negative_tolerance_is_a_usage_error(capsys, fig1_path, flag, bad):
    argv = ["docalc", "-m", fig1_path, "--rule", "1", "--y", "R", "--z", "X3=0"]
    code, out, err = run(capsys, *argv, *flag)
    assert code == 2
    assert out == ""
    assert f"expected a tolerance of at least 0, got {bad!r}" in err


@pytest.mark.parametrize("tol", ["0", "-0", "1e-12"])
def test_a_tolerance_of_zero_or_more_is_accepted(capsys, fig1_path, tol):
    argv = ["docalc", "-m", fig1_path, "--rule", "1", "--y", "R", "--z", "X3=0"]
    code, out, _ = run(capsys, *argv, f"--tol={tol}")
    assert code in (0, 1)
    assert json.loads(out)["result"]["tol"] == float(tol)


def test_module_entry_point_prints_the_in_process_report(capsys, simpson_path):
    argv = ["effect", "-m", simpson_path, "-t", "T", "-r", "R", "--adjust", "X",
            "--t-values", "0,1"]
    want = run(capsys, *argv)
    proc = cli_process(argv)
    assert (proc.returncode, proc.stdout.decode("utf-8")) == want[:2]
    assert want[1].startswith("{")


# Hash seeds 1 and 2 iterate these sets in different orders, so a check
# in set order names a different node under each.
@pytest.mark.parametrize("flags", [["-z", "X9,X7,Q1"], ["-z", "Q1", "--adjust-desc", "X9,X7"]])
def test_an_unknown_conditioning_node_report_is_the_same_in_every_process(fig1_path, flags):
    argv = ["backdoor", "-m", fig1_path, "-t", "T", "-r", "R", *flags]
    outs = [cli_process(argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert [p.returncode for p in outs] == [1, 1]
    assert outs[0].stdout == outs[1].stdout
    assert json.loads(outs[0].stdout)["error"] == "unknown node 'Q1'"


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

    def test_iv_multi_takes_an_unordered_instrument(self, capsys, tmp_path):
        # Levels 0 and "a" do not compare; the base level is the first in
        # str order, as in every support list.
        dag = Dag(["I", "T", "R"], [("I", "T"), ("T", "R")])
        domains = {"I": Domain("I", (0, "a")), "T": Domain("T", (0, 1)), "R": Domain("R", (0, 1))}
        cpts = {
            "I": Cpt("I", (), {(): (0.5, 0.5)}),
            "T": Cpt("T", ("I",), {(0,): (0.8, 0.2), ("a",): (0.3, 0.7)}),
            "R": Cpt("R", ("T",), {(0,): (0.6, 0.4), (1,): (0.2, 0.8)}),
        }
        path = tmp_path / "mixed.json"
        save_model(Scm(dag, domains, cpts), path)
        code, rep = report(capsys, "iv", "-m", str(path), "--method", "multi")
        assert code == 0
        assert rep["result"]["theta"] == pytest.approx(0.4, abs=1e-12)

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
