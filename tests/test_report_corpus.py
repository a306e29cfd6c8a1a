"""Report bytes against their past: a committed corpus of command lines.

`report_corpus.jsonl` holds, after a header line with the model and data
files the command lines read, one line per invocation: its argv, exit
code, stdout, stderr and the text of any `--out` or `--model-out` file, as
the CLI gave them when the file was last written.  The test replays every
line through `main(argv)` in a scratch directory and requires the same
bytes.  A change that alters a line is a behaviour change; rewrite the file
with

    PYTHONPATH=src python tests/test_report_corpus.py

and list the changed argv in CHANGES.md.

The corpus covers every `WORKING` invocation of `test_replay.py` on its
home model, `example` on every catalog entry at three seeds (once with
`--model-out`) and the binned continuous entries at 2, 5 and 9 bins,
`sample` and `casecontrol` as reports and as CSV, `policy` on a model with
the Y4 -> Y2 edge, and failures with exit 1 and exit 2.  Every joint has
fewer configurations and every sample fewer draws than the numpy cutoffs
(`scm._STDLIB_DRAWS`), and `diagnose` and `iv --method tsls` are left out.
Only the continuous entries load numpy, through `gaussian`, and their
moments take elementwise products and sums alone.  So the bytes depend
only on IEEE doubles, CPython's `repr` and libm (`math.erfc` in the binned
entries, `log` and `sqrt` in the odds-ratio intervals), except that two
usage errors print argparse's text (at 80 columns) and a missing file the
operating system's message.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("report_corpus.jsonl")
SEEDS = (0, 3, 11)
BINS = (2, 5, 9)
HEADER = (
    "Report corpus of tests/test_report_corpus.py: argv, exit code, stdout, stderr and "
    "written files per line. Its bytes depend only on IEEE doubles, CPython's repr and "
    "libm, but for argparse's usage text and the OS's missing-file message. Regenerate "
    "with: PYTHONPATH=src python tests/test_report_corpus.py"
)


def invocations() -> tuple:
    """(files the command lines read, the command lines)."""
    from test_cli_contract import CATALOG, HOME
    from test_replay import WORKING

    from structures import TWO_STAGE_EDGES, TWO_STAGE_NODES, fill
    from scmkit.examples import ExampleSpec, build_example, list_examples
    from scmkit.graph import Dag
    from scmkit.scm import scm_to_json

    files = {
        f"{name}.json": scm_to_json(build_example(ExampleSpec(name, seed=seed)))
        for name, seed in CATALOG.items()
    }
    files["two_stage_edge.json"] = scm_to_json(
        fill(Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES + [("Y4", "Y2")]), 3)
    )
    doc = json.loads(files["fig1.json"])
    doc["nodes"][0]["table"].popitem()
    files["fig1_missing_row.json"] = json.dumps(doc)
    files["garbage.json"] = '{"nodes": 1}'

    argvs = [
        [command, "-m", f"{HOME.get(command, 'fig1')}.json", *args]
        for command, cases in WORKING.items()
        for args in cases
    ]
    names = [entry["name"] for entry in list_examples()]
    argvs.append(["example"])
    argvs += [["example", name, "--seed", str(seed)] for name in names for seed in SEEDS]
    argvs += [["example", name, "--seed", "11", "--model-out", "model_out.json"]
              for name in names]
    argvs += [["example", name, "--params", f"discrete=true,bins={bins}"]
              for name in ("simpson_continuous", "lord") for bins in BINS]
    for command, home in (("sample", "simpson_binary"), ("casecontrol", "case_control_pop")):
        for seed in ("1", "5"):
            line = [command, "-m", f"{home}.json", "--seed", seed, "--n", "4"]
            argvs += [line, line + ["--format", "csv"], line + ["--format", "csv", "--out",
                                                                "out.txt"]]
    argvs.append(["docalc", "-m", "fig1.json", "--rule", "2", "--y", "R", "--z", "T=1", "--w",
                  "X3,X4"])
    argvs.append(["policy", "-m", "two_stage_edge.json"])
    argvs.append(["policy", "-m", "two_stage_edge.json", "--out", "out.txt"])
    # Failures: exit 1 (a refused file, a failed check, a formula's error)
    # and exit 2 (usage).
    argvs += [
        ["validate", "-m", "fig1_missing_row.json"],
        ["joint", "-m", "missing.json"],
        ["joint", "-m", "garbage.json"],
        ["policy", "-m", "two_stage.json"],
        ["backdoor", "-m", "fig1.json", "-t", "T", "-r", "R", "-z", "X6"],
        ["docalc", "-m", "fig1.json", "--rule", "1", "--y", "R", "--z", "T=1"],
        ["effect", "-m", "simpson_binary.json", "-t", "T", "-r", "R", "--adjust", "Q",
         "--t-values", "0,1"],
        ["example", "fig1", "--params", "floor=-1"],
        ["joint", "-m", "simpson_binary.json", "--format", "csv"],
        ["joint", "-m", "simpson_binary.json", "--given", "T=9"],
        ["iv", "--method", "multi"],
        ["iv", "-m", "iv_binary.json", "--method", "tsls"],
        ["mediation", "-m", "hiring.json", "--sigma", "x=1"],
        ["gformula", "-m", "treatment_plan.json", "--t", "0"],
        ["sample", "-m", "simpson_binary.json", "--seed", "x", "--n", "3"],
    ]
    return files, argvs


def replay(files: dict, argvs: list) -> list:
    """One corpus line per command line, replayed in the working directory."""
    from test_replay import replay as transcripts

    corpus = {"shared": files, "cases": [{"argv": argv, "files": {}} for argv in argvs]}
    return [
        {"argv": argv, "code": code, "stdout": out, "stderr": err,
         "written": {name: data.decode("utf-8") for name, data in written.items()}}
        for argv, (code, out, err, written) in zip(argvs, transcripts(corpus))
    ]


def read_corpus() -> tuple:
    header, *lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return json.loads(header)["files"], [json.loads(line) for line in lines]


def test_every_line_replays_its_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    files, expected = read_corpus()
    got = replay(files, [line["argv"] for line in expected])
    changed = [want["argv"] for want, line in zip(expected, got) if want != line]
    assert changed == []


def test_the_file_holds_the_generators_lines():
    files, expected = read_corpus()
    want_files, argvs = invocations()
    assert files == want_files
    assert [line["argv"] for line in expected] == argvs
    codes = {line["code"] for line in expected}
    assert codes == {0, 1, 2}
    commands = {line["argv"][0] for line in expected if line["code"] == 0}
    assert len(commands) == 18 and "diagnose" not in commands
    assert any(line["written"] for line in expected)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(Path(__file__).parent))
    files, argvs = invocations()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        lines = replay(files, argvs)
    text = json.dumps({"header": HEADER, "files": files}) + "\n"
    text += "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    CORPUS.write_text(text, encoding="utf-8")
    print(f"{CORPUS}: {len(lines)} lines")
