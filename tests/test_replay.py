"""Report bytes do not depend on the interpreter's hash seed.

A fixed corpus of command-line invocations, drawn with a seeded generator
from the contract's flag and value tables, is replayed through `main(argv)`
in two fresh interpreters whose `PYTHONHASHSEED` differ.  Each invocation's
exit code, stdout, stderr and the bytes of any `--out` or `--model-out`
file must agree.  Run as a script, this file is the replaying child:

    python tests/test_replay.py CORPUS.json TRANSCRIPT.pickle

It replays the corpus in the working directory, where the invocations'
relative paths point.
"""

import contextlib
import io
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import scmkit

INVOCATIONS = 300
SEED = 20190731
WRITTEN = ("out.txt", "model_out.json")
# Arguments past `-m` that each command answers with a whole report on its
# undamaged home model (fig1 unless the contract's HOME says otherwise), so
# that a share of the corpus replays results, not only refusals.
WORKING = {
    "validate": [[]],
    "joint": [["--targets", "R", "--given", "T=1"], ["--targets", "T,R"], []],
    "intervene": [["--set", "T=1"], ["--set", "X3=0", "--model-out", "model_out.json"]],
    "sample": [["--seed", seed, "--n", n] for seed in ("0", "7") for n in ("3", "7")],
    "backdoor": [["-t", "T", "-r", "R", "-z", z] for z in ("X3", "X3,X4", "X1,X2", "")]
    + [["-t", "T", "-r", "R", "--adjust-desc", "X6"]],
    "adjust-sets": [["-t", "T", "-r", "R"], ["-t", "T", "-r", "R", "--candidates", "X3,X4"]],
    "effect": [["-t", "T", "-r", "R", "--adjust", "X", "--t-values", v] for v in ("0,1", "1,0")],
    "frontdoor": [[]],
    "eelworms": [[]],
    "gformula": [["--t", "0", "--t2", "1"], ["--t", "1", "--t2", "1"]],
    "direct-effect": [["--y2", "0", "--t", "1"], ["--y2", "1", "--t", "0"]],
    "mediation": [["--sigma", "0=0.25,1=0.75"], ["--sigma", "0=0.5,1=0.5"]],
    "iv": [["--method", method] for method in ("theta", "multi")],
    "oddsratio": [[]],
    "casecontrol": [["--seed", seed, "--n", n] for seed in ("0", "7") for n in ("2", "3")],
    "docalc": [["--rule", "1", "--y", "R", "--z", "X3=0"],
               ["--rule", "2", "--x", "T=1", "--y", "R", "--z", "X3=0", "--w", "X4"]],
}


def _damaged(rng, doc) -> str:
    """The model document, whole or with one part broken, as file text; the
    damage of the contract property, drawn from `rng`."""
    from test_cli_contract import DAMAGE

    doc = json.loads(json.dumps(doc))
    nodes = doc["nodes"]
    node = rng.choice(nodes)
    how = rng.choice(["none"] * 7 + ["drop", "entry", "row", "domain", "parents", "truncate",
                                     "garbage"])
    if how == "drop":
        nodes.remove(node)
    elif how == "entry":
        row = node["table"][rng.choice(sorted(node["table"]))]
        row[rng.randrange(len(row))] = rng.choice(DAMAGE)
    elif how == "row":
        node["table"].pop(rng.choice(sorted(node["table"])))
    elif how == "domain":
        node["domain"] = rng.choice([[], [0], [0, 0], ["a", "b"], [0, 1, 2], 3])
    elif how == "parents":
        node["parents"] = rng.choice([["nope"], [node["id"]], [], "X"])
    text = json.dumps(doc)
    if how == "truncate":
        return text[: rng.randrange(len(text))]
    if how == "garbage":
        return rng.choice(["", "null", "[]", "{}", "{\"nodes\": 1}", "\x00"])
    return text


def build_corpus() -> dict:
    """Shared files, then per invocation its argv and the files it reads."""
    # Imported here, so that the replaying child loads neither hypothesis
    # nor pytest.
    from test_cli_contract import (ALL_FLAGS, CATALOG, CSV_TEXTS, FLAGS, HOME, TABLE_PARAMS,
                                   VALUES)

    from scmkit.examples import ExampleSpec, build_example
    from scmkit.exogenous import DigitStream
    from scmkit.scm import sample, scm_to_json

    rng = random.Random(SEED)
    docs = {
        name: json.loads(scm_to_json(build_example(ExampleSpec(name, seed=seed))))
        for name, seed in CATALOG.items()
    }
    shared = {
        f"{name}.csv": sample(build_example(ExampleSpec(name, seed=seed)), DigitStream(7),
                              60).to_csv()
        for name, seed in [("simpson_binary", 0), ("iv_binary", 5)]
    }
    cases = []
    for _ in range(INVOCATIONS):
        command = rng.choice(sorted(FLAGS))
        if command in WORKING and rng.random() < 0.5:
            home = HOME.get(command, "fig1")
            argv = [command, "-m", f"{home}.json", *rng.choice(WORKING[command])]
            cases.append({"argv": argv, "files": {f"{home}.json": json.dumps(docs[home])}})
            continue
        flags = list(FLAGS[command])
        if rng.random() < 0.5:
            flags = [f for f in flags if rng.random() < 0.5]
        flags += [f for f in ("--out", "--format") if rng.randrange(4) == 2]
        if rng.randrange(10) == 5:
            flags.append(rng.choice(ALL_FLAGS))
        rng.shuffle(flags)
        argv, files, entry = [command], {}, None
        if command == "example" and rng.random() < 0.5:
            entry = rng.choice(sorted(TABLE_PARAMS) + ["nosuch"])
            argv.append(entry)
        for flag in flags:
            if flag == "-m":
                choice = rng.choice(["home"] * 5 + ["any"] * 3 + ["missing", "empty"])
                value = {"missing": "missing.json", "empty": ""}.get(choice, "model.json")
                if value == "model.json":
                    home = HOME.get(command, "fig1")
                    files[value] = _damaged(rng, docs[home if choice == "home" else
                                                      rng.choice(sorted(docs))])
            elif flag == "--data":
                value = rng.choice([*shared, "data.csv", "data.csv"])
                if value == "data.csv":
                    files[value] = rng.choice(CSV_TEXTS)
            elif flag in ("--out", "--model-out"):
                value = rng.choice([*WRITTEN, f"nodir/{rng.choice(WRITTEN)}"])
            elif flag == "--params" and entry in TABLE_PARAMS and rng.random() < 0.5:
                value = ",".join(rng.choices(TABLE_PARAMS[entry], k=rng.randint(1, 3)))
            else:
                value = rng.choice(VALUES[flag])
            argv += [flag, value]
        cases.append({"argv": argv, "files": files})
    return {"shared": shared, "cases": cases}


def replay(corpus: dict) -> list:
    """(exit code, stdout, stderr, written files' bytes) per invocation."""
    from scmkit.cli import main

    for name, text in corpus["shared"].items():
        Path(name).write_text(text, encoding="utf-8")
    transcript = []
    for case in corpus["cases"]:
        for name, text in case["files"].items():
            Path(name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case["argv"])
        written = {}
        for name in WRITTEN:
            if os.path.exists(name):
                written[name] = Path(name).read_bytes()
                os.remove(name)
        transcript.append((code, out.getvalue(), err.getvalue(), written))
    return transcript


def test_two_hash_seeds_replay_the_same_bytes(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(build_corpus()), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scmkit.__file__)))
    children = {}
    for hash_seed in ("1", "2"):
        workdir = tmp_path / f"hash{hash_seed}"
        workdir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        children[hash_seed] = subprocess.Popen(
            [sys.executable, __file__, str(corpus), "transcript.pickle"], cwd=workdir, env=env,
            stderr=subprocess.PIPE, text=True,
        )
    transcripts = []
    for hash_seed, child in children.items():
        _, err = child.communicate()
        assert child.returncode == 0, err
        transcripts.append(pickle.loads((tmp_path / f"hash{hash_seed}/transcript.pickle")
                                        .read_bytes()))

    cases = json.loads(corpus.read_text(encoding="utf-8"))["cases"]
    assert len(transcripts[0]) == len(transcripts[1]) == len(cases) == INVOCATIONS
    for case, first, second in zip(cases, *transcripts):
        assert first == second, case["argv"]
    assert {code for code, *_ in transcripts[0]} >= {0, 1, 2}
    assert any(written for *_, written in transcripts[0])


if __name__ == "__main__":
    corpus_file, transcript_file = sys.argv[1:]
    with open(corpus_file, encoding="utf-8") as fh:
        result = replay(json.load(fh))
    with open(transcript_file, "wb") as fh:
        pickle.dump(result, fh)
