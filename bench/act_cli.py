"""The command line as users drive it: one ``scmkit`` process per command.

A closed loop with one client runs the 19 subcommands in turn, each as
its own interpreter, on catalog model files and a generated dataset.
Every report is checked three ways: its bytes equal those of the same
``main(argv)`` run in-process (twice), its exit status is the expected
verdict, and its numbers match the oracles.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys

import inputs
import oracles as orc
from common import REFERENCE_CHILD_S, HostSpeed, call, children_cpu, median, quantile, reference_child
from oracles import require

BOOT = "import sys; from scmkit.cli import main; sys.exit(main())"

CATALOG = ("simpson_binary", "fig1", "smoking", "eelworms", "treatment_plan",
           "two_stage", "hiring", "iv_binary", "case_control_pop")
ALL_ENTRIES = CATALOG + ("fig1a", "simpson_continuous", "lord")


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list, root: str, env: dict) -> tuple:
    """(exit status, stdout text, CPU seconds) of one CLI process."""
    start = children_cpu()
    proc = subprocess.run([sys.executable, "-c", BOOT, *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    return proc.returncode, proc.stdout.decode("utf-8"), children_cpu() - start


def run_inprocess(argv: list) -> tuple:
    from scmkit.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


def _laws(flat: dict) -> dict:
    """'a|b' keyed report entries -> {(a, b): p} with int parts."""
    return {tuple(int(v) for v in k.split("|")): p for k, p in flat.items()}


class CliActivity:
    def __init__(self, seed: int, full: bool, root: str, workdir: str):
        self.seed = seed
        self.full = full
        self.root = root
        self.dir = os.path.relpath(workdir, root)
        self.env = cli_env(root)
        # A reference child runs right before and right after each scmkit
        # process, in the same directory and environment; see HostSpeed.
        self.host = HostSpeed(functools.partial(reference_child, root, self.env), REFERENCE_CHILD_S)
        self.latencies: list = []  # (CPU seconds, host marks before and after)
        self.runs: dict = {}  # command index -> list of (exit, stdout)
        self.cursor = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def generate(self) -> None:
        rng = inputs.rng_for(self.seed, 44)
        self.policy = inputs.shape_spec(rng, "two_stage_edge", 2)
        self.rows = inputs.drift_rows(rng, 400)

    def build(self, tr) -> None:
        """Materialize the catalog files the commands read."""
        from scmkit.examples import ExampleSpec, build_example
        from scmkit.scm import Scm, save_model

        self.fill_seed = self.seed % 1000
        self.specs = {}
        for name in ALL_ENTRIES if self.full else ("fig1", "simpson_binary"):
            model = call(tr, "examples.build_example", build_example,
                         ExampleSpec(name, seed=self.fill_seed))
            if isinstance(model, Scm):
                call(tr, "scm.save_model", save_model, model, self.path(f"{name}.json"))
                with open(self.path(f"{name}.json"), encoding="utf-8") as fh:
                    self.specs[name] = inputs.from_doc(json.load(fh))
        inputs.write_doc(self.policy, self.path("two_stage_edge.json"))
        self.specs["two_stage_edge"] = inputs.from_doc(inputs.to_doc(self.policy))
        with open(self.path("rows.csv"), "w", encoding="utf-8") as fh:
            fh.write("X,T,R\n" + "".join(f"{x},{t},{r}\n" for x, t, r in self.rows))
        self.commands = self._commands()
        if not self.full:
            self.commands = [c for c in self.commands if c[0][0] in ("validate", "joint")]
        else:
            self.cursor = self.seed % len(self.commands)

    def _commands(self) -> list:
        """(argv, expected exit status, checker of the parsed report)."""
        p = self.path
        s = str(self.fill_seed)
        return [
            (["validate", "-m", p("fig1.json")], 0, lambda r: require(r["result"]["ok"], "model invalid")),
            (["joint", "-m", p("simpson_binary.json"), "--targets", "R", "--given", "T=1"], 0, self._joint),
            (["intervene", "-m", p("simpson_binary.json"), "--set", "T=1"], 0, self._intervene),
            (["sample", "-m", p("simpson_binary.json"), "--seed", s, "--n", "300"], 0, self._sample),
            (["backdoor", "-m", p("fig1.json"), "-t", "T", "-r", "R", "-z", "X3"], 1, self._backdoor),
            (["adjust-sets", "-m", p("fig1.json"), "-t", "T", "-r", "R"], 0, self._adjust_sets),
            (["effect", "-m", p("simpson_binary.json"), "-t", "T", "-r", "R", "--adjust", "X",
              "--t-values", "0,1"], 0, self._effect),
            (["frontdoor", "-m", p("smoking.json")], 0, self._frontdoor),
            (["eelworms", "-m", p("eelworms.json")], 0, self._eelworms),
            (["gformula", "-m", p("treatment_plan.json"), "--t", "0", "--t2", "1"], 0, self._gformula),
            (["direct-effect", "-m", p("two_stage.json"), "--y2", "0", "--t", "1"], 0, self._direct),
            (["policy", "-m", p("two_stage_edge.json")], 0, self._policy),
            (["mediation", "-m", p("hiring.json"), "--sigma", "0=0.25,1=0.75"], 0, self._mediation),
            (["iv", "-m", p("iv_binary.json")], 0, self._iv),
            (["oddsratio", "-m", p("case_control_pop.json")], 0, self._oddsratio),
            (["casecontrol", "-m", p("case_control_pop.json"), "--seed", s, "--n", "150"], 0,
             self._casecontrol),
            (["docalc", "-m", p("fig1.json"), "--rule", "1", "--y", "R", "--z", "X3=0"], 1, self._docalc),
            (["diagnose", "--data", p("rows.csv"), "--x-cols", "X", "--t-col", "T", "--r-col", "R",
              "--k", "2"], 0, self._diagnose),
            (["example", "fig1", "--seed", s, "--model-out", p("fig1.again.json")], 0, self._example),
        ]

    # ------------------------------------------------------------ loop

    def step(self, tr, ledger) -> None:
        i = self.cursor % len(self.commands)
        self.cursor += 1
        tr.next_op()
        before = self.host.mark()
        with tr.span("cli.process"):
            code, out, dt = run_process(self.commands[i][0], self.root, self.env)
        self.latencies.append((dt, (before, self.host.mark())))
        self.runs.setdefault(i, []).append((code, out))

    def probe_steps(self) -> int:
        return 5

    def verify(self, ledger, tr) -> None:
        for i, runs in sorted(self.runs.items()):
            argv, want_code, checker = self.commands[i]
            ledger.verify("cli", self._check, tr, argv, want_code, checker, runs[0])
            for code, out in runs[1:]:
                ledger.record("cli", (code, out) == runs[0], f"{argv[0]}: a repeated run differs")

    def _check(self, tr, argv, want_code, checker, first) -> None:
        """Exit status, bytes equal to two in-process runs, numbers vs oracle."""
        for _ in range(2):
            with tr.span("cli.main"):
                code, out = run_inprocess(argv)
            tr.count("cli.report_bytes", len(out.encode("utf-8")))
            require(code == want_code, f"{argv[0]} exited {code} in-process, expected {want_code}")
            require(out == first[1], f"{argv[0]} report bytes differ from the in-process run")
        require(first[0] == want_code, f"{argv[0]} exited {first[0]}, expected {want_code}")
        checker(json.loads(first[1]))

    # ------------------------------------------------------------ checkers

    def _joint(self, rep) -> None:
        want = orc.Dense(self.specs["simpson_binary"]).law("R", {"T": 1})
        orc.check_law({k[0]: p for k, p in _laws(rep["result"]["probs"]).items()}, want, "joint")

    def _intervene(self, rep) -> None:
        spec = inputs.from_doc(rep["result"]["model"])
        require(spec.parents["T"] == () and list(spec.tables["T"]) == [0.0, 1.0], "T is not forced")
        base = self.specs["simpson_binary"]
        for n in ("X", "R"):
            require(spec.parents[n] == base.parents[n] and (spec.tables[n] == base.tables[n]).all(),
                    f"{n} changed under intervention")

    def _sample(self, rep) -> None:
        rows = rep["result"]["rows"]
        orc.check_sample_rows(self.specs["simpson_binary"], self.fill_seed, rep["result"]["columns"],
                              lambda i: tuple(rows[i]), len(rows))

    def _backdoor(self, rep) -> None:
        spec = self.specs["fig1"]
        res = rep["result"]
        orc.check_backdoor_verdict(spec.nodes, spec.edges, "T", "R", {"X3"}, res["valid"],
                                   [orc.parse_path(p) for p in res["violating_paths"]])

    def _adjust_sets(self, rep) -> None:
        spec = self.specs["fig1"]
        cands = set(spec.nodes) - {"T", "R"} - inputs.descendants(spec, "T")
        require(set(rep["result"]["candidates"]) == cands, "wrong candidate set")
        orc.check_minimal_sets(spec.nodes, spec.edges, "T", "R", cands, rep["result"]["minimal_sets"])

    def _effect(self, rep) -> None:
        spec = self.specs["simpson_binary"]
        laws = {t: orc.do_law(spec, {"T": t}, "R") for t in (0, 1)}
        for t in (0, 1):
            orc.check_law({int(k): p for k, p in rep["result"]["laws"][str(t)].items()}, laws[t], "effect")
        ate = sum(v * p for v, p in laws[1].items()) - sum(v * p for v, p in laws[0].items())
        orc.check_close(rep["result"]["ate"], ate, "ate", rel=1e-12)

    def _frontdoor(self, rep) -> None:
        spec = self.specs["smoking"]
        for key, forced in (("effect", "Y"), ("intermediate", "Z")):
            got = _laws(rep["result"][key])
            for v in range(spec.sizes[forced]):
                orc.check_law({w: p for (a, w), p in got.items() if a == v},
                              orc.do_law(spec, {forced: v}, "W"), f"frontdoor {key}")

    def _eelworms(self, rep) -> None:
        spec = self.specs["eelworms"]
        got = _laws(rep["result"]["effect"])
        for x in range(spec.sizes["X"]):
            orc.check_law({y: p for (a, y), p in got.items() if a == x},
                          orc.do_law(spec, {"X": x}, "Y"), "eelworms")

    def _gformula(self, rep) -> None:
        orc.check_law({int(k): p for k, p in rep["result"]["law"].items()},
                      orc.do_law(self.specs["treatment_plan"], {"T": 0, "T2": 1}, "R2"), "gformula")

    def _direct(self, rep) -> None:
        orc.check_law({int(k): p for k, p in rep["result"]["law"].items()},
                      orc.do_law(self.specs["two_stage"], {"Y2": 0}, "Y1", {"Y4": 1}), "direct-effect")

    def _policy(self, rep) -> None:
        dense = orc.Dense(orc.policy_spec(self.specs["two_stage_edge"]))
        got = _laws(rep["result"]["law"])
        for y4 in (0, 1):
            orc.check_law({y1: p for (y1, b), p in got.items() if b == y4},
                          dense.law("Y1", {"Y4": y4}), "policy")

    def _mediation(self, rep) -> None:
        spec = self.specs["hiring"]
        nat = orc.Dense(orc.assumed_covariate_spec(spec, {1: 1.0}))
        orc.check_close(rep["result"]["natural_indirect"],
                        nat.mean("H", {"S": 0}) - nat.mean("H", {"S": 1}), "natural indirect", rel=1e-12)
        fixed = orc.Dense(orc.assumed_covariate_spec(spec, {0: 0.25, 1: 0.75}))
        got = _laws(rep["result"]["fixed_law"])
        for b in range(spec.sizes["B"]):
            for q in range(spec.sizes["Q"]):
                orc.check_law({h: p for (h, bb, qq), p in got.items() if (bb, qq) == (b, q)},
                              fixed.law("H", {"B": b, "Q": q}), "fixed-covariate law")

    def _iv(self, rep) -> None:
        dense = orc.Dense(self.specs["iv_binary"])
        num = dense.mean("R", {"I": 1}) - dense.mean("R", {"I": 0})
        den = dense.mean("T", {"I": 1}) - dense.mean("T", {"I": 0})
        orc.check_close(rep["result"]["theta"], num / den, "iv theta")

    def _oddsratio(self, rep) -> None:
        dense = orc.Dense(self.specs["case_control_pop"])
        for x, cell in rep["result"]["per_x"].items():
            p = dense.law("T", {"R": 1, "X": int(x)})[1]
            q = dense.law("T", {"R": 0, "X": int(x)})[1]
            orc.check_close(cell["ratio_exposure_odds"], p * (1 - q) / (q * (1 - p)), "odds ratio")

    def _casecontrol(self, rep) -> None:
        """Rebuild all 150 pairs from the reference population."""
        ref = orc.SampleReference(self.specs["case_control_pop"], self.fill_seed)
        rows, i, cases = [], 0, []
        while len(cases) < 150:
            v = ref.row(i)
            if v is None:
                return  # a draw on a threshold: no exact reference
            rows.append(v)
            if v["R"] == 1:
                cases.append(i)
            i += 1
        pools: dict = {}
        cursor = cases[-1] + 1
        counts: dict = {}
        for c in cases:
            x = rows[c]["X"]
            if pools.get(x):
                ctrl = pools[x].pop(0)
            else:
                while True:
                    while len(rows) <= cursor:
                        v = ref.row(len(rows))
                        if v is None:
                            return
                        rows.append(v)
                    idx, cursor = cursor, cursor + 1
                    if rows[idx]["X"] == x:
                        ctrl = idx
                        break
                    pools.setdefault(rows[idx]["X"], []).append(idx)
            cell = counts.setdefault(str(x), [0, 0, 0, 0])
            cell[0 if rows[c]["T"] == 1 else 1] += 1
            if rows[ctrl]["R"] == 0:
                cell[2 if rows[ctrl]["T"] == 1 else 3] += 1
        require(rep["result"]["pairs"] == 150, "wrong pair count")
        for x, cell in rep["result"]["per_x"].items():
            got = [cell["n_case_exposed"], cell["n_case_unexposed"],
                   cell["n_control_exposed"], cell["n_control_unexposed"]]
            require(got == counts[x], f"case-control counts at x={x}: {got} vs {counts[x]}")

    def _docalc(self, rep) -> None:
        spec = self.specs["fig1"]
        sep = __import__("networkx").is_d_separator(orc.digraph(spec.nodes, spec.edges), {"R"}, {"X3"}, set())
        res = rep["result"]
        require(res["condition_holds"] == sep and res["passed"] == sep, "rule 1 verdict disagrees")

    def _diagnose(self, rep) -> None:
        from act_sampling import expected_block_counts
        import numpy as np

        arr = np.array(self.rows)
        want = expected_block_counts(arr[:, :1], arr[:, 1], arr[:, 2], 2)
        got = rep["result"]["strata"]
        require(len(got) == len(want), "wrong number of block comparisons")
        for g, (key, left, right) in zip(got, want):
            require(g["key"] == str(key), f"stratum {g['key']} vs {key}")
            require({int(k): v for k, v in g["left_counts"].items()} == left
                    and {int(k): v for k, v in g["right_counts"].items()} == right,
                    f"block counts differ in stratum {key}")

    def _example(self, rep) -> None:
        with open(self.path("fig1.json"), encoding="utf-8") as fh:
            want = json.load(fh)
        require(rep["result"]["model"] == want, "example model differs from the materialized file")

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        lat = [dt * self.host.scale(marks) for dt, marks in self.latencies] or [float("nan")]
        return {
            "cli_latency_p50_s": (median(lat), "s"),
            "cli_latency_tail_s": (quantile(lat, 0.9), "s"),
        }
