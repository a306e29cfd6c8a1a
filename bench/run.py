"""scmkit benchmark: one workload per run, every output checked by an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, taken from spans around the benchmark's own calls
into the program, plus the tracing overhead.

Each workload runs some activities at full scale for the measured window and
the others at a small fixed "probe" scale, so that every metric is measured
on every workload; see bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One thread per process, as the workloads promise: a BLAS pool would also
# spin on the second core and inflate CPU times.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# workload -> {activity run at full scale: its share of the window}; the
# other activities run as probes.  The scaled passes and the sampling
# iterations are long, so they get more of the window than the fuzz rounds,
# which are many and short.
WORKLOADS = {
    "cli-catalog": {"cli": 1.0},
    "library": {"fuzz": 0.2, "scaled": 0.45, "sampling": 0.35},
}
ACTIVITIES = ("cli", "fuzz", "scaled", "sampling")
SETUP_REPEATS = 5
# Fewest steps of a full-scale activity, even when the window is already spent.
MIN_STEPS = {"cli": 2, "fuzz": 2, "scaled": 4, "sampling": 2}

LAYERS = ("cli", "scm", "identify", "estimands", "docalc", "graph", "gaussian",
          "exogenous", "diagnostics", "casecontrol", "examples")
IDENTIFY_FNS = ("adjust", "ate", "propensity_adjust", "frontdoor", "eelworms_effect",
                "gformula2", "gformula2_given_x")
ESTIMAND_FNS = ("two_stage_direct", "antibiotic_policy", "mediation_fixed_sex",
                "natural_indirect", "iv_theta", "iv_multi", "iv_tsls", "odds_ratio")


def end_to_end_names() -> list:
    return [
        ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ok_rate", "ratio"),
        ("cli_latency_p50_s", "s"), ("cli_latency_tail_s", "s"),
        ("fuzz_checks_per_s", "1/s"), ("fuzz_query_p50_us", "us"), ("fuzz_query_tail_us", "us"),
        ("scaled_float_pass_s", "s"), ("scaled_fraction_pass_s", "s"),
        ("scaled_graph_pass_s", "s"), ("scaled_gaussian_pass_s", "s"),
        ("sim_rows_per_s", "1/s"), ("lg_sample_rows_per_s", "1/s"), ("casecontrol_pairs_per_s", "1/s"),
    ]


def per_layer_names() -> list:
    out = [("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("cli.main.busy_s", "s"),
           ("cli.report_bytes", "bytes")]
    out += [("scm.joint_distribution.calls", "count"), ("scm.joint_distribution.busy_s", "s"),
            ("scm.joint_distribution.configs", "count"), ("scm.restrict.calls", "count"),
            ("scm.restrict.busy_s", "s"), ("scm.restrict.configs_scanned", "count"),
            ("scm.intervene.busy_s", "s"), ("scm.cond_independent.busy_s", "s"),
            ("scm.sample.rows", "count"), ("scm.sample.busy_s", "s")]
    for fn in IDENTIFY_FNS:
        out += [(f"identify.{fn}.calls", "count"), (f"identify.{fn}.busy_s", "s")]
    for fn in ESTIMAND_FNS:
        out += [(f"estimands.{fn}.calls", "count"), (f"estimands.{fn}.busy_s", "s")]
    out += [("docalc.verify_rule.busy_s", "s"),
            ("graph.check_backdoor.calls", "count"), ("graph.check_backdoor.busy_s", "s"),
            ("graph.check_backdoor.paths", "count"), ("graph.check_backdoor_extended.busy_s", "s"),
            ("graph.enumerate_valid_adjustment_sets.busy_s", "s"),
            ("graph.enumerate_valid_adjustment_sets.candidates", "count"),
            ("gaussian.lg_moments.busy_s", "s"), ("gaussian.lg_condition.busy_s", "s"),
            ("gaussian.lg_intervene.busy_s", "s"), ("gaussian.lg_sample.busy_s", "s"),
            ("exogenous.uniforms_at.draws", "count"), ("exogenous.uniforms_at.busy_s", "s"),
            ("diagnostics.homogeneity_report.busy_s", "s"),
            ("diagnostics.homogeneity_report.tests", "count"),
            ("casecontrol.simulate_case_control.busy_s", "s"),
            ("casecontrol.simulate_case_control.pairs", "count"),
            ("casecontrol.simulate_case_control.rows_scanned", "count"),
            ("casecontrol.pairs_per_row_scanned", "ratio"),
            ("examples.build_example.busy_s", "s")]
    out += [(f"{layer}.errors", "count") for layer in LAYERS]
    out += [("trace.spans", "count"), ("trace.overhead_pct", "%"), ("host.reference_loop_s", "s")]
    return out


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-from", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_activities(workload: str, seed: int, workdir: str) -> dict:
    """Every activity, with its seeded inputs generated (nothing built yet)."""
    from act_cli import CliActivity
    from act_exact import FuzzActivity, ScaledActivity
    from act_sampling import SamplingActivity

    full = WORKLOADS[workload]
    acts = {
        "cli": CliActivity(seed, "cli" in full, str(ROOT), workdir),
        "fuzz": FuzzActivity(seed, "fuzz" in full),
        "scaled": ScaledActivity(seed, "scaled" in full),
        "sampling": SamplingActivity(seed, "sampling" in full),
    }
    for act in acts.values():
        act.generate()
    return acts


def import_program() -> float:
    from common import cpu

    start = cpu()
    import scmkit.cli  # noqa: F401  (imports every module of the package)
    return cpu() - start


def workdir_root() -> Path:
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    return base


def setup_child(args) -> int:
    """One cold set-up: interpreter start, program imports, and building the
    program's objects from the inputs the parent generated."""
    from spans import Tracer

    import_s = import_program()
    workdir = tempfile.mkdtemp(prefix="setup-", dir=workdir_root())
    try:
        with open(args.setup_from, "rb") as fh:
            acts = pickle.load(fh)
        acts["cli"].dir = os.path.relpath(workdir, ROOT)  # write into this child's directory
        tr = Tracer(False)
        for act in acts.values():
            act.build(tr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))
    return 0


def cold_setups(args, inputs_path: str) -> tuple:
    """CPU seconds of fresh set-up processes at the nominal host speed, each
    scaled by a reference child run right before it, and their import times."""
    from common import REFERENCE_CHILD_S, children_cpu, reference_child

    cpus, imports = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-from", inputs_path]
    for _ in range(SETUP_REPEATS):
        reference = reference_child(str(ROOT), dict(os.environ))
        start = children_cpu()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
        cpus.append((children_cpu() - start) * REFERENCE_CHILD_S / reference)
        imports.append(json.loads(proc.stdout.decode().strip().splitlines()[-1])["import_s"])
    return cpus, imports


def interpreter_seconds() -> float:
    from common import children_cpu

    cpus = []
    for _ in range(SETUP_REPEATS):
        start = children_cpu()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        cpus.append(children_cpu() - start)
    return statistics.median(cpus)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run(args) -> dict:
    from common import REFERENCE_S, Ledger, cpu
    from spans import Tracer, span_cost

    import_program()
    tr = Tracer(bool(args.trace))
    ledger = Ledger()
    workdir = tempfile.mkdtemp(prefix="run-", dir=workdir_root())
    try:
        acts = make_activities(args.workload, args.seed, workdir)
        inputs_path = os.path.join(workdir, "inputs.pickle")
        with open(inputs_path, "wb") as fh:
            pickle.dump(acts, fh)
        with tr.span("setup"):
            for act in acts.values():
                act.build(tr)
        setups, imports = cold_setups(args, inputs_path)

        full = WORKLOADS[args.workload]
        probes = {name: acts[name].probe_steps() for name in ACTIVITIES if name not in full}
        done = dict.fromkeys(probes, 0)
        steps = dict.fromkeys(full, 0)
        spent = dict.fromkeys(full, 0.0)
        # Set-up garbage is collected now and the survivors frozen, so that
        # the collector's passes inside the window scan only what the
        # measured calls allocate.
        gc.collect()
        gc.freeze()
        start, cpu_start = time.perf_counter(), cpu()
        deadline = start + args.seconds
        while True:
            # Probe steps are spread evenly over the window, so that every
            # metric samples the same stretch of machine time.
            share = min(1.0, (time.perf_counter() - start) / args.seconds) if args.seconds else 1.0
            for name, total in probes.items():
                while done[name] < total and done[name] < share * total:
                    acts[name].step(tr, ledger)
                    done[name] += 1
            short = [n for n in full if steps[n] < MIN_STEPS[n]]
            if time.perf_counter() >= deadline and not short:
                break
            name = min(short or full, key=lambda n: spent[n] / full[n])
            began = time.perf_counter()
            acts[name].step(tr, ledger)
            spent[name] += time.perf_counter() - began
            steps[name] += 1
        for name, total in probes.items():
            for _ in range(total - done[name]):
                acts[name].step(tr, ledger)
        window_cpu = cpu() - cpu_start

        for act in acts.values():
            act.verify(ledger, tr)
        host = statistics.median(s for name in ("fuzz", "scaled", "sampling") for s in acts[name].host.samples)
        if args.trace:
            metrics = layer_metrics(tr, ledger, imports, window_cpu, span_cost(), host)
        else:
            values = {"setup_s": (statistics.median(setups), "s"), "peak_rss_mb": (peak_rss_mib(), "MiB")}
            ok = ledger.attempted - ledger.failed
            values["ok_rate"] = (ok / ledger.attempted if ledger.attempted else 0.0, "ratio")
            # Every time and rate is stated at the nominal host speed, step
            # by step (common.HostSpeed).
            for act in acts.values():
                values.update(act.metrics())
            metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in end_to_end_names()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"host reference loop: {host:.6f} s (nominal {REFERENCE_S} s)", file=sys.stderr)
    for why in ledger.first_failures:
        print(f"failed: {why}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def layer_metrics(tr, ledger, imports, window_cpu, per_span, host) -> dict:
    busy = tr.busy()
    values = {
        "host.reference_loop_s": host,
        "cli.interpreter_s": interpreter_seconds(),
        "cli.import_s": statistics.median(imports),
        "cli.report_bytes": tr.counts["cli.report_bytes"],
        "trace.spans": len(tr.spans),
        "trace.overhead_pct": 100.0 * len(tr.spans) * per_span / window_cpu,
    }
    for name, unit in per_layer_names():
        if name in values:
            continue
        stem, _, stat = name.rpartition(".")
        if stat == "busy_s":
            values[name] = busy[stem][1] if stem in busy else 0.0
        elif stat == "calls":
            values[name] = busy[stem][0] if stem in busy else 0
        elif stat == "errors":
            values[name] = ledger.errors.get(stem, 0) + tr.counts[name]
        elif name == "casecontrol.pairs_per_row_scanned":
            scanned = tr.counts["casecontrol.simulate_case_control.rows_scanned"]
            values[name] = tr.counts["casecontrol.simulate_case_control.pairs"] / scanned if scanned else 0.0
        else:
            values[name] = tr.counts[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "scmkit" / "__init__.py").is_file():
        print(f"error: no scmkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.setup_from:
        return setup_child(args)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
