"""Tests of the benchmark itself: seeded inputs, planted errors, metric names."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import oracles  # noqa: E402
from act_exact import Model, shape_checks, shape_specs  # noqa: E402
from common import Ledger  # noqa: E402
from spans import Tracer  # noqa: E402


def _same_spec(a, b) -> bool:
    return (a.nodes == b.nodes and a.parents == b.parents and a.sizes == b.sizes
            and all(np.array_equal(a.tables[n], b.tables[n]) for n in a.nodes))


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_generator_is_deterministic_per_seed(seed):
    def draw(s):
        rng = inputs.rng_for(s, 1)
        return (
            inputs.random_spec(rng, 6, 2, 3),
            inputs.random_spec(rng, 4, 2, 3, exact=True),
            inputs.shape_spec(rng, "eelworms", 3),
            inputs.random_gauss(rng, 12, 2),
            inputs.dense_graph(rng, 10, 3, 200),
        )

    first, again, other = draw(seed), draw(seed), draw(seed + 1)
    for a, b in zip(first[:3], again[:3]):
        assert _same_spec(a, b)
    assert first[3] == again[3] and first[4] == again[4]
    assert not _same_spec(first[0], other[0])


def _fig1_adjust_check():
    rng = inputs.rng_for(5, 2)
    spec, _ = shape_specs(rng, "fig1", 2)
    return next(c for c in shape_checks("fig1", Model(spec), {}) if c.name == "identify.adjust")


def test_a_result_off_by_1e_9_counts_as_a_failure():
    check = _fig1_adjust_check()
    got, also, _ = check.run(Tracer(False))
    ledger = Ledger()
    ledger.verify("identify", check.verify, got, also)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    planted = dict(got)
    planted[0] += 1e-9
    planted[1] -= 1e-9
    ledger.verify("identify", check.verify, planted, also)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.errors == {"identify": 1}


def test_one_flipped_sampled_row_counts_as_a_failure():
    from scmkit.exogenous import DigitStream
    from scmkit.scm import sample

    spec = inputs.random_spec(inputs.rng_for(3, 3), 5, 2, 3)
    data = sample(Model(spec).scm, DigitStream(42), 40)
    ledger = Ledger()
    ledger.verify("scm", oracles.check_sample_rows, spec, 42, data.columns,
                  data.rows.__getitem__, len(data.rows))
    assert ledger.failed == 0
    rows = list(data.rows)
    flipped = list(rows[3])
    flipped[-1] = (flipped[-1] + 1) % 3
    rows[3] = tuple(flipped)
    ledger.verify("scm", oracles.check_sample_rows, spec, 42, data.columns,
                  rows.__getitem__, len(rows))
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_printed_metric_names_equal_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, *declared["command"][1:], "--workload", "cli-catalog",
           "--seed", "3", "--seconds", "0"]
    procs = [subprocess.Popen(cmd + ["--trace", t], cwd=ROOT, stdout=subprocess.PIPE, text=True)
             for t in ("0", "1")]
    outs = [p.communicate(timeout=170)[0] for p in procs]
    for proc, out, key in zip(procs, outs, ("end_to_end", "per_layer")):
        assert proc.returncode == 0
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
