"""Start-up cost: which modules each command loads.

Importing ``scmkit.cli`` loads the standard library and four of the
package's modules (``scm``, ``graph``, ``exogenous`` and ``errors``); each
command then imports only the formula modules it runs, as the table in
the ``scmkit.cli`` docstring lists.  numpy and scipy are imported inside
the functions that compute with them, so the exact-law, graph and
identification commands never load them on joints of fewer configurations
than ``scm._NUMPY_JOINT`` (a float or small-denominator ``Fraction`` joint of
that size does), nor do
``sample`` and ``casecontrol`` at command-line sizes (fewer draws than
``scm._STDLIB_DRAWS``) or a seeded ``example``.  Only ``diagnose`` and
Gaussian sampling load heavy libraries: ``diagnose`` takes its chi-square
tail and ``gaussian.lg_sample`` its normal quantiles from ``scipy.special``,
never from ``scipy.stats``, whose import alone costs most of a second.

The package's records are plain classes, so no command loads
``dataclasses`` (and with it ``inspect``) except ``diagnose``, through
``scipy.special``; numpy alone loads ``inspect``.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2

from scmkit.cli import main
from scmkit.diagnostics import _chi_square
from scmkit.examples import ExampleSpec, build_example
from scmkit.graph import Dag
from scmkit.scm import _NUMPY_JOINT, _STDLIB_DRAWS, Cpt, joint_distribution, restrict, save_model

from structures import TWO_STAGE_EDGES, TWO_STAGE_NODES, drift_dataset, fill, with_tables

SRC = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))

# Run main(argv) for each command line in one fresh interpreter, then list
# the exit codes, the report errors, the loaded numpy, scipy and scmkit
# modules, and which of the slow standard modules in SLOW were loaded.
PROBE = """
import contextlib, io, json, sys
from scmkit.cli import main
codes, errors = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
    errors.append(json.loads(out.getvalue())["error"])
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
own = sorted(m for m in sys.modules if m.split(".")[0] == "scmkit")
slow = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps({"codes": codes, "errors": errors, "heavy": heavy, "scmkit": own, "slow": slow}))
"""


def assert_no_slow_stdlib(got: dict, group: list) -> None:
    """No `dataclasses` outside `diagnose`, whose scipy.special imports it,
    and no `inspect` unless numpy, which imports it, was loaded."""
    if group != ["diagnose"]:
        assert "dataclasses" not in got["slow"]
    if not any(m.split(".")[0] == "numpy" for m in got["heavy"]):
        assert "inspect" not in got["slow"]


def probe(commands: list, script: str = PROBE) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        env=env, capture_output=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    base = tmp_path_factory.mktemp("catalog")
    for name in ("simpson_binary", "fig1", "smoking", "eelworms", "treatment_plan",
                 "two_stage", "hiring", "iv_binary", "case_control_pop"):
        save_model(build_example(ExampleSpec(name, seed=3)), base / f"{name}.json")
    dag = Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES + [("Y4", "Y2")])
    save_model(fill(dag, 3), base / "two_stage_edge.json")
    drift_dataset(5, 400, 0.0).write_csv(base / "rows.csv")
    return lambda name: str(base / name)


def command_lines(p) -> dict:
    """One successful command line per subcommand, on the catalog files."""
    return {
        "validate": ["validate", "-m", p("fig1.json")],
        "joint": ["joint", "-m", p("simpson_binary.json"), "--targets", "R", "--given", "T=1"],
        "intervene": ["intervene", "-m", p("simpson_binary.json"), "--set", "T=1"],
        "backdoor": ["backdoor", "-m", p("fig1.json"), "-t", "T", "-r", "R", "-z", "X3,X4"],
        "adjust-sets": ["adjust-sets", "-m", p("fig1.json"), "-t", "T", "-r", "R"],
        "effect": ["effect", "-m", p("simpson_binary.json"), "-t", "T", "-r", "R", "--adjust",
                   "X", "--t-values", "0,1"],
        "frontdoor": ["frontdoor", "-m", p("smoking.json")],
        "eelworms": ["eelworms", "-m", p("eelworms.json")],
        "gformula": ["gformula", "-m", p("treatment_plan.json"), "--t", "0", "--t2", "1"],
        "direct-effect": ["direct-effect", "-m", p("two_stage.json"), "--y2", "0", "--t", "1"],
        "policy": ["policy", "-m", p("two_stage_edge.json")],
        "mediation": ["mediation", "-m", p("hiring.json"), "--sigma", "0=0.25,1=0.75"],
        "iv": ["iv", "-m", p("iv_binary.json")],
        "oddsratio": ["oddsratio", "-m", p("case_control_pop.json")],
        "docalc": ["docalc", "-m", p("fig1.json"), "--rule", "2", "--y", "R", "--z", "T=1",
                   "--w", "X3,X4"],
        "sample": ["sample", "-m", p("simpson_binary.json"), "--seed", "5", "--n", "300"],
        "casecontrol": ["casecontrol", "-m", p("case_control_pop.json"), "--seed", "5",
                        "--n", "150"],
        "example": ["example", "fig1", "--seed", "5"],
        "diagnose": ["diagnose", "--data", p("rows.csv"), "--x-cols", "X", "--t-col", "T",
                     "--r-col", "R", "--k", "3"],
    }


def test_cli_import_and_small_commands_load_no_numpy_or_scipy(catalog):
    lines = command_lines(catalog)
    assert len(lines) == 19
    commands = [argv for name, argv in lines.items() if name != "diagnose"]
    got = probe(commands)
    assert got["codes"] == [0] * len(commands)
    assert got["errors"] == [None] * len(commands)
    assert got["heavy"] == []
    assert got["slow"] == []


def chain(sizes: list):
    """A float model on a chain of nodes N0 -> N1 -> ... of these sizes."""
    names = [f"N{i}" for i in range(len(sizes))]
    return fill(Dag(names, list(zip(names, names[1:]))), 3, dict(zip(names, sizes)))


def test_a_command_loads_numpy_only_for_a_joint_past_the_import_cutoff(tmp_path):
    # In a fresh process numpy is not loaded, so a float joint loads it only
    # from scm._NUMPY_JOINT configurations on.
    below, at = [2] * 18, [2] * 19
    assert math.prod(below) < math.prod(at) == _NUMPY_JOINT
    for name, sizes in (("below", below), ("at", at)):
        save_model(chain(sizes), tmp_path / f"{name}.json")
    lines = [["joint", "-m", str(tmp_path / f"{name}.json"), "--targets", "N4"]
             for name in ("below", "at")]
    below, at = probe(lines[:1]), probe(lines[1:])
    assert below["errors"] == at["errors"] == [None]
    assert below["heavy"] == []
    assert "numpy" in at["heavy"]


# Float joints one configuration short of the cutoff for a loaded numpy,
# and at it.
BELOW, AT = [3, 3, 5, 7, 13], [4] * 6


@pytest.mark.parametrize("sizes, fast", [(BELOW, False), (AT, True)], ids=["below", "at"])
def test_a_float_joint_at_the_cutoff_takes_the_numpy_kernels(sizes, fast):
    assert math.prod(sizes) == _STDLIB_DRAWS - 1 + fast
    model = chain(sizes)
    with mock.patch.object(np, "asarray", wraps=np.asarray) as product, \
            mock.patch.object(np, "bincount", wraps=np.bincount) as sums:
        joint = joint_distribution(model)
        law = restrict(joint, ("N4",), {"N0": 1})
    assert (product.called, sums.called, joint._array is not None) == (fast, fast, fast)
    assert {type(p) for p in law.probs.values()} == {float}


def exact_chain(sizes: list):
    """The chain with every row of k entries (1, 2, ..., k) / (1 + 2 + ... + k):
    `Fraction`s of small denominators, whose numerators fit int64."""
    model = chain(sizes)
    return with_tables(model, *(
        Cpt(n, cpt.parents, {
            cfg: tuple(Fraction(2 * (i + 1), len(row) * (len(row) + 1)) for i in range(len(row)))
            for cfg, row in cpt.table.items()
        })
        for n, cpt in model.cpts.items()
    ))


@pytest.mark.parametrize("sizes, fast", [(BELOW, False), (AT, True)], ids=["below", "at"])
def test_a_fraction_joint_at_the_cutoff_takes_the_int64_kernels(sizes, fast):
    model = exact_chain(sizes)
    with mock.patch.object(np, "asarray", wraps=np.asarray) as product, \
            mock.patch.object(np, "bincount", wraps=np.bincount) as sums:
        joint = joint_distribution(model)
        law = restrict(joint, ("N4",), {"N0": 1})
    assert (product.called, sums.called, joint._array is not None) == (fast, fast, fast)
    assert not fast or joint._array.dtype == np.int64
    assert {type(p) for p in law.probs.values()} == {Fraction}
    assert {type(m) for m in joint.masses} == {int}


# A Fraction chain of 19 binary nodes, 2**19 configurations, every row
# (p, 1 - p) for the p given as [numerator, denominator]: whether its joint
# loaded numpy in a fresh interpreter.
EXACT_PROBE = """
import json, sys
from fractions import Fraction
from scmkit.graph import Dag
from scmkit.scm import Cpt, Domain, Scm, joint_distribution
p = Fraction(*json.loads(sys.argv[1]))
names = [f"N{i}" for i in range(19)]
cpts = {"N0": Cpt("N0", (), {(): (p, 1 - p)})}
cpts.update({n: Cpt(n, (a,), {(0,): (p, 1 - p), (1,): (p, 1 - p)}) for a, n in zip(names, names[1:])})
joint_distribution(Scm(Dag(names, list(zip(names, names[1:]))), {n: Domain(n, (0, 1)) for n in names},
                       cpts))
print(json.dumps({"numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("p, loads", [([3, 10], True), ([2**60 + 1, 2**62], False)],
                         ids=["small", "past-2-53"])
def test_a_fraction_joint_past_the_import_cutoff_loads_numpy_only_for_an_int64_step(p, loads):
    # numpy is imported at the first node that takes it: numerators over
    # 2**62 pass the int64 bound at the first node, and never load it.
    assert math.prod([2] * 19) == _NUMPY_JOINT
    assert probe(p, EXACT_PROBE) == {"numpy": loads}


def test_diagnose_never_loads_scipy_stats(catalog):
    got = probe([command_lines(catalog)["diagnose"]])
    assert got["codes"] == [0]
    assert got["errors"] == [None]
    assert "scipy.special" in got["heavy"]
    assert not [m for m in got["heavy"] if m.startswith("scipy.stats")]


# The scipy modules loaded by importing scmkit.gaussian, then by one
# lg_sample call, in a fresh interpreter.
GAUSSIAN_PROBE = """
import json, sys
from scmkit.exogenous import DigitStream
from scmkit.gaussian import lg_sample, simpson_cont_model
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
imported = scipy()
model = simpson_cont_model(alpha=1.0, beta=0.2, gamma=1.0, mu=0.0, sigma1=1.0, sigma2=1.0,
                           sigma3=1.0)
lg_sample(model, DigitStream(5), 10)
print(json.dumps({"imported": imported, "sampled": scipy()}))
"""


def test_gaussian_sampling_loads_scipy_special_only_when_it_draws():
    got = probe([], GAUSSIAN_PROBE)
    assert got["imported"] == []
    assert "scipy.special" in got["sampled"]
    assert not [m for m in got["sampled"] if m.startswith("scipy.stats")]


CLI_MODULES = ["scmkit", "scmkit.cli", "scmkit.errors", "scmkit.exogenous", "scmkit.graph",
               "scmkit.scm"]


def test_importing_the_cli_loads_only_its_own_modules():
    got = probe([])
    assert got["scmkit"] == CLI_MODULES
    assert got["heavy"] == []
    assert got["slow"] == []


# The formula modules each group of commands loads beyond the CLI's own.
LOADS = [
    (["validate", "joint", "intervene", "sample", "backdoor", "adjust-sets"], []),
    (["effect", "frontdoor", "eelworms", "gformula"], ["identify"]),
    (["direct-effect", "policy", "mediation", "iv", "oddsratio"], ["identify", "estimands"]),
    (["casecontrol"], ["identify", "estimands", "casecontrol"]),
    (["docalc"], ["docalc"]),
    (["diagnose"], ["diagnostics"]),
    (["example"], ["identify", "estimands", "examples"]),
]


def test_the_load_table_lists_every_subcommand_once(catalog):
    names = [name for group, _ in LOADS for name in group]
    assert sorted(names) == sorted(command_lines(catalog))


@pytest.mark.parametrize("group, extra", LOADS, ids=[group[0] for group, _ in LOADS])
def test_each_command_loads_only_its_formula_modules(catalog, group, extra):
    lines = command_lines(catalog)
    got = probe([lines[name] for name in group])
    assert got["errors"] == [None] * len(group)
    assert got["scmkit"] == sorted(CLI_MODULES + [f"scmkit.{m}" for m in extra])
    assert_no_slow_stdlib(got, group)


def test_a_continuous_example_also_loads_gaussian():
    got = probe([["example", "lord", "--seed", "5"]])
    assert got["errors"] == [None]
    assert got["scmkit"] == sorted(
        CLI_MODULES + ["scmkit.identify", "scmkit.estimands", "scmkit.examples", "scmkit.gaussian"]
    )
    assert "dataclasses" not in got["slow"]


def test_chi_square_pvalue_equals_scipy_stats_chi2_sf():
    rng = random.Random(20)
    dofs = set()
    for _ in range(1500):
        cats = rng.randint(2, 60)
        scale = rng.choice((1, 10, 1000))
        a = {c: rng.randint(0, scale) for c in range(cats)}
        b = {c: rng.randint(0, scale) for c in range(cats)}
        if not sum(a.values()) or not sum(b.values()):
            continue
        stat, dof, p = _chi_square(a, b)
        if dof:
            dofs.add(dof)
            assert p == float(chi2.sf(stat, dof))
    assert len(dofs) >= 40


def test_chdtrc_equals_chi2_sf_on_a_grid():
    xs = [0.0] + [10.0 ** (k / 8.0) for k in range(-40, 49)]  # up to 1e6
    for dof in range(1, 60):
        assert [chdtrc(dof, x) for x in xs] == [chi2.sf(x, dof) for x in xs]
