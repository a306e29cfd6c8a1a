"""Each formula call reads its observational joint in exactly one scan.

A formula asks for all of its factors and supports at once, so one pass
over the joint's masses serves the whole call, whether they are floats (in
plain Python or on numpy) or the integer numerators of a Fraction joint;
`verify_rule` makes one pass per joint it builds.
"""

import importlib
import json
import pkgutil
from fractions import Fraction

import pytest

import scmkit
from scmkit import scm as scm_module
from scmkit.docalc import NodePartition, verify_rule
from scmkit.estimands import (
    antibiotic_policy,
    iv_multi,
    iv_theta,
    mediation_fixed_sex,
    natural_indirect,
    odds_ratio,
    two_stage_direct,
)
from scmkit.graph import Dag
from scmkit.identify import (
    adjust,
    ate,
    backdoor_effect,
    eelworms_effect,
    frontdoor,
    gformula2,
    gformula2_given_x,
    propensity_adjust,
)
from scmkit.cli import main
from scmkit.scm import Cpt, Scm, cond_independent, joint_distribution, save_model

from structures import (
    EELWORMS_ROLES,
    GFORMULA_ROLES,
    HIRING_ROLES,
    TWO_STAGE_ROLES,
    drift_model,
    eelworms_model,
    fill,
    frontdoor_model,
    gformula_model,
    hiring_model,
    iv_model,
    propensity_table,
    support_values,
    two_stage_model,
)
from test_estimands import IV_ROLES, threshold_iv_model, two_stage_with_second_edge
from test_scm import simpson_scm

XTR_ROLES = {"X": "X", "T": "T", "R": "R"}

# name -> (model, call on the model's joint)
CALLS = {
    "adjust": (simpson_scm(), lambda j: adjust(j, "T", 1, "R", ("X",))),
    "ate": (simpson_scm(), lambda j: ate(j, "T", 1, 0, "R", ("X",))),
    "backdoor_effect": (simpson_scm(), lambda j: backdoor_effect(j, "T", (1, 0), "R", ("X",))),
    "propensity_table": (simpson_scm(), lambda j: propensity_table(j, "T", ("X",))),
    "propensity_adjust": (simpson_scm(), lambda j: propensity_adjust(j, "T", 1, "R", ("X",))),
    "frontdoor": (frontdoor_model(1), lambda j: frontdoor(j, "Y", "Z", "W")),
    "eelworms_effect": (eelworms_model(1), lambda j: eelworms_effect(j, EELWORMS_ROLES)),
    "gformula2": (gformula_model(1), lambda j: gformula2(j, GFORMULA_ROLES, 0, 1)),
    "gformula2_given_x": (
        gformula_model(1), lambda j: gformula2_given_x(j, GFORMULA_ROLES, 0, 1, 0)
    ),
    "two_stage_direct": (two_stage_model(1), lambda j: two_stage_direct(j, TWO_STAGE_ROLES, 0, 1)),
    "antibiotic_policy": (
        two_stage_with_second_edge(1), lambda j: antibiotic_policy(j, TWO_STAGE_ROLES)
    ),
    "mediation_fixed_sex": (
        hiring_model(1), lambda j: mediation_fixed_sex(j, HIRING_ROLES, {0: 0.5, 1: 0.5})
    ),
    "natural_indirect": (hiring_model(1), lambda j: natural_indirect(j, HIRING_ROLES)),
    "iv_theta": (iv_model(1), lambda j: iv_theta(j, IV_ROLES)),
    "iv_multi": (iv_model(1), lambda j: iv_multi(j, IV_ROLES, 0)),
    "odds_ratio": (drift_model(), lambda j: odds_ratio(j, XTR_ROLES)),
    "cond_independent": (simpson_scm(), lambda j: cond_independent(j, {"T"}, {"R"}, {"X"})),
    "support_values": (simpson_scm(), lambda j: support_values(j, "T")),
}


@pytest.fixture()
def scans(monkeypatch):
    """A list that gains one entry per call of `scm._scan`."""
    seen = []
    real = scm_module._scan

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scm_module, "_scan", counted)
    return seen


@pytest.mark.parametrize("name", list(CALLS))
def test_one_scan_per_formula_call(name, scans):
    model, call = CALLS[name]
    joint = joint_distribution(model)
    call(joint)
    assert len(scans) == 1


@pytest.mark.parametrize("name", list(CALLS))
def test_one_scan_per_formula_call_on_the_numpy_path(name, scans, monkeypatch):
    monkeypatch.setattr(scm_module, "_STDLIB_DRAWS", 0)
    monkeypatch.setattr(scm_module, "_NUMPY_JOINT", 0)
    model, call = CALLS[name]
    joint = joint_distribution(model)
    assert joint._array is not None
    call(joint)
    assert len(scans) == 1


def exact(model: Scm) -> Scm:
    """The model with every table entry replaced by the Fraction of its value."""
    cpts = {
        n: Cpt(n, cpt.parents, {cfg: tuple(map(Fraction, row)) for cfg, row in cpt.table.items()})
        for n, cpt in model.cpts.items()
    }
    return Scm(model.dag, model.domains, cpts, model.meta)


@pytest.mark.parametrize("name", list(CALLS))
def test_one_scan_per_formula_call_on_a_fraction_joint(name, scans):
    model, call = CALLS[name]
    joint = joint_distribution(exact(model))
    assert isinstance(joint.scale, int)
    call(joint)
    assert len(scans) == 1


def test_cli_multi_level_instrument_scans_once(scans, tmp_path, capsys):
    # Three instrument levels; the report matches the call with the base
    # level passed explicitly as the smallest supported one.
    path = tmp_path / "threshold.json"
    save_model(threshold_iv_model(), path)
    assert main(["iv", "-m", str(path), "--method", "multi"]) == 0
    assert len(scans) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    joint = joint_distribution(threshold_iv_model())
    expected = iv_multi(joint, IV_ROLES, min(support_values(joint, "I")))
    assert result["theta"] == float(expected.theta)
    assert result["thetas"] == [float(t) for t in expected.thetas]
    assert result["weights"] == [float(w) for w in expected.weights]


@pytest.mark.parametrize("rule, joints", [(1, 1), (2, 2)])
def test_verify_rule_scans_each_joint_it_builds_once(rule, joints, scans):
    dag = Dag(["W", "X", "Z", "Y"], [("W", "Y"), ("X", "Y"), ("W", "Z")])
    part = NodePartition(w={"W"}, x={"X"}, y={"Y"}, z={"Z"})
    verify_rule(fill(dag, 2), part, rule, {"X": 1}, {"Z": 0} if rule == 2 else None)
    assert len(scans) == joints


def test_only_scm_reads_the_flat_masses():
    for info in pkgutil.iter_modules(scmkit.__path__):
        module = importlib.import_module(f"scmkit.{info.name}")
        if module is not scm_module:
            assert getattr(module, "_scan", None) is not scm_module._scan, info.name
