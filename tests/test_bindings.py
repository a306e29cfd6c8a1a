"""Role bindings and figure shapes, checked the same way by every formula.

Each role-taking formula is one input to each check: a missing role, a
role bound to an unknown node, two roles bound to one node, and (for the
formulas that take a graph) a graph of the wrong shape.
"""

import pytest

from scmkit.casecontrol import simulate_case_control
from scmkit.errors import InvalidArgumentError
from scmkit.estimands import (
    antibiotic_policy,
    iv_multi,
    iv_theta,
    iv_tsls,
    mediation_fixed_sex,
    natural_indirect,
    odds_ratio,
    two_stage_direct,
)
from scmkit.exogenous import DigitStream
from scmkit.graph import Dag
from scmkit.identify import eelworms_effect, frontdoor, gformula2, gformula2_given_x
from scmkit.scm import joint_distribution, sample

from structures import (
    EELWORMS_ROLES,
    GFORMULA_ROLES,
    HIRING_ROLES,
    TWO_STAGE_ROLES,
    drift_model,
    eelworms_model,
    frontdoor_model,
    gformula_model,
    hiring_model,
    iv_model,
    two_stage_model,
)
from test_casecontrol import cc_population
from test_estimands import IV_ROLES, two_stage_with_second_edge

XTR_ROLES = {"X": "X", "T": "T", "R": "R"}


def _frontdoor(joint, roles, dag=None):
    return frontdoor(joint, roles["Y"], roles["Z"], roles["W"], dag=dag, x_node=roles["X"])


# name -> (model, roles, call(model, roles, dag), whether the call reads a graph)
FORMULAS = {
    "frontdoor": (
        frontdoor_model(1),
        {"Y": "Y", "Z": "Z", "W": "W", "X": "X"},
        lambda m, roles, dag: _frontdoor(joint_distribution(m), roles, dag),
        True,
    ),
    "eelworms_effect": (
        eelworms_model(1),
        EELWORMS_ROLES,
        lambda m, roles, dag: eelworms_effect(joint_distribution(m), roles, dag=dag),
        True,
    ),
    "gformula2": (
        gformula_model(1),
        GFORMULA_ROLES,
        lambda m, roles, dag: gformula2(joint_distribution(m), roles, 0, 1, dag=dag),
        True,
    ),
    "gformula2_given_x": (
        gformula_model(1),
        GFORMULA_ROLES,
        lambda m, roles, dag: gformula2_given_x(joint_distribution(m), roles, 0, 1, 0),
        False,
    ),
    "two_stage_direct": (
        two_stage_model(1),
        TWO_STAGE_ROLES,
        lambda m, roles, dag: two_stage_direct(joint_distribution(m), roles, 0, 1, dag=dag),
        True,
    ),
    "antibiotic_policy": (
        two_stage_with_second_edge(1),
        TWO_STAGE_ROLES,
        lambda m, roles, dag: antibiotic_policy(joint_distribution(m), roles, dag=dag),
        True,
    ),
    "mediation_fixed_sex": (
        hiring_model(1),
        HIRING_ROLES,
        lambda m, roles, dag: mediation_fixed_sex(
            joint_distribution(m), roles, {0: 0.5, 1: 0.5}, dag=dag
        ),
        True,
    ),
    "natural_indirect": (
        hiring_model(1),
        HIRING_ROLES,
        lambda m, roles, dag: natural_indirect(joint_distribution(m), roles, dag=dag),
        True,
    ),
    "iv_theta": (
        iv_model(1),
        IV_ROLES,
        lambda m, roles, dag: iv_theta(joint_distribution(m), roles),
        False,
    ),
    "iv_theta_dataset": (
        iv_model(1),
        IV_ROLES,
        lambda m, roles, dag: iv_theta(sample(m, DigitStream(3), 50), roles),
        False,
    ),
    "iv_multi": (
        iv_model(1),
        IV_ROLES,
        lambda m, roles, dag: iv_multi(joint_distribution(m), roles, 0),
        False,
    ),
    "iv_tsls": (
        iv_model(1),
        IV_ROLES,
        lambda m, roles, dag: iv_tsls(sample(m, DigitStream(3), 50), roles),
        False,
    ),
    "odds_ratio": (
        drift_model(),
        XTR_ROLES,
        lambda m, roles, dag: odds_ratio(joint_distribution(m), roles),
        False,
    ),
    "simulate_case_control": (
        cc_population(),
        XTR_ROLES,
        lambda m, roles, dag: simulate_case_control(m, 5, DigitStream(0), roles=roles),
        False,
    ),
}
ROLE_DICTS = [name for name in FORMULAS if name != "frontdoor"]
SHAPED = [name for name, (_, _, _, graph) in FORMULAS.items() if graph]


@pytest.mark.parametrize("name", list(FORMULAS))
def test_the_bound_formula_runs(name):
    model, roles, call, graph = FORMULAS[name]
    call(model, dict(roles), model.dag if graph else None)


@pytest.mark.parametrize("name", ROLE_DICTS)
def test_missing_role_is_named(name):
    model, roles, call, _ = FORMULAS[name]
    dropped = list(roles)[-1]
    partial = {r: n for r, n in roles.items() if r != dropped}
    with pytest.raises(InvalidArgumentError, match=f"missing role binding '{dropped}'"):
        call(model, partial, None)


@pytest.mark.parametrize("name", list(FORMULAS))
def test_unknown_node_is_named(name):
    model, roles, call, _ = FORMULAS[name]
    wrong = dict(roles, **{next(iter(roles)): "Nowhere"})
    with pytest.raises(InvalidArgumentError, match=r"lacks nodes \['Nowhere'\]"):
        call(model, wrong, None)


@pytest.mark.parametrize("name", list(FORMULAS))
def test_duplicate_binding_is_rejected(name):
    model, roles, call, _ = FORMULAS[name]
    first, second = list(roles)[:2]
    twice = dict(roles, **{second: roles[first]})
    with pytest.raises(InvalidArgumentError, match="distinct"):
        call(model, twice, None)


@pytest.mark.parametrize("name", SHAPED)
def test_wrong_shape_is_rejected(name):
    model, roles, call, _ = FORMULAS[name]
    edges = sorted(model.dag.edges)
    missing_edge = Dag(model.dag.nodes, edges[1:])
    with pytest.raises(InvalidArgumentError, match="shape"):
        call(model, dict(roles), missing_edge)


@pytest.mark.parametrize("name", SHAPED)
def test_an_extra_node_is_rejected(name):
    model, roles, call, _ = FORMULAS[name]
    extra = Dag(list(model.dag.nodes) + ["Stray"], model.dag.edges)
    with pytest.raises(InvalidArgumentError, match="shape|latent"):
        call(model, dict(roles), extra)


def test_latent_nodes_may_carry_any_names():
    model = eelworms_model(1)
    renamed = {"A": "Weather", "B": "Birds"}
    dag = Dag(
        [renamed.get(n, n) for n in model.dag.nodes],
        [(renamed.get(a, a), renamed.get(b, b)) for a, b in model.dag.edges],
    )
    joint = joint_distribution(model)
    assert eelworms_effect(joint, EELWORMS_ROLES, dag=dag) == eelworms_effect(
        joint, EELWORMS_ROLES
    )
