"""Each formula call reads its observational joint in exactly one scan.

A formula asks for all of its factors and supports at once, so one
`_marginals` call serves the whole call, whether the masses are floats (in
plain Python or on numpy) or the integer numerators of a Fraction joint;
`verify_rule` makes one per joint it builds.  An unpinned call reads the
joint in one `_slice` pass.  A factor that pins some of its given nodes to
one value each reads only that slice of the joint, one `_slice` pass per
distinct set of pins, and equals the unpinned factor's matching strata.
"""

import importlib
import json
import math
import pkgutil
import random
import re
import sys
from fractions import Fraction

import pytest

import scmkit
from scmkit import scm as scm_module
from scmkit.docalc import NodePartition, verify_rule
from scmkit.errors import InvalidArgumentError, PositivityError
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
from scmkit.scm import (
    Cpt,
    Domain,
    JointTable,
    Scm,
    _conditional_laws,
    _marginals,
    cond_independent,
    conditional_laws,
    joint_distribution,
    restrict,
    save_model,
)

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
    sparse_model,
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
    """A list that gains one entry per call of `scm._marginals`, through
    every loaded module that binds that name (`identify` and `structures`
    import it)."""
    seen = []
    real = scm_module._marginals

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("_marginals") is real:
            monkeypatch.setattr(module, "_marginals", counted)
    return seen


@pytest.fixture()
def slices(monkeypatch):
    """A list that gains the `fixed` {axis: code} of each `scm._slice` pass."""
    seen = []
    real = scm_module._slice

    def counted(joint, fixed, axes_lists):
        seen.append(fixed)
        return real(joint, fixed, axes_lists)

    monkeypatch.setattr(scm_module, "_slice", counted)
    return seen


# name -> the number of pinned axes of each `_slice` pass its call makes,
# sorted; every other call reads the whole joint in one pass.
PINNED_PASSES = {
    "gformula2": [0, 1, 2],
    "gformula2_given_x": [2, 3],
    "two_stage_direct": [1, 2],
}


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


@pytest.mark.parametrize("storage", ["list", "numpy", "fraction"])
@pytest.mark.parametrize("name", list(CALLS))
def test_one_pass_per_pin_group(name, storage, slices, monkeypatch):
    if storage == "numpy":
        monkeypatch.setattr(scm_module, "_STDLIB_DRAWS", 0)
        monkeypatch.setattr(scm_module, "_NUMPY_JOINT", 0)
    model, call = CALLS[name]
    joint = joint_distribution(exact(model) if storage == "fraction" else model)
    call(joint)
    assert sorted(map(len, slices)) == PINNED_PASSES.get(name, [0])


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


@pytest.mark.parametrize("a, b", [(set(), {"R"}), ({"T"}, set()), (set(), set())])
def test_an_empty_node_set_is_independent_without_a_scan(a, b, scans):
    joint = joint_distribution(simpson_scm())
    assert cond_independent(joint, a, b, {"X"}) == (True, 0.0)
    assert scans == []


def test_only_scm_reads_the_flat_masses():
    for info in pkgutil.iter_modules(scmkit.__path__):
        module = importlib.import_module(f"scmkit.{info.name}")
        if module is not scm_module:
            assert getattr(module, "_slice", None) is not scm_module._slice, info.name


TERNARY_PLAN = {n: 3 for n in GFORMULA_ROLES}


def stored(form: str, model: Scm, monkeypatch) -> JointTable:
    """The model's joint in one storage form: plain list, numpy `_array`, a
    `keys` table built from a shuffled mapping, or a `restrict` result."""
    if form == "numpy":
        monkeypatch.setattr(scm_module, "_STDLIB_DRAWS", 0)
        monkeypatch.setattr(scm_module, "_NUMPY_JOINT", 0)
    joint = joint_distribution(model)
    assert (joint._array is not None) == (form == "numpy")
    if form == "keys":
        items = list(joint.probs.items())
        random.Random(5).shuffle(items)
        joint = JointTable(joint.order, dict(items))
    elif form == "restrict":
        last = joint.order[-1]
        joint = restrict(joint, joint.order[:-1], {last: joint.values[-1][-1]})
    if form in ("keys", "restrict"):
        assert joint.keys is not None
    return joint


def sixths(model: Scm) -> Scm:
    """The ternary model with each row's entries ranked as 1/6, 2/6 and 3/6,
    so that its Fraction joint's numerators stay on int64."""
    cpts = {}
    for n, cpt in model.cpts.items():
        table = {}
        for cfg, row in cpt.table.items():
            ranks = sorted(range(3), key=row.__getitem__)
            table[cfg] = tuple(Fraction(1 + ranks.index(i), 6) for i in range(3))
        cpts[n] = Cpt(n, cpt.parents, table)
    return Scm(model.dag, model.domains, cpts)


def pinned_cases(joint: JointTable) -> list:
    """(targets, given, pins) over the table's nodes: one or two given nodes
    pinned, to every value of their domain and to one outside it."""
    o = joint.order
    cases = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for v in (*joint.values[a], "off"):
            cases.append(((o[-1],), o[:3], {o[a]: v}))
            for w in joint.values[b][:2]:
                cases.append(((o[3], o[-1]), o[:3], {o[a]: v, o[b]: w}))
    return cases


def matching(laws: dict, given: tuple, pins: dict) -> dict:
    return {g: law for g, law in laws.items()
            if all(g[given.index(n)] == v for n, v in pins.items())}


@pytest.mark.parametrize("exact_masses", [False, True], ids=["float", "fraction"])
@pytest.mark.parametrize("name", ["plan", "sparse"])
@pytest.mark.parametrize("form", ["list", "numpy", "keys", "restrict"])
def test_a_pinned_factor_is_the_unpinned_factors_matching_strata(
    form, name, exact_masses, monkeypatch
):
    if name == "plan":
        model = gformula_model(1, TERNARY_PLAN)
        model = sixths(model) if exact_masses else model
    else:
        model = sparse_model(3, n=7, exact=exact_masses)
    joint = stored(form, model, monkeypatch)
    assert (joint.scale is not None) == (exact_masses and form in ("list", "numpy"))
    cases = pinned_cases(joint)
    laws, _ = _conditional_laws(joint, cases)
    for (targets, given, pins), law in zip(cases, laws):
        (unpinned,), _ = _conditional_laws(joint, [(targets, given)])
        # repr holds every key order and every number's type.
        assert repr(law) == repr(matching(unpinned, given, pins))
        assert law or "off" in pins.values() or name == "sparse"
        for nodes in (given, given + targets):
            (table,) = _marginals(joint, nodes, numerators=True, pins=[pins])
            (whole,) = _marginals(joint, nodes, numerators=True)
            assert repr(table) == repr({k: m for k, m in whole.items()
                                        if all(k[nodes.index(n)] == v for n, v in pins.items())})


def test_pinned_factors_still_take_one_scan(scans, slices):
    joint = joint_distribution(gformula_model(1, TERNARY_PLAN))
    cases = pinned_cases(joint)
    _conditional_laws(joint, cases + [(("R2",), ("X",))], ("R2",))
    assert len(scans) == 1
    # One pass over each distinct slice, and one over the whole joint.
    assert len(slices) == len({frozenset(pins.items()) for *_, pins in cases}) + 1


def test_a_support_is_read_from_unpinned_factors_only():
    joint = joint_distribution(gformula_model(1, TERNARY_PLAN))
    pinned = (("R",), ("X", "T"), {"T": 1})
    _, values = _conditional_laws(joint, [pinned, (("T",), ())], ("T",))
    assert values == [[0, 1, 2]]
    with pytest.raises(InvalidArgumentError, match="'T' is in no unpinned factor"):
        _conditional_laws(joint, [pinned], ("T",))


def test_only_given_nodes_can_be_pinned():
    joint = joint_distribution(gformula_model(1))
    with pytest.raises(InvalidArgumentError, match="only conditioning nodes"):
        _conditional_laws(joint, [(("R",), ("X",), {"T": 0})])


def without_x(value) -> Scm:
    """The ternary plan model with no mass at X = value."""
    model = gformula_model(1, TERNARY_PLAN)
    row = [0 if v == value else 1 for v in range(3)]
    cpts = dict(model.cpts, X=Cpt("X", (), {(): tuple(Fraction(p, sum(row)) for p in row)}))
    return Scm(model.dag, model.domains, cpts)


@pytest.mark.parametrize("x_val", [2, 9], ids=["zero-mass", "off-domain"])
@pytest.mark.parametrize("form", ["list", "numpy"])
def test_gformula2_given_x_names_the_stratum_without_mass(x_val, form, monkeypatch):
    joint = stored(form, without_x(2), monkeypatch)
    stratum = f"conditioning stratum {{T=0, X={x_val}}} has no mass"
    with pytest.raises(PositivityError, match=re.escape(stratum)):
        gformula2_given_x(joint, GFORMULA_ROLES, 0, 1, x_val)


@pytest.mark.parametrize("call, pinned", [
    (lambda j: gformula2(j, GFORMULA_ROLES, 0, 1), ("T", "T2")),
    (lambda j: gformula2_given_x(j, GFORMULA_ROLES, 0, 1, 2), ("X", "T", "T2")),
], ids=["gformula2", "gformula2_given_x"])
def test_the_r2_factor_divides_only_its_treatment_slice(call, pinned, monkeypatch):
    # The r2 factor is the one with five given nodes; unpinned, it divides
    # every cell of the joint's (X, T, R, X2, T2, R2) marginal.
    seen = []
    real = scm_module._divide

    def counted(masses, cells, k, scale=None):
        seen.append((k, len(cells)))
        return real(masses, cells, k, scale)

    monkeypatch.setattr(scm_module, "_divide", counted)
    joint = joint_distribution(gformula_model(1, TERNARY_PLAN))
    call(joint)
    (cells,) = [n for k, n in seen if k == 5]
    whole = len(_marginals(joint, tuple(GFORMULA_ROLES))[0])
    assert whole == 729
    assert cells * 3 ** len(pinned) == whole


# Slice plans: `_slice` keeps each small grid's codes and key order in
# `scm._plan`, keyed by grid sizes, pins and axes, never by domain values.

PLAN_MODELS = {
    "plan": lambda: gformula_model(1, TERNARY_PLAN),
    "plan-fraction": lambda: sixths(gformula_model(1, TERNARY_PLAN)),
    "sparse": lambda: sparse_model(3, n=7),
    "sparse-fraction": lambda: sparse_model(3, n=7, exact=True),
    "no-mass-at-x": lambda: without_x(2),
}


def read_through_slices(joint: JointTable) -> str:
    """The repr, which holds every key order and number type, of pinned and
    unpinned conditional laws, a support, marginals with and without pins,
    and a `restrict`, all on one joint."""
    o = joint.order
    cases = pinned_cases(joint) + [((o[-1],), o[:2]), ((o[0], o[2]), ())]
    laws = _conditional_laws(joint, cases, (o[0],))
    tables = _marginals(joint, o[:2], (o[-1], o[0]), o)
    tables += _marginals(joint, o[1:3], o[3:], numerators=True,
                         pins=[{o[0]: joint.values[0][0]}, {o[1]: "off"}])
    return repr((laws, tables, restrict(joint, (o[-1], o[1]), {o[0]: joint.values[0][0]})))


@pytest.mark.parametrize("name", list(PLAN_MODELS))
@pytest.mark.parametrize("form", ["list", "numpy", "keys", "restrict"])
def test_a_warm_plan_cache_reads_as_a_cold_one(form, name, monkeypatch):
    joint = stored(form, PLAN_MODELS[name](), monkeypatch)
    if form == "list":
        assert joint.zeros == (not name.startswith("plan"))
    scm_module._plan.cache_clear()
    cold = read_through_slices(joint)
    plans = scm_module._plan.cache_info().currsize
    # A numpy joint is sliced in numpy; every other small grid keeps plans.
    assert (plans > 0) == (form != "numpy")
    assert read_through_slices(joint) == cold
    assert scm_module._plan.cache_info().hits > 0 or form == "numpy"
    # Below the cutoff of no cells, no plan is kept or read.
    monkeypatch.setattr(scm_module, "_STDLIB_DRAWS", 0)
    assert read_through_slices(joint) == cold
    assert scm_module._plan.cache_info().currsize == plans


def test_one_grid_keeps_each_domains_key_types():
    # 0 == 0.0 == False hash alike, so plans keyed by values would mix them.
    model = simpson_scm()
    joints = []  # not a dict: the three value tuples are equal keys
    for values in ((0, 1), (0.0, 1.0), (False, True)):
        cpts = {n: Cpt(n, c.parents, {tuple(values[v] for v in cfg): row for cfg, row in c.table.items()})
                for n, c in model.cpts.items()}
        joints.append((values, joint_distribution(
            Scm(model.dag, {n: Domain(n, values) for n in model.dag.nodes}, cpts))))

    def read(joint, values):
        laws = conditional_laws(joint, ("R",), ("T", "X"))
        pinned, _ = _conditional_laws(joint, [(("R",), ("T", "X"), {"T": values[1]})])
        (table,) = _marginals(joint, ("T", "X"))
        law = restrict(joint, ("R",), {"T": values[1]})
        keys = [*laws, *(k for law in laws.values() for k in law), *pinned[0], *table, *law.probs]
        assert {type(v) for key in keys for v in key} == {type(values[0])}
        return repr((laws, pinned, table, law))

    cold = []
    for values, joint in joints:
        scm_module._plan.cache_clear()
        cold.append(read(joint, values))
    for (values, joint), want in reversed(list(zip(joints, cold))):
        assert read(joint, values) == want


def test_changing_a_returned_law_or_table_does_not_reach_the_next_call():
    joint = joint_distribution(gformula_model(1))
    pins = {"T": 1}

    def read():
        laws, _ = _conditional_laws(joint, [(("R",), ("X", "T")), (("R",), ("X", "T"), pins)])
        return laws, _marginals(joint, ("X", "T"), ("R",)), restrict(joint, ("R", "X"), pins)

    first = repr(read())
    laws, tables, law = read()
    for stratum in laws:
        for cells in stratum.values():
            cells.clear()
        stratum[(9, 9)] = {}
    for table in tables:
        table[next(iter(table))] = -1.0
        table[(9,)] = 2.0
    law.masses.reverse()
    law.keys.append(law.keys[0])
    assert repr(read()) == first
    # The plans themselves are tuples, which no caller can change.
    masses, codes, orders = scm_module._slice(joint, {1: 1}, [[0], [2]])
    assert all(type(plan) is tuple for plan in (*codes, *orders))


def test_a_sweep_past_the_bound_keeps_the_plan_cache_within_it():
    bound = scm_module._SLICE_PLANS
    scm_module._plan.cache_clear()
    assert scm_module._plan.cache_info().maxsize == bound
    for k in range(1, bound + 51):
        joint = JointTable(("A",), {(v,): 1 / k for v in range(k)})
        (table,) = _marginals(joint, ("A",))
        assert list(table) == [(v,) for v in range(k)]
        assert scm_module._plan.cache_info().currsize == min(k, bound)


@pytest.mark.parametrize("below", [True, False])
def test_only_a_grid_below_the_draw_cutoff_keeps_plans(below):
    cells = scm_module._STDLIB_DRAWS - below
    joint = JointTable(("A", "B"), {(0, b): 1 / cells for b in range(cells)})
    assert joint.sizes == (1, cells)
    scm_module._plan.cache_clear()
    (table,) = _marginals(joint, ("B",))
    assert len(table) == cells
    assert scm_module._plan.cache_info().currsize == below


# Array plans: a numpy joint's slices read their code arrays, and a joint
# without zeros its key orders, from `scm._array_plan`, kept like `_plan`.

@pytest.mark.parametrize("name", list(PLAN_MODELS))
def test_a_warm_array_plan_cache_reads_as_a_cold_one(name, monkeypatch):
    listed = read_through_slices(stored("list", PLAN_MODELS[name](), monkeypatch))
    joint = stored("numpy", PLAN_MODELS[name](), monkeypatch)
    assert (joint._array.dtype == "int64") == name.endswith("-fraction")
    assert joint.zeros == (not name.startswith("plan"))
    scm_module._array_plan.cache_clear()
    cold = read_through_slices(joint)
    plans = scm_module._array_plan.cache_info().currsize
    assert plans > 0
    assert read_through_slices(joint) == cold == listed
    assert scm_module._array_plan.cache_info().hits > 0
    # A joint of no fewer cells than the bound computes its codes anew.
    monkeypatch.setattr(scm_module, "_ARRAY_PLAN_CELLS", joint._array.size)
    assert read_through_slices(joint) == cold
    assert scm_module._array_plan.cache_info().currsize == plans


def test_writing_to_a_returned_code_array_raises(monkeypatch):
    joint = stored("numpy", gformula_model(1, TERNARY_PLAN), monkeypatch)
    assert not joint.zeros
    masses, codes, orders = scm_module._slice(joint, {1: 1}, [[0], [2, 1]])
    assert [list(order) for order in orders] == [[0, 1, 2], [1, 4, 7]]
    for array in (*codes, *orders):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert scm_module._slice(joint, {1: 1}, [[0]])[1][0] is codes[0]


def uniform_joint(sizes: tuple) -> JointTable:
    """The numpy joint of independent uniform nodes of the given sizes."""
    nodes = [f"N{i}" for i in range(len(sizes))]
    return joint_distribution(Scm(
        Dag(nodes, []), {n: Domain(n, tuple(range(k))) for n, k in zip(nodes, sizes)},
        {n: Cpt(n, (), {(): (1 / k,) * k}) for n, k in zip(nodes, sizes)}))


@pytest.mark.parametrize("axes, dtype", [([0], "uint8"), ([1], "uint16"), ([0, 1], "uint32")])
def test_code_arrays_take_the_smallest_unsigned_type(axes, dtype, monkeypatch):
    # 256, 257 and 65,792 codes: the largest code fits one, two and four bytes.
    monkeypatch.setattr(scm_module, "_NUMPY_JOINT", 0)
    joint = uniform_joint((256, 257))
    masses, (codes,), (order,) = scm_module._slice(joint, {}, [axes])
    assert codes.dtype == order.dtype == dtype
    assert order.tolist() == list(range(math.prod(joint.sizes[a] for a in axes)))


def test_a_sweep_past_the_bound_keeps_the_array_plan_cache_within_it(monkeypatch):
    monkeypatch.setattr(scm_module, "_NUMPY_JOINT", 0)
    monkeypatch.setattr(scm_module, "_STDLIB_DRAWS", 0)
    bound = scm_module._ARRAY_PLANS
    scm_module._array_plan.cache_clear()
    assert scm_module._array_plan.cache_info().maxsize == bound
    for k in range(1, bound + 11):
        joint = uniform_joint((k,))
        assert joint._array is not None
        (table,) = _marginals(joint, ("N0",))
        assert list(table) == [(v,) for v in range(k)]
        assert scm_module._array_plan.cache_info().currsize == min(k, bound)


@pytest.mark.parametrize("below", [True, False])
def test_only_a_joint_below_the_cell_bound_keeps_array_plans(below, monkeypatch):
    monkeypatch.setattr(scm_module, "_NUMPY_JOINT", 0)
    sizes = (27, 7, 19, 73) if below else (64, 64, 64)
    joint = uniform_joint(sizes)
    assert joint._array.size == scm_module._ARRAY_PLAN_CELLS - below
    scm_module._array_plan.cache_clear()
    tables = _marginals(joint, ("N0",), ("N2", "N1"), pins=[{}, {"N0": 1}])
    assert list(map(len, tables)) == [sizes[0], sizes[1] * sizes[2]]
    assert list(tables[1])[:2] == [(0, 0), (1, 0)]  # first appearances, in grid order
    assert scm_module._array_plan.cache_info().currsize == 2 * below


# Joint enumeration reads each node's parent codes from `_plan` too.

DOMAINS = [(0, 1), (0.0, 1.0), (False, True)]


def relabelled(model: Scm, values: tuple, drop=None) -> Scm:
    """The binary model over `values` in place of (0, 1), without the row
    `drop` (node, configuration) if one is given."""
    cpts = {}
    for n, c in model.cpts.items():
        table = {tuple(values[v] for v in cfg): row for cfg, row in c.table.items()
                 if (n, cfg) != drop}
        cpts[n] = Cpt(n, c.parents, table)
    return Scm(model.dag, {n: Domain(n, values) for n in model.dag.nodes}, cpts)


def test_joint_enumeration_keeps_each_domains_key_types():
    cold = []
    for values in DOMAINS:
        scm_module._plan.cache_clear()
        cold.append(repr(joint_distribution(relabelled(simpson_scm(), values))))
    assert scm_module._plan.cache_info().currsize > 0
    for values, want in reversed(list(zip(DOMAINS, cold))):
        joint = joint_distribution(relabelled(simpson_scm(), values))
        assert {type(v) for key in joint.probs for v in key} == {type(values[0])}
        assert repr(joint) == want
    assert scm_module._plan.cache_info().hits > 0


def test_a_missing_row_is_named_in_its_own_values():
    joint_distribution(simpson_scm())  # warms the plans of the Simpson grid
    for values in DOMAINS:
        model = relabelled(simpson_scm(), values, drop=("R", (1, 0)))
        with pytest.raises(InvalidArgumentError) as info:
            joint_distribution(model)
        assert str(info.value) == (f"'R': table lacks the row for parents ['T', 'X'] = "
                                   f"[{values[1]!r}, {values[0]!r}]")
