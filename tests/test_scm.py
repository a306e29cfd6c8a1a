import copy
import json
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scmkit.errors import (
    InvalidArgumentError,
    PositivityError,
    ResourceLimitError,
    ZeroProbabilityError,
)
from scmkit.exogenous import DigitStream
from scmkit.graph import Dag
from scmkit.identify import adjust, gformula2
from scmkit.scm import (
    Cpt,
    Dataset,
    Domain,
    Intervention,
    JointTable,
    MAX_META_DEPTH,
    POSITIVITY_CUTOFF,
    Scm,
    cond_independent,
    conditional_laws,
    intervene,
    joint_distribution,
    restrict,
    sample,
    scm_from_dict,
    scm_from_json,
    scm_to_json,
    validate_scm,
    _marginals,
)

from structures import (
    GFORMULA_EDGES,
    GFORMULA_NODES,
    GFORMULA_ROLES,
    exact_fill,
    expectation,
    fill,
    reference_joint,
    reference_sums,
    sparse_model,
    total_variation,
    with_tables,
)
from test_graph import FIG1_EDGES, FIG1_NODES


def simpson_scm(beta=0.8, exact=False):
    """Covariate X, treatment T leaning against X, recovery R."""
    num = Fraction if exact else float
    p = {  # P(R=1 | T=t, X=x)
        (0, 0): num("0.2"),
        (0, 1): num("0.7"),
        (1, 0): num("0.5"),
        (1, 1): num("0.9"),
    }
    b = num(str(beta))
    half = num("0.5")
    one = num(1)
    dag = Dag(["X", "T", "R"], [("X", "T"), ("X", "R"), ("T", "R")])
    domains = {n: Domain(n, (0, 1)) for n in dag.nodes}
    cpts = {
        "X": Cpt("X", (), {(): (half, one - half)}),
        "T": Cpt("T", ("X",), {(0,): (one - b, b), (1,): (b, one - b)}),
        "R": Cpt(
            "R",
            ("T", "X"),
            {(t, x): (one - p[t, x], p[t, x]) for t in (0, 1) for x in (0, 1)},
        ),
    }
    return Scm(dag, domains, cpts, {"name": "simpson"})


def items(law) -> list:
    """(key, value, type of value) in key order, to compare exactly."""
    return [(k, p, type(p)) for k, p in law.items()]


def reference_law(order, probs, targets, given=None):
    mass, sums = reference_sums(order, probs, targets, given)
    if float(mass) <= POSITIVITY_CUTOFF:
        return None
    return {k: v / mass for k, v in sums.items()}


def exact_law(joint, targets, given=None):
    try:
        return restrict(joint, targets, given).probs
    except ZeroProbabilityError:
        return None


SPARSE = [(seed, exact) for seed in range(8) for exact in (False, True)]


class TestValidate:
    def test_well_formed_chain(self):
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {"A": Domain("A", (0, 1)), "B": Domain("B", (0, 1))},
            {
                "A": Cpt("A", (), {(): (0.4, 0.6)}),
                "B": Cpt("B", ("A",), {(0,): (0.3, 0.7), (1,): (0.8, 0.2)}),
            },
        )
        assert validate_scm(scm) == []

    def test_bad_row_sum_is_refused(self):
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("T", ("X",), {(0,): (0.2, 0.7), (1,): (0.8, 0.2)})
        assert str(info.value) == "'T': row '0' sums to 0.8999999999999999, not 1"

    def test_non_parent_reference(self):
        scm = simpson_scm()
        with pytest.raises(InvalidArgumentError) as info:
            with_tables(scm, Cpt("T", ("R",), {(0,): (0.2, 0.8), (1,): (0.8, 0.2)}))
        assert str(info.value) == "'T': table parents ['R'] != graph parents ['X']"

    def test_missing_row(self):
        scm = with_tables(simpson_scm(), Cpt("T", ("X",), {(0,): (0.2, 0.8)}))
        assert any("rows" in p for p in validate_scm(scm))
        assert validate_scm(scm) == ["'T': table has 1 rows, expected 2"]

    def test_cycle_reported_not_raised(self):
        dag = Dag(["A", "B"], [("A", "B"), ("B", "A")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", ("B",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
                "B": Cpt("B", ("A",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
            },
        )
        assert any("cycle" in p for p in validate_scm(scm))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_probability_is_refused(self, bad):
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("T", ("X",), {(0,): (bad, 0.8), (1,): (0.8, 0.2)})
        assert str(info.value) == "'T': row '0' has a non-finite probability"

    @pytest.mark.parametrize("huge", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_entries_past_the_float_range_are_refused_not_raised(self, huge):
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("B", ("A",), {(0,): (huge, 0), (1,): (0, 1)})
        assert str(info.value) == "'B': row '0' has a non-finite probability"

    def test_a_row_summing_past_the_float_range_is_refused_not_raised(self):
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("T", ("X",), {(0,): (10**308, 10**308), (1,): (0.8, 0.2)})
        assert str(info.value) == "'T': row '0' sums to inf, not 1"

    def test_a_node_with_a_table_but_no_domain_is_refused(self):
        with pytest.raises(InvalidArgumentError) as info:
            Scm(
                Dag(["A", "B"], [("A", "B")]),
                {"A": Domain("A", (0, 1))},
                {
                    "A": Cpt("A", (), {(): (0.5, 0.5)}),
                    "B": Cpt("B", ("A",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
                },
            )
        assert str(info.value) == "node 'B' has no domain"

    def test_a_parent_without_a_domain_is_refused(self):
        # The parent's missing domain is named first; B's rows are then
        # never checked against it.
        with pytest.raises(InvalidArgumentError) as info:
            Scm(
                Dag(["A", "B"], [("A", "B")]),
                {"B": Domain("B", (0, 1))},
                {
                    "A": Cpt("A", (), {(): (0.5, 0.5)}),
                    "B": Cpt("B", ("A",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
                },
            )
        assert str(info.value) == "node 'A' has no domain"


class TestConstruction:
    """A model is checked once, when built: each fault is named by the
    record that holds it, and a built model cannot be patched."""

    @staticmethod
    def chain(**changes):
        parts = {
            "dag": Dag(["A", "B"], [("A", "B")]),
            "domains": {n: Domain(n, (0, 1)) for n in "AB"},
            "cpts": {"A": Cpt("A", (), {(): (0.5, 0.5)}),
                     "B": Cpt("B", ("A",), {(0,): (0.5, 0.5), (1,): (0.25, 0.75)})},
        }
        for name, change in changes.items():
            parts[name] = {**parts[name], **change}
        return Scm(parts["dag"], parts["domains"], parts["cpts"])

    @pytest.mark.parametrize("changes, message", [
        ({"cpts": {"C": Cpt("C", (), {(): (1.0,)})}}, "table for unknown node 'C'"),
        ({"domains": {"C": Domain("C", (0,))}}, "domain for unknown node 'C'"),
        ({"cpts": {"B": Cpt("A", ("A",), {(0,): (1.0, 0.0)})}}, "table keyed to 'A' stored under 'B'"),
        ({"cpts": {"B": Cpt("B", ("A", "A"), {(0, 0): (1.0, 0.0)})}}, "'B': duplicate parent in table"),
        ({"cpts": {"B": Cpt("B", ("A",), {(0, 1): (1.0, 0.0)})}}, "'B': row key '0|1' has wrong arity"),
        ({"cpts": {"B": Cpt("B", ("A",), {0: (1.0, 0.0)})}}, "'B': row key '0' has wrong arity"),
        ({"cpts": {"B": Cpt("B", ("A",), {(0,): (1.0, 0.0), (9,): (1.0, 0.0)})}},
         "'B': key value 9 not in domain of 'A'"),
        ({"cpts": {"B": Cpt("B", ("A",), {(0,): (1.0, 0.0, 0.0)})}}, "'B': row '0' has length 3, not 2"),
        ({"cpts": {"B": Cpt("B", ("A",), {(0,): (1.0, 0.0), (1,): (1.0,)})}}, "'B': row '1' has length 1, not 2"),
    ], ids=["unknown-table", "unknown-domain", "keyed", "repeated-parent", "arity", "not-a-tuple",
            "key-value", "length", "length-in-a-full-table"])
    def test_a_table_that_does_not_fit_is_refused(self, changes, message):
        with pytest.raises(InvalidArgumentError) as info:
            self.chain(**changes)
        assert str(info.value) == message

    @pytest.mark.parametrize("row", [("a", 1), (None, 1), ([0.5], 0.5), (0.5, {}), "ab"],
                             ids=["str", "none", "list", "dict", "str-row"])
    def test_an_entry_that_is_not_a_number_is_refused(self, row):
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("B", ("A",), {(0,): (0.5, 0.5), (1,): row})
        assert str(info.value) == "'B': row '1' has an entry that is not a number"

    @pytest.mark.parametrize("row", [(True, False), (False, 1), (0, 1), (0.25, Fraction(3, 4)),
                                     (Fraction(1, 2), 0.5)])
    def test_numbers_bools_included_are_accepted(self, row):
        scm = self.chain(cpts={"B": Cpt("B", ("A",), {(0,): row, (1,): row})})
        assert scm.cpts["B"].table[(1,)] == row
        assert joint_distribution(scm).probs.get((0, 1), 0) == row[1] / 2

    def test_a_node_without_a_table_is_refused(self):
        with pytest.raises(InvalidArgumentError) as info:
            Scm(Dag(["A"], []), {"A": Domain("A", (0, 1))}, {})
        assert str(info.value) == "node 'A' has no table"

    def test_a_built_model_cannot_be_patched(self):
        scm = self.chain()
        with pytest.raises(TypeError):
            scm.cpts["B"] = Cpt("B", ("A",), {(0,): (1.0, 0.0), (1,): (1.0, 0.0)})
        with pytest.raises(TypeError):
            scm.domains["A"] = Domain("A", (0, 1, 2))
        assert scm.cpts == self.chain().cpts and scm.domains == self.chain().domains

    def test_the_given_mappings_are_copied(self):
        cpts = dict(self.chain().cpts)
        scm = Scm(self.chain().dag, self.chain().domains, cpts)
        cpts["B"] = Cpt("B", ("A",), {(0,): (1.0, 0.0), (1,): (1.0, 0.0)})
        assert scm.cpts["B"].table[(1,)] == (0.25, 0.75)

    def test_a_node_of_forty_parents_and_one_row_is_built_at_once(self):
        # Only the rows are checked, never the 2**40 parent configurations.
        parents = tuple(f"P{i:02d}" for i in range(40))
        nodes = [*parents, "Y"]
        domains = {n: Domain(n, (0, 1)) for n in nodes}
        cpts = {p: Cpt(p, (), {(): (0.5, 0.5)}) for p in parents}
        cpts["Y"] = Cpt("Y", parents, {(0,) * 40: (0.5, 0.5)})
        scm = Scm(Dag(nodes, [(p, "Y") for p in parents]), domains, cpts)
        assert validate_scm(scm) == ["'Y': table has 1 rows, expected 1099511627776"]

    @pytest.mark.parametrize("clone", [
        lambda scm: pickle.loads(pickle.dumps(scm)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_a_model_pickles_and_copies(self, clone):
        scm = self.chain()
        scm.meta["note"] = "kept"
        twin = clone(scm)
        assert twin is not scm and type(twin.cpts) is type(scm.cpts)
        assert (twin.dag, twin.domains, twin.cpts, twin.meta) == (scm.dag, scm.domains, scm.cpts, scm.meta)
        assert joint_distribution(twin).probs == joint_distribution(scm).probs
        with pytest.raises(TypeError):
            twin.cpts["A"] = scm.cpts["A"]


class TestJointDistribution:
    def test_single_coin(self):
        dag = Dag(["C"], [])
        scm = Scm(dag, {"C": Domain("C", (0, 1))}, {"C": Cpt("C", (), {(): (0.5, 0.5)})})
        joint = joint_distribution(scm)
        assert joint.probs == {(0,): 0.5, (1,): 0.5}

    def test_simpson_conditional_direction(self):
        joint = joint_distribution(simpson_scm())
        r_given_t1 = restrict(joint, "R", {"T": 1})
        r_given_t0 = restrict(joint, "R", {"T": 0})
        assert r_given_t1.probs[(1,)] == pytest.approx(0.58, abs=1e-12)
        assert r_given_t0.probs[(1,)] == pytest.approx(0.60, abs=1e-12)

    def test_exact_mode_gives_rationals(self):
        joint = joint_distribution(simpson_scm(exact=True))
        law = restrict(joint, "R", {"T": 1})
        assert law.probs[(1,)] == Fraction(29, 50)
        assert restrict(joint, "R", {"T": 0}).probs[(1,)] == Fraction(3, 5)

    def test_normalization(self):
        scm = fill(Dag(FIG1_NODES, FIG1_EDGES), seed=11)
        assert abs(sum(joint_distribution(scm).probs.values()) - 1.0) < 1e-10

    def test_a_table_parent_after_its_node_is_rejected(self):
        # The table of A lists B, which follows A in the graph's order.
        dag = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(InvalidArgumentError, match=r"'A': table parents \['B'\] != graph parents \[\]"):
            Scm(
                dag,
                {n: Domain(n, (0, 1)) for n in "AB"},
                {
                    "A": Cpt("A", ("B",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
                    "B": Cpt("B", ("A",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
                },
            )

    def test_state_space_guard(self):
        names = [f"B{i}" for i in range(24)]
        dag = Dag(names, [])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in names},
            {n: Cpt(n, (), {(): (0.5, 0.5)}) for n in names},
        )
        with pytest.raises(ResourceLimitError):
            joint_distribution(scm)


class TestJointTable:
    def test_equality_needs_the_same_order_and_law(self):
        law = {(0, 1): 0.25, (1, 0): 0.75}
        table = JointTable(("A", "B"), law)
        assert table == JointTable(("A", "B"), dict(reversed(law.items())))
        assert not table != JointTable(("A", "B"), law)
        assert table != JointTable(("B", "A"), law)
        assert table != JointTable(("A", "B"), {(0, 1): 0.5, (1, 0): 0.5})

    @pytest.mark.parametrize("other", [None, 3, "AB", {(0, 1): 0.25, (1, 0): 0.75}])
    def test_a_table_never_equals_another_type(self, other):
        table = JointTable(("A", "B"), {(0, 1): 0.25, (1, 0): 0.75})
        assert table != other
        assert not table == other

    @pytest.mark.parametrize("cfg", [(0,), (1,), (0, 1, 0), (1, 0, 0), [0, 1], [1, 0]],
                             ids=["short", "short-1", "long", "long-1", "list", "list-1"])
    def test_a_key_of_the_wrong_shape_is_missing(self, cfg):
        # Every prefix of each bad key is a configuration with mass.
        table = JointTable(("A", "B"), {(0, 1): 0.25, (1, 0): 0.75, (0, 0): 0.0})
        with pytest.raises(KeyError):
            table.probs[cfg]
        assert cfg not in table.probs


class TestRestrict:
    def test_empty_given_is_marginal(self):
        joint = joint_distribution(simpson_scm())
        law = restrict(joint, ("T",))
        assert law.probs[(1,)] == pytest.approx(0.5, abs=1e-12)

    def test_impossible_event(self):
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (1.0, 0.0)}),
                "B": Cpt("B", ("A",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
            },
        )
        with pytest.raises(ZeroProbabilityError):
            restrict(joint_distribution(scm), "B", {"A": 1})

    def test_overlap_rejected(self):
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError):
            restrict(joint, "R", {"R": 1})

    @pytest.mark.parametrize("targets", [("T", "T"), ["R", "T", "R"]])
    def test_a_repeated_target_is_refused(self, targets):
        # It used to give a table whose order named the node twice.
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError, match=f"{targets[0]!r} repeated in targets"):
            restrict(joint, targets, {"X": 0} if len(targets) > 2 else None)

    def test_expectation(self):
        joint = joint_distribution(simpson_scm())
        assert expectation(joint, "R", {"T": 1}) == pytest.approx(0.58, abs=1e-12)


class TestConditionalLaws:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "targets, given_nodes",
        [(("R",), ("T", "X")), (("R", "T"), ("X",)), (("X",), ()), (("T",), ("R",))],
    )
    def test_each_stratum_is_the_restricted_law(self, exact, targets, given_nodes):
        joint = joint_distribution(simpson_scm(exact=exact))
        laws = conditional_laws(joint, targets, given_nodes)
        strata = list(dict.fromkeys(tuple(cfg[joint.index(n)] for n in given_nodes)
                                    for cfg in joint.probs))
        assert list(laws) == strata
        for cfg, law in laws.items():
            want = restrict(joint, targets, dict(zip(given_nodes, cfg))).probs
            assert list(law.items()) == list(want.items())

    def test_strata_without_mass_are_left_out(self):
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (1.0, 0.0)}),
                "B": Cpt("B", ("A",), {(0,): (0.25, 0.75), (1,): (0.5, 0.5)}),
            },
        )
        laws = conditional_laws(joint_distribution(scm), ("B",), ("A",))
        assert laws == {(0,): {(0,): 0.25, (1,): 0.75}}

    def test_overlap_rejected(self):
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError):
            conditional_laws(joint, ("R",), ("R", "T"))

    def test_an_exact_stratum_below_the_cutoff_is_left_out(self):
        # P(A=1) = 1e-16 is positive but below POSITIVITY_CUTOFF; its
        # numerator over the joint's scale is 1.
        tiny = Fraction(1, 10**16)
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (1 - tiny, tiny)}),
                "B": Cpt("B", ("A",), {(0,): (Fraction(1, 2),) * 2, (1,): (Fraction(1, 2),) * 2}),
            },
        )
        laws = conditional_laws(joint_distribution(scm), ("B",), ("A",))
        assert laws == {(0,): {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}}

    @pytest.mark.parametrize("targets, given_nodes, what", [
        (("T", "T"), (), "'T' repeated in targets"),
        (("R",), ("T", "X", "T"), "'T' repeated in conditioning nodes"),
    ])
    def test_a_repeated_node_is_refused(self, targets, given_nodes, what):
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError, match=what):
            conditional_laws(joint, targets, given_nodes)


class TestIntervene:
    def test_simpson_adjusted_recovery(self):
        scm = simpson_scm()
        for t, want in [(1, 0.70), (0, 0.45)]:
            forced = intervene(scm, Intervention({"T": t}))
            law = restrict(joint_distribution(forced), "R")
            assert law.probs[(1,)] == pytest.approx(want, abs=1e-12)

    def test_target_loses_parents(self):
        forced = intervene(simpson_scm(), Intervention({"T": 1}))
        assert forced.dag.parents("T") == ()
        assert forced.cpts["T"].table == {(): (0, 1)}

    def test_parentless_target(self):
        forced = intervene(simpson_scm(), Intervention({"X": 0}))
        law = restrict(joint_distribution(forced), "X")
        assert law.probs == {(0,): 1.0}

    def test_disjoint_interventions_commute(self):
        scm = simpson_scm()
        ab = intervene(intervene(scm, Intervention({"X": 1})), Intervention({"T": 0}))
        ba = intervene(intervene(scm, Intervention({"T": 0})), Intervention({"X": 1}))
        assert joint_distribution(ab).probs == joint_distribution(ba).probs

    def test_out_of_domain_value(self):
        with pytest.raises(InvalidArgumentError):
            intervene(simpson_scm(), Intervention({"T": 7}))


class TestSample:
    def test_empty(self):
        data = sample(simpson_scm(), DigitStream(1), 0)
        assert data.rows == [] and set(data.columns) == {"X", "T", "R"}

    def test_point_mass_model(self):
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (0.0, 1.0)}),
                "B": Cpt("B", ("A",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)}),
            },
        )
        data = sample(scm, DigitStream(3), 25)
        assert set(data.rows) == {(1, 1)}

    def test_a_missing_row_is_named(self):
        scm = simpson_scm()
        cpt = scm.cpts["R"]
        table = {cfg: row for cfg, row in cpt.table.items() if cfg != (1, 0)}
        broken = Scm(scm.dag, scm.domains, {**scm.cpts, "R": Cpt("R", cpt.parents, table)})
        message = rf"'R': table lacks the row for parents \[{', '.join(map(repr, cpt.parents))}\]"
        for n in (0, 20):
            with pytest.raises(InvalidArgumentError, match=message):
                sample(broken, DigitStream(1), n)
        with pytest.raises(InvalidArgumentError, match=message):
            joint_distribution(broken)

    def test_a_row_missing_only_where_no_mass_reaches(self):
        # X=1 has no mass, so the joint never needs the row T | X=1; sample
        # reads every row of the table and names the missing one.
        scm = simpson_scm()
        cpts = {
            **scm.cpts,
            "X": Cpt("X", (), {(): (1.0, 0.0)}),
            "T": Cpt("T", ("X",), {(0,): scm.cpts["T"].table[(0,)]}),
        }
        broken = Scm(scm.dag, scm.domains, cpts)
        joint = joint_distribution(broken)
        assert items(joint.probs) == items(reference_joint(broken))
        assert {cfg[joint.index("X")] for cfg in joint.probs} == {0}
        with pytest.raises(InvalidArgumentError, match=r"'T': table lacks the row for parents \['X'\] = \[1\]"):
            sample(broken, DigitStream(1), 10)

    @pytest.mark.parametrize("row", [(1.0,), (0.3, 0.3, 0.4)], ids=["short", "long"])
    def test_rows_of_the_wrong_length_are_rejected(self, row):
        with pytest.raises(InvalidArgumentError) as info:
            with_tables(simpson_scm(), Cpt("X", (), {(): row}))
        assert str(info.value) == f"'X': row '' has length {len(row)}, not 2"

    @pytest.mark.parametrize("node, row", [
        ("A", (1.5, -0.5)), ("A", (Fraction(3, 2), Fraction(-1, 2))), ("B", (1.0, -0.0, 0.0)),
        ("A", (math.nan, -0.5)),
    ], ids=["float", "fraction", "negative-zero", "after-nan"])
    def test_a_negative_entry_is_rejected(self, node, row):
        # The table refuses the row, naming a NaN first.  A -0.0 entry is
        # not negative.
        scm = Scm(
            Dag(["A", "B"], [("A", "B")]),
            {"A": Domain("A", (0, 1)), "B": Domain("B", (0, 1, 2))},
            {"A": Cpt("A", (), {(): (0.5, 0.5)}),
             "B": Cpt("B", ("A",), {(0,): (0.2, 0.3, 0.5), (1,): (0.2, 0.3, 0.5)})},
        )
        cfg = () if node == "A" else (1,)
        cpt = scm.cpts[node]
        table = {**cpt.table, cfg: row}
        if min(row) == 0:
            scm = with_tables(scm, Cpt(node, cpt.parents, table))
            assert validate_scm(scm) == []
            joint = joint_distribution(scm)
            assert joint.probs[(1, 0)] == 0.5 and (1, 1) not in joint.probs
            assert len(sample(scm, DigitStream(1), 5)) == 5
            return
        finite = all(map(math.isfinite, row))
        with pytest.raises(InvalidArgumentError) as info:
            Cpt(node, cpt.parents, table)
        key = "|".join(map(str, cfg))
        assert str(info.value) == f"{node!r}: row {key!r} has a {'negative' if finite else 'non-finite'} probability"

    @pytest.mark.parametrize("row", [(math.nan, 0.5), (0.5, math.nan)], ids=["first", "last"])
    def test_a_nan_entry_is_not_taken_for_a_negative_one(self, row):
        # A row whose min() is NaN is not >= 0, so a NaN must be named
        # before a negative entry is looked for.
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("A", (), {(): row})
        assert str(info.value) == "'A': row '' has a non-finite probability"

    @pytest.mark.parametrize("row", [(0.2, 0.2), (math.nan, 0.5), (math.inf, 0.0)],
                             ids=["short-sum", "nan", "inf"])
    def test_a_row_that_is_no_distribution_is_refused_at_construction(self, row):
        # Unchecked, (0.2, 0.2) gives a joint of mass 0.4, (nan, 0.5) a nan
        # mass and a sampler that draws value 0 every time, and (inf, 0.0)
        # the joint {(0,): inf}.
        with pytest.raises(InvalidArgumentError) as info:
            Scm(Dag(["A"], []), {"A": Domain("A", (0, 1))}, {"A": Cpt("A", (), {(): row})})
        problem = "sums to 0.4, not 1" if row == (0.2, 0.2) else "has a non-finite probability"
        assert str(info.value) == f"'A': row '' {problem}"

    def test_prefix_stability(self):
        scm = simpson_scm()
        short = sample(scm, DigitStream(42), 10)
        long = sample(scm, DigitStream(42), 100)
        assert short.rows == long.rows[:10]

    def test_empirical_conditional_matches_joint(self):
        data = sample(simpson_scm(), DigitStream(2718), 100_000)
        t = np.array(data.column("T"))
        r = np.array(data.column("R"))
        n1 = int((t == 1).sum())
        freq = float(((t == 1) & (r == 1)).sum()) / n1
        se = (0.58 * 0.42 / n1) ** 0.5
        assert abs(freq - 0.58) <= 3 * se

    def test_empirical_joint_total_variation(self):
        scm = simpson_scm()
        joint = joint_distribution(scm)
        data = sample(scm, DigitStream(99), 100_000)
        counts: dict = {}
        for row in data.rows:
            counts[row] = counts.get(row, 0) + 1
        empirical = JointTable(
            data.columns, {k: v / len(data.rows) for k, v in counts.items()}
        )
        assert total_variation(joint, empirical) <= 0.02

    def test_blueprint_equivalence(self):
        # Identical tables with different stream seeds: same exact joint,
        # and both empirical laws converge to it.
        scm = simpson_scm()
        again = Scm(scm.dag, scm.domains, scm.cpts)
        assert joint_distribution(scm).probs == joint_distribution(again).probs
        for seed in (5, 6):
            data = sample(scm, DigitStream(seed), 20_000)
            counts: dict = {}
            for row in data.rows:
                counts[row] = counts.get(row, 0) + 1
            empirical = JointTable(
                data.columns, {k: v / len(data.rows) for k, v in counts.items()}
            )
            assert total_variation(joint_distribution(scm), empirical) <= 0.02


class TestFlatJointMatchesDictReference:
    """The flat joint gives the dict enumerator's values, their number types
    and its key order, on models with structural zeros."""

    @pytest.mark.parametrize("seed, exact", SPARSE)
    def test_joint(self, seed, exact):
        scm = sparse_model(seed, exact=exact)
        joint = joint_distribution(scm)
        want = reference_joint(scm)
        assert items(joint.probs) == items(want)
        assert len(joint.probs) == len(want)

    @pytest.mark.parametrize("seed, exact", SPARSE)
    def test_restrict_in_and_out_of_order(self, seed, exact):
        scm = sparse_model(seed, exact=exact)
        joint = joint_distribution(scm)
        order, probs = joint.order, reference_joint(scm)
        cases = [(order, None), (order[::-1], None), (order[1::2], None), (order[::-2], None)]
        for node in order[:3]:
            rest = tuple(n for n in order if n != node)
            for value in scm.domains[node].values:
                cases += [(rest, {node: value}), (rest[::-1], {node: value})]
        cases.append((order[-1:], {order[0]: 0, order[1]: 0}))
        for targets, given in cases:
            want = reference_law(order, probs, targets, given)
            got = exact_law(joint, targets, given)
            assert (got is None) == (want is None), (targets, given)
            if want is not None:
                assert items(got) == items(want), (targets, given)

    @pytest.mark.parametrize("seed, exact", SPARSE)
    def test_marginals_and_conditional_laws(self, seed, exact):
        scm = sparse_model(seed, exact=exact)
        joint = joint_distribution(scm)
        order, probs = joint.order, reference_joint(scm)
        tuples = [order[:2], order[::-2], (order[3], order[0]), ()]
        got = _marginals(joint, *tuples)
        for nodes, table in zip(tuples, got):
            assert items(table) == items(reference_sums(order, probs, nodes)[1])
        for targets, given_nodes in ((order[-2:], order[:2]), (order[:1], order[:0:-2])):
            laws = conditional_laws(joint, targets, given_nodes)
            strata = reference_sums(order, probs, given_nodes)[1]
            want = [
                (g, items(reference_law(order, probs, targets, dict(zip(given_nodes, g)))))
                for g, mass in strata.items() if float(mass) > POSITIVITY_CUTOFF
            ]
            assert [(g, items(law)) for g, law in laws.items()] == want

    def test_a_table_off_row_major_keeps_its_scan_order(self):
        joint = JointTable(("A", "B", "C"), {(0, 0, 1): 0.25, (0, 1, 0): 0.25, (1, 0, 0): 0.5})
        law = restrict(joint, ("A", "C"))
        assert list(law.probs) == [(0, 1), (0, 0), (1, 0)]
        assert law.probs == {(0, 1): 0.25, (0, 0): 0.25, (1, 0): 0.5}
        assert list(_marginals(joint, ("C",))[0].items()) == [((1,), 0.25), ((0,), 0.75)]

    def test_an_underflowed_product_stays_a_key(self):
        tiny = 1e-200
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (tiny, 1 - tiny)}),
                "B": Cpt("B", ("A",), {(0,): (tiny, 1 - tiny), (1,): (0.0, 1.0)}),
            },
        )
        joint = joint_distribution(scm)
        assert items(joint.probs) == items(reference_joint(scm))
        assert list(joint.probs) == [(0, 0), (0, 1), (1, 1)]
        assert joint.probs[(0, 0)] == 0.0
        assert list(restrict(joint, ("B",)).probs) == [(0,), (1,)]


def typed(law: dict) -> dict:
    """{key: (value, type of value)}, to compare exactly in any key order."""
    return {k: (p, type(p)) for k, p in law.items()}


def reference_adjust(order, probs, t, t_val, r, z):
    """sum over z of P(z) P(r | z, t) from the reference sums; None when a
    stratum with mass never takes t_val."""
    out = {}
    for zc, mass in reference_sums(order, probs, z)[1].items():
        if float(mass) <= POSITIVITY_CUTOFF:
            continue
        given = dict(zip(z, zc), **{t: t_val})
        denom, cells = reference_sums(order, probs, (r,), given)
        if float(denom) <= POSITIVITY_CUTOFF:
            return None
        for (rv,), m in cells.items():
            out[rv] = out.get(rv, 0) + mass * m / denom
    return out


def reference_gformula2(order, probs, t_val, t2_val):
    """sum over x, r, x2 of P(x) P(r | x, t) P(x2 | x, t, r) P(r2 | x, t, r, x2, t2)."""
    law = lambda targets, given: reference_law(order, probs, targets, given) or {}  # noqa: E731
    out = {}
    for (x,), px in law(("X",), None).items():
        for (r,), pr in law(("R",), {"X": x, "T": t_val}).items():
            for (x2,), px2 in law(("X2",), {"X": x, "T": t_val, "R": r}).items():
                given = {"X": x, "T": t_val, "R": r, "X2": x2, "T2": t2_val}
                for (r2,), p in law(("R2",), given).items():
                    out[r2] = out.get(r2, 0) + px * pr * px2 * p
    return out


def reference_ci(order, probs, a, b, c) -> tuple:
    """(verdict, worst |P(a, b | c) - P(a | c) P(b | c)|) at tolerance 1e-12."""
    worst = 0.0
    for cv, mass in reference_sums(order, probs, c)[1].items():
        if float(mass) <= POSITIVITY_CUTOFF:
            continue
        given = dict(zip(c, cv))
        ab, pa, pb = (reference_law(order, probs, nodes, given) for nodes in (a + b, a, b))
        for av, p_a in pa.items():
            for bv, p_b in pb.items():
                dev = abs(float(ab.get(av + bv, 0)) - float(p_a) * float(p_b))
                worst = max(worst, dev)
    return worst <= 1e-12, worst


def exact_models():
    """Exact sparse models, the same models under an intervention (whose
    forced rows are int point masses), and ternary g-formula models."""
    seeds = st.integers(0, 2**20)
    sparse = seeds.map(lambda seed: sparse_model(seed, exact=True))
    forced = st.tuples(seeds, st.integers(0, 5), st.integers(0, 2)).map(
        lambda args: _forced(sparse_model(args[0], exact=True), *args[1:])
    )
    shaped = seeds.map(lambda seed: exact_fill(Dag(GFORMULA_NODES, GFORMULA_EDGES), seed))
    return st.one_of(sparse, forced, shaped)


def _forced(scm: Scm, i: int, v: int) -> Scm:
    node = sorted(scm.dag.nodes)[i]
    values = scm.domains[node].values
    return intervene(scm, Intervention({node: values[v % len(values)]}))


class TestIntegerNumerators:
    """A joint of Fraction tables holds integer numerators over one scale;
    every law read from it is == to the dict reference's, with its type."""

    @settings(max_examples=40, deadline=None)
    @given(scm=exact_models(), data=st.data())
    def test_laws_and_formulas_equal_the_reference(self, scm, data):
        joint = joint_distribution(scm)
        assert isinstance(joint.scale, int)
        order, probs = joint.order, reference_joint(scm)
        assert items(joint.probs) == items(probs)
        nodes = st.sampled_from(order)
        perm = data.draw(st.permutations(order))
        k = data.draw(st.integers(1, len(order) - 1))
        targets, rest = tuple(perm[:k]), perm[k:]
        given = {n: data.draw(st.sampled_from(scm.domains[n].values)) for n in rest[:2]}
        want = reference_law(order, probs, targets, given)
        got = exact_law(joint, targets, given)
        assert (got is None) == (want is None)
        if want is not None:
            assert items(got) == items(want)
        given_nodes = tuple(rest)
        strata = reference_sums(order, probs, given_nodes)[1]
        laws = conditional_laws(joint, targets, given_nodes)
        assert [(g, items(law)) for g, law in laws.items()] == [
            (g, items(reference_law(order, probs, targets, dict(zip(given_nodes, g)))))
            for g, mass in strata.items() if float(mass) > POSITIVITY_CUTOFF
        ]
        a, b = data.draw(nodes), data.draw(nodes)
        if a != b:
            c = tuple(sorted(set(rest) - {a, b})[:1])
            assert cond_independent(joint, {a}, {b}, set(c)) == reference_ci(
                order, probs, (a,), (b,), c
            )
        t, r = data.draw(nodes), data.draw(nodes)
        if t != r:
            z = tuple(p for p in scm.cpts[t].parents if p != r)
            t_val = data.draw(st.sampled_from(scm.domains[t].values))
            want = reference_adjust(order, probs, t, t_val, r, z)
            if want is None:
                with pytest.raises(PositivityError):
                    adjust(joint, t, t_val, r, z)
            else:
                assert typed(adjust(joint, t, t_val, r, z)) == typed(want)
        if set(order) == set(GFORMULA_NODES):
            t_val, t2_val = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
            got = gformula2(joint, GFORMULA_ROLES, t_val, t2_val)
            assert typed(got) == typed(reference_gformula2(order, probs, t_val, t2_val))

    def test_an_all_int_model_keeps_float_laws(self):
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (0, 1)}),
                "B": Cpt("B", ("A",), {(0,): (1, 0), (1,): (0, 1)}),
            },
        )
        joint = joint_distribution(scm)
        assert joint.scale is None
        assert items(joint.probs) == items(reference_joint(scm)) == [((1, 1), 1, int)]
        assert items(restrict(joint, ("B",)).probs) == [((1,), 1.0, float)]

    def test_a_mixed_float_and_fraction_model_stays_on_the_object_path(self):
        scm = with_tables(simpson_scm(exact=True), Cpt("T", ("X",), {(0,): (0.25, 0.75), (1,): (0.75, 0.25)}))
        joint = joint_distribution(scm)
        assert joint.scale is None
        assert items(joint.probs) == items(reference_joint(scm))
        assert {type(p) for p in joint.probs.values()} == {float}
        want = reference_law(joint.order, reference_joint(scm), ("R",), {"X": 1})
        assert items(restrict(joint, ("R",), {"X": 1}).probs) == items(want)

    def test_int_entries_past_the_float_range_are_refused(self):
        # No table holds such an entry, so no joint meets one; the rows'
        # unit-sum twins answer.
        huge = 10**400
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("B", ("A",), {(0,): (huge, 0), (1,): (1, huge)})
        assert str(info.value) == "'B': row '0' has a non-finite probability"
        scm = Scm(
            Dag(["A", "B"], [("A", "B")]),
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (Fraction(1, 3), Fraction(2, 3))}),
                "B": Cpt("B", ("A",), {(0,): (1, 0), (1,): (0, 1)}),
            },
        )
        joint = joint_distribution(scm)
        assert items(joint.probs) == items(reference_joint(scm))
        assert joint.probs[(1, 1)] == Fraction(2, 3)

    def test_an_all_int_row_past_the_float_range_is_refused(self):
        # The row is refused, so the float path's underflow guard never
        # meets the int entry; its twin (1, 0) answers.
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("A", (), {(): (10**400, 0)})
        assert str(info.value) == "'A': row '' has a non-finite probability"
        scm = Scm(
            Dag(["A", "B"], [("A", "B")]),
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (1, 0)}),
                "B": Cpt("B", ("A",), {(0,): (1, 0), (1,): (0, 1)}),
            },
        )
        joint = joint_distribution(scm)
        assert joint.scale is None
        assert items(joint.probs) == items(reference_joint(scm)) == [((0, 0), 1, int)]
        assert items(restrict(joint, ("B",), {"A": 0}).probs) == [((0,), 1.0, float)]
        assert cond_independent(joint, {"A"}, {"B"}, set()) == (True, 0.0)

    def test_a_fraction_child_past_the_float_range_is_refused(self):
        # The rows are refused, so the positivity casts of restrict, _divide
        # and the independence check never meet such a mass; the twins
        # (1, 0) and (0, 1) give the same laws.
        huge = 10**400
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("B", ("A",), {(0,): (huge, 0), (1,): (0, huge)})
        assert str(info.value) == "'B': row '0' has a non-finite probability"
        scm = Scm(
            Dag(["A", "B"], [("A", "B")]),
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (Fraction(1, 3), Fraction(2, 3))}),
                "B": Cpt("B", ("A",), {(0,): (1, 0), (1,): (0, 1)}),
            },
        )
        joint = joint_distribution(scm)
        assert joint.scale is not None
        assert items(restrict(joint, ("B",), {"A": 1}).probs) == [((1,), 1, Fraction)]
        assert items(restrict(joint, ("B",)).probs) == [
            ((0,), Fraction(1, 3), Fraction),
            ((1,), Fraction(2, 3), Fraction),
        ]
        assert conditional_laws(joint, ("B",), ("A",)) == {(0,): {(0,): 1}, (1,): {(1,): 1}}
        ok, dev = cond_independent(joint, {"A"}, {"B"}, set())
        assert not ok
        assert dev == pytest.approx(2 / 9)

    def test_a_stratum_below_the_positivity_cutoff_is_impossible(self):
        # The stratum A = 0 has mass 10**-20: its numerator over the joint's
        # scale is at least 1, so only the probability itself may be tested.
        tiny = Fraction(1, 10**20)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        scm = Scm(
            Dag(["A", "B"], [("A", "B")]),
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (tiny, 1 - tiny)}),
                "B": Cpt("B", ("A",), {(0,): (half, half), (1,): (quarter, 1 - quarter)}),
            },
        )
        joint = joint_distribution(scm)
        assert joint.scale is not None and joint.probs[(0, 0)] == tiny / 2
        with pytest.raises(ZeroProbabilityError):
            restrict(joint, ("B",), {"A": 0})
        assert conditional_laws(joint, ("B",), ("A",)) == {(1,): {(0,): quarter, (1,): 1 - quarter}}


class TestCondIndependent:
    def test_fig1_separations(self):
        scm = fill(Dag(FIG1_NODES, FIG1_EDGES), seed=17)
        joint = joint_distribution(scm)
        ok, dev = cond_independent(joint, {"X3"}, {"X4"}, {"X1"})
        assert ok, dev
        ok, dev = cond_independent(joint, {"X1"}, {"X6"}, {"T"})
        assert ok, dev
        ok, dev = cond_independent(joint, {"X3"}, {"X5"}, {"X2"})
        assert ok, dev

    def test_planted_copy_dependence(self):
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(
            dag,
            {n: Domain(n, (0, 1)) for n in "AB"},
            {
                "A": Cpt("A", (), {(): (0.5, 0.5)}),
                "B": Cpt("B", ("A",), {(0,): (1.0, 0.0), (1,): (0.0, 1.0)}),
            },
        )
        ok, dev = cond_independent(joint_distribution(scm), {"A"}, {"B"}, set())
        assert not ok
        assert dev == pytest.approx(0.25, abs=1e-12)

    def test_overlap_rejected(self):
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError):
            cond_independent(joint, {"R"}, {"R"}, set())

    @pytest.mark.parametrize("a, b, c", [({"R"}, {"R", "T"}, {"X"}), ({"R"}, {"T"}, {"R"}),
                                         ({"R"}, {"T"}, {"T", "X"})])
    def test_each_overlap_is_refused_by_name(self, a, b, c):
        joint = joint_distribution(simpson_scm())
        with pytest.raises(InvalidArgumentError, match="pairwise disjoint"):
            cond_independent(joint, a, b, c)


class TestTotalVariation:
    def test_order_permutation_is_harmless(self):
        a = JointTable(("A", "B"), {(0, 1): 0.25, (1, 0): 0.75})
        b = JointTable(("B", "A"), {(1, 0): 0.25, (0, 1): 0.75})
        assert total_variation(a, b) == 0.0

    def test_disjoint_masses(self):
        a = JointTable(("A",), {(0,): 1.0})
        b = JointTable(("A",), {(1,): 1.0})
        assert total_variation(a, b) == 1.0


class TestModelFormat:
    def test_round_trip_preserves_law(self):
        scm = simpson_scm()
        back = scm_from_json(scm_to_json(scm))
        assert back.dag == scm.dag
        assert total_variation(joint_distribution(back), joint_distribution(scm)) < 1e-15
        assert back.meta["name"] == "simpson"

    def test_serialization_is_canonical(self):
        scm = simpson_scm()
        text = scm_to_json(scm)
        assert text == scm_to_json(scm_from_json(text))

    def test_seventeen_significant_digits(self):
        dag = Dag(["A"], [])
        scm = Scm(
            dag,
            {"A": Domain("A", (0, 1, 2))},
            {"A": Cpt("A", (), {(): (1 / 3, 1 / 3, 1 / 3)})},
        )
        assert "0.33333333333333331" in scm_to_json(scm)

    @pytest.mark.parametrize(
        "values",
        [(-1.0, 0.0, 1.0), (2.0, 1e16), (Fraction(1, 2), Fraction(1, 3), Fraction(3))],
    )
    def test_numeric_parent_domains_round_trip(self, values):
        # The domain list writes 0.0 as 0 and 1/2 as 0.5; row keys must
        # spell each value as the loader reads it back.
        scm = Scm(
            Dag(["A", "B"], [("A", "B")]),
            {"A": Domain("A", values), "B": Domain("B", (0, 1))},
            {
                "A": Cpt("A", (), {(): tuple(1 / len(values) for _ in values)}),
                "B": Cpt("B", ("A",), {(v,): (0.25, 0.75) for v in values}),
            },
        )
        text = scm_to_json(scm)
        back = scm_from_json(text)
        assert back.domains["A"].values == tuple(map(float, values))
        assert scm_to_json(back) == text

    @pytest.mark.parametrize("extra", [0, 1])
    def test_meta_depth_counts_lists_and_dicts(self, extra):
        # Levels alternate dict and list, with a scalar at every level.
        meta = inner = {"x": 0}
        for i in range(MAX_META_DEPTH - 1 + extra):
            nxt = [0] if i % 2 else {"x": 0}
            if isinstance(inner, dict):
                inner["a"] = nxt
            else:
                inner.append(nxt)
            inner = nxt
        node = {"id": "A", "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.5]}}
        doc = {"meta": meta, "nodes": [node]}
        if extra:
            message = f"^model document: 'meta' nests deeper than {MAX_META_DEPTH} levels$"
            with pytest.raises(InvalidArgumentError, match=message):
                scm_from_dict(doc)
        else:
            text = scm_to_json(scm_from_dict(doc))
            assert scm_to_json(scm_from_json(text)) == text

    @pytest.mark.parametrize("wrap", [lambda m: {"a": m}, lambda m: [m], lambda m: (m,)],
                             ids=["dict", "list", "tuple"])
    def test_writing_a_meta_nested_600_levels_is_refused_by_name(self, wrap):
        # A model built in code is not loaded, so its meta is checked when
        # written: past the recursion limit the writer would otherwise fail.
        meta = {"x": 0}
        for _ in range(600):
            meta = wrap(meta)
        scm = simpson_scm()
        scm.meta = {"deep": meta}
        message = f"^model document: 'meta' nests deeper than {MAX_META_DEPTH} levels$"
        with pytest.raises(InvalidArgumentError, match=message):
            scm_to_json(scm)

    @pytest.mark.parametrize("domain, first, second", [
        ([1, "1"], "1", "'1'"), (["True", True], "'True'", "True"),
        ([0, None, "None"], "None", "'None'"), ([0.5, "0.5"], "0.5", "'0.5'"),
    ])
    def test_two_domain_values_of_one_spelling_are_refused(self, domain, first, second):
        node = {"id": "A", "domain": domain, "parents": [],
                "table": {"": [1 / len(domain)] * len(domain)}}
        written = str(domain[-1])
        message = f"node 'A': domain values {first} and {second} are both written {written!r}"
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            scm_from_dict({"nodes": [node]})

    def test_a_code_built_domain_of_two_values_of_one_spelling_is_refused(self):
        # Built in code, such a domain would reach `scm_to_json`, and a law
        # over it `_canonical`, which would write one JSON key twice.
        message = "node 'A': domain values 1 and '1' are both written '1'"
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            Domain("A", (1, "1"))

    def test_row_keys_join_parent_values(self):
        text = scm_to_json(simpson_scm())
        assert '"0|0"' in text and '"1|1"' in text and '""' in text

    def test_unknown_parent_value_rejected(self):
        scm = simpson_scm()
        text = scm_to_json(scm).replace('"0|0"', '"9|0"')
        with pytest.raises(InvalidArgumentError) as info:
            scm_from_json(text)
        assert str(info.value) == "'R': key value '9' not in domain of 'T'"

    @pytest.mark.parametrize("key", ["0|0|0", "0", ""])
    def test_a_row_key_of_the_wrong_arity_is_refused(self, key):
        text = scm_to_json(simpson_scm()).replace('"0|0"', json.dumps(key))
        with pytest.raises(InvalidArgumentError) as info:
            scm_from_json(text)
        assert str(info.value) == f"'R': row key {key!r} has wrong arity"

    def test_a_repeated_parent_is_refused_at_load(self):
        doc = {"nodes": [
            {"id": "A", "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.5]}},
            {"id": "B", "domain": [0, 1], "parents": ["A", "A"],
             "table": {"0|0": [0.5, 0.5], "1|1": [0.5, 0.5]}},
        ]}
        with pytest.raises(InvalidArgumentError) as info:
            scm_from_dict(doc)
        assert str(info.value) == "'B': duplicate parent in table"

    def test_garbage_rejected(self):
        with pytest.raises(InvalidArgumentError):
            scm_from_json("not json {")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_probability_rejected(self, bad):
        text = scm_to_json(simpson_scm()).replace("0.80000000000000004", bad, 1)
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            scm_from_json(text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("[1.2, -0.2]", "'R': row '0|0' has a negative probability"),
            ("[0.2, 0.7]", "'R': row '0|0' sums to 0.8999999999999999, not 1"),
            ("[0.5, 0.5000000001]", "'R': row '0|0' sums to 1.0000000001, not 1"),
        ],
        ids=["negative", "short", "long"],
    )
    def test_non_normalized_row_rejected(self, row, message):
        text = scm_to_json(simpson_scm()).replace(
            "[0.80000000000000004, 0.20000000000000001]", row, 1
        )
        with pytest.raises(InvalidArgumentError) as info:
            scm_from_json(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "row, message",
        [
            ("[0.5, 0.3, 0.2]", "'R': row '0|0' has length 3, not 2"),
            ("[1.0]", "'R': row '0|0' has length 1, not 2"),
        ],
        ids=["long", "short"],
    )
    def test_row_length_must_match_the_domain(self, row, message):
        # Both rows sum to 1; only their length is wrong.
        text = scm_to_json(simpson_scm()).replace(
            "[0.80000000000000004, 0.20000000000000001]", row, 1
        )
        with pytest.raises(InvalidArgumentError) as info:
            scm_from_json(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("value", ["a|b", "|", ""])
    def test_a_domain_value_that_cannot_be_a_row_key_part_is_refused(self, value):
        scm = Scm(
            Dag(["A"], []),
            {"A": Domain("A", ("lo", value))},
            {"A": Cpt("A", (), {(): (0.5, 0.5)})},
        )
        message = f"domain value {value!r} of 'A' cannot appear in a row key"
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            scm_to_json(scm)

    def test_string_domain_values_round_trip(self):
        scm = Scm(
            Dag(["A", "B"], [("A", "B")]),
            {"A": Domain("A", ("lo", "hi")), "B": Domain("B", ("no", "a b"))},
            {
                "A": Cpt("A", (), {(): (0.5, 0.5)}),
                "B": Cpt("B", ("A",), {("lo",): (0.25, 0.75), ("hi",): (1.0, 0.0)}),
            },
        )
        text = scm_to_json(scm)
        assert '"hi"' in text and '"lo"' in text
        back = scm_from_json(text)
        assert back.cpts["B"].table == scm.cpts["B"].table
        assert scm_to_json(back) == text

    @pytest.mark.parametrize("entry", [["id"], "id", 3, None])
    def test_a_node_entry_that_is_not_an_object_is_refused(self, entry):
        good = {"id": "A", "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.5]}}
        with pytest.raises(InvalidArgumentError, match="^node entry 1 lacks a 'id' field$"):
            scm_from_dict({"nodes": [good, entry]})

    @pytest.mark.parametrize("parent", ["Q", "", 3, None, ["A"]])
    def test_a_parent_that_names_no_node_is_refused(self, parent):
        doc = {"nodes": [
            {"id": "A", "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.5]}},
            {"id": "B", "domain": [0, 1], "parents": [parent],
             "table": {"0": [0.5, 0.5], "1": [0.5, 0.5]}},
        ]}
        message = f"'B' lists unknown parent {parent!r}"
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            scm_from_dict(doc)

    @pytest.mark.parametrize("row", [1, "0.5", None, {"0": 0.5}, [0.5, "0.5"], [True, False],
                                     [0.5, None], [[0.5], 0.5]])
    def test_a_row_that_is_not_a_list_of_numbers_is_refused(self, row):
        doc = {"nodes": [{"id": "A", "domain": [0, 1], "parents": [], "table": {"": row}}]}
        with pytest.raises(InvalidArgumentError, match="^'A': row '' must be a list of numbers$"):
            scm_from_dict(doc)

    def test_row_off_one_by_rounding_accepted(self):
        # Ten tenths add up to 0.9999999999999999 in floating point.
        doc = {"nodes": [{"id": "A", "domain": list(range(10)), "parents": [],
                          "table": {"": [0.1] * 10}}]}
        assert scm_from_dict(doc).cpts["A"].table[()] == (0.1,) * 10


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = sample(simpson_scm(), DigitStream(8), 50)
        path = tmp_path / "rows.csv"
        data.write_csv(path)
        back = Dataset.read_csv(path)
        assert back.columns == data.columns
        assert back.rows == data.rows

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "rows.csv"
        path.write_text(f"A,B\n0,1\n1,{cell}\n")
        with pytest.raises(InvalidArgumentError, match="non-finite value"):
            Dataset.read_csv(path)

    def test_finite_floats_and_labels_parse(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("A,B\n0,2.5\n1,high\n")
        assert Dataset.read_csv(path).rows == [(0, 2.5), (1, "high")]
