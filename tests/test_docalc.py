"""Tests for the mutilated-model surgeries and the rule 1 / rule 2 checks."""

import itertools

import pytest

from scmkit.docalc import (
    NodePartition,
    RuleVerdict,
    build_m_doubleprime,
    build_m_prime,
    check_c1,
    check_c2,
    verify_rule,
)
from scmkit.errors import InvalidArgumentError, PositivityError
from scmkit.exogenous import DigitStream, next_uniform, split_streams
from scmkit.graph import Dag, ancestors
from scmkit.scm import (
    Cpt,
    Domain,
    Intervention,
    Scm,
    intervene,
    joint_distribution,
    restrict,
    total_variation,
)

from structures import backdoor_model, fill


def random_dag(seed: int, n: int = 6, p: float = 0.35) -> Dag:
    """Seeded random order-respecting graph on n nodes."""
    stream = split_streams(DigitStream(seed), 1)[0]
    names = [f"N{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if next_uniform(stream) < p
    ]
    return Dag(names, edges)


def random_partition(dag: Dag, seed: int) -> NodePartition:
    """Seeded assignment of nodes to W/X/Y/Z (some nodes stay outside).

    Y, X and Z always get at least one node, so every seed exercises both
    surgeries; the graph needs at least three nodes.
    """
    stream = split_streams(DigitStream(seed), 1)[0]
    buckets = {"w": [], "x": [], "y": [], "z": [], "none": []}
    labels = ("w", "x", "y", "z", "none")
    nodes = sorted(dag.nodes)
    for node in nodes:
        buckets[labels[int(next_uniform(stream) * 5)]].append(node)
    if not buckets["y"]:
        donor = max(("w", "z", "none", "x"), key=lambda k: len(buckets[k]))
        buckets["y"].append(buckets[donor].pop())
    for needed in ("x", "z"):
        if not buckets[needed]:
            # Take from the largest bucket that can spare a node.
            spare = [k for k in labels if len(buckets[k]) > (1 if k in ("x", "y", "z") else 0)]
            donor = max(spare, key=lambda k: len(buckets[k]))
            buckets[needed].append(buckets[donor].pop())
    return NodePartition(
        w=frozenset(buckets["w"]),
        x=frozenset(buckets["x"]),
        y=frozenset(buckets["y"]),
        z=frozenset(buckets["z"]),
    )


def first_values(scm: Scm, nodes) -> dict:
    return {n: scm.domains[n].values[0] for n in nodes}


def shared_marginal(scm: Scm, nodes) -> object:
    return restrict(joint_distribution(scm), tuple(sorted(nodes, key=str)))


class TestNodePartition:
    def test_rejects_overlap(self):
        with pytest.raises(InvalidArgumentError, match="disjoint"):
            NodePartition(w={"A"}, x={"A"}, y={"B"}, z=set())

    def test_split_by_parenthood(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        part = NodePartition(w={"A", "B"}, x=set(), y={"C"}, z=set())
        assert part.split(dag, "w") == (("A",), ("B",))
        assert part.split(dag, "y") == ((), ("C",))

    def test_accepts_plain_sets(self):
        part = NodePartition(w={"A"}, x=set(), y={"B"}, z=set())
        assert part.w == frozenset({"A"})


class TestBuildMPrime:
    def test_empty_x_returns_the_model_unchanged(self):
        scm = backdoor_model(0)
        part = NodePartition(w=set(), x=set(), y={"R"}, z={"X6"})
        assert build_m_prime(scm, part, {}) is scm

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_intervened_joint_off_x(self, seed):
        scm = fill(random_dag(seed), seed)
        part = random_partition(scm.dag, seed + 100)
        x = first_values(scm, part.x)
        m = build_m_prime(scm, part, x)
        others = set(scm.dag.nodes) - set(part.x)
        got = restrict(joint_distribution(m), tuple(sorted(others)))
        want = restrict(
            joint_distribution(intervene(scm, Intervention(dict(x)))),
            tuple(sorted(others)),
        )
        assert total_variation(got, want) <= 1e-12

    def test_parentless_x_survives_as_an_isolate(self):
        scm = backdoor_model(1)
        part = NodePartition(w=set(), x={"X1"}, y={"R"}, z=set())
        m = build_m_prime(scm, part, {"X1": 0})
        assert "X1" in m.dag.nodes
        assert m.dag.parents("X1") == ()
        assert m.dag.children("X1") == ()
        got = restrict(joint_distribution(m), ("X1",))
        assert got.probs[(0,)] == pytest.approx(scm.cpts["X1"].table[()][0])

    def test_parented_x_disappears(self):
        scm = backdoor_model(1)
        part = NodePartition(w=set(), x={"T"}, y={"R"}, z=set())
        m = build_m_prime(scm, part, {"T": 1})
        assert "T" not in m.dag.nodes
        assert "T" not in m.cpts

    def test_out_of_domain_value(self):
        scm = backdoor_model(0)
        part = NodePartition(w=set(), x={"T"}, y={"R"}, z=set())
        with pytest.raises(InvalidArgumentError, match="domain"):
            build_m_prime(scm, part, {"T": 7})

    def test_values_must_cover_x_exactly(self):
        scm = backdoor_model(0)
        part = NodePartition(w=set(), x={"T", "X1"}, y={"R"}, z=set())
        with pytest.raises(InvalidArgumentError, match="exactly"):
            build_m_prime(scm, part, {"T": 1})

    def test_unknown_partition_node(self):
        scm = backdoor_model(0)
        part = NodePartition(w=set(), x={"NOPE"}, y={"R"}, z=set())
        with pytest.raises(InvalidArgumentError, match="unknown"):
            build_m_prime(scm, part, {"NOPE": 0})


class TestBuildMDoublePrime:
    def test_empty_z_equals_the_single_prime_model(self):
        scm = backdoor_model(2)
        part = NodePartition(w={"X3"}, x={"T"}, y={"R"}, z=set())
        m1 = build_m_prime(scm, part, {"T": 0})
        m2 = build_m_doubleprime(scm, part, {"T": 0}, {})
        assert set(m1.dag.nodes) == set(m2.dag.nodes)
        assert set(m1.dag.edges) == set(m2.dag.edges)
        law1 = shared_marginal(m1, m1.dag.nodes)
        law2 = shared_marginal(m2, m2.dag.nodes)
        assert total_variation(law1, law2) <= 1e-15

    @pytest.mark.parametrize("seed", range(8))
    def test_w_and_y_laws_match_the_double_intervention(self, seed):
        scm = fill(random_dag(seed + 50), seed)
        part = random_partition(scm.dag, seed + 200)
        x = first_values(scm, part.x)
        z = first_values(scm, part.z)
        m = build_m_doubleprime(scm, part, x, z)
        kept = part.w | part.y
        got = shared_marginal(m, kept)
        want = restrict(
            joint_distribution(intervene(scm, Intervention({**x, **z}))),
            tuple(sorted(kept, key=str)),
        )
        assert total_variation(got, want) <= 1e-12

    def test_copies_are_not_ancestors_of_w_or_y(self):
        scm = backdoor_model(3)
        part = NodePartition(w={"X1", "X2"}, x={"T"}, y={"R"}, z={"X3", "X6"})
        m = build_m_doubleprime(scm, part, {"T": 1}, {"X3": 0, "X6": 1})
        for target in part.w | part.y:
            assert not (ancestors(m.dag, target) & part.z)

    def test_parentless_copy_keeps_its_marginal(self):
        scm = backdoor_model(4)
        part = NodePartition(w=set(), x={"T"}, y={"R"}, z={"X1"})
        m = build_m_doubleprime(scm, part, {"T": 0}, {"X1": 1})
        got = restrict(joint_distribution(m), ("X1",))
        assert got.probs[(1,)] == pytest.approx(scm.cpts["X1"].table[()][1])

    def test_parented_copy_binds_to_the_double_prime_world(self):
        dag = Dag(
            ["W", "X", "Z", "Y"],
            [("W", "Z"), ("X", "Z"), ("Z", "Y"), ("X", "Y")],
        )
        scm = fill(dag, 9)
        part = NodePartition(w={"W"}, x={"X"}, y={"Y"}, z={"Z"})
        m = build_m_doubleprime(scm, part, {"X": 1}, {"Z": 0})
        assert m.cpts["Z"].parents == ("W",)
        for w in (0, 1):
            assert m.cpts["Z"].table[(w,)] == scm.cpts["Z"].table[(w, 1)]
        assert m.cpts["Y"].parents == ()
        assert ("Z", "Y") not in m.dag.edges


class TestCheckC1:
    def test_true_when_z_is_disconnected_from_y(self):
        dag = Dag(["X", "Y", "Z"], [("X", "Y")])
        scm = fill(dag, 5)
        part = NodePartition(w=set(), x={"X"}, y={"Y"}, z={"Z"})
        ok, dev = check_c1(scm, part, {"X": 0})
        assert ok and dev <= 1e-15

    def test_planted_copy_fails_with_quarter_deviation(self):
        dag = Dag(["Z", "Y"], [("Z", "Y")])
        domains = {n: Domain(n, (0, 1)) for n in ("Z", "Y")}
        cpts = {
            "Z": Cpt("Z", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", ("Z",), {(0,): (1, 0), (1,): (0, 1)}),
        }
        scm = Scm(dag, domains, cpts)
        part = NodePartition(w=set(), x=set(), y={"Y"}, z={"Z"})
        ok, dev = check_c1(scm, part, {})
        assert not ok
        assert dev == pytest.approx(0.25, abs=1e-12)

    def test_deterministic_child_of_x_is_independent(self):
        scm = backdoor_model(6)
        cpts = dict(scm.cpts)
        cpts["X6"] = Cpt("X6", ("T",), {(0,): (1, 0), (1,): (0, 1)})
        scm = Scm(scm.dag, scm.domains, cpts)
        part = NodePartition(w=set(), x={"T"}, y={"R"}, z={"X6"})
        for t in (0, 1):
            ok, dev = check_c1(scm, part, {"T": t})
            assert ok and dev <= 1e-15


class TestCheckC2:
    def test_parentless_z_reduces_to_plain_independence(self):
        dag = Dag(["Z", "Y", "X"], [("X", "Y")])
        scm = fill(dag, 7)
        part = NodePartition(w=set(), x={"X"}, y={"Y"}, z={"Z"})
        ok, dev = check_c2(scm, part, {"X": 1}, {"Z": 0})
        assert ok and dev <= 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_true_when_w_blocks_every_path(self, seed):
        dag = Dag(["W", "Z", "Y"], [("W", "Z"), ("W", "Y")])
        scm = fill(dag, seed)
        part = NodePartition(w={"W"}, x=set(), y={"Y"}, z={"Z"})
        ok, _ = check_c2(scm, part, {}, {"Z": 0})
        assert ok

    def test_planted_confounding_fails(self):
        dag = Dag(["U", "Z", "Y"], [("U", "Z"), ("U", "Y")])
        domains = {n: Domain(n, (0, 1)) for n in ("U", "Z", "Y")}
        copy = {(0,): (1, 0), (1,): (0, 1)}
        cpts = {
            "U": Cpt("U", (), {(): (0.5, 0.5)}),
            "Z": Cpt("Z", ("U",), dict(copy)),
            "Y": Cpt("Y", ("U",), dict(copy)),
        }
        scm = Scm(dag, domains, cpts)
        part = NodePartition(w=set(), x=set(), y={"Y"}, z={"Z"})
        ok, dev = check_c2(scm, part, {}, {"Z": 0})
        assert not ok
        assert dev > 1e-3


def blocked_rule1_model(seed: int) -> tuple:
    """Shape where C1 holds: Z hangs off W only, so W blocks Z from Y."""
    dag = Dag(["W", "X", "Z", "Y"], [("W", "Y"), ("X", "Y"), ("W", "Z")])
    scm = fill(dag, seed)
    part = NodePartition(w={"W"}, x={"X"}, y={"Y"}, z={"Z"})
    return scm, part


class TestVerifyRule:
    @pytest.mark.parametrize("seed", range(10))
    def test_rule1_holds_on_the_blocked_shape(self, seed):
        scm, part = blocked_rule1_model(seed)
        verdict = verify_rule(scm, part, 1, {"X": 1})
        assert verdict.condition == "C1"
        assert verdict.condition_holds
        assert verdict.identity_deviation <= 1e-12
        assert verdict.passed

    @pytest.mark.parametrize("seed", range(10))
    def test_rule2_holds_when_w_blocks(self, seed):
        dag = Dag(["W", "X", "Z", "Y"], [("W", "Z"), ("W", "Y"), ("X", "Y"), ("Z", "Y")])
        scm = fill(dag, seed)
        part = NodePartition(w={"W"}, x={"X"}, y={"Y"}, z={"Z"})
        verdict = verify_rule(scm, part, 2, {"X": 0}, {"Z": 1})
        assert verdict.condition == "C2"
        assert verdict.condition_holds
        assert verdict.identity_deviation <= 1e-12
        assert verdict.passed

    def test_rule2_with_empty_z_is_trivially_exact(self):
        dag = Dag(["W", "X", "Y"], [("W", "Y"), ("X", "Y")])
        scm = fill(dag, 3)
        part = NodePartition(w={"W"}, x={"X"}, y={"Y"}, z=set())
        verdict = verify_rule(scm, part, 2, {"X": 0}, {})
        assert verdict.passed
        assert verdict.identity_deviation == 0.0

    def test_planted_c1_violation_is_witnessed(self):
        dag = Dag(["Z", "Y"], [("Z", "Y")])
        domains = {n: Domain(n, (0, 1)) for n in ("Z", "Y")}
        cpts = {
            "Z": Cpt("Z", (), {(): (0.5, 0.5)}),
            "Y": Cpt("Y", ("Z",), {(0,): (0.9, 0.1), (1,): (0.1, 0.9)}),
        }
        scm = Scm(dag, domains, cpts)
        part = NodePartition(w=set(), x=set(), y={"Y"}, z={"Z"})
        verdict = verify_rule(scm, part, 1, {})
        assert not verdict.condition_holds
        assert verdict.identity_deviation > 0.1
        assert not verdict.passed

    def test_unreachable_z_stratum(self):
        dag = Dag(["Z", "Y"], [("Z", "Y")])
        domains = {n: Domain(n, (0, 1)) for n in ("Z", "Y")}
        cpts = {
            "Z": Cpt("Z", (), {(): (1, 0)}),
            "Y": Cpt("Y", ("Z",), {(0,): (0.4, 0.6), (1,): (0.8, 0.2)}),
        }
        scm = Scm(dag, domains, cpts)
        part = NodePartition(w=set(), x=set(), y={"Y"}, z={"Z"})
        with pytest.raises(PositivityError, match="Z=1"):
            verify_rule(scm, part, 2, {}, {"Z": 1})

    def test_rejects_unknown_rule(self):
        scm, part = blocked_rule1_model(0)
        with pytest.raises(InvalidArgumentError, match="rule"):
            verify_rule(scm, part, 3, {"X": 0})

    def test_verdict_consistency_guard(self):
        with pytest.raises(InvalidArgumentError, match="passing"):
            RuleVerdict(
                rule=1,
                condition="C1",
                condition_holds=False,
                condition_deviation=0.5,
                identity_deviation=0.0,
                tol=1e-12,
                passed=True,
            )


class TestConditionImpliesIdentity:
    """Whenever a condition check succeeds, the matching identity must hold
    exactly; a counterexample would be a genuine bug."""

    @pytest.mark.parametrize("seed", range(30))
    def test_rule1_theorem(self, seed):
        scm = fill(random_dag(seed, n=5), seed)
        part = random_partition(scm.dag, seed + 301)
        x = first_values(scm, part.x)
        ok, _ = check_c1(scm, part, x)
        if ok:
            verdict = verify_rule(scm, part, 1, x)
            assert verdict.identity_deviation <= 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_rule2_theorem(self, seed):
        scm = fill(random_dag(seed + 400, n=5), seed)
        part = random_partition(scm.dag, seed + 401)
        x = first_values(scm, part.x)
        z = first_values(scm, part.z)
        ok, _ = check_c2(scm, part, x, z)
        if ok:
            verdict = verify_rule(scm, part, 2, x, z)
            assert verdict.identity_deviation <= 1e-12

    def test_the_ensemble_is_not_vacuous(self):
        hits = 0
        for seed in range(30):
            scm = fill(random_dag(seed, n=5), seed)
            part = random_partition(scm.dag, seed + 301)
            ok, _ = check_c1(scm, part, first_values(scm, part.x))
            hits += bool(ok)
        assert hits >= 3
