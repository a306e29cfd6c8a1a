import itertools
from fractions import Fraction

import numpy as np
import pytest

from scmkit.errors import (
    InvalidArgumentError,
    ResourceLimitError,
    ZeroProbabilityError,
)
from scmkit.exogenous import DigitStream, next_uniform, split_streams
from scmkit.graph import Dag, topological_order
from scmkit.scm import (
    Cpt,
    Dataset,
    Domain,
    Intervention,
    JointTable,
    Scm,
    cond_independent,
    conditional_laws,
    expectation,
    intervene,
    joint_distribution,
    restrict,
    sample,
    scm_from_json,
    scm_to_json,
    total_variation,
    validate_scm,
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


def filled_scm(dag: Dag, seed: int, sizes: dict | None = None) -> Scm:
    """Random strictly-positive tables over the given graph."""
    stream = split_streams(DigitStream(seed), 1)[0]
    sizes = sizes or {}
    domains = {n: Domain(n, tuple(range(sizes.get(n, 2)))) for n in dag.nodes}
    cpts = {}
    for node in topological_order(dag):
        parents = tuple(dag.parents(node))
        k = len(domains[node].values)
        table = {}
        for cfg in itertools.product(*[domains[p].values for p in parents]):
            w = [0.05 + next_uniform(stream) for _ in range(k)]
            s = sum(w)
            table[cfg] = tuple(x / s for x in w)
        cpts[node] = Cpt(node, parents, table)
    return Scm(dag, domains, cpts)


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

    def test_bad_row_sum_is_named(self):
        scm = simpson_scm()
        scm.cpts["T"] = Cpt("T", ("X",), {(0,): (0.2, 0.7), (1,): (0.8, 0.2)})
        problems = validate_scm(scm)
        assert any("'T'" in p and "sums" in p for p in problems)

    def test_non_parent_reference(self):
        scm = simpson_scm()
        scm.cpts["T"] = Cpt("T", ("R",), {(0,): (0.2, 0.8), (1,): (0.8, 0.2)})
        problems = validate_scm(scm)
        assert any("parents" in p for p in problems)

    def test_missing_row(self):
        scm = simpson_scm()
        scm.cpts["T"] = Cpt("T", ("X",), {(0,): (0.2, 0.8)})
        assert any("rows" in p for p in validate_scm(scm))

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
    def test_non_finite_probability_is_named(self, bad):
        scm = simpson_scm()
        scm.cpts["T"] = Cpt("T", ("X",), {(0,): (bad, 0.8), (1,): (0.8, 0.2)})
        problems = validate_scm(scm)
        assert problems == ["'T'@(0,): non-finite probability"]


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
        scm = filled_scm(Dag(FIG1_NODES, FIG1_EDGES), seed=11)
        assert abs(joint_distribution(scm).total() - 1.0) < 1e-10

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


class TestCondIndependent:
    def test_fig1_separations(self):
        scm = filled_scm(Dag(FIG1_NODES, FIG1_EDGES), seed=17)
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

    def test_row_keys_join_parent_values(self):
        text = scm_to_json(simpson_scm())
        assert '"0|0"' in text and '"1|1"' in text and '""' in text

    def test_unknown_parent_value_rejected(self):
        scm = simpson_scm()
        text = scm_to_json(scm).replace('"0|0"', '"9|0"')
        with pytest.raises(InvalidArgumentError):
            scm_from_json(text)

    def test_garbage_rejected(self):
        with pytest.raises(InvalidArgumentError):
            scm_from_json("not json {")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_probability_rejected(self, bad):
        text = scm_to_json(simpson_scm()).replace("0.80000000000000004", bad, 1)
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            scm_from_json(text)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = sample(simpson_scm(), DigitStream(8), 50)
        path = tmp_path / "rows.csv"
        data.write_csv(path)
        back = Dataset.read_csv(path)
        assert back.columns == data.columns
        assert back.rows == data.rows

    def test_domain_checked_ingestion(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("A\n2\n")
        with pytest.raises(InvalidArgumentError):
            Dataset.read_csv(path, {"A": Domain("A", (0, 1))})
