import json
import os
import random
import subprocess
import sys

import pytest

from scmkit import graph
from scmkit.errors import (
    CyclicGraphError,
    DescendantConditioningError,
    InvalidArgumentError,
    ResourceLimitError,
)
from scmkit.graph import (
    BACKWARD,
    FORWARD,
    Dag,
    Path,
    ancestors,
    check_backdoor,
    check_backdoor_extended,
    descendants,
    enumerate_valid_adjustment_sets,
    pseudo_treatment_graph,
    topological_order,
)

from structures import backdoor_paths, interior, is_collider, reference_topological_order

# Two-level treatment/response graph: X3, X4 feed the treatment, the
# response listens to X3, X5 and the post-treatment X6.
FIG1_EDGES = [
    ("X1", "X3"),
    ("X2", "X3"),
    ("X1", "X4"),
    ("X2", "X5"),
    ("X3", "T"),
    ("X4", "T"),
    ("T", "X6"),
    ("X3", "R"),
    ("X5", "R"),
    ("X6", "R"),
]
FIG1_NODES = ["X1", "X2", "X3", "X4", "X5", "X6", "T", "R"]

# Same graph extended with treatment descendants X7, X8, X9 where X9
# also feeds the response.
FIG1A_EDGES = FIG1_EDGES + [
    ("T", "X7"),
    ("X8", "X7"),
    ("X1", "X8"),
    ("X4", "X8"),
    ("T", "X8"),
    ("X3", "X9"),
    ("T", "X9"),
    ("X9", "R"),
]
FIG1A_NODES = FIG1_NODES + ["X7", "X8", "X9"]

# One long collider path plus the direct treatment edge.
COLLIDER_EDGES = [
    ("X1", "X4"),
    ("X4", "T"),
    ("X1", "X3"),
    ("X2", "X3"),
    ("X2", "X5"),
    ("X5", "R"),
    ("T", "R"),
]
COLLIDER_NODES = ["X1", "X2", "X3", "X4", "X5", "T", "R"]


@pytest.fixture
def fig1():
    return Dag(FIG1_NODES, FIG1_EDGES)


@pytest.fixture
def fig1a():
    return Dag(FIG1A_NODES, FIG1A_EDGES)


@pytest.fixture
def collider_graph():
    return Dag(COLLIDER_NODES, COLLIDER_EDGES)


def random_dag(rng: random.Random, n: int = 6, p: float = 0.4) -> Dag:
    names = [f"N{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Dag(names, edges)


class TestDag:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidArgumentError):
            Dag(["A"], [("A", "A")])

    def test_rejects_dangling_edge(self):
        with pytest.raises(InvalidArgumentError):
            Dag(["A"], [("A", "B")])

    def test_adjacency_is_sorted(self, fig1):
        assert fig1.parents("R") == ("X3", "X5", "X6")
        assert fig1.children("X1") == ("X3", "X4")

    def test_equality_sees_one_edge_and_one_isolated_node(self, fig1):
        assert Dag(reversed(FIG1_NODES), reversed(FIG1_EDGES)) == fig1
        assert Dag(FIG1_NODES, FIG1_EDGES[:-1]) != fig1
        assert Dag(FIG1_NODES, FIG1_EDGES[:-1] + [("R", "X6")]) != fig1
        assert Dag(FIG1_NODES + ["Q"], FIG1_EDGES) != fig1


class TestTopologicalOrder:
    def test_chain(self):
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert topological_order(dag) == ["A", "B", "C"]

    def test_fig1_ordering_constraints(self, fig1):
        order = topological_order(fig1)
        pos = {n: i for i, n in enumerate(order)}
        for early, late in [("X1", "X3"), ("X1", "X4"), ("X2", "X3"), ("X2", "X5")]:
            assert pos[early] < pos[late]
        assert pos["T"] < pos["X6"] < pos["R"]

    @pytest.mark.parametrize("seed", range(10))
    def test_heap_frontier_matches_the_sorted_frontier(self, seed):
        # Mixed int and str names, so 3 and "3" tie on their identifier.
        rng = random.Random(seed)
        pool = [*range(12), *map(str, range(12)), *(f"N{i}" for i in range(20))]
        for _ in range(100):
            names = rng.sample(pool, rng.randint(1, 30))
            edges = [
                (a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.25
            ]
            dag = Dag(names, edges)
            assert topological_order(dag) == reference_topological_order(dag)

    def test_equal_identifiers_keep_the_sorted_frontier_order(self):
        dag = Dag([1, "1", 0, "0", "2", 2], [(0, 2), ("0", "2")])
        assert topological_order(dag) == reference_topological_order(dag)
        assert topological_order(dag) == [0, "0", 1, "1", 2, "2"]

    def test_order_does_not_depend_on_string_hashing(self):
        # Mixed int and str names in two processes with different hash seeds.
        script = (
            "import json, random; from scmkit.graph import Dag, topological_order\n"
            "rng, out = random.Random(4), []\n"
            "pool = [*range(12), *map(str, range(12))]\n"
            "for _ in range(300):\n"
            "    names = rng.sample(pool, rng.randint(2, 24))\n"
            "    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]"
            " if rng.random() < 0.2]\n"
            "    out.append(topological_order(Dag(names, edges)))\n"
            "print(json.dumps(out))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules[Dag.__module__].__file__)))
        orders = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            orders.append(json.loads(proc.stdout))
        assert orders[0] == orders[1]

    def test_two_cycle_raises_with_witness(self):
        dag = Dag(["A", "B"], [("A", "B"), ("B", "A")])
        for _ in range(2):  # nothing is kept from a failed sort
            with pytest.raises(CyclicGraphError, match="^cycle detected: A <- B <- A$"):
                topological_order(dag)

    def test_deterministic(self, fig1a):
        assert topological_order(fig1a) == topological_order(fig1a)

    def test_the_order_is_sorted_once_and_each_call_gets_its_own_list(self, fig1a, monkeypatch):
        heaps, heapify = [], graph.heapq.heapify
        monkeypatch.setattr(graph.heapq, "heapify", lambda h: heaps.append(heapify(h)))
        first = topological_order(fig1a)
        first.reverse()
        first.append("Q")
        for _ in range(3):
            assert topological_order(fig1a) == reference_topological_order(fig1a)
        assert len(heaps) == 1
        assert topological_order(fig1a) is not topological_order(fig1a)


class TestDescendants:
    def test_fig1_x1(self, fig1):
        assert descendants(fig1, "X1") == {"X3", "X4", "T", "X6", "R"}

    def test_sink_has_none(self, fig1):
        assert descendants(fig1, "R") == frozenset()

    def test_fig1_treatment(self, fig1):
        assert descendants(fig1, "T") == {"X6", "R"}

    def test_unknown_node(self, fig1):
        with pytest.raises(InvalidArgumentError):
            descendants(fig1, "nope")

    def test_ancestors_mirror(self, fig1):
        assert ancestors(fig1, "T") == {"X1", "X2", "X3", "X4"}


class TestBackdoorPaths:
    def test_fig1_has_exactly_four(self, fig1):
        paths = backdoor_paths(fig1, "T", "R")
        assert len(paths) == 4
        node_seqs = {p.nodes for p in paths}
        assert ("T", "X3", "R") in node_seqs
        assert ("T", "X4", "X1", "X3", "X2", "X5", "R") in node_seqs

    def test_direct_edge_only(self):
        dag = Dag(["T", "R"], [("T", "R")])
        assert backdoor_paths(dag, "T", "R") == []

    @pytest.mark.parametrize("listing", [
        lambda dag: backdoor_paths(dag, "T", "R"),
        lambda dag: check_backdoor(dag, "T", "R", {"X3"}).verdicts,
    ])
    def test_the_cap_admits_exactly_its_count(self, fig1, monkeypatch, listing):
        monkeypatch.setattr(graph, "DEFAULT_PATH_CAP", 4)
        assert len(listing(fig1)) == 4
        monkeypatch.setattr(graph, "DEFAULT_PATH_CAP", 3)
        with pytest.raises(ResourceLimitError, match=r"^more than 3 back-door paths$"):
            listing(fig1)

    def test_same_endpoint_rejected(self, fig1):
        with pytest.raises(InvalidArgumentError):
            backdoor_paths(fig1, "T", "T")

    def test_no_path_when_the_only_parent_of_the_response_is_the_treatment(self):
        dag = Dag(["A", "B", "T", "R"], [("A", "T"), ("A", "B"), ("T", "R")])
        assert backdoor_paths(dag, "T", "R") == []
        report = check_backdoor(dag, "T", "R", ())
        assert report.valid and report.verdicts == []
        assert enumerate_valid_adjustment_sets(dag, "T", "R", {"A", "B"}) == [frozenset()]

    def test_the_response_is_never_entered(self):
        # R -> T opens no path, and C, a child of R, does not lead back into R.
        dag = Dag(["A", "C", "T", "R"],
                  [("R", "T"), ("A", "T"), ("A", "R"), ("R", "C"), ("A", "C")])
        assert [str(p) for p in backdoor_paths(dag, "T", "R")] == ["T <- A -> R"]
        assert backdoor_paths(Dag(["T", "R"], [("R", "T")]), "T", "R") == []
        assert backdoor_paths(Dag(["B", "T", "R"], [("R", "T"), ("B", "R")]), "T", "R") == []

    def test_endpoint_orientation(self):
        rng = random.Random(42)
        for _ in range(50):
            dag = random_dag(rng)
            nodes = sorted(dag.nodes)
            t, r = rng.sample(nodes, 2)
            for p in backdoor_paths(dag, t, r):
                assert p.nodes[0] == t and p.nodes[-1] == r
                assert p.directions[0] == BACKWARD
                assert p.directions[-1] == FORWARD
                assert len(set(p.nodes)) == len(p.nodes)
                for (a, b), d in zip(zip(p.nodes, p.nodes[1:]), p.directions):
                    assert dag.has_edge(a, b) if d == FORWARD else dag.has_edge(b, a)


class TestCheckBackdoor:
    def test_x3_alone_fails_on_the_collider_path(self, fig1):
        report = check_backdoor(fig1, "T", "R", {"X3"})
        assert not report.valid
        bad = report.violating_paths()
        assert [p.nodes for p in bad] == [("T", "X4", "X1", "X3", "X2", "X5", "R")]

    def test_x3_with_any_helper_passes(self, fig1):
        for helper in ["X1", "X2", "X4", "X5"]:
            assert check_backdoor(fig1, "T", "R", {"X3", helper}).valid

    def test_empty_set_fails(self, fig1):
        assert not check_backdoor(fig1, "T", "R", set()).valid

    def test_verdict_witnesses(self, fig1):
        report = check_backdoor(fig1, "T", "R", {"X3", "X5"})
        assert report.valid
        for v in report.verdicts:
            assert v.verdict == "satisfies-(i)"
            assert v.witness in {"X3", "X5"}

    def test_treatment_in_z_rejected(self, fig1):
        with pytest.raises(InvalidArgumentError):
            check_backdoor(fig1, "T", "R", {"T"})

    def test_the_first_unknown_node_in_identifier_order_is_reported(self, fig1):
        unknown = {"X9", "X7", "Q1", "Z5", "W2", "V8"}
        with pytest.raises(InvalidArgumentError, match="^unknown node 'Q1'$"):
            check_backdoor(fig1, "T", "R", unknown)
        with pytest.raises(InvalidArgumentError, match="^unknown node 'Q1'$"):
            check_backdoor_extended(fig1, "T", "R", unknown - {"Q1"} | {"X6"}, {"Q1", "X3"})

    def test_descendant_in_z_routed_to_extended(self, fig1):
        with pytest.raises(DescendantConditioningError):
            check_backdoor(fig1, "T", "R", {"X6"})

    def test_collider_graph_empty_set_valid(self, collider_graph):
        report = check_backdoor(collider_graph, "T", "R", set())
        assert report.valid
        (verdict,) = report.verdicts
        assert verdict.verdict == "satisfies-(ii)"
        assert verdict.witness == "X3"

    def test_collider_graph_conditioning_creates_confounding(self, collider_graph):
        assert not check_backdoor(collider_graph, "T", "R", {"X3"}).valid

    def test_conditions_are_exclusive(self):
        # On any path, (i) requires a pointing Z-node and (ii) forbids one,
        # so no path can satisfy both.  Check the classification on random
        # graphs against a direct re-derivation.
        rng = random.Random(7)
        for _ in range(60):
            dag = random_dag(rng, n=6, p=0.45)
            nodes = sorted(dag.nodes)
            t, r = rng.sample(nodes, 2)
            pool = [n for n in nodes if n not in (t, r) and n not in descendants(dag, t)]
            Z = frozenset(n for n in pool if rng.random() < 0.5)
            report = check_backdoor(dag, t, r, Z)
            for v in report.verdicts:
                p = v.path
                pointing = [
                    n
                    for i, n in enumerate(interior(p), start=1)
                    if n in Z and not is_collider(p, i)
                ]
                if v.verdict == "satisfies-(i)":
                    assert pointing
                else:
                    assert not pointing

    def test_invalid_report_names_a_violating_path(self, fig1):
        report = check_backdoor(fig1, "T", "R", set())
        assert not report.valid
        assert len(report.violating_paths()) >= 1

    def test_a_path_of_3002_nodes_raises_no_recursion_error(self):
        chain = [f"A{i}" for i in range(3000)]
        edges = [("A0", "T"), *zip(chain[1:], chain), (chain[-1], "R"), ("T", "R")]
        report = check_backdoor(Dag(["T", "R", *chain], edges), "T", "R", ())
        assert not report.valid
        (path,) = report.violating_paths()
        assert path.nodes == ("T", *chain, "R")

    def test_a_prefix_that_holds_every_other_parent_of_the_response_is_not_extended(self):
        # The walk stops at P, the response's one parent besides T, and then
        # at Q, the second of two such parents, P -> Q.  An unpruned walk
        # would list the 1.3e9 simple paths through the clique below the
        # last of them, so the check runs in a child process under a timeout.
        script = (
            "from scmkit.graph import Dag, check_backdoor\n"
            "clique = [f'C{i}' for i in range(12)]\n"
            "for ends in (['P'], ['P', 'Q']):\n"
            "    edges = [('A', 'T'), ('A', 'P'), ('T', 'R'), *zip(ends, ends[1:])]\n"
            "    edges += [(e, 'R') for e in ends] + [(ends[-1], c) for c in clique]\n"
            "    edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]\n"
            "    report = check_backdoor(Dag(['A', 'T', 'R', *ends, *clique], edges), 'T', 'R', ())\n"
            "    print([(str(v.path), v.verdict) for v in report.verdicts])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules[Dag.__module__].__file__)))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout == (
            "[('T <- A -> P -> R', 'violates')]\n"
            "[('T <- A -> P -> Q -> R', 'violates'), ('T <- A -> P -> R', 'violates')]\n"
        )


class TestPseudoTreatment:
    def test_merge_inherits_edges(self, fig1a):
        merged, star = pseudo_treatment_graph(fig1a, "T", {"X7", "X8"})
        assert star == "T*"
        assert merged.parents(star) == ("X1", "X3", "X4")
        assert merged.has_edge(star, "X6") and merged.has_edge(star, "X9")
        assert "X7" not in merged.nodes and "X8" not in merged.nodes

    def test_the_merged_node_takes_a_name_no_node_has(self):
        dag = Dag(["T", "T*", "D", "R"], [("T*", "T"), ("T", "D"), ("D", "R")])
        merged, star = pseudo_treatment_graph(dag, "T", {"D"})
        assert star == "T**"
        assert merged == Dag(["T*", "T**", "R"], [("T*", "T**"), ("T**", "R")])

    def test_extended_validity_frontier(self, fig1a):
        # With the two pure treatment descendants conditioned on, a set of
        # non-descendants works iff it contains X3 plus one of X1, X2, X5.
        import itertools

        pool = ["X1", "X2", "X3", "X4", "X5"]
        for size in range(len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                Z = set(combo)
                report = check_backdoor_extended(fig1a, "T", "R", {"X7", "X8"}, Z)
                expected = "X3" in Z and bool(Z & {"X1", "X2", "X5"})
                assert report.valid == expected, f"Z={sorted(Z)}"
                assert report.warnings == []

    def test_overrule_warning_when_response_parent_deleted(self, fig1a):
        report = check_backdoor_extended(
            fig1a, "T", "R", {"X6", "X9"}, {"X1", "X3", "X5"}
        )
        assert report.valid
        assert len(report.warnings) == 1
        assert "overrule" in report.warnings[0]

    def test_empty_desc_reduces_to_plain_check(self, fig1):
        for Z in [set(), {"X3"}, {"X3", "X5"}]:
            plain = check_backdoor(fig1, "T", "R", Z)
            extended = check_backdoor_extended(fig1, "T", "R", set(), Z)
            assert extended.valid == plain.valid
            assert [v.verdict for v in extended.verdicts] == [
                v.verdict for v in plain.verdicts
            ]

    def test_nondescendant_in_z_desc_rejected(self, fig1a):
        with pytest.raises(InvalidArgumentError):
            check_backdoor_extended(fig1a, "T", "R", {"X1"}, set())

    def test_descendant_in_z_nondesc_rejected(self, fig1a):
        with pytest.raises(InvalidArgumentError):
            check_backdoor_extended(fig1a, "T", "R", {"X7"}, {"X8"})

    @pytest.mark.parametrize("z_desc, z_nondesc", [
        ({"T"}, {"X3"}), ({"R"}, {"X3"}), ({"X7"}, {"T"}), ({"X7"}, {"R"}),
    ])
    def test_endpoint_in_either_set_rejected(self, fig1a, z_desc, z_nondesc):
        with pytest.raises(InvalidArgumentError,
                           match="^conditioning sets must exclude treatment and response$"):
            check_backdoor_extended(fig1a, "T", "R", z_desc, z_nondesc)


class TestEnumerateAdjustmentSets:
    def test_fig1_minimal_pairs(self, fig1):
        sets = enumerate_valid_adjustment_sets(fig1, "T", "R", {"X1", "X2", "X3", "X4", "X5"})
        assert sets == [
            frozenset({"X1", "X3"}),
            frozenset({"X2", "X3"}),
            frozenset({"X3", "X4"}),
            frozenset({"X3", "X5"}),
        ]

    def test_unconfounded_graph_yields_empty_set(self):
        dag = Dag(["T", "R", "W"], [("T", "R"), ("W", "R")])
        assert enumerate_valid_adjustment_sets(dag, "T", "R", {"W"}) == [frozenset()]

    def test_collider_graph_yields_empty_set(self, collider_graph):
        sets = enumerate_valid_adjustment_sets(
            collider_graph, "T", "R", {"X1", "X2", "X3", "X5"}
        )
        assert sets == [frozenset()]

    def test_a_descendant_in_the_set_opens_its_collider(self):
        # {D} blocks every path through D, but D lies below the collider C
        # and so opens T <- A -> C <- B -> R, which A or B must then block.
        dag = Dag("ABCDTR", [("A", "T"), ("A", "C"), ("B", "C"), ("B", "R"),
                             ("C", "D"), ("D", "T"), ("D", "R")])
        sets = enumerate_valid_adjustment_sets(dag, "T", "R", {"A", "B", "C", "D"})
        assert sets == [frozenset({"A", "D"}), frozenset({"B", "D"})]

    def test_candidate_cap(self):
        names = [f"C{i}" for i in range(21)] + ["T", "R"]
        dag = Dag(names, [("T", "R")])
        with pytest.raises(ResourceLimitError):
            enumerate_valid_adjustment_sets(dag, "T", "R", {f"C{i}" for i in range(21)})

    def test_the_cap_admits_exactly_twenty_candidates(self):
        # No path to block: the empty set answers, after a scan of all 2**20
        # subsets, each a proper superset of it.
        names = [f"C{i}" for i in range(21)]
        dag = Dag(names + ["T", "R"], [("T", "R")])
        assert enumerate_valid_adjustment_sets(dag, "T", "R", names[:20]) == [frozenset()]
        with pytest.raises(ResourceLimitError, match="^21 candidates exceed the cap of 20$"):
            enumerate_valid_adjustment_sets(dag, "T", "R", names)

    def test_descendant_candidate_rejected(self, fig1):
        with pytest.raises(InvalidArgumentError):
            enumerate_valid_adjustment_sets(fig1, "T", "R", {"X6"})

    def test_unknown_candidate_rejected(self):
        # The empty set is valid here, so no subset holding 'nope' is ever
        # tested; the candidates themselves must be checked.
        dag = Dag(["T", "R", "W"], [("T", "R"), ("W", "R")])
        with pytest.raises(InvalidArgumentError, match="^unknown node 'nope'$"):
            enumerate_valid_adjustment_sets(dag, "T", "R", {"W", "nope"})


class TestPath:
    def test_rendering(self):
        p = Path(("T", "X3", "R"), (BACKWARD, FORWARD))
        assert str(p) == "T <- X3 -> R"

    def test_collider_detection(self):
        p = Path(("T", "X4", "X1", "X3", "X2", "X5", "R"),
                 (BACKWARD, BACKWARD, FORWARD, BACKWARD, FORWARD, FORWARD))
        assert [i for i in range(len(p.nodes)) if is_collider(p, i)] == [3]

    def test_non_simple_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Path(("A", "B", "A"), (FORWARD, FORWARD))
