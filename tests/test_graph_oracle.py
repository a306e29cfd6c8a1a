"""Graph answers checked against networkx, a brute-force subset scan and
the path-by-path reference in `structures`.

networkx is a test-only dependency: it supplies the closures and the
d-separation test, written independently of `scmkit.graph`.
"""

import itertools

import networkx as nx
from hypothesis import assume, event, given, settings, strategies as st

from scmkit.graph import (
    Dag,
    Path,
    ancestors,
    check_backdoor,
    descendants,
    enumerate_valid_adjustment_sets,
)

from structures import (
    backdoor_paths,
    reference_adjustment_sets,
    reference_backdoor_paths,
    reference_check_backdoor,
)


@st.composite
def dags(draw, max_nodes=8):
    """Random DAGs whose name order differs from their topological order."""
    n = draw(st.integers(2, max_nodes))
    names = draw(st.permutations([f"V{i}" for i in range(n)]))
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    return Dag(names, edges)


@st.composite
def sparse_dags(draw, max_nodes=10):
    """Random DAGs of one to two edges per node, so that back-door paths
    are common but few enough to list twice."""
    n = draw(st.integers(2, max_nodes))
    names = draw(st.permutations([f"V{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=2 * n, unique=True))
    return Dag(names, edges)


def subset_of(pool):
    return st.sets(st.sampled_from(pool)) if pool else st.just(set())


def to_networkx(dag: Dag, drop_out_edges_of=None) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(dag.nodes)
    g.add_edges_from((u, v) for u, v in dag.edges if u != drop_out_edges_of)
    return g


@settings(max_examples=150, deadline=None)
@given(dag=dags())
def test_closures_equal_networkx(dag):
    g = to_networkx(dag)
    for node in dag.nodes:
        assert descendants(dag, node) == nx.descendants(g, node)
        assert ancestors(dag, node) == nx.ancestors(g, node)


@settings(max_examples=200, deadline=None)
@given(dag=dags(), data=st.data())
def test_backdoor_criterion_equals_d_separation_without_treatment_out_edges(dag, data):
    # With r below t and Z free of t's descendants, Z passes the back-door
    # criterion iff it d-separates t from r once t's out-edges are removed.
    pairs = [(t, r) for t in sorted(dag.nodes) for r in sorted(descendants(dag, t))]
    assume(pairs)
    t, r = data.draw(st.sampled_from(pairs))
    cut = to_networkx(dag, drop_out_edges_of=t)
    pool = sorted(dag.nodes - {t, r} - descendants(dag, t))
    for size in range(len(pool) + 1):
        for z in itertools.combinations(pool, size):
            expected = nx.is_d_separator(cut, {t}, {r}, set(z))
            assert check_backdoor(dag, t, r, z).valid == expected, z


@settings(max_examples=200, deadline=None)
@given(dag=dags(max_nodes=7), data=st.data())
def test_enumeration_equals_a_brute_force_minimal_subset_scan(dag, data):
    nodes = sorted(dag.nodes)
    t, r = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    candidates = data.draw(subset_of(sorted(dag.nodes - {t, r} - descendants(dag, t))))
    valid = [
        frozenset(combo)
        for size in range(len(candidates) + 1)
        for combo in itertools.combinations(sorted(candidates), size)
        if check_backdoor(dag, t, r, combo).valid
    ]
    minimal = [z for z in valid if not any(other < z for other in valid)]
    expected = sorted(minimal, key=lambda s: (len(s), sorted(s)))
    assert enumerate_valid_adjustment_sets(dag, t, r, candidates) == expected


@settings(max_examples=600, deadline=None)
@given(dag=st.one_of(sparse_dags(), dags(max_nodes=7)), data=st.data())
def test_the_walk_lists_and_classifies_as_the_path_by_path_reference(dag, data):
    # The dense draws put many prefixes through every other parent of r,
    # where the walk stops extending them.
    nodes = sorted(dag.nodes)
    heads = [n for n in nodes if dag.parents(n)]
    assume(heads)
    t = data.draw(st.sampled_from(heads))
    r = data.draw(st.sampled_from([n for n in nodes if n != t]))
    pool = sorted(dag.nodes - {t, r} - descendants(dag, t))
    z = data.draw(st.sets(st.sampled_from(pool), max_size=3)) if pool else set()
    # A node with two parents, or one of its descendants, in Z opens that
    # node as a collider, so that (ii) turns on Z's ancestors.
    colliders = sorted(n for n in dag.nodes if len(dag.parents(n)) > 1)
    below = sorted({d for c in colliders for d in descendants(dag, c) | {c}} & set(pool))
    if below and data.draw(st.booleans()):
        z.add(data.draw(st.sampled_from(below)))
    report = check_backdoor(dag, t, r, z)
    for verdict in report.verdicts:
        event(verdict.verdict)
        # The walk stores its records directly; the checked constructor must agree.
        assert Path(verdict.path.nodes, verdict.path.directions) == verdict.path
    assert report == reference_check_backdoor(dag, t, r, z)
    assert backdoor_paths(dag, t, r) == reference_backdoor_paths(dag, t, r)
    candidates = data.draw(st.sets(st.sampled_from(pool), max_size=6)) if pool else set()
    assert enumerate_valid_adjustment_sets(dag, t, r, candidates) == reference_adjustment_sets(
        dag, t, r, candidates
    )
