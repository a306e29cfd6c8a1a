"""Directed acyclic graphs, back-door paths, and the admissibility criterion.

A *back-door path* between a treatment t and a response r is a simple
path whose first edge points into t and whose last edge points into r.
A conditioning set Z is admissible when every such path either

(i)  contains a Z-node that points an arrow along the path (a chain or
     fork node), or
(ii) contains no Z-node pointing an arrow along the path, and contains
     a collider such that neither the collider nor any of its
     descendants lies in Z.

The two conditions are mutually exclusive on any single path.  Sets
containing descendants of the treatment are handled separately: the
descendants are deleted and merged with t into a pseudo-treatment node
that inherits all their edges, and the criterion runs on the modified
graph.  When a deleted node fed the response directly, the merged node
acquires an edge into r and the report warns that the treatment's role
is partly or completely overruled by the conditioning.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import (
    CyclicGraphError,
    DescendantConditioningError,
    InvalidArgumentError,
    Record,
    ResourceLimitError,
)

FORWARD = "forward"
BACKWARD = "backward"

DEFAULT_PATH_CAP = 100_000


class Dag:
    """Immutable directed graph with node-sorted adjacency.

    Acyclicity is not checked at construction: :func:`topological_order`
    names a witness cycle where an order is needed, and
    ``scm.validate_scm`` reports it as a model's problem.  The order, once
    found, is kept for later calls.
    """

    def __init__(self, nodes, edges):
        self.nodes = frozenset(nodes)
        self.edges = frozenset((u, v) for u, v in edges)
        for u, v in self.edges:
            if u == v:
                raise InvalidArgumentError(f"self-loop at {u!r}")
            if u not in self.nodes:
                raise InvalidArgumentError(f"edge endpoint {u!r} is not a node")
            if v not in self.nodes:
                raise InvalidArgumentError(f"edge endpoint {v!r} is not a node")
        self._parents = {n: [] for n in self.nodes}
        self._children = {n: [] for n in self.nodes}
        for u, v in self.edges:
            self._parents[v].append(u)
            self._children[u].append(v)
        self._parents = {n: tuple(sorted(ps, key=str)) for n, ps in self._parents.items()}
        self._children = {n: tuple(sorted(cs, key=str)) for n, cs in self._children.items()}
        self._order = None

    def parents(self, node):
        self._require(node)
        return self._parents[node]

    def children(self, node):
        self._require(node)
        return self._children[node]

    def has_edge(self, u, v) -> bool:
        return (u, v) in self.edges

    def _require(self, node):
        if node not in self.nodes:
            raise InvalidArgumentError(f"unknown node {node!r}")

    def __eq__(self, other):
        return isinstance(other, Dag) and self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self):
        return f"Dag(nodes={sorted(self.nodes, key=str)}, edges={sorted(self.edges, key=str)})"


def topological_order(dag: Dag) -> list:
    """Parents-before-children order, ties broken by identifier sort
    (by `str`, then by type name), as a new list on every call.

    The order is sorted once per Dag; a cyclic Dag raises on every call."""
    if dag._order is not None:
        return list(dag._order)
    indegree = {n: len(dag.parents(n)) for n in dag.nodes}
    # Equal identifiers (1 and "1") are ordered by type name, not by the
    # set's hash order, so every process gives the same order; the tick
    # keeps the heap from comparing the nodes themselves.
    tick = itertools.count()
    frontier = [(_tie_key(n), next(tick), n) for n, d in indegree.items() if d == 0]
    heapq.heapify(frontier)
    order = []
    while frontier:
        node = heapq.heappop(frontier)[2]
        order.append(node)
        for child in dag.children(node):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(frontier, (_tie_key(child), next(tick), child))
    if len(order) < len(dag.nodes):
        raise CyclicGraphError(f"cycle detected: {_cycle_witness(dag, set(indegree) - set(order))}")
    dag._order = tuple(order)
    return order


def _tie_key(node) -> tuple:
    return str(node), type(node).__qualname__


def _cycle_witness(dag: Dag, remaining: set) -> str:
    """Walk parent links inside `remaining` until a node repeats."""
    node = min(remaining, key=str)
    trail, seen = [], {}
    while node not in seen:
        seen[node] = len(trail)
        trail.append(node)
        node = next(p for p in dag.parents(node) if p in remaining)
    cycle = trail[seen[node]:] + [node]
    return " <- ".join(str(n) for n in cycle)


def _closure(dag: Dag, node, step: dict) -> frozenset:
    """Nodes reachable from `node` through the adjacency map `step`, excluding it."""
    dag._require(node)
    out, frontier = set(), [node]
    while frontier:
        for nxt in step[frontier.pop()]:
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    out.discard(node)
    return frozenset(out)


def descendants(dag: Dag, node) -> frozenset:
    """All nodes reachable from `node` by a directed path, excluding it."""
    return _closure(dag, node, dag._children)


def ancestors(dag: Dag, node) -> frozenset:
    return _closure(dag, node, dag._parents)


class Path(Record):
    """Simple path: node sequence plus per-step edge orientation.

    ``directions[i]`` is ``"forward"`` when the graph edge runs
    ``nodes[i] -> nodes[i+1]`` and ``"backward"`` when it runs the
    other way.
    """

    __slots__ = ("nodes", "directions")

    def __init__(self, nodes: tuple, directions: tuple):
        if len(directions) != len(nodes) - 1:
            raise InvalidArgumentError("one direction per step required")
        if len(set(nodes)) != len(nodes):
            raise InvalidArgumentError("path must be simple")
        Record.__init__(self, nodes, directions)

    def __str__(self):
        parts = [str(self.nodes[0])]
        for node, direction in zip(self.nodes[1:], self.directions):
            arrow = "->" if direction == FORWARD else "<-"
            parts.append(f"{arrow} {node}")
        return " ".join(parts)


class PathVerdict(Record):
    """One path's verdict: "satisfies-(i)", "satisfies-(ii)" or "violates".

    `witness` is the pointing Z-node for (i) and the open collider for (ii).
    """

    __slots__ = ("path", "verdict", "witness")

    def __init__(self, path: Path, verdict: str, witness=None):
        Record.__init__(self, path, verdict, witness)


class BackdoorReport(Record, frozen=False):
    __slots__ = ("valid", "verdicts", "warnings")

    def __init__(self, valid: bool, verdicts: list[PathVerdict], warnings: list | None = None):
        Record.__init__(self, valid, verdicts, [] if warnings is None else warnings)

    def violating_paths(self) -> list[Path]:
        return [v.path for v in self.verdicts if v.verdict == "violates"]


def _walk(dag: Dag, t, r, Z: frozenset, above_z: frozenset) -> tuple[list[PathVerdict], bool]:
    """Every back-door path from t to r with its verdict against Z, and
    whether none of them violates.

    Depth-first; the current node's step iterator and its two outgoing
    states, (verdict, witness), are locals, and the frames below it are on
    a stack, so paths sharing a prefix share its classification; children
    and parents are tried in identifier order.  Each step carries the facts
    that entering its node decides, built once per call: its (i) state when
    the node is in Z, its (ii) state when it is entered along an arrow
    outside `above_z` (Z with its ancestors), and whether it is a parent of
    r other than t.  A path ends on an edge into r from such a parent, so a
    prefix grows only while `left` of them are off it; the step that puts
    the last one on lists its path at once.  r is visited from the start
    and no step leads back into it, so a step that reaches r ends a path.
    The first Z-node that points an arrow along the path (a chain or fork
    node) fixes (i); until one appears, the first collider outside
    `above_z` is the (ii) witness.
    """
    dag._require(t)
    dag._require(r)
    if t == r:
        raise InvalidArgumentError("treatment and response must differ")
    ends = set(dag._parents[r]) - {t}
    if not ends:
        return [], True
    sat_i, sat_ii, open_ = "satisfies-(i)", "satisfies-(ii)", ("violates", None)
    # The steps into n along and against an arrow: (n, direction, along,
    # (i) state or None, (ii) state or None, n is an end).  Entered against
    # an arrow, n is no collider.
    into = {
        n: ((n, FORWARD, True, (sat_i, n) if n in Z else None,
             None if n in above_z else (sat_ii, n), n in ends),
            (n, BACKWARD, False, (sat_i, n) if n in Z else None, None, n in ends))
        for n in dag.nodes
    }
    steps = {
        n: sorted([into[c][0] for c in dag._children[n]] + [into[p][1] for p in dag._parents[n] if p != r],
                  key=lambda s: (str(s[0]), s[1]))
        for n in dag.nodes
    }
    # `visited` keeps each path simple and `dirs` grows with `nodes`, so the
    # records are stored directly, without `Path.__init__`'s checks.
    (set_nodes, set_dirs), (set_path, set_verdict, set_witness) = Path._setters, PathVerdict._setters
    cap, verdicts, valid = DEFAULT_PATH_CAP, [], True
    left, visited, nodes, dirs, stack = len(ends), {t, r}, [t], [], []
    # Paths leave t backward, open until a node decides them; r -> t opens none.
    it, forward, backward = iter([into[p][1] for p in dag._parents[t] if p != r]), open_, open_
    while True:
        for nxt, direction, ahead, pointer, collider, end in it:
            if nxt in visited:
                if nxt != r:
                    continue
                state, path_nodes, path_dirs = forward, (*nodes, r), (*dirs, FORWARD)
            else:
                entered = state = forward if ahead else backward
                if pointer and state[0] != sat_i:
                    state = pointer
                if left > end:  # some end stays off the path
                    stack.append((it, forward, backward, left))
                    visited.add(nxt)
                    nodes.append(nxt)
                    dirs.append(direction)
                    left -= end
                    it, forward = iter(steps[nxt]), state
                    # Entered along an arrow, the node is a collider when left backward.
                    if not ahead:
                        backward = state
                    elif collider and entered is open_:
                        backward = collider
                    else:
                        backward = entered
                    break
                path_nodes, path_dirs = (*nodes, nxt, r), (*dirs, direction, FORWARD)
            if len(verdicts) >= cap:
                raise ResourceLimitError(f"more than {cap} back-door paths")
            path, verdict = object.__new__(Path), object.__new__(PathVerdict)
            set_nodes(path, path_nodes)
            set_dirs(path, path_dirs)
            set_path(verdict, path)
            set_verdict(verdict, state[0])
            set_witness(verdict, state[1])
            verdicts.append(verdict)
            valid = valid and state is not open_
        else:
            if not stack:
                return verdicts, valid
            it, forward, backward, left = stack.pop()
            visited.remove(nodes.pop())
            dirs.pop()


def check_backdoor(dag: Dag, t, r, Z) -> BackdoorReport:
    """Per-path criterion verdicts; valid iff every back-door path passes."""
    Z = frozenset(Z)
    for z in sorted(Z, key=str):
        dag._require(z)
    if Z & {t, r}:
        raise InvalidArgumentError("conditioning set must exclude treatment and response")
    offenders = Z & descendants(dag, t)
    if offenders:
        raise DescendantConditioningError(
            f"{sorted(offenders, key=str)} descend from {t!r}; use check_backdoor_extended"
        )
    verdicts, valid = _walk(dag, t, r, Z, Z.union(*(ancestors(dag, z) for z in Z)))
    return BackdoorReport(valid, verdicts)


def pseudo_treatment_graph(dag: Dag, t, deleted) -> tuple[Dag, object]:
    """Merge t with `deleted` into one node inheriting all their edges.

    Returns the modified graph and the merged node's identifier.
    """
    deleted = frozenset(deleted)
    cluster = deleted | {t}
    star = f"{t}*"
    while star in dag.nodes:
        star += "*"
    nodes = (dag.nodes - cluster) | {star}
    edges = set()
    for u, v in dag.edges:
        u2 = star if u in cluster else u
        v2 = star if v in cluster else v
        if u2 != v2:
            edges.add((u2, v2))
    return Dag(nodes, edges), star


def check_backdoor_extended(dag: Dag, t, r, Z_desc, Z_nondesc) -> BackdoorReport:
    """Criterion with treatment-descendant conditioning via a pseudo-treatment.

    `Z_desc` (descendants of t) are deleted and merged with t; the plain
    criterion then runs for the merged node against `Z_nondesc`.  A
    deleted parent of r grafts a direct merged-node -> r edge, flagged
    with an overrule warning because the response mechanism then no
    longer involves the original treatment value.
    """
    Z_desc, Z_nondesc = frozenset(Z_desc), frozenset(Z_nondesc)
    for z in sorted(Z_desc | Z_nondesc, key=str):
        dag._require(z)
    if (Z_desc | Z_nondesc) & {t, r}:
        raise InvalidArgumentError("conditioning sets must exclude treatment and response")
    t_desc = descendants(dag, t)
    stray = Z_desc - t_desc
    if stray:
        raise InvalidArgumentError(f"{sorted(stray, key=str)} are not descendants of {t!r}")
    misplaced = Z_nondesc & t_desc
    if misplaced:
        raise InvalidArgumentError(
            f"{sorted(misplaced, key=str)} descend from {t!r}; list them in Z_desc"
        )
    if not Z_desc:
        return check_backdoor(dag, t, r, Z_nondesc)

    modified, star = pseudo_treatment_graph(dag, t, Z_desc)
    report = check_backdoor(modified, star, r, Z_nondesc)
    overruling = sorted((d for d in Z_desc if dag.has_edge(d, r)), key=str)
    if overruling:
        report.warnings.append(
            f"conditioning on {overruling} overrules the effect of {t!r} on {r!r} "
            "partly or completely: the response law under the pseudo-treatment "
            "no longer involves the treatment value"
        )
    return report


def enumerate_valid_adjustment_sets(dag: Dag, t, r, candidates) -> list[frozenset]:
    """All minimal subsets of `candidates` passing the back-door criterion."""
    candidates = frozenset(candidates)
    if len(candidates) > 20:
        raise ResourceLimitError(f"{len(candidates)} candidates exceed the cap of 20")
    if candidates & ({t, r} | descendants(dag, t)):
        raise InvalidArgumentError(
            "candidates must exclude the treatment, the response, and treatment descendants"
        )
    ordered = sorted(candidates, key=str)
    above = {c: ancestors(dag, c) | {c} for c in ordered}
    # Z leaves a path open exactly when none of its chain or fork nodes is
    # in Z and each of its colliders is in Z or has a descendant there.
    splits = set()
    for path in (v.path for v in _walk(dag, t, r, frozenset(), frozenset())[0]):
        turns = zip(path.nodes[1:], path.directions, path.directions[1:])
        colliders = frozenset(n for n, came, went in turns if (came, went) == (FORWARD, BACKWARD))
        splits.add((candidates.intersection(path.nodes[1:-1]) - colliders, colliders))
    minimal: list[frozenset] = []
    for size in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            Z = frozenset(combo)
            if any(m <= Z for m in minimal):
                continue  # proper superset of a known valid set
            above_z = frozenset().union(*(above[z] for z in Z))
            if not any(pointing.isdisjoint(Z) and colliders <= above_z for pointing, colliders in splits):
                minimal.append(Z)
    return sorted(minimal, key=lambda s: (len(s), sorted(s, key=str)))
