"""Seeded benchmark inputs.

Everything here is drawn from numpy's PCG64 generator seeded by the
workload seed, so one seed always yields the same models, datasets and
query arguments.  Models are plain specs (node order, parents, domain
sizes, CPT arrays); ``to_scm`` and ``to_doc`` turn a spec into the
program's model object or into a model file document, and the oracles
read the spec directly.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Catalog shapes, copied from the documented example graphs so that the
# generator does not depend on the code it feeds.
SHAPES = {
    "fig1": (
        ("X1", "X2", "X3", "X4", "X5", "X6", "T", "R"),
        (("X1", "X3"), ("X2", "X3"), ("X1", "X4"), ("X2", "X5"), ("X3", "T"),
         ("X4", "T"), ("T", "X6"), ("X3", "R"), ("X5", "R"), ("X6", "R")),
    ),
    "smoking": (
        ("X", "Y", "Z", "W"),
        (("X", "Y"), ("X", "W"), ("Y", "Z"), ("Z", "W")),
    ),
    "eelworms": (
        ("A", "B", "U", "X", "V", "W", "Y"),
        (("A", "B"), ("A", "U"), ("A", "X"), ("U", "V"), ("X", "V"), ("B", "W"),
         ("V", "W"), ("X", "Y"), ("V", "Y"), ("W", "Y")),
    ),
    "treatment_plan": (
        ("X", "T", "R", "X2", "T2", "R2"),
        (("X", "T"), ("X", "R"), ("T", "R"), ("X", "X2"), ("T", "X2"), ("R", "X2"),
         ("X2", "T2"), ("T", "T2"), ("R", "T2"), ("X2", "R2"), ("T2", "R2"), ("T", "R2")),
    ),
    "two_stage": (
        ("Y1", "Y2", "Y3", "Y4", "U"),
        (("Y2", "Y1"), ("Y4", "Y1"), ("U", "Y1"), ("Y3", "Y2"), ("Y4", "Y3"), ("U", "Y3")),
    ),
    # The catalog two_stage graph lacks Y4 -> Y2, which the policy formula needs.
    "two_stage_edge": (
        ("Y1", "Y2", "Y3", "Y4", "U"),
        (("Y2", "Y1"), ("Y4", "Y1"), ("U", "Y1"), ("Y3", "Y2"), ("Y4", "Y3"), ("U", "Y3"),
         ("Y4", "Y2")),
    ),
    "hiring": (
        ("S", "B", "Q", "H"),
        (("S", "B"), ("S", "Q"), ("S", "H"), ("B", "Q"), ("B", "H"), ("Q", "H")),
    ),
    "iv": (
        ("I", "U", "T", "R"),
        (("I", "T"), ("U", "T"), ("U", "R"), ("T", "R")),
    ),
    "drift": (("X", "T", "R"), (("X", "T"), ("X", "R"), ("T", "R"))),
}


@dataclass
class Spec:
    """A discrete model.

    `nodes` is a topological order; `parents[n]` is sorted by name;
    `tables[n]` has one axis per parent (in that order) plus a last axis
    over the values 0..sizes[n]-1 of n, holding floats or Fractions.
    """

    nodes: tuple
    parents: dict
    sizes: dict
    tables: dict

    @property
    def edges(self) -> list:
        return [(p, n) for n in self.nodes for p in self.parents[n]]

    @property
    def exact(self) -> bool:
        return any(t.dtype == object for t in self.tables.values())


@dataclass
class GaussSpec:
    """A linear-Gaussian model: X_i = a_i + sum_j c_ij X_j + N(0, d_i)."""

    nodes: tuple
    parents: dict
    intercepts: dict
    coefficients: dict
    noise: dict


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def _topological(nodes, edges) -> tuple:
    parents = {n: sorted(p for p, c in edges if c == n) for n in nodes}
    order, done = [], set()
    while len(order) < len(nodes):
        ready = sorted(n for n in nodes if n not in done and set(parents[n]) <= done)
        order.append(ready[0])
        done.add(ready[0])
    return tuple(order)


def random_dag(rng, n: int, k: int, prefix: str = "N") -> tuple:
    """n nodes in index order, each with min(i, k) parents among earlier nodes."""
    width = len(str(n - 1))
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    parents = {}
    for i, name in enumerate(names):
        picks = rng.choice(i, size=min(i, k), replace=False) if i else []
        parents[name] = tuple(names[j] for j in sorted(picks))
    return tuple(names), parents


EXACT_TOTAL = 12


def _row(rng, size: int, exact: bool):
    if exact:
        # A random composition of a fixed total: every row has the same
        # denominator, so Fraction sizes, and the cost of exact arithmetic,
        # do not change with the seed.
        cuts = sorted(rng.choice(np.arange(1, EXACT_TOTAL), size - 1, replace=False))
        parts = np.diff([0, *cuts, EXACT_TOTAL])
        return [Fraction(int(w), EXACT_TOTAL) for w in parts]
    weights = rng.uniform(0.05, 1.05, size)
    return list(weights / weights.sum())


def fill(rng, nodes, parents, sizes, exact: bool = False) -> Spec:
    """Strictly positive random CPTs over the given graph."""
    tables = {}
    for node in nodes:
        shape = tuple(sizes[p] for p in parents[node]) + (sizes[node],)
        table = np.empty(shape, dtype=object if exact else float)
        for cfg in itertools.product(*[range(sizes[p]) for p in parents[node]]):
            table[cfg] = _row(rng, sizes[node], exact)
        tables[node] = table
    return Spec(tuple(nodes), dict(parents), dict(sizes), tables)


def random_spec(rng, n: int, k: int, size: int, exact: bool = False) -> Spec:
    nodes, parents = random_dag(rng, n, k)
    return fill(rng, nodes, parents, {v: size for v in nodes}, exact)


def shape_spec(rng, shape: str, sizes=2, exact: bool = False) -> Spec:
    """Seeded tables over a catalog shape; `sizes` is an int or a per-node map."""
    nodes, edges = SHAPES[shape]
    order = _topological(nodes, edges)
    parents = {n: tuple(sorted(p for p, c in edges if c == n)) for n in nodes}
    if isinstance(sizes, int):
        sizes = {n: sizes for n in nodes}
    else:
        sizes = {n: sizes.get(n, 2) for n in nodes}
    return fill(rng, order, parents, sizes, exact)


def random_gauss(rng, n: int, k: int, prefix: str = "G") -> GaussSpec:
    nodes, parents = random_dag(rng, n, k, prefix)
    return GaussSpec(
        nodes,
        parents,
        {v: float(rng.normal()) for v in nodes},
        {v: {p: float(rng.uniform(-0.7, 0.7)) for p in parents[v]} for v in nodes},
        {v: float(rng.uniform(0.5, 1.5)) for v in nodes},
    )


def descendants(spec_or_edges, node) -> set:
    edges = spec_or_edges.edges if isinstance(spec_or_edges, Spec) else spec_or_edges
    children: dict = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)
    out, stack = set(), [node]
    while stack:
        for c in children.get(stack.pop(), ()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def count_backdoor_paths(nodes, edges, t, r, cap: int) -> int:
    """Simple t..r paths entering t against an edge and entering r along one.

    Stops counting at `cap`; used only to pick graphs of a target size.
    """
    adj = {n: [] for n in nodes}
    for p, c in edges:
        adj[p].append((c, True))
        adj[c].append((p, False))
    count = 0

    def walk(node, seen):
        nonlocal count
        for nxt, forward in adj[node]:
            if count >= cap:
                return
            if nxt == r:
                count += forward
            elif nxt not in seen:
                seen.add(nxt)
                walk(nxt, seen)
                seen.discard(nxt)

    for p, c in edges:
        if c == t and p != r:
            walk(p, {t, p})
    return count


def dense_graph(rng, n: int, k: int, target_paths: int, tries: int = 60) -> tuple:
    """(nodes, edges, t, r) with about `target_paths` back-door paths.

    Seeded (graph, treatment, response) draws are tried until one lands
    within 15% of the target, else the closest below the cap wins, so every
    seed asks for about the same amount of work.  The response always
    descends from the treatment.
    """
    cap = int(1.15 * target_paths) + 1
    best = None
    for _ in range(tries):
        nodes, parents = random_dag(rng, n, k)
        edges = [(p, c) for c in nodes for p in parents[c]]
        for _ in range(3):
            t = nodes[int(rng.integers(k, n - 1))]
            below = sorted(descendants(edges, t))
            if not below:
                continue
            r = below[int(rng.integers(len(below)))]
            count = count_backdoor_paths(nodes, edges, t, r, cap)
            score = abs(np.log((count + 1) / target_paths)) if count < cap else np.inf
            if best is None or score < best[0]:
                best = (score, (nodes, edges, t, r))
            if score < 0.15:
                return best[1]
    return best[1]


def to_scm(spec: Spec):
    from scmkit.graph import Dag
    from scmkit.scm import Cpt, Domain, Scm

    domains = {n: Domain(n, tuple(range(spec.sizes[n]))) for n in spec.nodes}
    cpts = {}
    for n in spec.nodes:
        table = spec.tables[n]
        rows = {
            cfg: tuple(v if spec.exact else float(v) for v in table[cfg])
            for cfg in itertools.product(*[range(spec.sizes[p]) for p in spec.parents[n]])
        }
        cpts[n] = Cpt(n, spec.parents[n], rows)
    return Scm(Dag(spec.nodes, spec.edges), domains, cpts)


def to_lg(g: GaussSpec):
    from scmkit.gaussian import LinearGaussianScm
    from scmkit.graph import Dag

    edges = [(p, n) for n in g.nodes for p in g.parents[n]]
    return LinearGaussianScm(Dag(g.nodes, edges), g.intercepts, g.coefficients, g.noise)


def to_doc(spec: Spec) -> dict:
    """Model-file document in the program's JSON model format."""
    nodes = []
    for n in spec.nodes:
        table = {
            "|".join(str(v) for v in cfg): [float(p) for p in spec.tables[n][cfg]]
            for cfg in itertools.product(*[range(spec.sizes[p]) for p in spec.parents[n]])
        }
        nodes.append({
            "id": n,
            "domain": list(range(spec.sizes[n])),
            "parents": list(spec.parents[n]),
            "table": table,
        })
    return {"meta": {}, "nodes": nodes}


def from_doc(doc: dict) -> Spec:
    """Spec of a model file whose domains are 0..k-1 (float tables)."""
    entries = {e["id"]: e for e in doc["nodes"]}
    for e in entries.values():
        if list(e["domain"]) != list(range(len(e["domain"]))):
            raise ValueError(f"domain of {e['id']!r} is not 0..k-1")
    sizes = {n: len(e["domain"]) for n, e in entries.items()}
    edges = [(p, n) for n, e in entries.items() for p in e["parents"]]
    order = _topological(list(entries), edges)
    parents = {n: tuple(sorted(entries[n]["parents"])) for n in entries}
    tables = {}
    for n, e in entries.items():
        listed = list(e["parents"])
        shape = tuple(sizes[p] for p in parents[n]) + (sizes[n],)
        table = np.empty(shape)
        for key, row in e["table"].items():
            vals = [int(v) for v in key.split("|")] if key else []
            by_name = dict(zip(listed, vals))
            table[tuple(by_name[p] for p in parents[n])] = row
        tables[n] = table
    return Spec(order, parents, sizes, tables)


def write_doc(spec: Spec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_doc(spec), fh)


def population_spec() -> Spec:
    """A fixed binary case-control population: X -> T, (T, X) -> R.

    The law is the same for every seed, so the rows scanned per pair, and
    with them the work per pair, do not change with the seed; the seed
    only picks the digit stream.
    """
    parents = {"X": (), "T": ("X",), "R": ("T", "X")}
    tables = {
        "X": np.array([0.5, 0.5]),
        "T": np.array([[0.55, 0.45], [0.48, 0.52]]),
        "R": np.array([[[0.7, 0.3], [0.75, 0.25]], [[0.5, 0.5], [0.45, 0.55]]]),
    }
    return Spec(("X", "T", "R"), parents, {"X": 2, "T": 2, "R": 2}, tables)


def drift_rows(rng, n: int) -> list:
    """Rows (X, T, R) of a binary population with a fixed law, as ints."""
    x = rng.integers(0, 2, n)
    t = (rng.uniform(size=n) < 0.45 + 0.1 * x).astype(int)
    r = (rng.uniform(size=n) < 0.2 + 0.1 * t + 0.2 * x).astype(int)
    return [tuple(int(v) for v in row) for row in zip(x, t, r)]


def iv_rows(rng, n: int) -> list:
    """Rows (I, T, R) with a binary instrument and a linear response."""
    i = rng.integers(0, 2, n)
    u = rng.normal(size=n)
    t = (rng.uniform(size=n) < 0.3 + 0.4 * i + 0.1 * (u > 0)).astype(int)
    r = 0.5 * t + u + rng.normal(size=n)
    return [(int(a), int(b), float(c)) for a, b, c in zip(i, t, r)]
