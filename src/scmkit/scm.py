"""Discrete structural causal models with exact enumeration.

A model is a DAG plus, per node, a finite value domain and a
conditional probability table over the parent configurations.  The
table row is the distribution of the node's structural function
applied to an independent uniform, so any two mechanisms inducing the
same rows are interchangeable blueprints for the same joint law.

The joint distribution is enumerated exactly in topological order;
interventions replace a mechanism by a point mass and cut the incoming
edges; sampling realizes each row through the generalized inverse CDF
driven by one uniform stream per node.

Probabilities may be floats or ``fractions.Fraction`` values; all
exact operations (joint, restrict, conditional independence) preserve
whichever arithmetic the tables carry.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    CyclicGraphError,
    InvalidArgumentError,
    ResourceLimitError,
    ZeroProbabilityError,
)
from .exogenous import DigitStream, next_uniforms, split_streams
from .graph import Dag, topological_order

# Conditioning events with less mass than this are treated as impossible.
POSITIVITY_CUTOFF = 1e-15

MAX_JOINT_CONFIGS = 10_000_000


@dataclass(frozen=True)
class Domain:
    node: object
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise InvalidArgumentError(f"empty domain for {self.node!r}")
        if len(set(self.values)) != len(self.values):
            raise InvalidArgumentError(f"duplicate values in domain of {self.node!r}")

    def index(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise InvalidArgumentError(f"{value!r} not in domain of {self.node!r}") from None


@dataclass(frozen=True)
class Cpt:
    """One node's mechanism: parent configuration -> distribution row."""

    node: object
    parents: tuple
    table: dict  # tuple of parent values (in `parents` order) -> probability sequence


@dataclass
class Intervention:
    assignments: dict  # node -> forced value


class Scm:
    """DAG + domains + tables.  Treated as immutable once built."""

    def __init__(self, dag: Dag, domains: dict, cpts: dict, meta: dict | None = None):
        self.dag = dag
        self.domains = domains
        self.cpts = cpts
        self.meta = dict(meta or {})

    def node_values(self, node) -> tuple:
        return self.domains[node].values


@dataclass
class JointTable:
    """Exact joint law: full configuration tuple -> probability."""

    order: tuple
    probs: dict

    def index(self, node) -> int:
        try:
            return self.order.index(node)
        except ValueError:
            raise InvalidArgumentError(f"{node!r} not in joint table") from None

    def total(self):
        return sum(self.probs.values())

    def prob(self, assignment: dict):
        """Mass of a partial assignment {node: value, ...}."""
        idx = [(self.index(n), v) for n, v in assignment.items()]
        return sum(p for cfg, p in self.probs.items() if all(cfg[i] == v for i, v in idx))


@dataclass
class Dataset:
    columns: tuple
    rows: list  # list of value tuples, row index = collection order

    def column(self, name) -> list:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise InvalidArgumentError(f"unknown column {name!r}") from None
        return [row[i] for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(str(c) for c in self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(str(v) for v in row) + "\n")

    @staticmethod
    def read_csv(path, domains: dict | None = None) -> "Dataset":
        """Load a comma-separated file; header row names the columns.

        Values are matched against `domains` when given, otherwise
        parsed as int when possible and kept as strings when not.
        """
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines:
            raise InvalidArgumentError(f"{path}: empty file")
        columns = tuple(lines[0].split(","))
        parsers = []
        for col in columns:
            if domains and col in domains:
                lookup = {str(v): v for v in domains[col].values}
                parsers.append(lambda s, lk=lookup, c=col: _domain_value(s, lk, c))
            else:
                parsers.append(_auto_value)
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(columns):
                raise InvalidArgumentError(f"{path}: row width {len(parts)} != {len(columns)}")
            rows.append(tuple(parse(part) for parse, part in zip(parsers, parts)))
        return Dataset(columns, rows)


def _domain_value(text, lookup, col):
    if text not in lookup:
        raise InvalidArgumentError(f"value {text!r} not in domain of column {col!r}")
    return lookup[text]


def _auto_value(text):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def validate_scm(scm: Scm) -> list[str]:
    """All invariant violations, as human-readable strings; [] when sound."""
    problems: list[str] = []
    nodes = scm.dag.nodes
    for n in sorted(nodes - set(scm.domains), key=str):
        problems.append(f"node {n!r} has no domain")
    for n in sorted(nodes - set(scm.cpts), key=str):
        problems.append(f"node {n!r} has no table")
    for n in sorted(set(scm.domains) - nodes, key=str):
        problems.append(f"domain for unknown node {n!r}")
    for n in sorted(set(scm.cpts) - nodes, key=str):
        problems.append(f"table for unknown node {n!r}")
    try:
        topological_order(scm.dag)
    except CyclicGraphError as exc:
        problems.append(str(exc))

    for node in sorted(nodes, key=str):
        dom = scm.domains.get(node)
        cpt = scm.cpts.get(node)
        if dom is None or cpt is None:
            continue
        if cpt.node != node:
            problems.append(f"table keyed to {cpt.node!r} stored under {node!r}")
        if set(cpt.parents) != set(scm.dag.parents(node)):
            problems.append(
                f"{node!r}: table parents {list(cpt.parents)} != graph parents "
                f"{list(scm.dag.parents(node))}"
            )
            continue
        if len(set(cpt.parents)) != len(cpt.parents):
            problems.append(f"{node!r}: duplicate parent in table")
            continue
        expected = 1
        for p in cpt.parents:
            pdom = scm.domains.get(p)
            expected *= len(pdom.values) if pdom else 0
        if len(cpt.table) != expected:
            problems.append(
                f"{node!r}: table has {len(cpt.table)} rows, expected {expected}"
            )
        for cfg, row in sorted(cpt.table.items(), key=str):
            if len(cfg) != len(cpt.parents):
                problems.append(f"{node!r}: row key {cfg!r} has wrong arity")
                continue
            bad_value = False
            for p, v in zip(cpt.parents, cfg):
                pdom = scm.domains.get(p)
                if pdom is not None and v not in pdom.values:
                    problems.append(f"{node!r}: row key value {v!r} not in domain of {p!r}")
                    bad_value = True
            if bad_value:
                continue
            if len(row) != len(dom.values):
                problems.append(
                    f"{node!r}@{cfg!r}: row length {len(row)} != domain size {len(dom.values)}"
                )
                continue
            if not all(math.isfinite(p) for p in row):
                problems.append(f"{node!r}@{cfg!r}: non-finite probability")
                continue
            if any(p < 0 for p in row):
                problems.append(f"{node!r}@{cfg!r}: negative probability")
            if abs(float(sum(row)) - 1.0) > 1e-12:
                problems.append(f"{node!r}@{cfg!r}: row sums to {float(sum(row))!r}, not 1")
    return problems


def joint_distribution(scm: Scm) -> JointTable:
    """Exact joint law over all nodes, enumerated in topological order."""
    order = topological_order(scm.dag)
    size = 1
    for node in order:
        size *= len(scm.domains[node].values)
        if size > MAX_JOINT_CONFIGS:
            raise ResourceLimitError(
                f"state space exceeds {MAX_JOINT_CONFIGS} configurations"
            )
    position = {n: i for i, n in enumerate(order)}
    partial = {(): 1}
    for node in order:
        cpt = scm.cpts[node]
        parent_pos = [position[p] for p in cpt.parents]
        values = scm.domains[node].values
        grown = {}
        for cfg, mass in partial.items():
            row = cpt.table[tuple(cfg[i] for i in parent_pos)]
            for value, p in zip(values, row):
                if p == 0:
                    continue
                grown[cfg + (value,)] = mass * p
        partial = grown
    return JointTable(tuple(order), partial)


def restrict(joint: JointTable, targets, given: dict | None = None) -> JointTable:
    """Exact conditional law of `targets` given a partial configuration."""
    given = given or {}
    if isinstance(targets, str):
        targets = (targets,)
    elif isinstance(targets, (set, frozenset)):
        targets = tuple(sorted(targets, key=str))
    else:
        targets = tuple(targets)
    if set(targets) & set(given):
        raise InvalidArgumentError("targets and conditioning nodes must be disjoint")
    target_idx = [joint.index(n) for n in targets]
    given_idx = [(joint.index(n), v) for n, v in given.items()]
    mass = 0
    sums: dict = {}
    for cfg, p in joint.probs.items():
        if all(cfg[i] == v for i, v in given_idx):
            mass += p
            key = tuple(cfg[i] for i in target_idx)
            sums[key] = sums.get(key, 0) + p
    if float(mass) <= POSITIVITY_CUTOFF:
        raise ZeroProbabilityError(f"conditioning event {given!r} has probability 0")
    return JointTable(targets, {k: v / mass for k, v in sums.items()})


def _marginals(joint: JointTable, *node_tuples) -> list:
    """Unnormalized masses {configuration: mass} of each node tuple, all
    from one scan of the joint.

    Masses accumulate in joint order and keys appear in the order of their
    first configuration, exactly as `restrict` sums them.
    """
    keys = []
    for nodes in node_tuples:
        pos = [joint.index(n) for n in nodes]
        # itemgetter(*pos) returns a bare value for one position and fails for
        # none; a slice keeps those keys tuples.
        short = slice(pos[0], pos[0] + 1) if pos else slice(0)
        keys.append(itemgetter(*pos) if len(pos) > 1 else itemgetter(short))
    tables: list = [{} for _ in node_tuples]
    for cfg, p in joint.probs.items():
        for key_of, table in zip(keys, tables):
            key = key_of(cfg)
            table[key] = table.get(key, 0) + p
    return tables


def conditional_laws(joint: JointTable, targets: tuple, given_nodes: tuple) -> dict:
    """P(targets | given) for every configuration of the given nodes.

    Returns {given_cfg: {target_cfg: probability}} from one scan of the
    joint.  Each law equals, value for value and in the same key order,
    what `restrict(joint, targets, dict(zip(given_nodes, given_cfg)))`
    returns; strata with mass at or below POSITIVITY_CUTOFF are left out.
    """
    targets, given_nodes = tuple(targets), tuple(given_nodes)
    if set(targets) & set(given_nodes):
        raise InvalidArgumentError("targets and conditioning nodes must be disjoint")
    masses, cells = _marginals(joint, given_nodes, given_nodes + targets)
    k = len(given_nodes)
    laws: dict = {g: {} for g, mass in masses.items() if float(mass) > POSITIVITY_CUTOFF}
    for key, mass in cells.items():
        law = laws.get(key[:k])
        if law is not None:
            law[key[k:]] = mass / masses[key[:k]]
    return laws


def expectation(joint: JointTable, node, given: dict | None = None):
    """Mean of a numeric node, optionally conditional."""
    law = restrict(joint, (node,), given)
    return sum(v[0] * p for v, p in law.probs.items())


def total_variation(a: JointTable, b: JointTable) -> float:
    """Half the L1 distance between two laws over the same nodes."""
    if set(a.order) != set(b.order):
        raise InvalidArgumentError("laws cover different nodes")
    perm = [b.index(n) for n in a.order]
    b_re = {tuple(cfg[j] for j in perm): p for cfg, p in b.probs.items()}
    keys = set(a.probs) | set(b_re)
    return 0.5 * sum(abs(float(a.probs.get(k, 0)) - float(b_re.get(k, 0))) for k in keys)


def intervene(scm: Scm, iv: Intervention) -> Scm:
    """Mutilated model: forced nodes become parentless point masses."""
    for node, value in iv.assignments.items():
        if node not in scm.dag.nodes:
            raise InvalidArgumentError(f"unknown intervention target {node!r}")
        scm.domains[node].index(value)  # raises when out of domain
    targets = set(iv.assignments)
    edges = {(u, v) for u, v in scm.dag.edges if v not in targets}
    dag = Dag(scm.dag.nodes, edges)
    cpts = dict(scm.cpts)
    for node, value in iv.assignments.items():
        values = scm.domains[node].values
        row = tuple(1 if v == value else 0 for v in values)
        cpts[node] = Cpt(node, (), {(): row})
    return Scm(dag, scm.domains, cpts, scm.meta)


def sample(scm: Scm, source: DigitStream, n: int) -> Dataset:
    """n rows drawn mechanism-by-mechanism, one uniform stream per node.

    Row i consumes draw i of each node's stream, so extending n keeps
    the earlier rows unchanged.
    """
    if n < 0:
        raise InvalidArgumentError(f"sample size must be >= 0, got {n}")
    order = topological_order(scm.dag)
    streams = split_streams(source, len(order)) if order else []
    columns: dict = {}
    for node, stream in zip(order, streams):
        u = next_uniforms(stream, n)
        columns[node] = _realize_column(scm, node, u, columns)
    rows = list(zip(*[columns[nd] for nd in order])) if n and order else []
    return Dataset(tuple(order), rows)


def _realize_column(scm: Scm, node, uniforms, columns) -> list:
    """Inverse-CDF transform of the node's rows at the realized parents."""
    cpt = scm.cpts[node]
    values = scm.domains[node].values
    top = len(values) - 1
    cum = {
        cfg: np.cumsum(np.asarray(row, dtype=float)) for cfg, row in cpt.table.items()
    }
    if not cpt.parents:
        idx = np.minimum(np.searchsorted(cum[()], uniforms, side="left"), top)
        return [values[i] for i in idx]
    parent_cols = [columns[p] for p in cpt.parents]
    out = []
    for i, u in enumerate(uniforms):
        thresholds = cum[tuple(col[i] for col in parent_cols)]
        j = int(np.searchsorted(thresholds, u, side="left"))
        out.append(values[min(j, top)])
    return out


def cond_independent(joint: JointTable, a, b, c, tol: float = 1e-12):
    """Whether A and B are independent given C, with the worst deviation.

    Checks |P(a,b|c) - P(a|c)P(b|c)| <= tol over every c with positive
    probability; returns (verdict, max deviation).
    """
    a, b, c = (tuple(sorted(s, key=str)) for s in (a, b, c))
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise InvalidArgumentError("node sets must be pairwise disjoint")
    if not a or not b:
        return True, 0.0
    ab, pa, pb = (conditional_laws(joint, nodes, c) for nodes in (a + b, a, b))
    worst = 0.0
    for c_cfg, law_ab in ab.items():
        for a_cfg, p_a in pa[c_cfg].items():
            for b_cfg, p_b in pb[c_cfg].items():
                p_ab = law_ab.get(a_cfg + b_cfg, 0)
                dev = abs(float(p_ab) - float(p_a) * float(p_b))
                worst = max(worst, dev)
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# Model file format

def _format_number(x) -> str:
    return f"{float(x):.17g}"


def _canonical(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, Fraction)):
        return _format_number(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {_canonical(v)}" for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canonical(v) for v in obj) + "]"
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def scm_to_json(scm: Scm) -> str:
    """Canonical text form; identical models serialize byte-identically."""
    nodes = []
    for node in sorted(scm.dag.nodes, key=str):
        dom = scm.domains[node]
        cpt = scm.cpts[node]
        for v in dom.values:
            if isinstance(v, str) and ("|" in v or v == ""):
                raise InvalidArgumentError(
                    f"domain value {v!r} of {node!r} cannot appear in a row key"
                )
        table = {
            "|".join(str(v) for v in cfg): [float(p) for p in row]
            for cfg, row in cpt.table.items()
        }
        nodes.append(
            {
                "id": str(node),
                "domain": list(dom.values),
                "parents": [str(p) for p in cpt.parents],
                "table": table,
            }
        )
    return _canonical({"meta": scm.meta, "nodes": nodes}) + "\n"


def scm_from_dict(doc: dict) -> Scm:
    if "nodes" not in doc:
        raise InvalidArgumentError("model document lacks a 'nodes' field")
    domains, cpts, edges, ids = {}, {}, set(), []
    for entry in doc["nodes"]:
        node = entry["id"]
        ids.append(node)
        domains[node] = Domain(node, tuple(entry["domain"]))
    for entry in doc["nodes"]:
        node = entry["id"]
        parents = tuple(entry["parents"])
        for p in parents:
            if p not in domains:
                raise InvalidArgumentError(f"{node!r} lists unknown parent {p!r}")
            edges.add((p, node))
        lookups = [{str(v): v for v in domains[p].values} for p in parents]
        table = {}
        for key, row in entry["table"].items():
            parts = [] if key == "" else key.split("|")
            if len(parts) != len(parents):
                raise InvalidArgumentError(f"{node!r}: row key {key!r} has wrong arity")
            cfg = []
            for part, lookup, parent in zip(parts, lookups, parents):
                if part not in lookup:
                    raise InvalidArgumentError(
                        f"{node!r}: key value {part!r} not in domain of {parent!r}"
                    )
                cfg.append(lookup[part])
            probs = tuple(float(p) for p in row)
            if not all(math.isfinite(p) for p in probs):
                raise InvalidArgumentError(f"{node!r}: row {key!r} has a non-finite probability")
            table[tuple(cfg)] = probs
        cpts[node] = Cpt(node, parents, table)
    if len(set(ids)) != len(ids):
        raise InvalidArgumentError("duplicate node ids in model document")
    return Scm(Dag(ids, edges), domains, cpts, doc.get("meta", {}))


def scm_from_json(text: str) -> Scm:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"model is not valid JSON: {exc}") from None
    return scm_from_dict(doc)


def save_model(scm: Scm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scm_to_json(scm))


def load_model(path) -> Scm:
    with open(path, encoding="utf-8") as fh:
        return scm_from_json(fh.read())
