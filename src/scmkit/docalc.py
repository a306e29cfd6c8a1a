"""Numerical verification of the first two intervention-calculus rules.

Nodes are partitioned into four disjoint sets W, X, Y, Z.  Two mutilated
models are built by exact surgery: the single-prime model removes the
X-mechanisms and substitutes constants for X everywhere, re-attaching the
parentless part of X as isolated nodes; the double-prime model does the
same for X and Z together and then re-adds every Z-mechanism as a sink
copy whose X-parents are fixed and whose other parents bind to the
double-prime nodes.

Rule 1 asserts P(y | z, w) = P(y | w) in the single-prime model and holds
when Y and Z are conditionally independent given W there (condition C1).
Rule 2 asserts that conditioning on Z = z in the single-prime model equals
forcing Z := z in the double-prime model, and holds when Y is independent
of the re-added Z copies given W (condition C2).  Both conditions and both
identities are evaluated by exact enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidArgumentError, PositivityError
from .graph import Dag
from .identify import _fmt_stratum
from .scm import Cpt, Scm, cond_independent, conditional_laws, joint_distribution

__all__ = [
    "NodePartition",
    "RuleVerdict",
    "build_m_doubleprime",
    "build_m_prime",
    "check_c1",
    "check_c2",
    "verify_rule",
]


@dataclass(frozen=True)
class NodePartition:
    """Disjoint node sets W, X, Y, Z covering a subset of a model's nodes.

    Nodes outside the four sets are carried along by the surgeries and
    marginalized out of every check.
    """

    w: frozenset
    x: frozenset
    y: frozenset
    z: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", frozenset(self.w))
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "z", frozenset(self.z))
        sets = (self.w, self.x, self.y, self.z)
        if sum(len(s) for s in sets) != len(frozenset().union(*sets)):
            raise InvalidArgumentError("W, X, Y, Z must be pairwise disjoint")

    def split(self, dag: Dag, which: str) -> tuple:
        """(parentless, parented) members of one of the four sets."""
        members = getattr(self, which)
        exo = tuple(sorted(n for n in members if not dag.parents(n)))
        endo = tuple(sorted(n for n in members if dag.parents(n)))
        return exo, endo


@dataclass(frozen=True)
class RuleVerdict:
    """Outcome of checking one rule on one model and partition.

    `passed` may hold only when the rule's condition holds and the
    identity's worst deviation is within tolerance.
    """

    rule: int
    condition: str
    condition_holds: bool
    condition_deviation: float
    identity_deviation: float
    tol: float
    passed: bool

    def __post_init__(self) -> None:
        if self.passed and not (
            self.condition_holds and self.identity_deviation <= self.tol
        ):
            raise InvalidArgumentError(
                "a passing verdict requires the condition and the identity"
            )


def _check_partition(scm: Scm, partition: NodePartition) -> None:
    covered = partition.w | partition.x | partition.y | partition.z
    missing = sorted(covered - set(scm.dag.nodes), key=str)
    if missing:
        raise InvalidArgumentError(f"partition names unknown nodes {missing}")


def _check_values(scm: Scm, nodes: frozenset, values: Mapping, label: str) -> None:
    if set(values) != set(nodes):
        raise InvalidArgumentError(
            f"{label} must assign exactly the {label.upper()}-nodes, got {sorted(values, key=str)}"
        )
    for node, value in values.items():
        if value not in scm.domains[node].values:
            raise InvalidArgumentError(
                f"{value!r} not in domain of {node!r}"
            )


def _fix_parents(cpt: Cpt, fixed: Mapping) -> Cpt:
    """Drop the given parents, keeping the rows at their forced values."""
    keep = [i for i, p in enumerate(cpt.parents) if p not in fixed]
    sel = [(i, fixed[p]) for i, p in enumerate(cpt.parents) if p in fixed]
    table = {}
    for cfg, row in cpt.table.items():
        if all(cfg[i] == v for i, v in sel):
            table[tuple(cfg[i] for i in keep)] = row
    return Cpt(cpt.node, tuple(cpt.parents[i] for i in keep), table)


def _surgery(scm: Scm, removed: set, constants: Mapping) -> tuple:
    """Nodes, domains, tables, and edges after deleting `removed` and
    substituting `constants`, with parentless removed nodes kept as
    isolates carrying their original marginals."""
    nodes = []
    cpts = {}
    edges = []
    for node in sorted(scm.dag.nodes, key=str):
        if node in removed:
            if not scm.dag.parents(node):
                nodes.append(node)
                cpts[node] = scm.cpts[node]
            continue
        old = scm.cpts[node]
        fixed = {p: constants[p] for p in old.parents if p in removed}
        new = _fix_parents(old, fixed)
        nodes.append(node)
        cpts[node] = new
        edges.extend((p, node) for p in new.parents)
    domains = {n: scm.domains[n] for n in nodes}
    return nodes, domains, cpts, edges


def build_m_prime(scm: Scm, partition: NodePartition, x: Mapping) -> Scm:
    """The model with the X-mechanisms removed and X fixed at `x`.

    Parentless X-nodes stay as isolated nodes with their original
    marginals; parented X-nodes disappear.  With X empty the model is
    returned unchanged.
    """
    _check_partition(scm, partition)
    _check_values(scm, partition.x, x, "x")
    if not partition.x:
        return scm
    nodes, domains, cpts, edges = _surgery(scm, set(partition.x), dict(x))
    return Scm(Dag(nodes, edges), domains, cpts)


def build_m_doubleprime(
    scm: Scm, partition: NodePartition, x: Mapping, z: Mapping
) -> Scm:
    """The model with X and Z removed and fixed, plus re-added Z copies.

    The copies reuse the original Z names (free once the base surgery
    deletes them): a parentless Z-node returns as an isolate with its
    original marginal, and a parented one keeps its original rows with
    X-parents fixed at `x` and all other parents bound to the nodes of
    this model.  The copies are sinks, so the W- and Y-laws are those of
    forcing X := x and Z := z.
    """
    _check_partition(scm, partition)
    _check_values(scm, partition.x, x, "x")
    _check_values(scm, partition.z, z, "z")
    removed = set(partition.x) | set(partition.z)
    constants = {**x, **z}
    nodes, domains, cpts, edges = _surgery(scm, removed, constants)
    for node in sorted(partition.z, key=str):
        old = scm.cpts[node]
        if not old.parents:
            continue  # already present as an isolate from the surgery
        fixed = {p: constants[p] for p in old.parents if p in partition.x}
        copy = _fix_parents(old, fixed)
        nodes.append(node)
        domains[node] = scm.domains[node]
        cpts[node] = copy
        edges.extend((p, node) for p in copy.parents)
    return Scm(Dag(nodes, edges), domains, cpts)


def check_c1(
    scm: Scm, partition: NodePartition, x: Mapping, tol: float = 1e-12
) -> tuple:
    """Whether Y and Z are independent given W in the single-prime model.

    Conditioning on the re-attached parentless X-part is vacuous (the
    isolates are independent of everything), so it is omitted.  Returns
    (verdict, worst deviation).
    """
    m = build_m_prime(scm, partition, x)
    joint = joint_distribution(m)
    return cond_independent(joint, partition.y, partition.z, partition.w, tol)


def check_c2(
    scm: Scm,
    partition: NodePartition,
    x: Mapping,
    z: Mapping,
    tol: float = 1e-12,
) -> tuple:
    """Whether Y is independent of the re-added Z copies given W in the
    double-prime model.  Returns (verdict, worst deviation)."""
    m = build_m_doubleprime(scm, partition, x, z)
    joint = joint_distribution(m)
    return cond_independent(joint, partition.y, partition.z, partition.w, tol)


def _worst_gap(a: Mapping, b: Mapping) -> float:
    keys = set(a) | set(b)
    return max(abs(float(a.get(k, 0)) - float(b.get(k, 0))) for k in keys)


def verify_rule(
    scm: Scm,
    partition: NodePartition,
    rule: int,
    x: Mapping,
    z: Mapping | None = None,
    tol: float = 1e-12,
) -> RuleVerdict:
    """Check one rule's condition and identity by exact enumeration.

    Rule 1 compares P(y | z, w) with P(y | w) in the single-prime model
    over every positive (w, z) stratum.  Rule 2 compares P(y | w) in the
    double-prime model with P(y | z, w) in the single-prime model over
    every w in the double-prime range, at the forced z.  Strata with zero
    probability are skipped; if none remain the conditioning is
    impossible and a stratum-named error is raised.
    """
    if rule not in (1, 2):
        raise InvalidArgumentError(f"rule must be 1 or 2, got {rule!r}")
    w_nodes = tuple(sorted(partition.w, key=str))
    y_nodes = tuple(sorted(partition.y, key=str))
    z_nodes = tuple(sorted(partition.z, key=str))

    if rule == 1:
        prime = joint_distribution(build_m_prime(scm, partition, x))
        # check_c1's test, on the joint already built instead of a second one.
        holds, cond_dev = cond_independent(prime, partition.y, partition.z, partition.w, tol)
        marginal = conditional_laws(prime, y_nodes, w_nodes)
        gaps = [
            _worst_gap(law, marginal[cfg[: len(w_nodes)]])
            for cfg, law in conditional_laws(prime, y_nodes, w_nodes + z_nodes).items()
        ]
        if not gaps:
            raise PositivityError("no (w, z) stratum has positive probability")
    else:
        z = dict(z or {})
        double = joint_distribution(build_m_doubleprime(scm, partition, x, z))
        # check_c2's test, on the joint already built instead of a second one.
        holds, cond_dev = cond_independent(double, partition.y, partition.z, partition.w, tol)
        prime = joint_distribution(build_m_prime(scm, partition, x))
        z_cfg = tuple(z[n] for n in z_nodes)
        given = conditional_laws(prime, y_nodes, w_nodes + z_nodes)
        gaps = [
            _worst_gap(law, given[cfg + z_cfg])
            for cfg, law in conditional_laws(double, y_nodes, w_nodes).items()
            if cfg + z_cfg in given
        ]
        if not gaps:
            stratum = _fmt_stratum(dict(zip(z_nodes, z_cfg)))
            raise PositivityError(
                f"conditioning stratum {{{stratum}}} has no mass jointly with any reachable w"
            )
    worst = max([0.0] + gaps)
    return RuleVerdict(
        rule=rule,
        condition=f"C{rule}",
        condition_holds=holds,
        condition_deviation=cond_dev,
        identity_deviation=worst,
        tol=tol,
        passed=holds and worst <= tol,
    )
