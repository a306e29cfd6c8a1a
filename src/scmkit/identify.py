"""Adjustment-family identification formulas over observational joint tables.

Every operation here rewrites an interventional quantity as a functional of
the observational law: covariate adjustment and its propensity-grouped
variant, the mediator (front-door) identity, the crop-yield two-route
identity, and the two-stage g-formula.

Every factor comes from :func:`scmkit.scm.conditional_laws`, the one
primitive behind these formulas and those in :mod:`scmkit.estimands`: a
single grouped pass over the joint yields a factor for every stratum, and
each factor is built once per call.  Adjustment reads the unnormalized
masses of the same pass, because its textbook arithmetic divides by them
only at the end.  Role bindings and figure shapes go through one binder
and one shape check.  Each formula raises a stratum-named positivity
error when a required conditioning event carries no mass, and each is
validated elsewhere against the mutilated-model oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidArgumentError, PositivityError
from .graph import Dag
from .scm import POSITIVITY_CUTOFF, JointTable, _marginals, conditional_laws

__all__ = [
    "EffectReport",
    "FrontdoorReport",
    "PropensityTable",
    "adjust",
    "ate",
    "backdoor_effect",
    "eelworms_effect",
    "frontdoor",
    "gformula2",
    "gformula2_given_x",
    "propensity_adjust",
    "propensity_table",
]

_LAMBDA_DECIMALS = 12


@dataclass(frozen=True)
class EffectReport:
    """A named interventional estimate: per-treatment response laws plus ATE."""

    estimand: str
    treatment: str
    treatment_values: tuple
    response: str
    distributions: Mapping
    ate: float | None
    citation: str

    def __post_init__(self) -> None:
        for t, dist in self.distributions.items():
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-10:
                raise InvalidArgumentError(
                    f"response law at treatment {t!r} sums to {total!r}"
                )


@dataclass(frozen=True)
class PropensityTable:
    """Per-covariate-configuration treatment assignment vectors."""

    x_nodes: tuple[str, ...]
    t_node: str
    t_values: tuple
    rows: Mapping[tuple, tuple]

    def __post_init__(self) -> None:
        for cfg, row in self.rows.items():
            total = sum(row)
            if abs(total - 1.0) > 1e-12:
                raise InvalidArgumentError(
                    f"assignment vector at {cfg!r} sums to {total!r}"
                )


@dataclass(frozen=True)
class FrontdoorReport:
    """Mediator-identity output.

    `effect[(y, w)]` is l_y(w), the identified law of W under setting the
    exposure to y; `intermediate[(z, w)]` is m_z(w), the identified law of W
    under a fixed mediator level z.
    """

    effect: Mapping[tuple, float]
    intermediate: Mapping[tuple, float]


def _fmt_stratum(given: Mapping) -> str:
    return ", ".join(f"{k}={given[k]!r}" for k in sorted(given))


def _laws(joint: JointTable, targets: tuple, given_nodes: tuple):
    """Lookup given values -> P(targets | given), from one grouped pass.

    A single target's law is keyed by plain values.  Looking up a stratum
    without mass raises the stratum-named positivity error.
    """
    laws = conditional_laws(joint, targets, given_nodes)
    if len(targets) == 1:
        laws = {g: {k[0]: p for k, p in law.items()} for g, law in laws.items()}

    def law(*given) -> dict:
        if given not in laws:
            stratum = _fmt_stratum(dict(zip(given_nodes, given)))
            raise PositivityError(f"conditioning stratum {{{stratum}}} has no mass")
        return laws[given]

    return law


def support_values(joint: JointTable, node: str) -> list:
    """Values of `node` carrying positive mass, in a stable order."""
    i = joint.index(node)
    seen = {cfg[i] for cfg in joint.probs}
    try:
        return sorted(seen)
    except TypeError:
        return sorted(seen, key=str)


def _require_nodes(known, nodes, where: str = "joint table") -> None:
    missing = [n for n in nodes if n not in known]
    if missing:
        raise InvalidArgumentError(f"{where} lacks nodes {missing}")
    if len(set(nodes)) != len(nodes):
        raise InvalidArgumentError("role bindings must be distinct nodes")


def _bind(roles: Mapping, names: tuple, known, where: str = "joint table") -> dict:
    """The binding {role: node} of the role `names`, in that order.

    Every role must be bound, to a node in `known`, and no node twice.
    """
    for role in names:
        if role not in roles:
            raise InvalidArgumentError(f"missing role binding {role!r}")
    bound = {r: roles[r] for r in names}
    _require_nodes(known, tuple(bound.values()), where)
    return bound


def _require_shape(
    dag: Dag | None, bound: Mapping, allowed, label: str, latent=()
) -> None:
    """Exact shape check of the per-figure formulas.

    `allowed` lists edge sets written over role names, which `bound` maps
    to nodes.  The graph, when given, must hold the bound nodes plus one
    node per name in `latent`, and some assignment of those nodes to the
    latent names must turn an allowed set into the graph's edge set.
    """
    if dag is None:
        return
    extra = sorted(set(dag.nodes) - set(bound.values()), key=str)
    if latent and len(extra) != len(latent):
        raise InvalidArgumentError(f"expected exactly {len(latent)} latent node(s)")
    edges = set(dag.edges)
    if len(extra) == len(latent):
        for hidden in itertools.permutations(extra):
            node = {**bound, **dict(zip(latent, hidden))}
            if any(edges == {(node[a], node[b]) for a, b in shape} for shape in allowed):
                return
    raise InvalidArgumentError(f"graph does not have the {label} shape")


def _adjust_over_strata(p_z, p_tz, p_rtz, t_val, z_names) -> dict:
    """sum over z of P(z) P(r, t, z) / P(t, z), from masses keyed by z,
    (t,) + z and (r, t) + z."""
    out: dict = {}
    for z, mass in p_z.items():
        if mass <= POSITIVITY_CUTOFF:
            continue
        tz = (t_val,) + z
        denom = p_tz.get(tz, 0)
        if denom <= POSITIVITY_CUTOFF:
            raise PositivityError(
                f"treatment value {t_val!r} never occurs in stratum "
                f"{{{_fmt_stratum(dict(zip(z_names, z)))}}}"
            )
        for rtz, m in p_rtz.items():
            if rtz[1:] == tz:
                out[rtz[0]] = out.get(rtz[0], 0) + mass * m / denom
    return out


def adjust(joint: JointTable, t_node: str, t_val, r_node: str, z_nodes) -> dict:
    """Covariate-adjusted response law: sum_z P(R | T=t, Z=z) P(Z=z)."""
    z_nodes = tuple(z_nodes)
    _require_nodes(joint.order, (t_node, r_node) + z_nodes)
    strata = _marginals(joint, z_nodes, (t_node,) + z_nodes, (r_node, t_node) + z_nodes)
    return _adjust_over_strata(*strata, t_val, z_nodes)


def ate(joint: JointTable, t_node: str, t_val, t_alt, r_node: str, z_nodes) -> float:
    """Mean difference of the adjusted response laws at t_val versus t_alt."""
    first = adjust(joint, t_node, t_val, r_node, z_nodes)
    second = adjust(joint, t_node, t_alt, r_node, z_nodes)
    values = set(first) | set(second)
    return float(
        sum(v * (first.get(v, 0) - second.get(v, 0)) for v in values)
    )


def propensity_table(joint: JointTable, t_node: str, z_nodes) -> PropensityTable:
    """Treatment assignment vector per covariate configuration."""
    z_nodes = tuple(z_nodes)
    _require_nodes(joint.order, (t_node,) + z_nodes)
    t_values = tuple(support_values(joint, t_node))
    rows = {}
    for z, law in conditional_laws(joint, (t_node,), z_nodes).items():
        # An absent value gets a zero of the law's number type, as a division would.
        zero = 0 * next(iter(law.values()))
        rows[z] = tuple(law.get((t,), zero) for t in t_values)
    return PropensityTable(z_nodes, t_node, t_values, rows)


def propensity_adjust(
    joint: JointTable, t_node: str, t_val, r_node: str, z_nodes
) -> dict:
    """Adjustment over assignment-vector strata instead of raw covariates.

    Covariate configurations whose assignment vectors agree to 12 decimals
    are pooled into one stratum before adjusting.
    """
    z_nodes = tuple(z_nodes)
    _require_nodes(joint.order, (t_node, r_node) + z_nodes)
    table = propensity_table(joint, t_node, z_nodes)
    group_of = {
        z: tuple(round(v, _LAMBDA_DECIMALS) for v in row)
        for z, row in table.rows.items()
    }
    strata = _marginals(joint, z_nodes, (t_node,) + z_nodes, (r_node, t_node) + z_nodes)
    pooled = []
    # The keys of the three mass tables are z, (t,) + z and (r, t) + z.
    for cut, masses in enumerate(strata):
        sums: dict = {}
        for key, mass in masses.items():
            if key[cut:] in group_of:
                g = key[:cut] + group_of[key[cut:]]
                sums[g] = sums.get(g, 0) + mass
        pooled.append(sums)
    grouped_names = (f"lambda({', '.join(z_nodes)})",)
    return _adjust_over_strata(*pooled, t_val, grouped_names)


def backdoor_effect(
    joint: JointTable,
    t_node: str,
    t_values,
    r_node: str,
    z_nodes,
    method: str = "adjust",
) -> EffectReport:
    """Package adjusted response laws (and ATE for a pair) as a report."""
    t_values = tuple(t_values)
    if method == "adjust":
        law = adjust
        name = "covariate adjustment"
    elif method == "propensity":
        law = propensity_adjust
        name = "propensity-grouped adjustment"
    else:
        raise InvalidArgumentError(f"unknown adjustment method {method!r}")
    distributions = {t: law(joint, t_node, t, r_node, z_nodes) for t in t_values}
    effect = None
    if len(t_values) == 2:
        try:
            effect = ate(joint, t_node, t_values[0], t_values[1], r_node, z_nodes)
        except TypeError:
            effect = None
    return EffectReport(
        estimand=name,
        treatment=t_node,
        treatment_values=t_values,
        response=r_node,
        distributions=distributions,
        ate=effect,
        citation=(
            f"sum over z of P({r_node} | {t_node}=t, z) P(z), "
            f"z ranging over {tuple(z_nodes)}"
        ),
    )


_FRONTDOOR_SHAPE = (("X", "Y"), ("X", "W"), ("Y", "Z"), ("Z", "W"))


def frontdoor(
    joint: JointTable,
    y_node: str,
    z_node: str,
    w_node: str,
    dag: Dag | None = None,
    x_node: str = "X",
) -> FrontdoorReport:
    """Mediator identity for the exposure -> deposit -> outcome chain.

    Returns l_y(w) = sum over (y', z) of P(W=w | Y=y', Z=z) P(Y=y')
    P(Z=z | Y=y), together with the intermediate m_z(w) = sum over y' of
    P(W=w | Y=y', Z=z) P(Y=y').  The confounder never appears on the
    right-hand side.
    """
    _require_nodes(joint.order, (y_node, z_node, w_node))
    _require_shape(
        dag,
        {"X": x_node, "Y": y_node, "Z": z_node, "W": w_node},
        [_FRONTDOOR_SHAPE],
        "exposure/mediator/outcome",
    )
    y_values = support_values(joint, y_node)
    z_values = support_values(joint, z_node)
    w_values = support_values(joint, w_node)
    p_y = _laws(joint, (y_node,), ())()
    w_law = _laws(joint, (w_node,), (y_node, z_node))
    z_law = _laws(joint, (z_node,), (y_node,))

    intermediate: dict = {}
    for z in z_values:
        for w in w_values:
            intermediate[z, w] = 0
        for y_prime in y_values:
            law = w_law(y_prime, z)
            for w in w_values:
                intermediate[z, w] += law.get(w, 0) * p_y[y_prime]

    effect: dict = {}
    for y in y_values:
        weights = z_law(y)
        for w in w_values:
            effect[y, w] = 0
        for z in z_values:
            weight = weights.get(z, 0)
            if weight <= POSITIVITY_CUTOFF:
                continue
            for y_prime in y_values:
                law = w_law(y_prime, z)
                for w in w_values:
                    effect[y, w] += law.get(w, 0) * p_y[y_prime] * weight
    return FrontdoorReport(effect=effect, intermediate=intermediate)


_EELWORMS_ROLES = ("X", "U", "V", "W", "Y")
# A and B are the two latent nodes, weather and bird pressure.
_EELWORMS_SHAPE = (
    ("A", "B"),
    ("A", "U"),
    ("A", "X"),
    ("U", "V"),
    ("X", "V"),
    ("B", "W"),
    ("V", "W"),
    ("X", "Y"),
    ("V", "Y"),
    ("W", "Y"),
)


def eelworms_effect(
    joint: JointTable, roles: Mapping[str, str], dag: Dag | None = None
) -> dict:
    """Two-route identity for the crop-yield system.

    `roles` binds X (treatment), U (pre-treatment count), V (post-treatment
    count), W (late-season count), Y (yield).  Returns the mapping
    (x, y) -> mu_x(y) built from observables only:

        mu_x(y) = sum over (v, w) of P(Y=y | X=x, V=v, W=w)
                  * sum over u of P(V=v | X=x, U=u)
                  * sum over x' of P(W=w | V=v, X=x', U=u) P(X=x', U=u)
    """
    bound = _bind(roles, _EELWORMS_ROLES, joint.order)
    _require_shape(dag, bound, [_EELWORMS_SHAPE], "crop-yield", latent=("A", "B"))
    x_n, u_n, v_n, w_n, y_n = bound.values()
    x_values = support_values(joint, x_n)
    u_values = support_values(joint, u_n)
    v_values = support_values(joint, v_n)
    w_values = support_values(joint, w_n)
    y_values = support_values(joint, y_n)
    p_xu = _laws(joint, (x_n, u_n), ())()
    v_law = _laws(joint, (v_n,), (x_n, u_n))
    w_law = _laws(joint, (w_n,), (v_n, x_n, u_n))
    y_law = _laws(joint, (y_n,), (x_n, v_n, w_n))

    out: dict = {}
    for x in x_values:
        for y in y_values:
            out[x, y] = 0
        for v in v_values:
            # weight[w] = sum over u of P(v | x, u) * sum over x' of
            #             P(w | v, x', u) P(x', u)
            weight = {w: 0 for w in w_values}
            for u in u_values:
                pv = v_law(x, u).get(v, 0)
                if pv <= POSITIVITY_CUTOFF:
                    continue
                for x_prime in x_values:
                    mass = p_xu.get((x_prime, u), 0)
                    if mass <= POSITIVITY_CUTOFF:
                        continue
                    law = w_law(v, x_prime, u)
                    for w in w_values:
                        weight[w] += pv * law.get(w, 0) * mass
            for w in w_values:
                if weight[w] <= POSITIVITY_CUTOFF:
                    continue
                law = y_law(x, v, w)
                for y in y_values:
                    out[x, y] += law.get(y, 0) * weight[w]
    return out


_GFORMULA_ROLES = ("X", "T", "R", "X2", "T2", "R2")
_GFORMULA_SHAPE = (
    ("X", "T"),
    ("X", "R"),
    ("T", "R"),
    ("X", "X2"),
    ("T", "X2"),
    ("R", "X2"),
    ("X2", "T2"),
    ("T", "T2"),
    ("R", "T2"),
    ("X2", "R2"),
    ("T2", "R2"),
    ("T", "R2"),
)


def _gformula(joint: JointTable, bound: Mapping, t_val, t2_val, p_x: Mapping) -> dict:
    """sum over x of p_x(x) * sum over (r, x2) of P(r | x, t) P(x2 | x, t, r)
    P(r2 | x, t, r, x2, t2)."""
    x_n, t_n, r_n, x2_n, t2_n, r2_n = bound.values()
    r_law = _laws(joint, (r_n,), (x_n, t_n))
    x2_law = _laws(joint, (x2_n,), (x_n, t_n, r_n))
    r2_law = _laws(joint, (r2_n,), (x_n, t_n, r_n, x2_n, t2_n))
    out: dict = {}
    for x, px in p_x.items():
        if px <= POSITIVITY_CUTOFF:
            continue
        part: dict = {}
        for r, pr in r_law(x, t_val).items():
            if pr <= POSITIVITY_CUTOFF:
                continue
            for x2, px2 in x2_law(x, t_val, r).items():
                if px2 <= POSITIVITY_CUTOFF:
                    continue
                for r2, p in r2_law(x, t_val, r, x2, t2_val).items():
                    part[r2] = part.get(r2, 0) + pr * px2 * p
        for r2, p in part.items():
            out[r2] = out.get(r2, 0) + px * p
    return out


def gformula2(
    joint: JointTable,
    roles: Mapping[str, str],
    t_val,
    t2_val,
    dag: Dag | None = None,
) -> dict:
    """Two-stage g-formula: law of the second response under (t, t')."""
    bound = _bind(roles, _GFORMULA_ROLES, joint.order)
    _require_shape(dag, bound, [_GFORMULA_SHAPE], "two-stage treatment")
    return _gformula(joint, bound, t_val, t2_val, _laws(joint, (bound["X"],), ())())


def gformula2_given_x(
    joint: JointTable,
    roles: Mapping[str, str],
    t_val,
    t2_val,
    x_val,
) -> dict:
    """Covariate-conditional variant of the two-stage g-formula."""
    bound = _bind(roles, _GFORMULA_ROLES, joint.order)
    return _gformula(joint, bound, t_val, t2_val, {x_val: 1})
