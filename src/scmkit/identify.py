"""Adjustment-family identification formulas over observational joint tables.

Every operation here rewrites an interventional quantity as a functional of
the observational law: covariate adjustment and its propensity-grouped
variant, the mediator (front-door) identity, the crop-yield two-route
identity, and the two-stage g-formula.

Each formula call asks for all of its factors and supports in one call,
and a single grouped pass over the joint yields every factor for every
stratum, as :func:`scmkit.scm.conditional_laws` gives one.  A factor that
reads only the strata where some given nodes take one value pins them,
and is summed and divided over that slice of the joint alone; each
distinct set of pins takes one pass over its own slice.  The g-formula
pins its treatments this way.  Adjustment reads the unnormalized masses of its one pass,
because its textbook arithmetic divides by them only at the end.  Role
bindings and figure shapes go through one binder and one shape check.
Each formula raises a stratum-named positivity error when a required
conditioning event carries no mass, and each is validated elsewhere
against the mutilated-model oracle.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .errors import InvalidArgumentError, PositivityError, Record
from .graph import Dag
from .scm import (POSITIVITY_CUTOFF, JointTable, _conditional_laws, _divide, _fmt_stratum,
                  _marginals, _sorted)

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
]

_LAMBDA_DECIMALS = 12


class EffectReport(Record):
    """A named interventional estimate: per-treatment response laws plus ATE."""

    __slots__ = ("estimand", "treatment", "treatment_values", "response", "distributions", "ate",
                 "citation")

    def __init__(self, estimand: str, treatment: str, treatment_values: tuple, response: str,
                 distributions: Mapping, ate: float | None, citation: str):
        for t, dist in distributions.items():
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-10:
                raise InvalidArgumentError(
                    f"response law at treatment {t!r} sums to {total!r}"
                )
        Record.__init__(self, estimand, treatment, treatment_values, response, distributions, ate,
                              citation)


class PropensityTable(Record):
    """Per-covariate-configuration treatment assignment vectors."""

    __slots__ = ("x_nodes", "t_node", "t_values", "rows")

    def __init__(self, x_nodes: tuple[str, ...], t_node: str, t_values: tuple,
                 rows: Mapping[tuple, tuple]):
        for cfg, row in rows.items():
            total = sum(row)
            if abs(total - 1.0) > 1e-12:
                raise InvalidArgumentError(
                    f"assignment vector at {cfg!r} sums to {total!r}"
                )
        Record.__init__(self, x_nodes, t_node, t_values, rows)


class FrontdoorReport(Record):
    """Mediator-identity output.

    `effect[(y, w)]` is l_y(w), the identified law of W under setting the
    exposure to y; `intermediate[(z, w)]` is m_z(w), the identified law of W
    under a fixed mediator level z.
    """

    __slots__ = ("effect", "intermediate")

    def __init__(self, effect: Mapping[tuple, float], intermediate: Mapping[tuple, float]):
        Record.__init__(self, effect, intermediate)


def _factors(joint: JointTable, pairs, support=()) -> tuple:
    """Lookups given values -> P(targets | given), one per (targets, given)
    pair, and the sorted support of each node in `support`, all from one
    grouped pass over the joint.

    A single target's law is keyed by plain values.  Looking up a stratum
    without mass raises the stratum-named positivity error.
    """
    def lookup(laws: dict, targets: tuple, given_nodes: tuple):
        if len(targets) == 1:
            laws = {g: {k[0]: p for k, p in law.items()} for g, law in laws.items()}

        def law(*given) -> dict:
            if given not in laws:
                stratum = _fmt_stratum(dict(zip(given_nodes, given)))
                raise PositivityError(f"conditioning stratum {{{stratum}}} has no mass")
            return laws[given]

        return law

    laws, values = _conditional_laws(joint, pairs, support)
    return [lookup(law, *pair[:2]) for law, pair in zip(laws, pairs)], values


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


def _adjust_over_strata(p_z, p_zt, p_ztr, t_val, z_names) -> dict:
    """sum over z of P(z) P(z, t, r) / P(z, t), from masses keyed by z,
    z + (t,) and z + (t, r)."""
    cells_of: dict = {}  # z + (t,) -> [(r, mass), ...] in mass-table order
    for ztr, m in p_ztr.items():
        cells_of.setdefault(ztr[:-1], []).append((ztr[-1], m))
    out: dict = {}
    for z, mass in p_z.items():
        if mass <= POSITIVITY_CUTOFF:
            continue
        zt = z + (t_val,)
        denom = p_zt.get(zt, 0)
        if denom <= POSITIVITY_CUTOFF:
            raise PositivityError(
                f"treatment value {t_val!r} never occurs in stratum "
                f"{{{_fmt_stratum(dict(zip(z_names, z)))}}}"
            )
        for r, m in cells_of.get(zt, ()):
            out[r] = out.get(r, 0) + mass * m / denom
    return out


def _strata(joint: JointTable, z_nodes: tuple, *tail) -> list:
    """Masses keyed by z, z + tail[:1], ..., z + tail, all from one scan."""
    _require_nodes(joint.order, tail + z_nodes)
    return _marginals(joint, *(z_nodes + tail[:k] for k in range(len(tail) + 1)))


def _mean_difference(first: Mapping, second: Mapping) -> float:
    values = set(first) | set(second)
    return float(sum(v * (first.get(v, 0) - second.get(v, 0)) for v in values))


def adjust(joint: JointTable, t_node: str, t_val, r_node: str, z_nodes) -> dict:
    """Covariate-adjusted response law: sum_z P(R | T=t, Z=z) P(Z=z)."""
    z_nodes = tuple(z_nodes)
    return _adjust_over_strata(*_strata(joint, z_nodes, t_node, r_node), t_val, z_nodes)


def ate(joint: JointTable, t_node: str, t_val, t_alt, r_node: str, z_nodes) -> float:
    """Mean difference of the adjusted response laws at t_val versus t_alt."""
    z_nodes = tuple(z_nodes)
    strata = _strata(joint, z_nodes, t_node, r_node)
    return _mean_difference(
        *(_adjust_over_strata(*strata, t, z_nodes) for t in (t_val, t_alt))
    )


def _propensity(t_node: str, z_nodes: tuple, p_z: dict, p_zt: dict) -> PropensityTable:
    """Assignment vectors from masses keyed by z and z + (t,)."""
    t_values = tuple(_sorted({zt[-1] for zt in p_zt}))
    rows = {}
    for z, law in _divide(p_z, p_zt, len(z_nodes)).items():
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
    strata = _strata(joint, z_nodes, t_node, r_node)
    table = _propensity(t_node, z_nodes, *strata[:2])
    group_of = {
        z: tuple(round(v, _LAMBDA_DECIMALS) for v in row)
        for z, row in table.rows.items()
    }
    k = len(z_nodes)
    pooled = []
    # The keys of the three mass tables are z, z + (t,) and z + (t, r); the
    # pooled ones put the whole assignment vector in z's place.
    for masses in strata:
        sums: dict = {}
        for key, mass in masses.items():
            if key[:k] in group_of:
                g = (group_of[key[:k]],) + key[k:]
                sums[g] = sums.get(g, 0) + mass
        pooled.append(sums)
    grouped_names = (f"lambda({', '.join(z_nodes)})",)
    return _adjust_over_strata(*pooled, t_val, grouped_names)


def backdoor_effect(
    joint: JointTable, t_node: str, t_values, r_node: str, z_nodes
) -> EffectReport:
    """Package adjusted response laws (and ATE for a pair) as a report."""
    t_values = tuple(t_values)
    z_nodes = tuple(z_nodes)
    strata = _strata(joint, z_nodes, t_node, r_node)
    distributions = {t: _adjust_over_strata(*strata, t, z_nodes) for t in t_values}
    effect = None
    if len(t_values) == 2:
        try:
            effect = _mean_difference(distributions[t_values[0]], distributions[t_values[1]])
        except TypeError:
            pass
    return EffectReport(
        estimand="covariate adjustment",
        treatment=t_node,
        treatment_values=t_values,
        response=r_node,
        distributions=distributions,
        ate=effect,
        citation=(
            f"sum over z of P({r_node} | {t_node}=t, z) P(z), "
            f"z ranging over {z_nodes}"
        ),
    )


_FRONTDOOR_SHAPE = (("X", "Y"), ("X", "W"), ("Y", "Z"), ("Z", "W"))
# The exposure Y, mediator Z, outcome W and hidden cause X, in the order
# `frontdoor` takes them.
_FRONTDOOR_ROLES = ("Y", "Z", "W", "X")


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
    (p_y, w_law, z_law), (y_values, z_values, w_values) = _factors(
        joint,
        [((y_node,), ()), ((w_node,), (y_node, z_node)), ((z_node,), (y_node,))],
        (y_node, z_node, w_node),
    )
    p_y = p_y()

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
    (p_xu, v_law, w_law, y_law), (x_values, u_values, v_values, w_values, y_values) = _factors(
        joint,
        [
            ((x_n, u_n), ()),
            ((v_n,), (x_n, u_n)),
            ((w_n,), (v_n, x_n, u_n)),
            ((y_n,), (x_n, v_n, w_n)),
        ],
        tuple(bound.values()),
    )
    p_xu = p_xu()

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


def _gformula(joint: JointTable, bound: Mapping, t_val, t2_val, x_pin: Mapping) -> dict:
    """sum over x of p_x(x) * sum over (r, x2) of P(r | x, t) P(x2 | x, t, r)
    P(r2 | x, t, r, x2, t2); p_x is the observed law of X when `x_pin` is
    empty, else the point mass at its value of X.  Each factor pins T to t
    (and T2 to t2, and X to a pinned value), so it sums and divides only
    the slice of the joint it reads: one pass over the T = t slice, one
    over its T2 = t2 part and, when X is not pinned, one over the whole
    joint for the observed law of X."""
    x_n, t_n, r_n, x2_n, t2_n, r2_n = bound.values()
    xt = (x_n, t_n)
    pins = {**x_pin, t_n: t_val}
    pairs = [((r_n,), xt, pins), ((x2_n,), xt + (r_n,), pins),
             ((r2_n,), xt + (r_n, x2_n, t2_n), {**pins, t2_n: t2_val})]
    if not x_pin:
        pairs.append(((x_n,), ()))
    (r_law, x2_law, r2_law, *observed), _ = _factors(joint, pairs)
    p_x = observed[0]() if observed else {x_pin[x_n]: 1}
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
    return _gformula(joint, bound, t_val, t2_val, {})


def gformula2_given_x(
    joint: JointTable,
    roles: Mapping[str, str],
    t_val,
    t2_val,
    x_val,
) -> dict:
    """Covariate-conditional variant of the two-stage g-formula."""
    bound = _bind(roles, _GFORMULA_ROLES, joint.order)
    return _gformula(joint, bound, t_val, t2_val, {bound["X"]: x_val})
