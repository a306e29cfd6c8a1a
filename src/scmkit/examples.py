"""Catalog of ready-made example models.

Each entry builds a small, fully specified model: the two aggregation
paradoxes, the admissibility benchmark graphs, and one structure per
named estimand elsewhere in the package.  Deterministic builders take
their mechanisms from parameters; the graph-only entries fill their
tables with seeded uniform weights so every run of a given seed yields
the same strictly positive model.

Continuous entries return a :class:`~scmkit.gaussian.LinearGaussianScm`;
pass ``discrete=True`` to get the binned companion produced by
:func:`discretize_lg` instead.
"""

from __future__ import annotations

import itertools
import math
from numbers import Integral, Real
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import ConstraintError, InvalidArgumentError, Record, ResourceLimitError
from .estimands import _HIRING_SHAPE, _TWO_STAGE_SHAPE
from .exogenous import DigitStream, uniform_list
from .graph import Dag, topological_order
from .identify import _EELWORMS_SHAPE, _FRONTDOOR_SHAPE, _GFORMULA_SHAPE
from .scm import MAX_JOINT_CONFIGS, Cpt, Domain, Scm, _finite as _all_finite

if TYPE_CHECKING:
    from .gaussian import LinearGaussianScm

__all__ = [
    "ExampleSpec",
    "build_example",
    "discretize_lg",
    "list_examples",
]

FIG1_EDGES = (
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
)

FIG1A_EDGES = FIG1_EDGES + (
    ("T", "X7"),
    ("X8", "X7"),
    ("X1", "X8"),
    ("X4", "X8"),
    ("T", "X8"),
    ("X3", "X9"),
    ("T", "X9"),
    ("X9", "R"),
)

IV_EDGES = (("I", "T"), ("U", "T"), ("U", "R"), ("T", "R"))


# Parameter kinds: each checks one value and names the parameter when it
# refuses it.  A number is any real (int, float, Fraction), never a bool.
def _number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidArgumentError(f"{name} must be a number, got {value!r}")


def _finite(name: str, value) -> None:
    _number(name, value)
    if not _all_finite((value,)):
        raise InvalidArgumentError(f"{name} is non-finite: {value!r}")


def _positive(name: str, value) -> None:
    _number(name, value)
    if not value > 0:
        raise InvalidArgumentError(f"{name} must be positive, got {value!r}")
    _finite(name, value)


def _unit_open(name: str, value) -> None:
    _number(name, value)
    if not 0 < value < 1:
        raise InvalidArgumentError(f"{name} must lie in (0, 1), got {value!r}")


def _probability(name: str, value) -> None:
    _number(name, value)
    if not 0 <= value <= 1:
        raise InvalidArgumentError(f"{name} must lie in [0, 1], got {value!r}")


def _boolean(name: str, value) -> None:
    if not isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be true or false, got {value!r}")


def _count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 2:
        raise InvalidArgumentError(f"{name} must be an integer >= 2, got {value!r}")


def _one_of(*choices) -> Callable:
    def check(name: str, value) -> None:
        if isinstance(value, bool) or value not in choices:
            raise InvalidArgumentError(f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")

    return check


def _table_2x2(name: str, value) -> None:
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(row, (list, tuple)) and len(row) == 2 for row in value)
    ):
        raise InvalidArgumentError(f"{name} must be a 2x2 table indexed [t][x]")
    for t in (0, 1):
        for x in (0, 1):
            _probability(f"{name}({t},{x})", value[t][x])


def _keyed(keys: set, described: str) -> Callable:
    """A map with exactly `keys`, each to a number in (0, 1)."""
    def check(name: str, value) -> None:
        if not isinstance(value, Mapping) or set(value) != keys:
            raise InvalidArgumentError(f"{name} must map {described}")
        for key, weight in value.items():
            _unit_open(f"{name}{key}" if isinstance(key, tuple) else f"{name}[{key}]", weight)

    return check


def _node_sizes(name: str, value) -> None:
    if not isinstance(value, Mapping):
        raise InvalidArgumentError(f"{name} must map node names to domain sizes, got {value!r}")
    for node, size in value.items():
        _count(f"domain size for {node!r}", size)


def _table_cells(dag: Dag, sizes: Mapping) -> int:
    """Cells in all of `dag`'s tables at these domain sizes, refused past
    `MAX_JOINT_CONFIGS` before any table is built."""
    cells = sum(math.prod(sizes[m] for m in (n, *dag.parents(n))) for n in dag.nodes)
    if cells > MAX_JOINT_CONFIGS:
        raise ResourceLimitError(f"model tables would exceed {MAX_JOINT_CONFIGS} cells")
    return cells


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def discretize_lg(model: LinearGaussianScm, bins: int = 16, span: float = 4.0) -> Scm:
    """Binned companion of a linear-Gaussian model.

    Every node receives `bins` equal-width cells covering `span` marginal
    standard deviations either side of its marginal mean, with cell
    midpoints as the domain values.  Conditional rows are normal CDF
    increments with the tail mass folded into the outermost cells;
    zero-noise mechanisms put all mass on the cell holding the structural
    value.  The approximation error of the defaults is small but real:
    node marginals sit within total variation 0.02 of the exact binned
    normal laws for the catalog's continuous entries.  Grids over
    `MAX_JOINT_CONFIGS` table cells are refused before any table is built.
    """
    _count("bins", bins)
    _positive("span", span)
    _table_cells(model.dag, dict.fromkeys(model.dag.nodes, bins))
    from .gaussian import lg_moments

    law = lg_moments(model)
    edges = {}
    domains = {}
    for node in model.dag.nodes:
        mean = law.mean_of(node)
        sd = math.sqrt(law.var_of(node))
        if sd == 0:
            edges[node] = None
            domains[node] = Domain(node, (mean,))
            continue
        cuts = [mean + sd * span * (2 * j / bins - 1) for j in range(bins + 1)]
        edges[node] = cuts
        mids = tuple((cuts[j] + cuts[j + 1]) / 2 for j in range(bins))
        domains[node] = Domain(node, mids)
    cpts = {}
    for node in topological_order(model.dag):
        parents = tuple(model.dag.parents(node))
        noise_sd = math.sqrt(model.noise_vars[node])
        values = domains[node].values
        table = {}
        for cfg in itertools.product(*[domains[p].values for p in parents]):
            center = model.intercepts[node] + sum(
                model.coefficients[node][p] * v for p, v in zip(parents, cfg)
            )
            if edges[node] is None or noise_sd == 0:
                hit = min(range(len(values)), key=lambda j: abs(values[j] - center))
                table[cfg] = tuple(
                    1.0 if j == hit else 0.0 for j in range(len(values))
                )
                continue
            cuts = edges[node]
            row = [
                _norm_cdf((cuts[j + 1] - center) / noise_sd)
                - _norm_cdf((cuts[j] - center) / noise_sd)
                for j in range(bins - 1)
            ]
            row[0] += _norm_cdf((cuts[0] - center) / noise_sd)
            row.append(max(0.0, 1.0 - sum(row)))
            table[cfg] = tuple(row)
        cpts[node] = Cpt(node, parents, table)
    return Scm(model.dag, domains, cpts)


def _xtr(x_row: tuple, t_rows: dict, r_rows: dict) -> Scm:
    """Binary X, T, R with X -> T, X -> R, T -> R, over these tables."""
    dag = Dag(("X", "T", "R"), (("X", "T"), ("X", "R"), ("T", "R")))
    domains = {n: Domain(n, (0, 1)) for n in ("X", "T", "R")}
    cpts = {"X": Cpt("X", (), {(): x_row}), "T": Cpt("T", ("X",), t_rows), "R": Cpt("R", ("T", "X"), r_rows)}
    return Scm(dag, domains, cpts)


def _simpson_binary(seed: int, given, p, x0_weight, beta0, beta1, beta, paradox) -> Scm:
    if (beta0 is None) != (beta1 is None):
        raise InvalidArgumentError("beta0 and beta1 must be given together")
    if beta0 is not None:
        if paradox:
            raise ConstraintError(
                "paradox constraints are only defined for the symmetric "
                "uptake q(0)=beta, q(1)=1-beta; pass paradox=False with "
                "beta0/beta1"
            )
        if "beta" in given:
            raise InvalidArgumentError("give either beta or beta0/beta1, not both")
        if not beta0 > beta1:
            raise ConstraintError(
                f"asymmetric uptake needs beta0 > beta1, got {beta0!r} <= {beta1!r}"
            )
        q0, q1 = beta0, beta1
    else:
        q0, q1 = beta, 1 - beta
        if paradox:
            chain = (p[1][1], p[0][1], p[1][0], p[0][0])
            if not all(a > b for a, b in zip(chain, chain[1:])):
                raise ConstraintError(
                    "recovery ordering broken: the paradox needs "
                    "p(1,1) > p(0,1) > p(1,0) > p(0,0)"
                )
            theta = (p[1][1] - p[0][0]) / (p[0][1] - p[1][0])
            if not beta / (1 - beta) >= theta:
                raise ConstraintError(
                    f"uptake odds beta/(1-beta) = {beta / (1 - beta)} fall "
                    f"below theta = {theta}; no reversal is possible"
                )
    return _xtr(
        (x0_weight, 1 - x0_weight),
        {(0,): (1 - q0, q0), (1,): (1 - q1, q1)},
        {(t, x): (1 - p[t][x], p[t][x]) for t in (0, 1) for x in (0, 1)},
    )


def _simpson_continuous(seed: int, given, alpha, beta, gamma, mu, sigma1, sigma2, sigma3,
                        discrete, bins, span):
    from .gaussian import simpson_cont_model

    model = simpson_cont_model(alpha, beta, gamma, mu, sigma1, sigma2, sigma3)
    return discretize_lg(model, bins, span) if discrete else model


def _lord(seed: int, given, group, mu1, mu2, sigma, p, rho, discrete, bins, span):
    from .gaussian import lord_component

    model = lord_component(mu1 if group == 1 else mu2, sigma, rho)
    return discretize_lg(model, bins, span) if discrete else model


def _seeded(edges) -> Callable:
    """Builder of strictly positive seeded random tables over `edges`."""
    nodes = {n for edge in edges for n in edge}

    def build(seed: int, given, floor, sizes) -> Scm:
        if floor < 0:
            raise InvalidArgumentError(f"floor must be nonnegative, got {floor!r}")
        dag = Dag(nodes, edges)
        unknown = set(sizes or ()) - nodes
        if unknown:
            raise InvalidArgumentError(f"sizes name unknown nodes {sorted(unknown)}")
        sizes = {n: (sizes or {}).get(n, 2) for n in dag.nodes}
        # One draw per table cell, read in topological order.
        draws = iter(uniform_list(DigitStream(seed), 1, 0, _table_cells(dag, sizes)))
        domains = {n: Domain(n, tuple(range(size))) for n, size in sizes.items()}
        cpts = {}
        for node in topological_order(dag):
            parents = tuple(dag.parents(node))
            table = {}
            for cfg in itertools.product(*[domains[p].values for p in parents]):
                weights = [floor + next(draws) for _ in range(sizes[node])]
                total = sum(weights)
                table[cfg] = tuple(w / total for w in weights)
            cpts[node] = Cpt(node, parents, table)
        return Scm(dag, domains, cpts)

    return build


def _case_control_pop(seed: int, given, recovery, uptake, x1_weight) -> Scm:
    return _xtr(
        (1 - x1_weight, x1_weight),
        {(x,): (1 - uptake[x], uptake[x]) for x in (0, 1)},
        {key: (1 - value, value) for key, value in recovery.items()},
    )


# One row per parameter, (name, kind, default, help).  A default of None
# makes the parameter optional; `list_examples` appends the default to the
# help unless the help speaks of its default itself.
_SEEDED_PARAMS = (
    ("floor", _finite, 0.05, "minimum unnormalized table weight"),
    ("sizes", _node_sizes, None, "optional mapping node -> domain size (default: all binary)"),
)
_BINNING_PARAMS = (
    ("discrete", _boolean, False, "emit the binned companion instead"),
    ("bins", _count, 16, "cells per node in the binned companion"),
    ("span", _positive, 4.0, "half-width of the grid in marginal SDs"),
)


class _Entry(Record):
    __slots__ = ("name", "summary", "parameters", "citation", "builder")

    def __init__(self, name: str, summary: str, parameters: tuple, citation: str,
                 builder: Callable):
        Record.__init__(self, name, summary, parameters, citation, builder)


_CATALOG = (
    _Entry(
        "simpson_binary",
        "Binary recovery table whose aggregate treatment comparison reverses "
        "every per-sex comparison: X sex, T medicine, R recovery.",
        (
            ("p", _table_2x2, ((0.2, 0.7), (0.5, 0.9)),
             "2x2 recovery table p[t][x] = P(R=1|T=t,X=x)"),
            ("x0_weight", _unit_open, 0.5, "P(X=0)"),
            ("beta0", _unit_open, None, "asymmetric uptake for x=0 (requires paradox=False)"),
            ("beta1", _unit_open, None, "asymmetric uptake for x=1 (requires paradox=False)"),
            ("beta", _unit_open, 0.8, "symmetric uptake q(0)=beta, q(1)=1-beta"),
            ("paradox", _boolean, True, "enforce the reversal constraints"),
        ),
        "P(R=1|T=t) = sum_x p(t,x) q_t(x) P(X=x) / P(T=t) orders against "
        "every stratum once beta/(1-beta) >= theta = "
        "(p(1,1)-p(0,0)) / (p(0,1)-p(1,0)) > 1",
        _simpson_binary,
    ),
    _Entry(
        "simpson_continuous",
        "Linear-Gaussian dose-response system where the observed regression "
        "of R on T is positive although raising T lowers R at every dose.",
        (
            ("alpha", _positive, 1.0, "covariate weight in the response"),
            ("beta", _positive, 0.2, "causal loss per treatment unit"),
            ("gamma", _positive, 1.0, "shared-cause weight in the covariate"),
            ("mu", _finite, 0.0, "shared-cause mean"),
            ("sigma1", _positive, 1.0, "response noise SD"),
            ("sigma2", _positive, 1.0, "covariate noise SD"),
            ("sigma3", _positive, 1.0, "treatment noise SD"),
        ) + _BINNING_PARAMS,
        "observed slope alpha*cov(X,T)/var(T) - beta exceeds zero while the "
        "interventional slope is -beta",
        _simpson_continuous,
    ),
    _Entry(
        "lord",
        "Pre/post score model for one group: initial score X, retest R "
        "regressing toward the group mean, deterministic gain G = R - X.",
        (
            ("group", _one_of(1, 2), 1, "which group's component to build, 1 or 2"),
            ("mu1", _finite, 0.0, "group-1 initial mean"),
            ("mu2", _finite, 1.0, "group-2 initial mean"),
            ("sigma", _positive, 1.0, "initial-score SD"),
            ("p", _unit_open, 0.5, "group-1 weight in the two-group population"),
            ("rho", _unit_open, 0.5, "retest persistence in (0, 1)"),
        ) + _BINNING_PARAMS,
        "both groups share the gain law N(0, 2(1-rho) sigma^2) although "
        "E(R | X=x) differs between groups by (1-rho)(mu1 - mu2)",
        _lord,
    ),
    _Entry(
        "fig1",
        "Eight-node admissibility benchmark: covariates X1..X5, treatment T, "
        "post-treatment X6, response R, seeded random mechanisms.",
        _SEEDED_PARAMS,
        "among subsets of {X1..X5}, exactly {X3} plus one of X1, X2, X4, X5 "
        "(and supersets) block all four back-door paths; {X3} alone opens "
        "the collider X1 -> X3 <- X2",
        _seeded(FIG1_EDGES),
    ),
    _Entry(
        "fig1a",
        "The admissibility benchmark extended with treatment descendants "
        "X7, X8, X9 (X9 also feeds the response), seeded random mechanisms.",
        _SEEDED_PARAMS,
        "conditioning on descendants of T needs the pseudo-treatment check; "
        "conditioning on X9 cuts a response mechanism input and is flagged "
        "as overruling part of the effect",
        _seeded(FIG1A_EDGES),
    ),
    _Entry(
        "two_stage",
        "Two-phase trial: initial treatment Y4, interim marker Y3, second "
        "treatment Y2, outcome Y1, latent severity U, seeded mechanisms.",
        _SEEDED_PARAMS,
        "p_t(y) = sum_y3 P(Y1=y | Y2=y2, Y3=y3, Y4=t) P(Y3=y3 | Y4=t) "
        "recovers the direct effect of Y4 with Y2 held fixed",
        _seeded(_TWO_STAGE_SHAPE),
    ),
    _Entry(
        "smoking",
        "Mediated exposure chain: hidden disposition X, exposure Y, deposit "
        "Z, outcome W, seeded random mechanisms.",
        _SEEDED_PARAMS,
        "front-door identity: l_y(w) = sum_z P(z|y) sum_y' P(w|y',z) P(y') "
        "needs no stratum of the hidden X",
        _seeded(_FRONTDOOR_SHAPE),
    ),
    _Entry(
        "eelworms",
        "Crop-yield system: fumigation X, pest counts U, V, W through the "
        "season, yield Y, bird pressure B, weather A, seeded mechanisms.",
        _SEEDED_PARAMS,
        "mu_x(y) = sum_(v,w) P(y|x,v,w) sum_u P(v|x,u) "
        "sum_x' P(w|v,x',u) P(x',u) removes the confounded treatment choice",
        _seeded(_EELWORMS_SHAPE),
    ),
    _Entry(
        "treatment_plan",
        "Two-round clinic plan: state X, treatment T, response R, then "
        "second-round X2, T2, R2, seeded random mechanisms.",
        _SEEDED_PARAMS,
        "g-formula: the law of R2 under the plan (t, t2) is "
        "sum_(x,r,x2) P(x) P(r|x,t) P(x2|x,t,r) P(r2|x2,t2,t) "
        "with both treatment mechanisms frozen",
        _seeded(_GFORMULA_SHAPE),
    ),
    _Entry(
        "hiring",
        "Hiring pipeline: sex S, background B, qualification Q, hiring "
        "score H, seeded random mechanisms.",
        _SEEDED_PARAMS,
        "sum_(b,q) E(H | b, q, S=s) {P(b,q | S=0) - P(b,q | S=1)} isolates "
        "the hiring channel that runs through background and qualification",
        _seeded(_HIRING_SHAPE),
    ),
    _Entry(
        "iv_binary",
        "Encouragement design: instrument I, latent type U, treatment T, "
        "response R, seeded random mechanisms.",
        _SEEDED_PARAMS,
        "theta = {E(R|I=1) - E(R|I=0)} / {E(T|I=1) - E(T|I=0)} equals the "
        "complier treatment effect under monotone uptake",
        _seeded(IV_EDGES),
    ),
    _Entry(
        "case_control_pop",
        "Population for paired case-control sampling: covariate X, exposure "
        "T, response R with a fixed per-stratum exposure odds ratio.",
        (
            ("recovery", _keyed({(t, x) for t in (0, 1) for x in (0, 1)}, "all four (t, x) pairs"),
             {(1, 0): 2 / 3, (0, 0): 4 / 11, (1, 1): 7 / 13, (0, 1): 1 / 4},
             "P(R=1|T=t,X=x) per (t, x) pair; the defaults give "
             "exposure odds ratio 3.5 in both strata"),
            ("uptake", _keyed({0, 1}, "x = 0 and x = 1"), {0: 0.45, 1: 0.52}, "P(T=1|X=x) per x"),
            ("x1_weight", _unit_open, 0.5, "P(X=1)"),
        ),
        "per-stratum exposure odds ratio p(1-q)/(q(1-p)) = 3.5 at the "
        "defaults, recoverable from matched case-control pairs alone",
        _case_control_pop,
    ),
)

_BY_NAME = {entry.name: entry for entry in _CATALOG}


class ExampleSpec(Record):
    """A catalog name plus builder parameters and a fill-in seed."""

    __slots__ = ("name", "params", "seed")

    def __init__(self, name: str, params: Mapping | None = None, seed: int = 0):
        params = {} if params is None else params
        if name not in _BY_NAME:
            raise InvalidArgumentError(
                f"unknown example {name!r}; catalog: "
                f"{', '.join(sorted(_BY_NAME))}"
            )
        allowed = {row[0] for row in _BY_NAME[name].parameters}
        unknown = set(params) - allowed
        if unknown:
            raise InvalidArgumentError(
                f"unknown parameters {sorted(unknown)} for {name!r}; "
                f"documented: {sorted(allowed)}"
            )
        Record.__init__(self, name, params, seed)


def build_example(spec: ExampleSpec) -> Scm | LinearGaussianScm:
    """Check each parameter against its declared kind, fill in the defaults,
    and build the model from those values and the names the caller gave."""
    entry = _BY_NAME[spec.name]
    values = {}
    for name, kind, default, _ in entry.parameters:
        value = spec.params[name] if name in spec.params else default
        if value is not None or default is not None:
            kind(name, value)
        values[name] = value
    return entry.builder(spec.seed, spec.params.keys(), **values)


def list_examples() -> tuple:
    """The full catalog in stable order, without the builders."""
    return tuple(
        {
            "name": entry.name,
            "summary": entry.summary,
            "parameters": {
                name: text if default is None or "default" in text else f"{text}, default {default!r}"
                for name, _, default, text in entry.parameters
            },
            "citation": entry.citation,
        }
        for entry in _CATALOG
    )
