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
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import ConstraintError, InvalidArgumentError, Record
from .estimands import _HIRING_SHAPE, _TWO_STAGE_SHAPE
from .exogenous import DigitStream, uniform_list
from .graph import Dag, topological_order
from .identify import _EELWORMS_SHAPE, _FRONTDOOR_SHAPE, _GFORMULA_SHAPE
from .scm import Cpt, Domain, Scm

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

_CC_DEFAULT_RECOVERY = {(1, 0): 2 / 3, (0, 0): 4 / 11, (1, 1): 7 / 13, (0, 1): 1 / 4}
_CC_DEFAULT_UPTAKE = {0: 0.45, 1: 0.52}


def _check_finite(**named) -> None:
    for label, value in named.items():
        if not isinstance(value, (int, float)):
            raise InvalidArgumentError(f"{label} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{label} is non-finite: {value!r}")


def _check_unit_open(**named) -> None:
    for label, value in named.items():
        if not 0 < value < 1:
            raise InvalidArgumentError(f"{label} must lie in (0, 1), got {value!r}")


def _check_probability(**named) -> None:
    for label, value in named.items():
        if not 0 <= value <= 1:
            raise InvalidArgumentError(f"{label} must lie in [0, 1], got {value!r}")


def _bernoulli(node: str, one_weight) -> Cpt:
    return Cpt(node, (), {(): (1 - one_weight, one_weight)})


def _fill(dag: Dag, seed: int, sizes: Mapping | None, floor: float) -> Scm:
    """Strictly positive seeded random tables over `dag`."""
    _check_finite(floor=floor)
    if floor < 0:
        raise InvalidArgumentError(f"floor must be nonnegative, got {floor!r}")
    sizes = dict(sizes or {})
    unknown = set(sizes) - set(dag.nodes)
    if unknown:
        raise InvalidArgumentError(f"sizes name unknown nodes {sorted(unknown)}")
    for node, size in sizes.items():
        if not isinstance(size, int) or size < 2:
            raise InvalidArgumentError(
                f"domain size for {node!r} must be an integer >= 2, got {size!r}"
            )
    domains = {n: Domain(n, tuple(range(sizes.get(n, 2)))) for n in dag.nodes}
    # One draw per table cell, read in topological order.
    total = sum(math.prod(len(domains[m].values) for m in (n, *dag.parents(n))) for n in dag.nodes)
    draws = iter(uniform_list(DigitStream(seed), 1, 0, total))
    cpts = {}
    for node in topological_order(dag):
        parents = tuple(dag.parents(node))
        k = len(domains[node].values)
        table = {}
        for cfg in itertools.product(*[domains[p].values for p in parents]):
            weights = [floor + next(draws) for _ in range(k)]
            total = sum(weights)
            table[cfg] = tuple(w / total for w in weights)
        cpts[node] = Cpt(node, parents, table)
    return Scm(dag, domains, cpts)


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
    normal laws for the catalog's continuous entries.
    """
    if int(bins) < 2:
        raise InvalidArgumentError(f"need at least 2 bins, got {bins!r}")
    if not span > 0:
        raise InvalidArgumentError(f"span must be positive, got {span!r}")
    from .gaussian import lg_moments

    bins = int(bins)
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


def _simpson_binary(seed: int, **params) -> Scm:
    p = params.get("p", ((0.2, 0.7), (0.5, 0.9)))
    x0_weight = params.get("x0_weight", 0.5)
    paradox = params.get("paradox", True)
    beta0 = params.get("beta0")
    beta1 = params.get("beta1")
    if len(p) != 2 or any(len(row) != 2 for row in p):
        raise InvalidArgumentError("p must be a 2x2 table indexed [t][x]")
    for t in (0, 1):
        for x in (0, 1):
            _check_probability(**{f"p({t},{x})": p[t][x]})
    _check_unit_open(x0_weight=x0_weight)
    if (beta0 is None) != (beta1 is None):
        raise InvalidArgumentError("beta0 and beta1 must be given together")
    if beta0 is not None:
        if paradox:
            raise ConstraintError(
                "paradox constraints are only defined for the symmetric "
                "uptake q(0)=beta, q(1)=1-beta; pass paradox=False with "
                "beta0/beta1"
            )
        if "beta" in params:
            raise InvalidArgumentError("give either beta or beta0/beta1, not both")
        _check_unit_open(beta0=beta0, beta1=beta1)
        if not beta0 > beta1:
            raise ConstraintError(
                f"asymmetric uptake needs beta0 > beta1, got {beta0!r} <= {beta1!r}"
            )
        q0, q1 = beta0, beta1
    else:
        beta = params.get("beta", 0.8)
        _check_unit_open(beta=beta)
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
    dag = Dag(("X", "T", "R"), (("X", "T"), ("X", "R"), ("T", "R")))
    domains = {n: Domain(n, (0, 1)) for n in ("X", "T", "R")}
    cpts = {
        "X": Cpt("X", (), {(): (x0_weight, 1 - x0_weight)}),
        "T": Cpt("T", ("X",), {(0,): (1 - q0, q0), (1,): (1 - q1, q1)}),
        "R": Cpt(
            "R",
            ("T", "X"),
            {(t, x): (1 - p[t][x], p[t][x]) for t in (0, 1) for x in (0, 1)},
        ),
    }
    return Scm(dag, domains, cpts)


def _continuous_or_binned(model: LinearGaussianScm, params: Mapping):
    if params.get("discrete", False):
        return discretize_lg(
            model, bins=params.get("bins", 16), span=params.get("span", 4.0)
        )
    return model


def _simpson_continuous(seed: int, **params):
    from .gaussian import simpson_cont_model

    model = simpson_cont_model(
        alpha=params.get("alpha", 1.0),
        beta=params.get("beta", 0.2),
        gamma=params.get("gamma", 1.0),
        mu=params.get("mu", 0.0),
        sigma1=params.get("sigma1", 1.0),
        sigma2=params.get("sigma2", 1.0),
        sigma3=params.get("sigma3", 1.0),
    )
    return _continuous_or_binned(model, params)


def _lord(seed: int, **params):
    from .gaussian import lord_component

    group = params.get("group", 1)
    if group not in (1, 2):
        raise InvalidArgumentError(f"group must be 1 or 2, got {group!r}")
    mu1 = params.get("mu1", 0.0)
    mu2 = params.get("mu2", 1.0)
    sigma = params.get("sigma", 1.0)
    rho = params.get("rho", 0.5)
    _check_finite(mu1=mu1, mu2=mu2, sigma=sigma)
    _check_unit_open(p=params.get("p", 0.5), rho=rho)
    if not sigma > 0:
        raise InvalidArgumentError(f"sigma must be positive, got {sigma!r}")
    model = lord_component(mu1 if group == 1 else mu2, sigma, rho)
    return _continuous_or_binned(model, params)


def _seeded(edges) -> Callable:
    nodes = {n for edge in edges for n in edge}

    def build(seed: int, **params) -> Scm:
        return _fill(
            Dag(nodes, edges),
            seed,
            params.get("sizes"),
            params.get("floor", 0.05),
        )

    return build


def _case_control_pop(seed: int, **params) -> Scm:
    recovery = dict(params.get("recovery", _CC_DEFAULT_RECOVERY))
    uptake = dict(params.get("uptake", _CC_DEFAULT_UPTAKE))
    x1_weight = params.get("x1_weight", 0.5)
    if set(recovery) != {(t, x) for t in (0, 1) for x in (0, 1)}:
        raise InvalidArgumentError("recovery must map all four (t, x) pairs")
    if set(uptake) != {0, 1}:
        raise InvalidArgumentError("uptake must map x = 0 and x = 1")
    for key, value in recovery.items():
        _check_unit_open(**{f"recovery{key}": value})
    for key, value in uptake.items():
        _check_unit_open(**{f"uptake[{key}]": value})
    _check_unit_open(x1_weight=x1_weight)
    dag = Dag(("X", "T", "R"), (("X", "T"), ("X", "R"), ("T", "R")))
    domains = {n: Domain(n, (0, 1)) for n in ("X", "T", "R")}
    cpts = {
        "X": _bernoulli("X", x1_weight),
        "T": Cpt(
            "T",
            ("X",),
            {(x,): (1 - uptake[x], uptake[x]) for x in (0, 1)},
        ),
        "R": Cpt(
            "R",
            ("T", "X"),
            {key: (1 - value, value) for key, value in recovery.items()},
        ),
    }
    return Scm(dag, domains, cpts)


_SEEDED_PARAMS = (
    ("sizes", "optional mapping node -> domain size (default: all binary)"),
    ("floor", "minimum unnormalized table weight, default 0.05"),
)
_BINNING_PARAMS = (
    ("discrete", "emit the binned companion instead, default False"),
    ("bins", "cells per node in the binned companion, default 16"),
    ("span", "half-width of the grid in marginal SDs, default 4.0"),
)


class _Entry(Record):
    __slots__ = ("name", "summary", "parameters", "citation", "builder")

    def __init__(self, name: str, summary: str, parameters: tuple, citation: str,
                 builder: Callable):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "builder", builder)


_CATALOG = (
    _Entry(
        "simpson_binary",
        "Binary recovery table whose aggregate treatment comparison reverses "
        "every per-sex comparison: X sex, T medicine, R recovery.",
        (
            ("p", "2x2 recovery table p[t][x] = P(R=1|T=t,X=x), "
             "default ((0.2, 0.7), (0.5, 0.9))"),
            ("beta", "symmetric uptake q(0)=beta, q(1)=1-beta, default 0.8"),
            ("beta0", "asymmetric uptake for x=0 (requires paradox=False)"),
            ("beta1", "asymmetric uptake for x=1 (requires paradox=False)"),
            ("x0_weight", "P(X=0), default 0.5"),
            ("paradox", "enforce the reversal constraints, default True"),
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
            ("alpha", "covariate weight in the response, default 1.0"),
            ("beta", "causal loss per treatment unit, default 0.2"),
            ("gamma", "shared-cause weight in the covariate, default 1.0"),
            ("mu", "shared-cause mean, default 0.0"),
            ("sigma1", "response noise SD, default 1.0"),
            ("sigma2", "covariate noise SD, default 1.0"),
            ("sigma3", "treatment noise SD, default 1.0"),
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
            ("mu1", "group-1 initial mean, default 0.0"),
            ("mu2", "group-2 initial mean, default 1.0"),
            ("sigma", "initial-score SD, default 1.0"),
            ("p", "group-1 weight in the two-group population, default 0.5"),
            ("rho", "retest persistence in (0, 1), default 0.5"),
            ("group", "which group's component to build, 1 or 2, default 1"),
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
            ("recovery", "P(R=1|T=t,X=x) per (t, x) pair; the defaults give "
             "exposure odds ratio 3.5 in both strata"),
            ("uptake", "P(T=1|X=x) per x, default {0: 0.45, 1: 0.52}"),
            ("x1_weight", "P(X=1), default 0.5"),
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
        allowed = {label for label, _ in _BY_NAME[name].parameters}
        unknown = set(params) - allowed
        if unknown:
            raise InvalidArgumentError(
                f"unknown parameters {sorted(unknown)} for {name!r}; "
                f"documented: {sorted(allowed)}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "seed", seed)


def build_example(spec: ExampleSpec) -> Scm | LinearGaussianScm:
    """Build and validate the model the spec names."""
    entry = _BY_NAME[spec.name]
    return entry.builder(spec.seed, **dict(spec.params))


def list_examples() -> tuple:
    """The full catalog in stable order, without the builders."""
    return tuple(
        {
            "name": entry.name,
            "summary": entry.summary,
            "parameters": {label: doc for label, doc in entry.parameters},
            "citation": entry.citation,
        }
        for entry in _CATALOG
    )
