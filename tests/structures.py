"""Seeded random models over the named graph shapes used across tests."""

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from scmkit.diagnostics import _chi_square
from scmkit.errors import InvalidArgumentError
from scmkit.exogenous import DigitStream, uniforms_at
from scmkit.graph import (
    BACKWARD,
    FORWARD,
    BackdoorReport,
    Dag,
    Path,
    PathVerdict,
    check_backdoor,
    descendants,
    topological_order,
)
from scmkit.gaussian import (
    _require_positive,
    lg_condition,
    lg_intervene,
    lg_moments,
    lord_component,
    simpson_cont_model,
)
from scmkit.identify import PropensityTable, _propensity, _strata
from scmkit.scm import Cpt, Dataset, Domain, JointTable, Scm, _marginals, _sorted, restrict, sample

FRONTDOOR_NODES = ["X", "Y", "Z", "W"]
FRONTDOOR_EDGES = [("X", "Y"), ("X", "W"), ("Y", "Z"), ("Z", "W")]

EELWORMS_NODES = ["A", "B", "U", "X", "V", "W", "Y"]
EELWORMS_EDGES = [
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
]
EELWORMS_ROLES = {"X": "X", "U": "U", "V": "V", "W": "W", "Y": "Y"}

GFORMULA_NODES = ["X", "T", "R", "X2", "T2", "R2"]
GFORMULA_EDGES = [
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
]
GFORMULA_ROLES = {"X": "X", "T": "T", "R": "R", "X2": "X2", "T2": "T2", "R2": "R2"}

TWO_STAGE_NODES = ["Y1", "Y2", "Y3", "Y4", "U"]
TWO_STAGE_EDGES = [
    ("Y2", "Y1"),
    ("Y4", "Y1"),
    ("U", "Y1"),
    ("Y3", "Y2"),
    ("Y4", "Y3"),
    ("U", "Y3"),
]
TWO_STAGE_ROLES = {"Y1": "Y1", "Y2": "Y2", "Y3": "Y3", "Y4": "Y4"}

HIRING_NODES = ["S", "B", "Q", "H"]
HIRING_EDGES = [
    ("S", "B"),
    ("S", "Q"),
    ("S", "H"),
    ("B", "Q"),
    ("B", "H"),
    ("Q", "H"),
]
HIRING_ROLES = {"H": "H", "B": "B", "Q": "Q", "S": "S"}

BACKDOOR_NODES = ["X1", "X2", "X3", "X4", "X5", "X6", "T", "R"]
BACKDOOR_EDGES = [
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

IV_NODES = ["I", "U", "T", "R"]
IV_EDGES = [("I", "T"), ("U", "T"), ("U", "R"), ("T", "R")]


def fill(dag: Dag, seed: int, sizes: dict | None = None, floor: float = 0.05) -> Scm:
    """Strictly positive random tables over `dag`, reproducible from `seed`."""
    sizes = sizes or {}
    domains = {n: Domain(n, tuple(range(sizes.get(n, 2)))) for n in dag.nodes}
    order = topological_order(dag)
    total = sum(
        len(domains[n].values) * math.prod(len(domains[p].values) for p in dag.parents(n))
        for n in order
    )
    draws = iter(uniforms_at(DigitStream(seed), 1, 0, total).tolist())
    cpts = {}
    for node in order:
        parents = tuple(dag.parents(node))
        k = len(domains[node].values)
        table = {}
        for cfg in itertools.product(*[domains[p].values for p in parents]):
            w = [floor + next(draws) for _ in range(k)]
            s = sum(w)
            table[cfg] = tuple(x / s for x in w)
        cpts[node] = Cpt(node, parents, table)
    return Scm(dag, domains, cpts)


def with_tables(scm: Scm, *cpts: Cpt) -> Scm:
    """A new model: `scm` with each given table in place of its node's."""
    return Scm(scm.dag, scm.domains, {**scm.cpts, **{cpt.node: cpt for cpt in cpts}}, scm.meta)


def sparse_model(seed: int, n: int = 6, exact: bool = False) -> Scm:
    """Random DAG over n nodes of one to three values whose tables have zero
    cells (integer weights 0-3), with float or Fraction probabilities."""
    draws = iter(uniforms_at(DigitStream(seed), 1, 0, 4096).tolist())
    names = [f"V{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if next(draws) < 0.4]
    dag = Dag(names, edges)
    domains = {v: Domain(v, tuple(range(1 + int(3 * next(draws))))) for v in names}
    cpts = {}
    for node in names:
        parents = tuple(dag.parents(node))
        k = len(domains[node].values)
        table = {}
        for cfg in itertools.product(*[domains[p].values for p in parents]):
            w = [int(4 * next(draws)) for _ in range(k)]
            w[int(k * next(draws))] += not any(w)
            table[cfg] = tuple(Fraction(x, sum(w)) if exact else x / sum(w) for x in w)
        cpts[node] = Cpt(node, parents, table)
    return Scm(dag, domains, cpts)


def exact_fill(dag: Dag, seed: int, size: int = 3) -> Scm:
    """Strictly positive `Fraction` tables over `dag`, every node taking
    `size` values: integer weights 1-9 over their row total."""
    draws = iter(uniforms_at(DigitStream(seed), 1, 0, 4096).tolist())
    domains = {n: Domain(n, tuple(range(size))) for n in dag.nodes}
    cpts = {}
    for node in topological_order(dag):
        parents = tuple(dag.parents(node))
        table = {}
        for cfg in itertools.product(*[domains[p].values for p in parents]):
            w = [1 + int(9 * next(draws)) for _ in range(size)]
            table[cfg] = tuple(Fraction(x, sum(w)) for x in w)
        cpts[node] = Cpt(node, parents, table)
    return Scm(dag, domains, cpts)


def frontdoor_model(seed: int, sizes: dict | None = None) -> Scm:
    return fill(Dag(FRONTDOOR_NODES, FRONTDOOR_EDGES), seed, sizes)


def eelworms_model(seed: int, sizes: dict | None = None) -> Scm:
    return fill(Dag(EELWORMS_NODES, EELWORMS_EDGES), seed, sizes)


def gformula_model(seed: int, sizes: dict | None = None) -> Scm:
    return fill(Dag(GFORMULA_NODES, GFORMULA_EDGES), seed, sizes)


def two_stage_model(seed: int, sizes: dict | None = None) -> Scm:
    return fill(Dag(TWO_STAGE_NODES, TWO_STAGE_EDGES), seed, sizes)


def hiring_model(seed: int, sizes: dict | None = None) -> Scm:
    return fill(Dag(HIRING_NODES, HIRING_EDGES), seed, sizes)


def backdoor_model(seed: int, sizes: dict | None = None) -> Scm:
    return fill(Dag(BACKDOOR_NODES, BACKDOOR_EDGES), seed, sizes)


def iv_model(seed: int, sizes: dict | None = None) -> Scm:
    return fill(Dag(IV_NODES, IV_EDGES), seed, sizes)


DRIFT_NODES = ["X", "T", "R"]
DRIFT_EDGES = [("X", "T"), ("X", "R"), ("T", "R")]


def drift_model(shift: float = 0.0) -> Scm:
    """Binary covariate/treatment/response model whose response law can
    be raised uniformly by `shift` to mimic a mid-collection change."""
    dag = Dag(DRIFT_NODES, DRIFT_EDGES)
    domains = {n: Domain(n, (0, 1)) for n in DRIFT_NODES}
    r_table = {}
    for t in (0, 1):
        for x in (0, 1):
            p = 0.2 + 0.1 * t + 0.2 * x + shift
            r_table[(t, x)] = (1 - p, p)
    cpts = {
        "X": Cpt("X", (), {(): (0.5, 0.5)}),
        "T": Cpt("T", ("X",), {(0,): (0.45, 0.55), (1,): (0.55, 0.45)}),
        "R": Cpt("R", ("T", "X"), r_table),
    }
    return Scm(dag, domains, cpts)


def drift_dataset(seed: int, n: int, shift: float) -> Dataset:
    """First half sampled from the base model, second half from the
    shifted one, concatenated in collection order."""
    head = sample(drift_model(0.0), DigitStream(seed), n // 2)
    tail = sample(drift_model(shift), DigitStream(seed + 1), n - n // 2)
    return Dataset(head.columns, tuple(head.rows) + tuple(tail.rows))


# ---------------------------------------------------------------------------
# Dict reference for the exact-law layer: the enumerator and the restrict loop
# the flat joint replaced, kept to check it value for value and key for key.


def reference_joint(scm: Scm) -> dict:
    """{configuration in topological order: mass}, grown one node at a time."""
    order = topological_order(scm.dag)
    position = {n: i for i, n in enumerate(order)}
    partial = {(): 1}
    for node in order:
        cpt = scm.cpts[node]
        parent_pos = [position[p] for p in cpt.parents]
        grown = {}
        for cfg, mass in partial.items():
            row = cpt.table[tuple(cfg[i] for i in parent_pos)]
            for value, p in zip(scm.domains[node].values, row):
                if p != 0:
                    grown[cfg + (value,)] = mass * p
        partial = grown
    return partial


def reference_sums(order, probs: dict, targets, given: dict | None = None) -> tuple:
    """(mass of `given`, {targets configuration: mass}), added in key order."""
    target_idx = [order.index(n) for n in targets]
    given_idx = [(order.index(n), v) for n, v in (given or {}).items()]
    mass, sums = 0, {}
    for cfg, p in probs.items():
        if all(cfg[i] == v for i, v in given_idx):
            mass += p
            key = tuple(cfg[i] for i in target_idx)
            sums[key] = sums.get(key, 0) + p
    return mass, sums


# ---------------------------------------------------------------------------
# Summaries of a law that only the tests use, read through the public
# `probs` view.


def expectation(joint: JointTable, node, given: dict | None = None):
    """Mean of a numeric node, optionally conditional."""
    law = restrict(joint, (node,), given)
    return sum(v[0] * p for v, p in law.probs.items())


def total_variation(a: JointTable, b: JointTable) -> float:
    """Half the L1 distance between two laws over the same nodes, summed
    row-major over the union of their value grids."""
    if set(a.order) != set(b.order):
        raise InvalidArgumentError("laws cover different nodes")
    perm = [b.index(n) for n in a.order]
    grid = [tuple(dict.fromkeys(a.values[i] + b.values[j])) for i, j in enumerate(perm)]
    p = a.probs
    q = {tuple(cfg[j] for j in perm): m for cfg, m in b.probs.items()}
    return 0.5 * sum(
        abs(float(p.get(cfg, 0)) - float(q.get(cfg, 0))) for cfg in itertools.product(*grid)
    )


def diagonal_position(row: int, col: int) -> int:
    """Digit position consumed by stream `row` at its `col`-th digit.

    Both indices are 1-based.  Row ``j`` occupies positions
    ``T(j+c-1) - (j-1)`` for c = 1, 2, ..., where T is the triangular
    number; rows partition the positive integers.  `exogenous` computes
    the same positions inline.
    """
    if row < 1 or col < 1:
        raise InvalidArgumentError(f"diagonal indices are 1-based, got ({row}, {col})")
    m = row + col - 1
    return m * (m + 1) // 2 - (row - 1)


# ---------------------------------------------------------------------------
# Scalar references for the graph order and the Gaussian moments: the sorted
# frontier and the per-entry recursion that the heap and the row steps
# replaced, kept to check them for equality and bit for bit.


def reference_topological_order(dag: Dag) -> list:
    """Parents before children, the frontier re-sorted by `str`, then by type
    name, after each step."""
    key = lambda n: (str(n), type(n).__qualname__)  # noqa: E731
    indegree = {n: len(dag.parents(n)) for n in dag.nodes}
    frontier = sorted((n for n, d in indegree.items() if d == 0), key=key)
    order = []
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        changed = False
        for child in dag.children(node):
            indegree[child] -= 1
            if indegree[child] == 0:
                frontier.append(child)
                changed = True
        if changed:
            frontier.sort(key=key)
    return order


def reference_lg_moments(model) -> tuple:
    """(order, mean, covariance) with one Python sum per covariance entry."""
    order = topological_order(model.dag)
    pos = {n: i for i, n in enumerate(order)}
    k = len(order)
    mean = np.zeros(k)
    cov = np.zeros((k, k))
    for i, node in enumerate(order):
        coefs = model.coefficients[node]
        mean[i] = model.intercepts[node] + sum(
            c * mean[pos[p]] for p, c in coefs.items()
        )
        for j in range(i):
            cross = sum(c * cov[pos[p], j] for p, c in coefs.items())
            cov[i, j] = cov[j, i] = cross
        cov[i, i] = model.noise_vars[node] + sum(
            ca * cb * cov[pos[pa], pos[pb]]
            for pa, ca in coefs.items()
            for pb, cb in coefs.items()
        )
    return tuple(order), mean, cov


# ---------------------------------------------------------------------------
# Path-by-path reference for the back-door criterion: the recursive listing
# that copied its visited set and tuples at every step, and the classifier
# that read each collider's descendants, which the single classifying walk
# replaced; kept to check its paths, order, verdicts and witnesses.


def reference_backdoor_paths(dag: Dag, t, r) -> list:
    """Back-door paths from t to r, children and parents tried in `str` order."""
    steps = {
        n: sorted([(c, FORWARD) for c in dag.children(n)] + [(p, BACKWARD) for p in dag.parents(n)],
                  key=lambda s: (str(s[0]), s[1]))
        for n in dag.nodes
    }
    paths = []

    def extend(node, visited, nodes, dirs):
        for nxt, direction in steps[node]:
            if nxt == r:
                if direction == FORWARD:
                    paths.append(Path(nodes + (r,), dirs + (direction,)))
            elif nxt not in visited:
                extend(nxt, visited | {nxt}, nodes + (nxt,), dirs + (direction,))

    for first in dag.parents(t):
        if first != r:
            extend(first, {t, first}, (t, first), (BACKWARD,))
    return paths


def backdoor_paths(dag: Dag, t, r) -> list:
    """All simple paths from t to r entered against an edge and exiting
    along one: the paths `check_backdoor` judges, read with an empty Z."""
    return [v.path for v in check_backdoor(dag, t, r, ()).verdicts]


def support_values(joint: JointTable, node: str) -> list:
    """Values of `node` carrying positive mass, in a stable order."""
    return _sorted({v for (v,) in _marginals(joint, (node,))[0]})


def propensity_table(joint: JointTable, t_node: str, z_nodes) -> PropensityTable:
    """Treatment assignment vector per covariate configuration, from the
    strata `propensity_adjust` pools."""
    z_nodes = tuple(z_nodes)
    return _propensity(t_node, z_nodes, *_strata(joint, z_nodes, t_node))


def two_sample_pvalue(a, b) -> float:
    """Chi-square homogeneity p-value for two samples on a finite domain,
    by the test `homogeneity_report` runs per stratum.

    Accepts value -> count mappings or plain iterables of values; small
    cells are pooled per the documented convention.
    """
    _, _, p = _chi_square(*(x if isinstance(x, Mapping) else Counter(x) for x in (a, b)))
    return p


def is_collider(path: Path, i: int) -> bool:
    """True when both neighbouring edges point into path.nodes[i]."""
    if not 0 < i < len(path.nodes) - 1:
        return False
    return path.directions[i - 1] == FORWARD and path.directions[i] == BACKWARD


def interior(path: Path) -> tuple:
    return path.nodes[1:-1]


def reference_classify(path: Path, dag: Dag, Z) -> PathVerdict:
    """(i) at the first pointing Z-node, else (ii) at the first collider that
    neither is in Z nor has a descendant there, else a violation."""
    pointing = [
        node
        for i, node in enumerate(interior(path), start=1)
        if node in Z and not is_collider(path, i)
    ]
    if pointing:
        return PathVerdict(path, "satisfies-(i)", pointing[0])
    for i, node in enumerate(interior(path), start=1):
        if is_collider(path, i) and node not in Z and not (descendants(dag, node) & Z):
            return PathVerdict(path, "satisfies-(ii)", node)
    return PathVerdict(path, "violates")


def reference_check_backdoor(dag: Dag, t, r, Z) -> BackdoorReport:
    Z = frozenset(Z)
    verdicts = [reference_classify(p, dag, Z) for p in reference_backdoor_paths(dag, t, r)]
    return BackdoorReport(all(v.verdict != "violates" for v in verdicts), verdicts)


def reference_adjustment_sets(dag: Dag, t, r, candidates) -> list:
    """Minimal subsets of `candidates`, smallest first, that leave no path violating."""
    paths = reference_backdoor_paths(dag, t, r)
    ordered = sorted(candidates, key=str)
    minimal = []
    for size in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            Z = frozenset(combo)
            if any(m <= Z for m in minimal):
                continue
            if all(reference_classify(p, dag, Z).verdict != "violates" for p in paths):
                minimal.append(Z)
    return sorted(minimal, key=lambda s: (len(s), sorted(s, key=str)))


# The continuous examples' reports: no command prints them; tests check the
# paper's numbers through them.

#: Observed slopes within this band of zero are treated as zero when setting
#: the reversal flag, so the exact boundary case reports no reversal.
SLOPE_DEAD_ZONE = 1e-12


def simpson_cont_report(
    alpha: float,
    beta: float,
    gamma: float,
    mu: float,
    sigma1: float,
    sigma2: float,
    sigma3: float,
) -> dict:
    """Observed regression slope of R on T versus the interventional slope.

    The observed slope comes from conditioning the joint normal law; the
    causal slope from freezing T at two values.  The reversal flag is set
    when the observed slope is positive (beyond a 1e-12 dead zone) even
    though the causal slope is -beta < 0.
    """
    model = simpson_cont_model(alpha, beta, gamma, mu, sigma1, sigma2, sigma3)
    law = lg_moments(model)
    observational = (
        lg_condition(law, {"T": 1.0}).mean_of("R")
        - lg_condition(law, {"T": 0.0}).mean_of("R")
    )
    causal = (
        lg_moments(lg_intervene(model, "T", 1.0)).mean_of("R")
        - lg_moments(lg_intervene(model, "T", 0.0)).mean_of("R")
    )
    return {
        "observational_slope": float(observational),
        "causal_slope": float(causal),
        "paradox": bool(observational > SLOPE_DEAD_ZONE),
    }


def lord_report(
    mu1: float, mu2: float, sigma: float, p: float, rho: float
) -> dict:
    """Group laws, gain law, and direct-effect difference for the pre/post model.

    Group t has initial score N(mu_t, sigma^2); the retest regresses toward
    the group mean with persistence rho.  Each group's gain R - X then has
    the same law N(0, 2(1-rho) sigma^2), yet holding the initial score fixed
    the groups differ by (1-rho)(mu1 - mu2).
    """
    _require_positive(sigma=sigma)
    if not 0 < p < 1:
        raise InvalidArgumentError(f"group weight must lie in (0, 1), got {p}")
    if not 0 < rho < 1:
        raise InvalidArgumentError(f"persistence must lie in (0, 1), got {rho}")
    laws = {t: lg_moments(lord_component(m, sigma, rho)) for t, m in ((1, mu1), (2, mu2))}
    group_laws = {t: (law.mean_of("R"), law.var_of("R")) for t, law in laws.items()}
    gains = {t: (law.mean_of("G"), law.var_of("G")) for t, law in laws.items()}
    m1, v1 = group_laws[1]
    m2, v2 = group_laws[2]
    direct_difference = (
        lg_condition(laws[1], {"X": 0.0}).mean_of("R")
        - lg_condition(laws[2], {"X": 0.0}).mean_of("R")
    )
    return {
        "group_laws": group_laws,
        "gain_law": gains[1],
        "gain_law_by_group": gains,
        "direct_difference": float(direct_difference),
        "mean_response": float(p * m1 + (1 - p) * m2),
        "var_response": float(p * v1 + (1 - p) * v2 + p * (1 - p) * (m1 - m2) ** 2),
    }
