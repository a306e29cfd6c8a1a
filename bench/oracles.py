"""Independent oracles for every result the benchmark checks.

None of these call the program under test:

* exact laws: a dense ndarray per model, built by broadcasting the CPTs
  (float64, or object arrays of Fractions for exact models);
* interventions: the same dense law of a spec whose forced nodes became
  point masses;
* back-door verdicts: networkx d-separation in the graph without the
  treatment's outgoing edges, plus a path-by-path openness check of every
  path reported as violating;
* Gaussian laws: (I - B)^-1 a, (I - B)^-1 D (I - B)^-T and Schur complements;
* sampled rows: a pure-Python SplitMix64 digit source read along the
  diagonal layout, with exact Fraction uniforms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from inputs import Spec, descendants

TV_TOL = 1e-12


class Mismatch(AssertionError):
    """An output disagrees with its oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------- exact laws


class Dense:
    """The joint law of a spec as one array with an axis per node."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.axes = list(spec.nodes)
        joint = np.ones((), dtype=object if spec.exact else float)
        for i, node in enumerate(spec.nodes):
            table = spec.tables[node]
            pos = [self.axes.index(p) for p in spec.parents[node]]
            perm = sorted(range(len(pos)), key=lambda j: pos[j])
            table = np.transpose(table, perm + [len(pos)])
            shape = [1] * i + [spec.sizes[node]]
            for j in sorted(pos):
                shape[j] = spec.sizes[spec.nodes[j]]
            joint = joint[..., None] * table.reshape(shape)
        self.joint = joint

    def marginal(self, targets) -> np.ndarray:
        keep = [self.axes.index(t) for t in targets]
        drop = tuple(i for i in range(len(self.axes)) if i not in keep)
        m = self.joint.sum(axis=drop) if drop else self.joint
        kept_sorted = sorted(keep)
        return np.transpose(m, [kept_sorted.index(k) for k in keep])

    def conditional(self, targets, given: dict | None = None) -> dict:
        """{target configuration: probability} given a partial assignment."""
        given = dict(given or {})
        names = list(targets) + list(given)
        m = self.marginal(names)
        m = m[(Ellipsis,) + tuple(given[g] for g in given)] if given else m
        total = m.sum()
        out = {}
        for cfg in itertools.product(*[range(self.spec.sizes[t]) for t in targets]):
            out[cfg] = m[cfg] / total
        return out

    def law(self, node, given: dict | None = None) -> dict:
        return {cfg[0]: p for cfg, p in self.conditional((node,), given).items()}

    def mean(self, node, given: dict | None = None):
        return sum(v * p for v, p in self.law(node, given).items())


def mutilate(spec: Spec, assignments: dict) -> Spec:
    """do(assignments): forced nodes lose their parents and become point masses."""
    parents = dict(spec.parents)
    tables = dict(spec.tables)
    for node, value in assignments.items():
        row = np.zeros(spec.sizes[node], dtype=object if spec.exact else float)
        row[value] = 1
        parents[node] = ()
        tables[node] = row
    return Spec(spec.nodes, parents, spec.sizes, tables)


def do_law(spec: Spec, assignments: dict, node, given: dict | None = None) -> dict:
    return Dense(mutilate(spec, assignments)).law(node, given)


def tv(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(float(a.get(k, 0)) - float(b.get(k, 0))) for k in keys)


def check_law(got: dict, want: dict, what: str, exact: bool = False) -> None:
    if exact:
        keys = set(got) | set(want)
        require(all(got.get(k, 0) == want.get(k, 0) for k in keys), f"{what}: not exact")
    else:
        d = tv(got, want)
        require(d <= TV_TOL, f"{what}: TV {d:.3g} > {TV_TOL}")


def check_close(got, want, what: str, rel: float = 1e-9) -> None:
    """|got - want| <= rel * max(1, |want|)."""
    scale = max(1.0, abs(float(want)))
    require(abs(float(got) - float(want)) <= rel * scale, f"{what}: {got!r} vs {want!r}")


def policy_spec(spec: Spec) -> Spec:
    """Y2 is set to 1 whenever Y3 = 1 and follows its own mechanism otherwise."""
    tables = dict(spec.tables)
    y2 = spec.tables["Y2"].copy()
    axis = spec.parents["Y2"].index("Y3")
    index = [slice(None)] * y2.ndim
    index[axis] = 1
    y2[tuple(index)] = 0
    index[-1] = 1
    y2[tuple(index)] = 1
    tables["Y2"] = y2
    return Spec(spec.nodes, spec.parents, spec.sizes, tables)


def assumed_covariate_spec(spec: Spec, sigma: dict) -> Spec:
    """The hiring decision reads an exogenous stand-in SIGMA for S."""
    parents = dict(spec.parents)
    tables = dict(spec.tables)
    sizes = dict(spec.sizes)
    sizes["SIGMA"] = sizes["S"]
    row = np.zeros(sizes["S"], dtype=object if spec.exact else float)
    for v in range(sizes["S"]):
        row[v] = sigma.get(v, 0)
    old = list(spec.parents["H"])
    new = sorted(["SIGMA" if p == "S" else p for p in old])
    perm = [old.index("S" if p == "SIGMA" else p) for p in new]
    tables["H"] = np.transpose(spec.tables["H"], perm + [len(old)])
    parents["H"] = tuple(new)
    parents["SIGMA"] = ()
    tables["SIGMA"] = row
    return Spec(("SIGMA",) + spec.nodes, parents, sizes, tables)


# ---------------------------------------------------------------- graphs


def digraph(nodes, edges):
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return g


def backdoor_checker(nodes, edges, t, r):
    """z -> Pearl's criterion: no descendant of t in z, and z d-separates t
    and r once t's outgoing edges are removed.

    Equal to the path criterion whenever r descends from t, which every
    generated query guarantees.
    """
    import networkx as nx

    g = digraph(nodes, edges)
    below = nx.descendants(g, t)
    g.remove_edges_from(list(g.out_edges(t)))

    def valid(z) -> bool:
        require(not set(z) & below, "oracle asked about descendant conditioning")
        return nx.is_d_separator(g, {t}, {r}, set(z))

    return valid


def backdoor_valid(nodes, edges, t, r, z) -> bool:
    return backdoor_checker(nodes, edges, t, r)(z)


def merged_graph(nodes, edges, t, deleted) -> tuple:
    """t and `deleted` fused into one node that inherits all their edges."""
    cluster = set(deleted) | {t}
    star = f"{t}*"
    while star in nodes:
        star += "*"
    new_nodes = [n for n in nodes if n not in cluster] + [star]
    new_edges = set()
    for u, v in edges:
        u2 = star if u in cluster else u
        v2 = star if v in cluster else v
        if u2 != v2:
            new_edges.add((u2, v2))
    return new_nodes, sorted(new_edges), star


def path_is_open(nodes_seq, forward, edges, z) -> bool:
    """Whether one path (nodes plus per-step edge direction) is open given z."""
    z = set(z)
    for i in range(1, len(nodes_seq) - 1):
        collider = forward[i - 1] and not forward[i]
        node = nodes_seq[i]
        if collider:
            if node not in z and not (descendants(edges, node) & z):
                return False
        elif node in z:
            return False
    return True


def parse_path(text: str) -> tuple:
    """'T <- X4 -> R' -> (('T', 'X4', 'R'), (False, True))."""
    tokens = text.split()
    return tuple(tokens[0::2]), tuple(a == "->" for a in tokens[1::2])


def check_backdoor_verdict(nodes, edges, t, r, z, valid, violating) -> None:
    """`violating` lists (nodes, forward) paths reported as open."""
    want = backdoor_valid(nodes, edges, t, r, z)
    require(valid == want, f"back-door verdict {valid} but d-separation says {want}")
    require(valid == (not violating), "verdict disagrees with its violating paths")
    edge_set = set(edges)
    for seq, fwd in violating:
        require(seq[0] == t and seq[-1] == r and not fwd[0] and fwd[-1],
                f"{seq} is not a back-door path")
        require(len(set(seq)) == len(seq), f"{seq} is not simple")
        for a, b, f in zip(seq, seq[1:], fwd):
            require(((a, b) if f else (b, a)) in edge_set, f"{seq} uses a missing edge")
        require(path_is_open(seq, fwd, edges, z), f"{seq} is blocked by {sorted(z)}")


def check_minimal_sets(nodes, edges, t, r, candidates, got) -> None:
    """`got` must be exactly the inclusion-minimal valid subsets of candidates."""
    cands = sorted(candidates)
    is_valid = backdoor_checker(nodes, edges, t, r)
    valid = [
        frozenset(c)
        for size in range(len(cands) + 1)
        for c in itertools.combinations(cands, size)
        if is_valid(c)
    ]
    minimal = {s for s in valid if not any(o < s for o in valid)}
    require({frozenset(s) for s in got} == minimal, "minimal adjustment sets differ")


# ---------------------------------------------------------------- Gaussian


def gauss_moments(g) -> tuple:
    """Mean and covariance in g.nodes order: (I-B)^-1 a and (I-B)^-1 D (I-B)^-T."""
    idx = {n: i for i, n in enumerate(g.nodes)}
    k = len(g.nodes)
    b = np.zeros((k, k))
    for n, coefs in g.coefficients.items():
        for p, c in coefs.items():
            b[idx[n], idx[p]] = c
    a = np.array([g.intercepts[n] for n in g.nodes])
    d = np.diag([g.noise[n] for n in g.nodes])
    inv = np.linalg.inv(np.eye(k) - b)
    return inv @ a, inv @ d @ inv.T


def gauss_condition(mean, cov, names, on: dict) -> tuple:
    drop = [names.index(n) for n in sorted(on)]
    keep = [i for i in range(len(names)) if i not in drop]
    s_kd = cov[np.ix_(keep, drop)]
    s_dd = cov[np.ix_(drop, drop)]
    vals = np.array([on[n] for n in sorted(on)])
    gain = np.linalg.solve(s_dd, s_kd.T).T
    return (
        [names[i] for i in keep],
        mean[keep] + gain @ (vals - mean[drop]),
        cov[np.ix_(keep, keep)] - gain @ s_kd.T,
    )


def check_gauss(law, names, mean, cov, what: str, tol: float = 1e-9) -> None:
    """Compare a program GaussianLaw with reference moments over `names`."""
    require(set(law.order) == set(names), f"{what}: node sets differ")
    perm = [law.order.index(n) for n in names]
    got_mean = np.asarray(law.mean)[perm]
    got_cov = np.asarray(law.covariance)[np.ix_(perm, perm)]
    scale = max(1.0, float(np.abs(cov).max()), float(np.abs(mean).max()))
    err = max(float(np.abs(got_mean - mean).max()), float(np.abs(got_cov - cov).max()))
    require(err <= tol * scale, f"{what}: moment error {err:.3g}")


# ---------------------------------------------------------------- digit streams

_MASK64 = (1 << 64) - 1


def digit(seed: int, base: int, position: int) -> int:
    """SplitMix64 finalizer of seed + position * golden gamma, reduced mod base."""
    z = (seed + position * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % base


def uniform(seed: int, row: int, draw: int, precision: int = 16, base: int = 10) -> Fraction:
    """Exact value of draw `draw` (0-based) of diagonal row `row` (1-based).

    The row reads positions T(row + c - 1) - (row - 1), c = 1, 2, ..., with
    T the triangular numbers; a draw is `precision` consecutive digits.
    """
    out = Fraction(0)
    for k in range(precision):
        m = row + draw * precision + k
        out += Fraction(digit(seed, base, m * (m + 1) // 2 - (row - 1)), base ** (k + 1))
    return out


def topo_order(spec_nodes, edges) -> list:
    """Parents first, ties broken by identifier, as the sampler documents."""
    nodes = sorted(spec_nodes, key=str)
    indeg = {n: 0 for n in nodes}
    children = {n: [] for n in nodes}
    for p, c in edges:
        indeg[c] += 1
        children[p].append(c)
    frontier = sorted((n for n in nodes if indeg[n] == 0), key=str)
    order = []
    while frontier:
        n = frontier.pop(0)
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
        frontier.sort(key=str)
    return order


class SampleReference:
    """Rows of the documented sampler, computed one row at a time."""

    AMBIGUOUS = 1e-12

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.order = topo_order(spec.nodes, spec.edges)
        self.cum = {}
        for n in spec.nodes:
            table = spec.tables[n]
            cum = np.empty(table.shape)
            for cfg in itertools.product(*[range(s) for s in table.shape[:-1]]):
                run, acc = 0.0, []
                for p in table[cfg]:
                    run += float(p)
                    acc.append(run)
                cum[cfg] = acc
            self.cum[n] = cum

    def row(self, i: int):
        """Row i as {node: value}, or None when a draw sits on a threshold."""
        values = {}
        for j, node in enumerate(self.order):
            u = uniform(self.seed, j + 1, i)
            cfg = tuple(values[p] for p in self.spec.parents[node])
            thresholds = self.cum[node][cfg]
            if any(abs(float(u) - t) < self.AMBIGUOUS for t in thresholds):
                return None
            hit = next((k for k, t in enumerate(thresholds) if t >= u), len(thresholds) - 1)
            values[node] = hit
        return values


def check_sample_rows(spec: Spec, seed: int, columns, rows_at, n: int, head: int = 12) -> int:
    """Compare a head and a tail slice of n rows with the reference.

    `rows_at(i)` returns row i as a tuple in `columns` order.  Returns the
    number of rows compared.
    """
    ref = SampleReference(spec, seed)
    require(list(columns) == ref.order, "sample columns are not in topological order")
    checked = 0
    for i in sorted(set(range(min(head, n))) | set(range(max(0, n - head), n))):
        want = ref.row(i)
        if want is None:
            continue
        got = dict(zip(columns, rows_at(i)))
        require(got == want, f"sampled row {i}: {got} != {want}")
        checked += 1
    return checked


def lg_reference_row(g, seed: int, i: int) -> dict:
    """Row i of the documented linear-Gaussian sampler (float inverse CDF)."""
    from scipy.special import ndtri

    order = topo_order(g.nodes, [(p, n) for n in g.nodes for p in g.parents[n]])
    top = np.nextafter(1.0, 0.0)
    values = {}
    for j, node in enumerate(order):
        u = min(max(float(uniform(seed, j + 1, i)), 5e-17), top)
        x = g.intercepts[node] + np.sqrt(g.noise[node]) * float(ndtri(u))
        for p, c in g.coefficients[node].items():
            x += c * values[p]
        values[node] = x
    return values
