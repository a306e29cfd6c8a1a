"""Linear-Gaussian structural models with exact moment algebra.

A linear-Gaussian SCM assigns each node an intercept, one coefficient per
parent, and an independent normal disturbance.  The joint law is then
multivariate normal, so observational conditioning and interventions both
have closed forms: forward propagation gives the moments, Schur complements
give conditionals, and interventions just freeze a node at a constant.
Seeded samples turn digit-stream uniforms into normal disturbances through
``scipy.special.ndtri``, imported on the first draw, so importing this module
loads numpy but no scipy.

Two packaged models cover the continuous treatment/response examples: a
dose-response system whose observed regression slope can flip sign against
the causal slope, and a pre/post measurement model where the two groups show
identical gain laws despite different direct effects.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import InvalidArgumentError, Record, SingularConditioningError
from .exogenous import DigitStream, uniforms_at
from .graph import Dag, topological_order
from .scm import Dataset

__all__ = [
    "GaussianLaw",
    "LinearGaussianScm",
    "lg_condition",
    "lg_intervene",
    "lg_moments",
    "lg_sample",
    "lord_component",
    "norm_ppf",
    "simpson_cont_model",
]

_CORRELATION_FLOOR = 1e-12  # least eigenvalue of a non-singular block rescaled to unit diagonal
_EIGEN_FLOOR = -1e-9  # least eigenvalue allowed per unit of the largest source variance
_CERTIFIED_SIZE = 500  # largest law whose Cholesky certificate is trusted; see GaussianLaw


class LinearGaussianScm(Record):
    """Structural equations ``X_i = a_i + sum_j c_ij X_j + N(0, s_i^2)``.

    `coefficients[node]` maps each parent of `node` to its weight; the key
    set must equal the parent set from the graph.  Noise variances may be
    zero (deterministic nodes) but never negative, and every parameter must
    be finite.
    """

    __slots__ = ("dag", "intercepts", "coefficients", "noise_vars")

    def __init__(self, dag: Dag, intercepts: Mapping[str, float],
                 coefficients: Mapping[str, Mapping[str, float]], noise_vars: Mapping[str, float]):
        topological_order(dag)
        for node in dag.nodes:
            for box, label in (
                (intercepts, "intercept"),
                (coefficients, "coefficients"),
                (noise_vars, "noise variance"),
            ):
                if node not in box:
                    raise InvalidArgumentError(f"missing {label} for {node!r}")
            coefs = coefficients[node]
            if set(coefs) != set(dag.parents(node)):
                raise InvalidArgumentError(
                    f"coefficients of {node!r} must cover exactly its parents"
                )
            for label, value in (
                ("intercept", intercepts[node]),
                *((f"coefficient of {p!r}", c) for p, c in coefs.items()),
                ("noise variance", noise_vars[node]),
            ):
                if not math.isfinite(value):
                    raise InvalidArgumentError(f"non-finite {label} at {node!r}: {value}")
            if noise_vars[node] < 0:
                raise InvalidArgumentError(f"negative noise variance at {node!r}")
        Record.__init__(self, dag, intercepts, coefficients, noise_vars)


class GaussianLaw(Record):
    """A multivariate normal law over named nodes.

    `_scale`, which is not a field, gives the variances of the law the
    covariance was computed from: rounding there sets both tolerances.  A
    law built directly uses its own.  With s the largest of those variances,
    the covariance may be asymmetric by at most 1e-9 * |s| per entry, and the
    least eigenvalue of its symmetric part S may lie below 0 by at most
    1e-9 * s (the floor f).  So both tolerances are relative to scale, and an
    exactly symmetric matrix never fails the first.

    The eigenvalue test first tries a certificate: if `np.linalg.cholesky`
    runs to completion on S + (|f|/2) I, the law is accepted.  The computed
    factor is exact for S + (|f|/2) I + E with |E| <= (n+1) u |R^T||R|
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 10.3), so ||E||_2 <= about n^2 u s for n nodes and unit roundoff
    u = 2^-53, since S's diagonal is at most s (a conditional law's
    variances are at most those it was computed from), and the least
    eigenvalue of S is at least -|f|/2 - n^2 u s.  `eigvalsh` computes each
    eigenvalue to within about n^2 u s as well (Weyl's bound; Demmel,
    *Applied Numerical Linear Algebra*, 5.2), so it reads at least
    -|f|/2 - 2 n^2 u s, which is above f while
    2 n^2 u s < |f|/2, that is n < 1,500.  `_CERTIFIED_SIZE` (500) keeps a
    factor of 9 for the constants.  When the factorization fails, or the law
    is larger, `eigvalsh(S).min() < f` decides, so the verdict is always the
    one `eigvalsh` alone would give.
    """

    __slots__ = ("order", "mean", "covariance")

    def __init__(self, order: tuple[str, ...], mean: np.ndarray, covariance: np.ndarray,
                 _scale: np.ndarray | None = None):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(covariance, dtype=float)
        order = tuple(order)
        k = len(order)
        if mean.shape != (k,) or cov.shape != (k, k):
            raise InvalidArgumentError("mean/covariance shapes do not match order")
        for name, values in (("mean", mean), ("covariance", cov)):
            if not np.isfinite(values).all():
                at = ", ".join(repr(order[i]) for i in np.argwhere(~np.isfinite(values))[0])
                raise InvalidArgumentError(f"non-finite {name} at {at}")
        if k:
            floor = _EIGEN_FLOOR * float(np.max(cov.diagonal() if _scale is None else _scale))
            if (abs(cov - cov.T) > abs(floor)).any():
                raise InvalidArgumentError("covariance must be symmetric")
            sym = (cov + cov.T) / 2
            certified = k <= _CERTIFIED_SIZE and _cholesky_certifies(sym, abs(floor) / 2)
            if not certified and float(np.linalg.eigvalsh(sym).min()) < floor:
                raise InvalidArgumentError("covariance must be positive semidefinite")
        Record.__init__(self, order, mean, cov)

    def index(self, node: str) -> int:
        try:
            return self.order.index(node)
        except ValueError:
            raise InvalidArgumentError(f"unknown node {node!r}") from None

    def mean_of(self, node: str) -> float:
        return float(self.mean[self.index(node)])

    def var_of(self, node: str) -> float:
        i = self.index(node)
        return float(self.covariance[i, i])

    def cov_of(self, a: str, b: str) -> float:
        return float(self.covariance[self.index(a), self.index(b)])


def _cholesky_certifies(sym: np.ndarray, shift: float) -> bool:
    """Whether `sym + shift * I` has a Cholesky factor in floating point."""
    shifted = sym.copy()
    shifted.flat[:: len(sym) + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def lg_moments(model: LinearGaussianScm) -> GaussianLaw:
    """Exact mean vector and covariance matrix by forward propagation."""
    order = topological_order(model.dag)
    pos = {n: i for i, n in enumerate(order)}
    k = len(order)
    mean = []
    cov = np.zeros((k, k))
    for i, node in enumerate(order):
        coefs = model.coefficients[node]
        mean.append(float(model.intercepts[node] + sum(c * mean[pos[p]] for p, c in coefs.items())))
        # Row i against every earlier node, one numpy step per parent in the
        # order `sum` took them; float(c) * x is what Fraction * float does.
        row = np.zeros(i)
        for p, c in coefs.items():
            row = row + float(c) * cov[pos[p], :i]
        cov[i, :i] = row
        cov[:i, i] = row
        cov[i, i] = model.noise_vars[node] + sum(
            ca * cb * cov.item(pos[pa], pos[pb])
            for pa, ca in coefs.items()
            for pb, cb in coefs.items()
        )
    return GaussianLaw(tuple(order), mean, cov)


def lg_condition(law: GaussianLaw, on: Mapping[str, float]) -> GaussianLaw:
    """Condition a normal law on exact values for some of its nodes."""
    if not on:
        return law
    drop = [law.index(n) for n in sorted(on)]
    dropped = set(drop)
    keep = [i for i in range(len(law.order)) if i not in dropped]
    if not keep:
        raise InvalidArgumentError("conditioning on every node leaves no law")
    values = np.array([float(on[law.order[i]]) for i in drop])
    s_kk = law.covariance[np.ix_(keep, keep)]
    s_kd = law.covariance[np.ix_(keep, drop)]
    s_dd = law.covariance[np.ix_(drop, drop)]
    # Rescaled to unit diagonal, the test does not depend on units; a zero variance is singular.
    var = np.diag(s_dd)
    unit = s_dd / np.sqrt(np.outer(var, var)) if (var > 0).all() else np.zeros_like(s_dd)
    if np.linalg.eigvalsh(unit).min() <= _CORRELATION_FLOOR:
        raise SingularConditioningError(f"conditioning block {sorted(on)} is singular")
    gain = s_kd @ np.linalg.inv(s_dd)
    mean = law.mean[keep] + gain @ (values - law.mean[drop])
    cov = s_kk - gain @ s_kd.T
    cov = (cov + cov.T) / 2
    return GaussianLaw(tuple(law.order[i] for i in keep), mean, cov, np.diag(s_kk))


def lg_intervene(
    model: LinearGaussianScm, node: str, value: float
) -> LinearGaussianScm:
    """Freeze `node` at `value`: no parents, zero noise, downstream intact."""
    if node not in model.dag.nodes:
        raise InvalidArgumentError(f"unknown node {node!r}")
    dag = Dag(model.dag.nodes, [(u, v) for u, v in model.dag.edges if v != node])
    intercepts = dict(model.intercepts)
    intercepts[node] = float(value)
    coefficients = {n: dict(c) for n, c in model.coefficients.items()}
    coefficients[node] = {}
    noise = dict(model.noise_vars)
    noise[node] = 0.0
    return LinearGaussianScm(dag, intercepts, coefficients, noise)


def norm_ppf(p):
    """Standard-normal quantile for ``0 < p < 1`` (scalar or array).

    The values are ``scipy.special.ndtri``'s; a scalar gives a float.
    """
    arr = np.asarray(p, dtype=float)
    # Written so that nan fails it too.
    if arr.size and not (0.0 < arr.min() and arr.max() < 1.0):
        raise InvalidArgumentError("quantile argument must lie strictly in (0, 1)")
    from scipy.special import ndtri

    x = ndtri(arr)
    return float(x) if arr.ndim == 0 else x


def lg_sample(model: LinearGaussianScm, source: DigitStream, n: int) -> Dataset:
    """Draw `n` joint rows by ancestral sampling with inverse-CDF normals."""
    if n < 0:
        raise InvalidArgumentError("sample size must be non-negative")
    order = topological_order(model.dag)
    columns: dict[str, np.ndarray] = {}
    top = np.nextafter(1.0, 0.0)
    for j, node in enumerate(order):
        u = np.clip(uniforms_at(source, j + 1, 0, n), 5e-17, top)
        noise = math.sqrt(model.noise_vars[node]) * norm_ppf(u)
        x = model.intercepts[node] + noise
        for parent, c in model.coefficients[node].items():
            x = x + c * columns[parent]
        columns[node] = x
    # Popping each column as it is listed keeps one copy of the values alive.
    return Dataset(tuple(order), list(zip(*(columns.pop(nd).tolist() for nd in order))))


def _require_positive(**named: float) -> None:
    for name, value in named.items():
        if not value > 0:
            raise InvalidArgumentError(f"{name} must be positive, got {value}")


def simpson_cont_model(
    alpha: float,
    beta: float,
    gamma: float,
    mu: float,
    sigma1: float,
    sigma2: float,
    sigma3: float,
) -> LinearGaussianScm:
    """Dose-response system: covariate X, treatment level T, response R.

    X feeds both the treatment assignment and the response; the response
    gains alpha per unit of X and loses beta per unit of T.
    """
    _require_positive(
        alpha=alpha, beta=beta, gamma=gamma, sigma1=sigma1, sigma2=sigma2, sigma3=sigma3
    )
    var_x = sigma2**2 + 2 * gamma**2 * sigma3**2
    sd_x = math.sqrt(var_x)
    dag = Dag(("X", "T", "R"), (("X", "T"), ("X", "R"), ("T", "R")))
    return LinearGaussianScm(
        dag,
        intercepts={
            "X": gamma * mu,
            "T": mu - sigma3 * gamma * mu / sd_x,
            "R": 0.0,
        },
        coefficients={"X": {}, "T": {"X": sigma3 / sd_x}, "R": {"X": alpha, "T": -beta}},
        noise_vars={"X": var_x, "T": sigma3**2, "R": sigma1**2},
    )


def lord_component(mu_t: float, sigma: float, rho: float) -> LinearGaussianScm:
    """One group of the pre/post model: score X, retest R, gain G = R - X."""
    dag = Dag(("X", "R", "G"), (("X", "R"), ("X", "G"), ("R", "G")))
    return LinearGaussianScm(
        dag,
        intercepts={"X": mu_t, "R": (1 - rho) * mu_t, "G": 0.0},
        coefficients={"X": {}, "R": {"X": rho}, "G": {"X": -1.0, "R": 1.0}},
        noise_vars={"X": sigma**2, "R": (1 - rho**2) * sigma**2, "G": 0.0},
    )
