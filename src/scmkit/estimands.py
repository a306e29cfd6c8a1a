"""Further named estimands over observational tables and datasets.

Covers the two-stage direct effect, the test-and-treat policy law, hiring
mediation under an assumed covariate, the natural indirect effect, the
instrumental-variable family (binary ratio, multi-level aggregate, and
two-stage least squares), and stratified odds ratios computed by two
algebraically equivalent routes.

As in :mod:`scmkit.identify`, each formula call asks for all of its
factors and supports at once, and reads its joint table in one pass, or
one pass per distinct set of pinned given nodes over that slice
(`two_stage_direct` pins Y2 and Y4); role bindings and figure shapes go
through the same binder and shape check.
"""

from __future__ import annotations

from typing import Mapping

from .errors import InvalidArgumentError, PositivityError, Record, WeakInstrumentError
from .graph import Dag
from .identify import _bind, _factors, _require_shape
from .scm import POSITIVITY_CUTOFF, Dataset, JointTable

__all__ = [
    "IvResult",
    "OddsRatioReport",
    "antibiotic_policy",
    "iv_multi",
    "iv_theta",
    "iv_tsls",
    "mediation_fixed_sex",
    "natural_indirect",
    "odds_ratio",
    "two_stage_direct",
]

_DENOM_FLOOR = 1e-12


class IvResult(Record):
    """Instrumental-variable ratio with its ingredients.

    For the multi-level form, `theta` is the overall weighted aggregate,
    `thetas` the per-level ratios, and `weights` their mixing weights.
    For the least-squares form, `first_stage` and `reduced_form` hold the
    two auxiliary regression slopes whose ratio reproduces `theta`.
    """

    __slots__ = ("theta", "numerator", "denominator", "valid", "thetas", "weights", "first_stage",
                 "reduced_form")

    def __init__(self, theta, numerator, denominator, valid: bool, thetas: tuple | None = None,
                 weights: tuple | None = None, first_stage=None, reduced_form=None):
        if valid:
            want = float(numerator) / float(denominator)
            if abs(float(theta) - want) > 1e-9 * max(1.0, abs(want)):
                raise InvalidArgumentError("ratio inconsistent with its parts")
        Record.__init__(self, theta, numerator, denominator, valid, thetas, weights, first_stage,
                              reduced_form)


class OddsRatioReport(Record):
    """Per-stratum odds ratios, plus the case-side average.

    `per_x[x]` holds p (exposure rate among responders), q (among
    non-responders), and the ratio.  Exact reports carry the ratio via
    both the response-odds and exposure-odds routes, which must agree;
    estimated reports carry only the exposure route.  `overall` is None
    when no stratum survived estimation.
    """

    __slots__ = ("per_x", "overall", "warnings")

    def __init__(self, per_x: Mapping, overall: float | None, warnings: tuple = ()):
        for x, cell in per_x.items():
            if "ratio_response_odds" not in cell:
                continue
            a = float(cell["ratio_response_odds"])
            b = float(cell["ratio_exposure_odds"])
            if abs(a - b) > 1e-12 * max(1.0, abs(a)):
                raise InvalidArgumentError(
                    f"odds-ratio routes disagree in stratum {x!r}"
                )
        Record.__init__(self, per_x, overall, warnings)


def _mean(dist: Mapping):
    """Mean of a value -> probability mapping; None for non-numeric values."""
    try:
        return sum(v * p for v, p in dist.items())
    except TypeError:
        return None


def _require_binary(values, node: str) -> None:
    if not set(values) <= {0, 1}:
        raise InvalidArgumentError(f"{node!r} must take values in {{0, 1}}")


_TWO_STAGE_ROLES = ("Y1", "Y2", "Y3", "Y4")
# U is the latent node.  The policy needs the edge Y4 -> Y2, which the
# direct effect allows but does not require.
_TWO_STAGE_SHAPE = (
    ("Y2", "Y1"), ("Y4", "Y1"), ("U", "Y1"), ("Y3", "Y2"), ("Y4", "Y3"), ("U", "Y3")
)
_TWO_STAGE_EDGE_SHAPE = _TWO_STAGE_SHAPE + (("Y4", "Y2"),)


def two_stage_direct(
    joint: JointTable,
    roles: Mapping[str, str],
    y2_val,
    t,
    dag: Dag | None = None,
) -> dict:
    """Direct effect of the first treatment with the second held fixed.

    p_t(y) = sum over y3 of P(Y1=y | Y2=y2, Y3=y3, Y4=t) P(Y3=y3 | Y4=t),
    returned with its mean (None when Y1 is not numeric).
    """
    bound = _bind(roles, _TWO_STAGE_ROLES, joint.order)
    _require_shape(
        dag, bound, [_TWO_STAGE_EDGE_SHAPE, _TWO_STAGE_SHAPE], "two-stage", latent=("U",)
    )
    y1_n, y2_n, y3_n, y4_n = bound.values()
    (y1_law, y3_law), _ = _factors(joint, [((y1_n,), (y2_n, y3_n, y4_n), {y2_n: y2_val, y4_n: t}),
                                           ((y3_n,), (y4_n,), {y4_n: t})])
    law: dict = {}
    for y3, w in y3_law(t).items():
        if w <= POSITIVITY_CUTOFF:
            continue
        for y, p in y1_law(y2_val, y3, t).items():
            law[y] = law.get(y, 0) + w * p
    return {"law": law, "mean": _mean(law)}


def antibiotic_policy(
    joint: JointTable, roles: Mapping[str, str], dag: Dag | None = None
) -> dict:
    """Law of recovery under "treat every positive test", from observables.

    P(recovery = y1 | severity = y4) under the policy equals
    P(Y1=y1, Y3=0 | Y4=y4) + P(Y1=y1 | Y2=1, Y3=1, Y4=y4) P(Y3=1 | Y4=y4).
    Also reports per-severity means and whether the mean at y4=1 is below
    the mean at y4=0.
    """
    bound = _bind(roles, _TWO_STAGE_ROLES, joint.order)
    _require_shape(dag, bound, [_TWO_STAGE_EDGE_SHAPE], "two-stage", latent=("U",))
    y1_n, y2_n, y3_n, y4_n = bound.values()
    (pair_law, treated_law), (y2_values, y3_values, y1_values, y4_values) = _factors(
        joint,
        [((y1_n, y3_n), (y4_n,)), ((y1_n,), (y2_n, y3_n, y4_n))],
        (y2_n, y3_n, y1_n, y4_n),
    )
    _require_binary(y2_values, y2_n)
    _require_binary(y3_values, y3_n)
    law: dict = {}
    means: dict = {}
    for y4 in y4_values:
        pair = pair_law(y4)
        p3 = sum(p for (y1, y3), p in pair.items() if y3 == 1)
        treated: dict = {}
        if p3 > POSITIVITY_CUTOFF:
            treated = treated_law(1, 1, y4)
        per_y4 = {}
        for y1 in y1_values:
            value = pair.get((y1, 0), 0) + treated.get(y1, 0) * p3
            law[y1, y4] = value
            per_y4[y1] = value
        means[y4] = _mean(per_y4)
    comparison = None
    if 0 in means and 1 in means and None not in (means[0], means[1]):
        comparison = bool(means[1] < means[0])
    return {"law": law, "means": means, "mean_at_1_lower": comparison}


_HIRING_ROLES = ("H", "B", "Q", "S")
_HIRING_SHAPE = (("S", "B"), ("S", "Q"), ("S", "H"), ("B", "Q"), ("B", "H"), ("Q", "H"))


def mediation_fixed_sex(
    joint: JointTable,
    roles: Mapping[str, str],
    sigma_dist: Mapping,
    dag: Dag | None = None,
) -> dict:
    """Hiring law when the decision sees an assumed covariate drawn from
    `sigma_dist` in place of the real one: mapping (h, b, q) ->
    sum over s' of P(H=h | B=b, Q=q, S=s') sigma_dist(s')."""
    bound = _bind(roles, _HIRING_ROLES, joint.order)
    _require_shape(dag, bound, [_HIRING_SHAPE], "hiring")
    h_n, b_n, q_n, s_n = bound.values()
    total = sum(sigma_dist.values())
    if abs(total - 1) > 1e-12:
        raise InvalidArgumentError(f"assumed-covariate weights sum to {total!r}")
    support = [s for s, w in sigma_dist.items() if w > 0]
    if not support:
        raise InvalidArgumentError("assumed-covariate law has empty support")
    (h_law, bq), _ = _factors(joint, [((h_n,), (b_n, q_n, s_n)), ((b_n, q_n), ())])
    out: dict = {}
    bq = bq()
    for (b, q), mass in sorted(bq.items(), key=lambda kv: str(kv[0])):
        if mass <= POSITIVITY_CUTOFF:
            continue
        law: dict = {}
        for s in support:
            for h, p in h_law(b, q, s).items():
                law[h] = law.get(h, 0) + sigma_dist[s] * p
        for h, p in law.items():
            out[h, b, q] = p
    return out


def natural_indirect(
    joint: JointTable, roles: Mapping[str, str], dag: Dag | None = None
):
    """Indirect effect through background and qualifications:

    sum over (b, q) of E(H | B=b, Q=q, S=1) (P(b, q | S=0) - P(b, q | S=1)).
    """
    bound = _bind(roles, _HIRING_ROLES, joint.order)
    _require_shape(dag, bound, [_HIRING_SHAPE], "hiring")
    h_n, b_n, q_n, s_n = bound.values()
    (bq_law, h_law), (s_values,) = _factors(
        joint, [((b_n, q_n), (s_n,)), ((h_n,), (b_n, q_n, s_n))], (s_n,)
    )
    if set(s_values) != {0, 1}:
        raise InvalidArgumentError(f"{s_n!r} must take both values 0 and 1")
    w0, w1 = bq_law(0), bq_law(1)
    total = 0
    for key in sorted(set(w0) | set(w1), key=str):
        p0 = w0.get(key, 0)
        p1 = w1.get(key, 0)
        if p0 <= POSITIVITY_CUTOFF and p1 <= POSITIVITY_CUTOFF:
            continue
        b, q = key
        h_mean = _mean(h_law(b, q, 1))
        if h_mean is None:
            raise InvalidArgumentError(f"{h_n!r} must be numeric")
        total += h_mean * (p0 - p1)
    return total


_IV_ROLES = ("I", "T", "R")


def _level_means(levels, *laws) -> list:
    """E(node | level) at every level, for each lookup of P(node | level)."""
    means = [{i: _mean(law(i)) for i in levels} for law in laws]
    if any(None in m.values() for m in means):
        raise InvalidArgumentError("treatment and response must be numeric")
    return means


def iv_theta(source, roles: Mapping[str, str]) -> IvResult:
    """Instrumental ratio {E(R|I=1)-E(R|I=0)} / {E(T|I=1)-E(T|I=0)}.

    Accepts an exact joint table (expectations computed exactly) or a
    dataset (sample averages).
    """
    if isinstance(source, Dataset):
        import numpy as np

        i_n, t_n, r_n = _bind(roles, _IV_ROLES, source.columns, "dataset").values()
        i, t, r = (np.asarray(source.column(n), dtype=float) for n in (i_n, t_n, r_n))
        if not set(np.unique(i)) <= {0.0, 1.0}:
            raise InvalidArgumentError(f"{i_n!r} must take values in {{0, 1}}")
        if not ((i == 0).any() and (i == 1).any()):
            raise InvalidArgumentError("both instrument arms must be present")
        numerator = float(r[i == 1].mean() - r[i == 0].mean())
        denominator = float(t[i == 1].mean() - t[i == 0].mean())
    else:
        i_n, t_n, r_n = _bind(roles, _IV_ROLES, source.order).values()
        (t_law, r_law), (i_values, t_values) = _factors(
            source, [((t_n,), (i_n,)), ((r_n,), (i_n,))], (i_n, t_n)
        )
        _require_binary(i_values, i_n)
        _require_binary(t_values, t_n)
        t_means, r_means = _level_means(i_values, t_law, r_law)
        if set(t_means) != {0, 1}:
            raise InvalidArgumentError("both instrument arms need positive mass")
        numerator = r_means[1] - r_means[0]
        denominator = t_means[1] - t_means[0]
    if abs(float(denominator)) <= _DENOM_FLOOR:
        raise WeakInstrumentError(
            "instrument does not move the treatment (denominator ~ 0)"
        )
    return IvResult(
        theta=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        valid=True,
    )


def iv_multi(joint: JointTable, roles: Mapping[str, str], i0=None) -> IvResult:
    """Per-level instrumental ratios against a base level, plus the
    weighted aggregate.

    theta_k = {E(R|I=i_k)-E(R|I=i0)} / {E(T|I=i_k)-E(T|I=i0)}; the weights
    are p_k proportional to P(I=i_k) {E(T|I=i_k)-E(T|I=i0)} and sum to 1.
    The base level `i0` must be the smallest instrument value, which is
    also its default.
    """
    i_n, t_n, r_n = _bind(roles, _IV_ROLES, joint.order).values()
    (t_law, r_law, p_i), (i_values,) = _factors(
        joint, [((t_n,), (i_n,)), ((r_n,), (i_n,)), ((i_n,), ())], (i_n,)
    )
    t_means, r_means = _level_means(i_values, t_law, r_law)
    values = list(t_means)
    if i0 is None:
        i0 = values[0]
    if i0 not in values:
        raise InvalidArgumentError(f"base level {i0!r} not in instrument support")
    if i0 != values[0]:
        raise InvalidArgumentError("base level must be the smallest instrument value")
    others = values[1:]
    p_i = p_i()
    if not others:
        raise InvalidArgumentError("instrument needs at least two levels")
    thetas = []
    raw = []
    numerator = 0
    for k, ik in enumerate(others, start=1):
        num = r_means[ik] - r_means[i0]
        den = t_means[ik] - t_means[i0]
        if abs(float(den)) <= _DENOM_FLOOR:
            raise WeakInstrumentError(
                f"level {k} ({ik!r}) does not move the treatment"
            )
        thetas.append(num / den)
        raw.append(p_i[ik] * den)
        numerator = numerator + p_i[ik] * num
    denominator = sum(raw)
    if abs(float(denominator)) <= _DENOM_FLOOR:
        raise WeakInstrumentError("aggregate weight denominator ~ 0")
    weights = tuple(w / denominator for w in raw)
    theta = sum(t * w for t, w in zip(thetas, weights))
    return IvResult(
        theta=theta,
        numerator=numerator,
        denominator=denominator,
        valid=True,
        thetas=tuple(thetas),
        weights=weights,
    )


def iv_tsls(dataset: Dataset, roles: Mapping[str, str]) -> IvResult:
    """Covariance-ratio estimator with its two-regression decomposition.

    Returns theta = cov(I, R)/cov(I, T), the first-stage slope
    cov(I, T)/var(I), and the reduced-form slope cov(I, R)/var(I); their
    ratio reproduces theta by construction.  The instrument is centered
    internally.
    """
    import numpy as np

    i_n, t_n, r_n = _bind(roles, _IV_ROLES, dataset.columns, "dataset").values()
    i, t, r = (np.asarray(dataset.column(n), dtype=float) for n in (i_n, t_n, r_n))
    if len(i) < 2:
        raise InvalidArgumentError("need at least two rows")
    i = i - i.mean()
    cov_it = float(np.mean(i * (t - t.mean())))
    cov_ir = float(np.mean(i * (r - r.mean())))
    var_i = float(np.mean(i * i))
    if abs(cov_it) <= _DENOM_FLOOR:
        raise WeakInstrumentError("sample covariance of instrument and treatment ~ 0")
    return IvResult(
        theta=cov_ir / cov_it,
        numerator=cov_ir,
        denominator=cov_it,
        valid=True,
        first_stage=cov_it / var_i,
        reduced_form=cov_ir / var_i,
    )


# Covariate, exposure and response; case-control sampling binds the same.
_ODDS_ROLES = ("X", "T", "R")


def odds_ratio(joint: JointTable, roles: Mapping[str, str]) -> OddsRatioReport:
    """Stratified odds ratio computed by both routes.

    Response route: odds of R=1 under exposure over odds of R=1 without.
    Exposure route: with p = P(T=1|R=1,x) and q = P(T=1|R=0,x),
    e(x) = p(1-q) / (q(1-p)).  Overall measure: E[e(X) | R=1].
    """
    # Response first, the order its binding errors have always named.
    r_n, t_n, x_n = _bind(roles, _ODDS_ROLES[::-1], joint.order).values()
    (cells_law, r_law, t_law, x_law), (r_values, t_values, x_values) = _factors(
        joint,
        [((r_n, t_n), (x_n,)), ((r_n,), (t_n, x_n)), ((t_n,), (r_n, x_n)), ((x_n,), (r_n,))],
        (r_n, t_n, x_n),
    )
    _require_binary(r_values, r_n)
    _require_binary(t_values, t_n)
    per_x: dict = {}
    for x in x_values:
        cells = cells_law(x)
        for r in (0, 1):
            for t in (0, 1):
                if cells.get((r, t), 0) <= POSITIVITY_CUTOFF:
                    raise PositivityError(
                        f"empty cell ({t_n}={t}, {r_n}={r}) in stratum {x_n}={x!r}"
                    )
        r1 = r_law(1, x)[1]
        r0 = r_law(0, x)[1]
        via_response = (r1 / (1 - r1)) / (r0 / (1 - r0))
        p = t_law(1, x)[1]
        q = t_law(0, x)[1]
        via_exposure = (p * (1 - q)) / (q * (1 - p))
        per_x[x] = {
            "p": p,
            "q": q,
            "ratio_response_odds": via_response,
            "ratio_exposure_odds": via_exposure,
        }
    case_x = x_law(1)
    overall = sum(
        per_x[x]["ratio_exposure_odds"] * case_x.get(x, 0) for x in per_x
    )
    return OddsRatioReport(per_x=per_x, overall=float(overall))
