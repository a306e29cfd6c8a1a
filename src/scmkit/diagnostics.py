"""Stratification-based model checks on collected datasets.

If the rows are independent draws from one fixed law, then inside every
stratum of rows sharing the same covariates and treatment the responses
are exchangeable, so splitting a stratum's rows into contiguous index
blocks and comparing the blocks' empirical response distributions should
produce p-values that look like a sample of uniforms.  A second pass
applies the same idea to the treatment distributions within each
covariate stratum.  Systematic index effects (drift, batch changes,
index-correlated hidden covariates) show up as small p-values or as a
failed uniformity check.

Multiple-testing correction is deliberately left to the caller: the
report carries the raw p-values, a Bonferroni-style minimum-p alarm, and
the uniformity check.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

from .errors import InvalidArgumentError, Record
from .scm import Dataset

__all__ = [
    "HomogeneityReport",
    "SplitStratum",
    "StratumReport",
    "homogeneity_report",
    "stratify_split",
    "uniformity_check",
]

# Cells are pooled until each expected count reaches this level.
EXPECTED_MIN = 5.0

# Adjacent blocks enter a test only when both have at least this many rows.
MIN_BLOCK_ROWS = 2


class SplitStratum(Record):
    """One stratum's rows and their contiguous index blocks.

    `key` is (covariate configuration, treatment value), with None in
    the treatment slot for covariate-only strata.  `blocks` holds
    `group_count * k` row-index tuples: without a secondary index the
    single group is the k-way split of the rows in collection order;
    with one, each primary block is re-ordered by the secondary column
    and split again, giving k leaf blocks per primary block.
    """

    __slots__ = ("key", "indices", "blocks", "group_count", "too_small")

    def __init__(self, key: tuple, indices: tuple, blocks: tuple, group_count: int,
                 too_small: bool):
        Record.__init__(self, key, indices, blocks, group_count, too_small)


class StratumReport(Record):
    """One adjacent-block comparison inside one stratum.

    `compares` is "responses" or "treatments"; `pair` holds the positions
    of the two blocks in the stratum's block list.
    """

    __slots__ = ("key", "compares", "pair", "left_counts", "right_counts", "statistic", "pvalue")

    def __init__(self, key: tuple, compares: str, pair: tuple, left_counts: dict,
                 right_counts: dict, statistic: float, pvalue: float):
        if not 0.0 <= pvalue <= 1.0:
            raise InvalidArgumentError(f"p-value {pvalue!r} outside [0, 1]")
        Record.__init__(self, key, compares, pair, left_counts, right_counts, statistic, pvalue)


class HomogeneityReport(Record):
    """All block comparisons plus the pooled uniformity check.

    `pvalues[i]` belongs to `reports[i]`.  The alarm fires when the
    smallest p-value crosses threshold / number-of-tests or when the
    uniformity p-value crosses the threshold.
    """

    __slots__ = ("reports", "pvalues", "uniformity_statistic", "uniformity_pvalue", "threshold",
                 "alarm", "warnings")

    def __init__(self, reports: tuple, pvalues: tuple, uniformity_statistic: float | None,
                 uniformity_pvalue: float | None, threshold: float, alarm: bool,
                 warnings: tuple = ()):
        if len(reports) != len(pvalues):
            raise InvalidArgumentError("reports and p-values must align")
        Record.__init__(self, reports, pvalues, uniformity_statistic, uniformity_pvalue, threshold,
                              alarm, warnings)


def _chunks(seq: list, k: int) -> list:
    """k contiguous pieces whose sizes differ by at most one."""
    n = len(seq)
    base, rem = divmod(n, k)
    out = []
    start = 0
    for j in range(k):
        size = base + (1 if j < rem else 0)
        out.append(seq[start : start + size])
        start += size
    return out


def stratify_split(
    data: Dataset,
    x_cols: Sequence[str],
    t_col: str | None,
    k: int,
    secondary_col: str | None = None,
) -> dict:
    """Group rows by (covariates, treatment) and split each group into k
    contiguous index blocks; a None treatment column groups by the
    covariates alone.  With a secondary index column, each primary block
    is re-ordered by that column and split into k further blocks."""
    if k < 2:
        raise InvalidArgumentError(f"need at least 2 blocks, got k={k}")
    x_lists = [data.column(c) for c in x_cols]
    t_list = data.column(t_col) if t_col is not None else None
    sec = data.column(secondary_col) if secondary_col is not None else None
    groups: dict = {}
    for i in range(len(data)):
        x_cfg = tuple(col[i] for col in x_lists)
        key = (x_cfg, t_list[i] if t_list is not None else None)
        groups.setdefault(key, []).append(i)
    out = {}
    for key in sorted(groups, key=str):
        idx = groups[key]
        if sec is None:
            blocks = _chunks(idx, k)
            group_count = 1
        else:
            blocks = []
            for primary in _chunks(idx, k):
                ordered = sorted(primary, key=lambda i: (sec[i], i))
                blocks.extend(_chunks(ordered, k))
            group_count = k
        out[key] = SplitStratum(
            key=key,
            indices=tuple(idx),
            blocks=tuple(tuple(b) for b in blocks),
            group_count=group_count,
            too_small=len(idx) < k * group_count,
        )
    return out


def _chi_square(a: Mapping, b: Mapping) -> tuple:
    """Homogeneity statistic, degrees of freedom, and p-value.

    Convention: categories are pooled in ascending order of combined
    count until every pooled column's expected count reaches
    EXPECTED_MIN in both rows; a trailing underfull pool is merged into
    its predecessor.  With fewer than two pools the test is vacuous and
    reports statistic 0 with p-value 1.
    """
    from scipy.special import chdtrc  # chi-square upper tail, as chi2.sf

    n_a = sum(a.values())
    n_b = sum(b.values())
    if n_a <= 0 or n_b <= 0:
        raise InvalidArgumentError("both samples must be non-empty")
    total = n_a + n_b
    combined = lambda v: a.get(v, 0) + b.get(v, 0)
    cats = sorted(set(a) | set(b), key=lambda v: (combined(v), str(v)))
    needed = EXPECTED_MIN * total / min(n_a, n_b)
    pools = []
    cur_a = cur_b = 0
    for v in cats:
        cur_a += a.get(v, 0)
        cur_b += b.get(v, 0)
        if cur_a + cur_b >= needed:
            pools.append((cur_a, cur_b))
            cur_a = cur_b = 0
    if cur_a + cur_b:
        if pools:
            last_a, last_b = pools.pop()
            pools.append((last_a + cur_a, last_b + cur_b))
        else:
            pools.append((cur_a, cur_b))
    if len(pools) < 2:
        return 0.0, 0, 1.0
    stat = 0.0
    for ca, cb in pools:
        col = ca + cb
        e_a = n_a * col / total
        e_b = n_b * col / total
        stat += (ca - e_a) ** 2 / e_a + (cb - e_b) ** 2 / e_b
    dof = len(pools) - 1
    return float(stat), dof, float(chdtrc(dof, stat))


def uniformity_check(pvals: Sequence[float]) -> tuple:
    """Kolmogorov-Smirnov distance of the values from the uniform law,
    with the asymptotic tail probability.  Needs at least 5 values."""
    from scipy.special import kolmogorov

    vals = [float(p) for p in pvals]
    if len(vals) < 5:
        raise InvalidArgumentError(
            f"need at least 5 p-values, got {len(vals)}"
        )
    if any(v < 0 or v > 1 for v in vals):
        raise InvalidArgumentError("p-values must lie in [0, 1]")
    n = len(vals)
    statistic = 0.0
    for i, x in enumerate(sorted(vals)):
        statistic = max(statistic, (i + 1) / n - x, x - i / n)
    return statistic, float(kolmogorov(statistic * math.sqrt(n)))


def _pair_reports(
    strata: dict, values: list, compares: str, k: int
) -> list:
    reports = []
    for key in sorted(strata, key=str):
        stratum = strata[key]
        if stratum.too_small:
            continue
        for g in range(stratum.group_count):
            for j in range(k - 1):
                left = stratum.blocks[g * k + j]
                right = stratum.blocks[g * k + j + 1]
                if min(len(left), len(right)) < MIN_BLOCK_ROWS:
                    continue
                lc = dict(Counter(values[i] for i in left))
                rc = dict(Counter(values[i] for i in right))
                stat, _, p = _chi_square(lc, rc)
                reports.append(
                    StratumReport(
                        key=key,
                        compares=compares,
                        pair=(g * k + j, g * k + j + 1),
                        left_counts=lc,
                        right_counts=rc,
                        statistic=stat,
                        pvalue=p,
                    )
                )
    return reports


def homogeneity_report(
    data: Dataset,
    x_cols: Sequence[str],
    t_col: str,
    r_col: str,
    k: int,
    secondary_col: str | None = None,
    threshold: float = 0.01,
) -> HomogeneityReport:
    """Adjacent-block comparisons of responses within each (covariates,
    treatment) stratum and of treatments within each covariate stratum,
    pooled into a p-value uniformity check and an alarm verdict."""
    if not 0 < threshold < 1:
        raise InvalidArgumentError(f"threshold {threshold!r} outside (0, 1)")
    responses = data.column(r_col)
    treatments = data.column(t_col)
    reports = _pair_reports(
        stratify_split(data, x_cols, t_col, k, secondary_col),
        responses,
        "responses",
        k,
    )
    reports += _pair_reports(
        stratify_split(data, x_cols, None, k, secondary_col),
        treatments,
        "treatments",
        k,
    )
    pvalues = tuple(r.pvalue for r in reports)
    warnings = []
    if not reports:
        warnings.append(
            "no usable strata: every block pair fell below "
            f"{MIN_BLOCK_ROWS} rows, so nothing was tested"
        )
    uniformity_stat = uniformity_p = None
    if len(pvalues) >= 5:
        uniformity_stat, uniformity_p = uniformity_check(pvalues)
    elif reports:
        warnings.append(
            f"only {len(pvalues)} p-values: uniformity check skipped"
        )
    alarm = bool(
        (pvalues and min(pvalues) < threshold / len(pvalues))
        or (uniformity_p is not None and uniformity_p < threshold)
    )
    return HomogeneityReport(
        reports=tuple(reports),
        pvalues=pvalues,
        uniformity_statistic=uniformity_stat,
        uniformity_pvalue=uniformity_p,
        threshold=threshold,
        alarm=alarm,
        warnings=tuple(warnings),
    )
