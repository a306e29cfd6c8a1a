"""Paired case-control sampling from a population model.

The population is an unbounded sequence of independent draws from the
model, realized lazily in blocks.  Cases are the first N rows with
R = 1 in scan order; each case is followed by its matched control, the
next fresh row (past the case region) whose X equals the case's.
Matching only inspects X, so a control's (T, R) follows the population
law given X exactly; in particular controls are free to have R = 1.

Estimation recovers the per-stratum exposure odds ratio from the pair
counts and averages it over the case-side covariate frequencies.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import defaultdict, deque
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import ExhaustionError, InvalidArgumentError, Record
from .estimands import _ODDS_ROLES, OddsRatioReport
from .exogenous import DigitStream
from .graph import topological_order
from .identify import _bind
from .scm import Scm, _realize, joint_distribution, restrict

__all__ = [
    "CaseControlSample",
    "estimate_cc_or",
    "export_sample",
    "simulate_case_control",
]

DEFAULT_BUDGET = 10_000_000

_BLOCK = 4096


class CaseControlSample(Record):
    """Alternating (x, t, r) rows: each case is followed by its control.

    `indices` gives each row's position in the simulated population (an
    int64 array in samples drawn here); `roles` marks rows "case" or
    "control".  Invariants: cases carry r = 1, each control shares its
    case's x, and no population row is used twice (in particular no
    control index is a case index).
    """

    __slots__ = ("rows", "indices", "roles")

    def __init__(self, rows: tuple, indices: Sequence[int], roles: tuple):
        n = len(rows)
        if n % 2 or len(indices) != n or len(roles) != n:
            raise InvalidArgumentError("rows, indices, and roles must align in pairs")
        if len(set(indices)) != n:
            raise InvalidArgumentError("population rows may be used only once")
        for k in range(0, n, 2):
            if roles[k] != "case" or roles[k + 1] != "control":
                raise InvalidArgumentError(f"pair {k // 2} must be case then control")
            if rows[k][2] != 1:
                raise InvalidArgumentError(f"case {k // 2} lacks r = 1")
            if rows[k][0] != rows[k + 1][0]:
                raise InvalidArgumentError(f"pair {k // 2} is not matched on x")
        Record.__init__(self, rows, indices, roles)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def pair_count(self) -> int:
        return len(self.rows) // 2

    def pairs(self):
        """(case_row, control_row) tuples in order."""
        return [
            (self.rows[k], self.rows[k + 1]) for k in range(0, len(self.rows), 2)
        ]


def _scan(scm: Scm, nodes: tuple, source: DigitStream, budget: int, first_block: int):
    """(index, *values of `nodes`) for population rows 0 .. budget-1, in order.

    Row i is determined by (model, digit source, i) alone: each node
    reads draw i of its own diagonal stream, so the rows coincide with
    the first rows of the batch sampler on the same source.  Blocks start
    at `first_block` rows and double up to `_BLOCK`.
    """
    order = topological_order(scm.dag)
    start, block = 0, min(first_block, _BLOCK)
    while start < budget:
        count = min(block, budget - start)
        rows = _realize(scm, order, source, start, count)
        yield from zip(itertools.count(start), *(rows[n] for n in nodes))
        start += count
        block = min(2 * block, _BLOCK)


def simulate_case_control(
    population: Scm,
    n_pairs: int,
    source: DigitStream,
    budget: int = DEFAULT_BUDGET,
    roles: Mapping[str, str] | None = None,
) -> CaseControlSample:
    """N case-control pairs from the lazily simulated population.

    Cases are the first `n_pairs` population rows with r = 1; the
    control for each case is the next unused row past the case region
    whose x matches.  Raises an exhaustion error when the row budget
    runs out, including when no case can ever occur.
    """
    roles = roles or {n: n for n in _ODDS_ROLES}
    x_n, t_n, r_n = _bind(roles, _ODDS_ROLES, population.dag.nodes, "population").values()
    for node in (t_n, r_n):
        if set(population.domains[node].values) != {0, 1}:
            raise InvalidArgumentError(f"{node!r} must take values in {{0, 1}}")
    if n_pairs < 1:
        raise InvalidArgumentError(f"pair count must be >= 1, got {n_pairs}")
    if 2 * n_pairs > budget:
        raise ExhaustionError(
            f"population budget of {budget} rows cannot hold {n_pairs} pairs"
        )
    joint = joint_distribution(population)
    if restrict(joint, (r_n,)).probs.get((1,), 0) <= 0:
        raise ExhaustionError("no case can occur: the response is never 1")

    exhausted = f"population budget of {budget} rows exhausted while"
    rows = _scan(population, (x_n, t_n, r_n), source, budget, 4 * n_pairs)
    cases: list = []
    for row in rows:
        if row[3] == 1:
            cases.append(row)
            if len(cases) == n_pairs:
                break
    else:
        raise ExhaustionError(f"{exhausted} scanning for case {len(cases) + 1} of {n_pairs}")

    # The control search resumes where the case scan stopped, just past
    # the last case; pools hold the scanned rows not used yet, by x.
    pools: dict = defaultdict(deque)
    controls: list = []
    for k, case in enumerate(cases):
        x = case[1]
        if pools[x]:
            controls.append(pools[x].popleft())
            continue
        for row in rows:
            if row[1] == x:
                controls.append(row)
                break
            pools[row[1]].append(row)
        else:
            raise ExhaustionError(f"{exhausted} matching a control for case {k + 1}")

    # Packed, as a sample may hold millions of rows: equal rows share one
    # tuple, indices are int64, and samples of one size share their roles.
    distinct: dict = {}
    packed: list = []
    indices = array("q")
    for row in itertools.chain.from_iterable(zip(cases, controls)):
        values = row[1:]
        packed.append(distinct.setdefault(values, values))
        indices.append(row[0])
    return CaseControlSample(tuple(packed), indices, _roles(len(cases)))


@lru_cache(maxsize=1)
def _roles(pairs: int) -> tuple:
    return ("case", "control") * pairs


def estimate_cc_or(sample: CaseControlSample) -> OddsRatioReport:
    """Per-stratum exposure odds ratios from the pair counts.

    p is the exposed fraction among cases, q the exposed fraction among
    controls with r = 0, and the ratio is p(1-q) / (q(1-p)).  A stratum
    with any empty cell is dropped with a warning.  The overall figure
    averages the kept ratios under the case-side x-frequencies.
    """
    counts: dict = defaultdict(lambda: [0, 0, 0, 0])  # a, b, c, d per x
    for k, (x, t, r) in enumerate(sample.rows):
        cell = counts[x]
        if sample.roles[k] == "case":
            cell[0 if t == 1 else 1] += 1
        elif r == 0:
            cell[2 if t == 1 else 3] += 1
    per_x: dict = {}
    case_totals: dict = {}
    warnings: list = []
    for x in sorted(counts, key=str):
        a, b, c, d = counts[x]
        if min(a, b, c, d) == 0:
            warnings.append(
                f"stratum x={x!r} dropped: cell counts "
                f"case=({a} exposed, {b} unexposed), "
                f"control=({c} exposed, {d} unexposed)"
            )
            continue
        p = a / (a + b)
        q = c / (c + d)
        per_x[x] = {
            "p": p,
            "q": q,
            "ratio_exposure_odds": (p * (1 - q)) / (q * (1 - p)),
            "n_case_exposed": a,
            "n_case_unexposed": b,
            "n_control_exposed": c,
            "n_control_unexposed": d,
            "se_log_odds": math.sqrt(1 / a + 1 / b + 1 / c + 1 / d),
        }
        case_totals[x] = a + b
    total_cases = sum(case_totals.values())
    if not per_x:
        return OddsRatioReport(per_x={}, overall=None, warnings=tuple(warnings))
    overall = sum(
        cell["ratio_exposure_odds"] * case_totals[x] / total_cases
        for x, cell in per_x.items()
    )
    return OddsRatioReport(
        per_x=per_x, overall=float(overall), warnings=tuple(warnings)
    )


def export_sample(sample: CaseControlSample) -> str:
    """Comma-separated text with columns x, t, r, pair_id, role."""
    lines = ["x,t,r,pair_id,role"]
    for k, (x, t, r) in enumerate(sample.rows):
        lines.append(",".join((str(x), str(t), str(r), str(k // 2), sample.roles[k])))
    return "\n".join(lines) + "\n"
