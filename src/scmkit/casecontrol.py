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

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Mapping

from .errors import ExhaustionError, InvalidArgumentError
from .estimands import OddsRatioReport
from .exogenous import DigitStream, uniforms_at
from .graph import topological_order
from .identify import _bind
from .scm import Scm, _realize_column, joint_distribution, restrict

__all__ = [
    "CaseControlSample",
    "estimate_cc_or",
    "export_sample",
    "simulate_case_control",
]

DEFAULT_BUDGET = 10_000_000

_BLOCK = 4096

_ROLE_NAMES = ("X", "T", "R")


@dataclass(frozen=True)
class CaseControlSample:
    """Alternating (x, t, r) rows: each case is followed by its control.

    `indices` gives each row's position in the simulated population;
    `roles` marks rows "case" or "control".  Invariants: cases carry
    r = 1, each control shares its case's x, and no population row is
    used twice (in particular no control index is a case index).
    """

    rows: tuple
    indices: tuple
    roles: tuple

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n % 2 or len(self.indices) != n or len(self.roles) != n:
            raise InvalidArgumentError("rows, indices, and roles must align in pairs")
        if len(set(self.indices)) != n:
            raise InvalidArgumentError("population rows may be used only once")
        for k in range(0, n, 2):
            if self.roles[k] != "case" or self.roles[k + 1] != "control":
                raise InvalidArgumentError(f"pair {k // 2} must be case then control")
            if self.rows[k][2] != 1:
                raise InvalidArgumentError(f"case {k // 2} lacks r = 1")
            if self.rows[k][0] != self.rows[k + 1][0]:
                raise InvalidArgumentError(f"pair {k // 2} is not matched on x")

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


class _Population:
    """Lazily realized independent population rows, absolute-indexed.

    Row i is determined by (model, digit source, i) alone: each node
    reads draw i of its own diagonal stream, so the rows coincide with
    the first rows of the batch sampler on the same source.
    """

    def __init__(self, scm: Scm, source: DigitStream, budget: int):
        self.scm = scm
        self.source = source
        self.budget = budget
        self.order = topological_order(scm.dag)
        self.columns: dict = {node: [] for node in self.order}
        self.size = 0

    def ensure(self, n: int, context: str) -> None:
        if n <= self.size:
            return
        if n > self.budget:
            raise ExhaustionError(
                f"population budget of {self.budget} rows exhausted while {context}"
            )
        count = max(n - self.size, min(_BLOCK, self.budget - self.size))
        block: dict = {}
        for i, node in enumerate(self.order):
            u = uniforms_at(self.source, i + 1, self.size, count)
            block[node] = _realize_column(self.scm, node, u, block)
        for node in self.order:
            self.columns[node].extend(block[node])
        self.size += count


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
    roles = roles or {n: n for n in _ROLE_NAMES}
    x_n, t_n, r_n = _bind(roles, _ROLE_NAMES, population.dag.nodes, "population").values()
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

    pop = _Population(population, source, budget)
    x_col, t_col, r_col = pop.columns[x_n], pop.columns[t_n], pop.columns[r_n]

    cases: list = []
    i = 0
    while len(cases) < n_pairs:
        pop.ensure(i + 1, f"scanning for case {len(cases) + 1} of {n_pairs}")
        if r_col[i] == 1:
            cases.append(i)
        i += 1

    pools: dict = defaultdict(deque)
    controls: list = []
    cursor = cases[-1] + 1
    for k, case_idx in enumerate(cases):
        x = x_col[case_idx]
        if pools[x]:
            controls.append(pools[x].popleft())
            continue
        while True:
            pop.ensure(cursor + 1, f"matching a control for case {k + 1}")
            idx = cursor
            cursor += 1
            if x_col[idx] == x:
                controls.append(idx)
                break
            pools[x_col[idx]].append(idx)

    rows: list = []
    indices: list = []
    roles_out: list = []
    for case_idx, ctrl_idx in zip(cases, controls):
        rows.append((x_col[case_idx], t_col[case_idx], r_col[case_idx]))
        rows.append((x_col[ctrl_idx], t_col[ctrl_idx], r_col[ctrl_idx]))
        indices.extend((case_idx, ctrl_idx))
        roles_out.extend(("case", "control"))
    return CaseControlSample(tuple(rows), tuple(indices), tuple(roles_out))


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


def export_sample(sample: CaseControlSample, delimiter: str = ",") -> str:
    """Delimited text with columns x, t, r, pair_id, role."""
    lines = [delimiter.join(("x", "t", "r", "pair_id", "role"))]
    for k, (x, t, r) in enumerate(sample.rows):
        lines.append(
            delimiter.join((str(x), str(t), str(r), str(k // 2), sample.roles[k]))
        )
    return "\n".join(lines) + "\n"
