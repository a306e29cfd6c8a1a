"""Seeded simulation: discrete sampling plus drift diagnosis, linear-Gaussian
sampling, and matched case-control sampling with odds-ratio estimation.

Rows are checked on a head and a tail slice against the pure-Python
digit-stream reference in ``oracles``; the diagnosis and the case-control
estimate are recounted from the rows.
"""

from __future__ import annotations

import numpy as np

import inputs
import oracles as orc
from common import Meter, call, in_process_host, median
from oracles import require

HEAD = 12


def _chunks(seq: list, k: int) -> list:
    base, rem = divmod(len(seq), k)
    out, start = [], 0
    for j in range(k):
        size = base + (1 if j < rem else 0)
        out.append(seq[start:start + size])
        start += size
    return out


def expected_block_counts(x: np.ndarray, t: np.ndarray, r: np.ndarray, k: int) -> list:
    """(key, left counts, right counts) of every adjacent-block comparison:
    responses within (covariates, treatment) strata, then treatments within
    covariate strata, each stratum split into k contiguous index blocks."""
    out = []
    for with_t, values in ((True, r), (False, t)):
        groups: dict = {}
        for i in range(len(values)):
            key = (tuple(int(v) for v in x[i]), int(t[i]) if with_t else None)
            groups.setdefault(key, []).append(i)
        for key in sorted(groups, key=str):
            idx = groups[key]
            if len(idx) < k:
                continue
            blocks = _chunks(idx, k)
            for left, right in zip(blocks, blocks[1:]):
                if min(len(left), len(right)) < 2:
                    continue
                count = lambda b: {int(v): int(c) for v, c in zip(*np.unique(values[b], return_counts=True))}  # noqa: E731
                out.append((key, count(left), count(right)))
    return out


class SamplingActivity:
    def __init__(self, seed: int, full: bool):
        self.seed = seed
        self.full = full
        self.host = in_process_host()
        self.iteration = 0
        self.rates = {"sim": [], "lg": [], "cc": []}  # rows per metered CPU second
        self.kept: list = []

    def generate(self) -> None:
        rng = inputs.rng_for(self.seed, 33)
        n, self.rows, lg_n, self.lg_rows, self.pairs, n_x = (
            (12, 20_000, 100, 4_000, 20_000, 3) if self.full else (6, 2_000, 20, 500, 1_000, 2)
        )
        self.spec = inputs.random_spec(rng, n, 2, 3)
        nodes = self.spec.nodes
        self.x_cols = list(nodes[:n_x])
        self.t_col, self.r_col = nodes[-2], nodes[-1]
        self.g = inputs.random_gauss(rng, lg_n, 2)
        self.pop_spec = inputs.population_spec()
        self.base = int(rng.integers(1, 2**40))

    def build(self, tr) -> None:
        self.scm = inputs.to_scm(self.spec)
        self.lg = inputs.to_lg(self.g)
        self.pop = inputs.to_scm(self.pop_spec)

    def step(self, tr, ledger) -> None:
        from scmkit.casecontrol import estimate_cc_or, simulate_case_control
        from scmkit.diagnostics import homogeneity_report
        from scmkit.exogenous import DigitStream, uniforms_at
        from scmkit.gaussian import lg_sample
        from scmkit.scm import sample

        ds = self.base + 3 * self.iteration
        self.iteration += 1
        tr.next_op()
        try:
            with Meter(self.host) as sim:
                data = call(tr, "scm.sample", sample, self.scm, DigitStream(ds), self.rows)
                report = call(tr, "diagnostics.homogeneity_report", homogeneity_report,
                              data, self.x_cols, self.t_col, self.r_col, 4)
            with Meter(self.host) as lg_time:
                lg = call(tr, "gaussian.lg_sample", lg_sample, self.lg, DigitStream(ds + 1), self.lg_rows)
            with Meter(self.host) as cc_time:
                cc = call(tr, "casecontrol.simulate_case_control", simulate_case_control,
                          self.pop, self.pairs, DigitStream(ds + 2))
                est = call(tr, "casecontrol.estimate_cc_or", estimate_cc_or, cc)
        except Exception as exc:  # a program error is a failed operation
            ledger.record("exception", False, f"sampling: {type(exc).__name__}: {exc}")
            return
        self.rates["sim"].append(self.rows / sim.total)
        self.rates["lg"].append(self.lg_rows / lg_time.total)
        self.rates["cc"].append(self.pairs / cc_time.total)
        if tr.enabled:
            # The same draws once more, digits only, so that sample's busy
            # time splits into digit generation and column realization.
            source = DigitStream(ds)
            for j in range(len(data.columns)):
                call(tr, "exogenous.uniforms_at", uniforms_at, source, j + 1, 0, self.rows)
            tr.count("exogenous.uniforms_at.draws", self.rows * len(data.columns))
            tr.count("scm.sample.rows", self.rows)
            tr.count("diagnostics.homogeneity_report.tests", len(report.reports))
            tr.count("casecontrol.simulate_case_control.pairs", cc.pair_count)
            tr.count("casecontrol.simulate_case_control.rows_scanned", max(cc.indices) + 1)
        self.kept.append(self._keep(ds, data, report, lg, cc, est))

    def _keep(self, ds, data, report, lg, cc, est) -> dict:
        """Only what verification reads, so memory stays flat."""
        n = len(data.rows)
        ends = sorted(set(range(min(HEAD, n))) | set(range(max(0, n - HEAD), n)))
        col = {c: i for i, c in enumerate(data.columns)}
        arr = lambda name: np.array([row[col[name]] for row in data.rows])  # noqa: E731
        lg_n = len(lg.rows)
        lg_ends = sorted(set(range(min(HEAD, lg_n))) | set(range(max(0, lg_n - HEAD), lg_n)))
        return {
            "ds": ds,
            "columns": data.columns,
            "n": n,
            "rows": {i: data.rows[i] for i in ends},
            "x": np.stack([arr(c) for c in self.x_cols], axis=1),
            "t": arr(self.t_col),
            "r": arr(self.r_col),
            "report": report,
            "lg_columns": lg.columns,
            "lg_rows": {i: lg.rows[i] for i in lg_ends},
            "lg_n": lg_n,
            "cc": cc,
            "est": est,
        }

    def probe_steps(self) -> int:
        return 8

    def verify(self, ledger, tr) -> None:
        for kept in self.kept:
            ledger.verify("scm", orc.check_sample_rows, self.spec, kept["ds"], kept["columns"],
                          kept["rows"].__getitem__, kept["n"])
            ledger.verify("diagnostics", self._check_report, kept)
            ledger.verify("gaussian", self._check_lg, kept)
            ledger.verify("casecontrol", self._check_cc, kept)

    def _check_report(self, kept) -> None:
        want = expected_block_counts(kept["x"], kept["t"], kept["r"], 4)
        got = [(r.key, r.left_counts, r.right_counts) for r in kept["report"].reports]
        require(len(got) == len(want), f"{len(got)} block comparisons, expected {len(want)}")
        for (gk, gl, gr), (wk, wl, wr) in zip(got, want):
            require(gk == wk and gl == wl and gr == wr, f"block counts differ in stratum {wk}")
        for r in kept["report"].reports:
            require(0.0 <= r.pvalue <= 1.0 and r.statistic >= 0.0, "p-value out of range")

    def _check_lg(self, kept) -> None:
        require(list(kept["lg_columns"]) == orc.topo_order(self.g.nodes, [
            (p, n) for n in self.g.nodes for p in self.g.parents[n]]), "lg columns out of order")
        for i, row in kept["lg_rows"].items():
            want = orc.lg_reference_row(self.g, kept["ds"] + 1, i)
            for name, value in zip(kept["lg_columns"], row):
                w = want[name]
                require(abs(value - w) <= 1e-8 * max(1.0, abs(w)), f"lg row {i} {name}: {value} vs {w}")

    def _check_cc(self, kept) -> None:
        cc, est = kept["cc"], kept["est"]
        require(cc.pair_count == self.pairs, "wrong number of pairs")
        ref = orc.SampleReference(self.pop_spec, kept["ds"] + 2)
        rows = {}

        def row(i):
            if i not in rows:
                rows[i] = ref.row(i)
            return rows[i]

        cases = cc.indices[0::2]
        seen = 0
        for i in range(cases[HEAD - 1] + 1 if len(cases) >= HEAD else 0):
            v = row(i)
            if v is None:
                return  # a draw on a threshold makes the scan order ambiguous
            if v["R"] == 1:
                require(cases[seen] == i, f"case {seen} is row {cases[seen]}, expected {i}")
                seen += 1
        n = len(cc.rows)
        for k in sorted(set(range(min(2 * HEAD, n))) | set(range(max(0, n - 2 * HEAD), n))):
            v = row(cc.indices[k])
            if v is not None:
                require(cc.rows[k] == (v["X"], v["T"], v["R"]), f"pair row {k} differs from the population")
        roles = np.array(cc.roles)
        arr = np.array(cc.rows)
        for x, cell in est.per_x.items():
            at = arr[:, 0] == x
            case = at & (roles == "case")
            ctrl = at & (roles == "control") & (arr[:, 2] == 0)
            counts = (
                int((case & (arr[:, 1] == 1)).sum()), int((case & (arr[:, 1] == 0)).sum()),
                int((ctrl & (arr[:, 1] == 1)).sum()), int((ctrl & (arr[:, 1] == 0)).sum()),
            )
            got = (cell["n_case_exposed"], cell["n_case_unexposed"],
                   cell["n_control_exposed"], cell["n_control_unexposed"])
            require(got == counts, f"stratum {x}: counts {got} vs {counts}")
            p, q = counts[0] / (counts[0] + counts[1]), counts[2] / (counts[2] + counts[3])
            want = p * (1 - q) / (q * (1 - p))
            require(abs(cell["ratio_exposure_odds"] - want) <= 1e-12 * max(1.0, want), "odds ratio differs")

    def metrics(self) -> dict:
        pick = lambda k: median(self.rates[k]) if self.rates[k] else float("nan")  # noqa: E731
        return {
            "sim_rows_per_s": (pick("sim"), "1/s"),
            "lg_sample_rows_per_s": (pick("lg"), "1/s"),
            "casecontrol_pairs_per_s": (pick("cc"), "1/s"),
        }
