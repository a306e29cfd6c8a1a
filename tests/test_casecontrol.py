"""Tests for paired case-control simulation and odds-ratio estimation."""

import math

import pytest

from scmkit.casecontrol import (
    CaseControlSample,
    estimate_cc_or,
    export_sample,
    simulate_case_control,
)
from scmkit.errors import ExhaustionError, InvalidArgumentError
from scmkit.estimands import odds_ratio
from scmkit.exogenous import DigitStream
from scmkit.graph import Dag
from scmkit.scm import Cpt, Domain, Scm, joint_distribution, sample

# Per-stratum cells chosen so the exposure odds ratio is 3.5 in both
# covariate strata: p = P(T=1|R=1,x) and q = P(T=1|R=0,x) are (0.6, 0.3)
# at x=0 and (0.7, 0.4) at x=1.
POP_P = {0: 0.6, 1: 0.7}
POP_Q = {0: 0.3, 1: 0.4}
POP_T_MARGINAL = {0: 0.45, 1: 0.52}
POP_E = 3.5


def cc_population() -> Scm:
    dag = Dag(["X", "T", "R"], [("X", "T"), ("X", "R"), ("T", "R")])
    domains = {n: Domain(n, (0, 1)) for n in ("X", "T", "R")}
    cpts = {
        "X": Cpt("X", (), {(): (0.5, 0.5)}),
        "T": Cpt("T", ("X",), {(0,): (0.55, 0.45), (1,): (0.48, 0.52)}),
        "R": Cpt(
            "R",
            ("T", "X"),
            {
                (1, 0): (1 / 3, 2 / 3),
                (0, 0): (7 / 11, 4 / 11),
                (1, 1): (6 / 13, 7 / 13),
                (0, 1): (0.75, 0.25),
            },
        ),
    }
    return Scm(dag, domains, cpts)


def case_rows(sample_):
    return [row for row, role in zip(sample_.rows, sample_.roles) if role == "case"]


def control_rows(sample_):
    return [row for row, role in zip(sample_.rows, sample_.roles) if role == "control"]


def pairs_by_hand(case_specs, control_specs):
    """Build a sample directly from (x, t, r) triples per role."""
    rows = []
    indices = []
    roles = []
    for k, (case, ctrl) in enumerate(zip(case_specs, control_specs)):
        rows.extend((case, ctrl))
        indices.extend((2 * k, 10_000 + k))
        roles.extend(("case", "control"))
    return CaseControlSample(tuple(rows), tuple(indices), tuple(roles))


class TestPopulationFixture:
    def test_population_odds_ratio_is_the_target(self):
        joint = joint_distribution(cc_population())
        report = odds_ratio(joint, {"R": "R", "T": "T", "X": "X"})
        for x in (0, 1):
            cell = report.per_x[x]
            assert cell["p"] == pytest.approx(POP_P[x], abs=1e-12)
            assert cell["q"] == pytest.approx(POP_Q[x], abs=1e-12)
            assert cell["ratio_exposure_odds"] == pytest.approx(POP_E, abs=1e-12)


def reference_case_control(pop: Scm, n: int, seed: int, budget: int):
    """The pairing rule read off the batch sampler's first `budget` rows.

    The cases are the first n rows with r = 1; case k takes the earliest
    unused row past the last case whose x matches.  Returns (rows,
    indices, roles), or the exhaustion message when the rows run out.
    """
    data = sample(pop, DigitStream(seed), budget)
    cols = [data.columns.index(c) for c in ("X", "T", "R")]
    rows = [tuple(row[c] for c in cols) for row in data.rows]
    exhausted = f"population budget of {budget} rows exhausted while"
    cases = [i for i, row in enumerate(rows) if row[2] == 1][:n]
    if len(cases) < n:
        return f"{exhausted} scanning for case {len(cases) + 1} of {n}"
    later = {x: iter([j for j in range(cases[-1] + 1, budget) if rows[j][0] == x]) for x in (0, 1)}
    indices = []
    for k, i in enumerate(cases):
        j = next(later[rows[i][0]], None)
        if j is None:
            return f"{exhausted} matching a control for case {k + 1}"
        indices += [i, j]
    return tuple(rows[i] for i in indices), indices, ("case", "control") * n


class TestSimulate:
    def test_pairing_invariants(self):
        got = simulate_case_control(cc_population(), 300, DigitStream(11))
        assert len(got) == 600
        assert got.pair_count == 300
        assert all(r == 1 for _, _, r in case_rows(got))
        for case, ctrl in got.pairs():
            assert case[0] == ctrl[0]
        case_idx = got.indices[0::2]
        ctrl_idx = got.indices[1::2]
        assert not set(case_idx) & set(ctrl_idx)
        assert min(ctrl_idx) > max(case_idx)
        assert list(case_idx) == sorted(case_idx)

    def test_deterministic_given_seed(self):
        a = simulate_case_control(cc_population(), 150, DigitStream(5))
        b = simulate_case_control(cc_population(), 150, DigitStream(5))
        c = simulate_case_control(cc_population(), 150, DigitStream(6))
        assert a.rows == b.rows and a.indices == b.indices
        assert a.rows != c.rows

    def test_rows_come_from_the_batch_sampler(self):
        got = simulate_case_control(cc_population(), 80, DigitStream(3))
        data = sample(cc_population(), DigitStream(3), max(got.indices) + 1)
        cols = {n: data.columns.index(n) for n in ("X", "T", "R")}
        for row, idx in zip(got.rows, got.indices):
            pop_row = data.rows[idx]
            assert row == tuple(pop_row[cols[n]] for n in ("X", "T", "R"))

    def test_case_and_control_laws(self):
        got = simulate_case_control(cc_population(), 20_000, DigitStream(4))
        for x in (0, 1):
            cases = [t for cx, t, _ in case_rows(got) if cx == x]
            rate = sum(cases) / len(cases)
            se = math.sqrt(POP_P[x] * (1 - POP_P[x]) / len(cases))
            assert abs(rate - POP_P[x]) <= 3 * se
            ctrls = [t for cx, t, _ in control_rows(got) if cx == x]
            rate = sum(ctrls) / len(ctrls)
            want = POP_T_MARGINAL[x]
            se = math.sqrt(want * (1 - want) / len(ctrls))
            assert abs(rate - want) <= 3 * se

    def test_controls_may_respond(self):
        got = simulate_case_control(cc_population(), 2_000, DigitStream(8))
        assert any(r == 1 for _, _, r in control_rows(got))

    def test_role_remapping(self):
        dag = Dag(["G", "D", "Y"], [("G", "D"), ("G", "Y"), ("D", "Y")])
        base = cc_population()
        rename = {"X": "G", "T": "D", "R": "Y"}
        domains = {rename[n]: Domain(rename[n], d.values) for n, d in base.domains.items()}
        cpts = {
            rename[n]: Cpt(rename[n], tuple(rename[p] for p in c.parents), c.table)
            for n, c in base.cpts.items()
        }
        got = simulate_case_control(
            Scm(dag, domains, cpts), 50, DigitStream(11), roles=rename
        )
        want = simulate_case_control(cc_population(), 50, DigitStream(11))
        assert got.rows == want.rows

    def test_impossible_case(self):
        scm = cc_population()
        cpts = dict(scm.cpts)
        cpts["R"] = Cpt("R", ("T", "X"), {cfg: (1, 0) for cfg in scm.cpts["R"].table})
        never = Scm(scm.dag, scm.domains, cpts)
        with pytest.raises(ExhaustionError, match="never"):
            simulate_case_control(never, 10, DigitStream(0))

    def test_budget_too_small_for_the_pairs(self):
        with pytest.raises(ExhaustionError, match="budget"):
            simulate_case_control(cc_population(), 5, DigitStream(0), budget=9)

    @pytest.mark.parametrize(
        "n, budget, phase",
        [
            (60, 120, "scanning for case 56 of 60"),
            (50, 100, "matching a control for case 2"),
        ],
    )
    def test_exhaustion_names_the_phase(self, n, budget, phase):
        message = f"population budget of {budget} rows exhausted while {phase}"
        with pytest.raises(ExhaustionError) as err:
            simulate_case_control(cc_population(), n, DigitStream(2), budget=budget)
        assert str(err.value) == message

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 150, 1023, 1024, 1025])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_equals_the_pairing_rule_across_block_sizes(self, n, seed):
        # Blocks of 4n rows doubling up to 4096: these n straddle that schedule.
        got = simulate_case_control(cc_population(), n, DigitStream(seed), budget=6000)
        rows, indices, roles = reference_case_control(cc_population(), n, seed, 6000)
        assert got.rows == rows and list(got.indices) == indices and got.roles == roles

    @pytest.mark.parametrize(
        "n, budget", [(1, 2), (2, 5), (3, 7), (40, 90), (60, 120), (200, 450), (1100, 2300)]
    )
    @pytest.mark.parametrize("seed", [2, 3])
    def test_exhaustion_messages_across_block_sizes(self, n, budget, seed):
        want = reference_case_control(cc_population(), n, seed, budget)
        if isinstance(want, str):
            with pytest.raises(ExhaustionError) as err:
                simulate_case_control(cc_population(), n, DigitStream(seed), budget=budget)
            assert str(err.value) == want
        else:
            got = simulate_case_control(cc_population(), n, DigitStream(seed), budget=budget)
            assert (got.rows, list(got.indices), got.roles) == want

    def test_requires_binary_response(self):
        dag = Dag(["X", "T", "R"], [("X", "T"), ("X", "R"), ("T", "R")])
        domains = {
            "X": Domain("X", (0, 1)),
            "T": Domain("T", (0, 1)),
            "R": Domain("R", (0, 1, 2)),
        }
        scm = cc_population()
        cpts = dict(scm.cpts)
        cpts["R"] = Cpt(
            "R", ("T", "X"), {cfg: (0.5, 0.3, 0.2) for cfg in scm.cpts["R"].table}
        )
        with pytest.raises(InvalidArgumentError, match="R"):
            simulate_case_control(Scm(dag, domains, cpts), 5, DigitStream(0))

    def test_sample_validation_catches_broken_pairs(self):
        with pytest.raises(InvalidArgumentError, match="r = 1"):
            pairs_by_hand([(0, 1, 0)], [(0, 0, 0)])
        with pytest.raises(InvalidArgumentError, match="matched"):
            pairs_by_hand([(0, 1, 1)], [(1, 0, 0)])
        with pytest.raises(InvalidArgumentError, match="once"):
            CaseControlSample(
                ((0, 1, 1), (0, 0, 0)), (3, 3), ("case", "control")
            )


class TestEstimate:
    def test_hand_counts(self):
        cases = [(0, 1, 1), (0, 1, 1), (0, 1, 1), (0, 0, 1)]
        ctrls = [(0, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]
        report = estimate_cc_or(pairs_by_hand(cases, ctrls))
        cell = report.per_x[0]
        assert cell["p"] == pytest.approx(0.75)
        assert cell["q"] == pytest.approx(0.25)
        assert cell["ratio_exposure_odds"] == pytest.approx(9.0)
        assert cell["se_log_odds"] == pytest.approx(
            math.sqrt(1 / 3 + 1 / 1 + 1 / 1 + 1 / 3)
        )
        assert report.overall == pytest.approx(9.0)
        assert report.warnings == ()

    def test_equal_exposure_rates_give_unit_ratio(self):
        cases = [(0, 1, 1), (0, 0, 1)]
        ctrls = [(0, 1, 0), (0, 0, 0)]
        report = estimate_cc_or(pairs_by_hand(cases, ctrls))
        assert report.per_x[0]["ratio_exposure_odds"] == pytest.approx(1.0)

    def test_responding_controls_do_not_enter_the_counts(self):
        cases = [(0, 1, 1), (0, 0, 1), (0, 1, 1), (0, 0, 1)]
        ctrls = [(0, 1, 0), (0, 0, 0), (0, 1, 1), (0, 1, 1)]
        report = estimate_cc_or(pairs_by_hand(cases, ctrls))
        assert report.per_x[0]["n_control_exposed"] == 1
        assert report.per_x[0]["n_control_unexposed"] == 1

    def test_empty_cell_drops_the_stratum(self):
        cases = [(0, 1, 1), (0, 0, 1), (1, 1, 1), (1, 1, 1)]
        ctrls = [(0, 1, 0), (0, 0, 0), (1, 1, 0), (1, 0, 0)]
        report = estimate_cc_or(pairs_by_hand(cases, ctrls))
        assert set(report.per_x) == {0}
        assert len(report.warnings) == 1
        assert "x=1" in report.warnings[0]
        assert report.overall == pytest.approx(
            report.per_x[0]["ratio_exposure_odds"]
        )

    def test_single_pair_yields_empty_report(self):
        report = estimate_cc_or(pairs_by_hand([(0, 1, 1)], [(0, 0, 0)]))
        assert report.per_x == {}
        assert report.overall is None
        assert report.warnings

    def test_seeded_recovery_of_the_population_ratio(self):
        got = simulate_case_control(cc_population(), 4_000, DigitStream(9))
        report = estimate_cc_or(got)
        for x in (0, 1):
            cell = report.per_x[x]
            dev = abs(math.log(cell["ratio_exposure_odds"]) - math.log(POP_E))
            assert dev <= 3 * cell["se_log_odds"]

    def test_estimates_tighten_as_the_sample_grows(self):
        errors = []
        for n in (1_000, 10_000, 100_000):
            got = simulate_case_control(cc_population(), n, DigitStream(21))
            report = estimate_cc_or(got)
            for x in (0, 1):
                cell = report.per_x[x]
                dev = abs(math.log(cell["ratio_exposure_odds"]) - math.log(POP_E))
                assert dev <= 3 * cell["se_log_odds"]
            errors.append(abs(report.overall - POP_E))
        assert errors[0] > errors[1] > errors[2]


class TestExport:
    def test_round_trip_fields(self):
        got = simulate_case_control(cc_population(), 40, DigitStream(13))
        text = export_sample(got)
        lines = text.strip().split("\n")
        assert lines[0] == "x,t,r,pair_id,role"
        assert len(lines) == 81
        for k, line in enumerate(lines[1:]):
            x, t, r, pair_id, role = line.split(",")
            assert (int(x), int(t), int(r)) == got.rows[k]
            assert int(pair_id) == k // 2
            assert role == got.roles[k]
