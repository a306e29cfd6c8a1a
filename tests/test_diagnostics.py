"""Tests for stratified homogeneity checks on collected datasets."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmkit.diagnostics import (
    HomogeneityReport,
    StratumReport,
    homogeneity_report,
    stratify_split,
    uniformity_check,
)
from scmkit.errors import InvalidArgumentError
from scmkit.exogenous import DigitStream
from scmkit.scm import Dataset, sample

from structures import drift_dataset, drift_model, two_sample_pvalue


def iid_dataset(seed: int, n: int) -> Dataset:
    return sample(drift_model(0.0), DigitStream(seed), n)


def batch_dataset(n: int = 2000, lift: float = 0.5) -> Dataset:
    """Alternating-batch rows whose response law depends on the batch
    column only, so index blocks agree but batch blocks do not."""
    rng = random.Random(13)
    rows = []
    for i in range(n):
        b = i % 2
        r = 1 if rng.random() < 0.2 + lift * b else 0
        rows.append((0, 0, b, r))
    return Dataset(("X", "T", "B", "R"), tuple(rows))


class TestStratifySplit:
    def test_groups_rows_by_covariates_and_treatment(self):
        data = Dataset(("X", "T", "R"), ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)))
        strata = stratify_split(data, ["X"], "T", k=2)
        assert set(strata) == {((0,), 0), ((0,), 1), ((1,), 0)}
        assert strata[((0,), 0)].indices == (0, 3)
        assert strata[((0,), 1)].indices == (1,)
        assert strata[((1,), 0)].indices == (2,)

    def test_covariate_only_grouping_puts_none_in_the_key(self):
        data = Dataset(("X", "T", "R"), ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)))
        strata = stratify_split(data, ["X"], None, k=2)
        assert set(strata) == {((0,), None), ((1,), None)}
        assert strata[((0,), None)].indices == (0, 1, 3)

    def test_blocks_are_contiguous_with_the_remainder_up_front(self):
        rows = tuple((0, 0, i) for i in range(7))
        strata = stratify_split(Dataset(("X", "T", "R"), rows), ["X"], "T", k=3)
        stratum = strata[((0,), 0)]
        assert [len(b) for b in stratum.blocks] == [3, 2, 2]
        assert sum(stratum.blocks, ()) == stratum.indices == tuple(range(7))
        assert stratum.group_count == 1
        assert not stratum.too_small

    def test_single_row_stratum_is_flagged_too_small(self):
        strata = stratify_split(Dataset(("X", "T", "R"), ((1, 1, 0),)), ["X"], "T", k=2)
        stratum = strata[((1,), 1)]
        assert stratum.blocks == ((0,), ())
        assert stratum.too_small

    def test_secondary_column_orders_within_each_primary_block(self):
        batches = [3, 1, 2, 0, 7, 5, 6, 4]
        rows = tuple((0, 0, b, 0) for b in batches)
        data = Dataset(("X", "T", "B", "R"), rows)
        stratum = stratify_split(data, ["X"], "T", k=2, secondary_col="B")[((0,), 0)]
        assert stratum.group_count == 2
        assert stratum.blocks == ((3, 1), (2, 0), (7, 5), (6, 4))

    def test_secondary_split_needs_a_row_per_leaf_block(self):
        rows = tuple((0, 0, i, 0) for i in range(3))
        data = Dataset(("X", "T", "B", "R"), rows)
        stratum = stratify_split(data, ["X"], "T", k=2, secondary_col="B")[((0,), 0)]
        assert len(stratum.blocks) == 4
        assert stratum.too_small

    def test_unknown_column_is_rejected(self):
        data = Dataset(("X", "T", "R"), ((0, 0, 0),))
        with pytest.raises(InvalidArgumentError, match="BOGUS"):
            stratify_split(data, ["BOGUS"], "T", k=2)

    def test_fewer_than_two_blocks_is_rejected(self):
        data = Dataset(("X", "T", "R"), ((0, 0, 0),))
        with pytest.raises(InvalidArgumentError, match="k=1"):
            stratify_split(data, ["X"], "T", k=1)


class TestTwoSamplePvalue:
    def test_identical_count_vectors_give_p_one(self):
        assert two_sample_pvalue({0: 40, 1: 60}, {0: 40, 1: 60}) == 1.0

    def test_disjoint_supports_give_a_vanishing_p(self):
        assert two_sample_pvalue({0: 1000}, {1: 1000}) < 1e-10

    def test_mappings_and_iterables_agree(self):
        from_counts = two_sample_pvalue({0: 3, 1: 7}, {0: 5, 1: 5})
        from_values = two_sample_pvalue([0] * 3 + [1] * 7, [0] * 5 + [1] * 5)
        assert from_counts == from_values

    def test_order_of_arguments_does_not_matter(self):
        a, b = {0: 30, 1: 12, 2: 8}, {0: 20, 1: 25, 2: 9}
        assert two_sample_pvalue(a, b) == pytest.approx(two_sample_pvalue(b, a))

    def test_samples_too_small_to_test_give_p_one(self):
        assert two_sample_pvalue({0: 1}, {1: 1}) == 1.0

    def test_empty_sample_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="non-empty"):
            two_sample_pvalue({}, {0: 5})

    def test_null_pvalues_look_uniform(self):
        # The p-value law is discrete (ties put an atom of about 0.028
        # at p = 1), so the KS distance carries a lattice floor near
        # 0.03; the 0.01 criterion leaves room for it at this seed.
        rng = random.Random(1)
        pvals = []
        for _ in range(1000):
            a = sum(rng.random() < 0.3 for _ in range(500))
            b = sum(rng.random() < 0.3 for _ in range(500))
            pvals.append(two_sample_pvalue({0: 500 - a, 1: a}, {0: 500 - b, 1: b}))
        _, p = uniformity_check(pvals)
        assert p > 0.01


class TestUniformityCheck:
    def test_decile_grid_has_distance_point_one(self):
        statistic, _ = uniformity_check([0.1 * i for i in range(1, 10)])
        assert statistic == pytest.approx(0.1, abs=1e-12)

    def test_point_mass_at_half_has_distance_half(self):
        statistic, _ = uniformity_check([0.5] * 5)
        assert statistic == pytest.approx(0.5, abs=1e-12)

    def test_seeded_uniforms_pass(self):
        rng = random.Random(11)
        _, p = uniformity_check([rng.random() for _ in range(200)])
        assert p > 0.01

    def test_fewer_than_five_values_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="at least 5"):
            uniformity_check([0.1, 0.2, 0.3, 0.4])

    def test_values_outside_the_unit_interval_are_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"\[0, 1\]"):
            uniformity_check([0.1, 0.2, 0.3, 0.4, 1.4])

    @given(st.lists(st.floats(0, 1), min_size=5, max_size=40))
    def test_statistic_and_p_stay_in_range(self, vals):
        statistic, p = uniformity_check(vals)
        assert 0 <= statistic <= 1
        assert 0 <= p <= 1


class TestHomogeneityReport:
    def test_iid_data_raises_no_alarm(self):
        report = homogeneity_report(iid_dataset(3, 2000), ["X"], "T", "R", k=2)
        assert not report.alarm
        assert len(report.reports) == len(report.pvalues) == 6
        assert all(0 <= p <= 1 for p in report.pvalues)
        assert report.uniformity_pvalue > 0.01
        assert report.warnings == ()

    def test_reports_cover_every_row_once_at_two_blocks(self):
        data = iid_dataset(3, 2000)
        report = homogeneity_report(data, ["X"], "T", "R", k=2)
        response_reports = [r for r in report.reports if r.compares == "responses"]
        covered = sum(
            sum(r.left_counts.values()) + sum(r.right_counts.values())
            for r in response_reports
        )
        assert covered == len(data)

    def test_block_frequencies_match_the_generating_law(self):
        report = homogeneity_report(iid_dataset(9, 4000), ["X"], "T", "R", k=2)
        for stratum in report.reports:
            if stratum.compares != "responses":
                continue
            (x,), t = stratum.key
            truth = 0.2 + 0.1 * t + 0.2 * x
            n = sum(stratum.left_counts.values())
            freq = stratum.left_counts.get(1, 0) / n
            assert abs(freq - truth) <= 3 * math.sqrt(truth * (1 - truth) / n)

    def test_planted_drift_is_flagged(self):
        report = homogeneity_report(drift_dataset(5, 10_000, 0.3), ["X"], "T", "R", k=3)
        assert report.alarm
        assert min(report.pvalues) < 1e-6
        assert report.uniformity_pvalue < report.threshold
        worst = report.reports[report.pvalues.index(min(report.pvalues))]
        assert worst.compares == "responses"

    def test_three_rows_yield_an_empty_report_with_a_warning(self):
        data = Dataset(("X", "T", "R"), ((0, 0, 0), (0, 0, 1), (0, 1, 1)))
        report = homogeneity_report(data, ["X"], "T", "R", k=2)
        assert report.reports == ()
        assert not report.alarm
        assert report.uniformity_pvalue is None
        assert any("nothing was tested" in w for w in report.warnings)

    def test_batch_effect_hides_from_the_index_split(self):
        report = homogeneity_report(batch_dataset(), ["X"], "T", "R", k=2)
        assert not report.alarm

    def test_batch_effect_shows_under_the_secondary_split(self):
        report = homogeneity_report(
            batch_dataset(), ["X"], "T", "R", k=2, secondary_col="B"
        )
        assert report.alarm
        assert min(report.pvalues) < 1e-6

    def test_few_pvalues_skip_the_uniformity_check_with_a_warning(self):
        data = iid_dataset(4, 400)
        report = homogeneity_report(data, [], "T", "R", k=2)
        assert 0 < len(report.pvalues) < 5
        assert report.uniformity_pvalue is None
        assert any("uniformity check skipped" in w for w in report.warnings)

    def test_threshold_outside_unit_interval_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="threshold"):
            homogeneity_report(iid_dataset(1, 50), ["X"], "T", "R", k=2, threshold=1.5)

    def test_false_alarm_rate_stays_at_the_nominal_level(self):
        alarms = 0
        for rep in range(100):
            data = iid_dataset(1000 + rep, 600)
            alarms += homogeneity_report(data, ["X"], "T", "R", k=2).alarm
        assert alarms <= 5

    def test_power_against_moderate_drift(self):
        alarms = 0
        for rep in range(20):
            data = drift_dataset(2000 + rep, 10_000, 0.3)
            alarms += homogeneity_report(data, ["X"], "T", "R", k=2).alarm
        assert alarms >= 18


class TestReportTypes:
    def test_stratum_report_rejects_an_impossible_pvalue(self):
        with pytest.raises(InvalidArgumentError, match="outside"):
            StratumReport(((0,), 0), "responses", (0, 1), {0: 1}, {0: 1}, 0.0, 1.5)

    def test_homogeneity_report_requires_aligned_pvalues(self):
        with pytest.raises(InvalidArgumentError, match="align"):
            HomogeneityReport((), (0.5,), None, None, 0.01, False)
