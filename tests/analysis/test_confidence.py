"""Tests for the Monte-Carlo confidence bounds."""

import math

import pytest

from repro.analysis.confidence import (
    summarize_confidence,
    trials_needed,
    violation_rate_upper_bound,
)
from repro.exceptions import AnalysisError


class TestUpperBound:
    def test_rule_of_three(self):
        # 0 violations in n trials at 95%: bound ~ 3/n for large n.
        bound = violation_rate_upper_bound(1000, 0, 0.95)
        assert bound == pytest.approx(3.0 / 1000, rel=0.05)

    def test_exact_zero_failure_formula(self):
        n, conf = 200, 0.95
        expected = 1.0 - (1.0 - conf) ** (1.0 / n)
        assert violation_rate_upper_bound(n, 0, conf) == pytest.approx(expected)

    def test_monotone_in_trials(self):
        bounds = [
            violation_rate_upper_bound(n, 0) for n in (10, 100, 1000, 10000)
        ]
        assert bounds == sorted(bounds, reverse=True)

    def test_monotone_in_violations(self):
        bounds = [
            violation_rate_upper_bound(100, k) for k in (0, 1, 5, 20)
        ]
        assert bounds == sorted(bounds)

    @pytest.mark.parametrize("n, k, expected", [
        (10, 1, 0.39416330243650466),
        (100, 5, 0.1022533776432745),
        (400, 3, 0.019269229283088177),
    ])
    def test_pinned_95_percent_values(self, n, k, expected):
        assert violation_rate_upper_bound(n, k, 0.95) == pytest.approx(
            expected, rel=1e-8
        )

    def test_matches_scipy_beta_quantile(self):
        stats = pytest.importorskip("scipy.stats")
        for n in (1, 2, 5, 10, 30, 100, 400, 1000, 10**4, 10**5):
            for k in range(min(n, 50)):
                for conf in (0.5, 0.9, 0.95, 0.99, 0.999):
                    expected = float(stats.beta.ppf(conf, k + 1, n - k))
                    assert violation_rate_upper_bound(
                        n, k, conf
                    ) == pytest.approx(expected, rel=1e-9), (n, k, conf)

    def test_all_violations(self):
        assert violation_rate_upper_bound(10, 10) == 1.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            violation_rate_upper_bound(0, 0)
        with pytest.raises(AnalysisError):
            violation_rate_upper_bound(10, 11)
        with pytest.raises(AnalysisError):
            violation_rate_upper_bound(10, 0, confidence=1.5)


class TestTrialsNeeded:
    def test_roundtrip(self):
        for target in (0.01, 0.001):
            n = trials_needed(target, 0.95)
            assert violation_rate_upper_bound(n, 0, 0.95) <= target
            assert violation_rate_upper_bound(n - 1, 0, 0.95) > target

    def test_rule_of_three_scale(self):
        assert trials_needed(0.003, 0.95) == pytest.approx(1000, rel=0.01)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            trials_needed(0.0)
        with pytest.raises(AnalysisError):
            trials_needed(0.5, confidence=0.0)


class TestSummary:
    def test_zero_violation_sentence(self):
        text = summarize_confidence(400, 0)
        assert "0 violations in 400" in text
        assert "95% confidence" in text

    def test_with_violations(self):
        text = summarize_confidence(400, 3)
        assert "3 violations" in text


class TestIntegrationWithCampaigns:
    def test_campaign_summary_statement(self):
        from repro.analysis.montecarlo import run_campaign
        from repro.core.spec import DegradableSpec

        summary = run_campaign(
            DegradableSpec(1, 2, 5), n_trials=300, seed=21
        )
        assert not summary.violations
        bound = violation_rate_upper_bound(summary.n_trials, 0)
        assert bound < 0.011  # ~1% at 300 trials
