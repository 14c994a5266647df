"""Pricing the shipped reference schedules against the shipped quote panels.

The capped-model (gpl) reference schedule reproduces its reference expected
tranched losses and prices the panel close to the quotes. The cluster-model
(gpcl) reference schedule is internally inconsistent with its published
outputs (see the engine cross-validation tests: the exact solver and an
independent Monte Carlo agree with each other on that schedule but not with
the reference figures), so the dependent pricing checks are expected
failures, kept strict so any change in this situation is flagged.
"""
import datetime as dt

import numpy as np
import pytest

from clusterloss.calibrator import PanelPricer
from clusterloss.loss_engine import loss_distribution
from clusterloss.pricer import TrancheDef, expected_tranched_loss

from reference_values import (
    REFERENCE_EPS_10Y_GPL,
    REFERENCE_ETL_GPL,
    TRANCHE_LADDER,
)

MAT_10Y = dt.date(2016, 12, 20)


class TestCappedModelReference:
    def test_expected_tranched_losses_match_reference(self, pool, gpl_schedule):
        dist = loss_distribution(pool, gpl_schedule, gpl_schedule.knots[-1])
        for (a, b), expected in zip(TRANCHE_LADDER, REFERENCE_ETL_GPL[-1]):
            value = 100 * expected_tranched_loss(dist, TrancheDef(a, b), pool)
            assert value == pytest.approx(expected, abs=0.5)

    def test_panel_pricing_close_to_reference_errors(self, pool, curve, itraxx_panel,
                                                     gpl_schedule):
        # the 3-decimal rounding of the stored intensities moves the 10y
        # index value by up to ~1.2 widths, so agreement is loose
        pricer = PanelPricer(itraxx_panel, curve, pool)
        eps = pricer.errors(gpl_schedule)
        labels = [ins.label for ins in pricer.instruments]
        ten_year = {label: e for label, e in zip(labels, eps)
                    if "20-Dec-16" in label}
        reference = dict(zip(
            ["index 20-Dec-16", "0-3 20-Dec-16", "3-6 20-Dec-16", "6-9 20-Dec-16",
             "9-12 20-Dec-16", "12-22 20-Dec-16", "22-100 20-Dec-16"],
            REFERENCE_EPS_10Y_GPL))
        # the mezzanine rows are insensitive to the stored rounding
        assert ten_year["3-6 20-Dec-16"] == pytest.approx(
            reference["3-6 20-Dec-16"], abs=0.5)
        for label, ref in reference.items():
            assert ten_year[label] == pytest.approx(ref, abs=5.0)


class TestClusterModelReferencePricing:
    @pytest.mark.xfail(
        strict=True,
        reason="reference cluster-model schedule is inconsistent with its "
               "published pricing outputs; see engine cross-validation tests")
    def test_senior_mezzanine_prices_within_one_width(self, pool, curve,
                                                      itraxx_panel, gpcl_schedule):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        values = {ins.label: v for ins, v in
                  zip(pricer.instruments, pricer.model_values(gpcl_schedule))}
        assert values["12-22 20-Dec-16"] == pytest.approx(19.5, abs=1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="reference cluster-model schedule is inconsistent with its "
               "published pricing outputs; see engine cross-validation tests")
    def test_short_maturities_within_bid_ask(self, pool, curve, itraxx_panel,
                                             gpcl_schedule):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        eps = pricer.errors(gpcl_schedule)
        for ins, e in zip(pricer.instruments, eps):
            if ins.maturity != MAT_10Y:
                assert abs(e) <= 1.0, ins.label

    @pytest.mark.xfail(
        strict=True,
        reason="reference cluster-model schedule is inconsistent with its "
               "published pricing outputs; see engine cross-validation tests")
    def test_ten_year_errors_near_reference(self, pool, curve, itraxx_panel,
                                            gpcl_schedule):
        from reference_values import REFERENCE_EPS_10Y_GPCL
        pricer = PanelPricer(itraxx_panel, curve, pool)
        eps = pricer.errors(gpcl_schedule)
        ten_year = [float(e) for ins, e in zip(pricer.instruments, eps)
                    if ins.maturity == MAT_10Y]
        ordered = [ten_year[0]] + ten_year[1:]
        np.testing.assert_allclose(ordered, REFERENCE_EPS_10Y_GPCL, atol=0.3)
