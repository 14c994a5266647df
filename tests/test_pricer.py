import datetime as dt
import math

import numpy as np
import pytest
from scipy.integrate import quad

from clusterloss.loss_engine import GPL, GPCL, IntensitySchedule, LossDistribution, PoolSpec
from clusterloss.market_data import DiscountCurve, PaymentSchedule
from clusterloss.pricer import (
    LegValues,
    LossGrid,
    PricingError,
    TrancheDef,
    default_leg,
    expected_tranched_loss,
    index_spread,
    pricing_times,
    tranche_legs,
    tranche_premium_leg,
    tranche_spread_or_upfront,
    tranched_loss,
)

VAL = dt.date(2006, 10, 2)


def make_schedule(model, amplitudes, knots, cumulated):
    return IntensitySchedule(model=model, amplitudes=tuple(amplitudes),
                             knots=tuple(knots),
                             cumulated=tuple(tuple(row) for row in cumulated))


def flat_curve(rate):
    return DiscountCurve(VAL, (dt.date(2030, 1, 1),), (rate,))


def point_mass(count, names, t=1.0):
    probs = np.zeros(names + 1)
    probs[count] = 1.0
    return LossDistribution(time=t, probs=probs)


class TestTranchedLoss:
    def test_zero_below_attachment(self):
        tranche = TrancheDef(0.03, 0.06)
        assert tranched_loss(0.0, tranche) == 0.0
        assert tranched_loss(0.03, tranche) == 0.0

    def test_midpoint_is_half(self):
        tranche = TrancheDef(0.03, 0.06)
        assert tranched_loss(0.045, tranche) == pytest.approx(0.5)

    def test_linear_interpolation(self):
        assert tranched_loss(0.04, TrancheDef(0.03, 0.06)) == pytest.approx(1 / 3)

    def test_saturates_above_detachment(self):
        tranche = TrancheDef(0.03, 0.06)
        assert tranched_loss(0.06, tranche) == 1.0
        assert tranched_loss(0.9, tranche) == 1.0

    def test_domain_validation(self):
        tranche = TrancheDef(0.0, 0.5)
        with pytest.raises(PricingError):
            tranched_loss(-0.01, tranche)
        with pytest.raises(PricingError):
            tranched_loss(1.01, tranche)

    def test_monotone_and_lipschitz(self):
        tranche = TrancheDef(0.1, 0.3)
        grid = np.linspace(0.0, 1.0, 201)
        values = tranched_loss(grid, tranche)
        diffs = np.diff(values)
        assert np.all(diffs >= 0.0)
        assert np.max(diffs) <= (grid[1] - grid[0]) / tranche.thickness + 1e-12

    def test_tranche_validation(self):
        with pytest.raises(PricingError):
            TrancheDef(0.5, 0.5)
        with pytest.raises(PricingError):
            TrancheDef(0.6, 0.3)


class TestExpectedTranchedLoss:
    def test_no_defaults_no_loss(self, pool):
        assert expected_tranched_loss(point_mass(0, 125), TrancheDef(0, 0.03), pool) == 0.0

    def test_full_default_senior_tranche(self, pool):
        # total loss is 60% of notional; the 22-100 tranche absorbs 38/78 of it
        value = expected_tranched_loss(point_mass(125, 125), TrancheDef(0.22, 1.0), pool)
        assert value == pytest.approx((0.6 - 0.22) / 0.78)

    def test_tranche_additivity(self, pool, gpcl_schedule):
        from clusterloss.loss_engine import gpcl_distribution
        edges = (0.0, 0.03, 0.06, 0.09, 0.12, 0.22, 1.0)
        for t in (2.0, 7.0):
            dist = gpcl_distribution(pool, gpcl_schedule, t)
            total = sum((b - a) * expected_tranched_loss(dist, TrancheDef(a, b), pool)
                        for a, b in zip(edges, edges[1:]))
            pool_loss = 0.6 * dist.expected_count() / 125
            assert total == pytest.approx(pool_loss, abs=1e-10)

    def test_monotone_in_maturity(self, pool, gpl_schedule):
        from clusterloss.loss_engine import gpl_distribution
        tranche = TrancheDef(0.03, 0.06)
        values = [expected_tranched_loss(gpl_distribution(pool, gpl_schedule, t),
                                         tranche, pool)
                  for t in (1.0, 3.0, 6.0, 10.0)]
        assert values == sorted(values)

    def test_support_mismatch_rejected(self, pool):
        with pytest.raises(PricingError):
            expected_tranched_loss(point_mass(3, 10), TrancheDef(0, 0.5), pool)


class TestLegIntegrals:
    def test_zero_schedule_has_zero_default_leg(self, curve):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPCL, (1,), (5.0,), [(0.0,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 5.01, 0.25))
        grid = LossGrid.compute(pool, sched, pricing_times(pay))
        assert default_leg(grid, TrancheDef(0, 0.03), curve, 5.0) == 0.0

    def test_flat_unit_discount_telescopes_to_terminal_loss(self):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPCL, (1, 2), (3.0,), [(1.0,), (0.4,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 3.01, 0.25))
        grid = LossGrid.compute(pool, sched, pricing_times(pay))
        tranche = TrancheDef(0.0, 0.4)
        leg = default_leg(grid, tranche, flat_curve(0.0), 3.0)
        terminal = grid.expected_tranched_losses(tranche)[grid.index_of(3.0)]
        assert leg == pytest.approx(terminal, abs=1e-14)

    def test_grid_refinement_self_check(self, pool, gpcl_schedule, curve):
        # halving the refinement step moves the 10y default leg by < 0.1%
        pay = PaymentSchedule.quarterly(VAL, dt.date(2016, 12, 20))
        tranche = TrancheDef(0.03, 0.06)
        legs = {}
        for step in (30.0, 15.0):
            grid = LossGrid.compute(pool, gpcl_schedule, pricing_times(pay, step))
            legs[step] = default_leg(grid, tranche, curve, pay.maturity_time)
        assert abs(legs[15.0] - legs[30.0]) / legs[30.0] < 1e-3

    def test_premium_leg_without_losses_is_riskless_annuity(self, curve):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPCL, (1,), (5.0,), [(0.0,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 5.01, 0.25))
        grid = LossGrid.compute(pool, sched, pricing_times(pay))
        leg = tranche_premium_leg(grid, TrancheDef(0, 0.03), curve, pay)
        riskless = float(np.sum(pay.year_fractions
                                * curve.discount_factor(np.asarray(pay.times))))
        assert leg == pytest.approx(riskless, abs=1e-12)

    def test_certain_wipeout_gives_zero_annuity(self, curve):
        pool = PoolSpec(names=4)
        probs = np.zeros((3, 5))
        probs[:, 4] = 1.0  # all names gone from the first instant
        grid = LossGrid(pool, np.array([0.0, 0.5, 1.0]), probs)
        pay = PaymentSchedule.from_times([0.5, 1.0])
        annuity = tranche_premium_leg(grid, TrancheDef(0.0, 0.3), curve, pay)
        assert annuity == pytest.approx(0.0)
        legs = LegValues(default_leg_pv=0.1, premium_leg_pv_per_unit_spread=annuity)
        with pytest.raises(PricingError):
            tranche_spread_or_upfront(legs)


class TestQuoting:
    def test_zero_default_leg_means_zero_spread(self):
        legs = LegValues(0.0, 4.0)
        assert tranche_spread_or_upfront(legs) == 0.0

    def test_breakeven_division(self):
        legs = LegValues(0.03, 4.0)
        assert tranche_spread_or_upfront(legs) * 1e4 == pytest.approx(75.0)

    def test_equity_upfront_convention(self):
        legs = LegValues(0.55, 2.0)
        assert tranche_spread_or_upfront(legs, is_upfront=True) == pytest.approx(
            0.55 - 0.05 * 2.0)

    def test_upfront_pv_reduces_running_spread(self):
        legs = LegValues(0.05, 4.0, upfront_pv=0.01)
        assert tranche_spread_or_upfront(legs) == pytest.approx(0.01)

    def test_leg_values_validated(self):
        with pytest.raises(PricingError):
            LegValues(-0.1, 1.0)


class ScaledCurve:
    """Discount curve scaled by a constant factor (for invariance checks)."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = factor

    def discount_factor(self, t):
        return self.factor * self.base.discount_factor(t)


class TestSpreadInvariance:
    def test_breakeven_invariant_under_curve_scaling(self, pool, gpl_schedule, curve):
        pay = PaymentSchedule.quarterly(VAL, dt.date(2011, 12, 20))
        grid = LossGrid.compute(pool, gpl_schedule, pricing_times(pay))
        tranche = TrancheDef(0.03, 0.06)
        base_legs = tranche_legs(grid, tranche, curve, pay)
        scaled_legs = tranche_legs(grid, tranche, ScaledCurve(curve, 1.37), pay)
        s0 = tranche_spread_or_upfront(base_legs)
        s1 = tranche_spread_or_upfront(scaled_legs)
        assert abs(s1 - s0) < 1e-12
        i0 = index_spread(grid, curve, pay)
        i1 = index_spread(grid, ScaledCurve(curve, 1.37), pay)
        assert abs(i1 - i0) < 1e-12


class TestIndexSpread:
    def test_zero_schedule_prices_at_zero(self, curve):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPL, (1,), (5.0,), [(0.0,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 5.01, 0.25))
        grid = LossGrid.compute(pool, sched, pricing_times(pay))
        assert index_spread(grid, curve, pay) == 0.0

    def test_single_name_pool_recovers_par_cds_spread(self):
        # one name, zero recovery, constant hazard: quarterly par spread
        # lam * integral D(t) exp(-lam t) dt / sum_i delta_i D(T_i) exp(-lam T_i)
        lam, rate, maturity = 0.02, 0.03, 5.0
        pool = PoolSpec(names=1, recovery=0.0)
        sched = make_schedule(GPL, (1,), (maturity,), [(lam * maturity,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, maturity + 1e-9, 0.25))
        grid = LossGrid.compute(pool, sched, pricing_times(pay, grid_step_days=7.0))
        model = index_spread(grid, flat_curve(rate), pay)

        numerator = quad(lambda t: lam * math.exp(-(lam + rate) * t), 0, maturity,
                         epsabs=1e-14)[0]
        denominator = sum(0.25 * math.exp(-(rate + lam) * t) for t in pay.times)
        closed_form = numerator / denominator
        assert model == pytest.approx(closed_form, rel=2e-4)

    def test_capped_poisson_is_true_default_indicator_here(self):
        # sanity for the single-name setup: P(count=1) = 1 - exp(-lam t)
        lam = 0.02
        pool = PoolSpec(names=1, recovery=0.0)
        sched = make_schedule(GPL, (1,), (5.0,), [(lam * 5.0,)])
        from clusterloss.loss_engine import gpl_distribution
        dist = gpl_distribution(pool, sched, 2.0)
        assert dist.probs[1] == pytest.approx(1 - math.exp(-lam * 2.0), abs=1e-12)


class TestLossGrid:
    def test_index_of_missing_time(self, pool, gpl_schedule):
        grid = LossGrid.compute(pool, gpl_schedule, np.array([0.0, 1.0, 2.0]))
        assert grid.index_of(1.0) == 1
        with pytest.raises(PricingError):
            grid.index_of(1.5)

    def test_shape_validation(self, pool):
        with pytest.raises(PricingError):
            LossGrid(pool, np.array([0.0, 1.0]), np.zeros((2, 5)))

    def test_pricing_times_include_payments_and_maturity(self):
        pay = PaymentSchedule.from_times([0.25, 0.5, 0.75, 1.0])
        times = pricing_times(pay, grid_step_days=30.0)
        assert times[0] == 0.0
        for t in pay.times:
            assert np.min(np.abs(times - t)) == 0.0
        for step in (0.0, math.nan, math.inf):
            with pytest.raises(PricingError, match="finite"):
                pricing_times(pay, grid_step_days=step)
