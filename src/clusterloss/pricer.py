"""Credit index and CDO tranche pricing from counting-distribution term
structures: default legs, premium legs, breakeven spreads, equity upfronts.

Conventions: deterministic discounting; premium paid in arrears on the
notional remaining at each payment date; the default-leg time integral is
discretised on the payment dates plus a refinement grid (monthly by default)
with midpoint discounting of each loss increment; index premium notional
erodes with the default count (no recovery credit), while the index default
leg pays loss increments net of recovery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss_engine import (
    IntensitySchedule,
    KnotMemo,
    LossDistribution,
    PoolSpec,
    distribution_term_structure,
)
from .market_data import DAYS_PER_YEAR, PaymentSchedule


class PricingError(ValueError):
    pass


@dataclass(frozen=True)
class TrancheDef:
    """Loss slice [attachment, detachment] of the pool, unit thickness."""

    attachment: float
    detachment: float

    def __post_init__(self):
        if not (0.0 <= self.attachment < self.detachment <= 1.0):
            raise PricingError(
                f"need 0 <= attachment < detachment <= 1, got "
                f"[{self.attachment}, {self.detachment}]")

    @property
    def thickness(self) -> float:
        return self.detachment - self.attachment

    def label(self) -> str:
        return f"{100 * self.attachment:g}-{100 * self.detachment:g}"


@dataclass(frozen=True)
class LegValues:
    """Present values per unit tranche (or pool) notional."""

    default_leg_pv: float
    premium_leg_pv_per_unit_spread: float
    upfront_pv: float = 0.0

    def __post_init__(self):
        if self.default_leg_pv < 0 or self.premium_leg_pv_per_unit_spread < 0:
            raise PricingError("leg values must be non-negative")


def tranched_loss(loss, tranche: TrancheDef):
    """Fraction of the tranche wiped out at pool loss ``loss``: zero below the
    attachment, linear in between, one above the detachment."""
    arr = np.asarray(loss, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise PricingError("pool loss must lie in [0, 1]")
    out = np.clip((arr - tranche.attachment) / tranche.thickness, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def tranche_payout_by_count(tranche: TrancheDef, pool: PoolSpec) -> np.ndarray:
    """Tranched loss per default count, using the constant-recovery loss map
    (pool loss = (1 - recovery) * count / names)."""
    losses = pool.loss_per_default * np.arange(pool.names + 1)
    return tranched_loss(losses, tranche)


def expected_tranched_loss(dist: LossDistribution, tranche: TrancheDef, pool: PoolSpec) -> float:
    if len(dist.probs) != pool.names + 1:
        raise PricingError("distribution support does not match the pool size")
    return float(dist.probs @ tranche_payout_by_count(tranche, pool))


def pricing_times(payment_schedule: PaymentSchedule, grid_step_days: float = 30.0) -> np.ndarray:
    """Time grid for leg integrals: zero, every payment date, and a refinement
    grid of the given step, up to maturity."""
    if grid_step_days <= 0:
        raise PricingError("grid step must be positive")
    maturity = payment_schedule.maturity_time
    step = grid_step_days / DAYS_PER_YEAR
    refinement = np.arange(step, maturity, step)
    return np.unique(np.concatenate([[0.0], refinement, payment_schedule.times]))


class LossGrid:
    """Counting-distribution term structure on a fixed time grid.

    Precomputes the distributions once; every leg evaluation is then a small
    inner product. Rows are distributions over {0..names}.
    """

    def __init__(self, pool: PoolSpec, times: np.ndarray, probs: np.ndarray):
        times = np.asarray(times, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(times), pool.names + 1):
            raise PricingError("probability matrix shape does not match grid")
        self.pool = pool
        self.times = times
        self.probs = probs

    @classmethod
    def compute(cls, pool: PoolSpec, schedule: IntensitySchedule, times,
                memo: KnotMemo | None = None) -> "LossGrid":
        times = np.asarray(times, dtype=float)
        return cls(pool, times, distribution_term_structure(pool, schedule, times, memo=memo))

    def expected_tranched_losses(self, tranche: TrancheDef) -> np.ndarray:
        return self.probs @ tranche_payout_by_count(tranche, self.pool)

    def expected_default_fraction(self) -> np.ndarray:
        counts = np.arange(self.pool.names + 1)
        return self.probs @ (counts / self.pool.names)

    def expected_pool_loss(self) -> np.ndarray:
        return (1.0 - self.pool.recovery) * self.expected_default_fraction()

    def index_of(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t))
        if idx >= len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise PricingError(f"time {t} is not on the pricing grid")
        return idx


def _discounted_increments(times: np.ndarray, expected_losses: np.ndarray, curve,
                           maturity_time: float) -> float:
    """sum over grid cells of D(midpoint) * increment of the expected loss."""
    mask = times <= maturity_time + 1e-12
    t = times[mask]
    v = expected_losses[mask]
    if len(t) < 2:
        return 0.0
    midpoints = 0.5 * (t[1:] + t[:-1])
    return float(np.sum(curve.discount_factor(midpoints) * np.diff(v)))


def default_leg(grid: LossGrid, tranche: TrancheDef, curve, maturity_time: float) -> float:
    """PV of tranche protection payments up to ``maturity_time``."""
    return _discounted_increments(grid.times, grid.expected_tranched_losses(tranche),
                                  curve, maturity_time)


def tranche_premium_leg(grid: LossGrid, tranche: TrancheDef, curve,
                        schedule: PaymentSchedule) -> float:
    """PV of a unit running spread on the surviving tranche notional:
    sum_i delta_i D(T_i) (1 - expected tranched loss at T_i)."""
    etl = grid.expected_tranched_losses(tranche)
    pay_idx = [grid.index_of(t) for t in schedule.times]
    pay_times = np.asarray(schedule.times)
    return float(np.sum(schedule.year_fractions * curve.discount_factor(pay_times)
                        * (1.0 - etl[pay_idx])))


def tranche_legs(grid: LossGrid, tranche: TrancheDef, curve,
                 schedule: PaymentSchedule) -> LegValues:
    return LegValues(
        default_leg_pv=default_leg(grid, tranche, curve, schedule.maturity_time),
        premium_leg_pv_per_unit_spread=tranche_premium_leg(grid, tranche, curve, schedule),
    )


def tranche_spread_or_upfront(legs: LegValues, is_upfront: bool = False,
                              running_premium: float = 0.05) -> float:
    """Breakeven quote for the tranche legs.

    Running convention: spread = default leg / annuity (natural units; multiply
    by 1e4 for bp). Upfront convention: upfront = default leg - running
    premium * annuity, as a fraction of tranche notional.
    """
    if is_upfront:
        return legs.default_leg_pv - running_premium * legs.premium_leg_pv_per_unit_spread
    if legs.premium_leg_pv_per_unit_spread <= 0.0:
        raise PricingError("tranche annuity is zero; tranche certainly wiped out")
    return (legs.default_leg_pv - legs.upfront_pv) / legs.premium_leg_pv_per_unit_spread


def index_spread(grid: LossGrid, curve, schedule: PaymentSchedule) -> float:
    """Breakeven index spread (natural units).

    Numerator: discounted increments of the expected pool loss. Denominator:
    sum_i delta_i D(T_i) (1 - expected default fraction at T_i) — the premium
    notional ignores recovery, eroding one full name-share per default.
    """
    numerator = _discounted_increments(grid.times, grid.expected_pool_loss(),
                                       curve, schedule.maturity_time)
    idx = [grid.index_of(t) for t in schedule.times]
    fractions = grid.expected_default_fraction()[idx]
    pay_times = np.asarray(schedule.times)
    annuity = float(np.sum(schedule.year_fractions * curve.discount_factor(pay_times)
                           * (1.0 - fractions)))
    if annuity <= 0.0:
        raise PricingError("index annuity is zero")
    return numerator / annuity
