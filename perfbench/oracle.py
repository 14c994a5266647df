"""Computations made apart from the program, and the checks built on them.

Nothing here calls the program's loss engine, pricer or simulator. The
oracles take the program's input objects (schedules, quote panels, discount
curves) only as data:

* gpcl counting distributions: ``scipy.linalg.expm`` of a generator built here
  from the model's rates, one exponential per knot piece of each step;
* gpl counting distributions: direct convolution of the Poisson modes, with
  all mass at or beyond the pool size lumped at the cap;
* index and tranche legs written out from their formulas on a pricing grid
  and payment calendar rebuilt here.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import datetime as dt
import math

import numpy as np
import scipy.linalg
import scipy.special
import scipy.stats

DAYS_PER_YEAR = 365.0
GRID_STEP_DAYS = 30.0

# Quotes are compared in bid-ask widths: the program and the oracles both
# carry about 1e-13 relative error, far below 1e-6 of the narrowest width.
VALUE_TOL_WIDTHS = 1e-6
# Monte Carlo z-test threshold: two-sided normal tail 5.7e-7 per statistic.
Z_LIMIT = 5.0
MC_TRANCHES = ((0.0, 0.03), (0.03, 0.06), (0.06, 0.09))


# ---------------------------------------------------------------------------
# schedules as data
# ---------------------------------------------------------------------------

def cumulated_at(schedule, times) -> np.ndarray:
    """Aggregate cumulated intensity of every mode at each time, shape
    (len(times), n_modes): zero at time zero, linear between knots, the final
    interval's slope beyond the last knot."""
    knots = np.concatenate([[0.0], np.asarray(schedule.knots, dtype=float)])
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), len(schedule.amplitudes)))
    for j, row in enumerate(schedule.cumulated):
        values = np.concatenate([[0.0], np.asarray(row, dtype=float)])
        slope = (values[-1] - values[-2]) / (knots[-1] - knots[-2])
        inside = np.interp(times, knots, values)
        out[:, j] = np.where(times > knots[-1],
                             values[-1] + slope * (times - knots[-1]), inside)
    return out


# ---------------------------------------------------------------------------
# counting distributions
# ---------------------------------------------------------------------------

def _cluster_rows(names: int, amplitudes) -> list[tuple[int, np.ndarray]]:
    """For each amplitude a <= names: C(names - y, a) / C(names, a), y = 0..names - a.

    Stored schedule values are aggregate intensities (per-cluster value times
    C(names, a)), so this ratio turns an aggregate increment into the rate at
    which a size-a cluster of survivors fires when y names have defaulted.
    """
    out = []
    for j, a in enumerate(amplitudes):
        if a > names:
            continue
        y = np.arange(names - a + 1)
        log_ratio = (scipy.special.gammaln(names - y + 1) - scipy.special.gammaln(names - y - a + 1)
                     - scipy.special.gammaln(names + 1) + scipy.special.gammaln(names - a + 1))
        out.append((j, np.exp(log_ratio)))
    return out


def gpcl_rows(schedule, names: int, times) -> np.ndarray:
    """gpcl counting distributions at non-decreasing ``times``, one row each.

    The state is carried from one time to the next by exp(G) over each piece
    between consecutive cut points (the requested times and the knots), where
    G has entry (y + a, y) = C(M - y, a) x per-cluster increment and a
    diagonal that balances each column to zero.
    """
    times = np.asarray(times, dtype=float)
    cuts = np.unique(np.concatenate([[0.0], times, [k for k in schedule.knots if k < times[-1]]]))
    levels = cumulated_at(schedule, cuts)
    rows = _cluster_rows(names, schedule.amplitudes)
    state = np.zeros(names + 1)
    state[0] = 1.0
    at_cut = {0.0: state.copy()}
    for i in range(1, len(cuts)):
        gen = np.zeros((names + 1, names + 1))
        for j, ratio in rows:
            rate = levels[i, j] - levels[i - 1, j]
            if rate <= 0.0:
                continue
            a = schedule.amplitudes[j]
            y = np.arange(len(ratio))
            gen[y + a, y] += rate * ratio
            gen[y, y] -= rate * ratio
        state = scipy.linalg.expm(gen) @ state
        at_cut[float(cuts[i])] = state
    return np.stack([at_cut[float(t)] for t in times])


def gpl_rows(schedule, names: int, times) -> np.ndarray:
    """gpl counting distributions at ``times``: the sum of amplitude x
    Poisson(cumulated) over the modes, convolved mode by mode, with every
    outcome at or beyond the pool size lumped at the cap."""
    lams = cumulated_at(schedule, times)
    probs = np.zeros((len(lams), names + 1))
    probs[:, 0] = 1.0
    for j, a in enumerate(schedule.amplitudes):
        lam = lams[:, j]
        jumps = -(-names // a)  # k * a >= names from here on
        k = np.arange(jumps)
        pmf = scipy.stats.poisson.pmf(k[None, :], lam[:, None])
        tail = scipy.stats.poisson.sf(jumps - 1, lam)
        new = np.zeros_like(probs)
        for kk in range(jumps):
            shift = kk * a
            new[:, shift:names] += pmf[:, kk, None] * probs[:, :names - shift]
            new[:, names] += pmf[:, kk] * probs[:, names - shift:].sum(axis=1)
        new[:, names] += tail
        probs = new
    return probs


def count_rows(schedule, names: int, times) -> np.ndarray:
    if schedule.model == "gpcl":
        return gpcl_rows(schedule, names, times)
    return gpl_rows(schedule, names, times)


# ---------------------------------------------------------------------------
# legs
# ---------------------------------------------------------------------------

def payment_dates(valuation_date: dt.date, maturity: dt.date) -> list[dt.date]:
    """20 Mar/Jun/Sep/Dec, Saturday and Sunday moved to Monday, in
    (valuation date, maturity]; the maturity closes the calendar."""
    out = []
    for year in range(valuation_date.year, maturity.year + 1):
        for month in (3, 6, 9, 12):
            d = dt.date(year, month, 20)
            d += dt.timedelta(days=(7 - d.weekday()) % 7 if d.weekday() >= 5 else 0)
            if valuation_date < d <= maturity:
                out.append(d)
    if not out or out[-1] != maturity:
        out.append(maturity)
    return out


class PanelOracle:
    """Index spreads (bp), tranche running spreads (bp) and equity upfronts
    (fraction) of a quote panel, from count distributions on a grid rebuilt
    here: zero, every 30 days up to each maturity, and every payment date."""

    def __init__(self, panel, curve):
        self.curve = curve
        yf = lambda d: (d - panel.valuation_date).days / DAYS_PER_YEAR  # noqa: E731
        self.calendars = {}
        grid = [0.0]
        step = GRID_STEP_DAYS / DAYS_PER_YEAR
        for m in panel.maturities:
            pay = np.array([yf(d) for d in payment_dates(panel.valuation_date, m)])
            self.calendars[m] = pay
            grid.extend(np.arange(step, yf(m), step))
            grid.extend(pay)
        self.times = np.unique(grid)
        self.quotes = ([("index", None, None, q.maturity, q.spread_bp, q.bid_ask_width_bp, False, 0.0)
                        for q in panel.index_quotes]
                       + [("tranche", q.attachment, q.detachment, q.maturity, q.quote,
                           q.bid_ask_width, q.is_upfront, q.running_premium_if_upfront)
                          for q in panel.tranche_quotes])

    def values(self, rows: np.ndarray, names: int, recovery: float) -> dict:
        """Model value of every quote keyed by (attachment, detachment, maturity)."""
        counts = np.arange(names + 1)
        fraction = counts / names
        pool_loss = (1.0 - recovery) * fraction
        out = {}
        for kind, att, det, mat, _, _, upfront, running in self.quotes:
            if kind == "index":
                loss, notional = pool_loss, fraction
            else:
                loss = np.clip((pool_loss - att) / (det - att), 0.0, 1.0)
                notional = loss
            pay = self.calendars[mat]
            inside = self.times <= pay[-1] + 1e-12
            t = self.times[inside]
            expected = rows[inside] @ loss
            protection = float(np.sum(self.curve.discount_factor(0.5 * (t[1:] + t[:-1]))
                                      * np.diff(expected)))
            pay_rows = rows[np.searchsorted(self.times, pay - 1e-12)]
            accrual = np.diff(np.concatenate([[0.0], pay]))
            annuity = float(np.sum(accrual * self.curve.discount_factor(pay)
                                   * (1.0 - pay_rows @ notional)))
            if upfront:
                out[(att, det, mat)] = protection - running * annuity
            else:
                out[(att, det, mat)] = 1e4 * protection / annuity
        return out

    def errors(self, values: dict) -> dict:
        """Bid-ask-weighted errors (model - mid) / width by quote key."""
        return {(att, det, mat): (values[(att, det, mat)] - mid) / width
                for _, att, det, mat, mid, width, _, _ in self.quotes}

    def widths(self) -> dict:
        return {(att, det, mat): width for _, att, det, mat, _, width, _, _ in self.quotes}


def instrument_key(instrument):
    return (instrument.attachment, instrument.detachment, instrument.maturity)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_values(label: str, instruments, values, expected: dict, widths: dict,
                 tol: float = VALUE_TOL_WIDTHS) -> list[str]:
    """Program quotes against oracle quotes, in bid-ask widths."""
    problems = []
    values = np.asarray(values, dtype=float)
    if values.shape != (len(instruments),) or not np.all(np.isfinite(values)):
        return [f"{label}: {values.shape} values, finite: {np.all(np.isfinite(values))}"]
    worst, worst_at = 0.0, None
    for ins, v in zip(instruments, values):
        key = instrument_key(ins)
        gap = abs(v - expected[key]) / widths[key]
        if not gap <= worst:
            worst, worst_at = gap, ins.label
    if not worst <= tol:
        problems.append(f"{label}: {worst_at} is {worst:.3e} widths from the oracle "
                        f"(limit {tol:.0e})")
    return problems


def check_not_decreasing(label: str, lower, upper, instruments) -> list[str]:
    """Every quote under ``upper`` at least its value under ``lower``, up to
    roundoff relative to the quote."""
    lower, upper = np.asarray(lower), np.asarray(upper)
    slack = 1e-9 * np.maximum(np.abs(lower), 1e-3)
    bad = np.flatnonzero(upper < lower - slack)
    return [f"{label}: {instruments[i].label} fell from {lower[i]!r} to {upper[i]!r}"
            for i in bad[:3]]


def check_schedule_shape(label: str, schedule) -> list[str]:
    rows = np.asarray(schedule.cumulated, dtype=float)
    problems = []
    if np.any(rows < 0):
        problems.append(f"{label}: negative cumulated intensity")
    if np.any(np.diff(rows, axis=1) < 0):
        problems.append(f"{label}: cumulated intensity decreases between knots")
    return problems


def mc_statistics(names: int, recovery: float) -> np.ndarray:
    """Functions of the count tested against the exact law: the count itself
    and the tranched loss of the 0-3%, 3-6% and 6-9% tranches. Shape (4, names + 1)."""
    counts = np.arange(names + 1)
    loss = (1.0 - recovery) * counts / names
    return np.stack([counts.astype(float)]
                    + [np.clip((loss - a) / (d - a), 0.0, 1.0) for a, d in MC_TRANCHES])


def check_histogram(label: str, histogram: np.ndarray, exact: np.ndarray, times,
                    recovery: float, z_limit: float = Z_LIMIT) -> list[str]:
    """z-test of simulated path counts against the exact distribution.

    ``histogram`` holds path counts, one row per time. For each time and each
    statistic f, z = (sample mean of f - exact mean) / (exact sd / sqrt(paths)).
    With 4 statistics at 4 times the false-alarm rate is at most
    16 x 5.7e-7 = 9e-6 per strategy under the normal approximation, which
    holds closely at the tens of thousands of paths a run draws.
    """
    names = histogram.shape[1] - 1
    n_paths = histogram.sum(axis=1)
    if np.any(n_paths != n_paths[0]) or n_paths[0] == 0:
        return [f"{label}: path totals per time differ or are zero: {n_paths}"]
    stats = mc_statistics(names, recovery)
    problems = []
    for row, t in enumerate(times):
        mean = stats @ exact[row]
        sd = np.sqrt(np.clip(stats ** 2 @ exact[row] - mean ** 2, 0.0, None))
        sample = stats @ histogram[row] / n_paths[row]
        for s in range(len(stats)):
            if sd[s] == 0.0:
                z = 0.0 if sample[s] == mean[s] else math.inf
            else:
                z = (sample[s] - mean[s]) / (sd[s] / math.sqrt(n_paths[row]))
            if not abs(z) <= z_limit:
                problems.append(f"{label}: statistic {s} at t={t:.3f} is {z:+.2f} "
                                f"standard errors from the exact value")
    return problems
