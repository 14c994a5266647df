"""Joint calibration of intensity schedules to index + tranche quote panels.

The objective is the sum of squared bid-ask-weighted quote errors
eps_i = (model_i - mid_i) / width_i, from ``PanelPricer.errors``. Free
parameters are the non-negative per-knot-interval increments of each
amplitude's cumulated intensity, so fitted schedules are non-decreasing by
construction.

Amplitudes are selected greedily: start from amplitude 1, then repeatedly
scan every unused amplitude, refit all intensities warm-started from the
incumbent, and keep the candidate with the lowest objective, until the
objective threshold is met, the newest mode is negligible, or the mode
budget is exhausted. Every fit is one bounded least-squares solve over all
increments with exact Jacobians from the loss engine's tangent pass, under
an evaluation budget that charges a Jacobian one evaluation per column. The
candidates of a scan start from the incumbent's errors and their slices of
one tangent pass at the incumbent. The search draws no random numbers, so
a calibration does not depend on its seed.
"""
from __future__ import annotations

import datetime as dt
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .loss_engine import GPCL, GPL, IntensitySchedule, PoolSpec
from .market_data import DiscountCurve, QuotePanel
from .pricer import Instrument, PanelPricer


class CalibrationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# intensity fitting (amplitudes fixed)
# ---------------------------------------------------------------------------

# the largest increment a fit tries. A mode whose errors saturate in its
# intensity (gpcl amplitude 125 fires only while every name survives) has a
# Jacobian column near zero, which ``x_scale="jac"`` turns into steps of a
# million and more: intervals whose uniformised series the kernel cannot sum
# within its mass tolerance, and whose Poisson weights take hundreds of
# megabytes. A rise of 1e4 over one knot interval is thousands of times any
# fitted value, and its series already runs to about 1e4 terms.
_MAX_INCREMENT = 1e4


def _schedule_from_increments(model: str, amplitudes, knots, x: np.ndarray) -> IntensitySchedule:
    inc = np.maximum(x.reshape(len(amplitudes), len(knots)), 0.0)
    return IntensitySchedule(model, amplitudes, knots, np.cumsum(inc, axis=1))


class _BudgetSpent(Exception):
    """The evaluations left cannot pay for the solver's next step."""


@dataclass
class FitResult:
    schedule: IntensitySchedule
    objective: float
    errors: np.ndarray
    increments: np.ndarray
    n_evaluations: int
    converged: bool
    warning: str | None = None


def fit_intensities(pricer: PanelPricer, model: str, amplitudes, x0,
                    *, max_evaluations: int = 2500, start=None) -> FitResult:
    """Fit all per-interval intensity increments with amplitudes held fixed.

    One bounded least-squares solve of the weighted quote errors over every
    increment: scipy's dogbox trust region, increments from zero to 1e4,
    variables scaled by the Jacobian's column norms, with the exact Jacobian
    of ``PanelPricer.jacobian``. Evaluations count against
    ``max_evaluations``: one per pricing of the errors, and one per column
    of each Jacobian, the pricings forward differences would take, so that a
    budget buys the same steps however the Jacobian is computed. The solve stops
    once the evaluations left cannot pay for the next Jacobian plus one
    trial point, and the best point evaluated is returned.

    ``start`` is ``(errors, jacobian, charge)`` at ``x0`` when they are
    known: the errors, the Jacobian, and the evaluations its use is charged.
    The greedy scan passes each candidate the incumbent's errors and its
    slice of one tangent pass, charged as the candidate's new columns.
    """
    amplitudes = tuple(int(a) for a in amplitudes)
    knots = pricer.knots
    n_modes, n_knots = len(amplitudes), len(knots)
    x0 = np.clip(np.asarray(x0, dtype=float).ravel(), 0.0, _MAX_INCREMENT)
    if x0.size != n_modes * n_knots:
        raise CalibrationError(f"expected {n_modes * n_knots} increments, got {x0.size}")
    if not max_evaluations >= 1:
        raise CalibrationError(f"max_evaluations must be at least 1, got {max_evaluations}")

    evaluations = 0
    best = None  # the best point evaluated and its errors

    def residuals(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations, best
        if evaluations >= max_evaluations:
            raise _BudgetSpent
        evaluations += 1
        e = pricer.errors(_schedule_from_increments(model, amplitudes, knots, x))
        if best is None or e @ e < best[1] @ best[1]:
            best = (x.copy(), e)
        return e

    pending = []  # the solver's first Jacobian, at x0, when the caller knows it
    if start is None:
        e0 = residuals(x0)
    else:
        e0, jac0 = np.asarray(start[0], dtype=float), np.array(start[1], dtype=float)
        if jac0.shape != (len(e0), x0.size):
            raise CalibrationError(f"start Jacobian must have shape {(len(e0), x0.size)}, "
                                   f"got {jac0.shape}")
        best = (x0, e0)
        pending.append((jac0, int(start[2])))
    trial = (x0, e0)  # the last point the solver evaluated, and its errors

    def fun(x: np.ndarray) -> np.ndarray:
        nonlocal trial
        if not np.array_equal(x, trial[0]):
            trial = (x.copy(), residuals(x))
        return trial[1]

    def jac(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        out, charge = pending.pop() if pending else (None, x.size)
        if max_evaluations - evaluations <= charge:
            raise _BudgetSpent
        evaluations += charge
        if out is None:
            out = pricer.jacobian(_schedule_from_increments(model, amplitudes, knots, x),
                                  amplitudes).reshape(len(e0), x.size)
        return out

    # imported here, not at module level, so that a process which only
    # prices or simulates never loads scipy
    import scipy.optimize

    converged = False
    try:
        # dogbox, unlike trf, starts from x0 as given: a zero increment stays
        # zero, and a mode at zero stays out of the kernel's cache keys
        converged = scipy.optimize.least_squares(
            fun, x0, jac=jac, bounds=(0.0, _MAX_INCREMENT), method="dogbox", x_scale="jac",
            max_nfev=max_evaluations).status > 0
    except _BudgetSpent:
        pass
    x, e = best
    warning = None if converged else "evaluation budget exhausted; returning best-so-far"
    return FitResult(schedule=_schedule_from_increments(model, amplitudes, knots, x),
                     objective=float(e @ e), errors=e, increments=x.reshape(n_modes, n_knots),
                     n_evaluations=evaluations, converged=converged, warning=warning)


# ---------------------------------------------------------------------------
# greedy amplitude selection
# ---------------------------------------------------------------------------

# a mode whose total cumulated intensity at the last knot is below this is
# dropped, and a greedy step whose new mode ends below it stops the search
_NEGLIGIBLE_INTENSITY = 1e-7

# a scan pool worker's pricer, set once by the pool's initializer; the serial
# scan passes its own pricer instead, so calibrations in threads stay apart
_WORKER_PRICER: PanelPricer | None = None


def _scan_init(pricer: PanelPricer) -> None:
    global _WORKER_PRICER
    _WORKER_PRICER = pricer


def _scan_candidate(task, pricer: PanelPricer | None = None
                    ) -> tuple[int, float, np.ndarray, int]:
    model, amplitudes, x0, candidate, budget, start = task
    fit = fit_intensities(pricer or _WORKER_PRICER, model, amplitudes, x0,
                          max_evaluations=budget, start=start)
    return candidate, fit.objective, fit.increments.ravel(), fit.n_evaluations


def _scan_tasks(pricer: PanelPricer, model: str, amplitudes: list[int], fit: FitResult,
                candidates, budget: int) -> tuple[list[tuple], int]:
    """One scan task per candidate amplitude, and the evaluations spent on
    their shared start.

    Each candidate starts from the incumbent with its new mode at zero. The
    kernel leaves zero-density modes out of its cache keys, so at that start
    a candidate's errors are the incumbent's, bit for bit, and its Jacobian
    is a slice of one tangent pass at the incumbent over the incumbent's and
    every candidate's amplitudes. That pass is charged as the incumbent's
    columns, and each candidate as its new mode's columns.
    """
    everything = sorted(set(amplitudes) | set(candidates))
    shared = pricer.jacobian(fit.schedule, everything)  # (instruments, amplitudes, knots)
    tasks = []
    for candidate in candidates:
        new_amplitudes = tuple(sorted(amplitudes + [candidate]))
        x0 = np.insert(fit.increments, new_amplitudes.index(candidate), 0.0, axis=0)
        jac0 = shared[:, np.searchsorted(everything, new_amplitudes)]
        tasks.append((model, new_amplitudes, x0.ravel(), candidate, budget,
                      (fit.errors, jac0.reshape(len(fit.errors), -1), x0.shape[1])))
    return tasks, fit.increments.size


@dataclass
class CalibrationResult:
    """Fitted schedule with its per-quote errors and the greedy search log."""

    schedule: IntensitySchedule
    instruments: list[Instrument]
    model_values: np.ndarray
    errors: np.ndarray
    objective: float
    iterations: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    seed: int = 0
    settings: dict = field(default_factory=dict)
    n_evaluations: int = 0

    def objective_for_maturity(self, maturity: dt.date) -> float:
        mask = np.array([ins.maturity == maturity for ins in self.instruments])
        return float(self.errors[mask] @ self.errors[mask])

    def to_dict(self) -> dict:
        return {
            **self.schedule.to_dict(),
            "objective": self.objective,
            "errors": [
                {"label": ins.label, "kind": ins.kind,
                 "attachment": ins.attachment, "detachment": ins.detachment,
                 "maturity": ins.maturity.isoformat(), "mid": ins.mid,
                 "bid_ask_width": ins.width, "is_upfront": ins.is_upfront,
                 "model_value": float(v), "epsilon": float(e)}
                for ins, v, e in zip(self.instruments, self.model_values, self.errors)],
            "iterations": self.iterations,
            "warnings": self.warnings,
            "seed": self.seed,
            "settings": self.settings,
            "n_evaluations": self.n_evaluations,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def greedy_calibrate(panel: QuotePanel, curve: DiscountCurve, pool: PoolSpec, model: str,
                     *, max_modes: int = 8, objective_threshold: float = 1.0,
                     scan_budget: int = 200, refine_budget: int = 2500,
                     polish_budget: int = 6000, grid_step_days: float = 30.0, seed: int = 0,
                     n_jobs: int | None = None) -> CalibrationResult:
    """Greedy joint calibration across tranche seniority and maturity.

    Step 1 fits amplitude 1 alone. Each later step scans every unused
    amplitude in [1, names], refits all intensities warm-started from the
    incumbent under the scan budget, keeps the best candidate and refines it.
    Stops when the objective drops below ``objective_threshold``, the newest
    mode's total cumulated intensity is below 1e-7, or ``max_modes`` is
    reached. Modes whose total is below 1e-7 are dropped at the end.
    ``seed`` is recorded in the result; the search itself draws no random
    numbers.
    """
    if model not in (GPL, GPCL):
        raise CalibrationError(f"unknown model kind {model!r}")
    if max_modes < 1:
        raise CalibrationError("max_modes must be at least 1")
    # a nan fails every comparison of the search's stopping rules
    if not math.isfinite(objective_threshold):
        raise CalibrationError(f"objective_threshold must be finite, got {objective_threshold!r}")
    pricer = PanelPricer(panel, curve, pool, grid_step_days)
    n_knots = len(pricer.knots)
    if n_jobs is None:
        n_jobs = max(1, min(os.cpu_count() or 1, 8))

    warnings: list[str] = []
    iterations: list[dict] = []
    total_evals = 0

    amplitudes = [1]
    fit = fit_intensities(pricer, model, amplitudes, np.full(n_knots, 0.1),
                          max_evaluations=refine_budget)
    total_evals += fit.n_evaluations
    if fit.warning:
        warnings.append(f"step 1: {fit.warning}")
    iterations.append({"step": 1, "candidates": [[1, fit.objective]],
                       "chosen": 1, "objective": fit.objective})

    step = 1
    # the scan's worker pool is started at the first parallel scan and serves
    # every later step of this calibration
    workers = None
    try:
        while fit.objective > objective_threshold and len(amplitudes) < max_modes:
            step += 1
            candidates = [a for a in range(1, pool.names + 1) if a not in amplitudes]
            if not candidates:
                break
            tasks, spent = _scan_tasks(pricer, model, amplitudes, fit, candidates, scan_budget)
            total_evals += spent
            if n_jobs > 1 and len(tasks) > 1:
                if workers is None:
                    import multiprocessing

                    workers = multiprocessing.Pool(min(n_jobs, len(tasks)), _scan_init,
                                                   (pricer,))
                scan = workers.map(_scan_candidate, tasks, chunksize=4)
            else:
                scan = [_scan_candidate(t, pricer) for t in tasks]
            total_evals += sum(s[3] for s in scan)
            scan_log = sorted(((cand, f) for cand, f, _, _ in scan), key=lambda cf: cf[0])
            best_candidate, _, best_x, _ = min(scan, key=lambda s: (s[1], s[0]))

            new_amplitudes = sorted(amplitudes + [best_candidate])
            refined = fit_intensities(pricer, model, new_amplitudes, best_x,
                                      max_evaluations=refine_budget)
            total_evals += refined.n_evaluations
            if refined.warning:
                warnings.append(f"step {step}: {refined.warning}")
            iterations.append({"step": step,
                               "candidates": [[c, f] for c, f in scan_log],
                               "chosen": best_candidate, "objective": refined.objective})

            new_index = new_amplitudes.index(best_candidate)
            new_total = refined.schedule.cumulated[new_index, -1]
            if new_total < _NEGLIGIBLE_INTENSITY:
                warnings.append(
                    f"step {step}: best new mode {best_candidate} has negligible "
                    f"intensity; stopping")
                break
            if refined.objective < fit.objective:
                amplitudes = new_amplitudes
                fit = refined
            else:
                warnings.append(f"step {step}: no improvement from any candidate; stopping")
                break
    finally:
        if workers is not None:
            workers.terminate()
            workers.join()

    if polish_budget > 0 and len(amplitudes) > 1:
        # a fit returns its start unless it finds a lower objective
        fit = fit_intensities(pricer, model, amplitudes, fit.increments.ravel(),
                              max_evaluations=polish_budget)
        total_evals += fit.n_evaluations

    # drop negligible modes and renumber (amplitudes stay sorted)
    keep = np.flatnonzero(fit.schedule.cumulated[:, -1] >= _NEGLIGIBLE_INTENSITY)
    if not keep.size:
        keep = [0]
    schedule = IntensitySchedule(model, tuple(amplitudes[j] for j in keep), pricer.knots,
                                 fit.schedule.cumulated[keep])

    f, eps = pricer.objective(schedule)
    values = pricer.model_values(schedule)
    return CalibrationResult(
        schedule=schedule, instruments=list(pricer.instruments),
        model_values=values, errors=eps, objective=f,
        iterations=iterations, warnings=warnings, seed=seed,
        settings={"model": model, "max_modes": max_modes,
                  "objective_threshold": objective_threshold,
                  "scan_budget": scan_budget, "refine_budget": refine_budget,
                  "polish_budget": polish_budget, "grid_step_days": grid_step_days,
                  "pool_names": pool.names, "pool_recovery": pool.recovery},
        n_evaluations=total_evals)
