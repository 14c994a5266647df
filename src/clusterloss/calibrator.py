"""Joint calibration of intensity schedules to index + tranche quote panels.

The objective is the sum of squared bid-ask-weighted quote errors
eps_i = (model_i - mid_i) / width_i, from ``PanelPricer.errors``. Free
parameters are the non-negative per-knot-interval increments of each
amplitude's cumulated intensity, so fitted schedules are non-decreasing by
construction.

Amplitudes are selected greedily: start from amplitude 1, then repeatedly
score every unused amplitude on one tangent pass at the incumbent, refit all
intensities of the best-scored few warm-started from the incumbent, and keep
the candidate with the lowest objective, until the objective threshold is
met, the newest mode is negligible, or the mode budget is exhausted. Every
fit is one projected Levenberg-Marquardt loop in numpy over all increments,
bounded to [0, 1e4], with exact Jacobians from the loss engine's tangent
pass, under an evaluation budget that charges a Jacobian one evaluation per
column. An increment at zero rises as soon as the gradient says it should.
The candidates of a scan start from the incumbent's errors and their slices
of one tangent pass at the incumbent, and each is scored by the linearised
objective after its fit's first step, which prices nothing. The search
draws no random numbers, so a calibration does not depend on its seed.
"""
from __future__ import annotations

import datetime as dt
import functools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .loss_engine import GPCL, GPL, IntensitySchedule, PoolSpec, _is_integer
from .market_data import DiscountCurve, QuotePanel
from .pricer import Instrument, PanelPricer


class CalibrationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# intensity fitting (amplitudes fixed)
# ---------------------------------------------------------------------------

# the largest increment a fit tries. A mode whose errors saturate in its
# intensity (gpcl amplitude 125 fires only while every name survives) has a
# Jacobian column near zero, along which a damped Gauss-Newton step runs to
# a million and more: intervals whose uniformised series the kernel cannot
# sum within its mass tolerance, and whose Poisson weights take hundreds of
# megabytes. A rise of 1e4 over one knot interval is thousands of times any
# fitted value, and its series already runs to about 1e4 terms.
_MAX_INCREMENT = 1e4

# the damping of a fit's first trial step, as a multiple of the diagonal of
# J'J. A rejected trial multiplies it by 10 and an accepted one divides it by
# 10, within the range below: a Gauss-Newton step at its low end, and at its
# high end a step too short to lower f by more than its rounding, where the
# fit stops
_DAMPING = 1e-3
_DAMPING_RANGE = (1e-10, 1e10)
# the diagonal of J'J is floored at this share of its largest entry, so that
# a column near zero is damped too
_SCALE_FLOOR = 1e-12
# a fit has converged when the gradient of f = |e|^2 along every increment
# not held on a bound is at most this share of 2 |J_j| max(|e|, 1). While
# the errors are more than one bid-ask width in norm, that bounds the cosine
# of the angle between the errors and the increment's column J_j; within
# one width, where a fit that reprices every quote leaves no angle to
# measure, it bounds the gradient in units of widths
_GRADIENT_TOL = 1e-6

# why a fit stopped short of the first-order test
_BUDGET_SPENT = "evaluation budget exhausted; returning best-so-far"
_NO_DESCENT = "no damped step lowers the objective; stopped short of the first-order test"


def _schedule_from_increments(model: str, amplitudes, knots, x: np.ndarray) -> IntensitySchedule:
    inc = np.maximum(x.reshape(len(amplitudes), len(knots)), 0.0)
    return IntensitySchedule(model, amplitudes, knots, np.cumsum(inc, axis=1))


@dataclass
class FitResult:
    schedule: IntensitySchedule
    objective: float
    errors: np.ndarray
    increments: np.ndarray
    n_evaluations: int
    converged: bool
    warning: str | None = None


def _stepping(x: np.ndarray, e: np.ndarray, jac: np.ndarray):
    """For fits stacked along the leading axis, at increments ``x`` with
    Jacobians ``jac`` and shared errors ``e``: J'J, the gradient 2 J'e of
    f = |e|^2, the increments held on a bound with the gradient pointing out
    of the box, whether each fit still steps (its first-order test
    ``_GRADIENT_TOL`` fails), and the Marquardt scale of its damping."""
    transposed = jac.transpose(0, 2, 1)
    gram, gradient = transposed @ jac, 2.0 * (transposed @ e)
    squares = gram.diagonal(axis1=1, axis2=2)
    held = (x <= 0.0) & (gradient >= 0.0) | (x >= _MAX_INCREMENT) & (gradient <= 0.0)
    going = ~np.all((np.abs(gradient) <= _GRADIENT_TOL * 2.0 * max(math.sqrt(e @ e), 1.0)
                     * np.sqrt(squares)) | held, axis=1)
    return (gram, gradient, held, going,
            np.maximum(squares, _SCALE_FLOOR * squares.max(axis=1, keepdims=True)))


def _damped_steps(x: np.ndarray, gradient: np.ndarray, gram: np.ndarray,
                  damping: np.ndarray, held: np.ndarray) -> np.ndarray:
    """The trial increments of fits stacked along the leading axis: for
    each, the point in [0, 1e4] that minimises |e + J d|^2 + sum(damping d^2)
    over steps d of the increments not ``held``. An increment that would
    leave the box stops on its bound and the rest are solved again, one
    ``np.linalg.solve`` per round for every fit: a held or stopped increment
    gets a unit row and column, and the right-hand side of the others
    carries its stopped step. A fit that stops nothing more solves the same
    system again, so its trial has the same bits in a stack of one or of
    many."""
    fixed, step, unit = held.copy(), np.zeros_like(x), np.eye(x.shape[1])
    damped = gram + unit * damping[:, None, :]
    while True:
        free, stopped = ~fixed, np.where(fixed, step, 0.0)
        normal = np.where(free[:, :, None] & free[:, None, :], damped, unit)
        rhs = np.where(free, -0.5 * gradient - (gram @ stopped[..., None])[..., 0], 0.0)
        step = np.where(free, np.linalg.solve(normal, rhs[..., None])[..., 0], stopped)
        trial = x + step
        out = free & ((trial < 0.0) | (trial > _MAX_INCREMENT))
        if not out.any():
            return np.clip(trial, 0.0, _MAX_INCREMENT)
        step[out] = np.clip(trial[out], 0.0, _MAX_INCREMENT) - x[out]
        fixed |= out


def fit_intensities(pricer: PanelPricer, model: str, amplitudes, x0,
                    *, max_evaluations: int = 2500, start=None) -> FitResult:
    """Fit all per-interval intensity increments with amplitudes held fixed.

    A projected Levenberg-Marquardt loop over every increment, bounded to
    [0, 1e4], with the exact Jacobian of ``PanelPricer.jacobian``. An
    increment is held while it sits on a bound with the gradient of
    f = |e|^2 pointing out of the box; the others take a damped Gauss-Newton
    step (``_damped_steps``), which is kept if it lowers f. Evaluations count
    against ``max_evaluations``: one per pricing of the errors and one per
    Jacobian column, the pricings forward differences would take. The fit
    has converged when the first-order test ``_GRADIENT_TOL`` holds, and
    stops with a warning once the evaluations left cannot pay for the next
    Jacobian plus one trial point. It returns the best point evaluated.

    ``start`` is ``(errors, jacobian, charge)`` at ``x0`` when they are
    known: the errors, the Jacobian, and the evaluations its use is charged.
    The greedy scan passes each candidate the incumbent's errors and its
    slice of one tangent pass, charged as the candidate's new columns.
    """
    amplitudes = tuple(amplitudes)
    for a in amplitudes:
        if not _is_integer(a):
            raise CalibrationError(f"amplitudes must be integers, got {a!r}")
    amplitudes = tuple(int(a) for a in amplitudes)
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != len(amplitudes) * len(pricer.knots):
        raise CalibrationError(f"expected {len(amplitudes) * len(pricer.knots)} increments, "
                               f"got {x.size}")
    if not np.isfinite(x).all():
        raise CalibrationError(f"x0 must be finite, got {x[~np.isfinite(x)]} at increments "
                               f"{np.flatnonzero(~np.isfinite(x)).tolist()}")
    if (isinstance(max_evaluations, bool) or not isinstance(max_evaluations, numbers.Integral)
            or max_evaluations < 1):
        raise CalibrationError(f"max_evaluations must be an integer of at least 1, got "
                               f"{max_evaluations!r}")
    x = np.clip(x, 0.0, _MAX_INCREMENT)
    schedule = functools.partial(_schedule_from_increments, model, amplitudes, pricer.knots)
    point = schedule(x)  # the schedule at x, built once and priced, differentiated and returned
    if start is None:
        evaluations, e, jac, charge = 1, pricer.errors(point), None, x.size
    else:
        evaluations, charge = 0, int(start[2])
        e, jac = np.asarray(start[0], dtype=float), np.array(start[1], dtype=float)
        if jac.shape != (len(e), x.size):
            raise CalibrationError(f"start Jacobian must have shape {(len(e), x.size)}, "
                                   f"got {jac.shape}")
    damping, warning = _DAMPING, None
    while warning is None:
        if max_evaluations - evaluations <= charge:
            warning = _BUDGET_SPENT
            break
        evaluations += charge
        if jac is None:
            jac = pricer.jacobian(point, amplitudes).reshape(len(e), x.size)
        gram, gradient, held, going, scale = _stepping(x[None], e, jac[None])
        if not going[0]:
            break
        while jac is not None:
            if evaluations >= max_evaluations or damping > _DAMPING_RANGE[1]:
                warning = _BUDGET_SPENT if evaluations >= max_evaluations else _NO_DESCENT
                break
            trial = _damped_steps(x[None], gradient, gram, damping * scale, held)[0]
            evaluations += 1
            trial_point = schedule(trial)
            e_trial = pricer.errors(trial_point)
            if e_trial @ e_trial < e @ e:
                x, point, e, jac, charge = trial, trial_point, e_trial, None, x.size
                damping = max(damping / 10.0, _DAMPING_RANGE[0])
            else:
                damping *= 10.0
    return FitResult(schedule=point, objective=float(e @ e), errors=e,
                     increments=x.reshape(len(amplitudes), -1), n_evaluations=evaluations,
                     converged=warning is None, warning=warning)


# ---------------------------------------------------------------------------
# greedy amplitude selection
# ---------------------------------------------------------------------------

# a mode whose total cumulated intensity at the last knot is below this is
# dropped, and a greedy step whose new mode ends below it stops the search
_NEGLIGIBLE_INTENSITY = 1e-7


# a scan fits only its best-scored candidates (``_scan_tasks``). At the
# benchmark's budgets the full scan's winner scores 2nd to 4th, and at
# criterion 6's settings at most 8th apart from one step (ROADMAP item 2);
# 12 leaves room above the winners at rank 8
_SCAN_FITS = 12


def _scan_candidate(task) -> tuple[int, float, np.ndarray, int]:
    """Fit a task of ``_scan_tasks`` with the calibration's pricer it carries, serially or
    in a pool worker alike: the candidate, its objective, increments and evaluations."""
    pricer, model, amplitudes, x0, candidate, budget, start = task
    fit = fit_intensities(pricer, model, amplitudes, x0, max_evaluations=budget, start=start)
    return candidate, fit.objective, fit.increments.ravel(), fit.n_evaluations


def _scan_tasks(pricer: PanelPricer, model: str, amplitudes: list[int], fit: FitResult,
                candidates, budget: int) -> tuple[list[tuple], int]:
    """The scan tasks of the ``_SCAN_FITS`` best-scored candidate amplitudes,
    best first, and the evaluations spent on their shared start. A task
    holds the arguments of the candidate's fit, ``pricer`` first.

    Each candidate starts from the incumbent with its new mode at zero. The
    kernel leaves zero-density modes out of its cache keys, so at that start
    a candidate's errors are the incumbent's, bit for bit, and its Jacobian
    is a slice of one Jacobian at the incumbent over the incumbent's and
    every candidate's amplitudes. That request has more tangent columns
    than the panel has leg functionals, so the kernel contracts the legs'
    weights first: in closed form for gpl, by the adjoint series pass for
    gpcl. A candidate's score is
    |e + J d|^2 for the first trial step d of its fit, which prices
    nothing: the candidates' starts are stacked and stepped by the fit's
    own ``_stepping`` and ``_damped_steps``. Ties go to the lower
    amplitude. The pass is charged in full: the incumbent's columns, and
    each candidate's new columns, paid by its fit if it is fitted.
    """
    everything = sorted(set(amplitudes) | set(candidates))
    shared = pricer.jacobian(fit.schedule, everything)  # (instruments, amplitudes, knots)
    e, n_knots = fit.errors, fit.increments.shape[1]
    tasks = []
    for candidate in candidates:
        new_amplitudes = tuple(sorted(amplitudes + [candidate]))
        x0 = np.insert(fit.increments, new_amplitudes.index(candidate), 0.0, axis=0).ravel()
        jac0 = shared[:, np.searchsorted(everything, new_amplitudes)].reshape(len(e), -1)
        tasks.append((pricer, model, new_amplitudes, x0, candidate, budget, (e, jac0, n_knots)))
    x, jac = np.stack([task[3] for task in tasks]), np.stack([task[6][1] for task in tasks])
    gram, gradient, held, going, scale = _stepping(x, e, jac)
    # a fit that does not step keeps its start
    trials = _damped_steps(x, gradient, gram, _DAMPING * scale, held | ~going[:, None])
    scores = ((e + (jac @ (trials - x)[..., None])[..., 0]) ** 2).sum(axis=1)
    ranked = sorted(zip(scores.tolist(), candidates, tasks), key=lambda s: s[:2])
    return ([task for _, _, task in ranked[:_SCAN_FITS]],
            fit.increments.size + n_knots * max(len(tasks) - _SCAN_FITS, 0))


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

    Step 1 fits amplitude 1 alone. Each later step scores every unused
    amplitude in [1, names] on one tangent pass at the incumbent, without
    pricing it; refits all intensities of the ``_SCAN_FITS`` best-scored
    candidates, warm-started from the incumbent, under the scan budget;
    keeps the best fit and refines it. Stops when the objective drops below
    ``objective_threshold``, the newest mode's total cumulated intensity is
    below 1e-7, or ``max_modes`` is reached. Modes whose total is below 1e-7
    are dropped at the end. Each step is logged at INFO on the logger
    ``clusterloss.calibrator``. ``seed`` is recorded in the result; the
    search itself draws no random numbers. ``n_jobs`` workers fit a scan's
    candidates: ``None`` means ``min(cpu_count, 8)``, and 1 scans in process.
    """
    if model not in (GPL, GPCL):
        raise CalibrationError(f"unknown model kind {model!r}")
    if n_jobs is None:
        n_jobs = max(1, min(os.cpu_count() or 1, 8))
    for name, value, least in (("max_modes", max_modes, 1), ("scan_budget", scan_budget, 1),
                               ("refine_budget", refine_budget, 1),
                               ("polish_budget", polish_budget, 0), ("n_jobs", n_jobs, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise CalibrationError(f"{name} must be an integer of at least {least}, "
                                   f"got {value!r}")
    # a nan fails every comparison of the search's stopping rules
    if not math.isfinite(objective_threshold):
        raise CalibrationError(f"objective_threshold must be finite, got {objective_threshold!r}")
    # imported here, so that pricing and simulation do not pay for its
    # import (about 5 ms, 3% of the import of the package)
    import logging

    log = logging.getLogger(__name__)
    started = time.perf_counter()
    pricer = PanelPricer(panel, curve, pool, grid_step_days)
    n_knots = len(pricer.knots)

    warnings: list[str] = []
    iterations: list[dict] = []

    amplitudes = [1]
    fit = fit_intensities(pricer, model, amplitudes, np.full(n_knots, 0.1),
                          max_evaluations=refine_budget)
    total_evals = fit.n_evaluations
    if fit.warning:
        warnings.append(f"step 1: {fit.warning}")
    iterations.append({"step": 1, "candidates": [[1, fit.objective]],
                       "chosen": 1, "objective": fit.objective})
    log.info("step 1: fitted amplitude 1; objective %.6g; %d evaluations; %.3f s",
             fit.objective, fit.n_evaluations, time.perf_counter() - started)

    step = 1
    # the scan's worker pool is started at the first parallel scan and serves
    # every later step of this calibration
    workers = None
    try:
        while fit.objective > objective_threshold and len(amplitudes) < max_modes:
            step += 1
            started, step_evals = time.perf_counter(), total_evals
            candidates = [a for a in range(1, pool.names + 1) if a not in amplitudes]
            if not candidates:
                break
            tasks, spent = _scan_tasks(pricer, model, amplitudes, fit, candidates, scan_budget)
            total_evals += spent
            if n_jobs > 1 and len(tasks) > 1:
                if workers is None:
                    import multiprocessing

                    # later scans have no more tasks than this first one
                    workers = multiprocessing.Pool(min(n_jobs, len(tasks)))
                scan = workers.map(_scan_candidate, tasks, chunksize=1)
            else:
                scan = [_scan_candidate(t) for t in tasks]
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
                               "ranked": len(candidates),
                               "chosen": best_candidate, "objective": refined.objective})
            # the scan keeps the tasks' order, best score first
            log.info("step %d: ranked %d candidates, fitted %d; chose amplitude %d "
                     "(score rank %d); objective %.6g; %d evaluations; %.3f s",
                     step, len(candidates), len(tasks), best_candidate,
                     1 + [s[0] for s in scan].index(best_candidate), refined.objective,
                     total_evals - step_evals, time.perf_counter() - started)

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
