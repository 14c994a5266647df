"""Joint calibration of intensity schedules to index + tranche quote panels.

The objective is the sum of squared bid-ask-weighted quote errors
eps_i = (model_i - mid_i) / width_i. Free parameters are the non-negative
per-knot-interval increments of each amplitude's cumulated intensity, so
fitted schedules are non-decreasing by construction.

Amplitudes are selected greedily: start from amplitude 1, then repeatedly
scan every unused amplitude, refit all intensities warm-started from the
incumbent, and keep the candidate with the lowest objective, until the
objective threshold is met, the newest mode is negligible, or the mode
budget is exhausted. The inner minimiser is a bounded Nelder-Mead simplex
with seeded restarts.
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


def weighted_error(model_value: float, quote) -> float:
    """Bid-ask-weighted quote error (model - mid) / width, sign preserved.

    ``quote`` may be an IndexQuote, a TrancheQuote, or a (mid, width) pair.
    """
    if hasattr(quote, "spread_bp"):
        mid, width = quote.spread_bp, quote.bid_ask_width_bp
    elif hasattr(quote, "quote"):
        mid, width = quote.quote, quote.bid_ask_width
    else:
        mid, width = quote
    if not (0 < width < math.inf):  # a nan fails this too
        raise CalibrationError(f"bid-ask width must be positive and finite, got {width}")
    return (model_value - mid) / width


def objective(schedule: IntensitySchedule, panel: QuotePanel, curve: DiscountCurve,
              pool: PoolSpec, grid_step_days: float = 30.0) -> tuple[float, np.ndarray]:
    """Objective f = sum of squared weighted errors, plus the error vector."""
    return PanelPricer(panel, curve, pool, grid_step_days).objective(schedule)


# ---------------------------------------------------------------------------
# intensity fitting (amplitudes fixed)
# ---------------------------------------------------------------------------

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


def fit_intensities(pricer: PanelPricer, model: str, amplitudes, x0,
                    *, max_evaluations: int = 2500, seed: int = 0,
                    restart_tol: float = 1e-6, focus_block: int | None = None) -> FitResult:
    """Fit all per-interval intensity increments with amplitudes held fixed.

    Bounded (non-negative) Nelder-Mead with seeded restarts, organised around
    the triangular structure of the problem: quotes at the k-th maturity
    depend only on the first k knot-interval columns, so each cycle sweeps
    the columns in maturity order (each column fitted against its own
    maturity's quotes) and then polishes the full vector against the joint
    objective. Converged when a full cycle improves the joint objective by
    less than ``restart_tol``.

    ``focus_block`` restricts a first search to one mode's row plus the final
    column — the coordinates through which a freshly added amplitude can act —
    and is used by the greedy candidate scan.
    """
    amplitudes = tuple(int(a) for a in amplitudes)
    knots = pricer.knots
    n_knots = len(knots)
    n_modes = len(amplitudes)
    x0 = np.clip(np.asarray(x0, dtype=float).ravel(), 0.0, None)
    dim = n_modes * n_knots
    if x0.size != dim:
        raise CalibrationError(f"expected {dim} increments, got {x0.size}")

    evaluations = 0

    def eps_of(x: np.ndarray, subset=None) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return pricer.errors(_schedule_from_increments(model, amplitudes, knots, x), subset)

    def joint_f(x: np.ndarray) -> float:
        e = eps_of(x)
        return float(e @ e)

    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def nm_run(fun, z0: np.ndarray, budget: int, jitter: bool):
        d = len(z0)
        if budget < d + 2:
            return z0, math.inf
        steps = np.maximum(0.2 * np.abs(z0), 0.03)
        if jitter:
            steps = steps * (0.5 + rng.random(d))  # seeded restart jitter
        # imported here, not at module level, so that a process which only
        # prices or simulates never loads scipy
        import scipy.optimize

        result = scipy.optimize.minimize(
            fun, z0, method="Nelder-Mead",
            bounds=scipy.optimize.Bounds(np.zeros(d), np.full(d, np.inf)),
            options={"maxfev": budget, "initial_simplex": np.vstack([z0, z0 + np.diag(steps)]),
                     "xatol": 1e-6, "fatol": 1e-11, "adaptive": d > 8})
        return np.clip(np.asarray(result.x), 0.0, None), float(result.fun)

    def minimise_subspace(x: np.ndarray, idx: np.ndarray, subset_mask,
                          budget: int, max_rounds: int = 6):
        """Restarted NM over x[idx]; objective optionally restricted to a
        quote subset. The first simplex is deterministic (stable candidate
        rankings in the greedy scan); restarts are jittered. Returns the
        updated vector and its (restricted) objective."""

        def fun(z: np.ndarray) -> float:
            xx = x.copy()
            xx[idx] = np.clip(z, 0.0, None)
            e = eps_of(xx, subset_mask)
            return float(e @ e)

        best_z = x[idx].copy()
        best = fun(best_z)
        spent_start = evaluations
        per_run_cap = max(600, 50 * len(idx))
        for round_no in range(max_rounds):
            remaining = min(budget - (evaluations - spent_start),
                            max_evaluations - evaluations)
            z, f = nm_run(fun, best_z, min(per_run_cap, remaining), jitter=round_no > 0)
            if f < best - 1e-10:
                best_z, best = z, f
            else:
                break
        out = x.copy()
        out[idx] = best_z
        return out, best

    columns = [np.array([m * n_knots + k for m in range(n_modes)])
               for k in range(n_knots)]
    rows = [np.arange(m * n_knots, (m + 1) * n_knots) for m in range(n_modes)]
    full_idx = np.arange(dim)
    maturity_masks = pricer.maturity_masks

    best_x = x0.copy()
    start_errors = eps_of(best_x)
    best_f = float(start_errors @ start_errors)

    if focus_block is not None:
        # fast path for the greedy scan: a new amplitude acts through its own
        # row, and the shared final column lets the incumbent rebalance the
        # longest maturity, which is where candidates differentiate
        idx = np.unique(np.concatenate([rows[focus_block], columns[-1]]))
        cand_x, cand_f = minimise_subspace(
            best_x, idx, None, budget=max(60, max_evaluations // 2), max_rounds=3)
        if cand_f < best_f:
            best_x, best_f = cand_x, cand_f

    converged = False
    sweep_helping = True
    stalls = 0
    while evaluations < max_evaluations and stalls < 3:
        cycle_start_f = best_f
        if sweep_helping and n_knots > 1:
            # maturity-ordered column sweep: each column against its own
            # maturity's quotes, applied cumulatively
            scratch = best_x.copy()
            column_budget = max(60, (max_evaluations - evaluations) // (n_knots + 2))
            for k in range(n_knots):
                if evaluations >= max_evaluations:
                    break
                scratch, _ = minimise_subspace(scratch, columns[k],
                                               maturity_masks[k],
                                               budget=column_budget, max_rounds=4)
            scratch_f = joint_f(scratch)
            if scratch_f < best_f:
                best_x, best_f = scratch, scratch_f
            else:
                sweep_helping = False
        joint_budget = max(400, (max_evaluations - evaluations) // 3)
        cand_x, cand_f = minimise_subspace(best_x, full_idx, None,
                                           budget=joint_budget, max_rounds=4)
        if cand_f < best_f:
            best_x, best_f = cand_x, cand_f
        if n_knots > 1 and evaluations < max_evaluations:
            # the final column moves only the longest maturity's quotes (the
            # triangular structure), which is where the residual concentrates;
            # hammer it with many jittered restarts
            cand_x, cand_f = minimise_subspace(
                best_x, columns[-1], None,
                budget=max(400, (max_evaluations - evaluations) // 3),
                max_rounds=10)
            if cand_f < best_f:
                best_x, best_f = cand_x, cand_f
        # a stalled cycle still retries with fresh simplex jitter; converged
        # only after several consecutive restarts fail to improve
        stalls = stalls + 1 if cycle_start_f - best_f < restart_tol else 0
    converged = stalls >= 3 or best_f < restart_tol

    schedule = _schedule_from_increments(model, amplitudes, knots, best_x)
    f, eps = pricer.objective(schedule)
    warning = None if converged else "iteration budget exhausted; returning best-so-far"
    return FitResult(schedule=schedule, objective=f, errors=eps,
                     increments=best_x.reshape(n_modes, n_knots),
                     n_evaluations=evaluations, converged=converged, warning=warning)


# ---------------------------------------------------------------------------
# greedy amplitude selection
# ---------------------------------------------------------------------------

# a scan pool worker's pricer, set once by the pool's initializer; the serial
# scan passes its own pricer instead, so calibrations in threads stay apart
_WORKER_PRICER: PanelPricer | None = None


def _scan_init(pricer: PanelPricer) -> None:
    global _WORKER_PRICER
    _WORKER_PRICER = pricer


def _scan_candidate(task, pricer: PanelPricer | None = None
                    ) -> tuple[int, float, np.ndarray, int]:
    model, amplitudes, x0, candidate, position, budget, seed = task
    fit = fit_intensities(pricer or _WORKER_PRICER, model, amplitudes, x0,
                          max_evaluations=budget, seed=seed, focus_block=position)
    return candidate, fit.objective, fit.increments.ravel(), fit.n_evaluations


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

    def error_for(self, label: str) -> float:
        for ins, eps in zip(self.instruments, self.errors):
            if ins.label == label:
                return float(eps)
        raise KeyError(label)

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
                     negligible_intensity: float = 1e-7, scan_budget: int = 200,
                     refine_budget: int = 2500, polish_budget: int = 6000,
                     grid_step_days: float = 30.0, seed: int = 0,
                     n_jobs: int | None = None) -> CalibrationResult:
    """Greedy joint calibration across tranche seniority and maturity.

    Step 1 fits amplitude 1 alone. Each later step scans every unused
    amplitude in [1, names], refits all intensities warm-started from the
    incumbent under the scan budget, keeps the best candidate and refines it.
    Stops when the objective drops below ``objective_threshold``, the newest
    mode's total cumulated intensity is below ``negligible_intensity``, or
    ``max_modes`` is reached. Zero-intensity modes are dropped at the end.
    """
    if model not in (GPL, GPCL):
        raise CalibrationError(f"unknown model kind {model!r}")
    if max_modes < 1:
        raise CalibrationError("max_modes must be at least 1")
    # a nan fails every comparison of the search's stopping rules
    for name, value in (("objective_threshold", objective_threshold),
                        ("negligible_intensity", negligible_intensity)):
        if not math.isfinite(value):
            raise CalibrationError(f"{name} must be finite, got {value!r}")
    pricer = PanelPricer(panel, curve, pool, grid_step_days)
    n_knots = len(pricer.knots)
    if n_jobs is None:
        n_jobs = max(1, min(os.cpu_count() or 1, 8))

    warnings: list[str] = []
    iterations: list[dict] = []
    total_evals = 0

    amplitudes = [1]
    fit = fit_intensities(pricer, model, amplitudes, np.full(n_knots, 0.1),
                          max_evaluations=refine_budget, seed=seed)
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
            tasks = []
            for candidate in candidates:
                # zero-initialised new mode: the warm start prices exactly like the
                # incumbent, so a refit can only improve or tie the objective
                position = int(np.searchsorted(amplitudes, candidate))
                x0 = np.insert(fit.increments, position, np.zeros(n_knots), axis=0)
                child_seed = int(np.random.SeedSequence(seed, spawn_key=(step, candidate))
                                 .generate_state(1)[0])
                new_amps = sorted(amplitudes + [candidate])
                tasks.append((model, tuple(new_amps), x0.ravel(), candidate, position,
                              scan_budget, child_seed))
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
            # refine the winner from the warm scan point and from scratch (the
            # from-zero start lets the maturity-ordered sweep rebuild the whole
            # surface around the new amplitude); keep the better fit
            refined = fit_intensities(pricer, model, new_amplitudes, best_x,
                                      max_evaluations=refine_budget,
                                      seed=int(np.random.SeedSequence(
                                          seed, spawn_key=(step, 0)).generate_state(1)[0]))
            rebuilt = fit_intensities(pricer, model, new_amplitudes,
                                      np.zeros_like(best_x),
                                      max_evaluations=refine_budget,
                                      seed=int(np.random.SeedSequence(
                                          seed, spawn_key=(step, 1)).generate_state(1)[0]))
            total_evals += refined.n_evaluations + rebuilt.n_evaluations
            if rebuilt.objective < refined.objective:
                refined = rebuilt
            if refined.warning:
                warnings.append(f"step {step}: {refined.warning}")
            iterations.append({"step": step,
                               "candidates": [[c, f] for c, f in scan_log],
                               "chosen": best_candidate, "objective": refined.objective})

            new_index = new_amplitudes.index(best_candidate)
            new_total = refined.schedule.cumulated[new_index, -1]
            if new_total < negligible_intensity:
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
        polished = fit_intensities(pricer, model, amplitudes, fit.increments.ravel(),
                                   max_evaluations=polish_budget,
                                   seed=int(np.random.SeedSequence(
                                       seed, spawn_key=(0, 0)).generate_state(1)[0]))
        total_evals += polished.n_evaluations
        if polished.objective < fit.objective:
            fit = polished

    # drop negligible modes and renumber (amplitudes stay sorted)
    keep = np.flatnonzero(fit.schedule.cumulated[:, -1] >= negligible_intensity)
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
                  "negligible_intensity": negligible_intensity,
                  "scan_budget": scan_budget, "refine_budget": refine_budget,
                  "polish_budget": polish_budget, "grid_step_days": grid_step_days,
                  "pool_names": pool.names, "pool_recovery": pool.recovery},
        n_evaluations=total_evals)
