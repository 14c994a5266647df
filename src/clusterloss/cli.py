"""Batch command-line front end.

Commands write delimited/JSON artifacts into --out and a run_meta.json that
embeds the resolved configuration, its hash, and the seed, so every run is
reproducible from its outputs.

Exit codes: 0 success, 1 numerical failure, 2 input error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .calibrator import CalibrationError, PanelPricer, greedy_calibrate
from .loss_engine import (
    GPCL,
    GPL,
    IntensitySchedule,
    LossEngineError,
    PoolSpec,
    STRATEGIES,
    cluster_cumulated_intensity,
    counting_intensity,
    gpcl_distribution,
    gpl_distribution,
)
from .market_data import MarketDataError, format_date, load_curve, load_quotes, parse_date
from .pricer import PricingError
from .simulator import SimulationError, empirical_distributions

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _read_schedule(path: str) -> IntensitySchedule:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read schedule file {path}: {exc}") from exc
    try:
        return IntensitySchedule.from_json(text)
    except (json.JSONDecodeError, LossEngineError, TypeError) as exc:
        raise InputError(f"invalid schedule {path}: {exc}") from exc


def _read_curve(path: str, valuation_date):
    try:
        return load_curve(path, valuation_date)
    except OSError as exc:
        raise InputError(f"cannot read curve file {path}: {exc}") from exc
    except MarketDataError as exc:
        raise InputError(f"invalid curve {path}: {exc}") from exc


def _read_quotes(path: str, valuation_date):
    try:
        return load_quotes(path, valuation_date)
    except OSError as exc:
        raise InputError(f"cannot read quotes file {path}: {exc}") from exc
    except MarketDataError as exc:
        raise InputError(f"invalid quotes {path}: {exc}") from exc


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_meta(out_dir: Path, command: str, config: dict, outputs: list[str]) -> None:
    meta = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": sorted(outputs),
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True,
                                                      default=str) + "\n")


def _pool_from_args(args) -> PoolSpec:
    try:
        return PoolSpec(names=args.pool_size, recovery=args.recovery)
    except LossEngineError as exc:
        raise InputError(f"invalid pool: {exc}") from exc


def _check_grid_step(args) -> None:
    if not (math.isfinite(args.grid_step) and args.grid_step > 0):
        raise InputError(f"--grid-step must be a positive, finite number of days, "
                         f"got {args.grid_step}")


def cmd_calibrate(args) -> int:
    _check_grid_step(args)
    if args.max_modes < 1:
        raise InputError(f"--max-modes must be at least 1, got {args.max_modes}")
    pool = _pool_from_args(args)
    curve = _read_curve(args.curve, args.valuation_date)
    panel = _read_quotes(args.quotes, args.valuation_date)
    result = greedy_calibrate(
        panel, curve, pool, args.model,
        max_modes=args.max_modes, objective_threshold=args.threshold,
        grid_step_days=args.grid_step, seed=args.seed, n_jobs=args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _resolved_config(args)
    (out_dir / "panel_audit.json").write_text(panel.to_json() + "\n")
    doc = result.to_dict()
    doc["config_hash"] = _config_hash(config)
    (out_dir / "calibration.json").write_text(json.dumps(doc, indent=2) + "\n")

    # epsilon table: one row per instrument layer, one column per maturity
    maturities = sorted({ins.maturity for ins in result.instruments})
    layers: dict[str, dict] = {}
    for ins, eps in zip(result.instruments, result.errors):
        key = "index" if ins.kind == "index" else \
            f"{100 * ins.attachment:g}-{100 * ins.detachment:g}"
        layers.setdefault(key, {})[ins.maturity] = float(eps)
    with open(out_dir / "epsilon_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instrument"] + [format_date(m) for m in maturities])
        for key, row in layers.items():
            writer.writerow([key] + [f"{row[m]:.4f}" if m in row else ""
                                     for m in maturities])
    _write_meta(out_dir, "calibrate", config,
                ["calibration.json", "epsilon_table.csv", "panel_audit.json"])
    print(f"calibrated {args.model} with amplitudes {list(result.schedule.amplitudes)}, "
          f"objective {result.objective:.4f}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.strict and result.warnings:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_price(args) -> int:
    _check_grid_step(args)
    pool = _pool_from_args(args)
    curve = _read_curve(args.curve, args.valuation_date)
    panel = _read_quotes(args.quotes, args.valuation_date)
    schedule = _read_schedule(args.schedule)
    if args.model is not None and args.model != schedule.model:
        raise InputError(f"--model {args.model} does not match the schedule's model "
                         f"{schedule.model}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _resolved_config(args)
    if len(panel) == 0:
        report = {"instruments": [], "objective": 0.0,
                  "config_hash": _config_hash(config), "seed": args.seed}
    else:
        pricer = PanelPricer(panel, curve, pool, grid_step_days=args.grid_step)
        values = pricer.model_values(schedule)
        eps = (values - pricer.mids) / pricer.widths
        report = {
            "instruments": [
                {"label": ins.label, "kind": ins.kind,
                 "maturity": ins.maturity.isoformat(),
                 "model_value": float(v), "market_mid": ins.mid,
                 "bid_ask_width": ins.width, "epsilon": float(e)}
                for ins, v, e in zip(pricer.instruments, values, eps)],
            "objective": float(eps @ eps),
            "config_hash": _config_hash(config),
            "seed": args.seed,
        }
    (out_dir / "pricing_report.json").write_text(json.dumps(report, indent=2) + "\n")
    (out_dir / "panel_audit.json").write_text(panel.to_json() + "\n")
    _write_meta(out_dir, "price", config, ["pricing_report.json", "panel_audit.json"])
    print(f"priced {len(report['instruments'])} instruments, "
          f"objective {report['objective']:.4f}")
    return EXIT_OK


def cmd_dist(args) -> int:
    pool = _pool_from_args(args)
    schedule = _read_schedule(args.schedule)
    times = _parse_times(args.times) if args.times else [3.0, 5.0, 7.0, 10.0]
    if args.simulate and args.paths < 1:
        raise InputError(f"--paths must be at least 1, got {args.paths}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the exact single-time engines: each file equals what the library returns
    # for its time
    exact = gpcl_distribution if schedule.model == GPCL else gpl_distribution
    probs = [exact(pool, schedule, t).probs for t in sorted(times)]
    simulated = None
    if args.simulate:
        strategy = "s2" if schedule.model == GPCL else "s0"
        simulated = empirical_distributions(pool, schedule, strategy, sorted(times),
                                            n_paths=args.paths, seed=args.seed)
    outputs = []
    for i, t in enumerate(sorted(times)):
        name = f"dist_{t:g}y.csv"
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if simulated is None:
                writer.writerow(["count", "probability"])
                for c, p in enumerate(probs[i]):
                    writer.writerow([c, repr(float(p))])
            else:
                writer.writerow(["count", "probability", "mc_frequency", "mc_std_err"])
                emp = simulated[i]
                for c, p in enumerate(probs[i]):
                    writer.writerow([c, repr(float(p)),
                                     repr(float(emp.distribution.probs[c])),
                                     repr(float(emp.std_err[c]))])
        outputs.append(name)
    config = _resolved_config(args)
    config["schedule_hash"] = hashlib.sha256(
        schedule.to_json().encode()).hexdigest()[:16]
    _write_meta(out_dir, "dist", config, outputs)
    print(f"wrote {len(outputs)} distribution files to {out_dir}")
    return EXIT_OK


def cmd_intensity_curve(args) -> int:
    pool = _pool_from_args(args)
    schedule = _read_schedule(args.schedule)
    at_time = args.at_time if args.at_time is not None else schedule.horizon
    if not (math.isfinite(at_time) and at_time >= 0):
        raise InputError(f"--at-time must be a finite, non-negative year fraction, "
                         f"got {at_time}")
    # per-cluster rates from the aggregate values (both schedule kinds store
    # amplitude totals over C(names, amplitude) clusters)
    gpcl_like = schedule if schedule.model == GPCL else IntensitySchedule(
        model=GPCL, amplitudes=schedule.amplitudes, knots=schedule.knots,
        cumulated=schedule.cumulated)
    rates = {}
    aggregates = schedule.aggregate_cumulated(at_time)
    for amplitude, total in zip(schedule.amplitudes, aggregates):
        if total > 0 and amplitude <= pool.names:
            rates[amplitude] = cluster_cumulated_intensity(gpcl_like, pool, amplitude,
                                                           at_time)
    if not rates:
        raise InputError("schedule has no active amplitudes at the requested time")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = {s: counting_intensity(s, pool, rates, 0) for s in STRATEGIES}
    name = "intensity_ratios.csv"
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["count", "count_fraction", "repeated", "s0", "s1", "s2"])
        for c in range(pool.names + 1):
            ratios = [counting_intensity(s, pool, rates, c) / base[s]
                      for s in STRATEGIES]
            writer.writerow([c, repr(c / pool.names)] + [repr(r) for r in ratios])
    _write_meta(out_dir, "intensity-curve", _resolved_config(args), [name])
    print(f"wrote {name} to {out_dir}")
    return EXIT_OK


def _parse_times(text: str) -> list[float]:
    try:
        times = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"cannot parse times {text!r}") from exc
    if not times or not all(math.isfinite(t) and t > 0 for t in times):
        raise InputError("times must be positive, finite year fractions")
    return times


def _resolved_config(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterloss",
        description="Portfolio credit-loss models: exact distributions, simulation, "
                    "tranche pricing, and quote-panel calibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, pool=True, seed=True):
        p.add_argument("--out", default=".", help="output directory")
        if pool:
            p.add_argument("--pool-size", type=int, default=125)
            p.add_argument("--recovery", type=float, default=0.40)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--valuation-date", type=parse_date, default="02-Oct-06",
                       help="trade date anchoring all year fractions (DD-Mon-YY)")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as failures")

    p = sub.add_parser("calibrate", help="fit a schedule to a quote panel")
    p.add_argument("--model", choices=[GPL, GPCL], required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--quotes", required=True)
    p.add_argument("--grid-step", type=float, default=30.0, metavar="DAYS")
    p.add_argument("--max-modes", type=int, default=8)
    p.add_argument("--threshold", type=float, default=1.0,
                   help="stop when the objective falls below this")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel workers for amplitude scans")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("price", help="price a panel off a schedule")
    p.add_argument("--model", choices=[GPL, GPCL], help="must match the schedule")
    p.add_argument("--curve", required=True)
    p.add_argument("--quotes", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--grid-step", type=float, default=30.0, metavar="DAYS")
    common(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("dist", help="counting distributions at given times")
    p.add_argument("--schedule", required=True)
    p.add_argument("--times", help="comma-separated year fractions, default 3,5,7,10")
    p.add_argument("--simulate", action="store_true",
                   help="add Monte Carlo frequency and standard-error columns")
    p.add_argument("--paths", type=int, default=100_000)
    common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("intensity-curve",
                       help="counting-process intensity ratios vs defaults so far")
    p.add_argument("--schedule", required=True)
    p.add_argument("--at-time", type=float, default=None,
                   help="evaluate cumulated intensities at this time "
                            "(default: last knot)")
    common(p)
    p.set_defaults(func=cmd_intensity_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if isinstance(args.valuation_date, str):
        args.valuation_date = parse_date(args.valuation_date)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MarketDataError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LossEngineError, PricingError, CalibrationError, SimulationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
