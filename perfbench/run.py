"""Benchmark of the clusterloss package: calibrate, risk and simulate.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each workload repeats whole rounds of its
operations for ``--seconds`` seconds in a closed loop with one caller, then
checks every output against computations made apart from the program. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``--workload all`` runs the three workloads one after another.
"""
from __future__ import annotations

import os

# One BLAS thread per process, so that the calibrator's scan workers times
# BLAS threads stays within the cores the benchmark runs on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
NAMES = ("calibrate", "risk", "simulate")

# What one gpcl / gpl operation is on each workload, and the figure the
# rate stands for.
OPERATIONS = {
    "calibrate": ("greedy calibration to iTraxx (calibrate_s = 1 / rate)",) * 2,
    "risk": ("panel repricing (reprice_gpcl_per_s)", "panel repricing (reprice_gpl_per_s)"),
    "simulate": ("s2 path on the gpcl schedule (mc_s2_paths_per_s)",
                 "s0 path on the gpl schedule (mc_s0_paths_per_s)"),
}


def import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import clusterloss

    if Path(clusterloss.__file__).resolve().parent != ROOT / "src" / "clusterloss":
        raise ImportError(f"clusterloss imported from {clusterloss.__file__}, "
                          f"not from {ROOT / 'src'}")


class Ops:
    """Runs and times operations; an operation that raises counts as failed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.round = 0
        self.attempted = 0
        self.failed = 0
        self.timings: list[tuple[int, str, float, float, int]] = []  # round, kind, start, end, units

    def run(self, kind: str, units: int, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        self.timings.append((self.round, kind, start, time.perf_counter(), units))
        return result

    def rate(self, kind: str, sampler: reference.SpeedSampler | None = None) -> float:
        """Median over rounds of units completed per second of operation
        time; each operation's time is scaled to the nominal core speed by
        the sampler's factor over its interval, when a sampler is given."""
        per_round: dict[int, list[float]] = {}
        for rnd, k, start, end, units in self.timings:
            if k == kind:
                acc = per_round.setdefault(rnd, [0.0, 0.0])
                acc[0] += units
                acc[1] += (end - start) / (sampler.factor(start, end) if sampler else 1.0)
        rates = [units / seconds for units, seconds in per_round.values()]
        return statistics.median(rates) if rates else 0.0


def measure_setup(workload: str, args, sampler) -> tuple[float, float]:
    """Median set-up time over fresh interpreter processes, scaled to the
    nominal core speed, and unscaled. The probes inherit the benchmark's
    core, where the sampler times the kernel while they run."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(args.seed),
             str(args.cores)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds / sampler.factor(start, time.perf_counter()))
    return statistics.median(scaled), statistics.median(raw)


def run_workload(name: str, args) -> dict:
    import workloads

    with reference.SpeedSampler() as sampler:
        setup_s = setup_raw_s = None
        if not args.trace:
            setup_s, setup_raw_s = measure_setup(name, args, sampler)
        tracer = None
        if args.trace:
            import tracing

            spool = OUT / f"spool-{os.getpid()}"
            spool.mkdir(parents=True, exist_ok=True)
            tracer = tracing.Tracer(str(spool))
            tracer.install()
        try:
            workload = workloads.WORKLOADS[name](args.seed, args.cores)
            ops = Ops(tracer)
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                workload.round(ops, ops.round)
                ops.round += 1
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
                spans = tracer.gather()
                shutil.rmtree(spool, ignore_errors=True)

    try:
        problems = workload.check()
    except Exception:
        problems = ["check raised:\n" + traceback.format_exc()]
    for problem in problems:
        print(f"CHECK FAILED [{name}] {problem}", file=sys.stderr)

    gpcl_rate, gpl_rate = ops.rate("gpcl", sampler), ops.rate("gpl", sampler)
    print(f"{name}: seed {args.seed}, {ops.round} rounds in {wall:.1f} s on {args.cores} "
          f"core(s), {ops.attempted} operations attempted, {ops.failed} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for kind, rate, what in zip(("gpcl", "gpl"), (gpcl_rate, gpl_rate), OPERATIONS[name]):
        print(f"  {kind}_ops_per_s = {rate:.6g} 1/s ({ops.rate(kind):.6g} unscaled)  per {what}")
    if setup_s is not None:
        print(f"  setup_s = {setup_s:.4f} s ({setup_raw_s:.4f} unscaled)  import, fixture load "
              f"and pricer construction (median of {SETUP_PROBES} fresh processes)")
    speed = sorted(s for _, s in sampler.samples)
    print(f"  reference kernel: {len(speed)} samples, median {statistics.median(speed) * 1e3:.2f} ms "
          f"(nominal {reference.NOMINAL_S * 1e3:g} ms), range {speed[0] * 1e3:.2f}-"
          f"{speed[-1] * 1e3:.2f} ms")
    for label, (value, unit) in workload.summary().items():
        print(f"  {label} = {value} {unit}")

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "gpcl_ops_per_s": (gpcl_rate, "1/s"),
                   "gpl_ops_per_s": (gpl_rate, "1/s")}
    else:
        metrics = tracing.layer_metrics(spans, args.cores)
        for label, (value, unit) in metrics.items():
            print(f"  {label} = {value:.6g} {unit}")
        trace_file = OUT / f"trace-{name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(spans))
        print(f"  {len(spans)} spans written to {trace_file.relative_to(ROOT)}")
    result = {"correct": not problems, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cores", type=int, default=1,
                        help="cores to run on, and the calibrator's scan workers (default 1)")
    args = parser.parse_args(argv)

    usable = sorted(os.sched_getaffinity(0))
    if not 1 <= args.cores <= len(usable):
        parser.error(f"--cores must lie in [1, {len(usable)}]")
    # The cores of a shared machine drift in speed each on its own; on one
    # core the reference kernel follows the speed of the measured work.
    os.sched_setaffinity(0, usable[:args.cores])
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program from this checkout: {exc}", file=sys.stderr)
        return 2
    for name in NAMES if args.workload == "all" else (args.workload,):
        result = run_workload(name, args)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
