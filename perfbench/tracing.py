"""Spans around the calls into each layer of the program, and the per-layer
metrics computed from them.

The tracer wraps public functions and methods of the program's modules from
outside (``install``) and restores them afterwards (``uninstall``); nothing
inside the program is changed. Each span records its name, start, end,
parent span, operation id and process id. Spans are held in memory and
written out when the run ends. The calibrator's scan workers are forked from
the traced process and inherit the wrappers; each worker appends its spans to
a spool file at the end of every scan task, before the task's result is
returned, and the parent gathers the spool when the run ends.
"""
from __future__ import annotations

import functools
import glob
import json
import os
import statistics
import time

from clusterloss import calibrator, market_data, pricer, simulator
from clusterloss.loss_engine import IntensitySchedule


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.origin = os.getpid()
        self.pid = self.origin
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.op = None
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def _adopt_process(self) -> None:
        """In a forked worker, drop the parent's finished spans but keep its
        open ones as parents of the worker's spans."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []

    def _begin(self, name: str, attrs: dict) -> dict:
        self._adopt_process()
        self._next_id += 1
        span = {"id": f"{self.pid}:{self._next_id}", "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "op": self.op, "pid": self.pid, **attrs, "start": time.perf_counter()}
        self.stack.append(span)
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, name_and_attrs, on_result=None, spool=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, attrs = name_and_attrs(args, kwargs)
            span = tracer._begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    span.update(on_result(result))
                return result
            finally:
                tracer._end(span)
                if spool:
                    tracer._spool()

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spool(self) -> None:
        if os.getpid() == self.origin:
            return
        with open(os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl"), "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    # -- layer boundaries ---------------------------------------------------

    def install(self) -> None:
        fixed = lambda name: (lambda args, kwargs: (name, {}))  # noqa: E731

        def term_structure(args, kwargs):
            schedule, times = args[1], args[2]
            return f"loss_engine.{schedule.model}", {"rows": len(times)}

        def simulation(args, kwargs):
            strategy = args[2] if len(args) > 2 else kwargs["strategy"]
            n_paths = args[4] if len(args) > 4 else kwargs["n_paths"]
            return f"simulator.{strategy}", {"paths": int(n_paths)}

        def calibration(result):
            return {"model": result.schedule.model, "evaluations": result.n_evaluations,
                    "steps": len(result.iterations), "objective": result.objective}

        # fixture loading: the curve, the quote panels and the schedule files
        for name in ("load_curve", "load_quotes"):
            self._patch(market_data, name,
                        self._wrap(getattr(market_data, name), fixed("market_data.load")))
        self._patch(IntensitySchedule, "from_json", staticmethod(
            self._wrap(IntensitySchedule.from_json, fixed("market_data.load"))))
        # the pricer reaches the loss engine through its own module namespace
        self._patch(pricer, "distribution_term_structure",
                    self._wrap(pricer.distribution_term_structure, term_structure))
        self._patch(calibrator.PanelPricer, "__init__",
                    self._wrap(calibrator.PanelPricer.__init__, fixed("pricer.setup")))
        self._patch(calibrator.PanelPricer, "model_values",
                    self._wrap(calibrator.PanelPricer.model_values,
                               fixed("pricer.model_values")))
        self._patch(calibrator, "greedy_calibrate",
                    self._wrap(calibrator.greedy_calibrate, fixed("calibrator.greedy"),
                               on_result=calibration))
        self._patch(calibrator, "fit_intensities",
                    self._wrap(calibrator.fit_intensities, fixed("calibrator.fit")))
        # scan tasks run in forked workers; the wrapper keeps the original's
        # module and name, so the pool pickles it by reference as before
        self._patch(calibrator, "_scan_candidate",
                    self._wrap(calibrator._scan_candidate, fixed("calibrator.scan_task"),
                               spool=True))
        self._patch(simulator, "empirical_distributions",
                    self._wrap(simulator.empirical_distributions, simulation))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def gather(self) -> list[dict]:
        """This process's spans plus every worker span spooled so far."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "worker-*.jsonl"))):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
            os.remove(path)
        return spans


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _quantile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[round(100 * q) - 1]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its children in the same process
    cover (children in scan workers run in parallel and are not subtracted)."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            own[parent["id"]] -= _duration(s)
    return own


def layer_metrics(spans: list[dict], jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    own = self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def spans_of(name):
        return named.get(name, [])

    def busy(name):
        return sum(_duration(s) for s in spans_of(name))

    def self_sum(name):
        return sum(own[s["id"]] for s in spans_of(name))

    out = {"market_data.load_s": (busy("market_data.load"), "s")}
    for model in ("gpcl", "gpl"):
        name = f"loss_engine.{model}"
        out[f"{name}.calls"] = (len(spans_of(name)), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
        out[f"{name}.ms_p50"] = (_quantile_ms([_duration(s) for s in spans_of(name)], 0.5), "ms")
    out["loss_engine.rows"] = (sum(s["rows"] for m in ("gpcl", "gpl")
                                   for s in spans_of(f"loss_engine.{m}")), "count")

    values = [_duration(s) for s in spans_of("pricer.model_values")]
    out["pricer.model_values.calls"] = (len(values), "count")
    out["pricer.model_values.self_s"] = (self_sum("pricer.model_values"), "s")
    out["pricer.model_values.ms_p50"] = (_quantile_ms(values, 0.5), "ms")
    out["pricer.model_values.ms_p90"] = (_quantile_ms(values, 0.9), "ms")
    out["pricer.setup.calls"] = (len(spans_of("pricer.setup")), "count")
    out["pricer.setup_s"] = (busy("pricer.setup"), "s")

    greedy = spans_of("calibrator.greedy")
    evaluations = sum(s["evaluations"] for s in greedy)
    greedy_s = busy("calibrator.greedy")
    # the greedy span's own time is the candidate scan (pool start-up, task
    # hand-out, waiting for workers) plus bookkeeping between fits; a serial
    # scan runs its tasks in the calibrating process itself
    greedy_pids = {s["pid"] for s in greedy}
    scan_tasks = spans_of("calibrator.scan_task")
    scan_wall = self_sum("calibrator.greedy") + sum(
        _duration(s) for s in scan_tasks if s["pid"] in greedy_pids)
    scan_busy = sum(_duration(s) for s in scan_tasks)
    out["calibrator.evaluations"] = (evaluations, "count")
    out["calibrator.evals_per_s"] = (evaluations / greedy_s if greedy_s else 0.0, "1/s")
    out["calibrator.fit.self_s"] = (self_sum("calibrator.fit"), "s")
    out["calibrator.scan.busy_s"] = (scan_busy, "s")
    out["calibrator.parallel_efficiency"] = (
        scan_busy / (jobs * scan_wall) if scan_wall else 0.0, "1")
    out["calibrator.greedy_steps"] = (sum(s["steps"] for s in greedy), "count")
    for model in ("gpcl", "gpl"):
        fits = [s["objective"] for s in greedy if s["model"] == model]
        out[f"calibrator.{model}.objective"] = (statistics.median(fits) if fits else 0.0, "1")

    paths = 0
    for strategy in ("s2", "s0"):
        runs = spans_of(f"simulator.{strategy}")
        n = sum(s["paths"] for s in runs)
        paths += n
        out[f"simulator.{strategy}.us_per_path"] = (1e6 * busy(f"simulator.{strategy}") / n
                                                    if n else 0.0, "us")
    out["simulator.paths"] = (paths, "count")
    return out
