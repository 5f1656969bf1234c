"""One workload in a fresh process: set up, run, check, measure.

Started by `run.py` with the program's `src` directory on the path.  Reads
the panel CSV, loads it several times (the set-up time), then runs the
workload's experiment again and again until the time is used.  Reference
chunks run between loads and calls, to scale the times to a fixed host
speed.  With `--trace 1` untraced and traced calls take turns: the traced
ones give the per-layer rows, and each pair gives one sample of the
tracing overhead.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

import numpy as np

import workloads
from ratar import data, pipeline  # called through the modules, so tracing sees them
from tracer import Tracer, layer_rows

# A fixed count, not a time budget: how many loads run changes the
# allocator's high-water mark, which peak_rss_mb reads.
SETUP_REPEATS = 15

# On a shared host the speed moves by half or more for seconds to minutes
# at a time.  So a timer signal runs a short reference chunk (small numpy
# ops driven from Python, the mix the program runs) at a fixed interval
# during each untraced call and set-up load, and once right before it.
# The median chunk time over its time at nominal speed (REF_STEP_S per
# step) is the host's slowdown during that call.  The chunk runs no
# program code, so a change to the program moves the call's time and not
# the slowdown.  Chunks take about 4% of the time they sample.
#
# The program does not slow down exactly as much as the chunk.  On a
# shared 2-core Xeon VM, the slope of log call time on log slowdown was
# about 0.45-0.6 on `ablate_c07` and about 1 on the other workloads.  The
# call's time, less the chunks, is divided by the slowdown to the power
# HOST_ELASTICITY, the middle of that range, so that on each workload the
# error stays within a factor of the slowdown to the power 0.25.
REF_STEP_S = 3e-6
HOST_ELASTICITY = 0.75
_REF_MATRIX = np.random.default_rng(0).standard_normal((8, 8)) / 3.0


class HostSampler:
    """Times reference chunks right before and during a timed block."""

    def __init__(self, interval_s, steps):
        self.interval_s, self.steps = interval_s, steps
        self.chunks = []  # chunk seconds of the current block
        self.inside = 0.0  # seconds the handler took inside the block

    def _chunk(self):
        x = _REF_MATRIX
        start = time.perf_counter()
        for _ in range(self.steps):
            x = np.tanh(x @ _REF_MATRIX)
        return time.perf_counter() - start

    def _on_alarm(self, _signum, _frame):
        start = time.perf_counter()
        self.chunks.append(self._chunk())
        self.inside += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        self.chunks = [self._chunk()]
        self.inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self):
        """The host's slowdown over the last block, against nominal speed."""
        return statistics.median(self.chunks) / (self.steps * REF_STEP_S)


def scaled(seconds, slowdown):
    """Seconds as they would read at nominal host speed."""
    return seconds / slowdown ** HOST_ELASTICITY


class Runner:
    """Calls the workload's entry point and checks every result."""

    def __init__(self, wl, cfg, ds, host):
        self.wl, self.cfg, self.ds, self.host = wl, cfg, ds, host
        self.entry = getattr(pipeline, wl.entry)
        test_year = cfg.test_year
        self.labelled = {r.county for r in ds.records if r.year == test_year and r.has_label}
        self.totals = dict(attempted=0, failed=0, fallbacks=0, test_counties=0)
        self.outputs = set()  # (digest, rmse by variant) of every call
        self.first_call_rss_mb = None

    def call(self, sample_host=True):
        """One execution, checked; returns a Sample, or None if it raised.

        With `sample_host`, reference chunks run during the call; their
        time is left out of the sample's seconds and CPU time.
        """
        n_seeds = len(self.cfg.seeds)
        try:
            with (self.host.sampling() if sample_host else nullcontext()):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
                cpu = time.process_time()
                start = time.perf_counter()
                out = self.entry(self.cfg, dataset=self.ds)
                seconds = time.perf_counter() - start
                cpu = time.process_time() - cpu
                nivcsw = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw - before
                inside = self.host.inside if sample_host else 0.0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            n = len(self.labelled) * len(self.wl.variants) * n_seeds
            self.totals["attempted"] += n
            self.totals["failed"] += n
            return None
        if self.first_call_rss_mb is None:
            # later calls add only leftovers, and how many calls fit in the
            # time depends on the machine's speed
            self.first_call_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reports = out if isinstance(out, dict) else {out.variant: out}
        attempted, failed, preds, digest, rmse, fallbacks = check(
            self.wl.variants, reports, self.labelled, n_seeds)
        self.totals["attempted"] += attempted
        self.totals["failed"] += failed
        self.totals["fallbacks"] += fallbacks
        self.totals["test_counties"] += len(self.labelled) * n_seeds
        self.outputs.add((digest, json.dumps(rmse, sort_keys=True)))
        slowdown = self.host.slowdown() if sample_host else None
        return Sample(seconds - inside, slowdown, cpu - inside, nivcsw, preds, digest, rmse)


class Sample(NamedTuple):
    seconds: float  # wall time of the call, less the reference chunks in it
    slowdown: float | None  # the host's slowdown during the call, if sampled
    cpu_s: float  # process CPU time of the call, less the reference chunks
    nivcsw: int  # involuntary context switches during the call
    predictions: int
    digest: str
    rmse: dict


def repeat(until, *calls):
    """Run `calls` in turn, as rounds, until `until` (a perf_counter time).

    There is always one round.  Another starts only if the last one, taking
    as long again, would end by `until`, so a run ends close to its time.
    Stops at a round in which a call returns None, and leaves that round
    out.  Returns one list of samples per call, all of the same length.
    """
    rounds = []
    while True:
        start = time.perf_counter()
        samples = [call() for call in calls]
        if any(sample is None for sample in samples):
            break
        rounds.append(samples)
        now = time.perf_counter()
        if now + (now - start) > until:
            break
    return [list(col) for col in zip(*rounds)] or [[] for _ in calls]


def check(variants, reports, labelled, n_seeds):
    """Output checks for one execution.

    Returns (attempted, failed, predictions, digest, rmse by variant,
    fallback counties).  Every variant and seed must predict every
    labelled test county with a finite value, report a finite RMSE, and
    record no audit violation; a variant that breaks one of these counts
    all of its counties as failed.  Fallbacks are counted on the "ratar"
    variant only.
    """
    attempted = failed = predictions = fallbacks = 0
    lines, rmse = [], {}
    for variant in variants:
        attempted += len(labelled) * n_seeds
        rep = reports.get(variant)
        if rep is None:
            failed += len(labelled) * n_seeds
            continue
        rmse[variant] = rep.rmse_mean
        variant_ok = rep.audit_violations == 0 and math.isfinite(rep.rmse_mean)
        for sr in rep.seed_results:
            good = {row.county for row in sr.rows
                    if row.county in labelled and math.isfinite(row.prediction)}
            ok = variant_ok and math.isfinite(sr.rmse)
            failed += len(labelled) - (len(good) if ok else 0)
            predictions += len(sr.rows)
            if variant == "ratar":
                fallbacks += sum(row.fallback for row in sr.rows)
            lines.extend(f"{variant},{sr.seed},{row.county},{row.year},{row.prediction!r}"
                         for row in sr.rows)
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    return attempted, failed, predictions, digest, rmse, fallbacks


def _median_rows(per_run):
    """Median over runs of every metric in a list of {name: value} dicts.

    The lower median, so counts stay whole numbers.
    """
    return {key: statistics.median_low(m[key] for m in per_run) for key in per_run[0]}


def _rows_per_run(tracer, runs, root=None):
    """Per-run layer rows; the root span counts only towards pipeline.self_s."""
    per_run = []
    for run in runs:
        rows, modules = layer_rows([s for s in tracer.spans if s[5] == run])
        m = {}
        for row, (calls, total, own) in rows.items():
            if row != root:
                m.update({f"{row}.calls": calls, f"{row}.s": total, f"{row}.self_s": own})
        m.update({f"{mod}.self_s": own for mod, own in modules.items()})
        per_run.append(m)
    return per_run


def traced_run(runner, csv_path, until):
    """Traced set-up loads, then untraced and traced calls in turn.

    The tracer is installed only around traced loads and calls, and the
    host is not sampled during them.  Returns (tracer, untraced samples,
    traced samples, counts per traced call).
    Spans of set-up load i carry run "setup<i>", spans of traced call i
    run "rep<i>".
    """
    tracer = Tracer(runner.wl.name)
    root = f"pipeline.{runner.wl.entry}"
    counts = []

    @contextmanager
    def installed():
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    def traced_call():
        tracer.run = f"rep{len(counts)}"
        tracer.reset_counts()
        with installed(), tracer.span(root):
            sample = runner.call(sample_host=False)
        counts.append(dict(tracer.counts))
        return sample

    with installed():
        for i in range(SETUP_REPEATS):
            tracer.run = f"setup{i}"
            data.load_dataset(csv_path)
    untraced, traced = repeat(until, runner.call, traced_call)
    return tracer, untraced, traced, counts


def layer_metrics(tracer, root, n_calls, counts):
    """Per-layer metrics: medians over the traced calls and set-up loads."""
    layer = _median_rows(_rows_per_run(tracer, [f"rep{i}" for i in range(n_calls)], root))
    load = _median_rows(_rows_per_run(tracer, [f"setup{i}" for i in range(SETUP_REPEATS)]))
    for key in ("calls", "s", "self_s"):
        layer[f"data.load_dataset.{key}"] = load[f"data.load_dataset.{key}"]
    c = _median_rows(counts[:n_calls])
    layer["numcore.ops"] = c["ops"]
    layer["numcore.ops_traced"] = c["ops_traced"]
    layer["retrieval.pairs"] = c["pairs"]
    layer["retrieval.match_ratio"] = _frac(c["matched"], c["pairs"])
    layer["refinement.entries"] = c["entries"]
    layer["refinement.refined_ratio"] = _frac(c["refined"], c["entries"])
    return layer


def _frac(num, den):
    return num / den if den else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--csv", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.get(args.workload, smoke=args.smoke)
    t_begin = time.perf_counter()
    host = HostSampler(interval_s=0.01, steps=100)  # a load takes 0.05-0.2 s
    setup = []  # (seconds, slowdown) of each load
    for _ in range(SETUP_REPEATS):
        with host.sampling():
            start = time.perf_counter()
            ds = data.load_dataset(args.csv)
            seconds = time.perf_counter() - start - host.inside
        setup.append((seconds, host.slowdown()))
    runner = Runner(wl, wl.config(max(ds.years)), ds, HostSampler(interval_s=0.05, steps=600))

    start = time.perf_counter()
    layer, traced, trace_file = {}, [], None
    if args.trace:
        tracer, walls, traced, counts = traced_run(runner, args.csv, start + args.seconds)
    else:
        (walls,) = repeat(start + args.seconds, runner.call)
    if not walls:
        print(f"workload {wl.name} failed on its first call", file=sys.stderr)
        return 3
    wall = statistics.median(scaled(w.seconds, w.slowdown) for w in walls)

    if args.trace:
        seen = {span[2] for span in tracer.spans}
        missing = [f for f in wl.required_functions() if f not in seen]
        if missing:
            print(f"layer functions recorded no calls on {wl.name}: {', '.join(missing)}",
                  file=sys.stderr)
            return 3
        layer = layer_metrics(tracer, f"pipeline.{wl.entry}", len(traced), counts)
        trace_file = args.csv[:-len(".csv")] + ".trace.csv"
        tracer.write(trace_file)

    totals = runner.totals
    fallback_frac = _frac(totals["fallbacks"], totals["test_counties"])
    if args.trace:
        layer["pipeline.fallback_frac"] = fallback_frac
        # each traced call ran right after an untraced one
        layer["trace.overhead_s"] = statistics.median(
            t.seconds - u.seconds for u, t in zip(walls, traced))
    first = walls[0]
    result = {
        "workload": wl.name,
        "smoke": args.smoke,
        "runs": len(walls),
        "traced_runs": len(traced),
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "repeatable": len(runner.outputs) == 1,
        "digest": first.digest,
        "rmse_by_variant": first.rmse,
        "rmse": first.rmse.get("ratar", float("nan")),
        "fallback_frac": fallback_frac,
        "failed_frac": _frac(totals["failed"], totals["attempted"]),
        "wall_samples": [w.seconds for w in walls],
        "slowdown_samples": [w.slowdown for w in walls],
        "cpu_samples": [w.cpu_s for w in walls],
        "nivcsw_samples": [w.nivcsw for w in walls],
        "traced_wall_samples": [t.seconds for t in traced],
        "setup_samples": [secs for secs, _ in setup],
        "setup_slowdown_samples": [slow for _, slow in setup],
        "wall_raw_s": statistics.median(w.seconds for w in walls),
        "setup_raw_s": statistics.median(secs for secs, _ in setup),
        "slowdown": statistics.median(w.slowdown for w in walls),
        "setup_slowdown": statistics.median(slow for _, slow in setup),
        "end_to_end": {
            "wall_s": wall,
            "setup_s": statistics.median(scaled(secs, slow) for secs, slow in setup),
            "predictions_per_s": first.predictions / wall,
            "peak_rss_mb": runner.first_call_rss_mb,
        },
        "per_layer": layer,
        "trace_file": trace_file,
        "seconds_total": time.perf_counter() - t_begin,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
