"""Benchmark entry point for ratar.

    python3 perfbench/run.py --workload ablate_c07 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Generates the workload's panel from the
seed with `data.generate_synthetic`, writes it to CSV under
`perfbench/out/`, and runs the workload in one fresh child process
(`worker.py`), which only receives that file.  Prints every metric by name
with its unit, then, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
`BENCHMARK.json` with `--trace 0`, its per-layer metrics with `--trace 1`.
The full record (machine, commit, digests, samples) is written next to the
CSV; with `--trace 1` the spans go to a `.trace.csv` file there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # the whole run, panel generation included
BLAS_THREADS = "1"


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None


def commit_id():
    """HEAD commit of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_info():
    import numpy as np

    cpu = None
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def _fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunk workload with the same code paths (for tests)")
    args = ap.parse_args(argv)

    if not (SRC / "ratar" / "pipeline.py").is_file():
        return _fail(f"program source not found under {SRC}", 2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("BENCHMARK.json not found", 2)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    from ratar.data import save_dataset_csv

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}", 2)
    wl = workloads.get(args.workload, smoke=args.smoke)
    out_dir = BENCH / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    csv_path = out_dir / f"{stem}.csv"

    t0 = time.perf_counter()
    save_dataset_csv(wl.panel(args.seed), str(csv_path))
    generate_s = time.perf_counter() - t0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", wl.name,
           "--csv", str(csv_path), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=str(ROOT),
                              timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        return _fail(f"workload {wl.name} did not finish within {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        return _fail(f"workload process exited with code {proc.returncode}", proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    source = result["end_to_end"] if args.trace == 0 else result["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        return _fail(f"metrics not measured on {wl.name}: {', '.join(missing)}", 4)
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared}
    correct = result["failed"] == 0 and result["repeatable"]

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "machine": machine_info(),
        "generate_s": generate_s,
        "correct": correct,
        "metrics": metrics,
        "result": result,
    }
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    width = max(len(name) for name in metrics)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} runs={result['runs']}"
          f" traced_runs={result['traced_runs']} digest={result['digest']}")
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']!r:>24}  {m['unit']}")
    print(f"# rmse_by_variant {json.dumps(result['rmse_by_variant'], sort_keys=True)}")
    print(f"# fallback_frac={result['fallback_frac']!r} failed_frac={result['failed_frac']!r}")
    print(f"# unscaled wall_s={result['wall_raw_s']!r} setup_s={result['setup_raw_s']!r}"
          f" host slowdown={result['slowdown']!r} setup slowdown={result['setup_slowdown']!r}")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
