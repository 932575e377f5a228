"""Benchmark for wickworks: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; wickworks is imported from its `src`. Jobs run
one at a time, each in a fresh interpreter (perfbench/job.py), as a CLI user
would run them, until S seconds have passed (at least MIN_JOBS of them). Each
job's output is checked; a job whose check fails or that crashes is a failed
operation.

--trace 0 reports the end-to-end metrics, as medians over the run's jobs:
  setup_s      interpreter start until wickworks is imported (every job and
               SETUP_PER_JOB import-only processes before each job)
  wall_s       first call into wickworks until the output has been checked
  peak_rss_mb  peak resident memory of a job process
The two times are scaled to the reference machine speed, which each process
samples while it works (see speed.py); the raw medians and the median speed
factor are printed beside them.
--trace 1 alternates traced and untraced jobs and reports the per-layer
metrics of the traced ones (see layertrace.py) and the tracing overhead. The
counts of every traced job must agree exactly, or the run is incorrect.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See NOTES.md for the workloads and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("phi4-d3", "uv-d3", "mc-d2", "diagrams-6")
MIN_JOBS = 2
SETUP_PER_JOB = 3
RUN_LIMIT_S = 165.0  # stop starting jobs so the run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from layertrace import COUNTS, UNITS  # noqa: E402


def job_env() -> tuple[dict, int]:
    """Environment for job processes: one BLAS/OpenMP thread, so a job loads
    one CPU and a busy neighbour core does not stall a thread team, and a
    fixed hash seed so counts repeat."""
    cap = 1
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: str(cap) for var in THREAD_VARS})
    return env, cap


def start_job(args: list[str], env: dict, timeout: float) -> dict | None:
    """Run job.py once; None when it crashed or timed out."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(JOB), *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"job {args} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # interpreter start-up is too short to sample: it takes the import's first speed
    boot = result["started_at"] - started
    result["raw_setup_s"] = boot + result["import_raw_s"]
    result["setup_s"] = boot * result["import_first_speed"] + result["import_scaled_s"]
    return result


def run_workload(name: str, seed: int, seconds: int, trace: bool, mc_ref_seed: int,
                 env: dict) -> dict:
    t0 = time.monotonic()
    need = 3 if trace else MIN_JOBS  # a traced run needs two traced jobs and one untraced
    setups: list[float] = []
    raw_setups: list[float] = []
    jobs: list[tuple[bool, dict | None]] = []
    while True:
        elapsed = time.monotonic() - t0
        k = len(jobs)
        per_job = elapsed / k if k else 0.0
        # stop at the job boundary nearest to the requested run length
        if (k >= need and elapsed + per_job / 2 >= seconds) or elapsed + 1.5 * per_job > RUN_LIMIT_S:
            break
        for _ in range(SETUP_PER_JOB):
            res = start_job(["--setup-only"], env, RUN_LIMIT_S - elapsed)
            if res is None:
                raise SystemExit("error: wickworks does not import")
            setups.append(res["setup_s"])
            raw_setups.append(res["raw_setup_s"])
        traced = trace and k % 2 == 0
        job_seed = mc_ref_seed if name == "mc-d2" and k == 0 else (seed * 1000 + k) % 2**63
        args = ["--workload", name, "--seed", str(job_seed), "--trace", str(int(traced))]
        if traced:
            OUT.mkdir(exist_ok=True)
            args += ["--spans", str(OUT / f"{name}-seed{seed}-job{k}.jsonl")]
        res = start_job(args, env, RUN_LIMIT_S - (time.monotonic() - t0))
        jobs.append((traced, res))
        if res is None:
            break
        setups.append(res["setup_s"])
        raw_setups.append(res["raw_setup_s"])
        print(f"{name} job {k}{' (traced)' if traced else ''}: wall {res['wall_s']:.3f} s "
              f"(raw {res['raw_wall_s']:.3f} s, speed {res['speed']:.3f}, "
              f"{res['ticks']} ticks)", file=sys.stderr)
        for problem in res["problems"]:
            print(f"{name} job {k} (seed {job_seed}): {problem}", file=sys.stderr)

    done = [(t, r) for t, r in jobs if r is not None]
    failed = sum(1 for _, r in jobs if r is None or r["problems"])
    correct = failed == 0
    if trace:
        traced_runs = [r for t, r in done if t]
        plain = [r["wall_s"] for t, r in done if not t]
        layers = {key: statistics.median(r["layers"][key] for r in traced_runs)
                  for key in (traced_runs[0]["layers"] if traced_runs else ())}
        for key in COUNTS:
            values = {r["layers"][key] for r in traced_runs}
            if len(values) > 1:
                print(f"{name}: {key} differs between traced jobs: {sorted(values)}; "
                      "a cache outlived its process", file=sys.stderr)
                correct = False
        if traced_runs and plain:
            layers["bench.trace_overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced_runs) - statistics.median(plain))
        units = {**UNITS, "bench.trace_overhead_s": "s"}
        metrics = {key: (value, units[key]) for key, value in layers.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(r["wall_s"] for _, r in done), "s") if done else None,
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for _, r in done), "MB")
            if done else None,
        }
        metrics = {k: v for k, v in metrics.items() if v is not None}
    raw = {"raw setup_s": statistics.median(raw_setups) if raw_setups else None}
    if done:
        raw["raw wall_s"] = statistics.median(r["raw_wall_s"] for _, r in done)
        raw["speed factor"] = statistics.median(r["speed"] for _, r in done)
    return {"correct": correct and bool(done), "attempted": len(jobs), "failed": failed,
            "metrics": metrics, "raw": raw}


def main() -> int:
    parser = argparse.ArgumentParser(description="wickworks benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "wickworks" / "__init__.py").is_file():
        print(f"error: no wickworks sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    mc_ref_seed = json.loads((HERE / "reference.json").read_text())["mc-d2"]["seed"]

    env, cap = job_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), mc_ref_seed, env)
               for n in names}
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"BLAS/OpenMP thread cap {cap}, trace {args.trace}, seed {args.seed}; "
          "times scaled to the reference speed (speed.py)")
    for n, res in results.items():
        print(f"{n}: {res['attempted']} jobs, {res['failed']} failed")
        for key, (value, unit) in res["metrics"].items():
            print(f"  {key:44s} {value:.6g} {unit}")
        print("  unscaled: " + ", ".join(f"{key} {value:.4g}" for key, value in res["raw"].items()
                                         if value is not None))
    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{n}.{key}" if prefix else key): {"value": value, "unit": unit}
            for n, res in results.items() for key, (value, unit) in res["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
