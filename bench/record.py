"""Run every workload several times and write one results file.

    python3 bench/record.py --out results.json

Every workload gets ten untraced runs, one for each of the seeds 1 to 10, so
the spread covers both timing noise and input variation, and two traced runs
with seed 1, which must report identical call and work counts.  Each run
lasts BENCHMARK.json's ``run_seconds`` at full input sizes, so two results
files always measure the same amount of work.
For every end-to-end metric it prints the median, the quartiles and the
spread, (q3 - q1) / median, next to the metric's bound; the file it writes
is what ``compare.py`` reads.  This is also the one command that runs every
workload's output checks and prints all end-to-end metrics with units.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile

from common import BENCH_DIR, OUT, ROOT, THREAD_ENV, WORKLOADS, load_spec, quartiles

SEEDS = range(1, 11)
TRACED_RUNS = 2


def run_once(workload, seed, seconds, trace) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=OUT, delete=False) as handle:
        path = handle.name
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--out", path]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
        with open(path, encoding="utf-8") as report:
            return json.load(report)
    finally:
        os.unlink(path)


def summarize(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    import numpy

    return {
        "commit": commit or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": THREAD_ENV,
    }


def record_workload(workload, spec) -> dict:
    seconds = spec["run_seconds"]
    runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
    traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(TRACED_RUNS)]
    out = {"end_to_end": {}, "per_layer": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        out["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    repeat_problems = []
    for name, unit in units.items():
        values = [t["metrics"][name]["value"] for t in traced]
        out["per_layer"][name] = summarize(values) if values else {}
        if unit == "count" and len(set(values)) > 1:
            repeat_problems.append(f"{name}: {values}")
    out["count_repeat_problems"] = repeat_problems
    out["attempted"] = sum(r["attempted"] for r in runs + traced)
    out["failed"] = sum(r["failed"] for r in runs + traced)
    out["failed_ratio"] = out["failed"] / out["attempted"]
    out["failures"] = [f for r in runs + traced for f in r["failures"]][:5]
    out["item_samples"] = [r["item_samples"] for r in runs]
    out["seeds"] = list(SEEDS)
    return out


def print_workload(workload, result, spec) -> None:
    print(f"{workload}: failed_ratio {result['failed_ratio']:.4g} "
          f"({result['failed']} of {result['attempted']} items); item_ms from "
          f"{min(result['item_samples'])}-{max(result['item_samples'])} samples a run")
    for metric in spec["end_to_end"]:
        s = result["end_to_end"][metric["name"]]
        bound = metric["bound"]
        verdict = "steady" if s["spread"] < bound / 3 else (
            "within bound" if s["spread"] <= bound else "TOO NOISY")
        print(f"  {metric['name']:<12} {s['median']:12.6g} {metric['unit']:<3} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
              f"(bound {bound}) {verdict}")
    shares = {k.split(".")[1]: v["median"] for k, v in result["per_layer"].items()
              if k.endswith(".self_share") and v}
    if shares:
        top = max(shares, key=shares.get)
        print(f"  largest self-time share: {top} {shares[top]:.3f}; trace overhead "
              f"{result['per_layer']['trace.overhead_s']['median']:.3f} s")
    for problem in result["count_repeat_problems"]:
        print(f"  COUNT DID NOT REPEAT {problem}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    results = {"environment": environment(), "run_seconds": spec["run_seconds"],
               "workloads": {}}
    for workload in WORKLOADS:
        results["workloads"][workload] = record_workload(workload, spec)
        print_workload(workload, results["workloads"][workload], spec)
        sys.stdout.flush()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(results, handle, indent=1, sort_keys=True)
    return 0 if all(r["failed"] == 0 for r in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
