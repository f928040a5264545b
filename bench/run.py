"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload certify_small --seed 1 --seconds 15 --trace 0

This parent process starts every measured process itself: the workload in
one single-threaded child and, before and after it, set-up probes in fresh
processes (``setup_s`` is their median, in reference seconds).  It prints each metric as
``name value unit`` and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are its per-layer ones.  ``--out``
also writes the child's full report (quartiles, sample counts, failures).

It exits with code 2, printing no result, when the package source is not
next to it, and with code 1 when a metric BENCHMARK.json names is missing
from the workload's report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import BENCH_DIR, WORKLOADS, child_env, load_spec, median, package_present

# Half the probes run before the workload and half after it, so that they
# sample the machine over the whole run, not only at its start.
SETUP_PROBES = 8
# Set-up is reported in reference seconds, as item times are (see worker.py),
# but with a reference of its own kind: a process that starts the
# interpreter and imports numpy and a few standard modules.  That is most of
# the package's start-up work, and none of it is anything a change to the
# package can speed up.  Each probe's wall time is scaled by
# REFERENCE_SETUP_S over the mean time of the reference process started
# right before and right after it.  On a shared machine start-up time drifts
# by a third over stretches of many seconds; the pure-Python reference loop
# of the items does not follow that drift, this one does.
REFERENCE_SETUP = ["-c", "import argparse, dataclasses, fractions, json, numpy"]
REFERENCE_SETUP_S = 0.2
DEADLINE_S = 175.0


class ChildFailed(RuntimeError):
    pass


def run_child(args, timeout: float) -> dict:
    """Runs worker.py with ``args``; returns the JSON of its last line."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(), text=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"worker {args} did not finish in {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"worker {args} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def reference_start(deadline: float) -> float:
    """Wall seconds of one reference process (REFERENCE_SETUP)."""
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable] + REFERENCE_SETUP, env=child_env(),
                       capture_output=True, check=True,
                       timeout=max(1.0, deadline - t0))
    except subprocess.SubprocessError as err:
        raise ChildFailed(f"reference process: {err}")
    return time.monotonic() - t0


def setup_seconds(base_args, deadline: float, probes: int) -> list:
    """Wall time from process start to the first timed item, minus the
    benchmark's own input generation, in ``probes`` fresh processes; each
    as a pair (reference seconds, wall seconds)."""
    samples = []
    before = reference_start(deadline) if probes else 0.0
    for _ in range(probes):
        t0 = time.monotonic()
        probe = run_child(base_args + ["--probe"], deadline - t0)
        wall = probe["ready"] - t0 - probe["gen_s"]
        after = reference_start(deadline)
        samples.append((wall * REFERENCE_SETUP_S * 2 / (before + after), wall))
        before = after
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--out", help="also write the full report here")
    args = parser.parse_args(argv)

    if not package_present():
        print("error: the kolmosphere source (src/kolmosphere) is not next to "
              "the benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup = setup_seconds(base, deadline, probes)
        report = run_child(base + ["--trace", str(args.trace)],
                           deadline - time.monotonic())
        setup += setup_seconds(base, deadline, probes)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.trace:
        wanted, measured = spec["per_layer"], report["per_layer"]
    else:
        wanted = spec["end_to_end"]
        measured = dict(report["end_to_end"], setup_s=median([s for s, _ in setup]))
        report["setup_s_samples"] = [s for s, _ in setup]
        report["setup_wall_s_samples"] = [w for _, w in setup]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: the {args.workload} report has no {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    report["metrics"] = metrics
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)

    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {report['attempted']} items "
          f"attempted, {report['failed']} failed, failed_ratio "
          f"{report['failed'] / report['attempted']:.4g}")
    if not args.trace:
        print(f"  run_s quartiles {report['run_s_quartiles']} over "
              f"{report['passes']} passes; item_ms from {report['item_samples']} "
              f"items; unscaled run_s {report['raw_run_s']:.4g} s")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
