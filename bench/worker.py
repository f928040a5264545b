"""One workload in one single-threaded process.

Started by run.py, never by hand.  Prints one JSON line on stdout.

It runs passes over all items until ``--seconds`` have gone by, at least
two passes so that passes can be compared with each other, and enough items
for ``item_ms.p90`` to have ten samples beyond it.  Every item's output is
checked outside the timed region.  With ``--trace 1`` the second half of
the time runs traced passes and reports the per-layer breakdown of the
first one, with the wrappers' own cost (``spans.wrapper_cost``) taken out of
the self times.

Item timings are reported in reference seconds.  The shared machine this
benchmark was built on runs the same code at speeds that differ by up to 2x
over stretches of several seconds, so a raw wall time says more about the
neighbours than about the program.  Between items the worker times a fixed
piece of pure-Python work (``reference_work``, which no change to the
package can speed up) and scales each item's wall and CPU time by
``REFERENCE_S / measured``: the time the item would take on a machine that
runs the reference in exactly ``REFERENCE_S``.  The raw median pass time is
in the full report too.

``--probe`` stops at the first timed item and reports when it got there and
how long the benchmark's own input generation took, for ``setup_s``.  It
reports wall times: start-up is process creation, file reads and
unmarshalling as much as Python bytecode, and scaling it by the speed of
``reference_work`` made its spread wider, not narrower.  run.py scales it by
a reference process instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from common import OUT, SRC, median, percentile, quartiles

sys.path.insert(0, str(SRC))

MIN_ITEMS = 100  # ten samples beyond p90
MAX_SECONDS = 150.0
REFERENCE_S = 1e-3
CALIBRATE_EVERY_S = 0.05


def reference_work():
    """Fraction arithmetic and dict updates, the operations the exact layers
    spend their time on, in code that lives outside the package."""
    acc = {}
    step = Fraction(1, 3)
    for i in range(300):
        key = (i % 7, i % 5, 0)
        acc[key] = acc.get(key, 0) + step * i
    return acc


def speed_scale() -> float:
    """REFERENCE_S over the median of three timings of the reference."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(samples)


def run_pass(items, failures, rec=None):
    """Runs every item once; returns per-item wall and CPU seconds, scaled
    to reference speed, and the raw wall seconds of the pass.  Each item is
    scaled by the mean of the speed measured before and after it.  With a
    span recorder, recording pauses while outputs are checked."""
    clock, cpu = time.perf_counter, time.process_time
    walls, cpus, pending = [], [], []
    scale, since = speed_scale(), clock()

    def rescale():
        nonlocal scale, since, pending
        new = speed_scale()
        factor = (scale + new) / 2
        for k in pending:
            walls[k] *= factor
            cpus[k] *= factor
        scale, since, pending = new, clock(), []

    raw = 0.0
    for item in items:
        c0 = cpu()
        t0 = clock()
        try:
            result = item.run()
        except Exception:
            t1, c1 = clock(), cpu()
            failures.append(f"{item.label}: raised\n{traceback.format_exc(limit=3)}")
        else:
            t1, c1 = clock(), cpu()
            if rec is not None:
                rec.active[0] = False
            try:
                problem = item.check(result)
            except Exception:
                problem = f"check raised\n{traceback.format_exc(limit=3)}"
            finally:
                if rec is not None:
                    rec.active[0] = True
            if problem is not None:
                failures.append(f"{item.label}: {problem}")
        raw += t1 - t0
        pending.append(len(walls))
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if clock() - since >= CALIBRATE_EVERY_S:
            rescale()
    rescale()
    return walls, cpus, raw


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import kolmosphere  # noqa: F401  (import time is part of setup_s)
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        g0 = time.monotonic()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, Path(workdir))
        gen_s = time.monotonic() - g0
        items = workload.prepare()
        ready = time.monotonic()
        if args.probe:
            print(json.dumps({"ready": ready, "gen_s": gen_s}))
            return 0
        result = measure(workload, items, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_passes(workload, items, failures, seconds, min_passes, min_items=0,
                 rec=None, after_pass=None):
    """Passes until ``seconds`` have gone by.  Returns, per pass, the list of
    its items' scaled wall seconds and of their scaled CPU seconds, and the
    pass's raw wall seconds; ``after_pass(scaled, raw)`` runs after each
    pass."""
    walls, cpus, raws = [], [], []
    start = time.perf_counter()
    while True:
        w, c, raw = run_pass(workload.pass_items(items, len(walls)), failures, rec)
        walls.append(w)
        cpus.append(c)
        raws.append(raw)
        if after_pass is not None:
            after_pass(sum(w), raw)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (
            elapsed >= seconds and len(walls) >= min_passes
            and len(walls) * len(w) >= min_items
        ):
            return walls, cpus, raws


def pass_time(per_pass, fresh_items: bool) -> float:
    """One pass's time.  When every pass runs the same items, it is taken
    item by item: the sum over the items of each item's median over the
    passes, so a slow stretch of the machine moves only the items it fell on,
    not a whole pass.  When each pass draws fresh items, it is the median of
    the pass totals."""
    if fresh_items:
        return median([sum(times) for times in per_pass])
    return sum(median(times) for times in zip(*per_pass))


def measure(workload, items, args) -> dict:
    failures: list = []
    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        import spans

        untraced, _, raws = timed_passes(workload, items, failures, args.seconds / 2, 2)
        rec = spans.Recorder()
        layers = {}
        # The wrapper cost, in reference nanoseconds like the item timings.
        before = speed_scale()
        cost = spans.wrapper_cost()
        cost = cost.scaled((before + speed_scale()) / 2)

        def after_pass(scaled, raw):
            if not layers:
                layers.update(spans.summarize(rec, scaled / raw, cost.scaled(raw / scaled)))
                layers["trace.wrapper_inside_ns"] = cost.inside
                layers["trace.wrapper_outside_ns"] = cost.outside[None]
                rec.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
            rec.clear()

        undo = spans.instrument(rec)
        try:
            traced, _, _ = timed_passes(
                workload, items, failures, args.seconds / 2, 1, rec=rec,
                after_pass=after_pass)
        finally:
            spans.uninstrument(undo)
        layers["trace.run_s"] = pass_time(traced, workload.fresh_items)
        layers["trace.untraced_run_s"] = pass_time(untraced, workload.fresh_items)
        layers["trace.overhead_s"] = layers["trace.run_s"] - layers["trace.untraced_run_s"]
        result["per_layer"] = layers
        result["raw_run_s"] = median(raws)
        attempted = len(items) * (len(untraced) + len(traced))
    else:
        walls, cpus, raws = timed_passes(
            workload, items, failures, args.seconds, 2, MIN_ITEMS)
        walls_ms = sorted(w * 1e3 for per_pass in walls for w in per_pass)
        result["end_to_end"] = {
            "run_s": pass_time(walls, workload.fresh_items),
            "cpu_s": pass_time(cpus, workload.fresh_items),
            "item_ms.p50": percentile(walls_ms, 50),
            "item_ms.p90": percentile(walls_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["run_s_quartiles"] = quartiles([sum(w) for w in walls])
        result["raw_run_s"] = median(raws)
        result["passes"] = len(walls)
        result["item_samples"] = len(walls_ms)
        attempted = len(items) * len(walls)
    failures += workload.finish()
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:5]
    return result


if __name__ == "__main__":
    sys.exit(main())
