"""Compare two results files written by record.py.

    python3 bench/compare.py bench/baseline.json results.json

For every workload and metric it prints the base median, the new median and
their ratio.  An end-to-end metric whose median got worse by more than its
bound in BENCHMARK.json is flagged WORSE.  When the spread of either side,
(q3 - q1) / median, is wider than the bound, the comparison is UNRESOLVED
instead, unless every new run is better than every base run.  Per-layer
metrics get their ratio only.  Exits 1 when anything is WORSE, and 2,
comparing nothing, when the two files were recorded with different
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import load_spec


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    change = sign * (new["median"] - base["median"]) / base["median"]
    if max(base["spread"], new["spread"]) > bound:
        if better == "lower":
            all_better = max(new["values"]) < min(base["values"])
        else:
            all_better = min(new["values"]) > max(base["values"])
        return "better (every run)" if all_better else "UNRESOLVED"
    if change > bound:
        return "WORSE"
    return "better" if change < -bound else "same"


def ratio(base: float, new: float) -> str:
    return f"{new / base:.3f}x" if base else ("1.000x" if new == base else "new")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    if base["run_seconds"] != new["run_seconds"]:
        print(f"error: run_seconds differ: {base['run_seconds']} in {args.base}, "
              f"{new['run_seconds']} in {args.new}", file=sys.stderr)
        return 2
    spec = load_spec()
    worse = 0
    print(f"base {base['environment']['commit']}  new {new['environment']['commit']}")
    for workload, new_w in new["workloads"].items():
        base_w = base["workloads"].get(workload)
        if base_w is None:
            print(f"{workload}: not in the base file")
            continue
        print(f"{workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base_w["end_to_end"][name], new_w["end_to_end"][name]
            v = verdict(b, n, metric["better"], metric["bound"])
            worse += v == "WORSE"
            print(f"  {name:<40} base {b['median']:<12.6g} new {n['median']:<12.6g} "
                  f"{ratio(b['median'], n['median']):>9}  {v} (bound {metric['bound']})")
        for metric in spec["per_layer"]:
            name = metric["name"]
            b, n = base_w["per_layer"].get(name), new_w["per_layer"].get(name)
            if not b or not n:
                continue
            print(f"  {name:<40} base {b['median']:<12.6g} new {n['median']:<12.6g} "
                  f"{ratio(b['median'], n['median']):>9}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
