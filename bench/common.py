"""Paths, the child-process environment and small statistics helpers shared
by the benchmark's scripts."""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("certify_small", "cli_fields", "elimination", "rk4_drift")

# Every workload child runs single-threaded: numpy's BLAS pools are pinned
# to one thread, and string hashing is fixed so set and dict orders, and
# with them the traced call counts, repeat from run to run.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def package_present() -> bool:
    return (SRC / "kolmosphere" / "__init__.py").is_file()


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(len(sorted_values) * p / 100))
    return sorted_values[rank - 1]
