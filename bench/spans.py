"""Trace spans recorded from outside the package.

``instrument`` wraps every public function of each layer module, the
``Poly`` methods that build, add, multiply and print polynomials, and the
``RationalMatrix`` constructors, in a wrapper that records one span per
call: name, parent span, start and end.  It then rebinds every reference
the package holds to the original: the module attribute, each
``from .x import y`` alias in the other modules and the package namespace,
and the methods on the classes.  Nothing in
the package's source changes, and ``uninstrument`` puts the originals back.

Spans live in flat in-memory arrays (the span id is the index) and are
written out when the run ends.  A span's self time is its duration minus the
time its child spans cover; since calls nest on one thread, that is the sum
of its direct children's durations.

A wrapper's own bookkeeping costs time too: part of it falls inside the span
it records and part outside, where it counts as the caller's self time.
``wrapper_cost`` times both on an empty function, and ``self_times``
subtracts them: the inside cost from every span, the outside cost once per
direct child from its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

PACKAGE = "kolmosphere"
LAYERS = (
    "polyring",
    "exactla",
    "field_forms",
    "invariance",
    "darboux",
    "hamiltonian",
    "numeric_validate",
    "suites",
    "cli",
)

# Methods of the two data types traced as spans of their layer; operator
# aliases share one name.  Constructors carry the class name.
CLASS_METHODS = {
    ("polyring", "Poly"): {
        "__init__": "Poly",
        "__add__": "add",
        "__radd__": "add",
        "__sub__": "add",
        "__rsub__": "add",
        "__neg__": "add",
        "__mul__": "mul",
        "__rmul__": "mul",
        "__str__": "str",
    },
    ("exactla", "RationalMatrix"): {
        "__init__": "RationalMatrix",
        "from_rows": "from_rows",
        "transpose": "transpose",
    },
}


class Recorder:
    """Spans of one traced pass, plus work counters keyed by metric name."""

    def __init__(self):
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.active = [True]
        self.counts: Counter = Counter()

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def clear(self) -> None:
        for column in (self.parent, self.name, self.start, self.end):
            del column[:]
        self.counts.clear()

    def arrays(self):
        return (
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.name, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def save(self, path) -> None:
        parent, name, start, end = self.arrays()
        np.savez_compressed(
            path, parent=parent, name=name, start_ns=start, end_ns=end,
            names=np.array(self.names),
        )


Count = Callable[[Counter, tuple, object, Optional[BaseException]], None]


def wrap(rec: Recorder, name: str, fn, count: Optional[Count] = None):
    code = rec.code(name)
    parent, names, start, end = rec.parent, rec.name, rec.start, rec.end
    stack, active = rec.stack, rec.active
    counts = rec.counts
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not active[0]:
            return fn(*args, **kwargs)
        span = len(start)
        parent.append(stack[-1])
        names.append(code)
        end.append(0)
        stack.append(span)
        start.append(clock())
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            error = err
            raise
        finally:
            end[span] = clock()
            stack.pop()
            if count is not None:
                count(counts, args, result, error)

    return traced


# ----- work counters -----------------------------------------------------------


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


def _count_mul(counts, args, result, error):
    counts["polyring.mul.term_pairs"] += _terms(args[0]) * _terms(args[1])


def _count_divide(counts, args, result, error):
    counts["polyring.divide_exact.dividend_terms"] += len(args[0].terms)
    if result is not None:
        counts["polyring.divide_exact.exact"] += 1


def _count_parse(counts, args, result, error):
    counts["polyring.parse.chars"] += len(args[0])


def _count_nullspace(counts, args, result, error):
    counts["exactla.nullspace.cells"] += args[0].rows * args[0].cols


def _count_rk4(counts, args, result, error):
    if result is not None:
        counts["numeric_validate.integrate_rk4.steps"] += len(result.times) - 1


def _count_report(counts, args, result, error):
    counts["numeric_validate.conservation_report.rows"] += len(args[0].states)
    if type(error).__name__ == "DomainViolationError":
        counts["numeric_validate.domain_exits"] += 1


COUNTERS: Dict[str, Count] = {
    "polyring.mul": _count_mul,
    "polyring.divide_exact": _count_divide,
    "polyring.parse": _count_parse,
    "exactla.nullspace": _count_nullspace,
    "numeric_validate.integrate_rk4": _count_rk4,
    "numeric_validate.conservation_report": _count_report,
}

# Every work count ``summarize`` reports, 0 when nothing was counted.
COUNT_METRICS = (
    "polyring.mul.term_pairs",
    "polyring.divide_exact.dividend_terms",
    "polyring.parse.chars",
    "exactla.nullspace.cells",
    "numeric_validate.integrate_rk4.steps",
    "numeric_validate.conservation_report.rows",
    "numeric_validate.domain_exits",
)


# ----- installing and removing the wrappers -----------------------------------


def _package_namespaces():
    """Every module of the package and every class defined in one."""
    spaces = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        spaces.append(mod)
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod_name:
                spaces.append(obj)
    return spaces


def _rebind(replace: Dict[int, object]) -> None:
    for space in _package_namespaces():
        for attr, obj in list(vars(space).items()):
            new = replace.get(id(obj))
            if new is not None:
                setattr(space, attr, new)


def instrument(rec: Recorder) -> Dict[int, object]:
    """Wrap and rebind; returns the map that ``uninstrument`` takes."""
    originals: Dict[int, object] = {}
    replace: Dict[int, object] = {}

    def add(obj, name):
        fn = obj.__func__ if isinstance(obj, classmethod) else obj
        new = wrap(rec, name, fn, COUNTERS.get(name))
        if isinstance(obj, classmethod):
            new = classmethod(new)
        originals[id(obj)] = obj
        replace[id(obj)] = new

    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
            ):
                add(obj, f"{layer}.{attr}")
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
        for method, short in methods.items():
            obj = vars(cls)[method]
            if id(obj) not in replace:
                add(obj, f"{layer}.{short}")
    _rebind(replace)
    return {id(replace[key]): originals[key] for key in replace}


def uninstrument(undo: Dict[int, object]) -> None:
    _rebind(undo)


# ----- wrapper cost --------------------------------------------------------------


class _Stub:
    """Stands in for every argument and result a work counter looks at."""

    terms = ()
    rows = cols = 1
    times = (0.0,)
    states = ()

    def __len__(self):
        return 0


class WrapperCost:
    """Nanoseconds a wrapper adds to each call: ``inside`` its own span, and
    ``outside`` it, per span name (counted functions pay for their counter
    there too; the key None is the plain wrapper)."""

    def __init__(self, inside: float, outside: Dict[Optional[str], float]):
        self.inside = inside
        self.outside = outside

    def outside_of(self, name: str) -> float:
        return self.outside.get(name, self.outside[None])

    def scaled(self, factor: float) -> "WrapperCost":
        return WrapperCost(self.inside * factor,
                           {key: cost * factor for key, cost in self.outside.items()})


def _per_call_ns(fn, args, calls: int) -> float:
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(calls):
        fn(*args)
    return (clock() - t0) / calls


def _loop_ns(calls: int) -> float:
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(calls):
        pass
    return (clock() - t0) / calls


def wrapper_cost(calls: int = 3000, repeats: int = 7) -> WrapperCost:
    """Times the wrapper around an empty function.  Each repeat times the
    plain and the wrapped calls back to back; every figure is the median over
    the repeats of those differences."""
    stub = _Stub()
    args = (stub, stub)

    def empty(*_):
        return stub

    keys = (None,) + tuple(COUNTERS)
    recs = {key: Recorder() for key in keys}
    traced = {key: wrap(recs[key], "calibrate", empty, COUNTERS.get(key)) for key in keys}
    inside = []
    added: Dict[Optional[str], list] = {key: [] for key in keys}
    for _ in range(repeats + 1):
        loop = _loop_ns(calls)
        plain = _per_call_ns(empty, args, calls)
        for key in keys:
            recs[key].clear()
            added[key].append(_per_call_ns(traced[key], args, calls) - plain)
        _, _, start, end = recs[None].arrays()
        # The span holds the call of the empty function itself, which is
        # program work, not overhead.
        inside.append(float(np.median(end - start)) - (plain - loop))

    def median(values):
        return max(0.0, float(np.median(values[1:])))  # round 0 warms up

    inside_ns = median(inside)
    return WrapperCost(inside_ns, {key: max(0.0, median(added[key]) - inside_ns)
                                   for key in keys})


# ----- self time -----------------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray,
               inside: float = 0.0, outside: Optional[np.ndarray] = None) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.
    With wrapper costs, also minus ``inside`` and minus the ``outside`` cost
    of each direct child (``outside`` is indexed by span); never below 0."""
    duration = end - start
    covered = np.zeros(len(duration), dtype=np.float64)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    if outside is not None:
        np.add.at(covered, parent[nested], outside[nested])
    return np.maximum(duration - covered - inside, 0.0)


def summarize(rec: Recorder, scale: float = 1.0,
              cost: Optional[WrapperCost] = None) -> Dict[str, float]:
    """Per-function calls and self milliseconds, per-layer self milliseconds
    and shares, and the work counters of the recorded pass.  Self times are
    corrected by ``cost`` when given, then multiplied by ``scale``."""
    parent, name, start, end = rec.arrays()
    if cost is None:
        own = self_times(parent, start, end)
    else:
        per_name = np.array([cost.outside_of(n) for n in rec.names], dtype=np.float64)
        own = self_times(parent, start, end, cost.inside, per_name[name])
    own = own * scale
    out: Dict[str, float] = {}
    width = len(rec.names)
    calls = np.bincount(name, minlength=width)
    self_ns = np.bincount(name, weights=own, minlength=width)
    layer_ns: Counter = Counter()
    for code, fn_name in enumerate(rec.names):
        out[f"{fn_name}.calls"] = int(calls[code])
        out[f"{fn_name}.self_ms"] = float(self_ns[code]) / 1e6
        layer_ns[fn_name.split(".")[0]] += float(self_ns[code])
    total_ns = float(own.sum())
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = layer_ns[layer] / 1e6
        out[f"layer.{layer}.self_share"] = (
            layer_ns[layer] / total_ns if total_ns else 0.0
        )
    out["trace.spans"] = int(len(start))
    out.update(dict.fromkeys(COUNT_METRICS, 0))
    out.update(rec.counts)
    exact = out.pop("polyring.divide_exact.exact", 0)
    divisions = out.get("polyring.divide_exact.calls", 0)
    out["polyring.divide_exact.exact_share"] = exact / divisions if divisions else 0.0
    return out
