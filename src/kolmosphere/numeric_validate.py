"""Floating-point cross-checks of exact certificates.

Trajectories come from classical fixed-step fourth-order Runge-Kutta.
Conservation of a product integral H = prod_i f_i^(b_i) is measured in log
space, L(t) = sum_i b_i log|f_i(x(t))|, which keeps exponents linear and
tolerates negative surface values; the largest relative deviation of L from
its initial value is the drift.

There is one entry for each float job, and each runs one generated
Python function: ``integrate_rk4`` steps a field, the whole loop with the
four stages unrolled; ``conservation_report`` gives the log drift of an
integral and ``drift_sweep`` the drift of a watched value, each one sweep
over the state rows with its checks.  A polynomial in another number of
variables than the rows is a ``DimensionMismatchError`` before its sweep
runs.  The source text is written from the polynomials alone;
step size, start point, exponents and floor are arguments.  So each
function is cached on ``_key``, the polynomials' terms in their own order,
and written only on a miss: a field run from many start points and step
sizes is written and compiled once, and so is each integral's sweep.
Every value lives in a local variable, so the loop pays no call or tuple
per point.  ``_values`` writes each polynomial in its own term order, so
every float operation and its order is that of a point-by-point
evaluation of float(c) * x**e * ... summed from the left: results match
it bit for bit, errors and their step indices included.

A sweep reads two rows when the stepper held fixed every coordinate its
polynomials read.  ``integrate_rk4`` records on the trajectory, as
``Trajectory.held``, the coordinates whose component is zero; each is
x0 + 0.0 in every row from row 1 on (see below).  In the criteria 7/9
family these are x3 .. x(n+1), which are themselves first integrals.
Such a sweep is handed ``rows[:2]``, and that is exact: every later row
repeats row 1's values, levels and gaps, row 1 differs from row 0 at
most by the sign of a zero, and the sweep keeps the first maximal gap.
So the drift, its step, and each error with its step and message (a
-0.0 at row 0 included) are those of the sweep over all the rows.

The text does as little Python work as that allows.  Each of these
rewrites is exact in IEEE arithmetic:

- a coefficient 1.0 is not written, since 1.0*x is x, and a negative sign
  moves out of its term, since (-u)*v is -(u*v) and a + -b is a - b:
  ``a - 3.0*x1`` for ``a + -3.0*x1``, and ``-x1**3.0*x2`` for a leading
  ``-1.0*x1**3*x2``;
- an exponent is written as a float, ``x1**3.0``: the same C ``pow`` call
  on the same doubles that ``x1**3`` makes after converting the int;
- a power that one RK4 stage, or one sweep row, reads more than once is
  computed once into a local;
- a coordinate whose component is zero has k = 0.0 in every stage, so it
  gets no k, y, update or finiteness line.  It becomes x + 0.0 (+0.0 from
  -0.0) and then stays, so the later stages read it in place of y.  Only
  the first stage of the first step reads the start value, and -0.0 there
  can change the sign of a zero that a product makes; so a coordinate that
  some component reads is set to x + 0.0 after the first stage of every
  step, and any other once, before the loop;
- the finiteness test is ``(x1 - x1) + ... != 0.0``: x - x is 0.0 for
  every finite x and NaN for inf and NaN;
- the sweep takes |v| as ``v if v >= 0.0 else -v``, which keeps -0.0; that
  compares with the floor as 0.0 does;
- a sum or product of more than ``_CHAIN`` operands goes on from the left
  in running assignments, since the compiler recurses once per operand.

Off limits, because each can change a bit: ``x*x`` for ``x**2`` (``pow``
is not always correctly rounded, so the two can differ in the last bit);
reordering the factors of a term or the terms of a sum; and a cache keyed
on the polynomials as values: ``Poly.__eq__`` and ``__hash__`` ignore term
order, so such a key could return a function written in another term order.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, FrozenSet, List, Sequence, Tuple

from .polyring import DimensionMismatchError, Poly

if TYPE_CHECKING:
    from .darboux import DarbouxIntegral
    from .field_forms import PolyVectorField

DEFAULT_DOMAIN_FLOOR = 1e-12

# Most steps one integration takes: its rows (~150 B each) stay near 300 MB.
MAX_STEPS = 2_000_000

# Generated functions kept compiled in each cache, steppers and sweeps.  A
# full sweep of the criteria 7/9 family and the fixture takes about thirty.
_COMPILED_FUNCTIONS = 128

# Most operands one generated line chains with + or *.  The compiler
# recurses once per operand and gives up near 3000, so a longer sum or
# product goes on in running assignments.
_CHAIN = 256


class NonFiniteError(RuntimeError):
    """Integration produced an overflow or NaN, in the state or in a value
    watched along the trajectory."""

    def __init__(self, step_index: int, what: str = "state"):
        self.step_index = step_index
        super().__init__(f"{what} became non-finite at step {step_index}")


class DomainViolationError(RuntimeError):
    """A surface value came too close to zero for a stable logarithm."""


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step solution: ``rows[k]`` is the state after k steps of size
    ``h``, the tuple of floats the stepping loop made, at time ``h * k``.
    ``times`` and ``states`` (float64 ndarrays) and ``dim`` are derived on
    every read; the two arrays are the only use of numpy, which is imported
    when one of them is first read.

    ``held`` holds the (0-based) coordinates whose component is zero, which
    the stepper held fixed: each is x0 + 0.0 in every row from row 1 on.
    Only ``integrate_rk4`` sets it; it is not a constructor argument and
    takes no part in ``==``, so a trajectory built from rows holds nothing
    and is swept in full.  A sweep whose polynomials read held coordinates
    only reads ``rows[:2]``: every later row repeats row 1 in each value
    and gap, row 1 differs from row 0 at most in the sign of a zero, and
    the sweep keeps the first maximal gap, so its result and each error
    with its step and message are those of the full sweep."""

    h: float
    rows: List[Tuple[float, ...]]
    held: FrozenSet[int] = field(
        default=frozenset(), init=False, compare=False, repr=False)

    @property
    def times(self):
        import numpy as np

        return self.h * np.arange(len(self.rows), dtype=np.float64)

    @property
    def states(self):
        import numpy as np

        return np.array(self.rows, dtype=np.float64)

    @property
    def dim(self) -> int:
        return len(self.rows[0])


def _same_ring(poly: Poly, traj: Trajectory) -> None:
    """A polynomial is read at the trajectory's coordinates, so it must
    live on the same R^dim.  The message names the dimensions only: the
    polynomial may be too long to print."""
    if poly.dim != traj.dim:
        raise DimensionMismatchError(
            f"polynomial over {poly.dim} variables, trajectory on R^{traj.dim}"
        )


def _key(polys: Sequence[Poly]) -> Tuple:
    """Each polynomial's terms in their own order, which ``==`` ignores."""
    return tuple(tuple(p.terms.items()) for p in polys)


def _names(prefix: str, count: int) -> List[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _chain(target: str, first: str, rest: Sequence[str]) -> Tuple[List[str], str]:
    """``first`` followed by the operations ``rest`` (such as ``+ t`` or
    ``* x1``), applied from the left: an expression of at most ``_CHAIN``
    of them, and the lines before it that set ``target`` to the value of
    the operations that do not fit."""
    lines = []
    while len(rest) > _CHAIN:
        lines.append(" ".join([f"{target} = {first}", *rest[:_CHAIN]]))
        first, rest = target, rest[_CHAIN:]
    return lines, " ".join([first, *rest])


def _power(name: str, e: int, exps: Tuple[int, ...], owner: Poly) -> str:
    """``name`` to the power ``e`` with a float exponent: the same C ``pow``
    call that an int exponent makes after converting it.  An exponent past
    the double range is a ValueError naming ``owner`` and the variable, the
    first in the monomial ``exps`` with that exponent: the variables are
    written in order, so an earlier one would have raised first."""
    if e == 1:
        return name
    try:
        return f"{name}**{float(e)!r}"
    except OverflowError as err:
        var = f"x{exps.index(e) + 1}"
        try:
            named = f"{var} in {owner}"
        except ValueError:  # past sys.get_int_max_str_digits()
            named = f"{var}, in a polynomial too long to print,"
        raise ValueError(f"the exponent of {named} is past the double range") from err


def _values(
    polys: Sequence[Poly], names: Sequence[str], targets: Sequence[str], local: str
) -> List[str]:
    """Lines that set each of ``targets`` in turn to its polynomial's value
    at the variables ``names``.  A power that several terms read is computed
    once, first, into a local named from ``local``."""
    written = [[(_double(c, "the coefficient", p, exps),
                 [_power(n, e, exps, p) for n, e in zip(names, exps) if e])
                for exps, c in p]
               for p in polys]
    uses = Counter(f for terms in written for _, factors in terms for f in factors
                   if "**" in f)
    powers = {f: f"{local}{j}" for j, f in enumerate(
        (f for f, count in uses.items() if count > 1), 1)}
    lines = [f"{name} = {f}" for f, name in powers.items()]
    for target, terms in zip(targets, written):
        pieces = []
        for j, (c, factors) in enumerate(terms):
            factors = [powers.get(f, f) for f in factors]
            if abs(c) != 1.0 or not factors:
                factors.insert(0, repr(abs(c)))
            text = "*".join(factors)
            if len(factors) > _CHAIN:
                text = f"{target}_{j}"
                head, product = _chain(text, factors[0], [f"* {f}" for f in factors[1:]])
                lines += [*head, f"{text} = {product}"]
            pieces.append((math.copysign(1.0, c) < 0.0, text))
        if not pieces:
            lines.append(f"{target} = 0.0")
            continue
        (negative, first), rest = pieces[0], pieces[1:]
        head, total = _chain(target, "-" * negative + first,
                             [f"{'-' if neg else '+'} {text}" for neg, text in rest])
        lines += [*head, f"{target} = {total}"]
    return lines


def _double(value, what: str, owner: Poly, term: Tuple[int, ...] = ()) -> float:
    """``value``, the ``what`` of ``owner``, as a float or a ValueError; one
    too long to print is named by ``term``, its monomial in ``owner``."""
    try:
        return float(value)
    except OverflowError as err:
        try:
            named = f"{what} {value} of {owner}"
        except ValueError:  # past sys.get_int_max_str_digits()
            named = f"{what} of {Poly(owner.dim, {term: 1})}" if term else what
            named += ", too long to print,"
        raise ValueError(f"{named} is past the double range") from err


def _compile(args: Sequence[str], body: Sequence[str]) -> Callable:
    """The function ``def _fn(*args)`` with the generated ``body`` lines."""
    scope = {"log": math.log, "NonFiniteError": NonFiniteError,
             "DomainViolationError": DomainViolationError}
    source = f"def _fn({', '.join(args)}):\n    " + "\n    ".join(body) + "\n"
    exec(source, scope)  # source is generated purely from Poly data
    return scope["_fn"]


def _guarded(body: Sequence[str], checked: Sequence[str], error: str) -> List[str]:
    """``body`` such that an OverflowError in it, or a non-finite value
    left in one of the ``checked`` names, raises ``error``: x - x is 0.0
    for every finite x and NaN otherwise."""
    lines = ["try:", *(f"    {line}" for line in body or ["pass"])]
    lines += ["except OverflowError as err:", f"    raise {error} from err"]
    if checked:
        spreads = [f"({name} - {name})" for name in checked]
        head, total = _chain("spread", spreads[0], [f"+ {s}" for s in spreads[1:]])
        lines += [*head, f"if {total} != 0.0:", f"    raise {error}"]
    return lines


def integrate_rk4(
    vf: PolyVectorField,
    x0: Sequence[float],
    h: float,
    steps: int,
) -> Trajectory:
    """Classical RK4 with a fixed step; no adaptivity, so reruns are
    bit-reproducible."""
    if len(x0) != vf.dim:
        raise ValueError(f"x0 has {len(x0)} coordinates, field on R^{vf.dim}")
    if not (math.isfinite(h) and h > 0) or steps < 1:
        raise ValueError("need a finite h > 0 and steps >= 1")
    if steps > sys.float_info.max or not math.isfinite(h * steps):
        raise ValueError(f"need a finite final time h * steps, got {h!r} * {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"need steps <= {MAX_STEPS}, got {steps}")
    state = tuple(float(v) for v in x0)
    if not all(math.isfinite(v) for v in state):
        raise ValueError(f"x0 must be finite, got {state}")
    stepper, held = _stepper(vf.dim, _key(vf.components))
    traj = Trajectory(h, stepper(h, steps, *state))
    object.__setattr__(traj, "held", held)  # frozen, and not an argument
    return traj


@functools.lru_cache(maxsize=_COMPILED_FUNCTIONS)
def _stepper(dim: int, key: Tuple) -> Tuple[Callable, FrozenSet[int]]:
    """Compile ``stepper(h, steps, *x0)``, the RK4 loop of the ``key``
    field, and give it with the coordinates it holds fixed."""
    components = [Poly._trusted(dim, dict(terms)) for terms in key]
    x = _names("x", dim)
    moving = [i for i, p in enumerate(components) if not p.is_zero()]
    polys = [components[i] for i in moving]
    # A zero component's coordinate becomes x + 0.0 and stays (see the
    # module docstring): after the first stage of every step if some
    # component reads it, else once before the loop.
    read = {i for p in polys for exps, _ in p for i, e in enumerate(exps) if e}
    still = [i for i, p in enumerate(components) if p.is_zero()]
    y = list(x)
    for i in moving:
        y[i] = f"y{i + 1}"
    body: List[str] = []
    stages = ((x, "half"), (y, "half"), (y, "h"), (y, None))
    for s, (at, ahead) in enumerate(stages, 1):
        k = [f"k{s}_{i + 1}" for i in moving]
        body += _values(polys, at, k, f"p{s}_")
        if s == 1:
            body += [f"{x[i]} = {x[i]} + 0.0" for i in still if i in read]
        if ahead is not None:
            body += [f"{y[i]} = {x[i]} + {ahead} * {ki}" for i, ki in zip(moving, k)]
    body += [
        f"{x[i]} = {x[i]} + sixth * (k1_{i + 1} + 2.0 * k2_{i + 1} + 2.0 * k3_{i + 1}"
        f" + k4_{i + 1})"
        for i in moving
    ]
    row = f"({', '.join(x)},)"
    return _compile(["h", "steps", *x], [
        "half = h / 2.0",
        "sixth = h / 6.0",
        f"rows = [{row}]",
        "append = rows.append",
        *(f"{x[i]} = {x[i]} + 0.0" for i in still if i not in read),
        "for step in range(1, steps + 1):",
        *(f"    {line}" for line in _guarded(body, [x[i] for i in moving],
                                              "NonFiniteError(step)")),
        f"    append({row})",
        "return rows",
    ]), frozenset(still)


@functools.lru_cache(maxsize=_COMPILED_FUNCTIONS)
def _row_sweep(
    dim: int, key: Tuple, level: Tuple[str, ...], args: Tuple[str, ...]
) -> Tuple[Callable, FrozenSet[int]]:
    """Compile ``sweep(rows, what, *args)``, and give it with the
    coordinates the ``key`` polynomials read.  Over the state rows in step
    order it binds the values of the ``key`` polynomials to v1..vm, raises
    ``NonFiniteError(step, what)`` at the first row where one overflows or
    is not finite, and runs the ``level`` lines, which set ``level`` from
    them.  It returns the level at row 0, the largest |level - level at
    row 0| (the first maximal one, as ``max`` keeps it) and its step."""
    x = _names("x", dim)
    v = _names("v", len(key))
    values = _values([Poly._trusted(dim, dict(t)) for t in key], x, v, "p")
    reads = frozenset(i for terms in key for exps, _ in terms
                      for i, e in enumerate(exps) if e)
    return _compile(["rows", "what", *args], [
        f"for step, ({', '.join(x)},) in enumerate(rows):",
        *(f"    {line}" for line in _guarded(values, v, "NonFiniteError(step, what)")),
        *(f"    {line}" for line in level),
        "    if step:",
        "        gap = level - first",
        "        gap = gap if gap >= 0.0 else -gap",
        "        if gap > worst:",
        "            worst = gap",
        "            at = step",
        "    else:",
        "        first = level",
        "        worst = abs(level - first)",
        "        at = step",
        "return first, worst, at",
    ]), reads


def _swept(traj: Trajectory, reads: FrozenSet[int]) -> List[Tuple[float, ...]]:
    """The rows that a sweep reading the coordinates ``reads`` must visit:
    ``rows[:2]`` when the stepper held every one of them (see
    ``Trajectory``), else all."""
    return traj.rows[:2] if traj.held and reads <= traj.held else traj.rows


def conservation_report(
    traj: Trajectory,
    integral: DarbouxIntegral,
    floor: float = DEFAULT_DOMAIN_FLOOR,
) -> float:
    """Max relative drift of L(t) = sum_i b_i log|f_i(x(t))| over the
    trajectory: max_t |L(t) - L(0)| / max(1, |L(0)|).  A surface value
    within ``floor`` of zero raises ``DomainViolationError``; a floor that
    is not a positive number (0.0, negative or NaN) would let a zero reach
    ``log``, and is refused with a ValueError before any work, and so is a
    surface on another R^dim than the trajectory."""
    if not floor > 0.0:
        raise ValueError(f"evaluation floor must be positive, got {floor!r}")
    for surface in integral.surfaces:
        _same_ring(surface.defining, traj)
    kept = [(beta, s.defining) for b, s in zip(integral.exponents, integral.surfaces)
            if (beta := _double(b, "the exponent", s.defining)) != 0.0]
    b = _names("b", len(kept))
    level, total = [], "0.0"
    for aj, bj, vj in zip(_names("a", len(kept)), b, _names("v", len(kept))):
        level += [
            f"{aj} = {vj} if {vj} >= 0.0 else -{vj}",
            f"if {aj} < floor:",
            f"    raise DomainViolationError("
            f"f'surface value {{{vj}!r}} within {{floor}} of zero')",
            f"level = {total} + {bj} * log({aj})",
        ]
        total = "level"
    sweep, reads = _row_sweep(traj.dim, _key([s for _, s in kept]),
                              tuple(level) or ("level = 0.0",), ("floor", *b))
    betas = (beta for beta, _ in kept)
    first, worst, _ = sweep(_swept(traj, reads), "surface value", floor, *betas)
    return worst / max(1.0, abs(first))


def drift_sweep(poly: Poly, what: str) -> Callable[[Trajectory], float]:
    """max_t |p(x(t)) - p(x(0))| over a trajectory on ``poly``'s R^dim,
    built before there is one: a coefficient past the double range is
    refused here, not after the integration.  A value or drift that
    overflows raises ``NonFiniteError(step, what)`` at the first step
    where it does."""
    sweep, reads = _row_sweep(poly.dim, _key([poly]), ("level = v1",), ())

    def drift(traj: Trajectory) -> float:
        _same_ring(poly, traj)
        _, worst, at = sweep(_swept(traj, reads), what)
        # Values are checked at every row first; a drift of two finite
        # values is never NaN, so the first infinite one is where the max
        # became inf.
        if not math.isfinite(worst):
            raise NonFiniteError(at, what)
        return worst

    return drift


def trajectory_to_csv(traj: Trajectory) -> str:
    """Header t,x1,...,xd; every value with 17 significant digits."""
    h = traj.h
    line = ",".join(["%.17g"] * (traj.dim + 1))
    lines = [",".join(["t", *_names("x", traj.dim)])]
    lines += [line % (h * k, *row) for k, row in enumerate(traj.rows)]
    return "\n".join(lines) + "\n"
