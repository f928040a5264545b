"""Floating-point cross-checks of exact certificates.

Trajectories come from classical fixed-step fourth-order Runge-Kutta.
Conservation of a product integral H = prod_i f_i^(b_i) is measured in log
space, L(t) = sum_i b_i log|f_i(x(t))|, which keeps exponents linear and
tolerates negative surface values; the largest relative deviation of L from
its initial value is the drift.

Each call runs one generated Python function: ``integrate_rk4`` the
whole stepping loop, with the four stages unrolled, and
``conservation_report`` and ``max_abs_drift`` one sweep over the state rows
with its checks.  The source text is written from the polynomials alone;
step size, start point, exponents and floor are arguments.  Each distinct
source is compiled once and the function kept in a bounded cache, so a
field run from many start points and step sizes is compiled once, and so
is each integral's sweep.  Every value lives in a local variable, so the
loop pays no call or tuple per point.  ``_poly_source`` writes each
polynomial as one float expression in its own term order with ``**`` for
powers, the same text ``compile_polys`` evaluates, so every float operation
and its order is that of a point-by-point evaluation: results match it bit
for bit, errors and their step indices included.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .polyring import Poly
from .field_forms import PolyVectorField
from .darboux import DarbouxIntegral

DEFAULT_DOMAIN_FLOOR = 1e-12

# Most steps one integration takes: its rows (~150 B each) stay near 300 MB.
MAX_STEPS = 2_000_000

# Distinct generated functions kept compiled.  One field's stepper and its
# integrals' sweeps take a few entries; a full sweep of the criteria 7/9
# family and the fixture takes about thirty.
_COMPILED_FUNCTIONS = 128


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
    when one of them is first read."""

    h: float
    rows: List[Tuple[float, ...]]

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


def compile_polys(
    dim: int, polys: Sequence[Poly]
) -> Callable[[Sequence[float]], Tuple[float, ...]]:
    """Fast float evaluator: a point in R^dim gives the tuple of the
    polynomials' values, each summed in the polynomial's own term order."""
    x = _names("x", dim)
    values = "".join(f"{_poly_source(p, x)}, " for p in polys)
    fn = _compile(x, [f"return ({values})"])
    return lambda point: fn(*point)


def _names(prefix: str, count: int) -> List[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _poly_source(p: Poly, names: Sequence[str]) -> str:
    """``p`` as a float expression in the variables ``names``, one product
    per term in the polynomial's own term order."""
    if p.is_zero():
        return "0.0"
    pieces = []
    for exps, coeff in p:
        factors = [repr(_double(coeff, "the coefficient", p, exps))]
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}**{e}")
        pieces.append("*".join(factors))
    return " + ".join(pieces)


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
    return _define(f"def _fn({', '.join(args)}):\n" + "".join(
        f"    {line}\n" for line in body
    ))


@functools.lru_cache(maxsize=_COMPILED_FUNCTIONS)
def _define(source: str) -> Callable:
    """The function ``source`` defines, compiled once per distinct text:
    the text is all a generated function depends on."""
    scope = {
        "isfinite": math.isfinite,
        "log": math.log,
        "NonFiniteError": NonFiniteError,
        "DomainViolationError": DomainViolationError,
    }
    exec(source, scope)  # source is generated purely from Poly data
    return scope["_fn"]


def _guarded(body: Sequence[str], checked: Sequence[str], error: str) -> List[str]:
    """``body`` such that an OverflowError in it, or a non-finite value
    left in one of the ``checked`` names, raises ``error``."""
    lines = ["try:", *(f"    {line}" for line in body or ["pass"])]
    lines += ["except OverflowError as err:", f"    raise {error} from err"]
    if checked:
        finite = " and ".join(f"isfinite({name})" for name in checked)
        lines += [f"if not ({finite}):", f"    raise {error}"]
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
    x = _names("x", vf.dim)
    y = _names("y", vf.dim)
    k1, k2, k3, k4 = (_names(f"k{s}_", vf.dim) for s in "1234")
    # Each stage evaluates the field into k, then moves y ahead of x by k.
    stages = ((k1, x, "half"), (k2, y, "half"), (k3, y, "h"), (k4, y, None))
    body: List[str] = []
    for k, at, ahead in stages:
        body += [f"{ki} = {_poly_source(p, at)}" for ki, p in zip(k, vf.components)]
        if ahead is not None:
            body += [f"{yi} = {xi} + {ahead} * {ki}" for xi, yi, ki in zip(x, y, k)]
    body += [
        f"{xi} = {xi} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {e})"
        for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
    ]
    row = f"({', '.join(x)},)"
    stepper = _compile(["h", "steps", *x], [
        "half = h / 2.0",
        "sixth = h / 6.0",
        f"rows = [{row}]",
        "for step in range(1, steps + 1):",
        *(f"    {line}" for line in _guarded(body, x, "NonFiniteError(step)")),
        f"    rows.append({row})",
        "return rows",
    ])
    return Trajectory(h, stepper(h, steps, *state))


def _row_sweep(
    dim: int, polys: Sequence[Poly], level: Sequence[str], args: Sequence[str]
) -> Callable:
    """Compile ``sweep(rows, what, *args)``.  Over the state rows in step
    order it binds the polynomials' values to v1..vm, raises
    ``NonFiniteError(step, what)`` at the first row where one overflows or
    is not finite, and runs the ``level`` lines, which set ``level`` from
    them.  It returns the level at row 0, the largest |level - level at
    row 0| (the first maximal one, as ``max`` keeps it) and its step."""
    x = _names("x", dim)
    v = _names("v", len(polys))
    values = [f"{vj} = {_poly_source(p, x)}" for vj, p in zip(v, polys)]
    return _compile(["rows", "what", *args], [
        f"for step, ({', '.join(x)},) in enumerate(rows):",
        *(f"    {line}" for line in _guarded(values, v, "NonFiniteError(step, what)")),
        *(f"    {line}" for line in level),
        "    if step:",
        "        gap = abs(level - first)",
        "        if gap > worst:",
        "            worst = gap",
        "            at = step",
        "    else:",
        "        first = level",
        "        worst = abs(level - first)",
        "        at = step",
        "return first, worst, at",
    ])


def conservation_report(
    traj: Trajectory,
    integral: DarbouxIntegral,
    floor: float = DEFAULT_DOMAIN_FLOOR,
) -> float:
    """Max relative drift of L(t) = sum_i b_i log|f_i(x(t))| over the
    trajectory: max_t |L(t) - L(0)| / max(1, |L(0)|)."""
    kept = [(beta, s.defining) for b, s in zip(integral.exponents, integral.surfaces)
            if (beta := _double(b, "the exponent", s.defining)) != 0.0]
    b = _names("b", len(kept))
    level = ["level = 0.0"]
    for aj, bj, vj in zip(_names("a", len(kept)), b, _names("v", len(kept))):
        level += [
            f"{aj} = abs({vj})",
            f"if {aj} < floor:",
            f"    raise DomainViolationError("
            f"f'surface value {{{vj}!r}} within {{floor}} of zero')",
            f"level += {bj} * log({aj})",
        ]
    sweep = _row_sweep(traj.dim, [s for _, s in kept], level, ["floor", *b])
    betas = (beta for beta, _ in kept)
    first, worst, _ = sweep(traj.rows, "surface value", floor, *betas)
    return worst / max(1.0, abs(first))


def drift_sweep(
    dim: int, poly: Poly, what: str
) -> Callable[[Trajectory], float]:
    """``max_abs_drift`` of ``poly`` over a trajectory on R^dim, built
    before there is one: a coefficient past the double range is refused
    here, not after the integration."""
    sweep = _row_sweep(dim, [poly], ["level = v1"], [])

    def drift(traj: Trajectory) -> float:
        _, worst, at = sweep(traj.rows, what)
        # Values are checked at every row first; a drift of two finite
        # values is never NaN, so the first infinite one is where the max
        # became inf.
        if not math.isfinite(worst):
            raise NonFiniteError(at, what)
        return worst

    return drift


def max_abs_drift(traj: Trajectory, poly: Poly, what: str) -> float:
    """max_t |p(x(t)) - p(x(0))|; a value or drift that overflows raises
    ``NonFiniteError(step, what)`` at the first step where it does."""
    return drift_sweep(traj.dim, poly, what)(traj)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Header t,x1,...,xd; every value with 17 significant digits."""
    lines = [",".join(["t", *_names("x", traj.dim)])]
    for k, row in enumerate(traj.rows):
        lines.append(",".join(f"{v:.17g}" for v in (traj.h * k, *row)))
    return "\n".join(lines) + "\n"
