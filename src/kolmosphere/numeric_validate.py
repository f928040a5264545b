"""Floating-point cross-checks of exact certificates.

Trajectories come from classical fixed-step fourth-order Runge-Kutta.
Conservation of a product integral H = prod_i f_i^(b_i) is measured in log
space, L(t) = sum_i b_i log|f_i(x(t))|, which keeps exponents linear and
tolerates negative surface values; the largest relative deviation of L from
its initial value is the drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .polyring import Poly
from .field_forms import PolyVectorField
from .darboux import DarbouxIntegral

DEFAULT_DOMAIN_FLOOR = 1e-12


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
    """Sampled solution: times[k] = k*h, states[k] is the state row."""

    times: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])


def compile_polys(
    dim: int, polys: Sequence[Poly]
) -> Callable[[Sequence[float]], Tuple[float, ...]]:
    """Fast float evaluator: a point in R^dim gives the tuple of the
    polynomials' values, each summed in the polynomial's own term order."""
    names = ", ".join(f"x{i + 1}" for i in range(dim))
    bodies = "".join(f"{_poly_source(p)}, " for p in polys)
    source = f"def _eval({names}):\n    return ({bodies})\n"
    scope: dict = {}
    exec(source, scope)  # source is generated purely from Poly data
    fn = scope["_eval"]
    return lambda point: fn(*point)


def _poly_source(p: Poly) -> str:
    if p.is_zero():
        return "0.0"
    pieces = []
    for exps, coeff in p:
        factors = [repr(float(coeff))]
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}**{e}")
        pieces.append("*".join(factors))
    return " + ".join(pieces)


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
    state = tuple(float(v) for v in x0)
    if not all(math.isfinite(v) for v in state):
        raise ValueError(f"x0 must be finite, got {state}")
    f = compile_polys(vf.dim, vf.components)
    d = vf.dim
    rows: List[Tuple[float, ...]] = [state]
    half = h / 2.0
    sixth = h / 6.0
    for step in range(steps):
        try:
            k1 = f(state)
            k2 = f(tuple(state[i] + half * k1[i] for i in range(d)))
            k3 = f(tuple(state[i] + half * k2[i] for i in range(d)))
            k4 = f(tuple(state[i] + h * k3[i] for i in range(d)))
            state = tuple(
                state[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                for i in range(d)
            )
        except OverflowError as err:
            raise NonFiniteError(step + 1) from err
        if not all(math.isfinite(v) for v in state):
            raise NonFiniteError(step + 1)
        rows.append(state)
    times = h * np.arange(steps + 1, dtype=np.float64)
    return Trajectory(times=times, states=np.array(rows, dtype=np.float64))


def conservation_report(
    traj: Trajectory,
    integral: DarbouxIntegral,
    floor: float = DEFAULT_DOMAIN_FLOOR,
) -> float:
    """Max relative drift of L(t) = sum_i b_i log|f_i(x(t))| over the
    trajectory: max_t |L(t) - L(0)| / max(1, |L(0)|)."""
    betas = [float(b) for b in integral.exponents]
    surfaces = [s.defining for b, s in zip(betas, integral.surfaces) if b != 0.0]
    values = compile_polys(traj.dim, surfaces)
    betas = [b for b in betas if b != 0.0]

    def log_value(row_values) -> float:
        total = 0.0
        for beta, value in zip(betas, row_values):
            if abs(value) < floor:
                raise DomainViolationError(
                    f"surface value {value!r} within {floor} of zero"
                )
            total += beta * math.log(abs(value))
        return total

    logs = [log_value(v) for v in _finite_rows(values, traj, "surface value")]
    scale = max(1.0, abs(logs[0]))
    return max(abs(log - logs[0]) for log in logs) / scale


def max_abs_drift(traj: Trajectory, poly: Poly, what: str) -> float:
    """max_t |p(x(t)) - p(x(0))|; a value or drift that overflows raises
    ``NonFiniteError(step, what)`` at the first step where it does."""
    ev = compile_polys(traj.dim, [poly])
    values = [value for (value,) in _finite_rows(ev, traj, what)]
    drifts = [abs(value - values[0]) for value in values]
    for step, drift in enumerate(drifts):
        if not math.isfinite(drift):
            raise NonFiniteError(step, what)
    return max(drifts)


def _finite_rows(
    values: Callable[[Sequence[float]], Tuple[float, ...]],
    traj: Trajectory,
    what: str,
) -> Iterator[Tuple[float, ...]]:
    """``values`` at each state row, on Python floats, in step order;
    raises ``NonFiniteError(step, what)`` at the first row where a value
    overflows or is not finite."""
    for step, row in enumerate(traj.states.tolist()):
        try:
            out = values(row)
        except OverflowError as err:
            raise NonFiniteError(step, what) from err
        if not all(map(math.isfinite, out)):
            raise NonFiniteError(step, what)
        yield out


def trajectory_to_csv(traj: Trajectory) -> str:
    """Header t,x1,...,xd; every value with 17 significant digits."""
    header = "t," + ",".join(f"x{i + 1}" for i in range(traj.dim))
    lines = [header]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    return "\n".join(lines) + "\n"
