"""Recurrences for the noncentral beta CDF over the shape parameters.

Three families, each exposed only in its numerically stable direction:

* first-order inhomogeneous shifts (exact relations, any direction, with a
  stability warning when a chain in that direction would lose digits),
* homogeneous three-term recurrences over p and over q whose coefficient is
  a ratio of Kummer functions (B is minimal in increasing p, the complement
  is minimal in increasing q),
* homogeneous four-term recurrences with polynomial coefficients, which
  admit a spurious dominant solution growing like -2p/x per step in
  increasing p and are therefore safe only for B, backward over p or
  forward over q.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DirectionError, DomainError, EvaluationError
from .kernels import _kummer_m_log, _lentz, _log_beta, kummer_ratio_shift11
from .params import EvalPoint, ShapeParams

THREE_TERM_ADMISSIBLE = {
    ("p", "backward", "B"),
    ("p", "forward", "Bbar"),
    ("q", "forward", "B"),
    ("q", "backward", "Bbar"),
}
FOUR_TERM_ADMISSIBLE = {
    ("p", "backward", "B"),
    ("q", "forward", "B"),
}


@dataclass(frozen=True)
class RecurrenceDirection:
    axis: str  # "p" | "q"
    sense: str  # "forward" | "backward"
    target: str  # "B" | "Bbar"

    def __post_init__(self):
        if self.axis not in ("p", "q"):
            raise DomainError(f"axis must be 'p' or 'q', got {self.axis!r}")
        if self.sense not in ("forward", "backward"):
            raise DomainError(f"sense must be 'forward' or 'backward', got {self.sense!r}")
        if self.target not in ("B", "Bbar"):
            raise DomainError(f"target must be 'B' or 'Bbar', got {self.target!r}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.axis, self.sense, self.target)

    @property
    def step(self) -> int:
        return 1 if self.sense == "forward" else -1


@dataclass
class RecurrenceRun:
    """Values produced by a recurrence sweep.

    ``values[i]`` belongs to the shifted parameter ``params[i]`` on the
    moving axis; seeds occupy the first entries.  ``residual_max`` is the
    largest relative residual of the recurrence on the stored values, each
    formed from the coefficients of the step that produced it (a
    rounding-health indicator, not an accuracy estimate)."""

    direction: RecurrenceDirection
    steps: int
    params: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    residual_max: float = 0.0

    @property
    def final_value(self) -> float:
        return float(self.values[-1])

    @property
    def final_param(self) -> float:
        return float(self.params[-1])


def _at(sp: ShapeParams, axis: str, value: float) -> ShapeParams:
    """``sp`` with its ``axis`` parameter ("p" or "q") set to ``value``."""
    return replace(sp, **{axis: value})


# The inhomogeneous terms of the exact first-order relations
#   B_{p,q} = B_{p+1,q} + h_p,  B_{p,q} = B_{p,q+1} - h_q,  B_{p,q} = B_{p-1,q+1} - h_pq,
# each e^{-x/2} y^(p+a) (1-y)^q M(p+q, p+b, xy/2) / (D B(p, q)), held as (a, b, D).
_H_P = (0.0, 1.0, "p")
_H_Q = (0.0, 0.0, "q")
_H_PQ = (-1.0, 0.0, "q")
# shift -> (its term, where the term is taken relative to (p, q), the term's sign for B);
# a step that subtracts its term is unstable for the member it steps
_FIRST_ORDER = {
    "p-up": (_H_P, (0.0, 0.0), -1.0),
    "p-down": (_H_P, (-1.0, 0.0), 1.0),
    "q-up": (_H_Q, (0.0, 0.0), 1.0),
    "q-down": (_H_Q, (0.0, -1.0), -1.0),
    "p-down-q-up": (_H_PQ, (0.0, 0.0), 1.0),
    "p-up-q-down": (_H_PQ, (1.0, -1.0), -1.0),
}


def _log_inhom(sp: ShapeParams, pt: EvalPoint, term: tuple[float, float, str]) -> float:
    """log of the inhomogeneous term ``term`` = (a, b, D) at ``sp``:
    e^{-x/2} y^(p+a) (1-y)^q M(p+q, p+b, xy/2) / (D B(p, q))."""
    a, b, denom = term
    if pt.y <= 0.0 or pt.y >= 1.0:
        return -math.inf
    return (
        -0.5 * pt.x
        + (sp.p + a) * math.log(pt.y)
        + sp.q * math.log1p(-pt.y)
        + _kummer_m_log(sp.r, sp.p + b, pt.z)
        - math.log(getattr(sp, denom))
        - _log_beta(sp.p, sp.q)
    )


def first_order_step(sp: ShapeParams, pt: EvalPoint, value: float, which: str, target: str = "B") -> float:
    """Shift a function value one step using the exact first-order relations.

    ``which`` selects the shift: "p-up", "p-down", "q-up", "q-down",
    "p-down-q-up" or "p-up-q-down"; ``target`` says whether ``value`` is B or
    its complement (the inhomogeneous term flips sign for the complement).
    The relations are exact, so no direction is rejected; a step that
    subtracts its (positive) term moves toward the member that is minimal
    in that direction, and a chain of such steps drifts toward a dominant
    companion solution, so it raises a RuntimeWarning instead."""
    if target not in ("B", "Bbar"):
        raise DomainError(f"target must be 'B' or 'Bbar', got {target!r}")
    if which not in _FIRST_ORDER:
        raise DomainError(f"unknown first-order shift {which!r}")
    term, (dp, dq), sign = _FIRST_ORDER[which]
    sign *= 1.0 if target == "B" else -1.0
    if sign < 0.0:
        warnings.warn(
            f"first-order chain {which} is unstable for {target}: the shifted function "
            "is minimal in this direction and repeated steps lose digits",
            RuntimeWarning,
            stacklevel=2,
        )
    if sp.p + dp <= 0.0 or sp.q + dq <= 0.0:
        raise DomainError(
            f"{which} needs p > {max(-dp, 0.0):g} and q > {max(-dq, 0.0):g}, got p={sp.p}, q={sp.q}"
        )
    return value + sign * math.exp(_log_inhom(ShapeParams(sp.p + dp, sp.q + dq), pt, term))


def three_term_coeff_p(sp: ShapeParams, pt: EvalPoint) -> float:
    """Coefficient c_{p,q} = ((p+q-1)/p) y M(p+q, p+1, z)/M(p+q-1, p, z) of
    the three-term recurrence over p; tends to y as p grows."""
    if sp.r <= 1.0:
        raise DomainError(f"three-term coefficient needs p + q > 1, got {sp.r}")
    if pt.z == 0.0:
        return (sp.r - 1.0) / sp.p * pt.y
    return (sp.r - 1.0) / sp.p * pt.y * kummer_ratio_shift11(sp.r - 1.0, sp.p, pt.z)


def three_term_coeff_q(sp: ShapeParams, pt: EvalPoint) -> float:
    """Coefficient of the three-term recurrence over q:
    ((p+q-1)/q) (1-y) M(p+q, p, z)/M(p+q-1, p, z); tends to 1-y for large q."""
    if sp.r <= 1.0:
        raise DomainError(f"three-term coefficient needs p + q > 1, got {sp.r}")
    ratio = math.exp(_kummer_m_log(sp.r, sp.p, pt.z) - _kummer_m_log(sp.r - 1.0, sp.p, pt.z))
    return (sp.r - 1.0) / sp.q * (1.0 - pt.y) * ratio


def run_three_term(
    direction: RecurrenceDirection,
    seeds: tuple[float, float],
    steps: int,
    sp: ShapeParams,
    pt: EvalPoint,
) -> RecurrenceRun:
    """Iterate the homogeneous three-term recurrence in a stable direction.

    ``sp`` holds the starting parameters; ``seeds`` are the function values
    at the start and one step along the direction of travel.  ``steps``
    further values are produced, one coefficient evaluation each."""
    if direction.key not in THREE_TERM_ADMISSIBLE:
        raise DirectionError(
            f"three-term recurrence over {direction.axis} ({direction.sense}) is unstable for "
            f"{direction.target}: B is minimal in increasing p and the complement is minimal in "
            "increasing q, so only the minimal member may be computed backward and the dominant "
            "one forward"
        )
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    axis, d = direction.axis, direction.step
    coeff = three_term_coeff_p if axis == "p" else three_term_coeff_q
    base = getattr(sp, axis)
    params = np.empty(steps + 2)
    values = np.empty(steps + 2)
    params[0], params[1] = base, base + d
    values[0], values[1] = seeds
    worst = 0.0
    for i in range(steps):
        c = coeff(_at(sp, axis, params[i + 1]), pt)
        if d > 0:
            # y_{c+1} = (1 + c) y_c - c y_{c-1}
            values[i + 2] = (1.0 + c) * values[i + 1] - c * values[i]
            y_m1, y_p1 = values[i], values[i + 2]
        else:
            # y_{c-1} = ((1 + c) y_c - y_{c+1}) / c
            values[i + 2] = ((1.0 + c) * values[i + 1] - values[i]) / c
            y_m1, y_p1 = values[i + 2], values[i]
        params[i + 2] = params[i + 1] + d
        y_0 = values[i + 1]
        scale = max(abs(y_p1), (1.0 + c) * abs(y_0), c * abs(y_m1))
        if scale > 0.0:
            worst = max(worst, abs(y_p1 - (1.0 + c) * y_0 + c * y_m1) / scale)
    return RecurrenceRun(direction, steps, params, values, worst)


def minimal_ratio_p(sp: ShapeParams, pt: EvalPoint, depth: int = 10000) -> float:
    """B_{p+1,q}/B_{p,q} as a continued fraction over the three-term
    coefficients, convergent because B is the minimal solution of the
    recurrence in increasing p.

    Solving the recurrence for the minimal ratio gives
    B_{p+1}/B_p = c_{p+1}/(1 + c_{p+1} - c_{p+2}/(1 + c_{p+2} - ...)),
    with the coefficient index starting one above the ratio's lower index
    (the series-quotient oracle pins the offset)."""
    cs = (three_term_coeff_p(ShapeParams(sp.p + 1 + k, sp.q), pt) for k in range(depth))
    f, converged = _lentz(0.0, ((c if k == 0 else -c, 1.0 + c) for k, c in enumerate(cs)), 1e-15)
    if not converged:
        raise EvaluationError(f"minimal-ratio continued fraction did not converge in {depth} levels")
    return f


def four_term_coeffs_p(sp: ShapeParams, pt: EvalPoint) -> tuple[float, float, float, float]:
    """Coefficients (c0, c1, c2, c3) of the four-term recurrence over p:
    c3 y_{p+3} + c2 y_{p+2} + c1 y_{p+1} + c0 y_p = 0."""
    p, q, x, y = sp.p, sp.q, pt.x, pt.y
    z = 0.5 * x * y
    c0 = (p + q) * y * y
    c1 = -y * (p + 1.0 - z + y * (p + q))
    c2 = y * (p + 1.0 - z) - z
    c3 = z
    return c0, c1, c2, c3


def four_term_coeffs_q(sp: ShapeParams, pt: EvalPoint) -> tuple[float, float, float, float]:
    """Coefficients (d0, d1, d2, d3) of the four-term recurrence over q:
    d3 y_{q+3} + d2 y_{q+2} + d1 y_{q+1} + d0 y_q = 0."""
    p, q, x, y = sp.p, sp.q, pt.x, pt.y
    z = 0.5 * x * y
    onemy = 1.0 - y
    d0 = -(p + q) * onemy * onemy
    d1 = onemy * ((p + q) * onemy + p + 2.0 * q + 2.0 + z)
    d2 = -onemy * (p + 2.0 * q + 2.0 + z) - q - 2.0
    d3 = q + 2.0
    return d0, d1, d2, d3


def run_four_term(
    direction: RecurrenceDirection,
    seeds: tuple[float, float, float],
    steps: int,
    sp: ShapeParams,
    pt: EvalPoint,
    _force: bool = False,
) -> RecurrenceRun:
    """Iterate the homogeneous four-term recurrence.

    Admissible directions are (p, backward, B) and (q, forward, B) only.
    ``sp`` holds the starting parameters; ``seeds`` are three consecutive
    values starting there and proceeding along the direction of travel.
    ``_force`` bypasses the guard for instability experiments.  A step whose
    leading coefficient is 0 (forward over p at z = xy/2 = 0) raises
    DomainError."""
    if direction.key not in FOUR_TERM_ADMISSIBLE and not _force:
        if direction.axis == "p" and direction.sense == "forward":
            detail = (
                "the recurrence over p admits a spurious dominant solution growing like "
                "-2p/x per step in increasing p"
            )
        elif direction.target == "Bbar":
            detail = (
                "the complement is not minimal for either axis of the four-term recurrence, "
                "so no direction computes it stably"
            )
        else:
            detail = "B is dominant in increasing q, hence unstable backward"
        raise DirectionError(f"four-term recurrence {direction.key} rejected: {detail}")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    axis, d = direction.axis, direction.step
    coeffs = four_term_coeffs_p if axis == "p" else four_term_coeffs_q
    base = getattr(sp, axis)
    params = np.empty(steps + 3)
    values = np.empty(steps + 3)
    for i in range(3):
        params[i] = base + i * d
        values[i] = seeds[i]
    worst = 0.0
    for i in range(steps):
        newpar = params[i + 2] + d
        # the stencil is based at its lowest parameter: the new one backward,
        # the oldest known one forward; the new value's coefficient leads
        k0, k1, k2, k3 = coeffs(_at(sp, axis, newpar if d < 0 else params[i]), pt)
        if (k0 if d < 0 else k3) == 0.0:
            raise DomainError(
                f"four-term step to {axis} = {newpar:g} has a zero leading coefficient at x={pt.x}, y={pt.y}"
            )
        if d < 0:
            values[i + 3] = -(k3 * values[i] + k2 * values[i + 1] + k1 * values[i + 2]) / k0
        else:
            values[i + 3] = -(k0 * values[i] + k1 * values[i + 1] + k2 * values[i + 2]) / k3
        params[i + 3] = newpar
        # the stencil's values in increasing parameter order
        stencil = values[i : i + 4] if d > 0 else values[i : i + 4][::-1]
        parts = [k * v for k, v in zip((k0, k1, k2, k3), stencil)]
        scale = max(abs(v) for v in parts)
        if scale > 0.0:
            worst = max(worst, abs(sum(parts)) / scale)
    return RecurrenceRun(direction, steps, params, values, worst)
