"""Core value types: shape parameters, evaluation points, probability pairs."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_TINY = sys.float_info.min  # the least normal float


@dataclass(frozen=True)
class ShapeParams:
    """The pair (p, q) of positive shape parameters.

    Derived quantities follow the polar convention p = r cos^2(theta),
    q = r sin^2(theta) with r = p + q.  ``cos2`` and ``sin2`` are computed
    as exact quotients p/r and q/r so that r*cos2 reconstructs p to one ulp.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise DomainError(f"shape parameter p must be positive and finite, got {self.p}")
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise DomainError(f"shape parameter q must be positive and finite, got {self.q}")

    @property
    def r(self) -> float:
        return self.p + self.q

    @property
    def cos2(self) -> float:
        return self.p / self.r

    @property
    def sin2(self) -> float:
        return self.q / self.r

    @property
    def theta(self) -> float:
        return math.atan2(math.sqrt(self.q), math.sqrt(self.p))

    def transition_quantile(self, x: float) -> float:
        """y0 = (x + 2p)/(x + 2p + 2q): at noncentrality x, B is the smaller
        member for y <= y0 and the complement above."""
        return transition_quantile(self.p, self.q, x)

    def transition_noncentrality(self, y: float) -> float:
        """x0 = 2(ry - p)/(1 - y), the noncentrality whose transition
        quantile is y (negative where no x >= 0 puts the transition at y)."""
        return 2.0 * (self.r * y - self.p) / (1.0 - y)


@dataclass(frozen=True)
class EvalPoint:
    """Noncentrality x >= 0 and quantile y in [0, 1]; z = x*y/2."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x >= 0.0 and math.isfinite(self.x)):
            raise DomainError(f"noncentrality x must be nonnegative and finite, got {self.x}")
        if not 0.0 <= self.y <= 1.0:
            raise DomainError(f"quantile y must lie in [0, 1], got {self.y}")

    @property
    def z(self) -> float:
        return 0.5 * self.x * self.y


@dataclass(frozen=True)
class ProbabilityPair:
    """A cumulative probability together with its complement.

    One member is computed by the tagged method, the other is set to one
    minus it, so b + bbar == 1 holds exactly.  ``err_est`` is a relative
    error estimate for the computed (primary) member; a subnormal member
    carries its lost precision, ulp(v) / v, in it.
    """

    b: float
    bbar: float
    method: str
    err_est: float

    @classmethod
    def from_primary(cls, value: float, primary: str, method: str, err_est: float) -> "ProbabilityPair":
        complement = primary == "bbar"
        if not (complement or primary == "b"):
            raise ValueError(f"primary must be 'b' or 'bbar', got {primary!r}")
        b, bbar = primary_members(float(value), complement)
        v = bbar if complement else b
        err = float(err_est)
        if 0.0 < v < _TINY:
            err += math.ulp(v) / v
        return cls._filled(b, bbar, method, err)

    @classmethod
    def _filled(cls, b: float, bbar: float, method: str, err_est: float) -> "ProbabilityPair":
        """The pair the constructor builds, its fields written straight into
        a fresh instance's ``__dict__``: the frozen ``__init__`` sets each
        field through ``object.__setattr__``, at twice the cost."""
        pair = object.__new__(cls)
        fields = pair.__dict__
        fields["b"] = b
        fields["bbar"] = bbar
        fields["method"] = method
        fields["err_est"] = err_est
        return pair


def transition_quantile(p: float, q: float, x):
    """``ShapeParams.transition_quantile`` from the floats p and q; x may be
    an array of noncentralities."""
    return (x + 2.0 * p) / (x + 2.0 * (p + q))


def primary_members(value: float, complement: bool) -> tuple[float, float]:
    """(b, bbar) from the primary member's value, the complement's where
    ``complement``: the value clipped to [0, 1] (-0.0 comes out 0.0, and
    nan stays nan), the other member one minus it."""
    v = 0.0 if value <= 0.0 else min(value, 1.0)
    return (1.0 - v, v) if complement else (v, 1.0 - v)


def _primary_columns(values, complement, err_ests):
    """``ProbabilityPair.from_primary`` over arrays: (b, bbar, err_est), each
    entry bitwise ``from_primary``'s for its value and err_est, with the
    value taken as the complement where ``complement`` (a boolean array)
    holds and as B elsewhere."""
    v = np.minimum(np.maximum(values, 0.0), 1.0)
    sub = (v > 0.0) & (v < _TINY)
    err = np.where(sub, err_ests + np.spacing(v) / np.where(sub, v, 1.0), err_ests)
    rest = 1.0 - v
    return np.where(complement, rest, v), np.where(complement, v, rest), err
