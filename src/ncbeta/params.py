"""Core value types: shape parameters, evaluation points, probability pairs."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


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
        return (x + 2.0 * self.p) / (x + 2.0 * self.r)

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
        v = min(max(float(value), 0.0), 1.0)
        err = float(err_est)
        if 0.0 < v < sys.float_info.min:
            err += math.ulp(v) / v
        if primary == "b":
            return cls(b=v, bbar=1.0 - v, method=method, err_est=err)
        if primary == "bbar":
            return cls(b=1.0 - v, bbar=v, method=method, err_est=err)
        raise ValueError(f"primary must be 'b' or 'bbar', got {primary!r}")

    @classmethod
    def from_primaries(cls, values, primary: str, method: str, err_ests) -> list:
        """``from_primary`` over arrays of values and err_ests, one pair an
        entry, each bitwise ``from_primary``'s."""
        if primary not in ("b", "bbar"):
            raise ValueError(f"primary must be 'b' or 'bbar', got {primary!r}")
        v = np.minimum(np.maximum(values, 0.0), 1.0)
        sub = (v > 0.0) & (v < sys.float_info.min)
        err = np.where(sub, err_ests + np.spacing(v) / np.where(sub, v, 1.0), err_ests)
        b, bbar = (v, 1.0 - v) if primary == "b" else (1.0 - v, v)
        return [cls(pb, pc, method, pe) for pb, pc, pe in zip(b.tolist(), bbar.tolist(), err.tolist())]
