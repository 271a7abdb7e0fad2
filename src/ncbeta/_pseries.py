"""Fixed-order truncated power-series arithmetic on float coefficient arrays.

Arrays hold coefficients of u^0, u^1, ... and are truncated (never padded
semantically) to the requested order; orders stay below ~10 everywhere.
At those orders numpy's per-call overhead outweighs the arithmetic, so the
recurrences run on Python floats: each function takes a list or an array
and builds its returned array once.

One primitive carries the asymptotic coefficients: ``ps_pow`` raises a
series with a[0] != 0 to a real power by J.C.P. Miller's recurrence (Knuth,
TAOCP vol. 2, sec. 4.7), which costs O(n^2).  Through Lagrange-Buermann
inversion it gives both the reversion of w = u sqrt(a(u)),

    [w^k] u(w) = [u^(k-1)] a(u)^(-k/2) / k,

and any series composed with that reversion, without truncated products.
``ps_revert`` serves the phase inversion (``asymptotic.invert_phi_series``);
the transition series that seed inversion, always of order 5, write the
same operations out in straight-line floats (``asymptotic._t0_series5``
and ``asymptotic._zeta_revert5``), bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def ps_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Product truncated to order n (n+1 coefficients)."""
    out = np.zeros(n + 1)
    for i in range(min(len(a), n + 1)):
        ai = a[i]
        if ai == 0.0:
            continue
        jmax = min(len(b), n + 1 - i)
        out[i : i + jmax] += ai * b[:jmax]
    return out


def _pow(a, alpha: float, n: int) -> list[float]:
    """The list of ``ps_pow``'s coefficients, for callers that go on in
    Python floats."""
    a = [float(v) for v in a[: n + 1]]
    a0 = a[0]
    b = [a0**alpha]
    for k in range(1, n + 1):
        s = 0.0
        for i in range(1, min(k, len(a) - 1) + 1):
            s += (alpha * i + (i - k)) * a[i] * b[k - i]  # = ((alpha+1) i - k), exact for small alpha
        b.append(s / (k * a0))
    return b


def ps_pow(a, alpha: float, n: int) -> np.ndarray:
    """a^alpha truncated to order n, by Miller's recurrence

        b_0 = a_0^alpha,  k a_0 b_k = sum_{i=1..k} ((alpha+1) i - k) a_i b_{k-i}.

    Requires a[0] != 0, and a[0] > 0 when alpha is not an integer."""
    return np.array(_pow(a, alpha, n))


def ps_sqrt(a, n: int) -> np.ndarray:
    """sqrt(a) truncated to order n; requires a[0] > 0.  No library code
    calls it since the transition series write its recurrence out
    (``asymptotic._t0_series5``); perfbench's tracer binds it by name."""
    out = [math.sqrt(a[0])]
    for k in range(1, n + 1):
        s = float(a[k]) if k < len(a) else 0.0
        for i in range(1, k):
            s -= out[i] * out[k - i]
        out.append(s / (2.0 * out[0]))
    return np.array(out)


def ps_revert(a, n: int) -> np.ndarray:
    """Inverse of w = u sqrt(a(u)) with a[0] > 0, by Lagrange inversion:
    returns b with u = sum_{k=1..n} b_k w^k, where

        b_k = [u^(k-1)] a(u)^(-k/2) / k,

    and b[0] = 0.  Coefficients of a beyond index n-1 do not enter."""
    if not a[0] > 0.0:
        raise ValueError("series reversion requires a positive constant term a[0]")
    a = [float(v) for v in a[:n]]
    return np.array([0.0] + [_pow(a, -0.5 * k, k - 1)[k - 1] / k for k in range(1, n + 1)])


def ps_eval(a: np.ndarray, u: float) -> float:
    """Horner evaluation of the truncated series at u."""
    s = 0.0
    for k in range(len(a) - 1, -1, -1):
        s = s * u + a[k]
    return s
