"""Independent oracle: scipy's noncentral F (Boost) mapped onto the
noncentral beta, with the rule for where it resolves the value.

B_{p,q}(x, y) is the noncentral F CDF with 2p and 2q degrees of freedom,
noncentrality x, at f = (q/p) y/(1-y).  Boost loses the value in deep
tails: it returns nan, 0, or a value off by orders of magnitude once the
smaller member falls far below 1e-100.  The rule (``admitted``) judges a point only
when both members are finite, the smaller one is at least MIN_SMALLER, and
the two add to one within SUM_SLACK; every other point is counted as
skipped.  ``python3 perfbench/oracle.py`` backs the rule with a 30-digit
mpmath check of admitted points and of the known deep-tail failure.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
from scipy.special import ncfdtr
from scipy.special._ufuncs import _ncf_sf

MIN_SMALLER = 1e-60
SUM_SLACK = 1e-10
HIT_REL = 1e-10  # a judged evaluate result hits the oracle within this relative error
GROSS_REL = 0.1  # beyond this relative error a result is wrong, not just inaccurate
GROSS_RESID = 1e-3  # an inversion root whose oracle residual exceeds this is wrong


def members(p, q, x, y):
    """Oracle (B, complement) arrays for array arguments."""
    p, q, x, y = (np.asarray(a, dtype=float) for a in (p, q, x, y))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        f = (q / p) * y / (1.0 - y)
        return ncfdtr(2.0 * p, 2.0 * q, x, f), _ncf_sf(f, 2.0 * p, 2.0 * q, x)


def admitted(cdf, sf):
    """The rule: where the oracle is trusted to resolve the value."""
    with np.errstate(all="ignore"):
        small = np.minimum(cdf, sf)
        return np.isfinite(cdf) & np.isfinite(sf) & (small >= MIN_SMALLER) & (np.abs(cdf + sf - 1.0) <= SUM_SLACK)


def smaller_rel_err(b, bbar, cdf, sf):
    """Relative error of the library's smaller member against the oracle."""
    use_b = cdf <= sf
    lib = np.where(use_b, b, bbar)
    ref = np.where(use_b, cdf, sf)
    with np.errstate(all="ignore"):
        return np.abs(lib - ref) / ref


def inversion_residual(unknown, p, q, fixed, z, root):
    """B(root) - z from the oracle, on the member that keeps precision
    (the same convention the library reports its residual in)."""
    if unknown == "x":
        cdf, sf = members(p, q, root, fixed)
    else:
        cdf, sf = members(p, q, fixed, root)
    cdf, sf = float(cdf), float(sf)
    ok = bool(admitted(np.array(cdf), np.array(sf)))
    return ((cdf - z) if z <= 0.5 else ((1.0 - z) - sf)), ok


# --------------------------------------------------------------------------
# mpmath spot check of the rule


def _mp_smaller(p, q, x, y, dps=30):
    """Smaller member by the defining Poisson mixture in mpmath, summed
    outward from the Poisson mode until the terms stop contributing."""
    import mpmath as mp

    mp.mp.dps = dps
    p, q, x, y = (mp.mpf(v) for v in (p, q, x, y))
    half = x / 2
    y0 = (x + 2 * p) / (x + 2 * (p + q))
    comp = y > y0

    def term(j):
        w = mp.exp(j * mp.log(half) - half - mp.loggamma(j + 1)) if half > 0 else mp.mpf(j == 0)
        if comp:
            return w * mp.betainc(q, p + j, 0, 1 - y, regularized=True)
        return w * mp.betainc(p + j, q, 0, y, regularized=True)

    j0 = int(half)
    s = term(j0)
    for step in (1, -1):
        j, small = j0 + step, 0
        while j >= 0 and small < 5:
            t = term(j)
            s += t
            small = small + 1 if t < s * mp.mpf(10) ** (-dps) else 0
            j += step
    return float(s), bool(comp)


def spot_check(n_per_band: int = 4, seed: int = 11) -> int:
    """Compare Boost with mpmath on admitted points drawn from the eval
    workloads, concentrated near the admission threshold, plus the known
    deep-tail point.  Returns the number of admitted points that miss."""
    from workloads import eval_points

    rng = np.random.default_rng(seed)
    bands = [(MIN_SMALLER, 1e-40), (1e-40, 1e-15), (1e-15, 1e-3), (1e-3, 0.5)]
    chosen = []
    for pts, per_band in ((eval_points(seed, 3000), n_per_band), (eval_points(seed, 600, large_x=True), 2)):
        pts = np.array(pts)
        cdf, sf = members(*pts.T)
        small = np.minimum(cdf, sf)
        for lo, hi in bands:
            idx = np.flatnonzero(admitted(cdf, sf) & (small >= lo) & (small < hi))
            for i in rng.permutation(idx)[:per_band]:
                chosen.append((*pts[i], cdf[i], sf[i]))
    misses = 0
    print(f"rule: min(B, Bbar) >= {MIN_SMALLER:g}, |B + Bbar - 1| <= {SUM_SLACK:g}")
    for p, q, x, y, cdf, sf in chosen:
        ref, comp = _mp_smaller(p, q, x, y)
        boost = sf if comp else cdf
        rel = abs(boost - ref) / ref
        misses += rel > HIT_REL
        print(f"admitted p={p:.6g} q={q:.6g} x={x:.6g} y={y:.6g}: mpmath {ref:.10e} boost {boost:.10e} rel {rel:.1e}")
    p, q, x, y = 0.7096, 165.56, 3689.1, 0.48745
    c, s = members(p, q, x, y)
    ref, _ = _mp_smaller(p, q, x, y)
    print(
        f"deep tail p={p} q={q} x={x} y={y}: mpmath B {ref:.5e}; boost B {float(c):.5e} "
        f"complement {float(s):.5e}; admitted {bool(admitted(c, s))}"
    )
    print(f"{misses} of {len(chosen)} admitted points miss mpmath by more than {HIT_REL:g}")
    return misses


if __name__ == "__main__":
    sys.exit(1 if spot_check() else 0)
