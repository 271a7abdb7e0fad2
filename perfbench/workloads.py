"""Input generators for the four workloads, one seeded stream each.

The draw order (p, q, then x and y per point; p, q, then the fixed
coordinate and z per inversion problem) is part of the workload definition:
the known-defect points listed in README.md sit at fixed indices of these
streams, so changing the order would silently drop them.
"""

from __future__ import annotations

import math

import numpy as np

LOG_PQ = (math.log(0.5), math.log(2000.0))
LOG_X_LARGE = (math.log(1e3), math.log(1e5))

# the tolerances the program is asked for; evaluate keeps its default
TOL_EVAL = 1e-12
TOL_INVERT = 1e-10

# points (eval) or problems (invert) per run; one pass over the set is the
# unit every latency and accuracy figure is computed on
SIZES = {"eval-mixed": 4000, "eval-large-x": 120, "invert-mixed": 2000, "batch-eval": 4000}


def _shape(rng):
    p = math.exp(rng.uniform(*LOG_PQ))
    q = math.exp(rng.uniform(*LOG_PQ))
    return p, q


def eval_points(seed: int, n: int, large_x: bool = False) -> list[list[float]]:
    """[p, q, x, y] rows: p, q log-uniform on [0.5, 2000]; x uniform on
    [0, 500] (or log-uniform on [1e3, 1e5]); y uniform on [0.001, 0.999]."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        p, q = _shape(rng)
        x = math.exp(rng.uniform(*LOG_X_LARGE)) if large_x else rng.uniform(0.0, 500.0)
        y = rng.uniform(0.001, 0.999)
        rows.append([p, q, x, y])
    return rows


def invert_problems(seed: int, n: int) -> list[list]:
    """[unknown, p, q, fixed, z] rows alternating unknown x and unknown y.

    Unknown x: y uniform on [0.05, 0.95], redrawn (p, q, y) while
    I_y(p, q) < 0.01, then z uniform on (0.001, min(0.999, I_y (1 - 1e-6)))
    so a nonnegative root exists.  Unknown y: x uniform on [0, 500] and z
    uniform on (0.001, 0.999)."""
    from scipy.special import betainc  # here, so the measured process never loads scipy

    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        p, q = _shape(rng)
        if len(rows) % 2 == 0:
            y = rng.uniform(0.05, 0.95)
            iy = float(betainc(p, q, y))
            if iy < 0.01:
                continue
            z = rng.uniform(0.001, min(0.999, iy * (1.0 - 1e-6)))
            rows.append(["x", p, q, y, z])
        else:
            x = rng.uniform(0.0, 500.0)
            z = rng.uniform(0.001, 0.999)
            rows.append(["y", p, q, x, z])
    return rows


def make_inputs(workload: str, seed: int) -> list:
    n = SIZES[workload]
    if workload == "invert-mixed":
        return invert_problems(seed, n)
    return eval_points(seed, n, large_x=workload == "eval-large-x")
