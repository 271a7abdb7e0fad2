"""Built-in verification suites.

Three groups:

* ``tables``: pinned reference values for the expansions, the recurrence
  sweeps, the four-term recurrence experiment and the inversion worked
  examples, each checked at its documented accuracy;
* ``invariants``: structural identities (complement, monotonicity, oracle
  bridges, recurrence residuals, derivative checks, closed-form coefficient
  checks, expansion consistency);
* ``grid``: a 500-point random sweep comparing the dispatcher against the
  reference series at every point the series resolves.

Each check returns a CheckResult; the CLI prints one line per check and the
acceptance test suite asserts them wholesale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotic import (
    _g_from_f,
    build_frame,
    eval_erfc_uniform,
    eval_large_z,
    eval_saddle,
    f_coeffs,
    g_coeffs,
    invert_phi_series,
    transition_tau,
    x_zeta_coeffs,
    y_zeta_coeffs,
)
from .dispatch import evaluate
from .errors import DirectionError, EvaluationError
from .inversion import InversionProblem, db_dx, db_dy, invert, transition_equation
from .kernels import central_beta_cdf
from .kummer_series import eval_kummer_series, truncated_shift_sum
from .params import EvalPoint, ProbabilityPair, ShapeParams
from .recurrence import (
    RecurrenceDirection,
    four_term_coeffs_p,
    four_term_coeffs_q,
    first_order_step,
    minimal_ratio_p,
    run_four_term,
    run_three_term,
    three_term_coeff_p,
    three_term_coeff_q,
)
from .series import _resum, _series_window, eval_series, eval_type2_qfunction, noncentral_f_cdf


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# pinned expansion values
#
# Each row: (method, terms, p, q, x, y, source_value, source_relerr,
#            exact_value, exact_relerr).
#
# ``source_value`` is the published 16-digit value with ``source_relerr`` its
# stated relative error.  ``exact_value`` is the same truncated expansion
# recomputed in 60-digit arithmetic, with ``exact_relerr`` its true relative
# error against the defining series.  For most rows the two values agree to
# ~1e-14; near the transition (small |zeta|) the published digits carry the
# source's own cancellation noise in the boundary-layer coefficients, so the
# checks pin the implementation against the exact truncation and allow the
# published digits their measured noise.

EXPANSION_CASES = [
    ("large-z", 5, 2.3, 3.5, 54.0, 0.8640, 0.2760082728547706, 5.6e-4, 0.27600827285477076, 5.59e-4),
    ("large-z", 5, 2.3, 3.5, 140.0, 0.9000, 0.03608547984275312, 2.0e-5, 0.036085479842753136, 2.02e-5),
    ("large-z", 5, 2.3, 3.5, 250.0, 0.9000, 0.0005034732632828640, 8.9e-7, 0.000503473263282864, 8.97e-7),
    ("large-z", 4, 5.0, 5.0, 54.0, 0.8640, 0.4563026193369792, 0.0, 0.45630261933697902, 0.0),
    ("large-z", 4, 5.0, 5.0, 140.0, 0.9000, 0.1041334930397555, 0.0, 0.10413349303975551, 0.0),
    ("large-z", 4, 5.0, 5.0, 170.0, 0.9560, 0.6022421650011662, 0.0, 0.6022421650011662, 0.0),
    ("erfc-uniform", 2, 10.0, 10.0, 54.0, 0.8686, 0.9187790583189610, 5.7e-8, 0.91877905831663297, 5.73e-8),
    # |zeta| ~ 0.074 here sits just above the pole-removal threshold, where
    # the direct coefficient subtraction keeps ~1e-11 noise; the published
    # digits carry ~1.7e-7 of the source's own evaluation noise at this point
    ("erfc-uniform", 2, 10.0, 10.0, 140.0, 0.9000, 0.6008070986289955, 1.4e-8, 0.60080699615831466, 1.84e-7),
    ("erfc-uniform", 2, 10.0, 10.0, 250.0, 0.9000, 0.09028986850391792, 5.3e-7, 0.090289868561954694, 5.27e-7),
    ("erfc-uniform", 2, 20.0, 20.0, 54.0, 0.8787, 0.9998676573798253, 9.0e-12, 0.99986765737982508, 8.99e-12),
    ("erfc-uniform", 2, 20.0, 20.0, 140.0, 0.9000, 0.9925975041637949, 5.2e-10, 0.99259750416392814, 5.23e-10),
    ("erfc-uniform", 2, 20.0, 20.0, 250.0, 0.9220, 0.9641190712607291, 1.7e-9, 0.96411907127326946, 1.72e-9),
    ("saddle", 2, 30.0, 30.0, 100.0, 0.1, 5.341313347397197e-33, 3.7e-6, 5.3413133473971539e-33, 3.78e-6),
    ("saddle", 2, 30.0, 30.0, 150.0, 0.1, 5.175358340461182e-42, 1.9e-6, 5.1753583404611826e-42, 1.98e-6),
    ("saddle", 2, 30.0, 30.0, 250.0, 0.1, 3.252685735589340e-60, 7.8e-7, 3.2526857355893837e-60, 7.77e-7),
]

# recurrence sweeps: (axis, sense, target, start (p,q), end (p,q),
#                     published final relative accuracy)
RECURRENCE_SWEEPS = [
    ("p", "backward", "B", (300.0, 200.0), (50.0, 200.0), 1.9e-14),
    ("p", "forward", "Bbar", (30.0, 200.0), (280.0, 200.0), 7.0e-15),
    ("q", "forward", "B", (30.0, 20.0), (30.0, 270.0), 4.6e-14),
    ("q", "backward", "Bbar", (30.0, 300.0), (30.0, 50.0), 1.5e-14),
]
RECURRENCE_POINT = EvalPoint(50.0, 0.4)


def _relerr(a: float, b: float) -> float:
    scale = max(abs(b), 1e-300)
    return abs(a - b) / scale


def _exact_tol(method: str, sp: ShapeParams, pt: EvalPoint) -> float:
    """Allowed relative distance of an expansion from its exact truncation:
    machine-grade, except that just above the pole-removal threshold the
    coefficient subtraction keeps O(eps/zeta^6 / r^2) rounding."""
    if method == "large-z":
        return 1e-13
    fr = build_frame(sp, pt)
    return max(1e-13, 30.0 * 2.2e-16 / max(abs(fr.zeta), 1e-2) ** 6 / fr.r**2)


def check_expansion_values() -> list[CheckResult]:
    out = []
    for method, terms, p, q, x, y, src, src_err, exact, exact_err in EXPANSION_CASES:
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        if method == "large-z":
            pair = eval_large_z(sp, pt, n_terms=terms)
        elif method == "erfc-uniform":
            pair = eval_erfc_uniform(sp, pt, k_terms=terms, target="B")
        else:
            pair = eval_saddle(sp, pt, k_terms=terms)
        name = f"expansion {method} (p={p:g}, q={q:g}, x={x:g}, y={y:g})"
        vs_exact = _relerr(pair.b, exact)
        source_noise = _relerr(src, exact)
        vs_src = _relerr(pair.b, src)
        ok = vs_exact <= _exact_tol(method, sp, pt) and vs_src <= max(2e-13, 2.0 * source_noise)
        oracle = eval_series(sp, pt)
        true_err = _relerr(pair.b, oracle.b)
        if exact_err == 0.0:
            ok = ok and true_err <= 5e-13
            detail = f"vs exact {vs_exact:.1e}; true err {true_err:.1e} (terminating, expect 0)"
        else:
            ok = ok and exact_err / 3.0 <= true_err <= 3.0 * exact_err
            detail = (
                f"vs exact {vs_exact:.1e}; true err {true_err:.2e} "
                f"(expected {exact_err:.2e}, published {src_err:.2e})"
            )
        out.append(CheckResult(name, ok, detail))
    return out


def _sweep_oracle(p, q, target):
    pair = eval_series(ShapeParams(p, q), RECURRENCE_POINT)
    return pair.b if target == "B" else pair.bbar


def check_recurrence_sweeps() -> list[CheckResult]:
    out = []
    for axis, sense, target, start, end, published in RECURRENCE_SWEEPS:
        d = RecurrenceDirection(axis, sense, target)
        inc = d.step
        if axis == "p":
            seeds = (_sweep_oracle(start[0], start[1], target), _sweep_oracle(start[0] + inc, start[1], target))
            steps = int(abs(end[0] - start[0])) - 1
        else:
            seeds = (_sweep_oracle(start[0], start[1], target), _sweep_oracle(start[0], start[1] + inc, target))
            steps = int(abs(end[1] - start[1])) - 1
        run = run_three_term(d, seeds, steps, ShapeParams(*start), RECURRENCE_POINT)
        ref = _sweep_oracle(end[0], end[1], target)
        err = _relerr(run.final_value, ref)
        ok = err <= 5.0 * published
        out.append(
            CheckResult(
                f"three-term sweep {target} {sense} over {axis} {start} -> {end}",
                ok,
                f"final rel err {err:.2e} (published {published:.1e}, allowed {5 * published:.1e})",
            )
        )
    return out


def check_four_term_sweep() -> list[CheckResult]:
    out = []
    pt = EvalPoint(10.0, 0.2)
    seeds = []
    seed_errs = []
    for p in (1003.0, 1002.0, 1001.0):
        s = eval_saddle(ShapeParams(p, 1200.0), pt)
        o = eval_series(ShapeParams(p, 1200.0), pt)
        seeds.append(s.b)
        seed_errs.append(_relerr(s.b, o.b))
    ok = max(seed_errs) <= 2e-7
    out.append(
        CheckResult(
            "four-term sweep seeds from the saddle expansion",
            ok,
            f"seed rel errs {', '.join(f'{e:.2e}' for e in seed_errs)} (expect ~3.4e-8)",
        )
    )
    run = run_four_term(
        RecurrenceDirection("p", "backward", "B"), tuple(seeds), 801, ShapeParams(1003.0, 1200.0), pt
    )
    ref = eval_series(ShapeParams(200.0, 1200.0), pt).b
    err = _relerr(run.final_value, ref)
    out.append(
        CheckResult(
            "four-term sweep backward to p=200 preserves seed accuracy",
            err <= 5e-8,
            f"final rel err {err:.2e} (seeds ~3.4e-8, allowed 5e-8)",
        )
    )
    ratio = minimal_ratio_p(ShapeParams(199.0, 1200.0), pt)
    quot = eval_series(ShapeParams(200.0, 1200.0), pt).b / eval_series(ShapeParams(199.0, 1200.0), pt).b
    rerr = _relerr(ratio, quot)
    out.append(
        CheckResult(
            "minimal-ratio continued fraction at (199, 1200)",
            rerr <= 1e-14,
            f"vs series quotient {rerr:.2e}",
        )
    )
    pt2 = EvalPoint(10.0, 0.2)
    sB = tuple(eval_series(ShapeParams(float(pp), 200.0), pt2).bbar for pp in (300, 301, 302))
    d_fwd = RecurrenceDirection("p", "forward", "Bbar")
    guard_fired = False
    try:
        run_four_term(d_fwd, sB, 5, ShapeParams(300.0, 200.0), pt2)
    except DirectionError:
        guard_fired = True
    out.append(CheckResult("four-term forward guard rejects the complement", guard_fired))
    forced = run_four_term(d_fwd, sB, 5, ShapeParams(300.0, 200.0), pt2, _force=True)
    ref307 = eval_series(ShapeParams(307.0, 200.0), pt2).bbar
    ferr = _relerr(forced.final_value, ref307)
    digits_lost = math.log10(max(ferr, 1e-300) / 2.2e-16)
    out.append(
        CheckResult(
            "forced forward sweep loses at least three digits in five steps",
            ferr >= 1e3 * 2.2e-16,
            f"final rel err {ferr:.2e}, ~{digits_lost:.1f} digits over machine baseline",
        )
    )
    return out


def check_inversion_examples() -> list[CheckResult]:
    out = []
    sp = ShapeParams(10.0, 15.0)

    def close3(a, b):
        return abs(a - b) <= 5e-3 * abs(b)

    def brackets(root, zeta0):  # the transition equation changes sign within 5e-3 of the root
        lo, hi = (transition_equation(sp, EvalPoint(4.5, root * (1.0 + d)), zeta0) for d in (-5e-3, 5e-3))
        return lo * hi < 0.0

    r = invert(InversionProblem(unknown="x", sp=sp, fixed=0.45, z=0.5))
    out.append(
        CheckResult(
            "invert x at z=0.5 seeds at the transition noncentrality 50/11",
            close3(r.seed_value_raw, 50.0 / 11.0) and abs(r.residual) <= 1e-10,
            f"seed {r.seed_value_raw:.6f}, residual {r.residual:.1e}",
        )
    )
    r = invert(InversionProblem(unknown="x", sp=sp, fixed=0.45, z=0.4))
    out.append(
        CheckResult(
            "invert x at z=0.4: series seed 7.1704, corrected 7.4176",
            close3(r.zeta0, 0.05067)
            and close3(r.seed_value_raw, 7.1704)
            and close3(r.seed_value, 7.4176)
            and abs(r.residual) <= 1e-10,
            f"zeta0 {r.zeta0:.5f}, raw {r.seed_value_raw:.4f}, corrected {r.seed_value:.4f}",
        )
    )
    r = invert(InversionProblem(unknown="x", sp=sp, fixed=0.45, z=0.6))
    out.append(
        CheckResult(
            "invert x at z=0.6: series seed 2.1475",
            close3(r.seed_value_raw, 2.1475) and abs(r.residual) <= 1e-10,
            f"raw seed {r.seed_value_raw:.4f}",
        )
    )
    r = invert(InversionProblem(unknown="y", sp=sp, fixed=4.5, z=0.5))
    out.append(
        CheckResult(
            "invert y at z=0.5 seeds at the transition quantile 49/109",
            close3(r.seed_value_raw, 49.0 / 109.0) and abs(r.residual) <= 1e-10,
            f"seed {r.seed_value_raw:.6f}",
        )
    )
    r = invert(InversionProblem(unknown="y", sp=sp, fixed=4.5, z=0.01))
    out.append(
        CheckResult(
            "invert y at z=0.01: series seed 0.2330, transition root 0.2330",
            close3(r.zeta0, 0.4653)
            and r.seed_path == "zeta-series"
            and close3(r.seed_value_raw, 0.2330)
            and brackets(0.2330, r.zeta0)
            and abs(r.residual) <= 1e-10,
            f"zeta0 {r.zeta0:.4f}, raw {r.seed_value_raw:.4f}, corrected {r.seed_value:.4f}, path {r.seed_path}",
        )
    )
    r = invert(InversionProblem(unknown="y", sp=sp, fixed=4.5, z=0.99))
    out.append(
        CheckResult(
            "invert y at z=0.99: seed 0.6739, transition root 0.6739",
            close3(r.zeta0, -0.4652)
            and close3(r.seed_value, 0.6739)
            and brackets(0.6739, r.zeta0)
            and abs(r.residual) <= 1e-10,
            f"zeta0 {r.zeta0:.4f}, seed {r.seed_value:.4f}, path {r.seed_path}",
        )
    )
    feasible_rejects = False
    try:
        invert(InversionProblem(unknown="x", sp=sp, fixed=0.45, z=0.71))
    except Exception:
        feasible_rejects = True
    out.append(
        CheckResult("invert x rejects z above the zero-noncentrality bound", feasible_rejects)
    )
    return out


def check_inversion_roundtrip(n_cases: int = 200, seed: int = 42, tol: float = 1e-10) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    fails = 0
    done = 0
    max_iters = 0
    while done < n_cases:
        p = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
        q = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
        sp = ShapeParams(p, q)
        if done % 2 == 0:
            y = rng.uniform(0.05, 0.95)
            zmax = central_beta_cdf(p, q, y)
            if zmax < 0.01:
                continue
            z = rng.uniform(0.001, min(0.999, zmax * (1.0 - 1e-6)))
            prob = InversionProblem(unknown="x", sp=sp, fixed=y, z=z, tol=tol)
        else:
            x = rng.uniform(0.0, 100.0)
            z = rng.uniform(0.001, 0.999)
            prob = InversionProblem(unknown="y", sp=sp, fixed=x, z=z, tol=tol)
        res = invert(prob)
        if abs(res.residual) > tol * max(z, 1.0 - z):
            fails += 1
        max_iters = max(max_iters, res.iterations)
        done += 1
    return [
        CheckResult(
            f"inversion round trip on {n_cases} random cases",
            fails == 0,
            f"{fails} residuals above tolerance; max polish iterations {max_iters}",
        )
    ]


# ---------------------------------------------------------------------------
# invariant suites


def _random_shape_point(rng, pmax=60.0, xmax=100.0, ylo=0.05, yhi=0.95):
    p = math.exp(rng.uniform(math.log(1.0), math.log(pmax)))
    q = math.exp(rng.uniform(math.log(1.0), math.log(pmax)))
    x = rng.uniform(0.0, xmax)
    y = rng.uniform(ylo, yhi)
    return ShapeParams(p, q), EvalPoint(x, y)


def check_complement_identity(n: int = 40, seed: int = 5) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n):
        sp, pt = _random_shape_point(rng)
        pair = evaluate(sp, pt)
        if pair.b + pair.bbar != 1.0:
            ok = False
            break
    return [CheckResult("complement is structurally one minus the value", ok)]


def check_monotonicity(n: int = 50, seed: int = 6) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n):
        sp, pt = _random_shape_point(rng, pmax=200.0, xmax=150.0, ylo=0.05, yhi=0.9)
        h = 1e-2
        a = evaluate(sp, pt)
        b = evaluate(sp, EvalPoint(pt.x, min(pt.y + h, 1.0)))
        band = 10.0 * (a.err_est + b.err_est) * max(a.b, b.b) + 1e-15
        if b.b < a.b - band:
            bad += 1
        c = evaluate(sp, EvalPoint(pt.x + h * (1.0 + pt.x), pt.y))
        band = 10.0 * (a.err_est + c.err_est) * max(a.b, c.b) + 1e-15
        if c.b > a.b + band:
            bad += 1
    return [
        CheckResult(
            "value increases in the quantile and decreases in the noncentrality",
            bad == 0,
            f"{bad} violations on {n} triples",
        )
    ]


def check_type2_bridge(n: int = 20, seed: int = 8) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        a = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
        b = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
        lam = rng.uniform(0.0, 40.0)
        xq = rng.uniform(0.05, 0.9)
        omega = xq / (1.0 - xq)
        lhs = eval_type2_qfunction(a, b, lam, omega)
        rhs = eval_series(ShapeParams(a, b), EvalPoint(2.0 * lam, xq)).b
        worst = max(worst, abs(lhs - rhs))
    return [
        CheckResult(
            "type-II q-function double series agrees with the defining series",
            worst <= 1e-12,
            f"worst |difference| {worst:.2e} over {n} cases",
        )
    ]


def check_noncentral_f_bridge() -> list[CheckResult]:
    w = 13.5 / 11.0  # quantile nu1*w/(nu1*w + nu2) = 0.45 at (nu1, nu2) = (20, 30)
    lhs = noncentral_f_cdf(w, 20.0, 30.0, 4.5)
    rhs = eval_series(ShapeParams(10.0, 15.0), EvalPoint(4.5, 0.45))
    err = _relerr(lhs.b, rhs.b)
    extra = abs(noncentral_f_cdf(0.0, 20.0, 30.0, 4.5).b)
    return [
        CheckResult(
            "noncentral F maps onto the noncentral beta",
            err <= 1e-13 and extra == 0.0,
            f"rel diff {err:.1e}; zero statistic gives 0",
        )
    ]


def check_recurrence_residuals(n: int = 30, seed: int = 9) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_first = worst_three = worst_four = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(n):
            p = rng.uniform(2.0, 60.0)
            q = rng.uniform(2.0, 60.0)
            x = rng.uniform(0.5, 60.0)
            y = rng.uniform(0.1, 0.9)
            sp, pt = ShapeParams(p, q), EvalPoint(x, y)

            def b_at(pp, qq):
                return eval_series(ShapeParams(pp, qq), pt).b

            b0, bp1, bp2, bp3 = b_at(p, q), b_at(p + 1, q), b_at(p + 2, q), b_at(p + 3, q)
            stepped = first_order_step(sp, pt, b0, "p-up")
            worst_first = max(worst_first, _relerr(stepped, bp1))
            qu = first_order_step(sp, pt, b0, "q-up")
            worst_first = max(worst_first, _relerr(qu, b_at(p, q + 1)))
            c = three_term_coeff_p(ShapeParams(p + 1, q), pt)
            res = bp2 - (1.0 + c) * bp1 + c * b0
            worst_three = max(worst_three, abs(res) / max(abs(bp2), (1 + c) * abs(bp1)))
            cq = three_term_coeff_q(ShapeParams(p, q + 1), pt)
            resq = b_at(p, q + 2) - (1.0 + cq) * b_at(p, q + 1) + cq * b0
            worst_three = max(worst_three, abs(resq) / max(abs(b_at(p, q + 2)), (1 + cq) * abs(b_at(p, q + 1))))
            c0, c1, c2, c3 = four_term_coeffs_p(sp, pt)
            parts = [c0 * b0, c1 * bp1, c2 * bp2, c3 * bp3]
            worst_four = max(worst_four, abs(sum(parts)) / max(abs(v) for v in parts))
            d0, d1, d2, d3 = four_term_coeffs_q(sp, pt)
            parts = [d0 * b0, d1 * b_at(p, q + 1), d2 * b_at(p, q + 2), d3 * b_at(p, q + 3)]
            worst_four = max(worst_four, abs(sum(parts)) / max(abs(v) for v in parts))
    ok = worst_first <= 5e-13 and worst_three <= 1e-13 and worst_four <= 1e-13
    return [
        CheckResult(
            "recurrence residuals vanish on oracle values",
            ok,
            f"first-order {worst_first:.1e}, three-term {worst_three:.1e}, four-term {worst_four:.1e}",
        )
    ]


def check_derivatives(n: int = 50, seed: int = 10) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < n:
        # keep r below the asymptotic-dispatch threshold so the finite
        # differences run on oracle-grade evaluations
        sp, pt = _random_shape_point(rng, pmax=19.0, xmax=35.0, ylo=0.15, yhi=0.85)
        pair = evaluate(sp, pt)
        if not 0.01 < pair.b < 0.99:
            continue
        hx = 1e-5 * (1.0 + pt.x)
        fd_x = (evaluate(sp, EvalPoint(pt.x + hx, pt.y)).b - evaluate(sp, EvalPoint(max(pt.x - hx, 0.0), pt.y)).b) / (
            pt.x + hx - max(pt.x - hx, 0.0)
        )
        an_x = db_dx(sp, pt)
        worst = max(worst, _relerr(fd_x, an_x))
        hy = 1e-5
        fd_y = (evaluate(sp, EvalPoint(pt.x, pt.y + hy)).b - evaluate(sp, EvalPoint(pt.x, pt.y - hy)).b) / (2 * hy)
        an_y = db_dy(sp, pt)
        worst = max(worst, _relerr(fd_y, an_y))
        done += 1
    return [
        CheckResult(
            "analytic derivatives match central differences",
            worst <= 1e-6,
            f"worst rel diff {worst:.1e} over {n} points",
        )
    ]


def check_resummed_window(n: int = 30, seed: int = 24) -> list[CheckResult]:
    """The polish's re-summed window (``series._resum``) against a fresh
    series pass at the moved point: n points for each unknown, the unknown
    moved by up to 1e-2 of x, or of the nearer end for y.  Every re-sum that
    serves agrees within the sum of the two err_ests, and each unknown
    serves at least one."""
    rng = np.random.default_rng(seed)
    served = {"x": 0, "y": 0}
    worst = 0.0
    for unknown in ("x", "y"):
        for _ in range(n):
            sp, pt = _random_shape_point(rng)
            step = rng.uniform(-1e-2, 1e-2)
            held = _series_window(sp, pt)[1]
            if unknown == "x":
                moved = EvalPoint(pt.x * (1.0 + step), pt.y)
            else:
                moved = EvalPoint(pt.x, pt.y + step * min(pt.y, 1.0 - pt.y))
            out = None if held is None else _resum(sp.p, sp.q, moved.x, moved.y, unknown, held)
            if out is None:
                continue
            # the pair the series forms from the re-sum's value and err_est
            value, err, _ = out
            member = "bbar" if held.r.complement else "b"
            got, ref = ProbabilityPair.from_primary(value, member, "series", err), eval_series(sp, moved)
            a, b = getattr(got, member), getattr(ref, member)
            worst = max(worst, abs(a - b) / ((got.err_est + ref.err_est) * b))
            served[unknown] += 1
    return [
        CheckResult(
            "re-summed inversion window matches a fresh series pass for both unknowns",
            worst <= 1.0 and min(served.values()) > 0,
            f"{served['x']} x and {served['y']} y re-sums of {n} each; worst {worst:.2f} of the err_est sum",
        )
    ]


def _phase_derivatives(fr):
    """phi_2..phi_5, the derivatives of the phase at the saddle in which the
    closed forms are written."""
    t0, t0m1, s = fr.t0, fr.t0 - 1.0, fr.sin2
    return (
        fr.phi2,
        2.0 / t0**3 - 2.0 * s / t0m1**3,
        -6.0 / t0**4 + 6.0 * s / t0m1**4,
        24.0 / t0**5 - 24.0 * s / t0m1**5,
    )


def _closed_t(fr):
    ph2, ph3, ph4, ph5 = _phase_derivatives(fr)
    t1 = 1.0 / math.sqrt(ph2)
    t2 = -ph3 / (6.0 * ph2**2)
    t3 = (5.0 * ph3**2 - 3.0 * ph2 * ph4) / (72.0 * ph2**3.5)
    t4 = (45.0 * ph4 * ph3 * ph2 - 40.0 * ph3**3 - 9.0 * ph5 * ph2**2) / (1080.0 * ph2**5)
    return t1, t2, t3, t4


def _closed_f0(fr):
    return (fr.t0 - 1.0) / ((1.0 - fr.y * fr.t0) * math.sqrt(fr.sin2 * fr.t0**2 - (fr.t0 - 1.0) ** 2))


def _closed_f2(fr):
    ph2, ph3, ph4, _ = _phase_derivatives(fr)
    t0, y = fr.t0, fr.y
    return (
        24.0 * ph2**2
        + 12.0 * ph2 * (ph3 - 6.0 * y * ph2) * t0
        + (72.0 * ph2**2 * y * y + 5.0 * ph3**2 - 36.0 * ph3 * y * ph2 - 3.0 * ph4 * ph2) * t0**2
        + 2.0 * y * (12.0 * ph3 * y * ph2 + 3.0 * ph4 * ph2 - 5.0 * ph3**2) * t0**3
        + y * y * (5.0 * ph3**2 - 3.0 * ph4 * ph2) * t0**4
    ) / (24.0 * ph2**3.5 * t0**3 * (1.0 - y * t0) ** 3)


def check_saddle_coefficients(n: int = 50, seed: int = 3) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_t = 0.0
    worst_f = 0.0
    done = 0
    while done < n:
        sp, pt = _random_shape_point(rng, pmax=60.0, xmax=120.0)
        fr = build_frame(sp, pt)
        if not fr.strip_ok or abs(1.0 - pt.y * fr.t0) < 1e-3:
            continue
        t = invert_phi_series(fr)
        for k, closed in enumerate(_closed_t(fr)):
            worst_t = max(worst_t, _relerr(t[k + 1], closed))
        f = f_coeffs(fr)
        worst_f = max(worst_f, _relerr(f[0], _closed_f0(fr)), _relerr(f[2], _closed_f2(fr)))
        done += 1
    ok = worst_t <= 1e-10 and worst_f <= 1e-10
    return [
        CheckResult(
            "phase-inversion and integrand coefficients match their closed forms",
            ok,
            f"t-coefficients {worst_t:.1e}, f-coefficients {worst_f:.1e} over {n} frames",
        )
    ]


def check_erfc_saddle_consistency(n: int = 20, seed: int = 13) -> list[CheckResult]:
    """Replacing the boundary-layer erfc term by its own large-argument
    expansion must recover the plain saddle series (the defining relation of
    the g-coefficients)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    dfact = (1.0, 1.0, 3.0)
    while done < n:
        sp, pt = _random_shape_point(rng, pmax=80.0, xmax=150.0, ylo=0.05, yhi=0.6)
        fr = build_frame(sp, pt)
        if not fr.strip_ok or fr.erfc_arg <= 5.0 or pt.y > fr.y0 - 0.05:
            continue
        f = f_coeffs(fr)
        g = _g_from_f(f, fr.zeta)
        s_saddle = math.fsum((-1.0) ** k * f[2 * k] * dfact[k] / fr.r**k for k in range(3))
        s_sub = math.fsum(
            (-1.0) ** k * (g[2 * k] + fr.zeta ** -(2 * k + 1)) * dfact[k] / fr.r**k for k in range(3)
        )
        worst = max(worst, _relerr(s_sub, s_saddle))
        done += 1
    return [
        CheckResult(
            "uniform expansion reduces to the plain saddle past the boundary layer",
            worst <= 1e-9,
            f"worst rel diff {worst:.1e} over {n} frames",
        )
    ]


def check_g_continuity() -> list[CheckResult]:
    """Boundary-layer coefficients with the pole removed analytically join
    the direct subtraction continuously: at |zeta| inside the branch
    threshold, but far enough from zero for the subtraction to hold its
    digits, the two paths must agree."""
    from ._pseries import ps_eval

    sp = ShapeParams(10.0, 15.0)
    y = 0.45
    tau = transition_tau(sp.r)
    coeffs = x_zeta_coeffs(sp, y)
    worst = 0.0
    for target in (-0.8 * tau, -0.4 * tau, 0.4 * tau, 0.8 * tau):
        xz = ps_eval(coeffs, target)
        fr = build_frame(sp, EvalPoint(xz, y))
        g_removed = g_coeffs(fr)  # |zeta| < tau selects the analytic pole removal
        g_direct = _g_from_f(f_coeffs(fr), fr.zeta)  # safe here: |zeta| large enough to subtract
        worst = max(worst, abs(g_removed[0] - g_direct[0]))
    return [
        CheckResult(
            "boundary-layer coefficients continuous through the transition",
            worst <= 1e-10,
            f"worst pole-removal-vs-direct gap on the leading coefficient {worst:.1e}",
        )
    ]


def check_dispatch_grid(n: int = 500, seed: int = 20260809) -> list[CheckResult]:
    """Dispatcher vs the type-II q-function double series on a random
    parameter sweep.

    The double series gives B = 1 - q(x/2, y/(1-y); 2p, 2q) from code that
    no route shares.  It is compared where B is the primary member; where
    the complement is, the q-function does not resolve it.  Points whose B
    falls below the normal double range (~1e-290) are excluded: they only
    carry a handful of mantissa bits, and the q-function's terms underflow
    there, so its sum never starts and runs to its iteration limit."""
    rng = np.random.default_rng(seed)
    fails = 0
    checked = 0
    worst = 0.0
    for _ in range(n):
        p = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
        q = math.exp(rng.uniform(math.log(0.5), math.log(2000.0)))
        x = rng.uniform(0.0, 500.0)
        y = rng.uniform(1e-4, 1.0 - 1e-4)
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        if y > sp.transition_quantile(x):
            continue
        ev = evaluate(sp, pt)
        if ev.b < 1e-290:
            continue
        orc = eval_type2_qfunction(p, q, 0.5 * x, y / (1.0 - y))
        checked += 1
        rel = abs(ev.b - orc) / orc if orc > 0.0 else math.inf
        bound = max(5e-12, 5.0 * ev.err_est)
        worst = max(worst, rel / bound)
        if rel > bound:
            fails += 1
    return [
        CheckResult(
            f"dispatcher agrees with the type-II q-function where B is primary ({checked} of {n} random points)",
            fails == 0,
            f"{fails} failures, worst margin {worst:.2f}",
        )
    ]


def check_kummer_series_identity() -> list[CheckResult]:
    out = []
    sp, pt = ShapeParams(10.0, 15.0), EvalPoint(4.5, 0.45)
    total = eval_series(sp, pt).b
    worst = 0.0
    for n_shift in (0, 5, 20):
        partial = truncated_shift_sum(sp, pt, n_shift)
        rem = eval_series(ShapeParams(10.0 + n_shift + 1, 15.0), pt).b
        worst = max(worst, _relerr(partial + rem, total))
    out.append(
        CheckResult(
            "finite shift sum plus remainder reproduces the value exactly",
            worst <= 1e-12,
            f"worst rel {worst:.1e}",
        )
    )
    worst = 0.0
    for (p, q, x, y) in [(10.0, 15.0, 4.5, 0.3), (3.0, 40.0, 20.0, 0.5), (0.7, 3.0, 100.0, 0.2)]:
        a1 = eval_kummer_series(ShapeParams(p, q), EvalPoint(x, y), "b-direct")
        a2 = eval_kummer_series(ShapeParams(p, q), EvalPoint(x, y), "b-transformed")
        worst = max(worst, _relerr(a1.b, a2.b))
    out.append(
        CheckResult(
            "direct and transformed Kummer series variants agree",
            worst <= 1e-12,
            f"worst rel {worst:.1e}",
        )
    )
    return out


def check_transition_equation(n: int = 50, seed: int = 7) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        p = rng.uniform(1.0, 50.0)
        q = rng.uniform(1.0, 50.0)
        x = rng.uniform(0.5, 80.0)
        y = rng.uniform(0.05, 0.95)
        sp, pt = ShapeParams(p, q), EvalPoint(x, y)
        te = transition_equation(sp, pt, 0.0)
        fr = build_frame(sp, pt)
        worst = max(worst, abs(te - fr.dphi) / (1.0 + abs(fr.dphi)))
    return [
        CheckResult(
            "transition equation matches the frame phase difference",
            worst <= 1e-12,
            f"worst scaled diff {worst:.1e}",
        )
    ]


def check_transition_series() -> list[CheckResult]:
    out = []
    sp = ShapeParams(10.0, 15.0)
    cx = x_zeta_coeffs(sp, 0.45)
    x1_closed = 2.0 * math.sqrt(25.0 * (15.0 - 25.0 * 0.55**2)) / 0.55
    ok = abs(cx[0] - 50.0 / 11.0) < 1e-12 and _relerr(cx[1], x1_closed) < 1e-12
    out.append(
        CheckResult(
            "transition series leading coefficients match their closed forms",
            ok,
            f"x0 {cx[0]:.12f}, x1 {cx[1]:.10f}",
        )
    )
    cy = y_zeta_coeffs(sp, 4.5)
    ok = abs(cy[0] - 49.0 / 109.0) < 1e-12 and cy[1] < 0.0
    out.append(CheckResult("quantile transition series starts at 49/109 and decreases", ok))
    worst = 0.0
    for zt in (0.02, -0.02):
        from ._pseries import ps_eval

        xz = ps_eval(cx, zt)
        fr = build_frame(sp, EvalPoint(xz, 0.45))
        worst = max(worst, abs(fr.zeta - zt))
        yz = ps_eval(cy, zt)
        fr = build_frame(sp, EvalPoint(4.5, yz))
        worst = max(worst, abs(fr.zeta - zt))
    out.append(
        CheckResult(
            "transition series round-trips through the frame",
            worst <= 1e-8,
            f"worst |zeta - target| {worst:.1e} at |zeta| = 0.02",
        )
    )
    return out


def check_dispatch_policy() -> list[CheckResult]:
    out = []
    # the series answers every point whose window holds at most
    # MAX_WINDOW_TERMS terms, at x = 3e6 and 5e6 too; past the cap it
    # raises, naming the terms it would need
    cases = [
        (ShapeParams(10.0, 15.0), EvalPoint(4.5, 0.45)),
        (ShapeParams(30.0, 30.0), EvalPoint(100.0, 0.1)),
        (ShapeParams(2.3, 3.5), EvalPoint(250.0, 0.9)),
        (ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787)),
        (ShapeParams(4.0, 5.0), EvalPoint(3.0, 0.1)),
        (ShapeParams(0.7, 50.0), EvalPoint(5e6, 0.01)),
        (ShapeParams(5000.0, 5e4), EvalPoint(3e6, 0.9674)),
    ]
    details = []
    for sp, pt in cases:
        got = evaluate(sp, pt).method
        if got != "series":
            details.append(f"({sp.p:g},{sp.q:g},{pt.x:g},{pt.y:g}) -> {got}")
    try:
        evaluate(ShapeParams(1.0, 1e10), EvalPoint(1e5, 0.1))
        details.append("(1,1e10,1e5,0.1) answered past the window cap")
    except EvaluationError as exc:
        if "series window would need" not in str(exc):
            details.append(f"(1,1e10,1e5,0.1) raised {exc}")
    out.append(CheckResult("evaluate answers by the series up to its window cap", not details, "; ".join(details)))
    sp = ShapeParams(10.0, 15.0)
    y0 = (4.5 + 20.0) / (4.5 + 50.0)
    below, above = ("Bbar" if y > sp.transition_quantile(4.5) else "B" for y in (y0 - 1e-9, y0 + 1e-9))
    out.append(
        CheckResult(
            "primary function flips exactly at the transition quantile",
            below == "B" and above == "Bbar",
            f"below {below}, above {above}",
        )
    )
    # the paper's 0.9998676573798253 is the K = 2 erfc-uniform truncation
    # (pinned in EXPANSION_CASES); the dispatcher's series meets the 40-digit
    # complement 1.323426111854528227e-4 (mpmath) within its err_est
    pair = evaluate(ShapeParams(20.0, 20.0), EvalPoint(54.0, 0.8787))
    out.append(
        CheckResult(
            "dispatcher resolves the boundary-layer point within err_est",
            _relerr(pair.bbar, 1.323426111854528227e-4) <= pair.err_est and pair.method == "series",
            f"complement {pair.bbar!r} via {pair.method}, err_est {pair.err_est:.1e}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite assembly


def suite_tables() -> list[CheckResult]:
    out = []
    out += check_expansion_values()
    out += check_recurrence_sweeps()
    out += check_four_term_sweep()
    out += check_inversion_examples()
    return out


def suite_invariants() -> list[CheckResult]:
    out = []
    out += check_complement_identity()
    out += check_monotonicity()
    out += check_type2_bridge()
    out += check_noncentral_f_bridge()
    out += check_recurrence_residuals()
    out += check_derivatives()
    out += check_resummed_window()
    out += check_saddle_coefficients()
    out += check_erfc_saddle_consistency()
    out += check_g_continuity()
    out += check_kummer_series_identity()
    out += check_transition_equation()
    out += check_transition_series()
    out += check_dispatch_policy()
    return out


def run_suite(name: str) -> list[CheckResult]:
    if name == "tables":
        return suite_tables()
    if name == "invariants":
        return suite_invariants()
    if name == "all":
        return suite_tables() + suite_invariants() + check_inversion_roundtrip() + check_dispatch_grid()
    raise ValueError(f"unknown suite {name!r} (choose tables, invariants, or all)")
