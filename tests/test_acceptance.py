"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all) and
enforces the documented runtime budget, measured after the session-scoped
warmup."""

import time

from ncbeta.selftest import (
    check_complement_identity,
    check_derivatives,
    check_dispatch_grid,
    check_dispatch_policy,
    check_erfc_saddle_consistency,
    check_expansion_values,
    check_four_term_sweep,
    check_g_continuity,
    check_inversion_examples,
    check_inversion_roundtrip,
    check_kummer_series_identity,
    check_monotonicity,
    check_noncentral_f_bridge,
    check_recurrence_residuals,
    check_recurrence_sweeps,
    check_saddle_coefficients,
    check_transition_equation,
    check_transition_series,
    check_type2_bridge,
)


def _run(name, checks, budget_s):
    t0 = time.perf_counter()
    results = []
    for fn in checks:
        results.extend(fn())
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    status = "PASS" if not failed and elapsed < budget_s else "FAIL"
    print(f"{status} {name}: {len(results) - len(failed)}/{len(results)} checks in {elapsed:.2f}s (budget {budget_s:g}s)")
    for r in failed:
        print(f"      failed: {r.name} :: {r.detail}")
    assert not failed, f"{name}: {[r.name for r in failed]}"
    assert elapsed < budget_s, f"{name} exceeded its {budget_s:g}s budget ({elapsed:.2f}s)"


def test_criterion_1_expansion_reference_values():
    """All 15 pinned expansion rows: values against the 60-digit exact
    truncations (and the published digits at their measured noise), true
    errors within a factor of 3 of the expected truncation error."""
    _run("expansion reference values", [check_expansion_values], 1.0)


def test_criterion_2_three_term_recurrence_sweeps():
    """All four pinned sweeps reach final accuracies within a factor of 5 of
    the published values, seeded from the series oracle."""
    _run("three-term recurrence sweeps", [check_recurrence_sweeps], 1.0)


def test_criterion_3_four_term_recurrence_experiment():
    """Backward sweep from p=1003 to p=200 preserves the ~3.4e-8 seed
    accuracy; the minimal ratio matches the oracle quotient to 1e-14; the
    forced forward sweep loses at least three digits in five steps."""
    _run("four-term recurrence experiment", [check_four_term_sweep], 1.0)


def test_criterion_4_inversion():
    """Worked inversion examples to three significant figures pre-polish,
    residuals below 1e-10 post-polish, and a 200-case round trip at 1e-10."""
    _run("inversion examples and round trip", [check_inversion_examples, check_inversion_roundtrip], 5.0)


def test_criterion_5_invariant_suites():
    """Structural identities: complement, monotonicity, oracle bridges,
    recurrence residuals, analytic derivatives, closed-form coefficients,
    expansion consistency, boundary-layer continuity, route policy."""
    _run(
        "invariant suites",
        [
            check_complement_identity,
            check_monotonicity,
            check_type2_bridge,
            check_noncentral_f_bridge,
            check_recurrence_residuals,
            check_derivatives,
            check_saddle_coefficients,
            check_erfc_saddle_consistency,
            check_g_continuity,
            check_kummer_series_identity,
            check_transition_equation,
            check_transition_series,
            check_dispatch_policy,
        ],
        10.0,
    )


def test_criterion_6_dispatcher_accuracy_grid():
    """500 random points: dispatcher vs the type-II q-function double series
    within max(5e-12, 5 * err_est) wherever B is primary and resolved."""
    _run("dispatcher accuracy grid", [check_dispatch_grid], 30.0)
