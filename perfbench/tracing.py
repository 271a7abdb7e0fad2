"""Spans around ncbeta's module bindings, installed from outside the package.

Every traced function is replaced, in every ncbeta module that binds it, by
a wrapper that records a span (name, start, end, parent, whether it raised)
in memory.  The library looks these names up in its module globals at call
time, so the wrappers see the calls the library makes to itself.  Compiled
kernels would bypass the globals, so tracing refuses to run with
JIT_ENABLED.

Per-layer metrics are derived from the spans after the traced pass:
``calls`` counts spans, ``busy_s`` sums their durations and ``self_s`` sums
durations minus the time covered by child spans.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from array import array

import numpy as np

# (module, function) -> span name; the name is shared by every binding
TARGETS = {
    ("dispatch", "evaluate"): "dispatch.evaluate",
    ("dispatch", "explain"): "dispatch.explain",
    ("dispatch", "_run_route"): None,  # named dispatch.route.<route> from its first argument
    ("series", "eval_series"): "series.eval_series",
    ("series", "_member_b"): "series._member_b",
    ("series", "_member_complement"): "series._member_complement",
    ("series", "_poisson_weights"): "series._poisson_weights",
    ("series", "_central_terms_minimal"): "series._central_terms_minimal",
    ("kummer_series", "eval_kummer_series"): "kummer_series.eval_kummer_series",
    ("kummer_series", "_factors_downward"): "kummer_series._factors_downward",
    ("kummer_series", "_factors_direct"): "kummer_series._factors_direct",
    ("kernels", "_betainc"): "kernels._betainc",
    ("kernels", "_betacf"): "kernels._betacf",
    ("kernels", "_kummer_m_log"): "kernels._kummer_m_log",
    ("asymptotic", "build_frame"): "asymptotic.build_frame",
    ("asymptotic", "invert_phi_series"): "asymptotic.invert_phi_series",
    ("asymptotic", "f_coeffs"): "asymptotic.f_coeffs",
    ("asymptotic", "g_coeffs"): "asymptotic.g_coeffs",
    ("asymptotic", "x_zeta_coeffs"): "asymptotic.x_zeta_coeffs",
    ("asymptotic", "y_zeta_coeffs"): "asymptotic.y_zeta_coeffs",
    ("_pseries", "ps_mul"): "pseries.ps_mul",
    ("_pseries", "ps_revert"): "pseries.ps_revert",
    ("_pseries", "ps_sqrt"): "pseries.ps_sqrt",
    ("inversion", "invert"): "inversion.invert",
    ("inversion", "_polish"): "inversion._polish",
    ("inversion", "_eval_at"): "inversion._eval_at",
    ("inversion", "_transition_root"): "inversion._transition_root",
    ("inversion", "db_dx"): "inversion.deriv",
    ("inversion", "db_dy"): "inversion.deriv",
    ("cli", "main"): "cli.main",
    ("cli", "_batch_row"): "cli._batch_row",
}

ROUTES = ("series", "kummer-series", "large-z", "saddle", "erfc-uniform", "central", "boundary")
SEED_PATHS = ("zeta-series", "transition-root", "bisection", "boundary")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [("dispatch.explain.calls", "count"), ("dispatch.explain.self_s", "s")]
    for r in ROUTES:
        out += [(f"dispatch.route.{r}.calls", "count"), (f"dispatch.route.{r}.busy_s", "s")]
    out += [("dispatch.fallback_frac", "frac"), ("dispatch.frames_per_eval", "count/op")]
    for f in ("_member_b", "_member_complement"):
        out += [(f"series.{f}.calls", "count"), (f"series.{f}.self_s", "s")]
    out += [
        ("series._poisson_weights.self_s", "s"),
        ("series._central_terms_minimal.self_s", "s"),
        ("series.window_terms", "count"),
        ("series.terms_per_eval", "count/op"),
        ("kummer_series.eval_kummer_series.calls", "count"),
        ("kummer_series.eval_kummer_series.busy_s", "s"),
    ]
    for f in ("_factors_downward", "_factors_direct"):
        out += [(f"kummer_series.{f}.calls", "count"), (f"kummer_series.{f}.self_s", "s")]
    out += [("kummer_series.direct_frac", "frac"), ("kummer_series.m_log_per_eval", "count/op")]
    for f in ("_betainc", "_betacf", "_kummer_m_log"):
        out += [(f"kernels.{f}.calls", "count"), (f"kernels.{f}.self_s", "s")]
    for f in ("build_frame", "invert_phi_series", "f_coeffs"):
        out += [(f"asymptotic.{f}.calls", "count"), (f"asymptotic.{f}.self_s", "s")]
    out += [
        ("asymptotic.g_coeffs.calls", "count"),
        ("asymptotic.g_coeffs.busy_s", "s"),
        ("asymptotic.g_interp_frames", "count"),
    ]
    for f in ("x_zeta_coeffs", "y_zeta_coeffs"):
        out += [(f"asymptotic.{f}.calls", "count"), (f"asymptotic.{f}.self_s", "s")]
    out += [
        ("pseries.ps_mul.calls", "count"),
        ("pseries.ps_mul.self_s", "s"),
        ("pseries.ps_revert.calls", "count"),
        ("pseries.ps_revert.self_s", "s"),
        ("pseries.ps_sqrt.self_s", "s"),
        ("inversion.seed_s", "s"),
        ("inversion.polish_s", "s"),
        ("inversion.evals_per_solve", "count/op"),
        ("inversion.seed_evals_per_solve", "count/op"),
        ("inversion.series_upgrade_frac", "frac"),
        ("inversion.newton_iters_mean", "count/op"),
    ]
    out += [(f"inversion.seed_path.{s}.calls", "count") for s in SEED_PATHS]
    out += [
        ("inversion.root_frames_per_solve", "count/op"),
        ("inversion.deriv.self_s", "s"),
        ("cli.rows", "count"),
        ("cli.row_overhead_us", "us"),
        ("cli.io_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
    return out


def _ncbeta_modules():
    import ncbeta

    mods = [ncbeta]
    for info in pkgutil.iter_modules(ncbeta.__path__):
        mods.append(importlib.import_module(f"ncbeta.{info.name}"))
    return mods


class Tracer:
    """Span store plus the wrappers that feed it.  ``install`` replaces the
    bindings, ``uninstall`` puts every original back."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.window_terms = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        fixed = None if name is None else self._id(name)
        record_n = name == "series._poisson_weights"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nid = self._id(f"dispatch.route.{args[0]}") if fixed is None else fixed
            if record_n:
                self.window_terms += int(args[2])
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        wrapper.span_name = name or "dispatch.route"
        return wrapper

    def install(self):
        import ncbeta

        if ncbeta.JIT_ENABLED:
            raise RuntimeError("tracing needs the interpreted path: compiled kernels bypass module globals")
        mods = _ncbeta_modules()
        for (modname, attr), name in TARGETS.items():
            original = getattr(importlib.import_module(f"ncbeta.{modname}"), attr)
            wrapper = self._wrap(original, name)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, original in reversed(self._saved):
            setattr(m, key, original)
        self._saved.clear()

    # ------------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.raised, dtype=np.int8).copy(),
        )

    def write(self, path: str):
        """Write every span (name, parent, start, end, raised) to ``path`` (.npz)."""
        name, parent, start, end, raised = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end, raised=raised
        )

    def layer_metrics(self, seed_paths: dict[str, int] | None = None) -> dict[str, float]:
        name, parent, start, end, raised = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        ids = self._ids

        def sel(n):
            return name == ids[n] if n in ids else np.zeros(len(name), bool)

        def under(target, ancestor):
            """Mask of spans named ``target`` with an ``ancestor`` span above them."""
            mask = sel(target)
            aid = ids.get(ancestor, -2)
            hit = np.zeros(len(name), bool)
            for i in np.flatnonzero(mask):
                j = parent[i]
                while j >= 0 and name[j] != aid:
                    j = parent[j]
                hit[i] = j >= 0
            return hit

        def calls(n):
            return int(sel(n).sum())

        def self_s(n):
            return float(own[sel(n)].sum())

        def busy_s(n):
            return float(dur[sel(n)].sum())

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        m["dispatch.explain.calls"] = calls("dispatch.explain")
        m["dispatch.explain.self_s"] = self_s("dispatch.explain")
        evals = calls("dispatch.evaluate")
        # a fallback: a non-series route raised and evaluate caught it (the
        # reference series answered); an exception evaluate let through is
        # a failure, not a fallback
        caught = np.zeros(len(name), bool)
        caught[has_parent] = raised[parent[has_parent]] == 0
        fallbacks = 0
        for r in ROUTES:
            n = f"dispatch.route.{r}"
            m[f"{n}.calls"] = calls(n)
            m[f"{n}.busy_s"] = busy_s(n)
            if r != "series":
                fallbacks += int((sel(n) & (raised == 1) & caught).sum())
        m["dispatch.fallback_frac"] = ratio(fallbacks, evals)
        m["dispatch.frames_per_eval"] = ratio(int(under("asymptotic.build_frame", "dispatch.evaluate").sum()), evals)
        for f in ("_member_b", "_member_complement"):
            m[f"series.{f}.calls"] = calls(f"series.{f}")
            m[f"series.{f}.self_s"] = self_s(f"series.{f}")
        m["series._poisson_weights.self_s"] = self_s("series._poisson_weights")
        m["series._central_terms_minimal.self_s"] = self_s("series._central_terms_minimal")
        m["series.window_terms"] = self.window_terms
        members = calls("series._member_b") + calls("series._member_complement")
        m["series.terms_per_eval"] = ratio(self.window_terms, members)
        kum = calls("kummer_series.eval_kummer_series")
        m["kummer_series.eval_kummer_series.calls"] = kum
        m["kummer_series.eval_kummer_series.busy_s"] = busy_s("kummer_series.eval_kummer_series")
        for f in ("_factors_downward", "_factors_direct"):
            m[f"kummer_series.{f}.calls"] = calls(f"kummer_series.{f}")
            m[f"kummer_series.{f}.self_s"] = self_s(f"kummer_series.{f}")
        down, direct = calls("kummer_series._factors_downward"), calls("kummer_series._factors_direct")
        m["kummer_series.direct_frac"] = ratio(direct, down + direct)
        m_log = int(under("kernels._kummer_m_log", "kummer_series.eval_kummer_series").sum())
        m["kummer_series.m_log_per_eval"] = ratio(m_log, kum)
        for f in ("_betainc", "_betacf", "_kummer_m_log"):
            m[f"kernels.{f}.calls"] = calls(f"kernels.{f}")
            m[f"kernels.{f}.self_s"] = self_s(f"kernels.{f}")
        for f in ("build_frame", "invert_phi_series", "f_coeffs", "x_zeta_coeffs", "y_zeta_coeffs"):
            m[f"asymptotic.{f}.calls"] = calls(f"asymptotic.{f}")
            m[f"asymptotic.{f}.self_s"] = self_s(f"asymptotic.{f}")
        m["asymptotic.g_coeffs.calls"] = calls("asymptotic.g_coeffs")
        m["asymptotic.g_coeffs.busy_s"] = busy_s("asymptotic.g_coeffs")
        m["asymptotic.g_interp_frames"] = int(under("asymptotic.build_frame", "asymptotic.g_coeffs").sum())
        for f in ("ps_mul", "ps_revert"):
            m[f"pseries.{f}.calls"] = calls(f"pseries.{f}")
            m[f"pseries.{f}.self_s"] = self_s(f"pseries.{f}")
        m["pseries.ps_sqrt.self_s"] = self_s("pseries.ps_sqrt")

        solves = calls("inversion.invert")
        polish = busy_s("inversion._polish")
        m["inversion.seed_s"] = busy_s("inversion.invert") - polish
        m["inversion.polish_s"] = polish
        m["inversion.evals_per_solve"] = ratio(int(under("dispatch.evaluate", "inversion.invert").sum()), solves)
        in_solve = under("inversion._eval_at", "inversion.invert")
        in_polish = under("inversion._eval_at", "inversion._polish")
        m["inversion.seed_evals_per_solve"] = ratio(int((in_solve & ~in_polish).sum()), solves)
        upgrades = int(under("series.eval_series", "inversion._eval_at").sum())
        m["inversion.series_upgrade_frac"] = ratio(upgrades, calls("inversion._eval_at"))
        m["inversion.newton_iters_mean"] = ratio(int(in_polish.sum()), solves)
        for s in SEED_PATHS:
            m[f"inversion.seed_path.{s}.calls"] = (seed_paths or {}).get(s, 0)
        frames = int(under("asymptotic.build_frame", "inversion._transition_root").sum())
        m["inversion.root_frames_per_solve"] = ratio(frames, solves)
        m["inversion.deriv.self_s"] = self_s("inversion.deriv")

        rows = calls("cli._batch_row")
        row_busy = busy_s("cli._batch_row")
        row_eval = float(dur[under("dispatch.evaluate", "cli._batch_row")].sum())
        m["cli.rows"] = rows
        m["cli.row_overhead_us"] = ratio(row_busy - row_eval, rows) * 1e6
        m["cli.io_s"] = busy_s("cli.main") - row_busy if rows else 0.0
        return m
