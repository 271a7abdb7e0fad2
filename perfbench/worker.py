"""The measured process: loads ncbeta and nothing of the oracle.

    python3 perfbench/worker.py eval|invert INPUTS OUTPUT SECONDS TRACE [SPANS]
    python3 perfbench/worker.py cli OUTPUT TRACE SPANS -- <ncbeta cli arguments>

``eval`` and ``invert`` run closed-loop passes over the input set (one
caller, one thread) until SECONDS have passed, always finishing the first
pass, and time every call.  With TRACE=1 half the time goes to untraced
passes and one further pass runs with the spans of tracing.py installed.
``cli`` runs ``ncbeta.cli.main`` once for the batch workload, timing each
row (or, with TRACE=1, under the spans).  Results go to OUTPUT as JSON.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import calib
import ncbeta
from tracing import Tracer
from workloads import TOL_INVERT


def _ops(kind, rows):
    """Build the argument objects outside the timed region."""
    if kind == "eval":
        return [(ncbeta.ShapeParams(p, q), ncbeta.EvalPoint(x, y)) for p, q, x, y in rows]
    return [
        ncbeta.InversionProblem(unknown=u, sp=ncbeta.ShapeParams(p, q), fixed=f, z=z, tol=TOL_INVERT)
        for u, p, q, f, z in rows
    ]


def _record(kind, res):
    if kind == "eval":
        return [float(res.b), float(res.bbar), res.method, float(res.err_est)]
    return [float(res.value), int(res.iterations), float(res.residual), res.seed_path]


def _one_pass(kind, ops, samples, results, deadline, cal):
    """Run the set once (or until ``deadline``), running the reference
    kernel every calib.EVERY_S; returns (wall seconds, finished, number of
    results that differ from the first pass).  Each sample is (latency,
    index of the reference run before it)."""
    fn = ncbeta.evaluate if kind == "eval" else ncbeta.invert
    clock = time.perf_counter
    first = not results
    changed = 0
    next_cal = clock()
    t_pass = clock()
    for i, args in enumerate(ops):
        if deadline is not None and clock() >= deadline:
            return clock() - t_pass, False, changed
        if clock() >= next_cal:
            cal.append(calib.reference())
            next_cal = clock() + calib.EVERY_S
        t0 = clock()
        try:
            out = fn(*args) if kind == "eval" else fn(args)
        except Exception as exc:  # every failure type is counted, by name
            rec = ["error", type(exc).__name__]
        else:
            rec = _record(kind, out)
        samples[i].append((clock() - t0, len(cal) - 1))
        if first:
            results.append(rec)
        elif repr(rec) != repr(results[i]):
            changed += 1
    cal.append(calib.reference())
    return clock() - t_pass, True, changed


def run_passes(kind, ops, seconds):
    """Passes over ``ops`` for ``seconds`` (the first always completes).
    Returns the first pass's results, each op's median latency raw and
    normalised to the reference speed (us), the completed passes' wall
    times, and how many results changed between passes."""
    samples = [[] for _ in ops]
    results: list = []
    pass_s = []
    cal: list[float] = []
    changed = 0
    t_end = time.perf_counter() + seconds
    deadline = None
    while deadline is None or time.perf_counter() < t_end:
        wall, finished, diff = _one_pass(kind, ops, samples, results, deadline, cal)
        deadline = t_end
        changed += diff
        if finished:
            pass_s.append(wall)
    scale = calib.scales(cal)
    raw_us = [statistics.median(t for t, _ in s) * 1e6 for s in samples]
    norm_us = [statistics.median(t * scale[k] for t, k in s) * 1e6 for s in samples]
    return results, raw_us, norm_us, pass_s, changed, statistics.median(cal)


def main_measure(kind, inputs, output, seconds, trace, spans_path=None):
    with open(inputs) as fh:
        rows = json.load(fh)
    ops = _ops(kind, rows)
    ncbeta.warmup()
    untraced = seconds / 2.0 if trace else seconds
    results, raw_us, lat_us, pass_s, changed, ref_s = run_passes(kind, ops, untraced)
    out = {
        "results": results,
        "raw_us": raw_us,
        "lat_us": lat_us,
        "pass_s": pass_s,
        "changed": changed,
        "jit": ncbeta.JIT_ENABLED,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced: list = []
            cal: list[float] = []
            wall, _, _ = _one_pass(kind, ops, [[] for _ in ops], traced, None, cal)
        finally:
            tracer.uninstall()
        out["changed"] += sum(repr(a) != repr(b) for a, b in zip(traced, results))
        paths = {}
        if kind == "invert":
            for rec in traced:
                if rec[0] != "error":
                    paths[rec[3]] = paths.get(rec[3], 0) + 1
        layers = tracer.layer_metrics(paths)
        # both pass times at the reference speed, so host drift cancels
        layers["trace.overhead_frac"] = (wall / statistics.median(cal)) / (statistics.median(pass_s) / ref_s) - 1.0
        out["layers"] = layers
        out["restored"] = restored()
        if spans_path:
            tracer.write(spans_path)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(output, "w") as fh:
        json.dump(out, fh)


def restored() -> bool:
    """True when no ncbeta binding still holds a trace wrapper."""
    from tracing import _ncbeta_modules

    return not any(hasattr(v, "span_name") for m in _ncbeta_modules() for v in vars(m).values())


def main_cli(output, trace, spans_path, argv):
    """One ``ncbeta.cli.main`` run between reference-kernel runs.  Untraced,
    only ``cli._batch_row`` is wrapped, to time each row and to run the
    reference kernel between rows every calib.EVERY_S (a few runs at the
    ends alone miss the host's speed changes inside a 2 s process); traced,
    the spans of tracing.py are installed instead."""
    from ncbeta import cli

    ref = [calib.reference() for _ in range(3)]
    row_s: list[float] = []
    tracer = Tracer()
    if trace:
        tracer.install()
    else:
        batch_row = cli._batch_row
        next_ref = time.perf_counter() + calib.EVERY_S

        def timed_row(*args, **kwargs):
            nonlocal next_ref
            if time.perf_counter() >= next_ref:
                ref.append(calib.reference())
                next_ref = time.perf_counter() + calib.EVERY_S
            t0 = time.perf_counter()
            try:
                return batch_row(*args, **kwargs)
            finally:
                row_s.append(time.perf_counter() - t0)

        cli._batch_row = timed_row
    try:
        code = cli.main(argv)
    finally:
        if trace:
            tracer.uninstall()
        else:
            cli._batch_row = batch_row
    ref += [calib.reference() for _ in range(3)]
    out = {"code": code, "ref": ref, "row_us": [t * 1e6 for t in row_s]}
    if trace:
        out["restored"] = restored()
        out["layers"] = tracer.layer_metrics()
        tracer.write(spans_path)
    with open(output, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        sep = sys.argv.index("--")
        sys.exit(main_cli(sys.argv[2], sys.argv[3] == "1", sys.argv[4], sys.argv[sep + 1 :]))
    spans = sys.argv[6] if len(sys.argv) > 6 else None
    main_measure(mode, sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1", spans)
