"""Quick self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py      # from the root of a checkout

Checks that BENCHMARK.json names exactly the metrics run.py emits, that
every workload emits every metric in both modes, that a seed always gives
the same inputs and the same traced call counts, and that the trace
wrappers are removed again.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
import workloads
from tracing import Tracer, _ncbeta_modules, per_layer_names

TINY = {"eval-mixed": 40, "eval-large-x": 6, "invert-mixed": 12, "batch-eval": 40}


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def quiet_run(bench, workload):
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.run(workload)


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END], "end_to_end names match run.py")
    check([m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END], "end_to_end units match run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names(), "per_layer names and units match tracing.py")
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "every gated workload is one run.py knows")

    workloads.SIZES.update(TINY)
    for w in run.WORKLOADS:
        check(workloads.make_inputs(w, 3) == workloads.make_inputs(w, 3), f"{w}: seed 3 gives identical inputs")
        check(workloads.make_inputs(w, 3) != workloads.make_inputs(w, 4), f"{w}: seeds 3 and 4 differ")
        r0 = quiet_run(run.Bench(root, 3, 0.2, False), w)
        check(set(r0["metrics"]) == {n for n, _ in run.END_TO_END}, f"{w}: every end-to-end metric emitted")
        check(r0["correct"] and r0["attempted"] == TINY[w], f"{w}: correct over {TINY[w]} operations")
        t1 = quiet_run(run.Bench(root, 3, 0.2, True), w)
        t2 = quiet_run(run.Bench(root, 3, 0.2, True), w)
        check(set(t1["metrics"]) == {n for n, _ in per_layer_names()}, f"{w}: every per-layer metric emitted")
        check(t1["correct"] and t2["correct"], f"{w}: traced runs correct, wrappers removed in the measured process")
        counts = [n for n, u in per_layer_names() if u in ("count", "count/op", "frac") and n != "trace.overhead_frac"]
        check(
            all(t1["metrics"][n]["value"] == t2["metrics"][n]["value"] for n in counts),
            f"{w}: traced counts identical across runs of one seed",
        )

    sys.path.insert(0, str(root / "src"))
    import ncbeta

    before = {(m.__name__, k): v for m in _ncbeta_modules() for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    ncbeta.evaluate(ncbeta.ShapeParams(30.0, 30.0), ncbeta.EvalPoint(100.0, 0.1))
    tracer.uninstall()
    after = {(m.__name__, k): v for m in _ncbeta_modules() for k, v in vars(m).items()}
    check(len(tracer.start) > 0, "wrappers recorded spans in this process")
    check(before.keys() == after.keys() and all(before[k] is after[k] for k in before), "every binding restored")
    check(fallback_frac() == 0.5, "a route error evaluate catches is a fallback, one it lets through is not")


def fallback_frac():
    """dispatch.fallback_frac over two traced stand-in evaluations: one
    whose route raises EvaluationError (caught, so the series answers) and
    one whose route raises OverflowError (escapes evaluate)."""
    from ncbeta.errors import EvaluationError

    tracer = Tracer()

    def route(name, exc):
        raise exc

    traced_route = tracer._wrap(route, None)

    def evaluate(exc):
        try:
            traced_route("kummer-series", exc)
        except EvaluationError:
            return "series"

    traced_evaluate = tracer._wrap(evaluate, "dispatch.evaluate")
    traced_evaluate(EvaluationError("out of regime"))
    with contextlib.suppress(OverflowError):
        traced_evaluate(OverflowError("math range error"))
    return tracer.layer_metrics()["dispatch.fallback_frac"]


if __name__ == "__main__":
    main()
