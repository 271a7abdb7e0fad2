"""ncbeta benchmark: one entry point for every workload and metric.

    python3 perfbench/run.py --workload eval-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout: the program under test is the
``src/ncbeta`` next to this directory, never an installed copy.  The inputs
come from --seed (workloads.py); the measured process (worker.py, or the
``ncbeta batch`` command for batch-eval) loads ncbeta only, while inputs
and the scipy oracle (oracle.py) are computed here, outside the timed runs.

Every metric is printed as ``<workload> <name> <value> <unit>``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with --trace 0, the per-layer metrics of
tracing.py with --trace 1).  README.md defines each metric.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import calib
import oracle
from tracing import per_layer_names
from workloads import SIZES, TOL_EVAL, TOL_INVERT, make_inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("eval-mixed", "eval-large-x", "invert-mixed", "batch-eval")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_tail", "us"),
    ("ok_frac", "frac"),
    ("tol_met_frac", "frac"),
    ("oracle_hit_frac", "frac"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 7
NUMPY_REF_S = 0.2  # bare numpy import time that defines the reference speed for setup_s
TAIL_PCT = 90.0  # op_us_tail percentile
CHILD_TIMEOUT = 170.0
# the recorded large-z defect (README.md): gross misses of the large-z route
# at y >= KNOWN_GROSS_MIN_Y count against oracle_hit_frac but, up to
# KNOWN_GROSS_MAX of them in a run, do not make the run incorrect.  Seeds
# 1-40 of eval-mixed show at most two a run, all at y in [0.85, 0.95].
KNOWN_GROSS_ROUTE = "large-z"
KNOWN_GROSS_MIN_Y = 0.85
KNOWN_GROSS_MAX = 4


class BenchError(RuntimeError):
    """The benchmark could not produce a result (exit code 2, no JSON)."""


def run_child(argv, env, cwd, timeout=CHILD_TIMEOUT):
    """Run a process to completion; returns (exit code, wall s, peak RSS MB,
    scale to the reference speed from kernel runs just before and after)."""
    before = calib.reference()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    scale = calib.REF_S / statistics.median([before, calib.reference(), calib.reference()])
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, scale


class Bench:
    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root, self.seed, self.seconds, self.trace = root, seed, seconds, trace
        src = root / "src"
        if not (src / "ncbeta" / "__init__.py").is_file():
            raise BenchError(f"no ncbeta sources under {src}; run from the root of a checkout")
        self.out = root / ".perfbench_out"
        self.out.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("NCBETA_DISABLE_JIT", None)
        self.py = sys.executable

    def path(self, workload, suffix):
        return self.out / f"{workload}-s{self.seed}{suffix}"

    def setup_s(self):
        """Median wall time of a fresh interpreter importing and warming up
        ncbeta, at the reference speed.  Start-up is mostly loading files and
        extension modules, which the reference kernel does not track, so each
        start is scaled by NUMPY_REF_S over the time of a bare ``import
        numpy`` started right after it.  One unmeasured start of each first
        fills the bytecode caches."""
        argv = [self.py, "-c", "import ncbeta; ncbeta.warmup()"]
        probe = [self.py, "-c", "import numpy"]
        times = []
        for i in range(SETUP_RUNS + 1):
            code, wall = run_child(argv, self.env, self.root)[:2]
            ref_code, ref = run_child(probe, self.env, self.root)[:2]
            if code != 0 or ref_code != 0:
                raise BenchError("ncbeta or numpy does not import")
            if i:
                times.append(wall * NUMPY_REF_S / ref)
        return statistics.median(times)

    # ------------------------------------------------------------------ eval / invert

    def run_worker(self, workload, kind, rows):
        inputs, output = self.path(workload, ".in.json"), self.path(workload, ".out.json")
        inputs.write_text(json.dumps(rows))
        argv = [self.py, str(HERE / "worker.py"), kind, str(inputs), str(output), repr(self.seconds)]
        argv += ["1", str(self.path(workload, ".spans.npz"))] if self.trace else ["0"]
        code = run_child(argv, self.env, self.root)[0]
        if code != 0:
            raise BenchError(f"worker for {workload} exited with {code}")
        res = json.loads(output.read_text())
        if len(res["results"]) != len(rows):
            raise BenchError(f"worker for {workload} returned {len(res['results'])} of {len(rows)} results")
        return res

    def measure_ops(self, workload):
        kind = "invert" if workload == "invert-mixed" else "eval"
        rows = make_inputs(workload, self.seed)
        res = self.run_worker(workload, kind, rows)
        acc = judge_eval(rows, res["results"]) if kind == "eval" else judge_invert(rows, res["results"])
        if res["changed"]:
            acc["wrong"].append(f"{res['changed']} results changed between passes of the same inputs")
        lat = np.array(res["lat_us"])
        cut = np.percentile(lat, TAIL_PCT)
        counted = ~acc["false_ok"]
        timing = {
            "ops_per_s": int(counted.sum()) / (lat[counted].sum() * 1e-6),
            "op_us_p50": float(np.median(lat)),
            "op_us_tail": float(cut),
            "peak_rss_mb": res["rss_mb"],
        }
        k = max(len(lat) - 10, 0)
        note = (
            f"ops_per_s leaves out {int((~counted).sum())} false successes taking {lat[~counted].sum() * 1e-6:.2f} s; "
            f"op_us_tail is p{TAIL_PCT:g} of {len(lat)} ops ({int((lat > cut).sum())} beyond); "
            f"highest percentile with 10 beyond: p{100.0 * k / len(lat):.2f} = "
            f"{np.sort(lat)[max(k - 1, 0)]:.1f} us; passes {len(res['pass_s'])}, "
            f"median pass {statistics.median(res['pass_s']):.3f} s; raw p50 {np.median(res['raw_us']):.1f} us"
        )
        return rows, res, acc, timing, note

    # ------------------------------------------------------------------ batch

    def batch_child(self, workload, cli, trace):
        """One ``ncbeta batch`` process through worker.py's cli mode.
        Returns (invocation seconds and per-row us, both at the reference
        speed; the worker's report)."""
        report = self.path(workload, ".cli.json")
        argv = [self.py, str(HERE / "worker.py"), "cli", str(report), str(int(trace))]
        argv += [str(self.path(workload, ".spans.npz")), "--", *cli]
        code, wall, peak, _ = run_child(argv, self.env, self.root)
        if code != 0:
            raise BenchError(f"ncbeta batch exited with {code}")
        info = json.loads(report.read_text())
        scale = calib.REF_S / statistics.median(info["ref"])
        info["peak_rss_mb"] = peak
        return (wall - sum(info["ref"])) * scale, [t * scale for t in info["row_us"]], info

    def measure_batch(self, workload):
        rows = make_inputs(workload, self.seed)
        infile = self.path(workload, ".in.csv")
        with open(infile, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "q", "x", "y"])
            w.writerows([[repr(v) for v in r] for r in rows])
        outfile = self.path(workload, ".out.csv")
        cli = ["batch", "--in", str(infile), "--out", str(outfile), "--op", "eval"]
        budget = self.seconds / 2.0 if self.trace else self.seconds
        walls, row_us, rss, first = [], [[] for _ in rows], 0.0, None
        t_end = time.perf_counter() + budget
        while not walls or time.perf_counter() < t_end:
            wall, per_row, info = self.batch_child(workload, cli, False)
            if len(per_row) != len(rows):
                raise BenchError(f"ncbeta batch processed {len(per_row)} of {len(rows)} rows")
            walls.append(wall)
            for acc_row, t in zip(row_us, per_row):
                acc_row.append(t)
            rss = max(rss, info["peak_rss_mb"])
            text = outfile.read_bytes()
            if first is None:
                first = text
            elif text != first:
                raise BenchError("ncbeta batch output changed between runs of the same input")
        results = parse_batch(first.decode(), len(rows))
        acc = judge_eval(rows, results)
        # each row's median over the invocations, plus the median time
        # outside the rows (start-up, CSV I/O): one whole process, with slow
        # spells of the host damped as eval-mixed's per-op medians damp them
        lat = np.array([statistics.median(t) for t in row_us])
        outside = statistics.median(w - sum(t[k] for t in row_us) * 1e-6 for k, w in enumerate(walls))
        timing = {
            "ops_per_s": len(rows) / (lat.sum() * 1e-6 + outside),
            "op_us_p50": float(np.median(lat)),
            "op_us_tail": float(np.percentile(lat, TAIL_PCT)),
            "peak_rss_mb": rss,
        }
        note = (
            f"{len(walls)} invocations of {len(rows)} rows, median {statistics.median(walls):.3f} s, "
            f"{outside:.3f} s of it outside the rows; "
            f"op_us_* are p50 and p{TAIL_PCT:g} of per-row times inside the command"
        )
        layers = None
        if self.trace:
            wall, _, info = self.batch_child(workload, cli, True)
            if outfile.read_bytes() != first:
                acc["wrong"].append("traced batch output differs from the untraced output")
            if not info["restored"]:
                acc["wrong"].append("trace wrappers left installed")
            layers = info["layers"]
            layers["trace.overhead_frac"] = wall / statistics.median(walls) - 1.0
        return rows, acc, timing, note, layers

    # ------------------------------------------------------------------

    def run(self, workload):
        if workload == "batch-eval":
            rows, acc, timing, note, layers = self.measure_batch(workload)
        else:
            rows, res, acc, timing, note = self.measure_ops(workload)
            layers = res.get("layers")
            if self.trace and not res.get("restored", False):
                acc["wrong"].append("trace wrappers left installed")
            if res["jit"]:
                note += "; JIT_ENABLED (compiled path)"
        if self.trace:
            env = environment(self, workload)
            self.path(workload, ".env.json").write_text(json.dumps(env, indent=1))
            metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in per_layer_names()}
        else:
            values = dict(timing, setup_s=self.setup_s(), **acc["fracs"])
            metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
        print(f"{workload} seed={self.seed} seconds={self.seconds:g} trace={int(self.trace)} size={len(rows)}")
        print(f"  {note}")
        print(f"  {acc['note']}")
        for name, m in metrics.items():
            print(f"  {workload} {name} {m['value']:.6g} {m['unit']}")
        for reason in acc["wrong"]:
            print(f"  WRONG: {reason}")
        return {
            "correct": not acc["wrong"],
            "attempted": len(rows),
            "failed": acc["failed"],
            "metrics": metrics,
        }


# ---------------------------------------------------------------------- judging


def _fracs(attempted, failed, returned, tol_met, judged, hits):
    return {
        "ok_frac": (attempted - failed) / attempted,
        "tol_met_frac": tol_met / returned if returned else 0.0,
        "oracle_hit_frac": hits / judged if judged else 0.0,
    }


def judge_eval(rows, results):
    """Accuracy of evaluate results ([b, bbar, method, err_est] or
    ["error", type]) against the oracle."""
    n = len(rows)
    fail_types: dict[str, int] = {}
    ok = np.zeros(n, bool)
    b, bbar, err = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    for i, rec in enumerate(results):
        if rec[0] == "error":
            fail_types[rec[1]] = fail_types.get(rec[1], 0) + 1
            continue
        b[i], bbar[i], err[i] = rec[0], rec[1], rec[3]
        if not (np.isfinite(b[i]) and np.isfinite(bbar[i])):
            fail_types["nonfinite"] = fail_types.get("nonfinite", 0) + 1
            continue
        ok[i] = True
    wrong = []
    out_of_range = ok & ((b < 0) | (b > 1) | (bbar < 0) | (bbar > 1) | (err < 0) | (np.abs(b + bbar - 1) > 1e-15))
    if out_of_range.any():
        wrong.append(f"{int(out_of_range.sum())} results outside [0, 1], not adding to one, or with negative err_est")
    p, q, x, y = np.array(rows, dtype=float).T
    cdf, sf = oracle.members(p, q, x, y)
    judged = ok & oracle.admitted(cdf, sf)
    rel = oracle.smaller_rel_err(b, bbar, cdf, sf)
    hits = judged & (rel <= oracle.HIT_REL)
    gross = judged & ~(rel <= oracle.GROSS_REL)
    large_z = np.array([r[0] != "error" and r[2] == KNOWN_GROSS_ROUTE for r in results])
    known = gross & large_z & (y >= KNOWN_GROSS_MIN_Y)
    if int(known.sum()) > KNOWN_GROSS_MAX:
        wrong.append(
            f"{int(known.sum())} gross large-z misses at y >= {KNOWN_GROSS_MIN_Y:g}, "
            f"more than the known defect's {KNOWN_GROSS_MAX}"
        )
    if (gross & ~known).any():
        wrong.append(f"{int((gross & ~known).sum())} results off the oracle by more than {oracle.GROSS_REL:g} relative")
    failed = n - int(ok.sum())
    returned = int(ok.sum())
    tol_met = int((ok & (err <= TOL_EVAL)).sum())
    false_ok = judged & (err <= TOL_EVAL) & ~hits
    worst = float(np.max(rel[judged])) if judged.any() else 0.0
    note = (
        f"failures {fail_types or 'none'}; err_est <= {TOL_EVAL:g} on {tol_met}/{returned}; "
        f"oracle judged {int(judged.sum())} skipped {returned - int(judged.sum())} hits {int(hits.sum())} "
        f"(worst rel {worst:.2e}; known large-z defect {int(known.sum())}; false successes {int(false_ok.sum())})"
    )
    return {
        "failed": failed,
        "wrong": wrong,
        "note": note,
        "false_ok": false_ok,
        "fracs": _fracs(n, failed, returned, tol_met, int(judged.sum()), int(hits.sum())),
    }


def judge_invert(rows, results):
    """Accuracy of invert results ([value, iterations, residual, seed_path]
    or ["error", type]): reported residual against tol, and the residual the
    oracle finds at the returned root."""
    n = len(rows)
    fail_types: dict[str, int] = {}
    failed = returned = tol_met = judged = hits = 0
    wrong = []
    false_ok = np.zeros(n, bool)
    for i, ((unknown, p, q, fixed, z), rec) in enumerate(zip(rows, results)):
        if rec[0] == "error":
            fail_types[rec[1]] = fail_types.get(rec[1], 0) + 1
            failed += 1
            continue
        root, _, resid, _ = rec
        if not (np.isfinite(root) and np.isfinite(resid)):
            fail_types["nonfinite"] = fail_types.get("nonfinite", 0) + 1
            failed += 1
            continue
        returned += 1
        band = TOL_INVERT * max(z, 1.0 - z)
        claimed = abs(resid) <= band
        tol_met += claimed
        if (unknown == "x" and root < 0) or (unknown == "y" and not 0.0 <= root <= 1.0):
            wrong.append(f"root {root} outside the domain of {unknown}")
            continue
        true_resid, admitted = oracle.inversion_residual(unknown, p, q, fixed, z, root)
        if admitted:
            judged += 1
            hits += abs(true_resid) <= band
            false_ok[i] = claimed and abs(true_resid) > band
            if abs(true_resid) > oracle.GROSS_RESID:
                wrong.append(f"root {root} for ({unknown}, {p}, {q}, {fixed}, {z}) has oracle residual {true_resid:.3g}")
    note = (
        f"failures {fail_types or 'none'}; reported residual within tol on {tol_met}/{returned}; "
        f"oracle judged {judged} skipped {returned - judged} hits {hits}; false successes {int(false_ok.sum())}"
    )
    return {
        "failed": failed,
        "wrong": wrong,
        "note": note,
        "false_ok": false_ok,
        "fracs": _fracs(n, failed, returned, tol_met, judged, hits),
    }


def parse_batch(text, n):
    """``ncbeta batch --op eval`` output rows as evaluate-style records."""
    rows = list(csv.DictReader(text.splitlines()))
    if len(rows) != n:
        raise BenchError(f"ncbeta batch wrote {len(rows)} of {n} rows")
    out = []
    for r in rows:
        if r["method"].startswith("error:"):
            out.append(["error", "error-row"])  # the command reports the message, not the type
        else:
            out.append([float(r["value"]), float(r["complement"]), r["method"], float(r["err_est"])])
    return out


def environment(bench, workload):
    import scipy

    cpu = platform.processor()
    if not cpu and os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    probe = "import ncbeta, json; print(json.dumps([ncbeta.__version__, ncbeta.JIT_ENABLED]))"
    version, jit = json.loads(
        subprocess.run([bench.py, "-c", probe], env=bench.env, cwd=bench.root, capture_output=True, check=True).stdout
    )
    return {
        "workload": workload,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "size": SIZES[workload],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ncbeta": version,
        "JIT_ENABLED": jit,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bench = Bench(Path.cwd(), args.seed, args.seconds, bool(args.trace))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [bench.run(w) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
