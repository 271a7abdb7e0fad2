"""Command-line interface: evaluate, invert, batch, selftest.

Exit codes: 0 success, 2 usage or I/O error, 3 evaluation failure,
4 infeasible inversion target.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import chain
from operator import itemgetter

import numpy as np

from .dispatch import evaluate, explain
from .errors import DomainError, EvaluationError
from .params import EvalPoint, ProbabilityPair, ShapeParams
from .series import _check_tol, _evaluate_columns, eval_series

BATCH_HEADER = ["p", "q", "x", "y", "value", "complement", "method", "err_est"]
# eval rows evaluated by one series._evaluate_columns call: bounds the
# columns and plans held at once; a block of 4096 holds the 4000 rows of
# the eval-mixed benchmark set, whose windows then sort and chunk together
BATCH_BLOCK = 4096


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _expansion(name):
    """The route ``asymptotic.<name>``, imported on its first call, so that
    only ``eval --method`` loads the expansions."""

    def route(*args):
        from . import asymptotic

        return getattr(asymptotic, name)(*args)

    return route


# the expansions whose term count --terms sets, each its third argument
EXPANSIONS = {
    "large-z": _expansion("eval_large_z"),
    "saddle": _expansion("eval_saddle"),
    "erfc": _expansion("eval_erfc_uniform"),
}


def _eval_with_method(sp, pt, method: str, tol: float, terms: int | None) -> ProbabilityPair:
    """The pair by the named method; ``terms``, where given, reaches the
    expansion unchanged, and the expansion rejects a count it does not
    implement."""
    if method == "auto":
        return evaluate(sp, pt, tol=tol)
    if method == "series":
        return eval_series(sp, pt)
    if method == "kummer":
        from .kummer_series import eval_kummer_series

        return eval_kummer_series(sp, pt)
    route = EXPANSIONS[method]
    return route(sp, pt) if terms is None else route(sp, pt, terms)


def cmd_eval(args) -> int:
    try:
        if args.terms is not None and args.method not in EXPANSIONS:
            raise DomainError(f"--terms applies to --method {', '.join(EXPANSIONS)}, not {args.method}")
        sp, pt = ShapeParams(args.p, args.q), EvalPoint(args.x, args.y)
        if args.method == "explain":
            choice = explain(sp, pt)
            print(f"{choice.route} {choice.primary_target} {choice.rationale}")
            return 0
        pair = _eval_with_method(sp, pt, args.method, args.tol, args.terms)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    value = pair.bbar if args.complement else pair.b
    print(f"{_fmt(value)} {pair.method} {pair.err_est:.3g}")
    return 0


def _converged(result):
    """The inversion result, or an ``EvaluationError`` where its iteration
    budget ran out outside the residual band."""
    if not result.converged:
        raise EvaluationError(
            f"inversion did not converge: {result.iterations} evaluations ended at "
            f"{_fmt(result.value)} with residual {result.residual:.3g}"
        )
    return result


def cmd_invert(args) -> int:
    from .inversion import InversionProblem, invert

    try:
        sp = ShapeParams(args.p, args.q)
        fixed = args.y if args.unknown == "x" else args.x
        if fixed is None:
            print(f"error: --{'y' if args.unknown == 'x' else 'x'} is required", file=sys.stderr)
            return 2
        problem = InversionProblem(unknown=args.unknown, sp=sp, fixed=fixed, z=args.z, tol=args.tol)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = _converged(invert(problem))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"{_fmt(result.value)} {result.iterations} {result.residual:.3g}")
    return 0


def _batch_fields(row, keys="pqxyz"):
    """A batch row's fields named in keys, each read once: p, q, x, y and z,
    or p, q, x and y for eval, which reads no z.  A blank or missing field
    is nan; any other field that is not a float raises float's ValueError."""
    return [math.nan if (v := row.get(k)) is None or not v.strip() else float(v) for k in keys]


def _is_header(line: str) -> bool:
    """Whether a batch file's first line is a header: one of its fields is
    neither blank nor a float."""
    for field in next(csv.reader([line]), []):
        try:
            if field.strip():
                float(field)
        except ValueError:
            return True
    return False


# a row's eval fields, in the order of the columns
_EVAL_FIELDS = itemgetter("p", "q", "x", "y")


def _eval_block(rows, tol: float) -> list:
    """Each eval row's (p, q, x, y, b, bbar, method, err_est), as floats
    and the method, or the exception the row raises: a parse error, then a
    domain error (each row's message is that of ``ShapeParams`` and
    ``EvalPoint``, built only for the rows the columns refuse), then an
    invalid ``tol``, then the evaluation's own error.  The rows' fields go
    straight into float columns, read as ``_batch_fields`` reads them, and
    the valid rows are evaluated together by one
    ``series._evaluate_columns`` call."""
    m = len(rows)
    failed: dict = {}
    try:
        cols = np.fromiter(map(float, chain.from_iterable(map(_EVAL_FIELDS, rows))), float, 4 * m)
    except (KeyError, TypeError, ValueError):  # a blank, missing or non-float field
        cols = np.empty(4 * m)
        for i, row in enumerate(rows):
            try:
                cols[4 * i : 4 * i + 4] = _batch_fields(row, "pqxy")
            except ValueError as exc:
                cols[4 * i : 4 * i + 4] = math.nan
                failed[i] = exc
    p, q, x, y = cols.reshape(m, 4).T
    # the points ShapeParams and EvalPoint accept; nan fails every test
    ok = (p > 0.0) & (p < math.inf) & (q > 0.0) & (q < math.inf) & (x >= 0.0) & (x < math.inf)
    ok &= (y >= 0.0) & (y <= 1.0)
    fields = [v.tolist() for v in (p, q, x, y)]
    for i in np.flatnonzero(~ok).tolist():
        try:
            ShapeParams(fields[0][i], fields[1][i])
            EvalPoint(fields[2][i], fields[3][i])
        except DomainError as exc:
            failed.setdefault(i, exc)
    slots = np.flatnonzero(ok)
    b, bbar, err = (np.full(m, math.nan) for _ in range(3))
    method = np.full(m, "", dtype=object)
    try:
        _check_tol(tol)
    except DomainError as exc:  # an invalid tol fails every valid row
        failed.update(dict.fromkeys(slots.tolist(), exc))
    else:
        columns = _evaluate_columns(p[slots], q[slots], x[slots], y[slots])
        b[slots], bbar[slots], err[slots], method[slots], bad = columns
        failed.update((int(slots[k]), exc) for k, exc in bad.items())
    out = list(zip(*fields, b.tolist(), bbar.tolist(), method.tolist(), err.tolist()))
    for i, exc in failed.items():
        out[i] = exc
    return out


def cmd_batch(args) -> int:
    try:
        fin = open(args.infile, newline="")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with fin:
        sample = fin.read(512)
        fin.seek(0)
        if _is_header(sample.split("\n", 1)[0]):
            reader = csv.DictReader(fin)
        else:
            reader = csv.DictReader(fin, fieldnames=["p", "q", "x", "y", "z"])
        rows = list(reader)
    # without --tol each op keeps its own default: eval's, or InversionProblem's
    tol = args.tol
    if tol is None and args.op == "eval":
        tol = 1e-12
    elif tol is None:
        from .inversion import InversionProblem

        tol = InversionProblem.tol
    out_rows = []
    for start in range(0, len(rows), BATCH_BLOCK):
        block = rows[start : start + BATCH_BLOCK]
        # eval rows are evaluated together; _batch_row still runs once a row
        done = _eval_block(block, tol) if args.op == "eval" else [None] * len(block)
        for row, result in zip(block, done):
            out_rows.append(_batch_row(row, args.op, tol, result))
    try:
        fout = open(args.outfile, "w", newline="")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with fout:
        writer = csv.writer(fout)
        writer.writerow(BATCH_HEADER)
        writer.writerows(out_rows)
    return 0


def _batch_row(row, op: str, tol: float, done):
    """One output row.  For ``eval``, ``done`` is the row's entry from
    ``_eval_block``, formatted here; the inversion ops solve the row."""
    try:
        if op == "eval":
            if isinstance(done, Exception):
                raise done
            p, q, x, y, b, bbar, method, err = done
            return [p, q, x, y, _fmt(b), _fmt(bbar), method, f"{err:.3g}"]
        from .inversion import InversionProblem, invert

        p, q, x, y, z = _batch_fields(row)
        sp = ShapeParams(p, q)
        if op not in ("invert-x", "invert-y"):
            raise DomainError(f"unknown batch op {op!r}")
        solve_x = op == "invert-x"
        res = _converged(invert(InversionProblem(op[-1], sp, y if solve_x else x, z, tol)))
        x, y = (_fmt(res.value), y) if solve_x else (x, _fmt(res.value))
        return [p, q, x, y, _fmt(z), _fmt(1.0 - z), res.seed_path, f"{res.residual:.3g}"]
    except (DomainError, EvaluationError, ValueError) as exc:
        msg = str(exc).replace(",", ";").replace("\n", " ")
        return [row.get("p", ""), row.get("q", ""), row.get("x", ""), row.get("y", ""), "", "", f"error: {msg}", ""]


def cmd_selftest(args) -> int:
    from .selftest import run_suite

    try:
        results = run_suite(args.suite)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        line = f"{tag} {res.name}"
        if res.detail:
            line += f" :: {res.detail}"
        print(line)
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncbeta",
        description="Noncentral beta and noncentral F cumulative distributions: "
        "evaluation and inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate the CDF and its complement at a point")
    pe.add_argument("--p", type=float, required=True, help="first shape parameter (> 0)")
    pe.add_argument("--q", type=float, required=True, help="second shape parameter (> 0)")
    pe.add_argument("--x", type=float, required=True, help="noncentrality (>= 0)")
    pe.add_argument("--y", type=float, required=True, help="quantile in [0, 1]")
    pe.add_argument("--tol", type=float, default=1e-12, help="target relative accuracy")
    pe.add_argument(
        "--method",
        choices=["auto", "series", "kummer", "large-z", "saddle", "erfc", "explain"],
        default="auto",
        help="evaluation route (auto dispatches; explain prints the choice)",
    )
    pe.add_argument(
        "--terms",
        type=int,
        default=None,
        help="term count of the large-z, saddle or erfc expansion (default: the expansion's own); "
        "a count the expansion does not implement exits 2",
    )
    pe.add_argument("--complement", action="store_true", help="print the complement instead")
    pe.set_defaults(func=cmd_eval)

    pi = sub.add_parser("invert", help="solve B(x, y) = z for x or y")
    pi.add_argument("--unknown", choices=["x", "y"], required=True)
    pi.add_argument("--p", type=float, required=True)
    pi.add_argument("--q", type=float, required=True)
    pi.add_argument("--x", type=float, default=None, help="fixed noncentrality (when solving for y)")
    pi.add_argument("--y", type=float, default=None, help="fixed quantile (when solving for x)")
    pi.add_argument("--z", type=float, required=True, help="target probability in (0, 1)")
    pi.add_argument("--tol", type=float, default=1e-10)
    pi.set_defaults(func=cmd_invert)

    pb = sub.add_parser("batch", help="process a CSV of rows independently")
    pb.add_argument("--in", dest="infile", required=True, help="input CSV (p,q,x,y[,z])")
    pb.add_argument("--out", dest="outfile", required=True, help="output CSV")
    pb.add_argument("--op", choices=["eval", "invert-x", "invert-y"], default="eval")
    pb.add_argument("--tol", type=float, default=None,
                    help="target relative accuracy (default: 1e-12 for eval, 1e-10 for the invert ops)")
    pb.set_defaults(func=cmd_batch)

    ps = sub.add_parser("selftest", help="run the built-in verification suites")
    ps.add_argument("--suite", choices=["tables", "invariants", "all"], default="all")
    ps.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
