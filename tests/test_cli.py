import csv
import subprocess
import sys

import mpmath as mp
import pytest

from ncbeta import cli
from ncbeta.asymptotic import eval_erfc_uniform, eval_large_z, eval_saddle
from ncbeta.cli import main
from ncbeta.kummer_series import eval_kummer_series
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.series import eval_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEval:
    def test_pinned_value_line(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--p", "5", "--q", "5", "--x", "54", "--y", "0.8640")
        assert code == 0
        value, method, err = out.split()
        assert value.startswith("0.4563026193369")
        assert method == "series"
        assert float(err) < 1e-10

    def test_zero_noncentrality(self, capsys):
        # the series answers x = 0; its err_est bounds the true error of the
        # complement, 8.8e-14 here against 40-digit mpmath
        code, out, _ = run_cli(capsys, "eval", "--p", "0.6", "--q", "1500", "--x", "0", "--y", "0.0004",
                               "--complement")
        assert code == 0
        value, method, err = out.split()
        with mp.workdps(40):
            ref = mp.betainc(1500, 0.6, 0, 1 - mp.mpf("0.0004"), regularized=True)
        assert method == "series"
        assert abs(mp.mpf(value) - ref) <= float(err) * ref

    def test_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--p", "3", "--q", "4", "--x", "2", "--y", "1")
        assert code == 0
        assert out.split()[0] == "1" and out.split()[1] == "boundary"

    def test_complement_flag(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--p", "5", "--q", "5", "--x", "54", "--y", "0.8640", "--complement")
        assert code == 0
        assert abs(float(out.split()[0]) - (1.0 - 0.4563026193369792)) < 1e-12

    def test_explain(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--p", "30", "--q", "30", "--x", "100", "--y", "0.1",
                               "--method", "explain")
        assert code == 0
        assert out.split()[0] == "series"
        # the series is the only route: past the old window (x = 3e6), and
        # past the window cap, where it raises
        code, out, _ = run_cli(capsys, "eval", "--p", "5000", "--q", "5e4", "--x", "3e6", "--y", "0.9674",
                               "--method", "explain")
        assert code == 0
        assert out.split()[:2] == ["series", "B"]
        code, out, _ = run_cli(capsys, "eval", "--p", "1", "--q", "1e10", "--x", "1e5", "--y", "0.1",
                               "--method", "explain")
        assert code == 0
        assert out.split()[:2] == ["series", "Bbar"]

    def test_evaluation_failure_exits_3(self, capsys):
        # the complement's window would need 7.05e6 terms
        code, out, err = run_cli(capsys, "eval", "--p", "1", "--q", "1e10", "--x", "1e5", "--y", "0.1")
        assert code == 3
        assert out == "" and err.startswith("error: series window would need")

    def test_invalid_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--p", "-1", "--q", "5", "--x", "1", "--y", "0.5")
        assert code == 2
        assert "error" in err

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--p", "12", "--q", "7", "--x", "33", "--y", "0.6")
        _, out2, _ = run_cli(capsys, "eval", "--p", "12", "--q", "7", "--x", "33", "--y", "0.6")
        assert out1 == out2


def eval_line(pair):
    return f"{pair.b:.17g} {pair.method} {pair.err_est:.3g}\n"


# (method, route, point) with the point inside each route's regime
METHOD_POINTS = [
    ("series", eval_series, (5.0, 5.0, 54.0, 0.864)),
    ("kummer", eval_kummer_series, (10.0, 15.0, 4.5, 0.3)),
    ("large-z", eval_large_z, (2.3, 3.5, 140.0, 0.9)),
    ("saddle", eval_saddle, (30.0, 30.0, 100.0, 0.1)),
    ("erfc", eval_erfc_uniform, (20.0, 20.0, 140.0, 0.9)),
]


class TestMethods:
    @pytest.mark.parametrize("method,route,point", METHOD_POINTS)
    def test_prints_the_route_value(self, capsys, method, route, point):
        p, q, x, y = point
        code, out, _ = run_cli(capsys, "eval", "--p", str(p), "--q", str(q), "--x", str(x), "--y", str(y),
                               "--method", method)
        assert code == 0
        assert out == eval_line(route(ShapeParams(p, q), EvalPoint(x, y)))

    def test_terms_reach_large_z_unchanged(self, capsys, monkeypatch):
        # the (5, 5, 140, 0.9) row of the pinned expansion table, at 4 terms
        counts = []

        def recording(sp, pt, n_terms=5):
            counts.append(n_terms)
            return eval_large_z(sp, pt, n_terms)

        monkeypatch.setitem(cli.EXPANSIONS, "large-z", recording)
        code, out, _ = run_cli(capsys, "eval", "--p", "5", "--q", "5", "--x", "140", "--y", "0.9",
                               "--method", "large-z", "--terms", "4")
        assert code == 0 and counts == [4]
        assert out == eval_line(eval_large_z(ShapeParams(5.0, 5.0), EvalPoint(140.0, 0.9), 4))

    def test_saddle_past_two_terms_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--p", "30", "--q", "30", "--x", "100", "--y", "0.1",
                                 "--method", "saddle", "--terms", "3")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("method", ["large-z", "saddle", "erfc"])
    def test_negative_terms_exit_2(self, capsys, method):
        code, out, _ = run_cli(capsys, "eval", "--p", "30", "--q", "30", "--x", "100", "--y", "0.1",
                               "--method", method, "--terms", "-1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("method", ["auto", "series", "kummer", "explain"])
    def test_terms_without_an_expansion_exit_2(self, capsys, method):
        code, out, err = run_cli(capsys, "eval", "--p", "5", "--q", "5", "--x", "54", "--y", "0.864",
                                 "--method", method, "--terms", "2")
        assert code == 2 and out == "" and "--terms" in err


class TestInvert:
    def test_unknown_x(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--unknown", "x", "--p", "10", "--q", "15",
                               "--y", "0.45", "--z", "0.5")
        assert code == 0
        root, iters, resid = out.split()
        assert abs(float(root) - 4.78289) < 1e-3
        assert int(iters) <= 40
        assert abs(float(resid)) <= 1e-10

    def test_unknown_y(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--unknown", "y", "--p", "10", "--q", "15",
                               "--x", "4.5", "--z", "0.5")
        assert code == 0
        assert abs(float(out.split()[0]) - 0.4471) < 1e-3

    def test_infeasible_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "invert", "--unknown", "x", "--p", "10", "--q", "15",
                               "--y", "0.45", "--z", "0.71")
        assert code == 4
        assert "0.70" in err  # the bound I_y(p, q) is reported

    def test_unconverged_exits_3(self, capsys):
        # the root lies closer to y = 1 than the doubles below 1 reach: at
        # y = 1 - 2.7e-15 the complement is still 1.8e-4 against 1.7e-7
        code, out, err = run_cli(capsys, "invert", "--unknown", "y", "--p", "24.124158516411413",
                                 "--q", "0.3095081672049997", "--x", "379.90104782785556",
                                 "--z", "0.9999998303935156")
        assert code == 3
        assert out == "" and err.startswith("error: inversion did not converge")

    def test_invalid_transition_series_exits_3(self, capsys):
        # at x = 1e20 the y(zeta) seed is invalid (y0 rounds to 1) and the
        # series window is past its cap: a typed failure, not a traceback
        code, out, err = run_cli(capsys, "invert", "--unknown", "y", "--p", "0.157", "--q", "2987",
                                 "--x", "1e20", "--z", "0.3")
        assert code == 3
        assert out == "" and err.startswith("error: series window would need")

    def test_missing_fixed_coordinate(self, capsys):
        code, _, _ = run_cli(capsys, "invert", "--unknown", "x", "--p", "10", "--q", "15", "--z", "0.4")
        assert code == 2

    def test_non_finite_inputs_exit_2(self, capsys):
        # a non-finite fixed noncentrality once escaped as a ValueError from
        # the series reversion of the seed
        base = ["invert", "--unknown", "y", "--p", "3", "--q", "4", "--z", "0.3"]
        for extra in (["--x", "nan"], ["--x", "inf"], ["--x", "2", "--tol", "nan"]):
            code, out, err = run_cli(capsys, *base, *extra)
            assert code == 2
            assert out == "" and err.startswith("error:")


class TestBatch:
    def test_row_per_row_with_errors(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(
            "p,q,x,y\n"
            "5,5,54,0.8640\n"
            "10,15,4.5,0.45\n"
            "3,4,0,0.5\n"
            "-1,4,1,0.5\n"
        )
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert rows[0] == ["p", "q", "x", "y", "value", "complement", "method", "err_est"]
        assert len(rows) == 5  # header + 4 records, order preserved
        assert rows[1][4].startswith("0.4563026193369")
        assert rows[4][6].startswith("error:")

    def test_route_failure_does_not_abort(self, tmp_path, capsys):
        # the second row lies past the series window cap, and its error
        # becomes an error row; the series certifies the vanishing B of the
        # third row, past the old window, directly; the batch goes on
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y\n5,5,54,0.8640\n1,1e10,1e5,0.1\n5000,5e4,3e6,0.95\n10,15,4.5,0.45\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert len(rows) == 5
        assert rows[2][6].startswith("error: series window would need")
        assert [rows[i][6] for i in (1, 3, 4)] == ["series", "series", "series"]
        assert float(rows[3][4]) == eval_series(ShapeParams(5000.0, 5e4), EvalPoint(3e6, 0.95)).b == 0.0

    def test_non_finite_noncentrality_is_a_domain_error_row(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y,z\n3,4,nan,,0.3\n3,4,inf,,0.3\n10,15,4.5,,0.5\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "invert-y")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert [r[6] for r in rows[1:3]] == ["error: fixed noncentrality must be nonnegative and finite; got nan",
                                             "error: fixed noncentrality must be nonnegative and finite; got inf"]
        assert abs(float(rows[3][3]) - 0.4471) < 1e-3

    def test_evaluation_failure_is_an_error_row(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y\n1,1e10,1e5,0.1\n10,15,4.5,0.45\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert len(rows) == 3
        assert rows[1][6].startswith("error:")
        assert rows[2][6] == "series"

    def test_headerless_first_row_with_an_exponent(self, tmp_path, capsys):
        # a first line with a letter was once taken for a header, and the
        # row was lost
        src = tmp_path / "in.csv"
        src.write_text("1e1,5,54,0.864\n10,15,4.5,0.45\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert code == 0
        rows = read_rows(dst)
        assert len(rows) == 3
        src.write_text("10,5,54,0.864\n")
        run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert rows[1] == read_rows(dst)[1]

    def test_batch_row_runs_once_a_row(self, tmp_path, capsys, monkeypatch):
        # the benchmark times each row by wrapping cli._batch_row; the six
        # rows span two blocks of evaluated rows
        seen = []
        original = cli._batch_row

        def counted(row, *args, **kwargs):
            seen.append(row["p"])
            return original(row, *args, **kwargs)

        monkeypatch.setattr(cli, "_batch_row", counted)
        monkeypatch.setattr(cli, "BATCH_BLOCK", 4)
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y\n5,5,54,0.8640\n-1,4,1,0.5\n1,1e10,1e5,0.1\nabc,4,1,0.5\n10,15,0,0.45\n3,4,2,1\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert code == 0
        assert seen == ["5", "-1", "1", "abc", "10", "3"]
        rows = read_rows(dst)
        assert [r[6].split(":")[0] for r in rows[1:]] == ["series", "error", "error", "error", "series", "boundary"]

    def test_invalid_tol_is_an_error_row(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y\n5,5,54,0.8640\n-1,4,1,0.5\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval", "--tol", "0")
        assert code == 0
        rows = read_rows(dst)
        assert rows[1][6] == "error: tol must be positive; got 0.0"
        assert rows[2][6].startswith("error: shape parameter p")

    def test_unconverged_inversion_is_an_error_row(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        # the first row's root lies closer to y = 1 than the doubles reach
        src.write_text("p,q,x,y,z\n24.124158516411413,0.3095081672049997,379.90104782785556,,0.9999998303935156\n"
                       "10,15,4.5,,0.5\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "invert-y")
        assert code == 0
        rows = read_rows(dst)
        assert rows[1][6].startswith("error: inversion did not converge")
        assert abs(float(rows[2][3]) - 0.4471) < 1e-3

    def test_failing_inversion_row_keeps_the_batch(self, tmp_path, capsys):
        # the x = 1e20 row fails typed; the rows around it are answered
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y,z\n10,15,4.5,,0.01\n0.157,2987,1e20,,0.3\n10,15,4.5,,0.99\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "invert-y")
        assert code == 0
        rows = read_rows(dst)
        assert len(rows) == 4
        assert [row[6].startswith("error:") for row in rows[1:]] == [False, True, False]
        assert rows[1][6] == rows[3][6] == "zeta-series"

    def test_invert_ops(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y,z\n10,15,,0.45,0.5\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "invert-x")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert abs(float(rows[1][2]) - 4.78289) < 1e-3

    @pytest.mark.parametrize("op, lines", [
        ("invert-x", ["10,15,,0.45,0.4", "10,15,,0.45,0.6",
                      "2.1988551561389604,13.375452166664628,,0.055242135597182856,0.03914587968126597"]),
        ("invert-y", ["10,15,4.5,,0.01", "10,15,4.5,,0.99", "3.5,40,60,,0.5"]),
    ])
    def test_invert_rows_match_invert(self, tmp_path, capsys, op, lines):
        # without --tol a batch inversion solves at invert's tolerance, not
        # eval's: at 1e-12 the first invert-x row gave 7.4213524305483958,
        # where invert gives 7.4213524304810958
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y,z\n" + "\n".join(lines) + "\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", op)
        assert code == 0
        rows = read_rows(dst)[1:]
        assert len(rows) == len(lines)
        for line, row in zip(lines, rows):
            p, q, x, y, z = line.split(",")
            fixed = ["--y", y] if op == "invert-x" else ["--x", x]
            code, out, _ = run_cli(capsys, "invert", "--unknown", op[-1], "--p", p, "--q", q, *fixed, "--z", z)
            assert code == 0
            assert row[2 if op == "invert-x" else 3] == out.split()[0]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "batch", "--in", str(tmp_path / "nope.csv"),
                             "--out", str(tmp_path / "out.csv"))
        assert code == 2


class TestSelftest:
    def test_tables_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--suite", "tables")
        assert code == 0
        assert "FAIL" not in out
        lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
        assert len(lines) >= 30


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncbeta.cli", "eval", "--p", "3", "--q", "4", "--x", "2", "--y", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.split()[0] == "1"
