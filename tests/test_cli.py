import csv
import subprocess
import sys

import mpmath as mp

import ncbeta.dispatch
from ncbeta.cli import main
from ncbeta.errors import EvaluationError
from ncbeta.params import EvalPoint, ShapeParams
from ncbeta.series import eval_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # past the series window (x = 3e6) the uniform expansion answers
        code, out, _ = run_cli(capsys, "eval", "--p", "5000", "--q", "5e4", "--x", "3e6", "--y", "0.9674",
                               "--method", "explain")
        assert code == 0
        assert out.split()[:2] == ["erfc-uniform", "B"]

    def test_evaluation_failure_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--p", "5", "--q", "1e7", "--x", "3e6", "--y", "0.15")
        assert code == 3
        assert out == "" and err.startswith("error:")

    def test_invalid_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--p", "-1", "--q", "5", "--x", "1", "--y", "0.5")
        assert code == 2
        assert "error" in err

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--p", "12", "--q", "7", "--x", "33", "--y", "0.6")
        _, out2, _ = run_cli(capsys, "eval", "--p", "12", "--q", "7", "--x", "33", "--y", "0.6")
        assert out1 == out2


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

    def test_missing_fixed_coordinate(self, capsys):
        code, _, _ = run_cli(capsys, "invert", "--unknown", "x", "--p", "10", "--q", "15", "--z", "0.4")
        assert code == 2


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

    def test_route_failure_does_not_abort(self, tmp_path, capsys, monkeypatch):
        # the second and third rows lie past the series window; the second is
        # planned for the erfc-uniform expansion, made to fail here, and falls
        # back to the series, which cannot reach it; the series certifies the
        # vanishing B of the third row directly; the batch goes on
        calls = []

        def fail(frame, target):
            calls.append(target)
            raise EvaluationError("erfc-uniform out of regime")

        monkeypatch.setattr(ncbeta.dispatch, "_erfc_uniform", fail)
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y\n5,5,54,0.8640\n5000,5e4,3e6,0.9674\n5000,5e4,3e6,0.95\n10,15,4.5,0.45\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert len(rows) == 5
        assert calls == ["B"]
        assert rows[2][6].startswith("error:") and "series window" in rows[2][6]
        assert [rows[i][6] for i in (1, 3, 4)] == ["series", "series", "series"]
        assert float(rows[3][4]) == eval_series(ShapeParams(5000.0, 5e4), EvalPoint(3e6, 0.95)).b == 0.0

    def test_evaluation_failure_is_an_error_row(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y\n5,1e7,3e6,0.15\n10,15,4.5,0.45\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "eval")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert len(rows) == 3
        assert rows[1][6].startswith("error:")
        assert rows[2][6] == "series"

    def test_invert_ops(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("p,q,x,y,z\n10,15,,0.45,0.5\n")
        dst = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "batch", "--in", str(src), "--out", str(dst), "--op", "invert-x")
        assert code == 0
        rows = list(csv.reader(dst.open()))
        assert abs(float(rows[1][2]) - 4.78289) < 1e-3

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
