"""Command-line interface tests: output schemas, exit codes, determinism."""

import json
import math

import pytest

from mssvs.cli import main, parse_sweep_spec, SweepSpecError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_vacuum_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0", "--m", "0", "--T", "0.5",
            "--eta1", "0", "--eta2", "0", "--no-timestamp",
        )
        assert code == 0
        document = json.loads(out)
        assert document["p_d"] == 1.0
        assert document["var_x"] == pytest.approx(0.5)
        assert document["var_p"] == pytest.approx(0.5)
        assert document["pnd"][0] == pytest.approx(1.0)

    def test_herald_impossible(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0", "--m", "1", "--T", "0.5", "--no-timestamp",
        )
        assert code == 0
        document = json.loads(out)
        assert document["p_d"] == 0.0
        assert document["var_x"] is None
        assert document["pnd"] is None

    def test_wigner_grid_origin_parity(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0.7", "--T", "0.9", "--m", "1",
            "--wigner-grid", "41", "--range", "3", "--no-timestamp",
        )
        assert code == 0
        document = json.loads(out)
        grid = document["wigner"]
        assert grid["points"] == 41
        center = grid["w"][20][20]
        assert center == pytest.approx(-2 / math.pi, abs=1e-6)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "point", "--r", "0.5", "--m", "0", "--T", "1.5", "--no-timestamp",
        )
        assert code == 2
        assert "T" in err

    def test_saturated_squeezing_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "point", "--r", "20", "--T", "0.9", "--m", "1", "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "tanh" in lines[0]

    def test_pnd_max_past_170_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "point", "--r", "1", "--T", "0.9", "--m", "1", "--pnd-max", "180",
            "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "170" in lines[0]

    def test_truncated_adaptive_pnd_is_flagged(self, capsys):
        # r = 2, m = 1 reaches the 64-photon cap with 4e-4 of the mass left out
        code, out, _ = run_cli(
            capsys, "point", "--r", "2", "--T", "0.9", "--m", "1", "--no-timestamp",
        )
        assert code == 0
        document = json.loads(out)
        assert len(document["pnd"]) == 65
        assert math.fsum(document["pnd"]) == pytest.approx(0.9996, abs=1e-4)
        assert document["pnd_truncated"] is True

    @pytest.mark.parametrize("extra", [(), ("--pnd-max", "8")])
    def test_complete_or_fixed_pnd_is_not_flagged(self, capsys, extra):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0.5", "--T", "0.9", "--m", "1", "--no-timestamp",
            *extra,
        )
        assert code == 0
        assert json.loads(out)["pnd_truncated"] is False

    def test_deterministic(self, capsys):
        args = ("point", "--r", "0.4", "--m", "1", "--T", "0.9", "--no-timestamp")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestThreshold:
    def test_reported_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--m", "1", "--T", "0.9", "--no-timestamp",
        )
        assert code == 0
        document = json.loads(out)
        assert document["r_c"] == pytest.approx(0.626381, abs=1e-3)
        assert document["status"] == "threshold"

    def test_always_squeezed_is_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--m", "2", "--T", "0.9", "--no-timestamp",
        )
        assert code == 0
        document = json.loads(out)
        assert document["r_c"] is None
        assert document["status"] == "always-squeezed"


class TestSweepSpecParsing:
    def test_axis_and_fixed(self):
        spec = parse_sweep_spec(
            "axis.r = 0:1:5\nfixed.eta1 = 0\nfixed.eta2 = 0\n"
            "fixed.T = 0.9\nfixed.m = 1\nobservables = prob\n"
        )
        assert spec.point_count() == 5
        assert spec.axes[0][0] == "r"

    def test_comma_list(self):
        spec = parse_sweep_spec(
            "axis.m = 1,2,3\nfixed.r = 0.5\nfixed.eta1 = 0\nfixed.eta2 = 0\n"
            "fixed.T = 0.9\nobservables = prob,variances\n"
        )
        assert spec.axes[0][1] == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("axis.r = 0:1\nobservables = prob\n", "line 1"),
            ("axis.bogus = 0:1:3\nobservables = prob\n", "line 1"),
            ("fixed.r = 0.5\nfixed.r = 0.6\nobservables = prob\n", "line 2"),
            ("what is this\n", "line 1"),
            ("axis.r = 0:1:3\nfixed.eta1 = 0\nfixed.eta2 = 0\nfixed.T = 1\nfixed.m = 0\n", "observable"),
            ("axis.r = 0:1:3\nfixed.eta1 = 0\nfixed.eta2 = 0\nfixed.T = 1\nfixed.m = 0\nobservables = blah\n", "blah"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(SweepSpecError) as info:
            parse_sweep_spec(text)
        assert fragment in str(info.value)

    def test_missing_parameter(self):
        with pytest.raises(SweepSpecError) as info:
            parse_sweep_spec("axis.r = 0:1:3\nobservables = prob\n")
        assert "eta1" in str(info.value)

    @pytest.mark.parametrize(
        "line",
        ["axis.eta1 = 0:2:5", "axis.m = 1.5,2", "fixed.T = 1.2", "axis.r = -0.5,0.5"],
    )
    def test_domain_checked_at_parse_time(self, line):
        base = (
            "fixed.r = 0.5\nfixed.eta1 = 0\nfixed.eta2 = 0\nfixed.T = 0.9\n"
            "fixed.m = 1\nobservables = prob\n"
        )
        name = line.split("=")[0].strip().split(".")[1]
        text = "\n".join(
            l for l in base.splitlines() if not l.startswith(f"fixed.{name}")
        )
        with pytest.raises(SweepSpecError) as info:
            parse_sweep_spec(line + "\n" + text + "\n")
        assert "domain" in str(info.value)


class TestSweep:
    def write_spec(self, tmp_path, text):
        path = tmp_path / "sweep.spec"
        path.write_text(text)
        return str(path)

    def test_squeezing_curve(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0:1.5:16\nfixed.eta1 = 0\nfixed.eta2 = 0\n"
            "fixed.T = 0.9\nfixed.m = 1\nobservables = prob,variances\n",
        )
        out_path = str(tmp_path / "curve.csv")
        code, _, _ = run_cli(capsys, "sweep", spec, "-o", out_path, "--no-timestamp")
        assert code == 0
        lines = [l for l in open(out_path).read().splitlines() if not l.startswith("#")]
        assert lines[0] == "r,p_d,var_x,var_p"
        assert len(lines) == 17
        # r = 0 row heralds nothing: p_d printed as 0, observables empty
        first = lines[1].split(",")
        assert float(first[1]) == 0.0
        assert first[2] == "" and first[3] == ""

    def test_deterministic_csv(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.eta1 = 0,0.5\naxis.eta2 = 0,0.5\nfixed.r = 0.5\n"
            "fixed.T = 0.97\nfixed.m = 1\nobservables = prob\n",
        )
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli(capsys, "sweep", spec, "-o", a, "--no-timestamp")
        run_cli(capsys, "sweep", spec, "-o", b, "--no-timestamp")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_row_order_lexicographic(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.eta1 = 0,0.5\naxis.eta2 = 0,0.25\nfixed.r = 0.5\n"
            "fixed.T = 0.97\nfixed.m = 1\nobservables = prob\n",
        )
        out_path = str(tmp_path / "grid.csv")
        run_cli(capsys, "sweep", spec, "-o", out_path, "--no-timestamp")
        rows = [
            tuple(float(v) for v in line.split(",")[:2])
            for line in open(out_path).read().splitlines()
            if line and not line.startswith("#") and not line.startswith("eta")
        ]
        assert rows == [(0.0, 0.0), (0.0, 0.25), (0.5, 0.0), (0.5, 0.25)]

    def test_single_point_sweep_matches_point(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0.5,\nfixed.eta1 = 0.02\nfixed.eta2 = 0.02\n"
            "fixed.T = 0.97\nfixed.m = 1\nobservables = prob,variances\n",
        )
        out_path = str(tmp_path / "one.csv")
        code, _, _ = run_cli(capsys, "sweep", spec, "-o", out_path, "--no-timestamp")
        assert code == 0
        row = [
            line for line in open(out_path).read().splitlines()
            if line and not line.startswith(("#", "r,"))
        ][0].split(",")
        code, out, _ = run_cli(
            capsys, "point", "--r", "0.5", "--eta1", "0.02", "--eta2", "0.02",
            "--T", "0.97", "--m", "1", "--no-timestamp",
        )
        document = json.loads(out)
        assert float(row[1]) == document["p_d"]
        assert float(row[2]) == document["var_x"]
        assert float(row[3]) == document["var_p"]

    def test_parse_error_exit(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, "axis.r = banana\nobservables = prob\n")
        code, _, err = run_cli(
            capsys, "sweep", spec, "-o", str(tmp_path / "x.csv"), "--no-timestamp",
        )
        assert code == 2
        assert "line 1" in err

    def test_cap_exceeded_exit(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0:1:200\naxis.T = 0:1:200\nfixed.eta1 = 0\n"
            "fixed.eta2 = 0\nfixed.m = 1\nobservables = prob\n",
        )
        code, _, err = run_cli(
            capsys, "sweep", spec, "-o", str(tmp_path / "x.csv"),
            "--max-points", "1000", "--no-timestamp",
        )
        assert code == 3
        assert "cap" in err

    def test_loss_map_edges(self, tmp_path, capsys):
        # success probability over the loss plane: 51 x 51 rows, zero on
        # the complete-loss edges
        spec = self.write_spec(
            tmp_path,
            "axis.eta1 = 0:1:51\naxis.eta2 = 0:1:51\nfixed.r = 0.5\n"
            "fixed.T = 0.97\nfixed.m = 1\nobservables = prob\n",
        )
        out_path = str(tmp_path / "plane.csv")
        code, _, _ = run_cli(capsys, "sweep", spec, "-o", out_path, "--no-timestamp")
        assert code == 0
        rows = [
            line.split(",") for line in open(out_path).read().splitlines()
            if line and not line.startswith(("#", "eta"))
        ]
        assert len(rows) == 2601
        for eta1, eta2, p_d in ((float(a), float(b), float(c)) for a, b, c in rows):
            if eta1 == 1.0 or eta2 == 1.0:
                assert p_d < 1e-12
            else:
                assert p_d > 0.0

    def test_squeezing_curve_crossing(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0:1.5:151\nfixed.eta1 = 0\nfixed.eta2 = 0\n"
            "fixed.T = 0.9\nfixed.m = 1\nobservables = variances\n",
        )
        out_path = str(tmp_path / "curve.csv")
        code, _, _ = run_cli(capsys, "sweep", spec, "-o", out_path, "--no-timestamp")
        assert code == 0
        rows = [
            line.split(",") for line in open(out_path).read().splitlines()
            if line and not line.startswith(("#", "r,"))
        ]
        crossing = None
        previous = None
        for row in rows:
            if row[2] == "":
                continue
            r, var_p = float(row[0]), float(row[2])
            if previous is not None and previous[1] > 0.5 >= var_p:
                crossing = (previous[0] + r) / 2
                break
            previous = (r, var_p)
        step = 1.5 / 150
        assert crossing == pytest.approx(0.626381, abs=2 * step)

    def test_jobs_do_not_reorder(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0.2,0.5,0.8\naxis.m = 1,2\nfixed.eta1 = 0.1\n"
            "fixed.eta2 = 0.1\nfixed.T = 0.9\nobservables = prob,variances\n",
        )
        serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
        run_cli(capsys, "sweep", spec, "-o", serial, "--no-timestamp")
        run_cli(capsys, "sweep", spec, "-o", parallel, "--jobs", "2", "--no-timestamp")
        assert open(serial, "rb").read() == open(parallel, "rb").read()

    def test_threshold_observable(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.m = 1,2\nfixed.r = 0.7\nfixed.eta1 = 0\nfixed.eta2 = 0\n"
            "fixed.T = 0.9\nobservables = threshold\n",
        )
        out_path = str(tmp_path / "thresh.csv")
        code, _, _ = run_cli(capsys, "sweep", spec, "-o", out_path, "--no-timestamp")
        assert code == 0
        rows = [
            line.split(",") for line in open(out_path).read().splitlines()
            if line and not line.startswith(("#", "m,"))
        ]
        assert float(rows[0][1]) == pytest.approx(0.626381, abs=1e-3)
        assert rows[0][2] == "threshold"
        assert rows[1][1] == ""
        assert rows[1][2] == "always-squeezed"


class TestEntryPoint:
    def test_module_invocation(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "mssvs", "threshold", "--m", "2", "--T", "0.9",
             "--no-timestamp"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert '"always-squeezed"' in proc.stdout


class TestValidate:
    def test_small_grid_passes(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("0.5,0.02,0.02,0.97,1\n# comment\n0.3,0,0,0.8,2\n")
        code, out, _ = run_cli(capsys, "validate", "--grid", str(grid))
        assert code == 0
        assert "validation passed" in out

    def test_empty_grid_exit(self, tmp_path, capsys):
        grid = tmp_path / "empty.txt"
        grid.write_text("# nothing here\n")
        code, _, err = run_cli(capsys, "validate", "--grid", str(grid))
        assert code == 2
        assert "no points" in err

    def test_unattainable_tolerance_fails(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("0.5,0.02,0.02,0.97,1\n")
        code, out, _ = run_cli(
            capsys, "validate", "--grid", str(grid),
            "--tolerance", "1e-15", "--abs-tolerance", "1e-17",
        )
        assert code == 1
        assert "FAILED" in out

    def test_malformed_grid_exit(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("0.5,0.02\n")
        code, _, err = run_cli(capsys, "validate", "--grid", str(grid))
        assert code == 2
        assert "line 1" in err
