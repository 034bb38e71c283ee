"""Command-line interface tests: output schemas, exit codes, determinism."""

import itertools
import json
import math
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest

from mssvs import cli, observables
from mssvs.circuit import CircuitColumns, CircuitParams
from mssvs.cli import main, parse_sweep_spec, ResultTable, SweepSpecError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def per_row_reference(spec):
    """The CSV data lines of a sweep, computed row by row from CircuitParams.

    Rows run over the axes in lexicographic order; every number is written
    with ``repr``, and the cells of an unheralded row stay empty.
    """
    names = [name for name, _ in spec.axes]
    rows = []
    for combo in itertools.product(*(values for _, values in spec.axes)):
        v = {**spec.fixed, **dict(zip(names, combo))}
        params = CircuitParams(v["r"], v["eta1"], v["eta2"], v["T"], int(v["m"]))
        rows.append((combo, params, observables.success_probability(params)))
    heralded_keys = {(p.m, p.T, p.eta1, p.eta2) for _, p, pd in rows if pd > 0.0}
    axis = np.linspace(-spec.wigner_range, spec.wigner_range, spec.wigner_points)
    lines = []
    for combo, params, pd in rows:
        cells = [repr(v) for v in combo]
        for name in spec.observables:
            if name == "prob":
                cells.append(repr(pd))
            elif name == "threshold":
                key = (params.m, params.T, params.eta1, params.eta2)
                if key in heralded_keys:
                    scan = observables.squeezing_threshold_scan(*key)
                    cells += ["" if scan.r_c is None else repr(scan.r_c), scan.status]
                else:
                    cells += ["", ""]
            elif pd == 0.0:
                cells += [""] * (spec.pnd_max + 1 if name == "pnd" else 2)
            elif name == "variances":
                var = observables.variances(params)
                cells += [repr(float(var.var_x)), repr(float(var.var_p))]
            elif name == "pnd":
                cells += [repr(v) for v in observables.pnd_vector(params, spec.pnd_max).tolist()]
            else:
                origin = observables.wigner_array(params, [0.0], [0.0])[0, 0]
                w_min = observables.wigner_array(params, axis, axis).min()
                cells += [repr(float(origin)), repr(float(w_min))]
        lines.append(",".join(cells))
    return lines


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

    def test_capacity_error_exits_3(self, capsys):
        # m = 33 needs a herald box of total order 66, above the cap 64
        code, out, err = run_cli(
            capsys, "point", "--r", "1", "--T", "0.9", "--m", "33", "--no-timestamp",
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: total derivative order 66 exceeds the cap 64"]

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

    @pytest.mark.parametrize("option,value", [("--pnd-max", "-1"), ("--wigner-grid", "-3")])
    def test_negative_option_is_a_usage_error(self, capsys, option, value):
        code, out, err = run_cli(
            capsys, "point", "--r", "1", "--T", "0.9", "--m", "1", option, value,
            "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and option in lines[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_range_is_a_usage_error(self, capsys, value):
        code, out, err = run_cli(
            capsys, "point", "--r", "1", "--T", "0.9", "--m", "1", "--wigner-grid", "2",
            f"--range={value}", "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "--range" in lines[0]

    def test_wigner_grid_zero_is_no_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--r", "1", "--T", "0.9", "--m", "1", "--wigner-grid", "0",
            "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["wigner"] is None

    def test_wigner_grid_matches_library_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0.8", "--T", "0.93", "--eta1", "0.1", "--eta2", "0.05",
            "--m", "2", "--wigner-grid", "7", "--range", "2.5", "--no-timestamp",
        )
        assert code == 0
        grid = json.loads(out)["wigner"]
        points = observables.wigner_grid(
            CircuitParams(0.8, 0.1, 0.05, 0.93, 2), (-2.5, 2.5), (-2.5, 2.5), 7
        )
        assert grid["x"] == [points[7 * i].x for i in range(7)]
        assert grid["y"] == [points[j].y for j in range(7)]
        assert grid["w"] == [[points[7 * i + j].w for j in range(7)] for i in range(7)]

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

    @pytest.mark.parametrize(
        "extra",
        [("--m", "3", "--wigner-grid", "7"), ("--m", "0", "--wigner-grid", "1"),
         ("--m", "2", "--wigner-grid", "4", "--range", "1e-320"), ("--m", "1",)],
    )
    def test_output_is_the_indent_2_json_encoding(self, capsys, extra):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0.9", "--T", "0.9", "--eta1", "0.1", "--eta2", "0.1",
            *extra,
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_grid_rows_are_written_as_json_writes_them(self):
        values = [-0.0, 0.0, 5e-324, 1e-5, 1.0, 1e16, -1.7976931348623157e308, 0.1 + 0.2]
        document = {
            "p_d": 0.5, "pnd": [0.25, 0.75],
            "wigner": {"range": 3.0, "points": 2, "x": [-3.0, 3.0], "y": [-3.0, 3.0],
                       "w": [values[:4], values[4:]]},
            "metadata": {"tool": "mssvs"},
        }
        assert cli._point_json(document) == json.dumps(document, indent=2)
        document["wigner"]["w"] = [values]
        assert cli._point_json(document) == json.dumps(document, indent=2)
        document["wigner"] = None
        assert cli._point_json(document) == json.dumps(document, indent=2)

    def test_non_finite_wigner_value_is_an_error(self, capsys):
        # |beta| = 1e200 overflows the grid's power columns and envelope
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "point", "--r", "1", "--T", ".9", "--eta1", ".1", "--eta2", ".1",
                "--m", "3", "--wigner-grid", "3", "--range", "1e200", "--no-timestamp",
            )
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: Wigner function is not finite")
        assert "m=3" in lines[0]

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

    def test_past_the_taylor_box_cap(self, capsys):
        # Var(P) needs no Taylor box, so m = 40 is scanned like m = 2
        code, out, err = run_cli(
            capsys, "threshold", "--m", "40", "--T", "0.9", "--eta1", "0.05", "--eta2", "0.05",
            "--r-max", "2", "--no-timestamp",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "always-squeezed"

    def test_unscanned_range_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "threshold", "--m", "1", "--T", "0.9", "--r-max", "-1", "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "r_max" in lines[0]


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
        ["axis.eta1 = 0:2:5", "axis.m = 1.5,2", "fixed.T = 1.2", "axis.r = -0.5,0.5",
         "axis.m = 2,inf"],
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

    @pytest.mark.parametrize(
        "option",
        ["pnd.max = -1", "pnd.max = 2.7", "wigner.points = 0", "wigner.points = 2.5",
         "wigner.range = nan", "wigner.range = inf", "wigner.range = -inf"],
    )
    def test_bad_option_is_a_parse_error(self, tmp_path, capsys, option):
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0.5,1\nfixed.eta1 = 0\nfixed.eta2 = 0\nfixed.T = 0.9\n"
            f"fixed.m = 1\nobservables = prob,pnd,wigner\n{option}\n",
        )
        code, out, err = run_cli(
            capsys, "sweep", spec, "-o", str(tmp_path / "x.csv"), "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: line 7:")
        assert option.split(" = ")[0] in lines[0]
        assert not (tmp_path / "x.csv").exists()

    def test_saturated_squeezing_is_a_parse_error(self, tmp_path, capsys):
        # tanh(20) rounds to 1: the check CircuitParams applies, at parse time
        spec = self.write_spec(
            tmp_path,
            "axis.eta1 = 0,0.1\nfixed.eta2 = 0\nfixed.T = 0.9\nfixed.m = 1\n"
            "observables = prob\n# saturated squeezing\nfixed.r = 20\n",
        )
        code, out, err = run_cli(
            capsys, "sweep", spec, "-o", str(tmp_path / "x.csv"), "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: line 7:")
        assert "tanh" in lines[0]
        assert not (tmp_path / "x.csv").exists()

    def prob_spec(self, tmp_path):
        return self.write_spec(
            tmp_path,
            "axis.eta1 = 0:1:5\naxis.m = 1,2\nfixed.r = 0.6\nfixed.eta2 = 0.1\n"
            "fixed.T = 0.9\nobservables = prob\n",
        )

    def test_refuses_a_target_that_is_not_a_regular_file(self, tmp_path, capsys):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match="not a regular file"):
            ResultTable(columns=["a"]).write_csv(str(fifo))
        code, out, err = run_cli(
            capsys, "sweep", self.prob_spec(tmp_path), "-o", str(fifo), "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.csv", "sweep.spec"]

    def test_missing_output_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", self.prob_spec(tmp_path), "-o", str(target), "--no-timestamp",
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "missing" in lines[0]

    def test_prob_column_is_one_call_per_m(self, tmp_path, capsys, monkeypatch):
        original = observables.success_probability
        calls = []

        def counting(params):
            calls.append(params)
            return original(params)

        monkeypatch.setattr(observables, "success_probability", counting)
        for name in ("variances", "pnd_vector", "wigner", "wigner_array"):
            monkeypatch.setattr(observables, name, lambda *a, **k: pytest.fail("per-row call"))
        out_path = str(tmp_path / "map.csv")
        code, _, _ = run_cli(
            capsys, "sweep", self.prob_spec(tmp_path), "-o", out_path, "--no-timestamp"
        )
        assert code == 0
        assert [(batch.m, len(batch)) for batch in calls] == [(1, 5), (2, 5)]
        rows = [
            line.split(",") for line in open(out_path).read().splitlines()
            if line and not line.startswith(("#", "eta1,"))
        ]
        assert len(rows) == 10
        for eta1, m, pd in rows:
            want = original(CircuitParams(0.6, float(eta1), 0.1, 0.9, int(float(m))))
            assert float(pd) == pytest.approx(want, rel=1e-12, abs=1e-15)

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

    def test_capacity_error_exits_3(self, tmp_path, capsys):
        # p_d at m = 33 needs no Taylor box; P(n) there still needs one of
        # total order 66, above the cap 64
        text = (
            "axis.r = 0.5,1\nfixed.eta1 = 0.1\nfixed.eta2 = 0.1\nfixed.T = 0.9\n"
            "fixed.m = 33\nobservables = {}\n"
        )
        prob_path = tmp_path / "prob.csv"
        code, out, err = run_cli(capsys, "sweep", self.write_spec(tmp_path, text.format("prob")),
                                 "-o", str(prob_path), "--no-timestamp")
        assert (code, err) == (0, "")
        assert len(self.read_rows(str(prob_path))) == 2
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", self.write_spec(tmp_path, text.format("pnd")),
                                 "-o", str(out_path), "--no-timestamp")
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: total derivative order 66 exceeds the cap 64"]
        assert not out_path.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", self.prob_spec(tmp_path), "-o", str(out_path), "--jobs", jobs,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --jobs must be at least 1, got {jobs}"]
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "jobs,cpus,spec_name,size",
        [
            ("100000", 4, "UNHERALDED_SPEC", 4),  # 3 chunks + 4 threshold keys
            ("3", 4, "UNHERALDED_SPEC", 3),
            ("100000", 64, "EIGHT_ROW_SPEC", 2),  # 2 chunks, one per m
            ("100000", None, "UNHERALDED_SPEC", None),  # cpu_count unknown: serial
            ("100000", 4, "ONE_TASK_SPEC", None),
        ],
    )
    def test_pool_size_is_bounded_by_cpus_and_tasks(
        self, tmp_path, capsys, monkeypatch, jobs, cpus, spec_name, size
    ):
        sizes = []

        class InProcessPool:
            """Records the pool size it is asked for and runs tasks in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        spec = self.write_spec(tmp_path, getattr(self, spec_name))
        serial, pooled = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
        assert run_cli(capsys, "sweep", spec, "-o", serial, "--no-timestamp")[0] == 0
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, _, _ = run_cli(capsys, "sweep", spec, "-o", pooled, "--jobs", jobs, "--no-timestamp")
        assert code == 0
        assert sizes == ([] if size is None else [size])
        assert open(serial, "rb").read() == open(pooled, "rb").read()

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

    def test_jobs_do_not_change_mixed_observables(self, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0.3,0.7,1.1\naxis.m = 1,2\nfixed.eta1 = 0.05\nfixed.eta2 = 0.1\n"
            "fixed.T = 0.9\nobservables = prob,variances,pnd,wigner,threshold\n"
            "pnd.max = 4\nwigner.points = 5\n",
        )
        serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
        assert run_cli(capsys, "sweep", spec, "-o", serial, "--no-timestamp")[0] == 0
        assert run_cli(
            capsys, "sweep", spec, "-o", parallel, "--jobs", "2", "--no-timestamp"
        )[0] == 0
        assert open(serial, "rb").read() == open(parallel, "rb").read()

    # eta2 = 1 rows (no detection for m >= 1) and r = 0 rows sit between
    # heralded rows; m = 0 heralds everywhere.
    UNHERALDED_SPEC = (
        "axis.r = 0,0.4,0.9\naxis.m = 0,1,3\naxis.eta2 = 0.1,1\nfixed.eta1 = 0.05\n"
        "fixed.T = 0.9\nobservables = prob,variances,pnd,wigner,threshold\n"
        "pnd.max = 5\nwigner.points = 7\nwigner.range = 2.5\n"
    )

    EIGHT_ROW_SPEC = (
        "axis.r = 0.2,0.4,0.6,0.8\naxis.m = 1,2\nfixed.eta1 = 0.1\nfixed.eta2 = 0.1\n"
        "fixed.T = 0.9\nobservables = prob,variances\n"
    )
    ONE_TASK_SPEC = (
        "axis.r = 0.2,0.4,0.6\nfixed.m = 1\nfixed.eta1 = 0.1\nfixed.eta2 = 0.1\n"
        "fixed.T = 0.9\nobservables = prob,pnd\n"
    )
    PROB_MAP_SPEC = (
        "axis.eta1 = 0:1:21\naxis.eta2 = 0:1:21\nfixed.r = 0.8\nfixed.T = 0.9\n"
        "fixed.m = 2\nobservables = prob\n"
    )

    @pytest.mark.parametrize("spec_name", ["PROB_MAP_SPEC", "UNHERALDED_SPEC"])
    def test_csv_equals_the_per_row_reference(self, tmp_path, capsys, spec_name):
        text = getattr(self, spec_name)
        out_path = str(tmp_path / "out.csv")
        code, _, _ = run_cli(capsys, "sweep", self.write_spec(tmp_path, text), "-o", out_path,
                             "--no-timestamp")
        assert code == 0
        lines = [line for line in open(out_path).read().splitlines() if not line.startswith("#")]
        assert lines[1:] == per_row_reference(parse_sweep_spec(text))

    @staticmethod
    def read_rows(path):
        lines = [line for line in open(path).read().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def test_unheralded_rows_between_heralded_rows(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, self.UNHERALDED_SPEC)
        serial, parallel = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
        assert run_cli(capsys, "sweep", spec, "-o", serial, "--no-timestamp")[0] == 0
        assert run_cli(
            capsys, "sweep", spec, "-o", parallel, "--jobs", "2", "--no-timestamp"
        )[0] == 0
        assert open(serial, "rb").read() == open(parallel, "rb").read()

        rows = self.read_rows(serial)
        assert len(rows) == 18
        axis = np.linspace(-2.5, 2.5, 7)
        pnd_columns = [f"pnd_{n}" for n in range(6)]
        heralded = 0
        for row in rows:
            eta2, m = float(row["eta2"]), int(float(row["m"]))
            params = CircuitParams(float(row["r"]), 0.05, eta2, 0.9, m)
            pd = observables.success_probability(params)
            assert row["p_d"] == repr(pd)
            threshold = [row["r_c"], row["squeezing"]]
            if m > 0 and eta2 == 1.0:
                # no row of this (m, T, eta1, eta2) heralds: no scan
                assert threshold == ["", ""]
            else:
                scan = observables.squeezing_threshold_scan(m, 0.9, 0.05, eta2)
                assert threshold == ["" if scan.r_c is None else repr(scan.r_c), scan.status]
            cells = [row[c] for c in ["var_x", "var_p", *pnd_columns, "w_origin", "w_min"]]
            if pd == 0.0:
                assert cells == [""] * len(cells)
                continue
            heralded += 1
            var = observables.variances(params)
            assert [row["var_x"], row["var_p"]] == [repr(float(var.var_x)), repr(float(var.var_p))]
            pnd = observables.pnd_vector(params, 5).tolist()
            assert [row[c] for c in pnd_columns] == [repr(v) for v in pnd]
            assert float(row["w_origin"]) == pytest.approx(
                observables.wigner(params, 0.0, 0.0).w, rel=1e-12, abs=1e-15
            )
            assert float(row["w_min"]) == pytest.approx(
                observables.wigner_array(params, axis, axis).min(), rel=1e-12, abs=1e-15
            )
        assert heralded == 10

    def test_chunk_split_does_not_change_the_csv(self, tmp_path, capsys, monkeypatch):
        spec = self.write_spec(tmp_path, self.UNHERALDED_SPEC)
        original = observables.pnd_vector
        batches = []

        def recording(params, n_max=None):
            batches.append(len(params))
            return original(params, n_max)

        monkeypatch.setattr(observables, "pnd_vector", recording)
        whole, split = str(tmp_path / "whole.csv"), str(tmp_path / "split.csv")
        assert run_cli(capsys, "sweep", spec, "-o", whole, "--no-timestamp")[0] == 0
        # one call per m over its heralded rows
        assert batches == [6, 2, 2]
        del batches[:]
        monkeypatch.setattr(cli, "_PD_BATCH_CELLS", 1)
        assert run_cli(capsys, "sweep", spec, "-o", split, "--no-timestamp")[0] == 0
        assert batches == [1] * 10
        assert open(whole, "rb").read() == open(split, "rb").read()

    def test_non_finite_wigner_value_is_an_error(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, (
            "axis.r = 0.5,0.8\nfixed.m = 2\nfixed.eta1 = 0.1\nfixed.eta2 = 0.1\n"
            "fixed.T = 0.9\nobservables = prob,wigner\nwigner.range = 1e200\n"
            "wigner.points = 5\n"
        ))
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", spec, "-o", str(out_path), "--no-timestamp")
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: Wigner function is not finite")
        assert not out_path.exists()

    def test_one_threshold_scan_per_key(self, tmp_path, capsys, monkeypatch):
        original = observables.squeezing_threshold_scan
        keys = []

        def counting(*args, **kwargs):
            keys.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(observables, "squeezing_threshold_scan", counting)
        spec = self.write_spec(
            tmp_path,
            "axis.r = 0.2,0.5,0.8,1.1\naxis.m = 1,2\nfixed.eta1 = 0.1\nfixed.eta2 = 0\n"
            "fixed.T = 0.9\nobservables = threshold,wigner\nwigner.points = 5\n",
        )
        out_path = str(tmp_path / "thresh.csv")
        code, _, _ = run_cli(capsys, "sweep", spec, "-o", out_path, "--no-timestamp")
        assert code == 0
        assert keys == [(1, 0.9, 0.1, 0.0), (2, 0.9, 0.1, 0.0)]
        rows = [
            line.split(",") for line in open(out_path).read().splitlines()
            if line and not line.startswith(("#", "r,"))
        ]
        assert len(rows) == 8
        for row in rows:
            scan = original(int(float(row[1])), 0.9, 0.1, 0.0)
            assert row[2:4] == ["" if scan.r_c is None else repr(scan.r_c), scan.status]

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

    # m = 8 on a 101-point window, split into chunks of 17 rows
    HIGH_M_SPEC = (
        "axis.r = 0.2:1.4:20\naxis.eta2 = 0.05,0.2\nfixed.m = 8\nfixed.eta1 = 0.1\n"
        "fixed.T = 0.9\nobservables = wigner\nwigner.points = 101\n"
    )

    @pytest.mark.parametrize("spec_name", ["UNHERALDED_SPEC", "HIGH_M_SPEC"])
    def test_wigner_cells_are_the_library_values(self, tmp_path, capsys, monkeypatch, spec_name):
        text = getattr(self, spec_name)
        spec = parse_sweep_spec(text)
        original = observables._wigner_values
        calls = []

        def counting(params, beta):
            calls.append(len(params))
            return original(params, beta)

        monkeypatch.setattr(observables, "_wigner_values", counting)
        out_path = str(tmp_path / "out.csv")
        assert run_cli(capsys, "sweep", self.write_spec(tmp_path, text), "-o", out_path,
                       "--no-timestamp")[0] == 0
        monkeypatch.setattr(observables, "_wigner_values", original)
        rows = self.read_rows(out_path)
        # one kernel call per chunk of heralded rows of one m
        heralded = [row for row in rows if row["w_origin"]]
        ms = [int(float(row.get("m", spec.fixed.get("m")))) for row in heralded]
        assert calls == [
            len(chunk)
            for m in dict.fromkeys(ms)
            for chunk in cli._chunks(np.arange(ms.count(m)), cli._cells_per_row(spec, m))
        ]
        assert len(calls) == 3
        axis = np.linspace(-spec.wigner_range, spec.wigner_range, spec.wigner_points)
        for row in heralded:
            values = {**spec.fixed, **{name: float(row[name]) for name, _ in spec.axes}}
            params = CircuitParams(values["r"], values["eta1"], values["eta2"], values["T"],
                                   int(values["m"]))
            assert float(row["w_origin"]) == observables.wigner(params, 0.0, 0.0).w
            assert float(row["w_min"]) == observables.wigner_array(params, axis, axis).min()

    @pytest.mark.parametrize("call", ["success_probability", "variances"])
    def test_pd_chunk_stays_within_the_cell_budget(self, call):
        # the herald sums hold a fixed number of arrays per row at any m
        chunk = cli._chunks(np.arange(100_000), cli._PD_ARRAYS)[0]
        assert len(chunk) == cli._PD_BATCH_CELLS // cli._PD_ARRAYS
        columns = CircuitColumns(np.linspace(0.2, 1.2, len(chunk)), 0.1, 0.1, 0.9, 40)
        tracemalloc.start()
        try:
            getattr(observables, call)(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._PD_BATCH_CELLS * np.dtype(float).itemsize

    def test_wigner_chunk_stays_within_the_cell_budget(self):
        spec = parse_sweep_spec(
            "axis.r = 0.2:1.2:40\nfixed.m = 8\nfixed.eta1 = 0.1\nfixed.eta2 = 0.1\n"
            "fixed.T = 0.9\nobservables = wigner\nwigner.points = 201\n"
        )
        chunk = cli._chunks(np.arange(40), cli._cells_per_row(spec, 8))[0]
        assert len(chunk) > 1
        columns = CircuitColumns(np.linspace(0.2, 1.2, 40)[chunk], 0.1, 0.1, 0.9, 8)
        tracemalloc.start()
        try:
            cli._evaluate_chunk((columns, spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cli._PD_BATCH_CELLS * np.dtype(complex).itemsize


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


    def test_parser_is_built_once_and_parses_like_a_fresh_process(self, capsys, monkeypatch):
        import subprocess
        import sys

        monkeypatch.setenv("COLUMNS", "100")
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        requests = [
            ["point", "--r", "0.6", "--T", "0.9", "--m", "2", "--wigner-grid", "3",
             "--no-timestamp"],
            ["threshold", "--m", "1", "--T", "0.9", "--no-timestamp"],
            ["--help"],
        ]
        fresh = [
            subprocess.run([sys.executable, "-m", "mssvs", *argv],
                           capture_output=True, text=True, env=env)
            for argv in requests
        ]
        # each request twice in this process, after the others
        for argv, proc in zip(requests + requests, fresh + fresh):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help exits after printing
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)
        assert cli._build_parser() is cli._build_parser()


class TestWithoutScipy:
    def test_runtime_needs_no_scipy(self, tmp_path):
        # SciPy is a test dependency only: with its import blocked, a point
        # and a two-point validation still run through the CLI.
        import subprocess
        import sys

        grid = tmp_path / "grid.txt"
        grid.write_text("0.7,0.1,0.1,0.97,2\n0.3,0,0.05,0.8,1\n")
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mssvs.cli import main\n"
            "assert main(['point', '--r', '0.7', '--T', '0.9', '--m', '1', "
            "'--no-timestamp']) == 0\n"
            f"assert main(['validate', '--grid', {str(grid)!r}]) == 0\n"
        )
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "validation passed at all 2 points" in proc.stdout


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
