"""Self-test of the benchmark itself (not part of the package's test suite).

Run from the repository root with either of

    python3 -m pytest benchmarks/test_benchmark.py -q
    python3 benchmarks/test_benchmark.py

It checks that a tiny run of every workload prints every declared metric
with its unit, that traced work counts repeat exactly, that the output
checks reject corrupted results, and that the seed alone fixes the
generated inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from mssvs import cli, observables  # noqa: E402
from mssvs.circuit import CircuitParams  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in DECLARED[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = tiny_run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()}, declared)
                    text = "\n".join(lines[:-1])
                    for name, unit in declared.items():
                        self.assertRegex(text, rf"\n  {name} = \S+ {unit}\b")
                    self.assertIn("failed_frac = ", text)

    def test_work_counts_repeat_exactly(self):
        counts = ("circuit.derived_per_point", "observables.pd_per_point",
                  "observables.threshold.evals_per_scan", "genfunc.box.cells",
                  "fock_oracle.displacement.elements", "fock_oracle.cutoff_steps_per_pipeline")
        for workload in ("figure-sweep", "validate"):
            with self.subTest(workload=workload):
                runs = [json.loads(tiny_run(workload, 1).stdout.splitlines()[-1])
                        for _ in range(2)]
                first, second = ({c: r["metrics"][c]["value"] for c in counts} for r in runs)
                self.assertEqual(first, second)

    def test_refuses_a_tree_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            copy = Path(bare) / "benchmarks"
            copy.mkdir()
            for path in HERE.glob("*.py"):
                (copy / path.name).write_text(path.read_text(encoding="utf-8"))
            (Path(bare) / "BENCHMARK.json").write_text(json.dumps(DECLARED))
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", "validate",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=60, cwd=bare,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class Checks(unittest.TestCase):
    def test_pd_off_by_1e3_is_rejected(self):
        fixed = {"r": 0.7, "T": 0.9, "m": 2}
        pd = observables.success_probability(CircuitParams(0.7, 0.1, 0.2, 0.9, 2))
        ok = workloads.LossMap.compare(fixed, 0.1, 0.2, pd)
        self.assertEqual((ok.failed, ok.wrong), (0, []))
        bad = workloads.LossMap.compare(fixed, 0.1, 0.2, pd + 1e-3)
        self.assertEqual(bad.failed, 1)
        self.assertTrue(bad.wrong)

    def test_pnd_missing_mass_fails_the_operation(self):
        workload = workloads.PhotonStats()
        fixed = {"r": 0.6, "T": 0.9, "eta1": 0.1, "eta2": 0.1, "m": 2}
        argv = ["point", "--wigner-grid", "11", "--no-timestamp"]
        for key, value in fixed.items():
            argv += [f"--{key}", str(value)]
        request = workloads.Request(argv=argv, points=1, fixed=fixed)
        _, reply = run.invoke(cli.main, request.argv)
        document = json.loads(reply.stdout)
        self.assertEqual(workload.check(request, reply).failed, 0)
        document["pnd"][0] *= 0.5
        verdict = workload.document_verdict(document, request.fixed)
        self.assertEqual(verdict.failed, 1)
        document["pnd_truncated"] = True
        self.assertEqual(workload.document_verdict(document, request.fixed).failed, 0)

    def test_figure_row_with_broken_heisenberg_bound_is_wrong(self):
        row = {"p_d": "0.1", "squeezing": "never-squeezed", "r_c": "", "var_x": "0.4",
               "var_p": "0.4"}
        self.assertIn("below 1/4", workloads.FigureSweep.row_problems(row))

    def test_validate_exit_code_must_match_verdicts(self):
        workload = workloads.Validate()
        request = workloads.Request(argv=["validate"], points=1, fixed={})
        line = "r=0.3 eta1=0 eta2=0 T=0.8 m=0 cutoff=40: p_d=0 [ok]"
        good = workloads.Reply(code=0, stdout=f"validating\n{line}\npassed\n")
        self.assertEqual(workload.check(request, good).failed, 0)
        bad = workloads.Reply(code=1, stdout=f"validating\n{line}\npassed\n")
        self.assertTrue(workload.check(request, bad).wrong)


class Seeds(unittest.TestCase):
    def test_seed_fixes_the_inputs(self):
        workdir = Path("/nonexistent")
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = workloads.make(name).round(11, 2, workdir, False)
                again = workloads.make(name).round(11, 2, workdir, False)
                other = workloads.make(name).round(12, 2, workdir, False)
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)
                self.assertNotEqual(first, workloads.make(name).round(11, 3, workdir, False))


if __name__ == "__main__":
    unittest.main()
