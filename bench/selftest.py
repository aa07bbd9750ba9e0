"""Self-tests of the benchmark itself (not of sepcodes).

Run from the repository root:

    python3 bench/selftest.py

They use the tiny inputs (``--tiny``), so the whole file takes about 20
seconds.  Scratch output goes to ``.bench_out/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=300, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny_run(workload: str, trace: int, seed: int = 3) -> dict:
    code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--tiny")
    assert code == 0, lines[-20:]
    return json.loads(lines[-1])


class TestContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = {(w, t): tiny_run(w, t) for w in run.WORKLOADS for t in (0, 1)}

    def test_benchmark_json_names_the_metrics_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_smoke_every_workload_prints_every_metric_with_unit(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                want = run.PER_LAYER if trace else run.END_TO_END
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for m in result["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))

    def test_exact_counts_repeat_across_runs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = self.results[workload, 1], tiny_run(workload, 1)
                for name in ("hypergraphs.nodes", "codes.raw_edges",
                             "hypergraphs.budget_exhausted"):
                    self.assertEqual(first["metrics"][name], second["metrics"][name])
                again = tiny_run(workload, 0)
                self.assertEqual(self.results[workload, 0]["metrics"]["proven_frac"],
                                 again["metrics"]["proven_frac"])

    def test_all_prints_a_table_with_fail_frac(self):
        code, lines = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0",
                            "--tiny")
        self.assertEqual(code, 0)
        self.assertTrue(json.loads(lines[-1])["correct"])
        names = {line.split()[0] for line in lines[:-1]}
        self.assertLessEqual(set(run.END_TO_END) | {"fail_frac"}, names)


class TestGate(unittest.TestCase):
    def pass_with(self, workload: str, patch) -> list[str]:
        """Failures of one tiny untraced pass after patch(lib) is applied."""
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmpdir:
            lib, wl, _probe, _s, _g = run.set_up(workload, 3, tmpdir, True)
            patch(lib)
            gate = workloads.Gate()
            run.Runner(gate).untraced_pass(wl)
            return gate.failures

    def test_correct_program_passes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.pass_with(workload, lambda lib: None), [])

    def test_wrong_formula_reference_trips_gate(self):
        def patch(lib):
            right = lib.families.formula_x_number

            def wrong(spec, kind):
                value = right(spec, kind)
                return None if value is None else value + 1
            lib.families.formula_x_number = wrong

        for workload in ("search", "encode"):
            with self.subTest(workload=workload):
                failures = self.pass_with(workload, patch)
                self.assertTrue(any("formula" in f for f in failures), failures)

    def test_disagreeing_fast_verifier_trips_gate(self):
        def patch(lib):
            right = lib.codes.verify_code_fast
            lib.codes.verify_code_fast = lambda g, k, c: not right(g, k, c)

        self.assertTrue(any("disagrees" in f for f in self.pass_with("verify", patch)))


class TestMissingProgram(unittest.TestCase):
    def test_exits_nonzero_without_result_when_src_is_absent(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmpdir:
            bare = Path(tmpdir)
            shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            code, lines = bench("--workload", "search", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
