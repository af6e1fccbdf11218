"""Short smoke runs of every workload, and the failure outside a checkout.

Each run builds the repository first (a no-op once built) and takes up to
about half a minute: `figures` always completes one pass over its cells
and `sampled-long` one pass over its kernels, whatever `--seconds` says.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
        check=False)


class Smoke(unittest.TestCase):
    def result(self, workload, trace):
        p = bench(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr)
        out = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], p.stdout)
        self.assertGreaterEqual(out["attempted"], 1)
        for name, m in out["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)
        return out, p.stdout

    def test_figures(self):
        out, _ = self.result("figures", 0)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(set(out["metrics"]),
                         {"minst_per_s", "ops_per_s", "peak_rss_mb", "setup_s"})
        self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_sampled_long_counts_known_defects_as_failures(self):
        out, text = self.result("sampled-long", 0)
        # One operation per kernel, however often the run repeats it.
        self.assertEqual((out["attempted"], out["failed"]), (12, 3))
        for kernel in ("gzip", "parser", "vortex"):
            self.assertIn(f"failed x1: {kernel}:", text)
        self.assertIn("ipc_err_pct", text)

    def test_serve_mixed(self):
        out, text = self.result("serve-mixed", 0)
        self.assertEqual(out["failed"], 0)
        for name in ("hit_p50_ms", "hit_long_p50_ms", "miss_p50_ms", "jobs_per_s"):
            self.assertIn(name, text)

    def test_traced_run_prints_every_layer_metric(self):
        out, _ = self.result("serve-mixed", 1)
        metrics = out["metrics"]
        self.assertIn("serve.cell_key_ms", metrics)
        self.assertIn("emu.snapshot_ms.mcf", metrics)
        self.assertGreater(metrics["serve.submit_ms.long"]["value"], 0)
        self.assertAlmostEqual(metrics["trace.accounted_pct"]["value"], 100, delta=5)

    def test_fails_without_the_repository(self):
        scratch = ROOT / ".bench_tmp" / "bench-only"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copytree(BENCH, scratch / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            p = bench("figures", 0, cwd=scratch)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
