"""Tests of the end-to-end benchmark (perfbench/run.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics and metric-definition tests run on synthetic samples.
The smoke tests build the runner (first run: about a minute) and run
every workload at a tiny simulated budget, checking that each metric
BENCHMARK.json names is emitted with its unit and that the
correctness gate passes.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

RUN_PY = Path(run.__file__).resolve()


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = list(range(1, 12))  # 1..11
        self.assertEqual(run.percentile(xs, 50), 6)
        self.assertEqual(run.percentile(xs, 90), 10)
        self.assertEqual(run.percentile(xs, 0), 1)
        self.assertEqual(run.percentile(xs, 100), 11)
        self.assertAlmostEqual(run.percentile([0.0, 10.0], 25), 2.5)
        self.assertEqual(run.percentile([5, 1, 3], 50), 3)

    def test_quartiles_match_statistics_module(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q1, med, q3 = run.quartiles(xs)
        self.assertEqual([q1, med, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(med, statistics.median(xs))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(39))))
        self.assertEqual(run.tail_percentile(list(range(40)))[0], 75.0)
        self.assertEqual(run.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(run.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(run.tail_percentile(list(range(1000)))[0], 99.0)
        p, v = run.tail_percentile(list(range(10000)))
        self.assertEqual(p, 99.9)
        self.assertAlmostEqual(v, 9989.001)

    def test_summarize_reports_sample_count(self):
        s = run.summarize([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(s["n"], 4)
        self.assertEqual(s["median"], 2.5)
        self.assertIsNone(s["tail"])

    def test_ratio_of_nothing_attempted_is_zero(self):
        self.assertEqual(run.ratio(3, 4), 0.75)
        self.assertEqual(run.ratio(0, 0), 0.0)


def rep(traced, wall_s, counters, layers=None, timings=None,
        iteration_us=(), spanned_s=None, attempted=1, failed=0):
    return {"traced": int(traced), "wall_ns": int(wall_s * 1e9),
            "setup_ns": 0,
            "spanned_ns": int((wall_s if spanned_s is None
                               else spanned_s) * 1e9),
            "attempted": attempted, "failed": failed,
            "counters": dict(counters), "timings": timings or {},
            "layers": layers or {}, "iteration_us": list(iteration_us)}


def raw_doc(reps, held_out=None, setup_ns=(1000, 2000, 3000)):
    return {"meta": {"optimized": 1, "held_out_seed": 2},
            "setup_ns": list(setup_ns), "reps": reps,
            "held_out": held_out, "peak_rss_mb": 12.5}


class MetricDefinitionTest(unittest.TestCase):
    def test_end_to_end_definitions(self):
        c = {"commits": 1000, "coverage": 50, "iterations": 10}
        doc = raw_doc([rep(False, 2.0, c), rep(True, 8.0, c),
                       rep(False, 8.0, c)])
        e2e = run.end_to_end(doc)
        self.assertEqual(set(e2e), set(run.END_TO_END_UNITS))
        # Traced repetitions never enter the end-to-end metrics, and a
        # rate is taken over the whole measured phase: 2000 / 10 s.
        value, samples = e2e["commits_per_s"]
        self.assertAlmostEqual(value, 200.0)
        self.assertEqual([round(x, 9) for x in samples], [500.0, 125.0])
        value, samples = e2e["setup_s"]
        self.assertAlmostEqual(value, 2e-6)
        self.assertEqual(len(samples), 3)
        self.assertEqual(e2e["peak_rss_mb"], (12.5, [12.5]))
        extra = run.workload_metrics("campaign", doc)
        self.assertEqual(extra["coverage"], ("count", 50, [50, 50]))
        self.assertEqual(extra["coverage_per_s"][:2], ("1/s", 10.0))

    def test_bughunt_definitions(self):
        c = {"commits": 10, "coverage": 5, "iterations": 3,
             "bugs_detected": 4, "bugs_confirmed": 3,
             "detect_sim_s": 30.5, "triage_replays": 100}
        doc = raw_doc([rep(False, 2.0, c),
                       rep(True, 4.0, c, spanned_s=3.5,
                           layers={"triage.minimize_ns": 5e8})])
        extra = run.workload_metrics("bughunt", doc)
        self.assertEqual(extra["bug_host_s"][1], 0.5)  # 2 s / 4 bugs
        self.assertEqual(extra["detect_sim_s"][:2], ("sim_s", 30.5))
        layers = run.per_layer_values("bughunt", doc)
        self.assertEqual(layers["triage.confirm_ratio"][0], 0.75)
        self.assertEqual(layers["triage.minimize_s"][0], 0.5)
        self.assertEqual(layers["bughunt.bug_host_s"][0], 1.0)
        self.assertEqual(layers["bughunt.detect_sim_s"],
                         (30.5, "sim_s"))
        self.assertEqual(layers["bench.unattributed_s"][0], 0.5)
        self.assertEqual(layers["telemetry.trace_overhead"][0], 1.0)

    def test_campaign_layer_definitions(self):
        c = {"commits": 1000, "coverage": 60, "iterations": 3}
        layers = {"fuzzer.generate_ns": 1e9, "fuzzer.feedback_ns": 1e8,
                  "engine.batch.dut_ns": 2e8, "engine.batch.ref_ns": 2e8,
                  "engine.batch.diff_ns": 1e8,
                  "engine.batch.sweep_ns": 2e8,
                  "engine.decode_cache.hit": 90,
                  "engine.decode_cache.miss": 10,
                  "engine.superblock.entered": 50,
                  "engine.superblock.side_exit": 5}
        doc = raw_doc([rep(False, 2.0, c),
                       rep(True, 3.0, c, layers=layers,
                           iteration_us=[1e6, 0.5e6, 0.5e6])])
        v = run.per_layer_values("campaign", doc)
        self.assertEqual(v["core.decode_hit_ratio"][0], 0.9)
        self.assertEqual(v["core.superblock_side_exit_ratio"][0], 0.1)
        self.assertEqual(v["fuzzer.generate_s"][0], 1.0)
        self.assertEqual(v["engine.sweep_s"][0], 0.2)
        # Iterations (2 s) minus fuzzer (1.1 s) and engine (0.7 s).
        self.assertAlmostEqual(v["harness.self_s"][0], 0.2)
        self.assertEqual(v["harness.iteration_us.p50"][0], 0.5e6)
        self.assertEqual(v["coverage.points_per_s"][0], 20.0)
        self.assertAlmostEqual(v["telemetry.trace_overhead"][0], 0.5)
        self.assertEqual(v["fleet.barrier_s"][0], 0.0)

    def test_fleet_layer_definitions(self):
        c = {"commits": 1000, "coverage": 60, "iterations": 3,
             "seeds_exchanged": 40, "seeds_admitted": 30,
             "checkpoint_bytes": 4096}
        layers = {"campaign.generate_ns": 3e9, "fleet.barrier_ns": 5e8,
                  "fleet.barrier.exchange_ns": 4e8,
                  "fleet.checkpoints": 2}
        timings = {"run_ns": 2e9, "cpu_s": 6.0, "workers": 4,
                   "resume_ns": 1e8}
        doc = raw_doc([rep(False, 2.0, c, timings=timings),
                       rep(True, 2.5, c, layers=layers,
                           timings=timings)])
        v = run.per_layer_values("fleet", doc)
        self.assertEqual(v["fleet.epoch_s"][0], 1.5)  # run - barrier
        self.assertEqual(v["fleet.exchange_s"][0], 0.4)
        self.assertEqual(v["fleet.cpu_util"][0], 0.75)  # 6 / (2 * 4)
        self.assertEqual(v["fleet.admit_ratio"][0], 0.75)
        self.assertEqual(v["fuzzer.generate_s"][0], 3.0)
        self.assertEqual(v["fleet.resume_s"][0], 0.1)
        self.assertEqual(v["soc.checkpoint_bytes"], (4096, "B"))
        self.assertEqual(v["harness.self_s"][0], 0.0)
        extra = run.workload_metrics("fleet", doc)
        self.assertEqual(extra["resume_s"][1], 0.1)


class GateTest(unittest.TestCase):
    counters = {"commits": 10, "coverage": 5, "iterations": 3,
                "mismatches": 0}

    def test_identical_reps_pass(self):
        doc = raw_doc([rep(False, 1.0, self.counters, attempted=3),
                       rep(True, 1.0, self.counters, attempted=3)],
                      held_out=rep(False, 1.0, self.counters,
                                   attempted=3))
        self.assertEqual(run.gate("campaign", doc), (True, 9, 0, []))

    def test_counter_drift_fails(self):
        drifted = dict(self.counters, coverage=6)
        ok, _, _, problems = run.gate(
            "campaign", raw_doc([rep(False, 1.0, self.counters),
                                 rep(True, 1.0, drifted)]))
        self.assertFalse(ok)
        self.assertIn("repetition 1 (traced)", problems[0])

    def test_failed_operation_counts_against_attempted(self):
        ok, attempted, failed, _ = run.gate(
            "bughunt", raw_doc([rep(False, 1.0, self.counters,
                                    attempted=5, failed=1),
                                rep(False, 1.0, self.counters,
                                    attempted=5)]))
        self.assertEqual((ok, attempted, failed), (False, 10, 1))

    def test_clean_core_mismatch_fails(self):
        bad = dict(self.counters, mismatches=1)
        ok, _, _, _ = run.gate("fleet", raw_doc([rep(False, 1.0, bad),
                                                 rep(False, 1.0, bad)]))
        self.assertFalse(ok)


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    """Every workload at a tiny simulated budget, both trace modes."""

    @classmethod
    def setUpClass(cls):
        cls.end_to_end, cls.per_layer = run.declared_metrics()

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", workload,
             "--seed", "3", "--seconds", "0", "--trace", str(trace),
             "--budget-scale", "0.05"],
            capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return proc.stdout, last_json_line(proc.stdout)

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, self.end_to_end),
                                    (1, self.per_layer)):
                with self.subTest(workload=workload, trace=trace):
                    stdout, result = self.run_bench(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {k: m["unit"]
                             for k, m in result["metrics"].items()}
                    self.assertEqual(units, declared)
                    for name, unit in declared.items():
                        self.assertIn(name, stdout)
                    if trace == 0:
                        for m in result["metrics"].values():
                            self.assertGreater(m["value"], 0)

    def test_refuses_to_run_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "campaign", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
