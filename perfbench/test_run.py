#!/usr/bin/env python3
"""Self-tests of the benchmark runner (run.py).

    python3 perfbench/test_run.py

They cover the percentile rule, the failed-operation accounting behind
`failed_frac`, the output checks, and that the names the runner emits
match BENCHMARK.json exactly. The response checks of the serve load
generator are unit-tested in Rust:

    cargo test --release --manifest-path perfbench/Cargo.toml
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_too_few_samples_report_the_median_only(self):
        s = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual(s, {"median": 2.0, "samples": 3})
        self.assertNotIn("tail", run.summarize(range(39)))

    def test_highest_percentile_with_ten_samples_beyond(self):
        s = run.summarize(range(40))
        self.assertEqual((s["tail_pct"], s["beyond"]), (75.0, 10))
        self.assertEqual(s["tail"], 29)
        s = run.summarize(range(999))
        self.assertEqual((s["tail_pct"], s["beyond"]), (95.0, 49))
        s = run.summarize(range(1000))
        self.assertEqual((s["tail_pct"], s["beyond"], s["tail"]), (99.0, 10, 989))
        s = run.summarize(range(10_000))
        self.assertEqual((s["tail_pct"], s["beyond"], s["samples"]), (99.9, 10, 10_000))

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(run.p99_if_backed(range(999)))
        self.assertEqual(run.p99_if_backed(range(1000)), 989)


class FailedAccounting(unittest.TestCase):
    def test_failed_frac_counts_against_attempted(self):
        t = run.Tally()
        t.record(True)
        t.record(False, "estimate exited 1")
        t.record(True)
        t.record(True)
        self.assertEqual((t.attempted, t.failed), (4, 1))
        self.assertEqual(t.failed_frac, 0.25)
        self.assertEqual(t.reasons, ["estimate exited 1"])

    def test_a_non200_answer_fails_its_request(self):
        t = run.Tally()
        summary = {"requests": 989, "warmup_requests": 10, "reloads": 1, "failed": 1, "non200": 1,
                   "first_failure": "/score?node=3: status 500"}
        run.count_load(t, summary)
        self.assertEqual((t.attempted, t.failed), (1000, 1))
        self.assertIn("status 500", t.reasons[0])

    def test_nothing_attempted_is_all_failed(self):
        self.assertEqual(run.Tally().failed_frac, 1.0)


HEADER = "# node\thost\tscaled_p\tscaled_p_core\tscaled_abs_mass\trel_mass\n"


def tsv(rows):
    return HEADER + "".join(f"{n}\t{n}\t{p:.6f}\t{pc:.6f}\t{p - pc:.6f}\t{r:.6f}\n" for n, p, pc, r in rows)


class OutputChecks(unittest.TestCase):
    ROWS = [(0, 12.0, 0.1, 0.991667), (1, 3.0, 2.0, 0.333333), (2, 25.0, 20.0, 0.2)]

    def setUp(self):
        self.dir = ROOT / ".bench_work" / "selftest"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ref = self.dir / "ref.tsv"
        self.ref.write_text(tsv(self.ROWS))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self, rows):
        out = self.dir / "out.tsv"
        out.write_text(tsv(rows))
        return run.tsv_mismatch(out, self.ref)

    def test_identical_and_rounding_level_differences_pass(self):
        self.assertIsNone(self.check(self.ROWS))
        rows = [(0, 12.000001, 0.1, 0.991667)] + self.ROWS[1:]
        self.assertIsNone(self.check(rows))

    def test_a_mismatched_flagged_set_fails(self):
        rows = [(0, 12.0, 0.1, 0.97)] + self.ROWS[1:]
        self.assertEqual(self.check(rows), "flagged set differs from the reference")

    def test_a_score_off_by_more_than_rounding_fails(self):
        rows = self.ROWS[:2] + [(2, 25.00001, 20.0, 0.2)]
        self.assertIn("node 2", self.check(rows))

    def test_precision_is_spam_share_of_flagged_pooled_over_scenarios(self):
        self.assertEqual(run.precision([({1, 2, 3, 4}, {2, 3, 4, 9})]), 0.75)
        self.assertEqual(run.precision([({1, 2}, {1}), ({5, 6, 7, 8, 9, 10}, {5, 6, 7, 8, 9, 10})]), 0.875)
        with self.assertRaises(run.BenchError):
            run.precision([(set(), {1})])


class NamesMatchBenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_end_to_end(self):
        spec = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        self.assertEqual(spec, run.END_TO_END)
        self.assertEqual(list(spec), list(run.END_TO_END))

    def test_per_layer(self):
        spec = {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}
        self.assertEqual(spec, run.PER_LAYER)

    def test_emitted_result_lines_carry_exactly_the_listed_names(self):
        units = {n: u for n, (u, _) in run.END_TO_END.items()}
        line = run.result_line(run.Tally(), {n: 1.0 for n in units}, units)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), [m["name"] for m in self.spec["end_to_end"]])
        layers = run.layer_metrics({"pagerank.solve_s": 0.4, "host.mem_bw_gbs": 10.0})
        self.assertEqual(list(layers), [m["name"] for m in self.spec["per_layer"]])
        self.assertEqual(layers["serve.parse_us"], 0.0)
        with self.assertRaises(run.BenchError):
            run.layer_metrics({"pagerank.sovle_s": 0.4})

    def test_command_runs_this_runner(self):
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])


class OutsideACheckout(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "estimate_120k", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
