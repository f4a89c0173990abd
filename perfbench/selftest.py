"""The benchmark's own tests: a tiny smoke run of every workload and the gate.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite (``tests/``) on purpose: the smoke
runs start child processes and take tens of seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import certify  # noqa: E402
import cli_pipeline  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

TINY_CERTIFY = {"dims": [2, 3], "objects_per_slot": 8}
TINY_CLI = {"dims": [4], "variants": 1}


def run_main(workload: str, trace: int, seconds: float = 1.0) -> tuple[dict, str]:
    """Run the benchmark in-process at tiny size; returns the result line and all output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            mock.patch.dict(certify.SPECS["certify_small"], TINY_CERTIFY), \
            mock.patch.dict(cli_pipeline.SPEC, TINY_CLI), \
            mock.patch.object(run, "SETUP_REPEATS", 1):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                         "--trace", str(trace)])
    text = out.getvalue()
    assert code == 0, text
    return json.loads(text.strip().splitlines()[-1]), text


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class SmokeRun(unittest.TestCase):
    def check_metrics(self, result: dict, expected: dict[str, str]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                if workload == "certify_large":
                    # One d=8 object is the smallest certify_large operation.
                    with mock.patch.dict(certify.SPECS["certify_large"],
                                         {"dims": [8], "objects_per_slot": 1}):
                        result, _ = run_main(workload, trace=0, seconds=0.1)
                else:
                    result, _ = run_main(workload, trace=0)
                self.check_metrics(result, declared("end_to_end"))
                for name in ("ops_per_s", "p50_ms", "tail_ms", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        for workload in ("certify_small", "cli_pipeline"):
            with self.subTest(workload=workload):
                result, _ = run_main(workload, trace=1)
                self.check_metrics(result, declared("per_layer"))
                self.assertGreater(result["metrics"]["trace.overhead_ratio"]["value"], 0)
        self.assertGreater(result["metrics"]["cli.startup_s"]["value"], 0)
        self.assertGreater(result["metrics"]["serialize.bytes_in"]["value"], 0)

    def test_known_defects_are_reported(self):
        _, text = run_main("cli_pipeline", trace=0)
        for name in ("huge-float", "huge-int"):
            self.assertRegex(text, rf"known defect (reproduced|fixed): verify malformed {name}")


class Gate(unittest.TestCase):
    def test_wrong_expected_verdict_fails_the_run(self):
        real = certify.make_inputs

        def flipped(spec, seed):
            pool = real(spec, seed)
            pool[0].expect_pass = not pool[0].expect_pass
            return pool

        with mock.patch.object(certify, "make_inputs", flipped):
            result, text = run_main("certify_small", trace=0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("operation DISAGREES", text)

    def test_wrong_expected_exit_code_counts_against_cli(self):
        real = cli_pipeline.CliPipeline.make_inputs

        def flipped(self, seed):
            steps = real(self, seed)
            steps[0].rc = 1
            return steps

        with mock.patch.object(cli_pipeline.CliPipeline, "make_inputs", flipped):
            result, _ = run_main("cli_pipeline", trace=1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["metrics"]["cli.failed"]["value"], 1)


class Layout(unittest.TestCase):
    def test_benchmark_json_names_what_the_runner_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual(declared("end_to_end"), run.END_TO_END)
        self.assertEqual(declared("per_layer"), run.per_layer_units())

    def test_end_to_end_of_two_classes(self):
        latencies = [1.0] * 3 + [3.0] * 3
        metrics = run.end_to_end(latencies, tail_percentile=90)
        self.assertAlmostEqual(metrics["ops_per_s"], 0.5)
        self.assertAlmostEqual(metrics["p50_ms"], 2000.0, delta=300)  # between the classes
        self.assertGreater(metrics["tail_ms"], 2500.0)

    def test_quantile_of_a_symmetric_sample(self):
        values = list(range(1, 102))
        self.assertAlmostEqual(run.harrell_davis(values, 0.5), 51.0, places=6)
        self.assertAlmostEqual(run.harrell_davis(values, 0.9), 91.0, delta=0.5)

    def test_every_run_covers_whole_rounds_of_the_mix(self):
        # The deadline passes in the first round; that round still ends.
        workload = certify.Certify("certify_large")
        pool = [certify.Item(i, d, [], None, True, 1, None, 0.0, [], None)
                for i, d in enumerate(workload.spec["dims"] * 2)]
        workload.run = lambda item, tracer: (True, [])
        with mock.patch.object(run.time, "perf_counter", side_effect=range(0, 10**6, 100)):
            records = run.measure(workload, pool, 1.0, Tracer(), False,
                                  mock.Mock(scale=lambda: 1.0))["records"]
        self.assertEqual([key for key, *_ in records], workload.spec["dims"])

    def test_self_time_subtracts_children(self):
        spans = [Span("op", 0.0, 1.0, None, 0), Span("bases.x", 0.1, 0.5, 0, 0)]
        self.assertEqual([round(t, 9) for t in self_times(spans)], [0.6, 0.4])

    def test_bare_directory_exits_nonzero_without_a_result(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "certify_small", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, timeout=180, env={"PATH": os.environ["PATH"]})
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
