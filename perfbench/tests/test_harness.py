"""Self-tests of the benchmark harness on miniature workloads.

    python3 -m unittest discover -s perfbench/tests

Each miniature (A5 scan, S4 table, S4 crosscheck) runs in well under a
second.  The tests check that correct answers pass and wrong ones count as
failures, that every operation starts with the library's caches empty, and
that the result line carries exactly the metrics BENCHMARK.json declares.
"""

import copy
import json
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import run  # noqa: E402

fg = harness.import_frobgraph()

MINI_OPS = [
    {
        "cli": ["scan", "--group", "A5", "--format", "json"],
        "expect": {"order": 60, "n": 9, "g": 2, "m": 2, "maximal_rich_orders": [2, 3]},
    },
    {
        "cli": ["table", "--group", "S4", "--format", "json"],
        "expect": {"order": 24, "k": 5, "sum_d2": 24},
    },
    {"crosscheck": "S4", "expect": {"order": 24, "pairs": 10}},
]
# one wrong expected value per operation kind
CORRUPTIONS = [(0, "n", 10), (1, "k", 4), (2, "pairs", 11)]


def mini(ops=MINI_OPS):
    return list(enumerate(copy.deepcopy(ops)))


class AnswerGate(unittest.TestCase):
    def test_miniatures_pass_untraced_and_traced(self):
        runner = harness.Runner(fg)
        for tracer in (None, harness.Tracer()):
            failures = []
            result = harness.run_pass(runner, mini(), failures, tracer=tracer)
            self.assertEqual(failures, [])
            self.assertEqual((result["attempted"], result["failed"]), (3, 0))

    def test_wrong_expected_value_counts_as_failure(self):
        runner = harness.Runner(fg)
        for index, key, wrong in CORRUPTIONS:
            ops = copy.deepcopy(MINI_OPS)
            ops[index]["expect"][key] = wrong
            for tracer in (None, harness.Tracer()):
                failures = []
                result = harness.run_pass(runner, mini(ops), failures, tracer=tracer)
                self.assertEqual(result["failed"], 1, (key, tracer))
                self.assertIn(key, failures[0])

    def test_failure_makes_the_run_incorrect(self):
        ops = copy.deepcopy(MINI_OPS)
        ops[0]["expect"]["g"] = 3
        result, _ = harness.measure(harness.Runner(fg), mini(ops), 0, trace=0)
        report = run.summarize(result, [(0.1, 0.1)], trace=0)
        self.assertFalse(report["correct"])
        self.assertEqual(report["failed"], 1)
        self.assertEqual(report["attempted"], 3)


class ColdStart(unittest.TestCase):
    def test_every_module_cache_is_found(self):
        names = {f"{c.__module__}.{c.__qualname__}" for c in harness.Runner(fg).caches}
        self.assertLessEqual(
            {"frobgraph.catalog.construct", "frobgraph.cyclo.cyclotomic_polynomial",
             "frobgraph.cyclo._prime_factors", "frobgraph.cyclo._subfield_basis",
             "frobgraph.smallfield.gf"},
            names,
        )

    def test_caches_are_empty_at_each_operation(self):
        sizes = []

        class Recording(harness.Runner):
            def run(self, op, tr=None):
                sizes.append(sum(c.cache_info().currsize for c in self.caches))
                return super().run(op, tr)

        runner = Recording(fg)
        failures = []
        for _ in range(2):
            harness.run_pass(runner, mini(), failures)
        self.assertEqual(failures, [])
        # the operations themselves fill the caches the next one must not see
        self.assertGreater(sum(c.cache_info().currsize for c in runner.caches), 1)
        self.assertEqual(sizes, [0] * 6)

    def test_warm_cache_is_a_failure(self):
        from frobgraph import cyclo

        runner = harness.Runner(fg)
        for cache in (fg.construct, cyclo.cyclotomic_polynomial):
            with mock.patch.object(cache, "cache_clear", lambda: None):
                fg.construct(fg.parse_group_spec("S4"))
                cyclo.cyclotomic_polynomial(5)
                failures = []
                result = harness.run_pass(runner, mini(), failures)
            self.assertEqual(result["failed"], 3)
            self.assertIn(f"{cache.__qualname__} holds", failures[0])

    def test_cold_start_is_not_timed(self):
        runner = harness.Runner(fg)
        with mock.patch.object(runner, "run", lambda op, tr=None: None), \
                mock.patch.object(runner, "cold_start", lambda: time.sleep(0.05)):
            result = harness.run_pass(runner, mini(), [])
        self.assertLess(result["wall_s"], 0.05)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "op", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
            {"name": "a", "start": 1.0, "end": 3.0, "parent": 0, "op": 0},
            {"name": "b", "start": 3.0, "end": 7.0, "parent": 0, "op": 0},
            {"name": "a", "start": 4.0, "end": 5.0, "parent": 2, "op": 0},
        ]
        self.assertEqual(harness.self_times(spans), [4.0, 2.0, 3.0, 1.0])
        self.assertEqual(harness.layer_totals(spans), {"op": 4.0, "a": 3.0, "b": 3.0})

    def test_counts_repeat_and_spans_nest(self):
        result, spans = harness.measure(harness.Runner(fg), mini(), 0, trace=1)
        tr = result["trace"]
        self.assertTrue(tr["counts_stable"])
        self.assertEqual(tr["counts"]["frobenius.pairs"], 8 + 10)
        # A5: G and 8 proper classes; S4 table; S4 crosscheck: G, 10 H, 10 cores
        self.assertEqual(tr["counts"]["chartab.tables"], 1 + 8 + 1 + 1 + 10 + 10)
        roots = [s for s in spans[0] if s["parent"] is None]
        self.assertEqual([s["name"] for s in roots], ["op"] * 3)
        self.assertEqual({s["op"] for s in roots}, {0, 1, 2})


class Speed(unittest.TestCase):
    def test_sampler_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with harness.SpeedSampler() as speed:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(speed.samples), 3)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_pass_times_in_reference_units(self):
        result = harness.run_pass(harness.Runner(fg), mini(), [])
        self.assertAlmostEqual(result["wall_ref"], result["wall_s"] / result["chunk_cpu_s"])
        self.assertAlmostEqual(result["cpu_ref"], result["cpu_s"] / result["chunk_cpu_s"])


class ResultLine(unittest.TestCase):
    def declared(self, kind):
        with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[kind]}

    def check_metrics(self, report, kind):
        units = {name: m["unit"] for name, m in report["metrics"].items()}
        self.assertEqual(units, self.declared(kind))
        for m in report["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))
        self.assertTrue(report["correct"])
        self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})

    def test_end_to_end_metrics(self):
        result, _ = harness.measure(harness.Runner(fg), mini(), 0, trace=0)
        report = run.summarize(result, [(0.2, 0.12), (0.2, 0.1), (0.3, 0.11)], trace=0)
        self.check_metrics(report, "end_to_end")
        self.assertEqual(report["metrics"]["setup_s"]["value"], 0.11)
        self.assertGreater(report["metrics"]["wall_ref"]["value"], 0)
        self.assertGreater(report["metrics"]["peak_rss_mb"]["value"], 1)

    def test_per_layer_metrics(self):
        result, _ = harness.measure(harness.Runner(fg), mini(), 0, trace=1)
        report = run.summarize(result, [(0.1, 0.1)], trace=1)
        self.check_metrics(report, "per_layer")
        self.assertGreater(report["metrics"]["frobenius.mackey_s"]["value"], 0)

    def test_declared_names_follow_the_layer_table(self):
        with open(harness.WORKLOADS_FILE, encoding="utf-8") as fh:
            layers = json.load(fh)["layers"]
        self.assertLessEqual(set(layers), set(self.declared("per_layer")))


class Entry(unittest.TestCase):
    def test_setup_probes(self):
        times = run.probe_setup(["--workload", "tables-large", "--seed", "1"])
        self.assertEqual(len(times), run.SETUP_PROBES)
        for raw, scaled in times:
            self.assertGreater(raw, 0)
            self.assertGreater(scaled, 0)

    def test_refuses_to_run_without_sources(self):
        scratch = BENCH_DIR.parent / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for name in ("run.py", "harness.py", "workloads.json"):
                (bench / name).write_bytes((BENCH_DIR / name).read_bytes())
            (Path(tmp) / "BENCHMARK.json").write_bytes(
                (BENCH_DIR.parent / "BENCHMARK.json").read_bytes()
            )
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
