"""Fast self-test of the benchmark harness on tiny corpora (about 30 s).

    python3 perfbench/selftest.py

Checks that both workloads produce every metric BENCHMARK.json declares,
that the output checks reject broken outputs, that a changed artifact is
caught as non-deterministic, and that tracing leaves artifacts unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import time
import unittest

import checks
import run
from calibration import DURING, Calibration
from checks import CheckFailed
from workloads import ACCEPTANCE, TRANSFORMER, Layout, pipeline

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = run.ROOT / ".perfbench_work" / "selftest"

TINY = {
    "acceptance": dataclasses.replace(
        ACCEPTANCE,
        synth={**ACCEPTANCE.synth, "docs_per_split": [8, 3, 6]},
        train={**ACCEPTANCE.train, "epochs": 2}),
    "transformer": dataclasses.replace(
        TRANSFORMER,
        synth={**TRANSFORMER.synth, "docs_per_split": [6, 3, 5],
               "pages_per_doc": [1, 6]},
        encoder={**TRANSFORMER.encoder, "d": 8, "n_layers": 1},
        train={**TRANSFORMER.train, "epochs": 1}),
}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.load_pageseq()
        shutil.rmtree(WORK, ignore_errors=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_timed_runs_report_every_declared_metric(self):
        for name in TINY:
            with self.subTest(workload=name):
                record = run.timed_run(self.cli, TINY[name], 3, 0.5,
                                       WORK / f"{name}-timed", declared("end_to_end"))
                self.assertEqual(record["wrong"], [])
                self.assertEqual(set(record["metrics"]), set(declared("end_to_end")))
                for metric_name, metric in record["metrics"].items():
                    self.assertGreater(metric["value"], 0)
                    self.assertEqual(record["summary"][metric_name]["unit"],
                                     metric["unit"])
                self.assertGreater(min(record["speed"].values()), 0)
                summary = record["summary"]
                self.assertGreaterEqual(summary["setup_s"]["n"], run.SETUP_REPEATS)
                self.assertEqual("crf_train_s" in summary, name == "acceptance")

    def test_traced_run_matches_untraced_and_reports_layers(self):
        layers = {}
        for name in TINY:
            work = WORK / f"{name}-traced"
            work.mkdir(parents=True, exist_ok=True)
            record = run.traced_run(self.cli, TINY[name], 3, work,
                                    declared("per_layer"))
            self.assertEqual(record["wrong"], [], name)
            self.assertEqual(set(record["metrics"]), set(declared("per_layer")))
            self.assertEqual(record["summary"]["missing_trace_sites"], [])
            layers[name] = {k: v["value"] for k, v in record["metrics"].items()}
        self.assertGreater(layers["acceptance"]["crf.crf_fit.s"], 0)
        self.assertGreater(layers["acceptance"]["crf.crf_log_likelihood_and_grad.calls"], 0)
        self.assertGreater(layers["acceptance"]["crf.crf_viterbi.s"], 0)
        self.assertEqual(layers["transformer"]["crf.crf_fit.s"], 0)
        self.assertEqual(layers["transformer"]["crf.crf_viterbi.s"], 0)
        for name in TINY:
            self.assertGreater(layers[name]["encoder.forward_batch.calls"], 0)
            self.assertGreater(layers[name]["cli.train.self_s"], 0)

    def test_checks_reject_broken_outputs(self):
        layout = Layout(WORK / "broken")
        runner = run.one_pass(self.cli, TINY["acceptance"], 4, layout)
        self.assertEqual(runner.wrong, [])
        facts = runner.facts
        trace = layout.traces / "recurrent.jsonl"
        lines = trace.read_text(encoding="utf-8").splitlines()

        def rejects(text, **kwargs):
            trace.write_text(text, encoding="utf-8")
            with self.assertRaises(CheckFailed):
                checks.check_infer(facts, trace, **kwargs)

        rows = [json.loads(line) for line in lines]
        second = next(i for i, r in enumerate(rows) if r.get("page_index") == 1)
        wrong_context = [dict(r) for r in rows]
        wrong_context[second]["context"] = ["[-1]"]
        rejects("\n".join(json.dumps(r) for r in wrong_context) + "\n", recurrent=True)
        rejects("\n".join(lines[:-1]) + "\n", recurrent=True)        # missing page
        rejects("\n".join(lines + lines[-1:]) + "\n", recurrent=True)  # duplicate
        rejects("\n".join(lines) + "\n", recurrent=False)  # contexts on oblivious
        nan_score = [dict(r) for r in rows]
        nan_score[second]["scores"] = [float("nan")] * len(facts.classes)
        rejects("\n".join(json.dumps(r) for r in nan_score) + "\n", recurrent=True)

        compare = layout.root / "compare.json"
        report = json.loads(compare.read_text(encoding="utf-8"))
        report["contingency_table"][0][0] += 1
        compare.write_text(json.dumps(report), encoding="utf-8")
        with self.assertRaises(CheckFailed):
            checks.check_compare(facts, compare)

    def test_changed_artifact_counts_as_wrong(self):
        layout = Layout(WORK / "drift")
        runner = run.one_pass(self.cli, TINY["transformer"], 5, layout)
        op = next(op for op in pipeline(TINY["transformer"], layout)
                  if op.name == "infer_oblivious")
        trace = layout.traces / "oblivious.jsonl"
        trace.write_text(trace.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        with self.assertRaises(CheckFailed):
            runner._check_unchanged(op)

    def test_normalization_direction(self):
        # on a machine twice as fast as the reference, times double and
        # rates halve when brought back to reference speed; each sample is
        # scaled by its own speed before the median is taken
        summary = run.summarize([("t", "s", run.TIME, [2.0, 1.0, 1.5], [2.0, 4.0, 1.0]),
                                 ("r", "pages/s", run.RATE, [10.0], [2.0]),
                                 ("f", "%", run.FIXED, [80.0], [1.0])])
        self.assertEqual(summary["t"]["median"], 1.5)
        self.assertEqual(summary["t"]["normalized"], 4.0)
        self.assertEqual(summary["r"]["normalized"], 5.0)
        self.assertEqual(summary["f"]["normalized"], 80.0)

    def test_sampling_probes_during_the_block_and_restores_signals(self):
        cal = Calibration()
        previous = signal.getsignal(signal.SIGALRM)
        with cal.sampling() as times:
            deadline = time.perf_counter() + 0.5
            while time.perf_counter() < deadline:
                pass
        self.assertEqual(set(times), set(DURING))
        self.assertGreaterEqual(min(len(t) for t in times.values()), 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        with cal.sampling() as times:
            pass
        # shorter than a period: one probe of each job after the block
        self.assertEqual([len(t) for t in times.values()], [1] * len(DURING))
        speeds = cal.command_speeds(cal.probe(), cal.probe(), times)
        self.assertEqual(set(speeds), {"python", *DURING})
        self.assertGreater(min(speeds.values()), 0)

    def test_tail_percentile(self):
        self.assertIsNone(run.tail_percentile([1.0] * 19))
        self.assertEqual(run.tail_percentile([float(i) for i in range(1, 21)]),
                         (50.0, 10.0))
        self.assertEqual(run.tail_percentile([float(i) for i in range(1, 101)]),
                         (90.0, 90.0))


if __name__ == "__main__":
    unittest.main()
