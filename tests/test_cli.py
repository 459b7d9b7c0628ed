"""End-to-end CLI tests: synth -> train -> infer -> eval/compare, plus
determinism of every artifact."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pageseq.cli as cli
from pageseq.cli import _config_from, main
from pageseq.corpus import SynthConfig, doc_offsets, gold_labels, load_corpus
from pageseq.encoder import EncoderConfig
from pageseq.evaluation import align_traces, score
from pageseq.recurrence import SplitTrace, read_traces, write_traces
from pageseq.training import TrainConfig


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


SYNTH_CFG = {
    "n_classes": 3,
    "self_transition": 0.7,
    "pages_per_doc": [3, 6],
    "tokens_per_page": [3, 6],
    "class_vocab_size": 12,
    "shared_vocab_size": 12,
    "ambiguity": 0.3,
    "seed": 11,
    "docs_per_split": [12, 3, 5],
}


@pytest.fixture()
def corpus_dir(tmp_path):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))
    assert main(["synth", "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
    return tmp_path / "runs" / "corpus"


def experiment_cfg(corpus_dir, **overrides):
    cfg = {
        "corpus": str(corpus_dir / "manifest.json"),
        "mode": "oblivious",
        "seed": 3,
        "encoder": {"variant": "linear", "d": 8, "max_len": 16},
        "train": {"epochs": 2, "batch_size": 16, "peak_lr": 0.02},
        "vocab_cap": 500,
    }
    cfg.update(overrides)
    return cfg


def run_train(tmp_path, corpus_dir, name, **overrides):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(experiment_cfg(corpus_dir, **overrides)))
    rc = main(["train", "--config", str(cfg_path),
               "--outdir", str(tmp_path / "runs"), "--run-id", name])
    assert rc == 0
    return tmp_path / "runs" / name


class TestSynth:
    def test_writes_split_files_and_manifest(self, corpus_dir):
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                     "manifest.json"):
            assert (corpus_dir / name).exists()
        split = load_corpus(corpus_dir / "manifest.json")
        assert len(split.train) == 12

    def test_same_seed_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        for run in ("a", "b"):
            assert main(["synth", "--config", str(cfg_path),
                         "--outdir", str(tmp_path / run), "--run-id", "x"]) == 0
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                     "manifest.json"):
            assert sha(tmp_path / "a" / "x" / name) == \
                sha(tmp_path / "b" / "x" / name)

    def test_identity_transition_summary(self, tmp_path, capsys):
        cfg = dict(SYNTH_CFG)
        cfg.pop("self_transition")
        cfg["transition_matrix"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]
        cfg["start_distribution"] = [0.4, 0.3, 0.3]
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "macro 1.0000" in out

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = dict(SYNTH_CFG, self_transition=1.5)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    def test_self_transition_outside_unit_interval(self, tmp_path, capsys, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(SYNTH_CFG, self_transition=value)))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "self_transition" in err[0] and "stochastic" not in err[0]

    @pytest.mark.parametrize("field, value", [
        ("pages_per_doc", ["a", 3]),
        ("tokens_per_page", [3]),
        ("pages_per_doc", [1.5, 3]),
        ("tokens_per_page", [2, 3, 4]),
        ("docs_per_split", [3, 2]),
        ("docs_per_split", [3, 2, True]),
    ])
    def test_list_fields_must_hold_integers(self, tmp_path, capsys, field, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(SYNTH_CFG, **{field: value})))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and field in err[0]


class TestTrain:
    def test_writes_checkpoint_and_report(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "obl")
        ckpt = json.loads((outdir / "checkpoint.json").read_text())
        assert ckpt["kind"] == "encoder"
        assert ckpt["mode"] == "oblivious"
        assert "provenance" in ckpt
        report = json.loads((outdir / "report.json").read_text())
        split = load_corpus(corpus_dir / "manifest.json")
        n_pages = sum(len(d) for d in split.train)
        expected_steps = 2 * ((n_pages + 15) // 16)
        assert report["total_steps"] == expected_steps
        assert len(report["step_losses"]) == expected_steps
        assert (outdir / "timing.json").exists()

    def test_timing_sidecar_has_stage_seconds(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "timed")
        timing = json.loads((outdir / "timing.json").read_text())
        for stage in ("encode", "steps", "validation", "checkpoint", "train",
                      "total"):
            assert timing[f"{stage}_seconds"] >= 0.0
        assert timing["steps_seconds"] + timing["validation_seconds"] == \
            pytest.approx(timing["train_seconds"])

    @pytest.mark.parametrize("l2", [-1, -1e-9, float("nan")])
    def test_bad_crf_l2_exits_before_training(self, tmp_path, corpus_dir, capsys,
                                              monkeypatch, l2):
        """The CRF's l2 is checked with the config, before the encoder
        trains and before the run directory exists."""
        trained = []
        monkeypatch.setattr(cli, "train_encoder", lambda *a, **k: trained.append(a))
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(experiment_cfg(
            corpus_dir, baselines={"crf": True}, crf={"l2": l2})))
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "bad"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "l2" in err[0]
        assert trained == [] and not (tmp_path / "runs" / "bad").exists()

    def test_modes_share_step_counts(self, tmp_path, corpus_dir):
        rep_o = json.loads((run_train(tmp_path, corpus_dir, "o") /
                            "report.json").read_text())
        rep_r = json.loads((run_train(tmp_path, corpus_dir, "r",
                                      mode="recurrent") /
                            "report.json").read_text())
        assert rep_o["total_steps"] == rep_r["total_steps"]
        assert rep_o["step_lrs"] == rep_r["step_lrs"]

    def test_epochs_zero_rejected(self, tmp_path, corpus_dir):
        cfg = experiment_cfg(corpus_dir)
        cfg["train"]["epochs"] = 0
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2

    def test_crf_requires_oblivious_mode(self, tmp_path, corpus_dir):
        cfg = experiment_cfg(corpus_dir, mode="recurrent",
                             baselines={"crf": True})
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2

    def test_baselines_produce_checkpoints(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "base",
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8, "svd_k": 6})
        assert json.loads((outdir / "crf.json").read_text())["kind"] == "crf"
        assert json.loads((outdir / "bilstm.json").read_text())["kind"] == "bilstm"
        assert (outdir / "bilstm_report.json").exists()

    @pytest.mark.parametrize("field", ["svd_k", "hidden_dim"])
    def test_bad_bilstm_config_exits_2(self, tmp_path, corpus_dir, capsys, field):
        bilstm = dict({"hidden_dim": 8, "svd_k": 6}, **{field: 0})
        cfg = experiment_cfg(corpus_dir, baselines={"bilstm": True}, bilstm=bilstm)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_readme_walkthrough_bilstm(self, tmp_path):
        """The README walkthrough corpus (2036 train pages, 400 tokens) with
        its BiLSTM's svd_k of 100; a small hidden size and one epoch keep
        it quick."""
        synth = {"n_classes": 4, "self_transition": 0.85,
                 "pages_per_doc": [6, 14], "tokens_per_page": [1, 6],
                 "class_vocab_size": 25, "shared_vocab_size": 300,
                 "ambiguity": 0.8, "seed": 100, "docs_per_split": [200, 30, 60]}
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(synth))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        corpus_dir = tmp_path / "runs" / "corpus"
        outdir = run_train(tmp_path, corpus_dir, "walk",
                           encoder={"variant": "linear", "d": 32, "max_len": 16},
                           train={"epochs": 1, "batch_size": 32, "peak_lr": 0.02},
                           vocab_cap=60000, baselines={"bilstm": True},
                           bilstm={"hidden_dim": 4, "svd_k": 100})
        payload = json.loads((outdir / "bilstm.json").read_text())
        assert payload["config"]["input_dim"] == 100
        assert np.array(payload["features"]["basis"]).shape == (400, 100)

    def test_codec_fitted_on_train_split_only(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "sep")
        ckpt = json.loads((outdir / "checkpoint.json").read_text())
        split = load_corpus(corpus_dir / "manifest.json")
        train_tokens = set()
        for doc in split.train:
            for page in doc.pages:
                train_tokens.update(page.text.split())
        assert set(ckpt["codec"]["text_tokens"]) <= train_tokens

    def test_deterministic_artifacts(self, tmp_path, corpus_dir):
        a = run_train(tmp_path, corpus_dir, "da")
        cfg_path = tmp_path / "da.json"  # identical config, fresh run dir
        rc = main(["train", "--config", str(cfg_path),
                   "--outdir", str(tmp_path / "runs2"), "--run-id", "da"])
        assert rc == 0
        b = tmp_path / "runs2" / "da"
        assert sha(a / "checkpoint.json") == sha(b / "checkpoint.json")
        assert sha(a / "report.json") == sha(b / "report.json")


class TestInferEvalCompare:
    @pytest.fixture()
    def trained(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "m", mode="recurrent")
        return tmp_path, corpus_dir, outdir

    def test_infer_trace_shape_and_first_page_context(self, trained):
        tmp_path, corpus_dir, outdir = trained
        traces_path = tmp_path / "traces.jsonl"
        rc = main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                   "--manifest", str(corpus_dir / "manifest.json"),
                   "--split", "test", "--out", str(traces_path)])
        assert rc == 0
        split = load_corpus(corpus_dir / "manifest.json")
        n_pages = sum(len(d) for d in split.test)
        lines = [json.loads(l) for l in traces_path.read_text().splitlines()]
        assert "provenance" in lines[0]
        pages = [l for l in lines if "doc_id" in l]
        assert len(pages) == n_pages
        for line in pages:
            if line["page_index"] == 0:
                assert line["context"] == ["[-1]"]

    def test_infer_rerun_identical(self, trained):
        tmp_path, corpus_dir, outdir = trained
        p1, p2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        for p in (p1, p2):
            assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                         "--manifest", str(corpus_dir / "manifest.json"),
                         "--split", "test", "--out", str(p)]) == 0
        assert sha(p1) == sha(p2)

    def test_eval_perfect_traces_all_ones(self, trained, capsys):
        tmp_path, corpus_dir, _ = trained
        split = load_corpus(corpus_dir / "manifest.json")
        trace = SplitTrace.blank([doc.doc_id for doc in split.test],
                                 doc_offsets(split.test), 3, fed=False)
        trace.labels[:] = gold_labels(split.test, 3)
        path = tmp_path / "gold_traces.jsonl"
        write_traces(trace, path, split.vocabulary)
        capsys.readouterr()
        rc = main(["eval", "--traces", str(path),
                   "--manifest", str(corpus_dir / "manifest.json"),
                   "--split", "test"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "macro-avg" in out
        assert "100.00" in out.splitlines()[-2]  # macro row
        assert "100.00" in out.splitlines()[-1]  # weighted row

    def test_eval_matches_direct_library_call(self, trained, capsys):
        tmp_path, corpus_dir, outdir = trained
        traces_path = tmp_path / "traces.jsonl"
        main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
              "--manifest", str(corpus_dir / "manifest.json"),
              "--split", "test", "--out", str(traces_path)])
        report_path = tmp_path / "report.json"
        rc = main(["eval", "--traces", str(traces_path),
                   "--manifest", str(corpus_dir / "manifest.json"),
                   "--split", "test", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        split = load_corpus(corpus_dir / "manifest.json")
        trace = read_traces(traces_path, split.vocabulary)
        preds = align_traces(trace, split.test)
        expected = score(preds, gold_labels(split.test, 3), split.vocabulary)
        assert report["macro_f1"] == pytest.approx(expected.macro_f1)
        assert report["weighted_f1"] == pytest.approx(expected.weighted_f1)

    def test_compare_trace_with_itself_gives_p_one(self, trained, capsys):
        tmp_path, corpus_dir, outdir = trained
        traces_path = tmp_path / "traces.jsonl"
        main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
              "--manifest", str(corpus_dir / "manifest.json"),
              "--split", "test", "--out", str(traces_path)])
        out_path = tmp_path / "cmp.json"
        capsys.readouterr()
        rc = main(["compare", "--traces-a", str(traces_path),
                   "--traces-b", str(traces_path),
                   "--manifest", str(corpus_dir / "manifest.json"),
                   "--split", "test", "--out", str(out_path)])
        assert rc == 0
        assert "p-value 1" in capsys.readouterr().out
        cmp = json.loads(out_path.read_text())
        assert cmp["p_value"] == 1.0
        assert cmp["statistic"] == 0.0
        split = load_corpus(corpus_dir / "manifest.json")
        assert sum(sum(row) for row in cmp["contingency_table"]) == \
            sum(len(d) for d in split.test)

    def test_crf_and_bilstm_checkpoints_infer(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "base2",
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8, "svd_k": 6})
        split = load_corpus(corpus_dir / "manifest.json")
        n_pages = sum(len(d) for d in split.test)
        for ckpt in ("crf.json", "bilstm.json"):
            out = tmp_path / f"traces-{ckpt}.jsonl"
            rc = main(["infer", "--checkpoint", str(outdir / ckpt),
                       "--manifest", str(corpus_dir / "manifest.json"),
                       "--split", "test", "--out", str(out)])
            assert rc == 0
            trace = read_traces(out, split.vocabulary)
            assert len(trace.scores) == n_pages

    def test_crf_checkpoint_rejects_other_classes(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "crf3", baselines={"crf": True})
        cfg_path = tmp_path / "synth4.json"
        cfg_path.write_text(json.dumps(dict(SYNTH_CFG, n_classes=4)))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "c4"]) == 0
        out = tmp_path / "traces.jsonl"
        rc = main(["infer", "--checkpoint", str(outdir / "crf.json"),
                   "--manifest", str(tmp_path / "runs" / "c4" / "manifest.json"),
                   "--split", "test", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_bilstm_tokenizer_mismatch_exits_2(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "bl",
                           baselines={"bilstm": True},
                           bilstm={"hidden_dim": 8, "svd_k": 6})
        payload = json.loads((outdir / "bilstm.json").read_text())
        payload["features"]["tokenizer_version"] = "other/0"
        ckpt = tmp_path / "stale.json"
        ckpt.write_text(json.dumps(payload))
        rc = main(["infer", "--checkpoint", str(ckpt),
                   "--manifest", str(corpus_dir / "manifest.json"),
                   "--split", "test", "--out", str(tmp_path / "t.jsonl")])
        assert rc == 2


def count_tokenize_calls(monkeypatch):
    """Count calls of the tokenizer under every name the program calls it by."""
    import pageseq.features as features
    import pageseq.recurrence as recurrence

    calls = []
    real = features.tokenize

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(features, "tokenize", counting)
    monkeypatch.setattr(recurrence, "tokenize", counting)
    return calls


class TestTokenizeOnce:
    def test_each_page_tokenized_once_per_command(self, tmp_path, corpus_dir,
                                                  monkeypatch):
        """train (with both baselines) tokenizes every train and validation
        page once, for the vocabulary, every epoch, the CRF and the BiLSTM
        alike; infer every page of its split once."""
        split = load_corpus(corpus_dir / "manifest.json")
        calls = count_tokenize_calls(monkeypatch)
        outdir = run_train(tmp_path, corpus_dir, "once",
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8, "svd_k": 6})
        pages = [p.text for docs in (split.train, split.validation)
                 for d in docs for p in d.pages]
        assert sorted(calls) == sorted(pages)
        for ckpt in ("checkpoint.json", "crf.json", "bilstm.json"):
            calls.clear()
            assert main(["infer", "--checkpoint", str(outdir / ckpt),
                         "--manifest", str(corpus_dir / "manifest.json"),
                         "--split", "test", "--out", str(tmp_path / "t.jsonl")]) == 0
            assert sorted(calls) == sorted(p.text for d in split.test
                                           for p in d.pages)


class TestSplitsRead:
    """A command parses only the corpus split files it uses."""

    @pytest.fixture()
    def commands(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "s", mode="recurrent")
        manifest = str(corpus_dir / "manifest.json")
        traces = str(tmp_path / "traces.jsonl")
        test = ["--manifest", manifest, "--split", "test"]
        return {
            "infer": ["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                      "--out", traces] + test,
            "eval": ["eval", "--traces", traces, "--out",
                     str(tmp_path / "eval.json")] + test,
            "compare": ["compare", "--traces-a", traces, "--traces-b", traces,
                        "--out", str(tmp_path / "compare.json")] + test,
            "stats": ["stats", "--manifest", manifest],
        }

    def test_test_split_is_enough_for_infer_eval_compare(self, corpus_dir, commands):
        for name in ("train", "validation"):
            (corpus_dir / f"{name}.jsonl").unlink()
        for command in ("infer", "eval", "compare"):
            assert main(commands[command]) == 0

    @pytest.mark.parametrize("command, files", [
        ("infer", ["test"]), ("eval", ["test"]), ("compare", ["test"]),
        ("train", ["train", "validation"]), ("stats", ["train", "validation", "test"]),
    ])
    def test_split_files_parsed(self, tmp_path, corpus_dir, commands, monkeypatch,
                                command, files):
        import pageseq.corpus as corpus

        assert main(commands["infer"]) == 0
        parsed = []
        real = corpus.load_split_file

        def recording(path, vocab):
            parsed.append(Path(path).stem)
            return real(path, vocab)

        monkeypatch.setattr(corpus, "load_split_file", recording)
        if command == "train":
            run_train(tmp_path, corpus_dir, "again", mode="recurrent")
        else:
            assert main(commands[command]) == 0
        assert parsed == files


class TestBaselineCheckpoints:
    """A CRF or BiLSTM checkpoint with a missing field, a wrong shape or a
    class list that does not fit exits 2 with a one-line message."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("baselines")
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        corpus_dir = tmp_path / "runs" / "corpus"
        outdir = run_train(tmp_path, corpus_dir, "b",
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8, "svd_k": 6})
        return tmp_path, corpus_dir, outdir

    @staticmethod
    def edit_crf(payload, edit):
        if edit in ("transition", "start", "encoder", "emission_scale"):
            del payload[edit]
        elif edit == "2x2_transition":
            payload["transition"] = [row[:2] for row in payload["transition"][:2]]
        elif edit == "2_class_crf":
            payload["transition"] = [row[:2] for row in payload["transition"][:2]]
            payload["start"] = payload["start"][:2]
        elif edit == "nan_scale":
            payload["emission_scale"] = float("nan")
        elif edit == "negative_scale":
            payload["emission_scale"] = -1.0
        elif edit == "zero_scale":
            payload["emission_scale"] = 0.0
        elif edit == "text_scale":
            payload["emission_scale"] = "one"
        elif edit == "scalar_start":
            payload["start"] = 0.0
        elif edit == "encoder_list":
            payload["encoder"] = []
        elif edit == "recurrent_encoder":
            payload["encoder"]["mode"] = "recurrent"

    @staticmethod
    def edit_bilstm(payload, edit):
        if edit in ("params", "config", "features", "classes"):
            del payload[edit]
        elif edit == "missing_param":
            del payload["params"]["fw_u"]
        elif edit == "narrow_head":
            payload["params"]["head_w"] = [row[:2] for row in payload["params"]["head_w"]]
        elif edit == "hidden_dim":
            payload["config"]["hidden_dim"] = 9
        elif edit == "two_classes":
            payload["classes"] = payload["classes"][:2]
        elif edit == "nan_param":
            payload["params"]["fw_w"][0][0] = float("nan")
        elif edit == "nan_basis":
            payload["features"]["basis"][0][0] = float("nan")
        elif edit == "inf_singular_value":
            payload["features"]["singular_values"][0] = float("inf")
        elif edit == "input_dim":
            payload["config"]["input_dim"] = 5
            payload["params"]["fw_w"] = [row[:5] for row in payload["params"]["fw_w"]]
            payload["params"]["bw_w"] = [row[:5] for row in payload["params"]["bw_w"]]

    @pytest.mark.parametrize("kind, edit", [
        ("crf", e) for e in ("transition", "start", "encoder", "emission_scale",
                             "2x2_transition", "2_class_crf", "nan_scale",
                             "negative_scale", "zero_scale", "text_scale",
                             "scalar_start", "encoder_list", "recurrent_encoder")
    ] + [
        ("bilstm", e) for e in ("params", "config", "features", "classes",
                                "missing_param", "narrow_head", "hidden_dim",
                                "two_classes", "input_dim", "nan_param",
                                "nan_basis", "inf_singular_value")
    ])
    def test_bad_payload_exits_2(self, trained, capsys, kind, edit):
        tmp_path, corpus_dir, outdir = trained
        payload = json.loads((outdir / f"{kind}.json").read_text())
        getattr(self, f"edit_{kind}")(payload, edit)
        ckpt = tmp_path / f"{kind}-{edit}.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / f"{kind}-{edit}.jsonl"
        capsys.readouterr()
        rc = main(["infer", "--checkpoint", str(ckpt),
                   "--manifest", str(corpus_dir / "manifest.json"),
                   "--split", "test", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


    @pytest.mark.parametrize("kind", ["checkpoint", "crf", "bilstm"])
    def test_empty_split_infers(self, trained, kind):
        tmp_path, corpus_dir, outdir = trained
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        (corpus_dir / "empty.jsonl").write_text("")
        manifest["test"] = "empty.jsonl"
        (corpus_dir / "empty-test.json").write_text(json.dumps(manifest))
        out = tmp_path / f"empty-{kind}.jsonl"
        assert main(["infer", "--checkpoint", str(outdir / f"{kind}.json"),
                     "--manifest", str(corpus_dir / "empty-test.json"),
                     "--split", "test", "--out", str(out)]) == 0
        assert all("doc_id" not in line for line in out.read_text().splitlines())


class TestBadArtifacts:
    """Missing, truncated or inconsistent artifact files exit 2 with a
    one-line message and write nothing."""

    @pytest.fixture()
    def trained(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "m", mode="recurrent")
        traces = tmp_path / "traces.jsonl"
        assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(traces)]) == 0
        return tmp_path, corpus_dir, outdir, traces

    @staticmethod
    def infer(tmp_path, corpus_dir, checkpoint, manifest=None):
        out = tmp_path / "out.jsonl"
        rc = main(["infer", "--checkpoint", str(checkpoint),
                   "--manifest", str(manifest or corpus_dir / "manifest.json"),
                   "--split", "test", "--out", str(out)])
        assert not out.exists()
        return rc

    @staticmethod
    def truncations(tmp_path, path):
        """The file cut inside its last line and cut after its second-to-last."""
        text = path.read_text()
        mid = tmp_path / f"mid-{path.name}"
        mid.write_text(text[:len(text) - 20])
        lines = text.splitlines(keepends=True)
        short = tmp_path / f"short-{path.name}"
        short.write_text("".join(lines[:-1]))
        return mid, short

    def test_checkpoint_missing_or_truncated(self, trained, capsys):
        tmp_path, corpus_dir, outdir, _ = trained
        assert self.infer(tmp_path, corpus_dir, tmp_path / "nope.json") == 2
        mid, _ = self.truncations(tmp_path, outdir / "checkpoint.json")
        assert self.infer(tmp_path, corpus_dir, mid) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_traces_missing_or_truncated(self, trained, command, capsys):
        tmp_path, corpus_dir, _, traces = trained
        mid, short = self.truncations(tmp_path, traces)
        lines = traces.read_text().splitlines(keepends=True)
        no_scores = tmp_path / "no-scores.jsonl"
        page = json.loads(lines[-1])
        del page["scores"]
        no_scores.write_text("".join(lines[:-1]) + json.dumps(page) + "\n")
        not_object = tmp_path / "not-object.jsonl"
        not_object.write_text("".join(lines) + "3\n")
        for bad in (tmp_path / "nope.jsonl", mid, short, no_scores, not_object):
            out = tmp_path / "report.json"
            if command == "eval":
                argv = ["eval", "--traces", str(bad)]
            else:
                argv = ["compare", "--traces-a", str(traces), "--traces-b", str(bad)]
            rc = main(argv + ["--manifest", str(corpus_dir / "manifest.json"),
                              "--split", "test", "--out", str(out)])
            assert rc == 2
            assert not out.exists()
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and str(bad) in err[0]

    @staticmethod
    def run_on_edited_page(trained, command, name, edit, capsys):
        """``eval`` or ``compare`` on the trace with its last page edited;
        asserts exit 2 and nothing written, and returns the error lines."""
        tmp_path, corpus_dir, _, traces = trained
        lines = traces.read_text().splitlines(keepends=True)
        page = json.loads(lines[-1])
        edit(page)
        bad = tmp_path / f"{name}.jsonl"
        bad.write_text("".join(lines[:-1]) + json.dumps(page) + "\n")
        out = tmp_path / "report.json"
        if command == "eval":
            argv = ["eval", "--traces", str(bad)]
        else:
            argv = ["compare", "--traces-a", str(traces), "--traces-b", str(bad)]
        capsys.readouterr()
        assert main(argv + ["--manifest", str(corpus_dir / "manifest.json"),
                            "--split", "test", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(bad) in err[0]
        return err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("count", [0, 2])
    def test_trace_page_label_count(self, trained, command, count, capsys):
        """A multiclass trace page with no label or with two labels."""
        classes = load_corpus(trained[1] / "manifest.json").vocabulary.class_names
        err = self.run_on_edited_page(
            trained, command, f"labels-{count}",
            lambda page: page.update(labels=list(classes[:count])), capsys)
        assert f"{count} labels" in err[0]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("scores, message", [
        (lambda s: s[:2], "2 scores for 3 classes"),
        (lambda s: [float("nan")] * len(s), "not finite"),
        (lambda s: s[:-1] + [float("-inf")], "not finite"),
    ], ids=["two", "nan", "-inf"])
    def test_trace_page_scores(self, trained, command, scores, message, capsys):
        """A trace page with 2 scores on a 3-class corpus, or a non-finite one."""
        err = self.run_on_edited_page(
            trained, command, "scores",
            lambda page: page.update(scores=scores(page["scores"])), capsys)
        assert message in err[0]

    def test_non_finite_parameter(self, trained, capsys):
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        payload["params"]["head_b"][0] = float("nan")
        ckpt = tmp_path / "nan-head.json"
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.infer(tmp_path, corpus_dir, ckpt) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "head_b" in err[0] and "finite" in err[0]

    @pytest.mark.parametrize("command", ["stats", "infer", "eval", "compare", "train"])
    def test_missing_corpus_file(self, trained, command, capsys):
        """A missing manifest, or a manifest naming a missing file for a split
        the command reads (validation for train, test for the others)."""
        tmp_path, corpus_dir, outdir, traces = trained
        no_split = tmp_path / "no-split" / "manifest.json"
        no_split.parent.mkdir()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        files = {name: str(corpus_dir / manifest[name])
                 for name in ("train", "validation", "test")}
        files["validation" if command == "train" else "test"] = "gone.jsonl"
        no_split.write_text(json.dumps(dict(manifest, **files)))
        cases = [(tmp_path / "nowhere" / "manifest.json",) * 2,
                 (no_split, no_split.parent / "gone.jsonl")]
        for bad, named in cases:
            out = tmp_path / "out.json"
            argv = {
                "stats": ["stats"],
                "infer": ["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                          "--split", "test", "--out", str(out)],
                "eval": ["eval", "--traces", str(traces), "--out", str(out)],
                "compare": ["compare", "--traces-a", str(traces),
                            "--traces-b", str(traces), "--out", str(out)],
            }.get(command)
            if argv is None:
                cfg_path = tmp_path / "bad-corpus.json"
                cfg_path.write_text(json.dumps(experiment_cfg(corpus_dir,
                                                              corpus=str(bad))))
                argv = ["train", "--config", str(cfg_path),
                        "--outdir", str(tmp_path / "runs"), "--run-id", "bad"]
            else:
                argv += ["--manifest", str(bad)]
            assert main(argv) == 2
            assert not out.exists()
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert str(named) in err[0]

    def test_head_narrower_than_manifest_classes(self, trained):
        """A 3-column head relabelled with a 4-class codec must not infer."""
        tmp_path, corpus_dir, outdir, _ = trained
        cfg_path = tmp_path / "synth4.json"
        cfg_path.write_text(json.dumps(dict(SYNTH_CFG, n_classes=4)))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "c4"]) == 0
        manifest = tmp_path / "runs" / "c4" / "manifest.json"
        payload = json.loads((outdir / "checkpoint.json").read_text())
        payload["codec"]["classes"] = list(load_corpus(manifest).vocabulary.class_names)
        ckpt = tmp_path / "relabelled.json"
        ckpt.write_text(json.dumps(payload))
        assert self.infer(tmp_path, corpus_dir, ckpt, manifest) == 2

    def test_short_embedding_table(self, trained):
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        payload["params"]["emb"] = payload["params"]["emb"][:5]
        ckpt = tmp_path / "short-emb.json"
        ckpt.write_text(json.dumps(payload))
        assert self.infer(tmp_path, corpus_dir, ckpt) == 2

    def test_manifest_with_another_label_mode(self, trained, capsys):
        """A multiclass checkpoint on a multilabel manifest of the same
        classes must not decode."""
        tmp_path, corpus_dir, outdir, _ = trained
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        multilabel = corpus_dir / "multilabel.json"
        multilabel.write_text(json.dumps(dict(manifest, label_mode="multilabel")))
        capsys.readouterr()
        assert self.infer(tmp_path, corpus_dir, outdir / "checkpoint.json",
                          multilabel) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "label mode" in err[0]

    @pytest.mark.parametrize("field, value", [("mode", "recurrnt"),
                                              ("label_mode", "bogus"),
                                              ("label_mode", "multilabel")])
    def test_bad_mode_or_label_mode(self, trained, capsys, field, value):
        """A mode that is not a decoding mode, or a label_mode other than the
        codec's, must not decode."""
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        payload[field] = value
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.infer(tmp_path, corpus_dir, ckpt) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert field in err[0] and repr(value) in err[0]


# Class order is not alphabetical, so ascending class order shows in traces.
ML_CLASSES = ["Zeta", "Alpha", "Mid"]
ML_PAGES = [("zz cover page", ["Zeta", "Mid"]), ("aa body text", ["Alpha", "Mid"]),
            ("aa solo text", ["Alpha"])]
ML_TRAIN = {"epochs": 20, "batch_size": 8, "peak_lr": 0.05}


@pytest.fixture()
def multilabel_dir(tmp_path):
    """A hand-written 3-class multilabel corpus of 4-page documents."""
    root = tmp_path / "ml"
    root.mkdir()
    for name, n_docs in (("train", 10), ("validation", 2), ("test", 3)):
        (root / f"{name}.jsonl").write_text("".join(
            json.dumps({"doc_id": f"{name}-{d}", "labels": ML_PAGES[(d + i) % 3][1],
                        "page_index": i, "text": ML_PAGES[(d + i) % 3][0]}) + "\n"
            for d in range(n_docs) for i in range(4)))
    (root / "manifest.json").write_text(json.dumps({
        "classes": ML_CLASSES, "label_mode": "multilabel", "train": "train.jsonl",
        "validation": "validation.jsonl", "test": "test.jsonl"}))
    return root


class TestMultilabel:
    def test_train_infer_eval_compare(self, tmp_path, multilabel_dir):
        manifest = str(multilabel_dir / "manifest.json")
        traces = {}
        for mode in ("oblivious", "recurrent"):
            outdir = run_train(tmp_path, multilabel_dir, mode, mode=mode,
                               train=ML_TRAIN)
            traces[mode] = tmp_path / f"{mode}.jsonl"
            assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                         "--manifest", manifest, "--out", str(traces[mode])]) == 0
            assert main(["eval", "--traces", str(traces[mode]), "--manifest",
                         manifest, "--out", str(tmp_path / f"{mode}-eval.json")]) == 0
        assert main(["compare", "--traces-a", str(traces["recurrent"]),
                     "--traces-b", str(traces["oblivious"]), "--manifest", manifest,
                     "--out", str(tmp_path / "compare.json")]) == 0
        pages = [json.loads(line) for line in
                 traces["recurrent"].read_text().splitlines()[1:]]
        for prev, page in zip(pages, pages[1:]):
            if page["page_index"]:
                assert page["context"] == prev["labels"]
                assert page["context"] == sorted(page["context"],
                                                 key=ML_CLASSES.index)
        assert ["Zeta", "Mid"] in [page["context"] for page in pages]

    @pytest.mark.parametrize("baseline", ["crf", "bilstm"])
    def test_baselines_exit_2_before_training(self, tmp_path, multilabel_dir,
                                              capsys, monkeypatch, baseline):
        trained = []
        monkeypatch.setattr(cli, "train_encoder", lambda *a, **k: trained.append(a))
        cfg_path = tmp_path / "ml-baseline.json"
        cfg_path.write_text(json.dumps(experiment_cfg(
            multilabel_dir, baselines={baseline: True},
            bilstm={"hidden_dim": 8, "svd_k": 2})))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "bad"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "multiclass" in err[0]
        assert trained == [] and not (tmp_path / "runs" / "bad").exists()


class TestStats:
    def test_stats_prints_counts_and_runs(self, corpus_dir, capsys):
        rc = main(["stats", "--manifest", str(corpus_dir / "manifest.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pages per class" in out
        assert "label runs in train" in out
        assert "self-transition" in out


def _chain_cfg(matrix):
    """SYNTH_CFG with an explicit chain in place of its self-transition."""
    cfg = {k: v for k, v in SYNTH_CFG.items() if k != "self_transition"}
    return dict(cfg, transition_matrix=matrix, start_distribution=[0.4, 0.3, 0.3])


IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


class TestConfigReader:
    """Every config block is read against its schema: a bad key, type or
    value exits 2 with one ``error:`` line naming the field."""

    @pytest.mark.parametrize("command, make_cfg, argv, expected", [
        pytest.param("train", lambda c: experiment_cfg(
            c, train={"epoch": 1, "batchsize": 4}), [],
            ["'train.epoch'", "did you mean 'epochs'"], id="train.epoch"),
        pytest.param("train", lambda c: experiment_cfg(c, baseline={"crf": True}),
                     [], ["'baseline'", "did you mean 'baselines'"], id="baseline"),
        pytest.param("synth", lambda c: dict(SYNTH_CFG, sel_transition=0.5), [],
                     ["'sel_transition'", "did you mean 'self_transition'"],
                     id="sel_transition"),
        pytest.param("train", lambda c: experiment_cfg(
            c, train={"epochs": 1, "peak_lr": float("nan")}), [],
            ["'train.peak_lr'"], id="peak_lr-NaN"),
        pytest.param("train", lambda c: experiment_cfg(
            c, train={"epochs": 1, "weight_decay": float("inf")}), [],
            ["'train.weight_decay'"], id="weight_decay-Infinity"),
        pytest.param("train", lambda c: experiment_cfg(
            c, train={"epochs": 1, "peak_lr": 10**400}), [],
            ["'train.peak_lr'"], id="peak_lr-beyond-float"),
        pytest.param("synth", lambda c: dict(SYNTH_CFG, n_classes=1), [],
                     ["n_classes"], id="one-class-uniform"),
        pytest.param("train", lambda c: experiment_cfg(
            c, baselines={"crf": True}, crf={"l2": -1}), [], ["l2"],
            id="crf.l2-negative"),
        pytest.param("train", lambda c: experiment_cfg(c, vocab_cap=0), [],
                     ["vocab_cap"], id="vocab_cap-0"),
        pytest.param("synth", lambda c: dict(_chain_cfg(IDENTITY),
                                             self_transition=0.7), [],
                     ["'transition_matrix'", "self_transition"],
                     id="self_transition-and-matrix"),
        pytest.param("train", lambda c: 5, [], ["config must be a JSON object"],
                     id="top-level-5"),
        pytest.param("train", lambda c: experiment_cfg(c, corpus={"synthetic": 5}),
                     [], ["'corpus.synthetic'"], id="corpus.synthetic-5"),
        pytest.param("synth", lambda c: _chain_cfg(5), [], ["'transition_matrix'"],
                     id="transition_matrix-5"),
        pytest.param("synth", lambda c: _chain_cfg([[1, 0, 0], [0, "1", 0],
                                                    [0, 0, 1]]), [],
                     ["'transition_matrix[1][1]'"], id="matrix-entry-string"),
        pytest.param("train", lambda c: experiment_cfg(c, train=5),
                     ["--epochs", "1"], ["'train'"], id="epochs-override-train-5"),
    ])
    def test_bad_config_exits_2_naming_the_field(self, tmp_path, corpus_dir, capsys,
                                                 command, make_cfg, argv, expected):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(make_cfg(corpus_dir)))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), *argv]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        for text in expected:
            assert text in err[0]

    unit = st.floats(0.0, 1.0, exclude_max=True)
    positive = st.floats(1e-12, 1e6)
    seed = st.integers(0, 2**63)

    @given(n=st.integers(2, 6), self_p=st.floats(0.0, 1.0), seed=seed,
           pages=st.tuples(st.integers(1, 5), st.integers(5, 9)),
           ambiguity=st.floats(0.0, 1.0),
           docs=st.tuples(*[st.integers(1, 50)] * 3))
    def test_synth_config_round_trips(self, n, self_p, seed, pages, ambiguity, docs):
        cfg = SynthConfig.uniform(n, self_p, seed=seed, pages_per_doc=pages,
                                  ambiguity=ambiguity, docs_per_split=docs)
        assert _config_from(SynthConfig, json.loads(json.dumps(asdict(cfg))),
                            "synth") == cfg

    @given(variant=st.sampled_from(["linear", "tiny-transformer"]),
           heads=st.integers(1, 4), per_head=st.integers(1, 8),
           n_layers=st.integers(1, 3), max_len=st.integers(3, 512),
           dropout=unit, init_seed=seed)
    def test_encoder_config_round_trips(self, variant, heads, per_head, n_layers,
                                        max_len, dropout, init_seed):
        cfg = EncoderConfig(variant, heads * per_head, n_layers, heads, max_len,
                            dropout, init_seed)
        assert _config_from(EncoderConfig, json.loads(json.dumps(asdict(cfg))),
                            "encoder") == cfg

    @given(epochs=st.integers(1, 100), batch_size=st.integers(1, 4096),
           peak_lr=positive, warmup=unit, weight_decay=st.floats(0.0, 1e3),
           betas=st.tuples(unit, unit), epsilon=positive, seed=seed)
    def test_train_config_round_trips(self, epochs, batch_size, peak_lr, warmup,
                                      weight_decay, betas, epsilon, seed):
        cfg = TrainConfig(epochs, batch_size, peak_lr, warmup, weight_decay, betas,
                          epsilon, seed)
        assert _config_from(TrainConfig, json.loads(json.dumps(asdict(cfg))),
                            "train") == cfg
