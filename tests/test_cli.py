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
import pageseq.encoder as encoder
import pageseq.training as training
from pageseq.cli import _config_from, main
from pageseq.corpus import SynthConfig, load_corpus
from pageseq.encoder import EncoderConfig
from pageseq.evaluation import align_traces, score
from pageseq.features import page_vector_model_from_payload, tfidf_matrix
from pageseq.recurrence import SplitTrace, page_tokens, read_traces, write_traces
from pageseq.training import TrainConfig

from oracles import (
    allocating_optimizer_step,
    bilstm_logits_per_document,
    reference_generate_synthetic,
    reference_write_corpus,
    scatter_embedding_grad,
    scatter_linear_bwd,
)


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


# The synth config of the README walkthrough.
README_SYNTH_CFG = {
    "n_classes": 4,
    "self_transition": 0.85,
    "pages_per_doc": [6, 14],
    "tokens_per_page": [1, 6],
    "class_vocab_size": 25,
    "shared_vocab_size": 300,
    "ambiguity": 0.8,
    "seed": 100,
    "docs_per_split": [200, 30, 60],
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

    def test_readme_corpus_matches_per_page_reference(self, tmp_path):
        """``pageseq synth`` on the README walkthrough config writes the bytes
        of the per-page reference generator and writer."""
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(README_SYNTH_CFG))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        cfg = cli.synth_config_from(README_SYNTH_CFG)
        reference_write_corpus(reference_generate_synthetic(cfg), tmp_path / "ref",
                               cli.provenance_for("synth", README_SYNTH_CFG, cfg.seed))
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                     "manifest.json"):
            assert sha(tmp_path / "runs" / "corpus" / name) == \
                sha(tmp_path / "ref" / name)

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

    def test_one_page_documents(self, tmp_path, capsys):
        """A corpus without page transitions: synth and stats say so and
        succeed."""
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps({
            "n_classes": 3, "self_transition": 0.5, "pages_per_doc": [1, 1],
            "docs_per_split": [5, 2, 2]}))
        for argv in (["synth", "--config", str(cfg_path), "--outdir",
                      str(tmp_path / "runs"), "--run-id", "one"],
                     ["stats", "--manifest",
                      str(tmp_path / "runs" / "one" / "manifest.json")]):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "train self-transition: no page transitions" in captured.out

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
        n_pages = len(split.train.texts)
        expected_steps = 2 * ((n_pages + 15) // 16)
        assert report["total_steps"] == expected_steps
        assert len(report["step_losses"]) == expected_steps
        assert (outdir / "timing.json").exists()

    @pytest.mark.parametrize("mode, encoder_cfg", [
        ("recurrent", {"variant": "linear", "d": 8, "max_len": 16}),
        ("oblivious", {"variant": "tiny-transformer", "d": 8, "n_layers": 2,
                       "n_heads": 2, "max_len": 16, "dropout": 0.1})])
    def test_same_bytes_as_scatter_and_allocating_adamw(
            self, tmp_path, corpus_dir, monkeypatch, mode, encoder_cfg):
        """``train`` writes the checkpoint and report bytes it writes with the
        embedding gradient scattered by ``np.add.at`` and an AdamW step that
        allocates every intermediate."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(experiment_cfg(
            corpus_dir, mode=mode, encoder=encoder_cfg,
            train={"epochs": 2, "batch_size": 8, "peak_lr": 0.02,
                   "weight_decay": 0.01})))

        def train(outdir):
            assert main(["train", "--config", str(cfg_path), "--outdir",
                         str(tmp_path / outdir), "--run-id", "run"]) == 0
            return [(tmp_path / outdir / "run" / name).read_bytes()
                    for name in ("checkpoint.json", "report.json")]

        shipped = train("shipped")
        monkeypatch.setattr(encoder, "_linear_bwd", scatter_linear_bwd)
        monkeypatch.setattr(encoder, "_embedding_grad", scatter_embedding_grad)
        monkeypatch.setattr(training, "optimizer_step", allocating_optimizer_step)
        assert train("oracles") == shipped

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

    def test_crf_checkpoint_records_fit_diagnostics(self, tmp_path, corpus_dir):
        """crf.json says how the fit ended, the same way on every run, and
        ``infer`` still reads it."""
        first = run_train(tmp_path, corpus_dir, "crf-a", baselines={"crf": True})
        again = run_train(tmp_path, corpus_dir, "crf-b", baselines={"crf": True})
        assert sha(first / "crf.json") == sha(again / "crf.json")
        payload = json.loads((first / "crf.json").read_text())
        assert isinstance(payload["converged"], bool)
        assert isinstance(payload["iterations"], int) and payload["iterations"] > 0
        assert payload["projected_gradient_max"] >= 0
        if payload["converged"]:
            assert payload["projected_gradient_max"] <= 1e-6  # crf_fit's tol
        out = tmp_path / "traces.jsonl"
        assert main(["infer", "--checkpoint", str(first / "crf.json"),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(out)]) == 0
        split = load_corpus(corpus_dir / "manifest.json")
        assert len(read_traces(out, split.vocabulary).scores) == len(split.test.texts)

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
        """The README walkthrough corpus (2036 train pages, 400 tokens) and
        its BiLSTM (hidden_dim 128, svd_k 100), trained for one epoch; then
        ``infer`` with that checkpoint decodes the test split in one walk over
        page positions, as the per-document recursion would."""
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(README_SYNTH_CFG))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        corpus_dir = tmp_path / "runs" / "corpus"
        outdir = run_train(tmp_path, corpus_dir, "walk",
                           encoder={"variant": "linear", "d": 32, "max_len": 16},
                           train={"epochs": 1, "batch_size": 32, "peak_lr": 0.02},
                           vocab_cap=60000, baselines={"bilstm": True},
                           bilstm={"hidden_dim": 128, "svd_k": 100})
        payload = json.loads((outdir / "bilstm.json").read_text())
        assert payload["config"]["input_dim"] == 100
        assert np.array(payload["features"]["basis"]).shape == (400, 100)

        out = tmp_path / "bilstm-test.jsonl"
        assert main(["infer", "--checkpoint", str(outdir / "bilstm.json"),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(out)]) == 0
        split = load_corpus(corpus_dir / "manifest.json")
        trace = read_traces(out, split.vocabulary)
        tfidf, projector = page_vector_model_from_payload(payload["features"])
        vectors = tfidf_matrix(page_tokens(split.test), tfidf) @ projector.basis
        params = {name: np.array(value) for name, value in payload["params"].items()}
        offsets = split.test.offsets
        expected = bilstm_logits_per_document(
            params, [vectors[a:b] for a, b in zip(offsets[:-1], offsets[1:])])
        np.testing.assert_allclose(trace.scores, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(trace.labels.argmax(axis=1),
                                      expected.argmax(axis=1))

    def test_codec_fitted_on_train_split_only(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "sep")
        ckpt = json.loads((outdir / "checkpoint.json").read_text())
        split = load_corpus(corpus_dir / "manifest.json")
        train_tokens = set()
        for text in split.train.texts:
            train_tokens.update(text.split())
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
        n_pages = len(split.test.texts)
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
        trace = SplitTrace.blank(split.test.doc_ids, split.test.offsets, 3)
        trace.labels[:] = split.test.gold
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
        expected = score(preds, split.test.gold, split.vocabulary)
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
            len(split.test.texts)

    def test_crf_and_bilstm_checkpoints_infer(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "base2",
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8, "svd_k": 6})
        split = load_corpus(corpus_dir / "manifest.json")
        n_pages = len(split.test.texts)
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


def trace_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines(keepends=True)


def record_hashed(monkeypatch):
    """What ``cli.config_hash`` and ``cli.canonical_json`` are called with."""
    hashed = []
    for name in ("config_hash", "canonical_json"):
        real = getattr(cli, name)

        def recording(obj, real=real):
            hashed.append(obj)
            return real(obj)
        monkeypatch.setattr(cli, name, recording)
    return hashed


class TestInputDigests:
    """``infer``, ``eval`` and ``compare`` name each input file by the
    SHA-256 of its bytes, and ``infer`` records the seed its checkpoint was
    trained with."""

    CHECKPOINTS = ("checkpoint.json", "crf.json", "bilstm.json")

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("digests")
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        assert main(["synth", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        corpus_dir = tmp_path / "runs" / "corpus"
        outdir = run_train(tmp_path, corpus_dir, "seed1", seed=1,
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8, "svd_k": 6})
        return tmp_path, corpus_dir, outdir

    @staticmethod
    def infer(trained, checkpoint, out):
        _, corpus_dir, _ = trained
        return main(["infer", "--checkpoint", str(checkpoint),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(out)])

    @pytest.mark.parametrize("name", CHECKPOINTS)
    def test_header_names_checkpoint_bytes_and_seed(self, trained, name):
        """The training seed, 1, for CRF and BiLSTM checkpoints too, which
        have it only in their provenance."""
        tmp_path, _, outdir = trained
        out = tmp_path / f"header-{name}.jsonl"
        assert self.infer(trained, outdir / name, out) == 0
        header = json.loads(trace_lines(out)[0])["provenance"]
        assert header["seed"] == 1
        ref = {"checkpoint_sha256": sha(outdir / name), "split": "test"}
        assert header == cli.provenance_for("infer", ref, 1)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("name", CHECKPOINTS)
    def test_resaved_checkpoint_changes_only_the_header(self, trained, name,
                                                        newline):
        """Re-saved with indent=2, with LF or CRLF line breaks: the same page
        lines under a header naming the new bytes."""
        tmp_path, _, outdir = trained
        resaved = tmp_path / f"indented-{name}"
        text = json.dumps(json.loads((outdir / name).read_text()), indent=2)
        resaved.write_bytes(text.replace("\n", newline).encode("utf-8"))
        a, b = tmp_path / f"a-{name}.jsonl", tmp_path / f"b-{name}.jsonl"
        assert self.infer(trained, outdir / name, a) == 0
        assert self.infer(trained, resaved, b) == 0
        lines_a, lines_b = trace_lines(a), trace_lines(b)
        assert lines_a[1:] == lines_b[1:] and len(lines_a) > 1
        ref = {"checkpoint_sha256": sha(resaved), "split": "test"}
        assert json.loads(lines_b[0]) == {
            "provenance": cli.provenance_for("infer", ref, 1)}
        assert lines_a[0] != lines_b[0]

    @pytest.mark.parametrize("encode", [
        lambda text: text.encode("utf-16"),
        lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
        lambda text: text.replace(",", ",\r\n").encode("utf-8")[:-30],
        lambda text: text.replace(",", ",\r").encode("utf-8")[:-30],
    ], ids=["utf-16", "bom", "crlf-truncated", "cr-truncated"])
    def test_checkpoint_error_matches_read_text(self, trained, capsys, encode):
        """A checkpoint in UTF-16, with a BOM, or cut short with CRLF or CR
        line breaks exits 2 with the message that reading it with
        ``Path.read_text`` and parsing it gives."""
        tmp_path, _, outdir = trained
        bad = tmp_path / "encoded.json"
        bad.write_bytes(encode((outdir / "checkpoint.json").read_text()))
        with pytest.raises(ValueError) as exc:
            json.loads(bad.read_text(encoding="utf-8"))
        out = tmp_path / "encoded.jsonl"
        capsys.readouterr()
        assert self.infer(trained, bad, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: checkpoint {bad}: {exc.value}"]

    def test_checkpoint_payload_is_never_hashed(self, trained, monkeypatch):
        """A wide encoder's checkpoint: only the small reference to its
        bytes reaches the JSON hash."""
        tmp_path, corpus_dir, _ = trained
        outdir = run_train(tmp_path, corpus_dir, "wide", seed=1,
                           encoder={"variant": "linear", "d": 512, "max_len": 16})
        checkpoint = outdir / "checkpoint.json"
        hashed = record_hashed(monkeypatch)
        assert self.infer(trained, checkpoint, tmp_path / "wide.jsonl") == 0
        ref = {"checkpoint_sha256": sha(checkpoint), "split": "test"}
        assert hashed and all(obj == ref for obj in hashed)

    def test_eval_and_compare_name_trace_bytes(self, trained, monkeypatch):
        tmp_path, corpus_dir, outdir = trained
        a, b = tmp_path / "eval-a.jsonl", tmp_path / "eval-b.jsonl"
        assert self.infer(trained, outdir / "checkpoint.json", a) == 0
        assert self.infer(trained, outdir / "crf.json", b) == 0
        hashed = record_hashed(monkeypatch)
        test = ["--manifest", str(corpus_dir / "manifest.json"), "--split", "test"]
        assert main(["eval", "--traces", str(a), "--out",
                     str(tmp_path / "eval.json")] + test) == 0
        assert main(["compare", "--traces-a", str(a), "--traces-b", str(b),
                     "--out", str(tmp_path / "compare.json")] + test) == 0
        refs = {"eval": {"traces_sha256": sha(a), "split": "test"},
                "compare": {"traces_a_sha256": sha(a), "traces_b_sha256": sha(b),
                            "split": "test"}}
        for command, ref in refs.items():
            report = json.loads((tmp_path / f"{command}.json").read_text())
            assert report["provenance"] == cli.provenance_for(command, ref, 0)
        assert hashed and all(obj in refs.values() for obj in hashed)


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
        pages = [*split.train.texts, *split.validation.texts]
        assert sorted(calls) == sorted(pages)
        for ckpt in ("checkpoint.json", "crf.json", "bilstm.json"):
            calls.clear()
            assert main(["infer", "--checkpoint", str(outdir / ckpt),
                         "--manifest", str(corpus_dir / "manifest.json"),
                         "--split", "test", "--out", str(tmp_path / "t.jsonl")]) == 0
            assert sorted(calls) == sorted(split.test.texts)


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


    @pytest.mark.parametrize("kind", ["checkpoint", "crf"])
    @pytest.mark.parametrize("edit", ["stale", "missing"])
    def test_tokenizer_version_exits_2(self, trained, capsys, kind, edit):
        """An encoder checkpoint, or the encoder a CRF checkpoint embeds, made
        under another tokenizer version (or recording none) is refused."""
        tmp_path, corpus_dir, outdir = trained
        payload = json.loads((outdir / f"{kind}.json").read_text())
        encoder = payload if kind == "checkpoint" else payload["encoder"]
        if edit == "missing":
            encoder.pop("tokenizer_version", None)
        else:
            encoder["tokenizer_version"] = "other/0"
        ckpt = tmp_path / f"{kind}-tokenizer-{edit}.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / f"{kind}-tokenizer-{edit}.jsonl"
        capsys.readouterr()
        assert main(["infer", "--checkpoint", str(ckpt),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "tokenizer version mismatch" in err[0]

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

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("edit, message", [
        (lambda page: page.update(labels=page["labels"][0]),
         "field 'labels' must be a list"),
        (lambda page: page.update(context=page["context"][0]),
         "field 'context' must be null or a list"),
        (lambda page: page["scores"].__setitem__(0, str(page["scores"][0])),
         "a score that is not a number"),
        (lambda page: page["scores"].__setitem__(0, True),
         "a score that is not a number"),
        (lambda page: page.update(doc_id=7), "field 'doc_id' must be a string"),
        (lambda page: page["labels"].append(5),
         "field 'labels' holds a label name that is not a string"),
        (lambda page: page["labels"].append(page["labels"][:1]),
         "field 'labels' holds a label name that is not a string"),
        (lambda page: page["context"].append(5),
         "field 'context' holds a label name that is not a string"),
        (lambda page: page["labels"].append("no such class"),
         "unknown label name 'no such class' in field 'labels'"),
        (lambda page: page["context"].insert(0, "no such class"),
         "unknown label name 'no such class' in field 'context'"),
        (lambda page: page["scores"].__setitem__(0, 10**400),
         "a score too large for a float"),
        (lambda page: page.update(context=[]), "field 'context' names no class"),
    ], ids=["labels-string", "context-string", "score-string", "score-bool",
            "doc-id-int", "label-int", "label-list", "context-int",
            "label-unknown", "context-unknown", "score-huge-int", "context-empty"])
    def test_trace_field_types(self, trained, command, edit, message, capsys):
        """A string where a list of names belongs, a string or bool where a
        score belongs, a doc_id that is not a string, a label name that is
        not a string or no class's, an integer score no float can hold, or a
        fed context that names nothing, on the last page."""
        last = json.loads(trained[3].read_text().splitlines()[-1])
        err = self.run_on_edited_page(trained, command, "field-type", edit, capsys)
        assert f"page {last['page_index']} of " in err[0] and message in err[0]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_trace_json_error_names_its_line(self, trained, command, capsys):
        """Each line is parsed on its own, but the error names the file's line."""
        tmp_path, corpus_dir, _, traces = trained
        lines = traces.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"labels"', '"labels', 1)
        bad = tmp_path / "bad-line.jsonl"
        bad.write_text("".join(lines))
        argv = (["eval", "--traces", str(bad)] if command == "eval" else
                ["compare", "--traces-a", str(traces), "--traces-b", str(bad)])
        capsys.readouterr()
        assert main(argv + ["--manifest", str(corpus_dir / "manifest.json"),
                            "--split", "test"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{bad}:4: malformed JSON" in err[0]

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

    @pytest.mark.parametrize("field, value", [
        ("classes", 5), ("classes", "ABC"), ("classes", [0, 1, 2]),
        ("label_mode", 5), ("test", 5), ("validation", ["validation.jsonl"]),
    ], ids=["int-classes", "string-classes", "int-class-names", "int-label-mode",
            "int-split", "list-split"])
    def test_manifest_field_types(self, tmp_path, corpus_dir, capsys, field, value):
        """A manifest field of the wrong type names the field; a string of
        class names is not read as one class per character."""
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        bad = corpus_dir / "bad.json"
        bad.write_text(json.dumps(dict(manifest, **{field: value})))
        capsys.readouterr()
        assert main(["stats", "--manifest", str(bad)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"manifest field {field!r} must be" in err[0]

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


class TestUnwritableOutput:
    """An output path that cannot be written, or whose directory cannot be
    made, exits 2 with one ``error:`` line naming it."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("unwritable")
        (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CFG))
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        corpus_dir = tmp_path / "runs" / "corpus"
        outdir = run_train(tmp_path, corpus_dir, "m")
        traces = tmp_path / "traces.jsonl"
        assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--out", str(traces)]) == 0
        (tmp_path / "file").write_text("")
        return tmp_path, corpus_dir, outdir, traces

    @pytest.mark.parametrize("command", ["synth", "train", "infer", "eval", "compare"])
    def test_exits_2_naming_the_path(self, trained, command, capsys):
        tmp_path, corpus_dir, outdir, traces = trained
        manifest = ["--manifest", str(corpus_dir / "manifest.json")]
        below_file = tmp_path / "file" / "runs"
        in_missing_dir = tmp_path / "missing" / "out.json"
        argv, path = {
            "synth": (["synth", "--config", str(tmp_path / "synth.json"),
                       "--outdir", str(below_file)], below_file),
            "train": (["train", "--config", str(tmp_path / "m.json"),
                       "--outdir", str(below_file)], below_file),
            "infer": (["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                       *manifest, "--out", str(in_missing_dir)], in_missing_dir),
            "eval": (["eval", "--traces", str(traces), *manifest,
                      "--out", str(in_missing_dir)], in_missing_dir),
            "compare": (["compare", "--traces-a", str(traces), "--traces-b",
                         str(traces), *manifest, "--out", str(tmp_path)], tmp_path),
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write ")
        assert str(path) in err[0]
        assert not (tmp_path / "missing").exists()


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


def twenty_class_dir(tmp_path, label_mode):
    """A hand-written 20-class corpus of 3-page documents, one class a page."""
    root = tmp_path / label_mode
    root.mkdir()
    for name, n_docs in (("train", 8), ("validation", 2), ("test", 2)):
        (root / f"{name}.jsonl").write_text("".join(
            json.dumps({"doc_id": f"{name}-{d}", "labels": [f"C{(3 * d + i) % 20}"],
                        "page_index": i, "text": f"w{(3 * d + i) % 20} body"}) + "\n"
            for d in range(n_docs) for i in range(3)))
    (root / "manifest.json").write_text(json.dumps({
        "classes": [f"C{c}" for c in range(20)], "label_mode": label_mode,
        "train": "train.jsonl", "validation": "validation.jsonl",
        "test": "test.jsonl"}))
    return root


class TestMaxLen:
    """A multiclass page is fed one context token, a multilabel page up to
    one per class; max_len must hold CLS, those and one text token."""

    def test_twenty_class_multiclass_fits_max_len_16(self, tmp_path):
        corpus = twenty_class_dir(tmp_path, "multiclass")
        outdir = run_train(tmp_path, corpus, "recurrent", mode="recurrent")
        assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--manifest", str(corpus / "manifest.json"),
                     "--out", str(tmp_path / "traces.jsonl")]) == 0

    def test_twenty_class_multilabel_at_max_len_16_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "ml.json"
        cfg_path.write_text(json.dumps(experiment_cfg(
            twenty_class_dir(tmp_path, "multilabel"), mode="recurrent")))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "encoder.max_len" in err[0] and ">= 22" in err[0]


class TestStats:
    def test_stats_prints_counts_and_runs(self, corpus_dir, capsys):
        rc = main(["stats", "--manifest", str(corpus_dir / "manifest.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pages per class" in out
        assert "label runs in train" in out
        assert "self-transition" in out

    def test_class_named_like_the_first_page_marker(self, tmp_path, capsys):
        """Its contexts would read back as first pages, so the manifest is
        refused before any split is read."""
        page = {"doc_id": "d", "labels": ["b"], "page_index": 0, "text": "x"}
        for name in ("train", "validation", "test"):
            (tmp_path / f"{name}.jsonl").write_text(json.dumps(page) + "\n")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "classes": ["[-1]", "b"], "label_mode": "multiclass",
            "train": "train.jsonl", "validation": "validation.jsonl",
            "test": "test.jsonl"}))
        capsys.readouterr()
        assert main(["stats", "--manifest", str(tmp_path / "manifest.json")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'[-1]'" in err[0]


def _chain_cfg(matrix):
    """SYNTH_CFG with an explicit chain in place of its self-transition."""
    cfg = {k: v for k, v in SYNTH_CFG.items() if k != "self_transition"}
    return dict(cfg, transition_matrix=matrix, start_distribution=[0.4, 0.3, 0.3])


IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

TINY = {"variant": "tiny-transformer", "d": 8, "n_layers": 1, "n_heads": 2,
        "max_len": 16}


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
        pytest.param("train", lambda c: experiment_cfg(c, encoder=dict(TINY, n_heads=0)),
                     [], ["n_heads"], id="n_heads-0"),
        pytest.param("train", lambda c: experiment_cfg(c, encoder=dict(TINY, n_heads=-2)),
                     [], ["n_heads"], id="n_heads-negative"),
        pytest.param("train", lambda c: experiment_cfg(c, encoder=dict(TINY, n_layers=-1)),
                     [], ["n_layers"], id="n_layers-negative"),
        pytest.param("train", lambda c: experiment_cfg(c, seed=-1), [], ["seed"],
                     id="seed-negative"),
        pytest.param("train", experiment_cfg, ["--seed", "-1"], ["seed"],
                     id="seed-override-negative"),
        pytest.param("train", lambda c: experiment_cfg(
            c, encoder=dict(TINY, init_seed=-1)), [], ["init_seed"],
            id="encoder.init_seed-negative"),
        pytest.param("train", lambda c: experiment_cfg(
            c, train={"epochs": 1, "seed": -1}), [], ["train", "seed"],
            id="train.seed-negative"),
        pytest.param("synth", lambda c: dict(SYNTH_CFG, seed=-1), [], ["seed"],
                     id="synth-seed-negative"),
        pytest.param("synth", lambda c: dict(SYNTH_CFG, shared_vocab_size=2**64), [],
                     ["shared_vocab_size"], id="shared_vocab_size-2**64"),
        pytest.param("synth", lambda c: dict(SYNTH_CFG, class_vocab_size=2**63 + 1),
                     [], ["class_vocab_size"], id="class_vocab_size-2**63+1"),
        pytest.param("synth", lambda c: dict(SYNTH_CFG, tokens_per_page=[1, 2**64]),
                     [], ["tokens_per_page"], id="tokens_per_page-2**64"),
        pytest.param("synth", lambda c: dict(SYNTH_CFG, pages_per_doc=[1, 2**63]), [],
                     ["pages_per_doc"], id="pages_per_doc-2**63"),
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
