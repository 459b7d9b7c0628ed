"""End-to-end CLI tests: synth -> train -> infer -> eval/compare, plus
determinism of every artifact."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pageseq.cli as cli
import pageseq.encoder as encoder
import pageseq.training as training
from pageseq.cli import main
from pageseq.corpus import SynthConfig, load_corpus
from pageseq.crf import emissions_from_logits
from pageseq.encoder import EncoderConfig
from pageseq.evaluation import score
from pageseq.files import (
    CHECKPOINT_FORMAT,
    TRACE_FORMAT,
    config_from,
    float_block,
    read_float_block,
)
from pageseq.recurrence import SplitTrace, read_traces, write_traces
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


def read_trace_file(path, docs):
    """read_traces of ``docs`` on the trace file ``path``."""
    return read_traces(path, docs, Path(path).read_text(encoding="utf-8"))


def edit_block(blocks, name, edit):
    """Replace the float block ``blocks[name]`` by the block of its array
    after ``edit(array)``, which edits the array in place (returning None)
    or returns the new array."""
    array = read_float_block(blocks[name], name)
    edited = edit(array)
    blocks[name] = float_block(array if edited is None else edited)


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


def readme_configs():
    """Each ``cat > X.json <<'EOF'`` config of README.md, by file name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    return {name: json.loads(body) for name, body in
            re.findall(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n", text, re.S)}


@pytest.fixture(scope="module")
def readme_walkthrough(tmp_path_factory):
    """The README walkthrough run as it reads, in a fresh directory: ``synth``,
    then both ``train`` runs with ``--epochs 1``.  The configs name the
    corpus relative to their own directory, so it is the one made here."""
    tmp_path = tmp_path_factory.mktemp("readme")
    configs = readme_configs()
    for name, cfg in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    runs = str(tmp_path / "runs")
    assert main(["synth", "--config", str(tmp_path / "synth.json"),
                 "--outdir", runs, "--run-id", "corpus"]) == 0
    # the CRF over a one-epoch encoder may stop short of its tolerance; its
    # crf.json records that, and the warning is not what this run checks
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "CRF fit did not converge", UserWarning)
        for name, run_id in (("exp.json", "oblivious"), ("rec.json", "recurrent")):
            assert main(["train", "--config", str(tmp_path / name), "--outdir",
                         runs, "--run-id", run_id, "--epochs", "1"]) == 0
    return tmp_path, configs


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

    def test_readme_corpus_matches_per_page_reference(self, tmp_path,
                                                      readme_walkthrough):
        """``pageseq synth`` on the README walkthrough config writes the bytes
        of the per-page reference generator and writer."""
        walk_dir, configs = readme_walkthrough
        cfg = cli.synth_config_from(configs["synth.json"])
        reference_write_corpus(reference_generate_synthetic(cfg), tmp_path / "ref",
                               cli.provenance_for("synth", configs["synth.json"],
                                                  cfg.seed))
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                     "manifest.json"):
            assert sha(walk_dir / "runs" / "corpus" / name) == \
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

    @pytest.mark.parametrize("mode", ["oblivious", "recurrent"])
    def test_empty_validation_split_is_not_decoded(self, tmp_path, corpus_dir, mode):
        """A validation split file without pages: ``train`` exits 0, and no
        epoch records a validation metric."""
        (corpus_dir / "validation.jsonl").write_text("")
        outdir = run_train(tmp_path, corpus_dir, "no-val", mode=mode)
        report = json.loads((outdir / "report.json").read_text())
        assert [sorted(metrics) for metrics in report["epoch_metrics"]] == \
            [["epoch", "train_loss"]] * 2

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

    def test_bilstm_requires_oblivious_mode(self, tmp_path, corpus_dir, capsys):
        """The BiLSTM reads a frozen context-oblivious encoder, as the CRF does."""
        cfg = experiment_cfg(corpus_dir, mode="recurrent",
                             baselines={"bilstm": True})
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "bad"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg_path}: field 'baselines.bilstm' requires mode "
                       f"'oblivious' (the baselines read a frozen context-oblivious "
                       f"encoder)"]
        assert not (tmp_path / "runs" / "bad").exists()

    def test_baselines_produce_checkpoints(self, tmp_path, corpus_dir):
        outdir = run_train(tmp_path, corpus_dir, "base",
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8})
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
        trace = read_trace_file(out, split.test)
        assert len(trace.scores) == len(split.test.texts)

    BAD_BILSTM = {"svd_k": "unknown field 'bilstm.svd_k'",
                  "hidden_dim": "field 'bilstm': dimensions must be >= 1"}

    @pytest.mark.parametrize("field", ["svd_k", "hidden_dim"])
    def test_bad_bilstm_config_exits_2(self, tmp_path, corpus_dir, capsys, field):
        bilstm = dict({"hidden_dim": 8}, **{field: 0})
        cfg = experiment_cfg(corpus_dir, baselines={"bilstm": True}, bilstm=bilstm)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfg_path}: {self.BAD_BILSTM[field]}")

    def test_readme_walkthrough_runs(self, readme_walkthrough):
        """Every command of the README walkthrough runs on the README's own
        configs (trained for one epoch here), so a README config that the
        CLI no longer takes fails this test."""
        walk_dir, configs = readme_walkthrough
        assert {"synth.json", "exp.json", "rec.json"} <= configs.keys()
        runs = walk_dir / "runs"
        manifest = str(runs / "corpus" / "manifest.json")
        for ckpt in ("oblivious/checkpoint.json", "oblivious/crf.json",
                     "oblivious/bilstm.json", "recurrent/checkpoint.json"):
            out = walk_dir / f"{ckpt.replace('/', '-')}.jsonl"
            assert main(["infer", "--checkpoint", str(runs / ckpt),
                         "--manifest", manifest, "--split", "test",
                         "--out", str(out)]) == 0
            assert main(["eval", "--traces", str(out), "--manifest", manifest,
                         "--split", "test"]) == 0

    def test_readme_walkthrough_bilstm(self, readme_walkthrough):
        """The README walkthrough's BiLSTM (hidden_dim 128), trained for one
        epoch, embeds the walkthrough's oblivious encoder checkpoint and reads
        its emissions: ``infer`` with bilstm.json gives the per-document
        BiLSTM recursion over the log-softmax scores of that encoder's own
        oblivious trace."""
        walk_dir, _ = readme_walkthrough
        runs = walk_dir / "runs"
        payload = json.loads((runs / "oblivious" / "bilstm.json").read_text())
        assert payload.keys() == {"kind", "format", "config", "params", "encoder",
                                  "provenance"}
        assert payload["config"] == {"hidden_dim": 128, "init_seed": 0}
        assert payload["encoder"] == json.loads(
            (runs / "oblivious" / "checkpoint.json").read_text())

        manifest = str(runs / "corpus" / "manifest.json")
        embedded = walk_dir / "embedded-encoder.json"
        embedded.write_text(json.dumps(payload["encoder"]))
        for ckpt, out in ((runs / "oblivious" / "bilstm.json", "bilstm-test.jsonl"),
                          (embedded, "encoder-test.jsonl")):
            assert main(["infer", "--checkpoint", str(ckpt), "--manifest", manifest,
                         "--split", "test", "--out", str(walk_dir / out)]) == 0
        split = load_corpus(manifest, ("test",))
        trace = read_trace_file(walk_dir / "bilstm-test.jsonl", split.test)
        emissions = emissions_from_logits(
            read_trace_file(walk_dir / "encoder-test.jsonl", split.test).scores)
        params = {name: read_float_block(block, name)
                  for name, block in payload["params"].items()}
        offsets = split.test.offsets
        expected = bilstm_logits_per_document(
            params, [emissions[a:b] for a, b in zip(offsets[:-1], offsets[1:])])
        np.testing.assert_allclose(trace.scores, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(trace.labels.argmax(axis=1),
                                      expected.argmax(axis=1))

    # the SHA-256 of each artifact of the pinned run below
    PINNED = {
        "checkpoint.json":
            "37208a3b75b3f58829b02c85bc5ecc171b14d29810c012836154849f2a15475e",
        "crf.json": "b5ccb360919ebc1530b31afabf224e70a12ebe22ea539313d999494b79b829e5",
        "checkpoint.json test traces":
            "16a0e7ffeedd7b2aa8cd10d04ef48c892fbc97c228692c1c032fe63f7b543b5c",
        "crf.json test traces":
            "4566a58291d01f06bb8eddf85afd212bb69b3f6e6d092bc5be90684cf7ad76b5",
    }

    def test_encoder_and_crf_bytes_are_pinned(self, tmp_path, corpus_dir):
        """One fixed config (the corpus named relative to the config, so that
        the config hash in every provenance header is fixed too): the encoder
        checkpoint, the CRF checkpoint and their test-split traces keep these
        bytes."""
        cfg = experiment_cfg(corpus_dir, corpus="runs/corpus/manifest.json",
                             baselines={"crf": True})
        (tmp_path / "pinned.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "pinned.json"),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "pinned"]) == 0
        found = {}
        for name in ("checkpoint.json", "crf.json"):
            ckpt = tmp_path / "runs" / "pinned" / name
            found[name] = sha(ckpt)
            out = tmp_path / f"{name}.jsonl"
            assert main(["infer", "--checkpoint", str(ckpt),
                         "--manifest", str(corpus_dir / "manifest.json"),
                         "--split", "test", "--out", str(out)]) == 0
            found[f"{name} test traces"] = sha(out)
        assert found == self.PINNED

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
        trace = SplitTrace.blank(split.test)
        trace.labels[:] = split.test.gold
        path = tmp_path / "gold_traces.jsonl"
        write_traces(trace, path, provenance={"seed": 0})
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
        trace = read_trace_file(traces_path, split.test)
        expected = score(trace.labels, split.test.gold, split.vocabulary)
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
                           bilstm={"hidden_dim": 8})
        split = load_corpus(corpus_dir / "manifest.json")
        n_pages = len(split.test.texts)
        for ckpt in ("crf.json", "bilstm.json"):
            out = tmp_path / f"traces-{ckpt}.jsonl"
            rc = main(["infer", "--checkpoint", str(outdir / ckpt),
                       "--manifest", str(corpus_dir / "manifest.json"),
                       "--split", "test", "--out", str(out)])
            assert rc == 0
            trace = read_trace_file(out, split.test)
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
                           bilstm={"hidden_dim": 8})
        payload = json.loads((outdir / "bilstm.json").read_text())
        payload["encoder"]["tokenizer_version"] = "other/0"
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
                           bilstm={"hidden_dim": 8})
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
            "format": TRACE_FORMAT, "provenance": cli.provenance_for("infer", ref, 1)}
        assert lines_a[0] != lines_b[0]

    @pytest.mark.parametrize("encode", [
        lambda text: text.encode("utf-16"),
        lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
        lambda text: text.replace(",", ",\r\n").encode("utf-8")[:-30],
        lambda text: text.replace(",", ",\r").encode("utf-8")[:-30],
    ], ids=["utf-16", "bom", "crlf-truncated", "cr-truncated"])
    def test_checkpoint_error_matches_read_text(self, trained, capsys, encode):
        """A checkpoint in UTF-16, with a BOM, or cut short with CRLF or CR
        line breaks exits 2 with the fault that reading it with
        ``Path.read_text`` and parsing it gives, at the same line and
        column."""
        tmp_path, _, outdir = trained
        bad = tmp_path / "encoded.json"
        bad.write_bytes(encode((outdir / "checkpoint.json").read_text()))
        with pytest.raises(ValueError) as exc:
            json.loads(bad.read_text(encoding="utf-8"))
        fault = (f"{bad}: checkpoint is not UTF-8 text"
                 if isinstance(exc.value, UnicodeDecodeError) else
                 f"{bad}:{exc.value.lineno}:{exc.value.colno}: malformed JSON "
                 f"({exc.value.msg})")
        out = tmp_path / "encoded.jsonl"
        capsys.readouterr()
        assert self.infer(trained, bad, out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [f"error: {fault}"]

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


def distinct_pieces(texts):
    """The distinct lowercased whitespace pieces of ``texts``."""
    return sorted({piece for text in texts for piece in text.lower().split()})


class TestTokenizeOnce:
    def test_each_piece_tokenized_once_per_split_per_command(
            self, tmp_path, corpus_dir, monkeypatch):
        """train (with both baselines) strips each distinct whitespace piece
        of the train split, and of the validation split, once: for the
        vocabulary, every epoch, the CRF and the BiLSTM alike; infer each
        distinct piece of its split once."""
        split = load_corpus(corpus_dir / "manifest.json")
        calls = count_tokenize_calls(monkeypatch)
        outdir = run_train(tmp_path, corpus_dir, "once",
                           baselines={"crf": True, "bilstm": True},
                           bilstm={"hidden_dim": 8})
        assert sorted(calls) == sorted(distinct_pieces(split.train.texts)
                                       + distinct_pieces(split.validation.texts))
        for ckpt in ("checkpoint.json", "crf.json", "bilstm.json"):
            calls.clear()
            assert main(["infer", "--checkpoint", str(outdir / ckpt),
                         "--manifest", str(corpus_dir / "manifest.json"),
                         "--split", "test", "--out", str(tmp_path / "t.jsonl")]) == 0
            assert sorted(calls) == distinct_pieces(split.test.texts)


class TestTracedSites:
    def test_train_reaches_the_traced_functions(self, tmp_path, corpus_dir,
                                                monkeypatch):
        """One train with the CRF calls the encoder training, its steps and
        validation decodes, the vocabulary fit and the CRF fit under the
        module names perfbench wraps them by."""
        import pageseq.recurrence as recurrence

        sites = ((cli, "train_encoder"), (recurrence, "page_examples"),
                 (training, "loss_and_grad"), (training, "optimizer_step"),
                 (encoder, "forward_batch"), (cli, "fit_vocabulary"),
                 (cli, "crf_fit"))
        calls = {f"{module.__name__}.{name}": 0 for module, name in sites}
        for module, name in sites:
            def counting(*args, _real=getattr(module, name),
                         _site=f"{module.__name__}.{name}", **kwargs):
                calls[_site] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        run_train(tmp_path, corpus_dir, "sites", mode="oblivious",
                  baselines={"crf": True})
        assert min(calls.values()) >= 1, calls

    def test_infer_reaches_the_traced_functions(self, tmp_path, corpus_dir,
                                                monkeypatch):
        """One infer calls the tokenizer, the input augmentation and the
        encoder under the module names perfbench wraps them by."""
        import pageseq.recurrence as recurrence

        outdir = run_train(tmp_path, corpus_dir, "sites")
        calls = {name: 0 for name in ("tokenize", "augment_input", "forward_batch")}
        for module, name in ((recurrence, "tokenize"),
                             (recurrence, "augment_input"),
                             (encoder, "forward_batch")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counting)
        assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(tmp_path / "t.jsonl")]) == 0
        assert min(calls.values()) >= 1, calls


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
                           bilstm={"hidden_dim": 8})
        return tmp_path, corpus_dir, outdir

    # the top-level keys of each checkpoint kind
    ENCODER_KEYS = {"kind", "format", "mode", "tokenizer_version", "config", "codec",
                    "params", "provenance"}
    CRF_KEYS = {"kind", "format", "l2", "transition", "start", "emission_scale",
                "converged", "iterations", "projected_gradient_max", "encoder",
                "provenance"}
    BILSTM_KEYS = {"kind", "format", "config", "params", "encoder", "provenance"}

    def test_each_fact_is_stored_once(self, trained):
        """The label mode is the codec's alone, the seed the provenance's
        alone, and the BiLSTM's input and class counts are the embedded
        encoder's classes, stored nowhere.  Every kind is the compact JSON of
        ``save_checkpoint`` and records the checkpoint format."""
        outdir = trained[2]
        texts = {name: (outdir / name).read_text()
                 for name in ("checkpoint.json", "crf.json", "bilstm.json")}
        encoder, crf, bilstm = (json.loads(text) for text in texts.values())
        assert encoder.keys() == self.ENCODER_KEYS
        assert encoder["codec"].keys() == {"classes", "vocab_label_mode",
                                           "text_tokens"}
        assert crf.keys() == self.CRF_KEYS
        assert bilstm.keys() == self.BILSTM_KEYS
        assert bilstm["config"].keys() == {"hidden_dim", "init_seed"}
        assert crf["encoder"] == bilstm["encoder"] == encoder
        for text in texts.values():
            payload = json.loads(text)
            assert payload["format"] == CHECKPOINT_FORMAT == "f8le-blocks/2"
            assert text == json.dumps(payload, sort_keys=True)

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
        elif edit == "bool_scale":
            payload["emission_scale"] = True
        elif edit == "numeral_scale":
            payload["emission_scale"] = "1"
        elif edit == "bool_transition":
            payload["transition"][0][0] = True
        elif edit == "numeral_start":
            payload["start"][0] = "1"
        elif edit == "huge_int_start":
            payload["start"][0] = 10**400
        elif edit == "huge_int_scale":
            payload["emission_scale"] = 10**400
        elif edit == "scalar_start":
            payload["start"] = 0.0
        elif edit == "encoder_list":
            payload["encoder"] = []
        elif edit == "recurrent_encoder":
            payload["encoder"]["mode"] = "recurrent"
        elif edit == "deep_transition":  # parses, but nests past the recursion limit
            for _ in range(600):
                payload["transition"] = [payload["transition"]]

    @staticmethod
    def edit_bilstm(payload, edit):
        if edit in ("params", "config", "encoder"):
            del payload[edit]
        elif edit == "features":
            # the layout of a BiLSTM over TF-IDF/SVD page vectors: a
            # page-vector model and a class list in place of an encoder
            encoder = payload.pop("encoder")
            payload["classes"] = encoder["codec"]["classes"]
            payload["features"] = {"tokenizer_version": encoder["tokenizer_version"],
                                   "tokens": encoder["codec"]["text_tokens"]}
        elif edit == "classes":
            del payload["encoder"]["codec"]["classes"]
        elif edit == "missing_param":
            del payload["params"]["fw_u"]
        elif edit == "narrow_head":
            edit_block(payload["params"], "head_w", lambda a: a[:, :2])
        elif edit == "hidden_dim":
            payload["config"]["hidden_dim"] = 9
        elif edit == "two_classes":
            payload["encoder"]["codec"]["classes"] = \
                payload["encoder"]["codec"]["classes"][:2]
        elif edit == "nan_param":
            edit_block(payload["params"], "fw_w", lambda a: np.put(a, 0, np.nan))
        elif edit == "nan_encoder_param":
            edit_block(payload["encoder"]["params"], "emb",
                       lambda a: np.put(a, 0, np.nan))
        elif edit == "input_dim":  # a BiLSTM over 2 inputs, not the encoder's 3
            edit_block(payload["params"], "fw_w", lambda a: a[:, :2])
            edit_block(payload["params"], "bw_w", lambda a: a[:, :2])
        elif edit == "n_classes":
            edit_block(payload["params"], "head_w", lambda a: a[:, :2])
            edit_block(payload["params"], "head_b", lambda a: a[:2])
        elif edit in ("config_input_dim", "config_n_classes"):
            # set by the head from the encoder, never read from the file
            payload["config"][edit.removeprefix("config_")] = 3
        elif edit == "float_hidden_dim":
            payload["config"]["hidden_dim"] = 8.0
        elif edit == "no_hidden_dim":  # not filled with the default
            del payload["config"]["hidden_dim"]
        elif edit == "encoder_list":
            payload["encoder"] = []
        elif edit == "recurrent_encoder":
            payload["encoder"]["mode"] = "recurrent"

    @staticmethod
    def infer_edited(trained, capsys, name, edit, tag):
        """``infer`` with checkpoint ``name`` edited by ``edit(payload)``;
        asserts exit 2, nothing written and one ``error:`` line that starts
        with the checkpoint's path, and returns the rest of that line."""
        tmp_path, corpus_dir, outdir = trained
        payload = json.loads((outdir / name).read_text())
        edit(payload)
        ckpt = tmp_path / f"{tag}-{name}"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / f"{tag}-{name}.jsonl"
        capsys.readouterr()
        assert main(["infer", "--checkpoint", str(ckpt),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: "), err
        return err[0].removeprefix(f"error: {ckpt}: ")

    @pytest.mark.parametrize("kind, edit", [
        ("crf", e) for e in ("transition", "start", "encoder", "emission_scale",
                             "2x2_transition", "2_class_crf", "nan_scale",
                             "negative_scale", "zero_scale", "text_scale",
                             "bool_scale", "numeral_scale", "bool_transition",
                             "numeral_start", "huge_int_start", "huge_int_scale",
                             "scalar_start", "encoder_list", "recurrent_encoder",
                             "deep_transition")
    ] + [
        ("bilstm", e) for e in ("params", "config", "features", "classes",
                                "missing_param", "narrow_head", "hidden_dim",
                                "two_classes", "input_dim", "nan_param",
                                "encoder", "nan_encoder_param", "n_classes",
                                "encoder_list", "recurrent_encoder",
                                "config_input_dim", "config_n_classes",
                                "float_hidden_dim", "no_hidden_dim")
    ])
    def test_bad_payload_exits_2(self, trained, capsys, kind, edit):
        self.infer_edited(trained, capsys, f"{kind}.json",
                          lambda payload: getattr(self, f"edit_{kind}")(payload, edit),
                          edit)

    # each checkpoint kind, and the encoder a CRF or BiLSTM checkpoint embeds
    FORMATTED = [("checkpoint.json", "encoder", lambda p: p),
                 ("crf.json", "crf", lambda p: p),
                 ("crf.json", "crf", lambda p: p["encoder"]),
                 ("bilstm.json", "bilstm", lambda p: p),
                 ("bilstm.json", "bilstm", lambda p: p["encoder"])]

    @staticmethod
    def as_parent_wrote(value):
        """``value`` with every float block turned back into nested lists and
        no ``format`` field: the layout of a checkpoint written before
        float blocks."""
        if isinstance(value, dict) and value.keys() == {"shape", "f8le"}:
            return read_float_block(value, "block").tolist()
        if isinstance(value, dict):
            return {k: TestBaselineCheckpoints.as_parent_wrote(v)
                    for k, v in value.items() if k != "format"}
        return value

    @pytest.mark.parametrize("name, kind, part", FORMATTED,
                             ids=["encoder", "crf", "crf-encoder", "bilstm",
                                  "bilstm-encoder"])
    @pytest.mark.parametrize("edit", ["unknown", "previous", "missing", "lists"])
    def test_format_exits_2(self, trained, capsys, name, kind, part, edit):
        """A checkpoint of another format (such as ``f8le-blocks/1``, which
        stored the label mode and the seed twice), of none, or laid out as
        one written before float blocks is refused with a line that names
        its kind and says to re-run ``train``."""
        def change(payload):
            if edit == "unknown":
                part(payload)["format"] = "f8le-blocks/0"
            elif edit == "previous":
                part(payload)["format"] = "f8le-blocks/1"
            elif edit == "missing":
                del part(payload)["format"]
            else:
                part(payload).update(self.as_parent_wrote(part(payload)))
                part(payload).pop("format")
        payload = json.loads((trained[2] / name).read_text())
        assert part(payload)["format"] == CHECKPOINT_FORMAT
        what = kind if part(payload) is payload else "encoder"
        line = self.infer_edited(trained, capsys, name, change, f"format-{edit}")
        assert line.startswith(f"{what} format ") and "re-run `train`" in line

    @pytest.mark.parametrize("name, kind, part, field", [
        ("checkpoint.json", "encoder", lambda p: p, "label_mode"),
        ("checkpoint.json", "encoder", lambda p: p["codec"], "codec.seed"),
        ("crf.json", "crf", lambda p: p, "label_mode"),
        ("crf.json", "crf", lambda p: p["encoder"], "encoder.label_mode"),
        ("bilstm.json", "bilstm", lambda p: p, "label_mode"),
        ("bilstm.json", "bilstm", lambda p: p["encoder"], "encoder.label_mode"),
    ], ids=["encoder", "encoder-codec", "crf", "crf-encoder", "bilstm",
            "bilstm-encoder"])
    def test_unknown_key_exits_2(self, trained, capsys, name, kind, part, field):
        """A key that a checkpoint's writer does not emit, at its top level,
        in the encoder it embeds or in the codec, is refused with one line
        that names it, not ignored."""
        key = field.rpartition(".")[2]
        line = self.infer_edited(trained, capsys, name,
                                 lambda p: part(p).update({key: "multilabel"}),
                                 f"key-{field}")
        assert line.startswith(f"unknown field {field!r}")

    def test_label_mode_and_seed_in_crf_exit_2(self, trained, capsys):
        line = self.infer_edited(
            trained, capsys, "crf.json",
            lambda p: p.update(label_mode="multilabel", seed="x"), "keys")
        assert line.startswith("unknown field ")

    @pytest.mark.parametrize("name", ["checkpoint.json", "crf.json", "bilstm.json"])
    def test_scores_that_overflow_exit_2(self, trained, capsys, name):
        """An encoder whose weights overflow every score: infer writes no
        trace and names the checkpoint and the first page, in one line."""
        def overflow(payload):
            params = payload.get("encoder", payload)["params"]
            for block in ("emb", "head_w"):
                edit_block(params, block, lambda a: np.full_like(a, 1e300))
        line = self.infer_edited(trained, capsys, name, overflow, "overflow")
        docs = load_corpus(trained[1] / "manifest.json").test
        assert line == (f"page 0 of {docs.doc_ids[0]!r} has a score that is not "
                        f"finite")

    KEYS = "must be an object with exactly the keys 'shape' and 'f8le'"
    SHAPE = "'shape' must be a list of non-negative ints"
    # each malformed block: the edit of a good one, and what the error says
    BLOCK_EDITS = {
        "list": (lambda b: [0.0], KEYS),
        "missing-key": (lambda b: {"shape": b["shape"]}, KEYS),
        "extra-key": (lambda b: dict(b, dtype="<f8"), KEYS),
        "shape-int": (lambda b: dict(b, shape=b["shape"][0]), SHAPE),
        "shape-negative": (lambda b: dict(b, shape=[-1] + b["shape"][1:]), SHAPE),
        "shape-bool": (lambda b: dict(b, shape=[True] * len(b["shape"])), SHAPE),
        "shape-float": (lambda b: dict(b, shape=[float(n) for n in b["shape"]]),
                        SHAPE),
        "data-number": (lambda b: dict(b, f8le=0), "'f8le' must be a base64 string"),
        "data-not-base64": (lambda b: dict(b, f8le="*" + b["f8le"][1:]),
                            "'f8le' is not strict base64"),
        "data-padding": (lambda b: dict(b, f8le=b["f8le"].rstrip("=")[:-1]),
                         "'f8le' is not strict base64"),
        # a block of the shape its name needs whose data is 3 bytes short;
        # a block recording another shape is refused before its data is read
        "byte-count": (lambda b: dict(b, f8le=b["f8le"][4:]), "'f8le' holds "),
    }

    # a block of each checkpoint kind: the path of keys to it, and its name
    BLOCKS = [("checkpoint.json", "encoder", ("params", "head_b"), "'head_b'"),
              ("crf.json", "crf", ("encoder", "params", "emb"), "'emb'"),
              ("bilstm.json", "bilstm", ("params", "fw_w"), "'fw_w'"),
              ("bilstm.json", "bilstm", ("encoder", "params", "emb"), "'emb'")]

    @pytest.mark.parametrize("name, kind, path, field", BLOCKS,
                             ids=["encoder", "crf", "bilstm", "bilstm-encoder"])
    @pytest.mark.parametrize("case", BLOCK_EDITS)
    def test_malformed_block_exits_2(self, trained, capsys, name, kind, path, field,
                                     case):
        edit, message = self.BLOCK_EDITS[case]

        def change(payload):
            *outer, last = path
            for key in outer:
                payload = payload[key]
            payload[last] = edit(payload[last])
        line = self.infer_edited(trained, capsys, name, change, f"block-{case}")
        assert f"{field}: {message}" in line

    @pytest.mark.parametrize("kind", ["checkpoint", "crf", "bilstm"])
    @pytest.mark.parametrize("edit", ["stale", "missing"])
    def test_tokenizer_version_exits_2(self, trained, capsys, kind, edit):
        """An encoder checkpoint, or the encoder a CRF or BiLSTM checkpoint
        embeds, made under another tokenizer version (or recording none) is
        refused."""
        def change(payload):
            encoder = payload if kind == "checkpoint" else payload["encoder"]
            if edit == "missing":
                encoder.pop("tokenizer_version", None)
            else:
                encoder["tokenizer_version"] = "other/0"
        line = self.infer_edited(trained, capsys, f"{kind}.json", change,
                                 f"tokenizer-{edit}")
        assert "tokenizer version mismatch" in line

    @pytest.mark.parametrize("kind", ["checkpoint", "crf", "bilstm"])
    @pytest.mark.parametrize("edit, message", [
        ("int", "codec.text_tokens must be a list of strings"),
        ("repeated", "codec.text_tokens holds a token twice"),
        ("not-a-list", "codec.text_tokens must be a list of strings")])
    def test_text_tokens_must_be_distinct_strings(self, trained, capsys, kind,
                                                  edit, message):
        """The text tokens of an encoder checkpoint, or of the encoder a CRF
        or BiLSTM checkpoint embeds, give the ids of page text: a token that
        is not a string, or one listed twice, would shift them silently."""
        def change(payload):
            codec = (payload if kind == "checkpoint" else payload["encoder"])["codec"]
            if edit == "int":
                codec["text_tokens"][0] = 7
            elif edit == "repeated":
                codec["text_tokens"][1] = codec["text_tokens"][0]
            else:
                codec["text_tokens"] = "".join(codec["text_tokens"])
        line = self.infer_edited(trained, capsys, f"{kind}.json", change,
                                 f"tokens-{edit}")
        assert message in line

    # the fields ``infer`` reads of an encoder checkpoint, at the top level and
    # nested; a CRF or BiLSTM checkpoint embeds one under ``encoder``
    ENCODER_FIELDS = ("kind", "format", "mode", "tokenizer_version", "config",
                      "config.variant", "config.d", "config.n_layers",
                      "config.n_heads", "config.max_len", "config.dropout",
                      "config.init_seed", "codec", "codec.classes",
                      "codec.vocab_label_mode", "codec.text_tokens", "params",
                      "params.emb", "params.head_w", "params.head_b")
    SWEPT = [("checkpoint.json", field) for field in ENCODER_FIELDS
             + ("provenance", "provenance.seed")] + [
        ("crf.json", field) for field in ("kind", "format", "transition", "start",
                                          "emission_scale", "encoder", "provenance",
                                          "provenance.seed")
        + tuple(f"encoder.{f}" for f in ENCODER_FIELDS)] + [
        ("bilstm.json", field) for field in ("kind", "format", "config",
                                             "config.hidden_dim", "config.init_seed",
                                             "params", "params.fw_w", "params.head_b",
                                             "encoder", "provenance", "provenance.seed")
        + tuple(f"encoder.{f}" for f in ENCODER_FIELDS)]
    # each edit of a field: delete it, or give it a value of each JSON type
    REPLACEMENTS = {"null": None, "bool": True, "number": 0.5, "string": "x",
                    "list": [1], "object": {"x": 1}}
    # words of Python's own errors, which no message may show
    INTERNAL = ("object has no attribute", "not subscriptable", "not iterable",
                "unhashable")

    # every edit of every swept field but one: 0.5 is a valid emission scale
    SWEEP = [(name, field, edit) for (name, field), edit
             in product(SWEPT, ("deleted", *REPLACEMENTS))
             if (field, edit) != ("emission_scale", "number")]

    @pytest.mark.parametrize("name, field, edit", SWEEP, ids=[
        f"{name[:-5]}:{field}-{edit}" for name, field, edit in SWEEP])
    def test_fault_sweep(self, trained, capsys, name, field, edit):
        """Every field ``infer`` reads of each checkpoint kind, deleted or
        of another JSON type, exits 2 with one line that starts with the
        checkpoint's path and shows none of Python's own error words."""
        *outer, last = field.split(".")

        def change(payload):
            for key in outer:
                payload = payload[key]
            if edit == "deleted":
                del payload[last]
            else:
                payload[last] = self.REPLACEMENTS[edit]
        line = self.infer_edited(trained, capsys, name, change,
                                 f"sweep-{field}-{edit}")
        assert not any(words in line for words in self.INTERNAL), line

    @pytest.mark.parametrize("edit, message", [
        ({"label_mode": "multi"}, "unknown label_mode 'multi'"),
        ({"classes": ["c0"]}, "need at least 2 page-type classes"),
    ], ids=["label_mode-multi", "one-class"])
    def test_manifest_fault_names_the_manifest(self, trained, capsys, edit, message):
        tmp_path, corpus_dir, outdir = trained
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        bad = corpus_dir / f"bad-{'-'.join(edit)}.json"
        bad.write_text(json.dumps(dict(manifest, **edit)))
        out = tmp_path / "bad-manifest.jsonl"
        capsys.readouterr()
        assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--manifest", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
        assert not out.exists()

    def test_class_list_that_is_a_string_is_refused(self, trained, capsys):
        """A checkpoint's classes as the string "abc" are not read as the
        classes a, b and c, even against a manifest of those classes."""
        tmp_path, corpus_dir, outdir = trained
        abc = tmp_path / "abc"
        abc.mkdir()
        names = {"c0": "a", "c1": "b", "c2": "c"}
        pages = [json.loads(line) for line in
                 (corpus_dir / "test.jsonl").read_text().splitlines()]
        (abc / "test.jsonl").write_text("".join(
            json.dumps(dict(page, labels=[names[c] for c in page["labels"]])) + "\n"
            for page in pages))
        (abc / "manifest.json").write_text(json.dumps({
            "classes": ["a", "b", "c"], "label_mode": "multiclass",
            "train": "test.jsonl", "validation": "test.jsonl", "test": "test.jsonl"}))
        payload = json.loads((outdir / "checkpoint.json").read_text())
        payload["codec"]["classes"] = "abc"
        ckpt = tmp_path / "abc.json"
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "abc.jsonl"
        capsys.readouterr()
        assert main(["infer", "--checkpoint", str(ckpt),
                     "--manifest", str(abc / "manifest.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: classes must be a list of strings"]
        assert not out.exists()

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
    def run_on_trace_lines(trained, command, name, lines, capsys):
        """``eval`` or ``compare`` on a trace file of ``lines``; asserts exit
        2 and nothing written, and returns the file and its one error line."""
        tmp_path, corpus_dir, _, traces = trained
        bad = tmp_path / f"{name}.jsonl"
        bad.write_text("".join(lines))
        out = tmp_path / "report.json"
        argv = (["eval", "--traces", str(bad)] if command == "eval" else
                ["compare", "--traces-a", str(traces), "--traces-b", str(bad)])
        capsys.readouterr()
        assert main(argv + ["--manifest", str(corpus_dir / "manifest.json"),
                            "--split", "test", "--out", str(out)]) == 2
        assert not out.exists()
        (err,) = capsys.readouterr().err.splitlines()
        return bad, err

    @classmethod
    def run_on_edited_page(cls, trained, command, name, edit, capsys):
        """``eval`` or ``compare`` on the trace with its last page edited;
        asserts exit 2 and nothing written, and returns the error lines."""
        lines = trained[3].read_text().splitlines(keepends=True)
        page = json.loads(lines[-1])
        edit(page)
        bad, err = cls.run_on_trace_lines(
            trained, command, name, lines[:-1] + [json.dumps(page) + "\n"], capsys)
        assert str(bad) in err
        return [err]

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
        last = len(trained[3].read_text().splitlines())
        err = self.run_on_edited_page(trained, command, "field-type", edit, capsys)
        assert f"field-type.jsonl:{last}: " in err[0] and message in err[0]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("header", [
        lambda h: h.update(format="pageseq-trace/0"),
        lambda h: h.pop("format"),
    ], ids=["other", "none"])
    def test_trace_header_format(self, trained, command, header, capsys):
        """A trace whose header names another format, or none (as ``infer``
        wrote it before traces recorded one), is refused with a line that
        says to re-run ``infer``."""
        err = self.run_on_edited_header(trained, command, header, capsys)
        assert "trace format" in err and "re-run `infer`" in err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("header, message", [
        (lambda h: h.update(seed=1), "unknown field 'seed'"),
        (lambda h: h.update(provenanc={}),
         "unknown field 'provenanc'; did you mean 'provenance'?"),
        (lambda h: h.update(provenance=[1]), "field 'provenance' must be an object"),
        (lambda h: h.update(provenance=None), "field 'provenance' must be an object"),
    ], ids=["extra", "misspelt", "provenance-list", "provenance-null"])
    def test_trace_header_keys(self, trained, command, header, message, capsys):
        """A header holds ``format`` and ``provenance``, an object, and no
        other key."""
        err = self.run_on_edited_header(trained, command, header, capsys)
        assert err.endswith(message)

    @classmethod
    def run_on_edited_header(cls, trained, command, edit, capsys):
        """``eval`` or ``compare`` on the trace with its header edited;
        asserts exit 2, nothing written and one error line naming the file
        and the header's line, and returns that line."""
        first, *pages = trained[3].read_text().splitlines(keepends=True)
        assert json.loads(first)["format"] == TRACE_FORMAT
        edited = json.loads(first)
        edit(edited)
        bad, err = cls.run_on_trace_lines(
            trained, command, "old-header", [json.dumps(edited) + "\n", *pages], capsys)
        assert err.startswith(f"error: {bad}:1: ")
        return err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("placement", ["none", "after-first-page", "second"])
    def test_trace_has_one_header_on_its_first_line(self, trained, command,
                                                    placement, capsys):
        """A trace of page lines with no header, or with the header moved
        after the first page line, has no format; a second header, of
        another seed, appended after the pages is a page line that lacks
        every page field."""
        header, *pages = trained[3].read_text().splitlines(keepends=True)
        obj = json.loads(header)
        second = json.dumps(dict(obj, provenance=dict(obj["provenance"], seed=7)))
        lines = {"none": pages,
                 "after-first-page": [pages[0], header, *pages[1:]],
                 "second": [header, *pages, second + "\n"]}[placement]
        bad, err = self.run_on_trace_lines(trained, command, placement, lines, capsys)
        message = (f"{bad}:{len(lines)}: missing field 'doc_id'" if placement == "second"
                   else f"trace format None is not {TRACE_FORMAT!r}; re-run `infer` "
                        f"to write it anew")
        assert err == (f"error: {message}" if placement == "second"
                       else f"error: {bad}:1: {message}")

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("field", ["doc_id", "labels", "context", "scores",
                                       "page_index"])
    def test_trace_missing_field_names_its_line(self, trained, command, field,
                                                capsys):
        lines = trained[3].read_text().splitlines(keepends=True)
        page = json.loads(lines[3])
        del page[field]
        lines[3] = json.dumps(page) + "\n"
        bad, err = self.run_on_trace_lines(trained, command, "no-field", lines, capsys)
        assert err == f"error: {bad}:4: missing field {field!r}"

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("edit, message", [
        (lambda page: page.update(labelz=page["labels"]),
         "unknown field 'labelz'; did you mean 'labels'?"),
        (lambda page: page.update(page_index=str(page["page_index"])),
         "field 'page_index' must be an int"),
        (lambda page: page.update(page_index=True), "field 'page_index' must be an int"),
    ], ids=["unknown-key", "page-index-string", "page-index-bool"])
    def test_trace_page_line_fault_names_its_line(self, trained, command, edit,
                                                  message, capsys):
        """A trace page line holds exactly its fields, and its page_index is
        an int: the fault is named by its ``path:lineno``."""
        lines = trained[3].read_text().splitlines(keepends=True)
        page = json.loads(lines[3])
        edit(page)
        lines[3] = json.dumps(page) + "\n"
        bad, err = self.run_on_trace_lines(trained, command, "page-line", lines, capsys)
        assert err == f"error: {bad}:4: {message}"

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_split_line_with_an_unknown_key_names_its_line(self, trained, command,
                                                           capsys):
        """A split file's page line holds exactly its fields: one with a
        misspelt extra key exits 2, naming its ``path:lineno``, before any
        trace is read."""
        tmp_path, corpus_dir, _, traces = trained
        typo = tmp_path / "typo"
        typo.mkdir()
        (typo / "manifest.json").write_text((corpus_dir / "manifest.json").read_text())
        lines = (corpus_dir / "test.jsonl").read_text().splitlines(keepends=True)
        page = json.loads(lines[2])
        page["lables"] = page["labels"]
        lines[2] = json.dumps(page) + "\n"
        (typo / "test.jsonl").write_text("".join(lines))
        out = tmp_path / "report.json"
        argv = (["eval", "--traces", str(traces)] if command == "eval" else
                ["compare", "--traces-a", str(traces), "--traces-b", str(traces)])
        capsys.readouterr()
        assert main(argv + ["--manifest", str(typo / "manifest.json"),
                            "--split", "test", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {typo / 'test.jsonl'}:3: unknown field 'lables'; did you mean "
            f"'labels'?"]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_trace_json_error_names_its_line(self, trained, command, capsys):
        """Each line is parsed on its own, but the error names the file's line."""
        lines = trained[3].read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"labels"', '"labels', 1)
        bad, err = self.run_on_trace_lines(trained, command, "bad-line", lines, capsys)
        assert re.fullmatch(rf"error: {re.escape(str(bad))}:4:\d+: malformed JSON "
                            rf"\(.+\)", err), err

    # each way that page lines can fail to hold each page of the split once:
    # an edit of the page objects of one document (its id, its page count
    # and the indices of its lines), and the error it gets
    COVERAGE_FAULTS = {
        "unknown-doc": (
            lambda objs, doc_id, size, mine: [objs[i].update(doc_id="no such doc")
                                              for i in mine],
            "trace/gold page-set mismatch: missing=[{doc_id!r}], "
            "extra=['no such doc']"),
        "missing-doc": (
            lambda objs, doc_id, size, mine: objs.__delitem__(
                slice(mine[0], mine[-1] + 1)),
            "trace/gold page-set mismatch: missing=[{doc_id!r}], extra=[]"),
        "page-count": (
            lambda objs, doc_id, size, mine: objs.insert(
                mine[-1] + 1, dict(objs[mine[-1]], page_index=size)),
            "trace for {doc_id!r} has {more} pages, gold has {size}"),
        "duplicate-page": (
            lambda objs, doc_id, size, mine: objs.insert(mine[-1] + 1,
                                                         objs[mine[-1]]),
            "trace for {doc_id!r} has missing or duplicate pages"),
        "missing-page": (
            lambda objs, doc_id, size, mine: objs[mine[0]].update(page_index=size),
            "trace for {doc_id!r} has missing or duplicate pages"),
    }

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("fault", sorted(COVERAGE_FAULTS))
    def test_trace_must_cover_the_split(self, trained, command, fault, capsys):
        """A trace file whose page lines do not hold each page of the split
        once exits 2 with one line that names the file and the fault."""
        tmp_path, corpus_dir, _, traces = trained
        docs = load_corpus(corpus_dir / "manifest.json", ("test",)).test
        doc_id, size = docs.doc_ids[1], int(docs.offsets[2] - docs.offsets[1])
        header, *lines = traces.read_text().splitlines(keepends=True)
        objs = list(map(json.loads, lines))
        edit, message = self.COVERAGE_FAULTS[fault]
        edit(objs, doc_id, size,
             [i for i, obj in enumerate(objs) if obj["doc_id"] == doc_id])
        bad = tmp_path / "uncovered.jsonl"
        bad.write_text(header + "".join(json.dumps(obj) + "\n" for obj in objs))
        argv = (["eval", "--traces", str(bad)] if command == "eval" else
                ["compare", "--traces-a", str(traces), "--traces-b", str(bad)])
        capsys.readouterr()
        assert main(argv + ["--manifest", str(corpus_dir / "manifest.json"),
                            "--split", "test"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: "
            + message.format(doc_id=doc_id, size=size, more=size + 1)]

    def test_trace_of_another_split_gets_a_short_error(self, tmp_path, monkeypatch,
                                                       capsys):
        """``eval --split validation`` on a test-split trace: the one error
        line names a few ids of each side and their counts, not every id.
        Paths are relative, so the line's length is the message's."""
        monkeypatch.chdir(tmp_path)
        Path("synth.json").write_text(json.dumps(dict(SYNTH_CFG,
                                                      docs_per_split=[2, 30, 40])))
        assert main(["synth", "--config", "synth.json", "--outdir", ".",
                     "--run-id", "c"]) == 0
        trace = SplitTrace.blank(load_corpus("c/manifest.json", ("test",)).test)
        trace.labels[:] = trace.docs.gold
        write_traces(trace, "t.jsonl", provenance={"seed": 0})
        capsys.readouterr()
        assert main(["eval", "--traces", "t.jsonl", "--manifest", "c/manifest.json",
                     "--split", "validation"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: t.jsonl: trace/gold page-set mismatch")
        assert "(30 in all)" in line and "(40 in all)" in line
        assert len(line) < 300, line

    def test_shuffled_trace_scores_as_the_ordered_one(self, trained, capsys):
        """Page lines in any order are read onto the split's rows: ``eval``
        and ``compare`` print and report the same scores for the shuffled
        trace, byte for byte, but for the digest of the file read."""
        tmp_path, corpus_dir, _, traces = trained
        header, *lines = traces.read_text().splitlines(keepends=True)
        order = np.random.default_rng(0).permutation(len(lines))
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text(header + "".join(lines[i] for i in order))
        outputs = []
        for path in (traces, shuffled):
            report, paired = tmp_path / "eval.json", tmp_path / "compare.json"
            capsys.readouterr()
            for argv in (["eval", "--traces", str(path), "--out", str(report)],
                         ["compare", "--traces-a", str(path), "--traces-b",
                          str(traces), "--out", str(paired)]):
                assert main(argv + ["--manifest", str(corpus_dir / "manifest.json"),
                                    "--split", "test"]) == 0
            outputs.append([capsys.readouterr().out] + [
                json.dumps({key: value for key, value in json.loads(
                    out.read_text()).items() if key != "provenance"})
                for out in (report, paired)])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", [16.0, "16", None])
    def test_checkpoint_config_of_another_type(self, trained, capsys, value):
        """A linear checkpoint whose ``config.max_len`` is no int is read by
        the typed reader of config files, and refused with one line."""
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        payload["config"]["max_len"] = value
        ckpt = tmp_path / "float-max-len.json"
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.infer(tmp_path, corpus_dir, ckpt) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: field 'config.max_len' must be an int"]

    def test_config_far_wider_than_its_parameters(self, trained, capsys):
        """A linear checkpoint whose ``config.d`` is 400,000 is refused by
        the parameter shapes its config gives, checked before any array is
        made: no model of that width is allocated."""
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        n_ids, d = payload["params"]["emb"]["shape"]
        payload["config"]["d"] = 400_000
        ckpt = tmp_path / "wide-d.json"
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert self.infer(tmp_path, corpus_dir, ckpt) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ckpt}: parameter 'emb' has shape ({n_ids}, {d}), the config "
            f"gives ({n_ids}, 400000)"]
        assert peak < 20 * 2**20

    def test_non_finite_parameter(self, trained, capsys):
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        edit_block(payload["params"], "head_b", lambda a: np.put(a, 0, np.nan))
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

    CLASSES = "classes must be a list of strings"

    @pytest.mark.parametrize("field, value, message", [
        ("classes", 5, CLASSES), ("classes", "ABC", CLASSES),
        ("classes", [0, 1, 2], CLASSES), ("label_mode", 5, "unknown label_mode 5"),
        ("test", 5, "field 'test' must be a string"),
        ("validation", ["validation.jsonl"], "field 'validation' must be a string"),
    ], ids=["int-classes", "string-classes", "int-class-names", "int-label-mode",
            "int-split", "list-split"])
    def test_manifest_field_types(self, tmp_path, corpus_dir, capsys, field, value,
                                  message):
        """A manifest field of the wrong type names the field; a string of
        class names is not read as one class per character."""
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        bad = corpus_dir / "bad.json"
        bad.write_text(json.dumps(dict(manifest, **{field: value})))
        capsys.readouterr()
        assert main(["stats", "--manifest", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]

    @pytest.mark.parametrize("command", ["stats", "eval"])
    @pytest.mark.parametrize("field, near", [("tset", "test"),
                                             ("label_modes", "label_mode")])
    def test_manifest_unknown_field(self, trained, command, field, near, capsys):
        """A manifest key that no reader reads, even next to every field it
        needs, is refused with the nearest valid one."""
        tmp_path, corpus_dir, _, traces = trained
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        bad = corpus_dir / "extra.json"
        bad.write_text(json.dumps(dict(manifest, **{field: manifest[near]})))
        argv = ["stats"] if command == "stats" else ["eval", "--traces", str(traces)]
        capsys.readouterr()
        assert main(argv + ["--manifest", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: unknown field {field!r}; did you mean {near!r}?"]

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

    @pytest.mark.parametrize("edit", [
        lambda p: p["provenance"].update(seed=["x", {"y": 1}]),
        lambda p: p["provenance"].update(seed=-1),
        lambda p: p["provenance"].update(seed=True),
        lambda p: p["provenance"].update(seed=1.0),
        lambda p: p.pop("provenance"),
    ], ids=["list", "negative", "bool", "float", "no-provenance"])
    def test_trained_seed_must_be_a_non_negative_int(self, trained, capsys, edit):
        """The seed a trace header records comes from the checkpoint's
        provenance alone (a top-level ``seed`` is refused as an unknown
        field); anything but a non-negative int there is refused."""
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        edit(payload)
        ckpt = tmp_path / "bad-seed.json"
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.infer(tmp_path, corpus_dir, ckpt) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {ckpt}: field 'provenance.seed' must be a "
                       f"non-negative int"]

    def test_short_embedding_table(self, trained):
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        edit_block(payload["params"], "emb", lambda a: a[:5])
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

    @pytest.mark.parametrize("field, value, message", [
        ("mode", "recurrnt", "mode 'recurrnt'"),
        ("label_mode", "bogus", "label_mode 'bogus'"),
        ("label_mode", "multilabel", "label mode do not match"),
    ], ids=["mode-recurrnt", "label_mode-bogus", "label_mode-multilabel"])
    def test_bad_mode_or_label_mode(self, trained, capsys, field, value, message):
        """A mode that is not a decoding mode, or a label mode (the codec's
        ``vocab_label_mode``, its one record) that is none or not the
        manifest's, must not decode."""
        tmp_path, corpus_dir, outdir, _ = trained
        payload = json.loads((outdir / "checkpoint.json").read_text())
        if field == "mode":
            payload["mode"] = value
        else:
            payload["codec"]["vocab_label_mode"] = value
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.infer(tmp_path, corpus_dir, ckpt) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]


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


class TestInputFaults:
    """Every input file a command reads (a ``train`` or ``synth`` config, a
    manifest, a split file, a checkpoint, a trace file) is read one way: a
    missing file, one that is not UTF-8 and malformed JSON each exit 2 with
    one ``error:`` line that starts with the file's path, names it once, and
    nothing is written."""

    # each fault: the file's bytes, or None for no file, and the error after
    # the path, given what the file is called
    FAULTS = {
        "missing": (None, lambda what: f": cannot read {what} (No such file or "
                                       f"directory)"),
        "not-utf8": (b'\xff\xfe{"a": 1}\n', lambda what: f": {what} is not UTF-8 text"),
        "malformed": (b'\n\n{"a": 1,}\n', lambda what: ":3:9: malformed JSON "
                      "(Expecting property name enclosed in double quotes)"),
    }

    # each input: what its errors call it, and the command reading ``bad`` in
    # place of it, given the corpus directory, a good trace and the output (a
    # split file is read through the manifest ``bad`` + "-manifest.json")
    INPUTS = {
        "train-config": ("config file", lambda bad, corpus, traces, out: [
            "train", "--config", bad, "--outdir", out]),
        "synth-config": ("config file", lambda bad, corpus, traces, out: [
            "synth", "--config", bad, "--outdir", out]),
        "manifest": ("manifest", lambda bad, corpus, traces, out: [
            "stats", "--manifest", bad]),
        "split-file": ("split file", lambda bad, corpus, traces, out: [
            "eval", "--traces", traces, "--manifest", f"{bad}-manifest.json",
            "--out", out]),
        "checkpoint": ("checkpoint", lambda bad, corpus, traces, out: [
            "infer", "--checkpoint", bad, "--manifest", f"{corpus}/manifest.json",
            "--out", out]),
        "eval-trace": ("trace file", lambda bad, corpus, traces, out: [
            "eval", "--traces", bad, "--manifest", f"{corpus}/manifest.json",
            "--out", out]),
        "compare-trace": ("trace file", lambda bad, corpus, traces, out: [
            "compare", "--traces-a", traces, "--traces-b", bad, "--manifest",
            f"{corpus}/manifest.json", "--out", out]),
    }

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("inputs")
        (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CFG))
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        corpus_dir = tmp_path / "runs" / "corpus"
        outdir = run_train(tmp_path, corpus_dir, "m")
        traces = tmp_path / "traces.jsonl"
        assert main(["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--manifest", str(corpus_dir / "manifest.json"),
                     "--split", "test", "--out", str(traces)]) == 0
        return tmp_path, corpus_dir, traces

    @staticmethod
    def run_on(trained, argv, bad, capsys) -> str:
        """``main(argv(bad, ...))``: asserts exit 2, no output written and
        one error line naming ``bad`` once, and returns that line."""
        tmp_path, corpus_dir, traces = trained
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv(str(bad), str(corpus_dir), str(traces), str(out))) == 2
        assert not out.exists()
        printed = capsys.readouterr()
        assert printed.out == ""
        (line,) = printed.err.splitlines()
        assert line.startswith(f"error: {bad}") and line.count(str(bad)) == 1
        return line

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_file_fault_names_the_path_once_first(self, trained, capsys, name, fault):
        tmp_path, corpus_dir, _ = trained
        what, argv = self.INPUTS[name]
        data, message = self.FAULTS[fault]
        bad = tmp_path / f"{name}-{fault}.json"
        if data is not None:
            bad.write_bytes(data)
        if name == "split-file":
            manifest = json.loads((corpus_dir / "manifest.json").read_text())
            manifest["test"] = str(bad)
            Path(f"{bad}-manifest.json").write_text(json.dumps(manifest))
        line = self.run_on(trained, argv, bad, capsys)
        assert line == f"error: {bad}{message(what)}"

    @pytest.mark.parametrize("command", ["eval-trace", "compare-trace"])
    def test_trace_page_line_fault_names_the_path_once(self, trained, capsys,
                                                       command):
        tmp_path, _, traces = trained
        lines = traces.read_text().splitlines(keepends=True)
        page = json.loads(lines[2])
        del page["scores"]
        bad = tmp_path / f"no-scores-{command}.jsonl"
        bad.write_text("".join(lines[:2]) + json.dumps(page) + "\n"
                       + "".join(lines[3:]))
        line = self.run_on(trained, self.INPUTS[command][1], bad, capsys)
        assert line == f"error: {bad}:3: missing field 'scores'"


class TestDeepJson:
    """JSON nested deeper than the interpreter's recursion limit, in any file
    a command parses, exits 2 with one ``error:`` line, as malformed JSON
    does."""

    DEEP = "[" * 100_000

    @pytest.fixture()
    def files(self, tmp_path, corpus_dir):
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP)
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        first = (corpus_dir / manifest["test"]).read_text().splitlines()[0]
        (corpus_dir / "deep-test.jsonl").write_text(f"{first}\n{self.DEEP}\n")
        manifest["test"] = "deep-test.jsonl"
        (corpus_dir / "deep-line.json").write_text(json.dumps(manifest))
        return str(deep), str(corpus_dir / "manifest.json"), \
            str(corpus_dir / "deep-line.json"), str(tmp_path / "out")

    @pytest.mark.parametrize("case", ["train-config", "synth-config",
                                      "infer-checkpoint", "eval-traces",
                                      "stats-manifest", "split-file-line"])
    def test_exits_2_with_one_line(self, files, capsys, case):
        deep, manifest, deep_line, out = files
        argv = {
            "train-config": ["train", "--config", deep, "--outdir", out],
            "synth-config": ["synth", "--config", deep, "--outdir", out],
            "infer-checkpoint": ["infer", "--checkpoint", deep, "--manifest",
                                 manifest, "--out", out],
            "eval-traces": ["eval", "--traces", deep, "--manifest", manifest],
            "stats-manifest": ["stats", "--manifest", deep],
            "split-file-line": ["stats", "--manifest", deep_line],
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "nested too deeply" in err[0]


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
        # synth and train name the run directory below ``path``
        assert len(err) == 1 and err[0].startswith(f"error: {path}")
        assert re.fullmatch(r"error: \S+: cannot write \([^()]+\)", err[0]), err[0]
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("name", ["checkpoint.json", "crf.json", "bilstm.json"])
    def test_train_checkpoint_path_is_a_directory(self, trained, name, capsys):
        """Every checkpoint kind is written one way: a path that cannot be
        written exits 2 with one line naming it."""
        tmp_path, corpus_dir, _, _ = trained
        cfg = tmp_path / "baselines.json"
        cfg.write_text(json.dumps(experiment_cfg(
            corpus_dir, baselines={"crf": True, "bilstm": True},
            bilstm={"hidden_dim": 8})))
        blocked = tmp_path / "runs" / f"dir-{name}" / name
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--outdir",
                     str(tmp_path / "runs"), "--run-id", f"dir-{name}"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {blocked}: cannot write (Is a directory)"]


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
            bilstm={"hidden_dim": 8})))
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
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfg_path}: max_len must be >= 22 ")


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


class TestClosedStdout:
    """A reader that closes stdout early (``pageseq stats ... | head -1``)
    ends the command with exit status 141 (128 + SIGPIPE), not a traceback.
    Each command runs as a child whose stdout pipe is closed before it
    starts, with Python's default block buffering (the failing write is the
    last flush) and unbuffered (the failing write is a ``print``)."""

    @pytest.fixture(scope="class")
    def commands(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("closed-stdout")
        (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CFG))
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--outdir", str(tmp_path / "runs"), "--run-id", "corpus"]) == 0
        corpus_dir = tmp_path / "runs" / "corpus"
        outdir = run_train(tmp_path, corpus_dir, "m", mode="recurrent")
        test = ["--manifest", str(corpus_dir / "manifest.json"), "--split", "test"]
        traces = str(tmp_path / "traces.jsonl")
        infer = ["infer", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--out", traces] + test
        assert main(infer) == 0
        child = ["--outdir", str(tmp_path / "child"), "--run-id", "run"]
        return {
            "synth": ["synth", "--config", str(tmp_path / "synth.json")] + child,
            "stats": ["stats", "--manifest", str(corpus_dir / "manifest.json")],
            "train": ["train", "--config", str(tmp_path / "m.json")] + child,
            "infer": infer,
            "eval": ["eval", "--traces", traces] + test,
            "compare": ["compare", "--traces-a", traces, "--traces-b", traces] + test,
        }

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["synth", "stats", "train", "infer", "eval",
                                         "compare"])
    def test_exits_141_without_a_traceback(self, commands, command, unbuffered):
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(cli.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; from pageseq.cli import main; "
             "sys.exit(main())", *commands[command]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 141, err
        assert "Traceback" not in err and "Exception ignored" not in err, err


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
            ["unknown field 'train.epoch'; did you mean 'train.epochs'?"],
            id="train.epoch"),
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
        pytest.param("train", lambda c: 5, [], ["expected a JSON object"],
                     id="top-level-5"),
        pytest.param("train", lambda c: experiment_cfg(c, corpus={"synthetic": 5}),
                     [], ["'corpus'"], id="corpus.synthetic-5"),
        pytest.param("train", lambda c: experiment_cfg(
            c, encoder={"variant": "linear", "d": 8, "max_len": 16, "dropout": 0.5}),
            [], ["field 'encoder': ", "linear encoder takes no dropout"],
            id="linear-dropout"),
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
        # without a layer the CLS row never reads the text
        pytest.param("train", lambda c: experiment_cfg(c, encoder=dict(TINY, n_layers=0)),
                     [], ["n_layers"], id="n_layers-zero"),
        pytest.param("train", lambda c: experiment_cfg(c, seed=-1), [],
                     ["field 'seed' must be >= 0"], id="seed-negative"),
        pytest.param("train", experiment_cfg, ["--seed", "-1"],
                     ["error: --seed: must be >= 0"], id="seed-override-negative"),
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
        # a fault of a command-line value names its option, not the config
        blamed = "error: --" if expected[0].startswith("error: --") else \
            f"error: {cfg_path}: "
        assert len(err) == 1 and err[0].startswith(blamed)
        for text in expected:
            assert text in err[0]

    @pytest.mark.parametrize("argv, line", [
        (["--epochs", "0"], "error: --epochs: must be >= 1"),
        (["--seed", "-1"], "error: --seed: must be >= 0"),
    ], ids=["epochs-0", "seed-negative"])
    def test_bad_option_exits_2_naming_it(self, tmp_path, corpus_dir, capsys, argv,
                                          line):
        """An override out of range is the option's fault, on a config
        that is valid as it stands, and exits 2 before anything is
        written."""
        cfg_path = tmp_path / "good.json"
        cfg_path.write_text(json.dumps(experiment_cfg(corpus_dir)))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out"), *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, overrides", [
        ("encoder.init_seed", {"encoder": {"variant": "linear", "d": 8,
                                           "max_len": 16, "init_seed": 5}}),
        ("train.seed", {"train": {"epochs": 1, "seed": 3}}),
    ], ids=["encoder.init_seed", "train.seed"])
    def test_seeds_are_set_by_seed_alone(self, tmp_path, capsys, field, overrides):
        """The encoder's and the trainer's seeds come from the top-level
        ``seed``, the one that provenance records: a config that sets one of
        them exits 2 before ``train`` writes anything."""
        cfg_path = tmp_path / "seeds.json"
        cfg_path.write_text(json.dumps(experiment_cfg(tmp_path, seed=0, **overrides)))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg_path}: field {field!r} is set by 'seed'"]
        assert not (tmp_path / "runs").exists()

    def test_train_reads_its_corpus_only_from_a_manifest(self, tmp_path, capsys):
        """An inline synthetic corpus, which writes no split files, exits 2
        before ``train`` writes anything."""
        cfg_path = tmp_path / "inline.json"
        cfg_path.write_text(json.dumps(experiment_cfg(
            tmp_path, corpus={"synthetic": SYNTH_CFG})))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg_path}: field 'corpus' must be a manifest path"]
        assert not (tmp_path / "runs").exists()

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
        assert config_from(SynthConfig, json.loads(json.dumps(asdict(cfg))),
                           "synth") == cfg

    @given(variant=st.sampled_from(["linear", "tiny-transformer"]),
           heads=st.integers(1, 4), per_head=st.integers(1, 8),
           n_layers=st.integers(1, 3), max_len=st.integers(3, 512),
           dropout=unit, init_seed=seed)
    def test_encoder_config_round_trips(self, variant, heads, per_head, n_layers,
                                        max_len, dropout, init_seed):
        if variant == "linear":  # the linear encoder takes no dropout
            dropout = 0.0
        cfg = EncoderConfig(variant, heads * per_head, n_layers, heads, max_len,
                            dropout, init_seed)
        assert config_from(EncoderConfig, json.loads(json.dumps(asdict(cfg))),
                           "encoder") == cfg

    @given(epochs=st.integers(1, 100), batch_size=st.integers(1, 4096),
           peak_lr=positive, warmup=unit, weight_decay=st.floats(0.0, 1e3),
           betas=st.tuples(unit, unit), epsilon=positive, seed=seed)
    def test_train_config_round_trips(self, epochs, batch_size, peak_lr, warmup,
                                      weight_decay, betas, epsilon, seed):
        cfg = TrainConfig(epochs, batch_size, peak_lr, warmup, weight_decay, betas,
                          epsilon, seed)
        assert config_from(TrainConfig, json.loads(json.dumps(asdict(cfg))),
                           "train") == cfg
