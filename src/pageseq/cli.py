"""Command-line surface: synthesize/ingest corpora, train models and
baselines, run inference, evaluate, and compare.

Every command is deterministic given its config file: seeds live in configs,
run directories are derived from the config hash, and all artifacts carry a
provenance header (config hash, toolkit version, seed).  Wall-clock timings
go to a separate ``timing.json`` sidecar so re-runs stay bit-identical.

Exit codes: 0 success, 1 runtime failure (e.g. divergence), 2 invalid
arguments or config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bilstm import BiLstmConfig, bilstm_forward, bilstm_train, init_bilstm
from .corpus import (
    MULTICLASS,
    CorpusError,
    CorpusSplit,
    SynthConfig,
    class_page_counts,
    generate_synthetic,
    load_corpus,
    run_length_stats,
    transition_self_prob,
    write_corpus,
)
from .crf import CrfModel, crf_fit, crf_viterbi, emissions_from_logits
from .encoder import (
    EncoderConfig,
    TokenCodec,
    check_params,
    checkpoint_payload,
    load_checkpoint,
    restore_encoder,
    save_checkpoint,
)
from .evaluation import (
    align_traces,
    compare_traces,
    format_score_table,
    gold_labels,
    score,
    scores_payload,
)
from .features import (
    fit_svd,
    fit_tfidf,
    fit_vocabulary,
    page_vector_model_from_payload,
    page_vector_payload,
    tfidf_matrix,
)
from .recurrence import (
    PagePrediction,
    PredictionTrace,
    encode_split,
    infer_split,
    page_tokens,
    read_traces,
    write_traces,
)
from .training import TrainConfig, TrainingDiverged, train_encoder


class ConfigError(ValueError):
    """Invalid config file or invalid command arguments."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def provenance_for(command: str, cfg_obj, seed: int) -> dict:
    return {
        "command": command,
        "config_hash": config_hash(cfg_obj),
        "toolkit_version": __version__,
        "seed": seed,
    }


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _load_config_file(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None


def _load_artifact(what: str, path, load, *args):
    """``load(path, *args)`` with a missing, unreadable or malformed file
    reported as a ConfigError (exit 2) that names the file."""
    try:
        return load(path, *args)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{what} {path}: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{what} {path}: missing field {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{what} {path}: malformed ({exc})") from None


def _field(obj: dict, name: str, kind, default=None, required=False, where=""):
    label = f"{where}.{name}" if where else name
    if name not in obj:
        if required:
            raise ConfigError(f"missing config field {label!r}")
        return default
    value = obj[name]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"config field {label!r} must be {kind.__name__}")
    return value


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def synth_config_from(obj: dict) -> SynthConfig:
    n = _field(obj, "n_classes", int, required=True)
    seed = _field(obj, "seed", int, default=0)
    kwargs = dict(
        pages_per_doc=tuple(_field(obj, "pages_per_doc", list, default=[4, 12])),
        tokens_per_page=tuple(_field(obj, "tokens_per_page", list, default=[5, 30])),
        class_vocab_size=_field(obj, "class_vocab_size", int, default=50),
        shared_vocab_size=_field(obj, "shared_vocab_size", int, default=100),
        ambiguity=_field(obj, "ambiguity", float, default=0.5),
        docs_per_split=tuple(_field(obj, "docs_per_split", list, default=[80, 10, 10])),
    )
    try:
        if "transition_matrix" in obj:
            matrix = tuple(tuple(row) for row in obj["transition_matrix"])
            start = tuple(_field(obj, "start_distribution", list, required=True))
            return SynthConfig(n, matrix, start, seed=seed, **kwargs)
        self_p = _field(obj, "self_transition", float, required=True)
        return SynthConfig.uniform(n, self_p, seed=seed, **kwargs)
    except CorpusError as exc:
        raise ConfigError(f"invalid synthetic corpus config: {exc}") from None


def encoder_config_from(obj: dict, default_seed: int) -> EncoderConfig:
    try:
        return EncoderConfig(
            variant=_field(obj, "variant", str, default="linear"),
            d=_field(obj, "d", int, default=32),
            n_layers=_field(obj, "n_layers", int, default=2),
            n_heads=_field(obj, "n_heads", int, default=2),
            max_len=_field(obj, "max_len", int, default=64),
            dropout=_field(obj, "dropout", float, default=0.0),
            init_seed=_field(obj, "init_seed", int, default=default_seed),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid encoder config: {exc}") from None


def train_config_from(obj: dict, default_seed: int) -> TrainConfig:
    try:
        return TrainConfig(
            epochs=_field(obj, "epochs", int, default=6),
            batch_size=_field(obj, "batch_size", int, default=32),
            peak_lr=_field(obj, "peak_lr", float, default=1e-3),
            warmup_fraction=_field(obj, "warmup_fraction", float, default=0.10),
            weight_decay=_field(obj, "weight_decay", float, default=0.0),
            seed=_field(obj, "seed", int, default=default_seed),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid train config: {exc}") from None


def corpus_from(value, base: Path) -> CorpusSplit:
    if isinstance(value, str):
        return load_corpus(base / value if not Path(value).is_absolute() else value)
    if isinstance(value, dict) and "synthetic" in value:
        return generate_synthetic(synth_config_from(value["synthetic"]))
    raise ConfigError("config field 'corpus' must be a manifest path or "
                      "{\"synthetic\": {...}}")


# ---------------------------------------------------------------------------
# synth / stats
# ---------------------------------------------------------------------------


def _print_corpus_summary(split: CorpusSplit) -> None:
    counts = class_page_counts(split)
    print("pages per class:")
    for name in ("train", "validation", "test"):
        per = counts[name]
        total = sum(per.values())
        parts = ", ".join(f"{cls}={cnt}" for cls, cnt in per.items())
        print(f"  {name} ({total} labels): {parts}")
    if split.vocabulary.label_mode == MULTICLASS and split.train:
        stats = transition_self_prob(split.train)
        per = ", ".join(
            f"{split.vocabulary.class_names[c]}={p:.4f}"
            for c, p in stats.per_class.items())
        print(f"train self-transition: {per} (macro {stats.macro:.4f})")


def cmd_synth(args) -> int:
    cfg_obj = _load_config_file(args.config)
    cfg = synth_config_from(cfg_obj)
    split = generate_synthetic(cfg)
    run_id = args.run_id or f"synth-{config_hash(cfg_obj)[:12]}"
    outdir = Path(args.outdir) / run_id
    provenance = provenance_for("synth", cfg_obj, cfg.seed)
    manifest = write_corpus(split, outdir, provenance=provenance)
    print(f"wrote {manifest}")
    _print_corpus_summary(split)
    return 0


def cmd_stats(args) -> int:
    split = load_corpus(args.manifest)
    _print_corpus_summary(split)
    if split.vocabulary.label_mode != MULTICLASS:
        print("run-length and self-transition statistics need multiclass labels")
        return 0
    for name, docs in split.splits():
        if not docs:
            continue
        print(f"label runs in {name}:")
        for c, stats in run_length_stats(docs).items():
            cls = split.vocabulary.class_names[c]
            print(f"  {cls}: median {stats.median_run:g}, max {stats.max_run}, "
                  f"total pages {stats.total_pages}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _encoder_logit_seqs(params, config, codec, split_docs, label_mode,
                        encoded=None):
    """Frozen per-page logits, one (l, n) array per document."""
    traces = infer_split(params, split_docs, config, codec, label_mode,
                         recurrent=False, encoded=encoded)
    return [np.stack([p.scores for p in trace.pages]) for trace in traces]


def _page_vector_seqs(matrix, projector, docs):
    """Page vectors ``matrix @ basis`` of the TF-IDF rows of ``docs``' pages,
    one (l, k) array per document."""
    vectors = matrix @ projector.basis
    offsets = np.cumsum([0] + [len(doc) for doc in docs])
    return [vectors[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def cmd_train(args) -> int:
    cfg_obj = _load_config_file(args.config)
    if args.mode:
        cfg_obj["mode"] = args.mode
    if args.epochs is not None:
        cfg_obj.setdefault("train", {})["epochs"] = args.epochs
    if args.seed is not None:
        cfg_obj["seed"] = args.seed

    seed = _field(cfg_obj, "seed", int, default=0)
    mode = _field(cfg_obj, "mode", str, default="oblivious")
    if mode not in ("oblivious", "recurrent"):
        raise ConfigError("config field 'mode' must be 'oblivious' or 'recurrent'")
    baselines = _field(cfg_obj, "baselines", dict, default={})
    want_crf = _field(baselines, "crf", bool, default=False, where="baselines")
    want_bilstm = _field(baselines, "bilstm", bool, default=False, where="baselines")
    if want_crf and mode != "oblivious":
        raise ConfigError("baselines.crf requires mode 'oblivious' "
                          "(the CRF consumes a frozen context-oblivious checkpoint)")
    if "corpus" not in cfg_obj:
        raise ConfigError("missing config field 'corpus'")
    base = Path(args.config).parent
    split = corpus_from(cfg_obj["corpus"], base)
    label_mode = split.vocabulary.label_mode
    encoder_config = encoder_config_from(_field(cfg_obj, "encoder", dict, default={}),
                                         default_seed=seed)
    train_config = train_config_from(_field(cfg_obj, "train", dict, default={}),
                                     default_seed=seed)
    cap = _field(cfg_obj, "vocab_cap", int, default=60_000)

    run_id = args.run_id or f"train-{config_hash(cfg_obj)[:12]}"
    outdir = Path(args.outdir) / run_id
    outdir.mkdir(parents=True, exist_ok=True)
    provenance = provenance_for("train", cfg_obj, seed)

    # the train split is tokenized once, for the vocabulary, the encoder and
    # the BiLSTM's page vectors
    train_tokens = page_tokens(split.train)
    vocab = fit_vocabulary(train_tokens, cap)
    if want_bilstm:
        if label_mode != MULTICLASS:
            raise ConfigError("baselines.bilstm supports multiclass corpora only")
        bl_obj = _field(cfg_obj, "bilstm", dict, default={})
        hidden = _field(bl_obj, "hidden_dim", int, default=128, where="bilstm")
        svd_k = _field(bl_obj, "svd_k", int, default=300, where="bilstm")
        try:
            bl_config = BiLstmConfig(input_dim=svd_k, n_classes=split.vocabulary.n,
                                     hidden_dim=hidden, init_seed=seed)
        except ValueError as exc:
            raise ConfigError(f"invalid bilstm config: {exc}") from None
        # the TF-IDF vocabulary is this one: same train tokens, same cap
        if svd_k > min(len(train_tokens), vocab.size):
            raise ConfigError(
                f"bilstm.svd_k={svd_k} exceeds min(train pages, vocabulary) "
                f"= {min(len(train_tokens), vocab.size)}")
    codec = TokenCodec(split.vocabulary, vocab.tokens)
    train_encoded = encode_split(split.train, codec, encoder_config.max_len,
                                 train_tokens)
    started = time.perf_counter()
    params, report = train_encoder(encoder_config, codec, split.train, label_mode,
                                   train_config, recurrent=(mode == "recurrent"),
                                   val_docs=split.validation,
                                   encoded=train_encoded)
    ckpt = checkpoint_payload(params, encoder_config, codec, label_mode,
                              mode=mode, seed=seed)
    ckpt["provenance"] = provenance
    save_checkpoint(outdir / "checkpoint.json", ckpt)
    write_json(outdir / "report.json",
               {"provenance": provenance, **report.to_payload()})
    timings = {"train_seconds": report.wall_clock_seconds}
    golds = [[next(iter(p.gold_labels)) for p in doc.pages] for doc in split.train]

    if want_crf:
        crf_obj = _field(cfg_obj, "crf", dict, default={})
        l2 = _field(crf_obj, "l2", float, default=0.01, where="crf")
        tick = time.perf_counter()
        logit_seqs = _encoder_logit_seqs(params, encoder_config, codec,
                                         split.train, label_mode, train_encoded)
        emission_seqs = [emissions_from_logits(lg) for lg in logit_seqs]
        crf_model = crf_fit(emission_seqs, golds, split.vocabulary.n, l2=l2)
        crf_payload = {
            "kind": "crf",
            "l2": l2,
            "transition": crf_model.transition.tolist(),
            "start": crf_model.start.tolist(),
            "emission_scale": crf_model.emission_scale,
            "encoder": ckpt,
            "provenance": provenance,
        }
        write_json(outdir / "crf.json", crf_payload)
        timings["crf_seconds"] = time.perf_counter() - tick

    if want_bilstm:
        tick = time.perf_counter()
        tfidf = fit_tfidf(train_tokens, cap)
        matrix = tfidf_matrix(train_tokens, tfidf)
        projector = fit_svd(matrix, k=svd_k)
        feats = _page_vector_seqs(matrix, projector, split.train)
        bl_params, bl_report = bilstm_train(feats, golds, bl_config, train_config)
        write_json(outdir / "bilstm.json", {
            "kind": "bilstm",
            "config": asdict(bl_config),
            "classes": list(split.vocabulary.class_names),
            "params": {k: v.tolist() for k, v in sorted(bl_params.items())},
            "features": page_vector_payload(tfidf, projector),
            "provenance": provenance,
        })
        write_json(outdir / "bilstm_report.json",
                   {"provenance": provenance, **bl_report.to_payload()})
        timings["bilstm_seconds"] = time.perf_counter() - tick

    timings["total_seconds"] = time.perf_counter() - started
    write_json(outdir / "timing.json", timings)
    last = report.epoch_metrics[-1]
    summary = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in last.items())
    print(f"run {run_id}: {summary}")
    print(f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def _context_free_traces(docs, logit_seqs, label_seqs) -> list[PredictionTrace]:
    """Traces of a decoder that feeds no context: scores and class per page."""
    return [PredictionTrace(doc_id=doc.doc_id, pages=[
        PagePrediction(scores=row, labels=frozenset({int(c)}), context=None)
        for row, c in zip(logits, labels)])
        for doc, logits, labels in zip(docs, logit_seqs, label_seqs)]


def _restore_model(payload):
    """The class names and the decoder (documents -> traces) of a checkpoint
    payload of any kind.  Kind, fields, class lists and parameter shapes are
    checked here, and a malformed payload is a ConfigError."""
    if not isinstance(payload, dict):
        raise ConfigError("checkpoint is not a JSON object")
    kind = payload.get("kind")
    try:
        if kind == "encoder":
            params, config, codec, label_mode, mode = restore_encoder(payload)

            def decode(docs):
                return infer_split(params, docs, config, codec, label_mode,
                                   recurrent=(mode == "recurrent"))
            return codec.type_vocab.class_names, decode
        if kind == "crf":
            params, config, codec, label_mode, _ = restore_encoder(payload["encoder"])
            model = CrfModel(payload["transition"], payload["start"],
                             float(payload["emission_scale"]))
            if model.n != codec.n_classes:
                raise ValueError(f"{model.n} CRF classes, {codec.n_classes} "
                                 f"encoder classes")

            def decode(docs):
                logit_seqs = _encoder_logit_seqs(params, config, codec, docs,
                                                 label_mode)
                return _context_free_traces(docs, logit_seqs, [
                    crf_viterbi(model, emissions_from_logits(logits))[0]
                    for logits in logit_seqs])
            return codec.type_vocab.class_names, decode
        if kind == "bilstm":
            config = BiLstmConfig(**payload["config"])
            tfidf, projector = page_vector_model_from_payload(payload["features"])
            params = {name: np.asarray(value, dtype=np.float64)
                      for name, value in payload["params"].items()}
            check_params(params, init_bilstm(config))
            if len(payload["classes"]) != config.n_classes or projector.basis.shape \
                    != (tfidf.vocabulary.size, config.input_dim):
                raise ValueError("classes or page vectors do not match the config")

            def decode(docs):
                matrix = tfidf_matrix(page_tokens(docs), tfidf)
                logit_seqs = [bilstm_forward(params, x) for x in
                              _page_vector_seqs(matrix, projector, docs)]
                return _context_free_traces(
                    docs, logit_seqs, [lg.argmax(axis=1) for lg in logit_seqs])
            return tuple(payload["classes"]), decode
    except KeyError as exc:
        raise ConfigError(f"{kind} checkpoint: missing field {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{kind} checkpoint: {exc}") from None
    raise ConfigError(f"unknown checkpoint kind {kind!r}")


def cmd_infer(args) -> int:
    split = load_corpus(args.manifest)
    docs = split.split(args.split)
    payload = _load_artifact("checkpoint", args.checkpoint, load_checkpoint)
    classes, decode = _restore_model(payload)
    if tuple(classes) != split.vocabulary.class_names:
        raise ConfigError("checkpoint classes do not match the corpus manifest")
    traces = decode(docs)
    ref = {"checkpoint_hash": config_hash(payload), "split": args.split}
    provenance = provenance_for("infer", ref, payload.get("seed", 0))
    write_traces(traces, args.out, split.vocabulary, provenance=provenance)
    n_pages = sum(len(t) for t in traces)
    print(f"wrote {args.out} ({n_pages} pages, {len(traces)} documents)")
    return 0


# ---------------------------------------------------------------------------
# eval / compare
# ---------------------------------------------------------------------------


def _read_split_traces(path, split: CorpusSplit, docs):
    """Traces from ``path`` and their labels in gold page order; the file
    must cover exactly the pages of ``docs``."""
    traces = _load_artifact("trace file", path, read_traces, split.vocabulary)
    try:
        return traces, align_traces(traces, docs)
    except ValueError as exc:
        raise ConfigError(f"trace file {path}: {exc}") from None


def cmd_eval(args) -> int:
    split = load_corpus(args.manifest)
    docs = split.split(args.split)
    _, preds = _read_split_traces(args.traces, split, docs)
    golds = gold_labels(docs)
    scores = score(preds, golds, split.vocabulary)
    print(format_score_table(scores, split.vocabulary))
    if args.out:
        ref = {"traces": config_hash(Path(args.traces).read_text()),
               "split": args.split}
        write_json(Path(args.out), {
            "provenance": provenance_for("eval", ref, 0),
            **scores_payload(scores, split.vocabulary),
        })
    return 0


def cmd_compare(args) -> int:
    split = load_corpus(args.manifest)
    docs = split.split(args.split)
    traces_a, _ = _read_split_traces(args.traces_a, split, docs)
    traces_b, _ = _read_split_traces(args.traces_b, split, docs)
    report = compare_traces(traces_a, traces_b, docs, split.vocabulary)
    names = split.vocabulary.class_names
    print("per-class F1 (A vs B, percent):")
    for c, name in enumerate(names):
        print(f"  {name}: {100 * report.scores_a.f1[c]:.2f} vs "
              f"{100 * report.scores_b.f1[c]:.2f} "
              f"(delta {100 * report.f1_delta[c]:+.2f})")
    print(f"macro-avg: {100 * report.scores_a.macro_f1:.2f} vs "
          f"{100 * report.scores_b.macro_f1:.2f}")
    print(f"weighted-avg: {100 * report.scores_a.weighted_f1:.2f} vs "
          f"{100 * report.scores_b.weighted_f1:.2f}")
    t = report.test
    print(f"McNemar-Bowker: statistic {t.statistic:.4f}, dof {t.dof}, "
          f"p-value {t.p_value:.6g}")
    if args.out:
        ref = {"traces_a": config_hash(Path(args.traces_a).read_text()),
               "traces_b": config_hash(Path(args.traces_b).read_text()),
               "split": args.split}
        write_json(Path(args.out), {
            "provenance": provenance_for("compare", ref, 0),
            "contingency_table": report.table.tolist(),
            "statistic": t.statistic,
            "dof": t.dof,
            "p_value": t.p_value,
            "macro_f1_a": report.scores_a.macro_f1,
            "macro_f1_b": report.scores_b.macro_f1,
            "f1_delta": {name: float(report.f1_delta[c])
                         for c, name in enumerate(names)},
        })
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pageseq",
        description="Sequence-aware document page-type classification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", required=True, help="synthetic corpus config JSON")
    p.add_argument("--outdir", default="runs")
    p.add_argument("--run-id", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model (plus optional baselines)")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--outdir", default="runs")
    p.add_argument("--run-id", default=None)
    p.add_argument("--mode", choices=["oblivious", "recurrent"], default=None,
                   help="override the config's mode")
    p.add_argument("--epochs", type=int, default=None, help="override train.epochs")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="write prediction traces for one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "validation", "test"],
                   default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score traces against gold labels")
    p.add_argument("--traces", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "validation", "test"],
                   default="test")
    p.add_argument("--out", default=None, help="also write a JSON report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="paired comparison of two trace files")
    p.add_argument("--traces-a", required=True)
    p.add_argument("--traces-b", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "validation", "test"],
                   default="test")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", help="descriptive corpus statistics")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
