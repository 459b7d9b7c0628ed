"""Command-line surface: synthesize/ingest corpora, train models and
baselines, run inference, evaluate, and compare.

Every command is deterministic given its config file: seeds live in configs,
run directories are derived from the config hash, and all artifacts carry a
provenance header (config hash, toolkit version, seed).  ``infer``, ``eval``
and ``compare`` hash, in place of a config, the split name and the SHA-256
of each input file's bytes; ``infer`` records the seed its checkpoint was
trained with.  Wall-clock timings go to a separate ``timing.json`` sidecar
so re-runs stay bit-identical.

Both sequence baselines are heads over one page representation, the frozen
context-oblivious encoder's log-softmax scores (emissions): ``train``
computes the train split's emissions once, for the CRF and the BiLSTM
alike, and each baseline checkpoint embeds that encoder's checkpoint.
``infer`` therefore decodes every checkpoint kind one way: one encoder pass
over the split, then, for a baseline, its head over the emissions and the
document offsets.

Exit codes: 0 success, 1 runtime failure (e.g. divergence), 2 invalid
arguments, config, input file or output path, 141 (128 + SIGPIPE) stdout
closed by its reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .bilstm import BiLstmConfig, bilstm_forward, bilstm_shapes, bilstm_train
from .corpus import (
    MULTICLASS,
    CorpusSplit,
    SynthConfig,
    class_page_counts,
    generate_synthetic,
    load_corpus,
    run_length_stats,
    transition_self_prob,
    write_corpus,
)
from .crf import CrfModel, check_l2, crf_fit, crf_viterbi, emissions_from_logits
from .encoder import (
    MODES,
    EncoderConfig,
    TokenCodec,
    check_max_len,
    checkpoint_payload,
    load_checkpoint,
    read_params,
    restore_encoder,
    save_checkpoint,
)
from .evaluation import (
    compare_traces,
    format_score_table,
    score,
    scores_payload,
)
from .features import DEFAULT_VOCAB_CAP, fit_vocabulary
from .files import (
    CHECKPOINT_FORMAT,
    CorpusError,
    check_format,
    config_from,
    float_block,
    json_object,
    json_value,
    read_input,
    read_json,
    reading,
    writing,
)
from .recurrence import (encode_split, infer_split, read_traces, split_tokens,
                         write_traces)
from .training import TrainConfig, TrainingDiverged, train_encoder


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
    with writing(path):
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")


def _save(path: Path, payload: dict) -> None:
    """A checkpoint of any kind, written as ``save_checkpoint`` writes it."""
    with writing(path):
        save_checkpoint(path, payload)


# ---------------------------------------------------------------------------
# Config parsing: each JSON block is read against the dataclass it configures
# (``files.config_from``, the reader of checkpoint blocks too)
# ---------------------------------------------------------------------------


def synth_config_from(obj) -> SynthConfig:
    """SynthConfig from a JSON object.  ``self_transition`` stands for the
    transition matrix and start distribution of ``SynthConfig.uniform`` and
    excludes both."""
    keys = [f.name for f in fields(SynthConfig)] + ["self_transition"]
    obj = dict(json_object(obj, keys, ""))
    self_p = obj.pop("self_transition", None)
    if self_p is None or "n_classes" not in obj:
        return config_from(SynthConfig, obj, "")
    if obj.keys() & {"transition_matrix", "start_distribution"}:
        raise ValueError("field 'self_transition' excludes 'transition_matrix' "
                         "and 'start_distribution'")
    chain = SynthConfig.uniform(json_value(obj["n_classes"], int, "n_classes"),
                                json_value(self_p, float, "self_transition"))
    return config_from(SynthConfig, obj, "",
                       transition_matrix=chain.transition_matrix,
                       start_distribution=chain.start_distribution)


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
    if split.vocabulary.label_mode != MULTICLASS or not split.train:
        return
    if len(split.train.texts) == len(split.train):
        print("train self-transition: no page transitions (every document "
              "has one page)")
        return
    stats = transition_self_prob(split.train)
    per = ", ".join(
        f"{split.vocabulary.class_names[c]}={p:.4f}"
        for c, p in stats.per_class.items())
    print(f"train self-transition: {per} (macro {stats.macro:.4f})")


def cmd_synth(args) -> int:
    cfg_obj, _ = read_json(args.config, "config file")
    with reading(args.config):
        cfg = synth_config_from(cfg_obj)
    split = generate_synthetic(cfg)
    run_id = args.run_id or f"synth-{config_hash(cfg_obj)[:12]}"
    outdir = Path(args.outdir) / run_id
    provenance = provenance_for("synth", cfg_obj, cfg.seed)
    with writing(outdir):
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


def cmd_train(args) -> int:
    # a command-line value is blamed on its option, not on the config
    for option, value, least in (("--epochs", args.epochs, 1), ("--seed", args.seed, 0)):
        with reading(option):
            if value is not None and value < least:
                raise ValueError(f"must be >= {least}")
    cfg_obj = read_json(args.config, "config file")[0]
    with reading(args.config):
        cfg_obj = json_object(cfg_obj, ("corpus", "mode", "seed", "encoder", "train",
                                        "vocab_cap", "baselines", "crf", "bilstm"), "")
        if args.mode:
            cfg_obj["mode"] = args.mode
        # a "train" that is not an object is reported by config_from below
        if args.epochs is not None and isinstance(cfg_obj.setdefault("train", {}), dict):
            cfg_obj["train"]["epochs"] = args.epochs
        if args.seed is not None:
            cfg_obj["seed"] = args.seed

        seed = json_value(cfg_obj.get("seed", 0), int, "seed")
        if seed < 0:
            raise ValueError("field 'seed' must be >= 0")
        mode = json_value(cfg_obj.get("mode", "oblivious"), str, "mode")
        if mode not in MODES:
            raise ValueError(f"field 'mode' must be one of {MODES}")
        baselines = json_object(cfg_obj.get("baselines", {}), ("crf", "bilstm"),
                                "baselines")
        want_crf = json_value(baselines.get("crf", False), bool, "baselines.crf")
        want_bilstm = json_value(baselines.get("bilstm", False), bool, "baselines.bilstm")
        for name, wanted in (("crf", want_crf), ("bilstm", want_bilstm)):
            if wanted and mode != "oblivious":
                raise ValueError(f"field 'baselines.{name}' requires mode 'oblivious' "
                                 f"(the baselines read a frozen context-oblivious "
                                 f"encoder)")
        encoder_config = config_from(EncoderConfig, cfg_obj.get("encoder", {}),
                                     "encoder", init_seed=seed)
        train_config = config_from(TrainConfig, cfg_obj.get("train", {}), "train",
                                   seed=seed)
        cap = json_value(cfg_obj.get("vocab_cap", DEFAULT_VOCAB_CAP), int, "vocab_cap")
        if cap < 1:
            raise ValueError("field 'vocab_cap' must be >= 1")
        crf_obj = json_object(cfg_obj.get("crf", {}), ("l2",), "crf")
        l2 = json_value(crf_obj.get("l2", 0.01), float, "crf.l2")
        check_l2(l2)
        bl_obj = json_object(cfg_obj.get("bilstm", {}), ("hidden_dim",), "bilstm")
        corpus = cfg_obj.get("corpus")
        if not isinstance(corpus, str):
            raise ValueError("field 'corpus' must be a manifest path")
        # relative to the config's directory; an absolute path stays absolute
        manifest = Path(args.config).parent / corpus
        split = load_corpus(manifest, ("train", "validation"))
        check_max_len(encoder_config, split.vocabulary)
        if (want_crf or want_bilstm) and split.vocabulary.label_mode != MULTICLASS:
            raise ValueError("fields 'baselines.crf' and 'baselines.bilstm' need a "
                             "multiclass corpus")
        if want_bilstm:  # it reads the encoder's n scores per page
            n = split.vocabulary.n
            bl_config = config_from(BiLstmConfig, bl_obj, "bilstm", input_dim=n,
                                    n_classes=n, init_seed=seed)

    run_id = args.run_id or f"train-{config_hash(cfg_obj)[:12]}"
    outdir = Path(args.outdir) / run_id
    with writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    provenance = provenance_for("train", cfg_obj, seed)

    started = time.perf_counter()
    # the train split is tokenized once, for the vocabulary and the encoder;
    # a collection frequency counts the split's tokens as one sequence
    train_tokens = split_tokens(split.train)
    with reading(manifest):  # a train split without a token
        vocab = fit_vocabulary((train_tokens.flat(),), cap)
    codec = TokenCodec(split.vocabulary, vocab)
    train = encode_split(train_tokens, codec, encoder_config.max_len)
    val = encode_split(split_tokens(split.validation), codec, encoder_config.max_len)
    encode_seconds = time.perf_counter() - started
    params, report = train_encoder(encoder_config, train, train_config,
                                   recurrent=(mode == "recurrent"), val=val)
    tick = time.perf_counter()
    ckpt = checkpoint_payload(params, encoder_config, codec, mode=mode)
    ckpt["provenance"] = provenance
    _save(outdir / "checkpoint.json", ckpt)
    write_json(outdir / "report.json",
               {"provenance": provenance, **report.to_payload()})
    # wall clock by stage; encode covers tokenizing, the vocabulary and the
    # id matrices of both splits
    timings = {f"{stage}_seconds": seconds
               for stage, seconds in report.stage_seconds.items()}
    timings["encode_seconds"] += encode_seconds
    timings["checkpoint_seconds"] = time.perf_counter() - tick
    timings["train_seconds"] = report.wall_clock_seconds
    golds, offsets = split.train.gold.argmax(axis=1), split.train.offsets

    if want_crf or want_bilstm:
        # both baselines read the frozen encoder's train-split emissions
        tick = time.perf_counter()
        emissions = emissions_from_logits(infer_split(
            params, train, encoder_config, recurrent=False).scores)
        timings["emissions_seconds"] = time.perf_counter() - tick

    if want_crf:
        tick = time.perf_counter()
        fit = crf_fit(emissions, golds, offsets, l2=l2)
        crf_payload = {
            "kind": "crf",
            "format": CHECKPOINT_FORMAT,
            "l2": l2,
            "transition": fit.model.transition.tolist(),
            "start": fit.model.start.tolist(),
            "emission_scale": fit.model.emission_scale,
            "converged": fit.converged,
            "iterations": fit.iterations,
            "projected_gradient_max": fit.projected_gradient_max,
            "encoder": ckpt,
            "provenance": provenance,
        }
        _save(outdir / "crf.json", crf_payload)
        timings["crf_seconds"] = time.perf_counter() - tick

    if want_bilstm:
        tick = time.perf_counter()
        bl_params, bl_report = bilstm_train(emissions, golds, offsets, bl_config,
                                            train_config)
        _save(outdir / "bilstm.json", {
            "kind": "bilstm",
            "format": CHECKPOINT_FORMAT,
            # its input and class counts are the embedded encoder's classes
            "config": {"hidden_dim": bl_config.hidden_dim,
                       "init_seed": bl_config.init_seed},
            "params": {k: float_block(v) for k, v in sorted(bl_params.items())},
            "encoder": ckpt,
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


def _crf_head(payload: dict, n: int):
    """The Viterbi decoder of a CRF checkpoint over ``n`` classes: it keeps
    the encoder's scores and decides each page's class."""
    row = tuple[(float,) * n]  # a list of n numbers
    model = CrfModel(json_value(payload["transition"], tuple[(row,) * n], "transition"),
                     json_value(payload["start"], row, "start"),
                     json_value(payload["emission_scale"], float, "emission_scale"))

    def head(emissions, offsets):
        return None, crf_viterbi(model, emissions, offsets)[0]
    return head


def _bilstm_head(payload: dict, n: int):
    """The BiLSTM of a checkpoint over ``n`` classes: it reads and scores
    the encoder's ``n`` classes, and decides the argmax."""
    config = config_from(
        BiLstmConfig, json_object(payload["config"], ("hidden_dim", "init_seed"),
                                  "config"),
        "config", complete=True, input_dim=n, n_classes=n)
    shapes = bilstm_shapes(config)
    params = read_params(json_object(payload["params"], shapes, "params", shapes), shapes)

    def head(emissions, offsets):
        scores = bilstm_forward(params, emissions, offsets)
        return scores, scores.argmax(axis=1)
    return head


# each baseline kind: its head, and the top-level keys its ``train`` writes
_HEADS = {
    "crf": (_crf_head, ("kind", "format", "l2", "transition", "start",
                        "emission_scale", "converged", "iterations",
                        "projected_gradient_max", "encoder", "provenance")),
    "bilstm": (_bilstm_head, ("kind", "format", "config", "params", "encoder",
                              "provenance")),
}


def _restore_model(payload):
    """The class vocabulary and the decoder (documents -> traces) of a
    checkpoint payload of any kind.  Kind, format, fields and their JSON
    types, modes, class lists and parameter shapes are checked here: a
    missing key, a key its kind does not write or a value of another type
    is a ValueError that names the field.

    Every kind decodes one way: one encoder, the payload itself or the
    context-oblivious one a CRF or BiLSTM checkpoint embeds, runs over the
    split once; a baseline's head then reads only that trace's emissions and
    document offsets, and writes the decided labels (and, for the BiLSTM, its
    own scores)."""
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    kind = payload.get("kind")
    if kind not in ("encoder", *_HEADS):
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    head = None
    if kind == "encoder":
        params, config, codec, recurrent = restore_encoder(payload)
    else:
        make_head, keys = _HEADS[kind]
        check_format(payload, kind)
        # every key but the provenance, which ``_trained_seed`` reads
        json_object(payload, keys, "", [key for key in keys if key != "provenance"])
        params, config, codec, recurrent = restore_encoder(payload["encoder"],
                                                           "encoder")
        if recurrent:
            raise ValueError("field 'encoder' must be context-oblivious")
        head = make_head(payload, codec.n_classes)

    def decode(docs):
        split = encode_split(split_tokens(docs), codec, config.max_len)
        trace = infer_split(params, split, config, recurrent)
        if head is not None:
            scores, paths = head(emissions_from_logits(trace.scores), trace.offsets)
            if scores is not None:
                trace.scores[:] = scores
            trace.labels[:] = np.eye(codec.n_classes, dtype=bool)[paths]
        return trace
    return codec.type_vocab, decode


def _trained_seed(payload: dict) -> int:
    """The seed a checkpoint's model was trained with, as the provenance
    that every ``train`` output records names it; it must be a non-negative
    int."""
    provenance = payload.get("provenance")
    seed = provenance.get("seed") if isinstance(provenance, dict) else None
    if type(seed) is not int or seed < 0:
        raise ValueError("field 'provenance.seed' must be a non-negative int")
    return seed


def cmd_infer(args) -> int:
    split = load_corpus(args.manifest, (args.split,))
    docs = split.split(args.split)
    payload, digest = load_checkpoint(args.checkpoint)
    with reading(args.checkpoint):
        vocabulary, decode = _restore_model(payload)
        if vocabulary != split.vocabulary:
            raise ValueError("classes or label mode do not match the corpus manifest")
        seed = _trained_seed(payload)
        # a score that overflows, or is not a number, is refused below
        with np.errstate(all="ignore"):
            trace = decode(docs)
        bad = np.flatnonzero(~np.isfinite(trace.scores).all(axis=1))
        if bad.size:
            raise ValueError(f"{trace.docs.page_name(int(bad[0]))} has a score that "
                             f"is not finite")
    ref = {"checkpoint_sha256": digest, "split": args.split}
    provenance = provenance_for("infer", ref, seed)
    with writing(args.out):
        write_traces(trace, args.out, provenance=provenance)
    print(f"wrote {args.out} ({len(trace.scores)} pages, "
          f"{len(trace.docs)} documents)")
    return 0


# ---------------------------------------------------------------------------
# eval / compare
# ---------------------------------------------------------------------------


def _read_split_traces(path, docs):
    """The trace of ``docs`` in the trace file ``path``, and the SHA-256 of
    its bytes."""
    text, digest = read_input(path, "trace file")
    return read_traces(path, docs, text), digest


def cmd_eval(args) -> int:
    split = load_corpus(args.manifest, (args.split,))
    docs = split.split(args.split)
    trace, digest = _read_split_traces(args.traces, docs)
    scores = score(trace.labels, docs.gold, split.vocabulary)
    print(format_score_table(scores, split.vocabulary))
    if args.out:
        ref = {"traces_sha256": digest, "split": args.split}
        write_json(Path(args.out), {
            "provenance": provenance_for("eval", ref, 0),
            **scores_payload(scores, split.vocabulary),
        })
    return 0


def cmd_compare(args) -> int:
    split = load_corpus(args.manifest, (args.split,))
    docs = split.split(args.split)
    a, digest_a = _read_split_traces(args.traces_a, docs)
    b, digest_b = _read_split_traces(args.traces_b, docs)
    report = compare_traces(a.labels, b.labels, docs.gold, split.vocabulary)
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
        ref = {"traces_a_sha256": digest_a, "traces_b_sha256": digest_b,
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
    p.add_argument("--mode", choices=MODES, default=None,
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
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: drop it, so that the interpreter does not
        # flush what is left into the closed pipe at exit
        sys.stdout = None
        return 141
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
