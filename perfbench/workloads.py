"""The benchmark's workloads and the ``pageseq`` commands each one runs.

A workload is a synthetic-corpus config plus an experiment config; the
workload seed becomes both the corpus seed and the training seed, so the
same seed always gives the same inputs.  The program sees only the config
files and the corpus written here, never the seed as such.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import CorpusFacts

SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict                 # `pageseq synth` config without its seed
    encoder: dict
    train: dict
    crf: dict | None = None     # None: the workload trains no CRF baseline
    # the calibration jobs (calibration.py) whose speeds scale the timings
    # of its encoder's `train` and of its encoder's `infer`
    train_work: str = "python"
    infer_work: str = "python"

    @property
    def docs_per_split(self) -> dict[str, int]:
        return dict(zip(SPLITS, self.synth["docs_per_split"]))


# The paper's synthetic experiment with the README walkthrough's encoder and
# CRF.  The CRF fit dominates its run while encoder work is tiny, so the
# linear encoder's per-page Python overhead (tokenizing, augmenting, one
# forward call per page) shows directly in train and infer throughput.  The
# README's BiLSTM baseline is left out: its `fit_svd` raises ConvergenceError
# on this corpus for most seeds, and a workload must be one on which no
# operation fails (see NOTES.md, "Known defect left out").
ACCEPTANCE = Workload(
    name="acceptance",
    synth={"n_classes": 4, "self_transition": 0.85, "ambiguity": 0.8,
           "pages_per_doc": [6, 14], "tokens_per_page": [1, 6],
           "class_vocab_size": 25, "shared_vocab_size": 300,
           "docs_per_split": [100, 30, 300]},
    encoder={"variant": "linear", "d": 32, "max_len": 16},
    train={"epochs": 5, "batch_size": 32, "peak_lr": 0.02},
    crf={"l2": 0.01},
)

# The tiny transformer on long, under-determined pages (max_len 40 truncates
# 8-40 token pages) in ragged documents of 1-30 pages.  Encoder
# forward/backward and AdamW dominate; the CRF, SVD and BiLSTM never run, so
# a change on their side must read "no change" here.  The splits are half
# and a third of the acceptance ones so that train and infer (about 6 s and
# 2 s each) run several times in one run: single 12 s samples spread too
# much on a shared machine.
TRANSFORMER = Workload(
    name="transformer",
    synth={"n_classes": 4, "self_transition": 0.85, "ambiguity": 0.95,
           "pages_per_doc": [1, 30], "tokens_per_page": [8, 40],
           "class_vocab_size": 25, "shared_vocab_size": 300,
           "docs_per_split": [50, 15, 100]},
    encoder={"variant": "tiny-transformer", "d": 32, "n_layers": 2,
             "n_heads": 2, "max_len": 40},
    train={"epochs": 3, "batch_size": 32, "peak_lr": 0.003},
    train_work="batch",
    infer_work="page",
)

WORKLOADS = {w.name: w for w in (ACCEPTANCE, TRANSFORMER)}


@dataclass(frozen=True)
class Op:
    """One `pageseq` command line and the check of what it wrote."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]   # hashed after every success; must never change
    check: Callable[[CorpusFacts | None], object]  # raises CheckFailed
    repeat: bool = False        # rerun while the run has time left

    @property
    def command(self) -> str:
        return self.argv[0]


class Layout:
    """Where one pass of a workload keeps its configs and outputs."""

    def __init__(self, root: Path):
        self.root = root
        self.configs = root / "configs"
        self.corpus = root / "corpus"
        self.manifest = self.corpus / "manifest.json"
        self.runs = root / "runs"
        self.traces = root / "traces"
        self.evals = root / "evals"

    def make(self) -> None:
        for d in (self.configs, self.runs, self.traces, self.evals):
            d.mkdir(parents=True, exist_ok=True)


def write_configs(workload: Workload, seed: int, layout: Layout) -> None:
    """Config files for `synth` and every `train`; the corpus path is
    relative so two passes in different directories hash identically."""
    layout.make()
    experiment = {"corpus": "../corpus/manifest.json", "seed": seed,
                  "encoder": workload.encoder, "train": workload.train}
    configs = {
        "synth": {**workload.synth, "seed": seed},
        "recurrent": {**experiment, "mode": "recurrent"},
        "oblivious": {**experiment, "mode": "oblivious"},
    }
    if workload.crf is not None:
        configs["oblivious"].update(baselines={"crf": True}, crf=workload.crf)
    for name, cfg in configs.items():
        (layout.configs / f"{name}.json").write_text(
            json.dumps(cfg, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def synth_op(workload: Workload, layout: Layout) -> Op:
    """`synth`; its check also returns the facts the other checks need."""
    return Op(
        name="synth",
        argv=("synth", "--config", str(layout.configs / "synth.json"),
              "--outdir", str(layout.root), "--run-id", layout.corpus.name),
        outputs=tuple(layout.corpus / f for f in
                      ("manifest.json", "train.jsonl", "validation.jsonl",
                       "test.jsonl")),
        check=lambda _facts: checks.read_corpus(layout.corpus,
                                                workload.docs_per_split),
        repeat=True,
    )


def _train_op(workload: Workload, layout: Layout, name: str, config: str,
              baselines: tuple[str, ...], repeat: bool) -> Op:
    run_dir = layout.runs / config
    files = ["checkpoint.json", "report.json"]
    if "crf" in baselines:
        files.append("crf.json")
    return Op(
        name=name,
        argv=("train", "--config", str(layout.configs / f"{config}.json"),
              "--outdir", str(layout.runs), "--run-id", config),
        outputs=tuple(run_dir / f for f in files),
        check=functools.partial(checks.check_train, run_dir=run_dir,
                                epochs=workload.train["epochs"],
                                batch_size=workload.train["batch_size"],
                                baselines=baselines),
        repeat=repeat,
    )


def pipeline(workload: Workload, layout: Layout) -> list[Op]:
    """Every command after `synth`, in dependency order: train, infer on the
    test split with each checkpoint, eval each trace, compare recurrent vs
    oblivious."""
    obl_baselines = ("crf",) if workload.crf is not None else ()
    ops = [
        _train_op(workload, layout, "train_recurrent", "recurrent", (), True),
        _train_op(workload, layout, "train_oblivious", "oblivious",
                  obl_baselines, False),
    ]
    checkpoints = {"recurrent": layout.runs / "recurrent" / "checkpoint.json",
                   "oblivious": layout.runs / "oblivious" / "checkpoint.json"}
    if workload.crf is not None:
        checkpoints["crf"] = layout.runs / "oblivious" / "crf.json"
    manifest = str(layout.manifest)
    for model, checkpoint in checkpoints.items():
        trace = layout.traces / f"{model}.jsonl"
        ops.append(Op(
            name=f"infer_{model}",
            argv=("infer", "--checkpoint", str(checkpoint), "--manifest", manifest,
                  "--split", "test", "--out", str(trace)),
            outputs=(trace,),
            check=functools.partial(checks.check_infer, trace_path=trace,
                                    recurrent=(model == "recurrent")),
            repeat=True,
        ))
    for model in checkpoints:
        trace = layout.traces / f"{model}.jsonl"
        report = layout.evals / f"{model}.json"
        ops.append(Op(
            name=f"eval_{model}",
            argv=("eval", "--traces", str(trace), "--manifest", manifest,
                  "--split", "test", "--out", str(report)),
            outputs=(report,),
            check=functools.partial(checks.check_eval, eval_path=report),
        ))
    compare = layout.root / "compare.json"
    ops.append(Op(
        name="compare",
        argv=("compare", "--traces-a", str(layout.traces / "recurrent.jsonl"),
              "--traces-b", str(layout.traces / "oblivious.jsonl"),
              "--manifest", manifest, "--split", "test", "--out", str(compare)),
        outputs=(compare,),
        check=functools.partial(checks.check_compare, compare_path=compare),
        repeat=True,
    ))
    return ops

