"""Optimization: linear warmup/decay learning-rate schedule, Adam with
decoupled weight decay, and the deterministic training loop shared by the
context-oblivious and recurrent setups (they differ only in how batches are
built).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import DocumentSequence, TypeVocabulary
from .encoder import EncoderConfig, TokenCodec, init_params, loss_and_grad
from .evaluation import gold_labels, score
from .recurrence import build_plain_batches, build_teacher_forced_batches, infer_split


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the failing optimizer step index."""


@dataclass(frozen=True)
class TrainConfig:
    """Training recipe.  ``published()`` gives the standard pre-trained-model
    fine-tuning settings (6 epochs, batch 32, peak 2e-5, 10% warmup); the
    constructor default peak learning rate suits from-scratch encoders."""

    epochs: int = 6
    batch_size: int = 32
    peak_lr: float = 1e-3
    warmup_fraction: float = 0.10
    weight_decay: float = 0.0
    betas: tuple[float, float] = (0.9, 0.999)
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not (0.0 <= self.betas[0] < 1.0 and 0.0 <= self.betas[1] < 1.0):
            raise ValueError("betas must be in [0, 1)")

    @classmethod
    def published(cls, **overrides) -> "TrainConfig":
        defaults = dict(epochs=6, batch_size=32, peak_lr=2e-5, warmup_fraction=0.10)
        defaults.update(overrides)
        return cls(**defaults)


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> peak over round(warmup_fraction * total_steps) steps,
    then linear decay peak -> 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside 0..{total_steps}")
    warmup = round(cfg.warmup_fraction * total_steps)
    if step < warmup:
        return cfg.peak_lr * step / warmup
    if total_steps == warmup:
        return cfg.peak_lr if step == warmup else 0.0
    return cfg.peak_lr * (total_steps - step) / (total_steps - warmup)


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(step=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def optimizer_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """One in-place AdamW update: bias-corrected moments, decoupled decay
    applied to the pre-update parameters (never through the gradient)."""
    for name in sorted(params):
        if grads[name].shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(grads[name])):
            raise ValueError(f"non-finite gradient for {name}")
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name in sorted(params):
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        update = m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        if cfg.weight_decay:
            update = update + cfg.weight_decay * params[name]
        params[name] -= lr * update


@dataclass
class TrainReport:
    step_losses: list[float]
    step_lrs: list[float]
    epoch_metrics: list[dict]
    total_steps: int
    wall_clock_seconds: float = 0.0

    def to_payload(self) -> dict:
        """Deterministic artifact body; wall clock deliberately excluded so
        re-runs are bit-identical (timing goes to a sidecar)."""
        return {
            "total_steps": self.total_steps,
            "step_losses": self.step_losses,
            "step_lrs": self.step_lrs,
            "epoch_metrics": self.epoch_metrics,
        }


def _evaluate_split(params, docs, config, codec, label_mode, recurrent,
                    vocabulary: TypeVocabulary):
    traces = infer_split(params, docs, config, codec, label_mode, recurrent)
    preds = [labels for trace in traces for labels in trace.labels()]
    golds = gold_labels(docs)
    scored = score(preds, golds, vocabulary, label_mode)
    exact = sum(1 for p, g in zip(preds, golds) if p == g)
    return {
        "accuracy": exact / len(golds),
        "macro_f1": scored.macro_f1,
        "weighted_f1": scored.weighted_f1,
    }


def train_encoder(encoder_config: EncoderConfig, codec: TokenCodec,
                  train_docs: Sequence[DocumentSequence], label_mode: str,
                  cfg: TrainConfig, recurrent: bool,
                  val_docs: Sequence[DocumentSequence] | None = None
                  ) -> tuple[dict, TrainReport]:
    """Train one encoder; deterministic given the two configs.

    ``recurrent=True`` trains on teacher-forced batches (gold previous-page
    context tokens); ``recurrent=False`` on plain per-page batches.  Nothing
    else differs between the two paths.
    """
    started = time.perf_counter()
    n_examples = sum(len(doc) for doc in train_docs)
    if n_examples == 0:
        raise ValueError("no training pages")
    steps_per_epoch = math.ceil(n_examples / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    build = build_teacher_forced_batches if recurrent else build_plain_batches

    params = init_params(encoder_config, codec)
    state = AdamState.for_params(params)
    vocabulary = codec.type_vocab
    step_losses: list[float] = []
    step_lrs: list[float] = []
    epoch_metrics: list[dict] = []
    global_step = 0
    for epoch in range(cfg.epochs):
        shuffle_rng = np.random.default_rng((cfg.seed, epoch))
        dropout_rng = (np.random.default_rng((cfg.seed, 7919, epoch))
                       if encoder_config.dropout > 0 else None)
        batches = build(train_docs, cfg.batch_size, codec,
                        encoder_config.max_len, shuffle_rng)
        epoch_losses = []
        for batch in batches:
            try:
                loss, grads = loss_and_grad(params, batch, encoder_config,
                                            label_mode, dropout_rng)
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at optimizer step {global_step}: {exc}"
                ) from exc
            lr = lr_at(global_step, total_steps, cfg)
            optimizer_step(params, grads, state, lr, cfg)
            step_losses.append(loss)
            step_lrs.append(lr)
            epoch_losses.append(loss)
            global_step += 1
        metrics = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        if val_docs:
            val = _evaluate_split(params, val_docs, encoder_config, codec,
                                  label_mode, recurrent, vocabulary)
            metrics.update({f"val_{k}": v for k, v in val.items()})
        epoch_metrics.append(metrics)
    report = TrainReport(
        step_losses=step_losses,
        step_lrs=step_lrs,
        epoch_metrics=epoch_metrics,
        total_steps=total_steps,
        wall_clock_seconds=time.perf_counter() - started,
    )
    assert len(step_losses) == total_steps
    return params, report
