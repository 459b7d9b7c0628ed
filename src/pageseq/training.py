"""Optimization: linear warmup/decay learning-rate schedule, Adam with
decoupled weight decay, and the deterministic training loop shared by the
context-oblivious and recurrent setups (they differ only in the context
tokens of the training examples).  ``train_encoder`` reads splits as
``recurrence.encode_split`` returns them, each encoded once by its caller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, Scratch, init_params, loss_and_grad
from .evaluation import score
from . import recurrence
from .recurrence import EncodedSplit, infer_split, row_lengths


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
        if not 0 < self.peak_lr < math.inf:
            raise ValueError("peak_lr must be positive and finite")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be >= 0 and finite")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not (0.0 <= self.betas[0] < 1.0 and 0.0 <= self.betas[1] < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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
    """AdamW's step count and moments over one contiguous float64 buffer.

    ``flat`` has six rows of one element per parameter entry, the parameters
    laid end to end in sorted name order: the parameters, ``m``, ``v``, the
    gradient, and two work rows.  ``params``, ``m`` and ``v`` map each name to
    its view into the first three rows, so an update is one pass of each
    operation over the whole vector, not one per parameter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    params: dict[str, np.ndarray]
    flat: np.ndarray

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        """A fresh state holding ``params``: each value is copied into the
        buffer and ``params[name]`` rebound to its view there."""
        names = sorted(params)
        ends = np.cumsum([params[name].size for name in names]).tolist()
        flat = np.zeros((6, ends[-1]))
        np.concatenate([params[name] for name in names], axis=None, out=flat[0])

        def views(row):
            return {name: row[end - params[name].size:end].reshape(params[name].shape)
                    for name, end in zip(names, ends)}

        held = views(flat[0])
        params.update(held)
        return cls(step=0, m=views(flat[1]), v=views(flat[2]), params=held, flat=flat)


def optimizer_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   state: AdamState, lr: float, cfg: TrainConfig) -> None:
    """One in-place AdamW update of the parameters ``state`` holds:
    bias-corrected moments, decoupled decay applied to the pre-update
    parameters (never through the gradient).  Every check runs before
    anything changes.  The gradients are copied into the state's buffer, and
    each operation then runs once over it, in the order
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g``,
    ``p -= lr ((m / bias1) / (sqrt(v / bias2) + eps) + wd p)``."""
    unmatched = sorted(params.keys() ^ grads.keys())
    if unmatched:
        name = unmatched[0]
        raise ValueError(f"no gradient for parameter {name}" if name in params
                         else f"gradient for unknown parameter {name}")
    for name in sorted(params.keys() | state.params.keys()):
        if params.get(name) is not state.params.get(name):
            raise ValueError(f"parameter {name} is not the one the optimizer holds")
        if grads[name].shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    p, m, v, g, term, update = state.flat
    np.concatenate([grads[name] for name in state.params], axis=None, out=g)
    if not np.isfinite(g).all():
        name = next(name for name in state.params if not np.isfinite(grads[name]).all())
        raise ValueError(f"non-finite gradient for {name}")
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    np.multiply(g, 1.0 - b1, out=term)
    m *= b1
    m += term
    np.multiply(g, 1.0 - b2, out=term)
    term *= g
    v *= b2
    v += term
    np.divide(v, bias2, out=term)                       # sqrt(v_hat) + eps
    np.sqrt(term, out=term)
    term += cfg.epsilon
    np.divide(m, bias1, out=update)                     # m_hat / ...
    update /= term
    if cfg.weight_decay:
        update += np.multiply(p, cfg.weight_decay, out=term)
    update *= lr
    p -= update


@dataclass
class TrainReport:
    step_losses: list[float]
    step_lrs: list[float]
    epoch_metrics: list[dict]
    total_steps: int
    wall_clock_seconds: float = 0.0
    # wall-clock seconds by stage: "steps" (losses, gradients and updates),
    # "validation" (end-of-epoch decodes) and, from train_encoder, "encode"
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def to_payload(self) -> dict:
        """Deterministic artifact body; wall clock deliberately excluded so
        re-runs are bit-identical (timing goes to a sidecar)."""
        return {
            "total_steps": self.total_steps,
            "step_losses": self.step_losses,
            "step_lrs": self.step_lrs,
            "epoch_metrics": self.epoch_metrics,
        }


def fit_adamw(params: dict[str, np.ndarray], n_examples: int, batch_loss,
              cfg: TrainConfig, end_epoch=None) -> TrainReport:
    """Train ``params`` in place with AdamW on the warmup/decay schedule, in
    batches of example indices shuffled by ``default_rng((cfg.seed, epoch))``.
    ``batch_loss(rows, epoch)`` gives one batch's loss and gradient;
    ``end_epoch(epoch)``, if given, metrics to record per epoch."""
    started = time.perf_counter()
    total_steps = cfg.epochs * math.ceil(n_examples / cfg.batch_size)
    state = AdamState.for_params(params)
    step_losses: list[float] = []
    step_lrs: list[float] = []
    epoch_metrics: list[dict] = []
    validation_seconds = 0.0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(n_examples)
        epoch_losses = []
        for start in range(0, n_examples, cfg.batch_size):
            step = len(step_losses)
            try:
                loss, grads = batch_loss(order[start:start + cfg.batch_size], epoch)
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at optimizer step {step}: {exc}") from exc
            lr = lr_at(step, total_steps, cfg)
            optimizer_step(params, grads, state, lr, cfg)
            step_losses.append(loss)
            step_lrs.append(lr)
            epoch_losses.append(loss)
        metrics = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        if end_epoch is not None:
            tick = time.perf_counter()
            metrics.update(end_epoch(epoch))
            validation_seconds += time.perf_counter() - tick
        epoch_metrics.append(metrics)
    assert len(step_losses) == total_steps
    seconds = time.perf_counter() - started
    return TrainReport(step_losses=step_losses, step_lrs=step_lrs,
                       epoch_metrics=epoch_metrics, total_steps=total_steps,
                       wall_clock_seconds=seconds,
                       stage_seconds={"steps": seconds - validation_seconds,
                                      "validation": validation_seconds})


def train_encoder(encoder_config: EncoderConfig, train: EncodedSplit,
                  cfg: TrainConfig, recurrent: bool, val: EncodedSplit | None = None
                  ) -> tuple[dict, TrainReport]:
    """Train one encoder on ``train``; deterministic given the two configs.

    ``recurrent=True`` trains on teacher-forced examples (gold previous-page
    context tokens); ``recurrent=False`` on plain per-page examples.  Nothing
    else differs between the two paths.  Both splits must be encoded for
    ``encoder_config.max_len``, and ``val`` by ``train``'s codec; ``val``,
    unless None or without documents, is decoded after every epoch.  The
    optimizer steps and the validation decodes share one work pool.
    """
    codec = train.codec
    if val is not None and val.codec is not codec:
        raise ValueError("the validation split was encoded by another codec")
    for split in filter(None, (train, val)):
        split.check_fits(encoder_config)
    started = time.perf_counter()
    # looked up on the module, so that perfbench's tracer sees the call
    ids, targets = recurrence.page_examples(train, recurrent)
    if len(ids) == 0:
        raise ValueError("no training pages")
    lengths = row_lengths(ids)
    encode_seconds = time.perf_counter() - started
    params = init_params(encoder_config, codec)
    scratch = Scratch()
    dropout_rngs = [np.random.default_rng((cfg.seed, 7919, epoch))
                    if encoder_config.dropout > 0 else None
                    for epoch in range(cfg.epochs)]

    def batch_loss(rows, epoch):
        return loss_and_grad(params, ids[rows, :lengths[rows].max()], targets[rows],
                             encoder_config, codec.type_vocab.label_mode,
                             dropout_rngs[epoch], scratch)

    def validate(epoch):
        golds = val.docs.gold
        preds = infer_split(params, val, encoder_config, recurrent, scratch).labels
        scored = score(preds, golds, codec.type_vocab)
        return {"val_accuracy": int((preds == golds).all(axis=1).sum()) / len(golds),
                "val_macro_f1": scored.macro_f1,
                "val_weighted_f1": scored.weighted_f1}

    report = fit_adamw(params, len(ids), batch_loss, cfg,
                       validate if val is not None and val.docs else None)
    report.stage_seconds["encode"] = encode_seconds
    return params, report
