"""Trainable per-page scoring models over token id sequences.

Two variants share one interface: a linear bag-of-embeddings scorer and a
tiny pre-LN transformer read out at the CLS position.  Both are pure numpy
with handwritten backward passes, so gradients are exact for the forward
definition and checkable against finite differences.

Token id layout (one combined table of size V + n + 4):

    0 PAD   1 UNK   2 CLS   3 first-page marker
    4 .. n+3          class special tokens
    n+4 .. n+3+V      text tokens
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit, log_softmax

from .corpus import MULTICLASS, TypeVocabulary

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
FIRST_ID = 3
N_RESERVED = 4

LINEAR = "linear"
TINY_TRANSFORMER = "tiny-transformer"


class TokenCodec:
    """Maps control tokens, class special tokens, and text tokens to dense ids."""

    def __init__(self, type_vocab: TypeVocabulary, text_tokens: Sequence[str]):
        self.type_vocab = type_vocab
        self.text_tokens = tuple(text_tokens)
        self._text_ids = {
            tok: N_RESERVED + type_vocab.n + i
            for i, tok in enumerate(self.text_tokens)
        }

    @property
    def n_classes(self) -> int:
        return self.type_vocab.n

    @property
    def n_ids(self) -> int:
        return N_RESERVED + self.type_vocab.n + len(self.text_tokens)

    def class_token_id(self, c: int) -> int:
        if not 0 <= c < self.type_vocab.n:
            raise ValueError(f"class index {c} out of range")
        return N_RESERVED + c

    def text_token_id(self, token: str) -> int:
        return self._text_ids.get(token, UNK_ID)

    def is_control_id(self, i: int) -> bool:
        """Control ids: CLS, the first-page marker, and class special tokens."""
        return i == CLS_ID or i == FIRST_ID or \
            N_RESERVED <= i < N_RESERVED + self.type_vocab.n

    def id_to_string(self, i: int) -> str:
        if i == PAD_ID:
            return "[PAD]"
        if i == UNK_ID:
            return "[UNK]"
        if i == CLS_ID:
            return "[CLS]"
        if i == FIRST_ID:
            return self.type_vocab.first_page_token
        if i < N_RESERVED + self.type_vocab.n:
            return self.type_vocab.special_token(i - N_RESERVED)
        return self.text_tokens[i - N_RESERVED - self.type_vocab.n]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_string(int(i)) for i in ids if int(i) != PAD_ID]


@dataclass(eq=False)
class TokenSequence:
    """PAD-padded id sequence of fixed width ``max_len``."""

    ids: np.ndarray
    length: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.ndim != 1 or self.length > self.ids.shape[0]:
            raise ValueError("ids must be 1-D with length <= max_len")
        if np.any(self.ids[self.length:] != PAD_ID):
            raise ValueError("padding tail must be PAD")


def check_sequence(seq: TokenSequence, codec: TokenCodec) -> None:
    """Assert the structural invariant: CLS first, then an optional block of
    control tokens, and control tokens nowhere else."""
    ids = seq.ids[:seq.length].tolist()
    if not ids or ids[0] != CLS_ID:
        raise ValueError("sequence must start with CLS")
    i = 1
    while i < len(ids) and codec.is_control_id(ids[i]) and ids[i] != CLS_ID:
        i += 1
    for j in range(i, len(ids)):
        if codec.is_control_id(ids[j]):
            raise ValueError(f"control token at position {j}, outside the front block")


@dataclass(frozen=True)
class EncoderConfig:
    variant: str = LINEAR
    d: int = 32
    n_layers: int = 2
    n_heads: int = 2
    max_len: int = 64
    dropout: float = 0.0
    init_seed: int = 0

    def __post_init__(self):
        if self.variant not in (LINEAR, TINY_TRANSFORMER):
            raise ValueError(f"unknown encoder variant {self.variant!r}")
        if self.d < 1 or self.max_len < 3:
            raise ValueError("d and max_len must be positive (max_len >= 3)")
        if self.variant == TINY_TRANSFORMER and self.d % self.n_heads != 0:
            raise ValueError("d must be divisible by n_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def init_params(config: EncoderConfig, codec: TokenCodec) -> dict[str, np.ndarray]:
    """Seeded parameter initialization; shapes follow the config and codec."""
    if config.max_len < codec.n_classes + 2:
        raise ValueError("max_len must be >= n_classes + 2 (CLS plus special tokens)")
    rng = np.random.default_rng(config.init_seed)
    d, n = config.d, codec.n_classes
    scale = 0.02
    params = {
        "emb": rng.normal(0.0, scale, size=(codec.n_ids, d)),
        "head_w": rng.normal(0.0, scale, size=(d, n)),
        "head_b": np.zeros(n),
    }
    if config.variant == TINY_TRANSFORMER:
        params["pos"] = rng.normal(0.0, scale, size=(config.max_len, d))
        for layer in range(config.n_layers):
            p = f"layer{layer}/"
            params[p + "ln1_g"] = np.ones(d)
            params[p + "ln1_b"] = np.zeros(d)
            for name in ("wq", "wk", "wv", "wo"):
                params[p + name] = rng.normal(0.0, scale, size=(d, d))
                params[p + name[1] + "b"] = np.zeros(d)  # qb, kb, vb, ob
            params[p + "ln2_g"] = np.ones(d)
            params[p + "ln2_b"] = np.zeros(d)
            params[p + "w1"] = rng.normal(0.0, scale, size=(d, 4 * d))
            params[p + "b1"] = np.zeros(4 * d)
            params[p + "w2"] = rng.normal(0.0, scale, size=(4 * d, d))
            params[p + "b2"] = np.zeros(d)
        params["lnf_g"] = np.ones(d)
        params["lnf_b"] = np.zeros(d)
    return params


# ---------------------------------------------------------------------------
# Forward / backward primitives
# ---------------------------------------------------------------------------

_LN_EPS = 1e-5
_MASK_NEG = -1e30


def _layernorm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean1 - xhat * mean2)
    return dx, dg, db


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_fwd(x):
    inner = _GELU_C * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t), (x, t)


def _gelu_bwd(dy, cache):
    x, t = cache
    dinner = (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dinner)


def _stack_batch(sequences: Sequence[TokenSequence]):
    ids = np.stack([s.ids for s in sequences])
    width = max(int(s.length) for s in sequences)
    return ids[:, :width]


def _linear_fwd(params, ids):
    """Mean of content embeddings (everything but CLS and PAD) through the head."""
    content = (ids != PAD_ID)
    content[:, 0] = False  # CLS carries no content in the bag variant
    emb = params["emb"][ids]                            # (B, L, d)
    weights = content.astype(np.float64)
    counts = np.maximum(weights.sum(axis=1), 1.0)       # (B,)
    bag = np.einsum("bld,bl->bd", emb, weights) / counts[:, None]
    scores = bag @ params["head_w"] + params["head_b"]
    return scores, (ids, weights, counts, bag)


def _linear_bwd(dscores, params, cache):
    ids, weights, counts, bag = cache
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    grads["head_w"] = bag.T @ dscores
    grads["head_b"] = dscores.sum(axis=0)
    dbag = dscores @ params["head_w"].T                 # (B, d)
    demb_pos = (dbag / counts[:, None])[:, None, :] * weights[:, :, None]
    np.add.at(grads["emb"], ids, demb_pos)
    return grads


def _attention_fwd(a, params, prefix, mask, n_heads):
    b, l, d = a.shape
    dh = d // n_heads
    q = a @ params[prefix + "wq"] + params[prefix + "qb"]
    k = a @ params[prefix + "wk"] + params[prefix + "kb"]
    v = a @ params[prefix + "wv"] + params[prefix + "vb"]

    def split(x):
        return x.reshape(b, l, n_heads, dh).transpose(0, 2, 1, 3)  # (B, H, L, dh)

    qh, kh, vh = split(q), split(k), split(v)
    logits = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dh)          # (B, H, L, L)
    logits = logits + mask[:, None, None, :]
    probs = _softmax_last(logits)
    ctx = probs @ vh                                                # (B, H, L, dh)
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, l, d)
    out = merged @ params[prefix + "wo"] + params[prefix + "ob"]
    return out, (a, qh, kh, vh, probs, merged)


def _softmax_last(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _attention_bwd(dout, params, prefix, cache, grads, n_heads):
    a, qh, kh, vh, probs, merged = cache
    b, l, d = a.shape
    dh = d // n_heads
    grads[prefix + "wo"] += merged.reshape(-1, d).T @ dout.reshape(-1, d)
    grads[prefix + "ob"] += dout.sum(axis=(0, 1))
    dmerged = dout @ params[prefix + "wo"].T
    dctx = dmerged.reshape(b, l, n_heads, dh).transpose(0, 2, 1, 3)
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    dlogits = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    dlogits /= math.sqrt(dh)
    dqh = dlogits @ kh
    dkh = dlogits.transpose(0, 1, 3, 2) @ qh

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, l, d)

    dq, dk, dv = merge(dqh), merge(dkh), merge(dvh)
    da = np.zeros_like(a)
    flat_a = a.reshape(-1, d)
    for dz, w_name, b_name in ((dq, "wq", "qb"), (dk, "wk", "kb"), (dv, "wv", "vb")):
        grads[prefix + w_name] += flat_a.T @ dz.reshape(-1, d)
        grads[prefix + b_name] += dz.sum(axis=(0, 1))
        da += dz @ params[prefix + w_name].T
    return da


def _transformer_fwd(params, ids, config, dropout_rng=None):
    b, l = ids.shape
    mask = np.where(ids == PAD_ID, _MASK_NEG, 0.0)       # (B, L) additive on keys
    x = params["emb"][ids] + params["pos"][:l]
    caches = []
    drop = config.dropout if dropout_rng is not None else 0.0
    for layer in range(config.n_layers):
        p = f"layer{layer}/"
        a, ln1_cache = _layernorm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        attn, attn_cache = _attention_fwd(a, params, p, mask, config.n_heads)
        attn, m1 = _dropout_fwd(attn, drop, dropout_rng)
        x = x + attn
        f, ln2_cache = _layernorm_fwd(x, params[p + "ln2_g"], params[p + "ln2_b"])
        h1 = f @ params[p + "w1"] + params[p + "b1"]
        u, gelu_cache = _gelu_fwd(h1)
        h2 = u @ params[p + "w2"] + params[p + "b2"]
        h2, m2 = _dropout_fwd(h2, drop, dropout_rng)
        x = x + h2
        caches.append((ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2))
    final, lnf_cache = _layernorm_fwd(x, params["lnf_g"], params["lnf_b"])
    cls = final[:, 0, :]
    scores = cls @ params["head_w"] + params["head_b"]
    return scores, (ids, caches, lnf_cache, cls, final.shape)


def _dropout_fwd(x, rate, rng):
    if rate <= 0.0 or rng is None:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def _transformer_bwd(dscores, params, cache, config):
    ids, caches, lnf_cache, cls, shape = cache
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    grads["head_w"] += cls.T @ dscores
    grads["head_b"] += dscores.sum(axis=0)
    dfinal = np.zeros(shape)
    dfinal[:, 0, :] = dscores @ params["head_w"].T
    dx, dg, db = _layernorm_bwd(dfinal, lnf_cache)
    grads["lnf_g"] += dg
    grads["lnf_b"] += db
    for layer in reversed(range(config.n_layers)):
        p = f"layer{layer}/"
        ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2 = caches[layer]
        dh2 = dx if m2 is None else dx * m2
        grads[p + "w2"] += u.reshape(-1, u.shape[-1]).T @ dh2.reshape(-1, dh2.shape[-1])
        grads[p + "b2"] += dh2.sum(axis=(0, 1))
        du = dh2 @ params[p + "w2"].T
        dh1 = _gelu_bwd(du, gelu_cache)
        grads[p + "w1"] += f.reshape(-1, f.shape[-1]).T @ dh1.reshape(-1, dh1.shape[-1])
        grads[p + "b1"] += dh1.sum(axis=(0, 1))
        df = dh1 @ params[p + "w1"].T
        dx_ln2, dg2, db2 = _layernorm_bwd(df, ln2_cache)
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += db2
        dx = dx + dx_ln2
        dattn = dx if m1 is None else dx * m1
        da = _attention_bwd(dattn, params, p, attn_cache, grads, config.n_heads)
        dx_ln1, dg1, db1 = _layernorm_bwd(da, ln1_cache)
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += db1
        dx = dx + dx_ln1
    np.add.at(grads["emb"], ids, dx)
    grads["pos"][:ids.shape[1]] += dx.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def forward_batch(params: dict, sequences: Sequence[TokenSequence],
                  config: EncoderConfig) -> np.ndarray:
    """Class score rows for a batch; deterministic (no dropout)."""
    ids = _stack_batch(sequences)
    if ids.shape[1] > config.max_len:
        raise ValueError("sequence longer than max_len")
    if config.variant == LINEAR:
        scores, _ = _linear_fwd(params, ids)
    else:
        scores, _ = _transformer_fwd(params, ids, config)
    return scores


def forward(params: dict, sequence: TokenSequence, config: EncoderConfig) -> np.ndarray:
    """Score vector y for one page input."""
    return forward_batch(params, [sequence], config)[0]


def predict(scores: np.ndarray, label_mode: str) -> frozenset[int]:
    """Decision rule: argmax (lowest index on ties) for multiclass; sigmoid
    threshold 0.5 with argmax fallback for multilabel."""
    scores = np.asarray(scores)
    if label_mode == MULTICLASS:
        return frozenset({int(np.argmax(scores))})
    chosen = np.nonzero(expit(scores) >= 0.5)[0]
    if chosen.size == 0:
        return frozenset({int(np.argmax(scores))})
    return frozenset(int(i) for i in chosen)


def loss_and_grad(params: dict, batch: Sequence[tuple[TokenSequence, frozenset]],
                  config: EncoderConfig, label_mode: str,
                  dropout_rng: np.random.Generator | None = None
                  ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its exact parameter gradient.

    Multiclass uses softmax cross-entropy; multilabel uses per-class sigmoid
    cross-entropy averaged over examples and classes.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    sequences = [ex[0] for ex in batch]
    ids = _stack_batch(sequences)
    if config.variant == LINEAR:
        scores, cache = _linear_fwd(params, ids)
    else:
        scores, cache = _transformer_fwd(params, ids, config, dropout_rng)
    n_examples, n_classes = scores.shape

    if label_mode == MULTICLASS:
        golds = np.array([next(iter(ex[1])) for ex in batch], dtype=np.int64)
        logp = log_softmax(scores, axis=-1)
        per_example = -logp[np.arange(n_examples), golds]
        dscores = (np.exp(logp) - _one_hot(golds, n_classes)) / n_examples
    else:
        targets = np.zeros((n_examples, n_classes))
        for i, (_, gold) in enumerate(batch):
            targets[i, list(gold)] = 1.0
        # stable BCE-with-logits: max(y,0) - y*t + log(1 + exp(-|y|))
        per_class = np.maximum(scores, 0.0) - scores * targets + \
            np.log1p(np.exp(-np.abs(scores)))
        per_example = per_class.mean(axis=1)
        dscores = (expit(scores) - targets) / (n_examples * n_classes)

    if not np.all(np.isfinite(per_example)):
        bad = int(np.flatnonzero(~np.isfinite(per_example))[0])
        raise FloatingPointError(f"non-finite loss at batch example {bad}")
    loss = float(per_example.mean())

    if config.variant == LINEAR:
        grads = _linear_bwd(dscores, params, cache)
    else:
        grads = _transformer_bwd(dscores, params, cache, config)
    return loss, grads


def _one_hot(indices, n):
    out = np.zeros((indices.shape[0], n))
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_payload(params: dict, config: EncoderConfig, codec: TokenCodec,
                       label_mode: str, mode: str, seed: int) -> dict:
    return {
        "kind": "encoder",
        "mode": mode,
        "label_mode": label_mode,
        "seed": seed,
        "config": {
            "variant": config.variant, "d": config.d,
            "n_layers": config.n_layers, "n_heads": config.n_heads,
            "max_len": config.max_len, "dropout": config.dropout,
            "init_seed": config.init_seed,
        },
        "codec": {
            "classes": list(codec.type_vocab.class_names),
            "vocab_label_mode": codec.type_vocab.label_mode,
            "text_tokens": list(codec.text_tokens),
        },
        "params": {name: params[name].tolist() for name in sorted(params)},
    }


def save_checkpoint(path: Path | str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def restore_encoder(payload: dict):
    """Rebuild (params, config, codec, label_mode, mode) from a payload."""
    if payload.get("kind") != "encoder":
        raise ValueError("not an encoder checkpoint")
    config = EncoderConfig(**payload["config"])
    vocab = TypeVocabulary(tuple(payload["codec"]["classes"]),
                           payload["codec"]["vocab_label_mode"])
    codec = TokenCodec(vocab, payload["codec"]["text_tokens"])
    params = {name: np.asarray(value, dtype=np.float64)
              for name, value in payload["params"].items()}
    return params, config, codec, payload["label_mode"], payload["mode"]


def load_checkpoint(path: Path | str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
