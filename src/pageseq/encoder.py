"""Trainable per-page scoring models over token id sequences.

Two variants share one interface: a linear bag-of-embeddings scorer and a
tiny pre-LN transformer read out at the CLS position.  The transformer's last
layer computes the CLS row only (its keys and values still see every row),
in the forward and the backward pass alike.  Both are pure numpy with
handwritten backward passes, so gradients are exact for the forward
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
    xhat = x - mu
    var = np.square(xhat).mean(axis=-1, keepdims=True)   # == x.var(axis=-1)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    y = g * xhat
    y += b
    return y, (xhat, inv, g)


def _layernorm_bwd(dy, cache):
    xhat, inv, g = cache
    lead = tuple(range(dy.ndim - 1))
    tmp = dy * xhat
    dg = np.sum(tmp, axis=lead)
    db = np.sum(dy, axis=lead)
    dx = dy * g                                     # dxhat
    mean1 = dx.mean(axis=-1, keepdims=True)
    mean2 = np.multiply(dx, xhat, out=tmp).mean(axis=-1, keepdims=True)
    dx -= mean1                                     # inv (dxhat - mean1 - xhat mean2)
    dx -= np.multiply(xhat, mean2, out=tmp)
    dx *= inv
    return dx, dg, db


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_fwd(x):
    # x * x * x: numpy's float pow is ~60x slower than two multiplies here
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * x
    y *= 1.0 + t
    return y, (x, t)


def _gelu_bwd(dy, cache):
    x, t = cache
    dinner = t * t                                  # (1 - t^2) C (1 + 3 a x^2)
    np.subtract(1.0, dinner, out=dinner)
    dinner *= _GELU_C
    poly = x * (3 * 0.044715)
    poly *= x
    poly += 1.0
    dinner *= poly
    dx = t + 1.0                                    # dy (0.5 (1 + t) + 0.5 x dinner)
    dx *= 0.5
    np.multiply(x, 0.5, out=poly)
    poly *= dinner
    dx += poly
    dx *= dy
    return dx


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


def _attention_fwd(a, params, prefix, mask, n_heads, n_query):
    """Multi-head self-attention for the first ``n_query`` rows of ``a``;
    keys and values come from all of its rows."""
    b, _, d = a.shape
    dh = d // n_heads
    aq = a[:, :n_query]
    q = aq @ params[prefix + "wq"]
    q += params[prefix + "qb"]
    k = a @ params[prefix + "wk"]
    k += params[prefix + "kb"]
    v = a @ params[prefix + "wv"]
    v += params[prefix + "vb"]

    def split(x):
        return x.reshape(b, -1, n_heads, dh).transpose(0, 2, 1, 3)  # (B, H, ., dh)

    qh, kh, vh = split(q), split(k), split(v)
    logits = qh @ kh.transpose(0, 1, 3, 2)                          # (B, H, Lq, L)
    logits /= math.sqrt(dh)
    logits += mask[:, None, None, :]
    probs = _softmax_last(logits)
    ctx = probs @ vh                                                # (B, H, Lq, dh)
    merged = ctx.transpose(0, 2, 1, 3).reshape(b, n_query, d)
    out = merged @ params[prefix + "wo"]
    out += params[prefix + "ob"]
    return out, (a, aq, qh, kh, vh, probs, merged)


def _softmax_last(x):
    """Softmax over the last axis, computed in the buffer of ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attention_bwd(dout, params, prefix, cache, grads, n_heads):
    """Gradient wrt the attention input: (B, L, d) from (B, Lq, d)."""
    a, aq, qh, kh, vh, probs, merged = cache
    b, _, d = a.shape
    n_query = aq.shape[1]
    dh = d // n_heads
    grads[prefix + "wo"] += merged.reshape(-1, d).T @ dout.reshape(-1, d)
    grads[prefix + "ob"] += dout.sum(axis=(0, 1))
    dmerged = dout @ params[prefix + "wo"].T
    dctx = dmerged.reshape(b, n_query, n_heads, dh).transpose(0, 2, 1, 3)
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    dlogits = dprobs                                # softmax backward
    dlogits -= np.sum(dprobs * probs, axis=-1, keepdims=True)
    dlogits *= probs
    dlogits /= math.sqrt(dh)
    dqh = dlogits @ kh
    dkh = dlogits.transpose(0, 1, 3, 2) @ qh

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, -1, d)

    dq, dk, dv = merge(dqh), merge(dkh), merge(dvh)
    da = dk @ params[prefix + "wk"].T
    da[:, :n_query] += dq @ params[prefix + "wq"].T
    da += dv @ params[prefix + "wv"].T
    for x, dz, w_name, b_name in ((aq, dq, "wq", "qb"), (a, dk, "wk", "kb"),
                                  (a, dv, "wv", "vb")):
        grads[prefix + w_name] += x.reshape(-1, d).T @ dz.reshape(-1, d)
        grads[prefix + b_name] += dz.sum(axis=(0, 1))
    return da


def _transformer_fwd(params, ids, config, dropout_rng=None):
    """Pre-LN layers read out at CLS.  The last layer computes the CLS row
    only: after its attention every op is row-wise, so only its keys and
    values need the other rows."""
    b, l = ids.shape
    mask = np.where(ids == PAD_ID, _MASK_NEG, 0.0)       # (B, L) additive on keys
    x = params["emb"][ids]
    x += params["pos"][:l]
    caches = []
    drop = config.dropout if dropout_rng is not None else 0.0
    for layer in range(config.n_layers):
        p = f"layer{layer}/"
        n_query = 1 if layer == config.n_layers - 1 else l
        a, ln1_cache = _layernorm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        attn, attn_cache = _attention_fwd(a, params, p, mask, config.n_heads,
                                          n_query)
        attn, m1 = _dropout_fwd(attn, drop, dropout_rng)
        attn += x[:, :n_query]
        x = attn
        f, ln2_cache = _layernorm_fwd(x, params[p + "ln2_g"], params[p + "ln2_b"])
        h1 = f @ params[p + "w1"]
        h1 += params[p + "b1"]
        u, gelu_cache = _gelu_fwd(h1)
        h2 = u @ params[p + "w2"]
        h2 += params[p + "b2"]
        h2, m2 = _dropout_fwd(h2, drop, dropout_rng)
        x += h2
        caches.append((ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2))
    final, lnf_cache = _layernorm_fwd(x[:, :1], params["lnf_g"], params["lnf_b"])
    cls = final[:, 0, :]
    scores = cls @ params["head_w"] + params["head_b"]
    return scores, (ids, caches, lnf_cache, cls)


def _dropout_fwd(x, rate, rng):
    if rate <= 0.0 or rng is None:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def _transformer_bwd(dscores, params, cache, config):
    ids, caches, lnf_cache, cls = cache
    b, l = ids.shape
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    grads["head_w"] += cls.T @ dscores
    grads["head_b"] += dscores.sum(axis=0)
    dcls = (dscores @ params["head_w"].T)[:, None, :]
    dx, dg, db = _layernorm_bwd(dcls, lnf_cache)       # (B, 1, d)
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
        dx_ln1[:, :dx.shape[1]] += dx       # residual, padded back to L rows
        dx = dx_ln1
    if dx.shape[1] < l:                     # no layers: only CLS was read
        dx = np.concatenate([dx, np.zeros((b, l - dx.shape[1], dx.shape[2]))], axis=1)
    np.add.at(grads["emb"], ids, dx)
    grads["pos"][:l] += dx.sum(axis=0)
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
    """Rebuild (params, config, codec, label_mode, mode) from a payload.

    Raises ValueError unless the parameters have exactly the names and
    shapes that ``init_params`` gives for the payload's config and codec.
    """
    if payload.get("kind") != "encoder":
        raise ValueError("not an encoder checkpoint")
    config = EncoderConfig(**payload["config"])
    vocab = TypeVocabulary(tuple(payload["codec"]["classes"]),
                           payload["codec"]["vocab_label_mode"])
    codec = TokenCodec(vocab, payload["codec"]["text_tokens"])
    params = {name: np.asarray(value, dtype=np.float64)
              for name, value in payload["params"].items()}
    expected = init_params(config, codec)
    if params.keys() != expected.keys():
        raise ValueError(
            f"parameter names do not match the config: missing "
            f"{sorted(expected.keys() - params.keys())}, "
            f"unexpected {sorted(params.keys() - expected.keys())}")
    for name, value in expected.items():
        if params[name].shape != value.shape:
            raise ValueError(f"parameter {name!r} has shape {params[name].shape}, "
                             f"the config and codec give {value.shape}")
    return params, config, codec, payload["label_mode"], payload["mode"]


def load_checkpoint(path: Path | str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
