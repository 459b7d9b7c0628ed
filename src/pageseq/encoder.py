"""Trainable per-page scoring models over token id sequences.

Two variants share one interface: a linear bag-of-embeddings scorer and a
tiny pre-LN transformer read out at the CLS position.  Both are pure numpy
with handwritten backward passes, so gradients are exact for the forward
definition and checkable against finite differences.

The transformer keeps its hidden states as packed rows, one (d,) row per
non-PAD token of the (B, L) id matrix (``np.flatnonzero(ids != PAD_ID)``,
row-major).  The embedding gather, the layernorms, the Q/K/V/O projections,
the FFN and GELU, the residuals and their backward passes run on those rows
only.  Attention alone scatters Q, K and V into the padded (B, H, L, dh)
grid, adds a -1e30 key mask at the PAD slots (of a block that has any), and
writes its outputs straight into a (B, L, d) row-layout grid, from which the
packed rows are gathered.  PAD tokens therefore never reach a score, and
their embedding gets no gradient.

The last layer computes the B CLS rows only, in the forward and the backward
pass alike, and reads its keys and values through ``wk`` and ``wv``: per
head, the query q becomes u = wk q, the logits are u . a_j over the padded
grid of the layer's layernormed input rows a_j, and the context is
(sum_j p_j a_j) wv + vb, since the softmax weights p_j sum to 1.  So no key
or value row is projected there, in either pass.

The transformer computes its function with few passes over its arrays: the
tanh-form GELU as x / (1 + exp(-2u)), u = C (x + a x^3), which equals
0.5 x (1 + tanh(u)) and costs one ``exp`` in place of a ``tanh``; each
layernorm row mean as one BLAS matrix-vector product with a column of 1/d;
and the attention's 1/sqrt(dh) scale on the packed query rows, not on the
(B, H, L, L) logit grid.  The key bias ``kb`` is not added: it shifts every
logit of a query row by q . kb, which softmax ignores, so it changes no
score and its gradient is exactly 0.  It stays a parameter, so checkpoints
keep their format.

Both variants form the embedding gradient with one ``np.bincount`` over the
flat bins ``token * d + column``, weighted by the gradient rows of the
tokens read, which sums each bin in the order and with the bits of a
row-by-row ``np.add.at``.

Every temporary of the transformer's forward and backward passes is a
fresh array, updated in place where the next operation allows it.  A
temporary of a few hundred kB is above glibc's default threshold for
mapping an allocation on its own, so freeing it would hand its pages back
to the OS and the next call would fault them in again; ``cli.main`` sets
glibc's allocator to keep freed memory mapped instead.

Token id layout (one combined table of size V + n + 4):

    0 PAD   1 UNK   2 CLS   3 first-page marker (FIRST_ID)
    FIRST_ID + 1 + c  the context token of class c, for c in 0..n-1
    n+4 .. n+3+V      text tokens
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .corpus import MULTICLASS, TypeVocabulary
from .features import TOKENIZER_VERSION, check_tokenizer_version
from .files import (
    CHECKPOINT_FORMAT,
    check_format,
    config_from,
    field_label,
    float_block,
    float_block_shape,
    json_object,
    read_float_block,
    read_json,
)

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
FIRST_ID = 3
N_RESERVED = 4

LINEAR = "linear"
TINY_TRANSFORMER = "tiny-transformer"
# a checkpoint's mode: whether its model reads previous-page context tokens
MODES = ("oblivious", "recurrent")


class TokenCodec:
    """Maps text tokens to dense ids, after the reserved and class ids."""

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

    def text_token_ids(self, tokens: Iterable[str]) -> Iterator[int]:
        """The id of each of ``tokens``, lazily; UNK for an unknown one."""
        return map(self._text_ids.get, tokens, repeat(UNK_ID))


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
        if self.n_heads < 1 or self.n_layers < 0:
            raise ValueError("n_heads must be >= 1 and n_layers >= 0")
        if self.variant == TINY_TRANSFORMER and self.n_layers < 1:
            # without a layer the CLS row never reads the text
            raise ValueError("the tiny transformer needs n_layers >= 1")
        if self.variant == TINY_TRANSFORMER and self.d % self.n_heads != 0:
            raise ValueError("d must be divisible by n_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.variant == LINEAR and self.dropout:
            # the bag of embeddings has no layer output to drop
            raise ValueError("the linear encoder takes no dropout (dropout must be 0)")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")


def check_max_len(config: EncoderConfig, vocab: TypeVocabulary) -> None:
    """Raise ValueError unless ``max_len`` holds CLS, the context tokens a
    page of ``vocab`` is fed (one per class it may carry) and a text token."""
    context = vocab.max_labels
    if config.max_len < 2 + context:
        raise ValueError(f"max_len must be >= {2 + context} (CLS, {context} "
                         f"context token(s) and one text token)")


def param_shapes(config: EncoderConfig, codec: TokenCodec) -> dict[str, tuple[int, ...]]:
    """The name and shape of each parameter, in the order ``init_params``
    makes them; shapes follow the config and codec.  Nothing is allocated."""
    check_max_len(config, codec.type_vocab)
    d, n = config.d, codec.n_classes
    shapes = {"emb": (codec.n_ids, d), "head_w": (d, n), "head_b": (n,)}
    if config.variant == TINY_TRANSFORMER:
        shapes["pos"] = (config.max_len, d)
        for layer in range(config.n_layers):
            p = f"layer{layer}/"
            shapes[p + "ln1_g"] = shapes[p + "ln1_b"] = (d,)
            for name in ("wq", "wk", "wv", "wo"):
                shapes[p + name] = (d, d)
                shapes[p + name[1] + "b"] = (d,)  # qb, kb, vb, ob
            shapes[p + "ln2_g"] = shapes[p + "ln2_b"] = (d,)
            shapes[p + "w1"], shapes[p + "b1"] = (d, 4 * d), (4 * d,)
            shapes[p + "w2"], shapes[p + "b2"] = (4 * d, d), (d,)
        shapes["lnf_g"] = shapes["lnf_b"] = (d,)
    return shapes


def init_params(config: EncoderConfig, codec: TokenCodec) -> dict[str, np.ndarray]:
    """Seeded parameter initialization of the ``param_shapes`` table, drawn
    in its order: each matrix from N(0, 0.02^2), each layernorm gain
    (``_g``) ones and each other vector zeros."""
    rng = np.random.default_rng(config.init_seed)
    return {name: rng.normal(0.0, 0.02, size=shape) if len(shape) == 2
            else np.ones(shape) if name.endswith("_g") else np.zeros(shape)
            for name, shape in param_shapes(config, codec).items()}


# ---------------------------------------------------------------------------
# Forward / backward primitives
# ---------------------------------------------------------------------------

_LN_EPS = 1e-5
_MASK_NEG = -1e30


@functools.cache
def _mean_column(d):
    """The read-only (d, 1) column of 1/d, made once per width."""
    column = np.full((d, 1), 1.0 / d)
    column.flags.writeable = False
    return column


def _row_mean(x):
    """The (N, 1) mean of each row of a 2-d ``x``: one BLAS matrix-vector
    product with a column of 1/d, ~6x faster than ``x.mean(axis=-1)``."""
    return x @ _mean_column(x.shape[1])


def _layernorm_fwd(x, g, b):
    xhat = x - _row_mean(x)
    var = _row_mean(np.square(xhat))                # == x.var(axis=-1)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    y = g * xhat
    y += b
    return y, (xhat, inv, g)


def _layernorm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = np.sum(dy * xhat, axis=0)
    db = np.sum(dy, axis=0)
    dx = dy * g                                     # dxhat
    mean1 = _row_mean(dx)
    mean2 = _row_mean(dx * xhat)
    dx -= mean1                                     # inv (dxhat - mean1 - xhat mean2)
    dx -= xhat * mean2
    dx *= inv
    return dx, dg, db


# GELU, tanh form: 0.5 x (1 + tanh(u)) with u = C (x + a x^3), which is
# x / (1 + exp(-2u)) exactly
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_fwd(x):
    # -2u = x (-2C - 2Ca x^2); x * x: numpy's float pow is ~60x slower
    t = x * x
    t *= -2 * _GELU_C * _GELU_A
    t -= 2 * _GELU_C
    t *= x
    with np.errstate(over="ignore"):    # exp = inf gives x / inf = -0.0, the limit
        np.exp(t, out=t)
    t += 1.0
    return x / t, (x, t)


def _gelu_bwd(dy, cache):
    # with s = 1 / t = sigma(2u): dx = dy (s + s (1 - s) 2C (1 + 3a x^2) x)
    x, t = cache
    s = 1.0 / t
    poly = x * x
    poly *= 2 * _GELU_C * 3 * _GELU_A
    poly += 2 * _GELU_C
    poly *= x
    ds = 1.0 - s
    ds *= s
    poly *= ds
    s += poly
    s *= dy
    return s


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
    dbag = dscores @ params["head_w"].T                 # (B, d)
    # each content position gets its row's dbag / count (times a weight of
    # 1.0); the zero-weight PAD and CLS positions would add only zeros
    example, position = np.nonzero(weights)
    return {"emb": _embedding_grad(ids[example, position],
                                   (dbag / counts[:, None])[example],
                                   params["emb"].shape[0]),
            "head_w": bag.T @ dscores,
            "head_b": dscores.sum(axis=0)}


def _embedding_grad(tokens, rows, n_ids):
    """The (n_ids, d) sums of the (N, d) ``rows`` by their ``tokens``: one
    ``bincount`` over the flat bins ``token * d + column``.  It adds each
    row into its bins in input order, starting from +0.0, so each sum is the
    one a row-by-row scatter (``np.add.at``) gives, bit for bit."""
    d = rows.shape[1]
    bins = (tokens[:, None] * d + np.arange(d)).ravel()
    # bincount of no bins gives int64 zeros, whatever the weights
    return np.bincount(bins, weights=rows.ravel(), minlength=n_ids * d
                       ).astype(np.float64, copy=False).reshape(n_ids, d)


class _Packing(NamedTuple):
    """Where a (B, L) id matrix's non-PAD tokens sit among its packed rows."""
    slots: np.ndarray       # (N,) flat positions in the (B, L) grid, row-major
    cls: np.ndarray         # (B,) packed row of each example's first token
    mask: np.ndarray        # (B, L) additive key mask: 0, or -1e30 at PAD


def _pack(ids) -> _Packing:
    nonpad = ids != PAD_ID
    if not nonpad[:, 0].all():
        raise ValueError("every id row must start with a non-PAD token")
    lengths = nonpad.sum(axis=1)
    return _Packing(np.flatnonzero(nonpad), np.cumsum(lengths) - lengths,
                    np.where(nonpad, 0.0, _MASK_NEG))


def _padded(x, slots, b, l):
    """Packed rows (N, d) scattered to their flat ``slots`` of a zero
    (B, L, d) grid."""
    if len(slots) == b * l:                 # no PAD: the rows are the grid
        return x.reshape(b, l, -1)
    grid = np.zeros((b * l, x.shape[1]))
    grid[slots] = x
    return grid.reshape(b, l, -1)


def _heads(x, n_heads):
    """(B, L, d) -> (B, H, L, dh)."""
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _rows(grid, slots):
    """The packed rows at ``slots`` of a (B, L, d) grid: the grid's own rows
    when it has no PAD slot."""
    x = grid.reshape(-1, grid.shape[-1])
    if len(slots) == len(x):
        return x
    return x[slots]


def _matmul_rows(x1, x2, slots):
    """``x1 @ x2`` over (B, H, L, .) heads, written straight into the row
    layout of a (B, L, d) grid; then its packed rows (``_rows``)."""
    b, n_heads, l, _ = x1.shape
    grid = np.empty((b, l, n_heads * x2.shape[-1]))
    np.matmul(x1, x2, out=_heads(grid, n_heads))
    return _rows(grid, slots)


def _attention_fwd(a, params, prefix, pack, n_heads):
    """Multi-head self-attention over packed rows ``a`` (N, d), every row a
    query.  The projections run on the packed rows; the logits run on the
    padded grid, where the additive key mask hides the PAD slots."""
    slots, _, mask = pack
    b, l = mask.shape
    d = a.shape[1]
    dh = d // n_heads
    q = a @ params[prefix + "wq"]
    q += params[prefix + "qb"]
    q /= math.sqrt(dh)                  # the logit scale, on the query rows
    # no key bias: q . kb shifts a query row's logits alike, which softmax ignores
    k = a @ params[prefix + "wk"]
    v = a @ params[prefix + "wv"]
    v += params[prefix + "vb"]
    qh = _heads(_padded(q, slots, b, l), n_heads)
    kh = _heads(_padded(k, slots, b, l), n_heads)
    vh = _heads(_padded(v, slots, b, l), n_heads)
    logits = qh @ kh.transpose(0, 1, 3, 2)                          # (B, H, L, L)
    if len(slots) < b * l:
        logits += mask[:, None, None, :]
    probs = _softmax_last(logits)
    merged = _matmul_rows(probs, vh, slots)
    out = merged @ params[prefix + "wo"]
    out += params[prefix + "ob"]
    return out, (a, qh, kh, vh, probs, merged)


def _head_weights(w, n_heads):
    """(d, d) -> (H, d, dh): each head's columns."""
    d = w.shape[0]
    return w.reshape(d, n_heads, d // n_heads).transpose(1, 0, 2)


def _cls_attention_fwd(a, params, prefix, pack, n_heads):
    """Attention of the B CLS rows over the packed rows ``a`` (N, d), which
    reads the keys and values through ``wk`` and ``wv`` on the padded
    (B, L, d) grid of ``a``.  Per head h: the logits are a_j . u_h with
    u_h = wk_h q_h, and the context is r_h wv_h + vb_h with the
    softmax-weighted row r_h = sum_j p_hj a_j, since the weights sum to 1.
    So no packed row is multiplied by ``wk`` or ``wv``."""
    slots, cls, mask = pack
    b, l = mask.shape
    d = a.shape[1]
    dh = d // n_heads
    aq = a[cls]
    q = aq @ params[prefix + "wq"]
    q += params[prefix + "qb"]
    q /= math.sqrt(dh)
    qh = q.reshape(b, n_heads, dh).transpose(1, 0, 2)               # (H, B, dh)
    u = np.empty((b, n_heads, d))
    np.matmul(qh, _head_weights(params[prefix + "wk"], n_heads).transpose(0, 2, 1),
              out=u.transpose(1, 0, 2))
    grid = _padded(a, slots, b, l)                                   # (B, L, d)
    logits = u @ grid.transpose(0, 2, 1)                             # (B, H, L)
    if len(slots) < b * l:
        logits += mask[:, None, :]
    probs = _softmax_last(logits)
    r = probs @ grid
    merged = np.empty((b, d))
    np.matmul(r.transpose(1, 0, 2), _head_weights(params[prefix + "wv"], n_heads),
              out=merged.reshape(b, n_heads, dh).transpose(1, 0, 2))
    merged += params[prefix + "vb"]
    out = merged @ params[prefix + "wo"]
    out += params[prefix + "ob"]
    return out, (aq, qh, u, grid, probs, r, merged)


def _softmax_last(x):
    """Softmax over the last axis, computed in the buffer of ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_bwd(dprobs, probs):
    """The logit gradient from the probability gradient, in ``dprobs``."""
    dprobs -= np.sum(dprobs * probs, axis=-1, keepdims=True)
    dprobs *= probs
    return dprobs


def _attention_bwd(dout, params, prefix, pack, cache, grads, n_heads):
    """Gradient wrt the attention input: packed (N, d) from (N, d)."""
    a, qh, kh, vh, probs, merged = cache
    slots = pack.slots
    b, _, l, dh = kh.shape
    grads[prefix + "wo"] = merged.T @ dout
    grads[prefix + "ob"] = dout.sum(axis=0)
    dmerged = dout @ params[prefix + "wo"].T
    dctx = _heads(_padded(dmerged, slots, b, l), n_heads)
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dv = _matmul_rows(probs.transpose(0, 1, 3, 2), dctx, slots)
    dlogits = _softmax_bwd(dprobs, probs)
    dq = _matmul_rows(dlogits, kh, slots)
    dq /= math.sqrt(dh)
    dk = _matmul_rows(dlogits.transpose(0, 1, 3, 2), qh, slots)
    da = dk @ params[prefix + "wk"].T
    da += dq @ params[prefix + "wq"].T
    da += dv @ params[prefix + "wv"].T
    grads[prefix + "wk"] = a.T @ dk                 # kb is not added: no gradient
    for dz, w_name, b_name in ((dq, "wq", "qb"), (dv, "wv", "vb")):
        grads[prefix + w_name] = a.T @ dz
        grads[prefix + b_name] = dz.sum(axis=0)
    return da


def _cls_attention_bwd(dout, params, prefix, pack, cache, grads, n_heads):
    """Gradient wrt the attention input: packed (N, d) from the (B, d) CLS
    rows, by ``_cls_attention_fwd``'s products in reverse.  The input grid's
    gradient, p_h dr_h + dlogits_h du_h summed over heads, is read at the
    packed slots, and the query's at the CLS rows."""
    aq, qh, u, grid, probs, r, merged = cache
    slots, cls, _ = pack
    b, n_heads, d = u.shape
    dh = d // n_heads
    grads[prefix + "wo"] = merged.T @ dout
    grads[prefix + "ob"] = dout.sum(axis=0)
    dmerged = dout @ params[prefix + "wo"].T
    dctx = dmerged.reshape(b, n_heads, dh).transpose(1, 0, 2)       # (H, B, dh)
    grads[prefix + "wv"] = dwv = np.empty((d, d))
    np.matmul(r.transpose(1, 2, 0), dctx, out=_head_weights(dwv, n_heads))
    grads[prefix + "vb"] = dmerged.sum(axis=0)
    dr = np.empty(u.shape)
    np.matmul(dctx, _head_weights(params[prefix + "wv"], n_heads).transpose(0, 2, 1),
              out=dr.transpose(1, 0, 2))
    dprobs = dr @ grid.transpose(0, 2, 1)
    dlogits = _softmax_bwd(dprobs, probs)
    du = dlogits @ grid
    grads[prefix + "wk"] = dwk = np.empty((d, d))   # kb is not added: no gradient
    np.matmul(du.transpose(1, 2, 0), qh, out=_head_weights(dwk, n_heads))
    dq = np.empty(aq.shape)
    np.matmul(du.transpose(1, 0, 2), _head_weights(params[prefix + "wk"], n_heads),
              out=dq.reshape(b, n_heads, dh).transpose(1, 0, 2))
    dq /= math.sqrt(dh)
    grads[prefix + "wq"] = aq.T @ dq
    grads[prefix + "qb"] = dq.sum(axis=0)
    dgrid = probs.transpose(0, 2, 1) @ dr
    dgrid += dlogits.transpose(0, 2, 1) @ u
    da = _rows(dgrid, slots)
    da[cls] += dq @ params[prefix + "wq"].T
    return da


def _transformer_fwd(params, ids, config, dropout_rng):
    """Pre-LN layers read out at CLS, on packed rows: one row per non-PAD
    token, in row-major order of ``ids``.  The last layer computes the CLS
    rows only: after its attention every op is row-wise, and its attention
    reads the other rows through ``wk`` and ``wv`` (``_cls_attention_fwd``)."""
    b, l = ids.shape
    pack = _pack(ids)
    slots, cls = pack.slots, pack.cls
    tokens = ids.ravel()[slots]
    x = params["emb"][tokens]                                        # (N, d)
    x += params["pos"][slots % l]
    d = x.shape[1]
    caches = []
    drop = config.dropout if dropout_rng is not None else 0.0
    for layer in range(config.n_layers):
        p = f"layer{layer}/"
        last = layer == config.n_layers - 1
        # The rows this layer outputs.  Dropout masks are drawn at the padded
        # output shape and cut to those rows, so each (example, position)
        # gets the mask value that the padded layout gives it.
        if last:
            out_rows, drop_shape, drop_rows = cls, (b, 1, d), None
        else:
            out_rows, drop_shape, drop_rows = slice(None), (b, l, d), slots
        a, ln1_cache = _layernorm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        attention = _cls_attention_fwd if last else _attention_fwd
        attn, attn_cache = attention(a, params, p, pack, config.n_heads)
        m1 = _dropout_fwd(attn, drop, dropout_rng, drop_shape, drop_rows)
        attn += x[out_rows]
        x = attn
        f, ln2_cache = _layernorm_fwd(x, params[p + "ln2_g"], params[p + "ln2_b"])
        h1 = f @ params[p + "w1"]
        h1 += params[p + "b1"]
        u, gelu_cache = _gelu_fwd(h1)
        h2 = u @ params[p + "w2"]
        h2 += params[p + "b2"]
        m2 = _dropout_fwd(h2, drop, dropout_rng, drop_shape, drop_rows)
        x += h2
        caches.append((ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2))
    cls_out, lnf_cache = _layernorm_fwd(x, params["lnf_g"], params["lnf_b"])
    scores = cls_out @ params["head_w"] + params["head_b"]
    return scores, (pack, tokens, caches, lnf_cache, cls_out)


def _dropout_fwd(x, rate, rng, shape, rows):
    """Inverted dropout on rows ``x``, in place: the mask is drawn at
    ``shape`` and its ``rows`` (of the flattened leading axes; all if None)
    are applied.  Returns the mask, or None without dropout."""
    if rate <= 0.0 or rng is None:
        return None
    draw = rng.random(shape)
    np.greater_equal(draw, rate, out=draw)
    draw /= 1.0 - rate
    mask = draw.reshape(-1, shape[-1])
    if rows is not None:
        mask = mask[rows]
    x *= mask
    return mask


def _transformer_bwd(dscores, params, cache, config):
    pack, tokens, caches, lnf_cache, cls_out = cache
    slots, cls, mask = pack
    # kb is never added, so its gradient is 0; pos gets only its first l rows
    grads = {name: np.zeros_like(value) for name, value in params.items()
             if name == "pos" or name.endswith("/kb")}
    grads["head_w"] = cls_out.T @ dscores
    grads["head_b"] = dscores.sum(axis=0)
    dx, grads["lnf_g"], grads["lnf_b"] = _layernorm_bwd(
        dscores @ params["head_w"].T, lnf_cache)                     # (B, d)
    for layer in reversed(range(config.n_layers)):
        p = f"layer{layer}/"
        ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2 = caches[layer]
        dh2 = dx if m2 is None else dx * m2
        grads[p + "w2"] = u.T @ dh2
        grads[p + "b2"] = dh2.sum(axis=0)
        du = dh2 @ params[p + "w2"].T
        dh1 = _gelu_bwd(du, gelu_cache)
        grads[p + "w1"] = f.T @ dh1
        grads[p + "b1"] = dh1.sum(axis=0)
        df = dh1 @ params[p + "w1"].T
        dx_ln2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layernorm_bwd(df, ln2_cache)
        dx += dx_ln2
        dattn = dx if m1 is None else dx * m1
        last = layer == config.n_layers - 1
        attention_bwd = _cls_attention_bwd if last else _attention_bwd
        da = attention_bwd(dattn, params, p, pack, attn_cache, grads, config.n_heads)
        dx_ln1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layernorm_bwd(da, ln1_cache)
        dx_ln1[cls if last else slice(None)] += dx  # residual
        dx = dx_ln1
    grads["emb"] = _embedding_grad(tokens, dx, params["emb"].shape[0])
    b, l = mask.shape
    grads["pos"][:l] += _padded(dx, slots, b, l).sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _check_width(ids, config):
    """Raise ValueError if the (B, L) ``ids`` are wider than ``max_len``:
    scoring and training refuse the same rows."""
    if ids.shape[1] > config.max_len:
        raise ValueError("sequence longer than max_len")


def forward_batch(params: dict, ids: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Class score rows of a (B, L) PAD-padded id matrix; no dropout."""
    _check_width(ids, config)
    if config.variant == LINEAR:
        scores, _ = _linear_fwd(params, ids)
    else:
        scores, _ = _transformer_fwd(params, ids, config, None)
    return scores


def predict(scores: np.ndarray, label_mode: str) -> np.ndarray:
    """The decided classes of each row of a (rows x n) score matrix, as a 0/1
    indicator.  Multiclass: the argmax, the lowest index on ties.  Multilabel:
    every class whose sigmoid is at least 0.5, else the argmax."""
    scores = np.asarray(scores)
    chosen = (expit(scores) >= 0.5 if label_mode != MULTICLASS
              else np.zeros(scores.shape, dtype=bool))
    rows = np.flatnonzero(~chosen.any(axis=1))
    chosen[rows, scores[rows].argmax(axis=1)] = True
    return chosen


def softmax_cross_entropy(scores: np.ndarray, targets: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's softmax cross-entropy against its gold class index in
    ``targets``, and the gradient of their mean with respect to ``scores``.
    The log-probabilities are ``scipy.special.log_softmax``'s operations in
    its order (a row whose maximum is not finite is shifted by 0), without
    its per-call wrapper; a test pins them to scipy's bits."""
    shift = scores.max(axis=-1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    logp = scores - shift
    dscores = np.exp(logp)
    with np.errstate(divide="ignore"):                  # a row of -inf: log 0
        norm = np.log(dscores.sum(axis=-1, keepdims=True))
    logp -= norm
    rows = np.arange(len(targets))
    np.exp(logp, out=dscores)
    dscores[rows, targets] -= 1.0
    dscores /= len(targets)
    return -logp[rows, targets], dscores


def loss_and_grad(params: dict, ids: np.ndarray, targets: np.ndarray,
                  config: EncoderConfig, label_mode: str,
                  dropout_rng: np.random.Generator | None = None
                  ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over a (B, L) id matrix and its exact gradient.

    Multiclass: softmax cross-entropy against B gold class indices.
    Multilabel: per-class sigmoid cross-entropy against a (B, n) 0/1 matrix,
    averaged over examples and classes.
    """
    if len(ids) == 0:
        raise ValueError("batch must be non-empty")
    _check_width(ids, config)
    if config.variant == LINEAR:
        scores, cache = _linear_fwd(params, ids)
    else:
        scores, cache = _transformer_fwd(params, ids, config, dropout_rng)
    n_examples, n_classes = scores.shape

    if label_mode == MULTICLASS:
        per_example, dscores = softmax_cross_entropy(scores, targets)
    else:
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


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


# the top-level keys of an encoder checkpoint: ``checkpoint_payload``'s and
# the provenance ``train`` adds
CHECKPOINT_KEYS = ("kind", "format", "mode", "tokenizer_version", "config",
                   "codec", "params", "provenance")


def checkpoint_payload(params: dict, config: EncoderConfig, codec: TokenCodec,
                       mode: str) -> dict:
    """An encoder checkpoint's JSON body; ``restore_encoder`` checks it.  The
    label mode is the codec's ``vocab_label_mode``; the seed is the one the
    ``train`` provenance records."""
    return {
        "kind": "encoder",
        "format": CHECKPOINT_FORMAT,
        "mode": mode,
        "tokenizer_version": TOKENIZER_VERSION,
        "config": asdict(config),
        "codec": {
            "classes": list(codec.type_vocab.class_names),
            "vocab_label_mode": codec.type_vocab.label_mode,
            "text_tokens": list(codec.text_tokens),
        },
        "params": {name: float_block(params[name]) for name in sorted(params)},
    }


def save_checkpoint(path: Path | str, payload: dict) -> None:
    """Write a checkpoint of any kind: compact JSON, keys sorted."""
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def restore_encoder(payload, where: str = ""):
    """Rebuild (params, config, codec, recurrent) from a payload; ``where``
    is the field that holds it in a checkpoint that embeds it, and prefixes
    the fields a message names.

    Raises ValueError, naming the field, unless the payload is an object of
    kind "encoder" that records ``CHECKPOINT_FORMAT`` and
    ``TOKENIZER_VERSION``, holds every key of ``CHECKPOINT_KEYS`` (but the
    provenance) and no other, its codec exactly its three, ``mode`` is one
    of ``MODES``, ``config`` holds every ``EncoderConfig`` field with a value
    of its type, the codec's classes and text tokens are lists of distinct
    strings, and ``params`` the float blocks of ``param_shapes`` (``read_params``).
    """
    if not isinstance(payload, dict) or payload.get("kind") != "encoder":
        raise ValueError(f"field {where!r} is not an encoder checkpoint" if where
                         else "not an encoder checkpoint")
    check_format(payload, "encoder")
    check_tokenizer_version(payload)
    # the provenance, which ``train`` adds, is read from a file's top level
    json_object(payload, CHECKPOINT_KEYS, where,
                [key for key in CHECKPOINT_KEYS if key != "provenance"])
    if payload["mode"] not in MODES:
        raise ValueError(f"{field_label(where, 'mode')} {payload['mode']!r} is not "
                         f"one of {MODES}")
    config = config_from(EncoderConfig, payload["config"],
                         field_label(where, "config"), complete=True)
    keys = ("classes", "vocab_label_mode", "text_tokens")
    codec = json_object(payload["codec"], keys, field_label(where, "codec"), keys)
    vocab = TypeVocabulary(codec["classes"], codec["vocab_label_mode"])
    tokens = codec["text_tokens"]
    field = field_label(where, "codec.text_tokens")
    if not isinstance(tokens, list) or not set(map(type, tokens)) <= {str}:
        raise ValueError(f"{field} must be a list of strings")
    if len(set(tokens)) != len(tokens):
        raise ValueError(f"{field} holds a token twice")
    codec = TokenCodec(vocab, tokens)
    shapes = param_shapes(config, codec)
    params = read_params(json_object(payload["params"], shapes,
                                     field_label(where, "params"), shapes), shapes)
    return params, config, codec, payload["mode"] == "recurrent"


def read_params(blocks: dict, shapes: dict) -> dict[str, np.ndarray]:
    """The arrays of a checkpoint's float blocks of exactly the names of
    ``shapes`` (``files.json_object``).  Raise ValueError unless each block
    records its name's shape, checked for every block before any is read,
    and each array read is finite."""
    for name, shape in shapes.items():
        found = float_block_shape(blocks[name], f"parameter {name!r}")
        if found != shape:
            raise ValueError(f"parameter {name!r} has shape {found}, "
                             f"the config gives {shape}")
    params = {name: read_float_block(blocks[name], f"parameter {name!r}")
              for name in shapes}
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name!r} is not finite")
    return params


def load_checkpoint(path: Path | str) -> tuple[dict, str]:
    """The payload of a checkpoint file of any kind and the SHA-256 of the
    file's bytes; the file is read once."""
    return read_json(path, "checkpoint")
