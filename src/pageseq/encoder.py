"""Trainable per-page scoring models over token id sequences.

Two variants share one interface: a linear bag-of-embeddings scorer and a
tiny pre-LN transformer read out at the CLS position.  Both are pure numpy
with handwritten backward passes, so gradients are exact for the forward
definition and checkable against finite differences.

The transformer keeps its hidden states as packed rows, one (d,) row per
non-PAD token of the (B, L) id matrix (``np.flatnonzero(ids != PAD_ID)``,
row-major).  The embedding gather, the layernorms, the Q/K/V/O projections,
the FFN and GELU, the residuals and their backward passes run on those rows
only.  Attention alone scatters K, V (and Q) into the padded (B, H, L, dh)
grid, adds a -1e30 key mask at the PAD slots, and gathers the context back
to packed rows.  PAD tokens therefore never reach a score, and their
embedding gets no gradient.  The last layer computes the B CLS rows only (its
keys and values still see every row), in the forward and the backward pass
alike.

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

Every per-token or per-grid temporary of the transformer's forward and
backward passes is written with ``out=`` into a ``Scratch`` pool: flat
float64 buffers keyed by call site (and layer, for what the backward pass
reads), each grown to the largest size asked for.  The arithmetic is the
one a fresh array per temporary gives, bit for bit; what changes is that a
reused buffer's pages are already mapped, so a call does not pay page
faults for its temporaries again.  ``forward_batch`` and ``loss_and_grad``
take the pool as ``scratch``, or make a fresh one per call when it is None.
``training.train_encoder`` owns one pool for its optimizer steps and
validation decodes, and ``recurrence.infer_split`` one per call.  The
scores, losses and gradients they return are new arrays, never views into
the pool, so the next call cannot change them.

Token id layout (one combined table of size V + n + 4):

    0 PAD   1 UNK   2 CLS   3 first-page marker (FIRST_ID)
    FIRST_ID + 1 + c  the context token of class c, for c in 0..n-1
    n+4 .. n+3+V      text tokens
"""

from __future__ import annotations

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


class Scratch:
    """Reused float64 work buffers of the tiny transformer, one per key (a
    call site, plus the layer prefix where a buffer must outlive its layer).
    A buffer grows to the largest size asked for and is handed out as a
    contiguous view of the asked shape, holding whatever its last user
    wrote.  Nothing in the pool is live between two calls."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size)
        return flat[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(flat.nbytes for flat in self._flat.values())


def _row_mean(x, scratch, key):
    """The (N, 1) mean of each row of a 2-d ``x``: one BLAS matrix-vector
    product with a column of 1/d, ~6x faster than ``x.mean(axis=-1)``."""
    d = x.shape[1]
    return np.matmul(x, np.full((d, 1), 1.0 / d),
                     out=scratch.get(key, (len(x), 1)))


def _layernorm_fwd(x, g, b, scratch, key):
    mu = _row_mean(x, scratch, "ln.mean")
    xhat = np.subtract(x, mu, out=scratch.get(key + "xhat", x.shape))
    y = scratch.get(key + "y", x.shape)
    var = _row_mean(np.square(xhat, out=y), scratch, "ln.mean")   # == x.var(axis=-1)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    np.multiply(g, xhat, out=y)
    y += b
    return y, (xhat, inv, g)


def _layernorm_bwd(dy, cache, scratch, key):
    xhat, inv, g = cache
    tmp = np.multiply(dy, xhat, out=scratch.get("ln.tmp", dy.shape))
    dg = np.sum(tmp, axis=0)
    db = np.sum(dy, axis=0)
    dx = np.multiply(dy, g, out=scratch.get(key + "dx", dy.shape))   # dxhat
    mean1 = _row_mean(dx, scratch, "ln.mean")
    mean2 = _row_mean(np.multiply(dx, xhat, out=tmp), scratch, "ln.mean2")
    dx -= mean1                                     # inv (dxhat - mean1 - xhat mean2)
    dx -= np.multiply(xhat, mean2, out=tmp)
    dx *= inv
    return dx, dg, db


# GELU, tanh form: 0.5 x (1 + tanh(u)) with u = C (x + a x^3), which is
# x / (1 + exp(-2u)) exactly
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_fwd(x, scratch, key):
    # -2u = x (-2C - 2Ca x^2); x * x: numpy's float pow is ~60x slower
    t = np.multiply(x, x, out=scratch.get(key + "t", x.shape))
    t *= -2 * _GELU_C * _GELU_A
    t -= 2 * _GELU_C
    t *= x
    with np.errstate(over="ignore"):    # exp = inf gives x / inf = -0.0, the limit
        np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=scratch.get(key + "y", x.shape)), (x, t)


def _gelu_bwd(dy, cache, scratch, key):
    # with s = 1 / t = sigma(2u): dx = dy (s + s (1 - s) 2C (1 + 3a x^2) x)
    x, t = cache
    s = np.divide(1.0, t, out=scratch.get(key + "dx", x.shape))
    poly = np.multiply(x, x, out=scratch.get("gelu.poly", x.shape))
    poly *= 2 * _GELU_C * 3 * _GELU_A
    poly += 2 * _GELU_C
    poly *= x
    ds = np.subtract(1.0, s, out=scratch.get("gelu.ds", x.shape))
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


def _padded(x, slots, b, l, scratch, key):
    """Packed rows (N, d) scattered to their flat ``slots`` of a zero
    (B, L, d) grid."""
    if len(slots) == b * l:                 # no PAD: the rows are the grid
        return x.reshape(b, l, -1)
    grid = scratch.get(key, (b * l, x.shape[1]))
    grid.fill(0.0)
    grid[slots] = x
    return grid.reshape(b, l, -1)


def _heads(x, n_heads):
    """(B, L, d) -> (B, H, L, dh)."""
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _rows(xh, slots, scratch, key):
    """(B, H, L, dh) -> the packed rows at ``slots`` (all B x L if None)."""
    b, n_heads, l, dh = xh.shape
    grid = scratch.get(key + "grid", (b, l, n_heads, dh))
    np.copyto(grid, xh.transpose(0, 2, 1, 3))
    x = grid.reshape(-1, n_heads * dh)
    if slots is None or len(slots) == len(x):
        return x
    # with out=, mode "raise" gathers into a hidden copy of out; "clip" does
    # not, and positions computed from ids are always in range
    return np.take(x, slots, axis=0, out=scratch.get(key, (len(slots), x.shape[1])),
                   mode="clip")


def _attention_fwd(a, params, prefix, pack, n_heads, cls_only, scratch):
    """Multi-head self-attention over packed rows ``a`` (N, d).  Queries come
    from every row, or from the CLS rows only; keys and values come from
    every row.  The projections run on the packed rows; the logits run on
    the padded grid, where the additive key mask hides the PAD slots."""
    slots, cls, mask = pack
    b, l = mask.shape
    n, d = a.shape
    dh = d // n_heads
    aq = a[cls] if cls_only else a
    q = np.matmul(aq, params[prefix + "wq"], out=scratch.get(prefix + "q", aq.shape))
    q += params[prefix + "qb"]
    q /= math.sqrt(dh)                  # the logit scale, on the query rows
    # no key bias: q . kb shifts a query row's logits alike, which softmax ignores
    k = np.matmul(a, params[prefix + "wk"], out=scratch.get(prefix + "k", (n, d)))
    v = np.matmul(a, params[prefix + "wv"], out=scratch.get(prefix + "v", (n, d)))
    v += params[prefix + "vb"]
    qh = _heads(q[:, None] if cls_only
                else _padded(q, slots, b, l, scratch, prefix + "qgrid"), n_heads)
    kh = _heads(_padded(k, slots, b, l, scratch, prefix + "kgrid"), n_heads)
    vh = _heads(_padded(v, slots, b, l, scratch, prefix + "vgrid"), n_heads)
    logits = np.matmul(qh, kh.transpose(0, 1, 3, 2),                # (B, H, Lq, L)
                       out=scratch.get(prefix + "probs", qh.shape[:3] + (l,)))
    logits += mask[:, None, None, :]
    probs = _softmax_last(logits)
    ctx = np.matmul(probs, vh, out=scratch.get("attn.ctx", qh.shape))
    merged = _rows(ctx, None if cls_only else slots, scratch, prefix + "merged")
    out = np.matmul(merged, params[prefix + "wo"], out=scratch.get(prefix + "out",
                                                                   merged.shape))
    out += params[prefix + "ob"]
    return out, (a, aq, cls_only, qh, kh, vh, probs, merged)


def _softmax_last(x):
    """Softmax over the last axis, computed in the buffer of ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attention_bwd(dout, params, prefix, pack, cache, grads, n_heads, scratch):
    """Gradient wrt the attention input: packed (N, d) from (Nq, d).  Its
    buffers are shared by all layers: none is read after the layer's step."""
    a, aq, cls_only, qh, kh, vh, probs, merged = cache
    slots, cls, _ = pack
    b, _, l, dh = kh.shape
    grads[prefix + "wo"] += merged.T @ dout
    grads[prefix + "ob"] += dout.sum(axis=0)
    dmerged = np.matmul(dout, params[prefix + "wo"].T,
                        out=scratch.get("attn.dmerged", dout.shape))
    dctx = _heads(dmerged[:, None] if cls_only
                  else _padded(dmerged, slots, b, l, scratch, "attn.dctx"), n_heads)
    dprobs = np.matmul(dctx, vh.transpose(0, 1, 3, 2),
                       out=scratch.get("attn.dprobs", probs.shape))
    dvh = np.matmul(probs.transpose(0, 1, 3, 2), dctx,
                    out=scratch.get("attn.dvh", vh.shape))
    dlogits = dprobs                                # softmax backward
    dlogits -= np.sum(np.multiply(dprobs, probs, out=scratch.get("attn.dp", probs.shape)),
                      axis=-1, keepdims=True)
    dlogits *= probs
    dq = _rows(np.matmul(dlogits, kh, out=scratch.get("attn.dqh", qh.shape)),
               None if cls_only else slots, scratch, "attn.dq")
    dq /= math.sqrt(dh)
    dk = _rows(np.matmul(dlogits.transpose(0, 1, 3, 2), qh,
                         out=scratch.get("attn.dkh", kh.shape)), slots, scratch,
               "attn.dk")
    dv = _rows(dvh, slots, scratch, "attn.dv")
    da = np.matmul(dk, params[prefix + "wk"].T, out=scratch.get("attn.da", a.shape))
    da[cls if cls_only else slice(None)] += np.matmul(
        dq, params[prefix + "wq"].T, out=scratch.get("attn.daq", dq.shape))
    da += np.matmul(dv, params[prefix + "wv"].T, out=scratch.get("attn.dav", a.shape))
    grads[prefix + "wk"] += a.T @ dk                # kb is not added: no gradient
    for x, dz, w_name, b_name in ((aq, dq, "wq", "qb"), (a, dv, "wv", "vb")):
        grads[prefix + w_name] += x.T @ dz
        grads[prefix + b_name] += dz.sum(axis=0)
    return da


def _transformer_fwd(params, ids, config, dropout_rng, scratch):
    """Pre-LN layers read out at CLS, on packed rows: one row per non-PAD
    token, in row-major order of ``ids``.  The last layer computes the CLS
    rows only: after its attention every op is row-wise, so only its keys
    and values need the other rows.  What the backward pass reads stays in
    ``scratch`` under the layer's prefix."""
    b, l = ids.shape
    pack = _pack(ids)
    slots, cls = pack.slots, pack.cls
    tokens = ids.ravel()[slots]
    shape = (len(slots), params["emb"].shape[1])
    x = np.take(params["emb"], tokens, axis=0, out=scratch.get("emb", shape))  # (N, d)
    x += np.take(params["pos"], slots % l, axis=0, out=scratch.get("pos", shape),
                 mode="clip")
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
        a, ln1_cache = _layernorm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"],
                                      scratch, p + "ln1/")
        attn, attn_cache = _attention_fwd(a, params, p, pack, config.n_heads, last,
                                          scratch)
        m1 = _dropout_fwd(attn, drop, dropout_rng, drop_shape, drop_rows, scratch,
                          p + "drop1/")
        attn += x[out_rows]
        x = attn
        f, ln2_cache = _layernorm_fwd(x, params[p + "ln2_g"], params[p + "ln2_b"],
                                      scratch, p + "ln2/")
        w1 = params[p + "w1"]
        h1 = np.matmul(f, w1, out=scratch.get(p + "h1", (len(f), w1.shape[1])))
        h1 += params[p + "b1"]
        u, gelu_cache = _gelu_fwd(h1, scratch, p + "gelu/")
        h2 = np.matmul(u, params[p + "w2"], out=scratch.get("h2", f.shape))
        h2 += params[p + "b2"]
        m2 = _dropout_fwd(h2, drop, dropout_rng, drop_shape, drop_rows, scratch,
                          p + "drop2/")
        x += h2
        caches.append((ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2))
    cls_out, lnf_cache = _layernorm_fwd(x, params["lnf_g"], params["lnf_b"], scratch,
                                        "lnf/")
    scores = cls_out @ params["head_w"] + params["head_b"]
    return scores, (pack, tokens, caches, lnf_cache, cls_out)


def _dropout_fwd(x, rate, rng, shape, rows, scratch, key):
    """Inverted dropout on rows ``x``, in place: the mask is drawn at
    ``shape`` and its ``rows`` (of the flattened leading axes; all if None)
    are applied.  Returns the mask, or None without dropout."""
    if rate <= 0.0 or rng is None:
        return None
    draw = rng.random(out=scratch.get(key + "draw", shape))
    np.greater_equal(draw, rate, out=draw)
    draw /= 1.0 - rate
    mask = draw.reshape(-1, shape[-1])
    if rows is not None:
        mask = np.take(mask, rows, axis=0, out=scratch.get(key + "mask", x.shape),
                       mode="clip")
    x *= mask
    return mask


def _transformer_bwd(dscores, params, cache, config, scratch):
    pack, tokens, caches, lnf_cache, cls_out = cache
    slots, cls, mask = pack
    grads = {name: np.zeros_like(value) for name, value in params.items()
             if name != "emb"}
    grads["head_w"] += cls_out.T @ dscores
    grads["head_b"] += dscores.sum(axis=0)
    dx, dg, db = _layernorm_bwd(dscores @ params["head_w"].T, lnf_cache,  # (B, d)
                                scratch, "lnf/")
    grads["lnf_g"] += dg
    grads["lnf_b"] += db
    for layer in reversed(range(config.n_layers)):
        p = f"layer{layer}/"
        ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2 = caches[layer]
        dh2 = dx if m2 is None else np.multiply(dx, m2, out=scratch.get("dh2", dx.shape))
        grads[p + "w2"] += u.T @ dh2
        grads[p + "b2"] += dh2.sum(axis=0)
        du = np.matmul(dh2, params[p + "w2"].T, out=scratch.get("du", u.shape))
        dh1 = _gelu_bwd(du, gelu_cache, scratch, "gelu/")
        grads[p + "w1"] += f.T @ dh1
        grads[p + "b1"] += dh1.sum(axis=0)
        df = np.matmul(dh1, params[p + "w1"].T, out=scratch.get("df", f.shape))
        dx_ln2, dg2, db2 = _layernorm_bwd(df, ln2_cache, scratch, "ln2/")
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += db2
        dx += dx_ln2
        dattn = dx if m1 is None else np.multiply(dx, m1,
                                                  out=scratch.get("dattn", dx.shape))
        da = _attention_bwd(dattn, params, p, pack, attn_cache, grads, config.n_heads,
                            scratch)
        # the layer below reads dx after writing its own: one buffer per layer
        dx_ln1, dg1, db1 = _layernorm_bwd(da, ln1_cache, scratch, p + "ln1/")
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += db1
        dx_ln1[cls if layer == config.n_layers - 1 else slice(None)] += dx  # residual
        dx = dx_ln1
    grads["emb"] = _embedding_grad(tokens, dx, params["emb"].shape[0])
    b, l = mask.shape
    grads["pos"][:l] += _padded(dx, slots, b, l, scratch, "pos.grid").sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def forward_batch(params: dict, ids: np.ndarray, config: EncoderConfig,
                  scratch: Scratch | None = None) -> np.ndarray:
    """Class score rows of a (B, L) PAD-padded id matrix; no dropout.
    ``scratch`` is the transformer's work pool (a fresh one if None); the
    scores are a new array, never a view into it."""
    if ids.shape[1] > config.max_len:
        raise ValueError("sequence longer than max_len")
    if config.variant == LINEAR:
        scores, _ = _linear_fwd(params, ids)
    else:
        scores, _ = _transformer_fwd(params, ids, config, None,
                                     Scratch() if scratch is None else scratch)
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
                  dropout_rng: np.random.Generator | None = None,
                  scratch: Scratch | None = None
                  ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over a (B, L) id matrix and its exact gradient.

    Multiclass: softmax cross-entropy against B gold class indices.
    Multilabel: per-class sigmoid cross-entropy against a (B, n) 0/1 matrix,
    averaged over examples and classes.  ``scratch`` is the transformer's
    work pool (a fresh one if None); the gradients are new arrays.
    """
    if len(ids) == 0:
        raise ValueError("batch must be non-empty")
    if scratch is None:
        scratch = Scratch()
    if config.variant == LINEAR:
        scores, cache = _linear_fwd(params, ids)
    else:
        scores, cache = _transformer_fwd(params, ids, config, dropout_rng, scratch)
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
        grads = _transformer_bwd(dscores, params, cache, config, scratch)
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
