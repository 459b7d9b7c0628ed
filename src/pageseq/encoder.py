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
from scipy.special import expit, log_softmax

from .corpus import (
    CHECKPOINT_FORMAT,
    MULTICLASS,
    TypeVocabulary,
    _block,
    _config_from,
    _label,
    check_format,
    float_block,
    parse_json,
    read_float_block,
    read_text_sha256,
)
from .features import TOKENIZER_VERSION, check_tokenizer_version

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
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")


def check_max_len(config: EncoderConfig, codec: TokenCodec) -> None:
    """Raise ValueError unless ``max_len`` holds CLS, the most context tokens
    a page is fed (one per class it may carry) and one text token."""
    context = codec.type_vocab.max_labels
    if config.max_len < 2 + context:
        raise ValueError(f"max_len must be >= {2 + context} (CLS, {context} "
                         f"context token(s) and one text token)")


def init_params(config: EncoderConfig, codec: TokenCodec) -> dict[str, np.ndarray]:
    """Seeded parameter initialization; shapes follow the config and codec."""
    check_max_len(config, codec)
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


def _layernorm_fwd(x, g, b, scratch, key):
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=scratch.get(key + "xhat", x.shape))
    y = scratch.get(key + "y", x.shape)
    var = np.square(xhat, out=y).mean(axis=-1, keepdims=True)   # == x.var(axis=-1)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    np.multiply(g, xhat, out=y)
    y += b
    return y, (xhat, inv, g)


def _layernorm_bwd(dy, cache, scratch, key):
    xhat, inv, g = cache
    lead = tuple(range(dy.ndim - 1))
    tmp = np.multiply(dy, xhat, out=scratch.get("ln.tmp", dy.shape))
    dg = np.sum(tmp, axis=lead)
    db = np.sum(dy, axis=lead)
    dx = np.multiply(dy, g, out=scratch.get(key + "dx", dy.shape))   # dxhat
    mean1 = dx.mean(axis=-1, keepdims=True)
    mean2 = np.multiply(dx, xhat, out=tmp).mean(axis=-1, keepdims=True)
    dx -= mean1                                     # inv (dxhat - mean1 - xhat mean2)
    dx -= np.multiply(xhat, mean2, out=tmp)
    dx *= inv
    return dx, dg, db


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_fwd(x, scratch, key):
    # x * x * x: numpy's float pow is ~60x slower than two multiplies here
    t = np.multiply(x, x, out=scratch.get(key + "t", x.shape))
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.multiply(0.5, x, out=scratch.get(key + "y", x.shape))
    y *= np.add(1.0, t, out=scratch.get("gelu.1+t", x.shape))
    return y, (x, t)


def _gelu_bwd(dy, cache, scratch, key):
    x, t = cache
    dinner = np.multiply(t, t, out=scratch.get("gelu.dinner", x.shape))
    np.subtract(1.0, dinner, out=dinner)            # (1 - t^2) C (1 + 3 a x^2)
    dinner *= _GELU_C
    poly = np.multiply(x, 3 * 0.044715, out=scratch.get("gelu.poly", x.shape))
    poly *= x
    poly += 1.0
    dinner *= poly
    dx = np.add(t, 1.0, out=scratch.get(key + "dx", x.shape))
    dx *= 0.5                                       # dy (0.5 (1 + t) + 0.5 x dinner)
    np.multiply(x, 0.5, out=poly)
    poly *= dinner
    dx += poly
    dx *= dy
    return dx


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
    k = np.matmul(a, params[prefix + "wk"], out=scratch.get(prefix + "k", (n, d)))
    k += params[prefix + "kb"]
    v = np.matmul(a, params[prefix + "wv"], out=scratch.get(prefix + "v", (n, d)))
    v += params[prefix + "vb"]
    qh = _heads(q[:, None] if cls_only
                else _padded(q, slots, b, l, scratch, prefix + "qgrid"), n_heads)
    kh = _heads(_padded(k, slots, b, l, scratch, prefix + "kgrid"), n_heads)
    vh = _heads(_padded(v, slots, b, l, scratch, prefix + "vgrid"), n_heads)
    logits = np.matmul(qh, kh.transpose(0, 1, 3, 2),                # (B, H, Lq, L)
                       out=scratch.get(prefix + "probs", qh.shape[:3] + (l,)))
    logits /= math.sqrt(dh)
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
    dlogits /= math.sqrt(dh)
    dq = _rows(np.matmul(dlogits, kh, out=scratch.get("attn.dqh", qh.shape)),
               None if cls_only else slots, scratch, "attn.dq")
    dk = _rows(np.matmul(dlogits.transpose(0, 1, 3, 2), qh,
                         out=scratch.get("attn.dkh", kh.shape)), slots, scratch,
               "attn.dk")
    dv = _rows(dvh, slots, scratch, "attn.dv")
    da = np.matmul(dk, params[prefix + "wk"].T, out=scratch.get("attn.da", a.shape))
    da[cls if cls_only else slice(None)] += np.matmul(
        dq, params[prefix + "wq"].T, out=scratch.get("attn.daq", dq.shape))
    da += np.matmul(dv, params[prefix + "wv"].T, out=scratch.get("attn.dav", a.shape))
    for x, dz, w_name, b_name in ((aq, dq, "wq", "qb"), (a, dk, "wk", "kb"),
                                  (a, dv, "wv", "vb")):
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
        logp = log_softmax(scores, axis=-1)
        per_example = -logp[np.arange(n_examples), targets]
        dscores = (np.exp(logp) - np.eye(n_classes)[targets]) / n_examples
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


def restore_encoder(payload: dict, where: str = ""):
    """Rebuild (params, config, codec, recurrent) from a payload; ``where``
    is the field that holds it in a checkpoint that embeds it, and prefixes
    the fields a message names.

    Raises ValueError unless the payload records ``CHECKPOINT_FORMAT`` and
    ``TOKENIZER_VERSION``, holds no key but ``CHECKPOINT_KEYS`` (its codec
    none but the three it writes), ``mode`` is one of ``MODES``, ``config``
    holds every ``EncoderConfig`` field with a value of its type, the codec's
    text tokens are distinct strings, and the parameters are float blocks of
    exactly the names and shapes ``init_params`` gives.
    """
    if payload.get("kind") != "encoder":
        raise ValueError("not an encoder checkpoint")
    check_format(payload, "encoder")
    _block(payload, CHECKPOINT_KEYS, where, "checkpoint")
    check_tokenizer_version(payload)
    if payload["mode"] not in MODES:
        raise ValueError(f"mode {payload['mode']!r} is not one of {MODES}")
    config = _config_from(EncoderConfig, payload["config"],
                          _label(where, "config"), complete=True)
    codec = _block(payload["codec"], ("classes", "vocab_label_mode", "text_tokens"),
                   _label(where, "codec"), "checkpoint")
    vocab = TypeVocabulary(tuple(codec["classes"]), codec["vocab_label_mode"])
    tokens = codec["text_tokens"]
    if not isinstance(tokens, list) or not set(map(type, tokens)) <= {str}:
        raise ValueError("codec.text_tokens must be a list of strings")
    if len(set(tokens)) != len(tokens):
        raise ValueError("codec.text_tokens holds a token twice")
    codec = TokenCodec(vocab, tokens)
    params = {name: read_float_block(block, f"parameter {name!r}")
              for name, block in payload["params"].items()}
    check_params(params, init_params(config, codec))
    return params, config, codec, payload["mode"] == "recurrent"


def check_params(params: dict, expected: dict) -> None:
    """Raise ValueError unless ``params`` has the names and shapes of
    ``expected`` and every value is finite."""
    if params.keys() != expected.keys():
        raise ValueError(
            f"parameter names do not match the config: missing "
            f"{sorted(expected.keys() - params.keys())}, "
            f"unexpected {sorted(params.keys() - expected.keys())}")
    for name, value in expected.items():
        if params[name].shape != value.shape:
            raise ValueError(f"parameter {name!r} has shape {params[name].shape}, "
                             f"the config gives {value.shape}")
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"parameter {name!r} is not finite")


def load_checkpoint(path: Path | str) -> tuple[dict, str]:
    """The payload of a checkpoint file of any kind and the SHA-256 of the
    file's bytes; the file is read once."""
    text, digest = read_text_sha256(path)
    return parse_json(text), digest
