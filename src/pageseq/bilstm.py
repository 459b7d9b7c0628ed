"""BiLSTM sequence classifier over fixed-size page vectors.

One forward and one backward LSTM pass over each document's page vectors;
each page's logits come from a linear head over the concatenated directional
hidden states.  Handwritten backpropagation through time, trained with the
same optimizer and schedule machinery as the encoders (batched by document).
The CLI's BiLSTM baseline reads the frozen context-oblivious encoder's
log-softmax scores as its page vectors (k = n classes), the representation
the CRF reads too: a stacked labeller over a page classifier, as in Huang,
Xu & Yu (2015, arXiv 1508.01991).

Page vectors come as (pages x k) rows in document order with the document
offsets; a training batch gathers its documents' rows.  Each direction keeps
(pages x h) states and steps once per page position over all documents
(``corpus.page_positions``), as the CRF does: a page reads its incoming state
from its predecessor, one row up, or starts from zero on a first page.  The
backward direction runs the same steps over every document's rows reversed
within its own length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_softmax

from .corpus import document_rows, page_positions
from .training import TrainConfig, TrainReport, fit_adamw

# gate row order inside the stacked weight matrices: input, forget, cell, output


@dataclass(frozen=True)
class BiLstmConfig:
    input_dim: int
    n_classes: int
    hidden_dim: int = 128
    init_seed: int = 0

    def __post_init__(self):
        if min(self.input_dim, self.n_classes, self.hidden_dim) < 1:
            raise ValueError("dimensions must be >= 1")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")


def init_bilstm(config: BiLstmConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(config.init_seed)
    k, h, n = config.input_dim, config.hidden_dim, config.n_classes
    scale = 1.0 / math.sqrt(h)
    params = {}
    for direction in ("fw", "bw"):
        params[f"{direction}_w"] = rng.uniform(-scale, scale, size=(4 * h, k))
        params[f"{direction}_u"] = rng.uniform(-scale, scale, size=(4 * h, h))
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # forget-gate bias, the usual LSTM stabilizer
        params[f"{direction}_b"] = bias
    params["head_w"] = rng.uniform(-scale, scale, size=(2 * h, n))
    params["head_b"] = np.zeros(n)
    return params


def _lstm_run(x, positions, w, u, b):
    """One direction over (pages, k) inputs, one step per entry of
    ``positions``; returns the (pages, h) states and the tape for BPTT."""
    h_dim = u.shape[1]
    xw = x @ w.T
    hs = np.zeros((len(x), h_dim))
    cs = np.zeros((len(x), h_dim))
    gates = np.empty((len(x), 4 * h_dim))
    for t, rows in enumerate(positions):
        z = xw[rows] + (hs[rows - 1] @ u.T if t else 0.0) + b
        step = expit(z)
        step[:, 2 * h_dim:3 * h_dim] = np.tanh(z[:, 2 * h_dim:3 * h_dim])
        gates[rows] = step
        i, f, g, o = np.split(step, 4, axis=1)
        cs[rows] = c = f * (cs[rows - 1] if t else 0.0) + i * g
        hs[rows] = o * np.tanh(c)
    return hs, (x, positions, hs, cs, gates)


def _lstm_backward(dstates, tape, u):
    """BPTT for one direction; returns (dw, du, db), each one contraction
    over every page's gate gradients."""
    x, positions, hs, cs, gates = tape
    dz = np.empty_like(gates)
    dh = dstates.copy()
    dc_next = np.zeros_like(cs)
    for t, rows in reversed(list(enumerate(positions))):
        i, f, g, o = np.split(gates[rows], 4, axis=1)
        tc = np.tanh(cs[rows])
        do = dh[rows] * tc
        dc = dc_next[rows] + dh[rows] * o * (1.0 - tc * tc)
        c_prev = cs[rows - 1] if t else 0.0
        dz[rows] = step = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
             dc * i * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        if t:
            dc_next[rows - 1] = dc * f
            dh[rows - 1] += step @ u
    later = np.delete(np.arange(len(x)), positions[0])
    return dz.T @ x, dz[later].T @ hs[later - 1], dz.sum(axis=0)


def _forward(params: dict, vectors: np.ndarray, offsets: np.ndarray):
    """Logits (pages, n) in document order, and the tape of both directions."""
    positions = page_positions(offsets, len(vectors))
    lengths = np.diff(offsets)
    # backward row order: row r of a document on rows s..e-1 reads row s+e-1-r
    rev = (np.repeat(2 * np.cumsum(lengths) - lengths - 1, lengths)
           - np.arange(len(vectors)))
    fw, fw_tape = _lstm_run(vectors, positions,
                            params["fw_w"], params["fw_u"], params["fw_b"])
    bw, bw_tape = _lstm_run(vectors[rev], positions,
                            params["bw_w"], params["bw_u"], params["bw_b"])
    both = np.concatenate([fw, bw[rev]], axis=1)
    logits = both @ params["head_w"] + params["head_b"]
    return logits, (rev, both, fw_tape, bw_tape)


def bilstm_forward(params: dict, vectors: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray:
    """Per-page logits (pages, n) of the (pages, k) page vectors of the
    documents laid out by ``offsets``; each document needs at least one page."""
    return _forward(params, vectors, offsets)[0]


def bilstm_loss_and_grad(params: dict, vectors: np.ndarray, labels: np.ndarray,
                         offsets: np.ndarray
                         ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over every page of the documents laid out
    by ``offsets``, with exact gradients through both directions; ``labels``
    holds one class index per page."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(vectors),) or not len(labels):
        raise ValueError("labels must hold one label per page of a non-empty batch")
    n = params["head_b"].shape[0]
    if np.any((labels < 0) | (labels >= n)):
        raise ValueError(f"labels must be class indices in 0..{n - 1}")
    logits, (rev, both, fw_tape, bw_tape) = _forward(params, vectors, offsets)
    rows = np.arange(len(labels))
    logp = log_softmax(logits, axis=1)
    page_losses = -logp[rows, labels]
    if not np.all(np.isfinite(page_losses)):
        raise FloatingPointError("non-finite page loss")
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)
    grads = {"head_w": both.T @ dlogits, "head_b": dlogits.sum(axis=0)}
    dboth = dlogits @ params["head_w"].T
    h_dim = both.shape[1] // 2
    for direction, dstates, tape in (("fw", dboth[:, :h_dim], fw_tape),
                                     ("bw", dboth[rev, h_dim:], bw_tape)):
        grads[f"{direction}_w"], grads[f"{direction}_u"], grads[f"{direction}_b"] = \
            _lstm_backward(dstates, tape, params[f"{direction}_u"])
    return float(page_losses.sum()) / len(labels), grads


def bilstm_train(vectors: np.ndarray, labels: np.ndarray, offsets: np.ndarray,
                 config: BiLstmConfig, cfg: TrainConfig) -> tuple[dict, TrainReport]:
    """Train over documents (one batch element = one document), reusing the
    AdamW step and linear warmup/decay schedule; the arguments are those of
    ``bilstm_loss_and_grad`` for the whole training split."""
    if not len(vectors) == len(labels) == offsets[-1]:
        raise ValueError("vectors, labels and offsets must align")
    sizes = np.diff(offsets)
    params = init_bilstm(config)

    def batch_loss(chosen, epoch):
        rows = document_rows(offsets, chosen)
        return bilstm_loss_and_grad(params, vectors[rows], labels[rows],
                                    np.concatenate(([0], np.cumsum(sizes[chosen]))))

    return params, fit_adamw(params, len(sizes), batch_loss, cfg)
