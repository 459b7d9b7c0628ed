"""BiLSTM sequence classifier over fixed-size page vectors.

One forward and one backward LSTM pass over each document's page vectors;
each page's logits come from a linear head over the concatenated directional
hidden states.  Handwritten backpropagation through time, trained with the
same optimizer and schedule machinery as the encoders (batched by document).

A batch is padded once, as for the CRF (``corpus.padded_documents``), and
each direction steps once per page position over all documents.  The
backward direction reads every document reversed within its own length, so
in both directions the padding comes after the last real page: a padded step
never feeds a real page, and as it carries no loss its gradient is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit, log_softmax

from .corpus import padded_documents
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


def _reversed_within(a: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each document's rows of a padded (docs x pages x ...) array reversed
    within its own length; the padding stays at the end.  Its own inverse."""
    t = np.arange(a.shape[1])
    order = np.where(t < lengths[:, None], lengths[:, None] - 1 - t, t)
    return a[np.arange(len(a))[:, None], order]


def _lstm_run(x, w, u, b):
    """One direction over padded (docs, pages, k) inputs, one step per page
    position; returns the (docs, pages, h) states and the tape for BPTT."""
    docs, width, _ = x.shape
    h_dim = u.shape[1]
    xw = x @ w.T
    # position t + 1 holds the state after page t; position 0 the zero state
    hs = np.zeros((docs, width + 1, h_dim))
    cs = np.zeros((docs, width + 1, h_dim))
    gates = np.empty((docs, width, 4 * h_dim))
    for t in range(width):
        z = xw[:, t] + hs[:, t] @ u.T + b
        gates[:, t] = expit(z)
        gates[:, t, 2 * h_dim:3 * h_dim] = np.tanh(z[:, 2 * h_dim:3 * h_dim])
        i, f, g, o = np.split(gates[:, t], 4, axis=1)
        cs[:, t + 1] = f * cs[:, t] + i * g
        hs[:, t + 1] = o * np.tanh(cs[:, t + 1])
    return hs[:, 1:], (x, hs, cs, gates)


def _lstm_backward(dstates, tape, u):
    """BPTT for one direction; returns (dw, du, db), each one contraction
    over every step's gate gradients."""
    x, hs, cs, gates = tape
    docs, width, h_dim = dstates.shape
    dz = np.empty_like(gates)
    dh_next = np.zeros((docs, h_dim))
    dc_next = np.zeros((docs, h_dim))
    for t in range(width - 1, -1, -1):
        i, f, g, o = np.split(gates[:, t], 4, axis=1)
        tc = np.tanh(cs[:, t + 1])
        dh = dstates[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dc_next = dc * f
        dz[:, t] = np.concatenate([dc * g * i * (1.0 - i), dc * cs[:, t] * f * (1.0 - f),
                                   dc * i * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        dh_next = dz[:, t] @ u
    dz = dz.reshape(-1, 4 * h_dim)
    return (dz.T @ x.reshape(len(dz), -1),
            dz.T @ hs[:, :-1].reshape(len(dz), h_dim), dz.sum(axis=0))


def _forward(params: dict, seqs: Sequence[np.ndarray]):
    """Logits (pages, n) in document order, and the tape of both directions."""
    x, mask = padded_documents(seqs, params["fw_w"].shape[1])
    lengths = mask.sum(axis=1)
    fw, fw_tape = _lstm_run(x, params["fw_w"], params["fw_u"], params["fw_b"])
    bw, bw_tape = _lstm_run(_reversed_within(x, lengths), params["bw_w"],
                            params["bw_u"], params["bw_b"])
    both = np.concatenate([fw, _reversed_within(bw, lengths)], axis=2)[mask]
    logits = both @ params["head_w"] + params["head_b"]
    return logits, (mask, lengths, both, fw_tape, bw_tape)


def bilstm_forward(params: dict, seqs: Sequence[np.ndarray]) -> np.ndarray:
    """Per-page logits (pages, n), in document order, of documents given as
    (l, k) page-vector arrays; every document needs at least one page."""
    return _forward(params, seqs)[0]


def bilstm_loss_and_grad(params: dict,
                         batch: Sequence[tuple[np.ndarray, Sequence[int]]]
                         ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over every page of the batch documents,
    with exact gradients through both directions.  Each document needs one
    label per page."""
    if not batch:
        raise ValueError("batch must be non-empty")
    seqs, label_seqs = zip(*batch)
    if [len(labels) for labels in label_seqs] != [len(x) for x in seqs]:
        raise ValueError("every document needs exactly one label per page")
    labels = np.concatenate([np.asarray(y, dtype=np.int64) for y in label_seqs])
    n = params["head_b"].shape[0]
    if np.any((labels < 0) | (labels >= n)):
        raise ValueError(f"labels must be class indices in 0..{n - 1}")
    logits, (mask, lengths, both, fw_tape, bw_tape) = _forward(params, seqs)
    rows = np.arange(len(labels))
    logp = log_softmax(logits, axis=1)
    page_losses = -logp[rows, labels]
    if not np.all(np.isfinite(page_losses)):
        raise FloatingPointError("non-finite page loss")
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)
    grads = {"head_w": both.T @ dlogits, "head_b": dlogits.sum(axis=0)}
    dboth = np.zeros(mask.shape + (both.shape[1],))
    dboth[mask] = dlogits @ params["head_w"].T
    h_dim = both.shape[1] // 2
    for direction, dstates, tape in (
            ("fw", dboth[..., :h_dim], fw_tape),
            ("bw", _reversed_within(dboth[..., h_dim:], lengths), bw_tape)):
        grads[f"{direction}_w"], grads[f"{direction}_u"], grads[f"{direction}_b"] = \
            _lstm_backward(dstates, tape, params[f"{direction}_u"])
    return float(page_losses.sum()) / len(labels), grads


def bilstm_train(sequences: Sequence[np.ndarray],
                 label_seqs: Sequence[Sequence[int]],
                 config: BiLstmConfig, cfg: TrainConfig) -> tuple[dict, TrainReport]:
    """Train over documents (one batch element = one document), reusing the
    AdamW step and linear warmup/decay schedule."""
    if len(sequences) != len(label_seqs):
        raise ValueError("sequences and labels must align")
    params = init_bilstm(config)

    def batch_loss(rows, epoch):
        return bilstm_loss_and_grad(
            params, [(sequences[i], label_seqs[i]) for i in rows])

    return params, fit_adamw(params, len(sequences), batch_loss, cfg)
