"""BiLSTM sequence classifier over fixed-size page vectors.

One forward and one backward LSTM pass over a document's page vectors; each
page's logits come from a linear head over the concatenated directional
hidden states.  Handwritten backpropagation through time, trained with the
same optimizer and schedule machinery as the encoders (batched by document).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit, log_softmax

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


def _lstm_run(x, w, u, b):
    """One direction over (l, k) inputs; returns (l, h) hidden states + caches."""
    length = x.shape[0]
    h_dim = u.shape[1]
    h_prev = np.zeros(h_dim)
    c_prev = np.zeros(h_dim)
    states = np.zeros((length, h_dim))
    caches = []
    for t in range(length):
        z = w @ x[t] + u @ h_prev + b
        i = expit(z[:h_dim])
        f = expit(z[h_dim:2 * h_dim])
        g = np.tanh(z[2 * h_dim:3 * h_dim])
        o = expit(z[3 * h_dim:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        states[t] = o * tc
        caches.append((x[t], h_prev, c_prev, i, f, g, o, tc))
        h_prev, c_prev = states[t], c
    return states, caches


def _lstm_backward(dstates, caches, w, u):
    """BPTT for one direction; returns (dx, dw, du, db)."""
    length, h_dim = dstates.shape
    dw = np.zeros_like(w)
    du = np.zeros_like(u)
    db = np.zeros(4 * h_dim)
    dx = np.zeros((length, w.shape[1]))
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)
    for t in range(length - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, tc = caches[t]
        dh = dstates[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ])
        dw += np.outer(dz, x_t)
        du += np.outer(dz, h_prev)
        db += dz
        dx[t] = w.T @ dz
        dh_next = u.T @ dz
    return dx, dw, du, db


def bilstm_forward(params: dict, x: np.ndarray) -> np.ndarray:
    """Per-page logits (l, n) for one document's page vectors (l, k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need a non-empty (l, k) vector sequence")
    fw, _ = _lstm_run(x, params["fw_w"], params["fw_u"], params["fw_b"])
    bw_rev, _ = _lstm_run(x[::-1], params["bw_w"], params["bw_u"], params["bw_b"])
    both = np.concatenate([fw, bw_rev[::-1]], axis=1)
    return both @ params["head_w"] + params["head_b"]


def bilstm_loss_and_grad(params: dict,
                         batch: Sequence[tuple[np.ndarray, Sequence[int]]]
                         ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over every page of the batch documents,
    with exact gradients through both directions."""
    if not batch:
        raise ValueError("batch must be non-empty")
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    h2 = params["head_w"].shape[0]
    h_dim = h2 // 2
    total_pages = sum(len(labels) for _, labels in batch)
    loss = 0.0
    for x, labels in batch:
        x = np.asarray(x, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        fw, fw_cache = _lstm_run(x, params["fw_w"], params["fw_u"], params["fw_b"])
        bw_rev, bw_cache = _lstm_run(x[::-1], params["bw_w"], params["bw_u"],
                                     params["bw_b"])
        both = np.concatenate([fw, bw_rev[::-1]], axis=1)
        logits = both @ params["head_w"] + params["head_b"]
        logp = log_softmax(logits, axis=1)
        page_losses = -logp[np.arange(len(labels)), labels]
        if not np.all(np.isfinite(page_losses)):
            raise FloatingPointError("non-finite page loss")
        loss += float(page_losses.sum())
        dlogits = np.exp(logp)
        dlogits[np.arange(len(labels)), labels] -= 1.0
        dlogits /= total_pages
        grads["head_w"] += both.T @ dlogits
        grads["head_b"] += dlogits.sum(axis=0)
        dboth = dlogits @ params["head_w"].T
        dx_f, dw, du, db = _lstm_backward(dboth[:, :h_dim], fw_cache,
                                          params["fw_w"], params["fw_u"])
        grads["fw_w"] += dw
        grads["fw_u"] += du
        grads["fw_b"] += db
        dx_b, dw, du, db = _lstm_backward(dboth[::-1, h_dim:], bw_cache,
                                          params["bw_w"], params["bw_u"])
        grads["bw_w"] += dw
        grads["bw_u"] += du
        grads["bw_b"] += db
    return loss / total_pages, grads


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


def bilstm_predict(params: dict, x: np.ndarray) -> list[int]:
    """Per-page argmax labels for one document."""
    return [int(c) for c in np.argmax(bilstm_forward(params, x), axis=1)]
