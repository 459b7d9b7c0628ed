"""Linear-chain CRF over frozen per-page scores.

The encoder is used purely as a feature extractor: its saved logits become
log-softmax emissions, and only the CRF's own parameters (start scores, a
transition matrix, and one positive emission scale) are fit (Lafferty et al.,
2001).  The fit maximizes the regularized sequence log-likelihood with
scipy's L-BFGS-B (Liu & Nocedal, 1989), whose bound keeps the emission scale
above a small positive floor.  No gradient ever reaches the encoder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_softmax

_SCALE_FLOOR = 1e-6


@dataclass(eq=False)
class CrfModel:
    """transition[i, j] scores label j following label i; no end scores."""

    transition: np.ndarray
    start: np.ndarray
    emission_scale: float = 1.0

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.start = np.asarray(self.start, dtype=np.float64)
        n = self.start.shape[0]
        if self.transition.shape != (n, n):
            raise ValueError("transition must be n x n matching start")
        if not (np.all(np.isfinite(self.transition))
                and np.all(np.isfinite(self.start))
                and np.isfinite(self.emission_scale)):
            raise ValueError("CRF parameters must be finite")

    @property
    def n(self) -> int:
        return self.start.shape[0]


def emissions_from_logits(logits: np.ndarray) -> np.ndarray:
    """Log-softmax emissions from frozen per-page score vectors (l x n)."""
    return log_softmax(np.asarray(logits, dtype=np.float64), axis=-1)


def _logsumexp(x, axis=None):
    if axis is None:
        m = float(np.max(x))
        return m + float(np.log(np.sum(np.exp(x - m))))
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def crf_path_score(model: CrfModel, emissions: np.ndarray,
                   labels: Sequence[int]) -> float:
    """Unnormalized score of one label path."""
    labels = list(labels)
    s = model.start[labels[0]] + model.emission_scale * emissions[0, labels[0]]
    for t in range(1, len(labels)):
        s += model.transition[labels[t - 1], labels[t]]
        s += model.emission_scale * emissions[t, labels[t]]
    return float(s)


def crf_log_forward(model: CrfModel, emissions: np.ndarray) -> float:
    """log Z by the forward recursion (log-sum-exp over all n^l paths)."""
    emissions = np.asarray(emissions, dtype=np.float64)
    alpha = model.start + model.emission_scale * emissions[0]
    for t in range(1, emissions.shape[0]):
        alpha = model.emission_scale * emissions[t] + \
            _logsumexp(alpha[:, None] + model.transition, axis=0)
    return float(_logsumexp(alpha))


def crf_viterbi(model: CrfModel, emissions: np.ndarray) -> tuple[list[int], float]:
    """Best label path and its score; ties break toward the lower label index
    at every backpointer (argmax picks the first maximum)."""
    emissions = np.asarray(emissions, dtype=np.float64)
    length = emissions.shape[0]
    delta = model.start + model.emission_scale * emissions[0]
    pointers = np.zeros((length, model.n), dtype=np.int64)
    for t in range(1, length):
        candidates = delta[:, None] + model.transition
        pointers[t] = np.argmax(candidates, axis=0)
        delta = model.emission_scale * emissions[t] + np.max(candidates, axis=0)
    best_last = int(np.argmax(delta))
    path = [best_last]
    for t in range(length - 1, 0, -1):
        path.append(int(pointers[t, path[-1]]))
    path.reverse()
    return path, float(np.max(delta))


def crf_forward_backward(model: CrfModel, emissions: np.ndarray):
    """Posterior unary marginals (l x n), pairwise marginals ((l-1) x n x n),
    and log Z, all in a numerically stable log-space recursion."""
    emissions = np.asarray(emissions, dtype=np.float64)
    length, n = emissions.shape
    scaled = model.emission_scale * emissions
    alpha = np.zeros((length, n))
    alpha[0] = model.start + scaled[0]
    for t in range(1, length):
        alpha[t] = scaled[t] + _logsumexp(alpha[t - 1][:, None] + model.transition,
                                          axis=0)
    beta = np.zeros((length, n))
    for t in range(length - 2, -1, -1):
        beta[t] = _logsumexp(model.transition + scaled[t + 1] + beta[t + 1],
                             axis=1)
    log_z = float(_logsumexp(alpha[-1]))
    unary = np.exp(alpha + beta - log_z)
    pair = np.zeros((max(length - 1, 0), n, n))
    for t in range(length - 1):
        joint = alpha[t][:, None] + model.transition + scaled[t + 1] + beta[t + 1]
        pair[t] = np.exp(joint - log_z)
    return unary, pair, log_z


def crf_log_likelihood_and_grad(model: CrfModel,
                                emission_seqs: Sequence[np.ndarray],
                                gold_seqs: Sequence[Sequence[int]],
                                l2: float = 0.0):
    """Sum over sequences of [gold path score - log Z] minus l2 * ||T||^2,
    with its gradient w.r.t. (transition, start, emission_scale).

    The gradient is empirical-minus-expected feature counts from the
    forward-backward marginals.
    """
    if len(emission_seqs) != len(gold_seqs):
        raise ValueError("emissions and gold label sequences must align")
    n = model.n
    ll = 0.0
    grad_t = np.zeros((n, n))
    grad_start = np.zeros(n)
    grad_scale = 0.0
    for emissions, gold in zip(emission_seqs, gold_seqs):
        emissions = np.asarray(emissions, dtype=np.float64)
        gold = list(gold)
        if emissions.shape[0] != len(gold):
            raise ValueError("emission/label length mismatch")
        unary, pair, log_z = crf_forward_backward(model, emissions)
        ll += crf_path_score(model, emissions, gold) - log_z
        grad_start[gold[0]] += 1.0
        grad_start -= unary[0]
        for t in range(1, len(gold)):
            grad_t[gold[t - 1], gold[t]] += 1.0
        grad_t -= pair.sum(axis=0)
        gold_emission = sum(emissions[t, y] for t, y in enumerate(gold))
        grad_scale += gold_emission - float((unary * emissions).sum())
    ll -= l2 * float((model.transition ** 2).sum())
    grad_t -= 2.0 * l2 * model.transition
    return ll, grad_t, grad_start, grad_scale


def crf_fit(emission_seqs: Sequence[np.ndarray],
            gold_seqs: Sequence[Sequence[int]],
            n_classes: int,
            l2: float = 0.0,
            tol: float = 1e-6,
            max_iter: int = 1000) -> CrfModel:
    """Maximize the regularized log-likelihood with L-BFGS-B (Liu & Nocedal,
    1989), starting from zero scores and an emission scale of 1.

    The objective is concave, so its negation is minimized.  The emission
    scale is bounded below by a small positive floor.  The fit converges when
    the projected gradient's max-norm falls under ``tol``; otherwise a
    non-convergence warning is emitted and the last iterate returned.
    """
    size = n_classes * n_classes

    def unpack(x):
        return CrfModel(transition=x[:size].reshape(n_classes, n_classes),
                        start=x[size:-1], emission_scale=float(x[-1]))

    def negated(x):
        ll, g_t, g_s, g_e = crf_log_likelihood_and_grad(
            unpack(x), emission_seqs, gold_seqs, l2)
        return -ll, -np.concatenate([g_t.ravel(), g_s, [g_e]])

    x0 = np.zeros(size + n_classes + 1)
    x0[-1] = 1.0
    bounds = [(None, None)] * (size + n_classes) + [(_SCALE_FLOOR, None)]
    # gtol is L-BFGS-B's projected-gradient test; ftol=0 stops it from
    # reporting success on a small objective change before tol is reached
    result = minimize(negated, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                      options={"gtol": tol, "ftol": 0.0, "maxiter": max_iter})
    if not result.success:
        warnings.warn(f"CRF fit did not converge in {result.nit} iterations "
                      f"({result.message})")
    return unpack(result.x)


def decode_documents(model: CrfModel,
                     emission_seqs: Sequence[np.ndarray]) -> list[list[int]]:
    return [crf_viterbi(model, e)[0] for e in emission_seqs]
