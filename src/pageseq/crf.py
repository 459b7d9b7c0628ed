"""Linear-chain CRF over frozen per-page scores.

The encoder is used purely as a feature extractor: its saved logits become
log-softmax emissions, and only the CRF's own parameters (start scores, a
transition matrix, and one positive emission scale) are fit (Lafferty et al.,
2001).  The fit maximizes the regularized sequence log-likelihood with
scipy's L-BFGS-B (Liu & Nocedal, 1989), whose bound keeps the emission scale
above a small positive floor.  No gradient ever reaches the encoder.

Emissions come as (pages x n) rows in document order with the document
offsets, gold labels as one class index per page.  Every recursion keeps one
(pages x n) array and steps once per page position over all documents
(``corpus.page_positions``), as ``recurrence.infer_split`` does: page t's
forward and Viterbi scores come from its predecessor's, one row up, and the
predecessor's backward scores from page t's.  A document's log Z is read at
its last row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_softmax, logsumexp

from .corpus import page_positions

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
        if self.start.ndim != 1 or self.transition.shape != self.start.shape * 2:
            raise ValueError("start must be a vector of n scores, transition n x n")
        if not (np.all(np.isfinite(self.transition))
                and np.all(np.isfinite(self.start))
                and np.isfinite(self.emission_scale) and self.emission_scale > 0):
            raise ValueError("CRF parameters must be finite and the scale positive")

    @property
    def n(self) -> int:
        return self.start.shape[0]


@dataclass(frozen=True, eq=False)
class CrfFit:
    """A fitted CRF and how its L-BFGS-B run ended: whether it converged,
    how many iterations it took, and the max-norm of the projected gradient
    at the returned parameters, the quantity the fit's ``tol`` bounds."""

    model: CrfModel
    converged: bool
    iterations: int
    projected_gradient_max: float


def emissions_from_logits(logits: np.ndarray) -> np.ndarray:
    """Log-softmax emissions from frozen per-page score vectors (l x n)."""
    return log_softmax(np.asarray(logits, dtype=np.float64), axis=-1)


def crf_viterbi(model: CrfModel, emissions: np.ndarray, offsets: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The best label path of every document, as the (pages,) class indices
    in document order, and the (docs,) path scores; ties break toward the
    lower label index at every backpointer (argmax picks the first maximum)."""
    positions = page_positions(offsets, len(emissions))
    scaled = model.emission_scale * emissions
    delta = model.start + scaled  # first pages; the walk overwrites the rest
    pointers = np.zeros(scaled.shape, dtype=np.int64)
    for rows in positions[1:]:
        candidates = delta[rows - 1, :, None] + model.transition
        pointers[rows] = np.argmax(candidates, axis=1)
        delta[rows] = scaled[rows] + np.max(candidates, axis=1)
    last = np.asarray(offsets)[1:] - 1
    paths = np.zeros(len(emissions), dtype=np.int64)
    paths[last] = np.argmax(delta[last], axis=1)
    for rows in reversed(positions[1:]):
        paths[rows - 1] = pointers[rows, paths[rows]]
    return paths, np.max(delta[last], axis=1)


def crf_log_likelihood_and_grad(model: CrfModel, emissions: np.ndarray,
                                labels: np.ndarray, offsets: np.ndarray,
                                l2: float = 0.0):
    """Sum over documents of [gold path score - log Z] minus l2 * ||T||^2,
    with its gradient w.r.t. (transition, start, emission_scale); ``labels``
    holds each page's gold class index.

    The gradient is empirical-minus-expected feature counts from the
    forward-backward marginals.
    """
    positions = page_positions(offsets, len(emissions))
    offsets = np.asarray(offsets)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(emissions),):
        raise ValueError("gold labels must match the emissions in length")
    if np.any((labels < 0) | (labels >= model.n)):
        raise ValueError(f"gold labels must be class indices in 0..{model.n - 1}")
    gold = np.eye(model.n)[labels]  # one-hot
    scaled = model.emission_scale * emissions
    first, last = offsets[:-1], offsets[1:] - 1
    # the rows of every page but a first one, each the successor of row - 1
    later = np.delete(np.arange(len(emissions)), first)

    alpha = model.start + scaled  # first pages; the walk overwrites the rest
    for rows in positions[1:]:
        alpha[rows] = scaled[rows] + logsumexp(alpha[rows - 1, :, None]
                                               + model.transition, axis=1)
    beta = np.zeros_like(scaled)
    for rows in reversed(positions[1:]):
        beta[rows - 1] = logsumexp(model.transition + scaled[rows, None, :]
                                   + beta[rows, None, :], axis=2)
    log_z = logsumexp(alpha[last], axis=1)

    # posterior marginals, each page's normalized by its document's log Z
    page_z = np.repeat(log_z, np.diff(offsets))
    unary = np.exp(alpha + beta - page_z[:, None])
    pair = np.exp(alpha[later - 1, :, None] + model.transition
                  + scaled[later, None, :] + beta[later, None, :]
                  - page_z[later, None, None])

    gold_pairs = gold[later - 1].T @ gold[later]
    ll = ((model.start * gold[first]).sum() + (model.transition * gold_pairs).sum()
          + (scaled * gold).sum() - log_z.sum() - l2 * (model.transition ** 2).sum())
    grad_t = gold_pairs - pair.sum(axis=0) - 2.0 * l2 * model.transition
    grad_start = (gold[first] - unary[first]).sum(axis=0)
    grad_scale = ((gold - unary) * emissions).sum()
    return float(ll), grad_t, grad_start, float(grad_scale)


def check_l2(l2: float) -> None:
    """Raise ValueError unless ``l2`` is a valid transition penalty: >= 0
    and finite, which keeps the objective concave."""
    if not (l2 >= 0 and np.isfinite(l2)):
        raise ValueError("l2 must be >= 0 and finite")


def crf_fit(emissions: np.ndarray,
            labels: np.ndarray,
            offsets: np.ndarray,
            l2: float = 0.0,
            tol: float = 1e-6,
            max_iter: int = 1000) -> CrfFit:
    """Maximize the regularized log-likelihood with L-BFGS-B (Liu & Nocedal,
    1989), starting from zero scores and an emission scale of 1, on the
    arguments of ``crf_log_likelihood_and_grad``.

    The objective is concave, so its negation is minimized.  The emission
    scale is bounded below by a small positive floor.  The fit converged if
    the projected gradient's max-norm at the returned parameters is at most
    ``tol``, however L-BFGS-B stopped; otherwise a non-convergence warning is
    emitted and the last iterate returned.  The model comes back in a
    ``CrfFit`` that also says how the run ended.
    Concavity needs ``l2 >= 0``; any other ``l2`` is a ValueError.
    """
    check_l2(l2)
    n_classes = emissions.shape[1]
    size = n_classes * n_classes

    def unpack(x):
        return CrfModel(transition=x[:size].reshape(n_classes, n_classes),
                        start=x[size:-1], emission_scale=float(x[-1]))

    def negated(x):
        ll, g_t, g_s, g_e = crf_log_likelihood_and_grad(
            unpack(x), emissions, labels, offsets, l2)
        return -ll, -np.concatenate([g_t.ravel(), g_s, [g_e]])

    x0 = np.zeros(size + n_classes + 1)
    x0[-1] = 1.0
    bounds = [(None, None)] * (size + n_classes) + [(_SCALE_FLOOR, None)]
    # gtol is L-BFGS-B's projected-gradient test; ftol=0 stops it from
    # reporting success on a small objective change before tol is reached
    result = minimize(negated, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                      options={"gtol": tol, "ftol": 0.0, "maxiter": max_iter})
    # L-BFGS-B's projected gradient: a descent step the scale's floor blocks
    # shrinks to the distance left to that floor
    projected = result.jac.copy()
    if projected[-1] > 0:
        projected[-1] = min(projected[-1], result.x[-1] - _SCALE_FLOOR)
    gradient_max = float(np.abs(projected).max())
    # not result.success: L-BFGS-B also reports success when f stops
    # decreasing, whatever the gradient
    converged = gradient_max <= tol
    if not converged:
        warnings.warn(f"CRF fit did not converge in {result.nit} iterations: "
                      f"projected gradient {gradient_max:.3g} > tol {tol:g} "
                      f"({result.message})")
    return CrfFit(unpack(result.x), converged=converged, iterations=int(result.nit),
                  projected_gradient_max=gradient_max)
