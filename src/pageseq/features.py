"""Page-text features: tokenization, bounded vocabulary, TF-IDF weighting,
and a truncated-SVD projection to fixed-size page vectors.

The tokenizer rule is versioned (``TOKENIZER_VERSION``) and stored alongside
persisted models so stale artifacts are rejected instead of silently
producing shifted vocabularies.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import DocumentSequence

TOKENIZER_VERSION = "lower-wssplit-punctstrip/1"

DEFAULT_VOCAB_CAP = 60_000
DEFAULT_SVD_DIM = 300


class ConvergenceError(RuntimeError):
    """An iterative fit failed to reach its tolerance within the iteration cap."""


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip leading/trailing
    punctuation, drop empty tokens."""
    tokens = []
    for piece in text.lower().split():
        i, j = 0, len(piece)
        while i < j and _is_punct(piece[i]):
            i += 1
        while j > i and _is_punct(piece[j - 1]):
            j -= 1
        if j > i:
            tokens.append(piece[i:j])
    return tokens


def texts_of(docs: Sequence[DocumentSequence]) -> list[str]:
    """Flatten documents to their page texts, in corpus order."""
    return [page.text for doc in docs for page in doc.pages]


@dataclass(frozen=True)
class Vocabulary:
    """Bounded token vocabulary with dense ids 0..V-1.

    Kept tokens are the ``cap`` most frequent by collection frequency, ties
    broken lexicographically; ids follow that order.  ``doc_freq[i]`` is the
    number of training pages containing token i.
    """

    tokens: tuple[str, ...]
    doc_freq: tuple[int, ...]
    cap: int

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "doc_freq", tuple(self.doc_freq))
        if len(self.tokens) > self.cap:
            raise ValueError("vocabulary exceeds its cap")
        if len(self.tokens) != len(set(self.tokens)):
            raise ValueError("duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def token_ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}


def fit_vocabulary(page_texts: Iterable[str], cap: int = DEFAULT_VOCAB_CAP) -> Vocabulary:
    """Fit the vocabulary on training pages only."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    collection = Counter()
    doc_freq = Counter()
    n_pages = 0
    for text in page_texts:
        n_pages += 1
        toks = tokenize(text)
        collection.update(toks)
        doc_freq.update(set(toks))
    if n_pages == 0 or not collection:
        raise ValueError("empty corpus: no tokens to fit a vocabulary on")
    kept = sorted(collection, key=lambda t: (-collection[t], t))[:cap]
    return Vocabulary(
        tokens=tuple(kept),
        doc_freq=tuple(doc_freq[t] for t in kept),
        cap=cap,
    )


@dataclass(frozen=True)
class TfIdfModel:
    """idf weights over a fitted vocabulary; idf = ln((1+N)/(1+df)) + 1."""

    vocabulary: Vocabulary
    idf: np.ndarray
    n_train_pages: int

    def __post_init__(self):
        idf = np.asarray(self.idf, dtype=np.float64)
        object.__setattr__(self, "idf", idf)
        if idf.shape != (self.vocabulary.size,) or not np.all(np.isfinite(idf)):
            raise ValueError("idf must be a finite length-V vector")


def fit_tfidf(page_texts: Sequence[str], cap: int = DEFAULT_VOCAB_CAP,
              vocabulary: Vocabulary | None = None) -> TfIdfModel:
    page_texts = list(page_texts)
    if vocabulary is None:
        vocabulary = fit_vocabulary(page_texts, cap)
    n = len(page_texts)
    df = np.asarray(vocabulary.doc_freq, dtype=np.float64)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    return TfIdfModel(vocabulary=vocabulary, idf=idf, n_train_pages=n)


def tfidf_vector(text: str, model: TfIdfModel) -> np.ndarray:
    """tf x idf entries over the vocabulary, L2-normalized unless all-zero.
    Out-of-vocabulary tokens are ignored."""
    ids = model.vocabulary.token_ids()
    vec = np.zeros(model.vocabulary.size, dtype=np.float64)
    for tok in tokenize(text):
        i = ids.get(tok)
        if i is not None:
            vec[i] += 1.0
    vec *= model.idf
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


def tfidf_matrix(page_texts: Sequence[str], model: TfIdfModel) -> np.ndarray:
    return np.stack([tfidf_vector(t, model) for t in page_texts])


@dataclass(frozen=True)
class SvdProjector:
    """Top-k right-singular basis of the training TF-IDF matrix.

    ``basis`` is V x k with orthonormal columns; singular values are sorted
    non-increasing.
    """

    basis: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        sv = np.asarray(self.singular_values, dtype=np.float64)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "singular_values", sv)
        if basis.ndim != 2 or sv.shape != (basis.shape[1],):
            raise ValueError("basis must be V x k with k singular values")
        if np.any(np.diff(sv) > 1e-12):
            raise ValueError("singular values must be non-increasing")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-6:
            raise ValueError("basis columns are not orthonormal")

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def fit_svd(matrix: np.ndarray, k: int = DEFAULT_SVD_DIM, tol: float = 1e-8,
            max_iter: int = 500, seed: int = 0) -> SvdProjector:
    """Block power iteration for the top-k right-singular subspace.

    Each step multiplies the current orthonormal block by A^T A and
    re-orthonormalizes; singular values come from the Rayleigh-Ritz projection
    and iteration stops when their relative change falls below ``tol``.
    Deterministic for a fixed seed.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n_rows, n_cols = a.shape
    if not 1 <= k <= min(n_rows, n_cols):
        raise ValueError(f"k={k} must be within 1..min(n_rows, n_cols)={min(n_rows, n_cols)}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n_cols, k)))
    prev_sv = None
    for _ in range(max_iter):
        q, _ = np.linalg.qr(a.T @ (a @ q))
        # Rayleigh-Ritz on the k-dim subspace: exact values once q has converged
        small = (a @ q).T @ (a @ q)
        evals, evecs = np.linalg.eigh(small)
        sv = np.sqrt(np.clip(evals[::-1], 0.0, None))
        if prev_sv is not None and np.max(np.abs(sv - prev_sv)) <= tol * max(sv[0], 1.0):
            rotation = evecs[:, ::-1]
            return SvdProjector(basis=q @ rotation, singular_values=sv)
        prev_sv = sv
    raise ConvergenceError(
        f"SVD block power iteration did not converge in {max_iter} iterations"
    )


def project(text: str, model: TfIdfModel, projector: SvdProjector) -> np.ndarray:
    """Fixed-size page vector: basis^T applied to the page's TF-IDF vector."""
    return projector.basis.T @ tfidf_vector(text, model)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def page_vector_payload(model: TfIdfModel, projector: SvdProjector) -> dict:
    """JSON-ready dict of a fitted TF-IDF model and SVD projector, tagged with
    the tokenizer version."""
    return {
        "tokenizer_version": TOKENIZER_VERSION,
        "cap": model.vocabulary.cap,
        "tokens": list(model.vocabulary.tokens),
        "doc_freq": list(model.vocabulary.doc_freq),
        "idf": model.idf.tolist(),
        "n_train_pages": model.n_train_pages,
        "basis": projector.basis.tolist(),
        "singular_values": projector.singular_values.tolist(),
    }


def page_vector_model_from_payload(payload: dict) -> tuple[TfIdfModel, SvdProjector]:
    """Inverse of ``page_vector_payload``; raises ValueError on a tokenizer
    version mismatch."""
    if payload.get("tokenizer_version") != TOKENIZER_VERSION:
        raise ValueError(
            f"tokenizer version mismatch: artifact has "
            f"{payload.get('tokenizer_version')!r}, expected {TOKENIZER_VERSION!r}"
        )
    vocab = Vocabulary(tuple(payload["tokens"]), tuple(payload["doc_freq"]),
                       payload["cap"])
    model = TfIdfModel(vocabulary=vocab, idf=np.asarray(payload["idf"]),
                       n_train_pages=payload["n_train_pages"])
    projector = SvdProjector(basis=np.asarray(payload["basis"]),
                             singular_values=np.asarray(payload["singular_values"]))
    return model, projector


def save_page_vector_model(path: Path | str, model: TfIdfModel,
                           projector: SvdProjector) -> None:
    Path(path).write_text(json.dumps(page_vector_payload(model, projector),
                                     sort_keys=True), encoding="utf-8")


def load_page_vector_model(path: Path | str) -> tuple[TfIdfModel, SvdProjector]:
    return page_vector_model_from_payload(
        json.loads(Path(path).read_text(encoding="utf-8")))
