"""Page-text features: tokenization, bounded vocabulary, TF-IDF weighting,
and a truncated-SVD projection to fixed-size page vectors.

The tokenizer rule is versioned (``TOKENIZER_VERSION``) and stored in every
persisted model that tokenizes page text (encoder checkpoints, the encoder a
CRF checkpoint embeds, and BiLSTM page-vector models), so stale artifacts
are rejected instead of silently producing shifted vocabularies.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import float_block, read_float_block

TOKENIZER_VERSION = "lower-wssplit-punctstrip/1"

DEFAULT_VOCAB_CAP = 60_000
DEFAULT_SVD_DIM = 300


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip leading/trailing
    punctuation, drop empty tokens."""
    tokens = []
    for piece in text.lower().split():
        i, j = 0, len(piece)
        # no alphanumeric character is in a Unicode P* category, so isalnum()
        # ends a strip before the slower category lookup
        while i < j and not piece[i].isalnum() and _is_punct(piece[i]):
            i += 1
        while j > i and not piece[j - 1].isalnum() and _is_punct(piece[j - 1]):
            j -= 1
        if j > i:
            tokens.append(piece[i:j])
    return tokens


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


def fit_vocabulary(page_tokens: Iterable[Sequence[str]],
                   cap: int = DEFAULT_VOCAB_CAP) -> Vocabulary:
    """Fit the vocabulary on the tokens of training pages only, one
    ``tokenize`` result per page."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    collection = Counter()
    doc_freq = Counter()
    n_pages = 0
    for toks in page_tokens:
        n_pages += 1
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


def fit_tfidf(vocabulary: Vocabulary, n_pages: int) -> TfIdfModel:
    """idf weights of a vocabulary fitted on ``n_pages`` training pages."""
    df = np.asarray(vocabulary.doc_freq, dtype=np.float64)
    idf = np.log((1.0 + n_pages) / (1.0 + df)) + 1.0
    return TfIdfModel(vocabulary=vocabulary, idf=idf, n_train_pages=n_pages)


def tfidf_matrix(page_tokens: Sequence[Sequence[str]],
                 model: TfIdfModel) -> np.ndarray:
    """(pages, V) tf x idf rows, each L2-normalized unless all-zero.
    Out-of-vocabulary tokens are ignored."""
    ids = model.vocabulary.token_ids()
    size = model.vocabulary.size
    cells = [row * size + ids[tok] for row, toks in enumerate(page_tokens)
             for tok in toks if tok in ids]
    counts = np.bincount(np.asarray(cells, dtype=np.int64),
                         minlength=len(page_tokens) * size)
    matrix = counts.reshape(len(page_tokens), size) * model.idf
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return np.divide(matrix, norms, out=matrix, where=norms > 0.0)


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
        if not (np.all(np.isfinite(basis)) and np.all(np.isfinite(sv))):
            raise ValueError("basis and singular values must be finite")
        if np.any(np.diff(sv) > 1e-12):
            raise ValueError("singular values must be non-increasing")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-6:
            raise ValueError("basis columns are not orthonormal")


def fit_svd(matrix: np.ndarray, k: int = DEFAULT_SVD_DIM) -> SvdProjector:
    """The top-k right-singular vectors and values of ``matrix``, from one
    exact LAPACK SVD."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not 1 <= k <= min(a.shape):
        raise ValueError(f"k={k} must be within 1..min(n_rows, n_cols)={min(a.shape)}")
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    return SvdProjector(basis=vt[:k].T, singular_values=sv[:k])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def check_tokenizer_version(payload: dict) -> None:
    """Raise ValueError unless ``payload`` records ``TOKENIZER_VERSION``."""
    if payload.get("tokenizer_version") != TOKENIZER_VERSION:
        raise ValueError(
            f"tokenizer version mismatch: artifact has "
            f"{payload.get('tokenizer_version')!r}, expected {TOKENIZER_VERSION!r}"
        )


def page_vector_payload(model: TfIdfModel, projector: SvdProjector) -> dict:
    """JSON-ready dict of a fitted TF-IDF model and SVD projector, tagged with
    the tokenizer version; its float arrays are float blocks."""
    return {
        "tokenizer_version": TOKENIZER_VERSION,
        "cap": model.vocabulary.cap,
        "tokens": list(model.vocabulary.tokens),
        "doc_freq": list(model.vocabulary.doc_freq),
        "idf": float_block(model.idf),
        "n_train_pages": model.n_train_pages,
        "basis": float_block(projector.basis),
        "singular_values": float_block(projector.singular_values),
    }


def page_vector_model_from_payload(payload: dict) -> tuple[TfIdfModel, SvdProjector]:
    """Inverse of ``page_vector_payload``; raises ValueError on a tokenizer
    version mismatch."""
    check_tokenizer_version(payload)
    vocab = Vocabulary(tuple(payload["tokens"]), tuple(payload["doc_freq"]),
                       payload["cap"])
    model = TfIdfModel(vocabulary=vocab,
                       idf=read_float_block(payload["idf"], "features.idf"),
                       n_train_pages=payload["n_train_pages"])
    projector = SvdProjector(
        basis=read_float_block(payload["basis"], "features.basis"),
        singular_values=read_float_block(payload["singular_values"],
                                         "features.singular_values"))
    return model, projector
