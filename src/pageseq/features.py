"""Page-text features: tokenization, a bounded vocabulary, and a
truncated-SVD projection.

The tokenizer rule is versioned (``TOKENIZER_VERSION``) and stored in every
encoder checkpoint, the one a CRF or BiLSTM checkpoint embeds included, so
stale artifacts are rejected instead of silently producing shifted
vocabularies.  Both sequence baselines read the frozen encoder's scores, so
no model but the encoder reads page text.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

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


def fit_vocabulary(page_tokens: Iterable[Sequence[str]],
                   cap: int = DEFAULT_VOCAB_CAP) -> tuple[str, ...]:
    """The bounded vocabulary of the tokens of training pages only, one
    ``tokenize`` result per page: the ``cap`` most frequent tokens by
    collection frequency, ties broken lexicographically, in that order."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    collection = Counter(chain.from_iterable(page_tokens))
    if not collection:
        raise ValueError("empty corpus: no tokens to fit a vocabulary on")
    return tuple(sorted(collection, key=lambda t: (-collection[t], t))[:cap])


@dataclass(frozen=True)
class SvdProjector:
    """Top-k right-singular basis of a matrix.

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
