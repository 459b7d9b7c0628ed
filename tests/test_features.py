"""Tests for tokenization, vocabulary fitting, truncated SVD, and the
tokenizer-version check."""

import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given

from pageseq.features import (
    TOKENIZER_VERSION,
    SvdProjector,
    check_tokenizer_version,
    fit_svd,
    fit_vocabulary,
    tokenize,
)

from oracles import UNICODE_TEXT, jacobi_eigh, reference_tokenize


class TestTokenize:
    def test_basic(self):
        assert tokenize("Table of Contents.") == ["table", "of", "contents"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("... --- !!!") == []

    def test_interior_punctuation_kept(self):
        assert tokenize("(o'brien, v. state)") == ["o'brien", "v", "state"]

    def test_unicode_whitespace_and_punct(self):
        assert tokenize("A b «c»") == ["a", "b", "c"]

    def test_matches_reference_on_random_strings(self):
        """1k random strings against an independently written tokenizer."""
        rng = np.random.default_rng(7)
        pool = list("abcXYZ09.,;:!?()[]'\"-_ \t\n  ¿é«»")
        for _ in range(1000):
            length = int(rng.integers(0, 40))
            s = "".join(rng.choice(pool) for _ in range(length))
            assert tokenize(s) == reference_tokenize(s)

    @given(UNICODE_TEXT)
    def test_matches_reference_on_any_unicode_text(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_no_alphanumeric_character_is_punctuation(self):
        """What lets ``isalnum()`` end a strip before the category lookup."""
        assert [c for c in map(chr, range(sys.maxunicode + 1))
                if c.isalnum() and unicodedata.category(c).startswith("P")] == []


class TestVocabulary:
    def test_cap_keeps_most_frequent(self):
        texts = ["a a a b b c"]
        assert fit_vocabulary(map(tokenize, texts), cap=2) == ("a", "b")

    def test_cap_larger_than_distinct(self):
        vocab = fit_vocabulary(map(tokenize, ["x y", "y z"]), cap=100)
        assert set(vocab) == {"x", "y", "z"}

    def test_ties_broken_lexicographically(self):
        """Oracle: sort-based reference selection on the stated key."""
        texts = ["b a", "d c", "a b"]
        counts = {"a": 2, "b": 2, "c": 1, "d": 1}
        expected = sorted(counts, key=lambda t: (-counts[t], t))[:3]
        vocab = fit_vocabulary(map(tokenize, texts), cap=3)
        assert list(vocab) == expected == ["a", "b", "c"]

    def test_ids_are_dense_and_ordered(self):
        """A token's id is its position: most frequent first."""
        vocab = fit_vocabulary(map(tokenize, ["c c c b b a"]), cap=10)
        assert {tok: i for i, tok in enumerate(vocab)} == {"c": 0, "b": 1, "a": 2}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            fit_vocabulary(map(tokenize, []), cap=5)
        with pytest.raises(ValueError, match="empty corpus"):
            fit_vocabulary(map(tokenize, ["...", ""]), cap=5)


def random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols))


class TestSvd:
    def test_rank_one_singular_value_is_frobenius_norm(self):
        rng = np.random.default_rng(0)
        a = np.outer(rng.standard_normal(8), rng.standard_normal(5))
        proj = fit_svd(a, k=1)
        assert proj.singular_values[0] == pytest.approx(
            np.linalg.norm(a, "fro"), rel=1e-10)

    def test_equal_norm_orthogonal_rows_give_equal_values(self):
        q, _ = np.linalg.qr(random_matrix(6, 3, 1))
        a = 2.5 * q.T  # 3 orthogonal rows of norm 2.5
        proj = fit_svd(a, k=3)
        np.testing.assert_allclose(proj.singular_values, 2.5, rtol=1e-8)

    def test_matches_jacobi_gram_eigensolver(self):
        """Top-5 values of random 50x30 matrices vs the exhaustive oracle."""
        for seed in range(3):
            a = random_matrix(50, 30, seed)
            proj = fit_svd(a, k=5)
            evals, _ = jacobi_eigh(a.T @ a)
            expected = np.sqrt(evals[:5])
            np.testing.assert_allclose(proj.singular_values, expected, atol=1e-5)

    def test_values_non_increasing_and_basis_orthonormal(self):
        a = random_matrix(40, 25, 5)
        proj = fit_svd(a, k=6)
        assert np.all(np.diff(proj.singular_values) <= 1e-12)
        gram = proj.basis.T @ proj.basis
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-6)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k="):
            fit_svd(random_matrix(4, 3, 0), k=4)

    def test_deterministic(self):
        a = random_matrix(30, 20, 9)
        p1 = fit_svd(a, k=4)
        p2 = fit_svd(a, k=4)
        np.testing.assert_array_equal(p1.basis, p2.basis)
        np.testing.assert_array_equal(p1.singular_values, p2.singular_values)


class TestProject:
    @pytest.fixture()
    def fitted(self):
        rows = random_matrix(30, 8, 13)
        return rows, fit_svd(rows, k=3)

    def test_zero_vector_projects_to_zero(self, fitted):
        _, projector = fitted
        np.testing.assert_array_equal(np.zeros(8) @ projector.basis, np.zeros(3))

    def test_basis_column_picks_coordinate(self):
        basis = np.eye(5)[:, :2]
        proj = SvdProjector(basis=basis, singular_values=np.array([2.0, 1.0]))
        x = np.array([3.0, -1.0, 4.0, 0.0, 2.0])
        np.testing.assert_array_equal(basis.T @ x, x[:2])

    def test_projection_is_linear(self, fitted):
        rows, projector = fitted
        x, y = rows[0], rows[1]
        lhs = projector.basis.T @ (2.0 * x + 0.5 * y)
        rhs = 2.0 * (projector.basis.T @ x) + 0.5 * (projector.basis.T @ y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_reconstruction_never_grows_norm(self, fitted):
        rows, projector = fitted
        for x in rows:
            recon = projector.basis @ (projector.basis.T @ x)
            assert np.linalg.norm(x - recon) <= np.linalg.norm(x) + 1e-12


class TestPersistence:
    def test_version_mismatch_rejected(self):
        check_tokenizer_version({"tokenizer_version": TOKENIZER_VERSION})
        for payload in ({"tokenizer_version": "other/0"}, {}):
            with pytest.raises(ValueError, match="tokenizer version"):
                check_tokenizer_version(payload)
