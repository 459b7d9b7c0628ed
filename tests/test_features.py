"""Tests for tokenization, vocabulary fitting, TF-IDF, and truncated SVD."""

import json
import sys
import unicodedata
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pageseq.corpus import SynthConfig, generate_synthetic
from pageseq.features import (
    TOKENIZER_VERSION,
    SvdProjector,
    fit_svd,
    fit_tfidf,
    fit_vocabulary,
    page_vector_model_from_payload,
    page_vector_payload,
    tfidf_matrix,
    tokenize,
)
from pageseq.recurrence import page_tokens

from oracles import UNICODE_TEXT, jacobi_eigh, reference_tokenize, tfidf_vector


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
        vocab = fit_vocabulary(map(tokenize, texts), cap=2)
        assert vocab.tokens == ("a", "b")

    def test_cap_larger_than_distinct(self):
        vocab = fit_vocabulary(map(tokenize, ["x y", "y z"]), cap=100)
        assert set(vocab.tokens) == {"x", "y", "z"}

    def test_ties_broken_lexicographically(self):
        """Oracle: sort-based reference selection on the stated key."""
        texts = ["b a", "d c", "a b"]
        counts = {"a": 2, "b": 2, "c": 1, "d": 1}
        expected = sorted(counts, key=lambda t: (-counts[t], t))[:3]
        vocab = fit_vocabulary(map(tokenize, texts), cap=3)
        assert list(vocab.tokens) == expected == ["a", "b", "c"]

    def test_ids_are_dense_and_ordered(self):
        vocab = fit_vocabulary(map(tokenize, ["c c c b b a"]), cap=10)
        assert vocab.token_ids() == {"c": 0, "b": 1, "a": 2}

    def test_doc_freq_counts_pages(self):
        vocab = fit_vocabulary(map(tokenize, ["a a b", "a c", "c"]), cap=10)
        ids = vocab.token_ids()
        assert vocab.doc_freq[ids["a"]] == 2
        assert vocab.doc_freq[ids["c"]] == 2
        assert vocab.doc_freq[ids["b"]] == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            fit_vocabulary(map(tokenize, []), cap=5)
        with pytest.raises(ValueError, match="empty corpus"):
            fit_vocabulary(map(tokenize, ["...", ""]), cap=5)


# Four-page fixture; idf and tf*idf products below were computed by hand from
# idf = ln((1+N)/(1+df)) + 1 with N = 4.
HAND_PAGES = ["cat dog", "cat cat fish", "dog bird", "cat bird bird bird"]
LN_5_4 = 0.22314355131420976
LN_5_3 = 0.5108256237659907
LN_5_2 = 0.9162907318741551
# id order by (-collection_freq, token): bird(4), cat(4), dog(2), fish(1)
HAND_IDF = [1.0 + LN_5_3, 1.0 + LN_5_4, 1.0 + LN_5_3, 1.0 + LN_5_2]


def tokenized(texts):
    return [tokenize(t) for t in texts]


def tfidf_of(pages_tokens):
    """The TF-IDF model of the vocabulary fitted on tokenized pages."""
    return fit_tfidf(fit_vocabulary(pages_tokens), len(pages_tokens))


def tfidf_row(text, model):
    return tfidf_matrix([tokenize(text)], model)[0]


class TestTfIdf:
    def test_idf_table(self):
        model = tfidf_of(tokenized(HAND_PAGES))
        assert list(model.vocabulary.tokens) == ["bird", "cat", "dog", "fish"]
        np.testing.assert_allclose(model.idf, HAND_IDF, rtol=0, atol=1e-15)

    def test_hand_computed_vectors(self):
        model = tfidf_of(tokenized(HAND_PAGES))
        raw_p2 = np.array([0.0, 2 * (1.0 + LN_5_4), 0.0, 1.0 + LN_5_2])
        np.testing.assert_allclose(
            tfidf_row("cat cat fish", model),
            raw_p2 / np.linalg.norm(raw_p2), atol=1e-15)
        raw_p4 = np.array([3 * (1.0 + LN_5_3), 1.0 + LN_5_4, 0.0, 0.0])
        np.testing.assert_allclose(
            tfidf_row("cat bird bird bird", model),
            raw_p4 / np.linalg.norm(raw_p4), atol=1e-15)

    def test_oov_page_is_zero_vector(self):
        model = tfidf_of(tokenized(HAND_PAGES))
        vec = tfidf_row("unseen words only", model)
        np.testing.assert_array_equal(vec, np.zeros(4))

    def test_single_token_page_is_unit_vector(self):
        model = tfidf_of(tokenized(HAND_PAGES))
        vec = tfidf_row("cat cat cat", model)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        assert np.count_nonzero(vec) == 1

    def test_token_in_every_page_has_min_idf(self):
        model = tfidf_of(tokenized(["the cat", "the dog", "the fish"]))
        ids = model.vocabulary.token_ids()
        assert model.idf[ids["the"]] == pytest.approx(model.idf.min())


# Pages of arbitrary Unicode text, some built from a small word pool so that
# vocabularies, repeats and pages without any in-vocabulary token all occur.
WORDS = ["cat", "Dog,", "«fish»", "o'brien", "...", "é", "\u3000", "bird!"]
unicode_pages = st.lists(
    st.one_of(st.text(max_size=30),
              st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)),
    min_size=1, max_size=8)


class TestTfIdfMatrix:
    @given(train=unicode_pages, pages=unicode_pages)
    def test_matches_per_page_oracle(self, train, pages):
        """Rows equal the per-page reference; a page with no in-vocabulary
        token is an all-zero row, and no RuntimeWarning is raised."""
        train = train + ["cat"]  # at least one token to fit on
        model = tfidf_of(tokenized(train))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = tfidf_matrix(tokenized(pages), model)
        assert matrix.shape == (len(pages), model.vocabulary.size)
        for row, text in zip(matrix, pages):
            np.testing.assert_allclose(row, tfidf_vector(text, model),
                                       rtol=0, atol=1e-12)
            known = [t for t in tokenize(text) if t in model.vocabulary.tokens]
            if not known:
                np.testing.assert_array_equal(row, 0.0)

    def test_no_pages(self):
        model = tfidf_of(tokenized(HAND_PAGES))
        assert tfidf_matrix([], model).shape == (0, 4)


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

    def test_walkthrough_tfidf_at_k_50(self):
        """The README walkthrough's train split (2036 pages, 400 tokens):
        the top 50 singular values against the Gram eigenvalues."""
        split = generate_synthetic(SynthConfig.uniform(
            4, 0.85, seed=100, pages_per_doc=(6, 14), tokens_per_page=(1, 6),
            class_vocab_size=25, shared_vocab_size=300, ambiguity=0.8,
            docs_per_split=(200, 30, 60)))
        tokens = page_tokens(split.train)
        matrix = tfidf_matrix(tokens, tfidf_of(tokens))
        assert matrix.shape == (2036, 400)
        proj = fit_svd(matrix, k=50)
        expected = np.sqrt(np.linalg.eigvalsh(matrix.T @ matrix)[::-1][:50])
        np.testing.assert_allclose(proj.singular_values, expected, rtol=1e-8)
        SvdProjector(basis=proj.basis, singular_values=proj.singular_values)


class TestProject:
    @pytest.fixture()
    def fitted(self):
        rng = np.random.default_rng(13)
        pages = [" ".join(rng.choice(list("abcdefgh"), size=12)) for _ in range(30)]
        model = tfidf_of(tokenized(pages))
        matrix = tfidf_matrix(tokenized(pages), model)
        projector = fit_svd(matrix, k=3)
        return pages, model, projector

    def test_zero_tfidf_projects_to_zero(self, fitted):
        _, model, projector = fitted
        np.testing.assert_array_equal(tfidf_row("zzz qqq", model) @ projector.basis,
                                      np.zeros(3))

    def test_basis_column_picks_coordinate(self):
        basis = np.eye(5)[:, :2]
        proj = SvdProjector(basis=basis, singular_values=np.array([2.0, 1.0]))
        x = np.array([3.0, -1.0, 4.0, 0.0, 2.0])
        np.testing.assert_array_equal(basis.T @ x, x[:2])

    def test_projection_is_linear(self, fitted):
        pages, model, projector = fitted
        x = tfidf_row(pages[0], model)
        y = tfidf_row(pages[1], model)
        lhs = projector.basis.T @ (2.0 * x + 0.5 * y)
        rhs = 2.0 * (projector.basis.T @ x) + 0.5 * (projector.basis.T @ y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_reconstruction_never_grows_norm(self, fitted):
        pages, model, projector = fitted
        for text in pages:
            x = tfidf_row(text, model)
            recon = projector.basis @ (projector.basis.T @ x)
            assert np.linalg.norm(x - recon) <= np.linalg.norm(x) + 1e-12


class TestPersistence:
    @staticmethod
    def json_payload(model, projector):
        return json.loads(json.dumps(page_vector_payload(model, projector)))

    def test_round_trip(self):
        model = tfidf_of(tokenized(HAND_PAGES))
        matrix = tfidf_matrix(tokenized(HAND_PAGES), model)
        projector = fit_svd(matrix, k=2)
        model2, projector2 = page_vector_model_from_payload(
            self.json_payload(model, projector))
        assert model2.vocabulary == model.vocabulary
        np.testing.assert_array_equal(model2.idf, model.idf)
        np.testing.assert_array_equal(projector2.basis, projector.basis)
        np.testing.assert_array_equal(projector2.singular_values,
                                      projector.singular_values)

    def test_version_mismatch_rejected(self):
        model = tfidf_of(tokenized(HAND_PAGES))
        projector = fit_svd(tfidf_matrix(tokenized(HAND_PAGES), model), k=2)
        payload = self.json_payload(model, projector)
        assert payload["tokenizer_version"] == TOKENIZER_VERSION
        payload["tokenizer_version"] = "other/0"
        with pytest.raises(ValueError, match="tokenizer version"):
            page_vector_model_from_payload(payload)
