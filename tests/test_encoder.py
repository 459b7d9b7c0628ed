"""Tests for the per-page scoring models: forward semantics, decision rule,
and exact gradients against central finite differences."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pageseq.encoder as encoder
from pageseq.corpus import MULTICLASS, MULTILABEL, TypeVocabulary
from pageseq.files import float_block, read_float_block
from pageseq.features import TOKENIZER_VERSION
from pageseq.encoder import (
    CLS_ID,
    FIRST_ID,
    PAD_ID,
    UNK_ID,
    EncoderConfig,
    Scratch,
    TokenCodec,
    forward_batch,
    init_params,
    loss_and_grad,
    predict,
    restore_encoder,
    checkpoint_payload,
)

import oracles
from oracles import (
    assert_grads_close,
    check_sequence,
    class_token_id,
    decode,
    finite_diff_grads,
    forward,
    reference_batch,
    reference_transformer_loss_and_grad,
    reference_transformer_scores,
    scatter_embedding_grad,
    scatter_linear_bwd,
    text_token_id,
)

VOCAB3 = TypeVocabulary(("A", "B", "C"))
TEXT_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")


def make_codec(vocab=VOCAB3, tokens=TEXT_TOKENS):
    return TokenCodec(vocab, tokens)


def seq(ids):
    """One page's id row."""
    return np.asarray(ids, dtype=np.int64)


def as_batch(examples, label_mode=MULTICLASS, n_classes=3):
    """(ids, targets) of (id row, gold label set) examples, as
    ``loss_and_grad`` takes them."""
    width = max(len(ids) for ids, _ in examples)
    return reference_batch(
        [((np.pad(ids, (0, width - len(ids))), len(ids)), gold)
         for ids, gold in examples], label_mode, n_classes)


def pad_rows(rows):
    """Id rows PAD-padded to the longest."""
    return as_batch([(row, frozenset({0})) for row in rows])[0]


class TestTokenCodec:
    def test_id_layout(self):
        codec = make_codec()
        assert codec.n_ids == 4 + 3 + 6
        assert class_token_id(codec, 0) == FIRST_ID + 1 == 4
        assert list(codec.text_token_ids(["alpha", "nope"])) == [7, UNK_ID]
        assert text_token_id(codec, "alpha") == 7

    def test_decode_round_trip(self):
        codec = make_codec()
        ids = [CLS_ID, FIRST_ID, text_token_id(codec, "beta")]
        assert decode(codec, ids) == ["[CLS]", "[-1]", "beta"]
        assert decode(codec, [CLS_ID, class_token_id(codec, 1)]) == \
            ["[CLS]", "[type_B]"]

    def test_check_sequence_invariant(self):
        codec = make_codec()
        good = seq([CLS_ID, class_token_id(codec, 0), text_token_id(codec, "alpha")])
        check_sequence(good, codec)
        bad = seq([CLS_ID, text_token_id(codec, "alpha"), class_token_id(codec, 0)])
        with pytest.raises(ValueError, match="control token"):
            check_sequence(bad, codec)
        with pytest.raises(ValueError, match="CLS"):
            check_sequence(seq([FIRST_ID]), codec)
        with pytest.raises(ValueError, match="padding tail"):
            check_sequence(seq([CLS_ID, 7, PAD_ID, 8]), codec)
        check_sequence(seq([CLS_ID, 7, PAD_ID, PAD_ID]), codec)


class TestLinearForward:
    def test_zero_head_gives_zero_scores(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        params["head_w"][:] = 0.0
        params["head_b"][:] = 0.0
        s = forward(params, seq([CLS_ID, text_token_id(codec, "alpha"), 9]), config)
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_one_token_input_is_head_of_embedding(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        tok = text_token_id(codec, "gamma")
        s = forward(params, seq([CLS_ID, tok]), config)
        expected = params["emb"][tok] @ params["head_w"] + params["head_b"]
        np.testing.assert_array_equal(s, expected)

    def test_bag_is_permutation_invariant(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        tokens = [text_token_id(codec, t) for t in ("alpha", "beta", "gamma", "beta")]
        s1 = forward(params, seq([CLS_ID] + tokens), config)
        s2 = forward(params, seq([CLS_ID] + tokens[::-1]), config)
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_empty_content_scores_bias(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        params["head_b"] = np.array([0.5, -1.0, 2.0])
        np.testing.assert_array_equal(forward(params, seq([CLS_ID]), config),
                                      params["head_b"])

    def test_sequence_longer_than_max_len_rejected(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        too_long = seq([CLS_ID] + [7] * 15)
        with pytest.raises(ValueError, match="max_len"):
            forward(params, too_long, config)

    def test_refuses_dropout(self):
        """The bag of embeddings has no layer output to drop, so a dropout
        rate would be recorded and never applied."""
        EncoderConfig(variant="linear", dropout=0.0)
        with pytest.raises(ValueError, match="linear encoder takes no dropout"):
            EncoderConfig(variant="linear", dropout=0.5)


class TestTransformerForward:
    def test_deterministic_inference(self):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=2,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        s = seq([CLS_ID, FIRST_ID, 7, 8, 9])
        a = forward(params, s, config)
        b = forward(params, s, config)
        np.testing.assert_array_equal(a, b)

    def test_padding_does_not_change_scores(self):
        """Same content with extra PAD width must score identically and give
        the same loss and gradients; the PAD embedding gets no gradient."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        short = forward_batch(params, pad_rows([seq([CLS_ID, 7, 8])]), config)[0]
        # batching with a longer sequence widens the pad tail of the first
        both = forward_batch(params, pad_rows([seq([CLS_ID, 7, 8]),
                                               seq([CLS_ID, 7, 8, 9, 10, 5])]),
                             config)
        np.testing.assert_allclose(both[0], short, atol=1e-12)

        ids, targets = as_batch([(seq([CLS_ID, 7, 8]), frozenset({0})),
                                 (seq([CLS_ID, FIRST_ID, 9, 10, 5]), frozenset({2}))])
        wide = np.pad(ids, ((0, 0), (0, 4)))
        loss, grads = loss_and_grad(params, ids, targets, config, MULTICLASS)
        wide_loss, wide_grads = loss_and_grad(params, wide, targets, config, MULTICLASS)
        assert abs(wide_loss - loss) <= 1e-12
        for name, grad in grads.items():
            np.testing.assert_allclose(wide_grads[name], grad, rtol=0, atol=1e-12)
        assert np.all(wide_grads["emb"][PAD_ID] == 0.0)

    def test_row_wise_layers_see_only_non_pad_tokens(self, monkeypatch):
        """The first layer's FFN runs on the non-PAD tokens, the last
        layer's on the CLS rows."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=2,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        ids, targets = as_batch([(seq([CLS_ID, 7, 8]), frozenset({0})),
                                 (seq([CLS_ID, FIRST_ID, 9, 10, 5, 6, 7]), frozenset({1})),
                                 (seq([CLS_ID]), frozenset({2}))])
        gelu_rows = []
        gelu_fwd = encoder._gelu_fwd

        def spy(x, *pool):
            gelu_rows.append(x.size // x.shape[-1])
            return gelu_fwd(x, *pool)

        monkeypatch.setattr(encoder, "_gelu_fwd", spy)
        forward_batch(params, ids, config)
        loss_and_grad(params, ids, targets, config, MULTICLASS)
        assert gelu_rows == [np.count_nonzero(ids), len(ids)] * 2

    def test_row_must_start_with_a_token(self):
        """Row 0 is the read-out row, so it cannot be PAD."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        with pytest.raises(ValueError, match="non-PAD"):
            forward_batch(params, pad_rows([seq([CLS_ID, 7]), seq([PAD_ID, 7, 8])]),
                          config)

    def test_order_sensitivity(self):
        """Unlike the bag variant, the transformer may use token order."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        s1 = forward(params, seq([CLS_ID, 7, 8, 9]), config)
        s2 = forward(params, seq([CLS_ID, 9, 8, 7]), config)
        assert not np.allclose(s1, s2)


class TestTransformerAgainstFullSequence:
    """forward_batch computes only the CLS row in the last layer; the oracle
    computes every row in every layer."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_random_ragged_batches(self, n_layers):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=n_layers,
                               n_heads=2, max_len=12, init_seed=n_layers)
        rng = np.random.default_rng(40 + n_layers)
        params = {name: rng.normal(0.0, 0.5, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        for _ in range(5):
            lengths = rng.integers(1, 13, size=int(rng.integers(1, 9)))
            ids = pad_rows([seq([CLS_ID] + list(rng.integers(3, codec.n_ids,
                                                             size=n - 1)))
                            for n in lengths])
            np.testing.assert_allclose(
                forward_batch(params, ids, config),
                reference_transformer_scores(params, ids, n_layers, 2),
                rtol=0, atol=1e-12)


@st.composite
def transformer_cases(draw):
    """A tiny-transformer case: layer count, label mode, dropout rate, seed,
    a batch of id rows (CLS first) with extra PAD columns, and the width d
    of 2 heads: dh 4, where 1/sqrt(dh) is exact, or dh 6, where it is not."""
    rows = draw(st.lists(
        st.lists(st.integers(1, 12), max_size=8).map(lambda t: [CLS_ID] + t),
        min_size=1, max_size=6))
    return (draw(st.integers(1, 3)), draw(st.sampled_from([MULTICLASS, MULTILABEL])),
            draw(st.sampled_from([0.0, 0.1])), draw(st.integers(0, 2**16)),
            rows, draw(st.integers(0, 2)), draw(st.sampled_from([8, 12])))


class TestTransformerAgainstPaddedReference:
    """The packed-row transformer against the padded reference, which runs
    every row-wise op on all B x L positions: the loss, the scores and every
    gradient."""

    @given(transformer_cases())
    @example((2, MULTICLASS, 0.0, 1, [[CLS_ID]], 0, 8))               # B=1, CLS only
    @example((3, MULTILABEL, 0.1, 2, [[CLS_ID, 7, 8], [CLS_ID, 9, 4]], 0, 8))  # no PAD
    @example((1, MULTICLASS, 0.1, 3, [[CLS_ID], [CLS_ID, 5, 6, 7, 8]], 2, 8))
    @example((2, MULTICLASS, 0.1, 4, [[CLS_ID, 7], [CLS_ID, 5, 6, 7, 8]], 1, 12))
    def test_loss_scores_and_grads(self, case):
        n_layers, label_mode, dropout, seed, rows, extra_pad, d = case
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=d, n_layers=n_layers,
                               n_heads=2, max_len=12, dropout=dropout)
        rng = np.random.default_rng(seed)
        params = {name: rng.normal(0.0, 0.5, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        ids, targets = as_batch(
            [(seq(row), frozenset(rng.choice(3, size=1 + (label_mode == MULTILABEL),
                                             replace=False).tolist()))
             for row in rows], label_mode)
        ids = np.pad(ids, ((0, 0), (0, extra_pad)))

        def dropout_rng():
            return np.random.default_rng(seed) if dropout else None

        loss, grads = loss_and_grad(params, ids, targets, config, label_mode,
                                    dropout_rng())
        ref_loss, ref_grads, _ = reference_transformer_loss_and_grad(
            params, ids, targets, config, label_mode, dropout_rng())
        assert abs(loss - ref_loss) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=0, atol=1e-12,
                                       err_msg=name)
        _, _, ref_scores = reference_transformer_loss_and_grad(
            params, ids, targets, config, label_mode)
        np.testing.assert_allclose(forward_batch(params, ids, config), ref_scores,
                                   rtol=0, atol=1e-12)


class TestGeluAgainstReference:
    """The exp form of the tanh GELU against the tanh form, saturated inputs
    included: there exp(-2u) overflows to inf, which must raise no warning
    and give finite outputs and gradients."""

    @pytest.mark.parametrize("x", [
        np.array([-1e3, -40.0, -19.0, -1.0, 0.0, 1.0, 19.0, 40.0, 1e3]),
        np.random.default_rng(7).normal(0.0, 3.0, size=(64, 12)),
    ], ids=["saturated", "normal"])
    def test_matches_tanh_form(self, x):
        pool = Scratch()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, cache = encoder._gelu_fwd(x, pool, "gelu/")
            dy = np.random.default_rng(8).normal(size=x.shape)
            dx = encoder._gelu_bwd(dy, cache, pool, "gelu/")
        ref_y, ref_cache = oracles._ref_gelu_fwd(x)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(dx))
        np.testing.assert_allclose(y, ref_y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, oracles._ref_gelu_bwd(dy, ref_cache),
                                   rtol=1e-12, atol=1e-12)


@st.composite
def pool_cases(draw):
    """Layer count, dropout rate, seed, and a sequence of ragged batches of
    id rows (CLS first) for one shared pool."""
    batch = st.lists(st.lists(st.integers(1, 12), max_size=10).map(lambda t: [CLS_ID] + t),
                     min_size=1, max_size=5)
    return (draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.1])),
            draw(st.integers(0, 2**16)), draw(st.lists(batch, min_size=1, max_size=4)))


class TestScratchPool:
    """One ``Scratch`` shared by a sequence of calls against a fresh pool per
    call: bit-equal scores, losses and gradients; results that later calls
    leave alone; and a pool that stops growing at the largest batch."""

    @given(pool_cases())
    @example((2, 0.0, 0, [[[CLS_ID]], [[CLS_ID, 7, 8], [CLS_ID, 9]]]))
    @example((3, 0.1, 1, [[[CLS_ID, 7, 8], [CLS_ID, 9, 4]]]))            # no PAD
    def test_shared_pool_matches_fresh_pools(self, case):
        n_layers, dropout, seed, batches = case
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=n_layers,
                               n_heads=2, max_len=12, dropout=dropout)
        rng = np.random.default_rng(seed)
        params = {name: rng.normal(0.0, 0.5, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        # Largest in rows, width and tokens, and padded: one row more than any
        # drawn batch, all of them max_len long but one.
        big = [[CLS_ID] + [7] * (config.max_len - 1)] * max(map(len, batches)) + [[CLS_ID]]
        sequence = batches + [big] + batches[::-1] + [big]   # grow, shrink, grow
        pool = Scratch()
        kept, sizes = [], []

        def dropout_rng():
            return np.random.default_rng(seed) if dropout else None

        for rows in sequence:
            ids, targets = as_batch([(seq(row), frozenset({int(rng.integers(3))}))
                                     for row in rows])
            scores = forward_batch(params, ids, config, scratch=pool)
            np.testing.assert_array_equal(scores, forward_batch(params, ids, config))
            loss, grads = loss_and_grad(params, ids, targets, config, MULTICLASS,
                                        dropout_rng(), scratch=pool)
            fresh_loss, fresh_grads = loss_and_grad(params, ids, targets, config,
                                                    MULTICLASS, dropout_rng())
            assert loss == fresh_loss
            for name, grad in grads.items():
                np.testing.assert_array_equal(grad, fresh_grads[name], err_msg=name)
            for result, copy in kept:                   # no views into the pool
                np.testing.assert_array_equal(result, copy)
            kept = [(a, a.copy()) for a in (scores, *grads.values())]
            sizes.append(pool.nbytes)
        first_big = len(batches)
        assert sizes[first_big:] == [sizes[first_big]] * len(sizes[first_big:])


def decided(scores, label_mode):
    """predict on a one-row batch, as the set of decided classes."""
    (row,) = predict(np.array([scores]), label_mode)
    return set(np.flatnonzero(row).tolist())


class TestPredict:
    def test_argmax(self):
        assert decided([0.1, 2.0, -1.0], MULTICLASS) == {1}

    def test_tie_breaks_to_lowest_index(self):
        assert decided([1.0, 1.0], MULTICLASS) == {0}

    def test_multilabel_threshold(self):
        # sigmoid values about (0.7, 0.2, 0.6) -> classes 0 and 2
        logits = [math.log(0.7 / 0.3), math.log(0.2 / 0.8), math.log(0.6 / 0.4)]
        assert decided(logits, MULTILABEL) == {0, 2}

    def test_multilabel_empty_falls_back_to_argmax(self):
        assert decided([-3.0, -1.0, -2.0], MULTILABEL) == {1}

    def test_rows_decided_independently(self):
        scores = np.array([[0.0, 3.0, 1.0], [2.0, 2.0, -1.0], [-3.0, -1.0, -2.0],
                           [5.0, -5.0, 5.0]])
        np.testing.assert_array_equal(predict(scores, MULTICLASS), np.eye(3)[[1, 0, 1, 0]])
        np.testing.assert_array_equal(predict(scores, MULTILABEL),
                                      [[1, 1, 1], [1, 1, 0], [0, 1, 0], [1, 0, 1]])


@st.composite
def score_rows(draw):
    """A (rows x 2..8) score matrix with ties, magnitudes up to 1e300 and
    entries of +-inf and NaN, and one gold class index per row."""
    n_classes, n_rows = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    entry = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([
        0.0, -0.0, 1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]))
    scores = np.array(draw(st.lists(st.lists(entry, min_size=n_classes,
                                             max_size=n_classes),
                                    min_size=n_rows, max_size=n_rows)))
    targets = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                                     min_size=n_rows, max_size=n_rows)))
    return scores, targets


class TestSoftmaxCrossEntropyAgainstScipy:
    """The inline log-softmax of the loss against ``scipy.special.log_softmax``:
    the same bits and the same warnings, for finite and non-finite rows."""

    @staticmethod
    def run(fn, scores, targets):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            losses, dscores = fn(scores.copy(), targets)
        return losses, dscores, sorted((w.category.__name__, str(w.message))
                                       for w in caught)

    @given(score_rows())
    @example((np.array([[3.0, 3.0, -1.0], [math.inf, 0.0, 1.0], [math.nan, 2.0, 0.0],
                        [-math.inf, -math.inf, -math.inf], [1e300, -1e300, 0.0]]),
              np.array([0, 1, 2, 0, 1])))
    def test_same_bits_and_warnings(self, case):
        scores, targets = case
        got = self.run(encoder.softmax_cross_entropy, scores, targets)
        want = self.run(oracles.scipy_softmax_cross_entropy, scores, targets)
        for mine, theirs in zip(got[:2], want[:2]):
            assert np.array_equal(mine.view(np.int64), theirs.view(np.int64))
        assert got[2] == want[2]


class TestLoss:
    def test_uniform_logits_loss_is_ln_n(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        for name in params:
            params[name][:] = 0.0
        ids, targets = as_batch([(seq([CLS_ID, 7]), frozenset({0})),
                                 (seq([CLS_ID, 8, 9]), frozenset({2}))])
        loss, _ = loss_and_grad(params, ids, targets, config, MULTICLASS)
        assert loss == pytest.approx(math.log(3), rel=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        vocab = TypeVocabulary(("A", "B", "C"))
        codec = TokenCodec(vocab, ("tok",))
        config = EncoderConfig(variant="linear", d=3, max_len=5)
        params = init_params(config, codec)
        for name in params:
            params[name][:] = 0.0
        tok = text_token_id(codec, "tok")
        params["emb"][tok] = np.array([50.0, 0.0, 0.0])
        params["head_w"] = np.eye(3)
        ids, targets = as_batch([(seq([CLS_ID, tok]), frozenset({0}))])
        loss, _ = loss_and_grad(params, ids, targets, config, MULTICLASS)
        assert loss < 1e-20

    def test_non_finite_loss_reports_example_index(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        params = init_params(config, codec)
        params["emb"][7] = np.nan
        ids, targets = as_batch([(seq([CLS_ID, 8]), frozenset({0})),
                                 (seq([CLS_ID, 7]), frozenset({1}))])
        with pytest.raises(FloatingPointError, match="example 1"):
            loss_and_grad(params, ids, targets, config, MULTICLASS)

    def test_multilabel_bce_value(self):
        """All-zero logits: BCE is ln 2 per (example, class)."""
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        for name in params:
            params[name][:] = 0.0
        ids, targets = as_batch([(seq([CLS_ID, 7]), frozenset({0, 2}))],
                                MULTILABEL)
        loss, _ = loss_and_grad(params, ids, targets, config, MULTILABEL)
        assert loss == pytest.approx(math.log(2), rel=1e-12)


def fd_batch(codec, label_mode=MULTICLASS):
    """Batch exercising special tokens, UNK, and text tokens."""
    a = class_token_id(codec, 0)
    c = class_token_id(codec, 2)
    return as_batch([
        (seq([CLS_ID, FIRST_ID, 7, 8]), frozenset({0})),
        (seq([CLS_ID, a, 9, UNK_ID, 7]), frozenset({1})),
        (seq([CLS_ID, a, c, 10]), frozenset({2})),
        (seq([CLS_ID, 8]), frozenset({0})),
    ], label_mode)


class TestGradients:
    @pytest.mark.parametrize("label_mode", [MULTICLASS, MULTILABEL])
    def test_linear_gradients_match_finite_differences(self, label_mode):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=6, max_len=8, init_seed=3)
        rng = np.random.default_rng(11)
        params = init_params(config, codec)
        for name in params:  # larger-than-init values to avoid degenerate zeros
            params[name] = rng.normal(0.0, 0.5, size=params[name].shape)
        batch = fd_batch(codec, label_mode)
        _, grads = loss_and_grad(params, *batch, config, label_mode)
        numeric = finite_diff_grads(
            lambda p: loss_and_grad(p, *batch, config, label_mode)[0], params)
        assert_grads_close(grads, numeric, rel_tol=1e-4)

    @pytest.mark.parametrize("label_mode", [MULTICLASS, MULTILABEL])
    def test_transformer_gradients_match_finite_differences(self, label_mode):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=8, init_seed=5)
        rng = np.random.default_rng(23)
        params = init_params(config, codec)
        for name in params:
            params[name] = rng.normal(0.0, 0.4, size=params[name].shape)
        batch = fd_batch(codec, label_mode)
        _, grads = loss_and_grad(params, *batch, config, label_mode)
        numeric = finite_diff_grads(
            lambda p: loss_and_grad(p, *batch, config, label_mode)[0], params)
        assert_grads_close(grads, numeric, rel_tol=1e-4)

    def test_transformer_dropout_gradients_match_finite_differences(self):
        """Same dropout masks in every evaluation: the rng is reseeded."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=2,
                               n_heads=2, max_len=8, dropout=0.1, init_seed=6)
        rng = np.random.default_rng(29)
        params = {name: rng.normal(0.0, 0.4, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        batch = fd_batch(codec)

        def loss_grad(p):
            return loss_and_grad(p, *batch, config, MULTICLASS,
                                 np.random.default_rng(17))

        loss, grads = loss_grad(params)
        no_dropout = loss_and_grad(params, *batch, config, MULTICLASS)[0]
        assert loss != no_dropout  # the masks are in effect
        numeric = finite_diff_grads(lambda p: loss_grad(p)[0], params)
        # A key bias shifts every logit of a query row alike, and softmax
        # ignores such shifts: its true gradient is 0, so the finite
        # difference is pure rounding noise (~1e-12) and no relative check
        # applies.
        for name in [n for n in grads if n.endswith("/kb")]:
            np.testing.assert_allclose(grads.pop(name), 0.0, atol=1e-15)
            np.testing.assert_allclose(numeric.pop(name), 0.0, atol=1e-10)
        assert_grads_close(grads, numeric, rel_tol=1e-4)

    def test_special_token_embeddings_receive_gradient(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=6, max_len=8)
        params = init_params(config, codec)
        ids, targets = as_batch([
            (seq([CLS_ID, FIRST_ID, 7]), frozenset({0})),
            (seq([CLS_ID, class_token_id(codec, 1), 8]), frozenset({1}))])
        _, grads = loss_and_grad(params, ids, targets, config, MULTICLASS)
        assert np.any(grads["emb"][FIRST_ID] != 0.0)
        assert np.any(grads["emb"][class_token_id(codec, 1)] != 0.0)


def same_bits(x, y) -> bool:
    """Equal as float64 bit patterns: -0.0 differs from +0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype == np.float64 and x.shape == y.shape
            and np.array_equal(x.view(np.int64), y.view(np.int64)))


class TestEmbeddingGradientAgainstScatter:
    """The embedding gradient by one bincount against ``np.add.at`` into
    zeros, compared bit for bit."""

    def test_sums_in_input_order(self):
        """Repeated tokens whose sums depend on the order of addition, -0.0
        rows, a token in every row, and ids that get no row."""
        rows = np.array([[1e16, -0.0, 3.0], [1.0, -0.0, -3.0], [1.0, 0.0, 1e-300],
                         [-1e16, -0.0, 0.0], [1.0, -0.0, 5e-324], [-0.0, -0.0, -0.0],
                         [2.5, 1.0, -2.5]])
        tokens = np.array([4, 4, 4, 4, 2, 2, 7])
        got = encoder._embedding_grad(tokens, rows, 9)
        assert same_bits(got, scatter_embedding_grad(tokens, rows, 9))
        assert got[4, 0] == 0.0     # ((1e16 + 1) + 1) - 1e16; the 1s first give 2

    def test_one_token_in_every_row(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(0.0, 1.0, (50, 4)) * 10.0 ** rng.integers(-8, 9, (50, 1))
        tokens = np.full(50, CLS_ID)
        assert same_bits(encoder._embedding_grad(tokens, rows, 6),
                         scatter_embedding_grad(tokens, rows, 6))

    def test_no_rows(self):
        assert same_bits(encoder._embedding_grad(np.zeros(0, dtype=np.int64),
                                                 np.zeros((0, 3)), 5),
                         np.zeros((5, 3)))

    @pytest.mark.parametrize("label_mode", [MULTICLASS, MULTILABEL])
    def test_linear_matches_scatter_over_every_position(self, label_mode):
        """The linear bag's gradients against a scatter that also adds the
        zero-weight PAD and CLS positions: rows with PAD, a CLS-only row, a
        token on every row, and -0.0 score gradients."""
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=5, max_len=8)
        rng = np.random.default_rng(7)
        params = {name: rng.normal(0.0, 0.5, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        ids, _ = as_batch([(seq([CLS_ID, 7, 7, 8, 9, 7]), frozenset({0})),
                           (seq([CLS_ID, 7]), frozenset({1})),
                           (seq([CLS_ID]), frozenset({2})),
                           (seq([CLS_ID, FIRST_ID, 7, UNK_ID]), frozenset({0}))])
        _, cache = encoder._linear_fwd(params, ids)
        dscores = rng.normal(0.0, 1.0, (len(ids), 3))
        dscores[1] = -0.0
        got = encoder._linear_bwd(dscores, params, cache)
        want = scatter_linear_bwd(dscores, params, cache)
        assert got.keys() == want.keys()
        assert all(same_bits(got[name], want[name]) for name in want)

    def test_linear_batch_without_content(self):
        """Every row is CLS alone: the embedding gradient is float zeros."""
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        params = init_params(config, codec)
        ids = np.full((3, 1), CLS_ID)
        _, cache = encoder._linear_fwd(params, ids)
        dscores = np.ones((3, 3))
        assert same_bits(encoder._linear_bwd(dscores, params, cache)["emb"],
                         scatter_linear_bwd(dscores, params, cache)["emb"])

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_transformer_matches_scatter(self, n_layers, monkeypatch):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=n_layers,
                               n_heads=2, max_len=8, dropout=0.1)
        rng = np.random.default_rng(13)
        params = {name: rng.normal(0.0, 0.4, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        ids, targets = fd_batch(codec)

        def grads():
            return loss_and_grad(params, ids, targets, config, MULTICLASS,
                                 np.random.default_rng(5))[1]

        got = grads()
        monkeypatch.setattr(encoder, "_embedding_grad", scatter_embedding_grad)
        want = grads()
        assert got.keys() == want.keys()
        assert all(same_bits(got[name], want[name]) for name in want)


class TestCheckpoint:
    def test_payload_round_trip(self):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        payload = checkpoint_payload(params, config, codec, mode="recurrent")
        assert payload["codec"]["vocab_label_mode"] == codec.type_vocab.label_mode
        assert "label_mode" not in payload and "seed" not in payload
        assert payload["tokenizer_version"] == TOKENIZER_VERSION
        params2, config2, codec2, recurrent = restore_encoder(payload)
        assert config2 == config
        assert codec2.text_tokens == codec.text_tokens
        assert codec2.type_vocab == codec.type_vocab and recurrent
        for name in sorted(params):
            np.testing.assert_array_equal(params2[name], params[name])

    @pytest.mark.parametrize("edit", ["narrow_head", "short_emb", "missing",
                                      "extra"])
    def test_restore_checks_parameter_names_and_shapes(self, edit):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        payload = checkpoint_payload(init_params(config, codec), config, codec,
                                     mode="oblivious")
        params = payload["params"]
        if edit == "narrow_head":
            params["head_w"] = float_block(
                read_float_block(params["head_w"], "head_w")[:, :2])
        elif edit == "short_emb":
            params["emb"] = float_block(read_float_block(params["emb"], "emb")[:-1])
        elif edit == "missing":
            del params["layer0/wq"]
        else:
            params["layer1/wq"] = params["layer0/wq"]
        message = {"narrow_head": "parameter 'head_w' has shape",
                   "short_emb": "parameter 'emb' has shape",
                   "missing": "missing field 'params.layer0/wq'",
                   "extra": "unknown field 'params.layer1/wq'"}[edit]
        with pytest.raises(ValueError, match=re.escape(message)):
            restore_encoder(payload)

    @pytest.mark.parametrize("version", ["other/0", None])
    def test_restore_checks_tokenizer_version(self, version):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        payload = checkpoint_payload(init_params(config, codec), config, codec,
                                     mode="oblivious")
        payload["tokenizer_version"] = version
        with pytest.raises(ValueError, match="tokenizer version mismatch"):
            restore_encoder(payload)

    @pytest.mark.parametrize("field, value", [("mode", "recurrnt"),
                                              ("label_mode", "bogus")])
    def test_restore_checks_mode_and_label_mode(self, field, value):
        """A mode that is not a decoding mode, or a label mode that is no
        label mode (the codec's ``vocab_label_mode``, its one record)."""
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        payload = checkpoint_payload(init_params(config, codec), config, codec,
                                     mode="oblivious")
        if field == "mode":
            payload["mode"] = value
        else:
            payload["codec"]["vocab_label_mode"] = value
        with pytest.raises(ValueError, match=f"{field} {value!r}"):
            restore_encoder(payload)

    @pytest.mark.parametrize("value", [16.0, "16", True, None])
    def test_restore_reads_config_with_types(self, value):
        """``config`` is read by the typed reader of config files: a field
        of the wrong type is a ValueError naming it."""
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        payload = checkpoint_payload(init_params(config, codec), config, codec,
                                     mode="oblivious")
        payload["config"]["max_len"] = value
        with pytest.raises(ValueError, match="'config.max_len' must be an int"):
            restore_encoder(payload)

    @pytest.mark.parametrize("field", ["max_len", "d", "init_seed"])
    def test_restore_needs_every_config_field(self, field):
        """A checkpoint records every config field: one left out is refused,
        not filled with its default (a linear encoder restored with the
        default ``max_len`` would truncate its pages elsewhere)."""
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        payload = checkpoint_payload(init_params(config, codec), config, codec,
                                     mode="oblivious")
        del payload["config"][field]
        with pytest.raises(ValueError, match=f"missing field 'config.{field}'"):
            restore_encoder(payload)
