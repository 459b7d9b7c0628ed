"""Tests for the per-page scoring models: forward semantics, decision rule,
and exact gradients against central finite differences."""

import math

import numpy as np
import pytest

from pageseq.corpus import MULTICLASS, MULTILABEL, TypeVocabulary
from pageseq.encoder import (
    CLS_ID,
    FIRST_ID,
    PAD_ID,
    UNK_ID,
    EncoderConfig,
    TokenCodec,
    TokenSequence,
    check_sequence,
    forward,
    forward_batch,
    init_params,
    loss_and_grad,
    predict,
    restore_encoder,
    checkpoint_payload,
)

from oracles import assert_grads_close, finite_diff_grads, reference_transformer_scores

VOCAB3 = TypeVocabulary(("A", "B", "C"))
TEXT_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")


def make_codec(vocab=VOCAB3, tokens=TEXT_TOKENS):
    return TokenCodec(vocab, tokens)


def seq(ids, max_len=12):
    padded = np.full(max_len, PAD_ID, dtype=np.int64)
    padded[:len(ids)] = ids
    return TokenSequence(ids=padded, length=len(ids))


class TestTokenCodec:
    def test_id_layout(self):
        codec = make_codec()
        assert codec.n_ids == 4 + 3 + 6
        assert codec.class_token_id(0) == 4
        assert codec.text_token_id("alpha") == 7
        assert codec.text_token_id("nope") == UNK_ID

    def test_decode_round_trip(self):
        codec = make_codec()
        ids = [CLS_ID, FIRST_ID, codec.text_token_id("beta")]
        assert codec.decode(ids) == ["[CLS]", "[-1]", "beta"]
        assert codec.decode([CLS_ID, codec.class_token_id(1)]) == \
            ["[CLS]", "[type_B]"]

    def test_check_sequence_invariant(self):
        codec = make_codec()
        good = seq([CLS_ID, codec.class_token_id(0), codec.text_token_id("alpha")])
        check_sequence(good, codec)
        bad = seq([CLS_ID, codec.text_token_id("alpha"), codec.class_token_id(0)])
        with pytest.raises(ValueError, match="control token"):
            check_sequence(bad, codec)
        with pytest.raises(ValueError, match="CLS"):
            check_sequence(seq([FIRST_ID]), codec)


class TestLinearForward:
    def test_zero_head_gives_zero_scores(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        params["head_w"][:] = 0.0
        params["head_b"][:] = 0.0
        s = forward(params, seq([CLS_ID, codec.text_token_id("alpha"), 9]), config)
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_one_token_input_is_head_of_embedding(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        tok = codec.text_token_id("gamma")
        s = forward(params, seq([CLS_ID, tok]), config)
        expected = params["emb"][tok] @ params["head_w"] + params["head_b"]
        np.testing.assert_array_equal(s, expected)

    def test_bag_is_permutation_invariant(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        tokens = [codec.text_token_id(t) for t in ("alpha", "beta", "gamma", "beta")]
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
        too_long = seq([CLS_ID] + [7] * 15, max_len=16)
        with pytest.raises(ValueError, match="max_len"):
            forward(params, too_long, config)


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
        """Same content with extra PAD width must score identically."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        short = forward_batch(params, [seq([CLS_ID, 7, 8])], config)[0]
        # batching with a longer sequence widens the pad tail of the first
        both = forward_batch(params, [seq([CLS_ID, 7, 8]),
                                      seq([CLS_ID, 7, 8, 9, 10, 5])], config)
        np.testing.assert_allclose(both[0], short, atol=1e-12)

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

    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    def test_random_ragged_batches(self, n_layers):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=n_layers,
                               n_heads=2, max_len=12, init_seed=n_layers)
        rng = np.random.default_rng(40 + n_layers)
        params = {name: rng.normal(0.0, 0.5, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        for _ in range(5):
            lengths = rng.integers(1, 13, size=int(rng.integers(1, 9)))
            batch = [seq([CLS_ID] + list(rng.integers(3, codec.n_ids, size=n - 1)))
                     for n in lengths]
            ids = np.stack([s.ids for s in batch])[:, :max(lengths)]
            np.testing.assert_allclose(
                forward_batch(params, batch, config),
                reference_transformer_scores(params, ids, n_layers, 2),
                rtol=0, atol=1e-12)


class TestPredict:
    def test_argmax(self):
        assert predict(np.array([0.1, 2.0, -1.0]), MULTICLASS) == frozenset({1})

    def test_tie_breaks_to_lowest_index(self):
        assert predict(np.array([1.0, 1.0]), MULTICLASS) == frozenset({0})

    def test_multilabel_threshold(self):
        # sigmoid values about (0.7, 0.2, 0.6) -> classes 0 and 2
        logits = np.array([math.log(0.7 / 0.3), math.log(0.2 / 0.8),
                           math.log(0.6 / 0.4)])
        assert predict(logits, MULTILABEL) == frozenset({0, 2})

    def test_multilabel_empty_falls_back_to_argmax(self):
        assert predict(np.array([-3.0, -1.0, -2.0]), MULTILABEL) == frozenset({1})


class TestLoss:
    def test_uniform_logits_loss_is_ln_n(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        for name in params:
            params[name][:] = 0.0
        batch = [(seq([CLS_ID, 7]), frozenset({0})),
                 (seq([CLS_ID, 8, 9]), frozenset({2}))]
        loss, _ = loss_and_grad(params, batch, config, MULTICLASS)
        assert loss == pytest.approx(math.log(3), rel=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        vocab = TypeVocabulary(("A", "B", "C"))
        codec = TokenCodec(vocab, ("tok",))
        config = EncoderConfig(variant="linear", d=3, max_len=5)
        params = init_params(config, codec)
        for name in params:
            params[name][:] = 0.0
        tok = codec.text_token_id("tok")
        params["emb"][tok] = np.array([50.0, 0.0, 0.0])
        params["head_w"] = np.eye(3)
        batch = [(seq([CLS_ID, tok], max_len=5), frozenset({0}))]
        loss, _ = loss_and_grad(params, batch, config, MULTICLASS)
        assert loss < 1e-20

    def test_non_finite_loss_reports_example_index(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        params = init_params(config, codec)
        params["emb"][7] = np.nan
        batch = [(seq([CLS_ID, 8], max_len=8), frozenset({0})),
                 (seq([CLS_ID, 7], max_len=8), frozenset({1}))]
        with pytest.raises(FloatingPointError, match="example 1"):
            loss_and_grad(params, batch, config, MULTICLASS)

    def test_multilabel_bce_value(self):
        """All-zero logits: BCE is ln 2 per (example, class)."""
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=12)
        params = init_params(config, codec)
        for name in params:
            params[name][:] = 0.0
        batch = [(seq([CLS_ID, 7]), frozenset({0, 2}))]
        loss, _ = loss_and_grad(params, batch, config, MULTILABEL)
        assert loss == pytest.approx(math.log(2), rel=1e-12)


def fd_batch(codec, max_len):
    """Batch exercising special tokens, UNK, and text tokens."""
    a = codec.class_token_id(0)
    c = codec.class_token_id(2)
    return [
        (seq([CLS_ID, FIRST_ID, 7, 8], max_len), frozenset({0})),
        (seq([CLS_ID, a, 9, UNK_ID, 7], max_len), frozenset({1})),
        (seq([CLS_ID, a, c, 10], max_len), frozenset({2})),
        (seq([CLS_ID, 8], max_len), frozenset({0})),
    ]


class TestGradients:
    @pytest.mark.parametrize("label_mode", [MULTICLASS, MULTILABEL])
    def test_linear_gradients_match_finite_differences(self, label_mode):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=6, max_len=8, init_seed=3)
        rng = np.random.default_rng(11)
        params = init_params(config, codec)
        for name in params:  # larger-than-init values to avoid degenerate zeros
            params[name] = rng.normal(0.0, 0.5, size=params[name].shape)
        batch = fd_batch(codec, 8)
        _, grads = loss_and_grad(params, batch, config, label_mode)
        numeric = finite_diff_grads(
            lambda p: loss_and_grad(p, batch, config, label_mode)[0], params)
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
        batch = fd_batch(codec, 8)
        _, grads = loss_and_grad(params, batch, config, label_mode)
        numeric = finite_diff_grads(
            lambda p: loss_and_grad(p, batch, config, label_mode)[0], params)
        assert_grads_close(grads, numeric, rel_tol=1e-4)

    def test_transformer_dropout_gradients_match_finite_differences(self):
        """Same dropout masks in every evaluation: the rng is reseeded."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=2,
                               n_heads=2, max_len=8, dropout=0.1, init_seed=6)
        rng = np.random.default_rng(29)
        params = {name: rng.normal(0.0, 0.4, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        batch = fd_batch(codec, 8)

        def loss_grad(p):
            return loss_and_grad(p, batch, config, MULTICLASS,
                                 np.random.default_rng(17))

        loss, grads = loss_grad(params)
        no_dropout = loss_and_grad(params, batch, config, MULTICLASS)[0]
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

    def test_transformer_without_layers_gradients(self):
        """No layers: the final layernorm reads the CLS embedding alone."""
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=6, n_layers=0,
                               max_len=8, init_seed=8)
        rng = np.random.default_rng(31)
        params = {name: rng.normal(0.0, 0.4, size=value.shape)
                  for name, value in init_params(config, codec).items()}
        batch = fd_batch(codec, 8)
        _, grads = loss_and_grad(params, batch, config, MULTICLASS)
        numeric = finite_diff_grads(
            lambda p: loss_and_grad(p, batch, config, MULTICLASS)[0], params)
        assert_grads_close(grads, numeric, rel_tol=1e-4)

    def test_special_token_embeddings_receive_gradient(self):
        codec = make_codec()
        config = EncoderConfig(variant="linear", d=6, max_len=8)
        params = init_params(config, codec)
        batch = [(seq([CLS_ID, FIRST_ID, 7], 8), frozenset({0})),
                 (seq([CLS_ID, codec.class_token_id(1), 8], 8), frozenset({1}))]
        _, grads = loss_and_grad(params, batch, config, MULTICLASS)
        assert np.any(grads["emb"][FIRST_ID] != 0.0)
        assert np.any(grads["emb"][codec.class_token_id(1)] != 0.0)


class TestCheckpoint:
    def test_payload_round_trip(self):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        params = init_params(config, codec)
        payload = checkpoint_payload(params, config, codec, MULTICLASS,
                                     mode="recurrent", seed=7)
        params2, config2, codec2, label_mode, mode = restore_encoder(payload)
        assert config2 == config
        assert codec2.text_tokens == codec.text_tokens
        assert label_mode == MULTICLASS and mode == "recurrent"
        for name in sorted(params):
            np.testing.assert_array_equal(params2[name], params[name])

    @pytest.mark.parametrize("edit", ["narrow_head", "short_emb", "missing",
                                      "extra"])
    def test_restore_checks_parameter_names_and_shapes(self, edit):
        codec = make_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=12)
        payload = checkpoint_payload(init_params(config, codec), config, codec,
                                     MULTICLASS, mode="oblivious", seed=0)
        params = payload["params"]
        if edit == "narrow_head":
            params["head_w"] = [row[:2] for row in params["head_w"]]
        elif edit == "short_emb":
            params["emb"] = params["emb"][:-1]
        elif edit == "missing":
            del params["layer0/wq"]
        else:
            params["layer1/wq"] = params["layer0/wq"]
        with pytest.raises(ValueError, match="parameter"):
            restore_encoder(payload)
