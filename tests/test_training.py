"""Tests for the learning-rate schedule, AdamW step, and the training loop."""

import numpy as np
import pytest

from pageseq.corpus import SynthConfig, TypeVocabulary, generate_synthetic
from pageseq.encoder import EncoderConfig, TokenCodec, init_params, param_shapes
from pageseq.features import fit_vocabulary, tokenize
from pageseq.recurrence import encode_split, infer_split, split_tokens
from pageseq.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    lr_at,
    optimizer_step,
    train_encoder,
)

from oracles import allocating_optimizer_step


class TestLrSchedule:
    def test_published_recipe_anchors(self):
        """Published recipe: peak 2e-5 at 10% of steps, zero at the end."""
        cfg = TrainConfig.published()
        total = 1000
        assert lr_at(100, total, cfg) == 2e-5
        assert lr_at(total, total, cfg) == 0.0
        assert lr_at(0, total, cfg) == 0.0

    def test_half_warmup_is_half_peak(self):
        cfg = TrainConfig.published()
        assert lr_at(50, 1000, cfg) == pytest.approx(1e-5, rel=1e-15)

    def test_linear_decay_midpoint(self):
        cfg = TrainConfig.published()
        assert lr_at(550, 1000, cfg) == pytest.approx(1e-5, rel=1e-15)

    def test_no_warmup_starts_at_peak(self):
        cfg = TrainConfig(peak_lr=0.01, warmup_fraction=0.0)
        assert lr_at(0, 10, cfg) == 0.01
        assert lr_at(10, 10, cfg) == 0.0

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(11, 10, TrainConfig())
        with pytest.raises(ValueError):
            lr_at(-1, 10, TrainConfig())


class TestOptimizerStep:
    def test_zero_grads_zero_decay_is_noop(self):
        cfg = TrainConfig(weight_decay=0.0)
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.for_params(params)
        optimizer_step(params, {"w": np.zeros(3)}, state, lr=0.1, cfg=cfg)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_single_step_closed_form(self):
        """g=1 on a fresh state: m_hat = v_hat = 1, so the update is exactly
        -lr / (1 + eps)."""
        cfg = TrainConfig(betas=(0.9, 0.999), epsilon=1e-8, weight_decay=0.0)
        params = {"w": np.array([0.5])}
        state = AdamState.for_params(params)
        optimizer_step(params, {"w": np.array([1.0])}, state, lr=0.1, cfg=cfg)
        expected = 0.5 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_decay_only_scales_params(self):
        """Fresh state with g=0: pure decoupled decay p <- p(1 - lr*decay)."""
        cfg = TrainConfig(weight_decay=0.04)
        params = {"w": np.array([2.0, -1.0])}
        state = AdamState.for_params(params)
        optimizer_step(params, {"w": np.zeros(2)}, state, lr=0.5, cfg=cfg)
        np.testing.assert_allclose(params["w"],
                                   np.array([2.0, -1.0]) * (1 - 0.5 * 0.04),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("grads, message", [
        ({"b": np.zeros(1)}, "no gradient for parameter a"),
        ({"a": np.zeros(1), "b": np.zeros(1), "c": np.zeros(1), "d": np.zeros(1)},
         "gradient for unknown parameter c"),
        ({"a": np.zeros(1), "c": np.zeros(1)}, "no gradient for parameter b"),
    ])
    def test_unmatched_gradient_names_rejected_before_any_change(self, grads, message):
        """The first unmatched name in sorted order, a missing gradient or
        one that names no parameter."""
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match=f"^{message}$"):
            optimizer_step(params, grads, state, 0.1, TrainConfig())
        assert state.step == 0
        assert params["a"][0] == 1.0 and params["b"][0] == 2.0
        assert not any(np.any(moment) for moments in (state.m, state.v)
                       for moment in moments.values())

    def test_parameters_not_held_by_the_state_rejected(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="w is not the one the optimizer holds"):
            optimizer_step({"w": np.array([1.0])}, {"w": np.zeros(1)}, state, 0.1,
                           TrainConfig())

    def test_non_finite_grads_rejected(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="non-finite"):
            optimizer_step(params, {"w": np.array([np.nan])}, state, 0.1,
                           TrainConfig())

    def test_decay_never_applied_through_gradient(self):
        """With decay, the adam direction for g=0 stays zero; only the direct
        shrink acts.  A coupled (L2-through-gradient) implementation would
        move the moments."""
        cfg = TrainConfig(weight_decay=0.1)
        params = {"w": np.array([3.0])}
        state = AdamState.for_params(params)
        optimizer_step(params, {"w": np.zeros(1)}, state, 0.01, cfg)
        assert state.m["w"][0] == 0.0
        assert state.v["w"][0] == 0.0


class TestOptimizerStepAgainstAllocating:
    """The in-place AdamW step against one that allocates every
    intermediate, compared bit for bit over several steps."""

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=np.float64).view(np.int64)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_same_bits_over_steps(self, weight_decay):
        cfg = TrainConfig(weight_decay=weight_decay, betas=(0.8, 0.99))
        rng = np.random.default_rng(19)
        start = {"w": rng.normal(0.0, 1.0, (4, 3)), "b": np.array([0.0, -0.0, 2.0]),
                 "s": np.array(1.5)}
        params = {name: value.copy() for name, value in start.items()}
        ref_params = {name: value.copy() for name, value in start.items()}
        state, ref_state = AdamState.for_params(params), AdamState.for_params(ref_params)
        for step in range(6):
            grads = {name: np.asarray(rng.normal(0.0, 10.0 ** rng.integers(-6, 3),
                                                 value.shape))
                     for name, value in start.items()}
            grads["b"][step % 3] = -0.0     # a -0.0 gradient entry
            lr = 0.05 * (step + 1)
            optimizer_step(params, grads, state, lr, cfg)
            allocating_optimizer_step(ref_params, grads, ref_state, lr, cfg)
            assert state.step == ref_state.step
            for name in start:
                for got, want in ((params, ref_params), (state.m, ref_state.m),
                                  (state.v, ref_state.v)):
                    assert np.array_equal(self.bits(got[name]),
                                          self.bits(want[name])), name

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_same_bits_over_a_transformer_table(self, weight_decay):
        """Every parameter of a tiny transformer's table plus a 0-d one, over
        6 steps of gradients spanning many magnitudes."""
        cfg = TrainConfig(weight_decay=weight_decay)
        codec = TokenCodec(TypeVocabulary(("A", "B", "C")), ("x", "y", "z"))
        shapes = param_shapes(EncoderConfig(variant="tiny-transformer", d=8,
                                            n_layers=2, n_heads=2, max_len=6),
                              codec)
        shapes["scalar"] = ()
        rng = np.random.default_rng(23)
        start = {name: rng.normal(0.0, 1.0, shape) for name, shape in shapes.items()}
        params = {name: value.copy() for name, value in start.items()}
        ref_params = {name: value.copy() for name, value in start.items()}
        state, ref_state = AdamState.for_params(params), AdamState.for_params(ref_params)
        for step in range(6):
            grads = {name: np.asarray(rng.normal(0.0, 10.0 ** rng.integers(-8, 4),
                                                 shape))
                     for name, shape in shapes.items()}
            optimizer_step(params, grads, state, 0.01 * (step + 1), cfg)
            allocating_optimizer_step(ref_params, grads, ref_state,
                                      0.01 * (step + 1), cfg)
            for name in shapes:
                for got, want in ((params, ref_params), (state.m, ref_state.m),
                                  (state.v, ref_state.v)):
                    assert got[name].shape == shapes[name]
                    assert np.array_equal(self.bits(got[name]),
                                          self.bits(want[name])), name

    def test_parameters_and_moments_each_share_one_buffer(self):
        params = {"w": np.ones((2, 3)), "b": np.zeros(3), "s": np.array(2.0)}
        state = AdamState.for_params(params)
        assert all(params[name] is view for name, view in state.params.items())
        assert sorted(state.params) == sorted(params) and params["s"].shape == ()
        for row, views in zip(state.flat, (params, state.m, state.v)):
            assert all(np.shares_memory(view, row) for view in views.values())
            assert sum(view.size for view in views.values()) == row.size
        assert np.array_equal(state.flat[0], [0.0, 0.0, 0.0, 2.0] + [1.0] * 6)

    def test_moments_updated_in_place(self):
        params = {"w": np.array([1.0, 2.0])}
        state = AdamState.for_params(params)
        m, v = state.m["w"], state.v["w"]
        optimizer_step(params, {"w": np.array([0.5, -1.0])}, state, 0.1,
                       TrainConfig())
        assert state.m["w"] is m and state.v["w"] is v
        assert np.all(m != 0.0) and np.all(v > 0.0)


def tiny_corpus(seed=0, ambiguity=0.0, n_classes=3, self_prob=0.5):
    cfg = SynthConfig.uniform(
        n_classes, self_prob, seed=seed, ambiguity=ambiguity,
        class_vocab_size=20, shared_vocab_size=10,
        tokens_per_page=(3, 8), pages_per_doc=(4, 10),
        docs_per_split=(30, 4, 4),
    )
    return generate_synthetic(cfg)


def codec_for(split, cap=60_000):
    return TokenCodec(split.vocabulary,
                      fit_vocabulary(map(tokenize, split.train.texts), cap))


def encode(docs, codec, config):
    """The EncodedSplit of ``docs`` for an encoder of ``config``."""
    return encode_split(split_tokens(docs), codec, config.max_len)


class TestTrainEncoder:
    def test_step_count(self):
        split = tiny_corpus()
        codec = codec_for(split)
        enc = EncoderConfig(variant="linear", d=8, max_len=12)
        cfg = TrainConfig(epochs=2, batch_size=32, peak_lr=0.01, seed=1)
        n_pages = len(split.train.texts)
        _, report = train_encoder(enc, encode(split.train, codec, enc), cfg,
                                  recurrent=False)
        expected = 2 * ((n_pages + 31) // 32)
        assert report.total_steps == expected
        assert len(report.step_losses) == expected
        assert len(report.step_lrs) == expected

    def test_separable_corpus_reaches_high_train_accuracy(self):
        """ambiguity=0 corpus is linearly separable by construction."""
        split = tiny_corpus(seed=5, ambiguity=0.0)
        codec = codec_for(split)
        enc = EncoderConfig(variant="linear", d=16, max_len=16, init_seed=2)
        cfg = TrainConfig(epochs=5, batch_size=32, peak_lr=0.05, seed=3)
        train = encode(split.train, codec, enc)
        _, report = train_encoder(enc, train, cfg, recurrent=False, val=train)
        assert report.epoch_metrics[-1]["val_accuracy"] >= 0.99

    def test_same_seed_bit_identical(self):
        split = tiny_corpus(seed=2)
        codec = codec_for(split)
        enc = EncoderConfig(variant="linear", d=8, max_len=12, init_seed=4)
        cfg = TrainConfig(epochs=2, batch_size=16, peak_lr=0.02, seed=9)
        params1, report1 = train_encoder(enc, encode(split.train, codec, enc), cfg,
                                         recurrent=True)
        params2, report2 = train_encoder(enc, encode(split.train, codec, enc), cfg,
                                         recurrent=True)
        assert report1.step_losses == report2.step_losses
        for name in params1:
            np.testing.assert_array_equal(params1[name], params2[name])

    def test_recurrent_and_oblivious_share_schedule(self):
        """Identical step counts and schedule values; only batch construction
        differs between the two modes."""
        split = tiny_corpus(seed=3)
        codec = codec_for(split)
        enc = EncoderConfig(variant="linear", d=8, max_len=12)
        cfg = TrainConfig(epochs=2, batch_size=16, peak_lr=0.02, seed=5)
        _, rep_obl = train_encoder(enc, encode(split.train, codec, enc), cfg,
                                   recurrent=False)
        _, rep_rec = train_encoder(enc, encode(split.train, codec, enc), cfg,
                                   recurrent=True)
        assert rep_obl.total_steps == rep_rec.total_steps
        assert rep_obl.step_lrs == rep_rec.step_lrs

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_step(self):
        split = tiny_corpus(seed=4)
        codec = codec_for(split)
        enc = EncoderConfig(variant="linear", d=8, max_len=12)
        # absurd learning rate overflows the forward pass within two steps
        # (Adam updates are scale-normalized, so it takes ~1e160 to blow up)
        cfg = TrainConfig(epochs=3, batch_size=8, peak_lr=1e160,
                          warmup_fraction=0.0, seed=6)
        with pytest.raises(TrainingDiverged, match="step"):
            train_encoder(enc, encode(split.train, codec, enc), cfg,
                          recurrent=False)

    def test_report_payload_excludes_wall_clock(self):
        split = tiny_corpus(seed=6)
        codec = codec_for(split)
        enc = EncoderConfig(variant="linear", d=8, max_len=12)
        cfg = TrainConfig(epochs=1, batch_size=32, peak_lr=0.01)
        _, report = train_encoder(enc, encode(split.train, codec, enc), cfg,
                                  recurrent=False)
        payload = report.to_payload()
        assert "wall_clock_seconds" not in payload
        assert "stage_seconds" not in payload
        assert report.wall_clock_seconds > 0.0
        assert set(report.stage_seconds) == {"encode", "steps", "validation"}

    def test_split_encoded_for_another_max_len_is_refused(self):
        """Rows encoded for max_len 4 are truncated for that length: an
        encoder of max_len 16 neither decodes nor trains on them."""
        split = tiny_corpus(seed=7)
        codec = codec_for(split)
        enc = EncoderConfig(variant="linear", d=8, max_len=16)
        short = EncoderConfig(variant="linear", d=8, max_len=4)
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="max_len 4, encoder has max_len 16"):
            infer_split(init_params(enc, codec), encode(split.test, codec, short),
                        enc, recurrent=True)
        with pytest.raises(ValueError, match="max_len 4, encoder has max_len 16"):
            train_encoder(enc, encode(split.train, codec, short), cfg,
                          recurrent=False)
        with pytest.raises(ValueError, match="max_len 4, encoder has max_len 16"):
            train_encoder(enc, encode(split.train, codec, enc), cfg, recurrent=False,
                          val=encode(split.validation, codec, short))

    def test_validation_encoded_by_another_codec_is_refused(self):
        split = tiny_corpus(seed=8)
        enc = EncoderConfig(variant="linear", d=8, max_len=12)
        val = encode(split.validation, codec_for(split, cap=5), enc)
        with pytest.raises(ValueError, match="another codec"):
            train_encoder(enc, encode(split.train, codec_for(split), enc),
                          TrainConfig(epochs=1), recurrent=False, val=val)


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(peak_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_fraction=1.0)

    def test_published_recipe_values(self):
        cfg = TrainConfig.published()
        assert cfg.epochs == 6
        assert cfg.batch_size == 32
        assert cfg.peak_lr == 2e-5
        assert cfg.warmup_fraction == 0.10


@pytest.mark.parametrize("field, value", [
    ("peak_lr", float("nan")), ("peak_lr", float("inf")),
    ("weight_decay", -0.1), ("weight_decay", float("inf")),
    ("weight_decay", float("nan")), ("epsilon", 0.0), ("epsilon", float("inf")),
])
def test_train_config_rejects_non_finite_or_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
