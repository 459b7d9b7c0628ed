"""Tests for the BiLSTM page-sequence classifier and its BPTT gradients."""

import tracemalloc

import numpy as np
import pytest

from pageseq.bilstm import (
    BiLstmConfig,
    bilstm_forward,
    bilstm_loss_and_grad,
    bilstm_train,
    init_bilstm,
)
from pageseq.training import TrainConfig, TrainingDiverged

from oracles import (
    assert_grads_close,
    columns,
    bilstm_logits_per_document,
    bilstm_loss_and_grad_per_document,
    finite_diff_grads,
)


def small_config(k=4, h=5, n=3, seed=0):
    return BiLstmConfig(input_dim=k, n_classes=n, hidden_dim=h, init_seed=seed)


def random_params(config, rng, scale=0.5):
    params = init_bilstm(config)
    for name in params:
        params[name] = rng.normal(0, scale, params[name].shape)
    return params


def flat(batch):
    """(vectors, labels, offsets) of (vectors, labels) documents."""
    batch = list(batch)
    vectors, offsets = columns([x for x, _ in batch])
    return vectors, columns([y for _, y in batch])[0], offsets


# ragged batches whose longest document is not first, each with a 1-page one
RAGGED_LENGTHS = [[2, 5, 1, 3], [1, 4], [3, 1, 7, 7, 2], [2, 1, 6]]


class TestForward:
    def test_zero_weights_logits_equal_bias(self):
        config = small_config()
        params = init_bilstm(config)
        for name in params:
            params[name][:] = 0.0
        params["head_b"] = np.array([0.3, -0.7, 1.1])
        rng = np.random.default_rng(0)
        logits = bilstm_forward(params, *columns([rng.normal(0, 1, (l, 4))
                                                  for l in (2, 4, 1)]))
        np.testing.assert_allclose(logits, np.tile(params["head_b"], (7, 1)),
                                   atol=1e-15)

    def test_mirror_model_on_reversed_input(self):
        """Swapping directional weights (and the head halves) and reversing
        every document reverses each document's per-page logits."""
        config = small_config(seed=3)
        rng = np.random.default_rng(1)
        params = random_params(config, rng, scale=0.4)
        h = config.hidden_dim
        mirrored = {
            "fw_w": params["bw_w"], "fw_u": params["bw_u"], "fw_b": params["bw_b"],
            "bw_w": params["fw_w"], "bw_u": params["fw_u"], "bw_b": params["fw_b"],
            "head_w": np.concatenate([params["head_w"][h:], params["head_w"][:h]]),
            "head_b": params["head_b"],
        }
        xs = [rng.normal(0, 1, (l, config.input_dim)) for l in (2, 6, 1, 4)]
        x, offsets = columns(xs)
        logits = bilstm_forward(params, x, offsets)
        logits_mirror = bilstm_forward(mirrored, *columns([x[::-1] for x in xs]))
        for a, b in zip(offsets[:-1], offsets[1:]):
            np.testing.assert_allclose(logits_mirror[a:b], logits[a:b][::-1],
                                       atol=1e-12)

    def test_empty_sequence_rejected(self):
        params = init_bilstm(small_config())
        for lengths in ([0], [3, 0]):
            with pytest.raises(ValueError, match="at least one page"):
                bilstm_forward(params, *columns([np.zeros((l, 4)) for l in lengths]))

    def test_empty_batch_gives_no_rows(self):
        assert bilstm_forward(init_bilstm(small_config()), np.zeros((0, 4)),
                              [0]).shape == (0, 3)

    def test_one_long_document_costs_its_own_pages(self):
        """29 ten-page documents and one 1,000-page one: the states are
        kept per page, not per document times the longest document."""
        params = init_bilstm(small_config(k=100, h=32, n=4))
        sizes = [10] * 29 + [1000]
        vectors = np.random.default_rng(0).normal(0, 1, (sum(sizes), 100))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        tracemalloc.start()
        try:
            bilstm_forward(params, vectors, offsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestReference:
    """The page-position walk against the per-document, per-page recursion."""

    @pytest.mark.parametrize("lengths", RAGGED_LENGTHS)
    def test_logits_loss_and_gradients_match(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        params = random_params(small_config(), rng)
        batch = [(rng.normal(0, 1, (l, 4)), rng.integers(0, 3, l).tolist())
                 for l in lengths]
        vectors, labels, offsets = flat(batch)
        np.testing.assert_allclose(bilstm_forward(params, vectors, offsets),
                                   bilstm_logits_per_document(
                                       params, [x for x, _ in batch]),
                                   rtol=0, atol=1e-12)
        loss, grads = bilstm_loss_and_grad(params, vectors, labels, offsets)
        ref_loss, ref_grads = bilstm_loss_and_grad_per_document(params, batch)
        assert abs(loss - ref_loss) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], ref_grads[name],
                                       rtol=0, atol=1e-12, err_msg=name)

    def test_logits_independent_of_batch_mates(self):
        """A document's logits do not depend on the documents walked with it."""
        rng = np.random.default_rng(2)
        params = random_params(small_config(), rng)
        short, long = rng.normal(0, 1, (2, 4)), rng.normal(0, 1, (6, 4))
        alone = bilstm_forward(params, *columns([short]))
        np.testing.assert_allclose(bilstm_forward(params, *columns([short, long]))[:2],
                                   alone, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bilstm_forward(params, *columns([long, short]))[6:],
                                   alone, rtol=0, atol=1e-12)


class TestLabelCounts:
    @pytest.mark.parametrize("lengths, label_seqs", [
        ([3], [[0, 1]]), ([3], [[0, 1, 2, 0]]), ([3], [[]]),
        ([2, 4], [[0, 1], [0, 1, 2]]),
    ])
    def test_mismatch_rejected(self, lengths, label_seqs):
        rng = np.random.default_rng(3)
        params = init_bilstm(small_config())
        batch = [(rng.normal(0, 1, (l, 4)), labels)
                 for l, labels in zip(lengths, label_seqs)]
        with pytest.raises(ValueError, match="one label per page"):
            bilstm_loss_and_grad(params, *flat(batch))

    @pytest.mark.parametrize("labels", [[-1, 0, 1], [0, 3, 1]],
                             ids=["negative", "past-last"])
    def test_labels_must_be_class_indices(self, labels):
        """A label outside 0..n-1 is an error, not a class read from the end
        of the class axis."""
        params = init_bilstm(small_config())
        x = np.random.default_rng(4).normal(0, 1, (3, 4))
        with pytest.raises(ValueError, match="class indices"):
            bilstm_loss_and_grad(params, x, labels, [0, 3])


class TestGradients:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = random_params(small_config(), rng)
        batch = [
            (rng.normal(0, 1, (2, 4)), [2, 0]),
            (rng.normal(0, 1, (3, 4)), [0, 2, 1]),
            (rng.normal(0, 1, (1, 4)), [1]),
        ]
        _, grads = bilstm_loss_and_grad(params, *flat(batch))
        numeric = finite_diff_grads(
            lambda p: bilstm_loss_and_grad(p, *flat(batch))[0], params)
        assert_grads_close(grads, numeric, rel_tol=1e-4)


def constant_label_docs(rng, n_docs, length, n_classes, k, anchor_strength=3.0):
    """Docs whose label is constant and visible only on the first page."""
    xs, ys = [], []
    for _ in range(n_docs):
        c = int(rng.integers(0, n_classes))
        x = rng.normal(0, 0.1, (length, k))
        x[0, c] += anchor_strength
        xs.append(x)
        ys.append([c] * length)
    return xs, ys


def train_softmax_regression(xs, ys, n_classes, iters=300, lr=0.5):
    """Context-oblivious per-page linear baseline (oracle for comparison)."""
    x = np.concatenate(xs)
    y = np.concatenate(ys).astype(np.int64)
    w = np.zeros((x.shape[1], n_classes))
    b = np.zeros(n_classes)
    for _ in range(iters):
        logits = x @ w + b
        m = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        p /= len(y)
        w -= lr * (x.T @ p)
        b -= lr * p.sum(axis=0)
    return w, b


class TestTraining:
    def test_separable_features_reach_high_accuracy(self):
        """Per-page separable vectors: every page carries its class direction."""
        rng = np.random.default_rng(5)
        xs, ys = [], []
        for _ in range(40):
            labels = rng.integers(0, 3, size=6)
            x = rng.normal(0, 0.05, (6, 6))
            for t, c in enumerate(labels):
                x[t, c] += 2.0
            xs.append(x)
            ys.append(labels.tolist())
        config = BiLstmConfig(input_dim=6, n_classes=3, hidden_dim=16, init_seed=1)
        cfg = TrainConfig(epochs=20, batch_size=8, peak_lr=0.02, seed=2)
        vectors, labels, offsets = flat(zip(xs, ys))
        params, _ = bilstm_train(vectors, labels, offsets, config, cfg)
        preds = bilstm_forward(params, vectors, offsets).argmax(axis=1)
        assert np.mean(preds == labels) >= 0.99

    def test_context_only_task_beats_oblivious_linear(self):
        """Labels repeat the previous page and only page 1 is informative:
        a sequence model can carry the class forward, a per-page model cannot."""
        rng = np.random.default_rng(11)
        train_x, train_y = constant_label_docs(rng, 60, 6, 3, 8)
        test_x, test_y = constant_label_docs(rng, 25, 6, 3, 8)
        config = BiLstmConfig(input_dim=8, n_classes=3, hidden_dim=16, init_seed=4)
        cfg = TrainConfig(epochs=30, batch_size=8, peak_lr=0.02, seed=6)
        params, _ = bilstm_train(*flat(zip(train_x, train_y)), config, cfg)

        w, b = train_softmax_regression(train_x, train_y, 3)
        flat_x = np.concatenate(test_x)
        flat_y = np.concatenate(test_y)
        linear_acc = float(np.mean(np.argmax(flat_x @ w + b, axis=1) == flat_y))
        bilstm_acc = float(np.mean(
            bilstm_forward(params, *columns(test_x)).argmax(axis=1) == flat_y))
        assert bilstm_acc > linear_acc
        assert bilstm_acc >= 0.9
        assert linear_acc <= 0.6

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(13)
        xs, ys = constant_label_docs(rng, 10, 4, 3, 5)
        config = small_config(k=5, h=8, n=3, seed=2)
        cfg = TrainConfig(epochs=3, batch_size=4, peak_lr=0.01, seed=7)
        params1, report1 = bilstm_train(*flat(zip(xs, ys)), config, cfg)
        params2, report2 = bilstm_train(*flat(zip(xs, ys)), config, cfg)
        assert report1.step_losses == report2.step_losses
        for name in params1:
            np.testing.assert_array_equal(params1[name], params2[name])

    def test_step_count(self):
        rng = np.random.default_rng(17)
        xs, ys = constant_label_docs(rng, 10, 3, 3, 5)
        config = small_config(k=5)
        cfg = TrainConfig(epochs=2, batch_size=4, peak_lr=0.01)
        _, report = bilstm_train(*flat(zip(xs, ys)), config, cfg)
        assert report.total_steps == 2 * 3  # ceil(10/4) = 3 per epoch
        assert len(report.step_losses) == 6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported(self):
        rng = np.random.default_rng(19)
        xs, ys = constant_label_docs(rng, 8, 3, 3, 5)
        config = small_config(k=5)
        # gates saturate, so only a float-max learning rate can overflow the head
        cfg = TrainConfig(epochs=2, batch_size=2, peak_lr=1e308,
                          warmup_fraction=0.0)
        with pytest.raises(TrainingDiverged):
            bilstm_train(*flat(zip(xs, ys)), config, cfg)
