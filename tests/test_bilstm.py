"""Tests for the BiLSTM page-sequence classifier and its BPTT gradients."""

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

from oracles import assert_grads_close, finite_diff_grads


def small_config(k=4, h=5, n=3, seed=0):
    return BiLstmConfig(input_dim=k, n_classes=n, hidden_dim=h, init_seed=seed)


class TestForward:
    def test_zero_weights_logits_equal_bias(self):
        config = small_config()
        params = init_bilstm(config)
        for name in params:
            params[name][:] = 0.0
        params["head_b"] = np.array([0.3, -0.7, 1.1])
        logits = bilstm_forward(params, np.random.default_rng(0).normal(0, 1, (4, 4)))
        np.testing.assert_allclose(logits, np.tile(params["head_b"], (4, 1)),
                                   atol=1e-15)

    def test_mirror_model_on_reversed_input(self):
        """Swapping directional weights (and the head halves) and reversing
        the input reverses the per-page logits."""
        config = small_config(seed=3)
        params = init_bilstm(config)
        rng = np.random.default_rng(1)
        for name in params:
            params[name] = rng.normal(0, 0.4, params[name].shape)
        h = config.hidden_dim
        mirrored = {
            "fw_w": params["bw_w"], "fw_u": params["bw_u"], "fw_b": params["bw_b"],
            "bw_w": params["fw_w"], "bw_u": params["fw_u"], "bw_b": params["fw_b"],
            "head_w": np.concatenate([params["head_w"][h:], params["head_w"][:h]]),
            "head_b": params["head_b"],
        }
        x = rng.normal(0, 1, (6, config.input_dim))
        logits = bilstm_forward(params, x)
        logits_mirror = bilstm_forward(mirrored, x[::-1])
        np.testing.assert_allclose(logits_mirror, logits[::-1], atol=1e-12)

    def test_empty_sequence_rejected(self):
        params = init_bilstm(small_config())
        with pytest.raises(ValueError):
            bilstm_forward(params, np.zeros((0, 4)))


class TestGradients:
    def test_bptt_matches_finite_differences(self):
        config = small_config()
        params = init_bilstm(config)
        rng = np.random.default_rng(7)
        for name in params:
            params[name] = rng.normal(0, 0.5, params[name].shape)
        batch = [
            (rng.normal(0, 1, (3, 4)), [0, 2, 1]),
            (rng.normal(0, 1, (1, 4)), [1]),
        ]
        _, grads = bilstm_loss_and_grad(params, batch)
        numeric = finite_diff_grads(
            lambda p: bilstm_loss_and_grad(p, batch)[0], params)
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
        params, _ = bilstm_train(xs, ys, config, cfg)
        correct = total = 0
        for x, labels in zip(xs, ys):
            preds = bilstm_forward(params, x).argmax(axis=1)
            correct += sum(p == g for p, g in zip(preds, labels))
            total += len(labels)
        assert correct / total >= 0.99

    def test_context_only_task_beats_oblivious_linear(self):
        """Labels repeat the previous page and only page 1 is informative:
        a sequence model can carry the class forward, a per-page model cannot."""
        rng = np.random.default_rng(11)
        train_x, train_y = constant_label_docs(rng, 60, 6, 3, 8)
        test_x, test_y = constant_label_docs(rng, 25, 6, 3, 8)
        config = BiLstmConfig(input_dim=8, n_classes=3, hidden_dim=16, init_seed=4)
        cfg = TrainConfig(epochs=30, batch_size=8, peak_lr=0.02, seed=6)
        params, _ = bilstm_train(train_x, train_y, config, cfg)

        def accuracy_bilstm():
            hits = total = 0
            for x, labels in zip(test_x, test_y):
                preds = bilstm_forward(params, x).argmax(axis=1)
                hits += sum(p == g for p, g in zip(preds, labels))
                total += len(labels)
            return hits / total

        w, b = train_softmax_regression(train_x, train_y, 3)
        flat_x = np.concatenate(test_x)
        flat_y = np.concatenate(test_y)
        linear_acc = float(np.mean(np.argmax(flat_x @ w + b, axis=1) == flat_y))
        bilstm_acc = accuracy_bilstm()
        assert bilstm_acc > linear_acc
        assert bilstm_acc >= 0.9
        assert linear_acc <= 0.6

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(13)
        xs, ys = constant_label_docs(rng, 10, 4, 3, 5)
        config = small_config(k=5, h=8, n=3, seed=2)
        cfg = TrainConfig(epochs=3, batch_size=4, peak_lr=0.01, seed=7)
        params1, report1 = bilstm_train(xs, ys, config, cfg)
        params2, report2 = bilstm_train(xs, ys, config, cfg)
        assert report1.step_losses == report2.step_losses
        for name in params1:
            np.testing.assert_array_equal(params1[name], params2[name])

    def test_step_count(self):
        rng = np.random.default_rng(17)
        xs, ys = constant_label_docs(rng, 10, 3, 3, 5)
        config = small_config(k=5)
        cfg = TrainConfig(epochs=2, batch_size=4, peak_lr=0.01)
        _, report = bilstm_train(xs, ys, config, cfg)
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
            bilstm_train(xs, ys, config, cfg)
