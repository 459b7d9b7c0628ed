"""Tests for the linear-chain CRF: exactness against explicit path
enumeration, forward-backward marginals, gradient checks, and fitting."""

import math

import numpy as np
import pytest

from pageseq.crf import (
    CrfModel,
    crf_fit,
    crf_forward_backward,
    crf_log_likelihood_and_grad,
    crf_path_score,
    crf_viterbi,
    emissions_from_logits,
)

from oracles import crf_enumerate, crf_log_forward, decode_documents


def random_model(n, rng, scale=1.0):
    return CrfModel(transition=rng.normal(0, 1, (n, n)),
                    start=rng.normal(0, 1, n),
                    emission_scale=scale)


class TestLogForward:
    def test_single_page_base_case(self):
        rng = np.random.default_rng(0)
        model = random_model(3, rng)
        e = rng.normal(0, 1, (1, 3))
        expected = math.log(np.exp(model.start + model.emission_scale * e[0]).sum())
        assert crf_log_forward(model, e) == pytest.approx(expected, rel=1e-12)

    def test_all_zero_scores_count_paths(self):
        """Zero model, l=2, n=3: every one of the 9 paths scores 0 -> ln 9."""
        model = CrfModel(np.zeros((3, 3)), np.zeros(3))
        assert crf_log_forward(model, np.zeros((2, 3))) == \
            pytest.approx(math.log(9), rel=1e-12)

    def test_matches_enumeration(self):
        """Random models, l <= 6, n <= 4, 200+ cases, within 1e-9."""
        rng = np.random.default_rng(42)
        cases = 0
        for n in (2, 3, 4):
            for length in (1, 2, 3, 4, 5, 6):
                for _ in range(12):
                    model = random_model(n, rng, scale=float(rng.uniform(0.5, 2.0)))
                    e = rng.normal(0, 2, (length, n))
                    log_z, *_ = crf_enumerate(model.transition, model.start, e,
                                              model.emission_scale)
                    assert crf_log_forward(model, e) == \
                        pytest.approx(log_z, abs=1e-9)
                    cases += 1
        assert cases >= 200


class TestViterbi:
    def test_zero_transitions_decouple(self):
        rng = np.random.default_rng(1)
        n = 4
        model = CrfModel(np.zeros((n, n)), np.zeros(n))
        e = rng.normal(0, 1, (5, n))
        path, _ = crf_viterbi(model, e)
        assert path == list(np.argmax(e, axis=1))

    def test_strong_self_transition_corrects_flipped_middle(self):
        """A weakly flipped middle emission is overridden by its neighbors."""
        n = 3
        model = CrfModel(10.0 * np.eye(n), np.zeros(n))
        e = np.array([[5.0, 0.0, 0.0],
                      [0.0, 0.5, 0.0],   # weak vote for class 1
                      [5.0, 0.0, 0.0]])
        path, _ = crf_viterbi(model, e)
        assert path == [0, 0, 0]

    def test_path_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            n = int(rng.integers(2, 5))
            length = int(rng.integers(1, 7))
            model = random_model(n, rng)
            e = rng.normal(0, 2, (length, n))
            path, path_score = crf_viterbi(model, e)
            _, best_path, best_score, _, _ = crf_enumerate(
                model.transition, model.start, e, model.emission_scale)
            assert path == best_path
            assert path_score == pytest.approx(best_score, abs=1e-9)
            assert path_score == pytest.approx(
                crf_path_score(model, e, path), abs=1e-9)

    def test_ties_break_to_lowest_index(self):
        model = CrfModel(np.zeros((3, 3)), np.zeros(3))
        path, _ = crf_viterbi(model, np.zeros((4, 3)))
        assert path == [0, 0, 0, 0]

    def test_path_score_never_exceeds_log_z(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            model = random_model(n, rng)
            e = rng.normal(0, 1, (int(rng.integers(1, 7)), n))
            _, best = crf_viterbi(model, e)
            log_z = crf_log_forward(model, e)
            assert best <= log_z + 1e-12

    def test_gold_probability_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            length = int(rng.integers(1, 6))
            model = random_model(n, rng)
            e = rng.normal(0, 1, (length, n))
            gold = rng.integers(0, n, length).tolist()
            p = math.exp(crf_path_score(model, e, gold) - crf_log_forward(model, e))
            assert 0.0 < p <= 1.0 + 1e-12


class TestForwardBackward:
    def test_unary_marginals_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            model = random_model(n, rng)
            e = rng.normal(0, 2, (int(rng.integers(1, 7)), n))
            unary, _, _ = crf_forward_backward(model, e)
            np.testing.assert_allclose(unary.sum(axis=1), 1.0, atol=1e-9)

    def test_marginals_match_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            length = int(rng.integers(1, 7))
            model = random_model(n, rng, scale=float(rng.uniform(0.5, 2.0)))
            e = rng.normal(0, 1.5, (length, n))
            unary, pair, log_z = crf_forward_backward(model, e)
            exp_log_z, _, _, exp_unary, exp_pair = crf_enumerate(
                model.transition, model.start, e, model.emission_scale)
            assert log_z == pytest.approx(exp_log_z, abs=1e-9)
            np.testing.assert_allclose(unary, exp_unary, atol=1e-9)
            np.testing.assert_allclose(pair, exp_pair, atol=1e-9)


class TestGradient:
    def test_log_likelihood_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        n = 3
        model = random_model(n, rng, scale=1.3)
        seqs = [rng.normal(0, 1, (int(rng.integers(1, 6)), n)) for _ in range(4)]
        golds = [rng.integers(0, n, s.shape[0]).tolist() for s in seqs]
        l2 = 0.05
        _, g_t, g_s, g_e = crf_log_likelihood_and_grad(model, seqs, golds, l2)

        def ll_of(transition, start, scale):
            m = CrfModel(transition, start, scale)
            return crf_log_likelihood_and_grad(m, seqs, golds, l2)[0]

        h = 1e-6
        for i in range(n):
            for j in range(n):
                t_up = model.transition.copy(); t_up[i, j] += h
                t_dn = model.transition.copy(); t_dn[i, j] -= h
                fd = (ll_of(t_up, model.start, model.emission_scale)
                      - ll_of(t_dn, model.start, model.emission_scale)) / (2 * h)
                assert g_t[i, j] == pytest.approx(fd, abs=1e-5)
        for i in range(n):
            s_up = model.start.copy(); s_up[i] += h
            s_dn = model.start.copy(); s_dn[i] -= h
            fd = (ll_of(model.transition, s_up, model.emission_scale)
                  - ll_of(model.transition, s_dn, model.emission_scale)) / (2 * h)
            assert g_s[i] == pytest.approx(fd, abs=1e-5)
        fd = (ll_of(model.transition, model.start, model.emission_scale + h)
              - ll_of(model.transition, model.start, model.emission_scale - h)) / (2 * h)
        assert g_e == pytest.approx(fd, abs=1e-5)


class TestFit:
    def test_repeating_labels_learn_dominant_diagonal(self):
        """Sign check: T[i][i] > max over j != i of T[i][j] for every class."""
        rng = np.random.default_rng(19)
        n = 3
        seqs, golds = [], []
        for _ in range(30):
            c = int(rng.integers(0, n))
            length = int(rng.integers(4, 9))
            seqs.append(rng.normal(0, 0.1, (length, n)))  # uninformative emissions
            golds.append([c] * length)
        model = crf_fit(seqs, golds, n, l2=0.05, tol=1e-4, max_iter=1000)
        for i in range(n):
            off = [model.transition[i, j] for j in range(n) if j != i]
            assert model.transition[i, i] > max(off)

    def test_single_label_corpus_decodes_gold(self):
        # separable data: the unregularized start score diverges, so a loose
        # tolerance is enough; decoding is what matters
        rng = np.random.default_rng(23)
        n = 2
        seqs = [rng.normal(0, 0.2, (int(rng.integers(2, 6)), n)) for _ in range(10)]
        golds = [[0] * s.shape[0] for s in seqs]
        model = crf_fit(seqs, golds, n, l2=0.01, tol=1e-3, max_iter=1000)
        assert decode_documents(model, seqs) == golds

    def test_fit_never_mutates_emissions(self):
        """Frozen-extractor contract: inputs are read-only features."""
        rng = np.random.default_rng(29)
        seqs = [rng.normal(0, 1, (4, 2)) for _ in range(5)]
        copies = [s.copy() for s in seqs]
        golds = [rng.integers(0, 2, 4).tolist() for _ in range(5)]
        crf_fit(seqs, golds, 2, l2=0.1, max_iter=50)
        for s, c in zip(seqs, copies):
            np.testing.assert_array_equal(s, c)

    def test_emission_scale_stays_positive(self):
        rng = np.random.default_rng(31)
        logits = [rng.normal(0, 1, (5, 3)) for _ in range(8)]
        seqs = [emissions_from_logits(lg) for lg in logits]
        golds = [rng.integers(0, 3, 5).tolist() for _ in range(8)]
        model = crf_fit(seqs, golds, 3, l2=0.1, max_iter=200)
        assert model.emission_scale > 0.0

    def test_returned_model_meets_gradient_tolerance(self):
        rng = np.random.default_rng(43)
        logits = [rng.normal(0, 2, (int(rng.integers(2, 8)), 3)) for _ in range(12)]
        seqs = [emissions_from_logits(lg) for lg in logits]
        golds = [rng.integers(0, 3, s.shape[0]).tolist() for s in seqs]
        tol = 1e-6
        model = crf_fit(seqs, golds, 3, l2=0.05, tol=tol)
        _, g_t, g_s, g_e = crf_log_likelihood_and_grad(model, seqs, golds, 0.05)
        if model.emission_scale <= 1e-6:
            g_e = max(g_e, 0.0)  # at the floor only an upward step is feasible
        assert max(np.abs(g_t).max(), np.abs(g_s).max(), abs(g_e)) <= tol

    def test_non_convergence_warns(self):
        rng = np.random.default_rng(37)
        seqs = [rng.normal(0, 1, (5, 3)) for _ in range(5)]
        golds = [rng.integers(0, 3, 5).tolist() for _ in range(5)]
        with pytest.warns(UserWarning, match="did not converge"):
            crf_fit(seqs, golds, 3, max_iter=1)


class TestEmissions:
    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(41)
        logits = rng.normal(0, 3, (6, 4))
        e = emissions_from_logits(logits)
        np.testing.assert_allclose(np.exp(e).sum(axis=1), 1.0, atol=1e-12)

    def test_invariant_to_logit_shift(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(emissions_from_logits(logits),
                                   emissions_from_logits(logits + 100.0),
                                   atol=1e-9)


@pytest.mark.parametrize("l2", [-1.0, float("nan"), float("inf")])
def test_fit_rejects_l2_that_breaks_concavity(l2):
    seqs = [np.zeros((3, 2))]
    with pytest.raises(ValueError, match="l2"):
        crf_fit(seqs, [[0, 1, 0]], 2, l2=l2)
