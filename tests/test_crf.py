"""Tests for the linear-chain CRF: exactness against explicit path
enumeration, the page-position walk against the per-document reference,
gradient checks, and fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pageseq.crf import (
    CrfModel,
    crf_fit,
    crf_log_likelihood_and_grad,
    crf_viterbi,
    emissions_from_logits,
)

from oracles import (
    columns,
    crf_enumerate,
    crf_forward_backward,
    crf_log_likelihood_per_document,
    crf_path_score,
    crf_viterbi_document,
)


def random_model(n, rng, scale=1.0):
    return CrfModel(transition=rng.normal(0, 1, (n, n)),
                    start=rng.normal(0, 1, n),
                    emission_scale=scale)


def log_z(model, e):
    """log Z of one document from the batched objective: with l2 = 0 the
    log-likelihood of a path is its score minus log Z."""
    gold = [0] * len(e)
    return crf_path_score(model, e, gold) - \
        crf_log_likelihood_and_grad(model, e, gold, [0, len(e)])[0]


def viterbi(model, e):
    """(path, score) of one document, decoded as a batch of one."""
    paths, scores = crf_viterbi(model, e, [0, len(e)])
    return paths.tolist(), float(scores[0])


def flat(seqs, golds, n):
    """(emissions, labels, offsets) of per-document emissions and labels."""
    emissions, offsets = columns(seqs, n)
    return emissions, columns(golds)[0], offsets


class TestLogForward:
    def test_single_page_base_case(self):
        rng = np.random.default_rng(0)
        model = random_model(3, rng)
        e = rng.normal(0, 1, (1, 3))
        expected = math.log(np.exp(model.start + model.emission_scale * e[0]).sum())
        assert log_z(model, e) == pytest.approx(expected, rel=1e-12)

    def test_all_zero_scores_count_paths(self):
        """Zero model, l=2, n=3: every one of the 9 paths scores 0 -> ln 9."""
        model = CrfModel(np.zeros((3, 3)), np.zeros(3))
        assert log_z(model, np.zeros((2, 3))) == \
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
                    expected, *_ = crf_enumerate(model.transition, model.start, e,
                                                 model.emission_scale)
                    assert log_z(model, e) == pytest.approx(expected, abs=1e-9)
                    cases += 1
        assert cases >= 200


class TestViterbi:
    def test_zero_transitions_decouple(self):
        rng = np.random.default_rng(1)
        n = 4
        model = CrfModel(np.zeros((n, n)), np.zeros(n))
        e = rng.normal(0, 1, (5, n))
        path, _ = viterbi(model, e)
        assert path == list(np.argmax(e, axis=1))

    def test_strong_self_transition_corrects_flipped_middle(self):
        """A weakly flipped middle emission is overridden by its neighbors."""
        n = 3
        model = CrfModel(10.0 * np.eye(n), np.zeros(n))
        e = np.array([[5.0, 0.0, 0.0],
                      [0.0, 0.5, 0.0],   # weak vote for class 1
                      [5.0, 0.0, 0.0]])
        path, _ = viterbi(model, e)
        assert path == [0, 0, 0]

    def test_path_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            n = int(rng.integers(2, 5))
            length = int(rng.integers(1, 7))
            model = random_model(n, rng)
            e = rng.normal(0, 2, (length, n))
            path, path_score = viterbi(model, e)
            _, best_path, best_score, _, _ = crf_enumerate(
                model.transition, model.start, e, model.emission_scale)
            assert path == best_path
            assert path_score == pytest.approx(best_score, abs=1e-9)
            assert path_score == pytest.approx(
                crf_path_score(model, e, path), abs=1e-9)

    def test_ties_break_to_lowest_index(self):
        model = CrfModel(np.zeros((3, 3)), np.zeros(3))
        path, _ = viterbi(model, np.zeros((4, 3)))
        assert path == [0, 0, 0, 0]

    def test_path_score_never_exceeds_log_z(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            model = random_model(n, rng)
            e = rng.normal(0, 1, (int(rng.integers(1, 7)), n))
            _, best = viterbi(model, e)
            assert best <= log_z(model, e) + 1e-12

    def test_gold_probability_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            length = int(rng.integers(1, 6))
            model = random_model(n, rng)
            e = rng.normal(0, 1, (length, n))
            gold = rng.integers(0, n, length).tolist()
            p = math.exp(crf_log_likelihood_and_grad(model, e, gold, [0, length])[0])
            assert 0.0 < p <= 1.0 + 1e-12


class TestForwardBackward:
    """The per-document reference that the page-position walk is compared to."""

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
        batch = flat(seqs, golds, n)
        _, g_t, g_s, g_e = crf_log_likelihood_and_grad(model, *batch, l2)

        def ll_of(transition, start, scale):
            m = CrfModel(transition, start, scale)
            return crf_log_likelihood_and_grad(m, *batch, l2)[0]

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


@st.composite
def ragged_batches(draw):
    """(model, emission_seqs, gold_seqs): 0 to 20 documents of 1 to 20 pages
    and n from 2 to 5, with batches of equal lengths and of one-page
    documents drawn on purpose."""
    n = draw(st.integers(2, 5))
    lengths = draw(st.one_of(
        st.lists(st.integers(1, 20), max_size=20),
        st.integers(1, 20).flatmap(lambda l: st.lists(st.just(l), min_size=2,
                                                       max_size=20)),
        st.lists(st.just(1), min_size=1, max_size=20)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = random_model(n, rng, scale=float(rng.uniform(0.1, 3.0)))
    seqs = [rng.normal(0, 2, (length, n)) for length in lengths]
    golds = [rng.integers(0, n, length).tolist() for length in lengths]
    return model, seqs, golds


def assert_close(batched, reference, rel=1e-12):
    """Within ``rel`` of the reference's largest magnitude (or of 1), so a
    gradient entry that cancels to near zero is held to its vector's scale."""
    reference = np.asarray(reference, dtype=np.float64)
    bound = rel * max(float(np.abs(reference).max(initial=0.0)), 1.0)
    np.testing.assert_allclose(batched, reference, rtol=0, atol=bound)


class TestBatch:
    """The page-position walk against the per-document reference."""

    @settings(max_examples=100)
    @given(ragged_batches(), st.sampled_from([0.0, 0.03]))
    def test_objective_matches_per_document(self, batch, l2):
        model, seqs, golds = batch
        got = crf_log_likelihood_and_grad(model, *flat(seqs, golds, model.n), l2)
        expected = crf_log_likelihood_per_document(model, seqs, golds, l2)
        for value, reference in zip(got, expected):
            assert_close(value, reference)

    @settings(max_examples=100)
    @given(ragged_batches())
    def test_viterbi_matches_per_document(self, batch):
        model, seqs, _ = batch
        emissions, offsets = columns(seqs, model.n)
        paths, scores = crf_viterbi(model, emissions, offsets)
        assert paths.shape == (len(emissions),) and scores.shape == (len(seqs),)
        for i, e in enumerate(seqs):
            ref_path, ref_score = crf_viterbi_document(model, e)
            assert paths[offsets[i]:offsets[i + 1]].tolist() == ref_path
            assert scores[i] == pytest.approx(ref_score, rel=1e-12, abs=1e-12)

    def test_zero_model_ties_break_to_lowest_index(self):
        model = CrfModel(np.zeros((3, 3)), np.zeros(3))
        paths, scores = crf_viterbi(model, np.zeros((12, 3)), [0, 3, 4, 9, 12])
        assert paths.tolist() == [0] * 12 and scores.tolist() == [0.0] * 4

    def test_empty_batch(self):
        model = random_model(3, np.random.default_rng(3))
        paths, scores = crf_viterbi(model, np.zeros((0, 3)), [0])
        assert paths.shape == scores.shape == (0,)
        ll, g_t, g_s, g_e = crf_log_likelihood_and_grad(model, np.zeros((0, 3)), [],
                                                        [0], 0.1)
        assert ll == pytest.approx(-0.1 * float((model.transition ** 2).sum()))
        np.testing.assert_array_equal(g_t, -0.2 * model.transition)
        assert not g_s.any() and g_e == 0.0

    def test_document_without_pages_is_rejected(self):
        model = random_model(2, np.random.default_rng(4))
        with pytest.raises(ValueError, match="at least one page"):
            crf_viterbi(model, np.zeros((2, 2)), [0, 2, 2])

    def test_label_lengths_must_match(self):
        model = random_model(2, np.random.default_rng(5))
        with pytest.raises(ValueError, match="in length"):
            crf_log_likelihood_and_grad(model, np.zeros((3, 2)), [0, 1], [0, 3])

    @pytest.mark.parametrize("labels", [[-1, 0, 1], [0, 3, 1]],
                             ids=["negative", "past-last"])
    def test_labels_must_be_class_indices(self, labels):
        """A label outside 0..n-1 is an error, not a class read from the end
        of the class axis."""
        model = random_model(3, np.random.default_rng(6))
        with pytest.raises(ValueError, match="class indices"):
            crf_log_likelihood_and_grad(model, np.zeros((3, 3)), labels, [0, 3])


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
        model = crf_fit(*flat(seqs, golds, n), l2=0.05, tol=1e-4, max_iter=1000).model
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
        emissions, labels, offsets = flat(seqs, golds, n)
        model = crf_fit(emissions, labels, offsets, l2=0.01, tol=1e-3,
                        max_iter=1000).model
        np.testing.assert_array_equal(crf_viterbi(model, emissions, offsets)[0], labels)

    def test_fit_never_mutates_emissions(self):
        """Frozen-extractor contract: inputs are read-only features."""
        rng = np.random.default_rng(29)
        seqs = [rng.normal(0, 1, (4, 2)) for _ in range(5)]
        golds = [rng.integers(0, 2, 4).tolist() for _ in range(5)]
        emissions, labels, offsets = flat(seqs, golds, 2)
        copy = emissions.copy()
        crf_fit(emissions, labels, offsets, l2=0.1, max_iter=50)
        np.testing.assert_array_equal(emissions, copy)

    def test_emission_scale_stays_positive(self):
        rng = np.random.default_rng(31)
        logits = [rng.normal(0, 1, (5, 3)) for _ in range(8)]
        golds = [rng.integers(0, 3, 5).tolist() for _ in range(8)]
        logits, labels, offsets = flat(logits, golds, 3)
        model = crf_fit(emissions_from_logits(logits), labels, offsets,
                        l2=0.1, max_iter=200).model
        assert model.emission_scale > 0.0

    def test_returned_model_meets_gradient_tolerance(self):
        rng = np.random.default_rng(43)
        logits = [rng.normal(0, 2, (int(rng.integers(2, 8)), 3)) for _ in range(12)]
        golds = [rng.integers(0, 3, lg.shape[0]).tolist() for lg in logits]
        logits, labels, offsets = flat(logits, golds, 3)
        batch = emissions_from_logits(logits), labels, offsets
        tol = 1e-6
        fit = crf_fit(*batch, l2=0.05, tol=tol)
        model = fit.model
        _, g_t, g_s, g_e = crf_log_likelihood_and_grad(model, *batch, 0.05)
        if model.emission_scale <= 1e-6:
            g_e = max(g_e, 0.0)  # at the floor only an upward step is feasible
        projected = max(np.abs(g_t).max(), np.abs(g_s).max(), abs(g_e))
        assert projected <= tol
        assert fit.converged and fit.iterations > 0
        assert fit.projected_gradient_max == pytest.approx(projected, rel=1e-12, abs=0)

    def test_non_convergence_warns(self):
        rng = np.random.default_rng(37)
        seqs = [rng.normal(0, 1, (5, 3)) for _ in range(5)]
        golds = [rng.integers(0, 3, 5).tolist() for _ in range(5)]
        with pytest.warns(UserWarning, match="did not converge"):
            fit = crf_fit(*flat(seqs, golds, 3), max_iter=1)
        assert not fit.converged and fit.iterations == 1
        assert fit.projected_gradient_max > 1e-6

    def test_stop_on_flat_objective_above_tol_is_not_converged(self):
        """L-BFGS-B stops, and reports success, once the objective no longer
        decreases; with the projected gradient still above ``tol`` the fit
        has not converged."""
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 10, 25)
        logits = rng.normal(0, 3, (sizes.sum(), 3))
        labels = rng.integers(0, 3, sizes.sum())
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        with pytest.warns(UserWarning, match="did not converge"):
            fit = crf_fit(emissions_from_logits(logits), labels, offsets, tol=1e-9)
        assert fit.projected_gradient_max > 1e-9 and not fit.converged
        assert fit.iterations < 1000        # the stop was not the iteration cap

    def test_projected_gradient_at_the_scale_floor(self):
        """Emissions that point away from the gold labels push the scale
        down to its floor; there the blocked descent step does not count."""
        batch = flat([np.log(np.array([[0.1, 0.9], [0.9, 0.1], [0.1, 0.9]]))] * 4,
                     [[0, 1, 0]] * 4, 2)
        fit = crf_fit(*batch, l2=0.1)
        assert fit.converged and fit.model.emission_scale == 1e-6
        _, g_t, g_s, g_e = crf_log_likelihood_and_grad(fit.model, *batch, 0.1)
        assert g_e < -1e-6  # the objective would rise below the floor
        assert fit.projected_gradient_max == pytest.approx(
            max(np.abs(g_t).max(), np.abs(g_s).max()), rel=1e-12, abs=0)


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
    with pytest.raises(ValueError, match="l2"):
        crf_fit(np.zeros((3, 2)), [0, 1, 0], [0, 3], l2=l2)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_model_rejects_scale_that_is_not_positive(scale):
    with pytest.raises(ValueError, match="scale positive"):
        CrfModel(np.zeros((2, 2)), np.zeros(2), scale)
