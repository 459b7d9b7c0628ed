"""Acceptance suite.

Each test prints one PASS/FAIL line.  Criteria 2 and 4 share one synthetic
experiment (3 seeds, high- and low-self-transition corpora) executed once per
session; everything else is fast arithmetic, enumeration, or finite
differences at the tolerances stated in the criteria.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pageseq.bilstm import (
    BiLstmConfig,
    bilstm_forward,
    bilstm_loss_and_grad,
    bilstm_train,
    init_bilstm,
)
from pageseq.cli import main
from pageseq.corpus import (
    MULTICLASS,
    MULTILABEL,
    SynthConfig,
    TypeVocabulary,
    generate_synthetic,
    transition_self_prob,
)
from pageseq.crf import (
    CrfModel,
    crf_fit,
    crf_log_likelihood_and_grad,
    crf_viterbi,
    emissions_from_logits,
)
from pageseq.encoder import (
    CLS_ID,
    FIRST_ID,
    PAD_ID,
    UNK_ID,
    EncoderConfig,
    TokenCodec,
    init_params,
    loss_and_grad,
)
from pageseq.evaluation import aggregate_f1, mcnemar_bowker, score
from pageseq.features import fit_svd, fit_vocabulary, tokenize
from pageseq.recurrence import infer_split
from pageseq.training import AdamState, TrainConfig, lr_at, optimizer_step, train_encoder

from oracles import (
    assert_grads_close,
    class_token_id,
    columns,
    crf_enumerate,
    finite_diff_grads,
    jacobi_eigh,
    reference_batch,
    reference_chi2_sf,
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {num} ({title}): FAIL")
        raise
    print(f"\n[ACCEPTANCE] criterion {num} ({title}): PASS")


# ---------------------------------------------------------------------------
# Criterion 1: metric arithmetic vs the published tables
# ---------------------------------------------------------------------------


def test_criterion_1_metric_arithmetic():
    with criterion(1, "metric arithmetic vs published per-class F1s"):
        f1s = [90.71, 73.42, 64.33, 97.89, 83.54, 87.63]
        supports = [273, 1841, 198, 85408, 6331, 1475]
        macro, weighted = aggregate_f1(f1s, supports)
        assert macro == pytest.approx(82.92, abs=0.005)
        assert weighted == pytest.approx(96.22, abs=0.005)


# ---------------------------------------------------------------------------
# Criteria 2 and 4: the synthetic recurrence experiment (shared fixture)
# ---------------------------------------------------------------------------

N_CLASSES = 4
SEEDS = (0, 1, 2)


def _experiment_corpus(self_prob, seed):
    cfg = SynthConfig.uniform(
        N_CLASSES, self_prob, seed=100 + seed, ambiguity=0.8,
        tokens_per_page=(1, 6), pages_per_doc=(6, 14),
        class_vocab_size=25, shared_vocab_size=300,
        docs_per_split=(200, 30, 60),
    )
    return generate_synthetic(cfg)


def _run_models(split, seed, with_baselines):
    """Train oblivious + recurrent (and optionally fit the CRF and train the
    BiLSTM on the frozen oblivious train scores, as ``pageseq train`` does);
    return test macro-F1 percentages."""
    codec = TokenCodec(split.vocabulary, fit_vocabulary(map(tokenize, split.train.texts)))
    enc = EncoderConfig(variant="linear", d=32, max_len=16, init_seed=seed)
    cfg = TrainConfig(epochs=5, batch_size=32, peak_lr=0.02, seed=seed)
    p_obl, _ = train_encoder(enc, codec, split.train, cfg, recurrent=False)
    p_rec, _ = train_encoder(enc, codec, split.train, cfg, recurrent=True)

    def macro(preds):
        return 100 * score(preds, split.test.gold, split.vocabulary).macro_f1

    trace_obl = infer_split(p_obl, split.test, enc, codec, recurrent=False)
    trace_rec = infer_split(p_rec, split.test, enc, codec, recurrent=True)
    out = {"oblivious": macro(trace_obl.labels), "recurrent": macro(trace_rec.labels)}
    if with_baselines:
        emissions = emissions_from_logits(
            infer_split(p_obl, split.train, enc, codec, recurrent=False).scores)
        golds, offsets = split.train.gold.argmax(axis=1), split.train.offsets
        crf_model = crf_fit(emissions, golds, offsets,
                            l2=0.01, tol=1e-4, max_iter=500).model
        bl_params, _ = bilstm_train(
            emissions, golds, offsets,
            BiLstmConfig(N_CLASSES, N_CLASSES, hidden_dim=128, init_seed=seed), cfg)
        test_emissions = emissions_from_logits(trace_obl.scores)
        paths, _ = crf_viterbi(crf_model, test_emissions, trace_obl.offsets)
        out["crf"] = macro(np.eye(N_CLASSES, dtype=bool)[paths])
        logits = bilstm_forward(bl_params, test_emissions, trace_obl.offsets)
        out["bilstm"] = macro(np.eye(N_CLASSES, dtype=bool)[logits.argmax(axis=1)])
    return out


@pytest.fixture(scope="module")
def recurrence_experiment():
    started = time.perf_counter()
    high = {name: [] for name in ("oblivious", "crf", "bilstm", "recurrent")}
    low = {name: [] for name in ("oblivious", "recurrent")}
    for seed in SEEDS:
        result = _run_models(_experiment_corpus(0.85, seed), seed, with_baselines=True)
        for name, value in result.items():
            high[name].append(value)
        result = _run_models(_experiment_corpus(0.25, seed), seed,
                             with_baselines=False)
        for name, value in result.items():
            low[name].append(value)
    elapsed = time.perf_counter() - started
    means_high = {k: float(np.mean(v)) for k, v in high.items()}
    means_low = {k: float(np.mean(v)) for k, v in low.items()}
    print(f"\n[ACCEPTANCE] synthetic experiment ({elapsed:.0f}s): "
          f"high-self {means_high}, low-self {means_low}")
    assert elapsed < 300, "experiment must finish inside the 5-minute budget"
    return means_high, means_low


def test_criterion_2_recurrence_benefit(recurrence_experiment):
    with criterion(2, "recurrence benefit on high-self-transition corpus"):
        high, low = recurrence_experiment
        gap_high = high["recurrent"] - high["oblivious"]
        gap_low = low["recurrent"] - low["oblivious"]
        assert gap_high >= 5.0, f"macro-F1 gap {gap_high:.2f} < 5 points"
        # at self-transition <= 0.30 the benefit may vanish or reverse;
        # the direction mirrors the published per-class regression
        assert gap_low < gap_high


def test_criterion_4_context_method_ordering(recurrence_experiment):
    with criterion(4, "recurrent >= frozen+CRF >= oblivious ordering"):
        high, _ = recurrence_experiment
        assert high["recurrent"] >= high["crf"] >= high["oblivious"], high


def test_bilstm_baseline_beats_oblivious(recurrence_experiment):
    """The BiLSTM over the frozen oblivious scores, the ones the CRF fits, is
    a context-aware baseline: on the high-self corpus it beats the
    context-oblivious encoder it reads, averaged over SEEDS."""
    with criterion("4b", "frozen+BiLSTM > oblivious"):
        high, _ = recurrence_experiment
        assert high["bilstm"] > high["oblivious"], high


# ---------------------------------------------------------------------------
# Criterion 3: CRF exactness against brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_3_crf_exactness():
    with criterion(3, "CRF Viterbi and logZ match path enumeration"):
        rng = np.random.default_rng(2024)
        cases = 0
        for n in (2, 3, 4):
            for length in (1, 2, 3, 4, 5, 6):
                for _ in range(12):
                    model = CrfModel(transition=rng.normal(0, 1.5, (n, n)),
                                     start=rng.normal(0, 1, n),
                                     emission_scale=float(rng.uniform(0.5, 2.0)))
                    e = rng.normal(0, 2, (length, n))
                    log_z, best_path, best_score, _, _ = crf_enumerate(
                        model.transition, model.start, e, model.emission_scale)
                    # with l2 = 0 the log-likelihood of a path is its score
                    # minus log Z
                    ll = crf_log_likelihood_and_grad(model, e, best_path,
                                                     [0, length])[0]
                    assert ll == pytest.approx(best_score - log_z, abs=1e-9)
                    path, (path_score,) = crf_viterbi(model, e, [0, length])
                    assert path.tolist() == best_path
                    assert path_score == pytest.approx(best_score, abs=1e-9)
                    cases += 1
        assert cases >= 200


# ---------------------------------------------------------------------------
# Criterion 5: gradient suites
# ---------------------------------------------------------------------------


def _fd_batch(codec, max_len, label_mode):
    a, c = class_token_id(codec, 0), class_token_id(codec, 2)
    examples = []
    for ids, gold in (([CLS_ID, FIRST_ID, 7, 8], frozenset({0})),
                      ([CLS_ID, a, 9, UNK_ID], frozenset({1})),
                      ([CLS_ID, a, c, 10], frozenset({2}))):
        padded = np.full(max_len, PAD_ID, dtype=np.int64)
        padded[:len(ids)] = ids
        examples.append(((padded, len(ids)), gold))
    return reference_batch(examples, label_mode, codec.n_classes)


def test_criterion_5_gradient_suites():
    with criterion(5, "all gradients match central finite differences"):
        rng = np.random.default_rng(55)
        vocab = TypeVocabulary(("A", "B", "C"))
        codec = TokenCodec(vocab, ("t0", "t1", "t2", "t3", "t4", "t5"))

        for variant, label_mode in (("linear", MULTICLASS),
                                    ("linear", MULTILABEL),
                                    ("tiny-transformer", MULTICLASS),
                                    ("tiny-transformer", MULTILABEL)):
            config = EncoderConfig(variant=variant, d=8, n_layers=1, n_heads=2,
                                   max_len=8, init_seed=1)
            params = init_params(config, codec)
            for name in params:
                params[name] = rng.normal(0, 0.4, params[name].shape)
            batch = _fd_batch(codec, 8, label_mode)
            _, grads = loss_and_grad(params, *batch, config, label_mode)
            numeric = finite_diff_grads(
                lambda p: loss_and_grad(p, *batch, config, label_mode)[0], params)
            assert_grads_close(grads, numeric, rel_tol=1e-4)

        bl_config = BiLstmConfig(input_dim=4, n_classes=3, hidden_dim=5, init_seed=2)
        bl_params = init_bilstm(bl_config)
        for name in bl_params:
            bl_params[name] = rng.normal(0, 0.5, bl_params[name].shape)
        # ragged: the longest document is not first, and one has a single page
        vectors, offsets = columns([rng.normal(0, 1, (2, 4)), rng.normal(0, 1, (3, 4)),
                                    rng.normal(0, 1, (1, 4))])
        bl_batch = vectors, [2, 0, 0, 2, 1, 1], offsets
        _, bl_grads = bilstm_loss_and_grad(bl_params, *bl_batch)
        bl_numeric = finite_diff_grads(
            lambda p: bilstm_loss_and_grad(p, *bl_batch)[0], bl_params)
        assert_grads_close(bl_grads, bl_numeric, rel_tol=1e-4)

        n = 3
        model = CrfModel(transition=rng.normal(0, 1, (n, n)),
                         start=rng.normal(0, 1, n), emission_scale=1.2)
        seqs = [rng.normal(0, 1, (int(rng.integers(1, 6)), n)) for _ in range(4)]
        golds = [rng.integers(0, n, s.shape[0]).tolist() for s in seqs]
        emissions, offsets = columns(seqs)
        labels = columns(golds)[0]
        _, g_t, g_s, g_e = crf_log_likelihood_and_grad(model, emissions, labels,
                                                       offsets, l2=0.03)

        def ll(p):
            m = CrfModel(p["t"], p["s"], float(p["e"][0]))
            return crf_log_likelihood_and_grad(m, emissions, labels, offsets,
                                               l2=0.03)[0]

        packed = {"t": model.transition.copy(), "s": model.start.copy(),
                  "e": np.array([model.emission_scale])}
        numeric = finite_diff_grads(ll, packed)
        assert_grads_close({"t": g_t, "s": g_s, "e": np.array([g_e])}, numeric,
                           rel_tol=1e-4)


# ---------------------------------------------------------------------------
# Criterion 6: statistics (McNemar-Bowker + self-transition estimator)
# ---------------------------------------------------------------------------

FIXED_TABLES = [
    np.array([[10, 3], [9, 20]]),
    np.array([[5, 0], [7, 9]]),
    np.array([[40, 12, 8], [5, 30, 3], [8, 10, 25]]),
    np.array([[12, 1, 2], [3, 14, 5], [6, 7, 18]]),
    np.array([[9, 9], [1, 4]]),
    np.array([[50, 2, 0], [6, 40, 4], [0, 9, 33]]),
    np.array([[7, 11, 0, 2], [4, 9, 6, 1], [3, 5, 12, 8], [9, 2, 4, 15]]),
    np.array([[25, 17], [17, 30]]),
    np.array([[2, 30], [1, 2]]),
    np.array([[11, 4, 4], [4, 11, 4], [4, 4, 11]]),
]


def _oracle_bowker_stat(table):
    stat, dof = 0.0, 0
    n = table.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            s = table[i, j] + table[j, i]
            if s > 0:
                stat += (table[i, j] - table[j, i]) ** 2 / s
                dof += 1
    return stat, dof


def test_criterion_6_statistics():
    with criterion(6, "McNemar-Bowker + self-transition estimator"):
        symmetric = np.array([[4, 7, 1], [7, 9, 5], [1, 5, 6]])
        result = mcnemar_bowker(symmetric)
        assert result.statistic == 0.0 and result.p_value == 1.0

        b, c = 15, 4
        two = mcnemar_bowker(np.array([[8, b], [c, 11]]))
        assert two.statistic == pytest.approx((b - c) ** 2 / (b + c), rel=1e-12)
        assert two.dof == 1

        for table in FIXED_TABLES:
            got = mcnemar_bowker(table)
            stat, dof = _oracle_bowker_stat(table.astype(float))
            assert got.statistic == pytest.approx(stat, rel=1e-12)
            assert got.dof == dof
            expected_p = 1.0 if dof == 0 else reference_chi2_sf(stat, dof)
            assert got.p_value == pytest.approx(expected_p, abs=1e-8)

        cfg = SynthConfig.uniform(4, 0.85, seed=606, pages_per_doc=(200, 260),
                                  docs_per_split=(60, 1, 1))
        split = generate_synthetic(cfg)
        assert len(split.train.texts) - len(split.train) > 10_000
        stats = transition_self_prob(split.train)
        for c in range(4):
            assert stats.per_class[c] == pytest.approx(0.85, abs=0.02)


# ---------------------------------------------------------------------------
# Criterion 7: SVD vs the exhaustive Gram-matrix eigensolver
# ---------------------------------------------------------------------------


def test_criterion_7_svd():
    with criterion(7, "SVD matches Jacobi eigensolver"):
        for seed in (0, 1, 2):
            a = np.random.default_rng(seed).standard_normal((50, 30))
            proj = fit_svd(a, k=5)
            evals, _ = jacobi_eigh(a.T @ a)
            np.testing.assert_allclose(proj.singular_values, np.sqrt(evals[:5]),
                                       atol=1e-5)
            gram = proj.basis.T @ proj.basis
            assert np.max(np.abs(gram - np.eye(5))) <= 1e-6


# ---------------------------------------------------------------------------
# Criterion 8: determinism of every pipeline stage
# ---------------------------------------------------------------------------


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "bit-identical artifacts on re-run"):
        synth_cfg = {
            "n_classes": 3, "self_transition": 0.7, "pages_per_doc": [3, 6],
            "tokens_per_page": [3, 6], "class_vocab_size": 12,
            "shared_vocab_size": 12, "ambiguity": 0.3, "seed": 5,
            "docs_per_split": [10, 2, 4],
        }
        synth_path = tmp_path / "synth.json"
        synth_path.write_text(json.dumps(synth_cfg))
        for run in ("a", "b"):
            assert main(["synth", "--config", str(synth_path),
                         "--outdir", str(tmp_path / run), "--run-id", "c"]) == 0
        corpus_hashes = {}
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                     "manifest.json"):
            ha = _sha(tmp_path / "a" / "c" / name)
            assert ha == _sha(tmp_path / "b" / "c" / name)
            corpus_hashes[name] = ha

        exp_cfg = {
            "corpus": str(tmp_path / "a" / "c" / "manifest.json"),
            "mode": "recurrent", "seed": 2,
            "encoder": {"variant": "linear", "d": 8, "max_len": 16},
            "train": {"epochs": 2, "batch_size": 16, "peak_lr": 0.02},
            "vocab_cap": 500,
        }
        exp_path = tmp_path / "exp.json"
        exp_path.write_text(json.dumps(exp_cfg))
        for run in ("ta", "tb"):
            assert main(["train", "--config", str(exp_path),
                         "--outdir", str(tmp_path / run), "--run-id", "m"]) == 0
        for name in ("checkpoint.json", "report.json"):
            assert _sha(tmp_path / "ta" / "m" / name) == \
                _sha(tmp_path / "tb" / "m" / name)

        for run in ("ia", "ib"):
            assert main(["infer",
                         "--checkpoint", str(tmp_path / "ta" / "m" / "checkpoint.json"),
                         "--manifest", str(tmp_path / "a" / "c" / "manifest.json"),
                         "--split", "test",
                         "--out", str(tmp_path / f"{run}.jsonl")]) == 0
        assert _sha(tmp_path / "ia.jsonl") == _sha(tmp_path / "ib.jsonl")

        for run in ("ea", "eb"):
            assert main(["eval", "--traces", str(tmp_path / "ia.jsonl"),
                         "--manifest", str(tmp_path / "a" / "c" / "manifest.json"),
                         "--split", "test",
                         "--out", str(tmp_path / f"{run}.json")]) == 0
        assert _sha(tmp_path / "ea.json") == _sha(tmp_path / "eb.json")


# ---------------------------------------------------------------------------
# Criterion 9: schedule and optimizer closed forms
# ---------------------------------------------------------------------------


def test_criterion_9_schedule_and_optimizer():
    with criterion(9, "published schedule recipe + AdamW closed form"):
        cfg = TrainConfig.published()
        total = 1000
        warmup = round(0.10 * total)
        assert lr_at(warmup, total, cfg) == 2e-5
        assert lr_at(total, total, cfg) == 0.0
        assert lr_at(0, total, cfg) == 0.0
        assert lr_at(warmup // 2, total, cfg) == pytest.approx(1e-5, rel=1e-15)
        for step in range(0, warmup):
            assert lr_at(step, total, cfg) == pytest.approx(
                2e-5 * step / warmup, rel=1e-15)
        for step in range(warmup, total + 1):
            assert lr_at(step, total, cfg) == pytest.approx(
                2e-5 * (total - step) / (total - warmup), rel=1e-15)

        opt = TrainConfig(betas=(0.9, 0.999), epsilon=1e-8, weight_decay=0.0)
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params)
        optimizer_step(params, {"w": np.array([1.0])}, state, lr=0.1, cfg=opt)
        closed_form = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(params["w"][0] - closed_form) <= 1e-12
