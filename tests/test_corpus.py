"""Tests for the corpus data model, JSONL round-trip, generator, and statistics."""

import json

import numpy as np
import pytest

from pageseq.corpus import (
    CorpusError,
    CorpusSplit,
    DocumentSequence,
    PageRecord,
    RunLengthStats,
    SynthConfig,
    TypeVocabulary,
    class_page_counts,
    generate_synthetic,
    load_corpus,
    run_length_stats,
    transition_self_prob,
    write_corpus,
)

from oracles import count_self_transitions, scan_runs


def make_doc(doc_id, labels, vocab_n=None):
    """Document with one page per label (ints or sets of ints)."""
    pages = []
    for i, lab in enumerate(labels):
        lab = lab if isinstance(lab, (set, frozenset)) else {lab}
        pages.append(PageRecord(doc_id, i, f"page {i} text", frozenset(lab)))
    return DocumentSequence(doc_id, tuple(pages))


def simple_split(train_docs, vocab, validation=(), test=()):
    return CorpusSplit(tuple(train_docs), tuple(validation), tuple(test), vocab)


AB = TypeVocabulary(("A", "B"))


class TestTypeVocabulary:
    def test_special_tokens(self):
        vocab = TypeVocabulary(("Caption", "Body"))
        assert vocab.special_token(0) == "[type_Caption]"
        assert vocab.special_token(1) == "[type_Body]"
        assert vocab.first_page_token == "[-1]"
        assert vocab.n == 2

    def test_rejects_duplicates_and_small(self):
        with pytest.raises(CorpusError):
            TypeVocabulary(("A", "A"))
        with pytest.raises(CorpusError):
            TypeVocabulary(("A",))
        with pytest.raises(CorpusError):
            TypeVocabulary(("A", ""))

    def test_index_lookup(self):
        assert AB.index("B") == 1
        with pytest.raises(CorpusError, match="Nope"):
            AB.index("Nope")


class TestDataModel:
    def test_page_index_must_be_contiguous(self):
        pages = (
            PageRecord("d", 0, "x", frozenset({0})),
            PageRecord("d", 2, "y", frozenset({0})),
        )
        with pytest.raises(CorpusError, match="page_index"):
            DocumentSequence("d", pages)

    def test_empty_document_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            DocumentSequence("d", ())

    def test_multiclass_single_label_enforced(self):
        doc = make_doc("d", [{0, 1}])
        with pytest.raises(CorpusError, match="multiclass"):
            simple_split([doc], AB)

    def test_label_index_range_enforced(self):
        doc = make_doc("d", [5])
        with pytest.raises(CorpusError, match="label index"):
            simple_split([doc], AB)

    @pytest.mark.parametrize("label", [frozenset({0}), "A", True, -1, 1.5],
                             ids=["frozenset", "str", "bool", "negative", "float"])
    def test_label_must_be_class_index(self, label):
        with pytest.raises(CorpusError, match="not a class index"):
            PageRecord("d", 0, "x", frozenset({label}))

    def test_duplicate_doc_ids_rejected(self):
        docs = [make_doc("d", [0]), make_doc("d", [1])]
        with pytest.raises(CorpusError, match="duplicate doc_id"):
            simple_split(docs, AB)


class TestLoadWrite:
    def test_minimal_file(self, tmp_path):
        """One doc, 3 pages labeled A,A,B."""
        lines = [
            {"doc_id": "d1", "page_index": 0, "text": "first", "labels": ["A"]},
            {"doc_id": "d1", "page_index": 1, "text": "second", "labels": ["A"]},
            {"doc_id": "d1", "page_index": 2, "text": "third", "labels": ["B"]},
        ]
        self._write_corpus_dir(tmp_path, lines)
        split = load_corpus(tmp_path / "manifest.json")
        assert len(split.train) == 1
        doc = split.train[0]
        assert len(doc) == 3
        assert [p.gold_labels for p in doc.pages] == [
            frozenset({0}), frozenset({0}), frozenset({1})]

    def _write_corpus_dir(self, tmp_path, train_lines, classes=("A", "B"),
                          mode="multiclass"):
        (tmp_path / "train.jsonl").write_text(
            "".join(json.dumps(obj) + "\n" for obj in train_lines))
        (tmp_path / "validation.jsonl").write_text("")
        (tmp_path / "test.jsonl").write_text("")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "classes": list(classes), "label_mode": mode,
            "train": "train.jsonl", "validation": "validation.jsonl",
            "test": "test.jsonl"}))

    def test_unknown_label_reports_name_and_line(self, tmp_path):
        lines = [
            {"doc_id": "d1", "page_index": 0, "text": "x", "labels": ["A"]},
            {"doc_id": "d1", "page_index": 1, "text": "y", "labels": ["Zebra"]},
        ]
        self._write_corpus_dir(tmp_path, lines)
        with pytest.raises(CorpusError, match=r"train\.jsonl:2.*Zebra"):
            load_corpus(tmp_path / "manifest.json")

    def test_malformed_line_reports_line_number(self, tmp_path):
        (tmp_path / "train.jsonl").write_text(
            json.dumps({"doc_id": "d", "page_index": 0, "text": "x",
                        "labels": ["A"]}) + "\n" + "{broken\n")
        (tmp_path / "validation.jsonl").write_text("")
        (tmp_path / "test.jsonl").write_text("")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "classes": ["A", "B"], "label_mode": "multiclass",
            "train": "train.jsonl", "validation": "validation.jsonl",
            "test": "test.jsonl"}))
        with pytest.raises(CorpusError, match=r":2"):
            load_corpus(tmp_path / "manifest.json")

    def test_duplicate_page_rejected(self, tmp_path):
        line = {"doc_id": "d", "page_index": 0, "text": "x", "labels": ["A"]}
        self._write_corpus_dir(tmp_path, [line, line])
        with pytest.raises(CorpusError, match="duplicate page"):
            load_corpus(tmp_path / "manifest.json")

    def test_out_of_order_pages_rejected(self, tmp_path):
        lines = [
            {"doc_id": "d", "page_index": 1, "text": "x", "labels": ["A"]},
            {"doc_id": "d", "page_index": 0, "text": "y", "labels": ["A"]},
        ]
        self._write_corpus_dir(tmp_path, lines)
        with pytest.raises(CorpusError, match="page_index"):
            load_corpus(tmp_path / "manifest.json")

    def test_round_trip_identity(self, tmp_path):
        """load_corpus . write_corpus is the identity on valid splits."""
        cfg = SynthConfig.uniform(3, 0.6, seed=7, docs_per_split=(4, 2, 2),
                                  pages_per_doc=(1, 6))
        split = generate_synthetic(cfg)
        manifest = write_corpus(split, tmp_path)
        reloaded = load_corpus(manifest)
        assert reloaded == split

    def test_writer_is_deterministic(self, tmp_path):
        cfg = SynthConfig.uniform(2, 0.5, seed=1, docs_per_split=(3, 1, 1))
        split = generate_synthetic(cfg)
        write_corpus(split, tmp_path / "a")
        write_corpus(split, tmp_path / "b")
        for name in ("train.jsonl", "validation.jsonl", "test.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_multilabel_round_trip(self, tmp_path):
        vocab = TypeVocabulary(("A", "B", "C"), "multilabel")
        doc = DocumentSequence("d", (
            PageRecord("d", 0, "x", frozenset({0, 2})),
            PageRecord("d", 1, "y", frozenset({1})),
        ))
        split = CorpusSplit((doc,), (), (), vocab)
        manifest = write_corpus(split, tmp_path)
        assert load_corpus(manifest) == split


class TestGenerateSynthetic:
    def test_identity_transition_yields_constant_docs(self):
        """Absorbing chain: every document stays in its first class."""
        n = 3
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))
        cfg = SynthConfig(n, eye, (1 / 3, 1 / 3, 1 / 3), seed=3,
                          docs_per_split=(10, 2, 2))
        split = generate_synthetic(cfg)
        for _, docs in split.splits():
            for doc in docs:
                labels = {next(iter(p.gold_labels)) for p in doc.pages}
                assert len(labels) == 1

    def test_zero_ambiguity_pools_are_disjoint(self):
        """With ambiguity 0 every token comes from the page's class pool, so
        per-class token sets are pairwise disjoint (bag-of-words separable)."""
        cfg = SynthConfig.uniform(4, 0.5, seed=11, ambiguity=0.0,
                                  docs_per_split=(20, 2, 2))
        split = generate_synthetic(cfg)
        tokens_by_class = {}
        for doc in split.train:
            for page in doc.pages:
                c = next(iter(page.gold_labels))
                tokens_by_class.setdefault(c, set()).update(page.text.split())
        classes = sorted(tokens_by_class)
        for i in classes:
            assert all(tok.startswith(f"c{i}_") for tok in tokens_by_class[i])
            for j in classes:
                if i < j:
                    assert not (tokens_by_class[i] & tokens_by_class[j])

    def test_ambiguity_fraction_is_exact(self):
        cfg = SynthConfig.uniform(2, 0.5, seed=5, ambiguity=0.8,
                                  tokens_per_page=(5, 5), docs_per_split=(5, 1, 1))
        split = generate_synthetic(cfg)
        for doc in split.train:
            for page in doc.pages:
                toks = page.text.split()
                assert len(toks) == 5
                assert sum(1 for t in toks if t.startswith("sh_")) == 4

    def test_same_seed_same_corpus(self):
        cfg = SynthConfig.uniform(3, 0.7, seed=42, docs_per_split=(5, 2, 2))
        assert generate_synthetic(cfg) == generate_synthetic(cfg)

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthConfig.uniform(3, 0.7, seed=1))
        b = generate_synthetic(SynthConfig.uniform(3, 0.7, seed=2))
        assert a != b

    def test_self_transition_matches_config(self):
        """Empirical per-class self-transition within +-0.02 of the configured
        0.85 diagonal on a 10k+ page corpus."""
        cfg = SynthConfig.uniform(4, 0.85, seed=9, pages_per_doc=(200, 260),
                                  docs_per_split=(60, 1, 1))
        split = generate_synthetic(cfg)
        total_pages = sum(len(d) for d in split.train)
        assert total_pages > 10_000
        stats = transition_self_prob(split.train)
        for c in range(4):
            assert stats.per_class[c] == pytest.approx(0.85, abs=0.02)
        assert stats.macro == pytest.approx(0.85, abs=0.02)

    def test_invalid_configs_rejected(self):
        with pytest.raises(CorpusError, match="stochastic"):
            SynthConfig(2, ((0.5, 0.4), (0.5, 0.5)), (0.5, 0.5))
        with pytest.raises(CorpusError, match="stochastic"):
            SynthConfig(2, ((0.5, 0.5), (0.5, 0.5)), (0.9, 0.2))
        with pytest.raises(CorpusError, match="ambiguity"):
            SynthConfig.uniform(2, 0.5, ambiguity=1.5)
        with pytest.raises(CorpusError, match="pages_per_doc"):
            SynthConfig.uniform(2, 0.5, pages_per_doc=(0, 3))


class TestClassPageCounts:
    def test_briefs_shaped_fixture(self):
        """Caption on 772 train / 90 validation / 103 test pages."""
        vocab = TypeVocabulary(("Caption", "Body"))

        def block(split_name, n_caption):
            pages = [PageRecord(f"{split_name}-doc", i, "t", frozenset({0}))
                     for i in range(n_caption)]
            pages.append(PageRecord(f"{split_name}-doc", n_caption, "t",
                                    frozenset({1})))
            return (DocumentSequence(f"{split_name}-doc", tuple(pages)),)

        split = CorpusSplit(block("train", 772), block("validation", 90),
                            block("test", 103), vocab)
        counts = class_page_counts(split)
        assert counts["train"]["Caption"] == 772
        assert counts["validation"]["Caption"] == 90
        assert counts["test"]["Caption"] == 103

    def test_empty_split_all_zeros(self):
        split = simple_split([], AB)
        counts = class_page_counts(split)
        assert counts == {
            "train": {"A": 0, "B": 0},
            "validation": {"A": 0, "B": 0},
            "test": {"A": 0, "B": 0},
        }

    def test_multilabel_page_counts_each_label(self):
        vocab = TypeVocabulary(("A", "B"), "multilabel")
        doc = make_doc("d", [{0, 1}])
        counts = class_page_counts(simple_split([doc], vocab))
        assert counts["train"] == {"A": 1, "B": 1}


class TestRunLengthStats:
    def test_short_document_type_fixture(self):
        """268 single-page runs plus one 5-page run: median 1, max 5, total 273."""
        labels = []
        for _ in range(268):
            labels.extend([0, 1])
        labels.extend([0] * 5)
        doc = make_doc("d", labels)
        stats = run_length_stats([doc])
        assert stats[0] == RunLengthStats(median_run=1.0, max_run=5, total_pages=273)

    def test_hand_countable(self):
        """A,A,B,A: class-A runs {2,1} -> median 1.5, max 2, total 3."""
        doc = make_doc("d", [0, 0, 1, 0])
        stats = run_length_stats([doc])
        assert stats[0] == RunLengthStats(median_run=1.5, max_run=2, total_pages=3)
        assert stats[1] == RunLengthStats(median_run=1.0, max_run=1, total_pages=1)

    def test_matches_brute_force_scanner(self):
        rng = np.random.default_rng(123)
        docs, label_seqs = [], []
        for d in range(30):
            labels = rng.integers(0, 3, size=rng.integers(1, 20)).tolist()
            docs.append(make_doc(f"d{d}", labels))
            label_seqs.append(labels)
        stats = run_length_stats(docs)
        expected = scan_runs(label_seqs)
        assert set(stats) == set(expected)
        for c, lengths in expected.items():
            assert stats[c].max_run == max(lengths)
            assert stats[c].total_pages == sum(lengths)
            assert stats[c].median_run == float(np.median(lengths))

    def test_runs_do_not_cross_documents(self):
        docs = [make_doc("d1", [0, 0]), make_doc("d2", [0])]
        stats = run_length_stats(docs)
        assert stats[0].max_run == 2
        assert stats[0].total_pages == 3

    def test_invariants_on_random_corpora(self):
        """median <= max and total >= max, per class."""
        cfg = SynthConfig.uniform(3, 0.6, seed=17, docs_per_split=(25, 1, 1))
        split = generate_synthetic(cfg)
        for c, s in run_length_stats(split.train).items():
            assert s.median_run <= s.max_run
            assert s.total_pages >= s.max_run

    def test_multilabel_rejected(self):
        vocab = TypeVocabulary(("A", "B"), "multilabel")
        doc = make_doc("d", [{0, 1}, {0}])
        with pytest.raises(CorpusError, match="multiclass"):
            run_length_stats([doc])


class TestTransitionSelfProb:
    def test_are_fixture_ratio(self):
        """8914 of 10000 successors repeat the class -> exactly 0.8914."""
        labels = []
        for _ in range(1085):
            labels.extend([0] * 9 + [1])
        labels.extend([0] * 235 + [1])
        assert labels.count(0) == 10_000
        doc = make_doc("d", labels)
        stats = transition_self_prob([doc])
        assert stats.per_class[0] == pytest.approx(0.8914, abs=1e-12)

    def test_all_same(self):
        assert transition_self_prob([make_doc("d", [0, 0, 0])]).per_class[0] == 1.0

    def test_class_without_successors_excluded(self):
        # B only appears as the final page: undefined, excluded from macro.
        stats = transition_self_prob([make_doc("d", [0, 0, 1])])
        assert 1 not in stats.per_class
        assert stats.per_class[0] == 0.5  # successors: 0->0 (same), 0->1
        assert stats.macro == 0.5

    def test_identity_corpus_all_ones(self):
        n = 3
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))
        cfg = SynthConfig(n, eye, (1 / 3, 1 / 3, 1 / 3), seed=2,
                          pages_per_doc=(2, 6), docs_per_split=(12, 1, 1))
        split = generate_synthetic(cfg)
        stats = transition_self_prob(split.train)
        assert all(v == 1.0 for v in stats.per_class.values())
        assert stats.macro == 1.0

    def test_matches_brute_force_counts(self):
        rng = np.random.default_rng(99)
        docs, seqs = [], []
        for d in range(20):
            labels = rng.integers(0, 4, size=rng.integers(2, 15)).tolist()
            docs.append(make_doc(f"d{d}", labels))
            seqs.append(labels)
        stats = transition_self_prob(docs)
        expected = count_self_transitions(seqs)
        for c, (same, total) in expected.items():
            assert stats.per_class[c] == pytest.approx(same / total)
        assert set(stats.per_class) == set(expected)

    def test_values_in_unit_interval(self):
        cfg = SynthConfig.uniform(3, 0.3, seed=21, docs_per_split=(10, 1, 1))
        stats = transition_self_prob(generate_synthetic(cfg).train)
        assert all(0.0 <= v <= 1.0 for v in stats.per_class.values())
