"""Tests for the corpus data model, JSONL round-trip, generator, and statistics."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pageseq.corpus import (
    CorpusError,
    CorpusSplit,
    Documents,
    RunLengthStats,
    SynthConfig,
    TypeVocabulary,
    class_page_counts,
    document_rows,
    generate_synthetic,
    load_corpus,
    padded_documents,
    run_length_stats,
    transition_self_prob,
    write_corpus,
)

from oracles import (
    UNICODE_TEXT,
    GoldDoc,
    GoldPage,
    columns,
    count_self_transitions,
    docs_of,
    reference_generate_synthetic,
    reference_write_corpus,
    same_corpus,
    scan_runs,
    split_of,
)


def make_doc(doc_id, labels, vocab_n=None):
    """Document with one page per label (ints or sets of ints)."""
    pages = []
    for i, lab in enumerate(labels):
        lab = lab if isinstance(lab, (set, frozenset)) else {lab}
        pages.append(GoldPage(f"page {i} text", frozenset(lab)))
    return GoldDoc(doc_id, tuple(pages))


def simple_split(train_docs, vocab, validation=(), test=()):
    return CorpusSplit(split_of(train_docs, vocab), split_of(validation, vocab),
                       split_of(test, vocab), vocab)


def write_corpus_dir(tmp_path, train_lines, classes=("A", "B"), mode="multiclass"):
    (tmp_path / "train.jsonl").write_text(
        "".join(json.dumps(obj) + "\n" for obj in train_lines))
    (tmp_path / "validation.jsonl").write_text("")
    (tmp_path / "test.jsonl").write_text("")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "classes": list(classes), "label_mode": mode,
        "train": "train.jsonl", "validation": "validation.jsonl",
        "test": "test.jsonl"}))


AB = TypeVocabulary(("A", "B"))
ABCD = TypeVocabulary(("A", "B", "C", "D"))


@st.composite
def document_selections(draw):
    """(document sizes, chosen document indices): up to 8 documents and up to
    12 choices, repeats allowed."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=8))
    chosen = (draw(st.lists(st.integers(0, len(sizes) - 1), max_size=12))
              if sizes else [])
    return sizes, chosen


class TestDocumentLayout:
    """Rows plus document offsets: padding a batch and gathering documents."""

    def test_padded_documents_match_per_document_rows(self):
        docs = [np.arange(6.0).reshape(3, 2), np.array([[6.0, 7.0]]),
                np.arange(8.0, 12.0).reshape(2, 2)]
        padded, mask = padded_documents(*columns(docs))
        assert padded.shape == (3, 3, 2)
        np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 0, 0], [1, 1, 0]])
        for i, doc in enumerate(docs):
            np.testing.assert_array_equal(padded[i, :len(doc)], doc)
        assert not padded[~mask].any()

    def test_no_documents_keep_one_position(self):
        padded, mask = padded_documents(np.zeros((0, 4)), [0])
        assert padded.shape == (0, 1, 4) and mask.shape == (0, 1)

    @pytest.mark.parametrize("offsets, message", [
        ([1, 3, 5], "run from 0"), ([0, 2, 4], "run from 0"),
        ([0, 2, 6], "run from 0"), ([], "run from 0"),
        ([0, 2, 2, 5], "at least one page"),
    ], ids=["not-from-0", "short", "past-end", "no-offsets", "empty-document"])
    def test_padded_documents_check_offsets(self, offsets, message):
        with pytest.raises(ValueError, match=message):
            padded_documents(np.zeros((5, 2)), np.array(offsets, dtype=np.int64))

    @given(document_selections())
    @example(([3, 1, 2], []))
    @example(([3, 1, 2], [2, 0, 2, 2]))
    @example(([], []))
    def test_document_rows_match_slicing(self, case):
        """Any selection, empty or with repeats, gathers each chosen
        document's rows in order."""
        sizes, chosen = case
        offsets = np.cumsum([0] + sizes)
        expected = [r for i in chosen for r in range(offsets[i], offsets[i + 1])]
        assert document_rows(offsets, np.array(chosen, dtype=np.int64)).tolist() \
            == expected


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
    def test_page_index_must_be_contiguous(self, tmp_path):
        write_corpus_dir(tmp_path, [
            {"doc_id": "d", "page_index": 0, "text": "x", "labels": ["A"]},
            {"doc_id": "d", "page_index": 2, "text": "y", "labels": ["A"]},
        ])
        with pytest.raises(CorpusError, match=r"train\.jsonl:2: page_index"):
            load_corpus(tmp_path / "manifest.json")

    def test_empty_document_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            Documents(AB, ["d"], [0], [], [])

    def test_page_without_labels_rejected(self, tmp_path):
        write_corpus_dir(tmp_path, [
            {"doc_id": "d", "page_index": 0, "text": "x", "labels": []}])
        with pytest.raises(CorpusError,
                           match=r"train\.jsonl: page \('d', 0\) has no labels"):
            load_corpus(tmp_path / "manifest.json")

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
            Documents(AB, ["d"], [1], ["x"], [frozenset({label})])

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
        write_corpus_dir(tmp_path, lines)
        split = load_corpus(tmp_path / "manifest.json")
        assert len(split.train) == 1
        doc = docs_of(split.train)[0]
        assert len(doc) == 3
        assert [p.gold_labels for p in doc.pages] == [
            frozenset({0}), frozenset({0}), frozenset({1})]

    def test_unknown_label_reports_name_and_line(self, tmp_path):
        lines = [
            {"doc_id": "d1", "page_index": 0, "text": "x", "labels": ["A"]},
            {"doc_id": "d1", "page_index": 1, "text": "y", "labels": ["Zebra"]},
        ]
        write_corpus_dir(tmp_path, lines)
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
        write_corpus_dir(tmp_path, [line, line])
        with pytest.raises(CorpusError, match="duplicate page"):
            load_corpus(tmp_path / "manifest.json")

    def test_out_of_order_pages_rejected(self, tmp_path):
        lines = [
            {"doc_id": "d", "page_index": 1, "text": "x", "labels": ["A"]},
            {"doc_id": "d", "page_index": 0, "text": "y", "labels": ["A"]},
        ]
        write_corpus_dir(tmp_path, lines)
        with pytest.raises(CorpusError, match="page_index"):
            load_corpus(tmp_path / "manifest.json")

    def test_unreadable_files_are_corpus_errors(self, tmp_path):
        """A manifest or split file that cannot be read or decoded, or a
        manifest that is not an object, is a CorpusError naming the file."""
        write_corpus_dir(tmp_path, [])
        manifest = tmp_path / "manifest.json"
        with pytest.raises(CorpusError, match="cannot read manifest"):
            load_corpus(tmp_path)                       # a directory
        (tmp_path / "test.jsonl").write_bytes(b"\xff\xfe\n")
        with pytest.raises(CorpusError, match=r"test\.jsonl: split file is not UTF-8"):
            load_corpus(manifest)
        manifest.write_bytes(b"\xff")
        with pytest.raises(CorpusError, match="manifest is not UTF-8"):
            load_corpus(manifest)
        manifest.write_text("[]")
        with pytest.raises(CorpusError, match="manifest must be a JSON object"):
            load_corpus(manifest)

    def test_line_separators_inside_text_round_trip(self, tmp_path):
        """Only "\\n" ends a JSONL record; U+2028 and U+0085 stay in the text."""
        doc = GoldDoc("d", (GoldPage("a\u2028b\x85c\rd", frozenset({0})),))
        split = simple_split([doc], AB)
        assert same_corpus(load_corpus(write_corpus(split, tmp_path)), split)

    @given(st.lists(st.tuples(UNICODE_TEXT,
                              st.lists(st.tuples(UNICODE_TEXT, st.integers(0, 1)),
                                       min_size=1, max_size=3)),
                    min_size=1, max_size=4, unique_by=lambda doc: doc[0]))
    @example([("\u2028", [("", 0), ("?! \x85 \u2029", 1)]),
              ("\U0001F600\x85", [("\r\n", 1)]), ("", [("\u2028.", 0)])])
    def test_unicode_round_trip(self, docs):
        """Any surrogate-free doc ids and page texts survive a write and a
        load, in every split file."""
        docs = [GoldDoc(doc_id, tuple(GoldPage(text, frozenset({c}))
                                      for text, c in pages))
                for doc_id, pages in docs]
        split = simple_split(docs, AB, docs[::-1], docs[:1])
        with tempfile.TemporaryDirectory() as tmp:
            assert same_corpus(load_corpus(write_corpus(split, tmp)), split)

    def test_round_trip_identity(self, tmp_path):
        """load_corpus . write_corpus is the identity on valid splits."""
        cfg = SynthConfig.uniform(3, 0.6, seed=7, docs_per_split=(4, 2, 2),
                                  pages_per_doc=(1, 6))
        split = generate_synthetic(cfg)
        manifest = write_corpus(split, tmp_path)
        reloaded = load_corpus(manifest)
        assert same_corpus(reloaded, split)

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
        doc = GoldDoc("d", (
            GoldPage("x", frozenset({0, 2})),
            GoldPage("y", frozenset({1})),
        ))
        split = simple_split([doc], vocab)
        manifest = write_corpus(split, tmp_path)
        assert same_corpus(load_corpus(manifest), split)


# Text a JSON string encoder must escape or keep raw: quotes, backslashes,
# control characters, U+2028 and non-ASCII.
JSON_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\u2028", "\x00", "\x1f", "\x7f", "\t", "\n",
                     "\u00e9", "\U0001F600"]),
    st.characters(exclude_categories=("Cs",))), max_size=8)


@st.composite
def labelled_splits(draw):
    """A corpus of any label mode whose class names, doc ids and page texts
    hold characters JSON escapes; a multilabel page carries any non-empty
    set of labels."""
    mode = draw(st.sampled_from(["multiclass", "multilabel"]))
    names = draw(st.lists(st.sampled_from(["A", "b\u00e9", 'q"\\', "\u2028", "\x01z"]),
                          min_size=2, max_size=4, unique=True))
    vocab = TypeVocabulary(tuple(names), mode)
    one_page = st.tuples(
        JSON_TEXT,
        st.sets(st.integers(0, len(names) - 1), min_size=1,
                max_size=1 if mode == "multiclass" else len(names)))
    splits = []
    for _ in range(3):
        docs = draw(st.lists(st.tuples(JSON_TEXT, st.lists(one_page, min_size=1,
                                                           max_size=3)),
                             max_size=3, unique_by=lambda doc: doc[0]))
        splits.append(split_of([GoldDoc(doc_id, tuple(GoldPage(text, frozenset(labels))
                                                      for text, labels in pages))
                                for doc_id, pages in docs], vocab))
    return CorpusSplit(*splits, vocab)


def probabilities(n):
    """n probabilities summing to 1, zeros included."""
    weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                       min_size=n, max_size=n).filter(any)
    return weights.map(lambda w: tuple(x / sum(w) for x in w))


@st.composite
def synth_configs(draw):
    """Generator configs with zero-probability transitions, absorbing
    chains, fixed token counts and the ambiguity extremes."""
    n = draw(st.integers(2, 4))
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    lo = draw(st.integers(1, 6))
    tokens = (lo, lo + draw(st.one_of(st.just(0), st.integers(1, 8))))
    pages = draw(st.integers(1, 4))
    kwargs = dict(pages_per_doc=(pages, pages + draw(st.integers(0, 5))),
                  tokens_per_page=tokens,
                  class_vocab_size=draw(st.integers(1, 40)),
                  shared_vocab_size=draw(st.integers(1, 40)),
                  ambiguity=draw(unit), seed=draw(st.integers(0, 2**32)),
                  docs_per_split=tuple(draw(st.lists(st.integers(1, 4),
                                                     min_size=3, max_size=3))))
    if draw(st.booleans()):
        return SynthConfig.uniform(n, draw(unit), **kwargs)
    matrix = tuple(draw(probabilities(n)) for _ in range(n))
    return SynthConfig(n, matrix, draw(probabilities(n)), **kwargs)


class TestAgainstPerPageReference:
    """The generator and the writer against their per-page references: one
    ``Generator.choice`` per page class, one ``json.dumps`` per page line."""

    @given(synth_configs())
    def test_generator_matches_reference(self, cfg):
        assert same_corpus(generate_synthetic(cfg), reference_generate_synthetic(cfg))

    @given(labelled_splits())
    def test_writer_matches_reference_bytes(self, split):
        provenance = {"command": "synth", "note": "\u00e9\u2028\"", "seed": 3}
        with tempfile.TemporaryDirectory() as tmp:
            ours = write_corpus(split, f"{tmp}/ours", provenance).parent
            ref = reference_write_corpus(split, f"{tmp}/ref", provenance).parent
            for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                         "manifest.json"):
                assert (ours / name).read_bytes() == (ref / name).read_bytes()


class TestGenerateSynthetic:
    def test_identity_transition_yields_constant_docs(self):
        """Absorbing chain: every document stays in its first class."""
        n = 3
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))
        cfg = SynthConfig(n, eye, (1 / 3, 1 / 3, 1 / 3), seed=3,
                          docs_per_split=(10, 2, 2))
        split = generate_synthetic(cfg)
        for _, docs in split.splits():
            for doc in docs_of(docs):
                labels = {next(iter(p.gold_labels)) for p in doc.pages}
                assert len(labels) == 1

    def test_zero_ambiguity_pools_are_disjoint(self):
        """With ambiguity 0 every token comes from the page's class pool, so
        per-class token sets are pairwise disjoint (bag-of-words separable)."""
        cfg = SynthConfig.uniform(4, 0.5, seed=11, ambiguity=0.0,
                                  docs_per_split=(20, 2, 2))
        split = generate_synthetic(cfg)
        tokens_by_class = {}
        for doc in docs_of(split.train):
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
        for doc in docs_of(split.train):
            for page in doc.pages:
                toks = page.text.split()
                assert len(toks) == 5
                assert sum(1 for t in toks if t.startswith("sh_")) == 4

    def test_same_seed_same_corpus(self):
        cfg = SynthConfig.uniform(3, 0.7, seed=42, docs_per_split=(5, 2, 2))
        assert same_corpus(generate_synthetic(cfg), generate_synthetic(cfg))

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthConfig.uniform(3, 0.7, seed=1))
        b = generate_synthetic(SynthConfig.uniform(3, 0.7, seed=2))
        assert not same_corpus(a, b)

    def test_self_transition_matches_config(self):
        """Empirical per-class self-transition within +-0.02 of the configured
        0.85 diagonal on a 10k+ page corpus."""
        cfg = SynthConfig.uniform(4, 0.85, seed=9, pages_per_doc=(200, 260),
                                  docs_per_split=(60, 1, 1))
        split = generate_synthetic(cfg)
        total_pages = len(split.train.texts)
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

    def test_non_finite_transition_row_rejected(self):
        """NaN sums pass the stochastic test (abs(nan - 1) > tol is False),
        so the finite check must catch them."""
        nan = float("nan")
        with pytest.raises(CorpusError, match="row 0 has a non-finite entry"):
            SynthConfig(2, ((nan, nan), (0.5, 0.5)), (0.5, 0.5))

    def test_non_finite_start_distribution_rejected(self):
        nan = float("nan")
        with pytest.raises(CorpusError, match="start_distribution has a non-finite"):
            SynthConfig(2, ((0.5, 0.5), (0.5, 0.5)), (nan, nan))

    @pytest.mark.parametrize("field", ["class_vocab_size", "shared_vocab_size"])
    @pytest.mark.parametrize("size", [2.5, 3.0, True, "3"])
    def test_vocab_size_must_be_an_integer(self, field, size):
        with pytest.raises(CorpusError, match=f"{field} must be an integer"):
            SynthConfig.uniform(2, 0.5, **{field: size})

    def test_n_classes_must_be_an_integer(self):
        with pytest.raises(CorpusError, match="n_classes must be an integer"):
            SynthConfig(2.0, ((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5))

    def test_numpy_integer_vocab_sizes_accepted(self):
        cfg = SynthConfig.uniform(2, 0.5, class_vocab_size=np.int64(3),
                                  shared_vocab_size=np.int32(4),
                                  docs_per_split=(2, 1, 1))
        assert same_corpus(generate_synthetic(cfg), reference_generate_synthetic(cfg))


class TestClassPageCounts:
    def test_briefs_shaped_fixture(self):
        """Caption on 772 train / 90 validation / 103 test pages."""
        vocab = TypeVocabulary(("Caption", "Body"))

        def block(split_name, n_caption):
            pages = [GoldPage("t", frozenset({0})) for i in range(n_caption)]
            pages.append(GoldPage("t", frozenset({1})))
            return split_of([GoldDoc(f"{split_name}-doc", tuple(pages))], vocab)

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
        stats = run_length_stats(split_of([doc], AB))
        assert stats[0] == RunLengthStats(median_run=1.0, max_run=5, total_pages=273)

    def test_hand_countable(self):
        """A,A,B,A: class-A runs {2,1} -> median 1.5, max 2, total 3."""
        doc = make_doc("d", [0, 0, 1, 0])
        stats = run_length_stats(split_of([doc], AB))
        assert stats[0] == RunLengthStats(median_run=1.5, max_run=2, total_pages=3)
        assert stats[1] == RunLengthStats(median_run=1.0, max_run=1, total_pages=1)

    def test_matches_brute_force_scanner(self):
        """Random documents, one-page documents alone, and an empty split."""
        rng = np.random.default_rng(123)
        random_seqs = [rng.integers(0, 3, size=rng.integers(1, 20)).tolist()
                       for _ in range(30)]
        one_page = [[int(c)] for c in rng.integers(0, 3, size=7)]
        for label_seqs in (random_seqs, one_page, []):
            docs = [make_doc(f"d{d}", labels) for d, labels in enumerate(label_seqs)]
            stats = run_length_stats(split_of(docs, ABCD))
            expected = scan_runs(label_seqs)
            assert set(stats) == set(expected)
            for c, lengths in expected.items():
                assert stats[c].max_run == max(lengths)
                assert stats[c].total_pages == sum(lengths)
                assert stats[c].median_run == float(np.median(lengths))

    def test_runs_do_not_cross_documents(self):
        docs = [make_doc("d1", [0, 0]), make_doc("d2", [0])]
        stats = run_length_stats(split_of(docs, AB))
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
            run_length_stats(split_of([doc], vocab))


class TestTransitionSelfProb:
    def test_are_fixture_ratio(self):
        """8914 of 10000 successors repeat the class -> exactly 0.8914."""
        labels = []
        for _ in range(1085):
            labels.extend([0] * 9 + [1])
        labels.extend([0] * 235 + [1])
        assert labels.count(0) == 10_000
        doc = make_doc("d", labels)
        stats = transition_self_prob(split_of([doc], AB))
        assert stats.per_class[0] == pytest.approx(0.8914, abs=1e-12)

    def test_all_same(self):
        assert transition_self_prob(
            split_of([make_doc("d", [0, 0, 0])], AB)).per_class[0] == 1.0

    def test_class_without_successors_excluded(self):
        # B only appears as the final page: undefined, excluded from macro.
        stats = transition_self_prob(split_of([make_doc("d", [0, 0, 1])], AB))
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
        """Random documents with one-page documents among them, one-page
        documents alone and an empty split; the last two have no
        transitions."""
        rng = np.random.default_rng(99)
        seqs = [rng.integers(0, 4, size=rng.integers(2, 15)).tolist()
                for _ in range(20)]
        one_page = [[int(c)] for c in rng.integers(0, 4, size=6)]
        mixed = one_page[:2] + seqs[:10] + one_page[2:4] + seqs[10:] + one_page[4:]
        for label_seqs in (mixed, one_page, []):
            docs = split_of([make_doc(f"d{d}", labels)
                             for d, labels in enumerate(label_seqs)], ABCD)
            expected = count_self_transitions(label_seqs)
            if not expected:
                with pytest.raises(CorpusError, match="no page transitions"):
                    transition_self_prob(docs)
                continue
            stats = transition_self_prob(docs)
            for c, (same, total) in expected.items():
                assert stats.per_class[c] == pytest.approx(same / total)
            assert set(stats.per_class) == set(expected)

    def test_values_in_unit_interval(self):
        cfg = SynthConfig.uniform(3, 0.3, seed=21, docs_per_split=(10, 1, 1))
        stats = transition_self_prob(generate_synthetic(cfg).train)
        assert all(0.0 <= v <= 1.0 for v in stats.per_class.values())


def test_uniform_with_one_class_raises_corpus_error():
    with pytest.raises(CorpusError, match="n_classes must be >= 2"):
        SynthConfig.uniform(1, 0.5)
