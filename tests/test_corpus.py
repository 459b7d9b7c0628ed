"""Tests for the corpus data model, JSONL round-trip, generator, and statistics."""

import base64
import json
import re
import tempfile
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pageseq.corpus import (
    CHECKPOINT_FORMAT,
    CorpusError,
    CorpusSplit,
    Documents,
    RunLengthStats,
    SynthConfig,
    TypeVocabulary,
    check_format,
    class_page_counts,
    document_rows,
    float_block,
    generate_synthetic,
    load_corpus,
    load_split_file,
    page_positions,
    read_float_block,
    read_jsonl,
    run_length_stats,
    transition_self_prob,
    write_corpus,
)
from pageseq.recurrence import SplitTrace, read_traces, write_traces

from oracles import (
    UNICODE_TEXT,
    GoldDoc,
    GoldPage,
    count_self_transitions,
    docs_of,
    documents,
    read_traces_per_page,
    reference_generate_synthetic,
    reference_load_split_file,
    reference_write_corpus,
    same_corpus,
    same_documents,
    scan_runs,
    split_of,
    trace_pages,
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
    """Rows plus document offsets: walking pages by position and gathering
    documents."""

    def test_page_positions_of_a_ragged_split(self):
        """Documents of 3, 1 and 2 pages on rows 0-2, 3 and 4-5."""
        positions = page_positions(np.array([0, 3, 4, 6]), 6)
        assert [rows.tolist() for rows in positions] == [[0, 3, 4], [1, 5], [2]]

    def test_no_documents_have_no_positions(self):
        assert page_positions([0], 0) == []

    @pytest.mark.parametrize("offsets, message", [
        ([1, 3, 5], "run from 0"), ([0, 2, 4], "run from 0"),
        ([0, 2, 6], "run from 0"), ([], "run from 0"),
        ([0, 2, 2, 5], "at least one page"),
    ], ids=["not-from-0", "short", "past-end", "no-offsets", "empty-document"])
    def test_page_positions_check_offsets(self, offsets, message):
        with pytest.raises(ValueError, match=message):
            page_positions(np.array(offsets, dtype=np.int64), 5)

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
    def test_rejects_duplicates_and_small(self):
        with pytest.raises(ValueError):
            TypeVocabulary(("A", "A"))
        with pytest.raises(ValueError):
            TypeVocabulary(("A",))
        with pytest.raises(ValueError):
            TypeVocabulary(("A", ""))
        with pytest.raises(ValueError, match=re.escape("'[-1]' is reserved")):
            TypeVocabulary(("[-1]", "b"))  # the first-page marker

    @pytest.mark.parametrize("names", ["abc", ["a", 1], ("a", None), {"a": 0, "b": 1},
                                       5], ids=["string", "int-name", "null-name",
                                                "object", "number"])
    def test_classes_must_be_a_list_of_strings(self, names):
        """A string is not read as its characters, nor an object as its
        keys."""
        with pytest.raises(ValueError, match="classes must be a list of strings"):
            TypeVocabulary(names)


class TestDataModel:
    def test_page_index_must_be_contiguous(self, tmp_path):
        write_corpus_dir(tmp_path, [
            {"doc_id": "d", "page_index": 0, "text": "x", "labels": ["A"]},
            {"doc_id": "d", "page_index": 2, "text": "y", "labels": ["A"]},
        ])
        with pytest.raises(CorpusError, match=r"train\.jsonl:2: page_index"):
            load_corpus(tmp_path / "manifest.json")

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Documents(AB, ["d"], [0], [], [])

    def test_page_without_labels_rejected(self, tmp_path):
        write_corpus_dir(tmp_path, [
            {"doc_id": "d", "page_index": 0, "text": "x", "labels": []}])
        with pytest.raises(CorpusError, match=r"train\.jsonl:1: field 'labels' holds 0 "
                                              r"labels in multiclass mode"):
            load_corpus(tmp_path / "manifest.json")

    @pytest.mark.parametrize("labels, count", [([], 0), (["A", "B"], 2)])
    def test_label_count_is_named_by_its_line(self, tmp_path, labels, count):
        """A page of no label, or of two on a multiclass corpus, is named by
        its line, before a fault on a later line."""
        write_corpus_dir(tmp_path, [
            {"doc_id": "d", "page_index": 0, "text": "x", "labels": ["A"]},
            {"doc_id": "d", "page_index": 1, "text": "y", "labels": labels},
            {"doc_id": "d", "page_index": "2", "text": "z", "labels": ["A"]}])
        with pytest.raises(CorpusError) as raised:
            load_corpus(tmp_path / "manifest.json")
        assert str(raised.value) == (f"{tmp_path / 'train.jsonl'}:2: field 'labels' "
                                     f"holds {count} labels in multiclass mode")

    def test_multiclass_single_label_enforced(self):
        doc = make_doc("d", [{0, 1}])
        with pytest.raises(ValueError, match="multiclass"):
            simple_split([doc], AB)

    @pytest.mark.parametrize("gold", [
        [[True, False]], np.array([[1, 0]]), np.array([True, False]),
        np.zeros((1, 3), dtype=bool), np.zeros((2, 2), dtype=bool),
    ], ids=["list", "int-array", "one-dim", "three-columns", "two-rows"])
    def test_gold_must_be_a_bool_indicator(self, gold):
        """The gold labels are a (pages x n) bool array, nothing else."""
        with pytest.raises(ValueError, match=re.escape(
                "gold must be a bool array of shape (1, 2)")):
            Documents(AB, ["d"], [1], ["x"], gold)

    def test_duplicate_doc_ids_rejected(self):
        docs = [make_doc("d", [0]), make_doc("d", [1])]
        with pytest.raises(ValueError, match="duplicate doc_id"):
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
        with pytest.raises(CorpusError, match=re.escape(f"{manifest}: expected a JSON "
                                                        f"object")):
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


# write_corpus of the config of test_corpus_bytes_are_pinned
PINNED_SHA256 = {
    "train.jsonl": "84b7355a41c70dfe71f864203c00bc8527f2810489a5a8bf38e98322936522ca",
    "validation.jsonl": "f87ccf8863b5b3977b63e7f05e3b9c0f3d4e7b5e862f7a3458ebabbde56e4ae3",
    "test.jsonl": "e1ef2b0b976d09e85335ad10eb4360898401e80a83b8d0fbcbc1570141fb43f4",
    "manifest.json": "a1835717725a9632334be576514591febf060035288746b13dc670b24b4493cc",
}


class TestAgainstPerPageReference:
    """The generator and the writer against their per-page references: one
    ``Generator.choice`` per page class, one ``json.dumps`` per page line."""

    @given(synth_configs())
    def test_generator_matches_reference(self, cfg):
        assert same_corpus(generate_synthetic(cfg), reference_generate_synthetic(cfg))

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(shared_vocab_size=1), id="shared-1"),
        pytest.param(dict(class_vocab_size=1), id="class-1"),
        pytest.param(dict(shared_vocab_size=1, class_vocab_size=1), id="both-1"),
        *(pytest.param({field: size}, id=f"{field.split('_')[0]}-{label}")
          for field in ("shared_vocab_size", "class_vocab_size")
          for size, label in ((2**32 - 1, "2**32-1"), (2**32, "2**32"),
                              (2**32 + 1, "2**32+1"), (2**63, "2**63"))),
        pytest.param(dict(shared_vocab_size=2**63, class_vocab_size=2**32 - 1),
                     id="2**63-and-2**32-1"),
        pytest.param(dict(ambiguity=0.0), id="ambiguity-0"),
        pytest.param(dict(ambiguity=1.0), id="ambiguity-1"),
        pytest.param(dict(tokens_per_page=(1, 1)), id="one-token"),
        pytest.param(dict(tokens_per_page=(1, 1), ambiguity=0.0), id="one-class-token"),
        pytest.param(dict(shared_vocab_size=np.uint64(2**63),
                          class_vocab_size=np.int32(7)), id="numpy-uint64-int32"),
        pytest.param(dict(shared_vocab_size=np.int64(2**32),
                          class_vocab_size=np.uint8(1)), id="numpy-int64-uint8"),
    ])
    def test_generator_matches_reference_at_draw_boundaries(self, kwargs):
        """A pool of one id draws nothing; 2**32 ids and more draw 64-bit
        values; an empty pool, or a one-token page's shuffle, draws nothing."""
        kwargs = {"tokens_per_page": (1, 9), "docs_per_split": (4, 2, 2), **kwargs}
        cfg = SynthConfig.uniform(3, 0.6, seed=17, pages_per_doc=(1, 5), **kwargs)
        assert same_corpus(generate_synthetic(cfg), reference_generate_synthetic(cfg))

    def test_corpus_bytes_are_pinned(self, tmp_path):
        """The SHA-256 of each written file of one fixed config, so that a
        change of the random stream (a refactor or a numpy upgrade) shows
        even where the reference generator shifts with it."""
        cfg = SynthConfig.uniform(3, 0.7, seed=2024, pages_per_doc=(1, 6),
                                  tokens_per_page=(1, 9), class_vocab_size=40,
                                  shared_vocab_size=70_000, ambiguity=0.6,
                                  docs_per_split=(6, 2, 3))
        directory = write_corpus(generate_synthetic(cfg), tmp_path).parent
        assert {name: sha256((directory / name).read_bytes()).hexdigest()
                for name in PINNED_SHA256} == PINNED_SHA256

    def test_four_generator_calls_per_page(self, monkeypatch):
        """Each page costs at most four calls on the generator (class, token
        count, token ids, shuffle) and each document one (its page count)."""
        calls = []
        real = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = real(seed)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return counted

        cfg = SynthConfig.uniform(3, 0.6, seed=4, pages_per_doc=(1, 6),
                                  docs_per_split=(5, 3, 2))
        expected = generate_synthetic(cfg)
        monkeypatch.setattr(np.random, "default_rng", Counting)
        split = generate_synthetic(cfg)
        assert same_corpus(split, expected)
        pages = sum(len(docs.texts) for _, docs in split.splits())
        assert len(calls) <= 4 * pages + sum(cfg.docs_per_split)

    @given(labelled_splits())
    def test_writer_matches_reference_bytes(self, split):
        provenance = {"command": "synth", "note": "\u00e9\u2028\"", "seed": 3}
        with tempfile.TemporaryDirectory() as tmp:
            ours = write_corpus(split, f"{tmp}/ours", provenance).parent
            ref = reference_write_corpus(split, f"{tmp}/ref", provenance).parent
            for name in ("train.jsonl", "validation.jsonl", "test.jsonl",
                         "manifest.json"):
                assert (ours / name).read_bytes() == (ref / name).read_bytes()


CLASS_NAMES = ["A", "b\u00e9", 'q"\\', "\u2028", "\x01z"]
UNKNOWN = "no such class"


@st.composite
def page_files(draw, min_pages=0):
    """(vocab, pages): the page objects of a split file of either label mode,
    with the pages of up to 4 documents interleaved in any order that keeps
    each document's own; a multilabel page may name a class twice."""
    mode = draw(st.sampled_from(["multiclass", "multilabel"]))
    names = draw(st.lists(st.sampled_from(CLASS_NAMES), min_size=2, max_size=4,
                          unique=True))
    labels = st.lists(st.sampled_from(names), min_size=1,
                      max_size=1 if mode == "multiclass" else len(names) + 1)
    doc_ids = draw(st.lists(JSON_TEXT, min_size=1 if min_pages else 0,
                            max_size=4, unique=True))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(doc_ids),
                          max_size=len(doc_ids)).filter(
                              lambda sizes: sum(sizes) >= min_pages))
    owners = draw(st.permutations([d for d, size in enumerate(sizes)
                                   for _ in range(size)]))
    seen = [0] * len(doc_ids)
    pages = []
    for d in owners:
        pages.append({"doc_id": doc_ids[d], "labels": draw(labels),
                      "page_index": seen[d], "text": draw(JSON_TEXT)})
        seen[d] += 1
    return TypeVocabulary(tuple(names), mode), pages


WRONG_TYPE = {"doc_id": [3, None, ["d"]], "page_index": ["0", 1.5, None],
              "text": [3, None, ["t"]], "labels": ["A", None, {"A": 1}]}
# one fault each; only "json" leaves a line that does not parse
FAULTS = ("json", "object", "missing", "type", "bool", "nonstring", "unknown",
          "duplicate", "order", "empty")


class Faulty(dict):
    """A page object that already holds a fault."""


def add_fault(entries: list, fault: str, draw) -> None:
    """Put ``fault`` into a drawn page of ``entries`` that holds none yet (a
    page object, not a ``Faulty`` one or a line already broken), in place."""
    i = draw(st.sampled_from([k for k, e in enumerate(entries) if type(e) is dict]))
    page = Faulty(entries[i], labels=list(entries[i]["labels"]))
    if fault == "json":
        line = json.dumps(page)
        page = line[:draw(st.integers(1, len(line) - 1))]
    elif fault == "object":
        page = draw(st.sampled_from(["3", "null", "true", "[1, 2]", '"doc_id"']))
    elif fault == "missing":
        del page[draw(st.sampled_from(sorted(page)))]
    elif fault == "type":
        key = draw(st.sampled_from(sorted(WRONG_TYPE)))
        page[key] = draw(st.sampled_from(WRONG_TYPE[key]))
    elif fault == "bool":
        page["page_index"] = draw(st.booleans())
    elif fault in ("nonstring", "unknown"):
        label = (UNKNOWN if fault == "unknown"
                 else draw(st.sampled_from([5, None, 1.5, ["A"]])))
        page["labels"].insert(draw(st.integers(0, len(page["labels"]))), label)
    elif fault == "duplicate":
        entries.insert(i + 1, page)
        return
    elif fault == "order":
        page["page_index"] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif fault == "empty":
        page["labels"] = []
    entries[i] = page


def jsonl(entries) -> str:
    return "".join((e if isinstance(e, str) else json.dumps(e)) + "\n"
                   for e in entries)


def load_both(text: str, vocab):
    """The errors ``load_split_file`` and its per-line reference raise on a
    split file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError) as ours:
            load_split_file(path, vocab)
        with pytest.raises(CorpusError) as ref:
            reference_load_split_file(path, vocab)
    return str(ours.value), str(ref.value)


class TestLoaderAgainstPerLineReference:
    """The column-wise split loader against the per-line reference: one
    ``json.loads`` and one set of checks per line."""

    @given(page_files(), st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
    def test_same_documents(self, case, blanks):
        vocab, pages = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.jsonl"
            path.write_text(jsonl(pages + blanks), encoding="utf-8")
            assert same_documents(load_split_file(path, vocab),
                                  reference_load_split_file(path, vocab))

    @given(page_files(min_pages=1), st.sampled_from(FAULTS), st.data())
    def test_single_fault_gets_the_reference_message(self, case, fault, data):
        vocab, entries = case
        add_fault(entries, fault, data.draw)
        ours, ref = load_both(jsonl(entries), vocab)
        assert ours == ref

    @given(page_files(min_pages=3),
           st.lists(st.sampled_from(FAULTS[1:]), min_size=2, max_size=3), st.data())
    def test_several_faults_get_the_first_lines_message(self, case, faults, data):
        """Faults other than malformed JSON are reported in file order, as
        the reference reports them."""
        vocab, entries = case
        for fault in faults:
            add_fault(entries, fault, data.draw)
        ours, ref = load_both(jsonl(entries), vocab)
        assert ours == ref

    @given(page_files(min_pages=3), st.sampled_from(FAULTS[1:]), st.data())
    def test_malformed_json_is_reported_before_other_faults(self, case, fault, data):
        vocab, entries = case
        add_fault(entries, fault, data.draw)
        add_fault(entries, "json", data.draw)
        # the cut line; a line that is no object is whole
        lineno = next(k for k, e in enumerate(entries, 1)
                      if isinstance(e, str) and e.startswith("{"))
        ours, _ = load_both(jsonl(entries), vocab)
        assert re.search(rf"split\.jsonl:{lineno}:\d+: malformed JSON \(", ours)


def with_number(line: str, literal: str) -> str:
    """``line`` with its first score, or else its page_index, written as
    ``literal``."""
    key = '"scores": [' if '"scores": [' in line else '"page_index": '
    head, _, tail = line.partition(key)
    number = re.match(r"[-+.0-9eE]+", tail).group()
    return head + key + literal + tail[len(number):]


# Lines the scanner does not read whole, each made from the file's lines and
# the index of its last one, a page line
LINE_CASES = {
    "leading-spaces": lambda lines, k: lines[:k] + ["  " + lines[k]],
    "trailing-spaces": lambda lines, k: lines[:k] + [lines[k] + " \t "],
    "crlf": lambda lines, k: [line + "\r" for line in lines],
    "bom": lambda lines, k: ["\ufeff" + lines[0]] + lines[1:],
    "two-values": lambda lines, k: lines[:k - 1] + [lines[k - 1] + lines[k]],
    "two-values-spaced": lambda lines, k: lines[:k - 1] + [lines[k - 1] + " " + lines[k]],
    "split-object": lambda lines, k: lines[:k] + ['{"a": [{}', "{}]}"] + lines[k:],
    "nan": lambda lines, k: lines[:k] + [with_number(lines[k], "NaN")],
    "infinity": lambda lines, k: lines[:k] + [with_number(lines[k], "Infinity")],
    "minus-infinity": lambda lines, k: lines[:k] + [with_number(lines[k], "-Infinity")],
    "not-object": lambda lines, k: lines[:k] + ["5", "[1, 2]", '"abc"', "null"] + lines[k:],
}


# the documents of the trace file lines
TRACE_DOCS = documents(AB, ["d", "e"], [2, 1])


def trace_file_lines() -> list[str]:
    trace = SplitTrace.blank(TRACE_DOCS)
    trace.scores[:] = [[0.5, -1.25], [2.0, 1e-3], [-0.0, 3.0]]
    trace.labels[[0, 1, 2], [0, 1, 1]] = True
    trace.context[[0, 2], 0] = True
    trace.context[1, 1] = True
    with tempfile.TemporaryDirectory() as tmp:
        write_traces(trace, Path(tmp) / "t.jsonl", provenance={"seed": 1})
        return (Path(tmp) / "t.jsonl").read_text(encoding="utf-8").splitlines()


def outcome(read, path):
    """("ok", what ``read(path)`` returns) or ("error", its error's type and
    message)."""
    try:
        return "ok", read(path)
    except (ValueError, KeyError, TypeError) as exc:
        return "error", (type(exc), str(exc))


def per_line_json(path):
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    values = []
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            try:
                values.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}:{exc.colno}: malformed JSON "
                                  f"({exc.msg})") from None
    return values


def line_reader(path):
    return list(zip(*read_jsonl(path, Path(path).read_text(encoding="utf-8"))))


def same_trace_pages(a, b) -> bool:
    def plain(docs):
        return [(doc_id, [(p.scores.tobytes(), p.labels, repr(p.context))
                          for p in pages]) for doc_id, pages in docs]
    return plain(a) == plain(b)


AB_PAGES = [json.dumps({"doc_id": d, "labels": [c], "page_index": t, "text": "x"})
            for d, t, c in (("d", 0, "A"), ("e", 0, "B"), ("d", 1, "B"))]
# (lines, the reader under test, its per-line reference, whether what they
# return is the same)
READERS = {
    "split-file": (AB_PAGES, lambda p: load_split_file(p, AB),
                   lambda p: reference_load_split_file(p, AB), same_documents),
    "trace-file": (trace_file_lines(), lambda p: trace_pages(read_traces(
                       p, TRACE_DOCS, Path(p).read_text(encoding="utf-8"))),
                   lambda p: read_traces_per_page(p, TRACE_DOCS), same_trace_pages),
    "line-reader": (AB_PAGES, line_reader, per_line_json, lambda a, b: a == b),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", sorted(LINE_CASES))
def test_line_reader_matches_json_loads_per_line(tmp_path, case, reader):
    """Each reader's objects, or its error and the ``path:lineno`` it names,
    are those of ``json.loads`` on each line."""
    lines, read, reference, same = READERS[reader]
    path = tmp_path / "file.jsonl"
    path.write_text("\n".join(LINE_CASES[case](lines, len(lines) - 1)) + "\n",
                    encoding="utf-8")
    (kind, ours), (ref_kind, ref) = outcome(read, path), outcome(reference, path)
    assert kind == ref_kind
    assert ours == ref if kind == "error" else same(ours, ref)
    if reader == "trace-file" and case in ("nan", "infinity", "minus-infinity"):
        assert kind == "error" and "not finite" in ours[1]
    if reader != "line-reader" and case == "not-object":
        assert kind == "error" and ours[1] == f"{path}:{len(lines)}: expected a JSON object"


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
        with pytest.raises(ValueError, match="stochastic"):
            SynthConfig(2, ((0.5, 0.4), (0.5, 0.5)), (0.5, 0.5))
        with pytest.raises(ValueError, match="stochastic"):
            SynthConfig(2, ((0.5, 0.5), (0.5, 0.5)), (0.9, 0.2))
        with pytest.raises(ValueError, match="ambiguity"):
            SynthConfig.uniform(2, 0.5, ambiguity=1.5)
        with pytest.raises(ValueError, match="pages_per_doc"):
            SynthConfig.uniform(2, 0.5, pages_per_doc=(0, 3))

    def test_non_finite_transition_row_rejected(self):
        """NaN sums pass the stochastic test (abs(nan - 1) > tol is False),
        so the finite check must catch them."""
        nan = float("nan")
        with pytest.raises(ValueError, match="row 0 has a non-finite entry"):
            SynthConfig(2, ((nan, nan), (0.5, 0.5)), (0.5, 0.5))

    def test_non_finite_start_distribution_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="start_distribution has a non-finite"):
            SynthConfig(2, ((0.5, 0.5), (0.5, 0.5)), (nan, nan))

    @pytest.mark.parametrize("field", ["class_vocab_size", "shared_vocab_size"])
    @pytest.mark.parametrize("size", [2.5, 3.0, True, "3"])
    def test_vocab_size_must_be_an_integer(self, field, size):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SynthConfig.uniform(2, 0.5, **{field: size})

    @pytest.mark.parametrize("field, ok, bad", [
        ("class_vocab_size", 2**63, 2**63 + 1),
        ("shared_vocab_size", np.uint64(2**63), 2**64),
        ("tokens_per_page", (1, 2**63 - 1), (1, 2**63)),
        ("pages_per_doc", (2**63 - 1, 2**63 - 1), (1, 2**64)),
    ])
    def test_sizes_numpy_cannot_draw_rejected(self, field, ok, bad):
        """numpy draws from int64: a pool may hold 2**63 ids, and a range
        may end at 2**63 - 1."""
        SynthConfig.uniform(2, 0.5, **{field: ok})
        with pytest.raises(ValueError, match=field):
            SynthConfig.uniform(2, 0.5, **{field: bad})

    def test_n_classes_must_be_an_integer(self):
        with pytest.raises(ValueError, match="n_classes must be an integer"):
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
        with pytest.raises(ValueError, match="multiclass"):
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
                with pytest.raises(ValueError, match="no page transitions"):
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


def test_uniform_with_one_class_raises_value_error():
    with pytest.raises(ValueError, match="n_classes must be >= 2"):
        SynthConfig.uniform(1, 0.5)


# -0.0, the smallest and largest subnormals, the largest finite magnitudes
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.79e308,
               -1.79e308, np.finfo(np.float64).max, np.inf, -np.inf, np.nan]


def block_round_trip(array):
    """``array`` through its float block and JSON text, as a checkpoint
    file carries it."""
    return read_float_block(json.loads(json.dumps(float_block(array))), "x")


class TestFloatBlocks:
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                      elements=st.floats(allow_subnormal=True)
                      | st.sampled_from(EDGE_FLOATS)))
    @example(np.array(EDGE_FLOATS))
    @example(np.zeros((3, 0, 2)))
    @example(np.zeros((0,)))
    def test_round_trip_keeps_every_bit(self, array):
        back = block_round_trip(array)
        assert back.shape == array.shape
        assert np.array_equal(back, array, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(array))
        assert back.tobytes() == array.tobytes()
        assert back.dtype == np.float64 and back.dtype.isnative
        assert back.flags.writeable and back.flags.c_contiguous

    def test_layout_is_c_order_little_endian(self):
        array = np.array([[1.0, -0.0], [5e-324, 2.5]])
        block = float_block(array.T)  # any memory order: written C-order
        assert block["shape"] == [2, 2]
        assert base64.b64decode(block["f8le"]) == array.T.astype("<f8").tobytes()
        assert float_block(array.astype(">f8")) == float_block(array)

    @pytest.mark.parametrize("block, message", [
        ([0.0], "must be an object with exactly the keys"),
        ({"shape": [1]}, "must be an object with exactly the keys"),
        ({"shape": [1], "f8le": "AAAAAAAAAAA=", "dtype": "<f8"},
         "must be an object with exactly the keys"),
        ({"shape": 1, "f8le": "AAAAAAAAAAA="}, "'shape' must be a list"),
        ({"shape": [-1], "f8le": ""}, "'shape' must be a list of non-negative ints"),
        ({"shape": [True], "f8le": "AAAAAAAAAAA="}, "'shape' must be a list"),
        ({"shape": [1.0], "f8le": "AAAAAAAAAAA="}, "'shape' must be a list"),
        ({"shape": [1], "f8le": None}, "'f8le' must be a base64 string"),
        ({"shape": [1], "f8le": [0.0]}, "'f8le' must be a base64 string"),
        ({"shape": [1], "f8le": "AAAAAAAAAAA=\n"}, "not strict base64"),
        ({"shape": [1], "f8le": "AAAAAAAAAAA"}, "not strict base64"),
        ({"shape": [1], "f8le": "AAAA AAAAAA="}, "not strict base64"),
        ({"shape": [1], "f8le": "\u00e9AAAAAAAAAA="}, "not strict base64"),
        ({"shape": [2], "f8le": "AAAAAAAAAAA="}, "holds 8 bytes, shape [2] needs 16"),
        ({"shape": [], "f8le": ""}, "holds 0 bytes, shape [] needs 8"),
        ({"shape": [0, 2**64], "f8le": ""}, "field"),
    ], ids=["list", "missing-key", "extra-key", "shape-int", "shape-negative",
            "shape-bool", "shape-float", "data-null", "data-list", "data-newline",
            "data-padding", "data-space", "data-non-ascii", "byte-count",
            "scalar-byte-count", "huge-empty-shape"])
    def test_malformed_block_names_its_field(self, block, message):
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            read_float_block(block, "field")
        assert str(exc.value).startswith("field")

    @pytest.mark.parametrize("value", [None, "f8le-blocks/0", 1])
    def test_checkpoint_format(self, value):
        check_format({"format": CHECKPOINT_FORMAT}, "encoder")
        payload = {} if value is None else {"format": value}
        with pytest.raises(ValueError, match="crf format .* re-run `train`"):
            check_format(payload, "crf")
