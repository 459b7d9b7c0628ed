"""Tests for context-token augmentation, teacher forcing, and sequential inference."""

import json
from unittest import mock

import numpy as np
import pytest
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pageseq.encoder as encoder
import pageseq.recurrence as recurrence
from pageseq.corpus import MULTICLASS, MULTILABEL, TypeVocabulary
from pageseq.encoder import (
    EncoderConfig,
    TokenCodec,
    init_params,
    predict,
)
from pageseq.files import FIRST_PAGE_TOKEN, TRACE_FORMAT, CorpusError
from pageseq.recurrence import (
    SplitTrace,
    augment_input,
    block_bounds,
    encode_split,
    infer_split,
    page_examples,
    read_traces,
    row_lengths,
    split_tokens,
    write_traces,
)
import pageseq.training as training
from pageseq.training import TrainConfig, train_encoder

import oracles
from oracles import FIRST_PAGE, UNICODE_TEXT, GoldDoc, GoldPage

BRIEFS = TypeVocabulary(("Caption", "Body", "Signature"))


def briefs_codec():
    return TokenCodec(BRIEFS, ("brief", "of", "appellant", "signed", "page"))


def make_doc(doc_id, texts_and_labels):
    pages = tuple(
        GoldPage(text, frozenset(lab if isinstance(lab, set) else {lab}))
        for text, lab in texts_and_labels
    )
    return GoldDoc(doc_id, pages)


def split_of(docs, vocab=BRIEFS):
    return oracles.split_of(docs, vocab)


def encode(docs, codec, max_len):
    """The EncodedSplit of the split of GoldDocs ``docs``."""
    return encode_split(split_tokens(split_of(docs, codec.type_vocab)), codec,
                        max_len)


def infer(params, docs, config, codec, recurrent):
    """infer_split over the split of GoldDocs ``docs``."""
    return infer_split(params, encode(docs, codec, config.max_len), config,
                       recurrent)


def read_file(path, docs):
    """read_traces of ``docs`` on the trace file ``path``."""
    return read_traces(path, docs, Path(path).read_text(encoding="utf-8"))


def augment(context, text, codec, max_len):
    """The batched augment_input on one page: its id row."""
    split = encode([make_doc("d", [(text, 0)])], codec, max_len)
    (row,) = augment_input(split.text, split.lengths,
                           oracles.context_arrays([context], codec.n_classes),
                           max_len)
    return row


def reference_row(context, text, codec, max_len):
    """oracles.augment_input's row, cut to its length."""
    ids, length = oracles.augment_input(context, text, codec, max_len)
    return ids[:length]


def infer_document(params, doc, config, codec):
    """The per-page records of a lone document's recurrent trace."""
    ((_, pages),) = oracles.trace_pages(
        infer(params, [doc], config, codec, recurrent=True))
    return pages


def infer_context_oblivious(params, doc, config, codec):
    ((_, pages),) = oracles.trace_pages(
        infer(params, [doc], config, codec, recurrent=False))
    return pages


def decided(scores, label_mode):
    """encoder.predict on one score vector, as a set of classes."""
    (row,) = predict(scores[None, :], label_mode)
    return frozenset(np.flatnonzero(row).tolist())


def reference_traces(params, docs, config, codec, recurrent):
    """Per-page reference driver: augment -> forward -> predict, one page at a
    time, each document on its own.  (scores, labels, context) per page."""
    out = []
    for doc in docs:
        context = FIRST_PAGE if recurrent else None
        pages = []
        for page in doc.pages:
            row = reference_row(context, page.text, codec, config.max_len)
            scores = oracles.forward(params, row, config)
            labels = decided(scores, codec.type_vocab.label_mode)
            pages.append((scores, labels, context))
            if recurrent:
                context = labels
        out.append(pages)
    return out


def count_forward_batch_rows(monkeypatch):
    """Record the row count of every encoder.forward_batch call."""
    rows = []
    real = encoder.forward_batch

    def counting(params, ids, config, *pool):
        rows.append(len(ids))
        return real(params, ids, config, *pool)

    monkeypatch.setattr(encoder, "forward_batch", counting)
    return rows


class TestAugmentInput:
    def test_first_page_gets_reserved_token(self):
        codec = briefs_codec()
        seq = augment(FIRST_PAGE, "brief of appellant", codec, max_len=10)
        assert oracles.decode(codec, seq) == ["[CLS]", "[-1]", "brief", "of", "appellant"]

    def test_previous_class_token_prepended(self):
        codec = briefs_codec()
        seq = augment(frozenset({0}), "brief of appellant", codec, max_len=10)
        assert oracles.decode(codec, seq) == \
            ["[CLS]", "[type_Caption]", "brief", "of", "appellant"]

    def test_multilabel_context_two_tokens_ascending(self):
        vocab = TypeVocabulary(tuple(f"K{i}" for i in range(6)), "multilabel")
        codec = TokenCodec(vocab, ("word",))
        seq = augment(frozenset({5, 2}), "word word", codec, max_len=12)
        decoded = oracles.decode(codec, seq)
        assert decoded[:3] == ["[CLS]", "[type_K2]", "[type_K5]"]
        assert decoded[3:] == ["word", "word"]

    def test_oblivious_input_has_no_context_tokens(self):
        codec = briefs_codec()
        seq = augment(None, "brief of", codec, max_len=10)
        assert oracles.decode(codec, seq) == ["[CLS]", "brief", "of"]

    def test_text_truncated_from_right_specials_survive(self):
        codec = briefs_codec()
        text = " ".join(["page"] * 50)
        seq = augment(frozenset({0, 1}), text, codec, max_len=6)
        decoded = oracles.decode(codec, seq)
        assert len(seq) == 6
        assert decoded == ["[CLS]", "[type_Caption]", "[type_Body]",
                           "page", "page", "page"]
        oracles.check_sequence(seq, codec)

    def test_unknown_text_tokens_become_unk(self):
        codec = briefs_codec()
        seq = augment(FIRST_PAGE, "zzz brief", codec, max_len=8)
        assert oracles.decode(codec, seq) == ["[CLS]", "[-1]", "[UNK]", "brief"]

    def test_empty_context_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            augment(frozenset(), "x", briefs_codec(), max_len=8)


def record_batches(monkeypatch):
    """Record the (ids, targets) of every training step."""
    batches = []
    real = training.loss_and_grad

    def recording(params, ids, targets, *args):
        batches.append((ids.copy(), targets.copy()))
        return real(params, ids, targets, *args)

    monkeypatch.setattr(training, "loss_and_grad", recording)
    return batches


class TestTeacherForcedBatches:
    def test_contexts_are_previous_gold_labels(self):
        """Doc with gold A,B -> examples (FIRST_PAGE, A), ({A}, B)."""
        codec = briefs_codec()
        doc = make_doc("d", [("brief", 0), ("signed", 1)])
        ids, targets = page_examples(encode([doc], codec, 8), True)
        assert len(ids) == 2
        assert oracles.decode(codec, ids[0])[1] == "[-1]"
        assert targets[0] == 0
        assert oracles.decode(codec, ids[1])[1] == "[type_Caption]"
        assert targets[1] == 1

    def test_batch_sizes(self, monkeypatch):
        """100 pages at batch_size 32 -> batches of 32,32,32,4."""
        batches = record_batches(monkeypatch)
        codec = briefs_codec()
        docs = [make_doc(f"d{i}", [("page", 0)] * 10) for i in range(10)]
        train_encoder(EncoderConfig(variant="linear", d=4, max_len=8),
                      encode(docs, codec, 8), TrainConfig(epochs=1, batch_size=32),
                      recurrent=True)
        assert [len(ids) for ids, _ in batches] == [32, 32, 32, 4]

    def test_contexts_depend_only_on_gold(self):
        """Scan of batch construction inputs: every context token equals the
        gold of the previous page, independent of any model."""
        codec = briefs_codec()
        rng = np.random.default_rng(5)
        docs = [
            make_doc(f"d{i}", [("page", int(c)) for c in rng.integers(0, 3, size=6)])
            for i in range(4)
        ]
        ids, targets = page_examples(encode(docs, codec, 8), True)
        idx = 0
        for doc in docs:
            for t in range(len(doc.pages)):
                decoded = oracles.decode(codec, ids[idx])
                if t == 0:
                    assert decoded[1] == "[-1]"
                else:
                    prev_gold = next(iter(doc.pages[t - 1].gold_labels))
                    assert decoded[1] == oracles.id_to_string(
                        codec, oracles.class_token_id(codec, prev_gold))
                assert {int(targets[idx])} == doc.pages[t].gold_labels
                idx += 1

    def test_shuffle_is_seeded(self, monkeypatch):
        batches = record_batches(monkeypatch)
        codec = briefs_codec()
        docs = [make_doc(f"d{i}", [("page", 0)] * 5) for i in range(6)]
        for _ in range(2):
            train_encoder(EncoderConfig(variant="linear", d=4, max_len=8),
                          encode(docs, codec, 8),
                          TrainConfig(epochs=2, batch_size=4, seed=3), recurrent=True)
        first, second = batches[:len(batches) // 2], batches[len(batches) // 2:]
        for (ix, tx), (iy, ty) in zip(first, second):
            np.testing.assert_array_equal(ix, iy)
            np.testing.assert_array_equal(tx, ty)

    def test_plain_batches_carry_no_context_tokens(self):
        codec = briefs_codec()
        docs = [make_doc("d", [("brief", 0), ("page", 1)])]
        ids, _ = page_examples(encode(docs, codec, 8), False)
        assert len(ids) == 2
        for row in ids:
            decoded = oracles.decode(codec, row)
            assert decoded[0] == "[CLS]"
            assert not any(t.startswith("[type_") or t == "[-1]"
                           for t in decoded)


PROPERTY_WORDS = ("brief", "of", "Appellant,", "signed", "page", "§", "ÉTÉ")

# page text: arbitrary Unicode, or known words and arbitrary pieces joined by
# assorted Unicode whitespace
page_texts = st.one_of(
    st.text(max_size=40),
    st.tuples(st.lists(st.one_of(st.sampled_from(PROPERTY_WORDS),
                                 st.text(max_size=6)), max_size=14),
              st.sampled_from([" ", "\t", "\n", "\u3000", " \u00a0 "]))
    .map(lambda parts: parts[1].join(parts[0])))


@st.composite
def labelled_splits(draw, max_docs=6, max_pages=5):
    """(codec, docs): a ragged split whose gold labels fit the codec's label
    mode, and a codec that knows some of the split's tokens."""
    n = draw(st.integers(2, 5))
    label_mode = draw(st.sampled_from([MULTICLASS, MULTILABEL]))
    label_sets = st.sets(st.integers(0, n - 1), min_size=1,
                         max_size=1 if label_mode == MULTICLASS else n)
    pages = st.lists(st.tuples(page_texts, label_sets), min_size=1,
                     max_size=max_pages)
    docs = [make_doc(f"d{i}", doc_pages) for i, doc_pages in
            enumerate(draw(st.lists(pages, min_size=1, max_size=max_docs)))]
    seen = sorted({tok for doc in docs for page in doc.pages
                   for tok in oracles.reference_tokenize(page.text)})
    known = draw(st.lists(st.sampled_from(seen), unique=True)) if seen else []
    vocab = TypeVocabulary(tuple(f"K{i}" for i in range(n)), label_mode)
    return TokenCodec(vocab, known), docs


def context_size(context):
    return 0 if context is None else 1 if context is FIRST_PAGE else len(context)


@st.composite
def augment_cases(draw):
    """A split, one context per page (none for every page, or the first page
    or 1..n classes for each), a block of its rows in any order, and a
    max_len from one below CLS plus the longest context upwards, so that
    truncation and the too-small case occur."""
    codec, docs = draw(labelled_splits())
    n = codec.n_classes
    classes = st.frozensets(
        st.integers(0, n - 1), min_size=1,
        max_size=1 if codec.type_vocab.label_mode == MULTICLASS else n)
    n_pages = sum(len(doc) for doc in docs)
    fed = st.one_of(st.just(FIRST_PAGE), classes) if draw(st.booleans()) else st.none()
    contexts = draw(st.lists(fed, min_size=n_pages, max_size=n_pages))
    longest = max(map(context_size, contexts))
    max_len = draw(st.integers(max(longest, 1), longest + 14))
    block = draw(st.permutations(range(n_pages)).flatmap(
        lambda rows: st.integers(1, n_pages).map(lambda k: rows[:k])))
    return codec, docs, contexts, max_len, block


class TestEncodeSplit:
    """The one-pass encode_split against the per-page loop it replaced: the
    same ids, lengths and dtypes."""

    @staticmethod
    def assert_matches_loop(docs, codec, max_len):
        split = split_of(docs, codec.type_vocab)
        encoded = encode_split(split_tokens(split), codec, max_len)
        text, lengths = oracles.loop_encode_split(
            list(map(oracles.reference_tokenize, split.texts)), codec, max_len)
        assert (encoded.text.dtype, encoded.lengths.dtype) == (text.dtype,
                                                               lengths.dtype)
        np.testing.assert_array_equal(encoded.text, text)
        np.testing.assert_array_equal(encoded.lengths, lengths)
        return encoded

    @pytest.mark.parametrize("vocab", [
        TypeVocabulary(("Caption", "Body", "Seal")),
        TypeVocabulary(BRIEFS.class_names, MULTILABEL),
    ], ids=["classes", "label-mode"])
    def test_codec_of_other_classes_refused(self, vocab):
        """A split is encoded only by a codec of its own classes and label
        mode, so that its gold and the codec's scores have one vocabulary."""
        tokens = split_tokens(split_of([make_doc("d", [("brief", 0)])], vocab))
        with pytest.raises(ValueError, match="not the codec's"):
            encode_split(tokens, briefs_codec(), 8)

    @settings(max_examples=200)
    @given(labelled_splits(max_docs=6, max_pages=6), st.integers(1, 12))
    def test_ids_and_lengths_equal_per_page_loop(self, case, max_len):
        codec, docs = case
        self.assert_matches_loop(docs, codec, max_len)

    def test_unknown_long_empty_and_punctuated_pages(self):
        codec = briefs_codec()
        doc = make_doc("d", [("«Brief» of ¿appellant?", 0), ("", 1),
                             (" \u3000 ", 1), ("zzz brief „signed“ unknown", 2),
                             ("page " * 9, 1), ("… — «»", 2)])
        encoded = self.assert_matches_loop([doc], codec, max_len=6)
        assert encoded.lengths.tolist() == [3, 0, 0, 4, 5, 0]
        assert encoded.text[3, [0, 3]].tolist() == [encoder.UNK_ID] * 2
        assert (encoded.text[[1, 2, 5]] == encoder.PAD_ID).all()

    def test_repeated_unicode_and_cased_pieces(self):
        """Pieces repeated across pages (each stripped once per split),
        Unicode whitespace, punctuation-only pieces, a Greek final sigma,
        whose form depends on what follows it, and U+0130, which lowercases
        to two code points."""
        codec = TokenCodec(BRIEFS, ("brief", "of", "οδος", "i\u0307stanbul",
                                    "σς", "σ"))
        doc = make_doc("d", [
            ("Brief, of ΟΔΟΣ brief; «of» ...", 0),
            ("ΟΔΟΣ\u2003brief\u00a0of\u3000ΟΔΟΣ.\u2028(brief)", 1),
            ("İSTANBUL İstanbul istanbul ΣΣ Σ ΣΣΣ", 2),
            ("!!! ,,, — … ΟΔΟΣ", 1),
            ("ΟΔΟΣΟΔΟΣ\x85Σ\u200bΣ ΑΣ\u0301 brief", 0),
        ])
        other = make_doc("e", [("of ΟΔΟΣ, brief! ΣΣ", 0)])
        encoded = self.assert_matches_loop([doc, other], codec, max_len=7)
        assert encoded.lengths.tolist() == [5, 5, 6, 1, 4, 4]
        # a word-final capital sigma lowercases to the final form
        final, dotted, pair, alone = codec.text_token_ids(
            ["οδος", "i\u0307stanbul", "σς", "σ"])
        assert encoded.text[[0, 1, 1, 3, 5], [2, 0, 3, 0, 1]].tolist() == [final] * 5
        assert encoded.text[2].tolist() == [dotted, dotted, encoder.UNK_ID, pair,
                                            alone, encoder.UNK_ID]



class TestAugmentInputProperties:
    """The batched augment_input against the per-page oracle."""

    @settings(max_examples=250)
    @given(augment_cases())
    def test_rows_equal_per_page_oracle(self, case):
        codec, docs, contexts, max_len, block = case
        texts = [page.text for doc in docs for page in doc.pages]
        split = encode(docs, codec, max_len)
        fed = [contexts[r] for r in block]
        context = oracles.context_arrays(fed, codec.n_classes)
        if max_len < 1 + max(map(context_size, fed)):
            with pytest.raises(ValueError, match="max_len"):
                augment_input(split.text[block], split.lengths[block], context,
                              max_len)
            return
        ids = augment_input(split.text[block], split.lengths[block], context,
                            max_len)
        expected = [oracles.augment_input(context, texts[r], codec, max_len)
                    for r, context in zip(block, fed)]
        lengths = [length for _, length in expected]
        assert ids.shape == (len(block), max(lengths))
        np.testing.assert_array_equal(
            ids, np.stack([ref[:ids.shape[1]] for ref, _ in expected]))
        np.testing.assert_array_equal(row_lengths(ids), lengths)

    @settings(max_examples=100)
    @given(labelled_splits(max_docs=8, max_pages=6), st.integers(1, 9),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_epoch_batches_are_oracle_rows_in_shuffled_order(
            self, case, batch_size, seed, teacher_forced):
        codec, docs = case
        label_mode = codec.type_vocab.label_mode
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=seed)
        recorded = []
        real = training.loss_and_grad

        def recording(params, ids, targets, *args):
            recorded.append((ids.copy(), targets.copy()))
            return real(params, ids, targets, *args)

        with mock.patch.object(training, "loss_and_grad", recording):
            train_encoder(config, encode(docs, codec, config.max_len), cfg,
                          teacher_forced)

        examples = []
        for doc in docs:
            for t, page in enumerate(doc.pages):
                context = (None if not teacher_forced else FIRST_PAGE if t == 0
                           else doc.pages[t - 1].gold_labels)
                examples.append((oracles.augment_input(context, page.text, codec,
                                                       config.max_len),
                                 page.gold_labels))
        expected = []
        for epoch in range(cfg.epochs):
            order = np.arange(len(examples))
            np.random.default_rng((seed, epoch)).shuffle(order)
            for lo in range(0, len(order), batch_size):
                expected.append(oracles.reference_batch(
                    [examples[i] for i in order[lo:lo + batch_size]], label_mode,
                    codec.n_classes))
        assert len(recorded) == len(expected)
        for (ids, targets), (ref_ids, ref_targets) in zip(recorded, expected):
            np.testing.assert_array_equal(ids, ref_ids)
            np.testing.assert_array_equal(targets, ref_targets)


def stub_params(codec, config):
    """Linear model that ignores text and maps context -> fixed next class:
    FIRST_PAGE -> Caption, Caption -> Body, Body -> Caption."""
    params = init_params(config, codec)
    for name in params:
        params[name][:] = 0.0
    params["head_w"] = np.eye(3)
    params["emb"][3] = np.array([1.0, 0.0, 0.0])                    # FIRST -> Caption
    params["emb"][oracles.class_token_id(codec, 0)] = np.array([0.0, 1.0, 0.0])  # Caption -> Body
    params["emb"][oracles.class_token_id(codec, 1)] = np.array([1.0, 0.0, 0.0])  # Body -> Caption
    return params


class TestInferDocument:
    def test_single_page_uses_first_page_context(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=3, max_len=8)
        params = stub_params(codec, config)
        doc = make_doc("d", [("brief", 0)])
        pages = infer_document(params, doc, config, codec)
        assert len(pages) == 1
        assert pages[0].context is FIRST_PAGE
        assert pages[0].labels == frozenset({0})

    def test_stub_model_alternates(self):
        """Hand simulation: context A->B, B->A, FIRST->A gives A,B,A,B,..."""
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=3, max_len=8)
        params = stub_params(codec, config)
        doc = make_doc("d", [("page", 0)] * 6)
        pages = infer_document(params, doc, config, codec)
        assert [next(iter(p.labels)) for p in pages] == [0, 1, 0, 1, 0, 1]

    def test_trace_contexts_chain_decisions(self):
        """Invariant: context at t>1 equals decided labels at t-1."""
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=1)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of", 0), ("page", 1), ("signed", 2)])
        pages = infer_document(params, doc, config, codec)
        assert pages[0].context is FIRST_PAGE
        for t in range(1, len(pages)):
            assert pages[t].context == pages[t - 1].labels

    def test_matches_manual_sequential_driver(self):
        """Independent driver: augment + forward + predict, page after page."""
        codec = briefs_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=10, init_seed=9)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of appellant", 0), ("page page", 1),
                             ("signed", 2), ("of brief", 1), ("appellant", 0)])
        pages = infer_document(params, doc, config, codec)

        context = FIRST_PAGE
        for t, page in enumerate(doc.pages):
            row = reference_row(context, page.text, codec, config.max_len)
            scores = oracles.forward(params, row, config)
            labels = decided(scores, MULTICLASS)
            np.testing.assert_array_equal(pages[t].scores, scores)
            assert pages[t].labels == labels
            context = labels

    def test_one_forward_call_per_page(self, monkeypatch):
        """A lone document decodes one one-row encoder call per page."""
        rows = count_forward_batch_rows(monkeypatch)
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        params = init_params(config, codec)
        doc = make_doc("d", [("page", 0)] * 7)
        infer_document(params, doc, config, codec)
        assert rows == [1] * 7

    def test_gold_perfect_model_matches_teacher_forced_contexts(self):
        """If every prediction equals gold, the recurrent contexts equal the
        teacher-forced ones (self-consistency)."""
        codec = TokenCodec(BRIEFS, ("ta", "tb", "tc"))
        config = EncoderConfig(variant="linear", d=3, max_len=8)
        params = init_params(config, codec)
        for name in params:
            params[name][:] = 0.0
        params["head_w"] = np.eye(3)
        for i, tok in enumerate(("ta", "tb", "tc")):
            params["emb"][oracles.text_token_id(codec, tok)] = 10.0 * np.eye(3)[i]
        doc = make_doc("d", [("ta", 0), ("tb", 1), ("tb", 1), ("tc", 2)])
        pages = infer_document(params, doc, config, codec)
        assert [p.labels for p in pages] == [page.gold_labels for page in doc.pages]
        assert pages[0].context is FIRST_PAGE
        for t in range(1, len(doc.pages)):
            assert pages[t].context == doc.pages[t - 1].gold_labels


class TestInferContextOblivious:
    def test_equals_per_page_forward(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=2)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of", 0), ("signed page", 1), ("of", 2)])
        pages = infer_context_oblivious(params, doc, config, codec)
        for t, page in enumerate(doc.pages):
            row = reference_row(None, page.text, codec, config.max_len)
            # one 3-row call against three 1-row calls: BLAS may round apart
            np.testing.assert_allclose(pages[t].scores,
                                       oracles.forward(params, row, config),
                                       rtol=0, atol=1e-12)
            assert pages[t].context is None

    def test_permuting_pages_permutes_predictions(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=3)
        params = init_params(config, codec)
        texts = [("brief", 0), ("of appellant", 1), ("signed", 2), ("page of", 0)]
        doc = make_doc("d", texts)
        perm = [2, 0, 3, 1]
        doc_perm = make_doc("d", [texts[i] for i in perm])
        pages = infer_context_oblivious(params, doc, config, codec)
        pages_perm = infer_context_oblivious(params, doc_perm, config, codec)
        for new_pos, old_pos in enumerate(perm):
            np.testing.assert_array_equal(pages_perm[new_pos].scores,
                                          pages[old_pos].scores)

    def test_duplicate_pages_identical_predictions(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=4)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of", 0), ("brief of", 0)])
        pages = infer_context_oblivious(params, doc, config, codec)
        np.testing.assert_array_equal(pages[0].scores, pages[1].scores)
        assert pages[0].labels == pages[1].labels


WORDS = ("brief", "of", "appellant", "signed", "page", "unseen")


def ragged_split(lengths, seed):
    rng = np.random.default_rng(seed)
    docs = []
    for i, n in enumerate(lengths):
        pages = []
        for _ in range(n):
            text = " ".join(rng.choice(WORDS, size=int(rng.integers(0, 12))))
            pages.append((text, int(rng.integers(0, 3))))
        docs.append(make_doc(f"d{i}", pages))
    return docs


RAGGED = (7, 3, 1, 5) + (1,) * 40
VARIANTS = {
    "linear": EncoderConfig(variant="linear", d=8, max_len=10, init_seed=1),
    "tiny-transformer": EncoderConfig(variant="tiny-transformer", d=8,
                                      n_layers=2, n_heads=2, max_len=10,
                                      init_seed=2),
}


def random_params(config, codec, seed):
    """Weight matrices large enough that decisions and fed contexts vary;
    biases and layernorm gains keep their initial values."""
    rng = np.random.default_rng(seed)
    return {name: rng.normal(0.0, 1.0, size=value.shape) if value.ndim == 2
            else value for name, value in init_params(config, codec).items()}


class TestLockstep:
    """infer_split against the per-page reference driver on a ragged split."""

    @pytest.mark.parametrize("recurrent", [True, False])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_per_page_driver(self, variant, recurrent):
        codec, config = briefs_codec(), VARIANTS[variant]
        params = random_params(config, codec, 3)
        docs = ragged_split(RAGGED, 4)
        traces = oracles.trace_pages(infer(params, docs, config,
                                                 codec, recurrent))
        expected = reference_traces(params, docs, config, codec, recurrent)
        assert [doc_id for doc_id, _ in traces] == [d.doc_id for d in docs]
        seen = set()
        for (_, pages), ref in zip(traces, expected):
            assert len(pages) == len(ref)
            for page, (scores, labels, context) in zip(pages, ref):
                np.testing.assert_allclose(page.scores, scores, rtol=0, atol=1e-12)
                assert page.labels == labels
                assert page.context is context or page.context == context
                seen |= labels
        assert len(seen) > 1  # the split exercises more than one context

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_no_lookahead(self, variant):
        """Editing page t+1 leaves every page <= t of that document unchanged."""
        codec, config = briefs_codec(), VARIANTS[variant]
        params = random_params(config, codec, 7)
        docs = ragged_split(RAGGED, 6)
        (_, before), *_ = oracles.trace_pages(
            infer(params, docs, config, codec, True))
        t = 2
        pages = [(p.text, 0) for p in docs[0].pages]
        pages[t + 1] = ("signed signed appellant page of", 0)
        edited = [make_doc("d0", pages)] + docs[1:]
        (_, after), *_ = oracles.trace_pages(
            infer(params, edited, config, codec, True))
        for p_before, p_after in zip(before[:t + 1], after):
            np.testing.assert_array_equal(p_before.scores, p_after.scores)
            assert p_before.labels == p_after.labels
        assert not np.array_equal(before[t + 1].scores, after[t + 1].scores)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_documents_independent_of_split(self, variant):
        codec, config = briefs_codec(), VARIANTS[variant]
        params = random_params(config, codec, 3)
        docs = ragged_split(RAGGED, 8)
        together = oracles.trace_pages(infer(params, docs, config,
                                                   codec, True))
        subset = oracles.trace_pages(infer(params, docs[1::3],
                                                 config, codec, True))
        for (_, alone), (_, pages) in zip(subset, together[1::3]):
            assert [p.labels for p in alone] == [p.labels for p in pages]
            assert [p.context for p in alone] == [p.context for p in pages]
        for doc, (_, pages) in zip(docs[:4], together):
            alone = infer_document(params, doc, config, codec)
            assert [p.labels for p in alone] == [p.labels for p in pages]
            for pa, pt in zip(alone, pages):
                np.testing.assert_allclose(pa.scores, pt.scores, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant, lengths, rows", [
        ("linear", (7, 3, 1), [3, 2, 2, 1, 1, 1, 1]),
        ("linear", (1,) * 40, [40]),
        ("tiny-transformer", (7, 3, 1), [3, 2, 2, 1, 1, 1, 1]),
        ("tiny-transformer", (1,) * 40, [40]),
    ])
    def test_forward_batch_calls(self, monkeypatch, variant, lengths, rows):
        """Calls per page position: the tiny transformer's of at most 640
        padded tokens (40 rows of at most 10 tokens are one block), the
        linear bag's of at most 256 rows."""
        calls = count_forward_batch_rows(monkeypatch)
        codec, config = briefs_codec(), VARIANTS[variant]
        params = init_params(config, codec)
        infer(params, ragged_split(lengths, 9), config, codec,
                    recurrent=True)
        assert calls == rows

    @pytest.mark.parametrize("variant, rows", [
        ("linear", [56]), ("tiny-transformer", [56])])
    def test_oblivious_scores_pages_in_blocks(self, monkeypatch, variant, rows):
        """56 pages of at most 10 tokens: one block of either variant."""
        calls = count_forward_batch_rows(monkeypatch)
        codec, config = briefs_codec(), VARIANTS[variant]
        params = init_params(config, codec)
        infer(params, ragged_split(RAGGED, 10), config, codec,
                    recurrent=False)
        assert calls == rows

    def test_linear_bag_blocks_of_256_rows(self, monkeypatch):
        """A split of more pages than one linear call takes is scored in
        calls of 256 length-sorted rows, to the scores one call over every
        row gives."""
        calls = count_forward_batch_rows(monkeypatch)
        codec, config = briefs_codec(), VARIANTS["linear"]
        params = random_params(config, codec, 5)
        split = encode(ragged_split((1,) * 600, 11), codec, config.max_len)
        trace = infer_split(params, split, config, recurrent=False)
        assert calls == [256, 256, 88]
        ids = augment_input(split.text, split.lengths, None, config.max_len)
        np.testing.assert_array_equal(trace.scores,
                                      encoder.forward_batch(params, ids, config))

    def test_empty_split(self):
        codec, config = briefs_codec(), VARIANTS["linear"]
        params = init_params(config, codec)
        trace = infer(params, [], config, codec, True)
        assert trace.docs.doc_ids == () and trace.scores.shape == (0, BRIEFS.n)


def assert_matches_per_page_driver(trace, params, docs, config, codec, recurrent):
    """The trace of ``docs`` holds the per-page reference driver's scores
    (to 1e-12), decisions and contexts."""
    expected = reference_traces(params, docs, config, codec, recurrent)
    for (_, pages), ref in zip(oracles.trace_pages(trace), expected, strict=True):
        for page, (scores, labels, context) in zip(pages, ref, strict=True):
            np.testing.assert_allclose(page.scores, scores, rtol=0, atol=1e-12)
            assert page.labels == labels
            assert page.context is context or page.context == context


def long_split(sizes, words, seed):
    """Documents of ``sizes`` pages, each page ``words`` words long."""
    rng = np.random.default_rng(seed)
    return [make_doc(f"d{i}", [(" ".join(rng.choice(WORDS, size=words)),
                                int(rng.integers(0, 3))) for _ in range(n)])
            for i, n in enumerate(sizes)]


class TestBlockPlan:
    """The tiny transformer scores each page position's rows in blocks of
    length-sorted rows bounded by padded tokens (``block_bounds``)."""

    @given(st.lists(st.integers(1, 64), max_size=200).map(sorted),
           st.integers(1, 2048))
    def test_blocks_are_the_longest_runs_within_the_budget(self, widths, budget):
        bounds = block_bounds(widths, budget)
        # every row in exactly one block, blocks in the order of the rows
        assert bounds[0] == 0 and bounds[-1] == len(widths)
        assert all(start < end for start, end in zip(bounds, bounds[1:]))
        for start, end in zip(bounds, bounds[1:]):
            rows = end - start
            assert rows * max(widths[start:end]) <= budget or rows == 1
            # one more row would exceed the budget
            assert end == len(widths) or (rows + 1) * widths[end] > budget

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 5), max_size=10), st.integers(0, 2**32 - 1),
           st.integers(1, 80), st.booleans())
    def test_each_page_scored_once_in_planned_blocks(self, sizes, seed, budget,
                                                     recurrent):
        """Whatever the budget: every call holds length-sorted rows within
        it (or one row), the calls of a page position follow one another in
        length order, their rows add up to the split's pages, and the trace
        is the per-page driver's."""
        codec, config = briefs_codec(), VARIANTS["tiny-transformer"]
        params = random_params(config, codec, 3)
        docs = ragged_split(sizes, seed)
        calls = []
        real = encoder.forward_batch

        def recording(params, ids, config, *pool):
            calls.append(row_lengths(ids))
            return real(params, ids, config, *pool)

        with mock.patch.object(recurrence, "_BLOCK_TOKENS", budget), \
                mock.patch.object(encoder, "forward_batch", recording):
            trace = infer(params, docs, config, codec, recurrent)
        assert sum(map(len, calls)) == sum(sizes)
        for widths in calls:
            assert (np.diff(widths) >= 0).all()
            assert len(widths) * widths.max() <= budget or len(widths) == 1
        # the rows of one page position: calls until their rows add up
        positions = ([sum(n > t for n in sizes) for t in range(max(sizes, default=0))]
                     if recurrent else [sum(sizes)] * bool(sizes))
        for count in positions:
            scored = []
            while len(scored) < count:
                scored.extend(calls.pop(0).tolist())
            assert len(scored) == count and scored == sorted(scored)
        assert_matches_per_page_driver(trace, params, docs, config, codec, recurrent)

    @pytest.mark.parametrize("recurrent", [True, False])
    def test_pages_wider_than_the_budget(self, monkeypatch, recurrent):
        """Pages of more tokens than the budget holds are each a block of
        their own, scored as the per-page driver scores them."""
        calls = count_forward_batch_rows(monkeypatch)
        codec = briefs_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=recurrence._BLOCK_TOKENS + 60,
                               init_seed=4)
        params = random_params(config, codec, 5)
        docs = long_split((2, 1, 1), config.max_len, 6)
        trace = infer(params, docs, config, codec, recurrent)
        assert calls == [1] * 4
        assert_matches_per_page_driver(trace, params, docs, config, codec, recurrent)

    @pytest.mark.parametrize("recurrent", [True, False])
    def test_pool_holds_one_budget_sized_block(self, recurrent):
        """After a split of max_len-wide pages, the work pool is no larger
        than the pool of one block of as many max_len-wide rows as the
        budget holds: the pool is bounded by the budget, not the split."""
        codec = briefs_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=2,
                               n_heads=2, max_len=40, init_seed=1)
        params = init_params(config, codec)
        split = encode(long_split((1, 3, 2) * 12, 50, 7), codec, config.max_len)
        pool = encoder.Scratch()
        infer_split(params, split, config, recurrent, scratch=pool)
        rows = recurrence._BLOCK_TOKENS // config.max_len
        ids = augment_input(split.text[:rows], split.lengths[:rows], None,
                            config.max_len)
        assert ids.shape == (rows, config.max_len) and len(split.text) > rows
        block = encoder.Scratch()
        encoder.forward_batch(params, ids, config, block)
        assert 0 < pool.nbytes <= block.nbytes


# class names that JSON must escape, or that hold the "], [" between rows of
# a JSON matrix
CLASS_NAMES = st.one_of(st.sampled_from(['"', "\\", "], [", '"], ["', "a\\b"]),
                        st.text(min_size=1, max_size=4)).filter(
                            lambda s: s != FIRST_PAGE_TOKEN)
SCORES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                                    -1e308]))


@st.composite
def split_traces(draw):
    """A trace of up to 4 unicode-named documents, of a class vocabulary of
    either label mode, fed first-page and class contexts or none."""
    names = draw(st.lists(CLASS_NAMES, min_size=2, max_size=4, unique=True))
    vocab = TypeVocabulary(tuple(names), draw(st.sampled_from([MULTICLASS,
                                                                MULTILABEL])))
    n = vocab.n
    doc_ids = draw(st.lists(UNICODE_TEXT, max_size=4, unique=True))
    sizes = draw(st.lists(st.integers(1, 4), min_size=len(doc_ids),
                          max_size=len(doc_ids)))
    trace = SplitTrace.blank(oracles.documents(vocab, doc_ids, sizes))
    fed = draw(st.booleans())
    trace.context[trace.docs.offsets[:-1], 0] = fed
    pages = len(trace.scores)
    trace.scores[:] = np.reshape(draw(st.lists(SCORES, min_size=pages * n,
                                               max_size=pages * n)), (pages, n))
    label_sets = st.sets(st.integers(0, n - 1), min_size=1,
                         max_size=1 if vocab.label_mode == MULTICLASS else n)
    for r in range(pages):
        trace.labels[r, sorted(draw(label_sets))] = True
        if fed and not trace.context[r, 0]:
            trace.context[r, [1 + c for c in sorted(draw(label_sets))]] = True
    return trace


def unicode_example():
    """Doc ids with line breaks other than "\\n", an astral character and the
    empty string, and scores at the edges of the float range."""
    trace = SplitTrace.blank(oracles.documents(
        BRIEFS, ["\u2028", "d\x85", "\U0001F600", ""], [1, 2, 1, 1]))
    trace.scores[:] = [-0.0, 5e-324, -1e308]
    trace.labels[:, 1] = True
    trace.context[trace.docs.offsets[:-1], 0] = True
    trace.context[~trace.context[:, 0], 2] = True
    return trace


UNKNOWN = "no such class"
TRACE_WRONG_TYPE = {"doc_id": [7, None, ["d"]], "labels": ["x", None, {}],
                    "context": ["x", 5, {}], "scores": ["x", None, {}]}


def add_trace_fault(pages: list, vocab, fed: bool, draw) -> None:
    """Put one drawn fault into a drawn page of a trace's page objects, in
    place; the page becomes a line that does not parse, or that is no
    object, or an object holding the fault; or the pages of its document
    are renamed to a document of no other page, dropped, or made one more
    or one fewer."""
    faults = ["json", "object", "missing", "type", "score-type", "score-count",
              "not-finite", "score-huge", "label-type", "label-unknown",
              "label-count", "duplicate", "index", "doc-unknown", "doc-missing",
              "page-count"]
    if fed:
        faults += ["context-type", "context-unknown", "context-empty"]
    if len(pages) > 1:
        faults.append("fed")
    if fed:
        faults.append("context-marker")
        if vocab.label_mode == MULTICLASS:
            faults.append("context-count")
    fault = draw(st.sampled_from(faults))
    i = draw(st.integers(0, len(pages) - 1))
    page = pages[i]
    own = [j for j, other in enumerate(pages) if other["doc_id"] == page["doc_id"]]
    if fault == "doc-unknown":      # longer than any doc id, so no document's
        name = "?" * (1 + max(len(other["doc_id"]) for other in pages))
        for j in own:
            pages[j]["doc_id"] = name
    elif fault == "doc-missing":
        del pages[own[0]:own[-1] + 1]
    elif fault == "page-count" and (len(own) == 1 or draw(st.booleans())):
        pages.insert(own[-1] + 1, dict(pages[own[-1]], page_index=len(own)))
    elif fault == "page-count":
        del pages[own[-1]]
    if fault.startswith(("doc-", "page-")):
        return
    labels, scores, context = page["labels"], page["scores"], page["context"]
    if fault == "json":
        line = json.dumps(page)
        page = line[:draw(st.integers(1, len(line) - 1))]
    elif fault == "object":
        page = draw(st.sampled_from(["3", "null", "true", "[1, 2]", '"doc_id"']))
    elif fault == "missing":
        del page[draw(st.sampled_from(sorted(page)))]
    elif fault == "type":
        key = draw(st.sampled_from(sorted(TRACE_WRONG_TYPE)))
        page[key] = draw(st.sampled_from(TRACE_WRONG_TYPE[key]))
    elif fault == "score-type":
        scores[draw(st.integers(0, len(scores) - 1))] = draw(
            st.sampled_from(["1.5", True, None, [1.0]]))
    elif fault == "score-count":
        page["scores"] = scores[:-1] if draw(st.booleans()) else scores + [0.5]
    elif fault == "not-finite":
        scores[draw(st.integers(0, len(scores) - 1))] = draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    elif fault == "score-huge":             # an int no float can hold
        scores[draw(st.integers(0, len(scores) - 1))] = draw(
            st.sampled_from([10**400, -(10**309)]))
    elif fault == "context-empty":
        page["context"] = []
    elif fault == "context-marker":         # the marker is only ever fed alone
        marked = [FIRST_PAGE_TOKEN, draw(st.sampled_from(vocab.class_names))]
        page["context"] = marked if draw(st.booleans()) else marked[::-1]
    elif fault == "context-count":          # more classes than a page has labels
        page["context"] = draw(st.lists(st.sampled_from(vocab.class_names),
                                        min_size=2, max_size=vocab.n, unique=True))
    elif fault in ("label-type", "label-unknown", "context-type", "context-unknown"):
        names = labels if fault.startswith("label") else context
        name = (UNKNOWN if fault.endswith("unknown")
                else draw(st.sampled_from([5, None, 1.5, [vocab.class_names[0]]])))
        names.insert(draw(st.integers(0, len(names))), name)
    elif fault == "label-count":
        page["labels"] = ([] if vocab.label_mode == MULTILABEL or draw(st.booleans())
                          else list(vocab.class_names[:2]))
    elif fault == "fed":
        page["context"] = None if fed else [vocab.class_names[0]]
    elif fault == "duplicate":
        pages.insert(i + 1, dict(page))
    elif fault == "index":
        page["page_index"] = draw(st.sampled_from(
            [-1, page["page_index"] + 1, 10**6, True, False, "0", 1.5, None]))
    pages[i] = page


# the faults a trace page line shows by itself, or against the lines before
# it: a context fed where they were fed none, or none where they were fed one
LINE_FAULTS = ("object", "missing", "unknown-key", "type", "index-type",
               "score-type", "score-count", "not-finite", "score-huge",
               "label-unknown", "label-count", "fed", "context-unknown")


def add_line_fault(pages: list, i: int, vocab, fed: bool, draw) -> None:
    """Put one drawn fault of ``LINE_FAULTS`` into page object ``i`` of a
    trace's page objects, in place; "context-unknown" only into a trace that
    was fed contexts."""
    page = dict(pages[i], labels=list(pages[i]["labels"]),
                scores=list(pages[i]["scores"]))
    fault = draw(st.sampled_from(LINE_FAULTS if fed else LINE_FAULTS[:-1]))
    score = draw(st.integers(0, len(page["scores"]) - 1))
    if fault == "object":
        page = draw(st.sampled_from(["3", "null", "[1, 2]", '"doc_id"']))
    elif fault == "missing":
        del page[draw(st.sampled_from(sorted(page)))]
    elif fault == "unknown-key":
        page[draw(st.sampled_from(["labelz", "Context", "score"]))] = []
    elif fault == "type":
        key = draw(st.sampled_from(sorted(TRACE_WRONG_TYPE)))
        page[key] = draw(st.sampled_from(TRACE_WRONG_TYPE[key]))
    elif fault == "index-type":
        page["page_index"] = draw(st.sampled_from([True, False, "0", 1.5, None]))
    elif fault == "score-type":
        page["scores"][score] = draw(st.sampled_from(["1.5", True, None, [1.0]]))
    elif fault == "score-count":
        page["scores"] += [0.5]
    elif fault == "not-finite":
        page["scores"][score] = draw(st.sampled_from([float("nan"), float("inf")]))
    elif fault == "score-huge":
        page["scores"][score] = 10**400
    elif fault == "label-unknown":
        page["labels"].insert(draw(st.integers(0, len(page["labels"]))), UNKNOWN)
    elif fault == "label-count":
        page["labels"] = []
    elif fault == "fed":
        page["context"] = None if fed else [vocab.class_names[0]]
    elif fault == "context-unknown":
        page["context"] = [UNKNOWN]
    pages[i] = page


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=5)
        params = init_params(config, codec)
        docs = [make_doc("d1", [("brief", 0), ("page", 1)]),
                make_doc("d2", [("signed", 2)])]
        trace = infer(params, docs, config, codec, recurrent=True)
        path = tmp_path / "traces.jsonl"
        write_traces(trace, path, provenance={"seed": 0})
        loaded = read_file(path, trace.docs)
        assert loaded.docs is trace.docs and loaded.context.any()
        for name in ("scores", "labels", "context"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(trace, name))

    @settings(max_examples=200)
    @given(split_traces())
    @example(unicode_example())
    def test_unicode_doc_ids_round_trip(self, trace):
        """A trace of any surrogate-free doc ids is read back against its
        documents with every page's scores (bit for bit), labels and
        context."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traces.jsonl"
            write_traces(trace, path, provenance={"doc_ids": trace.docs.doc_ids})
            back = read_file(path, trace.docs)
        assert back.scores.tobytes() == trace.scores.tobytes()
        for name in ("labels", "context"):
            np.testing.assert_array_equal(getattr(back, name), getattr(trace, name))

    @settings(max_examples=200)
    @given(split_traces(), st.integers(0, 2**32 - 1))
    @example(unicode_example(), 0)
    def test_writer_matches_per_page_oracle(self, trace, seed):
        """The columnar writer writes the per-page writer's bytes, and the
        reader gives the per-page reader's records, also from the file's page
        lines in any order."""
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "fast.jsonl", Path(tmp) / "ref.jsonl"
            write_traces(trace, path, provenance={"doc_ids": trace.docs.doc_ids})
            oracles.write_traces_per_page(trace, reference,
                                          provenance={"doc_ids": trace.docs.doc_ids})
            assert path.read_bytes() == reference.read_bytes()
            header, *lines = path.read_text().splitlines(keepends=True)
            order = np.random.default_rng(seed).permutation(len(lines))
            path.write_text(header + "".join(lines[i] for i in order))
            pages = oracles.trace_pages(read_file(path, trace.docs))
            expected = oracles.read_traces_per_page(path, trace.docs)
        assert [doc_id for doc_id, _ in pages] == [doc_id for doc_id, _ in expected]
        for (_, doc_pages), (_, ref_pages) in zip(pages, expected):
            assert [p[1:] for p in doc_pages] == [p[1:] for p in ref_pages]
            for page, ref in zip(doc_pages, ref_pages):
                assert page.scores.tobytes() == ref.scores.tobytes()

    def test_writer_matches_per_page_oracle_with_many_classes(self, tmp_path):
        """Label and context rows of 70 classes, more than one 64-bit code
        holds, are written as the per-page writer writes them."""
        vocab = TypeVocabulary(tuple(f"k{c}" for c in range(70)), MULTILABEL)
        rng = np.random.default_rng(0)
        trace = SplitTrace.blank(oracles.documents(vocab, ["a", "b"], [30, 30]))
        trace.labels[:] = rng.random((60, vocab.n)) < 0.05
        trace.labels[np.arange(60), rng.integers(64, 70, size=60)] = True
        trace.context[[0, 30], 0] = True
        trace.context[1:30, 1:] = trace.labels[:29]
        trace.context[31:, 1:] = trace.labels[30:59]
        ours, reference = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
        write_traces(trace, ours, provenance={"seed": 0})
        oracles.write_traces_per_page(trace, reference, provenance={"seed": 0})
        assert ours.read_bytes() == reference.read_bytes()

    @settings(max_examples=300)
    @given(split_traces().filter(lambda trace: len(trace.scores)), st.data())
    def test_single_fault_gets_the_per_page_oracles_error(self, trace, data):
        """A trace file with one fault raises the error, type and message,
        that the per-page reader raises for it."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            write_traces(trace, path, provenance={"seed": 0})
            header, *lines = path.read_text().splitlines()
            pages = [json.loads(line) for line in lines]
            add_trace_fault(pages, trace.docs.vocab, trace.context.any(), data.draw)
            path.write_text("".join(line + "\n" for line in [header] + [
                page if isinstance(page, str) else json.dumps(page)
                for page in pages]))
            with pytest.raises((ValueError, KeyError, TypeError)) as ours:
                read_file(path, trace.docs)
            with pytest.raises((ValueError, KeyError, TypeError)) as ref:
                oracles.read_traces_per_page(path, trace.docs)
        assert (type(ours.value), str(ours.value)) == (type(ref.value), str(ref.value))

    @settings(max_examples=300)
    @given(split_traces().filter(lambda trace: len(trace.scores) >= 3), st.data())
    def test_several_faults_get_the_first_lines_message(self, trace, data):
        """A trace file with faults in two or three page lines raises the
        error that the per-page reader raises: that of the first bad line in
        file order, named by its ``path:lineno``."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            write_traces(trace, path, provenance={"seed": 0})
            header, *lines = path.read_text().splitlines()
            pages = [json.loads(line) for line in lines]
            for i in data.draw(st.lists(st.integers(0, len(pages) - 1), min_size=2,
                                        max_size=3, unique=True)):
                add_line_fault(pages, i, trace.docs.vocab, trace.context.any(),
                               data.draw)
            path.write_text("".join(line + "\n" for line in [header] + [
                page if isinstance(page, str) else json.dumps(page)
                for page in pages]))
            with pytest.raises(ValueError) as ours:
                read_file(path, trace.docs)
            with pytest.raises(ValueError) as ref:
                oracles.read_traces_per_page(path, trace.docs)
        assert (type(ours.value), str(ours.value)) == (type(ref.value), str(ref.value))
        assert str(ours.value).startswith(f"{path}:")

    def test_header_records_the_trace_format(self, tmp_path):
        """A header names ``TRACE_FORMAT``; a header of another format or of
        none is refused, and so is a file of page lines with no header."""
        trace = unicode_example()
        path = tmp_path / "t.jsonl"
        write_traces(trace, path, provenance={"seed": 0})
        header, *pages = path.read_text().splitlines(keepends=True)
        assert json.loads(header) == {"format": TRACE_FORMAT, "provenance": {"seed": 0}}
        for edited in ({"provenance": {"seed": 0}},
                       {"format": "pageseq-trace/0", "provenance": {"seed": 0}}):
            path.write_text(json.dumps(edited) + "\n" + "".join(pages))
            with pytest.raises(ValueError, match=r"trace format .* re-run `infer`"):
                read_file(path, trace.docs)
        path.write_text("".join(pages))
        with pytest.raises(ValueError, match=r"trace format None .* re-run `infer`"):
            read_file(path, trace.docs)

    @pytest.mark.parametrize("edit, message", [
        ({"seed": 0}, "unknown field 'seed'"),
        ({"Format": TRACE_FORMAT}, "unknown field 'Format'; did you mean 'format'?"),
        ({"provenance": 0}, "field 'provenance' must be an object"),
        ({"provenance": [{"seed": 0}]}, "field 'provenance' must be an object"),
    ], ids=["extra", "misspelt", "provenance-int", "provenance-list"])
    def test_header_holds_only_format_and_provenance(self, tmp_path, edit, message):
        trace = unicode_example()
        path = tmp_path / "t.jsonl"
        write_traces(trace, path, provenance={"seed": 0})
        header, *pages = path.read_text().splitlines(keepends=True)
        path.write_text(json.dumps({**json.loads(header), **edit}) + "\n"
                        + "".join(pages))
        with pytest.raises(CorpusError) as raised:
            read_file(path, trace.docs)
        assert str(raised.value) == f"{path}:1: {message}"

    def test_first_page_context_serialized_as_reserved_token(self, tmp_path):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief", 0), ("page", 1)])
        trace = infer(params, [doc], config, codec, recurrent=True)
        path = tmp_path / "t.jsonl"
        write_traces(trace, path, provenance={"seed": 0})
        first_page = path.read_text().splitlines()[1]
        assert '"context": ["[-1]"]' in first_page
