"""Tests for context-token augmentation, teacher forcing, and sequential inference."""

import numpy as np
import pytest

import pageseq.encoder as encoder
from pageseq.corpus import MULTICLASS, DocumentSequence, PageRecord, TypeVocabulary
from pageseq.encoder import (
    EncoderConfig,
    TokenCodec,
    check_sequence,
    forward,
    init_params,
    predict,
)
from pageseq.recurrence import (
    FIRST_PAGE,
    augment_input,
    build_plain_batches,
    build_teacher_forced_batches,
    infer_split,
    page_examples,
    read_traces,
    write_traces,
)

BRIEFS = TypeVocabulary(("Caption", "Body", "Signature"))


def briefs_codec():
    return TokenCodec(BRIEFS, ("brief", "of", "appellant", "signed", "page"))


def make_doc(doc_id, texts_and_labels):
    pages = tuple(
        PageRecord(doc_id, i, text, frozenset(lab if isinstance(lab, set) else {lab}))
        for i, (text, lab) in enumerate(texts_and_labels)
    )
    return DocumentSequence(doc_id, pages)


def infer_document(params, doc, config, codec, label_mode):
    (trace,) = infer_split(params, [doc], config, codec, label_mode, recurrent=True)
    return trace


def infer_context_oblivious(params, doc, config, codec, label_mode):
    (trace,) = infer_split(params, [doc], config, codec, label_mode, recurrent=False)
    return trace


def reference_traces(params, docs, config, codec, label_mode, recurrent):
    """Per-page reference driver: augment -> forward -> predict, one page at a
    time, each document on its own.  (scores, labels, context) per page."""
    out = []
    for doc in docs:
        context = FIRST_PAGE if recurrent else None
        pages = []
        for page in doc.pages:
            seq = augment_input(context, page.text, codec, config.max_len)
            scores = forward(params, seq, config)
            labels = predict(scores, label_mode)
            pages.append((scores, labels, context))
            if recurrent:
                context = labels
        out.append(pages)
    return out


def count_forward_batch_rows(monkeypatch):
    """Record the row count of every encoder.forward_batch call."""
    rows = []
    real = encoder.forward_batch

    def counting(params, sequences, config):
        rows.append(len(sequences))
        return real(params, sequences, config)

    monkeypatch.setattr(encoder, "forward_batch", counting)
    return rows


class TestAugmentInput:
    def test_first_page_gets_reserved_token(self):
        codec = briefs_codec()
        seq = augment_input(FIRST_PAGE, "brief of appellant", codec, max_len=10)
        assert codec.decode(seq.ids) == ["[CLS]", "[-1]", "brief", "of", "appellant"]

    def test_previous_class_token_prepended(self):
        codec = briefs_codec()
        seq = augment_input(frozenset({0}), "brief of appellant", codec, max_len=10)
        assert codec.decode(seq.ids) == \
            ["[CLS]", "[type_Caption]", "brief", "of", "appellant"]

    def test_multilabel_context_two_tokens_ascending(self):
        vocab = TypeVocabulary(tuple(f"K{i}" for i in range(6)), "multilabel")
        codec = TokenCodec(vocab, ("word",))
        seq = augment_input(frozenset({5, 2}), "word word", codec, max_len=12)
        decoded = codec.decode(seq.ids)
        assert decoded[:3] == ["[CLS]", "[type_K2]", "[type_K5]"]
        assert decoded[3:] == ["word", "word"]

    def test_oblivious_input_has_no_context_tokens(self):
        codec = briefs_codec()
        seq = augment_input(None, "brief of", codec, max_len=10)
        assert codec.decode(seq.ids) == ["[CLS]", "brief", "of"]

    def test_text_truncated_from_right_specials_survive(self):
        codec = briefs_codec()
        text = " ".join(["page"] * 50)
        seq = augment_input(frozenset({0, 1}), text, codec, max_len=6)
        decoded = codec.decode(seq.ids)
        assert seq.length == 6
        assert decoded == ["[CLS]", "[type_Caption]", "[type_Body]",
                           "page", "page", "page"]
        check_sequence(seq, codec)

    def test_unknown_text_tokens_become_unk(self):
        codec = briefs_codec()
        seq = augment_input(FIRST_PAGE, "zzz brief", codec, max_len=8)
        assert codec.decode(seq.ids) == ["[CLS]", "[-1]", "[UNK]", "brief"]

    def test_empty_context_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            augment_input(frozenset(), "x", briefs_codec(), max_len=8)


class TestTeacherForcedBatches:
    def test_contexts_are_previous_gold_labels(self):
        """Doc with gold A,B -> examples (FIRST_PAGE, A), ({A}, B)."""
        codec = briefs_codec()
        doc = make_doc("d", [("brief", 0), ("signed", 1)])
        examples = page_examples([doc], True, codec, max_len=8)
        assert len(examples) == 2
        seq0, gold0 = examples[0]
        assert codec.decode(seq0.ids)[1] == "[-1]"
        assert gold0 == frozenset({0})
        seq1, gold1 = examples[1]
        assert codec.decode(seq1.ids)[1] == "[type_Caption]"
        assert gold1 == frozenset({1})

    def test_batch_sizes(self):
        """100 pages at batch_size 32 -> batches of 32,32,32,4."""
        codec = briefs_codec()
        docs = [make_doc(f"d{i}", [("page", 0)] * 10) for i in range(10)]
        batches = build_teacher_forced_batches(docs, 32, codec, 8,
                                               np.random.default_rng(0))
        assert [len(b) for b in batches] == [32, 32, 32, 4]

    def test_contexts_depend_only_on_gold(self):
        """Scan of batch construction inputs: every context token equals the
        gold of the previous page, independent of any model."""
        codec = briefs_codec()
        rng = np.random.default_rng(5)
        docs = [
            make_doc(f"d{i}", [("page", int(c)) for c in rng.integers(0, 3, size=6)])
            for i in range(4)
        ]
        examples = page_examples(docs, True, codec, max_len=8)
        idx = 0
        for doc in docs:
            for t in range(len(doc.pages)):
                seq, gold = examples[idx]
                decoded = codec.decode(seq.ids)
                if t == 0:
                    assert decoded[1] == "[-1]"
                else:
                    prev_gold = next(iter(doc.pages[t - 1].gold_labels))
                    assert decoded[1] == BRIEFS.special_token(prev_gold)
                assert gold == doc.pages[t].gold_labels
                idx += 1

    def test_shuffle_is_seeded(self):
        codec = briefs_codec()
        docs = [make_doc(f"d{i}", [("page", 0)] * 5) for i in range(6)]
        b1 = build_teacher_forced_batches(docs, 4, codec, 8, np.random.default_rng(3))
        b2 = build_teacher_forced_batches(docs, 4, codec, 8, np.random.default_rng(3))
        for x, y in zip(b1, b2):
            for (sx, gx), (sy, gy) in zip(x, y):
                np.testing.assert_array_equal(sx.ids, sy.ids)
                assert gx == gy

    def test_plain_batches_carry_no_context_tokens(self):
        codec = briefs_codec()
        docs = [make_doc("d", [("brief", 0), ("page", 1)])]
        (batch,) = build_plain_batches(docs, 8, codec, 8)
        assert len(batch) == 2
        for seq, _ in batch:
            decoded = codec.decode(seq.ids)
            assert decoded[0] == "[CLS]"
            assert not any(t.startswith("[type_") or t == "[-1]"
                           for t in decoded)


def stub_params(codec, config):
    """Linear model that ignores text and maps context -> fixed next class:
    FIRST_PAGE -> Caption, Caption -> Body, Body -> Caption."""
    params = init_params(config, codec)
    for name in params:
        params[name][:] = 0.0
    params["head_w"] = np.eye(3)
    params["emb"][3] = np.array([1.0, 0.0, 0.0])                    # FIRST -> Caption
    params["emb"][codec.class_token_id(0)] = np.array([0.0, 1.0, 0.0])  # Caption -> Body
    params["emb"][codec.class_token_id(1)] = np.array([1.0, 0.0, 0.0])  # Body -> Caption
    return params


class TestInferDocument:
    def test_single_page_uses_first_page_context(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=3, max_len=8)
        params = stub_params(codec, config)
        doc = make_doc("d", [("brief", 0)])
        trace = infer_document(params, doc, config, codec, MULTICLASS)
        assert len(trace) == 1
        assert trace.pages[0].context is FIRST_PAGE
        assert trace.pages[0].labels == frozenset({0})

    def test_stub_model_alternates(self):
        """Hand simulation: context A->B, B->A, FIRST->A gives A,B,A,B,..."""
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=3, max_len=8)
        params = stub_params(codec, config)
        doc = make_doc("d", [("page", 0)] * 6)
        trace = infer_document(params, doc, config, codec, MULTICLASS)
        assert [next(iter(p.labels)) for p in trace.pages] == [0, 1, 0, 1, 0, 1]

    def test_trace_contexts_chain_decisions(self):
        """Invariant: context at t>1 equals decided labels at t-1."""
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=1)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of", 0), ("page", 1), ("signed", 2)])
        trace = infer_document(params, doc, config, codec, MULTICLASS)
        assert trace.pages[0].context is FIRST_PAGE
        for t in range(1, len(trace)):
            assert trace.pages[t].context == trace.pages[t - 1].labels

    def test_matches_manual_sequential_driver(self):
        """Independent driver: augment + forward + predict, page after page."""
        codec = briefs_codec()
        config = EncoderConfig(variant="tiny-transformer", d=8, n_layers=1,
                               n_heads=2, max_len=10, init_seed=9)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of appellant", 0), ("page page", 1),
                             ("signed", 2), ("of brief", 1), ("appellant", 0)])
        trace = infer_document(params, doc, config, codec, MULTICLASS)

        context = FIRST_PAGE
        for t, page in enumerate(doc.pages):
            seq = augment_input(context, page.text, codec, config.max_len)
            scores = forward(params, seq, config)
            labels = predict(scores, MULTICLASS)
            np.testing.assert_array_equal(trace.pages[t].scores, scores)
            assert trace.pages[t].labels == labels
            context = labels

    def test_one_forward_call_per_page(self, monkeypatch):
        """A lone document decodes one one-row encoder call per page."""
        rows = count_forward_batch_rows(monkeypatch)
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        params = init_params(config, codec)
        doc = make_doc("d", [("page", 0)] * 7)
        infer_document(params, doc, config, codec, MULTICLASS)
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
            params["emb"][codec.text_token_id(tok)] = 10.0 * np.eye(3)[i]
        doc = make_doc("d", [("ta", 0), ("tb", 1), ("tb", 1), ("tc", 2)])
        trace = infer_document(params, doc, config, codec, MULTICLASS)
        assert [p.labels for p in trace.pages] == \
            [page.gold_labels for page in doc.pages]
        assert trace.pages[0].context is FIRST_PAGE
        for t in range(1, len(doc.pages)):
            assert trace.pages[t].context == doc.pages[t - 1].gold_labels


class TestInferContextOblivious:
    def test_equals_per_page_forward(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=2)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of", 0), ("signed page", 1), ("of", 2)])
        trace = infer_context_oblivious(params, doc, config, codec, MULTICLASS)
        for t, page in enumerate(doc.pages):
            seq = augment_input(None, page.text, codec, config.max_len)
            # one 3-row call against three 1-row calls: BLAS may round apart
            np.testing.assert_allclose(trace.pages[t].scores,
                                       forward(params, seq, config),
                                       rtol=0, atol=1e-12)
            assert trace.pages[t].context is None

    def test_permuting_pages_permutes_predictions(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=3)
        params = init_params(config, codec)
        texts = [("brief", 0), ("of appellant", 1), ("signed", 2), ("page of", 0)]
        doc = make_doc("d", texts)
        perm = [2, 0, 3, 1]
        doc_perm = make_doc("d", [texts[i] for i in perm])
        trace = infer_context_oblivious(params, doc, config, codec, MULTICLASS)
        trace_perm = infer_context_oblivious(params, doc_perm, config, codec,
                                             MULTICLASS)
        for new_pos, old_pos in enumerate(perm):
            np.testing.assert_array_equal(trace_perm.pages[new_pos].scores,
                                          trace.pages[old_pos].scores)

    def test_duplicate_pages_identical_predictions(self):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=4)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief of", 0), ("brief of", 0)])
        trace = infer_context_oblivious(params, doc, config, codec, MULTICLASS)
        np.testing.assert_array_equal(trace.pages[0].scores, trace.pages[1].scores)
        assert trace.pages[0].labels == trace.pages[1].labels


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
        traces = infer_split(params, docs, config, codec, MULTICLASS, recurrent)
        expected = reference_traces(params, docs, config, codec, MULTICLASS,
                                    recurrent)
        assert [t.doc_id for t in traces] == [d.doc_id for d in docs]
        decided = set()
        for trace, ref in zip(traces, expected):
            assert len(trace) == len(ref)
            for page, (scores, labels, context) in zip(trace.pages, ref):
                np.testing.assert_allclose(page.scores, scores, rtol=0, atol=1e-12)
                assert page.labels == labels
                assert page.context is context or page.context == context
                decided |= labels
        assert len(decided) > 1  # the split exercises more than one context

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_no_lookahead(self, variant):
        """Editing page t+1 leaves every page <= t of that document unchanged."""
        codec, config = briefs_codec(), VARIANTS[variant]
        params = random_params(config, codec, 7)
        docs = ragged_split(RAGGED, 6)
        before = infer_split(params, docs, config, codec, MULTICLASS, True)
        t = 2
        pages = [(p.text, 0) for p in docs[0].pages]
        pages[t + 1] = ("signed signed appellant page of", 0)
        edited = [make_doc("d0", pages)] + docs[1:]
        after = infer_split(params, edited, config, codec, MULTICLASS, True)
        for p_before, p_after in zip(before[0].pages[:t + 1], after[0].pages):
            np.testing.assert_array_equal(p_before.scores, p_after.scores)
            assert p_before.labels == p_after.labels
        assert not np.array_equal(before[0].pages[t + 1].scores,
                                  after[0].pages[t + 1].scores)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_documents_independent_of_split(self, variant):
        codec, config = briefs_codec(), VARIANTS[variant]
        params = random_params(config, codec, 3)
        docs = ragged_split(RAGGED, 8)
        together = infer_split(params, docs, config, codec, MULTICLASS, True)
        subset = infer_split(params, docs[1::3], config, codec, MULTICLASS, True)
        for alone, trace in zip(subset, together[1::3]):
            assert alone.labels() == trace.labels()
            assert [p.context for p in alone.pages] == \
                [p.context for p in trace.pages]
        for doc, trace in zip(docs[:4], together):
            (alone,) = infer_split(params, [doc], config, codec, MULTICLASS, True)
            assert alone.labels() == trace.labels()
            for pa, pt in zip(alone.pages, trace.pages):
                np.testing.assert_allclose(pa.scores, pt.scores, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lengths, rows", [
        ((7, 3, 1), [3, 2, 2, 1, 1, 1, 1]),
        ((1,) * 40, [32, 8]),
    ])
    def test_forward_batch_calls(self, monkeypatch, lengths, rows):
        """One call per page position, at most 32 rows per call."""
        calls = count_forward_batch_rows(monkeypatch)
        codec, config = briefs_codec(), VARIANTS["linear"]
        params = init_params(config, codec)
        infer_split(params, ragged_split(lengths, 9), config, codec, MULTICLASS,
                    recurrent=True)
        assert calls == rows

    def test_oblivious_scores_pages_in_blocks(self, monkeypatch):
        calls = count_forward_batch_rows(monkeypatch)
        codec, config = briefs_codec(), VARIANTS["linear"]
        params = init_params(config, codec)
        infer_split(params, ragged_split(RAGGED, 10), config, codec, MULTICLASS,
                    recurrent=False)
        assert calls == [32, 24]

    def test_empty_split(self):
        codec, config = briefs_codec(), VARIANTS["linear"]
        params = init_params(config, codec)
        assert infer_split(params, [], config, codec, MULTICLASS, True) == []


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=8, max_len=8, init_seed=5)
        params = init_params(config, codec)
        docs = [make_doc("d1", [("brief", 0), ("page", 1)]),
                make_doc("d2", [("signed", 2)])]
        traces = infer_split(params, docs, config, codec, MULTICLASS, recurrent=True)
        path = tmp_path / "traces.jsonl"
        write_traces(traces, path, BRIEFS, provenance={"seed": 0})
        loaded = read_traces(path, BRIEFS)
        assert [t.doc_id for t in loaded] == ["d1", "d2"]
        for orig, back in zip(traces, loaded):
            for po, pb in zip(orig.pages, back.pages):
                np.testing.assert_allclose(po.scores, pb.scores)
                assert po.labels == pb.labels
                assert (po.context is FIRST_PAGE) == (pb.context is FIRST_PAGE)
                if po.context is not FIRST_PAGE:
                    assert po.context == pb.context

    def test_first_page_context_serialized_as_reserved_token(self, tmp_path):
        codec = briefs_codec()
        config = EncoderConfig(variant="linear", d=4, max_len=8)
        params = init_params(config, codec)
        doc = make_doc("d", [("brief", 0), ("page", 1)])
        trace = infer_document(params, doc, config, codec, MULTICLASS)
        path = tmp_path / "t.jsonl"
        write_traces([trace], path, BRIEFS)
        first_line = path.read_text().splitlines()[0]
        assert '"context": ["[-1]"]' in first_line
