"""Previous-page type conditioning: input augmentation with special tokens,
teacher-forced training examples, and left-to-right inference where the
model feeds its own predictions forward.  A split is tokenized once
(``encode_split``); only the context tokens written before its text change.

Inference decodes every document of a split in lockstep: at page position t
it scores page t of each document that has one, conditioned on that
document's own decision at t-1.  No page's input depends on a later page
(no lookahead) or on another document.  Its result is one ``SplitTrace``,
whose arrays go to the trace file and come back from it unchanged.

The exposure gap is structural: training examples carry the gold labels of
the previous page, inference traces carry the model's decided labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoder
from .corpus import (MULTICLASS, DocumentSequence, TypeVocabulary, doc_offsets,
                     gold_labels)
from .encoder import CLS_ID, FIRST_ID, PAD_ID, EncoderConfig, TokenCodec, predict
from .features import tokenize


@dataclass(eq=False)
class SplitTrace:
    """The predictions for one split, one row per page in document order:
    document ``doc_ids[i]`` owns rows ``offsets[i]:offsets[i + 1]``.

    ``scores`` are the model's (pages x n) scores and ``labels`` its decided
    classes as a 0/1 indicator.  If ``fed``, each page was fed the first-page
    marker (``first``) or the classes of its ``context`` row; otherwise no
    context was fed and both are all False.
    """

    doc_ids: list
    offsets: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    first: np.ndarray
    context: np.ndarray
    fed: bool

    @classmethod
    def blank(cls, doc_ids: Sequence, offsets: np.ndarray, n: int,
              fed: bool) -> "SplitTrace":
        """Zero scores and no decisions, to be filled in place; if ``fed``,
        the first page of each document is marked as such."""
        pages = int(offsets[-1])
        first = np.zeros(pages, dtype=bool)
        first[offsets[:-1]] = fed
        return cls(list(doc_ids), offsets, np.zeros((pages, n)),
                   np.zeros((pages, n), dtype=bool), first,
                   np.zeros((pages, n), dtype=bool), fed)


@dataclass(eq=False)
class EncodedSplit:
    """The text ids of a split's pages in document order: ``text`` is (pages,
    max_len - 1), PAD-padded, ``lengths`` each row's text length, and
    document i owns rows ``offsets[i]:offsets[i + 1]``."""

    text: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray


def page_tokens(docs: Sequence[DocumentSequence]) -> list[list[str]]:
    """The tokens of every page of ``docs``, in document order."""
    return [tokenize(page.text) for doc in docs for page in doc.pages]


def encode_split(docs: Sequence[DocumentSequence], codec: TokenCodec,
                 max_len: int,
                 tokens: Sequence[list[str]] | None = None) -> EncodedSplit:
    """The text ids of every page of ``docs``; ``tokens`` is
    ``page_tokens(docs)`` when the caller already has it."""
    if tokens is None:
        tokens = page_tokens(docs)
    n_text = max_len - 1
    text = np.full((len(tokens), n_text), PAD_ID, dtype=np.int64)
    lengths = np.zeros(len(tokens), dtype=np.int64)
    for row, page in enumerate(tokens):
        ids = [codec.text_token_id(tok) for tok in page[:n_text]]
        text[row, :len(ids)] = ids
        lengths[row] = len(ids)
    return EncodedSplit(text=text, lengths=lengths, offsets=doc_offsets(docs))


def augment_input(text: np.ndarray, lengths: np.ndarray,
                  first: np.ndarray | None, context: np.ndarray | None,
                  codec: TokenCodec, max_len: int) -> np.ndarray:
    """[CLS] + context tokens + text, one row per page, PAD-padded to the
    longest row.

    ``text`` and ``lengths`` are rows of an ``EncodedSplit``.  ``first`` flags
    the rows fed the first-page marker and the (rows x n) indicator
    ``context`` the classes fed to the others; with both None no context
    tokens are added.  Context tokens are the first-page marker or the
    special tokens of the fed classes in ascending class order; they are
    never truncated.  Text is truncated from the right so that no row is
    longer than ``max_len``.
    """
    if context is None:
        marks = np.zeros((len(text), 0), dtype=bool)
    else:
        marks = np.column_stack([first, context])
        if not marks.any(axis=1).all():
            raise ValueError("previous-page context must be non-empty")
    tokens = np.array([FIRST_ID] + [codec.class_token_id(c)
                                    for c in range(codec.n_classes)])
    n_context = marks.sum(axis=1)
    if 1 + n_context.max(initial=0) > max_len:
        raise ValueError("max_len too small for CLS plus context tokens")
    full = 1 + n_context + np.minimum(lengths, max_len - 1 - n_context)
    width = int(full.max(initial=1))
    ids = np.full((len(marks), width), PAD_ID, dtype=np.int64)
    ids[:, 0] = CLS_ID
    for k in np.unique(n_context).tolist():
        rows = np.flatnonzero(n_context == k)
        if k:
            ids[rows, 1:1 + k] = tokens[np.nonzero(marks[rows])[1].reshape(-1, k)]
        ids[rows, 1 + k:] = text[rows, :width - 1 - k]
    return ids


def row_lengths(ids: np.ndarray) -> np.ndarray:
    """Token count of each row of an id matrix; PAD only pads on the right."""
    return np.count_nonzero(ids != PAD_ID, axis=1)


def page_examples(docs: Sequence[DocumentSequence], teacher_forced: bool,
                  codec: TokenCodec, max_len: int, encoded: EncodedSplit | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The input ids (pages x width) and targets of every page, in document
    order; ``encoded`` is ``encode_split(docs, codec, max_len)`` if known.

    With teacher forcing the context of page t>1 is the GOLD label set of
    page t-1 (never a model output); without it no context tokens are added.
    Targets are gold class indices (a multiclass codec) or a (pages x
    classes) 0/1 matrix (multilabel), as ``encoder.loss_and_grad`` takes them.
    """
    split = encoded or encode_split(docs, codec, max_len)
    gold = gold_labels(docs, codec.n_classes)
    first = context = None
    if teacher_forced:
        first = np.zeros(len(gold), dtype=bool)
        first[split.offsets[:-1]] = True
        context = np.roll(gold, 1, axis=0) & ~first[:, None]
    ids = augment_input(split.text, split.lengths, first, context, codec, max_len)
    if codec.type_vocab.label_mode == MULTICLASS:
        return ids, gold.argmax(axis=1)
    return ids, gold.astype(np.float64)


# Rows per encoder call.  Blocks of 32 length-sorted rows decoded faster than
# 8, 100, 400 or 1600 on the tiny transformer.
_BLOCK_ROWS = 32


def _score_rows(params: dict, split: EncodedSplit, rows: np.ndarray,
                first: np.ndarray | None, context: np.ndarray | None,
                config: EncoderConfig, codec: TokenCodec,
                scratch: encoder.Scratch, out: np.ndarray) -> None:
    """Score ``rows`` of ``split`` fed ``first`` and ``context`` into the same
    rows of ``out``, in length-sorted blocks of at most ``_BLOCK_ROWS`` so
    that a block pads little."""
    ids = augment_input(split.text[rows], split.lengths[rows], first, context,
                        codec, config.max_len)
    lengths = row_lengths(ids)
    order = np.argsort(lengths, kind="stable")
    for start in range(0, len(order), _BLOCK_ROWS):
        block = order[start:start + _BLOCK_ROWS]
        # looked up on the module at call time, so that a wrapper installed
        # on pageseq.encoder.forward_batch (perfbench's tracer) sees the call
        out[rows[block]] = encoder.forward_batch(
            params, ids[block, :lengths[block[-1]]], config, scratch)


def infer_split(params: dict, docs: Sequence[DocumentSequence],
                config: EncoderConfig, codec: TokenCodec, recurrent: bool,
                encoded: EncodedSplit | None = None,
                scratch: encoder.Scratch | None = None) -> SplitTrace:
    """The trace of ``docs``; ``encoded`` is ``encode_split(docs, ...)`` if
    known.  Every encoder call of the split shares ``scratch`` (a fresh pool
    if None).

    Recurrent: left to right in lockstep across documents; page t>1 is
    conditioned on the model's own decision for page t-1 of its document.
    Oblivious: every page scored from its own text, with no context tokens.
    """
    label_mode = codec.type_vocab.label_mode
    split = encoded or encode_split(docs, codec, config.max_len)
    if scratch is None:
        scratch = encoder.Scratch()
    trace = SplitTrace.blank([doc.doc_id for doc in docs], split.offsets,
                             codec.n_classes, recurrent)
    if not recurrent:
        _score_rows(params, split, np.arange(len(trace.scores)), None, None,
                    config, codec, scratch, trace.scores)
        trace.labels[:] = predict(trace.scores, label_mode)
        return trace
    starts, sizes = split.offsets[:-1], np.diff(split.offsets)
    for t in range(int(sizes.max(initial=0))):
        rows = starts[sizes > t] + t
        if t:
            trace.context[rows] = trace.labels[rows - 1]
        _score_rows(params, split, rows, trace.first[rows], trace.context[rows],
                    config, codec, scratch, trace.scores)
        trace.labels[rows] = predict(trace.scores[rows], label_mode)
    return trace


# ---------------------------------------------------------------------------
# Trace files: one JSONL line per page with scores, decision, and context fed
# ---------------------------------------------------------------------------


def _names_json(indicator: np.ndarray, names: Sequence[str]) -> list[str]:
    """The JSON list of the names of each row's set columns, in column order;
    each distinct row is encoded once."""
    distinct, inverse = np.unique(indicator, axis=0, return_inverse=True)
    strings = [json.dumps([names[c] for c in np.flatnonzero(row)])
               for row in distinct]
    return [strings[i] for i in inverse.ravel()]


def write_traces(trace: SplitTrace, path: Path | str, vocab: TypeVocabulary,
                 provenance: dict | None = None) -> None:
    lines = []
    if provenance is not None:
        lines.append(json.dumps({"provenance": provenance}, sort_keys=True))
    labels = _names_json(trace.labels, vocab.class_names)
    contexts = (_names_json(np.column_stack([trace.first, trace.context]),
                            (vocab.first_page_token, *vocab.class_names))
                if trace.fed else ["null"] * len(labels))
    # one encoding of the whole matrix, cut into rows: no number holds "], ["
    scores = (json.dumps(trace.scores.tolist())[2:-2].split("], [")
              if len(labels) else [])
    row = 0
    for doc_id, size in zip(trace.doc_ids, np.diff(trace.offsets).tolist()):
        doc = json.dumps(doc_id)
        for t in range(size):
            lines.append(f'{{"context": {contexts[row]}, "doc_id": {doc}, '
                         f'"labels": {labels[row]}, "page_index": {t}, '
                         f'"scores": [{scores[row]}]}}')
            row += 1
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _indicator(name_lists: Sequence, vocab: TypeVocabulary) -> np.ndarray:
    """The (len(name_lists) x n) 0/1 rows of lists of class names; each
    distinct list is looked up once."""
    distinct: dict[tuple, int] = {}
    keys = [distinct.setdefault(tuple(names), len(distinct)) for names in name_lists]
    table = np.zeros((len(distinct), vocab.n), dtype=bool)
    for names, key in distinct.items():
        table[key, [vocab.index(name) for name in names]] = True
    return table[keys]


def _page_name(obj: dict) -> str:
    return f"page {obj['page_index']} of {obj['doc_id']!r}"


def read_traces(path: Path | str, vocab: TypeVocabulary,
                text: str | None = None) -> SplitTrace:
    """The trace in a trace file; ``text`` is the file's contents if already
    read.  Documents come in order of first appearance, and their pages in
    ``page_index`` order, which must run 0..l-1."""
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    pages = [obj for obj in map(json.loads, filter(str.strip, text.split("\n")))
             if "doc_id" in obj or "provenance" not in obj]
    for obj in pages:
        if len(obj["scores"]) != vocab.n:
            raise ValueError(f"{_page_name(obj)} has {len(obj['scores'])} scores "
                             f"for {vocab.n} classes")
    scores = np.array([obj["scores"] for obj in pages],
                      dtype=np.float64).reshape(len(pages), vocab.n)
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if bad.size:
        raise ValueError(f"{_page_name(pages[bad[0]])} has a score that is not finite")
    labels = _indicator([obj["labels"] for obj in pages], vocab)
    counts = labels.sum(axis=1)
    limit = 1 if vocab.label_mode == MULTICLASS else vocab.n
    bad = np.flatnonzero((counts == 0) | (counts > limit))
    if bad.size:
        raise ValueError(f"{_page_name(pages[bad[0]])} has {counts[bad[0]]} labels "
                         f"in {vocab.label_mode} mode")
    contexts = [obj["context"] for obj in pages]
    fed = any(c is not None for c in contexts)
    if fed and any(c is None for c in contexts):
        raise ValueError("some pages were fed a context and some none")
    first = np.array([c == [vocab.first_page_token] for c in contexts], dtype=bool)
    context = _indicator([[] if c is None or f else c
                          for c, f in zip(contexts, first)], vocab)

    doc_rows: dict = {}
    doc = np.array([doc_rows.setdefault(obj["doc_id"], len(doc_rows))
                    for obj in pages], dtype=np.int64)
    # an index that cannot be a page's is -1, which no page expects
    index = np.array([i if type(i) is int and 0 <= i < len(pages) else -1
                      for i in (obj["page_index"] for obj in pages)], dtype=np.int64)
    sizes = np.bincount(doc, minlength=len(doc_rows))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    order = np.lexsort((index, doc))
    wrong = index[order] != np.arange(len(order)) - np.repeat(offsets[:-1], sizes)
    if wrong.any():
        doc_id = list(doc_rows)[doc[order[wrong.argmax()]]]
        raise ValueError(f"trace for {doc_id!r} has missing or duplicate pages")
    return SplitTrace(list(doc_rows), offsets, scores[order], labels[order],
                      first[order], context[order], fed)
