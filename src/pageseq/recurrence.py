"""Previous-page type conditioning: input augmentation with special tokens,
teacher-forced training examples, and left-to-right inference where the
model feeds its own predictions forward.  A split is tokenized once
(``encode_split``); only the context tokens written before its text change.

Inference decodes every document of a split in lockstep: at page position t
it scores page t of each document that has one, conditioned on that
document's own decision at t-1.  No page's input depends on a later page
(no lookahead) or on another document.

The exposure gap is structural: training examples carry the gold labels of
the previous page, inference traces carry the model's decided labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import encoder
from .corpus import MULTICLASS, DocumentSequence, TypeVocabulary
from .encoder import CLS_ID, FIRST_ID, PAD_ID, EncoderConfig, TokenCodec, predict
from .features import tokenize


class _FirstPage:
    """Sentinel context for the first page of a document."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FIRST_PAGE"


FIRST_PAGE = _FirstPage()

# FIRST_PAGE, a set of previous-page classes, or None for context-oblivious input
Context = Union[_FirstPage, frozenset, None]


@dataclass(eq=False)
class PagePrediction:
    scores: np.ndarray
    labels: frozenset[int]
    context: Context


@dataclass(eq=False)
class PredictionTrace:
    doc_id: str
    pages: list[PagePrediction]

    def __len__(self) -> int:
        return len(self.pages)

    def labels(self) -> list[frozenset[int]]:
        return [p.labels for p in self.pages]


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
    offsets = np.cumsum([0] + [len(doc) for doc in docs])
    return EncodedSplit(text=text, lengths=lengths, offsets=offsets)


def _context_ids(context: Context, codec: TokenCodec) -> list[int]:
    if context is None:
        return []
    if context is FIRST_PAGE:
        return [FIRST_ID]
    if not context:
        raise ValueError("previous-page context must be non-empty")
    return [codec.class_token_id(c) for c in sorted(context)]


def augment_input(text: np.ndarray, lengths: np.ndarray,
                  contexts: Sequence[Context], codec: TokenCodec,
                  max_len: int) -> np.ndarray:
    """[CLS] + context tokens + text, one row per page, PAD-padded to the
    longest row.

    ``text`` and ``lengths`` are rows of an ``EncodedSplit``; ``contexts``
    holds one context per row.  Context tokens are the first-page marker or
    the special tokens of the previous page's classes in ascending class
    order; they are never truncated.  Text is truncated from the right so
    that no row is longer than ``max_len``.
    """
    heads = [_context_ids(context, codec) for context in contexts]
    n_context = np.array([len(head) for head in heads], dtype=np.int64)
    if 1 + n_context.max(initial=0) > max_len:
        raise ValueError("max_len too small for CLS plus context tokens")
    full = 1 + n_context + np.minimum(lengths, max_len - 1 - n_context)
    width = int(full.max(initial=1))
    ids = np.full((len(heads), width), PAD_ID, dtype=np.int64)
    ids[:, 0] = CLS_ID
    for k in np.unique(n_context).tolist():
        rows = np.flatnonzero(n_context == k)
        if k:
            ids[rows, 1:1 + k] = [heads[r] for r in rows]
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
    contexts = [(doc.pages[t - 1].gold_labels if t else FIRST_PAGE)
                if teacher_forced else None
                for doc in docs for t in range(len(doc))]
    ids = augment_input(split.text, split.lengths, contexts, codec, max_len)
    golds = [page.gold_labels for doc in docs for page in doc.pages]
    if codec.type_vocab.label_mode == MULTICLASS:
        return ids, np.array([next(iter(gold)) for gold in golds], dtype=np.int64)
    targets = np.zeros((len(golds), codec.n_classes))
    for row, gold in enumerate(golds):
        targets[row, list(gold)] = 1.0
    return ids, targets


# Rows per encoder call.  Blocks of 32 length-sorted rows decoded faster than
# 8, 100, 400 or 1600 on the tiny transformer.
_BLOCK_ROWS = 32


def _score_rows(params: dict, split: EncodedSplit, rows: np.ndarray,
                contexts: Sequence[Context], config: EncoderConfig,
                codec: TokenCodec, scratch: encoder.Scratch) -> np.ndarray:
    """Scores of ``rows`` of ``split`` fed ``contexts``, in length-sorted
    blocks of at most ``_BLOCK_ROWS`` so that a block pads little."""
    ids = augment_input(split.text[rows], split.lengths[rows], contexts, codec,
                        config.max_len)
    lengths = row_lengths(ids)
    order = np.argsort(lengths, kind="stable")
    scores = np.empty((len(rows), params["head_b"].shape[0]))
    for start in range(0, len(order), _BLOCK_ROWS):
        block = order[start:start + _BLOCK_ROWS]
        # looked up on the module at call time, so that a wrapper installed
        # on pageseq.encoder.forward_batch (perfbench's tracer) sees the call
        scores[block] = encoder.forward_batch(
            params, ids[block, :lengths[block[-1]]], config, scratch)
    return scores


def infer_split(params: dict, docs: Sequence[DocumentSequence],
                config: EncoderConfig, codec: TokenCodec, recurrent: bool,
                encoded: EncodedSplit | None = None,
                scratch: encoder.Scratch | None = None) -> list[PredictionTrace]:
    """One trace per document; ``encoded`` is ``encode_split(docs, ...)`` if
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
    pages: list[list] = [[None] * len(doc) for doc in docs]
    if recurrent:
        sizes = np.diff(split.offsets)
        contexts: list[Context] = [FIRST_PAGE] * len(docs)
        for t in range(int(sizes.max(initial=0))):
            active = np.flatnonzero(sizes > t)
            fed = [contexts[i] for i in active]
            scores = _score_rows(params, split, split.offsets[active] + t, fed,
                                 config, codec, scratch)
            for i, context, row in zip(active.tolist(), fed, scores):
                labels = predict(row, label_mode)
                pages[i][t] = PagePrediction(scores=row, labels=labels,
                                             context=context)
                contexts[i] = labels
    else:
        where = [(i, t) for i, doc in enumerate(docs) for t in range(len(doc))]
        scores = _score_rows(params, split, np.arange(len(where)),
                             [None] * len(where), config, codec, scratch)
        for (i, t), row in zip(where, scores):
            pages[i][t] = PagePrediction(scores=row,
                                         labels=predict(row, label_mode),
                                         context=None)
    return [PredictionTrace(doc_id=doc.doc_id, pages=doc_pages)
            for doc, doc_pages in zip(docs, pages)]


# ---------------------------------------------------------------------------
# Trace files: one JSONL line per page with scores, decision, and context fed
# ---------------------------------------------------------------------------


def _context_to_json(context: Context, vocab: TypeVocabulary):
    if context is None:
        return None
    if context is FIRST_PAGE:
        return [vocab.first_page_token]
    return [vocab.class_names[c] for c in sorted(context)]


def _context_from_json(value, vocab: TypeVocabulary) -> Context:
    if value is None:
        return None
    if value == [vocab.first_page_token]:
        return FIRST_PAGE
    return frozenset(vocab.index(name) for name in value)


def write_traces(traces: Sequence[PredictionTrace], path: Path | str,
                 vocab: TypeVocabulary, provenance: dict | None = None) -> None:
    lines = []
    if provenance is not None:
        lines.append(json.dumps({"provenance": provenance}, sort_keys=True))
    for trace in traces:
        for t, page in enumerate(trace.pages):
            lines.append(json.dumps({
                "context": _context_to_json(page.context, vocab),
                "doc_id": trace.doc_id,
                "labels": [vocab.class_names[c] for c in sorted(page.labels)],
                "page_index": t,
                "scores": [float(s) for s in page.scores],
            }, sort_keys=True))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_traces(path: Path | str, vocab: TypeVocabulary) -> list[PredictionTrace]:
    traces: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if "provenance" in obj and "doc_id" not in obj:
                continue
            labels = frozenset(vocab.index(name) for name in obj["labels"])
            if not labels or (vocab.label_mode == MULTICLASS and len(labels) > 1):
                raise ValueError(f"page {obj['page_index']} of {obj['doc_id']!r} has "
                                 f"{len(labels)} labels in {vocab.label_mode} mode")
            page = PagePrediction(
                scores=np.asarray(obj["scores"], dtype=np.float64),
                labels=labels,
                context=_context_from_json(obj["context"], vocab),
            )
            traces.setdefault(obj["doc_id"], []).append((obj["page_index"], page))
    out = []
    for doc_id, pages in traces.items():
        pages.sort(key=lambda item: item[0])
        if [i for i, _ in pages] != list(range(len(pages))):
            raise ValueError(f"trace for {doc_id!r} has missing or duplicate pages")
        out.append(PredictionTrace(doc_id=doc_id, pages=[p for _, p in pages]))
    return out
