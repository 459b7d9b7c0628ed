"""Previous-page type conditioning: input augmentation with special tokens,
teacher-forced batch construction, and left-to-right inference where the
model feeds its own predictions forward.

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
from .corpus import DocumentSequence, TypeVocabulary
from .encoder import (
    CLS_ID,
    FIRST_ID,
    PAD_ID,
    EncoderConfig,
    TokenCodec,
    TokenSequence,
    predict,
)
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


def augment_input(context: Context, text: str, codec: TokenCodec,
                  max_len: int) -> TokenSequence:
    """[CLS] + context tokens + text tokens, PAD-padded to ``max_len``.

    Context tokens are the first-page marker or the special tokens of the
    previous page's classes in ascending class order; they are never
    truncated.  Text is truncated from the right to fit.
    """
    head = [CLS_ID]
    if context is FIRST_PAGE:
        head.append(FIRST_ID)
    elif context is not None:
        if not context:
            raise ValueError("previous-page context must be non-empty")
        head.extend(codec.class_token_id(c) for c in sorted(context))
    if len(head) > max_len:
        raise ValueError("max_len too small for CLS plus context tokens")
    text_ids = [codec.text_token_id(tok) for tok in tokenize(text)]
    body = text_ids[: max_len - len(head)]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[: len(head) + len(body)] = head + body
    return TokenSequence(ids=ids, length=len(head) + len(body))


def page_examples(docs: Sequence[DocumentSequence], teacher_forced: bool,
                  codec: TokenCodec, max_len: int):
    """One (TokenSequence, gold) example per page.

    With teacher forcing the context of page t>1 is the GOLD label set of
    page t-1 (never a model output); without it no context tokens are added.
    """
    examples = []
    for doc in docs:
        for t, page in enumerate(doc.pages):
            if not teacher_forced:
                context: Context = None
            elif t == 0:
                context = FIRST_PAGE
            else:
                context = doc.pages[t - 1].gold_labels
            examples.append(
                (augment_input(context, page.text, codec, max_len),
                 page.gold_labels)
            )
    return examples


def batched(examples: list, batch_size: int,
            rng: np.random.Generator | None = None) -> list[list]:
    """Shuffle (when an rng is given) and chunk; the last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(examples))
    if rng is not None:
        rng.shuffle(order)
    shuffled = [examples[i] for i in order]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]


def build_teacher_forced_batches(docs: Sequence[DocumentSequence], batch_size: int,
                                 codec: TokenCodec, max_len: int,
                                 rng: np.random.Generator | None = None) -> list[list]:
    return batched(page_examples(docs, True, codec, max_len), batch_size, rng)


def build_plain_batches(docs: Sequence[DocumentSequence], batch_size: int,
                        codec: TokenCodec, max_len: int,
                        rng: np.random.Generator | None = None) -> list[list]:
    """Context-oblivious batches: every page stands alone."""
    return batched(page_examples(docs, False, codec, max_len), batch_size, rng)


# Rows per encoder call.  Blocks of 32 length-sorted rows decoded faster than
# 8, 100, 400 or 1600 on the tiny transformer.
_BLOCK_ROWS = 32


def _score_rows(params: dict, sequences: list[TokenSequence],
                config: EncoderConfig) -> np.ndarray:
    """Score rows of ``sequences``, in length-sorted blocks of at most
    ``_BLOCK_ROWS`` so that a block pads little."""
    order = sorted(range(len(sequences)), key=lambda i: sequences[i].length)
    scores = np.empty((len(sequences), params["head_b"].shape[0]))
    for start in range(0, len(order), _BLOCK_ROWS):
        block = order[start:start + _BLOCK_ROWS]
        # looked up on the module at call time, so that a wrapper installed
        # on pageseq.encoder.forward_batch (perfbench's tracer) sees the call
        scores[block] = encoder.forward_batch(
            params, [sequences[i] for i in block], config)
    return scores


def infer_split(params: dict, docs: Sequence[DocumentSequence],
                config: EncoderConfig, codec: TokenCodec, label_mode: str,
                recurrent: bool) -> list[PredictionTrace]:
    """One trace per document.

    Recurrent: left to right in lockstep across documents; page t>1 is
    conditioned on the model's own decision for page t-1 of its document.
    Oblivious: every page scored from its own text, with no context tokens.
    """
    pages: list[list] = [[None] * len(doc) for doc in docs]
    if recurrent:
        contexts: list[Context] = [FIRST_PAGE] * len(docs)
        for t in range(max((len(doc) for doc in docs), default=0)):
            active = [i for i, doc in enumerate(docs) if t < len(doc)]
            sequences = [augment_input(contexts[i], docs[i].pages[t].text, codec,
                                       config.max_len) for i in active]
            for i, scores in zip(active, _score_rows(params, sequences, config)):
                labels = predict(scores, label_mode)
                pages[i][t] = PagePrediction(scores=scores, labels=labels,
                                             context=contexts[i])
                contexts[i] = labels
    else:
        where = [(i, t) for i, doc in enumerate(docs) for t in range(len(doc))]
        sequences = [augment_input(None, docs[i].pages[t].text, codec,
                                   config.max_len) for i, t in where]
        for (i, t), scores in zip(where, _score_rows(params, sequences, config)):
            pages[i][t] = PagePrediction(scores=scores,
                                         labels=predict(scores, label_mode),
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
            page = PagePrediction(
                scores=np.asarray(obj["scores"], dtype=np.float64),
                labels=frozenset(vocab.index(name) for name in obj["labels"]),
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
