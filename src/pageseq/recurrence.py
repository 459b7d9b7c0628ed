"""Previous-page type conditioning: input augmentation with context tokens,
teacher-forced training examples, and left-to-right inference where the
model feeds its own predictions forward.  A split is tokenized once
(``split_tokens``, each distinct whitespace piece stripped once) and turned
into text ids once (``encode_split``); only the context tokens written before
its text change.

Inference decodes every document of a split in lockstep: at page position t
it scores page t of each document that has one, conditioned on that
document's own decision at t-1.  No page's input depends on a later page
(no lookahead) or on another document.  Its result is one ``SplitTrace``,
whose arrays go to the trace file and come back from it unchanged.

The contexts fed are one (pages x 1+n) indicator from training examples and
inference through input augmentation to the trace file: column 0 is the
first-page marker (``FIRST_PAGE_TOKEN``, token ``FIRST_ID``) and column 1+c
class c (token ``FIRST_ID + 1 + c``).

The exposure gap is structural: training examples carry the gold labels of
the previous page, inference traces carry the model's decided labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoder
from .corpus import (FIRST_PAGE_TOKEN, MULTICLASS, Documents, TypeVocabulary,
                     _Memo, check_format, first_appearance, gc_paused,
                     page_positions, read_jsonl)
from .encoder import (CLS_ID, FIRST_ID, LINEAR, PAD_ID, TINY_TRANSFORMER,
                      EncoderConfig, TokenCodec, predict)
from .features import tokenize


@dataclass(eq=False)
class SplitTrace:
    """The predictions for one split, one row per page in document order:
    document ``doc_ids[i]`` owns rows ``offsets[i]:offsets[i + 1]``.

    ``scores`` are the model's (pages x n) scores and ``labels`` its decided
    classes as a 0/1 indicator.  ``context`` is the (pages x 1+n) indicator
    of the context tokens each page was fed: column 0 the first-page marker,
    column 1+c class c.  A trace was fed a context exactly when some cell of
    it is set.
    """

    doc_ids: list
    offsets: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    context: np.ndarray

    @classmethod
    def blank(cls, doc_ids: Sequence, offsets: np.ndarray, n: int) -> "SplitTrace":
        """Zero scores, no decisions and no context fed, to be filled in place."""
        pages = int(offsets[-1])
        return cls(list(doc_ids), offsets, np.zeros((pages, n)),
                   np.zeros((pages, n), dtype=bool),
                   np.zeros((pages, 1 + n), dtype=bool))

    def page_name(self, row: int) -> str:
        """Row ``row`` as a message names a page: its index and document."""
        doc = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return f"page {row - int(self.offsets[doc])} of {self.doc_ids[doc]!r}"


@dataclass(eq=False)
class SplitTokens:
    """The tokens of a split's pages in document order: ``distinct`` holds
    each distinct token once, in order of first appearance; ``index`` is the
    position in ``distinct`` of every token, page after page; ``counts`` is
    each page's token count."""

    distinct: list
    index: np.ndarray
    counts: np.ndarray

    def flat(self) -> list[str]:
        """Every token, page after page."""
        return list(map(self.distinct.__getitem__, self.index.tolist()))


@dataclass(eq=False)
class EncodedSplit:
    """The text ids of a split's pages in document order: ``text`` is (pages,
    max_len - 1), PAD-padded, and ``lengths`` each row's text length."""

    text: np.ndarray
    lengths: np.ndarray


def split_tokens(docs: Documents) -> SplitTokens:
    """The ``tokenize`` tokens of every page of ``docs``, with each distinct
    whitespace piece stripped once.

    Lowercasing commutes with splitting on whitespace (it is idempotent, maps
    no other character to whitespace, and decides a final sigma at a
    whitespace boundary either way), so a lowercased piece tokenizes on its
    own to the token it yields in its page, or to none."""
    pieces = list(map(str.split, map(str.lower, docs.texts)))
    counts = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
    distinct = _Memo(lambda token: len(distinct))  # a new token: the next index

    def strip(piece):
        # looked up on the module at call time, so that a wrapper installed
        # on pageseq.recurrence.tokenize (perfbench's counter) sees the call
        kept = tokenize(piece)
        return distinct[kept[0]] if kept else -1

    index = np.fromiter(map(_Memo(strip).__getitem__, chain.from_iterable(pieces)),
                        dtype=np.int64, count=int(counts.sum()))
    kept = index >= 0
    page = np.repeat(np.arange(len(pieces)), counts)
    return SplitTokens(list(distinct), index[kept],
                       np.bincount(page[kept], minlength=len(pieces)))


def encode_split(docs: Documents, codec: TokenCodec, max_len: int,
                 tokens: SplitTokens | None = None) -> EncodedSplit:
    """The text ids of every page of ``docs``; ``tokens`` is
    ``split_tokens(docs)`` when the caller already has it."""
    if tokens is None:
        tokens = split_tokens(docs)
    n_text = max_len - 1
    ids = np.fromiter(codec.text_token_ids(tokens.distinct), dtype=np.int64,
                      count=len(tokens.distinct))[tokens.index]
    # each token's position in its page: the first n_text of a page are kept
    starts = np.cumsum(tokens.counts) - tokens.counts
    position = np.arange(len(ids)) - np.repeat(starts, tokens.counts)
    lengths = np.minimum(tokens.counts, n_text)
    text = np.full((len(lengths), n_text), PAD_ID, dtype=np.int64)
    # the mask's cells in row-major order are the kept tokens in order
    text[np.arange(n_text) < lengths[:, None]] = ids[position < n_text]
    return EncodedSplit(text=text, lengths=lengths)


def augment_input(text: np.ndarray, lengths: np.ndarray,
                  context: np.ndarray | None, max_len: int) -> np.ndarray:
    """[CLS] + context tokens + text, one row per page, PAD-padded to the
    longest row.

    ``text`` and ``lengths`` are rows of an ``EncodedSplit``, and ``context``
    the (rows x 1+n) indicator of the context tokens fed to each; with None
    no context tokens are added.  Each set column j writes token id
    ``FIRST_ID + j``, in column order; context tokens are never truncated.
    Text is truncated from the right so that no row is longer than
    ``max_len``.
    """
    if context is None:
        context = np.zeros((len(text), 0), dtype=bool)
    elif not context.any(axis=1).all():
        raise ValueError("previous-page context must be non-empty")
    n_context = context.sum(axis=1)
    if 1 + n_context.max(initial=0) > max_len:
        raise ValueError("max_len too small for CLS plus context tokens")
    full = 1 + n_context + np.minimum(lengths, max_len - 1 - n_context)
    width = int(full.max(initial=1))
    ids = np.full((len(context), width), PAD_ID, dtype=np.int64)
    ids[:, 0] = CLS_ID
    for k in np.unique(n_context).tolist():
        rows = np.flatnonzero(n_context == k)
        if k:
            ids[rows, 1:1 + k] = FIRST_ID + np.nonzero(context[rows])[1].reshape(-1, k)
        ids[rows, 1 + k:] = text[rows, :width - 1 - k]
    return ids


def row_lengths(ids: np.ndarray) -> np.ndarray:
    """Token count of each row of an id matrix; PAD only pads on the right."""
    return np.count_nonzero(ids != PAD_ID, axis=1)


def page_examples(docs: Documents, teacher_forced: bool,
                  codec: TokenCodec, max_len: int, encoded: EncodedSplit | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The input ids (pages x width) and targets of every page, in document
    order; ``encoded`` is ``encode_split(docs, codec, max_len)`` if known.

    With teacher forcing page 1 is fed the first-page marker and page t>1
    the GOLD label set of page t-1 (never a model output); without it no
    context tokens are added.
    Targets are gold class indices (a multiclass codec) or a (pages x
    classes) 0/1 matrix (multilabel), as ``encoder.loss_and_grad`` takes them.
    """
    split = encoded or encode_split(docs, codec, max_len)
    gold = docs.gold
    context = None
    if teacher_forced:
        first = np.zeros((len(gold), 1), dtype=bool)
        first[docs.offsets[:-1]] = True
        context = np.hstack([first, np.roll(gold, 1, axis=0) & ~first])
    ids = augment_input(split.text, split.lengths, context, max_len)
    if codec.type_vocab.label_mode == MULTICLASS:
        return ids, gold.argmax(axis=1)
    return ids, gold.astype(np.float64)


# Rows per encoder call, by variant.  Blocks of 32 length-sorted rows decoded
# faster than 8, 100, 400 or 1600 on the tiny transformer.  The linear bag has
# no attention grid to bound, only its (rows x max_len x d) embedding gather:
# on a 2,940-page split at max_len 16 and d 32, 256 rows per call (a 1 MB
# gather) scored it in 3.4 ms, against 3.6 at 1024, 4.3 at 4096 and 6.1 at 32.
_BLOCK_ROWS = {TINY_TRANSFORMER: 32, LINEAR: 256}


def _score_rows(params: dict, split: EncodedSplit, rows: np.ndarray,
                context: np.ndarray | None, config: EncoderConfig,
                scratch: encoder.Scratch, out: np.ndarray) -> None:
    """Score ``rows`` of ``split`` fed ``context`` into the same rows of
    ``out``, in length-sorted blocks of at most ``_BLOCK_ROWS[variant]`` so
    that a block pads little."""
    ids = augment_input(split.text[rows], split.lengths[rows], context,
                        config.max_len)
    lengths = row_lengths(ids)
    order = np.argsort(lengths, kind="stable")
    size = _BLOCK_ROWS[config.variant]
    for start in range(0, len(order), size):
        block = order[start:start + size]
        # looked up on the module at call time, so that a wrapper installed
        # on pageseq.encoder.forward_batch (perfbench's tracer) sees the call
        out[rows[block]] = encoder.forward_batch(
            params, ids[block, :lengths[block[-1]]], config, scratch)


def infer_split(params: dict, docs: Documents,
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
    trace = SplitTrace.blank(docs.doc_ids, docs.offsets, codec.n_classes)
    if not recurrent:
        _score_rows(params, split, np.arange(len(trace.scores)), None, config,
                    scratch, trace.scores)
        trace.labels[:] = predict(trace.scores, label_mode)
        return trace
    trace.context[docs.offsets[:-1], 0] = True
    for t, rows in enumerate(page_positions(docs.offsets, len(trace.scores))):
        if t:
            trace.context[rows, 1:] = trace.labels[rows - 1]
        _score_rows(params, split, rows, trace.context[rows], config, scratch,
                    trace.scores)
        trace.labels[rows] = predict(trace.scores[rows], label_mode)
    return trace


# ---------------------------------------------------------------------------
# Trace files: one JSONL line per page with scores, decision, and context fed
# ---------------------------------------------------------------------------

# the layout of a trace file, recorded in its header line (a file written
# without provenance has no header, and is read as this layout)
TRACE_FORMAT = "pageseq-trace/1"


def _names_json(indicator: np.ndarray, names: Sequence[str]) -> list[str]:
    """The JSON list of the names of each row's set columns, in column order;
    each distinct row, packed into one bytes code, is encoded once."""
    packed = np.packbits(indicator, axis=1)
    codes = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, rows, inverse = np.unique(codes, return_index=True, return_inverse=True)
    strings = [json.dumps([names[c] for c in np.flatnonzero(indicator[row])])
               for row in rows.tolist()]
    return list(map(strings.__getitem__, inverse.ravel().tolist()))


def write_traces(trace: SplitTrace, path: Path | str, vocab: TypeVocabulary,
                 provenance: dict | None = None) -> None:
    lines = []
    if provenance is not None:
        lines.append(json.dumps({"format": TRACE_FORMAT, "provenance": provenance},
                                sort_keys=True))
    labels = _names_json(trace.labels, vocab.class_names)
    contexts = (_names_json(trace.context, (FIRST_PAGE_TOKEN, *vocab.class_names))
                if trace.context.any() else ["null"] * len(labels))
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


def _page_name(obj: dict) -> str:
    return f"page {obj['page_index']} of {obj['doc_id']!r}"


def _first(column: Sequence, bad) -> int:
    """The index of the first entry of ``column`` for which ``bad`` holds."""
    return next(i for i, x in enumerate(column) if bad(x))


def _all_floats(numbers: list) -> bool:
    """Whether every number converts to a float: an int too large does not."""
    try:
        list(map(float, numbers))
    except OverflowError:
        return False
    return True


def _indicator(name_lists: Sequence[list], field: str, pages: list,
               names: Sequence[str]) -> np.ndarray:
    """The (pages x len(names)) 0/1 rows of the lists of column ``names`` in
    ``field`` of each page, each distinct list looked up once.  A name that
    is not a string, or no column's, is reported with its page; so is the
    first-page marker in a list with other names, as it is fed alone."""
    if not set(map(type, chain.from_iterable(name_lists))) <= {str}:
        row = _first(name_lists, lambda names: not set(map(type, names)) <= {str})
        raise ValueError(f"{_page_name(pages[row])}: field {field!r} holds a "
                         f"label name that is not a string")
    distinct, keys = first_appearance(list(map(tuple, name_lists)))
    index = dict(zip(names, range(len(names))))
    table = np.zeros((len(distinct), len(names)), dtype=bool)
    for key, row in enumerate(distinct):
        unknown = [name for name in row if name not in index
                   or name == FIRST_PAGE_TOKEN and len(row) > 1]
        if unknown:
            raise ValueError(f"{_page_name(pages[np.argmax(keys == key)])}: "
                             f"unknown label name {unknown[0]!r} in field {field!r}")
        table[key, list(map(index.__getitem__, row))] = True
    return table[keys]


# the fields of a trace page line, in the order their types are checked
_TRACE_FIELDS = ("doc_id", "labels", "context", "scores")


@gc_paused()
def read_traces(path: Path | str, vocab: TypeVocabulary,
                text: str | None = None) -> SplitTrace:
    """The trace in a trace file; ``text`` is the file's contents if already
    read.  Documents come in order of first appearance, and their pages in
    ``page_index`` order, which must run 0..l-1.

    A header line (one with a provenance and no doc_id) must record
    ``TRACE_FORMAT``.  The fields are checked a column at a time; only once a
    check has failed does a pass over the pages name the first bad one.  In a
    file with several faults, the one reported may not be the first in file
    order."""
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    try:
        objs = read_jsonl(text)[1]
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: malformed JSON ({exc.msg} at "
                         f"column {exc.colno})") from None
    pages = []
    for obj in objs:
        if "doc_id" in obj or "provenance" not in obj:
            pages.append(obj)
        else:  # a header
            check_format(obj, "trace", TRACE_FORMAT, "infer")
    if not pages:
        return SplitTrace.blank([], np.zeros(1, dtype=np.int64), vocab.n)
    # one list per field: per-page tuples would live long enough to be
    # promoted to the oldest GC generation, and bring on full collections
    columns = [list(map(itemgetter(key), pages))
               for key in (*_TRACE_FIELDS, "page_index")]
    # a score is a JSON number, so neither a string nor a bool
    for field, column, kinds, what in zip(
            _TRACE_FIELDS, columns,
            ({str}, {list}, {list, type(None)}, {list}),
            ("a string", "a list", "null or a list", "a list")):
        if not set(map(type, column)) <= kinds:
            row = _first(column, lambda x: type(x) not in kinds)
            raise ValueError(f"{_page_name(pages[row])}: field {field!r} must "
                             f"be {what}")
    doc_ids, labels, contexts, scores, page_indices = columns
    if not set(map(type, chain.from_iterable(scores))) <= {int, float}:
        row = _first(scores, lambda s: not set(map(type, s)) <= {int, float})
        raise ValueError(f"{_page_name(pages[row])} has a score that is not a "
                         f"number")
    if set(map(len, scores)) != {vocab.n}:
        row = _first(scores, lambda s: len(s) != vocab.n)
        raise ValueError(f"{_page_name(pages[row])} has {len(scores[row])} "
                         f"scores for {vocab.n} classes")
    try:
        scores = np.fromiter(chain.from_iterable(scores), dtype=np.float64,
                             count=len(pages) * vocab.n).reshape(len(pages), vocab.n)
    except OverflowError:
        row = _first(scores, lambda s: not _all_floats(s))
        raise ValueError(f"{_page_name(pages[row])} has a score too large for a "
                         f"float") from None
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if bad.size:
        raise ValueError(f"{_page_name(pages[bad[0]])} has a score that is not finite")
    labels = _indicator(labels, "labels", pages, vocab.class_names)
    counts = labels.sum(axis=1)
    limit = vocab.max_labels
    bad = np.flatnonzero((counts == 0) | (counts > limit))
    if bad.size:
        raise ValueError(f"{_page_name(pages[bad[0]])} has {counts[bad[0]]} labels "
                         f"in {vocab.label_mode} mode")
    fed = list in set(map(type, contexts))
    if fed and None in contexts:
        raise ValueError("some pages were fed a context and some none")
    if not fed:
        context = np.zeros((len(pages), 1 + vocab.n), dtype=bool)
    else:
        context = _indicator(contexts, "context", pages,
                             (FIRST_PAGE_TOKEN, *vocab.class_names))
        # a fed page was fed the first-page marker alone, or as many classes
        # as a page may have labels: 1 to ``limit``
        counts = context.sum(axis=1)
        if not counts.all():
            raise ValueError(f"{_page_name(pages[counts.argmin()])}: field "
                             f"'context' names no class")
        bad = np.flatnonzero(counts > limit)
        if bad.size:
            raise ValueError(f"{_page_name(pages[bad[0]])} has {counts[bad[0]]} "
                             f"context labels in {vocab.label_mode} mode")

    doc_rows, doc = first_appearance(doc_ids)
    if set(map(type, page_indices)) == {int} and (
            0 <= min(page_indices) and max(page_indices) < len(pages)):
        index = np.array(page_indices, dtype=np.int64)
    else:  # an index that cannot be a page's is -1, which no page expects
        index = np.array([i if type(i) is int and 0 <= i < len(pages) else -1
                          for i in page_indices], dtype=np.int64)
    sizes = np.bincount(doc, minlength=len(doc_rows))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    order = np.lexsort((index, doc))
    wrong = index[order] != np.arange(len(order)) - np.repeat(offsets[:-1], sizes)
    if wrong.any():
        doc_id = doc_rows[doc[order[wrong.argmax()]]]
        raise ValueError(f"trace for {doc_id!r} has missing or duplicate pages")
    return SplitTrace(doc_rows, offsets, scores[order], labels[order],
                      context[order])
