"""Previous-page type conditioning: input augmentation with context tokens,
teacher-forced training examples, and left-to-right inference where the
model feeds its own predictions forward.  Each stage reads what the one
before returns: ``split_tokens`` tokenizes a split once (each distinct
whitespace piece stripped once), ``encode_split`` turns that into an
``EncodedSplit`` of text ids once, and ``page_examples`` and ``infer_split``
read it; only the context tokens written before its text change.

Inference decodes every document of a split in lockstep: at page position t
it scores page t of each document that has one, conditioned on that
document's own decision at t-1.  No page's input depends on a later page
(no lookahead) or on another document.  Its result is one ``SplitTrace`` of
the split's documents, whose arrays go to the trace file and come back from
it, read against those documents, unchanged.

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
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoder
from .corpus import (FIRST_PAGE_TOKEN, MULTICLASS, Documents, _block, _Memo, _typed,
                     check_format, check_label_count, class_indicator, gc_paused,
                     page_columns, page_positions, read_jsonl, read_page_lines,
                     reading)
from .encoder import (CLS_ID, FIRST_ID, LINEAR, PAD_ID,
                      EncoderConfig, TokenCodec, predict)
from .features import tokenize


@dataclass(eq=False)
class SplitTrace:
    """The predictions for the pages of ``docs``, row for row: the n classes
    are those of ``docs.vocab``.

    ``scores`` are the model's (pages x n) scores and ``labels`` its decided
    classes as a 0/1 indicator.  ``context`` is the (pages x 1+n) indicator
    of the context tokens each page was fed: column 0 the first-page marker,
    column 1+c class c.  A trace was fed a context exactly when some cell of
    it is set.
    """

    docs: Documents
    scores: np.ndarray
    labels: np.ndarray
    context: np.ndarray

    @classmethod
    def blank(cls, docs: Documents) -> "SplitTrace":
        """Zero scores, no decisions and no context fed, to be filled in place."""
        pages, n = len(docs.texts), docs.vocab.n
        return cls(docs, np.zeros((pages, n)), np.zeros((pages, n), dtype=bool),
                   np.zeros((pages, 1 + n), dtype=bool))

    @property
    def offsets(self) -> np.ndarray:
        """The document offsets of the rows, ``docs.offsets``."""
        return self.docs.offsets


@dataclass(eq=False)
class SplitTokens:
    """The tokens of the pages of ``docs`` in document order: ``distinct``
    holds each distinct token once, in order of first appearance; ``index``
    is the position in ``distinct`` of every token, page after page;
    ``counts`` is each page's token count."""

    docs: Documents
    distinct: list
    index: np.ndarray
    counts: np.ndarray

    def flat(self) -> list[str]:
        """Every token, page after page."""
        return list(map(self.distinct.__getitem__, self.index.tolist()))


@dataclass(eq=False)
class EncodedSplit:
    """The text ids of the pages of ``docs`` in document order, as ``codec``
    encodes them for an encoder of ``max_len``: ``text`` is (pages, max_len
    - 1), PAD-padded, and ``lengths`` each row's text length."""

    docs: Documents
    codec: TokenCodec
    max_len: int
    text: np.ndarray
    lengths: np.ndarray

    def check_fits(self, config: EncoderConfig) -> None:
        """Raise ValueError unless encoded for ``config.max_len``."""
        if self.max_len != config.max_len:
            raise ValueError(f"split encoded for max_len {self.max_len}, "
                             f"encoder has max_len {config.max_len}")


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
    return SplitTokens(docs, list(distinct), index[kept],
                       np.bincount(page[kept], minlength=len(pieces)))


def encode_split(tokens: SplitTokens, codec: TokenCodec, max_len: int) -> EncodedSplit:
    """The text ids of every page of ``tokens.docs``, of the codec's classes."""
    if tokens.docs.vocab != codec.type_vocab:
        raise ValueError("the split's classes or label mode are not the codec's")
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
    return EncodedSplit(tokens.docs, codec, max_len, text, lengths)


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


def page_examples(split: EncodedSplit, teacher_forced: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The input ids (pages x width) and targets of every page of ``split``.

    With teacher forcing page 1 is fed the first-page marker and page t>1
    the GOLD label set of page t-1 (never a model output); without it no
    context tokens are added.
    Targets are gold class indices (a multiclass codec) or a (pages x
    classes) 0/1 matrix (multilabel), as ``encoder.loss_and_grad`` takes them.
    """
    gold = split.docs.gold
    context = None
    if teacher_forced:
        first = np.zeros((len(gold), 1), dtype=bool)
        first[split.docs.offsets[:-1]] = True
        context = np.hstack([first, np.roll(gold, 1, axis=0) & ~first])
    ids = augment_input(split.text, split.lengths, context, split.max_len)
    if split.codec.type_vocab.label_mode == MULTICLASS:
        return ids, gold.argmax(axis=1)
    return ids, gold.astype(np.float64)


# Padded tokens (rows x widest row) per tiny-transformer call.  What bounds a
# call is its float64 working set, which grows with its tokens, not its rows:
# a d-32 forward of 40-token rows costs less per row in blocks of 16 than of
# 32, once the 32-row block no longer fits a 2 MB L2 cache, while 12-token
# rows still gain from 64-row blocks.  Median decode of a 1,715-page test
# split of 8-40 token pages, oblivious / recurrent, by the tiny transformer
# (d 32, 2 layers, max_len 40; 21 interleaved runs, one BLAS thread, a 2-CPU
# Xeon with 2 MB of L2 per core):
#   32 rows a block (fixed)  186 / 216 ms     640 tokens    161 / 204 ms
#   256 tokens               179 / 222 ms     768 tokens    165 / 203 ms
#   384 tokens               166 / 205 ms     1,024 tokens  179 / 210 ms
#   512 tokens               159 / 203 ms     1,536 tokens  195 / 233 ms
# 512 to 768 tie within the runs' spread; 640 is the middle of that plateau.
_BLOCK_TOKENS = 640
# Rows per linear-bag call.  The bag has no attention grid to bound, only its
# (rows x max_len x d) embedding gather: on a 2,940-page split at max_len 16
# and d 32, 256 rows per call (a 1 MB gather) scored it in 3.4 ms, against
# 3.6 at 1024, 4.3 at 4096 and 6.1 at 32.
_BLOCK_ROWS_LINEAR = 256


def block_bounds(widths: Sequence[int], budget: int) -> list[int]:
    """Where each block of rows of the ascending ``widths`` starts, and where
    the last one ends: a block is the longest run from its start whose row
    count times its widest row, its last, is at most ``budget``; a row wider
    than ``budget`` is a block of its own."""
    bounds = [0]
    while bounds[-1] < len(widths):
        start = bounds[-1]
        # no run from here is longer: every row is at least this wide
        end = min(len(widths), start + max(1, budget // widths[start]))
        while end - start > 1 and (end - start) * widths[end - 1] > budget:
            end -= 1
        bounds.append(end)
    return bounds


def _score_rows(params: dict, split: EncodedSplit, rows: np.ndarray,
                context: np.ndarray | None, config: EncoderConfig,
                scratch: encoder.Scratch, out: np.ndarray) -> None:
    """Score ``rows`` of ``split`` fed ``context`` into the same rows of
    ``out``, in blocks of length-sorted rows, so that a block pads little:
    the tiny transformer's of at most ``_BLOCK_TOKENS`` padded tokens
    (``block_bounds``), the linear bag's of ``_BLOCK_ROWS_LINEAR`` rows.
    Every encoder call of a decode is made here."""
    ids = augment_input(split.text[rows], split.lengths[rows], context,
                        config.max_len)
    lengths = row_lengths(ids)
    order = np.argsort(lengths, kind="stable")
    widths = lengths[order].tolist()
    if config.variant == LINEAR:
        bounds = [*range(0, len(order), _BLOCK_ROWS_LINEAR), len(order)]
    else:
        bounds = block_bounds(widths, _BLOCK_TOKENS)
    for start, end in zip(bounds, bounds[1:]):
        block = order[start:end]
        # looked up on the module at call time, so that a wrapper installed
        # on pageseq.encoder.forward_batch (perfbench's tracer) sees the call
        out[rows[block]] = encoder.forward_batch(
            params, ids[block, :widths[end - 1]], config, scratch)


def infer_split(params: dict, split: EncodedSplit, config: EncoderConfig,
                recurrent: bool, scratch: encoder.Scratch | None = None
                ) -> SplitTrace:
    """The trace of ``split``, encoded for ``config.max_len``.  Every encoder
    call of the split shares ``scratch`` (a fresh pool if None).

    Recurrent: left to right in lockstep across documents; page t>1 is
    conditioned on the model's own decision for page t-1 of its document.
    Oblivious: every page scored from its own text, with no context tokens.
    """
    split.check_fits(config)
    docs, label_mode = split.docs, split.docs.vocab.label_mode
    if scratch is None:
        scratch = encoder.Scratch()
    trace = SplitTrace.blank(docs)
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

# the layout of a trace file, recorded in its header, the first line
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


def write_traces(trace: SplitTrace, path: Path | str, provenance: dict) -> None:
    """The trace file of ``trace``: a header line of ``TRACE_FORMAT`` and
    ``provenance``, then one line per page in document order."""
    docs, vocab = trace.docs, trace.docs.vocab
    lines = [json.dumps({"format": TRACE_FORMAT, "provenance": provenance},
                        sort_keys=True)]
    labels = _names_json(trace.labels, vocab.class_names)
    contexts = (_names_json(trace.context, (FIRST_PAGE_TOKEN, *vocab.class_names))
                if trace.context.any() else ["null"] * len(labels))
    # one encoding of the whole matrix, cut into rows: no number holds "], ["
    scores = (json.dumps(trace.scores.tolist())[2:-2].split("], [")
              if len(labels) else [])
    row = 0
    for doc_id, size in zip(docs.doc_ids, np.diff(docs.offsets).tolist()):
        doc = json.dumps(doc_id)
        for t in range(size):
            lines.append(f'{{"context": {contexts[row]}, "doc_id": {doc}, '
                         f'"labels": {labels[row]}, "page_index": {t}, '
                         f'"scores": [{scores[row]}]}}')
            row += 1
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# the fields of a trace page line, and the JSON types each may hold
_TRACE_FIELDS = {"doc_id": (str,), "labels": (list,), "context": (type(None), list),
                 "scores": (list,), "page_index": (int,)}


def _trace_lines(pages: list, vocab) -> tuple:
    """The doc ids and page indices of a trace file's page lines, and their
    (pages x n) scores and decided labels and (pages x 1+n) contexts fed.
    A decision is one label, or 1 to n on a multilabel corpus; a fed context
    is the first-page marker alone, or as many classes as a page may have
    labels."""
    doc_ids, labels, contexts, scores, page_indices = page_columns(pages, _TRACE_FIELDS)
    n = vocab.n
    # a score is a JSON number, so neither a string nor a bool
    if not set(map(type, chain.from_iterable(scores))) <= {int, float}:
        raise ValueError("field 'scores' holds a score that is not a number")
    if not set(map(len, scores)) <= {n}:
        count = next(k for k in map(len, scores) if k != n)
        raise ValueError(f"field 'scores' holds {count} scores for {n} classes")
    try:
        scores = np.fromiter(chain.from_iterable(scores), dtype=np.float64,
                             count=len(pages) * n).reshape(len(pages), n)
    except OverflowError:
        raise ValueError("field 'scores' holds a score too large for a float") from None
    if not np.isfinite(scores).all():
        raise ValueError("field 'scores' holds a score that is not finite")
    labels = class_indicator(labels, "labels", vocab.class_names)
    check_label_count(labels, "labels", vocab)
    fed = list in set(map(type, contexts))
    if fed and None in contexts:
        raise ValueError("some pages were fed a context and some none")
    if not fed:
        return doc_ids, page_indices, scores, labels, np.zeros((len(pages), 1 + n),
                                                               dtype=bool)
    context = class_indicator(contexts, "context", (FIRST_PAGE_TOKEN, *vocab.class_names))
    if not context.any(axis=1).all():
        raise ValueError("field 'context' names no class")
    check_label_count(context, "context", vocab)
    return doc_ids, page_indices, scores, labels, context


@gc_paused()
def read_traces(path: Path | str, docs: Documents, text: str) -> SplitTrace:
    """The trace of ``docs`` in the trace file ``path`` whose contents are
    ``text``.  Its first non-blank line is the header: it must record
    ``TRACE_FORMAT``, and hold no key but ``format`` and ``provenance``, an
    object.  Every later line is a page line, read by
    ``corpus.read_page_lines``, which names the first bad one in file order.
    The page lines, in any order, must hold each page of ``docs`` once: page
    ``page_index`` of document ``doc_id``.  Every fault is a CorpusError
    that names ``path`` first, and the header's or a page line's
    ``path:lineno``."""
    with reading(path):
        linenos, objs = read_jsonl(path, text)
        header, *pages = objs or [None]
        # named by its line, as a page line's fault is: line 1 of an empty file
        with reading(f"{path}:{(linenos or [1])[0]}"):
            check_format(header, "trace", TRACE_FORMAT, "infer")
            _block(header, ("format", "provenance"), "")
            _typed(header.get("provenance"), dict, "provenance")
        doc_ids, page_indices, scores, labels, context = read_page_lines(
            path, linenos[1:], pages, lambda lines: _trace_lines(lines, docs.vocab))

        # each line's document in ``docs``, -1 for none of them
        where = dict(zip(docs.doc_ids, range(len(docs))))
        doc = np.fromiter(map(where.get, doc_ids, repeat(-1)), dtype=np.int64,
                          count=len(pages))
        if not (0 <= min(page_indices, default=0)
                and max(page_indices, default=-1) < len(pages)):
            raise ValueError(_coverage_fault(docs, doc_ids, page_indices))
        rows = docs.offsets[doc] + np.array(page_indices, dtype=np.int64)
        if not ((doc >= 0).all() and (rows < docs.offsets[doc + 1]).all()
                and (np.bincount(rows, minlength=len(docs.texts)) == 1).all()):
            raise ValueError(_coverage_fault(docs, doc_ids, page_indices))
    trace = SplitTrace.blank(docs)
    trace.scores[rows], trace.labels[rows], trace.context[rows] = scores, labels, context
    return trace


def _some(doc_ids: list) -> str:
    """A list of doc ids as Python prints it, cut to its first 5 ids and its
    count when it is longer."""
    if len(doc_ids) <= 5:
        return str(doc_ids)
    return f"[{', '.join(map(repr, doc_ids[:5]))}, … ({len(doc_ids)} in all)]"


def _coverage_fault(docs: Documents, doc_ids: list, page_indices: list) -> str:
    """Why page lines of these documents and page indices do not hold each
    page of ``docs`` once: a document they lack or ``docs`` lacks, else one
    whose lines are not its pages 0..l-1, else one of another length."""
    lines: dict = {}
    for doc_id, index in zip(doc_ids, page_indices):
        lines.setdefault(doc_id, []).append(index)
    missing = [doc_id for doc_id in docs.doc_ids if doc_id not in lines]
    extra = sorted(lines.keys() - set(docs.doc_ids))
    if missing or extra:
        return (f"trace/gold page-set mismatch: missing={_some(missing)}, "
                f"extra={_some(extra)}")
    for doc_id in docs.doc_ids:
        indices = lines[doc_id]
        if sorted(indices) != list(range(len(indices))):
            return f"trace for {doc_id!r} has missing or duplicate pages"
    for doc_id, size in zip(docs.doc_ids, np.diff(docs.offsets).tolist()):
        if len(lines[doc_id]) != size:
            return f"trace for {doc_id!r} has {len(lines[doc_id])} pages, gold has {size}"
