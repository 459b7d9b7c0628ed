"""Independent reference implementations used as test oracles, the
test-only helpers that read the package's id rows and view its columnar
splits page by page, and the text strategy of the JSONL round-trip tests.

The oracles are written directly from the stated rules (brute force,
enumeration, finite differences, textbook series) and deliberately share no
code with the package under test.  The synthetic-corpus generator and the
JSONL writer are kept here in their plain per-page form (one
``Generator.choice`` per page class, one ``json.dumps`` per page line), which
the package's versions must match byte for byte.
"""

from __future__ import annotations

import difflib
import itertools
import json
import math
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st
from scipy.special import expit, log_softmax, logsumexp


# Text a JSONL reader can trip on: line breaks other than "\n" (U+2028,
# U+2029, U+0085, CR), astral characters, and punctuation-only or empty
# pages that tokenize to nothing.  Surrogates are left out: UTF-8 cannot
# encode them.
UNICODE_TEXT = st.text(st.one_of(
    st.sampled_from(["\n", "\r", "\u2028", "\u2029", "\x85", "\x00", "!", " ",
                     "\U0001F600", "\U00010348"]),
    st.characters(exclude_categories=("Cs",))))


# -- documents page by page ---------------------------------------------------

class GoldPage(NamedTuple):
    text: str
    gold_labels: frozenset


@dataclass(frozen=True)
class GoldDoc:
    """One document as per-page records; ``len`` is its page count."""

    doc_id: str
    pages: tuple

    def __len__(self) -> int:
        return len(self.pages)


def gold_indicator(label_sets, n: int) -> np.ndarray:
    """The (pages x n) bool gold indicator of each page's class indices,
    one cell set at a time."""
    gold = np.zeros((len(label_sets), n), dtype=bool)
    for row, labels in enumerate(label_sets):
        for c in labels:
            gold[row, c] = True
    return gold


def split_of(docs, vocab):
    """The columnar ``corpus.Documents`` of a list of ``GoldDoc``s."""
    from pageseq.corpus import Documents

    pages = [page for doc in docs for page in doc.pages]
    return Documents(vocab, [doc.doc_id for doc in docs], [len(doc) for doc in docs],
                     [page.text for page in pages],
                     gold_indicator([page.gold_labels for page in pages], vocab.n))


def documents(vocab, doc_ids, sizes):
    """The ``corpus.Documents`` of these doc ids and page counts, every page
    with empty text and gold class 0: the pages that a trace of them
    predicts."""
    from pageseq.corpus import Documents

    pages = int(sum(sizes))
    return Documents(vocab, doc_ids, sizes, [""] * pages,
                     gold_indicator([(0,)] * pages, vocab.n))


def docs_of(split) -> list[GoldDoc]:
    """A columnar split as a list of ``GoldDoc``s."""
    bounds = split.offsets.tolist()
    return [GoldDoc(doc_id, tuple(
                GoldPage(split.texts[r], frozenset(np.flatnonzero(split.gold[r]).tolist()))
                for r in range(start, end)))
            for doc_id, start, end in zip(split.doc_ids, bounds, bounds[1:])]


def same_documents(x, y) -> bool:
    """Whether two splits have the same doc ids, offsets, texts, label mode
    and gold indicator."""
    return (x.doc_ids == y.doc_ids and x.texts == y.texts
            and x.vocab.label_mode == y.vocab.label_mode
            and np.array_equal(x.offsets, y.offsets)
            and np.array_equal(x.gold, y.gold))


def same_corpus(a, b) -> bool:
    """Whether two corpora have the same vocabulary and, split by split, the
    same documents."""
    return a.vocabulary == b.vocabulary and all(
        same_documents(x, y) for (_, x), (_, y) in zip(a.splits(), b.splits()))


def columns(docs, width=None):
    """A list of per-document arrays or label lists in the layout the
    package's batched code takes: the rows stacked in document order, and
    the document offsets.  An empty list gives (0, width) float rows, or (0,)
    int labels if ``width`` is None."""
    offsets = np.cumsum([0] + [len(doc) for doc in docs])
    if not docs:
        return (np.zeros((0, width)) if width is not None
                else np.zeros(0, dtype=np.int64)), offsets
    return np.concatenate([np.asarray(doc) for doc in docs]), offsets


# -- corpus generator and writer, one numpy draw and one json.dumps per page ---

def _reference_document(cfg, rng) -> tuple[list[str], list[int]]:
    """The page texts and classes of one synthetic document, each class
    drawn with ``Generator.choice``."""
    trans = np.asarray(cfg.transition_matrix)
    start = np.asarray(cfg.start_distribution)
    lo, hi = cfg.pages_per_doc
    length = int(rng.integers(lo, hi + 1))
    texts, classes = [], []
    cls_idx = int(rng.choice(cfg.n_classes, p=start))
    for t in range(length):
        if t > 0:
            cls_idx = int(rng.choice(cfg.n_classes, p=trans[cls_idx]))
        t_lo, t_hi = cfg.tokens_per_page
        n_tokens = int(rng.integers(t_lo, t_hi + 1))
        n_shared = int(cfg.ambiguity * n_tokens + 0.5)
        tokens = [
            f"sh_w{k}" for k in rng.integers(0, cfg.shared_vocab_size, size=n_shared)
        ] + [
            f"c{cls_idx}_w{k}"
            for k in rng.integers(0, cfg.class_vocab_size, size=n_tokens - n_shared)
        ]
        order = rng.permutation(n_tokens)
        texts.append(" ".join(tokens[i] for i in order))
        classes.append(cls_idx)
    return texts, classes


def reference_generate_synthetic(cfg):
    """The synthetic corpus of ``cfg``, one ``Generator.choice`` call per page
    class and one string per drawn token."""
    from pageseq.corpus import MULTICLASS, CorpusSplit, Documents, TypeVocabulary

    rng = np.random.default_rng(cfg.seed)
    vocab = TypeVocabulary(tuple(f"c{i}" for i in range(cfg.n_classes)), MULTICLASS)
    splits = []
    for name, count in zip(("train", "validation", "test"), cfg.docs_per_split):
        docs = [_reference_document(cfg, rng) for _ in range(count)]
        splits.append(Documents(
            vocab, [f"{name}-{i:04d}" for i in range(count)],
            [len(texts) for texts, _ in docs],
            [text for texts, _ in docs for text in texts],
            gold_indicator([[c] for _, classes in docs for c in classes], vocab.n)))
    return CorpusSplit(splits[0], splits[1], splits[2], vocab)


def reference_write_corpus(split, directory, provenance=None) -> Path:
    """Write a corpus as three JSONL split files and a manifest, one
    ``json.dumps(page, sort_keys=True, ensure_ascii=False)`` per page line."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = split.vocabulary.class_names
    for name, docs in split.splits():
        lines = []
        for doc_id, start, end in zip(docs.doc_ids, docs.offsets.tolist(),
                                      docs.offsets[1:].tolist()):
            for t, row in enumerate(range(start, end)):
                lines.append(json.dumps({
                    "doc_id": doc_id,
                    "labels": [names[c] for c in np.flatnonzero(docs.gold[row])],
                    "page_index": t,
                    "text": docs.texts[row],
                }, sort_keys=True, ensure_ascii=False))
        (directory / f"{name}.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    manifest = {
        "classes": list(split.vocabulary.class_names),
        "label_mode": split.vocabulary.label_mode,
        "train": "train.jsonl",
        "validation": "validation.jsonl",
        "test": "test.jsonl",
    }
    if provenance is not None:
        manifest["provenance"] = dict(provenance)
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest_path


def field_fault(obj: dict, fields) -> str | None:
    """The fault of a page object, given each of its ``fields`` as (name,
    JSON types, what a message calls them): a field it lacks, else a key
    that is no field's (with the nearest field's name), else a field whose
    value has none of its types (a bool is no int); None if it has none."""
    names = [name for name, _, _ in fields]
    for name in names:
        if name not in obj:
            return f"missing field {name!r}"
    for key in obj:
        if key not in names:
            near = difflib.get_close_matches(key, names, n=1)
            return (f"unknown field {key!r}"
                    + (f"; did you mean {near[0]!r}?" if near else ""))
    for name, kinds, what in fields:
        if type(obj[name]) not in kinds:
            return f"field {name!r} must be {what}"
    return None


def reference_load_split_file(path, vocab):
    """One JSONL split file as ``corpus.Documents``, one ``json.loads`` and
    one set of checks per line, in file order: the first bad line is the one
    reported.  Each page has 1 label, or 1 to n on a multilabel corpus.
    Documents are grouped by doc_id in order of first appearance, and each
    one's pages must come in page_index order 0..l-1."""
    from pageseq.corpus import CorpusError, Documents

    index = {name: c for c, name in enumerate(vocab.class_names)}
    limit = 1 if vocab.label_mode == "multiclass" else vocab.n
    pages: dict[str, list[tuple[str, list[int]]]] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}:{exc.colno}: malformed JSON "
                              f"({exc.msg})") from None
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}:{lineno}: expected a JSON object")
        fault = field_fault(obj, (("doc_id", (str,), "a string"),
                                  ("page_index", (int,), "an int"),
                                  ("text", (str,), "a string"),
                                  ("labels", (list,), "a list")))
        if fault:
            raise CorpusError(f"{path}:{lineno}: {fault}")
        if not all(isinstance(name, str) for name in obj["labels"]):
            raise CorpusError(f"{path}:{lineno}: field 'labels' holds a label name "
                              f"that is not a string")
        labels = []
        for name in obj["labels"]:
            if name not in index:
                raise CorpusError(f"{path}:{lineno}: unknown label name {name!r} in "
                                  f"field 'labels'")
            labels.append(index[name])
        if not 1 <= len(set(labels)) <= limit:
            raise CorpusError(f"{path}:{lineno}: field 'labels' holds "
                              f"{len(set(labels))} labels in {vocab.label_mode} mode")
        doc_id, page_index = obj["doc_id"], obj["page_index"]
        doc = pages.setdefault(doc_id, [])
        if page_index != len(doc):
            if 0 <= page_index < len(doc):
                raise CorpusError(f"{path}:{lineno}: duplicate page "
                                  f"{(doc_id, page_index)}")
            raise CorpusError(f"{path}:{lineno}: page_index {page_index} of "
                              f"document {doc_id!r}, expected {len(doc)} (pages "
                              f"run 0..l-1 in file order)")
        doc.append((obj["text"], labels))
    rows = [page for doc in pages.values() for page in doc]
    try:
        return Documents(vocab, list(pages), [len(doc) for doc in pages.values()],
                         [text for text, _ in rows],
                         gold_indicator([labels for _, labels in rows], vocab.n))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


# -- tokenizer ---------------------------------------------------------------

def reference_tokenize(text: str) -> list[str]:
    """Second implementation of the tokenizer rule: lowercase, split on
    Unicode whitespace, strip leading/trailing punctuation, drop empties.
    It looks up the category of every character it strips or stops at."""
    out = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        token = raw[start:end]
        if token:
            out.append(token)
    return out


# -- a split's text ids, one page at a time ------------------------------------

def text_token_id(codec, token: str) -> int:
    """The id of text ``token`` by the codec's id layout: the reserved ids,
    one id per class, then the text tokens in order; UNK for any other
    token."""
    from pageseq.encoder import N_RESERVED, UNK_ID

    if token not in codec.text_tokens:
        return UNK_ID
    return N_RESERVED + codec.n_classes + codec.text_tokens.index(token)


def class_token_id(codec, c: int) -> int:
    """The id of class ``c``'s context token by the codec's id layout: the
    one after the first-page marker's, plus ``c``."""
    from pageseq.encoder import FIRST_ID

    if not 0 <= c < codec.n_classes:
        raise ValueError(f"class index {c} out of range")
    return FIRST_ID + 1 + c


def loop_encode_split(tokens, codec, max_len: int):
    """(text ids, lengths) of pages given as token lists: one id lookup per
    token and one row written per page, each row truncated to
    ``max_len - 1`` tokens and PAD-padded to that width."""
    from pageseq.encoder import PAD_ID

    n_text = max_len - 1
    text = np.full((len(tokens), n_text), PAD_ID, dtype=np.int64)
    lengths = np.zeros(len(tokens), dtype=np.int64)
    for row, page in enumerate(tokens):
        ids = [text_token_id(codec, tok) for tok in page[:n_text]]
        text[row, :len(ids)] = ids
        lengths[row] = len(ids)
    return text, lengths


# -- one id row: scoring, decoding, structure ---------------------------------

def forward(params, ids, config) -> np.ndarray:
    """Score vector of one page's id row."""
    from pageseq.encoder import forward_batch

    return forward_batch(params, np.asarray(ids)[None, :], config)[0]


def is_control_id(codec, i: int) -> bool:
    """Control ids: CLS, the first-page marker, and class context tokens."""
    from pageseq.encoder import CLS_ID, FIRST_ID, N_RESERVED

    return i == CLS_ID or i == FIRST_ID or N_RESERVED <= i < N_RESERVED + codec.n_classes


def id_to_string(codec, i: int) -> str:
    """The token an id stands for; the context token of class ``name`` reads
    ``[type_<name>]``."""
    from pageseq.corpus import FIRST_PAGE_TOKEN
    from pageseq.encoder import CLS_ID, FIRST_ID, N_RESERVED, PAD_ID, UNK_ID

    if i == PAD_ID:
        return "[PAD]"
    if i == UNK_ID:
        return "[UNK]"
    if i == CLS_ID:
        return "[CLS]"
    if i == FIRST_ID:
        return FIRST_PAGE_TOKEN
    if i < N_RESERVED + codec.n_classes:
        return f"[type_{codec.type_vocab.class_names[i - FIRST_ID - 1]}]"
    return codec.text_tokens[i - N_RESERVED - codec.n_classes]


def decode(codec, ids) -> list[str]:
    """The token strings of an id row, PAD dropped."""
    from pageseq.encoder import PAD_ID

    return [id_to_string(codec, int(i)) for i in ids if int(i) != PAD_ID]


def check_sequence(ids, codec) -> None:
    """Assert the structural invariant of one PAD-padded id row: CLS first,
    then an optional block of control tokens, control tokens nowhere else,
    and nothing but PAD after the first PAD."""
    from pageseq.encoder import CLS_ID, PAD_ID

    ids = np.asarray(ids).tolist()
    length = ids.index(PAD_ID) if PAD_ID in ids else len(ids)
    if any(i != PAD_ID for i in ids[length:]):
        raise ValueError("padding tail must be PAD")
    ids = ids[:length]
    if not ids or ids[0] != CLS_ID:
        raise ValueError("sequence must start with CLS")
    i = 1
    while i < len(ids) and is_control_id(codec, ids[i]) and ids[i] != CLS_ID:
        i += 1
    for j in range(i, len(ids)):
        if is_control_id(codec, ids[j]):
            raise ValueError(f"control token at position {j}, outside the front block")


# -- per-page contexts and traces -------------------------------------------


class _FirstPage:
    """The context of a document's first page in the per-page references."""

    def __repr__(self):
        return "FIRST_PAGE"


FIRST_PAGE = _FirstPage()


def context_arrays(contexts, n: int):
    """Per-page contexts (FIRST_PAGE, a non-empty set of classes, or None for
    all of them) as the (pages x 1+n) ``context`` indicator augment_input
    takes: column 0 the first-page marker, column 1+c class c."""
    if all(context is None for context in contexts):
        return None
    matrix = np.zeros((len(contexts), 1 + n), dtype=bool)
    for row, context in enumerate(contexts):
        if context is FIRST_PAGE:
            matrix[row, 0] = True
        else:
            matrix[row, [1 + c for c in context]] = True
    return matrix


class Page(NamedTuple):
    scores: np.ndarray
    labels: frozenset
    context: object  # FIRST_PAGE, a set of classes, or None


def trace_pages(trace) -> list[tuple[str, list[Page]]]:
    """A SplitTrace as per-page records: (doc_id, pages) per document, with
    contexts as ``context_arrays`` takes them; a trace with no context cell
    set was fed none."""
    fed = trace.context.any()
    out = []
    for i, doc_id in enumerate(trace.docs.doc_ids):
        pages = []
        for r in range(trace.docs.offsets[i], trace.docs.offsets[i + 1]):
            context = (None if not fed else FIRST_PAGE if trace.context[r, 0]
                       else frozenset(np.flatnonzero(trace.context[r, 1:]).tolist()))
            pages.append(Page(trace.scores[r],
                              frozenset(np.flatnonzero(trace.labels[r]).tolist()),
                              context))
        out.append((doc_id, pages))
    return out


def write_traces_per_page(trace, path, provenance) -> None:
    """Reference trace writer: one ``json.dumps`` of each page's record,
    after a header of the trace format and the provenance."""
    from pageseq.corpus import FIRST_PAGE_TOKEN
    from pageseq.recurrence import TRACE_FORMAT

    vocab = trace.docs.vocab
    lines = [json.dumps({"format": TRACE_FORMAT, "provenance": provenance},
                        sort_keys=True)]
    for doc_id, pages in trace_pages(trace):
        for t, (scores, labels, context) in enumerate(pages):
            lines.append(json.dumps({
                "context": (None if context is None
                            else [FIRST_PAGE_TOKEN] if context is FIRST_PAGE
                            else [vocab.class_names[c] for c in sorted(context)]),
                "doc_id": doc_id,
                "labels": [vocab.class_names[c] for c in sorted(labels)],
                "page_index": t,
                "scores": [float(s) for s in scores],
            }, sort_keys=True))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _class_names(names, field, where, vocab) -> frozenset:
    """The class indices of one page's list of names in ``field``."""
    from pageseq.corpus import CorpusError

    if not all(type(name) is str for name in names):
        raise CorpusError(f"{where}: field {field!r} holds a label name that is "
                          f"not a string")
    for name in names:
        if name not in vocab.class_names:
            raise CorpusError(f"{where}: unknown label name {name!r} in field "
                              f"{field!r}")
    return frozenset(vocab.class_names.index(name) for name in names)


def read_traces_per_page(path, gold):
    """Reference trace reader of the pages of the split ``gold``, in the form
    of ``trace_pages``: its documents in its order, each one's pages in
    page_index order.  The first non-blank line is the header, every later
    one a page.  One ``json.loads`` per line and every check page by page,
    in file order, then document by document, with the errors
    ``recurrence.read_traces`` gives: a file with one fault gets its
    message, and a file with several the message of its first bad line."""
    from pageseq.corpus import FIRST_PAGE_TOKEN, CorpusError
    from pageseq.recurrence import TRACE_FORMAT

    vocab = gold.vocab
    docs: dict = {}
    fed = set()
    header, header_line = None, 1
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}:{exc.colno}: malformed JSON "
                              f"({exc.msg})") from None
        if header is None:
            header, header_line = obj, lineno
            if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
                break
            continue
        where = f"{path}:{lineno}"
        if not isinstance(obj, dict):
            raise CorpusError(f"{where}: expected a JSON object")
        fault = field_fault(obj, (("doc_id", (str,), "a string"),
                                  ("labels", (list,), "a list"),
                                  ("context", (list, type(None)), "null or a list"),
                                  ("scores", (list,), "a list"),
                                  ("page_index", (int,), "an int")))
        if fault:
            raise CorpusError(f"{where}: {fault}")
        if not all(type(s) in (int, float) for s in obj["scores"]):
            raise CorpusError(f"{where}: field 'scores' holds a score that is not a "
                              f"number")
        if len(obj["scores"]) != vocab.n:
            raise CorpusError(f"{where}: field 'scores' holds {len(obj['scores'])} "
                              f"scores for {vocab.n} classes")
        try:
            scores = np.asarray(obj["scores"], dtype=np.float64)
        except OverflowError:
            raise CorpusError(f"{where}: field 'scores' holds a score too large for "
                              f"a float") from None
        if not np.isfinite(scores).all():
            raise CorpusError(f"{where}: field 'scores' holds a score that is not "
                              f"finite")
        labels = _class_names(obj["labels"], "labels", where, vocab)
        limit = 1 if vocab.label_mode == "multiclass" else vocab.n
        if not 1 <= len(labels) <= limit:
            raise CorpusError(f"{where}: field 'labels' holds {len(labels)} labels "
                              f"in {vocab.label_mode} mode")
        context = obj["context"]
        fed.add(context is not None)
        if len(fed) > 1:
            raise CorpusError(f"{where}: some pages were fed a context and some none")
        if context == [FIRST_PAGE_TOKEN]:
            context = FIRST_PAGE
        elif context is not None:
            context = _class_names(context, "context", where, vocab)
            if not context:
                raise CorpusError(f"{where}: field 'context' names no class")
            if len(context) > limit:
                raise CorpusError(f"{where}: field 'context' holds {len(context)} "
                                  f"labels in {vocab.label_mode} mode")
        docs.setdefault(obj["doc_id"], []).append(
            (obj["page_index"], Page(scores, labels, context)))
    found = header.get("format") if isinstance(header, dict) else None
    if found != TRACE_FORMAT:
        raise CorpusError(f"{path}:{header_line}: trace format {found!r} is not "
                          f"{TRACE_FORMAT!r}; re-run `infer` to write it anew")
    missing = [doc_id for doc_id in gold.doc_ids if doc_id not in docs]
    extra = sorted(doc_id for doc_id in docs if doc_id not in gold.doc_ids)
    if missing or extra:
        def shown(ids):     # at most 5 ids, and the count of a longer list
            return (str(ids) if len(ids) <= 5
                    else f"{str(ids[:5])[:-1]}, … ({len(ids)} in all)]")
        raise CorpusError(f"{path}: trace/gold page-set mismatch: "
                          f"missing={shown(missing)}, extra={shown(extra)}")
    for doc_id in gold.doc_ids:
        indices = [index for index, _ in docs[doc_id]]
        if not (all(type(i) is int for i in indices)
                and sorted(indices) == list(range(len(indices)))):
            raise CorpusError(f"{path}: trace for {doc_id!r} has missing or "
                              f"duplicate pages")
    for doc_id, start, end in zip(gold.doc_ids, gold.offsets, gold.offsets[1:]):
        if len(docs[doc_id]) != end - start:
            raise CorpusError(f"{path}: trace for {doc_id!r} has "
                              f"{len(docs[doc_id])} pages, gold has {end - start}")
    return [(doc_id, [page for _, page in sorted(docs[doc_id], key=lambda p: p[0])])
            for doc_id in gold.doc_ids]


# -- per-page input augmentation ---------------------------------------------

def augment_input(context, text: str, codec, max_len: int):
    """Per-page reference of the model input: [CLS] + context tokens + text
    tokens, PAD-padded to ``max_len``.  Returns (ids, length).

    ``context`` is ``FIRST_PAGE``, a non-empty set of class indices, or None.
    Context tokens (the first-page marker, or the class context tokens in
    ascending class order) are never truncated; text is truncated from the
    right.
    """
    from pageseq.encoder import CLS_ID, FIRST_ID, PAD_ID

    head = [CLS_ID]
    if context is FIRST_PAGE:
        head.append(FIRST_ID)
    elif context is not None:
        if not context:
            raise ValueError("previous-page context must be non-empty")
        head.extend(class_token_id(codec, c) for c in sorted(context))
    if len(head) > max_len:
        raise ValueError("max_len too small for CLS plus context tokens")
    text_ids = [text_token_id(codec, tok) for tok in reference_tokenize(text)]
    body = text_ids[: max_len - len(head)]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[: len(head) + len(body)] = head + body
    return ids, len(head) + len(body)


def reference_batch(examples, label_mode: str, n_classes: int):
    """(ids, targets) of a training batch from per-page examples
    ((ids, length), gold label set): the rows cut to the longest length, and
    gold class indices (multiclass) or a 0/1 matrix (multilabel)."""
    width = max(length for (_, length), _ in examples)
    ids = np.stack([row[:width] for (row, _), _ in examples])
    golds = [gold for _, gold in examples]
    if label_mode == "multiclass":
        return ids, np.array([next(iter(gold)) for gold in golds])
    targets = np.zeros((len(golds), n_classes))
    for i, gold in enumerate(golds):
        targets[i, sorted(gold)] = 1.0
    return ids, targets


# -- label-run scanning ------------------------------------------------------

def scan_runs(label_seqs: list[list[int]]) -> dict[int, list[int]]:
    """Naive O(pages) enumeration of maximal same-label runs per class."""
    runs: dict[int, list[int]] = {}
    for labels in label_seqs:
        i = 0
        while i < len(labels):
            j = i
            while j < len(labels) and labels[j] == labels[i]:
                j += 1
            runs.setdefault(labels[i], []).append(j - i)
            i = j
    return runs


def count_self_transitions(label_seqs: list[list[int]]) -> dict[int, tuple[int, int]]:
    """Per class: (# successors equal, # pages with a successor)."""
    counts: dict[int, tuple[int, int]] = {}
    for labels in label_seqs:
        for t in range(len(labels) - 1):
            c = labels[t]
            same, total = counts.get(c, (0, 0))
            counts[c] = (same + (1 if labels[t + 1] == c else 0), total + 1)
    return counts


# -- finite differences ------------------------------------------------------

def finite_diff_grads(loss_fn, params: dict[str, np.ndarray], h: float = 1e-4
                      ) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar loss over a dict of arrays."""
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value, dtype=np.float64)
        flat = value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def assert_grads_close(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray],
                       rel_tol: float = 1e-4) -> None:
    """Relative-error check, coordinatewise, with an absolute floor for
    coordinates where both gradients are tiny."""
    for name in numeric:
        a = np.asarray(analytic[name], dtype=np.float64)
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        rel = np.abs(a - n) / denom
        assert rel.max() <= rel_tol, (
            f"gradient mismatch for {name}: max rel err {rel.max():.3e}"
        )


# -- full-sequence tiny transformer ------------------------------------------

def reference_transformer_scores(params: dict[str, np.ndarray], ids: np.ndarray,
                                 n_layers: int, n_heads: int) -> np.ndarray:
    """Class scores of the pre-LN tiny transformer, one example at a time,
    with every row computed in every layer and read out at row 0 (CLS).

    ``ids`` is a (B, L) matrix padded with id 0; padded keys get no
    attention.  Layernorm eps 1e-5; GELU is the tanh approximation.
    """
    def layernorm(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + 1e-5) + b

    def gelu(x):
        return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                        * (x + 0.044715 * x ** 3)))

    out = []
    for row in ids:
        length = int(np.count_nonzero(row))
        x = params["emb"][row] + params["pos"][:len(row)]
        for layer in range(n_layers):
            p = f"layer{layer}/"
            a = layernorm(x, params[p + "ln1_g"], params[p + "ln1_b"])
            q = a @ params[p + "wq"] + params[p + "qb"]
            k = a @ params[p + "wk"] + params[p + "kb"]
            v = a @ params[p + "wv"] + params[p + "vb"]
            dh = q.shape[1] // n_heads
            heads = []
            for h in range(n_heads):
                cols = slice(h * dh, (h + 1) * dh)
                logits = q[:, cols] @ k[:length, cols].T / math.sqrt(dh)
                w = np.exp(logits - logits.max(axis=1, keepdims=True))
                w /= w.sum(axis=1, keepdims=True)
                heads.append(w @ v[:length, cols])
            x = x + np.concatenate(heads, axis=1) @ params[p + "wo"] + params[p + "ob"]
            f = layernorm(x, params[p + "ln2_g"], params[p + "ln2_b"])
            hidden = gelu(f @ params[p + "w1"] + params[p + "b1"])
            x = x + hidden @ params[p + "w2"] + params[p + "b2"]
        final = layernorm(x, params["lnf_g"], params["lnf_b"])
        out.append(final[0] @ params["head_w"] + params["head_b"])
    return np.array(out)


# -- padded tiny transformer with its backward pass ----------------------------
#
# The package's transformer keeps one packed row per non-PAD token.  This
# reference keeps the padded (B, L, d) layout: every layer's row-wise ops run
# on all B x L positions, PAD ones included, and the last layer computes the
# CLS row only.

_REF_LN_EPS = 1e-5
_REF_MASK_NEG = -1e30
_REF_GELU_C = math.sqrt(2.0 / math.pi)


def _ref_layernorm_fwd(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + _REF_LN_EPS)
    xhat = xhat * inv
    return g * xhat + b, (xhat, inv, g)


def _ref_layernorm_bwd(dy, cache):
    xhat, inv, g = cache
    lead = tuple(range(dy.ndim - 1))
    dg = np.sum(dy * xhat, axis=lead)
    db = np.sum(dy, axis=lead)
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _ref_gelu_fwd(x):
    t = np.tanh(_REF_GELU_C * (x + 0.044715 * x * x * x))
    return 0.5 * x * (1.0 + t), (x, t)


def _ref_gelu_bwd(dy, cache):
    x, t = cache
    dinner = (1.0 - t * t) * _REF_GELU_C * (1.0 + 3 * 0.044715 * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dinner)


def _ref_softmax_last(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ref_dropout_fwd(x, rate, rng):
    if rate <= 0.0 or rng is None:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def _ref_attention_fwd(a, params, prefix, mask, n_heads, n_query):
    b, _, d = a.shape
    dh = d // n_heads
    aq = a[:, :n_query]
    q = aq @ params[prefix + "wq"] + params[prefix + "qb"]
    k = a @ params[prefix + "wk"] + params[prefix + "kb"]
    v = a @ params[prefix + "wv"] + params[prefix + "vb"]

    def split(x):
        return x.reshape(b, -1, n_heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    logits = qh @ kh.transpose(0, 1, 3, 2) / math.sqrt(dh) + mask[:, None, None, :]
    probs = _ref_softmax_last(logits)
    merged = (probs @ vh).transpose(0, 2, 1, 3).reshape(b, n_query, d)
    out = merged @ params[prefix + "wo"] + params[prefix + "ob"]
    return out, (a, aq, qh, kh, vh, probs, merged)


def _ref_attention_bwd(dout, params, prefix, cache, grads, n_heads):
    a, aq, qh, kh, vh, probs, merged = cache
    b, _, d = a.shape
    n_query = aq.shape[1]
    dh = d // n_heads
    grads[prefix + "wo"] += merged.reshape(-1, d).T @ dout.reshape(-1, d)
    grads[prefix + "ob"] += dout.sum(axis=(0, 1))
    dmerged = dout @ params[prefix + "wo"].T
    dctx = dmerged.reshape(b, n_query, n_heads, dh).transpose(0, 2, 1, 3)
    dprobs = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    dlogits = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    dlogits /= math.sqrt(dh)
    dqh = dlogits @ kh
    dkh = dlogits.transpose(0, 1, 3, 2) @ qh

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(b, -1, d)

    dq, dk, dv = merge(dqh), merge(dkh), merge(dvh)
    da = dk @ params[prefix + "wk"].T + dv @ params[prefix + "wv"].T
    da[:, :n_query] += dq @ params[prefix + "wq"].T
    for x, dz, w_name, b_name in ((aq, dq, "wq", "qb"), (a, dk, "wk", "kb"),
                                  (a, dv, "wv", "vb")):
        grads[prefix + w_name] += x.reshape(-1, d).T @ dz.reshape(-1, d)
        grads[prefix + b_name] += dz.sum(axis=(0, 1))
    return da


def reference_transformer_loss_and_grad(params, ids, targets, config, label_mode,
                                        dropout_rng=None):
    """(loss, grads, scores) of the tiny transformer on a (B, L) id matrix,
    computed on the padded (B, L, d) layout.

    Dropout (when ``dropout_rng`` is given) draws one mask per layer output
    at shape (B, L, d), or (B, 1, d) in the last layer, in the order
    attention then FFN, layer by layer.  The loss is the mean softmax
    cross-entropy (multiclass, ``targets`` class indices) or the mean
    per-class sigmoid cross-entropy (multilabel, ``targets`` a 0/1 matrix).
    """
    b, l = ids.shape
    mask = np.where(ids == 0, _REF_MASK_NEG, 0.0)
    x = params["emb"][ids] + params["pos"][:l]
    drop = config.dropout if dropout_rng is not None else 0.0
    caches = []
    for layer in range(config.n_layers):
        p = f"layer{layer}/"
        n_query = 1 if layer == config.n_layers - 1 else l
        a, ln1_cache = _ref_layernorm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        attn, attn_cache = _ref_attention_fwd(a, params, p, mask, config.n_heads,
                                              n_query)
        attn, m1 = _ref_dropout_fwd(attn, drop, dropout_rng)
        x = attn + x[:, :n_query]
        f, ln2_cache = _ref_layernorm_fwd(x, params[p + "ln2_g"], params[p + "ln2_b"])
        u, gelu_cache = _ref_gelu_fwd(f @ params[p + "w1"] + params[p + "b1"])
        h2, m2 = _ref_dropout_fwd(u @ params[p + "w2"] + params[p + "b2"], drop,
                                  dropout_rng)
        x = x + h2
        caches.append((ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2))
    final, lnf_cache = _ref_layernorm_fwd(x[:, :1], params["lnf_g"], params["lnf_b"])
    cls = final[:, 0, :]
    scores = cls @ params["head_w"] + params["head_b"]

    n_examples, n_classes = scores.shape
    if label_mode == "multiclass":
        shifted = scores - scores.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-logp[np.arange(n_examples), targets].mean())
        onehot = np.zeros_like(scores)
        onehot[np.arange(n_examples), targets] = 1.0
        dscores = (np.exp(logp) - onehot) / n_examples
    else:
        per_class = np.maximum(scores, 0.0) - scores * targets + \
            np.log1p(np.exp(-np.abs(scores)))
        loss = float(per_class.mean())
        dscores = (1.0 / (1.0 + np.exp(-scores)) - targets) / (n_examples * n_classes)

    grads = {name: np.zeros_like(value) for name, value in params.items()}
    grads["head_w"] += cls.T @ dscores
    grads["head_b"] += dscores.sum(axis=0)
    dx, dg, db = _ref_layernorm_bwd((dscores @ params["head_w"].T)[:, None, :],
                                    lnf_cache)
    grads["lnf_g"] += dg
    grads["lnf_b"] += db
    for layer in reversed(range(config.n_layers)):
        p = f"layer{layer}/"
        ln1_cache, attn_cache, m1, ln2_cache, f, gelu_cache, u, m2 = caches[layer]
        dh2 = dx if m2 is None else dx * m2
        grads[p + "w2"] += u.reshape(-1, u.shape[-1]).T @ dh2.reshape(-1, dh2.shape[-1])
        grads[p + "b2"] += dh2.sum(axis=(0, 1))
        dh1 = _ref_gelu_bwd(dh2 @ params[p + "w2"].T, gelu_cache)
        grads[p + "w1"] += f.reshape(-1, f.shape[-1]).T @ dh1.reshape(-1, dh1.shape[-1])
        grads[p + "b1"] += dh1.sum(axis=(0, 1))
        dx_ln2, dg2, db2 = _ref_layernorm_bwd(dh1 @ params[p + "w1"].T, ln2_cache)
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += db2
        dx = dx + dx_ln2
        da = _ref_attention_bwd(dx if m1 is None else dx * m1, params, p,
                                attn_cache, grads, config.n_heads)
        dx_ln1, dg1, db1 = _ref_layernorm_bwd(da, ln1_cache)
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += db1
        dx_ln1[:, :dx.shape[1]] += dx       # residual, padded back to L rows
        dx = dx_ln1
    if dx.shape[1] < l:                     # no layers: only CLS was read
        dx = np.concatenate([dx, np.zeros((b, l - dx.shape[1], dx.shape[2]))], axis=1)
    np.add.at(grads["emb"], ids, dx)
    grads["pos"][:l] += dx.sum(axis=0)
    return loss, grads, scores


# -- the cross-entropy through scipy's log-softmax -----------------------------

def scipy_softmax_cross_entropy(scores, targets):
    """Each row's softmax cross-entropy and the gradient of their mean, with
    the log-probabilities from ``scipy.special.log_softmax``."""
    logp = log_softmax(scores, axis=-1)
    rows = np.arange(len(targets))
    dscores = np.exp(logp)
    dscores[rows, targets] -= 1.0
    dscores /= len(targets)
    return -logp[rows, targets], dscores


# -- the embedding scatter and the AdamW step, array by array ----------------

def scatter_embedding_grad(tokens, rows, n_ids) -> np.ndarray:
    """The (n_ids, d) sums of the (N, d) ``rows`` by token id, added row by
    row with ``np.add.at`` into zeros."""
    grad = np.zeros((n_ids, rows.shape[1]))
    np.add.at(grad, tokens, rows)
    return grad


def scatter_linear_bwd(dscores, params, cache) -> dict[str, np.ndarray]:
    """The linear bag's gradients with every (example, position) of the id
    matrix scattered into the embedding table, its zero-weight PAD and CLS
    positions included."""
    ids, weights, counts, bag = cache
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    grads["head_w"] = bag.T @ dscores
    grads["head_b"] = dscores.sum(axis=0)
    dbag = dscores @ params["head_w"].T
    demb_pos = (dbag / counts[:, None])[:, None, :] * weights[:, :, None]
    np.add.at(grads["emb"], ids, demb_pos)
    return grads


def allocating_optimizer_step(params, grads, state, lr, cfg) -> None:
    """One AdamW step with a new array for every intermediate and new moment
    arrays in ``state``; the parameters are updated in place."""
    for name in sorted(params):
        if grads[name].shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.all(np.isfinite(grads[name])):
            raise ValueError(f"non-finite gradient for {name}")
    b1, b2 = cfg.betas
    state.step += 1
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name in sorted(params):
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        update = (state.m[name] / bias1) / (np.sqrt(state.v[name] / bias2)
                                            + cfg.epsilon)
        if cfg.weight_decay:
            update = update + cfg.weight_decay * params[name]
        params[name] -= lr * update


# -- linear-chain CRF: brute force and per-document recursions ---------------

def crf_enumerate(transition: np.ndarray, start: np.ndarray,
                  emissions: np.ndarray, scale: float = 1.0):
    """Explicit enumeration over all n^l paths.

    Returns (logZ, best_path, best_score, unary_marginals, pair_marginals)
    with ties in the best path broken toward the lexicographically smallest
    label sequence.
    """
    length, n = emissions.shape
    scores = []
    paths = list(itertools.product(range(n), repeat=length))
    for path in paths:
        s = start[path[0]] + scale * emissions[0, path[0]]
        for t in range(1, length):
            s += transition[path[t - 1], path[t]] + scale * emissions[t, path[t]]
        scores.append(s)
    scores = np.asarray(scores)
    m = scores.max()
    log_z = m + math.log(np.sum(np.exp(scores - m)))
    best = max(range(len(paths)), key=lambda i: (scores[i], [-x for x in paths[i]]))
    probs = np.exp(scores - log_z)
    unary = np.zeros((length, n))
    pair = np.zeros((length - 1, n, n)) if length > 1 else np.zeros((0, n, n))
    for path, p in zip(paths, probs):
        for t, y in enumerate(path):
            unary[t, y] += p
        for t in range(length - 1):
            pair[t, path[t], path[t + 1]] += p
    return log_z, list(paths[best]), float(scores[best]), unary, pair


def crf_path_score(model, emissions: np.ndarray, labels) -> float:
    """Unnormalized score of one label path of a ``CrfModel``."""
    labels = list(labels)
    s = model.start[labels[0]] + model.emission_scale * emissions[0, labels[0]]
    for t in range(1, len(labels)):
        s += model.transition[labels[t - 1], labels[t]]
        s += model.emission_scale * emissions[t, labels[t]]
    return float(s)


def crf_viterbi_document(model, emissions: np.ndarray) -> tuple[list[int], float]:
    """Best label path of one document and its score, page by page; ties
    break toward the lower label index at every backpointer."""
    emissions = np.asarray(emissions, dtype=np.float64)
    length = emissions.shape[0]
    delta = model.start + model.emission_scale * emissions[0]
    pointers = np.zeros((length, model.n), dtype=np.int64)
    for t in range(1, length):
        candidates = delta[:, None] + model.transition
        pointers[t] = np.argmax(candidates, axis=0)
        delta = model.emission_scale * emissions[t] + np.max(candidates, axis=0)
    path = [int(np.argmax(delta))]
    for t in range(length - 1, 0, -1):
        path.append(int(pointers[t, path[-1]]))
    path.reverse()
    return path, float(np.max(delta))


def crf_forward_backward(model, emissions: np.ndarray):
    """Posterior unary marginals (l x n), pairwise marginals ((l-1) x n x n),
    and log Z of one document, by the log-space forward-backward recursion."""
    emissions = np.asarray(emissions, dtype=np.float64)
    length, n = emissions.shape
    scaled = model.emission_scale * emissions
    alpha = np.zeros((length, n))
    alpha[0] = model.start + scaled[0]
    for t in range(1, length):
        alpha[t] = scaled[t] + logsumexp(alpha[t - 1][:, None] + model.transition,
                                         axis=0)
    beta = np.zeros((length, n))
    for t in range(length - 2, -1, -1):
        beta[t] = logsumexp(model.transition + scaled[t + 1] + beta[t + 1], axis=1)
    log_z = float(logsumexp(alpha[-1]))
    unary = np.exp(alpha + beta - log_z)
    pair = np.zeros((max(length - 1, 0), n, n))
    for t in range(length - 1):
        joint = alpha[t][:, None] + model.transition + scaled[t + 1] + beta[t + 1]
        pair[t] = np.exp(joint - log_z)
    return unary, pair, log_z


def crf_log_likelihood_per_document(model, emission_seqs, gold_seqs, l2: float = 0.0):
    """The regularized CRF log-likelihood and its gradient (transition,
    start, emission scale), one document at a time from the marginals."""
    n = model.n
    ll = 0.0
    grad_t = np.zeros((n, n))
    grad_start = np.zeros(n)
    grad_scale = 0.0
    for emissions, gold in zip(emission_seqs, gold_seqs):
        emissions = np.asarray(emissions, dtype=np.float64)
        gold = list(gold)
        unary, pair, log_z = crf_forward_backward(model, emissions)
        ll += crf_path_score(model, emissions, gold) - log_z
        grad_start[gold[0]] += 1.0
        grad_start -= unary[0]
        for t in range(1, len(gold)):
            grad_t[gold[t - 1], gold[t]] += 1.0
        grad_t -= pair.sum(axis=0)
        gold_emission = sum(emissions[t, y] for t, y in enumerate(gold))
        grad_scale += gold_emission - float((unary * emissions).sum())
    ll -= l2 * float((model.transition ** 2).sum())
    grad_t -= 2.0 * l2 * model.transition
    return ll, grad_t, grad_start, grad_scale


# -- BiLSTM: one document at a time, one page at a time ----------------------

def _lstm_run_document(x, w, u, b):
    """One LSTM direction over one document's (l, k) inputs (gate rows:
    input, forget, cell, output); returns (l, h) states and per-page caches."""
    h_dim = u.shape[1]
    h_prev = np.zeros(h_dim)
    c_prev = np.zeros(h_dim)
    states = np.zeros((x.shape[0], h_dim))
    caches = []
    for t in range(x.shape[0]):
        z = w @ x[t] + u @ h_prev + b
        i = expit(z[:h_dim])
        f = expit(z[h_dim:2 * h_dim])
        g = np.tanh(z[2 * h_dim:3 * h_dim])
        o = expit(z[3 * h_dim:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        states[t] = o * tc
        caches.append((x[t], h_prev, c_prev, i, f, g, o, tc))
        h_prev, c_prev = states[t], c
    return states, caches


def _lstm_backward_document(dstates, caches, w, u):
    """BPTT for one direction of one document; returns (dw, du, db)."""
    h_dim = dstates.shape[1]
    dw = np.zeros_like(w)
    du = np.zeros_like(u)
    db = np.zeros(4 * h_dim)
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)
    for t in range(dstates.shape[0] - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, g, o, tc = caches[t]
        dh = dstates[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dc_next = dc * f
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), do * o * (1.0 - o)])
        dw += np.outer(dz, x_t)
        du += np.outer(dz, h_prev)
        db += dz
        dh_next = u.T @ dz
    return dw, du, db


def _bilstm_document(params, x):
    """Logits, concatenated states and both directions' caches of one
    document; the backward direction runs over the reversed pages."""
    fw, fw_cache = _lstm_run_document(x, params["fw_w"], params["fw_u"],
                                      params["fw_b"])
    bw, bw_cache = _lstm_run_document(x[::-1], params["bw_w"], params["bw_u"],
                                      params["bw_b"])
    both = np.concatenate([fw, bw[::-1]], axis=1)
    return both @ params["head_w"] + params["head_b"], both, fw_cache, bw_cache


def bilstm_logits_per_document(params, xs) -> np.ndarray:
    """Per-page BiLSTM logits of every document, stacked in document order."""
    return np.concatenate([_bilstm_document(params, np.asarray(x, dtype=np.float64))[0]
                           for x in xs])


def bilstm_loss_and_grad_per_document(params, batch):
    """Mean page cross-entropy of a batch of (x, labels) documents and its
    gradient, by per-document backpropagation through time."""
    grads = {name: np.zeros_like(value) for name, value in params.items()}
    h_dim = params["head_w"].shape[0] // 2
    total_pages = sum(len(labels) for _, labels in batch)
    loss = 0.0
    for x, labels in batch:
        logits, both, fw_cache, bw_cache = _bilstm_document(
            params, np.asarray(x, dtype=np.float64))
        rows = np.arange(len(labels))
        p = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        loss -= float(np.log(p[rows, labels]).sum())
        p[rows, labels] -= 1.0
        dlogits = p / total_pages
        grads["head_w"] += both.T @ dlogits
        grads["head_b"] += dlogits.sum(axis=0)
        dboth = dlogits @ params["head_w"].T
        for direction, dstates, cache in (("fw", dboth[:, :h_dim], fw_cache),
                                          ("bw", dboth[::-1, h_dim:], bw_cache)):
            for name, grad in zip("wub", _lstm_backward_document(
                    dstates, cache, params[f"{direction}_w"],
                    params[f"{direction}_u"])):
                grads[f"{direction}_{name}"] += grad
    return loss / total_pages, grads


# -- dense Jacobi eigensolver ------------------------------------------------

def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns eigenvalues sorted descending and the matching eigenvectors as
    columns.  Exhaustive (all eigenpairs), independent of any iterative SVD.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-30:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(a.diagonal())[::-1]
    return a.diagonal()[order], v[:, order]


# -- regularized incomplete gamma / chi-square tail ---------------------------

def _gamma_series(a: float, x: float, eps: float = 1e-16) -> float:
    """Lower regularized incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    k = a
    for _ in range(10_000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * eps:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_cont_fraction(a: float, x: float, eps: float = 1e-16) -> float:
    """Upper regularized incomplete gamma Q(a, x) by Lentz's continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))

def reference_gammaincc(a: float, x: float) -> float:
    """Q(a, x): series for x < a+1, continued fraction otherwise."""
    if x < 0 or a <= 0:
        raise ValueError("domain error")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cont_fraction(a, x)

def reference_chi2_sf(stat: float, dof: int) -> float:
    """Upper-tail chi-square probability via the incomplete gamma above."""
    return reference_gammaincc(dof / 2.0, stat / 2.0)


# -- confusion-matrix scoring -------------------------------------------------

def naive_prf(preds: list[int], golds: list[int], n: int):
    """Independent per-class precision/recall/F1 by direct counting."""
    precision, recall, f1, support = [], [], [], []
    for c in range(n):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        pred_c = sum(1 for p in preds if p == c)
        gold_c = sum(1 for g in golds if g == c)
        p = tp / pred_c if pred_c else 0.0
        r = tp / gold_c if gold_c else 0.0
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(gold_c)
    return precision, recall, f1, support
