"""Corpus data model, JSONL ingestion, synthetic Markov-document generation,
and descriptive statistics (page counts, label runs, self-transition rates);
also the one reader of every input file's bytes, and the readers every JSON
file shares: one whole-file parse, the one JSONL line reader, the one reader
of the page lines of split and trace files, the typed reader of config and
checkpoint blocks, the format check, and the one encoding of float arrays in
checkpoint files.

A corpus is a three-way split of documents; each document is an ordered list
of pages carrying raw text and one or more gold page-type labels.  In memory
each split is one ``Documents`` record of columns: doc ids, document offsets
into the page rows, page texts and a (pages x n) gold indicator.  The single
on-disk format is a manifest JSON pointing at one JSONL file per split, one
page per line, holding exactly these fields:

    {"doc_id": str, "labels": [str, ...], "page_index": int, "text": str}
"""

from __future__ import annotations

import base64
import difflib
import gc
import hashlib
import json
import math
import sys
import typing
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from itertools import chain, repeat
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

MULTICLASS = "multiclass"
MULTILABEL = "multilabel"
FIRST_PAGE_TOKEN = "[-1]"

SPLIT_NAMES = ("train", "validation", "test")


class CorpusError(ValueError):
    """A fault of an input file (config, manifest, split file, checkpoint or
    trace file) or an output path, named by the file first: ``path: ...``
    or ``path:line: ...``.  Raised only at a file's boundary; every check
    below it raises a plain ValueError that names only the field."""


@dataclass(frozen=True)
class TypeVocabulary:
    """The n page-type classes, a list or tuple of distinct non-empty
    strings; none may be named the first-page marker."""

    class_names: tuple[str, ...]
    label_mode: str = MULTICLASS

    def __post_init__(self):
        if not (isinstance(self.class_names, (list, tuple))
                and all(type(name) is str for name in self.class_names)):
            raise ValueError("classes must be a list of strings")
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.label_mode not in (MULTICLASS, MULTILABEL):
            raise ValueError(f"unknown label_mode {self.label_mode!r}")
        if len(self.class_names) < 2:
            raise ValueError("need at least 2 page-type classes")
        if any(not name for name in self.class_names):
            raise ValueError("class names must be non-empty")
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError("class names must be unique")
        if FIRST_PAGE_TOKEN in self.class_names:
            raise ValueError(f"class name {FIRST_PAGE_TOKEN!r} is reserved for "
                             f"the first-page marker")

    @property
    def n(self) -> int:
        return len(self.class_names)

    @property
    def max_labels(self) -> int:
        """The most classes one page may carry: 1 on a multiclass corpus, n
        on a multilabel one."""
        return 1 if self.label_mode == MULTICLASS else self.n


class Documents:
    """The documents of one split as columns, one row per page in document
    order: document ``doc_ids[i]`` owns rows ``offsets[i]:offsets[i + 1]``,
    ``texts`` holds each page's text and ``gold`` is the (pages x n) 0/1
    indicator of its gold classes among those of ``vocab``, read in its
    ``label_mode``.  ``len`` is the number of documents.

    Built from each document's id and page count and each page's text and
    gold indicator row, checked against the class vocabulary.  This is the
    one place a split is checked: no document is empty, no doc_id repeats,
    ``gold`` is a bool array of shape (pages, n), every page has a label,
    and a multiclass page has exactly one.
    """

    def __init__(self, vocab: TypeVocabulary, doc_ids: Sequence[str],
                 sizes: Sequence[int], texts: Sequence[str], gold: np.ndarray):
        self.doc_ids = tuple(doc_ids)
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.texts = tuple(texts)
        self.vocab = vocab
        if not (len(self.offsets) == len(self.doc_ids) + 1
                and self.offsets[-1] == len(self.texts)):
            raise ValueError("doc_ids, sizes and texts do not align")
        empty = np.flatnonzero(np.diff(self.offsets) < 1)
        if empty.size:
            raise ValueError(f"document {self.doc_ids[empty[0]]!r} is empty")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValueError("duplicate doc_id in split")
        shape = (len(self.texts), vocab.n)
        if not (isinstance(gold, np.ndarray) and gold.dtype == bool
                and gold.shape == shape):
            raise ValueError(f"gold must be a bool array of shape {shape}")
        self.gold = gold
        check_label_count(gold, "gold", vocab)

    def page_name(self, row: int) -> str:
        """Row ``row`` as a message names a page: its index and document."""
        doc = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return f"page {row - int(self.offsets[doc])} of {self.doc_ids[doc]!r}"

    def __len__(self) -> int:
        return len(self.doc_ids)


@dataclass(frozen=True, eq=False)
class CorpusSplit:
    """Train/validation/test documents plus the shared type vocabulary.  A
    split that ``load_corpus`` was not asked to read is None."""

    train: Documents | None
    validation: Documents | None
    test: Documents | None
    vocabulary: TypeVocabulary

    def split(self, name: str) -> Documents:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        if getattr(self, name) is None:
            raise ValueError(f"split {name!r} was not read")
        return getattr(self, name)

    def splits(self) -> Iterable[tuple[str, Documents]]:
        return ((name, self.split(name)) for name in SPLIT_NAMES)


def page_positions(offsets: np.ndarray, n_rows: int) -> list[np.ndarray]:
    """Entry t holds, in document order, the row of page t of every document
    ``offsets[i]:offsets[i + 1]`` with more than t pages; so a page's
    predecessor is one row up.  This is the one check of offsets: they run
    from 0 to ``n_rows`` and give every document at least one page."""
    offsets = np.asarray(offsets)
    if not (len(offsets) and offsets[0] == 0 and offsets[-1] == n_rows):
        raise ValueError("document offsets must run from 0 to the number of rows")
    starts, sizes = offsets[:-1], np.diff(offsets)
    if np.any(sizes < 1):
        raise ValueError("every document needs at least one page")
    return [starts[sizes > t] + t for t in range(int(sizes.max(initial=0)))]


def document_rows(offsets: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """The row indices of documents ``chosen`` (an int array: in that order,
    repeats allowed) of a split laid out by ``offsets``, each in row order."""
    starts, sizes = offsets[chosen], offsets[chosen + 1] - offsets[chosen]
    return np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes,
                                              sizes)


# ---------------------------------------------------------------------------
# Input files, JSONL ingestion / emission
# ---------------------------------------------------------------------------


def read_input(path: Path | str, what: str) -> tuple[str, str]:
    """The text of the input file ``path`` as ``Path.read_text(encoding=
    "utf-8")`` gives it (strict UTF-8, "\\r\\n" and "\\r" read as "\\n"),
    and the SHA-256 of its bytes: what a provenance names the file by.  A
    file that cannot be read, or is not UTF-8, is a CorpusError that names
    ``path`` first and the file as ``what``.  The one reader of a file."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: {what} is not UTF-8 text") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, hashlib.sha256(data).hexdigest()


def _malformed(path, exc: Exception, lineno: int = 1) -> CorpusError:
    """The error of ``json.loads`` raising ``exc`` on the text of ``path``
    from its line ``lineno`` on: a syntax error named by its line and
    column, JSON nested deeper than the interpreter's recursion limit by
    ``lineno``."""
    if isinstance(exc, RecursionError):
        return CorpusError(f"{path}:{lineno}: malformed JSON (nested too deeply)")
    return CorpusError(f"{path}:{lineno - 1 + exc.lineno}:{exc.colno}: malformed JSON "
                       f"({exc.msg})")


def read_json(path: Path | str, what: str):
    """The JSON value of the whole input file ``path`` (a config, manifest
    or checkpoint), read by ``read_input``, and the SHA-256 of its bytes."""
    text, digest = read_input(path, what)
    try:
        return json.loads(text), digest
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _malformed(path, exc) from None


@contextmanager
def reading(path):
    """The boundary of the input file (or command-line option) ``path``,
    around the checks of what it holds: their ValueError becomes a
    CorpusError that names ``path`` first; a CorpusError passes through."""
    try:
        yield
    except CorpusError:
        raise
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from None


@contextmanager
def gc_paused():
    """The cyclic garbage collector paused, as a context or a decorator.
    Parsed JSON holds no reference cycles, so a collection while a file is
    parsed and checked frees none of it: it only walks the parsed values and
    moves them on to the oldest generation, whose collections walk the whole
    heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# the scanner json.loads decodes with: one JSON value starting at an index,
# with no whitespace skipped and nothing checked after the value
_SCAN = json.JSONDecoder().scan_once


def read_jsonl(path: Path | str, text: str) -> tuple[list[int], list]:
    """The line number and JSON value of each non-blank line of ``text``,
    the text of the file ``path``, split on "\\n" only: a JSON string may
    hold U+2028 and the like raw.

    Each value, and each error, is the one ``json.loads(line)`` gives.  A
    line the scanner reads whole keeps the scanner's value; any other line
    (whitespace around the value, a BOM, a second value, a syntax error)
    goes to ``json.loads``.  A malformed line is a CorpusError named by the
    file's line and column, a line nested deeper than the interpreter's
    recursion limit by its line.
    """
    linenos, values = [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            value, end = _SCAN(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):  # blank, or not one value read whole
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise _malformed(path, exc, lineno) from None
        linenos.append(lineno)
        values.append(value)
    return linenos, values


def first_appearance(keys: Sequence) -> tuple[list, np.ndarray]:
    """The distinct hashable ``keys`` in order of first appearance, and the
    index of each key among them."""
    distinct = dict.fromkeys(keys)
    code = dict(zip(distinct, range(len(distinct))))
    return list(distinct), np.fromiter(map(code.__getitem__, keys),
                                       dtype=np.int64, count=len(keys))


# the name a type fault gives each JSON type, in a page line's field and in
# a config, manifest or checkpoint field alike (an int is accepted as a float)
_JSON_TYPES = {str: "a string", int: "an int", float: "a number", bool: "a bool",
               list: "a list", dict: "an object", type(None): "null"}


def page_columns(pages: list, fields: Mapping[str, tuple]) -> list[list]:
    """The column of each field of ``fields``, in its order, of parsed page
    lines.  Every line must be a JSON object with exactly the keys of
    ``fields``, each holding a value of one of its field's JSON types (a
    bool is no int).  A fault raises ValueError, naming no line: see
    ``read_page_lines``."""
    if not set(map(type, pages)) <= {dict}:
        raise ValueError("expected a JSON object")
    # one list per field: per-page tuples would live long enough to be
    # promoted to the oldest GC generation, and bring on full collections
    try:
        columns = [list(map(itemgetter(key), pages)) for key in fields]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    # a line with every field and no more keys than there are fields has
    # exactly those keys
    if max(map(len, pages), default=0) > len(fields):
        for page in pages:
            _block(page, fields, "")
    for (key, kinds), column in zip(fields.items(), columns):
        if not set(map(type, column)) <= set(kinds):
            raise ValueError(f"field {key!r} must be "
                             f"{' or '.join(map(_JSON_TYPES.__getitem__, kinds))}")
    return columns


def class_indicator(name_lists: Sequence[list], field: str,
                    names: Sequence[str]) -> np.ndarray:
    """The (pages x len(names)) 0/1 rows of the lists of column ``names`` in
    ``field`` of each page line.  ValueError if a name is not a string or no
    column's, and for the first-page marker in a list with other names, as
    it is fed alone."""
    flat = list(chain.from_iterable(name_lists))
    if not set(map(type, flat)) <= {str}:
        raise ValueError(f"field {field!r} holds a label name that is not a string")
    index = dict(zip(names, range(len(names))))
    column = np.fromiter(map(index.get, flat, repeat(-1)), dtype=np.int64,
                         count=len(flat))
    counts = np.fromiter(map(len, name_lists), dtype=np.int64, count=len(name_lists))
    unknown = (column < 0) | ((column == index.get(FIRST_PAGE_TOKEN, -1))
                              & np.repeat(counts > 1, counts))
    if unknown.any():
        raise ValueError(f"unknown label name {flat[unknown.argmax()]!r} in "
                         f"field {field!r}")
    indicator = np.zeros((len(name_lists), len(names)), dtype=bool)
    indicator[np.repeat(np.arange(len(name_lists)), counts), column] = True
    return indicator


def check_label_count(indicator: np.ndarray, field: str, vocab: TypeVocabulary) -> None:
    """ValueError unless each row of the indicator of ``field`` of page
    lines sets 1 to ``vocab.max_labels`` columns: a page's labels, and the
    context it was fed."""
    counts = indicator.sum(axis=1)
    bad = counts[(counts == 0) | (counts > vocab.max_labels)]
    if bad.size:
        raise ValueError(f"field {field!r} holds {bad[0]} labels in "
                         f"{vocab.label_mode} mode")


def read_page_lines(path: Path | str, linenos: Sequence[int], pages: list, read):
    """``read(pages)``, where ``read`` refuses page lines with a ValueError
    that names no line, and no rule of it depends on a later line.  If it
    refuses them, raise a CorpusError with the message of the shortest prefix of
    the lines that it refuses, named by the ``path:lineno`` of the prefix's
    last line: the first bad line in file order.  Bisection finds that
    prefix in O(n log n), and only once a read has failed."""
    try:
        return read(pages)
    except ValueError as exc:
        fault = exc
    good, bad = 0, len(pages)  # read takes pages[:good] and refuses pages[:bad]
    while bad - good > 1:
        middle = (good + bad) // 2
        try:
            read(pages[:middle])
            good = middle
        except ValueError as exc:
            bad, fault = middle, exc
    raise CorpusError(f"{path}:{linenos[bad - 1]}: {fault}") from None


# the fields of a split file's page line, and the JSON type each holds
_PAGE_FIELDS = {"doc_id": (str,), "page_index": (int,), "text": (str,),
                "labels": (list,)}


def _split_lines(pages: list, vocab: TypeVocabulary) -> tuple:
    """The doc ids (in order of first appearance) and page counts of the
    documents of a split file's page lines, and its pages' texts and gold
    indicator rows in document order.  Each page has 1 to
    ``vocab.max_labels`` labels; each document's pages must come in
    page_index order 0..l-1."""
    doc_ids, page_indices, texts, labels = page_columns(pages, _PAGE_FIELDS)
    gold = class_indicator(labels, "labels", vocab.class_names)
    check_label_count(gold, "labels", vocab)
    # each page's row among its document's, in file order
    docs, doc = first_appearance(doc_ids)
    order = np.argsort(doc, kind="stable")
    sizes = np.bincount(doc)
    rank = np.empty_like(doc)
    rank[order] = np.arange(len(doc)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    ranks = rank.tolist()
    if ranks != page_indices:
        row = list(map(ne, ranks, page_indices)).index(True)
        doc_id, index, expected = doc_ids[row], page_indices[row], ranks[row]
        if 0 <= index < expected:
            raise ValueError(f"duplicate page {(doc_id, index)}")
        raise ValueError(f"page_index {index} of document {doc_id!r}, expected "
                         f"{expected} (pages run 0..l-1 in file order)")
    return docs, sizes.tolist(), list(map(texts.__getitem__, order.tolist())), gold[order]


@gc_paused()
def load_split_file(path: Path | str, vocab: TypeVocabulary) -> Documents:
    """Load one JSONL page file into documents, grouped by doc_id in order of
    first appearance; each document's pages must come in page_index order
    0..l-1.

    A malformed JSON line is reported first, as the whole file is parsed
    before any check; then the first bad page line, in file order
    (``read_page_lines``), whose rules leave none of ``Documents`` to
    fail."""
    linenos, pages = read_jsonl(path, read_input(path, "split file")[0])
    return Documents(vocab, *read_page_lines(
        path, linenos, pages, lambda lines: _split_lines(lines, vocab)))


# ---------------------------------------------------------------------------
# Whole JSON files, typed blocks, formats and checkpoint float arrays
# ---------------------------------------------------------------------------


def _label(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _block(obj, keys, where: str, required: Iterable[str] = ()) -> dict:
    """``obj``, the JSON object of field ``where`` ("" for a file's top
    level), whose keys are all among ``keys`` and include ``required``; an
    unknown key is reported with the nearest valid one, both by field."""
    if not isinstance(obj, dict):
        raise ValueError(f"field {where!r} must be an object" if where
                         else "expected a JSON object")
    for key in obj:
        if key not in keys:
            near = difflib.get_close_matches(key, keys, n=1)
            hint = f"; did you mean {_label(where, near[0])!r}?" if near else ""
            raise ValueError(f"unknown field {_label(where, key)!r}{hint}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing field {_label(where, key)!r}")
    return obj


def _typed(value, hint, label: str):
    """``value`` of field ``label`` checked against ``hint``: int, float,
    str, bool, dict (a JSON object), or a tuple of them, which a JSON array
    becomes.  An int is accepted as a float; NaN and +-Infinity, which
    Python's json reads, are not."""
    what = f"field {label!r}"
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            raise ValueError(f"{what} must be a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{what} must be a list of {len(args)} values")
        return tuple(_typed(v, a, f"{label}[{i}]")
                     for i, (v, a) in enumerate(zip(value, args)))
    if hint is float and type(value) is int:  # too large for a float: inf
        value = float(value) if abs(value) <= sys.float_info.max else np.inf
    if type(value) is not hint:
        raise ValueError(f"{what} must be {_JSON_TYPES[hint]}")
    if hint is float and not np.isfinite(value):
        raise ValueError(f"{what} must be finite")
    return value


def _config_from(cls, obj, where: str, complete: bool = False, **given):
    """Dataclass ``cls`` from the JSON object ``obj`` of field ``where``,
    whose keys must be fields of ``cls`` holding values of their types.  A
    field in ``given`` is the caller's (in a ``train`` config, a seed
    derived from the top-level ``seed``), which ``obj`` may not hold.  Any
    other field that ``obj`` leaves out takes the dataclass default; with
    ``complete`` (a checkpoint, which records every field) it must be in
    ``obj``."""
    hints = typing.get_type_hints(cls)
    values = dict(given)
    for name, value in _block(obj, [f.name for f in fields(cls)], where, [
            f.name for f in fields(cls) if f.name not in given
            and (complete or f.default is MISSING)]).items():
        if name in given:
            raise ValueError(f"field {_label(where, name)!r} is set by 'seed'")
        values[name] = _typed(value, hints[name], _label(where, name))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"field {where!r}: {exc}" if where else str(exc)) from None


# the layout of every checkpoint kind (encoder, CRF, BiLSTM): each fact is
# stored once, and the encoder's and the BiLSTM's float arrays are
# ``float_block``s.  A CRF's own (n x n) transition and n start scores stay
# lists of numbers, the form in which perfbench/checks.py reads them.
CHECKPOINT_FORMAT = "f8le-blocks/2"


def check_format(obj, what: str, expected: str = CHECKPOINT_FORMAT,
                 command: str = "train") -> None:
    """Raise ValueError unless the JSON object ``obj`` records the format
    ``expected``; the message names ``what`` and the ``command`` that
    writes it anew."""
    found = obj.get("format") if isinstance(obj, dict) else None
    if found != expected:
        raise ValueError(f"{what} format {found!r} is not {expected!r}; "
                         f"re-run `{command}` to write it anew")


def float_block(array) -> dict:
    """A float array as a checkpoint writes it: its shape and the base64 of
    its C-order little-endian float64 bytes, which ``read_float_block``
    turns back into the same bits."""
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape),
            "f8le": base64.b64encode(array.tobytes()).decode("ascii")}


def float_block_shape(block, field: str) -> tuple[int, ...]:
    """The shape a ``float_block`` records, read before its data; ValueError,
    naming ``field``, unless ``block`` is an object with exactly the keys
    "shape" (a list of non-negative ints) and "f8le"."""
    if not isinstance(block, dict) or block.keys() != {"shape", "f8le"}:
        raise ValueError(f"{field}: must be an object with exactly the keys 'shape' "
                         f"and 'f8le'")
    shape = block["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{field}: 'shape' must be a list of non-negative ints")
    return tuple(shape)


def read_float_block(block, field: str) -> np.ndarray:
    """The writable float64 array of a ``float_block``; ValueError, naming
    ``field``, unless ``block`` has a ``float_block_shape`` and "f8le" holds
    strict base64 of 8 bytes per element."""
    shape, data = float_block_shape(block, field), block["f8le"]
    try:
        if not isinstance(data, str):
            raise ValueError("'f8le' must be a base64 string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as exc:
            raise ValueError(f"'f8le' is not strict base64 ({exc})") from None
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"'f8le' holds {len(raw)} bytes, shape {list(shape)} "
                             f"needs {8 * math.prod(shape)}")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def load_corpus(path: Path | str,
                splits: Sequence[str] = SPLIT_NAMES) -> CorpusSplit:
    """Load a corpus from its manifest file, parsing only the ``splits`` named.

    The manifest lists the class names, the label mode, and one JSONL path
    per split (relative paths resolved against the manifest's directory),
    and may record a provenance; any other key is refused.  It is checked
    whole; a split left out is None in the result.
    """
    path = Path(path)
    manifest, _ = read_json(path, "manifest")
    with reading(path):
        _block(manifest, ("classes", "label_mode", *SPLIT_NAMES, "provenance"), "",
               ("classes", "label_mode", *SPLIT_NAMES))
        for name in SPLIT_NAMES:
            _typed(manifest[name], str, name)
        vocab = TypeVocabulary(manifest["classes"], manifest["label_mode"])
    read = {
        name: load_split_file(path.parent / manifest[name], vocab)
        if name in splits else None
        for name in SPLIT_NAMES
    }
    return CorpusSplit(read["train"], read["validation"], read["test"], vocab)


# the string encoder of json.dumps(..., ensure_ascii=False), built once
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_corpus(split: CorpusSplit, directory: Path | str,
                 provenance: Mapping | None = None) -> Path:
    """Write the three JSONL split files plus a manifest; returns the manifest path.

    Writer is deterministic: docs and pages in corpus order, and each page
    line is the bytes ``json.dumps(page, sort_keys=True, ensure_ascii=False)``
    gives, built from pieces encoded once: the doc id per document, the label
    list per distinct gold row, the text per page.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    encode = _ENCODER.encode
    quoted = [encode(name) for name in split.vocabulary.class_names]
    for name, docs in split.splits():
        rows = list(map(tuple, docs.gold.tolist()))
        # the label list as json.dumps writes it, once per distinct gold row
        label_lists = {row: "[" + ", ".join(q for q, on in zip(quoted, row) if on) + "]"
                       for row in set(rows)}
        labels = [label_lists[row] for row in rows]
        texts, bounds = docs.texts, docs.offsets.tolist()
        lines = []
        for doc_id, start, end in zip(docs.doc_ids, bounds, bounds[1:]):
            head = '{"doc_id": ' + encode(doc_id) + ', "labels": '
            for t, row in enumerate(range(start, end)):
                lines.append(f'{head}{labels[row]}, "page_index": {t}, '
                             f'"text": {encode(texts[row])}}}\n')
        (directory / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
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


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for the Markov-chain document generator.

    Page class sequences follow ``transition_matrix``; page text mixes tokens
    from a shared (class-uninformative) pool and the current class's pool.
    ``ambiguity`` is the exact per-page fraction of shared-pool tokens
    (rounded to the nearest count).
    """

    n_classes: int
    transition_matrix: tuple[tuple[float, ...], ...]
    start_distribution: tuple[float, ...]
    pages_per_doc: tuple[int, int] = (4, 12)
    tokens_per_page: tuple[int, int] = (5, 30)
    class_vocab_size: int = 50
    shared_vocab_size: int = 100
    ambiguity: float = 0.5
    seed: int = 0
    docs_per_split: tuple[int, int, int] = (80, 10, 10)

    def __post_init__(self):
        object.__setattr__(
            self, "transition_matrix",
            tuple(tuple(float(x) for x in row) for row in self.transition_matrix),
        )
        object.__setattr__(
            self, "start_distribution",
            tuple(float(x) for x in self.start_distribution),
        )
        n = self.n_classes
        if not _is_int(n):
            raise ValueError("n_classes must be an integer")
        if n < 2:
            raise ValueError("n_classes must be >= 2")
        if len(self.transition_matrix) != n or any(len(r) != n for r in self.transition_matrix):
            raise ValueError("transition_matrix must be n x n")
        if len(self.start_distribution) != n:
            raise ValueError("start_distribution must have length n")
        for what, dist in [*((f"transition_matrix row {i}", row)
                             for i, row in enumerate(self.transition_matrix)),
                           ("start_distribution", self.start_distribution)]:
            if not all(math.isfinite(p) for p in dist):
                raise ValueError(f"{what} has a non-finite entry")
            if any(p < 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError(f"{what} is not stochastic")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ValueError("ambiguity must be in [0, 1]")
        for field_name, size in (("pages_per_doc", 2), ("tokens_per_page", 2),
                                 ("docs_per_split", 3)):
            value = getattr(self, field_name)
            if len(value) != size or not all(_is_int(x) for x in value):
                raise ValueError(f"{field_name} must be {size} integers")
            if size == 2 and not 1 <= value[0] <= value[1]:
                raise ValueError(f"invalid {field_name} range {tuple(value)}")
            # numpy draws from int64: its upper end + 1 must be at most 2**63
            if size == 2 and value[1] >= 2**63:
                raise ValueError(f"{field_name} must end below 2**63")
        for field_name in ("class_vocab_size", "shared_vocab_size"):
            value = getattr(self, field_name)
            if not _is_int(value) or not 1 <= value <= 2**63:
                raise ValueError(f"{field_name} must be an integer in 1..2**63")
        if any(d < 1 for d in self.docs_per_split):
            raise ValueError("docs_per_split entries must be >= 1")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")

    @classmethod
    def uniform(cls, n_classes: int, self_prob: float, seed: int = 0, **kwargs) -> "SynthConfig":
        """Convenience constructor: self-transition ``self_prob``, remainder uniform."""
        if not 0.0 <= self_prob <= 1.0:   # also NaN
            raise ValueError(f"self_transition must be in [0, 1], got {self_prob!r}")
        # n_classes < 2 is rejected by __post_init__, after a safe division
        off = (1.0 - self_prob) / max(n_classes - 1, 1)
        matrix = tuple(
            tuple(self_prob if i == j else off for j in range(n_classes))
            for i in range(n_classes)
        )
        start = tuple(1.0 / n_classes for _ in range(n_classes))
        return cls(n_classes, matrix, start, seed=seed, **kwargs)


def _cdf(p: Sequence[float]) -> list[float]:
    """The cumulative distribution ``Generator.choice(n, p=p)`` draws from:
    ``p.cumsum()`` divided by its last element.  ``bisect_right(cdf, u)``
    of a uniform ``u`` is then the class ``choice`` picks for that ``u``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class _Memo(dict):
    """``make(k)`` by key, each made on its first lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, k):
        value = self[k] = self.make(k)
        return value


def generate_synthetic(cfg: SynthConfig) -> CorpusSplit:
    """Generate a multiclass corpus; a pure function of the config (seed included).

    One generator seeded with ``cfg.seed`` makes the train, validation and
    test documents in turn.  Each document draws its page count, then each
    page draws, in this order: its class (from ``start_distribution`` on the
    first page, else from the previous class's ``transition_matrix`` row),
    its token count, the shared-pool token ids, the class-pool token ids,
    and the permutation that interleaves them.  That order and the seed fix
    the corpus bytes.  A page makes them in four calls: one ``integers``
    call, bounded by each id's pool size, draws the ids of both pools as a
    sized call per pool would, and ``shuffle`` on the page's tokens makes
    the swaps of ``permutation``.
    """
    rng = np.random.default_rng(cfg.seed)
    integers, uniform, shuffle = rng.integers, rng.random, rng.shuffle
    start = _cdf(cfg.start_distribution)
    successor = [_cdf(row) for row in cfg.transition_matrix]
    shared = _Memo("sh_w{}".format)
    own = [_Memo(f"c{c}_w{{}}".format) for c in range(cfg.n_classes)]
    pools = (cfg.shared_vocab_size, cfg.class_vocab_size)
    # int64 bounds draw fastest; a pool of 2**63 ids needs uint64
    pool_sizes = np.array(pools, dtype=np.int64 if max(pools) < 2**63 else np.uint64)

    def id_bounds(n_tokens: int) -> tuple[int, np.ndarray]:
        n_shared = int(cfg.ambiguity * n_tokens + 0.5)
        return n_shared, np.repeat(pool_sizes, (n_shared, n_tokens - n_shared))

    bounds = _Memo(id_bounds)  # by token count, as each count is first drawn
    lo, hi = cfg.pages_per_doc
    t_lo, t_hi = cfg.tokens_per_page
    vocab = TypeVocabulary(tuple(f"c{i}" for i in range(cfg.n_classes)), MULTICLASS)
    one_hot = np.eye(cfg.n_classes, dtype=bool)
    splits = []
    for name, count in zip(SPLIT_NAMES, cfg.docs_per_split):
        sizes, texts, classes = [], [], []
        for _ in range(count):
            length = int(integers(lo, hi + 1))
            cdf = start
            for _ in range(length):
                c = bisect_right(cdf, uniform())
                cdf = successor[c]
                n_shared, high = bounds[int(integers(t_lo, t_hi + 1))]
                ids = integers(0, high).tolist()
                tokens = list(map(shared.__getitem__, ids[:n_shared]))
                tokens += map(own[c].__getitem__, ids[n_shared:])
                shuffle(tokens)
                texts.append(" ".join(tokens))
                classes.append(c)
            sizes.append(length)
        splits.append(Documents(vocab, [f"{name}-{i:04d}" for i in range(count)],
                                sizes, texts, one_hot[classes]))
    return CorpusSplit(splits[0], splits[1], splits[2], vocab)


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------


def class_page_counts(split: CorpusSplit) -> dict[str, dict[str, int]]:
    """Pages per class per split; a multi-label page increments each of its labels."""
    names = split.vocabulary.class_names
    return {name: dict(zip(names, docs.gold.sum(axis=0).tolist()))
            for name, docs in split.splits()}


def _page_classes(docs: Documents) -> np.ndarray:
    """The class of every page of a multiclass split."""
    if docs.vocab.label_mode != MULTICLASS:
        raise ValueError("run/transition statistics require multiclass labels")
    return docs.gold.argmax(axis=1)


@dataclass(frozen=True)
class RunLengthStats:
    median_run: float
    max_run: int
    total_pages: int


def run_length_stats(docs: Documents) -> dict[int, RunLengthStats]:
    """Per-class stats over maximal runs of consecutive same-label pages.

    Runs never cross document boundaries.  The median of an even-length run
    set is the mean of the two middle values.
    """
    classes = _page_classes(docs)
    # a run starts on a document's first page and on every change of class
    starts = np.ones(len(classes), dtype=bool)
    starts[1:] = classes[1:] != classes[:-1]
    starts[docs.offsets[:-1]] = True
    begins = np.flatnonzero(starts)
    lengths = np.diff(np.append(begins, len(classes)))
    stats = {}
    for c in np.unique(classes[begins]).tolist():
        runs = lengths[classes[begins] == c]
        stats[c] = RunLengthStats(median_run=float(np.median(runs)),
                                  max_run=int(runs.max()), total_pages=int(runs.sum()))
    return stats


@dataclass(frozen=True)
class SelfTransitionStats:
    """Per-class probability that the next page repeats the class, plus the
    macro average over classes for which the probability is defined."""

    per_class: dict[int, float]
    macro: float


def transition_self_prob(docs: Documents) -> SelfTransitionStats:
    """P(next page has the same class) per class, over pages with a successor."""
    classes = _page_classes(docs)
    # every page but each document's last has a successor
    rows = np.setdiff1d(np.arange(len(classes)), docs.offsets[1:] - 1)
    n = docs.gold.shape[1]
    total = np.bincount(classes[rows], minlength=n).tolist()
    same = np.bincount(classes[rows][classes[rows + 1] == classes[rows]],
                       minlength=n).tolist()
    per_class = {c: same[c] / total[c] for c in range(n) if total[c]}
    if not per_class:
        raise ValueError("no page transitions found")
    macro = sum(per_class.values()) / len(per_class)
    return SelfTransitionStats(per_class=per_class, macro=macro)
