"""Corpus data model, JSONL ingestion, synthetic Markov-document generation,
and descriptive statistics (page counts, label runs, self-transition rates);
also the readers every JSON file shares: one whole-file parse, the typed
reader of config and checkpoint blocks, the format check, and the one
encoding of float arrays in checkpoint files.

A corpus is a three-way split of documents; each document is an ordered list
of pages carrying raw text and one or more gold page-type labels.  In memory
each split is one ``Documents`` record of columns: doc ids, document offsets
into the page rows, page texts and a (pages x n) gold indicator.  The single
on-disk format is a manifest JSON pointing at one JSONL file per split, one
page per line:

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
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

MULTICLASS = "multiclass"
MULTILABEL = "multilabel"
FIRST_PAGE_TOKEN = "[-1]"

SPLIT_NAMES = ("train", "validation", "test")


class CorpusError(ValueError):
    """Malformed corpus file, invalid labels, or invalid generator config."""


@dataclass(frozen=True)
class TypeVocabulary:
    """The n page-type classes; none may be named the first-page marker."""

    class_names: tuple[str, ...]
    label_mode: str = MULTICLASS

    def __post_init__(self):
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.label_mode not in (MULTICLASS, MULTILABEL):
            raise CorpusError(f"unknown label_mode {self.label_mode!r}")
        if len(self.class_names) < 2:
            raise CorpusError("need at least 2 page-type classes")
        if any(not name for name in self.class_names):
            raise CorpusError("class names must be non-empty")
        if len(set(self.class_names)) != len(self.class_names):
            raise CorpusError("class names must be unique")
        if FIRST_PAGE_TOKEN in self.class_names:
            raise CorpusError(f"class name {FIRST_PAGE_TOKEN!r} is reserved for "
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
    indicator of its gold classes, read in the vocabulary's ``label_mode``.
    ``len`` is the number of documents.

    Built from each document's id and page count and each page's text and
    gold class indices, checked against the class vocabulary.  This is the
    one place a split is checked: no document is empty, no doc_id repeats,
    every label is a class index (a non-bool int in 0..n-1), every page has
    a label, and a multiclass page has exactly one.
    """

    def __init__(self, vocab: TypeVocabulary, doc_ids: Sequence[str],
                 sizes: Sequence[int], texts: Sequence[str],
                 labels: Sequence[Collection[int]]):
        self.doc_ids = tuple(doc_ids)
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.texts = tuple(texts)
        self.label_mode = vocab.label_mode
        if not (len(self.offsets) == len(self.doc_ids) + 1
                and self.offsets[-1] == len(self.texts) == len(labels)):
            raise CorpusError("doc_ids, sizes, texts and labels do not align")
        empty = np.flatnonzero(np.diff(self.offsets) < 1)
        if empty.size:
            raise CorpusError(f"document {self.doc_ids[empty[0]]!r} is empty")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise CorpusError("duplicate doc_id in split")
        rows = np.repeat(np.arange(len(labels)), list(map(len, labels)))
        flat = list(chain.from_iterable(labels))
        n = vocab.n
        if not (set(map(type, flat)) <= {int}
                and (not flat or 0 <= min(flat) and max(flat) < n)):
            for row, c in zip(rows.tolist(), flat):
                if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < n:
                    raise CorpusError(f"{self._page(row)}: label {c!r} is not a "
                                      f"class index; a label index is an int in "
                                      f"0..{n - 1}")
        self.gold = np.zeros((len(labels), n), dtype=bool)
        self.gold[rows, np.array(flat, dtype=np.int64)] = True
        counts = self.gold.sum(axis=1)
        bad = np.flatnonzero((counts == 0) | (counts > vocab.max_labels))
        if bad.size:
            row = int(bad[0])
            raise CorpusError(f"{self._page(row)} has no labels" if not counts[row]
                              else f"{self._page(row)} carries {counts[row]} "
                                   f"labels in multiclass mode")

    def _page(self, row: int) -> str:
        doc = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return f"page ({self.doc_ids[doc]!r}, {row - int(self.offsets[doc])})"

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
            raise CorpusError(f"unknown split {name!r}")
        if getattr(self, name) is None:
            raise CorpusError(f"split {name!r} was not read")
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
# JSONL ingestion / emission
# ---------------------------------------------------------------------------


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


def read_jsonl(text: str) -> tuple[list[int], list]:
    """The line number and JSON value of each non-blank line of ``text``,
    split on "\\n" only: a JSON string may hold U+2028 and the like raw.

    Each value, and each error, is the one ``json.loads(line)`` gives.  A
    line the scanner reads whole keeps the scanner's value; any other line
    (whitespace around the value, a BOM, a second value, a syntax error)
    goes to ``json.loads``.  A malformed line raises ``JSONDecodeError`` at
    its position in ``text``, so that its ``lineno`` is the file's line; so
    does a line nested deeper than the interpreter's recursion limit, at the
    line's start.
    """
    linenos, values = [], []
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
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
                msg, pos = ((exc.msg, exc.pos) if isinstance(exc, json.JSONDecodeError)
                            else ("nested too deeply", 0))
                start = sum(map(len, lines[:lineno - 1])) + lineno - 1
                raise json.JSONDecodeError(msg, text, start + pos) from None
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


# the fields of a page line and the one type each must have (a bool is no int)
_PAGE_FIELDS = {"doc_id": str, "page_index": int, "text": str, "labels": list}


def _page_columns(pages: list, index: Mapping[str, int]) -> tuple | None:
    """The doc ids (in order of first appearance), page counts, texts and
    class index tuples of the documents of parsed page lines, checked a
    column at a time; None if some line breaks a rule of ``_line_fault``."""
    if not pages:
        return [], [], [], []
    if set(map(type, pages)) != {dict}:
        return None
    # one list per field: per-page tuples would live long enough to be
    # promoted to the oldest GC generation, and bring on full collections
    try:
        columns = [list(map(itemgetter(key), pages)) for key in _PAGE_FIELDS]
    except KeyError:
        return None
    if any(set(map(type, column)) != {kind}
           for column, kind in zip(columns, _PAGE_FIELDS.values())):
        return None
    doc_ids, page_indices, texts, name_lists = columns
    keys = list(map(tuple, name_lists))
    try:  # an unknown label, or one that is not a string, is no key of index
        classes = {key: tuple(map(index.__getitem__, key)) for key in set(keys)}
    except (KeyError, TypeError):
        return None
    # each page's row among its document's, in file order
    docs, doc = first_appearance(doc_ids)
    order = np.argsort(doc, kind="stable")
    sizes = np.bincount(doc)
    rank = np.empty_like(doc)
    rank[order] = np.arange(len(doc)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    if rank.tolist() != page_indices:
        return None
    rows = order.tolist()
    return (docs, sizes.tolist(), list(map(texts.__getitem__, rows)),
            list(map(classes.__getitem__, map(keys.__getitem__, rows))))


def _line_fault(path: Path, linenos: Sequence[int], pages: list,
                index: Mapping[str, int]) -> str:
    """The error of the first line, in file order, that is not a page object
    with fields of the right types and known label names, or whose
    page_index is not its document's next.  Called once a column check of
    ``_page_columns`` has failed, so some line breaks a rule."""
    seen: dict[str, int] = {}
    for lineno, obj in zip(linenos, pages):
        where = f"{path}:{lineno}"
        if not isinstance(obj, dict):
            return f"{where}: expected a JSON object"
        for key, kind in _PAGE_FIELDS.items():
            if key not in obj:
                return f"{where}: missing field {key!r}"
            if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
                return f"{where}: field {key!r} has wrong type"
        for name in obj["labels"]:
            if not isinstance(name, str):
                return f"{where}: labels must be strings"
            if name not in index:
                return f"{where}: unknown label {name!r}"
        doc_id, page_index = obj["doc_id"], obj["page_index"]
        expected = seen.get(doc_id, 0)
        if page_index != expected:
            if 0 <= page_index < expected:
                return f"{where}: duplicate page {(doc_id, page_index)}"
            return (f"{where}: page_index {page_index} of document {doc_id!r}, "
                    f"expected {expected} (pages run 0..l-1 in file order)")
        seen[doc_id] = expected + 1
    raise AssertionError("a column check failed but every line keeps the rules")


@gc_paused()
def load_split_file(path: Path | str, vocab: TypeVocabulary) -> Documents:
    """Load one JSONL page file into documents, grouped by doc_id in order of
    first appearance; each document's pages must come in page_index order
    0..l-1.

    The lines are checked a column at a time.  Only once a column check
    fails does a pass over the lines name the first bad line, with the error
    a line-by-line reader gives.  In a file with several faults that reader
    may stop at a bad line before a malformed JSON one; here the malformed
    JSON line is reported first, as the whole file is parsed before any
    check."""
    path = Path(path)
    try:
        linenos, pages = read_jsonl(_read_text(path, "split file"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}:{exc.lineno}: malformed JSON ({exc.msg})") from None
    index = {name: c for c, name in enumerate(vocab.class_names)}
    columns = _page_columns(pages, index)
    if columns is None:
        raise CorpusError(_line_fault(path, linenos, pages, index))
    try:
        return Documents(vocab, *columns)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def read_text_sha256(path: Path | str) -> tuple[str, str]:
    """The text of a file as ``Path.read_text(encoding="utf-8")`` gives it
    (strict UTF-8, "\\r\\n" and "\\r" read as "\\n"), and the SHA-256 of its
    bytes: what a provenance names the file by."""
    data = Path(path).read_bytes()
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Whole JSON files, typed blocks, formats and checkpoint float arrays
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Invalid config file or invalid command arguments."""


def parse_json(text: str):
    """``json.loads(text)`` of a whole file; JSON nested deeper than the
    interpreter's recursion limit is a JSONDecodeError ("nested too
    deeply"), as a syntax error is."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def _label(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _block(obj, keys, where: str, noun: str = "config") -> dict:
    """``obj`` as a JSON object whose keys are all among ``keys``; an unknown
    key is reported with the nearest valid one.  ``noun`` names what the
    object is read from, in every message."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{noun} field {where!r} must be an object" if where
                          else f"{noun} must be a JSON object")
    for key in obj:
        if key not in keys:
            near = difflib.get_close_matches(key, keys, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown {noun} field {_label(where, key)!r}{hint}")
    return obj


def _typed(value, hint, label: str, noun: str = "config"):
    """``value`` checked against ``hint``: int, float, str, bool, or a tuple
    of them, which a JSON array becomes.  An int is accepted as a float;
    NaN and +-Infinity, which Python's json reads, are not.  ``noun`` names
    what the value is read from, in every message."""
    what = f"{noun} field {label!r}"
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            raise ConfigError(f"{what} must be a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{what} must be a list of {len(args)} values")
        return tuple(_typed(v, a, f"{label}[{i}]", noun)
                     for i, (v, a) in enumerate(zip(value, args)))
    if hint is float and type(value) is int:  # too large for a float: inf
        value = float(value) if abs(value) <= sys.float_info.max else np.inf
    if type(value) is not hint:
        raise ConfigError(f"{what} must be {hint.__name__}")
    if hint is float and not np.isfinite(value):
        raise ConfigError(f"{what} must be finite")
    return value


def _config_from(cls, obj, where: str, complete: bool = False, **given):
    """Dataclass ``cls`` from the JSON object ``obj``, whose keys must be
    fields of ``cls`` holding values of their types.  A field that ``obj``
    leaves out takes its value from ``given`` (what the caller derives, such
    as seeds), else the dataclass default; with ``complete`` (a checkpoint,
    which records every field, and is named in messages) it must be in one
    of them."""
    noun = "checkpoint" if complete else "config"
    hints = typing.get_type_hints(cls)
    values = dict(given)
    for name, value in _block(obj, [f.name for f in fields(cls)], where,
                              noun).items():
        values[name] = _typed(value, hints[name], _label(where, name), noun)
    for f in fields(cls):
        if f.name not in values and (complete or f.default is MISSING):
            raise ConfigError(f"missing {noun} field {_label(where, f.name)!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where or 'config'}: {exc}") from None


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


def read_float_block(block, field: str) -> np.ndarray:
    """The writable float64 array of a ``float_block``; ValueError, naming
    ``field``, unless ``block`` is an object with exactly the keys "shape"
    (a list of non-negative ints) and "f8le" (strict base64 of 8 bytes per
    element)."""
    try:
        if not isinstance(block, dict) or block.keys() != {"shape", "f8le"}:
            raise ValueError("must be an object with exactly the keys 'shape' "
                             "and 'f8le'")
        shape, data = block["shape"], block["f8le"]
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError("'shape' must be a list of non-negative ints")
        if not isinstance(data, str):
            raise ValueError("'f8le' must be a base64 string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError as exc:
            raise ValueError(f"'f8le' is not strict base64 ({exc})") from None
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"'f8le' holds {len(raw)} bytes, shape {shape} "
                             f"needs {8 * math.prod(shape)}")
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of a corpus file; CorpusError if it cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: {what} is not UTF-8 text") from None


def load_corpus(path: Path | str,
                splits: Sequence[str] = SPLIT_NAMES) -> CorpusSplit:
    """Load a corpus from its manifest file, parsing only the ``splits`` named.

    The manifest lists the class names, the label mode, and one JSONL path
    per split (relative paths resolved against the manifest's directory).
    It is checked whole; a split left out is None in the result.
    """
    path = Path(path)
    try:
        manifest = parse_json(_read_text(path, "manifest"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: malformed manifest ({exc.msg})") from None
    if not isinstance(manifest, dict):
        raise CorpusError(f"{path}: manifest must be a JSON object")
    for key in ("classes", "label_mode", *SPLIT_NAMES):
        if key not in manifest:
            raise CorpusError(f"{path}: manifest missing field {key!r}")
        if key == "classes":
            if not (isinstance(manifest[key], list)
                    and all(isinstance(name, str) for name in manifest[key])):
                raise CorpusError(f"{path}: manifest field 'classes' must be a "
                                  f"list of strings")
        elif not isinstance(manifest[key], str):
            raise CorpusError(f"{path}: manifest field {key!r} must be a string")
    vocab = TypeVocabulary(tuple(manifest["classes"]), manifest["label_mode"])
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
            raise CorpusError("n_classes must be an integer")
        if n < 2:
            raise CorpusError("n_classes must be >= 2")
        if len(self.transition_matrix) != n or any(len(r) != n for r in self.transition_matrix):
            raise CorpusError("transition_matrix must be n x n")
        if len(self.start_distribution) != n:
            raise CorpusError("start_distribution must have length n")
        for what, dist in [*((f"transition_matrix row {i}", row)
                             for i, row in enumerate(self.transition_matrix)),
                           ("start_distribution", self.start_distribution)]:
            if not all(math.isfinite(p) for p in dist):
                raise CorpusError(f"{what} has a non-finite entry")
            if any(p < 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-9:
                raise CorpusError(f"{what} is not stochastic")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise CorpusError("ambiguity must be in [0, 1]")
        for field_name, size in (("pages_per_doc", 2), ("tokens_per_page", 2),
                                 ("docs_per_split", 3)):
            value = getattr(self, field_name)
            if len(value) != size or not all(_is_int(x) for x in value):
                raise CorpusError(f"{field_name} must be {size} integers")
            if size == 2 and not 1 <= value[0] <= value[1]:
                raise CorpusError(f"invalid {field_name} range {tuple(value)}")
            # numpy draws from int64: its upper end + 1 must be at most 2**63
            if size == 2 and value[1] >= 2**63:
                raise CorpusError(f"{field_name} must end below 2**63")
        for field_name in ("class_vocab_size", "shared_vocab_size"):
            value = getattr(self, field_name)
            if not _is_int(value) or not 1 <= value <= 2**63:
                raise CorpusError(f"{field_name} must be an integer in 1..2**63")
        if any(d < 1 for d in self.docs_per_split):
            raise CorpusError("docs_per_split entries must be >= 1")
        if not _is_int(self.seed) or self.seed < 0:
            raise CorpusError("seed must be an integer >= 0")

    @classmethod
    def uniform(cls, n_classes: int, self_prob: float, seed: int = 0, **kwargs) -> "SynthConfig":
        """Convenience constructor: self-transition ``self_prob``, remainder uniform."""
        if not 0.0 <= self_prob <= 1.0:   # also NaN
            raise CorpusError(f"self_transition must be in [0, 1], got {self_prob!r}")
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
    splits = []
    for name, count in zip(SPLIT_NAMES, cfg.docs_per_split):
        sizes, texts, labels = [], [], []
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
                labels.append((c,))
            sizes.append(length)
        splits.append(Documents(vocab, [f"{name}-{i:04d}" for i in range(count)],
                                sizes, texts, labels))
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
    if docs.label_mode != MULTICLASS:
        raise CorpusError("run/transition statistics require multiclass labels")
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
        raise CorpusError("no page transitions found")
    macro = sum(per_class.values()) / len(per_class)
    return SelfTransitionStats(per_class=per_class, macro=macro)
