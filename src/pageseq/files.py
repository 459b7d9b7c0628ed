"""The file boundary: the one reader of every input file's bytes, the readers
every JSON file shares, and the one error of a fault named by its file.

One whole-file JSON parse and one JSONL line reader; the one reader of the
page lines of split and trace files; the typed reader of config and
checkpoint blocks; the format check and the format names; the one encoding
of float arrays in checkpoint files; and the boundaries of an input file and
of an output path, where a check's ValueError or a write's OSError becomes a
``CorpusError`` that names the file first.  It imports no other module of
the package, so every module above it may read files.
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
from contextlib import contextmanager
from dataclasses import MISSING, fields
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# the first-page marker as a trace file spells it, in a page's context
FIRST_PAGE_TOKEN = "[-1]"

# the layout of every checkpoint kind (encoder, CRF, BiLSTM): each fact is
# stored once, and the encoder's and the BiLSTM's float arrays are
# ``float_block``s.  A CRF's own (n x n) transition and n start scores stay
# lists of numbers, the form in which perfbench/checks.py reads them.
CHECKPOINT_FORMAT = "f8le-blocks/2"

# the layout of a trace file, recorded in its header, the first line
TRACE_FORMAT = "pageseq-trace/1"


class CorpusError(ValueError):
    """A fault of an input file (config, manifest, split file, checkpoint or
    trace file) or an output path, named by the file first: ``path: ...``
    or ``path:line: ...``.  Raised only at a file's boundary; every check
    below it raises a plain ValueError that names only the field."""


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
def writing(path):
    """The boundary of the output ``path``: an OSError raised while it is
    written, or its directory made, becomes a CorpusError (exit 2) that
    names the path first."""
    try:
        yield
    except OSError as exc:
        raise CorpusError(f"{path}: cannot write ({exc.strerror})") from None


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
            json_object(page, fields, "")
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


def check_label_count(indicator: np.ndarray, field: str, vocab) -> None:
    """ValueError unless each row of the indicator of ``field`` of page
    lines sets 1 to ``vocab.max_labels`` columns (``vocab`` a
    ``corpus.TypeVocabulary``): a page's labels, and the context it was
    fed."""
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


def field_label(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def json_object(obj, keys, where: str, required: Iterable[str] = ()) -> dict:
    """``obj``, the JSON object of field ``where`` ("" for a file's top
    level), whose keys are all among ``keys`` and include ``required``; an
    unknown key is reported with the nearest valid one, both by field."""
    if not isinstance(obj, dict):
        raise ValueError(f"field {where!r} must be an object" if where
                         else "expected a JSON object")
    for key in obj:
        if key not in keys:
            near = difflib.get_close_matches(key, keys, n=1)
            hint = f"; did you mean {field_label(where, near[0])!r}?" if near else ""
            raise ValueError(f"unknown field {field_label(where, key)!r}{hint}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing field {field_label(where, key)!r}")
    return obj


def json_value(value, hint, label: str):
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
        return tuple(json_value(v, a, f"{label}[{i}]")
                     for i, (v, a) in enumerate(zip(value, args)))
    if hint is float and type(value) is int:  # too large for a float: inf
        value = float(value) if abs(value) <= sys.float_info.max else np.inf
    if type(value) is not hint:
        raise ValueError(f"{what} must be {_JSON_TYPES[hint]}")
    if hint is float and not np.isfinite(value):
        raise ValueError(f"{what} must be finite")
    return value


def config_from(cls, obj, where: str, complete: bool = False, **given):
    """Dataclass ``cls`` from the JSON object ``obj`` of field ``where``,
    whose keys must be fields of ``cls`` holding values of their types.  A
    field in ``given`` is the caller's (in a ``train`` config, a seed
    derived from the top-level ``seed``), which ``obj`` may not hold.  Any
    other field that ``obj`` leaves out takes the dataclass default; with
    ``complete`` (a checkpoint, which records every field) it must be in
    ``obj``."""
    hints = typing.get_type_hints(cls)
    values = dict(given)
    for name, value in json_object(obj, [f.name for f in fields(cls)], where, [
            f.name for f in fields(cls) if f.name not in given
            and (complete or f.default is MISSING)]).items():
        if name in given:
            raise ValueError(f"field {field_label(where, name)!r} is set by 'seed'")
        values[name] = json_value(value, hints[name], field_label(where, name))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"field {where!r}: {exc}" if where else str(exc)) from None


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
