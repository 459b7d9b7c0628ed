"""The corpus: its data model, JSONL ingestion and emission, synthetic
Markov-document generation, and descriptive statistics (page counts, label
runs, self-transition rates).

A corpus is a three-way split of documents; each document is an ordered list
of pages carrying raw text and one or more gold page-type labels.  In memory
each split is one ``Documents`` record of columns: doc ids, document offsets
into the page rows, page texts and a (pages x n) gold indicator.  The single
on-disk format is a manifest JSON pointing at one JSONL file per split, one
page per line, holding exactly these fields:

    {"doc_id": str, "labels": [str, ...], "page_index": int, "text": str}
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import ne
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import files

MULTICLASS = "multiclass"
MULTILABEL = "multilabel"

SPLIT_NAMES = ("train", "validation", "test")


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
        if files.FIRST_PAGE_TOKEN in self.class_names:
            raise ValueError(f"class name {files.FIRST_PAGE_TOKEN!r} is reserved for "
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
        files.check_label_count(gold, "gold", vocab)

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


def first_appearance(keys: Sequence) -> tuple[list, np.ndarray]:
    """The distinct hashable ``keys`` in order of first appearance, and the
    index of each key among them."""
    distinct = dict.fromkeys(keys)
    code = dict(zip(distinct, range(len(distinct))))
    return list(distinct), np.fromiter(map(code.__getitem__, keys),
                                       dtype=np.int64, count=len(keys))


# the fields of a split file's page line, and the JSON type each holds
_PAGE_FIELDS = {"doc_id": (str,), "page_index": (int,), "text": (str,),
                "labels": (list,)}


def _split_lines(pages: list, vocab: TypeVocabulary) -> tuple:
    """The doc ids (in order of first appearance) and page counts of the
    documents of a split file's page lines, and its pages' texts and gold
    indicator rows in document order.  Each page has 1 to
    ``vocab.max_labels`` labels; each document's pages must come in
    page_index order 0..l-1."""
    doc_ids, page_indices, texts, labels = files.page_columns(pages, _PAGE_FIELDS)
    gold = files.class_indicator(labels, "labels", vocab.class_names)
    files.check_label_count(gold, "labels", vocab)
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


@files.gc_paused()
def load_split_file(path: Path | str, vocab: TypeVocabulary) -> Documents:
    """Load one JSONL page file into documents, grouped by doc_id in order of
    first appearance; each document's pages must come in page_index order
    0..l-1.

    A malformed JSON line is reported first, as the whole file is parsed
    before any check; then the first bad page line, in file order
    (``files.read_page_lines``), whose rules leave none of ``Documents`` to
    fail."""
    linenos, pages = files.read_jsonl(path, files.read_input(path, "split file")[0])
    return Documents(vocab, *files.read_page_lines(
        path, linenos, pages, lambda lines: _split_lines(lines, vocab)))


def load_corpus(path: Path | str,
                splits: Sequence[str] = SPLIT_NAMES) -> CorpusSplit:
    """Load a corpus from its manifest file, parsing only the ``splits`` named.

    The manifest lists the class names, the label mode, and one JSONL path
    per split (relative paths resolved against the manifest's directory),
    and may record a provenance; any other key is refused.  It is checked
    whole; a split left out is None in the result.
    """
    path = Path(path)
    manifest, _ = files.read_json(path, "manifest")
    with files.reading(path):
        files.json_object(manifest, ("classes", "label_mode", *SPLIT_NAMES, "provenance"),
                          "", ("classes", "label_mode", *SPLIT_NAMES))
        for name in SPLIT_NAMES:
            files.json_value(manifest[name], str, name)
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


class Memo(dict):
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
    shared = Memo("sh_w{}".format)
    own = [Memo(f"c{c}_w{{}}".format) for c in range(cfg.n_classes)]
    pools = (cfg.shared_vocab_size, cfg.class_vocab_size)
    # int64 bounds draw fastest; a pool of 2**63 ids needs uint64
    pool_sizes = np.array(pools, dtype=np.int64 if max(pools) < 2**63 else np.uint64)

    def id_bounds(n_tokens: int) -> tuple[int, np.ndarray]:
        n_shared = int(cfg.ambiguity * n_tokens + 0.5)
        return n_shared, np.repeat(pool_sizes, (n_shared, n_tokens - n_shared))

    bounds = Memo(id_bounds)  # by token count, as each count is first drawn
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
