"""Corpus data model, JSONL ingestion, synthetic Markov-document generation,
and descriptive statistics (page counts, label runs, self-transition rates).

A corpus is a three-way split of documents; each document is an ordered list
of pages carrying raw text and one or more gold page-type labels.  The single
on-disk format is a manifest JSON pointing at one JSONL file per split, one
page per line:

    {"doc_id": str, "labels": [str, ...], "page_index": int, "text": str}
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

MULTICLASS = "multiclass"
MULTILABEL = "multilabel"
FIRST_PAGE_TOKEN = "[-1]"

SPLIT_NAMES = ("train", "validation", "test")


class CorpusError(ValueError):
    """Malformed corpus file, invalid labels, or invalid generator config."""


@dataclass(frozen=True)
class TypeVocabulary:
    """The n page-type classes, their special tokens, and the first-page marker."""

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
        tokens = [self.special_token(c) for c in range(self.n)]
        if len(set(tokens)) != len(tokens) or self.first_page_token in tokens:
            raise CorpusError("special tokens must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.class_names)

    @property
    def first_page_token(self) -> str:
        return FIRST_PAGE_TOKEN

    def special_token(self, c: int) -> str:
        """Special input token for class index c, of the form ``[type_<name>]``."""
        return f"[type_{self.class_names[c]}]"

    def index(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError:
            raise CorpusError(f"unknown label name {name!r}") from None


@dataclass(frozen=True)
class PageRecord:
    """One page of one document.  ``page_index`` is 0-based position in the doc."""

    doc_id: str
    page_index: int
    text: str
    gold_labels: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "gold_labels", frozenset(self.gold_labels))
        if not self.gold_labels:
            raise CorpusError(
                f"page ({self.doc_id!r}, {self.page_index}) has no labels"
            )
        for c in self.gold_labels:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise CorpusError(
                    f"page ({self.doc_id!r}, {self.page_index}): label {c!r} "
                    f"is not a class index"
                )
        if self.page_index < 0:
            raise CorpusError("page_index must be >= 0")


@dataclass(frozen=True)
class DocumentSequence:
    """Ordered pages of one document; page_index values are exactly 0..l-1."""

    doc_id: str
    pages: tuple[PageRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "pages", tuple(self.pages))
        if not self.pages:
            raise CorpusError(f"document {self.doc_id!r} is empty")
        for i, page in enumerate(self.pages):
            if page.doc_id != self.doc_id:
                raise CorpusError(
                    f"page doc_id {page.doc_id!r} != document {self.doc_id!r}"
                )
            if page.page_index != i:
                raise CorpusError(
                    f"document {self.doc_id!r}: page_index {page.page_index} "
                    f"at position {i} (expected contiguous 0..l-1)"
                )

    def __len__(self) -> int:
        return len(self.pages)


@dataclass(frozen=True)
class CorpusSplit:
    """Train/validation/test documents plus the shared type vocabulary.  A
    split that ``load_corpus`` was not asked to read is None."""

    train: tuple[DocumentSequence, ...] | None
    validation: tuple[DocumentSequence, ...] | None
    test: tuple[DocumentSequence, ...] | None
    vocabulary: TypeVocabulary

    def __post_init__(self):
        for name in SPLIT_NAMES:
            if getattr(self, name) is None:
                continue
            docs = tuple(getattr(self, name))
            object.__setattr__(self, name, docs)
            ids = [d.doc_id for d in docs]
            if len(set(ids)) != len(ids):
                raise CorpusError(f"duplicate doc_id in split {name!r}")
            for doc in docs:
                for page in doc.pages:
                    self._check_labels(page)

    def _check_labels(self, page: PageRecord) -> None:
        n = self.vocabulary.n
        if any(c < 0 or c >= n for c in page.gold_labels):
            raise CorpusError(
                f"page ({page.doc_id!r}, {page.page_index}) has a label index "
                f"outside 0..{n - 1}"
            )
        if self.vocabulary.label_mode == MULTICLASS and len(page.gold_labels) != 1:
            raise CorpusError(
                f"page ({page.doc_id!r}, {page.page_index}) carries "
                f"{len(page.gold_labels)} labels in multiclass mode"
            )

    def split(self, name: str) -> tuple[DocumentSequence, ...]:
        if name not in SPLIT_NAMES:
            raise CorpusError(f"unknown split {name!r}")
        if getattr(self, name) is None:
            raise CorpusError(f"split {name!r} was not read")
        return getattr(self, name)

    def splits(self) -> Iterable[tuple[str, tuple[DocumentSequence, ...]]]:
        return ((name, self.split(name)) for name in SPLIT_NAMES)


def doc_offsets(docs: Sequence[DocumentSequence]) -> np.ndarray:
    """Row offsets of ``docs``' pages in document order: document i owns rows
    ``offsets[i]:offsets[i + 1]``."""
    return np.cumsum([0] + [len(doc) for doc in docs])


def padded_documents(seqs: Sequence[np.ndarray], k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Ragged per-document (pages x k) rows as one zero-padded (docs x pages
    x k) array and its (docs x pages) mask of the real pages.  An empty batch
    keeps one page position, so that its first page can be indexed."""
    lengths = np.array([len(rows) for rows in seqs], dtype=np.int64)
    if np.any(lengths < 1):
        raise ValueError("every document needs at least one page")
    mask = np.arange(lengths.max(initial=1)) < lengths[:, None]
    padded = np.zeros(mask.shape + (k,))
    padded[mask] = np.concatenate([np.zeros((0, k)), *seqs])
    return padded, mask


def gold_labels(docs: Sequence[DocumentSequence], n: int) -> np.ndarray:
    """The (pages x n) 0/1 indicator of every page's gold labels, in document
    order."""
    sets = [page.gold_labels for doc in docs for page in doc.pages]
    out = np.zeros((len(sets), n), dtype=bool)
    out[np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
        [c for s in sets for c in s]] = True
    return out


# ---------------------------------------------------------------------------
# JSONL ingestion / emission
# ---------------------------------------------------------------------------


def _parse_page_line(line: str, lineno: int, path: str, vocab: TypeVocabulary) -> PageRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise CorpusError(f"{path}:{lineno}: expected a JSON object")
    for key, kind in (("doc_id", str), ("page_index", int), ("text", str), ("labels", list)):
        if key not in obj:
            raise CorpusError(f"{path}:{lineno}: missing field {key!r}")
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise CorpusError(f"{path}:{lineno}: field {key!r} has wrong type")
    labels = set()
    for name in obj["labels"]:
        if not isinstance(name, str):
            raise CorpusError(f"{path}:{lineno}: labels must be strings")
        try:
            labels.add(vocab.index(name))
        except CorpusError:
            raise CorpusError(
                f"{path}:{lineno}: unknown label {name!r}"
            ) from None
    if not labels:
        raise CorpusError(f"{path}:{lineno}: page has no labels")
    return PageRecord(obj["doc_id"], obj["page_index"], obj["text"], frozenset(labels))


def load_split_file(path: Path | str, vocab: TypeVocabulary) -> tuple[DocumentSequence, ...]:
    """Load one JSONL page file into documents, grouped by doc_id in file order."""
    path = Path(path)
    by_doc: dict[str, list[PageRecord]] = {}
    seen: set[tuple[str, int]] = set()
    # split on "\n" only: a JSON string may hold U+2028 and the like raw
    for lineno, line in enumerate(_read_text(path, "split file").split("\n"),
                                  start=1):
        if not line.strip():
            continue
        page = _parse_page_line(line, lineno, str(path), vocab)
        key = (page.doc_id, page.page_index)
        if key in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate page {key}")
        seen.add(key)
        by_doc.setdefault(page.doc_id, []).append(page)
    return tuple(DocumentSequence(doc_id, tuple(pages)) for doc_id, pages in by_doc.items())


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
        manifest = json.loads(_read_text(path, "manifest"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: malformed manifest ({exc.msg})") from None
    if not isinstance(manifest, dict):
        raise CorpusError(f"{path}: manifest must be a JSON object")
    for key in ("classes", "label_mode", *SPLIT_NAMES):
        if key not in manifest:
            raise CorpusError(f"{path}: manifest missing field {key!r}")
    vocab = TypeVocabulary(tuple(manifest["classes"]), manifest["label_mode"])
    read = {
        name: load_split_file(path.parent / manifest[name], vocab)
        if name in splits else None
        for name in SPLIT_NAMES
    }
    return CorpusSplit(read["train"], read["validation"], read["test"], vocab)


def _page_to_json(page: PageRecord, vocab: TypeVocabulary) -> str:
    obj = {
        "doc_id": page.doc_id,
        "labels": [vocab.class_names[c] for c in sorted(page.gold_labels)],
        "page_index": page.page_index,
        "text": page.text,
    }
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def write_corpus(split: CorpusSplit, directory: Path | str,
                 provenance: Mapping | None = None) -> Path:
    """Write the three JSONL split files plus a manifest; returns the manifest path.

    Writer is deterministic: keys sorted, docs and pages in corpus order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, docs in split.splits():
        lines = [
            _page_to_json(page, split.vocabulary)
            for doc in docs
            for page in doc.pages
        ]
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


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


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
        if n < 2:
            raise CorpusError("n_classes must be >= 2")
        if len(self.transition_matrix) != n or any(len(r) != n for r in self.transition_matrix):
            raise CorpusError("transition_matrix must be n x n")
        for i, row in enumerate(self.transition_matrix):
            if any(p < 0 for p in row) or abs(sum(row) - 1.0) > 1e-9:
                raise CorpusError(f"transition_matrix row {i} is not stochastic")
        if len(self.start_distribution) != n:
            raise CorpusError("start_distribution must have length n")
        if any(p < 0 for p in self.start_distribution) or \
                abs(sum(self.start_distribution) - 1.0) > 1e-9:
            raise CorpusError("start_distribution is not stochastic")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise CorpusError("ambiguity must be in [0, 1]")
        for field_name, size in (("pages_per_doc", 2), ("tokens_per_page", 2),
                                 ("docs_per_split", 3)):
            value = getattr(self, field_name)
            if len(value) != size or not all(
                    isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                    for x in value):
                raise CorpusError(f"{field_name} must be {size} integers")
            if size == 2 and not 1 <= value[0] <= value[1]:
                raise CorpusError(f"invalid {field_name} range {tuple(value)}")
        if self.class_vocab_size < 1 or self.shared_vocab_size < 1:
            raise CorpusError("vocab sizes must be >= 1")
        if any(d < 1 for d in self.docs_per_split):
            raise CorpusError("docs_per_split entries must be >= 1")

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


def _generate_document(doc_id: str, cfg: SynthConfig, rng: np.random.Generator) -> DocumentSequence:
    trans = np.asarray(cfg.transition_matrix)
    start = np.asarray(cfg.start_distribution)
    lo, hi = cfg.pages_per_doc
    length = int(rng.integers(lo, hi + 1))
    pages = []
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
        text = " ".join(tokens[i] for i in order)
        pages.append(PageRecord(doc_id, t, text, frozenset({cls_idx})))
    return DocumentSequence(doc_id, tuple(pages))


def generate_synthetic(cfg: SynthConfig) -> CorpusSplit:
    """Generate a multiclass corpus; a pure function of the config (seed included)."""
    rng = np.random.default_rng(cfg.seed)
    vocab = TypeVocabulary(tuple(f"c{i}" for i in range(cfg.n_classes)), MULTICLASS)
    splits = []
    for name, count in zip(SPLIT_NAMES, cfg.docs_per_split):
        splits.append(tuple(
            _generate_document(f"{name}-{i:04d}", cfg, rng) for i in range(count)
        ))
    return CorpusSplit(splits[0], splits[1], splits[2], vocab)


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------


def class_page_counts(split: CorpusSplit) -> dict[str, dict[str, int]]:
    """Pages per class per split; a multi-label page increments each of its labels."""
    names = split.vocabulary.class_names
    return {name: dict(zip(names, gold_labels(docs, len(names)).sum(axis=0).tolist()))
            for name, docs in split.splits()}


def _require_multiclass(docs: Sequence[DocumentSequence]) -> None:
    for doc in docs:
        for page in doc.pages:
            if len(page.gold_labels) != 1:
                raise CorpusError(
                    f"page ({doc.doc_id!r}, {page.page_index}) is multi-labeled; "
                    "run/transition statistics require multiclass labels"
                )


@dataclass(frozen=True)
class RunLengthStats:
    median_run: float
    max_run: int
    total_pages: int


def run_length_stats(docs: Sequence[DocumentSequence]) -> dict[int, RunLengthStats]:
    """Per-class stats over maximal runs of consecutive same-label pages.

    Runs never cross document boundaries.  The median of an even-length run
    set is the mean of the two middle values.
    """
    _require_multiclass(docs)
    runs: dict[int, list[int]] = {}
    for doc in docs:
        labels = [next(iter(p.gold_labels)) for p in doc.pages]
        start = 0
        for i in range(1, len(labels) + 1):
            if i == len(labels) or labels[i] != labels[start]:
                runs.setdefault(labels[start], []).append(i - start)
                start = i
    return {
        c: RunLengthStats(
            median_run=float(statistics.median(lengths)),
            max_run=max(lengths),
            total_pages=sum(lengths),
        )
        for c, lengths in sorted(runs.items())
    }


@dataclass(frozen=True)
class SelfTransitionStats:
    """Per-class probability that the next page repeats the class, plus the
    macro average over classes for which the probability is defined."""

    per_class: dict[int, float]
    macro: float


def transition_self_prob(docs: Sequence[DocumentSequence]) -> SelfTransitionStats:
    """P(next page has the same class) per class, over pages with a successor."""
    _require_multiclass(docs)
    same: dict[int, int] = {}
    total: dict[int, int] = {}
    for doc in docs:
        labels = [next(iter(p.gold_labels)) for p in doc.pages]
        for a, b in zip(labels, labels[1:]):
            total[a] = total.get(a, 0) + 1
            same[a] = same.get(a, 0) + (1 if a == b else 0)
    per_class = {c: same.get(c, 0) / total[c] for c in sorted(total)}
    if not per_class:
        raise CorpusError("no page transitions found")
    macro = sum(per_class.values()) / len(per_class)
    return SelfTransitionStats(per_class=per_class, macro=macro)
