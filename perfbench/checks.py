"""Output checks for each ``pageseq`` command the benchmark runs.

The checks read the files the program wrote with plain ``json`` and never
call into ``pageseq``, so a defect in the program cannot hide itself by
also breaking the check.  Every check raises ``CheckFailed`` on the first
violation it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

FIRST_PAGE_CONTEXT = ["[-1]"]


class CheckFailed(Exception):
    """A command exited 0 but its output is wrong."""


@dataclass(frozen=True)
class CorpusFacts:
    """What the checks need to know about the generated corpus."""

    classes: tuple[str, ...]
    train_pages: int
    # (doc_id, page_index, labels) of every test page, in file order
    test_pages: tuple[tuple[str, int, tuple[str, ...]], ...]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path) -> dict:
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name} is not valid JSON ({exc.msg})") from None


def _jsonl(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{path.name}:{lineno}: invalid JSON ({exc.msg})") from None
    return rows


def _all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def read_corpus(corpus_dir: Path, docs_per_split: dict[str, int]) -> CorpusFacts:
    """Check a ``synth`` output directory and collect its facts."""
    manifest = _load_json(corpus_dir / "manifest.json")
    classes = tuple(manifest.get("classes", ()))
    if not classes:
        raise CheckFailed("manifest has no classes")
    split_pages = {}
    for name, want_docs in docs_per_split.items():
        rows = _jsonl(corpus_dir / manifest.get(name, f"{name}.jsonl"))
        docs = {row["doc_id"] for row in rows}
        if len(docs) != want_docs:
            raise CheckFailed(f"{name} split has {len(docs)} documents, "
                              f"expected {want_docs}")
        for row in rows:
            if not row["labels"] or not set(row["labels"]) <= set(classes):
                raise CheckFailed(f"{name} page {row['doc_id']}/{row['page_index']} "
                                  f"has labels outside the class list")
        split_pages[name] = rows
    return CorpusFacts(
        classes=classes,
        train_pages=len(split_pages["train"]),
        test_pages=tuple((r["doc_id"], r["page_index"], tuple(r["labels"]))
                         for r in split_pages["test"]),
    )


def _check_report(path: Path, total_steps: int) -> None:
    report = _load_json(path)
    if report.get("total_steps") != total_steps:
        raise CheckFailed(f"{path.name}: total_steps {report.get('total_steps')}, "
                          f"expected {total_steps}")
    losses = report.get("step_losses", [])
    if len(losses) != total_steps or not _all_finite(losses):
        raise CheckFailed(f"{path.name}: step losses missing or not finite")
    epoch_losses = [m.get("train_loss") for m in report.get("epoch_metrics", [])]
    if not epoch_losses or not _all_finite(epoch_losses):
        raise CheckFailed(f"{path.name}: epoch losses missing or not finite")


def check_train(facts: CorpusFacts, run_dir: Path, epochs: int, batch_size: int,
                baselines: tuple[str, ...]) -> None:
    """Artifacts exist with the right kind, step counts match the schedule,
    every loss is finite."""
    if _load_json(run_dir / "checkpoint.json").get("kind") != "encoder":
        raise CheckFailed("checkpoint.json is not an encoder checkpoint")
    _check_report(run_dir / "report.json",
                  epochs * math.ceil(facts.train_pages / batch_size))
    if "crf" in baselines:
        crf = _load_json(run_dir / "crf.json")
        if crf.get("kind") != "crf":
            raise CheckFailed("crf.json is not a CRF checkpoint")
        flat = [v for row in crf.get("transition", []) for v in row]
        if len(flat) != len(facts.classes) ** 2 or not _all_finite(
                flat + crf.get("start", []) + [crf.get("emission_scale")]):
            raise CheckFailed("crf.json parameters are missing or not finite")


def check_infer(facts: CorpusFacts, trace_path: Path, recurrent: bool) -> None:
    """One trace line per test page; labels in the class list; finite scores;
    recurrent traces feed ``[-1]`` on page 0 and page t-1's decision on page t."""
    pages = {}
    for row in _jsonl(trace_path):
        if "doc_id" not in row:
            continue  # provenance header
        key = (row["doc_id"], row["page_index"])
        if key in pages:
            raise CheckFailed(f"duplicate trace line for page {key}")
        pages[key] = row
    expected = [(doc_id, index) for doc_id, index, _ in facts.test_pages]
    if len(pages) != len(expected) or set(pages) != set(expected):
        raise CheckFailed(f"{len(pages)} trace lines for {len(expected)} test pages")
    classes = set(facts.classes)
    for (doc_id, index), row in pages.items():
        labels = row["labels"]
        if not labels or not set(labels) <= classes:
            raise CheckFailed(f"page {doc_id}/{index}: labels {labels} not in class list")
        scores = row["scores"]
        if len(scores) != len(facts.classes) or not _all_finite(scores):
            raise CheckFailed(f"page {doc_id}/{index}: scores missing or not finite")
        if not recurrent:
            want = None
        elif index == 0:
            want = FIRST_PAGE_CONTEXT
        else:
            want = pages[(doc_id, index - 1)]["labels"]
        if row["context"] != want:
            raise CheckFailed(f"page {doc_id}/{index}: context {row['context']}, "
                              f"expected {want}")


def check_eval(facts: CorpusFacts, eval_path: Path) -> float:
    """Supports add up to the test page count; returns macro-F1 in percent."""
    report = _load_json(eval_path)
    support = sum(c.get("support", 0) for c in report.get("per_class", {}).values())
    if support != len(facts.test_pages):
        raise CheckFailed(f"eval supports sum to {support}, "
                          f"expected {len(facts.test_pages)}")
    macro = report.get("macro_f1")
    if not _all_finite([macro]) or not 0.0 <= macro <= 1.0:
        raise CheckFailed(f"macro_f1 {macro} is not in [0, 1]")
    return 100.0 * macro


def check_compare(facts: CorpusFacts, compare_path: Path) -> None:
    """The paired table sums to the test page count; the p-value is in [0, 1]."""
    report = _load_json(compare_path)
    total = sum(sum(row) for row in report.get("contingency_table", []))
    if total != len(facts.test_pages):
        raise CheckFailed(f"contingency table sums to {total}, "
                          f"expected {len(facts.test_pages)}")
    p = report.get("p_value")
    if not _all_finite([p]) or not 0.0 <= p <= 1.0:
        raise CheckFailed(f"p-value {p} is not in [0, 1]")
