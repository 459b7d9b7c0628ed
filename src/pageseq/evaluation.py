"""Evaluation: per-class precision/recall/F1 with macro and support-weighted
averages, paired-prediction contingency tables, and the McNemar-Bowker test
of symmetry (chi-square upper tail via the regularized incomplete gamma).
Predictions and gold are aligned (pages x n) indicators: a trace read
against a split has that split's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaincc

from .corpus import MULTICLASS, TypeVocabulary


@dataclass(eq=False)
class PerClassScores:
    """Per-class precision/recall/F1 in [0,1], gold supports, and aggregates."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    macro_f1: float
    weighted_f1: float


def aggregate_f1(f1s: Sequence[float], supports: Sequence[float]) -> tuple[float, float]:
    """Macro (unweighted mean) and support-weighted mean of per-class F1s."""
    f1s = np.asarray(f1s, dtype=np.float64)
    supports = np.asarray(supports, dtype=np.float64)
    if f1s.shape != supports.shape:
        raise ValueError("f1s and supports must have the same length")
    macro = float(f1s.mean())
    total = supports.sum()
    weighted = float((f1s * supports).sum() / total) if total > 0 else 0.0
    return macro, weighted


def score(preds, golds, vocabulary: TypeVocabulary) -> PerClassScores:
    """Score aligned (pages x n) boolean prediction and gold indicators in the
    vocabulary's label mode.

    Multiclass: standard confusion-matrix precision/recall/F1 per class, with
    one label per page.  Multilabel: per-class binary decisions over
    page-label membership.
    """
    if preds.shape != golds.shape or preds.shape[1:] != (vocabulary.n,):
        raise ValueError(f"shape mismatch: {preds.shape} preds vs {golds.shape} "
                         f"golds, {vocabulary.n} classes")
    if vocabulary.label_mode == MULTICLASS and not (
            (preds.sum(axis=1) == 1).all() and (golds.sum(axis=1) == 1).all()):
        raise ValueError("multiclass scoring requires singleton label sets")
    tp = (preds & golds).sum(axis=0)
    pred_count = preds.sum(axis=0)
    gold_count = golds.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_count > 0, tp / pred_count, 0.0)
        recall = np.where(gold_count > 0, tp / gold_count, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    macro, weighted = aggregate_f1(f1, gold_count)
    return PerClassScores(precision=precision, recall=recall, f1=f1,
                          support=gold_count.astype(np.int64),
                          macro_f1=macro, weighted_f1=weighted)


# ---------------------------------------------------------------------------
# McNemar-Bowker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    statistic: float
    dof: int
    p_value: float


def chi2_survival(stat: float, dof: int) -> float:
    """Upper-tail chi-square probability Q(dof/2, stat/2)."""
    if stat < 0 or dof < 1:
        raise ValueError("need stat >= 0 and dof >= 1")
    return float(gammaincc(dof / 2.0, stat / 2.0))


def mcnemar_bowker(table: np.ndarray) -> TestResult:
    """Bowker's test of symmetry on a paired-prediction contingency table.

    Off-diagonal pairs with B[i][j] + B[j][i] = 0 are excluded and the
    degrees of freedom reduced accordingly.  On a 2x2 table this is exactly
    McNemar's chi-square.
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError("contingency table must be square")
    if np.any(table < 0):
        raise ValueError("contingency table entries must be non-negative")
    n = table.shape[0]
    stat = 0.0
    dof = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = float(table[i, j] + table[j, i])
            if s > 0:
                stat += (float(table[i, j]) - float(table[j, i])) ** 2 / s
                dof += 1
    if dof == 0:
        return TestResult(statistic=0.0, dof=0, p_value=1.0)
    return TestResult(statistic=stat, dof=dof, p_value=chi2_survival(stat, dof))


def paired_table(preds_a, preds_b) -> np.ndarray:
    """B[i][j] = # pages where model-1 predicted i and model-2 predicted j,
    from two aligned (pages x n) boolean one-label indicators."""
    if preds_a.shape != preds_b.shape:
        raise ValueError("paired predictions must align")
    if not ((preds_a.sum(axis=1) == 1).all() and (preds_b.sum(axis=1) == 1).all()):
        raise ValueError("paired_table requires multiclass predictions")
    n = preds_a.shape[1]
    return np.bincount(n * preds_a.argmax(axis=1) + preds_b.argmax(axis=1),
                       minlength=n * n).reshape(n, n)


def paired_binary_table(preds_a, preds_b) -> np.ndarray:
    """Per-(page, class) binary decisions of two multilabel models, from two
    aligned (pages x n) boolean indicators, flattened into one 2x2 table
    (index 1 = class assigned)."""
    if preds_a.shape != preds_b.shape:
        raise ValueError("paired predictions must align")
    return np.bincount(2 * preds_a.ravel() + preds_b.ravel(),
                       minlength=4).reshape(2, 2)


# ---------------------------------------------------------------------------
# Trace-level comparison
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ComparisonReport:
    table: np.ndarray
    test: TestResult
    scores_a: PerClassScores
    scores_b: PerClassScores
    f1_delta: np.ndarray


def compare_traces(preds_a, preds_b, golds,
                   vocabulary: TypeVocabulary) -> ComparisonReport:
    """Paired comparison of two models' aligned (pages x n) decisions on the
    same gold pages: contingency table, Bowker test, and per-class F1 deltas
    (A minus B)."""
    scores_a = score(preds_a, golds, vocabulary)
    scores_b = score(preds_b, golds, vocabulary)
    if vocabulary.label_mode == MULTICLASS:
        table = paired_table(preds_a, preds_b)
    else:
        table = paired_binary_table(preds_a, preds_b)
    return ComparisonReport(
        table=table,
        test=mcnemar_bowker(table),
        scores_a=scores_a,
        scores_b=scores_b,
        f1_delta=scores_a.f1 - scores_b.f1,
    )


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def scores_payload(scores: PerClassScores, vocabulary: TypeVocabulary) -> dict:
    return {
        "per_class": {
            name: {
                "precision": float(scores.precision[c]),
                "recall": float(scores.recall[c]),
                "f1": float(scores.f1[c]),
                "support": int(scores.support[c]),
            }
            for c, name in enumerate(vocabulary.class_names)
        },
        "macro_f1": scores.macro_f1,
        "weighted_f1": scores.weighted_f1,
    }


def format_score_table(scores: PerClassScores, vocabulary: TypeVocabulary) -> str:
    """Aligned plain-text table: one row per class plus macro/weighted rows,
    values in percent."""
    rows = [("class", "precision", "recall", "f1", "support")]
    for c, name in enumerate(vocabulary.class_names):
        rows.append((name,
                     f"{100 * scores.precision[c]:.2f}",
                     f"{100 * scores.recall[c]:.2f}",
                     f"{100 * scores.f1[c]:.2f}",
                     str(int(scores.support[c]))))
    rows.append(("macro-avg", "", "", f"{100 * scores.macro_f1:.2f}", ""))
    rows.append(("weighted-avg", "", "", f"{100 * scores.weighted_f1:.2f}",
                 str(int(scores.support.sum()))))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for r in rows:
        lines.append("  ".join(r[i].rjust(widths[i]) if i else r[i].ljust(widths[i])
                               for i in range(5)))
    return "\n".join(lines)
