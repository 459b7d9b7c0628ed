"""Tests for scoring, aggregation against the published table arithmetic,
and the McNemar-Bowker symmetry test."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from pageseq.corpus import TypeVocabulary
from pageseq.evaluation import (
    aggregate_f1,
    chi2_survival,
    compare_traces,
    format_score_table,
    mcnemar_bowker,
    paired_binary_table,
    paired_table,
    score,
)
from pageseq.recurrence import SplitTrace, read_traces, write_traces

from oracles import (GoldDoc, GoldPage, documents, naive_prf, reference_chi2_sf,
                     split_of)

# Published per-class F1 percentages and test-set supports of a six-class
# page-type benchmark; the aggregates below are the reported table values.
PUBLISHED_F1S = [90.71, 73.42, 64.33, 97.89, 83.54, 87.63]
TEST_SUPPORTS = [273, 1841, 198, 85408, 6331, 1475]


class TestAggregateF1:
    def test_macro_matches_published_value(self):
        macro, _ = aggregate_f1(PUBLISHED_F1S, TEST_SUPPORTS)
        assert macro == pytest.approx(82.92, abs=0.005)

    def test_weighted_matches_published_value(self):
        _, weighted = aggregate_f1(PUBLISHED_F1S, TEST_SUPPORTS)
        assert weighted == pytest.approx(96.22, abs=0.005)

    def test_equal_supports_weighted_equals_macro(self):
        f1s = [0.3, 0.9, 0.6]
        macro, weighted = aggregate_f1(f1s, [7, 7, 7])
        assert weighted == pytest.approx(macro)

    def test_zero_supports(self):
        macro, weighted = aggregate_f1([0.5, 0.7], [0, 0])
        assert macro == pytest.approx(0.6)
        assert weighted == 0.0


def indicator(label_sets, n):
    """(pages x n) 0/1 rows of class indices or sets of them."""
    out = np.zeros((len(label_sets), n), dtype=bool)
    for row, labels in enumerate(label_sets):
        out[row, sorted(labels) if isinstance(labels, frozenset) else labels] = True
    return out


class TestScore:
    def test_perfect_predictions(self):
        golds = indicator([0, 1, 2, 1, 0], 3)
        s = score(golds, golds, TypeVocabulary(("A", "B", "C")))
        np.testing.assert_array_equal(s.precision, np.ones(3))
        np.testing.assert_array_equal(s.recall, np.ones(3))
        np.testing.assert_array_equal(s.f1, np.ones(3))
        assert s.macro_f1 == 1.0 and s.weighted_f1 == 1.0

    def test_matches_naive_counting(self):
        rng = np.random.default_rng(31)
        vocab = TypeVocabulary(("A", "B", "C", "D"))
        golds = rng.integers(0, 4, size=200).tolist()
        preds = rng.integers(0, 4, size=200).tolist()
        s = score(indicator(preds, 4), indicator(golds, 4), vocab)
        ep, er, ef, es = naive_prf(preds, golds, 4)
        np.testing.assert_allclose(s.precision, ep)
        np.testing.assert_allclose(s.recall, er)
        np.testing.assert_allclose(s.f1, ef)
        np.testing.assert_array_equal(s.support, es)
        assert s.macro_f1 == pytest.approx(np.mean(ef))
        assert s.weighted_f1 == pytest.approx(np.average(ef, weights=es))

    def test_macro_invariant_under_relabeling(self):
        rng = np.random.default_rng(8)
        vocab = TypeVocabulary(("A", "B", "C"))
        golds = rng.integers(0, 3, size=120).tolist()
        preds = rng.integers(0, 3, size=120).tolist()
        perm = [2, 0, 1]
        s = score(indicator(preds, 3), indicator(golds, 3), vocab)
        s_perm = score(indicator([perm[p] for p in preds], 3),
                       indicator([perm[g] for g in golds], 3), vocab)
        assert s_perm.macro_f1 == pytest.approx(s.macro_f1)
        for c in range(3):
            assert s_perm.f1[perm[c]] == pytest.approx(s.f1[c])

    def test_aggregates_bounded_by_per_class_f1(self):
        rng = np.random.default_rng(77)
        vocab = TypeVocabulary(("A", "B", "C"))
        golds = rng.integers(0, 3, size=90).tolist()
        preds = rng.integers(0, 3, size=90).tolist()
        s = score(indicator(preds, 3), indicator(golds, 3), vocab)
        assert s.f1.min() - 1e-12 <= s.macro_f1 <= s.f1.max() + 1e-12
        assert s.f1.min() - 1e-12 <= s.weighted_f1 <= s.f1.max() + 1e-12

    def test_multilabel_binary_per_class(self):
        vocab = TypeVocabulary(("A", "B"), "multilabel")
        golds = [frozenset({0, 1}), frozenset({0}), frozenset({1})]
        preds = [frozenset({0}), frozenset({0, 1}), frozenset({1})]
        s = score(indicator(preds, 2), indicator(golds, 2), vocab)
        # class A: tp=2, pred=2, gold=2 -> P=R=F1=1
        assert s.f1[0] == pytest.approx(1.0)
        # class B: tp=1, pred=2, gold=2 -> P=0.5, R=0.5, F1=0.5
        assert s.precision[1] == pytest.approx(0.5)
        assert s.recall[1] == pytest.approx(0.5)
        assert s.f1[1] == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            score(indicator([0], 2), indicator([0, 1], 2), TypeVocabulary(("A", "B")))


class TestChiSquareSurvival:
    def test_at_zero_is_one(self):
        for dof in range(1, 8):
            assert chi2_survival(0.0, dof) == 1.0

    def test_monotone_decreasing_in_statistic(self):
        xs = np.linspace(0.0, 30.0, 40)
        for dof in (1, 3, 6):
            values = [chi2_survival(x, dof) for x in xs]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_matches_reference_incomplete_gamma(self):
        """10-point reference grid against the series/continued-fraction oracle."""
        points = [(0.5, 1), (1.0, 1), (3.84, 1), (2.0, 2), (5.99, 2),
                  (1.5, 3), (7.81, 3), (10.0, 4), (4.0, 6), (16.92, 9)]
        for stat, dof in points:
            assert chi2_survival(stat, dof) == pytest.approx(
                reference_chi2_sf(stat, dof), abs=1e-10)


class TestMcnemarBowker:
    def test_symmetric_table(self):
        table = np.array([[5, 3, 2], [3, 8, 1], [2, 1, 9]])
        result = mcnemar_bowker(table)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.dof == 3

    def test_two_by_two_reduces_to_mcnemar(self):
        b, c = 13, 6
        table = np.array([[40, b], [c, 50]])
        result = mcnemar_bowker(table)
        assert result.statistic == pytest.approx((b - c) ** 2 / (b + c))
        assert result.dof == 1
        assert result.p_value == pytest.approx(
            reference_chi2_sf((b - c) ** 2 / (b + c), 1), abs=1e-10)

    def test_fixed_three_by_three_matches_oracle(self):
        """Off-diagonal pairs (12,5), (8,8), (3,10)."""
        table = np.array([[30, 12, 8], [5, 40, 3], [8, 10, 50]])
        result = mcnemar_bowker(table)
        expected_stat = (12 - 5) ** 2 / 17 + (3 - 10) ** 2 / 13
        assert result.statistic == pytest.approx(expected_stat, rel=1e-12)
        assert result.dof == 3
        assert result.p_value == pytest.approx(
            reference_chi2_sf(expected_stat, 3), abs=1e-10)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(4)
        table = rng.integers(0, 30, size=(4, 4))
        a = mcnemar_bowker(table)
        b = mcnemar_bowker(table.T)
        assert a.statistic == pytest.approx(b.statistic)
        assert a.dof == b.dof
        assert a.p_value == pytest.approx(b.p_value)

    def test_zero_pairs_excluded_from_dof(self):
        table = np.array([[4, 2, 0], [7, 5, 0], [0, 0, 3]])
        result = mcnemar_bowker(table)
        assert result.dof == 1
        assert result.statistic == pytest.approx(25 / 9)

    def test_diagonal_only_table(self):
        result = mcnemar_bowker(np.diag([5, 8, 2]))
        assert result == type(result)(statistic=0.0, dof=0, p_value=1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            mcnemar_bowker(np.zeros((2, 3)))


ABC = TypeVocabulary(("A", "B", "C"))


def trace_of(docs_labels, vocab=ABC):
    """A context-free trace of (doc_id, label sets) pairs, in that order."""
    trace = SplitTrace.blank(documents(vocab, [doc_id for doc_id, _ in docs_labels],
                                       [len(labels) for _, labels in docs_labels]))
    trace.labels[:] = indicator([c for _, labels in docs_labels for c in labels],
                                vocab.n)
    return trace


def read_against(trace, gold):
    """The trace, written to a trace file, read back against the split
    ``gold``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_traces(trace, path, provenance={"seed": 0})
        return read_traces(path, gold, path.read_text(encoding="utf-8"))


def gold_doc(doc_id, labels):
    return GoldDoc(doc_id, tuple(GoldPage("t", frozenset({c})) for c in labels))


def compare(trace_a, trace_b, docs, vocab):
    gold = split_of(docs, vocab)
    return compare_traces(read_against(trace_a, gold).labels,
                          read_against(trace_b, gold).labels, gold.gold, vocab)


class TestCompareTraces:
    VOCAB = ABC

    def test_identical_traces_give_p_one(self):
        docs = [gold_doc("d", [0, 1, 2, 1])]
        trace = trace_of([("d", [0, 1, 1, 1])])
        report = compare(trace, trace, docs, self.VOCAB)
        assert report.test.p_value == 1.0
        assert report.test.statistic == 0.0
        np.testing.assert_array_equal(report.f1_delta, np.zeros(3))

    def test_single_discordant_page(self):
        docs = [gold_doc("d", [0, 1, 2])]
        a = trace_of([("d", [0, 1, 2])])
        b = trace_of([("d", [0, 1, 1])])
        report = compare(a, b, docs, self.VOCAB)
        assert report.test.dof == 1
        assert report.test.statistic == pytest.approx(1.0)

    def test_table_total_equals_page_count(self):
        rng = np.random.default_rng(12)
        docs, ta, tb = [], [], []
        for i in range(5):
            labels = rng.integers(0, 3, size=rng.integers(1, 9)).tolist()
            docs.append(gold_doc(f"d{i}", labels))
            ta.append((f"d{i}", rng.integers(0, 3, len(labels))))
            tb.append((f"d{i}", rng.integers(0, 3, len(labels))))
        report = compare(trace_of(ta), trace_of(tb), docs, self.VOCAB)
        assert report.table.sum() == sum(len(d) for d in docs)

    def test_page_set_mismatch_rejected(self):
        docs = [gold_doc("d", [0, 1])]
        a = trace_of([("d", [0, 1])])
        b = trace_of([("other", [0, 1])])
        with pytest.raises(ValueError, match="mismatch"):
            compare(a, b, docs, self.VOCAB)
        short = trace_of([("d", [0])])
        with pytest.raises(ValueError, match="pages"):
            compare(a, short, docs, self.VOCAB)

    def test_read_follows_gold_document_order(self):
        docs = [gold_doc("x", [0]), gold_doc("y", [1, 2, 0]), gold_doc("z", [2, 2])]
        trace = trace_of([("z", [1, 0]), ("x", [2]), ("y", [0, 1, 2])])
        gold = split_of(docs, self.VOCAB)
        np.testing.assert_array_equal(read_against(trace, gold).labels,
                                      indicator([2, 0, 1, 2, 1, 0], 3))

    def test_multilabel_uses_flattened_binary_table(self):
        vocab = TypeVocabulary(("A", "B"), "multilabel")
        docs = [gold_doc("d", [0, 1])]
        ta = trace_of([("d", [frozenset({0, 1}), frozenset({1})])], vocab)
        tb = trace_of([("d", [frozenset({0}), frozenset({1})])], vocab)
        report = compare(ta, tb, docs, vocab)
        assert report.table.shape == (2, 2)
        assert report.table.sum() == 4  # 2 pages x 2 classes
        assert report.test.dof == 1


class TestPairedTables:
    def test_paired_table_counts(self):
        table = paired_table(indicator([0, 0, 1, 2], 3), indicator([0, 1, 1, 0], 3))
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 0] = 1
        expected[0, 1] = 1
        expected[1, 1] = 1
        expected[2, 0] = 1
        np.testing.assert_array_equal(table, expected)

    def test_paired_binary_table_counts(self):
        a = indicator([frozenset({0}), frozenset({0, 1})], 2)
        b = indicator([frozenset({1}), frozenset({0, 1})], 2)
        table = paired_binary_table(a, b)
        # page 1: class0 (a=1,b=0), class1 (a=0,b=1); page 2: both (1,1)
        np.testing.assert_array_equal(table, np.array([[0, 1], [1, 2]]))


class TestFormatting:
    def test_table_contains_classes_and_aggregates(self):
        vocab = TypeVocabulary(("A", "B"))
        s = score(indicator([0, 1, 1], 2), indicator([0, 1, 0], 2), vocab)
        text = format_score_table(s, vocab)
        assert "macro-avg" in text and "weighted-avg" in text
        assert text.splitlines()[0].startswith("class")
        assert "A" in text and "B" in text
