"""Clustering agreement metrics against ground truth.

Both read the contingency table, a plain int64 count matrix whose sums give
the marginals and the total. ARI uses pair counting with the hypergeometric
expectation; NMI normalizes mutual information by the arithmetic mean of the
two partition entropies (natural log). Degenerate zero-denominator cases
return 1.0: two identical trivial partitions agree perfectly.
"""

from __future__ import annotations

import numpy as np


class LengthMismatchError(ValueError):
    pass


class SinglePointError(ValueError):
    pass


def contingency_table(true_labels, pred_labels) -> np.ndarray:
    """(n_true, n_pred) int64 counts of each (true, predicted) label pair,
    labels in sorted order; its row and column sums are the marginals."""
    true_labels = np.asarray(true_labels)
    pred_labels = np.asarray(pred_labels)
    if true_labels.shape != pred_labels.shape or true_labels.ndim != 1:
        raise LengthMismatchError(
            f"label vectors disagree: {true_labels.shape} vs {pred_labels.shape}"
        )
    _, t_idx = np.unique(true_labels, return_inverse=True)
    _, p_idx = np.unique(pred_labels, return_inverse=True)
    # initial=-1: empty labels give a 0 x 0 table, which ari and nmi reject
    counts = np.zeros((t_idx.max(initial=-1) + 1, p_idx.max(initial=-1) + 1), dtype=np.int64)
    np.add.at(counts, (t_idx, p_idx), 1)
    return counts


def _pairs(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def ari(true_labels, pred_labels) -> float:
    """Adjusted Rand index in [-1, 1]; 1.0 when both partitions are trivial."""
    counts = contingency_table(true_labels, pred_labels)
    total = int(counts.sum())
    if total < 2:
        raise SinglePointError("ARI needs at least 2 points")
    index = _pairs(counts).sum()
    sum_rows = _pairs(counts.sum(axis=1)).sum()
    sum_cols = _pairs(counts.sum(axis=0)).sum()
    total_pairs = _pairs(np.array([total]))[0]
    expected = sum_rows * sum_cols / total_pairs
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0  # both partitions trivial (all-one-cluster or all-singletons)
    return float((index - expected) / (max_index - expected))


def _entropy(marginals: np.ndarray, total: int) -> float:
    p = marginals[marginals > 0] / total
    return float(-np.sum(p * np.log(p)))


def nmi(true_labels, pred_labels) -> float:
    """Mutual information over the arithmetic mean of entropies, natural log.

    Two zero-entropy partitions score 1.0 by convention.
    """
    counts = contingency_table(true_labels, pred_labels)
    n = int(counts.sum())
    if n < 1:
        raise LengthMismatchError("NMI needs at least 1 point")
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    h_true, h_pred = _entropy(rows, n), _entropy(cols, n)
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0
    joint = counts / n
    outer = np.outer(rows, cols) / (n * n)
    positive = joint > 0
    mi = float(np.sum(joint[positive] * np.log(joint[positive] / outer[positive])))
    return float(mi / (0.5 * (h_true + h_pred)))
