import re

import numpy as np
import pytest

from celluster import preprocess
from celluster.ingest import ExpressionMatrix


def _matrix(counts, labels=None):
    counts = np.asarray(counts)
    return ExpressionMatrix(
        counts,
        [f"c{i}" for i in range(counts.shape[0])],
        [f"g{j}" for j in range(counts.shape[1])],
        labels,
    )


def test_constant_gene_loses_to_varying_gene():
    em = _matrix([[5, 1], [5, 9], [5, 4]])
    assert preprocess.select_hvg(em, 1).tolist() == [1]


def test_selecting_all_genes_returns_identity():
    em = _matrix([[1, 2, 3], [4, 5, 6]])
    assert preprocess.select_hvg(em, 3).tolist() == [0, 1, 2]


def test_top_two_of_three_hand_built_variances():
    # equal cell totals (12) make size factors 1, so variances act on log1p(counts)
    em = _matrix(
        [
            [0, 5, 7],
            [12, 0, 0],
            [2, 4, 6],
            [6, 4, 2],
        ]
    )
    scaled = np.log1p(em.counts / 1.0)
    var = scaled.var(axis=0)
    order = set(np.argsort(-var)[:2].tolist())
    got = preprocess.select_hvg(em, 2)
    assert set(got.tolist()) == order
    assert np.all(np.diff(got) > 0)


def test_hvg_out_of_range():
    em = _matrix([[1, 2], [3, 4]])
    with pytest.raises(preprocess.GeneCountError):
        preprocess.select_hvg(em, 0)
    with pytest.raises(preprocess.GeneCountError):
        preprocess.select_hvg(em, 3)


def test_hvg_is_permutation_equivariant():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 30, size=(10, 6))
    counts[:, 2] = rng.integers(0, 300, size=10)  # clearly most variable
    em = _matrix(counts)
    perm = rng.permutation(6)
    permuted = _matrix(counts[:, perm])
    base = preprocess.select_hvg(em, 3)
    moved = preprocess.select_hvg(permuted, 3)
    # selecting column perm[j] of the permuted matrix is selecting column j of the original
    assert set(perm[moved].tolist()) == set(base.tolist())


def test_size_factors_from_hand_built_totals():
    # totals 100 and 300, median 200 -> size factors [0.5, 1.5]
    em = _matrix([[40, 60], [100, 200]])
    pre = preprocess.normalize(em)
    np.testing.assert_allclose(pre.size_factors, [0.5, 1.5], rtol=0)


def test_zero_count_stays_zero_after_normalization():
    em = _matrix([[0, 10], [5, 5]])
    pre = preprocess.normalize(em)
    assert pre.normalized[0, 0] == 0.0


def test_all_zero_cell_names_the_cell():
    em = ExpressionMatrix(np.array([[1, 2], [0, 0]]), ["keep", "empty"], ["g0", "g1"])
    with pytest.raises(preprocess.AllZeroCellError, match="empty"):
        preprocess.normalize(em)


def test_a_cell_without_counts_in_the_selected_genes_says_so():
    # c0's only count lies in gene 4, which n_hvg=4 leaves out
    counts = [[0, 60, 0, 60, 0], [60, 0, 60, 0, 0]] * 4
    counts[0] = [0, 0, 0, 0, 1]
    em = _matrix(counts)
    assert preprocess.select_hvg(em, 4).tolist() == [0, 1, 2, 3]
    want = (
        "cell 'c0' has no counts in the 4 selected genes; "
        "cannot compute a size factor (raising n_hvg may help)"
    )
    with pytest.raises(preprocess.AllZeroCellError, match=re.escape(want)):
        preprocess.preprocess(em, 4)


def test_scaling_one_cell_is_absorbed_by_its_size_factor():
    # scaling a single cell's counts leaves output unchanged when the median
    # total is unchanged: its size factor picks up the factor exactly
    counts = np.array([[2, 3], [10, 10], [40, 10]])
    em = _matrix(counts)
    scaled = counts.copy()
    scaled[2] *= 7  # scale the largest cell; median total still row 1's
    pre_a = preprocess.normalize(em)
    pre_b = preprocess.normalize(_matrix(scaled))
    np.testing.assert_array_equal(pre_a.normalized, pre_b.normalized)
    assert pre_b.size_factors[2] == pytest.approx(7 * pre_a.size_factors[2], rel=0)


def test_preprocess_combines_selection_and_normalization():
    rng = np.random.default_rng(1)
    counts = rng.integers(1, 20, size=(8, 10))
    em = _matrix(counts)
    pre = preprocess.preprocess(em, 4)
    assert pre.raw.n_genes == 4
    assert pre.normalized.shape == pre.raw.counts.shape
    assert np.all(pre.size_factors > 0)
    assert np.all(np.diff(pre.selected_gene_indices) > 0)
    assert len(pre.selected_gene_indices) == 4
    # raw counts pass through untouched for the selected columns
    np.testing.assert_array_equal(pre.raw.counts, counts[:, pre.selected_gene_indices])
