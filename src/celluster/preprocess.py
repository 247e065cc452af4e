"""Highly variable gene selection and encoder-input normalization.

The count likelihood consumes raw counts; the encoder consumes
log1p(count / size_factor) where a cell's size factor is its total count
divided by the median total across cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ExpressionMatrix, restrict_genes


class AllZeroCellError(ValueError):
    pass


class GeneCountError(ValueError):
    pass


@dataclass(frozen=True)
class PreprocessedData:
    raw: ExpressionMatrix  # restricted to the selected genes
    normalized: np.ndarray  # same shape as raw.counts
    size_factors: np.ndarray  # (n_cells,), all positive
    selected_gene_indices: np.ndarray  # strictly increasing, into the original gene axis

    @property
    def n_cells(self) -> int:
        return self.raw.n_cells

    @property
    def n_genes(self) -> int:
        return self.raw.n_genes


def _size_factors(data: ExpressionMatrix, selected: bool = False) -> np.ndarray:
    totals = data.counts.sum(axis=1).astype(np.float64)
    zero = np.flatnonzero(totals == 0)
    if zero.size:
        where = f" in the {data.n_genes} selected genes" if selected else ""
        hint = " (raising n_hvg may help)" if selected else ""
        raise AllZeroCellError(
            f"cell {data.cell_ids[zero[0]]!r} has no counts{where}; "
            f"cannot compute a size factor{hint}"
        )
    return totals / np.median(totals)


def select_hvg(data: ExpressionMatrix, n_hvg: int) -> np.ndarray:
    """Indices (ascending) of the n_hvg genes with the largest variance of
    log1p(count / size_factor); ties go to the lower gene index."""
    if not 1 <= n_hvg <= data.n_genes:
        raise GeneCountError(
            f"n_hvg={n_hvg} outside 1..{data.n_genes}: the input has {data.n_genes} genes"
        )
    scaled = np.log1p(data.counts / _size_factors(data)[:, None])
    variances = scaled.var(axis=0)
    by_variance = np.argsort(-variances, kind="stable")  # stable: ties keep low index first
    return np.sort(by_variance[:n_hvg])


def normalize(data: ExpressionMatrix, selected_gene_indices=None) -> PreprocessedData:
    """Median-ratio size factors and log1p scaling; raw counts pass through.
    With `selected_gene_indices`, `data` holds only those genes."""
    size_factors = _size_factors(data, selected=selected_gene_indices is not None)
    normalized = np.log1p(data.counts / size_factors[:, None])
    if selected_gene_indices is None:
        selected_gene_indices = np.arange(data.n_genes, dtype=np.intp)
    return PreprocessedData(
        raw=data,
        normalized=normalized,
        size_factors=size_factors,
        selected_gene_indices=np.asarray(selected_gene_indices, dtype=np.intp),
    )


def preprocess(data: ExpressionMatrix, n_hvg: int) -> PreprocessedData:
    """select_hvg then normalize the restricted matrix."""
    selected = select_hvg(data, n_hvg)
    return normalize(restrict_genes(data, selected), selected)
