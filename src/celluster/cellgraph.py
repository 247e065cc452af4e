"""KNN cell graph and its spectral operators.

The adjacency is a symmetric binary CSR matrix with an empty diagonal. The
scaled operator fed to the spectral convolution is 2L/lambda_max - I, where
L is either the combinatorial Laplacian D - A or the symmetric normalized
I - D^{-1/2} A D^{-1/2} (isolated nodes keep identity rows). An edgeless
graph takes lambda_max = 2 so the scaled operator stays defined after
aggressive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

LAPLACIAN_KINDS = ("combinatorial", "sym_normalized")

_POWER_TOL = 1e-6
_POWER_MAX_ITER = 1000


class KRangeError(ValueError):
    pass


class PowerIterationError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        super().__init__(
            f"power iteration did not converge in {iterations} iterations "
            f"(last residual {residual:.3e})"
        )


@dataclass(frozen=True)
class CellGraph:
    adjacency: sp.csr_matrix  # n x n, binary, zero diagonal, symmetric
    degrees: np.ndarray  # (n,) int64 row sums
    laplacian_kind: str
    laplacian: sp.csr_matrix
    lambda_max: float
    scaled_laplacian: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.nnz // 2)


def knn_graph(features, k: int, laplacian_kind: str = "sym_normalized") -> CellGraph:
    """Directed k-nearest-neighbor relation under Euclidean distance
    (self excluded, distance ties to the lower index), symmetrized by OR."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"features must be a 2-d matrix, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k < n:
        raise KRangeError(f"k={k} outside 1..{n - 1} for {n} cells")

    sq_norms = np.einsum("ij,ij->i", x, x)
    d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, np.inf)
    # stable argsort: equal distances resolve toward the lower column index
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]

    rows = np.repeat(np.arange(n), k)
    cols = nearest.reshape(-1)
    directed = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    adjacency = ((directed + directed.T) > 0).astype(np.float64).tocsr()
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return _from_adjacency(adjacency, laplacian_kind)


def build_operators(graph: CellGraph, kind: str) -> CellGraph:
    """Recompute L, lambda_max, and the scaled operator under `kind`."""
    return _from_adjacency(graph.adjacency, kind)


def subgraph(graph: CellGraph, keep) -> CellGraph:
    """Drop every node outside `keep` together with its incident edges."""
    idx = np.asarray(keep, dtype=np.intp)
    sub = graph.adjacency[idx][:, idx].tocsr()
    return _from_adjacency(sub, graph.laplacian_kind)


def _from_adjacency(adjacency: sp.csr_matrix, kind: str) -> CellGraph:
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown laplacian kind {kind!r}, expected one of {LAPLACIAN_KINDS}")
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    degrees = np.asarray(adjacency.sum(axis=1)).reshape(-1)

    if kind == "combinatorial":
        laplacian = (sp.diags(degrees) - adjacency).tocsr()
    else:
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
        scaled_adj = sp.diags(inv_sqrt) @ adjacency @ sp.diags(inv_sqrt)
        laplacian = (sp.identity(n, format="csr") - scaled_adj).tocsr()

    if adjacency.nnz == 0:
        lambda_max = 2.0  # edgeless convention
    else:
        lambda_max = _power_iteration_lambda_max(laplacian)
    scaled = (laplacian * (2.0 / lambda_max) - sp.identity(n, format="csr")).tocsr()
    return CellGraph(
        adjacency=adjacency,
        degrees=degrees.astype(np.int64),
        laplacian_kind=kind,
        laplacian=laplacian,
        lambda_max=float(lambda_max),
        scaled_laplacian=scaled,
    )


def _power_iteration_lambda_max(
    matrix, tol: float = _POWER_TOL, max_iter: int = _POWER_MAX_ITER
) -> float:
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    Converges on the iterate vector, not the eigenvalue: once the vector is
    stable to `tol`, the Rayleigh quotient is accurate to ~tol^2, which keeps
    the scaled operator's spectrum inside [-1, 1].
    """
    n = matrix.shape[0]
    rng = np.random.default_rng(0)  # fixed start keeps graphs reproducible
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        w /= norm
        delta = float(np.linalg.norm(w - v))
        v = w
        if delta <= tol:
            return float(v @ (matrix @ v))
    # Vector drift can outlast the cap on slow spectral gaps while the
    # Rayleigh quotient (quadratically accurate) is long settled; accept it
    # when the eigenpair residual certifies the estimate (error <= residual
    # for symmetric operators), otherwise report failure.
    estimate = float(v @ (matrix @ v))
    residual = float(np.linalg.norm(matrix @ v - estimate * v))
    if residual <= 1e-2 * max(1.0, abs(estimate)):
        return estimate
    raise PowerIterationError(residual=residual, iterations=max_iter)


def save_edge_list(graph: CellGraph, path) -> None:
    """Write each undirected edge once as '<u> <v>' with u < v, 0-indexed."""
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i in order:
            fh.write(f"{coo.row[i]} {coo.col[i]}\n")
