import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from celluster import cellgraph
from celluster.ingest import SynthesisSpec, synthesize
from celluster.preprocess import preprocess


def _random_graph(rng, n, p=0.3, kind="sym_normalized"):
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, k=1)
    adj = (adj | adj.T).astype(float)
    return cellgraph._from_adjacency(sp.csr_matrix(adj), kind)


def test_knn_three_points_on_a_line():
    # points at 0, 1, 3: nearest neighbors 0->1, 1->0, 2->1; OR-symmetrized
    # edges are {0,1} and {1,2}
    graph = cellgraph.knn_graph(np.array([[0.0], [1.0], [3.0]]), k=1)
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    np.testing.assert_array_equal(graph.adjacency.toarray(), expected)
    np.testing.assert_array_equal(graph.degrees, [1, 2, 1])


def test_knn_full_k_gives_complete_graph():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    graph = cellgraph.knn_graph(x, k=5)
    expected = np.ones((6, 6)) - np.eye(6)
    np.testing.assert_array_equal(graph.adjacency.toarray(), expected)


def test_knn_duplicate_points_tie_break_to_lower_index():
    # three coincident points, k=1: each picks the lowest other index;
    # the graph stays simple and symmetric
    x = np.zeros((3, 2))
    graph = cellgraph.knn_graph(x, k=1)
    adj = graph.adjacency.toarray()
    np.testing.assert_array_equal(adj, adj.T)
    np.testing.assert_array_equal(np.diag(adj), np.zeros(3))
    # 0 -> 1, 1 -> 0, 2 -> 0; OR gives edges {0,1}, {0,2}
    expected = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    np.testing.assert_array_equal(adj, expected)


def _stable_argsort_knn(x, k):
    """The kNN adjacency from a stable argsort of every full distance row."""
    n = x.shape[0]
    sq_norms = np.einsum("ij,ij->i", x, x)
    d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    directed = np.zeros((n, n))
    directed[np.repeat(np.arange(n), k), nearest.reshape(-1)] = 1.0
    return np.maximum(directed, directed.T)


@st.composite
def _tied_points(draw):
    """Points on a small integer grid, some rows repeated, and a k that is
    often n - 1: distances tie everywhere, also at the k-th neighbor."""
    n = draw(st.integers(2, 24))
    dim = draw(st.integers(1, 3))
    grid = draw(st.lists(st.integers(0, 2), min_size=n * dim, max_size=n * dim))
    x = np.array(grid, dtype=float).reshape(n, dim)
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    for src, dst in copies:
        x[dst] = x[src]
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    return x, k


@settings(max_examples=300, deadline=None)
@given(_tied_points())
def test_knn_matches_stable_argsort_oracle_on_ties(points):
    x, k = points
    graph = cellgraph.knn_graph(x, k)
    np.testing.assert_array_equal(graph.adjacency.toarray(), _stable_argsort_knn(x, k))


@pytest.mark.parametrize("grid", [True, False], ids=["tied-grid", "gaussian"])
def test_knn_is_the_same_graph_for_any_row_block(monkeypatch, grid):
    # 1 row per block, 7 (which does not divide 50) and one block of every row
    rng = np.random.default_rng(5)
    x = rng.integers(0, 3, size=(50, 2)).astype(float) if grid else rng.normal(size=(50, 4))
    graphs = []
    for block in (1, 7, 50, 512):
        monkeypatch.setattr(cellgraph, "KNN_ROW_BLOCK", block)
        graphs.append(cellgraph.knn_graph(x, k=6).adjacency.toarray())
    for adjacency in graphs[1:]:
        np.testing.assert_array_equal(adjacency, graphs[0])
    if grid:
        np.testing.assert_array_equal(graphs[0], _stable_argsort_knn(x, 6))


def test_knn_forms_no_n_by_n_array(monkeypatch):
    monkeypatch.setattr(cellgraph, "KNN_ROW_BLOCK", 100)
    n = 1200
    x = np.random.default_rng(6).normal(size=(n, 5))
    tracemalloc.start()
    try:
        cellgraph.knn_graph(x, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2  # an n x n float64 array would be 11.5 MB


def test_knn_k_out_of_range():
    x = np.zeros((4, 2))
    with pytest.raises(cellgraph.KRangeError):
        cellgraph.knn_graph(x, k=0)
    with pytest.raises(cellgraph.KRangeError):
        cellgraph.knn_graph(x, k=4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_knn_rejects_non_finite_features_naming_the_row(value):
    # a NaN row's distances are all NaN: none passes the k-th-distance cut
    x = np.random.default_rng(8).normal(size=(8, 3))
    x[5, 1] = value
    with pytest.raises(ValueError, match="features row 5 holds a non-finite value"):
        cellgraph.knn_graph(x, k=2)
    x[2] = np.nan  # the first such row is named
    with pytest.raises(ValueError, match="features row 2 holds a non-finite value"):
        cellgraph.knn_graph(x, k=2)


def test_path_graph_combinatorial_eigenvalues():
    # L of the 3-path has closed-form eigenvalues {0, 1, 3}
    graph = cellgraph.knn_graph(np.array([[0.0], [1.0], [3.0]]), k=1, laplacian_kind="combinatorial")
    eigs = np.sort(np.linalg.eigvalsh(graph.laplacian.toarray()))
    np.testing.assert_allclose(eigs, [0.0, 1.0, 3.0], atol=1e-12)
    assert graph.lambda_max == pytest.approx(3.0, rel=1e-6)
    # combinatorial L has zero row sums
    np.testing.assert_allclose(np.asarray(graph.laplacian.sum(axis=1)).ravel(), 0.0, atol=1e-12)


def test_edgeless_graph_convention():
    empty = sp.csr_matrix((4, 4))
    graph = cellgraph._from_adjacency(empty, "sym_normalized")
    assert graph.lambda_max == 2.0
    # I - 0 rows-as-identity gives L = I; 2I/2 - I = 0
    np.testing.assert_array_equal(graph.scaled_laplacian.toarray(), np.zeros((4, 4)))


def test_scaled_operator_is_a_contraction():
    # spectral bound: ||Lhat v|| <= ||v|| for unit vectors, both kinds
    rng = np.random.default_rng(1)
    for kind in cellgraph.LAPLACIAN_KINDS:
        graph = _random_graph(rng, 12, kind=kind)
        lhat = graph.scaled_laplacian
        for _ in range(100):
            v = rng.standard_normal(12)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(lhat @ v) <= 1.0 + 1e-6


def test_scaled_operator_eigenvalues_in_unit_interval():
    rng = np.random.default_rng(2)
    for kind in cellgraph.LAPLACIAN_KINDS:
        for _ in range(10):
            graph = _random_graph(rng, 9, kind=kind)
            eigs = np.linalg.eigvalsh(graph.scaled_laplacian.toarray())
            assert eigs.min() >= -1.0 - 1e-6
            assert eigs.max() <= 1.0 + 1e-6


def _assert_exactly_symmetric(lhat):
    assert lhat.format == "csr" and lhat.has_canonical_format
    assert (lhat != lhat.T).nnz == 0


@pytest.mark.parametrize("kind", cellgraph.LAPLACIAN_KINDS)
def test_scaled_laplacian_is_canonical_and_exactly_symmetric(kind):
    # model._clenshaw_backward multiplies by Lhat where the chain rule has
    # Lhat^T, which holds bit for bit only if Lhat equals its transpose
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 8))
    for k in (1, 5, 20):
        graph = cellgraph.knn_graph(x, k, kind)
        _assert_exactly_symmetric(graph.scaled_laplacian)
        keep = np.sort(rng.choice(300, size=300 - 33, replace=False))  # a seeded prune
        _assert_exactly_symmetric(cellgraph.subgraph(graph, keep).scaled_laplacian)
    for n in (5, 17, 40):
        adj = np.triu(rng.random((n, n)) < 0.2, k=1)
        adj = (adj | adj.T).astype(float)
        adj[:3] = adj[:, :3] = 0.0  # three isolated nodes
        graph = cellgraph._from_adjacency(sp.csr_matrix(adj), kind)
        assert (graph.degrees[:3] == 0).all()
        _assert_exactly_symmetric(graph.scaled_laplacian)
    edgeless = cellgraph._from_adjacency(sp.csr_matrix((6, 6)), kind)
    _assert_exactly_symmetric(edgeless.scaled_laplacian)


def test_adjacency_invariants_on_random_graphs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 4))
    graph = cellgraph.knn_graph(x, k=4)
    adj = graph.adjacency.toarray()
    np.testing.assert_array_equal(adj, adj.T)
    np.testing.assert_array_equal(np.diag(adj), np.zeros(25))
    assert set(np.unique(adj)) <= {0.0, 1.0}
    np.testing.assert_array_equal(graph.degrees, adj.sum(axis=1))


def test_permuting_nodes_and_permuting_back_is_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(15, 3))
    graph = cellgraph.knn_graph(x, k=3)
    perm = rng.permutation(15)
    inv = np.argsort(perm)
    permuted = cellgraph.knn_graph(x[perm], k=3)
    # structure is exact; the scaled operator inherits lambda_max, whose
    # Lanczos estimate from a fixed start vector agrees to rounding
    for field in ("adjacency", "laplacian"):
        mat = getattr(permuted, field).toarray()[inv][:, inv]
        np.testing.assert_array_equal(mat, getattr(graph, field).toarray())
    lhat = permuted.scaled_laplacian.toarray()[inv][:, inv]
    np.testing.assert_allclose(lhat, graph.scaled_laplacian.toarray(), atol=1e-9)


def test_lambda_max_matches_dense_eigensolver():
    # n <= 30: Lanczos reaches an invariant subspace or its residual bound
    # within n steps, so lambda_max is the top eigenvalue to rounding
    rng = np.random.default_rng(5)
    graphs = []
    for trial in range(25):
        n = int(rng.integers(4, 31))
        graphs.append(_random_graph(rng, n, p=0.35, kind=cellgraph.LAPLACIAN_KINDS[trial % 2]))
    for kind in cellgraph.LAPLACIAN_KINDS:
        for n in (6, 13, 30):
            # two components, then two isolated nodes among them
            halves = [np.triu(rng.random((m, m)) < 0.5, k=1) for m in (n // 2, n - n // 2)]
            upper = sp.block_diag(halves, dtype=float).toarray()
            adj = upper + upper.T
            graphs.append(cellgraph._from_adjacency(sp.csr_matrix(adj), kind))
            adj[[0, n - 1]] = adj[:, [0, n - 1]] = 0.0
            graphs.append(cellgraph._from_adjacency(sp.csr_matrix(adj), kind))
            assert graphs[-1].degrees[0] == graphs[-1].degrees[-1] == 0
    for graph in graphs:
        if graph.adjacency.nnz == 0:
            continue
        dense_top = float(np.linalg.eigvalsh(graph.laplacian.toarray()).max())
        assert graph.lambda_max == pytest.approx(dense_top, rel=1e-10)


class _CountingOperator:
    """A matrix that counts its products with a vector."""

    def __init__(self, matrix):
        self.matrix, self.shape, self.products = matrix, matrix.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.matrix @ v


@pytest.fixture(scope="module")
def accept_300_features():
    """The preprocessed accept-300 benchmark draws, synth seeds 1000-1009."""
    features = {}
    for seed in range(1000, 1010):
        data = synthesize(SynthesisSpec(
            n_cells=300, n_genes=200, n_clusters=3, dropout_rate=0.5, dispersion=1.5,
            mean_scale=1.8, seed=seed,
        ))
        features[seed] = preprocess(data, 200).normalized
    return features


def test_lanczos_on_300_cell_knn_graphs_stays_below_the_top_eigenvalue(accept_300_features):
    # The kNN graphs (k = 20) of the accept-300 benchmark draws. Their top
    # two eigenvalues lie within 1e-3 of each other, where power iteration
    # ran to a 1000-step cap on 9 of the 10 and read up to 7.3e-4 low.
    # Lanczos stops after 60-90 products. A Ritz value never exceeds the top
    # eigenvalue beyond rounding.
    for features in accept_300_features.values():
        graph = cellgraph.knn_graph(features, 20)
        operator = _CountingOperator(graph.laplacian)
        assert cellgraph._lanczos_lambda_max(operator) == graph.lambda_max
        assert operator.products <= 100
        top = float(np.linalg.eigvalsh(graph.laplacian.toarray()).max())
        assert graph.lambda_max <= top * (1.0 + 1e-14)
        assert graph.lambda_max == pytest.approx(top, rel=1e-8)


def test_lambda_max_of_1000_cell_knn_graphs_matches_dense_eigensolver():
    # Lanczos stops on its Ritz residual, not after a fixed step count: a
    # fixed 60 steps read lambda_max up to 1.5e-5 low on these graphs
    for seed in range(1000, 1004):
        data = synthesize(SynthesisSpec(
            n_cells=1000, n_genes=200, n_clusters=3, dropout_rate=0.5, dispersion=1.5,
            mean_scale=1.8, seed=seed,
        ))
        graph = cellgraph.knn_graph(preprocess(data, 200).normalized, 20)
        keep = np.sort(np.random.default_rng(seed).choice(1000, size=889, replace=False))
        for g in (graph, cellgraph.subgraph(graph, keep)):
            top = float(np.linalg.eigvalsh(g.laplacian.toarray()).max())
            assert g.lambda_max == pytest.approx(top, rel=1e-12), (seed, g.n)


@pytest.mark.parametrize("kind", cellgraph.LAPLACIAN_KINDS)
def test_scaled_laplacian_spectrum_of_300_cell_knn_graphs_lies_in_unit_interval(
    kind, accept_300_features
):
    # ChebNet's filter needs 2L/lambda_max - I inside [-1, 1]; each graph is
    # checked whole and after a seeded 11% node removal
    for seed, features in accept_300_features.items():
        graph = cellgraph.knn_graph(features, 20, kind)
        keep = np.sort(np.random.default_rng(seed).choice(300, size=267, replace=False))
        for g in (graph, cellgraph.subgraph(graph, keep)):
            eigs = np.linalg.eigvalsh(g.scaled_laplacian.toarray())
            assert -1.0 - 1e-12 <= eigs.min() and eigs.max() <= 1.0 + 1e-6, (seed, g.n)


def test_from_adjacency_switches_kind():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 2))
    graph = cellgraph.knn_graph(x, k=2)
    assert graph.laplacian_kind == "sym_normalized"
    comb = cellgraph._from_adjacency(graph.adjacency, "combinatorial")
    assert comb.laplacian_kind == "combinatorial"
    np.testing.assert_array_equal(comb.adjacency.toarray(), graph.adjacency.toarray())
    expected_l = np.diag(comb.degrees) - comb.adjacency.toarray()
    np.testing.assert_allclose(comb.laplacian.toarray(), expected_l, atol=0)


def test_subgraph_drops_incident_edges():
    graph = cellgraph.knn_graph(np.array([[0.0], [1.0], [3.0], [7.0]]), k=1)
    sub = cellgraph.subgraph(graph, [0, 2, 3])
    assert sub.n == 3
    adj = sub.adjacency.toarray()
    np.testing.assert_array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)


def test_edge_list_export(tmp_path):
    graph = cellgraph.knn_graph(np.array([[0.0], [1.0], [3.0]]), k=1)
    path = tmp_path / "edges.txt"
    cellgraph.save_edge_list(graph, path)
    assert path.read_text().splitlines() == ["0 1", "1 2"]


def test_edge_list_matches_one_write_per_edge(tmp_path):
    # the bytes of the per-edge form: each upper-triangle edge in (row, col)
    # order, written as its own line
    graph = cellgraph.knn_graph(np.random.default_rng(8).normal(size=(300, 4)), k=7)
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    want = tmp_path / "per_edge.txt"
    with open(want, "w") as fh:
        for i in np.lexsort((coo.col, coo.row)):
            fh.write(f"{coo.row[i]} {coo.col[i]}\n")
    got = tmp_path / "edges.txt"
    cellgraph.save_edge_list(graph, got)
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) == coo.nnz
