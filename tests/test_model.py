import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from celluster import losses, model
from celluster import numerics as nm
from celluster.cellgraph import _from_adjacency
from gradcheck import leaf_gradient_error, project


def _dense_heads(decoded):
    """The three heads multiplied out, each one node: the dense reference path."""
    h = decoded.hidden
    hv = h.values

    def head(w):
        wv = w.values
        return nm.closed_form(hv @ wv, (h, w), lambda g: (g @ wv.T, hv.T @ g))

    return [head(w) for w in decoded.weights]


def _random_graph(rng, n, p=0.4, kind="sym_normalized"):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adj = (upper | upper.T).astype(float)
    return _from_adjacency(sp.csr_matrix(adj), kind)


def _layer(rng, in_dim, out_dim, order):
    return model.ChebLayerParams(
        theta=[
            nm.Tensor(rng.normal(size=(in_dim, out_dim)), requires_grad=True)
            for _ in range(order)
        ],
        bias=nm.Tensor(np.zeros(out_dim), requires_grad=True),
    )


def _cheb_polynomials(lhat: np.ndarray, order: int) -> list[np.ndarray]:
    """Dense T_0 .. T_{order-1} built explicitly from the recurrence."""
    n = lhat.shape[0]
    polys = [np.eye(n)]
    if order >= 2:
        polys.append(lhat.copy())
    for _ in range(2, order):
        polys.append(2.0 * lhat @ polys[-1] - polys[-2])
    return polys[:order]


def test_chebconv_order_one_ignores_the_graph():
    rng = np.random.default_rng(0)
    graph = _random_graph(rng, 6)
    x = rng.normal(size=(6, 4))
    layer = _layer(rng, 4, 3, order=1)
    out = model.chebconv_forward(nm.Tensor(x), graph, layer)
    np.testing.assert_allclose(out.values, x @ layer.theta[0].values, atol=1e-14)


def test_chebconv_zero_operator_reduces_to_first_term():
    rng = np.random.default_rng(1)
    graph = _from_adjacency(sp.csr_matrix((5, 5)), "sym_normalized")  # Lhat = 0
    x = rng.normal(size=(5, 4))
    layer = _layer(rng, 4, 2, order=2)
    out = model.chebconv_forward(nm.Tensor(x), graph, layer)
    np.testing.assert_allclose(out.values, x @ layer.theta[0].values, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_chebconv_matches_dense_polynomial_oracle(order):
    # recursive forward vs explicitly built Chebyshev polynomials of Lhat
    for seed in range(10):
        rng = np.random.default_rng(100 * order + seed)
        n = int(rng.integers(3, 17))
        graph = _random_graph(rng, n, kind=["sym_normalized", "combinatorial"][seed % 2])
        x = rng.normal(size=(n, 5))
        layer = _layer(rng, 5, 3, order=order)
        out = model.chebconv_forward(nm.Tensor(x), graph, layer)
        lhat = graph.scaled_laplacian.toarray()
        expected = sum(
            poly @ x @ theta.values
            for poly, theta in zip(_cheb_polynomials(lhat, order), layer.theta)
        )
        assert np.max(np.abs(out.values - expected)) < 1e-10


def test_chebconv_shape_mismatch():
    rng = np.random.default_rng(2)
    graph = _random_graph(rng, 6)
    layer = _layer(rng, 4, 3, order=2)
    with pytest.raises(nm.ShapeMismatchError):
        model.chebconv_forward(nm.Tensor(np.zeros((5, 4))), graph, layer)
    with pytest.raises(nm.ShapeMismatchError):
        model.chebconv_forward(nm.Tensor(np.zeros((6, 7))), graph, layer)


@pytest.mark.parametrize("kind", ["sym_normalized", "combinatorial"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_encode_gradients_match_finite_differences(order, kind):
    for seed in range(5):
        rng = np.random.default_rng(50 * order + seed)
        n = int(rng.integers(4, 15))
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        upper[0, :] = False  # node 0 is isolated
        adj = (upper | upper.T).astype(float)
        graph = _from_adjacency(sp.csr_matrix(adj), kind)
        assert graph.degrees[0] == 0
        params = model.init_params(n_genes=6, latent_dim=3, hidden_dim=5, cheb_order=order, seed=seed)
        x = rng.normal(size=(n, 6))
        basis = model.chebyshev_basis(x, graph, order)
        assert len(basis) == order and np.array_equal(basis[0], x)
        w = rng.normal(size=(n, 3))
        leaves = [t for name, t in params.named_parameters() if name.startswith("enc")]
        err = leaf_gradient_error(lambda: project(model.encode(basis, graph, params), w), leaves)
        assert err < 1e-5, f"seed {seed}: max relative error {err}"


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_chebconv_gradients_match_finite_differences(order):
    # in the input too, which encode never needs of its first layer
    for seed in range(5):
        rng = np.random.default_rng(70 * order + seed)
        graph = _random_graph(rng, int(rng.integers(3, 12)), kind=("sym_normalized", "combinatorial")[seed % 2])
        layer = _layer(rng, 4, 3, order)
        x = nm.Tensor(rng.normal(size=(graph.n, 4)), requires_grad=True)
        w = rng.normal(size=(graph.n, 3))
        leaves = [x, *layer.theta, layer.bias]
        err = leaf_gradient_error(lambda: project(model.chebconv_forward(x, graph, layer), w), leaves)
        assert err < 1e-5, f"seed {seed}: max relative error {err}"


def _relu(t):
    """relu as one closed-form node."""
    out = np.maximum(t.values, 0.0)
    return nm.closed_form(out, (t,), lambda g: (g * (out > 0.0),))


def _chained_chebconv(x, graph, params):
    """The encoder written as chained chebconv_forward nodes with a relu
    node between them: the oracle that encode must reproduce bit for bit."""
    h = nm.Tensor(x)
    for i, layer in enumerate(params.encoder_layers):
        h = model.chebconv_forward(h, graph, layer)
        if i != len(params.encoder_layers) - 1:
            h = _relu(h)
    return h


@pytest.mark.parametrize("kind", ["sym_normalized", "combinatorial"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_encode_on_the_basis_equals_chained_chebconv_bit_for_bit(order, kind):
    # encode wires the layers, the relu mask and the gradients itself
    for seed in range(5):
        rng = np.random.default_rng(50 * order + seed)
        n = int(rng.integers(4, 15))
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        upper[0, :] = False  # node 0 is isolated
        graph = _from_adjacency(sp.csr_matrix((upper | upper.T).astype(float)), kind)
        params = model.init_params(n_genes=6, latent_dim=3, hidden_dim=5, cheb_order=order, seed=seed)
        x = rng.normal(size=(n, 6))
        weights = rng.normal(size=(n, 3))
        want = _chained_chebconv(x, graph, params)
        project(want, weights).backward()
        want_grads = [t.grad for _, t in params.named_parameters()]
        got = model.encode(model.chebyshev_basis(x, graph, order), graph, params)
        assert np.array_equal(got.values, want.values)
        project(got, weights).backward()
        for (name, t), grad in zip(params.named_parameters(), want_grads):
            assert np.array_equal(t.grad, grad), name


def test_encode_frees_the_first_layer_products():
    # basis[k] @ theta_k only feeds the first layer's sum, so once encode
    # returns nothing holds the products: what stays allocated is the output
    # and the second layer's basis (the relu output and its recursion),
    # which backward reads
    rng = np.random.default_rng(17)
    n, hidden, order = 400, 64, 3
    graph = _random_graph(rng, n, p=0.02)
    params = model.init_params(n_genes=50, latent_dim=8, hidden_dim=hidden, cheb_order=order, seed=4)
    basis = model.chebyshev_basis(rng.normal(size=(n, 50)), graph, order)
    tracemalloc.start()
    try:
        z = model.encode(basis, graph, params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    one_product = n * hidden * 8
    assert held < order * one_product + z.values.nbytes + one_product // 2


@pytest.mark.parametrize("node", ["encode", "chebconv_forward", "decode_zinb"])
def test_rebinding_parameters_before_backward_leaves_gradients_unchanged(node):
    # each node keeps the weights it read: backward never reads a Tensor's values
    rng = np.random.default_rng(33)
    graph = _random_graph(rng, 7)
    x = rng.normal(size=(7, 5))
    w = rng.normal(size=(7, 3))

    def run(rebind):
        params = model.init_params(n_genes=5, latent_dim=3, hidden_dim=4, zinb_dims=(4, 3), seed=2)
        forward = {
            "encode": lambda: model.encode(model.chebyshev_basis(x, graph, 3), graph, params),
            "chebconv_forward": lambda: model.chebconv_forward(
                nm.Tensor(x[:, :4], requires_grad=True), graph, params.encoder_layers[1]
            ),
            "decode_zinb": lambda: model.decode_zinb(nm.Tensor(x[:, :3]), params).hidden,
        }[node]
        loss = project(forward(), w)
        named = params.named_parameters()
        if rebind:
            for _, t in named:
                t.values = -7.0 * t.values
        loss.backward()
        return [t.grad for _, t in named]

    for kept, moved in zip(run(rebind=False), run(rebind=True)):
        assert (kept is None and moved is None) or np.array_equal(kept, moved)


def test_encode_rejects_a_basis_that_does_not_fit():
    rng = np.random.default_rng(9)
    graph = _random_graph(rng, 6)
    params = model.init_params(n_genes=4, latent_dim=2, hidden_dim=3, cheb_order=3, seed=0)
    x = rng.normal(size=(6, 4))
    with pytest.raises(nm.ShapeMismatchError):
        model.encode(model.chebyshev_basis(x, graph, 2), graph, params)  # too few terms
    with pytest.raises(nm.ShapeMismatchError):
        model.encode(model.chebyshev_basis(x[:, :3], graph, 3), graph, params)  # too narrow
    with pytest.raises(nm.ShapeMismatchError):
        model.chebyshev_basis(x[:5], graph, 3)  # one row short of the graph


def test_decode_zinb_nan_names_the_head():
    params = model.init_params(n_genes=4, latent_dim=3, seed=0)
    params.head_theta.values[1, 2] = np.nan
    with pytest.raises(model.NonFiniteOutputError, match="theta head"):
        losses.loss_zinb(np.ones((2, 4)), model.decode_zinb(nm.Tensor(np.ones((2, 3))), params))


def test_encode_zero_input_zero_bias_gives_zero_embedding():
    rng = np.random.default_rng(3)
    graph = _random_graph(rng, 8)
    params = model.init_params(n_genes=10, latent_dim=4, hidden_dim=6, seed=0)
    z = model.encode(model.chebyshev_basis(np.zeros((8, 10)), graph, 3), graph, params)
    np.testing.assert_array_equal(z.values, np.zeros((8, 4)))


def test_encode_is_deterministic():
    rng = np.random.default_rng(4)
    graph = _random_graph(rng, 8)
    params = model.init_params(n_genes=10, latent_dim=4, hidden_dim=6, seed=1)
    x = rng.normal(size=(8, 10))
    za = model.encode(model.chebyshev_basis(x, graph, 3), graph, params)
    zb = model.encode(model.chebyshev_basis(x, graph, 3), graph, params)
    assert np.array_equal(za.values, zb.values)


def test_full_forward_is_node_permutation_equivariant():
    rng = np.random.default_rng(5)
    n = 9
    graph = _random_graph(rng, n)
    params = model.init_params(n_genes=7, latent_dim=3, hidden_dim=5, seed=2)
    x = rng.normal(size=(n, 7))
    perm = rng.permutation(n)

    adj_p = graph.adjacency.toarray()[np.ix_(perm, perm)]
    graph_p = _from_adjacency(sp.csr_matrix(adj_p), graph.laplacian_kind)

    z = model.encode(model.chebyshev_basis(x, graph, 3), graph, params)
    z_p = model.encode(model.chebyshev_basis(x[perm], graph_p, 3), graph_p, params)
    np.testing.assert_allclose(z_p.values, z.values[perm], atol=1e-9)

    a_rec = model.decode_adjacency(z.values)
    a_rec_p = model.decode_adjacency(z_p.values)
    np.testing.assert_allclose(a_rec_p, a_rec[np.ix_(perm, perm)], atol=1e-9)

    heads = _dense_heads(model.decode_zinb(z, params))
    heads_p = _dense_heads(model.decode_zinb(z_p, params))
    for pre, pre_p in zip(heads, heads_p):
        np.testing.assert_allclose(pre_p.values, pre.values[perm], atol=1e-9)


def test_decode_adjacency_orthogonal_rows_give_half():
    a_rec = model.decode_adjacency(np.eye(3))
    off_diag = a_rec[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off_diag, 0.5, atol=1e-15)


def test_decode_adjacency_identical_rows_match_diagonal():
    a_rec = model.decode_adjacency(np.array([[1.0, 2.0], [1.0, 2.0], [0.5, -1.0]]))
    assert a_rec[0, 1] == a_rec[0, 0] == a_rec[1, 1]
    np.testing.assert_allclose(a_rec, a_rec.T, atol=0)


def test_decode_adjacency_unit_norm_single_cell():
    a_rec = model.decode_adjacency([[1.0]])
    assert a_rec[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)
    assert a_rec[0, 0] == pytest.approx(0.7311, abs=5e-5)


def test_decode_zinb_all_zero_weights():
    params = model.init_params(n_genes=6, latent_dim=4, seed=0)
    for _, t in params.named_parameters():
        t.values = np.zeros_like(t.values)
    heads = _dense_heads(
        model.decode_zinb(nm.Tensor(np.random.default_rng(0).normal(size=(3, 4))), params)
    )
    for pre in heads:  # pi = sigmoid(0) = 1/2, mu = theta = exp(0) = 1
        np.testing.assert_array_equal(pre.values, np.zeros((3, 6)))


def test_decode_zinb_ranges_hold_for_random_weights():
    rng = np.random.default_rng(6)
    for seed in range(20):
        params = model.init_params(n_genes=5, latent_dim=3, hidden_dim=4, seed=seed)
        for _, t in params.named_parameters():
            t.values = rng.uniform(-1.0, 1.0, size=t.values.shape)
        z = nm.Tensor(rng.uniform(-5, 5, size=(4, 3)))
        decoded = model.decode_zinb(z, params)
        heads = _dense_heads(decoded)
        assert all(pre.shape == (4, 5) and np.all(np.isfinite(pre.values)) for pre in heads)
        counts = rng.integers(0, 5, size=(4, 5))
        assert np.isfinite(losses.loss_zinb(counts, decoded).item())


def test_decode_zinb_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = model.init_params(n_genes=4, latent_dim=3, hidden_dim=3, zinb_dims=(4, 5, 6), seed=3)
    z = nm.Tensor(rng.normal(size=(3, 3)) * 0.5, requires_grad=True)
    w = rng.normal(size=(3, 4))
    leaves = [z, params.head_pi, params.head_mu, params.head_theta]
    leaves += [t for pair in params.zinb_fc for t in pair]
    for head, name in enumerate(("pi", "mu", "theta")):

        def loss():
            return project(_dense_heads(model.decode_zinb(z, params))[head], w)

        err = leaf_gradient_error(loss, leaves)
        assert err < 1e-5, f"{name} head: max relative error {err}"


def test_soft_assign_equidistant_centers():
    q = model.soft_assign(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert isinstance(q, np.ndarray)
    np.testing.assert_allclose(q, [[0.5, 0.5]], atol=1e-15)


def test_soft_assign_on_center_versus_unit_away():
    # distance 0 to the first center, squared distance 1 to the second:
    # kernel (1, 1/2) -> q = (2/3, 1/3)
    q = model.soft_assign(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(q, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_soft_assign_rows_sum_to_one():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(20, 5)) * 3
    centers = rng.normal(size=(4, 5))
    q = model.soft_assign(z, centers)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(q > 0) and np.all(q < 1)


def test_named_parameters_are_stable_and_complete():
    params = model.init_params(n_genes=5, latent_dim=3, hidden_dim=4, seed=0)
    names = [n for n, _ in params.named_parameters()]
    assert names[0] == "enc0.theta0"
    assert "head_mu.weight" in names
    assert "cluster_centers" not in names
    with_centers = params.with_centers(np.zeros((2, 3)))
    assert [n for n, _ in with_centers.named_parameters()][-1] == "cluster_centers"
