import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from celluster import losses, model
from celluster import numerics as nm
from celluster.cellgraph import _from_adjacency, knn_graph
from gradcheck import (
    backward_error,
    chebconv,
    chebyshev_basis,
    dense_hidden,
    layer_backward_reference,
    with_arrays,
)


def _head(z, weight, layers):
    """One head H W over the latent z, H the MLP `layers` over every row,
    with its backward: z's gradient, W's, then each MLP layer's weight and
    bias gradients. The dense reference path."""
    hidden = dense_hidden(z, layers)

    def vjp(g):
        d_z, *d_layers = hidden.backward(g @ weight.T)
        return [d_z, hidden.values.T @ g, *d_layers]

    return nm.Tensor(hidden.values @ weight, vjp)


def _dense_heads(decoded):
    """The three heads multiplied out, each with its backward."""
    return [_head(decoded.latent, w, decoded.layers) for w in decoded.weights]


def _random_graph(rng, n, p=0.4, kind="sym_normalized"):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adj = (upper | upper.T).astype(float)
    return _from_adjacency(sp.csr_matrix(adj), kind)


def _layer(rng, in_dim, out_dim, order):
    return model.ChebLayerParams(
        theta=tuple(rng.normal(size=(in_dim, out_dim)) for _ in range(order)),
        bias=np.zeros(out_dim),
    )


def _convolve(x, graph, layer):
    """encode on a ModelParams whose encoder is the one layer `layer`: a
    single Chebyshev convolution of x, on the code path the pipeline runs."""
    params = replace(
        model.init_params(n_genes=1, latent_dim=1, hidden_dim=1, zinb_dims=(1,)),
        encoder_layers=(layer,),
    )
    return model.encode(x, graph, params)


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
    out = _convolve(x, graph, layer)
    np.testing.assert_allclose(out.values, x @ layer.theta[0], atol=1e-14)


def test_chebconv_zero_operator_reduces_to_first_term():
    rng = np.random.default_rng(1)
    graph = _from_adjacency(sp.csr_matrix((5, 5)), "sym_normalized")  # Lhat = 0
    x = rng.normal(size=(5, 4))
    layer = _layer(rng, 4, 2, order=2)
    out = _convolve(x, graph, layer)
    np.testing.assert_allclose(out.values, x @ layer.theta[0], atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_chebconv_matches_dense_polynomial_oracle(order):
    # recursive forward vs explicitly built Chebyshev polynomials of Lhat
    for seed in range(10):
        rng = np.random.default_rng(100 * order + seed)
        n = int(rng.integers(3, 17))
        graph = _random_graph(rng, n, kind=["sym_normalized", "combinatorial"][seed % 2])
        x = rng.normal(size=(n, 5))
        layer = _layer(rng, 5, 3, order=order)
        out = _convolve(x, graph, layer)
        lhat = graph.scaled_laplacian.toarray()
        expected = sum(
            poly @ x @ theta
            for poly, theta in zip(_cheb_polynomials(lhat, order), layer.theta)
        )
        assert np.max(np.abs(out.values - expected)) < 1e-10


@pytest.mark.parametrize("kind", ["sym_normalized", "combinatorial"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_encode_matches_the_two_layer_dense_polynomial_oracle(order, kind):
    # both layers, the relu between them and non-zero biases, against
    # explicitly built Chebyshev polynomials of Lhat
    for seed in range(5):
        rng = np.random.default_rng(90 * order + seed)
        n = int(rng.integers(3, 17))
        graph = _random_graph(rng, n, kind=kind)
        params = model.init_params(n_genes=5, latent_dim=3, hidden_dim=4, cheb_order=order, seed=seed)
        params = params.map_named(
            lambda name, a: rng.normal(size=a.shape) if name.endswith("bias") else a
        )
        x = rng.normal(size=(n, 5))
        polys = _cheb_polynomials(graph.scaled_laplacian.toarray(), order)
        h = x
        for i, layer in enumerate(params.encoder_layers):
            h = sum(poly @ h @ theta for poly, theta in zip(polys, layer.theta)) + layer.bias
            if i == 0:
                h = np.maximum(h, 0.0)
        got = model.encode(x, graph, params).values
        assert np.max(np.abs(got - h)) < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_encode_equals_the_input_side_basis_sum(order):
    # the output-side recurrence and the stored basis sum_k (T_k(Lhat) x) theta_k
    # are one polynomial; on a kNN graph at the accept-300 width they agree
    # to rounding
    rng = np.random.default_rng(order)
    x = rng.normal(size=(300, 200))
    graph = knn_graph(x, 20)
    layer = _layer(rng, 200, 32, order)
    want = sum(z @ theta for z, theta in zip(chebyshev_basis(x, graph, order), layer.theta))
    got = _convolve(x, graph, layer).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_chebconv_shape_mismatch():
    rng = np.random.default_rng(2)
    graph = _random_graph(rng, 6)
    layer = _layer(rng, 4, 3, order=2)
    with pytest.raises(nm.ShapeMismatchError):
        _convolve(np.zeros((5, 4)), graph, layer)  # one row short of the graph
    with pytest.raises(nm.ShapeMismatchError):
        _convolve(np.zeros((6, 7)), graph, layer)  # wider than the weights' fan-in


# Draws with a bipartite component, so lambda_max = 2 under sym_normalized.
# Read about 1e-12 below 2, it left the isolated node a near-zero
# Lhat_00 = 2/lambda_max - 1 that central differences cannot resolve, and
# the check failed at up to 8.8e-5.
_BIPARTITE_DRAWS = {(4, "sym_normalized"): (100015, 100027), (5, "sym_normalized"): (100026,)}


@pytest.mark.parametrize("kind", ["sym_normalized", "combinatorial"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_encode_gradients_match_finite_differences(order, kind):
    for seed in (*range(5), *_BIPARTITE_DRAWS.get((order, kind), ())):
        rng = np.random.default_rng(50 * order + seed)
        n = int(rng.integers(4, 15))
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        upper[0, :] = False  # node 0 is isolated
        adj = (upper | upper.T).astype(float)
        graph = _from_adjacency(sp.csr_matrix(adj), kind)
        assert graph.degrees[0] == 0
        params = model.init_params(n_genes=6, latent_dim=3, hidden_dim=5, cheb_order=order, seed=seed)
        x = rng.normal(size=(n, 6))
        w = rng.normal(size=(n, 3))
        names = [name for name, _ in params.named_parameters() if name.startswith("enc")]
        encoder = [a for name, a in params.named_parameters() if name in names]
        err = backward_error(
            lambda a: model.encode(x, graph, with_arrays(params, names, a)), encoder, w
        )
        assert err < 1e-5, f"seed {seed}: max relative error {err}"


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_chebconv_gradients_match_finite_differences(order):
    # the weight and bias gradients of one layer; encode never forms its
    # first layer's input gradient, and the second layer's feeds the first
    # in test_encode_gradients_match_finite_differences
    for seed in range(5):
        rng = np.random.default_rng(70 * order + seed)
        graph = _random_graph(rng, int(rng.integers(3, 12)), kind=("sym_normalized", "combinatorial")[seed % 2])
        layer = _layer(rng, 4, 3, order)
        x = rng.normal(size=(graph.n, 4))
        w = rng.normal(size=(graph.n, 3))

        def forward(a):  # the layer's theta_k, then its bias
            return _convolve(x, graph, model.ChebLayerParams(tuple(a[:-1]), a[-1]))

        err = backward_error(forward, [*layer.theta, layer.bias], w)
        assert err < 1e-5, f"seed {seed}: max relative error {err}"


def _chained_chebconv(x, graph, params):
    """The encoder written as chained one-layer references (gradcheck's
    chebconv) with a relu between them, its backward chained by hand: the
    oracle that encode must reproduce bit for bit."""
    layers, outs = params.encoder_layers, []
    h = x
    for i, layer in enumerate(layers):
        outs.append(chebconv(h, graph, layer))
        h = outs[-1].values if i == len(layers) - 1 else np.maximum(outs[-1].values, 0.0)

    def vjp(g):
        grads = []
        for i in reversed(range(len(layers))):
            d_input, *layer_grads = outs[i].backward(g)
            grads[:0] = layer_grads
            if i:
                g = d_input * (outs[i - 1].values > 0.0)
        return grads

    return nm.Tensor(h, vjp)


@pytest.mark.parametrize("kind", ["sym_normalized", "combinatorial"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_encode_on_the_basis_equals_chained_chebconv_bit_for_bit(order, kind):
    # encode wires the layers, the relu mask and the gradients itself; with
    # one layer it is the reference alone, the subject of criterion 2
    for seed in range(5):
        rng = np.random.default_rng(50 * order + seed)
        n = int(rng.integers(4, 15))
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        upper[0, :] = False  # node 0 is isolated
        graph = _from_adjacency(sp.csr_matrix((upper | upper.T).astype(float)), kind)
        params = model.init_params(n_genes=6, latent_dim=3, hidden_dim=5, cheb_order=order, seed=seed)
        x = rng.normal(size=(n, 6))
        weights = rng.normal(size=(n, 3))
        one_layer = replace(params, encoder_layers=params.encoder_layers[:1])
        for p, w in ((params, weights), (one_layer, rng.normal(size=(n, 5)))):
            want = _chained_chebconv(x, graph, p)
            got = model.encode(x, graph, p)
            assert np.array_equal(got.values, want.values)
            names = [name for name, _ in p.named_parameters() if name.startswith("enc")]
            grads = zip(names, got.backward(w), want.backward(w), strict=True)
            for name, grad, want_grad in grads:
                assert np.array_equal(grad, want_grad), name


@pytest.mark.parametrize("want_input", [True, False])
@pytest.mark.parametrize("kind", ["sym_normalized", "combinatorial"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_layer_backward_equals_the_plain_recursion_bit_for_bit(order, kind, want_input):
    # the recursion's in-place doubling and early releases change no bit, nor
    # does multiplying by Lhat where the reference takes Lhat^T; the upstream
    # gradients hold exact zeros and entries near 1e3
    for seed in range(5):
        rng = np.random.default_rng(70 * order + seed)
        n = int(rng.integers(4, 30))
        graph = _random_graph(rng, n, p=0.3, kind=kind)
        layer = _layer(rng, 6, 4, order)
        x = rng.normal(size=(n, 6))
        g = rng.normal(scale=1e3, size=(n, 4)) * (rng.random((n, 4)) < 0.7)
        lhat = graph.scaled_laplacian
        got_input, got = model._clenshaw_backward(g, x, layer.theta, lhat, want_input)
        want_input_grad, want = layer_backward_reference(g, x, layer.theta, lhat.T, want_input)
        if want_input:
            assert got_input.tobytes() == want_input_grad.tobytes()
        else:
            assert got_input is None and want_input_grad is None
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_encode_backward_holds_at_most_three_recursion_arrays():
    # the second layer's input gradient is carried in D_{k+1}, D_k and one
    # sparse product, and the relu mask is applied to it in place
    n, hidden, order = 2000, 128, 3
    rng = np.random.default_rng(29)
    x = rng.normal(size=(n, 64))
    graph = knn_graph(x, 10)
    params = model.init_params(n_genes=64, latent_dim=16, hidden_dim=hidden, cheb_order=order, seed=5)
    z = model.encode(x, graph, params)
    g = rng.normal(size=z.values.shape)
    tracemalloc.start()
    try:
        z.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = n * hidden * 8
    assert peak < 3.5 * block


def test_encode_frees_the_first_layer_products():
    # x theta_k and the recursion on it only feed the first layer's sum, so
    # once encode returns nothing holds them: what stays allocated is the
    # output and the second layer's input (the relu output), which backward
    # reads
    rng = np.random.default_rng(17)
    n, hidden, order = 400, 64, 3
    graph = _random_graph(rng, n, p=0.02)
    params = model.init_params(n_genes=50, latent_dim=8, hidden_dim=hidden, cheb_order=order, seed=4)
    x = rng.normal(size=(n, 50))
    tracemalloc.start()
    try:
        z = model.encode(x, graph, params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    one_product = n * hidden * 8
    assert held < one_product + z.values.nbytes + one_product // 2


def test_encode_holds_no_term_of_the_input_width():
    # at the scale point's width the result keeps the output and the one
    # n x hidden relu output; any n x 500 term would be 8 MB more
    n, genes, hidden = 2000, 500, 64
    rng = np.random.default_rng(31)
    x = rng.normal(size=(n, genes))
    graph = knn_graph(x, 10)
    params = model.init_params(n_genes=genes, latent_dim=16, hidden_dim=hidden, seed=6)
    tracemalloc.start()
    try:
        z = model.encode(x, graph, params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= z.values.nbytes + n * hidden * 8 + 4096


def test_rebinding_parameters_before_backward_leaves_gradients_unchanged():
    # encode's result keeps the weights it read: replacing the parameters,
    # as a training step does, or the result's values before backward
    # changes no gradient
    rng = np.random.default_rng(33)
    graph = _random_graph(rng, 7)
    x = rng.normal(size=(7, 5))
    w = rng.normal(size=(7, 3))

    def run(rebind):
        params = model.init_params(n_genes=5, latent_dim=3, hidden_dim=4, seed=2)
        out = model.encode(x, graph, params)
        if rebind:
            params = params.map_named(lambda _, a: -7.0 * a)
            out.values = -7.0 * out.values
        return out.backward(w)

    for kept, moved in zip(run(rebind=False), run(rebind=True), strict=True):
        assert np.array_equal(kept, moved)


def test_encode_rejects_a_basis_that_does_not_fit():
    rng = np.random.default_rng(9)
    graph = _random_graph(rng, 6)
    params = model.init_params(n_genes=4, latent_dim=2, hidden_dim=3, cheb_order=3, seed=0)
    x = rng.normal(size=(6, 4))
    with pytest.raises(nm.ShapeMismatchError):
        model.encode(x[:, :3], graph, params)  # too narrow
    with pytest.raises(nm.ShapeMismatchError):
        model.encode(x[:5], graph, params)  # one row short of the graph
    with pytest.raises(nm.ShapeMismatchError):
        model.encode(x[:, :, None], graph, params)  # not a matrix


def test_decode_zinb_nan_names_the_head():
    params = model.init_params(n_genes=4, latent_dim=3, seed=0)
    params.head_theta[1, 2] = np.nan
    with pytest.raises(losses.NonFiniteLossError, match="theta head"):
        losses.loss_zinb(np.ones((2, 4)), model.decode_zinb(np.ones((2, 3)), params))


def test_encode_zero_input_zero_bias_gives_zero_embedding():
    rng = np.random.default_rng(3)
    graph = _random_graph(rng, 8)
    params = model.init_params(n_genes=10, latent_dim=4, hidden_dim=6, seed=0)
    z = model.encode(np.zeros((8, 10)), graph, params)
    np.testing.assert_array_equal(z.values, np.zeros((8, 4)))


def test_encode_is_deterministic():
    rng = np.random.default_rng(4)
    graph = _random_graph(rng, 8)
    params = model.init_params(n_genes=10, latent_dim=4, hidden_dim=6, seed=1)
    x = rng.normal(size=(8, 10))
    za = model.encode(x, graph, params)
    zb = model.encode(x, graph, params)
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

    z = model.encode(x, graph, params)
    z_p = model.encode(x[perm], graph_p, params)
    np.testing.assert_allclose(z_p.values, z.values[perm], atol=1e-9)

    a_rec = model.decode_adjacency(z.values)
    a_rec_p = model.decode_adjacency(z_p.values)
    np.testing.assert_allclose(a_rec_p, a_rec[np.ix_(perm, perm)], atol=1e-9)

    heads = _dense_heads(model.decode_zinb(z.values, params))
    heads_p = _dense_heads(model.decode_zinb(z_p.values, params))
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
    params = params.map_named(lambda _, a: np.zeros_like(a))
    heads = _dense_heads(
        model.decode_zinb(np.random.default_rng(0).normal(size=(3, 4)), params)
    )
    for pre in heads:  # pi = sigmoid(0) = 1/2, mu = theta = exp(0) = 1
        np.testing.assert_array_equal(pre.values, np.zeros((3, 6)))


def test_decode_zinb_ranges_hold_for_random_weights():
    rng = np.random.default_rng(6)
    for seed in range(20):
        params = model.init_params(n_genes=5, latent_dim=3, hidden_dim=4, seed=seed)
        params = params.map_named(lambda _, a: rng.uniform(-1.0, 1.0, size=a.shape))
        z = rng.uniform(-5, 5, size=(4, 3))
        decoded = model.decode_zinb(z, params)
        heads = _dense_heads(decoded)
        assert all(pre.shape == (4, 5) and np.all(np.isfinite(pre.values)) for pre in heads)
        counts = rng.integers(0, 5, size=(4, 5))
        assert np.isfinite(losses.loss_zinb(counts, decoded)[0])


def test_decode_zinb_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = model.init_params(n_genes=4, latent_dim=3, hidden_dim=3, zinb_dims=(4, 5, 6), seed=3)
    z = rng.normal(size=(3, 3)) * 0.5
    w = rng.normal(size=(3, 4))
    mlp = [t for pair in params.zinb_fc for t in pair]

    def head(a):  # z, the head's weight, then the MLP's weights and biases
        return _head(a[0], a[1], tuple(zip(a[2::2], a[3::2])))

    weights = (params.head_pi, params.head_mu, params.head_theta)
    for weight, name in zip(weights, ("pi", "mu", "theta")):
        err = backward_error(head, [z, weight, *mlp], w)
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
