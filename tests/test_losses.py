import math
import tracemalloc
import weakref

import numpy as np
import pytest

import scipy.sparse as sp

from celluster import losses, model
from celluster import numerics as nm
from gradcheck import finite_difference_gradients, leaf_gradient_error, max_relative_error


def _pre(pi, mu, theta):
    """The head pre-activations (logit pi, log mu, log theta) of the given
    activations."""
    pi = np.asarray(pi, dtype=float)
    return [np.log(pi) - np.log1p(-pi), np.log(mu), np.log(theta)]


def _zinb(pi, mu, theta, grad=False):
    return [nm.Tensor(a, requires_grad=grad) for a in _pre(pi, mu, theta)]


def _dense_heads(decoded):
    """The three heads multiplied out, each one node: the dense reference path."""
    h = decoded.hidden
    hv = h.values

    def head(w):
        wv = w.values
        return nm.closed_form(hv @ wv, (h, w), lambda g: (g @ wv.T, hv.T @ g))

    return [head(w) for w in decoded.weights]


def nb_nll_oracle(x, mu, theta):
    """Independent negative binomial NLL, coded from the pmf directly."""
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    coeff = gammaln(x + theta) - gammaln(x + 1.0) - gammaln(theta)
    log_pmf = coeff + theta * np.log(theta / (theta + mu)) + x * np.log(mu / (theta + mu))
    return -log_pmf


# -- reconstruction ------------------------------------------------------------


def _symmetric_adjacency(rng, n, p=0.3):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return (upper | upper.T).astype(float)


def _rec_on(adjacency, z, subset=None):
    """loss_rec over subset x subset, gathered the way the train step does."""
    if subset is None:
        return losses.loss_rec(adjacency, z)
    return losses.loss_rec(adjacency[subset][:, subset], nm.index_rows(z, subset))


def _zinb_on(x, tensors, subset=None):
    """loss_zinb over the subset rows, gathered the way the train step does."""
    if subset is not None:
        x = x[subset]
        tensors = [nm.index_rows(t, subset) for t in tensors]
    return losses.loss_zinb(x, tensors)


def _rec_oracle(adjacency, z0, subset=None):
    """Dense n x n reconstruction in numpy; returns (value, dL/dz). With
    S = sigmoid(Z Z^T) and G = 2 (S - A) S (1 - S), dL/dZ = (G + G^T) Z."""
    a = adjacency.toarray() if sp.issparse(adjacency) else np.asarray(adjacency)
    idx = np.arange(len(z0)) if subset is None else np.asarray(subset)
    z = z0[idx]
    s = model.decode_adjacency(z)
    diff = s - a[np.ix_(idx, idx)]
    g = 2.0 * diff * s * (1.0 - s)
    grad = np.zeros_like(z0)
    np.add.at(grad, idx, (g + g.T) @ z)
    return float((diff * diff).sum()), grad


def test_loss_rec_zero_when_equal():
    # z = 0 reconstructs every entry as sigmoid(0) = 1/2
    a = np.full((3, 3), 0.5)
    assert losses.loss_rec(a, nm.Tensor(np.zeros((3, 2)))).item() == 0.0


def test_loss_rec_hand_value():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = nm.Tensor(np.zeros((2, 1)))
    assert losses.loss_rec(a, z).item() == pytest.approx(1.0, abs=1e-15)


def test_loss_rec_single_node_mask():
    a = np.array([[0.2, 1.0], [1.0, 0.7]])
    z = nm.Tensor(np.array([[0.9], [0.0]]), requires_grad=True)  # node 1 reconstructs itself as 1/2
    loss = _rec_on(a, z, [1])
    assert loss.item() == pytest.approx((0.7 - 0.5) ** 2, abs=1e-15)
    loss.backward()
    assert z.grad[0, 0] == 0.0


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("subset_kind", ["none", "subset", "single"])
def test_blocked_loss_rec_matches_dense_oracle(sparse, subset_kind):
    # 2.4 blocks of nodes, so the last block is ragged; the gathered subset
    # still spans three blocks
    n = 2 * losses.REC_ROW_BLOCK + 100
    rng = np.random.default_rng(11)
    a = _symmetric_adjacency(rng, n, p=0.02)
    if sparse:
        a = sp.csr_matrix(a)
    z0 = rng.normal(scale=0.4, size=(n, 6))
    subset = {
        "none": None,
        "subset": rng.choice(n, size=n - 37, replace=False),  # unsorted
        "single": [n - 3],
    }[subset_kind]
    want, want_grad = _rec_oracle(a, z0, subset)
    z = nm.Tensor(z0, requires_grad=True)
    loss = _rec_on(a, z, subset)
    loss.backward()
    assert loss.item() == pytest.approx(want, rel=1e-12)
    assert np.max(np.abs(z.grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
    if subset is not None:
        dropped = np.setdiff1d(np.arange(n), subset)
        assert not np.any(z.grad[dropped])


# -- count likelihood -----------------------------------------------------------


def test_loss_zinb_zero_count_hand_value():
    # x=0, pi=0.5, mu=theta=1: NLL = -log(0.5 + 0.5 * 0.5) = 0.28768...
    got = losses.loss_zinb(
        np.array([[0.0]]), _zinb([[0.5]], [[1.0]], [[1.0]])
    ).item()
    assert got == pytest.approx(-math.log(0.75), abs=1e-12)
    assert got == pytest.approx(0.28768, abs=5e-6)


def test_loss_zinb_positive_count_hand_value():
    # x=1, pi=0.2, mu=theta=1: NB pmf = 0.25, NLL = -log(0.8 * 0.25) = 1.60944...
    got = losses.loss_zinb(
        np.array([[1.0]]), _zinb([[0.2]], [[1.0]], [[1.0]])
    ).item()
    assert got == pytest.approx(-math.log(0.2), abs=1e-12)
    assert got == pytest.approx(1.60944, abs=5e-6)


def test_loss_zinb_vanishing_dropout_matches_nb_oracle():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 12, size=(6, 5)).astype(float)
    mu = rng.uniform(0.5, 8.0, size=(6, 5))
    theta = rng.uniform(0.5, 4.0, size=(6, 5))
    pi = np.full((6, 5), 1e-10)
    got = losses.loss_zinb(x, _zinb(pi, mu, theta)).item()
    want = float(np.mean(nb_nll_oracle(x, mu, theta)))
    assert got == pytest.approx(want, abs=1e-8)


def test_loss_zinb_dropout_below_the_floor_equals_clamped_oracle_tight():
    # a pi logit far below the floor holds pi at PI_CLAMP[0] exactly, so the
    # likelihood is the NB one plus the floor's two terms, coded apart here
    rng = np.random.default_rng(2)
    x = rng.integers(0, 20, size=(4, 7)).astype(float)
    mu = rng.uniform(0.2, 10.0, size=(4, 7))
    theta = rng.uniform(0.3, 5.0, size=(4, 7))
    heads = [nm.Tensor(np.full((4, 7), -800.0)), *_zinb(0.5, mu, theta)[1:]]
    got = losses.loss_zinb(x, heads).item()
    floor = losses.PI_CLAMP[0]
    nb_zero = (theta / (theta + mu)) ** theta
    want = np.where(
        x == 0,
        -np.log(floor + (1.0 - floor) * nb_zero),
        nb_nll_oracle(x, mu, theta) - np.log1p(-floor),
    )
    assert got == pytest.approx(float(np.mean(want)), rel=1e-12)


def test_loss_zinb_row_mask_equals_sliced_computation():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 6, size=(6, 4)).astype(float)
    arrays = _pre(
        rng.uniform(0.05, 0.9, size=(6, 4)),
        rng.uniform(0.5, 5.0, size=(6, 4)),
        rng.uniform(0.5, 5.0, size=(6, 4)),
    )
    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    gathered = _zinb_on(x, tensors, [1, 4])
    sliced = losses.loss_zinb(x[[1, 4]], [nm.Tensor(a[[1, 4]]) for a in arrays]).item()
    assert gathered.item() == sliced
    gathered.backward()
    assert not any(np.any(t.grad[[0, 2, 3, 5]]) for t in tensors)


def test_loss_zinb_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 8, size=(3, 4)).astype(float)
    arrays = _pre(  # gradients are taken in the pre-activations
        rng.uniform(0.2, 0.8, size=(3, 4)),  # pi
        rng.uniform(0.8, 4.0, size=(3, 4)),  # mu
        rng.uniform(0.8, 4.0, size=(3, 4)),  # theta
    )

    def forward(vals):
        return losses.loss_zinb(x, [nm.Tensor(v) for v in vals]).item()

    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    losses.loss_zinb(x, tensors).backward()
    numeric = finite_difference_gradients(forward, arrays)
    err = max_relative_error([t.grad for t in tensors], numeric)
    assert err < 1e-5, f"max relative error {err}"


@pytest.mark.parametrize("branch", ["zero", "positive"])
def test_loss_zinb_branch_gradients_match_finite_differences(branch):
    # the zero branch is a logaddexp of the two zero masses, the positive
    # branch carries the log-gamma terms whose derivative is digamma
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        x = rng.integers(1, 9, size=(3, 4)).astype(float)
        if branch == "zero":
            x[:] = 0.0
        arrays = _pre(
            rng.uniform(0.2, 0.8, size=(3, 4)),
            rng.uniform(0.3, 5.0, size=(3, 4)),
            rng.uniform(0.3, 5.0, size=(3, 4)),
        )

        for subset in (None, [2, 0]):

            def forward(vals):
                return _zinb_on(x, [nm.Tensor(v) for v in vals], subset).item()

            tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
            _zinb_on(x, tensors, subset).backward()
            numeric = finite_difference_gradients(forward, arrays)
            err = max_relative_error([t.grad for t in tensors], numeric)
            assert err < 1e-5, f"seed {seed}, subset {subset}: max relative error {err}"
        assert not any(np.any(t.grad[1]) for t in tensors)  # row 1 is outside the subset


def _full_matrix_nll(x, pi, mu, theta):
    """The mean ZINB NLL over whole matrices, both branches scored everywhere."""
    from scipy.special import gammaln

    nb_zero = (theta / (theta + mu)) ** theta
    zero_ll = np.log(pi + (1.0 - pi) * nb_zero)
    pos_ll = (
        np.log(1.0 - pi)
        + gammaln(x + theta) - gammaln(x + 1.0) - gammaln(theta)
        + theta * np.log(theta / (theta + mu)) + x * np.log(mu / (theta + mu))
    )
    return -np.mean(np.where(x == 0, zero_ll, pos_ll))


def test_loss_zinb_matches_full_matrix_gammaln_formula():
    rng = np.random.default_rng(12)
    x = rng.poisson(0.4, size=(60, 40)).astype(float)  # about two thirds zeros
    assert 0.6 < np.mean(x == 0) < 0.73
    pi = rng.uniform(0.01, 0.95, size=x.shape)
    mu = rng.uniform(0.05, 20.0, size=x.shape)
    theta = rng.uniform(0.05, 20.0, size=x.shape)
    got = losses.loss_zinb(x, _zinb(pi, mu, theta)).item()
    assert got == pytest.approx(_full_matrix_nll(x, pi, mu, theta), rel=1e-12)


@pytest.mark.parametrize("count", [0.0, 3.0], ids=["all-zero", "all-positive"])
def test_loss_zinb_with_an_empty_branch_matches_the_full_matrix_formula(count):
    # one branch gathers no entry; its activations and clamps see empty arrays
    rng = np.random.default_rng(15)
    x = np.full((5, 4), count)
    pi = rng.uniform(0.05, 0.9, size=x.shape)
    mu = rng.uniform(0.2, 8.0, size=x.shape)
    theta = rng.uniform(0.2, 8.0, size=x.shape)
    arrays = _pre(pi, mu, theta)
    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    loss = losses.loss_zinb(x, tensors)
    assert loss.item() == pytest.approx(_full_matrix_nll(x, pi, mu, theta), rel=1e-12)
    loss.backward()

    def forward(vals):
        return losses.loss_zinb(x, [nm.Tensor(v) for v in vals]).item()

    numeric = finite_difference_gradients(forward, arrays)
    assert max_relative_error([t.grad for t in tensors], numeric) < 1e-5


def test_loss_zinb_frees_the_heads_once_the_caller_drops_them():
    # the node keeps only its three gradients in the heads, never the heads
    rng = np.random.default_rng(16)
    params = model.init_params(n_genes=6, latent_dim=3, zinb_dims=(5, 4), seed=2)
    z0 = rng.normal(size=(7, 3))
    x = rng.poisson(1.0, size=(7, 6)).astype(float)

    def gradients(keep_heads):
        z = nm.Tensor(z0, requires_grad=True)
        heads = _dense_heads(model.decode_zinb(z, params))
        alive = [weakref.ref(t.values) for t in heads]
        loss = losses.loss_zinb(x, heads)
        if not keep_heads:
            del heads
            assert all(ref() is None for ref in alive)
        loss.backward()
        named = [z] + [t for _, t in params.named_parameters()]
        grads = [None if t.grad is None else t.grad.copy() for t in named]
        for t in named:
            t.grad = None
        return grads

    kept, dropped = gradients(keep_heads=True), gradients(keep_heads=False)
    assert sum(g is not None for g in kept) == 1 + 2 * 2 + 3  # z, two fc layers, three heads
    for want, got in zip(kept, dropped):
        assert (want is None and got is None) or np.array_equal(want, got)


@pytest.mark.parametrize("subset", [None, [12, 0, 2, 3, 4, 5, 9]], ids=["all", "subset"])
def test_loss_zinb_is_bitwise_the_same_for_any_block_size(monkeypatch, subset):
    # 7 entries make 2-row blocks of this 3-gene matrix: rows 2-3 are all
    # zero, rows 4-5 all positive, and the last block holds a single row
    # (also in the subset, which keeps those pairs together)
    rng = np.random.default_rng(21)
    x = rng.poisson(1.5, size=(13, 3)).astype(float)
    x[2:4] = 0.0
    x[4:6] = rng.integers(1, 5, size=(2, 3))
    pre = rng.normal(scale=3.0, size=(3, 13, 3))
    pre[:, 7, 0], pre[:, 8, 1] = 40.0, -40.0  # past the clamps
    results = []
    for entries in (7, 1 << 30):
        monkeypatch.setattr(losses, "ZINB_BLOCK_ENTRIES", entries)
        heads = [nm.Tensor(a, requires_grad=True) for a in pre]
        loss = _zinb_on(x, heads, subset)
        loss.backward()
        results.append([loss.values] + [t.grad for t in heads])
    for blocked, whole in zip(*results):
        assert np.array_equal(blocked, whole)


def test_loss_zinb_holds_few_count_sized_arrays_through_backward():
    # the three head gradients plus the per-entry log-likelihoods are
    # count-sized; every other intermediate lives for one row block
    rng = np.random.default_rng(22)
    shape = (3000, 500)
    x = np.where(rng.random(shape) < 2 / 3, 0.0, rng.poisson(3.0, shape) + 1.0)
    heads = [nm.Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(3)]
    tracemalloc.start()
    try:
        losses.loss_zinb(x, heads).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * x.nbytes


def _count_criterion(x, z0, params, dense):
    """The count criterion from the latent, dense reference or node, then
    backward: the loss and the gradients of z and of every count parameter."""
    z = nm.Tensor(z0, requires_grad=True)
    decoded = model.decode_zinb(z, params)
    loss = losses.loss_zinb(x, _dense_heads(decoded) if dense else decoded)
    del decoded
    loss.backward()
    named = [z] + [t for name, t in params.named_parameters() if not name.startswith("enc")]
    grads = [t.grad for t in named]
    for t in named:
        t.grad = None
    return [loss.values] + grads


@pytest.mark.parametrize("zinb_dims", [(), (5, 4)], ids=["hidden-is-z", "mlp"])
def test_loss_zinb_node_matches_the_dense_heads_at_any_block_size(monkeypatch, zinb_dims):
    # 7 entries make 2-row blocks of this 3-gene matrix: rows 2-3 are all
    # zero, rows 4-5 all positive, and the last block holds a single row.
    # With no hidden layer the decoder's H is the latent itself, so z's
    # gradient is dH; with one, it is dH carried back through the MLP.
    rng = np.random.default_rng(23)
    x = rng.poisson(1.5, size=(13, 3))
    x[2:4] = 0
    x[4:6] = rng.integers(1, 5, size=(2, 3))
    params = model.init_params(n_genes=3, latent_dim=4, zinb_dims=zinb_dims, seed=4)
    z0 = rng.normal(scale=2.0, size=(13, 4))
    want = _count_criterion(x, z0, params, dense=True)
    assert all(g is not None for g in want)
    for entries in (1 << 30, 3, 7):  # the whole matrix, one row, 2-row blocks
        monkeypatch.setattr(losses, "ZINB_BLOCK_ENTRIES", entries)
        got = _count_criterion(x, z0, params, dense=False)
        for a, b in zip(want, got):
            if entries == 1 << 30:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_loss_zinb_node_names_the_head_of_a_nan_block(monkeypatch):
    # H[9, 0] = inf times a zero theta weight is NaN only in the theta head
    # of row 9 (the fifth 2-row block); the pi and mu heads are infinite there
    monkeypatch.setattr(losses, "ZINB_BLOCK_ENTRIES", 6)
    rng = np.random.default_rng(24)
    hidden = rng.normal(size=(13, 4))
    hidden[9, 0] = np.inf
    weights = [nm.Tensor(rng.uniform(0.5, 1.0, size=(4, 3)), requires_grad=True) for _ in range(3)]
    weights[2].values[0] = 0.0
    heads = model.CountHeads(nm.Tensor(hidden, requires_grad=True), tuple(weights))
    with np.errstate(invalid="ignore"), pytest.raises(
        model.NonFiniteOutputError, match="non-finite values in the theta head"
    ):
        losses.loss_zinb(rng.poisson(1.0, size=(13, 3)), heads)


def test_count_criterion_holds_few_count_sized_arrays_through_backward():
    # the decoder MLP, the heads and the likelihood, forward and backward, as
    # the train step runs them at scale-3000's size with the 512-wide layer:
    # the node keeps dH (one count-sized array here) and the three 512 x 500
    # dW; the MLP node keeps every layer's input and output, H among them
    rng = np.random.default_rng(25)
    shape = (3000, 500)
    x = np.where(rng.random(shape) < 2 / 3, 0, rng.poisson(3.0, shape) + 1)
    params = model.init_params(n_genes=shape[1], latent_dim=32, seed=0)
    z = nm.Tensor(rng.normal(size=(shape[0], 32)), requires_grad=True)
    tracemalloc.start()
    try:
        losses.loss_zinb(x, model.decode_zinb(z, params)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * x.nbytes  # 5.1 here, 10.6 with the heads multiplied out


def test_loss_zinb_gradient_is_zero_on_the_clamps():
    # no hidden layers, so h = z > 0 and the sign of each head column picks
    # the clamp: gene 0 saturates high, gene 1 low, gene 2 stays inside
    rng = np.random.default_rng(13)
    params = model.init_params(n_genes=3, latent_dim=2, zinb_dims=(), seed=0)
    for head in (params.head_pi, params.head_mu, params.head_theta):
        head.values = np.array([[900.0, -900.0, 0.3], [900.0, -900.0, -0.2]])
    z = nm.Tensor(rng.uniform(0.5, 1.5, size=(6, 2)))
    x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]] * 3)
    decoded = model.decode_zinb(z, params)
    for pre in _dense_heads(decoded):  # far past both clamps: sigmoid and exp saturate there
        assert np.all(pre.values[:, 0] >= 900.0) and np.all(pre.values[:, 1] <= -900.0)
    losses.loss_zinb(x, decoded).backward()
    for head in (params.head_pi, params.head_mu, params.head_theta):
        assert np.all(np.isfinite(head.grad))
        assert np.all(head.grad[:, :2] == 0.0)
        assert np.all(head.grad[:, 2] != 0.0)


@pytest.mark.parametrize("count", [0.0, 2.0], ids=["zero", "positive"])
def test_loss_zinb_gradient_is_zero_where_a_clamp_binds_on_a_slope(count):
    # at +-30 every activation is past its clamp but still has slope
    # (sigmoid' ~ 9e-14, exp' = exp), so only the clamp makes the gradient 0;
    # column 2 stays inside every clamp
    pre = np.array([[-30.0, 30.0, 0.4]] * 2)
    heads = [nm.Tensor(pre, requires_grad=True) for _ in range(3)]
    losses.loss_zinb(np.full((2, 3), count), heads).backward()
    for head in heads:
        assert np.all(head.grad[:, :2] == 0.0)
        assert np.all(head.grad[:, 2] != 0.0)


def test_loss_zinb_non_finite_raises():
    # the clamps keep every finite or infinite pre-activation finite; NaN is not
    x = np.array([[0.0, 3.0]])
    heads = _zinb([[0.5, 0.5]], [[1.0, np.nan]], [[1.0, 1.0]], grad=True)
    with np.errstate(invalid="ignore"), pytest.raises(losses.NonFiniteLossError):
        losses.loss_zinb(x, heads)
    infinite = [nm.Tensor([[np.inf, -np.inf]]), nm.Tensor([[np.inf, -np.inf]]),
                nm.Tensor([[-np.inf, np.inf]])]
    assert np.isfinite(losses.loss_zinb(x, infinite).item())


# -- target distribution ---------------------------------------------------------


def test_target_distribution_symmetric_row():
    p = losses.target_distribution(np.array([[0.5, 0.5]]))
    np.testing.assert_allclose(p, [[0.5, 0.5]], atol=1e-15)


def test_target_distribution_hand_case():
    q = np.array([[0.8, 0.2], [0.6, 0.4]])
    p = losses.target_distribution(q)
    # f = [1.4, 0.6]; row 0: [0.64/1.4, 0.04/0.6] normalized
    row0 = np.array([0.64 / 1.4, 0.04 / 0.6])
    row0 /= row0.sum()
    np.testing.assert_allclose(p[0], row0, atol=1e-12)
    assert p[0, 0] == pytest.approx(0.87273, abs=5e-6)
    assert p[0, 1] == pytest.approx(0.12727, abs=5e-6)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_target_distribution_sharpens_when_columns_balanced():
    rng = np.random.default_rng(5)
    for _ in range(50):
        raw = rng.random((6, 3)) + 0.05
        q = raw / raw.sum(axis=1, keepdims=True)
        # equalize column masses so sharpening is purely the square
        q = q / q.sum(axis=0, keepdims=True)
        q = q / q.sum(axis=1, keepdims=True)
        balanced = np.allclose(q.sum(axis=0), q.sum(axis=0)[0], atol=1e-2)
        p = losses.target_distribution(q)
        if balanced:
            assert np.all(p.max(axis=1) >= q.max(axis=1) - 1e-9)


# -- clustering loss --------------------------------------------------------------


def test_loss_cls_zero_when_equal():
    # z on the first center, squared distance 1 from the second: q = (2/3, 1/3)
    z = np.array([[0.0, 0.0]])
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    p = np.array([[2.0 / 3.0, 1.0 / 3.0]])
    assert losses.loss_cls(p, z, centers).item() == pytest.approx(0.0, abs=1e-12)


def test_loss_cls_is_exactly_zero_at_its_own_assignment():
    # the target is the node's own assignment, formed by the same expressions
    rng = np.random.default_rng(10)
    for _ in range(20):
        z, centers = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        assert losses.loss_cls(model.soft_assign(z, centers), z, centers).item() == 0.0


def test_loss_cls_hand_value_log_two():
    # z midway between the two centers: q = (1/2, 1/2)
    z = np.array([[0.0, 0.0]])
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    got = losses.loss_cls(np.array([[1.0, 0.0]]), z, centers).item()
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_cls_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = rng.random((4, 3)) + 1e-3
        p /= p.sum(axis=1, keepdims=True)
        z, centers = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
        val = losses.loss_cls(p, z, centers).item()
        assert val >= -1e-12
        if val < 1e-12:
            np.testing.assert_allclose(p, model.soft_assign(z, centers), atol=1e-5)
    z, centers = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    assert losses.loss_cls(model.soft_assign(z, centers), z, centers).item() < 1e-12


def test_loss_cls_mask_selects_rows():
    rng = np.random.default_rng(7)
    p = rng.random((5, 3)) + 0.1
    p /= p.sum(axis=1, keepdims=True)
    z0, c0 = rng.normal(size=(5, 2)), rng.normal(size=(3, 2))
    z_all = nm.Tensor(z0, requires_grad=True)
    centers = nm.Tensor(c0, requires_grad=True)
    gathered = losses.loss_cls(p[[0, 3]], nm.index_rows(z_all, [0, 3]), centers)
    sliced = losses.loss_cls(p[[0, 3]], z0[[0, 3]], c0).item()
    assert gathered.item() == sliced
    gathered.backward()
    assert not np.any(z_all.grad[[1, 2, 4]])
    assert np.all(z_all.grad[[0, 3]] != 0.0) and np.all(centers.grad != 0.0)


def test_loss_cls_gradient_reaches_only_q():
    # q is a function of the latent and the centers; the target is a constant
    rng = np.random.default_rng(8)
    p = rng.random((3, 3)) + 0.1
    p /= p.sum(axis=1, keepdims=True)
    arrays = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]

    def forward(vals):
        return losses.loss_cls(p, *vals).item()

    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    losses.loss_cls(p, *tensors).backward()
    numeric = finite_difference_gradients(forward, arrays)
    assert max_relative_error([t.grad for t in tensors], numeric) < 1e-5


@pytest.mark.parametrize("rows_sum_to_one", [True, False])
def test_loss_cls_gradients_match_dec_broadcast(rows_sum_to_one):
    # dL/dz_i = 2 sum_j k_ij (p_ij - r_i q_ij)(z_i - mu_j) = -dL/dmu_j summed
    # over i, with r_i = sum_j p_ij, formed as a literal (n, K, d) broadcast
    rng = np.random.default_rng(11)
    for _ in range(20):
        z0, c0 = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
        p = rng.random((7, 4))
        if rows_sum_to_one:
            p /= p.sum(axis=1, keepdims=True)
        diff = z0[:, None, :] - c0[None, :, :]  # (n, K, d)
        k = 1.0 / (1.0 + (diff**2).sum(axis=2))
        q = k / k.sum(axis=1, keepdims=True)
        coeff = 2.0 * k * (p - p.sum(axis=1, keepdims=True) * q)
        want_z = (coeff[:, :, None] * diff).sum(axis=1)
        want_c = -(coeff[:, :, None] * diff).sum(axis=0)
        z, centers = nm.Tensor(z0, requires_grad=True), nm.Tensor(c0, requires_grad=True)
        losses.loss_cls(p, z, centers).backward()
        for got, want in ((z.grad, want_z), (centers.grad, want_c)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_loss_rec_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    a = _symmetric_adjacency(rng, 4, p=0.5)
    z0 = rng.normal(size=(4, 2))

    def forward(vals):
        return _rec_on(a, nm.Tensor(vals[0]), [0, 2, 3]).item()

    z = nm.Tensor(z0, requires_grad=True)
    _rec_on(a, z, [0, 2, 3]).backward()
    numeric = finite_difference_gradients(forward, [z0])
    assert max_relative_error([z.grad], numeric) < 1e-5
    assert not np.any(z.grad[1])  # node 1 is outside the subset


def test_breakdown_total_is_exact_sum():
    rng = np.random.default_rng(10)
    for _ in range(20):
        rec = nm.Tensor(rng.random())
        zinb = nm.Tensor(rng.random())
        cls = nm.Tensor(rng.random())
        total, breakdown = losses.weighted_total(rec, zinb, cls, weights=(1.0, 0.5, 2.0))
        assert breakdown.total == float(total.values)
        assert breakdown.total == breakdown.rec + breakdown.zinb + breakdown.cls
        assert breakdown.cls >= -1e-12


@pytest.mark.parametrize("with_cls", [True, False], ids=["cls", "no-cls"])
def test_weighted_total_gradients_match_finite_differences(with_cls):
    rng = np.random.default_rng(26)
    weights = (0.5, 2.0, 0.7)
    terms = [nm.Tensor(rng.normal(), requires_grad=True) for _ in range(3)]
    if not with_cls:
        terms[2] = None

    def loss():
        return losses.weighted_total(*terms, weights)[0]

    leaves = [t for t in terms if t is not None]
    assert leaf_gradient_error(loss, leaves) < 1e-5
    assert [float(t.grad) for t in leaves] == list(weights[: len(leaves)])
    total, breakdown = losses.weighted_total(*terms, weights)
    assert breakdown.total == float(total.values)
    if not with_cls:
        assert breakdown.cls == 0.0
