import math
import tracemalloc

import numpy as np
import pytest

import scipy.sparse as sp

from celluster import losses, model, trainer
from celluster import numerics as nm
from celluster.cellgraph import _from_adjacency
from gradcheck import dense_heads, dense_hidden, gradient_error, zinb_on_heads


def _pre(pi, mu, theta):
    """The head pre-activations (logit pi, log mu, log theta) of the given
    activations."""
    pi = np.asarray(pi, dtype=float)
    return [np.log(pi) - np.log1p(-pi), np.log(mu), np.log(theta)]


def _dense_chain(hidden, weights, head_grads):
    """The dense reference's chain rule from the three head gradients (pi,
    mu, theta) back through H W_k and the MLP: the latent's gradient, each
    MLP layer's weight and bias gradients, then the three head weights'."""
    d_h = head_grads[0] @ weights[0].T
    for g, w in zip(head_grads[1:], weights[1:]):
        d_h += g @ w.T
    return [*hidden.backward(d_h), *(hidden.values.T @ g for g in head_grads)]


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


def _scatter(n, subset, rows):
    """A subset's gradient rows added back into n rows, as the train step
    does."""
    full = np.zeros((n, *rows.shape[1:]))
    np.add.at(full, subset, rows)
    return full


def _rec_on(adjacency, z, subset=None):
    """loss_rec over subset x subset, gathered and scattered back the way
    the train step does."""
    if subset is None:
        return losses.loss_rec(adjacency, z)
    value, (dz,) = losses.loss_rec(adjacency[subset][:, subset], z[subset])
    return value, (_scatter(len(z), subset, dz),)


def _zinb_on(x, heads, subset=None):
    """loss_zinb over the subset rows, gathered and scattered back the way
    the train step does."""
    if subset is None:
        return zinb_on_heads(x, heads)
    value, grads = zinb_on_heads(x[subset], [h[subset] for h in heads])
    return value, [_scatter(len(x), subset, g) for g in grads]


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
    assert losses.loss_rec(a, np.zeros((3, 2)))[0] == 0.0


def test_loss_rec_hand_value():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert losses.loss_rec(a, np.zeros((2, 1)))[0] == pytest.approx(1.0, abs=1e-15)


def test_loss_rec_single_node_mask():
    a = np.array([[0.2, 1.0], [1.0, 0.7]])
    z = np.array([[0.9], [0.0]])  # node 1 reconstructs itself as 1/2
    value, (dz,) = _rec_on(a, z, [1])
    assert value == pytest.approx((0.7 - 0.5) ** 2, abs=1e-15)
    assert dz[0, 0] == 0.0


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
    value, (dz,) = _rec_on(a, z0, subset)
    assert value == pytest.approx(want, rel=1e-12)
    assert np.max(np.abs(dz - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
    if subset is not None:
        dropped = np.setdiff1d(np.arange(n), subset)
        assert not np.any(dz[dropped])


def test_loss_rec_sparse_adjacency_gives_the_dense_bits():
    # the sparse path subtracts only at stored entries; elsewhere S - 0.0 is
    # S, so value and gradient match the dense adjacency bit for bit. Stored
    # duplicates (each edge as two halves) add up first, as in toarray()
    n = 2 * losses.REC_ROW_BLOCK + 100
    rng = np.random.default_rng(12)
    dense = _symmetric_adjacency(rng, n, p=0.02)
    csr = sp.csr_matrix(dense)
    halves = sp.csr_matrix(
        (np.repeat(csr.data / 2, 2), np.repeat(csr.indices, 2), 2 * csr.indptr), shape=(n, n)
    )
    assert not halves.has_canonical_format
    z0 = rng.normal(scale=0.4, size=(n, 6))
    results = [losses.loss_rec(a, z0) for a in (dense, csr, csr.tocoo(), halves)]
    for value, (grad,) in results[1:]:
        assert value == results[0][0] and np.array_equal(grad, results[0][1][0])
    assert not halves.has_canonical_format  # the caller's matrix is left as it was


def test_loss_rec_holds_at_most_three_row_blocks():
    n = 2000
    rng = np.random.default_rng(13)
    a = sp.csr_matrix(_symmetric_adjacency(rng, n, p=0.01))
    z = rng.normal(scale=0.3, size=(n, 8))
    tracemalloc.start()
    try:
        losses.loss_rec(a, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = losses.REC_ROW_BLOCK * n * 8
    assert peak < 3.5 * block  # three blocks, a boolean one and the n x d gradient


# -- count likelihood -----------------------------------------------------------


def test_loss_zinb_zero_count_hand_value():
    # x=0, pi=0.5, mu=theta=1: NLL = -log(0.5 + 0.5 * 0.5) = 0.28768...
    got = losses.loss_zinb(np.array([[0.0]]), dense_heads(*_pre([[0.5]], [[1.0]], [[1.0]])))[0]
    assert got == pytest.approx(-math.log(0.75), abs=1e-12)
    assert got == pytest.approx(0.28768, abs=5e-6)


def test_loss_zinb_positive_count_hand_value():
    # x=1, pi=0.2, mu=theta=1: NB pmf = 0.25, NLL = -log(0.8 * 0.25) = 1.60944...
    got = losses.loss_zinb(np.array([[1.0]]), dense_heads(*_pre([[0.2]], [[1.0]], [[1.0]])))[0]
    assert got == pytest.approx(-math.log(0.2), abs=1e-12)
    assert got == pytest.approx(1.60944, abs=5e-6)


def test_loss_zinb_vanishing_dropout_matches_nb_oracle():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 12, size=(6, 5)).astype(float)
    mu = rng.uniform(0.5, 8.0, size=(6, 5))
    theta = rng.uniform(0.5, 4.0, size=(6, 5))
    pi = np.full((6, 5), 1e-10)
    got = losses.loss_zinb(x, dense_heads(*_pre(pi, mu, theta)))[0]
    want = float(np.mean(nb_nll_oracle(x, mu, theta)))
    assert got == pytest.approx(want, abs=1e-8)


def test_loss_zinb_dropout_below_the_floor_equals_clamped_oracle_tight():
    # a pi logit far below the floor holds pi at PI_CLAMP[0] exactly, so the
    # likelihood is the NB one plus the floor's two terms, coded apart here
    rng = np.random.default_rng(2)
    x = rng.integers(0, 20, size=(4, 7)).astype(float)
    mu = rng.uniform(0.2, 10.0, size=(4, 7))
    theta = rng.uniform(0.3, 5.0, size=(4, 7))
    heads = [np.full((4, 7), -800.0), *_pre(0.5, mu, theta)[1:]]
    got = losses.loss_zinb(x, dense_heads(*heads))[0]
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
    value, grads = _zinb_on(x, arrays, [1, 4])
    assert value == zinb_on_heads(x[[1, 4]], [a[[1, 4]] for a in arrays])[0]
    assert not any(np.any(g[[0, 2, 3, 5]]) for g in grads)


def test_loss_zinb_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 8, size=(3, 4)).astype(float)
    arrays = _pre(  # gradients are taken in the pre-activations
        rng.uniform(0.2, 0.8, size=(3, 4)),  # pi
        rng.uniform(0.8, 4.0, size=(3, 4)),  # mu
        rng.uniform(0.8, 4.0, size=(3, 4)),  # theta
    )

    err = gradient_error(lambda a: zinb_on_heads(x, a), arrays)
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
            err = gradient_error(lambda a: _zinb_on(x, a, subset), arrays)
            assert err < 1e-5, f"seed {seed}, subset {subset}: max relative error {err}"
        _, grads = _zinb_on(x, arrays, [2, 0])
        assert not any(np.any(g[1]) for g in grads)  # row 1 is outside the subset


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
    got = losses.loss_zinb(x, dense_heads(*_pre(pi, mu, theta)))[0]
    assert got == pytest.approx(_full_matrix_nll(x, pi, mu, theta), rel=1e-12)


def test_score_block_gives_each_entry_the_full_matrix_log_likelihood():
    # zero and positive counts interleave within every row; each entry's
    # value in flat order is the full-matrix formula on that entry alone
    rng = np.random.default_rng(27)
    x = rng.poisson(1.0, size=(6, 7)).astype(float)
    x[:, ::2] = 0.0
    x[:, 1::2] += 1.0
    pi = rng.uniform(0.05, 0.9, size=x.shape)
    mu = rng.uniform(0.5, 20.0, size=x.shape)
    theta = rng.uniform(0.2, 20.0, size=x.shape)
    loglik, _ = losses._score_block(x.ravel(), [a.ravel() for a in _pre(pi, mu, theta)], 1.0)
    want = [
        -_full_matrix_nll(*(a.ravel()[i:i + 1] for a in (x, pi, mu, theta)))
        for i in range(x.size)
    ]
    np.testing.assert_allclose(loglik, want, rtol=1e-12, atol=0.0)


def _unclamped_mask_kernel(x, heads, scale):
    """_score_block as first written: each branch's activations formed both
    unclamped (the gradient masks and chains read these) and clamped (the
    likelihood reads these), and the rate gradients guarded where a zero
    meets an overflowed exp (0 * inf)."""
    from scipy.special import digamma, gammaln

    def activate(entries):
        a_pi, e_mu, e_theta = (h[entries] for h in heads)
        s = nm.special.sigmoid(a_pi)
        with np.errstate(over="ignore"):
            np.exp(e_mu, out=e_mu)
            np.exp(e_theta, out=e_theta)
        clamped = (np.clip(s, *losses.PI_CLAMP), np.clip(e_mu, *losses.RATE_CLAMP),
                   np.clip(e_theta, *losses.RATE_CLAMP))
        return (s, e_mu, e_theta), clamped

    zero, pos = np.flatnonzero(x == 0), np.flatnonzero(x != 0)
    loglik = np.empty(x.size)
    act0, (pi0, mu0, th0) = activate(zero)
    log_ratio0 = np.log(th0) - np.log(th0 + mu0)
    log_nb0 = th0 * log_ratio0
    log_nb_mass0 = np.log(1.0 - pi0) + log_nb0
    ll0 = loglik[zero] = np.logaddexp(np.log(pi0), log_nb_mass0)
    xp = x[pos]
    actp, (pip, mup, thp) = activate(pos)
    log_rate = np.log(thp + mup)
    log_ratio = np.log(thp) - log_rate
    loglik[pos] = (np.log(1.0 - pip) + gammaln(xp + thp) - gammaln(xp + 1.0) - gammaln(thp)
                   + thp * log_ratio + xp * (np.log(mup) - log_rate))
    w_nb = np.exp(log_nb_mass0 - ll0)
    rate = thp + mup
    grads = tuple(np.empty(x.size) for _ in range(3))
    for entries, (s, e_mu, e_theta), derivs in (
        (zero, act0, (-np.expm1(log_nb0) * np.exp(-ll0), -w_nb * th0 / (th0 + mu0),
                      w_nb * (log_ratio0 + mu0 / (th0 + mu0)))),
        (pos, actp, (-1.0 / (1.0 - pip), xp / mup - (thp + xp) / rate,
                     digamma(xp + thp) - digamma(thp) + log_ratio + (mup - xp) / rate)),
    ):
        d_pi, d_mu, d_theta = (dk * scale for dk in derivs)
        gk = d_pi * ((s > losses.PI_CLAMP[0]) & (s < losses.PI_CLAMP[1]))
        grads[0][entries] = gk * s * (1.0 - s)
        for o, dk, e in ((grads[1], d_mu, e_mu), (grads[2], d_theta, e_theta)):
            gk = dk * ((e > losses.RATE_CLAMP[0]) & (e < losses.RATE_CLAMP[1]))
            with np.errstate(invalid="ignore"):
                o[entries] = np.where(gk == 0.0, 0.0, gk * e)
    return loglik, grads


def test_score_block_reads_its_masks_off_the_clamped_values_bit_for_bit():
    # lo < clip(v) < hi holds exactly where lo < v < hi, and inside the
    # bounds the clamped values are the unclamped ones. About a fifth of the
    # pre-activations sit at an edge: sigmoid rounds to 0 or 1 (+-40, +-800,
    # +-inf), exp overflows (800, inf) or underflows (-800, -inf), or the
    # value lands just past a rate clamp (+-23.03) or just inside one
    # (+-23.0258).
    rng = np.random.default_rng(28)
    edges = [800.0, -800.0, 40.0, -40.0, 23.03, -23.03, 23.0258, -23.0258, np.inf, -np.inf]
    for trial in range(5):
        x = rng.poisson(rng.uniform(0.3, 4.0), size=300 * 200).astype(float)
        heads = rng.normal(scale=rng.uniform(1.0, 25.0), size=(3, x.size))
        at_edge = rng.random(heads.shape) < 0.2
        heads[at_edge] = rng.choice(edges, size=int(at_edge.sum()))
        scale = -1.0 / x.size
        got = losses._score_block(x, list(heads.copy()), scale)
        want = _unclamped_mask_kernel(x, list(heads.copy()), scale)
        for a, b in zip([got[0], *got[1]], [want[0], *want[1]]):
            assert a.tobytes() == b.tobytes()  # zero signs included
    # The one difference: a gradient that is exactly zero inside the clamps.
    # At log mu = 0 and x = 1, d loglik / d mu is exactly +0.0, which the
    # negative scale makes -0.0; the oracle's zero guard wrote +0.0 there,
    # the kernel writes -0.0 * mu. Adam's first moment starts at +0.0, and
    # +0.0 + -0.0 is +0.0, so no parameter can see the sign.
    x, heads = np.array([1.0, 0.0, 2.0]), np.zeros((3, 3))
    got = losses._score_block(x, list(heads.copy()), -1.0 / 3)
    want = _unclamped_mask_kernel(x, list(heads.copy()), -1.0 / 3)
    mu_grad = got[1][1]
    assert mu_grad[0] == 0.0 and np.signbit(mu_grad[0]) and not np.signbit(want[1][1][0])
    mu_grad[0] = 0.0
    for a, b in zip([got[0], *got[1]], [want[0], *want[1]]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("count", [0.0, 3.0], ids=["all-zero", "all-positive"])
def test_loss_zinb_with_an_empty_branch_matches_the_full_matrix_formula(count):
    # one branch gathers no entry; its activations and clamps see empty arrays
    rng = np.random.default_rng(15)
    x = np.full((5, 4), count)
    pi = rng.uniform(0.05, 0.9, size=x.shape)
    mu = rng.uniform(0.2, 8.0, size=x.shape)
    theta = rng.uniform(0.2, 8.0, size=x.shape)
    arrays = _pre(pi, mu, theta)
    value, _ = zinb_on_heads(x, arrays)
    assert value == pytest.approx(_full_matrix_nll(x, pi, mu, theta), rel=1e-12)
    assert gradient_error(lambda a: zinb_on_heads(x, a), arrays) < 1e-5


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
        value, grads = _zinb_on(x, list(pre), subset)
        results.append([value, *grads])
    for blocked, whole in zip(*results):
        assert np.array_equal(blocked, whole)


def _count_criterion(x, z0, params, dense, count_rows=None):
    """The count criterion from the latent, through the dense reference or
    CountHeads: the loss, then the gradients of z and of every count
    parameter."""
    decoded = model.decode_zinb(z0, params)
    if not dense:
        value, grads = losses.loss_zinb(x, decoded, count_rows)
        return [value, *grads]
    hidden = dense_hidden(decoded.latent, decoded.layers)
    heads = [hidden.values @ w for w in decoded.weights]
    value, head_grads = zinb_on_heads(x, heads, count_rows)
    return [value, *_dense_chain(hidden, decoded.weights, head_grads)]


@pytest.mark.parametrize("zinb_dims", [(), (5, 4)], ids=["hidden-is-z", "mlp"])
def test_loss_zinb_node_matches_the_dense_heads_at_any_block_size(monkeypatch, zinb_dims):
    # The block loop (the MLP, the heads and both backward passes per row
    # block) against the dense reference: the MLP over every row at once
    # (gradcheck's dense_hidden) times the head weights. 7 entries make 2-row blocks
    # of this 3-gene matrix: rows 2-3 are all zero, rows 4-5 all positive,
    # and the last block holds a single row. With no hidden layer the
    # decoder's H is the latent itself, so z's gradient is dH; with one, it
    # is dH carried back through the MLP, whose weight and bias gradients
    # are summed over the blocks like the head weights'.
    rng = np.random.default_rng(23)
    x = rng.poisson(1.5, size=(13, 3))
    x[2:4] = 0
    x[4:6] = rng.integers(1, 5, size=(2, 3))
    params = model.init_params(n_genes=3, latent_dim=4, zinb_dims=zinb_dims, seed=4)
    z0 = rng.normal(scale=2.0, size=(13, 4))
    want = _count_criterion(x, z0, params, dense=True)
    # z, two weights and biases per MLP layer, the three head weights
    assert len(want) == 1 + 1 + 2 * len(zinb_dims) + 3
    assert all(np.any(g) for g in want)
    for entries in (1 << 30, 3, 7):  # the whole matrix, one row, 2-row blocks
        monkeypatch.setattr(losses, "ZINB_BLOCK_ENTRIES", entries)
        got = _count_criterion(x, z0, params, dense=False)
        for a, b in zip(want, got):
            if entries == 1 << 30:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_loss_zinb_on_count_rows_equals_the_gathered_copy_bitwise(monkeypatch):
    # 13 unsorted rows of a 20-row matrix; 7 entries make 2-row blocks of
    # the 3 genes, so the selection spans seven blocks, the last a single row
    rng = np.random.default_rng(26)
    x = rng.poisson(1.5, size=(20, 3))
    x[[0, 2]] = 0
    x[[4, 5]] = rng.integers(1, 5, size=(2, 3))
    rows = np.array([17, 0, 2, 3, 4, 5, 9, 19, 11, 6, 1, 14, 8])
    params = model.init_params(n_genes=3, latent_dim=4, zinb_dims=(5, 4), seed=4)
    z0 = rng.normal(scale=2.0, size=(rows.size, 4))
    for entries in (1 << 30, 7):
        monkeypatch.setattr(losses, "ZINB_BLOCK_ENTRIES", entries)
        want = _count_criterion(x[rows], z0, params, dense=False)
        got = _count_criterion(x, z0, params, dense=False, count_rows=rows)
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


def test_loss_zinb_node_names_the_head_of_a_nan_block(monkeypatch):
    # with no MLP layers H is the latent: H[9, 0] = inf times a zero theta
    # weight is NaN only in the theta head of row 9 (the fifth 2-row block);
    # the pi and mu heads are infinite there
    monkeypatch.setattr(losses, "ZINB_BLOCK_ENTRIES", 6)
    rng = np.random.default_rng(24)
    hidden = rng.normal(size=(13, 4))
    hidden[9, 0] = np.inf
    weights = [rng.uniform(0.5, 1.0, size=(4, 3)) for _ in range(3)]
    weights[2][0] = 0.0
    heads = model.CountHeads(hidden, (), tuple(weights))
    with np.errstate(invalid="ignore"), pytest.raises(
        losses.NonFiniteLossError, match="non-finite values in the theta head"
    ):
        losses.loss_zinb(rng.poisson(1.0, size=(13, 3)), heads)


def test_count_criterion_holds_few_count_sized_arrays_through_backward():
    # the decoder MLP, the heads and the likelihood, forward and backward, as
    # the train step runs them at scale-3000's size with the 512-wide layer:
    # the node keeps dz (n x 32), the MLP's gradients and the three 512 x 500
    # dW; no activation, H or dH outlives its row block
    rng = np.random.default_rng(25)
    shape = (3000, 500)
    x = np.where(rng.random(shape) < 2 / 3, 0, rng.poisson(3.0, shape) + 1)
    params = model.init_params(n_genes=shape[1], latent_dim=32, seed=0)
    z = rng.normal(size=(shape[0], 32))
    tracemalloc.start()
    try:
        losses.loss_zinb(x, model.decode_zinb(z, params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * x.nbytes  # 2.1 here, 5.1 with the MLP run over every row at once


def test_loss_zinb_gradient_is_zero_on_the_clamps():
    # no hidden layers, so h = z > 0 and the sign of each head column picks
    # the clamp: gene 0 saturates high, gene 1 low, gene 2 stays inside
    rng = np.random.default_rng(13)
    params = model.init_params(n_genes=3, latent_dim=2, zinb_dims=(), seed=0)
    weight = np.array([[900.0, -900.0, 0.3], [900.0, -900.0, -0.2]])
    params = params.map_named(lambda name, a: weight if name.startswith("head") else a)
    z = rng.uniform(0.5, 1.5, size=(6, 2))
    x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]] * 3)
    decoded = model.decode_zinb(z, params)
    for w in decoded.weights:  # far past both clamps: sigmoid and exp saturate there
        pre = z @ w
        assert np.all(pre[:, 0] >= 900.0) and np.all(pre[:, 1] <= -900.0)
    _, grads = losses.loss_zinb(x, decoded)
    for grad in grads[-3:]:  # the three head weights'
        assert np.all(np.isfinite(grad))
        assert np.all(grad[:, :2] == 0.0)
        assert np.all(grad[:, 2] != 0.0)


@pytest.mark.parametrize("count", [0.0, 2.0], ids=["zero", "positive"])
def test_loss_zinb_gradient_is_zero_where_a_clamp_binds_on_a_slope(count):
    # at +-30 every activation is past its clamp but still has slope
    # (sigmoid' ~ 9e-14, exp' = exp), so only the clamp makes the gradient 0;
    # column 2 stays inside every clamp
    pre = np.array([[-30.0, 30.0, 0.4]] * 2)
    _, grads = zinb_on_heads(np.full((2, 3), count), [pre] * 3)
    for grad in grads:
        assert np.all(grad[:, :2] == 0.0)
        assert np.all(grad[:, 2] != 0.0)


def test_loss_zinb_non_finite_raises():
    # the clamps keep every finite or infinite pre-activation finite; NaN is not
    x = np.array([[0.0, 3.0]])
    heads = _pre([[0.5, 0.5]], [[1.0, np.nan]], [[1.0, 1.0]])
    with np.errstate(invalid="ignore"), pytest.raises(losses.NonFiniteLossError):
        losses.loss_zinb(x, dense_heads(*heads))
    infinite = [np.array([[np.inf, -np.inf]]), np.array([[np.inf, -np.inf]]),
                np.array([[-np.inf, np.inf]])]
    # infinite head weights make the latent's gradient 0 * inf = NaN where a
    # clamp binds; the value is what this checks
    with np.errstate(invalid="ignore"):
        assert np.isfinite(losses.loss_zinb(x, dense_heads(*infinite))[0])


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
    assert losses.loss_cls(p, z, centers)[0] == pytest.approx(0.0, abs=1e-12)


def test_loss_cls_is_exactly_zero_at_its_own_assignment():
    # the target is the node's own assignment, formed by the same expressions
    rng = np.random.default_rng(10)
    for _ in range(20):
        z, centers = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        assert losses.loss_cls(model.soft_assign(z, centers), z, centers)[0] == 0.0


def test_loss_cls_hand_value_log_two():
    # z midway between the two centers: q = (1/2, 1/2)
    z = np.array([[0.0, 0.0]])
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    got = losses.loss_cls(np.array([[1.0, 0.0]]), z, centers)[0]
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_cls_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = rng.random((4, 3)) + 1e-3
        p /= p.sum(axis=1, keepdims=True)
        z, centers = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
        val = losses.loss_cls(p, z, centers)[0]
        assert val >= -1e-12
        if val < 1e-12:
            np.testing.assert_allclose(p, model.soft_assign(z, centers), atol=1e-5)
    z, centers = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    assert losses.loss_cls(model.soft_assign(z, centers), z, centers)[0] < 1e-12


def test_loss_cls_mask_selects_rows():
    rng = np.random.default_rng(7)
    p = rng.random((5, 3)) + 0.1
    p /= p.sum(axis=1, keepdims=True)
    z0, c0 = rng.normal(size=(5, 2)), rng.normal(size=(3, 2))
    value, (dz, dc) = losses.loss_cls(p[[0, 3]], z0[[0, 3]], c0)
    rows = [losses.loss_cls(p[[i]], z0[[i]], c0) for i in (0, 3)]
    # the term sums its rows, and each latent row's gradient is its own row's
    assert value == pytest.approx(rows[0][0] + rows[1][0], rel=1e-14)
    np.testing.assert_allclose(dz, np.vstack([r[1][0] for r in rows]), rtol=1e-14)
    np.testing.assert_allclose(dc, rows[0][1][1] + rows[1][1][1], rtol=1e-13)
    full = _scatter(5, [0, 3], dz)
    assert not np.any(full[[1, 2, 4]])
    assert np.all(full[[0, 3]] != 0.0) and np.all(dc != 0.0)


def test_loss_cls_gradient_reaches_only_q():
    # q is a function of the latent and the centers; the target is a constant
    rng = np.random.default_rng(8)
    p = rng.random((3, 3)) + 0.1
    p /= p.sum(axis=1, keepdims=True)
    arrays = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
    assert gradient_error(lambda a: losses.loss_cls(p, *a), arrays) < 1e-5


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
        _, grads = losses.loss_cls(p, z0, c0)
        for got, want in zip(grads, (want_z, want_c), strict=True):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_loss_rec_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    a = _symmetric_adjacency(rng, 4, p=0.5)
    z0 = rng.normal(size=(4, 2))
    assert gradient_error(lambda v: _rec_on(a, v[0], [0, 2, 3]), [z0]) < 1e-5
    _, (dz,) = _rec_on(a, z0, [0, 2, 3])
    assert not np.any(dz[1])  # node 1 is outside the subset


def test_breakdown_total_is_exact_sum():
    # a training step logs each criterion times its weight, and as the
    # total their sum in rec, zinb, cls order
    from celluster.numerics import AdamState

    rng = np.random.default_rng(10)
    for seed in range(5):
        adjacency = sp.csr_matrix(_symmetric_adjacency(rng, 6, p=0.5))
        graph = _from_adjacency(adjacency, "sym_normalized")
        params = model.init_params(
            n_genes=4, latent_dim=2, hidden_dim=3, zinb_dims=(3,), seed=seed
        ).with_centers(rng.normal(size=(2, 2)))
        counts = rng.poisson(1.0, size=(6, 4))
        target = rng.random((6, 2))
        target /= target.sum(axis=1, keepdims=True)
        cfg = trainer.TrainConfig(n_clusters=2, loss_weights=(1.0, 0.5, 2.0))
        z = model.encode(rng.normal(size=(6, 4)), graph, params)
        state = trainer.TrainState("formal", 0, params, AdamState(learning_rate=1e-3))
        trainer._train_step(state, z, counts, graph, cfg, target=target)
        logged = state.loss_history[-1]
        assert logged.rec == 1.0 * losses.loss_rec(graph.adjacency, z.values)[0]
        decoded = model.decode_zinb(z.values, params)
        assert logged.zinb == 0.5 * losses.loss_zinb(counts, decoded)[0]
        assert logged.cls == 2.0 * losses.loss_cls(target, z.values, params.cluster_centers)[0]
        assert logged.total == logged.rec + logged.zinb + logged.cls == logged.as_row()[-1]
        assert logged.cls >= -1e-12


# -- shape checks ------------------------------------------------------------------


def _decoded(n, n_genes=3):
    params = model.init_params(n_genes=n_genes, latent_dim=2, zinb_dims=(4,), seed=0)
    return model.decode_zinb(np.zeros((n, 2)), params)


@pytest.mark.parametrize(
    "criterion, shapes",
    [
        pytest.param(
            lambda: losses.loss_zinb(np.ones((4, 3)), _decoded(5)), ["(4, 3)", "(5, 3)"],
            id="zinb-count-rows",
        ),
        pytest.param(
            lambda: losses.loss_zinb(np.ones((6, 3)), _decoded(5), [0, 1, 2, 3]),
            ["(4, 3)", "(5, 3)"], id="zinb-count-rows-selected",
        ),
        pytest.param(
            lambda: losses.loss_zinb(np.ones((5, 4)), _decoded(5)), ["(5, 4)", "(5, 3)"],
            id="zinb-genes",
        ),
        pytest.param(
            lambda: losses.loss_zinb(np.ones(5), _decoded(5)), ["(5,)", "(5, 3)"],
            id="zinb-1d-counts",
        ),
        pytest.param(
            lambda: losses.loss_rec(np.zeros((4, 5)), np.zeros((4, 2))), ["(4, 5)", "(4, 2)"],
            id="rec-non-square",
        ),
        pytest.param(
            lambda: losses.loss_rec(np.zeros((5, 5)), np.zeros((4, 2))), ["(5, 5)", "(4, 2)"],
            id="rec-mis-sized",
        ),
        pytest.param(
            lambda: losses.loss_cls(np.full((3, 2), 0.5), np.zeros((4, 2)), np.zeros((2, 2))),
            ["(3, 2)", "(4, 2)"], id="cls-rows",
        ),
        pytest.param(
            lambda: losses.loss_cls(np.full((4, 2), 0.5), np.zeros((4, 3)), np.zeros((2, 2))),
            ["dim 3", "dim 2"], id="cls-latent-dim",
        ),
    ],
)
def test_each_criterion_rejects_mismatched_shapes_naming_both(criterion, shapes):
    with pytest.raises(nm.ShapeMismatchError) as err:
        criterion()
    assert all(s in str(err.value) for s in shapes), str(err.value)
