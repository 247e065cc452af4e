import numpy as np
import pytest
import scipy.sparse as sp

from celluster import numerics as nm
from celluster.numerics import special
from gradcheck import step_gradient_error


# -- forward values ----------------------------------------------------------


def test_sigmoid_at_zero():
    assert special.sigmoid(0.0) == 0.5


def test_special_functions_match_scipy():
    from scipy import special as scipy_special

    g = np.array([-800.0, -40.0, -1.0, -1e-300, 0.0, 1e-300, 1.0, 40.0, 800.0])
    np.testing.assert_allclose(special.sigmoid(g), scipy_special.expit(g), rtol=1e-15, atol=0)


def test_sigmoid_into_out_gives_the_same_bits():
    g = np.array([[-800.0, -40.0, -1.0, -1e-300, 0.0], [1e-300, 1.0, 40.0, 800.0, np.nan]])
    want = special.sigmoid(g)
    out = np.empty_like(g)
    assert special.sigmoid(g, out=out) is out
    np.testing.assert_array_equal(out, want)
    inplace = g.copy()
    assert special.sigmoid(inplace, out=inplace) is inplace
    np.testing.assert_array_equal(inplace, want)


# -- closed-form backward ------------------------------------------------------


def _square(a):
    """a * a with its backward: the gradient of sum(a * a * g) in a."""
    return nm.Tensor(a * a, lambda g: [2.0 * g * a])


def test_shape_mismatch_names_both_shapes():
    # an upstream gradient of the wrong shape fails in backward, naming its
    # shape and the values'
    y = _square(np.zeros((2, 3)))
    with pytest.raises(nm.ShapeMismatchError, match=r"\(4, 5\).*\(2, 3\)"):
        y.backward(np.zeros((4, 5)))
    with pytest.raises(nm.ShapeMismatchError, match=r"\(3,\).*\(2, 3\)"):
        y.backward(np.zeros(3))  # broadcastable, and still refused


def test_repeated_backward_gives_fresh_grads():
    # backward returns new arrays each call and never reads `values`
    a = np.array([[2.0, -1.0]])
    y = _square(a)
    first = y.backward(np.ones((1, 2)))
    y.values = -7.0 * y.values
    second = y.backward(np.ones((1, 2)))
    assert first[0] is not second[0]
    np.testing.assert_array_equal(first[0], [[4.0, -2.0]])
    np.testing.assert_array_equal(second[0], first[0])


def test_random_five_op_graphs_match_finite_differences():
    # one formal training step composes five closed-form pieces: the
    # encoder, the subset scatter, and the three criteria (the count
    # criterion with its MLP); on random inputs the gradient it hands to
    # Adam matches central differences of its logged total in every
    # parameter entry
    from celluster import model
    from celluster.cellgraph import _from_adjacency
    from celluster.trainer import TrainConfig

    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        upper = np.triu(rng.random((6, 6)) < 0.5, k=1)
        graph = _from_adjacency(sp.csr_matrix((upper | upper.T).astype(float)), "sym_normalized")
        params = model.init_params(
            n_genes=4, latent_dim=2, hidden_dim=3, zinb_dims=(3,), seed=seed
        ).with_centers(rng.normal(size=(2, 2)))
        x = rng.normal(size=(6, 4))
        subset = np.array([4, 0, 2, 5])
        counts = rng.poisson(1.0, size=(4, 4))
        target = rng.random((6, 2))
        target /= target.sum(axis=1, keepdims=True)
        cfg = TrainConfig(n_clusters=2, loss_weights=tuple(rng.uniform(0.5, 2.0, size=3)))
        err = step_gradient_error(params, x, graph, counts, cfg, subset=subset, target=target)
        assert err < 1e-5, f"seed {seed}: max relative error {err}"


# -- Adam ----------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = nm.AdamState(learning_rate=0.1)
    out, _ = nm.adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
    np.testing.assert_array_equal(out[0], params[0])
    np.testing.assert_array_equal(out[1], params[1])


def test_adam_first_step_is_signed_learning_rate():
    # at t=1: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
    g = np.array([0.5, -3.0, 1e-4])
    lr = 0.01
    state = nm.AdamState(learning_rate=lr)
    out, state = nm.adam_step([np.zeros(3)], [g], state)
    expected = -lr * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(out[0], expected, rtol=1e-12)
    assert state.step == 1
    np.testing.assert_allclose(out[0], -lr * np.sign(g), rtol=1e-3)


def test_adam_trajectories_are_bitwise_identical():
    def run():
        rng = np.random.default_rng(3)
        p = [rng.normal(size=(4, 2))]
        state = nm.AdamState(learning_rate=1e-3)
        trace = []
        for _ in range(25):
            g = [np.sin(p[0]) + 0.1 * p[0]]
            p, state = nm.adam_step(p, g, state)
            trace.append(p[0].copy())
        return trace

    for left, right in zip(run(), run()):
        assert np.array_equal(left, right)


def test_adam_step_equals_textbook_formula_bit_for_bit():
    rng = np.random.default_rng(9)
    shapes = [(7, 3), (3,), (1, 1), (2, 5, 4), (11,)]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    params = [rng.normal(size=s) for s in shapes]
    want = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    state = nm.AdamState(learning_rate=lr)
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        old = params
        before = [g.copy() for g in grads], [p.copy() for p in old]
        params, state = nm.adam_step(old, grads, state)
        for i, g in enumerate(grads):  # the textbook form, one fresh array per step
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            m_hat = m[i] / (1.0 - b1**t)
            v_hat = v[i] / (1.0 - b2**t)
            want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert state.step == t
        for i in range(len(shapes)):
            assert np.array_equal(params[i], want[i])
            assert np.array_equal(state.first_moment[i], m[i])
            assert np.array_equal(state.second_moment[i], v[i])
            assert np.array_equal(grads[i], before[0][i])  # the inputs are not written
            assert np.array_equal(old[i], before[1][i])
    # what comes back shares memory with neither the inputs nor the state
    grads = [rng.normal(size=s) for s in shapes]
    old = list(params)
    params, state = nm.adam_step(params, grads, state)
    for new in params:
        for other in (*old, *grads, *state.first_moment, *state.second_moment):
            assert not np.shares_memory(new, other)
    for moment in (*state.first_moment, *state.second_moment):
        for other in (*old, *grads):
            assert not np.shares_memory(moment, other)


def test_adam_shape_mismatch_is_reported():
    state = nm.AdamState(learning_rate=0.1)
    with pytest.raises(nm.ShapeMismatchError):
        nm.adam_step([np.zeros(2)], [np.zeros(3)], state)


# -- checkpoint format ----------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {
        "enc.theta0": rng.normal(size=(3, 4)),
        "bias": rng.normal(size=(4,)),
        "step": np.array(17.0),
    }
    path = tmp_path / "model.ckpt"
    nm.save_checkpoint(path, arrays)
    with np.load(path) as f:
        loaded = dict(f)
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].dtype == np.dtype("<f8")
        assert np.array_equal(loaded[name], np.asarray(arrays[name], dtype=np.float64))
    again = tmp_path / "again.ckpt"
    nm.save_checkpoint(again, arrays)
    assert again.read_bytes() == path.read_bytes()


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    write_array = np.lib.format.write_array
    calls = 0

    def fails_on_second_tensor(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > 1:
            raise OSError("device full")
        return write_array(*args, **kwargs)

    path = tmp_path / "state.ckpt"
    nm.save_checkpoint(path, {"w": np.arange(4.0)})
    before = path.read_bytes()
    monkeypatch.setattr(np.lib.format, "write_array", fails_on_second_tensor)
    with pytest.raises(OSError, match="device full"):
        nm.save_checkpoint(path, {"w": np.ones(4), "v": np.zeros(3)})
    assert calls == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
