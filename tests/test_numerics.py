import numpy as np
import pytest
import scipy.sparse as sp

from celluster import numerics as nm
from celluster.numerics import special
from gradcheck import leaf_gradient_error, project


def _square(t):
    """t * t as one closed-form node."""
    values = t.values
    return nm.closed_form(values * values, (t,), lambda g: (2.0 * g * values,))


def _sum(*ts):
    """The sum of same-shaped tensors, as one closed-form node."""
    return nm.closed_form(sum(t.values for t in ts), ts, lambda g: (g,) * len(ts))


# -- forward values ----------------------------------------------------------


def test_sigmoid_at_zero():
    assert special.sigmoid(0.0) == 0.5


def test_special_functions_match_scipy():
    from scipy import special as scipy_special

    g = np.array([-800.0, -40.0, -1.0, -1e-300, 0.0, 1e-300, 1.0, 40.0, 800.0])
    np.testing.assert_allclose(special.sigmoid(g), scipy_special.expit(g), rtol=1e-15, atol=0)


def test_forward_ops_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, 2.0, size=(3, 4))
    ta = nm.Tensor(a, requires_grad=True)
    np.testing.assert_array_equal(nm.index_rows(ta, [2, 0]).values, a[[2, 0]])
    np.testing.assert_array_equal(_square(ta).values, a * a)
    assert nm.as_tensor(ta) is ta and nm.as_tensor(a).requires_grad is False


def test_shape_mismatch_names_both_shapes():
    # a vjp that returns a gradient of the wrong shape fails in backward,
    # naming the gradient's shape and its parent's
    x = nm.Tensor(np.zeros((2, 3)), requires_grad=True)
    y = nm.closed_form(0.0, (x,), lambda g: (np.zeros((4, 5)),))
    with pytest.raises(nm.ShapeMismatchError, match=r"\(4, 5\).*\(2, 3\)"):
        y.backward()
    broadcastable = nm.closed_form(0.0, (x,), lambda g: (np.zeros(3),))
    with pytest.raises(nm.ShapeMismatchError, match=r"\(3,\).*\(2, 3\)"):
        broadcastable.backward()


def test_backward_requires_scalar():
    t = nm.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(nm.NonScalarBackwardError):
        t.backward()


def test_constant_parents_record_nothing():
    # no parent requires grad: the output is a constant, and its vjp never runs
    def vjp(g):
        raise AssertionError("vjp ran")

    y = nm.closed_form(1.0, (nm.Tensor(2.0), np.ones(2)), vjp)
    assert not y.requires_grad and y.node.parents == ()
    x, c = nm.Tensor(3.0, requires_grad=True), nm.Tensor(4.0)
    nm.closed_form(12.0, (x, c), lambda g: (g * 4.0, g * 3.0)).backward()
    assert x.grad == 4.0 and c.grad is None


# -- the walker ----------------------------------------------------------------


def test_shared_subexpression_accumulates_both_paths():
    # y = x*x + 3x -> dy/dx = 2x + 3
    x = nm.Tensor(1.5, requires_grad=True)
    three_x = nm.closed_form(3.0 * x.values, (x,), lambda g: (3.0 * g,))
    _sum(_square(x), three_x).backward()
    assert x.grad == 2 * 1.5 + 3


def test_repeated_backward_gives_fresh_grads():
    x = nm.Tensor(2.0, requires_grad=True)
    _square(x).backward()
    first = float(x.grad)
    _square(x).backward()
    assert float(x.grad) == first


def _tape(root):
    """Every tape node reachable from the Tensor `root`, its own included."""
    nodes, stack = {}, [root.node]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return list(nodes.values())


def test_backward_releases_interior_grads_and_keeps_leaf_grads():
    # y = <sq(g) + g + sq(a), w> with g = a gathered on rows [2, 0, 2]:
    # g feeds two consumers, a three (one through g)
    rng = np.random.default_rng(12)
    a0, w = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    a = nm.Tensor(a0, requires_grad=True)
    idx = [2, 0, 2]
    gathered = nm.index_rows(a, idx)
    y = project(_sum(_square(gathered), gathered, _square(a)), w)
    y.backward()
    interior = [node for node in _tape(y) if node.backward_fn is not None]
    assert len(interior) == 5  # index_rows, two squares, the sum, the projection
    assert all(node.grad is None for node in interior)
    want = 2.0 * a0 * w  # oracle, coded apart from the tape
    np.add.at(want, idx, (2.0 * a0[idx] + 1.0) * w)
    np.testing.assert_allclose(a.grad, want, rtol=1e-14)
    first = a.grad.copy()
    y.backward()  # the tape survives: a second pass gives the same leaf grads
    assert all(node.grad is None for node in interior)
    assert np.array_equal(a.grad, first)


REBIND_CASES = {  # node over a (3, 3) leaf
    "index_rows": lambda t: nm.index_rows(t, [2, 0, 2]),
    "closed_form": _square,
}


@pytest.mark.parametrize("name", sorted(REBIND_CASES))
def test_rebinding_leaf_values_before_backward_leaves_gradients_unchanged(name):
    # every closure holds its own arrays: backward never reads a Tensor's values
    op = REBIND_CASES[name]
    rng = np.random.default_rng(14)
    a = rng.uniform(0.5, 2.0, size=(3, 3))
    w = rng.uniform(-1.0, 1.0, size=(3, 3))
    kept = nm.Tensor(a, requires_grad=True)
    project(op(kept), w).backward()
    moved = nm.Tensor(a.copy(), requires_grad=True)
    loss = project(op(moved), w)
    moved.values = -7.0 * moved.values
    loss.backward()
    assert np.array_equal(moved.grad, kept.grad)


def test_index_rows_gradient_with_duplicate_rows():
    rng = np.random.default_rng(7)
    a = nm.Tensor(rng.uniform(-1, 1, size=(5, 3)), requires_grad=True)
    w = rng.uniform(-1, 1, size=(4, 3))
    idx = np.array([0, 2, 2, 4])
    assert leaf_gradient_error(lambda: project(nm.index_rows(a, idx), w), [a]) < 1e-5
    assert not np.any(a.grad[[1, 3]])


def test_random_five_op_graphs_match_finite_differences():
    # the training objective is a graph of seven closed-form nodes: encoder,
    # subset gather, count MLP, the three criteria and their weighted sum;
    # on random inputs its gradient in every parameter matches central
    # differences
    from celluster import losses, model
    from celluster.cellgraph import _from_adjacency

    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        upper = np.triu(rng.random((6, 6)) < 0.5, k=1)
        graph = _from_adjacency(sp.csr_matrix((upper | upper.T).astype(float)), "sym_normalized")
        params = model.init_params(
            n_genes=4, latent_dim=2, hidden_dim=3, zinb_dims=(3,), seed=seed
        ).with_centers(rng.normal(size=(2, 2)))
        basis = model.chebyshev_basis(rng.normal(size=(6, 4)), graph, 3)
        subset = [4, 0, 2, 5]
        counts = rng.poisson(1.0, size=(4, 4))
        adjacency = graph.adjacency[subset][:, subset]
        target = rng.random((4, 2))
        target /= target.sum(axis=1, keepdims=True)
        weights = tuple(rng.uniform(0.5, 2.0, size=3))

        def loss():
            z = nm.index_rows(model.encode(basis, graph, params), subset)
            rec = losses.loss_rec(adjacency, z)
            zinb = losses.loss_zinb(counts, model.decode_zinb(z, params))
            cls = losses.loss_cls(target, z, params.cluster_centers)
            return losses.weighted_total(rec, zinb, cls, weights)[0]

        leaves = [t for _, t in params.named_parameters()]
        err = leaf_gradient_error(loss, leaves)
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
    loaded = nm.load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name], np.asarray(arrays[name], dtype=np.float64))


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path):
    class FailsOnSecondRead:
        """Converts once for the manifest, then fails while the payload is written."""

        reads = 0

        def __array__(self, dtype=None, copy=None):
            self.reads += 1
            if self.reads > 1:
                raise OSError("device full")
            return np.zeros(3)

    path = tmp_path / "state.ckpt"
    nm.save_checkpoint(path, {"w": np.arange(4.0)})
    before = path.read_bytes()
    with pytest.raises(OSError, match="device full"):
        nm.save_checkpoint(path, {"w": np.ones(4), "v": FailsOnSecondRead()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


def test_checkpoint_rejects_bad_names(tmp_path):
    with pytest.raises(nm.CheckpointFormatError):
        nm.save_checkpoint(tmp_path / "x.ckpt", {"bad name": np.zeros(2)})


def test_checkpoint_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ckpt"
    nm.save_checkpoint(path, {"w": np.arange(4.0)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(nm.CheckpointFormatError):
        nm.load_checkpoint(path)


@pytest.mark.parametrize(
    "manifest, lineno",
    [
        (b"tensors 1\nw\n", 2),
        (b"tensors x\nw 1 3\n", 1),
        (b"tensors 1\nw one 3\n", 2),
        (b"tensors 1\n\xffw 1 3\n", 2),
        (b"tensors 1\nw 1 -3\n", 2),
    ],
    ids=["no-rank", "non-integer-count", "non-integer-rank", "non-utf8", "negative-dim"],
)
def test_checkpoint_rejects_malformed_manifest(tmp_path, manifest, lineno):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(manifest + b"end\n" + np.arange(3.0).tobytes())
    with pytest.raises(nm.CheckpointFormatError) as err:
        nm.load_checkpoint(path)
    message = str(err.value)
    assert message.startswith(f"{path}: manifest line {lineno} ")
    assert repr(manifest.splitlines()[lineno - 1])[2:-1] in message
