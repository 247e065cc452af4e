import numpy as np
import pytest

from celluster import numerics as nm
from celluster.numerics import special
from gradcheck import finite_difference_gradients, max_relative_error


def _tensor(rng, shape, lo=-1.0, hi=1.0):
    return nm.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


# -- forward values ----------------------------------------------------------


def test_sigmoid_at_zero():
    assert nm.sigmoid(nm.Tensor(0.0)).item() == 0.5


def test_special_functions_match_scipy():
    from scipy import special as scipy_special

    g = np.array([-800.0, -40.0, -1.0, -1e-300, 0.0, 1e-300, 1.0, 40.0, 800.0])
    np.testing.assert_allclose(special.sigmoid(g), scipy_special.expit(g), rtol=1e-15, atol=0)


def test_forward_ops_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, 2.0, size=(3, 4))
    b = rng.uniform(0.1, 2.0, size=(3, 4))
    ta, tb = nm.Tensor(a), nm.Tensor(b)
    np.testing.assert_allclose((ta + tb).values, a + b, rtol=0)
    np.testing.assert_allclose((ta - tb).values, a - b, rtol=0)
    np.testing.assert_allclose((ta * tb).values, a * b, rtol=0)
    np.testing.assert_allclose(nm.relu(nm.Tensor(a - 1.0)).values, np.maximum(a - 1.0, 0), rtol=0)
    np.testing.assert_allclose(ta.T.values, a.T, rtol=0)
    np.testing.assert_allclose((ta @ tb.T).values, a @ b.T, rtol=0)
    np.testing.assert_allclose(ta.sum(axis=1).values, a.sum(axis=1), rtol=0)
    np.testing.assert_allclose(nm.index_rows(ta, [2, 0]).values, a[[2, 0]], rtol=0)


def test_shape_mismatch_names_both_shapes():
    a = nm.Tensor(np.zeros((2, 3)))
    b = nm.Tensor(np.zeros((4, 5)))
    with pytest.raises(nm.ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
        nm.add(a, b)
    with pytest.raises(nm.ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
        nm.matmul(a, b)


def test_backward_requires_scalar():
    t = nm.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(nm.NonScalarBackwardError):
        t.backward()


# -- hand-checked gradients ---------------------------------------------------


def test_grad_of_sum_is_ones():
    x = nm.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_grad_of_sigmoid_at_zero():
    x = nm.Tensor(0.0, requires_grad=True)
    nm.sigmoid(x).backward()
    assert x.grad == pytest.approx(0.25, abs=1e-15)


def test_shared_subexpression_accumulates_both_paths():
    # y = x*x + 3x -> dy/dx = 2x + 3
    x = nm.Tensor(1.5, requires_grad=True)
    y = x * x + 3.0 * x
    y.backward()
    assert x.grad == pytest.approx(2 * 1.5 + 3, abs=1e-12)


def test_repeated_backward_gives_fresh_grads():
    x = nm.Tensor(2.0, requires_grad=True)
    (x * x).backward()
    first = float(x.grad)
    (x * x).backward()
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
    # y = sum(sigmoid(a @ b) * (a @ b) + a @ b): a @ b feeds three consumers
    rng = np.random.default_rng(12)
    a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    a, b = nm.Tensor(a0, requires_grad=True), nm.Tensor(b0, requires_grad=True)
    ab = a @ b
    y = (nm.sigmoid(ab) * ab + ab).sum()
    y.backward()
    interior = [node for node in _tape(y) if node.backward_fn is not None]
    assert len(interior) == 5  # matmul, sigmoid, mul, add, sum
    assert all(node.grad is None for node in interior)
    s = 1.0 / (1.0 + np.exp(-(a0 @ b0)))
    d_ab = s * (1.0 - s) * (a0 @ b0) + s + 1.0  # oracle, coded apart from the tape
    np.testing.assert_allclose(a.grad, d_ab @ b0.T, rtol=1e-13)
    np.testing.assert_allclose(b.grad, a0.T @ d_ab, rtol=1e-13)
    first = [a.grad.copy(), b.grad.copy()]
    y.backward()  # the tape survives: a second pass gives the same leaf grads
    assert all(node.grad is None for node in interior)
    assert np.array_equal(a.grad, first[0]) and np.array_equal(b.grad, first[1])


def _closed_form_square(t):
    values = t.values
    return nm.closed_form(values * values, (t,), lambda g: (2.0 * g * values,))


REBIND_CASES = {  # op over square leaves, and how many leaves it takes
    "add": (nm.add, 2),
    "sub": (nm.sub, 2),
    "mul": (nm.mul, 2),
    "matmul": (nm.matmul, 2),
    "const_matmul": (lambda t: nm.const_matmul(np.arange(9.0).reshape(3, 3), t), 1),
    "transpose": (nm.transpose, 1),
    "index_rows": (lambda t: nm.index_rows(t, [2, 0, 2]), 1),
    "sigmoid": (nm.sigmoid, 1),
    "relu": (nm.relu, 1),
    "tensor_sum": (lambda t: nm.tensor_sum(t, axis=1, keepdims=True), 1),
    "closed_form": (_closed_form_square, 1),
}


@pytest.mark.parametrize("name", sorted(REBIND_CASES))
def test_rebinding_leaf_values_before_backward_leaves_gradients_unchanged(name):
    # every closure holds its own arrays: backward never reads a Tensor's values
    op, arity = REBIND_CASES[name]
    rng = np.random.default_rng(14)
    arrays = [rng.uniform(0.5, 2.0, size=(3, 3)) for _ in range(arity)]
    w = nm.Tensor(rng.uniform(-1.0, 1.0, size=(3, 3)))
    kept = [nm.Tensor(a, requires_grad=True) for a in arrays]
    (op(*kept) * w).sum().backward()
    moved = [nm.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = (op(*moved) * w).sum()
    for t in moved:
        t.values = -7.0 * t.values
    loss.backward()
    for k, m in zip(kept, moved):
        assert np.array_equal(m.grad, k.grad)


# -- finite-difference oracle -------------------------------------------------


def _fd_check(build, arrays, tol=1e-5, h=1e-5):
    """build(tensors) -> scalar Tensor; compares tape grads to central FD."""

    def forward(vals):
        return build([nm.Tensor(v, requires_grad=True) for v in vals]).item()

    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    build(tensors).backward()
    analytic = [t.grad for t in tensors]
    numeric = finite_difference_gradients(forward, arrays, h=h)
    err = max_relative_error(analytic, numeric)
    assert err < tol, f"max relative error {err}"


UNARY_CASES = {
    "sigmoid": (nm.sigmoid, (-2.0, 2.0)),
    "relu": (nm.relu, (0.2, 2.0)),  # stay away from the kink
    "transpose": (nm.transpose, (-1.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(UNARY_CASES))
def test_unary_gradients_match_finite_differences(name):
    op, (lo, hi) = UNARY_CASES[name]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.uniform(lo, hi, size=(3, 4))
        w = nm.Tensor(rng.uniform(-1, 1, op(nm.Tensor(a)).shape))
        _fd_check(lambda ts: (op(ts[0]) * w).sum(), [a])


@pytest.mark.parametrize("name", ["add", "sub", "mul", "matmul"])
def test_binary_gradients_match_finite_differences(name):
    ops = {
        "add": nm.add,
        "sub": nm.sub,
        "mul": nm.mul,
        "matmul": nm.matmul,
    }
    op = ops[name]
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        if name == "matmul":
            a = rng.uniform(-1, 1, size=(3, 4))
            b = rng.uniform(-1, 1, size=(4, 2))
        else:
            a = rng.uniform(0.5, 2.0, size=(3, 4))
            b = rng.uniform(0.5, 2.0, size=(3, 4))
        w = rng.uniform(-1, 1, size=op(nm.Tensor(a), nm.Tensor(b)).shape)
        _fd_check(lambda ts: (op(ts[0], ts[1]) * nm.Tensor(w)).sum(), [a, b])


@pytest.mark.parametrize("name", ["mul", "matmul"])
def test_constant_operand_gets_no_gradient(name):
    op = {"mul": nm.mul, "matmul": nm.matmul}[name]
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, size=(3, 3))
    b = rng.uniform(0.5, 2.0, size=(3, 3))
    both = [nm.Tensor(a, requires_grad=True), nm.Tensor(b, requires_grad=True)]
    op(*both).sum().backward()
    for trained in (0, 1):
        pair = [nm.Tensor(a, requires_grad=trained == 0), nm.Tensor(b, requires_grad=trained == 1)]
        op(*pair).sum().backward()
        assert pair[1 - trained].grad is None
        assert np.array_equal(pair[trained].grad, both[trained].grad)


def test_broadcast_gradients_match_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, size=(4, 3))
        row = rng.uniform(0.5, 2.0, size=(3,))
        col = rng.uniform(0.5, 2.0, size=(4, 1))
        _fd_check(lambda ts: ((ts[0] + ts[1]) * ts[2]).sum(), [a, row, col])
        _fd_check(lambda ts: ((ts[0] - ts[2]) * ts[1]).sum(), [a, row, col])


def test_index_rows_gradient_with_duplicate_rows():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    _fd_check(lambda ts: (nm.index_rows(ts[0], idx) * 2.0).sum(), [a])


def test_const_matmul_gradient_dense_and_sparse():
    import scipy.sparse as sp

    rng = np.random.default_rng(11)
    op_dense = rng.uniform(-1, 1, size=(4, 4))
    x = rng.uniform(-1, 1, size=(4, 3))
    _fd_check(lambda ts: nm.const_matmul(op_dense, ts[0]).sum(), [x])
    op_sparse = sp.csr_matrix(np.triu(op_dense))
    _fd_check(lambda ts: nm.const_matmul(op_sparse, ts[0]).sum(), [x])


def test_random_five_op_graphs_match_finite_differences():
    # composition of >= 5 recorded ops, checked against the FD oracle
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        a = rng.uniform(0.3, 1.5, size=(3, 3))
        b = rng.uniform(0.3, 1.5, size=(3, 3))

        def build(ts):
            h = nm.sigmoid(ts[0] @ ts[1])
            g = nm.sigmoid(ts[0] - ts[1])
            return (h * g + nm.relu(ts[1])).sum()

        _fd_check(build, [a, b], tol=1e-6)


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
