"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor pairs an ndarray with a tape node. The node is what backward
reads: requires_grad, the shape, the gradient, the parent nodes and the
backward closure; it holds no values. Each op's closure captures exactly
the arrays its own formula reads (matmul and mul their operands, sigmoid
and relu their outputs, the shape-only ops nothing), so an interior
Tensor's values are freed as soon as the forward code drops its last
reference to it. The ops are what the model records: the encoder, the
count head's MLP and the subset gather, plus sigmoid, transpose and sum
for the dense adjacency decoder. Each training criterion is one
closed_form node with its gradient written out. Tensor.backward() on a
scalar walks the nodes in reverse topological order. Gradients of a call
are fresh: backward() clears every grad reachable from the root before
accumulating, so shared subexpressions still sum both contributions
within the call. An interior node (one with a recorded backward)
releases its gradient as soon as it has passed it on, so the reverse
pass never holds more than the frontier; leaves keep theirs. The tape
itself (nodes, closures) stays, so backward() can run again on the same
root."""

from __future__ import annotations

import numpy as np

from .special import sigmoid as _sigmoid_values


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class NonScalarBackwardError(ValueError):
    """backward() was called on a tensor whose shape is not ()."""


class Node:
    """A Tensor's entry on the tape. `shape` is the Tensor's shape when the
    node was made (gradients are summed down to it); `parents` and
    `backward_fn` are set on an op's output when some input requires grad."""

    __slots__ = ("requires_grad", "shape", "grad", "parents", "backward_fn")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool):
        self.requires_grad = requires_grad
        self.shape = shape
        self.grad: np.ndarray | None = None
        self.parents: tuple[Node, ...] = ()
        self.backward_fn = None


class Tensor:
    """Values plus a tape node. `values` may be rebound (to an array of the
    same shape) at any time: the tape never reads them."""

    __slots__ = ("values", "node")

    # numpy must defer to the reflected operators instead of coercing
    __array_ufunc__ = None

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.node = Node(self.values.shape, bool(requires_grad))

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self.node.requires_grad = bool(flag)

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, grad: np.ndarray | None) -> None:
        self.node.grad = grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    # -- reverse pass ------------------------------------------------------

    def backward(self) -> None:
        if self.values.shape != ():
            raise NonScalarBackwardError(
                f"backward() requires a scalar tensor, got shape {self.values.shape}"
            )
        root = self.node
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        root.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node.backward_fn is not None:
                if node.grad is not None:
                    node.backward_fn(node.grad)
                node.grad = None


def as_tensor(value) -> Tensor:
    """Wrap arrays/scalars as constant (non-grad) tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(node: Node, grad: np.ndarray) -> None:
    if not node.requires_grad:
        return
    grad = _unbroadcast(grad, node.shape)
    node.grad = grad if node.grad is None else node.grad + grad


def _track(values: np.ndarray, parents: tuple[Node, ...], backward_fn) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        node = out.node
        node.requires_grad = True
        node.parents = parents
        node.backward_fn = backward_fn
    return out


def closed_form(values, parents, vjp) -> Tensor:
    """One recorded node whose backward is supplied in closed form.

    `vjp(g)` receives the upstream gradient and returns one array per parent
    (its shape, or broadcastable to it), or None for a parent that gets
    nothing; it runs only during backward(), and only when some parent
    requires gradients. Whatever `vjp` closes over stays alive until the
    node is released, so keep it small, and close over no parent Tensor:
    that would keep its values alive too.
    """
    nodes = tuple(as_tensor(p).node for p in parents)

    def bw(g):
        for node, grad in zip(nodes, vjp(g)):
            if grad is not None:
                _accumulate(node, grad)

    return _track(np.asarray(values, dtype=np.float64), nodes, bw)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.values.shape, b.values.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"{op}: shapes {a.values.shape} and {b.values.shape} do not broadcast"
        ) from None


# -- elementwise binaries ---------------------------------------------------
# Each backward closure names nodes and the arrays it reads, never a Tensor.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    na, nb = a.node, b.node

    def bw(g):
        _accumulate(na, g)
        _accumulate(nb, g)

    return _track(a.values + b.values, (na, nb), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    na, nb = a.node, b.node

    def bw(g):
        _accumulate(na, g)
        _accumulate(nb, -g)

    return _track(a.values - b.values, (na, nb), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    na, nb = a.node, b.node
    av, bv = a.values, b.values

    def bw(g):
        if na.requires_grad:
            _accumulate(na, g * bv)
        if nb.requires_grad:
            _accumulate(nb, g * av)

    return _track(av * bv, (na, nb), bw)


# -- matrix ops --------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeMismatchError(
            f"matmul: shapes {a.values.shape} and {b.values.shape} are incompatible"
        )
    na, nb = a.node, b.node
    av, bv = a.values, b.values

    def bw(g):
        if na.requires_grad:
            _accumulate(na, g @ bv.T)
        if nb.requires_grad:
            _accumulate(nb, av.T @ g)

    return _track(av @ bv, (na, nb), bw)


def const_matmul(operator, x: Tensor) -> Tensor:
    """Left-multiply by a constant matrix (dense or scipy sparse).

    No gradient flows into the operator; d/dx is operator.T @ grad.
    """
    x = as_tensor(x)
    if x.values.ndim != 2 or operator.shape[1] != x.values.shape[0]:
        raise ShapeMismatchError(
            f"const_matmul: shapes {operator.shape} and {x.values.shape} are incompatible"
        )
    values = operator @ x.values
    op_t = operator.T
    nx = x.node

    def bw(g):
        _accumulate(nx, np.asarray(op_t @ g))

    return _track(np.asarray(values), (nx,), bw)


def transpose(x) -> Tensor:
    x = as_tensor(x)
    nx = x.node

    def bw(g):
        _accumulate(nx, g.T)

    return _track(x.values.T, (nx,), bw)


def index_rows(x, indices) -> Tensor:
    """Gather rows; the backward pass scatter-adds into the source rows."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    nx = x.node

    def bw(g):
        full = np.zeros(nx.shape)
        np.add.at(full, idx, g)
        _accumulate(nx, full)

    return _track(x.values[idx], (nx,), bw)


# -- elementwise unaries ------------------------------------------------------


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out_values = _sigmoid_values(x.values)
    nx = x.node

    def bw(g):
        _accumulate(nx, g * out_values * (1.0 - out_values))

    return _track(out_values, (nx,), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_values = np.maximum(x.values, 0.0)
    nx = x.node

    def bw(g):
        # out > 0 exactly where x > 0 (NaN included), so the input can go
        _accumulate(nx, g * (out_values > 0.0))

    return _track(out_values, (nx,), bw)


# -- reductions ---------------------------------------------------------------


def tensor_sum(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    nx = x.node

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(nx, np.broadcast_to(g, nx.shape))

    return _track(x.values.sum(axis=axis, keepdims=keepdims), (nx,), bw)
