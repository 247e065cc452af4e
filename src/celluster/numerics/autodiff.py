"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray; operations record a tape closure whenever any
input requires gradients, and Tensor.backward() on a scalar walks the tape
in reverse topological order. Gradients of a call are fresh: backward()
clears every grad reachable from the root before accumulating, so shared
subexpressions still sum both contributions within the call. An interior
node (one with a recorded backward) releases its gradient as soon as it
has passed it on, so the reverse pass never holds more than the frontier;
leaves keep theirs. The tape itself (values, closures, parents) stays, so
backward() can run again on the same root.
"""

from __future__ import annotations

import numpy as np

from .special import sigmoid as _sigmoid_values


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class NonScalarBackwardError(ValueError):
    """backward() was called on a tensor whose shape is not ()."""


class Tensor:
    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn")

    # numpy must defer to the reflected operators instead of coercing
    __array_ufunc__ = None

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

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

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

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
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
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


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    grad = _unbroadcast(grad, t.values.shape)
    t.grad = grad if t.grad is None else t.grad + grad


def _track(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(values, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def closed_form(values, parents, vjp) -> Tensor:
    """One recorded node whose backward is supplied in closed form.

    `vjp(g)` receives the upstream gradient and returns one array per parent
    (its shape, or broadcastable to it), or None for a parent that gets
    nothing; it runs only during backward(), and only when some parent
    requires gradients. Whatever the forward pass kept for it stays alive
    until the node is released, so keep it small.
    """
    parents = tuple(as_tensor(p) for p in parents)

    def bw(g):
        for parent, grad in zip(parents, vjp(g)):
            if grad is not None:
                _accumulate(parent, grad)

    return _track(np.asarray(values, dtype=np.float64), parents, bw)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.values.shape, b.values.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"{op}: shapes {a.values.shape} and {b.values.shape} do not broadcast"
        ) from None


# -- elementwise binaries ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _track(a.values + b.values, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _track(a.values - b.values, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * b.values)
        if b.requires_grad:
            _accumulate(b, g * a.values)

    return _track(a.values * b.values, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "div")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g / b.values)
        if b.requires_grad:
            _accumulate(b, -g * a.values / (b.values * b.values))

    return _track(a.values / b.values, (a, b), bw)


# -- matrix ops --------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeMismatchError(
            f"matmul: shapes {a.values.shape} and {b.values.shape} are incompatible"
        )

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.values.T)
        if b.requires_grad:
            _accumulate(b, a.values.T @ g)

    return _track(a.values @ b.values, (a, b), bw)


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

    def bw(g):
        _accumulate(x, np.asarray(op_t @ g))

    return _track(np.asarray(values), (x,), bw)


def transpose(x) -> Tensor:
    x = as_tensor(x)

    def bw(g):
        _accumulate(x, g.T)

    return _track(x.values.T, (x,), bw)


def index_rows(x, indices) -> Tensor:
    """Gather rows; the backward pass scatter-adds into the source rows."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)

    def bw(g):
        full = np.zeros_like(x.values)
        np.add.at(full, idx, g)
        _accumulate(x, full)

    return _track(x.values[idx], (x,), bw)


# -- elementwise unaries ------------------------------------------------------


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out_values = _sigmoid_values(x.values)

    def bw(g):
        _accumulate(x, g * out_values * (1.0 - out_values))

    return _track(out_values, (x,), bw)


def log(x) -> Tensor:
    x = as_tensor(x)

    def bw(g):
        _accumulate(x, g / x.values)

    return _track(np.log(x.values), (x,), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_values = np.maximum(x.values, 0.0)

    def bw(g):
        _accumulate(x, g * (x.values > 0.0))

    return _track(out_values, (x,), bw)


# -- reductions ---------------------------------------------------------------


def tensor_sum(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.values.shape))

    return _track(x.values.sum(axis=axis, keepdims=keepdims), (x,), bw)
