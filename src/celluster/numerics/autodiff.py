"""Reverse-mode differentiation over float64 numpy arrays, by closed-form nodes.

A Tensor pairs an ndarray with a tape node. The node is what backward
reads: requires_grad, the shape, the gradient, the parent nodes and the
backward closure; it holds no values. There are no generic ops: every
recorded computation is one closed_form node whose gradient is written
out (the encoder, the count decoder's MLP, each training criterion and
their weighted sum), plus index_rows, the paced-subset gather. Each
closure captures exactly the arrays its own gradient reads, so a Tensor's
values are freed as soon as the forward code drops its last reference.
Tensor.backward() on a scalar walks the nodes in reverse topological
order. Gradients of a call are fresh: backward() clears every grad
reachable from the root before accumulating, so a node that feeds several
others still sums every contribution within the call. An interior node
(one with a recorded backward) releases its gradient as soon as it has
passed it on, so the reverse pass never holds more than the frontier;
leaves keep theirs. The tape itself (nodes, closures) stays, so
backward() can run again on the same root."""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class NonScalarBackwardError(ValueError):
    """backward() was called on a tensor whose shape is not ()."""


class Node:
    """A Tensor's entry on the tape. `shape` is the Tensor's shape when the
    node was made (every gradient passed to it must have it); `parents` and
    `backward_fn` are set on a closed_form output when some parent requires
    grad."""

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

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.node = Node(self.values.shape, bool(requires_grad))

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

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

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"

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


def closed_form(values, parents, vjp) -> Tensor:
    """One recorded node whose backward is supplied in closed form.

    `vjp(g)` receives the upstream gradient and returns one array per parent,
    of that parent's shape (else ShapeMismatchError names both shapes), or
    None for a parent that gets nothing; it runs only during backward(), and
    only when some parent requires gradients. Whatever `vjp` closes over
    stays alive until the node is released, so keep it small, and close over
    no parent Tensor: that would keep its values alive too.
    """
    out = Tensor(values)
    nodes = tuple(as_tensor(p).node for p in parents)
    if not any(node.requires_grad for node in nodes):
        return out

    def backward_fn(g):
        for node, grad in zip(nodes, vjp(g)):
            if grad is None or not node.requires_grad:
                continue
            if np.shape(grad) != node.shape:
                raise ShapeMismatchError(
                    f"closed_form: gradient of shape {np.shape(grad)} "
                    f"for a parent of shape {node.shape}"
                )
            node.grad = grad if node.grad is None else node.grad + grad

    out.node.requires_grad = True
    out.node.parents = nodes
    out.node.backward_fn = backward_fn
    return out


def index_rows(x, indices) -> Tensor:
    """Gather rows; the backward pass scatter-adds into the source rows."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    shape = x.shape

    def vjp(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return (full,)

    return closed_form(x.values[idx], (x,), vjp)
