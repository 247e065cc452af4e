"""Central finite-difference gradients, for checking the reverse pass.

The oracle only ever evaluates the forward function, so it stays independent
of the tape it is used to check. `project` and `leaf_gradient_error` connect
it to the tape: the first turns any node's output into a scalar loss, the
second checks the gradients that backward() leaves on parameter Tensors.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from celluster import numerics as nm


def finite_difference_gradients(
    fn: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central differences of scalar fn w.r.t. each entry of each array."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for k, arr in enumerate(arrays):
        grad = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn(arrays)
            flat[i] = orig - h
            f_minus = fn(arrays)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(grad)
    return grads


def max_relative_error(
    analytic: Sequence[np.ndarray],
    numeric: Sequence[np.ndarray],
    floor: float = 1e-6,
) -> float:
    """Worst-case |a - n| / max(floor, |a|, |n|) over all entries; inf
    where either side holds a NaN."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
        err = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
        worst = max(worst, np.inf if np.isnan(err) else err)
    return worst


def project(tensor, weights):
    """The scalar sum(tensor * weights), one closed-form node: it turns any
    array-valued node into a loss that backward() can start from."""
    w = np.asarray(weights, dtype=np.float64)
    return nm.closed_form(float((tensor.values * w).sum()), (tensor,), lambda g: (g * w,))


def leaf_gradient_error(loss, leaves, h: float = 1e-5) -> float:
    """Max relative error of the gradients that loss().backward() leaves on
    `leaves` (Tensors that the scalar-valued `loss` reads; a leaf left
    without one counts as a zero gradient) against central differences of
    loss() in their values, which are restored afterwards."""
    arrays = [t.values for t in leaves]
    for t in leaves:
        t.grad = None
    loss().backward()
    analytic = [np.zeros(t.shape) if t.grad is None else t.grad for t in leaves]

    def forward(values):
        for t, v in zip(leaves, values):
            t.values = v
        return loss().item()

    try:
        numeric = finite_difference_gradients(forward, arrays, h=h)
    finally:
        for t, a in zip(leaves, arrays):
            t.values = a
    return max_relative_error(analytic, numeric)
