"""Central finite-difference gradients, for checking the closed-form ones.

The oracle only ever evaluates the forward function, so it stays independent
of the gradients it is used to check. `gradient_error` checks a function
that returns (value, gradients), as the training criteria do;
`backward_error` checks a Tensor's backward under a weighted sum of its
values; `step_gradient_error` checks the parameter gradients that one
training step hands to Adam against the total it logs. `dense_heads` and
`zinb_on_heads` feed the count likelihood its three head pre-activations
directly. `chebconv` (one Chebyshev layer) and `dense_hidden` (the count
decoder's MLP over every row at once) are the references that
model.encode and the likelihood's row blocks are checked against;
`chebyshev_basis` forms the terms T_k(Lhat) x that encode never stores,
and `layer_backward_reference` is the plain Chebyshev recursion that
model._clenshaw_backward is checked against bit for bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pytest

from celluster import losses, model, trainer
from celluster.numerics import AdamState, Tensor


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


def gradient_error(fn, arrays, h: float = 1e-5) -> float:
    """Max relative error of the gradients that fn(arrays) returns with its
    value, as (value, gradients in `arrays`), against central differences
    of that value."""
    _, analytic = fn(arrays)
    numeric = finite_difference_gradients(lambda a: fn(a)[0], arrays, h=h)
    return max_relative_error(analytic, numeric)


def backward_error(forward, arrays, weights, h: float = 1e-5) -> float:
    """gradient_error of the scalar sum(values * weights) of the Tensor
    forward(arrays), whose backward(weights) gives its gradients in
    `arrays`."""
    w = np.asarray(weights, dtype=np.float64)

    def fn(a):
        out = forward(a)
        return float((out.values * w).sum()), out.backward(w)

    return gradient_error(fn, arrays, h)


def chebyshev_basis(x, graph, order: int) -> list[np.ndarray]:
    """[x, Lhat x, 2 Lhat (Lhat x) - x, ...]: the first `order` terms of the
    Chebyshev recursion on x, T_k(Lhat) x, each formed and kept: the
    input-side oracle of the filter model.encode sums on the output side."""
    lhat = graph.scaled_laplacian
    basis = [np.asarray(x, dtype=np.float64)]
    if order >= 2:
        basis.append(np.asarray(lhat @ basis[0]))
    for _ in range(2, order):
        basis.append(2.0 * np.asarray(lhat @ basis[-1]) - basis[-2])
    return basis


def layer_backward_reference(g, x, thetas, lhat_t, want_input: bool):
    """model._clenshaw_backward written plainly: every U_k = T_k(Lhat^T) g
    is formed and kept, each U_{k-1} is doubled into a fresh array before
    the sparse product with the transposed operator the chain rule names,
    and x's gradient is summed after the recursion. Same terms in the same
    order, so the same bits."""
    u = [g]
    if len(thetas) >= 2:
        u.append(np.asarray(lhat_t @ g))
    for _ in range(2, len(thetas)):
        u.append(np.asarray(lhat_t @ (u[-1] * 2.0)) - u[-2])
    grads = [x.T @ uk for uk in u] + [g.sum(axis=0)]
    if not want_input:
        return None, grads
    d_input = u[0] @ thetas[0].T
    for uk, theta in zip(u[1:], thetas[1:]):
        d_input += uk @ theta.T
    return d_input, grads


def chebconv(x, graph, layer: model.ChebLayerParams) -> Tensor:
    """One Chebyshev convolution of x on `graph` with the weights of
    `layer`, no relu: the one-layer reference that encode's chaining of
    layers is checked against. Its backward gives x's gradient, then every
    theta_k's and the bias's."""
    lhat = graph.scaled_laplacian
    out = model._clenshaw(x, layer.theta, lhat)
    out += layer.bias

    def vjp(g):
        d_input, grads = model._clenshaw_backward(g, x, layer.theta, lhat, True)
        return [d_input, *grads]

    return Tensor(out, vjp)


def dense_hidden(latent, layers) -> Tensor:
    """The count decoder's MLP (the (weight, bias) chain `layers`) over
    every row of the latent at once, its last hidden layer H: the dense
    reference of the row blocks losses.loss_zinb runs. Its backward gives
    the latent's gradient, then every layer's weight and bias gradient."""
    acts = model.mlp_forward(latent, layers)

    def vjp(g):
        d_input, grads = model.mlp_backward(g, acts, layers)
        return [d_input, *grads]

    return Tensor(acts[-1], vjp)


def dense_heads(pi_logit, log_mu, log_theta) -> model.CountHeads:
    """The head pre-activations (logit pi, log mu, log theta), n x g each,
    as a count decoder: an identity latent and no MLP layers, so each head
    weight is its head and the weight's gradient is the head's."""
    heads = tuple(np.asarray(h, dtype=np.float64) for h in (pi_logit, log_mu, log_theta))
    return model.CountHeads(np.eye(len(heads[0])), (), heads)


def zinb_on_heads(counts, heads, count_rows=None):
    """losses.loss_zinb on the three head pre-activations `heads`: its value
    and its gradients in the three heads (the latent's dropped)."""
    value, grads = losses.loss_zinb(counts, dense_heads(*heads), count_rows)
    return value, grads[1:]


def with_arrays(params: model.ModelParams, names, arrays) -> model.ModelParams:
    """`params` with the parameters `names` replaced by `arrays`."""
    new = dict(zip(names, arrays))
    return params.map_named(lambda name, array: new.get(name, array))


def step_gradient_error(
    params, x, graph, counts, cfg, h: float = 1e-5, rng=None, **step
) -> float:
    """Max relative error of the parameter gradients that one formal
    trainer._train_step hands to Adam, against central differences of the
    breakdown total it logs, in every entry of every array of `params`.
    With `rng`, each array is checked along one direction drawn from it
    instead: the central difference of the total along the direction
    against the gradient's inner product with it. `x` is the nodes' input
    on `graph`; `step` holds the step's subset, target and count_rows."""
    handed = []

    def record(arrays, grads, adam):
        handed.append(grads)
        return arrays, adam

    names = [name for name, _ in params.named_parameters()]

    def total(arrays):
        trial = with_arrays(params, names, arrays)
        state = trainer.TrainState("formal", 0, trial, AdamState(learning_rate=1e-3))
        trainer._train_step(state, model.encode(x, graph, trial), counts, graph, cfg, **step)
        return state.loss_history[-1].total

    arrays = [array for _, array in params.named_parameters()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "adam_step", record)
        total(arrays)
        if rng is None:
            return max_relative_error(handed[0], finite_difference_gradients(total, arrays, h=h))
        directions = [rng.normal(size=a.shape) for a in arrays]
        numeric = finite_difference_gradients(
            lambda t: total([a + s * d for a, s, d in zip(arrays, t[0], directions)]),
            [np.zeros(len(arrays))],
            h=h,
        )
    analytic = [np.array([np.sum(g * d) for g, d in zip(handed[0], directions)])]
    return max_relative_error(analytic, numeric)
