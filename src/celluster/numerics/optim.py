"""Adam with bias correction, functional over lists of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float
    step: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns fresh parameter arrays.

    The moments in `state` are updated in place with `out=` ufuncs, and the
    temporaries share one scratch buffer sized to the largest parameter;
    the new parameters are computed in their own output arrays, so neither
    the inputs nor the state is aliased by what comes back. Every entry
    sees the same operations in the same order as the textbook form
    p - lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps).
    """
    if len(params) != len(grads):
        raise ShapeMismatchError(
            f"adam_step: {len(params)} params vs {len(grads)} grads"
        )
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p) for p in params]
        state.second_moment = [np.zeros_like(p) for p in params]
    for p, g, m in zip(params, grads, state.first_moment):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeMismatchError(
                f"adam_step: param shape {p.shape}, grad shape {g.shape}, moment shape {m.shape}"
            )

    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    correction1 = 1.0 - b1**t
    correction2 = 1.0 - b2**t

    scratch = np.empty(max((p.size for p in params), default=0))
    updated = []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        tmp = scratch[: p.size].reshape(p.shape)
        m *= b1  # m = b1 m + (1 - b1) g
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2  # v = b2 v + (1 - b2) g^2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.divide(v, correction2, out=tmp)  # sqrt(v_hat) + eps
        np.sqrt(tmp, out=tmp)
        tmp += EPSILON
        new = np.divide(m, correction1)  # lr * m_hat / (sqrt(v_hat) + eps)
        new *= state.learning_rate
        new /= tmp
        updated.append(np.subtract(p, new, out=new))
    return updated, state
