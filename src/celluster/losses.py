"""The three training criteria and their bookkeeping.

Adjacency reconstruction is a squared Frobenius norm (a sum), the count
likelihood is a mean over entries so the criteria stay on comparable
scales, and the clustering term is the KL divergence summed over rows.
Each covers every node it is given: training on a node subset gathers
that sub-problem first. Each criterion is a single tape node with a
closed-form gradient, and so is their weighted sum (weighted_total), the
scalar the trainer calls backward on. Reconstruction and the likelihood
are formed in row blocks (REC_ROW_BLOCK rows, and ZINB_BLOCK_ENTRIES count
entries), so the tape never holds their n x n or n x g intermediates. The
likelihood forms the count heads itself from the decoder's last hidden
layer, block by block, with their activations, and keeps only the
gradients in that layer and in the three head weights. The clustering term
takes the latent and the centers, forms the Student-t assignment itself
and keeps only the two gradients in them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics as nm
from .model import CountHeads, NonFiniteOutputError, student_t_kernel
from .numerics import Tensor, special

PI_CLAMP = (1e-10, 1.0 - 1e-10)  # where loss_zinb holds sigmoid(pi logit)
RATE_CLAMP = (1e-10, 1e10)  # ... and exp(log mu), exp(log theta)


class NonFiniteLossError(RuntimeError):
    def __init__(self, message: str, epoch: int | None = None, state=None):
        self.epoch = epoch
        self.state = state
        super().__init__(message)


@dataclass(frozen=True)
class LossBreakdown:
    rec: float
    zinb: float
    cls: float

    @property
    def total(self) -> float:
        return self.rec + self.zinb + self.cls

    def as_row(self) -> list[float]:
        return [self.rec, self.zinb, self.cls, self.total]


REC_ROW_BLOCK = 256  # rows of sigmoid(Z Z^T) that loss_rec holds at once


def loss_rec(adjacency, z) -> Tensor:
    """Squared Frobenius norm of A - sigmoid(Z Z^T).

    One node with a closed-form gradient. The reconstruction is formed
    REC_ROW_BLOCK rows at a time against the same rows of `adjacency`
    (symmetric, dense or scipy sparse), so no n x n array outlives a block;
    backward keeps only dL/dZ = 4 ((S - A) * S * (1 - S)) Z, which is n x d.
    """
    z = nm.as_tensor(z)
    if z.ndim != 2 or adjacency.shape != (z.shape[0], z.shape[0]):
        raise nm.ShapeMismatchError(
            f"loss_rec: adjacency {adjacency.shape} vs latent {z.shape}"
        )
    a = adjacency if sp.issparse(adjacency) else np.asarray(adjacency, dtype=np.float64)
    zv = z.values
    total = 0.0
    dz = np.empty_like(zv) if z.requires_grad else None
    for start in range(0, zv.shape[0], REC_ROW_BLOCK):
        rows = slice(start, start + REC_ROW_BLOCK)
        a_rows = a[rows].toarray() if sp.issparse(a) else a[rows]
        s = special.sigmoid(zv[rows] @ zv.T)
        r = s - a_rows
        if dz is not None:
            s *= 1.0 - s
            s *= r
            dz[rows] = s @ zv
        r *= r
        total += float(r.sum())
    if dz is not None:
        dz *= 4.0

    def vjp(g):
        return (g * dz,)

    return nm.closed_form(total, (z,), vjp)


ZINB_BLOCK_ENTRIES = 1 << 16  # count entries loss_zinb works on at once (whole rows)


def _clamp(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`a` itself when every entry lies in (lo, hi), else a clamped copy
    (the same values np.clip gives; a NaN stays NaN)."""
    if a.size == 0 or (lo < a.min() and a.max() < hi):
        return a
    return np.minimum(np.maximum(a, lo), hi)


def _activate(heads, entries):
    """The gathered entries' activations, unclamped (their gradient masks
    come from these) and clamped (the likelihood reads these)."""
    a_pi, e_mu, e_theta = (h[entries] for h in heads)
    s = special.sigmoid(a_pi)
    with np.errstate(over="ignore"):  # overflow lands on the clamp
        np.exp(e_mu, out=e_mu)
        np.exp(e_theta, out=e_theta)
    unclamped = (s, e_mu, e_theta)
    clamped = (_clamp(s, *PI_CLAMP), _clamp(e_mu, *RATE_CLAMP), _clamp(e_theta, *RATE_CLAMP))
    return unclamped, clamped


def _score_block(x, heads, scale, want_grad):
    """The likelihood kernel on one block: `x` its counts and `heads` its
    three pre-activations, flat float64 arrays of one length. Returns the
    log-likelihoods of the zero counts and of the positive counts, each in
    flat order, and, with `want_grad`, the three per-entry gradients of
    `scale` times the log-likelihood in the pre-activations."""
    # Imported here, not at module top: scipy.special adds 50-70 ms to
    # `import celluster.cli`, which every command that does not train pays.
    from scipy.special import digamma, gammaln

    zero = np.flatnonzero(x == 0)  # indices: much faster to gather by than masks
    pos = np.flatnonzero(x != 0)

    act0, (pi0, mu0, th0) = _activate(heads, zero)
    log_ratio0 = np.log(th0) - np.log(th0 + mu0)  # log(theta / (theta + mu))
    log_nb0 = th0 * log_ratio0
    log_nb_mass0 = np.log(1.0 - pi0) + log_nb0
    ll0 = np.logaddexp(np.log(pi0), log_nb_mass0)

    xp = x[pos]
    actp, (pip, mup, thp) = _activate(heads, pos)
    log_rate = np.log(thp + mup)
    log_ratio = np.log(thp) - log_rate
    llp = (
        np.log(1.0 - pip)
        + gammaln(xp + thp)
        - gammaln(xp + 1.0)
        - gammaln(thp)
        + thp * log_ratio
        + xp * (np.log(mup) - log_rate)
    )
    if not want_grad:
        return ll0, llp, None

    # d nll / d (pi, mu, theta) per gathered entry: d loglik times scale
    w_nb = np.exp(log_nb_mass0 - ll0)  # share of the NB part in P(x = 0)
    rate = thp + mup
    grads = tuple(np.empty(x.size) for _ in range(3))
    for entries, (s, e_mu, e_theta), derivs in (
        (zero, act0, (
            -np.expm1(log_nb0) * np.exp(-ll0),
            -w_nb * th0 / (th0 + mu0),
            w_nb * (log_ratio0 + mu0 / (th0 + mu0)),
        )),
        (pos, actp, (
            -1.0 / (1.0 - pip),
            xp / mup - (thp + xp) / rate,
            digamma(xp + thp) - digamma(thp) + log_ratio + (mup - xp) / rate,
        )),
    ):
        d_pi, d_mu, d_theta = (dk * scale for dk in derivs)
        # clip passes a gradient only inside its bounds; then sigmoid' = s (1 - s)
        gk = d_pi * ((s > PI_CLAMP[0]) & (s < PI_CLAMP[1]))
        grads[0][entries] = gk * s * (1.0 - s)
        for o, dk, e in ((grads[1], d_mu, e_mu), (grads[2], d_theta, e_theta)):
            gk = dk * ((e > RATE_CLAMP[0]) & (e < RATE_CLAMP[1]))
            # exp' = exp; a zero gradient stays 0 where exp overflowed (0 * inf)
            with np.errstate(invalid="ignore"):
                o[entries] = np.where(gk == 0.0, 0.0, gk * e)
    return ll0, llp, grads


def loss_zinb(raw_counts, heads) -> Tensor:
    """Mean negative log-likelihood of the zero-inflated negative binomial.

    `heads` is decode_zinb's CountHeads (the training path), or the three
    heads multiplied out: the pre-activations logit pi, log mu and log
    theta, each shaped like the counts (the dense reference). One node with
    a closed-form gradient, computed in log space: a zero count scores
    logaddexp(log pi, log(1-pi) + log NB(0)) with log NB(0) = theta
    log(theta/(theta+mu)); a positive count scores log(1-pi) plus the log NB
    pmf. The matrix is worked through in blocks of whole rows, about
    ZINB_BLOCK_ENTRIES entries each, and one kernel scores every block:
    within a block the zero and positive entries are gathered apart and
    only they are activated: pi = clip(sigmoid, PI_CLAMP), mu and theta =
    clip(exp, RATE_CLAMP), so the gamma-function terms only ever see
    positive counts. The gradient chain is the one the separate
    sigmoid/exp/clip ops would give, so it is exactly 0 wherever a clamp
    binds. All gradients are taken at upstream gradient 1 during the
    forward pass.

    From CountHeads, each block multiplies its rows of the hidden layer H by
    the three head weights (a NaN raises NonFiniteOutputError naming its
    head), converts its counts to float64, and folds its per-entry
    gradients G_k into dW_k += H_b^T G_k and dH_b = sum_k G_k W_k^T. The
    node keeps only dH (n x 512) and the three dW (512 x g); no count-sized
    array outlives its block, and the mean adds the blocks' sums. From dense
    heads, the node keeps the three n x g head gradients, and each block's
    log-likelihoods land in flat order in one array per branch, so the mean
    adds the same values in the same order whatever the block size. The two
    agree bitwise when the matrix is one block.
    """
    counts = np.asarray(raw_counts)
    factored = isinstance(heads, CountHeads)
    if factored:
        parents = (heads.hidden, *heads.weights)
        hidden, weights = heads.hidden.values, [w.values for w in heads.weights]
        head_shapes = [(hidden.shape[0], w.shape[1]) for w in weights]
    else:
        parents = tuple(nm.as_tensor(t) for t in heads)
        head_shapes = [t.shape for t in parents]
    if counts.ndim != 2 or len(head_shapes) != 3 or any(s != counts.shape for s in head_shapes):
        raise nm.ShapeMismatchError(f"loss_zinb: counts {counts.shape} vs heads {head_shapes}")
    n, g = counts.shape
    step = max(1, ZINB_BLOCK_ENTRIES // max(1, g))  # rows per block
    scale = -1.0 / counts.size
    want_grad = any(t.requires_grad for t in parents)
    if factored:
        sum0 = sump = 0.0  # over the zero / positive counts
        if want_grad:
            d_hidden, d_weights = np.empty_like(hidden), [None, None, None]
    else:
        n_pos = np.count_nonzero(counts)
        loglik0, loglik = np.empty(counts.size - n_pos), np.empty(n_pos)
        at0 = atp = 0  # where the block's values go in loglik0 / loglik
        if want_grad:
            grads = tuple(np.empty(counts.shape) for _ in range(3))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        if factored:
            h_b = hidden[rows]
            blocks = [h_b @ w for w in weights]
            for name, b in zip(("pi", "mu", "theta"), blocks):
                if np.isnan(b).any():
                    raise NonFiniteOutputError(f"non-finite values in the {name} head")
        else:
            blocks = [t.values[rows] for t in parents]
        x = np.asarray(counts[rows], dtype=np.float64).reshape(-1)
        ll0, llp, g_b = _score_block(x, [b.reshape(-1) for b in blocks], scale, want_grad)
        if factored:
            sum0 += ll0.sum()
            sump += llp.sum()
        else:
            loglik0[at0:at0 + ll0.size] = ll0
            loglik[atp:atp + llp.size] = llp
            at0, atp = at0 + ll0.size, atp + llp.size
        if not want_grad:
            continue
        g_b = [gk.reshape(blocks[0].shape) for gk in g_b]
        if factored:
            # dH in the order the tape sums the heads' gradients into H; in
            # place, since fresh sums and zero-filled dW made the criterion
            # 5-14% slower at 80-300 cells
            d_h = np.matmul(g_b[0], weights[0].T, out=d_hidden[rows])
            d_h += g_b[1] @ weights[1].T
            d_h += g_b[2] @ weights[2].T
            for k, gk in enumerate(g_b):
                if start == 0:
                    d_weights[k] = h_b.T @ gk
                else:
                    d_weights[k] += h_b.T @ gk
        else:
            for o, gk in zip(grads, g_b):
                o[rows] = gk

    nll = -(sum0 + sump if factored else loglik0.sum() + loglik.sum()) / counts.size
    if not np.isfinite(nll):
        raise NonFiniteLossError("zero-inflated likelihood is non-finite")
    if not want_grad:
        return nm.Tensor(nll)
    if factored:
        grads = (d_hidden, *d_weights)

    def vjp(u):
        # every default run weighs the likelihood by 1: no copy, same bits
        return grads if u == 1.0 else tuple(u * o for o in grads)

    return nm.closed_form(nll, parents, vjp)


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened self-training target: p_ij propto q_ij^2 / column mass.

    Pure numpy; no gradient ever flows through the target.
    """
    weight = q**2 / q.sum(axis=0)
    return weight / weight.sum(axis=1, keepdims=True)


def loss_cls(target, z, centers) -> Tensor:
    """KL(P || Q) summed over rows, 0*log(0) treated as 0, where Q is the
    soft assignment of the latent `z` against `centers` (model.soft_assign).

    One node with DEC's closed-form gradient (Xie et al., 2016, eqs. 4-5):
    with K the Student-t kernel, r_i = sum_j p_ij and G = 2 K * (P - r Q),
    dL/dz = rowsum(G) z - G C and dL/dC = colsum(G) C - G^T z. Keeping r
    makes it exact for any non-negative target; the trainer's rows sum to
    1. Backward keeps only the two gradients (n x d and K x d); no gradient
    reaches the target.
    """
    z, centers = nm.as_tensor(z), nm.as_tensor(centers)
    p = np.asarray(target, dtype=np.float64)
    zv, cv = z.values, centers.values
    kernel = student_t_kernel(zv, cv)
    if p.shape != kernel.shape:
        raise nm.ShapeMismatchError(f"loss_cls: target {p.shape} vs assignment {kernel.shape}")
    q = kernel / kernel.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_log_p = float(np.sum(np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)))
    value = p_log_p - (p * np.log(q)).sum()
    grads = None
    if z.requires_grad or centers.requires_grad:
        g = 2.0 * kernel * (p - p.sum(axis=1, keepdims=True) * q)
        grads = (
            g.sum(axis=1, keepdims=True) * zv - g @ cv,
            g.sum(axis=0)[:, None] * cv - g.T @ zv,
        )

    def vjp(u):
        return tuple(u * d for d in grads)

    return nm.closed_form(value, (z, centers), vjp)


def weighted_total(
    rec: Tensor,
    zinb: Tensor,
    cls: Tensor | None,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[Tensor, LossBreakdown]:
    """Weighted objective, one node, plus a float breakdown whose total
    matches the optimized scalar exactly (same additions, same order); a
    missing `cls` (pretraining) counts as 0 and gets no gradient."""
    w_rec, w_zinb, w_cls = weights
    rec_term = w_rec * rec.values
    zinb_term = w_zinb * zinb.values
    cls_term = w_cls * cls.values if cls is not None else 0.0
    total = rec_term + zinb_term + cls_term
    breakdown = LossBreakdown(rec=float(rec_term), zinb=float(zinb_term), cls=float(cls_term))

    def vjp(g):  # a missing cls has no parent: the third gradient goes nowhere
        return g * w_rec, g * w_zinb, g * w_cls

    parents = (rec, zinb) if cls is None else (rec, zinb, cls)
    return nm.closed_form(total, parents, vjp), breakdown
