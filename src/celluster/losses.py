"""The three training criteria and their bookkeeping.

Adjacency reconstruction is a squared Frobenius norm (a sum), the count
likelihood is a mean over entries so the criteria stay on comparable
scales, and the clustering term is the KL divergence summed over rows.
Each covers every node it is given: training on a node subset gathers
that sub-problem first. Each criterion returns (value, gradients): the
closed-form gradients are formed in the same pass, the latent's first;
the trainer weighs and sums them and writes the rest of the chain rule.
Reconstruction and the likelihood are formed in row blocks
(REC_ROW_BLOCK rows, and ZINB_BLOCK_ENTRIES count entries), so neither
holds its n x n or n x g intermediates. The likelihood takes the count
decoder as model.CountHeads, its one input form, and runs it itself, block
by block: the MLP from the latent rows to the last hidden layer, the three
heads and their activations, then the backward through both; it returns
only the gradients in the latent and in the decoder's weights and biases.
The clustering term takes the latent and the centers, forms the Student-t
assignment itself and returns the two gradients in them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics as nm
from .model import mlp_backward, mlp_forward, student_t_kernel
from .numerics import special

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


def loss_rec(adjacency, z) -> tuple[float, tuple[np.ndarray]]:
    """Squared Frobenius norm of A - sigmoid(Z Z^T), and (its gradient in Z,).

    Every `adjacency` (symmetric, dense or scipy sparse) is taken as
    canonical CSR, so duplicate entries add up as toarray() would. The
    reconstruction is formed REC_ROW_BLOCK rows at a time against the same
    rows of the adjacency, so no n x n array outlives a block and at most
    three block-sized arrays are live. No block is made dense: the residual
    subtracts at its stored entries only, which gives the bits that
    subtracting 0.0 elsewhere would. The gradient is dL/dZ = 4 ((S - A) * S * (1 - S)) Z, n x d.
    """
    zv = np.asarray(z, dtype=np.float64)
    if zv.ndim != 2 or adjacency.shape != (zv.shape[0], zv.shape[0]):
        raise nm.ShapeMismatchError(
            f"loss_rec: adjacency {adjacency.shape} vs latent {zv.shape}"
        )
    a = sp.csr_matrix(adjacency)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    total = 0.0
    dz = np.empty_like(zv)
    for start in range(0, zv.shape[0], REC_ROW_BLOCK):
        rows = slice(start, start + REC_ROW_BLOCK)
        s = zv[rows] @ zv.T
        special.sigmoid(s, out=s)
        r = s.copy()
        stored = a[rows].tocoo()
        r[stored.row, stored.col] -= stored.data
        s *= 1.0 - s
        s *= r
        dz[rows] = s @ zv
        r *= r
        total += float(r.sum())
    dz *= 4.0
    return total, (dz,)


ZINB_BLOCK_ENTRIES = 1 << 16  # count entries loss_zinb works on at once (whole rows)


def _activate(heads, entries):
    """The gathered entries' clamped activations (pi, mu, theta)."""
    a_pi, mu, theta = (h[entries] for h in heads)
    with np.errstate(over="ignore"):  # overflow lands on the clamp
        np.exp(mu, out=mu)
        np.exp(theta, out=theta)
    pi = np.clip(special.sigmoid(a_pi, out=a_pi), *PI_CLAMP, out=a_pi)
    return pi, np.clip(mu, *RATE_CLAMP, out=mu), np.clip(theta, *RATE_CLAMP, out=theta)


def _score_block(x, heads, scale):
    """The likelihood kernel on one block: `x` its counts and `heads` its
    three pre-activations, flat float64 arrays of one length. Returns the
    per-entry log-likelihoods in flat order, and the three per-entry
    gradients of `scale` times the log-likelihood in the pre-activations."""
    # Imported here, not at module top: scipy.special adds 50-70 ms to
    # `import celluster.cli`, which every command that does not train pays.
    from scipy.special import digamma, gammaln

    zero = np.flatnonzero(x == 0)  # indices: much faster to gather by than masks
    pos = np.flatnonzero(x != 0)
    loglik = np.empty(x.size)

    act0 = pi0, mu0, th0 = _activate(heads, zero)
    rate0 = th0 + mu0
    log_ratio0 = np.log(th0) - np.log(rate0)  # log(theta / (theta + mu))
    log_nb0 = th0 * log_ratio0
    log_nb_mass0 = np.log(1.0 - pi0) + log_nb0
    ll0 = loglik[zero] = np.logaddexp(np.log(pi0), log_nb_mass0)

    xp = x[pos]
    actp = pip, mup, thp = _activate(heads, pos)
    rate = thp + mup
    log_rate = np.log(rate)
    log_ratio = np.log(thp) - log_rate
    loglik[pos] = (
        np.log(1.0 - pip)
        + gammaln(xp + thp)
        - gammaln(xp + 1.0)
        - gammaln(thp)
        + thp * log_ratio
        + xp * (np.log(mup) - log_rate)
    )

    # d nll / d (pi, mu, theta) per gathered entry: d loglik times scale
    w_nb = np.exp(log_nb_mass0 - ll0)  # share of the NB part in P(x = 0)
    grads = tuple(np.empty(x.size) for _ in range(3))
    for entries, (pi, mu, theta), derivs in (
        (zero, act0, (
            -np.expm1(log_nb0) * np.exp(-ll0),
            -w_nb * th0 / rate0,
            w_nb * (log_ratio0 + mu0 / rate0),
        )),
        (pos, actp, (
            -1.0 / (1.0 - pip),
            xp / mup - (thp + xp) / rate,
            digamma(xp + thp) - digamma(thp) + log_ratio + (mup - xp) / rate,
        )),
    ):
        d_pi, d_mu, d_theta = (dk * scale for dk in derivs)
        # clip passes a gradient only where lo < v < hi, which is where
        # lo < clip(v) < hi; there sigmoid' = pi (1 - pi) and exp' = exp
        grads[0][entries] = d_pi * ((pi > PI_CLAMP[0]) & (pi < PI_CLAMP[1])) * pi * (1.0 - pi)
        for o, d, e in ((grads[1], d_mu, mu), (grads[2], d_theta, theta)):
            o[entries] = np.where((e > RATE_CLAMP[0]) & (e < RATE_CLAMP[1]), d * e, 0.0)
    return loglik, grads


def loss_zinb(raw_counts, heads, count_rows=None) -> tuple[float, list[np.ndarray]]:
    """Mean negative log-likelihood of the zero-inflated negative binomial,
    and its gradients.

    `heads` is decode_zinb's CountHeads. The gradients are the latent's,
    then each MLP layer's weight and bias, then the three head weights (pi,
    mu, theta). The likelihood is computed in log space: a zero count
    scores logaddexp(log pi, log(1-pi) + log NB(0)) with log NB(0) = theta
    log(theta/(theta+mu)); a positive count scores log(1-pi) plus the log
    NB pmf. The matrix is worked through in blocks of whole rows, about
    ZINB_BLOCK_ENTRIES entries each, and one kernel scores every block:
    within a block the zero and positive entries are gathered apart and
    only they are activated: pi = clip(sigmoid, PI_CLAMP), mu and theta =
    clip(exp, RATE_CLAMP), so the gamma-function terms only ever see
    positive counts. The gradient chain is the one the separate
    sigmoid/exp/clip ops would give, so it is exactly 0 wherever a clamp
    binds. All gradients are formed during the forward pass. With
    `count_rows`, the counts are raw_counts[count_rows]: each block gathers
    its rows where it converts them to float64, so no copy of the selected
    counts is made.

    Each block writes the sum of each of its rows, taken in gene order,
    into one n-vector, and the mean is that vector's sum over the entries:
    the same values added in the same order whatever the block size. Each
    block runs the decoder MLP on its latent rows z_b up to the last hidden
    layer H_b, multiplies H_b by the three head weights (a NaN raises
    NonFiniteLossError naming its head), and after scoring folds its
    per-entry gradients G_k into dW_k += H_b^T G_k and dH_b = sum_k G_k
    W_k^T, which it carries back through the MLP into dz_b and the MLP's
    weight and bias gradients (summed over the blocks). Only dz (n x d) and
    the parameter gradients are returned; no activation, head or dH
    outlives its block. With the matrix as one block the result is bitwise
    the dense reference's: the MLP run over every row at once
    (tests/gradcheck.py's dense_hidden) times the head weights.
    """
    counts = np.asarray(raw_counts)
    if count_rows is not None:
        count_rows = np.asarray(count_rows, dtype=np.intp)
    latent, layers, weights = heads.latent, heads.layers, heads.weights
    head_shapes = [(latent.shape[0], w.shape[1]) for w in weights]
    shape = counts.shape if count_rows is None else (count_rows.size, *counts.shape[1:])
    if counts.ndim != 2 or len(head_shapes) != 3 or any(s != shape for s in head_shapes):
        raise nm.ShapeMismatchError(f"loss_zinb: counts {shape} vs heads {head_shapes}")
    n, g = shape
    size = n * g
    step = max(1, ZINB_BLOCK_ENTRIES // max(1, g))  # rows per block
    scale = -1.0 / size
    # dz, then the MLP's weight and bias gradients, then the three dW
    grads = [np.empty_like(latent)] + [None] * (2 * len(layers) + 3)
    row_sums = np.empty(n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        acts = mlp_forward(latent[rows], layers)
        h_b = acts[-1]
        blocks = [h_b @ w for w in weights]
        for name, b in zip(("pi", "mu", "theta"), blocks):
            if np.isnan(b).any():
                raise NonFiniteLossError(f"non-finite values in the {name} head")
        x_rows = rows if count_rows is None else count_rows[rows]
        x = np.asarray(counts[x_rows], dtype=np.float64).reshape(-1)
        loglik, g_b = _score_block(x, [b.reshape(-1) for b in blocks], scale)
        row_sums[rows] = loglik.reshape(blocks[0].shape).sum(axis=1)
        g_b = [gk.reshape(blocks[0].shape) for gk in g_b]
        # dH summed over the heads in pi, mu, theta order, in place: fresh
        # sums made the criterion 5-14% slower at 80-300 cells
        d_h = g_b[0] @ weights[0].T
        d_h += g_b[1] @ weights[1].T
        d_h += g_b[2] @ weights[2].T
        grads[0][rows], block_grads = mlp_backward(d_h, acts, layers)
        block_grads += (h_b.T @ gk for gk in g_b)
        for k, d in enumerate(block_grads, start=1):
            if start == 0:
                grads[k] = d
            else:
                grads[k] += d
        # free this block's arrays before the next block forms its own
        del acts, h_b, blocks, x, loglik, g_b, d_h, block_grads, d

    nll = float(-row_sums.sum() / size)
    if not np.isfinite(nll):
        raise NonFiniteLossError("zero-inflated likelihood is non-finite")
    return nll, grads


def target_distribution(q: np.ndarray) -> np.ndarray:
    """Sharpened self-training target: p_ij propto q_ij^2 / column mass.

    Pure numpy; no gradient ever flows through the target.
    """
    weight = q**2 / q.sum(axis=0)
    return weight / weight.sum(axis=1, keepdims=True)


def loss_cls(target, z, centers) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """KL(P || Q) summed over rows, 0*log(0) treated as 0, where Q is the
    soft assignment of the latent `z` against `centers` (model.soft_assign),
    and its gradients in z and in the centers.

    The gradients are DEC's closed form (Xie et al., 2016, eqs. 4-5):
    with K the Student-t kernel, r_i = sum_j p_ij and G = 2 K * (P - r Q),
    dL/dz = rowsum(G) z - G C and dL/dC = colsum(G) C - G^T z. Keeping r
    makes it exact for any non-negative target; the trainer's rows sum to
    1. The target is a constant: no gradient reaches it.
    """
    p = np.asarray(target, dtype=np.float64)
    zv, cv = np.asarray(z, dtype=np.float64), np.asarray(centers, dtype=np.float64)
    kernel = student_t_kernel(zv, cv)
    if p.shape != kernel.shape:
        raise nm.ShapeMismatchError(f"loss_cls: target {p.shape} vs assignment {kernel.shape}")
    q = kernel / kernel.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_log_p = float(np.sum(np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)))
    value = float(p_log_p - (p * np.log(q)).sum())
    g = 2.0 * kernel * (p - p.sum(axis=1, keepdims=True) * q)
    dz = g.sum(axis=1, keepdims=True) * zv - g @ cv
    return value, (dz, g.sum(axis=0)[:, None] * cv - g.T @ zv)
