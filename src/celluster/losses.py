"""The three training criteria and their bookkeeping.

Adjacency reconstruction is a squared Frobenius norm (a sum), the count
likelihood is a mean over entries so the criteria stay on comparable
scales, and the clustering term is the KL divergence summed over rows.
Each covers every node it is given: training on a node subset gathers
that sub-problem first. Reconstruction and the likelihood (with the
count heads' activations) are single autodiff nodes with closed-form
gradients, each formed in row blocks (REC_ROW_BLOCK rows, and
ZINB_BLOCK_ENTRIES count entries): the tape never holds their n x n
intermediates, and of the likelihood's n x g ones only the three
gradients in the heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics as nm
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


def loss_zinb(raw_counts, heads) -> Tensor:
    """Mean negative log-likelihood of the zero-inflated negative binomial.

    `heads` are decode_zinb's three pre-activations (logit pi, log mu,
    log theta). One node with a closed-form gradient in them, computed in
    log space: a zero count scores logaddexp(log pi, log(1-pi) + log NB(0))
    with log NB(0) = theta log(theta/(theta+mu)); a positive count scores
    log(1-pi) plus the log NB pmf. The matrix is worked through in blocks
    of whole rows, about ZINB_BLOCK_ENTRIES entries each, so no per-entry
    intermediate outlives its block. Within a block the zero and positive
    entries are gathered apart and only they are activated: pi =
    clip(sigmoid, PI_CLAMP), mu and theta = clip(exp, RATE_CLAMP), so the
    gamma-function terms only ever see positive counts. The gradient chain
    is the one the separate sigmoid/exp/clip ops would give, so it is
    exactly 0 wherever a clamp binds. Each block's log-likelihood values
    land in flat order in one array per branch, so the mean adds the same
    values in the same order whatever the block size. The node keeps only
    the three gradients with respect to the heads, taken at upstream
    gradient 1 (their n x g arrays, filled block by block), never the
    heads, activations or derivatives.
    """
    # Imported here, not at module top: scipy.special adds 50-70 ms to
    # `import celluster.cli`, which every command that does not train pays.
    from scipy.special import digamma, gammaln

    x = np.asarray(raw_counts, dtype=np.float64)
    heads = tuple(nm.as_tensor(t) for t in heads)
    if len(heads) != 3 or any(t.shape != x.shape for t in heads):
        raise nm.ShapeMismatchError(
            f"loss_zinb: counts {x.shape} vs heads {[t.shape for t in heads]}"
        )
    shape, size = x.shape, x.size
    row = max(1, shape[-1]) if shape else 1
    step = max(1, ZINB_BLOCK_ENTRIES // row) * row
    x = x.reshape(-1)
    flat = tuple(t.values.reshape(-1) for t in heads)
    n_pos = np.count_nonzero(x)
    loglik0, loglik = np.empty(size - n_pos), np.empty(n_pos)  # zero / positive counts
    grads = (
        tuple(np.empty(size) for _ in range(3))
        if any(t.requires_grad for t in heads) else None
    )
    at0 = atp = 0  # where the block's values go in loglik0 / loglik
    for start in range(0, size, step):
        block = slice(start, start + step)
        xb = x[block]
        zero = np.flatnonzero(xb == 0)  # indices: much faster to gather by than masks
        pos = np.flatnonzero(xb != 0)
        hb = tuple(h[block] for h in flat)

        act0, (pi0, mu0, th0) = _activate(hb, zero)
        log_ratio0 = np.log(th0) - np.log(th0 + mu0)  # log(theta / (theta + mu))
        log_nb0 = th0 * log_ratio0
        log_nb_mass0 = np.log(1.0 - pi0) + log_nb0
        ll0 = loglik0[at0:at0 + zero.size]
        np.logaddexp(np.log(pi0), log_nb_mass0, out=ll0)
        at0 += zero.size

        xp = xb[pos]
        actp, (pip, mup, thp) = _activate(hb, pos)
        log_rate = np.log(thp + mup)
        log_ratio = np.log(thp) - log_rate
        llp = loglik[atp:atp + pos.size]
        llp[...] = (
            np.log(1.0 - pip)
            + gammaln(xp + thp)
            - gammaln(xp + 1.0)
            - gammaln(thp)
            + thp * log_ratio
            + xp * (np.log(mup) - log_rate)
        )
        atp += pos.size
        if grads is None:
            continue

        # d nll / d (pi, mu, theta) per gathered entry: d loglik times -1/size
        scale = -1.0 / size
        w_nb = np.exp(log_nb_mass0 - ll0)  # share of the NB part in P(x = 0)
        rate = thp + mup
        out = tuple(o[block] for o in grads)
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
            out[0][entries] = gk * s * (1.0 - s)
            for o, dk, e in ((out[1], d_mu, e_mu), (out[2], d_theta, e_theta)):
                gk = dk * ((e > RATE_CLAMP[0]) & (e < RATE_CLAMP[1]))
                # exp' = exp; a zero gradient stays 0 where exp overflowed (0 * inf)
                with np.errstate(invalid="ignore"):
                    o[entries] = np.where(gk == 0.0, 0.0, gk * e)

    nll = -(loglik0.sum() + loglik.sum()) / x.size
    if not np.isfinite(nll):
        raise NonFiniteLossError("zero-inflated likelihood is non-finite")
    if grads is None:
        return nm.Tensor(nll)
    grads = tuple(o.reshape(shape) for o in grads)

    def vjp(g):
        # every default run weighs the likelihood by 1: no copy, same bits
        return grads if g == 1.0 else tuple(g * o for o in grads)

    return nm.closed_form(nll, heads, vjp)


def target_distribution(q) -> np.ndarray:
    """Sharpened self-training target: p_ij propto q_ij^2 / column mass.

    Pure numpy; no gradient ever flows through the target.
    """
    q = nm.as_tensor(q).values
    weight = q**2 / q.sum(axis=0)
    return weight / weight.sum(axis=1, keepdims=True)


def loss_cls(p, q) -> Tensor:
    """KL(P || Q) summed over rows, 0*log(0) treated as 0; gradient reaches
    only the soft assignment."""
    q = nm.as_tensor(q)
    p = np.asarray(p, dtype=np.float64)
    if p.shape != q.shape:
        raise nm.ShapeMismatchError(f"loss_cls: target {p.shape} vs assignment {q.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        p_log_p = float(np.sum(np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)))
    cross = (nm.as_tensor(p) * nm.log(q)).sum()
    return p_log_p - cross


def weighted_total(
    rec: Tensor,
    zinb: Tensor,
    cls: Tensor | None,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[Tensor, LossBreakdown]:
    """Weighted objective plus a float breakdown whose total matches the
    optimized scalar exactly (same additions, same order); a missing `cls`
    (pretraining) counts as 0."""
    w_rec, w_zinb, w_cls = weights
    rec_term = w_rec * rec
    zinb_term = w_zinb * zinb
    cls_term = w_cls * cls if cls is not None else nm.Tensor(0.0)
    total = rec_term + zinb_term + cls_term
    breakdown = LossBreakdown(
        rec=float(rec_term.values), zinb=float(zinb_term.values), cls=float(cls_term.values)
    )
    return total, breakdown
