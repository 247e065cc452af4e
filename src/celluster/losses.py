"""The three training criteria and their bookkeeping.

Adjacency reconstruction is a squared Frobenius norm (a sum), the count
likelihood is a mean over entries so the criteria stay on comparable
scales, and the clustering term is the KL divergence summed over rows.
Each covers every node it is given: training on a node subset gathers
that sub-problem first. Reconstruction and the likelihood are single
autodiff nodes with closed-form gradients, so the tape never holds their
n x n or n x g intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics as nm
from .model import ZinbParams
from .numerics import Tensor, special


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


def loss_zinb(raw_counts, params: ZinbParams) -> Tensor:
    """Mean negative log-likelihood of the zero-inflated negative binomial.

    One node with a closed-form gradient in pi, mu and theta, computed in
    log space: a zero count scores logaddexp(log pi, log(1-pi) + log NB(0))
    with log NB(0) = theta log(theta/(theta+mu)); a positive count scores
    log(1-pi) plus the log NB pmf. The zero and positive entries are
    gathered apart, so the gamma-function terms only ever see positive counts.
    """
    # Imported here, not at module top: scipy.special adds 50-70 ms to
    # `import celluster.cli`, which every command that does not train pays.
    from scipy.special import digamma, gammaln

    x = np.asarray(raw_counts, dtype=np.float64)
    pi_t, mu_t, theta_t = (nm.as_tensor(t) for t in (params.pi, params.mu, params.theta))
    if x.shape != pi_t.shape:
        raise nm.ShapeMismatchError(
            f"loss_zinb: counts {x.shape} vs parameter matrices {pi_t.shape}"
        )
    x, pi, mu, theta = (a.reshape(-1) for a in (x, pi_t.values, mu_t.values, theta_t.values))
    zero = np.flatnonzero(x == 0)
    pos = np.flatnonzero(x != 0)

    pi0, mu0, th0 = pi[zero], mu[zero], theta[zero]
    log_ratio0 = np.log(th0) - np.log(th0 + mu0)  # log(theta / (theta + mu))
    log_nb0 = th0 * log_ratio0
    log_nb_mass0 = np.log(1.0 - pi0) + log_nb0
    loglik0 = np.logaddexp(np.log(pi0), log_nb_mass0)

    xp, pip, mup, thp = x[pos], pi[pos], mu[pos], theta[pos]
    log_rate = np.log(thp + mup)
    log_ratio = np.log(thp) - log_rate
    loglik = (
        np.log(1.0 - pip)
        + gammaln(xp + thp)
        - gammaln(xp + 1.0)
        - gammaln(thp)
        + thp * log_ratio
        + xp * (np.log(mup) - log_rate)
    )
    nll = -(loglik0.sum() + loglik.sum()) / x.size
    if not np.isfinite(nll):
        raise NonFiniteLossError("zero-inflated likelihood is non-finite")

    grads = None
    if pi_t.requires_grad or mu_t.requires_grad or theta_t.requires_grad:
        # rows: d loglik / d pi, mu, theta per entry
        d = np.empty((3, x.size))
        w_nb = np.exp(log_nb_mass0 - loglik0)  # share of the NB part in P(x = 0)
        d[0, zero] = -np.expm1(log_nb0) * np.exp(-loglik0)
        d[1, zero] = -w_nb * th0 / (th0 + mu0)
        d[2, zero] = w_nb * (log_ratio0 + mu0 / (th0 + mu0))
        rate = thp + mup
        d[0, pos] = -1.0 / (1.0 - pip)
        d[1, pos] = xp / mup - (thp + xp) / rate
        d[2, pos] = digamma(xp + thp) - digamma(thp) + log_ratio + (mup - xp) / rate
        d *= -1.0 / x.size  # d nll / d loglik
        grads = d.reshape(3, *pi_t.shape)

    def vjp(g):
        return [g * grad for grad in grads]

    return nm.closed_form(nll, (pi_t, mu_t, theta_t), vjp)


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
