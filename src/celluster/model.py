"""The graph-convolutional autoencoder and its three decoding heads.

Encoder: stacked Chebyshev graph convolutions (recursion Z1 = X, Z2 = Lhat X,
Zk = 2 Lhat Z_{k-1} - Z_{k-2}; output sum_k Zk Theta_k + bias), relu between
hidden layers, linear final layer. The first layer's input is constant, so
its recursion (the Chebyshev basis) is built once per graph and passed in.
Decoders: inner-product adjacency (sigmoid of the cell Gram matrix), a fully
connected count decoder up to its last hidden layer, whose three heads
(dropout, mean, dispersion) losses.loss_zinb multiplies out block by block
and activates, and a Student-t soft assignment against the cluster centers,
in plain numpy: the tape records the encoder and the count decoder's MLP,
and the clustering criterion (losses.loss_cls) differentiates the
assignment in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .cellgraph import CellGraph
from .numerics import Tensor

ZINB_HIDDEN_DIMS = (128, 256, 512)

class NonFiniteOutputError(RuntimeError):
    pass


@dataclass
class ChebLayerParams:
    theta: list[Tensor]  # K matrices, each (in_dim, out_dim)
    bias: Tensor  # (out_dim,)

    @property
    def order(self) -> int:
        return len(self.theta)

    def __post_init__(self):
        if not self.theta:
            raise ValueError("a Chebyshev layer needs at least one weight matrix")
        shapes = {t.shape for t in self.theta}
        if len(shapes) != 1:
            raise ValueError(f"theta matrices disagree on shape: {sorted(shapes)}")


@dataclass
class ModelParams:
    encoder_layers: list[ChebLayerParams]
    zinb_fc: list[tuple[Tensor, Tensor]]  # (weight, bias) chain latent -> 128 -> 256 -> 512
    head_pi: Tensor  # (512, n_genes)
    head_mu: Tensor
    head_theta: Tensor
    cluster_centers: Tensor | None = None  # (n_clusters, latent_dim)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for i, layer in enumerate(self.encoder_layers):
            for k, theta in enumerate(layer.theta):
                named.append((f"enc{i}.theta{k}", theta))
            named.append((f"enc{i}.bias", layer.bias))
        for i, (w, b) in enumerate(self.zinb_fc):
            named.append((f"zinb_fc{i}.weight", w))
            named.append((f"zinb_fc{i}.bias", b))
        named.append(("head_pi.weight", self.head_pi))
        named.append(("head_mu.weight", self.head_mu))
        named.append(("head_theta.weight", self.head_theta))
        if self.cluster_centers is not None:
            named.append(("cluster_centers", self.cluster_centers))
        return named

    def with_centers(self, centers: np.ndarray) -> "ModelParams":
        return replace(self, cluster_centers=Tensor(centers, requires_grad=True))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_params(
    n_genes: int,
    latent_dim: int = 32,
    hidden_dim: int = 256,
    cheb_order: int = 3,
    zinb_dims: tuple[int, ...] = ZINB_HIDDEN_DIMS,
    seed: int = 0,
) -> ModelParams:
    """Uniform Glorot weights, zero biases, fixed draw order for the seed."""
    rng = np.random.default_rng(seed)
    layers = []
    for in_dim, out_dim in ((n_genes, hidden_dim), (hidden_dim, latent_dim)):
        theta = [
            Tensor(_glorot(rng, in_dim, out_dim), requires_grad=True)
            for _ in range(cheb_order)
        ]
        bias = Tensor(np.zeros(out_dim), requires_grad=True)
        layers.append(ChebLayerParams(theta=theta, bias=bias))
    fc = []
    in_dim = latent_dim
    for out_dim in zinb_dims:
        fc.append(
            (
                Tensor(_glorot(rng, in_dim, out_dim), requires_grad=True),
                Tensor(np.zeros(out_dim), requires_grad=True),
            )
        )
        in_dim = out_dim
    return ModelParams(
        encoder_layers=layers,
        zinb_fc=fc,
        head_pi=Tensor(_glorot(rng, in_dim, n_genes), requires_grad=True),
        head_mu=Tensor(_glorot(rng, in_dim, n_genes), requires_grad=True),
        head_theta=Tensor(_glorot(rng, in_dim, n_genes), requires_grad=True),
    )


def chebconv_forward(x: Tensor, graph: CellGraph, layer: ChebLayerParams) -> Tensor:
    x = nm.as_tensor(x)
    if x.shape[0] != graph.n:
        raise nm.ShapeMismatchError(
            f"chebconv: input has {x.shape[0]} rows for a graph of {graph.n} nodes"
        )
    if x.shape[1] != layer.theta[0].shape[0]:
        raise nm.ShapeMismatchError(
            f"chebconv: input width {x.shape[1]} vs weight fan-in {layer.theta[0].shape[0]}"
        )
    lhat = graph.scaled_laplacian
    z_prev_prev = x
    out = x @ layer.theta[0]
    if layer.order >= 2:
        z_prev = nm.const_matmul(lhat, x)
        out = out + z_prev @ layer.theta[1]
        for k in range(2, layer.order):
            z_next = 2.0 * nm.const_matmul(lhat, z_prev) - z_prev_prev
            out = out + z_next @ layer.theta[k]
            z_prev_prev, z_prev = z_prev, z_next
    return out + layer.bias


def chebyshev_basis(x, graph: CellGraph, order: int) -> list[np.ndarray]:
    """[x, Lhat x, 2 Lhat (Lhat x) - x, ...]: the first `order` terms of the
    Chebyshev recursion on a constant input, the same arrays that
    chebconv_forward forms from it. Build it once per graph and input."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != graph.n:
        raise nm.ShapeMismatchError(
            f"chebyshev_basis: input of shape {x.shape} for a graph of {graph.n} nodes"
        )
    lhat = graph.scaled_laplacian
    basis = [x]
    if order >= 2:
        basis.append(np.asarray(lhat @ x))
    for _ in range(2, order):
        basis.append(2.0 * np.asarray(lhat @ basis[-1]) - basis[-2])
    return basis


def encode(basis: list[np.ndarray], graph: CellGraph, params: ModelParams) -> Tensor:
    """Stacked convolutions, relu between hidden layers, linear final layer.

    `basis` is chebyshev_basis(x, graph, order) of the input x: the first
    layer only weights and sums it, and the tape holds no recursion for it.
    """
    first, *rest = params.encoder_layers
    want = (graph.n, first.theta[0].shape[0])
    shapes = {np.shape(z) for z in basis}
    if len(basis) != first.order or shapes != {want}:
        raise nm.ShapeMismatchError(
            f"encode: basis of {len(basis)} terms shaped {sorted(shapes)} "
            f"vs {first.order} terms of shape {want}"
        )
    h = nm.matmul(basis[0], first.theta[0])
    for z, theta in zip(basis[1:], first.theta[1:]):
        h = h + nm.matmul(z, theta)
    h = h + first.bias
    for layer in rest:
        h = chebconv_forward(nm.relu(h), graph, layer)
    return h


def decode_adjacency(z: Tensor) -> Tensor:
    """Entrywise sigmoid of the cell Gram matrix; symmetric by construction.

    Dense n x n: training never forms it (losses.loss_rec works on row
    blocks of the same values); it is the reference that loss_rec is
    tested against.
    """
    z = nm.as_tensor(z)
    return nm.sigmoid(z @ z.T)


@dataclass(frozen=True)
class CountHeads:
    """The count decoder short of its three heads: the last hidden layer H
    (n_cells, 512) and the head weights (512, n_genes each). The heads are
    H W_pi, H W_mu and H W_theta, the pre-activations logit pi, log mu and
    log theta; losses.loss_zinb forms them itself, one row block at a time."""

    hidden: Tensor
    weights: tuple[Tensor, Tensor, Tensor]  # pi, mu, theta


def decode_zinb(z: Tensor, params: ModelParams) -> CountHeads:
    """The count decoder's MLP on the latent, with the dropout, mean and
    dispersion head weights. No n_cells x n_genes head is multiplied out
    here: losses.loss_zinb does that block by block, applies the clamped
    sigmoid and exps, and raises NonFiniteOutputError naming a head that
    holds a NaN (infinities are left for the clamps)."""
    h = nm.as_tensor(z)
    for w, b in params.zinb_fc:
        h = nm.relu(h @ w + b)
    return CountHeads(h, (params.head_pi, params.head_mu, params.head_theta))


def student_t_kernel(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Student-t kernel (one degree of freedom) of every latent row against
    every center, unnormalized: 1 / (1 + ||z_i - mu_j||^2), (n_cells, n_clusters)."""
    if z.shape[1] != centers.shape[1]:
        raise nm.ShapeMismatchError(
            f"student_t_kernel: latent dim {z.shape[1]} vs center dim {centers.shape[1]}"
        )
    z_sq = (z * z).sum(axis=1, keepdims=True)  # (n, 1)
    c_sq = (centers * centers).sum(axis=1, keepdims=True).T  # (1, K)
    sq_dist = z_sq + c_sq - 2.0 * (z @ centers.T)
    return 1.0 / (1.0 + sq_dist)


def soft_assign(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The Student-t kernel against the centers, row-normalized:
    (n_cells, n_clusters), rows sum to 1. Plain arrays in and out; the
    clustering criterion (losses.loss_cls) forms the same values itself."""
    kernel = student_t_kernel(z, centers)
    return kernel / kernel.sum(axis=1, keepdims=True)
