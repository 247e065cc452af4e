"""The graph-convolutional autoencoder and its three decoding heads.

Encoder: stacked Chebyshev graph convolutions (recursion Z1 = X, Z2 = Lhat X,
Zk = 2 Lhat Z_{k-1} - Z_{k-2}; output sum_k Zk Theta_k + bias), relu between
hidden layers, linear final layer. The first layer's input is constant, so
its recursion (the Chebyshev basis) is built once per graph and passed in.
Decoders: inner-product adjacency (sigmoid of the cell Gram matrix), a fully
connected count decoder up to its last hidden layer, whose three heads
(dropout, mean, dispersion) losses.loss_zinb multiplies out block by block
and activates, and a Student-t soft assignment against the cluster centers.
The encoder and the count decoder's MLP are each one closed-form node with
its gradient written out (the second encoder layer's chebconv_forward is one
too); the adjacency decoder and the soft assignment are plain numpy, and the
clustering criterion (losses.loss_cls) differentiates the assignment itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .cellgraph import CellGraph
from .numerics import Tensor, special

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


def chebyshev_basis(x, graph: CellGraph, order: int) -> list[np.ndarray]:
    """[x, Lhat x, 2 Lhat (Lhat x) - x, ...]: the first `order` terms of the
    Chebyshev recursion on x, the one recursion of both encoder layers. The
    first layer's input is constant: build its basis once per graph."""
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


def _weigh(basis: list[np.ndarray], thetas: list[np.ndarray], bias: np.ndarray) -> np.ndarray:
    """sum_k basis[k] theta_k + bias, added up in recursion order."""
    out = basis[0] @ thetas[0]
    for z, theta in zip(basis[1:], thetas[1:]):
        out += z @ theta
    out += bias
    return out


def _layer_backward(g, basis, thetas, lhat_t, want_input: bool):
    """The gradients of _weigh(chebyshev_basis(x), thetas, bias) under the
    upstream gradient g: x's (None unless `want_input`), then each theta_k's
    and the bias's. x's is carried down the recursion: with D_k the gradient
    of the k-th basis term, D_k = g theta_k^T - D_{k+2} + Lhat^T (2 D_{k+1}),
    without the factor 2 for k = 0. The terms are added in exactly this
    order: seeded runs depend on it bit for bit."""
    grads = [z.T @ g for z in basis] + [g.sum(axis=0)]
    if not want_input:
        return None, grads
    d1 = d2 = None  # the gradients of basis terms k + 1 and k + 2
    for k in reversed(range(len(basis))):
        d = g @ thetas[k].T
        if d2 is not None:
            d -= d2
        if d1 is not None:
            d += np.asarray(lhat_t @ (d1 * 2.0 if k else d1))
        d1, d2 = d, d1
    return d1, grads


def chebconv_forward(x, graph: CellGraph, layer: ChebLayerParams) -> Tensor:
    """One Chebyshev convolution of x on `graph`: a single node, gradients in
    x (when it requires them), every theta_k and the bias."""
    x = nm.as_tensor(x)
    if x.ndim != 2 or x.shape[1] != layer.theta[0].shape[0]:
        raise nm.ShapeMismatchError(
            f"chebconv: input of shape {x.shape} vs weight fan-in {layer.theta[0].shape[0]}"
        )
    basis = chebyshev_basis(x.values, graph, layer.order)
    thetas = [t.values for t in layer.theta]
    lhat_t, want_input = graph.scaled_laplacian.T, x.requires_grad

    def vjp(g):
        d_input, grads = _layer_backward(g, basis, thetas, lhat_t, want_input)
        return [d_input, *grads]

    return nm.closed_form(
        _weigh(basis, thetas, layer.bias.values), (x, *layer.theta, layer.bias), vjp
    )


def encode(basis: list[np.ndarray], graph: CellGraph, params: ModelParams) -> Tensor:
    """Stacked convolutions, relu between hidden layers, linear final layer:
    one node, gradients in every encoder weight and bias.

    `basis` is chebyshev_basis(x, graph, order) of the input x: the first
    layer only weights and sums it. Backward keeps each later layer's basis
    (its first term is the relu output, whose sign is the relu's mask).
    """
    layers = params.encoder_layers
    want = (graph.n, layers[0].theta[0].shape[0])
    shapes = {np.shape(z) for z in basis}
    if len(basis) != layers[0].order or shapes != {want}:
        raise nm.ShapeMismatchError(
            f"encode: basis of {len(basis)} terms shaped {sorted(shapes)} "
            f"vs {layers[0].order} terms of shape {want}"
        )
    thetas = [[t.values for t in layer.theta] for layer in layers]
    bases = [basis]
    h = _weigh(basis, thetas[0], layers[0].bias.values)
    for layer, layer_thetas in zip(layers[1:], thetas[1:]):
        bases.append(chebyshev_basis(np.maximum(h, 0.0), graph, layer.order))
        h = _weigh(bases[-1], layer_thetas, layer.bias.values)
    lhat_t = graph.scaled_laplacian.T

    def vjp(g):
        grads = []
        for i in reversed(range(len(layers))):
            d_input, layer_grads = _layer_backward(g, bases[i], thetas[i], lhat_t, i > 0)
            grads[:0] = layer_grads
            if i:
                g = d_input * (bases[i][0] > 0.0)
        return grads

    return nm.closed_form(h, [t for layer in layers for t in (*layer.theta, layer.bias)], vjp)


def decode_adjacency(z: np.ndarray) -> np.ndarray:
    """Entrywise sigmoid of the cell Gram matrix; symmetric by construction.

    Dense n x n, in plain numpy: training never forms it (losses.loss_rec
    works on row blocks of the same values); it is the reference that
    loss_rec is tested against.
    """
    z = np.asarray(z, dtype=np.float64)
    return special.sigmoid(z @ z.T)


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
    holds a NaN (infinities are left for the clamps).

    The MLP (relu after every layer) is one node with gradients in z and in
    every weight and bias; backward keeps each layer's input and output.
    With no hidden layers H is z itself."""
    z = nm.as_tensor(z)
    heads = (params.head_pi, params.head_mu, params.head_theta)
    if not params.zinb_fc:
        return CountHeads(z, heads)
    acts = [z.values]  # the input, then every layer's output
    weights = [w.values for w, _ in params.zinb_fc]
    for w, (_, b) in zip(weights, params.zinb_fc):
        a = acts[-1] @ w
        a += b.values
        acts.append(np.maximum(a, 0.0, out=a))

    def vjp(g):
        grads = []
        for k in reversed(range(len(weights))):
            g = g * (acts[k + 1] > 0.0)
            grads[:0] = [acts[k].T @ g, g.sum(axis=0)]
            g = g @ weights[k].T
        return [g, *grads]

    parents = [z, *(t for pair in params.zinb_fc for t in pair)]
    return CountHeads(nm.closed_form(acts[-1], parents, vjp), heads)


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
