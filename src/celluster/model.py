"""The graph-convolutional autoencoder and its three decoding heads.

Encoder: stacked Chebyshev graph convolutions (recursion Z1 = X, Z2 = Lhat X,
Zk = 2 Lhat Z_{k-1} - Z_{k-2}; output sum_k Zk Theta_k + bias), relu between
hidden layers, linear final layer. The first layer's input is constant, so
its recursion (the Chebyshev basis) is built once per graph and passed in.
Decoders: inner-product adjacency (sigmoid of the cell Gram matrix), a fully
connected count decoder with three heads (dropout, mean, dispersion), and a
Student-t soft assignment against the cluster centers. Parameters are
plain float64 arrays in an immutable ModelParams. encode returns its
output with the encoder's backward written out in closed form (a
numerics.Tensor; nothing else in the package makes one); the trainer calls
it once per epoch with the latent gradient of all three criteria. The count
decoder is a record of its parameters, the one input losses.loss_zinb
takes: it runs the record's MLP (mlp_forward and mlp_backward) and heads
one row block at a time, forward and backward, and raises
losses.NonFiniteLossError naming a head that holds a NaN. The adjacency
decoder and the soft assignment are plain numpy, and the clustering
criterion (losses.loss_cls) differentiates the assignment itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .cellgraph import CellGraph
from .numerics import Tensor, special

ZINB_HIDDEN_DIMS = (128, 256, 512)


@dataclass(frozen=True)
class ChebLayerParams:
    theta: tuple[np.ndarray, ...]  # K matrices, each (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)

    @property
    def order(self) -> int:
        return len(self.theta)

    def __post_init__(self):
        if not self.theta:
            raise ValueError("a Chebyshev layer needs at least one weight matrix")
        shapes = {t.shape for t in self.theta}
        if len(shapes) != 1:
            raise ValueError(f"theta matrices disagree on shape: {sorted(shapes)}")


@dataclass(frozen=True)
class ModelParams:
    """Every parameter as a plain float64 array. Nothing writes into one:
    a training step builds a new ModelParams from Adam's output."""

    encoder_layers: tuple[ChebLayerParams, ...]
    # (weight, bias) chain latent -> 128 -> 256 -> 512
    zinb_fc: tuple[tuple[np.ndarray, np.ndarray], ...]
    head_pi: np.ndarray  # (512, n_genes)
    head_mu: np.ndarray
    head_theta: np.ndarray
    cluster_centers: np.ndarray | None = None  # (n_clusters, latent_dim)

    def map_named(self, fn) -> "ModelParams":
        """These parameters with each array replaced by fn(name, array),
        called once per parameter in named_parameters order. The one place
        the parameter names are made."""
        layers = tuple(
            ChebLayerParams(
                tuple(fn(f"enc{i}.theta{k}", t) for k, t in enumerate(layer.theta)),
                fn(f"enc{i}.bias", layer.bias),
            )
            for i, layer in enumerate(self.encoder_layers)
        )
        fc = tuple(
            (fn(f"zinb_fc{i}.weight", w), fn(f"zinb_fc{i}.bias", b))
            for i, (w, b) in enumerate(self.zinb_fc)
        )
        return ModelParams(
            encoder_layers=layers,
            zinb_fc=fc,
            head_pi=fn("head_pi.weight", self.head_pi),
            head_mu=fn("head_mu.weight", self.head_mu),
            head_theta=fn("head_theta.weight", self.head_theta),
            cluster_centers=(
                None if self.cluster_centers is None
                else fn("cluster_centers", self.cluster_centers)
            ),
        )

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        named: list[tuple[str, np.ndarray]] = []

        def record(name, array):
            named.append((name, array))
            return array

        self.map_named(record)
        return named

    def with_centers(self, centers: np.ndarray) -> "ModelParams":
        return replace(self, cluster_centers=np.asarray(centers, dtype=np.float64))


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
        theta = tuple(_glorot(rng, in_dim, out_dim) for _ in range(cheb_order))
        layers.append(ChebLayerParams(theta=theta, bias=np.zeros(out_dim)))
    fc = []
    in_dim = latent_dim
    for out_dim in zinb_dims:
        fc.append((_glorot(rng, in_dim, out_dim), np.zeros(out_dim)))
        in_dim = out_dim
    return ModelParams(
        encoder_layers=tuple(layers),
        zinb_fc=tuple(fc),
        head_pi=_glorot(rng, in_dim, n_genes),
        head_mu=_glorot(rng, in_dim, n_genes),
        head_theta=_glorot(rng, in_dim, n_genes),
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


def _layer_backward(g, basis, thetas, lhat, want_input: bool):
    """The gradients of _weigh(chebyshev_basis(x), thetas, bias) under the
    upstream gradient g: x's (None unless `want_input`), then each theta_k's
    and the bias's. x's is carried down the recursion: with D_k the gradient
    of the k-th basis term, D_k = g theta_k^T - D_{k+2} + 2 Lhat^T D_{k+1},
    without the factor 2 for k = 0. Lhat is exactly symmetric, so `lhat` is
    the scaled Laplacian itself: Lhat^T D = Lhat D. The terms are added in
    exactly this order: seeded runs depend on it bit for bit.

    At most three n x width arrays are alive at once: D_{k+2} is released
    once subtracted, and the product Lhat D_{k+1} is doubled in place.
    Doubling is exact, so that product has the bits of Lhat (2 D_{k+1})
    unless one of its entries overflows or is subnormal."""
    grads = [z.T @ g for z in basis] + [g.sum(axis=0)]
    if not want_input:
        return None, grads
    d1 = d2 = None  # the gradients of basis terms k + 1 and k + 2
    for k in reversed(range(len(basis))):
        d = g @ thetas[k].T
        if d2 is not None:
            d -= d2
            d2 = None
        if d1 is not None:
            prod = np.asarray(lhat @ d1)
            if k:
                prod *= 2.0
            d += prod
            del prod
        d1, d2 = d, d1
    return d1, grads


def encode(basis: list[np.ndarray], graph: CellGraph, params: ModelParams) -> Tensor:
    """Stacked convolutions, relu between hidden layers, linear final layer.
    The result's backward gives every encoder weight's and bias's gradient,
    in named_parameters order.

    `basis` is chebyshev_basis(x, graph, order) of the input x: the first
    layer only weights and sums it. Backward keeps each later layer's basis
    (its first term is the relu output, whose sign is the relu's mask) and
    applies that mask to the fresh input gradient in place, so it writes no
    saved array and can run any number of times. It multiplies by Lhat, not
    Lhat^T: the scaled Laplacian is exactly symmetric.
    """
    layers = params.encoder_layers
    want = (graph.n, layers[0].theta[0].shape[0])
    shapes = {np.shape(z) for z in basis}
    if len(basis) != layers[0].order or shapes != {want}:
        raise nm.ShapeMismatchError(
            f"encode: basis of {len(basis)} terms shaped {sorted(shapes)} "
            f"vs {layers[0].order} terms of shape {want}"
        )
    bases = [basis]
    h = _weigh(basis, layers[0].theta, layers[0].bias)
    for layer in layers[1:]:
        bases.append(chebyshev_basis(np.maximum(h, 0.0), graph, layer.order))
        h = _weigh(bases[-1], layer.theta, layer.bias)
    lhat = graph.scaled_laplacian

    def vjp(g):
        grads = []
        for i in reversed(range(len(layers))):
            d_input, layer_grads = _layer_backward(g, bases[i], layers[i].theta, lhat, i > 0)
            grads[:0] = layer_grads
            if i:
                g = np.multiply(d_input, bases[i][0] > 0.0, out=d_input)
        return grads

    return Tensor(h, vjp)


def decode_adjacency(z: np.ndarray) -> np.ndarray:
    """Entrywise sigmoid of the cell Gram matrix; symmetric by construction.

    Dense n x n, in plain numpy: training never forms it (losses.loss_rec
    works on row blocks of the same values); it is the reference that
    loss_rec is tested against.
    """
    z = np.asarray(z, dtype=np.float64)
    return special.sigmoid(z @ z.T)


def mlp_forward(x: np.ndarray, layers) -> list[np.ndarray]:
    """The count decoder's MLP (relu after every layer) on the rows x:
    x, then every layer's output. `layers` is the (weight, bias) chain as
    arrays."""
    acts = [x]
    for w, b in layers:
        a = acts[-1] @ w
        a += b
        acts.append(np.maximum(a, 0.0, out=a))
    return acts


def mlp_backward(g: np.ndarray, acts: list[np.ndarray], layers):
    """The gradients of mlp_forward(x, layers)'s last output, whose
    activations are `acts`, under the upstream gradient g: x's, then each
    layer's weight and bias gradient. With no layers g passes back as is."""
    grads = []
    for k in reversed(range(len(layers))):
        g = g * (acts[k + 1] > 0.0)
        grads[:0] = [acts[k].T @ g, g.sum(axis=0)]
        g = g @ layers[k][0].T
    return g, grads


@dataclass(frozen=True)
class CountHeads:
    """The count decoder on the latent, not yet run: the latent (n_cells,
    d), the MLP's (weight, bias) chain up to its 512-wide last hidden layer
    H, and the head weights (512, n_genes each). The heads are H W_pi,
    H W_mu and H W_theta, the pre-activations logit pi, log mu and log
    theta. losses.loss_zinb runs the MLP and forms the heads itself, one
    row block at a time."""

    latent: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]  # pi, mu, theta


def decode_zinb(z: np.ndarray, params: ModelParams) -> CountHeads:
    """The count decoder on the latent: the MLP (relu after every layer)
    and the dropout, mean and dispersion head weights, as a record that
    computes nothing. losses.loss_zinb runs the MLP one row block at a time,
    multiplies out that block's heads, applies the clamped sigmoid and exps
    and raises losses.NonFiniteLossError naming a head that holds a NaN
    (infinities are left for the clamps), so no n_cells x 512 activation
    and no n_cells x n_genes head exists. With no hidden layers H is z."""
    return CountHeads(
        np.asarray(z, dtype=np.float64),
        params.zinb_fc,
        (params.head_pi, params.head_mu, params.head_theta),
    )


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
