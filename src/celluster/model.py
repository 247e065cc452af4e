"""The graph-convolutional autoencoder and its three decoding heads.

Encoder: stacked Chebyshev graph convolutions, each the filter
sum_k T_k(Lhat) X Theta_k + bias of its input X, relu between hidden layers,
linear final layer. Each layer forms X Theta_k first and sums the
polynomial by Clenshaw's recurrence on those products, so the sparse
products run on the layer's output width and no Chebyshev basis of the
input is stored: only each layer's input is kept for the backward.
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


def _clenshaw(x, thetas, lhat) -> np.ndarray:
    """sum_k T_k(Lhat) x theta_k, the Chebyshev filter of x, on the output
    side: with Y_k = x theta_k, Clenshaw's recurrence b_k = 2 Lhat b_{k+1}
    - b_{k+2} + Y_k runs down from the last order, and the sum is Lhat b_1
    - b_2 + Y_0, each added up in that order. That is K - 1 sparse products
    on n x out_dim arrays, and at most three of them are alive at once:
    b_{k+2} is released once subtracted, before Y_k is formed, and the
    product Lhat b_{k+1} is doubled in place."""
    b1 = b2 = None
    for k in reversed(range(len(thetas))):
        if b1 is None:
            b = x @ thetas[k]
        else:
            b = np.asarray(lhat @ b1)
            if k:
                b *= 2.0
            if b2 is not None:
                b -= b2
                b2 = None
            b += x @ thetas[k]
        b1, b2 = b, b1
    return b1


def _clenshaw_backward(g, x, thetas, lhat, want_input: bool):
    """The gradients of _clenshaw(x, thetas, lhat) + bias under the
    upstream gradient g: x's (None unless `want_input`), then each
    theta_k's and the bias's. The forward recursion runs on g: U_0 = g,
    U_1 = Lhat g, U_k = 2 Lhat U_{k-1} - U_{k-2}, so U_k = T_k(Lhat) g and
    theta_k's gradient is x^T U_k, and x's is sum_k U_k theta_k^T. Lhat is
    exactly symmetric, so T_k(Lhat)^T = T_k(Lhat). Each term is formed as
    its U_k appears, in order of k: seeded runs depend on it bit for bit.

    Besides g, at most three n x out_dim arrays of the recursion are alive
    at once: U_{k-2} is released once subtracted, and the product
    Lhat U_{k-1} is doubled in place. Doubling is exact, so U_k has the bits of
    Lhat (2 U_{k-1}) - U_{k-2} unless one of its entries overflows or is
    subnormal."""
    grads, d_input = [], None
    u1 = u2 = None  # U_{k-1} and U_{k-2}
    for k, theta in enumerate(thetas):
        if k == 0:
            u = g
        else:
            u = np.asarray(lhat @ u1)
            if k > 1:
                u *= 2.0
                u -= u2
        u1, u2 = u, u1
        grads.append(x.T @ u)
        if want_input:
            if d_input is None:
                d_input = u @ theta.T
            else:
                d_input += u @ theta.T
    return d_input, grads + [g.sum(axis=0)]


def encode(x, graph: CellGraph, params: ModelParams) -> Tensor:
    """Stacked Chebyshev convolutions of the input x (n_cells, n_genes) on
    `graph`, relu between hidden layers, linear final layer. The result's
    backward gives every encoder weight's and bias's gradient, in
    named_parameters order.

    Each layer multiplies its input by every theta_k first and runs the
    polynomial in Lhat on those products (_clenshaw): K - 1 sparse products
    on n x out_dim arrays per layer, forward and backward alike. The
    result keeps only each layer's input: x itself (not copied) and the
    relu output of every hidden layer, whose sign is the relu's mask.
    Backward applies that mask to the fresh input gradient in place, so
    it writes no saved array and can run any number of times. It
    multiplies by Lhat, not Lhat^T: the scaled Laplacian is exactly
    symmetric.
    """
    x = np.asarray(x, dtype=np.float64)
    layers = params.encoder_layers
    want = (graph.n, layers[0].theta[0].shape[0])
    if x.shape != want:
        raise nm.ShapeMismatchError(f"encode: input of shape {x.shape}, expected {want}")
    lhat = graph.scaled_laplacian
    inputs = [x]
    for i, layer in enumerate(layers):
        h = _clenshaw(inputs[-1], layer.theta, lhat)
        h += layer.bias
        if i < len(layers) - 1:
            inputs.append(np.maximum(h, 0.0, out=h))

    def vjp(g):
        grads = []
        for i in reversed(range(len(layers))):
            d_input, layer_grads = _clenshaw_backward(g, inputs[i], layers[i].theta, lhat, i > 0)
            grads[:0] = layer_grads
            if i:
                g = np.multiply(d_input, inputs[i] > 0.0, out=d_input)
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
