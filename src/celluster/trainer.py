"""Two-phase training orchestration.

Phase 1 pretrains the autoencoder on adjacency reconstruction plus the
count likelihood over the full graph. Difficulty is then measured once on
the pretrained embeddings, the hardest fraction of nodes is pruned and the
graph rebuilt, and cluster centers are seeded with k-means on the kept
embeddings. Phase 2 re-initializes Adam at its own learning rate and adds
the self-training clustering term; each epoch encodes the kept graph once
for the target refresh and the step, which fits all three losses to the
easiest paced subset. Prediction labels every original cell (pruned ones
included, flagged downstream). The stages run straight through: each phase
starts fresh, and the pipeline writes each phase's final state as a
checkpoint that nothing loads back.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .cellgraph import LAPLACIAN_KINDS, CellGraph, knn_graph
from .curriculum import (
    LOCAL_MODES,
    PRUNE_STRATEGIES,
    DifficultyReport,
    PacingConfig,
    PruneResult,
    measure_difficulty,
    pacing_fraction,
    prune,
    rebuild_after_prune,
)
from .ingest import ExpressionMatrix
from .losses import (
    LossBreakdown,
    NonFiniteLossError,
    loss_cls,
    loss_rec,
    loss_zinb,
    target_distribution,
    weighted_total,
)
from .model import (
    ZINB_HIDDEN_DIMS,
    ModelParams,
    NonFiniteOutputError,
    chebyshev_basis,
    decode_zinb,
    encode,
    init_params,
    soft_assign,
)
from .numerics import AdamState, adam_step
from .preprocess import PreprocessedData, preprocess


class DegenerateClusterError(RuntimeError):
    pass


class NotTrainedError(RuntimeError):
    pass


class StageError(RuntimeError):
    """A pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"[{stage}] {cause}")


# A referenced path that is missing or unusable: these pass through stage()
# untagged, and the CLI exits 2 on them.
PATH_ERRORS = (
    FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError
)


@contextmanager
def stage(name: str):
    """Re-raise failures inside the block as StageError(name), except
    PATH_ERRORS, which pass through untagged."""
    try:
        yield
    except PATH_ERRORS:
        raise
    except Exception as err:
        raise StageError(name, err) from err


# TrainConfig fields restricted to a fixed set of values.
CHOICES = {
    "laplacian_kind": LAPLACIAN_KINDS,
    "local_mode": LOCAL_MODES,
    "prune_strategy": PRUNE_STRATEGIES,
}


@dataclass
class TrainConfig:
    n_clusters: int
    t1: int = 1000
    t2: int = 500
    lr_pretrain: float = 5e-4
    lr_formal: float = 1e-4
    k_neighbors: int = 20
    laplacian_kind: str = "sym_normalized"
    alpha: float = 0.11
    prune_strategy: str = "hard"
    n_hvg: int = 500
    beta: float = 0.5
    local_mode: str = "literal"
    lambda0: float = 0.25
    t_hat: int | None = None  # defaults to max(1, t2 // 2)
    latent_dim: int = 32
    hidden_dim: int = 256
    cheb_order: int = 3
    zinb_dims: tuple[int, int, int] = ZINB_HIDDEN_DIMS
    target_update_interval: int = 5
    seed: int = 0
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    convergence_tol: float = 1e-3

    def __post_init__(self):
        for name, choices in CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        for name in ("n_clusters", "latent_dim", "hidden_dim", "cheb_order", "n_hvg",
                     "k_neighbors", "zinb_dims", "target_update_interval"):
            if np.min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("t1", "t2", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("lr_pretrain", "lr_formal", "convergence_tol"):
            if not 0.0 < getattr(self, name) < np.inf:  # also false for nan
                raise ValueError(f"{name} must be positive and finite")
        if not all(0.0 <= w < np.inf for w in self.loss_weights):
            raise ValueError("loss_weights must be non-negative and finite")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 < self.lambda0 <= 1.0:
            raise ValueError("lambda0 must lie in (0, 1]")
        if self.t_hat is not None and self.t_hat < 1:
            raise ValueError("t_hat must be >= 1")

    @property
    def effective_t_hat(self) -> int:
        return self.t_hat if self.t_hat is not None else max(1, self.t2 // 2)


@dataclass
class TrainState:
    phase: str  # "pretrain" | "formal" | "done"
    epoch: int  # epochs completed within the current phase
    params: ModelParams
    adam: AdamState
    loss_history: list[LossBreakdown] = field(default_factory=list)
    report: DifficultyReport | None = None
    prune: PruneResult | None = None
    target: np.ndarray | None = None
    labels_prev: np.ndarray | None = None
    subset_sizes: list[int] = field(default_factory=list)  # per formal epoch


# -- k-means -----------------------------------------------------------------------

_KMEANS_RESTARTS = 20  # k-means++ seedings; the lowest inertia wins
_KMEANS_RESEED_ATTEMPTS = 10  # re-seedings of a run that ends with an empty cluster
_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6  # largest center move that counts as converged


def _kmeans_once(x: np.ndarray, k: int, rng: np.random.Generator):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total == 0.0:
            centers[i] = x[rng.integers(n)]
        else:
            centers[i] = x[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((x - centers[i]) ** 2).sum(axis=1))

    for _ in range(_KMEANS_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = d2.argmin(axis=1)
        moved = 0.0
        new_centers = centers.copy()
        for j in range(k):
            members = x[assignment == j]
            if members.shape[0] == 0:
                return None
            new_centers[j] = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new_centers[j] - centers[j])))
        centers = new_centers
        if moved <= _KMEANS_TOL:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assignment = d2.argmin(axis=1)
    if np.unique(assignment).size < k:
        return None
    inertia = float(d2[np.arange(n), assignment].sum())
    return centers, inertia


def init_centers(z: np.ndarray, n_clusters: int, seed: int = 0) -> np.ndarray:
    """k-means++ over `_KMEANS_RESTARTS` seedings; a run that converges with
    an empty cluster is re-seeded up to `_KMEANS_RESEED_ATTEMPTS` times
    before erroring."""
    x = np.asarray(z, dtype=np.float64)
    if n_clusters > x.shape[0]:
        raise DegenerateClusterError(
            f"{n_clusters} clusters for {x.shape[0]} points"
        )
    rng = np.random.default_rng(seed)
    best = None
    best_inertia = np.inf
    for _ in range(_KMEANS_RESTARTS):
        outcome = None
        for _ in range(_KMEANS_RESEED_ATTEMPTS):
            outcome = _kmeans_once(x, n_clusters, rng)
            if outcome is not None:
                break
        if outcome is None:
            raise DegenerateClusterError(
                f"k-means produced an empty cluster in {_KMEANS_RESEED_ATTEMPTS} "
                "consecutive seedings"
            )
        centers, inertia = outcome
        if inertia < best_inertia:
            best, best_inertia = centers, inertia
    return best


# -- shared epoch machinery -----------------------------------------------------------


def _train_step(
    state: TrainState,
    z: nm.Tensor,
    counts: np.ndarray,
    graph: CellGraph,
    cfg: TrainConfig,
    subset: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> None:
    """One epoch of the current phase from `z`, the latent of every node of
    `graph` under the current parameters: losses, backward, Adam and
    history. `counts` are the raw counts of the nodes the losses see: every
    node of `graph`, or with `subset` (distinct node indices) the subset's,
    gathered by the caller. With `subset` the latent rows, the adjacency
    submatrix and the target are gathered once and the losses see only that
    sub-problem. A non-finite loss raises NonFiniteLossError carrying the
    state as it was before the step."""
    epoch = state.epoch
    try:
        adjacency = graph.adjacency
        if subset is not None:
            z = nm.index_rows(z, subset)
            adjacency = adjacency[subset][:, subset]
            if target is not None:
                target = target[subset]
        decoded = decode_zinb(z, state.params)
        rec = loss_rec(adjacency, z)
        zinb = loss_zinb(counts, decoded)
        cls = None
        if target is not None:
            cls = loss_cls(target, z, state.params.cluster_centers)
        total, breakdown = weighted_total(rec, zinb, cls, cfg.loss_weights)
    except (NonFiniteLossError, NonFiniteOutputError) as err:
        raise NonFiniteLossError(
            f"{state.phase} phase diverged at epoch {epoch}: {err}", epoch=epoch, state=state
        ) from err
    if not np.isfinite(breakdown.total):
        raise NonFiniteLossError(
            f"{state.phase} loss non-finite at epoch {epoch}", epoch=epoch, state=state
        )
    total.backward()
    named = state.params.named_parameters()
    values = [t.values for _, t in named]
    grads = [t.grad if t.grad is not None else np.zeros_like(t.values) for _, t in named]
    updated, _ = adam_step(values, grads, state.adam)
    for (_, t), new in zip(named, updated):
        t.values = new  # rebinds, never writes in place
        t.grad = None
    state.loss_history.append(breakdown)
    state.epoch += 1


def pretrain(
    pre: PreprocessedData,
    graph: CellGraph,
    cfg: TrainConfig,
    basis: list[np.ndarray] | None = None,
) -> TrainState:
    """Full-batch reconstruction + likelihood training from fresh parameters
    for cfg.t1 epochs, one encode per epoch from `basis`, the Chebyshev
    basis of pre.normalized on `graph` (built here when not given); writes
    no checkpoint."""
    if basis is None:
        basis = chebyshev_basis(pre.normalized, graph, cfg.cheb_order)
    params = init_params(
        n_genes=pre.n_genes,
        latent_dim=cfg.latent_dim,
        hidden_dim=cfg.hidden_dim,
        cheb_order=cfg.cheb_order,
        zinb_dims=cfg.zinb_dims,
        seed=cfg.seed,
    )
    state = TrainState(
        phase="pretrain", epoch=0, params=params, adam=AdamState(learning_rate=cfg.lr_pretrain)
    )
    while state.epoch < cfg.t1:
        _train_step(state, encode(basis, graph, state.params), pre.raw.counts, graph, cfg)
    return state


def formal_train(
    state: TrainState,
    pre: PreprocessedData,
    graph_pruned: CellGraph,
    cfg: TrainConfig,
) -> TrainState:
    """Paced self-training phase over the pruned graph, from a fresh
    optimizer at cfg.lr_formal for up to cfg.t2 epochs; leaves `state` in
    phase "done".

    Each epoch encodes the kept graph once. Every cfg.target_update_interval
    epochs that latent refreshes the target, and the phase ends (no step)
    once the churn between consecutive refreshes falls below
    cfg.convergence_tol. The step then trains on the same latent, over the
    easiest kept nodes: the pacing fraction (capped at 1 - alpha) of the
    ORIGINAL node count, floored. Writes no checkpoint.
    """
    if state.report is None or state.prune is None:
        raise NotTrainedError("formal training needs difficulty and pruning results")
    if state.params.cluster_centers is None:
        raise NotTrainedError("formal training needs initialized cluster centers")
    state.phase = "formal"
    state.epoch = 0
    state.adam = AdamState(learning_rate=cfg.lr_formal)  # fresh optimizer per phase

    kept_sorted = np.sort(state.prune.kept)
    easiest_first = np.searchsorted(kept_sorted, state.prune.kept)
    basis = chebyshev_basis(pre.normalized[kept_sorted], graph_pruned, cfg.cheb_order)
    n_original = state.report.n
    pacing = PacingConfig(lambda0=cfg.lambda0, t_hat=cfg.effective_t_hat)

    while state.epoch < cfg.t2:
        t = state.epoch
        z = encode(basis, graph_pruned, state.params)
        if t % cfg.target_update_interval == 0:
            q = soft_assign(z.values, state.params.cluster_centers.values)
            labels_now = q.argmax(axis=1)
            churn = None if state.labels_prev is None else np.mean(labels_now != state.labels_prev)
            state.labels_prev = labels_now
            if churn is not None and churn < cfg.convergence_tol:
                break
            state.target = target_distribution(q)

        fraction = pacing_fraction(t, pacing, cfg.alpha)
        count = min(int(np.floor(fraction * n_original)), kept_sorted.size)
        if count == 0:
            raise ValueError(
                f"pacing selects zero nodes at epoch {t} "
                f"(lambda0={cfg.lambda0}, {n_original} nodes); raise lambda0"
            )
        subset = np.sort(easiest_first[:count])
        state.subset_sizes.append(count)
        counts = pre.raw.counts[kept_sorted[subset]]
        _train_step(state, z, counts, graph_pruned, cfg, subset=subset, target=state.target)
        del z  # frees this epoch's encoder tape before the next forward
    state.phase = "done"
    return state


def predict(state: TrainState, pre: PreprocessedData, graph: CellGraph) -> np.ndarray:
    """Hard labels for every original node from the final soft assignment;
    argmax ties resolve to the lower cluster index."""
    if state.phase != "done":
        raise NotTrainedError(f"predict called in phase {state.phase!r}")
    if state.params.cluster_centers is None:
        raise NotTrainedError("no cluster centers; was formal training run?")
    basis = chebyshev_basis(pre.normalized, graph, state.params.encoder_layers[0].order)
    z = encode(basis, graph, state.params)
    q = soft_assign(z.values, state.params.cluster_centers.values)
    return q.argmax(axis=1).astype(np.int64)


# -- phase checkpoints -----------------------------------------------------------------


_PHASES = ("pretrain", "formal", "done")


def save_state(state: TrainState, path) -> None:
    """Write `state` atomically as named float64 tensors; no command reads
    it back (nm.load_checkpoint parses the format)."""
    arrays: dict[str, np.ndarray] = {
        "meta.phase": np.array(float(_PHASES.index(state.phase))),
        "meta.epoch": np.array(float(state.epoch)),
    }
    for name, tensor in state.params.named_parameters():
        arrays[f"param.{name}"] = tensor.values
    arrays["adam.lr"] = np.array(state.adam.learning_rate)
    arrays["adam.step"] = np.array(float(state.adam.step))
    for i, (m, v) in enumerate(zip(state.adam.first_moment, state.adam.second_moment)):
        arrays[f"adam.m{i}"] = m
        arrays[f"adam.v{i}"] = v
    if state.loss_history:
        arrays["history"] = np.array([b.as_row() for b in state.loss_history])
    if state.report is not None:
        arrays["report.local"] = state.report.local
        arrays["report.global"] = state.report.global_
        arrays["report.combined"] = state.report.combined
        arrays["report.order"] = state.report.order.astype(np.float64)
        arrays["report.beta"] = np.array(state.report.beta)
    if state.prune is not None:
        arrays["prune.kept"] = state.prune.kept.astype(np.float64)
        arrays["prune.dropped"] = state.prune.dropped.astype(np.float64)
        arrays["prune.alpha"] = np.array(state.prune.alpha)
    if state.target is not None:
        arrays["target"] = state.target
    if state.labels_prev is not None:
        arrays["labels_prev"] = state.labels_prev.astype(np.float64)
    if state.subset_sizes:
        arrays["subset_sizes"] = np.array(state.subset_sizes, dtype=np.float64)
    nm.save_checkpoint(path, arrays)


# -- end-to-end pipeline ------------------------------------------------------------------


@dataclass
class Pretrained:
    """What the stages before pruning produce. None of it depends on
    cfg.alpha or cfg.prune_strategy, so one value serves any number of
    tails, each given a copy whose cfg carries its grid cell's pair."""

    cfg: TrainConfig
    preprocessed: PreprocessedData
    graph: CellGraph
    state: TrainState  # pretrained, with the difficulty report; no Adam moments
    embedding: np.ndarray  # pretrained latent vector of every cell


@dataclass
class PipelineResult:
    state: TrainState
    preprocessed: PreprocessedData
    graph: CellGraph
    labels: np.ndarray  # every original cell
    pruned_mask: np.ndarray  # True where the cell was pruned before phase 2


def pretrain_and_score(
    data: ExpressionMatrix, cfg: TrainConfig, checkpoint_dir=None
) -> Pretrained:
    """Preprocess, build the KNN graph, pretrain, embed and score difficulty.
    Failures raise StageError tagged with the stage that failed."""
    with stage("preprocess"):
        pre = preprocess(data, cfg.n_hvg)
    with stage("graph"):
        graph = knn_graph(pre.normalized, cfg.k_neighbors, cfg.laplacian_kind)
    with stage("pretrain"):
        basis = chebyshev_basis(pre.normalized, graph, cfg.cheb_order)
        state = pretrain(pre, graph, cfg, basis=basis)
        if checkpoint_dir is not None:
            save_state(state, f"{checkpoint_dir}/pretrain_final.ckpt")
        # every tail starts a fresh optimizer, so the moments are dead weight
        state.adam.first_moment, state.adam.second_moment = [], []
    with stage("difficulty"):
        z = encode(basis, graph, state.params).values
        state.report = measure_difficulty(z, graph, beta=cfg.beta, local_mode=cfg.local_mode)
    return Pretrained(cfg, pre, graph, state, z)


def prune_and_cluster(pretrained: Pretrained, checkpoint_dir=None) -> PipelineResult:
    """Prune cfg.alpha of the cells by cfg.prune_strategy (both read from
    pretrained.cfg), seed the centers, run the paced formal phase and label
    every cell. Works on its own copy of the pretrained state, so
    `pretrained` can serve further calls. Failures raise StageError tagged
    with the stage."""
    cfg, pre, graph = pretrained.cfg, pretrained.preprocessed, pretrained.graph
    state = copy.deepcopy(pretrained.state)
    with stage("prune"):
        state.prune = prune(state.report, cfg.alpha, strategy=cfg.prune_strategy, seed=cfg.seed)
        graph_pruned, kept_sorted = rebuild_after_prune(graph, state.prune)
    pruned_mask = np.zeros(pre.n_cells, dtype=bool)
    pruned_mask[state.prune.dropped] = True
    with stage("centers"):
        centers = init_centers(pretrained.embedding[kept_sorted], cfg.n_clusters, cfg.seed)
        state.params = state.params.with_centers(centers)
    with stage("formal"):
        state = formal_train(state, pre, graph_pruned, cfg)
        if checkpoint_dir is not None:
            save_state(state, f"{checkpoint_dir}/formal_final.ckpt")
    with stage("predict"):
        labels = predict(state, pre, graph)
    return PipelineResult(state, pre, graph, labels, pruned_mask)


def run_pipeline(data: ExpressionMatrix, cfg: TrainConfig, checkpoint_dir=None) -> PipelineResult:
    return prune_and_cluster(pretrain_and_score(data, cfg, checkpoint_dir), checkpoint_dir)
