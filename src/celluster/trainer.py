"""Two-phase training orchestration.

Phase 1 pretrains the autoencoder on adjacency reconstruction plus the
count likelihood over the full graph. Difficulty is then measured once on
the pretrained embeddings, the hardest fraction of nodes is pruned and the
graph rebuilt, and cluster centers are seeded with k-means on the kept
embeddings. Phase 2 re-initializes Adam at its own learning rate and adds
the self-training clustering term; each epoch encodes the kept graph once
for the target refresh and the step, which fits all three losses to the
easiest paced subset. Every encode takes the normalized expression
itself (the kept cells' rows in phase 2) and runs each layer's polynomial
on its projected features, so nothing is precomputed per graph. Prediction
labels every original cell (pruned ones included, flagged downstream). The
stages run straight through: each phase starts fresh, and the pipeline
writes each phase's final TrainState as a checkpoint that nothing loads
back. A TrainState is the training state only; the difficulty report and
the pruning are the pipeline's records (Pretrained.report,
PipelineResult.prune), and the formal phase's target lives for one call.

Each step writes ChebAE's chain rule out (_gradients): the criteria return
their gradients in the latent (and in the count decoder and the centers),
the step weighs and sums the latent's, scatters a paced subset's rows back
and calls the encoder's backward once. Adam's output becomes a new
ModelParams; no parameter array is written in place.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .cellgraph import LAPLACIAN_KINDS, CellGraph, knn_graph, subgraph
from .curriculum import (
    LOCAL_MODES,
    PRUNE_STRATEGIES,
    DifficultyReport,
    PacingConfig,
    PruneResult,
    measure_difficulty,
    paced_count,
    prune,
)
from .ingest import ExpressionMatrix
from .losses import (
    LossBreakdown,
    NonFiniteLossError,
    loss_cls,
    loss_rec,
    loss_zinb,
    target_distribution,
)
from .model import (
    ZINB_HIDDEN_DIMS,
    ModelParams,
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
    zinb_dims: tuple[int, ...] = ZINB_HIDDEN_DIMS
    target_update_interval: int = 5
    seed: int = 0
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    convergence_tol: float = 1e-3

    def __post_init__(self):
        for name, choices in CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        if len(self.loss_weights) != 3:
            raise ValueError(
                f"loss_weights must hold 3 weights (rec, zinb, cls), got {len(self.loss_weights)}"
            )
        if not self.zinb_dims:
            raise ValueError("zinb_dims must hold at least one layer width")
        for name in ("n_clusters", "latent_dim", "hidden_dim", "cheb_order", "n_hvg",
                     "k_neighbors", "zinb_dims", "target_update_interval"):
            if np.min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("t1", "t2", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("lr_pretrain", "lr_formal", "convergence_tol"):
            if not 0.0 < getattr(self, name) < np.inf:  # also false for nan
                raise ValueError(f"{name} must be positive and finite")
        if not all(0.0 <= w < np.inf for w in self.loss_weights):
            raise ValueError("loss_weights must be non-negative and finite")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")
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
    subset_sizes: list[int] = field(default_factory=list)  # per formal epoch
    stop_reason: str | None = None  # why formal_train ended: "converged" | "max_epochs"


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


def _gradients(z: nm.Tensor, subset, weights, rec, zinb, cls) -> list[np.ndarray]:
    """ChebAE's chain rule: the gradient of w_rec rec + w_zinb zinb (+ w_cls
    cls) in every parameter, in named_parameters order. `z` is encode's
    output over every node; `rec`, `zinb` (from CountHeads) and `cls` (None
    in pretraining) are what the criteria returned on its rows `subset`
    (every row when None). The latent's three terms are added in this
    order, and the paced subset's rows are scattered back into every
    node's: seeded runs depend on both bit for bit."""
    w_rec, w_zinb, w_cls = weights
    _, (dz_rec,) = rec
    _, (dz_zinb, *decoder) = zinb
    rec_term = w_rec * dz_rec
    zinb_term = w_zinb * dz_zinb
    dz = rec_term + zinb_term
    if cls is not None:
        _, (dz_cls, d_centers) = cls
        cls_term = w_cls * dz_cls
        dz = dz + cls_term
    if subset is not None:
        full = np.zeros(z.shape)
        np.add.at(full, subset, dz)
        dz = full
    grads = z.backward(dz)
    # a weight of 1 leaves the decoder's gradients as they are: same bits, no copy
    grads += decoder if w_zinb == 1.0 else [w_zinb * d for d in decoder]
    if cls is not None:
        grads.append(w_cls * d_centers)
    return grads


def _train_step(
    state: TrainState,
    z: nm.Tensor,
    counts: np.ndarray,
    graph: CellGraph,
    cfg: TrainConfig,
    subset: np.ndarray | None = None,
    target: np.ndarray | None = None,
    count_rows: np.ndarray | None = None,
) -> None:
    """One epoch of the current phase from `z`, encode's output over every
    node of `graph` under the current parameters: losses, gradients, Adam
    and history. `counts` (its rows `count_rows` when given, which the
    likelihood gathers block by block) are the raw counts of the nodes the
    losses see: every node of `graph`, or with `subset` (distinct node
    indices) the subset's. With `subset` the latent rows, the adjacency
    submatrix and the target are gathered once and the losses see only that
    sub-problem. The count likelihood runs the count decoder's MLP and
    heads itself, one row block at a time, forward and backward, so the
    step holds no n x 512 activation and no n_genes-wide head. The step
    replaces state.params with a new ModelParams and writes no old array. A
    non-finite loss or gradient raises NonFiniteLossError carrying the state
    as it was before the step, so Adam never takes a non-finite gradient."""
    epoch, params = state.epoch, state.params
    try:
        latent, adjacency = z.values, graph.adjacency
        if subset is not None:
            latent = latent[subset]
            adjacency = adjacency[subset][:, subset]
            if target is not None:
                target = target[subset]
        rec = loss_rec(adjacency, latent)
        zinb = loss_zinb(counts, decode_zinb(latent, params), count_rows)
        cls = None if target is None else loss_cls(target, latent, params.cluster_centers)
    except NonFiniteLossError as err:
        raise NonFiniteLossError(
            f"{state.phase} phase diverged at epoch {epoch}: {err}", epoch=epoch, state=state
        ) from err
    w_rec, w_zinb, w_cls = cfg.loss_weights
    breakdown = LossBreakdown(
        rec=w_rec * rec[0], zinb=w_zinb * zinb[0], cls=0.0 if cls is None else w_cls * cls[0]
    )
    if not np.isfinite(breakdown.total):
        raise NonFiniteLossError(
            f"{state.phase} loss non-finite at epoch {epoch}", epoch=epoch, state=state
        )
    grads = _gradients(z, subset, cfg.loss_weights, rec, zinb, cls)
    named = params.named_parameters()
    bad = [name for (name, _), g in zip(named, grads) if not np.isfinite(g).all()]
    if bad:
        message = f"{state.phase} gradient non-finite at epoch {epoch} in {', '.join(bad)}"
        raise NonFiniteLossError(message, epoch=epoch, state=state)
    updated, _ = adam_step([array for _, array in named], grads, state.adam)
    by_name = {name: new for (name, _), new in zip(named, updated)}
    state.params = params.map_named(lambda name, _: by_name[name])
    state.loss_history.append(breakdown)
    state.epoch += 1


def pretrain(pre: PreprocessedData, graph: CellGraph, cfg: TrainConfig) -> TrainState:
    """Full-batch reconstruction + likelihood training from fresh parameters
    for cfg.t1 epochs, one encode of pre.normalized on `graph` per epoch;
    writes no checkpoint."""
    # no local keeps the initial parameters: the first step frees them
    state = TrainState(
        phase="pretrain",
        epoch=0,
        params=init_params(
            n_genes=pre.n_genes,
            latent_dim=cfg.latent_dim,
            hidden_dim=cfg.hidden_dim,
            cheb_order=cfg.cheb_order,
            zinb_dims=cfg.zinb_dims,
            seed=cfg.seed,
        ),
        adam=AdamState(learning_rate=cfg.lr_pretrain),
    )
    while state.epoch < cfg.t1:
        _train_step(state, encode(pre.normalized, graph, state.params), pre.raw.counts, graph, cfg)
    return state


def formal_train(
    state: TrainState,
    pre: PreprocessedData,
    graph_pruned: CellGraph,
    kept: np.ndarray,
    cfg: TrainConfig,
) -> TrainState:
    """Paced self-training phase over `graph_pruned`, the subgraph of the
    cells `kept` (easiest first, as PruneResult.kept) in ascending cell
    order, from a fresh optimizer at cfg.lr_formal for up to cfg.t2 epochs;
    leaves `state` in phase "done", with state.stop_reason saying why the
    phase ended.

    Each epoch encodes the kept graph once. Every cfg.target_update_interval
    epochs that latent refreshes the target, and the phase ends (no step,
    "converged") once the churn between consecutive refreshes of this call
    falls below cfg.convergence_tol, or else after cfg.t2 epochs
    ("max_epochs"). The step then trains on the same latent, over the
    paced_count easiest kept nodes of the pre.n_cells original cells. The
    target and the labels of the last refresh live only for the call.
    Writes no checkpoint.
    """
    if state.params.cluster_centers is None:
        raise NotTrainedError("formal training needs initialized cluster centers")
    state.phase = "formal"
    state.epoch = 0
    state.adam = AdamState(learning_rate=cfg.lr_formal)  # fresh optimizer per phase

    kept_sorted = np.sort(kept)
    easiest_first = np.searchsorted(kept_sorted, kept)
    x = pre.normalized[kept_sorted]
    pacing = PacingConfig(lambda0=cfg.lambda0, t_hat=cfg.effective_t_hat)
    target = last_labels = None

    state.stop_reason = "max_epochs"
    while state.epoch < cfg.t2:
        t = state.epoch
        z = encode(x, graph_pruned, state.params)
        if t % cfg.target_update_interval == 0:
            q = soft_assign(z.values, state.params.cluster_centers)
            labels_now = q.argmax(axis=1)
            if last_labels is not None and np.mean(labels_now != last_labels) < cfg.convergence_tol:
                state.stop_reason = "converged"
                break
            last_labels = labels_now
            target = target_distribution(q)

        count = paced_count(t, pacing, cfg.alpha, pre.n_cells, kept.size)
        subset = np.sort(easiest_first[:count])
        state.subset_sizes.append(count)
        _train_step(
            state, z, pre.raw.counts, graph_pruned, cfg,
            subset=subset, target=target, count_rows=kept_sorted[subset],
        )
        del z  # frees this epoch's encoder backward before the next forward
    state.phase = "done"
    return state


def predict(state: TrainState, pre: PreprocessedData, graph: CellGraph) -> np.ndarray:
    """Hard labels for every original node from the final soft assignment;
    argmax ties resolve to the lower cluster index."""
    if state.phase != "done":
        raise NotTrainedError(f"predict called in phase {state.phase!r}")
    if state.params.cluster_centers is None:
        raise NotTrainedError("no cluster centers; was formal training run?")
    z = encode(pre.normalized, graph, state.params)
    q = soft_assign(z.values, state.params.cluster_centers)
    return q.argmax(axis=1).astype(np.int64)


# -- phase checkpoints -----------------------------------------------------------------


_PHASES = ("pretrain", "formal", "done")
_STOP_REASONS = ("converged", "max_epochs")


def save_state(state: TrainState, path) -> None:
    """Write `state` atomically as named float64 tensors in numpy's .npz;
    no command reads it back (np.load does)."""
    arrays: dict[str, np.ndarray] = {
        "meta.phase": np.array(float(_PHASES.index(state.phase))),
        "meta.epoch": np.array(float(state.epoch)),
    }
    if state.stop_reason is not None:
        arrays["meta.stop_reason"] = np.array(float(_STOP_REASONS.index(state.stop_reason)))
    for name, array in state.params.named_parameters():
        arrays[f"param.{name}"] = array
    arrays["adam.lr"] = np.array(state.adam.learning_rate)
    arrays["adam.step"] = np.array(float(state.adam.step))
    for i, (m, v) in enumerate(zip(state.adam.first_moment, state.adam.second_moment)):
        arrays[f"adam.m{i}"] = m
        arrays[f"adam.v{i}"] = v
    if state.loss_history:
        arrays["history"] = np.array([b.as_row() for b in state.loss_history])
    if state.subset_sizes:
        arrays["subset_sizes"] = np.array(state.subset_sizes, dtype=np.float64)
    nm.save_checkpoint(path, arrays)


# -- end-to-end pipeline ------------------------------------------------------------------


@dataclass
class Pretrained:
    """What the stages before pruning produce: the pretrained state and the
    difficulty report scored on its embedding. None of it depends on
    cfg.alpha or cfg.prune_strategy, so one value serves any number of
    tails, each called with a cfg that carries its grid cell's pair. No
    tail changes it: training replaces the parameters, never writes them."""

    cfg: TrainConfig
    preprocessed: PreprocessedData
    graph: CellGraph
    state: TrainState  # pretrained; no Adam moments
    report: DifficultyReport
    embedding: np.ndarray  # pretrained latent vector of every cell


@dataclass
class PipelineResult:
    """A finished run; `report` and `prune` are what difficulty.csv holds."""

    state: TrainState
    preprocessed: PreprocessedData
    graph: CellGraph
    labels: np.ndarray  # every original cell
    report: DifficultyReport
    prune: PruneResult

    @property
    def pruned_mask(self) -> np.ndarray:
        """True where the cell was pruned before phase 2."""
        return np.isin(np.arange(self.preprocessed.n_cells), self.prune.dropped)


def pretrain_and_score(
    data: ExpressionMatrix, cfg: TrainConfig, checkpoint_dir=None
) -> Pretrained:
    """Preprocess, build the KNN graph, pretrain, embed and score difficulty.
    Failures raise StageError tagged with the stage that failed; more
    clusters than cells fails before any training."""
    with stage("preprocess"):
        if cfg.n_clusters > data.n_cells:
            raise DegenerateClusterError(
                f"n_clusters={cfg.n_clusters} exceeds the input's {data.n_cells} cells"
            )
        pre = preprocess(data, cfg.n_hvg)
    with stage("graph"):
        graph = knn_graph(pre.normalized, cfg.k_neighbors, cfg.laplacian_kind)
    with stage("pretrain"):
        state = pretrain(pre, graph, cfg)
        if checkpoint_dir is not None:
            save_state(state, f"{checkpoint_dir}/pretrain_final.ckpt")
        # every tail starts a fresh optimizer, so the moments are dead weight
        state.adam.first_moment, state.adam.second_moment = [], []
    with stage("difficulty"):
        z = encode(pre.normalized, graph, state.params).values
        report = measure_difficulty(z, graph, beta=cfg.beta, local_mode=cfg.local_mode)
    return Pretrained(cfg, pre, graph, state, report, z)


def prune_and_cluster(pretrained: Pretrained, checkpoint_dir=None) -> PipelineResult:
    """Prune cfg.alpha of the cells by cfg.prune_strategy (both read from
    pretrained.cfg), seed the centers, run the paced formal phase and label
    every cell. The formal phase starts from the pretrained parameters,
    which each step replaces and none writes, on fresh history lists, so
    `pretrained` is left as it was and can serve further calls. Failures
    raise StageError tagged with the stage."""
    src = pretrained.state
    state = replace(
        src, loss_history=list(src.loss_history), subset_sizes=list(src.subset_sizes)
    )
    return _prune_and_cluster(pretrained, state, checkpoint_dir)


def _prune_and_cluster(pretrained: Pretrained, state: TrainState, checkpoint_dir) -> PipelineResult:
    """prune_and_cluster's stages, run on `state` itself; the rest is read from `pretrained`."""
    cfg, pre, graph = pretrained.cfg, pretrained.preprocessed, pretrained.graph
    with stage("prune"):
        pruned = prune(pretrained.report, cfg.alpha, strategy=cfg.prune_strategy, seed=cfg.seed)
        kept_sorted = np.sort(pruned.kept)
        graph_pruned = subgraph(graph, kept_sorted)
    with stage("centers"):
        centers = init_centers(pretrained.embedding[kept_sorted], cfg.n_clusters, cfg.seed)
        state.params = state.params.with_centers(centers)
    with stage("formal"):
        state = formal_train(state, pre, graph_pruned, pruned.kept, cfg)
        if checkpoint_dir is not None:
            save_state(state, f"{checkpoint_dir}/formal_final.ckpt")
    with stage("predict"):
        labels = predict(state, pre, graph)
    return PipelineResult(state, pre, graph, labels, pretrained.report, pruned)


def check_pacing(cfg: TrainConfig, n_cells: int) -> None:
    """Fail as [formal] if cfg's pacing selects no node of `n_cells` at epoch 0."""
    with stage("formal"):
        pacing = PacingConfig(lambda0=cfg.lambda0, t_hat=cfg.effective_t_hat)
        paced_count(0, pacing, cfg.alpha, n_cells, n_cells - int(np.floor(cfg.alpha * n_cells)))


def run_pipeline(data: ExpressionMatrix, cfg: TrainConfig, checkpoint_dir=None) -> PipelineResult:
    """check_pacing, pretrain_and_score, then its only tail on the
    pretrained state itself: the first formal step replaces the pretrained
    parameters, which frees their arrays."""
    check_pacing(cfg, data.n_cells)
    p = pretrain_and_score(data, cfg, checkpoint_dir)
    return _prune_and_cluster(p, p.state, checkpoint_dir)
