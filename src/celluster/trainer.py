"""Two-phase training orchestration.

Phase 1 pretrains the autoencoder on adjacency reconstruction plus the
count likelihood over the full graph. Difficulty is then measured once on
the pretrained embeddings, the hardest fraction of nodes is pruned and the
graph rebuilt, and cluster centers are seeded with k-means on the kept
embeddings. Phase 2 re-initializes Adam at its own learning rate and adds
the self-training clustering term; each epoch encodes the kept graph once
for the target refresh and the step, which fits all three losses to the
easiest paced subset. Prediction labels every original cell (pruned ones
included, flagged downstream); the pipeline writes the phase checkpoints.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .cellgraph import CellGraph, knn_graph
from .curriculum import (
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


@contextmanager
def stage(name: str):
    """Re-raise failures inside the block as StageError(name); missing or
    unreadable paths pass through untagged (the CLI exits 2 on those)."""
    try:
        yield
    except (FileNotFoundError, IsADirectoryError, PermissionError):
        raise
    except Exception as err:
        raise StageError(name, err) from err


@dataclass
class TrainConfig:
    n_clusters: int
    t1: int = 1000
    t2: int = 500
    lr_pretrain: float = 5e-4
    lr_formal: float = 1e-4
    k_neighbors: int = 20
    alpha: float = 0.11
    n_hvg: int = 500
    beta: float = 0.5
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
        for name in ("n_clusters", "latent_dim", "hidden_dim", "cheb_order", "n_hvg",
                     "k_neighbors", "zinb_dims", "target_update_interval"):
            if np.min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("t1", "t2"):
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


def _kmeans_once(x: np.ndarray, k: int, rng: np.random.Generator,
                 max_iter: int = 300, tol: float = 1e-6):
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

    for _ in range(max_iter):
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
        if moved <= tol:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assignment = d2.argmin(axis=1)
    if np.unique(assignment).size < k:
        return None
    inertia = float(d2[np.arange(n), assignment].sum())
    return centers, inertia


def init_centers(
    z: np.ndarray, n_clusters: int, seed: int = 0,
    restarts: int = 20, reseed_attempts: int = 10,
) -> np.ndarray:
    """k-means++ over `restarts` seedings; a run that converges with an empty
    cluster is re-seeded up to `reseed_attempts` times before erroring."""
    x = np.asarray(z, dtype=np.float64)
    if n_clusters > x.shape[0]:
        raise DegenerateClusterError(
            f"{n_clusters} clusters for {x.shape[0]} points"
        )
    rng = np.random.default_rng(seed)
    best = None
    best_inertia = np.inf
    for _ in range(restarts):
        outcome = None
        for _ in range(reseed_attempts):
            outcome = _kmeans_once(x, n_clusters, rng)
            if outcome is not None:
                break
        if outcome is None:
            raise DegenerateClusterError(
                f"k-means produced an empty cluster in {reseed_attempts} consecutive seedings"
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
    history. With `subset` (distinct node indices) the latent rows, the
    adjacency submatrix, the counts and the target are gathered once and
    the losses see only that sub-problem. A non-finite loss raises
    NonFiniteLossError carrying the state as it was before the step."""
    epoch = state.epoch
    try:
        adjacency = graph.adjacency
        if subset is not None:
            z = nm.index_rows(z, subset)
            adjacency = adjacency[subset][:, subset]
            counts = counts[subset]
            if target is not None:
                target = target[subset]
        zinb_params = decode_zinb(z, state.params)
        rec = loss_rec(adjacency, z)
        zinb = loss_zinb(counts, zinb_params)
        cls = None
        if target is not None:
            cls = loss_cls(target, soft_assign(z, state.params.cluster_centers))
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


def _init_params(cfg: TrainConfig, n_genes: int) -> ModelParams:
    return init_params(
        n_genes=n_genes,
        latent_dim=cfg.latent_dim,
        hidden_dim=cfg.hidden_dim,
        cheb_order=cfg.cheb_order,
        zinb_dims=cfg.zinb_dims,
        seed=cfg.seed,
    )


def pretrain(
    pre: PreprocessedData,
    graph: CellGraph,
    cfg: TrainConfig,
    state: TrainState | None = None,
    epochs: int | None = None,
) -> TrainState:
    """Full-batch reconstruction + likelihood training for cfg.t1 epochs
    (or resume `state` until `epochs` total), one encode per epoch; writes
    no checkpoint."""
    if state is None:
        state = TrainState(
            phase="pretrain",
            epoch=0,
            params=_init_params(cfg, pre.n_genes),
            adam=AdamState(learning_rate=cfg.lr_pretrain),
        )
    total_epochs = cfg.t1 if epochs is None else epochs
    while state.epoch < total_epochs:
        _train_step(state, encode(pre.normalized, graph, state.params), pre.raw.counts, graph, cfg)
    return state


def formal_train(
    state: TrainState,
    pre: PreprocessedData,
    graph_pruned: CellGraph,
    cfg: TrainConfig,
    epochs: int | None = None,
) -> TrainState:
    """Paced self-training phase over the pruned graph.

    Each epoch encodes the kept graph once. Every cfg.target_update_interval
    epochs that latent refreshes the target, and the phase ends ("done", no
    step) once the churn between consecutive refreshes falls below
    cfg.convergence_tol. The step then trains on the same latent, over the
    easiest kept nodes: the pacing fraction (capped at 1 - alpha) of the
    ORIGINAL node count, floored. Writes no checkpoint.
    """
    if state.report is None or state.prune is None:
        raise NotTrainedError("formal training needs difficulty and pruning results")
    if state.params.cluster_centers is None:
        raise NotTrainedError("formal training needs initialized cluster centers")
    if state.phase == "pretrain":
        state.phase = "formal"
        state.epoch = 0
        state.adam = AdamState(learning_rate=cfg.lr_formal)  # fresh optimizer per phase

    kept_sorted = np.sort(state.prune.kept)
    easiest_first = np.searchsorted(kept_sorted, state.prune.kept)
    norm_kept = pre.normalized[kept_sorted]
    raw_kept = pre.raw.counts[kept_sorted]
    n_original = state.report.n
    pacing = PacingConfig(lambda0=cfg.lambda0, t_hat=cfg.effective_t_hat)

    total_epochs = cfg.t2 if epochs is None else epochs
    while state.epoch < total_epochs:
        t = state.epoch
        z = encode(norm_kept, graph_pruned, state.params)
        if t % cfg.target_update_interval == 0:
            q = soft_assign(z.values, state.params.cluster_centers).values
            labels_now = q.argmax(axis=1)
            churn = None if state.labels_prev is None else np.mean(labels_now != state.labels_prev)
            state.labels_prev = labels_now
            if churn is not None and churn < cfg.convergence_tol:
                state.phase = "done"
                return state
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
        _train_step(state, z, raw_kept, graph_pruned, cfg, subset=subset, target=state.target)
        del z  # frees this epoch's encoder tape before the next forward
    if state.epoch >= cfg.t2:  # partial stepping stays resumable
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
    q = soft_assign(z, state.params.cluster_centers).values
    return q.argmax(axis=1).astype(np.int64)


# -- state persistence -----------------------------------------------------------------


_PHASES = ("pretrain", "formal", "done")


def save_state(state: TrainState, path) -> None:
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


def _check_integers(path, arrays: dict, key: str, limit: float) -> None:
    """Every entry of tensor `key` must be an integer in [0, limit)."""
    values = arrays[key]
    bad = ~((0 <= values) & (values < limit) & (values == np.floor(values)))
    if bad.any():
        raise nm.CheckpointFormatError(
            f"{path}: tensor {key!r}: checkpoint has {values[bad][0].tolist()!r}, "
            f"expected an integer in [0, {limit})"
        )


def _check_shapes(path, arrays: dict, wanted: dict, prefixes: tuple[str, ...]) -> None:
    """Each wanted tensor and each stored one under `prefixes` must be on
    both sides with the same shape."""
    for key in sorted(wanted.keys() | {k for k in arrays if k.startswith(prefixes)}):
        got = arrays[key].shape if key in arrays else "no such tensor"
        want = wanted.get(key, "no such tensor")
        if got != want:
            raise nm.CheckpointFormatError(
                f"{path}: tensor {key!r}: checkpoint has {got}, config expects {want}"
            )


def load_state(path, cfg: TrainConfig, n_genes: int) -> TrainState:
    """Rebuild a saved state; CheckpointFormatError names the first tensor
    that does not fit: a `param.*` shape the config and gene count do not
    give, Adam moments other than none or an `m`/`v` pair per parameter of
    its shape, a phase, epoch or step count that is no index in range,
    kept and dropped nodes that do not split the report's nodes, a target
    or previous labels without one row per kept node (and a target column
    or label per cluster), or subset sizes that are no counts."""
    arrays = nm.load_checkpoint(path)
    params = _init_params(cfg, n_genes)
    if "param.cluster_centers" in arrays:
        params = params.with_centers(np.zeros((cfg.n_clusters, cfg.latent_dim)))
    named = params.named_parameters()
    _check_shapes(path, arrays, {f"param.{n}": t.values.shape for n, t in named}, ("param.",))
    for name, tensor in named:
        tensor.values = arrays[f"param.{name}"]
    limits = {"meta.phase": len(_PHASES), "meta.epoch": np.inf, "adam.step": np.inf}
    _check_shapes(path, arrays, dict.fromkeys([*limits, "adam.lr"], ()), ("meta.",))
    for key, limit in limits.items():
        _check_integers(path, arrays, key, limit)
    adam = AdamState(learning_rate=float(arrays["adam.lr"]), step=int(arrays["adam.step"]))
    moments = ("adam.m", "adam.v")
    if any(k.startswith(moments) for k in arrays):
        wanted = {f"{m}{i}": t.values.shape for i, (_, t) in enumerate(named) for m in moments}
        _check_shapes(path, arrays, wanted, moments)
        adam.first_moment = [arrays[f"adam.m{i}"] for i in range(len(named))]
        adam.second_moment = [arrays[f"adam.v{i}"] for i in range(len(named))]
    history = [
        LossBreakdown(rec=float(row[0]), zinb=float(row[1]), cls=float(row[2]))
        for row in arrays.get("history", np.empty((0, 4)))
    ]
    report = None
    if "report.local" in arrays:
        report = DifficultyReport(
            local=arrays["report.local"],
            global_=arrays["report.global"],
            combined=arrays["report.combined"],
            order=arrays["report.order"].astype(np.intp),
            beta=float(arrays["report.beta"]),
        )
    prune_result, n_kept = None, 0
    if "prune.kept" in arrays:
        n, n_kept = (0 if report is None else report.n), arrays["prune.kept"].size
        wanted = {"prune.kept": (n_kept,), "prune.dropped": (n - n_kept,), "prune.alpha": ()}
        _check_shapes(path, arrays, wanted, ("prune.",))
        for key in ("prune.kept", "prune.dropped"):
            _check_integers(path, arrays, key, n)
        prune_result = PruneResult(
            kept=arrays["prune.kept"].astype(np.intp),
            dropped=arrays["prune.dropped"].astype(np.intp),
            alpha=float(arrays["prune.alpha"]),
        )
        times = np.bincount(np.concatenate([prune_result.kept, prune_result.dropped]), minlength=n)
        if (times != 1).any():
            node = int(np.flatnonzero(times != 1)[0])
            raise nm.CheckpointFormatError(
                f"{path}: tensors 'prune.kept' and 'prune.dropped' hold node {node} "
                f"{times[node]} times, expected once"
            )
    run_shapes = {
        "target": (n_kept, cfg.n_clusters),
        "labels_prev": (n_kept,),
        "subset_sizes": (arrays.get("subset_sizes", np.empty(0)).size,),
    }
    _check_shapes(path, arrays, {k: s for k, s in run_shapes.items() if k in arrays}, ())
    for key, limit in (("labels_prev", cfg.n_clusters), ("subset_sizes", np.inf)):
        if key in arrays:
            _check_integers(path, arrays, key, limit)
    return TrainState(
        phase=_PHASES[int(arrays["meta.phase"])],
        epoch=int(arrays["meta.epoch"]),
        params=params,
        adam=adam,
        loss_history=history,
        report=report,
        prune=prune_result,
        target=arrays.get("target"),
        labels_prev=(
            arrays["labels_prev"].astype(np.int64) if "labels_prev" in arrays else None
        ),
        subset_sizes=(
            arrays["subset_sizes"].astype(int).tolist() if "subset_sizes" in arrays else []
        ),
    )


# -- end-to-end pipeline ------------------------------------------------------------------


@dataclass
class Pretrained:
    """What the stages before pruning produce; none of it depends on alpha
    or the prune strategy, so one value serves any number of tails."""

    cfg: TrainConfig
    preprocessed: PreprocessedData
    graph: CellGraph
    state: TrainState  # pretrained, with the difficulty report
    embedding: np.ndarray  # pretrained latent vector of every cell


@dataclass
class PipelineResult:
    state: TrainState
    preprocessed: PreprocessedData
    graph: CellGraph
    labels: np.ndarray | None  # every original cell; None when clustering was skipped
    pruned_mask: np.ndarray  # True where the cell was pruned before phase 2


def pretrain_and_score(
    data: ExpressionMatrix,
    cfg: TrainConfig,
    laplacian_kind: str = "sym_normalized",
    local_mode: str = "literal",
    checkpoint_dir=None,
) -> Pretrained:
    """Preprocess, build the KNN graph, pretrain, embed and score difficulty.
    Failures raise StageError tagged with the stage that failed."""
    with stage("preprocess"):
        pre = preprocess(data, cfg.n_hvg)
    with stage("graph"):
        graph = knn_graph(pre.normalized, cfg.k_neighbors, laplacian_kind)
    with stage("pretrain"):
        state = pretrain(pre, graph, cfg)
        if checkpoint_dir is not None:
            save_state(state, f"{checkpoint_dir}/pretrain_final.ckpt")
    with stage("difficulty"):
        z = encode(pre.normalized, graph, state.params).values
        state.report = measure_difficulty(z, graph, beta=cfg.beta, local_mode=local_mode)
    return Pretrained(cfg, pre, graph, state, z)


def prune_and_cluster(
    pretrained: Pretrained,
    alpha: float,
    prune_strategy: str = "hard",
    checkpoint_dir=None,
    cluster: bool = True,
) -> PipelineResult:
    """Prune `alpha` of the cells by `prune_strategy`, then (unless `cluster`
    is false) seed the centers, run the paced formal phase and label every
    cell. Works on its own copy of the pretrained state, so `pretrained` can
    serve further calls. Failures raise StageError tagged with the stage."""
    state = copy.deepcopy(pretrained.state)
    pre, graph = pretrained.preprocessed, pretrained.graph
    with stage("prune"):
        cfg = replace(pretrained.cfg, alpha=alpha)
        state.prune = prune(state.report, cfg.alpha, strategy=prune_strategy, seed=cfg.seed)
        graph_pruned, kept_sorted = rebuild_after_prune(graph, state.prune)
    pruned_mask = np.zeros(pre.n_cells, dtype=bool)
    pruned_mask[state.prune.dropped] = True
    labels = None
    if cluster:
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


def run_pipeline(
    data: ExpressionMatrix,
    cfg: TrainConfig,
    laplacian_kind: str = "sym_normalized",
    prune_strategy: str = "hard",
    local_mode: str = "literal",
    checkpoint_dir=None,
) -> PipelineResult:
    pretrained = pretrain_and_score(data, cfg, laplacian_kind, local_mode, checkpoint_dir)
    return prune_and_cluster(pretrained, cfg.alpha, prune_strategy, checkpoint_dir)
