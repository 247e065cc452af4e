import copy
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from celluster import trainer
from celluster.cellgraph import LAPLACIAN_KINDS, knn_graph, subgraph
from celluster.curriculum import (
    PRUNE_STRATEGIES,
    DifficultyReport,
    PruneResult,
    measure_difficulty,
    prune,
)
from celluster.ingest import SynthesisSpec, synthesize
from celluster.losses import (
    LossBreakdown,
    NonFiniteLossError,
    loss_cls,
    loss_rec,
    loss_zinb,
    target_distribution,
)
from celluster.metrics import ari
from celluster.model import decode_zinb, encode, mlp_forward, soft_assign
from celluster.numerics import AdamState, Tensor
from celluster.preprocess import preprocess
from celluster.trainer import TrainConfig


def _read_checkpoint(path) -> dict[str, np.ndarray]:
    with np.load(path) as f:
        return dict(f)


def _small_setup(seed=0, n_cells=40, n_genes=20, n_clusters=2, **cfg_kwargs):
    data = synthesize(
        SynthesisSpec(
            n_cells=n_cells,
            n_genes=n_genes,
            n_clusters=n_clusters,
            dropout_rate=0.2,
            dispersion=2.0,
            mean_scale=3.0,
            seed=seed + 500,
        )
    )
    defaults = dict(
        n_clusters=n_clusters,
        t1=8,
        t2=6,
        n_hvg=n_genes,
        k_neighbors=5,
        target_update_interval=2,
        seed=seed,
    )
    defaults.update(cfg_kwargs)
    cfg = TrainConfig(**defaults)
    pre = preprocess(data, cfg.n_hvg)
    graph = knn_graph(pre.normalized, cfg.k_neighbors)
    return data, pre, graph, cfg


# -- pretraining -------------------------------------------------------------------


def test_pretrain_zero_epochs_returns_initialization():
    _, pre, graph, cfg = _small_setup(t1=0)
    state = trainer.pretrain(pre, graph, cfg)
    from celluster.model import init_params

    fresh = init_params(
        n_genes=pre.n_genes,
        latent_dim=cfg.latent_dim,
        hidden_dim=cfg.hidden_dim,
        cheb_order=cfg.cheb_order,
        zinb_dims=cfg.zinb_dims,
        seed=cfg.seed,
    )
    for (name_a, a), (name_b, b) in zip(
        state.params.named_parameters(), fresh.named_parameters()
    ):
        assert name_a == name_b
        np.testing.assert_array_equal(a, b)
    assert state.loss_history == []


def test_pretrain_loss_decreases():
    # seed-averaged optimization sanity: epoch-50 total below epoch-0 total
    drops = []
    for seed in range(3):
        _, pre, graph, cfg = _small_setup(seed=seed, t1=50)
        state = trainer.pretrain(pre, graph, cfg)
        drops.append(state.loss_history[49].total < state.loss_history[0].total)
        assert all(b.cls == 0.0 for b in state.loss_history)  # no clustering term yet
    assert np.mean(drops) == 1.0


def test_pretrain_is_deterministic():
    _, pre, graph, cfg = _small_setup(t1=10)
    a = trainer.pretrain(pre, graph, cfg)
    b = trainer.pretrain(pre, graph, cfg)
    assert [x.as_row() for x in a.loss_history] == [y.as_row() for y in b.loss_history]


# -- k-means -----------------------------------------------------------------------


def test_init_centers_recovers_tight_blobs():
    rng = np.random.default_rng(0)
    true_centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate(
        [c + 0.2 * rng.standard_normal((30, 2)) for c in true_centers]
    )
    centers = trainer.init_centers(points, 3, seed=1)
    # each true mean has a found center within the blob radius
    for c in true_centers:
        assert np.min(np.linalg.norm(centers - c, axis=1)) < 0.5


def test_init_centers_single_cluster_is_the_mean():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(25, 3))
    centers = trainer.init_centers(points, 1, seed=0)
    np.testing.assert_allclose(centers[0], points.mean(axis=0), atol=1e-9)


def test_init_centers_deterministic_per_seed():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(40, 4))
    a = trainer.init_centers(points, 3, seed=7)
    b = trainer.init_centers(points, 3, seed=7)
    np.testing.assert_array_equal(a, b)


def test_init_centers_rejects_too_many_clusters():
    with pytest.raises(trainer.DegenerateClusterError):
        trainer.init_centers(np.zeros((3, 2)), 4, seed=0)


def test_init_centers_rejects_points_that_all_coincide():
    # every seeding of two centers on one point leaves a cluster empty
    with pytest.raises(trainer.DegenerateClusterError, match="in 10 consecutive seedings"):
        trainer.init_centers(np.zeros((5, 2)), 2, seed=0)


# -- formal phase -----------------------------------------------------------------


def _to_formal_ready(pre, graph, cfg):
    state = trainer.pretrain(pre, graph, cfg)
    z = encode(pre.normalized, graph, state.params).values
    state.report = measure_difficulty(z, graph, beta=cfg.beta)
    state.prune = prune(state.report, cfg.alpha, strategy="hard", seed=cfg.seed)
    kept_sorted = np.sort(state.prune.kept)
    graph_pruned = subgraph(graph, kept_sorted)
    centers = trainer.init_centers(z[kept_sorted], cfg.n_clusters, seed=cfg.seed)
    state.params = state.params.with_centers(centers)
    return state, graph_pruned


def test_formal_subset_sizes_follow_pacing():
    _, pre, graph, cfg = _small_setup(t1=4, t2=8, alpha=0.1, lambda0=0.25, t_hat=4)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    n = pre.n_cells

    trainer.formal_train(state, pre, graph_pruned, cfg)
    assert state.phase == "done"
    sizes = state.subset_sizes
    assert sizes  # at least one paced epoch ran
    # at t=0 the subset is floor(lambda0 * n_original)
    assert sizes[0] == int(np.floor(cfg.lambda0 * n))
    # sizes never decrease and never exceed the kept count
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert max(sizes) <= state.prune.kept.size

    from celluster.curriculum import PacingConfig, pacing_fraction

    pacing = PacingConfig(lambda0=cfg.lambda0, t_hat=cfg.effective_t_hat)
    fractions = [pacing_fraction(t, pacing, cfg.alpha) for t in range(len(sizes))]
    expected = [
        min(int(np.floor(f * n)), state.prune.kept.size) if f < 1 - cfg.alpha
        else state.prune.kept.size
        for f in fractions
    ]
    assert sizes == expected


def test_paced_subset_at_the_cap_is_every_kept_node():
    # 40 * 0.11 = 4.4: pruning keeps 40 - 4 = 36 nodes, while the capped
    # fraction gives floor(0.89 * 40) = 35, one short of the hardest kept node
    data = synthesize(SynthesisSpec(40, 20, 2, seed=3))
    cfg = TrainConfig(
        n_clusters=2, t1=2, t2=6, t_hat=2, n_hvg=20, k_neighbors=5, alpha=0.11,
        target_update_interval=100,
    )
    result = trainer.run_pipeline(data, cfg)
    assert result.state.prune.kept.size == 36
    assert result.state.subset_sizes == [10, 20, 36, 36, 36, 36]


@pytest.mark.parametrize("seed, epochs, calls", [(1, 6, 6), (0, 4, 5)])
def test_formal_train_encodes_the_kept_graph_once_per_epoch(monkeypatch, seed, epochs, calls):
    # the target refresh reuses the latent the step trains on; seed 0 stops
    # on zero churn at the epoch-4 refresh, whose forward has no step
    _, pre, graph, cfg = _small_setup(seed=seed, t2=6, convergence_tol=1e-12)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    graphs = []

    def counting_encode(*args):
        graphs.append(args[1])
        return encode(*args)

    monkeypatch.setattr(trainer, "encode", counting_encode)
    trainer.formal_train(state, pre, graph_pruned, cfg)
    assert state.phase == "done" and state.epoch == epochs
    assert len(graphs) == calls
    assert all(g is graph_pruned for g in graphs)


def test_each_epoch_of_either_phase_calls_backward_once(monkeypatch):
    # the benchmark times Tensor.backward as the layer numerics.backward
    # (numerics.backward.calls): through the whole pipeline it runs once per
    # trained epoch of either phase, on the latent of every node the epoch
    # encodes, and nowhere else (seed 1 trains all 6 formal epochs, as in
    # the test above)
    data, _, _, cfg = _small_setup(seed=1, t2=6, convergence_tol=1e-12)
    shapes = []
    backward = Tensor.backward

    def counting_backward(self, g):
        shapes.append(self.shape)
        return backward(self, g)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    result = trainer.run_pipeline(data, cfg)
    formal_epochs = result.state.epoch
    assert formal_epochs == len(result.state.subset_sizes) == cfg.t2
    assert len(shapes) == cfg.t1 + formal_epochs
    kept = data.n_cells - result.pruned_mask.sum()
    assert shapes == [(data.n_cells, cfg.latent_dim)] * cfg.t1 + [(kept, cfg.latent_dim)] * cfg.t2


@pytest.mark.parametrize("seed, epochs, reason", [(1, 6, "max_epochs"), (0, 4, "converged")])
def test_formal_train_records_why_it_stopped(seed, epochs, reason):
    # the two cases of the test above: seed 1 trains all t2 = 6 epochs, seed 0
    # stops on zero churn at the epoch-4 refresh
    _, pre, graph, cfg = _small_setup(seed=seed, t2=6, convergence_tol=1e-12)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    assert state.stop_reason is None
    trainer.formal_train(state, pre, graph_pruned, cfg)
    assert (state.stop_reason, state.epoch, len(state.subset_sizes)) == (reason, epochs, epochs)


@pytest.mark.parametrize("seed, epochs, reason", [(1, 6, "max_epochs"), (0, 4, "converged")])
def test_formal_final_checkpoint_records_why_it_stopped(tmp_path, seed, epochs, reason):
    # the two cases of the test above, through the pipeline and read back:
    # the formal checkpoint names the reason, the pretraining one has none
    data, _, _, cfg = _small_setup(seed=seed, t2=6, convergence_tol=1e-12)
    trainer.run_pipeline(data, cfg, checkpoint_dir=tmp_path)
    assert "meta.stop_reason" not in _read_checkpoint(tmp_path / "pretrain_final.ckpt")
    formal = _read_checkpoint(tmp_path / "formal_final.ckpt")
    assert formal["meta.epoch"] == epochs
    assert trainer._STOP_REASONS[int(formal["meta.stop_reason"])] == reason


def test_formal_requires_difficulty_and_centers():
    _, pre, graph, cfg = _small_setup(t1=2)
    state = trainer.pretrain(pre, graph, cfg)
    with pytest.raises(trainer.NotTrainedError):
        trainer.formal_train(state, pre, graph, cfg)


def _formal_step(state, pre, graph_pruned, cfg, subset):
    """One formal _train_step on a copy of `state` against the current soft
    assignment's target; returns the copy and that target."""
    state = copy.deepcopy(state)
    kept_sorted = np.sort(state.prune.kept)
    z = encode(pre.normalized[kept_sorted], graph_pruned, state.params)
    target = target_distribution(soft_assign(z.values, state.params.cluster_centers))
    state.phase, state.epoch = "formal", 0
    state.adam = AdamState(learning_rate=cfg.lr_formal)
    counts = pre.raw.counts[kept_sorted if subset is None else kept_sorted[subset]]
    trainer._train_step(state, z, counts, graph_pruned, cfg, subset=subset, target=target)
    return state, target


def test_train_step_subset_of_every_node_equals_no_subset():
    # gathering every node must change no bit of the losses or the update
    _, pre, graph, cfg = _small_setup(t1=3, t2=1)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    assert state.prune.dropped.size > 0
    every = np.arange(graph_pruned.n)
    gathered, _ = _formal_step(state, pre, graph_pruned, cfg, every)
    whole, _ = _formal_step(state, pre, graph_pruned, cfg, None)
    assert gathered.loss_history == whole.loss_history
    assert whole.loss_history[-1].cls > 0.0
    for (name, a), (_, b) in zip(
        gathered.params.named_parameters(), whole.params.named_parameters()
    ):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_train_step_single_node_subset_on_an_isolated_node():
    # pruning every neighbour of cell 0 leaves it isolated in the kept graph;
    # a one-node subset then sees a 1 x 1 zero adjacency
    _, pre, graph, cfg = _small_setup(t1=3, t2=1)
    state = trainer.pretrain(pre, graph, cfg)
    z_all = encode(pre.normalized, graph, state.params).values
    state.report = measure_difficulty(z_all, graph, beta=cfg.beta)
    dropped = graph.adjacency[0].indices
    kept = state.report.order[~np.isin(state.report.order, dropped)]  # easiest first
    state.prune = PruneResult(kept=kept, dropped=np.sort(dropped), alpha=cfg.alpha)
    kept_sorted = np.sort(state.prune.kept)
    graph_pruned = subgraph(graph, kept_sorted)
    state.params = state.params.with_centers(
        trainer.init_centers(z_all[kept_sorted], cfg.n_clusters, seed=cfg.seed)
    )
    node = int(np.searchsorted(kept_sorted, 0))
    assert graph_pruned.degrees[node] == 0

    stepped, target = _formal_step(state, pre, graph_pruned, cfg, np.array([node]))
    z = encode(pre.normalized[kept_sorted], graph_pruned, state.params).values[[node]]
    rec = (1.0 / (1.0 + np.exp(-float(z[0] @ z[0])))) ** 2  # A = 0: (0 - sigmoid(z.z))^2
    zinb = loss_zinb(pre.raw.counts[[0]], decode_zinb(z, state.params))[0]
    cls = loss_cls(target[[node]], z, state.params.cluster_centers)[0]
    got = stepped.loss_history[-1]
    assert got.rec == pytest.approx(rec, rel=1e-12)
    assert got.zinb == pytest.approx(zinb, rel=1e-12)
    assert got.cls == pytest.approx(cls, rel=1e-12)
    assert not np.array_equal(stepped.params.cluster_centers, state.params.cluster_centers)


def test_latent_gradient_sums_every_criterion_in_a_fixed_order():
    # the encoder's backward receives (w_rec dz_rec + w_zinb dz_zinb) +
    # w_cls dz_cls, with the paced subset's rows scattered back into every
    # node's: the bits that seeded runs depend on. On this sub-problem no
    # term is zero and the other association gives other bits
    from celluster.cellgraph import _from_adjacency
    from celluster.model import init_params

    rng = np.random.default_rng(8)
    upper = np.triu(rng.random((8, 8)) < 0.5, k=1)
    graph = _from_adjacency(sp.csr_matrix((upper | upper.T).astype(float)), "sym_normalized")
    params = init_params(n_genes=4, latent_dim=2, hidden_dim=3, zinb_dims=(3,), seed=8)
    params = params.with_centers(rng.normal(size=(2, 2)))
    z = encode(rng.normal(size=(8, 4)), graph, params)
    counts = rng.poisson(1.0, size=(8, 4))
    target = target_distribution(soft_assign(z.values, params.cluster_centers))
    subset = np.array([5, 0, 3, 6])
    latent = z.values[subset]
    _, (dz_rec,) = loss_rec(graph.adjacency[subset][:, subset], latent)
    _, (dz_zinb, *_) = loss_zinb(counts, decode_zinb(latent, params), subset)
    _, (dz_cls, _) = loss_cls(target[subset], latent, params.cluster_centers)
    terms = 0.5 * dz_rec, 2.0 * dz_zinb, 3.0 * dz_cls
    assert all(np.all(t != 0.0) for t in terms)
    assert not np.array_equal((terms[0] + terms[1]) + terms[2], terms[0] + (terms[1] + terms[2]))
    want = np.zeros(z.shape)
    np.add.at(want, subset, (terms[0] + terms[1]) + terms[2])
    received = []

    def backward(g):
        received.append(g)
        return z.backward(g)

    state = trainer.TrainState("formal", 0, params, AdamState(learning_rate=1e-4))
    cfg = TrainConfig(n_clusters=2, loss_weights=(0.5, 2.0, 3.0))
    trainer._train_step(
        state, Tensor(z.values, backward), counts, graph, cfg,
        subset=subset, target=target, count_rows=subset,
    )
    assert len(received) == 1 and np.array_equal(received[0], want)


@pytest.mark.parametrize("with_cls", [True, False], ids=["cls", "no-cls"])
def test_step_gradients_match_finite_differences(with_cls):
    # the parameter gradients that one step over the whole graph hands to
    # Adam, along one random direction per array, against central
    # differences of the total it logs, at random criterion weights: the
    # formal step with the clustering term and the pretraining step without
    # it. Non-zero biases keep every relu input off its kink
    from celluster.cellgraph import _from_adjacency
    from celluster.model import init_params
    from gradcheck import step_gradient_error

    for seed in range(3):
        rng = np.random.default_rng(4000 + seed)
        upper = np.triu(rng.random((5, 5)) < 0.5, k=1)
        graph = _from_adjacency(sp.csr_matrix((upper | upper.T).astype(float)), "sym_normalized")
        params = init_params(n_genes=3, latent_dim=2, hidden_dim=3, zinb_dims=(3,), seed=seed)
        params = params.map_named(
            lambda name, a: rng.uniform(-1.0, 1.0, size=a.shape) if name.endswith("bias") else a
        )
        target = None
        if with_cls:
            params = params.with_centers(rng.normal(size=(2, 2)))
            target = rng.random((5, 2))
            target /= target.sum(axis=1, keepdims=True)
        x = rng.normal(size=(5, 3))
        cfg = TrainConfig(n_clusters=2, loss_weights=tuple(rng.uniform(0.5, 2.0, size=3)))
        counts = rng.poisson(1.0, size=(5, 3))
        err = step_gradient_error(params, x, graph, counts, cfg, rng=rng, target=target)
        assert err < 1e-5, f"seed {seed}: max relative error {err}"


def test_formal_convergence_stops_early():
    _, pre, graph, cfg = _small_setup(t1=30, t2=50, convergence_tol=1.1)
    # a tolerance above 1 means any refresh after the first "converges"
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    trainer.formal_train(state, pre, graph_pruned, cfg)
    assert state.phase == "done"
    assert len(state.loss_history) < cfg.t1 + cfg.t2


def test_predict_all_nodes_with_single_cluster():
    _, pre, graph, cfg = _small_setup(n_clusters=1, t1=2, t2=2)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    trainer.formal_train(state, pre, graph_pruned, cfg)
    labels = trainer.predict(state, pre, graph)
    assert labels.shape == (pre.n_cells,)
    assert set(labels.tolist()) == {0}


def test_predict_labels_are_permutation_stable():
    # relabeling clusters (permuting center rows) permutes the output labels
    _, pre, graph, cfg = _small_setup(n_clusters=2, t1=4, t2=2)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    trainer.formal_train(state, pre, graph_pruned, cfg)
    base = trainer.predict(state, pre, graph)
    perm = np.array([1, 0])
    state.params = state.params.with_centers(state.params.cluster_centers[perm])
    relabeled = trainer.predict(state, pre, graph)
    np.testing.assert_array_equal(relabeled, np.argsort(perm)[base])


def test_predict_before_training_errors():
    _, pre, graph, cfg = _small_setup(t1=1)
    state = trainer.pretrain(pre, graph, cfg)
    with pytest.raises(trainer.NotTrainedError):
        trainer.predict(state, pre, graph)


# -- checkpoint resume ---------------------------------------------------------------


def _rebuilt_from(path, like):
    """A state read back from the checkpoint at `path`: `like` lends only the
    parameter layout, every value comes from the file."""
    arrays = _read_checkpoint(path)
    state = copy.deepcopy(like)
    state.params = state.params.map_named(lambda name, _: arrays[f"param.{name}"])
    state.phase = trainer._PHASES[int(arrays["meta.phase"])]
    state.epoch = int(arrays["meta.epoch"])
    state.adam = AdamState(learning_rate=float(arrays["adam.lr"]), step=int(arrays["adam.step"]))
    n_moments = sum(k.startswith("adam.m") for k in arrays)
    state.adam.first_moment = [arrays[f"adam.m{i}"] for i in range(n_moments)]
    state.adam.second_moment = [arrays[f"adam.v{i}"] for i in range(n_moments)]
    state.loss_history = [
        LossBreakdown(rec=row[0], zinb=row[1], cls=row[2])
        for row in arrays.get("history", np.empty((0, 4)))
    ]
    state.report = None
    if "report.order" in arrays:
        state.report = DifficultyReport(
            local=arrays["report.local"],
            global_=arrays["report.global"],
            combined=arrays["report.combined"],
            order=arrays["report.order"].astype(np.intp),
            beta=float(arrays["report.beta"]),
        )
    state.prune = None
    if "prune.kept" in arrays:
        state.prune = PruneResult(
            kept=arrays["prune.kept"].astype(np.intp),
            dropped=arrays["prune.dropped"].astype(np.intp),
            alpha=float(arrays["prune.alpha"]),
        )
    state.target = arrays.get("target")
    state.labels_prev = arrays["labels_prev"].astype(np.int64) if "labels_prev" in arrays else None
    state.subset_sizes = arrays.get("subset_sizes", np.empty(0)).astype(int).tolist()
    return state


def _assert_same_run(a, b):
    assert [x.as_row() for x in a.loss_history] == [y.as_row() for y in b.loss_history]
    assert (a.phase, a.epoch, a.adam.step) == (b.phase, b.epoch, b.adam.step)
    for (name, x), (_, y) in zip(a.params.named_parameters(), b.params.named_parameters()):
        assert np.array_equal(x, y), name


def test_pretrain_checkpoint_resume_is_bitwise(tmp_path):
    # a checkpoint written halfway through pretraining holds all the optimizer
    # needs: five more epochs from the file end where ten straight ones do
    _, pre, graph, cfg = _small_setup(t1=10)
    straight = trainer.pretrain(pre, graph, cfg)

    half = trainer.pretrain(pre, graph, replace(cfg, t1=5))
    path = tmp_path / "halfway.ckpt"
    trainer.save_state(half, path)
    resumed = _rebuilt_from(path, like=half)
    assert resumed.adam.first_moment  # the moments came back from the file
    while resumed.epoch < cfg.t1:
        z = encode(pre.normalized, graph, resumed.params)
        trainer._train_step(resumed, z, pre.raw.counts, graph, cfg)

    _assert_same_run(resumed, straight)


def test_formal_checkpoint_resume_is_bitwise(tmp_path):
    # a checkpoint of a state ready for the formal phase (centers, difficulty
    # report and pruning included) trains to the same end as the state itself
    _, pre, graph, cfg = _small_setup(t1=4, t2=6, convergence_tol=1e-12)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    path = tmp_path / "formal_ready.ckpt"
    trainer.save_state(state, path)
    loaded = _rebuilt_from(path, like=state)

    trainer.formal_train(state, pre, graph_pruned, cfg)
    trainer.formal_train(loaded, pre, graph_pruned, cfg)

    _assert_same_run(loaded, state)
    assert loaded.subset_sizes == state.subset_sizes
    np.testing.assert_array_equal(loaded.labels_prev, state.labels_prev)


# -- full pipeline ---------------------------------------------------------------------


def test_pipeline_recovers_synthetic_blobs():
    # 3-seed median at reduced scale; the full-scale recovery criterion
    # lives in the acceptance suite
    scores = []
    for seed in range(3):
        data = synthesize(
            SynthesisSpec(
                n_cells=120, n_genes=60, n_clusters=3, dropout_rate=0.25,
                dispersion=2.0, mean_scale=3.5, seed=41 + seed,
            )
        )
        cfg = TrainConfig(
            n_clusters=3, t1=60, t2=30, n_hvg=60, k_neighbors=8, seed=seed,
            target_update_interval=2,
        )
        result = trainer.run_pipeline(data, cfg)
        scores.append(ari(data.labels, result.labels))
        assert result.pruned_mask.sum() == int(np.floor(cfg.alpha * data.n_cells))
        assert result.labels.shape == (data.n_cells,)
    assert float(np.median(scores)) >= 0.9, scores


def test_pipeline_is_bit_reproducible():
    data = synthesize(
        SynthesisSpec(n_cells=50, n_genes=25, n_clusters=2, seed=9, mean_scale=3.0)
    )
    cfg = TrainConfig(
        n_clusters=2, t1=6, t2=4, n_hvg=25, k_neighbors=5, seed=3,
        target_update_interval=2,
    )
    a = trainer.run_pipeline(data, cfg)
    b = trainer.run_pipeline(data, cfg)
    assert np.array_equal(a.labels, b.labels)
    assert [x.as_row() for x in a.state.loss_history] == [
        y.as_row() for y in b.state.loss_history
    ]
    np.testing.assert_array_equal(a.state.report.combined, b.state.report.combined)


def test_pretrained_state_drops_its_adam_moments_once_checkpointed(tmp_path):
    # every tail starts a fresh optimizer: the checkpoint keeps the moments,
    # the state that serves the tails does not, and no tail changes for it
    data = synthesize(
        SynthesisSpec(n_cells=50, n_genes=25, n_clusters=2, seed=9, mean_scale=3.0)
    )
    cfg = TrainConfig(
        n_clusters=2, t1=6, t2=4, n_hvg=25, k_neighbors=5, seed=3,
        target_update_interval=2,
    )
    pretrained = trainer.pretrain_and_score(data, cfg, checkpoint_dir=tmp_path)
    assert pretrained.state.adam.first_moment == [] == pretrained.state.adam.second_moment
    assert pretrained.state.adam.step == cfg.t1
    arrays = _read_checkpoint(tmp_path / "pretrain_final.ckpt")
    state = copy.deepcopy(pretrained.state)
    n_params = len(state.params.named_parameters())
    state.adam.first_moment = [arrays[f"adam.m{i}"] for i in range(n_params)]
    state.adam.second_moment = [arrays[f"adam.v{i}"] for i in range(n_params)]
    with_moments = replace(pretrained, state=state)
    for alpha in (0.1, 0.3):
        cell_cfg = replace(cfg, alpha=alpha)
        a = trainer.prune_and_cluster(replace(pretrained, cfg=cell_cfg))
        b = trainer.prune_and_cluster(replace(with_moments, cfg=cell_cfg))
        assert np.array_equal(a.labels, b.labels)
        assert [x.as_row() for x in a.state.loss_history] == [
            y.as_row() for y in b.state.loss_history
        ]


def _fifty_cells():
    data = synthesize(
        SynthesisSpec(n_cells=50, n_genes=25, n_clusters=2, seed=9, mean_scale=3.0)
    )
    cfg = TrainConfig(
        n_clusters=2, t1=6, t2=4, n_hvg=25, k_neighbors=5, seed=3,
        target_update_interval=2,
    )
    return data, cfg


def test_one_pretrained_value_serves_two_tails_in_either_order():
    # each tail starts from the pretrained arrays, which its steps replace
    # and never write, so neither tail sees the other
    data, cfg = _fifty_cells()
    pretrained = trainer.pretrain_and_score(data, cfg)
    arrays = [a for _, a in pretrained.state.params.named_parameters()]
    before = [a.copy() for a in arrays]
    cells = [
        replace(pretrained, cfg=replace(cfg, alpha=alpha, prune_strategy=strategy))
        for alpha, strategy in ((0.1, "hard"), (0.3, "easy"))
    ]
    in_order = [trainer.prune_and_cluster(cell) for cell in cells]
    reversed_order = [trainer.prune_and_cluster(cell) for cell in cells[::-1]][::-1]
    for a, b in zip(in_order, reversed_order):
        assert np.array_equal(a.labels, b.labels)
        assert a.state.loss_history == b.state.loss_history
        assert a.state.subset_sizes == b.state.subset_sizes
        for (name, x), (_, y) in zip(
            a.state.params.named_parameters(), b.state.params.named_parameters()
        ):
            np.testing.assert_array_equal(x, y, err_msg=name)
    named = pretrained.state.params.named_parameters()
    for (name, a), array, want in zip(named, arrays, before):
        assert a is array, name
        np.testing.assert_array_equal(a, want, err_msg=name)
    state = pretrained.state
    assert (state.phase, state.epoch, state.prune, state.stop_reason) == ("pretrain", cfg.t1, None, None)
    assert len(state.loss_history) == cfg.t1 and state.subset_sizes == []


def test_pretrain_frees_the_initial_parameters_after_the_first_step(monkeypatch):
    # each step replaces the parameters, so nothing may keep the initial
    # ones: at 300 x 200 they are 5.2 MB held for the whole phase
    refs, alive_at_steps = [], []
    init, step = trainer.init_params, trainer._train_step

    def initializing(*args, **kwargs):
        params = init(*args, **kwargs)
        refs.extend(weakref.ref(a) for _, a in params.named_parameters())
        return params

    def stepping(state, *args, **kwargs):
        alive_at_steps.append(sum(ref() is not None for ref in refs))
        step(state, *args, **kwargs)

    monkeypatch.setattr(trainer, "init_params", initializing)
    monkeypatch.setattr(trainer, "_train_step", stepping)
    _, pre, graph, cfg = _small_setup(t1=3)
    trainer.pretrain(pre, graph, cfg)
    assert alive_at_steps == [len(refs), 0, 0] and refs


def test_run_pipeline_frees_the_pretrained_parameters_after_the_first_formal_step(monkeypatch):
    refs, alive_at_formal_steps = [], []
    score, step = trainer.pretrain_and_score, trainer._train_step

    def scoring(*args, **kwargs):
        pretrained = score(*args, **kwargs)
        refs.extend(weakref.ref(a) for _, a in pretrained.state.params.named_parameters())
        return pretrained

    def stepping(state, *args, **kwargs):
        if state.phase == "formal":
            alive_at_formal_steps.append(sum(ref() is not None for ref in refs))
        step(state, *args, **kwargs)

    monkeypatch.setattr(trainer, "pretrain_and_score", scoring)
    monkeypatch.setattr(trainer, "_train_step", stepping)
    trainer.run_pipeline(*_fifty_cells())
    assert len(alive_at_formal_steps) >= 2
    assert alive_at_formal_steps[0] == len(refs) > 0
    assert alive_at_formal_steps[1:] == [0] * (len(alive_at_formal_steps) - 1)


def test_pipeline_checkpoints_hold_each_phase_final_state(tmp_path):
    data = synthesize(
        SynthesisSpec(n_cells=50, n_genes=25, n_clusters=2, seed=9, mean_scale=3.0)
    )
    cfg = TrainConfig(
        n_clusters=2, t1=6, t2=4, n_hvg=25, k_neighbors=5, seed=3,
        target_update_interval=2,
    )
    result = trainer.run_pipeline(data, cfg, checkpoint_dir=tmp_path)

    pretrained = _read_checkpoint(tmp_path / "pretrain_final.ckpt")
    assert (pretrained["meta.phase"], pretrained["meta.epoch"]) == (0.0, cfg.t1)
    params = [k for k in pretrained if k.startswith("param.")]
    assert "param.cluster_centers" not in params
    moments = sorted(k for k in pretrained if k.startswith(("adam.m", "adam.v")))
    assert moments == sorted(f"adam.{m}{i}" for i in range(len(params)) for m in "mv")
    for i, key in enumerate(params):
        assert pretrained[f"adam.m{i}"].shape == pretrained[f"adam.v{i}"].shape
        assert pretrained[f"adam.m{i}"].shape == pretrained[key].shape, key

    formal = _read_checkpoint(tmp_path / "formal_final.ckpt")
    assert formal["meta.phase"] == 2.0
    named = result.state.params.named_parameters()
    assert [k for k in formal if k.startswith("param.")] == [f"param.{n}" for n, _ in named]
    for name, array in named:
        assert np.array_equal(formal[f"param.{name}"], array), name
    dropped = np.sort(formal["prune.dropped"])
    np.testing.assert_array_equal(dropped, np.flatnonzero(result.pruned_mask))


def test_pipeline_predicts_kmeans_consistent_labels():
    # the final hard labels should agree with k-means re-run on the final
    # embedding up to a modest ARI slack
    data = synthesize(
        SynthesisSpec(
            n_cells=90, n_genes=40, n_clusters=3, dropout_rate=0.25,
            dispersion=2.0, mean_scale=3.0, seed=42,
        )
    )
    cfg = TrainConfig(
        n_clusters=3, t1=40, t2=20, n_hvg=40, k_neighbors=8, seed=2,
        target_update_interval=2,
    )
    result = trainer.run_pipeline(data, cfg)
    z = encode(result.preprocessed.normalized, result.graph, result.state.params).values
    km_centers = trainer.init_centers(z, 3, seed=11)
    km_labels = ((z[:, None, :] - km_centers[None]) ** 2).sum(axis=2).argmin(axis=1)
    assert ari(km_labels, result.labels) >= 0.95


def test_nonfinite_loss_reports_epoch_and_carries_state(monkeypatch):
    _, pre, graph, cfg = _small_setup(t1=5)
    calls = []

    def poisoned_encode(*args):
        z = encode(*args)
        calls.append(None)
        if len(calls) == 3:  # epoch 2's latent
            z.values = np.full_like(z.values, np.nan)
        return z

    monkeypatch.setattr(trainer, "encode", poisoned_encode)
    with pytest.raises(NonFiniteLossError) as err:
        trainer.pretrain(pre, graph, cfg)
    assert err.value.epoch == 2
    assert (err.value.state.phase, err.value.state.epoch) == ("pretrain", 2)
    assert len(err.value.state.loss_history) == 2  # intact up to the failure


def test_non_finite_gradient_raises_before_adam_moves_anything():
    # An infinite mu head weight on a hidden unit that is positive in every
    # cell: that gene's mu clamp binds, so the loss stays finite, but the
    # clamp's zero gradient meets the weight in dH = G W^T as 0 * inf = NaN.
    _, pre, graph, cfg = _small_setup(t1=1)
    state = trainer.pretrain(pre, graph, cfg)  # one step, so Adam has moments
    latent = encode(pre.normalized, graph, state.params).values
    hidden = mlp_forward(latent, state.params.zinb_fc)[-1]
    unit = int(np.flatnonzero(hidden.min(axis=0) > 0.0)[0])
    head_mu = state.params.head_mu.copy()
    head_mu[unit, 0] = np.inf
    state.params = replace(state.params, head_mu=head_mu)
    params, adam = state.params, copy.deepcopy(state.adam)

    z = encode(pre.normalized, graph, params)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError) as err:
        trainer._train_step(state, z, pre.raw.counts, graph, cfg)
    message = str(err.value)
    assert message.startswith("pretrain gradient non-finite at epoch 1 in enc0.theta0, ")
    assert "zinb_fc0.weight" in message and "head_mu.weight" not in message
    assert err.value.epoch == 1 and err.value.state is state
    assert state.params is params and state.epoch == 1 and len(state.loss_history) == 1
    assert state.adam.step == adam.step == 1
    for got, want in zip(
        state.adam.first_moment + state.adam.second_moment,
        adam.first_moment + adam.second_moment,
    ):
        np.testing.assert_array_equal(got, want)


# -- pruning edge cases (property tests) ------------------------------------------------

_TINY_SPEC = SynthesisSpec(
    n_cells=24, n_genes=10, n_clusters=2, dropout_rate=0.2, dispersion=2.0, mean_scale=3.0,
    seed=7,
)


def _tiny_config(**overrides):
    keys = dict(
        n_clusters=2, t1=2, t2=4, n_hvg=10, k_neighbors=2, latent_dim=4, hidden_dim=8,
        zinb_dims=(8, 8, 8), target_update_interval=2,
    )
    keys.update(overrides)
    return TrainConfig(**keys)


@pytest.fixture(scope="module")
def tiny_pretrained():
    # prune_and_cluster leaves the pretrained value as it was, so one serves every example
    return trainer.pretrain_and_score(synthesize(_TINY_SPEC), _tiny_config())


def _assert_trained(result, n_clusters):
    history = np.array([row.as_row() for row in result.state.loss_history])
    assert np.isfinite(history).all()
    assert result.state.phase == "done" and result.state.subset_sizes
    assert result.labels.shape == (result.preprocessed.n_cells,)
    assert 0 <= result.labels.min() and result.labels.max() < n_clusters


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pruning_that_isolates_a_node_keeps_finite_operators_and_trains(tiny_pretrained, data):
    graph = tiny_pretrained.graph
    node = data.draw(st.integers(0, graph.n - 1), label="isolated node")
    linked = set(graph.adjacency[node].indices) | {node}
    others = [u for u in range(graph.n) if u not in linked]
    kept = np.sort([node, *data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True))])
    isolated = int(np.searchsorted(kept, node))
    for kind in LAPLACIAN_KINDS:
        sub = subgraph(replace(graph, laplacian_kind=kind), kept)
        assert sub.degrees[isolated] == 0
        assert np.isfinite(sub.lambda_max) and np.isfinite(sub.scaled_laplacian.data).all()

    order = tiny_pretrained.state.report.order
    in_kept = np.isin(order, kept)
    result = PruneResult(order[in_kept], order[~in_kept], alpha=1.0 - kept.size / graph.n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "prune", lambda *args, **kwargs: result)
        cfg = replace(tiny_pretrained.cfg, alpha=result.alpha)
        pruned = trainer.prune_and_cluster(replace(tiny_pretrained, cfg=cfg))
        _assert_trained(pruned, n_clusters=2)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.0, 0.95),
    extra=st.integers(1, 4),
    strategy=st.sampled_from(PRUNE_STRATEGIES),
)
def test_more_clusters_than_kept_nodes_fails_tagged_centers(alpha, extra, strategy):
    n = _TINY_SPEC.n_cells
    kept = n - int(np.floor(alpha * n))
    cfg = _tiny_config(n_clusters=kept + extra, alpha=alpha, prune_strategy=strategy)
    with pytest.raises(trainer.StageError) as err:
        trainer.run_pipeline(synthesize(_TINY_SPEC), cfg)
    if kept + extra > n:  # more clusters than cells is caught before any training
        want = f"[preprocess] n_clusters={kept + extra} exceeds the input's {n} cells"
        assert str(err.value) == want
    else:
        assert str(err.value) == f"[centers] {kept + extra} clusters for {kept} points"


@settings(max_examples=25, deadline=None)
@given(
    zero_genes=st.lists(st.integers(0, _TINY_SPEC.n_genes - 1), min_size=1, max_size=4,
                        unique=True),
    hvg_drop=st.integers(0, 3),
    seed=st.integers(0, 3),
)
def test_all_zero_genes_kept_by_hvg_train_with_finite_losses(zero_genes, hvg_drop, seed):
    data = synthesize(replace(_TINY_SPEC, seed=_TINY_SPEC.seed + seed))
    counts = data.counts.copy()
    counts[:, zero_genes] = 0
    assume(counts.sum(axis=1).min() > 0)  # an all-zero cell is a different error
    # more genes selected than have counts, so at least one all-zero gene is kept
    n_hvg = max(_TINY_SPEC.n_genes - hvg_drop, _TINY_SPEC.n_genes - len(zero_genes) + 1)
    cfg = _tiny_config(n_hvg=n_hvg, seed=seed)
    result = trainer.run_pipeline(replace(data, counts=counts), cfg)
    assert not result.preprocessed.raw.counts.sum(axis=0).all()
    _assert_trained(result, n_clusters=2)
