from dataclasses import replace

import numpy as np
import pytest

from celluster import trainer
from celluster.cellgraph import knn_graph
from celluster.curriculum import measure_difficulty, prune, rebuild_after_prune
from celluster.ingest import SynthesisSpec, synthesize
from celluster.losses import NonFiniteLossError
from celluster.metrics import ari
from celluster.model import encode
from celluster.numerics import CheckpointFormatError
from celluster.preprocess import preprocess
from celluster.trainer import TrainConfig


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
        np.testing.assert_array_equal(a.values, b.values)
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


# -- formal phase -----------------------------------------------------------------


def _to_formal_ready(pre, graph, cfg):
    state = trainer.pretrain(pre, graph, cfg)
    z = encode(pre.normalized, graph, state.params).values
    state.report = measure_difficulty(z, graph, beta=cfg.beta)
    state.prune = prune(state.report, cfg.alpha, strategy="hard", seed=cfg.seed)
    graph_pruned, kept_sorted = rebuild_after_prune(graph, state.prune)
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
    expected = [
        min(int(np.floor(pacing_fraction(t, pacing, cfg.alpha) * n)), state.prune.kept.size)
        for t in range(len(sizes))
    ]
    assert sizes == expected


def test_formal_requires_difficulty_and_centers():
    _, pre, graph, cfg = _small_setup(t1=2)
    state = trainer.pretrain(pre, graph, cfg)
    with pytest.raises(trainer.NotTrainedError):
        trainer.formal_train(state, pre, graph, cfg)


def test_masked_losses_at_full_fraction_match_unmasked_exactly():
    # alpha=0, lambda0=1: every epoch trains on all nodes; the masked path
    # must produce bitwise the same numbers as an unmasked evaluation
    _, pre, graph, cfg = _small_setup(t1=3, t2=1, alpha=0.0, lambda0=1.0)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)
    assert state.prune.dropped.size == 0

    from celluster.losses import loss_rec, loss_zinb, masked_total
    from celluster.model import decode_adjacency, decode_zinb

    z = encode(pre.normalized, graph_pruned, state.params)
    a_rec = decode_adjacency(z)
    zinb = decode_zinb(z, state.params)
    full_mask = np.arange(pre.n_cells)
    assert (
        loss_rec(graph_pruned.adjacency, a_rec, mask=full_mask).item()
        == loss_rec(graph_pruned.adjacency, a_rec).item()
    )
    assert (
        loss_zinb(pre.raw.counts, zinb, mask=full_mask).item()
        == loss_zinb(pre.raw.counts, zinb).item()
    )


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
    state.params.cluster_centers.values = state.params.cluster_centers.values[perm]
    relabeled = trainer.predict(state, pre, graph)
    np.testing.assert_array_equal(relabeled, np.argsort(perm)[base])


def test_predict_before_training_errors():
    _, pre, graph, cfg = _small_setup(t1=1)
    state = trainer.pretrain(pre, graph, cfg)
    with pytest.raises(trainer.NotTrainedError):
        trainer.predict(state, pre, graph)


# -- checkpoint resume ---------------------------------------------------------------


def test_pretrain_checkpoint_resume_is_bitwise(tmp_path):
    _, pre, graph, cfg = _small_setup(t1=10)
    straight = trainer.pretrain(pre, graph, cfg)

    half = trainer.pretrain(pre, graph, cfg, epochs=5)
    path = tmp_path / "halfway.ckpt"
    trainer.save_state(half, path)
    resumed = trainer.load_state(path, cfg, n_genes=pre.n_genes)
    trainer.pretrain(pre, graph, cfg, state=resumed, epochs=10)

    assert [b.as_row() for b in resumed.loss_history] == [
        b.as_row() for b in straight.loss_history
    ]
    for (name_a, a), (_, b) in zip(
        resumed.params.named_parameters(), straight.params.named_parameters()
    ):
        assert np.array_equal(a.values, b.values), name_a


def test_formal_checkpoint_resume_is_bitwise(tmp_path):
    _, pre, graph, cfg = _small_setup(t1=4, t2=6, convergence_tol=1e-12)
    state, graph_pruned = _to_formal_ready(pre, graph, cfg)

    import copy

    fork = copy.deepcopy(state)
    trainer.formal_train(state, pre, graph_pruned, cfg)

    trainer.formal_train(fork, pre, graph_pruned, cfg, epochs=3)
    assert fork.phase == "formal"  # partial stepping stays resumable
    path = tmp_path / "formal.ckpt"
    trainer.save_state(fork, path)
    loaded = trainer.load_state(path, cfg, n_genes=pre.n_genes)
    trainer.formal_train(loaded, pre, graph_pruned, cfg)

    assert [b.as_row() for b in loaded.loss_history] == [
        b.as_row() for b in state.loss_history
    ]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"hidden_dim": 8}, r"'param\.enc0\.bias': checkpoint has \(16,\), config expects \(8,\)"),
        ({"cheb_order": 2}, r"'param\.enc0\.theta2': checkpoint has \(20, 16\), config expects no"),
        ({"cheb_order": 4}, r"'param\.enc0\.theta3': checkpoint has no such tensor, config"),
    ],
)
def test_load_state_rejects_tensors_that_do_not_fit_the_config(tmp_path, change, message):
    _, pre, graph, cfg = _small_setup(t1=1, hidden_dim=16)
    path = tmp_path / "pretrain.ckpt"
    trainer.save_state(trainer.pretrain(pre, graph, cfg), path)
    with pytest.raises(CheckpointFormatError, match=message):
        trainer.load_state(path, replace(cfg, **change), n_genes=pre.n_genes)


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


def test_nonfinite_loss_reports_epoch_and_carries_state():
    _, pre, graph, cfg = _small_setup(t1=5)
    state = trainer.pretrain(pre, graph, cfg, epochs=2)
    state.params.encoder_layers[0].theta[0].values[0, 0] = np.nan  # poison
    with pytest.raises(NonFiniteLossError) as err:
        trainer.pretrain(pre, graph, cfg, state=state, epochs=5)
    assert err.value.epoch == 2
    assert err.value.state is state
    assert len(err.value.state.loss_history) == 2  # intact up to the failure
