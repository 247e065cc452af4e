import math

import numpy as np
import pytest
import scipy.sparse as sp

from celluster import curriculum
from celluster.cellgraph import _from_adjacency


def _graph_from_dense(adj, kind="sym_normalized"):
    return _from_adjacency(sp.csr_matrix(np.asarray(adj, dtype=float)), kind)


def _path3():
    return _graph_from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def _random_graph(rng, n, p=0.35):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return _graph_from_dense((upper | upper.T).astype(float))


# -- local difficulty ------------------------------------------------------------


def test_local_difficulty_identical_neighbors_count_degree():
    graph = _path3()
    z = np.tile([1.0, 2.0], (3, 1))  # every embedding identical: cosine 1
    local = curriculum.local_difficulty(z, graph)
    np.testing.assert_allclose(local, graph.degrees.astype(float), atol=1e-12)


def test_local_difficulty_hand_cosine():
    # u = (1, 0) with single neighbor v = (1, 1): cosine = 1/sqrt(2)
    graph = _graph_from_dense([[0, 1], [1, 0]])
    z = np.array([[1.0, 0.0], [1.0, 1.0]])
    local = curriculum.local_difficulty(z, graph)
    assert local[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert local[0] == pytest.approx(0.70711, abs=5e-6)


def test_local_difficulty_orthogonal_neighbor_contributes_zero():
    graph = _graph_from_dense([[0, 1], [1, 0]])
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(curriculum.local_difficulty(z, graph), [0.0, 0.0], atol=1e-15)


def test_local_difficulty_isolated_and_zero_norm_rows():
    graph = _graph_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # node 2 isolated
    z = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 4.0]])  # node 1 zero-norm
    local = curriculum.local_difficulty(z, graph)
    assert local[2] == 0.0  # isolated
    assert local[0] == 0.0  # its only neighbor has zero norm
    assert local[1] == 0.0


def test_local_difficulty_matches_the_dense_similarity_matrix():
    # the per-edge form against A * (U U^T) summed by rows, on a graph with
    # an isolated node (0) and a zero-norm embedding row (3)
    rng = np.random.default_rng(4)
    adj = np.triu(rng.random((12, 12)) < 0.4, k=1).astype(float)
    adj = adj + adj.T
    adj[0, :] = adj[:, 0] = 0.0
    graph = _graph_from_dense(adj)
    z = rng.normal(size=(12, 5))
    z[3] = 0.0
    unit = z / np.maximum(np.linalg.norm(z, axis=1), 1e-300)[:, None]
    sims = adj * (unit @ unit.T)
    for mode, want in (("literal", sims.sum(axis=1)), ("dissimilarity", (adj - sims).sum(axis=1))):
        got = curriculum.local_difficulty(z, graph, mode=mode)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert graph.degrees[0] == 0 and graph.degrees[3] > 0


def test_local_difficulty_dissimilarity_mode_flips_polarity():
    graph = _path3()
    z = np.tile([1.0, 2.0], (3, 1))
    dissim = curriculum.local_difficulty(z, graph, mode="dissimilarity")
    np.testing.assert_allclose(dissim, 0.0, atol=1e-12)


# -- entropy ----------------------------------------------------------------------


def test_path_graph_entropy_hand_value():
    # degrees (1, 2, 1): p = (1/4, 1/2, 1/4), Ent = 1.5 ln 2
    got = curriculum.graph_entropy(_path3())
    assert got == pytest.approx(1.5 * math.log(2), abs=1e-12)
    assert got == pytest.approx(1.03972, abs=5e-6)


def test_edgeless_graph_entropy_is_zero():
    assert curriculum.graph_entropy(_graph_from_dense(np.zeros((4, 4)))) == 0.0


def test_regular_graph_entropy_is_log_n():
    # any k-regular graph has uniform degree shares
    n = 6
    ring = np.zeros((n, n))
    for i in range(n):
        ring[i, (i + 1) % n] = ring[(i + 1) % n, i] = 1
    assert curriculum.graph_entropy(_graph_from_dense(ring)) == pytest.approx(
        math.log(n), abs=1e-12
    )


# -- global difficulty ---------------------------------------------------------------


def test_global_difficulty_path3_hand_chain():
    # Ent(G) = 1.5 ln2; removing an end leaves one edge (Ent = ln2), removing
    # the middle leaves no edges (Ent = 0); shares 0.2/0.6/0.2 -> 0.8/0.4/0.8
    got = curriculum.global_difficulty(_path3())
    np.testing.assert_allclose(got, [0.8, 0.4, 0.8], atol=1e-12)


def test_global_difficulty_complete_graph_symmetric():
    adj = np.ones((5, 5)) - np.eye(5)
    got = curriculum.global_difficulty(_graph_from_dense(adj))
    np.testing.assert_allclose(got, got[0], atol=0)


def test_global_difficulty_matches_brute_force_removal_oracle():
    # from-scratch oracle: rebuild the graph minus each node, recompute both
    # entropies, renormalize; must agree exactly
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(2, 21))
        graph = _random_graph(rng, n)
        got = curriculum.global_difficulty(graph)
        base = curriculum.graph_entropy(graph)
        variation = np.empty(n)
        for v in range(n):
            keep = [u for u in range(n) if u != v]
            reduced = _graph_from_dense(graph.adjacency.toarray()[np.ix_(keep, keep)])
            variation[v] = base - curriculum.graph_entropy(reduced)
        total = variation.sum()
        expected = np.zeros(n) if total == 0 else 1.0 - variation / total
        np.testing.assert_array_equal(got, expected)


def _ring_with_leaves(n, rng):
    """A ring with random chords over n - 10 nodes, plus 10 leaves whose one
    neighbor sits near a row-block edge: removing that neighbor isolates it."""
    core = n - 10
    adj = np.zeros((n, n))
    ring = np.arange(core)
    adj[ring, (ring + 1) % core] = 1.0
    chords = rng.integers(0, core, size=(3 * core, 2))
    adj[chords[:, 0], chords[:, 1]] = 1.0
    hubs = [0, 1, 255, 256, 257, 300, 511, 512, 513, core - 1]
    adj[np.arange(core, n), hubs] = 1.0
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    return adj


def _star(n, center):
    adj = np.zeros((n, n))
    adj[center, :] = adj[:, center] = 1.0
    adj[center, center] = 0.0
    return adj


@pytest.mark.parametrize("shape", ["ring_with_leaves", "star", "with_isolated_node"])
def test_global_difficulty_row_blocks_match_brute_force_removal(shape):
    # 600 nodes are three row blocks, the last one ragged
    n = 600
    assert curriculum.GLOBAL_ROW_BLOCK * 2 < n < curriculum.GLOBAL_ROW_BLOCK * 3
    rng = np.random.default_rng(3)
    if shape == "star":
        adj = _star(n, center=300)  # removing the center leaves no edge
    else:
        adj = _ring_with_leaves(n, rng)
        if shape == "with_isolated_node":
            adj[400, :] = adj[:, 400] = 0.0
    graph = _graph_from_dense(adj)
    adjacency = graph.adjacency
    base = curriculum.graph_entropy(graph)
    variation = np.empty(n)
    for v in range(n):
        keep = np.delete(np.arange(n), v)
        sub_degrees = np.asarray(adjacency[keep][:, keep].sum(axis=1)).reshape(-1)
        variation[v] = base - curriculum._entropies(sub_degrees)
    expected = 1.0 - variation / variation.sum()
    np.testing.assert_array_equal(curriculum.global_difficulty(graph), expected)


# -- combination and ranking -----------------------------------------------------------


def test_combine_beta_one_is_local_ranking():
    local = np.array([3.0, 1.0, 2.0])
    global_ = np.array([0.0, 5.0, 1.0])
    report = curriculum.combine_and_rank(local, global_, beta=1.0)
    assert report.order.tolist() == [1, 2, 0]


def test_combine_beta_zero_is_global_ranking():
    local = np.array([3.0, 1.0, 2.0])
    global_ = np.array([0.0, 5.0, 1.0])
    report = curriculum.combine_and_rank(local, global_, beta=0.0)
    assert report.order.tolist() == [0, 2, 1]


def test_combine_opposed_components_tie_break_by_index():
    report = curriculum.combine_and_rank([0.0, 1.0, 2.0], [2.0, 1.0, 0.0], beta=0.5)
    np.testing.assert_allclose(report.combined, 0.5, atol=1e-15)
    assert report.order.tolist() == [0, 1, 2]


def test_combine_is_invariant_to_positive_affine_rescaling():
    rng = np.random.default_rng(1)
    for _ in range(20):
        local = rng.normal(size=12)
        global_ = rng.normal(size=12)
        base = curriculum.combine_and_rank(local, global_, beta=0.3)
        scaled = curriculum.combine_and_rank(4.2 * local + 7, 0.5 * global_ - 3, beta=0.3)
        np.testing.assert_array_equal(base.order, scaled.order)
        np.testing.assert_allclose(base.combined, scaled.combined, atol=1e-9)


def test_combine_constant_component_maps_to_zero():
    report = curriculum.combine_and_rank([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], beta=0.5)
    np.testing.assert_allclose(report.combined, [0.0, 0.25, 0.5], atol=1e-15)


def test_combine_length_mismatch():
    with pytest.raises(ValueError):
        curriculum.combine_and_rank([1.0], [1.0, 2.0], beta=0.5)


# -- pruning -----------------------------------------------------------------------


def _report(n, seed=0):
    rng = np.random.default_rng(seed)
    return curriculum.combine_and_rank(rng.normal(size=n), rng.normal(size=n), beta=0.5)


@pytest.mark.parametrize("strategy", curriculum.PRUNE_STRATEGIES)
def test_prune_alpha_zero_drops_nothing(strategy):
    report = _report(10)
    result = curriculum.prune(report, alpha=0.0, strategy=strategy)
    np.testing.assert_array_equal(result.kept, report.order)
    assert result.dropped.size == 0
    assert result.dropped.dtype == report.order.dtype


def test_prune_floor_rule_at_paper_rate():
    # n=10, alpha=0.11: floor(1.1) = exactly 1 node dropped
    result = curriculum.prune(_report(10), alpha=0.11)
    assert result.dropped.size == 1
    assert result.kept.size == 9


def test_prune_hard_drops_the_tail_of_the_order():
    report = _report(8)
    result = curriculum.prune(report, alpha=0.25, strategy="hard")
    np.testing.assert_array_equal(result.dropped, report.order[-2:])
    np.testing.assert_array_equal(result.kept, report.order[:-2])


def test_prune_easy_drops_the_head():
    report = _report(8)
    result = curriculum.prune(report, alpha=0.25, strategy="easy")
    np.testing.assert_array_equal(result.dropped, report.order[:2])


def test_prune_random_is_seeded_partition():
    report = _report(12)
    a = curriculum.prune(report, alpha=0.5, strategy="random", seed=3)
    b = curriculum.prune(report, alpha=0.5, strategy="random", seed=3)
    np.testing.assert_array_equal(a.dropped, b.dropped)
    together = np.sort(np.concatenate([a.kept, a.dropped]))
    np.testing.assert_array_equal(together, np.arange(12))
    # kept stays in ascending-difficulty order
    positions = {node: i for i, node in enumerate(report.order)}
    kept_positions = [positions[node] for node in a.kept]
    assert kept_positions == sorted(kept_positions)


# -- pacing -------------------------------------------------------------------------


def test_pacing_starts_at_lambda0():
    cfg = curriculum.PacingConfig(lambda0=0.25, t_hat=40)
    assert curriculum.pacing_fraction(0, cfg, alpha=0.0) == pytest.approx(0.25, abs=0)


def test_pacing_halfway_hand_value():
    # t = t_hat/2, lambda0 = 0.25: exponent log2(0.25)/2 = -1 -> fraction 0.5
    cfg = curriculum.PacingConfig(lambda0=0.25, t_hat=40)
    assert curriculum.pacing_fraction(20, cfg, alpha=0.0) == pytest.approx(0.5, abs=1e-15)


def test_pacing_caps_at_one_minus_alpha():
    cfg = curriculum.PacingConfig(lambda0=0.25, t_hat=10)
    for t in (10, 11, 100, 10_000):  # at 10_000 the ramp's power would overflow
        assert curriculum.pacing_fraction(t, cfg, alpha=0.11) == pytest.approx(0.89, abs=0)


def test_pacing_monotone_and_reaches_cap_for_grid():
    for lambda0 in (0.05, 0.25, 0.5, 1.0):
        for t_hat in (1, 7, 50):
            for alpha in (0.0, 0.11, 0.3):
                cfg = curriculum.PacingConfig(lambda0=lambda0, t_hat=t_hat)
                values = [curriculum.pacing_fraction(t, cfg, alpha) for t in range(0, 3 * t_hat + 1)]
                assert all(b >= a for a, b in zip(values, values[1:]))
                cap = 1.0 - alpha
                assert values[t_hat] == pytest.approx(min(1.0, cap), abs=1e-12)
                assert curriculum.pacing_fraction(0, cfg, alpha) == pytest.approx(
                    min(lambda0, cap), abs=1e-12
                )


def test_pacing_config_rejects_a_nan_ramp_length():
    # a nan t_hat would skip the ramp: every epoch compares false to it
    with pytest.raises(ValueError, match="t_hat must be >= 1, got nan"):
        curriculum.PacingConfig(lambda0=0.25, t_hat=math.nan)


def test_pacing_fraction_rejects_a_nan_epoch():
    cfg = curriculum.PacingConfig(lambda0=0.25, t_hat=10)
    with pytest.raises(ValueError, match="epoch must be >= 0, got nan"):
        curriculum.pacing_fraction(math.nan, cfg, alpha=0.11)


@pytest.mark.parametrize("alpha", [-0.5, 1.0, 1.5, math.nan])
def test_pacing_fraction_rejects_alpha_outside_the_unit_interval_as_prune_does(alpha):
    # outside [0, 1) the cap 1 - alpha is not a fraction of the nodes
    cfg = curriculum.PacingConfig(lambda0=0.25, t_hat=10)
    with pytest.raises(ValueError) as pacing_err:
        curriculum.pacing_fraction(10, cfg, alpha=alpha)
    with pytest.raises(ValueError) as prune_err:
        curriculum.prune(_report(10), alpha=alpha)
    assert str(pacing_err.value) == str(prune_err.value) == f"alpha must be in [0, 1), got {alpha}"


@pytest.mark.parametrize(
    "t, n_kept, want",
    [
        (0, 27, 7),  # floor(0.25 * 30)
        (2, 27, 15),  # floor(0.5 * 30)
        (3, 27, 21),  # floor(2^-0.5 * 30) = floor(21.2)
        (4, 27, 27),  # at the cap every kept node, not floor(0.89 * 30) = 26
        (100, 27, 27),
        (0, 5, 5),  # a kept set smaller than the paced count is taken whole
    ],
)
def test_paced_count_hand_values(t, n_kept, want):
    # n = 30, alpha = 0.11: pruning keeps 30 - floor(3.3) = 27 nodes
    cfg = curriculum.PacingConfig(lambda0=0.25, t_hat=4)
    assert curriculum.paced_count(t, cfg, 0.11, 30, n_kept) == want


def test_paced_count_rejects_a_schedule_that_selects_no_node():
    cfg = curriculum.PacingConfig(lambda0=0.01, t_hat=2)
    want = "pacing selects zero nodes at epoch 0 (lambda0=0.01, 30 nodes); raise lambda0"
    with pytest.raises(ValueError) as err:
        curriculum.paced_count(0, cfg, 0.0, 30, 30)
    assert str(err.value) == want
    assert curriculum.paced_count(2, cfg, 0.0, 30, 30) == 30  # the ramp's end


# -- report output ---------------------------------------------------------------------


def test_difficulty_csv_layout(tmp_path):
    report = _report(5, seed=2)
    result = curriculum.prune(report, alpha=0.2, strategy="hard")
    path = tmp_path / "difficulty.csv"
    curriculum.write_difficulty_csv(path, report, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "node_id,local,global,combined,rank,dropped"
    assert len(lines) == 6
    dropped_flags = [int(line.split(",")[5]) for line in lines[1:]]
    assert sum(dropped_flags) == 1
