"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass lines. The
three benchmark criteria share one grid of pipeline runs (arms x seeds) so
each configuration trains exactly once.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from celluster import curriculum, losses, metrics, model, trainer
from celluster.cellgraph import _from_adjacency
from celluster.cli import main as cli_main
from celluster.ingest import SynthesisSpec, synthesize
from celluster.trainer import TrainConfig
from gradcheck import (
    backward_error,
    dense_heads,
    dense_hidden,
    gradient_error,
    step_gradient_error,
    with_arrays,
    zinb_on_heads,
)


def _pass(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS  {message}")


def _random_graph(rng, n, p=0.35, kind="sym_normalized"):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adj = (upper | upper.T).astype(float)
    return _from_adjacency(sp.csr_matrix(adj), kind)


# -- criterion 1: gradient correctness -------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst: dict[str, float] = {}

    # the model's closed-form backwards: the encoder (every layer weight and
    # bias) and the count decoder's MLP (latent, weights and biases), each
    # under a weighted sum of its output
    errs = {"encode": [], "decode_zinb_mlp": []}
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        graph = _random_graph(rng, 5, kind=("sym_normalized", "combinatorial")[seed % 2])
        params = model.init_params(n_genes=3, latent_dim=2, hidden_dim=3, zinb_dims=(3, 4), seed=seed)
        basis = model.chebyshev_basis(rng.normal(size=(5, 3)), graph, 3)
        w = rng.uniform(-1, 1, size=(5, 2))
        names = [name for name, _ in params.named_parameters() if name.startswith("enc")]
        encoder = [array for name, array in params.named_parameters() if name in names]
        errs["encode"].append(backward_error(
            lambda a: model.encode(basis, graph, with_arrays(params, names, a)), encoder, w
        ))
        z = rng.uniform(-1.0, 1.0, size=(4, 2))
        w = rng.uniform(-1, 1, size=(4, 4))
        # non-zero biases: no pre-activation sits on the relu kink
        mlp = [rng.uniform(-1.0, 1.0, size=t.shape) for pair in params.zinb_fc for t in pair]
        errs["decode_zinb_mlp"].append(backward_error(
            lambda a: dense_hidden(a[0], ((a[1], a[2]), (a[3], a[4]))), [z, *mlp], w
        ))
    worst.update({name: max(values) for name, values in errs.items()})

    # the three losses; the likelihood also on all-zero counts (its logaddexp
    # branch) and on all-positive counts (its log-gamma branch) alone, in its
    # pre-activations (logit pi, log mu, log theta), the head weights of a
    # decoder with an identity latent
    zinb_counts = {
        "loss_zinb": lambda rng: rng.integers(0, 8, size=(2, 3)),
        "loss_zinb_zero_counts": lambda rng: np.zeros((2, 3)),
        "loss_zinb_positive_counts": lambda rng: rng.integers(1, 8, size=(2, 3)),
    }
    errs: dict[str, list[float]] = {"loss_rec": [], "loss_cls": [], **{k: [] for k in zinb_counts}}
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        adj = np.triu((rng.random((3, 3)) < 0.5), 1).astype(float)
        adj = adj + adj.T
        z0 = rng.uniform(-1.0, 1.0, size=(3, 2))
        errs["loss_rec"].append(gradient_error(lambda a: losses.loss_rec(adj, a[0]), [z0]))

        for name, draw in zinb_counts.items():
            x = draw(rng).astype(float)
            pi0 = rng.uniform(0.2, 0.8, size=(2, 3))
            mu0 = rng.uniform(0.8, 4.0, size=(2, 3))
            th0 = rng.uniform(0.8, 4.0, size=(2, 3))
            errs[name].append(
                gradient_error(
                    lambda a: zinb_on_heads(x, a),
                    [np.log(pi0 / (1.0 - pi0)), np.log(mu0), np.log(th0)],
                )
            )

        p = rng.random((3, 3)) + 0.1
        p /= p.sum(axis=1, keepdims=True)
        z0 = rng.uniform(-1.0, 1.0, size=(3, 2))
        c0 = rng.uniform(-1.0, 1.0, size=(3, 2))
        errs["loss_cls"].append(gradient_error(lambda a: losses.loss_cls(p, *a), [z0, c0]))
    worst.update({name: max(values) for name, values in errs.items()})

    # the composed step: the gradients one formal step hands to Adam, along
    # one random direction per parameter array, against its logged total,
    # on a paced sub-problem (4 of 6 kept nodes, whose counts are rows of a
    # larger matrix) at random criterion weights. Non-zero biases keep every
    # relu input off its kink
    errs = []
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        graph = _random_graph(rng, 6, kind=("sym_normalized", "combinatorial")[seed % 2])
        params = model.init_params(
            n_genes=3, latent_dim=2, hidden_dim=3, zinb_dims=(3,), seed=seed
        ).with_centers(rng.normal(size=(2, 2)))
        params = params.map_named(
            lambda name, a: rng.uniform(-1.0, 1.0, size=a.shape) if name.endswith("bias") else a
        )
        basis = model.chebyshev_basis(rng.normal(size=(6, 3)), graph, 3)
        target = rng.random((6, 2))
        target /= target.sum(axis=1, keepdims=True)
        cfg = TrainConfig(n_clusters=2, loss_weights=tuple(rng.uniform(0.5, 2.0, size=3)))
        errs.append(step_gradient_error(
            params, basis, graph, rng.poisson(1.0, size=(9, 3)), cfg,
            rng=rng, subset=np.array([0, 2, 3, 5]), target=target,
            count_rows=rng.permutation(9)[:4],
        ))
    worst["train_step"] = max(errs)

    elapsed = time.time() - start
    offenders = {k: v for k, v in worst.items() if v >= 1e-5}
    assert not offenders, f"gradient mismatches: {offenders}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(1, f"max rel error {max(worst.values()):.2e} over "
             f"{len(worst)} checks x 50 trials in {elapsed:.1f}s")


# -- criterion 2: ChebConv oracle --------------------------------------------------------


def test_criterion_2_chebconv_dense_oracle():
    # the subject is encode on a ModelParams whose encoder is the one drawn
    # layer: the code path the pipeline runs
    start = time.time()
    worst = 0.0
    template = model.init_params(n_genes=4, latent_dim=3, hidden_dim=3, zinb_dims=(1,))
    for trial in range(40):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(3, 17))
        order = int(rng.integers(1, 6))
        kind = ("sym_normalized", "combinatorial")[trial % 2]
        graph = _random_graph(rng, n, kind=kind)
        x = rng.normal(size=(n, 4))
        layer = model.ChebLayerParams(
            theta=tuple(rng.normal(size=(4, 3)) for _ in range(order)), bias=np.zeros(3)
        )
        params = replace(template, encoder_layers=(layer,))
        out = model.encode(model.chebyshev_basis(x, graph, order), graph, params).values

        lhat = graph.scaled_laplacian.toarray()
        polys = [np.eye(n)]
        if order >= 2:
            polys.append(lhat)
        for _ in range(2, order):
            polys.append(2.0 * lhat @ polys[-1] - polys[-2])
        expected = sum(p @ x @ th for p, th in zip(polys, layer.theta))
        worst = max(worst, float(np.max(np.abs(out - expected))))
    elapsed = time.time() - start
    assert worst < 1e-10, f"max abs deviation {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _pass(2, f"recursive forward within {worst:.2e} of the polynomial oracle in {elapsed:.1f}s")


# -- criterion 3: ZINB pointwise ----------------------------------------------------------


def test_criterion_3_zinb_pointwise():
    # fed as pre-activations: logit 0.5 = 0, log 1 = 0, logit 0.2 = log 0.25
    def zinb(pi_logit, log_mu, log_th):
        return dense_heads([[pi_logit]], [[log_mu]], [[log_th]])

    zero_case = losses.loss_zinb(np.array([[0.0]]), zinb(0.0, 0.0, 0.0))[0]
    assert abs(zero_case - 0.28768) < 1e-5
    assert abs(zero_case - (-math.log(0.75))) < 1e-6

    one_case = losses.loss_zinb(np.array([[1.0]]), zinb(math.log(0.25), 0.0, 0.0))[0]
    assert abs(one_case - 1.60944) < 1e-5
    assert abs(one_case - (-math.log(0.2))) < 1e-6

    # pi -> 0 limit equals an independently coded NB NLL
    from scipy.special import gammaln

    rng = np.random.default_rng(0)
    x = rng.integers(0, 15, size=(5, 6)).astype(float)
    mu = rng.uniform(0.4, 9.0, size=(5, 6))
    th = rng.uniform(0.4, 5.0, size=(5, 6))
    floored = np.full((5, 6), -1000.0)  # sigmoid underflows: pi is held at its 1e-10 floor
    got = losses.loss_zinb(x, dense_heads(floored, np.log(mu), np.log(th)))[0]
    nb = -(
        gammaln(x + th) - gammaln(x + 1.0) - gammaln(th)
        + th * np.log(th / (th + mu)) + x * np.log(mu / (th + mu))
    )
    assert abs(got - float(nb.mean())) < 1e-8
    _pass(3, "hand NLL points within 1e-6; pi->0 limit matches the NB oracle within 1e-8")


# -- criterion 4: entropy-variation oracle ---------------------------------------------------


def test_criterion_4_entropy_variation_oracle():
    start = time.time()
    path3 = _from_adjacency(
        sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)),
        "sym_normalized",
    )
    np.testing.assert_allclose(
        curriculum.global_difficulty(path3), [0.8, 0.4, 0.8], atol=1e-12
    )

    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        graph = _random_graph(rng, n)
        got = curriculum.global_difficulty(graph)
        base = curriculum.graph_entropy(graph)
        variation = np.empty(n)
        dense = graph.adjacency.toarray()
        for v in range(n):
            keep = [u for u in range(n) if u != v]
            sub = _from_adjacency(sp.csr_matrix(dense[np.ix_(keep, keep)]), "sym_normalized")
            variation[v] = base - curriculum.graph_entropy(sub)
        total = variation.sum()
        expected = np.zeros(n) if total == 0 else 1.0 - variation / total
        np.testing.assert_array_equal(got, expected)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _pass(4, f"brute-force removal oracle matched exactly on 50 graphs in {elapsed:.1f}s")


# -- criterion 5: pacing schedule --------------------------------------------------------------


def test_criterion_5_pacing_schedule():
    for lambda0 in (0.1, 0.25, 0.5, 0.75, 1.0):
        for t_hat in (1, 5, 40, 250):
            for alpha in (0.0, 0.06, 0.11, 0.21):
                cfg = curriculum.PacingConfig(lambda0=lambda0, t_hat=t_hat)
                cap = 1.0 - alpha
                g0 = curriculum.pacing_fraction(0, cfg, alpha)
                assert g0 == min(lambda0, cap)
                g_ramp_end = curriculum.pacing_fraction(t_hat, cfg, alpha)
                assert g_ramp_end == cap
                values = [
                    curriculum.pacing_fraction(t, cfg, alpha)
                    for t in range(0, 2 * t_hat + 2)
                ]
                assert all(b >= a for a, b in zip(values, values[1:]))
                assert max(values) == cap
    _pass(5, "g(0)=lambda0, g(t_hat)=cap=1-alpha, monotone over the full grid")


# -- criteria 6-8: shared benchmark grid ----------------------------------------------------------


BENCH_SEEDS = (0, 1, 2, 3, 4)
_BENCH_CACHE: dict = {}


def _bench_run(arm: str, seed: int):
    """One benchmark pipeline run; cached so each configuration trains once."""
    key = (arm, seed)
    if key in _BENCH_CACHE:
        return _BENCH_CACHE[key]
    data = synthesize(
        SynthesisSpec(
            n_cells=300, n_genes=200, n_clusters=3,
            dropout_rate=0.5, dispersion=1.5, mean_scale=1.8, seed=1000 + seed,
        )
    )
    overrides = dict(alpha=0.0, lambda0=1.0) if arm == "off" else {}
    strategy = arm if arm in ("hard", "random", "easy") else "hard"
    cfg = TrainConfig(
        n_clusters=3, t1=200, t2=100, n_hvg=200, seed=seed, prune_strategy=strategy, **overrides
    )
    start = time.time()
    result = trainer.run_pipeline(data, cfg)
    elapsed = time.time() - start
    scores = (
        metrics.ari(data.labels, result.labels),
        metrics.nmi(data.labels, result.labels),
        elapsed,
    )
    _BENCH_CACHE[key] = scores
    return scores


@pytest.mark.slow
def test_criterion_6_synthetic_end_to_end_recovery():
    runs = [_bench_run("hard", seed) for seed in BENCH_SEEDS[:3]]
    ari_median = float(np.median([r[0] for r in runs]))
    nmi_median = float(np.median([r[1] for r in runs]))
    wall = sum(r[2] for r in runs)
    assert ari_median >= 0.90, f"median ARI {ari_median}"
    assert nmi_median >= 0.85, f"median NMI {nmi_median}"
    assert wall < 300.0, f"3 runs took {wall:.0f}s"
    _pass(6, f"3-seed medians ARI={ari_median:.4f} NMI={nmi_median:.4f} in {wall:.0f}s")


@pytest.mark.slow
def test_criterion_7_pruning_strategy_ordering():
    start = time.time()
    medians = {
        arm: float(np.median([_bench_run(arm, seed)[0] for seed in BENCH_SEEDS]))
        for arm in ("hard", "random", "easy")
    }
    wall = sum(_bench_run(arm, seed)[2] for arm in ("hard", "random", "easy") for seed in BENCH_SEEDS)
    assert medians["hard"] >= medians["random"] >= medians["easy"], medians
    assert wall < 1800.0, f"grid cost {wall:.0f}s"
    _pass(
        7,
        "median ARI hard={hard:.4f} >= random={random:.4f} >= easy={easy:.4f}".format(**medians)
        + f" ({wall:.0f}s of shared grid, {time.time() - start:.0f}s marginal)",
    )


@pytest.mark.slow
def test_criterion_8_ablation_direction():
    on = float(np.median([_bench_run("hard", seed)[0] for seed in BENCH_SEEDS]))
    off = float(np.median([_bench_run("off", seed)[0] for seed in BENCH_SEEDS]))
    wall = sum(_bench_run(arm, seed)[2] for arm in ("hard", "off") for seed in BENCH_SEEDS)
    assert abs(on - off) <= 0.05, (on, off)
    assert on >= off - 0.01, (on, off)
    assert wall < 1800.0, f"grid cost {wall:.0f}s"
    _pass(8, f"5-seed medians: curriculum on={on:.4f} vs off={off:.4f} (|delta|<=0.05)")


# -- criterion 9: metric oracles --------------------------------------------------------------------


def test_criterion_9_metric_oracles():
    import itertools

    def ari_oracle(a, b):
        n = len(a)
        same_both = same_a = same_b = 0
        for i, j in itertools.combinations(range(n), 2):
            in_a = a[i] == a[j]
            in_b = b[i] == b[j]
            same_a += in_a
            same_b += in_b
            same_both += in_a and in_b
        total = n * (n - 1) / 2
        expected = same_a * same_b / total
        max_index = 0.5 * (same_a + same_b)
        if max_index == expected:
            return 1.0
        return (same_both - expected) / (max_index - expected)

    def nmi_oracle(a, b):
        n = len(a)
        joint, ca, cb = {}, {}, {}
        for x, y in zip(a, b):
            joint[(x, y)] = joint.get((x, y), 0) + 1
            ca[x] = ca.get(x, 0) + 1
            cb[y] = cb.get(y, 0) + 1
        h_a = -sum((c / n) * math.log(c / n) for c in ca.values())
        h_b = -sum((c / n) * math.log(c / n) for c in cb.values())
        if h_a == 0.0 and h_b == 0.0:
            return 1.0
        mi = sum(
            (c / n) * math.log((c / n) / ((ca[x] / n) * (cb[y] / n)))
            for (x, y), c in joint.items()
        )
        return mi / (0.5 * (h_a + h_b))

    assert metrics.ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-15)

    rng = np.random.default_rng(11)
    worst_ari = worst_nmi = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 25))
        a = rng.integers(0, int(rng.integers(2, 5)), size=n).tolist()
        b = rng.integers(0, int(rng.integers(2, 5)), size=n).tolist()
        worst_ari = max(worst_ari, abs(metrics.ari(a, b) - ari_oracle(a, b)))
        worst_nmi = max(worst_nmi, abs(metrics.nmi(a, b) - nmi_oracle(a, b)))
    assert worst_ari < 1e-12 and worst_nmi < 1e-12, (worst_ari, worst_nmi)
    _pass(9, f"pair-count/contingency oracles matched (worst dev {max(worst_ari, worst_nmi):.1e}); hand ARI=-0.5")


# -- criterion 10: determinism -----------------------------------------------------------------------


def test_criterion_10_full_pipeline_determinism(tmp_path):
    data_dir = tmp_path / "data"
    code = cli_main(
        [
            "synth", "--cells", "80", "--genes", "40", "--clusters", "2",
            "--mean-scale", "3.0", "--seed", "9", "--outdir", str(data_dir),
        ]
    )
    assert code == 0
    config = tmp_path / "config.txt"
    config.write_text(
        f"input={data_dir}/counts.csv\nlabels={data_dir}/labels.csv\n"
        "n_clusters=2\nt1=25\nt2=10\nn_hvg=40\nk_neighbors=6\n"
        "target_update_interval=2\nseed=4\n"
    )
    artifacts = (
        "training_log.csv", "labels.csv", "difficulty.csv", "metrics.json",
        "pretrain_final.ckpt", "formal_final.ckpt", "effective_config.txt",
    )
    contents = []
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        assert cli_main(["train", str(config), "--outdir", str(run_dir)]) == 0
        contents.append({name: (run_dir / name).read_bytes() for name in artifacts})
    mismatched = [k for k in artifacts if contents[0][k] != contents[1][k]]
    # the effective config embeds the outdir, which of course differs
    mismatched = [k for k in mismatched if k != "effective_config.txt"]
    assert not mismatched, f"non-identical artifacts: {mismatched}"
    _pass(10, "two identically seeded runs produced bit-identical logs, checkpoints, labels")
