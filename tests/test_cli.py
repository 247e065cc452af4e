import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from celluster import ingest, metrics, trainer
from celluster.cli import main
from celluster.config import parse_config
from celluster.losses import NonFiniteLossError


def _run(*argv):
    return main([str(a) for a in argv])


def _synth_args(outdir, cells=50, genes=24, clusters=2, seed=5, fmt="csv"):
    return [
        "synth", "--cells", cells, "--genes", genes, "--clusters", clusters,
        "--mean-scale", 3.0, "--seed", seed, "--format", fmt, "--outdir", outdir,
    ]


def _write_config(path, data_dir, outdir, **extra):
    keys = {
        "input": f"{data_dir}/counts.csv",
        "labels": f"{data_dir}/labels.csv",
        "n_clusters": 2,
        "t1": 6,
        "t2": 4,
        "n_hvg": 24,
        "k_neighbors": 5,
        "target_update_interval": 2,
        "outdir": outdir,
    }
    keys.update(extra)  # a None value drops the key
    Path(path).write_text("".join(f"{k}={v}\n" for k, v in keys.items() if v is not None))


def test_synth_writes_reloadable_files(tmp_path):
    out = tmp_path / "data"
    assert _run(*_synth_args(out)) == 0
    data = ingest.load_matrix(out / "counts.csv", "csv")
    labels = ingest.load_labels(out / "labels.csv", data.cell_ids)
    assert data.counts.shape == (50, 24)
    assert set(labels.tolist()) == {0, 1}


def test_synth_seed_repeat_is_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(*_synth_args(a)) == 0
    assert _run(*_synth_args(b)) == 0
    assert (a / "counts.csv").read_bytes() == (b / "counts.csv").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


def test_synth_respects_requested_shape(tmp_path):
    out = tmp_path / "shaped"
    assert _run(*_synth_args(out, cells=30, genes=11, clusters=3)) == 0
    data = ingest.load_matrix(out / "counts.csv", "csv")
    assert data.counts.shape == (30, 11)


@pytest.mark.parametrize("genes", [0, -3])
def test_synth_rejects_a_matrix_without_genes(tmp_path, capsys, genes):
    out = tmp_path / "data"
    assert _run(*_synth_args(out, genes=genes)) == 1
    assert "error: [config] n_genes must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--dispersion", "nan"), ("--dispersion", "inf"), ("--mean-scale", "inf")]
)
def test_synth_rejects_a_non_finite_count_setting(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    assert _run(*_synth_args(out), flag, value) == 1
    name = flag[2:].replace("-", "_")
    assert f"error: [config] {name} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_summary_ends_with_the_stop_reason(tmp_path, capsys):
    # the first churn check falls after t2 = 3 epochs
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    _write_config(config, data_dir, tmp_path / "run", t2=3, target_update_interval=5)
    capsys.readouterr()
    assert _run("train", config) == 0
    line = capsys.readouterr().out.strip()
    assert "6 pretrain + 3 formal epochs" in line
    assert line.endswith(", stop_reason=max_epochs")


def test_synth_mtx_roundtrip(tmp_path):
    out = tmp_path / "mtx"
    assert _run(*_synth_args(out, fmt="mtx-triplet")) == 0
    data = ingest.load_matrix(out / "counts.mtx", "mtx-triplet")
    assert data.counts.shape == (50, 24)


def test_train_writes_all_artifacts(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    run_dir = tmp_path / "run"
    _write_config(config, data_dir, run_dir)
    assert _run("train", config, "--t1", "100") == 0  # 100 epochs: no periodic checkpoint
    assert "trained 50 cells for 100 pretrain + " in capsys.readouterr().out
    for name in (
        "effective_config.txt", "training_log.csv", "difficulty.csv",
        "labels.csv", "metrics.json", "graph_edges.txt",
    ):
        assert (run_dir / name).exists(), name
    checkpoints = sorted(p.name for p in run_dir.glob("*.ckpt"))
    assert checkpoints == ["formal_final.ckpt", "pretrain_final.ckpt"]
    payload = json.loads((run_dir / "metrics.json").read_text())
    assert set(payload) == {"ari", "nmi", "n_cells", "n_clusters_true", "n_clusters_pred"}
    assert payload["n_cells"] == 50
    log_lines = (run_dir / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,rec,zinb,cls,total"
    labels_lines = (run_dir / "labels.csv").read_text().splitlines()
    assert labels_lines[0] == "cell_id,predicted,pruned_flag"
    assert len(labels_lines) == 51


def test_train_missing_input_exits_two_and_names_path(tmp_path, capsys):
    config = tmp_path / "config.txt"
    _write_config(config, tmp_path / "nowhere", tmp_path / "run")
    code = _run("train", config)
    captured = capsys.readouterr()
    assert code == 2
    assert "nowhere/counts.csv" in captured.err


def test_train_with_more_hvgs_than_genes_names_the_setting(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir, genes=40)) == 0
    config = tmp_path / "config.txt"
    _write_config(config, data_dir, tmp_path / "run", n_hvg=1000)
    assert _run("train", config) == 1
    err = capsys.readouterr().err
    assert "error: [preprocess] n_hvg=1000 outside 1..40: the input has 40 genes" in err
    assert "n_genes" not in err


def test_train_is_seed_idempotent(tmp_path):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    outputs = []
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        _write_config(config, data_dir, run_dir)
        assert _run("train", config) == 0
        outputs.append(
            {
                name: (run_dir / name).read_bytes()
                for name in (
                    "training_log.csv", "labels.csv", "difficulty.csv",
                    "formal_final.ckpt", "metrics.json",
                )
            }
        )
    assert outputs[0] == outputs[1]


def test_train_effective_config_roundtrips_to_identical_run(tmp_path):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    _write_config(config, data_dir, tmp_path / "r1")
    assert _run("train", config) == 0
    # rerun straight from the echoed effective config
    assert _run("train", tmp_path / "r1" / "effective_config.txt", "--outdir", tmp_path / "r2") == 0
    assert (tmp_path / "r1" / "labels.csv").read_bytes() == (
        tmp_path / "r2" / "labels.csv"
    ).read_bytes()
    assert (tmp_path / "r1" / "training_log.csv").read_bytes() == (
        tmp_path / "r2" / "training_log.csv"
    ).read_bytes()


def test_train_no_curriculum_flags_degenerate_to_plain_training(tmp_path):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    run_dir = tmp_path / "plain"
    _write_config(config, data_dir, run_dir)
    assert _run("train", config, "--alpha", "0", "--lambda0", "1") == 0
    diff_lines = (run_dir / "difficulty.csv").read_text().splitlines()[1:]
    assert all(line.rsplit(",", 1)[1] == "0" for line in diff_lines)  # nothing pruned
    labels_lines = (run_dir / "labels.csv").read_text().splitlines()[1:]
    assert all(line.rsplit(",", 1)[1] == "0" for line in labels_lines)


def test_difficulty_command_writes_report(tmp_path):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    out = tmp_path / "diff"
    _write_config(config, data_dir, out, t1=3)
    assert _run("difficulty", config) == 0
    lines = (out / "difficulty.csv").read_text().splitlines()
    assert lines[0] == "node_id,local,global,combined,rank,dropped"
    assert len(lines) == 51


def test_difficulty_report_matches_the_one_train_writes(tmp_path):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    _write_config(
        config, data_dir, tmp_path / "unused", alpha=0.2, prune_strategy="random",
        laplacian_kind="combinatorial", local_mode="dissimilarity",
    )
    assert _run("train", config, "--outdir", tmp_path / "train") == 0
    assert _run("difficulty", config, "--outdir", tmp_path / "diff") == 0
    assert (tmp_path / "diff" / "difficulty.csv").read_bytes() == (
        tmp_path / "train" / "difficulty.csv"
    ).read_bytes()


def test_prune_study_rows_equal_separate_pipeline_runs(tmp_path):
    # the grid shares one pretrained prefix per seed; each cell must still
    # match a pipeline run of its own, so nothing leaks between cells
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "study.txt"
    out = tmp_path / "study"
    _write_config(
        config, data_dir, out, t1=4, t2=4, strategies="hard,easy", alphas="0.06,0.21", seeds="1",
    )
    assert _run("prune-study", config) == 0
    run_cfg = parse_config(config)
    data = ingest.load_matrix(run_cfg.input, "csv")
    data = ingest.with_labels(data, ingest.load_labels(run_cfg.labels, data.cell_ids))
    expected = []
    for strategy in ("hard", "easy"):
        for alpha in (0.06, 0.21):
            cfg = replace(run_cfg.train, alpha=alpha, seed=1, prune_strategy=strategy)
            labels = trainer.run_pipeline(data, cfg).labels
            a, n = metrics.ari(data.labels, labels), metrics.nmi(data.labels, labels)
            expected.append(f"{strategy},{alpha!r},1,{a!r},{n!r}")
    assert (out / "prune_study.csv").read_text().splitlines()[1:] == expected


def test_prune_study_rejects_a_negative_seed_before_any_stage(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "study.txt"
    out = tmp_path / "study"
    _write_config(config, data_dir, out, seeds="1,-2")
    assert _run("prune-study", config) == 1
    assert "error: [config]" in capsys.readouterr().err
    assert not (out / "prune_study.csv").exists()


@pytest.mark.parametrize(
    "grid, problem",
    [
        ({"alphas": "0.11,1.5"}, "alphas must lie in [0, 1), got 1.5"),
        ({"alphas": "-0.05,0.11"}, "alphas must lie in [0, 1), got -0.05"),
        ({"alphas": "0.11,nan"}, "alphas must lie in [0, 1), got nan"),
        ({"seeds": "0,1,1"}, "duplicate entry 1 in 'seeds' (first given as entry 2)"),
        ({"alphas": "0.11,0.21,0.110"}, "duplicate entry 0.11 in 'alphas' (first given as entry 1)"),
        (
            {"strategies": "hard,easy,hard"},
            "duplicate entry 'hard' in 'strategies' (first given as entry 1)",
        ),
        ({"seeds": ""}, "'seeds' must list at least one entry"),
        ({"alphas": ""}, "'alphas' must list at least one entry"),
        ({"strategies": ""}, "'strategies' must list at least one entry"),
    ],
    ids=[
        "alpha-above", "alpha-below", "alpha-nan", "dup-seed", "dup-alpha", "dup-strategy",
        "empty-seeds", "empty-alphas", "empty-strategies",
    ],
)
def test_prune_study_rejects_a_bad_grid_before_any_stage(tmp_path, capsys, grid, problem):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "study.txt"
    out = tmp_path / "study"
    _write_config(config, data_dir, out, **grid)
    assert _run("prune-study", config) == 1
    err = capsys.readouterr().err
    assert "error: [config]" in err and problem in err
    assert not (out / "prune_study.csv").exists()


def test_graph_failure_carries_the_same_tag_from_every_command(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    _write_config(config, data_dir, tmp_path / "out", k_neighbors=60, alphas="0.06,0.11")
    for command in ("train", "difficulty"):
        assert _run(command, config) == 1
        assert "error: [graph] k_neighbors=60 outside 1..49 for 50 cells" in capsys.readouterr().err
    assert _run("prune-study", config) == 1
    failures = capsys.readouterr().err.splitlines()
    assert len(failures) == 2
    assert all("failed: [graph] k_neighbors=60 outside 1..49 for 50 cells" in line for line in failures)


def test_more_clusters_than_cells_fails_before_training_from_every_command(
    tmp_path, capsys, monkeypatch
):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir, cells=30)) == 0
    config = tmp_path / "config.txt"
    run_dir = tmp_path / "out"
    _write_config(config, data_dir, run_dir, n_clusters=40, t1=2, alphas="0.06,0.11")
    pretrained = []
    monkeypatch.setattr(trainer, "pretrain", lambda *args, **kwargs: pretrained.append(args))
    message = "[preprocess] n_clusters=40 exceeds the input's 30 cells"
    for command in ("train", "difficulty"):
        assert _run(command, config) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not list(run_dir.glob("*.ckpt"))
    assert _run("prune-study", config) == 1
    failures = capsys.readouterr().err.splitlines()
    assert len(failures) == 2
    assert all(line.endswith(f"failed: {message}") for line in failures)
    assert pretrained == []


def test_prune_study_frees_each_cell_before_the_next_trains(tmp_path, monkeypatch):
    # the seed's pretrained prefix serves every cell; what a cell trains on
    # top of it (parameters and formal Adam moments) must be gone by the
    # time the next cell's formal phase starts
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "study.txt"
    _write_config(
        config, data_dir, tmp_path / "study", t1=3, t2=3,
        strategies="hard,easy", alphas="0.06,0.21", seeds="1",
    )
    trained, alive_at_start = [], []
    formal_train = trainer.formal_train

    def tracking(state, *args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in trained))
        state = formal_train(state, *args, **kwargs)
        arrays = [a for _, a in state.params.named_parameters()]
        arrays += state.adam.first_moment + state.adam.second_moment
        trained.extend(weakref.ref(a) for a in arrays)
        return state

    monkeypatch.setattr(trainer, "formal_train", tracking)
    assert _run("prune-study", config) == 0
    assert len(alive_at_start) == 4 and trained
    assert alive_at_start == [0, 0, 0, 0]


def test_prune_study_keeps_a_failed_seed_only_as_its_message(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "study.txt"
    _write_config(
        config, data_dir, tmp_path / "study", t1=3, t2=2,
        strategies="hard", alphas="0.06,0.21", seeds="1,2",
    )
    diverged, alive_at_formal = [], []
    pretrain, formal_train = trainer.pretrain, trainer.formal_train

    def diverging(pre, graph, cfg, basis=None):
        state = pretrain(pre, graph, cfg, basis)
        if cfg.seed == 1:
            diverged.append(weakref.ref(state))
            raise NonFiniteLossError("pretrain phase diverged", epoch=cfg.t1, state=state)
        return state

    def tracking(*args, **kwargs):
        alive_at_formal.append(diverged[0]() is not None)
        return formal_train(*args, **kwargs)

    monkeypatch.setattr(trainer, "pretrain", diverging)
    monkeypatch.setattr(trainer, "formal_train", tracking)
    assert _run("prune-study", config) == 1
    failures = capsys.readouterr().err.splitlines()
    assert failures == [
        f"[prune-study] hard alpha={alpha} seed=1 failed: [pretrain] pretrain phase diverged"
        for alpha in (0.06, 0.21)
    ]
    assert alive_at_formal == [False, False]  # seed 2's two cells


@pytest.mark.parametrize(
    "config_extra, flags",
    [
        ({"t_hat": 0}, ()),
        ({}, ("--t-hat", "0")),
        ({}, ("--alpha", "2")),
        ({"latent_dim": 0}, ()),
        ({"hidden_dim": 0}, ()),
        ({"cheb_order": 0}, ()),
        ({"n_hvg": 0}, ()),
        ({"k_neighbors": 0}, ()),
        ({"zinb_dims": "0,4,4"}, ()),
        ({"zinb_dims": "4,4,0"}, ()),
        ({"lr_pretrain": "nan"}, ()),
        ({"convergence_tol": "nan"}, ()),
        ({}, ("--lr-formal", "inf")),
        ({"loss_weights": "nan,1,1"}, ()),
        ({"loss_weights": "-1,1,1"}, ()),
        ({"seed": -1}, ()),
        ({}, ("--seed", "-1")),
        ({"local_mode": "inverse"}, ()),
    ],
)
def test_train_rejects_bad_settings_before_training(tmp_path, capsys, config_extra, flags):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    run_dir = tmp_path / "run"
    _write_config(config, data_dir, run_dir, **config_extra)
    assert _run("train", config, *flags) == 1
    assert "error: [config]" in capsys.readouterr().err
    assert not list(run_dir.glob("*.ckpt"))


@pytest.mark.parametrize(
    "argv, config_extra, tail, code, message",
    [
        pytest.param(
            ["train", "{config}"], {"input": None}, "", 1, "[config] config is missing 'input'",
            id="no-input",
        ),
        pytest.param(
            ["train", "{config}"], {"labels": "{tmp}/none.csv"}, "", 2,
            "labels file not found: {tmp}/none.csv", id="no-labels-file",
        ),
        pytest.param(
            [
                "evaluate", "--true-labels", "{data}/labels.csv",
                "--pred-labels", "{tmp}/none.csv", "--out", "{tmp}/m.json",
            ],
            {}, "", 2, "labels file not found: {tmp}/none.csv", id="no-pred-labels-file",
        ),
        pytest.param(
            [
                "evaluate", "--true-labels", "{tmp}/empty.csv",
                "--pred-labels", "{tmp}/empty.csv", "--out", "{tmp}/m.json",
            ],
            {}, "", 1, "[evaluate] ARI needs at least 2 points", id="no-labelled-cells",
        ),
        pytest.param(
            ["prune-study", "{config}"], {"labels": None}, "", 1,
            "[prune-study] prune-study needs ground-truth labels", id="study-without-labels",
        ),
        pytest.param(
            ["train", "{config}"], {"input_format": "tsv"}, "", 1,
            "[config] {config}: input_format must be one of ('csv', 'mtx-triplet'), got 'tsv'",
            id="input-format",
        ),
        pytest.param(
            ["prune-study", "{config}"], {"strategies": "hard,medium"}, "", 1,
            "[config] {config}: unknown strategy 'medium' in strategies", id="strategy",
        ),
        pytest.param(
            ["train", "{config}"], {"loss_weights": "1,1"}, "", 1,
            "[config] {config}:10: bad value for 'loss_weights': "
            "needs 3 comma-separated values, got '1,1'",
            id="loss-weights-count",
        ),
        pytest.param(
            ["train", "{config}"], {}, "no equals here\n", 1,
            "[config] {config}:10: expected key=value, got 'no equals here'", id="no-equals",
        ),
    ],
)
def test_each_rejected_run_exits_with_its_one_line_message(
    tmp_path, capsys, argv, config_extra, tail, code, message
):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    (tmp_path / "empty.csv").write_text("cell_id,label\n")
    config = tmp_path / "config.txt"
    places = {"tmp": tmp_path, "data": data_dir, "config": config}
    extra = {k: v if v is None else v.format(**places) for k, v in config_extra.items()}
    _write_config(config, data_dir, tmp_path / "run", **extra)
    config.write_text(config.read_text() + tail)
    capsys.readouterr()
    assert _run(*(a.format(**places) for a in argv)) == code
    assert capsys.readouterr().err.splitlines() == ["error: " + message.format(**places)]


def test_config_that_is_not_utf8_fails_as_config(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_bytes(b"n_clusters=3\n# caf\xe9\n")
    assert _run("train", config) == 1
    assert f"error: [config] {config}: not UTF-8 text" in capsys.readouterr().err


def test_train_reads_a_config_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    run_dir = tmp_path / "run"
    _write_config(config, data_dir, run_dir)
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert _run("train", config) == 0
    assert "error" not in capsys.readouterr().err
    assert (run_dir / "labels.csv").is_file()


@pytest.mark.parametrize("command", ["synth", "train", "difficulty", "prune-study"])
def test_an_outdir_that_is_no_directory_exits_two(tmp_path, capsys, command):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "config.txt"
    _write_config(config, data_dir, tmp_path / "unused")
    args = _synth_args(data_dir)[:-2] if command == "synth" else [command, config]
    capsys.readouterr()
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for outdir in (blocker, blocker / "below"):  # FileExistsError, NotADirectoryError
        assert _run(*args, "--outdir", outdir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(outdir) in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "rows, line, problem",
    [
        pytest.param("c0,abc", 2, "expected a cell id", id="c0,abc"),
        pytest.param("c0", 2, "expected a cell id", id="c0"),
        pytest.param(
            "cell_0,1\ncell_1,0\ncell_0,2", 4, "duplicate cell id 'cell_0'", id="duplicate"
        ),
    ],
)
def test_evaluate_rejects_malformed_label_rows(tmp_path, capsys, rows, line, problem):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text(f"cell_id,label\n{rows}\n")
    code = _run(
        "evaluate", "--true-labels", data_dir / "labels.csv", "--pred-labels", bad,
        "--out", tmp_path / "m.json",
    )
    assert code == 1
    assert f"error: [evaluate] {bad}:{line}: {problem}" in capsys.readouterr().err


def test_evaluate_prints_and_writes_metrics(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    out = tmp_path / "metrics.json"
    code = _run(
        "evaluate", "--true-labels", data_dir / "labels.csv",
        "--pred-labels", data_dir / "labels.csv", "--out", out,
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "ARI=1.0" in captured.out and "NMI=1.0" in captured.out
    payload = json.loads(out.read_text())
    assert payload["ari"] == 1.0 and payload["nmi"] == 1.0


def test_evaluate_names_the_first_missing_prediction_in_the_truth_files_order(
    tmp_path, capsys
):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    pred = tmp_path / "pred.csv"
    pred.write_text("cell_id,label\n" + "".join(f"cell_{i},0\n" for i in range(4)))
    code = _run(
        "evaluate", "--true-labels", data_dir / "labels.csv", "--pred-labels", pred,
        "--out", tmp_path / "m.json",
    )
    assert code == 1
    assert "no prediction for cell id 'cell_4'" in capsys.readouterr().err


def test_evaluate_reads_the_labels_a_run_writes(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    rows = (data_dir / "labels.csv").read_text().splitlines()[1:]
    pred = tmp_path / "pred.csv"
    swapped = [f"{cid},{1 - int(lab)},0" for cid, lab in (r.split(",") for r in rows)]
    pred.write_text("cell_id,predicted,pruned_flag\n" + "\n".join(swapped) + "\n")
    args = ("evaluate", "--true-labels", data_dir / "labels.csv", "--pred-labels", pred)
    assert _run(*args, "--out", tmp_path / "m.json") == 0
    assert "ARI=1.0" in capsys.readouterr().out

    pred.write_text("cell_id,predicted,pruned_flag\n" + swapped[0].rsplit(",", 1)[0] + "\n")
    assert _run(*args, "--out", tmp_path / "m.json") == 1
    assert f"error: [evaluate] {pred}:2: expected a cell id" in capsys.readouterr().err


def test_prune_study_single_cell_grid(tmp_path):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir)) == 0
    config = tmp_path / "study.txt"
    out = tmp_path / "study"
    _write_config(
        config, data_dir, out, t1=3, t2=2,
        strategies="hard", alphas="0.11", seeds="0",
    )
    assert _run("prune-study", config) == 0
    lines = (out / "prune_study.csv").read_text().splitlines()
    assert lines[0] == "strategy,alpha,seed,ari,nmi"
    assert len(lines) == 2
    assert lines[1].startswith("hard,0.11,0,")


def test_prune_study_alpha_grid_row_count(tmp_path):
    data_dir = tmp_path / "data"
    assert _run(*_synth_args(data_dir, cells=40)) == 0
    config = tmp_path / "study.txt"
    out = tmp_path / "study"
    _write_config(
        config, data_dir, out, t1=2, t2=2,
        strategies="hard,random", alphas="0.06,0.11,0.16,0.21", seeds="0",
    )
    assert _run("prune-study", config) == 0
    lines = (out / "prune_study.csv").read_text().splitlines()[1:]
    assert len(lines) == 8  # 2 strategies x 4 alphas x 1 seed
    hard_rows = [line for line in lines if line.startswith("hard,")]
    assert len(hard_rows) == 4


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for sub in ("synth", "train", "difficulty", "evaluate", "prune-study"):
        assert sub in text


def test_train_help_enumerates_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("train", "--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--alpha", "--lambda0", "--k-neighbors", "--n-hvg", "--prune-strategy"):
        assert flag in text


def test_switch_flags_accept_only_their_choices(tmp_path, capsys):
    for flag in ("--laplacian-kind", "--local-mode", "--prune-strategy"):
        with pytest.raises(SystemExit) as exc:
            _run("train", tmp_path / "config.txt", flag, "gently")
        assert exc.value.code == 2
        assert "invalid choice: 'gently'" in capsys.readouterr().err


def test_importing_the_cli_leaves_scipy_special_unloaded(tmp_path):
    # scipy.special is imported by the likelihood when it first runs, so
    # commands that do not train never pay for it. scipy.sparse.linalg is
    # loaded by nothing, training included: importing it costs 8.8 MB of
    # RSS, measured when its eigsh was tried for lambda_max (the benchmark's
    # peak_rss_mb went 95.6 -> 104.0 MB at accept-300 and about 217 ->
    # 226.5 MB at scale-3000, and setup_s about 0.31 -> 0.44 s).
    env = dict(os.environ)
    src = str(Path(trainer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    loaded = "print('scipy.special' in sys.modules, 'scipy.sparse.linalg' in sys.modules)"

    def run(code):
        result = subprocess.run(
            [sys.executable, "-c", f"{code}; {loaded}"],
            env=env, capture_output=True, text=True, check=True,
        )
        return result.stdout.split()[-2:]

    assert run("import sys, celluster.cli") == ["False", "False"]
    data = tmp_path / "data"
    assert _run(*_synth_args(data, cells=60, genes=40, clusters=3)) == 0
    config = tmp_path / "config.txt"
    _write_config(config, data, tmp_path / "out", n_clusters=3, t1=2, t2=2, n_hvg=40)
    train = f"import sys; from celluster.cli import main; assert main(['train', '{config}']) == 0"
    assert run(train) == ["True", "False"]
