import re
from dataclasses import replace
from pathlib import Path

import pytest

from celluster.cli import main
from celluster.config import TRAIN_TYPES, ConfigError, RunConfig, parse_config, write_config
from celluster.trainer import CHOICES, TrainConfig


def test_parse_minimal_config(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=4\n")
    cfg = parse_config(path)
    assert cfg.train.n_clusters == 4
    assert cfg.train.t1 == 1000
    assert cfg.train.t2 == 500
    assert cfg.train.lr_pretrain == 5e-4
    assert cfg.train.lr_formal == 1e-4
    assert cfg.train.k_neighbors == 20
    assert cfg.train.alpha == 0.11
    assert cfg.train.n_hvg == 500
    assert cfg.train.laplacian_kind == "sym_normalized"


def test_parse_comments_and_blanks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# a comment\n\nn_clusters=2  # trailing\nalpha=0.2\n")
    cfg = parse_config(path)
    assert cfg.train.alpha == 0.2


def test_parse_tuple_fields(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=2\nloss_weights=1.0,0.5,2.0\nzinb_dims=16,32,64\n")
    cfg = parse_config(path)
    assert cfg.train.loss_weights == (1.0, 0.5, 2.0)
    assert cfg.train.zinb_dims == (16, 32, 64)


@pytest.mark.parametrize("dims", [(8,), (4, 5, 6, 7)])
def test_zinb_dims_of_any_length_round_trip(tmp_path, dims):
    # the decoder takes any number of layers; a config file must say so
    path = tmp_path / "echo.txt"
    write_config(RunConfig(train=TrainConfig(n_clusters=3, zinb_dims=dims)), path)
    assert parse_config(path).train.zinb_dims == dims


def test_parse_zinb_dims_of_two_layers(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=2\nzinb_dims=16,32\n")
    assert parse_config(path).train.zinb_dims == (16, 32)


def test_parse_rejects_an_empty_zinb_dims_naming_the_key(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=2\nzinb_dims=\n")
    with pytest.raises(ConfigError, match=r":2: bad value for 'zinb_dims'"):
        parse_config(path)
    assert main(["train", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [config] ") and "'zinb_dims'" in err


def test_parse_rejects_duplicate_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=2\nt1=5\n# t1=6\n\nt1=7\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}:5: duplicate key 't1' (first set on line 2)"


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=2\nmystery=1\n")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(path)


def test_parse_rejects_missing_n_clusters(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha=0.1\n")
    with pytest.raises(ConfigError, match="n_clusters"):
        parse_config(path)


def test_parse_rejects_bad_value_with_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=2\nalpha=lots\n")
    with pytest.raises(ConfigError, match=":2"):
        parse_config(path)


def test_parse_rejects_bad_choice(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("n_clusters=2\nprune_strategy=gently\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"n_clusters=3\n# caf\xe9\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}: not UTF-8 text: byte 0xe9 at offset 18"


def test_parse_accepts_a_byte_order_mark(tmp_path):
    text = b"n_clusters=3\nt1=7\nprune_strategy=easy\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert parse_config(marked) == parse_config(plain)


def test_parse_names_the_raw_offset_of_a_bad_byte_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"\xef\xbb\xbfn_clusters=3\n# caf\xe9\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}: not UTF-8 text: byte 0xe9 at offset 21"


@pytest.mark.parametrize("name", sorted(CHOICES))
def test_train_config_rejects_a_switch_outside_its_choices(name):
    with pytest.raises(ValueError, match=f"{name} must be one of .*, got 'dense'"):
        TrainConfig(n_clusters=2, **{name: "dense"})


def test_train_config_rejects_loss_weights_that_are_not_three():
    # two weights used to construct, then fail at the first training step
    with pytest.raises(ValueError, match=r"loss_weights must hold 3 weights \(.*\), got 2"):
        TrainConfig(n_clusters=3, loss_weights=(1.0, 1.0))


def test_train_config_rejects_an_empty_zinb_dims():
    # numpy's min over the empty tuple used to raise its own message
    with pytest.raises(ValueError, match="zinb_dims must hold at least one layer width"):
        TrainConfig(n_clusters=3, zinb_dims=())


def test_write_then_parse_reproduces_settings(tmp_path):
    cfg = RunConfig(
        train=TrainConfig(
            n_clusters=3, t1=42, alpha=0.07, loss_weights=(1.0, 2.0, 0.25),
            prune_strategy="random",
        ),
        input="data/counts.csv",
        labels="data/labels.csv",
        outdir="out",
        strategies=["hard", "easy"],
        alphas=[0.06, 0.11],
        seeds=[0, 1, 2],
    )
    path = tmp_path / "echo.txt"
    write_config(cfg, path)
    back = parse_config(path)
    assert back.train.t1 == 42
    assert back.train.alpha == 0.07
    assert back.train.loss_weights == (1.0, 2.0, 0.25)
    assert back.train.t_hat == cfg.train.effective_t_hat  # echoed resolved
    assert back.train.prune_strategy == "random"
    assert back.strategies == ["hard", "easy"]
    assert back.alphas == [0.06, 0.11]
    assert back.seeds == [0, 1, 2]


def test_run_config_cells_are_the_grid_in_row_order():
    train = TrainConfig(n_clusters=3, t1=7, alpha=0.3, prune_strategy="random", seed=9)
    cfg = RunConfig(train=train, strategies=["hard", "easy"], alphas=[0.06, 0.11], seeds=[2, 1])
    cells = cfg.cells()
    assert [(c.prune_strategy, c.alpha, c.seed) for c in cells] == [
        (s, a, seed) for s in ("hard", "easy") for a in (0.06, 0.11) for seed in (2, 1)
    ]
    rest = {"prune_strategy": "random", "alpha": 0.3, "seed": 9}
    assert all(replace(c, **rest) == train for c in cells)


@pytest.mark.parametrize(
    "grid, problem",
    [
        ({"strategies": ["hard", "medium"]}, "prune_strategy must be one of"),
        ({"alphas": [0.11, 1.5]}, "alpha must lie in [0, 1), got 1.5"),
        ({"seeds": [0, -2]}, "seed must be >= 0, got -2"),
    ],
)
def test_run_config_rejects_a_bad_grid_cell_as_its_train_config_does(grid, problem):
    with pytest.raises(ConfigError, match=re.escape(f"prune-study grid: {problem}")):
        RunConfig(train=TrainConfig(n_clusters=3), **grid)


def test_readme_config_example_parses_to_the_defaults(tmp_path):
    # the README documents the defaults through its one config example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "c.txt"
    path.write_text(block, encoding="utf-8")
    parsed = parse_config(path).train
    default = TrainConfig(n_clusters=3)
    keys = [line.split("#", 1)[0].split("=", 1)[0].strip() for line in block.splitlines()]
    keys = [key for key in keys if key in TRAIN_TYPES]
    assert "t_hat" in keys and len(keys) > 10
    for key in keys:
        want = default.effective_t_hat if key == "t_hat" else getattr(default, key)
        assert getattr(parsed, key) == want, key
