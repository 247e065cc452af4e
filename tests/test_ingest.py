import re

import numpy as np
import pytest

from celluster import ingest


def test_csv_direct_transcription(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("id,g1,g2\nc1,0,3\nc2,1,0\n")
    em = ingest.load_matrix(path, "csv")
    np.testing.assert_array_equal(em.counts, [[0, 3], [1, 0]])
    assert em.cell_ids == ["c1", "c2"]
    assert em.gene_ids == ["g1", "g2"]
    assert em.labels is None


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ingest.ParseError):
        ingest.load_matrix(path, "csv")
    path2 = tmp_path / "empty.mtx"
    path2.write_text("\n\n")
    with pytest.raises(ingest.ParseError):
        ingest.load_matrix(path2, "mtx-triplet")


def test_negative_count_is_rejected(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("id,g1\nc1,-1\n")
    with pytest.raises(ingest.NegativeCountError):
        ingest.load_matrix(path, "csv")


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,g1,g2\nc1,0,3\nc2,oops,0\n")
    with pytest.raises(ingest.ParseError) as err:
        ingest.load_matrix(path, "csv")
    assert err.value.line == 3


def test_ragged_row_is_a_parse_error(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,g1,g2\nc1,0\n")
    with pytest.raises(ingest.ParseError):
        ingest.load_matrix(path, "csv")


def test_duplicate_ids_are_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,g1,g1\nc1,0,1\n")
    with pytest.raises(ingest.DuplicateIdError):
        ingest.load_matrix(path, "csv")


def test_mtx_triplet_layout(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("2 3 3\n1 1 5\n2 3 7\n2 3 1\n")  # duplicate entry accumulates
    em = ingest.load_matrix(path, "mtx-triplet")
    np.testing.assert_array_equal(em.counts, [[5, 0, 0], [0, 0, 8]])
    assert em.cell_ids == ["cell_0", "cell_1"]


def test_mtx_out_of_range_index(tmp_path):
    path = tmp_path / "m.mtx"
    for entry, index in (("3 1 5", "(3, 1)"), ("-1 1 5", "(-1, 1)")):
        path.write_text(f"2 2 1\n{entry}\n")
        message = re.escape(f"m.mtx:2: index {index} outside 2x2")
        with pytest.raises(ingest.ParseError, match=message):
            ingest.load_matrix(path, "mtx-triplet")


@pytest.mark.parametrize("fmt", ingest.FORMATS)
def test_save_load_roundtrip(tmp_path, fmt):
    rng = np.random.default_rng(42)
    counts = rng.integers(0, 9, size=(5, 4))
    labels = np.array([0, 1, 1, 0, 1])
    em = ingest.ExpressionMatrix(
        counts,
        [f"cell_{i}" for i in range(5)],
        [f"gene_{j}" for j in range(4)],
        labels,
    )
    mpath = tmp_path / f"m.{fmt}"
    lpath = tmp_path / "labels.csv"
    ingest.save_matrix(em, mpath, fmt)
    ingest.save_labels(em, lpath)
    back = ingest.load_matrix(mpath, fmt)
    back = ingest.with_labels(back, ingest.load_labels(lpath, back.cell_ids))
    np.testing.assert_array_equal(back.counts, em.counts)
    assert back.cell_ids == em.cell_ids
    assert back.gene_ids == em.gene_ids
    np.testing.assert_array_equal(back.labels, em.labels)


def test_labels_must_cover_every_class():
    with pytest.raises(ingest.LabelError):
        ingest.ExpressionMatrix(
            np.zeros((3, 2), dtype=int), ["a", "b", "c"], ["g1", "g2"], np.array([0, 2, 2])
        )


def test_restrict_genes_keeps_ids_aligned():
    em = ingest.ExpressionMatrix(
        np.arange(6).reshape(2, 3), ["a", "b"], ["g0", "g1", "g2"]
    )
    sub = ingest.restrict_genes(em, [0, 2])
    np.testing.assert_array_equal(sub.counts, [[0, 2], [3, 5]])
    assert sub.gene_ids == ["g0", "g2"]


# -- synthesize -----------------------------------------------------------------


def test_synthesize_is_deterministic_per_seed():
    spec = ingest.SynthesisSpec(n_cells=30, n_genes=8, n_clusters=3, seed=7)
    a = ingest.synthesize(spec)
    b = ingest.synthesize(spec)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.labels, b.labels)
    c = ingest.synthesize(ingest.SynthesisSpec(n_cells=30, n_genes=8, n_clusters=3, seed=8))
    assert not np.array_equal(a.counts, c.counts)


def test_synthesize_single_cluster_labels():
    em = ingest.synthesize(ingest.SynthesisSpec(n_cells=12, n_genes=4, n_clusters=1, seed=0))
    assert set(em.labels.tolist()) == {0}


def test_synthesize_high_dropout_is_mostly_zero():
    # Monte-Carlo check against the closed-form zero mass pi + (1-pi)(theta/(theta+mu))^theta
    spec = ingest.SynthesisSpec(
        n_cells=200, n_genes=100, n_clusters=2, dropout_rate=0.99, dispersion=2.0,
        mean_scale=5.0, seed=3,
    )
    em = ingest.synthesize(spec)
    assert em.counts.size >= 10_000
    frac_zero = np.mean(em.counts == 0)
    assert frac_zero >= 0.95
    floor = ingest.zinb_zero_probability(spec.dropout_rate, 5.0, spec.dispersion)
    assert floor >= 0.95  # the closed form itself predicts this regime


def test_synthesize_sample_mean_matches_thinned_mean():
    # one cluster, one gene: 1e5 draws of a single (pi, mu, theta) configuration
    spec = ingest.SynthesisSpec(
        n_cells=100_000, n_genes=1, n_clusters=1, dropout_rate=0.4,
        dispersion=3.0, mean_scale=2.0, seed=11,
    )
    em = ingest.synthesize(spec)
    rng = np.random.default_rng(spec.seed)
    mu = float(spec.mean_scale * rng.lognormal(0.0, 1.0, size=(1, 1))[0, 0])
    target = (1.0 - spec.dropout_rate) * mu
    sample = em.counts[:, 0].astype(float)
    sem = sample.std(ddof=1) / np.sqrt(sample.size)
    assert abs(sample.mean() - target) <= 3.0 * sem
