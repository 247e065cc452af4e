import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_count_beyond_int64_names_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("id,g1,g2\nc1,0,3\nc2,99999999999999999999,0\n")
    message = re.escape("big.csv:3: count '99999999999999999999' exceeds the int64 range")
    with pytest.raises(ingest.ParseError, match=message):
        ingest.load_matrix(path, "csv")


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


def test_labels_file_that_starts_with_a_byte_order_mark_reads_as_without(tmp_path):
    text = b"cell_id,label\nc1,0\nc2,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "labels.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert ingest.read_labels(marked) == ingest.read_labels(plain) == {"c1": 0, "c2": 1}


@pytest.mark.parametrize("fmt, text", [
    ("mtx-triplet", b"2 2 2\n1 1 3\n2 2 5\n"),
    ("csv", b"id,g1,g2\nc1,3,0\nc2,0,5\n"),
])
def test_count_file_that_starts_with_a_byte_order_mark_loads_as_without(tmp_path, fmt, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    want, got = ingest.load_matrix(plain, fmt), ingest.load_matrix(marked, fmt)
    np.testing.assert_array_equal(got.counts, want.counts)
    assert (got.cell_ids, got.gene_ids) == (want.cell_ids, want.gene_ids)


@pytest.mark.parametrize("read, text, line, offset", [
    (lambda p: ingest.load_matrix(p, "csv"), b"id,g1,g2\nc1,0,3\nc2,1,0\nc\xff3,2,2\n", 4, 24),
    (lambda p: ingest.load_matrix(p, "mtx-triplet"), b"\xef\xbb\xbf2 2 1\n1 1 \xff\n", 2, 13),
    (ingest.read_labels, b"cell_id,label\nc1,0\n\xffc2,1\n", 3, 19),
], ids=["csv", "mtx-after-a-byte-order-mark", "labels"])
def test_a_byte_that_is_not_utf8_names_its_file_line_and_offset(
    tmp_path, read, text, line, offset
):
    # the offset counts from the start of the file, a byte-order mark included
    path = tmp_path / "input"
    path.write_bytes(text)
    with pytest.raises(ingest.ParseError) as err:
        read(path)
    assert str(err.value) == f"{path}:{line}: not UTF-8 text: byte 0xff at offset {offset}"
    assert err.value.line == line


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


def test_mtx_negative_header_dimension(tmp_path):
    path = tmp_path / "m.mtx"
    for head in ("-1 2 0", "2 -1 0"):
        path.write_text(f"\n{head}\n")
        message = re.escape(f"m.mtx:2: negative dimension in header '{head}'")
        with pytest.raises(ingest.ParseError, match=message):
            ingest.load_matrix(path, "mtx-triplet")


@st.composite
def _mtx_files(draw):
    """A valid mtx-triplet text: repeated entries, zero and large counts,
    blank lines, tabs and runs of blanks between and around the fields."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.tuples(
        st.integers(1, n_rows), st.integers(1, n_cols),
        st.one_of(st.integers(0, 9), st.integers(0, 2**40)),
    )
    entries = draw(st.lists(entry, max_size=30))
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [f"{n_rows} {n_cols} {len(entries)}"]
    for r, c, v in entries:
        edge = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(f"{edge}{r}{draw(gap)}{c}{draw(gap)}{v}{edge}")
        lines += [""] * draw(st.integers(0, 1))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_mtx_files())
def test_mtx_one_pass_parse_equals_the_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mtx") / "m.mtx"
    path.write_text(text)
    entries = [ln.strip() for ln in text.splitlines()[1:] if ln.strip()]
    n_rows, n_cols, _ = map(int, text.split("\n", 1)[0].split())
    if entries:  # the one-pass parse takes every valid file with entries
        assert ingest._parse_triplets(entries, n_rows, n_cols) is not None
    fast = ingest.load_matrix(path, "mtx-triplet").counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_parse_triplets", lambda *args: None)
        loop = ingest.load_matrix(path, "mtx-triplet").counts
    np.testing.assert_array_equal(fast, loop)


@pytest.mark.parametrize(
    "body, error, message",
    [
        # 6 tokens, a multiple of 3, on a 2-field and a 4-field line
        ("1 1\n1 2 3 4", ingest.ParseError, "m.mtx:2: expected 'row col value', got '1 1'"),
        ("1 1\n2 2", ingest.ParseError, "m.mtx:2: expected 'row col value', got '1 1'"),
        ("1 1 3\n1 2 1.0", ingest.ParseError, "m.mtx:3: expected an integer count, got '1.0'"),
        ("1 1 3\n# 1 2", ingest.ParseError, "m.mtx:3: non-integer index in '# 1 2'"),
        ("1 1 3\n1 3 2", ingest.ParseError, "m.mtx:3: index (1, 3) outside 2x2"),
        ("1 1 3\n2 2 -4", ingest.NegativeCountError, "m.mtx:3: negative count -4"),
        (
            "1 1 3\n2 2 99999999999999999999",
            ingest.ParseError,
            "m.mtx:3: count '99999999999999999999' exceeds the int64 range",
        ),
    ],
)
def test_mtx_malformed_body_names_the_line_loop_line(tmp_path, body, error, message):
    path = tmp_path / "m.mtx"
    path.write_text(f"2 2 2\n{body}\n")
    with pytest.raises(error) as err:
        ingest.load_matrix(path, "mtx-triplet")
    assert str(err.value) == f"{tmp_path}/{message}"


@pytest.mark.parametrize("copies", [2, 3])
def test_mtx_duplicates_summing_beyond_int64_name_the_line(tmp_path, copies):
    # two copies of the int64 maximum used to wrap to a negative count, and
    # three wrapped back to a positive one that loaded silently
    path = tmp_path / "m.mtx"
    path.write_text(f"2 2 {copies + 1}\n2 1 4\n" + "1 1 9223372036854775807\n" * copies)
    message = re.escape("m.mtx:4: entries for (1, 1) sum beyond the int64 range")
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


def test_int64_counts_are_shared_and_other_dtypes_converted():
    # no construction copies an int64 matrix, with_labels included
    counts = np.arange(12, dtype=np.int64).reshape(3, 4)
    cells, genes = ["a", "b", "c"], ["g0", "g1", "g2", "g3"]
    em = ingest.ExpressionMatrix(counts, cells, genes)
    assert em.counts is counts
    assert ingest.with_labels(em, np.array([0, 1, 0])).counts is counts
    for other in (counts.astype(np.float64), counts.astype(np.int32)):
        converted = ingest.ExpressionMatrix(other, cells, genes).counts
        assert converted.dtype == np.int64
        np.testing.assert_array_equal(converted, counts)
    with pytest.raises(ingest.IngestError, match="must be integers"):
        ingest.ExpressionMatrix(counts + 0.5, cells, genes)
    with pytest.raises(ingest.NegativeCountError):
        ingest.ExpressionMatrix(-counts.astype(np.int32), cells, genes)


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


def test_restrict_genes_to_every_gene_in_order_is_the_matrix_itself():
    em = ingest.ExpressionMatrix(
        np.arange(6).reshape(2, 3), ["a", "b"], ["g0", "g1", "g2"]
    )
    assert ingest.restrict_genes(em, [0, 1, 2]) is em
    assert ingest.restrict_genes(em, [0, 2, 1]).gene_ids == ["g0", "g2", "g1"]


# -- synthesize -----------------------------------------------------------------


def _zinb_zero_probability(pi: float, mu, theta: float):
    """P(count = 0) under the zero-inflated negative binomial."""
    return pi + (1.0 - pi) * (theta / (theta + np.asarray(mu))) ** theta


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
    floor = _zinb_zero_probability(spec.dropout_rate, 5.0, spec.dispersion)
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
