import itertools
import math

import numpy as np
import pytest

from celluster import metrics


# -- independent oracles: brute-force pair counting and dict-based contingency ----


def ari_pair_oracle(a, b):
    """Literal pair enumeration over all unordered point pairs."""
    a, b = list(a), list(b)
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


def nmi_dict_oracle(a, b):
    """Contingency via dict counting; entropies and MI from first principles."""
    n = len(a)
    joint: dict = {}
    ca: dict = {}
    cb: dict = {}
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


# -- hand cases ---------------------------------------------------------------------


def test_ari_identical_up_to_relabeling():
    assert metrics.ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_ari_hand_case_minus_half():
    assert metrics.ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-15)


def test_ari_trivial_partitions_convention():
    assert metrics.ari([0, 0, 0], [0, 0, 0]) == 1.0


@pytest.mark.parametrize("labels", [[0], []], ids=["single", "empty"])
def test_ari_rejects_single_point(labels):
    with pytest.raises(metrics.SinglePointError, match="ARI needs at least 2 points"):
        metrics.ari(labels, labels)


def test_nmi_identical_partitions():
    assert metrics.nmi([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_nmi_hand_case():
    # contingency [[2, 0], [1, 1]]: MI/mean-entropy = 0.3437 (hand arithmetic)
    got = metrics.nmi([0, 0, 1, 1], [0, 0, 0, 1])
    mi = 0.5 * math.log((2 / 4) / (0.5 * 0.75)) + 0.25 * math.log(
        (1 / 4) / (0.5 * 0.75)
    ) + 0.25 * math.log((1 / 4) / (0.5 * 0.25))
    h_true = math.log(2)
    h_pred = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert got == pytest.approx(mi / (0.5 * (h_true + h_pred)), abs=1e-12)
    assert got == pytest.approx(0.3437, abs=5e-5)


def test_nmi_both_single_cluster_convention():
    assert metrics.nmi([0, 0], [0, 0]) == 1.0


def test_nmi_rejects_empty_labels():
    with pytest.raises(metrics.LengthMismatchError, match="NMI needs at least 1 point"):
        metrics.nmi([], [])


def test_length_mismatch():
    with pytest.raises(metrics.LengthMismatchError):
        metrics.ari([0, 1], [0, 1, 1])
    with pytest.raises(metrics.LengthMismatchError):
        metrics.nmi([0, 1], [0, 1, 1])


# -- properties ------------------------------------------------------------------------


def test_metrics_are_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        assert metrics.ari(a, b) == pytest.approx(metrics.ari(b, a), abs=1e-12)
        assert metrics.nmi(a, b) == pytest.approx(metrics.nmi(b, a), abs=1e-12)
        relabel = rng.permutation(4)[a]
        assert metrics.ari(relabel, b) == pytest.approx(metrics.ari(a, b), abs=1e-12)
        assert metrics.nmi(relabel, b) == pytest.approx(metrics.nmi(a, b), abs=1e-12)


def test_independent_uniform_partitions_have_near_zero_nmi():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, size=10_000)
    b = rng.integers(0, 4, size=10_000)
    assert metrics.nmi(a, b) < 0.05
    assert abs(metrics.ari(a, b)) < 0.05


def test_metrics_match_independent_oracles_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        a = rng.integers(0, int(rng.integers(2, 5)), size=n)
        b = rng.integers(0, int(rng.integers(2, 5)), size=n)
        assert metrics.ari(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)
        assert metrics.nmi(a, b) == pytest.approx(nmi_dict_oracle(a, b), abs=1e-12)


def test_contingency_table_marginals():
    counts = metrics.contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
    np.testing.assert_array_equal(counts, [[1, 1], [0, 2]])
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts.sum(axis=1), [2, 2])
    np.testing.assert_array_equal(counts.sum(axis=0), [1, 3])
    assert counts.sum() == 4
