import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasreid.errors import BatchCompositionError, ConfigError, DataError
from biasreid.losses import (
    PoolSelection,
    batch_labels,
    bias_easy_loss,
    combined_loss,
    pairwise_sqdist,
    reid_hard_loss,
)


# ----------------------------------------------------------------------------
# Exhaustive reference losses (oracle side of the dual-route check)
# ----------------------------------------------------------------------------


def brute_force_hard_loss(embeddings, id_labels, margin) -> tuple[float, np.ndarray]:
    """O(n^2) per anchor search over all valid pairs; no shared selection code.

    Returns the value and the gradient, accumulated anchor by anchor in index
    order, so `reid_hard_loss` must equal both bit for bit.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(id_labels)
    total = 0.0
    grads = np.zeros_like(emb)
    for a in range(len(emb)):
        best_p, best_n = None, None
        for j in range(len(emb)):
            if j == a:
                continue
            d = float(((emb[a] - emb[j]) ** 2).sum())
            if labels[j] == labels[a]:
                if best_p is None or d > best_p[1]:
                    best_p = (j, d)
            elif best_n is None or d < best_n[1]:
                best_n = (j, d)
        if best_p is None or best_n is None:
            raise BatchCompositionError(f"anchor {a} lacks a pair")
        arg = margin + best_p[1] - best_n[1]
        if arg > 0:
            total += arg
            p, q = best_p[0], best_n[0]
            ap = emb[a] - emb[p]
            an = emb[a] - emb[q]
            grads[a] += 2.0 * (ap - an)
            grads[p] -= 2.0 * ap
            grads[q] += 2.0 * an
    return total, grads


def brute_force_easy_loss(embeddings, bias_labels, margin) -> float:
    """Plain per-anchor, per-row loop over both bias pools, summing in index
    order; no shared code with `bias_easy_loss`, and bit-equal to it."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(bias_labels)
    total = 0.0
    n_valid = 0
    for a in range(len(emb)):
        sum_p = sum_n = 0.0
        count_p = count_n = 0
        for j in range(len(emb)):
            if j == a:
                continue
            d = float(((emb[a] - emb[j]) ** 2).sum())
            if labels[j] == labels[a]:
                sum_p += d
                count_p += 1
            else:
                sum_n += d
                count_n += 1
        if count_p == 0 or count_n == 0:
            continue
        n_valid += 1
        arg = margin + sum_p / count_p - sum_n / count_n
        if arg > 0:
            total += arg
    if n_valid == 0 and len(emb) > 0:
        raise BatchCompositionError("no anchor has both bias pools")
    return total


def col(values):
    """1-D embeddings as a column."""
    return np.asarray(values, dtype=float)[:, None]


def labels_of(ids, bias=None):
    """One batch's label phase; without bias labels, every row has one class."""
    ids = np.asarray(ids)
    bias = np.zeros(len(ids), dtype=int) if bias is None else np.asarray(bias)
    return batch_labels(ids[None], bias[None])[0]


class TestPairwiseSqdist:
    def test_hand_computation(self):
        d2 = pairwise_sqdist(col([0.0, 3.0]))
        np.testing.assert_array_equal(d2, [[0.0, 9.0], [9.0, 0.0]])

    def test_identical_rows_all_zero(self):
        d2 = pairwise_sqdist(np.ones((4, 3)))
        np.testing.assert_array_equal(d2, np.zeros((4, 4)))

    @staticmethod
    def naive(e):
        n = len(e)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = ((e[i] - e[j]) ** 2).sum()
        return out

    def test_matches_naive_loop(self):
        e = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_array_equal(pairwise_sqdist(e), self.naive(e))

    # at d = 64 a block holds 128 pairs: 0 and 1 pair fit in one; 136, 496
    # (the default 32-row batch), 528 and 2016 straddle block ends
    @pytest.mark.parametrize("n", [1, 2, 17, 32, 33, 64])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_bit_exact_across_pair_blocks(self, n, scale):
        rng = np.random.default_rng(n)
        normal = scale * rng.normal(size=(n, 64))
        # rounded grid rows, with duplicates: zero and tied distances
        grid = np.round(rng.normal(size=(n, 64)), 1)
        grid[n // 2 :] = grid[: n - n // 2]
        for e in (normal, scale * grid):
            d2 = pairwise_sqdist(e)
            assert d2.shape == (n, n)
            assert np.array_equal(d2.view(np.uint64), self.naive(e).view(np.uint64))

    def test_properties(self):
        rng = np.random.default_rng(1)
        e = rng.normal(size=(8, 4))
        d2 = pairwise_sqdist(e)
        assert (d2 >= 0).all()
        np.testing.assert_array_equal(d2, d2.T)
        assert d2.diagonal().sum() == 0.0

    def test_overflowing_distance_rejected(self):
        # finite rows whose squared distance is inf: a masked +-inf in the
        # hard loss's selection could then tie a real candidate
        with warnings.catch_warnings(), pytest.raises(DataError):
            warnings.simplefilter("error")  # an overflow warning would escape as an exception
            pairwise_sqdist(col([-1e200, 1e200]))


def loop_batch_labels(ids, bias) -> dict:
    """What `batch_labels` builds, from a plain per-batch, per-anchor loop
    with no shared code; raises the identity error for the first anchor, in
    batch order, that lacks a positive or a negative."""
    m, n = ids.shape
    out = {
        "same_id": np.zeros((m, n, n), dtype=bool),
        "diff_id": np.zeros((m, n, n), dtype=bool),
        "pos_pool": np.zeros((m, n, n), dtype=bool),
        "neg_pool": np.zeros((m, n, n), dtype=bool),
        "skipped": np.zeros((m, n), dtype=bool),
        "n_pos": np.ones((m, n), dtype=np.int64),
        "n_neg": np.ones((m, n), dtype=np.int64),
        "coupling": np.zeros((m, n, n)),
    }
    for b in range(m):
        for a in range(n):
            positives = [j for j in range(n) if j != a and ids[b, j] == ids[b, a]]
            negatives = [j for j in range(n) if ids[b, j] != ids[b, a]]
            if not positives or not negatives:
                missing = "positive" if not positives else "negative"
                raise BatchCompositionError(f"anchor {a} has no {missing} (id {ids[b, a]!r})")
            out["same_id"][b, a, positives] = True
            out["diff_id"][b, a, negatives] = True
            pool = [j for j in range(n) if j != a and bias[b, j] == bias[b, a]]
            other = [j for j in range(n) if bias[b, j] != bias[b, a]]
            if not pool or not other:
                out["skipped"][b, a] = True
                continue
            out["pos_pool"][b, a, pool] = True
            out["neg_pool"][b, a, other] = True
            out["n_pos"][b, a] = len(pool)
            out["n_neg"][b, a] = len(other)
            for j in pool:
                out["coupling"][b, a, j] = 1.0 / len(pool)
            for j in other:
                out["coupling"][b, a, j] = -1.0 / len(other)
    return out


def assert_phase_matches_loop(ids, bias):
    phase = batch_labels(ids, bias)
    for name, expected in loop_batch_labels(ids, bias).items():
        got = getattr(phase, name)
        assert got.shape == expected.shape, name
        assert np.array_equal(got, expected), name
        if name == "coupling":  # the bits, so a -0.0 against a 0.0 shows too
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    for b in range(len(ids)):
        one = phase[b]
        for name in vars(phase):
            assert np.array_equal(getattr(one, name), getattr(phase, name)[b]), name


class TestBatchLabels:
    def test_matches_loop_on_random_stacks(self):
        rng = np.random.default_rng(46)
        kinds = set()
        for _ in range(200):
            m = int(rng.integers(1, 6))
            p, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            ids = np.stack([rng.permutation(np.repeat(rng.choice(50, p, replace=False), k))
                            for _ in range(m)])
            bias = rng.integers(0, int(rng.integers(1, 4)), size=ids.shape)
            if m > 1 and rng.random() < 0.3:
                bias[int(rng.integers(0, m))] = 7  # a batch of one bias class
            assert_phase_matches_loop(ids, bias)
            n_skipped = batch_labels(ids, bias).skipped.sum(axis=1)
            kinds.update(np.select([n_skipped == 0, n_skipped == ids.shape[1]],
                                   ["none", "all"], "some").tolist())
        assert kinds == {"none", "some", "all"}  # skipped anchors per batch

    def test_one_bias_class_and_string_labels(self):
        ids = np.array([["A", "A", "B", "B"], ["C", "D", "C", "D"]])
        bias = np.array([["P", "P", "P", "P"], ["P", "Q", "Q", "Q"]])
        assert_phase_matches_loop(ids, bias)
        phase = batch_labels(ids, bias)
        assert phase.skipped[0].all() and not phase.pos_pool[0].any()
        assert phase.skipped[1].tolist() == [True, False, False, False]

    @pytest.mark.parametrize(
        "ids, message",
        [
            ([["A", "A", "B", "B"], ["A", "A", "B", "C"]],
             "anchor 2 has no positive (id np.str_('B'))"),
            ([["A", "A", "B", "B"], ["A", "A", "A", "A"]],
             "anchor 0 has no negative (id np.str_('A'))"),
            ([[3, 3, 4, 5]], "anchor 2 has no positive (id np.int64(4))"),
        ],
    )
    def test_identity_error_wording(self, ids, message):
        ids = np.array(ids)
        bias = np.zeros(ids.shape, dtype=int)
        with pytest.raises(BatchCompositionError) as loop:
            loop_batch_labels(ids, bias)
        with pytest.raises(BatchCompositionError) as stacked:
            batch_labels(ids, bias)
        assert str(stacked.value) == str(loop.value) == message

    def test_misshapen_labels_rejected(self):
        with pytest.raises(ConfigError, match="one shape"):
            batch_labels(np.array([[0, 0, 1, 1]]), np.array([[0, 1, 0]]))
        with pytest.raises(ConfigError, match="one shape"):
            batch_labels(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))


class TestReidHardLoss:
    ids = np.array(["A", "A", "B", "B"])

    def test_spec_value_16(self):
        emb = col([0.0, 2.0, 1.0, 3.0])
        out = reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(self.ids), margin=1.0)
        assert out.value == pytest.approx(16.0)
        np.testing.assert_allclose(out.selection.hinge_arg, [4.0, 4.0, 4.0, 4.0])
        assert out.value == pytest.approx(brute_force_hard_loss(emb, self.ids, 1.0)[0])

    def test_all_hinges_inactive(self):
        emb = col([0.0, 1.0, 3.0, 4.0])
        out = reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(self.ids), margin=1.0)
        assert out.value == 0.0
        assert not out.grads.any()
        assert not out.selection.active.any()

    def test_degenerate_geometry(self):
        emb = np.zeros((4, 2))
        out = reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(self.ids), margin=0.7)
        assert out.value == pytest.approx(4 * 0.7)

    def test_anchor_without_positive(self):
        with pytest.raises(BatchCompositionError):
            labels_of(np.array(["A", "B", "B"]))

    def test_empty_batch_rejected(self):
        with pytest.raises(BatchCompositionError, match="empty batch"):
            labels_of(np.array([], dtype=str))

    def test_labels_of_another_batch_size_rejected(self):
        emb = col([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ConfigError, match="id labels misaligned"):
            reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(self.ids), 1.0)

    def test_tie_break_lowest_index(self):
        # two equidistant negatives for anchor 0
        emb = col([0.0, 0.5, 1.0, -1.0])
        out = reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(self.ids), margin=10.0)
        assert out.selection.neg_idx[0] == 2


class TestBiasEasyLoss:
    ids = np.array(["A", "A", "B", "B"])
    bias = np.array(["P", "P", "Q", "Q"])
    labels = labels_of(ids, bias)

    def test_spec_value_12(self):
        # anchor 0: same-bias pool {1} mean 9, other pool {2, 3} mean (1 + 4) / 2,
        # so 1 + 9 - 2.5 = 7.5; anchor 2: 1 + 1 - (1 + 4) / 2 = -0.5; by symmetry
        # anchors 1 and 3 match, and the two active hinges sum to 15
        emb = col([0.0, 3.0, 1.0, 2.0])
        out = bias_easy_loss(emb, pairwise_sqdist(emb), self.labels, margin=1.0)
        assert out.value == pytest.approx(15.0)
        np.testing.assert_allclose(out.selection.hinge_arg, [7.5, 7.5, -0.5, -0.5])
        assert out.value == pytest.approx(brute_force_easy_loss(emb, self.bias, 1.0))

    def test_all_inactive(self):
        emb = col([0.0, 1.0, 3.0, 4.0])
        out = bias_easy_loss(emb, pairwise_sqdist(emb), self.labels, margin=1.0)
        assert out.value == 0.0
        assert not out.grads.any()

    def test_degenerate_geometry(self):
        emb = np.zeros((4, 2))
        out = bias_easy_loss(emb, pairwise_sqdist(emb), self.labels, margin=0.25)
        assert out.value == pytest.approx(4 * 0.25)

    # the label phase needs a positive and a negative identity for every
    # anchor, so each batch below has four rows, two per identity
    def test_skipped_anchor_counted_not_fatal(self):
        emb = col([0.0, 1.0, 2.0, 3.0])
        labels = labels_of(self.ids, np.array(["P", "Q", "Q", "Q"]))
        out = bias_easy_loss(emb, pairwise_sqdist(emb), labels, margin=1.0)
        assert out.n_skipped == 1  # anchor 0 has no same-bias partner
        assert out.selection.skipped[0]

    def test_all_skipped_is_fatal(self):
        emb = col([0.0, 1.0, 2.0, 3.0])
        labels = labels_of(self.ids, np.array(["P", "P", "P", "P"]))
        with pytest.raises(
            BatchCompositionError,
            match="^every anchor lacks a same-bias or different-bias partner$",
        ):
            bias_easy_loss(emb, pairwise_sqdist(emb), labels, margin=1.0)

    def test_same_id_samples_allowed_in_pools(self):
        # identity is irrelevant to the bias pools by construction: rows 0
        # and 1 share an identity and a bias class, and 1 is in 0's pool
        emb = col([0.0, 0.1, 5.0, 5.1])
        out = bias_easy_loss(emb, pairwise_sqdist(emb), self.labels, margin=1.0)
        np.testing.assert_array_equal(out.selection.pos_pool[0], [False, True, False, False])
        np.testing.assert_array_equal(out.selection.neg_pool[0], [False, False, True, True])


class TestCombinedLoss:
    emb = col([0.0, 2.0, 1.0, 3.0])
    ids = np.array(["A", "A", "B", "B"])
    bias = np.array(["P", "Q", "Q", "P"])
    labels = labels_of(ids, bias)

    def test_component_values(self):
        # frozen from the exhaustive-search oracles below; bias by hand:
        # anchors 0 and 3 give 1 + 9 - (4 + 1) / 2 = 7.5, anchors 1 and 2
        # give 1 + 1 - (4 + 1) / 2 = -0.5 and stay inactive
        assert brute_force_hard_loss(self.emb, self.ids, 1.0)[0] == pytest.approx(16.0)
        assert brute_force_easy_loss(self.emb, self.bias, 1.0) == pytest.approx(15.0)

    def test_reduce_combination(self):
        out = combined_loss(self.emb, self.labels, "reduce", 1.0, 0.01, 1.0, 1.0)
        assert out.value == pytest.approx(16.0 - 0.01 * 15.0)
        assert out.value == pytest.approx(15.85)

    def test_enhance_combination(self):
        out = combined_loss(self.emb, self.labels, "enhance", 1.0, 0.01, 1.0, 1.0)
        assert out.value == pytest.approx(16.0 + 0.01 * 15.0)

    def test_zero_bias_weight_reduces_to_reid(self):
        for mode in ("reduce", "enhance"):
            out = combined_loss(self.emb, self.labels, mode, 1.0, 0.0, 1.0, 1.0)
            ref = reid_hard_loss(self.emb, pairwise_sqdist(self.emb), labels_of(self.ids), 1.0)
            assert out.value == ref.value
            np.testing.assert_array_equal(out.grads, ref.grads)

    def test_zero_reid_weight_enhance_is_scaled_bias_loss(self):
        out = combined_loss(self.emb, self.labels, "enhance", 0.0, 0.05, 1.0, 1.0)
        ref = bias_easy_loss(self.emb, pairwise_sqdist(self.emb), self.labels, 1.0)
        assert out.value == pytest.approx(0.05 * ref.value)
        np.testing.assert_allclose(out.grads, 0.05 * ref.grads)

    def test_grad_is_signed_combination(self):
        r = combined_loss(self.emb, self.labels, "reduce", 1.0, 0.3, 1.0, 1.0)
        e = combined_loss(self.emb, self.labels, "enhance", 1.0, 0.3, 1.0, 1.0)
        np.testing.assert_allclose(
            r.grads, 1.0 * r.reid.grads - 0.3 * r.bias.grads, atol=1e-14
        )
        np.testing.assert_allclose(
            e.grads, 1.0 * e.reid.grads + 0.3 * e.bias.grads, atol=1e-14
        )
        np.testing.assert_array_equal(r.reid.grads, e.reid.grads)
        np.testing.assert_array_equal(r.bias.grads, e.bias.grads)

    def test_bad_mode_and_weights(self):
        with pytest.raises(ConfigError):
            combined_loss(self.emb, self.labels, "boost", 1.0, 0.1, 1.0, 1.0)
        with pytest.raises(ConfigError):
            combined_loss(self.emb, self.labels, "reduce", -1.0, 0.1, 1.0, 1.0)


def random_batch(rng, n_ids=4, k=3, d=4, n_bias=2):
    emb = rng.normal(size=(n_ids * k, d))
    ids = np.repeat(np.arange(n_ids), k)
    bias = rng.integers(0, n_bias, size=n_ids * k).astype(str)
    return emb, ids, bias


def assert_hard_loss_matches_oracle(emb, ids, m):
    out = reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(ids), m)
    value, grads = brute_force_hard_loss(emb, ids, m)
    assert out.value == value
    # the bits, so a -0.0 against a 0.0 shows too
    assert np.array_equal(out.grads.view(np.uint64), grads.view(np.uint64))


class TestSelectionOracle:
    def test_matches_brute_force_many_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n_ids = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            emb, ids, bias = random_batch(rng, n_ids, k, d=int(rng.integers(1, 5)))
            m = float(rng.uniform(0.1, 2.0))
            assert_hard_loss_matches_oracle(emb, ids, m)
            try:
                ours = bias_easy_loss(emb, pairwise_sqdist(emb), labels_of(ids, bias), m).value
            except BatchCompositionError:
                with pytest.raises(BatchCompositionError):
                    brute_force_easy_loss(emb, bias, m)
                continue
            assert ours == brute_force_easy_loss(emb, bias, m)

    def test_hard_loss_bit_exact_on_tie_heavy_batches(self):
        # rows on a coarse grid, so many candidates sit at equal distances
        # and duplicated rows tie at zero; the scale makes the coordinates
        # inexact in binary, so the order of float additions shows too
        rng = np.random.default_rng(43)
        for _ in range(300):
            n_ids = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            scale = float(rng.choice([1.0, 0.1, 0.37]))
            emb = rng.integers(-2, 3, size=(n_ids * k, d)) * scale
            ids = rng.permutation(np.repeat(np.arange(n_ids), k))
            assert_hard_loss_matches_oracle(emb, ids, float(rng.choice([0.0, 0.3, 1.0, 2.5])))


def mask_mean_active_fraction(sel) -> float:
    """The share of considered anchors that are active, as a bool-mask mean."""
    considered = ~sel.skipped
    return float(sel.active[considered].mean()) if considered.any() else 0.0


class TestActiveFraction:
    def test_empty_pool_selection_reads_zero(self):
        for n in (0, 1, 6):
            sel = PoolSelection.empty(n)
            assert sel.active_fraction == 0.0 == mask_mean_active_fraction(sel)

    def test_equals_mask_mean_on_partly_skipped_batches(self):
        rng = np.random.default_rng(45)
        partly_skipped = 0
        for _ in range(300):
            n_ids, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            emb, ids, bias = random_batch(rng, n_ids, k, d=2, n_bias=int(rng.integers(2, 5)))
            m = float(rng.uniform(0.0, 3.0))
            d2 = pairwise_sqdist(emb)
            sel = reid_hard_loss(emb, d2, labels_of(ids), m).selection
            assert sel.active_fraction == mask_mean_active_fraction(sel)
            try:
                sel = bias_easy_loss(emb, d2, labels_of(ids, bias), m).selection
            except BatchCompositionError:
                continue
            partly_skipped += bool(sel.skipped.any())
            assert isinstance(sel.active_fraction, float)
            assert sel.active_fraction == mask_mean_active_fraction(sel)
        assert partly_skipped >= 20


def embedding_fd_grads(value_fn, emb, h=1e-6):
    g = np.zeros_like(emb)
    for i in range(emb.shape[0]):
        for j in range(emb.shape[1]):
            orig = emb[i, j]
            emb[i, j] = orig + h
            up = value_fn(emb)
            emb[i, j] = orig - h
            dn = value_fn(emb)
            emb[i, j] = orig
            g[i, j] = (up - dn) / (2 * h)
    return g


def far_from_ties(emb, ids, bias, margins, tol=1e-3):
    """Reject configurations where a hinge or a selection is near a tie."""
    d2 = pairwise_sqdist(emb)
    labels = labels_of(ids, bias)
    for fn, m in ((reid_hard_loss, margins[0]), (bias_easy_loss, margins[1])):
        out = fn(emb, d2, labels, m)
        if np.abs(out.selection.hinge_arg[~out.selection.skipped]).min() < tol:
            return False
    iu = np.triu_indices(len(emb), k=1)
    vals = np.sort(d2[iu])
    if len(vals) > 1 and np.diff(vals).min() < 1e-6:
        return False
    return True


class TestGradients:
    @pytest.mark.parametrize("mode", ["reduce", "enhance"])
    def test_combined_matches_embedding_fd(self, mode):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10:
            emb, ids, bias = random_batch(rng, n_ids=3, k=2, d=3)
            if not far_from_ties(emb, ids, bias, (0.5, 0.5)):
                continue
            labels = labels_of(ids, bias)
            out = combined_loss(emb, labels, mode, 1.0, 0.2, 0.5, 0.5)
            fd = embedding_fd_grads(
                lambda e: combined_loss(e, labels, mode, 1.0, 0.2, 0.5, 0.5).value, emb
            )
            np.testing.assert_allclose(out.grads, fd, rtol=1e-5, atol=1e-7)
            checked += 1

    def test_inactive_hinge_grads_exactly_zero(self):
        # spread ids so far apart every reid hinge is slack
        emb = col([0.0, 0.1, 100.0, 100.1])
        ids = np.array(["A", "A", "B", "B"])
        out = reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(ids), margin=0.3)
        assert not out.selection.active.any()
        assert np.count_nonzero(out.grads) == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        emb, ids, bias = random_batch(rng, n_ids=3, k=2, d=3)
        if len(np.unique(bias)) < 2:
            return
        if not far_from_ties(emb, ids, bias, (0.4, 0.4)):
            return
        perm = rng.permutation(len(emb))
        base = combined_loss(emb, labels_of(ids, bias), "reduce", 1.0, 0.5, 0.4, 0.4)
        shuf_labels = labels_of(ids[perm], bias[perm])
        shuf = combined_loss(emb[perm], shuf_labels, "reduce", 1.0, 0.5, 0.4, 0.4)
        assert shuf.value == pytest.approx(base.value, rel=1e-12)
        np.testing.assert_allclose(shuf.grads, base.grads[perm], atol=1e-12)


class TestZeroBiasWeightRobustness:
    def test_single_bias_class_batch_trains_as_baseline(self):
        # with lam_db = 0 the bias term is never evaluated, so a batch that
        # cannot form bias pairs is still a valid baseline batch
        emb = col([0.0, 2.0, 1.0, 3.0])
        ids = np.array(["A", "A", "B", "B"])
        single = np.array(["P", "P", "P", "P"])
        out = combined_loss(emb, labels_of(ids, single), "reduce", 1.0, 0.0, 1.0, 1.0)
        ref = reid_hard_loss(emb, pairwise_sqdist(emb), labels_of(ids), 1.0)
        assert out.value == ref.value
        np.testing.assert_array_equal(out.grads, ref.grads)
        assert out.bias.n_skipped == 4

    def test_nonzero_weight_still_errors_on_single_class(self):
        emb = col([0.0, 2.0, 1.0, 3.0])
        ids = np.array(["A", "A", "B", "B"])
        single = np.array(["P", "P", "P", "P"])
        with pytest.raises(BatchCompositionError):
            combined_loss(emb, labels_of(ids, single), "reduce", 1.0, 0.01, 1.0, 1.0)
