"""Triplet losses over a mini-batch: hard-mined for identity, pool-mean for
bias, and their signed combination.

The identity loss picks the farthest same-id and nearest different-id sample
per anchor, and its gradient flows only through that pair. Ties in
argmin/argmax break toward the lowest index.

The bias loss ignores identity. Per anchor a it compares the mean squared
distance to its same-bias pool P_a (every other row with a's bias class)
against the mean over its other-bias pool N_a (every row of another class):

    [m + mean_{j in P_a} d2(a, j) - mean_{j in N_a} d2(a, j)]_+

Both branches use this clamped term; the mode only sets its sign.

The paper text in this repo (PAPER.md holds only the abstract) does not fix
how bias triplets are mined, so the rule is chosen by what each branch must
do to rankings. An extreme pair does not work here. The nearest same-bias
and farthest other-bias pair clears the margin once identity training
spreads identities apart, and the farthest row never sits near the top of a
ranking, so the enhance branch stops moving same-bias negatives up. The
hardest pair moves them little, and the reduce branch, whose objective
-[.]_+ has no lower bound, diverges on it. The pool means see every row of
the batch, so the hinge stays live in both branches while identity training
shapes the embedding, and its gradient reaches the near neighbours that
decide ranks.

All gradients are exact subgradients with respect to the embeddings.
`combined_loss` builds the batch's distance matrix once for both terms, from
the i < j pairs only, and each term equals a plain per-anchor loop bit for
bit. The identity term selects by masked argmax/argmin (first index wins,
and the masks' +-inf never tie a real distance, since `pairwise_sqdist`
rejects overflow), sums its active hinges in index order, and scatters its
gradient with one weighted `np.bincount` over the flat gradient, which adds
its weights one by one in input order: element k of row r gets index
r * d + k, and the rows come as a_0, p_0, q_0, a_1, ... of the active
anchors, so every element receives the loop's float additions in the loop's
order. The bias term's sums also run in index order. The pairs' squared
differences are formed in blocks sized by a cell budget, not by a pair
count, so the buffers stay the same size whatever the embedding width, and
each pair's sum lies within one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BatchCompositionError, ConfigError, DataError

MODES = ("reduce", "enhance")


# cells of each [pairs, d] buffer: 64 KiB of float64, 128 pairs at d = 64.
# From 128 KiB, glibc malloc's mmap threshold, a training run faulted the
# buffers back in on every call and was slower (ROADMAP item 11)
_PAIR_CELLS = 1 << 13


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the i < j pairs of an n x n matrix."""
    return np.triu_indices(n, 1)


def pairwise_sqdist(embeddings: np.ndarray) -> np.ndarray:
    """Symmetric [n, n] matrix of squared Euclidean distances.

    Bit-exact: each i < j pair is one contiguous sum((e_i - e_j)^2) and is
    mirrored into (j, i), which is exact since (a - b)^2 == (b - a)^2; the
    diagonal is exactly 0. So it equals a naive per-pair loop, and selection
    ties and the oracles' values reproduce exactly. The pairs are taken
    `max(1, _PAIR_CELLS // d)` at a time into buffers of at most
    `_PAIR_CELLS` cells, so no [n, n, d] broadcast is built; a pair's sum
    never spans two blocks, so where the blocks end changes no bit. Ranking
    uses `evaluation._cross_sqdist` instead, whose Gram form is not
    bit-exact but needs only one block x G memory.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if not np.isfinite(e).all():
        raise DataError("non-finite embeddings")
    n, d = e.shape
    rows, cols = _upper_pairs(n)
    upper = np.empty(len(rows))
    block = max(1, _PAIR_CELLS // max(d, 1))
    with np.errstate(over="ignore"):  # an overflow raises below
        for start in range(0, len(rows), block):
            blk = slice(start, start + block)
            diff = np.take(e, rows[blk], axis=0)
            diff -= np.take(e, cols[blk], axis=0)
            diff *= diff
            upper[blk] = diff.sum(axis=-1)
    if not np.isfinite(upper).all():
        raise DataError("squared distance between embeddings overflows float64")
    d2 = np.zeros((n, n))
    d2[rows, cols] = upper
    d2[cols, rows] = upper
    return d2


class _HingeStats:
    @property
    def active_fraction(self) -> float:
        """Share of the considered (not skipped) anchors whose hinge is active."""
        considered = len(self.skipped) - np.count_nonzero(self.skipped)
        if considered == 0:
            return 0.0
        # `active` never marks a skipped anchor, so its count is over the considered ones
        return np.count_nonzero(self.active) / considered


@dataclass
class TripletSelection(_HingeStats):
    """Chosen positive and negative per anchor; the identity loss skips none."""

    pos_idx: np.ndarray
    neg_idx: np.ndarray
    hinge_arg: np.ndarray
    active: np.ndarray
    skipped: np.ndarray


@dataclass
class PoolSelection(_HingeStats):
    """Pools per anchor: row a of `pos_pool`/`neg_pool` marks the rows whose
    distances to a are averaged; both rows are empty for a skipped anchor."""

    pos_pool: np.ndarray
    neg_pool: np.ndarray
    hinge_arg: np.ndarray
    active: np.ndarray
    skipped: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "PoolSelection":
        none = np.zeros((n, n), dtype=bool)
        return cls(none, none.copy(), np.zeros(n), np.zeros(n, dtype=bool), np.ones(n, dtype=bool))


@dataclass
class LossOutput:
    value: float
    grads: np.ndarray
    selection: TripletSelection | PoolSelection
    n_skipped: int = 0


def reid_hard_loss(
    embeddings: np.ndarray, d2: np.ndarray, id_labels, margin: float
) -> LossOutput:
    """Batch-hard identity triplet loss with exact subgradients.

    `d2` is `pairwise_sqdist(embeddings)`. Per anchor: hardest positive =
    max squared distance over same-id others, hardest negative = min over
    different-id samples. Every anchor must have at least one of each.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(id_labels)
    n = emb.shape[0]
    if labels.shape[0] != n:
        raise ConfigError("id labels misaligned with embeddings")
    if n == 0:
        raise BatchCompositionError("empty batch")
    same = labels[:, None] == labels[None, :]
    diff = ~same
    np.fill_diagonal(same, False)
    lacking = ~same.any(axis=1) | ~diff.any(axis=1)
    if lacking.any():
        a = int(np.argmax(lacking))
        missing = "negative" if same[a].any() else "positive"
        raise BatchCompositionError(f"anchor {a} has no {missing} (id {labels[a]!r})")

    pos_idx = np.where(same, d2, -np.inf).argmax(axis=1)
    neg_idx = np.where(diff, d2, np.inf).argmin(axis=1)
    rows = np.arange(n)
    args = margin + d2[rows, pos_idx] - d2[rows, neg_idx]
    active = args > 0
    a, p, q = rows[active], pos_idx[active], neg_idx[active]
    # d/de of [m + d2(a,p) - d2(a,q)]: through the selected pair only
    ap = emb[a] - emb[p]
    an = emb[a] - emb[q]
    rows_hit = np.array([a, p, q]).T.ravel()
    terms = np.array([2.0 * (ap - an), -2.0 * ap, 2.0 * an]).transpose(1, 0, 2)
    # one sequential 1-D scatter over the flat elements, in rows_hit's order
    d = emb.shape[1]
    flat_idx = (rows_hit[:, None] * d + np.arange(d)).ravel()
    grads = np.bincount(flat_idx, terms.ravel(), minlength=n * d).reshape(n, d)
    total = float(_ordered_sum(args[active]))
    sel = TripletSelection(pos_idx, neg_idx, args, active, np.zeros(n, dtype=bool))
    return LossOutput(total, grads, sel)


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly in index order (a sequential
    accumulate, not numpy's pairwise sum), so it equals a plain loop bit for
    bit; 0.0 over an empty axis."""
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return np.cumsum(values, axis=-1)[..., -1]


def bias_easy_loss(
    embeddings: np.ndarray, d2: np.ndarray, bias_labels, margin: float
) -> LossOutput:
    """Pool-mean bias triplet loss: per anchor, mean squared distance to the
    other rows of its bias class (any id) against the mean to the rows of
    every other class; see the module docstring for the rule and why. `d2`
    is `pairwise_sqdist(embeddings)`.

    Anchors lacking either pool are skipped and counted, never fatal unless
    every anchor is skipped.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(bias_labels)
    n = emb.shape[0]
    if labels.shape[0] != n:
        raise ConfigError("bias labels misaligned with embeddings")
    same = labels[:, None] == labels[None, :]
    diff = ~same
    np.fill_diagonal(same, False)
    skipped = ~same.any(axis=1) | ~diff.any(axis=1)
    if skipped.all() and n > 0:
        raise BatchCompositionError("every anchor lacks a same-bias or different-bias partner")
    if skipped.any():
        same[skipped] = False
        diff[skipped] = False
    # a skipped anchor has empty pools; a count of 1 keeps its zero sums finite
    n_same = np.maximum(same.sum(axis=1), 1)
    n_diff = np.maximum(diff.sum(axis=1), 1)
    mean_same = _ordered_sum(np.where(same, d2, 0.0)) / n_same
    mean_diff = _ordered_sum(np.where(diff, d2, 0.0)) / n_diff
    args = np.where(skipped, 0.0, margin + mean_same - mean_diff)
    active = ~skipped & (args > 0)
    total = float(_ordered_sum(np.where(active, args, 0.0)))

    # total = sum_{a,j} c[a, j] d2(a, j) + const, with c = 1/|P_a| on the
    # same pool and -1/|N_a| on the other pool of each active anchor; every
    # d2(a, j) pulls on both rows a and j, hence the symmetric coupling s
    c = (same / n_same[:, None] - diff / n_diff[:, None]) * active[:, None]
    s = c + c.T
    grads = 2.0 * (s.sum(axis=1)[:, None] * emb - s @ emb)
    sel = PoolSelection(same, diff, args, active, skipped)
    return LossOutput(total, grads, sel, n_skipped=int(skipped.sum()))


@dataclass
class CombinedLoss:
    """Signed combination of the identity and bias losses."""

    value: float
    grads: np.ndarray
    reid: LossOutput
    bias: LossOutput


def combined_loss(
    embeddings: np.ndarray,
    id_labels,
    bias_labels,
    mode: str,
    lam_dr: float,
    lam_db: float,
    margin_id: float,
    margin_bias: float,
) -> CombinedLoss:
    """reduce: lam_dr * L_id - lam_db * L_bias; enhance: plus instead of minus.

    Both weights are stored unsigned; the branch mode carries the sign. The
    gradient is the matching signed combination of the component gradients.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if lam_dr < 0 or lam_db < 0:
        raise ConfigError("loss weights must be >= 0")
    emb = np.asarray(embeddings, dtype=np.float64)
    d2 = pairwise_sqdist(emb)
    reid = reid_hard_loss(emb, d2, id_labels, margin_id)
    if lam_db == 0.0:
        # exactly the identity loss; the bias term is not even evaluated, so
        # a batch that cannot form bias pairs still trains as a baseline
        n = emb.shape[0]
        bias = LossOutput(0.0, np.zeros_like(emb), PoolSelection.empty(n), n_skipped=n)
        return CombinedLoss(lam_dr * reid.value, lam_dr * reid.grads, reid, bias)
    bias = bias_easy_loss(emb, d2, bias_labels, margin_bias)
    sign = -1.0 if mode == "reduce" else 1.0
    value = lam_dr * reid.value + sign * lam_db * bias.value
    grads = lam_dr * reid.grads + sign * lam_db * bias.grads
    return CombinedLoss(value, grads, reid, bias)
