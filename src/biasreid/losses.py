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

A loss has two phases. The first reads labels alone: `batch_labels` takes
a stack of batches' identity and bias labels and, for every batch at once,
builds the identity same/diff masks, the bias pools (the rows of an anchor
lacking either pool cleared), the skipped anchors, each pool's size and the
bias coupling base P_a/|P_a| - N_a/|N_a|, and it rejects an anchor lacking
an identity positive or negative. The second takes one batch's embeddings
and its label phase (`phase[b]`) and only selects and weighs distances; the
bias term still rejects a batch whose every anchor is skipped, so a lam_db 0
baseline trains on a one-class batch.

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
def _upper_pairs(n: int) -> tuple[np.ndarray, ...]:
    """Row and column indices of the i < j pairs of an n x n matrix, and the
    flat indices of (i, j) and of (j, i)."""
    rows, cols = np.triu_indices(n, 1)
    return rows, cols, rows * n + cols, cols * n + rows


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
    rows, cols, upper_at, lower_at = _upper_pairs(n)
    upper = np.empty(len(rows))
    block = max(1, _PAIR_CELLS // max(d, 1))
    with np.errstate(over="ignore"):  # an overflow raises below
        for start in range(0, len(rows), block):
            blk = slice(start, start + block)
            diff = e.take(rows[blk], axis=0)
            diff -= e.take(cols[blk], axis=0)
            diff *= diff
            np.add.reduce(diff, axis=-1, out=upper[blk])
    if not np.isfinite(upper).all():
        raise DataError("squared distance between embeddings overflows float64")
    d2 = np.zeros(n * n)
    d2[upper_at] = upper
    d2[lower_at] = upper
    return d2.reshape(n, n)


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


@dataclass
class BatchLabels:
    """The label phase of a stack of batches ([m, n] labels), or of one
    batch when indexed (`phase[b]`): all that the two terms select from
    labels alone. Masks are [..., n, n], row a for anchor a."""

    same_id: np.ndarray  # same identity, diagonal off
    diff_id: np.ndarray  # another identity
    pos_pool: np.ndarray  # same bias class, diagonal off; empty for a skipped anchor
    neg_pool: np.ndarray  # another bias class; empty for a skipped anchor
    skipped: np.ndarray  # [..., n] anchors lacking either bias pool
    n_pos: np.ndarray  # [..., n] |P_a|, 1 for a skipped anchor so its zero sums stay finite
    n_neg: np.ndarray  # [..., n] |N_a|, likewise
    coupling: np.ndarray  # pos_pool / |P_a| - neg_pool / |N_a|

    def __getitem__(self, b) -> "BatchLabels":
        return BatchLabels(*[field[b] for field in vars(self).values()])


def batch_labels(id_labels, bias_labels) -> BatchLabels:
    """The label phase of m batches of n rows from their [m, n] identity and
    bias labels. Raises `BatchCompositionError` for the first anchor, in
    batch order, that lacks an identity positive or negative; an anchor
    lacking a bias pool is only marked skipped."""
    ids = np.asarray(id_labels)
    bias = np.asarray(bias_labels)
    if ids.ndim != 2 or bias.shape != ids.shape:
        raise ConfigError(
            f"need [batches, rows] id and bias labels of one shape, got {ids.shape}, {bias.shape}"
        )
    n = ids.shape[1]
    if n == 0:
        raise BatchCompositionError("empty batch")
    off_diagonal = ~np.eye(n, dtype=bool)
    same_id = ids[:, :, None] == ids[:, None, :]
    id_count = same_id.sum(axis=2)  # the anchor's own row included
    lacking = (id_count == 1) | (id_count == n)
    if lacking.any():
        b, a = np.argwhere(lacking)[0]
        missing = "positive" if id_count[b, a] == 1 else "negative"
        raise BatchCompositionError(f"anchor {a} has no {missing} (id {ids[b, a]!r})")
    diff_id = ~same_id
    same_id &= off_diagonal
    pos_pool = bias[:, :, None] == bias[:, None, :]
    n_pos = pos_pool.sum(axis=2) - 1
    n_neg = (n - 1) - n_pos
    skipped = (n_pos == 0) | (n_neg == 0)
    neg_pool = ~pos_pool
    pos_pool &= off_diagonal
    pos_pool[skipped] = False
    neg_pool[skipped] = False
    n_pos[skipped] = n_neg[skipped] = 1
    coupling = pos_pool / n_pos[..., None]
    coupling -= neg_pool / n_neg[..., None]
    return BatchLabels(same_id, diff_id, pos_pool, neg_pool, skipped, n_pos, n_neg, coupling)


def reid_hard_loss(
    embeddings: np.ndarray, d2: np.ndarray, labels: BatchLabels, margin: float
) -> LossOutput:
    """Batch-hard identity triplet loss with exact subgradients.

    `d2` is `pairwise_sqdist(embeddings)` and `labels` the batch's label
    phase. Per anchor: hardest positive = max squared distance over same-id
    others, hardest negative = min over different-id samples.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    n, d = emb.shape
    if labels.same_id.shape != (n, n):
        raise ConfigError("id labels misaligned with embeddings")
    pos_idx = np.where(labels.same_id, d2, -np.inf).argmax(axis=1)
    neg_idx = np.where(labels.diff_id, d2, np.inf).argmin(axis=1)
    rows = np.arange(n)
    args = margin + d2[rows, pos_idx] - d2[rows, neg_idx]
    active = args > 0
    a, p, q = rows[active], pos_idx[active], neg_idx[active]
    # d/de of [m + d2(a,p) - d2(a,q)]: through the selected pair only; the
    # terms of row a_i, p_i, q_i go to terms[i, 0], [i, 1], [i, 2]
    anchors = emb[a]
    ap = anchors - emb[p]
    an = anchors - emb[q]
    terms = np.empty((len(a), 3, d))
    np.subtract(ap, an, out=terms[:, 0])
    terms[:, 0] *= 2.0
    np.multiply(ap, -2.0, out=terms[:, 1])
    np.multiply(an, 2.0, out=terms[:, 2])
    rows_hit = np.stack([a, p, q], axis=1).ravel()
    # one sequential 1-D scatter over the flat elements, in rows_hit's order
    flat_idx = _flat_rows(n, d)[rows_hit].ravel()
    grads = np.bincount(flat_idx, terms.ravel(), minlength=n * d).reshape(n, d)
    total = float(_ordered_sum(args[active]))
    sel = TripletSelection(pos_idx, neg_idx, args, active, np.zeros(n, dtype=bool))
    return LossOutput(total, grads, sel)


@lru_cache(maxsize=None)
def _flat_rows(n: int, d: int) -> np.ndarray:
    """Row r holds the flat indices r * d, ..., r * d + d - 1 of an [n, d] array."""
    return np.arange(n * d).reshape(n, d)


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly in index order (a sequential
    accumulate, not numpy's pairwise sum), so it equals a plain loop bit for
    bit; 0.0 over an empty axis."""
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return np.cumsum(values, axis=-1)[..., -1]


def _pool_sums(pool: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Per anchor a, the sum of d2(a, j) over the j of row a of `pool`, in
    index order, as a loop adds them. d2 is symmetric, so column a of
    pool.T * d2 holds those terms (and +0.0 elsewhere), and reducing a
    C-ordered array over axis 0 adds its rows one by one: numpy sums
    pairwise only along the contiguous axis."""
    terms = np.empty(d2.shape)
    np.multiply(pool.T, d2, out=terms)
    return np.add.reduce(terms, axis=0)


def bias_easy_loss(
    embeddings: np.ndarray, d2: np.ndarray, labels: BatchLabels, margin: float
) -> LossOutput:
    """Pool-mean bias triplet loss: per anchor, mean squared distance to the
    other rows of its bias class (any id) against the mean to the rows of
    every other class; see the module docstring for the rule and why. `d2`
    is `pairwise_sqdist(embeddings)` and `labels` the batch's label phase.

    Anchors lacking either pool are skipped and counted, never fatal unless
    every anchor is skipped.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    n = emb.shape[0]
    if labels.pos_pool.shape != (n, n):
        raise ConfigError("bias labels misaligned with embeddings")
    skipped = labels.skipped
    if skipped.all():
        raise BatchCompositionError("every anchor lacks a same-bias or different-bias partner")
    mean_same = _pool_sums(labels.pos_pool, d2) / labels.n_pos
    mean_diff = _pool_sums(labels.neg_pool, d2) / labels.n_neg
    args = np.where(skipped, 0.0, margin + mean_same - mean_diff)
    active = ~skipped & (args > 0)
    total = float(_ordered_sum(np.where(active, args, 0.0)))

    # total = sum_{a,j} c[a, j] d2(a, j) + const, with c = 1/|P_a| on the
    # same pool and -1/|N_a| on the other pool of each active anchor; every
    # d2(a, j) pulls on both rows a and j, hence the symmetric coupling s
    c = labels.coupling * active[:, None]
    s = c + c.T
    # 2 * (s.sum(axis=1)[:, None] * emb - s @ emb), rounded as written
    grads = s @ emb
    np.subtract(s.sum(axis=1)[:, None] * emb, grads, out=grads)
    grads *= 2.0
    sel = PoolSelection(labels.pos_pool, labels.neg_pool, args, active, skipped)
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
    labels: BatchLabels,
    mode: str,
    lam_dr: float,
    lam_db: float,
    margin_id: float,
    margin_bias: float,
) -> CombinedLoss:
    """reduce: lam_dr * L_id - lam_db * L_bias; enhance: plus instead of minus.

    `labels` is the batch's label phase. Both weights are stored unsigned;
    the branch mode carries the sign. The gradient is the matching signed
    combination of the component gradients.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if lam_dr < 0 or lam_db < 0:
        raise ConfigError("loss weights must be >= 0")
    emb = np.asarray(embeddings, dtype=np.float64)
    d2 = pairwise_sqdist(emb)
    reid = reid_hard_loss(emb, d2, labels, margin_id)
    if lam_db == 0.0:
        # exactly the identity loss; the bias term is not even evaluated, so
        # a batch that cannot form bias pairs still trains as a baseline
        n = emb.shape[0]
        bias = LossOutput(0.0, np.zeros_like(emb), PoolSelection.empty(n), n_skipped=n)
        return CombinedLoss(lam_dr * reid.value, lam_dr * reid.grads, reid, bias)
    bias = bias_easy_loss(emb, d2, labels, margin_bias)
    sign = -1.0 if mode == "reduce" else 1.0
    value = lam_dr * reid.value + sign * lam_db * bias.value
    grads = lam_dr * reid.grads
    grads += sign * lam_db * bias.grads
    return CombinedLoss(value, grads, reid, bias)
