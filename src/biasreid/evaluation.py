"""Retrieval scoring and bias measurement of a table of features or
embeddings; it trains no encoder (the run recipes are in `cli`).

Ranking uses squared Euclidean distances on the final descriptor. The
standard protocol drops gallery items sharing both identity and camera with
the query; the nobias protocol additionally drops wrong-identity items that
share the query's bias label, quantifying how much same-bias distractors
inflate or deflate the scores. Bias retention in a frozen representation is
measured two separate ways. `evaluate_embeddings` ranks once and reports
CMC/mAP and, for every channel, the probability that the item at rank r is
a same-bias negative/positive, with its mean over the first ranks (nauc10).
`fit_probe` trains a small probe (learnable PReLU then a linear layer) on
one channel; the report never probes.

A ranking is exact to a chosen depth (see `RankResult`). Excluded items get
an infinite distance, and the ranking is the (distance, gallery index)
order, the one a stable sort of each row gives: the kept items, all finite,
nearest first, then the excluded ones by index. Identical gallery rows get
the distances of the first of them, bit for bit, so they tie exactly and
rank by index. No row is sorted whole:

- A positive's 0-based rank is the number of kept items at a smaller
  distance plus those at an equal distance and a lower index; CMC and mAP
  read nothing else.
- The first `depth` items, which the same-bias curves read, are those at or
  below a bound, sorted by (distance, index). The bound is the depth-th
  smallest of the row's minima over at least `depth` disjoint column groups:
  each minimum is one item's distance, so at least `depth` items lie at or
  below it, and every tie at it is a candidate, so the head is exact.

At depth G the bound is the row's largest distance, and the head is the
whole stable order.

A ranking has two phases. The first reads labels alone, once for every
query: its same-identity gallery items (the only ones the standard protocol
can drop, found in the gallery's ids sorted once), those sharing its
camera, its positives and its count of kept items. The second ranks the
queries a block at a time, from the block's distances to the whole gallery,
with no [block, G] mask: each same-camera mate is set to inf one by one,
and under nobias one penalty row per bias class, 0.0 at the other classes'
items and inf at its own, is added to the query's distances before its
positives of that class get theirs back. A block holds
`max(1, _BLOCK_CELLS // G)` query rows, so its [block, G] arrays hold about
`_BLOCK_CELLS` cells each (one row of G when G exceeds it), whatever Q is.
Besides those and the [Q, depth] result, a ranking holds the gallery's
rows, their twins, their ids sorted, the class table, and per-query label
tables of about Q x (the largest identity's gallery count) entries, freed
after the blocks.

The probe step has no data-dependent select: with x_pos = x above 0 (-0.0
elsewhere) and x_neg = x at and below 0 (0.0 elsewhere), x_pos + slope *
x_neg equals prelu(x, slope) bit for bit for every x and slope.

The probe holds its logits and their gradient class-major, [c, n] with each
class's n values contiguous, so the bias add, column max, shift, exp,
normalisation, one-hot subtraction and 1/n scale each run along rows of n:
numpy pays a fixed cost for each row it loops over, and a row-major step
spent most of its time on rows of c, a handful of classes. Every rounding
stays that of a row-major step that adds each sample's classes in a plain
loop (the tests' reference), where the order of a reduction or a BLAS kernel
would change it:

- the logits are h @ w.T into a row-major [n, c] buffer, transposed by the
  bias add, since BLAS rounds w @ h.T otherwise at some shapes;
- each sample's class total adds its classes in class order, class 0 first,
  as `sum(axis=0)` of the class-major array does (numpy's `sum(axis=1)` of a
  row-major copy adds them so only below 8 classes, and in 8 lanes from 8
  on);
- the gradient is written back row-major, and BLAS reads it from there for
  the weight gradient (rows.T @ h) and d loss / d h (rows @ w), since a
  class-major operand takes other kernels that round otherwise at 90 x 4;
- the bias gradient adds each class's values down the rows in order, as
  `sum(axis=0)` of the row-major gradient does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Table
from .errors import ConfigError, EvaluationError, TrainingError
from .numerics import adam_update, prelu

PROTOCOLS = ("standard", "nobias")
MAX_RANK = 20  # CMC depth of a report
CURVE_RANK = 10  # rank-position curve depth of a report, and its nauc window


@dataclass
class RankResult:
    """The retained queries' rankings, one row per query, to a fixed depth.

    `order[q]` holds the first `depth` gallery positions of the ranking: the
    kept ones, nearest first, then the excluded ones by index. `positive`
    and `same_bias[ch]` are [Q, depth] masks over `order` that flag the kept
    items sharing the query's identity or `ch` label. `lengths[q]` counts
    the kept items. `pos_ranks[q, :n_pos[q]]` are the 0-based ranks of the
    query's positives among them, ascending; the slots past `n_pos[q]` hold G.
    """

    order: np.ndarray
    positive: np.ndarray
    same_bias: dict[str, np.ndarray]
    lengths: np.ndarray
    pos_ranks: np.ndarray
    n_pos: np.ndarray
    dropped: int

    @property
    def n_queries(self) -> int:
        return len(self.order)

    @property
    def depth(self) -> int:
        return self.order.shape[1]


# cells of a block of the ranking (1 MiB of float64): each block takes
# max(1, _BLOCK_CELLS // G) query rows, bounding every [rows, G] array
_BLOCK_CELLS = 1 << 17
# column groups whose per-row minima bound a ranking's head (see `_head`); at
# 64 the minima cost about twice as much for about as many candidates
_HEAD_GROUPS = 256


def _cross_sqdist(a: np.ndarray, b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """[len(a), len(b)] squared Euclidean distances via |a|^2 + |b|^2 - 2ab.

    Computed as (|a|^2 + |b|^2) - (a @ b.T) * 2, then clamped at 0, into the
    product's own buffer; `b_sq` is |b|^2, `(b * b).sum(axis=1)`, which a
    ranking computes once for its gallery. `rank_gallery` calls it on one
    block of query rows against the whole gallery, so it holds two
    [block, G] arrays, each of about `_BLOCK_CELLS` cells. Overflow is not
    warned of: the caller checks the distances. Not
    bit-exact against a per-pair sum((a - b)^2): the Gram expansion rounds
    differently and needs the clamp, and the BLAS product may round a row
    differently in another block, or two identical rows of `b` differently
    by their columns' place in its kernel; `rank_gallery` copies each
    duplicate gallery row's column from its first twin, so twins tie
    exactly. It stays beside the bit-exact
    `losses.pairwise_sqdist` because the per-pair broadcast would hold a
    [block, G, D] array.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = a @ b.T
        d2 *= 2.0
        np.subtract((a * a).sum(axis=1)[:, None] + b_sq, d2, out=d2)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _twins(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(copies, twins): the rows equal to an earlier row, and the first row
    each one equals. Rows compare as floats, so -0.0 equals 0.0. A row whose
    value in some column no other row shares has no twin, so only the rest
    are sorted; equal rows are neighbours in a stable sort over the columns,
    lowest index first. This holds a few [n] arrays where
    `np.unique(axis=0)` held about five copies of the rows."""
    rest = np.arange(len(rows))
    for col in rows.T:
        values = col[rest]
        order = np.argsort(values, kind="stable")
        tied = values[order[1:]] == values[order[:-1]]
        keep = np.zeros(len(rest), dtype=bool)
        keep[order[1:][tied]] = keep[order[:-1][tied]] = True
        rest = rest[keep]
    sub = rows[rest]
    order = np.lexsort(sub.T) if rows.shape[1] else np.arange(len(rest))  # no column: all equal
    same = np.ones(max(len(rest) - 1, 0), dtype=bool)  # each sorted row equals the one before
    for col in sub.T:
        sorted_col = col[order]
        same &= sorted_col[1:] == sorted_col[:-1]
    dup = np.flatnonzero(same) + 1
    heads = np.flatnonzero(np.append(True, ~same))  # the sorted positions starting a run
    copies, twins = rest[order[dup]], rest[order[heads[np.searchsorted(heads, dup) - 1]]]
    by_row = np.argsort(copies)
    return copies[by_row], twins[by_row]


def _positive_ranks(d2: np.ndarray, pos: np.ndarray, n_pos: np.ndarray) -> np.ndarray:
    """Ascending ranks of the positives at gallery positions `pos[:, :n_pos]`
    in rows `d2`, by counting; the slots past `n_pos` get G.

    Each row's hits are summed as int32, exact while G < 2**31 and about
    twice as fast as `count_nonzero(axis=1)`, which sums into intp. A row
    with a j-th positive equals that positive's distance at least once (a
    distance is finite or inf, never NaN), and a row without one compares
    with NaN, which equals nothing; so a block whose equalities number no
    more than its j-th positives holds no tie, and one count over the block
    spares the per-row tie count."""
    g = d2.shape[1]
    ranks = np.full(pos.shape, g)
    for j in range(n_pos.max()):
        has = n_pos > j
        at = np.take_along_axis(d2, pos[:, j : j + 1], axis=1)
        at[~has] = np.nan
        below = np.add.reduce(d2 < at, axis=1, dtype=np.int32)
        # equal distances rank by index; the positive's own equality is no tie
        same = d2 == at
        if np.count_nonzero(same) > np.count_nonzero(has):
            tied = np.flatnonzero(np.add.reduce(same, axis=1, dtype=np.int32) > 1)
            lower = np.arange(g) < pos[tied, j : j + 1]
            below[tied] += np.add.reduce(same[tied] & lower, axis=1, dtype=np.int32)
        ranks[has, j] = below[has]
    ranks.sort(axis=1)
    return ranks


def _head(d2: np.ndarray, depth: int) -> np.ndarray:
    """[rows, depth] gallery positions of each row's first `depth` items in
    (distance, index) order.

    Column c falls in group c % w of w = min(G, max(depth, _HEAD_GROUPS))
    groups. Each group's minimum is the distance of one of its own items, so
    a row's depth-th smallest group minimum (w >= depth) is reached by at
    least `depth` distinct items: every item of the head lies at or below
    it, and the candidates at or below it, ties included, are ordered by
    (row, distance) with one stable lexsort, which keeps index order within
    a tie. A row with fewer than `depth` finite items has an inf bound and
    all of its items as candidates; at depth G every item is one."""
    n, g = d2.shape
    w = min(g, max(depth, _HEAD_GROUPS))
    k = g // w
    mins = np.minimum.reduce(d2[:, : k * w].reshape(n, k, w), axis=1)
    tail = g - k * w  # the last columns, fewer than w, folded into the first groups
    np.minimum(mins[:, :tail], d2[:, k * w :], out=mins[:, :tail])
    bound = np.partition(mins, depth - 1, axis=1)[:, depth - 1]
    # the 1-D flatnonzero split by divmod: a 2-D nonzero of the mask costs ~16x
    flat = np.flatnonzero(d2 <= bound[:, None])
    row, col = np.divmod(flat, g)
    col = col[np.lexsort((d2.ravel()[flat], row))]
    # each row's candidates, at least `depth` of them, sit together in row order
    starts = np.searchsorted(row, np.arange(n))
    return col[starts[:, None] + np.arange(depth)]


def rank_gallery(
    es: Table, protocol: str = "standard", channel: str | None = None, depth: int | None = None
) -> RankResult:
    """Rank the gallery for every query under the chosen exclusion protocol.

    Ties in distance break toward the lower gallery index. Queries left
    without any positive are ranked with their block, then cut and counted.
    `order` and the masks hold the first `depth` items (default and at
    most: the whole gallery); the positive ranks are exact at any depth.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if protocol == "nobias" and channel is None:
        raise ConfigError("nobias protocol needs a bias channel")
    if channel is not None and channel not in es.channels:
        raise ConfigError(f"unknown bias channel {channel!r}")
    if depth is not None and depth < 1:
        raise ConfigError(f"ranking depth must be >= 1, got {depth}")

    q_rows = np.flatnonzero(es.splits == "query")
    g_rows = np.flatnonzero(es.splits == "gallery")
    if len(q_rows) == 0 or len(g_rows) == 0:
        raise EvaluationError("need non-empty query and gallery splits")
    g = len(g_rows)
    depth = g if depth is None else min(depth, g)
    gallery, g_ids, g_cams = es.matrix[g_rows], es.ids[g_rows], es.cameras[g_rows]
    with np.errstate(over="ignore"):  # overflow raises after `_cross_sqdist`
        g_sq = (gallery * gallery).sum(axis=1)
    copies, twins = _twins(gallery)

    # from labels alone, for every query: the gallery items sharing its identity,
    # in index order (-1: none), those on its camera, its positives and kept count
    by_id = np.argsort(g_ids, kind="stable")
    lo, hi = (np.searchsorted(g_ids[by_id], es.ids[q_rows], side) for side in ("left", "right"))
    at = lo[:, None] + np.arange((hi - lo).max())  # places in the id-sorted gallery
    mates = at < hi[:, None]
    cand = np.where(mates, by_id.take(at, mode="clip"), -1)
    same_cam = mates & (g_cams[cand] == es.cameras[q_rows][:, None])
    # each query's positives, row-major: in gallery-index order within a row
    pos_q, pos_j = np.nonzero(mates & ~same_cam)
    n_pos = np.bincount(pos_q, minlength=len(q_rows))
    # the positives packed to the left of each row; the slots past n_pos hold 0
    pos = np.zeros((len(q_rows), n_pos.max()), dtype=np.int64)
    pos[pos_q, np.arange(len(pos_q)) - (np.cumsum(n_pos) - n_pos)[pos_q]] = cand[pos_q, pos_j]
    del at, pos_q, pos_j
    lengths = g - np.count_nonzero(same_cam, axis=1)
    if protocol == "nobias":
        g_codes, q_codes = es.codes[channel][g_rows], es.codes[channel][q_rows]
        n_classes = len(es.channels[channel])
        # per class, inf at the gallery items of that class and 0.0 elsewhere
        penalty = np.where(g_codes == np.arange(n_classes)[:, None], np.inf, 0.0)
        lengths += np.count_nonzero(mates & (g_codes[cand] == q_codes[:, None]), axis=1)
        lengths -= np.bincount(g_codes, minlength=n_classes)[q_codes]

    # per block of queries, dropped ones too: distances, exclusions and the rankings
    order = np.empty((len(q_rows), depth), dtype=np.intp)
    pos_ranks = np.empty_like(pos)
    block = max(1, _BLOCK_CELLS // g)
    for start in range(0, len(q_rows), block):
        b = slice(start, start + block)
        d2 = _cross_sqdist(es.matrix[q_rows[b]], gallery, g_sq)
        d2[:, copies] = d2[:, twins]  # identical gallery rows tie exactly
        # a row max is inf or NaN once any of its distances overflowed
        overflow = ~np.isfinite(d2.max(axis=1))
        if overflow.any():
            row = int(q_rows[start + np.argmax(overflow)])
            raise EvaluationError(f"query row {row}: squared distances overflow float64")
        # after the overflow check: every kept distance is finite
        hit = np.nonzero(same_cam[b])
        d2[hit[0], cand[b][hit]] = np.inf
        if protocol == "nobias":
            # other identities of the query's class: d + inf == inf and d + 0.0 == d,
            # and the positives of that class get their distances back
            pos_q, pos_j = np.nonzero(np.arange(pos.shape[1]) < n_pos[b, None])
            pos_g = pos[b][pos_q, pos_j]
            held = d2[pos_q, pos_g]
            d2 += penalty[q_codes[b]]
            d2[pos_q, pos_g] = held
        order[b] = _head(d2, depth)
        pos_ranks[b] = _positive_ranks(d2, pos[b], n_pos[b])
    del cand, mates, same_cam, pos

    keep = n_pos > 0
    if not keep.any():
        raise EvaluationError("every query was dropped (no cross-camera positives)")
    kept_rows, order, lengths, pos_ranks, n_pos = (
        a[keep] for a in (q_rows, order, lengths, pos_ranks, n_pos))
    # the kept items come first in every ranking
    kept = np.arange(depth) < lengths[:, None]

    def same(labels: np.ndarray) -> np.ndarray:
        return (labels[g_rows][order] == labels[kept_rows][:, None]) & kept

    same_bias = {ch: same(es.codes[ch]) for ch in es.channels}
    dropped = len(q_rows) - len(kept_rows)
    return RankResult(order, same(es.ids), same_bias, lengths, pos_ranks, n_pos, dropped)


def cmc_map(rr: RankResult, max_rank: int = MAX_RANK) -> tuple[np.ndarray, float]:
    """CMC(k) for k = 1..max_rank and mean average precision, from the
    positives' ranks.

    AP per query is the mean of precision measured at each positive's rank,
    by one row-wise `np.mean` per positive count: it sums as a per-query one.
    """
    cmc = np.cumsum(np.bincount(rr.pos_ranks[:, 0], minlength=max_rank)[:max_rank])
    precision = np.arange(1, rr.pos_ranks.shape[1] + 1) / (rr.pos_ranks + 1.0)
    aps = np.zeros(rr.n_queries)
    for n in np.unique(rr.n_pos):
        rows = rr.n_pos == n
        aps[rows] = precision[rows, :n].mean(axis=1)
    return cmc / rr.n_queries, float(aps.mean())


def same_bias_rank_prob(
    rr: RankResult, channel: str, max_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """(p_neg, p_pos): p_neg[r-1] = P(item at rank r is a same-bias negative),
    p_pos[r-1] the same for a same-bias positive.

    The denominator at rank r, shared by both, counts queries with at least
    r retained items.
    """
    if channel not in rr.same_bias:
        raise ConfigError(f"unknown bias channel {channel!r}")
    if max_rank > rr.lengths.max():
        raise EvaluationError(
            f"max_rank {max_rank} exceeds every retained list length (max {rr.lengths.max()})"
        )
    if max_rank > rr.depth:
        raise EvaluationError(f"max_rank {max_rank} exceeds the ranked depth {rr.depth}")
    positive = rr.positive[:, :max_rank]
    same = rr.same_bias[channel][:, :max_rank]
    have = (rr.lengths[:, None] > np.arange(max_rank)).sum(axis=0)
    return (~positive & same).sum(axis=0) / have, (positive & same).sum(axis=0) / have


# ----------------------------------------------------------------------------
# Bias probe: learnable PReLU then a linear layer, trained on frozen features.
# ----------------------------------------------------------------------------

PROBE_CONFIG_KEYS = {
    "probe_epochs": ("epochs", int, "full-batch training epochs"),
    "probe_rate": ("rate", float, "Adam learning rate"),
    "probe_train_fraction": ("train_fraction", float, "fraction of rows used for fitting"),
    "probe_seed": ("seed", int, "probe init/split seed"),
}


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 200
    rate: float = 0.01
    train_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"probe_epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ConfigError(f"probe_rate must be finite and >= 0, got {self.rate}")
        if not np.isfinite(self.train_fraction):
            raise ConfigError(f"probe_train_fraction must be finite, got {self.train_fraction}")
        if self.seed < 0:
            raise ConfigError(f"probe_seed must be >= 0, got {self.seed}")


@dataclass
class ProbeParams:
    slope: float
    weights: np.ndarray  # [n_classes, d]
    bias: np.ndarray  # [n_classes]


def _probe_logits(probe: ProbeParams, x: np.ndarray) -> np.ndarray:
    h = prelu(x, probe.slope)
    return h @ probe.weights.T + probe.bias


def train_probe(
    features: np.ndarray, codes: np.ndarray, classes: list[str], cfg: ProbeConfig
) -> ProbeParams:
    """Softmax cross-entropy with Adam, full batch; the features stay frozen.

    `codes` index `classes`, as a table's bias codes index its channel's
    class names, one per feature row; a code outside `[0, len(classes))` or
    a count other than the rows' raises `ConfigError`. A fit whose gradients
    or parameters turn non-finite raises `TrainingError` naming the step.
    """
    y = np.asarray(codes)
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    c = len(classes)
    if len(y) != n:
        raise ConfigError(f"probe needs one code per feature row, got {len(y)} codes for {n} rows")
    outside = y[(y < 0) | (y >= c)]
    if len(outside):
        raise ConfigError(f"probe codes must lie in [0, {c}), got {outside[0]}")
    present = np.unique(y)
    if len(present) < 2:
        raise ConfigError(f"probe needs >= 2 classes present, got {len(present)}")

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))
    # slope, weights [c, d] and bias [c] in one vector, updated in place
    theta = np.concatenate([[0.25], rng.normal(0.0, 0.01, size=c * d), np.zeros(c)])
    grads = np.empty_like(theta)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    w, b = theta[1 : 1 + c * d].reshape(c, d), theta[1 + c * d :]
    gw, gb = grads[1 : 1 + c * d].reshape(c, d), grads[1 + c * d :]
    onehot = np.zeros((c, n))
    onehot[y, np.arange(n)] = 1.0
    # prelu(x, slope) == x_pos + slope * x_neg bit for bit, with no select per
    # step: x + (+-0) == x above 0 and -0.0 + y == y at and below it. x_neg is
    # also d prelu / d slope; the features are frozen
    pos = x > 0
    x_neg = np.where(pos, 0.0, x)
    x_pos = np.where(pos, x, -0.0)
    del pos
    h = np.empty((n, d))
    # the logits and their gradient class-major, and row-major where BLAS reads them
    logits, rows, top = np.empty((c, n)), np.empty((n, c)), np.empty(n)

    # a diverging probe's overflow is not warned of: it raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.epochs + 1):
            np.multiply(x_neg, theta[0], out=h)
            h += x_pos
            np.matmul(h, w.T, out=rows)
            np.add(rows.T, b[:, None], out=logits)
            # the column max, exact; a tie of +0 and -0 leaves exp(0) == 1 either way
            np.max(logits, axis=0, out=top)
            logits -= top
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=0)
            logits -= onehot
            np.divide(logits, n, out=rows.T)  # d loss / d logits, row-major
            np.matmul(rows.T, h, out=gw)
            # h is spent: it takes d loss / d h, times x_neg for the slope
            np.matmul(rows, w, out=h)
            h *= x_neg
            grads[0] = np.sum(h)
            # down each class in row order, as rows.sum(axis=0) adds
            gb[...] = np.add.accumulate(rows.T, axis=1, out=logits)[:, -1]
            try:
                adam_update(theta, grads, m, v, step, cfg.rate)
            except TrainingError as exc:
                raise TrainingError(f"bias probe step {step}: {exc}") from None
            if not np.isfinite(theta).all():
                raise TrainingError(f"bias probe step {step}: non-finite parameters")

    return ProbeParams(float(theta[0]), w, b)


def probe_accuracy(probe: ProbeParams, features: np.ndarray, codes: np.ndarray) -> float:
    logits = _probe_logits(probe, np.asarray(features, dtype=np.float64))
    return float(np.mean(logits.argmax(axis=1) == np.asarray(codes)))


@dataclass
class ProbeReport:
    channel: str
    accuracy: float
    train_accuracy: float
    n_train: int
    n_test: int
    classes: list[str]


def fit_probe(es: Table, channel: str, cfg: ProbeConfig) -> ProbeReport:
    """Disjoint train/test split of the embedding rows, then train + score."""
    if channel not in es.channels:
        raise ConfigError(f"unknown bias channel {channel!r}")
    codes = es.codes[channel]
    n = len(es)
    if n < 4:
        raise ConfigError("too few rows to split for probing")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 3)))
    perm = rng.permutation(n)
    n_train = int(round(cfg.train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise ConfigError(f"probe train fraction {cfg.train_fraction} leaves an empty side")
    tr, te = perm[:n_train], perm[n_train:]
    probe = train_probe(es.matrix[tr], codes[tr], es.channels[channel], cfg)
    return ProbeReport(
        channel=channel,
        accuracy=probe_accuracy(probe, es.matrix[te], codes[te]),
        train_accuracy=probe_accuracy(probe, es.matrix[tr], codes[tr]),
        n_train=len(tr),
        n_test=len(te),
        classes=list(es.channels[channel]),
    )


# ----------------------------------------------------------------------------
# Report assembly: CMC/mAP and every channel's curves of one table
# ----------------------------------------------------------------------------


@dataclass
class ChannelStats:
    p_neg: list[float]
    p_pos: list[float]
    nauc_neg: float
    nauc_pos: float


@dataclass
class EvalReport:
    protocol: str
    channel: str | None
    rank1: float
    rank5: float
    rank10: float
    cmc: list[float]
    map: float
    channels: dict[str, ChannelStats]
    n_queries: int
    n_gallery: int
    dropped_queries: int

    def flat_metrics(self) -> dict:
        flat = {
            "protocol": self.protocol,
            "rank1": self.rank1,
            "rank5": self.rank5,
            "rank10": self.rank10,
            "map": self.map,
            "n_queries": self.n_queries,
            "dropped_queries": self.dropped_queries,
        }
        for ch, st in self.channels.items():
            flat[f"nauc10_neg_{ch}"] = st.nauc_neg
            flat[f"nauc10_pos_{ch}"] = st.nauc_pos
        return flat


def evaluate_embeddings(
    es: Table, protocol: str = "standard", channel: str | None = None
) -> EvalReport:
    """Full report of one ranking: CMC/mAP plus every channel's curves and
    nauc10, the mean of each curve.

    CMC runs to MAX_RANK and the curves to CURVE_RANK, each cut to the
    longest and the shortest retained list, respectively.
    """
    rr = rank_gallery(es, protocol, channel, depth=CURVE_RANK)
    max_rank = min(MAX_RANK, int(rr.lengths.max()))
    curve_rank = min(CURVE_RANK, int(rr.lengths.min()))  # each list holds a positive
    cmc, mean_ap = cmc_map(rr, max_rank)
    stats: dict[str, ChannelStats] = {}
    for ch in es.channels:
        p_neg, p_pos = same_bias_rank_prob(rr, ch, curve_rank)
        stats[ch] = ChannelStats(p_neg.tolist(), p_pos.tolist(),
                                 float(np.mean(p_neg)), float(np.mean(p_pos)))

    def cmc_at(k: int) -> float:
        return float(cmc[min(k, len(cmc)) - 1])

    return EvalReport(
        protocol=protocol,
        channel=channel,
        rank1=cmc_at(1),
        rank5=cmc_at(5),
        rank10=cmc_at(10),
        cmc=[float(v) for v in cmc],
        map=mean_ap,
        channels=stats,
        n_queries=rr.n_queries,
        n_gallery=int(np.sum(es.splits == "gallery")),
        dropped_queries=rr.dropped,
    )


def curves_to_csv(report: EvalReport, channel: str) -> str:
    st = report.channels[channel]
    lines = ["rank,p_neg,p_pos"]
    for i, (a, b) in enumerate(zip(st.p_neg, st.p_pos), start=1):
        lines.append(f"{i},{a:.17g},{b:.17g}")
    return "\n".join(lines) + "\n"
