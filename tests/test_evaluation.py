import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from biasreid import evaluation
from biasreid.dataset import (
    ChannelSpec,
    GeneratorConfig,
    Table,
    generate_synthetic,
    split_query_gallery,
)
from biasreid.embedder import embed_all
from biasreid.errors import ConfigError, EvaluationError, TrainingError
from biasreid.evaluation import (
    PROTOCOLS,
    ProbeConfig,
    ProbeParams,
    _cross_sqdist,
    cmc_map,
    evaluate_embeddings,
    fit_probe,
    probe_accuracy,
    rank_gallery,
    same_bias_rank_prob,
    train_probe,
)
from biasreid.numerics import adam_update, init_encoder, prelu
from biasreid.trainer import BranchConfig, train_branch


def make_es(emb, ids, cams, splits, pose=None):
    emb = np.asarray(emb, dtype=float)
    if emb.ndim == 1:
        emb = emb[:, None]
    n = len(emb)
    pose = list(pose) if pose is not None else ["0"] * n
    classes, codes = np.unique(np.asarray(pose, dtype=str), return_inverse=True)
    return Table(
        matrix=emb,
        ids=np.asarray(ids),
        cameras=np.asarray(cams),
        splits=np.asarray(splits),
        codes={"pose": codes},
        channels={"pose": classes.tolist()},
    )


def probe_table(x, codes, classes):
    """All-train table whose only channel is the probed one."""
    n = len(x)
    zeros = np.zeros(n, int)
    return Table(x, zeros, zeros, ["train"] * n, {"pose": codes}, {"pose": classes})


def naive_ap(pos_in_order):
    """Brute-force AP: mean of precision at each positive."""
    hits = 0
    precs = []
    for i, p in enumerate(pos_in_order, start=1):
        if p:
            hits += 1
            precs.append(hits / i)
    return sum(precs) / len(precs)


def naive_cmc(pos_lists, max_rank):
    cmc = np.zeros(max_rank)
    for pos in pos_lists:
        first = next(i for i, p in enumerate(pos) if p)
        for k in range(max_rank):
            if first <= k:
                cmc[k] += 1
    return cmc / len(pos_lists)


def brute_force_rank(es, protocol="standard", channel=None):
    """Per-query ranking loop: (orders, positive, same_bias, dropped, dists).

    Each retained query's kept gallery positions are sorted on their own,
    stably, so the lower index wins a tie; its masks and its distances
    (`dists`) are gathered through that order. The distances are those
    rank_gallery ranks, `_cross_sqdist` of each block of
    `max(1, _BLOCK_CELLS // G)` query rows, G the gallery's size: the BLAS
    product may round a row differently in another block, which moves exact
    ties. Each gallery column is then replaced by that of
    the first gallery row equal to its row, so identical rows tie.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if protocol == "nobias":
        if channel is None:
            raise ConfigError("nobias protocol needs a bias channel")
        if channel not in es.channels:
            raise ConfigError(f"unknown bias channel {channel!r}")
    q_rows = np.flatnonzero(es.splits == "query")
    g_rows = np.flatnonzero(es.splits == "gallery")
    if len(q_rows) == 0 or len(g_rows) == 0:
        raise EvaluationError("need non-empty query and gallery splits")
    step = max(1, evaluation._BLOCK_CELLS // len(g_rows))
    gallery = es.matrix[g_rows]
    d2 = np.concatenate([
        _cross_sqdist(es.matrix[q_rows[start : start + step]], gallery, (gallery * gallery).sum(axis=1))
        for start in range(0, len(q_rows), step)
    ])
    for j in range(len(g_rows)):
        d2[:, j] = d2[:, next((k for k in range(j) if np.array_equal(gallery[k], gallery[j])), j)]
    for qi, row in enumerate(q_rows):
        if not np.isfinite(d2[qi]).all():
            raise EvaluationError(f"query row {row}: squared distances overflow float64")
    g_ids = es.ids[g_rows]
    g_cams = es.cameras[g_rows]
    orders, positive, same_bias, dists = [], [], {ch: [] for ch in es.channels}, []
    dropped = 0
    for qi, row in enumerate(q_rows):
        qid, qcam = es.ids[row], es.cameras[row]
        exclude = (g_ids == qid) & (g_cams == qcam)
        if protocol == "nobias":
            exclude |= (g_ids != qid) & (es.codes[channel][g_rows] == es.codes[channel][row])
        keep = np.flatnonzero(~exclude)
        if not (g_ids[keep] == qid).any():
            dropped += 1
            continue
        order = keep[np.argsort(d2[qi, keep], kind="stable")]
        orders.append(order)
        dists.append(d2[qi, order])
        positive.append(g_ids[order] == qid)
        for ch in es.channels:
            same_bias[ch].append(es.codes[ch][g_rows][order] == es.codes[ch][row])
    if not orders:
        raise EvaluationError("every query was dropped (no cross-camera positives)")
    return orders, positive, same_bias, dropped, dists


def brute_force_cmc_map(positive, max_rank):
    """CMC counts each query from its first hit on; AP is a per-query mean."""
    cmc = np.zeros(max_rank)
    aps = np.zeros(len(positive))
    for i, pos in enumerate(positive):
        hits = np.flatnonzero(pos)
        if hits[0] < max_rank:
            cmc[hits[0]:] += 1.0
        aps[i] = float(np.mean(np.arange(1, len(hits) + 1) / (hits + 1.0)))
    return cmc / len(positive), float(aps.mean())


def brute_force_curves(positive, same_bias, max_rank):
    """(negative, positive) curves: per rank, the share of queries long
    enough whose item there is a same-bias negative, or positive."""
    lengths = np.array([len(p) for p in positive])
    if max_rank > lengths.max():
        raise EvaluationError(
            f"max_rank {max_rank} exceeds every retained list length (max {lengths.max()})"
        )
    curves = np.zeros((2, max_rank))
    for r in range(1, max_rank + 1):
        have = lengths >= r
        hits = [0, 0]
        for qi in np.flatnonzero(have):
            if same_bias[qi][r - 1]:
                hits[int(positive[qi][r - 1])] += 1
        curves[:, r - 1] = [hits[0] / have.sum(), hits[1] / have.sum()]
    return curves


def set_block_rows(monkeypatch, es, rows):
    """Set the cell budget at which `es` ranks `rows` queries per block."""
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", rows * int(np.sum(es.splits == "gallery")))


def outcome(fn, *args):
    """(result, None), or (None, (error type, message)) for a toolkit error."""
    try:
        return fn(*args), None
    except (ConfigError, EvaluationError) as exc:
        return None, (type(exc), str(exc))


class TestRankGallery:
    def test_cross_sqdist_matches_whole_matrix_passes(self):
        # the one-pass row blocks against three whole-matrix passes: the same
        # operations per element in the same order, so the same bits
        rng = np.random.default_rng(5)
        a = rng.normal(size=(300, 7))
        b = np.concatenate([a[:40], rng.normal(size=(30, 7))])  # equal rows: clamped
        d2 = a @ b.T
        d2 *= 2.0
        d2 = ((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)) - d2
        np.maximum(d2, 0.0, out=d2)
        got = _cross_sqdist(a, b, (b * b).sum(axis=1))
        assert (d2 == 0).any()
        np.testing.assert_array_equal(got.view(np.uint64), d2.view(np.uint64))

    def test_standard_exclusion_rule(self):
        # query (id=1, cam=1); gallery {(1,1), (1,2), (2,1)}
        es = make_es(
            emb=[0.0, 0.5, 1.0, 2.0],
            ids=[1, 1, 1, 2],
            cams=[1, 1, 2, 1],
            splits=["query", "gallery", "gallery", "gallery"],
        )
        rr = rank_gallery(es, "standard")
        # gallery rows are positions within the gallery subset: (1,1)->0 excluded
        kept = rr.order[0, : rr.lengths[0]]
        assert set(kept.tolist()) == {1, 2}  # (1,2) and (2,1) survive
        np.testing.assert_array_equal(rr.positive[0, : rr.lengths[0]], [True, False])

    def test_no_exclusions_plain_sorted(self):
        es = make_es(
            emb=[0.0, 3.0, 1.0, 2.0],
            ids=[5, 5, 6, 7],
            cams=[0, 1, 1, 1],
            splits=["query", "gallery", "gallery", "gallery"],
        )
        rr = rank_gallery(es, "standard")
        np.testing.assert_array_equal(rr.order[0, : rr.lengths[0]], [1, 2, 0])  # d=1, 4, 9

    def test_nobias_removes_all_same_pose_negatives(self):
        es = make_es(
            emb=[0.0, 5.0, 1.0, 2.0],
            ids=[1, 1, 2, 3],
            cams=[0, 1, 1, 1],
            splits=["query", "gallery", "gallery", "gallery"],
            pose=["a", "b", "a", "a"],
        )
        rr = rank_gallery(es, "nobias", channel="pose")
        assert rr.positive[0, : rr.lengths[0]].all()  # only the positive remains
        assert rr.lengths[0] == 1

    def test_nobias_keeps_same_class_positive_and_drops_same_camera_mate(self):
        # query 0 (id 1, cam 0, pose a): gallery 0 is a positive of its class,
        # kept; gallery 1 shares its id and camera in class b, excluded; gallery
        # 2 is another id of class a, excluded. Query 1 (id 3, pose b) keeps
        # its positive, gallery 3, and loses both class-b items of id 1.
        es = make_es(
            emb=[0.0, 0.1, 1.5, 0.5, 1.0, 2.0, 4.0],
            ids=[1, 3, 1, 1, 2, 3, 1],
            cams=[0, 0, 1, 0, 1, 1, 1],
            splits=["query"] * 2 + ["gallery"] * 5,
            pose=["a", "b", "a", "b", "a", "b", "b"],
        )
        rr = rank_gallery(es, "nobias", channel="pose")
        np.testing.assert_array_equal(rr.lengths, [3, 3])
        np.testing.assert_array_equal(rr.n_pos, [2, 1])
        # query 0: gallery 0 (d 2.25), 3 (4), 4 (16); query 1: 0 (1.96), 2 (0.81), 3 (3.61)
        np.testing.assert_array_equal(rr.pos_ranks, [[0, 2], [2, 5]])
        np.testing.assert_array_equal(rr.order[:, :3], [[0, 3, 4], [2, 0, 3]])

    def test_query_without_positive_dropped_and_counted(self):
        es = make_es(
            emb=[0.0, 1.0, 2.0, 3.0],
            ids=[1, 9, 2, 1],
            cams=[0, 1, 1, 0],
            splits=["query", "query", "gallery", "gallery"],
        )
        # id 1's only gallery mate shares camera 0 -> excluded -> dropped;
        # id 9 has no gallery positive at all -> dropped
        with pytest.raises(EvaluationError):
            rank_gallery(es, "standard")

    def test_tie_broken_by_gallery_index(self):
        es = make_es(
            emb=[0.0, 1.0, -1.0, 1.0],
            ids=[1, 1, 2, 3],
            cams=[0, 1, 1, 1],
            splits=["query", "gallery", "gallery", "gallery"],
        )
        rr = rank_gallery(es, "standard")
        np.testing.assert_array_equal(rr.order[0, : rr.lengths[0]], [0, 1, 2])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_gallery_rows_tie_toward_lower_index(self, seed):
        # gallery row 449, the last, copies row 332, labels included: the BLAS
        # product can round the two columns differently, so the copy ranked
        # ahead of its twin for some query in each of 40 seeds
        rng = np.random.default_rng(seed)
        n_q, n_g = 258, 450
        n = n_q + n_g
        matrix, ids, cams = rng.normal(size=(n, 11)), rng.integers(0, 60, n), rng.integers(0, 3, n)
        codes = {"pose": rng.integers(0, 3, n)}
        for column in (matrix, ids, cams, codes["pose"]):
            column[n_q + 449] = column[n_q + 332]
        splits = np.array(["query"] * n_q + ["gallery"] * n_g)
        rr = rank_gallery(Table(matrix, ids, cams, splits, codes, {"pose": ["0", "1", "2"]}))
        place = np.argsort(rr.order, axis=1)
        assert rr.n_queries > n_q // 2
        assert (place[:, 332] < place[:, 449]).all()

    def test_depth_below_one_rejected(self):
        es = make_es([0.0, 1.0, 2.0], [1, 1, 2], [0, 1, 1], ["query", "gallery", "gallery"])
        for depth in (0, -1):
            with pytest.raises(ConfigError):
                rank_gallery(es, "standard", depth=depth)

    def test_depth_holds_head_and_exact_positive_ranks(self):
        es = make_es(
            emb=[0.0, 3.0, 1.0, 2.0, 4.0],
            ids=[5, 5, 6, 7, 5],
            cams=[0, 1, 1, 1, 1],
            splits=["query", "gallery", "gallery", "gallery", "gallery"],
        )
        rr = rank_gallery(es, "standard", depth=2)
        np.testing.assert_array_equal(rr.order, [[1, 2]])  # d=1, 4 of 1, 4, 9, 16
        np.testing.assert_array_equal(rr.positive, [[False, False]])
        np.testing.assert_array_equal(rr.pos_ranks, [[2, 3]])
        assert rr.n_pos[0] == 2 and rr.lengths[0] == 4

    def test_memory_is_per_block_of_queries(self):
        # 4096 queries x 2000 gallery items: one [Q, G] float64 array is 62.5 MiB
        rng = np.random.default_rng(0)
        n_q, n_g = 4096, 2000
        ids = np.concatenate([np.arange(n_q) % 1000, np.arange(n_g) % 1000])
        cams = rng.integers(0, 2, size=n_q + n_g)
        splits = np.array(["query"] * n_q + ["gallery"] * n_g)
        codes = {"pose": rng.integers(0, 3, size=n_q + n_g)}
        es = Table(rng.normal(size=(n_q + n_g, 8)), ids, cams, splits, codes, {"pose": ["0", "1", "2"]})
        tracemalloc.start()
        try:
            rr = rank_gallery(es, "nobias", "pose", depth=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rr.n_queries > n_q // 2
        assert peak < n_q * n_g * 8 / 4, f"peak {peak / 2**20:.1f} MiB"

    def test_memory_is_bounded_by_the_block_budget(self):
        # 64 queries x 40000 gallery items: one [64, G] float64 array is 19.5 MiB,
        # while a block of the budget's rows holds about 1 MiB
        rng = np.random.default_rng(1)
        n_q, n_g = 64, 40_000
        ids = np.concatenate([np.arange(n_q), np.arange(n_g) % 1000])
        cams = np.concatenate([np.zeros(n_q, int), np.ones(n_g, int)])
        splits = np.array(["query"] * n_q + ["gallery"] * n_g)
        codes = {"pose": rng.integers(0, 3, size=n_q + n_g)}
        es = Table(rng.normal(size=(n_q + n_g, 4)), ids, cams, splits, codes, {"pose": ["0", "1", "2"]})
        tracemalloc.start()
        try:
            rr = rank_gallery(es, "standard", depth=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(a.nbytes for a in (rr.order, rr.positive, rr.lengths, rr.pos_ranks, rr.n_pos))
        result += sum(m.nbytes for m in rr.same_bias.values())
        # the gallery's own tables (its copy and `_twins`' sort) and a few blocks
        bound = 8 * es.matrix[n_q:].nbytes + 4 * evaluation._BLOCK_CELLS * 8 + result
        assert rr.n_queries == n_q
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"

    def test_empty_query_split_errors(self):
        es = make_es([0.0, 1.0], [1, 1], [0, 1], ["gallery", "gallery"])
        with pytest.raises(EvaluationError):
            rank_gallery(es, "standard")

    def test_standard_protocol_ignores_bias_labels(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(30, 4))
        ids = np.arange(30) % 6
        cams = rng.integers(0, 2, size=30)
        splits = np.array(["query"] * 6 + ["gallery"] * 24, dtype=object)
        pose_a = rng.integers(0, 2, size=30).astype(str)
        pose_b = rng.integers(0, 2, size=30).astype(str)
        ra = rank_gallery(make_es(emb, ids, cams, splits, pose_a), "standard")
        rb = rank_gallery(make_es(emb, ids, cams, splits, pose_b), "standard")
        for q in range(ra.n_queries):
            a, b = ra.order[q, : ra.lengths[q]], rb.order[q, : rb.lengths[q]]
            np.testing.assert_array_equal(a, b)


def twins_by_loop(rows):
    """Each row equal, as floats, to an earlier row, and the first such row."""
    copies, twins = [], []
    for i in range(len(rows)):
        for j in range(i):
            if (rows[j] == rows[i]).all():
                copies.append(i)
                twins.append(j)
                break
    return copies, twins


class TestHead:
    def test_matches_a_stable_argsort(self):
        """`_head` against the first `depth` columns of each row's stable
        argsort, on grid values (many ties) with rows 0-99% inf, in galleries
        wide enough for several columns per group and a tail."""
        rng = np.random.default_rng(61)
        seen = {"grouped": 0, "tail": 0, "finite_cut_tie": 0, "inf_bound": 0}
        for _ in range(4000):
            n, g = int(rng.integers(1, 6)), int(rng.integers(1, 3001))
            depth = int(rng.integers(1, min(40, g) + 1))
            d2 = np.floor(rng.random((n, g)) * rng.choice([4, 40, 10_000])) * 0.37
            d2[rng.random((n, g)) < rng.random((n, 1)) * 0.99] = np.inf
            want = np.argsort(d2, axis=1, kind="stable")[:, :depth]
            got = evaluation._head(d2, depth)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            w = min(g, max(depth, evaluation._HEAD_GROUPS))
            seen["grouped"] += g // w >= 2
            seen["tail"] += g % w > 0
            cut = np.take_along_axis(d2, want[:, -1:], axis=1)[:, 0]
            seen["inf_bound"] += np.isinf(cut).sum()  # fewer finite items than the depth
            seen["finite_cut_tie"] += (
                np.isfinite(cut) & (np.count_nonzero(d2 == cut[:, None], axis=1) > 1)
            ).sum()
        assert min(seen.values()) >= 100, seen


class TestTwins:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("values", ["grid", "continuous"])
    def test_matches_a_plain_loop(self, values, seed):
        rng = np.random.default_rng(seed)
        if values == "grid":  # many repeats, and signed zeros
            rows = rng.integers(-1, 2, size=(80, 3)).astype(float)
            rows[rows == 0] *= rng.choice([-1.0, 1.0], size=int((rows == 0).sum()))
        else:  # copies of a few rows among rows that share no value
            rows = rng.normal(size=(80, 3))
            rows[rng.integers(0, 80, 30)] = rows[rng.integers(0, 80, 30)]
        rows[rng.integers(0, 80, 10), rng.integers(0, 3, 10)] += 0.5  # one column apart
        copies, twins = evaluation._twins(rows)
        expected = twins_by_loop(rows)
        assert len(expected[0]) > 10
        np.testing.assert_array_equal(copies, expected[0])
        np.testing.assert_array_equal(twins, expected[1])

    @pytest.mark.parametrize(
        "rows,copies,twins",
        [
            ([[0.0, 1.0], [-0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [-0.0, 2.0], [1.0, 1.0]],
             [1, 4, 5], [0, 2, 3]),
            ([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [0.0, 2.0, 3.0], [1.0, 2.0, 3.0]], [3], [0]),
            ([[5.0]], [], []),
            (np.empty((3, 0)), [1, 2], [0, 0]),  # no column: every row equals the first
        ],
        ids=["signed_zeros", "one_column_apart", "one_row", "no_columns"],
    )
    def test_edges(self, rows, copies, twins):
        rows = np.array(rows, dtype=float)
        assert twins_by_loop(rows) == (copies, twins)
        got = evaluation._twins(rows)
        np.testing.assert_array_equal(got[0], copies)
        np.testing.assert_array_equal(got[1], twins)

    def test_memory_is_under_two_galleries(self):
        # np.unique(axis=0) held about five copies of the rows (4.7 MiB here)
        rows = np.random.default_rng(3).normal(size=(40_000, 4))
        rows[1::7] = rows[0]
        tracemalloc.start()
        try:
            copies, _ = evaluation._twins(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(copies) == len(range(1, 40_000, 7))
        assert peak < 2 * rows.nbytes, f"peak {peak / 2**20:.2f} MiB, rows {rows.nbytes / 2**20:.2f} MiB"


class TestCmcMap:
    def test_two_positives_of_two(self):
        es = make_es(
            emb=[0.0, 1.0, 2.0],
            ids=[1, 1, 1],
            cams=[0, 1, 1],
            splits=["query", "gallery", "gallery"],
        )
        rr = rank_gallery(es, "standard")
        cmc, m = cmc_map(rr)
        assert cmc[0] == 1.0 and m == 1.0

    def test_single_positive_at_rank_two(self):
        es = make_es(
            emb=[0.0, 1.0, 2.0, 3.0],
            ids=[1, 2, 1, 3],
            cams=[0, 1, 1, 1],
            splits=["query", "gallery", "gallery", "gallery"],
        )
        rr = rank_gallery(es, "standard")
        cmc, m = cmc_map(rr)
        assert cmc[0] == 0.0
        assert m == pytest.approx(0.5)

    def test_matches_naive_reference_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n_gal = int(rng.integers(4, 21))
            n_q = int(rng.integers(1, 5))
            n_ids = int(rng.integers(2, 6))
            emb = rng.normal(size=(n_q + n_gal, 3))
            ids = rng.integers(0, n_ids, size=n_q + n_gal)
            cams = rng.integers(0, 2, size=n_q + n_gal)
            splits = np.array(["query"] * n_q + ["gallery"] * n_gal, dtype=object)
            es = make_es(emb, ids, cams, splits)
            try:
                rr = rank_gallery(es, "standard")
            except EvaluationError:
                continue
            cmc, m = cmc_map(rr, max_rank=n_gal)
            assert m == pytest.approx(
                float(np.mean([naive_ap(p.tolist()) for p in rr.positive])), abs=1e-12
            )
            np.testing.assert_array_equal(cmc, naive_cmc(rr.positive, n_gal))
            assert (np.diff(cmc) >= -1e-15).all()  # CMC monotone


def random_table(rng, grid, n_queries=None, n_gallery=None):
    """A small table with train rows mixed in and two bias channels.

    `grid` rows take values in {-2..2} times one step, so many distances
    tie; a few tables carry a row whose squared norm overflows. It holds 0-6
    queries and 1-30 gallery items unless `n_queries` or `n_gallery` is given.
    """
    n_q, n_gal, n_train = rng.integers(0, 7), rng.integers(1, 31), rng.integers(0, 4)
    n_q = n_q if n_queries is None else n_queries
    n_gal = n_gal if n_gallery is None else n_gallery
    n, d = n_q + n_gal + n_train, int(rng.integers(1, 5))
    if grid:
        matrix = rng.integers(-2, 3, size=(n, d)) * rng.choice([1.0, 0.1, 0.37])
    else:
        matrix = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3])
    if rng.random() < 0.03:
        matrix[rng.integers(n)] = 1e200
    splits = rng.permutation(["query"] * n_q + ["gallery"] * n_gal + ["train"] * n_train)
    n_pose = int(rng.integers(2, 4))
    codes = {"pose": rng.integers(0, n_pose, size=n), "cam": rng.integers(0, 2, size=n)}
    channels = {"pose": [str(c) for c in range(n_pose)], "cam": ["0", "1"]}
    ids = rng.integers(0, rng.integers(2, 7), size=n)
    return Table(matrix, ids, rng.integers(0, 3, size=n), splits, codes, channels)


DEPTHS = (1, 2, 3, 10, None)  # None ranks the whole gallery


def cut_ties(dists, n_gallery, depth):
    """(finite, excluded): rows whose item at the depth cut ties the next one,
    so more of the head's candidates (the items at or below its bound) share
    the cut's distance than the head holds, and index order picks among them.

    `dists` are each row's kept distances in ranking order; the excluded
    items follow at inf, so two of them always tie (an inf bound).
    """
    finite = excluded = 0
    for d in dists:
        if depth < n_gallery:
            row = np.concatenate([d, np.full(n_gallery - len(d), np.inf)])
            if row[depth - 1] == row[depth]:
                finite += bool(np.isfinite(row[depth]))
                excluded += bool(np.isinf(row[depth]))
    return finite, excluded


def head_groups():
    """(grid, groups) cases: the module's own group count keeps each test's
    plain id; 1-3 groups hold more columns each and fold a tail into them."""
    real = evaluation._HEAD_GROUPS
    return [
        pytest.param(grid, groups, id=name if groups == real else f"{name}-{groups}groups")
        for groups in (real, 1, 2, 3)
        for grid, name in ((False, "normal"), (True, "grid"))
    ]


class TestRankingOracle:
    """rank_gallery, cmc_map and the curves equal the per-query loops exactly,
    at every ranking depth."""

    @pytest.mark.parametrize("grid, groups", head_groups())
    def test_matches_brute_force_on_random_tables(self, grid, groups, monkeypatch):
        monkeypatch.setattr(evaluation, "_HEAD_GROUPS", groups)
        rng = np.random.default_rng(11 + grid)
        seen = {"ranked": 0, "dropped": 0, "error": 0, "finite_cut_tie": 0, "excluded_cut_tie": 0}
        for _ in range(500):
            es = random_table(rng, grid)
            n_gallery = int(np.sum(es.splits == "gallery"))
            for ref, ref_err in self.check_table(es):
                if ref_err:
                    seen["error"] += 1
                    continue
                seen["ranked"] += 1
                seen["dropped"] += ref[3] > 0
                for depth in DEPTHS[:-1]:
                    finite, excluded = cut_ties(ref[4], n_gallery, depth)
                    seen["finite_cut_tie"] += finite
                    seen["excluded_cut_tie"] += excluded

        # both kinds of tie at the cut leave candidates tied past the head, picked by index
        if not grid:
            seen.pop("finite_cut_tie")
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("grid, groups", head_groups())
    def test_matches_brute_force_across_blocks(self, grid, groups, monkeypatch):
        monkeypatch.setattr(evaluation, "_HEAD_GROUPS", groups)
        # 4-query blocks: 9-20 queries span 3-5 blocks, the last often partial
        rng = np.random.default_rng(21 + grid)
        seen = {"ranked": 0, "dropped": 0, "error": 0}
        for _ in range(150):
            es = random_table(rng, grid, n_queries=int(rng.integers(9, 21)))
            set_block_rows(monkeypatch, es, 4)
            for ref, ref_err in self.check_table(es):
                seen["error" if ref_err else "ranked"] += 1
                seen["dropped"] += not ref_err and ref[3] > 0
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("grid", [False, True], ids=["normal", "grid"])
    def test_matches_brute_force_across_real_blocks(self, grid):
        rng = np.random.default_rng(31 + grid)
        for _ in range(2):
            n_gallery = int(rng.integers(200, 301))
            n_queries = 2 * (evaluation._BLOCK_CELLS // n_gallery) + int(rng.integers(1, 60))
            es = random_table(rng, grid, n_queries=n_queries, n_gallery=n_gallery)
            assert not any(ref_err for _, ref_err in self.check_table(es))

    @pytest.mark.parametrize("grid", [False, True], ids=["normal", "grid"])
    def test_matches_brute_force_below_one_row_of_budget(self, grid, monkeypatch):
        # a budget below G still ranks one query row per block
        rng = np.random.default_rng(41 + grid)
        for _ in range(40):
            es = random_table(rng, grid, n_queries=int(rng.integers(2, 8)))
            n_gallery = int(np.sum(es.splits == "gallery"))
            monkeypatch.setattr(evaluation, "_BLOCK_CELLS", int(rng.integers(0, n_gallery)))
            self.check_table(es)

    @pytest.mark.parametrize("grid", [False, True], ids=["normal", "grid"])
    def test_matches_brute_force_in_one_block(self, grid, monkeypatch):
        # the smallest budget that holds every query: Q x G cells
        rng = np.random.default_rng(51 + grid)
        for _ in range(40):
            n_queries = int(rng.integers(9, 21))
            es = random_table(rng, grid, n_queries=n_queries)
            set_block_rows(monkeypatch, es, n_queries)
            self.check_table(es)

    @staticmethod
    def seam_table():
        """12 queries, three 4-query blocks: query i has id i % 3 on camera 0,
        and the gallery holds each of ids 0-2 on cameras 0 and 1."""
        rng = np.random.default_rng(7)
        ids = np.concatenate([np.arange(12) % 3, np.repeat(np.arange(3), 2)])
        cams = np.concatenate([np.zeros(12, int), np.tile([0, 1], 3)])
        splits = np.array(["query"] * 12 + ["gallery"] * 6)
        codes = {"pose": rng.integers(0, 2, size=18), "cam": cams}
        channels = {"pose": ["0", "1"], "cam": ["0", "1"]}
        return Table(rng.normal(size=(18, 3)), ids, cams, splits, codes, channels)

    def test_block_whose_queries_are_all_dropped(self, monkeypatch):
        es = self.seam_table()
        set_block_rows(monkeypatch, es, 4)
        es.ids[4:8] = 9  # the middle block's queries: no gallery item of id 9
        for ref, ref_err in self.check_table(es):
            assert ref_err is None and ref[3] == 4
        rr = rank_gallery(es, "standard")
        assert rr.dropped == 4 and rr.n_queries == 8

    @pytest.mark.parametrize("all_dropped", [False, True])
    def test_overflow_in_a_later_block_named(self, monkeypatch, all_dropped):
        es = self.seam_table()
        set_block_rows(monkeypatch, es, 4)
        if all_dropped:  # the overflow still comes first
            es.ids[:12] = 9
        es.matrix[9] = 1e200  # the third block's second query
        want = (EvaluationError, "query row 9: squared distances overflow float64")
        assert [ref_err for _, ref_err in self.check_table(es)] == [want] * 3

    def check_table(self, es):
        """rank_gallery against the loops under every protocol at every
        depth: [(the loops' result, their error)] per protocol."""
        n_gallery = int(np.sum(es.splits == "gallery"))
        outcomes = []
        for protocol, channel in [("standard", None), ("nobias", "pose"), ("nobias", "cam")]:
            with np.errstate(over="ignore", invalid="ignore"):
                ref, ref_err = outcome(brute_force_rank, es, protocol, channel)
                want = ref_err or self.reference(ref, n_gallery)
                for depth in DEPTHS:
                    got, got_err = outcome(rank_gallery, es, protocol, channel, depth)
                    assert got_err == ref_err
                    if not ref_err:
                        self.check_ranking(got, n_gallery, depth, want)
            outcomes.append((ref, ref_err))
        return outcomes

    @staticmethod
    def reference(ref, n_gallery):
        """The loops' rankings as full [Q, G] arrays, the excluded items
        following by index, with CMC/mAP and curve outcomes by max_rank."""
        orders, positive, same_bias, dropped, _ = ref
        lengths = [len(o) for o in orders]

        def padded(masks):
            return np.array([np.concatenate([m, np.zeros(n_gallery - len(m), bool)]) for m in masks])

        n_pos = [int(p.sum()) for p in positive]
        pos_ranks = np.full((len(orders), max(n_pos)), n_gallery)
        for q, p in enumerate(positive):
            pos_ranks[q, : n_pos[q]] = np.flatnonzero(p)
        return {
            "dropped": dropped,
            "lengths": lengths,
            "order": np.array(
                [np.concatenate([o, np.setdiff1d(np.arange(n_gallery), o)]) for o in orders]
            ),
            "positive": padded(positive),
            "same_bias": {ch: padded(m) for ch, m in same_bias.items()},
            "pos_ranks": pos_ranks,
            "n_pos": n_pos,
            "cmc_map": {
                k: brute_force_cmc_map(positive, k) for k in {1, 5, max(lengths), n_gallery}
            },
            "curves": {
                (ch, k): outcome(brute_force_curves, positive, same_bias[ch], k)
                for ch in same_bias
                for k in {1, min(lengths), max(lengths), max(lengths) + 1}
            },
        }

    @staticmethod
    def check_ranking(rr, n_gallery, depth, want):
        width = n_gallery if depth is None else min(depth, n_gallery)
        assert rr.dropped == want["dropped"]
        assert np.array_equal(rr.lengths, want["lengths"])
        assert np.array_equal(rr.order, want["order"][:, :width])
        assert np.array_equal(rr.positive, want["positive"][:, :width])
        for ch, masks in want["same_bias"].items():
            assert np.array_equal(rr.same_bias[ch], masks[:, :width]), ch
        assert np.array_equal(rr.pos_ranks, want["pos_ranks"])
        assert np.array_equal(rr.n_pos, want["n_pos"])
        for max_rank, (cmc, m) in want["cmc_map"].items():
            got_cmc, got_m = cmc_map(rr, max_rank)
            assert np.array_equal(got_cmc, cmc) and got_m == m
        for (ch, max_rank), (curves, err) in want["curves"].items():
            got, got_err = outcome(same_bias_rank_prob, rr, ch, max_rank)
            if err:
                assert got_err == err
            elif max_rank > width:
                assert got_err == (
                    EvaluationError, f"max_rank {max_rank} exceeds the ranked depth {width}"
                )
            else:
                assert got_err is None and np.array_equal(got, curves)


HAND_EMB = [0.0, 10.0, 20.0, 1.0, 11.0, 19.0, 5.0]
HAND_IDS = [1, 2, 3, 1, 2, 3, 1]
HAND_CAMS = [0, 0, 0, 1, 1, 1, 1]
HAND_SPLITS = ["query", "query", "query", "gallery", "gallery", "gallery", "gallery"]
HAND_POSE = ["0", "1", "0", "1", "1", "0", "0"]


class TestSameBiasRankProb:
    def hand_rr(self, protocol="standard"):
        es = make_es(HAND_EMB, HAND_IDS, HAND_CAMS, HAND_SPLITS, HAND_POSE)
        return rank_gallery(es, protocol, channel="pose" if protocol == "nobias" else None)

    def test_hand_fixture_negative_curve(self):
        curve = same_bias_rank_prob(self.hand_rr(), "pose", 4)[0]
        np.testing.assert_allclose(curve, [0.0, 0.0, 2 / 3, 1 / 3])

    def test_hand_fixture_positive_curve(self):
        curve = same_bias_rank_prob(self.hand_rr(), "pose", 4)[1]
        np.testing.assert_allclose(curve, [2 / 3, 1 / 3, 0.0, 0.0])

    def test_saturated_case(self):
        # both gallery negatives share the query's pose and sit closest
        es = make_es(
            emb=[0.0, 0.1, 0.2, 5.0],
            ids=[1, 2, 3, 1],
            cams=[0, 1, 1, 1],
            splits=["query", "gallery", "gallery", "gallery"],
            pose=["x", "x", "x", "y"],
        )
        rr = rank_gallery(es, "standard")
        curve = same_bias_rank_prob(rr, "pose", 1)[0]
        assert curve[0] == 1.0

    def test_random_labels_factorize(self):
        rng = np.random.default_rng(2)
        n_q, n_gal = 200, 40
        emb = rng.normal(size=(n_q + n_gal, 4))
        ids = np.concatenate([np.arange(n_q) % 20, np.arange(n_gal) % 20])
        cams = np.concatenate([np.zeros(n_q, int), np.ones(n_gal, int)])
        splits = np.array(["query"] * n_q + ["gallery"] * n_gal, dtype=object)
        pose = rng.integers(0, 2, size=n_q + n_gal).astype(str)
        es = make_es(emb, ids, cams, splits, pose)
        rr = rank_gallery(es, "standard")
        curve = same_bias_rank_prob(rr, "pose", 10)[0]
        lengths = rr.lengths
        for r in range(1, 11):
            have = lengths >= r
            p_neg_at_r = np.mean([not rr.positive[q][r - 1] for q in np.flatnonzero(have)])
            assert curve[r - 1] == pytest.approx(0.5 * p_neg_at_r, abs=0.12)

    def test_nobias_negative_curve_identically_zero(self):
        rr = self.hand_rr("nobias")
        max_len = rr.lengths.max()
        curve = same_bias_rank_prob(rr, "pose", max_len)[0]
        assert not curve.any()

    def test_rank_beyond_ranked_depth_errors(self):
        es = make_es(HAND_EMB, HAND_IDS, HAND_CAMS, HAND_SPLITS, HAND_POSE)
        rr = rank_gallery(es, "standard", depth=2)
        np.testing.assert_array_equal(
            same_bias_rank_prob(rr, "pose", 2),
            same_bias_rank_prob(self.hand_rr(), "pose", 2),
        )
        with pytest.raises(EvaluationError, match="ranked depth 2"):
            same_bias_rank_prob(rr, "pose", 3)

    def test_rank_beyond_every_list_errors(self):
        with pytest.raises(EvaluationError):
            same_bias_rank_prob(self.hand_rr(), "pose", 99)


def reference_train_probe(features, codes, classes, cfg):
    """train_probe as a plain loop: `numerics.prelu` each step, a whole-row
    `max` before the softmax, and each row's classes added one by one, class
    0 first."""
    y = np.asarray(codes)
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    c = len(classes)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))
    theta = np.concatenate([[0.25], rng.normal(0.0, 0.01, size=c * d), np.zeros(c)])
    grads = np.empty_like(theta)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    w, b = theta[1 : 1 + c * d].reshape(c, d), theta[1 + c * d :]
    gw, gb = grads[1 : 1 + c * d].reshape(c, d), grads[1 + c * d :]
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    x_neg = np.where(x > 0, 0.0, x)
    for step in range(1, cfg.epochs + 1):
        h = prelu(x, float(theta[0]))
        logits = h @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        total = expl[:, 0].copy()
        for k in range(1, c):
            total += expl[:, k]
        probs = expl / total[:, None]
        dlogits = (probs - onehot) / n
        grads[0] = np.sum((dlogits @ w) * x_neg)
        gw[...] = dlogits.T @ h
        gb[...] = dlogits.sum(axis=0)
        adam_update(theta, grads, m, v, step, cfg.rate)
    return ProbeParams(float(theta[0]), w, b)


def probe_bits(probe):
    return (np.float64(probe.slope).view(np.uint64), probe.weights.view(np.uint64).tolist(),
            probe.bias.view(np.uint64).tolist())


class TestProbe:
    def test_branchless_prelu_identity_bit_for_bit(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 1e308, -1e308])
        pos = x > 0
        x_neg, x_pos = np.where(pos, 0.0, x), np.where(pos, x, -0.0)
        for slope in (-1.5, -0.0, 0.0, 0.01, 1.0, 3.0):
            with np.errstate(over="ignore"):
                got = x_neg * slope + x_pos
                want = prelu(x, slope)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "n, d, n_classes, most_epochs",
        [
            pytest.param(90, 4, 2, 30, id="2"),
            pytest.param(90, 4, 3, 30, id="3"),
            pytest.param(90, 4, 9, 30, id="9"),
            # from 8 classes on, numpy's row sum would add them in 8 lanes
            # and a leftover, not in class order; BLAS takes other kernels
            # for the larger products (360 x 128 is the embedding probe of
            # the default preset, and at 300 x 16 with 17 classes w @ h.T
            # rounds otherwise than (h @ w.T).T)
            pytest.param(90, 4, 17, 4, id="90x4-17"),
            pytest.param(2000, 16, 3, 3, id="2000x16-3"),
            pytest.param(360, 128, 3, 3, id="360x128-3"),
            pytest.param(300, 16, 17, 2, id="300x16-17"),
            # past 128 classes numpy's row sum would split the row in halves
            pytest.param(90, 4, 129, 2, id="90x4-129"),
        ],
    )
    def test_matches_reference_loop_bit_for_bit(self, n, d, n_classes, most_epochs):
        rng = np.random.default_rng(n_classes)
        y = np.arange(n) % n_classes
        x = rng.normal(size=(n, d)) + 2.0 * np.eye(n_classes, d)[y]
        x[rng.random((n, d)) < 0.15] = 0.0
        x[rng.random((n, d)) < 0.15] = -0.0
        classes = [str(k) for k in range(n_classes)]
        slopes = []
        for rate in (0.05, 3.0):
            for epochs in range(most_epochs + 1):
                cfg = ProbeConfig(epochs=epochs, rate=rate, seed=n_classes)
                got = train_probe(x, y, classes, cfg)
                assert probe_bits(got) == probe_bits(reference_train_probe(x, y, classes, cfg))
                slopes.append(got.slope)
        if most_epochs >= 30:
            # the slope crosses both ends of the common 0 <= slope <= 1 range
            assert min(slopes) < 0.0 and max(slopes) > 1.0

    def test_non_finite_slope_is_a_training_error(self):
        # at rate 1.3e303 the second step overflows the slope alone
        x = np.array([1.4e-239, 1.9e-77, 5.1e-3, 8.8e-279, -6.1e-161, -4.8e-201, 1.2e-261])[:, None]
        y = np.arange(7) % 2
        cfg = ProbeConfig(epochs=2, rate=1.3e303, seed=2)
        with np.errstate(all="ignore"):
            ref = reference_train_probe(x, y, ["0", "1"], cfg)
        assert not np.isfinite(ref.slope)
        assert np.isfinite(ref.weights).all() and np.isfinite(ref.bias).all()
        with pytest.raises(TrainingError, match="bias probe step 2: non-finite parameters"):
            train_probe(x, y, ["0", "1"], cfg)

    def test_one_hot_features_nearly_perfect(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, size=300)
        x = np.eye(3)[y]
        classes = ["0", "1", "2"]
        probe = train_probe(x, y, classes, ProbeConfig())
        assert probe_accuracy(probe, x, y) >= 0.99

    def test_shuffled_labels_two_classes_chance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(600, 8))
        codes = np.array([0, 1] * 300)
        rng.shuffle(codes)
        es = probe_table(x, codes, ["0", "1"])
        report = fit_probe(es, "pose", ProbeConfig())
        assert abs(report.accuracy - 0.5) < 0.1

    def test_three_class_noise_chance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(600, 8))
        codes = np.arange(600) % 3
        rng.shuffle(codes)
        es = probe_table(x, codes, ["0", "1", "2"])
        report = fit_probe(es, "pose", ProbeConfig())
        assert abs(report.accuracy - 1 / 3) < 0.1

    def test_single_class_rejected(self):
        x = np.ones((10, 2))
        with pytest.raises(ConfigError):
            train_probe(x, np.zeros(10, int), ["a", "b"], ProbeConfig())

    @pytest.mark.parametrize(
        "codes, message",
        [
            pytest.param(np.arange(10) % 2 - 1, r"\[0, 2\), got -1", id="negative"),
            pytest.param(np.arange(10) % 3, r"\[0, 2\), got 2", id="past-last"),
            pytest.param(np.arange(9) % 2, "got 9 codes for 10 rows", id="short"),
        ],
    )
    def test_codes_that_do_not_index_the_rows_classes_rejected(self, codes, message):
        x = np.random.default_rng(8).normal(size=(10, 2))
        with pytest.raises(ConfigError, match=message):
            train_probe(x, codes, ["a", "b"], ProbeConfig(epochs=2))

    def test_probe_leaves_encoder_untouched(self):
        rng = np.random.default_rng(6)
        params = init_encoder(4, (5,), 3, rng)
        before = [w.tobytes() for w in params.weights] + [b.tobytes() for b in params.biases]
        x = rng.normal(size=(100, 3))
        train_probe(x, np.arange(100) % 2, ["0", "1"], ProbeConfig(epochs=50))
        after = [w.tobytes() for w in params.weights] + [b.tobytes() for b in params.biases]
        assert before == after

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 4))
        codes = np.arange(80) % 2
        a = train_probe(x, codes, ["0", "1"], ProbeConfig(seed=5))
        b = train_probe(x, codes, ["0", "1"], ProbeConfig(seed=5))
        assert np.array_equal(a.weights, b.weights) and a.slope == b.slope


@pytest.fixture(scope="module")
def small_split_ds():
    cfg = GeneratorConfig(
        n_ids=12,
        samples_per_id=6,
        d_id=4,
        d_in=10,
        sigma=0.05,
        channels=(ChannelSpec("pose", 2, 4, 1.0), ChannelSpec("cam", 2, 4, 0.5)),
        feature_scale=0.3,
    )
    ds = generate_synthetic(cfg, seed=1)
    return split_query_gallery(ds, 0.5, np.random.default_rng(0))


class TestEvaluateAndSweep:
    def test_report_fields_populated(self, small_split_ds):
        cfg = BranchConfig(
            bias_channel="pose", lam_db=0.0, p=3, k=2, epochs=3, rate=0.01,
            hidden=(8,), d_emb=4, seed=0,
        )
        params, _ = train_branch(small_split_ds, cfg)
        es = embed_all(params, small_split_ds)
        report = evaluate_embeddings(es)
        assert 0.0 <= report.rank1 <= report.rank5 <= report.rank10 <= 1.0
        assert 0.0 <= report.map <= 1.0
        assert set(report.channels) == {"pose", "cam"}
        st = report.channels["pose"]
        assert len(st.p_neg) == len(st.p_pos)
        # nauc10 is the mean of the curve, cut to the shortest retained list
        assert (st.nauc_neg, st.nauc_pos) == (np.mean(st.p_neg), np.mean(st.p_pos))
        d = asdict(report)
        assert d["rank1"] == report.rank1
