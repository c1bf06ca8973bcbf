"""Acceptance suite: one test per criterion, each printing a pass/fail line
in the terminal summary (see conftest).

Effect criteria (4-8) run the bundled default preset over three seeds and
compare per-quantity medians. All expected values come from independent
oracles implemented inline or from explicitly stated thresholds.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from biasreid.cli import lambda_sweep, run_branch
from biasreid.dataset import Table, make_dataset
from biasreid.embedder import concat, embed_all
from biasreid.evaluation import (
    ProbeConfig,
    cmc_map,
    evaluate_embeddings,
    rank_gallery,
    same_bias_rank_prob,
)
from biasreid.losses import (
    batch_labels,
    bias_easy_loss,
    combined_loss,
    pairwise_sqdist,
    reid_hard_loss,
)
from biasreid.numerics import backprop, encode, init_encoder
from biasreid.presets import PRESETS
from biasreid.trainer import Trainer, checkpoint_load, checkpoint_save, train_branch
from test_numerics import finite_difference_grads, gradient_relative_error

SEEDS = (0, 1, 2)


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def one_batch_labels(ids, bias):
    """The label phase of one batch."""
    return batch_labels(np.asarray(ids)[None], np.asarray(bias)[None])[0]


# ----------------------------------------------------------------------------
# Criterion 1: gradient correctness against central finite differences
# ----------------------------------------------------------------------------


def _instance_is_tie_free(emb, ids, bias, margins, arg_gap=1e-3, dist_gap=1e-6):
    d2 = np.array([[(np.subtract(a, b) ** 2).sum() for b in emb] for a in emb])
    iu = np.triu_indices(len(emb), k=1)
    vals = np.sort(d2[iu])
    if len(vals) > 1 and np.diff(vals).min() < dist_gap:
        return False
    labels = one_batch_labels(ids, bias)
    reid = reid_hard_loss(emb, pairwise_sqdist(emb), labels, margins[0])
    bias_out = bias_easy_loss(emb, pairwise_sqdist(emb), labels, margins[1])
    for out in (reid, bias_out):
        considered = out.selection.hinge_arg[~out.selection.skipped]
        if len(considered) and np.abs(considered).min() < arg_gap:
            return False
    return True


def test_criterion_1_gradient_correctness(criteria):
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    margins = (0.5, 0.5)
    checked = 0
    worst = 0.0
    while checked < 100:
        params = init_encoder(4, (6,), 5, rng)
        x = rng.normal(size=(8, 4))
        ids = np.repeat(np.arange(4), 2)
        bias = rng.integers(0, 2, size=8).astype(str)
        if len(np.unique(bias)) < 2:
            continue
        emb, tape = encode(params, x)
        # keep finite differences off activation kinks and selection ties
        if min(np.abs(z).min() for z in tape.preacts[:-1]) < 1e-4:
            continue
        if not _instance_is_tie_free(emb, ids, bias, margins):
            continue

        labels = one_batch_labels(ids, bias)
        losses = {
            "reid": lambda e: reid_hard_loss(e, pairwise_sqdist(e), labels, margins[0]),
            "bias": lambda e: bias_easy_loss(e, pairwise_sqdist(e), labels, margins[1]),
            "reduce": lambda e: combined_loss(e, labels, "reduce", 1.0, 0.2, *margins),
            "enhance": lambda e: combined_loss(e, labels, "enhance", 1.0, 0.2, *margins),
        }
        for fn in losses.values():
            out = fn(emb)
            analytic = backprop(tape, out.grads)

            def value(p, fn=fn):
                e, _ = encode(p, x)
                return fn(e).value

            fd = finite_difference_grads(value, params, h=1e-5)
            worst = max(worst, gradient_relative_error(analytic, fd))
        checked += 1
    elapsed = time.monotonic() - t0
    detail = f"{checked} instances x 4 losses, max rel err {worst:.2e}, {elapsed:.1f}s"
    criteria.check(1, "gradient correctness", worst < 1e-5 and elapsed < 30, detail)


# ----------------------------------------------------------------------------
# Criterion 2: selection oracle, exact equality with exhaustive search
# ----------------------------------------------------------------------------


def _exhaustive_selection(emb, labels):
    """Independent per-anchor scan for the farthest same-class and nearest
    other-class row; strict comparisons give lowest-index ties."""
    n = len(emb)
    pos = np.full(n, -1)
    neg = np.full(n, -1)
    for a in range(n):
        best_p = best_n = None
        for j in range(n):
            if j == a:
                continue
            d = float(((emb[a] - emb[j]) ** 2).sum())
            if labels[j] == labels[a]:
                if best_p is None or d > best_p[1]:
                    best_p = (j, d)
            elif best_n is None or d < best_n[1]:
                best_n = (j, d)
        if best_p is not None:
            pos[a] = best_p[0]
        if best_n is not None:
            neg[a] = best_n[0]
    return pos, neg


def _exhaustive_pools(labels):
    """Independent per-pair scan of each anchor's same- and other-class pools."""
    n = len(labels)
    same = np.zeros((n, n), dtype=bool)
    other = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for j in range(n):
            if labels[j] != labels[a]:
                other[a, j] = True
            elif j != a:
                same[a, j] = True
    return same, other


def test_criterion_2_selection_oracle(criteria):
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    n_checked = 0
    exact = True
    for _ in range(1000):
        n_ids = int(rng.integers(2, 6))
        k = int(rng.integers(2, 4))
        n = min(n_ids * k, 16)
        emb = rng.normal(size=(n, int(rng.integers(1, 5))))
        ids = (np.arange(n) % n_ids).astype(str)
        bias = rng.integers(0, 2, size=n).astype(str)
        m = float(rng.uniform(0.1, 2.0))

        labels = one_batch_labels(ids, bias)
        out = reid_hard_loss(emb, pairwise_sqdist(emb), labels, m)
        pos, neg = _exhaustive_selection(emb, ids)
        value = 0.0
        for a in range(n):
            arg = m + ((emb[a] - emb[pos[a]]) ** 2).sum() - ((emb[a] - emb[neg[a]]) ** 2).sum()
            if arg > 0:
                value += arg
        exact &= np.array_equal(out.selection.pos_idx, pos)
        exact &= np.array_equal(out.selection.neg_idx, neg)
        exact &= out.value == value

        if len(np.unique(bias)) >= 2:
            out_b = bias_easy_loss(emb, pairwise_sqdist(emb), labels, m)
            pos_b, neg_b = _exhaustive_pools(bias)
            value_b = 0.0
            for a in range(n):
                if not pos_b[a].any() or not neg_b[a].any():
                    pos_b[a] = neg_b[a] = False
                    continue
                sum_p = sum_n = 0.0
                for j in range(n):
                    d = ((emb[a] - emb[j]) ** 2).sum()
                    if pos_b[a, j]:
                        sum_p += d
                    elif neg_b[a, j]:
                        sum_n += d
                arg = m + sum_p / pos_b[a].sum() - sum_n / neg_b[a].sum()
                if arg > 0:
                    value_b += arg
            exact &= np.array_equal(out_b.selection.pos_pool, pos_b)
            exact &= np.array_equal(out_b.selection.neg_pool, neg_b)
            exact &= out_b.value == value_b
        n_checked += 1
    elapsed = time.monotonic() - t0
    detail = f"{n_checked} batches, exact={exact}, {elapsed:.1f}s"
    criteria.check(2, "selection oracle", exact and n_checked >= 1000 and elapsed < 30, detail)


# ----------------------------------------------------------------------------
# Criterion 3: CMC/mAP against a from-scratch reference
# ----------------------------------------------------------------------------


def _reference_metrics(es, max_rank):
    """Exclusion, ordering, AP, and CMC recomputed with plain loops."""
    q_rows = [i for i in range(len(es)) if es.splits[i] == "query"]
    g_rows = [i for i in range(len(es)) if es.splits[i] == "gallery"]
    aps, firsts = [], []
    for q in q_rows:
        scored = []
        for gi, g in enumerate(g_rows):
            if es.ids[g] == es.ids[q] and es.cameras[g] == es.cameras[q]:
                continue
            d = float(((es.matrix[q] - es.matrix[g]) ** 2).sum())
            scored.append((d, gi, es.ids[g] == es.ids[q]))
        scored.sort(key=lambda t: (t[0], t[1]))
        flags = [hit for _, _, hit in scored]
        if not any(flags):
            continue
        hits = 0
        precs = []
        for rank, hit in enumerate(flags, start=1):
            if hit:
                hits += 1
                precs.append(hits / rank)
        aps.append(sum(precs) / len(precs))
        firsts.append(flags.index(True))
    cmc = np.zeros(max_rank)
    for f in firsts:
        if f < max_rank:
            cmc[f:] += 1
    return cmc / len(firsts), float(np.mean(aps))


def test_criterion_3_metric_oracle(criteria):
    rng = np.random.default_rng(3003)
    checked = 0
    worst = 0.0
    while checked < 200:
        n_gal = int(rng.integers(5, 21))
        n_q = int(rng.integers(1, 6))
        n_ids = int(rng.integers(2, 7))
        n = n_q + n_gal
        es = Table(
            rng.normal(size=(n, 3)),
            rng.integers(0, n_ids, size=n),
            rng.integers(0, 2, size=n),
            np.array(["query"] * n_q + ["gallery"] * n_gal),
            {},
            {},
            [("t", (0, 3))],
        )
        try:
            rr = rank_gallery(es, "standard")
        except Exception:
            continue
        cmc, mean_ap = cmc_map(rr, max_rank=n_gal)
        ref_cmc, ref_map = _reference_metrics(es, n_gal)
        worst = max(worst, abs(mean_ap - ref_map), float(np.abs(cmc - ref_cmc).max()))
        checked += 1
    detail = f"{checked} instances, max deviation {worst:.2e}"
    criteria.check(3, "metric oracle", worst < 1e-12, detail)


# ----------------------------------------------------------------------------
# Criteria 4-7: effect experiments on the default preset, 3 seeds
# ----------------------------------------------------------------------------


def branch_scores(ds, cfg):
    """One branch's run, keyed as the criteria read it."""
    log, es, report, probe = run_branch(ds, cfg, ProbeConfig())
    st = report.channels[cfg.bias_channel]
    return {
        "rank1": report.rank1,
        "map": report.map,
        "probe": probe.accuracy,
        "nauc_neg": st.nauc_neg,
        "nauc_pos": st.nauc_pos,
        "active_frac_db": log.epochs[-1].active_frac_db,
        "es": es,
    }


@pytest.fixture(scope="session")
def default_runs():
    preset = PRESETS["default"]
    t0 = time.monotonic()
    runs = {name: [] for name in ("bas", "R", "E", "E0", "RE")}
    for seed in SEEDS:
        ds = make_dataset(preset.generator, seed)
        cfgs = {
            "bas": replace(preset.branch, mode="reduce", seed=seed, lam_db=0.0),
            "R": replace(preset.branch, mode="reduce", seed=seed),
            "E": replace(preset.branch, mode="enhance", seed=seed),
            "E0": replace(preset.branch, mode="enhance", seed=seed, lam_dr=0.0, lam_db=1.0),
        }
        out = {name: branch_scores(ds, cfg) for name, cfg in cfgs.items()}
        joined = concat([out["R"]["es"], out["E"]["es"]])
        report = evaluate_embeddings(joined)
        out["RE"] = {"rank1": report.rank1, "map": report.map}
        for name in runs:
            runs[name].append(out[name])
    runs["elapsed"] = time.monotonic() - t0
    return runs


def test_criterion_4_bias_reduction_effect(criteria, default_runs):
    probe_drop = median([r["probe"] for r in default_runs["bas"]]) - median(
        [r["probe"] for r in default_runs["R"]]
    )
    rank1_drop = median([r["rank1"] for r in default_runs["bas"]]) - median(
        [r["rank1"] for r in default_runs["R"]]
    )
    elapsed = default_runs["elapsed"]
    detail = (
        f"probe drop {probe_drop:+.3f} (need >= 0.05), rank1 drop {rank1_drop:+.3f} "
        f"(need < 0.05), runs took {elapsed:.0f}s"
    )
    criteria.check(
        4,
        "bias-reduction effect",
        probe_drop >= 0.05 and rank1_drop < 0.05 and elapsed < 300,
        detail,
    )


def test_criterion_5_bias_enhancement_effect(criteria, default_runs):
    gain = median([r["probe"] for r in default_runs["E0"]]) - median(
        [r["probe"] for r in default_runs["bas"]]
    )
    # noise-free two-class preset: enhance-only probe must exceed 0.9
    preset = PRESETS["pose2"]
    ds = make_dataset(preset.generator, seed=0)
    cfg = replace(preset.branch, mode="enhance", seed=0, lam_dr=0.0, lam_db=1.0)
    clean = branch_scores(ds, cfg)["probe"]
    detail = f"probe gain {gain:+.3f} (need >= 0.1), noise-free 2-class probe {clean:.3f} (> 0.9)"
    criteria.check(5, "bias-enhancement effect", gain >= 0.1 and clean > 0.9, detail)


def test_criterion_6_complementarity(criteria, default_runs):
    re_rank1 = median([r["rank1"] for r in default_runs["RE"]])
    best_single = max(
        median([r["rank1"] for r in default_runs["R"]]),
        median([r["rank1"] for r in default_runs["E"]]),
    )
    bas_rank1 = median([r["rank1"] for r in default_runs["bas"]])
    ok = re_rank1 >= best_single - 0.01 and re_rank1 >= bas_rank1
    detail = f"concat {re_rank1:.3f} vs best single {best_single:.3f}, baseline {bas_rank1:.3f}"
    criteria.check(6, "complementarity of branches", ok, detail)


def test_criterion_7_rank_bias_control(criteria, default_runs):
    nauc = {
        name: median([r["nauc_neg"] for r in default_runs[name]]) for name in ("bas", "R", "E")
    }
    pos_shift = abs(
        median([r["nauc_pos"] for r in default_runs["bas"]])
        - median([r["nauc_pos"] for r in default_runs["R"]])
    )
    ordered = nauc["R"] <= nauc["bas"] <= nauc["E"]
    gap = nauc["E"] - nauc["R"]
    ok = ordered and gap >= 0.02 and pos_shift < 0.05
    per_seed = ", ".join(
        "/".join(f"{default_runs[name][i]['nauc_neg']:.3f}" for name in ("R", "bas", "E"))
        for i in range(len(SEEDS))
    )
    af_db = "/".join(f"{r['active_frac_db']:.3f}" for r in default_runs["E"])
    detail = (
        f"nauc10 R/bas/E = {nauc['R']:.3f}/{nauc['bas']:.3f}/{nauc['E']:.3f}, "
        f"gap {gap:+.3f} (need >= 0.02), positive-curve shift {pos_shift:.3f} (< 0.05); "
        f"per seed {SEEDS} R/bas/E {per_seed}; E last-epoch active_frac_db {af_db}"
    )
    criteria.check(7, "bias-in-rankings control", ok, detail)


# ----------------------------------------------------------------------------
# Criterion 8: over-suppression trend across the canonical lambda sweep
# ----------------------------------------------------------------------------


def test_criterion_8_over_suppression(criteria):
    preset = PRESETS["default"]
    rank1_at = {0.005: [], 0.1: []}
    for seed in SEEDS:
        ds = make_dataset(preset.generator, seed)
        cfg = replace(preset.branch, mode="reduce", seed=seed)
        runs = lambda_sweep(ds, cfg, [0.005, 0.01, 0.05, 0.1])
        rank1_at[0.005].append(runs[0][0].rank1)
        rank1_at[0.1].append(runs[3][0].rank1)
    lo, hi = median(rank1_at[0.1]), median(rank1_at[0.005])
    detail = f"rank1 at lambda 0.1 = {lo:.3f} < rank1 at 0.005 = {hi:.3f}"
    criteria.check(8, "over-suppression trend", lo < hi, detail)


# ----------------------------------------------------------------------------
# Criterion 9: determinism and checkpoint resume
# ----------------------------------------------------------------------------


def test_criterion_9_determinism_and_resume(criteria, tmp_path):
    preset = PRESETS["pose2"]
    ds = make_dataset(preset.generator, seed=0)
    cfg = replace(preset.branch, mode="reduce", seed=5, epochs=8)

    a, _ = train_branch(ds, cfg)
    b, _ = train_branch(ds, cfg)
    retrain_identical = np.array_equal(a.flat, b.flat)

    straight = Trainer(ds, cfg)
    straight.run()
    half = Trainer(ds, cfg)
    half.run_epochs(4)
    path = tmp_path / "half.ckpt"
    checkpoint_save(path, half.params, half.adam, cfg, half.epoch)
    params, state, cfg2, epoch = checkpoint_load(path)
    resumed = Trainer(ds, cfg2, params=params, adam=state, start_epoch=epoch)
    resumed.run()
    resume_identical = np.array_equal(resumed.params.flat, straight.params.flat)

    detail = f"retrain identical={retrain_identical}, resume identical={resume_identical}"
    criteria.check(9, "determinism and resume", retrain_identical and resume_identical, detail)


# ----------------------------------------------------------------------------
# Criterion 10: nobias exclusion on every bundled preset
# ----------------------------------------------------------------------------


def test_criterion_10_nobias_exclusion(criteria):
    results = []
    for name, preset in PRESETS.items():
        ds = make_dataset(preset.generator, seed=0)
        cfg = replace(preset.branch, mode="reduce", seed=0)
        params, _ = train_branch(ds, cfg)
        es = embed_all(params, ds)
        channel = preset.branch.bias_channel

        standard = rank_gallery(es, "standard")
        nobias = rank_gallery(es, "nobias", channel=channel)
        cmc_std, _ = cmc_map(standard)
        cmc_nb, _ = cmc_map(nobias)
        max_len = nobias.lengths.max()
        curve = same_bias_rank_prob(nobias, channel, max_len)[0]
        results.append((name, float(curve.sum()), cmc_nb[0] - cmc_std[0]))
    all_zero = all(s == 0.0 for _, s, _ in results)
    never_worse = all(d >= 0 for _, _, d in results)
    detail = "; ".join(f"{n}: curve_sum={s:g}, rank1 gain {d:+.3f}" for n, s, d in results)
    criteria.check(10, "nobias exclusion", all_zero and never_worse, detail)
