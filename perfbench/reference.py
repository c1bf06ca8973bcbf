"""Independent reference for the retrieval audit.

Reads a descriptor CSV (`id,camera,split,<channels...>,e0..` or `f0..`)
itself and recomputes, from the definitions alone, what the `eval` and
`stats` commands report: the ranking under the standard and nobias
protocols, CMC/mAP and the same-bias rank-position curves. Nothing here
imports biasreid, so a defect in the program's evaluation code cannot hide
behind the same defect in its check.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

_FEATURE = re.compile(r"[ef]\d+")
MAX_RANK = 20  # CMC depth the eval command reports
CURVE_RANK = 10  # rank-position curve depth and nauc window
_CHUNK = 32  # queries per distance block; bounds the [chunk, G, D] temporary
TOLERANCE = 1e-9


@dataclass
class Table:
    ids: np.ndarray
    cameras: np.ndarray
    splits: np.ndarray
    labels: dict[str, np.ndarray]
    x: np.ndarray


@dataclass
class Audit:
    n_queries: int
    dropped: int
    n_gallery: int
    cmc: list[float]
    map: float
    curves: dict[str, tuple[list[float], list[float]]]  # channel -> (p_neg, p_pos)

    def nauc(self, channel: str) -> tuple[float, float]:
        p_neg, p_pos = self.curves[channel]
        return float(np.mean(p_neg[:CURVE_RANK])), float(np.mean(p_pos[:CURVE_RANK]))


def read_table(path) -> Table:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    first_feature = next(j for j, col in enumerate(header) if _FEATURE.fullmatch(col))
    channels = header[3:first_feature]
    return Table(
        ids=np.array([int(r[0]) for r in body]),
        cameras=np.array([int(r[1]) for r in body]),
        splits=np.array([r[2] for r in body]),
        labels={c: np.array([r[3 + j] for r in body]) for j, c in enumerate(channels)},
        x=np.array([[float(v) for v in r[first_feature:]] for r in body]),
    )


def audit(t: Table, protocol: str, channel: str | None = None) -> Audit:
    """Rank every query's gallery by exact squared distance, lowest gallery
    index first on ties, after the protocol's exclusions."""
    q_rows = np.flatnonzero(t.splits == "query")
    g_rows = np.flatnonzero(t.splits == "gallery")
    g_x, g_id, g_cam = t.x[g_rows], t.ids[g_rows], t.cameras[g_rows]
    g_lab = {c: lab[g_rows] for c, lab in t.labels.items()}

    hits, lengths, head_pos = [], [], []
    head_same: dict[str, list[np.ndarray]] = {c: [] for c in t.labels}
    dropped = 0
    for start in range(0, len(q_rows), _CHUNK):
        block = q_rows[start:start + _CHUNK]
        diff = t.x[block][:, None, :] - g_x[None, :, :]
        d2 = np.einsum("qgd,qgd->qg", diff, diff)
        for row, dist in zip(block, d2):
            excluded = (g_id == t.ids[row]) & (g_cam == t.cameras[row])
            if protocol == "nobias":
                excluded |= (g_id != t.ids[row]) & (g_lab[channel] == t.labels[channel][row])
            keep = np.flatnonzero(~excluded)
            order = keep[np.lexsort((keep, dist[keep]))]
            positive = g_id[order] == t.ids[row]
            if not positive.any():
                dropped += 1
                continue
            hits.append(np.flatnonzero(positive))
            lengths.append(len(order))
            head_pos.append(positive[:CURVE_RANK])
            for c in t.labels:
                head_same[c].append(g_lab[c][order[:CURVE_RANK]] == t.labels[c][row])

    n = len(hits)
    max_rank = max(1, min(MAX_RANK, max(lengths)))
    curve_rank = max(1, min(CURVE_RANK, min(lengths)))
    cmc = np.zeros(max_rank)
    for h in hits:
        if h[0] < max_rank:
            cmc[h[0]:] += 1.0
    aps = [np.mean(np.arange(1, len(h) + 1) / (h + 1.0)) for h in hits]
    pos = np.array([p[:curve_rank] for p in head_pos])
    curves = {}
    for c, same in head_same.items():
        same = np.array([s[:curve_rank] for s in same])
        curves[c] = ([float(v) for v in (~pos & same).mean(axis=0)],
                     [float(v) for v in (pos & same).mean(axis=0)])
    return Audit(n, dropped, len(g_rows), [float(v) for v in cmc / n], float(np.mean(aps)), curves)


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= TOLERANCE))


def compare_report(report: dict, ref: Audit) -> list[str]:
    """Mismatches between an eval command's report.json and the reference."""
    bad = []
    for key, want in (("n_queries", ref.n_queries), ("dropped_queries", ref.dropped),
                      ("n_gallery", ref.n_gallery)):
        if report[key] != want:
            bad.append(f"{key}: program {report[key]} != reference {want}")
    cmc = ref.cmc
    expected = {"cmc": cmc, "map": ref.map, "rank1": cmc[0],
                "rank5": cmc[min(5, len(cmc)) - 1], "rank10": cmc[min(10, len(cmc)) - 1]}
    for key, want in expected.items():
        if not _close(report[key], want):
            bad.append(f"{key}: program {report[key]} != reference {want}")
    for c, (p_neg, p_pos) in ref.curves.items():
        got = report["channels"].get(c)
        if got is None:
            bad.append(f"channel {c}: missing from report")
            continue
        nauc_neg, nauc_pos = ref.nauc(c)
        for key, want in (("p_neg", p_neg), ("p_pos", p_pos),
                          ("nauc_neg", nauc_neg), ("nauc_pos", nauc_pos)):
            if not _close(got[key], want):
                bad.append(f"channel {c} {key}: program {got[key]} != reference {want}")
    return bad


def compare_nauc(nauc: dict, ref: Audit) -> list[str]:
    """Mismatches between a stats command's nauc.json and the reference."""
    want_neg, want_pos = ref.nauc(nauc["channel"])
    bad = []
    if not _close(nauc["nauc10_neg"], want_neg):
        bad.append(f"nauc10_neg: program {nauc['nauc10_neg']} != reference {want_neg}")
    if not _close(nauc["nauc10_pos"], want_pos):
        bad.append(f"nauc10_pos: program {nauc['nauc10_pos']} != reference {want_pos}")
    return bad
