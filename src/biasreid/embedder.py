"""Applies trained encoders to a table's rows and assembles the final
descriptor.

An embedding is a `dataset.Table`: the input table with `matrix` replaced by
encoder outputs, the same annotation columns, and `provenance` naming the
branch behind each column span; the spans are disjoint and cover [0, D).
At inference the per-branch embeddings are concatenated column-wise, which
makes the squared Euclidean distance on the final descriptor exactly the sum
of the per-branch squared distances. No bias annotation influences the
embedding computation; the codes are only carried along for later auditing.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import Table, load_dataset, save_dataset
from .errors import AlignmentError, ConfigError
from .numerics import EncoderParams, encode


def embed_all(params: EncoderParams, ds: Table, branch_name: str = "branch") -> Table:
    """Encode every row in table order.

    Only the feature matrix enters the encoder; the annotation columns are
    carried over and never read during the computation.
    """
    emb, _ = encode(params, ds.matrix)
    return replace(ds, matrix=emb, provenance=[(branch_name, (0, emb.shape[1]))])


def concat(sets: list[Table]) -> Table:
    """Column-wise concatenation of branch embeddings over identical rows."""
    if not sets:
        raise ConfigError("concat needs at least one embedding set")
    first = sets[0]
    for other in sets[1:]:
        if len(other) != len(first):
            raise AlignmentError(f"row counts differ: {len(first)} vs {len(other)}")
        if not (
            np.array_equal(other.ids, first.ids)
            and np.array_equal(other.cameras, first.cameras)
            and np.array_equal(other.splits, first.splits)
        ):
            raise AlignmentError("embedding sets describe different samples or orders")
    provenance = []
    offset = 0
    for s in sets:
        for name, (start, stop) in s.provenance:
            provenance.append((name, (start + offset, stop + offset)))
        offset += s.dim
    matrix = np.concatenate([s.matrix for s in sets], axis=1)
    return replace(first, matrix=matrix, provenance=provenance)


def save_embeddings(es: Table, path) -> None:
    """CSV `id,camera,split,<channels...>,e0..e{D-1}`; loadable as a dataset."""
    save_dataset(es, path, feature_prefix="e")


def load_embeddings(path) -> Table:
    """Any dataset or embeddings CSV, its stored vectors taken as one
    branch's embeddings (also how external descriptors are audited)."""
    ds = load_dataset(path)
    return replace(ds, provenance=[(Path(path).stem, (0, ds.dim))])
