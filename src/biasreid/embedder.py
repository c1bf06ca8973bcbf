"""Applies trained encoders to a table's rows and assembles the final
descriptor.

An embedding is a `dataset.Table`: the input table with `matrix` replaced by
encoder outputs and the same annotation columns. At inference the
per-branch embeddings are concatenated column-wise, which makes the squared
Euclidean distance on the final descriptor exactly the sum of the per-branch
squared distances. No bias annotation influences the embedding computation;
the codes are only carried along for later auditing.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import Table, save_dataset
from .errors import AlignmentError, ConfigError, DataError
from .numerics import EncoderParams, encode


def embed_all(params: EncoderParams, ds: Table) -> Table:
    """Encode every row in table order.

    Only the feature matrix enters the encoder; the annotation columns are
    carried over and never read during the computation. A row whose
    embedding overflows float64 raises DataError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite embedding raises below
        emb, _ = encode(params, ds.matrix)
    bad = ~np.isfinite(emb).all(axis=1)
    if bad.any():
        raise DataError(f"the embedding of row {int(np.argmax(bad))} overflows float64")
    return replace(ds, matrix=emb)


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
            and other.channels == first.channels
            and all(np.array_equal(other.codes[ch], first.codes[ch]) for ch in first.channels)
        ):
            raise AlignmentError("embedding sets describe different samples or orders")
    return replace(first, matrix=np.concatenate([s.matrix for s in sets], axis=1))


def save_embeddings(es: Table, path) -> list[Path]:
    """CSV `id,camera,split,<channels...>,e0..e{D-1}`, the record, and its
    sidecar `<csv>.npz`, derived from the CSV and bound to its bytes by
    digest; returns the files written. `dataset.load_dataset` reads the
    sidecar only beside the very CSV it was written with; otherwise it
    parses the CSV in one streamed pass, as it parses any external
    descriptors to audit."""
    return save_dataset(es, path, feature_prefix="e")
