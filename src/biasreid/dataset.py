"""Annotated rows as one columnar table, a controllable synthetic generator,
CSV IO, P x K batching, and the query/gallery split; `make_dataset` is the
one recipe that generates a dataset and splits it.

A `Table` holds n annotated rows as parallel columns:

- `matrix`: float64 [n, d], input features or embeddings;
- `ids` and `cameras`: int [n], identity and protocol camera;
- `splits`: str [n], each one of SPLITS;
- `codes[c]`: int [n] per bias channel c, indexing the class names
  `channels[c]` (the generator's class order, or sorted on load);
- `meta`: how the rows were made (generator config, dropped queries),
  empty for a loaded table.

Datasets and embeddings are the same type: an embedding is a table whose
`matrix` holds encoder outputs. Tables share column arrays, and no function
writes into them.

The synthetic generator mixes a per-identity latent with per-bias-class
latents so that bias visibly contaminates feature-space neighbourhoods,
which is exactly what the training branches then suppress or amplify.

A table is stored as UTF-8 CSV, `id,camera,split,<channels...>,f0..f{d-1}`
(`e0..` for embeddings), one row per line, each feature in `%.17g` so it
reads back bit for bit.

- saving formats blocks of rows bounded at `_CSV_BLOCK` cells, a whole
  column at a time, with one `%` over a repeated row template, so it never
  holds the whole text; class and channel names are quoted as csv.writer
  quotes a cell amid a row, and also when they hold a CR;
- loading streams the records through `csv.reader` and checks each one cell
  by cell in file order, with Python's own `int` and `float`, so a
  `ParseError` names the first bad row and column; the features gather in
  one flat buffer, reshaped once at the end. Finiteness is checked on the
  whole matrix after the last row.

The CSV is the record. Beside each CSV it writes, `save_dataset` also
writes a sidecar `<csv>.npz`: the very table a parse of that CSV returns
(class names sorted, unused classes gone), bound to the CSV by the sha256
of its bytes, which are hashed as they are written. `load_dataset` returns
the sidecar's table only when the CSV's bytes still hash to that digest and
the sidecar is whole; otherwise it parses the CSV. A sidecar is never read
without its CSV, so a missing, edited or malformed CSV loads, or fails, as
if no sidecar existed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import re
import zipfile
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .config import to_kv
from .errors import AlignmentError, ConfigError, DataError, EvaluationError, ParseError

SPLITS = ("train", "query", "gallery")
CAMERA_CHANNEL = "cam"
_SPLIT_DTYPE = np.array(SPLITS).dtype  # wide enough for every tag


@dataclass(frozen=True)
class Table:
    """Rows of annotated vectors, stored column by column (module docstring)."""

    matrix: np.ndarray
    ids: np.ndarray
    cameras: np.ndarray
    splits: np.ndarray
    codes: dict[str, np.ndarray]
    channels: dict[str, list[str]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DataError(f"matrix must be 2-D, got shape {matrix.shape}")
        n = matrix.shape[0]
        columns = {
            "ids": np.asarray(self.ids, dtype=np.int64),
            "cameras": np.asarray(self.cameras, dtype=np.int64),
            "splits": np.asarray(self.splits, dtype=_SPLIT_DTYPE),
        }
        if set(self.codes) != set(self.channels):
            raise DataError(
                f"codes for {sorted(self.codes)} but classes for {sorted(self.channels)}"
            )
        codes = {ch: np.asarray(self.codes[ch], dtype=np.int64) for ch in self.channels}
        for name, arr in [*columns.items(), *codes.items()]:
            if arr.shape != (n,):
                raise AlignmentError(f"{name} has shape {arr.shape} for {n} rows")
        unknown = set(columns["splits"].tolist()) - set(SPLITS)
        if unknown:
            raise DataError(f"unknown split tag(s) {sorted(unknown)}")
        for ch, arr in codes.items():
            if n and (arr.min() < 0 or arr.max() >= len(self.channels[ch])):
                raise DataError(f"channel {ch!r}: code outside its {len(self.channels[ch])} classes")
        for name, arr in dict(columns, matrix=matrix, codes=codes).items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def rows(self, idx) -> "Table":
        """The rows picked by an index array or boolean mask, in that order."""
        return replace(
            self,
            matrix=self.matrix[idx],
            ids=self.ids[idx],
            cameras=self.cameras[idx],
            splits=self.splits[idx],
            codes={ch: arr[idx] for ch, arr in self.codes.items()},
        )


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    n_classes: int
    d_latent: int
    gain: float

    def __str__(self) -> str:
        """`name:classes:dim:gain`, the gain in repr so it reads back exactly."""
        return f"{self.name}:{self.n_classes}:{self.d_latent}:{self.gain!r}"


def parse_channel_spec(raw: str) -> tuple[ChannelSpec, ...]:
    """Parse 'pose:3:8:1.0,cam:2:8:1.0' (name:classes:latent_dim:gain)."""
    specs = []
    for part in raw.split(","):
        bits = part.strip().split(":")
        if len(bits) != 4:
            raise ConfigError(f"channel spec {part!r}: expected name:classes:dim:gain")
        try:
            specs.append(ChannelSpec(bits[0], int(bits[1]), int(bits[2]), float(bits[3])))
        except ValueError:
            raise ConfigError(f"channel spec {part!r}: non-numeric field") from None
    return tuple(specs)


GEN_CONFIG_KEYS = {
    "n_ids": ("n_ids", int, "number of identities"),
    "samples_per_id": ("samples_per_id", int, "samples per identity"),
    "d_id": ("d_id", int, "identity latent dimension"),
    "d_in": ("d_in", int, "feature dimension"),
    "sigma": ("sigma", float, "per-sample noise scale"),
    "channels": ("channels", parse_channel_spec,
                 "bias channels as name:classes:latent_dim:gain, comma separated"),
    "mix_seed": ("mix_seed", int, "seed for the fixed mixing matrices"),
    "feature_scale": ("feature_scale", float, "global feature scaling"),
    "eval_fraction": ("eval_fraction", float, "fraction of identities held out for query/gallery"),
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic latent-factor generator and of the split that
    follows it. The defaults are the bundled default preset (see presets);
    they are config, not ground truth."""

    n_ids: int = 120
    samples_per_id: int = 6
    d_id: int = 16
    d_in: int = 16
    sigma: float = 0.2
    channels: tuple[ChannelSpec, ...] = (
        ChannelSpec("pose", 3, 8, 1.2),
        ChannelSpec("cam", 2, 8, 0.5),
    )
    mix_seed: int = 0
    feature_scale: float = 0.05
    eval_fraction: float = 0.4

    def __post_init__(self) -> None:
        if self.n_ids < 2 or self.samples_per_id < 2:
            raise ConfigError("need n_ids >= 2 and samples_per_id >= 2")
        if self.d_in < 1 or self.d_id < 1:
            raise ConfigError("latent/feature dims must be >= 1")
        if not (0 <= self.sigma < np.inf and 0 < self.feature_scale < np.inf):
            raise ConfigError("sigma must be finite and >= 0, feature_scale finite and > 0")
        if self.mix_seed < 0:
            raise ConfigError(f"mix_seed must be >= 0, got {self.mix_seed}")
        if not 0 <= self.eval_fraction <= 1:
            raise ConfigError(f"eval_fraction must be in [0, 1], got {self.eval_fraction}")
        names = [c.name for c in self.channels]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate channel names")
        if CAMERA_CHANNEL not in names:
            raise ConfigError(f"generator requires a {CAMERA_CHANNEL!r} channel (protocol camera)")
        for c in self.channels:
            if c.name in _FIXED_COLUMNS or _FEATURE_COL.match(c.name):
                raise ConfigError(f"channel {c.name!r}: the CSV header reserves that name")
            if c.n_classes < 2:
                raise ConfigError(f"channel {c.name!r}: class count must be >= 2")
            if c.d_latent < 1 or not 0 <= c.gain < np.inf:
                raise ConfigError(f"channel {c.name!r}: need latent dim >= 1, finite gain >= 0")


def generate_synthetic(cfg: GeneratorConfig, seed: int) -> Table:
    """Features = A u_id + sum_c gain_c B_c v_{c,class} + sigma * noise.

    Mixing matrices come from `cfg.mix_seed`; identity/class latents, class
    assignments, and noise come from `seed`. Pure function of (cfg, seed).
    Features that overflow float64 raise DataError.
    """
    mix_rng = np.random.default_rng(cfg.mix_seed)
    mix_id = mix_rng.normal(size=(cfg.d_in, cfg.d_id)) / np.sqrt(cfg.d_id)
    mix_ch = {
        c.name: mix_rng.normal(size=(cfg.d_in, c.d_latent)) / np.sqrt(c.d_latent)
        for c in cfg.channels
    }

    rng = np.random.default_rng(seed)
    n = cfg.n_ids * cfg.samples_per_id
    id_latents = rng.normal(size=(cfg.n_ids, cfg.d_id))
    class_latents = {c.name: rng.normal(size=(c.n_classes, c.d_latent)) for c in cfg.channels}
    class_of = {c.name: rng.integers(0, c.n_classes, size=n) for c in cfg.channels}
    noise = rng.normal(size=(n, cfg.d_in))

    # One matrix-vector product per identity and per class, gathered per row.
    # A single matrix-matrix product would round differently; this keeps the
    # features bit-identical to one product per row.
    ids = np.repeat(np.arange(cfg.n_ids), cfg.samples_per_id)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite feature raises below
        x = np.stack([mix_id @ u for u in id_latents])[ids]
        for c in cfg.channels:
            per_class = np.stack([mix_ch[c.name] @ v for v in class_latents[c.name]])
            x = x + c.gain * per_class[class_of[c.name]]
        x = cfg.feature_scale * (x + cfg.sigma * noise)
    if not np.isfinite(x).all():
        raise DataError("generated features overflow float64; lower feature_scale, sigma or gains")

    channels = {c.name: [str(k) for k in range(c.n_classes)] for c in cfg.channels}
    meta = {"generator": to_kv(cfg, GEN_CONFIG_KEYS)}
    return Table(
        x, ids, class_of[CAMERA_CHANNEL], np.full(n, "train"), class_of, channels, meta=meta
    )


# ----------------------------------------------------------------------------
# CSV format: id,camera,split,<channel...>,f0..f{d-1}
# ----------------------------------------------------------------------------

_FIXED_COLUMNS = ("id", "camera", "split")
_FEATURE_COL = re.compile(r"^([ef])(\d+)$")
_INT64_RANGE = range(-(2**63), 2**63)
# cells the CSV writer formats at a time: bounds the rows, cells and text of one
# block (about 90 KB of text at 17 significant digits)
_CSV_BLOCK = 1 << 12
# the sidecar's layout; a sidecar of another format is ignored
_SIDECAR_FORMAT = 1
_SIDECAR_COLUMNS = ("matrix", "ids", "cameras", "splits")
_HASH_CHUNK = 1 << 20  # bytes of the CSV hashed at a time


def _csv_cell(text: str) -> str:
    """`text` as a cell amid a row: quoted, its quotes doubled, when it holds a
    comma, a quote or a line break. csv.writer cannot quote one cell alone: it
    writes a lone empty field as `""`, and under lineterminator "\n" it leaves
    "\r" bare, which splits the row on reading."""
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _sidecar(path) -> Path:
    """Where the CSV at `path` keeps its sidecar: `<csv>.npz`."""
    return Path(f"{os.fspath(path)}.npz")


def _csv_blocks(ds: Table, header: list[str]):
    """The CSV text of the table: the header line, then blocks of rows."""
    chan_names = list(ds.channels)
    yield ",".join(_csv_cell(col) for col in header) + "\n"
    labels = [
        np.array([_csv_cell(name) for name in ds.channels[c]], dtype=object)[ds.codes[c]]
        for c in chan_names
    ]
    row = "%d,%d,%s" + ",%s" * len(chan_names) + ",%.17g" * ds.dim + "\n"
    step = max(1, _CSV_BLOCK // (3 + len(chan_names) + ds.dim))
    for start in range(0, len(ds), step):
        rows = slice(start, start + step)
        head = [ds.ids[rows], ds.cameras[rows], ds.splits[rows], *(lab[rows] for lab in labels)]
        columns = [col.tolist() for col in head] + ds.matrix[rows].T.tolist()
        yield (row * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def save_dataset(ds: Table, path, feature_prefix: str = "f") -> list[Path]:
    """Write the table as CSV, the record, a block of rows at a time; then
    its sidecar `<csv>.npz`, derived from it: the table a parse of that CSV
    returns, bound to the CSV's bytes by their sha256 (module docstring). A
    table whose CSV a parse rejects gets no sidecar. Returns the files
    written."""
    header = [*_FIXED_COLUMNS, *ds.channels, *(f"{feature_prefix}{j}" for j in range(ds.dim))]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _csv_blocks(ds, header):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

    # what a parse names each channel's classes: those the rows use, sorted
    classes, codes = {}, []
    for c, names in ds.channels.items():
        used = np.flatnonzero(np.bincount(ds.codes[c], minlength=len(names)))
        classes[c] = sorted({names[k] for k in used})
        index = {name: code for code, name in enumerate(classes[c])}
        codes.append(np.array([index.get(name, -1) for name in names], dtype=np.int64)[ds.codes[c]])
    try:
        parses = _feature_start(path, header) == 3 + len(classes)
    except ParseError:  # a channel named like a fixed or feature column
        parses = False
    limit = csv.field_size_limit()
    cells = chain(header, *classes.values())
    sidecar = _sidecar(path)
    if not (parses and all(len(cell) <= limit for cell in cells) and np.isfinite(ds.matrix).all()):
        sidecar.unlink(missing_ok=True)  # one left by an earlier save
        return [Path(path)]
    meta = {"format": _SIDECAR_FORMAT, "csv_sha256": digest.hexdigest(), "channels": classes}
    np.savez(sidecar, meta_json=np.array(json.dumps(meta)), matrix=ds.matrix, ids=ds.ids,
             cameras=ds.cameras, splits=ds.splits,
             **{f"code{k}": arr for k, arr in enumerate(codes)})
    return [Path(path), sidecar]


def _sidecar_table(path) -> Table | None:
    """The table in the CSV's sidecar, if the sidecar is whole and bound to
    the CSV's bytes as they are now; None otherwise."""
    sidecar = _sidecar(path)
    if not sidecar.is_file():
        return None
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            chunk = bytearray(_HASH_CHUNK)  # not the whole file in one bytes object
            while size := fh.readinto(chunk):
                digest.update(memoryview(chunk)[:size])
    except OSError:  # the parse raises the ParseError that names the file
        return None
    try:
        with np.load(sidecar, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta_json"]))
            if meta["format"] != _SIDECAR_FORMAT or meta["csv_sha256"] != digest.hexdigest():
                return None
            channels = meta["channels"]
            codes = [f"code{k}" for k in range(len(channels))]
            if sorted(npz.files) != sorted(["meta_json", *_SIDECAR_COLUMNS, *codes]):
                return None
            arrays = {name: npz[name] for name in [*_SIDECAR_COLUMNS, *codes]}
        matrix = arrays["matrix"]
        if matrix.dtype != np.float64 or not np.isfinite(matrix).all():
            return None
        return Table(matrix, arrays["ids"], arrays["cameras"], arrays["splits"],
                     {c: arrays[name] for c, name in zip(channels, codes)}, channels)
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile,
            AlignmentError, DataError):  # not whole, or not this format's
        return None


@contextmanager
def _reading(path):
    """The file open as UTF-8 text for csv; an unreadable file, undecodable
    text or an oversized field is a ParseError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def _feature_start(path, header: list[str] | None) -> int:
    """Index of the header's first feature column: the header must read
    id,camera,split,<channels...>,f0..fN (or e0..eN)."""
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header row")
    if tuple(header[:3]) != _FIXED_COLUMNS:
        raise ParseError(f"{path}: header must start with id,camera,split, got {header[:3]}")
    repeated = [col for j, col in enumerate(header) if col in header[:j]]
    if repeated:
        raise ParseError(f"{path}: header repeats column {repeated[0]!r}")
    feat_start = next(
        (j for j, col in enumerate(header[3:], start=3) if _FEATURE_COL.match(col)), None
    )
    if feat_start is None:
        raise ParseError(f"{path}: header names no feature column (f0.. or e0..)")
    prefix = None
    for k, col in enumerate(header[feat_start:]):
        m = _FEATURE_COL.match(col)
        if not m or (prefix is not None and m.group(1) != prefix) or int(m.group(2)) != k:
            raise ParseError(f"{path}: feature columns must be {prefix or 'f'}0..{prefix or 'f'}N in order, got {col!r}")
        prefix = m.group(1)
    return feat_start


def _number(path, rownum: int, column: str, text: str, kind):
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ParseError(f"{path}: row {rownum}, column {column}: not {what}: {text!r}") from None
    if kind is int and value not in _INT64_RANGE:
        raise ParseError(f"{path}: row {rownum}, column {column}: {text!r} does not fit in int64")
    return value


def _scan(path, header: list[str], records, feat_start: int):
    """The columns of the body `records`, a csv.reader past the header, each
    record checked cell by cell in file order, so a ParseError names the
    first bad row and column."""
    ids, cameras, splits, labels = [], [], [], [[] for _ in range(3, feat_start)]
    features = array("d")
    try:
        for rownum, row in enumerate(records, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {rownum}: {len(row)} fields, header has {len(header)}")
            ids.append(_number(path, rownum, "id", row[0], int))
            cameras.append(_number(path, rownum, "camera", row[1], int))
            if row[2] not in SPLITS:
                raise ParseError(f"{path}: row {rownum}, column split: unknown tag {row[2]!r}")
            try:
                features.extend(map(float, row[feat_start:]))
            except ValueError:
                for col, text in zip(header[feat_start:], row[feat_start:]):
                    _number(path, rownum, col, text, float)
            splits.append(row[2])
            for column, text in zip(labels, row[3:feat_start]):
                column.append(text)
    except ParseError:
        # undecodable text or a csv fault anywhere in the file is reported
        # before a bad row, so read the rest of it first
        for _ in records:
            pass
        raise
    matrix = np.asarray(features).reshape(len(ids), len(header) - feat_start)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: row {int(np.argmin(finite)) + 2}: non-finite feature value")
    return ids, cameras, splits, labels, matrix


def load_dataset(path) -> Table:
    """The table in the dataset CSV, the record. Its sidecar `<csv>.npz` is
    read in place of a parse only when bound by digest to the CSV's bytes as
    they are now, and never without the CSV. Otherwise the CSV is parsed in
    one streamed pass, record by record (module docstring); errors name the
    offending row and column."""
    table = _sidecar_table(path)
    if table is not None:
        return table
    with _reading(path) as fh:
        records = csv.reader(fh)
        header = next(records, None)
        feat_start = _feature_start(path, header)
        ids, cameras, splits, labels, matrix = _scan(path, header, records, feat_start)
    channels, codes = {}, {}
    for c, column in zip(header[3:feat_start], labels):
        # not np.unique over a str array: it strips trailing NULs, merging 'a' and 'a\0'
        channels[c] = sorted(set(column))
        index = {name: code for code, name in enumerate(channels[c])}
        codes[c] = np.array([index[name] for name in column], dtype=np.intp)
    return Table(matrix, ids, cameras, splits, codes, channels)


# ----------------------------------------------------------------------------
# P identities x K instances batching
# ----------------------------------------------------------------------------


class PKSampler:
    """Draws P-identity / K-instance batches, cycling through all train
    identities before any identity repeats (epoch semantics).

    Construction builds the identity index, each train identity's rows in
    row order, once. `restarted(rng)` shares that index and starts a new
    stream with an empty queue, as a newly built sampler does, so a trainer
    builds the index once and restarts it on each epoch's stream.
    """

    def __init__(self, ds: Table, p: int, k: int, rng: np.random.Generator):
        if p < 2 or k < 2:
            raise ConfigError("need P >= 2 and K >= 2 for triplet batches")
        train_idx = np.flatnonzero(ds.splits == "train")
        # each identity's train rows, in row order
        train_idx = train_idx[np.argsort(ds.ids[train_idx], kind="stable")]
        self.identities, starts = np.unique(ds.ids[train_idx], return_index=True)
        self.by_id = dict(zip(self.identities.tolist(), np.split(train_idx, starts[1:])))
        if len(self.identities) < p:
            raise ConfigError(f"only {len(self.identities)} train identities, need P={p}")
        self.p = p
        self.k = k
        self.rng = rng
        self._queue: list[int] = []

    def restarted(self, rng: np.random.Generator) -> "PKSampler":
        """A sampler over this one's identity index that draws from `rng`,
        its queue empty: it draws what `PKSampler(ds, p, k, rng)` would."""
        fresh = copy.copy(self)
        fresh.rng = rng
        fresh._queue = []
        return fresh

    def draw(self) -> np.ndarray:
        """The next batch's P*K table row indices: K rows of each of the
        next P identities in the queue, in queue order, drawn with
        replacement only from an identity with fewer than K train rows."""
        if len(self._queue) < self.p:
            pending = set(self._queue)
            fresh = [i for i in self.rng.permutation(self.identities) if i not in pending]
            self._queue.extend(int(i) for i in fresh)
        chosen, self._queue = self._queue[: self.p], self._queue[self.p :]

        pools = [self.by_id[ident] for ident in chosen]
        return np.concatenate(
            [self.rng.choice(pool, size=self.k, replace=len(pool) < self.k) for pool in pools]
        )


# ----------------------------------------------------------------------------
# Query/gallery protocol split
# ----------------------------------------------------------------------------


def split_query_gallery(ds: Table, fraction: float, rng: np.random.Generator) -> Table:
    """Hold out a fraction of identities and tag their rows query/gallery.

    Per held-out (identity, camera) group: one random query if the group has
    >= 2 rows, everything else gallery. Queries without a cross-camera
    gallery positive are demoted to gallery and counted in meta.
    """
    if not 0 <= fraction <= 1:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
    idents, id_index = np.unique(ds.ids, return_inverse=True)
    n_eval = int(round(fraction * len(idents)))
    held = np.isin(ds.ids, rng.choice(idents, size=n_eval, replace=False))
    splits = np.where(held, "gallery", "train")

    # held-out rows grouped by (id, camera) in key order, row order within
    rows = np.flatnonzero(held)
    rows = rows[np.lexsort((ds.cameras[rows], ds.ids[rows]))]
    new_group = np.ones(len(rows), dtype=bool)
    new_group[1:] = np.diff(ds.ids[rows]) != 0
    new_group[1:] |= np.diff(ds.cameras[rows]) != 0
    starts = np.flatnonzero(new_group)
    sizes = np.diff(np.append(starts, len(rows)))
    for start, size in zip(starts.tolist(), sizes.tolist()):
        if size >= 2:
            splits[rows[start + int(rng.integers(0, size))]] = "query"

    # A gallery row of the query's id on another camera exists iff that id's
    # lowest or highest gallery camera differs from the query's camera.
    gallery = splits == "gallery"
    lo = np.full(len(idents), np.iinfo(np.int64).max)
    hi = np.full(len(idents), np.iinfo(np.int64).min)
    np.minimum.at(lo, id_index[gallery], ds.cameras[gallery])
    np.maximum.at(hi, id_index[gallery], ds.cameras[gallery])
    queries = np.flatnonzero(splits == "query")
    q_id, q_cam = id_index[queries], ds.cameras[queries]
    lonely = queries[(lo[q_id] >= q_cam) & (hi[q_id] <= q_cam)]
    splits[lonely] = "gallery"

    if not (splits == "query").any():
        raise EvaluationError("no valid queries after split (fraction too small or single-camera ids)")

    meta = dict(ds.meta, dropped_queries=len(lonely))
    return replace(ds, splits=splits, meta=meta)


# the split's stream of the dataset seed, apart from the generator's draws
_SPLIT_STREAM = 10


def make_dataset(cfg: GeneratorConfig, seed: int) -> Table:
    """The synthetic dataset of `cfg` at `seed`, split into train, query and
    gallery rows: what `biasreid gen` writes."""
    ds = generate_synthetic(cfg, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _SPLIT_STREAM)))
    return split_query_gallery(ds, cfg.eval_fraction, rng)
