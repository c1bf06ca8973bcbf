"""Trains one branch end to end: P*K batching, signed combined loss, Adam
with linear rate decay, checkpointing, and per-epoch diagnostics.

A branch is a single encoder; both loss terms act directly on its embedding
space (no separate discriminator heads, the three roles share one set of
weights). Reduce and enhance branches differ only in the sign applied to the
bias term, so they can be trained independently and concatenated later.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import from_kv, ints, to_kv
from .dataset import PKSampler, Table
from .errors import BatchCompositionError, CheckpointError, ConfigError, TrainingError
from .losses import MODES, BatchLabels, CombinedLoss, batch_labels, combined_loss
from .numerics import (
    AdamState,
    EncodeTape,
    EncoderParams,
    adam_step,
    backprop,
    encode,
    init_encoder,
    layer_views,
)

CHECKPOINT_FORMAT_VERSION = 3
_STREAM_INIT = 0
_STREAM_EPOCH = 1
_MAX_BATCH_RETRIES = 10
# cells of a chunk's [batches, n, max(n, d_in)] arrays, its label masks and
# gathered rows: 32 batches of the default 32 rows, more than the default
# preset's 14 an epoch
_CHUNK_CELLS = 1 << 15

BRANCH_CONFIG_KEYS = {
    "mode": ("mode", str, "reduce | enhance"),
    "bias_channel": ("bias_channel", str, "name of the audited bias channel"),
    "lambda_dr": ("lam_dr", float, "identity-loss weight"),
    "lambda_db": ("lam_db", float, "bias-loss weight, unsigned; mode sets the sign"),
    "margin_id": ("margin_id", float, "identity triplet margin"),
    "margin_bias": ("margin_bias", float, "bias triplet margin: mean sq. distance to the "
                    "same-bias pool plus this against the mean to the other-bias pool"),
    "p": ("p", int, "identities per batch"),
    "k": ("k", int, "instances per identity"),
    "epochs": ("epochs", int, "training epochs"),
    "rate": ("rate", float, "base learning rate"),
    "seed": ("seed", int, "master seed for init and batch sampling"),
    "hidden": ("hidden", ints, "comma-separated hidden widths, empty for none"),
    "d_emb": ("d_emb", int, "embedding dimension"),
}


@dataclass(frozen=True)
class BranchConfig:
    mode: str = "reduce"
    bias_channel: str = "pose"
    lam_dr: float = 1.0
    lam_db: float = 0.02
    margin_id: float = 0.3
    margin_bias: float = 0.3
    p: int = 16
    k: int = 4
    epochs: int = 60
    rate: float = 0.0003
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    d_emb: int = 64

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        values = to_kv(self, BRANCH_CONFIG_KEYS)
        for key in ("lambda_dr", "lambda_db", "margin_id", "margin_bias", "rate"):
            if not np.isfinite(values[key]):
                raise ConfigError(f"{key} must be finite, got {values[key]}")
        if self.lam_dr < 0:
            raise ConfigError(f"lambda_dr must be >= 0, got {self.lam_dr}")
        if self.lam_db < 0:
            raise ConfigError("lambda_db is stored unsigned; use mode=reduce for the minus sign")
        if self.p < 2 or self.k < 2:
            raise ConfigError("need p >= 2 and k >= 2")
        if self.epochs < 0 or self.rate < 0:
            raise ConfigError("epochs and rate must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.d_emb < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("encoder widths must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    loss_dr: float
    loss_db: float
    active_frac_dr: float
    active_frac_db: float
    rate: float
    skipped: int


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,loss_dr,loss_db,active_frac_dr,active_frac_db,rate,skipped"]
        for e in self.epochs:
            lines.append(
                f"{e.epoch},{e.loss_dr:.17g},{e.loss_db:.17g},"
                f"{e.active_frac_dr:.17g},{e.active_frac_db:.17g},{e.rate:.17g},{e.skipped}"
            )
        return "\n".join(lines) + "\n"


class Trainer:
    """Owns one branch's parameters and optimizer state (single writer).

    A batch is the row indices its `PKSampler` draws; the trainer reads
    those rows' features, identities and bias codes straight from the
    table. Epoch e trains at `cfg.rate * (1 - e / cfg.epochs)`, a linear
    decay toward 0, and training stops at `cfg.epochs`, so a start epoch at
    or past it trains nothing; a negative one is rejected.

    An epoch runs a chunk of batches at a time in two phases, as a ranking
    runs a block of queries. The label phase (`draw_chunk`) draws the
    chunk, one `draw_batch` per batch, gathers its rows, ids and bias codes
    once and builds their `losses.batch_labels` once. The numeric phase then
    runs each batch's `batch_loss` (encode, distances, selection), backprop
    and Adam step. The sampler's stream feeds only the draws, so drawing
    ahead yields the batches that drawing one at a time did, and every step
    is as before bit for bit. A chunk holds `max(1, _CHUNK_CELLS // (n *
    max(n, d_in)))` batches of n rows, so its memory does not grow with the
    table. So the "no batch with >= 2 classes" error fires when its chunk
    is drawn, before the chunk's first step, not after the batches drawn
    before it have trained.

    The batch sampler's identity index is built once, here; each epoch
    restarts it on a stream seeded from (seed, epoch), which makes epoch
    boundaries clean resume points: a checkpoint needs only parameters,
    optimizer state, and the epoch counter to continue bit-exactly.
    """

    def __init__(
        self,
        ds: Table,
        cfg: BranchConfig,
        params: EncoderParams | None = None,
        adam: AdamState | None = None,
        start_epoch: int = 0,
    ):
        if cfg.bias_channel not in ds.channels:
            raise ConfigError(
                f"bias channel {cfg.bias_channel!r} not in dataset channels {sorted(ds.channels)}"
            )
        if start_epoch < 0:
            raise ConfigError(f"start epoch must be >= 0, got {start_epoch}")
        self.ds = ds
        self.cfg = cfg
        self.epoch = start_epoch
        self.log = TrainLog()
        train = ds.splits == "train"
        n_train = int(train.sum())
        if n_train == 0:
            raise ConfigError("dataset has no train split")
        self.batches_per_epoch = -(-n_train // (cfg.p * cfg.k))
        if params is None:
            init_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _STREAM_INIT)))
            params = init_encoder(ds.dim, cfg.hidden, cfg.d_emb, init_rng)
        if params.d_in != ds.dim:
            raise ConfigError(f"encoder d_in {params.d_in} != dataset d_in {ds.dim}")
        _check_widths(params, cfg)
        adam = adam if adam is not None else AdamState.fresh(params)
        if not adam.m.shape == adam.v.shape == params.flat.shape:
            raise ConfigError(f"Adam moments {adam.m.shape}, {adam.v.shape} != {params.flat.shape}")
        self.params = params
        self.adam = adam
        self._bias_diverse = len(np.unique(ds.codes[cfg.bias_channel][train])) >= 2
        self._sampler = PKSampler(ds, cfg.p, cfg.k, _epoch_rng(cfg.seed, start_epoch))

    def sampler_for_epoch(self, epoch: int) -> PKSampler:
        """Epoch `epoch`'s sampler: the trainer's identity index on the
        (seed, epoch) stream, with an empty queue."""
        return self._sampler.restarted(_epoch_rng(self.cfg.seed, epoch))

    def draw_batch(self, sampler: PKSampler) -> np.ndarray:
        """A batch's row indices. Redraws (bounded) while the batch holds one
        bias class and the train split holds two."""
        codes = self.ds.codes[self.cfg.bias_channel]
        for _ in range(_MAX_BATCH_RETRIES):
            idx = sampler.draw()
            labels = codes[idx]
            if not self._bias_diverse or (labels != labels[0]).any():
                return idx
        raise BatchCompositionError(
            f"no batch with >= 2 {self.cfg.bias_channel!r} classes after "
            f"{_MAX_BATCH_RETRIES} draws"
        )

    def draw_chunk(self, sampler: PKSampler, m: int) -> tuple[np.ndarray, BatchLabels]:
        """Draw the next `m` batches, one `draw_batch` each, and gather them
        once: their [m, n, d_in] feature rows and their `batch_labels`."""
        idx = np.stack([self.draw_batch(sampler) for _ in range(m)])
        codes = self.ds.codes[self.cfg.bias_channel]
        return self.ds.matrix[idx], batch_labels(self.ds.ids[idx], codes[idx])

    def batch_loss(self, rows: np.ndarray, labels: BatchLabels) -> tuple[CombinedLoss, EncodeTape]:
        """The combined loss of a batch's feature rows with its label phase
        (`draw_chunk`'s `labels[b]`), and the encoder tape that
        backpropagates its gradient."""
        emb, tape = encode(self.params, rows)
        out = combined_loss(
            emb,
            labels,
            self.cfg.mode,
            self.cfg.lam_dr,
            self.cfg.lam_db,
            self.cfg.margin_id,
            self.cfg.margin_bias,
        )
        return out, tape

    def run_epochs(self, n: int) -> None:
        for _ in range(n):
            if self.epoch >= self.cfg.epochs:
                break
            self._one_epoch()

    def run(self) -> None:
        self.run_epochs(self.cfg.epochs - self.epoch)

    def _one_epoch(self) -> None:
        cfg = self.cfg
        rate = cfg.rate * (1.0 - self.epoch / cfg.epochs)
        sampler = self.sampler_for_epoch(self.epoch)
        sum_dr = sum_db = sum_af_dr = sum_af_db = 0.0
        skipped = 0
        nb = self.batches_per_epoch
        n = cfg.p * cfg.k
        chunk = max(1, _CHUNK_CELLS // (n * max(n, self.ds.dim)))
        for start in range(0, nb, chunk):
            rows, labels = self.draw_chunk(sampler, min(chunk, nb - start))
            for j in range(len(rows)):
                out, tape = self.batch_loss(rows[j], labels[j])
                if not np.isfinite(out.value):
                    raise TrainingError(
                        f"non-finite loss at epoch {self.epoch}, batch {start + j}"
                    )
                sum_dr += out.reid.value / n
                sum_db += out.bias.value / n
                sum_af_dr += out.reid.selection.active_fraction
                sum_af_db += out.bias.selection.active_fraction
                skipped += out.bias.n_skipped
                if not out.grads.any():
                    continue  # nothing to update, keep optimizer state untouched
                grads = backprop(tape, out.grads)
                adam_step(self.params, grads, self.adam, rate)
        self.log.epochs.append(
            EpochStats(
                self.epoch, sum_dr / nb, sum_db / nb, sum_af_dr / nb, sum_af_db / nb, rate, skipped
            )
        )
        self.epoch += 1


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _STREAM_EPOCH, epoch)))


def _check_widths(params: EncoderParams, cfg: BranchConfig) -> None:
    widths, expected = [n_out for n_out, _ in params.shapes], [*cfg.hidden, cfg.d_emb]
    if widths != expected:
        raise ConfigError(f"encoder layer widths {widths} contradict the config's {expected}")


def train_branch(ds: Table, cfg: BranchConfig) -> tuple[EncoderParams, TrainLog]:
    """Train to cfg.epochs from fresh initialization; deterministic in seed."""
    trainer = Trainer(ds, cfg)
    trainer.run()
    return trainer.params, trainer.log


# ----------------------------------------------------------------------------
# Checkpoints: an .npz payload (zip of little-endian .npy arrays) followed by
# sha256(payload) and an 8-byte magic trailer, so any corrupted byte is
# detected before state is reconstructed. The payload holds exactly a JSON
# header `meta_json` and three float64 vectors laid out like
# `EncoderParams.flat`: `params`, `adam_m` and `adam_v`. The header's `d_in`
# and the config's widths give the layer shapes, so each fact is stored once;
# loading checks every vector against them.
# ----------------------------------------------------------------------------

_CHECKPOINT_MAGIC = b"BRCKPT01"
_CHECKPOINT_VECTORS = ("params", "adam_m", "adam_v")


def checkpoint_save(
    path, params: EncoderParams, state: AdamState, cfg: BranchConfig, epoch: int
) -> None:
    """Write `params`, `state`, `cfg` and `epoch`; the widths of `params`
    must be those of `cfg`, which is all that records them."""
    _check_widths(params, cfg)
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "toolkit_version": __version__,
        "epoch": epoch,
        "adam_step": state.step,
        "d_in": params.d_in,
        "config": to_kv(cfg, BRANCH_CONFIG_KEYS),
    }
    meta_json = np.array(json.dumps(meta, sort_keys=True))
    buf = io.BytesIO()
    np.savez(buf, meta_json=meta_json, params=params.flat, adam_m=state.m, adam_v=state.v)
    payload = buf.getvalue()
    digest = hashlib.sha256(payload).digest()
    Path(path).write_bytes(payload + digest + _CHECKPOINT_MAGIC)


def checkpoint_load(path) -> tuple[EncoderParams, AdamState, BranchConfig, int]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    trailer = len(_CHECKPOINT_MAGIC) + 32
    if len(blob) < trailer or not blob.endswith(_CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file (bad trailer)")
    payload, digest = blob[:-trailer], blob[-trailer:-len(_CHECKPOINT_MAGIC)]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
        raise CheckpointError(f"cannot parse checkpoint {path}: {exc}") from exc
    if "meta_json" not in arrays:
        raise CheckpointError(f"{path}: missing meta_json entry")
    try:
        meta = json.loads(str(arrays["meta_json"]))
        version = meta.get("format_version")
    except (ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: meta_json is not a JSON object: {exc}") from exc
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} != {CHECKPOINT_FORMAT_VERSION}")
    if sorted(arrays) != sorted(("meta_json", *_CHECKPOINT_VECTORS)):
        raise CheckpointError(f"{path}: entries {sorted(arrays)} are not those of the format")
    try:
        epoch = int(meta["epoch"])
        step = int(meta["adam_step"])
        d_in = int(meta["d_in"])
        raw_cfg = {k: str(v) for k, v in meta["config"].items()}
    except KeyError as exc:
        raise CheckpointError(f"{path}: meta_json lacks {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed meta_json entry: {exc}") from exc
    if epoch < 0 or step < 0:
        raise CheckpointError(f"{path}: saved epoch {epoch} or adam step {step} is negative")
    if d_in < 1:
        raise CheckpointError(f"{path}: saved d_in {d_in} is not positive")
    try:
        cfg = from_kv(BranchConfig(), raw_cfg, BRANCH_CONFIG_KEYS, what="branch config")
    except ConfigError as exc:
        raise CheckpointError(f"{path}: invalid saved config: {exc}") from exc
    dims = [d_in, *cfg.hidden, cfg.d_emb]
    shapes = list(zip(dims[1:], dims[:-1]))
    size = sum(n_out * (n_in + 1) for n_out, n_in in shapes)
    for name in _CHECKPOINT_VECTORS:
        vec = arrays[name]
        if vec.dtype != np.float64 or vec.shape != (size,):
            raise CheckpointError(
                f"{path}: {name} is {vec.dtype} of shape {vec.shape}, but layer widths "
                f"{dims} need float64 of shape {(size,)}"
            )
        if not np.isfinite(vec).all():
            raise CheckpointError(f"{path}: {name} holds non-finite entries")
    m, v = arrays["adam_m"], arrays["adam_v"]
    if (v < 0).any():
        raise CheckpointError(f"{path}: adam_v, Adam's second moment, has entries below 0")
    params = EncoderParams(*layer_views(shapes, arrays["params"]))
    return params, AdamState(m, v, step), cfg, epoch
