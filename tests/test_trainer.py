import hashlib
import io
import json
import re

import numpy as np
import pytest

from biasreid import trainer as trainer_module
from biasreid.config import from_kv
from biasreid.dataset import ChannelSpec, GeneratorConfig, PKSampler, Table, generate_synthetic
from biasreid.errors import BatchCompositionError, CheckpointError, ConfigError
from biasreid.losses import combined_loss
from biasreid.numerics import AdamState, EncoderParams, encode, init_encoder
from biasreid.trainer import (
    BRANCH_CONFIG_KEYS,
    CHECKPOINT_FORMAT_VERSION,
    BranchConfig,
    Trainer,
    checkpoint_load,
    checkpoint_save,
    train_branch,
)


@pytest.fixture(scope="module")
def tiny_ds():
    cfg = GeneratorConfig(
        n_ids=8,
        samples_per_id=4,
        d_id=4,
        d_in=8,
        sigma=0.05,
        channels=(ChannelSpec("pose", 2, 3, 1.0), ChannelSpec("cam", 2, 3, 0.5)),
        feature_scale=0.2,
    )
    return generate_synthetic(cfg, seed=0)


def tiny_cfg(**kw):
    base = dict(
        mode="reduce",
        bias_channel="pose",
        lam_db=0.0,
        p=4,
        k=2,
        epochs=5,
        rate=0.01,
        seed=1,
        hidden=(8,),
        d_emb=4,
    )
    base.update(kw)
    return BranchConfig(**base)


def branch_from_kv(values):
    return from_kv(BranchConfig(), values, BRANCH_CONFIG_KEYS, what="branch config")


class TestBranchConfig:
    def test_lambda_defaults_by_mode_and_channel(self):
        # one default whatever the mode or channel: the presets' 0.02
        for mode in ("reduce", "enhance"):
            for channel in ("pose", "cam", "part"):
                assert BranchConfig(mode=mode, bias_channel=channel).lam_db == 0.02
        assert branch_from_kv({"mode": "enhance"}).lam_db == 0.02
        assert BranchConfig(mode="reduce", lam_db=0.1).lam_db == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="lambda_bd"):
            branch_from_kv({"lambda_bd": "0.1"})

    def test_negative_lambda_db_rejected(self):
        with pytest.raises(ConfigError, match="unsigned"):
            branch_from_kv({"lambda_db": "-0.01"})

    def test_empty_hidden_width_rejected(self):
        with pytest.raises(ConfigError, match="hidden"):
            branch_from_kv({"hidden": "8,,8"})

    def test_canonical_defaults(self):
        cfg = BranchConfig()
        assert (cfg.p, cfg.k, cfg.epochs, cfg.rate) == (16, 4, 60, 0.0003)
        assert cfg.hidden == (64, 64) and cfg.d_emb == 64


class TestTrainBranch:
    def test_loss_decreases_without_bias_term(self, tiny_ds):
        params, log = train_branch(tiny_ds, tiny_cfg(epochs=30))
        assert len(log.epochs) == 30
        assert log.epochs[-1].loss_dr < log.epochs[0].loss_dr

    def test_zero_epochs_returns_init_unchanged(self, tiny_ds):
        cfg = tiny_cfg(epochs=0)
        t = Trainer(tiny_ds, cfg)
        init = EncoderParams(t.params.weights, t.params.biases)
        params, log = train_branch(tiny_ds, cfg)
        assert np.array_equal(params.flat, init.flat)
        assert log.epochs == []

    def test_same_seed_bit_identical(self, tiny_ds):
        cfg = tiny_cfg(epochs=4, lam_db=0.05)
        a, _ = train_branch(tiny_ds, cfg)
        b, _ = train_branch(tiny_ds, cfg)
        assert np.array_equal(a.flat, b.flat)

    def test_different_seed_differs(self, tiny_ds):
        a, _ = train_branch(tiny_ds, tiny_cfg(epochs=2))
        b, _ = train_branch(tiny_ds, tiny_cfg(epochs=2, seed=2))
        assert not np.array_equal(a.flat, b.flat)

    def test_final_epoch_rate_at_most_base_over_epochs(self, tiny_ds):
        cfg = tiny_cfg(epochs=5, rate=0.02)
        _, log = train_branch(tiny_ds, cfg)
        assert log.epochs[-1].rate <= cfg.rate / cfg.epochs + 1e-15

    def test_unknown_channel_rejected(self, tiny_ds):
        with pytest.raises(ConfigError, match="bias channel"):
            Trainer(tiny_ds, tiny_cfg(bias_channel="gait"))

    def test_trainlog_csv_shape(self, tiny_ds):
        _, log = train_branch(tiny_ds, tiny_cfg(epochs=3))
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "epoch,loss_dr,loss_db,active_frac_dr,active_frac_db,rate,skipped"
        assert len(lines) == 4

    def test_reduce_enhance_first_update_differs_only_in_bias_sign(self, tiny_ds):
        cfgs = {m: tiny_cfg(mode=m, lam_db=0.2, epochs=1) for m in ("reduce", "enhance")}
        outs = {}
        for mode, cfg in cfgs.items():
            t = Trainer(tiny_ds, cfg)
            rows, labels = t.draw_chunk(t.sampler_for_epoch(0), 1)
            out, _ = t.batch_loss(rows[0], labels[0])
            outs[mode] = out
        r, e = outs["reduce"], outs["enhance"]
        np.testing.assert_array_equal(r.reid.grads, e.reid.grads)
        np.testing.assert_array_equal(r.bias.grads, e.bias.grads)
        np.testing.assert_allclose(r.grads, 1.0 * r.reid.grads - 0.2 * r.bias.grads, atol=1e-15)
        np.testing.assert_allclose(e.grads, 1.0 * e.reid.grads + 0.2 * e.bias.grads, atol=1e-15)

    def test_no_update_when_gradients_identically_zero(self, tiny_ds):
        # margin 0 on a net trained for 10 epochs: some batches have no
        # active hinge, so an all-zero gradient. Rate 0 keeps the parameters,
        # and so every batch's loss, as they were, so a replay of the same
        # draws counts the batches that must step Adam
        trained, _ = train_branch(tiny_ds, tiny_cfg(epochs=10))
        cfg = tiny_cfg(epochs=3, margin_id=0.0, lam_db=0.0, rate=0.0)
        replay = Trainer(tiny_ds, cfg, params=EncoderParams(trained.weights, trained.biases))
        updates = 0
        for epoch in range(cfg.epochs):
            sampler = replay.sampler_for_epoch(epoch)
            for _ in range(replay.batches_per_epoch):
                rows, labels = replay.draw_chunk(sampler, 1)
                out, _ = replay.batch_loss(rows[0], labels[0])
                updates += bool(out.grads.any())
        assert 0 < updates < cfg.epochs * replay.batches_per_epoch  # both paths taken
        t = Trainer(tiny_ds, cfg, params=EncoderParams(trained.weights, trained.biases))
        t.run()
        assert np.array_equal(t.params.flat, trained.flat)
        assert t.adam.step == updates

    def test_params_contradicting_config_rejected(self, tiny_ds):
        # a checkpoint saved after training with them would not load
        params = init_encoder(tiny_ds.dim, (8,), 4, np.random.default_rng(0))
        with pytest.raises(ConfigError, match=r"widths \[8, 4\] contradict the config's \[16, 4\]"):
            Trainer(tiny_ds, tiny_cfg(hidden=(16,)), params=params)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_adam_state_of_another_size_rejected(self, moment, tiny_ds):
        params = Trainer(tiny_ds, tiny_cfg()).params
        adam = AdamState.fresh(params)
        setattr(adam, moment, adam.m[:-1].copy())
        with pytest.raises(ConfigError, match=r"Adam moments \(\d+,\), \(\d+,\) != \(\d+,\)"):
            Trainer(tiny_ds, tiny_cfg(), params=params, adam=adam)


class TestSamplerReuse:
    """The trainer builds one identity index and restarts it each epoch; its
    draws are those of a sampler built afresh on the epoch's stream."""

    def table(self):
        # identity 0 has one train row, below K = 3; 22 train rows are not a
        # multiple of P * K = 9; identity 7's rows are held out
        counts = [1, 3, 4, 3, 4, 3, 4, 3]
        ids = np.repeat(np.arange(8), counts)
        rng = np.random.default_rng(3)
        return Table(
            rng.normal(size=(len(ids), 4)),
            ids,
            np.arange(len(ids)) % 2,
            np.where(ids == 7, "gallery", "train"),
            {"pose": np.arange(len(ids)) % 2},
            {"pose": ["A", "B"]},
        )

    def test_draws_equal_a_fresh_sampler_each_epoch(self):
        ds = self.table()
        cfg = tiny_cfg(p=3, k=3, seed=4, hidden=(4,), d_emb=3)
        t = Trainer(ds, cfg)
        n_draws = t.batches_per_epoch + 2  # past one pass of the identities
        for epoch in range(4):
            fresh = PKSampler(
                ds, 3, 3, np.random.default_rng(np.random.SeedSequence((4, 1, epoch)))
            )
            expected = [fresh.draw().tolist() for _ in range(n_draws)]
            for _ in range(2):  # a second call starts afresh too: no queue leaks
                sampler = t.sampler_for_epoch(epoch)
                assert [sampler.draw().tolist() for _ in range(n_draws)] == expected


class TestSchedule:
    """The trainer's per-epoch rate: linear decay from cfg.rate toward 0 at
    cfg.epochs, trained only for epochs in [0, cfg.epochs)."""

    @pytest.fixture(scope="class")
    def log17(self, tiny_ds):
        cfg = tiny_cfg(epochs=17, rate=0.01)
        return cfg, train_branch(tiny_ds, cfg)[1]

    def test_rate_decays_linearly_from_base(self, log17):
        cfg, log = log17
        assert [e.epoch for e in log.epochs] == list(range(17))
        assert log.epochs[0].rate == cfg.rate
        for e in log.epochs:
            assert e.rate == cfg.rate * (1.0 - e.epoch / 17)

    def test_non_increasing(self, log17):
        rates = [e.rate for e in log17[1].epochs]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_start_epoch_out_of_range(self, tiny_ds):
        cfg = tiny_cfg(epochs=3)
        with pytest.raises(ConfigError, match="start epoch"):
            Trainer(tiny_ds, cfg, start_epoch=-1)
        t = Trainer(tiny_ds, cfg, start_epoch=4)
        before = EncoderParams(t.params.weights, t.params.biases)
        t.run()
        assert t.epoch == 4 and t.log.epochs == []
        assert np.array_equal(t.params.flat, before.flat)


class TestCheckpoint:
    def test_save_load_bit_exact(self, tiny_ds, tmp_path):
        cfg = tiny_cfg(epochs=3, lam_db=0.03)
        t = Trainer(tiny_ds, cfg)
        t.run_epochs(2)
        path = tmp_path / "branch.npz"
        checkpoint_save(path, t.params, t.adam, cfg, t.epoch)
        params, state, cfg2, epoch = checkpoint_load(path)
        assert np.array_equal(params.flat, t.params.flat)
        assert epoch == 2 and cfg2 == cfg
        assert state.step == t.adam.step
        np.testing.assert_array_equal(state.m, t.adam.m)
        np.testing.assert_array_equal(state.v, t.adam.v)

    def test_resume_equals_straight_run(self, tiny_ds, tmp_path):
        cfg = tiny_cfg(epochs=8, lam_db=0.05)
        straight = Trainer(tiny_ds, cfg)
        straight.run()

        half = Trainer(tiny_ds, cfg)
        half.run_epochs(4)
        path = tmp_path / "half.npz"
        checkpoint_save(path, half.params, half.adam, cfg, half.epoch)
        params, state, cfg2, epoch = checkpoint_load(path)
        resumed = Trainer(tiny_ds, cfg2, params=params, adam=state, start_epoch=epoch)
        resumed.run()

        assert resumed.epoch == straight.epoch == 8
        assert np.array_equal(resumed.params.flat, straight.params.flat)

    def test_corrupt_final_byte_fails_cleanly(self, tiny_ds, tmp_path):
        cfg = tiny_cfg(epochs=1)
        t = Trainer(tiny_ds, cfg)
        path = tmp_path / "c.npz"
        checkpoint_save(path, t.params, t.adam, cfg, 0)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_truncated_file_fails_cleanly(self, tiny_ds, tmp_path):
        cfg = tiny_cfg(epochs=1)
        t = Trainer(tiny_ds, cfg)
        path = tmp_path / "c.npz"
        checkpoint_save(path, t.params, t.adam, cfg, 0)
        path.write_bytes(path.read_bytes()[: 100])
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def saved(self, tiny_ds, tmp_path):
        cfg = tiny_cfg(epochs=1, hidden=(6,))
        t = Trainer(tiny_ds, cfg)
        t.run()
        path = tmp_path / "c.npz"
        checkpoint_save(path, t.params, t.adam, cfg, t.epoch)
        return path

    def test_holds_exactly_meta_and_three_flat_vectors(self, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        arrays = saved_arrays(path)
        assert sorted(arrays) == ["adam_m", "adam_v", "meta_json", "params"]
        # w0 [6, 8], b0 [6], w1 [4, 6], b1 [4]
        assert all(arrays[k].shape == (82,) for k in ("params", "adam_m", "adam_v"))
        meta = json.loads(str(arrays["meta_json"]))
        assert sorted(meta) == [
            "adam_step", "config", "d_in", "epoch", "format_version", "toolkit_version"
        ]
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION == 3 and meta["d_in"] == 8

    def test_transposed_moment_rejected(self, tiny_ds, tmp_path):
        # every entry is there, as a column: the shape, not only the size, must fit
        path = self.saved(tiny_ds, tmp_path)
        rewrite_checkpoint(path, adam_m=saved_arrays(path)["adam_m"][None].T)
        expected = r"adam_m is float64 of shape \(82, 1\), but layer widths \[8, 6, 4\]"
        with raises_at(path, expected + r" need float64 of shape \(82,\)"):
            checkpoint_load(path)

    def test_non_float_array_rejected(self, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        rewrite_checkpoint(path, params=saved_arrays(path)["params"].astype(str))
        with raises_at(path, "params is <U"):
            checkpoint_load(path)

    def test_extra_entry_rejected(self, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        rewrite_checkpoint(path, w0=np.zeros((6, 8)))
        with raises_at(path, r"entries \[.*'w0'\] are not those of the format"):
            checkpoint_load(path)

    def test_meta_without_d_in_rejected(self, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        rewrite_checkpoint(path, meta_json=meta_without(path, "d_in"))
        with raises_at(path, "meta_json lacks 'd_in'"):
            checkpoint_load(path)

    @pytest.mark.parametrize("d_in", [0, -1])
    def test_non_positive_d_in_rejected(self, d_in, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        meta = json.loads(str(saved_arrays(path)["meta_json"]))
        meta["d_in"] = d_in
        rewrite_checkpoint(path, meta_json=np.array(json.dumps(meta, sort_keys=True)))
        with raises_at(path, f"saved d_in {d_in} is not positive"):
            checkpoint_load(path)

    def test_widths_contradicting_config_rejected(self, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        meta = json.loads(str(saved_arrays(path)["meta_json"]))
        meta["config"]["hidden"] = "64"
        rewrite_checkpoint(path, meta_json=np.array(json.dumps(meta, sort_keys=True)))
        with raises_at(path, r"params is float64 of shape \(82,\), but layer widths \[8, 64, 4\]"):
            checkpoint_load(path)

    def test_save_refuses_widths_contradicting_config(self, tmp_path):
        # widths 2 -> 1 -> 3 and 2 -> 2 -> 1 both hold 9 parameters, so a load
        # could not tell them apart: the save refuses the contradiction
        cfg = tiny_cfg(hidden=(2,), d_emb=1)
        params = init_encoder(2, (1,), 3, np.random.default_rng(0))
        assert params.flat.size == 9
        with pytest.raises(ConfigError, match=r"widths \[1, 3\] contradict the config's \[2, 1\]"):
            checkpoint_save(tmp_path / "c.npz", params, AdamState.fresh(params), cfg, 0)
        assert not (tmp_path / "c.npz").exists()

    def test_other_format_version_rejected(self, tiny_ds, tmp_path):
        # format 2 kept per-layer arrays; it is refused, not converted
        path = self.saved(tiny_ds, tmp_path)
        meta = json.loads(str(saved_arrays(path)["meta_json"]))
        meta["format_version"] = 2
        rewrite_checkpoint(path, meta_json=np.array(json.dumps(meta, sort_keys=True)))
        with raises_at(path, f"format version 2 != {CHECKPOINT_FORMAT_VERSION}"):
            checkpoint_load(path)

    @pytest.mark.parametrize("key", ["epoch", "adam_step"])
    def test_negative_epoch_or_step_rejected(self, key, tiny_ds, tmp_path):
        # a step of -1 would make Adam's next bias correction divide by zero
        path = self.saved(tiny_ds, tmp_path)
        meta = json.loads(str(saved_arrays(path)["meta_json"]))
        meta[key] = -1
        rewrite_checkpoint(path, meta_json=np.array(json.dumps(meta, sort_keys=True)))
        expected = f"saved epoch {meta['epoch']} or adam step {meta['adam_step']} is negative"
        with raises_at(path, expected):
            checkpoint_load(path)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("adam_m", np.nan, "adam_m holds non-finite entries"),
            ("adam_v", np.inf, "adam_v holds non-finite entries"),
            ("adam_v", -1e-12, "adam_v, Adam's second moment, has entries below 0"),
            ("params", -np.inf, "params holds non-finite entries"),
        ],
        ids=["nan_m", "inf_v", "negative_v", "inf_params"],
    )
    def test_impossible_vector_entry_rejected(self, name, value, message, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        vec = saved_arrays(path)[name]
        vec[3] = value
        rewrite_checkpoint(path, **{name: vec})
        with raises_at(path, message):
            checkpoint_load(path)

    def test_meta_not_json_rejected(self, tiny_ds, tmp_path):
        path = self.saved(tiny_ds, tmp_path)
        rewrite_checkpoint(path, meta_json=np.array("{not json"))
        with raises_at(path, "meta_json is not a JSON object"):
            checkpoint_load(path)


def raises_at(path, pattern):
    """`pytest.raises` for a CheckpointError about `path` whose message goes
    on, after the path, as regex `pattern`; a pattern that only matched the
    path itself would pass on any error."""
    return pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + pattern)


def saved_arrays(path):
    """The arrays in a checkpoint's payload (its 40-byte trailer dropped)."""
    with np.load(io.BytesIO(path.read_bytes()[:-40]), allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def rewrite_checkpoint(path, **replaced):
    """Re-save a checkpoint with some entries replaced, under a valid
    checksum, so only the loader's own checks can reject it."""
    trailer = path.read_bytes()[-8:]
    buf = io.BytesIO()
    np.savez(buf, **{**saved_arrays(path), **replaced})
    payload = buf.getvalue()
    path.write_bytes(payload + hashlib.sha256(payload).digest() + trailer)


def meta_without(path, key):
    """A checkpoint's meta_json entry with one key removed."""
    meta = json.loads(str(saved_arrays(path)["meta_json"]))
    del meta[key]
    return np.array(json.dumps(meta, sort_keys=True))


class TestGoldenBytes:
    """sha256 of a checkpoint and its trainlog after 2 epochs; any change to
    the bytes written fails here. The trainlog's was pinned before
    parameters, gradients and Adam moments moved into one flat vector. The
    checkpoint's was re-pinned when format 3 replaced the per-layer arrays
    with the three flat vectors; the parameters, moments, step, epoch and
    config it holds are those the format-2 file held, entry for entry."""

    def test_checkpoint_and_trainlog(self, tiny_ds, tmp_path):
        cfg = tiny_cfg(epochs=2, lam_db=0.05, hidden=(6, 5))
        t = Trainer(tiny_ds, cfg)
        t.run()
        path = tmp_path / "golden.npz"
        checkpoint_save(path, t.params, t.adam, cfg, t.epoch)
        digests = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(t.log.to_csv().encode()).hexdigest(),
        )
        assert digests == (
            "d50a0e290acce701315133a58702dd991fedb5a6fd0061f9933fda5300a16bbe",
            "40b869d2f6c0609b6f95c0c3beea2ae2cc14358a0ea69ba8a8aa80ef2e216a08",
        )


class TestBatchRetry:
    def rare_class_dataset(self):
        rng = np.random.default_rng(0)
        ids = np.repeat(np.arange(4), 3)
        cams = np.tile(np.arange(3) % 2, 4)
        return Table(
            np.stack([rng.normal(size=4) for _ in ids]),
            ids,
            cams,
            ["train"] * len(ids),
            {"pose": (ids == 3).astype(int), "cam": cams},
            {"pose": ["A", "B"], "cam": ["0", "1"]},
        )

    def test_redraw_until_bias_diverse(self):
        ds = self.rare_class_dataset()
        cfg = tiny_cfg(p=2, k=2, lam_db=0.05, epochs=1, hidden=(4,), d_emb=3)
        t = Trainer(ds, cfg)
        for _ in range(6):
            idx = t.draw_batch(t.sampler_for_epoch(0))
            assert len(np.unique(ds.codes["pose"][idx])) >= 2

    def test_single_class_train_split_fails_with_bias_weight(self):
        ds = self.rare_class_dataset()
        # restrict to the three class-A identities only
        sub = ds.rows(ds.ids != 3)
        cfg = tiny_cfg(p=2, k=2, lam_db=0.05, epochs=1, hidden=(4,), d_emb=3)
        with pytest.raises(BatchCompositionError):
            Trainer(sub, cfg).run()

    def test_single_class_train_split_fine_as_baseline(self):
        ds = self.rare_class_dataset()
        sub = ds.rows(ds.ids != 3)
        cfg = tiny_cfg(p=2, k=2, lam_db=0.0, epochs=2, hidden=(4,), d_emb=3)
        params, log = train_branch(sub, cfg)
        assert len(log.epochs) == 2

    def test_failing_draw_stops_its_chunk_before_the_first_step(self):
        # 20 class-A identities and one class-B identity, two rows each: on
        # epoch 0's stream at seed 0 the first two batches draw, and the
        # third finds no two-class batch in its 10 draws. The chunk holding
        # all three is drawn before any of them trains, so the error reaches
        # the caller with nothing trained
        n_a = 20
        ids = np.repeat(np.arange(n_a + 1), 2)
        ds = Table(
            np.random.default_rng(0).normal(size=(len(ids), 4)),
            ids,
            np.tile([0, 1], n_a + 1),
            ["train"] * len(ids),
            {"pose": (ids == n_a).astype(int)},
            {"pose": ["A", "B"]},
        )
        cfg = tiny_cfg(p=2, k=2, lam_db=0.05, epochs=1, hidden=(4,), d_emb=3, seed=0)
        message = "^no batch with >= 2 'pose' classes after 10 draws$"
        replay = Trainer(ds, cfg)
        sampler = replay.sampler_for_epoch(0)
        replay.draw_batch(sampler)
        replay.draw_batch(sampler)
        with pytest.raises(BatchCompositionError, match=message):
            replay.draw_batch(sampler)
        t = Trainer(ds, cfg)
        before = t.params.flat.copy()
        with pytest.raises(BatchCompositionError, match=message):
            t.run()
        assert t.adam.step == 0 and t.epoch == 0 and not t.log.epochs
        assert np.array_equal(t.params.flat, before)


class TestChunks:
    # a tiny batch has 8 rows of 8 features: 64 cells, so a budget of 1 cell
    # draws one batch a chunk and 192 cells three, which splits an epoch's 4
    @pytest.mark.parametrize("cells", [1, 192])
    def test_chunk_size_changes_no_bit(self, tiny_ds, monkeypatch, cells):
        cfg = tiny_cfg(epochs=3, lam_db=0.05)
        assert Trainer(tiny_ds, cfg).batches_per_epoch == 4
        whole, whole_log = train_branch(tiny_ds, cfg)
        monkeypatch.setattr(trainer_module, "_CHUNK_CELLS", cells)
        chunked, chunked_log = train_branch(tiny_ds, cfg)
        assert np.array_equal(chunked.flat.view(np.uint64), whole.flat.view(np.uint64))
        assert chunked_log.to_csv() == whole_log.to_csv()

    def test_chunk_equals_its_batches_drawn_one_at_a_time(self, tiny_ds):
        t = Trainer(tiny_ds, tiny_cfg(lam_db=0.05))
        rows, labels = t.draw_chunk(t.sampler_for_epoch(2), 4)
        sampler = t.sampler_for_epoch(2)
        for b in range(4):
            one_rows, one_labels = t.draw_chunk(sampler, 1)
            assert np.array_equal(rows[b], one_rows[0])
            for name, value in vars(labels[b]).items():
                assert np.array_equal(value, getattr(one_labels[0], name)), name
