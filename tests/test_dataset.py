import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasreid.dataset import (
    ChannelSpec,
    GeneratorConfig,
    PKSampler,
    Table,
    generate_synthetic,
    load_dataset,
    parse_channel_spec,
    save_dataset,
    split_query_gallery,
)
from biasreid.errors import AlignmentError, ConfigError, DataError, EvaluationError, ParseError


def tiny_cfg(**kw):
    base = dict(
        n_ids=6,
        samples_per_id=4,
        d_id=4,
        d_in=8,
        sigma=0.1,
        channels=(ChannelSpec("pose", 3, 3, 1.0), ChannelSpec("cam", 2, 3, 1.0)),
        feature_scale=1.0,
    )
    base.update(kw)
    return GeneratorConfig(**base)


def pk_sample(ds, p, k, rng):
    """One-shot draw; PKSampler directly when epoch cycling matters."""
    return PKSampler(ds, p, k, rng).draw()


def cam_table(matrix, ids, cams):
    """All-train table whose only bias channel is the camera."""
    return Table(matrix, ids, cams, ["train"] * len(ids), {"cam": cams}, {"cam": ["0", "1"]})


class TestGenerator:
    def test_noise_free_bias_free_same_identity_identical(self):
        cfg = tiny_cfg(
            sigma=0.0,
            channels=(ChannelSpec("pose", 3, 3, 0.0), ChannelSpec("cam", 2, 3, 0.0)),
        )
        ds = generate_synthetic(cfg, seed=0)
        for ident in np.unique(ds.ids):
            feats = ds.matrix[ds.ids == ident]
            for f in feats[1:]:
                np.testing.assert_array_equal(f, feats[0])

    def test_strong_pose_gain_dominates_neighbourhoods(self):
        cfg = GeneratorConfig(
            n_ids=20,
            samples_per_id=6,
            d_id=4,
            d_in=16,
            sigma=0.0,
            channels=(ChannelSpec("pose", 3, 6, 8.0), ChannelSpec("cam", 2, 3, 0.0)),
            feature_scale=1.0,
        )
        ds = generate_synthetic(cfg, seed=1)
        x = ds.matrix
        pose = ds.codes["pose"]
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        nn = d2.argmin(axis=1)
        same = np.mean(pose[nn] == pose)
        assert same > 0.6  # chance would be ~1/3

    def test_same_seed_identical(self, tmp_path):
        cfg = tiny_cfg()
        save_dataset(generate_synthetic(cfg, seed=3), tmp_path / "a.csv")
        save_dataset(generate_synthetic(cfg, seed=3), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        cfg = tiny_cfg()
        save_dataset(generate_synthetic(cfg, seed=3), tmp_path / "a.csv")
        save_dataset(generate_synthetic(cfg, seed=4), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_degenerate_config_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(tiny_cfg(n_ids=1), seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(tiny_cfg(samples_per_id=1), seed=0)

    def test_camera_channel_required(self):
        with pytest.raises(ConfigError):
            generate_synthetic(tiny_cfg(channels=(ChannelSpec("pose", 3, 3, 1.0),)), seed=0)

    def test_camera_channel_sets_protocol_camera(self):
        ds = generate_synthetic(tiny_cfg(), seed=0)
        cam_names = np.array(ds.channels["cam"])[ds.codes["cam"]]
        np.testing.assert_array_equal(ds.cameras, cam_names.astype(int))

    def test_class_frequencies_near_uniform(self):
        cfg = GeneratorConfig(
            n_ids=150,
            samples_per_id=8,
            d_in=32,
            sigma=0.1,
            channels=(ChannelSpec("pose", 3, 8, 1.0), ChannelSpec("cam", 2, 8, 1.0)),
            feature_scale=1.0,
        )
        ds = generate_synthetic(cfg, seed=5)
        assert len(ds) >= 1000
        for channel, classes in ds.channels.items():
            for code in range(len(classes)):
                freq = np.mean(ds.codes[channel] == code)
                assert abs(freq - 1.0 / len(classes)) < 0.05

    def test_parse_channel_spec(self):
        specs = parse_channel_spec("pose:3:8:1.0, cam:2:4:0.5")
        assert specs == (ChannelSpec("pose", 3, 8, 1.0), ChannelSpec("cam", 2, 4, 0.5))
        with pytest.raises(ConfigError):
            parse_channel_spec("pose:3:8")


class TestTable:
    def test_misaligned_or_unknown_columns_rejected(self):
        good = dict(
            matrix=np.zeros((2, 1)), ids=[0, 1], cameras=[0, 1], splits=["train", "query"],
            codes={"cam": [0, 1]}, channels={"cam": ["0", "1"]},
        )
        assert len(Table(**good)) == 2
        for bad, error in (
            ({"ids": [0]}, AlignmentError),
            ({"codes": {"cam": [0, 2]}}, DataError),
            ({"codes": {}}, DataError),
            ({"splits": ["train", "test"]}, DataError),
            ({"provenance": [("a", (0, 2))]}, AlignmentError),
        ):
            with pytest.raises(error):
                Table(**dict(good, **bad))


class TestCsvRoundTrip:
    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "id,camera,split,pose,cam,f0,f1\n"
            "0,0,train,frontal,0,1.5,-2\n"
            "0,1,train,side,1,0.25,3\n"
            "7,0,query,frontal,0,0,0\n"
        )
        ds = load_dataset(path)
        assert list(ds.channels) == ["pose", "cam"]
        assert ds.channels["pose"] == ["frontal", "side"]
        assert len(ds) == 3
        assert ds.ids[2] == 7 and ds.splits[2] == "query"
        np.testing.assert_array_equal(ds.codes["pose"], [0, 1, 0])
        np.testing.assert_array_equal(ds.matrix[0], [1.5, -2.0])

    def test_header_only_is_valid_empty(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,camera,split,pose,f0\n")
        ds = load_dataset(path)
        assert len(ds) == 0

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,camera,split,pose,f0,f1\n0,0,train,a,1.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_dataset(path)

    def test_bad_feature_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,camera,split,pose,f0,f1\n0,0,train,a,1.0,oops\n")
        with pytest.raises(ParseError, match="row 2.*f1"):
            load_dataset(path)

    def test_repeated_column_rejected(self, tmp_path):
        # a repeated channel column would keep only its last copy
        path = tmp_path / "d.csv"
        path.write_text("id,camera,split,pose,pose,f0\n0,0,train,a,b,1.0\n")
        with pytest.raises(ParseError, match="repeats column 'pose'"):
            load_dataset(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,camera,split,pose,f0\n0,0,test,a,1.0\n")
        with pytest.raises(ParseError, match="split"):
            load_dataset(path)

    def test_round_trip_exact(self, tmp_path):
        ds = generate_synthetic(tiny_cfg(), seed=9)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert len(back) == len(ds)
        for name in ("matrix", "ids", "cameras", "splits"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
        assert back.channels == ds.channels
        for ch in ds.channels:
            np.testing.assert_array_equal(back.codes[ch], ds.codes[ch])
        # and a second save is byte-identical
        save_dataset(back, tmp_path / "d2.csv")
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()


class TestPKSampler:
    def test_shape(self):
        ds = generate_synthetic(tiny_cfg(n_ids=4), seed=0)
        batch = pk_sample(ds, p=2, k=2, rng=np.random.default_rng(0))
        assert len(batch.indices) == 4
        assert len(np.unique(batch.ids)) == 2
        for ident in np.unique(batch.ids):
            assert np.sum(batch.ids == ident) == 2

    def test_single_sample_identity_sampled_with_replacement(self):
        ds = cam_table([np.zeros(2), np.ones(2), np.ones(2) * 2], [0, 1, 1], [0, 0, 1])
        batch = pk_sample(ds, p=2, k=4, rng=np.random.default_rng(0))
        assert np.sum(batch.ids == 0) == 4
        assert len(np.unique(batch.indices[batch.ids == 0])) == 1

    def test_epoch_cycling(self):
        ds = generate_synthetic(tiny_cfg(n_ids=16, samples_per_id=4), seed=0)
        sampler = PKSampler(ds, p=4, k=2, rng=np.random.default_rng(1))
        seen = []
        for _ in range(4):  # one full epoch: 16 identities / P=4
            seen.extend(sampler.draw().ids)
        first_epoch_ids = set(int(i) for i in seen)
        assert first_epoch_ids == set(range(16))
        counts = {i: 0 for i in range(16)}
        for i in seen:
            counts[int(i)] += 1
        assert all(c == 2 for c in counts.values())  # K=2 instances each, no id repeated

    def test_too_few_identities(self):
        ds = generate_synthetic(tiny_cfg(n_ids=3), seed=0)
        with pytest.raises(ConfigError):
            pk_sample(ds, p=4, k=2, rng=np.random.default_rng(0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(2, 5), k=st.integers(2, 4))
    def test_batch_invariants_property(self, seed, p, k):
        ds = generate_synthetic(tiny_cfg(n_ids=6, samples_per_id=3), seed=11)
        sampler = PKSampler(ds, p=p, k=k, rng=np.random.default_rng(seed))
        for _ in range(5):
            b = sampler.draw()
            assert len(b.indices) == p * k
            ids, counts = np.unique(b.ids, return_counts=True)
            assert len(ids) == p and (counts == k).all()


class TestSplitQueryGallery:
    def test_cross_camera_everywhere_no_drops(self):
        cfg = tiny_cfg(n_ids=10, samples_per_id=8)
        ds = generate_synthetic(cfg, seed=2)
        out = split_query_gallery(ds, fraction=0.5, rng=np.random.default_rng(0))
        assert out.meta["dropped_queries"] == 0
        q_idx = np.flatnonzero(out.splits == "query")
        assert len(q_idx) > 0
        g_ids = out.ids[out.splits == "gallery"]
        g_cams = out.cameras[out.splits == "gallery"]
        for qi in q_idx:
            assert np.any((g_ids == out.ids[qi]) & (g_cams != out.cameras[qi]))

    def test_single_camera_identity_drops_all_queries(self):
        feats, ids, cams = [], [], []
        for ident in range(4):
            for j in range(4):
                feats.append(np.full(2, ident + 0.1 * j))
                ids.append(ident)
                cams.append(0 if ident == 0 else j % 2)
        ds = cam_table(feats, ids, cams)
        rng = np.random.default_rng(0)
        out = split_query_gallery(ds, fraction=1.0, rng=rng)
        # identity 0 only ever on camera 0: its candidate query must be demoted
        assert out.meta["dropped_queries"] >= 1
        assert (out.splits[out.ids == 0] == "gallery").all()

    def test_train_and_eval_identities_disjoint(self):
        ds = generate_synthetic(tiny_cfg(n_ids=10), seed=4)
        out = split_query_gallery(ds, fraction=0.4, rng=np.random.default_rng(1))
        train_ids = set(out.ids[out.splits == "train"].tolist())
        eval_ids = set(out.ids[out.splits != "train"].tolist())
        assert train_ids.isdisjoint(eval_ids)
        assert len(eval_ids) == 4

    def test_fraction_zero_errors(self):
        ds = generate_synthetic(tiny_cfg(), seed=0)
        with pytest.raises(EvaluationError):
            split_query_gallery(ds, fraction=0.0, rng=np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        ds = generate_synthetic(tiny_cfg(), seed=0)
        a = split_query_gallery(ds, 0.5, np.random.default_rng(7))
        b = split_query_gallery(ds, 0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(a.splits, b.splits)
