import hashlib
from dataclasses import replace

import numpy as np
import pytest

from biasreid.dataset import (
    ChannelSpec,
    GeneratorConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_query_gallery,
)
from biasreid.embedder import concat, embed_all, save_embeddings
from biasreid.errors import AlignmentError
from biasreid.losses import pairwise_sqdist
from biasreid.numerics import EncoderParams, encode, init_encoder


@pytest.fixture(scope="module")
def ds():
    cfg = GeneratorConfig(
        n_ids=5,
        samples_per_id=4,
        d_id=3,
        d_in=6,
        sigma=0.1,
        channels=(ChannelSpec("pose", 2, 3, 1.0), ChannelSpec("cam", 2, 3, 1.0)),
        feature_scale=1.0,
    )
    return generate_synthetic(cfg, seed=0)


def identity_encoder(d):
    return EncoderParams([np.eye(d)], [np.zeros(d)])


class TestEmbedAll:
    def test_identity_encoder_returns_features(self, ds):
        es = embed_all(identity_encoder(ds.dim), ds)
        np.testing.assert_array_equal(es.matrix, ds.matrix)
        np.testing.assert_array_equal(es.ids, ds.ids)

    def test_empty_filter_keeps_dimension(self, ds):
        params = init_encoder(ds.dim, (4,), 3, np.random.default_rng(0))
        es = embed_all(params, ds.rows(ds.splits == "query"))  # generator emits train only
        assert es.matrix.shape == (0, 3)
        assert es.dim == 3

    def test_matches_row_by_row_encoding(self, ds):
        params = init_encoder(ds.dim, (5, 4), 3, np.random.default_rng(1))
        es = embed_all(params, ds)
        for i, features in enumerate(ds.matrix):
            row, _ = encode(params, features[None, :])
            np.testing.assert_allclose(es.matrix[i], row[0], atol=1e-12)

    def test_bias_labels_never_influence_embeddings(self, ds):
        params = init_encoder(ds.dim, (5,), 3, np.random.default_rng(2))
        scrambled = replace(
            ds,
            codes={ch: np.zeros(len(ds), dtype=int) for ch in ds.channels},
            channels={ch: ["weird"] for ch in ds.channels},
        )
        a = embed_all(params, ds)
        b = embed_all(params, scrambled)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_row_order_follows_dataset_order(self, ds):
        es = embed_all(identity_encoder(ds.dim), ds.rows(ds.splits == "train"))
        np.testing.assert_array_equal(es.ids, ds.ids[ds.splits == "train"])


class TestConcat:
    def two_sets(self, ds, dims=(2, 3)):
        rng = np.random.default_rng(3)
        sets = []
        for d in dims:
            params = init_encoder(ds.dim, (4,), d, rng)
            sets.append(embed_all(params, ds))
        return sets

    def test_single_column_concat(self, ds):
        n = len(ds)
        base = embed_all(identity_encoder(ds.dim), ds)
        a = replace(base, matrix=np.ones((n, 1)))
        b = replace(base, matrix=np.full((n, 1), 2.0))
        joined = concat([a, b])
        np.testing.assert_array_equal(joined.matrix, np.tile([1.0, 2.0], (n, 1)))
        np.testing.assert_array_equal(joined.ids, ds.ids)

    def test_concat_of_one_is_unchanged(self, ds):
        (a, _) = self.two_sets(ds)
        joined = concat([a])
        np.testing.assert_array_equal(joined.matrix, a.matrix)
        assert joined.channels == a.channels

    def test_pythagorean_distance_identity(self, ds):
        a, b = self.two_sets(ds)
        joined = concat([a, b])
        np.testing.assert_allclose(
            pairwise_sqdist(joined.matrix),
            pairwise_sqdist(a.matrix) + pairwise_sqdist(b.matrix),
            atol=1e-9,
        )

    def test_four_branch_concat(self, ds):
        sets = self.two_sets(ds) + self.two_sets(ds)
        joined = concat(sets)
        assert joined.dim == 10
        np.testing.assert_array_equal(joined.matrix, np.hstack([s.matrix for s in sets]))

    @pytest.mark.parametrize("change", ["shuffled_rows", "pose_codes_shifted", "pose_classes_renamed"])
    def test_misaligned_sets_rejected(self, ds, change):
        a, b = self.two_sets(ds)
        if change == "shuffled_rows":
            b = b.rows(np.roll(np.arange(len(b)), 1))
        elif change == "pose_codes_shifted":
            b = replace(b, codes=dict(b.codes, pose=(b.codes["pose"] + 1) % len(b.channels["pose"])))
        else:
            b = replace(b, channels=dict(b.channels, pose=[f"{c}_" for c in b.channels["pose"]]))
        with pytest.raises(AlignmentError):
            concat([a, b])


class TestEmbeddingCsv:
    def test_round_trip(self, ds, tmp_path):
        params = init_encoder(ds.dim, (4,), 3, np.random.default_rng(4))
        es = embed_all(params, ds)
        path = tmp_path / "emb.csv"
        save_embeddings(es, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.matrix, es.matrix)
        np.testing.assert_array_equal(back.ids, es.ids)
        assert back.codes.keys() == es.codes.keys()

    def test_ingest_external_descriptors(self, ds, tmp_path):
        path = tmp_path / "features.csv"
        _, sidecar = save_dataset(ds, path)
        sidecar.unlink()  # another program writes no sidecar: the CSV is parsed
        es = load_dataset(path)
        np.testing.assert_array_equal(es.matrix, ds.matrix)
        assert es.channels == ds.channels


class TestGoldenBytes:
    """sha256 of both CSV formats, pinned before the columnar table replaced
    the per-sample records; any change to the bytes written fails here."""

    @pytest.fixture(scope="class")
    def split_ds(self):
        cfg = GeneratorConfig(
            n_ids=10,
            samples_per_id=6,
            d_id=4,
            d_in=8,
            sigma=0.1,
            channels=(ChannelSpec("pose", 3, 3, 1.0), ChannelSpec("cam", 2, 3, 1.0)),
            feature_scale=1.0,
        )
        return split_query_gallery(generate_synthetic(cfg, seed=9), 0.5, np.random.default_rng(0))

    def test_dataset_csv(self, split_ds, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(split_ds, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "5df848fe127cadee2e59923d88e331602e27a3407a989d3ef1fb204e684ee4ab"

    def test_embeddings_csv(self, split_ds, tmp_path):
        path = tmp_path / "emb.csv"
        save_embeddings(embed_all(identity_encoder(split_ds.dim), split_ds), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "a599dd6754c755f5c36ecc7e62dab1245cded061445b4759af2aa7fd88883da3"
