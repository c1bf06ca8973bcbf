import csv
import io
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasreid import dataset
from biasreid.dataset import (
    ChannelSpec,
    GeneratorConfig,
    PKSampler,
    Table,
    generate_synthetic,
    load_dataset,
    make_dataset,
    parse_channel_spec,
    save_dataset,
    split_query_gallery,
)
from biasreid.embedder import save_embeddings
from biasreid.errors import AlignmentError, ConfigError, DataError, EvaluationError, ParseError
from biasreid.presets import PRESETS


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

    def test_overflowing_features_rejected(self):
        # an inf feature would be written, and every later load would refuse it
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape as an exception
            with pytest.raises(DataError, match="overflow"):
                generate_synthetic(tiny_cfg(feature_scale=1e308), seed=0)

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

    def test_header_without_features_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,camera,split,pose\n0,0,train,a\n1,1,query,a\n")
        with pytest.raises(ParseError, match="no feature column"):
            load_dataset(path)

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
        with pytest.raises(ParseError, match="column split: unknown tag 'test'"):
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



def row_writer_oracle(ds, path, feature_prefix="f"):
    """The row-by-row csv.writer loop the block writer replaced, kept as the
    oracle of its bytes."""
    chan_names = list(ds.channels)
    labels = [np.array(ds.channels[c], dtype=object)[ds.codes[c]].tolist() for c in chan_names]
    heads = zip(ds.ids.tolist(), ds.cameras.tolist(), ds.splits.tolist(), *labels)
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["id", "camera", "split", *chan_names, *(f"{feature_prefix}{j}" for j in range(ds.dim))]
        )
        for head, feats in zip(heads, ds.matrix):
            writer.writerow([*head, *(f"{v:.17g}" for v in feats.tolist())])


def named_table(name, matrix=None):
    """Five rows whose `pose` classes are `name` and 'x', and whose second
    channel is called `name`."""
    if matrix is None:
        matrix = np.random.default_rng(3).normal(size=(5, 3))
    cams = [0, 1, 0, 1, 0]
    return Table(
        matrix, [-(2**63), 4, 4, 9, 2**63 - 1], cams,
        ["train", "query", "gallery", "gallery", "train"],
        {"pose": [0, 1, 0, 0, 1], name: cams},
        {"pose": [name, "x"], name: ["0", "1"]},
    )


def parse_only(monkeypatch):
    """Make load_dataset parse every CSV, whatever sidecar lies beside it."""
    monkeypatch.setattr(dataset, "_sidecar_table", lambda path: None)


def assert_same_bits(a, b):
    assert a.matrix.shape == b.matrix.shape
    np.testing.assert_array_equal(a.matrix.view(np.uint64), b.matrix.view(np.uint64))
    for name in ("ids", "cameras", "splits"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == getattr(b, name).dtype
    assert a.channels == b.channels
    for ch in a.channels:
        np.testing.assert_array_equal(a.codes[ch], b.codes[ch])


class TestCsvBlocks:
    """The block writer against the row writer, and the streamed parse."""

    @pytest.mark.parametrize("name", ["", "a,b", 'say "hi"', "two\nlines", "é", " lead"])
    @pytest.mark.parametrize("block", [dataset._CSV_BLOCK, 20])
    def test_save_matches_row_writer(self, name, block, monkeypatch, tmp_path):
        monkeypatch.setattr(dataset, "_CSV_BLOCK", block)  # 20 cells: 2 rows a block
        values = [0.0, -0.0, 5e-324, 1e16, 1 / 3, -1e300, 2.0**-1074 * 3, 123456789012345678.0]
        matrix = np.array(values + [np.nan, np.inf, -np.inf, 1e-5, 7.0, -2.5, 0.1]).reshape(5, 3)
        for ds in (named_table(name, matrix), named_table(name)):
            save_dataset(ds, tmp_path / "block.csv", feature_prefix="e")
            row_writer_oracle(ds, tmp_path / "rows.csv", feature_prefix="e")
            assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        back = load_dataset(tmp_path / "block.csv")  # the finite table, classes now sorted
        assert sorted(back.channels["pose"]) == back.channels["pose"] == sorted([name, "x"])
        np.testing.assert_array_equal(back.matrix, ds.matrix)

    def test_csv_writer_cannot_quote_a_cell_alone(self):
        # why the block writer quotes cells by its own rule
        def written(row, lineterminator="\n"):
            buf = io.StringIO()
            csv.writer(buf, lineterminator=lineterminator).writerow(row)
            return buf.getvalue()

        # trap 1: a lone empty field is `""`, an empty field amid a row is nothing
        assert written([""]) == '""\n' and written(["a", "", "b"]) == "a,,b\n"
        # trap 2: "\n" is quoted only when the lineterminator holds it
        assert written(["a", "x\ny"]) == 'a,"x\ny"\n'
        assert written(["a", "x\ny"], lineterminator="\r") == "a,x\ny\r"
        assert [dataset._csv_cell(c) for c in ["", "x\ny", "c\rr"]] == ["", '"x\ny"', '"c\rr"']

    def test_carriage_return_in_names_round_trips(self, monkeypatch, tmp_path):
        # csv.writer left a bare CR, which split the row on reading
        parse_only(monkeypatch)
        ds = named_table("cr\rx")
        save_dataset(ds, tmp_path / "cr.csv")
        assert_same_bits(load_dataset(tmp_path / "cr.csv"), ds)

    def test_trailing_nul_names_stay_apart(self, monkeypatch, tmp_path):
        # np.unique over a str array strips trailing NULs: it merged these into 'a'
        names = ["a", "a\x00", "a\x00\x00", 'q"']  # and a quoted name amid them
        n = 2 * len(names)
        ds = Table(np.zeros((n, 1)), np.arange(n), np.zeros(n, int), ["train"] * n,
                   {"pose": np.arange(n) % len(names)}, {"pose": names})
        parse_only(monkeypatch)
        save_dataset(ds, tmp_path / "d.csv")
        assert_same_bits(load_dataset(tmp_path / "d.csv"), ds)

    def test_generated_files_read_by_blocks_as_by_scan(self, monkeypatch, tmp_path):
        # and as from the sidecar
        for preset in PRESETS.values():
            ds = make_dataset(preset.generator, seed=1)
            save_dataset(ds, tmp_path / "d.csv")
            sidecar = load_dataset(tmp_path / "d.csv")
            assert_same_bits(sidecar, ds)
            with monkeypatch.context() as m:
                parse_only(m)
                assert_same_bits(sidecar, load_dataset(tmp_path / "d.csv"))

    HEADER = "id,camera,split,pose,f0,f1\n"
    BODY = ["0,0,train,a,1.5,-2\n", "+7, 8 ,query,b,.5,1_0.5\n", "1_0,1,gallery,a, -0 ,1e-320\n"]
    # BODY as parsed: id, camera, split, pose code, f0, f1
    PARSED = [(0, 0, "train", 0, 1.5, -2.0), (7, 8, "query", 1, 0.5, 10.5),
              (10, 1, "gallery", 0, -0.0, 1e-320)]

    @pytest.mark.parametrize(
        "text,rows,classes",
        [
            (HEADER + "".join(BODY).rstrip("\n"), PARSED, ["a", "b"]),  # no final newline
            (HEADER, [], []),
            (HEADER.rstrip("\n"), [], []),  # header only, no newline
            ("".join([HEADER, *BODY]).replace("\n", "\r\n"), PARSED, ["a", "b"]),
            (HEADER + "".join(BODY).replace(",a,", ',"a",').replace(",b,", ',"b, c",'), PARSED,
             ["a", "b, c"]),
            (HEADER + "".join(BODY * 4) + '3,0,train,"a",0,0\n',  # a quote in the last row
             PARSED * 4 + [(3, 0, "train", 0, 0.0, 0.0)], ["a", "b"]),
        ],
        ids=["no_final_newline", "header_only", "header_no_newline", "crlf", "quoted_labels",
             "late_quote"],
    )
    def test_edge_files_read_as_by_scan(self, text, rows, classes, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        ids, cams, splits, codes, *features = zip(*rows) if rows else [[]] * 6
        expected = Table(np.array(features).T.reshape(len(rows), 2), ids, cams, splits,
                         {"pose": codes}, {"pose": classes})
        assert_same_bits(load_dataset(path), expected)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("5,0,train,a,1.0\n", "row 6: 5 fields, header has 6"),
            ("x,0,train,a,1.0,2\n", "row 6, column id: not an integer: 'x'"),
            ("5,99999999999999999999,train,a,1.0,2\n", "row 6, column camera: '99999999999999999999' does not fit in int64"),
            ("5,0,test,a,1.0,2\n", "row 6, column split: unknown tag 'test'"),
            ("5,0,train,a,1.0,oops\n", "row 6, column f1: not a number: 'oops'"),
            ("5,0,train,a,1.0,inf\n", "row 6: non-finite feature value"),
            ("\n", "row 6: 0 fields, header has 6"),
            # 5 fields then 7: the right count of cells, each column parses
            ("5,0,train,a,1.0\n1.0,5,0,train,a,1.0,2\n", "row 6: 5 fields, header has 6"),
        ],
    )
    def test_bad_row_in_a_later_block_keeps_the_scan_message(self, row, message, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(self.HEADER + "".join(self.BODY) + "9,1,train,b,0,0\n" + row + self.BODY[0])
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: {message}"

    def test_non_utf8_text_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"id,camera,split,f0\n0,0,tr\xe9in,1.0\n")
        with pytest.raises(ParseError, match=r"d\.csv: not UTF-8 text"):
            load_dataset(path)

    def test_oversized_field_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"id,camera,split,pose,f0\n0,0,train,{'a' * (csv.field_size_limit() + 1)},1\n")
        with pytest.raises(ParseError, match="field larger than field limit"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "fault,message",
        [(b"tr\xe9in", "not UTF-8 text"),
         (b"a" * (csv.field_size_limit() + 1), "field larger than field limit")],
        ids=["non_utf8", "oversized_field"],
    )
    def test_unreadable_text_is_reported_before_an_earlier_bad_row(self, fault, message,
                                                                   tmp_path):
        # a fault in the file's text outranks a bad row before it; this one lies
        # well past the first chunk of text the reader decodes
        path = tmp_path / "d.csv"
        body = b"0,0,train,1.0\n" * 2000
        path.write_bytes(b"id,camera,split,f0\n0,0,test,1.0\n" + body + b"0,0," + fault + b",1\n")
        with pytest.raises(ParseError, match=message):
            load_dataset(path)

    def test_parse_memory_stays_near_the_matrix(self, monkeypatch, tmp_path):
        # a quoted cell must not make the parse hold every row as strings
        parse_only(monkeypatch)
        n = 2000
        for name in ("a", "a,b"):
            ds = Table(np.random.default_rng(0).normal(size=(n, 16)), np.arange(n) // 4,
                       np.arange(n) % 2, ["train"] * n, {"pose": np.arange(n) % 2},
                       {"pose": [name, "x"]})
            save_dataset(ds, tmp_path / "d.csv")
            tracemalloc.start()
            try:
                back = load_dataset(tmp_path / "d.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert_same_bits(back, ds)
            assert peak < 5 * ds.matrix.nbytes, f"{name!r}: peak {peak / ds.matrix.nbytes:.1f}x"


def sidecar_tables():
    """Tables whose sidecar must hold exactly what a parse of their CSV returns."""
    rng = np.random.default_rng(5)
    unused = Table(rng.normal(size=(4, 2)), [0, 0, 1, 1], [0, 1, 0, 1], ["train"] * 4,
                   {"pose": [2, 0, 2, 0]}, {"pose": ["c", "b", "a"]})  # 'b' in no row
    twelve = Table(rng.normal(size=(24, 3)), np.arange(24) // 2, np.arange(24) % 2,
                   ["train"] * 24, {"pose": np.arange(24) % 12},
                   {"pose": [str(k) for k in range(12)]})  # '10' sorts before '2'
    odd_names = Table(rng.normal(size=(5, 1)), np.arange(5), np.zeros(5, int), ["gallery"] * 5,
                      {"pose": np.arange(5), "a,\"b\"\r": np.zeros(5, int)},
                      {"pose": ["x,y", 'q"', "cr\rx", "a\x00", "a"], "a,\"b\"\r": ["\x00"]})
    empty = Table(np.empty((0, 3)), [], [], [], {"pose": [], "cam": []},
                  {"pose": ["a", "b"], "cam": ["0", "1"]})
    values = [0.0, -0.0, 5e-324, -2.0**-1074 * 7, 2.2250738585072014e-308, 1 / 3]
    bits = named_table("b", np.array(values * 2 + [1e300, -1e-300, 7.0]).reshape(5, 3))
    return {"unused_class": unused, "twelve_classes": twelve, "odd_names": odd_names,
            "header_only": empty, "signed_zero_subnormal": bits,
            "embeddings": make_dataset(tiny_cfg(), seed=4)}


class TestSidecar:
    """`<csv>.npz`: the table a parse returns, bound to the CSV's bytes."""

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "d.csv"
        assert save_dataset(generate_synthetic(tiny_cfg(), seed=3), path) == [
            path, tmp_path / "d.csv.npz"]
        return path

    @staticmethod
    def parse(path, monkeypatch):
        with monkeypatch.context() as m:
            parse_only(m)
            return load_dataset(path)

    @staticmethod
    def no_parse(monkeypatch):
        def fail(*args):
            raise AssertionError("parsed the CSV")
        monkeypatch.setattr(dataset, "_scan", fail)

    @pytest.mark.parametrize("name", list(sidecar_tables()))
    def test_holds_what_a_parse_returns(self, name, monkeypatch, tmp_path):
        ds = sidecar_tables()[name]
        path = tmp_path / "t.csv"
        (save_embeddings if name == "embeddings" else save_dataset)(ds, path)
        parsed = self.parse(path, monkeypatch)
        self.no_parse(monkeypatch)
        loaded = load_dataset(path)
        assert_same_bits(loaded, parsed)
        assert list(loaded.channels) == list(parsed.channels) == list(ds.channels)
        assert loaded.meta == parsed.meta == {}
        for ch in loaded.channels:
            assert loaded.codes[ch].dtype == parsed.codes[ch].dtype

    def test_parse_names_only_the_classes_rows_use(self, monkeypatch, tmp_path):
        tables = sidecar_tables()
        self.no_parse(monkeypatch)
        for name in ("unused_class", "twelve_classes", "header_only"):
            save_dataset(tables[name], tmp_path / "t.csv")
            back = load_dataset(tmp_path / "t.csv")
            names = tables[name].channels["pose"]
            used = sorted({names[k] for k in tables[name].codes["pose"].tolist()})
            assert back.channels["pose"] == used
            np.testing.assert_array_equal(
                np.array(back.channels["pose"], dtype=object)[back.codes["pose"]],
                np.array(names, dtype=object)[tables[name].codes["pose"]])
        assert back.channels == {"pose": [], "cam": []}  # the header-only table

    def test_one_digit_edit_loads_the_edited_value(self, saved, monkeypatch):
        text = saved.read_text()
        end = text.index("\n", text.index("\n") + 1)  # the end of the first row
        digit = str((int(text[end - 1]) + 1) % 10)
        saved.write_text(text[: end - 1] + digit + text[end:])
        edited = float(text[:end].rsplit(",", 1)[1][:-1] + digit)
        back = load_dataset(saved)
        assert back.matrix[0, -1] == edited
        assert_same_bits(back, self.parse(saved, monkeypatch))

    def test_malformed_edit_raises_the_parse_error(self, saved):
        lines = saved.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + ",oops\n"
        saved.write_text("".join(lines))
        with pytest.raises(ParseError) as info:
            load_dataset(saved)
        assert str(info.value) == f"{saved}: row 4, column f7: not a number: 'oops'"

    def test_sidecar_of_another_csv_ignored(self, saved, monkeypatch, tmp_path):
        other = tmp_path / "other.csv"
        save_dataset(generate_synthetic(tiny_cfg(), seed=4), other)
        Path(f"{other}.npz").replace(f"{saved}.npz")
        assert_same_bits(load_dataset(saved), self.parse(saved, monkeypatch))

    @pytest.mark.parametrize("keep", [0, 10, 0.5, -1])
    def test_truncated_sidecar_ignored(self, keep, saved, monkeypatch):
        sidecar = Path(f"{saved}.npz")
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[: int(keep * len(blob)) if isinstance(keep, float) else keep])
        assert_same_bits(load_dataset(saved), self.parse(saved, monkeypatch))

    def test_missing_csv_raises_with_its_sidecar_present(self, saved):
        saved.unlink()
        with pytest.raises(ParseError, match=r"cannot read .*d\.csv"):
            load_dataset(saved)

    @pytest.mark.parametrize(
        "table,message",
        [
            (named_table("e3"), "feature columns must be f0..fN in order, got 'e3'"),
            (named_table("id"), "header repeats column 'id'"),
            (named_table("b", np.full((5, 3), np.inf)), "row 2: non-finite feature value"),
        ],
        ids=["channel_named_e3", "channel_named_id", "non_finite"],
    )
    def test_table_a_parse_rejects_gets_no_sidecar(self, table, message, tmp_path):
        path = tmp_path / "d.csv"
        assert len(save_dataset(named_table("b"), path)) == 2
        assert save_dataset(table, path) == [path]
        assert not Path(f"{path}.npz").exists()  # the earlier save's sidecar is gone
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dataset(path)

    def test_name_past_the_field_limit_gets_no_sidecar(self, tmp_path):
        path = tmp_path / "d.csv"
        limit = csv.field_size_limit(50)
        try:
            assert save_dataset(named_table("n" * 51), path) == [path]
            with pytest.raises(ParseError, match="field larger than field limit"):
                load_dataset(path)
        finally:
            csv.field_size_limit(limit)


class TestPKSampler:
    def test_shape(self):
        ds = generate_synthetic(tiny_cfg(n_ids=4), seed=0)
        idx = pk_sample(ds, p=2, k=2, rng=np.random.default_rng(0))
        ids = ds.ids[idx]
        assert len(idx) == 4
        assert len(np.unique(ids)) == 2
        for ident in np.unique(ids):
            assert np.sum(ids == ident) == 2

    def test_single_sample_identity_sampled_with_replacement(self):
        ds = cam_table([np.zeros(2), np.ones(2), np.ones(2) * 2], [0, 1, 1], [0, 0, 1])
        idx = pk_sample(ds, p=2, k=4, rng=np.random.default_rng(0))
        ids = ds.ids[idx]
        assert np.sum(ids == 0) == 4
        assert len(np.unique(idx[ids == 0])) == 1

    def test_epoch_cycling(self):
        ds = generate_synthetic(tiny_cfg(n_ids=16, samples_per_id=4), seed=0)
        sampler = PKSampler(ds, p=4, k=2, rng=np.random.default_rng(1))
        seen = []
        for _ in range(4):  # one full epoch: 16 identities / P=4
            seen.extend(ds.ids[sampler.draw()])
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
            idx = sampler.draw()
            assert len(idx) == p * k
            ids, counts = np.unique(ds.ids[idx], return_counts=True)
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
