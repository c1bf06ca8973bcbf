import hashlib
import json
import os
import resource
import sys
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from test_trainer import meta_without, rewrite_checkpoint, saved_arrays

from biasreid.cli import build_parser, lambda_sweep, main, sweep_to_csv
from biasreid.dataset import (
    GEN_CONFIG_KEYS,
    ChannelSpec,
    GeneratorConfig,
    make_dataset,
    save_dataset,
)
from biasreid.embedder import embed_all
from biasreid.evaluation import PROBE_CONFIG_KEYS, ProbeConfig, evaluate_embeddings, fit_probe
from biasreid.presets import PRESETS
from biasreid.trainer import BRANCH_CONFIG_KEYS, BranchConfig, train_branch


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def small_gen_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "gen.cfg"
    path.write_text(
        "n_ids = 10\n"
        "samples_per_id = 6\n"
        "d_id = 6\n"
        "d_in = 8\n"
        "sigma = 0.1\n"
        "channels = pose:2:4:1.0,cam:2:4:0.5\n"
        "eval_fraction = 0.5\n"
        "feature_scale = 0.05\n"
    )
    return path


@pytest.fixture(scope="module")
def small_branch_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "branch.cfg"
    path.write_text(
        "bias_channel = pose\n"
        "p = 3\n"
        "k = 2\n"
        "epochs = 3\n"
        "rate = 0.005\n"
        "hidden = 8\n"
        "d_emb = 4\n"
        "margin_bias = 1.0\n"
    )
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, small_gen_cfg, small_branch_cfg):
    """gen -> train (reduce+enhance) -> embed -> eval, all through the CLI."""
    root = tmp_path_factory.mktemp("pipe")
    gen_dir = root / "gen"
    assert run(["gen", "--config", str(small_gen_cfg), "--out", str(gen_dir), "--seed", "7"]) == 0
    data = gen_dir / "dataset.csv"

    branch_dirs = {}
    for mode in ("reduce", "enhance"):
        out = root / f"train_{mode}"
        code = run([
            "train", "--data", str(data), "--config", str(small_branch_cfg),
            "--mode", mode, "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        branch_dirs[mode] = out

    emb_dir = root / "emb"
    code = run([
        "embed",
        str(branch_dirs["reduce"] / "checkpoint.npz"),
        str(branch_dirs["enhance"] / "checkpoint.npz"),
        "--data", str(data), "--out", str(emb_dir),
    ])
    assert code == 0

    eval_dir = root / "eval"
    code = run(["eval", "--data", str(emb_dir / "embeddings.csv"), "--out", str(eval_dir)])
    assert code == 0
    return root, data, emb_dir, eval_dir


class TestPipeline:
    def test_end_to_end_report_populated(self, pipeline):
        _, _, _, eval_dir = pipeline
        report = json.loads((eval_dir / "report.json").read_text())
        assert 0.0 <= report["rank1"] <= 1.0
        assert 0.0 <= report["map"] <= 1.0
        assert set(report["channels"]) == {"pose", "cam"}
        assert (eval_dir / "curves_pose.csv").exists()
        assert (eval_dir / "metrics.csv").exists()

    def test_every_command_writes_manifest(self, pipeline):
        root, _, emb_dir, eval_dir = pipeline
        for sub in ("gen", "train_reduce", "emb", "eval"):
            manifest = json.loads((root / sub / "manifest.json").read_text())
            assert manifest["toolkit_version"]
            for out_file in manifest["outputs"]:
                assert (root / sub / out_file.split("/")[-1]).exists()
        # gen and embed list each CSV's sidecar, bound to the CSV's bytes
        for sub, name in (("gen", "dataset.csv"), ("emb", "embeddings.csv")):
            manifest = json.loads((root / sub / "manifest.json").read_text())
            csv_path, sidecar = root / sub / name, root / sub / f"{name}.npz"
            assert manifest["outputs"] == [str(csv_path), str(sidecar)]
            with np.load(sidecar, allow_pickle=False) as npz:
                meta = json.loads(str(npz["meta_json"]))
            assert meta["csv_sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()

    def test_every_manifest_records_its_memory_and_host(self, pipeline, small_branch_cfg, tmp_path):
        root, data, emb_dir, _ = pipeline
        embeddings = str(emb_dir / "embeddings.csv")
        for cmd, argv in [("probe", ["--channel", "pose"]), ("stats", ["--channel", "pose"]),
                          ("sweep", ["--config", str(small_branch_cfg), "--lambdas", "0.05"])]:
            src = str(data) if cmd == "sweep" else embeddings
            assert run([cmd, "--data", src, *argv, "--out", str(tmp_path / cmd)]) == 0
        dirs = [root / sub for sub in ("gen", "train_reduce", "train_enhance", "emb", "eval")]
        for out in dirs + [tmp_path / cmd for cmd in ("probe", "stats", "sweep")]:
            manifest = json.loads((out / "manifest.json").read_text())
            assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
            assert manifest["numpy"] == np.__version__
            assert isinstance(manifest["cores"], int) and manifest["cores"] >= 1

    @staticmethod
    def gen_manifest(small_gen_cfg, out):
        assert run(["gen", "--config", str(small_gen_cfg), "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_manifest_counts_cores_without_an_affinity_call(self, small_gen_cfg, tmp_path,
                                                            monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS
        assert self.gen_manifest(small_gen_cfg, tmp_path)["cores"] == os.cpu_count()

    @pytest.mark.parametrize("platform, maxrss", [("darwin", 300 << 20), ("linux", 300 << 10)])
    def test_manifest_reads_maxrss_in_the_platform_unit(self, platform, maxrss, small_gen_cfg,
                                                        tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
        assert self.gen_manifest(small_gen_cfg, tmp_path)["peak_rss_mb"] == 300.0

    def test_embed_concatenates_branches(self, pipeline):
        _, _, emb_dir, _ = pipeline
        header = (emb_dir / "embeddings.csv").read_text().splitlines()[0]
        assert header.split(",")[-1] == "e7"  # 2 branches x d_emb 4

    def test_nobias_eval_zeroes_same_channel_negatives(self, pipeline, tmp_path):
        _, _, emb_dir, _ = pipeline
        out = tmp_path / "nobias"
        code = run([
            "eval", "--data", str(emb_dir / "embeddings.csv"),
            "--protocol", "nobias", "--channel", "pose", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["protocol"] == "nobias"
        assert all(v == 0.0 for v in report["channels"]["pose"]["p_neg"])

    def test_probe_and_stats_commands(self, pipeline, tmp_path):
        _, _, emb_dir, _ = pipeline
        probe_dir = tmp_path / "probe"
        code = run([
            "probe", "--data", str(emb_dir / "embeddings.csv"),
            "--channel", "pose", "--seed", "1", "--out", str(probe_dir),
        ])
        assert code == 0
        probe = json.loads((probe_dir / "probe.json").read_text())
        assert 0.0 <= probe["accuracy"] <= 1.0

        stats_dir = tmp_path / "stats"
        code = run([
            "stats", "--data", str(emb_dir / "embeddings.csv"),
            "--channel", "pose", "--out", str(stats_dir),
        ])
        assert code == 0
        nauc = json.loads((stats_dir / "nauc.json").read_text())
        assert 0.0 <= nauc["nauc10_neg"] <= 1.0
        lines = (stats_dir / "curves_pose.csv").read_text().splitlines()
        assert lines[0] == "rank,p_neg,p_pos"

    def test_stats_is_a_view_of_the_eval_report(self, pipeline, tmp_path):
        _, _, emb_dir, eval_dir = pipeline
        out = tmp_path / "stats"
        assert run(["stats", "--data", str(emb_dir / "embeddings.csv"), "--channel", "pose",
                    "--out", str(out)]) == 0
        assert (out / "curves_pose.csv").read_bytes() == (eval_dir / "curves_pose.csv").read_bytes()
        pose = json.loads((eval_dir / "report.json").read_text())["channels"]["pose"]
        assert json.loads((out / "nauc.json").read_text()) == {
            "channel": "pose", "nauc10_neg": pose["nauc_neg"], "nauc10_pos": pose["nauc_pos"]}

    def test_every_manifest_records_the_seed_it_used(self, pipeline, small_gen_cfg,
                                                     small_branch_cfg, tmp_path):
        root, data, emb_dir, _ = pipeline
        embeddings = str(emb_dir / "embeddings.csv")
        branch = tmp_path / "branch.cfg"
        branch.write_text(small_branch_cfg.read_text() + "seed = 5\n")
        probe = tmp_path / "probe.cfg"
        probe.write_text("probe_epochs = 5\nprobe_seed = 4\n")
        runs = {  # no --seed: each takes its seed from its config, or 0
            "gen": (["gen", "--config", str(small_gen_cfg)], 0),
            "train": (["train", "--data", str(data), "--config", str(branch)], 5),
            "sweep": (["sweep", "--data", str(data), "--config", str(branch),
                       "--lambdas", "0.05"], 5),
            "probe": (["probe", "--data", embeddings, "--channel", "pose",
                       "--config", str(probe)], 4),
            "stats": (["stats", "--data", embeddings, "--channel", "pose"], None),
        }
        for name, (argv, seed) in runs.items():
            assert run([*argv, "--out", str(tmp_path / name)]) == 0
            assert json.loads((tmp_path / name / "manifest.json").read_text())["seed"] == seed, name
        # the pipeline's --seed flags; embed and eval draw nothing
        for sub, seed in (("gen", 7), ("train_reduce", 3), ("emb", None), ("eval", None)):
            assert json.loads((root / sub / "manifest.json").read_text())["seed"] == seed, sub

    def test_replay_is_byte_identical(self, pipeline, small_gen_cfg, tmp_path):
        _, data, _, _ = pipeline
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen", "--config", str(small_gen_cfg), "--out", str(out), "--seed", "7"]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "dataset.csv").read_bytes() == data.read_bytes()

    def test_gen_replays_from_its_manifest(self, small_gen_cfg, tmp_path):
        # a gain with more digits than a %g spelling keeps
        lines = [ln for ln in small_gen_cfg.read_text().splitlines() if ln.split()[0] != "channels"]
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("\n".join(lines + ["channels = pose:2:4:1.23456789,cam:2:4:0.5"]) + "\n")
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(["gen", "--config", str(cfg), "--out", str(first), "--seed", "7"]) == 0
        resolved = json.loads((first / "manifest.json").read_text())["resolved_config"]
        del resolved["dropped_queries"]  # an outcome, not a key
        replay = tmp_path / "replay.cfg"
        replay.write_text("".join(f"{k} = {v}\n" for k, v in resolved.items()))
        assert run(["gen", "--config", str(replay), "--out", str(again), "--seed", "7"]) == 0
        assert (first / "dataset.csv").read_bytes() == (again / "dataset.csv").read_bytes()

    def test_gen_defaults_are_the_default_preset(self, tmp_path):
        plain, preset = tmp_path / "plain", tmp_path / "preset"
        assert run(["gen", "--out", str(plain), "--seed", "2"]) == 0
        assert run(["gen", "--preset", "default", "--out", str(preset), "--seed", "2"]) == 0
        assert (plain / "dataset.csv").read_bytes() == (preset / "dataset.csv").read_bytes()

    def test_gen_writes_the_shared_dataset_recipe(self, tmp_path):
        # the acceptance criteria build their datasets with make_dataset
        out = tmp_path / "gen"
        assert run(["gen", "--preset", "pose2", "--seed", "1", "--out", str(out)]) == 0
        save_dataset(make_dataset(PRESETS["pose2"].generator, seed=1), tmp_path / "shared.csv")
        assert (out / "dataset.csv").read_bytes() == (tmp_path / "shared.csv").read_bytes()


@pytest.fixture(scope="module")
def small_split_ds():
    cfg = GeneratorConfig(
        n_ids=12,
        samples_per_id=6,
        d_id=4,
        d_in=10,
        sigma=0.05,
        channels=(ChannelSpec("pose", 2, 4, 1.0), ChannelSpec("cam", 2, 4, 0.5)),
        eval_fraction=0.5,
        feature_scale=0.3,
    )
    return make_dataset(cfg, seed=1)


class TestSweep:
    def test_sweep_table_echoes_lambdas(self, pipeline, small_branch_cfg, tmp_path, capsys):
        _, data, _, _ = pipeline
        out = tmp_path / "sweep"
        code = run([
            "sweep", "--data", str(data), "--config", str(small_branch_cfg),
            "--mode", "reduce", "--lambdas", "0.005,0.01,0.05,0.1",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda_db,rank1,map,probe_acc,nauc10_neg"
        assert len(lines) == 5
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.005, 0.01, 0.05, 0.1]

    @pytest.mark.parametrize("mode", ["reduce", "enhance"])
    def test_sweep_replays_from_its_manifest(self, mode, pipeline, small_branch_cfg, tmp_path):
        # a weight with more digits than a %g spelling keeps, and a mode that
        # only the first run's flag sets
        _, data, _, _ = pipeline
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(["sweep", "--data", str(data), "--config", str(small_branch_cfg), "--mode", mode,
                    "--lambdas", "0.0123456789,0.05", "--seed", "4", "--out", str(first)]) == 0
        resolved = json.loads((first / "manifest.json").read_text())["resolved_config"]
        lambdas = resolved.pop("lambdas")
        assert lambdas == "0.0123456789,0.05"
        replay = tmp_path / "replay.cfg"
        replay.write_text("".join(f"{k} = {v}\n" for k, v in resolved.items()))
        assert run(["sweep", "--data", str(data), "--config", str(replay),
                    "--lambdas", lambdas, "--out", str(again)]) == 0
        assert (first / "sweep.csv").read_bytes() == (again / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("lambdas", ["0.01,,0.02,", "0.01,x", "0.01,-0.02", "nan"])
    def test_bad_lambdas_rejected(self, lambdas, pipeline, small_branch_cfg, tmp_path, capsys):
        _, data, _, _ = pipeline
        out = tmp_path / "o"
        code = run(["sweep", "--data", str(data), "--config", str(small_branch_cfg),
                    "--lambdas", lambdas, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ConfigError")
        assert not (out / "sweep.csv").exists()

    def test_sweep_lambda_zero_equals_baseline(self, small_split_ds):
        base = BranchConfig(
            bias_channel="pose", p=3, k=2, epochs=2, rate=0.01, hidden=(8,), d_emb=4, seed=3,
        )
        probe_cfg = ProbeConfig(epochs=60)
        ((swept, swept_probe),) = lambda_sweep(small_split_ds, base, [0.0], probe_cfg=probe_cfg)

        params, _ = train_branch(small_split_ds, replace(base, lam_db=0.0))
        es = embed_all(params, small_split_ds)
        assert swept == evaluate_embeddings(es)
        assert swept_probe == fit_probe(es, "pose", probe_cfg)

    def test_sweep_accepts_canonical_lambda_list(self, small_split_ds):
        base = BranchConfig(
            bias_channel="pose", p=3, k=2, epochs=1, rate=0.01, hidden=(6,), d_emb=3, seed=0,
        )
        lambdas = [0.005, 0.01, 0.05, 0.1]
        runs = lambda_sweep(small_split_ds, base, lambdas, probe_cfg=ProbeConfig(epochs=30))
        rows = sweep_to_csv(base, lambdas, runs).splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == lambdas


class TestErrors:
    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_idz = 10\n")
        code = run(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_idz" in err and "\n" == err[-1]

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["eval", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code != 0

    def test_non_utf8_data_rejected(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"id,camera,split,f0\n1,0,gallery,0.5\n1,1,qu\xe9ry,1.5\n")
        code = run(["eval", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and f"{data}: not UTF-8 text" in err

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"n_ids = 10 # \xe9\n")
        code = run(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and f"{cfg}: not UTF-8 text" in err

    def test_diverging_probe_names_its_step(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert run(["gen", "--preset", "default", "--seed", "0", "--out", str(gen)]) == 0
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("probe_rate = 1e300\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape as an exception
            code = run(["probe", "--data", str(gen / "dataset.csv"), "--channel", "pose",
                        "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: TrainingError: bias probe step 2: non-finite gradients\n"

    def test_unknown_preset(self, tmp_path, capsys):
        code = run(["gen", "--preset", "nopreset", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_takes_only_bare_names(self, tmp_path, capsys):
        code = run(["gen", "--preset", "preset-default", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("probe_epochs", "ten"), ("probe_epochs", "-3"), ("probe_train_fraction", "nan"),
         ("probe_rate", "nan")],
    )
    def test_probe_config_value_not_a_number(self, key, value, pipeline, tmp_path, capsys):
        _, _, emb_dir, _ = pipeline
        cfg = tmp_path / "probe.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code = run([
            "probe", "--data", str(emb_dir / "embeddings.csv"), "--channel", "pose",
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError") and key in err

    @pytest.mark.parametrize("key", ["lambda_dr", "lambda_db", "margin_id", "margin_bias", "rate"])
    def test_non_finite_branch_value_rejected(self, key, pipeline, small_branch_cfg, tmp_path,
                                              capsys):
        _, data, _, _ = pipeline
        cfg = tmp_path / "branch.cfg"
        lines = [ln for ln in small_branch_cfg.read_text().splitlines() if ln.split()[0] != key]
        cfg.write_text("\n".join(lines + [f"{key} = nan"]) + "\n")
        code = run(["train", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError") and key in err

    @pytest.mark.parametrize(
        "cmd,name,value",
        [("gen", "--seed", "-1"), ("train", "--seed", "-3"), ("probe", "--seed", "-2"),
         ("sweep", "--seed", "-1"), ("train", "seed", "-1"), ("probe", "probe_seed", "-4"),
         ("gen", "mix_seed", "-1")],
    )
    def test_negative_seed_rejected(self, cmd, name, value, pipeline, small_gen_cfg,
                                    small_branch_cfg, tmp_path, capsys):
        _, data, emb_dir, _ = pipeline
        args, base_cfg = {
            "gen": ([], small_gen_cfg),
            "train": (["--data", str(data)], small_branch_cfg),
            "probe": (["--data", str(emb_dir / "embeddings.csv"), "--channel", "pose"], None),
            "sweep": (["--data", str(data), "--lambdas", "0.01"], small_branch_cfg),
        }[cmd]
        lines = base_cfg.read_text().splitlines() if base_cfg else []
        if name == "--seed":
            args += [name, value]
        else:
            lines.append(f"{name} = {value}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code = run([cmd, *args, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError") and f"{name} must be >= 0" in err

    def test_overflowing_ranking_distances_rejected(self, tmp_path, capsys):
        # query row 0's identical positive should rank first, but its squared
        # norms overflow, so its distances are inf - inf = NaN
        data = tmp_path / "big.csv"
        data.write_text(
            "id,camera,split,pose,f0,f1\n"
            "1,0,query,a,1e200,1e200\n"
            "1,1,gallery,a,1e200,1e200\n"
            "2,1,gallery,b,0,0\n"
            "2,0,query,b,0,0\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape as an exception
            code = run(["eval", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: EvaluationError") and "query row 0" in err

    @pytest.mark.parametrize("protocol", ["standard", "nobias"])
    def test_unknown_channel_rejected(self, protocol, tmp_path, capsys):
        # the standard protocol excludes no channel, but records the one given
        data = tmp_path / "d.csv"
        data.write_text("id,camera,split,pose,f0\n1,0,query,a,0.5\n1,1,gallery,a,1.5\n")
        code = run(["eval", "--data", str(data), "--protocol", protocol, "--channel", "bogus",
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: ConfigError: unknown bias channel 'bogus'\n"
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize(
        "column,row", [("id", "99999999999999999999,0"), ("camera", "1,-99999999999999999999")]
    )
    def test_integer_beyond_int64_rejected(self, column, row, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text(f"id,camera,split,f0\n1,1,gallery,0.5\n{row},query,1.5\n")
        code = run(["eval", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and f"row 3, column {column}" in err

    @pytest.mark.parametrize(
        "line",
        ["sigma = nan", "feature_scale = inf", "channels = pose:3:8:nan,cam:2:8:0.5"],
    )
    def test_non_finite_generator_value_rejected(self, line, small_gen_cfg, tmp_path, capsys):
        assert self.gen_with(line, small_gen_cfg, tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError")
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_overflowing_features_write_no_dataset(self, small_gen_cfg, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape as an exception
            assert self.gen_with("feature_scale = 1e308", small_gen_cfg, tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: DataError")
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @pytest.mark.parametrize("cmd", ["train", "eval"])
    def test_featureless_csv_rejected(self, cmd, tmp_path, capsys):
        # train would divide by a zero input width; eval would rank all-zero distances
        data = tmp_path / "d.csv"
        data.write_text("id,camera,split,pose\n0,0,train,a\n0,1,query,b\n0,0,gallery,a\n")
        code = run([cmd, "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and "no feature column" in err

    @pytest.mark.parametrize("name", ["id", "camera", "split", "f0", "e0", "f12"])
    def test_channel_named_like_a_csv_column_rejected(self, name, small_gen_cfg, tmp_path, capsys):
        # the CSV could not be read back: a repeated column or a misplaced feature
        line = f"channels = {name}:3:8:1.0,cam:2:8:0.5"
        assert self.gen_with(line, small_gen_cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError") and repr(name) in err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @staticmethod
    def gen_with(line, small_gen_cfg, tmp_path):
        """`gen` into tmp_path/o from the small config with `line` replacing its key."""
        key = line.split()[0]
        kept = [ln for ln in small_gen_cfg.read_text().splitlines() if ln.split()[0] != key]
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("\n".join(kept + [line]) + "\n")
        return run(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "damage", ["transposed_moment", "no_d_in", "meta_not_json", "bad_mode", "unknown_key"]
    )
    def test_embed_rejects_malformed_checkpoint(self, damage, pipeline, tmp_path, capsys):
        root, data, _, _ = pipeline
        ckpt = tmp_path / "checkpoint.npz"
        ckpt.write_bytes((root / "train_reduce" / "checkpoint.npz").read_bytes())
        if damage == "transposed_moment":
            rewrite_checkpoint(ckpt, adam_v=saved_arrays(ckpt)["adam_v"][None].T)
        elif damage == "no_d_in":
            rewrite_checkpoint(ckpt, meta_json=meta_without(ckpt, "d_in"))
        elif damage == "meta_not_json":
            rewrite_checkpoint(ckpt, meta_json=np.array("{not json"))
        else:
            meta = json.loads(str(saved_arrays(ckpt)["meta_json"]))
            if damage == "bad_mode":
                meta["config"]["mode"] = "sideways"
            else:
                meta["config"]["lambda_bd"] = meta["config"].pop("lambda_db")
            rewrite_checkpoint(ckpt, meta_json=np.array(json.dumps(meta, sort_keys=True)))
        code = run(["embed", str(ckpt), "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CheckpointError") and str(ckpt) in err

    def test_embed_refuses_overflowing_embeddings(self, pipeline, tmp_path, capsys):
        # finite weights, 1e200 times the trained ones: the second layer's
        # products reach about 1e400
        root, data, _, _ = pipeline
        ckpt = tmp_path / "checkpoint.npz"
        ckpt.write_bytes((root / "train_reduce" / "checkpoint.npz").read_bytes())
        rewrite_checkpoint(ckpt, params=saved_arrays(ckpt)["params"] * 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would escape as an exception
            code = run(["embed", str(ckpt), "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DataError: the embedding of row ") and "overflows" in err
        assert list((tmp_path / "o").iterdir()) == []  # nothing written

    def test_nobias_without_channel(self, pipeline, tmp_path, capsys):
        _, _, emb_dir, _ = pipeline
        code = run([
            "eval", "--data", str(emb_dir / "embeddings.csv"),
            "--protocol", "nobias", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "channel" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize(
        "cmd,keys",
        [("gen", GEN_CONFIG_KEYS), ("train", BRANCH_CONFIG_KEYS), ("probe", PROBE_CONFIG_KEYS)],
    )
    def test_help_enumerates_every_config_key(self, cmd, keys, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([cmd, "--help"])
        text = capsys.readouterr().out
        for key in keys:
            assert key in text

    def test_preset_gen_runs(self, tmp_path):
        # presets are full-size; just check pose2 generates quickly
        out = tmp_path / "p"
        assert run(["gen", "--preset", "pose2", "--out", str(out), "--seed", "0"]) == 0
        header = (out / "dataset.csv").read_text().splitlines()[0]
        assert header.startswith("id,camera,split,pose,cam,f0")
