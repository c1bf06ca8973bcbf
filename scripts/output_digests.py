"""Print the sha256 of every file the pipeline writes, for byte-identity checks.

Runs `biasreid.cli.main` through gen, train (reduce and enhance), embed,
eval, eval nobias, stats and probe for the default preset at seeds 0-2, and
through gen and train (reduce and enhance) for pose2, cam6 and part3 at
seed 0. It sweeps the reduce branch on the pose2 dataset at seed 0 over
lambda_db 0.005 and 0.1, which pins `sweep.csv`. It audits raw features
too, with eval, eval nobias, stats and probe on the preset's audited
channel: those of pose2, cam6 and part3 at seed 0, and those of two
3000-id default-preset datasets at seeds 0 and 1, whose large rankings are
the kind the benchmark's audit-3k workload makes. Those audits load each
table from its sidecar, so the script audits the CSV parse too: it copies
`audit3k_s1/gen/dataset.csv` and `default_s0/embed/embeddings.csv` without
their sidecars into `parsed/`, audits each copy the same way, and requires
every eval, eval nobias, stats and probe output to equal its sidecar-path
twin byte for byte. Prints `<sha256>  <path>`
for each output file (paths relative to the output directory; manifests
are skipped, they hold wall times). Each `checkpoint.npz` line is followed
by `<sha256>  <path> contents`, the digest of what `checkpoint_load` reads
from it: the parameters, both Adam moments, the epoch, the Adam step and
the config. Then come the sha256 of the listing without the checkpoints'
byte lines, which two trees share when only the layout of a checkpoint
file differs, and the sha256 of the whole listing: two trees that print
the same last line wrote the same bytes. The binary sidecars `<csv>.npz`
written beside each dataset and embeddings CSV are output files too and
digested with the rest, as are the `parsed/` copies and their outputs.
The script exits 1 if any sidecar's `csv_sha256` is not the sha256 of the
CSV beside it, or if any parse-path output differs from its twin.

    python3 scripts/output_digests.py OUT_DIR

The package is imported from the `src/` next to this script, so a copy of
the script placed in another checkout digests that checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from biasreid.cli import main as cli_main  # noqa: E402
from biasreid.config import to_kv  # noqa: E402
from biasreid.presets import PRESETS  # noqa: E402
from biasreid.trainer import BRANCH_CONFIG_KEYS, checkpoint_load  # noqa: E402

MODES = ("reduce", "enhance")
AUDITS = ("eval", "eval_nobias", "stats", "probe")


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"biasreid {' '.join(argv)} exited {code}")


def train_branches(out: Path, preset: str, seed: int) -> Path:
    run("gen", "--preset", preset, "--seed", str(seed), "--out", str(out / "gen"))
    data = out / "gen" / "dataset.csv"
    for mode in MODES:
        run("train", "--data", str(data), "--preset", preset, "--mode", mode,
            "--seed", str(seed), "--out", str(out / mode))
    return data


def audit(out: Path, data: Path, channel: str, seed: int) -> None:
    """eval standard and nobias, stats and probe on one feature table."""
    run("eval", "--data", str(data), "--out", str(out / "eval"))
    run("eval", "--data", str(data), "--protocol", "nobias", "--channel", channel,
        "--out", str(out / "eval_nobias"))
    run("stats", "--data", str(data), "--channel", channel, "--out", str(out / "stats"))
    run("probe", "--data", str(data), "--channel", channel, "--seed", str(seed),
        "--out", str(out / "probe"))


def full_pipeline(out: Path, seed: int) -> None:
    data = train_branches(out, "default", seed)
    ckpts = [str(out / m / "checkpoint.npz") for m in MODES]
    run("embed", *ckpts, "--data", str(data), "--out", str(out / "embed"))
    audit(out, out / "embed" / "embeddings.csv", "pose", seed)


def raw_audit_3k(out: Path, seed: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    config = out / "gen.cfg"
    config.write_text("n_ids = 3000\n")
    run("gen", "--preset", "default", "--seed", str(seed), "--config", str(config),
        "--out", str(out / "gen"))
    audit(out / "raw", out / "gen" / "dataset.csv", "pose", seed)


def audit_outputs(out: Path) -> dict[Path, bytes]:
    return {
        path.relative_to(out): path.read_bytes()
        for kind in AUDITS
        for path in (out / kind).rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }


def parse_path_audit(root: Path, data: Path, twin: Path, seed: int) -> list[str]:
    """Audit a copy of the CSV `root/data` made without its sidecar, so every
    load parses it; returns the outputs that differ from those of `twin`,
    the sidecar-path audit of the same CSV."""
    out = root / "parsed" / data.parts[0]
    out.mkdir(parents=True)
    copy = out / data.name
    shutil.copyfile(root / data, copy)
    audit(out, copy, "pose", seed)
    parsed, expected = audit_outputs(out), audit_outputs(root / twin)
    return sorted(
        (out / rel).relative_to(root).as_posix()
        for rel in parsed.keys() | expected.keys()
        if parsed.get(rel) != expected.get(rel)
    )


def checkpoint_contents(path: Path) -> str:
    """sha256 of the state a checkpoint restores, whatever its file layout."""
    params, adam, cfg, epoch = checkpoint_load(path)
    digest = hashlib.sha256()
    for vec in (params.flat, adam.m, adam.v):
        digest.update(vec.tobytes())
    digest.update(json.dumps([epoch, adam.step, to_kv(cfg, BRANCH_CONFIG_KEYS)]).encode())
    return digest.hexdigest()


def listing_digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(argv[0])
    for seed in (0, 1, 2):
        full_pipeline(root / f"default_s{seed}", seed)
    for preset in ("pose2", "cam6", "part3"):
        data = train_branches(root / f"{preset}_s0", preset, 0)
        audit(root / f"{preset}_s0" / "raw", data, PRESETS[preset].branch.bias_channel, 0)
        if preset == "pose2":
            run("sweep", "--data", str(data), "--preset", preset, "--lambdas", "0.005,0.1",
                "--seed", "0", "--out", str(root / f"{preset}_s0" / "sweep"))
    for seed in (0, 1):
        raw_audit_3k(root / f"audit3k_s{seed}", seed)
    differing = [
        *parse_path_audit(root, Path("audit3k_s1/gen/dataset.csv"), Path("audit3k_s1/raw"), 1),
        *parse_path_audit(root, Path("default_s0/embed/embeddings.csv"), Path("default_s0"), 0),
    ]

    digests = {
        path: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
    lines, contents = [], []
    for path, digest in digests.items():
        name = path.relative_to(root).as_posix()
        lines.append(f"{digest}  {name}")
        if path.name == "checkpoint.npz":
            lines.append(f"{checkpoint_contents(path)}  {name} contents")
        contents.append(lines[-1])
    for line in lines:
        print(line)
    print(f"{listing_digest(contents)}  (contents, checkpoint bytes left out)")
    print(f"{listing_digest(lines)}  ({len(digests)} files)")
    unbound = []
    for sidecar in root.rglob("*.csv.npz"):
        with np.load(sidecar, allow_pickle=False) as npz:
            bound = json.loads(str(npz["meta_json"]))["csv_sha256"]
        if digests.get(sidecar.with_suffix("")) != bound:
            unbound.append(sidecar.relative_to(root).as_posix())
    for name in sorted(unbound):
        print(f"sidecar {name}: csv_sha256 is not the sha256 of its CSV", file=sys.stderr)
    for name in differing:
        print(f"{name}: differs from its sidecar-path twin", file=sys.stderr)
    return 1 if unbound or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
