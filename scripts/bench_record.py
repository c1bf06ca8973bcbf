"""Record the benchmark and the tier-1 wall time in one BENCH_<short-sha>.json.

For each workload in perfbench/workloads.py, runs

    python3 perfbench/run.py --workload W --seed 1 --trace 0
    python3 perfbench/run.py --workload W --seed 1 --trace 1

each in a fresh process, at perfbench's own run length and one fixed seed
so that every record is comparable with its parent's, then the tier-1
tests once, and writes one JSON file. It names, per workload, the preset,
the data size, the repeat count and the host scale of the end-to-end run,
with every end-to-end and per-layer metric; and, once, the numpy version,
the core count and the tier-1 wall time. The short sha is the checkout's HEAD; `dirty` says
whether `src/`, `tests/` or `perfbench/` differed from it.

The per-layer metrics come from one traced pass, which perfbench reports
unscaled, so the host's drift would read as a change of the code. Just
before and just after the traced run, this process sleeps IDLE_S seconds
while perfbench's HostSpeed samples the host's speed, and the record keeps
the scale of those samples as `per_layer_host_scale` and every s/ms metric
times it as `per_layer_scaled`, beside the raw `per_layer`. The samples are
not taken during the run, because on a 2-core host the traced child holds
the other core and the sampler's slice then runs about 2x slower than the
host's speed.

    python3 scripts/bench_record.py [--out-dir .]

A copy placed in another checkout records that checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from biasreid.presets import get_preset  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PRESET = "default"  # the preset every workload's `gen` starts from
SEED = 1  # the seed of every run
IDLE_S = 3.0  # seconds of host-speed sampling on each side of the traced run
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def bench(workload: str, trace: int) -> dict:
    """One perfbench run: its result line, its `env:` line and its exit code."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = proc.returncode
    result["problems"] = [ln for ln in lines if ln.startswith("FAILED:")]
    return {"result": result, "env": env}


def data_size(workload) -> dict:
    preset = get_preset(PRESET)
    gen = replace(preset.generator, **workload.gen_keys)
    return {"preset": PRESET, "gen_keys": workload.gen_keys, "n_ids": gen.n_ids,
            "rows": gen.n_ids * gen.samples_per_id, "features": gen.d_in,
            "branches": list(workload.modes),
            "epochs": preset.branch.epochs if workload.modes else 0}


def record_workload(name: str) -> tuple[dict, dict]:
    """The workload's record, and the `env:` line of its end-to-end run."""
    e2e = bench(name, 0)
    host = HostSpeed()
    with host:
        time.sleep(IDLE_S)
    traced = bench(name, 1)
    with host:
        time.sleep(IDLE_S)
    scale = host.scale()
    env = e2e["env"]
    metrics = traced["result"]["metrics"]
    return {
        **data_size(WORKLOADS[name]),
        "repeats": {"passes": env.get("passes"), "setups": env.get("setups")},
        "host_scale": env.get("host_scale"),
        "end_to_end": {k: v["value"] for k, v in e2e["result"]["metrics"].items()},
        "end_to_end_raw": {k: env.get(k) for k in ("wall_raw_s", "setup_raw_s", "pass_raw_s",
                                                   "pass_scaled_s")},
        "per_layer": {k: v["value"] for k, v in metrics.items()},
        "per_layer_host_scale": scale,
        "per_layer_scaled": {k: v["value"] * scale for k, v in metrics.items()
                             if v["unit"] in ("s", "ms")},
        "checks": {f"trace{t}": {k: run["result"][k] for k in
                                 ("correct", "attempted", "failed", "exit_code", "problems")}
                   for t, run in ((0, e2e), (1, traced))},
        "src_sha256": env.get("src_sha256"),
    }, env


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    summary = next((ln.strip("= ") for ln in reversed(proc.stdout.splitlines())
                    if re.search(r"\d+ (passed|failed)", ln)), "")
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "wall_s": round(wall, 2),
            "summary": summary, "counts": counts, "exit_code": proc.returncode}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args()

    sha = git("rev-parse", "HEAD")
    workloads, env = {}, {}
    for name in WORKLOADS:
        workloads[name], env = record_workload(name)
    record = {
        "git_sha": sha,
        "dirty": bool(git("status", "--porcelain", "--", "src", "tests", "perfbench")),
        "seed": SEED,
        "seconds": env.get("seconds"),
        **{k: env.get(k) for k in ("numpy", "python", "blas", "affinity", "threads")},
        "cores": env.get("nproc"),
        "workloads": workloads,
        "tier1": tier1(),
    }
    path = args.out_dir / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
