"""Benchmark of the biasreid pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 0          # every workload, one fresh process each

Each workload runs in one process with BLAS/OpenMP pinned to one thread.
Before anything is timed, the process makes one untimed warm-up pass with a
short training schedule (WARM_EPOCHS). Set-up is the `gen` command, which
writes the input CSV; it is timed in slots before the first pass and after
each pass, so that its median samples the same stretch of time as the
passes. The timed pipeline (see workloads.py) runs in-process through
`biasreid.cli.main`:

- `--trace 0` repeats the pipeline at least twice and until `--seconds`
  have passed since the warm-up began, and prints the end-to-end metrics:
  set-up and wall time as medians over their repetitions, scaled to the
  speed of a reference host by hostspeed.py (the raw medians and the scale
  are on the `env:` line), and peak RSS as of the end of the first pass;
- `--trace 1` runs one pass traced by spans.py and prints the per-layer
  metrics from it, unscaled. `trace.overhead_s` is the number of spans
  recorded times the cost of one span, calibrated on a no-op function
  (spans.span_cost_s), so drift of the host between two passes does not
  enter it.

Every eval/stats output is checked against reference.py, and the passes of
a `--trace 0` run, which share the seed, must write byte-identical result
files. A failed stage or check counts in `failed`, and the exit code is
then 1. Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from spans import PACKAGE, Tracer, span_cost_s
from workloads import CHANNEL, WORKLOADS, Stage, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# a set-up slot runs `gen` at least this often and this long; audit-3k's gen
# takes ~1.2 s, so each of its slots holds 2 set-up times, train-default's ~12
SLOT_MIN_REPS, SLOT_MIN_S = 2, 0.5
# the first pass in a fresh process ran 10-30% slower than the next ones, so
# every run first makes one untimed pass with this short training schedule
WARM_EPOCHS = 20
RESULT_FILES = ("trainlog.csv", "report.json", "nauc.json", "probe.json")


class Ledger:
    """Operations attempted and failed: pipeline stages and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def run_stage(argv: list[str], ledger: Ledger, clock=time.perf_counter) -> tuple[bool, float]:
    """One CLI command in-process, timed on `clock`; a ToolkitError or any
    other exception, or a non-zero exit, is a failed stage."""
    from biasreid.cli import main

    log = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a defect in the program: recorded as a failed stage
        code = None
        log.write(traceback.format_exc())
    seconds = clock() - t0
    ledger.record(code == 0, f"{' '.join(argv[:2])} exited {code}: {log.getvalue().strip()[-800:]}")
    return code == 0, seconds


def run_pass(stages: list[Stage], ledger: Ledger, tracer: Tracer | None = None,
             clock=time.perf_counter) -> tuple[bool, float]:
    """Run the stages in order; stop at the first failure, counting the
    stages that could not run as failed. Returns the stages' summed time."""
    total = 0.0
    for i, st in enumerate(stages):
        with tracer.span(f"cli.{st.cmd}", "cli") if tracer else contextlib.nullcontext():
            ok, seconds = run_stage(st.argv, ledger, clock)
        total += seconds
        if not ok:
            for later in stages[i + 1:]:
                ledger.record(False, f"{later.cmd} not run after an earlier failure")
            return False, total
    return True, total


def write_gen_config(wl: Workload, work: Path) -> Path:
    gen_cfg = work / "gen.cfg"
    gen_cfg.write_text("".join(f"{k} = {v}\n" for k, v in wl.gen_keys.items()))
    return gen_cfg


def setup_slot(gen_argv: list[str], times: list[float], ledger: Ledger,
               clock=time.perf_counter) -> bool:
    """Run the set-up command SLOT_MIN_REPS times and for SLOT_MIN_S seconds
    at least, appending each time taken to `times`."""
    start = len(times)
    while len(times) - start < SLOT_MIN_REPS or sum(times[start:]) < SLOT_MIN_S:
        ok, seconds = run_stage(gen_argv, ledger, clock)
        if not ok:
            return False
        times.append(seconds)
    return True


def check_outputs(stages: list[Stage], ledger: Ledger) -> None:
    """Compare every eval/stats output with the independent reference."""
    import reference

    tables, audits = {}, {}
    for st in stages:
        if st.cmd not in ("eval", "stats"):
            continue
        key = (st.descriptor, st.protocol)
        if key not in audits:
            if st.descriptor not in tables:
                tables[st.descriptor] = reference.read_table(st.descriptor)
            channel = CHANNEL if st.protocol == "nobias" else None
            audits[key] = reference.audit(tables[st.descriptor], st.protocol, channel)
        if st.cmd == "eval":
            bad = reference.compare_report(json.loads((st.out / "report.json").read_text()), audits[key])
        else:
            bad = reference.compare_nauc(json.loads((st.out / "nauc.json").read_text()), audits[key])
        ledger.record(not bad, f"{st.cmd} {st.protocol} vs reference: {'; '.join(bad[:3])}")


def check_same(first: Path, other: Path, names, ledger: Ledger) -> None:
    """Same-seed outputs must be byte-identical."""
    for f in sorted(first.rglob("*")):
        if f.name in names:
            twin = other / f.relative_to(first)
            same = twin.is_file() and twin.read_bytes() == f.read_bytes()
            ledger.record(same, f"{f.relative_to(first)} differs between same-seed passes")


def warm_up(wl, seed, work, gen_cfg, ledger) -> bool:
    """One untimed pass through every stage, training for WARM_EPOCHS only,
    so the timed passes start with imports done and the allocator grown."""
    warm = work / "warm"
    data = warm / "data" / "dataset.csv"
    train_cfg = warm / "train.cfg"
    warm.mkdir()
    train_cfg.write_text(f"epochs = {WARM_EPOCHS}\n")
    ok = run_stage(wl.gen_argv(seed, data.parent, gen_cfg), ledger)[0]
    ok = ok and run_pass(wl.stages(data, seed, warm, train_cfg), ledger)[0]
    shutil.rmtree(warm, ignore_errors=True)
    return ok


def end_to_end(wl, seed, deadline, work, data, gen_argv, ledger) -> dict:
    """Passes and set-up slots until the deadline. Each pass's time is scaled
    by the host's speed during that pass, set-up times by its speed over the
    whole run (hostspeed.py)."""
    passes, walls, scaled, setups = [], [], [], []
    with HostSpeed() as host:
        ok = setup_slot(gen_argv, setups, ledger, host.clock)
        while ok and (len(walls) < 2 or time.perf_counter() < deadline):
            out = work / f"pass{len(passes)}"
            start = host.clock()
            ok, seconds = run_pass(wl.stages(data, seed, out), ledger, clock=host.clock)
            if not ok:
                break
            walls.append(seconds)
            scaled.append(seconds * host.scale(start, host.clock()))
            passes.append(out)
            if len(passes) == 1:  # the high-water mark creeps up with the pass count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ok = setup_slot(gen_argv, setups, ledger, host.clock)
    if not passes:
        return {}
    check_outputs(wl.stages(data, seed, passes[0]), ledger)
    for out in passes[1:]:
        check_same(passes[0], out, RESULT_FILES, ledger)
    scale = host.scale()
    info = {"wall_raw_s": statistics.median(walls), "setup_raw_s": statistics.median(setups),
            "host_scale": scale, "host_samples": len(host.samples), "passes": len(passes),
            "pass_raw_s": [round(w, 3) for w in walls], "pass_scaled_s": [round(w, 3) for w in scaled],
            "setups": len(setups)}
    return {"setup_s": info["setup_raw_s"] * scale, "wall_s": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb, "info": info}


def branch_nauc_gap(wl, data, out: Path, ledger: Ledger) -> float:
    """enhance minus reduce nauc10_neg, each branch's embedding alone."""
    if set(wl.modes) != {"reduce", "enhance"}:
        return 0.0
    nauc = {}
    for mode in wl.modes:
        emb, stats = out / f"embed_{mode}", out / f"stats_{mode}"
        ok, _ = run_stage(["embed", str(out / mode / "checkpoint.npz"), "--data", str(data),
                           "--out", str(emb)], ledger)
        ok = ok and run_stage(["stats", "--data", str(emb / "embeddings.csv"), "--channel", CHANNEL,
                               "--out", str(stats)], ledger)[0]
        if not ok:
            return 0.0
        nauc[mode] = json.loads((stats / "nauc.json").read_text())["nauc10_neg"]
    return nauc["enhance"] - nauc["reduce"]


def per_layer(wl, seed, work, gen_cfg, ledger) -> dict:
    data = work / "data" / "dataset.csv"
    if not setup_slot(wl.gen_argv(seed, data.parent, gen_cfg), [], ledger):
        return {}
    traced = work / "traced"
    traced_data = traced / "data" / "dataset.csv"
    stages = wl.stages(traced_data, seed, traced)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.gen", "cli"):
            ok, _ = run_stage(wl.gen_argv(seed, traced_data.parent, gen_cfg), ledger)
        ok = ok and run_pass(stages, ledger, tracer)[0]
    finally:
        tracer.uninstall()
    if not ok:
        return {}
    check_outputs(stages, ledger)
    check_same(data.parent, traced_data.parent, ("dataset.csv",), ledger)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
    metrics["evaluation.nauc10_gap"] = branch_nauc_gap(wl, traced_data, traced, ledger)
    report = json.loads((traced / "eval_standard" / "report.json").read_text())
    metrics["evaluation.rank1"], metrics["evaluation.map"] = report["rank1"], report["map"]
    probe = traced / "probe_standard" / "probe.json"
    metrics["evaluation.probe_acc"] = json.loads(probe.read_text())["accuracy"] if probe.is_file() else 0.0
    return metrics


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = "unavailable"  # a checkout without .git, or no git
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
    digest = hashlib.sha256()
    for f in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
    }


def emit(label: str, wanted: list[dict], values: dict, ledger: Ledger, extra: dict) -> int:
    for m in wanted:
        print(f"{label:<14} {m['name']:<32} {values.get(m['name'], 0.0):>16.6f} {m['unit']}")
    for problem in ledger.problems:
        print(f"FAILED: {problem[:300]}")
    print("env: " + json.dumps(extra, sort_keys=True))
    correct = ledger.failed == 0 and all(m["name"] in values for m in wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


def run_one(args, spec: dict) -> int:
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # leave src/ untouched
    import biasreid

    if Path(biasreid.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"perfbench: imported {biasreid.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        gen_cfg = write_gen_config(wl, work)
        deadline = time.perf_counter() + args.seconds
        if not warm_up(wl, args.seed, work, gen_cfg, ledger):
            values = {}
        elif args.trace:
            values = per_layer(wl, args.seed, work, gen_cfg, ledger)
        else:
            data = work / "data" / "dataset.csv"
            values = end_to_end(wl, args.seed, deadline, work, data,
                                wl.gen_argv(args.seed, data.parent, gen_cfg), ledger)
        extra = environment(args)
        extra.update(values.pop("info", {}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    return emit(wl.name, wanted, values, ledger, extra)


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh process, in sequence: peak RSS is a
    per-process high-water mark."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": len(wanted), "failed": len(wanted), "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}; run it in a checkout of the "
              "repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
