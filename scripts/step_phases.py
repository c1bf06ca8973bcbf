"""Print the per-step time of each phase of the training step.

Builds the preset's dataset at the seed (what `biasreid gen` writes) and
trains the preset's branch in the given mode at that seed, `--runs` times,
each a fresh `Trainer(...).run()`. During the runs these functions are
wrapped with `perf_counter_ns`, under the names the trainer and
`combined_loss` call them by, so the trainer's own loop runs as it ships:

    draw              dataset.PKSampler.draw (redraws included)
    labels            losses.batch_labels (the label phase, once a chunk)
    encode            numerics.encode
    pairwise_sqdist   losses.pairwise_sqdist
    reid_hard_loss    losses.reid_hard_loss
    bias_easy_loss    losses.bias_easy_loss
    backprop          numerics.backprop
    adam_step         numerics.adam_step

The phases do not nest. Each run's phase time is divided by its steps (the
epochs times the batches per epoch), and the script prints, in µs per step,
the median over runs of each phase, of the whole step (`Trainer.run()`'s
time) and of `other`: the step minus the phases, which is the loop's own
work, each chunk's gathers of rows and labels, the rest of `combined_loss`,
and the wrappers' two clock reads per call. The header names the numpy
version, the core count, the preset, the seed and the mode; the last line
is the sha256 of the trained parameters, equal across runs (the script
exits 1 otherwise), so two checkouts that print the same last line trained
the same bits. BLAS and OpenMP run one thread, as the benchmark runs them.

    python3 scripts/step_phases.py [--preset default] [--mode reduce] [--seed 0] [--runs 5]

The package is imported from the `src/` next to this script, so a copy of
the script placed in another checkout times that checkout. Alternate the
two checkouts' runs to compare them: the host's speed drifts.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from biasreid import dataset, losses, trainer  # noqa: E402
from biasreid.presets import PRESETS  # noqa: E402

# phase -> (object whose attribute the step calls, attribute)
PHASES = {
    "draw": (dataset.PKSampler, "draw"),
    "labels": (trainer, "batch_labels"),
    "encode": (trainer, "encode"),
    "pairwise_sqdist": (losses, "pairwise_sqdist"),
    "reid_hard_loss": (losses, "reid_hard_loss"),
    "bias_easy_loss": (losses, "bias_easy_loss"),
    "backprop": (trainer, "backprop"),
    "adam_step": (trainer, "adam_step"),
}


def timed_run(ds, cfg) -> tuple[int, Counter, Counter, bytes]:
    """One training run with every phase wrapped: its total ns, each phase's
    ns and call count, and the trained parameters' bytes."""
    spent, calls = Counter(), Counter()

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            spent[name] += time.perf_counter_ns() - t0
            calls[name] += 1
            return out
        return timed

    originals = {name: getattr(owner, attr) for name, (owner, attr) in PHASES.items()}
    try:
        for name, (owner, attr) in PHASES.items():
            setattr(owner, attr, wrap(name, originals[name]))
        t = trainer.Trainer(ds, cfg)
        t0 = time.perf_counter_ns()
        t.run()
        total = time.perf_counter_ns() - t0
    finally:
        for name, (owner, attr) in PHASES.items():
            setattr(owner, attr, originals[name])
    return total, spent, calls, t.params.flat.tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS))
    parser.add_argument("--mode", default="reduce", choices=trainer.MODES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if args.runs < 1 or args.seed < 0:
        parser.error("--runs must be >= 1 and --seed >= 0")
    preset = PRESETS[args.preset]
    ds = dataset.make_dataset(preset.generator, args.seed)
    cfg = replace(preset.branch, mode=args.mode, seed=args.seed)
    steps = cfg.epochs * trainer.Trainer(ds, cfg).batches_per_epoch
    per_step: dict[str, list[float]] = {name: [] for name in (*PHASES, "other", "step")}
    digests = set()
    for _ in range(args.runs):
        total, spent, calls, params = timed_run(ds, cfg)
        # a phase the step no longer calls by its name would read 0; at
        # lam_db 0 the bias term is never evaluated
        missed = [name for name in PHASES if steps and not calls[name]
                  and (name != "bias_easy_loss" or cfg.lam_db)]
        if missed:
            print(f"step_phases: never called: {', '.join(missed)}", file=sys.stderr)
            return 1
        per = max(steps, 1) * 1e3  # ns -> µs per step
        for name in PHASES:
            per_step[name].append(spent[name] / per)
        per_step["other"].append((total - sum(spent.values())) / per)
        per_step["step"].append(total / per)
        digests.add(hashlib.sha256(params).hexdigest())

    print(f"numpy {np.__version__}, {os.cpu_count()} cores "
          f"({len(os.sched_getaffinity(0))} usable), one BLAS thread; preset {args.preset}, "
          f"seed {args.seed}, mode {args.mode}; {args.runs} runs of {steps} steps")
    medians = {name: statistics.median(values) for name, values in per_step.items()}
    for name, value in medians.items():
        share = f"{100 * value / medians['step']:5.1f}%" if medians["step"] else ""
        print(f"{name:<16} {value:9.1f} µs/step  {share}")
    if len(digests) != 1:
        print(f"step_phases: runs trained {len(digests)} different parameter sets", file=sys.stderr)
        return 1
    print(f"params sha256 {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
