"""Print the figures of effect criteria 4, 6 and 7 per seed, and their medians.

For each seed 0-9, generates the default preset's dataset and runs three
branches through `cli.run_branch`, as the acceptance suite does for seeds
0-2: bas (reduce at lam_db 0), R (reduce) and E (enhance), each with the
preset's branch config at that seed. R+E ranks the concatenation of R's and
E's embeddings. Per seed it prints

- criterion 4: the probe accuracy of bas and R, the probe drop bas - R and
  the rank1 drop bas - R;
- criterion 6: the rank1 of R+E, of the better of R and E, and of bas;
- criterion 7: nauc10 of the negative curve for R, bas and E, and the gap
  E - R.

Then it prints the same figures from the medians over seeds 0-2, each
difference taken between medians, as the suite's criteria take them; these
reproduce the criteria's detail lines. The gates read only those three
seeds, so the other seeds show how wide each margin is. Nothing is gated
here.

    python3 scripts/criteria_seeds.py

The package is imported from the `src/` next to this script, so a copy of
the script placed in another checkout measures that checkout.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from biasreid.cli import run_branch  # noqa: E402
from biasreid.dataset import make_dataset  # noqa: E402
from biasreid.embedder import concat  # noqa: E402
from biasreid.evaluation import ProbeConfig, evaluate_embeddings  # noqa: E402
from biasreid.presets import PRESETS  # noqa: E402

SEEDS = range(10)
GATED_SEEDS = (0, 1, 2)  # the seeds the acceptance suite takes its medians over


def seed_scores(seed: int) -> dict[str, float]:
    """One seed's per-branch scores, keyed `<branch>_<score>`."""
    preset = PRESETS["default"]
    ds = make_dataset(preset.generator, seed)
    cfgs = {
        "bas": replace(preset.branch, mode="reduce", seed=seed, lam_db=0.0),
        "R": replace(preset.branch, mode="reduce", seed=seed),
        "E": replace(preset.branch, mode="enhance", seed=seed),
    }
    scores, embeddings = {}, {}
    for name, cfg in cfgs.items():
        _, es, report, probe = run_branch(ds, cfg, ProbeConfig())
        embeddings[name] = es
        scores[f"{name}_rank1"] = report.rank1
        scores[f"{name}_probe"] = probe.accuracy
        scores[f"{name}_nauc"] = report.channels[cfg.bias_channel].nauc_neg
    scores["RE_rank1"] = evaluate_embeddings(concat([embeddings["R"], embeddings["E"]])).rank1
    return scores


def line(label: str, s: dict[str, float]) -> str:
    return (
        f"{label}: probe bas/R {s['bas_probe']:.3f}/{s['R_probe']:.3f} "
        f"drop {s['bas_probe'] - s['R_probe']:+.3f}, "
        f"rank1 drop {s['bas_rank1'] - s['R_rank1']:+.3f} | "
        f"R+E {s['RE_rank1']:.3f}, best single {max(s['R_rank1'], s['E_rank1']):.3f}, "
        f"bas {s['bas_rank1']:.3f} | "
        f"nauc10 R/bas/E {s['R_nauc']:.3f}/{s['bas_nauc']:.3f}/{s['E_nauc']:.3f} "
        f"gap {s['E_nauc'] - s['R_nauc']:+.3f}"
    )


def main() -> int:
    t0 = time.monotonic()
    per_seed = {}
    for seed in SEEDS:
        per_seed[seed] = seed_scores(seed)
        print(line(f"seed {seed}", per_seed[seed]), flush=True)
    medians = {key: float(np.median([per_seed[s][key] for s in GATED_SEEDS]))
               for key in per_seed[GATED_SEEDS[0]]}
    print(line("median " + ",".join(map(str, GATED_SEEDS)), medians))
    print(f"{len(SEEDS)} seeds x 3 branches in {time.monotonic() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
