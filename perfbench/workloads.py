"""The benchmark's workloads, each a sequence of biasreid CLI invocations.

Set-up is the `gen` command (generate, split, write the input CSV). The
timed pipeline is every stage after it. Every stage is an argv list for
`biasreid.cli.main`, so the CSV and checkpoint handoffs between stages are
the program's real ones. The seed given to the benchmark is the seed of
every command that takes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

CHANNEL = "pose"  # the default preset's audited bias channel


@dataclass(frozen=True)
class Stage:
    cmd: str
    argv: list[str]
    out: Path
    descriptor: Path | None = None  # CSV an eval/stats/probe stage reads
    protocol: str = "standard"


@dataclass(frozen=True)
class Workload:
    name: str
    gen_keys: dict = field(default_factory=dict)  # generator keys over the default preset
    modes: tuple[str, ...] = ()  # branches trained, in embedding order
    audits: tuple[tuple[str, str], ...] = ()  # (cmd, protocol) run on the final descriptor

    def gen_argv(self, seed: int, out: Path, config: Path) -> list[str]:
        argv = ["gen", "--preset", "default", "--seed", str(seed), "--out", str(out)]
        return argv + (["--config", str(config)] if self.gen_keys else [])

    def stages(self, data: Path, seed: int, out: Path, train_cfg: Path | None = None) -> list[Stage]:
        """The timed pipeline; `train_cfg` overrides the preset's branch keys."""
        stages = []
        for mode in self.modes:
            argv = ["train", "--data", str(data), "--preset", "default", "--mode", mode,
                    "--seed", str(seed), "--out", str(out / mode)]
            if train_cfg:
                argv += ["--config", str(train_cfg)]
            stages.append(Stage("train", argv, out / mode))
        descriptor = data
        if self.modes:
            descriptor = out / "embed" / "embeddings.csv"
            ckpts = [str(out / m / "checkpoint.npz") for m in self.modes]
            stages.append(Stage("embed", ["embed", *ckpts, "--data", str(data),
                                          "--out", str(out / "embed")], out / "embed"))
        for cmd, protocol in self.audits:
            d = out / f"{cmd}_{protocol}"
            argv = [cmd, "--data", str(descriptor), "--out", str(d)]
            if cmd == "eval":
                argv += ["--protocol", protocol]
            if cmd != "eval" or protocol == "nobias":
                argv += ["--channel", CHANNEL]
            if cmd == "probe":
                argv += ["--seed", str(seed)]
            stages.append(Stage(cmd, argv, d, descriptor, protocol))
        return stages


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-default",
            modes=("reduce", "enhance"),
            audits=(("eval", "standard"), ("eval", "nobias"), ("probe", "standard")),
        ),
        Workload(
            "audit-3k",
            gen_keys={"n_ids": 3000},
            audits=(("eval", "standard"), ("eval", "nobias"), ("stats", "standard"),
                    ("probe", "standard")),
        ),
    )
}
