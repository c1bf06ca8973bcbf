"""Span tracing for the benchmark's traced run, installed from outside the
program.

`Tracer.install` wraps every public function, and every public method of
every public class, defined in the layer modules of biasreid. It rebinds
each name wherever a loaded biasreid module refers to it, so calls made
through `from .x import f` are traced too. Each call records one span
(name, layer, parent span, start, end) in memory; `uninstall` puts the
original objects back. Per-layer metrics are derived from the spans.
`span_cost_s` gives the added cost of one traced call, from which the
benchmark derives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("dataset", "losses", "numerics", "trainer", "embedder", "evaluation")
PACKAGE = "biasreid"

# per-layer metric -> traced function whose inclusive time it sums
TIMED = {
    "dataset.gen_s": "dataset.generate_synthetic",
    "dataset.split_s": "dataset.split_query_gallery",
    "dataset.csv_save_s": "dataset.save_dataset",
    "dataset.csv_load_s": "dataset.load_dataset",
    "dataset.draw_s": "dataset.PKSampler.draw",
    "losses.combined_s": "losses.combined_loss",
    "losses.sqdist_s": "losses.pairwise_sqdist",
    "numerics.encode_s": "numerics.encode",
    "numerics.backprop_s": "numerics.backprop",
    "numerics.adam_s": "numerics.adam_step",
    "trainer.train_s": "trainer.Trainer.run",
    "trainer.ckpt_save_s": "trainer.checkpoint_save",
    "trainer.ckpt_load_s": "trainer.checkpoint_load",
    "embedder.embed_s": "embedder.embed_all",
    "embedder.concat_s": "embedder.concat",
    "embedder.save_s": "embedder.save_embeddings",
    "embedder.load_s": "embedder.load_embeddings",
    "evaluation.rank_s": "evaluation.rank_gallery",
    "evaluation.cmc_map_s": "evaluation.cmc_map",
    "evaluation.curves_s": "evaluation.same_bias_rank_prob",
    "evaluation.probe_s": "evaluation.fit_probe",
}

# per-layer metric -> traced function whose calls it counts
COUNTED = {
    "losses.calls": "losses.combined_loss",
    "losses.sqdist_calls": "losses.pairwise_sqdist",
    "numerics.backprop_calls": "numerics.backprop",
    "dataset.draws": "dataset.PKSampler.draw",
    "trainer.batches": "trainer.Trainer.batch_loss",
}


def _combined_note(result, args):
    return (result.reid.selection.active_fraction, result.bias.selection.active_fraction,
            result.bias.n_skipped, len(result.grads))


def _rank_note(result, args):
    return result.n_queries, result.dropped, int((args[0].splits == "gallery").sum())


# traced function -> extracts the scalars kept from each call's result
NOTES = {"losses.combined_loss": _combined_note, "evaluation.rank_gallery": _rank_note}


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float = 0.0
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = len(self.spans)
        sp = Span(name, layer, self._stack[-1] if self._stack else -1)
        self.spans.append(sp)
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, layer: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if note is not None:
                self.notes[name].append(note(result, args))
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", layer, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive times, exact counts, ratios and per-layer self time."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: list[float] = [0.0] * len(self.spans)
        for sp in self.spans:
            total[sp.name] += sp.end - sp.start
            calls[sp.name] += 1
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out = {metric: total[fn] for metric, fn in TIMED.items()}
        out.update({metric: float(calls[fn]) for metric, fn in COUNTED.items()})

        self_s: dict[str, float] = defaultdict(float)
        for sp, inner in zip(self.spans, child):
            self_s[sp.layer] += sp.end - sp.start - inner
        for layer in ("cli",) + LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]

        loss_ms = sorted((sp.end - sp.start) * 1e3 for sp in self.spans
                         if sp.name == "losses.combined_loss")
        out["losses.combined_ms_p50"] = _quantile(loss_ms, 0.50)
        out["losses.combined_ms_p99"] = _quantile(loss_ms, 0.99)
        loss = self.notes["losses.combined_loss"]
        rows = sum(n[3] for n in loss)
        out["losses.active_frac_dr"] = _mean([n[0] for n in loss])
        out["losses.active_frac_db"] = _mean([n[1] for n in loss])
        out["losses.skipped_anchor_frac"] = sum(n[2] for n in loss) / rows if rows else 0.0

        out["dataset.redraws"] = float(calls["dataset.PKSampler.draw"]
                                       - calls["trainer.Trainer.draw_batch"])
        batches = calls["trainer.Trainer.batch_loss"]
        out["trainer.zero_grad_batch_frac"] = (
            (batches - calls["numerics.backprop"]) / batches if batches else 0.0)
        train_s = total["trainer.Trainer.run"]
        out["trainer.rows_per_s"] = rows / train_s if train_s else 0.0

        ranks = self.notes["evaluation.rank_gallery"]
        out["evaluation.queries"] = float(sum(n[0] for n in ranks))
        out["evaluation.dropped_queries"] = float(sum(n[1] for n in ranks))
        out["evaluation.gallery"] = float(max((n[2] for n in ranks), default=0))
        eval_s = total["cli.eval"] + total["cli.stats"]
        out["evaluation.queries_per_s"] = out["evaluation.queries"] / eval_s if eval_s else 0.0
        return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0 for no samples."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_cost_s(calls: int = 20000, rounds: int = 9) -> float:
    """Seconds one traced call adds to a plain one: the median over rounds
    of a no-op function wrapped the way `Tracer.install` wraps the program's
    functions, timed against the same function unwrapped. Rounds alternate
    the two, so a drift of the host moves both alike."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("calibration.noop", "calibration", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)
