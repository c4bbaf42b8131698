"""Span tracer that wraps the program's public functions from outside.

Nothing in the program is traced by itself: `Tracer.install` replaces each
target function in every `aeaudit` module namespace that holds it (callers
that imported a name directly look it up there), and each target method on
its class. `Tracer.uninstall` puts the originals back.

Spans are kept in memory as (name, start, end, parent) and written as JSONL
when the run ends. Counts that only a return value or an argument shape can
tell (rows loaded, grid nodes, conv FLOPs, infeasible PGD results) are
recorded by small hooks at the same boundaries.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name). The attribute path has a dot for methods.
FUNCTION_TARGETS = [
    ("rng", "derive_seed", "rng.derive_seed"),
    ("rng", "Rng.permutation", "rng.Rng.permutation"),
    ("training", "train", "training.train"),
    ("training", "backward", "training.backward"),
    ("training", "Adam.step", "training.Adam.step"),
    ("training", "input_gradient", "training.input_gradient"),
    ("layers", "DenseLayer.forward", "layers.dense.forward"),
    ("layers", "DenseLayer.backward", "layers.dense.backward"),
    ("layers", "Conv2dLayer.forward", "layers.conv2d.forward"),
    ("layers", "Conv2dLayer.backward", "layers.conv2d.backward"),
    ("layers", "Upconv2dLayer.forward", "layers.upconv2d.forward"),
    ("layers", "Upconv2dLayer.backward", "layers.upconv2d.backward"),
    ("models", "encode_batch", "models.encode_batch"),
    ("models", "decode_batch", "models.decode_batch"),
    ("models", "forward_batch", "models.forward_batch"),
    ("models", "pca_fit", "models.pca_fit"),
    ("models", "load_model", "models.load_model"),
    ("models", "save_model", "models.save_model"),
    ("numlin", "svd", "numlin.svd"),
    ("numlin", "nearest_row", "numlin.nearest_row"),
    ("numlin", "pairwise_min_distance", "numlin.pairwise_min_distance"),
    ("datagen", "load_csv", "datagen.load_csv"),
    ("datagen", "load_mnist", "datagen.load_mnist"),
    ("anomaly", "sample_scores", "anomaly.sample_scores"),
    ("anomaly", "score", "anomaly.score"),
    ("audit", "scan_input_space", "audit.scan_input_space"),
    ("audit", "scan_latent_space", "audit.scan_latent_space"),
    ("audit", "extract_regions", "audit.extract_regions"),
    ("audit", "write_grid_csv", "audit.write_grid_csv"),
    ("audit", "write_audit_report", "audit.write_audit_report"),
    ("audit", "render_heatmap", "audit.render_heatmap"),
    ("adversary", "pgd_adversary", "adversary.pgd_adversary"),
    ("adversary", "construct_pca_adversary", "adversary.construct_pca_adversary"),
    ("adversary", "latent_decode_adversary", "adversary.latent_decode_adversary"),
    ("cli", "cmd_gen_data", "cli.gen_data"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_audit", "cli.audit"),
    ("cli", "cmd_attack", "cli.attack"),
]

CONV_KINDS = ("conv2d", "upconv2d")


def _conv_forward_flops(layer, batch: int) -> float:
    """Multiply-adds x2 of one conv or transposed-conv forward pass."""
    k2 = layer.kernel * layer.kernel
    if layer.kind == "conv2d":
        co, ho, wo = layer.out_shape
        return 2.0 * batch * co * ho * wo * layer.in_shape[0] * k2
    ci, h, w = layer.in_shape
    return 2.0 * batch * ci * h * w * layer.out_shape[0] * k2


def _record_hooks(tracer: "Tracer") -> dict:
    """Per-span-name hooks: (args, result) -> None, adding to tracer.counts."""
    c = tracer.counts

    def conv_fwd(kind):
        def hook(args, result):
            c[f"layers.{kind}.forward.flop"] += _conv_forward_flops(args[0], args[1].shape[0])
        return hook

    def conv_bwd(kind):
        def hook(args, result):
            # weight gradient plus input gradient: two forward-sized contractions
            c[f"layers.{kind}.backward.flop"] += 2.0 * _conv_forward_flops(
                args[0], args[1].shape[0]
            )
        return hook

    def rows_of(key, value):
        def hook(args, result):
            c[key] += value(args, result)
        return hook

    def pgd(args, result):
        if not result.search_failed and result.min_dist_to_train <= result.delta_requested:
            c["adversary.pgd.infeasible"] += 1

    return {
        "layers.conv2d.forward": conv_fwd("conv2d"),
        "layers.conv2d.backward": conv_bwd("conv2d"),
        "layers.upconv2d.forward": conv_fwd("upconv2d"),
        "layers.upconv2d.backward": conv_bwd("upconv2d"),
        "datagen.load_csv": rows_of("datagen.load_csv.rows", lambda a, r: r.num_samples),
        "anomaly.sample_scores": rows_of(
            "anomaly.sample_scores.rows", lambda a, r: int(r.shape[0])
        ),
        "audit.scan_input_space": rows_of("audit.grid_nodes", lambda a, r: int(r.losses.size)),
        "audit.scan_latent_space": rows_of("audit.grid_nodes", lambda a, r: int(r.losses.size)),
        "audit.extract_regions": rows_of(
            "audit.region_cells", lambda a, r: sum(len(reg.cells) for reg in r)
        ),
        "adversary.pgd_adversary": pgd,
    }


class Tracer:
    """In-memory spans plus counters; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list = []
        self._hooks = _record_hooks(self)
        self.enabled = True

    def start_round(self) -> int:
        """Reset the counters; returns the index of the round's first span."""
        self.counts.clear()
        return len(self.spans)

    @contextmanager
    def paused(self):
        """Run program calls that are not part of a timed stage untraced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "aeaudit" or n.startswith("aeaudit.")]
        for mod_name, path, name in FUNCTION_TARGETS:
            owner = sys.modules[f"aeaudit.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def span_totals(spans: list, first: int = 0) -> dict:
    """Per name: calls, busy_s (summed duration) and self_s (minus direct children)."""
    busy: defaultdict = defaultdict(float)
    child: defaultdict = defaultdict(float)
    calls: defaultdict = defaultdict(int)
    for idx in range(first, len(spans)):
        name, start, end, parent = spans[idx]
        busy[name] += end - start
        calls[name] += 1
        if parent >= first:
            child[spans[parent][0]] += end - start
    return {
        name: {"calls": calls[name], "busy_s": busy[name], "self_s": busy[name] - child[name]}
        for name in busy
    }


def pgd_steps(spans: list, first: int = 0) -> int:
    """input_gradient calls made directly by pgd_adversary."""
    return sum(
        1
        for name, _, _, parent in spans[first:]
        if name == "training.input_gradient"
        and parent >= 0
        and spans[parent][0] == "adversary.pgd_adversary"
    )


# Per-layer metrics read from span totals: "<span name>.<calls|busy_s|self_s>".
SPAN_METRICS = (
    "rng.derive_seed.calls",
    "rng.derive_seed.busy_s",
    "rng.Rng.permutation.busy_s",
    "training.train.self_s",
    "training.backward.calls",
    "training.backward.busy_s",
    "training.Adam.step.busy_s",
    "training.input_gradient.calls",
    "training.input_gradient.busy_s",
    *(f"layers.{kind}.{phase}.busy_s" for kind in ("dense", *CONV_KINDS) for phase in ("forward", "backward")),
    "models.encode_batch.busy_s",
    "models.decode_batch.busy_s",
    "models.forward_batch.busy_s",
    "models.load_model.busy_s",
    "models.save_model.busy_s",
    "numlin.svd.calls",
    "numlin.svd.busy_s",
    "numlin.nearest_row.calls",
    "numlin.nearest_row.busy_s",
    "numlin.pairwise_min_distance.busy_s",
    "datagen.load_csv.busy_s",
    "datagen.load_mnist.busy_s",
    "anomaly.sample_scores.busy_s",
    "anomaly.score.busy_s",
    "audit.scan_input_space.busy_s",
    "audit.scan_latent_space.busy_s",
    "audit.extract_regions.busy_s",
    "audit.write_grid_csv.busy_s",
    "audit.write_audit_report.busy_s",
    "audit.render_heatmap.busy_s",
    "adversary.pgd_adversary.busy_s",
    "adversary.construct_pca_adversary.busy_s",
    "adversary.latent_decode_adversary.busy_s",
    "cli.train.self_s",
    "cli.audit.self_s",
    "cli.attack.self_s",
)
# Per-layer metrics counted by the hooks.
COUNT_METRICS = (
    "datagen.load_csv.rows",
    "anomaly.sample_scores.rows",
    "audit.grid_nodes",
    "audit.region_cells",
    "adversary.pgd.infeasible",
)


def layer_metrics(spans: list, first: int, counts: dict) -> dict:
    """The per-layer metric values of one traced round, by metric name."""
    totals = span_totals(spans, first)
    out = {}
    for metric in SPAN_METRICS:
        name, quantity = metric.rsplit(".", 1)
        out[metric] = float(totals[name][quantity]) if name in totals else 0.0
    for metric in COUNT_METRICS:
        out[metric] = float(counts.get(metric, 0))
    out["adversary.pgd.steps"] = float(pgd_steps(spans, first))
    for kind in CONV_KINDS:
        for phase in ("forward", "backward"):
            busy = out[f"layers.{kind}.{phase}.busy_s"]
            flop = counts.get(f"layers.{kind}.{phase}.flop", 0.0)
            out[f"layers.{kind}.{phase}.gflop_per_s"] = flop / busy / 1e9 if busy > 0 else 0.0
    return out


def median_metrics(per_round: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
