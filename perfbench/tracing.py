"""Layer tracing from outside the package.

install() swaps the package's public functions for timing wrappers in
every module namespace that holds them, so calls made through names
imported with `from ... import` are seen too, and replaces the kernel
alias `K` in matroid, presentation and recognize with a proxy of timed
kernel functions.  Calls inside the kernel module itself stay unwrapped
(greedy_rank under closure_mask is not a span), so `kernels.*` counts
only calls that cross the layer boundary.  Nothing under src/ changes.

Spans are kept in memory as [id, parent, op, name, start, end] and
written out by the caller when the run ends.
"""

from __future__ import annotations

import json
import types
from collections import Counter, defaultdict
from time import perf_counter

# Module-level functions, by defining layer.  Each is patched wherever
# the package holds a reference to it.
FUNCTIONS = {
    "recognize": (
        "classify", "is_laminar", "is_nested", "classify_dual_laminar",
        "classify_binary_laminar", "classify_ternary_laminar", "excluded_minor_witness",
    ),
    "presentation": ("canonicalize", "canonical_from_matroid"),
    "constructions": ("deconstruct", "run_script", "excluded_minor", "uniform"),
    "matroid": ("build_matroid", "has_minor"),
}
# Span name -> formats functions it covers.
FORMATS = {
    "formats.parse": ("parse_ckt", "parse_lam", "parse_mbs"),
    "formats.render": ("render_ckt", "render_lam", "render_mbs", "render_set"),
}
METHODS = {
    ("matroid", "ExplicitMatroid"): ("minor", "dual", "cyclic_flats", "restrict", "truncate", "components"),
    ("presentation", "LaminarPresentation"): ("to_explicit", "rank", "max_weight_independent"),
}
# popcount is one int.bit_count() call, made in inner loops; a span
# around it would cost more than the work.  submasks_of_size is a
# generator, so a span would close before any work is done.
KERNEL_UNTIMED = ("popcount", "submasks_of_size")

# The per-layer metrics the traced run reports (see README.md).
PER_LAYER = (
    "kernels.find_minor_s", "kernels.find_minor_calls", "kernels.find_minor_hit_ratio",
    "matroid.has_minor_s", "recognize.classify_binary_laminar_s",
    "recognize.classify_ternary_laminar_s", "recognize.excluded_minor_witness_s",
    "kernels.cyclic_flat_masks_s", "kernels.cyclic_flat_masks_calls",
    "matroid.cyclic_flats_repeat_ratio", "kernels.closure_mask_s", "kernels.closure_mask_calls",
    "kernels.closure_mask_repeat_ratio", "recognize.is_laminar_s", "recognize.is_laminar_calls",
    "recognize.is_nested_s", "recognize.classify_dual_laminar_s", "kernels.cocircuit_masks_s",
    "matroid.dual_s", "kernels.truncation_circuits_s", "kernels.greedy_rank_calls",
    "kernels.laminar_circuit_masks_s", "kernels.laminar_circuit_masks_calls",
    "presentation.canonicalize_s", "presentation.to_explicit_s",
    "presentation.canonical_from_matroid_s", "presentation.rank_s", "presentation.rank_calls",
    "constructions.deconstruct_s", "constructions.run_script_s",
    "matroid.build_matroid_s", "matroid.build_matroid_calls", "kernels.verify_antichain_s",
    "kernels.verify_elimination_s", "formats.parse_s", "matroid.minor_s",
    "kernels.minor_circuits_s", "formats.render_s",
    "cli.self_s", "formats.self_s", "recognize.self_s", "presentation.self_s",
    "constructions.self_s", "matroid.self_s", "kernels.self_s",
    "trace.overhead_ratio",
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    return "count" if metric.endswith("_calls") else "ratio"


class Recorder:
    """Spans plus per-op repeat counts and hit counts, all in memory."""

    def __init__(self):
        self.spans = []
        self.on = False
        self.op = None
        self._stack = []
        self._seen = defaultdict(set)
        self.repeats = Counter()
        self.hits = Counter()

    def begin_op(self, op):
        """Start a new op: repeats are counted within one op only."""
        self.op = op
        self._seen.clear()

    def wrap(self, name, fn, key=None, hit=None):
        """fn timed as span `name`; key(args) marks repeated inputs,
        hit(result) marks useful outcomes."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if key is not None:
                k = key(*args, **kwargs)
                seen = self._seen[name]
                if k in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(k)
            span = [len(self.spans), self._stack[-1] if self._stack else None, self.op, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Span duration minus the durations of its direct children."""
        own = [end - start for _, _, _, _, start, end in self.spans]
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_time_error(self):
        """Largest gap over ops between the op's traced duration and the
        sum of its spans' self times; zero up to rounding."""
        per_op = Counter()
        for span, t in zip(self.spans, self.self_times()):
            per_op[span[2]] += t
        roots = (s for s in self.spans if s[1] is None)
        return max((abs(per_op[s[2]] - (s[5] - s[4])) for s in roots), default=0.0)

    def metrics(self, overhead_ratio):
        own = self.self_times()
        self_s, calls, layer_s = Counter(), Counter(), Counter()
        for span, t in zip(self.spans, own):
            name = span[3]
            self_s[name] += t
            calls[name] += 1
            layer_s[name.partition(".")[0]] += t
        out = {}
        for metric in PER_LAYER:
            name, _, stat = metric.rpartition("_")
            if metric == "trace.overhead_ratio":
                value = overhead_ratio
            elif metric.endswith(".self_s"):
                value = layer_s[metric.partition(".")[0]]
            elif stat == "s":
                value = self_s[name]
            elif stat == "calls":
                value = calls[name]
            else:
                base, _, kind = name.rpartition("_")
                counts = self.hits if kind == "hit" else self.repeats
                value = counts[base] / calls[base] if calls[base] else 0.0
            out[metric] = value
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _closure_key(circuits, x, n):
    return (tuple(circuits), x, n)


def install(rec):
    """Patch the imported package for tracing; returns the traced cli.main."""
    from laminarmatroids import _backend, cli, constructions, formats, matroid
    from laminarmatroids import presentation, recognize

    modules = {
        "cli": cli, "formats": formats, "recognize": recognize, "presentation": presentation,
        "constructions": constructions, "matroid": matroid,
    }

    def patch_everywhere(original, wrapper):
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for layer, names in FUNCTIONS.items():
        for name in names:
            original = getattr(modules[layer], name)
            patch_everywhere(original, rec.wrap(f"{layer}.{name}", original))
    for span, names in FORMATS.items():
        for name in names:
            original = getattr(formats, name)
            patch_everywhere(original, rec.wrap(span, original))
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for name in names:
            key = (lambda self: self) if name == "cyclic_flats" else None
            setattr(cls, name, rec.wrap(f"{layer}.{name}", getattr(cls, name), key=key))

    kernels = _backend.kernels
    proxy = types.SimpleNamespace()
    for name, value in vars(kernels).items():
        if callable(value) and not name.startswith("_") and name not in KERNEL_UNTIMED:
            key = _closure_key if name == "closure_mask" else None
            hit = (lambda r: r is not None) if name == "find_minor" else None
            value = rec.wrap(f"kernels.{name}", value, key=key, hit=hit)
        setattr(proxy, name, value)
    for module in modules.values():
        if getattr(module, "K", None) is kernels:
            module.K = proxy
    return rec.wrap("cli.main", cli.main)
