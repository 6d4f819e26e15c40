"""Spans around holderlab's public functions, for the traced run.

`Tracer.install()` wraps every public function of the layer modules (and the
methods of `PressureCurve`) and rebinds each wrapper in every holderlab
namespace that holds the original, so calls between modules and inside a
module pass through it too.  Nothing under src/ changes; `uninstall()` puts
the originals back.  Each call records a span (layer, name, start, end,
parent, job id) in memory; hooks read arguments and results where a layer
metric needs them.  A layer's self time is its spans' duration minus the part
of it their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("ifs", "transition", "takagi", "thermo", "exponents", "conjugacy",
          "cli", "cache")
TRACED_CLASSES = {"thermo": ("PressureCurve",)}

# name, unit: the per-layer metrics the traced run reports, in order
METRICS = (
    ("ifs.calls", "count"), ("ifs.self_s", "s"), ("ifs.hull_calls", "count"),
    ("transition.cdf_points", "count"),
    ("transition.cdf_ns_per_point", "ns"),
    ("transition.points_per_cdf_call", "count"),
    ("transition.seminorm_pairs", "count"), ("transition.seminorm_s", "s"),
    ("transition.gap_probe_s", "s"),
    ("takagi.point_evals", "count"), ("takagi.point_us", "us"),
    ("takagi.series_terms", "count"), ("takagi.growth_constant_s", "s"),
    ("thermo.root_solves", "count"), ("thermo.self_s", "s"),
    ("thermo.spectrum_points", "count"), ("thermo.clamped_points", "count"),
    ("thermo.empty_points", "count"),
    ("exponents.samples", "count"), ("exponents.evaluate_calls", "count"),
    ("exponents.evaluate_points", "count"),
    ("conjugacy.phi_calls", "count"), ("conjugacy.phi_us", "us"),
    ("cli.self_s", "s"), ("cli.exit_1", "count"), ("cli.exit_2", "count"),
    ("cli.bytes_written", "bytes"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"), ("cache.self_s", "s"),
    ("import.holderlab_s", "s"), ("import.scipy_s", "s"),
    ("trace.overhead_s", "s"),
)


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _cdf_points(tracer, fn, args, kwargs, result):
    tracer.counts["transition.cdf_points"] += int(np.size(result))


def _seminorm_pairs(tracer, fn, args, kwargs, result):
    if _arg(fn, args, kwargs, "mode") == "pairs":
        n = _arg(fn, args, kwargs, "h").nodes.size
        tracer.counts["transition.seminorm_pairs"] += n * (n + 1) // 2


def _series_terms(tracer, fn, args, kwargs, result):
    tracer.counts["takagi.series_terms"] += sum(g.terms for g in result.values())


def _spectrum_point(tracer, fn, args, kwargs, result):
    tracer.counts["thermo.clamped_points"] += int(result.clamped)
    tracer.counts["thermo.empty_points"] += int(result.empty)


def _samples(tracer, fn, args, kwargs, result):
    tracer.counts["exponents.samples"] += len(result.points)


def _cli_exit(tracer, fn, args, kwargs, result):
    if result in (1, 2):
        tracer.counts[f"cli.exit_{result}"] += 1


HOOKS = {
    "transition.cdf_values": _cdf_points,
    "transition.holder_seminorm": _seminorm_pairs,
    "takagi.derivative_grids": _series_terms,
    "thermo.spectrum_point": _spectrum_point,
    "exponents.sample_typical": _samples,
    "cli.main": _cli_exit,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [layer, name, start, end, parent index, job]
        self.stack = []
        self.job = None
        self.active = False
        self.counts = Counter()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, layer, name, fn, *args, **kwargs):
        rec = [layer, name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, layer, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.span(layer, name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_cached_bytes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(key, producer, *args, **kwargs):
            if not tracer.active:
                return fn(key, producer, *args, **kwargs)
            produced = []

            def traced_producer():
                produced.append(True)
                return tracer.span("cli", "cli.produce", producer)

            body = tracer.span("cache", "cache.cached_bytes", fn, key,
                               traced_producer, *args, **kwargs)
            tracer.counts["cache.misses" if produced else "cache.hits"] += 1
            return body

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        import holderlab

        modules = {layer: importlib.import_module(f"holderlab.{layer}")
                   for layer in LAYERS}
        namespaces = [holderlab, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = (self._wrap_cached_bytes(obj)
                           if name == "cache.cached_bytes"
                           else self._wrap(layer, name, obj))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._undo.append((ns, key, obj))
                            setattr(ns, key, wrapped)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._undo.append((cls, attr, obj))
                        setattr(cls, attr, self._wrap(
                            layer, f"{layer}.{cls_name}.{attr}", obj))
        return self

    def uninstall(self):
        for ns, key, obj in reversed(self._undo):
            setattr(ns, key, obj)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for i, rec in enumerate(self.spans):
            if rec[4] >= 0:
                children[rec[4]].append(i)
        out = []
        for i, (_, _, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in children.get(i, ()):
                cs, ce = max(self.spans[c][2], reach), min(self.spans[c][3], end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append(end - start - covered)
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric that spans and counters give (the import
        and overhead metrics come from the runner)."""
        self_t = self.self_times()
        layer_self = defaultdict(float)
        calls = Counter()
        total = defaultdict(float)
        for rec, st in zip(self.spans, self_t):
            layer, name, start, end = rec[:4]
            layer_self[layer] += st
            calls[layer] += 1
            calls[name] += 1
            total[name] += end - start
        c = self.counts
        hits, misses = c["cache.hits"], c["cache.misses"]
        points = c["transition.cdf_points"]
        cdf_calls = calls["transition.cdf_values"]

        def mean_us(name):
            return total[name] / calls[name] * 1e6 if calls[name] else 0.0

        return {
            "ifs.calls": calls["ifs"],
            "ifs.self_s": layer_self["ifs"],
            "ifs.hull_calls": calls["ifs.attractor_hull"]
                              + calls["ifs.hull_preimages"],
            "transition.cdf_points": points,
            "transition.cdf_ns_per_point":
                total["transition.cdf_values"] / points * 1e9 if points else 0.0,
            "transition.points_per_cdf_call":
                points / cdf_calls if cdf_calls else 0.0,
            "transition.seminorm_pairs": c["transition.seminorm_pairs"],
            "transition.seminorm_s": total["transition.holder_seminorm"],
            "transition.gap_probe_s": total["transition.gap_probe"],
            "takagi.point_evals": calls["takagi.eval_derivative_point"],
            "takagi.point_us": mean_us("takagi.eval_derivative_point"),
            "takagi.series_terms": c["takagi.series_terms"],
            "takagi.growth_constant_s": total["takagi.growth_constant"],
            "thermo.root_solves": calls["thermo.solve_pressure_root"],
            "thermo.self_s": layer_self["thermo"],
            "thermo.spectrum_points": calls["thermo.spectrum_point"],
            "thermo.clamped_points": c["thermo.clamped_points"],
            "thermo.empty_points": c["thermo.empty_points"],
            "exponents.samples": c["exponents.samples"],
            "conjugacy.phi_calls": calls["conjugacy.phi"],
            "conjugacy.phi_us": mean_us("conjugacy.phi"),
            "cli.self_s": layer_self["cli"],
            "cli.exit_1": c["cli.exit_1"],
            "cli.exit_2": c["cli.exit_2"],
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.self_s": layer_self["cache"],
        }

    def write(self, path: Path):
        """Spans as gzipped JSON lines, with self time, once the run is over."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec, st in zip(self.spans, self.self_times()):
                layer, name, start, end, parent, job = rec
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "self": st}) + "\n")
