"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own code: the tracer replaces the
library's public functions with timing wrappers at every place a module binds
them. Modules import by name (``from .dfm_solver import discretize``), so
patching only the defining module would miss the call sites; every loaded
``dfm_upscale`` module whose namespace holds the same function object gets
the wrapper. A site whose name no longer exists is reported as missing, so
the traced run keeps working across refactors that rename or remove a
function.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "dfm_upscale"


def _length(obj):
    try:
        return len(obj)
    except TypeError:
        return None


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _probe_clip(args, kwargs, result):
    network = _arg(args, kwargs, 0, "network")
    return {"tested": 0 if network is None else _length(network),
            "kept": _length(result)}


def _probe_discretize(args, kwargs, result):
    elems = getattr(result, "frac_elems", None)
    return {"frac_elems": None if elems is None else _length(elems),
            "dofs": getattr(result, "n_dofs", None),
            "merged": getattr(result, "merged_fractures", None),
            "dropped": getattr(result, "dropped_fractures", None)}


def _probe_forward(args, kwargs, result):
    batch = _arg(args, kwargs, 1, "batch")  # args[0] is the model
    shape = getattr(batch, "shape", None)
    return {"images": shape[0] if shape else None}


def _probe_upscale(args, kwargs, result):
    projected = None
    if isinstance(result, tuple) and len(result) >= 3:
        projected = result[2]
    return {"projected": projected}


def _probe_dfn(args, kwargs, result):
    return {"fractures": _length(result)}


# span name -> (defining module, attribute path, probe or None)
SITES = {
    "bench.fine_model": ("bench", "fine_model", None),
    "homogenizer.upscale_domain": ("homogenizer", "upscale_domain",
                                   _probe_upscale),
    "homogenizer.clip_network": ("homogenizer", "clip_network", _probe_clip),
    "homogenizer.anisotropy_tensor": ("homogenizer", "anisotropy_tensor",
                                      None),
    "homogenizer.write_block_csv": ("homogenizer", "write_block_csv", None),
    "dfm_solver.discretize": ("dfm_solver", "discretize", _probe_discretize),
    "dfm_solver.solve_darcy": ("dfm_solver", "solve_darcy", None),
    "rasterizer.rasterize_block": ("rasterizer", "rasterize_block", None),
    "geometry.supercover_cells": ("geometry", "supercover_cells", None),
    "dataset_pipeline.preprocess": ("dataset_pipeline", "preprocess", None),
    "surrogate.forward": ("surrogate.model", "SurrogateModel.forward",
                          _probe_forward),
    "random_field.save_tensor_field": ("random_field", "save_tensor_field",
                                       None),
    "random_field.sample_tensor_field": ("random_field",
                                         "sample_tensor_field", None),
    "frac_geom.generate_dfn": ("frac_geom", "generate_dfn", _probe_dfn),
    "dataset_pipeline.generate_sample": ("dataset_pipeline",
                                         "generate_sample", None),
    "dataset_pipeline.generate_dataset": ("dataset_pipeline",
                                          "generate_dataset", None),
    "dataset_pipeline.compute_stats": ("dataset_pipeline", "compute_stats",
                                       None),
}

ROOT = "cli.main"


class Tracer:
    """In-memory spans ``[name, start, end, parent, counts]``; one list per
    operation, reset between operations by :meth:`begin`."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    # -- installation --------------------------------------------------
    def install(self):
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.walk_packages(package.__path__, PACKAGE + "."):
            importlib.import_module(info.name)
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for span, (module, path, probe) in SITES.items():
            owner, attr, original = _resolve(f"{PACKAGE}.{module}", path)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original, probe)
            if isinstance(owner, type):  # a method: patch the class only
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap(self, name, fn, probe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                record[4] = probe(args, kwargs, result)
            return result

        return wrapper

    # -- one operation -------------------------------------------------
    def begin(self):
        self.spans.clear()
        self._stack.clear()

    def run_root(self, fn, *args):
        """Call ``fn`` inside the operation's root span."""
        return self._wrap(ROOT, fn, None)(*args)


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted path, or Nones if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    return owner, parts[-1], getattr(owner, parts[-1], None)


def summarize(spans) -> dict:
    """Per-span-name self time, inclusive time, call count and probe
    counts of one operation. Self time is a span's duration minus its direct children's
    durations (calls are synchronous, so children nest inside parents)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                               "counts": defaultdict(list), "absent": set()})
    for i, (name, start, end, parent, counts) in enumerate(spans):
        entry = out[name]
        entry["self_s"] += (end - start) - child[i]
        entry["total_s"] += end - start
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            if value is None:  # the returned object no longer carries it
                entry["absent"].add(key)
            else:
                entry["counts"][key].append(value)
    return dict(out)


def layer_values(summary: dict, speed_factor: float = 1.0) -> dict:
    """The per-layer metric values of one operation, keyed by metric name.
    Times are scaled by the operation's ``speed_factor`` (see speed.py).
    Names of spans that never ran read 0."""
    def get(span):
        return summary.get(span, {"self_s": 0.0, "calls": 0, "counts": {}})

    def counts(span, key):
        return get(span)["counts"].get(key, [])

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    values = {}
    for span in list(SITES) + [ROOT]:
        values[f"{span}.self_s"] = get(span)["self_s"] * speed_factor
        values[f"{span}.calls"] = get(span)["calls"]
    tested = sum(counts("homogenizer.clip_network", "tested"))
    kept = counts("homogenizer.clip_network", "kept")
    values["homogenizer.clip_network.kept_ratio"] = \
        sum(kept) / tested if tested else 0.0
    values["homogenizer.clip_network.kept"] = median(kept)
    disc = "dfm_solver.discretize"
    values[f"{disc}.frac_elems"] = median(counts(disc, "frac_elems"))
    values[f"{disc}.dofs"] = median(counts(disc, "dofs"))
    values[f"{disc}.merged"] = sum(counts(disc, "merged"))
    values[f"{disc}.dropped"] = sum(counts(disc, "dropped"))
    images = counts("surrogate.forward", "images")
    values["surrogate.forward.images_per_call"] = \
        sum(images) / len(images) if images else 0.0
    values["homogenizer.upscale_domain.projected"] = \
        sum(counts("homogenizer.upscale_domain", "projected"))
    values["frac_geom.generate_dfn.fractures"] = \
        median(counts("frac_geom.generate_dfn", "fractures"))
    return values
