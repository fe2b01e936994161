"""Span tracing for the benchmark's traced runs.

Tracer.install() replaces each public fastjl function named in TRACED, at
every module that binds it (fastjl.transforms.fwht_normalized as well as
fastjl.linalg.fwht_normalized), with a wrapper that records one span per
call: name, start, end and parent span.  BitSource draw methods are wrapped
on the class.  Spans stay in memory; write() saves them when the run ends,
and summary() derives self time (a span's duration minus its children's)
and call counts from them.  An untraced run never installs anything.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array

import numpy as np

TRACED = {
    "randomness": ("derive_stream",),
    "linalg": (
        "fwht_normalized",
        "symmetric_eigenvalues",
        "spectral_extremes",
        "least_squares",
        "circulant_rows",
    ),
    "transforms": ("build", "apply_columns", "apply_transpose_columns", "realize_dense"),
    "harness": ("jlp_failure_rate", "make_family_vector"),
    "rip": ("rip_survey", "rip_constant"),
    "privacy": (
        "publish_first_moment",
        "publish_second_moment",
        "cut_sketch",
        "cut_query",
        "lr_update",
        "lr_query",
        "mm_sketch_update",
    ),
    "attacks": ("run_attack", "gaussian_control", "distinguisher"),
    "reports": ("emit_report",),
}
DRAWS = (
    "draw_rademacher",
    "draw_gaussian",
    "draw_uniform_index",
    "draw_uniform_indices",
    "sample_permutation",
)
# Listed here rather than read from fastjl, so that the per-layer metric
# names in BENCHMARK.json do not change with the program.
KIND_TAGS = (
    "new-rademacher",
    "new-gaussian",
    "new-sparse-g",
    "dense-gaussian",
    "achlioptas-dense",
    "achlioptas-sparse",
    "fjlt",
    "subsampled-hadamard",
    "partial-circulant",
    "hash-sparse",
    "ailon-liberty",
)


def _build_tag(args, kwargs) -> str:
    kind = args[0] if args else kwargs["kind"]
    return kind.tag if hasattr(kind, "tag") else str(kind).partition(":")[0]


def _apply_tag(args, kwargs) -> str:
    return (args[0] if args else kwargs["t"]).kind.tag


# Functions whose spans carry the transform kind in their name.
TAGGED = {"transforms.build": _build_tag, "transforms.apply_columns": _apply_tag}


def span_names() -> list[str]:
    """Every span name a traced run can record."""
    names = [f"randomness.{d}" for d in DRAWS]
    for module, funcs in TRACED.items():
        for f in funcs:
            label = f"{module}.{f}"
            if label in TAGGED:
                names.extend(f"{label}.{tag}" for tag in KIND_TAGS)
            else:
                names.append(label)
    return names


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in reporting order."""
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["randomness.bits_per_op"] = "bit/op"
    units["randomness.gaussians_per_op"] = "sample/op"
    units["randomness.permutation_bits_per_entropy_bit"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.sources: list = []
        self.permutation_bits = 0
        self.permutation_entropy_bits = 0.0

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _span(self, label: str, fn, tag_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if tag_of is None else f"{label}.{tag_of(args, kwargs)}"
            i = len(self.start)
            self.name_id.append(self._id(name))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(i)
            self.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    def _count_permutation_bits(self, fn):
        @functools.wraps(fn)
        def counted(src, n):
            before = src.bits_consumed
            out = fn(src, n)
            self.permutation_bits += src.bits_consumed - before
            self.permutation_entropy_bits += math.lgamma(int(n) + 1) / math.log(2.0)
            return out

        return counted

    def _register_sources(self, init):
        @functools.wraps(init)
        def registered(src, *args, **kwargs):
            init(src, *args, **kwargs)
            self.sources.append(src)

        return registered

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fastjl"]
        for module, funcs in TRACED.items():
            owner = importlib.import_module(f"fastjl.{module}")
            for f in funcs:
                original = getattr(owner, f)
                label = f"{module}.{f}"
                wrapper = self._span(label, original, TAGGED.get(label))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        source_cls = importlib.import_module("fastjl.randomness").BitSource
        for d in DRAWS:
            fn = getattr(source_cls, d)
            if d == "sample_permutation":
                fn = self._count_permutation_bits(fn)
            self._patch(source_cls, d, self._span(f"randomness.{d}", fn))
        self._patch(source_cls, "__init__", self._register_sources(source_cls.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def draws(self) -> tuple[int, int]:
        """(bits, Gaussian samples) drawn so far by every traced BitSource."""
        bits = sum(s.bits_consumed for s in self.sources)
        gaussians = sum(s.gaussian_samples_consumed for s in self.sources)
        return bits, gaussians

    def summary(self) -> dict[str, tuple[float, int]]:
        """Span name -> (self time in seconds, call count)."""
        if not self.start:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = np.bincount(ids, weights=(dur - child).astype(float), minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {name: (own[i] / 1e9, int(calls[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0
        spans = [
            [n, s - t0, e - t0, p]
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"], "spans": spans},
                fh,
            )
