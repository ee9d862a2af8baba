"""Per-layer spans and counts, recorded from outside vielab.

``Interceptor`` wraps public functions of each vielab module. Modules bind
functions by name (``from .special import greens_value``), so a wrapper
must replace the function at every binding: it scans every loaded
``vielab`` module for attributes that are the original function and
patches each one, and ``uninstall`` puts the originals back. Lookups made
at call time (``from .boundary import assemble_K`` inside a function) see
the patched defining module.

Spans are kept in memory. A span's self time is its duration minus the
time its direct child spans cover; a name's inclusive time counts only
the outermost span of that name, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the top
    label: str           # scenario running when the span opened
    start: float
    end: float = 0.0
    child: float = 0.0   # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Spans and counters of one traced pass, in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[tuple, float] = defaultdict(float)  # (name, label) -> sum
        self.maxima: Dict[str, float] = defaultdict(float)
        self.scenario = ""
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.scenario, time.perf_counter())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child += span.duration

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(name, self.scenario)] += value

    # -- aggregation -----------------------------------------------------
    def total(self, name: str, label: Optional[str] = None) -> float:
        """Sum of a counter over all scenarios, or for one."""
        return sum(v for (n, lab), v in self.counts.items()
                   if n == name and (label is None or lab == label))

    def _outermost(self, index: int) -> bool:
        name, parent = self.spans[index].name, self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return False
            parent = self.spans[parent].parent
        return True

    def inclusive(self, name: str) -> float:
        return sum(s.duration for i, s in enumerate(self.spans)
                   if s.name == name and self._outermost(i))

    def self_time(self, name: str, label: Optional[str] = None) -> float:
        return sum(s.self_time for s in self.spans
                   if s.name == name and (label is None or s.label == label))

    def calls(self, name: str, label: Optional[str] = None) -> int:
        return sum(1 for s in self.spans
                   if s.name == name and (label is None or s.label == label))

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive and self seconds."""
        names = sorted({s.name for s in self.spans})
        return {n: {"calls": self.calls(n), "inclusive_s": self.inclusive(n),
                    "self_s": self.self_time(n)} for n in names}


# ---------------------------------------------------------------------------
# Hooks: counters read from a call's arguments or result
# ---------------------------------------------------------------------------
def _greens_value_points(tracer, args, kwargs, result):
    tracer.count("special.kernel_points", np.size(args[1] if len(args) > 1 else kwargs["r"]))
    return result


def _greens_gradient_points(tracer, args, kwargs, result):
    pts = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    tracer.count("special.kernel_points", pts.size // pts.shape[-1])
    return result


def _traced_applier(tracer, args, kwargs, applier):
    def matvec(u):
        with tracer.span("volume.matvec"):
            return applier(u)
    return matvec


def _gmres_iterations(tracer, args, kwargs, result):
    tracer.count("scattering.gmres_iters", result[1].iterations)
    return result


def _coupled_assembly(tracer, args, kwargs, result):
    tracer.count("coupled.assemblies")
    return result


def _eig_dimension(tracer, args, kwargs, result):
    tracer.maxima["spectral.eig_dim_max"] = max(tracer.maxima["spectral.eig_dim_max"],
                                                len(result[0]))
    return result


#: (defining module, function, span name or None, hook). A hook sees the
#: call's arguments and result and returns the result the caller gets.
TARGETS = (
    ("vielab.special", "greens_value", "special.kernel", _greens_value_points),
    ("vielab.special", "greens_gradient", "special.kernel", _greens_gradient_points),
    ("vielab.geometry", "build_volume_grid", "geometry.build", None),
    ("vielab.geometry", "build_boundary_mesh", "geometry.build", None),
    ("vielab.volume", "fft_kernel_tables", "volume.fft_tables", None),
    ("vielab.volume", "kernel_matrices", "volume.kernel_matrices", None),
    ("vielab.volume", "assemble_A_dense", "volume.dense_assembly", None),
    ("vielab.volume", "identity_minus_A", None, _traced_applier),
    ("vielab.boundary", "trace_matrix", "boundary.trace", None),
    ("vielab.boundary", "trace", "boundary.trace", None),
    ("vielab.boundary", "double_layer_matrix", "boundary.double_layer", None),
    ("vielab.boundary", "assemble_K", "boundary.K", None),
    ("vielab.coupled", "assemble_coupled", "coupled.assemble", _coupled_assembly),
    ("vielab.coupled", "assemble_A1", "coupled.assemble", None),
    ("vielab.spectral", "eigenvalues_dense", "spectral.eig", _eig_dimension),
    ("vielab.spectral", "condition_estimate", "spectral.condition", None),
    ("vielab.scattering", "gmres_solve", "scattering.gmres", _gmres_iterations),
    ("vielab.scattering", "extend_solution", "scattering.extend", None),
    ("vielab.cli", "write_csv", "cli.write", None),
    ("vielab.cli", "write_report", "cli.write", None),
    ("vielab.cli", "run_scenario", "cli.scenario", None),
)


def _wrap(tracer: Tracer, original: Callable, span: Optional[str], hook) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if span is None:
            result = original(*args, **kwargs)
        else:
            with tracer.span(span):
                result = original(*args, **kwargs)
        return hook(tracer, args, kwargs, result) if hook else result
    wrapper.bench_original = original
    return wrapper


def vielab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vielab" or name.startswith("vielab."))]


class Interceptor:
    """Installs ``TARGETS`` wrappers at every binding; use as a context."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("interceptor already installed")
        for modname in {t[0] for t in TARGETS}:
            importlib.import_module(modname)
        modules = vielab_modules()
        for modname, attr, span, hook in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapped = _wrap(self.tracer, original, span, hook)
            bindings = [(m, key) for m in modules for key, val in vars(m).items()
                        if val is original]
            for module, key in bindings:
                self._patches.append((module, key, original))
                setattr(module, key, wrapped)
        domain_cls = sys.modules["vielab.geometry"].DomainGeometry
        contains = domain_cls.contains
        tracer = self.tracer

        @functools.wraps(contains)
        def counted_contains(domain, points):
            tracer.count("geometry.contains_calls")
            return contains(domain, points)

        self._patches.append((domain_cls, "contains", contains))
        domain_cls.contains = counted_contains

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Interceptor":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def cache_totals() -> Dict[str, int]:
    """Hits and misses summed over every ``lru_cache`` in vielab."""
    seen = {}
    for module in vielab_modules():
        for val in vars(module).values():
            fn = getattr(val, "bench_original", val)
            if callable(getattr(fn, "cache_info", None)):
                seen[id(fn)] = fn
    infos = [fn.cache_info() for fn in seen.values()]
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


def cache_misses(fn: Callable) -> int:
    return getattr(fn, "bench_original", fn).cache_info().misses
