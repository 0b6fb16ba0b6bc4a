"""Wrapper tracer for the benchmark's traced runs.

The library is not instrumented; the tracer replaces the public functions
of each layer with timing wrappers for the duration of a traced round and
puts the originals back afterwards.  Several modules import functions by
name (``z2`` binds ``occupied_frame`` and ``pfaffian``, ``berry`` binds
``eigh`` and the smooth-gauge builders), so a function is replaced at every
module of the package that binds it, not only where it is defined.
Methods are replaced on their classes.

Every call records its wall time, and its self time (duration minus the
time covered by wrapped calls made inside it) is derived online from a
stack.  Calls of the coarse layer functions are also kept as spans
``(id, name, start, end, parent id, request id)`` for the span file; the
hot leaf functions (one call per momentum point or per transported frame)
are only aggregated, which keeps a traced run's memory flat.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import prod
from time import perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0       # a layer-specific count: k-points, n^3, sites


def _grid_points(args, kwargs):
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return prod(grid.sizes)


def _eigh_n3(args, kwargs):
    shape = args[0].shape
    return prod(shape[:-2]) * shape[-1] ** 3


def _pairing_sites(args, kwargs):
    cutoff = kwargs.get("cutoff", args[1] if len(args) > 1 else None)
    return (2 * cutoff + 1) ** 3


# (layer name, module of the definition, attribute, hot, work counter)
FUNCTIONS = [
    ("model.check_trs", "topoindex.model", "check_trs", False, None),
    ("linalg.eigh", "topoindex.linalg", "eigh", True, None),
    ("linalg.pfaffian", "topoindex.linalg", "pfaffian", True, None),
    ("berry.occupied_frame", "topoindex.berry", "occupied_frame", False, _grid_points),
    ("berry.curvature", "topoindex.berry", "berry_curvature_field", False, None),
    ("gauge.smooth2d", "topoindex._gauge", "smooth_frames_2d", False, None),
    ("gauge.smooth3d", "topoindex._gauge", "smooth_frames_3d", False, None),
    ("gauge.transport", "topoindex._gauge", "transport", True, None),
    ("z2.sewing_field", "topoindex.z2", "sewing_field", False, None),
    ("z2.kane_mele_nu", "topoindex.z2", "kane_mele_nu", False, None),
    ("z2.strong_weak", "topoindex.z2", "strong_and_weak_indices_3d", False, None),
    ("z2.wannier", "topoindex.z2", "wannier_center_flow", False, None),
    ("z2.boundary", "topoindex.windex", "boundary_index_2d", False, None),
    ("windex.winding3d", "topoindex.windex", "winding3d", False, None),
    ("spectral.edge_parity", "topoindex.spectral", "edge_crossing_parity", False, None),
    ("spectral.ribbon_csv", "topoindex.spectral", "ribbon_spectrum_csv", False, None),
    ("nctorus.pairing_1d", "topoindex.nctorus", "nc_index_pairing_1d", False, None),
    ("nctorus.pairing_3d", "topoindex.nctorus", "nc_index_pairing_3d", False, _pairing_sites),
    ("nctorus.toeplitz_index", "topoindex.nctorus", "toeplitz_index", False, None),
    ("cli.run", "topoindex.cli", "run", False, None),
    ("numpy.eigh", "numpy.linalg", "eigh", True, _eigh_n3),
    ("numpy.eigh", "numpy.linalg", "eigvalsh", True, _eigh_n3),
]

# (layer name, module, class, method, hot)
METHODS = [
    ("model.h", "topoindex.model", "BlochFamily", "h", True),
    ("model.ribbon_eval", "topoindex.model", "RibbonFamily", "evaluate", True),
    ("model.ribbon_eval", "topoindex.model", "RibbonFamily", "evaluate_periodic", True),
    ("windex.unitary_field", "topoindex.windex", "UnitaryField", "__post_init__", False),
    ("cli.to_json", "topoindex.cli", "RunReport", "to_json", False),
]

LAYERS = sorted({row[0] for row in FUNCTIONS} | {row[0] for row in METHODS})


class Tracer:
    """Installs wrappers on demand and accumulates per-layer statistics."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in LAYERS}
        self.spans: list[tuple] = []
        self.request_id: int | None = None
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, hot: bool, work):
        stats = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if hot:
                span_id = -1
            else:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if work is not None:
                    stats.work += work(args, kwargs)
                if not hot:
                    self.spans.append((span_id, name, start, end, parent, self.request_id))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Replace every target at every package module binding it."""
        if self._patches:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "topoindex" or key.startswith("topoindex."))]
        for name, module_name, attr, hot, work in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hot, work)
            owners = modules + [sys.modules[module_name]]
            for owner in owners:
                if owner.__dict__.get(attr) is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        for name, module_name, cls_name, attr, hot in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hot, None))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
