"""Spans around the calls into extremal_lab's layers, recorded from outside
the program.

`Tracer.install` wraps each function in `TARGETS` and rebinds the wrapper
in every extremal_lab module namespace that holds the original: `cli`,
`shapeopt`, `overdet` and `geom2d/__init__` import `build_domain`,
`structured_strip` and the predicates by name, so patching only the defining
module would leave their calls untimed.  Methods are rebound on their class.
`uninstall` puts every original back.

A span records its name, parent span, start and end.  Spans stay in memory until the
benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

WORKLOADS = ("bounded", "flow", "strip")

# (module under extremal_lab, function, workloads on which it must record a
# call).  A traced run that records no call where one is required fails, so
# a missed rebinding cannot read as zero time.
TARGETS = (
    ("cli", "run", WORKLOADS),
    ("geom2d.meshing", "build_domain", WORKLOADS),
    ("geom2d.meshing", "structured_strip", ("strip",)),
    ("geom2d.meshing", "mesh_from_arrays", WORKLOADS),
    ("geom2d.meshing", "Mesh.unrolled", ("strip",)),
    ("fem", "assemble", WORKLOADS),
    ("fem", "eigen_smallest", WORKLOADS),
    ("fem", "solve_semilinear", ("bounded",)),
    ("fem", "neumann_trace", WORKLOADS),
    ("overdet", "overdet_residual", ("bounded", "strip")),
    ("overdet", "patch_recover", ("bounded", "strip")),
    ("overdet", "p_function", ("bounded", "strip")),
    ("overdet", "check_T4", ("bounded", "strip")),
    ("overdet", "check_T5", ("bounded", "strip")),
    ("overdet", "check_cap_heights", ("bounded", "strip")),
    ("overdet", "check_T8_convexity", ("bounded", "strip")),
    ("geom2d.predicates", "inscribed_ball", ("bounded", "strip")),
    ("geom2d.predicates", "cap_reflect", ("bounded", "strip")),
    # Reached only through a non-empty T5 superlevel set.  On the critical
    # disk and on the bulged strip at lambda = 1 the critical-ball centre
    # value h0 lies above max u, so neither workload calls these two.
    ("geom2d.predicates", "component_diameter", ()),
    ("geom2d.predicates", "min_enclosing_circle", ()),
    ("geom2d.boundary", "boundary_geometry", ("bounded", "strip")),
    ("shapeopt", "bifurcation_period", ("strip",)),
    ("shapeopt", "bifurcation_mu", ("strip",)),
    ("shapeopt", "continue_branch", ("strip",)),
    ("shapeopt", "flow_to_extremal", ("flow",)),
    ("shapeopt", "shape_derivative", ("flow",)),
    ("svgfig", "level_set_figure", ("bounded",)),
    ("svgfig", "domain_figure", WORKLOADS),
    ("svgfig", "chart_figure", WORKLOADS),
)

LAYERS = tuple(dict.fromkeys(module for module, _, _ in TARGETS))
LAYER_OF = {f"{module}.{qualname}": module for module, qualname, _ in TARGETS}
MESHING = "geom2d.meshing"


class Tracer:
    """Records spans and counters for the wrapped functions while installed."""

    def __init__(self) -> None:
        # a span is [name, parent index, start, end]; the end stays 0.0
        # while the call runs
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- rebinding ------------------------------------------------------------

    def install(self) -> None:
        for module, qualname, _ in TARGETS:
            mod = importlib.import_module(f"extremal_lab.{module}")
            *owner_path, attr = qualname.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module}.{qualname}", original)
            if owner_path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for holder in _package_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, key, original, wrapper)
        self._verify_no_original_left()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _verify_no_original_left(self) -> None:
        originals = {id(orig) for _, _, orig in self._patches}
        for holder in _package_modules():
            for key, value in vars(holder).items():
                if id(value) in originals:
                    raise RuntimeError(f"{holder.__name__}.{key} still holds an untraced function")

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(self, parent, args, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict[str, float]:
        """Inclusive seconds and call counts per function, self seconds per
        layer, and the counters, for the spans recorded since `reset`."""
        out: dict[str, float] = {}
        for name in LAYER_OF:
            out[f"{name}_s"] = 0.0
            out[f"{name}.calls"] = 0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (name, parent, t0, t1) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            if not self._has_ancestor_named(parent, name):
                out[f"{name}_s"] += t1 - t0
            out[f"{LAYER_OF[name]}.self_s"] += (t1 - t0) - child_time[idx]
        out.update(dict.fromkeys(COUNTER_UNITS, 0))
        out.update(self.counters)
        out["trace.spans"] = len(self.spans)
        return out

    def _has_ancestor_named(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][1]
        return False

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": t0, "end": t1, "parent": parent}
            for name, parent, t0, t1 in self.spans
        ]


def _package_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "extremal_lab" or key.startswith("extremal_lab."))
    ]


# -- counters recorded at the same boundaries ------------------------------------


def _count_triangles(tracer: Tracer, parent: int, args, mesh) -> None:
    # count each mesh once, where it leaves the meshing layer
    if parent < 0 or LAYER_OF[tracer.spans[parent][0]] != MESHING:
        tracer.counters[f"{MESHING}.triangles"] += len(mesh.triangles)


def _count_iterations(tracer: Tracer, parent: int, args, pair) -> None:
    tracer.counters["fem.eigen_smallest.iterations"] += int(pair.iterations)


def _count_output_bytes(tracer: Tracer, parent: int, args, record) -> None:
    out_dir = args[0].out_dir
    tracer.counters["cli.output_bytes"] += sum(
        os.path.getsize(os.path.join(out_dir, item["path"])) for item in record.manifest
    )


def _count_bounded_caps(tracer: Tracer, parent: int, args, report) -> None:
    tracer.counters["geom2d.predicates.cap_reflect.bounded_caps"] += len(
        report.bounded_components()
    )


_COUNTERS = {
    "cli.run": _count_output_bytes,
    "fem.eigen_smallest": _count_iterations,
    "geom2d.predicates.cap_reflect": _count_bounded_caps,
    **{
        f"{MESHING}.{fn}": _count_triangles
        for fn in ("build_domain", "structured_strip", "mesh_from_arrays", "Mesh.unrolled")
    },
}
COUNTER_UNITS = {
    "cli.output_bytes": "bytes",
    f"{MESHING}.triangles": "count",
    "fem.eigen_smallest.iterations": "count",
    "geom2d.predicates.cap_reflect.bounded_caps": "count",
}


def missing_calls(summary: dict[str, float], workload: str) -> list[str]:
    """Functions the workload must reach that recorded no call."""
    return [
        f"{module}.{qualname}"
        for module, qualname, required in TARGETS
        if workload in required and summary[f"{module}.{qualname}.calls"] == 0
    ]


# The per-layer metrics a traced run prints as its result (BENCHMARK.json
# lists the same).  Times appear only where every workload records a call:
# a time that is zero on some workload says nothing there.  The traced
# report printed before the result holds every time and count above.
_TIMED_EVERYWHERE = (
    "cli.run", "geom2d.meshing.build_domain", "geom2d.meshing.mesh_from_arrays",
    "fem.assemble", "fem.eigen_smallest", "fem.neumann_trace",
    "svgfig.domain_figure", "svgfig.chart_figure",
)
REPORTED: dict[str, str] = {
    **{f"{name}_s": "s" for name in _TIMED_EVERYWHERE},
    **{f"{layer}.self_s": "s" for layer in ("cli", "geom2d.meshing", "fem", "svgfig")},
    "cpu_s": "s",
    "trace.overhead_s": "s",
    **{f"{module}.{qualname}.calls": "count" for module, qualname, _ in TARGETS},
    **COUNTER_UNITS,
    "trace.spans": "count",
}
