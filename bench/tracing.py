"""Spans and counters around the program's layers, installed from outside.

``Tracer.install()`` wraps every public function of each layer module,
every public method and property of the classes those modules define,
and their constructors.  Each wrapped call is a span (name, start, end,
parent).  The wrappers are then bound wherever the originals were
imported by name, as ``cli.py`` and ``covers.py`` do, so calls between
layers pass through them.

Self time of a span is its duration minus the time its child spans
cover; the tracer sums it per layer as calls return, and keeps the first
``SPAN_CAP`` spans for writing out.  Counters record work done at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

from tubemeasure.geometry import PointCloud, Tube

LAYERS = ("geometry", "projection", "montecarlo", "bounds", "covers", "proof",
          "serialization", "cli")
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.next_id = 0
        self.in_covers = 0

    # -- spans -----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0, tracer.next_id]
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(frame)
            tracer.in_covers += layer == "covers"
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.in_covers -= layer == "covers"
                duration = end - frame[0]
                tracer.self_s[layer] += duration - frame[1]
                tracer.inclusive_s[name] += duration
                tracer.calls[layer] += 1
                if parent is not None:
                    parent[1] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (frame[2], None if parent is None else parent[2], name, frame[0], end)
                    )
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the layers of the imported ``tubemeasure`` package."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tubemeasure.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self.wrap(obj, name, layer, HOOKS.get(name))
                elif isinstance(obj, type) and not attr.startswith("_"):
                    self._wrap_class(obj, layer)
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "tubemeasure"]:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(module, attr, replaced[obj])
        self._count_only()

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = HOOKS.get(name)
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.wrap(obj, name, layer, hook))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(obj.fget, name, layer, hook)))
            elif isinstance(obj, functools.cached_property):
                wrapped = functools.cached_property(self.wrap(obj.func, name, layer, hook))
                wrapped.__set_name__(cls, attr)
                setattr(cls, attr, wrapped)

    def _count_only(self):
        """Counters at private boundaries that carry no span of their own."""
        tracer = self
        for layer in ("geometry", "projection"):
            module = sys.modules[f"tubemeasure.{layer}"]
            hull = module.ConvexHull

            def counted_hull(*args, _hull=hull, **kwargs):
                tracer.counts["geometry.hull_builds"] += 1
                return _hull(*args, **kwargs)

            module.ConvexHull = counted_hull

        montecarlo = sys.modules["tubemeasure.montecarlo"]
        box_fraction = montecarlo._mc_box_fraction

        def counted_box_fraction(predicate, lo, hi, samples, seed, tag):
            tracer.counts["montecarlo.samples_requested"] += samples
            return box_fraction(predicate, lo, hi, samples, seed, tag)

        montecarlo._mc_box_fraction = counted_box_fraction

        proof = sys.modules["tubemeasure.proof"]
        scan = proof._scan_packing

        def counted_scan(m, max_depth):
            for depth, block in scan(m, max_depth):
                tracer.counts["proof.cells_packed"] += len(block)
                yield depth, block

        proof._scan_packing = counted_scan


# -- hooks: counters read from a call's arguments and result -------------


def _arg(args, kwargs, index, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _shadow_area(tracer, args, kwargs, result):
    if args[0]._exact is None:
        tracer.counts["projection.mc_shadow_evals"] += 1
        tracer.counts["montecarlo.samples_requested"] += int(
            _arg(args, kwargs, 1, "samples", 200_000)
        )


def _exact_directions(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["projection.exact_directions"] += len(result)


def _cells_tested(tracer, args, kwargs, result):
    tracer.counts["projection.cells_tested"] += len(result)


def _sample_points(tracer, args, kwargs, result):
    if not isinstance(args[0], PointCloud):
        tracer.counts["montecarlo.samples_requested"] += int(_arg(args, kwargs, 1, "count", 0))


def _cover_check(tracer, args, kwargs, result):
    shape = args[0]
    if isinstance(shape, PointCloud):
        tracer.counts["covers.points_checked"] += len(shape.points)
    else:
        tracer.counts["covers.points_checked"] += int(_arg(args, kwargs, 2, "samples", 100_000))


def _cover_search(tracer, args, kwargs, result):
    tracer.counts["covers.searches"] += 1
    if all(isinstance(t, Tube) for t in result.tubes):
        tracer.counts["covers.search_round_wins"] += 1


def _tube_built(tracer, args, kwargs, result):
    if tracer.in_covers:
        tracer.counts["covers.tubes_built"] += 1


HOOKS = {
    "projection.Shadow.area": _shadow_area,
    "projection.shadow_values_batch": _exact_directions,
    "projection.Shadow.cell_touch": _cells_tested,
    "montecarlo.sample_points": _sample_points,
    "covers.cover_check": _cover_check,
    "covers.cover_search": _cover_search,
    "geometry.Tube.__post_init__": _tube_built,
    "geometry.SquareTube.__post_init__": _tube_built,
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures per timed round (rates and shares are not scaled)."""
    per = 1.0 / rounds
    c = tracer.counts
    proof_s = tracer.self_s["proof"]
    searches = c["covers.searches"]
    out = {f"{layer}.self_s": tracer.self_s[layer] * per for layer in LAYERS}
    out.update(
        {
            "bounds.calls": tracer.calls["bounds"] * per,
            "serialization.calls": tracer.calls["serialization"] * per,
            "covers.check_s": tracer.inclusive_s["covers.cover_check"] * per,
            "covers.search_round_wins": c["covers.search_round_wins"] / searches if searches else 0.0,
            "proof.cells_per_s": c["proof.cells_packed"] / proof_s if proof_s else 0.0,
        }
    )
    for key in ("projection.exact_directions", "projection.mc_shadow_evals",
                "projection.cells_tested", "montecarlo.samples_requested",
                "covers.points_checked", "covers.tubes_built", "geometry.hull_builds",
                "proof.cells_packed"):
        out[key] = c[key] * per
    return out
