"""Outside-in layer tracing of foxabf, installed from the benchmark's side.

``Tracer.install`` replaces every public function of the layer modules
(``foxabf.ring``, ``sequences``, ``braid``, ``coloring``, ``alexander``,
``wheel`` and ``cli``) with a timing wrapper, in every ``foxabf.*``
namespace that holds a reference to it, so calls made through a
``from .x import f`` binding are seen too.  ``LaurentPoly.__mul__`` /
``__rmul__``, ``Matrix.__mul__`` and ``Matrix.det`` are wrapped on their
classes.  No file of foxabf is edited.

Each wrapped call is a span of its layer.  A span's self time is its
duration minus the durations of the spans it directly contains, so the
self times of all layers add up to the root span, which ``Tracer.root``
opens around ``cli.main`` and which belongs to ``cli``.  Spans are summed
in memory per function (``calls``, inclusive time of the outermost call)
and per layer (self time); nothing is written until ``report``.
"""

from __future__ import annotations

import sys
import time
import types

LAYERS = ("ring", "sequences", "braid", "coloring", "alexander", "wheel", "cli")

# Class methods wrapped in place: (class name, attributes, span key).
CLASS_METHODS = (
    ("LaurentPoly", ("__mul__", "__rmul__"), "ring.poly_mul"),
    ("Matrix", ("__mul__",), "ring.matmul"),
    ("Matrix", ("det",), "ring.det"),
)

# cli.main is the root span, opened by Tracer.root.
NOT_WRAPPED = {"cli.main"}


def _brute_force_assignments(word, modulus, *args, **kwargs) -> int:
    return modulus**word.strands


# Work counters computed from a call's arguments: span key -> (counter, fn).
COUNTERS = {
    "coloring.brute_force_coloring_count": (
        "coloring.brute_force_assignments",
        _brute_force_assignments,
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, depth]
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []  # child time of each open span

    def _wrap(self, fn, layer: str, key: str):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        counter = COUNTERS.get(key)
        counters = self.counters

        def span(*args, **kwargs):
            if counter is not None:
                name, work = counter
                counters[name] = counters.get(name, 0) + work(*args, **kwargs)
            stat[0] += 1
            stat[2] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += duration
                self_s[layer] += duration - stack.pop()
                if stack:
                    stack[-1] += duration

        return span

    def install(self) -> None:
        """Wrap the layer functions; foxabf.cli must already be imported."""
        wrappers: dict[int, types.FunctionType] = {}
        for layer in LAYERS:
            module = sys.modules[f"foxabf.{layer}"]
            for name, value in vars(module).items():
                key = f"{layer}.{name}"
                if (
                    name.startswith("_")
                    or key in NOT_WRAPPED
                    or not isinstance(value, types.FunctionType)
                    or value.__module__ != module.__name__
                ):
                    continue
                wrappers[id(value)] = self._wrap(value, layer, key)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "foxabf" or module_name.startswith("foxabf.")):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

        ring = sys.modules["foxabf.ring"]
        for class_name, attrs, key in CLASS_METHODS:
            cls = getattr(ring, class_name, None)
            originals = {attr: vars(cls).get(attr) for attr in attrs} if cls else {}
            done: dict[int, types.FunctionType] = {}
            for attr, fn in originals.items():
                if not isinstance(fn, types.FunctionType):
                    continue
                if id(fn) not in done:
                    done[id(fn)] = self._wrap(fn, "ring", key)
                setattr(cls, attr, done[id(fn)])

    def root(self, fn, *args):
        """Call fn(*args) inside the request's root span (layer cli)."""
        return self._wrap(fn, "cli", "cli.main")(*args)

    def report(self) -> dict:
        return {
            "calls": {key: stat[0] for key, stat in self.stats.items()},
            "incl_ms": {key: stat[1] * 1e3 for key, stat in self.stats.items()},
            "self_ms": {layer: s * 1e3 for layer, s in self.self_s.items()},
            "counters": dict(self.counters),
        }
