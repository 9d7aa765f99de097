"""Outside-in tracing of the conicsteps layers, installed from the benchmark.

Nothing in the library is edited.  ``Tracer.install`` rebinds every public
function of each layer module to a timing wrapper in every namespace that
holds it (the defining module, every other ``conicsteps`` module that
imported the name, and the benchmark's own modules), wraps the public
methods of ``Conic`` and ``Placement`` on the classes, swaps the active
kernel module for a proxy of wrapped kernel functions in the modules that
call it, and counts validated ``Point``/``Direction`` constructions through
their ``__post_init__``.  ``Tracer.uninstall`` restores every binding.

A span is (op id, name, start, end, parent).  Calls are synchronous and
single-threaded, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.  Self time is summed
per layer as spans close; full span records are kept in memory only for
the ops passed ``record=True`` and written out by the caller.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

# Layer name -> module, in the order reports list them.
LAYER_MODULES = {
    "geometry": "conicsteps.geometry",
    "conics": "conicsteps.conics",
    "construction": "conicsteps.construction",
    "convergence": "conicsteps.convergence",
    "optics": "conicsteps.optics",
    "sceneio": "conicsteps.sceneio",
    "svgout": "conicsteps.svgout",
    "cli": "conicsteps.cli",
}
LAYERS = ("kernels",) + tuple(LAYER_MODULES)
TRACED_CLASSES = (("conicsteps.conics", "Conic"), ("conicsteps.conics", "Placement"))
NEAREST_KERNELS = ("ellipse_nearest_param", "parabola_nearest_param", "hyperbola_nearest_param")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.inclusive_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.open: Counter[str] = Counter()
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._op: int | None = None
        self._recording = False
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ ops

    def begin_op(self, op_id: int, record: bool) -> None:
        self._op = op_id
        self._recording = record

    def end_op(self) -> None:
        self._op = None
        self._recording = False

    # -------------------------------------------------------- wrappers

    def _span(self, name: str, layer: str, fn, after=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            tracer.calls[name] += 1
            tracer.open[name] += 1
            index = -1
            if tracer._recording:
                index = len(tracer.spans)
                parent = stack[-1][2] if stack else -1
                tracer.spans.append([tracer._op, name, 0, 0, parent])
            frame = [clock(), 0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.open[name] -= 1
                duration = end - frame[0]
                tracer.self_ns[layer] += duration - frame[1]
                tracer.inclusive_ns[name] += duration
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    tracer.spans[index][2] = frame[0]
                    tracer.spans[index][3] = end
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(obj):
            counts[key] += 1
            return fn(obj)

        return wrapper

    def _after_hooks(self) -> dict:
        counts = self.counts
        open_spans = self.open

        def residual(result):
            if open_spans["construction.exact_return"]:
                counts["residual_in_exact_return"] += 1

        def intersect(result):
            if result:
                counts["intersect_nonempty"] += 1

        def trace(result):
            counts["bounces"] += len(result.hits)

        def nearest(result):
            counts["nearest_attempts"] += 1
            counts["nearest_ok"] += bool(result[1])

        def svg(result):
            if open_spans["svgout.figure_svg"] + open_spans["svgout.trace_svg"] == 0:
                counts["svg_bytes"] += len(result.encode("utf-8"))

        hooks = {
            "conics.Conic.residual": residual,
            "optics.intersect_ray": intersect,
            "optics.trace": trace,
            "svgout.figure_svg": svg,
            "svgout.trace_svg": svg,
        }
        hooks.update({f"kernels.{k}": nearest for k in NEAREST_KERNELS})
        return hooks

    # ---------------------------------------------------- installation

    def _set(self, obj: object, attr: str, value: object) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, extra_namespaces: tuple[types.ModuleType, ...] = ()) -> None:
        """Wrap every layer; ``extra_namespaces`` get their bindings rebound too."""
        import conicsteps  # noqa: F401  (imports every layer module)
        from conicsteps import _backend, geometry

        hooks = self._after_hooks()
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if n == "conicsteps" or n.startswith("conicsteps.")
        ] + list(extra_namespaces)

        # Kernels: a proxy module replaces the active one where it is used,
        # so calls between kernels inside the kernel module stay unwrapped.
        kmod = _backend.kernels
        proxy = types.ModuleType(kmod.__name__)
        for name, value in vars(kmod).items():
            if not name.startswith("_") and callable(value) and not isinstance(value, type):
                value = self._span(f"kernels.{name}", "kernels", value,
                                   hooks.get(f"kernels.{name}"))
            setattr(proxy, name, value)
        for module in namespaces:
            if getattr(module, "kernels", None) is kmod:
                self._set(module, "kernels", proxy)

        # Module-level public functions, rebound wherever they were imported.
        wrapped: dict[int, object] = {}
        for layer, modname in LAYER_MODULES.items():
            module = sys.modules[modname]
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                span = f"{layer}.{name}"
                wrapped[id(fn)] = self._span(span, layer, fn, hooks.get(span))
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(module, name, wrapped[id(value)])

        # Public methods of the curve classes.
        for modname, clsname in TRACED_CLASSES:
            cls = getattr(sys.modules[modname], clsname)
            for name, fn in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                span = f"conics.{clsname}.{name}"
                self._set(cls, name, self._span(span, "conics", fn, hooks.get(span)))

        # Validated value objects: counted, not timed.
        self._set(geometry.Point, "__post_init__",
                  self._counted("points", geometry.Point.__post_init__))
        self._set(geometry.Direction, "__post_init__",
                  self._counted("directions", geometry.Direction.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # --------------------------------------------------------- reports

    def calls_matching(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def inclusive_matching(self, prefix: str) -> int:
        return sum(n for name, n in self.inclusive_ns.items() if name.startswith(prefix))
