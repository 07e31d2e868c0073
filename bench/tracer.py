"""In-memory span tracer for lagfrac, installed from outside the package.

``Tracer.install`` replaces, for the duration of a traced pass,

* every function one lagfrac module binds from another (``solver.gauss_rule``,
  ``cli.caputo_exp_exact``, ...), in the importing module's namespace;
* every function named in a module's ``__all__``, in its own namespace, so
  calls through a module object (``exprs.evaluate``) and public calls inside a
  module (``solve`` -> ``assemble``) are seen;
* ``OrderFunction.from_callable`` and the package-level entry points;
* the private ``fractional._frac_ladder``, to count its cells;

with a wrapper that records a span ``[name, layer, parent, start, end,
raised, outer_layer, outer_name]``. A function that calls itself (the
recursive ``exprs.evaluate``) is not recorded again. ``uninstall`` puts the
original objects back. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

MODULES = ("cli", "exprs", "fractional", "laguerre", "solver", "special")

# Exact work counts taken from call arguments: degree + 1 rows times points.
CELL_COUNTERS = {
    "laguerre.eval_basis": ("laguerre.basis_cells", "max_degree", "x"),
    "fractional._frac_ladder": ("fractional.ladder_cells", "max_degree", "x"),
}

NAME, LAYER, PARENT, START, END, RAISED, OUTER_LAYER, OUTER_NAME = range(8)


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value) if isinstance(value, (list, tuple)) else 1
    size = 1
    for dim in shape:
        size *= dim
    return size


class Tracer:
    """Spans and cell counts of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple] = []

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, func, name: str, layer: str):
        counter = CELL_COUNTERS.get(name)
        positions = None
        if counter is not None:
            params = list(inspect.signature(func).parameters)
            positions = (params.index(counter[1]), params.index(counter[2]))
        stack, opened, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counter is not None:
                deg = args[positions[0]] if len(args) > positions[0] else kwargs[counter[1]]
                pts = args[positions[1]] if len(args) > positions[1] else kwargs[counter[2]]
                self.counts[counter[0]] += (int(deg) + 1) * _size(pts)
            spans = self.spans
            if stack and spans[stack[-1]][NAME] == name:
                return func(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, layer, parent, 0.0, 0.0, False,
                    opened[layer] == 0, opened[name] == 0]
            spans.append(span)
            stack.append(index)
            opened[layer] += 1
            opened[name] += 1
            span[START] = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                opened[layer] -= 1
                opened[name] -= 1
                stack.pop()

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the boundaries of ``package`` (the imported ``lagfrac``)."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        for short, module in modules.items():
            public = set(getattr(module, "__all__", ()))
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = value.__module__.rsplit(".", 1)[-1]
                if home not in modules:
                    continue
                name = f"{home}.{value.__name__}"
                if home != short or attr in public or name in CELL_COUNTERS:
                    self._replace(module, attr, self._wrap(value, name, home))
        for attr in getattr(package, "__all__", ()):
            value = getattr(package, attr, None)
            if inspect.isfunction(value):
                home = value.__module__.rsplit(".", 1)[-1]
                if home in modules:
                    self._replace(package, attr,
                                  self._wrap(value, f"{home}.{value.__name__}", home))
        order_cls = getattr(modules["fractional"], "OrderFunction", None)
        if order_cls is not None and "from_callable" in order_cls.__dict__:
            original = order_cls.__dict__["from_callable"].__func__
            self._replace(order_cls, "from_callable", classmethod(
                self._wrap(original, "fractional.OrderFunction.from_callable", "fractional")))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def aggregate(spans: list[list]) -> dict:
    """Per-layer and per-function calls, inclusive and self seconds.

    ``<layer>.calls`` counts entries into the layer from another layer (or
    from the benchmark); ``<layer>.s`` sums the spans that are outermost in
    their layer; ``<layer>.self_s`` sums span durations minus the time their
    child spans cover. Per function: ``<name>.calls``, ``<name>.s`` and
    ``<name>.self_s``. ``solver.refused`` counts ``solver.solve`` spans that
    raised.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: Counter = Counter()
    for i, span in enumerate(spans):
        name, layer = span[NAME], span[LAYER]
        duration = span[END] - span[START]
        parent_layer = spans[span[PARENT]][LAYER] if span[PARENT] >= 0 else None
        if parent_layer != layer:
            out[f"{layer}.calls"] += 1
        if span[OUTER_LAYER]:
            out[f"{layer}.s"] += duration
        out[f"{layer}.self_s"] += duration - child[i]
        out[f"{name}.calls"] += 1
        if span[OUTER_NAME]:
            out[f"{name}.s"] += duration
        out[f"{name}.self_s"] += duration - child[i]
        if name == "solver.solve" and span[RAISED]:
            out["solver.refused"] += 1
    return dict(out)


def check_spans(spans: list[list]) -> list[str]:
    """Problems with the span tree: a child outside its parent, negative self time."""
    problems = []
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[END] < span[START]:
            problems.append(f"span {i} ({span[NAME]}) ends before it starts")
        parent = span[PARENT]
        if parent >= 0:
            if parent >= i:
                problems.append(f"span {i} ({span[NAME]}) precedes its parent")
            elif not spans[parent][START] <= span[START] <= span[END] <= spans[parent][END]:
                problems.append(f"span {i} ({span[NAME]}) is not inside its parent")
            else:
                child[parent] += span[END] - span[START]
    for i, span in enumerate(spans):
        if child[i] > span[END] - span[START]:
            problems.append(f"children of span {i} ({span[NAME]}) outlast it")
    return problems[:5]
