"""Span tracing for the benchmark, installed on peakforge from outside.

``Tracer.install`` replaces the layer functions of the package with
wrappers that record spans; nothing under ``src/`` changes.  A function
can be looked up under several names: a module imports it by name
(``from .algebra import word_product``), a class holds it
(``MrElement.key_degree = staticmethod(colored_weight)``), an alias shares
it (``__radd__ = __add__``) or a registry stores it (``peak._BUILDERS``).
Every such reference inside the package is replaced, so the spans see the
calls that really happen.

Spans are kept in memory and written out when the pass ends.  Each layer
name aggregates its calls and self time (span time minus the time of its
child spans); spans of at least ``KEEP_S`` seconds are also kept whole,
with their parent, under the step that caused them.  Count-only wrappers
serve functions too small and too hot to time.

A wrapper's own bookkeeping (span ids, stacks, clock reads) is timed and
charged to no span: the parent's self time excludes it, as does the step's
unattributed time.  What remains in a parent's self time is the Python call
into each child's wrapper and every count-only wrapper it calls, well under
a microsecond each.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time

PACKAGE = "peakforge"
MODULES = (
    "scalars",
    "combinatorics",
    "algebra",
    "linalg",
    "sym",
    "mr",
    "fqsym",
    "oracle",
    "peak",
    "cli",
)

# every public function of these modules gets a span named "<module>.<function>"
SPAN_MODULES = ("algebra", "sym", "mr", "fqsym", "oracle", "peak", "cli")
# helpers that run once per scalar or per term: a span would cost more than
# their work, so they are left to their callers' self time
SPAN_EXCLUDE = {
    "algebra.merge_bounds",
    "sym.monomial",
    "sym.unit",
    "mr.monomial",
    "mr.unit",
    "oracle.delta",
    # cached lookups, one per key pair of an internal product; counted below
    "sym.internal_structure",
    "mr.internal_structure",
}
# class methods with their span names
METHOD_SPANS = {
    ("scalars", "Cyclo", "__mul__"): "scalars.Cyclo.mul",
    ("scalars", "Cyclo", "__add__"): "scalars.Cyclo.add",
    ("scalars", "Cyclo", "inverse"): "scalars.Cyclo.inverse",
    ("scalars", "RatFunc", "__init__"): "scalars.RatFunc.new",
    ("scalars", "RatFunc", "__mul__"): "scalars.RatFunc.mul",
    ("scalars", "RatFunc", "__add__"): "scalars.RatFunc.add",
    ("linalg", "GradedSubspace", "insert"): "linalg.insert",
    ("linalg", "GradedSubspace", "contains"): "linalg.contains",
    ("linalg", "GradedSubspace", "coordinates"): "linalg.coordinates",
}
# span names shared by several functions
RENAMED = {
    "peak.peak_subspace": "peak.subspace_build",
    "peak.unital_peak_subspace": "peak.subspace_build",
    "peak.mr_sharp_subspace": "peak.subspace_build",
    "peak.mr_sharp_module_subspace": "peak.subspace_build",
}
COUNTED = {
    ("combinatorics", "colored_weight"): "combinatorics.colored_weight",
    ("sym", "internal_structure"): "sym.internal_structure",
    ("mr", "internal_structure"): "mr.internal_structure",
}
# functools caches whose misses are reported
CACHES = {
    "algebra.column_reading_structure": ("algebra", "column_reading_structure"),
    "sym.internal_structure": ("sym", "internal_structure"),
    "mr.internal_structure": ("mr", "internal_structure"),
}
KEEP_S = 1e-3  # spans at least this long are kept whole


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, list] = {}  # name -> [calls]
        self.spans: list[tuple] = []  # (step, id, parent id, name, start, end)
        self.steps: list[dict] = []
        self.insert_grew = 0
        self.subspaces: list = []
        self.unattributed_s = 0.0
        self._child_time: list[float] = []  # per open span: time of its children
        self._open_ids: list[int] = []
        self._ids = itertools.count(1)
        self._covered = 0.0  # top-level span time inside the current step
        self._step = -1
        self._patched: list[tuple] = []  # (owner, attribute or key, original)
        self._caches: dict = {}

    # ---- wrappers

    def timed(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        child_time = self._child_time
        open_ids = self._open_ids
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            enter = clock()
            span_id = next(ids)
            open_ids.append(span_id)
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stats[0] += 1
                stats[1] += end - start - child_time.pop()
                open_ids.pop()
                if end - start >= KEEP_S:
                    parent = open_ids[-1] if open_ids else None
                    spans.append((tracer._step, span_id, parent, name, start, end))
                # the whole wrapper, bookkeeping included, is the parent's child
                if child_time:
                    child_time[-1] += clock() - enter
                else:
                    tracer._covered += clock() - enter

        return span

    def counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counting

    def _insert_tally(self, fn):
        tracer = self

        @functools.wraps(fn)
        def insert(*args, **kwargs):
            grew = fn(*args, **kwargs)
            tracer.insert_grew += bool(grew)
            return grew

        return insert

    def _subspace_registry(self, fn):
        subspaces = self.subspaces

        @functools.wraps(fn)
        def init(space, *args, **kwargs):
            fn(space, *args, **kwargs)
            subspaces.append(space)

        return init

    # ---- installation

    def install(self):
        """Wrap the layers of the imported package in place."""
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES
        }
        targets = []  # (original, wrapper)
        for mod_name in SPAN_MODULES:
            module = modules[mod_name]
            for attr, value in vars(module).items():
                full = f"{mod_name}.{attr}"
                if (
                    attr.startswith("_")
                    or full in SPAN_EXCLUDE
                    or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != module.__name__
                    or inspect.isgeneratorfunction(inspect.unwrap(value))
                ):
                    continue
                targets.append((value, self.timed(RENAMED.get(full, full), value)))
        for (mod_name, cls_name, attr), name in METHOD_SPANS.items():
            original = vars(getattr(modules[mod_name], cls_name))[attr]
            inner = self._insert_tally(original) if name == "linalg.insert" else original
            targets.append((original, self.timed(name, inner)))
        for (mod_name, attr), name in COUNTED.items():
            original = getattr(modules[mod_name], attr)
            targets.append((original, self.counted(name, original)))
        subspace_cls = modules["linalg"].GradedSubspace
        init = vars(subspace_cls)["__init__"]
        targets.append((init, self._subspace_registry(init)))
        for name, (mod_name, attr) in CACHES.items():
            self._caches[name] = getattr(modules[mod_name], attr)
        for original, wrapper in targets:
            self._replace_everywhere(modules.values(), original, wrapper)

    def _replace_everywhere(self, modules, original, wrapper):
        found = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    found += 1
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapper)
                            found += 1
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for cls_attr, member in list(vars(value).items()):
                        if member is original:
                            self._set(value, cls_attr, wrapper)
                            found += 1
                        elif (
                            isinstance(member, staticmethod)
                            and member.__func__ is original
                        ):
                            self._set(value, cls_attr, staticmethod(wrapper))
                            found += 1
        if not found:
            raise LookupError(f"no reference to {original!r} in {PACKAGE}")

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # ---- steps and results

    def run_step(self, name: str, fn):
        """Run one workload step as a top-level span; time inside the step
        but outside every layer span counts as unattributed."""
        self._step += 1
        self._covered = 0.0
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            unattributed = end - start - self._covered
            self.unattributed_s += unattributed
            self.steps.append(
                {"step": name, "start": start, "end": end, "unattributed_s": unattributed}
            )

    def rows_nnz(self) -> int:
        """Nonzero entries of the echelon rows of every subspace built."""
        return sum(
            len(row) for space in self.subspaces for row in space._rows.values()
        )

    def layers(self) -> dict:
        """Flat per-layer metrics: <name>.calls and <name>.self_s for every
        span, <name>.calls for every counter, cache misses, and the echelon
        statistics."""
        out = {}
        for name, (calls, self_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name, (calls,) in sorted(self.counts.items()):
            out[f"{name}.calls"] = calls
        for name, fn in sorted(self._caches.items()):
            out[f"{name}.misses"] = fn.cache_info().misses
        inserts = self.stats["linalg.insert"][0]
        out["linalg.insert.grew"] = self.insert_grew
        out["linalg.insert.useful_ratio"] = self.insert_grew / inserts if inserts else 0.0
        out["linalg.rows_nnz"] = self.rows_nnz()
        out["trace_unattributed_s"] = self.unattributed_s
        return out

    def write(self, path):
        """Write the aggregates, the steps and the kept spans as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "layers": self.layers(),
                    "steps": self.steps,
                    "keep_s": KEEP_S,
                    "spans": [
                        dict(zip(("step", "id", "parent", "name", "start", "end"), s))
                        for s in self.spans
                    ],
                },
                handle,
            )
