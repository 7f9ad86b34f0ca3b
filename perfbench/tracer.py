"""Timing spans around the public functions of the delpezzo modules.

`Tracer.install` replaces every binding of a traced function object in every
loaded `delpezzo` module namespace (a function imported by name into three
modules is patched in all three) with a wrapper that records one span per call
and calls through to the original, so `lru_cache`s behave as before.
`Tracer.restore` puts every original binding back.

Spans live in flat in-memory arrays: name id, parent span index (-1 at the
root), start and end time.  Self time of a span is its duration minus the
durations of its direct children; spans nest because the library is single
threaded.  `write_spans` dumps them as tab-separated text at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

#: modules whose public functions are traced, in the order spans are named
LAYERS = (
    "experiment",
    "surface",
    "gf",
    "incidence",
    "permgroup",
    "certify",
    "lattice",
    "verify",
    "cli",
)

#: per-element permutation arithmetic: called hundreds of thousands of times
#: inside Schreier-Sims, so a span per call would dominate what it measures
UNTRACED = frozenset({"permgroup.identity", "permgroup.compose", "permgroup.inverse"})

#: methods traced on their class (one binding each); `__init__` is named after
#: the class, so `permgroup.PermutationGroup` counts constructions
METHODS = (("permgroup", "PermutationGroup", "__init__"),
           ("permgroup", "PermutationGroup", "conjugacy_classes"))


def public_functions(module) -> list[str]:
    """Names of the public functions defined (not imported) in `module`,
    `lru_cache` wrappers included."""
    out = []
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        fn = getattr(value, "__wrapped__", value)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            out.append(name)
    return out


class Tracer:
    def __init__(self, package: str = "delpezzo"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        #: per traced name, a callback(args, kwargs, result) run after the call
        self.observers: dict[str, object] = {}

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        observers = self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            observer = observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def targets(self) -> list[tuple[str, object]]:
        """(span name, original function object) for every traced function."""
        out = []
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for name in public_functions(module):
                span = f"{layer}.{name}"
                if span not in UNTRACED:
                    out.append((span, getattr(module, name)))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for span, original in self.targets():
            wrapper = self.wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{self.package}.{layer}"], cls_name)
            original = cls.__dict__[method]
            span = f"{layer}.{cls_name}" + ("" if method == "__init__" else f".{method}")
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(span, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self time, and inclusive durations."""
        out = {n: {"calls": 0, "self_s": 0.0, "durations": []} for n in self.names}
        dur = self.durations()
        for i, own in enumerate(self.self_times()):
            entry = out[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(dur[i])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
