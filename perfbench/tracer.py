"""Outside-in tracer for the fvx layer modules.

The tracer wraps the public callables of each layer module (module-level
functions, and the public methods, class methods and properties of the
classes the module defines) and keeps per-callable counts and self times in
memory.  Self time is a span's duration minus the time covered by the traced
spans nested in it.

Several fvx modules import operators by name (``from fvx.calculus import
bd``), so each function can have more than one module-level binding.
``install`` rebinds every one of them in every loaded ``fvx`` module;
patching only the defining module would miss the calls made through the
other names.  Install the tracer before ``--mutate`` applies its patch, so
that the mutation wraps the traced operator exactly as it wraps the plain
one in an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = (
    "polyfield",
    "forms_core",
    "calculus",
    "integration",
    "metric_dual",
    "lagrange",
    "suites",
    "io",
    "cli",
)

# Operator methods traced besides the public names; the rest of the dunders
# (__eq__, __hash__, __repr__, __setattr__, ...) stay untraced.
TRACED_DUNDERS = frozenset(
    {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}
)


class Tracer:
    def __init__(self, keep_durations: tuple[str, ...] = ()):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in keep_durations}
        self.bindings: dict[str, int] = {}
        self._child_time = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        durations = self.durations.get(name)
        clock = time.perf_counter
        calls[name] = 0
        self_s[name] = 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                nested = child_time.pop()
                child_time[-1] += total
                calls[name] += 1
                self_s[name] += total - nested
                if durations is not None:
                    durations.append(total)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._set(cls, attr, self._wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif isinstance(member, property) and member.fset is None and member.fget is not None:
                self._set(cls, attr, property(self._wrap(name, member.fget), doc=member.__doc__))
            else:
                continue
            self.bindings[name] = 1

    def install(self) -> None:
        """Wrap every layer's public callables and rebind all their names."""
        wrappers: dict[int, tuple[object, object, str]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fvx.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = (value, self._wrap(name, value), name)
                elif isinstance(value, type):
                    self._wrap_class(layer, value)
        for module_name, module in list(sys.modules.items()):
            if module_name != "fvx" and not module_name.startswith("fvx."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    original, wrapper, name = hit
                    self._set(namespace, attr, wrapper)
                    self.bindings[name] = self.bindings.get(name, 0) + 1

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
