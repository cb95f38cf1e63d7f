"""Span recorder that wraps gsvkit's public functions from outside the package.

``install`` replaces every public function of the traced modules, every
dataclass ``__post_init__`` and every public method with a wrapper that
records one span per call: ``[id, parent_id, name, start_ns, end_ns, work]``.
Spans are kept in memory and written out by the caller when the run ends.

The package binds the same function under several names (``from .x import
f`` in ``cli``, ``stat_norm``, ``density_model``, ``gsv_solver`` and the
package ``__init__``).  Every such binding is replaced, and ``install``
raises ``MissedBinding`` if any module still holds an unwrapped original, so
a missed binding cannot silently fold a layer into its caller's self time.
A public function a later version removes is simply not wrapped; its metrics
are reported as absent by the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("cli", "matrix_io", "gsv_solver", "spectra_core", "stat_norm", "density_model")

# Per-value float formatter called once per output cell; wrapping it would
# multiply the span count by the row count and move the rank writer's cost
# out of ``cli.cmd_rank``'s self time, where it is measured.
UNTRACED = frozenset({"matrix_io.format_float"})


def _stack_matrices(stack):
    return stack.mats if hasattr(stack, "mats") else stack


# Work counters computed from a call's arguments and result, outside the span.
WORK = {
    # Gram flops, computed as 2 * m * n^2 per matrix.
    "spectra_core.gram_sum": lambda args, out: sum(
        2 * a.shape[0] * a.shape[1] ** 2 for a in _stack_matrices(args[0])
    ),
    # Order of the matrix decomposed.
    "spectra_core.max_eigenpair": lambda args, out: out.vectors.shape[0],
    # Values parsed.
    "matrix_io.read_matrix_csv": lambda args, out: int(out.size),
}


class MissedBinding(RuntimeError):
    """A module still binds a function the tracer should have wrapped."""


class Tracer:
    """In-memory span list with a call stack for parent ids."""

    def __init__(self):
        self.spans = []
        self.wrapped = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0, 0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if work is not None:
                try:
                    rec[5] = work(args, out)
                except (AttributeError, TypeError, IndexError):
                    pass
            return out

        self.wrapped.append(name)
        return traced


def _wrap_class(tracer, short, cls):
    for attr, member in list(vars(cls).items()):
        if attr == "__post_init__":
            setattr(cls, attr, tracer.wrap(f"{short}.{cls.__name__}", member))
        elif attr.startswith("_"):
            continue
        elif isinstance(member, classmethod):
            name = f"{short}.{cls.__name__}.{attr}"
            setattr(cls, attr, classmethod(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(f"{short}.{cls.__name__}.{attr}", member))


def _package_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "gsvkit" or key.startswith("gsvkit."))]


def _references(obj):
    """``obj`` plus what it holds one level down: container items and default arguments."""
    yield obj
    if isinstance(obj, dict):
        yield from obj.values()
    elif isinstance(obj, (list, tuple, set, frozenset)):
        yield from obj
    elif inspect.isfunction(obj):
        yield from obj.__defaults__ or ()
        yield from (obj.__kwdefaults__ or {}).values()


def install(tracer):
    """Wrap the traced modules' public callables and rebind every alias of them."""
    importlib.import_module("gsvkit")
    replaced = {}  # id(original) -> (original, wrapper)
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"gsvkit.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, short, obj)
            elif inspect.isfunction(obj) and f"{short}.{attr}" not in UNTRACED:
                replaced[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    missed = [f"{mod.__name__}.{attr}"
              for mod in _package_modules()
              for attr, obj in vars(mod).items()
              if any(id(ref) in replaced and replaced[id(ref)][0] is ref
                     for ref in _references(obj))]
    if missed:
        raise MissedBinding(f"unwrapped bindings left after install: {missed}")
    return tracer


def profile(spans):
    """Aggregate one operation's spans: name -> [calls, inclusive_ns, self_ns, work]."""
    child_ns = {}
    for rec in spans:
        if rec[1] >= 0:
            child_ns[rec[1]] = child_ns.get(rec[1], 0) + rec[4] - rec[3]
    out = {}
    for rec in spans:
        agg = out.setdefault(rec[2], [0, 0, 0, 0])
        dur = rec[4] - rec[3]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_ns.get(rec[0], 0)
        if rec[5] is not None:
            agg[3] += rec[5]
    return out
