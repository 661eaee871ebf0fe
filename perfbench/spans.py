"""In-memory span recorder that times sfi's layers from outside.

A span is opened around every call of a wrapped module attribute. The
recorder replaces each public function of a layer module with a timing
wrapper (``setattr(module, name, wrapper)``), so nothing in the package
changes: calls that go through a module attribute (``nz.recenter``,
``sb.evaluate``) or a module global (``recenter`` inside
``sfi.normalize``) reach the wrapper, and ``restore`` puts every original
back.

Boundaries this cannot capture from outside:

* names a module binds at import time from another module, such as
  ``phi_triple`` and ``check_weight``, which ``sfi.lab`` imports from
  ``sfi.spaceform``; they are timed as part of their caller, like every
  ``spaceform`` and ``symfunc`` helper;
* functions stored in a container at import time, such as the
  ``cli.COMMANDS`` table, so ``cli.cmd_sweep`` is not seen when
  ``cli.main`` dispatches through it;
* methods of the package's classes (``SphereGrid.integrate``,
  ``Constraint.of_graph``, ``MonomialTable.vandermonde``) and private
  ``_``-prefixed helpers and closures; their time is self time of the
  nearest wrapped caller;
* names re-exported by ``sfi/__init__.py``: callers must use the module
  attribute (``lab.sweep``), not ``sfi.sweep``.

The parent stack is kept per thread, so spans opened in the worker
threads of ``sfi sweep --threads N`` have no parent in the calling
thread. A span named in ``row_names`` starts a new row id, and every
span below it carries that id.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time


class Span:
    """One timed call: ids, nesting, size and the perf_counter interval."""

    __slots__ = ("sid", "name", "parent", "row", "thread", "size",
                 "start", "end")

    def __init__(self, sid, name, parent, row, thread, size, start=0.0,
                 end=0.0):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.row = row
        self.thread = thread
        self.size = size
        self.start = start
        self.end = end

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Recorder:
    """Collects spans in memory; wraps and restores module attributes.

    sizes maps a span name to a function of the call's arguments whose
    result is stored as the span's size (for example the number of
    points handed to an evaluation).
    """

    def __init__(self, row_names=(), sizes=None, clock=time.perf_counter):
        self.spans = []
        self.row_names = frozenset(row_names)
        self.sizes = dict(sizes or {})
        self.clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records a span."""
        size_of = self.sizes.get(name)
        is_row = name in self.row_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            row = sid if is_row else (parent.row if parent else None)
            size = size_of(*args, **kwargs) if size_of else None
            span = Span(sid, name, parent.sid if parent else None, row,
                        threading.get_ident(), size)
            stack.append(span)
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)

        return traced

    def wrap_module(self, module, layer):
        """Wrap every public function defined in module as '<layer>.<fn>'."""
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            setattr(module, attr, self.wrap(f"{layer}.{attr}", value))
            self._patched.append((module, attr, value))

    def restore(self):
        """Put back every original attribute, newest first."""
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans):
    """Map span id -> self time: duration minus the union of the parts of
    its interval that its direct children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = s.duration - covered
    return out


class SpanStats:
    """Per-name totals over a list of spans: calls, inclusive and self
    seconds (also restricted to spans inside a row), summed sizes, and
    calls grouped by parent name."""

    def __init__(self, spans):
        by_id = {s.sid: s for s in spans}
        own = self_times(spans)
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.row_self_s = {}
        self.size = {}
        self.calls_under = {}
        for s in spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.total_s[s.name] = self.total_s.get(s.name, 0.0) + s.duration
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + own[s.sid]
            if s.row is not None:
                self.row_self_s[s.name] = (self.row_self_s.get(s.name, 0.0)
                                           + own[s.sid])
            if s.size is not None:
                self.size[s.name] = self.size.get(s.name, 0) + s.size
            parent = by_id.get(s.parent)
            key = (s.name, parent.name if parent else None)
            self.calls_under[key] = self.calls_under.get(key, 0) + 1

    def mean_s(self, name):
        """Inclusive seconds per call; 0 when the layer was not called."""
        calls = self.calls.get(name, 0)
        return self.total_s.get(name, 0.0) / calls if calls else 0.0
