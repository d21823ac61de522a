"""Span tracing of rom2l's public functions, installed from outside.

The tracer replaces each public function of the traced modules with a
wrapper, in every rom2l namespace that holds a reference to it, so a call
is recorded whichever module its caller looks it up in (``bench`` calls
``one_level_solve`` through its own namespace, ``solvers`` calls
``rom.residual`` through the ``rom`` module). A few ``RomWorkspace``
methods are wrapped on the class. Nothing under ``src/`` changes.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, op)``
tuples, reduced when the run ends and written out with :meth:`Tracer.write`. The self time of a span is its
duration minus the time its direct children cover; calls run on one
thread and nest properly, so the children are disjoint and the cover is
their summed duration. Times are integer nanoseconds, so the arithmetic
is exact.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("fem", "manufactured", "pod", "rom", "solvers", "bench")
# Spans whose callees are not recorded: the forcing sample is one layer
# of the online stage, and the ``exact_*`` calls inside it are its
# implementation. ``exact_u`` spans then count only calls from outside
# ``manufactured``, such as the harness's error pass.
LEAF_SPANS = frozenset({"manufactured.forcing_f"})
WORKSPACE_METHODS = {
    "__init__": "rom.RomWorkspace",
    "operators": "rom.operators",
    "forcing_values": "rom.forcing_values",
}

# Operation ids: 0 marks untimed work (warm-ups, checks), SETUP marks the
# offline stage, positive ids are timed operations.
UNTIMED = 0
SETUP = -1


class CoverageError(RuntimeError):
    """A span the workload must exercise never fired."""


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list = []
        self.iterations: dict[int, int] = {}  # span index -> Newton steps
        self.op = UNTIMED
        self._stack: list[int] = []
        self._patches: list = []
        self._in_leaf = False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        iterations = self.iterations if name == "solvers.newton_solve" else None
        leaf = name in LEAF_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self._in_leaf = leaf
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._in_leaf = False
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if iterations is not None:
                iterations[idx] = result.iterations
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s traced modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        prefix = package.__name__ + "."
        namespaces = [
            m for n, m in list(sys.modules.items())
            if n == package.__name__ or n.startswith(prefix)
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        workspace = sys.modules[prefix + "rom"].RomWorkspace
        for attr, name in WORKSPACE_METHODS.items():
            fn = vars(workspace)[attr]
            self._patches.append((workspace, attr, fn))
            setattr(workspace, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, one row per span, in call order."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{op}\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


class LayerStats:
    """Per-name call counts and self times, split by operation kind."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        covered = [0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_ns = [s[2] - s[1] - c for s, c in zip(spans, covered)]
        self.calls = defaultdict(int)  # (name, timed) -> calls
        self.self_total = defaultdict(int)  # (name, timed) -> ns
        self.setup_self = defaultdict(int)  # name -> ns
        self.children = defaultdict(set)  # parent index -> child names
        for i, (name, start, end, parent, op) in enumerate(spans):
            if parent >= 0:
                self.children[parent].add(name)
            if op == SETUP:
                self.setup_self[name] += self.self_ns[i]
            else:
                self.calls[name, op > 0] += 1
                self.self_total[name, op > 0] += self.self_ns[i]
        self.spans = spans
        self.names = {s[0] for s in spans}
        self.iterations = tracer.iterations

    def timed_calls(self, name: str) -> int:
        return self.calls[name, True]

    def timed_self_us(self, name: str) -> float:
        return self.self_total[name, True] / 1e3

    def setup_self_s(self, name: str) -> float:
        return self.setup_self[name] / 1e9

    def forcing_hit_ratio(self) -> float:
        """Share of timed ``forcing_values`` calls that did not sample ``forcing_f``."""
        calls = misses = 0
        for i, (name, _, _, _, op) in enumerate(self.spans):
            if name == "rom.forcing_values" and op > 0:
                calls += 1
                misses += "manufactured.forcing_f" in self.children[i]
        return (calls - misses) / calls if calls else 0.0

    def newton_iters(self) -> float:
        """Mean applied Newton steps per timed ``newton_solve`` call."""
        steps = [n for i, n in self.iterations.items() if self.spans[i][4] > 0]
        return sum(steps) / len(steps) if steps else 0.0

    def fom_evals(self) -> float:
        """Residual/Jacobian evaluations per timed ``fom_solve`` call.

        Each evaluation calls ``fem.element_connectivity`` once, so the
        count is that function's calls under ``fom_solve`` spans.
        """
        fom = {i for i, s in enumerate(self.spans)
               if s[0] == "solvers.fom_solve" and s[4] > 0}
        if not fom:
            return 0.0
        evals = 0
        for name, _, _, parent, _ in self.spans:
            if name == "fem.element_connectivity":
                while parent >= 0 and parent not in fom:
                    parent = self.spans[parent][3]
                evals += parent >= 0
        return evals / len(fom)

    def check_nesting(self) -> None:
        """Raise if a child span leaves its parent or a self time is negative."""
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                p = self.spans[parent]
                if not (p[1] <= start <= end <= p[2]):
                    raise AssertionError(f"span {i} ({name}) leaves its parent {p[0]}")
            if self.self_ns[i] < 0:
                raise AssertionError(f"span {i} ({name}) has negative self time")

    def check_coverage(self, required) -> None:
        """Raise :class:`CoverageError` if a required span never fired."""
        missing = [name for name in required if name not in self.names]
        if missing:
            raise CoverageError("spans never fired: " + ", ".join(missing))
