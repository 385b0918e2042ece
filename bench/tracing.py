"""Span tracing by rebinding function names, with no edit to the package.

A wrapped function is replaced, under every name that refers to it in the
package's modules (including values of module-level dicts such as the CLI's
runner table), by a wrapper that records one span per call.  Spans are held in
memory as (id, name, start, end, parent id, op id) tuples and aggregated at
the end, so a traced run writes nothing while it measures.

Stdlib only: the CLI trace child imports this before it imports the package.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

# Package functions that are not in ``interferlab.__all__`` but cross a module
# boundary, so their cost is worth a span of its own.
EXTRA_TARGETS = (
    ("interferlab.paths", "_path_kets"),
    ("interferlab.paths", "_subset_effects"),
    ("interferlab.cli", "_resolve_config"),
    ("interferlab.cli", "_emit"),
    ("interferlab.cli", "_run_mz_sweep"),
    ("interferlab.cli", "_run_sorkin"),
    ("interferlab.cli", "_run_kickback"),
    ("interferlab.cli", "_run_deutsch"),
    ("interferlab.cli", "_run_exchange"),
    ("interferlab.cli", "_run_phase_order"),
)


class Tracer:
    """Records spans while installed; restores every rebinding on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self.op_id = -1
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: float, parent: int | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, used for harness-level ops."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent)

    def _wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, start, parent)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("interferlab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = wrapper

    def install(self, hooks: dict | None = None) -> "Tracer":
        """Wrap every public package function, the extra targets and eigvalsh."""
        import numpy as np
        import interferlab

        hooks = hooks or {}
        targets = []
        for public in interferlab.__all__:
            fn = getattr(interferlab, public, None)
            if inspect.isfunction(fn):
                targets.append((fn.__module__, public, fn))
        for mod_name, attr in EXTRA_TARGETS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if inspect.isfunction(fn):  # a helper the package dropped gets no spans
                targets.append((mod_name, attr, fn))
        for mod_name, attr, fn in targets:
            name = f"{mod_name.rpartition('.')[2]}.{attr}"
            self._rebind(fn, self._wrap(fn, name, hooks.get(name)))
        eigvalsh = np.linalg.eigvalsh
        self._undo.append((np.linalg, "eigvalsh", eigvalsh))
        np.linalg.eigvalsh = self._wrap(eigvalsh, "core.eigvalsh")
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds.

    Busy time counts only the outermost span of a name, so recursion is not
    counted twice.  Self time is a span's duration minus the durations of its
    direct children; calls are sequential on one thread, so children never
    overlap and their durations add.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for sid, name, start, end, parent, _ in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[sid]
        ancestor = parent
        nested = False
        while ancestor is not None and ancestor in by_id:
            if by_id[ancestor][1] == name:
                nested = True
                break
            ancestor = by_id[ancestor][4]
        if not nested:
            entry["busy_s"] += end - start
    return dict(stats)
