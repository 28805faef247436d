"""Spans and counters recorded around library calls, from outside the library.

The library is not edited.  Instead a wrapper replaces each traced callable
in every ``treewave`` namespace that holds it: modules such as ``verify``,
``energy`` and ``experiment`` import ``solve``, ``m_operator`` and others with
``from .wave import ...``, so rebinding ``treewave.wave.solve`` alone would
miss their calls.  Module-level lists are searched too, which is how the
entries of ``verify._CHECKS`` are replaced; ``run_verification`` picks the
conservation check by identity, and that still holds because the list entry
and the module attribute are rebound to the same wrapper.
"""

from __future__ import annotations

import functools
import sys
import time


def _namespaces():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "treewave" or name.startswith("treewave."))
    ]


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) for ``module:path``."""
    owner = sys.modules[module_name]
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


class Rebinder:
    """Replaces callables everywhere they are bound, and puts them back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def replace(self, module_name: str, path: str, make_wrapper) -> None:
        owner, attribute, original = _resolve(module_name, path)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            # a method: every caller reaches it through the one class object
            self._set(owner, attribute, wrapper)
            return
        for module in _namespaces():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)
                elif isinstance(value, list):
                    for index, item in enumerate(value):
                        if item is original:
                            self._undo.append(("item", value, index, original))
                            value[index] = wrapper

    def _set(self, owner, attribute, value) -> None:
        self._undo.append(("attr", owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original


class SnapshotCounter:
    """Counts the stored (nonzero) snapshot values of every trajectory that
    ``solve`` and ``radial_solve`` return; optionally keeps the last vertex
    trajectory, whose final snapshot feeds the microbenchmarks.

    This is the only instrumentation in untraced runs: a length sum over the
    snapshots, once per solve call.
    """

    def __init__(self, keep_last: bool = False):
        self.vertex_values = 0
        self.radial_values = 0
        self.last_vertex_trajectory = None
        self._keep_last = keep_last

    def install(self, rebinder: Rebinder) -> None:
        def count_vertex(solve):
            @functools.wraps(solve)
            def counted(*args, **kwargs):
                trajectory = solve(*args, **kwargs)
                self.vertex_values += sum(
                    len(state.value_map()) for state in trajectory.snapshots.values()
                )
                if self._keep_last:
                    self.last_vertex_trajectory = trajectory
                return trajectory

            return counted

        def count_radial(radial_solve):
            @functools.wraps(radial_solve)
            def counted(*args, **kwargs):
                trajectory = radial_solve(*args, **kwargs)
                self.radial_values += sum(
                    len(profile.support()) for profile in trajectory.snapshots.values()
                )
                return trajectory

            return counted

        rebinder.replace("treewave.wave", "solve", count_vertex)
        rebinder.replace("treewave.radial", "radial_solve", count_radial)

    @property
    def values(self) -> int:
        return self.vertex_values + self.radial_values


class Tracer:
    """Records one span per call of each wrapped callable.

    A span is ``(name, start, end, parent index, run id)``; parent is -1 for
    a span with no traced caller.  Spans stay in memory until the run ends.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def install(self, rebinder: Rebinder, targets) -> None:
        for name, module_name, path in targets:
            rebinder.replace(module_name, path, functools.partial(self._wrap, name))

    def _wrap(self, name: str, function):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)

        return traced

    def summary(self) -> tuple[dict, float]:
        """Per span name: calls, total time and self time (duration minus
        the time covered by its direct children); and the summed duration of
        the top-level spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name: dict = {}
        top_level = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[index]
            if parent < 0:
                top_level += end - start
        return by_name, top_level
