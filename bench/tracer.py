"""Module-by-module timing of the engine from outside it.

A ``Tracer`` wraps public functions of the ``arcmult`` modules for the
duration of a ``with`` block and restores the originals afterwards.  Engine
modules bind each other's functions with ``from .x import y``, so a wrapper
is installed on every module-level name that holds the original, not only
on the defining module; methods are patched on their class.

Spans are folded into per-name totals as they close (a corpus pass makes
tens of thousands of ``arc_substitute`` calls), keeping inclusive time,
self time (duration minus the time of wrapped calls inside it), call counts,
and calls and time per parent -> child pair.
"""

from __future__ import annotations

import functools
import sys
import time

#: Layer name -> (module, attribute); a dotted attribute patches a class method.
TARGETS = {
    "contact.sample_arcs": ("arcmult.contact", "sample_arcs"),
    "contact.normalized_contact": ("arcmult.contact", "normalized_contact"),
    "contact.contact_order": ("arcmult.contact", "contact_order"),
    "series.arc_substitute": ("arcmult.series", "arc_substitute"),
    "blowup.nash_sequence": ("arcmult.blowup", "nash_sequence"),
    "blowup.strict_transform": ("arcmult.blowup", "strict_transform"),
    "blowup.blowup_lift": ("arcmult.blowup", "blowup_lift"),
    "rees.diff_closure": ("arcmult.rees", "ReesAlgebra.diff_closure"),
    "elimination.ord_d": ("arcmult.elimination", "ord_d"),
    "elimination.visible_elimination": ("arcmult.elimination", "visible_elimination"),
    "elimination.minimizing_arc": ("arcmult.elimination", "minimizing_arc"),
    "elimination.verify_main_theorem": ("arcmult.elimination", "verify_main_theorem"),
    "problems.parse_problem": ("arcmult.problems", "parse_problem"),
    "problems.run": ("arcmult.problems", "run"),
    "problems.to_json": ("arcmult.problems", "Report.to_json"),
}


def _result_size(name: str, result) -> int:
    """Work a call produced, for the layers that report a size."""
    if name == "contact.sample_arcs":
        return len(result)
    if name == "blowup.nash_sequence":
        return len(result.sequence) - 1
    if name == "rees.diff_closure":
        return len(result.generators)
    return 0


class Stat:
    __slots__ = ("calls", "inclusive", "self_time", "size")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.size = 0


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.stats`` afterwards."""

    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self.edges = {}  # (parent name, child name) -> [calls, seconds]
        self._stack = []  # open spans: [name, start, child time]
        self._patches = []  # (namespace, attribute, original)

    def _wrap(self, name, original):
        stack, edges, stat = self._stack, self.edges, self.stats[name]
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                stat.calls += 1
                stat.inclusive += duration
                stat.self_time += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    edge = edges.setdefault((parent[0], name), [0, 0.0])
                    edge[0] += 1
                    edge[1] += duration
            stat.size += _result_size(name, result)
            return result

        return wrapper

    def __enter__(self):
        engine = [m for n, m in list(sys.modules.items()) if n == "arcmult" or n.startswith("arcmult.")]
        try:
            for name, (module_name, attribute) in TARGETS.items():
                module = sys.modules[module_name]
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    owner = getattr(module, class_name)
                    original = vars(owner)[method]
                    self._patch(owner, method, original, self._wrap(name, original))
                    continue
                original = getattr(module, attribute)
                wrapper = self._wrap(name, original)
                for namespace in engine:
                    for bound, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, bound, original, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, namespace, attribute, original, wrapper):
        self._patches.append((namespace, attribute, original))
        setattr(namespace, attribute, wrapper)

    def restore(self):
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    def __exit__(self, *exc_info):
        self.restore()
        return False
