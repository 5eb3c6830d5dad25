"""In-memory spans around the public functions of ifp's modules.

``install`` swaps every public, non-generator function defined in
``ifp.syntax``, ``ifp.core``, ``ifp.semantics``, ``ifp.calculus``,
``ifp.prover`` and ``ifp.cli`` for a wrapper that records a span, in
every ifp module that holds a reference to it; ``uninstall`` puts the
originals back.  The library's source is never touched.  A function
that recurses through its own module-level name (``metatrue``,
``replace_at``, ...) is folded into one span per outermost call.

A span is (name, start, end, parent, goal): parent is the index of the
enclosing span or -1, and goal is the id the benchmark set before
starting the goal the span belongs to.  Spans are held in flat arrays
and written out by ``dump`` after the run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("syntax", "core", "semantics", "calculus", "prover", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.goal = array("q")
        self.stack: list[int] = []
        self.goal_id = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.goal.append(self.goal_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int, goal: int) -> int:
        """Record a finished span measured elsewhere, such as in a child process."""
        index = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.goal.append(goal)
        return index

    def __len__(self) -> int:
        return len(self.name)

    def dump(self, path) -> None:
        """Write the spans as gzipped tab-separated lines.

        The first line is ``# names`` and a JSON list of span names; each
        following line is ``name start end parent goal``, the name as an
        index into that list and the times in seconds.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("# names " + json.dumps(self.names) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.goal):
                handle.write("%d\t%r\t%r\t%d\t%d\n" % row)


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    names = tracer.name
    stack = tracer.stack

    def traced(*args, **kwargs):
        if stack and names[stack[-1]] == nid:
            return fn(*args, **kwargs)
        index = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def install(tracer: Tracer) -> list:
    """Wrap the public functions of every layer; returns what ``uninstall`` needs."""
    modules = [importlib.import_module("ifp")]
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ifp.{layer}")
        modules.append(module)
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not inspect.isgeneratorfunction(value)
            ):
                wrappers[value] = _wrap(tracer, f"{layer}.{attr}", value)
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)
