"""In-memory spans for the traced run.

A span has a name, the id of the item it belongs to, a parent span, a
start and an end.  Spans are appended to flat arrays while the workload
runs and written out once, when it ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.item = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.item_id = -1
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span; returns its index."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.item.append(self.item_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; close it with ``close``."""
        index = self.add(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with every call recorded as a span; ``on_result`` sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(self.names, 0.0)
        for i, nid in enumerate(self.name_id):
            totals[self.names[nid]] += self.end[i] - self.start[i] - covered[i]
        return totals

    def write(self, path: Path) -> None:
        """One tab-separated line per span: name, item, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span\tname\titem\tparent\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name_id):
                out.write(
                    f"{i}\t{self.names[nid]}\t{self.item[i]}\t{self.parent[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
