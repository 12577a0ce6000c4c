"""Span tracing of the shallowdw layers from outside the package.

Each wrapper replaces a function in the module namespace where its caller
looks the name up, so the package itself carries no tracing code.  Spans are
held in memory as ``(op, span_id, parent_id, name, start, end)`` and written
out when the run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

# (module, attribute, span name)
PATCHES = (
    ("shallowdw.cli", "main", "cli.main"),
    ("shallowdw.cli", "potential_curve", "transform.potential_curve"),
    ("shallowdw.cli", "ground_state", "transform.ground_state"),
    ("shallowdw.cli", "excited_state", "transform.excited_state"),
    ("shallowdw.oracle", "verify_spectrum", "oracle.verify_spectrum"),
    ("shallowdw.oracle", "check_intertwining", "oracle.check_intertwining"),
    ("shallowdw.oracle", "build_hamiltonian", "oracle.build_hamiltonian"),
    ("shallowdw.oracle", "sturm_count", "oracle.sturm_count"),
    ("shallowdw.oracle", "lowest_eigenpairs", "oracle.lowest_eigenpairs"),
    ("shallowdw.oracle", "eigen_residual", "oracle.eigen_residual"),
    ("shallowdw.oracle", "potential_curve", "transform.potential_curve"),
    ("shallowdw.oracle", "ground_state", "transform.ground_state"),
    ("shallowdw.oracle", "excited_state", "transform.excited_state"),
    ("shallowdw.oracle", "first_derivative", "grids.derivative"),
    ("shallowdw.oracle", "second_derivative", "grids.derivative"),
    ("shallowdw.wells", "check_bimodality_relation",
     "wells.check_bimodality_relation"),
    ("shallowdw.wells", "classify", "wells.classify"),
    ("shallowdw.wells", "ground_state", "transform.ground_state"),
    ("shallowdw.dynamics", "evolve_series", "dynamics.evolve_series"),
    ("shallowdw.dynamics", "ground_state", "transform.ground_state"),
    ("shallowdw.dynamics", "excited_state", "transform.excited_state"),
)

Span = Tuple[int, int, Optional[int], str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.op = 0              # identifier shared by the spans of one op
        self.missing: List[str] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)   # reserve the id; filled in on return
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.op, span_id, parent, name, start, end)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every wrapper in; restore the originals on exit.

        A function that a later version of the package renamed or removed is
        listed in ``missing`` and its metrics read 0.
        """
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _self_times(self) -> Iterator[Tuple[int, str, float, float]]:
        """(op, name, duration, self time) per span, in seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for op, span_id, _, name, start, end in self.spans:
            yield op, name, end - start, end - start - child_time[span_id]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _, name, duration, self_time in self._self_times():
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += self_time
        return out

    def op_self_times(self) -> List[float]:
        """Sum of all self times per op, in seconds."""
        per_op: Dict[int, float] = defaultdict(float)
        for op, _, _, self_time in self._self_times():
            per_op[op] += self_time
        return list(per_op.values())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
