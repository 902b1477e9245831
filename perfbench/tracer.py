"""Spans around the library's layer boundaries, recorded from outside.

`Tracer.install()` replaces each listed public function with a wrapper in
every loaded module namespace that holds it (the defining module, the
package, and every module that imported it by name, this benchmark's
included), and patches the listed methods on their classes.  Each call
becomes a span: name, start, end and parent, kept in flat in-memory
arrays and written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls nest strictly (one thread), so the child time is accumulated on a
stack instead of being reconstructed from the span list.

Counts are gathered at the same boundaries; anything expensive to count
(pieces and denominator sizes of output states) is kept by reference and
measured after the round, outside the timed region.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# span name -> list of (module, attribute) whose object is wrapped.
FUNCTIONS = {
    "graph.validate_graph": [("netflow.graph", "validate_graph")],
    "graph.build_adjacency": [("netflow.graph", "build_adjacency")],
    "states.sample": [("netflow.states", "sample")],
    "semigroup.evolve_unit": [("netflow.semigroup", "evolve_unit")],
    "semigroup.subdivide": [("netflow.semigroup", "subdivide")],
    "semigroup.lift_state": [("netflow.semigroup", "lift_state")],
    "semigroup.project_state": [("netflow.semigroup", "project_state")],
    "semigroup.evolve_rational": [("netflow.semigroup", "evolve_rational")],
    "semigroup.evolve_absorbing": [("netflow.semigroup", "evolve_absorbing")],
    "tracing.trace_samples": [("netflow.tracing", "trace_samples")],
    "resolvent.resolvent_unit": [("netflow.resolvent", "resolvent_unit")],
    "resolvent.resolvent_general": [("netflow.resolvent", "resolvent_general")],
    "resolvent.laplace_oracle": [("netflow.resolvent", "laplace_oracle")],
    "resolvent.resolvent_identity_check": [("netflow.resolvent", "resolvent_identity_check")],
    "approximation.resolvent_convergence": [("netflow.approximation", "resolvent_convergence")],
    "parallel.map_ordered": [("netflow.parallel", "map_ordered")],
    "fileio.parse": [
        ("netflow.fileio", "parse_graph_file"),
        ("netflow.fileio", "parse_graph_text"),
        ("netflow.fileio", "parse_state_file"),
        ("netflow.fileio", "parse_state_text"),
        ("netflow.fileio", "parse_plotdata"),
    ],
    "fileio.emit_plotdata": [("netflow.fileio", "emit_plotdata")],
    "fileio.write": [
        ("netflow.fileio", "write_text"),
        ("netflow.fileio", "write_json"),
        ("netflow.fileio", "write_runlog"),
    ],
    "cli.absorb": [("netflow.cli", "_cmd_absorb")],
    "cli.main": [("netflow.cli", "main")],
}

# span name -> list of (module, class, method).
METHODS = {
    "graph.apply": [("netflow.graph", "AdjacencyOperator", "apply")],
    "states.algebra": [
        ("netflow.states", "NetworkState", "__add__"),
        ("netflow.states", "NetworkState", "__sub__"),
        ("netflow.states", "NetworkState", "hadamard"),
        ("netflow.states", "NetworkState", "scale"),
    ],
}

COUNTS = (
    "fileio.bytes_out",
    "semigroup.sub_edges",
    "semigroup.c_max",
    "resolvent.series_terms",
)


def _den_bits(state) -> int:
    bits = max(b.denominator.bit_length() for b in state.breakpoints)
    for v in state.values:
        for _, x in v.items():
            den = getattr(x, "denominator", 1)
            bits = max(bits, den.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.reset()

    def reset(self):
        """Start a new recording window (one traced round)."""
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []      # [span index, child time so far]
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts = {name: 0 for name in COUNTS}
        self.outputs: list = []     # exact states returned to the benchmark itself
        self._absorb_depth = 0
        self.units_in_absorb = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, args, kwargs):
        nid = self._id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        absorbing = name == "semigroup.evolve_absorbing"
        if absorbing:
            self._absorb_depth += 1
        elif name == "semigroup.evolve_unit" and self._absorb_depth:
            self.units_in_absorb += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            _, child = self._stack.pop()
            dur = t1 - t0
            self.start[idx] = t0
            self.end[idx] = t1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1][1] += dur
            if absorbing:
                self._absorb_depth -= 1
        self._observe(name, out, top=not self._stack)
        return out

    def _observe(self, name, out, top):
        if name == "fileio.emit_plotdata":
            self.counts["fileio.bytes_out"] += len(out)
        elif name == "semigroup.subdivide":
            self.counts["semigroup.sub_edges"] += out.sub_edges()
            self.counts["semigroup.c_max"] = max(self.counts["semigroup.c_max"], float(out.c))
        elif name in ("resolvent.resolvent_unit", "resolvent.resolvent_general"):
            self.counts["resolvent.series_terms"] += out.terms
        elif top and name in ("semigroup.evolve_unit", "semigroup.evolve_rational"):
            self.outputs.append(out)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every listed function wherever it is bound; returns an
        undo list for `uninstall`."""
        undo = []
        for name, targets in FUNCTIONS.items():
            for modname, attr in targets:
                original = getattr(sys.modules[modname], attr)
                wrapper = self.wrap(name, original)
                for mod in list(sys.modules.values()):
                    space = getattr(mod, "__dict__", None)
                    if space is not None and space.get(attr) is original:
                        undo.append((space, attr, original))
                        space[attr] = wrapper
        for name, targets in METHODS.items():
            for modname, clsname, meth in targets:
                cls = getattr(sys.modules[modname], clsname)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
        return undo

    @staticmethod
    def uninstall(undo):
        for space, attr, original in reversed(undo):
            if isinstance(space, dict):
                space[attr] = original
            else:
                setattr(space, attr, original)

    def round_counts(self) -> dict:
        """Exact counts of the window; measured after the timed region."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        out["states.pieces_out"] = sum(len(st.values) for st in self.outputs)
        out["states.den_bits_max"] = max((_den_bits(st) for st in self.outputs), default=0)
        absorbs = self.calls.get("semigroup.evolve_absorbing", 0)
        out["semigroup.evolve_unit.calls_per_absorb"] = (
            self.units_in_absorb / absorbs if absorbs else 0
        )
        return out

    def write_spans(self, path):
        """One JSON array per span: [index, parent, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(self.start)):
                fh.write(json.dumps([k, self.parent[k], self.names[self.name_id[k]],
                                     self.start[k], self.end[k]]) + "\n")
