"""Directed metric graphs with column-stochastic edge routing.

Each edge is a copy of [0,1] parametrized against the direction of travel:
the tail sits at parameter 1, the head at parameter 0, and material moves
toward 0.  Mass leaving edge j at its head is split among the edges whose
tail is that vertex; the share routed into edge i is the weight w(i, j).
Stacking these weights gives an edge-to-edge matrix whose column j lists
where edge j's output goes, and conservation of mass is exactly the
statement that every column sums to one.  Weights are `fractions.Fraction`
throughout so that column sums, and everything downstream that depends on
them, can be tested for equality instead of closeness.

Graphs come in two flavours.  Finite graphs hold their edges and weights
in dictionaries and validate structure eagerly.  Lazy graphs describe a
possibly infinite edge set through two callbacks and validate each column
on first access, which is the only moment an infinite object can be
checked at all; a lazy column must sum to one, as the paper's boundary
matrices do.  Both check a weight by one rule: exact, nonnegative, and
joining the head of its source to the tail of its receiver.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (
    MalformedGraphError,
    MissingVelocityError,
    NotRationalError,
)
from .exact import as_exact, float_or_inf, is_rational

__all__ = [
    "SparseVector",
    "MetricGraph",
    "VelocityProfile",
    "AdjacencyOperator",
    "ValidationReport",
    "validate_graph",
    "build_adjacency",
]

# Lazy columns longer than this are treated as a runaway callback.
MAX_LAZY_COLUMN = 100_000


class SparseVector:
    """Finitely supported edge-id -> value map.

    Zero entries are dropped at construction, so two vectors are equal
    exactly when their dictionaries are.  Values may be Fraction, int,
    float or complex; exactness is a property of what you put in.

    A vector an exact array kernel built holds its row of the kernel's
    integer form in `_row` (see _arrays._Rows), which fileio.emit_plotdata
    writes from, and no dict: the first read of its entries has the table
    build every row's dict, and the vector adopts its own.  Every other
    vector has its dict from the start and leaves `_row` unset.  The dict
    is built from the row's numerators, and no vector is ever mutated, so
    the two always hold the same values.
    """

    __slots__ = ("_entries", "_row")

    def __init__(self, entries: Mapping | Iterable | None = None):
        if entries is None:
            entries = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        self._entries = {j: v for j, v in items if v != 0}

    def __getattr__(self, name):
        # reached only when normal lookup fails: a kernel vector's unset
        # `_entries` come from its row's table; any other name is missing
        if name == "_entries":
            try:
                table, k = self._row
            except AttributeError:
                pass
            else:
                self._entries = entries = table.dicts()[k]
                return entries
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @classmethod
    def _from_nonzero(cls, entries: dict) -> "SparseVector":
        """Adopt a dict whose values are already all nonzero, without a copy."""
        self = object.__new__(cls)
        self._entries = entries
        return self

    def get(self, j, default=0):
        return self._entries.get(j, default)

    def items(self):
        return self._entries.items()

    def values(self):
        return self._entries.values()

    def support(self):
        return self._entries.keys()

    def to_dict(self) -> dict:
        return dict(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def l1(self):
        """The l1 norm, sum of absolute values over the support."""
        return sum(abs(v) for v in self._entries.values())

    def total(self):
        """Signed sum of the entries (the mass functional on vectors)."""
        return sum(self._entries.values())

    def scale(self, a) -> "SparseVector":
        if a == 0:
            return SparseVector()
        return SparseVector({j: a * v for j, v in self._entries.items()})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self._entries)
        for j, v in other._entries.items():
            out[j] = out.get(j, 0) + v
        return SparseVector(out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self._entries)
        for j, v in other._entries.items():
            out[j] = out.get(j, 0) - v
        return SparseVector(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __repr__(self):
        inner = ", ".join(f"{j}: {v}" for j, v in sorted(self._entries.items(), key=lambda kv: repr(kv[0])))
        return f"SparseVector({{{inner}}})"


class MetricGraph:
    """A directed graph of unit-interval edges with routing weights.

    Use :meth:`finite` or :meth:`lazy` to construct.  Finite graphs check
    eagerly that weights only connect adjacent edge pairs (head of the
    source is tail of the receiver), that weights are nonnegative exact
    rationals, and that no head vertex is a sink.  Column sums are *not*
    enforced at construction; `validate_graph` reports them, which keeps
    broken inputs inspectable.  Lazy graphs check the same of each column
    on first access, and that it sums to one.
    """

    def __init__(self, *_, **__):
        raise TypeError("use MetricGraph.finite(...) or MetricGraph.lazy(...)")

    @classmethod
    def finite(
        cls,
        edges: Iterable[tuple],
        weights: Mapping[tuple, object],
        *,
        name: str = "",
        allow_sinks: bool = False,
    ) -> "MetricGraph":
        """Build a finite graph from (id, tail, head) triples and a weight map.

        `weights` maps (receiver, source) edge-id pairs to exact rationals.
        The edge order, each column and row (keys in the weights' order)
        and the sink vertices (in edge-id order) are built here, once.
        `allow_sinks` exists for diagnostic construction only, so that
        validate_graph can flag sinks instead of never seeing one; without
        it the first sink refuses the graph.  Columns need not sum to one
        here: validate_graph reports the ones that do not, and the
        operators apply them as they are.
        """
        self = object.__new__(cls)
        self.name = name
        self._lazy = False
        self._edges = {}
        for eid, tail, head in edges:
            if eid in self._edges:
                raise MalformedGraphError(f"duplicate edge id {eid!r}")
            self._edges[eid] = (tail, head)
        try:
            self._order = tuple(sorted(self._edges))
        except TypeError:
            kinds = ", ".join(sorted({type(e).__name__ for e in self._edges}))
            raise MalformedGraphError(f"edge ids of types {kinds} cannot be sorted together") from None
        self._columns, self._rows = {j: {} for j in self._edges}, {j: {} for j in self._edges}
        for (i, j), w in weights.items():
            w = self._entry(i, j, w)
            if w != 0:
                self._columns[j][i] = self._rows[i][j] = w
        tails = {t for (t, _) in self._edges.values()}
        self._sinks = {}  # sink vertex -> first edge, by id, whose head it is
        for eid in self._order:
            head = self._edges[eid][1]
            if head not in tails:
                self._sinks.setdefault(head, eid)
        if self._sinks and not allow_sinks:
            head, eid = next(iter(self._sinks.items()))
            raise MalformedGraphError(f"vertex {head!r} (head of edge {eid!r}) has no outgoing edge")
        # tables its solvers build on first use, each read-only and kept by
        # the one function that builds it; a lazy graph keeps none
        self._kept = {}
        return self

    @classmethod
    def lazy(
        cls,
        column_fn: Callable[[object], Iterable[tuple]],
        endpoints_fn: Callable[[object], tuple],
        *,
        name: str = "",
    ) -> "MetricGraph":
        """Build a lazily-described (possibly infinite) stochastic graph.

        `column_fn(j)` must return the finite column of the adjacency
        matrix for source edge j as (receiver, weight) pairs sorted by
        receiver id; `endpoints_fn(j)` returns (tail, head).  Each column
        is checked on first access: it must be an explicit finite
        sequence, sorted, nonempty (no sinks), of weights that pass the
        finite graph's checks through `endpoints_fn` and sum to exactly
        one, the paper's hypothesis on an infinite network.
        """
        self = object.__new__(cls)
        self.name = name
        self._lazy = True
        self._column_fn = column_fn
        self._endpoints_fn = endpoints_fn
        self._columns, self._ends = {}, {}
        return self

    # -- shared interface ------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return not self._lazy

    @property
    def edge_ids(self):
        """Sorted edge ids, a fresh list of the order built with the graph; finite only."""
        self._require_finite("edge_ids")
        return list(self._order)

    def __len__(self):
        self._require_finite("len")
        return len(self._edges)

    def endpoints(self, j) -> tuple:
        """(tail, head) of edge j; a lazy graph calls back once per edge."""
        if self._lazy:
            pair = self._ends.get(j)
            if pair is None:
                pair = self._endpoints_fn(j)
                if not isinstance(pair, tuple) or len(pair) != 2:
                    raise MalformedGraphError(
                        f"endpoints callback returned {pair!r} for edge {j!r}")
                self._ends[j] = pair
            return pair
        try:
            return self._edges[j]
        except KeyError:
            raise MalformedGraphError(f"unknown edge {j!r}") from None

    def column(self, j) -> dict:
        """Column j of the routing matrix: receiver id -> weight."""
        if not self._lazy:
            try:
                return self._columns[j]
            except KeyError:
                raise MalformedGraphError(f"unknown edge {j!r}") from None
        cached = self._columns.get(j)
        if cached is None:
            cached = self._check_lazy_column(j, self._column_fn(j))
            self._columns[j] = cached
        return cached

    def feeders(self, i) -> dict:
        """Row i of the routing matrix, built with the graph: source id -> weight; finite only."""
        self._require_finite("feeders")
        try:
            return self._rows[i]
        except KeyError:
            raise MalformedGraphError(f"unknown edge {i!r}") from None

    def _walk(self, seeds, lag, horizon) -> list:
        """(j, column j) for the edges that outflow before `horizon`, in
        order of earliest outflow: the distinct `seeds` at 0, and an edge i
        first met in column j at j's outflow plus lag(i), called once per
        new edge in the order they are met.  Ties keep that order, so at a
        constant lag this is breadth-first order."""
        heap = [(0, n, j) for n, j in enumerate(seeds)]
        seen, read = set(seeds), []
        while heap and heap[0][0] < horizon:
            out, _, j = heapq.heappop(heap)
            read.append((j, self.column(j)))
            for i in read[-1][1]:
                if i not in seen:
                    seen.add(i)
                    heapq.heappush(heap, (out + lag(i), len(seen), i))
        return read

    def _check_lazy_column(self, j, col) -> dict:
        if not isinstance(col, (list, tuple)):
            raise MalformedGraphError(
                f"lazy column for edge {j!r} is not an explicit sequence; "
                f"refusing a possibly infinite column"
            )
        if len(col) > MAX_LAZY_COLUMN:
            raise MalformedGraphError(f"lazy column for edge {j!r} has runaway length")
        if not col:
            raise MalformedGraphError(f"edge {j!r} has an empty column (sink)")
        if not all(isinstance(e, (tuple, list)) and len(e) == 2 for e in col):
            raise MalformedGraphError(f"lazy column for edge {j!r} has an entry that is not "
                                      f"a (receiver, weight) pair")
        try:
            unsorted = any(a[0] >= b[0] for a, b in zip(col, col[1:]))
        except TypeError:
            kinds = ", ".join(sorted({type(i).__name__ for i, _ in col}))
            raise MalformedGraphError(f"lazy column for edge {j!r} lists receivers of types "
                                      f"{kinds}, which cannot be sorted together") from None
        if unsorted:
            raise MalformedGraphError(f"lazy column for edge {j!r} is not sorted")
        out = {}
        for i, w in col:
            w = self._entry(i, j, w)
            if w != 0:
                out[i] = w
        if sum(out.values()) != 1:
            raise MalformedGraphError(
                f"column of edge {j!r} sums to {sum(out.values())}, expected 1"
            )
        return out

    def _entry(self, i, j, w) -> Fraction:
        """Weight w(i, j), checked: i and j are edges, the head of j is the
        tail of i, w is exact and >= 0.  Every graph's one weight rule; a
        refusal names the pair (i, j)."""
        what = f"weight ({i!r}, {j!r})"
        try:
            adjacent = self.endpoints(j)[1] == self.endpoints(i)[0]
        except MalformedGraphError as err:
            raise MalformedGraphError(f"{what}: {err}", pair=(i, j)) from None
        if not adjacent:
            raise MalformedGraphError(f"{what} connects non-adjacent edges: head of {j!r} "
                                      f"is not tail of {i!r}", pair=(i, j))
        w = as_exact(w, what=what)
        if w < 0:
            raise MalformedGraphError(f"{what} is negative", pair=(i, j))
        return w

    def _require_finite(self, op: str):
        if self._lazy:
            raise MalformedGraphError(f"{op} is not available on a lazy graph")

    def __repr__(self):
        if self._lazy:
            return f"MetricGraph(lazy, name={self.name!r})"
        return f"MetricGraph({len(self._edges)} edges, name={self.name!r})"


class VelocityProfile:
    """Per-edge transport speeds.

    Speeds are stored as given, an int (not a bool) as a `Fraction` that
    keeps 1/c exact; floats are accepted for the approximation machinery.  A
    `default` speed covers the edges not listed, so a lazy graph can
    carry listed speeds over a default; `c_min` and `c_max` bound them.
    """

    def __init__(self, values: Mapping, *, default=None):
        self.values = {j: Fraction(c) if type(c) is int else c for j, c in dict(values).items()}
        self.default = Fraction(default) if type(default) is int else default
        pool = list(self.values.values()) + ([self.default] if self.default is not None else [])
        if not pool:
            raise MissingVelocityError("velocity profile is empty")
        rational = True
        for c in pool:
            if not 0 < float_or_inf(c) < math.inf:
                raise MalformedGraphError(f"velocity {c} is not positive and finite")
            rational &= is_rational(c)
        self.c_min, self.c_max = min(pool), max(pool)
        self._rational = rational

    def velocity(self, j):
        if j in self.values:
            return self.values[j]
        if self.default is not None:
            return self.default
        raise MissingVelocityError(f"no velocity for edge {j!r}")

    def is_rational(self) -> bool:
        """Whether every speed, listed or default, is exact."""
        return self._rational

    def exact(self, j) -> Fraction:
        c = self.velocity(j)
        if not is_rational(c):
            raise NotRationalError(f"velocity of edge {j!r} is not an exact rational: {c!r}")
        return c

    def items(self):
        return self.values.items()

    def __repr__(self):
        body = ", ".join(f"{j}: {c}" for j, c in sorted(self.values.items(), key=lambda kv: repr(kv[0])))
        tail = f", default={self.default}" if self.default is not None else ""
        return f"VelocityProfile({{{body}}}{tail})"


def _couple(g: MetricGraph, vel: VelocityProfile | None, v: SparseVector) -> SparseVector:
    """C v for C_ij = (c_j / c_i) w_ij at the speeds `vel` (None: C = B),
    read from the columns of supp v only.  The multiply-add loop takes any
    values, so exact vectors stay exact.  A profile of one exact speed
    reads B; any other takes the product for every column, which at equal
    exact speeds is w_ij itself and at float speeds carries its rounding."""
    if vel is not None and not vel.values and is_rational(vel.default):
        vel = None
    out: dict = {}
    for j, a in v.items():
        col = g.column(j)
        if vel is not None:
            c_j = vel.velocity(j)
            col = {i: w * c_j / vel.velocity(i) for i, w in col.items()}
        for i, w in col.items():
            out[i] = out.get(i, 0) + w * a
    return SparseVector(out)


class AdjacencyOperator:
    """The routing matrix as a view of (graph, scaling): B, or with a
    velocity profile C_ij = (c_j / c_i) w_ij, the matrix that couples edge
    traces when speeds differ.  The library reads (graph, speeds); the view
    stays for callers that still pass one."""

    __slots__ = ("graph", "scaling")

    def __init__(self, graph: MetricGraph, scaling: VelocityProfile | None = None):
        self.graph = graph
        self.scaling = scaling

    @property
    def scaled(self) -> bool:
        return self.scaling is not None

    def apply(self, v: SparseVector) -> SparseVector:
        return _couple(self.graph, self.scaling, v)

    def __repr__(self):
        return f"AdjacencyOperator({self.graph!r}, {'scaled' if self.scaled else 'unscaled'})"


@dataclass
class ValidationReport:
    """Outcome of validate_graph.

    `column_sums` and `column_ok` cover every edge; pass means the
    sum is exactly one.  Structural flags list what was found, and `ok`
    is the conjunction of everything.
    """

    probed: tuple
    column_sums: dict
    column_ok: dict
    loops: list = field(default_factory=list)
    duplicates: list = field(default_factory=list)
    sinks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(self.column_ok.values())
            and not self.loops
            and not self.duplicates
            and not self.sinks
        )

    def summary(self) -> str:
        lines = []
        for j in self.probed:
            s = self.column_sums[j]
            flag = "ok" if self.column_ok[j] else "FAIL"
            lines.append(f"edge {j}: column sum {s} [{flag}]")
        if self.loops:
            lines.append(f"loops: {self.loops}")
        if self.duplicates:
            lines.append(f"duplicate edges: {self.duplicates}")
        if self.sinks:
            lines.append(f"sinks: {self.sinks}")
        lines.append("graph ok" if self.ok else "graph INVALID")
        return "\n".join(lines)


def validate_graph(g: MetricGraph) -> ValidationReport:
    """Check a finite graph's routing weights and structure, reporting
    instead of raising.

    Every column is read; a pass for edge j means column j sums to
    exactly one; sinks are the list the graph was built with.  Lazy graphs
    are refused: their columns are checked one by one on first access.
    """
    g._require_finite("validate_graph")
    edges = g._order

    sums, ok = {}, {}
    for j in edges:
        s = sum(g.column(j).values(), Fraction(0))
        sums[j] = s
        ok[j] = s == 1

    loops, dupes = [], []
    seen_pairs: dict = {}
    for j in edges:
        tail, head = g.endpoints(j)
        if tail == head:
            loops.append(j)
        seen_pairs.setdefault((tail, head), []).append(j)
    for pair, ids in seen_pairs.items():
        if len(ids) > 1:
            dupes.append(tuple(ids))

    return ValidationReport(edges, sums, ok, loops, dupes, list(g._sinks))


def build_adjacency(g: MetricGraph, scaling: VelocityProfile | None = None) -> AdjacencyOperator:
    """Wrap a graph (and optional velocity profile) as an operator.

    On finite graphs a scaling must cover every edge; the gap is reported
    up front instead of surfacing mid-computation.
    """
    if scaling is not None and g.is_finite:
        missing = [j for j in g.edge_ids if j not in scaling.values and scaling.default is None]
        if missing:
            raise MissingVelocityError(f"no velocity for edges {missing}")
    return AdjacencyOperator(g, scaling)

