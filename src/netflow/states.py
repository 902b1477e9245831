"""Piecewise-constant functions on the edge bundle and their sampled form.

A NetworkState models one function f: [0,1] -> (finitely supported vectors
over edge ids) as a shared breakpoint grid 0 = b_0 < ... < b_k = 1 with one
vector per piece.  Pieces are right-open, [b_m, b_{m+1}), and the point 1
belongs to the last piece, so point evaluation at a breakpoint takes the
value on its right.  Breakpoints are exact rationals; values are whatever
numbers you store, and all operations that can stay exact do.

States are kept canonical: adjacent pieces with equal vectors are merged
and zero vector entries are never stored, so equality of canonical forms
is semantic equality almost everywhere.

SampledState is the floating counterpart: values on the uniform grid
s_m = m/M, held as one vector per grid point (exact values) or as one
edges x (M + 1) float array (float values).  TestFunction shares the NetworkState layout but plays the role
of the dual-side object: its natural size is the integral of the max-abs
entry, not of the l1 norm, and pairing a state against it is the weak-*
pairing integral.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import MalformedInputError
from .exact import as_exact
from .graph import AdjacencyOperator, SparseVector

__all__ = [
    "NetworkState",
    "TestFunction",
    "SampledState",
    "pair",
    "boundary_residual",
    "sample",
]


def _dot(u: SparseVector, v: SparseVector):
    if len(u) > len(v):
        u, v = v, u
    return sum(a * v.get(j) for j, a in u.items())


def _hadamard(u: SparseVector, q: SparseVector) -> SparseVector:
    return SparseVector({j: a * q.get(j) for j, a in u.items()})


class NetworkState:
    """One piecewise-constant edge-bundle function on a shared rational grid."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence, values: Sequence):
        bps = tuple(as_exact(b, what="breakpoint") for b in breakpoints)
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise MalformedInputError(f"breakpoints must run from 0 to 1, got {bps}")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise MalformedInputError("breakpoints must be strictly increasing")
        vals = tuple(v if isinstance(v, SparseVector) else SparseVector(v) for v in values)
        if len(vals) != len(bps) - 1:
            raise MalformedInputError(
                f"{len(bps)} breakpoints need {len(bps) - 1} pieces, got {len(vals)}"
            )
        # canonical form: merge equal neighbours
        out_bps = [bps[0]]
        out_vals: list = []
        for b_next, v in zip(bps[1:], vals):
            if out_vals and v == out_vals[-1]:
                out_bps[-1] = b_next
            else:
                out_vals.append(v)
                out_bps.append(b_next)
        self.breakpoints = tuple(out_bps)
        self.values = tuple(out_vals)

    @classmethod
    def constant(cls, vec) -> "NetworkState":
        return cls((Fraction(0), Fraction(1)), (vec,))

    @classmethod
    def zero(cls) -> "NetworkState":
        return cls.constant(SparseVector())

    def pieces(self):
        """Yield (left, right, vector) triples."""
        for m, v in enumerate(self.values):
            yield self.breakpoints[m], self.breakpoints[m + 1], v

    def piece_index(self, s, side: str = "right") -> int:
        if not 0 <= s <= 1:
            raise ValueError(f"position {s} outside [0, 1]")
        if side == "right":
            k = bisect.bisect_right(self.breakpoints, s) - 1
        elif side == "left":
            k = bisect.bisect_left(self.breakpoints, s) - 1
            if k < 0:
                k = 0
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return min(k, len(self.values) - 1)

    def value_at(self, s, side: str = "right") -> SparseVector:
        """Point evaluation; right-open pieces, the point 1 owned by the last piece."""
        return self.values[self.piece_index(s, side)]

    def support(self) -> set:
        out: set = set()
        for v in self.values:
            out.update(v.support())
        return out

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for v in self.values for _, x in v.items())

    # -- algebra ----------------------------------------------------------

    def map_values(self, fn) -> "NetworkState":
        return NetworkState(self.breakpoints, tuple(fn(v) for v in self.values))

    def scale(self, a) -> "NetworkState":
        return self.map_values(lambda v: v.scale(a))

    def __add__(self, other: "NetworkState") -> "NetworkState":
        bps, (left, right) = _refine((self, other))
        return NetworkState(bps, tuple(u + v for u, v in zip(left, right)))

    def __sub__(self, other: "NetworkState") -> "NetworkState":
        bps, (left, right) = _refine((self, other))
        return NetworkState(bps, tuple(u - v for u, v in zip(left, right)))

    def hadamard(self, profile: "NetworkState") -> "NetworkState":
        """Entrywise product with another step function (pointwise multiplier)."""
        bps, (left, right) = _refine((self, profile))
        return NetworkState(bps, tuple(_hadamard(u, q) for u, q in zip(left, right)))

    # -- measurements ------------------------------------------------------

    def sup_norm(self):
        """ess-sup over s of the l1 norm of f(s); exact for exact values."""
        return max(v.l1() for v in self.values)

    def total_mass(self):
        """Signed integral over [0,1] of the entry sum."""
        return sum((b2 - b1) * v.total() for b1, b2, v in self.pieces())

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkState):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.values == other.values

    def __repr__(self):
        return f"NetworkState({len(self.values)} pieces on {len(self.support())} edges)"


class TestFunction(NetworkState):
    """A step function read against states in the weak-* pairing.

    Same storage as NetworkState; the difference is the norm that matters.
    Entries live in the sup-normed sequence space, so the natural size is
    the integral of the largest absolute entry.
    """

    __slots__ = ()

    def predual_norm(self):
        """Integral over [0,1] of max_j |g_j(s)|."""
        total = 0
        for b1, b2, v in self.pieces():
            m = max((abs(x) for _, x in v.items()), default=0)
            total += (b2 - b1) * m
        return total


def _refine(states: Sequence[NetworkState]):
    """Common breakpoint grid and per-state aligned value lists."""
    bps = sorted(set().union(*(s.breakpoints for s in states)))
    aligned = []
    for s in states:
        vals = []
        k = 0
        for b in bps[:-1]:
            while s.breakpoints[k + 1] <= b:
                k += 1
            vals.append(s.values[k])
        aligned.append(vals)
    return tuple(bps), aligned


class SampledState:
    """Edge-bundle values on the uniform grid s_m = m/M, m = 0..M.

    A sampled state has one of two storage forms, and the value type picks
    it.  Exact producers (`sample`, `trace_samples`) keep rows: `samples`
    holds one SparseVector per grid point, the values keep their type
    (Fractions stay exact) and == compares them exactly.  Float producers
    (the resolvents, `laplace_oracle`, `evolve_absorbing` at t > 0,
    `parse_plotdata`) build the array form with `from_array`: `edges` and
    `array`, one edges x (M + 1) float64 or complex128 ndarray whose row k
    holds edge edges[k].  The array form builds `samples` on first read,
    with zero entries dropped, so every reader of rows works on both.

    support, sup_sample_norm, totals and scale read the array; distance,
    == and - read two array states directly, aligning their edges by id
    when the two list them in different orders, and a row state on either
    side sends them through `samples`.  Sums over edges add in the order
    the rows' l1() and total() add them, so both forms give the same
    floats wherever sum() adds floats left to right (CPython before 3.12;
    later versions compensate, and the last bit may differ).
    """

    __slots__ = ("grid_size", "edges", "array", "_samples")

    def __init__(self, grid_size: int, samples: Sequence[SparseVector]):
        if grid_size < 1:
            raise MalformedInputError(f"grid size must be >= 1, got {grid_size}")
        samples = tuple(v if isinstance(v, SparseVector) else SparseVector(v) for v in samples)
        if len(samples) != grid_size + 1:
            raise MalformedInputError(
                f"grid size {grid_size} needs {grid_size + 1} samples, got {len(samples)}"
            )
        self.grid_size = grid_size
        self.edges = self.array = None
        self._samples = samples

    @classmethod
    def from_array(cls, edges: Sequence, array: np.ndarray) -> "SampledState":
        """The array form: row k of the edges x (M + 1) float or complex
        `array` holds the samples of edges[k]."""
        edges = tuple(edges)
        if array.ndim != 2 or array.shape[0] != len(edges) or array.dtype.kind not in "fc":
            raise MalformedInputError(
                f"need a float or complex array of {len(edges)} rows, "
                f"got {array.dtype} of shape {array.shape}"
            )
        if array.shape[1] < 2:
            raise MalformedInputError(f"grid size must be >= 1, got {array.shape[1] - 1}")
        if len(set(edges)) != len(edges):
            raise MalformedInputError("an array state lists an edge twice")
        self = object.__new__(cls)
        self.grid_size = array.shape[1] - 1
        self.edges, self.array, self._samples = edges, array, None
        return self

    @classmethod
    def zeros(cls, grid_size: int) -> "SampledState":
        return cls(grid_size, tuple(SparseVector() for _ in range(grid_size + 1)))

    @property
    def samples(self) -> tuple:
        """One SparseVector per grid point, zero entries dropped."""
        if self._samples is None:
            edges = self.edges
            rows = [dict(zip(edges, col)) for col in self.array.T.tolist()]
            for k, m in zip(*(a.tolist() for a in np.nonzero(self.array == 0))):
                del rows[m][edges[k]]
            self._samples = tuple(SparseVector._from_nonzero(v) for v in rows)
        return self._samples

    def point(self, m: int) -> SparseVector:
        """samples[m], built alone from the array form."""
        if self._samples is not None:
            return self._samples[m]
        col = self.array[:, m].tolist()
        return SparseVector._from_nonzero({e: x for e, x in zip(self.edges, col) if x != 0})

    def totals(self) -> list:
        """The signed sum of the entries at each grid point."""
        if self.array is None:
            return [v.total() for v in self._samples]
        return _column_sums(self.array).tolist()

    def support(self) -> set:
        if self.array is not None:
            return {e for e, nz in zip(self.edges, self.array.any(axis=1).tolist()) if nz}
        out: set = set()
        for v in self.samples:
            out.update(v.support())
        return out

    def sup_sample_norm(self):
        if self.array is not None:
            return float(_column_sums(_abs(self.array)).max())
        return max(v.l1() for v in self.samples)

    def distance(self, other: "SampledState"):
        """Sup over the grid of the l1 distance; grids must match."""
        self._check_grid(other)
        if self.array is None or other.array is None:
            return max((u - v).l1() for u, v in zip(self.samples, other.samples))
        # the rows' u - v holds u's nonzero entries in u's order, then v's
        # entries where u is zero in v's order: add them in that order
        a = self.array
        diff = _abs(a - other.on_edges(self.edges))
        tail = _abs(other.array)
        terms = np.concatenate((np.where(a != 0, diff, 0.0),
                                np.where(self.on_edges(other.edges) == 0, tail, 0.0)))
        return float(_column_sums(terms).max())

    def scale(self, a) -> "SampledState":
        if self.array is None:
            return SampledState(self.grid_size, tuple(v.scale(a) for v in self.samples))
        if a == 0:
            return SampledState.from_array(self.edges, np.zeros_like(self.array))
        return SampledState.from_array(
            self.edges, self.array * (a if isinstance(a, complex) else float(a)))

    def __sub__(self, other: "SampledState") -> "SampledState":
        self._check_grid(other)
        if self.array is None or other.array is None:
            return SampledState(self.grid_size, tuple(u - v for u, v in zip(self.samples, other.samples)))
        edges = self._union(other)
        return SampledState.from_array(edges, self.on_edges(edges) - other.on_edges(edges))

    def _check_grid(self, other: "SampledState"):
        if self.grid_size != other.grid_size:
            raise ValueError(f"grid mismatch: {self.grid_size} vs {other.grid_size}")

    def _union(self, other: "SampledState") -> tuple:
        """self's edges, then other's that self lacks."""
        if other.edges == self.edges:
            return self.edges
        have = set(self.edges)
        return self.edges + tuple(e for e in other.edges if e not in have)

    def on_edges(self, edges: tuple) -> np.ndarray:
        """The array on the rows `edges`, zero on edges this state lacks."""
        if edges == self.edges:
            return self.array
        pos = {e: k for k, e in enumerate(self.edges)}
        out = np.zeros((len(edges), self.grid_size + 1), dtype=self.array.dtype)
        pairs = [(i, pos[e]) for i, e in enumerate(edges) if e in pos]
        if pairs:
            rows, src = zip(*pairs)
            out[list(rows)] = self.array[list(src)]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledState):
            return NotImplemented
        if self.grid_size != other.grid_size:
            return False
        if self.array is None or other.array is None:
            return self.samples == other.samples
        edges = self._union(other)
        return bool(np.array_equal(self.on_edges(edges), other.on_edges(edges)))

    def __repr__(self):
        return f"SampledState(M={self.grid_size}, {len(self.support())} edges)"


def _abs(a: np.ndarray) -> np.ndarray:
    """abs() of each entry, bit for bit: a complex entry by hypot, as
    Python's abs(complex) computes it and numpy's complex abs does not."""
    return np.hypot(a.real, a.imag) if a.dtype.kind == "c" else np.abs(a)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0 as a left-to-right sum() adds each column: rows
    first to last from a start of +0 (the closing + 0.0 turns the one sum
    that can differ, -0.0, into sum()'s 0.0)."""
    if not len(a):
        return np.zeros(a.shape[1], dtype=a.dtype)
    return np.cumsum(a, axis=0)[-1] + 0.0


# -- module-level operation surface ---------------------------------------


def boundary_residual(f: NetworkState, op: AdjacencyOperator):
    """l1 defect of the routing condition f(1) = B f(0).

    Zero exactly on states in the generator's domain; the size measures
    how far f is from satisfying the vertex coupling.
    """
    return (f.values[-1] - op.apply(f.values[0])).l1()


def pair(f, g):
    """Weak-* pairing integral of f against g.

    Two step functions pair exactly on their common refinement.  A
    SampledState pairs by composite trapezoid on its own grid, with g
    sampled alongside when it is a step function.
    """
    if isinstance(f, NetworkState) and isinstance(g, NetworkState):
        bps, (fv, gv) = _refine((f, g))
        return sum(
            (bps[m + 1] - bps[m]) * _dot(fv[m], gv[m]) for m in range(len(bps) - 1)
        )
    if isinstance(f, SampledState):
        gs = g if isinstance(g, SampledState) else sample(g, f.grid_size)
        f._check_grid(gs)
        M = f.grid_size
        acc = 0
        for m in range(M + 1):
            w = Fraction(1, 2) if m in (0, M) else 1
            acc += w * _dot(f.samples[m], gs.samples[m])
        return acc / M
    raise TypeError(f"cannot pair {type(f).__name__} with {type(g).__name__}")


def grid_pieces(breakpoints: Sequence, grid: int) -> list:
    """The piece each sample s = m / grid, m = 0..grid, lies in, right-open:
    piece p, from a_p to b_p, holds the m with ceil(a_p grid) <= m <
    ceil(b_p grid), and s = 1 lies in the last piece."""
    out: list = []
    for p, b in enumerate(breakpoints[1:]):
        out += [p] * (-(-b.numerator * grid // b.denominator) - len(out))
    return out + [len(breakpoints) - 2]


def sample(f: NetworkState, M: int) -> SampledState:
    """Point samples on the uniform M-grid, right-open convention.

    The sample at 1 is the left trace, matching how a transported state
    is about to leave the edge.  Every point of a piece holds the piece's
    own vector object.
    """
    M = int(M)
    if M < 1:
        raise MalformedInputError(f"grid size must be >= 1, got {M}")
    return SampledState(M, [f.values[p] for p in grid_pieces(f.breakpoints, M)])
