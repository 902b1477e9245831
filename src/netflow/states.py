"""Piecewise-constant functions on the edge bundle and their sampled form.

A NetworkState models one function f: [0,1] -> (finitely supported vectors
over edge ids) as a shared breakpoint grid 0 = b_0 < ... < b_k = 1 with one
vector per piece.  Pieces are right-open, [b_m, b_{m+1}), and the point 1
belongs to the last piece, so point evaluation at a breakpoint takes the
value on its right.  Breakpoints are exact rationals; values are whatever
numbers you store, and all operations that can stay exact do.

States are kept canonical: adjacent pieces with equal vectors are merged
and zero entries are never stored, so equality of canonical forms is
semantic equality almost everywhere.  The public constructor checks every
breakpoint and merges equal neighbours; NetworkState._canonical stores an
exact answer that is canonical by construction as it is.  The readings of
exact states (sup_norm, total_mass, pair, predual_norm, boundary_residual)
sum their vectors' integer numerators over one denominator and build one
Fraction; states of other values sum the values.

SampledState is the floating counterpart: values on the uniform grid
s_m = m/M, held as one vector per grid point (exact values) or as one
edges x (M + 1) float array (float values).  A test function of the
predual L^1([0,1], c_0) is a plain NetworkState: `pair` reads a state
against it in the weak-* pairing integral, and its size, `predual_norm`,
integrates the max-abs entry rather than the l1 norm.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import MalformedInputError
from .exact import as_exact, exact_values
from .graph import MetricGraph, SparseVector, VelocityProfile, _couple

__all__ = [
    "NetworkState",
    "SampledState",
    "pair",
    "predual_norm",
    "boundary_residual",
    "sample",
]


def _dot(u: SparseVector, v: SparseVector):
    if len(u) > len(v):
        u, v = v, u
    return sum(a * v.get(j) for j, a in u.items())


def _int_dot(u: SparseVector, v: SparseVector) -> tuple:
    """_dot of two exact vectors as (numerator, denominator) ints."""
    at = dict(zip(v._ids, v._nums))
    return sum(n * at.get(j, 0) for j, n in zip(u._ids, u._nums)), u._den * v._den


def _hadamard(u: SparseVector, q: SparseVector) -> SparseVector:
    return SparseVector({j: a * q.get(j) for j, a in u.items()})


def _over_lcm(terms, fold=sum) -> Fraction:
    """fold of n / d over the int pairs (n, d > 0) of `terms`: the
    numerators over the lcm of the denominators, folded as ints."""
    L = math.lcm(*{d for _, d in terms})
    return Fraction(fold(n * (L // d) for n, d in terms), L)


def _integral(bps: Sequence, heights) -> Fraction:
    """The integral of the step function of height n / d, one (n, d) of
    `heights` a piece of `bps`, each width read from its ends' parts."""
    return _over_lcm([((b.numerator * a.denominator - a.numerator * b.denominator) * n,
                       a.denominator * b.denominator * d)
                      for a, b, (n, d) in zip(bps, bps[1:], heights)])


def _largest_l1(vectors: Sequence):
    """max(v.l1() for v in vectors), over one denominator when all are exact."""
    if not exact_values(vectors):
        return max(v.l1() for v in vectors)
    return _over_lcm([(sum(map(abs, v._nums)), v._den) for v in vectors], max) or 0


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
        merged = NetworkState._merged(bps, vals)
        self.breakpoints, self.values = merged.breakpoints, merged.values

    @classmethod
    def _merged(cls, bps: Sequence, vals: Sequence) -> "NetworkState":
        """The canonical state of checked parts, Fraction breakpoints from 0
        to 1, strictly increasing, and one SparseVector a piece: equal
        neighbours merged by ==, nothing else checked."""
        out_bps = [bps[0]]
        out_vals: list = []
        for b_next, v in zip(bps[1:], vals):
            if out_vals and v == out_vals[-1]:
                out_bps[-1] = b_next
            else:
                out_vals.append(v)
                out_bps.append(b_next)
        return cls._canonical(tuple(out_bps), tuple(out_vals))

    @classmethod
    def _canonical(cls, breakpoints: tuple, values: tuple) -> "NetworkState":
        """A state from parts already in canonical form, stored as given:
        Fraction breakpoints from 0 to 1, strictly increasing, and a tuple
        of SparseVectors, no two neighbours equal.  Nothing is checked, so
        only a caller that owns that proof may call it.

        The answers of the per-edge read and of _array_flow own it.  Each
        breakpoint but 0 is where some edge's head history changes value,
        and the histories hold no equal neighbours, so the pieces on either
        side differ on that edge, and exact vectors in lowest terms that
        differ in a value compare unequal.  The unit closed form's B^n v can
        equal a neighbour, so its answer takes _merged, and rounding can map
        distinct values to one float, so a rounded answer takes the checking
        constructor."""
        self = object.__new__(cls)
        self.breakpoints, self.values = breakpoints, values
        return self

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
        # a numerator has its value's sign, the denominator being positive
        return all(x >= 0 for v in self.values for x in v._nums)

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
        return _largest_l1(self.values)

    def total_mass(self):
        """Signed integral over [0,1] of the entry sum: for exact values
        one integer sum over one denominator."""
        if exact_values(self.values):
            return _integral(self.breakpoints, [(sum(v._nums), v._den) for v in self.values])
        return sum((b2 - b1) * v.total() for b1, b2, v in self.pieces())

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkState):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.values == other.values

    def __repr__(self):
        return f"NetworkState({len(self.values)} pieces on {len(self.support())} edges)"


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
        grid_size = checked_grid(grid_size)
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
        grid_size = checked_grid(grid_size)
        return cls(grid_size, tuple(SparseVector() for _ in range(grid_size + 1)))

    @property
    def samples(self) -> tuple:
        """One SparseVector per grid point, zero entries dropped."""
        if self._samples is None:
            self._samples = tuple(SparseVector(zip(self.edges, col))
                                  for col in self.array.T.tolist())
        return self._samples

    def point(self, m: int) -> SparseVector:
        """samples[m], built alone from the array form."""
        if self._samples is not None:
            return self._samples[m]
        return SparseVector(zip(self.edges, self.array[:, m].tolist()))

    def totals(self) -> list:
        """The signed sum of the entries at each grid point."""
        if self.array is None:
            total = {id(v): v.total() for v in {id(v): v for v in self._samples}.values()}
            return [total[id(v)] for v in self._samples]
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
        # each vector object once (`sample` repeats one per piece); repeats never move a max
        return _largest_l1(list({id(v): v for v in self.samples}.values()))

    def distance(self, other: "SampledState"):
        """Sup over the grid of the l1 distance; grids must match."""
        self._check_grid(other)
        if self.array is None or other.array is None:
            return _largest_l1([u - v for u, v in zip(self.samples, other.samples)])
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


def boundary_residual(f: NetworkState | SampledState, g: MetricGraph,
                      vel: VelocityProfile | None = None):
    """l1 defect of the routing condition f(1) = C f(0), C_ij = (c_j / c_i)
    w_ij at the speeds `vel` of the graph g (None: C = B, unit speed).

    Zero exactly on states in the generator's domain; the size measures
    how far f is from satisfying the vertex coupling.  Only the columns of
    supp f(0) are read.  A SampledState reads its first and last samples.
    """
    if isinstance(f, SampledState):
        return (f.point(f.grid_size) - _couple(g, vel, f.point(0))).l1()
    return (f.values[-1] - _couple(g, vel, f.values[0])).l1()


def pair(f, g):
    """Weak-* pairing integral of f against g.

    Two step functions pair exactly on their common refinement.  A
    SampledState pairs by composite trapezoid on its own grid, with g
    sampled alongside when it is a step function.
    """
    if isinstance(f, NetworkState) and isinstance(g, NetworkState):
        bps, (fv, gv) = _refine((f, g))
        if exact_values(fv) and exact_values(gv):
            return _integral(bps, list(map(_int_dot, fv, gv)))
        return sum(
            (bps[m + 1] - bps[m]) * _dot(fv[m], gv[m]) for m in range(len(bps) - 1)
        )
    if isinstance(f, SampledState):
        gs = g if isinstance(g, SampledState) else sample(g, f.grid_size)
        f._check_grid(gs)
        M = f.grid_size
        if exact_values(f.samples) and exact_values(gs.samples):
            return _over_lcm([(n, d * M * (2 if m in (0, M) else 1)) for m, (n, d)
                              in enumerate(map(_int_dot, f.samples, gs.samples))])
        acc = 0
        for m in range(M + 1):
            w = Fraction(1, 2) if m in (0, M) else 1
            acc += w * _dot(f.samples[m], gs.samples[m])
        return acc / M
    raise TypeError(f"cannot pair {type(f).__name__} with {type(g).__name__}")


def predual_norm(g: NetworkState):
    """Integral over [0,1] of max_j |g_j(s)|: the size of g as a test
    function in L^1([0,1], c_0)."""
    if exact_values(g.values):
        return _integral(g.breakpoints,
                         [(max(map(abs, v._nums), default=0), v._den) for v in g.values])
    total = 0
    for b1, b2, v in g.pieces():
        m = max((abs(x) for _, x in v.items()), default=0)
        total += (b2 - b1) * m
    return total


def grid_pieces(breakpoints: Sequence, grid: int, items: Sequence | None = None) -> list:
    """The piece each sample s = m / grid, m = 0..grid, lies in, right-open:
    piece p, from a_p to b_p, holds the m with ceil(a_p grid) <= m <
    ceil(b_p grid), and s = 1 lies in the last piece.  Given `items`, one
    per piece, each sample's item instead of its piece's index."""
    if items is None:
        items = range(len(breakpoints) - 1)
    out: list = []
    for b, x in zip(breakpoints[1:], items):
        out += [x] * (-(-b.numerator * grid // b.denominator) - len(out))
    out.append(items[-1])
    return out


def checked_grid(grid) -> int:
    """`grid`, the cells of a uniform sample grid, as a plain int: every
    grid reader's one check.  An int (a bool reads as 0 or 1) or numpy
    integer >= 1 passes; anything else, a float or a string among them,
    and a grid below 1, raise MalformedInputError."""
    if not isinstance(grid, (int, np.integer)) or grid < 1:
        raise MalformedInputError(f"grid size must be an integer >= 1, got {grid!r}")
    return int(grid)


def sample(f: NetworkState, M: int) -> SampledState:
    """Point samples on the uniform M-grid, right-open convention.

    The sample at 1 is the left trace, matching how a transported state
    is about to leave the edge.  Every point of a piece holds the piece's
    own vector object.  The rows are f's own SparseVectors, so the
    SampledState is built from them as they are, without the public
    constructor's per-row check and count; checked_grid reads M.
    """
    M = checked_grid(M)
    out = object.__new__(SampledState)
    out.grid_size, out.edges, out.array = M, None, None
    out._samples = tuple(grid_pieces(f.breakpoints, M, f.values))
    return out
