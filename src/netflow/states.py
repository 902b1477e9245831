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
s_m = m/M.  TestFunction shares the NetworkState layout but plays the role
of the dual-side object: its natural size is the integral of the max-abs
entry, not of the l1 norm, and pairing a state against it is the weak-*
pairing integral.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Sequence

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
    """Edge-bundle values on the uniform grid s_m = m/M, m = 0..M."""

    __slots__ = ("grid_size", "samples")

    def __init__(self, grid_size: int, samples: Sequence[SparseVector]):
        if grid_size < 1:
            raise MalformedInputError(f"grid size must be >= 1, got {grid_size}")
        samples = tuple(v if isinstance(v, SparseVector) else SparseVector(v) for v in samples)
        if len(samples) != grid_size + 1:
            raise MalformedInputError(
                f"grid size {grid_size} needs {grid_size + 1} samples, got {len(samples)}"
            )
        self.grid_size = grid_size
        self.samples = samples

    @classmethod
    def zeros(cls, grid_size: int) -> "SampledState":
        return cls(grid_size, tuple(SparseVector() for _ in range(grid_size + 1)))

    def support(self) -> set:
        out: set = set()
        for v in self.samples:
            out.update(v.support())
        return out

    def sup_sample_norm(self):
        return max(v.l1() for v in self.samples)

    def distance(self, other: "SampledState"):
        """Sup over the grid of the l1 distance; grids must match."""
        self._check_grid(other)
        return max((u - v).l1() for u, v in zip(self.samples, other.samples))

    def scale(self, a) -> "SampledState":
        return SampledState(self.grid_size, tuple(v.scale(a) for v in self.samples))

    def __sub__(self, other: "SampledState") -> "SampledState":
        self._check_grid(other)
        return SampledState(self.grid_size, tuple(u - v for u, v in zip(self.samples, other.samples)))

    def _check_grid(self, other: "SampledState"):
        if self.grid_size != other.grid_size:
            raise ValueError(f"grid mismatch: {self.grid_size} vs {other.grid_size}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledState):
            return NotImplemented
        return self.grid_size == other.grid_size and self.samples == other.samples

    def __repr__(self):
        return f"SampledState(M={self.grid_size}, {len(self.support())} edges)"


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


def sample(f: NetworkState, M: int) -> SampledState:
    """Point samples on the uniform M-grid, right-open convention.

    The sample at 1 is the left trace, matching how a transported state
    is about to leave the edge.
    """
    M = int(M)
    if M < 1:
        raise MalformedInputError(f"grid size must be >= 1, got {M}")
    out = []
    k = 0
    bps = f.breakpoints
    for m in range(M + 1):
        s = Fraction(m, M)
        while k + 1 < len(f.values) and bps[k + 1] <= s:
            k += 1
        out.append(f.values[k])
    return SampledState(M, out)
