"""Resolvents of the transport generator and the Laplace-transform oracle.

On edge j, at speed c_j, the resolvent u = (l - A)^{-1} f solves
l u_j - c_j u_j' = f_j, and its head trace y = u(1) is what the tails
route in, y = C u(0) with C_ij = (c_j / c_i) w_ij.  With mu_j = l / c_j
every edge has the same closed form

    u_j(s) = e^{-mu_j (1-s)} y_j + (1/c_j) int_s^1 e^{mu_j (s-t)} f_j(t) dt,

and one sampler evaluates it on the grid.  The local integral is
closed-form per piece of f and summed backwards over the pieces; every
exponential has a non-positive real exponent, so no l in the right
half-plane overflows.  Read at s = 0 the local integral is the boundary
moment d = u(0) - e^{-mu} y, and one series turns d into y: the Neumann
iteration of y = C (d + E y), E = diag(e^{-mu}), that is
y = sum_{k>=0} (C E)^k C d.  resolvent_general runs it at any positive
speeds on finite and lazy graphs; resolvent_unit is the same computation
at c = 1, where the terms are e^{-lk} B^{k+1} d.

The series routes float or complex vectors through C held as index
arrays of its nonzero entries, one bincount per term, so memory is
O(edges): no n x n matrix is built.  A finite graph gives all its edges
in sorted-id order; B alone fixes those arrays, so they are read once
per graph, on its first solve, and scaled by the speeds into a copy.
What a solve reads from f alone, its entries as flat positions and float
values on that edge tuple and its piece widths, is f's table, and one
reader, _state_table, builds it.  The graph keeps both, read-only, in
one keeper [routing, f, f's table]: the table of the last f solved
there, matched by `kept f is f`.  So the solves at other lambdas or
speeds that a convergence ladder makes for one f on one graph read f
once; the float speeds, which a ladder changes at every level, are read
on each solve.  A lazy graph, at any speeds, gives the routing closure
of supp f, read with f on every solve, as many applications of B deep as
the tolerance can need, by the exact flows' walk; it is stochastic by
construction, so the columns the closure leaves unread sum to one, and
its q and c_min come from the profile.

f's values and its piece integrals are pieces x edges arrays, so the
backward recurrence over the pieces runs on contiguous rows.  The
exponents depend on an edge only through mu_j, so the sampler takes each
exponential once per distinct mu and gathers the rows per edge; it
writes the closed form into one edges x (grid + 1) float or complex
array, a block of rows at a time through one small scratch block, so
that array, the result, is the only one of its size.  The result's
SampledState keeps it as its array form: distances, norms, the CSV
writer and resolvent_identity_check read it, and `samples` builds
per-point vectors only when something asks.

There is one certificate.  The norm of v -> C E v in |v|_c = sum_j c_j |v_j|
is at most q = max_j e^{-Re(l)/c_j} sum_i |w_ij|, which is e^{-Re(l)/c_max}
< 1 for stochastic columns; q >= 1 raises ContractionViolationError.  The
series stops at the first N with |term_N|_c / ((1 - q) c_min) <= tol, the
reported tail_bound, which bounds in the sup-l1 norm everything the
dropped terms add to y, and so, through factors |e^{-mu_j (1-s)}| <= 1,
to every sample.  The raw max-column-sum of C E, reported beside q in
the metadata, can exceed 1 on valid graphs (a fast edge feeding a slow
one).

laplace_oracle checks the closed forms against R(l) f =
int_0^inf e^{-lt} T(t) f dt without the series: up to a horizon it sums
the integral exactly in time over the characteristic histories of
evolve_rational, and it bounds the tail past it; the horizon meets
the exact flows' one work budget, semigroup.MAX_STAGE_EDGES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ContractionViolationError,
    MalformedGraphError,
    NotRationalError,
    PrecisionError,
    TruncationError,
    WidthOverflowError,
    WrongOperatorError,
)
from .exact import as_exact, is_rational, to_float
from .graph import AdjacencyOperator, MetricGraph, VelocityProfile, build_adjacency
from . import semigroup
from .states import NetworkState, SampledState, grid_pieces

__all__ = [
    "ResolventResult",
    "resolvent_unit",
    "resolvent_general",
    "LaplaceResult",
    "laplace_oracle",
    "IdentityReport",
    "resolvent_identity_check",
]

MAX_SERIES_TERMS = 500_000


@dataclass
class ResolventResult:
    """Sampled resolvent plus the truncation certificate.

    `terms` counts series terms actually summed; `tail_bound` dominates
    everything dropped, measured in the sampled sup-l1 norm.
    """

    state: SampledState
    lam: complex
    terms: int
    tail_bound: float
    metadata: dict = field(default_factory=dict)


def _require_right_half_plane(lam) -> complex:
    lam = complex(lam)
    if not (0 < lam.real < math.inf and math.isfinite(lam.imag)):
        raise ValueError(f"resolvent needs a finite lambda with Re(lambda) > 0, got {lam}")
    return lam


def _state_table(f: NetworkState, edges) -> tuple:
    """f's entries on a pieces x edges array whose columns are `edges`, and
    its pieces: (flat, vals, widths), the flat position p * len(edges) + k
    of each entry of f on edges[k] over piece p, its float value, and the
    piece widths float(b - a).  An edge of supp f missing from `edges`
    raises KeyError."""
    n = len(edges)
    at = {e: k for k, e in enumerate(edges)}
    # exact.to_float inlined: this loop reads every entry of f
    flat = [at[e] + p * n for p, v in enumerate(f.values) for e in v.support()]
    vals = [x.numerator / x.denominator if type(x) is Fraction else float(x)
            for v in f.values for x in v.values()]
    widths = [float(b - a) for a, b in zip(f.breakpoints, f.breakpoints[1:])]
    return np.array(flat, dtype=np.intp), np.array(vals, dtype=float), np.array(widths)


def _speed_table(vel: VelocityProfile, edges) -> np.ndarray:
    """The float speeds of `edges`."""
    return np.array([to_float(vel.velocity(j)) for j in edges])


def _scatter(flat: np.ndarray, vals: np.ndarray, n: int, pieces: int, dtype) -> np.ndarray:
    """The pieces x n array holding vals at the flat positions of _state_table."""
    V = np.zeros((pieces, n), dtype=dtype)
    V.ravel()[flat] = vals
    return V


def _piece_integrals(V: np.ndarray, widths: np.ndarray, mus: np.ndarray, row: np.ndarray,
                     lam) -> tuple:
    """(V / l, G) from f's values V, pieces x edges (_scatter, of mu's
    dtype; V is divided in place), and its piece widths: G[p] = (1/c_j)
    int_{a_p}^1 e^{mu_j (a_p - t)} f_j(t) dt is the local integral at the
    piece's left end a_p (G[P] = 0 at s = 1), so G is (P + 1) x edges and
    G[0] is the boundary moment d.  Each e^{-mu w_p} is taken once per
    distinct mu = mus[row] and gathered per edge by `row`; the recurrence
    runs on contiguous rows."""
    V /= lam
    G = np.zeros((len(V) + 1, len(row)), dtype=mus.dtype)
    x = np.multiply.outer(-mus, widths).T.copy()  # row p: exponents on piece p
    ex, em = np.exp(x), np.expm1(x, out=x)
    for p in reversed(range(len(V))):
        G[p] = ex[p][row] * G[p + 1] - em[p][row] * V[p]
    return V, G


# rows of the result that _sample fills per step through its scratch block
_BLOCK = 64


def _sample(f: NetworkState, edges, mus: np.ndarray, row: np.ndarray, V: np.ndarray,
            G: np.ndarray, y: np.ndarray, grid: int) -> SampledState:
    """The closed form u_j(m / grid), m = 0..grid, on the columns `edges`
    of f's piece integrals (V, G), pieces-major as _piece_integrals gives
    them, from the per-edge exponent mu = l / c = mus[row] and the head
    trace y = u(1).  Each exponential table is taken once per distinct mu
    and its rows gathered per edge, so equal speeds give equal bits."""
    s = np.arange(grid + 1) / grid
    piece = np.array(grid_pieces(f.breakpoints, grid))
    right = np.array([to_float(b) for b in f.breakpoints[1:]])
    # u = V_p + e^{-mu (b_p - s)} (G_{p+1} - V_p) + e^{-mu (1 - s)} y, built
    # in u a block of rows at a time through one small scratch block, so the
    # result is the only edges x (grid + 1) array; b_p >= s and rounding is
    # monotone, so the float b_p - s is never negative.  take's "clip"
    # gathers straight into the block ("raise" copies); every index is in
    # range
    u = np.take((G[1:] - V).T, piece, axis=1)
    ramp = np.multiply.outer(-mus, right[piece] - s)
    tail = np.multiply.outer(-mus, 1 - s)
    np.exp(ramp, out=ramp)
    np.exp(tail, out=tail)
    block = np.empty((min(_BLOCK, len(u)), grid + 1), dtype=u.dtype)
    for a in range(0, len(u), _BLOCK):
        ub, rb = u[a:a + _BLOCK], row[a:a + _BLOCK]
        buf = block[:len(ub)]
        ub *= np.take(ramp, rb, axis=0, out=buf, mode="clip")
        np.take(tail, rb, axis=0, out=buf, mode="clip")
        buf *= y[a:a + _BLOCK, None]
        ub += buf
        ub += np.take(V[:, a:a + _BLOCK].T, piece, axis=1, out=buf, mode="clip")
    return SampledState.from_array(edges, u)


def _route(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray,
           v: np.ndarray) -> np.ndarray:
    """B v for B given by its entries weights[k] at (rows[k], cols[k]); a
    complex v is split so that the weights are never cast to complex."""
    if v.dtype.kind == "c":
        return _route(rows, cols, weights, v.real) + 1j * _route(rows, cols, weights, v.imag)
    return np.bincount(rows, weights * v[cols], minlength=len(v))


def _routing(g: MetricGraph, seeds: list, depth: int) -> tuple:
    """B's nonzero entries as index arrays (edges, rows, cols, weights), by
    MetricGraph._walk at lag 1.  `edges` holds the distinct `seeds`, then
    every edge reached in at most `depth` applications of B, breadth first;
    each entry w_ij of the columns of the edges reached in fewer is
    weights[k] = float(w_ij) at rows[k], cols[k], the positions of i and j
    in `edges`.  An edge past semigroup.MAX_STAGE_EDGES raises WidthOverflowError."""
    pos = {j: k for k, j in enumerate(seeds)}

    def lag(i):
        if len(pos) >= semigroup.MAX_STAGE_EDGES:
            raise WidthOverflowError(f"routing closure exceeds {semigroup.MAX_STAGE_EDGES} edges",
                                     edges=(i,))
        pos[i] = len(pos)
        return 1

    read = g._walk(seeds, lag, depth)
    return (tuple(pos), np.array([pos[i] for _, col in read for i in col], dtype=np.intp),
            np.array([pos[j] for j, col in read for _ in col], dtype=np.intp),
            np.array([to_float(w) for _, col in read for w in col.values()], dtype=float))


def _kept(g: MetricGraph, f: NetworkState) -> tuple:
    """(routing, table) of the finite graph g: _routing over all its edges
    in sorted-id order, which B alone fixes, and f's _state_table on those
    edges, both read-only and kept in g's keeper [routing, f, f's table]:
    the routing from g's first solve, the table of the last f solved
    there, matched by `kept f is f` (the keeper holds f, so no other state
    can take its address)."""
    keeper = g._float_routing
    if keeper is None:
        routing = _routing(g, g.edge_ids, 1)
        for a in routing[1:]:
            a.flags.writeable = False
        keeper = g._float_routing = [routing, None, None]
    if keeper[1] is not f:
        table = _state_table(f, keeper[0][0])
        for a in table:
            a.flags.writeable = False
        keeper[1:] = f, table
    return keeper[0], keeper[2]


def _terms_needed(first: float, rate: float, tol: float) -> int:
    """The least N >= 0 with e^{-rate N} first <= tol: the index by which a
    series stops whose term bounds start at `first` and shrink by at least
    e^{-rate} a term.  Past MAX_SERIES_TERMS raises TruncationError."""
    if first <= tol:
        return 0
    n = math.log(first / tol) / rate if tol > 0 else math.inf
    if n > MAX_SERIES_TERMS:
        raise TruncationError(
            f"series tolerance {tol} not reachable within {MAX_SERIES_TERMS} terms",
            achieved=first * math.exp(-rate * MAX_SERIES_TERMS),
        )
    return max(1, math.ceil(n))


def _contracting(q: float, re: float, c_max: float) -> float:
    if q >= 1:
        raise ContractionViolationError(f"q = {q:.6g} >= 1 at Re(lambda) = {re:.6g} and c_max = "
                                        f"{c_max:.6g}: the boundary series does not contract")
    return q


def _lazy_bounds(vel: VelocityProfile, re: float) -> tuple:
    """(q, c_min, c_max) of a lazy graph at the speeds `vel`, which hold on
    every edge, read or not: a lazy graph is stochastic by construction,
    and a stochastic column j maps |v_j| c_j to at most e^{-Re(l)/c_j}
    |v_j| c_j in |.|_c, so q = e^{-Re(l)/c_max}.  A q that rounds to 1
    raises ContractionViolationError."""
    c_max = float(vel.c_max)
    return _contracting(math.exp(-re / c_max), re, c_max), float(vel.c_min), c_max


def _series(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
            lam, grid: int, tol: float) -> ResolventResult:
    """Both resolvents at the speeds `vel`, by the series and stop rule of
    the module docstring.  A finite graph reads every column on its first
    solve and f's entries on the first solve of that f on it (_kept), and
    fills V from the kept entries with one scatter.  A lazy one reads the
    closure of supp f, and the dropped terms reach edges it
    never read, so q and c_min are the profile's (_lazy_bounds) unless
    rounding puts the closure's past them.  Its depth suffices: c_j |d_j|
    <= int |f_j| and a stochastic C keeps |.|_c, so term k's bound is at
    most q^k |f|_L1 / ((1 - q) c_min), and the rule stops by K, its
    _terms_needed at rate Re(l)/c_max.  Term K routes d K + 1 times,
    reading the columns within K applications of supp f: a closure K + 1
    deep, and one more covers rounding in the rule.  f is read once, on
    the seeds, for |f|_L1 and V alike."""
    lam = _require_right_half_plane(lam)
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    re = lam.real
    # real arithmetic throughout when lambda is real
    lam_num = re if lam.imag == 0 else lam
    if g.is_finite:
        if not len(g):
            raise ValueError("graph has no edges")
        q, c_min, c_max = 0.0, math.inf, 0.0
        try:
            (edges, rows, cols, weights), (flat, vals, widths) = _kept(g, f)
        except KeyError as err:
            raise MalformedGraphError(f"unknown edge {err.args[0]!r}") from None
        V = _scatter(flat, vals, len(edges), len(f.values), type(lam_num))
    else:
        q, c_min, c_max = _lazy_bounds(vel, re)
        seeds = list(dict.fromkeys(e for v in f.values for e in v.support()))
        flat, vals, widths = _state_table(f, seeds)
        F = _scatter(flat, vals, len(seeds), len(f.values), float)
        # summed per edge over a contiguous edges x pieces copy, so |f|_L1,
        # and with it the depth, keeps its bits whatever layout F has
        f_l1 = float((np.abs(F.T.copy()) @ np.diff([float(b) for b in f.breakpoints])).sum())
        depth = _terms_needed(f_l1 / (-math.expm1(-re / c_max) * c_min), re / c_max, tol) + 2
        edges, rows, cols, weights = _routing(g, seeds, depth)
        # the seeds lead the closure, and f is zero on the columns past them
        V = np.zeros((len(f.values), len(edges)), dtype=type(lam_num))
        V[:, :len(seeds)] = F
    n = len(edges)
    c = _speed_table(vel, edges)
    c_min, c_max = min(c_min, c.min(initial=math.inf)), max(c_max, c.max(initial=0.0))
    mu = lam_num / c

    decay = np.exp(-re / c)  # |e^{-mu_j}|
    column_norm = float((decay * np.bincount(cols, np.abs(weights), minlength=n)).max(initial=0.0))
    q = _contracting(max(q, column_norm), re, c_max)
    weights = weights * (c[cols] / c[rows])  # never in place: a finite graph keeps B
    norm_raw = float((decay * np.bincount(cols, np.abs(weights), minlength=n)).max(initial=0.0))

    def bound(term):
        return float((c * np.abs(term)).sum()) / ((1 - q) * c_min)

    # the edges grouped by exponent, for the sampler and the piece integrals
    mus, row = np.unique(mu, return_inverse=True)
    V, G = _piece_integrals(V, widths, mus, row, lam_num)
    d = G[0]
    E = np.exp(-mu)
    y = np.zeros_like(d)
    term = _route(rows, cols, weights, d)
    tail = bound(term)
    # bound(term_N) <= q^N bound(term_0): refuse up front what the cap cannot reach
    _terms_needed(tail, -math.log(q) if q else math.inf, tol)
    nterms = 0
    while tail > tol:
        y += term
        term = _route(rows, cols, weights, E * term)
        tail = bound(term)
        nterms += 1

    state = _sample(f, edges, mus, row, V, G, y, grid)
    return ResolventResult(state, lam, nterms, tail, {
        "neumann_terms": nterms, "norm_Blambda": norm_raw,
        "norm_Blambda_weighted": q, "tol": tol,
    })


def resolvent_unit(op: AdjacencyOperator, f: NetworkState, lam, *,
                   grid: int = 256, tol: float = 1e-12) -> ResolventResult:
    """resolvent_general at c = 1 on the graph of an unscaled operator:
    the same series, stop rule and tail_bound, so the two return ==
    results.  Its terms are e^{-lk} B^{k+1} d."""
    if op.scaled:
        raise WrongOperatorError("resolvent_unit needs the unscaled routing operator; "
                                 "use resolvent_general for velocity profiles")
    return _series(op.graph, semigroup._UNIT, f, lam, grid, tol)


def resolvent_general(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                      lam, *, grid: int = 256, tol: float = 1e-12) -> ResolventResult:
    """The resolvent at any positive speeds, irrational ones included, on a
    finite or a lazy graph; a lazy one is sampled on the
    routing closure of supp f.  q >= 1 raises ContractionViolationError, a
    tolerance the a-priori decay q^N cannot reach within MAX_SERIES_TERMS
    terms TruncationError up front, and a closure past
    semigroup.MAX_STAGE_EDGES edges (a branching graph at small Re(l))
    WidthOverflowError before any array is built."""
    return _series(g, vel, f, lam, grid, tol)


@dataclass
class LaplaceResult:
    """Laplace transform of the flow up to t_max, with proven bounds on the
    rounding of its float sum and on the tail it drops."""

    state: SampledState
    lam: complex
    round_bound: float
    tail_bound: float

    @property
    def error_bound(self) -> float:
        return self.round_bound + self.tail_bound


def laplace_oracle(op: AdjacencyOperator, f: NetworkState, lam, *,
                   t_max, steps=None, grid: int = 256) -> LaplaceResult:
    """int_0^T e^{-lt} T(t) f dt, T = t_max, at s = m / grid, summed
    exactly in time from the flow, never the series; `steps` is accepted
    and ignored, as there are no time steps to choose.

    The speeds are op.scaling (None: c = 1), exact rationals or refused
    by _network.  Edge j at x reads its head outflow H_j(t + x/c_j), built
    on [0, T + 1/c_j) as in evolve_rational (a lazy graph on its forward
    cone), so with sigma = x/c_j the integral sums v (E_a - E_b) / l over
    H_j's segments [a, b) of value v, E_a = e^{-l(a' - sigma)}, a' and b'
    clipped to [sigma, T + sigma): no exponent has a positive real part.

    round_bound, in Higham's sense with u = 2^-53 per real and imaginary
    part: the clipped tick differences are exact, the exponent is rounded
    twice (moving E within (1 + u)^(2 ceil(|l| T) + 2)), exp (a real exp
    times a cosine or sine, each within the 4 ulps numpy's vectorised loops
    allow) 17, v to float 1 (v is an int pair, read by one correctly
    rounded int division), E_a - E_b 1 relative to |E_a| + |E_b|, the
    product with v 1, the sum of n terms n - 1 and the product with
    1/l = conj(l) / |l|^2 at most 8.  So an edge errs by sqrt(2) gamma_K S
    at most, K = n + 2 ceil(|l| T) + 31, S = sum |v| (|E_a| + |E_b|) / |l|;
    gamma_2K times the computed S covers the rounding of S and the bound.

    tail_bound: by the semigroup law the tail is e^{-lT} R(l) g, g = T(T) f,
    held on the windows [T, T + 1/c_j).  In the module docstring's closed
    form the local integral of R(l) g is at most |g_j|_inf / Re(l), and
    |d_j| <= |g_j|_inf / c_j gives |y|_c <= rho sum_j |g_j|_inf / (1 - q),
    rho the largest column sum, so sum_j |y_j| <= |y|_c / c_min and

        tail <= e^{-Re(l) T} (rho / ((1 - q) c_min) + 1 / Re(l)) sum_j |g_j|_inf.

    With nonnegative weights q < 1 also makes the integral converge.  A
    lazy graph is stochastic by construction (rho = 1, q = e^{-Re(l)/c_max}
    over the profile); q >= 1 raises ContractionViolationError.  The time
    horizon meets the exact flows' work budget in _network.
    """
    lam = _require_right_half_plane(lam)
    t_max = as_exact(t_max, what="t_max")
    if t_max <= 0 or grid < 1:
        raise ValueError(f"need t_max > 0 and grid >= 1, got {t_max} and {grid}")
    if not all(is_rational(x) for v in f.values for x in v.values()):
        raise NotRationalError("laplace_oracle needs exact rational state values")
    g, re, vel = op.graph, lam.real, op.scaling or semigroup._UNIT
    _, speed, rows, _ = semigroup._network(g, vel, f, t_max)
    if not speed:  # f = 0 on a lazy graph
        return LaplaceResult(SampledState.from_array([], np.zeros((0, grid + 1))), lam, 0.0, 0.0)
    if g.is_finite:
        sums = {j: float(sum(g.column(j).values())) for j in speed}
        rho, c_min = max(sums.values()), float(min(speed.values()))
        q = max(math.exp(-re / c) * sums[j] for j, c in speed.items())
    else:
        rho, (q, c_min, _) = 1.0, _lazy_bounds(vel, re)
    slack = 1 + 2.0**-40  # covers the rounding of q and of the bounds
    if q * slack >= 1:
        raise ContractionViolationError(f"q = {q:.6g} >= 1: the tail has no bound")

    lam_num = re if lam.imag == 0 else lam
    u = np.zeros((len(speed), grid + 1), dtype=type(lam_num))
    err, g_sup = np.zeros(grid + 1), 0.0
    history, D, T, lag = semigroup._flow_histories(speed, rows, f, t_max, exact=True)
    if (T + max(lag.values()) + D) * grid >= 2**53:
        raise PrecisionError("the Laplace sum's time lattice exceeds 2^53 ticks")
    for k, j in enumerate(speed):
        starts, values = history[j]
        v = np.array([n / d for n, d in values])
        ends = np.array(starts + [T + lag[j]], dtype=float) * grid
        # segment ends clipped to each window [sigma, sigma + T), less sigma
        dt = np.clip(ends[:, None] - np.arange(grid + 1) * float(lag[j]), 0, float(T * grid))
        E = np.exp(dt * (-lam_num / float(D * grid)))
        diff = E[:-1] - E[1:]
        # real products: numpy's complex matrix product is far slower
        u[k] = v @ diff.real if lam.imag == 0 else v @ diff.real + 1j * (v @ diff.imag)
        E = np.abs(E)
        Ku = 2 * (len(v) + 2 * math.ceil(abs(lam) * t_max) + 31) * 2.0**-53
        err += Ku / (1 - Ku) * (np.abs(v) @ (E[:-1] + E[1:]))
        g_sup += float(np.abs(v[np.searchsorted(starts, T, "right") - 1:]).max())
    u *= lam_num.conjugate() / abs(lam_num) ** 2
    tail = math.exp(-re * t_max) * g_sup * (rho / ((1 - q * slack) * c_min) + 1 / re) * slack
    return LaplaceResult(SampledState.from_array(speed, u), lam, float(err.max()) / abs(lam), tail)


@dataclass
class IdentityReport:
    """Central-difference residuals of the resolvent identity on a grid.

    `interior` is the max residual away from f's breakpoint cells, expected
    O(1/grid^2); `spike` is the max inside those cells, where the kink of
    the resolvent makes the central difference O(1); `trace` is the l1
    boundary-condition residual at the edge ends.
    """

    grid: int
    interior: float
    spike: float
    trace: float


def resolvent_identity_check(op: AdjacencyOperator, f: NetworkState, lam, *,
                             grid: int = 1024, tol: float = 1e-12,
                             exclude_cells: int = 2,
                             result: ResolventResult | None = None,
                             vel: VelocityProfile | None = None) -> IdentityReport:
    """Verify (l - velocity * d/ds) Rf = f numerically on the sample grid.

    The derivative is the central difference of the sampled resolvent, so
    the residual should shrink quadratically under grid refinement except
    within exclude_cells of a breakpoint of f, where the one-sided kink
    produces an O(1) spike (reported separately, never mixed in).  All of
    it reads the result's edges x (grid + 1) array, the trace residual its
    columns 0 and grid, f and the speeds through the solve's readers.  The
    speeds are `vel`, else op.scaling, else 1; without `result` the
    resolvent is solved at them, and the trace is routed at them, through
    `op` unless `vel` is given and is not op.scaling.
    """
    op = op if vel in (None, op.scaling) else build_adjacency(op.graph, vel)
    vel = op.scaling or semigroup._UNIT
    if result is None:
        result = _series(op.graph, vel, f, lam, grid, tol)
    lam = complex(lam)
    state = result.state
    if state.array is None:
        raise ValueError("the identity check reads a resolvent's array state")
    M = state.grid_size

    edges = tuple(dict.fromkeys([*state.edges, *f.support()]))
    U = state.on_edges(edges)

    bad = np.zeros(M + 1, dtype=bool)
    for b in f.breakpoints:
        center = b * M
        bad[max(math.floor(center) - exclude_cells, 0):math.ceil(center) + exclude_cells + 1] = True
    bad = bad[1:M]

    c = _speed_table(vel, edges)
    flat, vals, _ = _state_table(f, edges)
    # |c du - l u + f| = |l u - c du - f| on the inner samples, built in
    # place: rounding is symmetric, so the negation is exact
    r = U[:, 2:] - U[:, :-2]
    r *= M / 2
    r *= c[:, None]
    r -= (lam.real if lam.imag == 0 else lam) * U[:, 1:M]
    F = _scatter(flat, vals, len(edges), len(f.values), float)
    r += F[grid_pieces(f.breakpoints, M)[1:M]].T
    r = np.abs(r)
    interior = float(r[:, ~bad].max(initial=0.0))
    spike = float(r[:, bad].max(initial=0.0))

    routed = op.apply(state.point(0))
    trace = float((state.point(M) - routed).l1())
    return IdentityReport(M, interior, spike, trace)
