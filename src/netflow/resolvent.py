"""Resolvents of the transport generator and the Laplace-transform oracle.

On edge j, at speed c_j, the resolvent u = (l - A)^{-1} f solves
l u_j - c_j u_j' = f_j, and its head trace y = u(1) is what the tails
route in, y = C u(0) with C_ij = (c_j / c_i) w_ij.  With mu_j = l / c_j
every edge has the same closed form

    u_j(s) = e^{-mu_j (1-s)} y_j + (1/c_j) int_s^1 e^{mu_j (s-t)} f_j(t) dt,

and one sampler evaluates it on the grid for both solvers.  The local
integral is closed-form per piece of f and summed backwards over the
pieces; every exponential has a non-positive real exponent, so no l in
the right half-plane overflows.  Read at s = 0 the local integral is the
boundary moment d = u(0) - e^{-mu} y, and the solvers differ only in the
series that turns d into y:

- resolvent_unit (unit speed): y = sum_{k>=0} e^{-lk} B^{k+1} d.  Each
  term needs only columns of B reachable from the support of f, so it
  runs on lazy infinite graphs; only edges in the support of f or y are
  sampled.
- resolvent_general (any positive speeds, finite graph): the Neumann
  iteration of y = C (d + E y), E = diag(e^{-mu}).

An error in y reaches every sample through a factor |e^{-mu_j (1-s)}| <= 1,
so both truncation bounds hold for the sampled sup-l1 norm as they stand.
The Neumann certificate is the norm of v -> C E v in |v|_c = sum_j c_j |v_j|,
at most q = max_j e^{-Re(l)/c_j} sum_i |w_ij|, which is e^{-Re(l)/c_max} < 1
for stochastic columns.  The raw max-column-sum of C E can exceed 1 on
perfectly valid graphs (a fast edge feeding a slow one); both norms are
reported in the metadata, the raw one for inspection, q because it is the
certificate.

The only quadrature in this module lives in laplace_oracle, which exists
precisely to certify the closed forms against the time-domain definition
of the resolvent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ContractionViolationError,
    TruncationError,
    WrongOperatorError,
)
from .exact import as_exact
from .graph import AdjacencyOperator, MetricGraph, SparseVector, VelocityProfile
from .semigroup import evolve_unit
from .states import NetworkState, SampledState

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
    if not lam.real > 0:
        raise ValueError(f"resolvent needs Re(lambda) > 0, got {lam}")
    return lam


def _piece_integrals(f: NetworkState, edges: list, mu: np.ndarray, lam) -> tuple:
    """(V, G) on the rows `edges`: V[:, p] is f on piece p divided by l, and
    G[:, p] = (1/c_j) int_{a_p}^1 e^{mu_j (a_p - t)} f_j(t) dt is the local
    integral at the piece's left end a_p (G[:, P] = 0 at s = 1).  G[:, 0]
    is the boundary moment d."""
    pos = {e: k for k, e in enumerate(edges)}
    V = np.zeros((len(edges), len(f.values)), dtype=mu.dtype)
    for p, v in enumerate(f.values):
        for e, x in v.items():
            V[pos[e], p] = float(x)
    V /= lam
    G = np.zeros((len(edges), len(f.values) + 1), dtype=mu.dtype)
    for p in reversed(range(len(f.values))):
        x = -mu * float(f.breakpoints[p + 1] - f.breakpoints[p])
        G[:, p] = np.exp(x) * G[:, p + 1] - np.expm1(x) * V[:, p]
    return V, G


def _sample(f: NetworkState, edges: list, mu: np.ndarray, lam, y: np.ndarray,
            grid: int) -> SampledState:
    """The closed form u_j(m / grid), m = 0..grid, on the rows `edges`, from
    the per-edge exponent mu = l / c and the head trace y = u(1)."""
    V, G = _piece_integrals(f, edges, mu, lam)
    s = np.arange(grid + 1) / grid
    # sample m lies in piece p when ceil(a_p grid) <= m < ceil(b_p grid);
    # s = 1 belongs to the last piece
    first = [-(-a.numerator * grid // a.denominator) for a in f.breakpoints[:-1]]
    piece = np.repeat(np.arange(len(first)), np.diff(first + [grid + 1]))
    right = np.array([float(b) for b in f.breakpoints[1:]])
    # u = V_p + e^{-mu (b_p - s)} (G_{p+1} - V_p) + e^{-mu (1 - s)} y, built
    # in u with one scratch buffer of the same size; b_p >= s and rounding
    # is monotone, so the float b_p - s is never negative
    u = (G[:, 1:] - V)[:, piece]
    buf = np.multiply.outer(-mu, right[piece] - s)
    u *= np.exp(buf, out=buf)
    np.multiply.outer(-mu, 1 - s, out=buf)
    np.exp(buf, out=buf)
    buf *= y[:, None]
    u += buf
    u += np.take(V, piece, axis=1, out=buf)
    return _sampled(edges, u)


def _sampled(edges: list, u: np.ndarray) -> SampledState:
    """SampledState of an edges x (grid + 1) array, zero entries dropped."""
    return SampledState(u.shape[1] - 1,
                        [SparseVector(zip(edges, col)) for col in u.T.tolist()])


def resolvent_unit(op: AdjacencyOperator, f: NetworkState, lam, *,
                   grid: int = 256, tol: float = 1e-12) -> ResolventResult:
    """Unit-velocity resolvent by the routing series for the head trace,
    y = u(1) = sum_{k>=0} e^{-lk} B^{k+1} w with w = int_0^1 e^{-lt} f(t) dt.

    Truncation: K is the smallest count with
    e^{-Re(l) K} / (1 - e^{-Re(l)}) * sup_norm(f) <= tol, and terms
    k = 0..K are summed.  With columns summing to at most one each dropped
    term has l1 norm at most e^{-Re(l) k} |w|_1, so tail_bound =
    |w|_1 e^{-Re(l)(K+1)} / (1 - e^{-Re(l)}) bounds what they add to any
    sample; a routed column that sums to more raises
    ContractionViolationError.  Works on lazy graphs: each series term
    only needs columns reachable from the support of f.
    """
    if op.scaled:
        raise WrongOperatorError(
            "resolvent_unit needs the unscaled routing operator; "
            "use resolvent_general for velocity profiles"
        )
    lam = _require_right_half_plane(lam)
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    re = lam.real
    sup_f = float(f.sup_norm())

    if sup_f == 0:
        zero = SampledState.zeros(grid)
        return ResolventResult(zero, lam, 0, 0.0, {"method": "unit-series"})

    decay = math.exp(-re)
    K = 0
    while sup_f * math.exp(-re * K) / (1 - decay) > tol:
        K += 1
        if K > MAX_SERIES_TERMS:
            achieved = sup_f * math.exp(-re * MAX_SERIES_TERMS) / (1 - decay)
            raise TruncationError(
                f"series tolerance {tol} not reachable within "
                f"{MAX_SERIES_TERMS} terms",
                achieved=achieved,
            )

    # real arithmetic throughout when lambda is real
    lam_num = re if lam.imag == 0 else lam
    edges = list(dict.fromkeys(e for v in f.values for e in v.support()))
    w = _piece_integrals(f, edges, np.full(len(edges), lam_num), lam_num)[1][:, 0]
    cur = SparseVector(zip(edges, w.tolist()))
    y: dict = {}
    checked: set = set()
    for z in np.exp(-lam_num * np.arange(K + 1)).tolist():
        for j in cur.support() - checked:
            if op.column(j).total() > 1:
                raise ContractionViolationError(
                    f"column of edge {j!r} sums past 1; the routing series has no tail bound"
                )
        checked.update(cur.support())
        cur = op.apply(cur)
        for e, val in cur.items():
            y[e] = y.get(e, 0) + z * val

    w_norm = float(np.abs(w).sum())
    tail = w_norm * math.exp(-re * (K + 1)) / (1 - decay)

    edges = list(dict.fromkeys([*edges, *y]))
    mu = np.full(len(edges), lam_num)
    y_arr = np.array([y.get(e, 0) for e in edges], dtype=mu.dtype)
    state = _sample(f, edges, mu, lam_num, y_arr, grid)
    return ResolventResult(
        state, lam, K + 1, tail,
        {"method": "unit-series", "K_used": K, "tol": tol, "w_norm": w_norm},
    )


def resolvent_general(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                      lam, *, grid: int = 256, tol: float = 1e-12) -> ResolventResult:
    """General-velocity resolvent on a finite graph.

    Velocities may be any positive reals (this is the path that serves
    irrational-velocity references).  The head trace y = u(1) is the
    Neumann series y = sum_{k>=0} (C E)^k C d, with C, E, d, q and |.|_c
    as in the module docstring.  It stops at the first N
    with |term_N|_c / ((1 - q) c_min) <= tol, which bounds, in the sampled
    sup-l1 norm, everything the dropped terms add; that quantity is the
    reported tail_bound.
    """
    lam = _require_right_half_plane(lam)
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    ids = g.edge_ids
    if not ids:
        raise ValueError("graph has no edges")
    for j in f.support():
        g.column(j)  # an edge the graph lacks raises MalformedGraphError
    idx = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    c = np.array([float(vel.velocity(j)) for j in ids])
    c_min = c.min()
    # real arithmetic throughout when lambda is real
    lam_num = lam.real if lam.imag == 0 else lam
    mu = lam_num / c

    C = np.zeros((n, n))
    for j in ids:
        for i, w_ij in g.column(j).items():
            C[idx[i], idx[j]] = float(w_ij)
    decay = np.exp(-lam.real / c)  # |e^{-mu_j}|
    norm_weighted = float((decay * np.abs(C).sum(axis=0)).max())
    if norm_weighted >= 1:
        raise ContractionViolationError(
            f"weighted norm of the boundary operator is {norm_weighted:.6g} >= 1; "
            "the graph's columns cannot be stochastic"
        )
    C *= c[None, :] / c[:, None]
    norm_raw = float((decay * np.abs(C).sum(axis=0)).max())

    def route(v):
        # C @ v; a complex v is split so that C is never cast to complex
        if v.dtype.kind == "c":
            return C @ v.real + 1j * (C @ v.imag)
        return C @ v

    def bound(term):
        return float((c * np.abs(term)).sum()) / ((1 - norm_weighted) * c_min)

    d = _piece_integrals(f, ids, mu, lam_num)[1][:, 0]
    E = np.exp(-mu)
    y = np.zeros_like(d)
    term = route(d)
    tail = bound(term)
    nterms = 0
    while tail > tol:
        y += term
        term = route(E * term)
        tail = bound(term)
        nterms += 1
        if nterms > MAX_SERIES_TERMS:
            raise TruncationError(
                f"Neumann tolerance {tol} not reachable within "
                f"{MAX_SERIES_TERMS} terms",
                achieved=tail,
            )

    state = _sample(f, ids, mu, lam_num, y, grid)
    return ResolventResult(
        state, lam, nterms, tail,
        {
            "method": "general-neumann",
            "neumann_terms": nterms,
            "norm_Blambda": norm_raw,
            "norm_Blambda_weighted": norm_weighted,
            "tol": tol,
        },
    )


@dataclass
class LaplaceResult:
    """Quadrature Laplace transform of the flow plus its two error terms."""

    state: SampledState
    lam: complex
    quad_bound: float
    tail_bound: float
    metadata: dict = field(default_factory=dict)

    @property
    def error_bound(self) -> float:
        return self.quad_bound + self.tail_bound


def laplace_oracle(op: AdjacencyOperator, f: NetworkState, lam, *,
                   t_max, steps: int, grid: int = 256) -> LaplaceResult:
    """Time-domain check value: composite trapezoid of e^{-lt} T(t) f over
    [0, t_max], sampled at s = m/grid.

    The integrand is piecewise e^{-lt} * (constant vector) in t for each
    fixed s, jumping when a breakpoint image crosses s.  Panels containing
    such a jump are split at it, with one-sided values taken from the
    exactly evolved states, so the reported quadrature bound

        sum_panels (h^3/12) |l|^2 e^{-Re(l) t_i} max(sup_i, sup_{i+1})

    is a genuine bound on the per-sample l1 error.  The tail bound is
    e^{-Re(l) t_max}/Re(l) * sup_norm(f) from the contraction property.
    Unit velocities only: for a rational profile, apply the time rescale
    on the subdivided graph (R_C(l) = (1/c) S^{-1} R_unit(l/c) S) instead.
    """
    if op.scaled:
        raise WrongOperatorError("laplace_oracle integrates the unit flow; "
                                 "pass the unscaled operator")
    lam = _require_right_half_plane(lam)
    t_max = as_exact(t_max, what="t_max")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    re = lam.real
    h = t_max / steps

    nodes = [f]
    for _ in range(steps):
        nodes.append(evolve_unit(op, nodes[-1], h))
    sups = [float(st.sup_norm()) for st in nodes]

    # base composite trapezoid, accumulated per edge over the sample grid
    acc: dict = {}
    hf = float(h)
    for i, st in enumerate(nodes):
        weight = hf if 0 < i < steps else hf / 2
        coeff = weight * cmath.exp(-lam * float(i * h))
        for a, b, v in st.pieces():
            lo = math.ceil(a * grid)
            hi = grid + 1 if b == 1 else math.ceil(b * grid)
            if lo >= hi:
                continue
            for e, val in v.items():
                if e not in acc:
                    acc[e] = np.zeros(grid + 1, dtype=complex)
                acc[e][lo:hi] += coeff * float(val)

    quad_bound = 0.0
    lam2 = abs(lam) ** 2
    h3 = hf ** 3 / 12
    for i in range(steps):
        quad_bound += h3 * lam2 * math.exp(-re * float(i * h)) \
            * max(sups[i], sups[i + 1])

    # Panels whose integrand jumps: images n + b - s of f's breakpoints.
    # Each such panel is rebuilt as the exact piecewise trapezoid between
    # one-sided limits, so several jumps in one panel compose correctly
    # and the O(h^2) rate survives.  Segment lengths cube-sum below h^3,
    # so the bound above needs no extra jump terms.
    interior = list(f.breakpoints[:-1])
    n_hi = int(t_max) + 1
    sided_cache: dict = {}
    for m in range(grid + 1):
        s = Fraction(m, grid)
        # interior samples follow the right-open convention; the s=1 sample
        # is the left trace, so its jump endpoints mirror
        left_conv = m == grid
        panels: dict = {}
        node_fix: dict = {}
        for b in interior:
            for nn in range(n_hi + 1):
                t_star = nn + b - s
                at_zero_ok = t_star >= 0 if left_conv else t_star > 0
                if not (at_zero_ok and t_star <= t_max):
                    continue
                ratio = t_star / h
                i = ratio.numerator // ratio.denominator
                delta = t_star - i * h
                if delta == 0:
                    sided = _one_sided(op, f, s + t_star, sided_cache)
                    if left_conv:
                        # node sample is the left limit: the panel to the
                        # right reads the wrong endpoint (none past t_max)
                        if i < steps:
                            node_fix[i] = sided[1]
                            panels.setdefault(i, [])
                    else:
                        # node sample is the right limit: the panel to the
                        # left reads the wrong endpoint (t_star > 0 so i >= 1)
                        node_fix[i] = sided[0]
                        panels.setdefault(i - 1, [])
                else:
                    panels.setdefault(i, []).append(t_star)
        for i, lst in panels.items():
            lst.sort()
            phi_i = cmath.exp(-lam * float(i * h))
            phi_n = cmath.exp(-lam * float((i + 1) * h))
            v_i_base = nodes[i].value_at(s)
            v_n_base = nodes[i + 1].value_at(s)
            v_i = node_fix.get(i, v_i_base) if left_conv else v_i_base
            v_n = v_n_base if left_conv else node_fix.get(i + 1, v_n_base)
            _add_corr(acc, grid, m, -hf / 2 * phi_i, v_i_base)
            _add_corr(acc, grid, m, -hf / 2 * phi_n, v_n_base)
            t_prev, val_prev, phi_prev = i * h, v_i, phi_i
            for t_star in lst:
                vl, vr = _one_sided(op, f, s + t_star, sided_cache)
                e_star = cmath.exp(-lam * float(t_star))
                seg = float(t_star - t_prev)
                _add_corr(acc, grid, m, seg / 2 * phi_prev, val_prev)
                _add_corr(acc, grid, m, seg / 2 * e_star, vl)
                t_prev, val_prev, phi_prev = t_star, vr, e_star
            seg = float((i + 1) * h - t_prev)
            _add_corr(acc, grid, m, seg / 2 * phi_prev, val_prev)
            _add_corr(acc, grid, m, seg / 2 * phi_n, v_n)

    u = np.array(list(acc.values())).reshape(len(acc), grid + 1)
    state = _sampled(list(acc), u.real if lam.imag == 0 else u)

    tail_bound = math.exp(-re * float(t_max)) / re * float(f.sup_norm())
    return LaplaceResult(
        state, lam, quad_bound, tail_bound,
        {"t_max": float(t_max), "steps": steps, "nodes": len(nodes)},
    )


def _add_corr(acc: dict, grid: int, m: int, coeff: complex,
              vec: SparseVector) -> None:
    for e, val in vec.items():
        if e not in acc:
            acc[e] = np.zeros(grid + 1, dtype=complex)
        acc[e][m] += coeff * float(val)


def _one_sided(op: AdjacencyOperator, f: NetworkState, y: Fraction,
               cache: dict) -> tuple:
    """One-sided time limits of T(t)f(s) at the jump with s + t = y: both
    equal routed original values B^n f(b+-), which depend on y alone.  At
    b = 0 the left limit reads the pre-routing trace B^{n-1} f(1-)."""
    hit = cache.get(y)
    if hit is not None:
        return hit
    n = y.numerator // y.denominator
    b = y - n
    if b == 0:
        vl = op.apply_power(f.value_at(Fraction(1), "left"), n - 1)
        vr = op.apply_power(f.value_at(Fraction(0)), n)
    else:
        vl = op.apply_power(f.value_at(b, "left"), n)
        vr = op.apply_power(f.value_at(b), n)
    cache[y] = (vl, vr)
    return vl, vr


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
    produces an O(1) spike (reported separately, never mixed in).
    """
    if result is None:
        result = resolvent_unit(op, f, lam, grid=grid, tol=tol)
    lam = complex(lam)
    state = result.state
    M = state.grid_size
    edges = sorted(set().union(*[set(v.support()) for v in state.samples]) | set(f.support()),
                   key=repr)

    bad = set()
    for b in f.breakpoints:
        center = b * M
        lo = math.floor(center) - exclude_cells
        hi = math.ceil(center) + exclude_cells
        bad.update(range(lo, hi + 1))

    interior = 0.0
    spike = 0.0
    for m in range(1, M):
        f_here = f.value_at(Fraction(m, M))
        for j in edges:
            du = (state.samples[m + 1].get(j) - state.samples[m - 1].get(j)) * (M / 2)
            cj = 1 if vel is None else float(vel.velocity(j))
            r = abs(lam * state.samples[m].get(j) - cj * du - float(f_here.get(j)))
            if m in bad:
                spike = max(spike, r)
            else:
                interior = max(interior, r)

    routed = op.apply(state.samples[0])
    trace = float((state.samples[M] - routed).l1())
    return IdentityReport(M, interior, spike, trace)
