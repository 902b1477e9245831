"""Independent reference implementations the tests compare against.

Everything here works on plain Python/numpy structures and deliberately
avoids the library's own evolution, subdivision and series code, so an
agreement between the two routes actually means something.  Keep these
dumb and slow; clarity beats speed.
"""

from __future__ import annotations

import bisect
import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def dense_matrix(g, edges=None) -> tuple:
    """Dense routing matrix of a finite graph as (numpy array, id list)."""
    ids = list(edges if edges is not None else g.edge_ids)
    pos = {j: k for k, j in enumerate(ids)}
    B = np.zeros((len(ids), len(ids)))
    for j in ids:
        for i, w in g.column(j).items():
            B[pos[i], pos[j]] = float(w)
    return B, ids


def dense_power_apply(B: np.ndarray, ids, vec, n: int) -> dict:
    """B^n applied to a sparse vector, via dense floating arithmetic."""
    x = np.array([float(vec.get(j)) for j in ids])
    out = np.linalg.matrix_power(B, n) @ x
    return {j: out[k] for k, j in enumerate(ids)}


def brute_common_multiplier(cs, search_bound: int = 400) -> Fraction:
    """Smallest positive rational c with c/c_j a natural number for all j,
    found by scanning c = k/d over a denominator/numerator box instead of
    using any lcm/gcd identity.

    Pure integers: with c_j = p_j/q_j, c/c_j = k q_j / (d p_j) is whole
    exactly when d p_j divides k q_j, and c >= best = bk/bd is the cross
    product k bd >= bk d."""
    cs = [(Fraction(c).numerator, Fraction(c).denominator) for c in cs]
    best = None
    for d in range(1, search_bound + 1):
        for k in range(1, search_bound + 1):
            if best is not None and k * best[1] >= best[0] * d:
                break
            if all((k * q) % (d * p) == 0 for p, q in cs):
                best = (k, d)
    if best is None:
        raise AssertionError(f"no common multiplier below {search_bound} for {cs}")
    return Fraction(*best)


def fraction_apply_power(g, vec, n: int) -> dict:
    """B^n applied to a sparse vector, one entry at a time in plain
    Fraction arithmetic over the graph's raw columns (lazy graphs too).
    Zero entries are dropped, as SparseVector does."""
    cur = dict(vec.items())
    for _ in range(n):
        out: dict = {}
        for j, a in cur.items():
            for i, w in g.column(j).items():
                out[i] = out.get(i, 0) + w * a
        cur = {i: x for i, x in out.items() if x != 0}
    return cur


def plotdata_reference(state, edges=None) -> str:
    """CSV text of a sampled state, one cell at a time: every row formatted
    from scratch and `s` taken as float(Fraction(m, M))."""
    def fmt(x):
        return f"{float(x):.17g}"

    if edges is None:
        edges = sorted(state.support(), key=repr)
    edges = list(edges)
    if not edges:
        return "s\n"
    is_complex = any(
        isinstance(v.get(e), complex) for v in state.samples for e in v.support()
    )
    if is_complex:
        header = "s," + ",".join(f"edge_{e}_re,edge_{e}_im" for e in edges)
    else:
        header = "s," + ",".join(f"edge_{e}" for e in edges)
    rows = [header]
    M = state.grid_size
    for m, v in enumerate(state.samples):
        cells = [fmt(Fraction(m, M))]
        for e in edges:
            z = v.get(e)
            if is_complex:
                z = complex(z)
                cells += [fmt(z.real), fmt(z.imag)]
            else:
                cells.append(fmt(z))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def resolvent_closed_form(f, speed, lam, y: dict, grid: int) -> list:
    """The resolvent's closed form from its head trace y = u(1), point by
    point: at every s = m/grid and on every edge of supp f or supp y,

        u_j(s) = e^{-mu_j (1-s)} y_j + (1/c_j) int_s^1 e^{mu_j (s-t)} f_j(t) dt,

    mu_j = lam / c_j, c_j = speed(j), with the integral summed piece by
    piece in cmath.  Every exponent is written relative to s, so none is
    positive.  Returns one {edge: complex} dict per sample."""
    lam = complex(lam)
    edges = set(y) | f.support()
    out = []
    for m in range(grid + 1):
        s = Fraction(m, grid)
        vec = {}
        for j in edges:
            mu = lam / float(speed(j))
            z = cmath.exp(-mu * float(1 - s)) * y.get(j, 0)
            for a, b, v in f.pieces():
                x = v.get(j)
                if x != 0 and b > s:
                    lo = max(a, s)
                    z += (cmath.exp(-mu * float(lo - s))
                          - cmath.exp(-mu * float(b - s))) * float(x) / lam
            vec[j] = z
        out.append(vec)
    return out


def per_edge_state_table(f, edges) -> tuple:
    """resolvent._state_table read entry by entry: the flat position
    p * len(edges) + k and the float value of each entry of f on edges[k]
    over piece p, and the piece widths, taken from f.breakpoints."""
    at = {e: k for k, e in enumerate(edges)}
    flat, vals = [], []
    for p, v in enumerate(f.values):
        for e, x in v.items():
            flat.append(p * len(edges) + at[e])
            vals.append(float(x))
    widths = [float(f.breakpoints[p + 1] - f.breakpoints[p]) for p in range(len(f.values))]
    return np.array(flat, dtype=np.intp), np.array(vals, dtype=float), np.array(widths)


def per_edge_piece_integrals(V: np.ndarray, widths: np.ndarray, mus: np.ndarray,
                             row: np.ndarray, lam) -> tuple:
    """resolvent._piece_integrals with one exp and one expm1 per edge and
    piece: (V, G) from f's values V, pieces x edges, and its piece widths,
    at the per-edge exponent mu = mus[row], V[p] = f on piece p / lam and
    G[p] the local integral at the piece's left end, summed backwards from
    G[P] = 0."""
    mu = mus[row]
    V = V / lam
    G = np.zeros((len(V) + 1, len(mu)), dtype=mu.dtype)
    for p in reversed(range(len(V))):
        x = -mu * widths[p]
        G[p] = np.exp(x) * G[p + 1] - np.expm1(x) * V[p]
    return V, G


def per_edge_sample(f, edges: list, mus: np.ndarray, row: np.ndarray, V: np.ndarray,
                    G: np.ndarray, y: np.ndarray, grid: int):
    """resolvent._sample with one exp per edge and grid point:
    u = V_p + e^{-mu (b_p - s)} (G_{p+1} - V_p) + e^{-mu (1 - s)} y, mu =
    mus[row], with the products and sums in the library's order; V and G
    are pieces-major, as per_edge_piece_integrals gives them."""
    from netflow.states import SampledState, grid_pieces

    mu = mus[row]
    s = np.arange(grid + 1) / grid
    piece = np.array(grid_pieces(f.breakpoints, grid))
    right = np.array([float(b) for b in f.breakpoints[1:]])
    u = (G[1:] - V).T[:, piece]
    u *= np.exp(np.multiply.outer(-mu, right[piece] - s))
    u += np.exp(np.multiply.outer(-mu, 1 - s)) * y[:, None]
    u += V.T[:, piece]
    return SampledState.from_array(edges, u)


def pairwise_absorption_state(profiles):
    """AbsorptionProfile's state as a running sum of one single-edge state
    per edge, added in repr order of the ids, each edge's rates validated
    as the profile validates them: the pairwise construction the one-pass
    union replaced."""
    from netflow import MalformedGraphError, NetworkState, SparseVector
    from netflow.exact import as_exact

    state = NetworkState.zero()
    for j, (bps, vals) in sorted(profiles.items(), key=lambda kv: repr(kv[0])):
        bps = [as_exact(b, what=f"absorption breakpoint on edge {j!r}") for b in bps]
        vals = [as_exact(v, what=f"absorption rate on edge {j!r}") for v in vals]
        if len(vals) != len(bps) - 1:
            raise MalformedGraphError(
                f"absorption profile on edge {j!r}: {len(bps)} breakpoints "
                f"need {len(bps) - 1} values"
            )
        state = state + NetworkState(bps, [SparseVector({j: v}) for v in vals])
    return state


def unit_series(g, w: dict, lam, K: int) -> dict:
    """Head trace y = sum_{k=0}^{K} e^{-lam k} B^{k+1} w of the unit-speed
    resolvent, in dicts: each term routes the previous one through the
    graph's raw Fraction columns (lazy graphs too), one entry at a time,
    and is added into y edge by edge."""
    cur = {j: x for j, x in w.items() if x != 0}
    y: dict = {}
    for z in np.exp(-lam * np.arange(K + 1)).tolist():
        out: dict = {}
        for j, a in cur.items():
            for i, wt in g.column(j).items():
                out[i] = out.get(i, 0) + wt * a
        cur = {i: x for i, x in out.items() if x != 0}
        for e, val in cur.items():
            y[e] = y.get(e, 0) + z * val
    return y


def breadth_first_closure(g, seeds, depth: int) -> tuple:
    """(edges, rows, cols, weights) of B's entries over the columns within
    depth - 1 applications of B from `seeds`, level by level: `edges` is
    the distinct seeds, then each edge at its first sighting, and each
    entry w_ij read is float(w_ij) at the positions of i and j in `edges`,
    found by list search."""
    edges = list(dict.fromkeys(seeds))
    level, rows, cols, weights = list(edges), [], [], []
    for _ in range(depth):
        reached = []
        for j in level:
            for i, w in g.column(j).items():
                if i not in edges:
                    edges.append(i)
                    reached.append(i)
                rows.append(edges.index(i))
                cols.append(edges.index(j))
                weights.append(float(w))
        level = reached
    return tuple(edges), rows, cols, weights


def identity_residuals(g, f, lam, state, vel=None, exclude_cells: int = 2) -> tuple:
    """(interior, spike, trace) of the resolvent identity
    (lam - c_j d/ds) u = f on a sampled resolvent, one grid cell at a time.

    The derivative is the central difference; a cell within exclude_cells
    of a breakpoint of f counts to `spike`, any other to `interior`.  The
    trace is the l1 norm of u(1) - C u(0), C_ij = (c_j / c_i) w_ij read
    from the graph's columns and routed entry by entry (c = 1 without
    `vel`)."""
    lam = complex(lam)
    M = state.grid_size
    edges = set(f.support())
    for v in state.samples:
        edges.update(v.support())
    bad = set()
    for b in f.breakpoints:
        center = b * M
        bad.update(range(math.floor(center) - exclude_cells, math.ceil(center) + exclude_cells + 1))
    interior = spike = 0.0
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
    routed: dict = {}
    for j, a in state.samples[0].items():
        for i, wt in g.column(j).items():
            scale = 1 if vel is None else vel.velocity(j) / vel.velocity(i)
            routed[i] = routed.get(i, 0) + wt * scale * a
    end = state.samples[M]
    trace = sum(abs(end.get(i) - routed.get(i, 0)) for i in set(routed) | set(end.support()))
    return interior, spike, float(trace)


def riemann_pair(f, g, n: int = 4000):
    """Midpoint Riemann sum of sum_j f_j * g_j over [0,1].

    Approximate (error O(1/n) near breakpoints); use with a tolerance.
    """
    total = 0.0
    for m in range(n):
        s = Fraction(2 * m + 1, 2 * n)
        fv = f.value_at(s)
        total += sum(float(fv.get(j)) * float(w) for j, w in g.value_at(s).items())
    return total / n


def crawl(g, vel, f, edge, x, t, side="right"):
    """Backward characteristic evaluation, written against the raw graph
    callbacks only (feeders computed here, exact rational arithmetic).
    side="left" takes the left limit in x: a foot landing on a breakpoint
    or on the tail reads the piece before it."""
    rows: dict = {}
    for j in g.edge_ids:
        for i, w in g.column(j).items():
            rows.setdefault(i, []).append((j, w))

    def head_value(j, rem):
        c = vel.velocity(j)
        y = c * rem
        if y < 1 or (side == "left" and y == 1):
            return f.value_at(y, side).get(j)
        return tail_value(j, rem - Fraction(1) / c)

    def tail_value(j, rem):
        c = vel.velocity(j)
        acc = 0
        for k, w in rows.get(j, ()):
            v = head_value(k, rem)
            if v:
                acc += (vel.velocity(k) / c) * w * v
        return acc

    c = vel.velocity(edge)
    y = x + c * t
    if y < 1 or (side == "left" and y == 1):
        return f.value_at(y, side).get(edge)
    return tail_value(edge, t - (1 - x) / c)


def characteristic_absorb(g, vel, q_state, f, t: Fraction, grid: int) -> list:
    """Transport with absorption summed over backward characteristic paths,
    in `decimal` at 50 significant digits.

    The parcel now at x on edge j either sat at x + c_j t on the edge at
    time 0, or entered through the tail at t - (1 - x)/c_j, out of a
    feeder k with weight (c_k / c_j) w_jk, and so on backwards.  Crossing
    [a, b] of edge j takes (b - a)/c_j, so the rate adds the exact rational
    (1/c_j) int_a^b q_j to the path's exponent, and each path contributes
    weight * f(origin) * exp(exponent).  Decimal.exp is correctly rounded,
    so the sums carry about 10^-50 relative error, far below a float's
    rounding.  A positive rate grows mass.  Returns one {edge: Decimal}
    dict per grid point s = m/grid; the last point is read as a left limit
    along the whole path, like `sample`'s sample at 1.
    """
    rows: dict = {}
    for j in g.edge_ids:
        for i, w in g.column(j).items():
            rows.setdefault(i, []).append((j, w))

    def rate_integral(j, a, b):
        total = Fraction(0)
        for lo, hi, v in q_state.pieces():
            lo, hi = max(lo, a), min(hi, b)
            if lo < hi:
                total += (hi - lo) * v.get(j)
        return total

    def dec(x: Fraction) -> Decimal:
        return Decimal(x.numerator) / Decimal(x.denominator)

    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        for m in range(grid + 1):
            side = "left" if m == grid else "right"
            values = {}
            for edge in g.edge_ids:
                total = Decimal(0)
                paths = [(edge, Fraction(m, grid), Fraction(t), Fraction(1), Fraction(0))]
                while paths:
                    j, x, rem, weight, expo = paths.pop()
                    c = Fraction(vel.velocity(j))
                    y = x + c * rem
                    if y < 1 or (side == "left" and y == 1):
                        val = f.value_at(y, side).get(j)
                        if val:
                            expo += rate_integral(j, x, y) / c
                            total += dec(weight * val) * dec(expo).exp()
                        continue
                    expo += rate_integral(j, x, Fraction(1)) / c
                    rem -= (1 - x) / c
                    for k, w in rows.get(j, ()):
                        coef = weight * w * Fraction(vel.velocity(k)) / c
                        paths.append((k, Fraction(0), rem, coef, expo))
                values[edge] = total
            out.append(values)
    return out


def absorbing_read(speed, grid, cuts, profile, history, D, T) -> tuple:
    """evolve_absorbing's read of its head outflows, one grid point at a
    time in Fractions, on the arguments evolve_absorbing hands to
    semigroup._absorbing_read: the edges' speeds, the grid, the common
    breakpoints of f and q, the rate profile, the histories, D and T.

    Edge j at x = m/grid reads H_j at the Fraction tick T + D x / c_j,
    bisected among the history starts (from the left at x = 1, a left
    limit), and sums each term r exp(beta + shift + b s) of it, its
    exponent formed in Fractions and converted by float().  The error
    bound is _float_sum's, over the edges in `speed` order.  Returns the
    edges x (grid + 1) array and the largest bound over the grid."""
    def float_sum(terms, s, shift):
        value = size = 0.0
        k = 0
        for (beta, b), r in terms.items():
            x = beta + shift + b * s
            term = float(r) * math.exp(float(x))
            value += term
            size += abs(term)
            k = max(k, math.ceil(abs(x)))
        Ku = 2 * (k + 5 + len(terms)) * 2.0**-53
        return value, Ku / (1 - Ku) * size

    starts = cuts[:-1]
    columns, error_bound = [], 0.0
    for m in range(grid + 1):
        x = Fraction(m, grid)
        lo = min(bisect.bisect_right(cuts, x), len(cuts) - 1) - 1
        find = bisect.bisect_left if m == grid else bisect.bisect_right
        col, err = [], 0.0
        for j, c_j in speed.items():
            tick = T + D * x / c_j
            starts_j, values = history[j]
            h = values[find(starts_j, tick) - 1]
            if h:
                _, b, area = profile[j][lo]
                value, e = float_sum(h, tick / D, -(area + b * (x - starts[lo])) / c_j)
                col.append(value)
                err += e
            else:
                col.append(0.0)
        columns.append(col)
        error_bound = max(error_bound, err)
    return np.array(columns).T, error_bound


def laplace_paths(g, vel, f, lam: float, T: Fraction, grid: int) -> list:
    """int_0^T e^{-lam t} (T(t) f)_j(x) dt at x = m/grid for real lam,
    summed over backward characteristic paths in `decimal` at 50
    significant digits, from the raw graph callbacks alone.

    Edge j carries its profile toward x = 0, its head, at speed c_j.  A
    parcel at x on edge j at time t sat at x + c_j t at time 0, or left
    the head of a feeder k at t - (1 - x)/c_j with weight (c_k / c_j) w_jk,
    and so on backwards.  A path that reached its last edge k after a
    delay d (d = -x/c_j on edge j itself) reads f_k(c_k (t - d)) for t in
    [d, d + 1/c_k), so it adds the closed-form integral of e^{-lam t}
    times that step function over the part of [0, T) it covers.  Returns
    one {edge: Decimal} dict per grid point."""
    rows: dict = {}
    for j in g.edge_ids:
        for i, w in g.column(j).items():
            rows.setdefault(i, []).append((j, w))

    def dec(x: Fraction) -> Decimal:
        return Decimal(x.numerator) / Decimal(x.denominator)

    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        lam = Decimal(lam)
        for m in range(grid + 1):
            x = Fraction(m, grid)
            values = {}
            for edge in g.edge_ids:
                total = Decimal(0)
                paths = [(edge, -x / Fraction(vel.velocity(edge)), Fraction(1))]
                while paths:
                    k, d, weight = paths.pop()
                    c = Fraction(vel.velocity(k))
                    for a, b, v in f.pieces():
                        lo, hi = max(d + a / c, Fraction(0)), min(d + b / c, T)
                        if v.get(k) and lo < hi:
                            total += (dec(weight * v.get(k)) / lam
                                      * ((-lam * dec(lo)).exp() - (-lam * dec(hi)).exp()))
                    d += 1 / c
                    if d < T:
                        for i, w in rows.get(k, ()):
                            paths.append((i, d, weight * w * Fraction(vel.velocity(i)) / c))
                values[edge] = total
            out.append(values)
    return out


def fv_absorb(g, q_state, f_state, t: Fraction, cells: int) -> dict:
    """Upwind finite-volume run of du/dt = d/ds u + q u with the vertex
    coupling, unit velocities, CFL exactly 1.

    With dt = ds = 1/cells the advection part is an exact one-cell shift,
    so the only errors are operator splitting and any breakpoints of q or
    f that fall inside cells.  Returns edge -> numpy array of cell values,
    cell i covering [i/cells, (i+1)/cells).
    """
    t = Fraction(t)
    steps = t * cells
    if steps.denominator != 1:
        raise AssertionError(f"t={t} is not a multiple of 1/{cells}")
    steps = int(steps)
    ids = list(g.edge_ids)
    mid = [Fraction(2 * i + 1, 2 * cells) for i in range(cells)]
    u = {j: np.array([float(f_state.value_at(s).get(j)) for s in mid]) for j in ids}
    growth = {
        j: np.exp(np.array([float(q_state.value_at(s).get(j)) for s in mid]) / cells)
        for j in ids
    }
    cols = {j: {i: float(w) for i, w in g.column(j).items()} for j in ids}
    for _ in range(steps):
        outflow = {j: u[j][0] for j in ids}
        for j in ids:
            u[j][:-1] = u[j][1:]
            u[j][-1] = 0.0
        for j in ids:
            for i, w in cols[j].items():
                u[i][-1] += w * outflow[j]
        for j in ids:
            u[j] *= growth[j]
    return u


class DictVector:
    """The dict-of-values vector algebra SparseVector had before its exact
    vectors held integer numerators over one denominator, kept unchanged
    as the reference: one dict of values, zero entries dropped, and every
    operation on the values themselves."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        if entries is None:
            entries = {}
        items = entries.items() if hasattr(entries, "items") else entries
        self._entries = {j: v for j, v in items if v != 0}

    def get(self, j, default=0):
        return self._entries.get(j, default)

    def items(self):
        return self._entries.items()

    def values(self):
        return self._entries.values()

    def l1(self):
        return sum(abs(v) for v in self._entries.values())

    def total(self):
        return sum(self._entries.values())

    def scale(self, a):
        if a == 0:
            return DictVector()
        return DictVector({j: a * v for j, v in self._entries.items()})

    def __add__(self, other):
        out = dict(self._entries)
        for j, v in other._entries.items():
            out[j] = out.get(j, 0) + v
        return DictVector(out)

    def __sub__(self, other):
        out = dict(self._entries)
        for j, v in other._entries.items():
            out[j] = out.get(j, 0) - v
        return DictVector(out)

    def __eq__(self, other):
        if not isinstance(other, DictVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))


def readings_reference(f) -> dict:
    """sup_norm, total_mass and predual_norm of a NetworkState, summed one
    value at a time as the library summed them before its exact readings
    worked in integers."""
    pieces = [(b2 - b1, DictVector(v.items())) for b1, b2, v in f.pieces()]
    return {
        "sup_norm": max(v.l1() for _, v in pieces),
        "total_mass": sum(w * v.total() for w, v in pieces),
        "predual_norm": sum(w * max((abs(x) for x in v.values()), default=0) for w, v in pieces),
    }


def dot_reference(u, v):
    """The dot product of two vectors, value by value over the shorter."""
    u, v = DictVector(u.items()), DictVector(v.items())
    if len(u._entries) > len(v._entries):
        u, v = v, u
    return sum(a * v.get(j) for j, a in u.items())


def pair_reference(f, g):
    """The weak-* pairing of f, a NetworkState or a SampledState, with a
    NetworkState g: on their common refinement, or by the trapezoid on f's
    grid, one product at a time."""
    if hasattr(f, "grid_size"):
        M = f.grid_size
        total = 0
        for m, u in enumerate(f.samples):
            v = g.value_at(Fraction(m, M)) if m < M else g.value_at(Fraction(1), side="left")
            total += (Fraction(1, 2) if m in (0, M) else 1) * dot_reference(u, v)
        return total / M
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return sum((b - a) * dot_reference(f.value_at(a), g.value_at(a)) for a, b in zip(bps, bps[1:]))


def residual_reference(f, g, vel=None):
    """boundary_residual of a NetworkState, C f(0) built one weight at a
    time over the graph's columns."""
    out: dict = {}
    for j, a in f.values[0].items():
        for i, w in g.column(j).items():
            c = w if vel is None else w * vel.velocity(j) / vel.velocity(i)
            out[i] = out.get(i, 0) + c * a
    return (DictVector(f.values[-1].items()) - DictVector(out)).l1()
