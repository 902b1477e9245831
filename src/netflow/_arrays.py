"""The exact flows' int64 array kernels, chosen by semigroup._exact_flow:
_route_exact at one speed, over the steps _int_steps builds from a flow's
feeders, and _array_flow at several.  Both read their input as each
vector's integer numerators over its denominator, run in int64 under a
running bound and in Python ints past it, and _answer builds both
answers: one exact SparseVector a row, its numerators and denominator
brought to lowest terms by one np.gcd.reduceat over the rows, so no
Fraction is built until an entry is read.  The kernels live apart from
semigroup.py because compiling that module at import sets the peak
memory of a short run, which grows in 1 MB steps with its size.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import WidthOverflowError
from .exact import coprime_fraction
from .graph import SparseVector
from .states import NetworkState

_INT64_MAX = 2**63 - 1


def _route_exact(steps: tuple, vectors: list, powers: list) -> list:
    """B^n v, exact, for each v of `vectors` on the edges of `steps`, n its
    entry of `powers` >= 0; B^0 v is v itself.  The vectors' numerators
    are the rows of one array V over D, the lcm of their denominators, a
    step one gather-multiply and one reduceat over _int_steps.  V is int64
    while a running bound, max|V| times growth a step, stays within
    2^63 - 1; where a step could pass it, D and V shed their gcd, max|V|
    is read afresh, and if that is still too large V goes on in Python
    ints, as it starts past int64."""
    out = list(vectors)
    active = sorted((k for k, n in enumerate(powers) if n), key=powers.__getitem__)
    if not active:
        return out
    ids, index, src, w, starts, L, growth = steps
    vs = [vectors[k] for k in active]
    D, sizes = math.lcm(*{v._den for v in vs}), list(map(len, vs))
    at = np.fromiter(map(index.__getitem__, chain.from_iterable(v._ids for v in vs)),
                     dtype=np.intp, count=sum(sizes))
    at += np.repeat(np.arange(len(vs)) * len(ids), sizes)
    nums = [n * scale for v in vs for scale in (D // v._den,) for n in v._nums]
    bound = max(map(abs, nums), default=0)
    V = np.zeros((len(active), len(ids)), dtype=np.int64 if bound <= _INT64_MAX else object)
    V.flat[at] = nums
    levels, step, done = [powers[k] for k in active], 0, 0
    while done < len(active):
        if bound * growth > _INT64_MAX and (bound := int(np.abs(V).max(initial=0))):
            common = math.gcd(D, int(np.gcd.reduce(V, axis=None)))
            D, V, bound = D // common, V // common, bound // common
            if bound * growth > _INT64_MAX and V.dtype != object:
                V, w = V.astype(object), w.astype(object)
        routed = V[:, src]
        routed *= w
        V = np.add.reduceat(routed, starts, axis=1)
        del routed  # before the results are built: it is the largest array
        D, bound, step = D * L, bound * growth, step + 1
        last = bisect.bisect_right(levels, step)
        if last > done:
            rows, cols = np.nonzero(V[:last - done])
            answer = _answer(ids, rows, cols, V[rows, cols], D, last - done)
            for k, v in zip(active[done:last], answer):
                out[k] = v
            V, done = V[last - done:], last
    return out


def _answer(ids, rows, cols, nums, D: int, count: int) -> list:
    """`count` exact SparseVectors of the nonzero entries nums / D of an int
    table at `rows` (ascending) and `cols` (in `ids`, ascending in a row):
    row r's numerators and D divided by the gcd of D and the row, found by
    one np.gcd.reduceat, its ids and numerators sliced from one tolist."""
    size = np.bincount(rows, minlength=count)
    bounds = np.concatenate(([0], np.cumsum(size))).tolist()
    g = np.ones(count, dtype=nums.dtype)
    g[size > 0] = np.gcd.reduceat(nums, np.flatnonzero(np.diff(rows, prepend=-1)))
    g = [math.gcd(x, D) for x in g.tolist()]
    keys = tuple(ids[cols].tolist())
    nums = (nums // np.repeat(np.array(g, dtype=nums.dtype), size)).tolist()
    # an empty row, the zero vector, is over 1
    return [SparseVector._of(keys[a:b], nums[a:b], D // x if b > a else 1)
            for a, b, x in zip(bounds, bounds[1:], g)]


def _int_steps(edges: list, rows) -> tuple:
    """The array kernels' steps: `edges` as an object array and by position;
    rows(i), the feeders {j: w_ij} of each (or weight 0 from the first edge,
    so no reduceat segment is empty), by receiver from src at weights w / L,
    int64 unless past it, each receiver's first at starts; and growth, the
    largest sum of w into one receiver."""
    index = {j: k for k, j in enumerate(edges)}
    rows = [rows(i) or {edges[0]: 0} for i in edges]
    pairs = [x.as_integer_ratio() for row in rows for x in row.values()]
    L = math.lcm(*{d for _, d in pairs})
    nums = [n * (L // d) for n, d in pairs]
    w = np.array(nums, dtype=np.int64 if max(nums) <= _INT64_MAX else object)
    starts = np.cumsum([0, *map(len, rows[:-1])])
    growth = max(np.add.reduceat(w.astype(object), starts).tolist())
    return (np.fromiter(edges, dtype=object, count=len(edges)), index,
            np.array([index[j] for row in rows for j in row], dtype=np.intp), w, starts, L, growth)


def _kept_steps(g) -> tuple:
    """_int_steps of the finite graph g over its feeders, kept read-only in
    its store from its first flow."""
    if "steps" not in g._kept:
        g._kept["steps"] = _frozen(*_int_steps(g.edge_ids, g.feeders))
    return g._kept["steps"]


def _frozen(*parts) -> tuple:
    """`parts`, each ndarray among them made read-only, as a graph's store keeps them."""
    for a in parts:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return parts


def _spans(first, count) -> tuple:
    """first[i] .. first[i] + count[i] - 1 for every i, in one array, and
    where each i's run starts in it."""
    heads = np.cumsum(count) - count
    at = np.repeat(first - heads, count)
    return at + np.arange(len(at)), heads


def _array_flow(steps: tuple, f: NetworkState, T: int, lag: list, P: int,
                caps: tuple) -> NetworkState | None:
    """_flow's histories and read for f, its values read and the answer's
    built as in _route_exact, on the edges of `steps`, one array pass a
    stage; T is t and lag each 1/c_j in ticks, P = lcm(lag).  A segment of
    H_j from tick s is the key j W + s, so keys sort by edge, then start,
    with a numerator in N over one Q.  A stage's receivers are
    _histories': np.searchsorted finds each feeder's window, and each
    segment's change times (c_k / c_j) w_jk = A / Lq, summed per receiver
    by a sort and a cumsum, is the inflow over Q Lq.  N is int64 while
    max|N| times grow a stage stays within 2^63 - 1, as in _route_exact:
    where a stage could pass it, N and Q shed their gcd.  If that is not
    enough at the first stage, f's values start past int64 (a float's
    53-bit numerators do), and N goes on in Python ints; at a later stage
    N has grown past it, and the answer is None, because the per-edge
    histories then cost less than Python ints on the arrays.  Past caps[0]
    breakpoints the histories are refused, as in _histories, and an answer
    of more than caps[1] entries before any is built."""
    ids, index, src, w, starts, L, _ = steps
    n, pieces = len(ids), len(f.values)
    lag = np.array(lag, dtype=np.int64)
    W = T + int(lag.max())
    recv = np.repeat(np.arange(n), np.diff(starts, append=len(src)))
    # (c_k / c_j) w_jk = lag_j w / (lag_k L) = w lag_j (P / lag_k) / (L P)
    a, b = lag[recv], (P // lag)[src]
    if w.dtype == object or int(a.max()) * int(b.max()) * int(w.max()) > _INT64_MAX:
        a, b = a.astype(object), b.astype(object)
    A = w * a * b
    common = math.gcd(L * P, int(np.gcd.reduce(A)))
    A, Lq = A // common, L * P // common
    grow = max(2 * max(np.add.reduceat(A.astype(object), starts).tolist()), Lq)

    # edge j drains f_j(c_j s): piece m from tick b_m lag_j, equal neighbours merged
    Q = math.lcm(*{v._den for v in f.values})
    nums = [x * scale for v in f.values for scale in (Q // v._den,) for x in v._nums]
    bound = max(map(abs, nums), default=0)
    V = np.zeros(n * pieces, dtype=object if max(bound, grow) > _INT64_MAX or A.dtype == object
                 else np.int64)
    V[[index[j] * pieces + m for m, v in enumerate(f.values) for j in v.support()]] = nums
    V, bps = V.reshape(n, pieces), f.breakpoints[:-1]
    new = np.ones((n, pieces), dtype=bool)
    new[:, 1:] = V[:, 1:] != V[:, :-1]
    ticks = lag[:, None] // [b.denominator for b in bps] * [b.numerator for b in bps]
    K, N, size = (np.arange(n)[:, None] * W + ticks)[new], V[new], new.sum(axis=1)

    read = np.zeros(n, dtype=np.int64)
    step, u = int(lag.min()), 0
    while u < T:
        u = min(u + step, T)
        update = read + lag < min(u + step, T) if u < T else np.ones(n, dtype=bool)
        if bound * grow > _INT64_MAX and (bound := int(np.abs(N).max(initial=0))):
            common = math.gcd(Q, int(np.gcd.reduce(N)))
            Q, N, bound = Q // common, N // common, bound // common
            if bound * grow > _INT64_MAX and N.dtype != object:
                if read.any():  # grown past int64 over the stages
                    return None
                N, A = N.astype(object), A.astype(object)
        # feeder k's window [a, u), a its receiver r's read: each segment's
        # change, the first's from 0, as a term at r W + its start (or a)
        e = np.flatnonzero(update[recv])
        k, r, a = src[e], recv[e], read[recv[e]]
        first = np.searchsorted(K, k * W + a, "right") - 1
        count = np.searchsorted(K, k * W + u) - first
        seg, heads = _spans(first, count)
        change = np.diff(N[seg], prepend=0)
        change[heads] = N[seg[heads]]
        key = np.maximum(K[seg], np.repeat(k * W + a, count)) + np.repeat((r - k) * W, count)
        order = np.argsort(key, kind="stable")
        key, inflow = key[order], np.cumsum((np.repeat(A[e], count) * change)[order])
        # the sum at each key's last term, less the sum before its receiver's
        # first: int64 sums wrap, so a running total past 2^63 leaves it exact
        at = np.append(key[1:] != key[:-1], True)
        key, inflow = key[at], inflow[at]
        r = key // W
        firsts = np.flatnonzero(np.append(True, r[1:] != r[:-1]))
        inflow -= np.repeat(np.append(0, inflow)[firsts], np.diff(firsts, append=len(r)))
        if Lq != 1:
            N, Q = N * Lq, Q * Lq
        # an inflow equal to its edge's last value adds no segment
        prev = np.append(0, inflow[:-1])
        prev[firsts] = N[np.searchsorted(K, (r[firsts] + 1) * W) - 1]
        kept = inflow != prev
        key = key[kept] + lag[r[kept]]
        at = np.searchsorted(K, key)
        K, N = np.insert(K, at, key), np.insert(N, at, inflow[kept])
        size += np.bincount(r[kept], minlength=n)
        bound, read[update] = bound * grow, u
        if size.sum() > caps[0]:
            raise WidthOverflowError(f"characteristic histories exceed {caps[0]} "
                                     "breakpoints", edges=ids[np.argsort(-size, kind="stable")[:4]])
        # every window to come starts at or after the least read
        live = np.append(K[1:] > K[:-1] // W * W + read.min(), True)
        K, N = K[live], N[live]

    # edge j at x = (s - T) / lag_j, keyed by x's numerator over P; a
    # nonzero segment fills the pieces from its key to its end's
    first = np.searchsorted(K, np.arange(n) * W + T, "right") - 1
    count = np.searchsorted(K, np.arange(n) * W + T + lag) - first
    seg, heads = _spans(first, count)
    j = np.repeat(np.arange(n), count)
    x = (np.maximum(K[seg] - j * W, T) - T) * (P // lag)[j]
    end = np.append(x[1:], P)
    end[heads + count - 1] = P
    xs = np.sort(x, kind="stable")  # np.unique's sort maps more of numpy's code
    xs = xs[np.append(True, xs[1:] != xs[:-1])]
    nz = N[seg] != 0
    lo = np.searchsorted(xs, x[nz])
    span = np.searchsorted(xs, end[nz]) - lo
    if span.sum() > caps[1]:
        wide = np.bincount(j[nz], weights=span, minlength=n)
        raise WidthOverflowError(f"the answer's {int(span.sum())} entries exceed {caps[1]}",
                                 edges=ids[np.argsort(-wide, kind="stable")[:4]])
    rows = _spans(lo, span)[0]
    order = np.argsort(rows, kind="stable")
    pieces = _answer(ids, rows[order], np.repeat(j[nz], span)[order],
                     np.repeat(N[seg][nz], span)[order], Q, len(xs))
    # each breakpoint x / P from its coprime pair; canonical as built (see
    # NetworkState._canonical)
    g = np.gcd(xs, P)
    bps = (*map(coprime_fraction, (xs // g).tolist(), (P // g).tolist()), Fraction(1))
    return NetworkState._canonical(bps, tuple(pieces))
