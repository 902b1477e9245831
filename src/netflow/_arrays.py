"""The exact flows' int64 array kernels, chosen by semigroup._exact_flow:
_route_exact at one speed, over the steps _int_steps builds from a flow's
feeders, and _array_flow at several.  Both run in int64 under a running
bound and in Python ints past it, and _answer builds both answers.  An
exact answer is its integer form, a _Rows table, until a value is read:
row_cells places it on the CSV columns of fileio.emit_plotdata,
_unit_answer merges the closed form's equal neighbours from it, and its
dicts of Fractions are built on the first read of any entry.  The
kernels live apart from semigroup.py because compiling that module at
import sets the peak memory of a short run, which grows in 1 MB steps
with its size.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

from .errors import WidthOverflowError
from .exact import coprime_fraction
from .graph import SparseVector
from .states import NetworkState

_INT64_MAX = 2**63 - 1


def _route_exact(steps: tuple, vectors: list, powers: list, number=Fraction) -> list:
    """B^n v for each v of `vectors`, of exact entries (int, Fraction or
    finite float, read by as_integer_ratio) on the edges of `steps`, n its
    entry of `powers` >= 0, as `number`s; B^0 v is v itself if number is
    Fraction.  The vectors are the rows of one numerator array V over one
    D, a step one gather-multiply and one reduceat over _int_steps.  V is
    int64 while a running bound, max|V| times growth a step, stays within
    2^63 - 1; where a step could pass it, D and V shed their gcd, max|V|
    is read afresh, and if that is still too large V goes on in Python
    ints, as it starts past int64."""
    out = list(vectors) if number is Fraction else [SparseVector(
        {j: number(*x.as_integer_ratio()) for j, x in v.items()}) for v in vectors]
    active = sorted((k for k, n in enumerate(powers) if n), key=powers.__getitem__)
    if not active:
        return out
    ids, index, src, w, starts, L, growth = steps
    pairs = [x.as_integer_ratio() for k in active for x in vectors[k].values()]
    D = math.lcm(*{d for _, d in pairs})
    at = [r * len(ids) + index[j] for r, k in enumerate(active) for j in vectors[k].support()]
    nums = [n * (D // d) for n, d in pairs]
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
            answer = _answer(ids, rows, cols, V[rows, cols], D, last - done, number)
            for k, v in zip(active[done:last], answer):
                out[k] = v
            V, done = V[last - done:], last
    return out


def _answer(ids, rows, cols, nums, D: int, count: int, number) -> list:
    """`count` SparseVectors of the nonzero entries nums / D of an int table
    at `rows` (ascending) and `cols` (in `ids`, ascending in a row).

    Read with Fraction, the answer is its integer form, one _Rows shared
    by its vectors, each of which holds only `_row` = (that form, its
    row): no value and no dict is built until some vector's entries are
    read, and then _Rows.dicts builds every row's at once.  The table
    lives as long as any of its vectors, so a state that keeps one vector
    of a wide answer keeps the whole table.  Read with another `number`,
    the dicts are built here, number(x, D) once for each distinct
    numerator x, and a float that underflows to 0 is dropped, so a
    rounded answer keeps no row: its dict and row could differ."""
    distinct, inverse = np.unique(nums, return_inverse=True)
    if number is not Fraction:
        built = np.array([number(x, D) for x in distinct.tolist()], dtype=object)
        return [SparseVector(d) for d in _split(ids, rows, cols, inverse, built, count)]
    small = np.int32 if max(count * len(ids), len(distinct)) < 2**31 else np.intp
    table = _Rows(ids, (rows * len(ids) + cols).astype(small), inverse.astype(small),
                  distinct, D, count)
    out = []
    for k in range(count):
        v = object.__new__(SparseVector)
        v._row = (table, k)
        out.append(v)
    return out


def _split(ids, rows, cols, which, built, count: int) -> list:
    """The `count` dicts of a table's rows: the entries at `rows`
    (ascending) and `cols` (in `ids`, ascending in a row), each value
    built[which] of its distinct numerator."""
    keys, values = ids[cols].tolist(), built[which].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=count)).tolist()
    return [dict(zip(keys[a:b], values[a:b])) for a, b in zip([0, *ends], ends)]


class _Rows:
    """The integer form of one exact _answer: the kernel's `ids`, its
    columns; per entry, ascending, its key row * len(ids) + column and its
    numerator's index in `distinct`, int32 where they fit; the distinct
    numerators (int64, or Python ints past it) over D; and its `count`
    rows.  Its vectors' values are read from it: row_cells writes them,
    _unit_answer compares them, and dicts builds them, once, on the first
    read of any vector's entries (SparseVector.__getattr__)."""

    __slots__ = ("ids", "keys", "which", "distinct", "D", "count", "_dicts")

    def __init__(self, ids, keys, which, distinct, D: int, count: int):
        self.ids, self.keys, self.which, self.distinct, self.D = ids, keys, which, distinct, D
        self.count, self._dicts = count, None

    def dicts(self) -> list:
        """Every row's dict of Fractions, built on the first call and kept:
        each distinct numerator x read once, and shared by every row that
        holds it.  Int64 numerators over D <= 2^63 - 1 take one np.gcd with
        D for all of them, and each value is the coprime pair (x // g,
        D // g) as Python ints from tolist, D // g > 0, built by
        coprime_fraction without a gcd or type check of its own; others
        take Fraction(x, D).  Keys come in column order, as the kernel
        holds them.  Nothing here reads a missing attribute: an
        AttributeError would pass for a missing `_entries`."""
        if self._dicts is None:
            distinct, D = self.distinct, self.D
            if distinct.dtype != object and D <= _INT64_MAX:
                g = np.gcd(distinct, D)
                built = list(map(coprime_fraction, (distinct // g).tolist(), (D // g).tolist()))
            else:
                built = [Fraction(x, D) for x in distinct.tolist()]
            rows, cols = np.divmod(self.keys, len(self.ids))
            self._dicts = _split(self.ids, rows, cols, self.which,
                                 np.array(built, dtype=object), self.count)
        return self._dicts

    def span(self, k: int) -> tuple:
        """Where row k's entries lie in keys and which: lo, hi."""
        width = len(self.ids)
        lo, hi = np.searchsorted(self.keys, [k * width, (k + 1) * width]).tolist()
        return lo, hi

    def equal_next(self) -> list:
        """For each row k but the last, whether row k + 1 holds the same
        entries: only rows of one entry count are compared, all of them at
        once, by their columns and their distinct numerators' indices."""
        width = len(self.ids)
        bounds = np.searchsorted(self.keys, np.arange(self.count + 1) * width)
        lo, size = bounds[:-1], np.diff(bounds)
        k = np.flatnonzero(size[1:] == size[:-1])
        a, b = _spans(lo[k], size[k])[0], _spans(lo[k + 1], size[k])[0]
        differ = (self.keys[b] - self.keys[a] != width) | (self.which[b] != self.which[a])
        out = np.zeros(max(self.count - 1, 0), dtype=bool)
        out[k] = np.bincount(np.repeat(np.arange(len(k)), size[k])[differ], minlength=len(k)) == 0
        return out.tolist()


def _unit_answer(bps: list, values: list, powers: list) -> NetworkState:
    """_unit_flow's exact answer, the pieces `values` = B^n v, n their entry
    of `powers` (ascending), on `bps`, with equal neighbours merged as the
    checking constructor merges them, into NetworkState._canonical, and no
    kernel table's dicts built.  Two pieces at power 0 are f's own
    neighbours, which differ.  Two rows of one table are compared by
    _Rows.equal_next, one pass a table; any other pair (across the
    junction of two tables, or a row against a piece of f at power 0) by
    _same."""
    nexts: dict = {}
    out_bps, out = list(bps[:2]), [values[0]]
    for k in range(1, len(values)):
        if powers[k] and _same(values[k - 1], values[k], nexts):
            out_bps[-1] = bps[k + 1]
        else:
            out.append(values[k])
            out_bps.append(bps[k + 1])
    return NetworkState._canonical(tuple(out_bps), tuple(out))


def _same(u: SparseVector, v: SparseVector, nexts: dict) -> bool:
    """u == v, read from their kernel rows where they have them: the next
    row of one table from its _Rows.equal_next (kept in `nexts`), else
    the entry counts, then the keys, then the values, each numerator
    times the other's denominator."""
    ru, rv = getattr(u, "_row", None), getattr(v, "_row", None)
    if ru is not None and rv is not None and ru[0] is rv[0] and rv[1] == ru[1] + 1:
        if ru[0] not in nexts:
            nexts[ru[0]] = ru[0].equal_next()
        return nexts[ru[0]][ru[1]]
    su, sv = _span(u, ru), _span(v, rv)
    if su[1] - su[0] != sv[1] - sv[0]:
        return False
    (a, A), (b, B) = _over(u, ru, su), _over(v, rv, sv)
    return a.keys() == b.keys() and all(x * B == b[j] * A for j, x in a.items())


def _span(v: SparseVector, row) -> tuple:
    """Where v's entries lie in its kernel row's table, or (0, len(v))
    for a vector with no row (`row` None)."""
    return (0, len(v)) if row is None else row[0].span(row[1])


def _over(v: SparseVector, row, span: tuple) -> tuple:
    """(edge id -> numerator, their denominator) of v's entries at `span`
    of its kernel row's table; a vector with no row is its own dict over 1."""
    if row is None:
        return v._entries, 1
    (table, k), (lo, hi) = row, span
    cols = table.keys[lo:hi] - k * len(table.ids)
    return dict(zip(table.ids[cols].tolist(), table.distinct[table.which[lo:hi]].tolist())), table.D


def row_cells(vectors: dict, columns: dict) -> list:
    """The cells of each vector of `vectors` (key -> a vector that kept
    its kernel row, see _answer) on `columns` (edge id -> its column,
    0 .. len - 1), as integers, one (keys, cells, values) a kernel table:
    cells[i, c] is 0 where the i-th key's vector has no entry on column
    c's edge, else k for the value values[k - 1], the float x / D of a
    distinct numerator x its rows use (int true division rounds it as
    the reduced Fraction's numerator / denominator).  Ids may come in any
    order or be absent from the kernel.  One table's rows are placed at
    once, by one gather of their entries, so the scratch is a few ints
    per entry of the rows written, per kernel column and per cell."""
    groups: dict = {}
    for key, v in vectors.items():
        table, k = v._row
        keys, rows = groups.setdefault(table, ([], []))
        keys.append(key)
        rows.append(k)
    out = []
    for table, (keys, rows) in groups.items():
        width = len(table.ids)
        # kernel column -> its column, or -1
        column = np.array([columns.get(e, -1) for e in table.ids.tolist()], dtype=np.intp)
        first = np.array(rows, dtype=table.keys.dtype) * width
        lo = np.searchsorted(table.keys, first)
        count = np.searchsorted(table.keys, first + width) - lo
        seg = _spans(lo, count)[0]
        row, at = np.repeat(np.arange(len(rows)), count), column[table.keys[seg] % width]
        kept = at >= 0
        row, at, which = row[kept], at[kept], table.which[seg[kept]]
        # the numerators written, each once, numbered from 1 in order
        mark = np.zeros(len(table.distinct), dtype=bool)
        mark[which] = True
        used = np.flatnonzero(mark)
        cells = np.zeros((len(rows), len(columns)), dtype=table.which.dtype)
        cells[row, at] = np.cumsum(mark)[which]
        D = table.D
        out.append((keys, cells, [x / D for x in table.distinct[used].tolist()]))
    return out


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
                caps: tuple, number) -> NetworkState | None:
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
    entries = [(index[j] * pieces + m, *x.as_integer_ratio())
               for m, v in enumerate(f.values) for j, x in v.items()]
    Q = math.lcm(*{d for _, _, d in entries})
    nums = [n * (Q // d) for _, n, d in entries]
    bound = max(map(abs, nums), default=0)
    V = np.zeros(n * pieces, dtype=object if max(bound, grow) > _INT64_MAX or A.dtype == object
                 else np.int64)
    V[[k for k, _, _ in entries]] = nums
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
                     np.repeat(N[seg][nz], span)[order], Q, len(xs), number)
    # each breakpoint x / P from its coprime pair, as _answer builds values
    g = np.gcd(xs, P)
    bps = [*map(coprime_fraction, (xs // g).tolist(), (P // g).tolist()), Fraction(1)]
    if number is Fraction:  # canonical as built: see NetworkState._canonical
        return NetworkState._canonical(tuple(bps), tuple(pieces))
    return NetworkState(bps, pieces)
