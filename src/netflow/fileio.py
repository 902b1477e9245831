"""Line-oriented graph/state files, CSV sample emission, JSON artifacts.

Formats (UTF-8, one directive per line, blank lines and full-line `#`
comments allowed):

  graph file:  `graph <name>`
               `edge <id> <tail> <head>`
               `w <i> <j> <p/q>`          weight routing source j into i
               `c <id> <value>`           optional per-edge speed
  state file:  `state <name>`
               `bp <b0> <b1> ... <bk>`    exact rationals, 0 first, 1 last
               `v <piece-index> <edge-id> <value>`   0-based piece index

Weights, breakpoints and state values are exact rationals (`p/q` or
integer); decimal notation is rejected there.  Speeds are reals: `p/q`
parses exact, decimals parse as floats.

Graphs parse with sinks allowed so that `validate` can report problems
instead of refusing to look at them; direct library construction keeps
the eager checks.

CSV emission is byte-deterministic: fixed column order, `\n` newlines,
17 significant digits (lossless for float64).  Complex-valued samples
split into `_re`/`_im` column pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import MalformedInputError, NetflowError
from .exact import float_or_inf, parse_rational, parse_real, to_float
from .graph import MetricGraph, SparseVector, VelocityProfile
from .states import NetworkState, SampledState

__all__ = [
    "GraphFile",
    "StateFile",
    "parse_graph_file",
    "parse_graph_text",
    "parse_state_file",
    "parse_state_text",
    "write_graph_text",
    "write_state_text",
    "emit_plotdata",
    "parse_plotdata",
    "write_text",
    "write_json",
    "write_runlog",
]


@dataclass(frozen=True)
class GraphFile:
    name: str
    graph: MetricGraph
    velocities: VelocityProfile | None


@dataclass(frozen=True)
class StateFile:
    name: str
    state: NetworkState


def _token_id(tok: str):
    """Edge/vertex ids: bare digit runs become ints, everything else stays
    a string.  Keep one style per file or sorting mixed ids will fail."""
    return int(tok) if tok.isdigit() else tok


def _significant(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _fail(origin: str, lineno: int, msg: str):
    raise MalformedInputError(f"{origin}:{lineno}: {msg}")


def parse_graph_text(text: str, origin: str = "<graph>") -> GraphFile:
    lines = list(_significant(text))
    if not lines or lines[0][1][0] != "graph":
        raise MalformedInputError(f"{origin}: first directive must be `graph <name>`")
    lineno, parts = lines[0]
    if len(parts) != 2:
        _fail(origin, lineno, "`graph` takes exactly one name token")
    name = parts[1]

    edges = []
    seen = set()
    weights = {}
    vels = {}
    for lineno, parts in lines[1:]:
        kind = parts[0]
        if kind == "edge":
            if len(parts) != 4:
                _fail(origin, lineno, "`edge` needs: edge <id> <tail> <head>")
            eid = _token_id(parts[1])
            if eid in seen:
                _fail(origin, lineno, f"duplicate edge id {parts[1]!r}")
            seen.add(eid)
            edges.append((eid, _token_id(parts[2]), _token_id(parts[3])))
        elif kind == "w":
            if len(parts) != 4:
                _fail(origin, lineno, "`w` needs: w <receiver> <source> <p/q>")
            pair = (_token_id(parts[1]), _token_id(parts[2]))
            if pair in weights:
                _fail(origin, lineno, f"duplicate weight for pair {parts[1]} {parts[2]}")
            try:
                weights[pair] = (lineno, parse_rational(parts[3], "weight"))
            except NetflowError as exc:
                _fail(origin, lineno, str(exc))
        elif kind == "c":
            if len(parts) != 3:
                _fail(origin, lineno, "`c` needs: c <edge-id> <value>")
            eid = _token_id(parts[1])
            if eid in vels:
                _fail(origin, lineno, f"duplicate velocity for edge {parts[1]!r}")
            try:
                value = parse_real(parts[2], "velocity")
            except NetflowError as exc:
                _fail(origin, lineno, str(exc))
            if not 0 < float_or_inf(value) < math.inf:
                _fail(origin, lineno, f"velocity must be positive and finite, got {parts[2]}")
            vels[eid] = value
        else:
            _fail(origin, lineno, f"unknown directive {kind!r}")

    if not edges:
        raise MalformedInputError(f"{origin}: graph has no edges")
    by_id = {eid: (tail, head) for eid, tail, head in edges}
    for (i, j), (lineno, w) in weights.items():
        if i not in by_id or j not in by_id:
            _fail(origin, lineno, f"weight names unknown edge {i!r} or {j!r}")
        if by_id[j][1] != by_id[i][0]:
            _fail(origin, lineno,
                  f"weight connects non-adjacent edges: head of {j!r} "
                  f"is not tail of {i!r}")
        if w < 0:
            _fail(origin, lineno, f"weight ({i!r}, {j!r}) is negative")
    for eid in vels:
        if eid not in by_id:
            raise MalformedInputError(f"{origin}: velocity names unknown edge {eid!r}")

    graph = MetricGraph.finite(
        edges, {pair: w for pair, (_, w) in weights.items()},
        name=name, allow_sinks=True,
    )
    profile = VelocityProfile(vels) if vels else None
    return GraphFile(name, graph, profile)


def parse_graph_file(path) -> GraphFile:
    path = Path(path)
    return parse_graph_text(path.read_text(encoding="utf-8"), origin=str(path))


def parse_state_text(text: str, origin: str = "<state>", cls=NetworkState) -> StateFile:
    lines = list(_significant(text))
    if not lines or lines[0][1][0] != "state":
        raise MalformedInputError(f"{origin}: first directive must be `state <name>`")
    lineno, parts = lines[0]
    if len(parts) != 2:
        _fail(origin, lineno, "`state` takes exactly one name token")
    name = parts[1]

    bps = None
    values = {}
    for lineno, parts in lines[1:]:
        kind = parts[0]
        if kind == "bp":
            if bps is not None:
                _fail(origin, lineno, "second `bp` line; a state has one grid")
            if len(parts) < 3:
                _fail(origin, lineno, "`bp` needs at least two breakpoints")
            try:
                bps = [parse_rational(tok, "breakpoint") for tok in parts[1:]]
            except NetflowError as exc:
                _fail(origin, lineno, str(exc))
        elif kind == "v":
            if len(parts) != 4:
                _fail(origin, lineno, "`v` needs: v <piece-index> <edge-id> <value>")
            try:
                idx = int(parts[1])
            except ValueError:
                _fail(origin, lineno, f"piece index must be an integer, got {parts[1]!r}")
            key = (idx, _token_id(parts[2]))
            if key in values:
                _fail(origin, lineno,
                      f"duplicate value for piece {idx} edge {parts[2]!r}")
            try:
                values[key] = (lineno, parse_rational(parts[3], "state value"))
            except NetflowError as exc:
                _fail(origin, lineno, str(exc))
        else:
            _fail(origin, lineno, f"unknown directive {kind!r}")

    if bps is None:
        raise MalformedInputError(f"{origin}: missing `bp` line")
    n_pieces = len(bps) - 1
    vectors = [dict() for _ in range(n_pieces)]
    for (idx, eid), (lineno, val) in values.items():
        if not 0 <= idx < n_pieces:
            _fail(origin, lineno,
                  f"piece index {idx} out of range for {n_pieces} pieces")
        vectors[idx][eid] = val
    try:
        state = cls(bps, [SparseVector(v) for v in vectors])
    except NetflowError as exc:
        raise MalformedInputError(f"{origin}: {exc}") from None
    return StateFile(name, state)


def parse_state_file(path, cls=NetworkState) -> StateFile:
    path = Path(path)
    return parse_state_text(path.read_text(encoding="utf-8"), origin=str(path), cls=cls)


def _number_token(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(Fraction(x))


def _check_token(tok: str, what: str) -> str:
    tok = str(tok)
    if not tok or any(ch.isspace() for ch in tok) or tok.startswith("#"):
        raise MalformedInputError(f"{what} {tok!r} cannot be written as a file token")
    return tok


def write_graph_text(g: MetricGraph, vel: VelocityProfile | None = None,
                     name: str | None = None) -> str:
    name = _check_token(name if name is not None else (g.name or "g"), "graph name")
    out = [f"graph {name}"]
    ids = g.edge_ids
    for j in ids:
        tail, head = g.endpoints(j)
        out.append(f"edge {_check_token(j, 'edge id')} "
                   f"{_check_token(tail, 'vertex')} {_check_token(head, 'vertex')}")
    for j in ids:
        col = g.column(j)
        for i in sorted(col, key=repr):
            out.append(f"w {i} {j} {_number_token(col[i])}")
    if vel is not None:
        for j in ids:
            out.append(f"c {j} {_number_token(vel.velocity(j))}")
    return "\n".join(out) + "\n"


def write_state_text(state: NetworkState, name: str = "state") -> str:
    name = _check_token(name, "state name")
    out = [f"state {name}"]
    out.append("bp " + " ".join(_number_token(b) for b in state.breakpoints))
    for idx, v in enumerate(state.values):
        for e in sorted(v.support(), key=repr):
            out.append(f"v {idx} {_check_token(e, 'edge id')} {_number_token(v.get(e))}")
    return "\n".join(out) + "\n"


def emit_plotdata(state: SampledState, edges=None) -> str:
    """CSV text for a sampled state: column `s` plus one column per edge
    (or `_re`/`_im` pairs when any sample is complex), 17 significant
    digits.  No edges means just the header line.

    An array state is formatted from its array, a zero entry written as
    `0` as the rows drop it.  A row state formats each distinct vector
    once, keyed by its id while the state holds it (`sample` hands one
    vector object to every grid point of a piece), and each value object
    once (by its id, as vectors share them)."""
    if edges is None:
        edges = sorted(state.support(), key=repr)
    else:
        edges = list(edges)
    if not edges:
        return "s\n"
    M = state.grid_size
    if state.array is not None:
        is_complex = state.array.dtype.kind == "c" and bool(state.array.any())
    else:
        distinct = {id(v): v for v in state.samples}
        types = {type(x) for v in distinct.values() for x in v.values()}
        is_complex = any(issubclass(t, complex) for t in types)
    if is_complex:
        header = "s," + ",".join(f"edge_{e}_re,edge_{e}_im" for e in edges)
    else:
        header = "s," + ",".join(f"edge_{e}" for e in edges)
    rows = [header]

    if state.array is not None:
        u = state.on_edges(tuple(edges))
        u = np.where(u == 0, 0, u)
        if is_complex:
            u = np.stack((u.real, u.imag), axis=1).reshape(2 * len(edges), M + 1)
        else:
            u = u.real
        # int/int true division rounds correctly, so m / M == float(Fraction(m, M))
        table = np.vstack((np.arange(M + 1) / M, u)).T.tolist()
        line = ",".join(["%.17g"] * len(table[0]))
        rows += [line % tuple(r) for r in table]
        return "\n".join(rows) + "\n"

    pos = {e: k for k, e in enumerate(edges)}
    blank = ["0,0" if is_complex else "0"] * len(edges)
    # value objects are shared between vectors (routing memoises them), and
    # `distinct` holds each one, so its id keys its cell while this runs
    by_id: dict = {}
    cells = {}
    for key, v in distinct.items():
        row = blank.copy()
        for e, x in v.items():
            k = pos.get(e)
            if k is None:
                continue
            if is_complex:
                z = complex(x)
                row[k] = "%.17g,%.17g" % (z.real, z.imag)
                continue
            cell = by_id.get(id(x))
            if cell is None:
                cell = by_id[id(x)] = "%.17g" % to_float(x)
            row[k] = cell
        # an edge listed twice repeats its column
        cells[key] = ",".join(row) if len(pos) == len(edges) else ",".join(
            row[pos[e]] for e in edges)
    rows += [f"{m / M:.17g},{cells[id(v)]}" for m, v in enumerate(state.samples)]
    return "\n".join(rows) + "\n"


def parse_plotdata(text: str, origin: str = "<csv>") -> SampledState:
    """The array state of an emit_plotdata CSV: complex when any column is
    an `_re`/`_im` pair.  An edge named twice keeps its last column, at
    the place of its first."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedInputError(f"{origin}: empty CSV")
    header = lines[0].split(",")
    if header[0] != "s":
        raise MalformedInputError(f"{origin}: first column must be `s`, got {header[0]!r}")
    cols = []
    k = 1
    while k < len(header):
        label = header[k]
        if not label.startswith("edge_"):
            raise MalformedInputError(f"{origin}: bad column {label!r}")
        if label.endswith("_re"):
            mate = label[:-3] + "_im"
            if k + 1 >= len(header) or header[k + 1] != mate:
                raise MalformedInputError(f"{origin}: column {label!r} lacks its {mate!r}")
            cols.append((_token_id(label[5:-3]), True))
            k += 2
        else:
            cols.append((_token_id(label[5:]), False))
            k += 1
    n_rows = len(lines) - 1
    if n_rows < 2:
        raise MalformedInputError(f"{origin}: need at least 2 sample rows")
    M = n_rows - 1
    want = len(header)
    table = []
    for m, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != want:
            raise MalformedInputError(f"{origin}: row {m} has {len(cells)} cells, wanted {want}")
        s_val = float(cells[0])
        if abs(s_val - m / M) > 1e-12:
            raise MalformedInputError(
                f"{origin}: row {m} sample point {s_val} is not {m}/{M}"
            )
        table.append([float(x) for x in cells[1:]])
    u = np.array(table, dtype=float).reshape(M + 1, want - 1).T
    if any(cx for _, cx in cols):
        parts, u = u, np.zeros((len(cols), M + 1), dtype=complex)
        start = 0
        for k, (_, cx) in enumerate(cols):
            u.real[k] = parts[start]
            if cx:
                u.imag[k] = parts[start + 1]
            start += 2 if cx else 1
    pos = {e: k for k, (e, _) in enumerate(cols)}
    return SampledState.from_array(list(pos), u[list(pos.values())])


def write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_runlog(path, entries) -> None:
    lines = [json.dumps(entry, sort_keys=True) for entry in entries]
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))
