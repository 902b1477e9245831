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
the eager checks.  Weights are checked by the graph's own rule, and a
refusal names the file, and the line of the weight it names.

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

from ._arrays import row_cells
from .errors import MalformedGraphError, MalformedInputError, NetflowError
from .exact import float_or_inf, parse_rational, parse_real
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
    """Edge/vertex ids: bare runs of ASCII digits become ints, everything
    else, '²' or '１' too, stays a string.  Keep one style per file or
    sorting mixed ids will fail."""
    return int(tok) if tok.isascii() and tok.isdecimal() else tok


def _significant(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _fail(origin: str, lineno: int, msg: str):
    raise MalformedInputError(f"{origin}:{lineno}: {msg}")


def _parsed(parse, tok: str, what: str, origin: str, lineno: int):
    """parse(tok, what), a refusal reported at origin:lineno."""
    try:
        return parse(tok, what)
    except NetflowError as exc:
        _fail(origin, lineno, str(exc))


def _header(text: str, origin: str, kind: str):
    """(name, the directives after it) of a file opening `<kind> <name>`."""
    lines = list(_significant(text))
    if not lines or lines[0][1][0] != kind:
        raise MalformedInputError(f"{origin}: first directive must be `{kind} <name>`")
    lineno, parts = lines[0]
    if len(parts) != 2:
        _fail(origin, lineno, f"`{kind}` takes exactly one name token")
    return parts[1], lines[1:]


def parse_graph_text(text: str, origin: str = "<graph>") -> GraphFile:
    name, lines = _header(text, origin, "graph")
    edges = []
    seen = set()
    weights = {}
    vels = {}
    for lineno, parts in lines:
        kind = parts[0]
        if kind == "edge":
            if len(parts) != 4:
                _fail(origin, lineno, "`edge` needs: edge <id> <tail> <head>")
            eid = _token_id(parts[1])
            if eid in seen:
                _fail(origin, lineno, f"duplicate edge id {parts[1]!r}")
            if why := _column_problem(parts[1]):
                _fail(origin, lineno, f"edge id {parts[1]!r} cannot be written to a CSV: {why}")
            seen.add(eid)
            edges.append((eid, _token_id(parts[2]), _token_id(parts[3])))
        elif kind == "w":
            if len(parts) != 4:
                _fail(origin, lineno, "`w` needs: w <receiver> <source> <p/q>")
            pair = (_token_id(parts[1]), _token_id(parts[2]))
            if pair in weights:
                _fail(origin, lineno, f"duplicate weight for pair {parts[1]} {parts[2]}")
            weights[pair] = (lineno, _parsed(parse_rational, parts[3], "weight", origin, lineno))
        elif kind == "c":
            if len(parts) != 3:
                _fail(origin, lineno, "`c` needs: c <edge-id> <value>")
            eid = _token_id(parts[1])
            if eid in vels:
                _fail(origin, lineno, f"duplicate velocity for edge {parts[1]!r}")
            value = _parsed(parse_real, parts[2], "velocity", origin, lineno)
            if not 0 < float_or_inf(value) < math.inf:
                _fail(origin, lineno, f"velocity must be positive and finite, got {parts[2]}")
            vels[eid] = (lineno, value)
        else:
            _fail(origin, lineno, f"unknown directive {kind!r}")

    if not edges:
        raise MalformedInputError(f"{origin}: graph has no edges")
    for eid, (lineno, _) in vels.items():
        if eid not in seen:
            _fail(origin, lineno, f"velocity names unknown edge {eid!r}")
    # the graph checks each weight by its one rule; a refusal is reported
    # at the line of the weight it names, any other with the file
    try:
        graph = MetricGraph.finite(
            edges, {pair: w for pair, (_, w) in weights.items()},
            name=name, allow_sinks=True,
        )
    except MalformedGraphError as err:
        if err.pair in weights:
            _fail(origin, weights[err.pair][0], str(err))
        raise MalformedInputError(f"{origin}: {err}") from None
    profile = VelocityProfile({eid: c for eid, (_, c) in vels.items()}) if vels else None
    return GraphFile(name, graph, profile)


def parse_graph_file(path) -> GraphFile:
    path = Path(path)
    return parse_graph_text(path.read_text(encoding="utf-8"), origin=str(path))


def parse_state_text(text: str, origin: str = "<state>") -> StateFile:
    name, lines = _header(text, origin, "state")
    bps = None
    values = {}
    for lineno, parts in lines:
        kind = parts[0]
        if kind == "bp":
            if bps is not None:
                _fail(origin, lineno, "second `bp` line; a state has one grid")
            if len(parts) < 3:
                _fail(origin, lineno, "`bp` needs at least two breakpoints")
            bps = [_parsed(parse_rational, tok, "breakpoint", origin, lineno) for tok in parts[1:]]
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
            values[key] = (lineno, _parsed(parse_rational, parts[3], "state value", origin, lineno))
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
        state = NetworkState(bps, [SparseVector(v) for v in vectors])
    except NetflowError as exc:
        raise MalformedInputError(f"{origin}: {exc}") from None
    return StateFile(name, state)


def parse_state_file(path) -> StateFile:
    path = Path(path)
    return parse_state_text(path.read_text(encoding="utf-8"), origin=str(path))


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


def _column_problem(tok: str):
    """Why `edge_<tok>` cannot be read back as a CSV column, or None: a
    comma or a line break splits it, and an `_re`/`_im` ending reads as
    half of a complex pair."""
    if "," in tok or len((tok + ",").splitlines()) > 1:
        return "a comma or a line break splits its CSV column"
    if f"edge_{tok}".endswith(("_re", "_im")):
        return "its CSV column would read as half of an `_re`/`_im` pair"
    return None


def _reads_back(e) -> bool:
    """Whether parse_plotdata reads the column `edge_<e>` back as e, that
    is whether _token_id of its text is e: not for '01', '1' (read as 1),
    -1, 1.5 or True."""
    return _token_id(str(e)) == e


def _real_header(edges) -> str:
    """`s,edge_<id>,...`, checked once as text: a column per id and no
    `_re,`/`_im,` ending, or MalformedInputError names the first id that
    cannot be read back; and each id read back as itself.  Ids that pass
    also make a readable complex header, `edge_<id>_re,edge_<id>_im`
    each."""
    for e in edges:
        # an int >= 0 reads back as itself: one type check
        if (type(e) is not int or e < 0) and not _reads_back(e):
            raise MalformedInputError(f"edge id {e!r} cannot be written to a CSV: "
                                      "its column would read back as another id")
    header = "s," + ",".join([f"edge_{e}" for e in edges])
    probe = header + ","
    if (probe.count(",") != len(edges) + 1 or "_re," in probe or "_im," in probe
            or len(probe.splitlines()) > 1):
        for e in edges:
            if why := _column_problem(str(e)):
                raise MalformedInputError(f"edge id {e!r} cannot be written to a CSV: {why}")
    return header


def _row_cells(distinct: dict, columns: dict, order, is_complex: bool):
    """The CSV row of each vector of `distinct` (id -> vector) on
    `columns` (edge id -> its column), joined by _join, keyed as
    `distinct`; None, in real mode, at the first complex value, also one
    on an edge not written.  Each value object is formatted once, keyed
    by its id: vectors share them (routing memoises them), and `distinct`
    holds each one while this runs."""
    blank = ["0,0" if is_complex else "0"] * len(columns)
    by_id: dict = {}
    cells = {}
    for key, v in distinct.items():
        row = blank.copy()
        for e, x in v.items():
            k = columns.get(e)
            if k is None:
                if not is_complex and isinstance(x, complex):
                    return None
                continue
            cell = by_id.get(id(x))
            if cell is None:
                if is_complex:
                    z = complex(x)
                    cell = "%.17g,%.17g" % (z.real, z.imag)
                elif type(x) is Fraction:  # exact.to_float inlined
                    cell = "%.17g" % (x.numerator / x.denominator)
                elif isinstance(x, complex):
                    return None
                else:
                    cell = "%.17g" % float(x)
                by_id[id(x)] = cell
            row[k] = cell
        cells[key] = _join(row, order)
    return cells


def _join(row: list, order) -> str:
    """One CSV row from its cells by column; with `order`, the column of
    each edge written, so an edge listed twice repeats its column."""
    return ",".join(row if order is None else [row[k] for k in order])


def emit_plotdata(state: SampledState, edges=None) -> str:
    """CSV text for a sampled state: column `s` plus one column per edge
    (or `_re`/`_im` pairs when any sample is complex), 17 significant
    digits.  No edges means just the header line; an edge id whose column
    could not be read back by parse_plotdata as itself (a comma or line
    break, an `_re`/`_im` ending, an id such as '01' or 1.5) raises
    MalformedInputError.

    An array state is formatted from its array, a zero entry written as
    `0` as the rows drop it.  A row state writes each distinct vector
    once, keyed by its id while the state holds it (`sample` hands one
    vector object to every grid point of a piece).  A vector an exact
    array kernel built is written from its kept integer row, which
    _arrays.row_cells places on the columns with one gather per kernel
    call: the row is built from the same numerators as the dict and
    vectors are never mutated, so the cells are the dict's, with x / D
    rounded as the reduced Fraction's numerator / denominator is, each
    distinct one formatted once.  Every other vector goes through
    _row_cells, one pass that starts real and restarts every vector in
    complex mode at the first complex value (complex rows are rare).
    Both join their cells by _join, and the text is one join of its
    parts."""
    if edges is None:
        edges = sorted(state.support(), key=repr)
    else:
        edges = list(edges)
    if not edges:
        return "s\n"
    header = _real_header(edges)
    M = state.grid_size
    if state.array is not None:
        is_complex = state.array.dtype.kind == "c" and bool(state.array.any())
    else:
        columns = {e: k for k, e in enumerate(dict.fromkeys(edges))}
        order = None if len(columns) == len(edges) else [columns[e] for e in edges]
        distinct = {id(v): v for v in state.samples}
        kept = {k: v for k, v in distinct.items() if hasattr(v, "_row")}
        cells = _row_cells({k: v for k, v in distinct.items() if k not in kept},
                           columns, order, False)
        is_complex = cells is None
        if is_complex:
            cells = _row_cells(distinct, columns, order, True)
        for keys, table, values in [] if is_complex else row_cells(kept, columns):
            text = np.array(["0", *["%.17g" % x for x in values]], dtype=object)
            cells.update(zip(keys, [_join(text[r].tolist(), order) for r in table]))
    if is_complex:
        header = "s," + ",".join([f"edge_{e}_re,edge_{e}_im" for e in edges])

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
        return "\n".join([header, *(line % tuple(r) for r in table)]) + "\n"

    parts = [header]
    for m, v in enumerate(state.samples):
        parts += ("\n%.17g," % (m / M), cells[id(v)])
    parts.append("\n")
    return "".join(parts)


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
