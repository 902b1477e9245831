"""Seeded inputs for the benchmark workloads: graphs, exact states, speeds
and request times.

Everything here is a pure function of a `random.Random`, so one seed gives
byte-identical files.  Graphs are sink-free by construction: every vertex
gets the same out-degree, and each column splits a fixed total `WEIGHT_DEN`
into positive parts.  Fixing the out-degree and the weight denominator
keeps the cost of exact arithmetic (denominator growth under repeated
routing) the same from seed to seed; only positions and values change.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from netflow import (
    MetricGraph,
    NetworkState,
    SparseVector,
    VelocityProfile,
    write_graph_text,
    write_state_text,
)

WEIGHT_DEN = 8


def _composition(rng: random.Random, total: int, parts: int) -> list:
    """A random split of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def regular_graph(rng: random.Random, n_vertices: int, out_degree: int,
                  name: str) -> MetricGraph:
    """Simple digraph where every vertex has `out_degree` distinct heads;
    column j splits WEIGHT_DEN/WEIGHT_DEN over the edges leaving head(j)."""
    edges = []
    for v in range(n_vertices):
        heads = rng.sample([u for u in range(n_vertices) if u != v], out_degree)
        for h in sorted(heads):
            edges.append((len(edges) + 1, v, h))
    by_tail: dict = {}
    for j, tail, _ in edges:
        by_tail.setdefault(tail, []).append(j)
    weights = {}
    for j, _, head in edges:
        receivers = by_tail[head]
        for i, a in zip(receivers, _composition(rng, WEIGHT_DEN, len(receivers))):
            weights[(i, j)] = Fraction(a, WEIGHT_DEN)
    return MetricGraph.finite(edges, weights, name=name)


def exact_state(rng: random.Random, edge_ids, pieces: int, support: int, *,
                nonneg: bool = False) -> NetworkState:
    """`pieces` equal pieces, each carrying `support` random edges with
    small exact values (never zero, so the canonical form keeps every
    piece).  The grid is fixed so that only supports and values change
    with the seed, not the breakpoint arithmetic."""
    bps = [Fraction(k, pieces) for k in range(pieces + 1)]
    ids = list(edge_ids)
    values = []
    for _ in range(pieces):
        vec = {}
        for e in rng.sample(ids, min(support, len(ids))):
            num = rng.randint(1, 4) if nonneg else rng.choice((-3, -2, -1, 1, 2, 3))
            vec[e] = Fraction(num, rng.randint(1, 4))
        values.append(SparseVector(vec))
    return NetworkState(bps, values)


def speeds(rng: random.Random, edge_ids, pool) -> VelocityProfile:
    """Each speed of `pool` on an equal share of the edges, shuffled, so
    the subdivided edge count does not depend on the seed."""
    ids = list(edge_ids)
    values = [pool[k % len(pool)] for k in range(len(ids))]
    rng.shuffle(values)
    return VelocityProfile(dict(zip(ids, values)))


def rational_time(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """A rational in (lo, hi] on the 1/den lattice."""
    a = int(lo * den) + 1
    b = int(hi * den)
    return Fraction(rng.randint(a, b), den)


def write_graph(path: Path, g: MetricGraph, vel: VelocityProfile | None = None) -> Path:
    path.write_text(write_graph_text(g, vel), encoding="utf-8")
    return path


def write_state(path: Path, state: NetworkState, name: str) -> Path:
    path.write_text(write_state_text(state, name), encoding="utf-8")
    return path
