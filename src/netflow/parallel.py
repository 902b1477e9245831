"""Ordered map over the levels of a convergence ladder.

The ladders run serially in level order.  This module stays only because
the benchmark's tracer wraps `map_ordered` by this module path; it goes
when the tracer takes its wrap list from the modules it traces.
"""

from __future__ import annotations

__all__ = ["map_ordered"]


def map_ordered(fn, items):
    return [fn(x) for x in items]
