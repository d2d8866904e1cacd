"""The permutation cycle of a single-path meander and its difference multiset.

A Frobenius type-A seaweed has a single-path meander.  A self-loop on
the missing side of each endpoint makes the top and bottom maps t and b
total involutions, and iterating t(b(.)) from the path's lower endpoint
visits every vertex once; the tour is that iteration, read off the
compositions with no meander built or walked.  The cyclic differences
of the tour form a multiset; when they are all equal the common value
is the delta of the seaweed, and for two-part-over-two-part shapes
a|b/c|d it is congruent to a+d mod n.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .formulas import index_combinatorial
from .meander import block_partners
from .specs import AlgebraType, SeaweedSpec


class NotSinglePathError(ValueError):
    pass


class TourError(ArithmeticError):
    """The t∘b tour of a single-path meander is not one n-cycle (construction bug)."""


class DeltaReport(NamedTuple):
    sigma: tuple[int, ...]
    differences: tuple[int, ...]
    distinct_values: tuple[tuple[int, int], ...]  # (value, cardinality)
    canonical_delta: int | None


def delta_of_spec(spec: SeaweedSpec) -> DeltaReport:
    """The t(b(.)) tour on the meander of a type-A spec, from the path's lower endpoint.

    ``index_combinatorial`` validates the spec (InvalidSpecError); any
    other family, GL included, then raises NotSinglePathError, and so
    does a meander that the moves count as not one path.  On one path
    only the endpoints miss a side: a vertex misses its top (bottom) arc
    exactly when it is the middle of an odd top (bottom) block, and at
    n = 1 vertex 1 misses both.  A self-loop fills each missing side.

    t∘b is stepped once from the lower endpoint, each difference
    (w - v) mod n taken in the same step, for at most n steps; unless
    it first returns to the start after exactly n vertices (which are
    then distinct), ``TourError`` is raised.  The n differences are
    cyclic, so their multiset does not depend on the starting point.
    """
    _, cycles, paths, _ = index_combinatorial(spec)
    if spec.algebra is not AlgebraType.A:
        raise NotSinglePathError("the delta construction needs a type-A seaweed")
    if cycles or paths != 1:
        raise NotSinglePathError(f"meander is not a single path ({cycles + paths} components)")
    n = spec.n
    top, bottom = list(block_partners(spec.top, n)), list(block_partners(spec.bottom, n))
    ends = []
    for partners, parts in ((top, spec.top), (bottom, spec.bottom)):
        v = 1
        for part in parts:
            if part % 2:
                middle = v + part // 2
                partners[middle] = middle
                ends.append(middle)
            v += part
    start = min(ends)

    sigma, diffs = [start], []
    add_vertex, add_diff = sigma.append, diffs.append
    v = start
    for _ in range(n):
        w = top[bottom[v]]
        add_diff((w - v) % n)
        if w == start:
            break
        add_vertex(w)
        v = w
    if w != start or len(sigma) != n:
        raise TourError(f"t∘b from {start} does not close into one {n}-cycle")

    counts = Counter(diffs)
    distinct = tuple(sorted(counts.items(), key=lambda item: (item[1], item[0])))
    canonical = diffs[0] if len(counts) == 1 else None
    return DeltaReport(tuple(sigma), tuple(diffs), distinct, canonical)
