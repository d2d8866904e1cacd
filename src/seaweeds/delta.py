"""The permutation cycle of a single-path meander and its difference multiset.

A Frobenius type-A seaweed has a single-path meander.  A self-loop on
the missing side of each endpoint makes the top and bottom maps t and b
total involutions, and iterating t(b(.)) from the path's lower endpoint
visits every vertex once.  The cyclic differences of that tour form a
multiset; when they are all equal the common value is the delta of the
seaweed, and for two-part-over-two-part shapes a|b/c|d it is congruent
to a+d mod n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .meander import build_meander, components
from .specs import SeaweedSpec


class NotSinglePathError(ValueError):
    pass


class TourError(ArithmeticError):
    """The t∘b tour of a single-path meander is not one n-cycle (construction bug)."""


@dataclass(frozen=True)
class DeltaReport:
    sigma: tuple[int, ...]
    differences: tuple[int, ...]
    distinct_values: tuple[tuple[int, int], ...]  # (value, cardinality)
    canonical_delta: int | None


def delta_of_spec(spec: SeaweedSpec) -> DeltaReport:
    """Iterate t(b(.)) on the meander of a type-A spec and record the tour.

    On a single path only the endpoints miss a side (an isolated vertex,
    the n=1 meander, misses both), so filling every missing partner with
    the vertex itself adds exactly the endpoint self-loops.  Meanders
    that are not a single path are rejected.  The differences are taken
    cyclically (n of them, wrap included), so the multiset is invariant
    under rotation of the starting point.
    """
    meander = build_meander(spec)
    if meander.tail:
        raise NotSinglePathError("loop augmentation needs a tailless (type A) meander")
    summary, comps = components(meander)
    if summary.cycles or summary.paths != 1:
        raise NotSinglePathError(
            f"meander is not a single path ({summary.total} components)"
        )
    n = meander.n_vertices
    top = [w or v for v, w in enumerate(meander.top)]
    bottom = [w or v for v, w in enumerate(meander.bottom)]

    start = comps[0].vertices[0]  # the path's lower endpoint
    sigma = [start]
    v = start
    for _ in range(n - 1):
        v = top[bottom[v]]
        sigma.append(v)
    if top[bottom[v]] != start or len(set(sigma)) != n:
        raise TourError(f"t∘b from {start} does not close into one {n}-cycle")

    diffs = tuple((sigma[(k + 1) % n] - sigma[k]) % n for k in range(n))
    counts = Counter(diffs)
    distinct = tuple(sorted(counts.items(), key=lambda item: (item[1], item[0])))
    canonical = diffs[0] if len(counts) == 1 else None
    return DeltaReport(tuple(sigma), diffs, distinct, canonical)
