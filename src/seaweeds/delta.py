"""The permutation cycle of a single-path meander and its difference multiset.

A Frobenius type-A seaweed has a single-path meander.  A self-loop on
the missing side of each endpoint makes the top and bottom maps t and b
total involutions, and iterating t(b(.)) from the path's lower endpoint
visits every vertex once: it steps along the path two vertices at a
time and turns back at the far end, so the tour is read off the path
order by slices and then checked against t and b.  The cyclic
differences of that tour form a multiset; when they are all equal the
common value is the delta of the seaweed, and for two-part-over-two-part
shapes a|b/c|d it is congruent to a+d mod n.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import mod, sub
from typing import NamedTuple

from .meander import build_meander, components
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

    The spec is validated first (InvalidSpecError); a spec of another
    family, GL included, then raises NotSinglePathError, and so does a
    meander that is not a single path.  On a single path only the
    endpoints miss a side (an isolated vertex, the n=1 meander, misses
    both), so filling each endpoint's missing partner with the vertex
    itself adds exactly the endpoint self-loops.

    Let p_0 .. p_{n-1} be the path walked from p_0.  If p_0 misses its
    top arc, t∘b runs p_0, p_2, p_4, ... out and the odd-indexed
    vertices back; if it misses its bottom arc, t∘b runs p_0, then
    p_1, p_3, ... out and the even-indexed vertices back down to p_2.
    The sliced tour is checked against t and b (each vertex maps to the
    next, the last to the first, no vertex twice); a mismatch raises
    ``TourError``.  The differences are taken cyclically (n of them,
    wrap included), so the multiset is invariant under rotation of the
    starting point.
    """
    meander = build_meander(spec)
    if spec.algebra is not AlgebraType.A:
        raise NotSinglePathError("the delta construction needs a type-A seaweed")
    summary, comps = components(meander)
    if summary.cycles or summary.paths != 1:
        raise NotSinglePathError(
            f"meander is not a single path ({summary.total} components)"
        )
    n = meander.n_vertices
    path = comps[0].vertices
    start = path[0]
    top, bottom = list(meander.top), list(meander.bottom)
    for v in (start, path[-1]):
        top[v] = top[v] or v
        bottom[v] = bottom[v] or v
    evens, odds = path[::2], path[1::2]
    if top[start] == start:
        sigma = evens + odds[::-1]
    else:
        sigma = evens[:1] + odds + evens[:0:-1]
    rotated = sigma[1:] + sigma[:1]
    if tuple(map(top.__getitem__, map(bottom.__getitem__, sigma))) != rotated or len(set(sigma)) != n:
        raise TourError(f"t∘b from {start} does not close into one {n}-cycle")

    diffs = tuple(map(mod, map(sub, rotated, sigma), repeat(n)))
    counts = Counter(diffs)
    distinct = tuple(sorted(counts.items(), key=lambda item: (item[1], item[0])))
    canonical = diffs[0] if len(counts) == 1 else None
    return DeltaReport(sigma, diffs, distinct, canonical)
