"""The permutation cycle of a single-path meander and its difference multiset.

A Frobenius type-A seaweed has a single-path meander.  A self-loop on
the missing side of each endpoint makes the top and bottom maps t and b
total involutions, and iterating t(b(.)) from the path's lower endpoint
visits every vertex once.  The cyclic differences of the tour form a
multiset; when they are all equal the common value is the delta of the
seaweed, and for two-part-over-two-part shapes a|b/c|d it is congruent
to a+d mod n.

With the self-loops, t and b are the block reflections v -> l + h - v,
so t∘b is a piecewise translation: each meet of a top block with the
reflection of a bottom block is one piece, on which every vertex moves
by the same shift and has the same difference (shift mod n).  One merge
of the two compositions lists the pieces, at most (top parts + bottom
parts - 1) of them; the step list, the differences and their
cardinalities are read off them, and only the tour itself is a pass
over the n vertices.  No meander is built or walked.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .formulas import index_combinatorial
from .specs import AlgebraType, SeaweedSpec


_BY_COUNT = itemgetter(1, 0)  # distinct values by (cardinality, value)


class NotSinglePathError(ValueError):
    pass


class TourError(ArithmeticError):
    """The t∘b tour of a single-path meander is not one n-cycle (construction bug)."""


class DeltaReport(NamedTuple):
    sigma: tuple[int, ...]
    differences: tuple[int, ...]
    distinct_values: tuple[tuple[int, int], ...]  # (value, cardinality)
    canonical_delta: int | None


def translation_pieces(top: tuple[int, ...], bottom: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """The pieces (lo, stop, shift) of t∘b on 1..n: t(b(v)) = v + shift for lo <= v < stop.

    b maps bottom block [L, H] onto itself by u = L + H - v, and t maps
    u in top block [l, h] to l + h - u = v + (l + h - L - H).  So the v
    whose image u lies in the meet of [L, H] and [l, h] form one piece
    with shift l + h - L - H.  The meets come from one merge of the two
    compositions (equal sums) in increasing u, so within a bottom block
    the pieces come in decreasing v.  They tile 1..n, and there are at
    most len(top) + len(bottom) - 1 of them.
    """
    pieces = []
    add = pieces.append
    tops, bottoms = iter(top), iter(bottom)
    l = L = u = 1
    h, H = next(tops), next(bottoms)
    while True:
        end = h if h < H else H
        add((L + H - end, L + H + 1 - u, l + h - L - H))
        if end == h:
            part = next(tops, 0)
            if not part:
                return pieces
            l, h = h + 1, h + part
        if end == H:
            L, H = H + 1, H + next(bottoms)
        u = end + 1


def delta_of_spec(spec: SeaweedSpec) -> DeltaReport:
    """The t(b(.)) tour on the meander of a type-A spec, from the path's lower endpoint.

    ``index_combinatorial`` validates the spec (InvalidSpecError); any
    other family, GL included, then raises NotSinglePathError, and so
    does a meander that the moves count as not one path.  On one path
    only the endpoints miss a side: a vertex misses its top (bottom) arc
    exactly when it is the middle of an odd top (bottom) block, and at
    n = 1 vertex 1 misses both.  A self-loop fills each missing side.

    t∘b is then a translation on each of the ``translation_pieces``:
    one range per piece fills the step list, and the cardinality of a
    difference is the summed size of the pieces that share it.  The
    step list is followed once from the lower endpoint for at most n
    steps; unless it first returns to the start after exactly n
    vertices (which are then distinct, so the tour covers every piece
    whole), ``TourError`` is raised.  With one distinct difference it is
    every difference; otherwise one repeated value per piece fills a
    per-vertex difference list, read along the tour.  The n differences
    are cyclic, so their multiset does not depend on the starting point.
    """
    _, cycles, paths, _ = index_combinatorial(spec)
    if spec.algebra is not AlgebraType.A:
        raise NotSinglePathError("the delta construction needs a type-A seaweed")
    if cycles or paths != 1:
        raise NotSinglePathError(
            f"meander is not a single path ({cycles} cycle{'s' * (cycles != 1)}, "
            f"{paths} path{'s' * (paths != 1)})"
        )
    n = spec.n
    start = n  # the lower endpoint: the first odd middle on either side
    for parts in (spec.top, spec.bottom):
        v = 1
        for part in parts:
            if part % 2:
                start = min(start, v + part // 2)
                break
            v += part

    pieces = translation_pieces(spec.top, spec.bottom)
    step, counts = [0] * (n + 1), {}
    for lo, stop, shift in pieces:
        if stop - lo == 1:  # most pieces at small n: one store, no slice
            step[lo] = lo + shift
        else:
            step[lo:stop] = range(lo + shift, stop + shift)
        d = shift % n
        counts[d] = counts.get(d, 0) + stop - lo

    sigma = [start]
    add_vertex = sigma.append
    v = start
    for _ in range(n):
        v = step[v]
        if v == start:
            break
        add_vertex(v)
    if v != start or len(sigma) != n:
        raise TourError(f"t∘b from {start} does not close into one {n}-cycle")

    if len(counts) == 1:  # d is then every piece's difference
        return DeltaReport(tuple(sigma), (d,) * n, ((d, n),), d)
    diff = [0] * (n + 1)
    for lo, stop, shift in pieces:
        diff[lo:stop] = [shift % n] * (stop - lo)
    distinct = tuple(sorted(counts.items(), key=_BY_COUNT))
    # two distinct values, so n >= 2 and the getter returns a tuple
    return DeltaReport(tuple(sigma), itemgetter(*sigma)(diff), distinct, None)
