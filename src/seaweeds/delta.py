"""Self-loop augmentation and the permutation cycle of a single-path meander.

A Frobenius type-A seaweed has a single-path meander.  Appending a
self-loop on the missing side of each endpoint makes the top and bottom
maps t and b total involutions, and iterating t(b(.)) from the
lower-numbered loop endpoint visits every vertex once.  The cyclic
differences of that tour form a multiset; when they are all equal the
common value is the delta of the seaweed, and for two-part-over-two-part
shapes a|b/c|d it is congruent to a+d mod n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .meander import Meander, build_meander, components
from .specs import SeaweedSpec


class NotSinglePathError(ValueError):
    pass


class TourError(ArithmeticError):
    """The t∘b tour of an augmented meander is not one n-cycle (construction bug)."""


@dataclass(frozen=True)
class AugmentedMeander:
    base: Meander
    top_loops: tuple[int, ...]
    bottom_loops: tuple[int, ...]


@dataclass(frozen=True)
class DeltaReport:
    sigma: tuple[int, ...]
    differences: tuple[int, ...]
    distinct_values: tuple[tuple[int, int], ...]  # (value, cardinality)
    canonical_delta: int | None


def augment_with_loops(meander: Meander) -> AugmentedMeander:
    """Attach self-loops at the two path endpoints.

    A loop is a top loop exactly when the endpoint lacks a top edge.  An
    isolated vertex (the n=1 meander) carries both loops.  Meanders that
    are not a single path are rejected.
    """
    if meander.tail:
        raise NotSinglePathError("loop augmentation needs a tailless (type A) meander")
    summary, comps = components(meander)
    if summary.cycles or summary.paths != 1:
        raise NotSinglePathError(
            f"meander is not a single path ({summary.total} components)"
        )
    path = comps[0].vertices
    endpoints = (path[0], path[-1]) if len(path) > 1 else (path[0], path[0])
    top_loops = tuple(sorted({v for v in endpoints if not meander.top[v]}))
    bottom_loops = tuple(sorted({v for v in endpoints if not meander.bottom[v]}))
    return AugmentedMeander(meander, top_loops, bottom_loops)


def permutation_cycle(aug: AugmentedMeander) -> DeltaReport:
    """Iterate t(b(.)) from the smaller loop endpoint and record the tour.

    The differences are taken cyclically (n of them, wrap included), so
    the multiset is invariant under rotation of the starting point.
    """
    n = aug.base.n_vertices
    top, bottom = list(aug.base.top), list(aug.base.bottom)
    loops = aug.top_loops + aug.bottom_loops
    in_range = all(0 < v <= n for v in loops)
    if in_range:
        # A loop fills the missing side of its vertex.
        for partners, ends in ((top, aug.top_loops), (bottom, aug.bottom_loops)):
            for v in ends:
                partners[v] = partners[v] or v
    if not loops or not in_range or 0 in top[1:] or 0 in bottom[1:]:
        raise TourError(f"t and b must be total on the {n} vertices, with a loop to start from")

    start = min(loops)
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


def delta_of_spec(spec: SeaweedSpec) -> DeltaReport:
    """Convenience: meander, augment, iterate, for a type-A spec."""
    return permutation_cycle(augment_with_loops(build_meander(spec)))

