"""Meander graphs of seaweeds: construction, tails, components.

The meander of a seaweed places vertices 1..n on a line and, inside
each block of the top (resp. bottom) composition, joins the outermost
pair, then the next pair inward, and so on.  Every vertex therefore has
at most one top and one bottom edge, so connected components are simple
paths (isolated vertices count as degenerate paths) and simple cycles.

A meander is stored as its top and bottom partner tuples (``Meander``);
only this module builds them, and every other module reads them as is.
The index counts come off the winding-down moves (``formulas``), so
``components`` only lists the components: for the renderers (whose
JSON summary counts them off that list), for ``seaweed index
--explain`` and for the spectrum certificate.

For B/C/D the compositions are partial: no edge reaches past the end of
its composition, and the vertices strictly between the two composition
ends form the *tail*, kept as a ``range``.  Type D adjusts the tail by
the parity rules of configurations I/II/III.
"""

from __future__ import annotations

from typing import NamedTuple

from .specs import AlgebraType, SeaweedSpec, require_valid

Edge = tuple[int, int]

TAIL_NONE = "NONE"
TAIL_I = "I"
TAIL_II = "II"
TAIL_III = "III"

_D = AlgebraType.D


class TailDegreeError(ValueError):
    """A tail vertex carries both a top and a bottom arc (malformed meander)."""


class Meander(NamedTuple):
    """``top[v]`` (``bottom[v]``) is v's partner by a top (bottom) arc, or 0.

    Both tuples have length n_vertices + 1 and hold 0 at index 0.
    ``tail`` is the range of tail vertices, empty for GL and A: O(1) in
    space and in a membership test, whatever its length.  ``top_edges``
    and ``bottom_edges`` list the arcs (lo, hi) ascending.
    """

    n_vertices: int
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    tail: range
    tail_config: str

    @property
    def top_edges(self) -> list[Edge]:
        return [(v, w) for v, w in enumerate(self.top) if v < w]

    @property
    def bottom_edges(self) -> list[Edge]:
        return [(v, w) for v, w in enumerate(self.bottom) if v < w]


class Component(NamedTuple):
    vertices: tuple[int, ...]
    kind: str  # "cycle" or "path"
    tail_count: int


def block_partners(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Partners on 1..n of the nested arcs: block [lo, hi] of size k pairs lo+i with hi-i, i < k//2."""
    partners = [0] * (n + 1)
    start = 1
    for part in parts:
        lo, hi = start, start + part - 1
        while lo < hi:
            partners[lo], partners[hi] = hi, lo
            lo += 1
            hi -= 1
        start += part
    return tuple(partners)


def tail(spec: SeaweedSpec) -> tuple[range, str]:
    """Tail vertices, as a range, and type-D configuration; the spec is validated first."""
    require_valid(spec)
    return _tail(spec)


def d_tail_config(r: int, s: int, n: int) -> str:
    """Type-D configuration of a top summing to r over a bottom summing to s <= r, in D_n."""
    if (r - s) % 2 == 0:
        return TAIL_I
    return TAIL_II if r < n else TAIL_III


def _tail(spec: SeaweedSpec) -> tuple[range, str]:
    if spec.algebra.full_compositions_required:
        return range(0), TAIL_NONE
    r, s = sum(spec.top), sum(spec.bottom)
    config = d_tail_config(r, s, spec.n) if spec.algebra is _D else TAIL_NONE
    # The D tail has even length: s+1..r (I), with r + 1 (II) or without r (III).
    r += (config == TAIL_II) - (config == TAIL_III)
    return range(s + 1, r + 1), config


def build_meander(spec: SeaweedSpec) -> Meander:
    """The meander of ``spec``; the spec is validated first."""
    require_valid(spec)
    return meander_of_valid(spec)


def meander_of_valid(spec: SeaweedSpec) -> Meander:
    """The meander of a spec that has been validated already, as ``LieData.spec`` has."""
    tail_range, config = _tail(spec)
    return Meander(spec.n, block_partners(spec.top, spec.n), block_partners(spec.bottom, spec.n), tail_range, config)


def components(meander: Meander) -> list[Component]:
    """Decompose into paths and cycles, ordered by first vertex.

    Tail vertices sit past the shorter composition, so each carries at
    most one arc; one carrying both raises ``TailDegreeError`` before
    any walk.  Every tail vertex is then a path endpoint, so a path's
    ``tail_count`` is read off its two endpoints and is at most two.

    A first scan over 1..n starts a path at each unseen vertex that
    misses a side, its lower endpoint, and walks it along its one arc
    (none for an isolated vertex), then alternating sides.  Every vertex
    still unseen lies on a cycle; a second scan starts each cycle at its
    minimum and walks it along its top arc first.
    """
    n, top, bottom, tail = meander.n_vertices, meander.top, meander.bottom, meander.tail
    for v in tail:
        if top[v] and bottom[v]:
            raise TailDegreeError(f"tail vertex {v} carries a top and a bottom arc")
    comps: list[Component] = []
    seen = bytearray(n + 1)
    for start in range(1, n + 1):
        if seen[start] or (top[start] and bottom[start]):
            continue
        order = _walk(start, top, bottom, seen) if top[start] else _walk(start, bottom, top, seen)
        tail_count = (start in tail) + (order[-1] != start and order[-1] in tail)
        comps.append(Component(order, "path", tail_count))
    for start in range(1, n + 1):
        if not seen[start]:
            comps.append(Component(_walk(start, top, bottom, seen), "cycle", 0))
    comps.sort(key=lambda c: c.vertices[0])
    return comps


def _walk(start: int, first: tuple[int, ...], second: tuple[int, ...], seen: bytearray) -> tuple[int, ...]:
    """Mark and list the vertices from ``start``: a ``first`` arc, then alternate, to a missing arc or a seen vertex."""
    order = []
    v = start
    while v and not seen[v]:
        seen[v] = 1
        order.append(v)
        v = first[v]
        first, second = second, first
    return tuple(order)
