"""Meander graphs of seaweeds: construction, tails, component counts.

The meander of a seaweed places vertices 1..n on a line and, inside
each block of the top (resp. bottom) composition, joins the outermost
pair, then the next pair inward, and so on.  Every vertex therefore has
at most one top and one bottom edge, so connected components are simple
paths (isolated vertices count as degenerate paths) and simple cycles.

A meander is stored as its top and bottom partner tuples (``Meander``);
only this module builds them, and every other module reads them as is.

For B/C/D the compositions are partial: no edge reaches past the end of
its composition, and the vertices strictly between the two composition
ends form the *tail*.  Type D adjusts the tail by the parity rules of
configurations I/II/III.
"""

from __future__ import annotations

from itertools import compress
from operator import mul, not_
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
    ``top_edges`` and ``bottom_edges`` list the arcs (lo, hi) ascending.
    """

    n_vertices: int
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    tail: tuple[int, ...]
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


class ComponentSummary(NamedTuple):
    """Component counts feeding the index formulas.

    ``tailed_paths`` counts the path components containing zero or two
    tail vertices; with an empty tail it equals ``paths``, which is why
    the B/C/D index formula restricts to the GL one.
    """

    cycles: int
    paths: int
    tailed_paths: int

    @property
    def total(self) -> int:
        return self.cycles + self.paths


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


def tail(spec: SeaweedSpec) -> tuple[tuple[int, ...], str]:
    """Tail vertex set and type-D configuration; the spec is validated first."""
    require_valid(spec)
    return _tail(spec)


def d_tail_config(r: int, s: int, n: int) -> str:
    """Type-D configuration of a top summing to r over a bottom summing to s <= r, in D_n."""
    if (r - s) % 2 == 0:
        return TAIL_I
    return TAIL_II if r < n else TAIL_III


def _tail(spec: SeaweedSpec) -> tuple[tuple[int, ...], str]:
    if spec.algebra.full_compositions_required:
        return (), TAIL_NONE
    r, s = sum(spec.top), sum(spec.bottom)
    config = d_tail_config(r, s, spec.n) if spec.algebra is _D else TAIL_NONE
    # The D tail has even length: s+1..r (I), with r + 1 (II) or without r (III).
    r += (config == TAIL_II) - (config == TAIL_III)
    return tuple(range(s + 1, r + 1)), config


def build_meander(spec: SeaweedSpec) -> Meander:
    """The meander of ``spec``; the spec is validated first."""
    require_valid(spec)
    return meander_of_valid(spec)


def meander_of_valid(spec: SeaweedSpec) -> Meander:
    """The meander of a spec that has been validated already, as ``LieData.spec`` has."""
    tail_set, config = _tail(spec)
    return Meander(spec.n, block_partners(spec.top, spec.n), block_partners(spec.bottom, spec.n), tail_set, config)


def components(meander: Meander) -> tuple[ComponentSummary, list[Component]]:
    """Decompose into paths and cycles, ordered by first vertex.

    Tail vertices sit past the shorter composition, so each carries at
    most one arc; one carrying both raises ``TailDegreeError`` before
    any walk.  Every tail vertex is then a path endpoint, so a path's
    ``tail_count`` is read off its two endpoints and is at most two.

    Paths come from one ascending scan over the vertices that miss a
    side: each path is first met at its lower endpoint and walked from
    there two arcs per step, and its far endpoint is skipped when the
    scan reaches it.  The scan stops once the paths cover every vertex.
    Vertices left over lie on cycles; each cycle is first met at its
    minimum and walked from it along its top arc.  Paths and cycles are
    each met in order of first vertex, so the list is sorted only when
    it holds cycles.
    """
    n, top, bottom, tail = meander.n_vertices, meander.top, meander.bottom, meander.tail
    for v in tail:
        if top[v] and bottom[v]:
            raise TailDegreeError(f"tail vertex {v} carries a top and a bottom arc")
    tail_set = frozenset(tail)
    comps: list[Component] = []
    seen = bytearray(n + 1)  # far path endpoints, then every walked vertex
    covered = tailed = 0
    ends = compress(range(n + 1), map(not_, map(mul, top, bottom)))
    next(ends)  # vertex 0 carries no arc
    for start in ends:
        if seen[start]:
            continue
        # An endpoint's one arc is forced; an isolated vertex has none.
        first, second = (top, bottom) if top[start] else (bottom, top)
        order = [start]
        w = first[start]
        while w:
            order.append(w)
            v = second[w]
            if not v:
                break
            order.append(v)
            w = first[v]
        end = order[-1]
        seen[end] = 1
        tail_count = (start in tail_set) + (end != start and end in tail_set)
        if tail_count != 1:  # zero or two tail vertices
            tailed += 1
        comps.append(Component(tuple(order), "path", tail_count))
        covered += len(order)
        if covered >= n:
            break

    paths = len(comps)
    if covered < n:
        seen[0] = 1
        for comp in comps:
            for v in comp.vertices:
                seen[v] = 1
        start = seen.find(0)
        while start > 0:
            order = []
            v = start
            while not seen[v]:
                w = top[v]
                seen[v] = seen[w] = 1
                order.append(v)
                order.append(w)
                v = bottom[w]
            comps.append(Component(tuple(order), "cycle", 0))
            start = seen.find(0, start + 1)
        comps.sort(key=lambda c: c.vertices[0])
    return ComponentSummary(len(comps) - paths, paths, tailed), comps
