"""Meander graphs of seaweeds: construction, tails, component counts.

The meander of a seaweed places vertices 1..n on a line and, inside
each block of the top (resp. bottom) composition, joins the outermost
pair, then the next pair inward, and so on.  Every vertex therefore has
at most one top and one bottom edge, so connected components are simple
paths (isolated vertices count as degenerate paths) and simple cycles.

For B/C/D the compositions are partial: no edge reaches past the end of
its composition, and the vertices strictly between the two composition
ends form the *tail*.  Type D adjusts the tail by the parity rules of
configurations I/II/III.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import AlgebraType, SeaweedSpec, require_valid

Edge = tuple[int, int]

TAIL_NONE = "NONE"
TAIL_I = "I"
TAIL_II = "II"
TAIL_III = "III"


class TailDegreeError(ValueError):
    """A tail vertex carries both a top and a bottom arc (malformed meander)."""


@dataclass(frozen=True)
class Meander:
    n_vertices: int
    top_edges: frozenset[Edge]
    bottom_edges: frozenset[Edge]
    tail: tuple[int, ...]
    tail_config: str


@dataclass(frozen=True)
class Component:
    vertices: tuple[int, ...]
    kind: str  # "cycle" or "path"
    tail_count: int


@dataclass(frozen=True)
class ComponentSummary:
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


def block_edges(parts: tuple[int, ...]) -> set[Edge]:
    """Nested arcs inside each block: a size-k block contributes k//2 edges."""
    edges: set[Edge] = set()
    start = 1
    for part in parts:
        end = start + part - 1
        lo, hi = start, end
        while lo < hi:
            edges.add((lo, hi))
            lo += 1
            hi -= 1
        start = end + 1
    return edges


def tail(spec: SeaweedSpec) -> tuple[tuple[int, ...], str]:
    """Tail vertex set and type-D configuration for a valid spec."""
    require_valid(spec)
    if spec.algebra.full_compositions_required:
        return (), TAIL_NONE
    r, s = sum(spec.top), sum(spec.bottom)
    tail_c = tuple(range(s + 1, r + 1))
    if spec.algebra is not AlgebraType.D:
        return tail_c, TAIL_NONE
    t = r - s
    if t % 2 == 0:
        return tail_c, TAIL_I
    if r < spec.n:
        return tail_c + (r + 1,), TAIL_II
    return tail_c[:-1], TAIL_III


def build_meander(spec: SeaweedSpec) -> Meander:
    tail_set, config = tail(spec)
    return Meander(
        n_vertices=spec.n,
        top_edges=frozenset(block_edges(spec.top)),
        bottom_edges=frozenset(block_edges(spec.bottom)),
        tail=tail_set,
        tail_config=config,
    )


def components(meander: Meander) -> tuple[ComponentSummary, list[Component]]:
    """Decompose into paths and cycles in one pass, deterministically ordered.

    Vertices are scanned in increasing order, so every path is first met
    at its lower-numbered endpoint and walked from there; every vertex
    left over then lies on a cycle, which is first met at its minimum
    and walked from it along its top edge.  The returned list is sorted
    by first vertex.  Tail vertices sit past the shorter composition, so
    each carries at most one arc: they are path endpoints, which bounds
    ``tail_count`` by two, and a tail vertex with both arcs raises
    ``TailDegreeError``.
    """
    n = meander.n_vertices
    top = [0] * (n + 1)
    bottom = [0] * (n + 1)
    for a, b in meander.top_edges:
        top[a], top[b] = b, a
    for a, b in meander.bottom_edges:
        bottom[a], bottom[b] = b, a

    tail_set = set(meander.tail)
    seen = bytearray(n + 1)
    comps: list[Component] = []
    for kind in ("path", "cycle"):
        for start in range(1, n + 1):
            if seen[start] or (kind == "path" and top[start] and bottom[start]):
                continue
            # A path endpoint's one arc is forced; a cycle starts on top.
            arcs = (top, bottom) if top[start] else (bottom, top)
            order = []
            tail_count = 0
            v, side = start, 0
            while v and not seen[v]:
                seen[v] = 1
                order.append(v)
                if v in tail_set:
                    if top[v] and bottom[v]:
                        raise TailDegreeError(f"tail vertex {v} carries a top and a bottom arc")
                    tail_count += 1
                v = arcs[side][v]
                side ^= 1
            comps.append(Component(tuple(order), kind, tail_count))

    comps.sort(key=lambda c: c.vertices[0])
    cycles = sum(1 for c in comps if c.kind == "cycle")
    tailed = sum(1 for c in comps if c.kind == "path" and c.tail_count in (0, 2))
    return ComponentSummary(cycles, len(comps) - cycles, tailed), comps
