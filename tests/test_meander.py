"""Meander construction, tails and component decomposition."""

import random

import pytest

from seaweeds.meander import (
    Component,
    ComponentSummary,
    Meander,
    TailDegreeError,
    build_meander,
    components,
    tail,
)
from seaweeds.specs import AlgebraType, SeaweedSpec, enumerate_specs, parse_spec

from reference_sweeps import degree, reference_components


def edges(spec_text):
    m = build_meander(parse_spec(spec_text))
    return sorted(m.top_edges), sorted(m.bottom_edges)


def test_meander_a5():
    top, bottom = edges("A5:4|1/2|1|2")
    assert top == [(1, 4), (2, 3)]
    assert bottom == [(1, 2), (4, 5)]
    assert tuple(build_meander(parse_spec("A5:4|1/2|1|2")).tail) == ()


def test_meander_c5():
    m = build_meander(parse_spec("C5:1|4/3"))
    assert sorted(m.top_edges) == [(2, 5), (3, 4)]
    assert sorted(m.bottom_edges) == [(1, 3)]
    assert tuple(m.tail) == (4, 5)


def test_meander_d5_config_iii():
    m = build_meander(parse_spec("D5:1|4/2"))
    assert sorted(m.top_edges) == [(2, 5), (3, 4)]
    assert sorted(m.bottom_edges) == [(1, 2)]
    assert tuple(m.tail) == (3, 4)
    assert m.tail_config == "III"


@pytest.mark.parametrize(
    "text, expected_tail, expected_config",
    [
        ("C14:7|7/11", (12, 13, 14), "NONE"),
        ("D8:3|5/4", (5, 6, 7, 8), "I"),
        ("D9:4|3/3|3", (7, 8), "II"),
        ("D9:4|3|2/2|3|1", (7, 8), "III"),
        ("B5:3|2/4", (5,), "NONE"),
        ("D5:1|4/", (1, 2, 3, 4), "III"),
    ],
)
def test_tail_fixtures(text, expected_tail, expected_config):
    vertices, config = tail(parse_spec(text))
    assert tuple(vertices) == expected_tail
    assert config == expected_config


def test_type_d_tails_are_even():
    # The tail reads only n, r = sum(top) and s = sum(bottom), so unit
    # parts stand for every spec; the meander spectrum pairs the tail.
    for n in range(1, 41):
        for r in range(n + 1):
            for s in range(r + 1):
                vertices, _ = tail(SeaweedSpec(AlgebraType.D, n, (1,) * r, (1,) * s))
                assert len(vertices) % 2 == 0, (n, r, s)


def test_components_single_path():
    summary, comps = components(build_meander(parse_spec("A5:4|1/2|1|2")))
    assert (summary.cycles, summary.paths) == (0, 1)
    assert comps[0].vertices == (3, 2, 1, 4, 5)


def test_components_gl26_figure():
    summary, _ = components(build_meander(parse_spec("GL26:5|7|4|10/8|6|6|6")))
    assert 2 * summary.cycles + summary.paths == 3
    assert summary.cycles == 1


def test_components_d5_tailed():
    summary, _ = components(build_meander(parse_spec("D5:1|4/2")))
    assert summary.cycles == 0
    assert summary.tailed_paths == 2


def test_isolated_vertices_are_degenerate_paths():
    summary, comps = components(build_meander(parse_spec("C3:1/1")))
    assert summary.paths == 3
    assert all(c.kind == "path" for c in comps)


def test_double_edge_is_a_cycle():
    summary, comps = components(build_meander(parse_spec("GL2:2/2")))
    assert summary.cycles == 1
    assert comps[0].vertices == (1, 2)


def all_small_specs():
    for algebra in AlgebraType:
        n_max = 6 if algebra.full_compositions_required else 5
        for n in range(1, n_max + 1):
            yield from enumerate_specs(algebra, n)


def test_structural_invariants_exhaustive():
    for spec in all_small_specs():
        m = build_meander(spec)
        r, s = sum(spec.top), sum(spec.bottom)
        for v in range(1, m.n_vertices + 1):
            assert degree(m, v) <= 2
        # within-block edge counts and separator bounds
        assert len(m.top_edges) == sum(p // 2 for p in spec.top)
        assert len(m.bottom_edges) == sum(p // 2 for p in spec.bottom)
        assert all(a >= 1 and b <= r for a, b in m.top_edges)
        assert all(a >= 1 and b <= s for a, b in m.bottom_edges)
        # partner tuples: index 0 unused, each arc read from both ends
        for partners in (m.top, m.bottom):
            assert len(partners) == spec.n + 1 and partners[0] == 0
            assert all(partners[w] == v for v, w in enumerate(partners) if w)
        assert m.top_edges == sorted(m.top_edges)
        assert m.bottom_edges == sorted(m.bottom_edges)
        for v in m.tail:
            assert degree(m, v) <= 1
        summary, comps = components(m)
        assert summary.total == len(comps)
        assert sum(len(c.vertices) for c in comps) == m.n_vertices
        for c in comps:
            assert c.tail_count <= 2
            if c.kind == "cycle":
                assert c.tail_count == 0
                assert len(c.vertices) % 2 == 0


def test_component_traversal_is_deterministic():
    for text in ("C14:7|7/11", "D9:4|3|2/2|3|1", "GL26:5|7|4|10/8|6|6|6"):
        m = build_meander(parse_spec(text))
        first = components(m)[1]
        second = components(m)[1]
        assert first == second
        for c in first:
            if c.kind == "path" and len(c.vertices) > 1:
                assert c.vertices[0] == min(c.vertices[0], c.vertices[-1])
            if c.kind == "cycle":
                assert c.vertices[0] == min(c.vertices)


@pytest.mark.parametrize(
    "top, bottom",
    [
        ((0, 2, 1, 0), (0, 2, 1, 0)),  # the tail vertex lies on a cycle
        ((0, 3, 0, 1), (0, 2, 1, 0)),  # the tail vertex is inside a path
    ],
)
def test_tail_vertex_with_two_arcs_raises(top, bottom):
    m = Meander(3, top, bottom, tail=(1,), tail_config="NONE")
    with pytest.raises(TailDegreeError):
        components(m)


def random_composition(rng, total):
    # Small caps give many short blocks and so many components.
    cap = rng.choice((2, 5, 30, max(total, 1)))
    parts = []
    while total:
        parts.append(rng.randint(1, min(cap, total)))
        total -= parts[-1]
    return tuple(parts)


def test_components_match_reference_walk():
    # The reference walks one vertex at a time with a side flag, a seen
    # mark and a tail lookup per vertex.  Both must return equal results.
    # The records are NamedTuples, which also equal bare tuples, so their
    # types are checked as well.
    specs = [
        spec
        for algebra in AlgebraType
        for n in range(1, (7 if algebra.full_compositions_required else 5) + 1)
        for spec in enumerate_specs(algebra, n)
    ]
    rng = random.Random(18)
    for algebra in AlgebraType:
        for _ in range(300):
            n = rng.randint(1, 400)
            if algebra.full_compositions_required:
                r = s = n
            else:
                r = rng.randint(0, n)
                s = rng.randint(0, r)
            specs.append(SeaweedSpec(algebra, n, random_composition(rng, r), random_composition(rng, s)))
    wrong = []
    for spec in specs:
        m = build_meander(spec)
        summary, comps = got = components(m)
        records = isinstance(summary, ComponentSummary) and all(isinstance(c, Component) for c in comps)
        if not records or got != reference_components(m):
            wrong.append(spec)
    assert wrong == []
