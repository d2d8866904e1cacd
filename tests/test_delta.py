"""Permutation cycles of single-path meanders and their difference multisets."""

from collections import Counter

import pytest

from seaweeds import delta, meander
from seaweeds.delta import NotSinglePathError, TourError, delta_of_spec, translation_pieces
from seaweeds.meander import block_partners, build_meander, components
from seaweeds.specs import AlgebraType, SeaweedSpec, compositions, parse_spec

from reference_sweeps import (
    canonical_delta_formula,
    delta_cardinality_probe,
    delta_congruence_sweep,
    reference_delta,
)


def test_loops_a10():
    # Endpoints 4 and 9 both miss a bottom arc and carry its loop: the
    # tour starts at 4 and turns at 9, where b is the identity.
    sigma = delta_of_spec(parse_spec("A10:6|4/7|3")).sigma
    assert sigma[0] == 4
    assert sigma[sigma.index(9) + 1] == 8  # t(b(9)) = t(9)


def test_loops_a3():
    # Endpoint 1 misses a bottom arc, endpoint 3 a top arc: the tour starts at 1.
    assert delta_of_spec(parse_spec("A3:2|1/1|2")).sigma[0] == 1


def test_loops_reject_multiple_components():
    with pytest.raises(NotSinglePathError):
        delta_of_spec(parse_spec("A8:4|4/8"))


def test_sigma_a10():
    report = delta_of_spec(parse_spec("A10:6|4/7|3"))
    assert report.sigma == (4, 3, 2, 1, 10, 9, 8, 7, 6, 5)
    assert set(report.differences) == {9}
    assert report.canonical_delta == 9


def test_tau_a8():
    report = delta_of_spec(parse_spec("A8:1|2|5/8"))
    assert report.sigma == (1, 4, 7, 3, 6, 2, 5, 8)
    assert Counter(report.differences) == Counter((3, 3, 4, 3, 4, 3, 3, 1))
    assert report.canonical_delta is None
    # Cardinalities of the distinct values reproduce the top parts 1, 2, 5.
    assert report.distinct_values == ((1, 1), (4, 2), (3, 5))


def test_sigma_a3():
    report = delta_of_spec(parse_spec("A3:2|1/1|2"))
    assert report.sigma == (1, 2, 3)
    assert report.canonical_delta == 1


@pytest.mark.parametrize("text", ["GL3:2|1/3", "B3:2|1/3", "C3:2|1/3", "D3:2|1/3"])
def test_delta_needs_a_type_a_seaweed(text):
    # each meander has A3:2|1/3's arcs, one tailless path (sigma (2, 1, 3), delta 2)
    spec = parse_spec(text)
    meander, type_a = build_meander(spec), build_meander(parse_spec("A3:2|1/3"))
    assert (meander.top, meander.bottom, tuple(meander.tail)) == (type_a.top, type_a.bottom, ())
    assert delta_of_spec(parse_spec("A3:2|1/3")).canonical_delta == 2
    with pytest.raises(NotSinglePathError, match="^the delta construction needs a type-A seaweed$"):
        delta_of_spec(spec)


def test_single_vertex_meander():
    report = delta_of_spec(parse_spec("A1:1/1"))
    assert report.sigma == (1,)
    assert report.differences == (0,)


def test_canonical_delta_formula():
    assert canonical_delta_formula(6, 4, 7, 3) == 9
    assert canonical_delta_formula(2, 1, 1, 2) == 1
    with pytest.raises(NotSinglePathError):
        canonical_delta_formula(4, 4, 4, 4)
    with pytest.raises(ValueError):
        canonical_delta_formula(2, 2, 3, 2)


def test_delta_congruence_sweep_clean():
    assert delta_congruence_sweep(20) == []


def test_top_bottom_maps_cycle_iff_single_path():
    # t∘b closes into an n-cycle from the lower endpoint exactly when the
    # meander is one path; multi-component meanders are rejected first.
    for n in range(1, 7):
        for top in compositions(n):
            for bottom in compositions(n):
                spec = SeaweedSpec(AlgebraType.A, n, top, bottom)
                meander = build_meander(spec)
                summary, _ = components(meander)
                if summary.cycles == 0 and summary.paths == 1:
                    report = delta_of_spec(spec)
                    assert sorted(report.sigma) == list(range(1, n + 1))
                    ends = [v for v in range(1, n + 1) if not meander.top[v] or not meander.bottom[v]]
                    assert report.sigma[0] == min(ends)
                else:
                    with pytest.raises(NotSinglePathError):
                        delta_of_spec(spec)


def outcome(function, spec):
    try:
        return function(spec)
    except (NotSinglePathError, TourError) as exc:
        return repr(exc)


def test_sliced_tour_matches_iteration():
    # The tour equals n steps of t∘b from the walk's lower endpoint, errors included.
    specs = (SeaweedSpec(AlgebraType.A, n, top, bottom)
             for n in range(1, 10) for top in compositions(n) for bottom in compositions(n))
    assert [spec for spec in specs if outcome(delta_of_spec, spec) != outcome(reference_delta, spec)] == []
    spec = parse_spec("A100000:37|99963/100000")
    assert delta_of_spec(spec) == reference_delta(spec)


def test_cardinality_probe_reports():
    results = delta_cardinality_probe(10)
    assert results, "probe found no Frobenius shapes"
    worked_example = next(r for r in results if r["spec"] == "A8:1|2|5/8")
    assert worked_example["matches"]
    # Each distinct value is (l_k + h_k - n - 1) mod n for a top block
    # [l_k, h_k], with the summed parts sharing it as its cardinality.
    # Parts can share a value, so the cardinalities coarsen the top
    # parts and do not always equal them.
    assert [r["spec"] for r in results if not r["exact"]] == []
    assert any(not r["matches"] for r in results)
    assert all(r["coarsens"] for r in results)


@pytest.mark.parametrize(
    "n, top, bottom",
    [
        # Forged total maps on A3:1|2/3: the top is no involution (t(2) =
        # t(3) = 3), and t∘b runs 1, 3, 3, ... without returning to 1.
        (3, (0, 1, 3, 3), (0, 3, 2, 2)),
        # On A4:1|3/4, t∘b closes after two steps (1, 3), short of n.
        (4, (0, 1, 4, 3, 2), (0, 3, 4, 1, 2)),
    ],
)
def test_forged_tour_raises(monkeypatch, n, top, bottom):
    spec = parse_spec(f"A{n}:1|{n - 1}/{n}")  # a single path
    # one one-vertex piece per vertex, translated onto the forged t(b(v))
    forged = [(v, v + 1, top[bottom[v]] - v) for v in range(1, n + 1)]
    monkeypatch.setattr(delta, "translation_pieces", lambda top_parts, bottom_parts: forged)
    with pytest.raises(TourError):
        delta_of_spec(spec)


def test_pieces_are_the_block_reflections():
    # On every pair of compositions, Frobenius or not, the pieces tile
    # 1..n and translate each v onto t(b(v)), self-loops filled.
    for n in range(1, 8):
        for top in compositions(n):
            t = [w or v for v, w in enumerate(block_partners(top, n))]
            for bottom in compositions(n):
                b = [w or v for v, w in enumerate(block_partners(bottom, n))]
                pieces = translation_pieces(top, bottom)
                assert len(pieces) <= len(top) + len(bottom) - 1
                assert sorted(v for lo, stop, _ in pieces for v in range(lo, stop)) == list(range(1, n + 1))
                assert all(v + shift == t[b[v]] for lo, stop, shift in pieces for v in range(lo, stop))


def test_delta_builds_and_walks_no_meander(monkeypatch):
    def refuse(*args):
        raise RuntimeError("delta_of_spec built or walked a meander")

    for name in ("build_meander", "meander_of_valid", "components"):
        monkeypatch.setattr(meander, name, refuse)
        assert not hasattr(delta, name), name
    answered = 0
    for n in range(1, 8):
        for top in compositions(n):
            for bottom in compositions(n):
                try:
                    delta_of_spec(SeaweedSpec(AlgebraType.A, n, top, bottom))
                except NotSinglePathError:
                    continue
                answered += 1
    assert answered == 1 + 2 + 6 + 14 + 34 + 68 + 150  # the Frobenius type-A specs
