"""Index formulas, closed forms, totient/xi, Frobenius classification."""

from fractions import Fraction

import pytest

from seaweeds import formulas, meander
from seaweeds.formulas import (
    IndexReport,
    classify_frobenius,
    euler_phi,
    index_closed_form,
    index_combinatorial,
    xi,
)
from seaweeds.meander import build_meander, components
from seaweeds.specs import AlgebraType, SeaweedSpec, enumerate_specs, format_spec, parse_spec

from reference_sweeps import (
    combinatorial_sweep,
    forest_criterion_sweep,
    reference_gcd3_path,
    reference_index_combinatorial,
    split_top_gcd_sweep,
    xi_tail2_sweep,
    xi_tail4_sweep,
)

PAPER_INDEX_FIXTURES = {
    "GL26:5|7|4|10/8|6|6|6": 3,
    "A5:4|1/2|1|2": 0,
    "A8:3|5/8": 0,
    "A8:4|4/8": 3,
    "C5:1|4/3": 0,
    "C14:7|7/11": 0,
    "B5:3|2/4": 0,
    "D5:1|4/2": 2,
    "D8:3|5/4": 1,
    "D9:4|3/3|3": 2,
    "D9:4|3|2/2|3|1": 1,
    "D8:5|3/5": 5,
    "D8:6|2/5": 0,
    "D9:3|6/6": 0,
    "D10:4|6/7": 0,
    "D10:6|4/7": 2,
    "D14:5|9/9": 0,
    "D22:9|13/17": 2,
}


@pytest.mark.parametrize("text, expected", sorted(PAPER_INDEX_FIXTURES.items()))
def test_index_fixtures(text, expected):
    assert index_combinatorial(parse_spec(text)).index == expected


def test_winding_down_equals_the_component_walk_exhaustively():
    checked = 0
    for algebra in AlgebraType:
        n_max = 8 if algebra.full_compositions_required else 6
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                assert index_combinatorial(spec) == reference_index_combinatorial(spec), format_spec(spec)
                checked += 1
    assert checked == 54616


def refuse_meanders(monkeypatch, who):
    """Make every name that builds or walks a meander raise; ``formulas`` binds none of them."""

    def refuse(*args):
        raise RuntimeError(f"{who} built or walked a meander")

    for name in ("build_meander", "meander_of_valid", "components"):
        monkeypatch.setattr(meander, name, refuse)
        assert not hasattr(formulas, name), name


def test_index_combinatorial_builds_no_meander(monkeypatch):
    refuse_meanders(monkeypatch, "index_combinatorial")
    for text in ("C14:7|7/11", "D9:4|3|2/2|3|1", "GL26:5|7|4|10/8|6|6|6"):
        assert index_combinatorial(parse_spec(text)).index == PAPER_INDEX_FIXTURES[text], text


def asks_gcd3_path(spec):
    """D config III, a|b over n-3 with b > 3: the shapes where the GCD3_PATH rule asks whether n-2 and n share a path."""
    n, top = spec.n, spec.top
    return spec.algebra is AlgebraType.D and sum(top) == n and len(top) == 2 and spec.bottom == (n - 3,) and top[1] > 3


def test_classifier_builds_no_meander(monkeypatch):
    refuse_meanders(monkeypatch, "classify_frobenius")
    fixtures = [parse_spec(text) for text in PAPER_INDEX_FIXTURES]
    small = [spec for algebra in AlgebraType for n in range(1, 7) for spec in enumerate_specs(algebra, n)]
    for spec in fixtures + small:
        classify_frobenius(spec)
    assert sum(map(asks_gcd3_path, fixtures + small)) == 7
    verdict = classify_frobenius(parse_spec("C1000000000000000000:1000000000000000000/"))
    assert verdict.report.index == 5 * 10**17 and verdict.closed_form == (5 * 10**17, "TWO_PART")


def test_gcd3_path_rule_reads_the_moves(monkeypatch):
    refuse_meanders(monkeypatch, "the GCD3_PATH rule")
    for text, index, gcd in (
        ("D9:3|6/6", 0, 3),
        ("D1000000000000000000:1|999999999999999999/999999999999999997", 1, 4),
        ("D999999999999999999:999999999999999993|6/999999999999999996", 0, 3),
    ):
        spec = parse_spec(text)
        assert asks_gcd3_path(spec), text
        verdict = classify_frobenius(spec)
        got = (verdict.justification, verdict.report.index, verdict.frobenius, verdict.certificate)
        assert got == ("GCD3_PATH", index, index == 0, {"gcd": gcd}), text


def test_gcd3_path_rule_equals_the_walk():
    # Every shape the rule asks about with 5 <= n <= 200: the moves, the
    # component walk and gcd(a+b, b+c) >= 3 give one answer.
    shapes = [SeaweedSpec(AlgebraType.D, n, (n - b, b), (n - 3,)) for n in range(5, 201) for b in range(4, n)]
    assert len(shapes) == 19306 and all(map(asks_gcd3_path, shapes))
    disagree = []
    for spec in shapes:
        verdict = classify_frobenius(spec)
        by_moves = verdict.justification == "GCD3_PATH"
        if not by_moves == reference_gcd3_path(spec) == (verdict.certificate["gcd"] >= 3):
            disagree.append(format_spec(spec))
    assert disagree == []


@pytest.mark.parametrize(
    "text, expected",
    [
        ("A1000000000000000000:377|999999999999999623/1000000000000000000", IndexReport(0, 0, 1, 1)),
        ("GL1000000000000000000:1000000000000000000/999999999999999999|1", IndexReport(1, 0, 1, 1)),
    ],
    ids=["A", "GL"],
)
def test_winding_down_reaches_n_of_ten_to_the_eighteen(text, expected):
    assert index_combinatorial(parse_spec(text)) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("C1000000000000000000:1000000000000000000/", (5 * 10**17, "TWO_PART")),
        ("D1000000000000000000:1|999999999999999998/2", (499999999999999998, "CONFIG_II")),
        ("B10000000:10000000/", (5000000, "TWO_PART")),
    ],
    ids=["C", "D", "B"],
)
def test_closed_form_reads_a_tail_of_any_length(text, expected):
    # The tail is a range, so its length costs nothing: at n = 10^18 a
    # tuple of it could not be built at all.
    spec = parse_spec(text)
    assert index_closed_form(spec) == expected
    assert index_combinatorial(spec).index == expected[0]


def test_euler_phi():
    assert euler_phi(10) == 4
    assert euler_phi(11) == 10
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    with pytest.raises(ValueError):
        euler_phi(0)


def test_xi_values():
    assert xi(10, 7) == Fraction(3, 10)
    assert xi(10, 9) == Fraction(9, 10)
    # 5**(phi(7)-1) = 5**5 = 3125 = 446*7 + 3
    assert xi(7, 5) == Fraction(3, 7)
    assert xi(11, 7) == Fraction(8, 11)


def test_xi_range_and_inverse():
    import math

    for n in range(2, 30):
        for d in range(1, n):
            value = xi(n, d)
            assert Fraction(0) <= value < 1
            if math.gcd(d, n) == 1:
                # d**(phi(n)-1) is d's inverse mod n when d is a unit.
                assert value == Fraction(pow(d, -1, n), n)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("A8:3|5/8", (0, "GCD_TWO_BLOCK")),
        ("A8:4|4/8", (3, "GCD_TWO_BLOCK")),
        ("A10:6|4/7|3", (0, "GCD_THREE_BLOCK")),
        ("A8:2|2|4/8", (1, "GCD_THREE_BLOCK")),
        ("C8:4|4/7", (0, "GCD_SPLIT_TOP")),
        ("C8:5|3/6", (0, "GCD_SPLIT_TOP")),
        ("C5:5/2|2", (0, "GCD_SPLIT_BOTTOM_1")),
        ("C5:5/2|1", (2, "GCD_SPLIT_BOTTOM_2")),
        ("C5:4/2", (2, "TWO_PART")),
        ("C4:2/2", (4, "TWO_PART")),
        ("B6:5/3", (1, "TWO_PART")),
        ("D8:5|3/5", (5, "TAIL_GAP_MATCH")),
        ("D3:2|1/2", (3, "TAIL_GAP_MATCH")),
        ("D9:4|3/4", (6, "CONFIG_II")),
        ("D8:4|4/6", (1, "CONFIG_I+GCD_SPLIT_TOP")),
        ("D6:4/2", (3, "CONFIG_I+TWO_PART")),
    ],
)
def test_closed_form_fixtures(text, expected):
    assert index_closed_form(parse_spec(text)) == expected


@pytest.mark.parametrize("text", ["C14:7|7/11", "A5:4|1/2|1|2", "A6:1|2|2|1/6", "D10:4|6/7", "D8:3|5/4"])
def test_closed_form_absent(text):
    # Four-part type-A tops have no gcd formula at all; the other shapes
    # simply fall outside every registered hypothesis.
    assert index_closed_form(parse_spec(text)) is None


def test_closed_form_agrees_with_meander_exhaustively():
    for algebra in AlgebraType:
        n_max = 6 if algebra.full_compositions_required else 6
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                closed = index_closed_form(spec)
                if closed is not None:
                    assert closed[0] == index_combinatorial(spec).index, spec


@pytest.mark.parametrize(
    "text, frobenius, tag",
    [
        ("D10:4|6/7", True, "XI_TAIL2"),
        ("D10:6|4/7", False, "XI_TAIL2"),
        ("D14:5|9/9", True, "XI_TAIL4"),
        ("D22:9|13/17", False, "XI_TAIL4"),
        ("D9:3|6/6", True, "GCD3_PATH"),
        ("C8:4|4/7", True, "SPLIT_TOP_GCD_C1"),
        ("C8:5|3/6", True, "SPLIT_TOP_GCD_C2"),
        ("C8:7|1/5", True, "SPLIT_TOP_GCD_C3"),
        ("B5:3|2/4", True, "SPLIT_TOP_GCD_C1"),
        ("D8:6|2/5", True, "SHORT_TAIL_BLOCK"),
        ("D8:5|3/3", True, "SHORT_TAIL_BLOCK"),
        ("D9:6|3/4", False, "SHORT_TAIL_BLOCK"),
        ("D8:5|3/5", False, "TAIL_GAP_MATCH"),
        ("GL5:4|1/2|1|2", False, "GL_NEVER_FROBENIUS"),
        ("A5:4|1/2|1|2", True, "MEANDER_SINGLE_PATH"),
    ],
)
def test_classifier_fixtures(text, frobenius, tag):
    verdict = classify_frobenius(parse_spec(text))
    assert verdict.frobenius is frobenius
    assert verdict.justification == tag


def test_classifier_certificates():
    verdict = classify_frobenius(parse_spec("D10:4|6/7"))
    assert verdict.certificate["delta"] == 7
    assert verdict.certificate["xi"] == Fraction(3, 10)
    verdict = classify_frobenius(parse_spec("D10:6|4/7"))
    assert verdict.certificate["xi"] == Fraction(9, 10)
    verdict = classify_frobenius(parse_spec("D14:5|9/9"))
    assert verdict.certificate["xi"] == Fraction(3, 7)


VERDICT_REPRS = {
    "A5:4|1/2|1|2": "FrobeniusVerdict(frobenius=True, justification='MEANDER_SINGLE_PATH', "
    "report=IndexReport(index=0, cycles=0, paths=1, tailed_paths=1), certificate={'cycles': 0, 'paths': 1}, "
    "closed_form=None)",
    "D9:4|3|2/2|3|1": "FrobeniusVerdict(frobenius=False, justification='MEANDER_FOREST', "
    "report=IndexReport(index=1, cycles=0, paths=3, tailed_paths=1), certificate={}, closed_form=None)",
}


def test_result_records_keep_their_reprs_and_refuse_assignment():
    for text, expected in VERDICT_REPRS.items():
        assert repr(classify_frobenius(parse_spec(text))) == expected
    spec = parse_spec("D9:4|3|2/2|3|1")
    meander = build_meander(spec)
    summary, comps = components(meander)
    verdict = classify_frobenius(spec)
    fields = (
        (meander, "top"),
        (comps[0], "kind"),
        (summary, "cycles"),
        (verdict.report, "index"),
        (verdict, "frobenius"),
    )
    for record, name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_classifier_matches_index_exhaustively():
    for algebra in AlgebraType:
        n_max = 6 if algebra.full_compositions_required else 5
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                verdict = classify_frobenius(spec)
                report = reference_index_combinatorial(spec)
                assert verdict.report == report, spec
                assert verdict.frobenius == (report.index == 0), spec
                assert verdict.closed_form == index_closed_form(spec), spec


@pytest.mark.parametrize("text", ["C20000:20000/", "B20000:20000/"])
def test_long_tail_index_equals_two_part_form(text):
    spec = parse_spec(text)
    assert index_closed_form(spec) == (10000, "TWO_PART")
    assert index_combinatorial(spec).index == 10000


def test_gl_index_is_a_index_plus_one():
    for n in range(1, 6):
        for spec in enumerate_specs(AlgebraType.A, n):
            gl = SeaweedSpec(AlgebraType.GL, n, spec.top, spec.bottom)
            assert index_combinatorial(gl).index == index_combinatorial(spec).index + 1


def test_combinatorial_sweep_counts():
    # CI runs the same sweep with GL/A n <= 10 and B/C/D n <= 8.
    counts, failures = combinatorial_sweep(gl_a_n_max=5, bcd_n_max=4)
    assert failures == []
    frobenius = {}
    for (family, _), (_, count) in counts.items():
        frobenius.setdefault(family, []).append(count)
    assert frobenius == {"GL": [0] * 5, "A": [1, 2, 6, 14, 34], "B": [1, 2, 5, 11], "C": [1, 2, 5, 11], "D": [0, 2, 5, 9]}


def test_split_top_gcd_sweep_clean():
    assert split_top_gcd_sweep(30) == []


def test_xi_sweeps_clean():
    assert xi_tail2_sweep(40) == []
    assert xi_tail4_sweep(44) == []


def test_forest_criterion():
    assert forest_criterion_sweep(AlgebraType.C, 6) == []
    assert forest_criterion_sweep(AlgebraType.D, 6) == []
