"""Parsing, validation and enumeration of seaweed specs."""

import pytest

from seaweeds.delta import DeltaReport, delta_of_spec
from seaweeds.formulas import classify_frobenius, index_closed_form, index_combinatorial
from seaweeds.matrices import admissible_mask, seaweed_basis
from seaweeds.meander import build_meander, tail
from seaweeds.oracle import SpectrumReport, ad_spectrum
from seaweeds.specs import (
    AlgebraType,
    InvalidSpecError,
    SeaweedSpec,
    SpecSyntaxError,
    ValidationReport,
    compositions,
    enumerate_specs,
    format_spec,
    parse_spec,
    validate,
)
from seaweeds.sweep import check_spec


def test_parse_three_part_over_three_part():
    spec = parse_spec("A5:4|1/2|1|2")
    assert spec == SeaweedSpec(AlgebraType.A, 5, (4, 1), (2, 1, 2))


def test_parse_partial_composition():
    spec = parse_spec("C5:1|4/3")
    assert spec == SeaweedSpec(AlgebraType.C, 5, (1, 4), (3,))


def test_parse_empty_bottom():
    spec = parse_spec("D5:1|4/")
    assert spec == SeaweedSpec(AlgebraType.D, 5, (1, 4), ())


def test_parse_both_empty():
    spec = parse_spec("C3:/")
    assert spec == SeaweedSpec(AlgebraType.C, 3, (), ())


def test_parse_is_whitespace_insensitive():
    assert parse_spec(" A5 : 4|1 / 2|1|2 ") == parse_spec("A5:4|1/2|1|2")


@pytest.mark.parametrize(
    "text",
    [
        "X9:1/1",
        "A:1/1",
        "A5;1/1",
        "A5:4|0/5",
        "A5:4|1",
        "A5:1/1/1",
        # str.isdigit accepts these; only ASCII digits are decimal here
        "A\u00b2:1/1",
        "A\uff13:1|2/3",
        "A3:\uff11|2/3",
    ],
)
def test_parse_rejects_bad_syntax(text):
    with pytest.raises(SpecSyntaxError):
        parse_spec(text)


def test_parse_error_carries_offset():
    with pytest.raises(SpecSyntaxError) as excinfo:
        parse_spec("X9:1/1")
    assert excinfo.value.offset == 0


@pytest.mark.parametrize(
    "text, offset",
    [
        (" X9:1/1", 1),
        ("\tX9:1/1", 1),
        ("\u3000X9:1/1", 1),  # ideographic space: str.split and str.isspace agree on it
        ("A1 2;1/1", 4),
        ("A\u30001:1/1/1", 4),
        # A bad part is reported at its own first character, past any
        # whitespace inside its composition; the empty last part at
        # len(text).
        ("A5:4 | 0/5", 7),
        ("A5:4|\t0/5", 6),
        ("A5:4|1/2|\u3000x|2", 10),
        ("A5:4|1/2 |1| 0", 13),
        (" A 5 : 4 | 1 / 2 | 1 | 0 ", 23),
        ("A5:4|1\u3000/\t2|1|2|", 15),
    ],
)
def test_parse_error_offset_counts_whitespace(text, offset):
    with pytest.raises(SpecSyntaxError) as excinfo:
        parse_spec(text)
    assert excinfo.value.offset == offset


def test_validate_accepts_paper_shape():
    assert validate(SeaweedSpec(AlgebraType.A, 5, (4, 1), (2, 1, 2))).ok


def test_validate_flags_bad_type_a_sum():
    report = validate(SeaweedSpec(AlgebraType.A, 5, (4, 1), (2, 1, 1)))
    assert not report.ok
    assert "A-sums-equal-n" in report.violations


def test_validate_flags_top_bottom_convention():
    report = validate(SeaweedSpec(AlgebraType.C, 5, (3,), (1, 4)))
    assert report.violations == ("top-sum-ge-bottom-sum",)


def test_validate_flags_oversized_partial_sums():
    report = validate(SeaweedSpec(AlgebraType.B, 2, (3,), (3,)))
    assert "top-sum-le-n" in report.violations
    assert "bottom-sum-le-n" in report.violations


def test_spec_records_keep_their_reprs_classes_and_refuse_assignment():
    # the reprs are the parent's, when these records were frozen dataclasses
    spec = parse_spec("D9:4|3|2/2|3|1")
    records = [
        (spec, SeaweedSpec, "SeaweedSpec(algebra=<AlgebraType.D: 'D'>, n=9, top=(4, 3, 2), bottom=(2, 3, 1))"),
        (validate(spec), ValidationReport, "ValidationReport(violations=())"),
        (
            validate(SeaweedSpec(AlgebraType.A, 3, (1,), (4,))),
            ValidationReport,
            "ValidationReport(violations=('A-sums-equal-n',))",
        ),
        (
            delta_of_spec(parse_spec("A5:4|1/2|1|2")),
            DeltaReport,
            "DeltaReport(sigma=(3, 2, 4, 5, 1), differences=(4, 2, 1, 1, 2), "
            "distinct_values=((4, 1), (1, 2), (2, 2)), canonical_delta=None)",
        ),
        (
            ad_spectrum(seaweed_basis(parse_spec("A4:2|2/1|3"))),
            SpectrumReport,
            "SpectrumReport(eigenvalues={-1: 1, 0: 3, 1: 3, 2: 1}, integral=True, "
            "unbroken=True, symmetric_about_half=True, defect=0)",
        ),
    ]
    for record, cls, expected in records:
        assert type(record) is cls and repr(record) == expected
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert str(spec) == "D9:4|3|2/2|3|1"
    assert hash(spec) == hash((AlgebraType.D, 9, (4, 3, 2), (2, 3, 1)))
    assert all(type(spec) is SeaweedSpec for spec in enumerate_specs(AlgebraType.C, 3))


def test_validate_returns_the_one_empty_report_for_every_valid_spec():
    shared = validate(parse_spec("A1:1/1"))
    assert shared.ok and shared == ValidationReport()
    for n in range(1, 5):
        for spec in enumerate_specs(AlgebraType.GL, n):
            for algebra in (AlgebraType.GL, AlgebraType.A):
                assert validate(spec._replace(algebra=algebra)) is shared, spec


def test_enumerate_a2_order():
    specs = [(s.top, s.bottom) for s in enumerate_specs(AlgebraType.A, 2)]
    assert specs == [
        ((2,), (2,)),
        ((2,), (1, 1)),
        ((1, 1), (2,)),
        ((1, 1), (1, 1)),
    ]


def test_enumerate_a3_count_matches_bruteforce():
    # Independent count: compositions of n correspond to subsets of the
    # n-1 gaps, so there are 2**(n-1) of them and 4**(n-1) ordered pairs.
    comps = [c for c in compositions(3)]
    assert len(comps) == 4
    assert len(list(enumerate_specs(AlgebraType.A, 3))) == len(comps) ** 2 == 16


def test_enumerate_c1():
    specs = list(enumerate_specs(AlgebraType.C, 1))
    assert [(s.top, s.bottom) for s in specs] == [((), ()), ((1,), ()), ((1,), (1,))]


def test_algebra_type_members():
    got = [(algebra.value, algebra.full_compositions_required) for algebra in AlgebraType]
    assert got == [("GL", True), ("A", True), ("B", False), ("C", False), ("D", False)]
    assert AlgebraType("A") is AlgebraType["A"] is AlgebraType.A


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_a_counts(n):
    assert len(list(enumerate_specs(AlgebraType.A, n))) == 4 ** (n - 1)


@pytest.mark.parametrize("algebra", list(AlgebraType))
def test_enumerated_specs_validate_and_roundtrip(algebra):
    n_max = 5 if algebra.full_compositions_required else 4
    seen = set()
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            assert validate(spec).ok
            text = format_spec(spec)
            assert text not in seen, "duplicate spec emitted"
            seen.add(text)
            assert parse_spec(text) == spec


SPEC_FUNCTIONS = (
    tail,
    build_meander,
    index_combinatorial,
    index_closed_form,
    classify_frobenius,
    admissible_mask,
    seaweed_basis,
    delta_of_spec,
    check_spec,
)
INVALID_SPECS = (
    SeaweedSpec(AlgebraType.A, 3, (4, -1), (3,)),  # parts-positive
    SeaweedSpec(AlgebraType.C, 2, (1,), (2,)),  # top-sum-ge-bottom-sum
    SeaweedSpec(AlgebraType.D, 3, (4,), ()),  # top-sum-le-n
)


@pytest.mark.parametrize("spec", INVALID_SPECS, ids=str)
@pytest.mark.parametrize("function", SPEC_FUNCTIONS, ids=lambda f: f.__name__)
def test_public_functions_reject_invalid_specs(function, spec):
    with pytest.raises(InvalidSpecError):
        function(spec)
