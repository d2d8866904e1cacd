"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison here is exact; there are no tolerances anywhere.  The
oracle sweeps are the heavyweight part and stay well inside their
stated time budgets on ordinary hardware.
"""

import time
from fractions import Fraction

from seaweeds import oracle
from seaweeds.formulas import classify_frobenius, index_combinatorial
from seaweeds.matrices import _check_jacobi, admissible_mask, lie_from_structure_constants, seaweed_basis
from seaweeds.oracle import ad_spectrum
from seaweeds.specs import AlgebraType, enumerate_specs, format_spec, parse_spec
from seaweeds.sweep import run_sweep
from seaweeds.delta import delta_of_spec

from reference_sweeps import delta_congruence_sweep, xi_tail2_sweep, xi_tail4_sweep

FIXTURES = {
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
    "C8:4|4/7": 0,
    "C8:5|3/6": 0,
    "C8:7|1/5": 0,
    "D8:6|2/5": 0,
    "D9:3|6/6": 0,
    "D10:4|6/7": 0,
    "D14:5|9/9": 0,
    "D22:9|13/17": 2,
}


def test_criterion_1_paper_fixture_suite():
    start = time.monotonic()
    for text, expected in FIXTURES.items():
        got = index_combinatorial(parse_spec(text)).index
        assert got == expected, f"{text}: expected {expected}, got {got}"
    assert index_combinatorial(parse_spec("D10:6|4/7")).index != 0
    assert classify_frobenius(parse_spec("D10:4|6/7")).certificate["xi"] == Fraction(3, 10)
    assert classify_frobenius(parse_spec("D10:6|4/7")).certificate["xi"] == Fraction(9, 10)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (paper fixtures, {len(FIXTURES) + 3} checks, {elapsed:.2f}s): PASS")


def test_criterion_2_oracle_equals_combinatorial(monkeypatch):
    # seeded dense trials only: with no meander trial, the oracle's answer
    # owes nothing to the meander it is checked against
    monkeypatch.setattr(oracle, "_meander_functional", lambda lie: None)
    start = time.monotonic()
    total = 0
    for algebra in (AlgebraType.GL, AlgebraType.A):
        report = run_sweep(algebra, n_max=6, trials=5, seed=0)
        assert report.mismatches == [], report.mismatches[:3]
        total += report.specs_checked
    assert len(list(enumerate_specs(AlgebraType.A, 6))) == 1024
    for algebra in (AlgebraType.B, AlgebraType.C, AlgebraType.D):
        report = run_sweep(algebra, n_max=5, trials=5, seed=0)
        assert report.mismatches == [], report.mismatches[:3]
        total += report.specs_checked
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (oracle == combinatorial, {total} specs, {elapsed:.1f}s): PASS")


def test_criterion_3_closed_form_equals_combinatorial():
    from seaweeds.formulas import index_closed_form

    start = time.monotonic()
    checked = applicable = 0
    for algebra in AlgebraType:
        n_max = 6 if algebra.full_compositions_required else 5
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                checked += 1
                closed = index_closed_form(spec)
                if closed is None:
                    continue
                applicable += 1
                assert closed[0] == index_combinatorial(spec).index, (format_spec(spec), closed)
    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 3 (closed form == combinatorial on {applicable}/{checked} "
        f"applicable specs, {elapsed:.1f}s): PASS"
    )


def test_criterion_4_classifier_soundness_and_xi_sweeps():
    start = time.monotonic()
    checked = 0
    for algebra in AlgebraType:
        n_max = 6 if algebra.full_compositions_required else 5
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                verdict = classify_frobenius(spec)
                assert verdict.frobenius == (index_combinatorial(spec).index == 0), spec
                checked += 1
    tail2 = xi_tail2_sweep(40)
    tail4 = xi_tail4_sweep(44)
    assert tail2 == [], tail2[:3]
    assert tail4 == [], tail4[:3]
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"classifier sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 4 (classifier sound on {checked} specs; xi sweeps to n=40/44 clean, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_5_delta_congruence():
    start = time.monotonic()
    failures = delta_congruence_sweep(20)
    assert failures == [], failures[:3]
    sigma_report = delta_of_spec(parse_spec("A10:6|4/7|3"))
    assert sigma_report.sigma == (4, 3, 2, 1, 10, 9, 8, 7, 6, 5)
    assert sigma_report.canonical_delta == 9
    tau_report = delta_of_spec(parse_spec("A8:1|2|5/8"))
    assert tau_report.sigma == (1, 4, 7, 3, 6, 2, 5, 8)
    assert sorted(tau_report.differences) == [1, 3, 3, 3, 3, 3, 4, 4]
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 5 (delta congruence for n<=20 plus tour fixtures, {elapsed:.1f}s): PASS")


def test_criterion_6_spectrum_suite():
    start = time.monotonic()
    report = ad_spectrum(seaweed_basis(parse_spec("A4:2|2/1|3")))
    assert report.eigenvalues == {-1: 1, 0: 3, 1: 3, 2: 1}

    checked = 0
    for algebra in AlgebraType:
        for n in range(1, 6):
            for spec in enumerate_specs(algebra, n):
                if index_combinatorial(spec).index != 0:
                    continue
                spectrum = ad_spectrum(seaweed_basis(spec))
                assert spectrum.integral, format_spec(spec)
                assert spectrum.unbroken, format_spec(spec)
                assert spectrum.symmetric_about_half, format_spec(spec)
                checked += 1

    for z in range(-3, 4):
        table = {
            (0, 3): {0: -1},
            (1, 2): {0: -1},
            (1, 3): {2: -1},
            (2, 3): {k: v for k, v in {2: -1, 1: z}.items() if v},
        }
        family = lie_from_structure_constants(table)
        spectrum = ad_spectrum(family)
        assert spectrum.integral == (z in (0, -2)), f"z={z}"
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 6 (spectra: fixture, {checked} Frobenius seaweeds, z family, {elapsed:.1f}s): PASS")


def test_criterion_7_construction_properties():
    start = time.monotonic()
    built = 0
    # Closure is asserted on the first read of lie.brackets, which
    # _check_jacobi makes; Jacobi is verified on the resulting structure
    # constants here.
    for algebra in AlgebraType:
        for n in range(1, 5):
            for spec in enumerate_specs(algebra, n):
                lie = seaweed_basis(spec)
                _check_jacobi(lie)
                built += 1
                mask = admissible_mask(spec)
                if algebra is AlgebraType.GL:
                    formula = (
                        sum(a * (a + 1) // 2 for a in spec.top)
                        + sum(b * (b + 1) // 2 for b in spec.bottom)
                        - n
                    )
                    assert lie.dimension == formula == len(mask.cells)
                elif algebra is AlgebraType.A:
                    assert lie.dimension == len(mask.cells) - 1
                else:
                    d = mask.dim
                    antidiag = sum(1 for i, j in mask.cells if i + j == d + 1)
                    paired = (len(mask.cells) - antidiag) // 2
                    expected = paired + (antidiag if algebra is AlgebraType.C else 0)
                    assert lie.dimension == expected, format_spec(spec)

    for n in range(1, 5):
        assert seaweed_basis(parse_spec(f"B{n}:/")).dimension == n * (2 * n + 1)
        assert seaweed_basis(parse_spec(f"C{n}:/")).dimension == n * (2 * n + 1)
        assert seaweed_basis(parse_spec(f"D{n}:/")).dimension == n * (2 * n - 1)
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 7 (closure+Jacobi+dimensions on {built} bases, {elapsed:.1f}s): PASS")
