"""Admissible masks, bases, brackets and structure constants."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from seaweeds import matrices
from seaweeds.matrices import (
    ClosureError,
    JacobiError,
    LieData,
    MaskSymmetryError,
    SparseIntMatrix,
    ZeroEntryError,
    admissible_mask,
    bracket,
    lie_from_structure_constants,
    parse_structure_constants,
    seaweed_basis,
    sparse,
)
from seaweeds.specs import AlgebraType, enumerate_specs, parse_spec

from reference_sweeps import reference_basis, reference_brackets, reference_mask


def test_bracket_sl2_relation():
    e12 = sparse(2, {(1, 2): 1})
    e21 = sparse(2, {(2, 1): 1})
    assert bracket(e12, e21) == sparse(2, {(1, 1): 1, (2, 2): -1})


def test_bracket_self_is_zero():
    x = sparse(3, {(1, 2): 2, (3, 1): -1})
    assert bracket(x, x) == sparse(3, {})


def test_bracket_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        bracket(sparse(2, {(1, 2): 1}), sparse(3, {(2, 1): 1}))


def test_bracket_jacobi_random():
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.randint(2, 5)

        def rand():
            return sparse(
                dim,
                {
                    (rng.randint(1, dim), rng.randint(1, dim)): rng.randint(-4, 4)
                    for _ in range(3)
                },
            )

        x, y, z = rand(), rand(), rand()
        total = {}
        for m in (bracket(x, bracket(y, z)), bracket(z, bracket(x, y)), bracket(y, bracket(z, x))):
            for cell, v in m.entries.items():
                total[cell] = total.get(cell, 0) + v
        assert not any(total.values())


def _dense_commutator(x, y):
    dim = x.dim
    a = [[x.entries.get((i, j), 0) for j in range(1, dim + 1)] for i in range(1, dim + 1)]
    b = [[y.entries.get((i, j), 0) for j in range(1, dim + 1)] for i in range(1, dim + 1)]
    return {
        (i + 1, j + 1): v
        for i in range(dim)
        for j in range(dim)
        if (v := sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(dim)))
    }


def test_bracket_matches_dense_commutator_on_fuzz():
    rng = random.Random(23)
    for _ in range(2000):
        dim = rng.randint(1, 5)

        def rand():
            cells = rng.randint(0, dim * dim)
            return sparse(
                dim,
                {
                    (rng.randint(1, dim), rng.randint(1, dim)): rng.randint(-5, 5)
                    for _ in range(cells)
                },
            )

        x, y = rand(), rand()
        assert bracket(x, y).entries == _dense_commutator(x, y), (x, y)


def _spans(lie, coeffs, target):
    total = {}
    for k, c in coeffs.items():
        for cell, v in lie.basis[k].entries.items():
            total[cell] = total.get(cell, 0) + c * v
    return {cell: v for cell, v in total.items() if v} == target.entries


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 4), (AlgebraType.A, 4), (AlgebraType.B, 3), (AlgebraType.C, 3), (AlgebraType.D, 3)],
)
def test_structure_constants_cover_every_pair(algebra, n_max):
    # Pairs that share no index are never bracketed; every pair's
    # commutator must still equal its stored combination (none if absent).
    specs = [s for n in range(1, n_max + 1) for s in enumerate_specs(algebra, n)]
    if algebra is AlgebraType.C:
        specs.append(parse_spec("C14:7|7/11"))
    for spec in specs:
        lie = seaweed_basis(spec)
        for i in range(lie.dimension):
            for j in range(i + 1, lie.dimension):
                product = bracket(lie.basis[i], lie.basis[j])
                assert _spans(lie, lie.brackets.get((i, j), {}), product), (spec, i, j)


def test_mask_gl5_figure():
    mask = admissible_mask(parse_spec("GL5:4|1/2|1|2"))
    assert len(mask.cells) == 13
    # Star pattern of the defining matrix form: row 4 reaches every column.
    assert {(4, j) for j in range(1, 6)} <= mask.cells
    assert (5, 1) not in mask.cells


def test_mask_c5_figure():
    mask = admissible_mask(parse_spec("C5:1|4/3"))
    assert mask.dim == 10
    assert len(mask.cells) == 34
    for cell in [(1, 2), (1, 3), (5, 2), (4, 7), (9, 6), (8, 10), (10, 10)]:
        assert cell in mask.cells
    for cell in [(2, 1), (1, 4), (6, 5), (10, 1)]:
        assert cell not in mask.cells


def test_mask_gl_full():
    mask = admissible_mask(parse_spec("GL3:3/3"))
    assert len(mask.cells) == 9


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 7), (AlgebraType.A, 7), (AlgebraType.B, 5), (AlgebraType.C, 5), (AlgebraType.D, 5)],
)
def test_span_mask_and_basis_equal_the_cell_by_cell_reference(algebra, n_max):
    # the row spans give the same cells, and the basis in the order of the sorted cells
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            mask = admissible_mask(spec)
            assert mask.cells == reference_mask(spec), spec
            basis = seaweed_basis(spec).basis
            assert all(x.dim == mask.dim for x in basis), spec
            expected = [list(entries.items()) for entries in reference_basis(spec)]
            assert [list(x.entries.items()) for x in basis] == expected, spec


def test_masks_are_antidiagonal_symmetric():
    for text in ("B5:3|2/4", "C5:1|4/3", "D5:1|4/2", "D9:4|3|2/2|3|1"):
        mask = admissible_mask(parse_spec(text))
        d = mask.dim
        assert {(d + 1 - j, d + 1 - i) for i, j in mask.cells} == mask.cells


@pytest.mark.parametrize(
    "text, dim",
    [
        ("A5:4|1/2|1|2", 12),
        ("GL5:4|1/2|1|2", 13),
        ("C1:/", 3),  # full sp(2)
        ("B5:3|2/4", 16),
    ],
)
def test_seaweed_dimensions(text, dim):
    assert seaweed_basis(parse_spec(text)).dimension == dim


def test_lie_data_carries_the_spec_of_a_seaweed_only():
    spec = parse_spec("C5:1|4/3")
    assert seaweed_basis(spec).spec == spec
    assert lie_from_structure_constants({(0, 1): {1: 1}}).spec is None


def test_gl_dimension_formula_matches_mask():
    for n in range(1, 6):
        for spec in enumerate_specs(AlgebraType.GL, n):
            lie = seaweed_basis(spec)
            formula = (
                sum(a * (a + 1) // 2 for a in spec.top)
                + sum(b * (b + 1) // 2 for b in spec.bottom)
                - n
            )
            assert lie.dimension == formula == len(admissible_mask(spec).cells)
            # The traceless version drops exactly one diagonal direction.
            sl = seaweed_basis(parse_spec(str(spec).replace("GL", "A", 1)))
            assert sl.dimension == lie.dimension - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ambient_dimensions(n):
    assert seaweed_basis(parse_spec(f"B{n}:/")).dimension == n * (2 * n + 1)
    assert seaweed_basis(parse_spec(f"C{n}:/")).dimension == n * (2 * n + 1)
    assert seaweed_basis(parse_spec(f"D{n}:/")).dimension == n * (2 * n - 1)


def test_basis_supported_in_mask_and_closed():
    # closure is asserted during construction; here we recheck support.
    for text in ("C5:1|4/3", "B5:3|2/4", "D5:1|4/2", "A5:4|1/2|1|2"):
        spec = parse_spec(text)
        mask = admissible_mask(spec)
        lie = seaweed_basis(spec)
        for elt in lie.basis:
            assert set(elt.entries) <= set(mask.cells)
        for (i, j), coeffs in lie.brackets.items():
            assert all(k < lie.dimension for k in coeffs)


def test_structure_constant_antisymmetry():
    lie = seaweed_basis(parse_spec("C3:1|2/2"))
    for (i, j), coeffs in lie.brackets.items():
        flipped = lie.bracket_coeffs(j, i)
        assert flipped == {k: -v for k, v in coeffs.items()}


EPILOGUE_TEMPLATE = """
# four-dimensional family, bracket rows in e_i e_j -> e_k:coeff form
1 4 -> 1:-1
2 3 -> 1:-1
2 4 -> 3:-1
3 4 -> 3:-1{z_term}
"""


def epilogue_family(z: int):
    text = EPILOGUE_TEMPLATE.format(z_term=f",2:{z}" if z else "")
    return lie_from_structure_constants(parse_structure_constants(text))


def test_epilogue_family_is_valid():
    for z in (0, -2, 3):
        lie = epilogue_family(z)
        assert lie.dimension == 4


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 5), (AlgebraType.A, 5), (AlgebraType.B, 4), (AlgebraType.C, 4), (AlgebraType.D, 4)],
)
def test_lead_cells_belong_to_one_element(algebra, n_max):
    # the decomposition of brackets reads each coefficient off this cell
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            basis = seaweed_basis(spec).basis
            touched = {}
            for elt in basis:
                for cell in elt.entries:
                    touched[cell] = touched.get(cell, 0) + 1
            assert all(touched[min(elt.entries)] == 1 for elt in basis), spec


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 5), (AlgebraType.A, 5), (AlgebraType.B, 4), (AlgebraType.C, 4), (AlgebraType.D, 4)],
)
def test_bracket_table_equals_the_commutator_reference(algebra, n_max):
    # the one-pass table against one commutator matrix per pair, exhaustively
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            assert lie.brackets == reference_brackets(lie.basis), spec
            assert list(lie.brackets) == sorted(lie.brackets), spec
            assert all(i < j for i, j in lie.brackets), spec


def test_bracket_table_peaks_at_most_1_25_times_what_it_keeps():
    # the table is built on the first read of lie.brackets, one element at a
    # time, so only one element's products are held beside the table and basis
    seaweed_basis(parse_spec("A3:2|1/3")).brackets  # one-time allocations, outside the trace
    for text, dim in (("A20:7|13/20", 308), ("C20:10|10/19", 282), ("B16:8|8/15", 178), ("D16:6|10/13", 160)):
        tracemalloc.start()
        try:
            lie = seaweed_basis(parse_spec(text))
            lie.brackets
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lie.dimension == dim, (text, lie.dimension)
        assert peak <= 1.25 * kept, (text, peak, kept, peak / kept)


@pytest.mark.parametrize(
    "text, dropped",
    [
        ("GL2:2/2", 0),
        ("A3:3/3", 7),
        ("B2:1/1", 1),
        ("C2:2/2", 3),
        ("D3:3/3", 0),
        # root vectors that are brackets of two kept ones: e_13 = [e_12, e_23]
        ("A3:3/3", 1),
        ("C3:3/3", 2),
        ("D4:4/4", 2),
    ],
)
def test_bracket_outside_the_span_raises(text, dropped):
    spec = parse_spec(text)
    basis = seaweed_basis(spec).basis
    del basis[dropped]
    with pytest.raises(ClosureError):
        matrices._bracket_table(spec, basis, matrices._cell_index(basis))


def test_non_integral_coefficient_raises():
    # with 2 e_11 in place of e_11, [e_12, e_21] = e_11 - e_22 needs 1/2
    spec = parse_spec("GL2:2/2")
    basis = seaweed_basis(spec).basis
    assert basis[0] == sparse(2, {(1, 1): 1})
    basis[0] = sparse(2, {(1, 1): 2})
    with pytest.raises(ClosureError):
        matrices._bracket_table(spec, basis, matrices._cell_index(basis))


def test_parse_structure_constants_rejects_indices_below_one():
    for text in ("0 1 -> 1:1", "1 2 -> 0:1", "2 -1 -> 1:1"):
        with pytest.raises(ValueError, match="line 2"):
            parse_structure_constants("1 2 -> 2:1\n" + text)


def test_parse_structure_constants_rejects_zero_denominator():
    with pytest.raises(ValueError, match="line 2"):
        parse_structure_constants("1 2 -> 2:1\n1 2 -> 2:1/0")


@pytest.mark.parametrize(
    "line",
    ["2 3 -> 3:1e5", "2 3 -> 3:1.5", "2 3 -> 3:1_0", "2 3 -> 3:\uff13", "2 \uff13 -> 3:1", "2 3 -> \uff13:1", "2 3 -> 3:1e10000000"],
)
def test_parse_structure_constants_rejects_numbers_beyond_digits_and_p_over_q(line):
    # exponents, decimal points, underscores and non-ASCII digits (U+FF13 is
    # a fullwidth 3), which Fraction or int would read, in a coefficient or an index
    with pytest.raises(ValueError, match="line 2: .* is not (ASCII digits|an integer or p/q)"):
        parse_structure_constants("1 2 -> 2:1\n" + line)
    assert parse_structure_constants("1 2 -> 2:1/2, 3:-3") == {(0, 1): {1: Fraction(1, 2), 2: Fraction(-3)}}


def test_heisenberg_table():
    lie = lie_from_structure_constants({(0, 1): {2: 1}})
    assert lie.dimension == 3
    assert lie.bracket_coeffs(1, 0) == {2: -1}


@pytest.mark.parametrize(
    "table, dimension, message",
    [
        ({(-1, 1): {0: 1}}, None, "e_0 is outside e_1..e_2"),  # would wrap to the last index
        ({(0, 5): {1: 1}}, 3, "e_6 is outside e_1..e_3"),
        ({(0, 1): {5: 1}}, 3, "e_6 is outside e_1..e_3"),
    ],
)
def test_structure_constants_reject_an_index_outside_the_dimension(table, dimension, message):
    with pytest.raises(ValueError, match=message):
        lie_from_structure_constants(table, dimension=dimension)


def test_jacobi_violation_reports_triple():
    bad = {(0, 1): {2: 1}, (0, 2): {0: 1}}
    with pytest.raises(JacobiError) as excinfo:
        lie_from_structure_constants(bad)
    assert excinfo.value.triple == (0, 1, 2)


def test_jacobi_reports_the_smallest_failing_triple():
    # the failing table above on (3, 4, 5), listed first; then a failure on
    # (0, 1, 2) whose brackets leave its first pair (0, 1) commuting
    later = {(3, 4): {5: 1}, (3, 5): {3: 1}}
    earlier = {(0, 2): {0: 1}, (1, 2): {2: 1}}
    for table, triple in ((later, (3, 4, 5)), (earlier, (0, 1, 2)), ({**later, **earlier}, (0, 1, 2))):
        with pytest.raises(JacobiError) as excinfo:
            lie_from_structure_constants(table)
        assert excinfo.value.triple == triple


def test_jacobi_examines_only_triples_with_a_bracket(monkeypatch):
    # each examined triple reads its three brackets from _check_jacobi itself
    reads = []
    original = LieData.bracket_coeffs

    def counting(self, i, j):
        if sys._getframe(1).f_code.co_name == "_check_jacobi":
            reads.append((i, j))
        return original(self, i, j)

    monkeypatch.setattr(LieData, "bracket_coeffs", counting)
    # the triples that hold a listed pair and whose third index a listed pair
    # names: none for one pair, (0, 1, 59) for two, none for one pair on a
    # dimension of a million; an index no pair names brackets to zero
    for text, triples in (
        ("1 60 -> 1:1\n", 0),
        ("1 60 -> 1:1\n2 60 -> 2:1\n", 1),
        ("1 2 -> 1000000:1\n", 0),
    ):
        lie = lie_from_structure_constants(parse_structure_constants(text))
        reads.clear()
        matrices._check_jacobi(lie)
        assert len(reads) == 3 * triples, text


def test_parse_structure_constants_rejects_repeated_entries():
    for text in ("1 2 -> 3:1\n1 2 -> 3:1", "1 2 -> 3:1\n2 3 -> 1:1, 1:2"):
        with pytest.raises(ValueError, match="line 2"):
            parse_structure_constants(text)
    # a consistent (j, i) mate is the same bracket, not a repeat
    table = parse_structure_constants("1 2 -> 3:1/2\n2 1 -> 3:-1/2")
    assert lie_from_structure_constants(table).brackets == {(0, 1): {2: Fraction(1, 2)}}


def test_parse_structure_constants_rationals():
    table = parse_structure_constants("1 2 -> 1:1/2, 3:-2\n")
    assert table == {(0, 1): {0: Fraction(1, 2), 2: Fraction(-2)}}
    with pytest.raises(ValueError):
        parse_structure_constants("1 2 3:1")


def test_explicit_zero_entry_raises():
    with pytest.raises(ZeroEntryError):
        SparseIntMatrix(2, {(1, 1): 1, (1, 2): 0})
    with pytest.raises(ZeroEntryError):
        SparseIntMatrix(2, {(1, 2): 0})


def test_sparse_int_matrix_equality_hash_and_repr():
    x = SparseIntMatrix(2, {(1, 2): 1})
    assert x == SparseIntMatrix(2, {(1, 2): 1})
    assert x != SparseIntMatrix(3, {(1, 2): 1})
    assert x != SparseIntMatrix(2, {(1, 2): -1})
    assert x != ((1, 2), 1)
    assert hash(x) == hash(SparseIntMatrix(2, {(1, 2): 1}))
    assert {x, SparseIntMatrix(2, {(1, 2): 1}), sparse(2, {(1, 2): 1, (2, 1): 0})} == {x}
    assert repr(x) == "SparseIntMatrix(dim=2, entries={(1, 2): 1})"


def test_asymmetric_mask_raises(monkeypatch):
    # Blocks that are not a palindrome around the middle break the
    # antidiagonal symmetry of a B/C/D mask.
    monkeypatch.setattr(matrices, "_symmetric_blocks", lambda spec, parts: list(parts) + [3])
    with pytest.raises(MaskSymmetryError):
        admissible_mask(parse_spec("C2:1/1"))
