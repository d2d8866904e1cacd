"""Kirillov forms, exact ranks, index oracle, principal elements, spectra."""

import hashlib
import random
from fractions import Fraction

import pytest

from seaweeds import cli, matrices, oracle
from seaweeds.formulas import index_combinatorial
from seaweeds.matrices import (
    LieData,
    lie_from_structure_constants,
    parse_structure_constants,
    seaweed_basis,
)
from seaweeds.oracle import (
    NotFrobeniusError,
    NotFrobeniusFunctionalError,
    PrincipalElementError,
    SpectrumOvercountError,
    ad_matrix,
    ad_spectrum,
    index_oracle,
    kernel_dimension,
    kirillov_matrix,
    principal_element,
    random_functional,
    rank_exact,
)
from seaweeds.specs import AlgebraType, enumerate_specs, format_spec, parse_spec
from seaweeds.sweep import run_sweep

from reference_sweeps import (
    reference_center_floor,
    reference_meander_functional,
    reference_scanned_spectrum,
    reference_skew_rank,
    reference_support_cells,
    scan_skew_rank,
)

SL2 = lie_from_structure_constants({(0, 2): {1: 1}, (1, 0): {0: 2}, (1, 2): {2: -2}})


def test_kirillov_zero_functional():
    lie = seaweed_basis(parse_spec("A4:2|2/1|3"))
    matrix = kirillov_matrix(lie, [0] * lie.dimension)
    assert all(all(v == 0 for v in row) for row in matrix)


def test_kirillov_abelian():
    abelian = lie_from_structure_constants({}, dimension=4)
    matrix = kirillov_matrix(abelian, [3, -1, 4, 1])
    assert all(all(v == 0 for v in row) for row in matrix)


def test_kirillov_sl2_dual_to_e():
    matrix = kirillov_matrix(SL2, [1, 0, 0])
    assert matrix == [[0, -2, 0], [2, 0, 0], [0, 0, 0]]
    assert rank_exact(matrix) == 2


def test_kirillov_is_skew():
    lie = seaweed_basis(parse_spec("C3:1|2/2"))
    rng = random.Random(3)
    for _ in range(5):
        f = [rng.randint(-100, 100) for _ in range(lie.dimension)]
        m = kirillov_matrix(lie, f)
        assert all(m[i][j] == -m[j][i] for i in range(len(m)) for j in range(len(m)))
        assert rank_exact(m) % 2 == 0


def test_rank_zero_and_identity():
    assert rank_exact([[0] * 4 for _ in range(4)]) == 0
    assert rank_exact([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 5
    assert rank_exact([]) == 0


def test_rank_of_random_products():
    # Independent oracle: a d x r times r x d product of full-rank random
    # integer factors has rank exactly r (checked by Fraction elimination).
    rng = random.Random(17)
    for _ in range(20):
        d = rng.randint(2, 7)
        r = rng.randint(1, d)
        left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(d)]
        right = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(r)]
        product = [
            [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(d)]
            for i in range(d)
        ]
        expected = _fraction_rank([row[:] for row in product])
        assert rank_exact(product) == expected
        assert expected <= r


def _fraction_rank(matrix):
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_matches_fraction_elimination_on_fuzz():
    rng = random.Random(23)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        assert rank_exact(matrix) == _fraction_rank(matrix)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(nc)]
            for _ in range(nr)
        ]
        # a rational multiple of one row as an extra row keeps the rank
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        matrix.append([scale * v for v in matrix[0]])
        assert rank_exact(matrix) == _fraction_rank(matrix)


def test_rank_is_an_upper_bound_over_f_p():
    # p = 2**61 - 1 vanishes mod p: the kernel can only grow, never shrink
    assert rank_exact([[2**61 - 1]]) == 0
    assert _fraction_rank([[2**61 - 1]]) == 1


def test_rank_of_row_with_denominator_divisible_by_p():
    p = 2**61 - 1
    matrix = [[Fraction(1, p), Fraction(1, 2)], [0, 1]]
    assert _fraction_rank(matrix) == 2
    assert rank_exact(matrix) == 2
    assert kernel_dimension([[Fraction(3, p), Fraction(6, p)], [1, 2]]) == 1


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 4), (AlgebraType.A, 4), (AlgebraType.B, 3), (AlgebraType.C, 3), (AlgebraType.D, 3)],
)
def test_kirillov_kernel_matches_fraction_elimination(algebra, n_max):
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            for seed in range(3):
                matrix = kirillov_matrix(lie, random_functional(random.Random(seed), lie.dimension))
                expected = lie.dimension - _fraction_rank(matrix) if matrix else 0
                assert kernel_dimension(matrix) == expected, (spec, seed)


def _rescaled(lie, rng):
    # x_i -> s_i x_i: [s_i x_i, s_j x_j] = sum_k (s_i s_j c_k / s_k) (s_k x_k)
    s = [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(lie.dimension)]
    brackets = {
        (i, j): {k: s[i] * s[j] * c / s[k] for k, c in coeffs.items()} for (i, j), coeffs in lie.brackets.items()
    }
    return LieData(lie.dimension, brackets)


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 4), (AlgebraType.A, 4), (AlgebraType.B, 3), (AlgebraType.C, 3), (AlgebraType.D, 3)],
)
def test_sparse_kirillov_kernel_equals_the_dense_matrix(algebra, n_max):
    rng = random.Random(41)
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            rescaled = _rescaled(lie, rng)
            for seed in range(3):
                f = random_functional(random.Random(seed), lie.dimension)
                for table in (lie, rescaled):
                    dense = kernel_dimension(kirillov_matrix(table, f))
                    assert oracle._kirillov_kernel(table, f) == dense, (spec, seed, table is rescaled)


def test_kirillov_kernel_with_a_denominator_divisible_by_p_is_an_upper_bound():
    # the form's one scale is p: the entry 1/p at (1, 2) becomes 1 and the
    # entry 1 at (3, 4) becomes p = 0, so the kernel 3 only bounds the rational 1
    lie = LieData(5, {(0, 1): {4: Fraction(1, oracle.P)}, (2, 3): {4: 1}})
    f = [0, 0, 0, 0, 1]
    assert _fraction_rank(kirillov_matrix(lie, f)) == 4
    assert oracle._kirillov_kernel(lie, f) == 3


def _pivot_rows(rank, rows):
    # the rank and the pivot rows passed to oracle._pivot_pair, in order
    pivots = []
    pivot_pair = oracle._pivot_pair

    def record(rows, i):
        pivots.append(i)
        return pivot_pair(rows, i)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_pivot_pair", record)
        return rank(rows), pivots


def _assert_skew_mod_p(rows):
    # skew mod p with no stored zero and no empty row: B[r][c] + B[c][r] = p, each in 1..p-1
    for r, row in rows.items():
        assert row, r
        for c, v in row.items():
            assert 0 < v < oracle.P, (r, c, v)
            assert c in rows and rows[c].get(r, 0) + v == oracle.P, (r, c)


def _skew_checked_rank(rows):
    # oracle._skew_rank with the rows checked skew after every pivot pair, and
    # every row the pair returns as kept still stored
    pivot_pair = oracle._pivot_pair

    def checked(rows, i):
        kept = pivot_pair(rows, i)
        _assert_skew_mod_p(rows)
        assert all(r in rows for r in kept), (i, kept)
        return kept

    _assert_skew_mod_p(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_pivot_pair", checked)
        return oracle._skew_rank(rows)


def _skew_forms(spec):
    # the 0/1 meander form and one seeded dense form of a seaweed
    lie = seaweed_basis(spec)
    f = oracle._meander_functional(lie)[0]
    dense = random_functional(random.Random(5), lie.dimension)
    return {"meander": oracle._support_rows(lie, f), "dense": oracle._kirillov_rows(lie, dense)[0]}


def _small_skew_forms(algebra, n_max):
    # (spec, form name) and the rows of both forms of every seaweed of the family with n <= n_max
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            for name, rows in _skew_forms(spec).items():
                yield (spec, name), rows


def _check_the_queue_takes_the_scans_pivots(rows):
    expected = _pivot_rows(scan_skew_rank, {r: dict(row) for r, row in rows.items()})
    return _pivot_rows(oracle._skew_rank, rows) == expected


# The forms of each family whose first pivots come from the heap at _SCAN_ROWS = 16;
# kept out of the test ids, so retuning the threshold renames no test.
_QUEUED_FORMS = {AlgebraType.GL: 44, AlgebraType.A: 30, AlgebraType.B: 34, AlgebraType.C: 34, AlgebraType.D: 24}


@pytest.mark.parametrize(
    "algebra, n_max", [(AlgebraType.GL, 5), (AlgebraType.A, 5), (AlgebraType.B, 4), (AlgebraType.C, 4), (AlgebraType.D, 4)]
)
def test_the_pivot_queue_takes_the_scans_pivots(algebra, n_max):
    above = 0
    for form, rows in _small_skew_forms(algebra, n_max):
        above += len(rows) > oracle._SCAN_ROWS
        assert _check_the_queue_takes_the_scans_pivots(rows), form
    assert above == _QUEUED_FORMS[algebra]


@pytest.mark.parametrize("text, form, rows", [("C14:7|7/11", "meander", 120), ("A8:4|4/8", "dense", 47)])
def test_the_pivot_queue_takes_the_scans_pivots_on_larger_forms(text, form, rows):
    skew = _skew_forms(parse_spec(text))[form]
    assert len(skew) == rows
    assert _check_the_queue_takes_the_scans_pivots(skew)


@pytest.mark.parametrize(
    "algebra, n_max", [(AlgebraType.GL, 5), (AlgebraType.A, 5), (AlgebraType.B, 4), (AlgebraType.C, 4), (AlgebraType.D, 4)]
)
def test_skew_rank_equals_the_two_pass_reference_and_stays_skew(algebra, n_max):
    # the rank-2 update against the two _add_multiple passes per row, on
    # every meander and seeded dense form, with the rows checked after every pivot pair
    for form, rows in _small_skew_forms(algebra, n_max):
        expected = reference_skew_rank({r: dict(row) for r, row in rows.items()})
        assert _skew_checked_rank(rows) == expected, form


def test_kirillov_matrix_rejects_a_functional_of_the_wrong_length():
    lie = seaweed_basis(parse_spec("A3:2|1/3"))
    for call in (kirillov_matrix, oracle._kirillov_kernel, principal_element):
        with pytest.raises(ValueError, match="expected"):
            call(lie, [1] * (lie.dimension + 1))


def test_index_oracle_fixtures():
    assert index_oracle(seaweed_basis(parse_spec("A5:4|1/2|1|2"))) == 0
    assert index_oracle(seaweed_basis(parse_spec("D5:1|4/2"))) == 2
    for n in (1, 2, 3):
        assert index_oracle(seaweed_basis(parse_spec(f"GL{n}:{n}/{n}"))) == n


def test_index_oracle_deterministic():
    lie = seaweed_basis(parse_spec("C4:2|2/3"))
    first = index_oracle(lie, trials=5, seed=0)
    second = index_oracle(lie, trials=5, seed=0)
    assert first == second
    assert index_oracle(lie, trials=5, seed=12345) == first


@pytest.mark.parametrize(
    "text, dimension, index, calls",
    [
        ("A4:4/2|2", 11, 1, 1),  # odd dimension: the meander trial reads the floor 1
        # sl3, index 2: its center is 0, so the floor is 0, the meander
        # trial's 2 is dropped and two seeded trials then agree on 2
        ("A3:3/3", 8, 2, 3),
    ],
)
def test_index_oracle_stops_at_the_parity_floor(monkeypatch, text, dimension, index, calls):
    counted = _count_kernels(monkeypatch)
    lie = seaweed_basis(parse_spec(text))
    assert lie.dimension == dimension
    assert index_oracle(lie, trials=5, seed=0) == index
    assert counted == [index] * calls


def _count_kernels(monkeypatch, functionals=None):
    # the kernel dimensions of the oracle's Kirillov kernels, in call order:
    # the meander trial, the seeded trials and the spectrum certificate all
    # rank through the one kernel; the functionals too, if a list is given
    counted = []
    kernel = oracle._kirillov_kernel

    def counted_kernel(lie, f):
        if functionals is not None:
            functionals.append(list(f))
        counted.append(kernel(lie, f))
        return counted[-1]

    monkeypatch.setattr(oracle, "_kirillov_kernel", counted_kernel)
    return counted


def test_index_oracle_runs_on_past_a_degenerate_first_trial(monkeypatch):
    # the meander trial reads 2 above the floor 0 and is dropped; the zero
    # functional reads the whole dimension; the next two trials both read
    # the index, and the second of them stops the oracle
    draw = oracle.random_functional
    draws = []

    def zero_first(rng, dimension):
        draws.append(dimension)
        return [0] * dimension if len(draws) == 1 else draw(rng, dimension)

    monkeypatch.setattr(oracle, "random_functional", zero_first)
    counted = _count_kernels(monkeypatch)
    lie = seaweed_basis(parse_spec("A3:3/3"))
    assert index_oracle(lie, trials=5, seed=0) == 2
    assert counted == [2, 8, 2, 2]


def test_index_oracle_with_one_trial_runs_one_dense_kernel(monkeypatch):
    # the meander trial misses the floor and does not count as a trial
    functionals = []
    counted = _count_kernels(monkeypatch, functionals)
    lie = seaweed_basis(parse_spec("A3:3/3"))
    assert index_oracle(lie, trials=1, seed=0) == 2
    assert counted == [2, 2]
    assert functionals[0] == oracle._meander_functional(lie)[0]


def test_index_oracle_decides_a_frobenius_seaweed_with_one_sparse_kernel(monkeypatch):
    functionals = []
    counted = _count_kernels(monkeypatch, functionals)
    lie = seaweed_basis(parse_spec("A5:4|1/2|1|2"))
    assert index_oracle(lie, trials=5, seed=0) == 0
    assert counted == [0]
    assert set(functionals[0]) == {0, 1}
    assert functionals[0] == oracle._meander_functional(lie)[0]


def test_index_oracle_stops_a_gl_seaweed_at_the_center_floor(monkeypatch):
    # GL runs the meander trial under A's support rule; the shared cuts 1
    # and 4 (blocks {1} and {2, 3, 4}) give a center of dimension 2, and with
    # dimension 8 the floor 2 + 0 is the index, so the one sparse 0/1
    # kernel proves it
    functionals = []
    counted = _count_kernels(monkeypatch, functionals)
    lie = seaweed_basis(parse_spec("GL4:1|3/1|1|2"))
    assert (lie.dimension, oracle._center_floor(lie)) == (8, 2)
    assert index_oracle(lie, trials=5, seed=0) == 2
    assert counted == [2]
    assert set(functionals[0]) == {0, 1}
    assert functionals[0] == oracle._meander_functional(lie)[0]


@pytest.mark.parametrize(
    "text, calls",
    [
        ("A5:4|1/2|1|2", 1),  # the meander trial reads the floor m mod 2 = 0
        ("A4:4/2|2", 1),  # the meander trial reads the floor m mod 2 = 1
        ("A3:3/3", 1),  # the meander trial's 2 misses 0 and seeded trials run
        ("D5:1|4/2", 1),
        ("GL4:1|3/1|1|2", 1),  # the meander trial reads the floor 2
        ("GL3:3/3", 1),
        ("A1:1/1", 0),  # dimension 0: answered before any floor
    ],
)
def test_index_oracle_computes_the_center_floor_once_per_call(monkeypatch, text, calls):
    lie = seaweed_basis(parse_spec(text))
    floors = _count_calls(monkeypatch, "_center_floor")
    index_oracle(lie, trials=5, seed=0)
    assert len(floors) == calls


@pytest.mark.parametrize(
    "text, index, kernels",
    [
        # a cut shared by both compositions splits off a central direction:
        # each meander trial reads the center floor and answers alone
        ("A3:1|2/1|2", 2, (3, 1)),
        ("B3:1|2/1|2", 3, (3, 1)),
        ("C3:1|2/1|2", 3, (3, 1)),
        ("GL3:1|2/1|2", 3, (3, 1)),
    ],
)
def test_center_floor_saves_the_seeded_trials(monkeypatch, text, index, kernels):
    # the kernels with the center floor read as 0, then as it is; without
    # it each meander trial is dropped and two seeded trials agree
    lie = seaweed_basis(parse_spec(text))
    counts = []
    for floor in (lambda lie: 0, oracle._center_floor):
        monkeypatch.setattr(oracle, "_center_floor", floor)
        counted = _count_kernels(monkeypatch)
        assert index_oracle(lie, trials=5, seed=0) == index
        counts.append(len(counted))
        monkeypatch.undo()
    assert tuple(counts) == kernels


def _center_dimension(lie):
    # z = sum c_i x_i is central iff sum_i c_i [x_i, x_j] = 0 for every j:
    # one row per (j, k), solved by exact Fraction elimination
    rows = {}
    for (i, j), coeffs in lie.brackets.items():
        for k, v in coeffs.items():
            rows.setdefault((j, k), [Fraction(0)] * lie.dimension)[i] += v
            rows.setdefault((i, k), [Fraction(0)] * lie.dimension)[j] -= v
    return lie.dimension - (_fraction_rank(list(rows.values())) if rows else 0)


def test_center_floor_equals_the_center_dimension():
    checked = central = 0
    families = [(AlgebraType.GL, 4), (AlgebraType.A, 4), (AlgebraType.B, 3), (AlgebraType.C, 3), (AlgebraType.D, 3)]
    for algebra, n_max in families:
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                lie = seaweed_basis(spec)
                center = oracle._center_floor(lie)
                assert center == _center_dimension(lie), spec
                checked += 1
                central += center > 0
    assert checked == 341 and central
    assert oracle._center_floor(SL2) == 0
    assert oracle._center_floor(lie_from_structure_constants({}, dimension=4)) == 0


def test_center_floor_equals_the_cell_interval_reference():
    # the shared cuts of the compositions against the merged intervals of the basis cells
    checked = 0
    families = [(AlgebraType.GL, 6), (AlgebraType.A, 6), (AlgebraType.B, 5), (AlgebraType.C, 5), (AlgebraType.D, 5)]
    for algebra, n_max in families:
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                lie = seaweed_basis(spec)
                assert oracle._center_floor(lie) == reference_center_floor(lie), spec
                checked += 1
    assert checked == 5463


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 6), (AlgebraType.A, 6), (AlgebraType.B, 5), (AlgebraType.C, 5), (AlgebraType.D, 5)],
)
def test_center_floor_never_exceeds_the_index(algebra, n_max):
    tight = 0
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            center = oracle._center_floor(lie)
            floor = center + (lie.dimension - center) % 2
            index = index_combinatorial(spec).index
            assert lie.dimension % 2 <= floor <= index, spec
            tight += lie.dimension % 2 < floor == index
    assert tight


@pytest.mark.parametrize(
    "lie, kernels",
    [
        (SL2, [1]),  # odd dimension 3: the first trial reads the floor 1
        (lie_from_structure_constants(parse_structure_constants("1 2 -> 2:1/2\n")), [0]),  # the affine line
        (lie_from_structure_constants({(0, 1): {2: 1}}), [1]),  # Heisenberg
        # abelian: a table's center floor is 0, so the floor is 0 and only
        # two agreeing trials can answer
        (lie_from_structure_constants({}, dimension=4), [4, 4]),
    ],
    ids=["sl2", "affine", "heisenberg", "abelian"],
)
def test_index_oracle_on_tables_runs_no_meander_trial(monkeypatch, lie, kernels):
    functionals = []
    counted = _count_kernels(monkeypatch, functionals)
    assert oracle._center_floor(lie) == 0
    assert index_oracle(lie, trials=5, seed=0) == kernels[-1]
    assert counted == kernels
    rng = random.Random(0)
    assert functionals == [random_functional(rng, lie.dimension) for _ in kernels]  # seeded draws only


def test_index_oracle_rejects_zero_trials_before_any_kernel(monkeypatch):
    # the meander trial alone would prove index 0 here; it must not answer first
    counted = _count_kernels(monkeypatch)
    with pytest.raises(ValueError, match="trials"):
        index_oracle(seaweed_basis(parse_spec("A5:4|1/2|1|2")), trials=0)
    assert counted == []


def test_index_oracle_equals_the_meander_on_the_benchmark_ranges(monkeypatch):
    # the default oracle, meander trial and center floor included; the
    # kernel count pins how often the floor proves a kernel
    kernels = _count_kernels(monkeypatch)
    ranges = {
        AlgebraType.GL: (1, 5),
        AlgebraType.A: (2, 5),
        AlgebraType.B: (1, 4),
        AlgebraType.C: (1, 4),
        AlgebraType.D: (1, 4),
    }
    checked = 0
    for algebra, (n_min, n_max) in ranges.items():
        report = run_sweep(algebra, n_max=n_max, n_min=n_min, trials=5, seed=1)
        assert report.mismatches == [], report.mismatches[:3]
        checked += report.specs_checked
    assert checked == 1365
    assert len(kernels) == 1806


def test_random_functional_draws_from_f_p():
    rng = random.Random(7)
    values = [v for _ in range(20) for v in random_functional(rng, 50)]
    assert all(0 <= v < oracle.P for v in values)
    assert max(values) > oracle.P // 2  # uniform over F_p, not a small range


@pytest.mark.parametrize("seed", [0, 1, 7, 2022])
@pytest.mark.parametrize("dimension", [0, 1, 12, 57])
def test_random_functional_is_the_randrange_stream(seed, dimension):
    rng = random.Random(seed)
    reference = [rng.randrange(oracle.P) for _ in range(dimension)]
    assert random_functional(random.Random(seed), dimension) == reference


def test_random_functional_redraws_the_value_p():
    # a generator whose first 61-bit draw is P: that draw is dropped and
    # the rest of the stream is the unstubbed generator's
    class PFirst(random.Random):
        drew_p = False

        def getrandbits(self, k):
            assert k == 61
            if not self.drew_p:
                self.drew_p = True
                return oracle.P
            return super().getrandbits(k)

    rng = PFirst(3)
    reference = random.Random(3)
    assert random_functional(rng, 3) == [reference.randrange(oracle.P) for _ in range(3)]
    assert rng.drew_p


@pytest.fixture
def rng_builds(monkeypatch):
    """The seeds of every random.Random built while the test runs."""
    seeds = []

    class Counting(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(oracle.random, "Random", Counting)
    return seeds


def test_a_meander_answered_oracle_seeds_no_rng(rng_builds):
    assert index_oracle(seaweed_basis(parse_spec("A5:4|1/2|1|2"))) == 0
    assert rng_builds == []


def test_a_missed_meander_trial_seeds_one_rng(rng_builds):
    assert index_oracle(seaweed_basis(parse_spec("A3:3/3")), seed=4) == 2
    assert rng_builds == [4]


def test_a_seaweed_spectrum_seeds_no_rng(rng_builds):
    ad_spectrum(seaweed_basis(parse_spec("A4:2|2/1|3")))
    assert rng_builds == []


def test_nonpositive_trials_raise_before_any_draw(rng_builds):
    lie = seaweed_basis(parse_spec("A5:4|1/2|1|2"))
    with pytest.raises(ValueError):
        index_oracle(lie, trials=0)
    assert rng_builds == []


@pytest.mark.parametrize("algebra", list(AlgebraType))
def test_principal_element_raises_exactly_when_the_kernel_is_nonzero(algebra):
    degenerate = solved = 0
    for n in range(1, 5):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            if not lie.dimension:
                continue
            functionals = [random_functional(random.Random(seed), lie.dimension) for seed in range(2)]
            functionals += [[0] * lie.dimension, [1] * lie.dimension]
            for f in functionals:
                kernel = oracle._kirillov_kernel(lie, f)
                try:
                    principal_element(lie, f)
                except NotFrobeniusFunctionalError:
                    assert kernel, (spec, f)
                    degenerate += 1
                else:
                    assert not kernel, (spec, f)
                    solved += 1
    assert degenerate
    assert solved or algebra is AlgebraType.GL  # the identity is central in every GL seaweed


def test_principal_element_requires_nondegenerate():
    lie = seaweed_basis(parse_spec("A4:2|2/1|3"))
    with pytest.raises(NotFrobeniusFunctionalError):
        principal_element(lie, [0] * lie.dimension)


def test_principal_element_rejects_a_wrong_solution(monkeypatch):
    lie = seaweed_basis(parse_spec("A4:2|2/1|3"))
    f = random_functional(random.Random(9), lie.dimension)
    eliminate = oracle._eliminate

    def perturbed(rows):
        # doubles the last pivot, so the back-substituted solution is wrong
        pivots = eliminate(rows)
        col, row = pivots[-1]
        row[col] = 2 * row[col] % oracle.P
        return pivots

    monkeypatch.setattr(oracle, "_eliminate", perturbed)
    with pytest.raises(PrincipalElementError):
        principal_element(lie, f)


def test_principal_element_residual():
    # the defining identity is rechecked inside principal_element
    lie = seaweed_basis(parse_spec("A4:2|2/1|3"))
    rng = random.Random(9)
    f = [rng.randint(-10**6, 10**6) for _ in range(lie.dimension)]
    coords = principal_element(lie, f)
    assert len(coords) == lie.dimension


def test_spectrum_a4_fixture():
    report = ad_spectrum(seaweed_basis(parse_spec("A4:2|2/1|3")))
    assert report.eigenvalues == {-1: 1, 0: 3, 1: 3, 2: 1}
    assert report.integral and report.unbroken and report.symmetric_about_half


def epilogue_family(z):
    table = {
        (0, 3): {0: -1},
        (1, 2): {0: -1},
        (1, 3): {2: -1},
        (2, 3): {2: -1, 1: z},
    }
    return lie_from_structure_constants({k: {i: v for i, v in c.items() if v} for k, c in table.items()})


def test_spectrum_epilogue_family():
    for z in range(-3, 4):
        report = ad_spectrum(epilogue_family(z))
        if z == 0:
            assert report.integral and report.eigenvalues == {0: 2, 1: 2}
        elif z == -2:
            assert report.integral and report.eigenvalues == {-1: 1, 0: 1, 1: 1, 2: 1}
            assert report.unbroken and report.symmetric_about_half
        else:
            assert not report.integral
            assert report.defect == 2
            assert report.eigenvalues == {0: 1, 1: 1}


def test_spectrum_of_a_rational_table():
    # [e1, e2] = e2 / 2: the principal element is 2 e1 + c e2, ad of it has
    # eigenvalue 1 on e2 and 0 on e1
    lie = lie_from_structure_constants(parse_structure_constants("1 2 -> 2:1/2\n"))
    report = ad_spectrum(lie)
    assert report.eigenvalues == {0: 1, 1: 1}
    assert report.integral


@pytest.mark.parametrize("scale", [Fraction(1, 6), Fraction(5, 7), 3])
def test_scanned_spectrum_ignores_the_table_scale(scale):
    # scale * T has the principal element F / scale, whose ad in scale * T is
    # ad(F) in T; the scans reduce it at the scaled table's own scale
    tables = [epilogue_family(z).brackets for z in (0, -2, 1, 3)]
    tables.append(parse_structure_constants("1 2 -> 2:1/2\n"))
    for table in tables:
        scaled = {pair: {k: scale * v for k, v in coeffs.items()} for pair, coeffs in table.items()}
        expected = ad_spectrum(lie_from_structure_constants(table))
        assert ad_spectrum(lie_from_structure_constants(scaled)) == expected, table


def _fraction_solve(matrix, f):
    """Solve B^T c = f by Gauss-Jordan over the rationals; None if singular."""
    m = len(f)
    aug = [[Fraction(matrix[i][j]) for i in range(m)] + [Fraction(f[j])] for j in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]


def test_principal_element_is_the_rational_solution_mod_p():
    families = [(AlgebraType.GL, 4), (AlgebraType.A, 4), (AlgebraType.B, 3), (AlgebraType.C, 3), (AlgebraType.D, 3)]
    cases = 0
    for algebra, n_max in families:
        for n in range(1, n_max + 1):
            for spec in enumerate_specs(algebra, n):
                lie = seaweed_basis(spec)
                for seed in range(3):
                    f = random_functional(random.Random(seed), lie.dimension)
                    if not lie.dimension or kernel_dimension(kirillov_matrix(lie, f)):
                        continue
                    rational = _fraction_solve(kirillov_matrix(lie, f), f)
                    expected = [v.numerator * pow(v.denominator, -1, oracle.P) % oracle.P for v in rational]
                    assert principal_element(lie, f) == expected, (spec, seed)
                    cases += 1
    assert cases == 135


def test_principal_element_of_a_rational_functional():
    # f / 7 defines the same equations f([F, x]) = f(x), so the same F
    lie = seaweed_basis(parse_spec("A4:2|2/1|3"))
    f = random_functional(random.Random(9), lie.dimension)
    assert principal_element(lie, [Fraction(v, 7) for v in f]) == principal_element(lie, f)
    # [e1, e2] = e2 / 2: the form is f_2 / 2, an integer here, while f_1 is not
    lie = lie_from_structure_constants(parse_structure_constants("1 2 -> 2:1/2\n"))
    third = pow(3, -1, oracle.P)
    assert principal_element(lie, [Fraction(1, 3), 2]) == principal_element(lie, [1, 6]) == [2, oracle.P - third]


def test_spectrum_rejects_overcounted_multiplicities(monkeypatch):
    lie = seaweed_basis(parse_spec("A4:2|2/1|3"))
    lie = LieData(lie.dimension, lie.brackets, lie.basis)  # no spec: the scans, not the meander walk

    def overcount(rows, m, shift):
        # every eigenvalue scan reads m - 1
        return m - 1

    monkeypatch.setattr(oracle, "_shifted_kernel", overcount)
    with pytest.raises(SpectrumOvercountError):
        ad_spectrum(lie)


def test_spectrum_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        ad_spectrum(seaweed_basis(parse_spec("A4:2|2/1|3")), trials=0)


def test_spectrum_rejects_non_frobenius():
    # even dimension 8, index 2: every trial is tried and fails
    with pytest.raises(NotFrobeniusError, match="found in 5 trials"):
        ad_spectrum(seaweed_basis(parse_spec("A3:3/3")))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize(
    "lie",
    [
        seaweed_basis(parse_spec("A8:4|4/8")),  # dimension 47
        lie_from_structure_constants(parse_structure_constants("1 3 -> 1:1\n")),  # dimension 3
    ],
    ids=["seaweed", "table"],
)
def test_spectrum_rejects_an_odd_dimension_before_any_kernel(monkeypatch, lie):
    # a skew form on an odd-dimensional space is degenerate: no trial can solve
    assert lie.dimension % 2
    principals = _count_calls(monkeypatch, "principal_element")
    kernels = _count_kernels(monkeypatch)
    with pytest.raises(NotFrobeniusError, match=f"^no nondegenerate functional: dimension {lie.dimension} is odd$"):
        ad_spectrum(lie)
    with pytest.raises(ValueError, match="trials"):  # the trials check comes first
        ad_spectrum(lie, trials=0)
    assert principals == [] and kernels == []


@pytest.mark.parametrize("text", ["A4:2|2/1|3", "B3:1|1|1/", "C5:1|4/3", "D4:1|3/2"])
def test_one_meander_per_spectrum_and_per_meander_trial(monkeypatch, text):
    lie = seaweed_basis(parse_spec(text))
    built = _count_calls(monkeypatch, "meander_of_valid")
    assert oracle._meander_spectrum(lie) is not None
    assert len(built) == 1
    built.clear()
    assert index_oracle(lie) == 0
    assert len(built) == 1


@pytest.mark.parametrize("text", ["A4:2|2/1|3", "B3:1|1|1/", "C5:1|4/3", "D4:1|3/2"])
def test_the_meander_trial_reads_f_alone(monkeypatch, text):
    # the trial builds one meander and runs no component walk; only the
    # spectrum, which reads 2H, walks
    lie = seaweed_basis(parse_spec(text))
    walks = _count_calls(monkeypatch, "components")
    built = _count_calls(monkeypatch, "meander_of_valid")
    assert index_oracle(lie) == 0
    assert (len(walks), len(built)) == (0, 1)
    assert oracle._meander_spectrum(lie) is not None
    assert (len(walks), len(built)) == (1, 2)


def _check_meander_functional(spec):
    # each support cell is a cell of one element only, and that element's
    # lead; f, read off the kept cell index, equals the rule that marks
    # every element meeting the support and the lead-map rule, one 1 per
    # arc and per tail vertex
    lie = seaweed_basis(spec)
    f, meander, _ = oracle._meander_functional(lie)
    assert f == reference_meander_functional(lie, meander), spec
    holders = {}
    for k, x in enumerate(lie.basis):
        for cell in x.entries:
            holders.setdefault(cell, []).append(k)
    lead = {min(x.entries): k for k, x in enumerate(lie.basis)}
    expected = [0] * lie.dimension
    for cell in reference_support_cells(spec, meander):
        assert len(holders.get(cell, ())) == 1, (spec, cell)
        assert lead.get(cell) == holders[cell][0], (spec, cell)
        expected[lead[cell]] = 1
    assert f == expected, spec
    arcs = sum(p // 2 for p in spec.top) + sum(p // 2 for p in spec.bottom)
    assert sum(f) == arcs + len(meander.tail), spec


@pytest.mark.parametrize(
    "algebra, n_max, count",
    [
        (AlgebraType.A, 6, 1365),
        (AlgebraType.B, 5, 911),
        (AlgebraType.C, 5, 911),
        (AlgebraType.D, 5, 911),
        (AlgebraType.GL, 6, 1365),
    ],
)
def test_the_meander_functional_reads_one_lead_per_support_cell(algebra, n_max, count):
    specs = [spec for n in range(1, n_max + 1) for spec in enumerate_specs(algebra, n)]
    for spec in specs:
        _check_meander_functional(spec)
    assert len(specs) == count


@pytest.mark.parametrize("text", ["A60:23|37/60", "B60:30|30/59", "C60:30|30/59", "D60:30|30/57"])
def test_the_meander_functional_reads_one_lead_per_support_cell_at_scale(text):
    _check_meander_functional(parse_spec(text))


def test_the_oracle_builds_one_cell_index_per_seaweed(monkeypatch):
    # the meander trial, both seeded trials and the table read the one kept index
    built = []
    index = matrices._cell_index
    monkeypatch.setattr(matrices, "_cell_index", lambda basis: built.append(basis) or index(basis))
    counted = _count_kernels(monkeypatch)
    lie = seaweed_basis(parse_spec("A8:4|4/8"))
    assert index_oracle(lie, trials=5, seed=0) == 3
    assert counted == [7, 3, 3]
    assert len(built) == 1 and built[0] is lie.basis
    assert lie.cells is lie.cells and len(built) == 1
    lie.brackets  # the table reads the kept index too
    assert len(built) == 1


def test_spectra_of_the_frobenius_seaweeds_up_to_n_5_are_pinned():
    # every Frobenius A/B/C/D seaweed with n <= 5, as the walk gave them
    # when it ran inside _meander_functional
    lines = []
    for algebra in (AlgebraType.A, AlgebraType.B, AlgebraType.C, AlgebraType.D):
        for n in range(1, 6):
            for spec in enumerate_specs(algebra, n):
                lie = seaweed_basis(spec)
                if index_combinatorial(spec).index or not lie.dimension:
                    continue
                r = ad_spectrum(lie)
                flags = f"{r.integral} {r.unbroken} {r.symmetric_about_half} {r.defect}"
                lines.append(f"{format_spec(spec)} {sorted(r.eigenvalues.items())} {flags}")
    assert len(lines) == 185
    assert lines[2] == "A3:3/1|2 [(-1, 1), (0, 2), (1, 2), (2, 1)] True True True 0"
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5f4c409d87836d3053fe84ba26af104a03e6f732b51ac82ea0589061202311df"


def _scanned(lie):
    # without a spec, ad_spectrum takes the sampled functional and the kernel scans
    return ad_spectrum(LieData(lie.dimension, lie.brackets, lie.basis))


@pytest.mark.parametrize(
    "algebra, n_max, count",
    [(AlgebraType.A, 6, 124), (AlgebraType.B, 5, 45), (AlgebraType.C, 5, 45), (AlgebraType.D, 5, 39)],
)
def test_meander_spectrum_equals_the_scans(algebra, n_max, count):
    cases = 0
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            if index_combinatorial(spec).index:
                continue
            lie = seaweed_basis(spec)
            if not lie.dimension:
                continue
            assert oracle._meander_spectrum(lie) is not None, spec
            assert ad_spectrum(lie) == _scanned(lie), spec
            cases += 1
    assert cases == count


def _shifted_walk(shifts):
    # the walk with entries of its doubled diagonal 2H moved (index -1 is the last)
    walk = oracle._doubled_diagonal

    def tampered(spec, meander, anchor):
        twice_h = walk(spec, meander, anchor)
        for index, by in shifts.items():
            twice_h[index] += by
        return twice_h

    return tampered


@pytest.mark.parametrize(
    "text, shifts",
    [
        ("A4:2|2/1|3", {1: 2}),  # h_1 + 1: an arc at vertex 1 reads 0 or 2, not 1
        ("A4:2|2/1|3", {1: 1}),  # h_1 + 1/2: odd doubled eigenvalues
        ("C5:1|4/3", {1: 2, -1: -2}),  # h_1 + 1, mirrored: the arc at vertex 1 misses 1
        ("C5:1|4/3", {-1: -2}),  # H_10 alone: lead cells agree, partner cells do not
        ("B2:1|1/", {1: -2, 2: 2, -1: 2, -2: -2}),  # pair anchors swapped: (1, 2) reads -1
        ("D2:1|1/", {1: -2, 2: 2, -1: 2, -2: -2}),  # pair anchors swapped: (1, 2) reads -1
        ("B3:1|1|1/", {3: -2, -3: 2}),  # unpaired h_3 = 0: the root e_3 at (3, 4) reads 0
        ("B3:1|1|1/", {4: 2}),  # H_4 off 0: the two cells of e_3 disagree
    ],
)
def test_a_tampered_walk_falls_back_to_the_scans(monkeypatch, text, shifts):
    lie = seaweed_basis(parse_spec(text))
    expected = _scanned(lie)
    monkeypatch.setattr(oracle, "_doubled_diagonal", _shifted_walk(shifts))
    assert oracle._meander_spectrum(lie) is None
    assert ad_spectrum(lie) == expected


def test_the_kernel_check_rejects_a_walk_that_fits_a_degenerate_functional(monkeypatch):
    # A2:1|1/1|1 has no arcs: f = 0 passes the eigenvalue checks vacuously,
    # and only its Kirillov kernel (the whole algebra) rejects it
    lie = seaweed_basis(parse_spec("A2:1|1/1|1"))
    kernels = _count_kernels(monkeypatch)
    assert oracle._meander_spectrum(lie) is None
    assert kernels == [1]


def test_the_integrality_check_rejects_half_integer_eigenvalues(monkeypatch):
    # C2:1/ leaves vertex 2 off the tail: h_1 = 1/2 and h_2 = 0, so the
    # support reads 1 and the element at (1, 2) reads 1/2; with the kernel
    # check passed by force, integrality alone must reject the walk
    monkeypatch.setattr(oracle, "_kirillov_kernel", lambda lie, f: 0)
    assert oracle._meander_spectrum(seaweed_basis(parse_spec("C2:1/"))) is None


@pytest.mark.parametrize("algebra", [AlgebraType.A, AlgebraType.B, AlgebraType.C, AlgebraType.D])
def test_meander_spectrum_is_none_off_frobenius(algebra):
    for n in range(1, 5):
        for spec in enumerate_specs(algebra, n):
            if index_combinatorial(spec).index:
                assert oracle._meander_spectrum(seaweed_basis(spec)) is None, spec


def test_spectrum_scans_only_tables(monkeypatch):
    scans = []
    scanned = oracle._scanned_spectrum
    monkeypatch.setattr(oracle, "_scanned_spectrum", lambda *args: scans.append(args[0]) or scanned(*args))
    for text in ("A4:2|2/1|3", "B2:2/1", "C5:1|4/3", "D4:1|3/2"):
        ad_spectrum(seaweed_basis(parse_spec(text)))
    assert scans == []
    for z in (0, -2, 1):
        ad_spectrum(epilogue_family(z))
    assert len(scans) == 3


def _principal(lie):
    # the principal element ad_spectrum scans: the first seeded trial that solves
    rng = random.Random(0)
    for _ in range(oracle.DEFAULT_TRIALS):
        try:
            return principal_element(lie, random_functional(rng, lie.dimension))
        except NotFrobeniusFunctionalError:
            continue
    raise AssertionError("no trial solves")


def _direct_sum(*lies):
    # the bracket table of the direct sum, each summand's indices shifted past the ones before it
    table, offset = {}, 0
    for lie in lies:
        for (i, j), coeffs in lie.brackets.items():
            table[i + offset, j + offset] = {k + offset: c for k, c in coeffs.items()}
        offset += lie.dimension
    return lie_from_structure_constants(table)


def _check_gated_scan(lie, element):
    # the gated scan against the ungated reference
    assert oracle._scanned_spectrum(lie, element) == reference_scanned_spectrum(lie, element)


@pytest.mark.parametrize("scale", [1, Fraction(1, 6), Fraction(5, 7), 3])
def test_the_gated_scan_equals_the_ungated_reference_on_the_z_family(monkeypatch, scale):
    # z in -3..3 and the table [e1, e2] = e2 / 2, each scaled as in
    # test_scanned_spectrum_ignores_the_table_scale; every z off 0 and -2 misses
    tables = [epilogue_family(z).brackets for z in range(-3, 4)]
    tables.append(parse_structure_constants("1 2 -> 2:1/2\n"))
    charpolys = _count_calls(monkeypatch, "_charpoly")
    for table in tables:
        scaled = {pair: {k: scale * v for k, v in coeffs.items()} for pair, coeffs in table.items()}
        lie = lie_from_structure_constants(scaled)
        _check_gated_scan(lie, _principal(lie))
    assert len(charpolys) == 5


@pytest.mark.parametrize("text, z", [("A4:2|2/1|3", 1), ("A4:2|2/1|3", -2), ("A8:3|5/8", 3), ("C5:1|4/3", -1)])
def test_the_gated_scan_equals_the_ungated_reference_on_a_seaweed_plus_a_z_table(monkeypatch, text, z):
    lie = _direct_sum(seaweed_basis(parse_spec(text)), epilogue_family(z))
    charpolys = _count_calls(monkeypatch, "_charpoly")
    _check_gated_scan(lie, _principal(lie))
    assert len(charpolys) == (z != -2)


@pytest.mark.parametrize(
    "algebra, n_max", [(AlgebraType.GL, 4), (AlgebraType.A, 4), (AlgebraType.B, 3), (AlgebraType.C, 3), (AlgebraType.D, 3)]
)
def test_the_gated_scan_equals_the_ungated_reference_on_random_elements(monkeypatch, algebra, n_max):
    # a seeded random element in place of F: small integer entries give
    # broken spectra, entries drawn from F_p non-integral ones, so chi runs
    rng = random.Random(30)
    charpolys = _count_calls(monkeypatch, "_charpoly")
    cases = 0
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            m = lie.dimension
            for element in ([rng.randint(-2, 2) for _ in range(m)], random_functional(rng, m)):
                _check_gated_scan(lie, element)
                cases += 1
    assert len(charpolys) > cases // 2


@pytest.mark.parametrize("algebra, n_max", [(AlgebraType.A, 6), (AlgebraType.B, 5), (AlgebraType.C, 5), (AlgebraType.D, 5)])
def test_the_scans_of_a_frobenius_seaweed_compute_no_charpoly(monkeypatch, algebra, n_max):
    # an unbroken integral spectrum reaches m before any shift misses
    charpolys = _count_calls(monkeypatch, "_charpoly")
    scans = _count_calls(monkeypatch, "_scanned_spectrum")
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            if index_combinatorial(spec).index:
                continue
            lie = seaweed_basis(spec)
            if lie.dimension:
                assert _scanned(lie).integral, spec
    assert scans and charpolys == []


def test_a_missed_shift_computes_chi_once(monkeypatch):
    # z = 1: eigenvalues 0 and 1 and two non-integral ones; the scan misses
    # at -1 and then ranks only the roots of chi among the 8 shifts left
    charpolys = _count_calls(monkeypatch, "_charpoly")
    shifts = _count_calls(monkeypatch, "_shifted_kernel")
    assert ad_spectrum(epilogue_family(1)).eigenvalues == {0: 1, 1: 1}
    assert len(charpolys) == 1
    assert [args[2] for args in shifts] == [0, 1, oracle.P - 1]


def _ad_reference(lie, element):
    # [F, x_j] = sum_i F_i [x_i, x_j], one basis pair at a time
    m = lie.dimension
    out = [[0] * m for _ in range(m)]
    for j in range(m):
        for i in range(m):
            for k, c in lie.bracket_coeffs(i, j).items():
                out[k][j] += element[i] * c
    return out


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 4), (AlgebraType.A, 4), (AlgebraType.B, 3), (AlgebraType.C, 3), (AlgebraType.D, 3)],
)
def test_ad_matrix_is_the_sum_of_brackets(algebra, n_max):
    rng = random.Random(31)
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            element = [rng.randint(-50, 50) for _ in range(lie.dimension)]
            assert ad_matrix(lie, element) == _ad_reference(lie, element), spec


def test_ad_matrix_of_a_rational_table():
    # sl2 on the basis e/2, 3h, 2f/5
    lie = lie_from_structure_constants(
        {(0, 2): {1: Fraction(1, 15)}, (1, 0): {0: Fraction(6)}, (1, 2): {2: Fraction(-6)}}
    )
    element = [Fraction(1, 3), -2, Fraction(5, 7)]
    assert ad_matrix(lie, element) == _ad_reference(lie, element)
    assert rank_exact(ad_matrix(lie, element)) == 2


def test_kernel_dimension_even_rank_defect():
    # skew forms have even rank, so kernel dimension has the parity of m
    lie = seaweed_basis(parse_spec("B3:2/1"))
    m = kirillov_matrix(lie, [7] * lie.dimension)
    assert (lie.dimension - kernel_dimension(m)) % 2 == 0


def test_every_seaweed_lead_entry_is_one():
    # _support_rows reads a bracket's coordinate along x_k as its entry at
    # the lead of x_k, with no division
    for algebra in AlgebraType:
        for n in range(1, 5):
            for spec in enumerate_specs(algebra, n):
                assert all(next(iter(x.entries.values())) == 1 for x in seaweed_basis(spec).basis), spec


@pytest.mark.parametrize(
    "algebra, n_max",
    [(AlgebraType.GL, 6), (AlgebraType.A, 6), (AlgebraType.B, 5), (AlgebraType.C, 5), (AlgebraType.D, 5)],
)
def test_support_rows_equal_the_table_rows(algebra, n_max):
    # the 0/1 meander functional, random nonzero values on its support and
    # the first draw of the seeded trials at seeds 0 and 1 (full support),
    # read off the cells against _kirillov_rows on the same algebra given
    # as a table alone
    rng = random.Random(26)
    for n in range(1, n_max + 1):
        for spec in enumerate_specs(algebra, n):
            lie = seaweed_basis(spec)
            table = LieData(lie.dimension, lie.brackets)
            meander = oracle._meander_functional(lie)[0]
            weighted = [v and rng.randrange(1, oracle.P) for v in meander]
            seeded = [random_functional(random.Random(seed), lie.dimension) for seed in (0, 1)]
            for f in (meander, weighted, *seeded):
                got = oracle._kirillov_rows(lie, f)[0]
                expected = oracle._kirillov_rows(table, f)[0]
                assert got == expected, (spec, f)
                ordered = [(r, list(row.items())) for r, row in got.items()]
                assert ordered == [(r, list(row.items())) for r, row in expected.items()], spec  # the same order


def _count_tables(monkeypatch):
    built = []
    table = matrices._bracket_table
    monkeypatch.setattr(
        matrices, "_bracket_table", lambda spec, basis, cells: built.append(spec) or table(spec, basis, cells)
    )
    return built


@pytest.mark.parametrize(
    "args",
    [
        ("index", "A40:13|27/40", "--method", "oracle"),
        ("spectrum", "A20:7|13/20"),
        # m = 47, floor 1, meander kernel 7: the seeded trials answer
        ("index", "A8:4|4/8", "--method", "oracle"),
    ],
)
def test_the_meander_trial_and_the_certificate_build_no_table(monkeypatch, capsys, args):
    built = _count_tables(monkeypatch)
    assert cli.main(list(args)) == 0
    assert built == []


def test_the_benchmark_sweep_builds_no_table(monkeypatch):
    # the seeded trials, like the meander trial, read their forms off the cells
    built = _count_tables(monkeypatch)
    ranges = {
        AlgebraType.GL: (1, 5),
        AlgebraType.A: (2, 5),
        AlgebraType.B: (1, 4),
        AlgebraType.C: (1, 4),
        AlgebraType.D: (1, 4),
    }
    for algebra, (n_min, n_max) in ranges.items():
        run_sweep(algebra, n_max=n_max, n_min=n_min, trials=5, seed=1)
    assert built == []


def _ordered(table):
    return [(pair, list(coeffs.items())) for pair, coeffs in table.items()]


@pytest.mark.parametrize("text", ["A5:4|1/2|1|2", "GL4:1|3/1|1|2", "B3:1|2/3", "C4:2|2/3", "D5:1|4/2"])
def test_the_table_is_built_once_on_first_read(monkeypatch, text):
    spec = parse_spec(text)
    built = _count_tables(monkeypatch)
    lie = seaweed_basis(spec)
    assert built == []
    first, second = lie.brackets, lie.brackets
    assert len(built) == 1 and first is second
    fresh = seaweed_basis(spec).basis
    eager = matrices._bracket_table(spec, fresh, matrices._cell_index(fresh))
    assert _ordered(first) == _ordered(eager)


def test_a_lie_data_needs_a_table_or_a_basis():
    with pytest.raises(ValueError, match="bracket table"):
        LieData(3, None)
