"""Property checks of the exact ranks on random int and Fraction matrices."""

from fractions import Fraction
from math import lcm

import pytest

from seaweeds import oracle
from seaweeds.oracle import P, rank_exact

from reference_sweeps import reference_charpoly
from test_oracle import _fraction_rank, _skew_checked_rank

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRIES = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
MATRICES = st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=6)
)
# Square integer matrices up to 7 x 7, most entries zero; a permutation and a
# split point: "nilpotent" keeps the strict upper triangle only, "split" also
# zeroes the block below the split, and either is then conjugated by the
# permutation, so zero subdiagonals and nilpotent matrices come up often.
SQUARE = st.integers(1, 7).flatmap(
    lambda m: st.tuples(
        st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3]), min_size=m, max_size=m), min_size=m, max_size=m
        ),
        st.permutations(range(m)),
        st.integers(0, m),
        st.sampled_from(["general", "nilpotent", "split"]),
    )
)
SCALES = st.builds(Fraction, st.integers(1, 9), st.integers(-9, 9).filter(bool))
# Upper triangles of skew matrices up to 8 x 8, about half of the entries zero,
# and a set of indices whose rows and columns are zero.
SKEW = st.integers(1, 8).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.one_of(st.just(0), ENTRIES), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2),
        st.sets(st.integers(0, m - 1)),
    )
)
# Sparse skew matrices of 17 to 32 rows, past the row count at which
# _skew_rank takes its pivot rows from a heap: m to 3m entries above the
# diagonal, and up to four indices whose rows and columns are zero.
SPARSE_SKEW = st.integers(17, 32).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.dictionaries(
            st.sampled_from([(i, j) for i in range(m) for j in range(i + 1, m)]),
            ENTRIES.filter(bool),
            min_size=m,
            max_size=3 * m,
        ),
        st.sets(st.integers(0, m - 1), max_size=4),
    )
)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(MATRICES, SCALES, st.integers(0, 5))
@hypothesis.example([[Fraction(1, P), Fraction(1, 2)], [0, 1]], Fraction(1, 3), 0)
def test_rank_equals_fraction_elimination(matrix, scale, pick):
    rank = _fraction_rank(matrix)
    assert rank_exact(matrix) == rank
    # a rational multiple of a row appended keeps the rank
    row = matrix[pick % len(matrix)]
    assert rank_exact(matrix + [[scale * v for v in row]]) == rank


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(SKEW)
def test_skew_rank_equals_fraction_elimination(case):
    m, values, zero = case
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    entries = {(i, j): v for (i, j), v in zip(pairs, values) if i not in zero and j not in zero}
    dense = [[0] * m for _ in range(m)]
    for (i, j), v in entries.items():
        dense[i][j], dense[j][i] = v, -v
    # one scale for the whole matrix keeps it skew
    scale = lcm(*[v.denominator for v in entries.values()])
    rows = {i: oracle._reduced(enumerate(row), scale) for i, row in enumerate(dense)}
    # the rows stay skew mod p, with no stored zero, after every pivot pair
    assert _skew_checked_rank({i: row for i, row in rows.items() if row}) == _fraction_rank(dense)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=30)
@hypothesis.given(SPARSE_SKEW)
def test_skew_rank_past_the_pivot_queue_equals_fraction_elimination(case):
    # built as in test_skew_rank_equals_fraction_elimination, on larger and sparser draws
    m, values, zero = case
    entries = {(i, j): v for (i, j), v in values.items() if i not in zero and j not in zero}
    dense = [[0] * m for _ in range(m)]
    for (i, j), v in entries.items():
        dense[i][j], dense[j][i] = v, -v
    scale = lcm(*[v.denominator for v in entries.values()])
    rows = {i: oracle._reduced(enumerate(row), scale) for i, row in enumerate(dense)}
    assert _skew_checked_rank({i: row for i, row in rows.items() if row}) == _fraction_rank(dense)


def _square(case):
    # the matrix of a SQUARE draw, as a dense list and as the sparse rows mod p
    matrix, order, split, kind = case
    m = len(matrix)
    if kind == "nilpotent":
        matrix = [[v if r < c else 0 for c, v in enumerate(row)] for r, row in enumerate(matrix)]
    elif kind == "split":
        matrix = [[0 if r >= split > c else v for c, v in enumerate(row)] for r, row in enumerate(matrix)]
    dense = [[matrix[order[r]][order[c]] for c in range(m)] for r in range(m)]
    rows = {r: row for r, row in enumerate(oracle._reduced(enumerate(row), 1) for row in dense) if row}
    return dense, rows


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(SQUARE)
@hypothesis.example(([[0]], [0], 0, "general"))
@hypothesis.example(([[3]], [0], 0, "general"))
@hypothesis.example(([[0, 1], [0, 0]], [1, 0], 0, "general"))
@hypothesis.example(([[1, 2], [0, 1]], [0, 1], 1, "split"))
@hypothesis.example(([[0, 0, 1], [0, 0, 0], [1, 0, 0]], [0, 1, 2], 0, "general"))  # a row swap in column 0
@hypothesis.example(([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [2, 0, 1], 0, "nilpotent"))
def test_charpoly_vanishes_exactly_at_the_singular_shifts(case):
    dense, rows = _square(case)
    m = len(dense)
    chi = oracle._charpoly(rows, m)
    # the Hessenberg recurrence against Faddeev-LeVerrier, coefficient by coefficient
    assert chi == reference_charpoly(dense)
    assert rows == _square(case)[1]  # rows is not modified
    for k in range(-4, 5):
        shift = k % P
        assert (oracle._evaluate(chi, shift) == 0) == (oracle._shifted_kernel(rows, m, shift) > 0), k
    if case[3] == "nilpotent":
        assert chi == [0] * m + [1]
