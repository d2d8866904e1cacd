"""Property checks of the exact ranks on random int and Fraction matrices."""

from fractions import Fraction
from math import lcm

import pytest

from seaweeds import oracle
from seaweeds.oracle import P, rank_exact

from test_oracle import _fraction_rank, _skew_checked_rank

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRIES = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
MATRICES = st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=6)
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
