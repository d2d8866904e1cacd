"""Property checks of the exact rank on random int and Fraction matrices."""

from fractions import Fraction

import pytest

from seaweeds.oracle import P, rank_exact

from test_oracle import _fraction_rank

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRIES = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
MATRICES = st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=6)
)
SCALES = st.builds(Fraction, st.integers(1, 9), st.integers(-9, 9).filter(bool))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(MATRICES, SCALES, st.integers(0, 5))
@hypothesis.example([[Fraction(1, P), Fraction(1, 2)], [0, 1]], Fraction(1, 3), 0)
def test_rank_equals_fraction_elimination(matrix, scale, pick):
    rank = _fraction_rank(matrix)
    assert rank_exact(matrix) == rank
    # a rational multiple of a row appended keeps the rank
    row = matrix[pick % len(matrix)]
    assert rank_exact(matrix + [[scale * v for v in row]]) == rank
