"""Property checks of the winding-down moves and the delta tour against the component walk, with n up to 10**4 (10**5 for GCD3_PATH)."""

from collections import Counter

import pytest

from seaweeds.delta import delta_of_spec
from seaweeds.formulas import classify_frobenius, index_combinatorial
from seaweeds.specs import AlgebraType, SeaweedSpec, parse_spec

from reference_sweeps import reference_delta, reference_gcd3_path, reference_index_combinatorial
from test_spec_properties import _composition, valid_specs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

N_MAX = 10**4


@st.composite
def odd_type_d(draw, full_top):
    """Type D with r - s odd: configuration III if ``full_top`` (r = n), else II (r < n).

    About half of them end the top in a part of size 1.  It lies past
    the bottom sum s, so it is the last block the moves leave, which
    sets the configuration-III parity.
    """
    n = draw(st.integers(2, N_MAX))
    r = n if full_top else draw(st.integers(1, n - 1))
    s = r - 1 - 2 * draw(st.integers(0, (r - 1) // 2))
    if r > 1 and draw(st.booleans()):
        top = draw(_composition(r - 1)) + (1,)
    else:
        top = draw(_composition(r))
    return SeaweedSpec(AlgebraType.D, n, top, draw(_composition(s)))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(valid_specs(n_max=N_MAX))
def test_winding_down_equals_the_walk(spec):
    assert index_combinatorial(spec) == reference_index_combinatorial(spec)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(st.one_of(odd_type_d(full_top=False), odd_type_d(full_top=True)))
@hypothesis.example(parse_spec("D2:2/1"))  # III, one block of size 1 left from a top part of size 2
@hypothesis.example(parse_spec("D3:3/"))  # III, one block of size 3 left
@hypothesis.example(parse_spec("D4:1/"))  # II
def test_winding_down_equals_the_walk_on_odd_type_d(spec):
    assert index_combinatorial(spec) == reference_index_combinatorial(spec)


@st.composite
def gcd3_path_shapes(draw):
    """Type D, a|b over n - 3 with a + b = n and b > 3: the shapes the GCD3_PATH rule asks about."""
    n = draw(st.integers(5, 10**5))
    b = draw(st.integers(4, n - 1))
    return SeaweedSpec(AlgebraType.D, n, (n - b, b), (n - 3,))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=20)
@hypothesis.given(gcd3_path_shapes())
@hypothesis.example(parse_spec("D100000:1|99999/99997"))  # gcd 4: n - 2 and n share a path
@hypothesis.example(parse_spec("D100000:99995|5/99997"))  # gcd 2: they do not
def test_gcd3_path_rule_equals_the_walk(spec):
    assert (classify_frobenius(spec).justification == "GCD3_PATH") == reference_gcd3_path(spec)


@st.composite
def frobenius_type_a(draw):
    """Frobenius type A with 2-6 top and 2-4 bottom parts and n < 10**4.

    A single path on n >= 2 vertices has exactly two odd blocks, so the
    drawn head parts are even, but for at most one a side.  The top parts are small beside the
    bottom ones, so a bottom block often straddles three or more top
    blocks.  n then grows from a drawn start until the moves count one
    path (within 100 vertices for about 19 draws in 20).
    """

    def head(max_parts, half_max):
        parts = [2 * half for half in draw(st.lists(st.integers(1, half_max), min_size=1, max_size=max_parts))]
        if draw(st.booleans()):
            parts[draw(st.integers(0, len(parts) - 1))] -= 1
        return parts

    top, bottom = head(5, 500), head(3, 1400)
    start = max(sum(top), sum(bottom)) + draw(st.integers(1, 1000))
    for n in range(start, start + 100):
        spec = SeaweedSpec(AlgebraType.A, n, (*top, n - sum(top)), (*bottom, n - sum(bottom)))
        if index_combinatorial(spec).index == 0:
            return spec
    hypothesis.reject()


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=20)
@hypothesis.given(frobenius_type_a())
@hypothesis.example(parse_spec("A8:1|2|5/8"))  # three distinct values
@hypothesis.example(parse_spec("A4619:520|219|40|90|3750/2288|2256|75"))  # [1, 2288] meets five top blocks
def test_delta_tour_equals_the_iteration(spec):
    report = delta_of_spec(spec)
    assert report == reference_delta(spec)
    counted = sorted(Counter(report.differences).items(), key=lambda item: (item[1], item[0]))
    assert report.distinct_values == tuple(counted)
