"""Property checks of the spec text form on random valid specs."""

import pytest

from seaweeds.specs import AlgebraType, SeaweedSpec, format_spec, parse_spec, validate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _composition(total):
    # a set of cut points in 1..total-1 splits total into positive parts
    if total <= 1:
        return st.just((1,) * total)
    return st.sets(st.integers(1, total - 1)).map(
        lambda cuts: tuple(b - a for a, b in zip((0, *sorted(cuts)), (*sorted(cuts), total)))
    )


@st.composite
def valid_specs(draw):
    algebra = draw(st.sampled_from(AlgebraType))
    n = draw(st.integers(1, 40))
    if algebra.full_compositions_required:
        top_sum = bottom_sum = n
    else:
        top_sum = draw(st.integers(0, n))
        bottom_sum = draw(st.integers(0, top_sum))
    return SeaweedSpec(algebra, n, draw(_composition(top_sum)), draw(_composition(bottom_sum)))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(valid_specs())
def test_parse_inverts_format_on_valid_specs(spec):
    assert validate(spec).ok
    assert parse_spec(format_spec(spec)) == spec
