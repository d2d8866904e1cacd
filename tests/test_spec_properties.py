"""Property checks on random valid specs: the text form, the three index routes past the sweeps, the classifier and the bracket table."""

import pytest

from seaweeds import oracle
from seaweeds.formulas import classify_frobenius, index_closed_form, index_combinatorial
from seaweeds.matrices import seaweed_basis
from seaweeds.oracle import index_oracle
from seaweeds.specs import AlgebraType, SeaweedSpec, format_spec, parse_spec, validate

from reference_sweeps import reference_brackets, reference_center_floor

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
def valid_specs(draw, algebras=tuple(AlgebraType), n_min=1, n_max=40):
    algebra = draw(st.sampled_from(algebras))
    n = draw(st.integers(n_min, n_max))
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


# Just past the exhaustive ranges of acceptance criterion 2 (GL/A n <= 6, B/C/D n <= 5).
PAST_THE_SWEEPS = st.one_of(
    valid_specs((AlgebraType.GL, AlgebraType.A), 7, 12),
    valid_specs((AlgebraType.B, AlgebraType.C, AlgebraType.D), 6, 8),
)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
@hypothesis.given(PAST_THE_SWEEPS)
def test_three_routes_agree_past_the_exhaustive_ranges(spec):
    index = index_combinatorial(spec).index
    assert index_oracle(seaweed_basis(spec), trials=5, seed=0) == index
    closed = index_closed_form(spec)
    if closed is not None:
        assert closed[0] == index


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(
    st.one_of(
        valid_specs((AlgebraType.GL, AlgebraType.A), 8, 40),
        valid_specs((AlgebraType.B, AlgebraType.C, AlgebraType.D), 7, 40),
    )
)
def test_classifier_rules_never_contradict_the_meander(spec):
    verdict = classify_frobenius(spec)  # a contradicted rule raises RuleDisagreement
    assert verdict.frobenius == (index_combinatorial(spec).index == 0)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
@hypothesis.given(
    st.one_of(
        valid_specs((AlgebraType.GL, AlgebraType.A), 1, 9),
        valid_specs((AlgebraType.B, AlgebraType.C, AlgebraType.D), 1, 6),
    )
)
def test_bracket_table_equals_the_commutator_reference_on_random_specs(spec):
    lie = seaweed_basis(spec)
    assert lie.brackets == reference_brackets(lie.basis)


@st.composite
def near_full_specs(draw):
    """A valid spec with n <= 24 whose B/C/D sides often sum to n - 1 or n, where type D also cuts at n."""
    algebra = draw(st.sampled_from(tuple(AlgebraType)))
    n = draw(st.integers(1, 24))
    if algebra.full_compositions_required:
        top_sum = bottom_sum = n
    else:
        top_sum = draw(st.sampled_from((n - 1, n)) | st.integers(0, n))
        bottom_sum = draw(st.sampled_from((n - 1, top_sum)).filter(lambda s: s <= top_sum) | st.integers(0, top_sum))
    return SeaweedSpec(algebra, n, draw(_composition(top_sum)), draw(_composition(bottom_sum)))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(near_full_specs())
def test_center_floor_equals_the_cell_interval_reference_on_random_specs(spec):
    lie = seaweed_basis(spec)
    assert oracle._center_floor(lie) == reference_center_floor(lie)
