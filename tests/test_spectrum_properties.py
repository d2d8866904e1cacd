"""Property checks of the meander spectrum on random Frobenius seaweeds of types A, B, C and D."""

import pytest

from seaweeds import oracle
from seaweeds.formulas import index_combinatorial
from seaweeds.matrices import seaweed_basis
from seaweeds.oracle import ad_spectrum
from seaweeds.specs import AlgebraType, SeaweedSpec, compositions, partial_compositions

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _windings(top, bottom, n_max):
    """The signatures that undo one winding-down move on (top | bottom) and keep n <= n_max."""
    n = max(sum(top), sum(bottom))
    moves = []
    if top and n + top[0] <= n_max:  # block elimination: a1 = 2 b1
        moves.append(([2 * top[0], *top[1:]], [top[0], *bottom]))
    if top and bottom and bottom[0] < top[0] and n + top[0] - bottom[0] <= n_max:  # rotation: b1 < a1 < 2 b1
        moves.append(([2 * top[0] - bottom[0], *top[1:]], [top[0], *bottom[1:]]))
    if len(top) > 1 and n + top[1] <= n_max:  # pure contraction: a1 > 2 b1
        moves.append(([top[0] + 2 * top[1], *top[2:]], [top[1], *bottom]))
    return moves


@st.composite
def frobenius_specs(draw, algebra, n_max):
    """A Frobenius seaweed wound up from a one-vertex meander (A) or a Borel (B, C).

    Each step undoes one of the index-preserving winding-down moves on
    the first blocks of the signature, on (top | bottom) or on its flip
    (bottom | top), chosen among the moves that keep n <= n_max; the
    winding stops when none is left.  Every move adds the same positive
    number of vertices to both sides, so the tail is kept and the
    winding ends; types B and C share the meander, the tail and so the
    moves.  The choices come from one seeded ``Random`` per example,
    which keeps generation cheap and the examples spread out.
    """
    rng = draw(st.randoms(use_true_random=True))
    if algebra is AlgebraType.A:
        top, bottom = [1], [1]
    else:
        top, bottom = [1] * rng.randint(1, n_max - 1), []
    while moves := _windings(top, bottom, n_max) + _windings(bottom, top, n_max):
        top, bottom = rng.choice(moves)
    if sum(top) < sum(bottom):
        top, bottom = bottom, top
    return SeaweedSpec(algebra, sum(top), tuple(top), tuple(bottom))


@st.composite
def frobenius_d_specs(draw, n_max):
    """A Frobenius type-D seaweed: a random top, then one of the bottoms that give index 0."""
    n = draw(st.integers(2, n_max))
    top = draw(st.sampled_from(list(compositions(draw(st.integers(1, n))))))
    bottoms = [
        bottom
        for bottom in partial_compositions(sum(top))
        if index_combinatorial(SeaweedSpec(AlgebraType.D, n, top, bottom)).index == 0
    ]
    hypothesis.assume(bottoms)
    return SeaweedSpec(AlgebraType.D, n, top, draw(st.sampled_from(bottoms)))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=80)
@hypothesis.given(
    st.one_of(
        frobenius_specs(AlgebraType.A, 12),
        frobenius_specs(AlgebraType.B, 9),
        frobenius_specs(AlgebraType.C, 9),
    )
)
def test_meander_spectrum_is_integral_unbroken_and_symmetric(spec):
    _check_meander_spectrum(spec)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=25)
@hypothesis.given(frobenius_d_specs(9))
def test_type_d_meander_spectrum_is_integral_unbroken_and_symmetric(spec):
    _check_meander_spectrum(spec)


def _check_meander_spectrum(spec):
    assert index_combinatorial(spec).index == 0
    lie = seaweed_basis(spec)
    eigenvalues = oracle._meander_spectrum(lie)
    assert eigenvalues is not None
    report = ad_spectrum(lie)
    assert report.eigenvalues == {k: eigenvalues[k] for k in sorted(eigenvalues)}
    assert report.integral and report.unbroken and report.symmetric_about_half
    assert report.defect == 0
