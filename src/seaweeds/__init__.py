"""Seaweed subalgebras of the classical Lie algebras.

Construct seaweeds from pairs of (partial) compositions, compute their
index by meander component counts, by closed gcd/totient formulas, and
by an exact Kirillov-form rank oracle, and classify the Frobenius ones.
"""

from .delta import DeltaReport, NotSinglePathError, delta_of_spec
from .formulas import (
    FrobeniusVerdict,
    IndexReport,
    classify_frobenius,
    euler_phi,
    index_closed_form,
    index_combinatorial,
    xi,
)
from .matrices import (
    AdmissibleMask,
    LieData,
    SparseIntMatrix,
    admissible_mask,
    bracket,
    lie_from_structure_constants,
    parse_structure_constants,
    seaweed_basis,
    sparse,
)
from .meander import Component, ComponentSummary, Meander, build_meander, components, tail
from .oracle import (
    NotFrobeniusError,
    NotFrobeniusFunctionalError,
    PrincipalElementError,
    SpectrumOvercountError,
    SpectrumReport,
    ad_spectrum,
    index_oracle,
    kernel_dimension,
    kirillov_matrix,
    principal_element,
    rank_exact,
)
from .specs import (
    AlgebraType,
    Composition,
    InvalidSpecError,
    SeaweedSpec,
    SpecSyntaxError,
    ValidationReport,
    compositions,
    enumerate_specs,
    format_spec,
    parse_spec,
    partial_compositions,
    validate,
)
from .sweep import SweepReport, run_sweep

__version__ = "0.1.0"
