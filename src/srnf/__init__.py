"""Polynomial normal forms of contracting holomorphic germs.

The package computes the classical polynomial normal form of a germ whose
linear part is invertible and contracting, entirely inside the algebra of
sub-resonant polynomial maps, and exposes the affine group those maps
generate, with the orbits of its elements.
"""

from .config import RunConfig
from .errors import (
    CertificationFailure,
    DegreeOutOfRange,
    DimensionMismatch,
    IllConditionedResonance,
    InputError,
    NoConvergence,
    NotContracting,
    NotTriangular,
    NumericalCondition,
    SingularLinearPart,
    SpectrumMismatch,
    SrnfError,
    ValidationError,
)
from .gx_group import (
    GroupElement,
    group_inv,
    group_mul,
    holonomy_generator,
    orbit,
    translate_conjugate,
)
from .homological import SplitResult, build_matrix, split_homogeneous
from .linalg import SpectrumData, analyze_spectrum, triangularize
from .normal_form import (
    ConjugacyReport,
    GermInput,
    NormalFormResult,
    conjugate_step,
    poincare_dulac,
    verify_conjugacy,
)
from .polymap import (
    BasisOrdering,
    PolyJet,
    basis_ordering,
    compose_truncated,
    jet_inverse,
    linear_conjugate,
)
from .subresonance import (
    SubResonantMap,
    certify_subresonant,
    enumerate_subresonant_basis,
    sr_compose,
    sr_inverse,
)

__version__ = "0.1.0"
