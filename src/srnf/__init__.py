"""Polynomial normal forms of contracting holomorphic germs.

The package computes the classical polynomial normal form of a germ whose
linear part is invertible and contracting, entirely inside the algebra of
sub-resonant polynomial maps, and exposes the affine group those maps
generate together with orbit-level diagnostics for the quotient manifolds
they define.
"""

from .config import RunConfig
from .errors import (
    CertificationFailure,
    DegreeOutOfRange,
    DimensionMismatch,
    IllConditionedResonance,
    NoConvergence,
    NotContracting,
    NotTriangular,
    SingularLinearPart,
    SpectrumMismatch,
    SrnfError,
    ValidationError,
)
from .gx_group import (
    GroupElement,
    OrbitDiagnostics,
    group_inv,
    group_mul,
    hopf_holonomy,
    orbit,
    translate_conjugate,
)
from .homological import SplitResult, apply_M, build_matrix, split_homogeneous
from .linalg import SpectrumData, analyze_spectrum, rescale_nilpotent, triangularize
from .normal_form import (
    ConjugacyReport,
    GermInput,
    NormalFormResult,
    conjugate_step,
    phi_numeric,
    poincare_dulac,
    verify_conjugacy,
)
from .polymap import (
    BasisOrdering,
    HomogeneousPart,
    PolyJet,
    basis_ordering,
    compose_truncated,
    homogeneous_part,
    jet_inverse,
    linear_conjugate,
)
from .subresonance import (
    SubResonantMap,
    certify_subresonant,
    enumerate_subresonant_basis,
    is_linear_subresonant,
    is_subresonant_monomial,
    monomial_type,
    sr_compose,
    sr_inverse,
)

__version__ = "0.1.0"
