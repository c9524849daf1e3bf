"""Arithmetic cohomology of Arakelov divisors and finite ghost-space structures.

h0 of an Arakelov divisor is the log of a lattice theta sum with a certified
tail bound; h1 is the log-density of the quotient measure.  The package
numerically verifies the arithmetic Riemann-Roch formula by two independent
direct lattice enumerations, of D and of K - D, and reads Serre duality from
the same pair.  It also exhaustively checks the convolution structures
(first kind, second kind, mixed) and their duality theory on finite abelian
groups.
"""

from .arakelov import (
    ArakelovDivisor,
    CohomologyValue,
    canonical_divisor,
    degree,
    divisor_from_ideal,
    divisor_from_primes,
    effectivity_u,
    effectivity_v,
    h0,
    h1,
    load_divisor,
    sub,
    verify_duality,
    verify_riemann_roch,
    verify_serre_duality,
    zero_divisor,
    zeta_integrand_sweep,
)
from .errors import (
    ArithcohError,
    CertificationFailed,
    DescriptorInconsistent,
    EnumerationBudgetExceeded,
    InvalidDivisor,
    InvalidFieldSpec,
    InvalidGhostSpace,
    NotPositiveDefinite,
    ToleranceUnreachable,
    UnsupportedField,
)
from .ghost import (
    FiniteAbelianGroup,
    GhostMeasure,
    GhostSpaceFirstKind,
    GhostSpaceSecondKind,
    MixedGhostSpace,
    check_associativity,
    check_first_kind,
    convolve_first,
    convolve_second,
    dft,
    dim_first,
    dim_second,
    dual_ghost,
    idft,
    load_ghost,
    mixed_convolve,
    quasi_characters,
    quotient_by_ghost,
    sub_quotient_first,
    subgroup_from_generators,
)
from .lattice import (
    DEFAULT_BUDGET,
    EmbeddedLattice,
    GramMatrix,
    ThetaResult,
    cholesky,
    dual_lattice,
    theta_sum,
)
from .numfield import (
    FractionalIdeal,
    NumberFieldDescriptor,
    PrimeIdeal,
    embed_ideal,
    ideal_inv,
    ideal_mul,
    ideal_norm,
    ideal_pow,
    make_field,
    primes_above,
    principal_ideal,
    unit_ideal,
)

__version__ = "0.1.0"
