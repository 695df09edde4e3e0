"""Exact arithmetic for primitive positive-definite binary quadratic forms
up to Gamma0(N)-equivalence: reduction and enumeration, form class groups
under Dirichlet composition with an independent ideal-lattice oracle,
N-representation and genus theory, and the explicit fundamental region for
Gamma0(p) at primes p >= 5."""

from .core import (
    CmPoint,
    Form,
    GroupElement,
    act,
    cm_point,
    form_from_cm,
    ker_chi,
    kronecker,
    moebius,
    moebius_rational,
    unit_values,
)
from .classgroup import (
    FormClass,
    FormClassGroup,
    class_group,
    compose_classes,
    dirichlet_compose,
    oracle_pairs,
    prepare_coprime,
    principal_form,
    verify_iso_with_scaled,
)
from .errors import (
    CompositionError,
    DiscriminantMismatch,
    GammaFormsError,
    InvariantError,
    SearchBoundExceeded,
    ValidationError,
)
from .fundomain import (
    EllipticData,
    contains,
    corner_cm_point,
    elliptic_data,
    gamma_k,
    orbit3,
    r_gamma0p_boundary,
    sym_inverse,
    sym_rep,
    sym_residues,
)
from .genus import (
    GenusTable,
    PrimeClassification,
    Representation,
    brahmagupta_check,
    classify_prime,
    exists_representing_form,
    find_representations,
    form_from_representation,
    genus_table,
    ideal_of_norm_from_representation,
    principal_genus_congruences,
)
from .ideals import (
    OIdeal,
    QuadOrder,
    ideal_from_form,
    ideal_mul,
)
from .reduction import (
    ReductionResult,
    automorphs,
    canonical_rep,
    coset_reps,
    enumerate_reduced,
    equivalent_gamma0,
    is_reduced,
    reduce_gamma0,
)

__version__ = "0.1.0"
