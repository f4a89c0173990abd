"""Unitary operator bases and tight teleportation / dense-coding schemes.

Five kinds of objects, each constructible from any of the others, live
here: unitary operator bases, orthonormal bases of maximally entangled
vectors, unitary depolarizing families, tight teleportation schemes, and
tight dense-coding schemes.  The package builds them from Latin squares
and complex Hadamard matrices, converts between them, and numerically
verifies every defining identity.
"""

from .common import DEFAULT_TOL, CheckResult
from .errors import *  # noqa: F401,F403  (the exception taxonomy)
from .tensor import (
    check_projector_completeness,
    is_maximally_entangled,
    max_abs,
    omega_vector,
    trace_inner,
    vector_to_operator,
)
from .designs import (
    HadamardMatrix,
    LatinSquare,
    count_normalized_latin,
    dephase_hadamard,
    fourier_hadamard,
    hadamard_d4_family,
    hadamards_equivalent,
    latin_equivalence_apply,
    latin_from_cyclic,
    periodic_phase_hadamard,
    validate_hadamard,
    validate_latin,
)
from .bases import (
    UnitaryBasis,
    apply_equivalence,
    recover_weight_from_unitary_gram,
    shift_multiply_basis,
    tensor_bases,
    verify_depolarizer,
    verify_orthonormal,
    weighted_gram,
    weyl_basis,
)
from .schemes import (
    DENSE_CODING,
    MODES,
    TELEPORTATION,
    MaxEntangledBasis,
    TightScheme,
    basis_to_entangled,
    build_scheme,
    entangled_to_basis,
    extract_basis_from_scheme,
    swap_roles,
    teleport_state,
    verify,
    verify_dense_coding,
    verify_entangled_basis,
    verify_teleportation,
)
from .serialize import (
    DesignDocument,
    document_to_object,
    dumps,
    load,
    loads,
    make_document,
    save,
)

__version__ = "0.1.0"
