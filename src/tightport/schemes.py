"""Tight teleportation and dense-coding schemes.

A tight scheme moves quantum or classical information between two parties
who share an entangled resource on a d x d space, using a classical channel
with exactly d^2 signals.  Its components are always the same triple:

* a resource vector (the shared entangled state),
* d^2 channel unitaries (the sender's encodings, or the receiver's
  corrections, depending on direction),
* d^2 effect vectors forming a complete von Neumann measurement.

Built from a unitary basis, the triple satisfies the teleportation identity
(averaging the measure-and-correct protocol over outcomes reproduces every
input state exactly) and the dense-coding identity (the receiver's outcome
matrix is exactly the identity).  The verifiers evaluate both identities
completely, not on samples, and the converse direction is exercised by
feeding them deliberately damaged resources.

Both identities are products of stacked arrays.  With the resource vector
reshaped to a d x d matrix W, outcome x acts on the input by the Kraus
operator K_x = W^T phi_x* and the corrected protocol by T_x = U_x K_x.
Teleportation holds when the Choi matrix sum_x vec(T_x) vec(T_x)* is the
identity channel's, and the dense-coding table is |Phi* M|^2 with the
columns of M equal to vec(U_x W).

Phase convention: operators extracted from entangled vectors keep the phase
the correspondence delivers; round-trip equality assertions are therefore
phrased modulo a global phase per element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bases import UnitaryBasis, verify_orthonormal
from .common import DEFAULT_TOL, CheckResult, require_positive
from .errors import (
    DimensionMismatch,
    NotDensityOperator,
    NotMaximallyEntangled,
    NotUnitaryExtraction,
    SchemeInvalid,
)
from .tensor import (
    _adjoint,
    _identity_gap,
    check_projector_completeness,
    is_maximally_entangled,
    max_abs,
    omega_vector,
    vector_to_operator,
)

__all__ = [
    "TELEPORTATION",
    "DENSE_CODING",
    "MODES",
    "MaxEntangledBasis",
    "TightScheme",
    "basis_to_entangled",
    "entangled_to_basis",
    "build_scheme",
    "verify_teleportation",
    "verify_dense_coding",
    "verify_entangled_basis",
    "verify",
    "swap_roles",
    "teleport_state",
    "extract_basis_from_scheme",
]

TELEPORTATION = "teleportation"
DENSE_CODING = "dense_coding"
MODES = (TELEPORTATION, DENSE_CODING)


@dataclass(frozen=True)
class MaxEntangledBasis:
    """d^2 vectors on the d x d space, stacked as a (d^2, d^2) array.

    Constructors guarantee pairwise orthonormality and maximal entanglement
    of every vector; the dataclass itself checks shapes only so damaged
    families can be loaded and diagnosed.
    """

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        require_positive(self.d)
        vecs = np.asarray(self.vectors, dtype=complex)
        if vecs.shape != (self.d * self.d, self.d * self.d):
            raise DimensionMismatch(
                f"expected {self.d ** 2} vectors of length {self.d ** 2}, "
                f"got array of shape {vecs.shape}"
            )
        vecs = vecs.copy()
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)


@dataclass(frozen=True)
class TightScheme:
    """Shared components of a teleportation or dense-coding scheme.

    A tight scheme has a unit resource vector, d^2 unitary channels and d^2
    effect vectors forming a complete von Neumann measurement, and satisfies
    the identity of its ``mode``; :func:`verify` checks all four, and the
    dataclass checks shapes only.  ``omega`` is normally the resource vector
    (length d^2); a (d^2, d^2) matrix is also accepted so that damaged
    schemes stay representable, and the verifiers fail it on its resource
    unless it is psi psi*.  The components themselves are direction-agnostic.
    """

    d: int
    omega: np.ndarray
    channel_unitaries: np.ndarray
    effects: MaxEntangledBasis
    mode: str

    def __post_init__(self):
        d = self.d
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        omega = np.asarray(self.omega, dtype=complex)
        if omega.shape not in ((d * d,), (d * d, d * d)):
            raise DimensionMismatch(
                f"resource must be a vector of length {d * d} or a "
                f"({d * d}, {d * d}) density matrix, got shape {omega.shape}"
            )
        unitaries = np.asarray(self.channel_unitaries, dtype=complex)
        if unitaries.shape != (d * d, d, d):
            raise DimensionMismatch(
                f"expected {d ** 2} channel matrices of shape ({d}, {d}), "
                f"got array of shape {unitaries.shape}"
            )
        if self.effects.d != d:
            raise DimensionMismatch(
                f"effect vectors live at d={self.effects.d}, scheme has d={d}"
            )
        for name, array in (("omega", omega), ("channel_unitaries", unitaries)):
            array = array.copy()
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def resource_density(self) -> np.ndarray:
        """The resource as a density matrix on the d x d space."""
        if self.omega.ndim == 1:
            return np.outer(self.omega, self.omega.conj())
        return self.omega


def _resource_vector(scheme: TightScheme, tol: float) -> np.ndarray | CheckResult:
    """The resource vector psi, or the failing verdict on the resource.

    A vector is returned as it is.  A matrix Omega must pass
    |<Omega, Omega> - 1| <= tol and then be psi psi* within ``tol`` in every
    entry, where psi = Omega[:, j] / sqrt(Omega[j, j]) is read off the column
    at the largest diagonal entry j, in O(d^4).  NaN fails both tests.
    """
    omega = scheme.omega
    if omega.ndim == 1:
        return omega
    gap = float(abs(np.vdot(omega, omega) - 1))
    if gap <= tol:
        diagonal = omega.diagonal().real
        j = int(np.argmax(diagonal))
        psi = omega[:, j] / np.sqrt(diagonal[j]) if diagonal[j] > 0 else 0 * omega[:, j]
        gap = max_abs(omega - np.outer(psi, psi.conj()))
        if gap <= tol:
            return psi
    return CheckResult(False, gap, "resource is not a unit vector or a pure state")


def _reference(omega, d: int, tol: float) -> np.ndarray:
    """The reference vector, ``omega_vector(d)`` by default, checked."""
    ref = omega_vector(d) if omega is None else np.asarray(omega, dtype=complex)
    check = is_maximally_entangled(ref, d, tol)
    if not check:
        raise NotMaximallyEntangled(
            f"reference vector deviates from maximal entanglement by {check.deviation:.3e}"
        )
    return ref


def basis_to_entangled(
    basis: UnitaryBasis, omega=None, tol: float = DEFAULT_TOL
) -> MaxEntangledBasis:
    """Apply each basis element to the first factor of a reference vector.

    With a unitary basis and a maximally entangled reference, the images are
    pairwise orthonormal and each is maximally entangled.  The reference
    defaults to ``omega_vector(d)``.
    """
    d = basis.d
    ref = _reference(omega, d, tol)
    vecs = (basis.elements @ ref.reshape(d, d)).reshape(d * d, -1)
    return MaxEntangledBasis(d, vecs)


def entangled_to_basis(
    entangled: MaxEntangledBasis, omega=None, tol: float = DEFAULT_TOL
) -> UnitaryBasis:
    """Read the unitary family back off an entangled basis.

    Inverts :func:`basis_to_entangled` for the same reference vector: with
    the canonical reference the operator of each vector is taken directly,
    and a non-canonical reference contributes one extra unitary factor that
    is divided out.  A vector whose operator is not unitary (for example a
    product vector) raises ``NotUnitaryExtraction``.
    """
    d = entangled.d
    ref = _reference(omega, d, tol)
    ref_op = vector_to_operator(ref, d)
    ops = entangled.vectors.reshape(d * d, d, d) * np.sqrt(d) @ ref_op.conj().T
    devs = _identity_gap(_adjoint(ops) @ ops).max(axis=(1, 2))
    x = int(np.argmax(~(devs <= tol)))  # the first vector out of tolerance, NaN included
    if not devs[x] <= tol:
        raise NotUnitaryExtraction(
            f"vector {x} yields an operator {devs[x]:.3e} away from unitarity"
        )
    return UnitaryBasis(d, ops)


def build_scheme(basis: UnitaryBasis, mode: str = TELEPORTATION) -> TightScheme:
    """Assemble the scheme triple generated by a unitary basis.

    The resource is the canonical maximally entangled vector, the channels
    conjugate by the basis elements, and the effects project onto the
    entangled basis obtained from the same elements.
    """
    d = basis.d
    ref = omega_vector(d)
    effects = basis_to_entangled(basis, ref)
    return TightScheme(d, ref, basis.elements, effects, mode)


def verify_teleportation(scheme: TightScheme, tol: float = DEFAULT_TOL) -> CheckResult:
    """Evaluate the teleportation identity on all pairs of matrix units.

    For input state rho and observable A, summing over outcomes the joint
    probability of measuring x on (input, resource-left) and then finding A
    on the corrected right half must reproduce tr(rho A) exactly.  Matrix
    units span, so checking all d^4 (rho, A) pairs settles the identity for
    every state and observable.  Those d^4 numbers are the entries of the
    protocol's Choi matrix sum_x vec(T_x) vec(T_x)*, one matrix product on
    the stacked T_x, checked against the identity channel's vec(I) vec(I)^T,
    whose d^2 ones are subtracted from the product in place.

    Only the identity of a pure resource is checked, whatever the scheme's
    mode (a matrix that is not psi psi* fails on its resource), not the rest
    of its definition: channel unitarity, completeness of the effects and the
    vector's norm are not.  The outcome average can hold without them; d^2
    copies of I as channels pass, for one.  :func:`verify` checks all of it.
    """
    psi = _resource_vector(scheme, tol)
    if isinstance(psi, CheckResult):
        return psi
    d = scheme.d
    n = d * d
    phis = scheme.effects.vectors.reshape(n, d, d)
    # rows vec(T_x), T_x = U_x K_x with the Kraus operator K_x = W^T phi_x*
    t = (scheme.channel_unitaries @ (psi.reshape(d, d).T @ _adjoint(phis))).reshape(n, n)
    choi = t.T @ t.conj()
    choi[:: d + 1, :: d + 1] -= 1  # vec(I) vec(I)^T is 1 where both indices are (k, k)
    # gap[a, b, c, e] is at choi[(e, a), (c, b)]: state unit E[a,b], observable unit E[c,e]
    gap = np.abs(choi).reshape(d, d, d, d).transpose(1, 3, 2, 0)
    return CheckResult.worst(gap, tol, "state unit E[{},{}], observable unit E[{},{}]".format)


def verify_dense_coding(scheme: TightScheme, tol: float = DEFAULT_TOL) -> CheckResult:
    """Compute the full outcome matrix and check it against the identity.

    Entry (x, y) is the probability of decoding y when x was encoded:
    the sender conjugates the resource's left half by channel x, and the
    receiver projects onto effect y.  Each row is an outcome distribution
    regardless of validity; validity means the matrix is exactly I.  The
    matrix is the result's ``table``.

    Only the identity of a pure resource is checked (a matrix that is not
    psi psi* fails on its resource, with no table), not the rest of the
    scheme's definition: channel unitarity, completeness of the effects and
    the vector's norm are not, so an identity table from non-unitary channels
    also passes.  :func:`verify` checks all of it.
    """
    psi = _resource_vector(scheme, tol)
    if isinstance(psi, CheckResult):
        return psi
    d = scheme.d
    n = d * d
    # amplitude[x, y] = <phi_y | vec(U_x W)>
    amplitude = (scheme.channel_unitaries @ psi.reshape(d, d)).reshape(n, n)
    table = np.abs(amplitude @ scheme.effects.vectors.conj().T) ** 2
    return CheckResult.worst(_identity_gap(table), tol, "encoded {}, decoded {}".format, table)


def verify_entangled_basis(
    entangled: MaxEntangledBasis, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Check both defining properties of an entangled basis.

    The vectors must be pairwise orthonormal (for d^2 of them, the same as
    resolving the identity on the d^2-dimensional space) and each must have
    reduced operator I/d.  Reports the worse of the two deviations.
    """
    d = entangled.d
    ops = entangled.vectors.reshape(d * d, d, d)
    gaps = _identity_gap(ops @ _adjoint(ops), 1 / d).max(axis=(1, 2))
    # second, so that the Gram matrix it keeps as its table is not held beside that product
    completeness = check_projector_completeness(entangled.vectors, tol)
    return CheckResult.worst(
        np.append(completeness.deviation, gaps),
        tol,
        lambda i: f"vector {i - 1} is not maximally entangled" if i else completeness.witness,
    )


def verify(obj, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check a unitary basis, an entangled basis or a scheme by its kind.

    A scheme is checked against its whole definition: a maximally entangled
    unit resource vector (a matrix resource must be psi psi* for one), unitary
    channels, effect vectors forming a complete measurement, and the identity
    of its mode.  A resource at fault fails before any product is formed; the
    other parts make one verdict whose witness names the part at fault and
    whose ``table`` is the identity's.
    """
    if isinstance(obj, UnitaryBasis):
        return verify_orthonormal(obj, tol)
    if isinstance(obj, MaxEntangledBasis):
        return verify_entangled_basis(obj, tol)
    if not isinstance(obj, TightScheme):
        raise TypeError(f"cannot verify an object of type {type(obj).__name__}")
    psi = _resource_vector(obj, tol)
    if isinstance(psi, CheckResult):
        return psi
    norm = float(abs(np.vdot(psi, psi) - 1))
    if not norm <= tol:  # NaN included
        return CheckResult(False, norm, "resource is not a unit vector or a pure state")
    entangled = is_maximally_entangled(psi, obj.d, tol)
    if not entangled:
        return replace(entangled, witness="resource is not maximally entangled")
    u = obj.channel_unitaries
    channels = _identity_gap(_adjoint(u) @ u).max(axis=(1, 2))
    check_identity = verify_teleportation if obj.mode == TELEPORTATION else verify_dense_coding
    identity = check_identity(obj, tol)
    completeness = check_projector_completeness(obj.effects.vectors, tol)
    n = len(u)
    parts = {n: f"effect vectors are not a complete measurement: {completeness.witness}",
             n + 1: identity.witness}
    return CheckResult.worst(
        np.append(channels, [completeness.deviation, identity.deviation]), tol,
        lambda i: parts.get(i, f"channel {i} is not unitary"), identity.table,
    )


def swap_roles(scheme: TightScheme) -> TightScheme:
    """Flip the scheme's direction; the parties exchange equipment.

    The component triple is untouched.  A valid teleportation scheme read in
    the other direction is a valid dense-coding scheme, and conversely, when
    the resource's d x d matrix W satisfies W^T = +-W, as ``omega_vector(d)``
    does; for another maximally entangled resource one direction can pass and
    the other fail.
    """
    return replace(scheme, mode=MODES[1 - MODES.index(scheme.mode)])


def _check_density(rho: np.ndarray, d: int, tol: float) -> None:
    if rho.shape != (d, d):
        raise NotDensityOperator(f"state shape {rho.shape} is not ({d}, {d})")
    if not max_abs(rho - rho.conj().T) <= tol:
        raise NotDensityOperator("state is not Hermitian")
    if not abs(np.trace(rho).real - 1.0) <= tol:
        raise NotDensityOperator(f"state trace {np.trace(rho):.6f} is not 1")
    if not float(np.linalg.eigvalsh(rho).min()) >= -tol:
        raise NotDensityOperator("state has a negative eigenvalue")


def teleport_state(
    scheme: TightScheme, rho, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the measure-and-correct protocol on one input state.

    Returns the outcome-averaged output state and the d^2 outcome
    probabilities.  For a valid scheme the output equals the input and the
    outcomes are uniform at 1/d^2.  Outcomes with probability below 1e-14
    contribute no conditional state and their weight is dropped (this
    cannot happen for valid schemes).
    """
    d = scheme.d
    rho = np.asarray(rho, dtype=complex)
    _check_density(rho, d, tol)
    phis = scheme.effects.vectors.reshape(d * d, d, d)
    # conditional[x, k, n] = sum_{j, m} (phi_x* rho phi_x)[j, m] resource[(j, k), (m, n)],
    # which is K_x rho K_x* for a vector resource and the same contraction for a matrix
    resource = scheme.resource_density().reshape(d, d, d, d).transpose(0, 2, 1, 3)
    reduced = (_adjoint(phis) @ rho @ phis).reshape(d * d, -1)
    conditionals = (reduced @ resource.reshape(d * d, -1)).reshape(-1, d, d)
    probabilities = np.trace(conditionals, axis1=1, axis2=2).real
    kept = ~(probabilities < 1e-14)  # a NaN probability is kept and spoils the output
    u = scheme.channel_unitaries[kept]
    output = (u @ conditionals[kept] @ _adjoint(u)).sum(axis=0)
    return output, probabilities


def extract_basis_from_scheme(scheme: TightScheme, tol: float = DEFAULT_TOL) -> UnitaryBasis:
    """Recover the unitary basis generating a verified scheme.

    The scheme must pass :func:`verify`, else ``SchemeInvalid`` is raised.
    With the resource vector (the psi of a psi psi* matrix), which the
    verdict has found maximally entangled, as the reference,
    :func:`entangled_to_basis` reads each element off its effect vector and
    checks that it is unitary.
    The family's Gram matrix is then the effects' Gram matrix, which the
    verdict has checked, so orthonormality is not checked again.  Elements
    may differ from the generating ones by global phases, which affect
    neither the channels nor the effects.
    """
    verdict = verify(scheme, tol)
    if not verdict:
        raise SchemeInvalid(
            f"scheme fails by {verdict.deviation:.3e}: {verdict.witness}; cannot extract a basis"
        )
    return entangled_to_basis(scheme.effects, _resource_vector(scheme, tol), tol)
