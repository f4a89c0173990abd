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
completely, not on samples.

Both identities and the protocol are products of stacked arrays.  With the resource vector
reshaped to a d x d matrix W and phi_x* the adjoint of effect x's d x d matrix, :func:`verify`
reads either identity per outcome: every T_x = U_x R phi_x* is c_x I and sum_x |c_x|^2 = 1,
R = W^T for teleportation and R = W for dense coding.  For a Latin family's channels or effects,
each a permutation times phases, T_x is a gather of R's rows with scaling, O(d^2) per outcome;
with both and R one too, as for the canonical resource, T_x is its d nonzeros, O(d^3) in all.
Each value holds the reading of its stack and a conversion builds its result as one, O(d^3), the
dense stack formed only when read; the dense-coding table is then d block products.
Outcome x acts on the input by K_x = W^T phi_x*, and the output is sum_x U_x K_x rho K_x* U_x*.
All of them read the resource by one rule and fail any but a unit vector or psi psi* for one.

Phase convention: operators extracted from entangled vectors keep the phase
the correspondence delivers; round-trip equality assertions are therefore
phrased modulo a global phase per element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bases import UnitaryBasis, verify_orthonormal
from .common import (DEFAULT_TOL, CheckResult, _held, _Stack, _Value, _freeze, _worst_of,
                     require_positive)
from .errors import (
    DimensionMismatch,
    NotDensityOperator,
    NotMaximallyEntangled,
    NotUnitaryExtraction,
    SchemeInvalid,
)
from .tensor import (
    _REAL_GRAM_ROWS,
    _adjoint,
    _gram,
    _groups,
    _identity_gap,
    _monomial,
    _read,
    _scattered,
    _times,
    _unitarity,
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


@dataclass(frozen=True, eq=False)
class MaxEntangledBasis(_Value):
    """d^2 vectors on the d x d space, stacked as a (d^2, d^2) array.

    Constructors guarantee pairwise orthonormality and maximal entanglement
    of every vector; the dataclass itself checks shapes only so damaged
    families can be loaded and diagnosed.
    """

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        require_positive(self.d)
        n = self.d * self.d
        _freeze(self, "vectors", self.vectors, [(n, n)],
                f"expected {n} vectors of length {n}", complex)


@dataclass(frozen=True, eq=False)
class TightScheme(_Value):
    """Shared components of a teleportation or dense-coding scheme.

    A tight scheme has a unit resource vector, d^2 unitary channels and d^2
    effect vectors forming a complete von Neumann measurement, and satisfies
    the identity of its ``mode``; :func:`verify` checks all four, and the
    dataclass checks shapes only.  ``omega`` is normally the resource vector
    (length d^2); a (d^2, d^2) matrix, valid only as psi psi*, is also accepted
    so that damaged schemes stay representable.  The components are
    direction-agnostic.
    """

    d: int
    omega: np.ndarray
    channel_unitaries: np.ndarray
    effects: MaxEntangledBasis
    mode: str

    def __post_init__(self):
        d = self.d
        require_positive(d)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _freeze(self, "omega", self.omega, [(d * d,), (d * d, d * d)],
                f"resource must be a vector of length {d * d} or a "
                f"({d * d}, {d * d}) density matrix", complex)
        _freeze(self, "channel_unitaries", self.channel_unitaries, [(d * d, d, d)],
                f"expected {d ** 2} channel matrices of shape ({d}, {d})", complex)
        if not isinstance(self.effects, MaxEntangledBasis):  # as verify refuses an unknown type
            raise TypeError(
                f"effects must be a MaxEntangledBasis, got {type(self.effects).__name__}")
        if self.effects.d != d:
            raise DimensionMismatch(
                f"effect vectors live at d={self.effects.d}, scheme has d={d}"
            )


MaxEntangledBasis.vectors = _Stack(name="vectors")
TightScheme.channel_unitaries = _Stack(name="channel_unitaries")


def _resource_vector(scheme: TightScheme, tol: float) -> np.ndarray | CheckResult:
    """The resource vector psi, or the failing verdict on the resource.

    One rule for both forms: |<omega, omega> - 1| <= tol (a vector's squared
    norm, a matrix's purity), and a matrix Omega must be psi psi* within
    ``tol`` in every entry, where psi = Omega[:, j] / sqrt(Omega[j, j]) is read
    off the column at the largest diagonal entry j, in O(d^4).  NaN fails.
    """
    psi = omega = scheme.omega
    gap = float(abs(np.vdot(omega, omega) - 1))
    if gap <= tol and omega.ndim == 2:
        diagonal = omega.diagonal().real
        j = int(np.argmax(diagonal))
        psi = omega[:, j] / np.sqrt(diagonal[j]) if diagonal[j] > 0 else 0 * omega[:, j]
        gap = max_abs(omega - np.outer(psi, psi.conj()))
    if gap <= tol:
        return psi
    return CheckResult(False, gap, "resource is not a unit vector or a pure state")


def _reference(omega, d: int, tol: float) -> np.ndarray:
    """The reference vector: ``omega_vector(d)`` by default, else the caller's, checked."""
    if omega is None:
        return omega_vector(d)
    check = is_maximally_entangled(omega, d, tol)
    if not check:
        raise NotMaximallyEntangled(
            f"reference vector deviates from maximal entanglement by {check.deviation:.3e}"
        )
    return np.asarray(omega, dtype=complex)


def basis_to_entangled(
    basis: UnitaryBasis, omega=None, tol: float = DEFAULT_TOL
) -> MaxEntangledBasis:
    """Apply each basis element to the first factor of a reference vector.

    With a unitary basis and a maximally entangled reference, the images are
    pairwise orthonormal and each is maximally entangled.  The reference
    defaults to ``omega_vector(d)``; only a caller's is checked against ``tol``.  From 100
    elements on, a Latin family's images under a real-phased permutation, as the default is, are
    scattered from its reading: nonzeros bit for bit the product's, a zero maybe not its sign.
    """
    d = basis.d
    ref = _reference(omega, d, tol).reshape(d, d)
    vectors = d * d >= _REAL_GRAM_ROWS and _times(_read(basis, "elements"), ref, (d * d, -1))
    return MaxEntangledBasis(d, vectors or _Stack((basis.elements @ ref).reshape(d * d, -1)))


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
    return _operators(entangled, _reference(omega, entangled.d, tol), tol)


def _operators(entangled: MaxEntangledBasis, ref: np.ndarray, tol: float) -> UnitaryBasis:
    d = entangled.d
    ref_op = np.sqrt(d) * vector_to_operator(ref, d).conj().T
    ops = d * d >= _REAL_GRAM_ROWS and _times(_read(entangled, "vectors"), ref_op, (-1, d, d))
    if not ops:
        ops = _Stack((entangled.vectors.reshape(-1, d) @ ref_op).reshape(-1, d, d))
    check = _unitarity(ops.reading or ops.array, 1, tol,
                       "vector {} yields an operator".format)
    if not check:
        raise NotUnitaryExtraction(f"{check.witness} {check.deviation:.3e} away from unitarity")
    return UnitaryBasis(d, ops)


def build_scheme(basis: UnitaryBasis, mode: str = TELEPORTATION) -> TightScheme:
    """Assemble the scheme triple generated by a unitary basis.

    The resource is the canonical maximally entangled vector, the channels
    conjugate by the basis elements, and the effects project onto the
    entangled basis obtained from the same elements.  The channels are the
    basis's own stack: its read-only array, its reading, or both.
    """
    d = basis.d
    effects = basis_to_entangled(basis)  # first, so that the basis's reading is made and shared
    return TightScheme(d, _Stack(omega_vector(d)), _held(basis, "elements"), effects, mode)


def _outcome_identity(scheme: TightScheme, r: np.ndarray, tol: float):
    """Every T_x = U_x R phi_x* is c_x I, c_x = tr(T_x) / d, and sum_x |c_x|^2 = 1.

    R = W^T states teleportation; R = W states dense coding exactly given unitary channels,
    W W* = I/d and complete effects: then U_x W is unitary / sqrt(d) and |phi_x| = 1, so
    |T_x - c_x I|_F^2 = (1 - |a_x|^2) / d for the table's amplitude a_x = tr(T_x) =
    <phi_x, vec(U_x W)>, and each row of the table sums to 1.  So the table is I exactly when
    every T_x = c_x I, and then |c_x| = 1/d.  Its gap eps = max_x |1 - |a_x|^2| and the worst
    outcome gap delta obey delta^2 <= eps / d <= d^2 delta^2.  Channels or effects that are
    ``_monomial``, as a Latin family's, are read as gathers in O(d^2) per outcome; with R one
    too, T_x is its d nonzeros, O(d) per outcome.
    """
    d = scheme.d
    parts = (scheme, "channel_unitaries"), (scheme.effects, "vectors")
    u, phi = (_read(value, name, odd=True) for value, name in parts)
    # T_x, and conj(T_x) = conj(U_x R) phi_x^T with no adjoint copied, keep their gaps with rows
    # and columns in one order q; for row j of phi_x p_j at column b_j, q = b^-1 keeps the diagonal
    q = slice(None) if phi is None else (np.arange(d * d)[:, None], np.argsort(phi[0], 1))
    rr = u and phi and _monomial(r[None], 1)  # one matrix: read only past the stacks' gate
    if rr:  # row k of T_x in that order: R's entry in row a_k, times u's phase and conj(p)'s
        columns, t = (x[0][u[0][q]] for x in rr)
        t *= u[1][q]
        t *= np.take_along_axis(phi[1][q].conj(), columns, 1)
        on = columns == np.arange(d)
        diagonal, t = np.where(on, t, 0), np.where(on, 0, t)
        c = diagonal.sum(axis=1) / d  # tr(T_x) as np.trace sums it, zeros in their places
        gaps = np.maximum(np.abs(diagonal - c[:, None]).max(axis=1), np.abs(t).max(axis=1))
    else:
        if u is None:
            t = (scheme.channel_unitaries[q].reshape(-1, d) @ r).reshape(-1, d, d)
        else:  # row i of U_x R is u_i R[a_i] if row i of U_x is u_i at column a_i
            t = r[u[0][q]]
            t *= u[1][q][..., None]
        if phi is None:
            effects = scheme.effects.vectors.reshape(-1, d, d)
            t = np.conjugate(t, out=t) @ np.swapaxes(effects, 1, 2)
        else:  # T_x in that order is (U_x R)[q] times conj(p[q]) on the columns
            t *= phi[1][q].conj()[:, None, :]
        c = np.trace(t, axis1=1, axis2=2) / d
        gaps = _identity_gap(t, c[:, None]).max(axis=(1, 2))
    odd = [x[2] for x in (u, phi) if x and len(x) > 2]
    if odd:  # conj(T_x) = conj(U_x R) phi_x^T of the odd outcomes, a held reading scattered
        odd = np.flatnonzero(np.bincount(np.concatenate(odd), minlength=d * d))
        v, p = (_scattered(x[0][odd], x[1][odd]) if x and len(x) == 2
                else getattr(*part).reshape(-1, d, d)[odd] for x, part in zip((u, phi), parts))
        t = np.conj(v @ r) @ np.swapaxes(p, 1, 2)
        c[odd] = np.trace(t, axis1=1, axis2=2) / d
        gaps[odd] = _identity_gap(t, c[odd][:, None]).max(axis=(1, 2))
    outcomes = CheckResult.worst(gaps, tol, "outcome {}: T_x is not a multiple of I".format)
    weight = float(np.vdot(c, c).real)
    gap = abs(weight - 1)
    weights = CheckResult(bool(gap <= tol), gap, f"outcome weights sum to {weight}")
    return _worst_of([outcomes, weights])


def verify_teleportation(scheme: TightScheme, tol: float = DEFAULT_TOL) -> CheckResult:
    """Evaluate the teleportation identity outcome by outcome.

    Averaged over outcomes, the protocol must reproduce tr(rho A) for every
    state rho and observable A.  Over the matrix units these d^4 numbers form
    the Choi matrix sum_x vec(T_x) vec(T_x)*, a sum of PSD rank-one terms, so
    they hold exactly when every T_x = U_x W^T phi_x* is c_x I and the weights
    |c_x|^2 sum to 1.  The worst gap delta and the Choi matrix's gap eps obey
    eps <= (1 + 2d) delta + d (d + 1) delta^2, delta <= max(eps, sqrt(d (d + 1) eps)).

    The resource's form (a unit vector, or a matrix that is psi psi*) and the
    identity are checked, whatever the scheme's mode, and nothing else:
    channel unitarity, completeness of the effects and maximal entanglement
    are not.  The outcome average can hold without them; d^2 copies of I as
    channels pass, for one.  :func:`verify` checks all of it.
    """
    psi = _resource_vector(scheme, tol)
    if isinstance(psi, CheckResult):
        return psi
    return _outcome_identity(scheme, psi.reshape(scheme.d, -1).T, tol)


def verify_dense_coding(scheme: TightScheme, tol: float = DEFAULT_TOL) -> CheckResult:
    """Compute the full outcome matrix and check it against the identity.

    Entry (x, y) is the probability of decoding y when x was encoded:
    the sender conjugates the resource's left half by channel x, and the
    receiver projects onto effect y.  Validity means the matrix, the result's
    ``table``, is exactly I.  Its entries are probabilities, so its gap is
    quadratic in the damage by definition.  When the rows vec(U_x W) and the
    effects are read as the same d groups, the table is d block products.

    The resource's form (a unit vector, or a matrix that is psi psi*; one
    that fails has no table) and the identity are checked, and nothing else:
    channel unitarity, completeness of the effects and maximal entanglement
    are not, so an identity table from non-unitary channels also passes.
    :func:`verify` checks all of it, with the identity read per outcome.
    """
    psi = _resource_vector(scheme, tol)
    if isinstance(psi, CheckResult):
        return psi
    d = scheme.d
    n, w = d * d, psi.reshape(d, d)
    u, phi = _read(scheme, "channel_unitaries"), _read(scheme.effects, "vectors")
    rows = u and phi and getattr(_times(u, w, (n, n)), "reading", None)  # vec(U_x W), read
    both = rows and [_groups(None, reading) for reading in (rows, phi)]  # (members, blocks)
    if both and all(both) and (rows[0][both[0][0][:, 0]] == phi[0][both[1][0][:, 0]]).all():
        # group g of the rows and of the effects share one permutation, disjoint from the others'
        (mx, bx, _), (my, by, _) = both
        table = np.zeros((n, n))
        table[mx[:, :, None], my[:, None, :]] = np.abs(np.conj(bx) @ by.swapaxes(1, 2)) ** 2
    else:  # |<phi_y | vec(U_x W)>| as |conj(vec(U_x W)) . phi_y|, so the effects are not copied
        table = np.abs(np.conj(scheme.channel_unitaries @ w).reshape(n, n)
                       @ scheme.effects.vectors.T)
        table **= 2
    return CheckResult.worst(_identity_gap(table), tol, "encoded {}, decoded {}".format, table)


def verify_entangled_basis(
    entangled: MaxEntangledBasis, tol: float = DEFAULT_TOL
) -> CheckResult:
    """Check both defining properties of an entangled basis.

    The vectors must be pairwise orthonormal (for d^2 of them, the same as
    resolving the identity on the d^2-dimensional space) and each must have
    reduced operator I/d.  Reports the worse of the two deviations; ``table``
    is the vectors' Gram matrix.
    """
    d, reading = entangled.d, _read(entangled, "vectors")
    # phi phi* = I/d read as its conjugate (see is_maximally_entangled), before the Gram matrix
    vectors = _unitarity(reading or entangled.vectors.reshape(d * d, d, d).swapaxes(1, 2), 1 / d,
                         tol, "vector {} is not maximally entangled".format)
    return _worst_of([_gram(lambda: entangled.vectors, tol, reading=reading), vectors])


def verify(obj, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check a unitary basis, an entangled basis or a scheme by its kind.

    A scheme is checked against its whole definition: a maximally entangled
    unit resource vector (or psi psi* as a matrix), unitary channels, effects
    forming a complete measurement, and the identity per outcome, every
    U_x R phi_x* = c_x I with R = W^T or W by mode.  A resource at fault fails
    before any product is formed; the rest is one verdict naming the part at
    fault, whose ``table`` is the effects' Gram matrix.
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
    entangled = is_maximally_entangled(psi, obj.d, tol)
    if not entangled:
        return replace(entangled, witness="resource is not maximally entangled")
    channels = _unitarity(_read(obj, "channel_unitaries") or obj.channel_unitaries, 1, tol,
                          "channel {} is not unitary".format)
    w = psi.reshape(obj.d, -1)
    identity = _outcome_identity(obj, w.T if obj.mode == TELEPORTATION else w, tol)
    effects = _gram(lambda: obj.effects.vectors, tol, reading=_read(obj.effects, "vectors"), name=(
        "effect vectors are not a complete measurement: Gram entry ({}, {})".format))
    return _worst_of([channels, effects, identity])


def swap_roles(scheme: TightScheme) -> TightScheme:
    """Flip the scheme's direction; the parties exchange equipment.

    The component triple is untouched; only R in U_x R phi_x* = c_x I changes,
    from W^T to W or back.  So both readings agree when W^T = +-W, as for
    ``omega_vector(d)``; for another maximally entangled resource one direction
    can pass and the other fail.  Both schemes hold the same read-only arrays and stack.
    """
    return TightScheme(scheme.d, _Stack(scheme.omega), _held(scheme, "channel_unitaries"),
                       scheme.effects, MODES[1 - MODES.index(scheme.mode)])


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

    Returns the output state sum_x U_x K_x rho K_x* U_x* and the d^2 outcome
    probabilities tr(K_x rho K_x*).  For a valid scheme the output equals the
    input and the outcomes are uniform at 1/d^2.  A resource that is neither
    a unit vector nor psi psi* raises ``SchemeInvalid``; nothing else of the
    scheme is checked.
    """
    d = scheme.d
    rho = np.asarray(rho, dtype=complex)
    _check_density(rho, d, tol)
    psi = _resource_vector(scheme, tol)
    if isinstance(psi, CheckResult):
        raise SchemeInvalid(f"scheme fails by {psi.deviation:.3e}: {psi.witness}; cannot teleport")
    wt, phi = psi.reshape(d, d).T, _read(scheme.effects, "vectors")
    if phi and not wt.imag.any():  # column j of K_x: W^T's column b_j times conj(p_j), as summed
        kraus = wt[:, phi[0]].transpose(1, 0, 2) * phi[1].conj()[:, None, :]
    else:
        kraus = wt @ _adjoint(scheme.effects.vectors.reshape(d * d, d, d))  # K_x
    conditionals = kraus @ rho @ _adjoint(kraus)
    del kraus  # not held beside the channels, which a scheme held as its reading forms now
    probabilities = np.trace(conditionals, axis1=1, axis2=2).real
    u = scheme.channel_unitaries
    output = (u @ conditionals @ _adjoint(u)).sum(axis=0)
    return output, probabilities


def extract_basis_from_scheme(scheme: TightScheme, tol: float = DEFAULT_TOL) -> UnitaryBasis:
    """Recover the unitary basis generating a verified scheme.

    The scheme must pass :func:`verify`, else ``SchemeInvalid`` is raised.  With its
    resource vector (the psi of a psi psi* matrix) as the reference,
    :func:`entangled_to_basis` reads each element off its effect vector, with no
    second check of the resource, and checks that it is unitary: the verdict
    bounds that gap only by a multiple of its deviation that grows with d.  The
    family's Gram matrix is the effects', which the verdict has checked.
    Elements may differ from the generating ones by global phases, which affect
    neither the channels nor the effects.
    """
    verdict = verify(scheme, tol)
    if not verdict:
        raise SchemeInvalid(
            f"scheme fails by {verdict.deviation:.3e}: {verdict.witness}; cannot extract a basis"
        )
    del verdict  # its Gram table or blocks are not held beside the extraction's products
    return _operators(scheme.effects, _resource_vector(scheme, tol), tol)
