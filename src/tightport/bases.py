"""Unitary operator bases: construction and verification.

A unitary basis on a d-dimensional space is a family of d^2 unitaries that
is orthonormal in the normalized trace inner product tr(U* V) / d.  Such a
family is simultaneously a depolarizing channel decomposition: conjugating
any matrix M by all elements and summing yields d tr(M) I.  Both facts are
checked numerically here, never assumed.

Every check is a product of one matrix: stack the elements as the d^2 x d^2
matrix A with rows vec(U_x).  Orthonormality is A A* = d I, the depolarizer
identity over all matrix units is A* A = d I, and the weight recovered from
the weighted Gram equations is the inverse of Tr_2 (A^T conj(A)) / d, in
closed form.  A weighted Gram matrix tr(K_x* W K_y) is the plain one of the
whitened L* K_x, for W = L L*.  Each Gram is O(d^6); on a Latin family, whose
whitened elements stay a permutation times phases for a diagonal W such as the
recovered weight, each is grouped from that reading into the d Hadamard blocks
(A's columns transposed), O(d^4), so the witness names a rounding-level entry.
A basis reads its elements once and keeps the reading for its verdicts; the depolarizer takes a
kept one but keeps none it makes, so that a fresh call peaks at its blocks.

The workhorse construction is shift-and-multiply: element (i, j) sends
basis vector k to row ``grid[j, k]`` with phase ``H_j[i, k]``, where the
grid is a Latin square and each H_j is a complex Hadamard matrix.  A raw grid
or matrix is validated by building its ``LatinSquare`` or ``HadamardMatrix``,
the designs' one check.  Flat element labels are x = i*d + j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (DEFAULT_TOL, CheckResult, _Built, _Value, _freeze, _worst_of,
                     as_permutation, require_positive)
from .designs import HadamardMatrix, LatinSquare, fourier_hadamard, latin_from_cyclic
from .errors import (
    DesignInvalid,
    DimensionMismatch,
    NoSolution,
    NotUnitary,
    WeightNotPositive,
)
from .tensor import (_adjoint, _block_grams, _gram, _gram_verdict, _groups, _identity_gap,
                     _read, _unitarity, max_abs)

__all__ = [
    "UnitaryBasis",
    "shift_multiply_basis",
    "weyl_basis",
    "verify_orthonormal",
    "verify_depolarizer",
    "weighted_gram",
    "recover_weight_from_unitary_gram",
    "tensor_bases",
    "apply_equivalence",
]


@dataclass(frozen=True, eq=False)
class UnitaryBasis(_Value):
    """d^2 operators on a d-dimensional space, stacked as one (d^2, d, d) array.

    Construction checks shapes only; the defining unitarity and
    orthonormality conditions are the business of :func:`verify_orthonormal`,
    so that perturbed or corrupted families can still be represented and
    diagnosed.
    """

    d: int
    elements: np.ndarray

    def __post_init__(self):
        d = self.d
        require_positive(d)
        _freeze(self, "elements", self.elements, [(d * d, d, d)],
                f"expected {d ** 2} matrices of shape ({d}, {d})", complex)


def _raw_shift_multiply(grid: np.ndarray, phase_mats: list[np.ndarray]) -> np.ndarray:
    """Assemble the operator family without validating the designs.

    Exists so tests can show the converse: a non-Latin grid or a
    non-Hadamard phase matrix yields a family that fails orthonormality.
    """
    d = grid.shape[0]
    elems = np.zeros((d * d, d, d), dtype=complex)
    i, j, k = np.indices((d, d, d))
    elems[i * d + j, grid[j, k], k] = np.asarray(phase_mats)[j, i, k]
    return elems


def shift_multiply_basis(square, hadamards) -> UnitaryBasis:
    """Build a unitary basis from a Latin square and d Hadamard matrices.

    Element (i, j) acts as ``e_k -> H_j[i, k] e_{grid[j, k]}``; validity of
    the two designs is necessary and sufficient for the result to be a
    basis, so a raw grid or matrix is built into its design, whose
    ``DesignInvalid`` rejects it instead of silently producing a non-basis.
    """
    grid = (square if isinstance(square, LatinSquare) else LatinSquare(square)).grid
    d = len(grid)
    hadamards = list(hadamards)
    if len(hadamards) != d:
        raise DesignInvalid(f"need exactly {d} Hadamard matrices, got {len(hadamards)}")
    mats = []
    for j, h in enumerate(hadamards):
        try:
            m = (h if isinstance(h, HadamardMatrix) else HadamardMatrix(h)).matrix
        except DesignInvalid as error:
            raise DesignInvalid(f"Hadamard {j}: {error}") from None
        if m.shape != (d, d):
            raise DesignInvalid(f"Hadamard {j} has shape {m.shape}, expected ({d}, {d})")
        mats.append(m)
    return UnitaryBasis(d, _Built(_raw_shift_multiply(grid, mats)))


def weyl_basis(d: int) -> UnitaryBasis:
    """Shift-and-multiply basis from the cyclic Latin square and Fourier phases.

    The resulting family is closed under multiplication up to unimodular
    factors, with labels adding componentwise mod d; at d = 2 it is the
    identity and the three Pauli matrices up to phases.
    """
    return shift_multiply_basis(latin_from_cyclic(d), [fourier_hadamard(d)] * d)


def _stacked(basis: UnitaryBasis) -> np.ndarray:
    """The d^2 x d^2 matrix A with rows vec(U_x)."""
    return basis.elements.reshape(basis.d * basis.d, -1)


def verify_orthonormal(basis: UnitaryBasis, tol: float = DEFAULT_TOL) -> CheckResult:
    """Gram matrix of trace inner products, checked against the identity.

    Also re-checks that every element is unitary; a family can have an
    identity Gram matrix while containing non-unitaries, and it is only a
    basis in the intended sense when both hold.  The deviation is the worse
    of the two; ``table`` is the Gram matrix.
    """
    # the elements' products first, so that the Gram matrix is not held beside them
    elements = _unitarity(basis.elements, 1, tol, "element {} is not unitary".format,
                          _read(basis, "elements"))
    gram = _gram(_stacked(basis), tol, basis.d, reading=_read(basis, "elements"))
    return _worst_of([gram, elements])


def verify_depolarizer(basis: UnitaryBasis, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check that conjugating each matrix unit E by all elements sums to d tr(E) I.

    The d^2 matrix units span every matrix, so by linearity the check is
    complete.  For the matrix unit E[a, b] the sum is block (a, b) of A* A,
    so the check is A* A = d I, read as the Gram matrix of A's columns; the
    witness is the matrix unit of its first NaN, else its first worst entry.
    """
    d, a = basis.d, _stacked(basis)
    members, gram = _block_grams(a.T, _groups(a, _read(basis, "elements", keep=False),
                                              transposed=True))  # read, if not kept, and dropped
    return _gram_verdict(_identity_gap(gram, d), members, tol,
                         lambda i, j: f"matrix unit E[{i // d},{j // d}]")


def weighted_gram(operators, weight_inverse, tol: float = DEFAULT_TOL) -> CheckResult:
    """Gram matrix tr(K_x* W K_y), with W the supplied inverse weight.

    W must be positive definite.  Among all W, only the maximally mixed
    density I/d admits d^2 unitaries with an identity weighted Gram matrix,
    so a deformed weight must push the result off identity for any unitary
    family.  ``table`` is the Gram matrix of the L* K_x, for the Cholesky
    factor W = L L* of W's lower triangle (``WeightNotPositive`` if none).
    """
    ops = np.asarray(operators, dtype=complex)
    if ops.ndim != 3 or ops.shape[-2] != ops.shape[-1] or not len(ops):
        raise DimensionMismatch(
            f"operators must stack to (n, d, d) with n >= 1, got shape {ops.shape}"
        )
    w = np.asarray(weight_inverse, dtype=complex)
    n, d = ops.shape[:2]
    require_positive(d)
    if w.shape != (d, d):
        raise DimensionMismatch(f"weight shape {w.shape} does not match operators ({d}, {d})")
    if not max_abs(w - w.conj().T) <= 1e-12:
        raise WeightNotPositive("weight is not Hermitian")
    if not float(np.linalg.eigvalsh(w).min()) > 1e-12:
        raise WeightNotPositive("weight has an eigenvalue at or below 1e-12")
    try:
        root = _adjoint(np.linalg.cholesky(w))
    except np.linalg.LinAlgError:
        raise WeightNotPositive("weight is too ill-conditioned for a Cholesky factor") from None
    return _gram((root @ ops).reshape(n, -1), tol)


def recover_weight_from_unitary_gram(
    basis: UnitaryBasis, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Solve for the density operator rho with tr(U_x* rho U_y) = delta_{xy}.

    The d^4 equations overdetermine the d^2 parameters of rho but are
    consistent exactly when the family is a genuine basis, in which case the
    unique solution is I/d.  They say conj(A) (rho (x) I) A^T = I, so then
    rho^{-1} (x) I = A^T conj(A), and rho is the inverse of its partial trace
    P = sum_x U_x U_x* / d: for P = C C* and c = C^{-1}, rho = c* c, and the
    residual is the Gram matrix of the c U_x.  A non-finite entry, a P with no
    Cholesky factor, a residual beyond ``tol`` (NaN included) or a solution
    away from I/d raises ``NoSolution``: the input was not a basis.
    """
    d, elems = basis.d, basis.elements
    if not np.isfinite(elems).all():
        raise NoSolution("the family has non-finite entries")
    # s[k, (x, i)] = U_x[k, i], so s s* / d = sum_x U_x U_x* / d
    s = elems.transpose(1, 0, 2).reshape(d, -1)
    try:
        c = np.linalg.inv(np.linalg.cholesky(s @ s.conj().T / d))
    except np.linalg.LinAlgError:
        raise NoSolution("the family's partial Gram trace is singular") from None
    rho = _block_grams(c.T)[1]
    residual = _gram((c @ elems).reshape(d * d, -1), tol)
    if not residual:
        raise NoSolution(f"weighted Gram residual {residual.deviation:.3e} exceeds {tol}; "
                         f"the family is not an orthonormal basis")
    witness_dev = float(_identity_gap(rho, 1 / d).max())
    if not witness_dev <= tol:
        raise NoSolution(f"recovered weight deviates from I/d by {witness_dev:.3e} "
                         f"despite a small residual")
    return rho


def tensor_bases(b1: UnitaryBasis, b2: UnitaryBasis) -> UnitaryBasis:
    """Elementwise Kronecker products, a basis on the product space."""
    d = b1.d * b2.d
    # product[x, y, a, b, i, j] = U_x[a, i] V_y[b, j]
    product = b1.elements[:, None, :, None, :, None] * b2.elements[None, :, None, :, None, :]
    return UnitaryBasis(d, _Built(product.reshape(d * d, d, d)))


def apply_equivalence(
    basis: UnitaryBasis, v1, v2, relabel=None
) -> UnitaryBasis:
    """Map every element U to V1 U V2 after an optional relabelling.

    V1 and V2 must be unitary; the move preserves orthonormality exactly,
    which is what makes it an equivalence of bases.
    """
    d = basis.d
    v1, v2 = np.asarray(v1, dtype=complex), np.asarray(v2, dtype=complex)
    for name, v in (("V1", v1), ("V2", v2)):
        if v.shape != (d, d):
            raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({d}, {d})")
    unitary = _unitarity(np.stack([v1, v2]), 1, DEFAULT_TOL, lambda x: f"V{x + 1}")
    if not unitary:
        raise NotUnitary(f"{unitary.witness} deviates from unitarity by {unitary.deviation:.3e}")
    order = np.arange(d * d) if relabel is None else as_permutation(relabel, d * d)
    return UnitaryBasis(d, _Built(v1 @ basis.elements[order] @ v2))
