"""Dense complex linear algebra on bipartite spaces.

Conventions used everywhere in this package:

* basis labels run 0..d-1;
* composite indices are row-major with the first tensor factor varying
  slowest, so the pair (i, k) on a dA x dB space has flat index i*dB + k;
* matrices and vectors are plain complex ``numpy`` arrays.

The reference entangled vector is ``omega_vector(d)``, the uniform sum of
e_k (x) e_k scaled to unit norm.  ``operator_to_vector`` and
``vector_to_operator`` translate between a d x d operator A and the
d^2-vector (A (x) I) applied to that reference, which turns statements
about entangled vectors into statements about operators and back.
"""

from __future__ import annotations

import numpy as np

from .common import DEFAULT_TOL, CheckResult, require_positive
from .errors import CountMismatch, DimensionMismatch, NotNormalized

__all__ = [
    "tensor_product",
    "partial_trace",
    "trace_inner",
    "omega_vector",
    "operator_to_vector",
    "vector_to_operator",
    "transpose_in_basis",
    "is_maximally_entangled",
    "check_projector_completeness",
    "matrix_units",
    "max_abs",
]


def max_abs(a) -> float:
    """Largest entry magnitude of an array (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack (..., m, n)."""
    return np.swapaxes(stack, -1, -2).conj()


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def _as_vector(v, name: str = "vector") -> np.ndarray:
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-dimensional, got shape {w.shape}")
    return w


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first factor varying slowest.

    The entry at composite position ((i, k), (j, l)) is ``a[i, j] * b[k, l]``.
    """
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


def partial_trace(m, shape: tuple[int, int], factor: str = "second") -> np.ndarray:
    """Trace out one tensor factor of an operator on a dA x dB space.

    Parameters
    ----------
    m : array_like
        Square matrix of size dA*dB.
    shape : (dA, dB)
        Dimensions of the two factors.
    factor : {"first", "second"}
        Which factor to trace out; the result lives on the other one.
    """
    dim_a, dim_b = int(shape[0]), int(shape[1])
    mat = _as_matrix(m)
    n = dim_a * dim_b
    if mat.shape != (n, n):
        raise DimensionMismatch(
            f"matrix shape {mat.shape} does not match factors ({dim_a}, {dim_b})"
        )
    four = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if factor == "second":
        return np.einsum("ikjk->ij", four)
    if factor == "first":
        return np.einsum("ikil->kl", four)
    raise ValueError(f"factor must be 'first' or 'second', got {factor!r}")


def trace_inner(a, b) -> complex:
    """Normalized trace inner product tr(A* B) / d, conjugate-linear in A."""
    am = _as_matrix(a, "a")
    bm = _as_matrix(b, "b")
    if am.shape != bm.shape or am.shape[0] != am.shape[1]:
        raise DimensionMismatch(
            f"operands must share a square shape, got {am.shape} and {bm.shape}"
        )
    return complex(np.vdot(am, bm) / am.shape[0])


def omega_vector(d: int) -> np.ndarray:
    """Unit-norm uniform sum of e_k (x) e_k on a d x d space."""
    require_positive(d)
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return v


def operator_to_vector(a, d: int) -> np.ndarray:
    """Vector (A (x) I) omega_vector(d) of a d x d operator A.

    The squared norm of the result is tr(A* A) / d, so unitaries map to
    unit vectors.
    """
    am = _as_matrix(a, "a")
    if am.shape != (d, d):
        raise DimensionMismatch(f"operator shape {am.shape} is not ({d}, {d})")
    return am.reshape(-1) / np.sqrt(d)


def vector_to_operator(psi, d: int) -> np.ndarray:
    """Inverse of :func:`operator_to_vector`; entry (k, l) is sqrt(d) psi[k*d+l]."""
    v = _as_vector(psi, "psi")
    if v.shape != (d * d,):
        raise DimensionMismatch(f"vector length {v.shape[0]} is not {d * d}")
    return v.reshape(d, d) * np.sqrt(d)


def transpose_in_basis(a) -> np.ndarray:
    """Plain transpose (no conjugation) in the computational basis."""
    return _as_matrix(a).T.copy()


def is_maximally_entangled(psi, d: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check that the reduced operator of a unit vector on d x d is I/d.

    Equivalently, the operator read off the vector by
    :func:`vector_to_operator` is unitary.  Raises ``NotNormalized`` when
    the squared norm strays from 1 by more than ``tol``.
    """
    v = _as_vector(psi, "psi")
    if v.shape != (d * d,):
        raise DimensionMismatch(f"vector length {v.shape[0]} is not {d * d}")
    norm_sq = float(np.vdot(v, v).real)
    if abs(norm_sq - 1.0) > tol:  # a NaN norm is failed below, by its deviation
        raise NotNormalized(f"squared norm {norm_sq} deviates from 1 beyond {tol}")
    op = v.reshape(d, d)
    gap = np.abs(op @ op.conj().T - np.eye(d) / d)
    return CheckResult.worst(gap, tol, lambda *_: "reduced operator deviates from I/d")


def check_projector_completeness(vectors, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check that D vectors in a D-dimensional space resolve the identity.

    Both sides of the equivalence are computed: the rank-one projectors must
    sum to I, and the pairwise Gram matrix must be I.  The reported
    deviation is the larger of the two.
    """
    vs = np.asarray([_as_vector(v) for v in vectors], dtype=complex)
    dim = vs.shape[1]
    if vs.shape[0] != dim:
        raise CountMismatch(f"got {vs.shape[0]} vectors in dimension {dim}")
    sides = [max_abs(vs.T @ vs.conj() - np.eye(dim)), max_abs(vs.conj() @ vs.T - np.eye(dim))]
    names = ("projector sum deviates from identity", "Gram matrix deviates from identity")
    return CheckResult.worst(sides, tol, lambda side: names[side])


def matrix_units(d: int) -> np.ndarray:
    """All d^2 matrix units E[a, b], stacked at flat index a*d + b."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)
