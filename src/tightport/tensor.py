"""Dense complex linear algebra on bipartite spaces.

Conventions used everywhere in this package:

* basis labels run 0..d-1;
* composite indices are row-major with the first tensor factor varying
  slowest, so the pair (i, k) on a dA x dB space has flat index i*dB + k;
* matrices and vectors are plain complex ``numpy`` arrays.

The reference entangled vector is ``omega_vector(d)``, the uniform sum of
e_k (x) e_k scaled to unit norm.  A d x d operator A corresponds to the
d^2-vector (A (x) I) applied to that reference, whose entries are A's
row-major entries over sqrt(d); ``vector_to_operator`` reads A back, which
turns statements about entangled vectors into statements about operators.
"""

from __future__ import annotations

import numpy as np

from .common import DEFAULT_TOL, CheckResult, require_positive
from .errors import CountMismatch, DimensionMismatch, NotNormalized

__all__ = [
    "trace_inner",
    "omega_vector",
    "vector_to_operator",
    "is_maximally_entangled",
    "check_projector_completeness",
    "max_abs",
]


def max_abs(a) -> float:
    """Largest entry magnitude of an array (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack (..., m, n)."""
    return np.swapaxes(stack, -1, -2).conj()


def _identity_gap(product: np.ndarray, scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Entrywise |product - scale I| of a square matrix or of each in a stack.

    ``scale`` is a number, or one per matrix shaped (count, 1).  Read in place
    from the product buffer: off the diagonal the gap is |product|; only the n
    diagonal entries of each matrix are rewritten, through a strided view of
    the result, C-ordered so that the view is one whatever the layout of ``product``.
    """
    gap = np.abs(product, order="C")
    n = gap.shape[-1]
    diagonals = gap.reshape(-1, n * n)[:, :: n + 1]
    diagonals[...] = np.abs(np.diagonal(product, axis1=-2, axis2=-1).reshape(-1, n) - scale)
    return gap


def _unitarity(stack: np.ndarray, scale: float, tol: float, name) -> CheckResult:
    """The verdict on S* S = scale I for every matrix S of a stack; ``name(x)`` names S_x."""
    gaps = _identity_gap(_adjoint(stack) @ stack, scale).max(axis=(1, 2))
    return CheckResult.worst(gaps, tol, name)


def _gram(rows: np.ndarray, tol: float, scale=1, name="Gram entry ({}, {})".format) -> CheckResult:
    """The verdict on conj(V) V^T / scale = I for the rows of V; ``table`` is that matrix."""
    gram = rows.conj() @ rows.T
    if scale != 1:  # complex division, even by 1, would turn -0.0 into +0.0
        gram /= scale
    return CheckResult.worst(_identity_gap(gram), tol, name, gram)


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def _as_vector(psi, d: int) -> np.ndarray:
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"psi must be 1-dimensional, got shape {v.shape}")
    if v.shape != (d * d,):
        raise DimensionMismatch(f"vector length {v.shape[0]} is not {d * d}")
    return v


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


def vector_to_operator(psi, d: int) -> np.ndarray:
    """The A with (A (x) I) omega_vector(d) = psi: entry (k, l) is sqrt(d) psi[k*d+l]."""
    return _as_vector(psi, d).reshape(d, d) * np.sqrt(d)


def is_maximally_entangled(psi, d: int, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check that the reduced operator of a unit vector on d x d is I/d.

    Equivalently, the operator read off the vector by
    :func:`vector_to_operator` is unitary.  Raises ``NotNormalized`` when
    the squared norm strays from 1 by more than ``tol``.
    """
    v = _as_vector(psi, d)
    norm_sq = float(np.vdot(v, v).real)
    if abs(norm_sq - 1.0) > tol:  # a NaN norm is failed below, by its deviation
        raise NotNormalized(f"squared norm {norm_sq} deviates from 1 beyond {tol}")
    # W W* = I/d read through S = W^T as S* S = conj(W W*), whose gaps have the same moduli
    return _unitarity(v.reshape(1, d, d).swapaxes(1, 2), 1 / d, tol,
                      lambda _: "reduced operator deviates from I/d")


def check_projector_completeness(vectors, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check that D vectors in a D-dimensional space resolve the identity.

    ``vectors`` stacks to a (D, D) array V, one vector per row; D must be at
    least 1.  The rank-one projectors sum to I exactly when the Gram matrix
    conj(V) V^T is I: for square V the two gaps conj(V) V^T - I and
    V^T conj(V) - I share their singular values, so one side settles both,
    and the other side's largest entry is at most D times this one's.  Only
    the Gram side is formed, and its gap is read from the product buffer.
    ``table`` is the Gram matrix.
    """
    vs = np.asarray(vectors, dtype=complex)
    if vs.ndim != 2 or not vs.size:
        raise DimensionMismatch(
            f"vectors must stack to a non-empty (count, dimension) array, got shape {vs.shape}"
        )
    count, dim = vs.shape
    if count != dim:
        raise CountMismatch(f"got {count} vectors in dimension {dim}")
    return _gram(vs, tol)
