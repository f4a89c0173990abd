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

Every orthonormality statement is a Gram identity conj(V) V^T = I on a d^2 x d^2 matrix, the
cost of every verdict.  Below 100 rows it is one complex product; from 100 on, in real arithmetic
at half the multiplications, with V = A + iB: R R^T for V's float64 view R gives A A^T + B B^T,
and M - M^T for M = A B^T the imaginary part.  A Latin family (``shift_multiply_basis``,
``weyl_basis``, ``tensor_bases`` of those, their entangled bases and schemes) is the paper's d
Hadamard blocks up to order, so its Gram is d products of d x d blocks, O(d^4); any other family
pays the full O(d^6) product.  Either table is exactly Hermitian and within about n eps
max|row|^2 of the complex product, so on a passing family the witness names a rounding-level
entry; its gaps are read off the blocks.  Each element, channel and entangled-basis matrix S
of a Latin family is a permutation times phases, so from 100 on S* S is diag(|phase|^2): O(d^3)
in all, not O(d^5) in products, and with a resource that is one too each T_x of a scheme's
outcome identity is its d nonzeros, O(d^3) in all.
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


def _unitarity(stack: np.ndarray, scale: float, tol: float, name, reading=False) -> CheckResult:
    """The verdict on S* S = scale I for every matrix S of a stack; ``name(x)`` names S_x.
    For S or S^T ``_monomial`` (S's phases either way) S* S is diag(|phase|^2), O(d^3) in all;
    ``reading`` is the stack's ``_monomial`` when the caller has read it."""
    if reading is False:
        base = stack.swapaxes(1, 2)  # a transposed view is read through its base, with no copy
        reading = _monomial(base if base.flags.c_contiguous else stack)
    phases = (reading or (None, None))[1]
    gaps = (_identity_gap(_adjoint(stack) @ stack, scale).max(axis=(1, 2)) if phases is None
            else np.abs(phases.real ** 2 + phases.imag ** 2 - scale).max(axis=1))
    return CheckResult.worst(gaps, tol, name)


# From this many rows on, the Hermitian Gram is formed in real arithmetic.  Seeded
# dense square complex rows, one OpenBLAS 0.3.31 thread, numpy 2.4, best of 15 on a
# 2-core x86-64 virtual machine, real form against one complex product: 0.83x the
# speed at n = 64, 1.0x at n = 81 and 100, 1.10x at 121, 1.19x at 144, 1.24x at 256.
_REAL_GRAM_ROWS = 100


def _monomial(stack: np.ndarray, least: int = _REAL_GRAM_ROWS):
    """(columns, phases) when each S_x of at least ``least`` complex d x d matrices is a
    permutation times phases, row i phases[x, i] at column columns[x, i], |phase|^2 finite."""
    count, d = stack.shape[:2]
    if count < least or np.count_nonzero(stack[0]) != d:  # a dense family reads one matrix
        return None
    flat = np.flatnonzero((np.ascontiguousarray(stack).view(float) != 0).view(np.uint16) != 0)
    if len(flat) != count * d:  # d nonzeros a matrix, a NaN counted as one
        return None
    columns = (flat - d * np.arange(len(flat))).reshape(count, d)  # row i's, if it holds one
    phases = stack.reshape(-1)[flat].reshape(count, d)
    # sorted to 0..d-1 only if one in a row, a permutation; finite |phase|^2 make 0 * phase 0
    if (np.sort(columns, axis=1) == np.arange(d)).all() and np.isfinite(np.vdot(phases, phases)):
        return columns, phases
    return None


def _blocks(rows: np.ndarray):
    """(members, blocks) when V is block diagonal up to row and column order, with k >= 2
    groups of m rows on m columns each: group g is rows ``members[g]``, ``blocks[g]`` finite."""
    x = rows.T if rows.flags.f_contiguous else rows  # read in C order
    m = np.count_nonzero(x[0])
    if not (0 < m <= len(x) / 2 and len(x) % m == 0):  # so a dense family reads one row
        return None
    nonzero = x.astype(bool, order="C")  # grouped by first nonzero column, m at a time
    groups = np.argsort(nonzero.argmax(axis=1), kind="stable").reshape(-1, m)
    support = np.packbits(nonzero, axis=1)[groups]
    columns = np.unpackbits(support[:, 0], axis=1, count=x.shape[1])
    if not ((support == support[:, :1]).all() and (columns.sum(axis=1) == m).all()
            and (columns.sum(axis=0) == 1).all()):
        return None
    parts = np.nonzero(columns)[1].reshape(-1, m)
    members, parts = (groups, parts) if x is rows else (parts, groups)  # x = V^T: swapped
    blocks = rows[members[:, :, None], parts[:, None, :]]
    # a NaN or an inf times a zero is NaN in the full product, and not in the blocks
    return (members, blocks) if np.isfinite(blocks).all() else None


def _block_grams(rows: np.ndarray):
    """(members, grams): conj(V) V^T for the rows of V, of any layout, as (None, table), or on
    ``_blocks`` of V as the blocks' Grams, block g on rows and columns ``members[g]``.

    From ``_REAL_GRAM_ROWS`` rows on, with V = A + iB, A A^T + B B^T is R R^T for V's float64
    view R (one dsyrk, exactly symmetric) and the imaginary part M - M^T for M = A B^T (one dgemm).
    """
    if len(rows) < _REAL_GRAM_ROWS:
        return None, rows.conj() @ rows.T
    members, v = _blocks(rows) or (None, rows)
    k = v.shape[-2]
    # BLAS takes unit-stride operands only; copies in the input's order, so none transposes.
    # M's rows are padded where a 4 KiB-multiple stride would put a column in one cache set
    cross = np.matmul(v.real.copy(order="K"), v.imag.copy(order="K").swapaxes(-1, -2),
                      out=np.empty(v.shape[:-1] + (k + 8 * (k % 512 == 0),))[..., :k])
    gram = np.empty(cross.shape, dtype=complex)
    np.subtract(cross, cross.swapaxes(-1, -2), out=gram.imag)
    del cross
    r = np.ascontiguousarray(v, dtype=complex).view(np.float64)  # a copy unless C-ordered
    gram.real = r @ r.swapaxes(-1, -2)
    return members, gram


def _gram_verdict(gaps, members, tol: float, name, table=None) -> CheckResult:
    """The verdict on the gaps of ``_block_grams``: the full table's, or on the blocks of
    ``members`` the table's first NaN, else its first worst entry, in row-major order as argmax
    takes it; every entry off the blocks is an exact zero and every diagonal entry is in one."""
    if members is None:
        return CheckResult.worst(gaps, tol, name, table)
    worst, n = float(gaps.max()), members.size
    flat = int((members[:, :, None] * n + members[:, None, :])[
        gaps != gaps if worst != worst else gaps == worst].min())
    return CheckResult(bool(worst <= tol), worst, name(*divmod(flat, n)), table)


def _gram(rows: np.ndarray, tol: float, scale=1, name="Gram entry ({}, {})".format) -> CheckResult:
    """The verdict on conj(V) V^T / scale = I for the rows of V, whitened for a weighted Gram;
    ``table`` is that matrix, on blocks scattered into a zero n x n table."""
    members, gram = _block_grams(rows)
    if scale != 1:  # complex division's values per component, but -0.0 kept and no NaN of inf
        gram.view(np.float64)[...] *= 1 / scale
    gaps, table = _identity_gap(gram), gram
    if members is not None:
        table = np.zeros((members.size,) * 2, dtype=complex)
        table[members[:, :, None], members[:, None, :]] = gram
    return _gram_verdict(gaps, members, tol, name, table)


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def _as_vector(psi, d: int) -> np.ndarray:
    require_positive(d)
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
    require_positive(am.shape[0])
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
