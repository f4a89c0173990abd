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
and M - M^T for M = A B^T the imaginary part.  Each element, channel and entangled-basis matrix S
of a Latin family (``shift_multiply_basis``, ``weyl_basis``, ``tensor_bases`` of those, their
entangled bases and schemes) is a permutation times phases.  From 100 on a value reads its stack
once and keeps the reading, and a conversion scatters its result from it, with no product.
S* S is diag(|phase|^2), O(d^3) in all, with a resource that is one too each T_x of an outcome
identity is its d nonzeros, O(d^3), and the Gram matrix is grouped from the reading as the paper's
d Hadamard blocks, O(d^4); any other family pays the O(d^6) product.  Either table is exactly
Hermitian and within about n eps max|row|^2 of the complex product, so on a passing family the
witness names a rounding-level entry, read off the blocks, which form the table when it is read.
"""

from __future__ import annotations

import math
from functools import partial

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
    reading = _monomial(stack) if reading is False else reading
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
    flat = np.flatnonzero(stack.astype(bool))  # one byte an entry
    if len(flat) != count * d:  # d nonzeros a matrix, a NaN counted as one
        return None
    columns = (flat - d * np.arange(len(flat))).reshape(count, d)  # row i's, if it holds one
    phases = stack.reshape(-1)[flat].reshape(count, d)
    # sorted to 0..d-1 only if one in a row, a permutation; finite |phase|^2 make 0 * phase 0
    if (np.sort(columns, axis=1) == np.arange(d)).all() and np.isfinite(np.vdot(phases, phases)):
        return columns, phases
    return None


def _read(value, name: str, keep=True):
    """``_monomial`` of the stack ``value.name``, or None: the one ``value`` keeps, else made and,
    with ``keep``, kept on it read-only; writing it again writes equal arrays."""
    reading = vars(value).get("_read_" + name, False)
    if reading is False and value.d ** 2 >= _REAL_GRAM_ROWS:
        reading = _monomial(getattr(value, name).reshape(-1, value.d, value.d))
        if keep:
            for array in reading or ():
                array.setflags(write=False)
            object.__setattr__(value, "_read_" + name, reading)
    return reading or None


def _times(reading, b: np.ndarray):
    """(S_x B for the S_x read as ``reading``, and its reading) if B is a permutation times real
    phases (BLAS may fuse a complex one's): the phases' products scattered, the product's nonzeros
    bit for bit.  The reading is None on a 0 or an overflowing square, as ``_monomial``'s is."""
    rb = reading and _monomial(b[None], 1)
    if rb and not rb[1].imag.any():
        columns, phases = rb[0][0][reading[0]], reading[1] * rb[1][0][reading[0]]
        out = np.zeros(columns.shape + (len(b),), dtype=complex)
        np.put(out, np.arange(0, out.size, len(b)).reshape(columns.shape) + columns, phases)
        kept = phases.all() and np.isfinite(np.vdot(phases, phases))
        for array in columns, phases:
            array.setflags(write=False)
        return out, (columns, phases) if kept else None


def _groups(rows: np.ndarray, reading=False, transposed=False):
    """(members, blocks) of V, or with ``transposed`` of V^T, when V's rows are vec(S_x) of the
    paper's d Hadamard blocks up to order, with ``reading`` their ``_monomial``, read if not given:
    sorted by the column in row 0, d groups of d S_x, each sharing one permutation, the d disjoint
    in every row.  Group g is rows ``members[g]``, its block ``blocks[g]``, its phases."""
    d = math.isqrt(rows.shape[1])
    if reading is False:
        reading = d * d == rows.shape[1] and _monomial(rows.reshape(len(rows), d, d))
    if not reading or len(reading[0]) != d * d:  # d^2 matrices
        return None
    columns, phases = reading
    members = np.argsort(columns[:, 0], kind="stable").reshape(d, d)
    shared = columns[members[:, 0]]  # group g's permutation
    if not ((columns[members] == shared[:, None]).all()
            and (np.sort(shared, axis=0) == np.arange(d)[:, None]).all()):
        return None
    if not transposed:
        return members, phases[members]
    # V^T's group g is rows i d + shared[g, i], its block gathered in C order: (i, a) phase i of a
    return shared + d * np.arange(d), np.take(phases, d * members[:, None] + np.arange(d)[:, None])


def _block_grams(rows: np.ndarray, groups=None):
    """(members, grams): conj(V) V^T for the rows of V, of any layout, as (None, table), or on
    ``groups``, V's ``_groups``, as the blocks' Grams, block g on rows and columns ``members[g]``.

    From ``_REAL_GRAM_ROWS`` rows on, with V = A + iB, A A^T + B B^T is R R^T for V's float64
    view R (one dsyrk, exactly symmetric) and the imaginary part M - M^T for M = A B^T (one dgemm).
    """
    if len(rows) < _REAL_GRAM_ROWS:
        return None, rows.conj() @ rows.T
    members, v = groups or (None, rows)
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


def _scatter(members: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """The n x n table with block g of ``grams`` on rows and columns ``members[g]``, else zero."""
    table = np.zeros((members.size,) * 2, dtype=complex)
    table[members[:, :, None], members[:, None, :]] = grams
    return table


def _gram(rows, tol: float, scale=1, name="Gram entry ({}, {})".format, reading=False):
    """The verdict on conj(V) V^T / scale = I for the rows vec(S_x) of V, with ``reading`` their
    ``_monomial`` if made; ``table`` is that matrix, a block one formed when first read."""
    members, gram = _block_grams(rows, _groups(rows, reading))
    if scale != 1:  # complex division's values per component, but -0.0 kept and no NaN of inf
        gram.view(np.float64)[...] *= 1 / scale
    table = gram if members is None else partial(_scatter, members, gram)
    return _gram_verdict(_identity_gap(gram), members, tol, name, table)


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
