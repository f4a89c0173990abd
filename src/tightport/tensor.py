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
entangled bases and schemes) is a permutation times phases.  From 100 on such a value is held as
that reading, its dense stack formed only when a caller reads it, or keeps the one reading its
first use makes, and every verdict takes it; a bare array is read once, by its Gram verdict.
S* S is diag(|phase|^2), O(d^3) in all, with a resource that is one too each T_x of an outcome
identity is its d nonzeros, O(d^3), and the Gram matrix is grouped from the reading as the paper's
d Hadamard blocks, O(d^4).  With k <= d odd matrices, not a permutation times finite phases or
past their group's d, and matrix 0 not odd, these verdicts pay the blocks plus k rows, O(k d^4),
and the k odd matrices' products; the depolarizer, dense coding, ``teleport_state``, the
conversions, ``tensor_bases`` and the weighted Grams take any odd matrix as no reading
(``_strict``) and pay the product, as does any other family.  Either table is exactly Hermitian
and within about n eps max|row|^2 of the complex product, so on a passing family the witness
names a rounding-level entry, read off the blocks, which form the table when it is read.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .common import DEFAULT_TOL, CheckResult, _decided, _owners, _Stack, _worst, require_positive
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


def _unitarity(reading, stack, scale: float, tol: float, name, value=None) -> CheckResult:
    """The verdict on S* S = scale I for every S_x of ``stack``, or of a callable forming it, read
    as ``reading``, a ``_monomial`` of S or S^T (S's phases either way), or None: diag(|phase|^2),
    O(d^3) in all, and the odd S_x, or with None all, by products; ``name(x)`` names S_x.  Kept
    as ``value``'s unitarity part, if given (see ``common._decided``)."""
    def decide(stack=stack):
        if callable(stack) and (not reading or reading[2:]):
            stack = stack()
        gaps = np.empty(len(stack)) if not reading else np.abs(
            reading[1].real ** 2 + reading[1].imag ** 2 - scale).max(axis=1)
        for odd in reading[2:] if reading else [slice(None)]:  # all S_x, or the odd ones
            gaps[odd] = _identity_gap(_adjoint(stack[odd]) @ stack[odd], scale).max(axis=(1, 2))
        return _worst(gaps)
    return _decided(value, "unitarity", tol, name, decide)


# From this many rows on, the Hermitian Gram is formed in real arithmetic.  Seeded
# dense square complex rows, one OpenBLAS 0.3.31 thread, numpy 2.4, best of 15 on a
# 2-core x86-64 virtual machine, real form against one complex product: 0.83x the
# speed at n = 64, 1.0x at n = 81 and 100, 1.10x at 121, 1.19x at 144, 1.24x at 256.
_REAL_GRAM_ROWS = 100


def _monomial(stack: np.ndarray, least: int = _REAL_GRAM_ROWS):
    """(columns, phases) when each S_x of at least ``least`` complex d x d matrices is a permutation
    times phases, row i phases[x, i] at column columns[x, i], |phase|^2 finite; else (columns,
    phases, odd) if S_0 is one and 1 to d others, ``odd``, read as zeros, are not; else None."""
    count, d = stack.shape[:2]
    if count < least or np.count_nonzero(stack[0]) != d:  # a dense family reads one matrix
        return None
    flat = np.flatnonzero(stack.astype(bool))  # one byte an entry
    if len(flat) == count * d:  # d nonzeros a matrix, a NaN counted as one
        columns = (flat - d * np.arange(len(flat))).reshape(count, d)  # row i's, if it holds one
        phases = stack.reshape(-1)[flat].reshape(count, d)
        # sorted to 0..d-1 only if one in a row, a permutation; finite |phase|^2 make 0 * phase 0
        if (np.sort(columns, axis=1) == np.arange(d)).all() and np.isfinite(
                np.vdot(phases, phases)):
            return columns, phases
    # each S_x of d nonzeros read so, if it passes the test above; the rest are odd
    sizes = np.bincount(flat // (d * d), minlength=count)
    flat = flat[np.repeat(sizes == d, sizes)].reshape(-1, d)
    x = flat[:, 0] // (d * d)
    columns, phases = flat - d * (d * x[:, None] + np.arange(d)), stack.reshape(-1)[flat]
    with np.errstate(over="ignore"):  # an overflowing square makes its matrix odd
        ok = (np.sort(columns, axis=1) == np.arange(d)).all(1) & np.isfinite(
            (phases.real ** 2 + phases.imag ** 2).sum(1))
    odd = np.flatnonzero(np.bincount(x[ok], minlength=count) == 0)
    if 0 < len(odd) <= d and odd[0]:
        reading = np.tile(np.arange(d), (count, 1)), np.zeros((count, d), complex)
        reading[0][x[ok]], reading[1][x[ok]] = columns[ok], phases[ok]
        return (*reading, odd)
    return None


def _read(value, name: str, keep=True):
    """``_monomial`` of the stack ``value.name``, or None: the one its ``_Stack`` keeps, else from
    100 matrices on made and, with ``keep``, kept read-only; made again, it is equal arrays."""
    stack = vars(value).get("_stack")
    if stack is None and value.d ** 2 >= _REAL_GRAM_ROWS:
        array = getattr(value, name)
        stack = _Stack(array, _monomial(array.reshape(-1, value.d, value.d)))
        if keep:
            stack = vars(value).setdefault("_stack", stack)
    return stack and stack.reading


def _read_as(columns: np.ndarray, phases: np.ndarray, form) -> _Stack:
    """The stack read as (columns, phases), formed by ``form()`` when first read; formed now, and
    read by ``_read`` when first used, below 100 matrices or on a 0 or an overflowing square."""
    if len(columns) >= _REAL_GRAM_ROWS and phases.all() and np.isfinite(np.vdot(phases, phases)):
        return _Stack(reading=(columns, phases), form=form)
    return _Stack(form())


def _scattered(columns: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The (count, d, d) stack read as (columns, phases): row i of matrix x phases[x, i] at column
    columns[x, i], put into zeros."""
    d = columns.shape[-1]
    out = np.zeros(columns.shape + (d,), dtype=complex)
    out.reshape(-1)[np.arange(0, out.size, d).reshape(columns.shape) + columns] = phases
    return out


def _strict(part):
    """``part``, a ``_monomial`` reading or a ``_groups`` grouping, or None if it has odd S_x."""
    return part if part and not len((*part, ())[2]) else None


def _times(reading, b: np.ndarray, shape: tuple):
    """The stack of S_x B, shaped ``shape``, for the S_x read as ``reading``, as its reading, if no
    S_x is odd and B is a permutation times real phases (BLAS may fuse a complex one's): the
    phases' products, scattered when first read, the product's nonzeros bit for bit."""
    rb = _strict(reading) and _monomial(b[None], 1)
    if rb and not rb[1].imag.any():
        columns, phases = rb[0][0][reading[0]], reading[1] * rb[1][0][reading[0]]
        return _read_as(columns, phases, lambda: _scattered(columns, phases).reshape(shape))


def _groups(reading, transposed=False):
    """(members, blocks, odd) of V, or with ``transposed`` of V^T, when V's rows vec(S_x), read as
    ``reading``, their ``_monomial`` or None, are the paper's d Hadamard blocks up to order: sorted
    by the column in row 0, d groups of d S_x, each sharing one permutation, the d disjoint in every
    row.  Group g is rows ``members[g]``, its block ``blocks[g]``.  The sorted ``odd`` S_x, the
    reading's and those past their group's d, at most d, are placeholders in short groups' free
    slots; V^T's columns take no border, so its caller takes them ``_strict``."""
    if not reading or len(reading[0]) != reading[0].shape[1] ** 2:  # d^2 matrices
        return None
    columns, phases, odd = (*reading, [])[:3]
    d = columns.shape[1]
    members = np.argsort(columns[:, 0], kind="stable")
    first = members[::d]
    if len(odd) or np.bincount(columns[:, 0], minlength=d).max() > d:
        key = columns[:, 0].copy()
        key[odd] = d  # the odd S_x last; then in each group, the members past its first d
        members, counts = np.argsort(key, kind="stable"), np.bincount(key, minlength=d + 1)
        starts = np.cumsum(counts) - counts
        odd = np.sort(members[(np.arange(d * d) - np.repeat(starts, counts) >= d)
                              | (key[members] == d)])
        if len(odd) > d or not counts[:d].all():
            return None
        first, columns = members[starts[:d]], columns.copy()
        key[odd] = np.repeat(np.arange(d), d - np.minimum(counts[:d], d))  # the free slots
        columns[odd] = columns[first[key[odd]]]  # with their group's permutation
        members = np.argsort(key, kind="stable")
    members, shared = members.reshape(d, d), columns[first]  # group g's permutation
    if not ((columns[members] == shared[:, None]).all()
            and (np.sort(shared, axis=0) == np.arange(d)[:, None]).all()):
        return None
    if transposed:  # V^T's group g is rows i d + shared[g, i], its block's (i, a) phase i of a
        return shared + d * np.arange(d), phases.T[np.arange(d)[:, None], members[:, None]], odd
    return members, phases[members], odd


def _block_grams(rows, groups=None, scale=1):
    """conj(V) V^T / ``scale`` for the rows of V, of any layout or formed by a callable, or on
    ``groups``, V's ``_groups``, the blocks' Grams, block g on rows and columns ``members[g]``.

    From ``_REAL_GRAM_ROWS`` rows on, with V = A + iB, A A^T + B B^T is R R^T for V's float64
    view R (one dsyrk, exactly symmetric) and the imaginary part M - M^T for M = A B^T (one dgemm).
    """
    v = groups[1] if groups else rows() if callable(rows) else rows
    if groups is None and len(v) < _REAL_GRAM_ROWS:
        gram = v.conj() @ v.T
    else:  # BLAS takes unit-stride operands only; copies in the input's order, so none transposes.
        k = v.shape[-2]  # M's rows padded where a 4 KiB-multiple stride puts a column in one set
        cross = np.matmul(v.real.copy(order="K"), v.imag.copy(order="K").swapaxes(-1, -2),
                          out=np.empty(v.shape[:-1] + (k + 8 * (k % 512 == 0),))[..., :k])
        gram = np.empty(cross.shape, dtype=complex)
        np.subtract(cross, cross.swapaxes(-1, -2), out=gram.imag)
        del cross
        r = np.ascontiguousarray(v, dtype=complex).view(np.float64)  # a copy unless C-ordered
        gram.real = r @ r.swapaxes(-1, -2)
    if scale != 1:  # complex division's values per component, but -0.0 kept and no NaN of inf
        gram.view(np.float64)[...] *= 1 / scale
    return gram


def _gram_verdict(gaps, members, table=None, border=None) -> tuple:
    """The facts (``_decided``'s) of the gaps of ``_block_grams``: the full table's, or on the
    blocks of ``members`` the table's first NaN, else its first worst entry, in row-major order as
    argmax takes it; every entry off the blocks is an exact zero and every diagonal entry is in
    one, but with ``border``, (odd, the table's columns odd), in place of those rows and columns."""
    if members is None:
        return _worst(gaps, table)
    n = members.size
    flat = members[:, :, None] * n + members[:, None, :]
    if border:
        odd, border = border
        at, lines = np.isin(members, odd), np.abs(border)
        gaps[at] = gaps.swapaxes(1, 2)[at] = -1
        lines[odd] = _identity_gap(border[odd])
        at = (np.arange(n)[:, None] * n + odd).ravel()
        flat = np.concatenate([flat.ravel(), at, at % n * n + at // n])
        gaps = np.concatenate([gaps.ravel(), lines.ravel(), lines.ravel()])
    worst = float(gaps.max())
    flat = int(flat[gaps != gaps if worst != worst else gaps == worst].min())
    return worst, divmod(flat, n), table


def _scatter(members: np.ndarray, grams: np.ndarray, odd=(), border=None) -> np.ndarray:
    """The n x n table with block g of ``grams`` on rows and columns ``members[g]``, else zero,
    but ``border`` as its columns ``odd`` and their adjoint as its rows."""
    table = np.zeros((members.size,) * 2, dtype=complex)
    table[members[:, :, None], members[:, None, :]] = grams
    if border is not None:
        table[:, odd], table[odd] = border, border.conj().T
    return table


def _gram(rows, reading, tol: float, scale=1, name="Gram entry ({}, {})".format, value=None):
    """The verdict on conj(V) V^T / scale = I for the rows vec(S_x) of V: ``rows``, or a callable
    forming them, called only if ``reading``, their ``_monomial`` or None, or a callable giving
    their ``_groups`` (so no caller holds them), does not group them or has odd ones; ``table`` is
    that matrix, formed when first read.  k odd rows take their columns, O(k d^4).  Kept as
    ``value``'s Gram part, if given: the blocks, or the rows' array to form a full table again."""
    return _decided(value, "gram", tol, name, partial(_gram_facts, rows, reading, scale))


def _gram_facts(rows, reading, scale) -> tuple:
    groups = reading() if callable(reading) else _groups(reading)
    members, odd, border = groups and groups[0], groups[2] if groups else (), None
    rows = rows() if callable(rows) and (groups is None or len(odd)) else rows  # kept: no value
    gram = _block_grams(rows, groups, scale)
    del groups  # the blocks, not held beside their Grams
    if len(odd):  # in real arithmetic, as the blocks: for V = A + iB, conj(v_y) v_x has real part
        # (A, B)_y . (A, B)_x and imaginary part (A, B)_y . (B, -A)_x, each product row complex
        r = np.ascontiguousarray(rows).view(np.float64)
        x = r[odd].reshape(len(odd), -1, 2)
        border = (r @ np.stack([x, x[..., ::-1] * [1, -1]], 1).reshape(2 * len(odd), -1).T
                  ).view(complex)
        corner = border[odd] + border[odd].conj().T  # made exactly Hermitian, as the blocks are
        border[odd] = (corner.view(np.float64) * 0.5).view(complex)
        border.view(np.float64)[...] *= 1 / scale  # as the blocks'
    table = (partial(_block_grams, rows, None, scale) if members is None
             else partial(_scatter, members, gram, odd, border))
    return _gram_verdict(_identity_gap(gram), members, table, border is not None and (odd, border))


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
    return _unitarity(None, v.reshape(1, d, d).swapaxes(1, 2), 1 / d, tol,
                      lambda _: "reduced operator deviates from I/d")


def check_projector_completeness(vectors, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check that D vectors in a D-dimensional space resolve the identity.

    ``vectors`` stacks to a (D, D) array V, one vector per row; D must be at
    least 1.  The rank-one projectors sum to I exactly when the Gram matrix
    conj(V) V^T is I: for square V the two gaps conj(V) V^T - I and
    V^T conj(V) - I share their singular values, so one side settles both,
    and the other side's largest entry is at most D times this one's.  Only
    the Gram side is formed, and its gap is read from the product buffer.
    ``table`` is the Gram matrix.  An entangled basis's own array takes its kept facts; a copy
    is read anew, to the same verdict.
    """
    vs = np.asarray(vectors, dtype=complex)
    owner = _owners.get(id(vs))
    if getattr(owner, "vectors", None) is vs:
        return _gram(vs, lambda: _groups(_read(owner, "vectors")), tol, value=owner)
    if vs.ndim != 2 or not vs.size:
        raise DimensionMismatch(
            f"vectors must stack to a non-empty (count, dimension) array, got shape {vs.shape}"
        )
    count, dim = vs.shape
    if count != dim:
        raise CountMismatch(f"got {count} vectors in dimension {dim}")
    d = math.isqrt(count)
    return _gram(vs, lambda: _groups(d * d == count and _monomial(vs.reshape(-1, d, d))), tol)
