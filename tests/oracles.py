"""Reference implementations of the verifiers, kept as literal definitions.

Each oracle evaluates its identity term by term, with per-outcome loops,
``einsum`` and ``np.kron``, exactly as the package did before its checks
were rebuilt on the stacked-unitary and Kraus forms.  They are slow
(O(d^8) to O(d^11)) and exist only so that tests can compare the fast
code against them on damaged inputs.  Where a check has a witness, the
oracle returns its whole gap array, so a test can confirm that the
witness names an entry at the maximum gap.  The two tensor helpers they
need, ``matrix_units`` and ``partial_trace``, are defined here as well, and
so are two references for the Latin-square code: the row and column loop
``validate_latin`` once was, and a count by filtering every tuple of rows.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from tightport.errors import DimensionMismatch, NoSolution
from tightport.tensor import max_abs


def matrix_units(d: int) -> np.ndarray:
    """All d^2 matrix units E[a, b], stacked at flat index a*d + b."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


def partial_trace(m, shape: tuple[int, int], factor: str = "second") -> np.ndarray:
    """Trace out the ``factor`` ("first" or "second") of an operator on a dA x dB space."""
    dim_a, dim_b = shape
    mat = np.asarray(m, dtype=complex)
    if mat.shape != (dim_a * dim_b,) * 2:
        raise DimensionMismatch(f"matrix shape {mat.shape} does not match factors {shape}")
    four = mat.reshape(dim_a, dim_b, dim_a, dim_b)
    if factor == "second":
        return np.einsum("ikjk->ij", four)
    if factor == "first":
        return np.einsum("ikil->kl", four)
    raise ValueError(f"factor must be 'first' or 'second', got {factor!r}")


def orthonormal(elems: np.ndarray) -> tuple[float, float]:
    """Gram and unitarity deviations of a stacked family."""
    d = elems.shape[-1]
    gram = np.einsum("xij,yij->xy", elems.conj(), elems) / d
    products = np.einsum("xki,xkj->xij", elems.conj(), elems)
    return max_abs(gram - np.eye(d * d)), max_abs(products - np.eye(d))


def depolarizer(elems: np.ndarray, probes=None) -> np.ndarray:
    """Deviation of sum_x U_x* P U_x from d tr(P) I, one entry per probe.

    With no probes, the probes are the matrix units in flat order a*d + b.
    """
    d = elems.shape[-1]
    probes = matrix_units(d) if probes is None else [np.asarray(p, dtype=complex) for p in probes]
    eye = np.eye(d)
    gaps = []
    for probe in probes:
        if probe.shape != (d, d):
            raise DimensionMismatch(f"probe shape {probe.shape}")
        total = np.einsum("xki,kl,xlj->ij", elems.conj(), probe, elems)
        gaps.append(max_abs(total - d * np.trace(probe) * eye))
    return np.asarray(gaps)


def weighted_gram(ops: np.ndarray, weight_inverse: np.ndarray) -> np.ndarray:
    """The table tr(K_x* W K_y), as a product of the operators with W K_y."""
    return np.einsum("xij,yij->xy", ops.conj(), weight_inverse @ ops)


def _hermitian_basis(d: int) -> np.ndarray:
    """A real-spanning basis of the Hermitian d x d matrices."""
    mats = []
    for k in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[k, k] = 1.0
        mats.append(m)
    for k in range(d):
        for l in range(k + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[k, l] = m[l, k] = 1.0
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[k, l] = -1j
            m[l, k] = 1j
            mats.append(m)
    return np.asarray(mats)


def recover_weight(elems: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Least squares over a real basis of Hermitian rho, then the same checks."""
    d = elems.shape[-1]
    herm = _hermitian_basis(d)
    coeffs = np.einsum("xki,mkl,yli->mxy", elems.conj(), herm, elems)
    design = coeffs.reshape(d * d, -1).T
    target = np.eye(d * d, dtype=complex).reshape(-1)
    design_real = np.vstack([design.real, design.imag])
    target_real = np.concatenate([target.real, target.imag])
    solution, *_ = np.linalg.lstsq(design_real, target_real, rcond=None)
    rho = np.einsum("m,mkl->kl", solution, herm)
    rho = (rho + rho.conj().T) / 2
    trace = complex(np.trace(rho))
    if abs(trace) < 1e-12:
        raise NoSolution("vanishing trace")
    rho = rho / trace.real
    gram = np.einsum("xki,kl,yli->xy", elems.conj(), rho, elems)
    if max_abs(gram - np.eye(d * d)) > tol:
        raise NoSolution("residual")
    if max_abs(rho - np.eye(d) / d) > tol:
        raise NoSolution("not I/d")
    return rho


def resource_density(scheme) -> np.ndarray:
    """The resource as a density matrix: psi psi* for a vector, else the matrix itself."""
    omega = scheme.omega
    return np.outer(omega, omega.conj()) if omega.ndim == 1 else omega


def teleportation(scheme) -> np.ndarray:
    """|lhs - target| over (state unit E[a,b], observable unit E[c,d])."""
    d = scheme.d
    omega4 = resource_density(scheme).reshape(d, d, d, d)
    lhs = np.zeros((d, d, d, d), dtype=complex)
    for x in range(d * d):
        phi = scheme.effects.vectors[x].reshape(d, d)
        u = scheme.channel_unitaries[x]
        lhs += np.einsum(
            "jkmn,bm,aj,cn,dk->abcd", omega4, phi, phi.conj(), u.conj(), u, optimize=True
        )
    eye = np.eye(d)
    return np.abs(lhs - np.einsum("bc,ad->abcd", eye, eye))


def teleportation_outcomes(scheme) -> np.ndarray:
    """Per outcome x, |T_x - c_x I| with c_x = tr(T_x) / d; last, |sum_x |c_x|^2 - 1|.

    K_x is built column by column from the protocol: K_x e_j is the right
    half of (phi_x* (x) I)(e_j (x) psi), and T_x = U_x K_x.  A density-matrix
    resource contributes its top eigenvector, whose phase no gap sees.
    """
    d = scheme.d
    psi = scheme.omega
    if psi.ndim == 2:
        weights, vectors = np.linalg.eigh(psi)
        psi = vectors[:, -1] * np.sqrt(weights[-1])
    eye = np.eye(d)
    gaps, total = [], 0.0
    for x in range(d * d):
        kraus = np.zeros((d, d), dtype=complex)
        for j in range(d):
            kraus[:, j] = scheme.effects.vectors[x].conj() @ np.kron(eye[j], psi).reshape(d * d, d)
        t = scheme.channel_unitaries[x] @ kraus
        c = np.trace(t) / d
        gaps.append(max_abs(t - c * eye))
        total += abs(c) ** 2
    return np.asarray([*gaps, abs(total - 1)])


def dense_coding_table(scheme) -> np.ndarray:
    """Probability of decoding y when x was encoded, one Kronecker product per x."""
    d = scheme.d
    rho = resource_density(scheme)
    eye = np.eye(d, dtype=complex)
    vecs = scheme.effects.vectors
    table = np.zeros((d * d, d * d))
    for x in range(d * d):
        big = np.kron(scheme.channel_unitaries[x], eye)
        moved = big @ rho @ big.conj().T
        table[x] = np.real(np.einsum("yi,ij,yj->y", vecs.conj(), moved, vecs))
    return table


def entangled_basis(vectors: np.ndarray, d: int) -> tuple[float, np.ndarray]:
    """Completeness deviation and, per vector, the reduced operator's gap to I/d."""
    vs = np.asarray(vectors, dtype=complex)
    completeness = max(
        max_abs(vs.T @ vs.conj() - np.eye(d * d)), max_abs(vs.conj() @ vs.T - np.eye(d * d))
    )
    target = np.eye(d) / d
    gaps = [
        max_abs(partial_trace(np.outer(v, v.conj()), (d, d), "second") - target) for v in vs
    ]
    return completeness, np.asarray(gaps)


def reduced_gap(psi: np.ndarray, d: int) -> float:
    """Distance of the reduced operator of one vector from I/d."""
    reduced = partial_trace(np.outer(psi, psi.conj()), (d, d), "second")
    return max_abs(reduced - np.eye(d) / d)


def teleport_state(scheme, rho) -> tuple[np.ndarray, np.ndarray]:
    """The protocol on the d^3 x d^3 joint state, one outcome at a time."""
    d = scheme.d
    rho = np.asarray(rho, dtype=complex)
    joint = np.kron(rho, resource_density(scheme))
    eye = np.eye(d, dtype=complex)
    output = np.zeros((d, d), dtype=complex)
    probabilities = np.zeros(d * d)
    for x in range(d * d):
        phi = scheme.effects.vectors[x]
        effect = np.kron(np.outer(phi, phi.conj()), eye)
        conditional = partial_trace(joint @ effect, (d * d, d), "first")
        p = float(np.trace(conditional).real)
        probabilities[x] = p
        if p < 1e-14:
            continue
        u = scheme.channel_unitaries[x]
        output += u @ conditional @ u.conj().T
    return output, probabilities


def latin(grid: np.ndarray) -> tuple[bool, float, str | None]:
    """Verdict, number of bad lines and first bad line (rows before columns)."""
    d = grid.shape[0]
    violations = 0
    witness = None
    for j in range(d):
        if len(set(grid[j, :].tolist())) != d:
            violations += 1
            witness = witness or f"row {j}"
    for k in range(d):
        if len(set(grid[:, k].tolist())) != d:
            violations += 1
            witness = witness or f"column {k}"
    return violations == 0, float(violations), witness


def brute_force_normalized_count(d: int) -> int:
    """Filter all row-permutation tuples; independent of the package's search."""
    first_row = tuple(range(d))
    row_choices = [
        [p for p in permutations(range(d)) if p[0] == j] for j in range(1, d)
    ]
    count = 0
    for rows in product(*row_choices):
        grid = (first_row,) + rows
        if all(len({grid[j][k] for j in range(d)}) == d for k in range(d)):
            count += 1
    return count
