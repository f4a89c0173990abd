import math
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, random_complex, random_density, random_unitary
from oracles import matrix_units, partial_trace
from tightport import (
    MODES,
    CheckResult,
    CountMismatch,
    DimensionMismatch,
    NotNormalized,
    TightportError,
    UnitaryBasis,
    apply_equivalence,
    bases,
    basis_to_entangled,
    build_scheme,
    check_projector_completeness,
    entangled_to_basis,
    fourier_hadamard,
    hadamard_d4_family,
    is_maximally_entangled,
    latin_equivalence_apply,
    latin_from_cyclic,
    omega_vector,
    periodic_phase_hadamard,
    schemes,
    shift_multiply_basis,
    teleport_state,
    tensor,
    tensor_bases,
    trace_inner,
    vector_to_operator,
    verify,
    verify_dense_coding,
    verify_depolarizer,
    verify_entangled_basis,
    verify_orthonormal,
    weyl_basis,
)
from tightport.bases import _stacked
from tightport.common import _decided, _worst_of
from tightport.schemes import TELEPORTATION, MaxEntangledBasis, TightScheme, _outcome_identity
from tightport.tensor import (
    _REAL_GRAM_ROWS,
    _adjoint,
    _block_grams,
    _gram,
    _gram_verdict,
    _groups,
    _identity_gap,
    _monomial,
    _scatter,
    _unitarity,
)

TOL = 1e-12


def _reading(rows):
    """``_monomial`` of the rows vec(S_x) of V read as d x d matrices, as an entry point reads a
    bare array."""
    d = math.isqrt(rows.shape[1])
    return _monomial(rows.reshape(-1, d, d))


def _strict(stack, least=_REAL_GRAM_ROWS):
    """``_monomial`` of ``stack`` if it reads every matrix, else None, as ``tensor._strict``
    takes it."""
    return tensor._strict(_monomial(stack, least))


def kron_oracle(a, b):
    """Entry ((i,k),(j,l)) = a[i,j] * b[k,l], by explicit loops."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, da, db, factor):
    """Index-summation partial trace, written independently of the library."""
    if factor == "second":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                out[i, j] = sum(m[i * db + k, j * db + k] for k in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for k in range(db):
            for l in range(db):
                out[k, l] = sum(m[i * db + k, i * db + l] for i in range(da))
    return out


class TestTensorProduct:
    def test_identity_case(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_shape_arithmetic(self):
        rng = np.random.default_rng(0)
        result = np.kron(random_complex(rng, 2, 3), random_complex(rng, 3, 2))
        assert result.shape == (6, 6)

    def test_pauli_product_matches_index_formula(self):
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(np.kron(SIGMA_X, SIGMA_Z), expected, atol=0)

    def test_matches_loop_oracle_on_random_input(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 2, 3)
        b = random_complex(rng, 4, 2)
        np.testing.assert_allclose(np.kron(a, b), kron_oracle(a, b), atol=0)

    @settings(max_examples=25, deadline=None)
    @given(
        a=arrays(np.complex128, (2, 2), elements=st.complex_numbers(max_magnitude=1)),
        b=arrays(np.complex128, (3, 3), elements=st.complex_numbers(max_magnitude=1)),
        c=arrays(np.complex128, (2, 2), elements=st.complex_numbers(max_magnitude=1)),
    )
    def test_associativity(self, a, b, c):
        left = np.kron(np.kron(a, b), c)
        right = np.kron(a, np.kron(b, c))
        np.testing.assert_allclose(left, right, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        a=arrays(np.complex128, (2, 2), elements=st.complex_numbers(max_magnitude=1)),
        b=arrays(np.complex128, (3, 3), elements=st.complex_numbers(max_magnitude=1)),
    )
    def test_trace_multiplicative(self, a, b):
        assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


class TestPartialTrace:
    def test_omega_projector_reduces_to_maximally_mixed(self):
        for d in (2, 3, 5):
            omega = omega_vector(d)
            reduced = partial_trace(np.outer(omega, omega.conj()), (d, d), "second")
            np.testing.assert_allclose(reduced, np.eye(d) / d, atol=TOL)

    def test_factorized_case(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 2, 2)
        b = random_complex(rng, 3, 3)
        reduced = partial_trace(np.kron(a, b), (2, 3), "second")
        np.testing.assert_allclose(reduced, np.trace(b) * a, atol=TOL)
        reduced = partial_trace(np.kron(a, b), (2, 3), "first")
        np.testing.assert_allclose(reduced, np.trace(a) * b, atol=TOL)

    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, 6, 6)
        for factor in ("first", "second"):
            np.testing.assert_allclose(
                partial_trace(m, (2, 3), factor),
                partial_trace_oracle(m, 2, 3, factor),
                atol=TOL,
            )

    def test_preserves_trace(self):
        rng = np.random.default_rng(4)
        m = random_complex(rng, 6, 6)
        for factor in ("first", "second"):
            assert abs(np.trace(partial_trace(m, (2, 3), factor)) - np.trace(m)) < 1e-12

    def test_swap_of_factors(self):
        rng = np.random.default_rng(5)
        da, db = 2, 3
        m = random_complex(rng, da * db, da * db)
        swapped = (
            m.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)
        )
        np.testing.assert_allclose(
            partial_trace(swapped, (db, da), "first"),
            partial_trace(m, (da, db), "second"),
            atol=TOL,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), (2, 3), "second")


class TestTraceInner:
    def test_identity(self):
        assert trace_inner(np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_pauli_orthogonality(self):
        assert abs(trace_inner(SIGMA_X, SIGMA_Z)) < TOL

    def test_unitary_self_inner_is_one(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4):
            u = random_unitary(rng, d)
            assert trace_inner(u, u) == pytest.approx(1.0, abs=TOL)

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(7)
        a, b = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
        assert trace_inner(2j * a, b) == pytest.approx(complex(-2j * trace_inner(a, b)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_inner(np.eye(2), np.eye(3))


class TestOmegaVector:
    def test_degenerate(self):
        np.testing.assert_array_equal(omega_vector(1), np.array([1.0 + 0j]))

    def test_d2(self):
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(omega_vector(2), expected, atol=0)

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_non_positive_dimension(self, d):
        with pytest.raises(TightportError, match=f"dimension must be positive, got {d}"):
            omega_vector(d)

    def test_d3_support(self):
        omega = omega_vector(3)
        nonzero = np.flatnonzero(np.abs(omega) > 0)
        np.testing.assert_array_equal(nonzero, [0, 4, 8])
        np.testing.assert_allclose(omega[nonzero], 1 / np.sqrt(3), atol=0)


class TestOperatorVectorCorrespondence:
    def test_identity_maps_to_omega(self):
        np.testing.assert_allclose(np.eye(3).reshape(-1) / np.sqrt(3), omega_vector(3), atol=0)

    def test_sigma_x(self):
        expected = np.array([0, 1, 1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(SIGMA_X.reshape(-1) / np.sqrt(2), expected, atol=0)

    def test_projector_norm(self):
        psi = np.diag([1.0, 0.0]).reshape(-1) / np.sqrt(2)
        np.testing.assert_allclose(psi, np.array([1, 0, 0, 0]) / np.sqrt(2), atol=0)
        assert np.vdot(psi, psi).real == pytest.approx(0.5)

    def test_agrees_with_explicit_kron_action(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            a = random_complex(rng, d, d)
            direct = np.kron(a, np.eye(d)) @ omega_vector(d)
            np.testing.assert_allclose(a.reshape(-1) / np.sqrt(d), direct, atol=TOL)

    def test_vector_to_operator_inverts_bell_example(self):
        psi = np.array([0, 1, 1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(vector_to_operator(psi, 2), SIGMA_X, atol=TOL)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = random_complex(rng, 3, 3)
            back = vector_to_operator(a.reshape(-1) / np.sqrt(3), 3)
            assert np.abs(back - a).max() < 1e-14

    def test_norm_contract(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, 4, 4)
        psi = a.reshape(-1) / np.sqrt(4)
        assert np.vdot(psi, psi).real == pytest.approx(
            np.trace(a.conj().T @ a).real / 4, abs=1e-12
        )

    def test_isometry_up_to_scale(self):
        # Vector inner products equal normalized trace inner products.
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
            lhs = np.vdot(a.reshape(-1) / np.sqrt(3), b.reshape(-1) / np.sqrt(3))
            assert abs(lhs - trace_inner(a, b)) < 1e-12

    def test_sandwiched_inner_product_identity(self):
        # <Psi, (B x I) Psi'> equals tr(A* B A') / d.
        rng = np.random.default_rng(12)
        for d in (2, 3):
            for _ in range(10):
                a, a2, b = (random_complex(rng, d, d) for _ in range(3))
                psi = a.reshape(-1) / np.sqrt(d)
                psi2 = a2.reshape(-1) / np.sqrt(d)
                lhs = np.vdot(psi, np.kron(b, np.eye(d)) @ psi2)
                rhs = np.trace(a.conj().T @ b @ a2) / d
                assert abs(lhs - rhs) < 1e-12

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            vector_to_operator(np.eye(4), 2)
        with pytest.raises(DimensionMismatch):
            vector_to_operator(np.zeros(5), 2)


class TestTranspose:
    def test_identity(self):
        np.testing.assert_array_equal(np.eye(3).T, np.eye(3))

    def test_sigma_y_antisymmetry(self):
        np.testing.assert_allclose(SIGMA_Y.T, -SIGMA_Y, atol=0)

    def test_transposes_across_omega(self):
        # (A x I) Omega equals (I x A^T) Omega.
        rng = np.random.default_rng(13)
        d = 3
        omega = omega_vector(d)
        for _ in range(20):
            a = random_complex(rng, d, d)
            left = np.kron(a, np.eye(d)) @ omega
            right = np.kron(np.eye(d), a.T) @ omega
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestMaximalEntanglement:
    def test_omega_passes_exactly(self):
        for d in (1, 2, 3, 4):
            result = is_maximally_entangled(omega_vector(d), d)
            assert result.passed and result.deviation < 1e-15

    def test_product_state_fails_with_half_deviation(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        result = is_maximally_entangled(psi, 2)
        assert not result.passed
        assert result.deviation == pytest.approx(0.5)

    def test_rotated_omega_passes(self):
        rng = np.random.default_rng(14)
        d = 3
        u = random_unitary(rng, d)
        psi = np.kron(u, np.eye(d)) @ omega_vector(d)
        assert is_maximally_entangled(psi, d).passed

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            is_maximally_entangled(2 * omega_vector(2), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_maximally_entangled(omega_vector(2), 3)


class TestProjectorCompleteness:
    def test_standard_basis(self):
        result = check_projector_completeness(np.eye(3, dtype=complex))
        assert result.passed and result.deviation == 0.0

    def test_repeated_vector_fails(self):
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        result = check_projector_completeness([e0, e0, e0])
        assert not result.passed
        assert result.deviation >= 1.0
        assert result.witness == "Gram entry (0, 1)"
        np.testing.assert_array_equal(result.table, np.ones((3, 3)))

    def test_random_orthonormal_passes(self):
        rng = np.random.default_rng(15)
        u = random_unitary(rng, 5)
        assert check_projector_completeness(u).passed

    def test_rotation_toward_neighbor_fails(self):
        rng = np.random.default_rng(16)
        vectors = np.array(random_unitary(rng, 6))
        vectors[0] = np.cos(0.1) * vectors[0] + np.sin(0.1) * vectors[1]
        result = check_projector_completeness(vectors)
        assert not result.passed
        assert result.deviation > 1e-3

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            check_projector_completeness(np.eye(3, dtype=complex)[:2])


def test_matrix_units_span_and_normalize():
    units = matrix_units(3)
    assert units.shape == (9, 3, 3)
    total = units.sum(axis=0)
    np.testing.assert_array_equal(total, np.ones((3, 3)))
    # unit (a, b) sits at flat index a*d + b
    assert units[5][1, 2] == 1.0


def test_weyl_entangled_vectors_complete():
    entangled = basis_to_entangled(weyl_basis(2))
    assert check_projector_completeness(entangled.vectors).passed


THEOREM_FAMILIES = {
    "weyl": lambda: weyl_basis(3),
    "shift_multiply": lambda: shift_multiply_basis(
        latin_from_cyclic(4), [hadamard_d4_family(np.exp(0.3j))] * 4
    ),
    "tensor_bases": lambda: tensor_bases(weyl_basis(2), weyl_basis(3)),
}


def _theorem_damage(basis, damage):
    elems = basis.elements.copy()
    if damage == "perturbed":
        elems[1] += 1e-6 * random_complex(np.random.default_rng(18), basis.d, basis.d)
    elif damage == "duplicated":
        elems[basis.d + 1] = elems[0]
    elif damage == "nan":
        elems[basis.d, 1, 0] = np.nan
    return UnitaryBasis(basis.d, elems)


@pytest.mark.parametrize("damage", [None, "perturbed", "duplicated", "nan"])
@pytest.mark.parametrize("family", sorted(THEOREM_FAMILIES))
def test_completeness_of_entangled_basis_is_orthonormality_of_unitary_basis(family, damage):
    # The theorem's correspondence: the entangled basis built from a unitary
    # basis has the same Gram matrix, so the two checks are one check.
    basis = _theorem_damage(THEOREM_FAMILIES[family](), damage)
    completeness = check_projector_completeness(basis_to_entangled(basis).vectors)
    orthonormal = verify_orthonormal(basis)
    np.testing.assert_allclose(
        completeness.table, orthonormal.table, rtol=0, atol=1e-12, equal_nan=True
    )
    assert completeness.passed == orthonormal.passed == (damage is None)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 12),
    exponent=st.floats(-14, -2),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_side_of_completeness_bounds_the_other(dim, exponent, seed):
    # conj(V) V^T - I and V^T conj(V) - I share their singular values, so the
    # largest entry of either is at most dim times the largest of the other
    rng = np.random.default_rng(seed)
    v = random_unitary(rng, dim) + 10.0**exponent * random_complex(rng, dim, dim)
    eye = np.eye(dim)
    two_sided = max(np.abs(v.conj() @ v.T - eye).max(), np.abs(v.T @ v.conj() - eye).max())
    one_sided = check_projector_completeness(v).deviation
    rounding = 2 * dim * dim * np.finfo(float).eps
    assert two_sided <= dim * one_sided + rounding


@pytest.mark.parametrize("layout", ["C", "F", "transposed stack"])
def test_identity_gap_matches_the_difference_in_any_layout(layout):
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    product = {
        "C": stack[0],
        "F": np.asfortranarray(stack[0]),
        "transposed stack": stack.transpose(0, 2, 1),
    }[layout]
    for scale in (1.0, 0.25, 4):
        np.testing.assert_array_equal(
            _identity_gap(product, scale), np.abs(product - scale * np.eye(4))
        )


def test_trace_inner_rejects_a_one_dimensional_operand():
    with pytest.raises(DimensionMismatch) as info:
        trace_inner(np.ones(2), np.eye(2))
    assert str(info.value) == "a must be 2-dimensional, got shape (2,)"


def test_trace_inner_rejects_empty_operands():
    # tr(A* B) / d at d = 0 would be 0 / 0
    with pytest.raises(DimensionMismatch) as info:
        trace_inner(np.zeros((0, 0)), np.zeros((0, 0)))
    assert str(info.value) == "dimension must be positive, got 0"


@pytest.mark.parametrize("call, d", [
    (lambda: is_maximally_entangled(np.array([1.0]), -1), -1),
    (lambda: vector_to_operator(np.array([1.0]), -1), -1),
    (lambda: vector_to_operator(np.array([]), 0), 0),
    (lambda: is_maximally_entangled(np.array([]), 0), 0),
], ids=["is_maximally_entangled d=-1", "vector_to_operator d=-1",
        "vector_to_operator d=0", "is_maximally_entangled d=0"])
def test_a_vector_at_a_non_positive_dimension_is_rejected(call, d):
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == f"dimension must be positive, got {d}"


GRAM_ROWS = [64, 81, 100, 121, 144, 256]


@pytest.mark.parametrize("n", GRAM_ROWS)
def test_hermitian_gram_agrees_with_the_complex_product(n):
    rows = random_complex(np.random.default_rng(n), n, n)
    gram = _gram(rows, None, TOL).table
    product = rows.conj() @ rows.T
    bound = n * np.finfo(float).eps * (np.abs(rows) ** 2).sum(axis=1).max()
    assert np.abs(gram - product).max() <= bound
    if n < _REAL_GRAM_ROWS:
        assert gram.tobytes() == product.tobytes()
    else:
        # exactly Hermitian: M - M^T is antisymmetric in floating point too
        assert np.array_equal(gram, gram.conj().T)
        assert not np.diagonal(gram).imag.any()


@pytest.mark.parametrize("row", ["first", "middle", "last"])
@pytest.mark.parametrize("n", GRAM_ROWS)
def test_hermitian_gram_names_the_first_nan_as_the_complex_product_does(n, row):
    rows = random_unitary(np.random.default_rng(n), n)
    k = {"first": 0, "middle": n // 2, "last": n - 1}[row]
    rows[k] = np.nan
    result = _gram(rows, None, TOL)
    expected = CheckResult.worst(_identity_gap(rows.conj() @ rows.T), TOL,
                                 "Gram entry ({}, {})".format)
    assert not result.passed and np.isnan(result.deviation)
    assert result.witness == expected.witness


@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e200, 1j * np.inf, 1e200 + 1e200j])
@pytest.mark.parametrize("n", GRAM_ROWS)
def test_hermitian_gram_fails_closed_on_huge_entries(n, value):
    rows = random_unitary(np.random.default_rng(n), n)
    assert _gram(rows, None, TOL).passed
    rows[n // 3, 5] = value
    with np.errstate(all="ignore"):
        result = _gram(rows, None, TOL)
    assert not result.passed and not np.isfinite(result.deviation)


def _hadamard(rng, d, kind):
    if kind == "Fourier":
        return fourier_hadamard(d)
    if kind == "periodic":
        p = min(f for f in range(2, d + 1) if d % f == 0)
        cell = np.exp(2j * np.pi * rng.random((p, d // p)))
        return periodic_phase_hadamard(p, d // p, np.tile(cell, (d // p, p)))
    # a member of the d = 4 family, times Fourier phases up to d
    u = np.exp(2j * np.pi * rng.random())
    return np.kron(hadamard_d4_family(u).matrix, fourier_hadamard(d // 4).matrix)


def _latin_family(rng, d):
    """A shift-multiply basis on a relabelled cyclic square, each H_j of a random kind."""
    square = latin_equivalence_apply(latin_from_cyclic(d), *(rng.permutation(d) for _ in range(3)))
    kinds = ["Fourier", "periodic"] + ["d = 4 family"] * (d % 4 == 0)
    return shift_multiply_basis(square, [_hadamard(rng, d, k) for k in rng.choice(kinds, d)])


NEAR_MISSES = ["intact", "support entry moved", "group's support column moved",
               "duplicate in its group", "duplicate across groups", "group short of a row"] + [
    f"{value} at a {where} entry" for value in ("nan", "inf", "-inf", "1e200")
    for where in ("zero", "nonzero")]
# the block path runs on these; the other near misses take the full product, 1e200 at a nonzero
# entry too, since the monomial reading refuses a phase whose |phase|^2 overflows
ON_BLOCK_PATH = {"intact", "duplicate in its group"}


def _near_miss(rows, miss, rng):
    rows = rows.copy()
    x = rng.integers(len(rows))
    support = rows != 0
    same = (support == support[x]).all(axis=1)
    nonzero, zero = (rng.choice(np.flatnonzero(s)) for s in (support[x], ~support[x]))
    if miss == "support entry moved":
        rows[x, zero], rows[x, nonzero] = rows[x, nonzero], 0
    elif miss == "group's support column moved":  # onto another group's column
        rows[same, zero], rows[same, nonzero] = rows[same, nonzero], 0
    elif miss == "duplicate in its group":
        rows[rng.choice(np.flatnonzero(same & (np.arange(len(rows)) != x)))] = rows[x]
    elif miss == "duplicate across groups":
        rows[rng.choice(np.flatnonzero(~same))] = rows[x]
    elif miss == "group short of a row":
        rows = np.delete(rows, x, axis=0)
    elif miss != "intact":
        value, where = miss.split(" at a ")
        rows[x, nonzero if where == "nonzero entry" else zero] = float(value)
    return rows


def _assert_verdict_of_the_product(rows, block, transposed=False):
    """The Gram verdict and table on the rows of V, ``rows`` or with ``transposed`` their
    transpose, as the depolarizer reads A's columns, are the complex product's, and the blocks
    alone, with no odd row, formed them exactly when ``block``."""
    reading = _reading(rows)
    groups = len(rows) >= _REAL_GRAM_ROWS and _groups(reading, transposed=transposed)
    if transposed:  # as the depolarizer takes them, with no odd row
        groups = tensor._strict(groups)
    assert bool(groups and (transposed or not len(groups[2]))) == block
    v = rows.T if transposed else rows
    with np.errstate(all="ignore"):
        if transposed:
            members, gram = groups[0] if groups else None, _block_grams(v, groups or None)
            table = gram if members is None else _scatter(members, gram)
            result = _decided(None, None, TOL, "Gram entry ({}, {})".format,
                              lambda: _gram_verdict(_identity_gap(gram), members))
        else:
            table = _gram(v, reading, TOL).table
            result = _gram(v, reading, TOL)
        product = v.conj() @ v.T
        gaps = _identity_gap(product)
        bound = len(v) * np.finfo(float).eps * (np.abs(v) ** 2).sum(axis=1).max()
    expected = CheckResult.worst(gaps, TOL, "Gram entry ({}, {})".format)
    assert result.passed == expected.passed
    if not result.passed:
        # the witness names a worst entry: non-finite, or within rounding of the worst
        worst = expected.deviation
        tied = np.argwhere(gaps >= worst - bound if np.isfinite(worst) else ~np.isfinite(gaps))
        i, j = map(int, re.findall(r"\d+", result.witness))
        assert [i, j] in tied.tolist()
        # and the product's own when it is alone there, up to its mirror image; the full
        # product in real arithmetic may name another non-finite entry than zgemm
        if block and len({tuple(sorted(ij)) for ij in tied.tolist()}) == 1:
            assert result.witness == expected.witness
    if np.isfinite(product).all():
        assert np.abs(table - product).max() <= bound
    if len(v) >= _REAL_GRAM_ROWS:
        assert np.array_equal(table, table.conj().T, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(10, 16), product=st.booleans(), miss=st.sampled_from(NEAR_MISSES),
       columns=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_latin_gram_blocks_agree_with_the_complex_product(d, product, miss, columns, seed):
    rng = np.random.default_rng(seed)
    factors = [f for f in range(2, d) if d % f == 0]
    if product and factors:
        d1 = int(rng.choice(factors))
        basis = tensor_bases(_latin_family(rng, d1), _latin_family(rng, d // d1))
    else:
        basis = _latin_family(rng, d)
    rows = _near_miss(basis.elements.reshape(d * d, -1), miss, rng)
    # A's columns, as the depolarizer reads them, are a transposed view, grouped as A's rows
    _assert_verdict_of_the_product(rows, miss in ON_BLOCK_PATH, transposed=columns)


@pytest.mark.parametrize("duplicate", [False, True], ids=["intact", "element d is element 0"])
@pytest.mark.parametrize("d", [24, 32])
def test_weyl_gram_blocks_agree_with_the_complex_product(d, duplicate):
    rows = weyl_basis(d).elements.reshape(d * d, -1).copy()
    if duplicate:  # a duplicate inside its own group keeps the block path
        rows[d] = rows[0]
    _assert_verdict_of_the_product(rows, True)
    if duplicate:
        assert _gram(rows, _reading(rows), TOL).witness == f"Gram entry (0, {d})"


@pytest.mark.parametrize("family", ["Weyl", "dense"])
@pytest.mark.parametrize("d", [10, 12])
def test_gram_scale_is_complex_division_by_the_scale(d, family):
    basis = weyl_basis(d)
    if family == "dense":
        rng = np.random.default_rng(d)
        basis = apply_equivalence(basis, random_unitary(rng, d), random_unitary(rng, d))
    rows = _stacked(basis).copy()
    reading = _reading(rows)
    assert _gram(rows, reading, TOL, d).table.tobytes() == (
        _gram(rows, reading, TOL).table / d).tobytes()
    # an overflowing entry stays inf where complex division would make NaN of inf * 0
    rows[d, 3] = 1e200
    reading = _reading(rows)
    with np.errstate(all="ignore"):
        unscaled, result = _gram(rows, reading, TOL).table, _gram(rows, reading, TOL, d)
    assert np.isinf(unscaled).any() and not result.passed and not np.isfinite(result.deviation)
    assert np.array_equal(np.isnan(result.table), np.isnan(unscaled))


@pytest.mark.parametrize("damage", ["intact", "element d is element 0", "1e200 on the support",
                                    "1e200 on two rows' support"])
@pytest.mark.parametrize("scale", [1, "d"])
@pytest.mark.parametrize("d", [12, 16, 24, 32])
def test_block_gaps_are_the_full_tables_gaps(d, scale, damage):
    # every entry off the blocks is an exact zero and every diagonal entry is in a block, so the
    # blocks' gaps give the full table's verdict: its first NaN, else its first worst entry
    rows = weyl_basis(d).elements.reshape(d * d, -1).copy()
    k, m = np.flatnonzero(rows[0])[[1, 3]]  # rows 0 and d are in one group
    if damage == "element d is element 0":  # inside its own group: the worst entry is tied
        rows[d] = rows[0]
    elif damage == "1e200 on the support":  # the diagonal overflows, with NaN in M - M^T
        rows[d, k] = 1e200 + 1e200j
    elif damage == "1e200 on two rows' support":  # M - M^T at (0, d) is inf - inf, NaN
        rows[0, k], rows[0, m], rows[d, k], rows[d, m] = 1e200, 1e200j, 1e200j, 1e200
    scale = d if scale == "d" else 1
    # the reading takes a matrix with a phase whose |phase|^2 overflows as odd: 1e200 takes the
    # full product, or the blocks with that row as their border
    reading = _reading(rows)
    groups = _groups(reading)
    assert (not groups or len(groups[2]) > 0) == damage.startswith("1e200")
    with np.errstate(all="ignore"):
        result = _gram(rows, reading, TOL, scale)
        table = _gram(rows, reading, TOL).table
        table.view(np.float64)[...] *= 1 / scale
        expected = CheckResult.worst(_identity_gap(table), TOL, "Gram entry ({}, {})".format)
    assert (result.passed, repr(result.deviation), result.witness) == (
        expected.passed, repr(expected.deviation), expected.witness)
    assert result.table.tobytes() == table.tobytes()
    if damage.startswith("1e200"):
        assert np.isnan(result.table).any() and not np.isfinite(result.deviation)
    if damage == "1e200 on two rows' support":
        assert np.isnan(result.deviation) and result.witness == f"Gram entry (0, {d})"


def _support_blocks(rows):
    """(members, blocks) of a block-diagonal V read off its support alone: rows grouped by their
    first nonzero column, each group's block on the columns its first row is nonzero on."""
    support = rows != 0
    members = np.argsort(support.argmax(axis=1), kind="stable").reshape(-1, np.count_nonzero(
        support[0]))
    parts = np.array([np.flatnonzero(support[group[0]]) for group in members])
    return members, rows[members[:, :, None], parts[:, None, :]]


@pytest.mark.parametrize("scale", [1, "d"])
@pytest.mark.parametrize("d", [12, 16, 24])
def test_a_table_read_from_a_verdict_is_the_blocks_scattered(d, scale):
    rows = weyl_basis(d).elements.reshape(d * d, -1)
    scale = d if scale == "d" else 1
    members, blocks = _support_blocks(rows)
    gram = _block_grams(rows, (members, blocks))
    gram.view(np.float64)[...] *= 1 / scale
    table = np.zeros((d * d,) * 2, dtype=complex)
    table[members[:, :, None], members[:, None, :]] = gram
    result = _gram(rows, _reading(rows), TOL, scale)
    assert callable(vars(result)["table"])  # deferred until read
    assert result.table.tobytes() == table.tobytes()
    assert vars(result)["table"] is result.table  # formed once


def test_worst_of_and_pickle_leave_a_table_unformed():
    d = 12
    rows = weyl_basis(d).elements.reshape(d * d, -1)
    result = _gram(rows, _reading(rows), TOL)  # unscaled, A A* is d I: the worst part, and the first with a table
    other = CheckResult(True, 1e-13, "other part", np.eye(2))
    worst = _worst_of([CheckResult(True, 1e-12, "no table"), result, other])
    copied = pickle.loads(pickle.dumps(result))
    for value in (result, worst, copied):
        assert callable(vars(value)["table"])
    assert (worst.witness, copied) == (result.witness, result)
    renamed = replace(result, witness="renamed")  # reads the table, like any other reader
    table = result.table.tobytes()
    assert renamed.witness == "renamed" and renamed.table is result.table
    for value in (worst, copied, pickle.loads(pickle.dumps(result))):
        assert value.table.tobytes() == table
    assert _worst_of([other, CheckResult(True, 0.0)]).table is other.table


@pytest.mark.parametrize("d, mib", [(24, 1.5), (32, 4)])
def test_verify_of_a_weyl_basis_holds_no_n_by_n_table(d, mib):
    # the unread 576 x 576 table took the d = 24 peak to 5.62 MiB, 17.1 MiB at d = 32
    basis = weyl_basis(d)
    tracemalloc.start()
    try:
        assert verify(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


@pytest.mark.parametrize("d, mib", [(24, 0.72), (32, 1.81)])
def test_the_depolarizer_on_a_weyl_basis_peaks_at_its_blocks(d, mib):
    # the column blocks are gathered in C order with the reading dropped before their Grams
    basis = weyl_basis(d)
    tracemalloc.start()
    try:
        assert verify_depolarizer(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


@pytest.mark.parametrize("d, mib", [(24, 0.72), (32, 1.81)])
def test_the_depolarizer_takes_a_kept_reading_and_keeps_none_it_makes(d, mib, monkeypatch):
    # a reading kept on the basis (24 d^3 bytes) would stay through the Grams, above the bound of
    # a fresh call; one that verify_orthonormal kept, as in the battery, is taken with no read.
    # The fresh basis is built from an array: weyl_basis holds its reading from construction
    fresh, kept = UnitaryBasis(d, weyl_basis(d).elements), UnitaryBasis(d, weyl_basis(d).elements)
    assert verify_orthonormal(kept)
    reads = []
    monomial = tensor._monomial
    monkeypatch.setattr(tensor, "_monomial",
                        lambda stack, *args: reads.append(len(stack)) or monomial(stack, *args))
    assert verify_depolarizer(fresh) and reads == [d * d]
    assert "_stack" not in vars(fresh)
    tracemalloc.start()
    try:
        assert verify_depolarizer(kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reads == [d * d] and peak <= mib * 2**20


DAMAGED_WEYL = ["element 5 moved by 1e-3", "element 0 copied across groups"]


def _damaged_weyl(d, damage):
    """Weyl's elements at d, with element 5 moved by 1e-3 in every entry, or element 0 copied
    onto element 1, which is in another group."""
    elements = weyl_basis(d).elements.copy()
    if damage == "element 5 moved by 1e-3":
        elements[5] += 1e-3
    else:
        elements[1] = elements[0]
    return elements


@pytest.mark.parametrize("damage", DAMAGED_WEYL)
@pytest.mark.parametrize("d", [12, 16])
def test_a_damaged_value_reads_each_stack_once_along_the_sequence(d, damage, monkeypatch):
    # each value keeps one reading of its stack, strict or with its odd matrices, and every
    # verdict and conversion takes it, so along the sequence, run twice, no stack of d^2 matrices
    # is read twice.  A single matrix (the reference, the resource) is not a stack, and not counted
    basis = UnitaryBasis(d, _damaged_weyl(d, damage))
    reads, values = [], []
    monomial = tensor._monomial

    def counting(stack, *args):
        if len(stack) == d * d:
            reads.append(stack)
        return monomial(stack, *args)

    for module in (tensor, bases, schemes):
        monkeypatch.setattr(module, "_monomial", counting)
    for _ in range(2):
        assert not verify_orthonormal(basis)
        entangled = basis_to_entangled(basis)
        assert not verify_entangled_basis(entangled)
        scheme = build_scheme(basis)
        assert not verify(scheme)
        values += [entangled, scheme]  # alive, so that no two values' stacks share memory
    for i, read in enumerate(reads):
        assert not any(np.may_share_memory(read, other) for other in reads[:i]), i


def _same_bits(a, b):
    """Equal errors, arrays by their bytes, verdicts by their parts' bytes, tuples part by part."""
    if isinstance(a, TightportError):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_bits(x, y) for x, y in zip(a, b))
    if isinstance(a, CheckResult):
        return (a.passed, a.witness, np.float64(a.deviation).tobytes()) == (
            b.passed, b.witness, np.float64(b.deviation).tobytes()) and _same_bits(
            np.asarray(a.table), np.asarray(b.table))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


STRICT_CONSUMERS = {
    "tensor_bases": lambda b, e, s, rho: tensor_bases(b, weyl_basis(2)).elements,
    "basis_to_entangled": lambda b, e, s, rho: basis_to_entangled(b).vectors,
    "entangled_to_basis": lambda b, e, s, rho: entangled_to_basis(e).elements,
    "verify_depolarizer": lambda b, e, s, rho: verify_depolarizer(b),
    "verify_dense_coding": lambda b, e, s, rho: verify_dense_coding(s),
    "teleport_state": lambda b, e, s, rho: teleport_state(s, rho),
}


@pytest.mark.parametrize("name", sorted(STRICT_CONSUMERS))
@pytest.mark.parametrize("damage", DAMAGED_WEYL)
@pytest.mark.parametrize("d", [12, 16])
def test_a_kept_reading_leaves_each_strict_consumer_as_on_a_fresh_value(d, damage, name,
                                                                          monkeypatch):
    # the consumers that take no odd matrix give, on values whose readings with odd matrices the
    # verdicts kept, the bytes, verdicts and witnesses they give on values fresh from the arrays
    # read with no odd matrix, as a strict reading takes them
    elements = _damaged_weyl(d, damage)
    vectors = (elements @ omega_vector(d).reshape(d, d)).reshape(d * d, -1)

    def values():
        return (UnitaryBasis(d, elements), MaxEntangledBasis(d, vectors),
                TightScheme(d, omega_vector(d), elements, MaxEntangledBasis(d, vectors),
                            TELEPORTATION))

    kept, fresh = values(), values()
    assert not verify_orthonormal(kept[0]) and not verify(kept[1]) and not verify(kept[2])
    for value in (kept[0], kept[1], kept[2], kept[2].effects):
        assert len(vars(value)["_stack"].reading) == (3 if damage.startswith("element 5") else 2)

    def call(value):
        try:
            return STRICT_CONSUMERS[name](*value, random_density(np.random.default_rng(d), d))
        except TightportError as error:
            return error

    with np.errstate(all="ignore"):
        got = call(kept)
        for module in (tensor, bases, schemes):
            monkeypatch.setattr(module, "_monomial", _strict)
        assert _same_bits(got, call(fresh))


def _outcome_gaps_by_products(scheme, r):
    """Per-outcome gaps and weight sum of ``_outcome_identity``, from the two d x d products."""
    d = scheme.d
    t = (scheme.channel_unitaries.reshape(-1, d) @ r).reshape(-1, d, d)
    t = np.conjugate(t, out=t) @ np.swapaxes(scheme.effects.vectors.reshape(-1, d, d), 1, 2)
    c = np.trace(t, axis1=1, axis2=2) / d
    return _identity_gap(t, c[:, None]).max(axis=(1, 2)), float(np.vdot(c, c).real)


def _unitarity_gaps_by_products(stack, scale):
    return _identity_gap(_adjoint(stack) @ stack, scale).max(axis=(1, 2))


OUTCOME = "outcome {}: T_x is not a multiple of I".format
WEIGHTS = "outcome weights sum to"


def _verdict_of_the_products(gaps, weight=None, name=OUTCOME):
    """The verdict the products give: on per-matrix ``gaps``, then on the weight sum if given."""
    parts = [CheckResult.worst(gaps, TOL, name)]
    if weight is not None:
        parts.append(CheckResult(abs(weight - 1) <= TOL, abs(weight - 1), f"{WEIGHTS} {weight}"))
    return _worst_of(parts)


def _assert_verdict_within_rounding(result, gaps, weight, bound, name=OUTCOME):
    """``result`` is the products' verdict on ``gaps`` (and ``weight``) up to ``bound``: the same
    ``passed``, a deviation within it, and a witness naming a worst part, which is the products'
    own where the worst part is alone within ``bound``."""
    expected = _verdict_of_the_products(gaps, weight, name)
    parts = {name(x): g for x, g in enumerate(gaps)}
    if weight is not None:
        parts[WEIGHTS] = abs(weight - 1)
    worst = expected.deviation
    assert result.passed == expected.passed
    if np.isnan(worst):
        tied = [w for w, g in parts.items() if np.isnan(g)]
        assert np.isnan(result.deviation)
    else:
        tied = [w for w, g in parts.items() if g >= worst - bound]
        assert result.deviation == worst or abs(result.deviation - worst) <= bound
    witness = result.witness
    if witness.startswith(WEIGHTS):  # which prints the sum
        reported = float(witness.split()[-1])
        assert np.isclose(reported, weight, rtol=0, atol=bound, equal_nan=True)
        witness = WEIGHTS
    assert witness in tied


# Damage to one matrix of a monomial stack; ``_monomial`` reads the stack on ON_MONOMIAL_PATH.
MONOMIAL_MISSES = ["intact", "phase scaled by 1 + 1e-9", "1e200 phase", "support entry moved",
                   "1e-300 off the support", "two columns share a row", "zero column"] + [
    f"{value} at a {where} entry"
    for value in ("nan", "inf", "-inf") for where in ("zero", "nonzero")]
ON_MONOMIAL_PATH = {"intact", "phase scaled by 1 + 1e-9"}


def _monomial_miss(stack, miss, rng):
    stack = stack.copy()
    s = stack[rng.integers(len(stack))]
    k = int(rng.integers(len(s)))  # a column, with its nonzero in row i
    i, other = int(np.flatnonzero(s[:, k])[0]), int(rng.choice(np.delete(np.arange(len(s)), k)))
    if miss == "phase scaled by 1 + 1e-9":
        s[i, k] *= 1 + 1e-9
    elif miss == "1e200 phase":
        s[i, k] = 1e200
    elif miss == "support entry moved":  # along its row, onto another column's
        s[i, other], s[i, k] = s[i, k], 0
    elif miss == "1e-300 off the support":
        s[i, other] = 1e-300
    elif miss == "two columns share a row":  # column k's entry moved into column other's row
        j = int(np.flatnonzero(s[:, other])[0])
        s[j, k], s[i, k] = s[i, k], 0
    elif miss == "zero column":
        s[i, k] = 0
    elif miss != "intact":
        value, where = miss.split(" at a ")
        s[(i, k) if where == "nonzero entry" else (i, other)] = float(value)
    return stack


@settings(max_examples=150, deadline=None)
@given(d=st.integers(10, 16), product=st.booleans(), miss=st.sampled_from(MONOMIAL_MISSES),
       transposed=st.booleans(), side=st.sampled_from(["channels", "effects"]),
       canonical=st.booleans(), mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1))
def test_monomial_reading_agrees_with_the_products(d, product, miss, transposed, side, canonical,
                                                   mode, seed):
    rng = np.random.default_rng(seed)
    factors = [f for f in range(2, d) if d % f == 0]
    if product and factors:
        d1 = int(rng.choice(factors))
        basis = tensor_bases(_latin_family(rng, d1), _latin_family(rng, d // d1))
    else:
        basis = _latin_family(rng, d)
    fast = miss in ON_MONOMIAL_PATH
    # the same damage to the elements and to the entangled vectors' d x d matrices
    elements, vectors = (_monomial_miss(m, miss, np.random.default_rng(seed))
                         for m in (basis.elements, basis.elements / np.sqrt(d)))
    # unitarity of the elements, or of the vectors' transposed view, as verify_entangled_basis
    # reads them
    stack, scale = (vectors.swapaxes(1, 2), 1 / d) if transposed else (elements, 1)
    assert (_strict(elements) is not None) == fast
    with np.errstate(all="ignore"):
        result = _unitarity(_monomial(stack), stack, scale, TOL, "matrix {}".format)
        gaps = _unitarity_gaps_by_products(stack, scale)
    _assert_verdict_within_rounding(result, gaps, None, 16 * np.finfo(float).eps,
                                    "matrix {}".format)
    # the damaged stack as one side of a scheme whose other side is dense unless the resource,
    # W = V / sqrt(d), is the canonical one; the other side is what makes the intact scheme tight
    v = np.eye(d, dtype=complex) if canonical else random_unitary(rng, d)
    w = v / np.sqrt(d)
    r = w.T if mode == TELEPORTATION else w
    if side == "channels":  # phi_x = U_x (R^-1)* / d
        channels, effects = elements, basis.elements @ np.linalg.inv(r).conj().T / d
    else:  # U_x = phi_x R^-1
        channels, effects = basis.elements @ np.linalg.inv(r) / np.sqrt(d), vectors
    effects = MaxEntangledBasis(d, effects.reshape(d * d, -1))
    scheme = TightScheme(d, w.reshape(-1), channels, effects, mode)
    assert (_strict(scheme.channel_unitaries) is not None) == (
        fast if side == "channels" else canonical)
    assert (_strict(scheme.effects.vectors.reshape(-1, d, d)) is not None) == (
        fast if side == "effects" else canonical)
    with np.errstate(all="ignore"):
        result = _outcome_identity(scheme, r, TOL)
        gaps, weight = _outcome_gaps_by_products(scheme, r)
    _assert_verdict_within_rounding(result, gaps, weight, d * d * np.finfo(float).eps)
    if miss == "intact":  # the scheme is tight
        assert result.passed


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("resource", ["dense", "diagonal"])
def test_non_finite_channels_beside_monomial_effects_read_as_the_products(resource, value):
    # U_x R, a product, holds NaN or inf, and the gather with phi_x's phases keeps the verdict
    d = 12
    rng = np.random.default_rng(d)
    v = (random_unitary(rng, d) if resource == "dense"
         else np.diag(np.exp(2j * np.pi * rng.random(d))))
    w = v / np.sqrt(d)
    basis = weyl_basis(d)
    channels = basis.elements @ np.linalg.inv(w.T) / np.sqrt(d)
    channels[5, 2, 3] = value
    scheme = TightScheme(d, w.reshape(-1), channels, basis_to_entangled(basis), TELEPORTATION)
    assert _strict(scheme.channel_unitaries) is None
    assert _strict(scheme.effects.vectors.reshape(-1, d, d)) is not None
    with np.errstate(all="ignore"):
        result = _outcome_identity(scheme, w.T, TOL)
        gaps, weight = _outcome_gaps_by_products(scheme, w.T)
    expected = _verdict_of_the_products(gaps, weight)
    assert (result.passed, result.witness) == (expected.passed, expected.witness)
    assert np.isnan(result.deviation) == np.isnan(expected.deviation)
    assert np.isinf(result.deviation) == np.isinf(expected.deviation)


def _outcome_verdict_by_gather(scheme, r):
    """``_outcome_identity``'s verdict with monomial channels and effects and any R: T_x as one
    gather of R's rows in the order q that puts phi_x's nonzeros on the diagonal, two scalings."""
    d = scheme.d
    u = _monomial(scheme.channel_unitaries)
    phi = _monomial(scheme.effects.vectors.reshape(-1, d, d))
    q = (np.arange(d * d)[:, None], np.argsort(phi[0], 1))
    t = r[u[0][q]]
    t *= u[1][q][..., None]
    t *= phi[1][q].conj()[:, None, :]
    c = np.trace(t, axis1=1, axis2=2) / d
    return _verdict_of_the_products(_identity_gap(t, c[:, None]).max(axis=(1, 2)),
                                    float(np.vdot(c, c).real))


# Damage that keeps every channel and effect a permutation times phases
OUTCOME_MISSES = ["intact", "phase scaled by 1 + 1e-9", "two rows swapped", "duplicate"]


@settings(max_examples=150, deadline=None)
@given(d=st.integers(10, 16), product=st.booleans(), miss=st.sampled_from(OUTCOME_MISSES),
       side=st.sampled_from(["channels", "effects"]),
       resource=st.sampled_from(["canonical", "phases", "phases, canonical effects"]),
       mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1))
def test_monomial_resource_reads_the_outcomes_as_the_gather(d, product, miss, side, resource,
                                                              mode, seed):
    rng = np.random.default_rng(seed)
    factors = [f for f in range(2, d) if d % f == 0]
    if product and factors:
        d1 = int(rng.choice(factors))
        basis = tensor_bases(_latin_family(rng, d1), _latin_family(rng, d // d1))
    else:
        basis = _latin_family(rng, d)
    # W = D / sqrt(d) for a diagonal of non-uniform phases D; its own effects make it tight
    phases = np.exp(2j * np.pi * rng.random(d) * (resource != "canonical"))
    w = np.diag(phases) / np.sqrt(d)
    effects = basis_to_entangled(basis, omega_vector(d) if resource.endswith("effects")
                                 else w.ravel())
    stacks = {"channels": basis.elements.copy(),
              "effects": effects.vectors.reshape(-1, d, d).copy()}
    s, other = (stacks[side][x] for x in rng.integers(d * d, size=2))
    i, k = rng.choice(d, 2, replace=False)
    if miss == "phase scaled by 1 + 1e-9":
        s[i, np.flatnonzero(s[i])[0]] *= 1 + 1e-9
    elif miss == "two rows swapped":
        s[[i, k]] = s[[k, i]]
    elif miss == "duplicate":
        s[...] = other
    scheme = TightScheme(d, w.ravel(), stacks["channels"],
                         MaxEntangledBasis(d, stacks["effects"].reshape(d * d, -1)), mode)
    r = w.T if mode == TELEPORTATION else w
    assert _monomial(r[None], 1) is not None
    result = _outcome_identity(scheme, r, TOL)
    expected = _outcome_verdict_by_gather(scheme, r)
    assert (result.passed, repr(result.deviation), result.witness) == (
        expected.passed, repr(expected.deviation), expected.witness)
    if miss == "intact" and resource != "phases, canonical effects":
        assert result.passed


@pytest.mark.parametrize("resource", ["diagonal phases", "random"])
@pytest.mark.parametrize("d", [10, 12, 16])
def test_a_dense_resource_takes_the_gather(d, resource):
    # T_x's d nonzeros stay below one (d^2, d, d) stack; the gather forms that stack
    rng = np.random.default_rng(d)
    v = (np.diag(np.exp(2j * np.pi * rng.random(d))) if resource == "diagonal phases"
         else random_unitary(rng, d))
    w = v / np.sqrt(d)
    basis = weyl_basis(d)
    scheme = TightScheme(d, w.ravel(), basis.elements, basis_to_entangled(basis), TELEPORTATION)
    tracemalloc.start()
    try:
        result = _outcome_identity(scheme, w.T, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _outcome_verdict_by_gather(scheme, w.T)
    assert (result.passed, repr(result.deviation), result.witness) == (
        expected.passed, repr(expected.deviation), expected.witness)
    assert (peak >= scheme.channel_unitaries.nbytes) == (resource == "random")


LATIN_BELOW_THE_READING = {
    "Weyl d = 8": lambda: weyl_basis(8),
    "Weyl d = 9": lambda: weyl_basis(9),
    "shift-multiply d = 8": lambda: _latin_family(np.random.default_rng(8), 8),
    "tensor product d = 2 x 4": lambda: tensor_bases(weyl_basis(2), weyl_basis(4)),
}


@pytest.mark.parametrize("damage", [None, "phase", "nan"])
@pytest.mark.parametrize("family", sorted(LATIN_BELOW_THE_READING))
def test_fewer_matrices_than_the_reading_take_the_products_bit_for_bit(family, damage):
    basis = LATIN_BELOW_THE_READING[family]()
    d = basis.d
    elements = basis.elements.copy()
    if damage == "phase":
        elements[5] *= np.exp(1e-6j)
        elements[5, 0] *= 1 + 1e-6
    elif damage == "nan":
        elements[5, 0, np.flatnonzero(elements[5, 0] == 0)[0]] = np.nan
    assert len(elements) < _REAL_GRAM_ROWS and _monomial(elements) is None
    for stack, scale in ((elements, 1), (elements.swapaxes(1, 2) / np.sqrt(d), 1 / d)):
        with np.errstate(all="ignore"):
            result = _unitarity(_monomial(stack), stack, scale, TOL, "matrix {}".format)
            expected = CheckResult.worst(_unitarity_gaps_by_products(stack, scale), TOL,
                                         "matrix {}".format)
        assert (result.passed, result.witness) == (expected.passed, expected.witness)
        assert np.float64(result.deviation).tobytes() == np.float64(expected.deviation).tobytes()
    for mode in MODES:
        scheme = replace(build_scheme(basis, mode), channel_unitaries=elements)
        w = scheme.omega.reshape(d, d)
        r = w.T if mode == TELEPORTATION else w
        with np.errstate(all="ignore"):
            result = _outcome_identity(scheme, r, TOL)
            expected = _verdict_of_the_products(*_outcome_gaps_by_products(scheme, r))
        assert (result.passed, result.witness) == (expected.passed, expected.witness)
        assert np.float64(result.deviation).tobytes() == np.float64(expected.deviation).tobytes()


VECTOR_LAYOUTS = {
    "Fortran": np.asfortranarray,
    "rows reversed": lambda v: v[::-1],
    "transposed view": lambda v: v.T,
}


@pytest.mark.parametrize("damage", [None, "perturbed", "nan"])
@pytest.mark.parametrize("layout", sorted(VECTOR_LAYOUTS))
@pytest.mark.parametrize("d", [10, 12])
def test_completeness_reads_vectors_in_any_layout(d, layout, damage):
    # the float64 view the Gram is built from needs C order; other layouts must be copied
    entangled = basis_to_entangled(_theorem_damage(weyl_basis(d), damage))
    vectors = VECTOR_LAYOUTS[layout](entangled.vectors)
    assert not vectors.flags.c_contiguous
    result = check_projector_completeness(vectors)
    expected = check_projector_completeness(np.ascontiguousarray(vectors))
    assert (result.passed, result.witness) == (expected.passed, expected.witness)
    np.testing.assert_allclose(result.table, expected.table, rtol=0, atol=1e-12, equal_nan=True)
