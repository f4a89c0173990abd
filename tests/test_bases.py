import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import PAULIS, SIGMA_X, random_complex, random_unitary
from tightport import (
    BadPermutation,
    CheckResult,
    DesignInvalid,
    DimensionMismatch,
    NoSolution,
    NotUnitary,
    TightportError,
    UnitaryBasis,
    WeightNotPositive,
    apply_equivalence,
    bases,
    basis_to_entangled,
    build_scheme,
    dumps,
    entangled_to_basis,
    extract_basis_from_scheme,
    fourier_hadamard,
    hadamard_d4_family,
    latin_equivalence_apply,
    latin_from_cyclic,
    make_document,
    periodic_phase_hadamard,
    recover_weight_from_unitary_gram,
    shift_multiply_basis,
    swap_roles,
    tensor,
    tensor_bases,
    trace_inner,
    verify,
    verify_depolarizer,
    verify_orthonormal,
    weighted_gram,
    weyl_basis,
)
from tightport.tensor import _identity_gap


def hs_normalized_perturbation(d=2, epsilon=0.01):
    """One element nudged off unitarity but kept at unit trace norm."""
    basis = weyl_basis(d)
    elems = basis.elements.copy()
    flip = np.zeros((d, d), dtype=complex)
    flip[0, 1] = flip[1, 0] = 1.0
    bad = np.eye(d, dtype=complex) + epsilon * flip
    bad /= np.sqrt(np.trace(bad.conj().T @ bad).real / d)
    elems[0] = bad
    return UnitaryBasis(d, elems)


class TestShiftMultiply:
    def test_d2_elements_are_paulis_up_to_phase(self):
        basis = shift_multiply_basis(
            latin_from_cyclic(2), [fourier_hadamard(2)] * 2
        )
        matched = set()
        for x in range(4):
            overlaps = [abs(trace_inner(basis.elements[x], p)) for p in PAULIS]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-12)
            matched.add(int(np.argmax(overlaps)))
        assert matched == {0, 1, 2, 3}

    def test_d3_orthonormal(self):
        basis = shift_multiply_basis(latin_from_cyclic(3), [fourier_hadamard(3)] * 3)
        report = verify_orthonormal(basis)
        assert report.passed and report.deviation < 1e-12

    def test_flat_label_is_i_d_plus_j(self):
        # element (i, j) = (1, 2) sits at x = i*d + j = 5 and sends e_k to H_2[1, k] e_{grid[2, k]}
        grid, h = latin_from_cyclic(3).grid, fourier_hadamard(3).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[grid[2], range(3)] = h[1]
        np.testing.assert_array_equal(weyl_basis(3).elements[5], expected)

    @pytest.mark.parametrize("d", [0, -1])
    def test_weyl_rejects_non_positive_dimension(self, d):
        with pytest.raises(TightportError, match=f"dimension must be positive, got {d}"):
            weyl_basis(d)

    def test_rejects_non_latin_grid(self):
        with pytest.raises(DesignInvalid):
            shift_multiply_basis([[0, 1], [0, 1]], [fourier_hadamard(2)] * 2)

    def test_rejects_non_hadamard(self):
        with pytest.raises(DesignInvalid):
            shift_multiply_basis(latin_from_cyclic(2), [np.ones((2, 2))] * 2)

    def test_raw_non_hadamard_message_names_the_matrix(self):
        mats = [fourier_hadamard(3).matrix, fourier_hadamard(3).matrix, np.ones((3, 3))]
        message = (
            "Hadamard 2: not a Hadamard matrix: rows are not orthogonal at norm sqrt(d) "
            "(deviation 3.000e+00)"
        )
        with pytest.raises(DesignInvalid) as info:
            shift_multiply_basis(latin_from_cyclic(3), mats)
        assert str(info.value) == message

    def test_raw_non_latin_message(self):
        with pytest.raises(DesignInvalid) as info:
            shift_multiply_basis([[0, 1], [0, 1]], [fourier_hadamard(2)] * 2)
        assert str(info.value) == "not a Latin square: column 0"

    def test_validated_designs_are_not_checked_again(self, monkeypatch):
        import tightport.designs as designs_module

        square, h = latin_from_cyclic(3), fourier_hadamard(3)
        calls = []
        for name in ("validate_latin", "validate_hadamard"):
            original = getattr(designs_module, name)
            monkeypatch.setattr(
                designs_module, name,
                lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k),
            )
        shift_multiply_basis(square, [h] * 3)
        assert calls == []
        shift_multiply_basis(square.grid, [h.matrix] * 3)
        assert calls == ["validate_latin"] + ["validate_hadamard"] * 3

    def test_validated_hadamard_of_wrong_size_rejected(self):
        with pytest.raises(DesignInvalid, match=r"Hadamard 1 has shape \(2, 2\)"):
            shift_multiply_basis(
                latin_from_cyclic(3), [fourier_hadamard(3), fourier_hadamard(2), fourier_hadamard(3)]
            )

    def test_rejects_wrong_hadamard_count(self):
        with pytest.raises(DesignInvalid):
            shift_multiply_basis(latin_from_cyclic(3), [fourier_hadamard(3)] * 2)

    def test_converse_non_latin_grid_breaks_orthonormality(self):
        # Bypassing validation shows the conditions are necessary, not just
        # sufficient: a repeated column symbol collapses the Gram matrix.
        grid = np.array([[0, 1], [0, 1]])
        elems = oracles.raw_shift_multiply(grid, [fourier_hadamard(2).matrix] * 2)
        report = verify_orthonormal(UnitaryBasis(2, elems))
        assert not report.passed
        assert report.deviation > 1e-3

    def test_converse_non_hadamard_breaks_orthonormality(self):
        grid = latin_from_cyclic(2).grid
        elems = oracles.raw_shift_multiply(grid, [np.ones((2, 2), dtype=complex)] * 2)
        report = verify_orthonormal(UnitaryBasis(2, elems))
        assert not report.passed
        assert report.deviation > 1e-3


class TestWeylBasis:
    def test_group_product_is_scalar_multiple(self):
        d, elems = 3, weyl_basis(3).elements
        u10, u01, u11 = elems[1 * d + 0], elems[0 * d + 1], elems[1 * d + 1]
        product = u10 @ u01
        ratio = trace_inner(u11, product)
        assert abs(abs(ratio) - 1.0) < 1e-12
        np.testing.assert_allclose(product, ratio * u11, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_group_law_all_pairs(self, d):
        basis = weyl_basis(d)
        for i1 in range(d):
            for j1 in range(d):
                for i2 in range(d):
                    for j2 in range(d):
                        left = basis.elements[i1 * d + j1] @ basis.elements[i2 * d + j2]
                        target = basis.elements[((i1 + i2) % d) * d + (j1 + j2) % d]
                        mu = trace_inner(target, left)
                        assert abs(abs(mu) - 1.0) < 1e-12
                        np.testing.assert_allclose(left, mu * target, atol=1e-12)

    def test_d1_single_identity(self):
        basis = weyl_basis(1)
        report = verify_orthonormal(basis)
        assert report.passed
        np.testing.assert_allclose(basis.elements[0], np.eye(1), atol=0)


class TestVerifyOrthonormal:
    def test_weyl_d4(self):
        report = verify_orthonormal(weyl_basis(4))
        assert report.passed and report.deviation < 1e-12

    def test_gram_is_hermitian(self):
        report = verify_orthonormal(weyl_basis(3))
        np.testing.assert_allclose(report.table, report.table.conj().T, atol=1e-12)

    def test_perturbed_element_fails(self):
        report = verify_orthonormal(hs_normalized_perturbation())
        assert not report.passed
        assert report.deviation > 1e-3 and report.witness == "element 0 is not unitary"


class TestVerifyDepolarizer:
    def test_traceless_probe_sums_to_zero(self):
        basis = weyl_basis(2)
        elems = basis.elements
        total = sum(elems[x].conj().T @ SIGMA_X @ elems[x] for x in range(4))
        np.testing.assert_allclose(total, np.zeros((2, 2)), atol=1e-12)
        assert verify_depolarizer(basis).passed

    def test_default_probe_set_is_matrix_units(self):
        assert verify_depolarizer(weyl_basis(2)).passed

    @pytest.mark.parametrize("d,damage", [(d, damage) for d in range(1, 9)
                                          for damage in ("intact", "perturbed", "duplicated")
                                          if d > 1 or damage != "duplicated"])
    def test_matrix_unit_verdict_bounds_every_probe(self, d, damage):
        # P is sum_ab P_ab E[a, b], so its gap is at most sum_ab |P_ab| times the worst unit's
        rng = np.random.default_rng(100 + d)
        elems = weyl_basis(d).elements.copy()
        if damage == "perturbed":
            elems[d * d // 2] += 1e-6 * random_complex(rng, d, d)
        elif damage == "duplicated":
            elems[-1] = elems[0]
        result = verify_depolarizer(UnitaryBasis(d, elems))
        assert result.passed == (damage == "intact")
        for probe in (random_complex(rng, d, d) for _ in range(10)):
            bound = np.abs(probe).sum() * (result.deviation + 1e-13)
            assert oracles.depolarizer(elems, [probe])[0] <= bound

    def test_probes_are_no_longer_taken(self):
        # the old call form puts the probes in ``tol``; it must raise, not return a verdict
        basis = weyl_basis(3)
        with pytest.raises(TypeError):
            verify_depolarizer(basis, [np.eye(3)])
        with pytest.raises(ValueError, match="truth value of an array"):
            verify_depolarizer(basis, np.stack([np.eye(3), np.ones((3, 3))]))

    def test_nan_entry_fails(self):
        # a NaN gap must not lose every "worse than" comparison and pass
        elems = weyl_basis(3).elements.copy()
        elems[4, 2, 1] = np.nan
        result = verify_depolarizer(UnitaryBasis(3, elems))
        assert not result.passed
        assert np.isnan(result.deviation)
        assert result.witness.startswith("matrix unit")

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equivalent_to_orthonormality(self, d):
        good = weyl_basis(d)
        assert verify_orthonormal(good).passed
        assert verify_depolarizer(good).passed
        bad = hs_normalized_perturbation(d)
        assert not verify_orthonormal(bad).passed
        assert not verify_depolarizer(bad).passed


class TestWeightedGram:
    def test_maximally_mixed_weight_reduces_to_plain_gram(self):
        basis = weyl_basis(2)
        report = weighted_gram(basis.elements, np.eye(2) / 2)
        assert report.passed
        np.testing.assert_allclose(report.table, np.eye(4), atol=1e-12)

    def test_deformed_weight_breaks_orthonormality(self):
        basis = weyl_basis(2)
        report = weighted_gram(basis.elements, np.diag([1.0, 1 / 3]))
        assert not report.passed
        assert report.deviation > 1e-3

    def test_completeness_cross_check(self):
        # identity weighted Gram forces the conjugation sum to tr(R C) I,
        # with R the inverse of the supplied weight
        rng = np.random.default_rng(21)
        basis = weyl_basis(2)
        weight_inverse = np.eye(2) / 2
        weight = np.linalg.inv(weight_inverse)
        assert weighted_gram(basis.elements, weight_inverse).passed
        for _ in range(10):
            c = random_complex(rng, 2, 2)
            total = sum(
                basis.elements[x].conj().T @ c @ basis.elements[x] for x in range(4)
            )
            expected = np.trace(weight @ c) * np.eye(2)
            np.testing.assert_allclose(total, expected, atol=1e-11)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(WeightNotPositive):
            weighted_gram(weyl_basis(2).elements, np.diag([1.0, 0.0]))

    def test_rejects_non_hermitian_weight(self):
        with pytest.raises(WeightNotPositive):
            weighted_gram(weyl_basis(2).elements, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_weight_without_a_cholesky_factor_rejected(self, monkeypatch):
        # a weight whose eigenvalues eigvalsh reads above 1e-12, with a condition number
        # near 1/eps, can still have no Cholesky factor in floating point
        def no_factor(w):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        with pytest.raises(WeightNotPositive, match="Cholesky"):
            weighted_gram(weyl_basis(2).elements, np.eye(2) / 2)

    def test_nan_weight_rejected(self):
        weight = np.array([[0.5, np.nan], [np.nan, 0.5]])
        with pytest.raises(WeightNotPositive):
            weighted_gram(weyl_basis(2).elements, weight)

    @pytest.mark.parametrize("damage", ["element 5 moved", "element 0 copied across groups"])
    @pytest.mark.parametrize("d", [12, 16])
    def test_a_damaged_latin_family_takes_the_product(self, d, damage, monkeypatch):
        # the weighted Gram and weight recovery's residual group their whitened elements with no
        # odd row: on a Latin family with an odd element, or a copy past its group's d, each is
        # the product's verdict on the same rows bit for bit, within rounding of tr(K_x* W K_y)
        elements = weyl_basis(d).elements.copy()
        if damage == "element 5 moved":
            elements[5] += 1e-3
        else:
            elements[1] = elements[0]  # in another group than element 0
        calls, gram = [], bases._gram

        def recording(rows, *args, **kwargs):
            calls.append((rows, gram(rows, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(bases, "_gram", recording)
        for w in (np.eye(d) / d, np.diag(np.linspace(1.0, 2.0, d))):
            result, expected = weighted_gram(elements, w), oracles.weighted_gram(elements, w)
            bound = d * d * np.finfo(float).eps * np.abs(expected.diagonal()).max()
            assert not result.passed and np.abs(result.table - expected).max() <= bound
        with pytest.raises(NoSolution, match="residual"):
            recover_weight_from_unitary_gram(UnitaryBasis(d, elements))
        assert len(calls) == 3
        for rows, result in calls:
            product = tensor._gram(rows, None, 1e-12)
            assert (result.passed, result.witness) == (product.passed, product.witness)
            assert np.float64(result.deviation).tobytes() == np.float64(product.deviation).tobytes()
            assert result.table.tobytes() == product.table.tobytes()


class TestRecoverWeight:
    @pytest.mark.parametrize("d", [2, 3])
    def test_weyl_recovers_maximally_mixed(self, d):
        rho = recover_weight_from_unitary_gram(weyl_basis(d))
        np.testing.assert_allclose(rho, np.eye(d) / d, atol=1e-10)

    def test_d4_family_basis_recovers_maximally_mixed(self):
        basis = shift_multiply_basis(
            latin_from_cyclic(4), [hadamard_d4_family(np.exp(0.3j))] * 4
        )
        rho = recover_weight_from_unitary_gram(basis)
        np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-10)

    def test_no_solution_for_non_basis(self):
        elems = weyl_basis(2).elements.copy()
        elems[1] = elems[0]  # duplicated element: not a basis
        with pytest.raises(NoSolution):
            recover_weight_from_unitary_gram(UnitaryBasis(2, elems))

    def test_nan_entry_is_no_solution(self):
        elems = weyl_basis(3).elements.copy()
        elems[4, 2, 1] = np.nan
        with pytest.raises(NoSolution):
            recover_weight_from_unitary_gram(UnitaryBasis(3, elems))

    def test_closed_form_solves_the_equations(self):
        # R U_x for a Weyl basis U_x and invertible R is solved exactly by
        # rho = (R R*)^{-1} / d, which is not I/d: the residual check passes
        # and the I/d check is the one that fails.
        rng = np.random.default_rng(25)
        r = random_complex(rng, 3, 3)
        with pytest.raises(NoSolution, match="despite a small residual"):
            recover_weight_from_unitary_gram(UnitaryBasis(3, r @ weyl_basis(3).elements))

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    def test_singular_family_is_no_solution(self, fill):
        # Tr_2 of A^T conj(A) is 0 or of rank one: no inverse to take
        with pytest.raises(NoSolution):
            recover_weight_from_unitary_gram(UnitaryBasis(2, np.full((4, 2, 2), fill)))


class TestTensorBases:
    def test_product_is_a_basis(self):
        product = tensor_bases(weyl_basis(2), weyl_basis(2))
        assert product.d == 4
        assert verify_orthonormal(product).passed

    def test_elements_are_kronecker_products(self):
        b1, b2 = weyl_basis(2), weyl_basis(3)
        product = tensor_bases(b1, b2)
        for x in range(4):
            for y in range(9):
                np.testing.assert_array_equal(
                    product.elements[x * 9 + y], np.kron(b1.elements[x], b2.elements[y])
                )

    def test_unit_factor_leaves_elements_unchanged(self):
        basis = weyl_basis(3)
        product = tensor_bases(basis, weyl_basis(1))
        np.testing.assert_allclose(product.elements, basis.elements, atol=0)

    def test_trace_inner_multiplicative(self):
        rng = np.random.default_rng(22)
        a, c = random_complex(rng, 2, 2), random_complex(rng, 2, 2)
        b, e = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
        lhs = trace_inner(np.kron(a, b), np.kron(c, e))
        rhs = trace_inner(a, c) * trace_inner(b, e) * 6 / 6
        assert abs(lhs - rhs) < 1e-12


class TestApplyEquivalence:
    def test_identity_transform(self):
        basis = weyl_basis(2)
        moved = apply_equivalence(basis, np.eye(2), np.eye(2))
        np.testing.assert_allclose(moved.elements, basis.elements, atol=0)

    def test_random_unitaries_preserve_basis(self):
        rng = np.random.default_rng(23)
        basis = weyl_basis(3)
        moved = apply_equivalence(
            basis, random_unitary(rng, 3), random_unitary(rng, 3), rng.permutation(9)
        )
        assert verify_orthonormal(moved).passed

    def test_gram_deviation_preserved(self):
        rng = np.random.default_rng(24)
        bad = hs_normalized_perturbation()
        before = np.abs(verify_orthonormal(bad).table - np.eye(4)).max()
        moved = apply_equivalence(bad, random_unitary(rng, 2), random_unitary(rng, 2))
        after = np.abs(verify_orthonormal(moved).table - np.eye(4)).max()
        assert abs(before - after) < 1e-13

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            apply_equivalence(weyl_basis(2), np.eye(2) + 0.1 * SIGMA_X, np.eye(2))

    def test_rejects_non_integer_relabelling(self):
        # truncated to int this is the permutation [0, 1, 2, 3]
        with pytest.raises(BadPermutation):
            apply_equivalence(weyl_basis(2), np.eye(2), np.eye(2), relabel=[0.2, 1.9, 2.5, 3.1])

    @pytest.mark.parametrize("relabel", [[True, False, 2, 3], (1, np.False_, 2, 3)])
    def test_rejects_a_bool_among_integers(self, relabel):
        # np.asarray casts a list that mixes booleans and integers to int64
        with pytest.raises(BadPermutation):
            apply_equivalence(weyl_basis(2), np.eye(2), np.eye(2), relabel=relabel)


def test_orthonormal_forms_the_gram_matrix_after_the_elements_products():
    # With the Gram matrix held beside the elements' adjoints and products the peak
    # was 3.0 d^2 x d^2 matrices at d = 12; one at a time it is 2.0.
    basis = weyl_basis(12)
    tracemalloc.start()
    try:
        assert verify_orthonormal(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 144**2 * 16


@pytest.mark.parametrize("call, message", [
    (lambda: weighted_gram(weyl_basis(2).elements, np.eye(3)),
     "weight shape (3, 3) does not match operators (2, 2)"),
    (lambda: apply_equivalence(weyl_basis(2), np.eye(2), np.eye(3)),
     "V2 has shape (3, 3), expected (2, 2)"),
    (lambda: UnitaryBasis(2, np.zeros((3, 2, 2))),
     "expected 4 matrices of shape (2, 2), got array of shape (3, 2, 2)"),
], ids=["weighted_gram weight", "apply_equivalence V2", "UnitaryBasis elements"])
def test_an_operand_of_another_shape_is_a_dimension_mismatch(call, message):
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == message


def test_apply_equivalence_checks_both_shapes_then_names_the_less_unitary_factor():
    basis = weyl_basis(2)
    with pytest.raises(DimensionMismatch, match=r"^V2 has shape \(3, 3\)"):
        apply_equivalence(basis, 2 * np.eye(2), np.eye(3))
    # V2 deviates by 1.2^2 - 1, V1 by 1.1^2 - 1: the worse one is named, as in every check
    with pytest.raises(NotUnitary) as info:
        apply_equivalence(basis, 1.1 * np.eye(2), 1.2 * np.eye(2))
    assert str(info.value) == "V2 deviates from unitarity by 4.400e-01"


@pytest.mark.parametrize("family", ["Weyl", "dense"])
@pytest.mark.parametrize("damage", [None, "perturbed", "nan"])
@pytest.mark.parametrize("d", [8, 10, 12])
def test_depolarizer_takes_the_gram_of_the_columns(d, damage, family):
    # A* A is the Gram matrix of A's columns: the rows of a transposed view.  Below 100 rows it
    # is one complex product; from 100 on, d blocks on Weyl and the full real form otherwise
    basis = weyl_basis(d)
    if family == "dense":
        rng = np.random.default_rng(d)
        basis = apply_equivalence(basis, random_unitary(rng, d), random_unitary(rng, d))
    elems = basis.elements.copy()
    if damage == "perturbed":
        elems[1] += 1e-6 * random_complex(np.random.default_rng(d), d, d)
    elif damage == "nan":
        elems[d, 1, 0] = np.nan
    basis = UnitaryBasis(d, elems)
    a = elems.reshape(d * d, -1)
    columns = np.ascontiguousarray(a.T)
    expected = CheckResult.worst(
        _identity_gap(columns.conj() @ columns.T, d).reshape(d, d, d, d)
        .transpose(0, 2, 1, 3).max(axis=(-2, -1)),
        1e-10, "matrix unit E[{},{}]".format)
    result = verify_depolarizer(basis)
    assert result.passed == expected.passed == (damage is None)
    if damage is not None:  # on a basis the witness names the largest rounding error
        assert result.witness == expected.witness
    assert result.deviation == pytest.approx(expected.deviation, rel=0, abs=1e-12, nan_ok=True)


def _designs(rng, d):
    """A seeded random Latin square of order d and d Hadamards with periodic phases, two cells
    taking turns over the column shifts."""
    p = int(rng.choice([p for p in range(1, d + 1) if d % p == 0]))
    square = latin_equivalence_apply(latin_from_cyclic(d), *(rng.permutation(d) for _ in range(3)))
    cells = [np.exp(2j * np.pi * rng.random((p, d // p))) for _ in range(2)]
    return square, [periodic_phase_hadamard(p, d // p, np.tile(cells[j % 2], (d // p, p)))
                    for j in range(d)]


def _held_and_eager(rng, d, family):
    """The basis its constructor builds, and its elements as the dense constructions build them."""
    if family == "weyl":
        return weyl_basis(d), oracles.raw_shift_multiply(
            latin_from_cyclic(d).grid, [fourier_hadamard(d).matrix] * d)
    if family == "shift-multiply":
        square, hadamards = _designs(rng, d)
        return shift_multiply_basis(square, hadamards), oracles.raw_shift_multiply(
            square.grid, [h.matrix for h in hadamards])
    d1 = int(rng.choice([f for f in range(2, d) if d % f == 0]))
    (b1, e1), (b2, e2) = (_held_and_eager(rng, f, rng.choice(["weyl", "shift-multiply"]))
                          for f in (d1, d // d1))
    return tensor_bases(b1, b2), oracles.kron_stack(e1, e2)


def _conversions(basis):
    """Every value the conversions build from ``basis``, before any of their arrays is read."""
    entangled = basis_to_entangled(basis)
    scheme = build_scheme(basis)
    return [basis, entangled, entangled_to_basis(entangled), scheme, swap_roles(scheme),
            extract_basis_from_scheme(scheme)]


@settings(max_examples=15, deadline=None)
@given(d=st.integers(10, 32), family=st.sampled_from(["weyl", "shift-multiply", "product"]),
       seed=st.integers(0, 2**32 - 1))
def test_a_basis_held_as_its_reading_reads_as_the_eager_build(d, family, seed):
    # from 100 elements on a Latin family is built as its reading alone, and so is every value
    # converted from it; each array read from them is the eager build's byte for byte, and so
    # is each document's text
    assume(family != "product" or any(d % f == 0 for f in range(2, d)))
    held, eager = _held_and_eager(np.random.default_rng(seed), d, family)
    assert "elements" not in vars(held) and vars(held)["_stack"].reading
    held_values, eager_values = _conversions(held), _conversions(UnitaryBasis(d, eager))
    for held_value, eager_value in zip(held_values, eager_values):
        for field in fields(held_value):
            got, expected = getattr(held_value, field.name), getattr(eager_value, field.name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes() and not got.flags.writeable
        assert verify(held_value) == verify(eager_value)
    assert held.elements.tobytes() == eager.tobytes()
    for i in 0, 1, 3:  # the basis, its entangled basis and its scheme
        assert dumps(make_document(held_values[i])) == dumps(make_document(eager_values[i]))
