import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from dataclasses import fields, replace

from conftest import PAULIS, random_complex, random_density, random_twist, random_unitary
from oracles import matrix_units, resource_density, teleportation, teleportation_outcomes
from test_oracles import SCHEME_CASES, make_scheme
from test_verify import twisted_channel
from tightport import (
    UnitaryBasis,
    DENSE_CODING,
    DimensionMismatch,
    TELEPORTATION,
    MaxEntangledBasis,
    NotDensityOperator,
    NotMaximallyEntangled,
    NotUnitaryExtraction,
    SchemeInvalid,
    TightScheme,
    apply_equivalence,
    basis_to_entangled,
    build_scheme,
    check_projector_completeness,
    entangled_to_basis,
    extract_basis_from_scheme,
    fourier_hadamard,
    hadamard_d4_family,
    latin_equivalence_apply,
    latin_from_cyclic,
    omega_vector,
    periodic_phase_hadamard,
    shift_multiply_basis,
    swap_roles,
    tensor_bases,
    teleport_state,
    trace_inner,
    verify,
    verify_dense_coding,
    verify_depolarizer,
    verify_entangled_basis,
    verify_orthonormal,
    verify_teleportation,
    vector_to_operator,
    weyl_basis,
)
from tightport import schemes, tensor

BELL = (
    np.array([1, 0, 0, 1]) / np.sqrt(2),
    np.array([0, 1, 1, 0]) / np.sqrt(2),
    np.array([1, 0, 0, -1]) / np.sqrt(2),
    np.array([0, 1, -1, 0]) / np.sqrt(2),
)

# Regression floors for schemes built on a two-level resource with Schmidt
# coefficients (sqrt(p), sqrt(1-p)); the sweep behind them measured
# teleportation deviations of 8x these values and dense-coding of 4x.
def rigidity_floor(p):
    return (1 - 2 * np.sqrt(p * (1 - p))) / 4 * 0.5


def schmidt_pair_resource(p):
    omega = np.zeros(4, dtype=complex)
    omega[0] = np.sqrt(p)
    omega[3] = np.sqrt(1 - p)
    return omega


class TestBasisToEntangled:
    def test_degenerate_dimension(self):
        entangled = basis_to_entangled(weyl_basis(1))
        np.testing.assert_allclose(entangled.vectors[0], omega_vector(1), atol=0)

    def test_weyl_d2_gives_bell_vectors(self):
        entangled = basis_to_entangled(weyl_basis(2))
        matched = set()
        for vec in entangled.vectors:
            overlaps = [abs(np.vdot(bell, vec)) for bell in BELL]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-12)
            matched.add(int(np.argmax(overlaps)))
        assert matched == {0, 1, 2, 3}

    def test_weyl_d3_satisfies_both_invariants(self):
        entangled = basis_to_entangled(weyl_basis(3))
        result = verify_entangled_basis(entangled, tol=1e-12)
        assert result.passed

    def test_rejects_non_entangled_reference(self):
        ref = np.zeros(4, dtype=complex)
        ref[0] = 1.0
        with pytest.raises(NotMaximallyEntangled):
            basis_to_entangled(weyl_basis(2), ref)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_the_default_reference_is_not_checked_against_the_callers_tol(self, d):
        # omega_vector(d)'s squared norm is 1 only to rounding at d = 2, 3, 5-9, 11 and 12;
        # with no reference given there is nothing of the caller's to check, so tol = 0 passes
        entangled = basis_to_entangled(weyl_basis(d), tol=0)
        # the extracted operators are checked, and their own rounding fails tol = 0 at most d
        try:
            entangled_to_basis(entangled, tol=0)
        except NotUnitaryExtraction as error:
            assert d not in (1, 2, 4) and "away from unitarity" in str(error)


class TestEntangledToBasis:
    def test_round_trip_weyl_d3(self):
        basis = weyl_basis(3)
        back = entangled_to_basis(basis_to_entangled(basis))
        np.testing.assert_allclose(back.elements, basis.elements, atol=1e-12)

    def test_round_trip_with_non_canonical_reference(self):
        rng = np.random.default_rng(30)
        d = 3
        w = random_unitary(rng, d)
        ref = np.kron(w, np.eye(d)) @ omega_vector(d)
        basis = weyl_basis(d)
        back = entangled_to_basis(basis_to_entangled(basis, ref), ref)
        np.testing.assert_allclose(back.elements, basis.elements, atol=1e-11)

    def test_bell_vectors_give_pauli_family(self):
        entangled = MaxEntangledBasis(2, np.asarray(BELL))
        basis = entangled_to_basis(entangled)
        for u in basis.elements:
            overlaps = [abs(trace_inner(u, p)) for p in PAULIS]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-12)

    def test_product_vector_rejected(self):
        vectors = np.eye(4, dtype=complex)  # e0 x e0 etc., all product vectors
        with pytest.raises(NotUnitaryExtraction):
            entangled_to_basis(MaxEntangledBasis(2, vectors))


class TestBuildScheme:
    def test_weyl_d2_components(self):
        scheme = build_scheme(weyl_basis(2))
        np.testing.assert_allclose(scheme.omega, omega_vector(2), atol=0)
        assert scheme.mode == TELEPORTATION
        # effects resolve the identity on the doubled space
        vecs = scheme.effects.vectors
        total = vecs.T @ vecs.conj()
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_effects_complete_at_d3(self):
        scheme = build_scheme(weyl_basis(3))
        vecs = scheme.effects.vectors
        total = vecs.T @ vecs.conj()
        np.testing.assert_allclose(total, np.eye(9), atol=1e-11)

    def test_mode_flag_shares_components(self):
        tele = build_scheme(weyl_basis(2), TELEPORTATION)
        dense = build_scheme(weyl_basis(2), DENSE_CODING)
        np.testing.assert_allclose(tele.omega, dense.omega, atol=0)
        np.testing.assert_allclose(
            tele.channel_unitaries, dense.channel_unitaries, atol=0
        )
        assert tele.mode != dense.mode

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            build_scheme(weyl_basis(2), "broadcast")

    @pytest.mark.parametrize("effects", [np.zeros((4, 4)), None, build_scheme(weyl_basis(2))])
    def test_rejects_effects_that_are_no_entangled_basis(self, effects):
        with pytest.raises(TypeError) as info:
            TightScheme(2, omega_vector(2), weyl_basis(2).elements, effects, TELEPORTATION)
        assert str(info.value) == (
            f"effects must be a MaxEntangledBasis, got {type(effects).__name__}")


def kron_teleportation_oracle(scheme, rho, a):
    """Literal sum of tr((rho x omega)(F_x x U* A U)) over all outcomes."""
    d = scheme.d
    resource = resource_density(scheme)
    big_state = np.kron(rho, resource)
    total = 0.0 + 0.0j
    for x in range(d * d):
        phi = scheme.effects.vectors[x]
        u = scheme.channel_unitaries[x]
        effect = np.outer(phi, phi.conj())
        moved = u.conj().T @ a @ u
        total += np.trace(big_state @ np.kron(effect, moved))
    return total


def assert_choi_bounds(eps, delta, d):
    """The bounds of verify_teleportation between the Choi gap and the per-outcome gap."""
    slack = 1e-13  # rounding in either gap
    assert eps <= (1 + 2 * d) * delta + d * (d + 1) * delta**2 + slack
    assert delta <= max(eps, np.sqrt(d * (d + 1) * eps)) + slack


def choi_gap(scheme):
    """Max entry of sum_x vec(T_x) vec(T_x)* - vec(I) vec(I)^T, one product on the T_x stack."""
    d = scheme.d
    n = d * d
    effects = scheme.effects.vectors.reshape(n, d, d)
    kraus = scheme.omega.reshape(d, d).T @ np.swapaxes(effects, 1, 2).conj()
    t = (scheme.channel_unitaries @ kraus).reshape(n, n)
    unit = np.eye(d).reshape(-1)
    return np.abs(t.T @ t.conj() - np.outer(unit, unit)).max()


def _tilted_resource(scheme, rng, size):
    omega = scheme.omega + size * random_complex(rng, scheme.d**2, 1)[:, 0]
    return replace(scheme, omega=omega / np.linalg.norm(omega))


def _perturbed_channel(scheme, rng, size):
    channels = scheme.channel_unitaries.copy()
    channels[1] += size * random_complex(rng, scheme.d, scheme.d)
    return replace(scheme, channel_unitaries=channels)


@pytest.mark.parametrize("damage", [_tilted_resource, _perturbed_channel])
@pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
def test_per_outcome_gap_and_choi_gap_bound_each_other(damage, d):
    rng = np.random.default_rng(d)
    for size in (1e-2, 1e-5, 1e-8):
        scheme = damage(build_scheme(weyl_basis(d)), rng, size)
        delta, eps = verify_teleportation(scheme).deviation, choi_gap(scheme)
        if d <= 8:  # the literal oracles, too slow beyond
            np.testing.assert_allclose(eps, teleportation(scheme).max(), rtol=0, atol=1e-14)
            np.testing.assert_allclose(delta, teleportation_outcomes(scheme).max(), rtol=0, atol=1e-14)
        assert_choi_bounds(eps, delta, d)


def test_choi_bound_needs_its_linear_weight_term():
    # U_x = I and W = I/sqrt(d) make T_x = Phi_x* / sqrt(d): here T_x = c I + delta
    # diag(1, -1) with |c|^2 = (1 + delta) / d^2, where eps exceeds (1 + 2d) delta + d^2 delta^2
    d, delta = 2, 0.1
    t = np.sqrt(1 + delta) / d * np.eye(d) + delta * np.diag([1, -1])
    effects = MaxEntangledBasis(d, np.tile(np.sqrt(d) * t.conj().T.reshape(-1), (d * d, 1)))
    scheme = TightScheme(d, omega_vector(d), np.stack([np.eye(d)] * d * d), effects, TELEPORTATION)
    verdict = verify_teleportation(scheme)
    assert verdict.deviation == pytest.approx(delta)
    eps = choi_gap(scheme)
    assert eps > (1 + 2 * d) * delta + d**2 * delta**2
    assert_choi_bounds(eps, delta, d)


def outcome_gaps(scheme, r):
    """Per outcome x, the max entry of |T_x - c_x I| for T_x = U_x R phi_x*, formed literally."""
    d = scheme.d
    t = scheme.channel_unitaries @ r @ np.swapaxes(scheme.effects.vectors.reshape(-1, d, d), 1, 2).conj()
    c = np.trace(t, axis1=1, axis2=2) / d
    return np.abs(t - c[:, None, None] * np.eye(d)).max(axis=(1, 2))


def _rotated_effects(scheme, rng, size):
    vectors = scheme.effects.vectors @ random_twist(rng, scheme.d**2, size).T
    return replace(scheme, effects=MaxEntangledBasis(scheme.d, vectors))


@pytest.mark.parametrize("damage,d", [(twisted_channel, d) for d in (2, 3, 5, 8, 16, 32)]
                         + [(_rotated_effects, d) for d in (2, 3, 5, 8, 16)])
def test_outcome_gap_and_dense_table_gap_bound_each_other(damage, d):
    # Channels stay unitary and effects complete, so |T_x - c_x I|_F^2 = eps_x / d for
    # the table's diagonal gap eps_x: the worst outcome gap delta and eps = max_x eps_x
    # obey delta^2 <= eps / d <= d^2 delta^2.  Undamaged, eps reads up to 10 rounding
    # units at every d here, so it is allowed 16 + d^2 of them.
    rng = np.random.default_rng(d)
    slack = (16 + d * d) * np.finfo(float).eps
    for size in (1e-2, 1e-5, 1e-8):
        scheme = damage(build_scheme(weyl_basis(d), DENSE_CODING), rng, size)
        eps = np.abs(1 - np.diagonal(verify_dense_coding(scheme).table)).max()
        gaps = outcome_gaps(scheme, scheme.omega.reshape(d, d))
        delta = gaps.max()
        assert delta**2 <= (eps + slack) / d, size
        assert eps - slack <= d**3 * delta**2, size
        verdict = verify(scheme)
        assert verdict.deviation == pytest.approx(delta, rel=1e-6, abs=1e-13), size
        if not verdict.passed:
            x = int(verdict.witness.removeprefix("outcome ").split(":")[0])
            assert gaps[x] == pytest.approx(delta, rel=1e-6, abs=1e-13), size


def test_extraction_refuses_a_dense_scheme_with_rotated_effects():
    # A 1e-6 rotation keeps the effects complete and moves the dense table by about
    # 1e-12, which passes it; the verdict's outcome gap is linear in the rotation, so
    # extraction refuses the scheme instead of reading operators off unitarity.
    scheme = build_scheme(weyl_basis(3), DENSE_CODING)
    rotated = _rotated_effects(scheme, np.random.default_rng(1), 1e-6)
    assert verify_dense_coding(rotated).passed
    with pytest.raises(SchemeInvalid, match=r"outcome \d+: T_x is not a multiple of I"):
        extract_basis_from_scheme(rotated)


class TestVerifyTeleportation:
    def test_weyl_d2_passes(self):
        verdict = verify_teleportation(build_scheme(weyl_basis(2)))
        assert verdict.passed and verdict.deviation < 1e-12

    def test_agrees_with_kron_oracle(self):
        rng = np.random.default_rng(31)
        scheme = build_scheme(weyl_basis(2))
        for _ in range(5):
            rho = random_complex(rng, 2, 2)
            a = random_complex(rng, 2, 2)
            lhs = kron_teleportation_oracle(scheme, rho, a)
            assert abs(lhs - np.trace(rho @ a)) < 1e-12

    def test_deviation_matches_kron_oracle_on_broken_scheme(self):
        # far from the target too, the verdict is the literal per-outcome gap,
        # tied to the literal sum over matrix units (the Choi gap) by its bounds
        scheme = build_scheme(weyl_basis(2))
        broken = replace(scheme, omega=schmidt_pair_resource(0.8))
        units = matrix_units(2)
        worst = 0.0
        for a_idx in range(4):
            for b_idx in range(4):
                lhs = kron_teleportation_oracle(broken, units[a_idx], units[b_idx])
                target = np.trace(units[a_idx] @ units[b_idx])
                worst = max(worst, abs(lhs - target))
        verdict = verify_teleportation(broken)
        assert verdict.deviation == pytest.approx(teleportation_outcomes(broken).max(), abs=1e-13)
        assert_choi_bounds(worst, verdict.deviation, 2)

    def test_product_resource_fails_badly(self):
        scheme = build_scheme(weyl_basis(2))
        product = np.zeros(4, dtype=complex)
        product[0] = 1.0
        verdict = verify_teleportation(replace(scheme, omega=product))
        assert not verdict.passed
        assert verdict.deviation >= 0.1

    def test_phase_on_channel_is_harmless(self):
        scheme = build_scheme(weyl_basis(2))
        unitaries = scheme.channel_unitaries.copy()
        unitaries[2] *= np.exp(0.4j)
        verdict = verify_teleportation(replace(scheme, channel_unitaries=unitaries))
        assert verdict.passed

    def test_mode_gate(self):
        # only tp.verify reads the mode; the identity itself ignores it.  With
        # W^T != +-W the dense-coding reading passes and the teleportation one fails.
        d = 3
        omega = random_unitary(np.random.default_rng(5), d).reshape(-1) / np.sqrt(d)
        basis = weyl_basis(d)
        effects = basis_to_entangled(basis, omega)
        scheme = TightScheme(d, omega, basis.elements, effects, DENSE_CODING)
        assert not verify_teleportation(scheme).passed
        assert verify(scheme).passed and not verify(swap_roles(scheme)).passed
        # either way the verdict's table is the effects' Gram matrix
        gram = check_projector_completeness(effects.vectors).table
        for reading in (scheme, swap_roles(scheme)):
            np.testing.assert_array_equal(verify(reading).table, gram)


class TestVerifyDenseCoding:
    def test_weyl_d3_outcome_matrix_is_identity(self):
        verdict = verify_dense_coding(build_scheme(weyl_basis(3), DENSE_CODING))
        assert verdict.passed
        np.testing.assert_allclose(verdict.table, np.eye(9), atol=1e-11)

    def test_partially_entangled_resource_leaks(self):
        scheme = build_scheme(weyl_basis(2), DENSE_CODING)
        verdict = verify_dense_coding(replace(scheme, omega=schmidt_pair_resource(0.9)))
        assert not verdict.passed
        off_diagonal = verdict.table - np.diag(np.diag(verdict.table))
        assert np.abs(off_diagonal).max() > 1e-2

    def test_rows_are_distributions_even_for_invalid_resource(self):
        scheme = build_scheme(weyl_basis(2), DENSE_CODING)
        verdict = verify_dense_coding(replace(scheme, omega=schmidt_pair_resource(0.75)))
        table = verdict.table
        assert table.min() >= -1e-11
        np.testing.assert_allclose(table.sum(axis=1), np.ones(4), atol=1e-11)


class TestSwapRoles:
    def test_teleportation_scheme_works_as_dense_coding(self):
        scheme = build_scheme(weyl_basis(2))
        assert verify_teleportation(scheme).passed
        assert verify_dense_coding(swap_roles(scheme)).passed

    def test_double_swap_is_identity(self):
        scheme = build_scheme(weyl_basis(2))
        back = swap_roles(swap_roles(scheme))
        assert back.mode == scheme.mode
        np.testing.assert_allclose(back.omega, scheme.omega, atol=0)

    def test_failing_scheme_fails_both_ways(self):
        scheme = build_scheme(weyl_basis(2))
        broken = replace(scheme, omega=schmidt_pair_resource(0.75))
        assert not verify_teleportation(broken).passed
        assert not verify_dense_coding(swap_roles(broken)).passed

    @pytest.mark.parametrize("resource", ["random", "symmetric", "antisymmetric"])
    def test_swap_holds_for_symmetric_or_antisymmetric_resources(self, resource):
        # W = R / sqrt(d) with channels U_x R conj(R) teleports for every unitary R;
        # read as dense coding it holds when W^T = +-W and fails for a random R
        d = 2 if resource == "antisymmetric" else 3
        r = random_unitary(np.random.default_rng(5), d)
        if resource == "symmetric":
            r = r @ r.T
        elif resource == "antisymmetric":
            r = np.array([[0, 1], [-1, 0]], dtype=complex)
        omega = r.reshape(-1) / np.sqrt(d)
        basis = weyl_basis(d)
        effects = basis_to_entangled(basis, omega)
        scheme = TightScheme(d, omega, basis.elements @ r @ r.conj(), effects, TELEPORTATION)
        assert verify(scheme).passed
        assert verify(swap_roles(scheme)).passed == (resource != "random")


class TestRigidity:
    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    def test_partially_entangled_resources_fail_with_margin(self, p):
        scheme = build_scheme(weyl_basis(2))
        broken = replace(scheme, omega=schmidt_pair_resource(p))
        floor = rigidity_floor(p)
        tele = verify_teleportation(broken)
        dense = verify_dense_coding(broken)
        assert not tele.passed and tele.deviation >= floor
        assert not dense.passed and dense.deviation >= floor

    def test_mixed_resource_fails_both_verifiers(self):
        # as does a vector off unit norm, which both identities would scale
        scheme = build_scheme(weyl_basis(2))
        pure = np.outer(scheme.omega, scheme.omega.conj())
        mixed = 0.5 * pure + 0.5 * np.diag([1.0, 0, 0, 0]).astype(complex)
        for omega in (mixed, 1.01 * scheme.omega):
            broken = replace(scheme, omega=omega)
            for check in (verify_teleportation, verify_dense_coding):
                result = check(broken)
                assert not result.passed
                assert result.witness == "resource is not a unit vector or a pure state"


def _unit_purity_impostors(d):
    """Matrices with <Omega, Omega> = 1 that are not psi psi*, each with omega in its range."""
    omega = omega_vector(d)
    b = np.zeros(d * d, dtype=complex)
    b[1] = 1.0  # orthogonal to omega, which vanishes off the (k, k) entries
    # a Hermitian matrix with spectrum (2/3, 2/3, -1/3) and omega a 2/3 eigenvector
    u = np.linalg.qr(np.column_stack([omega, b, np.roll(b, 1)]))[0]
    hermitian = (u * [2 / 3, 2 / 3, -1 / 3]) @ u.conj().T
    return {"non-Hermitian |omega><b|": np.outer(omega, b.conj()), "indefinite": hermitian}


class TestMatrixResource:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name", ["non-Hermitian |omega><b|", "indefinite"])
    def test_unit_purity_is_not_enough(self, d, name):
        omega = _unit_purity_impostors(d)[name]
        assert abs(np.vdot(omega, omega) - 1) < 1e-14
        broken = replace(build_scheme(weyl_basis(d)), omega=omega)
        for check in (verify, verify_teleportation, verify_dense_coding):
            result = check(broken)
            assert not result.passed
            assert result.witness == "resource is not a unit vector or a pure state"
            assert result.deviation > 0.1
        with pytest.raises(SchemeInvalid, match="resource is not a unit vector or a pure state"):
            teleport_state(broken, np.eye(d) / d)

    def test_full_rank_resource_fails_without_eigh(self, monkeypatch):
        rng = np.random.default_rng(16)
        broken = replace(build_scheme(weyl_basis(16)), omega=random_density(rng, 256))

        def no_eigh(*args, **kwargs):
            raise AssertionError("the resource was decomposed")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for check in (verify_teleportation, verify_dense_coding):
            result = check(broken)
            assert not result.passed
            assert result.witness == "resource is not a unit vector or a pure state"
        with pytest.raises(SchemeInvalid, match="resource is not a unit vector or a pure state"):
            teleport_state(broken, np.eye(16) / 16)


class TestTeleportState:
    def test_maximally_mixed_input(self):
        scheme = build_scheme(weyl_basis(3))
        rho = np.eye(3, dtype=complex) / 3
        output, probs = teleport_state(scheme, rho)
        np.testing.assert_allclose(output, rho, atol=1e-12)
        np.testing.assert_allclose(probs, np.full(9, 1 / 9), atol=1e-12)

    def test_basis_state_through_bell_scheme(self):
        scheme = build_scheme(weyl_basis(2))
        rho = np.diag([1.0, 0.0]).astype(complex)
        output, probs = teleport_state(scheme, rho)
        np.testing.assert_allclose(output, rho, atol=1e-12)
        np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_states_round_trip(self, d):
        rng = np.random.default_rng(32)
        scheme = build_scheme(weyl_basis(d))
        for _ in range(10):
            rho = random_density(rng, d)
            output, probs = teleport_state(scheme, rho)
            assert np.abs(output - rho).max() < 1e-10
            assert np.abs(probs - 1 / d**2).max() < 1e-10

    def test_rejects_non_density_inputs(self):
        scheme = build_scheme(weyl_basis(2))
        with pytest.raises(NotDensityOperator):
            teleport_state(scheme, np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(NotDensityOperator):
            teleport_state(scheme, np.eye(2, dtype=complex))  # trace 2
        with pytest.raises(NotDensityOperator):
            teleport_state(scheme, np.diag([1.5, -0.5]).astype(complex))  # negative

    def test_zero_probability_outcome_is_skipped(self):
        scheme = build_scheme(weyl_basis(2))
        vectors = scheme.effects.vectors.copy()
        vectors[0] = 0.0
        crippled = replace(scheme, effects=MaxEntangledBasis(2, vectors))
        rho = np.eye(2, dtype=complex) / 2
        output, probs = teleport_state(crippled, rho)
        assert probs[0] == 0.0
        assert np.isfinite(output).all()
        # the dropped outcome's quarter of the weight is simply missing
        assert np.trace(output).real == pytest.approx(0.75)

    def test_rejects_nan_state(self):
        scheme = build_scheme(weyl_basis(2))
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 0] = np.nan
        with pytest.raises(NotDensityOperator):
            teleport_state(scheme, rho)

    def test_nan_outcome_spoils_output(self):
        scheme = build_scheme(weyl_basis(2))
        vectors = scheme.effects.vectors.copy()
        vectors[1, 0] = np.nan
        crippled = replace(scheme, effects=MaxEntangledBasis(2, vectors))
        output, probs = teleport_state(crippled, np.eye(2, dtype=complex) / 2)
        assert np.isnan(probs[1]) and np.isnan(output).any()

    def test_memory_stays_within_kraus_stack(self):
        # The d^3 x d^3 joint state of the literal protocol took 12 MiB at d=8;
        # a d^2 x d^2 resource density beside the stacks took 7 matrices at d=12.
        for d, limit in ((8, 2**20), (12, 6 * 144**2 * 16)):
            scheme = build_scheme(weyl_basis(d))
            rho = random_density(np.random.default_rng(33), d)
            tracemalloc.start()
            try:
                teleport_state(scheme, rho)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, d


# Peak traced allocation of a check at d = 12, in d^2 x d^2 complex matrices.  Each
# gap is read from its product buffer; an identity or a difference copy beside
# the product would raise the peak by at least half a matrix.  The limits hold on a
# dense family, Weyl moved by two seeded unitaries, whose Gram matrix is the full product.
PRODUCT_BUFFER_PEAKS = {
    # the Gram matrix formed in real arithmetic peaks at 1.70 matrices here, zgemm at 2.0
    "check_projector_completeness": (lambda b, s: check_projector_completeness(s.effects.vectors),
                                     1.75),
    "verify_entangled_basis": (lambda b, s: verify_entangled_basis(s.effects), 2.5),
    "verify_teleportation": (lambda b, s: verify_teleportation(s), 2.5),
    "verify_dense_coding": (lambda b, s: verify_dense_coding(s), 2.5),
    # a scheme's verdict forms one d^2 x d^2 product, the effects' Gram matrix
    "verify of a teleportation scheme": (lambda b, s: verify(s), 2.5),
    "verify of a dense_coding scheme": (lambda b, s: verify(s), 2.5),
    "extract_basis_from_scheme": (lambda b, s: extract_basis_from_scheme(s), 3.5),
    # the elements' S* S products beside the Gram matrix: 2.00
    "verify_orthonormal": (lambda b, s: verify_orthonormal(b), 2.05),
    # A's columns are a transposed view, which the full product copies to C order: 2.50
    "verify_depolarizer": (lambda b, s: verify_depolarizer(b), 2.55),
}
# On Weyl the Gram matrix is d blocks, and a verdict takes the blocks' gaps and scatters
# them into a table only when it is read: 0.26 matrices for completeness and 0.39 for a
# basis, with its reading; scattered at once they took 1.23, their gap 1.51, the full
# product 2.0.  The depolarizer returns no table, so it holds the blocks alone, 0.27.  Weyl's elements, channels and effects are each a permutation
# times phases, so unitarity forms no S* S product; with the canonical resource T_x is its
# d nonzeros, 0.70 matrices in all, where a gather of R's rows took 1.81.  Extraction holds the operators it builds, 1.27, where a copy took 2.01.
LATIN_BUFFER_PEAKS = {"check_projector_completeness": 1.3, "verify_depolarizer": 0.3,
                      "verify_orthonormal": 1.3, "verify_entangled_basis": 1.3,
                      "verify of a teleportation scheme": 1.3,
                      "verify of a dense_coding scheme": 1.3, "verify_teleportation": 0.8,
                      "extract_basis_from_scheme": 1.3}


def _product_buffer_cases():
    for name in sorted(PRODUCT_BUFFER_PEAKS):
        yield pytest.param(name, "Weyl", id=name)
        yield pytest.param(name, "dense", id=f"{name}, dense family")


@pytest.mark.parametrize("name, family", _product_buffer_cases())
def test_identity_gap_reads_the_product_buffer(name, family):
    check, limit = PRODUCT_BUFFER_PEAKS[name]
    basis = weyl_basis(12)
    if family == "dense":
        rng = np.random.default_rng(12)
        basis = apply_equivalence(basis, random_unitary(rng, 12), random_unitary(rng, 12))
    else:
        limit = LATIN_BUFFER_PEAKS.get(name, limit)
    scheme = build_scheme(basis, DENSE_CODING if "dense_coding" in name else TELEPORTATION)
    tracemalloc.start()
    try:
        assert check(basis, scheme)  # a verdict that passed, or the extracted basis
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 144**2 * 16


# A Latin family with one odd element keeps its blocks: on Weyl with element 5 perturbed by 1e-3
# in a seeded direction, each Gram verdict takes the d blocks and the odd element's row, where the
# full product takes 1.70 matrices for completeness and 2.00 for the others.  Measured with the
# blocks: 0.44 for completeness and an entangled basis, whose unitarity takes the reading of the
# vectors in C order and so copies only the odd matrix of their transposed view (a reading of the
# whole view took 1.18), 0.28 for a basis and 0.57 for a scheme's verify, which find the basis's
# reading made and kept by build_scheme (0.44 and 0.70 with it made inside the verdict).
ODD_ELEMENT_PEAKS = {"check_projector_completeness": 0.5, "verify_orthonormal": 0.5,
                     "verify_entangled_basis": 0.5, "verify of a teleportation scheme": 0.75,
                     "verify of a dense_coding scheme": 0.75}


@pytest.mark.parametrize("name", sorted(ODD_ELEMENT_PEAKS))
def test_one_odd_element_keeps_the_blocks_peak(name):
    rng = np.random.default_rng(5)
    elements = weyl_basis(12).elements.copy()
    direction = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    elements[5] += 1e-3 * direction / np.linalg.norm(direction)
    basis = UnitaryBasis(12, elements)
    scheme = build_scheme(basis, DENSE_CODING if "dense_coding" in name else TELEPORTATION)
    tracemalloc.start()
    try:
        verdict = PRODUCT_BUFFER_PEAKS[name][0](basis, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict
    assert peak <= ODD_ELEMENT_PEAKS[name] * 144**2 * 16


def test_values_built_from_one_another_share_their_arrays():
    basis = weyl_basis(4)
    scheme = build_scheme(basis)
    swapped = swap_roles(scheme)
    extracted = entangled_to_basis(scheme.effects)
    for value, shared in ((scheme.channel_unitaries, basis.elements),
                          (swapped.channel_unitaries, scheme.channel_unitaries),
                          (swapped.omega, scheme.omega)):
        assert np.shares_memory(value, shared) and not value.flags.writeable
    # arrays the library built are taken over, and frozen
    for array in (scheme.effects.vectors, extracted.elements, scheme.omega):
        assert array.flags.c_contiguous and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("copier", [lambda value: pickle.loads(pickle.dumps(value)),
                                    copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_a_copied_value_holds_read_only_arrays_of_its_own_and_no_reading(copier):
    # designs too: a copy is rebuilt, and validated, by its constructor
    basis = weyl_basis(10)
    scheme = build_scheme(basis)
    assert verify(scheme) and verify_orthonormal(basis)  # readings made, where a value keeps them
    # and readings with odd matrices: element 5 moved by 1e-3, read-only, odd indices included
    elements = basis.elements.copy()
    elements[5] += 1e-3
    damaged = UnitaryBasis(10, elements)
    broken = build_scheme(damaged)
    assert not verify(broken) and not verify_orthonormal(damaged)
    for value in (damaged, broken, broken.effects):
        reading = vars(value)["_stack"].reading
        assert len(reading) == 3 and not any(part.flags.writeable for part in reading)
        assert vars(replace(value))["_stack"].reading is False
    for value, names in ((basis, ["elements"]), (scheme.effects, ["vectors"]),
                         (scheme, ["omega", "channel_unitaries"]),
                         (damaged, ["elements"]), (broken.effects, ["vectors"]),
                         (broken, ["omega", "channel_unitaries"]),
                         (fourier_hadamard(4), ["matrix"]), (latin_from_cyclic(4), ["grid"])):
        copied = copier(value)
        assert type(copied) is type(value) and copied.d == value.d
        for name in names:
            array, source = getattr(copied, name), getattr(value, name)
            assert np.array_equal(array, source) and not np.shares_memory(array, source)
            assert array.flags.c_contiguous and not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 0
        stacked = isinstance(copied, (UnitaryBasis, MaxEntangledBasis, TightScheme))
        held = {f.name for f in fields(copied)} | ({"_stack"} if stacked else set())
        assert vars(copied).keys() == held
        if stacked:  # a stack of its own, with no reading and no facts
            stack = vars(copied)["_stack"]
            assert stack is not vars(value)["_stack"] and stack.reading is False and not stack.facts
    assert copier(scheme).mode == scheme.mode and verify(copier(scheme))


@pytest.mark.parametrize("held", [True, False], ids=["held as its reading", "built from an array"])
def test_the_batterys_sequence_reads_the_basis_once_and_a_replaced_stack_again(monkeypatch, held):
    # each value keeps the reading of its stack, and the conversions carry the reading they were
    # built from, so along the whole sequence one stack is read: the basis's elements, and none
    # when the basis is built as its reading.  Single d x d matrices (the reference, the
    # resource) are not stacks, and are not counted
    basis = weyl_basis(10) if held else UnitaryBasis(10, weyl_basis(10).elements)
    reads = []

    def counting(stack, *args):
        if len(stack) > 1:
            reads.append(stack)
        return monomial(stack, *args)

    monomial = tensor._monomial
    monkeypatch.setattr(tensor, "_monomial", counting)
    monkeypatch.setattr(schemes, "_monomial", counting)
    assert verify_orthonormal(basis)
    entangled = basis_to_entangled(basis)
    assert verify_entangled_basis(entangled)
    assert np.allclose(entangled_to_basis(entangled).elements, basis.elements)
    scheme = build_scheme(basis)
    assert verify_teleportation(scheme)
    for value in (scheme, swap_roles(scheme)):
        assert verify(value)
    assert verify_depolarizer(extract_basis_from_scheme(scheme))
    assert len(reads) == 1 - held and all(np.shares_memory(r, basis.elements) for r in reads)

    channels = scheme.channel_unitaries.copy()
    channels[5, 0] *= 1 + 1e-6
    twisted = replace(scheme, channel_unitaries=channels)
    verdicts = [verify(twisted), verify(swap_roles(twisted))]
    assert len(reads) == 2 - held and np.shares_memory(reads[-1], twisted.channel_unitaries)
    for verdict in verdicts:
        assert not verdict and verdict.witness == "channel 5 is not unitary"


@pytest.mark.parametrize("d", [10, 16])
def test_no_verdict_forms_the_stack_of_a_value_held_as_its_reading(d):
    # each verdict and conversion takes the reading; only a caller's read forms a dense stack
    basis = weyl_basis(d)
    scheme = build_scheme(basis)
    swapped, entangled = swap_roles(scheme), basis_to_entangled(basis)
    for verdict in (verify_orthonormal(basis), verify_depolarizer(basis), verify(entangled),
                    verify_teleportation(scheme), verify_dense_coding(swapped), verify(scheme),
                    verify(swapped)):
        assert verdict
    extracted = [extract_basis_from_scheme(scheme), entangled_to_basis(entangled)]
    for value, name in ((basis, "elements"), (scheme, "channel_unitaries"),
                        (scheme.effects, "vectors"), (entangled, "vectors"),
                        *((b, "elements") for b in extracted)):
        assert name not in vars(value) and vars(value)["_stack"].reading
    assert np.shares_memory(scheme.channel_unitaries, basis.elements)  # formed once for both


def _latin_families(d):
    """Weyl, shift-and-multiply with periodic-phase Hadamards and Weyl x Weyl, at d."""
    yield "weyl", weyl_basis(d)
    p = next((p for p in range(2, d) if d % p == 0), None)
    if p is not None:
        rng = np.random.default_rng(d)
        grids = [rng.permutation(d) for _ in range(3)]
        cells = [np.exp(2j * np.pi * rng.random((p, d // p))) for _ in range(2)]
        hadamards = [periodic_phase_hadamard(p, d // p, np.tile(cells[j % 2], (d // p, p)))
                     for j in range(d)]
        square = latin_equivalence_apply(latin_from_cyclic(d), *grids)
        yield "periodic phases", shift_multiply_basis(square, hadamards)
        yield "weyl x weyl", tensor_bases(weyl_basis(p), weyl_basis(d // p))


def _references(d):
    """The canonical reference (None), a signed and a phased permutation, and a dense one."""
    rng = np.random.default_rng(d)
    perm = rng.permutation(d)
    for phases in (rng.choice([-1.0, 1.0], d), np.exp(2j * np.pi * rng.random(d))):
        r = np.zeros((d, d), dtype=complex)
        r[np.arange(d), perm] = phases / np.sqrt(d)
        yield r.reshape(-1)
    yield (random_unitary(rng, d) / np.sqrt(d)).reshape(-1)


def assert_the_kept_reading_is_the_arrays(value, name):
    """A reading a value keeps is read-only and bit for bit ``_monomial`` of its stack."""
    kept = vars(value)["_stack"].reading
    if kept is not False:
        fresh = tensor._monomial(getattr(value, name).reshape(-1, value.d, value.d))
        assert (kept is None) == (fresh is None)
        for held, read in zip(kept or (), fresh or ()):
            assert held.dtype == read.dtype and held.tobytes() == read.tobytes()
            assert not held.flags.writeable
    return kept


def _products(basis, ref):
    """The (d^3 x d) @ (d x d) products the conversions form without a scatter."""
    d = basis.d
    r = (omega_vector(d) if ref is None else ref).reshape(d, d)
    vectors = (basis.elements @ r).reshape(d * d, -1)
    operator = np.sqrt(d) * vector_to_operator(r.reshape(-1), d).conj().T
    return vectors, (vectors.reshape(-1, d) @ operator).reshape(-1, d, d)


@pytest.mark.parametrize("d", [3, 4, 6, 8, 9, *range(10, 33)])
def test_the_scatters_are_the_products(d):
    # from 100 matrices on, a Latin family and a reference that is a permutation times real phases
    # scatter; the rest take the product, whose bytes below 100 rows are the ones checked here.
    # An extracted basis keeps the reading its unitarity check made of a product, if it has one
    for family, basis in _latin_families(d):
        assert verify_orthonormal(basis), family
        if d < 10:  # below the reading's gate nothing is read, so nothing is kept
            assert vars(basis)["_stack"].reading is False
        for ref in [None, *_references(d)]:
            vectors, operators = _products(basis, ref)
            scattered = d >= 10 and (ref is None or not ref.imag.any())
            monomial = d >= 10 and (ref is None or np.count_nonzero(ref) == d)
            entangled = basis_to_entangled(basis, ref)
            for convert, name, product, kept in (
                    (lambda: entangled, "vectors", vectors, scattered),
                    (lambda: entangled_to_basis(entangled, ref), "elements", operators, monomial)):
                value = convert()  # each checked before anything reads it
                held = getattr(value, name)
                assert np.array_equal(held, product), (family, name)
                if d < 10:
                    assert held.tobytes() == product.tobytes()
                assert bool(assert_the_kept_reading_is_the_arrays(value, name)) == kept
        scheme = build_scheme(basis)
        for value, name in ((scheme, "channel_unitaries"), (swap_roles(scheme), "channel_unitaries"),
                            (scheme.effects, "vectors"), (basis, "elements")):
            assert bool(assert_the_kept_reading_is_the_arrays(value, name)) == (d >= 10)
        extracted = extract_basis_from_scheme(scheme)
        assert np.array_equal(scheme.effects.vectors, _products(basis, None)[0])
        assert np.array_equal(extracted.elements, _products(basis, None)[1])
        assert bool(assert_the_kept_reading_is_the_arrays(extracted, "elements")) == (d >= 10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products overflow on 1e200
@pytest.mark.parametrize("d", [10, 16])
@pytest.mark.parametrize("phase, kept", [(1e-320, True), (5e-324, False), (1e150, True),
                                         (1e200, False), (np.nan, False)])
def test_a_near_miss_keeps_no_reading_and_the_products_verdict(d, phase, kept):
    # 1e-320 and 1e150 are read, and their scaled phases stay nonzero with a finite square;
    # 5e-324 / sqrt(d) underflows to 0, and the square of 1e200 and NaN are not finite, so the
    # basis (1e200, NaN) or its image (5e-324) holds no reading, and every verdict is the product's
    elements = weyl_basis(d).elements.copy()
    elements[5, 0, np.flatnonzero(elements[5, 0])[0]] = phase
    basis = UnitaryBasis(d, elements)
    entangled = basis_to_entangled(basis)
    vectors, _ = _products(basis, None)
    assert np.array_equal(entangled.vectors, vectors, equal_nan=True)
    assert bool(assert_the_kept_reading_is_the_arrays(entangled, "vectors")) == kept
    product = MaxEntangledBasis(d, vectors)  # built from a caller's array: read when verified
    scheme, by_product = build_scheme(basis), replace(build_scheme(basis), effects=product)
    for check in (verify_entangled_basis, check_projector_completeness):
        ours, theirs = (check(e if check is verify_entangled_basis else e.vectors)
                        for e in (entangled, product))
        assert (ours.passed, repr(ours.deviation), ours.witness) == (
            theirs.passed, repr(theirs.deviation), theirs.witness)
    for mode_scheme, theirs_scheme in ((scheme, by_product),
                                       (swap_roles(scheme), swap_roles(by_product))):
        ours, theirs = verify(mode_scheme), verify(theirs_scheme)
        assert not ours.passed
        assert (ours.passed, repr(ours.deviation), ours.witness) == (
            theirs.passed, repr(theirs.deviation), theirs.witness)


class TestNonFiniteResource:
    def test_nan_density_resource_fails_every_identity(self):
        scheme = build_scheme(weyl_basis(2))
        omega = np.outer(scheme.omega, scheme.omega.conj())
        omega[1, 2] = np.nan
        broken = replace(scheme, omega=omega)
        assert not verify_teleportation(broken).passed
        assert not verify_dense_coding(broken).passed
        with pytest.raises(SchemeInvalid, match="resource is not a unit vector or a pure state"):
            teleport_state(broken, np.eye(2, dtype=complex) / 2)

    def test_nan_vector_is_not_extracted(self):
        entangled = basis_to_entangled(weyl_basis(2))
        vectors = entangled.vectors.copy()
        vectors[2, 1] = np.nan
        with pytest.raises(NotUnitaryExtraction, match="vector 2"):
            entangled_to_basis(MaxEntangledBasis(2, vectors))


class TestExtractBasis:
    def test_round_trip_weyl_d4(self):
        basis = weyl_basis(4)
        scheme = build_scheme(basis)
        extracted = extract_basis_from_scheme(scheme)
        report = verify_orthonormal(extracted)
        assert report.passed and report.deviation < 1e-11
        for x in range(16):
            assert abs(
                abs(trace_inner(basis.elements[x], extracted.elements[x])) - 1.0
            ) < 1e-11

    def test_channels_agree_on_matrix_units(self):
        basis = weyl_basis(3)
        extracted = extract_basis_from_scheme(build_scheme(basis))
        for unit in matrix_units(3):
            for x in range(9):
                original = basis.elements[x].conj().T @ unit @ basis.elements[x]
                recovered = extracted.elements[x].conj().T @ unit @ extracted.elements[x]
                np.testing.assert_allclose(original, recovered, atol=1e-11)

    def test_perturbed_scheme_rejected(self):
        scheme = build_scheme(weyl_basis(2))
        broken = replace(scheme, omega=schmidt_pair_resource(0.75))
        with pytest.raises(SchemeInvalid):
            extract_basis_from_scheme(broken)

    def test_mixed_resource_rejected_before_verifying(self, monkeypatch):
        scheme = build_scheme(weyl_basis(4))
        pure = np.outer(scheme.omega, scheme.omega.conj())
        noisy = replace(scheme, omega=0.9 * pure + 0.1 * np.eye(16) / 16)

        def no_product(*args):
            raise AssertionError("a product was formed for an impure resource")

        for name in ("verify_teleportation", "verify_dense_coding", "_unitarity", "_gram"):
            monkeypatch.setattr(schemes, name, no_product)
        purity = np.vdot(noisy.omega, noisy.omega).real
        with pytest.raises(SchemeInvalid, match="resource is not a unit vector or a pure state"):
            extract_basis_from_scheme(noisy)
        assert verify(noisy).deviation == pytest.approx(1 - purity)

    def test_pure_density_resource_extracts(self):
        basis = weyl_basis(3)
        scheme = build_scheme(basis)
        density = replace(scheme, omega=np.outer(scheme.omega, scheme.omega.conj()))
        extracted = extract_basis_from_scheme(density)
        overlaps = np.abs(np.einsum("xij,xij->x", extracted.elements.conj(), basis.elements)) / 3
        np.testing.assert_allclose(overlaps, 1.0, atol=1e-12)


def assert_extracted_gram_is_effects_gram(effects, extracted):
    # rounding only: orthonormality then follows from completeness within tol
    gram = check_projector_completeness(effects.vectors).table
    orthonormal = verify_orthonormal(extracted)
    assert orthonormal.passed
    assert np.abs(orthonormal.table - gram).max() <= effects.d**2 * np.finfo(float).eps


GRAM_FAMILIES = {
    **{f"weyl d={d}": (lambda d=d: weyl_basis(d)) for d in (2, 3, 5, 8, 16)},
    "shift-multiply d=4": lambda: shift_multiply_basis(
        latin_from_cyclic(4), [hadamard_d4_family(np.exp(0.3j))] * 4
    ),
    "tensor 2 x 3": lambda: tensor_bases(weyl_basis(2), weyl_basis(3)),
    "tensor 2 x 8": lambda: tensor_bases(weyl_basis(2), weyl_basis(8)),
}


class TestExtractedGram:
    """Extraction checks no orthonormality: the verdict's completeness covers it."""

    @pytest.mark.parametrize("family", sorted(GRAM_FAMILIES))
    def test_families(self, family):
        scheme = build_scheme(GRAM_FAMILIES[family]())
        assert_extracted_gram_is_effects_gram(scheme.effects, extract_basis_from_scheme(scheme))

    @pytest.mark.parametrize("damage,basis_name,d", SCHEME_CASES)
    def test_oracle_schemes(self, damage, basis_name, d):
        scheme = make_scheme(damage, basis_name, d)
        verdict = verify(scheme)
        if damage in ("mixed", "random_mixed", "non_hermitian_resource"):
            assert verdict.witness == "resource is not a unit vector or a pure state"
        assert verdict.passed == (damage in ("valid", "pure_density") and basis_name == "weyl")
        if not verdict:
            with pytest.raises(SchemeInvalid):
                extract_basis_from_scheme(scheme)
            return
        assert_extracted_gram_is_effects_gram(scheme.effects, extract_basis_from_scheme(scheme))

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_non_canonical_references(self, d):
        rng = np.random.default_rng(d)
        ref = random_unitary(rng, d).reshape(-1) / np.sqrt(d)
        effects = basis_to_entangled(weyl_basis(d), ref)
        assert_extracted_gram_is_effects_gram(effects, entangled_to_basis(effects, ref))
        # a rephased resource with rephased effects is a valid scheme as well
        scheme = build_scheme(weyl_basis(d))
        phase = np.exp(0.8j)
        rephased = replace(
            scheme, omega=phase * scheme.omega,
            effects=MaxEntangledBasis(d, phase * scheme.effects.vectors),
        )
        assert_extracted_gram_is_effects_gram(rephased.effects, extract_basis_from_scheme(rephased))


class TestConversionRoundTrips:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_basis_entangled_basis(self, d):
        basis = weyl_basis(d)
        back = entangled_to_basis(basis_to_entangled(basis))
        for x in range(d * d):
            assert abs(
                abs(trace_inner(basis.elements[x], back.elements[x])) - 1.0
            ) < 1e-11

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_basis_scheme_basis(self, d):
        basis = weyl_basis(d)
        extracted = extract_basis_from_scheme(build_scheme(basis))
        gram = verify_orthonormal(extracted)
        assert gram.passed
        for x in range(d * d):
            assert abs(
                abs(trace_inner(basis.elements[x], extracted.elements[x])) - 1.0
            ) < 1e-11

    def test_shift_multiply_with_d4_family(self):
        basis = shift_multiply_basis(
            latin_from_cyclic(4), [hadamard_d4_family(np.exp(1.1j))] * 4
        )
        scheme = build_scheme(basis)
        assert verify_teleportation(scheme).passed
        assert verify_dense_coding(swap_roles(scheme)).passed
        extracted = extract_basis_from_scheme(scheme)
        assert verify_orthonormal(extracted).passed


class TestVerifyEntangledBasis:
    def test_valid_bases_pass(self):
        for d in (2, 3):
            entangled = basis_to_entangled(weyl_basis(d))
            assert verify_entangled_basis(entangled).passed

    def test_rotated_vector_fails(self):
        entangled = basis_to_entangled(weyl_basis(2))
        vectors = entangled.vectors.copy()
        vectors[0] = np.cos(0.1) * vectors[0] + np.sin(0.1) * vectors[1]
        result = verify_entangled_basis(MaxEntangledBasis(2, vectors))
        assert not result.passed
        assert result.deviation > 1e-3

    def test_nan_vector_fails(self):
        entangled = basis_to_entangled(weyl_basis(2))
        vectors = entangled.vectors.copy()
        vectors[3, 0] = np.nan
        result = verify_entangled_basis(MaxEntangledBasis(2, vectors))
        assert not result.passed and np.isnan(result.deviation)

    def test_product_vector_fails_entanglement_side(self):
        entangled = basis_to_entangled(weyl_basis(2))
        vectors = entangled.vectors.copy()
        vectors[0] = np.array([1, 0, 0, 0], dtype=complex)
        result = verify_entangled_basis(MaxEntangledBasis(2, vectors))
        assert not result.passed

    @pytest.mark.parametrize("d", [3, 12])
    def test_table_is_the_vectors_gram_matrix(self, d):
        entangled = basis_to_entangled(weyl_basis(d))
        gram = check_projector_completeness(entangled.vectors).table
        for result in (verify_entangled_basis(entangled), verify(entangled)):
            assert result.table.shape == gram.shape
            assert result.table.tobytes() == gram.tobytes()


@pytest.mark.parametrize("call, error, message", [
    (lambda: TightScheme(2, omega_vector(2), weyl_basis(2).elements,
                         basis_to_entangled(weyl_basis(3)), TELEPORTATION),
     DimensionMismatch, "effect vectors live at d=3, scheme has d=2"),
    (lambda: teleport_state(build_scheme(weyl_basis(2)), np.eye(3) / 3),
     NotDensityOperator, "state shape (3, 3) is not (2, 2)"),
], ids=["effects at another d", "state at another d"])
def test_a_part_at_another_dimension_is_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
