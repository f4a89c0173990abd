"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in captured output); a failure carries the measured deviation.  The
construction paths exercised everywhere are: group-type bases at d=2..6,
shift-and-multiply with the cyclic square and Fourier phases at d=2..5,
shift-and-multiply over the one-parameter 4x4 Hadamard family at five
random phases, and tensor products at (2,2) and (2,3).
"""

import time
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest

from conftest import PAULIS, random_density
from tightport import (
    PeriodicityViolated,
    basis_to_entangled,
    build_scheme,
    check_projector_completeness,
    entangled_to_basis,
    extract_basis_from_scheme,
    fourier_hadamard,
    hadamard_d4_family,
    hadamards_equivalent,
    latin_from_cyclic,
    periodic_phase_hadamard,
    recover_weight_from_unitary_gram,
    shift_multiply_basis,
    swap_roles,
    tensor_bases,
    teleport_state,
    trace_inner,
    validate_hadamard,
    verify_dense_coding,
    verify_depolarizer,
    verify_orthonormal,
    verify_teleportation,
    weighted_gram,
    weyl_basis,
    count_normalized_latin,
)

TOL = 1e-10
PHASE_SEED = 20240 | 1


def build_construction_paths():
    rng = np.random.default_rng(PHASE_SEED)
    paths = []
    for d in range(2, 7):
        paths.append((f"weyl d={d}", weyl_basis(d)))
    for d in range(2, 6):
        basis = shift_multiply_basis(latin_from_cyclic(d), [fourier_hadamard(d)] * d)
        paths.append((f"shift-multiply fourier d={d}", basis))
    for angle in rng.uniform(0.0, 2.0 * np.pi, 5):
        basis = shift_multiply_basis(
            latin_from_cyclic(4), [hadamard_d4_family(np.exp(1j * angle))] * 4
        )
        paths.append((f"shift-multiply d4-family angle={angle:.3f}", basis))
    paths.append(("tensor (2,2)", tensor_bases(weyl_basis(2), weyl_basis(2))))
    paths.append(("tensor (2,3)", tensor_bases(weyl_basis(2), weyl_basis(3))))
    return paths


@pytest.fixture(scope="module")
def construction_paths():
    return build_construction_paths()


@pytest.fixture(scope="module")
def built_schemes(construction_paths):
    return [(name, build_scheme(basis)) for name, basis in construction_paths]


def rigidity_resources():
    cases = []
    for p in (0.6, 0.75, 0.9):
        omega = np.zeros(4, dtype=complex)
        omega[0] = np.sqrt(p)
        omega[3] = np.sqrt(1 - p)
        cases.append((p, omega))
    return cases


def announce(number, name, detail):
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS ({detail})")


def test_criterion_01_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    paths = build_construction_paths()
    for name, basis in paths:
        report = verify_orthonormal(basis, TOL)
        deviation = report.deviation
        assert report.passed, f"{name}: deviation {deviation:.3e} exceeds {TOL}"
        worst = max(worst, deviation)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"orthonormality sweep took {elapsed:.2f}s"
    announce(1, "orthonormality", f"{len(paths)} paths, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_depolarizer(construction_paths):
    worst = 0.0
    for name, basis in construction_paths:
        result = verify_depolarizer(basis, tol=TOL)
        assert result.passed, f"{name}: deviation {result.deviation:.3e} exceeds {TOL}"
        worst = max(worst, result.deviation)
    announce(2, "depolarizer", f"matrix-unit probes, worst deviation {worst:.2e}")


def test_criterion_03_teleportation_identity(built_schemes):
    start = time.perf_counter()
    worst = 0.0
    for name, scheme in built_schemes:
        verdict = verify_teleportation(scheme, TOL)
        assert verdict.passed, f"{name}: deviation {verdict.deviation:.3e}"
        worst = max(worst, verdict.deviation)
    rng = np.random.default_rng(77)
    for d in (2, 3, 4, 5):
        scheme = build_scheme(weyl_basis(d))
        for _ in range(50):
            rho = random_density(rng, d)
            output, probs = teleport_state(scheme, rho)
            state_dev = float(np.abs(output - rho).max())
            prob_dev = float(np.abs(probs - 1 / d**2).max())
            assert state_dev < TOL, f"d={d}: output deviation {state_dev:.3e}"
            assert prob_dev < TOL, f"d={d}: outcome deviation {prob_dev:.3e}"
            worst = max(worst, state_dev, prob_dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"teleportation sweep took {elapsed:.2f}s"
    announce(3, "teleportation identity", f"worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_dense_coding_identity(built_schemes):
    worst = 0.0
    for name, scheme in built_schemes:
        verdict = verify_dense_coding(scheme, TOL)
        assert verdict.passed, f"{name}: deviation {verdict.deviation:.3e}"
        n = scheme.d ** 2
        assert np.abs(verdict.table - np.eye(n)).max() < TOL
        worst = max(worst, verdict.deviation)
    announce(4, "dense coding identity", f"outcome matrices == I, worst deviation {worst:.2e}")


def test_criterion_05_swap_equivalence(built_schemes):
    for name, scheme in built_schemes:
        assert verify_teleportation(scheme, TOL).passed, name
        assert verify_dense_coding(swap_roles(scheme), TOL).passed, name
    base = build_scheme(weyl_basis(2))
    for p, omega in rigidity_resources():
        broken = replace(base, omega=omega)
        assert not verify_teleportation(broken, TOL).passed, f"p={p}"
        assert not verify_dense_coding(swap_roles(broken), TOL).passed, f"p={p}"
    announce(5, "swap equivalence", "both verifiers agree on valid and perturbed schemes")


def brute_force_normalized_count(d):
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


def test_criterion_06_latin_counts():
    start = time.perf_counter()
    assert count_normalized_latin(3) == 1
    assert count_normalized_latin(4) == 4
    assert count_normalized_latin(3) == brute_force_normalized_count(3)
    assert count_normalized_latin(4) == brute_force_normalized_count(4)
    assert count_normalized_latin(5) == 56
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"counting took {elapsed:.2f}s"
    announce(6, "Latin counts", f"1 / 4 / 56 at d=3/4/5, oracle-checked to d=4, {elapsed:.2f}s")


def test_criterion_07_d2_uniqueness_witness(construction_paths):
    d2_bases = [(name, b) for name, b in construction_paths if b.d == 2]
    assert d2_bases, "no d=2 bases in the construction paths"
    for name, basis in d2_bases:
        matched = set()
        for x in range(4):
            overlaps = [abs(trace_inner(basis.elements[x], p)) for p in PAULIS]
            best = int(np.argmax(overlaps))
            assert abs(overlaps[best] - 1.0) < TOL, f"{name}: element {x}"
            matched.add(best)
        assert matched == {0, 1, 2, 3}, f"{name}: elements do not hit all four"
    announce(7, "d=2 uniqueness witness", f"{len(d2_bases)} bases match the Pauli family")


def test_criterion_08_recovered_weight(construction_paths):
    small = [(name, b) for name, b in construction_paths if b.d in (2, 3, 4)]
    worst = 0.0
    for name, basis in small:
        rho = recover_weight_from_unitary_gram(basis, TOL)
        deviation = float(np.abs(rho - np.eye(basis.d) / basis.d).max())
        assert deviation <= TOL, f"{name}: recovered weight off by {deviation:.3e}"
        worst = max(worst, deviation)
    basis = weyl_basis(2)
    perturbed = np.eye(2) / 2
    perturbed[0, 0] *= 1.1
    report = weighted_gram(basis.elements, perturbed)
    assert not report.passed and report.deviation > 1e-3
    announce(8, "recovered weight", f"{len(small)} bases give I/d, worst {worst:.2e}; deformed weight off by {report.deviation:.2e}")


def test_criterion_09_round_trips():
    cases = [("weyl", weyl_basis(d)) for d in (2, 3, 4, 5)]
    cases.append(
        (
            "d4-family",
            shift_multiply_basis(
                latin_from_cyclic(4), [hadamard_d4_family(np.exp(0.3j))] * 4
            ),
        )
    )
    worst = 0.0
    for name, basis in cases:
        n = basis.d ** 2
        via_vectors = entangled_to_basis(basis_to_entangled(basis))
        via_scheme = extract_basis_from_scheme(build_scheme(basis))
        for recovered in (via_vectors, via_scheme):
            for x in range(n):
                overlap = abs(trace_inner(basis.elements[x], recovered.elements[x]))
                gap = abs(overlap - 1.0)
                assert gap < 1e-11, f"{name} d={basis.d}: element {x} overlap {overlap}"
                worst = max(worst, gap)
    announce(9, "round trips", f"phase-equal elements, worst |overlap - 1| {worst:.2e}")


def test_criterion_10_completeness_suite(construction_paths):
    checked = 0
    for name, basis in construction_paths:
        entangled = basis_to_entangled(basis)
        assert check_projector_completeness(entangled.vectors, TOL).passed, name
        vectors = entangled.vectors.copy()
        vectors[0] = np.cos(0.1) * vectors[0] + np.sin(0.1) * vectors[1]
        result = check_projector_completeness(vectors, TOL)
        assert not result.passed and result.deviation > 1e-3, name
        checked += 1
    announce(10, "completeness suite", f"{checked} entangled bases pass; rotated copies fail")


def test_criterion_11_d4_hadamard_family():
    rng = np.random.default_rng(4040)
    for angle in rng.uniform(0.0, 2.0 * np.pi, 100):
        h = hadamard_d4_family(np.exp(1j * angle))
        assert validate_hadamard(h.matrix, TOL).passed
    klein = np.kron(fourier_hadamard(2).matrix, fourier_hadamard(2).matrix)
    assert hadamards_equivalent(hadamard_d4_family(1.0), klein)
    assert hadamards_equivalent(hadamard_d4_family(1j), fourier_hadamard(4))
    announce(11, "4x4 Hadamard family", "100 phases valid; endpoints match the two group matrices")


def test_criterion_12_periodic_phase_construction():
    rng = np.random.default_rng(5050)
    for p, q in ((2, 2), (2, 3)):
        d = p * q
        for _ in range(50):
            cell = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (p, q)))
            grid = np.tile(cell, (d // p, d // q))
            h = periodic_phase_hadamard(p, q, grid)
            assert validate_hadamard(h.matrix, TOL).passed
    broken = np.ones((6, 6), dtype=complex)
    broken[0, 0] = np.exp(0.2j)
    with pytest.raises(PeriodicityViolated):
        periodic_phase_hadamard(2, 3, broken)
    announce(12, "periodic phase construction", "100 random cells valid; violations rejected")
