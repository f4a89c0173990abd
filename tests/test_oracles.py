"""Cross-checks of the stacked-matrix verifiers against the literal oracles.

Every case is run through the package and through ``oracles``: deviations
must agree to 1e-12 (NaN matching NaN), verdicts must be equal, and on a
failing input the witness must name an entry whose oracle gap equals the
maximum to within 1e-12.  Ties are allowed, so a witness may name any of
several entries at the maximum.
"""

import re
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_complex, random_density, random_unitary
from tightport import (
    NoSolution,
    SchemeInvalid,
    UnitaryBasis,
    apply_equivalence,
    build_scheme,
    fourier_hadamard,
    hadamard_d4_family,
    is_maximally_entangled,
    latin_from_cyclic,
    recover_weight_from_unitary_gram,
    shift_multiply_basis,
    teleport_state,
    verify_dense_coding,
    verify_depolarizer,
    verify_entangled_basis,
    verify_orthonormal,
    verify_teleportation,
    weighted_gram,
    weyl_basis,
)
from tightport.bases import _raw_shift_multiply

TOL = 1e-10
AGREE = 1e-12


def _perturbed(d, rng):
    elems = weyl_basis(d).elements.copy()
    elems[1] += 1e-3 * random_complex(rng, d, d)
    return elems


def _duplicated(d, rng):
    elems = weyl_basis(d).elements.copy()
    elems[d + 1] = elems[0]
    return elems


def _nan_entry(d, rng):
    elems = weyl_basis(d).elements.copy()
    elems[d, 1, 0] = np.nan
    return elems


def _non_latin(d, rng):
    grid = latin_from_cyclic(d).grid.copy()
    grid[1] = grid[0]
    return _raw_shift_multiply(grid, [fourier_hadamard(d).matrix] * d)


def _non_hadamard(d, rng):
    phases = [fourier_hadamard(d).matrix] * d
    phases[1] = np.exp(1j * rng.uniform(0, 2 * np.pi, (d, d)))
    return _raw_shift_multiply(latin_from_cyclic(d).grid, phases)


def _random_unitaries(d, rng):
    return np.asarray([random_unitary(rng, d) for _ in range(d * d)])


def _equivalent(d, rng):
    basis = apply_equivalence(
        weyl_basis(d), random_unitary(rng, d), random_unitary(rng, d), rng.permutation(d * d)
    )
    return basis.elements


def _d4_family(d, rng):
    hadamards = [hadamard_d4_family(np.exp(0.7j))] * 4
    return shift_multiply_basis(latin_from_cyclic(4), hadamards).elements


BASES = {
    "weyl": lambda d, rng: weyl_basis(d).elements,
    "equivalent": _equivalent,
    "perturbed": _perturbed,
    "duplicated": _duplicated,
    "nan_entry": _nan_entry,
    "non_latin": _non_latin,
    "non_hadamard": _non_hadamard,
    "random_unitaries": _random_unitaries,
}
VALID_BASES = {"weyl", "equivalent"}
BASIS_CASES = [(name, d) for name in BASES for d in (2, 3)] + [("d4_family", 4)]


def make_basis(name, d):
    rng = np.random.default_rng(zlib.crc32(f"{name} {d}".encode()))
    maker = _d4_family if name == "d4_family" else BASES[name]
    return UnitaryBasis(d, maker(d, rng))


def _mixed(scheme, rng):
    n = scheme.d**2
    pure = np.outer(scheme.omega, scheme.omega.conj())
    return replace(scheme, omega=0.8 * pure + 0.2 * np.eye(n) / n)


def _random_mixed(scheme, rng):
    return replace(scheme, omega=random_density(rng, scheme.d**2))


def _perturbed_channel(scheme, rng):
    channels = scheme.channel_unitaries.copy()
    channels[2] += 1e-3 * random_complex(rng, scheme.d, scheme.d)
    return replace(scheme, channel_unitaries=channels)


def _random_channels(scheme, rng):
    channels = np.asarray([random_unitary(rng, scheme.d) for _ in range(scheme.d**2)])
    return replace(scheme, channel_unitaries=channels)


def _non_hermitian_resource(scheme, rng):
    n = scheme.d**2
    pure = np.outer(scheme.omega, scheme.omega.conj())
    return replace(scheme, omega=pure + 0.05 * random_complex(rng, n, n))


SCHEME_DAMAGES = {
    "valid": lambda scheme, rng: scheme,
    "mixed": _mixed,
    "random_mixed": _random_mixed,
    "pure_density": lambda scheme, rng: replace(
        scheme, omega=np.outer(scheme.omega, scheme.omega.conj())
    ),
    "non_hermitian_resource": _non_hermitian_resource,
    "perturbed_channel": _perturbed_channel,
    "random_channels": _random_channels,
}
# Matrix resources that are not psi psi*: the identity verifiers fail them on
# their resource, with |<omega, omega> - 1| as the deviation, and form no
# identity; teleport_state raises on them.
IMPURE_RESOURCES = ("mixed", "random_mixed", "non_hermitian_resource")
SCHEME_CASES = [(damage, "weyl", d) for damage in SCHEME_DAMAGES for d in (2, 3)] + [
    ("valid", name, d) for name in BASES if name not in VALID_BASES for d in (2, 3)
]


def make_scheme(damage, basis_name, d):
    rng = np.random.default_rng(zlib.crc32(f"{damage} {basis_name} {d}".encode()))
    scheme = build_scheme(make_basis(basis_name, d))
    return SCHEME_DAMAGES[damage](scheme, rng)


def assert_agree(new, old):
    np.testing.assert_allclose(new, old, rtol=0, atol=AGREE, equal_nan=True)


def assert_witness_at_max(gaps, index):
    """The named entry's gap is the maximum gap (NaN when any gap is NaN)."""
    worst = np.max(gaps)
    if np.isnan(worst):
        assert np.isnan(gaps[index])
    else:
        assert abs(gaps[index] - worst) <= AGREE


def indices(witness):
    return tuple(int(k) for k in re.findall(r"\d+", witness))


def assert_fails_on_resource(verdict, scheme, gap):
    """An impure resource fails by its purity gap, which the oracle's identity gap confirms."""
    assert not verdict.passed
    assert verdict.witness == "resource is not a unit vector or a pure state"
    assert verdict.deviation == abs(np.vdot(scheme.omega, scheme.omega) - 1)
    assert gap.max() > TOL


@pytest.mark.parametrize("name,d", BASIS_CASES)
def test_orthonormal_matches_oracle(name, d):
    basis = make_basis(name, d)
    report = verify_orthonormal(basis, TOL)
    gram_dev, unit_dev = oracles.orthonormal(basis.elements)
    assert_agree(report.deviation, np.max([gram_dev, unit_dev]))
    assert_agree(np.abs(report.table - np.eye(d * d)).max(), gram_dev)
    assert report.passed == (gram_dev <= TOL and unit_dev <= TOL)
    assert report.passed == (name in VALID_BASES or name == "d4_family")


@pytest.mark.parametrize("name,d", BASIS_CASES)
def test_depolarizer_matches_oracle(name, d):
    basis = make_basis(name, d)
    result = verify_depolarizer(basis, TOL)
    gaps = oracles.depolarizer(basis.elements)
    assert_agree(result.deviation, gaps.max())
    assert result.passed == (gaps.max() <= TOL)
    if not result.passed:
        a, b = indices(result.witness)
        assert_witness_at_max(gaps, a * d + b)


@pytest.mark.parametrize("name,d", BASIS_CASES)
def test_recover_weight_matches_oracle(name, d):
    basis = make_basis(name, d)
    try:
        expected = oracles.recover_weight(basis.elements, TOL)
    except (NoSolution, np.linalg.LinAlgError):
        # the oracle fails on NaN input with LinAlgError; both mean "no weight"
        with pytest.raises(NoSolution):
            recover_weight_from_unitary_gram(basis, TOL)
        assert name not in VALID_BASES
    else:
        assert_agree(recover_weight_from_unitary_gram(basis, TOL), expected)


def _weight(kind, d, rng):
    """A positive definite W: I/d, diagonal, general, or general with smallest eigenvalue 1e-6."""
    if kind == "I/d":
        return np.eye(d) / d
    values = rng.uniform(0.1, 2.0, d)
    if kind == "diagonal":
        return np.diag(values)
    if kind == "near singular":
        values[0] = 1e-6
    q = random_unitary(rng, d)
    w = (q * values) @ q.conj().T
    return (w + w.conj().T) / 2


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 12),
    family=st.sampled_from(["weyl", "equivalent", "perturbed", "duplicated", "nan_entry"]),
    kind=st.sampled_from(["I/d", "diagonal", "general", "near singular"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_gram_matches_the_two_operand_product(d, family, kind, seed):
    # n = d^2 operators on both sides of the real kernel's 100 rows; Weyl takes the blocks
    rng = np.random.default_rng(seed)
    ops, w = BASES[family](d, rng), _weight(kind, d, rng)
    result, expected = weighted_gram(ops, w, TOL), oracles.weighted_gram(ops, w)
    gaps = np.abs(expected - np.eye(d * d))
    assert result.passed == bool(gaps.max() <= TOL)
    rows = np.nanmax((np.abs(ops.reshape(d * d, -1)) ** 2).sum(axis=1))  # max |row|^2
    bound = d * d * np.finfo(float).eps * np.linalg.norm(w, 2) * rows
    finite = np.isfinite(expected)
    assert np.abs(result.table - expected)[finite].max() <= bound
    if finite.all():
        assert abs(result.deviation - gaps.max()) <= bound


@pytest.mark.parametrize("damage,basis_name,d", SCHEME_CASES)
def test_teleportation_matches_oracle(damage, basis_name, d):
    scheme = make_scheme(damage, basis_name, d)
    verdict = verify_teleportation(scheme, TOL)
    choi_gap = oracles.teleportation(scheme)
    if damage in IMPURE_RESOURCES:
        assert_fails_on_resource(verdict, scheme, choi_gap)
        return
    gaps = oracles.teleportation_outcomes(scheme)
    assert_agree(verdict.deviation, gaps.max())
    assert verdict.passed == (gaps.max() <= TOL) == (choi_gap.max() <= TOL)
    weights = verdict.witness.startswith("outcome weights")
    assert_witness_at_max(gaps, d * d if weights else indices(verdict.witness)[0])


@pytest.mark.parametrize("damage,basis_name,d", SCHEME_CASES)
def test_dense_coding_matches_oracle(damage, basis_name, d):
    scheme = make_scheme(damage, basis_name, d)
    verdict = verify_dense_coding(scheme, TOL)
    table = oracles.dense_coding_table(scheme)
    gap = np.abs(table - np.eye(d * d))
    if damage in IMPURE_RESOURCES:
        assert_fails_on_resource(verdict, scheme, gap)
        return
    assert_agree(verdict.table, table)
    assert_agree(verdict.deviation, gap.max())
    assert verdict.passed == (gap.max() <= TOL)
    assert_witness_at_max(gap, indices(verdict.witness))


@pytest.mark.parametrize("damage,basis_name,d", SCHEME_CASES)
def test_teleport_state_matches_oracle(damage, basis_name, d):
    scheme = make_scheme(damage, basis_name, d)
    if damage in IMPURE_RESOURCES:
        with pytest.raises(SchemeInvalid, match="resource is not a unit vector or a pure state"):
            teleport_state(scheme, np.eye(d) / d)
        return
    rng = np.random.default_rng(d)
    for rho in (random_density(rng, d), np.eye(d) / d):
        output, probabilities = teleport_state(scheme, rho)
        expected_output, expected_probabilities = oracles.teleport_state(scheme, rho)
        assert_agree(probabilities, expected_probabilities)
        assert_agree(output, expected_output)


@pytest.mark.parametrize("name,d", BASIS_CASES)
def test_entangled_basis_matches_oracle(name, d):
    effects = build_scheme(make_basis(name, d)).effects
    result = verify_entangled_basis(effects, TOL)
    # The package forms only the Gram side of completeness; for square V both
    # sides share their singular values, so the oracle's two-sided verdict holds.
    two_sided, gaps = oracles.entangled_basis(effects.vectors, d)
    vs = effects.vectors
    gram_gap = np.abs(vs.conj() @ vs.T - np.eye(d * d))
    expected = np.max([gram_gap.max(), gaps.max()])
    assert_agree(result.deviation, expected)
    assert result.passed == (expected <= TOL)
    assert result.passed == (np.max([two_sided, gaps.max()]) <= TOL)
    if result.witness and result.witness.startswith("vector"):
        assert_witness_at_max(gaps, indices(result.witness)[0])
        assert not gram_gap.max() > gaps.max()
    elif not result.passed:
        assert_witness_at_max(gram_gap, indices(result.witness))
    for x, vec in enumerate(effects.vectors):
        if np.isfinite(vec).all():
            assert_agree(is_maximally_entangled(vec, d, 1.0).deviation, gaps[x])
