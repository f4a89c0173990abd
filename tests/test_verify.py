"""The one verdict type and the one dispatcher, ``tp.verify``."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_twist, random_unitary
from oracles import matrix_units
import tightport as tp
from tightport.common import _worst_of

NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0)]


def test_verify_dispatches_by_kind():
    basis = tp.weyl_basis(3)
    scheme = tp.build_scheme(basis)
    for obj, verifier in [
        (basis, tp.verify_orthonormal), (scheme.effects, tp.verify_entangled_basis)
    ]:
        got, expected = tp.verify(obj, 1e-12), verifier(obj, 1e-12)
        assert (got.passed, got.deviation, got.witness) == (
            expected.passed, expected.deviation, expected.witness
        )
        np.testing.assert_equal(got.table, expected.table)
    # a scheme's verdict covers more than its mode's identity; its table is the effects' Gram.
    # For dense coding the verdict reads the identity per outcome, not through the table,
    # so on a valid scheme its rounding may fall short of the table's.
    gram = tp.check_projector_completeness(scheme.effects.vectors, 1e-12).table
    for obj, identity, rounding in [
        (scheme, tp.verify_teleportation, 0.0),
        (tp.swap_roles(scheme), tp.verify_dense_coding, 1e-15),
    ]:
        got, expected = tp.verify(obj, 1e-12), identity(obj, 1e-12)
        assert got.passed and expected.passed
        assert got.deviation >= expected.deviation - rounding
        np.testing.assert_equal(got.table, gram)
    with pytest.raises(TypeError):
        tp.verify(tp.fourier_hadamard(3))


def _duplicated_weyl():
    elements = tp.weyl_basis(3).elements.copy()
    elements[4] = elements[0]
    return tp.UnitaryBasis(3, elements)


# Families whose schemes satisfy the outcome-averaged teleportation identity
# (every T_x is a multiple of I) although their effects are no measurement.
INCOMPLETE = {
    "duplicated element": (_duplicated_weyl, "Gram entry (0, 4)"),
    "nine identities": (lambda: tp.UnitaryBasis(3, np.stack([np.eye(3)] * 9)), "Gram entry (0, 1)"),
}


@pytest.mark.parametrize("family", sorted(INCOMPLETE))
def test_scheme_with_incomplete_effects_fails(family):
    make, entry = INCOMPLETE[family]
    scheme = tp.build_scheme(make())
    assert tp.verify_teleportation(scheme).passed
    result = tp.verify(scheme)
    assert not result.passed and result.deviation == pytest.approx(1.0)
    assert result.witness == f"effect vectors are not a complete measurement: {entry}"
    # read as dense coding the identity fails too, by the same margin
    assert tp.verify(tp.swap_roles(scheme)).deviation == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3])
def test_resource_off_maximal_entanglement_fails_before_extraction(d):
    # The dense-coding table is quadratic in the resource's error, so a resource
    # 1e-6 away from maximal entanglement passes it; the per-outcome teleportation
    # gap is linear and fails it.  The verdict checks the reduced operator
    # W W* = I/d itself, before either identity, and extraction refuses the scheme.
    scheme = tp.build_scheme(tp.weyl_basis(d))
    effects = scheme.effects.vectors
    omega = effects[0] + 1e-6 * effects[1]
    tilted = replace(scheme, omega=omega / np.linalg.norm(omega))
    assert tp.verify_dense_coding(tilted).passed
    teleportation = tp.verify_teleportation(tilted)
    assert not teleportation.passed and teleportation.deviation > 1e-7
    assert teleportation.witness.endswith(": T_x is not a multiple of I")
    result = tp.verify(tilted)
    assert not result.passed and result.witness == "resource is not maximally entangled"
    assert result.deviation > 1e-7
    with pytest.raises(tp.SchemeInvalid, match="resource is not maximally entangled"):
        tp.extract_basis_from_scheme(tilted)


def test_dense_coding_with_non_unitary_channels_fails():
    # sqrt(2) E[a, b] sends the canonical resource to the computational basis
    # vector e_(a, b), so the outcome table is exactly I
    scheme = tp.TightScheme(
        2, tp.omega_vector(2), np.sqrt(2) * matrix_units(2),
        tp.MaxEntangledBasis(2, np.eye(4)), tp.DENSE_CODING,
    )
    assert tp.verify_dense_coding(scheme).passed
    result = tp.verify(scheme)
    assert not result.passed and result.witness == "channel 0 is not unitary"


def _family(name, d, rng):
    if name == "weyl":
        return tp.weyl_basis(d)
    if name == "shift_multiply":
        perms = (rng.permutation(d) for _ in range(3))
        square = tp.latin_equivalence_apply(tp.latin_from_cyclic(d), *perms)
        # a phase per column keeps a Hadamard matrix Hadamard
        phases = np.exp(2j * np.pi * rng.random((d, d)))
        return tp.shift_multiply_basis(square, tp.fourier_hadamard(d).matrix * phases[:, None, :])
    return tp.tensor_bases(tp.weyl_basis(2), tp.weyl_basis(d))


def _two_labels(n, rng):
    x, y = rng.choice(n, 2, replace=False)
    return int(x), int(y)


def _perturbed(elements, rng, size):
    x = int(rng.integers(len(elements)))
    shape = elements[x].shape
    direction = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    elements[x] += size * direction / np.linalg.norm(direction)


def _duplicated(elements, rng, size):
    x, y = _two_labels(len(elements), rng)
    elements[x] = elements[y]


def _nan(elements, rng, size):
    elements.flat[int(rng.integers(elements.size))] = np.nan


def _swapped(scheme, rng, size):
    x, y = _two_labels(scheme.d**2, rng)
    channels = scheme.channel_unitaries.copy()
    channels[[x, y]] = channels[[y, x]]
    return replace(scheme, channel_unitaries=channels)


def _non_unitary(scheme, rng, size):
    channels = scheme.channel_unitaries.copy()
    _perturbed(channels, rng, size)
    return replace(scheme, channel_unitaries=channels)


def _product_effects(scheme, rng, size):
    return replace(scheme, effects=tp.MaxEntangledBasis(scheme.d, np.eye(scheme.d**2)))


def twisted_channel(scheme, rng, size):
    # still unitary: the dense-coding table's gap is quadratic in size, the verdict's linear
    channels = scheme.channel_unitaries.copy()
    x = int(rng.integers(len(channels)))
    channels[x] = channels[x] @ random_twist(rng, scheme.d, size)
    return replace(scheme, channel_unitaries=channels)


BASIS_DAMAGES = {"perturbed": _perturbed, "duplicated": _duplicated, "nan": _nan}
SCHEME_DAMAGES = {"swapped channels": _swapped, "non-unitary channel": _non_unitary,
                  "product effects": _product_effects, "twisted channel": twisted_channel}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["weyl", "shift_multiply", "tensor_bases"]),
    d=st.integers(2, 4),
    damage=st.sampled_from([None, *sorted(BASIS_DAMAGES), *sorted(SCHEME_DAMAGES)]),
    exponent=st.floats(-6, -1),
    seed=st.integers(0, 2**32 - 1),
)
def test_equivalence_theorem(family, d, damage, exponent, seed):
    # A unitary basis, its depolarizer, its entangled basis and the schemes it
    # generates, in either mode and with roles swapped, are valid together or
    # not at all; a scheme damaged on its own is invalid in every reading.  A
    # teleportation scheme that passes teleports a state.
    rng = np.random.default_rng(seed)
    basis = _family(family, d, rng)
    if damage in BASIS_DAMAGES:
        elements = basis.elements.copy()
        BASIS_DAMAGES[damage](elements, rng, 10.0**exponent)
        basis = tp.UnitaryBasis(basis.d, elements)
    basis_valid = damage not in BASIS_DAMAGES
    assert tp.verify(basis).passed == basis_valid
    assert tp.verify_depolarizer(basis).passed == basis_valid
    assert tp.verify(tp.basis_to_entangled(basis)).passed == basis_valid
    for mode in tp.MODES:
        scheme = tp.build_scheme(basis, mode)
        if damage in SCHEME_DAMAGES:
            scheme = SCHEME_DAMAGES[damage](scheme, rng, 10.0**exponent)
        for reading in (scheme, tp.swap_roles(scheme)):
            verdict = tp.verify(reading)
            assert verdict.passed == (damage is None), mode
            if verdict and reading.mode == tp.TELEPORTATION:
                rho = random_density(rng, basis.d)
                output, probabilities = tp.teleport_state(reading, rho)
                assert np.abs(output - rho).max() <= tp.DEFAULT_TOL
                assert np.abs(probabilities - 1 / basis.d**2).max() <= tp.DEFAULT_TOL
    # A resource W = V / sqrt(d) for a unitary V: channels U_x make a dense-coding
    # scheme and U_x V conj(V) a teleportation one.  Each passes in its own
    # direction only, unless W^T = +-W.
    v = random_unitary(rng, basis.d)
    w = v / np.sqrt(basis.d)
    effects = tp.basis_to_entangled(basis, w.reshape(-1))
    symmetric = min(np.abs(w.T - w).max(), np.abs(w.T + w).max()) <= tp.DEFAULT_TOL
    for mode, channels in [(tp.DENSE_CODING, basis.elements),
                           (tp.TELEPORTATION, basis.elements @ v @ v.conj())]:
        scheme = tp.TightScheme(basis.d, w.reshape(-1), channels, effects, mode)
        if damage in SCHEME_DAMAGES:
            scheme = SCHEME_DAMAGES[damage](scheme, rng, 10.0**exponent)
        assert tp.verify(scheme).passed == (damage is None), mode
        assert tp.verify(tp.swap_roles(scheme)).passed == (damage is None and symmetric), mode


def test_worst_takes_the_first_nan_and_fails_closed():
    result = tp.CheckResult.worst([[0.0, 2.0], [np.nan, np.nan]], 10.0, "entry ({}, {})".format)
    assert not result.passed and np.isnan(result.deviation)
    assert result.witness == "entry (1, 0)"
    tie = tp.CheckResult.worst([1.0, 3.0, 3.0], 5.0, "entry {}".format)
    assert tie.passed and tie.deviation == 3.0 and tie.witness == "entry 1"


@pytest.mark.parametrize("tol", [np.float64(1e-10), np.float32(1e-6)], ids=["float64", "float32"])
@pytest.mark.parametrize("d", [3, 12])  # at 12 the block and permutation-times-phases paths
def test_a_numpy_scalar_tolerance_gives_a_plain_bool(d, tol):
    # a numpy.bool verdict makes bool(result) raise
    basis = tp.weyl_basis(d)
    scheme = tp.build_scheme(basis)
    for obj in (basis, scheme.effects, scheme, tp.swap_roles(scheme)):
        result = tp.verify(obj, tol)
        assert type(result.passed) is bool and bool(result), obj
    assert type(tp.verify_depolarizer(basis, tol).passed) is bool
    assert tp.verify(tp.extract_basis_from_scheme(scheme, tol))


def test_worst_of_parts_takes_the_first_nan_then_the_first_largest():
    # the table is the first part's that has one, whichever part is worst
    table = np.eye(2)
    parts = [tp.CheckResult(True, 1.0, "small"), tp.CheckResult(False, np.nan, "first nan"),
             tp.CheckResult(False, 5.0, "large", table),
             tp.CheckResult(False, np.nan, "second nan", np.zeros(2))]
    result = _worst_of(parts)
    assert not result.passed and np.isnan(result.deviation) and result.witness == "first nan"
    assert result.table is table
    tie = _worst_of([tp.CheckResult(False, 2.0, "first"), tp.CheckResult(False, 2.0, "second")])
    assert (tie.passed, tie.deviation, tie.witness, tie.table) == (False, 2.0, "first", None)


def _scaled_weyl2():
    # element 3 scaled by 1.5: its unitarity gap and Gram entry (3, 3) are both 1.25
    elements = tp.weyl_basis(2).elements.copy()
    elements[3] *= 1.5
    return elements


def _nan_weyl2():
    elements = tp.weyl_basis(2).elements.copy()
    elements[2, 1, 0] = np.nan
    return elements


def _with_channels(elements):
    # channels and effects from the same elements, so a fault shows in both parts
    effects = tp.basis_to_entangled(tp.UnitaryBasis(2, elements))
    return tp.TightScheme(2, tp.omega_vector(2), elements, effects, tp.TELEPORTATION)


# Exact ties and NaN across a verdict's parts go to the part listed first: the
# Gram matrix before the elements or vectors, and channels, effects, identity in a scheme.
PART_ORDER = {
    "orthonormal, tie": (_scaled_weyl2, lambda e: tp.verify_orthonormal(tp.UnitaryBasis(2, e)),
                         1.25, "Gram entry (3, 3)"),
    "scheme, tie": (_scaled_weyl2, lambda e: tp.verify(_with_channels(e)),
                    1.25, "channel 3 is not unitary"),
    "orthonormal, nan": (_nan_weyl2, lambda e: tp.verify_orthonormal(tp.UnitaryBasis(2, e)),
                         np.nan, "Gram entry (0, 2)"),
    "entangled basis, nan": (_nan_weyl2, lambda e: tp.verify_entangled_basis(
        tp.basis_to_entangled(tp.UnitaryBasis(2, e))), np.nan, "Gram entry (0, 2)"),
    "scheme, nan": (_nan_weyl2, lambda e: tp.verify(_with_channels(e)),
                    np.nan, "channel 2 is not unitary"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(PART_ORDER))
def test_ties_and_nan_go_to_the_first_listed_part(case):
    make, check, deviation, witness = PART_ORDER[case]
    result = check(make())
    assert not result.passed and result.witness == witness
    np.testing.assert_equal(result.deviation, deviation)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extraction_names_the_first_nan_else_the_worst_vector():
    with pytest.raises(tp.NotUnitaryExtraction) as caught:
        tp.entangled_to_basis(tp.basis_to_entangled(tp.UnitaryBasis(2, _nan_weyl2())))
    assert str(caught.value) == "vector 2 yields an operator nan away from unitarity"
    elements = _scaled_weyl2()
    elements[0] *= 0.5  # out of tolerance too, by 0.75, before the worse element 3
    with pytest.raises(tp.NotUnitaryExtraction) as caught:
        tp.entangled_to_basis(tp.basis_to_entangled(tp.UnitaryBasis(2, elements)))
    assert str(caught.value) == "vector 3 yields an operator 1.250e+00 away from unitarity"


def test_empty_objects_are_rejected():
    # an empty family has no worst entry, so no verdict on it can be built
    with pytest.raises(tp.DimensionMismatch):
        tp.UnitaryBasis(0, np.zeros((0, 0, 0)))
    with pytest.raises(tp.DimensionMismatch):
        tp.MaxEntangledBasis(0, np.zeros((0, 0)))
    with pytest.raises(tp.DimensionMismatch):
        tp.weighted_gram(np.zeros((0, 2, 2)), np.eye(2))
    with pytest.raises(tp.DimensionMismatch):
        tp.weighted_gram(np.zeros((1, 0, 0)), np.zeros((0, 0)))
    with pytest.raises(tp.DimensionMismatch):
        tp.check_projector_completeness([])
    with pytest.raises(tp.DimensionMismatch):
        tp.check_projector_completeness(np.zeros((0, 0)))
    # an empty design would otherwise pass its check vacuously
    with pytest.raises(tp.DimensionMismatch):
        tp.LatinSquare(np.zeros((0, 0), dtype=int))
    with pytest.raises(tp.DimensionMismatch):
        tp.validate_latin(np.zeros((0, 0), dtype=int))
    with pytest.raises(tp.DimensionMismatch):
        tp.HadamardMatrix(np.zeros((0, 0)))
    with pytest.raises(tp.DimensionMismatch):
        tp.validate_hadamard(np.zeros((0, 0)))


@pytest.mark.parametrize("call, message", [
    (lambda: tp.UnitaryBasis(2.0, tp.weyl_basis(2).elements),
     "dimension must be an integer, got 2.0"),
    (lambda: tp.MaxEntangledBasis(2.0, tp.basis_to_entangled(tp.weyl_basis(2)).vectors),
     "dimension must be an integer, got 2.0"),
    (lambda: tp.TightScheme(2.0, tp.omega_vector(2), tp.weyl_basis(2).elements,
                            tp.basis_to_entangled(tp.weyl_basis(2)), tp.TELEPORTATION),
     "dimension must be an integer, got 2.0"),
    (lambda: tp.count_normalized_latin(True), "dimension must be an integer, got True"),
    (lambda: tp.omega_vector(True), "dimension must be an integer, got True"),
    (lambda: tp.fourier_hadamard(2.5), "dimension must be an integer, got 2.5"),
    (lambda: tp.periodic_phase_hadamard(1.5, 2, np.ones((3, 3))),
     "period p must be an integer, got 1.5"),
], ids=["UnitaryBasis", "MaxEntangledBasis", "TightScheme", "count_normalized_latin",
        "omega_vector", "fourier_hadamard", "periodic_phase_hadamard"])
def test_a_dimension_must_be_an_integer(call, message):
    # a float d was stored and failed later in numpy; a bool d counted as 1
    with pytest.raises(tp.DimensionMismatch) as info:
        call()
    assert str(info.value) == message


def test_a_numpy_integer_dimension_is_accepted():
    basis = tp.weyl_basis(3)
    assert tp.verify(tp.UnitaryBasis(np.int64(3), basis.elements))
    assert tp.verify(tp.build_scheme(tp.UnitaryBasis(np.int64(3), basis.elements)))
    assert tp.count_normalized_latin(np.int64(3)) == 1


def _with_entry(array, position, value):
    out = np.array(array, dtype=complex)
    out.flat[position % out.size] = value
    return out


def _scheme_check(mode, part):
    def check(d, put):
        scheme = tp.build_scheme(tp.weyl_basis(d), mode)
        if part == "effects":
            effects = tp.MaxEntangledBasis(d, put(scheme.effects.vectors))
            return tp.verify(replace(scheme, effects=effects))
        return tp.verify(replace(scheme, **{part: put(getattr(scheme, part))}))

    return check


# Each check builds a valid input at dimension d and passes one of its arrays
# through ``put``, which overwrites one entry with a non-finite value.
CHECKS = {
    "unitary_basis": lambda d, put: tp.verify(tp.UnitaryBasis(d, put(tp.weyl_basis(d).elements))),
    "entangled_basis": lambda d, put: tp.verify(
        tp.MaxEntangledBasis(d, put(tp.basis_to_entangled(tp.weyl_basis(d)).vectors))
    ),
    **{
        f"{mode} scheme {part}": _scheme_check(mode, part)
        for mode in tp.MODES
        for part in ("omega", "channel_unitaries", "effects")
    },
    "depolarizer basis": lambda d, put: tp.verify_depolarizer(
        tp.UnitaryBasis(d, put(tp.weyl_basis(d).elements))
    ),
    "projector completeness": lambda d, put: tp.check_projector_completeness(
        put(tp.basis_to_entangled(tp.weyl_basis(d)).vectors)
    ),
    "maximally entangled": lambda d, put: tp.is_maximally_entangled(put(tp.omega_vector(d)), d),
    "hadamard": lambda d, put: tp.validate_hadamard(put(tp.fourier_hadamard(d).matrix)),
    "weighted_gram operators": lambda d, put: tp.weighted_gram(
        put(tp.weyl_basis(d).elements), np.eye(d) / d
    ),
    "weighted_gram weight": lambda d, put: tp.weighted_gram(
        tp.weyl_basis(d).elements, put(np.eye(d) / d)
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    check=st.sampled_from(sorted(CHECKS)),
    d=st.integers(1, 3),
    position=st.integers(0, 10**6),
    value=st.sampled_from(NON_FINITE),
)
def test_non_finite_entry_never_passes(check, d, position, value):
    try:
        result = CHECKS[check](d, lambda array: _with_entry(array, position, value))
    except tp.TightportError:
        return
    assert isinstance(result, tp.CheckResult) and not result.passed


def test_default_tolerance_holds_with_margin_at_d32():
    # DEFAULT_TOL is absolute; at the largest supported d the rounding error of
    # every identity must stay two orders of magnitude below it.
    basis = tp.weyl_basis(32)
    scheme = tp.build_scheme(basis)
    results = {
        "orthonormality": tp.verify(basis),
        "entangled basis": tp.verify(scheme.effects),
        "teleportation": tp.verify(scheme),
        "dense coding": tp.verify(tp.swap_roles(scheme)),
        "depolarizer": tp.verify_depolarizer(basis),
    }
    for name, result in results.items():
        assert result.passed and result.deviation < tp.DEFAULT_TOL / 100, (name, result.deviation)
    rho = random_density(np.random.default_rng(32), 32)
    output, probabilities = tp.teleport_state(scheme, rho)
    assert np.abs(output - rho).max() < tp.DEFAULT_TOL / 100
    assert np.abs(probabilities - 1 / 32**2).max() < tp.DEFAULT_TOL / 100


def _assert_same(got, expected):
    """Equal verdicts, texts and documents; deviations and arrays within 1e-14."""
    close = dict(rtol=0, atol=1e-14)
    if isinstance(expected, tp.CheckResult):
        assert (got.passed, got.witness) == (expected.passed, expected.witness)
        np.testing.assert_allclose(got.deviation, expected.deviation, **close)
        if expected.table is None:
            assert got.table is None
        else:
            np.testing.assert_allclose(got.table, expected.table, **close)
    elif isinstance(expected, tp.DesignDocument):  # equal text, so equal arrays
        assert tp.dumps(got) == tp.dumps(expected)
    elif isinstance(expected, str):
        assert got == expected
    elif isinstance(expected, tuple):
        for part, value in zip(got, expected, strict=True):
            np.testing.assert_allclose(part, value, **close)
    else:
        np.testing.assert_allclose(got, expected, **close)


def test_shared_objects_give_the_serial_results_from_four_threads():
    # "everything is safe to share across threads": each call on objects shared by four
    # threads returns what it returns alone.  One phase of element 5 is off by 1e-6, so each
    # verdict on the damaged objects has one worst entry, not a tie within rounding.
    d = 12
    basis = tp.weyl_basis(d)
    elements = basis.elements.copy()
    elements[5][tuple(np.argwhere(elements[5] != 0)[0])] *= 1 + 1e-6
    damaged = tp.UnitaryBasis(d, elements)
    scheme, broken = tp.build_scheme(basis), tp.build_scheme(damaged)
    text = tp.dumps(tp.make_document(scheme))
    document = tp.loads(text)
    rho = random_density(np.random.default_rng(12), d)
    calls = {
        "basis": lambda: tp.verify(damaged),
        "entangled basis": lambda: tp.verify(broken.effects),
        **{mode: (lambda mode=mode: tp.verify(replace(broken, mode=mode))) for mode in tp.MODES},
        "weight": lambda: tp.recover_weight_from_unitary_gram(basis),
        "weighted Gram": lambda: tp.weighted_gram(damaged.elements, np.eye(d) / d),
        "loads": lambda: tp.loads(text),
        "dumps": lambda: tp.dumps(document),
        "teleport_state": lambda: tp.teleport_state(scheme, rho),
    }
    serial = {name: call() for name, call in calls.items()}
    assert not any(serial[name] for name in ("basis", "entangled basis", *tp.MODES))
    with ThreadPoolExecutor(4) as pool:
        futures = [(name, pool.submit(call)) for _ in range(4) for name, call in calls.items()]
        for name, future in futures:
            _assert_same(future.result(), serial[name])
