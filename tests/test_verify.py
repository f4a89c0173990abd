"""The one verdict type and the one dispatcher, ``tp.verify``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tightport as tp

NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0)]


def test_verify_dispatches_by_kind():
    basis = tp.weyl_basis(3)
    scheme = tp.build_scheme(basis)
    pairs = [
        (basis, tp.verify_orthonormal),
        (scheme.effects, tp.verify_entangled_basis),
        (scheme, tp.verify_teleportation),
        (tp.swap_roles(scheme), tp.verify_dense_coding),
    ]
    for obj, verifier in pairs:
        got, expected = tp.verify(obj, 1e-12), verifier(obj, 1e-12)
        assert (got.passed, got.deviation, got.witness) == (
            expected.passed, expected.deviation, expected.witness
        )
        np.testing.assert_equal(got.table, expected.table)
    with pytest.raises(TypeError):
        tp.verify(tp.fourier_hadamard(3))


def test_worst_takes_the_first_nan_and_fails_closed():
    result = tp.CheckResult.worst([[0.0, 2.0], [np.nan, np.nan]], 10.0, "entry ({}, {})".format)
    assert not result.passed and np.isnan(result.deviation)
    assert result.witness == "entry (1, 0)"
    tie = tp.CheckResult.worst([1.0, 3.0, 3.0], 5.0, "entry {}".format)
    assert tie.passed and tie.deviation == 3.0 and tie.witness == "entry 1"


def test_empty_objects_are_rejected():
    # an empty family has no worst entry, so no verdict on it can be built
    with pytest.raises(tp.DimensionMismatch):
        tp.UnitaryBasis(0, np.zeros((0, 0, 0)))
    with pytest.raises(tp.DimensionMismatch):
        tp.MaxEntangledBasis(0, np.zeros((0, 0)))
    with pytest.raises(tp.DimensionMismatch):
        tp.weighted_gram(np.zeros((0, 2, 2)), np.eye(2))
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
    "depolarizer probe": lambda d, put: tp.verify_depolarizer(
        tp.weyl_basis(d), [np.eye(d), put(np.ones((d, d)))]
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
