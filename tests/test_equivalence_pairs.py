"""Every Gram verdict on a Latin family F and on F' = apply_equivalence(F, V1, V2).

The equivalence preserves each identity of the theorem, but it fills in F's zeros.  So F takes
the structured reading (``_monomial``, grouped into blocks by ``_groups``) and F' the dense
products, and each verdict must give the same ``passed`` on both.  Where the table itself is
invariant (the element Gram, the entangled vectors' Gram and the Gram weighted by I/d) the
tables must also agree, to within ``ROUNDING`` max(1, |entry|), and so must the deviations of
the two verdicts that are that table alone; the others add a per-element or per-unit gap whose
largest entry V1 and V2 move.  The damages are made to F before it is mapped.
"""

import numpy as np
import pytest

import tightport as tp
from conftest import random_density, random_unitary

ROUNDING = 1e-12

FAMILIES = {
    10: lambda: tp.weyl_basis(10),
    12: lambda: tp.tensor_bases(tp.weyl_basis(3), tp.weyl_basis(4)),
    16: lambda: tp.weyl_basis(16),
}


def _damaged(elements, damage):
    """``elements`` with one damage: element 0 at a nonzero or a zero entry, or element 1; or
    element 0 copied onto the last element of another group (the column in row 0), or elements 1
    and n - 1 each moved by 1e-6 in a seeded dense direction, which leaves element 0 intact."""
    out = elements.copy()
    nonzero, zero = np.argwhere(out[0] != 0)[1], np.argwhere(out[0] == 0)[0]
    if damage == "perturbed":
        out[0][tuple(nonzero)] += 1e-6
    elif damage == "duplicated":
        out[1] = out[0]
    elif damage == "duplicated across groups":
        first = (out[:, 0] != 0).argmax(axis=1)
        out[np.flatnonzero(first != first[0])[-1]] = out[0]
    elif damage == "two elements perturbed":
        for x in (1, len(out) - 1):
            out[x] += 1e-6 * np.random.default_rng(x).standard_normal(out[x].shape)
    elif damage == "phase":
        out[1][tuple(np.argwhere(out[1] != 0)[0])] *= 1 + 1e-6
    elif damage != "intact":
        value, where = damage.split(" at ")
        out[0][tuple(zero if where == "zero" else nonzero)] = float(value)
    return out


DAMAGES = ["intact", "perturbed", "duplicated", "phase", "duplicated across groups",
           "two elements perturbed"] + [
    f"{value} at {where}" for value in ("nan", "inf", "-inf") for where in ("zero", "nonzero")
]


def _verdicts(basis):
    entangled = tp.basis_to_entangled(basis)
    try:
        tp.recover_weight_from_unitary_gram(basis)
        weight = True
    except tp.NoSolution:
        weight = False
    return weight, {
        "orthonormal": tp.verify_orthonormal(basis),
        "depolarizer": tp.verify_depolarizer(basis),
        "entangled basis": tp.verify_entangled_basis(entangled),
        "completeness": tp.check_projector_completeness(entangled.vectors),
        "weighted Gram": tp.weighted_gram(basis.elements, np.eye(basis.d) / basis.d),
    }


def _assert_close(a, b):
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    finite = np.isfinite(a)
    assert (finite == np.isfinite(b)).all()
    assert (np.abs(a - b)[finite] <= ROUNDING * np.maximum(1, np.abs(a[finite]))).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("d", sorted(FAMILIES))
def test_a_latin_family_and_its_dense_equivalent_agree(d, damage):
    rng = np.random.default_rng(d)
    v1, v2 = random_unitary(rng, d), random_unitary(rng, d)
    family = tp.UnitaryBasis(d, _damaged(FAMILIES[d]().elements, damage))
    weight, latin = _verdicts(family)
    dense_weight, dense = _verdicts(tp.apply_equivalence(family, v1, v2))
    assert weight == dense_weight == (damage == "intact")
    for name, verdict in latin.items():
        assert verdict.passed == dense[name].passed == (damage == "intact"), name
    for name in ("orthonormal", "completeness", "weighted Gram"):
        _assert_close(latin[name].table, dense[name].table)
    for name in ("completeness", "weighted Gram"):
        _assert_close(latin[name].deviation, dense[name].deviation)


# Every scheme verdict and conversion on F's scheme and on its image F': channels V1 U_x V2,
# effect matrices V1 phi_x V2, and the resource W^T -> V2* W^T V2 for teleportation or
# W -> V2* W V2 for dense coding, so that each T'_x = U'_x R' phi'_x* is V1 T_x V1* in the
# reading the image is made for.  Each check runs on that image.  The basis damages are made
# to F's elements before its scheme is built; "channel" twists channel 0 by
# diag(e^{1e-6 i}, 1, ...), "inf in channel 5" sets the nonzero entry of that channel's row 0
# to +inf, and "resource" makes W = diag(e^{1e-6 i k}) / sqrt(d).
SCHEME_FAMILIES = {**FAMILIES, 24: lambda: tp.weyl_basis(24), 32: lambda: tp.weyl_basis(32)}
SCHEME_DAMAGES = DAMAGES + ["channel", "inf in channel 5", "resource"]
SCHEME_CASES = [(d, damage) for d in sorted(FAMILIES) for damage in SCHEME_DAMAGES]
SCHEME_CASES += [(24, "intact"), (24, "channel"), (32, "intact")]  # d = 32 costs 1 s a case


def _scheme_parts(d, damage):
    """F's resource matrix W, channels and effect matrices, with one damage."""
    elements = SCHEME_FAMILIES[d]().elements
    basis = tp.UnitaryBasis(d, _damaged(elements, damage) if damage in DAMAGES else elements)
    w, channels = np.eye(d) / np.sqrt(d), basis.elements.copy()
    if damage == "channel":
        channels[0][:, 0] *= np.exp(1e-6j)
    elif damage == "inf in channel 5":
        channels[5][0, np.flatnonzero(channels[5][0])[0]] = np.inf
    elif damage == "resource":
        w = np.diag(np.exp(1e-6j * np.arange(d))) / np.sqrt(d)
    return w, channels, tp.basis_to_entangled(basis).vectors.reshape(-1, d, d)


def _scheme(w, channels, effects, mode, v1=None, v2=None):
    """The scheme of these parts in ``mode``, or with V1 and V2 its image for that reading."""
    d = len(w)
    if v1 is not None:
        channels, effects = v1 @ channels @ v2, v1 @ effects @ v2
        w = v2.conj().T @ w @ v2 if mode == tp.DENSE_CODING else (v2.conj().T @ w.T @ v2).T
    return tp.TightScheme(d, w.reshape(-1), channels,
                          tp.MaxEntangledBasis(d, effects.reshape(d * d, -1)), mode)


def _scheme_verdicts(teleportation, dense_coding, rho):
    """Each verdict and conversion on the schemes for its reading, ``rho`` the input state."""
    try:
        tp.extract_basis_from_scheme(teleportation)
        extracted = True
    except tp.TightportError:
        extracted = False
    output, probabilities = tp.teleport_state(teleportation, rho)
    d = len(rho)
    teleported = bool(np.abs(output - rho).max() <= tp.DEFAULT_TOL
                      and np.abs(probabilities - 1 / d ** 2).max() <= tp.DEFAULT_TOL)
    return extracted, teleported, {
        "verify teleportation": tp.verify(teleportation),
        "verify dense coding": tp.verify(dense_coding),
        "teleportation": tp.verify_teleportation(teleportation),
        "dense coding": tp.verify_dense_coding(dense_coding),
        "entangled basis": tp.verify_entangled_basis(teleportation.effects),
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d, damage", SCHEME_CASES)
def test_a_latin_scheme_and_its_dense_equivalent_agree(d, damage):
    rng = np.random.default_rng(d)
    v1, v2, rho = random_unitary(rng, d), random_unitary(rng, d), random_density(rng, d)
    parts = _scheme_parts(d, damage)
    latin = _scheme_verdicts(_scheme(*parts, tp.TELEPORTATION),
                             _scheme(*parts, tp.DENSE_CODING), rho)
    dense = _scheme_verdicts(_scheme(*parts, tp.TELEPORTATION, v1, v2),
                             _scheme(*parts, tp.DENSE_CODING, v1, v2), v1 @ rho @ v1.conj().T)
    intact = damage == "intact"
    assert latin[:2] == dense[:2] and latin[0] == intact
    assert latin[1] or not intact
    for name, verdict in latin[2].items():
        assert verdict.passed == dense[2][name].passed, name
    for name in ("verify teleportation", "verify dense coding"):
        assert latin[2][name].passed == intact, name
    for name in ("dense coding", "entangled basis"):
        _assert_close(latin[2][name].table, dense[2][name].table)
    if damage == "inf in channel 5":  # a monomial reading that let the inf through names an outcome
        for verdicts in (latin, dense):
            for name in ("verify teleportation", "verify dense coding"):
                assert verdicts[2][name].witness == "channel 5 is not unitary", name
