"""Every Gram verdict on a Latin family F and on F' = apply_equivalence(F, V1, V2).

The equivalence preserves each identity of the theorem, but it fills in F's zeros.  So F takes the structured readings (``_blocks``,
``_monomial``) and F' the dense products, and each verdict must give the same ``passed`` on
both.  Where the table itself is invariant (the element Gram, the entangled vectors' Gram and
the Gram weighted by I/d) the tables must also agree, to within ``ROUNDING`` max(1, |entry|),
and so must the deviations of the two verdicts that are that table alone; the others add a
per-element or per-unit gap whose largest entry V1 and V2 move.  The damages are made to F
before it is mapped.
"""

import numpy as np
import pytest

import tightport as tp
from conftest import random_unitary

ROUNDING = 1e-12

FAMILIES = {
    10: lambda: tp.weyl_basis(10),
    12: lambda: tp.tensor_bases(tp.weyl_basis(3), tp.weyl_basis(4)),
    16: lambda: tp.weyl_basis(16),
}


def _damaged(elements, damage):
    """``elements`` with one damage: element 0 at a nonzero or a zero entry, or element 1."""
    out = elements.copy()
    nonzero, zero = np.argwhere(out[0] != 0)[1], np.argwhere(out[0] == 0)[0]
    if damage == "perturbed":
        out[0][tuple(nonzero)] += 1e-6
    elif damage == "duplicated":
        out[1] = out[0]
    elif damage == "phase":
        out[1][tuple(np.argwhere(out[1] != 0)[0])] *= 1 + 1e-6
    elif damage != "intact":
        value, where = damage.split(" at ")
        out[0][tuple(zero if where == "zero" else nonzero)] = float(value)
    return out


DAMAGES = ["intact", "perturbed", "duplicated", "phase"] + [
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
