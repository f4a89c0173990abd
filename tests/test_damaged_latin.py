"""A Latin family with a few odd matrices keeps its structured verdicts.

A matrix of a stack is odd if it is not a permutation times finite phases, or, for a Gram
matrix, if it is past its group's d members (a copy of an element of another group).  From 100
matrices on, with matrix 0 a permutation times phases and k <= d odd matrices, each Gram verdict
takes the d blocks and a border of the k odd rows, each unitarity check the odd matrices'
products, and the outcome identity the odd outcomes' T_x.  Every verdict must agree with the
product path: with the same family moved by ``apply_equivalence``, which fills in its zeros (as
``tests/test_equivalence_pairs.py`` compares them), and with the oracles at d <= 12.  Past d odd
matrices, and below 100 matrices, every verdict must be the product path's bit for bit, the
product path taken by reading each stack with ``_monomial``'s strict form alone and taking no
group past its d members.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tightport as tp
from conftest import random_twist, random_unitary
from test_bases import _designs
from test_equivalence_pairs import ROUNDING, _assert_close, _scheme
from tightport import schemes, tensor

KINDS = ["perturbed", "duplicated across groups", "twisted channel"] + [
    f"{value} at {where}" for value in ("nan", "inf", "-inf", "1e200")
    for where in ("zero", "nonzero")]


def _family(rng, d, name):
    if name == "weyl":
        return tp.weyl_basis(d)
    if name == "shift-multiply":
        return tp.shift_multiply_basis(*_designs(rng, d))
    f = int(rng.choice([f for f in range(2, d) if d % f == 0]))
    return tp.tensor_bases(tp.weyl_basis(f), _family(rng, d // f, "shift-multiply"))


def _parts(rng, basis, kind, count, size, element_0=False):
    """The elements, and the resource matrix W, channels and effect matrices of their scheme, with
    ``count`` elements damaged by ``kind`` (the channels alone for a twist), element 0 among them
    if ``element_0``, except where they are copies of element 0."""
    d, elements = basis.d, basis.elements.copy()
    odd = rng.choice(np.arange(1, d * d), count, replace=False)
    if element_0:
        odd[0] = 0
    if kind == "duplicated across groups":  # copies of element 0 outside its group, its column
        first = (elements[:, 0] != 0).argmax(axis=1)  # in row 0: as many past its group's d
        odd = rng.choice(np.flatnonzero(first != first[0]), count, replace=False)
        elements[odd] = elements[0]
    elif kind == "perturbed":
        for x in odd:
            direction = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            elements[x] += size * direction / np.linalg.norm(direction)
    elif kind != "twisted channel":
        value, where = kind.split(" at ")
        for x in odd:
            entries = np.argwhere((elements[x] != 0) == (where == "nonzero"))
            elements[x][tuple(entries[rng.integers(len(entries))])] = float(value)
    damaged = tp.UnitaryBasis(d, elements)
    channels = elements.copy()
    if kind == "twisted channel":
        for x in odd:
            channels[x] = channels[x] @ random_twist(rng, d, size)
    effects = tp.basis_to_entangled(damaged).vectors.reshape(-1, d, d)
    return elements, (np.eye(d) / np.sqrt(d), channels, effects)


def _verdicts(elements, parts, v1=None, v2=None):
    """Every verdict the reading serves, on the values of ``elements`` and of the scheme ``parts``,
    or on their images under V1 and V2."""
    w, channels, effects = parts
    d = len(w)
    basis = tp.UnitaryBasis(d, elements)
    if v1 is not None:
        basis = tp.apply_equivalence(basis, v1, v2)
    entangled = tp.basis_to_entangled(basis)
    teleportation = _scheme(w, channels, effects, tp.TELEPORTATION, v1, v2)
    dense_coding = _scheme(w, channels, effects, tp.DENSE_CODING, v1, v2)
    conversions = {}
    for name, convert in (("entangled_to_basis", tp.entangled_to_basis),
                          ("extraction", tp.extract_basis_from_scheme)):
        try:
            conversions[name] = convert(
                entangled if name == "entangled_to_basis" else teleportation)
        except tp.TightportError as error:
            conversions[name] = error
    return conversions, {
        "orthonormal": tp.verify_orthonormal(basis),
        "entangled basis": tp.verify_entangled_basis(entangled),
        "completeness": tp.check_projector_completeness(entangled.vectors),
        "teleportation": tp.verify_teleportation(teleportation),
        "verify teleportation": tp.verify(teleportation),
        "verify dense coding": tp.verify(dense_coding),
    }


def _entry(witness):
    return tuple(int(i) for i in witness.rsplit("(", 1)[1].rstrip(")").split(", "))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(d=st.integers(10, 16), family=st.sampled_from(["weyl", "shift-multiply", "product"]),
       kind=st.sampled_from(KINDS), count=st.sampled_from(["1", "2", "d", "d + 1", "0 and 1"]),
       exponent=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_a_damaged_latin_family_agrees_with_the_product_path(d, family, kind, count, exponent,
                                                             seed):
    # d + 1 odd elements, or element 0 odd, leave the elements with no reading: the products
    rng = np.random.default_rng(seed)
    if family == "product" and all(d % f for f in range(2, d)):
        family = "weyl"  # d = 11 and 13 have no factors
    basis = _family(rng, d, family)
    n = {"d": d, "d + 1": d + 1, "0 and 1": 2}.get(count) or int(count)
    elements, parts = _parts(rng, basis, kind, n, 10.0 ** -exponent, element_0=count == "0 and 1")
    reading, expected = tensor._monomial(elements), oracles.monomial(elements)
    assert reading is expected is None or all(  # bit for bit the reading row by row
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(reading, expected))
    if kind not in ("twisted channel", "duplicated across groups"):  # the reading is taken
        assert (reading and len(reading[2])) == (n if count in ("1", "2", "d") else None)
    v1, v2 = random_unitary(rng, d), random_unitary(rng, d)
    latin, dense = _verdicts(elements, parts), _verdicts(elements, parts, v1, v2)
    for name in latin[0]:
        assert isinstance(latin[0][name], tp.TightportError) == isinstance(
            dense[0][name], tp.TightportError), name
    for name, verdict in latin[1].items():
        assert verdict.passed == dense[1][name].passed, name
    # the Gram tables are invariant under the move, and the completeness verdict is its table's;
    # an entry of 1e200 overflows wherever the move spreads it, so there only ``passed`` compares
    for name in ("orthonormal", "entangled basis", "completeness", "verify teleportation",
                 "verify dense coding")[:0 if kind.startswith("1e200") else None]:
        _assert_close(latin[1][name].table, dense[1][name].table)
    got, expected = latin[1]["completeness"], dense[1]["completeness"]
    if not kind.startswith("1e200"):
        _assert_close(got.deviation, expected.deviation)
        gap = tensor._identity_gap(expected.table)[_entry(got.witness)]  # a tie within rounding
        assert gap != gap if expected.deviation != expected.deviation else (
            gap >= expected.deviation - ROUNDING * max(1, expected.deviation))
    if d <= 12:  # the literal definitions, on the family itself
        w, channels, effects = parts
        gram, unitary = oracles.orthonormal(elements)
        reduced = oracles.entangled_basis(effects.reshape(d * d, -1), d)[1]
        outcomes = oracles.teleportation_outcomes(_scheme(w, channels, effects, tp.TELEPORTATION))
        for name, deviation in (("orthonormal", max(gram, unitary)), ("completeness", gram),
                                ("entangled basis", max(gram, reduced.max())),
                                ("teleportation", outcomes.max())):
            verdict = latin[1][name]
            _assert_close(verdict.deviation, deviation)
            assert verdict.passed == (deviation <= tp.DEFAULT_TOL), name
        witness = latin[1]["teleportation"].witness
        if "T_x" in witness and np.isfinite(outcomes).all():
            x = int(witness.split()[1].rstrip(":"))
            assert outcomes[x] >= outcomes.max() - ROUNDING * max(1, outcomes.max())


def _same_bits(a, b):
    if isinstance(a, tp.TightportError):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, tp.UnitaryBasis):
        return isinstance(b, tp.UnitaryBasis) and a.elements.tobytes() == b.elements.tobytes()
    return (a.passed == b.passed and a.witness == b.witness
            and np.float64(a.deviation).tobytes() == np.float64(b.deviation).tobytes()
            and (a.table is None) == (b.table is None)
            and (a.table is None or a.table.tobytes() == b.table.tobytes()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [6, 9, 10, 12])
def test_past_d_odd_matrices_and_below_100_each_verdict_is_the_products(monkeypatch, d, kind):
    # d + 1 odd matrices from 100 on; below 100 no stack is read, however few are odd
    rng = np.random.default_rng(d)
    elements, parts = _parts(rng, tp.weyl_basis(d), kind, d + 1 if d * d >= 100 else 2, 1e-6)
    got = _verdicts(elements, parts)
    monomial, groups = tensor._monomial, tensor._groups
    for module in (tensor, schemes):  # a reading with odd matrices taken as none
        monkeypatch.setattr(module, "_monomial", lambda stack, least=tensor._REAL_GRAM_ROWS: (
            lambda found: None if found and len(found[2]) else found)(monomial(stack, least)))
    monkeypatch.setattr(tensor, "_groups", lambda *args, **kwargs: (  # no group past its d
        lambda found: found if not found or len(found) < 3 or not len(found[2]) else None)(
            groups(*args, **kwargs)))
    expected = _verdicts(elements, parts)
    for name in got[0]:
        assert _same_bits(got[0][name], expected[0][name]), name
    for name in got[1]:
        assert _same_bits(got[1][name], expected[1][name]), name
