import json
import re

import numpy as np
import pytest

from tightport import (
    ParseError,
    basis_to_entangled,
    build_scheme,
    document_to_object,
    dumps,
    fourier_hadamard,
    latin_from_cyclic,
    load,
    loads,
    make_document,
    save,
    verify_entangled_basis,
    weyl_basis,
)
from tightport.schemes import TightScheme


def all_kinds():
    basis = weyl_basis(2)
    return [
        latin_from_cyclic(3),
        fourier_hadamard(3),
        basis,
        basis_to_entangled(basis),
        build_scheme(basis),
    ]


@pytest.mark.parametrize("obj", all_kinds(), ids=lambda o: type(o).__name__)
def test_round_trip_preserves_payload(obj):
    doc = make_document(obj, meta="round trip")
    back = loads(dumps(doc))
    assert back.kind == doc.kind
    assert back.d == doc.d
    assert back.meta == "round trip"
    for key, value in doc.payload.items():
        if key == "mode":
            assert back.payload[key] == value
        else:
            np.testing.assert_allclose(back.payload[key], value, atol=0)


@pytest.mark.parametrize("obj", all_kinds(), ids=lambda o: type(o).__name__)
def test_round_trip_objects_reconstruct(obj):
    doc = loads(dumps(make_document(obj)))
    rebuilt = document_to_object(doc)
    assert type(rebuilt) is type(obj)


def test_dumps_is_deterministic():
    doc = make_document(weyl_basis(2), meta="same")
    assert dumps(doc) == dumps(doc)


def test_save_and_load(tmp_path):
    path = tmp_path / "basis.json"
    save(make_document(weyl_basis(2), meta="file"), path)
    doc = load(path)
    assert doc.kind == "unitary_basis"
    assert doc.meta == "file"


def test_entangled_document_reloads_valid(tmp_path):
    entangled = basis_to_entangled(weyl_basis(3))
    path = tmp_path / "e.json"
    save(make_document(entangled), path)
    rebuilt = document_to_object(load(path))
    assert verify_entangled_basis(rebuilt).passed


def test_version_guard():
    text = dumps(make_document(latin_from_cyclic(2)))
    data = json.loads(text)
    data["v"] = 2
    with pytest.raises(ParseError, match="version"):
        loads(json.dumps(data))


def test_unknown_top_level_field_rejected():
    data = json.loads(dumps(make_document(latin_from_cyclic(2))))
    data["extra"] = 1
    with pytest.raises(ParseError, match="unknown field"):
        loads(json.dumps(data))


def test_unknown_payload_field_rejected():
    data = json.loads(dumps(make_document(latin_from_cyclic(2))))
    data["payload"]["note"] = "hi"
    with pytest.raises(ParseError, match="unknown field"):
        loads(json.dumps(data))


def test_missing_field_rejected():
    data = json.loads(dumps(make_document(fourier_hadamard(2))))
    del data["payload"]["matrix"]
    with pytest.raises(ParseError, match="missing field"):
        loads(json.dumps(data))


def test_truncated_text_rejected():
    text = dumps(make_document(latin_from_cyclic(2)))
    with pytest.raises(ParseError, match="invalid JSON"):
        loads(text[: len(text) // 2])


def test_wrong_shape_rejected():
    data = json.loads(dumps(make_document(fourier_hadamard(2))))
    data["payload"]["matrix"][0] = data["payload"]["matrix"][0][:1]
    with pytest.raises(ParseError, match="payload.matrix"):
        loads(json.dumps(data))


def test_malformed_complex_entry_rejected():
    data = json.loads(dumps(make_document(fourier_hadamard(2))))
    data["payload"]["matrix"][0][0] = [1.0, 0.0, 0.0]
    with pytest.raises(ParseError, match=r"matrix\[0\]\[0\]"):
        loads(json.dumps(data))


def test_non_finite_rejected():
    data = dumps(make_document(fourier_hadamard(2)))
    broken = data.replace("1.0", "Infinity", 1)
    with pytest.raises(ParseError):
        loads(broken)


@pytest.mark.parametrize(
    "number",
    ["1e400", "-1e400", "9" * 400, "-" + "9" * 400],
    ids=["1e400", "-1e400", "400-digit", "-400-digit"],
)
def test_out_of_range_number_rejected_at_its_entry(number):
    data = json.loads(dumps(make_document(build_scheme(weyl_basis(2)))))
    data["payload"]["effect_vectors"][3][1] = ["HUGE", 0.0]
    text = json.dumps(data).replace('"HUGE"', number)
    with pytest.raises(ParseError, match=re.escape("payload.effect_vectors[3][1]")):
        loads(text)


def test_huge_finite_entries_still_load():
    # their sum overflows, which must not be mistaken for a non-finite entry
    data = json.loads(dumps(make_document(fourier_hadamard(2))))
    data["payload"]["matrix"][0] = [[1e308, 0.0], [1e308, 0.0]]
    assert loads(json.dumps(data)).payload["matrix"][0, 1] == 1e308


def test_out_of_range_integer_rejected_in_grid():
    data = json.loads(dumps(make_document(latin_from_cyclic(3))))
    data["payload"]["grid"][2][1] = 10**400
    with pytest.raises(ParseError, match=re.escape("payload.grid[2][1]")):
        loads(json.dumps(data))


def test_unknown_kind_rejected():
    data = json.loads(dumps(make_document(latin_from_cyclic(2))))
    data["kind"] = "sudoku"
    with pytest.raises(ParseError, match="kind"):
        loads(json.dumps(data))


def test_bad_scheme_mode_rejected():
    data = json.loads(dumps(make_document(build_scheme(weyl_basis(2)))))
    data["payload"]["mode"] = "sideways"
    with pytest.raises(ParseError, match="mode"):
        loads(json.dumps(data))


def test_corrupted_entries_still_load():
    # content corruption is a verification problem, not a parse problem
    data = json.loads(dumps(make_document(fourier_hadamard(2))))
    data["payload"]["matrix"][0][0] = [1.01, 0.0]
    doc = loads(json.dumps(data))
    assert doc.payload["matrix"][0, 0] == 1.01


def test_document_to_object_validates_designs():
    from tightport import DesignInvalid

    data = json.loads(dumps(make_document(latin_from_cyclic(2))))
    data["payload"]["grid"] = [[0, 1], [0, 1]]
    doc = loads(json.dumps(data))  # loads fine
    with pytest.raises(DesignInvalid):
        document_to_object(doc)


def test_mixed_resource_scheme_not_serializable():
    scheme = build_scheme(weyl_basis(2))
    dense = TightScheme(
        scheme.d,
        np.outer(scheme.omega, scheme.omega.conj()),
        scheme.channel_unitaries,
        scheme.effects,
        scheme.mode,
    )
    with pytest.raises(ParseError):
        make_document(dense)
