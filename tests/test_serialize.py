import gc
import hashlib
import json
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_unitary
from tightport import (
    DesignDocument,
    ParseError,
    UnitaryBasis,
    apply_equivalence,
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
from tightport import serialize
from tightport.schemes import TightScheme
from tightport.serialize import _decode_nested, _loads_walked


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


def frozen_values():
    return [*all_kinds(), make_document(weyl_basis(2))]


@pytest.mark.parametrize(
    "value,twin", zip(frozen_values(), frozen_values()), ids=lambda v: type(v).__name__
)
def test_values_are_frozen_and_compare_by_identity(value, twin):
    """Arrays are read-only, a document's payload is the only mutable container
    a value holds, and equality is identity, so values hash."""
    for name, attr in vars(value).items():
        if isinstance(attr, np.ndarray):
            assert not attr.flags.writeable, name
        elif not (isinstance(value, DesignDocument) and name == "payload"):
            assert not isinstance(attr, (dict, list, set)), name
    assert value == value and value != twin and value in [twin, value]
    assert len({value, twin}) == 2


def test_values_hold_copies_of_their_arrays():
    elements = weyl_basis(2).elements.copy()
    basis = UnitaryBasis(2, elements)
    elements[0] = 0
    assert elements.flags.writeable and basis.elements[0, 0, 0] == 1


@pytest.mark.parametrize("obj", all_kinds(), ids=lambda o: type(o).__name__)
def test_document_shares_the_objects_read_only_arrays(obj):
    doc = make_document(obj)
    copied = {}
    for key, value in doc.payload.items():
        if isinstance(value, np.ndarray):
            source = getattr(obj, key) if hasattr(obj, key) else obj.effects.vectors
            assert np.shares_memory(value, source) and not value.flags.writeable, key
            value = value.copy()
        copied[key] = value
    assert dumps(doc) == dumps(DesignDocument(doc.kind, doc.d, copied, doc.meta))


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(enabled):
    text = dumps(make_document(weyl_basis(2)))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        loads(text)
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            loads(text.replace('"d": 2', '"d": 0'))
        assert gc.isenabled() is enabled
        dumps(make_document(weyl_basis(2)))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_dumps_is_deterministic():
    doc = make_document(weyl_basis(2), meta="same")
    assert dumps(doc) == dumps(doc)


def test_save_and_load(tmp_path):
    path = tmp_path / "basis.json"
    save(make_document(weyl_basis(2), meta="file"), path)
    doc = load(path)
    assert doc.kind == "unitary_basis"
    assert doc.meta == "file"


def non_utf8_files():
    text = dumps(make_document(weyl_basis(2), meta="x"))
    return [
        ("latin-1 meta", text.replace('"x"', '"\xe9"').encode("latin-1"),
         f"invalid JSON: not UTF-8 at byte {text.index('x')}"),
        ("utf-16", text.encode("utf-16"), "invalid JSON: not UTF-8 at byte 0"),
        ("utf-8 with a BOM", ("\ufeff" + text).encode(),
         "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ]


@pytest.mark.parametrize("case", non_utf8_files(), ids=lambda c: c[0])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, case):
    _, data, message = case
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == message
    assert parse_error(data) == message
    assert parse_error(b"\xff") == "invalid JSON: not UTF-8 at byte 0"


def test_utf8_bytes_and_text_read_alike(tmp_path):
    # a lone surrogate is no UTF-8, but a str may hold one, as json reads it
    text = dumps(make_document(weyl_basis(2), meta="x"))
    path = tmp_path / "doc.json"
    path.write_text(text.replace('"x"', '"\u00e9"') + "\r\n", encoding="utf-8")
    assert outcome(load, path) == outcome(loads, text.replace('"x"', '"\u00e9"'))
    assert loads(text.replace('"x"', '"\ud800"')).meta == "\ud800"


def test_document_to_object_copies_the_callers_arrays():
    doc = make_document(weyl_basis(3))
    basis = document_to_object(doc)
    assert not np.shares_memory(basis.elements, doc.payload["elements"])


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


def deeply_nested_text(where: str) -> str:
    """A document nested 100,000 lists deep: bare, or under ``payload.grid``."""
    nested = "[" * 100_000 + "]" * 100_000
    if where == "bare":
        return nested
    data = json.loads(dumps(make_document(latin_from_cyclic(2))))
    data["payload"]["grid"] = "NESTED"
    return json.dumps(data).replace('"NESTED"', nested)


@pytest.mark.parametrize("where", ["bare", "payload.grid"])
def test_deep_nesting_rejected(where):
    with pytest.raises(ParseError, match="invalid JSON: nesting too deep"):
        loads(deeply_nested_text(where))


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


# ---------------------------------------------------------------------------
# whole-array decoding: every payload number must be a JSON number, and the
# accepted array and every error message must be those of the per-entry walk

D2_DOCS = {
    "hadamard": make_document(fourier_hadamard(2)),
    "unitary_basis": make_document(weyl_basis(2)),
    "entangled_basis": make_document(basis_to_entangled(weyl_basis(2))),
    "scheme": make_document(build_scheme(weyl_basis(2))),
}

# (document kind, payload field, index of the damaged [re, im] entry)
TARGETS = [
    ("hadamard", "matrix", (1, 0)),
    ("unitary_basis", "elements", (2, 1, 0)),
    ("entangled_basis", "vectors", (3, 1)),
    ("scheme", "omega", (2,)),
    ("scheme", "channel_unitaries", (1, 0, 1)),
    ("scheme", "effect_vectors", (3, 2)),
]
SHAPES = {"matrix": (2, 2), "elements": (4, 2, 2), "vectors": (4, 4),
          "omega": (4,), "channel_unitaries": (4, 2, 2), "effect_vectors": (4, 4)}


def target_id(target):
    return f"{target[1]}{list(target[2])}"


def entry_location(target):
    return f"payload.{target[1]}" + "".join(f"[{i}]" for i in target[2])


def document_with(target, literal, *, part=None):
    """A d=2 document text whose target entry (or one part of it) is ``literal``.

    The target entry starts as [0.5, 0.25]; ``literal`` is raw JSON text, so
    numbers JSON cannot round-trip through Python (1e400) go in verbatim.
    """
    kind, field, index = target
    data = json.loads(dumps(D2_DOCS[kind]))
    *outer, last = index
    row = data["payload"][field]
    for i in outer:
        row = row[i]
    row[last] = [0.5, 0.25]
    if part is None:
        row[last] = "SENTINEL"
    else:
        row[last][part] = "SENTINEL"
    return json.dumps(data).replace('"SENTINEL"', literal)


BIG = "9" * 400
# (id, JSON literal, message when it replaces the whole pair,
#  message when it replaces the imaginary part, or None when that loads)
MALFORMED = [
    ("numeric-string", '"1.5"', "expected [re, im], got '1.5'",
     "expected [re, im], got [0.5, '1.5']"),
    ("true", "true", "expected [re, im], got True", "expected [re, im], got [0.5, True]"),
    ("false", "false", "expected [re, im], got False", "expected [re, im], got [0.5, False]"),
    ("null", "null", "expected [re, im], got None", "expected [re, im], got [0.5, None]"),
    ("object", "{}", "expected [re, im], got {}", "expected [re, im], got [0.5, {}]"),
    ("empty-list", "[]", "expected [re, im], got []", "expected [re, im], got [0.5, []]"),
    ("1-element", "[0.5]", "expected [re, im], got [0.5]",
     "expected [re, im], got [0.5, [0.5]]"),
    ("3-element", "[0.5, 0.25, 0.0]", "expected [re, im], got [0.5, 0.25, 0.0]",
     "expected [re, im], got [0.5, [0.5, 0.25, 0.0]]"),
    ("too-deep", "[[0.5, 0.25], [0.0, 0.0]]",
     "expected [re, im], got [[0.5, 0.25], [0.0, 0.0]]",
     "expected [re, im], got [0.5, [[0.5, 0.25], [0.0, 0.0]]]"),
    ("2**63", str(2**63), f"expected [re, im], got {2**63}", None),
    ("2**64", str(2**64), f"expected [re, im], got {2**64}", None),
    ("400-digit", BIG, f"expected [re, im], got {BIG}", "number out of range"),
    ("1e400", "1e400", "expected [re, im], got inf", "non-finite number is not allowed"),
]


def parse_error(text):
    with pytest.raises(ParseError) as info:
        loads(text)
    return str(info.value)


def assert_same_as_walk(doc, text):
    """Each complex payload is bit-identical to the per-entry walk's."""
    raw = json.loads(text)["payload"]
    for field, shape in SHAPES.items():
        if field in raw:
            walked = _decode_nested(raw[field], shape, field)
            got = doc.payload[field]
            assert got.dtype == walked.dtype and got.shape == walked.shape
            assert got.tobytes() == walked.tobytes(), field


@pytest.mark.parametrize("case", MALFORMED, ids=lambda c: c[0])
@pytest.mark.parametrize("target", TARGETS, ids=target_id)
def test_malformed_pair_rejected_with_walk_message(target, case):
    _, literal, pair_message, _ = case
    text = document_with(target, literal)
    assert parse_error(text) == f"{entry_location(target)}: {pair_message}"


@pytest.mark.parametrize("case", MALFORMED, ids=lambda c: c[0])
@pytest.mark.parametrize("target", TARGETS, ids=target_id)
def test_malformed_part_rejected_with_walk_message(target, case):
    _, literal, _, part_message = case
    text = document_with(target, literal, part=1)
    if part_message is not None:
        assert parse_error(text) == f"{entry_location(target)}: {part_message}"
        return
    doc = loads(text)
    assert doc.payload[target[1]][target[2]] == complex(0.5, int(literal))
    assert_same_as_walk(doc, text)


@pytest.mark.parametrize("target", TARGETS, ids=target_id)
def test_ragged_row_rejected_with_walk_message(target):
    kind, field, index = target
    data = json.loads(dumps(D2_DOCS[kind]))
    row = data["payload"][field]
    for i in index[:-1]:
        row = row[i]
    length = len(row)
    del row[index[-1]]
    row_location = f"payload.{field}" + "".join(f"[{i}]" for i in index[:-1])
    message = parse_error(json.dumps(data))
    assert message == f"{row_location}: expected a list of length {length}"


def test_negative_zero_keeps_its_sign():
    data = json.loads(dumps(D2_DOCS["hadamard"]))
    data["payload"]["matrix"][0][1] = [-0.0, -0.0]
    text = json.dumps(data)
    doc = loads(text)
    entry = doc.payload["matrix"][0, 1]
    assert np.signbit(entry.real) and np.signbit(entry.imag)
    assert_same_as_walk(doc, text)


@pytest.mark.parametrize("mixed", [False, True], ids=["all-int", "int-and-float"])
def test_integer_entries_accepted(mixed):
    data = json.loads(dumps(D2_DOCS["hadamard"]))
    data["payload"]["matrix"] = [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]
    if mixed:
        data["payload"]["matrix"][1][1] = [-1.0, 2**62 + 1]
    text = json.dumps(data)
    doc = loads(text)
    assert doc.payload["matrix"][0, 0] == 1
    assert_same_as_walk(doc, text)


def test_meta_holding_true_still_loads():
    doc = make_document(build_scheme(weyl_basis(2)), meta="true and false")
    text = dumps(doc)
    back = loads(text)
    assert back.meta == "true and false"
    assert_same_as_walk(back, text)
    for field in ("omega", "channel_unitaries", "effect_vectors"):
        assert back.payload[field].tobytes() == doc.payload[field].tobytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    target=st.sampled_from(TARGETS),
    part=st.sampled_from([None, 0, 1]),
    value=JSON_VALUES,
)
def test_fuzzed_entry_is_rejected_or_decoded_as_the_walk_does(target, part, value):
    text = document_with(target, json.dumps(value), part=part)
    try:
        doc = loads(text)
    except ParseError:
        return
    assert_same_as_walk(doc, text)


# ---------------------------------------------------------------------------
# the layout dumps writes is read without json.loads of the whole text: every
# number token, key and separator must still read as json and the walk read it

# (id, JSON literal for one part of the target entry, the error message, or
#  None when the document loads; "invalid JSON" stands for json's own message,
#  {location} for the entry's location and {pair} for the entry as parsed)
TOKEN_TRAPS = [
    ("integer-minus-zero", "-0", None),  # json reads the integer 0: +0.0, not -0.0
    ("leading-zero", "01", "invalid JSON"),
    ("trailing-dot", "1.", "invalid JSON"),
    ("leading-dot", ".5", "invalid JSON"),
    ("leading-plus", "+1", "invalid JSON"),
    ("minus-dot", "-.5", "invalid JSON"),
    ("dot-exponent", "1.e5", "invalid JSON"),
    ("bare-exponent", "1e", "invalid JSON"),
    ("capital-exponent", "1E5", None),
    ("zero-padded-exponent", "1e05", None),
    ("2**53+1", str(2**53 + 1), None),
    ("400-digit", BIG, "{location}: number out of range"),
    ("1e400", "1e400", "{location}: non-finite number is not allowed"),
    ("smallest-subnormal", "5e-324", None),
    ("NaN", "NaN", "non-finite number NaN is not allowed"),
    ("Infinity", "Infinity", "non-finite number Infinity is not allowed"),
    ("true", "true", "{location}: expected [re, im], got {pair}"),
]


@pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
@pytest.mark.parametrize("case", TOKEN_TRAPS, ids=lambda c: c[0])
@pytest.mark.parametrize("target", TARGETS, ids=target_id)
def test_number_token_reads_as_the_walk_reads_it(target, case, part):
    _, literal, message = case
    text = document_with(target, literal, part=part)
    if message is None:
        assert_same_as_walk(loads(text), text)
        return
    if message == "invalid JSON":
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(text)
        message = f"invalid JSON: {info.value}"
    pair = [0.5, 0.25]
    pair[part] = True
    assert parse_error(text) == message.format(location=entry_location(target), pair=pair)


# spellings of a zero entry next to the "[0.0, 0.0]" that loads sets unparsed
ZERO_ENTRIES = ["[0.0, 0.0]", "[0.0, -0.0]", "[-0.0, 0.0]", "[0.0, 0.00]", "[0.0, 0e0]",
                "[0, 0.0]", "[0.0, -0]", "[0.0,0.0]", "[0.0, 0.0 ]"]


@pytest.mark.parametrize("entry", ZERO_ENTRIES)
@pytest.mark.parametrize("target", TARGETS, ids=target_id)
def test_zero_entry_reads_as_the_walk_reads_it(target, entry):
    text = document_with(target, entry)
    assert_same_as_walk(loads(text), text)


# a number character in a Hadamard document's matrix but outside the two
# slots of a pair, where the bracket-and-comma skeleton alone does not see it
STRAY_NUMBERS = [("after-open", "[[[", "[5[["), ("before-close", "]]]", "]]5]"),
                 ("after-comma", "], [", "],5 ["), ("before-open", "], [", "], 5["),
                 ("between-rows", "]], [[", "]], 5[["), ("trailing", "]]]}", "]]]5}"),
                 ("for-the-last-bracket", "]]]}", "]]5}")]


@pytest.mark.parametrize("case", STRAY_NUMBERS, ids=lambda c: c[0])
def test_number_outside_a_pair_is_invalid_json(case):
    _, old, new = case
    text = dumps(D2_DOCS["hadamard"]).replace(old, new, 1)
    with pytest.raises(json.JSONDecodeError) as info:
        json.loads(text)
    assert parse_error(text) == f"invalid JSON: {info.value}"


def relaid(text, how):
    """The document ``text`` holds, written in another layout."""
    data = json.loads(text)
    if how == "unsorted":
        data["payload"] = dict(reversed(data["payload"].items()))
        return json.dumps(dict(reversed(data.items())))
    if how == "tab-in-array":
        return text.replace("], [", "],\t[", 1)
    return {
        "trailing-newline": text + "\n",
        "indented": json.dumps(data, indent=1),
        "indented-by-2": json.dumps(data, indent=2),
        "compact": json.dumps(data, separators=(",", ":")),
        "spaced-header": text.replace('"d": ', '"d" : ', 1),
    }[how]


LAYOUTS = ["trailing-newline", "indented", "indented-by-2", "compact", "spaced-header",
           "unsorted", "tab-in-array"]
LAYOUT_DOCS = {**D2_DOCS, "weyl16": make_document(weyl_basis(16))}


@pytest.mark.parametrize("how", LAYOUTS)
@pytest.mark.parametrize("kind", sorted(LAYOUT_DOCS))
def test_other_layouts_read_as_the_canonical_text(kind, how):
    text = dumps(LAYOUT_DOCS[kind])
    other = relaid(text, how)
    assert other != text
    assert outcome(loads, other) == outcome(_loads_walked, other) == outcome(loads, text)


def with_earlier_matrix(text, matrix_text):
    """``text`` of a Hadamard document whose payload first holds another ``matrix``."""
    return text.replace('"payload": {', '"payload": {"matrix": ' + matrix_text + ", ", 1)


def test_duplicated_payload_key_keeps_the_last_value():
    text = dumps(D2_DOCS["hadamard"])
    matrix = json.dumps(json.loads(text)["payload"]["matrix"])
    other = "[[[9.0, 9.0], [9.0, 9.0]], [[9.0, 9.0], [9.0, 9.0]]]"
    for first, last in [(other, matrix), (matrix, other)]:
        single = text.replace(matrix, last)
        doc = loads(with_earlier_matrix(single, first))
        assert doc.payload["matrix"].tobytes() == loads(single).payload["matrix"].tobytes()
    assert (doc.payload["matrix"] == 9 + 9j).all()


def test_duplicated_payload_key_with_a_bad_first_value_is_invalid_json():
    text = with_earlier_matrix(dumps(D2_DOCS["hadamard"]), "[[[01, 9.0]]]")
    with pytest.raises(json.JSONDecodeError) as info:
        json.loads(text)
    assert parse_error(text) == f"invalid JSON: {info.value}"


def test_payload_key_inside_the_payload_is_not_the_payload():
    # the document's own payload comes first, and its matrix holds one object with a
    # "payload" key of its own: that is a matrix of one row, wherever the keys' text is
    text = dumps(D2_DOCS["hadamard"])
    matrix = json.dumps(json.loads(text)["payload"]["matrix"])
    nested = ('{"payload": {"matrix": [{"a": 1, "payload": {"matrix": ' + matrix + '}}]}, '
              '"d": 2, "kind": "hadamard", "meta": "", "v": 1}')
    assert parse_error(nested) == "payload.matrix: expected a list of length 2"


def outcome(read, text):
    """What ``read`` makes of ``text``: its error message, or the document's bits."""
    try:
        doc = read(text)
    except ParseError as exc:
        return str(exc)
    bits = {key: value if isinstance(value, str) else (value.dtype, value.shape, value.tobytes())
            for key, value in doc.payload.items()}
    return doc.kind, doc.d, doc.meta, bits


EDIT_TEXTS = list("0123456789.eE+-[], ") + ["0.0", "-0", "1e400", "true", "[0.0, 0.0]", "\n",
                                            "\t"]


# "in small blocks": dumps writes, and loads reads, an array a row or two at a time
@pytest.mark.parametrize("layout", ["canonical", "canonical in small blocks", *LAYOUTS])
@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(sorted(D2_DOCS)), edits=st.lists(
    st.tuples(st.floats(0, 1), st.sampled_from(["replace", "insert", "delete"]),
              st.sampled_from(EDIT_TEXTS)), min_size=1, max_size=3))
def test_edited_text_reads_as_the_walk_reads_it(layout, kind, edits):
    with patch.object(serialize, "_BLOCK", 4 if layout.endswith("blocks") else serialize._BLOCK):
        text = dumps(D2_DOCS[kind])
        text = text if layout.startswith("canonical") else relaid(text, layout)
        start = text.index('"payload"') + len('"payload"')
        for where, how, piece in edits:  # inside the payload, where the arrays are
            at = start + int(where * (len(text) - start - 1))
            edited = {"replace": piece, "insert": piece + text[at], "delete": ""}[how]
            text = text[:at] + edited + text[at + 1:]
        assert outcome(loads, text) == outcome(_loads_walked, text)


def test_d16_basis_load_stays_under_16_mib():
    text = dumps(make_document(weyl_basis(16)))
    tracemalloc.start()
    try:
        loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The text is 0.85 MiB at d = 16 and 4.15 MiB at d = 24; the elements 1 and 5.06 MiB.
# loads holds the text's bytes and the array, dumps one buffer and the str it decodes.
@pytest.mark.parametrize("d, loads_mib, dumps_mib", [(16, 3, 2.25), (24, 11.5, 9.5)])
def test_weyl_loads_and_dumps_each_peak_near_their_text_and_array(d, loads_mib, dumps_mib):
    doc = make_document(weyl_basis(d))
    text = dumps(doc)
    assert traced_peak(lambda: loads(text)) < loads_mib * 2**20
    assert traced_peak(lambda: dumps(doc)) < dumps_mib * 2**20


def test_d16_dense_dumps_formats_one_block_at_a_time():
    # Weyl moved by two unitaries: every entry is nonzero and nearly every number distinct,
    # so texts of all numbers at once took 22.5 MiB, and those of one block take 16
    rng = np.random.default_rng(16)
    basis = apply_equivalence(weyl_basis(16), random_unitary(rng, 16), random_unitary(rng, 16))
    doc = make_document(basis)
    text = dumps(doc)
    assert traced_peak(lambda: dumps(doc)) < 19 * 2**20
    assert loads(text).payload["elements"].tobytes() == basis.elements.tobytes()


def test_a_run_of_rows_of_zeros_reads_as_the_walk_reads_it():
    elements = weyl_basis(16).elements.copy()
    elements[:64] = 0  # more rows than loads reads at once: 1 << 17 bytes of text
    text = dumps(make_document(UnitaryBasis(16, elements)))
    assert text.index("1.0") > 1 << 17
    assert serialize._loads_fast(text.encode()) is not None
    assert outcome(loads, text) == outcome(_loads_walked, text)


@pytest.mark.parametrize("obj, key, message", [
    (fourier_hadamard(2), "matrix", "payload.matrix: expected a list of length 2"),
    # 890 kB of text: the extra rows come after several runs of rows
    (weyl_basis(16), "elements", "payload.elements: expected a list of length 256"),
], ids=["hadamard-d2", "weyl-d16"])
def test_an_array_with_rows_past_its_shape_reads_as_the_walk_reads_it(obj, key, message):
    doc = json.loads(dumps(make_document(obj)))
    doc["payload"][key] += doc["payload"][key][1:3]  # rows with nonzero pairs
    text = json.dumps(doc, sort_keys=True)  # laid out as dumps writes it
    assert parse_error(text) == message
    assert outcome(loads, text) == outcome(_loads_walked, text)


def test_small_text_claiming_a_large_d_builds_nothing_that_large():
    text = dumps(make_document(weyl_basis(1))).replace('"d": 1', '"d": 100000')
    assert len(text) < 200
    peak = traced_peak(lambda: parse_error(text))
    assert parse_error(text) == "payload.elements: expected a list of length 10000000000"
    assert peak < 2**20


def test_loads_leaves_the_collector_alone(monkeypatch):
    def switch():
        raise AssertionError("the cyclic garbage collector was switched")

    monkeypatch.setattr(gc, "disable", switch)
    monkeypatch.setattr(gc, "enable", switch)
    text = dumps(make_document(build_scheme(weyl_basis(2))))
    loads(text)
    loads(json.dumps(json.loads(text), indent=1))
    with pytest.raises(ParseError):
        loads(text.replace('"d": 2', '"d": 0'))


# the layout of every complex kind at small d, against json.dumps of the nested
# lists it stands for
FIELD_SHAPES = {
    "hadamard": {"matrix": lambda d: (d, d)},
    "unitary_basis": {"elements": lambda d: (d * d, d, d)},
    "entangled_basis": {"vectors": lambda d: (d * d, d * d)},
    "scheme": {"omega": lambda d: (d * d,), "channel_unitaries": lambda d: (d * d, d, d),
               "effect_vectors": lambda d: (d * d, d * d)},
}
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-5, 1.0, -3.0, 2.0**53, 0.1]
FLOATS = (
    st.sampled_from(EDGE_FLOATS)
    | st.integers(-(10**6), 10**6).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(FIELD_SHAPES)), d=st.integers(1, 3), meta=st.text(max_size=4),
       mode=st.sampled_from(["teleportation", "dense_coding"]), block=st.sampled_from([4, 1 << 13]),
       data=st.data())
def test_dumps_writes_what_json_dumps_writes(kind, d, meta, mode, block, data):
    payload, nested = {}, {}
    for key, shape in FIELD_SHAPES[kind].items():
        pairs = data.draw(arrays(np.float64, shape(d) + (2,), elements=FLOATS))
        payload[key] = pairs.view(complex).reshape(shape(d))
        nested[key] = pairs.tolist()
    if kind == "scheme":
        payload["mode"] = nested["mode"] = mode
    reference = {"v": 1, "kind": kind, "d": d, "meta": meta, "payload": nested}
    expected = json.dumps(reference, sort_keys=True, allow_nan=False)
    with patch.object(serialize, "_BLOCK", block):  # with 4, a row or two at a time
        assert dumps(DesignDocument(kind, d, payload, meta)) == expected
        assert outcome(loads, expected) == outcome(_loads_walked, expected)


# ---------------------------------------------------------------------------
# pinned behaviour: the exact text dumps writes, which of two defects loads
# reports, and dumps refusing what loads would refuse

GOLDEN_SHA256 = {
    "latin-d4": "2a2461a3ba86ca090468c888ad3fa97bdb19ce1ddf3365d6c320bfa099e06809",
    "hadamard-d3": "6cc167d2175f9f3756919a43d13ae6d1d1c36e3177b1fc5a79c7981476835732",
    "unitary-basis-d3": "e19c80ad3cb3aec37b587753017295b55bb2ec928f65cbf98cd5e9d4f06eb028",
    "entangled-basis-d3": "f0427a30c9d5cf28f492ea124a9c7f3fa3cbba71da6679f09b53af729f913977",
    "teleportation-d3": "02c7bcac8ebfe05684bbbe9521ce75288a68db4f24368c4d36b76e543eef3dfd",
    "dense-coding-d3": "1fd2cbdae22a6a061ba3e5c759172656fa81b7d6d9bc6ec7c790b4e1840d563b",
}


def golden_objects():
    basis = weyl_basis(3)
    return {
        "latin-d4": latin_from_cyclic(4),
        "hadamard-d3": fourier_hadamard(3),
        "unitary-basis-d3": basis,
        "entangled-basis-d3": basis_to_entangled(basis),
        "teleportation-d3": build_scheme(basis, "teleportation"),
        "dense-coding-d3": build_scheme(basis, "dense_coding"),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_dumps_text_is_pinned(name):
    text = dumps(make_document(golden_objects()[name], meta="m"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]


def scheme_data():
    return json.loads(dumps(make_document(build_scheme(weyl_basis(2)))))


def bad_mode_and_entry(data):
    data["payload"]["mode"] = "bogus"
    data["payload"]["omega"][2][0] = "HUGE"


def unknown_field_and_entry(data):
    data["payload"]["note"] = "hi"
    data["payload"]["channel_unitaries"][0][0][0] = "x"


def bad_omega_and_effects(data):
    data["payload"]["omega"][1][1] = "HUGE"
    data["payload"]["effect_vectors"][0][0][1] = "HUGE"


def bad_kind_and_d(data):
    data["kind"] = "sudoku"
    data["d"] = 0


def unhashable_kind_and_d(data):
    data["kind"] = ["scheme"]
    data["d"] = 0


def bad_meta_and_missing_field(data):
    data["meta"] = 5
    del data["payload"]["omega"]


DOUBLE_DEFECTS = [
    (bad_mode_and_entry,
     "payload.mode: expected one of ('teleportation', 'dense_coding'), got 'bogus'"),
    (unknown_field_and_entry, "payload: unknown field 'note'"),
    (bad_omega_and_effects, "payload.omega[1]: non-finite number is not allowed"),
    (bad_kind_and_d, "kind: unknown kind 'sudoku'"),
    (unhashable_kind_and_d, "kind: unknown kind ['scheme']"),
    (bad_meta_and_missing_field, "meta: expected a string"),
]


@pytest.mark.parametrize("case", DOUBLE_DEFECTS, ids=lambda c: c[0].__name__)
def test_doubly_broken_document_reports_the_first_check(case):
    damage, message = case
    data = scheme_data()
    damage(data)
    assert parse_error(json.dumps(data).replace('"HUGE"', "1e400")) == message


def nan_basis_document():
    elements = weyl_basis(2).elements.copy()
    elements[1, 0, 1] = np.nan
    return make_document(UnitaryBasis(2, elements))


UNREADABLE = [
    ("latin-with-matrix",
     lambda: DesignDocument("latin", 2, {"matrix": fourier_hadamard(2).matrix}),
     "payload: unknown field 'matrix'"),
    ("elements-of-wrong-shape",
     lambda: DesignDocument("unitary_basis", 3, {"elements": np.zeros((2, 2, 2))}),
     "payload.elements: expected a list of length 9"),
    ("bogus-mode",
     lambda: DesignDocument(
         "scheme", 3, {**make_document(build_scheme(weyl_basis(3))).payload, "mode": "bogus"}),
     "payload.mode: expected one of ('teleportation', 'dense_coding'), got 'bogus'"),
    ("integer-meta",
     lambda: DesignDocument("latin", 2, {"grid": latin_from_cyclic(2).grid}, meta=5),
     "meta: expected a string"),
    ("nan-entry", nan_basis_document,
     "payload.elements[1][0][1]: non-finite number is not allowed"),
    # an integer field is not cast: loads rejects 0.5, 0.0, false and true in a grid
    ("float-grid",
     lambda: DesignDocument("latin", 2, {"grid": [[0.5, 1], [1, 0]]}),
     "payload.grid[0][0]: expected an integer, got 0.5"),
    ("integral-float-grid",
     lambda: DesignDocument("latin", 2, {"grid": np.array([[0.0, 1.0], [1.0, 0.0]])}),
     "payload.grid[0][0]: expected an integer, got 0.0"),
    ("bool-grid",
     lambda: DesignDocument("latin", 2, {"grid": np.array([[False, True], [True, False]])}),
     "payload.grid[0][0]: expected an integer, got False"),
    ("bool-in-int-grid",
     lambda: DesignDocument("latin", 2, {"grid": [[True, 1], [1, 0]]}),
     "payload.grid[0][0]: expected an integer, got True"),
    ("str-in-grid",
     lambda: DesignDocument("latin", 2, {"grid": [[0, 1], [1, "a"]]}),
     "payload.grid[1][1]: expected an integer, got 'a'"),
]


@pytest.mark.parametrize("case", UNREADABLE, ids=lambda c: c[0])
def test_dumps_rejects_what_loads_would_reject(case):
    _, make, message = case
    with pytest.raises(ParseError) as info:
        dumps(make())
    assert str(info.value) == message


def test_failed_save_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text("old contents\n")
    with pytest.raises(ParseError):
        save(nan_basis_document(), path)
    assert path.read_text() == "old contents\n"


LATIN3_ROWS = '{"d": 3, "kind": "latin", "meta": "", "payload": {"grid": %s}, "v": 1}'


@pytest.mark.parametrize("call, message", [
    # a non-ASCII character in an array leaves the fast path; the walk finds it
    (lambda: loads(dumps(make_document(weyl_basis(2))).replace("1.0", "\uff11.0", 1)),
     "invalid JSON: Expecting value: line 1 column 75 (char 74)"),
    (lambda: loads("[]"), "document: expected an object, got list"),
    (lambda: loads(LATIN3_ROWS % "[[0, 1, 2], [1, 2, 0]]"), "payload.grid: expected 3 rows"),
    (lambda: loads(LATIN3_ROWS % "[[0, 1, 2], [1, 2], [2, 0, 1]]"),
     "payload.grid[1]: expected 3 integers"),
    (lambda: loads('{"d": 2, "kind": "hadamard", "meta": "", "payload": {"matrix": '
                   '[["ab", [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]]}, "v": 1}'),
     "payload.matrix[0][0]: expected [re, im], got 'ab'"),
    (lambda: make_document(object()), "cannot serialize object of type object"),
    (lambda: dumps(DesignDocument("hadamard", 2, {"matrix": "ab"})),
     "payload.matrix: expected a list of length 2"),
], ids=["non-ASCII in an array", "not an object", "too few rows", "short row",
        "string in a complex array", "unknown type", "payload not numbers"])
def test_each_defect_is_a_parse_error_at_its_location(call, message):
    with pytest.raises(ParseError) as info:
        call()
    assert str(info.value) == message
