"""JSON documents for every object kind the package constructs.

One private table of the kinds and their fields is the schema;
``make_document``, ``document_to_object``, ``dumps`` and ``loads`` are loops
over it.  Documents are version-tagged, diffable, and strict: unknown or
missing fields are rejected with the offending location, as are non-finite
numbers.  Complex numbers are stored as two-element ``[re, im]`` arrays,
matrices as row-major nested arrays, Latin squares as nested integers.

``dumps`` writes only text ``loads`` reads back, else raises ``ParseError``
where ``loads`` would, and ``save`` then leaves its file as it was.  Loading
is purely structural; it never runs the numerical validators, so a
corrupted-but-well-formed file loads fine and is then failed by ``verify``.

Text laid out as ``dumps`` writes it (sorted keys, ``", "`` and ``": "``
separators, ``[re, im]`` pairs) takes a fast path.  ``json`` reads the
document with each complex payload array cut out.  Each array's text must
have the bracket-and-comma skeleton of its field's shape, with number
characters only inside its pairs.  ``[0.0, 0.0]`` pairs, most entries of a
monomial unitary, are set by position; ``json`` reads the other pairs'
numbers as one flat list into one float64 buffer, viewed as complex, with no
nested list.  Any other text, and any deviation found on the way, goes to
``json.loads`` and the per-entry walk, which accepts the same documents,
reads them to the same bits and names the first offending entry of the rest.
Payload numbers must be JSON numbers: strings, ``true``/``false`` and
``null`` are rejected at their location.

Only the walk builds nested lists, and it holds the cyclic garbage collector
while it runs.
"""

from __future__ import annotations

import gc
import json
import math
import re
from contextlib import contextmanager
from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from json.decoder import scanstring
from operator import attrgetter
from typing import Any

import numpy as np

from .bases import UnitaryBasis
from .designs import HadamardMatrix, LatinSquare
from .errors import ParseError
from .schemes import MODES, MaxEntangledBasis, TightScheme

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "DesignDocument",
    "make_document",
    "document_to_object",
    "dumps",
    "loads",
    "save",
    "load",
]

SCHEMA_VERSION = 1

# Each kind's type, its constructor from d and the payload values in field
# order, and its payload fields in decoding order: (key, attribute path on the
# object, dtype, shape as a function of d).  A str field is a scheme mode.
_TABLE = {
    "latin": (LatinSquare, lambda d, grid: LatinSquare(grid),
              [("grid", "grid", int, lambda d: (d, d))]),
    "hadamard": (HadamardMatrix, lambda d, matrix: HadamardMatrix(matrix),
                 [("matrix", "matrix", complex, lambda d: (d, d))]),
    "unitary_basis": (UnitaryBasis, UnitaryBasis,
                      [("elements", "elements", complex, lambda d: (d * d, d, d))]),
    "entangled_basis": (MaxEntangledBasis, MaxEntangledBasis,
                        [("vectors", "vectors", complex, lambda d: (d * d, d * d))]),
    "scheme": (TightScheme, lambda d, mode, omega, channels, effects: TightScheme(
        d, omega, channels, MaxEntangledBasis(d, effects), mode), [
        ("mode", "mode", str, lambda d: ()),
        ("omega", "omega", complex, lambda d: (d * d,)),
        ("channel_unitaries", "channel_unitaries", complex, lambda d: (d * d, d, d)),
        ("effect_vectors", "effects.vectors", complex, lambda d: (d * d, d * d)),
    ]),
}
KINDS = tuple(_TABLE)


@dataclass(frozen=True, eq=False)
class DesignDocument:
    """A kind tag, the dimension, raw payload arrays, and provenance text."""

    kind: str
    d: int
    payload: dict[str, Any]
    meta: str = ""


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector, restoring the state found on exit.

    The nested lists ``json.loads`` builds are acyclic, so reference counting
    frees them; the collector would only re-walk them as they grow.  The
    switch is process-wide: other threads also run without the collector
    meanwhile.  As a decorator it pauses the collector for each call.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the layout dumps writes, shared by both directions

# The characters of a JSON number; what remains of an array's text without
# them is its skeleton of brackets, commas and spaces.
_NUMBER_CHARS = b"0123456789.eE+-"
_ZERO_PAIR = b"[0.0, 0.0]"
# The eight bytes inside the brackets of a zero pair, read as one word.
_ZERO_WORD = np.frombuffer(_ZERO_PAIR[1:-1], dtype="<u8")[0]
# Numbers that dumps formats, or loads parses, at once.
_BLOCK = 1 << 16


@lru_cache(maxsize=32)
def _layout(shape: tuple[int, ...]) -> tuple[str, ...]:
    """The text ``json.dumps`` writes around the numbers of a nested list of ``shape``.

    One piece more than there are numbers: number i goes between pieces i and i + 1.
    """
    template = "%s"
    for n in reversed(shape):
        template = "[" + ", ".join([template] * n) + "]"
    return tuple(template.split("%s"))


def _skeleton_length(shape: tuple[int, ...]) -> int:
    """The length of the text of ``_layout(shape)``, computed without building it."""
    length = 0
    for n in reversed(shape):
        length = 2 + n * length + 2 * (n - 1)
    return length


def _complex_text(array: np.ndarray) -> str:
    """``json.dumps`` of the ``[re, im]`` nested list of a finite complex128 array.

    Blocks of rows along the first axis are laid into one cached layout; each
    distinct number of a block is formatted once, and no nested list is built.
    """
    numbers = np.ascontiguousarray(array).view(np.int64).reshape(-1)  # the bits of re, im, ...
    per_row = 2 * array[0].size
    step = max(1, _BLOCK // per_row) * per_row
    blocks = []
    for start in range(0, len(numbers), step):
        bits = numbers[start:start + step]
        nonzero = np.flatnonzero(bits)  # +0.0 is the only float with no bit set
        values, inverse = np.unique(bits[nonzero], return_inverse=True)
        block = np.empty(len(bits), dtype=object)
        block[:] = "0.0"
        block[nonzero] = np.array(list(map(float.__repr__, values.view(float).tolist())),
                                  dtype=object)[inverse]
        parts = [""] * (2 * len(block) + 1)
        parts[::2] = _layout((len(block) // per_row,) + array.shape[1:] + (2,))
        parts[1::2] = block.tolist()
        blocks.append("".join(parts)[1:-1])  # the rows, without the block's own brackets
    return "[" + ", ".join(blocks) + "]"


def _read_complex(document: str, start: int, end: int, shape: tuple[int, ...]):
    """The complex array of ``shape`` in ``document[start:end]``, laid out as ``dumps`` writes it.

    None whenever ``json.loads`` and the walk might read that text otherwise:
    a skeleton other than the shape's, a number character outside a pair, a
    token that is not a JSON number, or a number that is not a finite float.
    """
    try:
        text = document[start:end].encode("ascii")
    except UnicodeEncodeError:
        return None
    skeleton = text.translate(None, _NUMBER_CHARS)
    # compared by length first, so a claimed shape larger than the text builds nothing
    if len(skeleton) != _skeleton_length(shape + (2,)):
        return None
    row = "".join(_layout(shape[1:] + (2,))).encode()
    if skeleton != b"[" + b", ".join([row] * shape[0]) + b"]":
        return None
    # A bracket opens a pair when a number (or the comma) follows it and closes
    # one when a number (or the space) precedes it: every pair's brackets do.
    # As many as the shape has pairs means no stray number made another, and
    # the pairs' lengths then account for every number character.
    chars = np.frombuffer(text, dtype=np.uint8)
    opens = np.flatnonzero((chars[:-1] == ord("[")) & (chars[1:] != ord("[")))
    closes = np.flatnonzero((chars[1:] == ord("]")) & (chars[:-1] != ord("]"))) + 1
    count = math.prod(shape)
    if len(opens) != count or len(closes) != count:
        return None
    if (closes - opens - 3).sum() != len(text) - len(skeleton):
        return None
    # "[0.0, 0.0]", most pairs of a monomial unitary, is told by its length
    # and its eight inner bytes read as one word, and set rather than parsed;
    # json reads the other pairs' numbers as one flat list.
    words = np.ndarray(len(text) - 7, dtype="<u8", buffer=text, strides=(1,))
    zero = closes - opens == len(_ZERO_PAIR) - 1
    zero[zero] = words[opens[zero] + 1] == _ZERO_WORD
    array = np.zeros((len(opens), 2))
    pairs = np.flatnonzero(~zero)
    for start in range(0, len(pairs), _BLOCK // 2):
        chunk = pairs[start:start + _BLOCK // 2]
        # one slice "re, im], [re, im, ..." per run of adjacent pairs, flat without brackets
        first = np.flatnonzero(np.diff(chunk, prepend=-2) != 1)
        last = np.append(first[1:], len(chunk)) - 1
        bounds = zip(opens[chunk[first]].tolist(), closes[chunk[last]].tolist())
        numbers = b", ".join([text[left + 1:right] for left, right in bounds])
        try:
            values = json.loads(b"[" + numbers.translate(None, b"[]") + b"]")
            array[chunk] = np.array(values, dtype=float).reshape(-1, 2)
        except (ValueError, OverflowError):  # not JSON numbers, or an integer past float range
            return None
    return array.view(complex).reshape(shape) if np.isfinite(array).all() else None


# ---------------------------------------------------------------------------
# encoding

def make_document(obj, meta: str = "") -> DesignDocument:
    """Wrap a domain object of any supported kind in a document."""
    for kind, (cls, _, fields) in _TABLE.items():
        if isinstance(obj, cls):
            payload = {}
            for key, path, _, shape in fields:
                payload[key] = copy(attrgetter(path)(obj))
                if np.shape(payload[key]) != shape(obj.d):  # a density-matrix resource
                    raise ParseError(f"cannot serialize {path} of shape {np.shape(payload[key])}")
            return DesignDocument(kind, obj.d, payload, meta)
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def document_to_object(doc: DesignDocument):
    """Build the validated domain object a document describes.

    Designs (Latin squares, Hadamard matrices) are fully validated by their
    constructors and may raise ``DesignInvalid``; the larger objects are
    shape-checked only, leaving numerical verification to the verifiers.
    """
    _, make, fields = _check_header(doc.kind, doc.d, doc.meta, doc.payload)
    return make(doc.d, *(doc.payload[key] for key, _, _, _ in fields))


def _encode_field(value, dtype, shape: tuple[int, ...], location: str) -> str:
    """``value`` as JSON text, or the ``ParseError`` ``loads`` would raise on that text."""
    if dtype is str:
        return json.dumps(_decode_field(value, dtype, shape, location))
    if dtype is int:  # walked as loads walks it: a float or bool in the grid is refused, not cast
        grid = value.tolist() if isinstance(value, np.ndarray) else value
        return json.dumps(_decode_field(grid, dtype, shape, location).tolist())
    try:
        array = np.asarray(value, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # not numbers: the walk names the entry
        array = _decode_field(value, dtype, shape, location)
    if array.shape != shape or not np.isfinite(array).all():
        pairs = np.stack([array.real, array.imag], axis=-1).tolist()
        _decode_field(pairs, dtype, shape, location)  # raises where loads would
    return _complex_text(array)


def dumps(doc: DesignDocument) -> str:
    """The document as JSON text ``loads`` reads back.

    The text is ``json.dumps(..., sort_keys=True)`` of the document with each
    complex array as its nested list of ``[re, im]`` pairs, written without
    building that list.
    """
    _, _, fields = _check_header(doc.kind, doc.d, doc.meta, doc.payload)
    payload = sorted(
        (key, _encode_field(doc.payload[key], dtype, shape(doc.d), f"payload.{key}"))
        for key, _, dtype, shape in fields
    )
    header = json.dumps({"d": doc.d, "kind": doc.kind, "meta": doc.meta}, sort_keys=True)
    body = ", ".join(f'"{key}": {text}' for key, text in payload)
    return f'{header[:-1]}, "payload": {{{body}}}, "v": {SCHEMA_VERSION}}}'


def save(doc: DesignDocument, path) -> None:
    text = dumps(doc)  # before the file is opened, so a failure leaves it as it was
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")


# ---------------------------------------------------------------------------
# decoding

def _fail(location: str, message: str):
    raise ParseError(f"{location}: {message}")


def _expect_keys(mapping, keys: set, location: str) -> None:
    if not isinstance(mapping, dict):
        _fail(location, f"expected an object, got {type(mapping).__name__}")
    unknown = set(mapping) - keys
    if unknown:
        _fail(location, f"unknown field {sorted(unknown)[0]!r}")
    missing = keys - set(mapping)
    if missing:
        _fail(location, f"missing field {sorted(missing)[0]!r}")


def _decode_int(value, location: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(location, f"expected an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        _fail(location, "integer out of range")
    return value


def _decode_complex(value, location: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in value)
    ):
        _fail(location, f"expected [re, im], got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        _fail(location, "number out of range")


def _decode_nested(value, shape: tuple[int, ...], location: str) -> np.ndarray:
    if not shape:
        return _decode_complex(value, location)
    if not isinstance(value, list) or len(value) != shape[0]:
        _fail(location, f"expected a list of length {shape[0]}")
    return np.asarray(
        [
            _decode_nested(item, shape[1:], f"{location}[{index}]")
            for index, item in enumerate(value)
        ],
        dtype=complex,
    )


def _decode_complex_array(value, shape: tuple[int, ...], location: str) -> np.ndarray:
    array = _decode_nested(value, shape, location)
    # A finite sum, one pass with no temporary, rules out inf and NaN entries;
    # only a non-finite sum (possibly an overflow of finite ones) pays for the search.
    with np.errstate(over="ignore", invalid="ignore"):
        bad = [] if np.isfinite(array.sum()) else np.argwhere(~np.isfinite(array))
    if len(bad):
        _fail(location + "".join(f"[{i}]" for i in bad[0]), "non-finite number is not allowed")
    return array


def _decode_int_grid(value, d: int, location: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != d:
        _fail(location, f"expected {d} rows")
    grid = np.zeros((d, d), dtype=int)
    for j, row in enumerate(value):
        if not isinstance(row, list) or len(row) != d:
            _fail(f"{location}[{j}]", f"expected {d} integers")
        for k, entry in enumerate(row):
            grid[j, k] = _decode_int(entry, f"{location}[{j}][{k}]")
    return grid


def _decode_field(value, dtype, shape: tuple[int, ...], location: str):
    if dtype is str:
        if value not in MODES:
            _fail(location, f"expected one of {MODES}, got {value!r}")
        return value
    if dtype is int:
        return _decode_int_grid(value, shape[0], location)
    return _decode_complex_array(value, shape, location)


def _check_header(kind, d, meta, payload) -> tuple:
    """The table row of ``kind`` once the header and the payload keys are valid."""
    if kind not in KINDS:  # a tuple: an unhashable kind is unknown, not a TypeError
        _fail("kind", f"unknown kind {kind!r}")
    d = _decode_int(d, "d")
    if d < 1:
        _fail("d", f"dimension must be positive, got {d}")
    if not isinstance(meta, str):
        _fail("meta", "expected a string")
    _expect_keys(payload, {key for key, _, _, _ in _TABLE[kind][2]}, "payload")
    return _TABLE[kind]


def _read_header(data) -> list:
    """The payload fields of parsed document data once its header is valid."""
    _expect_keys(data, {"v", "kind", "d", "meta", "payload"}, "document")
    version = _decode_int(data["v"], "v")
    if version != SCHEMA_VERSION:
        _fail("v", f"unsupported schema version {version}")
    return _check_header(data["kind"], data["d"], data["meta"], data["payload"])[2]


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} is not allowed")


_PAYLOAD_OPEN = ', "payload": {'
_PAYLOAD_KEY = re.compile(r'"([a-z_]+)": ')
_COMPLEX_KEYS = {
    key for _, _, fields in _TABLE.values() for key, _, dtype, _ in fields if dtype is complex
}


def _split_payload(text: str) -> tuple[str, dict] | None:
    """``text`` with each complex payload array replaced by ``[]``, and where they were.

    None unless the payload's keys are sorted and distinct and each array
    ends where the layout of ``dumps`` puts its end: before the next key's
    ``, "`` or the payload's ``}``, neither of which an array of numbers holds.
    The arrays' own text is left to ``_read_complex``.
    """
    pos = text.find(_PAYLOAD_OPEN)
    if pos < 0:
        return None
    pos += len(_PAYLOAD_OPEN)
    pieces, arrays, key, kept = [], {}, "", 0
    while True:
        match = _PAYLOAD_KEY.match(text, pos)
        if match is None or match[1] <= key:  # a repeated key would hide its first value
            return None
        key, pos = match[1], match.end()
        if text.startswith('"', pos):  # the mode
            try:
                pos = scanstring(text, pos + 1)[1]
            except ValueError:
                return None
        elif text.startswith("[", pos):
            end = text.find("}", pos)
            quote = text.find('"', pos, max(end, pos))
            end = quote - 2 if quote >= 0 else end
            if end <= pos:
                return None
            if key in _COMPLEX_KEYS:
                pieces += [text[kept:pos], "[]"]
                arrays[key] = (pos, end)
                kept = end
            pos = end
        else:
            return None
        if text.startswith("}", pos):
            break
        if not text.startswith(", ", pos):
            return None
        pos += 2
    pieces.append(text[kept:])
    return "".join(pieces), arrays


def _loads_fast(text: str) -> DesignDocument | None:
    """The document ``text`` holds if it is laid out as ``dumps`` writes it, else None.

    None also when any check fails: the walk then reports the defect it
    always reported, even one in an array this path had not reached.
    """
    split = _split_payload(text)
    if split is None:
        return None
    rest, arrays = split
    try:
        data = json.loads(rest, parse_constant=_reject_constant)
        fields = _read_header(data)
        payload = {}
        for key, _, dtype, shape in fields:
            if dtype is not complex:
                payload[key] = _decode_field(
                    data["payload"][key], dtype, shape(data["d"]), f"payload.{key}")
            elif key in arrays:
                payload[key] = _read_complex(text, *arrays[key], shape(data["d"]))
            if payload.get(key) is None:
                return None
    except (ValueError, RecursionError, ParseError):
        return None
    return DesignDocument(data["kind"], data["d"], payload, data["meta"])


@_collector_paused()
def _loads_walked(text: str) -> DesignDocument:
    """``loads`` through ``json.loads`` and the per-entry walk, with the cyclic GC held."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nested array or object
        raise ParseError("invalid JSON: nesting too deep") from exc
    fields = _read_header(data)
    d, raw = data["d"], data["payload"]
    payload = {
        key: _decode_field(raw[key], dtype, shape(d), f"payload.{key}")
        for key, _, dtype, shape in fields
    }
    return DesignDocument(data["kind"], d, payload, data["meta"])


def loads(text: str) -> DesignDocument:
    """Parse and shape-check a document; any defect raises ``ParseError``.

    Text laid out as ``dumps`` writes it is read without nested lists; any
    other text is read by ``json.loads`` and the walk, which hold the cyclic
    GC while they run, process-wide.
    """
    doc = _loads_fast(text) if isinstance(text, str) else None
    return _loads_walked(text) if doc is None else doc


def load(path) -> DesignDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
