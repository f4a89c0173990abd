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
separators, ``[re, im]`` pairs) takes a fast path over its UTF-8 bytes:
``json`` reads the document with each complex payload array cut out, and each
array, a run of rows at a time, must have its shape's bracket-and-comma
skeleton with number characters only inside pairs.  ``[0.0, 0.0]`` pairs, most
entries of a monomial unitary, are set by position, and ``json`` reads the
other pairs' numbers as flat lists.  Any other text, and any deviation found
on the way, goes to ``json.loads`` and the per-entry walk, which accepts the
same documents, reads them to the same bits and names the first offending
entry.  Payload numbers must be JSON numbers: strings, ``true``/``false`` and
``null`` are rejected at their location.

Besides a document's arrays, ``load`` holds the file's bytes, decoded to a str
only for the walk (``loads`` of a str encodes it once); ``dumps`` one buffer
of the text's exact length and the str decoded from it; ``save`` that buffer
alone.  Other temporaries take a block of rows, or a byte or two per entry.
Only the walk builds nested lists.  Neither route switches the garbage
collector or any other process-wide state.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Any

import numpy as np

from .bases import UnitaryBasis
from .designs import HadamardMatrix, LatinSquare
from .errors import ParseError
from .schemes import MODES, MaxEntangledBasis, TightScheme

__all__ = [
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


# ---------------------------------------------------------------------------
# the layout dumps writes, shared by both directions

# The characters of a JSON number; what remains of an array's text without
# them is its skeleton of brackets, commas and spaces.
_NUMBER_CHARS = b"0123456789.eE+-"
_ZERO_PAIR = b"[0.0, 0.0]"
# The eight bytes inside the brackets of a zero pair, read as one word.
_ZERO_WORD = np.frombuffer(_ZERO_PAIR[1:-1], dtype="<u8")[0]
# Numbers that dumps formats at once; 16 times as many bytes of text loads reads at once.
_BLOCK = 1 << 13


@lru_cache(maxsize=32)
def _zero_row(shape: tuple[int, ...]) -> bytes:
    """The text ``json.dumps`` writes for a nested list of zeros of ``shape``, then ``", "``."""
    text = "0.0"
    for n in reversed(shape):
        text = "[" + ", ".join([text] * n) + "]"
    return (text + ", ").encode()


def _skeleton_length(shape: tuple[int, ...]) -> int:
    """The length of a nested list's text without its numbers, computed without building it."""
    length = 0
    for n in reversed(shape):
        length = 2 + n * length + 2 * (n - 1)
    return length


def _complex_text(array: np.ndarray) -> list:
    """``json.dumps`` of a finite complex array's ``[re, im]`` nested list, as ``_gather`` pieces.

    A block of rows along the first axis is as many rows of zeros, each nonzero number's
    ``0.0`` replaced by its text; each distinct number of a block is formatted once.
    """
    row = _zero_row(array.shape[1:] + (2,))
    slots = np.flatnonzero(np.frombuffer(row, np.uint8) == ord(".")) - 1  # where each 0.0 starts
    numbers = np.ascontiguousarray(array).view(np.int64).reshape(-1)  # the bits of re, im, ...
    step = max(1, _BLOCK // len(slots)) * len(slots)
    pieces = [b"["]
    for start in range(0, len(numbers), step):
        bits = numbers[start:start + step]
        nonzero = np.flatnonzero(bits)  # +0.0 is the only float with no bit set
        values, inverse = np.unique(bits[nonzero], return_inverse=True)
        texts = list(map(float.__repr__, values.view(float).tolist()))
        lengths = np.fromiter(map(len, texts), int, len(texts))
        zeros = len(bits) // len(slots) * len(row)  # the length of the block's rows of zeros
        at = nonzero // len(slots) * len(row) + slots[nonzero % len(slots)]
        # alternately a stretch of the rows of zeros and a nonzero number's text after them
        src, size = np.empty((2, 2 * len(nonzero) + 1), np.int32)
        src[::2], src[1::2] = np.append(0, at + 3), (zeros + np.cumsum(lengths) - lengths)[inverse]
        size[::2], size[1::2] = np.append(at, zeros) - src[::2], lengths[inverse]
        pieces.append(([row] * (len(bits) // len(slots)) + ["".join(texts).encode()], src, size))
    size[-1] -= 2  # the last row's ", "
    return pieces + [b"]"]


def _gather(pieces: list) -> np.ndarray:
    """The text of ``pieces`` in one uint8 buffer of its exact length.  A piece is bytes, or
    ``(parts, src, size)``: the ``size[i]`` bytes at ``src[i]`` of ``b"".join(parts)``, in turn."""
    lengths = [len(p) if isinstance(p, bytes) else int(np.sum(p[2])) for p in pieces]
    out, end = np.empty(sum(lengths), np.uint8), 0
    for piece, n in zip(pieces, lengths):
        if isinstance(piece, bytes):
            out[end:end + n] = np.frombuffer(piece, np.uint8)
        else:
            parts, src, size = piece
            index = np.repeat(np.subtract(src, np.cumsum(size) - size), size)
            index += np.arange(n)
            np.take(np.frombuffer(b"".join(parts), np.uint8), index, out=out[end:end + n])
        end += n
    return out


def _read_complex(text: bytes, start: int, end: int, shape: tuple[int, ...]):
    """The complex array of ``shape`` in ``text[start:end]``, laid out as ``dumps`` writes it.

    None whenever ``json.loads`` and the walk might read that text otherwise:
    a skeleton other than the shape's, a number character outside a pair, a
    token that is not a JSON number, or a number that is not a finite float.
    """
    # compared by length first, so a claimed shape larger than the text builds nothing; the
    # caller found the array's "[" at start, and its "]" must end it
    if end - start < _skeleton_length(shape + (2,)) or text[end - 1] != ord("]"):
        return None
    row = _zero_row(shape[1:] + (2,)).translate(None, _NUMBER_CHARS)  # a row's skeleton, ", "
    per_row, done, pos, array = math.prod(shape[1:]), 0, start + 1, np.zeros((math.prod(shape), 2))
    words = np.ndarray(len(text) - 7, dtype="<u8", buffer=text, strides=(1,))
    while pos < end - 1:  # a run of whole rows at a time, cut where a row ends
        cut = text.find(b"]" * len(shape) + b", ", min(pos + 16 * _BLOCK, end - 1), end - 1)
        cut = end - 1 if cut < 0 else cut + len(shape)
        chunk = text[pos:cut]
        skeleton = chunk.translate(None, _NUMBER_CHARS) + b", "
        rows = len(skeleton) // len(row)
        # A bracket opens a pair when a number (or the comma) follows it and closes
        # one when a number (or the space) precedes it: every pair's brackets do.
        # As many as the rows have pairs means no stray number made another, and
        # the pairs' lengths then account for every number character.
        chars = np.frombuffer(chunk, dtype=np.uint8)
        opens = np.flatnonzero((chars[:-1] == ord("[")) & (chars[1:] != ord("[")))
        closes = np.flatnonzero((chars[1:] == ord("]")) & (chars[:-1] != ord("]"))) + 1
        if (done + rows > shape[0] or skeleton != row * rows or not len(opens) == len(closes)
                == rows * per_row or (closes - opens - 3).sum() != len(chunk) + 2 - len(skeleton)):
            return None
        # "[0.0, 0.0]", most pairs of a monomial unitary, is told by its length
        # and its eight inner bytes read as one word, and set rather than parsed;
        # json reads the other pairs' numbers as one flat list.
        zero = closes - opens == len(_ZERO_PAIR) - 1
        zero[zero] = words[pos + opens[zero] + 1] == _ZERO_WORD
        pairs = np.flatnonzero(~zero)
        # one slice "re, im], [re, im, ..." per run of adjacent pairs, flat without brackets
        first = np.flatnonzero(np.diff(pairs, prepend=-2) != 1)
        last = np.append(first, len(pairs))[1:] - 1
        bounds = zip(opens[pairs[first]].tolist(), closes[pairs[last]].tolist())
        numbers = b", ".join([chunk[left + 1:right] for left, right in bounds])
        try:
            values = json.loads(b"[" + numbers.translate(None, b"[]") + b"]")
            array[done * per_row + pairs] = np.array(values, dtype=float).reshape(-1, 2)
        except (ValueError, OverflowError):  # not JSON numbers, or an integer past float range
            return None
        done, pos = done + rows, cut + 2
    finite = done == shape[0] and np.isfinite(array).all()
    return array.view(complex).reshape(shape) if finite else None


# ---------------------------------------------------------------------------
# encoding

def make_document(obj, meta: str = "") -> DesignDocument:
    """Wrap a domain object of any supported kind in a document."""
    for kind, (cls, _, fields) in _TABLE.items():
        if isinstance(obj, cls):
            payload = {}
            for key, path, _, shape in fields:
                payload[key] = attrgetter(path)(obj)
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


def _encode_field(value, dtype, shape: tuple[int, ...], location: str) -> list:
    """``value`` as pieces of JSON text, or the ``ParseError`` ``loads`` would raise on it."""
    if dtype is str:
        return [json.dumps(_decode_field(value, dtype, shape, location)).encode()]
    if dtype is int:  # walked as loads walks it: a float or bool in the grid is refused, not cast
        grid = value.tolist() if isinstance(value, np.ndarray) else value
        return [json.dumps(_decode_field(grid, dtype, shape, location).tolist()).encode()]
    try:
        array = np.asarray(value, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # not numbers: the walk names the entry
        array = _decode_field(value, dtype, shape, location)
    if array.shape != shape or not np.isfinite(array).all():
        pairs = np.stack([array.real, array.imag], axis=-1).tolist()
        _decode_field(pairs, dtype, shape, location)  # raises where loads would
    return _complex_text(array)


def _text(doc: DesignDocument) -> np.ndarray:
    """The ASCII text of ``dumps(doc)`` in one uint8 buffer of its exact length."""
    _, _, fields = _check_header(doc.kind, doc.d, doc.meta, doc.payload)
    encoded = {key: _encode_field(doc.payload[key], dtype, shape(doc.d), f"payload.{key}")
               for key, _, dtype, shape in fields}  # in decoding order, so loads' first defect
    header = json.dumps({"d": doc.d, "kind": doc.kind, "meta": doc.meta}, sort_keys=True)
    pieces = [header[:-1].encode() + b', "payload": {']
    for key in sorted(encoded):
        pieces += [f'"{key}": '.encode(), *encoded[key], b", "]
    return _gather(pieces[:-1] + [f'}}, "v": {SCHEMA_VERSION}}}'.encode()])


def dumps(doc: DesignDocument) -> str:
    """The document as JSON text ``loads`` reads back: ``json.dumps(..., sort_keys=True)`` of
    it, each complex array as its nested list of ``[re, im]`` pairs, written without that list."""
    return str(_text(doc), "ascii")


def save(doc: DesignDocument, path) -> None:
    text = _text(doc)  # in full before the file is opened, so a failure leaves it as it was
    with open(path, "wb") as handle:
        handle.writelines((text, b"\n"))


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


_PAYLOAD_OPEN = b', "payload": {'
_PAYLOAD_KEY = re.compile(rb'"([a-z_]+)": ')
_PLAIN_STRING = re.compile(rb'"[^"\\]*"')  # no escape: json reads it as it stands
_COMPLEX_KEYS = {
    key for _, _, fields in _TABLE.values() for key, _, dtype, _ in fields if dtype is complex
}


def _split_payload(text: bytes) -> tuple[bytes, dict] | None:
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
    pieces, arrays, key, kept = [], {}, b"", 0
    while True:
        match = _PAYLOAD_KEY.match(text, pos)
        if match is None or match[1] <= key:  # a repeated key would hide its first value
            return None
        key, pos = match[1], match.end()
        if mode := _PLAIN_STRING.match(text, pos):
            pos = mode.end()
        elif text.startswith(b"[", pos):
            end = text.find(b"}", pos)
            quote = text.find(b'"', pos, max(end, pos))
            end = quote - 2 if quote >= 0 else end
            if end <= pos:
                return None
            if key.decode() in _COMPLEX_KEYS:
                pieces += [text[kept:pos], b"[]"]
                arrays[key.decode()] = (pos, end)
                kept = end
            pos = end
        else:
            return None
        if text.startswith(b"}", pos):
            break
        if not text.startswith(b", ", pos):
            return None
        pos += 2
    pieces.append(text[kept:])
    return b"".join(pieces), arrays


def _loads_fast(text: bytes) -> DesignDocument | None:
    """The document ``text`` holds if it is laid out as ``dumps`` writes it, else None.

    None also when any check fails: the walk then reports the defect it
    always reported, even one in an array this path had not reached.
    """
    split = _split_payload(text)
    if split is None:
        return None
    rest, arrays = split
    try:
        data = json.loads(rest.decode(), parse_constant=_reject_constant)
        fields = _read_header(data)
        payload = {}
        for key, _, dtype, shape in fields:
            if dtype is not complex:
                payload[key] = _decode_field(
                    data["payload"][key], dtype, shape(data["d"]), f"payload.{key}")
            # the cut-out must be this field: one found in an object nested in the
            # document leaves the field's own value in place of []
            elif key in arrays and data["payload"][key] == []:
                payload[key] = _read_complex(text, *arrays[key], shape(data["d"]))
            if payload.get(key) is None:
                return None
    except (ValueError, RecursionError, ParseError):
        return None
    return DesignDocument(data["kind"], data["d"], payload, data["meta"])


def _loads_walked(text) -> DesignDocument:
    """``loads`` through ``json.loads`` and the walk; bytes as ``open(..., "r")`` reads UTF-8."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode().replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text, parse_constant=_reject_constant)
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid JSON: not UTF-8 at byte {exc.start}") from exc
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


def loads(text: str | bytes) -> DesignDocument:
    """Parse and shape-check a document, a str or UTF-8 bytes; any defect raises ``ParseError``.

    Text laid out as ``dumps`` writes it is read without nested lists; any
    other text is read by ``json.loads`` and the walk.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    doc = _loads_fast(data) if isinstance(data, (bytes, bytearray)) else None
    return _loads_walked(text) if doc is None else doc


def load(path) -> DesignDocument:
    with open(path, "rb") as handle:
        return loads(handle.read())
