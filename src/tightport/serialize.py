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

Each complex payload is decoded as a whole: one numpy conversion of the
parsed nested list, accepted when it yields finite numbers of the expected
shape, and reinterpreted as complex without a copy.  Only when that fails
does the per-entry walk run, to decode the rare valid inputs the whole-array
path leaves to it or to name the first offending entry.  Payload numbers
must be JSON numbers: strings, ``true``/``false`` and ``null`` are rejected
at their location.

``loads`` and ``dumps`` hold the cyclic garbage collector while they run.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from copy import copy
from dataclasses import dataclass
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

    The nested lists of a document are acyclic, so reference counting frees
    them; the collector would only re-walk them as they grow.  The switch is
    process-wide: other threads also run without the collector meanwhile.
    As a decorator it pauses the collector for each call.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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


def _encode_field(value, dtype, shape: tuple[int, ...], location: str):
    """``value`` as JSON data, or the ``ParseError`` ``loads`` would raise on that data."""
    if dtype is str:
        return _decode_field(value, dtype, shape, location, True)
    if dtype is int:  # walked as loads walks it: a float or bool in the grid is refused, not cast
        grid = value.tolist() if isinstance(value, np.ndarray) else value
        return _decode_field(grid, dtype, shape, location, True).tolist()
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # not numbers: the walk names the entry
        return _decode_field(value, dtype, shape, location, True)
    pairs = np.stack([array.real, array.imag], axis=-1)
    if array.shape != shape or not np.isfinite(array).all():
        _decode_field(pairs.tolist(), dtype, shape, location, True)  # raises where loads would
    return pairs.tolist()


@_collector_paused()
def dumps(doc: DesignDocument) -> str:
    """The document as JSON text ``loads`` reads back; the cyclic GC is held, process-wide."""
    _, _, fields = _check_header(doc.kind, doc.d, doc.meta, doc.payload)
    payload = {
        key: _encode_field(doc.payload[key], dtype, shape(doc.d), f"payload.{key}")
        for key, _, dtype, shape in fields
    }
    data = {
        "v": SCHEMA_VERSION,
        "kind": doc.kind,
        "d": doc.d,
        "meta": doc.meta,
        "payload": payload,
    }
    return json.dumps(data, sort_keys=True, allow_nan=False)


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


def _number_pairs(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """``value`` as a finite float array of shape ``shape + (2,)``, or None.

    ``np.array`` discovers the dtype, so strings, ``None``, objects and
    integers beyond 64 bits give a non-numeric dtype and ragged nesting
    raises.  JSON booleans would still pass as numbers; callers rule them
    out before calling.
    """
    try:
        pairs = np.array(value)
    except ValueError:  # ragged or too deeply nested
        return None
    if pairs.dtype.kind not in "fi" or pairs.shape != shape + (2,):
        return None
    pairs = pairs.astype(float, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        return pairs if np.isfinite(pairs.sum()) else None


def _decode_complex_array(
    value, shape: tuple[int, ...], location: str, may_hold_bools: bool
) -> np.ndarray:
    pairs = None if may_hold_bools else _number_pairs(value, shape)
    if pairs is not None:
        return pairs.view(complex).reshape(shape)
    # The walk is the reference decoder: it gives the fast path's bits wherever
    # that succeeds, decodes the valid inputs the fast path leaves to it (any
    # "true" in the text, integers beyond 64 bits, sums that overflow), and
    # otherwise names the first offending entry.
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


def _decode_field(value, dtype, shape: tuple[int, ...], location: str, may_hold_bools: bool):
    if dtype is str:
        if value not in MODES:
            _fail(location, f"expected one of {MODES}, got {value!r}")
        return value
    if dtype is int:
        return _decode_int_grid(value, shape[0], location)
    return _decode_complex_array(value, shape, location, may_hold_bools)


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


@_collector_paused()
def loads(text: str) -> DesignDocument:
    """Parse and shape-check a document; any defect raises ``ParseError``.

    The cyclic GC is held while this runs, process-wide.
    """
    def reject_constant(name: str):
        raise ParseError(f"non-finite number {name} is not allowed")

    try:
        data = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nested array or object
        raise ParseError("invalid JSON: nesting too deep") from exc

    _expect_keys(data, {"v", "kind", "d", "meta", "payload"}, "document")
    version = _decode_int(data["v"], "v")
    if version != SCHEMA_VERSION:
        _fail("v", f"unsupported schema version {version}")
    kind, d, raw = data["kind"], data["d"], data["payload"]
    _, _, fields = _check_header(kind, d, data["meta"], raw)
    # No numpy conversion tells a JSON true from 1, so a document that may
    # hold a boolean anywhere (a false positive costs only speed) takes the walk.
    may_hold_bools = "true" in text or "false" in text
    payload = {
        key: _decode_field(raw[key], dtype, shape(d), f"payload.{key}", may_hold_bools)
        for key, _, dtype, shape in fields
    }
    return DesignDocument(kind, d, payload, data["meta"])


def load(path) -> DesignDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
