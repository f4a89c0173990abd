"""JSON documents for every object kind the package constructs.

One schema, version-tagged, diffable, and strict: unknown or missing fields
are rejected with the offending location, as are non-finite numbers.
Complex numbers are stored as two-element ``[re, im]`` arrays, matrices as
row-major nested arrays, Latin squares as nested integers.

Loading is purely structural; it never runs the numerical validators, so a
corrupted-but-well-formed file loads fine and is then failed by ``verify``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
KINDS = ("latin", "hadamard", "unitary_basis", "entangled_basis", "scheme")

_PAYLOAD_KEYS = {
    "latin": {"grid"},
    "hadamard": {"matrix"},
    "unitary_basis": {"elements"},
    "entangled_basis": {"vectors"},
    "scheme": {"mode", "omega", "channel_unitaries", "effect_vectors"},
}


@dataclass(frozen=True)
class DesignDocument:
    """A kind tag, the dimension, raw payload arrays, and provenance text."""

    kind: str
    d: int
    payload: dict[str, Any]
    meta: str = ""


# ---------------------------------------------------------------------------
# encoding

def _encode_complex_array(a: np.ndarray) -> list:
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def make_document(obj, meta: str = "") -> DesignDocument:
    """Wrap a domain object of any supported kind in a document."""
    if isinstance(obj, LatinSquare):
        return DesignDocument("latin", obj.d, {"grid": obj.grid.copy()}, meta)
    if isinstance(obj, HadamardMatrix):
        return DesignDocument("hadamard", obj.d, {"matrix": obj.matrix.copy()}, meta)
    if isinstance(obj, UnitaryBasis):
        return DesignDocument(
            "unitary_basis", obj.d, {"elements": obj.elements.copy()}, meta
        )
    if isinstance(obj, MaxEntangledBasis):
        return DesignDocument(
            "entangled_basis", obj.d, {"vectors": obj.vectors.copy()}, meta
        )
    if isinstance(obj, TightScheme):
        if obj.omega.ndim != 1:
            raise ParseError("only schemes with a vector resource are serializable")
        return DesignDocument(
            "scheme",
            obj.d,
            {
                "mode": obj.mode,
                "omega": obj.omega.copy(),
                "channel_unitaries": obj.channel_unitaries.copy(),
                "effect_vectors": obj.effects.vectors.copy(),
            },
            meta,
        )
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def document_to_object(doc: DesignDocument):
    """Build the validated domain object a document describes.

    Designs (Latin squares, Hadamard matrices) are fully validated by their
    constructors and may raise ``DesignInvalid``; the larger objects are
    shape-checked only, leaving numerical verification to the verifiers.
    """
    if doc.kind == "latin":
        return LatinSquare(doc.payload["grid"])
    if doc.kind == "hadamard":
        return HadamardMatrix(doc.payload["matrix"])
    if doc.kind == "unitary_basis":
        return UnitaryBasis(doc.d, doc.payload["elements"])
    if doc.kind == "entangled_basis":
        return MaxEntangledBasis(doc.d, doc.payload["vectors"])
    if doc.kind == "scheme":
        p = doc.payload
        return TightScheme(
            doc.d,
            p["omega"],
            p["channel_unitaries"],
            MaxEntangledBasis(doc.d, p["effect_vectors"]),
            p["mode"],
        )
    raise ParseError(f"unknown document kind {doc.kind!r}")


def dumps(doc: DesignDocument) -> str:
    if doc.kind not in KINDS:
        raise ParseError(f"unknown document kind {doc.kind!r}")
    payload: dict[str, Any] = {}
    for key, value in doc.payload.items():
        if key == "mode":
            payload[key] = value
        elif key == "grid":
            payload[key] = np.asarray(value, dtype=int).tolist()
        else:
            payload[key] = _encode_complex_array(np.asarray(value, dtype=complex))
    data = {
        "v": SCHEMA_VERSION,
        "kind": doc.kind,
        "d": doc.d,
        "meta": doc.meta,
        "payload": payload,
    }
    return json.dumps(data, sort_keys=True, allow_nan=False)


def save(doc: DesignDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))
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


def loads(text: str) -> DesignDocument:
    def reject_constant(name: str):
        raise ParseError(f"non-finite number {name} is not allowed")

    try:
        data = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc

    _expect_keys(data, {"v", "kind", "d", "meta", "payload"}, "document")
    version = _decode_int(data["v"], "v")
    if version != SCHEMA_VERSION:
        _fail("v", f"unsupported schema version {version}")
    kind = data["kind"]
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}")
    d = _decode_int(data["d"], "d")
    if d < 1:
        _fail("d", f"dimension must be positive, got {d}")
    meta = data["meta"]
    if not isinstance(meta, str):
        _fail("meta", "expected a string")
    raw = data["payload"]
    _expect_keys(raw, _PAYLOAD_KEYS[kind], "payload")

    n = d * d
    payload: dict[str, Any] = {}
    if kind == "latin":
        payload["grid"] = _decode_int_grid(raw["grid"], d, "payload.grid")
    elif kind == "hadamard":
        payload["matrix"] = _decode_complex_array(raw["matrix"], (d, d), "payload.matrix")
    elif kind == "unitary_basis":
        payload["elements"] = _decode_complex_array(
            raw["elements"], (n, d, d), "payload.elements"
        )
    elif kind == "entangled_basis":
        payload["vectors"] = _decode_complex_array(
            raw["vectors"], (n, n), "payload.vectors"
        )
    else:
        mode = raw["mode"]
        if mode not in MODES:
            _fail("payload.mode", f"expected one of {MODES}, got {mode!r}")
        payload["mode"] = mode
        payload["omega"] = _decode_complex_array(raw["omega"], (n,), "payload.omega")
        payload["channel_unitaries"] = _decode_complex_array(
            raw["channel_unitaries"], (n, d, d), "payload.channel_unitaries"
        )
        payload["effect_vectors"] = _decode_complex_array(
            raw["effect_vectors"], (n, n), "payload.effect_vectors"
        )
    return DesignDocument(kind, d, payload, meta)


def load(path) -> DesignDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
