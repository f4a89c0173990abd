"""Shared defaults and the result container used by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BadPermutation, DimensionMismatch

__all__ = ["DEFAULT_TOL", "CheckResult"]

# Absolute max-entry tolerance, not scaled with d.  Far above accumulated
# rounding at the dimensions this package targets (the Weyl basis at d = 32
# stays below 1e-12 in every verifier, and a test holds it there), far below
# any structural violation.
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a numerical check: a verdict plus the margin behind it.

    ``deviation`` is the max-entry distance from the defining identity, so
    callers always see how close a failure was; ``witness`` names the entry
    at that distance.  ``table`` carries the matrix a check computed when
    callers need more than its worst entry (a Gram matrix, which a verdict on
    blocks forms when it is first read, or an outcome table).  A check made of
    parts reports the first NaN among them, else the first largest deviation,
    in the order its parts are listed, and the table of the first part that has one.
    """

    passed: bool
    deviation: float
    witness: str | None = None
    table: np.ndarray | None = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.passed

    @classmethod
    def worst(cls, gaps, tol: float, name, table=None) -> CheckResult:
        """The verdict on the largest of ``gaps``, an array of any shape.

        ``np.argmax`` takes the first NaN, else the first largest gap, so a NaN
        anywhere fails the check; ``name(*index)`` names the entry at ``index``.
        """
        gaps = np.asarray(gaps, dtype=float)
        flat = int(gaps.argmax())
        deviation = gaps.item(flat)
        index = (flat,) if gaps.ndim == 1 else map(int, np.unravel_index(flat, gaps.shape))
        return cls(bool(deviation <= tol), deviation, name(*index), table)


class _Table:
    """``CheckResult.table``: an array, None, or a picklable callable that forms it when first
    read; pickling and ``_worst_of`` pass that on unformed."""

    def __get__(self, obj, owner=None):
        table = None if obj is None else vars(obj)["table"]
        if callable(table):
            table = vars(obj)["table"] = table()
        return table

    def __set__(self, obj, value):
        vars(obj)["table"] = value


CheckResult.table = _Table()  # the field keeps its default of None and compare=False


def _worst_of(parts) -> CheckResult:
    """The first NaN among ``parts``, else the first largest deviation, and the first table."""
    worst = max(parts, key=lambda p: (p.deviation != p.deviation, p.deviation))
    table = next((vars(p)["table"] for p in parts if vars(p)["table"] is not None), None)
    return CheckResult(worst.passed, worst.deviation, worst.witness, table)


@dataclass(frozen=True, eq=False)
class _Built:
    """An array the library has just built or a value holds frozen, writable to no caller, and
    ``reading``, its read-only ``_monomial`` if given: a value built from them takes both over."""

    array: np.ndarray
    reading: object = False


def _freeze(obj, name: str, array, shapes=None, expected: str = "", dtype=None) -> None:
    """Store ``array`` read-only and C-ordered as ``obj.name``: the one way a frozen value takes
    an array, so no caller can write to what it holds.  A caller's array is copied, a ``_Built``
    one taken over.  With ``shapes`` given, another shape raises ``DimensionMismatch``.
    """
    if isinstance(array, _Built) and array.reading is not False:
        object.__setattr__(obj, "_read_" + name, array.reading)
    array = (np.asarray(array.array, dtype, order="C") if isinstance(array, _Built)
             else np.array(array, dtype=dtype, order="C"))
    if shapes is not None and array.shape not in shapes:
        raise DimensionMismatch(f"{expected}, got array of shape {array.shape}")
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


class _Value:
    """A frozen value, whose copy or unpickled twin its constructor builds, with no reading."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def require_positive(n: int, name: str = "dimension") -> None:
    """Reject a size that is not an integer, a bool included, or is below 1; no object in this
    package is defined for one, and a float one fails later in numpy's indexing."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionMismatch(f"{name} must be an integer, got {n}")
    if n < 1:
        raise DimensionMismatch(f"{name} must be positive, got {n}")


def _integral(values, array: np.ndarray) -> bool:
    """Whether ``array``, ``np.asarray(values)``, holds integers.  A cast to int would truncate
    floats, booleans or objects into integers they are not, and a sequence casts a bool it mixes
    with integers to int; an array is judged by its dtype alone."""
    return array.dtype.kind in "iu" and (isinstance(values, np.ndarray) or not any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat))


def as_permutation(perm, n: int) -> np.ndarray:
    """Require ``perm`` to be integers (see ``_integral``) that permute 0..n-1; return the
    index array."""
    p = np.asarray(perm)
    if not _integral(perm, p) or p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise BadPermutation(f"expected a permutation of 0..{n - 1}, got {perm!r}")
    return p.astype(int, copy=False)
