"""Shared defaults and the result container used by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    callers need more than its worst entry (a Gram matrix, an outcome table).
    A check made of parts reports the first NaN among them, else the first
    largest deviation, in the order its parts are listed.
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


def _worst_of(parts, table=None) -> CheckResult:
    """The first NaN among ``parts``, else the first largest deviation, with ``table``."""
    worst = max(parts, key=lambda p: (p.deviation != p.deviation, p.deviation))
    return CheckResult(worst.passed, worst.deviation, worst.witness, table)


@dataclass(frozen=True, eq=False)
class _Built:
    """An array the library has just built, or one a value holds frozen: no caller holds it
    writable, so a value built from it takes it over with no copy."""

    array: np.ndarray


def _freeze(obj, name: str, array, shapes=None, expected: str = "", dtype=None) -> None:
    """Store ``array`` read-only and C-ordered as ``obj.name``: the one way a frozen value takes
    an array, so no caller can write to what it holds.  A caller's array is copied, a ``_Built``
    one taken over.  With ``shapes`` given, another shape raises ``DimensionMismatch``.
    """
    array = (np.asarray(array.array, dtype, order="C") if isinstance(array, _Built)
             else np.array(array, dtype=dtype, order="C"))
    if shapes is not None and array.shape not in shapes:
        raise DimensionMismatch(f"{expected}, got array of shape {array.shape}")
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


def require_positive(n: int, name: str = "dimension") -> None:
    """Reject a size below 1; no object in this package is defined for one."""
    if n < 1:
        raise DimensionMismatch(f"{name} must be positive, got {n}")


def as_permutation(perm, n: int) -> np.ndarray:
    """Require ``perm`` to be integers that permute 0..n-1; return the index array.

    Only an integer dtype is accepted: casting floats, booleans or objects to
    int would truncate them into a permutation they are not.
    """
    p = np.asarray(perm)
    if p.dtype.kind not in "iu" or p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise BadPermutation(f"expected a permutation of 0..{n - 1}, got {perm!r}")
    return p.astype(int, copy=False)
