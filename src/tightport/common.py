"""Shared defaults and the result container used by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadPermutation, DimensionMismatch

__all__ = ["DEFAULT_TOL", "CheckResult", "as_permutation", "require_positive"]

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
        flat = int(np.argmax(gaps))
        deviation = float(gaps.flat[flat])
        index = (int(k) for k in np.unravel_index(flat, gaps.shape))
        return cls(deviation <= tol, deviation, name(*index), table)


def require_positive(n: int, name: str = "dimension") -> None:
    """Reject a size below 1; no object in this package is defined for one."""
    if n < 1:
        raise DimensionMismatch(f"{name} must be positive, got {n}")


def as_permutation(perm, n: int) -> np.ndarray:
    """Coerce ``perm`` to an index array and require it to permute 0..n-1."""
    p = np.asarray(perm, dtype=int)
    if p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise BadPermutation(f"expected a permutation of 0..{n - 1}, got {perm!r}")
    return p
