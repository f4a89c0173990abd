"""Shared defaults and the result container used by every checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadPermutation, DimensionMismatch

__all__ = ["DEFAULT_TOL", "CheckResult", "as_permutation", "require_positive"]

# Absolute max-entry tolerance.  Far above accumulated rounding at the
# dimensions this package targets (d <= 32), far below any structural
# violation.
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a numerical check: a verdict plus the margin behind it.

    ``deviation`` is the max-entry distance from the defining identity, so
    callers always see how close a failure was; ``witness`` names the worst
    offender when there is a meaningful one.
    """

    passed: bool
    deviation: float
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.passed


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
