"""Latin squares and complex Hadamard matrices.

These two combinatorial designs are exactly the data needed to assemble a
shift-and-multiply family of unitaries: the Latin square fixes where each
column of a basis element lands (the permutation part) and one Hadamard
matrix per column-shift fixes the phases (the diagonal part).

Grid orientation: ``grid[j][k]`` is the target row for column ``k`` under
shift selector ``j``; the same ``j`` selects the j-th Hadamard matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .common import (DEFAULT_TOL, CheckResult, _freeze, _integral, _Value, as_permutation,
                     require_positive)
from .errors import (
    DesignInvalid,
    DimensionTooLarge,
    NotUnimodular,
    PeriodicityViolated,
    SymbolOutOfRange,
)
from .tensor import _identity_gap, max_abs

__all__ = [
    "LatinSquare",
    "HadamardMatrix",
    "latin_from_cyclic",
    "validate_latin",
    "latin_equivalence_apply",
    "count_normalized_latin",
    "fourier_hadamard",
    "hadamard_d4_family",
    "periodic_phase_hadamard",
    "validate_hadamard",
    "dephase_hadamard",
    "hadamards_equivalent",
]

# Exhaustive Latin-square counting is capped here; the search space beyond
# d=5 explodes far past desk scale.
MAX_ENUMERATION_D = 5


def _as_grid(square) -> np.ndarray:
    if isinstance(square, LatinSquare):
        return square.grid
    grid = np.asarray(square)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise DesignInvalid(f"grid must be square, got shape {grid.shape}")
    require_positive(grid.shape[0])
    if not _integral(square, grid):  # a cast to int would truncate 0.9 into the symbol 0
        raise DesignInvalid(f"grid entries must be integers, got {square!r}")
    return grid


def _as_phase_matrix(h) -> np.ndarray:
    if isinstance(h, HadamardMatrix):
        return h.matrix
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DesignInvalid(f"matrix must be square, got shape {m.shape}")
    require_positive(m.shape[0])
    return m


@dataclass(frozen=True, eq=False)
class LatinSquare(_Value):
    """A d x d grid over symbols 0..d-1, each exactly once per row and column.

    Construction validates the grid and rejects anything else, so holding a
    ``LatinSquare`` is proof of validity.
    """

    grid: np.ndarray

    def __post_init__(self):
        grid = _as_grid(self.grid)
        result = validate_latin(grid)
        if not result:
            raise DesignInvalid(f"not a Latin square: {result.witness}")
        _freeze(self, "grid", grid)

    @property
    def d(self) -> int:
        return self.grid.shape[0]


@dataclass(frozen=True, eq=False)
class HadamardMatrix(_Value):
    """A square matrix of unit-modulus entries with H H* = d I.

    Construction validates both conditions at the package default tolerance.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_phase_matrix(self.matrix)
        result = validate_hadamard(m)
        if not result:
            raise DesignInvalid(
                f"not a Hadamard matrix: {result.witness} (deviation {result.deviation:.3e})"
            )
        _freeze(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def latin_from_cyclic(d: int) -> LatinSquare:
    """Addition table of the cyclic group: grid[j, k] = (j + k) mod d."""
    require_positive(d)
    j, k = np.indices((d, d))
    return LatinSquare((j + k) % d)


def validate_latin(grid) -> CheckResult:
    """Check row and column injectivity of a grid over symbols 0..d-1.

    Returns a failing result naming the first violating row or column.
    Raises ``DesignInvalid`` for a grid without an integer dtype and
    ``SymbolOutOfRange`` for an entry that is not a valid symbol.
    """
    g = _as_grid(grid)
    d = g.shape[0]
    if g.min() < 0 or g.max() >= d:
        raise SymbolOutOfRange(f"entries must lie in 0..{d - 1}")
    bad = [f"row {j}" for j, row in enumerate(g.tolist()) if len(set(row)) < d]
    bad += [f"column {k}" for k, col in enumerate(g.T.tolist()) if len(set(col)) < d]
    return CheckResult(not bad, float(len(bad)), bad[0] if bad else None)


def latin_equivalence_apply(square, p, q, r) -> LatinSquare:
    """Relabel rows by p, columns by q, and symbols by r.

    The result grid is ``r[grid[p[j], q[k]]]``; equivalence moves preserve
    the Latin property, which construction re-checks.
    """
    g = _as_grid(square)
    d = g.shape[0]
    pp = as_permutation(p, d)
    qq = as_permutation(q, d)
    rr = as_permutation(r, d)
    return LatinSquare(rr[g[np.ix_(pp, qq)]])


def count_normalized_latin(d: int) -> int:
    """Count d x d Latin squares whose first row and column are 0, 1, ..., d-1.

    Depth-first search over rows, each a permutation held as a bitmask with
    bit k*d + s set when column k holds symbol s, so a row fits under the rows
    above when it shares no bit with their union; capped at d = 5.
    """
    if d > MAX_ENUMERATION_D:
        raise DimensionTooLarge(
            f"normalized Latin squares are only enumerated up to d={MAX_ENUMERATION_D}; "
            f"counts grow astronomically beyond that"
        )
    require_positive(d)
    bits = [[1 << (k * d + s) for s in range(d)] for k in range(d)]
    rows = [[] for _ in range(d)]
    for p in permutations(range(d)):
        rows[p[0]].append(sum(map(list.__getitem__, bits, p)))

    def count(r: int, used: int) -> int:
        if r == d:
            return 1
        return sum(count(r + 1, used | m) for m in rows[r] if not used & m)

    return count(1, rows[0][0])  # row 0 is the identity, the first permutation


def fourier_hadamard(d: int) -> HadamardMatrix:
    """Discrete Fourier phases: entry (k, l) is exp(2 pi i k l / d)."""
    require_positive(d)
    k, l = np.indices((d, d))
    return HadamardMatrix(np.exp(2j * np.pi * k * l / d))


def hadamard_d4_family(u: complex) -> HadamardMatrix:
    """The one-parameter family of 4 x 4 Hadamard matrices.

    ``u`` may be any unit-modulus phase; every choice yields a valid
    Hadamard matrix, and the family sweeps through all of them at d = 4
    up to equivalence.
    """
    u = complex(u)
    if not abs(abs(u) - 1.0) <= 1e-12:  # fails closed on NaN
        raise NotUnimodular(f"|u| = {abs(u)} is not 1")
    return HadamardMatrix(
        np.array(
            [
                [1, 1, 1, 1],
                [1, 1, -1, -1],
                [1, -1, u, -u],
                [1, -1, -u, u],
            ],
            dtype=complex,
        )
    )


def periodic_phase_hadamard(p: int, q: int, phase_matrix) -> HadamardMatrix:
    """Twist the Fourier matrix of order p*q by a doubly periodic phase grid.

    ``phase_matrix`` must be (p*q) x (p*q) with unit-modulus entries, and
    periodic: within 1e-12 of its top-left p x q cell tiled, so constant under
    shifts of p rows and q columns.  Entry (k, l) of the result is
    ``phase_matrix[k, l] * exp(2 pi i k l / (p*q))``.
    """
    require_positive(p, "period p")
    require_positive(q, "period q")
    d = p * q
    v = np.asarray(phase_matrix, dtype=complex)
    if v.shape != (d, d):
        raise PeriodicityViolated(f"phase matrix shape {v.shape} is not ({d}, {d})")
    bad = ~(np.abs(np.abs(v) - 1.0) <= 1e-12)  # fails closed on NaN
    if bad.any():
        k, l = np.argwhere(bad)[0]
        raise NotUnimodular(f"phase matrix entry ({k}, {l}) has modulus {abs(v[k, l])}")
    bad = ~(np.abs(v - np.tile(v[:p, :q], (q, p))) <= 1e-12)  # fails closed on NaN
    if bad.any():
        k, l = np.argwhere(bad)[0]
        raise PeriodicityViolated(
            f"phase matrix is not periodic: entry ({k}, {l}) differs from "
            f"its cell entry ({k % p}, {l % q})"
        )
    k, l = np.indices((d, d))
    return HadamardMatrix(v * np.exp(2j * np.pi * k * l / d))


def validate_hadamard(h, tol: float = DEFAULT_TOL) -> CheckResult:
    """Check unimodular entries and H H* = d I, reporting the worse deviation."""
    m = _as_phase_matrix(h)
    d = m.shape[0]
    sides = [max_abs(np.abs(m) - 1.0), _identity_gap(m @ m.conj().T, d).max()]
    names = ("an entry is not unimodular", "rows are not orthogonal at norm sqrt(d)")
    return CheckResult.worst(sides, tol, lambda side: names[side])


def _dephased(m: np.ndarray) -> np.ndarray:
    out = m / m[:, :1]
    return out / out[:1, :]


def dephase_hadamard(h) -> HadamardMatrix:
    """Equivalent representative with all-ones first row and column.

    Divides each row by its first entry, then each column by its resulting
    first entry.  Idempotent, and invariant under row/column phase twists.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or NaN entry fails validation
        return HadamardMatrix(_dephased(_as_phase_matrix(h)))


def hadamards_equivalent(h1, h2, tol: float = 1e-8) -> bool:
    """Decide equivalence by row/column permutation search on dephased forms.

    Two Hadamard matrices are equivalent when one maps to the other by row
    and column permutations and phase multiplications; dephasing removes the
    phase freedom, so a match of dephased forms over all d! x d! permutation
    pairs settles the question.  Feasible only at small d (the intended use
    is d <= 4; d = 5 is the practical ceiling).
    """
    a = _as_phase_matrix(h1)
    b = _as_phase_matrix(h2)
    if a.shape != b.shape:
        return False
    d = a.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or NaN entry matches nothing
        target = _dephased(b)
        for rows in permutations(range(d)):
            pa = a[list(rows), :]
            for cols in permutations(range(d)):
                if max_abs(_dephased(pa[:, list(cols)]) - target) <= tol:
                    return True
    return False
