"""Exact rational scalars and dense-matrix kernels: determinant sign, rank, solving.

All arithmetic is over arbitrary-precision rationals.  Entries can grow to
millions of bits, so elimination is fraction-free (Bareiss): rows are scaled
to integers once, and every intermediate value stays an exact integer.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

try:
    # Optional: GMP-backed integers make the elimination kernels much faster on
    # very large entries.  Results are identical; plain int is the fallback.
    from gmpy2 import mpz as _bigint
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _bigint = int

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]


class DimensionError(ValueError):
    """Shapes of operands do not line up."""


class SingularMatrixError(ValueError):
    """A unique solution was requested from a singular system."""


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction to a canonical rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def scalar_str(value: Fraction) -> str:
    """Serialize a rational as 'p/q', omitting the denominator when it is 1."""
    return str(value)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Matrix:
    """Immutable dense matrix of exact rationals, row-major."""

    __slots__ = ("rows", "cols", "_cells")

    def __init__(self, cells: Iterable[Iterable[ScalarLike]]):
        data = tuple(tuple(scalar(x) for x in row) for row in cells)
        if not data or not data[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("rows have unequal lengths")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_cells", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, i: int) -> tuple:
        return self._cells[i]

    def __iter__(self):
        return iter(self._cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._cells == other._cells

    def __hash__(self) -> int:
        return hash(self._cells)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(scalar_str(x) for x in row) for row in self._cells)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self._cells)

    def with_column(self, j: int, column: Sequence[ScalarLike]) -> "Matrix":
        """A copy with column j replaced."""
        if len(column) != self.rows:
            raise DimensionError("replacement column has the wrong length")
        new = scalar
        return Matrix(
            [
                tuple(new(column[i]) if k == j else row[k] for k in range(self.cols))
                for i, row in enumerate(self._cells)
            ]
        )

    def mul_vec(self, vec: Sequence[ScalarLike]) -> tuple:
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        v = [scalar(x) for x in vec]
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self._cells)


def _scaled_int_rows(rows: Iterable[Sequence[Fraction]]):
    """Clear denominators row by row.  Returns (integer grid, positive scale).

    Scaling a row by a positive integer scales the determinant by the same
    factor, so signs are unaffected and the exact determinant can be recovered
    by dividing by the accumulated scale.
    """
    grid = []
    scale = 1
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        grid.append([_bigint((x * mult).numerator) for x in row])
        scale *= mult
    return grid, scale


def _eliminate(grid: list, width: int) -> tuple:
    """Fraction-free (Bareiss) forward pass over an integer grid, in place.

    Pivots only within the first `width` columns, skipping a column with no
    nonzero entry at or below the current row, and updates every column.
    Returns (pivot columns, row-swap sign).  When columns 0..n-1 all pivot,
    sign * grid[n-1][n-1] is the determinant of the leading n x n block.
    """
    n_rows, n_cols = len(grid), len(grid[0])
    pivots = []
    sign = 1
    prev = _bigint(1)
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, n_rows) if grid[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
            sign = -sign
        row_r = grid[r]
        pivot = row_r[c]
        for i in range(r + 1, n_rows):
            row_i = grid[i]
            head = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots, sign


def det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not m.is_square:
        raise DimensionError("determinant needs a square matrix")
    grid, scale = _scaled_int_rows(m)
    n = m.rows
    pivots, sign = _eliminate(grid, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * int(grid[n - 1][n - 1]), scale)


def det_sign(m: Matrix) -> int:
    """Sign of the determinant: -1, 0, or +1."""
    return _sign(det(m))


def rank(m: Matrix) -> int:
    """Rank over the rationals, by fraction-free elimination with column skips."""
    grid, _ = _scaled_int_rows(m)
    return len(_eliminate(grid, m.cols)[0])


def solve_linear(m: Matrix, b: Sequence[ScalarLike]) -> tuple:
    """Unique exact solution of m x = b; raises SingularMatrixError otherwise."""
    if not m.is_square:
        raise DimensionError("solve_linear needs a square matrix")
    if len(b) != m.rows:
        raise DimensionError("right-hand side has the wrong length")
    rhs = [scalar(x) for x in b]
    augmented = [tuple(row) + (rhs[i],) for i, row in enumerate(m)]
    grid, _ = _scaled_int_rows(augmented)
    n = m.rows
    if len(_eliminate(grid, n)[0]) < n:
        raise SingularMatrixError("matrix is singular; no unique solution")
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(int(grid[i][n]))
        for j in range(i + 1, n):
            acc -= Fraction(int(grid[i][j])) * solution[j]
        solution[i] = acc / Fraction(int(grid[i][i]))
    return tuple(solution)
