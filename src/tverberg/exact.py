"""Exact rational scalars and dense-matrix kernels: determinant sign, rank, solving.

All arithmetic is over arbitrary-precision rationals.  Entries can grow to
millions of bits, so elimination is fraction-free (Bareiss): rows are scaled
to integers once, and every intermediate value stays an exact integer.  One
kernel serves every routine below; it pivots on the nonzero entry with the
fewest bits, so the pivot every later step divides by stays small.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence, Union

try:
    # Optional: GMP-backed integers make the elimination kernels much faster on
    # very large entries.  Results are identical; plain int is the fallback.
    from gmpy2 import mpz as _bigint
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _bigint = int

ScalarLike = Union[Fraction, int, str]


class DimensionError(ValueError):
    """Shapes of operands do not line up."""


class SingularMatrixError(ValueError):
    """A unique solution was requested from a singular system."""


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction to a canonical rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
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
    """Clear denominators row by row.  Returns (integer grid, row scales).

    Each row is multiplied by the lcm of its denominators.  Scaling a row by
    a positive integer keeps its solution set and scales the determinant by
    the same factor, so signs are unaffected and the exact determinant is
    recovered by dividing by the product of the scales.
    """
    grid, scales = [], []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        grid.append([_bigint(x.numerator * (mult // x.denominator)) for x in row])
        scales.append(mult)
    return grid, scales


def _fewest_bits(grid: list, first_row: int, free: list):
    """(row, index into free) of the nonzero entry with the fewest bits, or None.

    Scans rows from first_row on, columns in the order of free; the first
    entry of the smallest size wins, and a 1-bit entry ends the scan.
    """
    best, best_bits = None, 0
    for i in range(first_row, len(grid)):
        row = grid[i]
        for k, c in enumerate(free):
            x = row[c]
            if not x:
                continue
            bits = x.bit_length()  # of the magnitude, for int and mpz alike
            if bits == 1:
                return i, k
            if best is None or bits < best_bits:
                best, best_bits = (i, k), bits
    return best


def _eliminate(grid: list, width: int) -> tuple:
    """Fraction-free (Bareiss) forward pass over an integer grid, in place.

    Complete pivoting by size: each step pivots on the nonzero entry with the
    fewest bits among the rows and the first `width` columns not yet pivoted,
    and stops when that block is all zero.  Every later update divides by the
    previous pivot, so small pivots keep the quotients short.  Exchanging rows
    or columns not yet pivoted permutes the matrix in advance, which keeps
    every division exact.  Returns (pivot column of each row in row order,
    sign of the row swaps and column moves); when the leading n x n block has
    full rank, sign * grid[n-1][pivots[-1]] is its determinant.
    """
    n_rows, n_cols = len(grid), len(grid[0])
    free = list(range(width))  # unpivoted columns in order, after the pivoted ones
    tail = range(width, n_cols)
    pivots = []
    sign = 1
    prev = _bigint(1)
    for r in range(n_rows):
        best = _fewest_bits(grid, r, free)
        if best is None:
            break
        pivot_row, k = best
        if pivot_row != r:
            grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
            sign = -sign
        if k % 2:  # moving free[k] to the front of the free columns
            sign = -sign
        c = free.pop(k)
        rest = (*free, *tail)
        row_r = grid[r]
        pivot = row_r[c]
        for i in range(r + 1, n_rows):
            row_i = grid[i]
            head = row_i[c]
            for j in rest:
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        pivots.append(c)
    return pivots, sign


def det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not m.is_square:
        raise DimensionError("determinant needs a square matrix")
    grid, scales = _scaled_int_rows(m)
    n = m.rows
    pivots, sign = _eliminate(grid, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * int(grid[n - 1][pivots[-1]]), prod(scales))


def det_sign(m: Matrix) -> int:
    """Sign of the determinant: -1, 0, or +1."""
    return _sign(det(m))


def rank(m: Matrix) -> int:
    """Rank over the rationals: the pivot count of fraction-free elimination."""
    grid, _ = _scaled_int_rows(m)
    return len(_eliminate(grid, m.cols)[0])


def _augmented_grid(m: Matrix, b: Sequence[ScalarLike]) -> list:
    """The integer grid of [m | b], each row scaled by its own positive factor."""
    if len(b) != m.rows:
        raise DimensionError("right-hand side has the wrong length")
    return _scaled_int_rows(row + (scalar(x),) for row, x in zip(m, b))[0]


def _grid_solution_dim(grid: list, width: int) -> int:
    """Solution-set dimension of [M | b], M the first `width` columns; -1 if empty.

    Eliminates the integer grid in place.  The pivot count is M's rank, and a
    later row that keeps a nonzero rhs entry makes the set empty.
    """
    pivots, _ = _eliminate(grid, width)
    if any(row[width] for row in grid[len(pivots):]):
        return -1
    return width - len(pivots)


def solution_dim(m: Matrix, b: Sequence[ScalarLike]) -> int:
    """Dimension of the solution set of m x = b; -1 when it is empty."""
    return _grid_solution_dim(_augmented_grid(m, b), m.cols)


def solve_linear(m: Matrix, b: Sequence[ScalarLike]) -> tuple:
    """Unique exact solution of m x = b; raises SingularMatrixError otherwise."""
    if not m.is_square:
        raise DimensionError("solve_linear needs a square matrix")
    grid = _augmented_grid(m, b)
    n = m.rows
    pivots, _ = _eliminate(grid, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular; no unique solution")
    # Fraction steps cancel as they go; integer Cramer numerators (full determinant size) ran slower.
    solution = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(int(grid[i][n]))
        for j in pivots[i + 1:]:
            acc -= Fraction(int(grid[i][j])) * solution[j]
        solution[pivots[i]] = acc / Fraction(int(grid[i][pivots[i]]))
    return tuple(solution)
