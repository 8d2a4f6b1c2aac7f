"""Exact rational scalars and dense-matrix kernels: determinant sign, rank, solving.

All arithmetic is over arbitrary-precision rationals.  Entries can grow to
millions of bits, so elimination is fraction-free (Bareiss): rows are scaled
to integers once, and every intermediate value stays an exact integer.  One
kernel serves every routine below; it pivots on the nonzero entry with the
fewest bits, so the pivot every later step divides by stays small.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence, Union

ScalarLike = Union[Fraction, int, str]

# An entry of more bits than this (8 MiB) is refused instead of built: the
# (4,2) rung's largest has 7.1 M bits, the (5,2) rung's about 1.6 * 10**9.
_ENTRY_BIT_BUDGET = 1 << 26

# The exponent of a decimal string such as "1.5e-7", in Fraction's grammar.
_DECIMAL_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)

# The largest |e| read from a decimal string: Fraction builds 10**|e|, which
# takes about 0.4 s at e = 10**6 and 20 s at 1.6 * 10**7.
_DECIMAL_EXPONENT_BUDGET = 10**6


class _BudgetError(ValueError):
    """An input passes a size budget, such as _ENTRY_BIT_BUDGET; it is refused unbuilt."""


class DimensionError(ValueError):
    """Shapes of operands do not line up."""


class SingularMatrixError(ValueError):
    """A unique solution was requested from a singular system."""


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, 'p/q' or decimal string, or Fraction to a canonical rational.

    A decimal string's exponent e makes Fraction build 10**|e|; past
    _DECIMAL_EXPONENT_BUDGET the string is refused before any power is built.
    An exponent of more digits than the budget itself is refused by its
    length alone, as reading a long digit string is slow too.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        found = _DECIMAL_EXPONENT.search(value)
        digits = found[1].replace("_", "").lstrip("0") if found else ""
        budget = _DECIMAL_EXPONENT_BUDGET
        if len(digits) > len(str(budget)) or int(digits or 0) > budget:
            raise _BudgetError(
                f"the exponent of {value!r} passes the budget of {budget} for decimal exponents"
            )
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Matrix(tuple):
    """Immutable dense matrix of exact rationals: a tuple of equal-length row tuples.

    Being a tuple, a Matrix hashes like its tuple of rows and compares equal
    to a plain tuple of the same row tuples.
    """

    __slots__ = ()

    def __new__(cls, cells: Iterable[Iterable[ScalarLike]]):
        data = tuple(tuple(scalar(x) for x in row) for row in cells)
        if not data or not data[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("rows have unequal lengths")
        return super().__new__(cls, data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    rows = property(len)
    cols = property(lambda self: len(self[0]))
    is_square = property(lambda self: self.rows == self.cols)

    def with_column(self, j: int, column: Sequence[ScalarLike]) -> "Matrix":
        """A copy with column j replaced."""
        if len(column) != self.rows:
            raise DimensionError("replacement column has the wrong length")
        new = scalar
        return Matrix(
            [
                tuple(new(column[i]) if k == j else row[k] for k in range(self.cols))
                for i, row in enumerate(self)
            ]
        )


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
        grid.append([x.numerator * (mult // x.denominator) for x in row])
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
            bits = x.bit_length()
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
    prev = 1
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


def _grid_det(grid: list):
    """Determinant of a square integer grid, eliminated in place; 1 when empty."""
    n = len(grid)
    if not n:
        return 1
    pivots, sign = _eliminate(grid, n)
    if len(pivots) < n:
        return 0
    return sign * grid[n - 1][pivots[-1]]


def det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    if not m.is_square:
        raise DimensionError("determinant needs a square matrix")
    grid, scales = _scaled_int_rows(m)
    return Fraction(_grid_det(grid), prod(scales))


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
        acc = Fraction(grid[i][n])
        for j in pivots[i + 1:]:
            acc -= grid[i][j] * solution[j]
        solution[pivots[i]] = acc / grid[i][pivots[i]]
    return tuple(solution)
