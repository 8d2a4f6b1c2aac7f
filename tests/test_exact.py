"""Exact linear algebra against naive oracles and frozen cases."""
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from tverberg.exact import (
    DimensionError,
    Matrix,
    SingularMatrixError,
    det,
    det_sign,
    rank,
    scalar,
    scalar_str,
    solution_dim,
    solve_linear,
)

from oracle_utils import (
    det_by_expansion,
    perm_sign,
    rank_by_elimination,
    solution_dim_by_ranks,
    solve_by_gauss,
)

small_fraction = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def square_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(small_fraction, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def test_scalar_accepts_int_str_fraction():
    assert scalar(3) == Fraction(3)
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar(Fraction(-2, 7)) == Fraction(-2, 7)
    for value in (0.5, True, False):
        with pytest.raises(TypeError):
            scalar(value)


def test_scalar_str_round_trip():
    for value in (Fraction(0), Fraction(5), Fraction(-3, 8), Fraction(10**40, 7)):
        assert scalar(scalar_str(value)) == value


def test_matrix_is_immutable():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 3


def test_matrix_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])


def test_matrix_with_column():
    m = Matrix([[1, 2], [3, 4]])
    replaced = m.with_column(1, [9, 9])
    assert replaced == Matrix([[1, 9], [3, 9]])
    assert m == Matrix([[1, 2], [3, 4]])
    assert m.column(0) == (Fraction(1), Fraction(3))


def test_det_frozen_values():
    assert det(Matrix.identity(3)) == 1
    assert det(Matrix([[1, 2], [3, 4]])) == -2
    assert det(Matrix([[5]])) == 5
    assert det(Matrix([[1, 2], [2, 4]])) == 0
    assert det(Matrix([["1/2", "1/3"], ["1/4", "1/5"]])) == Fraction(1, 60)


def test_det_sign_values():
    assert det_sign(Matrix.identity(4)) == 1
    assert det_sign(Matrix([[1, 2], [3, 4]])) == -1
    assert det_sign(Matrix.zeros(2, 2)) == 0


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


@given(square_matrices())
def test_det_matches_permutation_expansion(rows):
    assert det(Matrix(rows)) == det_by_expansion(rows)


@given(square_matrices(max_n=4), st.data())
def test_det_row_swap_flips_sign(rows, data):
    n = len(rows)
    if n < 2:
        return
    i = data.draw(st.integers(min_value=0, max_value=n - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
    swapped = list(rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert det(Matrix(swapped)) == -det(Matrix(rows))


@given(square_matrices(max_n=4), st.lists(small_fraction, min_size=1, max_size=4))
@settings(max_examples=60)
def test_solve_agrees_with_gauss_oracle(rows, rhs_pool):
    n = len(rows)
    rhs = (rhs_pool * n)[:n]
    m = Matrix(rows)
    expected = solve_by_gauss(rows, rhs)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            solve_linear(m, rhs)
    else:
        got = solve_linear(m, rhs)
        assert got == expected
        assert m.mul_vec(got) == tuple(Fraction(b) for b in rhs)


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(Matrix([[1, 2], [2, 4]]), [1, 1])


def test_rank_frozen_values():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2, 3)) == 0
    assert rank(Matrix([[1, 0, 2], [0, 1, 3]])) == 2


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.integers(min_value=1, max_value=4).flatmap(
            lambda c: st.lists(
                st.lists(small_fraction, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_rank_matches_elimination_oracle(rows):
    assert rank(Matrix(rows)) == rank_by_elimination(rows)


def test_large_integer_det_is_exact():
    # entries around 2**600 stress the fraction-free elimination path
    big = 2**600
    m = Matrix([[big, big + 1], [big - 1, big]])
    assert det(m) == big**2 - (big + 1) * (big - 1)
    assert det(m) == 1


# The kernel pivots on the fewest-bit entry, so these cases put small entries
# away from the diagonal: every row swap and column move must count in the sign.


@pytest.mark.parametrize("perm", list(permutations(range(4))))
def test_det_of_scaled_permutation_matrices(perm):
    primes = (37, 2, 11, 5)  # 6, 2, 4 and 3 bits: pivots come out of row order
    rows = [[primes[i] if j == perm[i] else 0 for j in range(4)] for i in range(4)]
    expected = perm_sign(perm) * 37 * 2 * 11 * 5
    assert det_by_expansion(rows) == expected
    assert det(Matrix(rows)) == expected


def test_det_with_smallest_entry_in_last_row_and_column():
    rows = [[91, 60, 45], [77, 102, 38], [53, 66, 3]]
    assert det(Matrix(rows)) == det_by_expansion(rows) == -107982


def test_zero_first_column_and_late_small_entry():
    wide = [[0, 40, 96, 7], [0, 90, 216, 50], [0, 11, 17, 2]]
    assert rank(Matrix(wide)) == rank_by_elimination(wide) == 3
    square = [row[:3] for row in wide]
    assert rank(Matrix(square)) == 2
    with pytest.raises(SingularMatrixError):
        solve_linear(Matrix(square), [1, 2, 3])
    rows = [[40, 96, 7], [90, 216, 50], [11, 17, 2]]
    rhs = [1, -2, 5]
    got = solve_linear(Matrix(rows), rhs)
    assert got == solve_by_gauss(rows, rhs)
    assert Matrix(rows).mul_vec(got) == tuple(Fraction(b) for b in rhs)


# solution_dim reads rank and consistency off one pass over [m | b]; the
# oracle takes the coefficient and the augmented rank separately.


@pytest.mark.parametrize(
    "rows, rhs, expected",
    [
        ([[1, 2], [3, 4]], [1, 1], 0),  # square, unique solution
        ([[1, 2], [2, 4]], [1, 2], 1),  # square, singular, consistent
        ([[1, 2], [2, 4]], [1, 1], -1),  # square, singular, inconsistent
        ([[1, 0], [0, 1], [1, 1]], [1, 2, 3], 0),  # tall, consistent
        ([[1, 0], [0, 1], [1, 1]], [1, 2, 4], -1),  # tall, inconsistent
        ([[1, 1, 1]], [3], 2),  # wide, one equation
        ([[1, 0, 2], [0, 1, 3]], [1, 1], 1),  # wide, full row rank
        ([[1, 2, 3], [2, 4, 6]], [1, 3], -1),  # wide, inconsistent
        ([[0, 0, 0], [0, 0, 0]], [0, 0], 3),  # zero matrix, zero rhs
        ([[0, 0, 0], [0, 0, 0]], [0, 1], -1),  # zero matrix, nonzero rhs
        ([[0]], [5], -1),
    ],
)
def test_solution_dim_frozen_cases(rows, rhs, expected):
    assert solution_dim_by_ranks(rows, rhs) == expected
    assert solution_dim(Matrix(rows), rhs) == expected


@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
@settings(max_examples=150)
def test_solution_dim_matches_two_rank_oracle(n_rows, n_cols, consistent, data):
    # small integers make rank-deficient matrices common
    entry = st.integers(-2, 2).map(Fraction) | small_fraction
    rows = data.draw(
        st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows)
    )
    m = Matrix(rows)
    if consistent:
        rhs = m.mul_vec(data.draw(st.lists(small_fraction, min_size=n_cols, max_size=n_cols)))
    else:
        rhs = data.draw(st.lists(entry, min_size=n_rows, max_size=n_rows))
    expected = solution_dim_by_ranks(rows, rhs)
    assert solution_dim(m, rhs) == expected
    assert expected >= 0 or not consistent


def test_solution_dim_rejects_wrong_rhs_length():
    with pytest.raises(DimensionError):
        solution_dim(Matrix([[1, 2]]), [1, 2])
