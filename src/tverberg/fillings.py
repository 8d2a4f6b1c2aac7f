"""Grid fillings that name the determinant monomials of a partition system.

Every nonzero term in the determinant expansion of the system matrix (with
one point column swapped for the right-hand side) picks, per class, one
matrix row for each of the class's points plus marker columns for the rows
left over.  A Filling records that choice as a (d+1) x r grid: cell (k, m)
holds the element of class m whose coordinate-k entry enters the product,
and a None marker where row k's shared column (the right-hand side for the
ones row, a z column otherwise) is used instead.

On an ordered growth sequence the largest monomial can be located purely
combinatorially from the dominance order of the coordinate gaps; the
machinery here builds it, compares fillings through z-switches, and
assembles the certificates used to refute non-rainbow partitions.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, NamedTuple, Sequence

from .exact import _scaled_int_rows, _sign, scalar
from .partitions import (
    Partition,
    _cramer_det,
    _cramer_matrix,
    _position,
    is_rainbow,
    partition_to_json,
    tverberg_number,
)
from .sequences import DominanceProfile, PointSequence, growth_product, lift


class InvalidFillingError(ValueError):
    """The grid does not describe a transversal of the class system."""


def _grid_height(partition: Partition) -> int:
    """Rows of the partition's filling grid, (n - 1)/(r - 1), which is d + 1."""
    n, r = partition.n, partition.r
    if r < 2:
        raise InvalidFillingError(f"a partition needs at least two classes, got {r}")
    if (n - 1) % (r - 1) != 0:
        raise InvalidFillingError(f"{n} elements in {r} classes fit no grid")
    return (n - 1) // (r - 1)


@dataclass(frozen=True)
class Filling:
    """One nonzero monomial of det(M_ell), presented as a (d+1) x r grid.

    Rows are coordinate levels 0..d (0 is the lifted ones row), columns are
    the partition classes.  Cell values are elements of 1..n except ell, or
    None for the single marker each row carries.
    """

    partition: Partition
    ell: int
    grid: tuple

    def __init__(self, partition: Partition, ell: int, grid: Sequence[Sequence]):
        n, r = partition.n, partition.r
        height = _grid_height(partition)
        if not 1 <= _position(ell) <= n:
            raise InvalidFillingError(f"ell={ell} is not a position in 1..{n}")
        rows = tuple(
            tuple(cell if cell is None else _position(cell) for cell in row) for row in grid
        )
        if len(rows) != height:
            raise InvalidFillingError(f"grid needs exactly {height} rows")
        if any(len(row) != r for row in rows):
            raise InvalidFillingError(f"every grid row needs exactly {r} cells")
        for k, row in enumerate(rows):
            if sum(1 for cell in row if cell is None) != 1:
                raise InvalidFillingError(f"row {k} must hold exactly one marker")
        for m, cls in enumerate(partition.classes, start=1):
            placed = sorted(row[m - 1] for row in rows if row[m - 1] is not None)
            expected = sorted(set(cls) - {ell})
            if placed != expected:
                raise InvalidFillingError(
                    f"column {m} holds {placed}, expected exactly {expected}"
                )
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "grid", rows)

    @property
    def d(self) -> int:
        return len(self.grid) - 1

    @property
    def r(self) -> int:
        return self.partition.r

    @property
    def z_columns(self) -> tuple:
        """Per grid row, the 1-based class column holding that row's marker."""
        return tuple(row.index(None) + 1 for row in self.grid)

    @property
    def is_column_increasing(self) -> bool:
        for m in range(self.r):
            entries = [row[m] for row in self.grid if row[m] is not None]
            if any(a >= b for a, b in zip(entries, entries[1:])):
                return False
        return True

    def column_entries(self, m: int) -> tuple:
        """(grid row, element) pairs of class column m, top to bottom."""
        return tuple(
            (k, row[m - 1]) for k, row in enumerate(self.grid) if row[m - 1] is not None
        )


def _transversals(partition: Partition, ell: int):
    """The fillings of the class grid, one marker pattern at a time.

    Marker patterns (the class column of each row's marker) come in
    lexicographic order.  Each yields one list per class of the ways its
    elements fill the class's free rows, in itertools.permutations order of
    the sorted elements: (sign, cells), the permutation's sign and its
    (grid row, element) pairs.  The first way is the increasing one, and
    itertools.product over the lists runs every filling of the pattern.
    """
    r = partition.r
    height = _grid_height(partition)
    members = [sorted(set(cls) - {ell}) for cls in partition.classes]
    need = [height - len(cls) for cls in members]
    if any(z < 0 for z in need):
        raise InvalidFillingError("a class has more elements than grid rows")
    orders = [
        [(_perm_sign(idx), [cls[i] for i in idx]) for idx in itertools.permutations(range(len(cls)))]
        for cls in members
    ]
    for zcols in itertools.product(range(1, r + 1), repeat=height):
        if any(zcols.count(m) != need[m - 1] for m in range(1, r + 1)):
            continue
        free = [[k for k in range(height) if zcols[k] != m] for m in range(1, r + 1)]
        yield [
            [(sign, tuple(zip(rows, elements))) for sign, elements in order]
            for rows, order in zip(free, orders)
        ]


def _grid(height: int, cells_by_class) -> list:
    """The filling grid of one placement per class; cells left empty are the markers."""
    grid = [[None] * len(cells_by_class) for _ in range(height)]
    for m, cells in enumerate(cells_by_class):
        for k, e in cells:
            grid[k][m] = e
    return grid


def enumerate_valid_fillings(partition: Partition, ell: int, increasing_only: bool = False) -> list:
    """Every filling of the class grid, in a fixed deterministic order.

    Marker patterns (the class column of each row's marker) come in
    lexicographic order; unless increasing_only is set, each pattern further
    expands into all per-column arrangements of its elements.
    """
    height = _grid_height(partition)
    results = []
    for arrangements in _transversals(partition, ell):
        choices = itertools.product(*arrangements)
        for choice in [next(choices)] if increasing_only else choices:
            results.append(Filling(partition, ell, _grid(height, [cells for _, cells in choice])))
    return results


# ---------------------------------------------------------------------------
# monomial evaluation


class Monomial(NamedTuple):
    """One term of det(M_ell), equal to sign * value.

    sign is the parity of the filling's transversal, not the sign of the
    term; value carries the (-1)**d of the markers and the entries, so the
    term's sign is sign times the sign of value.
    """

    filling: Filling
    value: Fraction
    sign: int


def _row_order(height: int, n: int, points: Optional[PointSequence], row_coords) -> tuple:
    """row_coords as a tuple (identity when None), checked against the grid and the points."""
    if row_coords is None:
        coords = tuple(range(height))
    else:
        coords = tuple(int(c) for c in row_coords)
        if sorted(coords) != list(range(height)):
            raise ValueError(f"row_coords must permute 0..{height - 1}")
    if (points is not None or height > 1) and (points is None or points.dim != height - 1 or points.length != n):
        raise ValueError(f"points must be a {height - 1}-dimensional sequence of length {n}")
    return coords


def _perm_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = True
            cursor = perm[cursor]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _transversal(grid: Sequence[Sequence], ell: int, n: int, coords: tuple) -> int:
    """Parity of a filling grid's transversal under the row order.

    That is the sign of the transversal as a permutation of the original
    system matrix.
    """
    height, r = len(grid), len(grid[0])
    perm = [0] * (height * r)
    for m in range(1, r + 1):
        base = (m - 1) * height
        for k, row in enumerate(grid):
            cell = row[m - 1]
            if cell is None:
                column = ell - 1 if coords[k] == 0 else n + coords[k] - 1
            else:
                column = cell - 1
            perm[base + coords[k]] = column
    return _perm_sign(perm)


def monomial_value(filling: Filling, points: Optional[PointSequence], row_coords=None) -> Monomial:
    """Exact value and transversal sign of the filling's monomial.

    Grid row k reads lifted coordinate row_coords[k] of the points (identity
    when omitted); coordinate 0 is the constant 1, so points may be None for
    a single-row grid.  The sign is the parity of the transversal inside the
    original system matrix, so summing sign*value over every valid filling
    reproduces det(M_ell) whatever the row order.
    """
    n = filling.partition.n
    coords = _row_order(filling.d + 1, n, points, row_coords)
    # Each grid row holds one marker, so d of them sit on non-ones rows, each
    # reading a -1 entry: the factor (-1)**d, whatever the row order.
    value = Fraction(-1 if filling.d % 2 else 1)
    for k, row in enumerate(filling.grid):
        for cell in row:
            if coords[k] > 0 and cell is not None:
                value *= points.entry(coords[k], cell)
    return Monomial(filling, value, _transversal(filling.grid, filling.ell, n, coords))


# ---------------------------------------------------------------------------
# z-switches


def _switch_columns(filling: Filling, s: int, t: int) -> tuple:
    zcols = filling.z_columns
    if not 0 <= s < t <= filling.d:
        raise InvalidFillingError(f"need grid rows 0 <= s < t <= {filling.d}")
    alpha, beta = zcols[s], zcols[t]
    if alpha == beta:
        raise InvalidFillingError("markers sit in the same column; nothing to switch")
    return alpha, beta


def crossing_pairs(filling: Filling, s: int, t: int) -> tuple:
    """The (gap, i, j) triples priced into the ratio of a z-switch.

    For each coordinate gap u in s+1..t (the gap between grid rows u-1 and
    u), i is the smallest element of the alpha column at grid rows >= u and
    j the largest element of the beta column at grid rows <= u-1; both exist
    because row t's alpha cell and row s's beta cell hold elements.
    """
    alpha, beta = _switch_columns(filling, s, t)
    if not filling.is_column_increasing:
        raise InvalidFillingError("crossing pairs assume column-increasing order")
    alpha_cells = filling.column_entries(alpha)
    beta_cells = filling.column_entries(beta)
    triples = []
    for u in range(s + 1, t + 1):
        i_u = min(e for k, e in alpha_cells if k >= u)
        j_u = max(e for k, e in beta_cells if k <= u - 1)
        triples.append((u, i_u, j_u))
    return tuple(triples)


def switch_ratio(filling: Filling, points: PointSequence, s: int, t: int) -> Fraction:
    """Exact value ratio w''/w of the z-switch between marker rows s and t."""
    pairs = {u: (i_u, j_u) for u, i_u, j_u in crossing_pairs(filling, s, t)}
    return growth_product(lift(points), pairs)


# ---------------------------------------------------------------------------
# the band split and the dominant filling


def check_split_conditions(x_by_class, y_by_class, h_top: int, h_bot: int) -> tuple:
    """Violation messages for the four dominant-split conditions, if any.

    (a) inside every class, the top part lies entirely below the bottom part
    in value; (b) no class exceeds either side's row capacity; (c) whenever
    class alpha has spare room on top and class beta spare room at the
    bottom, beta's top part lies entirely below alpha's bottom part; (d) the
    top side holds exactly h_top * (r - 1) elements.
    """
    x, y = x_by_class, y_by_class
    r = len(x)
    violations = []
    for m in range(r):
        if x[m] and y[m] and max(x[m]) >= min(y[m]):
            violations.append(f"(a) class {m + 1}: top part reaches {max(x[m])}, bottom starts at {min(y[m])}")
    for m in range(r):
        if len(x[m]) > h_top:
            violations.append(f"(b) class {m + 1}: {len(x[m])} elements exceed top capacity {h_top}")
        if len(y[m]) > h_bot:
            violations.append(f"(b) class {m + 1}: {len(y[m])} elements exceed bottom capacity {h_bot}")
    for alpha in range(r):
        if len(x[alpha]) >= h_top:
            continue
        for beta in range(r):
            if beta == alpha or len(y[beta]) >= h_bot:
                continue
            if x[beta] and y[alpha] and max(x[beta]) >= min(y[alpha]):
                violations.append(
                    f"(c) classes {alpha + 1},{beta + 1}: {max(x[beta])} does not precede {min(y[alpha])}"
                )
    total = sum(len(cls) for cls in x)
    if total != h_top * (r - 1):
        violations.append(f"(d) top side holds {total} elements, wants {h_top * (r - 1)}")
    return tuple(violations)


def dominant_split(elements_by_class, h_top: int, h_bot: int) -> tuple:
    """Split class traces into a top and bottom band; return (x_by_class, y_by_class).

    Class C_m, sorted, puts at least low_m = max(0, |C_m| - h_bot) and at
    most high_m = min(h_top, |C_m|) elements on top.  Its first low_m
    elements are its forced prefix; C_m[j] with low_m <= j < high_m are its
    spare elements.  The top side takes every forced prefix and then the
    h_top*(r-1) - sum(low) smallest spare elements of the band, so each class
    puts on top a prefix of its trace.  There are enough spare elements:
    sum(low) <= h_top*(r-1) <= sum(high), since no class exceeds
    h_top + h_bot.

    The cut meets the four split conditions: (a), (b) and (d) by
    construction, and (c) because every spare element taken lies below every
    one left, a class with room on top starts any bottom part with a spare
    element left, and a class with room at the bottom ends any top part with
    a spare element taken.  It is the only prefix cut that does: were
    a != a' two passing cuts, with a_alpha < a'_alpha and a_beta > a'_beta,
    condition (c) on each would give
    C_alpha[a_alpha] <= C_alpha[a'_alpha - 1] < C_beta[a'_beta]
    <= C_beta[a_beta - 1] < C_alpha[a_alpha].
    """
    classes = [tuple(sorted(cls)) for cls in elements_by_class]
    r = len(classes)
    if r < 2 or h_top < 1 or h_bot < 1:
        raise ValueError("need at least two classes and nonempty bands")
    if any(len(cls) > h_top + h_bot for cls in classes):
        raise ValueError("a class exceeds the band capacity")
    size = (h_top + h_bot) * (r - 1)
    if sum(map(len, classes)) != size or len(set().union(*classes)) != size:
        raise ValueError(f"band must hold exactly {size} distinct elements")

    cuts = [max(0, len(cls) - h_bot) for cls in classes]
    spare = sorted((e, m) for m, cls in enumerate(classes) for e in cls[cuts[m] : h_top])
    for _, m in spare[: h_top * (r - 1) - sum(cuts)]:
        cuts[m] += 1
    return (
        tuple(cls[:k] for cls, k in zip(classes, cuts)),
        tuple(cls[k:] for cls, k in zip(classes, cuts)),
    )


def _band_rows(lo: int, hi: int, by_class: tuple, cuts: dict, memo: dict) -> tuple:
    """The dominant filling's grid rows lo..hi (lo < hi) for the class traces by_class.

    by_class holds each class's sorted elements, ell removed, that the band
    takes.  The band is cut at its most dominant gap, cuts[lo, hi]
    (DominanceProfile._band_cuts), by dominant_split, and every cut computed
    here must pass check_split_conditions (InvalidFillingError otherwise).  A
    one-row band takes each class's one element and a marker for its one
    empty class.  A sub-band's rows depend only on (lo, hi, by_class), so
    memo keeps them by that key and a later band that meets the same sub-band
    reuses its checked rows; the band (lo, hi) itself is not stored.
    """
    tau = cuts[lo, hi]
    h_top, h_bot = tau - lo, hi - tau + 1
    x_by_class, y_by_class = dominant_split(by_class, h_top, h_bot)
    bad = check_split_conditions(x_by_class, y_by_class, h_top, h_bot)
    if bad:
        raise InvalidFillingError("split conditions failed: " + "; ".join(bad))
    rows = ()
    for sub_lo, sub_hi, classes in ((lo, tau - 1, x_by_class), (tau, hi, y_by_class)):
        if sub_lo == sub_hi:
            rows += (tuple(cls[0] if cls else None for cls in classes),)
            continue
        key = (sub_lo, sub_hi, classes)
        sub = memo.get(key)
        if sub is None:
            sub = memo[key] = _band_rows(sub_lo, sub_hi, classes, cuts, memo)
        rows += sub
    return rows


def find_dominant_filling(partition: Partition, ell: int, profile: DominanceProfile) -> Filling:
    """The filling of the largest monomial, from the dominance order alone.

    Works purely combinatorially: each band of grid rows is split at its
    most dominant interior gap via dominant_split (_band_rows), until
    one-row bands fix every element's row and park the row's marker in its
    unique empty class.
    """
    n = partition.n
    d = _grid_height(partition) - 1
    if profile.gaps != d:
        raise ValueError(f"profile covers {profile.gaps} gaps, the grid needs {d}")
    if not 1 <= ell <= n:
        raise InvalidFillingError(f"ell={ell} is not a position in 1..{n}")
    if not partition.is_proper(d):
        raise InvalidFillingError("only proper partitions admit a filling")
    by_class = tuple(tuple(e for e in cls if e != ell) for cls in partition.classes)
    return Filling(partition, ell, _band_rows(0, d, by_class, profile._band_cuts, {}))


def sign_flip_witness(partition: Partition, profile: DominanceProfile) -> Optional[tuple]:
    """Consecutive same-class pair whose dominant fillings share all markers.

    Returns the first such (ell1, ell2) scanning classes in listed order, or
    None.  Two excluded positions with identical marker placement force the
    two transversals to opposite signs, so their determinants disagree and
    the partition cannot reach a common point; every proper non-rainbow
    partition admits such a pair.
    """
    d = profile.gaps
    if partition.n != tverberg_number(partition.r, d):
        raise ValueError("partition size does not match the profile dimension")
    if is_rainbow(partition, d):
        raise ValueError("rainbow partitions never produce a sign-flip witness")
    for cls in partition.classes:
        if len(cls) < 2:
            continue
        previous = find_dominant_filling(partition, cls[0], profile).z_columns
        for ell1, ell2 in zip(cls, cls[1:]):
            markers = find_dominant_filling(partition, ell2, profile).z_columns
            if markers == previous:
                return (ell1, ell2)
            previous = markers
    return None


def _dominant_sign(grid: Sequence[Sequence], ell: int, n: int, row_coords: tuple) -> int:
    """The sign of a filling grid's term when every lifted entry is positive.

    That is the transversal parity (Monomial.sign) times (-1)**d for the d
    markers on non-ones rows (see monomial_value); no entry is multiplied.
    The CLI's "dominant monomial sign" is this value.
    """
    parity = _transversal(grid, ell, n, row_coords)
    return -parity if (len(grid) - 1) % 2 else parity


def _dominant_signs(classes: tuple, profile: DominanceProfile, row_coords: tuple, memo: dict) -> list:
    """sign det(M_ell) for ell = 1, 2, ..., up to the first that differs from ell = 1's.

    classes are the sorted class tuples of a proper partition of 1..n whose
    grid has profile.gaps + 1 rows.  Each sign is that of the dominant
    monomial, read from the rows _band_rows builds (the grid of
    find_dominant_filling, without a Filling); it is the determinant's sign
    when the ordered lift, read in the order row_coords, is dominant at q >=
    default_threshold(d, r) under profile (criteria 4 and 5), since every
    lifted entry of such a sequence is positive.  That threshold is one
    above the largest monomial count N of det(M_ell), and a monomial that
    beats the runner-up by q >= N - 1 outweighs the other N - 1 together, so
    it fixes the sign (see default_threshold).  The partition is Tverberg
    exactly when the list ends on the sign it starts with.  memo, one dict
    per profile, carries the checked sub-band splits from call to call.
    """
    n = sum(map(len, classes))
    cuts = profile._band_cuts
    signs = []
    for ell in range(1, n + 1):
        by_class = tuple(tuple(e for e in cls if e != ell) if ell in cls else cls for cls in classes)
        signs.append(_dominant_sign(_band_rows(0, profile.gaps, by_class, cuts, memo), ell, n, row_coords))
        if signs[-1] != signs[0]:
            break
    return signs


# ---------------------------------------------------------------------------
# exhaustive dominance audit


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of enumerating every monomial of one det(M_ell) expansion.

    dominant_sign is the parity of the dominant filling's transversal, as in
    Monomial.sign, not the sign of the term: that is dominant_sign times the
    sign of dominant_value.
    """

    ell: int
    q: Fraction
    row_coords: tuple
    monomial_count: int
    dominant: Filling
    dominant_value: Fraction
    dominant_sign: int
    runner_up: Optional[Fraction]
    determinant: Fraction
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def dominance_report(
    points: PointSequence, partition: Partition, ell: int, q, row_coords
) -> DominanceReport:
    """Check the dominant-monomial claims exhaustively on one instance.

    Enumerates all monomials of det(M_ell), finds the largest by absolute
    value (the first in enumeration order on a tie), and records violations
    when it fails to dominate the runner-up by a factor q, disagrees in sign
    with the determinant, or (as a self-check) when the signed monomials fail
    to sum to the determinant.  The grid rows read the lifted coordinates in
    the order row_coords, as ordered_lift returns it.

    The monomials multiply integers: each coordinate row scaled by the lcm
    lambda_t of its denominators, a marker on row t > 0 reading -lambda_t.
    A grid row holds r - 1 entries and one marker, so every monomial carries
    the factor prod lambda_t**r, divided out once at the end.  A monomial's
    sign is the parity of its marker pattern's increasing filling times the
    sign of each class's arrangement.  The determinant is a separate route:
    one maximal minor of the Cramer check's integer matrix K (_cramer_det).
    """
    threshold = scalar(q)
    n = partition.n
    height = _grid_height(partition)
    if not 1 <= _position(ell) <= n:
        raise InvalidFillingError(f"ell={ell} is not a position in 1..{n}")
    if points is None:  # _row_order lets it through for monomial_value's one-row grids
        raise ValueError(f"points must be a {height - 1}-dimensional sequence of length {n}")
    coords = _row_order(height, n, points, row_coords)
    ints, scales = _scaled_int_rows(points.rows)
    minor = _cramer_det(_cramer_matrix(ints, partition), (height - 1) * n, ell - 1)
    determinant = Fraction(minor, prod(scales) ** (partition.r - 1))
    lifted = [[1] * n, *ints]
    scale = prod(scales) ** partition.r
    markers = prod(-s for s in scales)  # one marker on each row but the ones row
    count, total = 0, 0
    best = second = -1
    for arrangements in _transversals(partition, ell):
        increasing = _grid(height, [ways[0][1] for ways in arrangements])
        monomials = [(_transversal(increasing, ell, n, coords), markers, ())]
        for ways in arrangements:  # class by class, in itertools.product order
            priced = [(s, prod(lifted[coords[k]][e - 1] for k, e in cells), cells) for s, cells in ways]
            monomials = [
                (sign * s, value * v, placed + (cells,))
                for sign, value, placed in monomials
                for s, v, cells in priced
            ]
        for sign, value, placed in monomials:
            count += 1
            total += sign * value
            size = abs(value)
            if size > best:
                best, second, top = size, best, (sign, value, placed)
            elif size > second:
                second = size

    top_parity, top_value, placed = top
    dominant_value = Fraction(top_value, scale)
    runner_up = Fraction(second, scale) if count > 1 else None
    total = Fraction(total, scale)

    violations = []
    if runner_up is not None and abs(dominant_value) <= threshold * runner_up:
        violations.append(
            f"max-not-dominant: |{dominant_value}| <= {threshold} * {runner_up}"
        )
    top_sign = top_parity * _sign(top_value)
    if top_sign != _sign(determinant):
        violations.append(
            f"sign-mismatch: dominant contributes {top_sign}, determinant sign is {_sign(determinant)}"
        )
    if total != determinant:
        violations.append(f"sum-mismatch: monomials total {total}, determinant is {determinant}")

    return DominanceReport(
        ell=ell,
        q=threshold,
        row_coords=tuple(row_coords),
        monomial_count=count,
        dominant=Filling(partition, ell, _grid(height, placed)),
        dominant_value=dominant_value,
        dominant_sign=top_parity,
        runner_up=runner_up,
        determinant=determinant,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# serialization


def filling_to_json(filling: Filling) -> dict:
    grid = [
        [f"z{k}" if cell is None else cell for cell in row]
        for k, row in enumerate(filling.grid)
    ]
    return {
        "ell": filling.ell,
        "partition": partition_to_json(filling.partition),
        "grid": grid,
    }
