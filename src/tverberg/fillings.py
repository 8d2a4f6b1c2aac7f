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
from typing import Optional, NamedTuple, Sequence

from .exact import _sign, det, scalar
from .partitions import (
    Partition,
    _position,
    build_system,
    is_rainbow,
    partition_to_json,
    tverberg_number,
)
from .sequences import DominanceProfile, PointSequence, growth_ratio, lift


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


def canonical_filling(partition: Partition, ell: int, z_columns: Sequence[int]) -> Filling:
    """The column-increasing filling with markers at the given columns.

    z_columns lists, for each grid row 0..d, the 1-based class receiving the
    marker; each class column then takes its remaining elements in increasing
    order, top to bottom.
    """
    r = partition.r
    zcols = tuple(int(m) for m in z_columns)
    if any(not 1 <= m <= r for m in zcols):
        raise InvalidFillingError("marker columns must be 1-based class indices")
    height = len(zcols)
    grid = [[None] * r for _ in range(height)]
    for m, cls in enumerate(partition.classes, start=1):
        free = [k for k in range(height) if zcols[k] != m]
        members = sorted(set(cls) - {ell})
        if len(free) != len(members):
            raise InvalidFillingError(
                f"column {m} has {len(free)} free cells for {len(members)} elements"
            )
        for k, e in zip(free, members):
            grid[k][m - 1] = e
    return Filling(partition, ell, grid)


def enumerate_valid_fillings(partition: Partition, ell: int, increasing_only: bool = False) -> list:
    """Every filling of the class grid, in a fixed deterministic order.

    Marker patterns (the class column of each row's marker) come in
    lexicographic order; unless increasing_only is set, each pattern further
    expands into all per-column arrangements of its elements.
    """
    r = partition.r
    height = _grid_height(partition)
    members = [sorted(set(cls) - {ell}) for cls in partition.classes]
    need = [height - len(cls) for cls in members]
    if any(z < 0 for z in need):
        raise InvalidFillingError("a class has more elements than grid rows")

    results = []
    for zcols in itertools.product(range(1, r + 1), repeat=height):
        if any(zcols.count(m) != need[m - 1] for m in range(1, r + 1)):
            continue
        if increasing_only:
            results.append(canonical_filling(partition, ell, zcols))
            continue
        free_rows = [
            [k for k in range(height) if zcols[k] != m] for m in range(1, r + 1)
        ]
        for arrangement in itertools.product(
            *(itertools.permutations(cls) for cls in members)
        ):
            grid = [[None] * r for _ in range(height)]
            for m in range(r):
                for k, e in zip(free_rows[m], arrangement[m]):
                    grid[k][m] = e
            results.append(Filling(partition, ell, grid))
    return results


# ---------------------------------------------------------------------------
# monomial evaluation


class Monomial(NamedTuple):
    filling: Filling
    value: Fraction
    sign: int


def _check_row_coords(filling: Filling, row_coords) -> tuple:
    height = filling.d + 1
    if row_coords is None:
        return tuple(range(height))
    coords = tuple(int(c) for c in row_coords)
    if sorted(coords) != list(range(height)):
        raise ValueError(f"row_coords must permute 0..{height - 1}")
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


def _transversal(filling: Filling, coords: tuple) -> tuple:
    """(parity, flips, reads) of the filling's transversal under the row order.

    parity is the sign of the transversal as a permutation of the original
    system matrix, flips the number of markers on non-ones rows (each picks
    a -1 entry), and reads the (coordinate, element) pairs of the point
    entries it multiplies.
    """
    n, d = filling.partition.n, filling.d
    perm = [0] * ((d + 1) * filling.r)
    reads = []
    flips = 0
    for m in range(1, filling.r + 1):
        base = (m - 1) * (d + 1)
        for k, row in enumerate(filling.grid):
            cell = row[m - 1]
            if cell is None:
                if coords[k] == 0:
                    column = filling.ell - 1
                else:
                    flips += 1
                    column = n + coords[k] - 1
            else:
                if coords[k] > 0:
                    reads.append((coords[k], cell))
                column = cell - 1
            perm[base + coords[k]] = column
    return _perm_sign(perm), flips, reads


def monomial_value(filling: Filling, points: Optional[PointSequence], row_coords=None) -> Monomial:
    """Exact value and transversal sign of the filling's monomial.

    Grid row k reads lifted coordinate row_coords[k] of the points (identity
    when omitted); coordinate 0 is the constant 1, so points may be None for
    a single-row grid.  The sign is the parity of the transversal inside the
    original system matrix, so summing sign*value over every valid filling
    reproduces det(M_ell) whatever the row order.
    """
    coords = _check_row_coords(filling, row_coords)
    n, d = filling.partition.n, filling.d
    if any(c > 0 for c in coords) and (points is None or points.dim != d or points.length != n):
        raise ValueError(f"points must be a {d}-dimensional sequence of length {n}")

    parity, flips, reads = _transversal(filling, coords)
    value = Fraction(-1 if flips % 2 else 1)
    for t, i in reads:
        value *= points.entry(t, i)
    return Monomial(filling, value, parity)


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
    lifted = lift(points)
    ratio = Fraction(1)
    for u, i_u, j_u in crossing_pairs(filling, s, t):
        ratio *= growth_ratio(lifted, u, i_u, j_u)
    return ratio


# ---------------------------------------------------------------------------
# the threshold split and the dominant filling


def check_split_conditions(x_by_class, y_by_class, h_top: int, h_bot: int) -> tuple:
    """Violation messages for the four dominant-split conditions, if any.

    (a) inside every class, the top part lies entirely below the bottom part
    in value; (b) no class exceeds either side's row capacity; (c) whenever
    class alpha has spare room on top and class beta spare room at the
    bottom, beta's top part lies entirely below alpha's bottom part; (d) the
    top side holds exactly h_top * (r - 1) elements.
    """
    x = [tuple(sorted(cls)) for cls in x_by_class]
    y = [tuple(sorted(cls)) for cls in y_by_class]
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

    Each class puts on top the prefix of its sorted trace that lies below one
    common threshold, with that count clamped to [max(0, |C_m| - h_bot),
    min(h_top, |C_m|)]; the threshold rises one element at a time until the
    top side holds h_top*(r-1) elements.  It gets there: the clamped totals
    start at most and end at least h_top*(r-1) (no class exceeds
    h_top + h_bot), and each step adds 0 or 1.

    The cut meets the four split conditions: (a), (b) and (d) by
    construction, and (c) because a class with room on top puts nothing
    below the threshold at the bottom, and a class with room at the bottom
    puts nothing above it on top.  It is the only prefix cut that does:
    were a != a' two passing cuts, with a_alpha < a'_alpha and
    a_beta > a'_beta, condition (c) on each would give
    C_alpha[a_alpha] <= C_alpha[a'_alpha - 1] < C_beta[a'_beta]
    <= C_beta[a_beta - 1] < C_alpha[a_alpha].
    """
    classes = [tuple(sorted(cls)) for cls in elements_by_class]
    r = len(classes)
    if r < 2 or h_top < 1 or h_bot < 1:
        raise ValueError("need at least two classes and nonempty bands")
    if any(len(cls) > h_top + h_bot for cls in classes):
        raise ValueError("a class exceeds the band capacity")
    universe = sorted((e, m) for m, cls in enumerate(classes) for e in cls)
    if len(universe) != (h_top + h_bot) * (r - 1) or len({e for e, _ in universe}) != len(universe):
        raise ValueError(f"band must hold exactly {(h_top + h_bot) * (r - 1)} distinct elements")

    target = h_top * (r - 1)
    low = [max(0, len(cls) - h_bot) for cls in classes]
    high = [min(h_top, len(cls)) for cls in classes]
    below = [0] * r
    top = sum(low)
    for _, m in universe:
        if top == target:
            break
        below[m] += 1
        top += low[m] < below[m] <= high[m]
    cuts = [min(max(b, lo), hi) for b, lo, hi in zip(below, low, high)]
    return (
        tuple(cls[:k] for cls, k in zip(classes, cuts)),
        tuple(cls[k:] for cls, k in zip(classes, cuts)),
    )


def find_dominant_filling(partition: Partition, ell: int, profile: DominanceProfile) -> Filling:
    """The filling of the largest monomial, from the dominance order alone.

    Works purely combinatorially: each recursion level splits its band of
    grid rows at the most dominant interior gap via dominant_split, until
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

    grid: list = [None] * (d + 1)

    def solve(lo: int, hi: int, by_class: tuple):
        if lo == hi:
            grid[lo] = [cls[0] if cls else None for cls in by_class]
            return
        tau = profile.max_of(range(lo + 1, hi + 1))
        h_top, h_bot = tau - lo, hi - tau + 1
        x_by_class, y_by_class = dominant_split(by_class, h_top, h_bot)
        bad = check_split_conditions(x_by_class, y_by_class, h_top, h_bot)
        if bad:
            raise InvalidFillingError("split conditions failed: " + "; ".join(bad))
        solve(lo, tau - 1, x_by_class)
        solve(tau, hi, y_by_class)

    solve(0, d, tuple(tuple(sorted(set(cls) - {ell})) for cls in partition.classes))
    return Filling(partition, ell, grid)


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
    cache: dict = {}

    def markers(ell: int) -> tuple:
        if ell not in cache:
            cache[ell] = find_dominant_filling(partition, ell, profile).z_columns
        return cache[ell]

    for cls in partition.classes:
        for ell1, ell2 in zip(cls, cls[1:]):
            if markers(ell1) == markers(ell2):
                return (ell1, ell2)
    return None


def _dominant_sign(filling: Filling, row_coords: tuple) -> int:
    """The sign of the filling's monomial when every lifted entry is positive.

    That is the transversal parity times -1 per marker on a non-ones row; no
    entry is multiplied.
    """
    parity, flips, _ = _transversal(filling, row_coords)
    return -parity if flips % 2 else parity


def _dominant_signs(partition: Partition, profile: DominanceProfile, row_coords: tuple) -> list:
    """sign det(M_ell) for ell = 1, 2, ..., up to the first that differs from ell = 1's.

    Each sign is that of the dominant monomial (find_dominant_filling),
    which is the determinant's sign when the ordered lift, read in the order
    row_coords, is dominant at q >= default_threshold(d, r) under profile
    (criteria 4 and 5).  Every lifted entry of such a sequence is positive,
    so the sign is _dominant_sign's.  The partition is Tverberg exactly when
    the list ends on the sign it starts with.
    """
    signs = []
    for ell in range(1, partition.n + 1):
        signs.append(_dominant_sign(find_dominant_filling(partition, ell, profile), row_coords))
        if signs[-1] != signs[0]:
            break
    return signs


# ---------------------------------------------------------------------------
# exhaustive dominance audit


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of enumerating every monomial of one det(M_ell) expansion."""

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
    value, and records violations when it fails to dominate the runner-up by
    a factor q, disagrees in sign with the determinant, or (as a self-check)
    when the signed monomials fail to sum to the determinant.  The grid rows
    read the lifted coordinates in the order row_coords, as ordered_lift
    returns it.
    """
    threshold = scalar(q)
    monomials = [
        monomial_value(f, points, row_coords)
        for f in enumerate_valid_fillings(partition, ell)
    ]
    ranked = sorted(monomials, key=lambda mono: abs(mono.value), reverse=True)
    top = ranked[0]
    runner_up = abs(ranked[1].value) if len(ranked) > 1 else None

    system = build_system(points, partition)
    m_ell = system.matrix.with_column(ell - 1, system.rhs)
    determinant = det(m_ell)

    violations = []
    if runner_up is not None and abs(top.value) <= threshold * runner_up:
        violations.append(
            f"max-not-dominant: |{top.value}| <= {threshold} * {runner_up}"
        )
    top_sign = top.sign * (1 if top.value > 0 else -1 if top.value < 0 else 0)
    if top_sign != _sign(determinant):
        violations.append(
            f"sign-mismatch: dominant contributes {top_sign}, determinant sign is {_sign(determinant)}"
        )
    total = sum(mono.sign * mono.value for mono in monomials)
    if total != determinant:
        violations.append(f"sum-mismatch: monomials total {total}, determinant is {determinant}")

    return DominanceReport(
        ell=ell,
        q=threshold,
        row_coords=tuple(row_coords),
        monomial_count=len(monomials),
        dominant=top.filling,
        dominant_value=top.value,
        dominant_sign=top.sign,
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
