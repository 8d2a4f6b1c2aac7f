"""Partitions of point sequences and the common-point linear system.

A partition splits positions 1..n into r disjoint nonempty classes.  For
n = (r-1)(d+1)+1 points in d dimensions the classes' convex hulls share a
point exactly when a square linear system has an all-positive solution; this
module builds that system, decides the property along two independent routes
(direct solve and determinant signs), and enumerates partitions, on a
certified dominant sequence by dominant-monomial signs alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .exact import (
    DimensionError,
    Matrix,
    SingularMatrixError,
    _grid_solution_dim,
    _scaled_int_rows,
    det_sign,
    rank,
    solve_linear,
)
from .sequences import (
    NotDominantError,
    PointSequence,
    _certified_profile,
    default_threshold,
)


class DegeneratePointsError(ValueError):
    """The partition's system is singular; the points are too special."""


class CertificateMismatchError(RuntimeError):
    """The solve route and the determinant-sign route disagree (a bug)."""


def tverberg_number(r: int, d: int) -> int:
    """Smallest n that always admits an r-fold common-point partition."""
    if r < 1 or d < 1:
        raise ValueError("need r >= 1 and d >= 1")
    return (r - 1) * (d + 1) + 1


def blocks(d: int, r: int) -> tuple:
    """Consecutive windows of r positions overlapping in their endpoints.

    Window s (1-based, s = 1..d+1) covers (s-1)(r-1)+1 .. s(r-1)+1; windows
    jointly cover 1..tverberg_number(r, d).
    """
    return tuple(
        tuple(range((s - 1) * (r - 1) + 1, s * (r - 1) + 2)) for s in range(1, d + 2)
    )


def _position(i) -> int:
    if type(i) is not int:
        raise ValueError(f"positions must be plain integers, got {i!r}")
    return i


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty classes covering positions 1..n exactly."""

    n: int
    classes: tuple

    def __init__(self, n: int, classes: Sequence[Sequence[int]]):
        _position(n)
        normalized = tuple(tuple(sorted(_position(i) for i in cls)) for cls in classes)
        if any(not cls for cls in normalized):
            raise ValueError("classes must be nonempty")
        seen: list = sorted(i for cls in normalized for i in cls)
        if len(seen) != n or seen != list(range(1, n + 1)):
            raise ValueError(f"classes must cover 1..{n} exactly once")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "classes", normalized)

    @property
    def r(self) -> int:
        return len(self.classes)

    def is_proper(self, d: int) -> bool:
        return all(len(cls) <= d + 1 for cls in self.classes)

    def class_of(self, i: int) -> int:
        """1-based index of the class containing position i."""
        for m, cls in enumerate(self.classes, start=1):
            if i in cls:
                return m
        raise KeyError(f"position {i} is not covered")


def partition_to_json(partition: Partition) -> dict:
    return {"n": partition.n, "classes": [list(cls) for cls in partition.classes]}


def partition_from_json(payload: dict) -> Partition:
    try:
        return Partition(payload["n"], payload["classes"])
    except (KeyError, TypeError) as exc:
        raise ValueError("partition payload needs keys 'n' and 'classes'") from exc


def is_rainbow(partition: Partition, d: int) -> bool:
    """Each class meets each window of blocks(d, r) in exactly one position."""
    r = partition.r
    if partition.n != tverberg_number(r, d):
        return False
    windows = blocks(d, r)
    return all(
        sum(1 for i in cls if i in window) == 1
        for cls in partition.classes
        for window in windows
    )


def _restricted_growth(n: int, r: int, max_size: int):
    """The walk of enumerate_proper_partitions, yielding tuples of sorted class tuples."""
    classes: list = []

    def place(i: int):
        remaining = n - i + 1
        if remaining == 0:
            if len(classes) == r:
                yield tuple(map(tuple, classes))
            return
        missing = r - len(classes)
        if remaining < missing:
            return
        capacity = sum(max_size - len(cls) for cls in classes) + missing * max_size
        if remaining > capacity:
            return
        for cls in classes:
            if len(cls) < max_size:
                cls.append(i)
                yield from place(i + 1)
                cls.pop()
        if len(classes) < r:
            classes.append([i])
            yield from place(i + 1)
            classes.pop()

    return place(1)


def enumerate_proper_partitions(n: int, r: int, max_size: int) -> list:
    """All unlabeled partitions of 1..n into r classes of size <= max_size.

    Classes come out ordered by smallest member; the listing is deterministic
    (restricted-growth order).
    """
    return [Partition(n, classes) for classes in _restricted_growth(n, r, max_size)]


def enumerate_rainbow(d: int, r: int) -> list:
    """All rainbow partitions for n = tverberg_number(r, d), in listing order."""
    n = tverberg_number(r, d)
    return [
        p for p in enumerate_proper_partitions(n, r, d + 1) if is_rainbow(p, d)
    ]


# ---------------------------------------------------------------------------
# the common-point system


class TverbergSystem(NamedTuple):
    """The common-point system matrix x = rhs; see _common_point_system."""

    matrix: Matrix
    rhs: tuple


def _common_point_system(coords, scales, one, groups, columns) -> list:
    """Rows of [M | b]: affine weights per group, all placing the group's points at one z.

    coords[t - 1][i - 1] is coordinate t of position i times scales[t - 1] > 0;
    the other entries are `one` and `one - one` (Fraction or int).  columns[g]
    holds the weight column of each position of groups[g]; over all groups
    they number 0..k-1, and z_1..z_d take columns k..k+d-1.  Each group adds
    d + 1 rows: sum(alpha_i) = 1, then for t = 1..d sum(alpha_i p_i,t) - z_t
    = 0 times scales[t - 1], with i over the group.
    """
    d = len(coords)
    z0 = sum(len(cols) for cols in columns)
    rows = []
    for group, cols in zip(groups, columns):
        block = [[one - one] * (z0 + d + 1) for _ in range(d + 1)]
        block[0][-1] = one
        for i, c in zip(group, cols):
            block[0][c] = one
            for t in range(d):
                block[t + 1][c] = coords[t][i - 1]
        for t in range(d):
            block[t + 1][z0 + t] = -scales[t]
        rows.extend(block)
    return rows


def build_system(points: PointSequence, partition: Partition) -> TverbergSystem:
    """The r(d+1)-square system whose solution is (alpha_1..alpha_n, z_1..z_d).

    Class m's weights sit in the columns of its positions and its rows form
    block m; all-positive alphas certify the common point z.
    """
    d, n = points.dim, points.length
    r = partition.r
    if partition.n != n:
        raise DimensionError(f"partition covers 1..{partition.n}, points have n={n}")
    if n != tverberg_number(r, d):
        raise DimensionError(
            f"square system needs n = (r-1)(d+1)+1; got n={n}, r={r}, d={d}"
        )
    columns = [[i - 1 for i in cls] for cls in partition.classes]
    one = Fraction(1)
    rows = _common_point_system(points.rows, [one] * d, one, partition.classes, columns)
    return TverbergSystem(Matrix(row[:-1] for row in rows), tuple(row[-1] for row in rows))


@dataclass(frozen=True)
class TverbergVerdict:
    """Outcome of the common-point decision for one partition."""

    is_tverberg: bool
    reason: str
    alphas: Optional[tuple] = None
    z: Optional[tuple] = None
    base_sign: Optional[int] = None
    det_signs: Optional[tuple] = None


def decide_tverberg(
    points: PointSequence, partition: Partition, cross_check: bool = True
) -> TverbergVerdict:
    """Decide whether the classes' convex hulls share a point.

    Solves the square system and demands every alpha strictly positive.  With
    cross_check on, the determinant-sign route is run as well (alpha_i is a
    ratio of two determinants, so positivity shows in matching signs) and any
    disagreement raises CertificateMismatchError.

    The criterion is meant for points in strong general position; partitions
    with an oversized class are rejected outright, since their hull
    intersection is empty for such points.  A singular system raises
    DegeneratePointsError.
    """
    d, n = points.dim, points.length
    if not partition.is_proper(d):
        return TverbergVerdict(False, "improper")
    system = build_system(points, partition)
    try:
        solution = solve_linear(system.matrix, system.rhs)
    except SingularMatrixError as exc:
        raise DegeneratePointsError(
            "singular system; the points are degenerate for this partition"
        ) from exc
    alphas, z = solution[:n], solution[n:]
    if all(a > 0 for a in alphas):
        verdict, reason = True, "certified"
    elif any(a == 0 for a in alphas):
        verdict, reason = False, "boundary-coefficient"
    else:
        verdict, reason = False, "negative-coefficient"
    base_sign = det_signs = None
    if cross_check:
        base_sign = det_sign(system.matrix)
        det_signs = tuple(
            det_sign(system.matrix.with_column(col, system.rhs)) for col in range(n)
        )
        for alpha, sign in zip(alphas, det_signs):
            if ((alpha > 0) - (alpha < 0)) != sign * base_sign:
                raise CertificateMismatchError(
                    "solve route and determinant route disagree on a coefficient sign"
                )
        if (all(s == base_sign for s in det_signs)) != verdict:
            raise CertificateMismatchError(
                "determinant route disagrees with the positivity verdict"
            )
    return TverbergVerdict(verdict, reason, alphas, z, base_sign, det_signs)


def enumerate_tverberg(points: PointSequence, cross_check: bool = False) -> list:
    """All proper partitions whose hulls share a point, in listing order.

    The class count r is forced by n = (r-1)(d+1)+1; a length that fits no
    r >= 2 raises DimensionError.

    When the ordered lift of the points is dominant at default_threshold(d,
    r), each partition is decided by the signs of the dominant monomials of
    det(M_1), det(M_2), ..., stopping at the first that disagrees, and no
    system is solved.  Any other sequence takes the solve route.  With
    cross_check on, the solve route with its Cramer check runs on every
    partition as well, and a dominant sign that differs from the
    determinant's raises CertificateMismatchError.

    On the solve route, a partition with a singular system is kept out of
    the result only when the classes' affine hulls provably have empty
    intersection (so the hulls cannot share a point either); any other
    singularity is a genuine degeneracy and the error propagates.
    """
    from .fillings import _dominant_signs  # fillings imports this module

    d, n = points.dim, points.length
    r = _class_count(points)
    try:
        certificate = _certified_profile(points, default_threshold(d, r))
    except NotDominantError:
        certificate = None
    found = []
    for p in enumerate_proper_partitions(n, r, d + 1):
        if certificate is not None:
            signs = _dominant_signs(p, *certificate)
            hit = signs[-1] == signs[0]
        if certificate is None or cross_check:
            try:
                verdict = decide_tverberg(points, p, cross_check=cross_check)
            except DegeneratePointsError:
                if affine_intersection_dim(points, p.classes) != -1:
                    raise
                verdict = None
            solved = verdict is not None and verdict.is_tverberg
            if certificate is not None and (
                solved != hit
                or (verdict is not None and verdict.det_signs[: len(signs)] != tuple(signs))
            ):
                raise CertificateMismatchError(
                    "dominant-monomial signs disagree with the determinant route"
                )
            hit = solved
        if hit:
            found.append(p)
    return found


def _class_count(points: PointSequence) -> int:
    """The r >= 2 with n = (r-1)(d+1)+1; DimensionError when none fits."""
    d, n = points.dim, points.length
    if (n - 1) % (d + 1) != 0:
        raise DimensionError(f"a {d}-dimensional sequence of length {n} fits no class count")
    r = (n - 1) // (d + 1) + 1
    if r < 2:
        raise DimensionError(f"a sequence of length {n} gives r = {r}; a partition needs at least 2 classes")
    return r


# ---------------------------------------------------------------------------
# general position


def affine_intersection_dim(points: PointSequence, subsets: Sequence[Sequence[int]]) -> int:
    """Dimension of the intersection of the subsets' affine hulls; -1 if empty.

    Works over one combined system: affine weights per subset, all forced to
    produce the same point.  The intersection dimension is the solution-space
    dimension minus the weight-space slack (weights describing one point are
    unique only up to each hull's own degeneracies).  Positions are plain
    integers in 1..n.
    """
    groups = [tuple(sorted(set(_position(i) for i in sub))) for sub in subsets]
    if not groups or any(not g or g[0] < 1 or g[-1] > points.length for g in groups):
        raise ValueError(f"need at least one subset, each nonempty and in 1..{points.length}")
    hull_dims = [_hull_dim(points, g) for g in groups]
    return _intersection_dim(*_scaled_int_rows(points.rows), groups, hull_dims)


def _hull_dim(points: PointSequence, group: Sequence[int]) -> int:
    """Dimension of the affine hull of the points at the given positions."""
    return rank(Matrix([[Fraction(1)] + list(points.point(i)) for i in group])) - 1


def _intersection_dim(coords, scales, groups: Sequence, hull_dims: Sequence) -> int:
    """affine_intersection_dim on sorted nonempty groups with known hull dimensions.

    coords and scales are what _scaled_int_rows returns for the points' rows.
    """
    # Groups may overlap, so each takes its own block of weight columns.
    ends = accumulate(map(len, groups))
    columns = [range(end - len(g), end) for g, end in zip(groups, ends)]
    grid = _common_point_system(coords, scales, 1, groups, columns)
    dim = _grid_solution_dim(grid, len(grid[0]) - 1)
    slack = sum(len(g) - 1 - h for g, h in zip(groups, hull_dims))
    return -1 if dim == -1 else dim - slack


def _disjoint_families(n: int, k: int):
    """Unlabeled families of k disjoint nonempty subsets of 1..n, one at a time.

    Each is a partition of 1..n+1 into k+1 classes with the class holding
    n+1, which collects the unused elements, dropped.
    """
    for classes in _restricted_growth(n + 1, k + 1, n + 1):
        yield tuple(cls for cls in classes if cls[-1] != n + 1)


def is_strong_general_position(points: PointSequence, r: int) -> bool:
    """Every family of up to r disjoint subsets has the expected hull overlap.

    Expected: the intersection of the affine hulls loses exactly the summed
    codimensions, floored at empty, i.e.
    d - dim(intersection) == min(d + 1, sum of (d - hull_dim)) with the empty
    intersection counted as dimension -1.  r is a plain integer >= 1; the
    check is exponential in n and intended for small instances.
    """
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be a plain integer >= 1, got {r!r}")
    d, n = points.dim, points.length
    coords, scales = _scaled_int_rows(points.rows)
    hull_dim: dict = {}  # sorted subset -> dimension of its affine hull
    for k in range(1, r + 1):
        for family in _disjoint_families(n, k):
            for g in family:
                if g not in hull_dim:
                    hull_dim[g] = _hull_dim(points, g)
            dims = [hull_dim[g] for g in family]
            expected = min(d + 1, sum(d - h for h in dims))
            if d - _intersection_dim(coords, scales, family, dims) != expected:
                return False
    return True
