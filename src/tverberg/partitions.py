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
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .exact import (
    DimensionError,
    Matrix,
    SingularMatrixError,
    _eliminate,
    _grid_det,
    _grid_solution_dim,
    _scaled_int_rows,
    _sign,
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
    return partition.n == tverberg_number(r, d) and _meets_each_once(partition.classes, blocks(d, r))


def _meets_each_once(classes, windows) -> bool:
    """Each class holds exactly one position of each window."""
    return all(sum(1 for i in cls if i in window) == 1 for cls in classes for window in windows)


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
    windows = blocks(d, r)
    return [
        Partition(n, classes)
        for classes in _restricted_growth(n, r, d + 1)
        if _meets_each_once(classes, windows)
    ]


# ---------------------------------------------------------------------------
# the common-point system


class TverbergSystem(NamedTuple):
    """The common-point system matrix x = rhs; see _common_point_system."""

    matrix: Matrix
    rhs: tuple


def _common_point_system(coords, scales, one, groups) -> list:
    """Rows of [M | b]: affine weights per group, all placing the group's points at one z.

    coords[t - 1][i - 1] is coordinate t of position i times scales[t - 1] > 0;
    the other entries are `one` and `one - one` (Fraction or int).  Position
    i's weight takes column i - 1, and z_1..z_d the d columns after the last
    position's.  Each group adds d + 1 rows: sum(alpha_i) = 1, then for t =
    1..d sum(alpha_i p_i,t) - z_t = 0 times scales[t - 1], i over the group.
    """
    d, n = len(coords), len(coords[0])
    rows = []
    for group in groups:
        block = [[one - one] * (n + d + 1) for _ in range(d + 1)]
        block[0][-1] = one
        for i in group:
            block[0][i - 1] = one
            for t in range(d):
                block[t + 1][i - 1] = coords[t][i - 1]
        for t in range(d):
            block[t + 1][n + t] = -scales[t]
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
    one = Fraction(1)
    rows = _common_point_system(points.rows, [one] * d, one, partition.classes)
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

    Solves the square system M x = b of build_system and demands every alpha
    strictly positive.  With cross_check on, the determinant-sign route is run
    as well: alpha_j = det(M_j) / det(M), M_j being M with column j replaced
    by b, so positivity shows in matching signs.  That route does not
    eliminate M: it reads the signs from the n maximal minors of one
    (n-1) x n integer matrix K, det M_j = (-1)^(dn) (-1)^(1+j) det K^(j) with
    K^(j) being K without column j (see _cramer_signs), and any disagreement
    with the solve raises CertificateMismatchError.

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
        base_sign, det_signs = _cramer_signs(points, partition)
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


def _cramer_signs(points: PointSequence, partition: Partition) -> tuple:
    """(sign det M, (sign det M_1, ..., sign det M_n)) for build_system's M.

    With A_1..A_r the classes, K has a row for each class m >= 2 and each
    lifted coordinate t = 0..d of (1, p_i); in column i it holds (1, p_i)[t]
    for i in A_m, -(1, p_i)[t] for i in A_1, and 0 otherwise.  Subtracting
    block 1's rows of M from every other block leaves each z column a single
    -1 and turns b into e_1; expanding along the z columns and then the first
    row gives, with K^(j) being K without column j (1-based):

        det M_j = (-1)^(dn) (-1)^(1+j) det K^(j),
        det M   = sum over j in A_1 of det M_j,

    the second because M's first row is the indicator of A_1 and b_1 = 1.
    K is built on the integer grid: scaling coordinate row t by s_t > 0
    scales every minor by the same positive factor, so no sign changes.
    """
    d, n = points.dim, points.length
    k = _cramer_matrix(_scaled_int_rows(points.rows)[0], partition)
    dets = [_cramer_det(k, d * n, j) for j in range(n)]
    return _sign(sum(dets[i - 1] for i in partition.classes[0])), tuple(map(_sign, dets))


def _cramer_matrix(coords: list, partition: Partition) -> list:
    """K of _cramer_signs, from the integer coordinate rows that _scaled_int_rows returns."""
    n = partition.n
    lifted = [[1] * n, *coords]
    first, *others = partition.classes
    k = []
    for cls in others:
        for values in lifted:
            row = [0] * n
            for i in first:
                row[i - 1] = -values[i - 1]
            for i in cls:
                row[i - 1] = values[i - 1]
            k.append(row)
    return k


def _cramer_det(k: list, dn: int, j: int):
    """det M_(j+1) times prod(scales)**(r - 1), j from 0 and dn = d * n (see _cramer_signs)."""
    return (-1) ** (dn + j) * _grid_det([row[:j] + row[j + 1:] for row in k])


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
    memo: dict = {}  # sub-band splits, shared by every partition under this profile
    found = []
    for classes in _restricted_growth(n, r, d + 1):
        if certificate is not None:
            signs = _dominant_signs(classes, *certificate, memo)
            hit = signs[-1] == signs[0]
        if certificate is None or cross_check:
            try:
                verdict = decide_tverberg(points, Partition(n, classes), cross_check=cross_check)
            except DegeneratePointsError:
                if affine_intersection_dim(points, classes) != -1:
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
            found.append(Partition(n, classes))
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

    The intersection is cut out by every subset's _hull_equations at once.
    Positions are plain integers in 1..n.
    """
    groups = [tuple(sorted(set(_position(i) for i in sub))) for sub in subsets]
    if not groups or any(not g or g[0] < 1 or g[-1] > points.length for g in groups):
        raise ValueError(f"need at least one subset, each nonempty and in 1..{points.length}")
    coords, scales = _scaled_int_rows(points.rows)
    return _intersection_dim(points.dim, [_hull_equations(coords, scales, g) for g in groups])


def _hull_equations(coords, scales, group: Sequence[int]) -> list:
    """Integer rows [a | c] whose equations a.z = c cut out the group's affine hull.

    They are the rows of the group's common-point block past the pivots of
    its weight columns, so they carry no weight: d - dim(hull) of them, as
    the block has row rank d + 1.  coords and scales are _scaled_int_rows's.
    """
    k = len(group)
    own = [[row[i - 1] for i in group] for row in coords]  # the group's positions become 1..k
    block = _common_point_system(own, scales, 1, [range(1, k + 1)])
    pivots, _ = _eliminate(block, k)
    return [row[k:] for row in block[len(pivots):]]


def _intersection_dim(d: int, equations: Sequence[list]) -> int:
    """Dimension of the z-space set that meets every group's hull equations; -1 if empty."""
    stack = [row[:] for rows in equations for row in rows]  # eliminated in place
    return _grid_solution_dim(stack, d) if stack else d


def _disjoint_families(subsets: Sequence[int], r: int):
    """Families of 2..r pairwise-disjoint members of subsets, one at a time.

    subsets are bitmasks.  One depth-first walk adds members in list order,
    each disjoint from those already taken, and stops at depth r; so every
    family comes out once, as a tuple of members in list order.  Sending
    False for the family just yielded skips its extensions (with next() the
    walk descends, so plain iteration runs every family).
    """
    family: list = []

    def extend(start: int, used: int):
        for j in range(start, len(subsets)):
            member = subsets[j]
            if member & used:
                continue
            family.append(member)
            pruned = len(family) >= 2 and (yield tuple(family)) is False
            if len(family) < r and not pruned:
                yield from extend(j + 1, used | member)
            family.pop()

    return extend(0, 0)


def is_strong_general_position(points: PointSequence, r: int) -> bool:
    """Every family of up to r disjoint subsets has the expected hull overlap.

    Expected: the intersection of the affine hulls loses exactly the summed
    codimensions, floored at empty, i.e.
    d - dim(intersection) == min(d + 1, sum of (d - hull_dim)) with the empty
    intersection counted as dimension -1.  r is a plain integer >= 1; the
    check is exponential in n and intended for small instances.

    Only families of 2..r cutting subsets, those with at least one hull
    equation, are checked.  A one-subset family cannot fail: a hull's
    d - dim(hull) equations are independent and consistent, and at most d.
    A member whose hull is all of R^d changes neither the intersection nor
    the codimension sum, so its family passes exactly when the family
    without it passes; that smaller family is checked too, or it has at
    most one member and passes.  Subsets are visited smallest first, and a
    subset containing a one-smaller subset with no equations gets none
    without an elimination: its hull contains a full-dimensional hull.  So
    once no subset of some size cuts, no larger one does, and the pass over
    subsets stops there.

    The walk does not descend below a family whose hulls already miss each
    other.  If a checked family F passes with an empty intersection, then
    d + 1 = min(d + 1, sum of codim F), so the codimensions sum to at least
    d + 1.  Any extension of F also has an empty intersection and a sum of
    at least d + 1, so it passes; F's siblings are still checked.  Families
    with a nonempty intersection are extended to depth r.
    """
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be a plain integer >= 1, got {r!r}")
    d, n = points.dim, points.length
    coords, scales = _scaled_int_rows(points.rows)
    equations: dict = {}  # bitmask of each cutting subset -> its hull equations
    for size in range(1, n + 1):
        cut_before = len(equations)
        for group in combinations(range(1, n + 1), size):
            bits = [1 << (i - 1) for i in group]
            mask = sum(bits)
            if size == 1 or all(mask ^ bit in equations for bit in bits):
                rows = _hull_equations(coords, scales, group)
                if rows:
                    equations[mask] = rows
        if len(equations) == cut_before:
            break
    walk = _disjoint_families(list(equations), r)
    nonempty = None  # a walk not yet started takes only None
    while True:
        try:
            family = walk.send(nonempty)
        except StopIteration:
            return True
        rows = [equations[mask] for mask in family]
        dim = _intersection_dim(d, rows)
        if d - dim != min(d + 1, sum(map(len, rows))):
            return False
        nonempty = dim >= 0
