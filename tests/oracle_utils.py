"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: permutation expansion for
determinants, textbook Gaussian elimination over Fraction, brute-force
enumeration for combinatorial counts.  Slow but hard to get wrong.
"""
from fractions import Fraction
from itertools import combinations, permutations, product

from tverberg.exact import det, scalar
from tverberg.fillings import (
    DominanceReport,
    Filling,
    check_split_conditions,
    dominant_split,
    enumerate_valid_fillings,
    monomial_value,
)
from tverberg.partitions import build_system, tverberg_number
from tverberg.sequences import (
    NotDominantError,
    Relation,
    _certified_profile,
    gen_power_sequence,
    growth_ratio,
)


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_by_expansion(rows):
    """Sum over permutations of signed entry products."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(perm_sign(perm))
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
            if term == 0:
                break
        total += term
    return total


def mat_vec(rows, vec):
    """The product of a matrix, given by its rows, and a vector, over Fraction."""
    return tuple(sum(Fraction(x) * Fraction(v) for x, v in zip(row, vec, strict=True)) for row in rows)


def solve_by_gauss(rows, rhs):
    """Plain Fraction Gaussian elimination with row pivoting.

    Returns the solution tuple, or None when the matrix is singular.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


def rank_by_elimination(rows):
    """Row-reduce over Fraction and count nonzero rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if work[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(n_rows):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / work[rank][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank



def solution_dim_by_ranks(rows, rhs):
    """Dimension of {x : rows x = rhs} from the coefficient and augmented ranks.

    Returns -1 when the augmented rank is larger, i.e. the set is empty.
    """
    coeff = rank_by_elimination(rows)
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    if rank_by_elimination(augmented) > coeff:
        return -1
    return len(rows[0]) - coeff


def affine_intersection_dim_by_ranks(points, groups):
    """Dimension of the intersection of the groups' affine hulls; -1 if empty.

    points[i - 1] is the coordinate tuple of position i; groups list
    positions without repeats and may overlap.  Unknowns: one weight per
    group member, then the shared point x.  Each group contributes
    sum(w) = 1 and sum(w p) - x = 0.  The intersection dimension is the
    solution-set dimension minus the slack of weights that describe the same
    point, sum over groups of (size - 1 - hull dimension).
    """
    d = len(points[0])
    width = sum(len(g) for g in groups) + d
    rows, rhs = [], []
    offset = 0
    for g in groups:
        rows.append([1 if offset <= j < offset + len(g) else 0 for j in range(width)])
        rhs.append(1)
        for t in range(d):
            row = [0] * width
            for k, i in enumerate(g):
                row[offset + k] = points[i - 1][t]
            row[width - d + t] = -1
            rows.append(row)
            rhs.append(0)
        offset += len(g)
    dim = solution_dim_by_ranks(rows, rhs)
    if dim == -1:
        return -1
    hull_dims = [rank_by_elimination([[1, *points[i - 1]] for i in g]) - 1 for g in groups]
    return dim - sum(len(g) - 1 - h for g, h in zip(groups, hull_dims))

def labeled_proper_partitions(n, r, max_size):
    """All ways to split 1..n into r labeled nonempty classes of size <= max_size.

    Returns a set of r-tuples of frozensets.  Exponential; keep n small.
    """
    out = set()

    def place(i, classes):
        if i > n:
            if all(classes):
                out.add(tuple(frozenset(c) for c in classes))
            return
        for m in range(r):
            if len(classes[m]) < max_size:
                classes[m].add(i)
                place(i + 1, classes)
                classes[m].remove(i)

    place(1, [set() for _ in range(r)])
    return out


def disjoint_families_by_labeling(n, k):
    """Families of k disjoint nonempty subsets of 1..n, by labeling walk.

    Labels every element 0 (unused) or 1..k, keeps labelings that use every
    label, and removes the k! relabelings of each family with a set.  Walks
    (k+1)^n labelings; keep n small.
    """
    seen = set()
    assignment = [0] * (n + 1)  # 0 = unused, 1..k = subset label

    def emit():
        family = [[] for _ in range(k)]
        for i in range(1, n + 1):
            if assignment[i]:
                family[assignment[i] - 1].append(i)
        if all(family):
            key = frozenset(frozenset(g) for g in family)
            if key not in seen and len(key) == k:
                seen.add(key)
                yield tuple(tuple(g) for g in family)

    def walk(i):
        if i > n:
            yield from emit()
            return
        for label in range(k + 1):
            assignment[i] = label
            yield from walk(i + 1)
        assignment[i] = 0

    yield from walk(1)


def is_strong_general_position_by_ranks(points, r):
    """Strong general position of the points, family by family, by ranks.

    points[i - 1] is the coordinate tuple of position i.  Every family of k
    disjoint nonempty subsets, k = 1..r, from disjoint_families_by_labeling
    must meet the expected dimension loss min(d + 1, sum of (d - hull
    dimension)), the intersection dimension taken from
    affine_intersection_dim_by_ranks with empty counted as -1.
    """
    d = len(points[0])
    for k in range(1, r + 1):
        for family in disjoint_families_by_labeling(len(points), k):
            hulls = [rank_by_elimination([[1, *points[i - 1]] for i in g]) - 1 for g in family]
            expected = min(d + 1, sum(d - h for h in hulls))
            if d - affine_intersection_dim_by_ranks(points, family) != expected:
                return False
    return True


def classify_pair_by_triples(a, q, t, s):
    """The relation of coordinates t and s, scanned triple by triple.

    At every i < j < k the early pair (growth(t,i,j), growth(s,j,k)) and the
    late pair (growth(t,j,k), growth(s,i,j)) are each "high" when the first
    exceeds q times the second, else "low" when the second exceeds q times
    the first; either pair being neither, or a window seeing both verdicts,
    is inconsistent.  Uses only growth_ratio and Fraction comparison.
    """
    q = Fraction(q)
    seen = {"early": set(), "late": set()}
    for i, j, k in combinations(range(1, a.length + 1), 3):
        for window, x, y in (
            ("early", growth_ratio(a, t, i, j), growth_ratio(a, s, j, k)),
            ("late", growth_ratio(a, t, j, k), growth_ratio(a, s, i, j)),
        ):
            if x > q * y:
                seen[window].add("high")
            elif y > q * x:
                seen[window].add("low")
            else:
                return Relation.INCONSISTENT
    if len(seen["early"]) != 1 or len(seen["late"]) != 1:
        return Relation.INCONSISTENT
    return {
        ("low", "low"): Relation.PRECEDES,
        ("high", "high"): Relation.SUCCEEDED_BY,
        ("high", "low"): Relation.LEFT_SIMILAR,
        ("low", "high"): Relation.RIGHT_SIMILAR,
    }[(*seen["early"], *seen["late"])]


def order_by_outgrowth(a, q):
    """The rows of a, slowest first, as 0-based indices, by a tournament.

    Row t outgrows row s when the ratio row t / row s is q-increasing.  Every
    pair of rows must go one way or the other, the rows are sorted by how
    many rows each outgrows, and each row must outgrow the one before it in
    that order.  None when an entry is not positive or either step fails.
    Uses only Fraction division and comparison.
    """
    q = Fraction(q)
    rows = a.rows
    if any(x <= 0 for row in rows for x in row):
        return None

    def outgrows(t, s):
        ratio = [x / y for x, y in zip(rows[t], rows[s])]
        return all(y > q * x for x, y in zip(ratio, ratio[1:]))

    counts = [0] * len(rows)
    for t, s in combinations(range(len(rows)), 2):
        up, down = outgrows(t, s), outgrows(s, t)
        if not (up or down):
            return None
        counts[t] += up
        counts[s] += down
    order = sorted(range(len(rows)), key=counts.__getitem__)
    if not all(outgrows(v, u) for u, v in zip(order, order[1:])):
        return None
    return tuple(order)


def ceil_log_by_loop(base, value):
    """Smallest c >= 0 with base**c >= value, multiplying by base once per step."""
    c, power = 0, Fraction(1)
    while power < value:
        power *= base
        c += 1
    return c


def dominance_report_by_monomials(points, partition, ell, q, row_coords):
    """dominance_report by the composition it was first written as.

    Every filling from enumerate_valid_fillings is priced with
    monomial_value (a validated Filling and a Fraction product each), the
    monomials are sorted by absolute value, stably, and the signed values
    are summed; the determinant comes from build_system and det.
    """
    def sign(x):
        return (x > 0) - (x < 0)

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
    if top_sign != sign(determinant):
        violations.append(
            f"sign-mismatch: dominant contributes {top_sign}, determinant sign is {sign(determinant)}"
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


def canonical_filling(partition, ell, z_columns):
    """The column-increasing Filling with its markers at the given class columns.

    z_columns lists, for each grid row, the 1-based class receiving the
    marker; each class then takes its elements other than ell in increasing
    order, top to bottom, in its remaining rows.  Filling validates the
    grid, so markers that leave a class too few or too many rows raise.
    """
    grid = [[None] * partition.r for _ in z_columns]
    for m, cls in enumerate(partition.classes, start=1):
        free = [k for k, z in enumerate(z_columns) if z != m]
        for k, e in zip(free, sorted(set(cls) - {ell})):
            grid[k][m - 1] = e
    return Filling(partition, ell, grid)


def dominant_grid_by_recursion(partition, ell, profile):
    """The dominant filling's grid, by the band recursion as first written.

    Each band lo..hi of grid rows is cut at profile.max_of(lo + 1..hi),
    asked afresh for every band, by dominant_split, every cut must pass
    check_split_conditions, and nothing is remembered between bands or
    calls.
    """
    grid = [None] * (profile.gaps + 1)

    def solve(lo, hi, by_class):
        if lo == hi:
            grid[lo] = tuple(cls[0] if cls else None for cls in by_class)
            return
        tau = profile.max_of(range(lo + 1, hi + 1))
        h_top, h_bot = tau - lo, hi - tau + 1
        x_by_class, y_by_class = dominant_split(by_class, h_top, h_bot)
        assert check_split_conditions(x_by_class, y_by_class, h_top, h_bot) == ()
        solve(lo, tau - 1, x_by_class)
        solve(tau, hi, y_by_class)

    solve(0, profile.gaps, tuple(tuple(sorted(set(cls) - {ell})) for cls in partition.classes))
    return tuple(grid)


def abstract_profiles(d):
    """Every dominance profile on gaps 1..d, as (classes, kinds).

    classes is an ordered set partition of 1..d, least dominant level
    first, each level a sorted tuple; a level of two or more gaps is left-
    or right-similar, a singleton has kind None, as dominance_profile
    reports them.
    """
    def levels(rest):
        if not rest:
            yield ()
            return
        for size in range(1, len(rest) + 1):
            for first in combinations(rest, size):
                for tail in levels(tuple(t for t in rest if t not in first)):
                    yield (first, *tail)

    similar = (Relation.LEFT_SIMILAR, Relation.RIGHT_SIMILAR)
    for classes in levels(tuple(range(1, d + 1))):
        choices = [similar if len(level) > 1 else (None,) for level in classes]
        for kinds in product(*choices):
            yield classes, kinds


def realize_profile(d, r, classes, kinds, q, ones_at=0):
    """A tabled sequence of tverberg_number(r, d) points in R^d with a given profile.

    Its ordered lift certifies at q with dominance classes classes and kinds
    kinds (abstract_profiles), and the ones row sits at ordered position
    ones_at.  None when no g up to 40 realizes it.

    1. Gap t of the ordered lift, the exponent step from ordered row t - 1
       to row t, is s * i (a singleton), s * 2**i (right-similar: the later
       window wins) or -s * 2**(n - i) (left-similar: the earlier one wins)
       at position i, with s = 2**(g * (level + 1)) for the level of t.
    2. The ordered rows are the running sums of the gaps from the ones row
       (all zeros); g rises from 1 until the profile certifies as asked.
    3. Subtracting row ones_at from every row divides each lifted point by
       a positive number, which keeps the profile and the Tverberg
       partitions; row ones_at becomes the ones row and is dropped.
    4. The coordinates are listed in reverse, so ordered_lift must sort them.
    """
    n = tverberg_number(r, d)
    level = {t: k for k, members in enumerate(classes) for t in members}
    kind = {t: kinds[k] for k, members in enumerate(classes) for t in members}
    shapes = {
        None: lambda i: i,
        Relation.RIGHT_SIMILAR: lambda i: 2**i,
        Relation.LEFT_SIMILAR: lambda i: -(2 ** (n - i)),
    }
    for g in range(1, 41):
        rows = [[0] * n]
        for t in range(1, d + 1):
            s = 2 ** (g * (level[t] + 1))
            rows.append([e + s * shapes[kind[t]](i) for i, e in enumerate(rows[-1], start=1)])
        table = [[e - f for e, f in zip(row, rows[ones_at])] for k, row in enumerate(rows) if k != ones_at]
        points = gen_power_sequence(2, table)._pick(range(d - 1, -1, -1), range(n))
        try:
            profile, coords = _certified_profile(points, q)
        except NotDominantError:
            continue
        if profile.classes == tuple(classes) and profile.kinds == tuple(kinds) and coords[ones_at] == 0:
            return points
    return None
