"""Partitions, the common-point system, and the two decision routes."""
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from tverberg import exact, fillings, partitions, sequences
from tverberg.exact import DimensionError, Matrix, _scaled_int_rows, det, det_sign
from tverberg.fillings import _band_rows, _dominant_sign, _dominant_signs, dominance_report, find_dominant_filling
from tverberg.partitions import (
    CertificateMismatchError,
    DegeneratePointsError,
    Partition,
    _restricted_growth,
    affine_intersection_dim,
    blocks,
    build_system,
    decide_tverberg,
    enumerate_proper_partitions,
    enumerate_rainbow,
    enumerate_tverberg,
    is_rainbow,
    is_strong_general_position,
    partition_from_json,
    partition_to_json,
    tverberg_number,
)
from tverberg.sequences import (
    PointSequence,
    default_threshold,
    gen_moment_curve,
    gen_power_sequence,
    uniform_exponents,
)

from oracle_utils import (
    abstract_profiles,
    affine_intersection_dim_by_ranks,
    is_strong_general_position_by_ranks,
    labeled_proper_partitions,
    rank_by_elimination,
    realize_profile,
)


def radon_line() -> PointSequence:
    return gen_moment_curve(1, [1, 2, 3])


def test_tverberg_number_values():
    assert tverberg_number(2, 1) == 3
    assert tverberg_number(2, 2) == 4
    assert tverberg_number(3, 1) == 5
    assert tverberg_number(3, 2) == 7
    assert tverberg_number(2, 3) == 5
    with pytest.raises(ValueError):
        tverberg_number(0, 1)


def test_blocks_cover_with_shared_endpoints():
    assert blocks(1, 2) == ((1, 2), (2, 3))
    assert blocks(1, 3) == ((1, 2, 3), (3, 4, 5))
    assert blocks(2, 3) == ((1, 2, 3), (3, 4, 5), (5, 6, 7))
    for d, r in ((1, 2), (2, 2), (2, 3), (3, 2)):
        windows = blocks(d, r)
        assert len(windows) == d + 1
        assert all(len(w) == r for w in windows)
        assert sorted(set(i for w in windows for i in w)) == list(
            range(1, tverberg_number(r, d) + 1)
        )


def test_partition_validation_and_accessors():
    p = Partition(3, [[2], [3, 1]])
    assert p.classes == ((2,), (1, 3))
    assert p.r == 2
    assert p.class_of(3) == 2
    with pytest.raises(KeyError, match="position 4 is not covered"):
        p.class_of(4)
    assert sorted(p.classes, key=min) == [(1, 3), (2,)]
    assert p.is_proper(1)
    assert not Partition(3, [[1, 2, 3]]).is_proper(1)
    with pytest.raises(ValueError):
        Partition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition(4, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Partition(2, [[1, 2], []])
    for classes in ([[True], [2]], [["1"], [2]], [[1.0], [2]]):
        with pytest.raises(ValueError):
            Partition(2, classes)
    with pytest.raises(ValueError):
        partition_from_json({"n": 2, "classes": [["1"], [2]]})
    for n, classes in ((True, [[1]]), (2.0, [[1], [2]])):
        with pytest.raises(ValueError):
            Partition(n, classes)
        with pytest.raises(ValueError):
            partition_from_json({"n": n, "classes": classes})


def test_partition_rejects_large_n_without_allocating_it():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            partition_from_json({"n": 10**6, "classes": [[1]]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partition_json_round_trip():
    p = Partition(5, [[3], [1, 4], [2, 5]])
    assert partition_from_json(partition_to_json(p)) == p
    with pytest.raises(ValueError):
        partition_from_json({"n": 3})


def test_rainbow_frozen_cases():
    assert is_rainbow(Partition(3, [[2], [1, 3]]), 1)
    assert not is_rainbow(Partition(3, [[1], [2, 3]]), 1)
    assert [p.classes for p in enumerate_rainbow(1, 2)] == [((1, 3), (2,))]
    assert [p.classes for p in enumerate_rainbow(1, 3)] == [
        ((1, 4), (2, 5), (3,)),
        ((1, 5), (2, 4), (3,)),
    ]


def test_rainbow_classes_hit_every_window():
    for d, r in ((2, 2), (3, 2), (2, 3)):
        found = enumerate_rainbow(d, r)
        assert found, f"no rainbow partitions at d={d}, r={r}"
        for p in found:
            for cls in p.classes:
                for window in blocks(d, r):
                    assert len(set(cls) & set(window)) == 1


def meets_each_window_once(partition, d):
    """The rainbow definition read literally: window counts over blocks(d, r)."""
    r = partition.r
    return partition.n == tverberg_number(r, d) and all(
        sum(1 for i in cls if i in window) == 1 for cls in partition.classes for window in blocks(d, r)
    )


def test_rainbow_listing_matches_window_count_filter():
    # the walk prunes by the window rule; the oracle filters every proper partition
    rungs = [(d, r) for d in range(1, 10) for r in range(2, 7) if tverberg_number(r, d) <= 11]
    assert len(rungs) == 17
    for d, r in rungs:
        n = tverberg_number(r, d)
        expected = [p for p in enumerate_proper_partitions(n, r, d + 1) if meets_each_window_once(p, d)]
        assert enumerate_rainbow(d, r) == expected, (d, r)


def test_is_rainbow_matches_window_count_filter():
    # every set partition of 1..9 or fewer: every class count, r = 1 and improper ones
    checked = 0
    for n in range(1, 10):
        for r in range(1, n + 1):
            for p in enumerate_proper_partitions(n, r, n):
                for d in range(1, 9):
                    assert is_rainbow(p, d) == meets_each_window_once(p, d), (p, d)
                checked += 1
    assert checked == 26_442  # the Bell numbers B(1) + ... + B(9)


@pytest.mark.parametrize(
    "d, r", [(d, r) for r in (2, 3) for d in range(1, 8)] + [(16, 2), (25, 2)]
)
def test_rainbow_count_is_factorial_power(d, r):
    assert len(enumerate_rainbow(d, r)) == factorial(r - 1) ** d


def growth_string(classes, n):
    """a_i is the index of i's class, the classes ordered by smallest element."""
    index = {i: m for m, cls in enumerate(sorted(classes, key=min)) for i in cls}
    return tuple(index[i] for i in range(1, n + 1))


def test_enumeration_matches_labeled_oracle():
    # every shape, n < r and n > r * max_size included; the CLI lists
    # partitions in this order, so the test pins the order
    for n in range(8):
        for r in range(5):
            for max_size in range(5):
                unlabeled = {frozenset(labeled) for labeled in labeled_proper_partitions(n, r, max_size)}
                expected = sorted(unlabeled, key=lambda classes: growth_string(classes, n))
                ours = [frozenset(frozenset(c) for c in p.classes)
                        for p in enumerate_proper_partitions(n, r, max_size)]
                assert ours == expected, (n, r, max_size)


def test_enumeration_is_deterministic():
    first = enumerate_proper_partitions(5, 2, 4)
    second = enumerate_proper_partitions(5, 2, 4)
    assert [p.classes for p in first] == [p.classes for p in second]
    assert all(list(p.classes) == sorted(p.classes, key=min) for p in first)


def test_partition_listing_count():
    assert len(enumerate_proper_partitions(10, 4, 3)) == 9100


def test_thirteen_point_listing_count():
    # the (2,5) rung: streamed, no Partition is built
    assert sum(1 for _ in _restricted_growth(13, 5, 3)) == 800800


# ---------------------------------------------------------------------------
# system construction


def test_build_system_shape_and_layout():
    points = radon_line()
    p = Partition(3, [[1, 3], [2]])
    system = build_system(points, p)
    assert system.matrix.rows == system.matrix.cols == 4
    assert system.rhs == (1, 0, 1, 0)
    expected = Matrix(
        [
            [1, 0, 1, 0],
            [1, 0, 3, -1],
            [0, 1, 0, 0],
            [0, 2, 0, -1],
        ]
    )
    assert system.matrix == expected


def test_build_system_rejects_wrong_count():
    points = gen_moment_curve(1, [1, 2, 3, 4])
    with pytest.raises(DimensionError):
        build_system(points, Partition(4, [[1, 3], [2, 4]]))
    with pytest.raises(DimensionError, match="partition covers 1..3, points have n=4"):
        build_system(points, Partition(3, [[1, 3], [2]]))


def test_decide_radon_middle_point():
    verdict = decide_tverberg(radon_line(), Partition(3, [[1, 3], [2]]))
    assert verdict.is_tverberg
    assert verdict.reason == "certified"
    assert verdict.alphas == (Fraction(1, 2), 1, Fraction(1, 2))
    assert verdict.z == (2,)
    assert verdict.base_sign is not None
    assert all(s == verdict.base_sign for s in verdict.det_signs)


def test_decide_radon_wrong_split():
    verdict = decide_tverberg(radon_line(), Partition(3, [[1, 2], [3]]))
    assert not verdict.is_tverberg
    assert verdict.reason == "negative-coefficient"


def test_decide_rejects_oversized_class():
    points = gen_moment_curve(1, [1, 2, 3, 4, 5])
    verdict = decide_tverberg(points, Partition(5, [[1, 2, 3], [4, 5]]))
    assert not verdict.is_tverberg
    assert verdict.reason == "improper"
    assert verdict.alphas is None


def test_decide_boundary_point():
    # the singleton class sits exactly on an endpoint of the other class's
    # segment, so one coefficient of the solution vanishes
    points = PointSequence([[1, 1, 3]])
    verdict = decide_tverberg(points, Partition(3, [[1, 3], [2]]))
    assert not verdict.is_tverberg
    assert verdict.reason == "boundary-coefficient"
    assert verdict.alphas == (1, 1, 0)


def test_decide_raises_on_degenerate_points():
    points = PointSequence([[1, 1, 3]])  # repeated point on the line
    with pytest.raises(DegeneratePointsError):
        decide_tverberg(points, Partition(3, [[1, 2], [3]]))


def test_moment_curve_radon_is_interlacing():
    for d in (1, 2, 3):
        n = tverberg_number(2, d)
        points = gen_moment_curve(d, list(range(1, n + 1)))
        found = enumerate_tverberg(points)
        odd = tuple(range(1, n + 1, 2))
        even = tuple(range(2, n + 1, 2))
        assert [p.classes for p in found] == [(odd, even)]


def test_enumerate_survives_parallel_secants():
    # equally spaced parabola parameters make the 1-4 and 2-3 secants
    # parallel: that partition's system is singular, but its affine hulls
    # are provably disjoint, so enumeration can still discard it
    points = gen_moment_curve(2, [1, 2, 3, 4])
    with pytest.raises(DegeneratePointsError):
        decide_tverberg(points, Partition(4, [[1, 4], [2, 3]]))
    assert affine_intersection_dim(points, [[1, 4], [2, 3]]) == -1
    found = enumerate_tverberg(points)
    assert [p.classes for p in found] == [((1, 3), (2, 4))]


def test_enumerate_reraises_a_singular_partition_whose_hulls_meet():
    # three equal points: {1,2}|{3} is singular and its hulls share the point
    with pytest.raises(DegeneratePointsError, match="singular system"):
        enumerate_tverberg(PointSequence([[1, 1, 1]]))
    # moving the third point off makes that partition's hulls disjoint, so it
    # is skipped; the other two partitions each put a zero weight on a point
    points = PointSequence([[1, 1, 2]])
    with pytest.raises(DegeneratePointsError):
        decide_tverberg(points, Partition(3, [[1, 2], [3]]))
    assert affine_intersection_dim(points, [[1, 2], [3]]) == -1
    assert enumerate_tverberg(points) == []


def test_enumerate_rejects_incompatible_length():
    with pytest.raises(DimensionError):
        enumerate_tverberg(gen_moment_curve(2, [1, 2, 3]))
    with pytest.raises(DimensionError):  # one point fits only r = 1
        enumerate_tverberg(PointSequence([[5]]))


def test_enumerate_solves_only_uncertified_inputs(super_instance, monkeypatch):
    real = partitions.solve_linear
    calls = []

    def counting(matrix, rhs):
        calls.append(matrix)
        return real(matrix, rhs)

    monkeypatch.setattr(partitions, "solve_linear", counting)
    sup, _ = super_instance(2, 3)
    assert enumerate_tverberg(sup.points) == enumerate_rainbow(2, 3)
    assert calls == []
    # The moment curves of criterion 1; d = 2 is also the parallel-secant
    # case, whose singular system is still solved before it is discarded.
    for d in (1, 2, 3, 4):
        points = gen_moment_curve(d, list(range(1, d + 3)))
        odd, even = tuple(range(1, d + 3, 2)), tuple(range(2, d + 3, 2))
        assert [p.classes for p in enumerate_tverberg(points)] == [(odd, even)]
        assert len(calls) == len(enumerate_proper_partitions(d + 2, 2, d + 1))
        calls.clear()


def test_enumerate_cross_check_catches_a_wrong_dominant_sign(super_instance, monkeypatch):
    sup, _ = super_instance(1, 3)
    real = fillings._dominant_signs
    # Negating every sign keeps each verdict; only the sign comparison sees it.
    monkeypatch.setattr(fillings, "_dominant_signs", lambda *args: [-s for s in real(*args)])
    assert enumerate_tverberg(sup.points) == enumerate_rainbow(1, 3)
    with pytest.raises(CertificateMismatchError):
        enumerate_tverberg(sup.points, cross_check=True)


def test_enumerate_reaches_three_three(super_instance):
    # 1,855 proper partitions with entries of ~1.5 M bits: the solve route
    # does not finish here, the dominant-sign route takes about a second.
    sup, _ = super_instance(3, 3)
    assert enumerate_tverberg(sup.points) == enumerate_rainbow(3, 3)


def test_cross_check_runs_both_routes():
    points = radon_line()
    lazy = decide_tverberg(points, Partition(3, [[1, 3], [2]]), cross_check=False)
    assert lazy.det_signs is None and lazy.base_sign is None
    eager = decide_tverberg(points, Partition(3, [[1, 3], [2]]), cross_check=True)
    assert eager.det_signs is not None
    assert eager.is_tverberg == lazy.is_tverberg


@pytest.mark.parametrize("d, r", [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2)])
def test_cross_check_on_super_instances(super_instance, d, r):
    # Entries reach ~3 k bits at (2,3) and ~53 k at (3,2).  On every proper
    # partition the solve route and the Cramer route agree (decide_tverberg
    # raises otherwise), the dominant-monomial signs give the same verdict
    # and equal the determinant signs they reach, and a rejection's first
    # two disagreeing ells have opposite determinant signs.  The walk's sign
    # for every ell, not only up to the first disagreement, is the
    # determinant's and that of find_dominant_filling's grid.
    sup, _ = super_instance(d, r)
    n = sup.points.length
    # The threshold enumerate_tverberg certifies at; NotDominantError fails.
    certificate = sequences._certified_profile(sup.points, default_threshold(d, r))
    profile, coords = certificate
    memo = {}
    accepted = []
    for p in enumerate_proper_partitions(n, r, d + 1):
        verdict = decide_tverberg(sup.points, p, cross_check=True)
        for ell in range(1, n + 1):
            by_class = tuple(tuple(e for e in cls if e != ell) for cls in p.classes)
            walked = _dominant_sign(_band_rows(0, d, by_class, profile._band_cuts, memo), ell, n, coords)
            built = _dominant_sign(find_dominant_filling(p, ell, profile).grid, ell, n, coords)
            assert walked == built == verdict.det_signs[ell - 1], (p, ell)
        signs = _dominant_signs(p.classes, *certificate, memo)
        assert (signs[-1] == signs[0]) == verdict.is_tverberg, p
        assert tuple(signs) == verdict.det_signs[: len(signs)], p
        if verdict.is_tverberg:
            accepted.append(p)
        else:
            assert verdict.det_signs[0] == -verdict.det_signs[len(signs) - 1], p
    assert accepted == enumerate_rainbow(d, r)


def ones_row_at(lifted, k):
    """Each lifted point divided by its coordinate k, with that coordinate dropped.

    Scaling lifted points by positive numbers keeps the Tverberg partitions,
    and the dropped coordinate, now 1 throughout, is the new ones row.  The
    ordered lift puts it at position k, after the k rows that now decrease.
    """
    base, table = lifted._exponents
    return PointSequence(
        [[base ** (e - f) for e, f in zip(row, table[k])] for t, row in enumerate(table) if t != k]
    )


@pytest.mark.parametrize("d, r", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_dominant_route_with_the_ones_row_off_the_slowest_position(super_instance, d, r):
    # Every other walk test reads the rows in lifted order; here the marker
    # factor (-1)**d meets a row order that moves the ones row.
    sup, _ = super_instance(d, r)
    for k in range(1, d + 1):
        points = ones_row_at(sup.lifted, k)
        _, coords = sequences._certified_profile(points, default_threshold(d, r))
        assert coords.index(0) == k
        assert enumerate_tverberg(points) == enumerate_rainbow(d, r), k
        if d + r <= 4:  # cross-checking every partition takes 1.1 s at (2,3), 8 s at (3,2)
            assert enumerate_tverberg(points, cross_check=True) == enumerate_rainbow(d, r), k


def test_walk_signs_are_the_determinants_with_the_ones_row_moved(super_instance):
    d, r = 2, 3
    sup, _ = super_instance(d, r)
    for k in range(1, d + 1):
        points = ones_row_at(sup.lifted, k)
        certificate = sequences._certified_profile(points, default_threshold(d, r))
        memo = {}
        for p in enumerate_proper_partitions(points.length, r, d + 1)[::7]:
            signs = _dominant_signs(p.classes, *certificate, memo)
            assert tuple(signs) == decide_tverberg(points, p, cross_check=True).det_signs[: len(signs)], (k, p)


@pytest.mark.parametrize("d, r, step", [(2, 2, 1), (2, 3, 5), (3, 2, 3)])
def test_dominant_route_on_every_dominance_profile(d, r, step):
    # Every super instance has a chain profile, which never cuts a band
    # inside; these realize every profile, with the ones row at every
    # ordered position, at the default threshold.  On every partition the
    # dominant sign of each ell is the Cramer sign and the verdicts are the
    # rainbow set; every step-th partition, a shifting offset apart from
    # instance to instance, also gets the brute-force dominance report.
    q = default_threshold(d, r)
    rainbow = enumerate_rainbow(d, r)
    instances = 0
    for classes, kinds in abstract_profiles(d):
        for ones_at in range(d + 1):
            points = realize_profile(d, r, classes, kinds, q, ones_at)
            assert points is not None, (classes, kinds, ones_at)
            profile, coords = sequences._certified_profile(points, q)
            assert (profile.classes, profile.kinds, coords[ones_at]) == (classes, kinds, 0)
            n = points.length
            found = []
            for index, p in enumerate(enumerate_proper_partitions(n, r, d + 1)):
                verdict = decide_tverberg(points, p, cross_check=True)
                for ell in range(1, n + 1):
                    filling = find_dominant_filling(p, ell, profile)
                    assert _dominant_sign(filling.grid, ell, n, coords) == verdict.det_signs[ell - 1], (p, ell)
                    if index % step == instances % step:
                        report = dominance_report(points, p, ell, q, coords)
                        assert report.ok and report.dominant == filling, (p, ell, report.violations)
                if verdict.is_tverberg:
                    found.append(p)
            assert found == enumerate_tverberg(points) == rainbow, (classes, kinds, ones_at)
            instances += 1
    assert instances == {2: 4 * 3, 3: 20 * 4}[d]


def test_certificates_survive_the_smaller_threshold():
    # q = (r(d+1))! + 1 bounds the terms of the whole r(d+1)-square
    # determinant, the default only the monomials of det(M_ell).  A sequence
    # certified at the larger q certifies at the default with the same
    # profile; one certified at the default only is cross-checked.
    rng = random.Random(27)

    def certificate(points, q):
        try:
            profile, coords = sequences._certified_profile(points, q)
        except sequences.NotDominantError:
            return None
        return coords, profile.classes, profile.kinds, profile.order

    outcomes = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    cross_checked = 0
    for _ in range(300):
        d, r = rng.choice([(1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (3, 2)])
        n = tverberg_number(r, d)
        lifted = [[0] * n]  # running sums of d increasing exponent gap rows
        for _ in range(d):
            scale, e = rng.choice([1, 2, 4, 8, 16, 64]), 0
            steps = [e := e + scale * rng.randint(1, 24) for _ in range(n)]
            lifted.append([x + y for x, y in zip(lifted[-1], steps)])
        rng.shuffle(lifted)  # the ones row lands anywhere
        table = tuple(tuple(row) for row in lifted if any(row))
        points = sequences._tabled(Fraction(2), table)
        wide = certificate(points, factorial(r * (d + 1)) + 1)
        default = certificate(points, default_threshold(d, r))
        outcomes[wide is not None, default is not None] += 1
        if wide is not None:
            assert default == wide, table
        elif default is not None:
            # Cross-checking all 175 partitions at (2,3) takes about 1.7 s,
            # so the two larger rungs compare the dominant route's set alone.
            found = enumerate_tverberg(points, cross_check=d * r <= 4)
            assert found == enumerate_rainbow(d, r), table
            cross_checked += d * r <= 4
    assert outcomes[True, True] >= 100 and outcomes[False, True] >= 25 and outcomes[False, False] >= 100
    assert cross_checked >= 25


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_decide_agrees_with_cramer_on_random_lines(data):
    values = data.draw(
        st.lists(
            st.integers(-30, 30).map(Fraction), min_size=3, max_size=3, unique=True
        )
    )
    points = PointSequence([values])
    p = Partition(3, data.draw(st.sampled_from([[[1, 3], [2]], [[1, 2], [3]], [[2, 3], [1]]])))
    try:
        verdict = decide_tverberg(points, p, cross_check=True)
    except DegeneratePointsError:
        return
    def relint(cls):
        lo = min(values[i - 1] for i in cls)
        hi = max(values[i - 1] for i in cls)
        return lo, hi

    # all-alphas-positive matches intersecting relative interiors, and a
    # singleton's relative interior is the point itself
    (a_lo, a_hi), (b_lo, b_hi) = relint(p.classes[0]), relint(p.classes[1])
    if a_lo == a_hi and b_lo == b_hi:
        overlap = a_lo == b_lo
    elif a_lo == a_hi:
        overlap = b_lo < a_lo < b_hi
    elif b_lo == b_hi:
        overlap = a_lo < b_lo < a_hi
    else:
        overlap = max(a_lo, b_lo) < min(a_hi, b_hi)
    assert verdict.is_tverberg == overlap


# ---------------------------------------------------------------------------
# affine hull intersections


def square_points() -> PointSequence:
    return PointSequence([[0, 2, 0, 2], [0, 2, 2, 0]])


def test_affine_intersection_crossing_segments():
    points = square_points()
    assert affine_intersection_dim(points, [[1, 2], [3, 4]]) == 0
    assert affine_intersection_dim(points, [[1, 2]]) == 1
    assert affine_intersection_dim(points, [[1]]) == 0


def test_affine_intersection_empty_and_nested():
    points = PointSequence([[0, 1, 0, 1], [0, 0, 1, 1]])  # unit square corners
    assert affine_intersection_dim(points, [[1, 2], [3, 4]]) == -1  # parallel sides
    assert affine_intersection_dim(points, [[1, 2, 3], [4]]) == 0
    # a line inside the full plane: the intersection is the line itself
    assert affine_intersection_dim(points, [[1, 2, 3], [1, 4]]) == 1


def test_affine_intersection_point_on_line():
    points = PointSequence([[0, 2, 1], [0, 2, 1]])
    assert affine_intersection_dim(points, [[1, 2], [3]]) == 0
    far = PointSequence([[0, 2, 5], [0, 2, 1]])
    assert affine_intersection_dim(far, [[1, 2], [3]]) == -1


@pytest.mark.parametrize("bad", [1.7, "3", True, 0, 5])
def test_affine_intersection_rejects_bad_positions(bad):
    # square_points has positions 1..4; 0 and 5 used to raise IndexError
    with pytest.raises(ValueError):
        affine_intersection_dim(square_points(), [[1, 2], [bad]])


@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
def test_strong_general_position_rejects_bad_class_counts(bad):
    # r = 0 used to pass vacuously
    with pytest.raises(ValueError):
        is_strong_general_position(radon_line(), bad)


@st.composite
def special_point_sets(draw, dims=(1, 2), span=3):
    """Up to 6 integer points in [-span, span]^d, d from dims, often in special position."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 6))
    coord = st.integers(-span, span)
    pts = [tuple(draw(coord) for _ in range(d)) for _ in range(n)]
    shape = draw(st.sampled_from(["random", "repeated", "collinear", "parallel-secant"]))
    picks = draw(st.permutations(range(n)))
    if shape == "repeated" and n >= 2:
        pts[picks[1]] = pts[picks[0]]
    elif shape == "collinear" and n >= 3:
        a, b = pts[picks[0]], pts[picks[1]]
        for k in picks[2:]:
            s = draw(st.integers(-2, 2))
            pts[k] = tuple(x + s * (y - x) for x, y in zip(a, b))
    elif shape == "parallel-secant" and n >= 4:
        a, b, c = (pts[k] for k in picks[:3])
        s = draw(st.sampled_from([1, -1, 2]))
        pts[picks[3]] = tuple(z + s * (y - x) for x, y, z in zip(a, b, c))
    return pts


def divided_rows(pts, data):
    """The points with each coordinate row divided by its own drawn denominator.

    Returns (points as Fraction tuples, the PointSequence of their rows), so
    that a row's lcm of denominators is mostly not 1.
    """
    denominators = [data.draw(st.integers(1, 12)) for _ in pts[0]]
    pts = [tuple(Fraction(x, q) for x, q in zip(p, denominators)) for p in pts]
    return pts, PointSequence([[p[t] for p in pts] for t in range(len(denominators))])


@given(special_point_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_affine_intersection_matches_two_rank_oracle(pts, data):
    n = len(pts)
    raw = data.draw(
        st.lists(st.lists(st.integers(1, n), min_size=1, max_size=n), min_size=1, max_size=3)
    )
    groups = [sorted(set(g)) for g in raw]  # groups may overlap
    pts, points = divided_rows(pts, data)
    assert affine_intersection_dim(points, groups) == affine_intersection_dim_by_ranks(pts, groups)


@given(special_point_sets(dims=(1, 2, 3), span=40), st.integers(2, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_strong_general_position_matches_family_oracle(pts, r, data):
    pts, points = divided_rows(pts, data)
    assert is_strong_general_position(points, r) == is_strong_general_position_by_ranks(pts, r)


def test_strong_general_position_examples():
    assert is_strong_general_position(radon_line(), 2)
    # the square has two pairs of parallel sides, which is exactly the kind
    # of coincidence the property forbids
    assert not is_strong_general_position(square_points(), 2)
    quad = PointSequence([[0, 3, 1, 4], [0, 1, 3, 5]])
    assert is_strong_general_position(quad, 2)
    collinear_triple = PointSequence([[0, 1, 2, 0], [0, 1, 2, 1]])
    assert not is_strong_general_position(collinear_triple, 2)
    repeated = PointSequence([[1, 1, 3]])
    assert not is_strong_general_position(repeated, 2)


def test_moment_curve_strong_general_position_depends_on_parameters():
    # equally spaced parameters give parallel secants (1+4 = 2+3), while
    # parameters with distinct pairwise sums avoid every such coincidence
    assert not is_strong_general_position(gen_moment_curve(2, [1, 2, 3, 4]), 2)
    assert is_strong_general_position(gen_moment_curve(2, [1, 2, 4, 8]), 2)
    assert is_strong_general_position(gen_moment_curve(1, [1, 2, 3]), 2)
    assert is_strong_general_position(gen_moment_curve(3, [1, 2, 4, 8, 16]), 2)


def family_key(equations):
    """The family whose members' hull equations _intersection_dim was handed, as a set."""
    key = frozenset(tuple(map(tuple, rows)) for rows in equations)
    assert len(key) == len(equations)  # no member twice
    return key


def test_strong_general_position_ranks_each_subset_once(super_instance, monkeypatch):
    sup, _ = super_instance(1, 4)
    n = sup.points.length
    calls = {"_hull_equations": 0, "_intersection_dim": 0, "_grid_solution_dim": 0, "rank": 0}
    groups, families = [], []
    for module, name in ((partitions, "_hull_equations"), (partitions, "_intersection_dim"),
                         (partitions, "_grid_solution_dim"), (exact, "rank")):

        def counted(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            if name == "_hull_equations":
                groups.append(tuple(args[2]))
            if name == "_intersection_dim":
                families.append(family_key(args[1]))
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert is_strong_general_position(sup.points, 4)
    # one weight-column elimination per subset not holding a full-dimensional
    # hull: on the line (d = 1) the 7 singletons have one equation each and
    # the 21 pairs span the line, so no larger subset is eliminated
    assert calls["_hull_equations"] == comb(n, 1) + comb(n, 2) == 28
    assert len(set(groups)) == len(groups)
    # one elimination of the stacked equations per family of 2..4 cutting
    # subsets, here the singletons; two distinct points on the line already
    # miss each other, so no family grows past a pair: C(7,2) = 21
    assert calls["_intersection_dim"] == comb(n, 2) == 21
    assert len(set(families)) == len(families)
    assert calls["_grid_solution_dim"] == 21
    assert calls["rank"] == 0
    assert not hasattr(partitions, "rank")


def test_strong_general_position_elimination_counts_on_the_plane(super_instance, monkeypatch):
    sup, _ = super_instance(2, 3)
    calls = {"_hull_equations": 0, "_intersection_dim": 0}
    families = []
    for name in calls:

        def counted(*args, name=name, real=getattr(partitions, name)):
            calls[name] += 1
            if name == "_intersection_dim":
                families.append(family_key(args[1]))
            return real(*args)

        monkeypatch.setattr(partitions, name, counted)
    assert is_strong_general_position(sup.points, 3)
    # the 7 singletons, 21 pairs and 35 triples; the triples span the plane,
    # so no larger subset is eliminated.  The stacked count is every family
    # the walk reaches without passing below an empty one
    n = sup.points.length
    assert calls["_hull_equations"] == comb(n, 1) + comb(n, 2) + comb(n, 3) == 63
    assert calls["_intersection_dim"] == 336
    # no family is checked twice, three-member ones included: some pairs of
    # lines meet in a point, and the walk descends below them
    assert len(set(families)) == len(families)
    assert max(map(len, families)) == 3


@pytest.mark.parametrize("d, r, deepest", [(1, 4, 2), (2, 3, 3), (1, 5, 2)])
def test_strong_general_position_descends_only_below_nonempty_families(super_instance, monkeypatch, d, r, deepest):
    points = super_instance(d, r)[0].points
    real = partitions._intersection_dim
    checked = []

    def recorded(dim, equations):
        checked.append(list(equations))
        return real(dim, equations)

    monkeypatch.setattr(partitions, "_intersection_dim", recorded)
    assert is_strong_general_position(points, r)
    # on the line every two points already miss each other, so no pair is
    # extended; in the plane two lines meet in a point, so some pairs are
    assert max(map(len, checked)) == deepest
    for equations in checked:
        for k in range(2, len(equations)):
            assert real(d, equations[:k]) >= 0


def test_strong_general_position_finds_a_failure_below_nonempty_families():
    # two points on each of three lines through (1, 2): any two of the
    # lines meet in a point, as expected, but all three meet there too
    pts = [(-7, -14), (-6, -12), (-20, 9), (10, -1), (9, -18), (-1, 7)]
    points = PointSequence([[p[0] for p in pts], [p[1] for p in pts]])
    assert affine_intersection_dim(points, [[1, 2], [3, 4]]) == 0
    assert affine_intersection_dim(points, [[1, 2], [3, 4], [5, 6]]) == 0
    for r, expected in ((2, True), (3, False)):
        assert is_strong_general_position(points, r) == expected
        assert is_strong_general_position_by_ranks(pts, r) == expected


def assert_hull_equations_cut_out_hulls(pts, points):
    """On every nonempty subset: d - dim(hull) rows, each with a nonzero z part and met by the subset."""
    d, n = points.dim, points.length
    coords, scales = _scaled_int_rows(points.rows)
    for size in range(1, n + 1):
        for group in combinations(range(1, n + 1), size):
            rows = partitions._hull_equations(coords, scales, group)
            lifted_rank = rank_by_elimination([[1, *pts[i - 1]] for i in group])
            assert len(rows) == d - lifted_rank + 1, (pts, group)
            for row in rows:
                a, c = [int(x) for x in row[:d]], int(row[d])
                assert any(a), (pts, group, row)
                assert all(sum(map(mul, a, pts[i - 1])) == c for i in group), (pts, group, row)


@pytest.mark.parametrize("d, r", [(1, 4), (2, 3), (3, 2)])
def test_hull_equations_cut_out_each_hull_on_super_instances(super_instance, d, r):
    points = super_instance(d, r)[0].points
    assert_hull_equations_cut_out_hulls([points.point(i) for i in range(1, points.length + 1)], points)


@given(special_point_sets(dims=(1, 2, 3), span=40), st.data())
@settings(max_examples=100, deadline=None)
def test_hull_equations_cut_out_each_hull_on_special_shapes(pts, data):
    assert_hull_equations_cut_out_hulls(*divided_rows(pts, data))


def test_strong_general_position_matches_family_oracle_on_large_entries(super_instance):
    # the hypothesis oracle test draws entries of at most 40; these reach 111 to 1,717 bits
    cases = []
    for d, r in ((1, 3), (2, 2), (1, 4)):
        points = super_instance(d, r)[0].points
        cases.append((points, r, True))
    rows = [list(row) for row in super_instance(1, 4)[0].points.rows]
    rows[0][-1] = rows[0][0]  # a repeated point
    cases.append((PointSequence(rows), 4, False))
    rows = [list(row) for row in super_instance(2, 2)[0].points.rows]
    for row in rows:  # the last point on the segment of the first two
        row[-1] = (row[0] + row[1]) / 2
    cases.append((PointSequence(rows), 2, False))
    for points, r, expected in cases:
        pts = [points.point(i) for i in range(1, points.length + 1)]
        assert is_strong_general_position(points, r) == expected
        assert is_strong_general_position_by_ranks(pts, r) == expected


def _full_matrix_signs(points: PointSequence, p: Partition) -> tuple:
    system = build_system(points, p)
    return det_sign(system.matrix), tuple(
        det_sign(system.matrix.with_column(j, system.rhs)) for j in range(points.length)
    )


def test_det_sign_route_columns_match_cramer(super_instance):
    # spot-check the determinant identity behind the cross-check
    points = radon_line()
    p = Partition(3, [[1, 3], [2]])
    system = build_system(points, p)
    base = det(system.matrix)
    verdict = decide_tverberg(points, p)
    for col in range(3):
        numerator = det(system.matrix.with_column(col, system.rhs))
        assert verdict.alphas[col] == numerator / base
    # The cross-check reads the same signs from the maximal minors of K;
    # det_sign on the full matrix and its column-replaced copies is the reference.
    sequences_r = [(super_instance(d, r)[0].points, r) for d, r in ((1, 3), (2, 3), (3, 2))]
    sequences_r.append((gen_power_sequence(2, uniform_exponents(1, 7)), 4))
    rng = random.Random(15)
    for d in (1, 2, 3):
        for _ in range(4):
            n = tverberg_number(2, d)
            rows = [[Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(n)]
                    for _ in range(d)]
            sequences_r.append((PointSequence(rows), 2))
    sequences_r.append((PointSequence([[1, 2, 2, 3, 5]]), 3))  # repeated: minors vanish
    sequences_r.append((PointSequence([[5], [7]]), 1))  # one class: K has no rows
    checked = zeros = 0
    for points, r in sequences_r:
        for p in enumerate_proper_partitions(points.length, r, points.dim + 1):
            signs = _full_matrix_signs(points, p)
            assert partitions._cramer_signs(points, p) == signs, (points, p)
            checked += 1
            zeros += 0 in signs[1]
    assert checked == 15 + 175 + 15 + 105 + 4 * (3 + 7 + 15) + 15 + 1
    assert zeros > 0
