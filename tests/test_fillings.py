"""Grid fillings against brute-force transversal and argmax oracles."""
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import tverberg
from tverberg import fillings
from tverberg.exact import _scaled_int_rows, det
from tverberg.fillings import (
    Filling,
    InvalidFillingError,
    check_split_conditions,
    crossing_pairs,
    dominance_report,
    dominant_split,
    enumerate_valid_fillings,
    filling_to_json,
    find_dominant_filling,
    monomial_value,
    sign_flip_witness,
    switch_ratio,
)
from tverberg.partitions import (
    Partition,
    _cramer_det,
    _cramer_matrix,
    blocks,
    build_system,
    decide_tverberg,
    enumerate_proper_partitions,
    enumerate_rainbow,
    enumerate_tverberg,
    is_rainbow,
    partition_to_json,
    tverberg_number,
)
from tverberg.sequences import (
    DominanceProfile,
    PointSequence,
    default_threshold,
    gen_moment_curve,
    ordered_lift,
)

from oracle_utils import (
    canonical_filling,
    det_by_expansion,
    dominance_report_by_monomials,
    dominant_grid_by_recursion,
)


def m_ell_matrix(points, partition, ell):
    system = build_system(points, partition)
    return system.matrix.with_column(ell - 1, system.rhs)


def transversal_z_patterns(points, partition, ell):
    """Marker patterns of all nonzero transversals, straight off the matrix."""
    rows = tuple(m_ell_matrix(points, partition, ell))
    n = partition.n
    height = (n - 1) // (partition.r - 1)
    patterns = []
    for perm in itertools.permutations(range(len(rows))):
        if any(rows[i][j] == 0 for i, j in enumerate(perm)):
            continue
        marker = {}
        for i, col in enumerate(perm):
            m, k = divmod(i, height)
            if col == ell - 1 or col >= n:
                marker[k] = m + 1
        patterns.append(tuple(marker[k] for k in range(height)))
    return patterns


# ---------------------------------------------------------------------------
# enumeration


def test_smallest_instance_lists_both_fillings():
    p = Partition(3, [[1, 3], [2]])
    fills = enumerate_valid_fillings(p, 1)
    grids = [f.grid for f in fills]
    assert ((None, 2), (3, None)) in grids
    assert ((3, None), (None, 2)) in grids
    assert len(fills) == 2
    assert all(f.is_column_increasing for f in fills)


@pytest.mark.parametrize(
    "partition, points",
    [
        (Partition(3, [[1, 3], [2]]), PointSequence([[2, 3, 7]])),
        (Partition(5, [[3], [1, 2], [4, 5]]), PointSequence([[2, 3, 5, 7, 11]])),
        (Partition(4, [[1, 4], [2, 3]]), PointSequence([[1, 2, 4, 9], [3, 5, 6, 2]])),
    ],
)
def test_enumeration_count_and_distinctness(partition, points):
    height = (partition.n - 1) // (partition.r - 1)
    for ell in range(1, partition.n + 1):
        fills = enumerate_valid_fillings(partition, ell)
        member_counts = [len(set(cls) - {ell}) for cls in partition.classes]
        z_counts = [height - c for c in member_counts]
        patterns = factorial(height)
        for z in z_counts:
            patterns //= factorial(z)
        expected = patterns
        for c in member_counts:
            expected *= factorial(c)
        assert len(fills) == expected
        assert len(set(fills)) == len(fills)
        assert fills == enumerate_valid_fillings(partition, ell)


@pytest.mark.parametrize(
    "partition",
    [
        Partition(3, [[1, 3], [2]]),
        Partition(4, [[1, 4], [2, 3]]),
        Partition(5, [[3], [1, 2], [4, 5]]),
    ],
)
def test_increasing_count_is_sequential_binomial_product(partition):
    height = (partition.n - 1) // (partition.r - 1)
    for ell in range(1, partition.n + 1):
        increasing = enumerate_valid_fillings(partition, ell, increasing_only=True)
        slots = height
        count = 1
        for cls in partition.classes:
            z = height - len(set(cls) - {ell})
            count *= comb(slots, z)
            slots -= z
        assert len(increasing) == count
        assert all(f.is_column_increasing for f in increasing)


def test_increasing_count_is_not_a_full_binomial_product():
    # the naive per-column product over all d+1 rows would give 4 here
    p = Partition(3, [[1, 3], [2]])
    assert len(enumerate_valid_fillings(p, 1, increasing_only=True)) == 2


@pytest.mark.parametrize(
    "partition, points",
    [
        (Partition(3, [[1, 3], [2]]), PointSequence([[2, 3, 7]])),
        (Partition(5, [[3], [1, 2], [4, 5]]), PointSequence([[2, 3, 5, 7, 11]])),
        (Partition(4, [[1, 4], [2, 3]]), PointSequence([[1, 2, 4, 9], [3, 5, 6, 2]])),
    ],
)
def test_expansion_matches_brute_force_transversals(partition, points):
    for ell in range(1, partition.n + 1):
        fills = enumerate_valid_fillings(partition, ell)
        oracle_patterns = transversal_z_patterns(points, partition, ell)
        assert len(fills) == len(oracle_patterns)
        increasing = enumerate_valid_fillings(partition, ell, increasing_only=True)
        assert {f.z_columns for f in increasing} == set(oracle_patterns)
        matrix = m_ell_matrix(points, partition, ell)
        total = sum(
            (lambda mono: mono.sign * mono.value)(monomial_value(f, points))
            for f in fills
        )
        assert total == det_by_expansion(tuple(matrix))
        assert total == det(matrix)


# ---------------------------------------------------------------------------
# monomials


def test_monomial_frozen_small_case():
    p = Partition(3, [[1, 3], [2]])
    pts = PointSequence([[1, 2, 5]])
    by_zcols = {f.z_columns: monomial_value(f, pts) for f in enumerate_valid_fillings(p, 1)}
    assert by_zcols[(1, 2)].value == -5 and by_zcols[(1, 2)].sign == -1
    assert by_zcols[(2, 1)].value == -2 and by_zcols[(2, 1)].sign == 1


def test_monomial_single_row_grid_needs_no_points():
    p = Partition(2, [[1], [2]])
    filling = canonical_filling(p, 2, [2])
    mono = monomial_value(filling, None)
    assert mono.value == 1
    assert mono.sign == 1
    other = monomial_value(canonical_filling(p, 1, [1]), None)
    assert other.sign * other.value == 1


def test_monomial_all_ones_points_give_unit_values():
    p = Partition(4, [[1, 4], [2, 3]])
    pts = PointSequence([[1, 1, 1, 1], [1, 1, 1, 1]])
    for f in enumerate_valid_fillings(p, 2):
        assert abs(monomial_value(f, pts).value) == 1


def test_monomial_rejects_mismatched_inputs():
    p = Partition(3, [[1, 3], [2]])
    filling = canonical_filling(p, 1, [1, 2])
    with pytest.raises(ValueError):
        monomial_value(filling, PointSequence([[1, 2]]))
    with pytest.raises(ValueError):
        monomial_value(filling, PointSequence([[1, 2, 3]]), row_coords=(0, 0))
    with pytest.raises(ValueError):
        monomial_value(filling, None)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=8, max_size=8))
def test_signed_monomials_always_sum_to_the_determinant(raw):
    points = PointSequence([raw[:4], raw[4:]])
    partition = Partition(4, [[1, 4], [2, 3]])
    for ell in (1, 3):
        matrix = m_ell_matrix(points, partition, ell)
        total = sum(
            (lambda mono: mono.sign * mono.value)(monomial_value(f, points))
            for f in enumerate_valid_fillings(partition, ell)
        )
        assert total == det_by_expansion(tuple(matrix))


def test_row_coords_reconstruction_on_decaying_coordinates():
    pts = PointSequence([[Fraction(1, 8), Fraction(1, 64), Fraction(1, 512)]])
    _, coords = ordered_lift(pts, 3)
    assert coords == (1, 0)
    p = Partition(3, [[1, 3], [2]])
    for ell in range(1, 4):
        matrix = m_ell_matrix(pts, p, ell)
        total = sum(
            (lambda mono: mono.sign * mono.value)(monomial_value(f, pts, coords))
            for f in enumerate_valid_fillings(p, ell)
        )
        assert total == det(matrix)


# ---------------------------------------------------------------------------
# z-switches


def all_switch_sites(filling):
    zcols = filling.z_columns
    for s in range(len(zcols)):
        for t in range(s + 1, len(zcols)):
            if zcols[s] != zcols[t]:
                yield s, t, zcols[s], zcols[t]


def test_crossing_pairs_rejects_same_column_and_disordered_grids():
    p = Partition(3, [[1, 2], [3]])
    f = canonical_filling(p, 3, [2, 2])
    with pytest.raises(InvalidFillingError):
        crossing_pairs(f, 0, 1)
    g = canonical_filling(p, 1, [1, 2])
    with pytest.raises(InvalidFillingError):
        crossing_pairs(g, 1, 0)
    disordered = Filling(Partition(3, [[2, 3], [1]]), 1, [[3, None], [2, None]])

    assert not disordered.is_column_increasing
    with pytest.raises(InvalidFillingError):
        crossing_pairs(disordered, 0, 1)


@pytest.mark.parametrize("d, r", [(1, 3), (2, 2)])
def test_switch_ratio_equals_monomial_quotient(super_instance, d, r):
    sup, _ = super_instance(d, r)
    n = sup.points.length
    checked = 0
    for partition in enumerate_proper_partitions(n, r, d + 1):
        for ell in range(1, n + 1):
            for f in enumerate_valid_fillings(partition, ell, increasing_only=True):
                base = monomial_value(f, sup.points)
                for s, t, alpha, beta in all_switch_sites(f):
                    ratio = switch_ratio(f, sup.points, s, t)
                    zcols = list(f.z_columns)
                    zcols[s], zcols[t] = beta, alpha
                    other = monomial_value(canonical_filling(partition, ell, zcols), sup.points)
                    assert other.value / base.value == ratio
                    assert ratio > 0
                    checked += 1
    assert checked > 50


@pytest.mark.parametrize("d, r", [(1, 3), (2, 2)])
def test_switch_direction_follows_dominant_crossing(super_instance, d, r):
    sup, profile = super_instance(d, r)
    n = sup.points.length
    for partition in enumerate_proper_partitions(n, r, d + 1):
        for ell in range(1, n + 1):
            for f in enumerate_valid_fillings(partition, ell, increasing_only=True):
                for s, t, alpha, beta in all_switch_sites(f):
                    triples = crossing_pairs(f, s, t)
                    assert [u for u, _, _ in triples] == list(range(s + 1, t + 1))
                    i_by_gap = dict((u, i) for u, i, _ in triples)
                    j_by_gap = dict((u, j) for u, _, j in triples)
                    tau = profile.max_of(range(s + 1, t + 1))
                    ratio = switch_ratio(f, sup.points, s, t)
                    if i_by_gap[tau] < j_by_gap[tau]:
                        assert ratio > sup.q
                    else:
                        assert ratio < 1 / sup.q


def test_crossing_pairs_are_monotone(super_instance):
    sup, _ = super_instance(2, 2)
    for partition in enumerate_proper_partitions(4, 2, 3):
        for f in enumerate_valid_fillings(partition, 1, increasing_only=True):
            for s, t, *_ in all_switch_sites(f):
                triples = crossing_pairs(f, s, t)
                for (_, i1, j1), (_, i2, j2) in zip(triples, triples[1:]):
                    assert i1 <= i2 and j1 <= j2


def test_out_of_order_column_is_dominated_by_sorted_variant(super_instance):
    sup, _ = super_instance(1, 3)
    p = Partition(5, [[1, 2], [3, 4], [5]])
    sorted_f = canonical_filling(p, 5, [3, 3])
    grid = [list(row) for row in sorted_f.grid]
    (grid[0][0], grid[1][0]) = (grid[1][0], grid[0][0])
    disordered = Filling(p, 5, grid)
    assert not disordered.is_column_increasing
    good = monomial_value(sorted_f, sup.points)
    bad = monomial_value(disordered, sup.points)
    assert abs(good.value) > sup.q * abs(bad.value)


@pytest.mark.parametrize("d, r, ells", [(1, 3, (1, 3)), (2, 2, (1, 4))])
def test_one_of_two_distinct_fillings_admits_a_dominating_switch(super_instance, d, r, ells):
    sup, _ = super_instance(d, r)
    n = sup.points.length
    for partition in enumerate_proper_partitions(n, r, d + 1):
        for ell in ells:
            increasing = enumerate_valid_fillings(partition, ell, increasing_only=True)
            for f, g in itertools.combinations(increasing, 2):
                assert any(
                    switch_ratio(h, sup.points, s, t) > sup.q
                    for h in (f, g)
                    for s, t, *_ in all_switch_sites(h)
                )


@pytest.mark.parametrize("d, r", [(1, 2), (1, 3), (2, 2)])
def test_dominant_filling_admits_no_dominating_switch(super_instance, d, r):
    sup, profile = super_instance(d, r)
    n = sup.points.length
    for partition in enumerate_proper_partitions(n, r, d + 1):
        for ell in range(1, n + 1):
            dom = find_dominant_filling(partition, ell, profile)
            for s, t, *_ in all_switch_sites(dom):
                assert switch_ratio(dom, sup.points, s, t) < 1 / sup.q


# ---------------------------------------------------------------------------
# the dominant filling


@pytest.mark.parametrize("d, r", [(1, 2), (1, 3), (2, 2)])
def test_find_dominant_matches_brute_force_argmax(super_instance, d, r):
    sup, profile = super_instance(d, r)
    n = sup.points.length
    for partition in enumerate_proper_partitions(n, r, d + 1):
        for ell in range(1, n + 1):
            best = max(
                (monomial_value(f, sup.points) for f in enumerate_valid_fillings(partition, ell)),
                key=lambda mono: abs(mono.value),
            )
            assert find_dominant_filling(partition, ell, profile) == best.filling


@pytest.mark.parametrize("d, r", [(2, 3), (3, 2)])
def test_every_split_is_checked(monkeypatch, super_instance, d, r):
    # d splits cut the d + 1 grid rows into one-row bands, and each split
    # passes through the four split conditions.
    _, profile = super_instance(d, r)
    check = tverberg.fillings.check_split_conditions
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(tverberg.fillings, "check_split_conditions", counted)
    n = (r - 1) * (d + 1) + 1
    for partition in enumerate_proper_partitions(n, r, d + 1):
        for ell in range(1, n + 1):
            calls.clear()
            find_dominant_filling(partition, ell, profile)
            assert len(calls) == d, (partition, ell)


def without(classes, ell):
    return tuple(tuple(e for e in cls if e != ell) for cls in classes)


@pytest.mark.parametrize("d, r", [(2, 3), (3, 2), (4, 2)])
def test_band_rows_match_the_recursion_on_every_dominance_order(d, r):
    # A chain profile, as every super instance has, cuts each band just
    # above its last row; these orders cut bands at every gap.  Only max_of
    # reads a profile here, and it reads the order.
    n = tverberg_number(r, d)
    coords = tuple(range(d + 1))
    for order in itertools.permutations(range(1, d + 1)):
        profile = DominanceProfile(d, {}, tuple((t,) for t in order), (None,) * d, order)
        memo = {}
        for partition in enumerate_proper_partitions(n, r, d + 1):
            signs = []
            for ell in range(1, n + 1):
                expected = dominant_grid_by_recursion(partition, ell, profile)
                rows = fillings._band_rows(0, d, without(partition.classes, ell), profile._band_cuts, memo)
                assert rows == expected == find_dominant_filling(partition, ell, profile).grid
                signs.append(fillings._dominant_sign(rows, ell, n, coords))
            stop = next((k for k, sign in enumerate(signs) if sign != signs[0]), n - 1)
            assert fillings._dominant_signs(partition.classes, profile, coords, memo) == signs[: stop + 1]


@pytest.mark.parametrize("d, r", [(2, 3), (3, 2)])
def test_enumerate_checks_every_split_it_computes(monkeypatch, super_instance, d, r):
    # Every walked ell computes its top band; a sub-band is computed on its
    # first meeting only and read from the memo after, so each call below
    # is one computed split and passes through the four split conditions.
    sup, _ = super_instance(d, r)
    check, band_rows = fillings.check_split_conditions, fillings._band_rows
    checked, computed = [], []

    def counted_check(*args):
        checked.append(args)
        return check(*args)

    def counted_band_rows(lo, hi, by_class, *rest):
        computed.append((lo, hi, by_class))
        return band_rows(lo, hi, by_class, *rest)

    monkeypatch.setattr(fillings, "check_split_conditions", counted_check)
    monkeypatch.setattr(fillings, "_band_rows", counted_band_rows)
    assert enumerate_tverberg(sup.points) == enumerate_rainbow(d, r)
    assert len(checked) == len(computed)
    tops = [key for key in computed if key[:2] == (0, d)]
    subs = [key for key in computed if key[:2] != (0, d)]
    assert len(subs) == len(set(subs))
    # Without the memo each ell would compute d splits (see the test above).
    assert len(tops) < len(computed) < d * len(tops)


def test_enumerate_raises_on_a_failed_split_check(monkeypatch, super_instance):
    sup, _ = super_instance(2, 3)
    monkeypatch.setattr(fillings, "check_split_conditions", lambda *args: ("(d) planted violation",))
    with pytest.raises(InvalidFillingError, match="planted violation"):
        enumerate_tverberg(sup.points)


def test_find_dominant_validations(super_instance):
    _, profile = super_instance(1, 3)
    _, wide_profile = super_instance(2, 2)
    with pytest.raises(InvalidFillingError):
        find_dominant_filling(Partition(5, [[1, 2, 3], [4], [5]]), 1, profile)
    with pytest.raises(ValueError):
        find_dominant_filling(Partition(3, [[1, 3], [2]]), 1, wide_profile)
    with pytest.raises(InvalidFillingError):
        find_dominant_filling(Partition(5, [[3], [1, 2], [4, 5]]), 9, profile)


# ---------------------------------------------------------------------------
# threshold split bookkeeping


def test_dominant_split_stage_bookkeeping_frozen():
    # the clamps put 2, 1..2 and 0..1 elements of the classes on top, so 3
    # at least; the threshold rises past 1..4 without changing that, and 5
    # is the fourth top element
    assert dominant_split([(1, 2, 3), (4, 5), (6,)], 2, 1) == (
        ((1, 2), (4, 5), ()),
        ((3,), (), (6,)),
    )


def random_band(rng):
    r = rng.choice([2, 3, 4, 5])
    h_top = rng.randint(1, 4)
    h_bot = rng.randint(1, 4)
    total = (h_top + h_bot) * (r - 1)
    elements = list(range(1, total + 1))
    rng.shuffle(elements)
    while True:
        caps = [h_top + h_bot] * r
        classes = [[] for _ in range(r)]
        ok = True
        for e in elements:
            roomy = [m for m in range(r) if caps[m] > len(classes[m])]
            if not roomy:
                ok = False
                break
            classes[rng.choice(roomy)].append(e)
        if ok:
            return classes, h_top, h_bot


def test_dominant_split_bookkeeping_randomized():
    # Wider than the exhaustive test below: r up to 5, both bands up to 4 rows.
    rng = random.Random(20260819)
    for _ in range(1000):
        classes, h_top, h_bot = random_band(rng)
        x_by_class, y_by_class = dominant_split(classes, h_top, h_bot)
        for cls, x, y in zip(classes, x_by_class, y_by_class):
            assert x + y == tuple(sorted(cls))
        assert check_split_conditions(x_by_class, y_by_class, h_top, h_bot) == ()
        assert (x_by_class, y_by_class) == dominant_split(classes, h_top, h_bot)


BAND_SHAPES = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 1, 3), (2, 3, 1),
               (3, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 1)]


def test_dominant_split_is_the_one_passing_prefix_cut():
    # Every labelling of 1..N into r classes of at most h_top + h_bot
    # elements: exactly one prefix cut passes the four conditions, and
    # dominant_split returns it.
    bands = 0
    for r, h_top, h_bot in BAND_SHAPES:
        size = (h_top + h_bot) * (r - 1)
        for labels in itertools.product(range(r), repeat=size):
            classes = [tuple(e for e in range(1, size + 1) if labels[e - 1] == m) for m in range(r)]
            if any(len(cls) > h_top + h_bot for cls in classes):
                continue
            bands += 1
            passing = []
            for cuts in itertools.product(*(range(len(cls) + 1) for cls in classes)):
                x = tuple(cls[:k] for cls, k in zip(classes, cuts))
                y = tuple(cls[k:] for cls, k in zip(classes, cuts))
                if check_split_conditions(x, y, h_top, h_bot) == ():
                    passing.append((x, y))
            assert passing == [dominant_split(classes, h_top, h_bot)], (classes, h_top, h_bot)
    assert bands == 2582


def test_check_split_conditions_flags_each_condition():
    # (a): class 1 has 3 in X but 2 in Y
    bad_a = check_split_conditions([(1, 3), (2,)], [(2,), (4,)], 2, 1)
    assert any(v.startswith("(a)") for v in bad_a)
    # (b): class 1 oversized on top
    bad_b = check_split_conditions([(1, 2, 3), ()], [(), (4, 5, 6)], 2, 1)
    assert any(v.startswith("(b)") for v in bad_b)
    # (c): class 1 short on top, class 2 empty on bottom, yet X_2 reaches past Y_1
    bad_c = check_split_conditions([(1,), (3,)], [(2,), ()], 2, 1)
    assert any(v.startswith("(c)") for v in bad_c)
    # (d): top part one element short
    bad_d = check_split_conditions([(1,), ()], [(2,), (3,)], 2, 1)
    assert any(v.startswith("(d)") for v in bad_d)
    assert check_split_conditions([(1, 2), ()], [(), (3,)], 2, 1) == ()


def test_check_split_conditions_messages_and_order():
    # one planted split breaking all four conditions: (a) in classes 1 and 2,
    # (b) on top in class 1 and at the bottom in class 3, (c) for three of
    # the (alpha, beta) pairs with spare room, (d) four elements on top of six
    x = [(1, 2, 8), (7,), (), ()]
    y = [(3,), (5,), (4, 6, 10), (9,)]
    assert check_split_conditions(x, y, 2, 2) == (
        "(a) class 1: top part reaches 8, bottom starts at 3",
        "(a) class 2: top part reaches 7, bottom starts at 5",
        "(b) class 1: 3 elements exceed top capacity 2",
        "(b) class 3: 3 elements exceed bottom capacity 2",
        "(c) classes 2,1: 8 does not precede 5",
        "(c) classes 3,1: 8 does not precede 4",
        "(c) classes 3,2: 7 does not precede 4",
        "(d) top side holds 4 elements, wants 6",
    )
    assert check_split_conditions([(4,), (6,), (2,)], [(3, 5), (1,), ()], 2, 2) == (
        "(a) class 1: top part reaches 4, bottom starts at 3",
        "(a) class 2: top part reaches 6, bottom starts at 1",
        "(c) classes 1,2: 6 does not precede 3",
        "(c) classes 2,3: 2 does not precede 1",
        "(d) top side holds 3 elements, wants 4",
    )
    assert check_split_conditions([(1,), (3,)], [(2,), ()], 2, 1) == (
        "(c) classes 1,2: 3 does not precede 2",
    )


def test_dominant_split_input_validation():
    with pytest.raises(ValueError):
        dominant_split([(1, 2, 3, 4), (5, 6)], 2, 1)
    with pytest.raises(ValueError):
        dominant_split([(1, 2), (3, 4)], 2, 1)
    with pytest.raises(ValueError):
        dominant_split([(1, 2), (3, 4)], 2, 0)
    with pytest.raises(ValueError):
        dominant_split([(1,), (1,)], 1, 1)


# ---------------------------------------------------------------------------
# rainbow partitions


@pytest.mark.parametrize("d, r", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_rainbow_filling_matches_dominant_and_stays_in_blocks(super_instance, d, r):
    # On a rainbow partition the dominant filling goes by consecutive chunks:
    # row s holds the s-th run of r - 1 positions other than ell, each in its
    # own class column, with the marker in the one class the run misses.
    sup, profile = super_instance(d, r)
    n = sup.points.length
    windows = blocks(d, r)
    for partition in enumerate_rainbow(d, r):
        for ell in range(1, n + 1):
            f = find_dominant_filling(partition, ell, profile)
            rest = [i for i in range(1, n + 1) if i != ell]
            for s in range(d + 1):
                chunk = rest[s * (r - 1):(s + 1) * (r - 1)]
                row = [None] * r
                for e in chunk:
                    row[partition.class_of(e) - 1] = e
                assert f.grid[s] == tuple(row)
                assert set(chunk) <= set(windows[s])


# ---------------------------------------------------------------------------
# sign-flip witnesses


def test_sign_flip_witness_frozen_pair(super_instance):
    sup, profile = super_instance(1, 2)
    p = Partition(3, [[1, 2], [3]])
    assert sign_flip_witness(p, profile) == (1, 2)
    f1 = find_dominant_filling(p, 1, profile)
    f2 = find_dominant_filling(p, 2, profile)
    assert f1.z_columns == f2.z_columns
    m1 = monomial_value(f1, sup.points)
    m2 = monomial_value(f2, sup.points)
    assert m1.sign == -m2.sign
    assert not decide_tverberg(sup.points, p).is_tverberg


@pytest.mark.parametrize("d, r", [(1, 3), (2, 2)])
def test_sign_flip_witness_exists_for_all_non_rainbow(super_instance, d, r):
    sup, profile = super_instance(d, r)
    n = sup.points.length
    for partition in enumerate_proper_partitions(n, r, d + 1):
        if is_rainbow(partition, d):
            with pytest.raises(ValueError):
                sign_flip_witness(partition, profile)
            continue
        pair = sign_flip_witness(partition, profile)
        assert pair is not None
        ell1, ell2 = pair
        cls = partition.classes[partition.class_of(ell1) - 1]
        assert partition.class_of(ell2) == partition.class_of(ell1)
        assert cls.index(ell2) == cls.index(ell1) + 1


def test_sign_flip_witness_dimension_mismatch(super_instance):
    _, wide_profile = super_instance(2, 2)
    with pytest.raises(ValueError):
        sign_flip_witness(Partition(3, [[1, 2], [3]]), wide_profile)


# ---------------------------------------------------------------------------
# dominance reports


def test_dominance_report_clean_on_super_points(super_instance):
    sup, _ = super_instance(1, 3)
    _, coords = ordered_lift(sup.points, sup.q)
    for partition in enumerate_proper_partitions(5, 3, 2):
        for ell in (1, 4):
            report = dominance_report(sup.points, partition, ell, sup.q, coords)
            assert report.ok
            assert report.monomial_count >= 1
            assert report.determinant == sum(
                (lambda mono: mono.sign * mono.value)(monomial_value(f, sup.points, coords))
                for f in enumerate_valid_fillings(partition, ell)
            )


def test_dominance_report_runner_up_is_second_largest(super_instance):
    sup, _ = super_instance(1, 2)
    _, coords = ordered_lift(sup.points, sup.q)
    partition = Partition(3, [[1], [2, 3]])
    report = dominance_report(sup.points, partition, 1, sup.q, coords)
    values = sorted(
        (abs(monomial_value(f, sup.points, coords).value)
         for f in enumerate_valid_fillings(partition, 1)),
        reverse=True,
    )
    assert report.monomial_count == len(values) == 2
    assert report.runner_up == values[1]
    assert abs(report.dominant_value) == values[0]
    assert abs(report.dominant_value) > sup.q * report.runner_up
    assert report.ok


def test_dominance_report_flags_slow_moment_curve():
    points = gen_moment_curve(2, [1, 2, 3, 4, 5, 6, 7])
    partition = Partition(7, [[1, 4, 7], [2, 5], [3, 6]])
    report = dominance_report(points, partition, 1, default_threshold(2, 3), [0, 1, 2])
    assert not report.ok
    assert any(v.startswith("max-not-dominant") for v in report.violations)


def test_dominance_report_takes_the_callers_row_order(super_instance):
    sup, _ = super_instance(2, 2)
    _, coords = ordered_lift(sup.points, sup.q)
    partition = Partition(4, [[1, 3], [2, 4]])
    tops = set()
    for row_coords in (coords, (0, 2, 1)):
        report = dominance_report(sup.points, partition, 1, sup.q, row_coords)
        assert report.row_coords == tuple(row_coords)
        best = max(
            (monomial_value(f, sup.points, row_coords) for f in enumerate_valid_fillings(partition, 1)),
            key=lambda mono: abs(mono.value),
        )
        assert report.dominant == best.filling
        tops.add(report.dominant)
    assert len(tops) == 2
    with pytest.raises(ValueError):
        dominance_report(sup.points, partition, 1, sup.q, (0, 1, 1))


@pytest.mark.parametrize("d, r, step", [(1, 3, 1), (1, 4, 1), (2, 2, 1), (2, 3, 7), (3, 2, 5)])
def test_dominance_report_matches_the_monomial_composition(super_instance, d, r, step):
    # every partition of the small rungs, every step-th of the larger ones
    sup, _ = super_instance(d, r)
    _, coords = ordered_lift(sup.points, sup.q)
    n = sup.points.length
    for partition in list(enumerate_proper_partitions(n, r, d + 1))[::step]:
        for ell in range(1, n + 1):
            report = dominance_report(sup.points, partition, ell, sup.q, coords)
            assert report == dominance_report_by_monomials(sup.points, partition, ell, sup.q, coords)
            assert report.ok


def test_dominance_report_matches_the_monomial_composition_off_dominance():
    # fractional entries with zeros and signs, rows read in a shuffled order:
    # ties, zero determinants and both violation kinds, compared as text
    rng = random.Random(5)
    values = [Fraction(x) for x in (-2, -1, 0, 1, 2, 3, "1/2", "-3/4", "5/3")]
    kinds, ties = set(), 0
    for d, r in ((1, 2), (1, 3), (2, 2), (2, 3), (1, 4)):
        n = (r - 1) * (d + 1) + 1
        partitions = list(enumerate_proper_partitions(n, r, d + 1))
        for _ in range(25):
            points = PointSequence([[rng.choice(values) for _ in range(n)] for _ in range(d)])
            coords = list(range(d + 1))
            rng.shuffle(coords)
            partition = rng.choice(partitions)
            for ell in range(1, n + 1):
                report = dominance_report(points, partition, ell, 2, coords)
                assert report == dominance_report_by_monomials(points, partition, ell, 2, coords)
                kinds.update(v.split(":")[0] for v in report.violations)
                ties += report.runner_up == abs(report.dominant_value)
    assert kinds == {"max-not-dominant", "sign-mismatch"}
    assert ties > 0


def test_dominance_report_keeps_its_input_errors(super_instance):
    sup, _ = super_instance(2, 2)
    _, coords = ordered_lift(sup.points, sup.q)
    partition = Partition(4, [[1, 3], [2, 4]])
    for bad in ((0, 1, 1), (0, 1), (0, 1, 3)):
        with pytest.raises(ValueError, match="row_coords must permute 0..2"):
            dominance_report(sup.points, partition, 1, sup.q, bad)
    for points in (sup.points.subsequence([1, 2, 3]), PointSequence([[1, 2, 3, 4]])):
        with pytest.raises(ValueError, match="points must be a 2-dimensional sequence of length 4"):
            dominance_report(points, partition, 1, sup.q, coords)
    with pytest.raises(ValueError, match="points must be a 0-dimensional sequence of length 2"):
        dominance_report(sup.points, Partition(2, [[1], [2]]), 1, sup.q, (0,))
    for ell in (0, 5):
        with pytest.raises(InvalidFillingError, match=f"ell={ell} is not a position in 1..4"):
            dominance_report(sup.points, partition, ell, sup.q, coords)
    # a class of three elements besides ell on a two-row grid
    sup, _ = super_instance(1, 3)
    crowded = Partition(5, [[1, 2, 3], [4], [5]])
    with pytest.raises(InvalidFillingError, match="a class has more elements than grid rows"):
        dominance_report(sup.points, crowded, 4, sup.q, (0, 1))


def test_dominance_report_determinant_is_one_minor_of_k(super_instance):
    # dominance_report reads det M_ell as one signed maximal minor of the
    # Cramer check's integer K over prod(scales)**(r - 1); the reference is
    # det of build_system's matrix with column ell replaced by the rhs
    sequences = [super_instance(d, r)[0].points for d, r in ((1, 3), (1, 4), (2, 2), (2, 3), (3, 2))]
    rng = random.Random(18)
    for d, r in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)] * 8:
        rows = [[Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(tverberg_number(r, d))]
                for _ in range(d)]
        sequences.append(PointSequence(rows))
    checked = 0
    for points in sequences:
        d, n = points.dim, points.length
        ints, scales = _scaled_int_rows(points.rows)
        for partition in enumerate_proper_partitions(n, (n - 1) // (d + 1) + 1, d + 1):
            system = build_system(points, partition)
            k = _cramer_matrix(ints, partition)
            for ell in range(1, n + 1):
                minor = Fraction(int(_cramer_det(k, d * n, ell - 1)), prod(scales) ** (partition.r - 1))
                assert minor == det(system.matrix.with_column(ell - 1, system.rhs)), (points, partition, ell)
                checked += 1
    assert checked == 75 + 735 + 28 + 1225 + 75 + 8 * (9 + 28 + 75 + 75 + 1225)


def test_monomial_count_is_patterns_times_arrangements(super_instance):
    sup, _ = super_instance(2, 3)
    _, coords = ordered_lift(sup.points, sup.q)
    height = 3
    for partition in enumerate_proper_partitions(7, 3, 3):
        for ell in range(1, 8):
            sizes = [len(set(cls) - {ell}) for cls in partition.classes]
            patterns = factorial(height)
            for size in sizes:
                patterns //= factorial(height - size)
            expected = patterns
            for size in sizes:
                expected *= factorial(size)
            report = dominance_report(sup.points, partition, ell, sup.q, coords)
            assert report.monomial_count == expected


@pytest.mark.parametrize(
    "partition", [Partition(5, [[3], [1, 2], [4, 5]]), Partition(7, [[1, 4, 7], [2, 5], [3, 6]])]
)
def test_arrangement_signs_give_the_transversal_parity(partition):
    # the oracle's sign rule: the increasing filling's parity times each
    # class arrangement's sign, under every row order
    height = (partition.n - 1) // (partition.r - 1)
    for ell in range(1, partition.n + 1):
        for arrangements in fillings._transversals(partition, ell):
            increasing = fillings._grid(height, [ways[0][1] for ways in arrangements])
            for coords in itertools.permutations(range(height)):
                parity = fillings._transversal(increasing, ell, partition.n, coords)
                for choice in itertools.product(*arrangements):
                    grid = fillings._grid(height, [cells for _, cells in choice])
                    sign = parity
                    for s, _ in choice:
                        sign *= s
                    assert sign == fillings._transversal(grid, ell, partition.n, coords)


def test_reimports_release_earlier_copies_of_the_package():
    # Annotations evaluated at def time (Optional[PointSequence] and the like)
    # land in typing's cache and would pin each imported copy's classes.
    script = """
import gc, importlib, sys, weakref
def fresh():
    for name in [m for m in sys.modules if m == "tverberg" or m.startswith("tverberg.")]:
        del sys.modules[name]
    return importlib.import_module("tverberg")
first = weakref.ref(fresh().PointSequence)
for _ in range(5):
    fresh()
gc.collect()
sys.exit(0 if first() is None else 1)
"""
    src = os.path.dirname(os.path.dirname(tverberg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120)
    assert done.returncode == 0


# ---------------------------------------------------------------------------
# serialization and validation


def test_filling_json_round_trip(super_instance):
    _, profile = super_instance(1, 3)
    p = Partition(5, [[3], [1, 2], [4, 5]])
    f = find_dominant_filling(p, 2, profile)
    assert f.grid == ((None, 1, 4), (3, None, 5))
    assert filling_to_json(f) == {
        "ell": 2,
        "partition": partition_to_json(p),
        "grid": [["z0", 1, 4], [3, "z1", 5]],
    }


def test_filling_validation_errors():
    p = Partition(3, [[1, 3], [2]])
    with pytest.raises(InvalidFillingError):
        Filling(p, 1, [[None, None], [3, 2]])
    with pytest.raises(InvalidFillingError):
        Filling(p, 1, [[2, None], [None, 3]])
    with pytest.raises(InvalidFillingError):
        Filling(p, 0, [[None, 2], [3, None]])
    with pytest.raises(InvalidFillingError):
        Filling(p, 1, [[None, 2]])
    with pytest.raises(InvalidFillingError):
        Filling(Partition(1, [[1]]), 1, [[None]])
    with pytest.raises(InvalidFillingError):
        canonical_filling(p, 1, [1, 1])
    for ell, grid in ((1, [[None, 2.5], [3.5, None]]), (1, [[None, True], [3, None]]),
                      (1.0, [[None, 2], [3, None]]), (True, [[None, 2], [3, None]])):
        with pytest.raises(ValueError):
            Filling(p, ell, grid)


def test_shape_without_grid_is_one_error_everywhere(super_instance):
    # 4 elements in 3 classes: (n - 1)/(r - 1) = 3/2 rows
    p = Partition(4, [[1, 2], [3], [4]])
    _, profile = super_instance(1, 3)
    calls = [
        lambda: Filling(p, 1, [[None, 3, 4], [2, None, None]]),
        lambda: enumerate_valid_fillings(p, 1),
        lambda: find_dominant_filling(p, 1, profile),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(InvalidFillingError) as caught:
            call()
        messages.add(str(caught.value))
    assert messages == {"4 elements in 3 classes fit no grid"}
