"""Grid fillings against brute-force transversal and argmax oracles."""
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import tverberg
from tverberg.exact import det
from tverberg.fillings import (
    Filling,
    InvalidFillingError,
    canonical_filling,
    check_split_conditions,
    crossing_pairs,
    dominance_report,
    dominant_split,
    enumerate_valid_fillings,
    filling_from_json,
    filling_to_json,
    find_dominant_filling,
    find_dominating_switch,
    monomial_value,
    rainbow_filling,
    sign_flip_witness,
    split_excess,
    split_trace,
    switch_ratio,
    z_switch,
)
from tverberg.partitions import (
    Partition,
    blocks,
    build_system,
    decide_tverberg,
    enumerate_proper_partitions,
    enumerate_rainbow,
    is_rainbow,
)
from tverberg.sequences import (
    PointSequence,
    default_threshold,
    gen_moment_curve,
    ordered_lift,
)

from oracle_utils import det_by_expansion


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


def test_z_switch_involution_and_preconditions(super_instance):
    sup, _ = super_instance(1, 3)
    p = Partition(5, [[3], [1, 2], [4, 5]])
    for f in enumerate_valid_fillings(p, 2, increasing_only=True):
        for s, t, alpha, beta in all_switch_sites(f):
            switched = z_switch(f, s, t, alpha, beta)
            assert switched.is_column_increasing
            assert z_switch(switched, s, t, beta, alpha) == f
    f = enumerate_valid_fillings(p, 2, increasing_only=True)[0]
    zc = f.z_columns
    with pytest.raises(InvalidFillingError):
        z_switch(f, 1, 0, zc[1], zc[0])
    with pytest.raises(InvalidFillingError):
        z_switch(f, 0, 1, zc[0] % 3 + 1, zc[1])


def test_z_switch_rejects_same_column_and_disordered_grids():
    p = Partition(3, [[1, 2], [3]])
    f = canonical_filling(p, 3, [2, 2])
    with pytest.raises(InvalidFillingError):
        z_switch(f, 0, 1, 2, 2)
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
                    other = monomial_value(z_switch(f, s, t, alpha, beta), sup.points)
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
                assert (
                    find_dominating_switch(f, sup.points, sup.q) is not None
                    or find_dominating_switch(g, sup.points, sup.q) is not None
                )


@pytest.mark.parametrize("d, r", [(1, 2), (1, 3), (2, 2)])
def test_dominant_filling_admits_no_dominating_switch(super_instance, d, r):
    sup, profile = super_instance(d, r)
    n = sup.points.length
    for partition in enumerate_proper_partitions(n, r, d + 1):
        for ell in range(1, n + 1):
            dom = find_dominant_filling(partition, ell, profile)
            assert find_dominating_switch(dom, sup.points, sup.q) is None
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


def test_find_dominant_validations(super_instance):
    _, profile = super_instance(1, 3)
    _, wide_profile = super_instance(2, 2)
    with pytest.raises(InvalidFillingError):
        find_dominant_filling(Partition(5, [[1, 2, 3], [4], [5]]), 1, profile)
    with pytest.raises(ValueError):
        find_dominant_filling(Partition(3, [[1, 3], [2]]), 1, wide_profile)
    with pytest.raises(InvalidFillingError):
        find_dominant_filling(Partition(5, [[3], [1, 2], [4, 5]]), 9, profile)


def test_split_trace_levels_all_satisfy_conditions(super_instance):
    _, profile = super_instance(2, 3)
    for partition in (
        Partition(7, [[1, 4, 7], [2, 5], [3, 6]]),
        Partition(7, [[1, 2], [3, 4, 5], [6, 7]]),
        Partition(7, [[7], [1, 2, 3], [4, 5, 6]]),
    ):
        for ell in (1, 4, 7):
            levels = split_trace(partition, ell, profile)
            assert levels[0].lo == 0 and levels[0].hi == 2
            for level in levels:
                h_top = level.tau - level.lo
                h_bot = level.hi - level.tau + 1
                assert (
                    check_split_conditions(
                        level.split.x_by_class, level.split.y_by_class, h_top, h_bot
                    )
                    == ()
                )


# ---------------------------------------------------------------------------
# three-step split bookkeeping


def test_dominant_split_stage_bookkeeping_frozen():
    result = dominant_split([(1, 2, 3), (4, 5), (6,)], 2, 1)
    labels = [stage.label for stage in result.stages]
    assert labels == ["initial", "exchange", "push-up"]
    assert result.stages[1].x_by_class == ((1, 2), (4,), ())
    assert result.stages[2].moved == 5
    assert result.x_by_class == ((1, 2), (4, 5), ())
    assert result.y_by_class == ((3,), (), (6,))


def random_band(rng):
    r = rng.choice([2, 3, 4])
    h_top = rng.randint(1, 3)
    h_bot = rng.randint(1, 3)
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
    rng = random.Random(20260819)
    for _ in range(200):
        classes, h_top, h_bot = random_band(rng)
        result = dominant_split(classes, h_top, h_bot)
        initial = result.stages[0]
        exchanged = result.stages[1]
        e_x, e_y = split_excess(initial.x_by_class, initial.y_by_class, h_top, h_bot)
        size = lambda side: sum(len(cls) for cls in side)
        assert size(exchanged.x_by_class) == size(initial.x_by_class) - e_x + e_y
        assert split_excess(exchanged.x_by_class, exchanged.y_by_class, h_top, h_bot) == (0, 0)
        previous = size(exchanged.x_by_class)
        for stage in result.stages[2:]:
            assert stage.label in ("push-down", "push-up")
            now = size(stage.x_by_class)
            assert abs(now - previous) == 1
            previous = now
            assert split_excess(stage.x_by_class, stage.y_by_class, h_top, h_bot) == (0, 0)
        assert check_split_conditions(result.x_by_class, result.y_by_class, h_top, h_bot) == ()
        assert result == dominant_split(classes, h_top, h_bot)


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


def test_dominant_split_input_validation():
    with pytest.raises(ValueError):
        dominant_split([(1, 2, 3, 4), (5, 6)], 2, 1)
    with pytest.raises(ValueError):
        dominant_split([(1, 2), (3, 4)], 2, 1)
    with pytest.raises(ValueError):
        dominant_split([(1, 2), (3, 4)], 2, 0)


# ---------------------------------------------------------------------------
# rainbow fillings


def test_rainbow_filling_frozen_example():
    p = Partition(3, [[2], [1, 3]])
    f = rainbow_filling(p, 1)
    assert f.grid == ((2, None), (None, 3))
    assert f.z_columns == (2, 1)


@pytest.mark.parametrize("d, r", [(1, 3), (2, 2), (2, 3)])
def test_rainbow_filling_matches_dominant_and_stays_in_blocks(super_instance, d, r):
    sup, profile = super_instance(d, r)
    n = sup.points.length
    windows = blocks(d, r)
    for partition in enumerate_rainbow(d, r):
        for ell in range(1, n + 1):
            f = rainbow_filling(partition, ell)
            assert f.is_column_increasing
            assert f == find_dominant_filling(partition, ell, profile)
            for s in range(d + 1):
                row_elements = [cell for cell in f.grid[s] if cell is not None]
                assert set(row_elements) <= set(windows[s])


def test_rainbow_filling_rejects_non_rainbow():
    with pytest.raises(InvalidFillingError):
        rainbow_filling(Partition(5, [[1, 2], [3, 4], [5]]), 1)


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
    for partition in enumerate_proper_partitions(5, 3, 2):
        for ell in (1, 4):
            report = dominance_report(sup.points, partition, ell, sup.q)
            assert report.ok
            assert report.monomial_count >= 1
            assert report.determinant == sum(
                (lambda mono: mono.sign * mono.value)(monomial_value(f, sup.points, report.row_coords))
                for f in enumerate_valid_fillings(partition, ell)
            )


def test_dominance_report_runner_up_is_second_largest(super_instance):
    sup, _ = super_instance(1, 2)
    partition = Partition(3, [[1], [2, 3]])
    report = dominance_report(sup.points, partition, 1, sup.q)
    values = sorted(
        (abs(monomial_value(f, sup.points, report.row_coords).value)
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
    report = dominance_report(points, partition, 1, default_threshold(2, 3))
    assert not report.ok
    assert any(v.startswith("max-not-dominant") for v in report.violations)
    assert report.notes
    payload = report.to_json()
    assert payload["ok"] is False
    assert payload["violations"] == list(report.violations)


def test_dominance_report_takes_the_callers_row_order(super_instance):
    sup, _ = super_instance(1, 3)
    _, coords = ordered_lift(sup.points, sup.q)
    partition = Partition(5, [[3], [1, 2], [4, 5]])
    for ell in (1, 3):
        given_order = dominance_report(sup.points, partition, ell, sup.q, coords)
        assert given_order == dominance_report(sup.points, partition, ell, sup.q)
        assert given_order.ok and not given_order.notes
    slow = gen_moment_curve(2, [1, 2, 3, 4, 5, 6, 7])
    partition = Partition(7, [[1, 4, 7], [2, 5], [3, 6]])
    report = dominance_report(slow, partition, 1, default_threshold(2, 3), [0, 1, 2])
    assert report.row_coords == (0, 1, 2) and not report.notes


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
    f = find_dominant_filling(Partition(5, [[3], [1, 2], [4, 5]]), 2, profile)
    payload = filling_to_json(f)
    assert payload["grid"][0][0] == "z0"
    assert filling_from_json(payload) == f


def test_filling_json_rejects_bad_markers():
    p = Partition(3, [[1, 3], [2]])
    payload = filling_to_json(canonical_filling(p, 1, [1, 2]))
    payload["grid"][0][0] = "z1"
    with pytest.raises(ValueError):
        filling_from_json(payload)
    with pytest.raises(ValueError):
        filling_from_json({"ell": 1})
    good = filling_to_json(canonical_filling(p, 1, [1, 2]))
    for ell in (1.7, True, "1"):
        with pytest.raises(ValueError):
            filling_from_json({**good, "ell": ell})
    with pytest.raises(ValueError):
        filling_from_json({**good, "grid": [["z0", 2.5], [3.5, "z1"]]})


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
