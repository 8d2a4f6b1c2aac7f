"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single "criterion N: PASS/FAIL" line on the real stdout
(the report fixture sidesteps pytest's capture) before asserting.
"""
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from tverberg.exact import det
from tverberg.fillings import (
    crossing_pairs,
    enumerate_valid_fillings,
    find_dominant_filling,
    monomial_value,
    sign_flip_witness,
    switch_ratio,
)
from tverberg.partitions import (
    DegeneratePointsError,
    Partition,
    build_system,
    decide_tverberg,
    enumerate_proper_partitions,
    enumerate_rainbow,
    enumerate_tverberg,
    is_rainbow,
    tverberg_number,
)
from tverberg.sequences import (
    PointSequence,
    default_threshold,
    dominance_profile,
    gen_moment_curve,
    gen_power_sequence,
    chain_exponents,
    growth_product,
    growth_ratio,
    is_dominant,
    is_ordered,
    product_config_admissible,
    solve_prescribed_zeros,
    verify_pinned_combination,
)


@pytest.fixture
def report(capsys):
    def _report(criterion: int, ok: bool, detail: str):
        line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def interlacing(n: int) -> Partition:
    return Partition(n, [list(range(1, n + 1, 2)), list(range(2, n + 1, 2))])


def test_criterion_01_moment_curve_radon_uniqueness(report):
    checked = 0
    for d in (1, 2, 3, 4):
        n = d + 2
        points = gen_moment_curve(d, list(range(1, n + 1)))
        found = enumerate_tverberg(points)
        assert found == [interlacing(n)], f"d={d}: {found}"
        checked += 1
    report(1, checked == 4, f"moment-curve Radon partition unique and interlacing for d=1..4")


def test_criterion_02_tverberg_equals_rainbow_on_super_instances(super_instance, report):
    cases = []
    for d, r in ((1, 2), (1, 3), (2, 2), (3, 2), (2, 3)):
        sup, _ = super_instance(d, r)
        assert sup.q == default_threshold(d, r)
        found = set(enumerate_tverberg(sup.points, cross_check=True))
        rainbow = set(enumerate_rainbow(d, r))
        assert found == rainbow, f"(d,r)=({d},{r}): {found ^ rainbow}"
        cases.append(f"({d},{r})={len(found)}")
    report(2, True, "tverberg set equals rainbow set at " + ", ".join(cases))


def test_criterion_03_rainbow_counts(report):
    one = enumerate_rainbow(1, 2)
    two = enumerate_rainbow(1, 3)
    ok = len(one) == 1 and len(two) == 2
    ok = ok and all(is_rainbow(p, 1) for p in one + two)
    report(3, ok, f"rainbow counts (1,2)->{len(one)}, (1,3)->{len(two)}, all pass is_rainbow")


# Criteria 4 and 5 run at the default threshold, one above the largest
# monomial count of det(M_ell), and at (r(d+1))! + 1, which bounds the terms
# of the whole r(d+1)-square determinant.
SMALL_RUNGS_AT_BOTH_THRESHOLDS = [
    (d, r, q) for d, r in ((1, 2), (1, 3), (2, 2)) for q in (None, factorial(r * (d + 1)) + 1)
]


def test_criterion_04_dominant_filling_matches_argmax(super_instance, report):
    checked = 0
    for d, r, q in SMALL_RUNGS_AT_BOTH_THRESHOLDS:
        sup, profile = super_instance(d, r, q)
        n = sup.points.length
        for partition in enumerate_proper_partitions(n, r, d + 1):
            for ell in range(1, n + 1):
                monomials = sorted(
                    (monomial_value(f, sup.points) for f in enumerate_valid_fillings(partition, ell)),
                    key=lambda m: abs(m.value),
                    reverse=True,
                )
                assert find_dominant_filling(partition, ell, profile) == monomials[0].filling
                if len(monomials) > 1:
                    assert abs(monomials[0].value) > sup.q * abs(monomials[1].value)
                checked += 1
    report(4, checked > 0, f"dominant filling equals brute-force argmax with a q gap ({checked} cases)")


def test_criterion_05_dominant_sign_matches_determinant(super_instance, report):
    checked = 0
    for d, r, q in SMALL_RUNGS_AT_BOTH_THRESHOLDS:
        sup, profile = super_instance(d, r, q)
        n = sup.points.length
        for partition in enumerate_proper_partitions(n, r, d + 1):
            system = build_system(sup.points, partition)
            for ell in range(1, n + 1):
                filling = find_dominant_filling(partition, ell, profile)
                mono = monomial_value(filling, sup.points)
                determinant = det(system.matrix.with_column(ell - 1, system.rhs))
                det_sign = (determinant > 0) - (determinant < 0)
                assert mono.sign * (1 if mono.value > 0 else -1) == det_sign
                checked += 1
    report(5, checked > 0, f"dominant monomial sign equals determinant sign ({checked} columns)")


def test_criterion_06_switch_domination_direction(super_instance, report):
    checked = 0
    for d, r in ((1, 3), (2, 2)):
        sup, profile = super_instance(d, r)
        n = sup.points.length
        for partition in enumerate_proper_partitions(n, r, d + 1):
            for ell in range(1, n + 1):
                for f in enumerate_valid_fillings(partition, ell, increasing_only=True):
                    zcols = f.z_columns
                    for s, t in itertools.combinations(range(d + 1), 2):
                        if zcols[s] == zcols[t]:
                            continue
                        tau = profile.max_of(range(s + 1, t + 1))
                        by_gap = {u: (i, j) for u, i, j in crossing_pairs(f, s, t)}
                        ratio = switch_ratio(f, sup.points, s, t)
                        i_tau, j_tau = by_gap[tau]
                        if i_tau < j_tau:
                            assert ratio > sup.q
                        else:
                            assert ratio < 1 / sup.q
                        checked += 1
    report(6, checked >= 100, f"switch domination direction follows the top crossing ({checked} switches)")


def crux_sequence():
    # six coordinate rows over seven positions; each multiplier gap exceeds
    # five times the previous one plus the q margin, so a single step of a
    # faster row outgrows any span of a slower one and the rows classify as
    # a strict chain at q = 3
    multipliers = [0, 2, 14, 76, 388, 1950]
    return gen_power_sequence(2, [[m * i for i in range(1, 8)] for m in multipliers])


def test_criterion_07_crux_product_bound(report):
    q = Fraction(3)
    seq = crux_sequence()
    assert is_dominant(seq, q)
    profile = dominance_profile(seq, q)
    cache = {}

    def f(s, i, j):
        if (s, i, j) not in cache:
            cache[(s, i, j)] = growth_ratio(seq, s, i, j)
        return cache[(s, i, j)]

    def check(assignments):
        tau = profile.max_of(assignments)
        if not product_config_admissible(assignments, tau):
            return 0
        product = growth_product(seq, assignments)
        i_tau, j_tau = assignments[tau]
        if i_tau < j_tau:
            assert product > q, assignments
        else:
            assert product < 1 / q, assignments
        return 1

    checked = 0
    for size in (1, 2, 3):
        for coords in itertools.combinations(range(1, 6), size):
            for i_tuple in itertools.combinations_with_replacement(range(1, 8), size):
                for j_tuple in itertools.combinations_with_replacement(range(1, 8), size):
                    checked += check(dict(zip(coords, zip(i_tuple, j_tuple))))

    rng = random.Random(7)
    larger = 0
    while larger < 1000:
        size = rng.choice((4, 5))
        coords = sorted(rng.sample(range(1, 6), size))
        i_tuple = sorted(rng.choices(range(1, 8), k=size))
        j_tuple = sorted(rng.choices(range(1, 8), k=size))
        larger += check(dict(zip(coords, zip(i_tuple, j_tuple))))
    report(7, checked > 0, f"crux product bound exact ({checked} exhaustive small, {larger} random large)")


def test_criterion_08_pinned_combination_bounds(report):
    rng = random.Random(8)
    runs = 0
    while runs < 50:
        dim = rng.choice((2, 3, 4))
        n = rng.randrange(10, 15)
        seq = gen_power_sequence(2, chain_exponents(dim, n, 2, 4))
        assert is_ordered(seq, 4)
        zeros = sorted(rng.sample(range(2, n), dim - 1))
        if any(b - a < 3 for a, b in zip(zeros, zeros[1:])):
            continue
        pin = rng.choice([p for p in range(1, n + 1) if p not in zeros])
        alphas = solve_prescribed_zeros(seq, zeros, (pin, 1))
        clean = verify_pinned_combination(seq, 4, alphas, zeros)
        assert clean.ok, clean.violations
        corrupted = list(alphas)
        spot = rng.randrange(dim)
        corrupted[spot] = corrupted[spot] * rng.choice((2, -1))
        dirty = verify_pinned_combination(seq, 4, corrupted, zeros)
        assert not dirty.ok
        runs += 1
    report(8, runs == 50, "pinned combinations verify clean, corrupted coefficients flagged (50 runs)")


def test_criterion_09_cramer_consistency(report):
    rng = random.Random(9)
    decided = 0
    tverberg_seen = 0
    while decided < 500:
        d = rng.choice((1, 2))
        r = rng.choice((2, 3))
        n = tverberg_number(r, d)
        points = PointSequence(
            [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(d)]
        )
        partition = rng.choice(enumerate_proper_partitions(n, r, d + 1))
        try:
            verdict = decide_tverberg(points, partition, cross_check=True)
        except DegeneratePointsError:
            continue
        decided += 1
        tverberg_seen += verdict.is_tverberg
    ok = decided == 500 and 0 < tverberg_seen < 500
    report(9, ok, f"direct solve agrees with determinant signs on 500 instances ({tverberg_seen} positive)")


def test_criterion_10_sign_flip_witness_everywhere(super_instance, report):
    checked = 0
    for d, r in ((1, 2), (1, 3), (2, 2)):
        sup, profile = super_instance(d, r)
        n = sup.points.length
        for partition in enumerate_proper_partitions(n, r, d + 1):
            if is_rainbow(partition, d):
                continue
            assert sign_flip_witness(partition, profile) is not None, partition
            assert not decide_tverberg(sup.points, partition).is_tverberg, partition
            checked += 1
    report(10, checked > 0, f"every non-rainbow proper partition has a witness and fails ({checked} partitions)")


def test_criterion_11_growth_ratio_identities(report):
    rng = random.Random(11)
    base = gen_power_sequence(3, chain_exponents(4, 9, 3, 5))
    sequences = [(crux_sequence(), Fraction(3)), (base, Fraction(5))]
    for seq, q in sequences:
        assert is_ordered(seq, q)
    checked = 0
    while checked < 1000:
        seq, q = sequences[rng.randrange(len(sequences))]
        n = seq.length
        t = rng.randrange(1, seq.dim)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        k = rng.randrange(1, n + 1)
        assert growth_ratio(seq, t, i, k) == growth_ratio(seq, t, i, j) * growth_ratio(seq, t, j, k)
        assert growth_ratio(seq, t, i, j) == growth_ratio(seq, t, i, i + 1) * growth_ratio(seq, t, i + 1, j)
        assert growth_ratio(seq, t, i, j) > q * growth_ratio(seq, t, i + 1, j)
        assert growth_ratio(seq, t, i, j) == growth_ratio(seq, t, i, j - 1) * growth_ratio(seq, t, j - 1, j)
        assert growth_ratio(seq, t, i, j) > q * growth_ratio(seq, t, i, j - 1)
        assert growth_ratio(seq, t, i, j) <= growth_ratio(seq, t, 1, n)
        checked += 1
    report(11, checked == 1000, "growth-ratio chain identities and q gaps exact on 1000 random triples")
