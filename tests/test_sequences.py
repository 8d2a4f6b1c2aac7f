"""Growth ratios, pair classification, dominance profiles, generators."""
import decimal
import itertools
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from math import ceil, prod

import pytest
from hypothesis import given, settings, strategies as st

from oracle_utils import ceil_log_by_loop, classify_pair_by_triples, order_by_outgrowth
from tverberg import sequences
from tverberg.exact import scalar
from tverberg.fillings import _transversals
from tverberg.partitions import decide_tverberg, enumerate_proper_partitions, tverberg_number
from tverberg.sequences import (
    NotDominantError,
    PointSequence,
    Relation,
    chain_exponents,
    combination_row,
    default_threshold,
    dominance_profile,
    gen_moment_curve,
    gen_power_sequence,
    gen_super_dominant,
    growth_ratio,
    is_dominant,
    is_ordered,
    lift,
    ordered_lift,
    product_config_admissible,
    sequence_from_json,
    sequence_to_json,
    solve_prescribed_zeros,
    uniform_exponents,
    verify_pinned_combination,
)

positive_fraction = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(40), max_denominator=10
)


def positive_sequences(min_rows=2, max_rows=4, min_len=3, max_len=6):
    def build(shape):
        rows, length = shape
        return st.lists(
            st.lists(positive_fraction, min_size=length, max_size=length),
            min_size=rows,
            max_size=rows,
        ).map(PointSequence)

    shapes = st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_len, max_len)
    )
    return shapes.flatmap(build)


def right_similar_sequence(length, gamma=2):
    """Three rows whose two growth gaps are right-similar at q = 3."""
    table = [[(t - 1) * gamma * 2**i for i in range(1, length + 1)] for t in (1, 2, 3)]
    return gen_power_sequence(2, table)


def left_similar_sequence(length, gamma=2):
    table = [
        [-(t - 1) * gamma * 2 ** (length - i) for i in range(1, length + 1)]
        for t in (1, 2, 3)
    ]
    return gen_power_sequence(2, table)


# ---------------------------------------------------------------------------
# containers and generators


def test_point_sequence_accessors():
    a = PointSequence([[1, 2, 3], ["1/2", 4, 8]])
    assert a.dim == 2
    assert a.length == 3
    assert a.entry(2, 1) == Fraction(1, 2)
    assert a.point(3) == (Fraction(3), Fraction(8))
    assert a.row(1) == (1, 2, 3)
    with pytest.raises(IndexError):
        a.entry(0, 1)
    with pytest.raises(IndexError):
        a.point(4)


def test_point_sequence_rejects_ragged_input():
    with pytest.raises(ValueError):
        PointSequence([[1, 2], [3]])


def test_subsequence_and_strided():
    a = PointSequence([[10, 20, 30, 40, 50, 60]])
    assert a.subsequence([2, 5]).row(1) == (20, 50)
    assert a.strided(2).row(1) == (20, 40, 60)
    assert a.strided(3).row(1) == (30, 60)


def test_sequence_json_round_trip():
    a = PointSequence([[1, 2], ["1/3", "7/5"]])
    payload = sequence_to_json(a)
    assert payload["d"] == 2 and payload["n"] == 2
    assert sequence_from_json(payload) == a
    with pytest.raises(ValueError):
        sequence_from_json({"d": 2, "n": 1, "points": [["1"]]})


def test_moment_curve_frozen():
    a = gen_moment_curve(3, [1, 2, 3])
    assert a.rows == ((1, 2, 3), (1, 4, 9), (1, 8, 27))
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        gen_moment_curve(0, [1, 2])
    with pytest.raises(ValueError, match="at least one parameter is required"):
        gen_moment_curve(2, [])


def test_power_sequence_requires_growing_gaps():
    gen_power_sequence(2, [[1, 2, 3], [2, 4, 6]])  # gaps 1, 2, 3
    with pytest.raises(ValueError):
        gen_power_sequence(2, [[1, 2, 3], [3, 4, 5]])  # gaps constant
    with pytest.raises(ValueError):
        gen_power_sequence(1, [[1, 2, 3]])
    for table in ([[1, 2, 3], [2, 4]], []):
        with pytest.raises(ValueError, match="exponent table must be rectangular and nonempty"):
            gen_power_sequence(2, table)
    for rows, length in ((0, 5), (3, 0)):
        with pytest.raises(ValueError, match="rows and length must be positive"):
            chain_exponents(rows, length, 2, 3)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "2"])
def test_power_sequence_rejects_non_integer_exponents(bad):
    with pytest.raises(ValueError, match="exponents must be plain integers"):
        gen_power_sequence(2, [[1, bad, 3], [2, 4, 6]])


def test_lift_prepends_ones():
    a = gen_moment_curve(2, [2, 3])
    lifted = lift(a)
    assert lifted.dim == 3
    assert lifted.row(1) == (1, 1)
    assert lifted.rows[1:] == a.rows


# ---------------------------------------------------------------------------
# growth ratios


@given(positive_sequences(), st.data())
def test_growth_ratio_identities(a, data):
    t = data.draw(st.integers(1, a.dim - 1))
    i = data.draw(st.integers(1, a.length))
    j = data.draw(st.integers(1, a.length))
    k = data.draw(st.integers(1, a.length))
    assert growth_ratio(a, t, i, i) == 1
    assert growth_ratio(a, t, i, j) * growth_ratio(a, t, j, i) == 1
    assert growth_ratio(a, t, i, j) * growth_ratio(a, t, j, k) == growth_ratio(a, t, i, k)


def test_growth_ratio_frozen():
    a = PointSequence([[1, 1, 1], [2, 8, 64]])
    assert growth_ratio(a, 1, 1, 2) == 4
    assert growth_ratio(a, 1, 2, 3) == 8
    assert growth_ratio(a, 1, 1, 3) == 32
    with pytest.raises(IndexError):
        growth_ratio(a, 2, 1, 2)


# The order permutation of a lift is ordered_lift's row_coords; the rows
# are sorted by growth, and dominance_profile checks the order.
def test_is_ordered_and_pseudo_geometric():
    a = gen_power_sequence(2, chain_exponents(3, 5, 2, 3))
    assert is_ordered(a, 3)
    assert ordered_lift(a._pick([1, 2], range(a.length)), 3)[1] == (0, 1, 2)
    shuffled = PointSequence([a.rows[2], a.rows[0], a.rows[1]])
    assert not is_ordered(shuffled, 3)
    assert ordered_lift(a._pick([2, 1], range(a.length)), 3)[1] == (0, 2, 1)


def test_order_permutation_identity_on_ordered_input():
    a = gen_power_sequence(2, chain_exponents(4, 5, 2, 3))
    assert ordered_lift(a._pick([1, 2, 3], range(a.length)), 3)[1] == (0, 1, 2, 3)


def test_order_permutation_recovers_shuffle():
    a = gen_power_sequence(2, chain_exponents(4, 5, 2, 3))
    shuffle = (3, 1, 4, 2)  # point row p came from chain row shuffle[p]
    _, coords = ordered_lift(PointSequence([a.rows[s - 1] for s in shuffle]), 3)
    # the lift's ones row ties with chain row 1, also all ones, and keeps its place
    origin = (1,) + shuffle
    assert coords == (0, 2, 4, 1, 3)
    assert tuple(origin[c] for c in coords) == (1, 1, 2, 3, 4)


def test_order_permutation_on_decaying_coordinates():
    # one point coordinate shrinking geometrically: the ones row of the lift
    # grows faster, so it sorts last
    points = PointSequence([[Fraction(1, 2**(3 * i)) for i in range(1, 5)]])
    assert ordered_lift(points, 3)[1] == (1, 0)


def test_order_permutation_ties_on_length_one_rows():
    # one position: every row grows by a factor 1, so all rows tie
    assert ordered_lift(PointSequence([[5], [1], [3]]), 2)[1] == (0, 1, 2, 3)


def test_order_permutation_rejects_non_pseudo_geometric():
    # the point row rises and falls against the ones row: no order of the
    # two lifted rows is ordered, and the one check of the order says so
    points = PointSequence([[1, 2, 1]])
    assert ordered_lift(points, 2)[1] == (0, 1)
    with pytest.raises(NotDominantError, match="not ordered"):
        sequences._certified_profile(points, 2)


# ---------------------------------------------------------------------------
# pair classification


def relation(a, q, t, s):
    """How ratio row t relates to ratio row s at threshold q."""
    return sequences._RatioTable(a, scalar(q)).relation(t, s)


def test_chain_pairs_precede():
    a = gen_power_sequence(2, chain_exponents(4, 6, 2, 3))
    for t in (1, 2):
        for s in range(t + 1, 4):
            assert relation(a, 3, t, s) is Relation.PRECEDES
            assert relation(a, 3, s, t) is Relation.SUCCEEDED_BY


def test_uniform_schedule_is_inconsistent():
    # growth is position-only, so the comparison fraction is exactly 1 at
    # symmetric triples and no verdict clears the threshold
    a = gen_power_sequence(4, uniform_exponents(3, 5))
    assert is_ordered(a, 3)
    assert relation(a, 3, 1, 2) is Relation.INCONSISTENT
    assert not is_dominant(a, 3)


def test_two_positions_classify_no_pair():
    # ordered, but two gaps need a triple i < j < k to classify their pair
    a = PointSequence([[1, 1], [1, 8], [1, 64]])
    assert is_ordered(a, 3)
    assert not is_dominant(a, 3)
    with pytest.raises(NotDominantError, match="three positions"):
        dominance_profile(a, 3)
    # one gap has no pair to classify
    assert dominance_profile(PointSequence([[1, 1], [1, 8]]), 3).order == (1,)


def test_right_similar_schedule():
    a = right_similar_sequence(5)
    assert relation(a, 3, 1, 2) is Relation.RIGHT_SIMILAR
    assert relation(a, 3, 2, 1) is Relation.RIGHT_SIMILAR


def test_left_similar_schedule():
    a = left_similar_sequence(5)
    assert relation(a, 3, 1, 2) is Relation.LEFT_SIMILAR
    assert relation(a, 3, 2, 1) is Relation.LEFT_SIMILAR


def test_right_similar_frozen_triple():
    a = right_similar_sequence(3)
    assert growth_ratio(a, 1, 1, 2) == 2**4
    assert growth_ratio(a, 2, 2, 3) == 2**8
    assert relation(a, 3, 1, 2) is Relation.RIGHT_SIMILAR


ORACLE_QS = [Fraction(x) for x in ("-2", "-1/2", "0", "1/4", "1/2", "1", "3/2", "2", "3", "4", "9")]


def random_gap_table(rng):
    """An exponent table whose consecutive-row gaps are drawn from growth
    shapes that classify every way (fast, reversed, linear, sorted, free)."""
    dim, length = rng.randint(3, 5), rng.randint(3, 7)

    def gap_row():
        c = rng.randint(1, 3)
        return rng.choice([
            [c * 2**i for i in range(length)],
            [-c * 2 ** (length - i) for i in range(length)],
            [c * i for i in range(length)],
            sorted(rng.randint(-4, 12) for _ in range(length)),
            [rng.randint(-4, 12) for _ in range(length)],
        ])

    table = [[rng.randint(-2, 2) for _ in range(length)]]
    for _ in range(dim - 1):
        table.append([e + g for e, g in zip(table[-1], gap_row())])
    return table


def test_classify_pair_matches_the_triple_scan():
    rng = random.Random(13)
    seen = {"fraction": set(), "exponent": set()}
    for _ in range(150):
        base = rng.choice([Fraction(2), Fraction(3), Fraction(3, 2)])
        q = rng.choice(ORACLE_QS)
        table = random_gap_table(rng)
        rows = [[base**e for e in row] for row in table]
        tabled = sequences._tabled(base, tuple(map(tuple, table)))
        if rng.random() < 0.5:  # off the power lattice
            rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] *= Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for a, route in ((PointSequence(rows), "fraction"), (tabled, "exponent" if q > 0 else "fraction")):
            for t, s in itertools.permutations(range(1, a.dim), 2):
                expected = classify_pair_by_triples(a, q, t, s)
                assert relation(a, q, t, s) is expected, (route, base, q, table, t, s)
                seen[route].add(expected)
    assert seen["fraction"] == seen["exponent"] == set(Relation)


def test_classify_pair_cost_is_linear_in_length(monkeypatch):
    built = gen_super_dominant(3, 2)
    witness = built.witness
    assert witness.length == 20
    scale = sequences._growth_scale
    calls = 0

    def counted_scale(a, q):
        *rest, beats = scale(a, q)

        def counted(x, y):
            nonlocal calls
            calls += 1
            return beats(x, y)

        return (*rest, counted)

    monkeypatch.setattr(sequences, "_growth_scale", counted_scale)
    for t, s in itertools.permutations(range(1, witness.dim), 2):
        calls = 0
        expected = Relation.PRECEDES if t < s else Relation.SUCCEEDED_BY
        assert relation(witness, built.q, t, s) is expected
        assert 0 < calls <= 8 * (witness.length - 2)


# ---------------------------------------------------------------------------
# dominance profiles


def test_chain_profile_orders_gaps_ascending():
    a = gen_power_sequence(2, chain_exponents(4, 6, 2, 3))
    profile = dominance_profile(a, 3)
    assert profile.gaps == 3
    assert profile.order == (1, 2, 3)
    assert profile.classes == ((1,), (2,), (3,))
    assert profile.max_of([1, 3]) == 3
    with pytest.raises(ValueError, match="max_of needs at least one coordinate"):
        profile.max_of([])
    assert profile.relations[(1, 2)] is Relation.PRECEDES
    assert profile.relations[(2, 1)] is Relation.SUCCEEDED_BY


def test_right_similar_profile_is_one_ascending_class():
    profile = dominance_profile(right_similar_sequence(5), 3)
    assert profile.classes == ((1, 2),)
    assert profile.kinds == (Relation.RIGHT_SIMILAR,)
    assert profile.order == (1, 2)
    assert profile.max_of([1, 2]) == 2


def test_left_similar_profile_is_one_descending_class():
    profile = dominance_profile(left_similar_sequence(5), 3)
    assert profile.classes == ((1, 2),)
    assert profile.kinds == (Relation.LEFT_SIMILAR,)
    assert profile.order == (2, 1)
    assert profile.max_of([1, 2]) == 1


def test_profile_rejects_unordered_and_inconsistent():
    with pytest.raises(NotDominantError):
        dominance_profile(PointSequence([[1, 1, 1], [4, 8, 64]]), 3)
    with pytest.raises(NotDominantError):
        dominance_profile(gen_power_sequence(4, uniform_exponents(3, 5)), 3)


P, S, L, R = (
    Relation.PRECEDES,
    Relation.SUCCEEDED_BY,
    Relation.LEFT_SIMILAR,
    Relation.RIGHT_SIMILAR,
)


def profile_from_relations(monkeypatch, table, gaps=None):
    """dominance_profile of an ordered chain whose pairs t < s classify as table[(t, s)]."""
    gaps = gaps or max(s for _, s in table)
    monkeypatch.setattr(sequences._RatioTable, "relation", lambda self, t, s: table[(t, s)])
    return dominance_profile(gen_power_sequence(2, chain_exponents(gaps + 1, 4, 2, 3)), 3)


@pytest.mark.parametrize(
    "table, reason",
    [
        ({(1, 2): R, (1, 3): P, (2, 3): R}, r"\(2, 3\) break the dominance order"),
        ({(1, 2): L, (1, 3): R, (2, 3): L}, "mixes kinds"),
        ({(1, 2): R, (1, 3): P, (2, 3): S}, r"\(1, 2\) break the dominance order"),
        ({(1, 2): P, (1, 3): S, (2, 3): P}, r"\(1, 2\) break the dominance order"),
    ],
    # each id names the condition its table breaks
    ids=[
        "table0-not transitive",
        "table1-mixes kinds",
        "table2-do not compare consistently",
        "table3-not a total order",
    ],
)
def test_profile_rejects_structural_failures(monkeypatch, table, reason):
    # each table breaks exactly one condition of a dominance profile
    with pytest.raises(NotDominantError, match=reason):
        profile_from_relations(monkeypatch, table)


def test_profile_accepts_exactly_the_ordered_class_tables(monkeypatch):
    # A table is a dominance order exactly when an ordered set partition of
    # the gaps, with a kind per class of two or more, generates it.
    accepted = 0
    for gaps in range(1, 5):
        pairs = list(itertools.combinations(range(1, gaps + 1), 2))
        expected = {}
        for labels in itertools.product(range(gaps), repeat=gaps):
            if set(labels) != set(range(max(labels) + 1)):
                continue
            classes = tuple(
                tuple(t for t in range(1, gaps + 1) if labels[t - 1] == c) for c in range(max(labels) + 1)
            )
            for kinds in itertools.product(*([L, R] if len(c) > 1 else [None] for c in classes)):
                kind_of = {t: kind for c, kind in zip(classes, kinds) for t in c}
                table = tuple(
                    kind_of[t] if labels[t - 1] == labels[s - 1] else P if labels[t - 1] < labels[s - 1] else S
                    for t, s in pairs
                )
                order = sum((tuple(sorted(c, reverse=k is L)) for c, k in zip(classes, kinds)), ())
                expected[table] = (classes, kinds, order)
        for table in itertools.product([P, S, L, R], repeat=len(pairs)):
            if table in expected:
                profile = profile_from_relations(monkeypatch, dict(zip(pairs, table)), gaps)
                assert (profile.classes, profile.kinds, profile.order) == expected[table]
                accepted += 1
            else:
                with pytest.raises(NotDominantError):
                    profile_from_relations(monkeypatch, dict(zip(pairs, table)), gaps)
    assert accepted == 163


def test_profile_orders_left_and_right_similar_classes(monkeypatch):
    # right-similar {2, 4} precedes left-similar {1, 3}
    table = {(1, 2): S, (1, 3): L, (1, 4): S, (2, 3): P, (2, 4): R, (3, 4): S}
    profile = profile_from_relations(monkeypatch, table)
    assert profile.classes == ((2, 4), (1, 3))
    assert profile.kinds == (R, L)
    assert profile.order == (2, 4, 3, 1)
    assert profile.relations[(4, 1)] is P
    assert profile.max_of([1, 2, 3, 4]) == 1


def test_single_gap_profile():
    a = gen_power_sequence(2, chain_exponents(2, 4, 2, 3))
    profile = dominance_profile(a, 3)
    assert profile.order == (1,)
    assert profile.max_of([1]) == 1


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_subsequences_of_dominant_sequences_stay_dominant(data):
    witness = gen_power_sequence(2, chain_exponents(3, 8, 2, 3))
    size = data.draw(st.integers(3, 6))
    positions = sorted(
        data.draw(
            st.sets(st.integers(1, 8), min_size=size, max_size=size)
        )
    )
    sub = witness.subsequence(positions)
    assert is_dominant(sub, 3)
    assert dominance_profile(sub, 3).order == (1, 2)


# ---------------------------------------------------------------------------
# super-dominant construction


def test_gen_super_dominant_small():
    built = gen_super_dominant(1, 2)
    assert built.q == default_threshold(1, 2) == 3
    assert built.points.dim == 1 and built.points.length == 3
    assert built.lifted.row(1) == (1, 1, 1)
    assert built.lifted == built.witness.strided(2)
    assert is_dominant(built.witness, built.q)


@pytest.mark.parametrize("d, r", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (1, 4)])
def test_default_threshold_is_one_above_the_largest_monomial_count(d, r):
    # The dominant monomial fixes the sign of det(M_ell) once it beats the
    # runner-up by q >= N - 1, N being the number of monomials.
    n = tverberg_number(r, d)
    largest = max(
        sum(prod(map(len, ways)) for ways in _transversals(partition, ell))
        for partition in enumerate_proper_partitions(n, r, d + 1)
        for ell in range(1, n + 1)
    )
    assert default_threshold(d, r) == largest + 1


def test_default_threshold_values():
    expected = {(1, 2): 3, (2, 3): 49, (3, 2): 25, (2, 4): 289, (3, 3): 865, (4, 2): 121, (4, 3): 25921}
    assert {key: default_threshold(*key) for key in expected} == expected
    assert all(type(default_threshold(*key)) is Fraction for key in expected)


def test_default_threshold_enumerates_no_partition():
    # (1, 1000) has 500,500 proper partitions of 1001 elements; the count is
    # a DP over marker totals, times h! for each class left without a marker.
    start = time.perf_counter()
    assert default_threshold(1, 1000) == 2**999 + 1
    assert time.perf_counter() - start < 0.1


def test_gen_super_dominant_plane():
    built = gen_super_dominant(2, 2)
    assert built.points.dim == 2 and built.points.length == 4
    assert built.witness.length == 12
    assert built.lifted == built.witness.strided(3)
    assert is_dominant(built.witness, built.q)


# ---------------------------------------------------------------------------
# pinned combinations


def pinned_instance(length=12, q=4):
    a = gen_power_sequence(2, chain_exponents(3, length, 2, q))
    zeros = [3, 8]
    alphas = solve_prescribed_zeros(a, zeros, (1, 1))
    return a, zeros, alphas, q


def test_solve_prescribed_zeros_hits_targets():
    a, zeros, alphas, _ = pinned_instance()
    b = combination_row(a, alphas)
    assert all(b[j - 1] == 0 for j in zeros)
    assert b[0] == 1
    with pytest.raises(ValueError):
        solve_prescribed_zeros(a, [3], (1, 1))
    with pytest.raises(ValueError):
        solve_prescribed_zeros(a, zeros, (3, 1))
    with pytest.raises(ValueError, match="zero positions must be distinct"):
        solve_prescribed_zeros(a, [3, 3], (1, 1))
    with pytest.raises(IndexError, match="position 13 out of range 1..12"):
        solve_prescribed_zeros(a, [3, 13], (1, 1))
    with pytest.raises(ValueError, match="one coefficient per coordinate row is required"):
        combination_row(a, alphas[:2])


def test_pinned_combination_passes_checks():
    a, zeros, alphas, q = pinned_instance()
    report = verify_pinned_combination(a, q, alphas, zeros)
    assert report.ok
    assert report.combination == combination_row(a, alphas)


def test_pinned_combination_flags_corruption():
    a, zeros, alphas, q = pinned_instance()
    corrupt = list(alphas)
    corrupt[1] *= 2
    report = verify_pinned_combination(a, q, corrupt, zeros)
    assert not report.ok
    joined = " ".join(report.violations)
    assert "missing-zero" in joined
    corrupt[1] = 0
    assert "coefficient-zero: some alpha vanishes" in verify_pinned_combination(a, q, corrupt, zeros).violations
    # a combination vanishing at 3 and 9, checked against zeros 3 and 11
    off = verify_pinned_combination(a, q, solve_prescribed_zeros(a, [3, 9], (1, 1)), [3, 11]).violations
    assert "unexpected-zero: position 9" in off
    assert "sign-change: inside positions 4..10" in off


def test_product_config_needs_an_assigned_tau():
    assert product_config_admissible({1: (1, 3), 2: (2, 5)}, 2)
    with pytest.raises(ValueError, match="tau must be one of the assigned coordinates"):
        product_config_admissible({1: (1, 5)}, 2)


def test_pinned_combination_input_validation():
    a, zeros, alphas, _ = pinned_instance()
    with pytest.raises(ValueError):
        verify_pinned_combination(a, 3, alphas, zeros)  # needs q > 3
    with pytest.raises(ValueError):
        verify_pinned_combination(a, 4, alphas, [3, 5])  # zeros too close
    for bad in ([3], [3, 8, 12], [8, 8]):
        with pytest.raises(ValueError, match="zero positions must be distinct and one fewer than dim"):
            verify_pinned_combination(a, 4, alphas, bad)
    with pytest.raises(ValueError, match="sequence entries must be positive"):
        verify_pinned_combination(gen_moment_curve(3, range(-5, 7)), 4, alphas, zeros)
    with pytest.raises(ValueError, match="one coefficient per coordinate row is required"):
        verify_pinned_combination(a, 4, alphas[:2], zeros)


def test_pinned_combination_refuses_zeros_outside_the_sequence():
    a = gen_power_sequence(2, chain_exponents(2, 12, 2, 4))
    alphas = solve_prescribed_zeros(a, [5], (1, 1))
    assert verify_pinned_combination(a, 4, alphas, [5]).ok
    for j in (40, 0, -3):
        with pytest.raises(IndexError, match=f"position {j} out of range 1..12"):
            verify_pinned_combination(a, 4, alphas, [j])


def test_pinned_combination_alternating_signs():
    a, zeros, alphas, q = pinned_instance()
    signs = [(x > 0) - (x < 0) for x in alphas]
    assert all(u * v == -1 for u, v in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# exponent tables: power sequences compare growth on integer exponents


def assert_table_matches(a):
    base, table = a._exponents
    assert a.rows == tuple(tuple(base**e for e in row) for row in table)


def test_selections_keep_the_exponent_table():
    base = Fraction(3, 2)
    a = gen_power_sequence(base, chain_exponents(4, 8, base, 3))
    shuffled = a._pick([3, 1, 2], range(a.length))  # no ones row, rows out of order
    ordered, coords = ordered_lift(shuffled, 3)
    assert coords == (0, 2, 3, 1)
    assert ordered.rows == tuple(lift(shuffled).rows[c] for c in coords)
    for selection in (a, shuffled, a.subsequence([2, 5, 7]), a.strided(2), lift(a), ordered):
        assert_table_matches(selection)
    assert ordered_lift(PointSequence(shuffled.rows), 3)[0]._exponents is None
    built = gen_super_dominant(2, 2)
    for seq in (built.points, built.lifted, built.witness):
        assert_table_matches(seq)


def test_exponent_table_is_not_part_of_the_value():
    a = gen_power_sequence(2, chain_exponents(3, 6, 2, 3))
    plain = PointSequence(a.rows)
    assert plain._exponents is None and a._exponents is not None
    assert a == plain and hash(a) == hash(plain) and repr(a) == repr(plain)
    # the file form follows the table: compact with one, decimal without
    payload = sequence_to_json(a)
    assert set(payload) == {"d", "n", "base", "exponents"}
    assert set(sequence_to_json(plain)) == {"d", "n", "points"}
    assert sequence_from_json(payload)._exponents == a._exponents
    loaded = sequence_from_json(sequence_to_json(plain))
    assert loaded == a and loaded._exponents is None
    tabled, untabled = dominance_profile(a, 3), dominance_profile(loaded, 3)
    assert (tabled.classes, tabled.kinds, tabled.order, tabled.relations) == (
        untabled.classes, untabled.kinds, untabled.order, untabled.relations
    )


def test_tabled_sequences_compare_without_building_entries():
    # (5,2) entries pass the entry-bit budget, so reading rows would raise.
    a, b = gen_super_dominant(5, 2).points, gen_super_dominant(5, 2).points
    assert a == a and a == b
    assert a._rows is None and b._rows is None
    base, table = a._exponents
    bumped = (table[0][:-1] + (table[0][-1] + 1,),) + table[1:]
    assert a != sequences._tabled(base, bumped)
    assert a._rows is None


def test_repr_shows_the_table_when_entries_pass_the_budget():
    built = gen_super_dominant(5, 2)  # its entries have about 1.6 * 10**9 bits
    base, table = built.points._exponents
    assert repr(built.points) == f"PointSequence(base={base!r}, exponents={table!r})"
    assert repr(built.points) in repr(built)
    assert built.points._rows is None
    buildable = gen_power_sequence(2, chain_exponents(3, 6, 2, 3))
    assert repr(buildable) == f"PointSequence(rows={buildable.rows!r})" == repr(PointSequence(buildable.rows))


def test_sequences_built_from_rows_carry_no_table():
    assert PointSequence([[1, 2, 4], [1, 8, 64]])._exponents is None
    assert gen_moment_curve(2, [1, 2, 3])._exponents is None
    assert lift(PointSequence([[2, 4, 8]]))._exponents is None


# ---------------------------------------------------------------------------
# lazy entries: a tabled sequence builds base**e only when its entries are read


def test_lazy_entries_equal_eager_ones():
    built = gen_super_dominant(3, 2)
    lazy = built.points
    base, table = lazy._exponents
    eager = PointSequence([[base**e for e in row] for row in table])
    assert lazy._rows is None
    assert certified_outcome(lazy, built.q) == certified_outcome(eager, built.q) != NotDominantError
    assert lazy._rows is None  # certifying reads the exponents only
    for p in enumerate_proper_partitions(lazy.length, 2, lazy.dim + 1):
        assert decide_tverberg(lazy, p) == decide_tverberg(eager, p)
    assert lazy.rows is lazy.rows  # built once
    for a in (lazy, eager, sequences._tabled(base, table)):
        copied = pickle.loads(pickle.dumps(a))
        assert copied == a and copied._exponents == a._exponents
    assert lazy.rows == eager.rows and lazy == eager and hash(lazy) == hash(eager)
    assert all(lazy.point(i) == eager.point(i) for i in range(1, lazy.length + 1))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # (3,2) entries pass 4300 decimal digits
    try:
        assert sequence_to_json(PointSequence(lazy.rows)) == sequence_to_json(eager)
        assert repr(lazy) == repr(eager)
    finally:
        sys.set_int_max_str_digits(limit)
    # each reader builds the entries of a sequence not read before
    for read in (lambda a: a.point(2), lambda a: a.entry(3, 5), hash):
        fresh = sequences._tabled(base, table)
        read(fresh)
        assert fresh._rows == eager.rows


def test_construction_builds_no_entries():
    # Eager (4,2) entries, of up to 7.1 M bits, take about 23 MiB.
    tracemalloc.start()
    try:
        built = gen_super_dominant(4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert all(seq._rows is None for seq in (built.points, built.lifted, built.witness))
    assert built.points.is_positive and built.points._rows is None


def test_selections_of_a_lazy_sequence_stay_lazy():
    a = gen_power_sequence(3, chain_exponents(4, 8, 3, 3))
    for selection in (a._pick([2, 0], [1, 4]), a.subsequence([2, 5]), a.strided(3), lift(a)):
        assert selection._rows is None
        assert_table_matches(selection)
    assert a._rows is None
    with pytest.raises(ValueError, match="at least one row and one position"):
        a.subsequence([])


def test_oversized_entries_are_refused_before_any_power():
    a = gen_power_sequence(2, [[0, 1 << 40]])
    assert a.length == 2 and is_ordered(a, 1)  # the table alone still answers
    with pytest.raises(ValueError, match=f"largest entry would have up to {(1 << 40) + 1} bits"):
        a.rows
    with pytest.raises(ValueError, match="budget"):
        a.point(1)
    assert sequence_from_json(sequence_to_json(a))._exponents == a._exponents


# Every rung the ROADMAP ladder, the CLI golden file and the tests construct.
LADDER = [(1, 2), (1, 3), (1, 4), (1, 6), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3),
          (3, 4), (4, 2), (4, 3), (5, 2), (6, 2)]


def test_witness_budget_admits_the_ladder_and_refuses_past_it():
    for d, r in LADDER:
        built = gen_super_dominant(d, r)
        assert built.witness.dim == d + 1 and built.points.length == tverberg_number(r, d)
    assert gen_super_dominant(1, 2048).points.length == 4095  # 16,380 cells
    for d, r, cells in ((25, 2, 18_252), (1, 2049, 16_388), (999, 2, 1_001_000_000)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"a \\({d},{r}\\) instance needs a witness table of {cells}"
                                             " exponents, over the budget of 16384"):
            gen_super_dominant(d, r)
        assert time.perf_counter() - start < 0.1  # before default_threshold, 51 s at (999,2)


def test_gen_super_dominant_three_three_certifies():
    built = gen_super_dominant(3, 3)
    assert built.points.length == 9 and built.witness.length == 36
    chain = ((1,), (2,), (3,))
    assert dominance_profile(built.witness, built.q).classes == chain
    ordered, coords = ordered_lift(built.points, built.q)
    assert coords == (0, 1, 2, 3)
    profile = dominance_profile(ordered, built.q)
    assert profile.classes == chain and profile.order == (1, 2, 3)


@pytest.mark.parametrize("base", [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5)])
def test_beat_exponent_is_least_power_above_q(base):
    for q in [Fraction(1, 9), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
              Fraction(2), Fraction(9, 4), Fraction(3), Fraction(4), Fraction(5), Fraction(25),
              Fraction(40321)]:
        c = sequences._beat_exponent(base, q)
        assert base**c > q >= base ** (c - 1)


def test_ceil_log_matches_the_multiplying_loop():
    rng = random.Random(20)
    bases = [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 4), Fraction(101, 100)]
    bases += [Fraction(a, b) for a, b in ((rng.randint(2, 60), rng.randint(1, 40)) for _ in range(20)) if a > b]
    checked = 0
    for base in bases:
        values = [base**k for k in range(8)] + [Fraction(3, 2) ** k for k in range(12)]
        values += [base**k * (1 + Fraction(s, 10**40)) for k in (1, 5) for s in (-1, 1)]  # past 64 bits
        values += [Fraction(rng.randint(1, 10**5), rng.randint(1, 10**5)) for _ in range(10)]
        values += [Fraction(1, 7), Fraction(0), Fraction(-3)]
        for value in values:
            c = sequences._ceil_log(base, value)
            assert c == ceil_log_by_loop(base, value), (base, value)
            if value > 0:
                c = sequences._beat_exponent(base, value)
                assert base**c > value >= base ** (c - 1), (base, value)
            checked += 1
    assert checked > 500


def test_ceil_log_of_a_base_just_above_one_takes_few_steps():
    # The loop still runs at base 1001/1000; at 1000001/1000000 it would
    # multiply 6,580,643 times, into numbers of 131 M bits.
    assert sequences._ceil_log(Fraction(1001, 1000), Fraction(721)) == ceil_log_by_loop(Fraction(1001, 1000), 721)
    assert sequences._beat_exponent(Fraction(1001, 1000), Fraction(1, 2)) == 1 - ceil_log_by_loop(Fraction(1001, 1000), 2)
    base = Fraction(1000001, 1000000)
    assert sequences._ceil_log(base, Fraction(721)) == 6580643  # ceil(ln 721 / ln base)
    assert sequences._beat_exponent(base, Fraction(1, 2)) == -693147  # 1 - ceil(ln 2 / ln base)


def test_ceil_log_cost_does_not_grow_with_the_value():
    # 10**1000000 is the largest q the decimal budget admits; the search's
    # numbers keep about 600 bits at this 256-bit base
    base, q = 1 + Fraction(1, 10**77), Fraction(10) ** 1_000_000
    c = 230258509299404568401799145468436420760110148862877297603332790096757260967736399317
    start = time.perf_counter()
    assert sequences._ceil_log(base, q) == sequences._ceil_log(base, q + 1) == c
    assert time.perf_counter() - start < 0.5


def test_ceil_log_precision_budget_admits_and_refuses():
    # 1 + 10**-1001 starts at 6,716 bits, within the budget; checked against decimal's ln
    with decimal.localcontext(prec=1100) as context:
        ratio = context.ln(decimal.Decimal(3)) / context.ln(1 + decimal.Decimal(10) ** -1001)
    assert sequences._ceil_log(1 + Fraction(1, 10**1001), Fraction(3)) == ceil(ratio)
    # 1 + 10**-2001 would start at 13,360 bits, 3.4 s a pass
    start = time.perf_counter()
    with pytest.raises(ValueError, match="needs 13360 bits of precision, over the 8192-bit budget for logarithms"):
        sequences._ceil_log(1 + Fraction(1, 10**2001), Fraction(3))
    assert time.perf_counter() - start < 0.1


def test_certifying_computes_the_threshold_exponent_once(monkeypatch):
    built = gen_super_dominant(2, 3)
    calls = []
    beat = sequences._beat_exponent
    monkeypatch.setattr(sequences, "_beat_exponent", lambda base, q: calls.append(q) or beat(base, q))
    sequences._certified_profile(built.points, built.q)
    assert calls == [built.q]  # dominance_profile's; ordered_lift compares growth without it


DIFFERENTIAL_QS = [Fraction(x) for x in ("1/4", "1/2", "1", "3/2", "2", "9/4", "3", "4", "5", "8", "9", "0")]


def random_exponent_table(rng, base, q):
    """A free table (small exponents put many comparisons on the threshold),
    or a chain schedule, row-shuffled and nudged at random."""
    dim, length = rng.randint(1, 4), rng.randint(1, 6)
    kind = rng.random()
    if kind < 0.4:
        top = 2 if kind < 0.2 else 60
        return [[rng.randint(-3, top) for _ in range(length)] for _ in range(dim)]
    table = chain_exponents(dim, length, base, rng.choice([2, 3, max(q, 2)]))
    if kind < 0.7:
        rng.shuffle(table)
    if rng.random() < 0.4:
        table[rng.randrange(dim)][rng.randrange(length)] += rng.randint(-3, 3)
    return table


def growth_outcomes(a, q):
    def outcome(predicate):
        try:
            got = predicate()
        except (ValueError, IndexError) as exc:
            return type(exc), str(exc)
        if isinstance(got, sequences.DominanceProfile):
            return got.classes, got.kinds, got.order, got.relations
        return got

    predicates = [
        is_ordered,
        lambda a, q: ordered_lift(a, q)[1],
        lambda a, q: sequences._certified_profile(a, q)[0],
        dominance_profile,
        is_dominant,
    ]
    found = [outcome(lambda: predicate(a, q)) for predicate in predicates]
    if a.dim >= 3 and a.length >= 3:
        found.append(outcome(lambda: relation(a, q, 1, 2)))
    return found


def test_exponent_route_matches_fraction_route():
    rng = random.Random(6)
    cases = dominant = 0
    for _ in range(1000):
        base = rng.choice([Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5)])
        q = rng.choice(DIFFERENTIAL_QS)
        table = random_exponent_table(rng, base, q)
        plain = PointSequence([[base**e for e in row] for row in table])
        tabled = sequences._tabled(base, tuple(map(tuple, table)))
        expected = growth_outcomes(plain, q)
        assert growth_outcomes(tabled, q) == expected, (base, q, table)
        cases += len(expected)
        dominant += expected[4] is True
    assert cases >= 5000 and dominant >= 100


CERTIFY_QS = [Fraction(x) for x in ("1", "3/2", "2", "3", "721")]


def certified_outcome(points, q):
    """(coords, classes, kinds, order, relations) of the certificate, or the error class."""
    try:
        profile, coords = sequences._certified_profile(points, q)
    except ValueError as exc:
        return type(exc)
    return coords, profile.classes, profile.kinds, profile.order, profile.relations


def tournament_outcome(points, q):
    """certified_outcome with the lifted rows ordered by the pairwise tournament."""
    lifted = lift(points)
    coords = order_by_outgrowth(lifted, q)
    if coords is None:
        return NotDominantError
    try:
        profile = dominance_profile(lifted._pick(coords, range(lifted.length)), q)
    except ValueError as exc:
        return type(exc)
    return coords, profile.classes, profile.kinds, profile.order, profile.relations


def test_growth_sort_certifies_like_the_tournament():
    # At q >= 1 an ordered row order, when one exists, is the only one, so
    # sorting by growth over the whole sequence must find what the pairwise
    # tournament finds, on both the Fraction and the exponent route.
    rng = random.Random(16)
    outcomes = []
    for _ in range(2000):
        base = rng.choice([Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5)])
        q = rng.choice(CERTIFY_QS)
        table = random_exponent_table(rng, base, q)
        plain = PointSequence([[base**e for e in row] for row in table])
        tabled = sequences._tabled(base, tuple(map(tuple, table)))
        expected = tournament_outcome(plain, q)
        for points in (plain, tabled):
            assert certified_outcome(points, q) == expected, (base, q, table)
        outcomes.append(expected)
    accepted = [found[0] for found in outcomes if type(found) is tuple]
    reordered = [coords for coords in accepted if coords != tuple(sorted(coords))]
    assert len(accepted) >= 100 and len(reordered) >= 10
    assert outcomes.count(NotDominantError) >= 1000


def test_certificate_builds_one_ratio_table(monkeypatch):
    built = 0

    class CountedTable(sequences._RatioTable):
        def __init__(self, a, q):
            nonlocal built
            built += 1
            super().__init__(a, q)

    monkeypatch.setattr(sequences, "_RatioTable", CountedTable)
    sup = gen_super_dominant(2, 3)
    shuffled = sup.points._pick([1, 0], range(sup.points.length))
    uniform = gen_power_sequence(2, uniform_exponents(2, 7))
    for points, certifies in (
        (sup.points, True),
        (PointSequence(sup.points.rows), True),
        (shuffled, True),
        (uniform, False),
        (PointSequence([[1, 2, 1]]), False),
    ):
        built = 0
        try:
            sequences._certified_profile(points, sup.q)
        except NotDominantError:
            assert not certifies
        else:
            assert certifies
        assert built == 1
