"""Growth ratios, pair classification, dominance profiles, generators."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tverberg import sequences
from tverberg.sequences import (
    NotDominantError,
    PointSequence,
    Relation,
    chain_exponents,
    classify_pair,
    combination_row,
    default_threshold,
    dominance_profile,
    gen_moment_curve,
    gen_power_sequence,
    gen_super_dominant,
    growth_ratio,
    is_dominant,
    is_ordered,
    is_pseudo_geometric,
    is_q_increasing,
    is_super_dominant,
    lift,
    monochromatic_subsequence,
    order_permutation,
    ordered_lift,
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


def test_power_sequence_requires_growing_gaps():
    gen_power_sequence(2, [[1, 2, 3], [2, 4, 6]])  # gaps 1, 2, 3
    with pytest.raises(ValueError):
        gen_power_sequence(2, [[1, 2, 3], [3, 4, 5]])  # gaps constant
    with pytest.raises(ValueError):
        gen_power_sequence(1, [[1, 2, 3]])


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


def test_is_q_increasing():
    assert is_q_increasing([1, 10, 100], 9)
    assert not is_q_increasing([1, 10, 100], 10)
    assert not is_q_increasing([1, -10, 100], 2)


def test_is_ordered_and_pseudo_geometric():
    a = gen_power_sequence(2, chain_exponents(3, 5, 2, 3))
    assert is_ordered(a, 3)
    assert is_pseudo_geometric(a, 3)
    shuffled = PointSequence([a.rows[2], a.rows[0], a.rows[1]])
    assert not is_ordered(shuffled, 3)
    assert is_pseudo_geometric(shuffled, 3)


def test_order_permutation_identity_on_ordered_input():
    a = gen_power_sequence(2, chain_exponents(4, 5, 2, 3))
    assert order_permutation(a, 3) == (1, 2, 3, 4)


def test_order_permutation_recovers_shuffle():
    a = gen_power_sequence(2, chain_exponents(4, 5, 2, 3))
    shuffle = (3, 1, 4, 2)  # new row p came from old row shuffle[p]
    shuffled = PointSequence([a.rows[s - 1] for s in shuffle])
    perm = order_permutation(shuffled, 3)
    assert tuple(shuffle[p - 1] for p in perm) == (1, 2, 3, 4)


def test_order_permutation_on_decaying_coordinates():
    # one point coordinate shrinking geometrically: the ones row of the lift
    # grows faster, so it sorts last
    points = PointSequence([[Fraction(1, 2**(3 * i)) for i in range(1, 5)]])
    lifted = lift(points)
    assert order_permutation(lifted, 3) == (2, 1)


def test_order_permutation_ties_on_length_one_rows():
    # one position: every row pair is q-monotone both ways, so all rows tie
    assert order_permutation(PointSequence([[5], [1], [3]]), 2) == (1, 2, 3)


def test_order_permutation_rejects_non_pseudo_geometric():
    a = PointSequence([[1, 1, 1], [1, 2, 1]])
    with pytest.raises(ValueError):
        order_permutation(a, 2)


# ---------------------------------------------------------------------------
# pair classification


def test_chain_pairs_precede():
    a = gen_power_sequence(2, chain_exponents(4, 6, 2, 3))
    for t in (1, 2):
        for s in range(t + 1, 4):
            assert classify_pair(a, 3, t, s) is Relation.PRECEDES
            assert classify_pair(a, 3, s, t) is Relation.SUCCEEDED_BY


def test_uniform_schedule_is_inconsistent():
    # growth is position-only, so the comparison fraction is exactly 1 at
    # symmetric triples and no verdict clears the threshold
    a = gen_power_sequence(4, uniform_exponents(3, 5))
    assert is_ordered(a, 3)
    assert classify_pair(a, 3, 1, 2) is Relation.INCONSISTENT
    assert not is_dominant(a, 3)


def test_right_similar_schedule():
    a = right_similar_sequence(5)
    assert classify_pair(a, 3, 1, 2) is Relation.RIGHT_SIMILAR
    assert classify_pair(a, 3, 2, 1) is Relation.RIGHT_SIMILAR


def test_left_similar_schedule():
    a = left_similar_sequence(5)
    assert classify_pair(a, 3, 1, 2) is Relation.LEFT_SIMILAR
    assert classify_pair(a, 3, 2, 1) is Relation.LEFT_SIMILAR


def test_right_similar_frozen_triple():
    a = right_similar_sequence(3)
    assert growth_ratio(a, 1, 1, 2) == 2**4
    assert growth_ratio(a, 2, 2, 3) == 2**8
    assert classify_pair(a, 3, 1, 2) is Relation.RIGHT_SIMILAR


def test_classify_pair_rejects_bad_arguments():
    a = right_similar_sequence(3)
    with pytest.raises(ValueError):
        classify_pair(a, 3, 1, 1)
    with pytest.raises(IndexError):
        classify_pair(a, 3, 1, 3)
    short = PointSequence([[1, 2], [2, 8]])
    with pytest.raises(ValueError):
        classify_pair(short, 3, 1, 1)


# ---------------------------------------------------------------------------
# dominance profiles


def test_chain_profile_orders_gaps_ascending():
    a = gen_power_sequence(2, chain_exponents(4, 6, 2, 3))
    profile = dominance_profile(a, 3)
    assert profile.gaps == 3
    assert profile.order == (1, 2, 3)
    assert profile.classes == ((1,), (2,), (3,))
    assert profile.max_of([1, 3]) == 3
    assert profile.relation(1, 2) is Relation.PRECEDES
    assert profile.relation(2, 1) is Relation.SUCCEEDED_BY


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


def profile_from_relations(monkeypatch, table):
    """dominance_profile of an ordered chain whose pairs t < s classify as table[(t, s)]."""
    gaps = max(s for _, s in table)
    monkeypatch.setattr(sequences, "classify_pair", lambda a, q, t, s, _table=None: table[(t, s)])
    return dominance_profile(gen_power_sequence(2, chain_exponents(gaps + 1, 4, 2, 3)), 3)


@pytest.mark.parametrize(
    "table, reason",
    [
        ({(1, 2): R, (1, 3): P, (2, 3): R}, "not transitive"),
        ({(1, 2): L, (1, 3): R, (2, 3): L}, "mixes kinds"),
        ({(1, 2): R, (1, 3): P, (2, 3): S}, "do not compare consistently"),
        ({(1, 2): P, (1, 3): S, (2, 3): P}, "not a total order"),
    ],
)
def test_profile_rejects_structural_failures(monkeypatch, table, reason):
    # each table breaks exactly one condition of a dominance profile
    with pytest.raises(NotDominantError, match=reason):
        profile_from_relations(monkeypatch, table)


def test_profile_orders_left_and_right_similar_classes(monkeypatch):
    # right-similar {2, 4} precedes left-similar {1, 3}
    table = {(1, 2): S, (1, 3): L, (1, 4): S, (2, 3): P, (2, 4): R, (3, 4): S}
    profile = profile_from_relations(monkeypatch, table)
    assert profile.classes == ((2, 4), (1, 3))
    assert profile.kinds == (R, L)
    assert profile.order == (2, 4, 3, 1)
    assert profile.relation(4, 1) is P
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
    assert built.q == default_threshold(1, 2) == 25
    assert built.points.dim == 1 and built.points.length == 3
    assert built.lifted.row(1) == (1, 1, 1)
    assert is_super_dominant(built.lifted, built.q, built.witness)


def test_gen_super_dominant_plane():
    built = gen_super_dominant(2, 2)
    assert built.points.dim == 2 and built.points.length == 4
    assert built.witness.length == 12
    assert is_dominant(built.witness, built.q)
    assert is_super_dominant(built.lifted, built.q, built.witness)


def test_is_super_dominant_rejects_mismatches():
    built = gen_super_dominant(1, 2)
    assert not is_super_dominant(built.lifted, built.q, built.lifted)
    tampered = PointSequence(
        [built.lifted.rows[0], tuple(x * 2 for x in built.lifted.rows[1])]
    )
    assert not is_super_dominant(tampered, built.q, built.witness)


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


def test_pinned_combination_input_validation():
    a, zeros, alphas, _ = pinned_instance()
    with pytest.raises(ValueError):
        verify_pinned_combination(a, 3, alphas, zeros)  # needs q > 3
    with pytest.raises(ValueError):
        verify_pinned_combination(a, 4, alphas, [3, 5])  # zeros too close
    with pytest.raises(ValueError):
        verify_pinned_combination(a, 4, alphas, zeros, depth=0)


def test_pinned_combination_alternating_signs():
    a, zeros, alphas, q = pinned_instance()
    signs = [(x > 0) - (x < 0) for x in alphas]
    assert all(u * v == -1 for u, v in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# monochromatic search


def test_monochromatic_pairs_by_parity():
    colored = monochromatic_subsequence(3, 2, lambda t: sum(t) % 2, 5)
    assert colored == [1, 3, 5]


def test_monochromatic_unreachable_returns_none():
    assert monochromatic_subsequence(3, 2, lambda t: sum(t) % 2, 4) is None


def test_monochromatic_arity_one():
    assert monochromatic_subsequence(2, 1, lambda t: t[0] > 2, 5) == [1, 2]
    assert monochromatic_subsequence(3, 1, lambda t: t[0] > 2, 5) == [3, 4, 5]


def test_monochromatic_trivial_cases():
    assert monochromatic_subsequence(0, 2, lambda t: 0, 3) == []
    assert monochromatic_subsequence(2, 3, lambda t: 0, 2) == [1, 2]


def test_monochromatic_orientation_coloring():
    # moment-curve triples are always positively oriented, so the greedy
    # prefix is already monochromatic
    from tverberg.exact import Matrix, det_sign

    curve = gen_moment_curve(2, [1, 2, 3, 4, 5])

    def orientation(triple):
        rows = [[1] + list(curve.point(i)) for i in triple]
        return det_sign(Matrix(rows))

    assert monochromatic_subsequence(4, 3, orientation, 5) == [1, 2, 3, 4]


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
    payload = sequence_to_json(a)
    assert payload == sequence_to_json(plain)
    assert set(payload) == {"d", "n", "points"}
    loaded = sequence_from_json(payload)
    assert loaded == a and loaded._exponents is None
    tabled, untabled = dominance_profile(a, 3), dominance_profile(loaded, 3)
    assert (tabled.classes, tabled.kinds, tabled.order, tabled.relations) == (
        untabled.classes, untabled.kinds, untabled.order, untabled.relations
    )


def test_sequences_built_from_rows_carry_no_table():
    assert PointSequence([[1, 2, 4], [1, 8, 64]])._exponents is None
    assert gen_moment_curve(2, [1, 2, 3])._exponents is None
    assert lift(PointSequence([[2, 4, 8]]))._exponents is None


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

    predicates = [is_ordered, is_pseudo_geometric, order_permutation, dominance_profile, is_dominant]
    found = [outcome(lambda: predicate(a, q)) for predicate in predicates]
    if a.dim >= 3:
        found.append(outcome(lambda: classify_pair(a, q, 1, 2)))
    return found


def test_exponent_route_matches_fraction_route():
    rng = random.Random(6)
    cases = dominant = 0
    for _ in range(1000):
        base = rng.choice([Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5)])
        q = rng.choice(DIFFERENTIAL_QS)
        table = random_exponent_table(rng, base, q)
        plain = PointSequence([[base**e for e in row] for row in table])
        tabled = sequences._carrying(PointSequence(plain.rows), base, tuple(map(tuple, table)))
        expected = growth_outcomes(plain, q)
        assert growth_outcomes(tabled, q) == expected, (base, q, table)
        cases += len(expected)
        dominant += expected[4] is True
    assert cases >= 5000 and dominant >= 100
