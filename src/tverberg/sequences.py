"""Point sequences and the growth-dominance calculus over exact rationals.

A sequence is a d-by-n grid of positive rationals whose columns are points.
The central tool is the growth ratio of consecutive coordinate rows between
two positions; comparing such ratios against a threshold q classifies how
pairs of coordinates dominate each other, which in turn yields a total order
on coordinates that the filling machinery consumes.

All public indices are 1-based: coordinates run over 1..dim and positions
over 1..length, matching the usual combinatorial conventions for partitioned
ground sets.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations
from math import factorial
from typing import NamedTuple, Optional, Sequence

from .exact import ScalarLike, scalar, scalar_str, solve_linear, Matrix


class NotDominantError(ValueError):
    """The sequence does not classify consistently; no dominance profile exists."""


class Relation(enum.Enum):
    """How coordinate t relates to coordinate s under the threshold q."""

    PRECEDES = "precedes"
    SUCCEEDED_BY = "succeeded_by"
    LEFT_SIMILAR = "left_similar"
    RIGHT_SIMILAR = "right_similar"
    INCONSISTENT = "inconsistent"


# A tabled sequence builds its entries base**e when they are first read.  An
# entry of more bits than this (8 MiB) is refused instead: the (4,2) rung's
# largest has 20.6 M bits, the (5,2) rung's about 4.3 * 10**9.
_ENTRY_BIT_BUDGET = 1 << 26


class PointSequence:
    """Immutable d-dimensional sequence of n points, stored by coordinate rows.

    A sequence made by gen_power_sequence keeps the (base, exponents) table
    its rows are the powers of, and every row or column selection of it keeps
    the matching table, so growth is compared on integer exponents.  Its
    entries are built from the table when rows, entry or point is first read.
    The table is not part of the value, and a sequence built from rows never
    has one: two tables on one base compare by exponents, any other pair by
    entries, and hashing and repr build the entries.
    """

    def __init__(self, rows: Sequence[Sequence[ScalarLike]]):
        data = tuple(tuple(scalar(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("a sequence needs at least one row and one position")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("coordinate rows have unequal lengths")
        self._fill(data, None)

    def _fill(self, rows: Optional[tuple], exponents: Optional[tuple]) -> None:
        shape = rows if exponents is None else exponents[1]
        object.__setattr__(self, "dim", len(shape))
        object.__setattr__(self, "length", len(shape[0]))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_exponents", exponents)

    def __setattr__(self, name, value):
        raise AttributeError("PointSequence is immutable")

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            object.__setattr__(self, "_rows", _powers(*self._exponents))
        return self._rows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is other:
            return True
        if self._exponents and other._exponents and self._exponents[0] == other._exponents[0]:
            return self._exponents[1] == other._exponents[1]  # base**e is injective for a base above 1
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(rows={self.rows!r})"

    @property
    def is_positive(self) -> bool:
        # a tabled entry is a power of a base above 1
        return self._exponents is not None or all(x > 0 for row in self.rows for x in row)

    def row(self, t: int) -> tuple:
        if not 1 <= t <= self.dim:
            raise IndexError(f"coordinate {t} out of range 1..{self.dim}")
        return self.rows[t - 1]

    def _column(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise IndexError(f"position {i} out of range 1..{self.length}")
        return i - 1

    def entry(self, t: int, i: int) -> Fraction:
        return self.row(t)[self._column(i)]

    def point(self, i: int) -> tuple:
        col = self._column(i)
        return tuple(row[col] for row in self.rows)

    def _pick(self, rows: Sequence[int], cols: Sequence[int]) -> "PointSequence":
        """The 0-based rows and columns given, with the matching exponent table."""
        if self._exponents is None:
            return PointSequence([[self.rows[t][i] for i in cols] for t in rows])
        base, table = self._exponents
        return _tabled(base, tuple(tuple(table[t][i] for i in cols) for t in rows))

    def subsequence(self, positions: Sequence[int]) -> "PointSequence":
        return self._pick(range(self.dim), [self._column(i) for i in positions])

    def strided(self, step: int) -> "PointSequence":
        return self.subsequence(range(step, self.length + 1, step))


def _tabled(base: Fraction, table: tuple) -> PointSequence:
    """The sequence with rows base**table, for a base above 1 and a rectangular table."""
    if not table or not table[0]:
        raise ValueError("a sequence needs at least one row and one position")
    points = object.__new__(PointSequence)
    points._fill(None, (base, table))
    return points


def _powers(base: Fraction, table: tuple) -> tuple:
    """The rows base**e, refused when an entry would pass _ENTRY_BIT_BUDGET.

    The larger of an entry's numerator and denominator is base.numerator**|e|,
    whose bit length is at most |e| * ceil(log2(base.numerator)) + 1, exactly
    that when the numerator is a power of two.
    """
    top = max(abs(e) for row in table for e in row)
    bits = top * (base.numerator - 1).bit_length() + 1
    if bits > _ENTRY_BIT_BUDGET:
        raise ValueError(
            f"the sequence's largest entry would have up to {bits} bits, over the"
            f" {_ENTRY_BIT_BUDGET}-bit budget for building entries"
        )
    return tuple(tuple(base**e for e in row) for row in table)


def sequence_to_json(points: PointSequence) -> dict:
    """{"d", "n", "base", "exponents"} for a tabled sequence, else the decimal form."""
    if points._exponents is not None:
        base, table = points._exponents
        return {
            "d": points.dim,
            "n": points.length,
            "base": scalar_str(base),
            "exponents": [list(row) for row in table],
        }
    return {
        "d": points.dim,
        "n": points.length,
        "points": [[scalar_str(x) for x in points.point(i)] for i in range(1, points.length + 1)],
    }


def sequence_from_json(payload: dict) -> PointSequence:
    """Either form of sequence_to_json; the compact one loads through gen_power_sequence."""
    compact = isinstance(payload, dict) and "exponents" in payload
    keys = ("d", "n", "base", "exponents") if compact else ("d", "n", "points")
    try:
        d, n, *body = [payload[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise ValueError("sequence payload needs keys " + ", ".join(f"'{k}'" for k in keys)) from exc
    for key, value in (("d", d), ("n", n)):
        if type(value) is not int:
            raise ValueError(f"'{key}' must be a plain integer, got {value!r}")
    grid = body[-1]  # d exponent rows, or n point columns
    outer, inner = (d, n) if compact else (n, d)
    if len(grid) != outer or any(len(line) != inner for line in grid):
        raise ValueError("sequence payload shape does not match its declared d and n")
    if compact:
        return gen_power_sequence(scalar(body[0]), grid)
    return PointSequence([[scalar(col[t]) for col in grid] for t in range(d)])


# ---------------------------------------------------------------------------
# generators


def gen_moment_curve(d: int, params: Sequence[ScalarLike]) -> PointSequence:
    """Points (t, t^2, ..., t^d) for each parameter t."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    values = [scalar(p) for p in params]
    if not values:
        raise ValueError("at least one parameter is required")
    return PointSequence([[v**t for v in values] for t in range(1, d + 1)])


def gen_power_sequence(base: ScalarLike, exponents: Sequence[Sequence[int]]) -> PointSequence:
    """Rows base**e(t,i) for an integer exponent table.

    The exponent gaps e(t+1,i) - e(t,i) must be strictly increasing in i, so
    every consecutive-row ratio sequence strictly grows.  The result keeps
    the table, its growth comparisons run on the exponents, and its entries
    are built only when read.
    """
    q_base = scalar(base)
    if q_base <= 1:
        raise ValueError("base must exceed 1")
    table = tuple(tuple(row) for row in exponents)
    for row in table:
        for e in row:
            if type(e) is not int:
                raise ValueError(f"exponents must be plain integers, got {e!r}")
    if not table or any(len(row) != len(table[0]) for row in table):
        raise ValueError("exponent table must be rectangular and nonempty")
    for t in range(len(table) - 1):
        gaps = [hi - lo for lo, hi in zip(table[t], table[t + 1])]
        if any(b <= a for a, b in zip(gaps, gaps[1:])):
            raise ValueError(
                f"exponent gaps between rows {t + 1} and {t + 2} must strictly increase"
            )
    return _tabled(q_base, table)


def uniform_exponents(rows: int, length: int) -> list:
    """The schedule e(t, i) = t * i."""
    return [[t * i for i in range(1, length + 1)] for t in range(1, rows + 1)]


def _ceil_log(base: Fraction, value: Fraction) -> int:
    """Smallest integer c >= 0 with base**c >= value, for base > 1, in O(log c) steps.

    The powers base**(2**k) are squared until they surely reach value; c - 1,
    the largest e with base**e < value, is then built from its top bit down.
    Each power base**e is carried as integers lo <= base**e * 2**bits <= hi,
    rounded outward, so no number grows with c.  A power whose bounds
    straddle value is below it unless it equals it, which _is_power settles
    exactly; else the search starts over at twice the precision, and the
    bounds tighten with it until they decide.
    """
    if value <= 1:
        return 0
    bits = 64 + base.numerator.bit_length() + base.denominator.bit_length()

    def times(x: tuple, y: tuple) -> tuple:
        return x[0] * y[0] >> bits, -(-x[1] * y[1] >> bits)

    while True:
        scale = 1 << bits
        target = value * scale
        powers = [(base.numerator * scale // base.denominator, -(-base.numerator * scale // base.denominator))]
        while powers[-1][0] < target:
            powers.append(times(powers[-1], powers[-1]))
        below, power = 0, (scale, scale)
        for k in reversed(range(len(powers))):
            step = times(power, powers[k])
            if step[1] < target:
                below, power = below + (1 << k), step
            elif step[0] < target and not _is_power(base, below + (1 << k), value):
                break
        else:
            return below + 1
        bits *= 2


def _is_power(base: Fraction, e: int, value: Fraction) -> bool:
    """base**e == value for base > 1 and e >= 0; the power is built only when its size allows that."""
    if e * (base.numerator.bit_length() - 1) >= value.numerator.bit_length():
        return False  # base.numerator**e has more bits than value's numerator
    return base**e == value


def chain_exponents(rows: int, length: int, base: ScalarLike, q: ScalarLike) -> list:
    """Exponent schedule whose coordinates form a strictly dominated chain.

    Row 1 is constant (all ones); row t >= 2 uses the multiplier
    D1 * (length+1)**(t-2) with D1 one more than the base-log of q, which is
    enough head room for every later row to dominate every earlier one by a
    factor above q at all positions.
    """
    if rows < 1 or length < 1:
        raise ValueError("rows and length must be positive")
    d1 = _ceil_log(scalar(base), scalar(q)) + 1
    multipliers = [0] + [d1 * (length + 1) ** (t - 2) for t in range(2, rows + 1)]
    return [[m * i for i in range(1, length + 1)] for m in multipliers]


def default_threshold(d: int, r: int) -> Fraction:
    """The stock dominance threshold for r classes in dimension d."""
    return Fraction(factorial(r * (d + 1)) + 1)


def lift(points: PointSequence) -> PointSequence:
    """Prepend the all-ones coordinate row."""
    if points._exponents is None:
        return PointSequence(((Fraction(1),) * points.length,) + points.rows)
    base, table = points._exponents
    return _tabled(base, ((0,) * points.length,) + table)


def ordered_lift(points: PointSequence, q: ScalarLike):
    """Lift the points and sort the coordinate rows by growth speed.

    Returns (ordered, row_coords) where ordered is the lifted sequence with
    rows rearranged slowest-first and row_coords[k] is the 0-based lifted
    coordinate sitting at ordered position k.  A row's growth is its last
    entry over its first, compared by cross products (no division) on the
    route q picks (_growth_scale); ties keep row order.  If some row order
    makes the lift ordered at q >= 1, each later row outgrows each earlier
    one over the whole sequence, so the sort finds that order; the order is
    checked by dominance_profile, not here.  At q < 1 several orders can
    pass, and the sort may pick another than a pairwise tournament would.
    """
    lifted = lift(points)
    grid, _, times, _ = _growth_scale(lifted, scalar(q))

    def faster(t: int, s: int) -> int:
        x, y = times(grid[t][-1], grid[s][0]), times(grid[s][-1], grid[t][0])
        return (x > y) - (x < y)

    coords = tuple(sorted(range(lifted.dim), key=cmp_to_key(faster)))
    return lifted._pick(coords, range(lifted.length)), coords


class SuperDominantSequence(NamedTuple):
    points: PointSequence  # the d-dimensional points (ones row stripped)
    lifted: PointSequence  # points with the ones row on top
    witness: PointSequence  # the long dominant sequence the lifted one strides
    q: Fraction


def gen_super_dominant(d: int, r: int, q: Optional[ScalarLike] = None, base: ScalarLike = 2) -> SuperDominantSequence:
    """Construct a verified super-dominant lifted sequence for (d, r).

    Builds a dominant witness of length (d+1) * n on a chain schedule, then
    takes every (d+1)-th column.  The witness is checked with is_dominant; a
    failure would be a construction bug and raises.
    """
    from .partitions import tverberg_number

    threshold = scalar(q) if q is not None else default_threshold(d, r)
    n = tverberg_number(r, d)
    span = (d + 1) * n
    witness = gen_power_sequence(base, chain_exponents(d + 1, span, base, threshold))
    if not is_dominant(witness, threshold):
        raise AssertionError("chain witness failed its dominance check")
    lifted = witness.strided(d + 1)
    if any(lifted._exponents[1][0]):  # base**e is 1 only at e = 0
        raise AssertionError("chain witness lost its ones row")
    points = lifted._pick(range(1, lifted.dim), range(lifted.length))
    return SuperDominantSequence(points, lifted, witness, threshold)


# ---------------------------------------------------------------------------
# growth predicates


def is_ordered(a: PointSequence, q: ScalarLike) -> bool:
    """Positive, with every consecutive-coordinate ratio sequence q-increasing.

    A sequence is q-increasing when each term exceeds q times the one before.
    """
    return a.is_positive and _RatioTable(a, scalar(q)).is_ordered()


def growth_ratio(a: PointSequence, t: int, i: int, j: int) -> Fraction:
    """Increase of the row-(t+1) over row-t ratio from position i to position j."""
    if not 1 <= t < a.dim:
        raise IndexError(f"coordinate {t} out of range 1..{a.dim - 1}")
    return (a.entry(t + 1, j) * a.entry(t, i)) / (a.entry(t, j) * a.entry(t + 1, i))


def _beat_exponent(base: Fraction, q: Fraction) -> int:
    """Least integer c with base**c > q, for base > 1 and q > 0."""
    if q < 1:  # base**c > q exactly when base**-c < 1/q, so -c is one below _ceil_log(base, 1/q)
        return 1 - _ceil_log(base, 1 / q)
    c = _ceil_log(base, q)
    return c + _is_power(base, c, q)


def _growth_scale(a: PointSequence, q: Fraction):
    """The grid growth is compared on, its quotient and product, and "x beats y by q".

    On a positive sequence.  With an exponent table (and q > 0) every entry
    is base**e, so quotients and products are exponent differences and sums,
    and x > q*y is x - y >= c for the least integer c with base**c > q.
    Otherwise the Fraction entries are divided, multiplied and compared.
    """
    if a._exponents is not None and q > 0:
        base, table = a._exponents
        c = _beat_exponent(base, q)
        return table, operator.sub, operator.add, lambda x, y: x - y >= c
    return a.rows, operator.truediv, operator.mul, lambda x, y: x > q * y


class _RatioTable:
    """Consecutive-row ratios, built once; growth_ratio(t,i,j) = ratio(t,j)/ratio(t,i).

    Ratios are Fractions, or exponents of base on a tabled sequence; they are
    only multiplied through `times` and compared through `beats` (x > q*y).
    """

    def __init__(self, a: PointSequence, q: Fraction):
        grid, quotient, self.times, self.beats = _growth_scale(a, q)
        self.ratios = [
            [quotient(grid[t][i], grid[t - 1][i]) for i in range(a.length)]
            for t in range(1, a.dim)
        ]

    def is_ordered(self) -> bool:
        """Every consecutive-row ratio sequence is q-increasing."""
        return all(self.beats(y, x) for row in self.ratios for x, y in zip(row, row[1:]))

    def relation(self, t: int, s: int) -> Relation:
        """classify_pair on this table, for valid coordinates t != s.

        The triples are not enumerated.  With g, h the ratio rows of t and s,
        the early fraction beats q exactly when g_j*h_j beats g_i*h_k, the
        late one when g_k*h_i beats g_j*h_j.  At a fixed middle j, i < j and
        k > j vary independently over positive ratios, so the varying product
        lies between min*min and max*max of the rows before and after j, both
        attained; and each verdict (high, low, neither) holds on an interval
        of it, as "beats" holds on a half-line in each argument for any q.  So
        all triples through j share a verdict exactly when those two products
        do.
        """
        g, h = self.ratios[t - 1], self.ratios[s - 1]

        def verdict(top, bottom):
            return "high" if self.beats(top, bottom) else "low" if self.beats(bottom, top) else None

        early, late = set(), set()
        for j in range(1, len(g) - 1):
            middle = self.times(g[j], h[j])
            for pick in (min, max):
                early.add(verdict(middle, self.times(pick(g[:j]), pick(h[j + 1:]))))
                late.add(verdict(self.times(pick(g[j + 1:]), pick(h[:j])), middle))
            if None in early | late or len(early) > 1 or len(late) > 1:
                return Relation.INCONSISTENT
        return {
            ("low", "low"): Relation.PRECEDES,
            ("high", "high"): Relation.SUCCEEDED_BY,
            ("high", "low"): Relation.LEFT_SIMILAR,
            ("low", "high"): Relation.RIGHT_SIMILAR,
        }[(early.pop(), late.pop())]


def classify_pair(a: PointSequence, q: ScalarLike, t: int, s: int) -> Relation:
    """Classify how coordinate t relates to coordinate s.

    For every i < j < k two fractions are compared against [1/q, q]:
    the early-window fraction growth(t,i,j)/growth(s,j,k) and the late-window
    fraction growth(t,j,k)/growth(s,i,j).  A consistent verdict across all
    triples yields one of four relations:

    * both low:   t precedes s (s's growth swamps t's in both windows);
    * both high:  t is succeeded by s, i.e. s precedes t;
    * early high, late low:  left-similar (the earlier window always wins);
    * early low, late high:  right-similar (the later window always wins).

    The two right-similar inequalities used here mirror the left-similar pair,
    i.e. growth(t,j,k) > q*growth(s,i,j) and growth(s,j,k) > q*growth(t,i,j).
    This symmetric reading keeps the classification invariant under swapping
    t with s, so left and right similarity are mirror images of each other.

    Any fraction landing inside [1/q, q], or a verdict that flips between
    triples, classifies as inconsistent.  The triples are decided at their
    extremes (_RatioTable.relation).
    """
    if a.length < 3:
        raise ValueError("classification needs at least three positions")
    if t == s:
        raise ValueError("coordinates must be distinct")
    for c in (t, s):
        if not 1 <= c < a.dim:
            raise IndexError(f"coordinate {c} out of range 1..{a.dim - 1}")
    if not a.is_positive:
        raise ValueError("classification needs positive entries")
    return _RatioTable(a, scalar(q)).relation(t, s)


@dataclass(frozen=True, eq=False)
class DominanceProfile:
    """Pairwise relations on coordinates 1..gaps plus the induced total order.

    `classes` lists the similarity classes from least to most dominant;
    `kinds` holds each class's shared relation (left/right similar, or None
    for singletons).  `order` is the full total order, least dominant first:
    similarity classes are concatenated in dominance order, right-similar
    classes ascending by coordinate index and left-similar ones descending.
    """

    gaps: int
    relations: dict
    classes: tuple
    kinds: tuple
    order: tuple

    def max_of(self, coordinates) -> int:
        """The most dominant coordinate among the given ones."""
        items = list(coordinates)
        if not items:
            raise ValueError("max_of needs at least one coordinate")
        return max(items, key=self.order.index)

    @cached_property
    def _band_cuts(self) -> dict:
        """max_of(lo + 1..hi) for every band of grid rows 0 <= lo < hi <= gaps, once per profile."""
        return {
            (lo, hi): self.max_of(range(lo + 1, hi + 1))
            for lo in range(self.gaps)
            for hi in range(lo + 1, self.gaps + 1)
        }


def dominance_profile(a: PointSequence, q: ScalarLike) -> DominanceProfile:
    """Classify all coordinate pairs and assemble the total dominance order.

    Raises NotDominantError if the sequence is not ordered, has two or more
    gaps but fewer than three positions (no pair classifies without a
    triple), any pair is inconsistent, a pair disagrees with the ranks (the
    number of coordinates preceding each), or a similarity class mixes left
    and right kinds.
    """
    threshold = scalar(q)
    gaps = a.dim - 1
    if gaps < 1:
        raise ValueError("a profile needs at least two coordinate rows")
    if not a.is_positive or not (table := _RatioTable(a, threshold)).is_ordered():
        raise NotDominantError("sequence is not ordered with q-increasing ratios")
    if gaps > 1 and a.length < 3:
        raise NotDominantError("no coordinate pair classifies without three positions")
    relations = {}
    for t in range(1, gaps + 1):
        for s in range(t + 1, gaps + 1):
            rel = table.relation(t, s)
            if rel is Relation.INCONSISTENT:
                raise NotDominantError(f"coordinates ({t}, {s}) classify inconsistently")
            relations[(t, s)] = rel
            relations[(s, t)] = {
                Relation.PRECEDES: Relation.SUCCEEDED_BY,
                Relation.SUCCEEDED_BY: Relation.PRECEDES,
                Relation.LEFT_SIMILAR: Relation.LEFT_SIMILAR,
                Relation.RIGHT_SIMILAR: Relation.RIGHT_SIMILAR,
            }[rel]

    # rank(t) counts the coordinates that precede t.  The relations form a
    # dominance order exactly when every pair agrees with the ranks (equal
    # ranks are similar, the lower rank precedes) and each rank level has one
    # kind; the levels, in ascending rank, are then the similarity classes.
    coords = range(1, gaps + 1)
    rank = {t: sum(relations[(s, t)] is Relation.PRECEDES for s in coords if s != t) for t in coords}
    for t, s in combinations(coords, 2):
        rel = relations[(t, s)]
        if rank[t] == rank[s]:
            agrees = rel in (Relation.LEFT_SIMILAR, Relation.RIGHT_SIMILAR)
        else:
            agrees = rel is (Relation.PRECEDES if rank[t] < rank[s] else Relation.SUCCEEDED_BY)
        if not agrees:
            raise NotDominantError(
                f"coordinates ({t}, {s}) break the dominance order: {rel.value} at ranks {rank[t]} and {rank[s]}"
            )
    classes = tuple(tuple(t for t in coords if rank[t] == level) for level in sorted(set(rank.values())))
    kinds = []
    order = []
    for members in classes:
        found = {relations[pair] for pair in combinations(members, 2)}
        if len(found) > 1:
            raise NotDominantError(f"similarity class {members} mixes kinds")
        kind = found.pop() if found else None
        kinds.append(kind)
        order.extend(sorted(members, reverse=(kind is Relation.LEFT_SIMILAR)))
    return DominanceProfile(
        gaps=gaps,
        relations=relations,
        classes=classes,
        kinds=tuple(kinds),
        order=tuple(order),
    )


def _certified_profile(points: PointSequence, q: ScalarLike) -> tuple:
    """(profile, row_coords) of the ordered lift of the points at q.

    The certificate of the dominant route: the lift, its rows sorted by
    growth (ordered_lift), must be dominant at q.  dominance_profile is the
    one check of that order, on the one ratio table it builds.  Raises
    NotDominantError otherwise.
    """
    ordered, coords = ordered_lift(points, q)
    return dominance_profile(ordered, q), coords


def is_dominant(a: PointSequence, q: ScalarLike) -> bool:
    """True when the sequence is ordered and every coordinate pair classifies."""
    try:
        dominance_profile(a, q)
    except NotDominantError:
        return False
    return True


def growth_product(a: PointSequence, assignments) -> Fraction:
    """Product of growth_ratio(a, s, i, j) over assignments {s: (i, j)}."""
    result = Fraction(1)
    for s, (i, j) in sorted(assignments.items()):
        result *= growth_ratio(a, s, i, j)
    return result


def product_config_admissible(assignments, tau: int) -> bool:
    """Check the hypotheses under which a growth product clears the gap.

    assignments maps coordinates s to position pairs (i_s, j_s); tau must be
    the most dominant assigned coordinate.  Admissible means both position
    families are weakly increasing in s and the tau pair is spread by at
    least the number of assigned coordinates.  On a dominant sequence an
    admissible product exceeds q when i_tau < j_tau and stays below 1/q when
    i_tau > j_tau.
    """
    if tau not in assignments:
        raise ValueError("tau must be one of the assigned coordinates")
    i_tau, j_tau = assignments[tau]
    if abs(i_tau - j_tau) < len(assignments):
        return False
    pairs = [assignments[s] for s in sorted(assignments)]
    return all(
        early[0] <= late[0] and early[1] <= late[1]
        for early, late in zip(pairs, pairs[1:])
    )


# ---------------------------------------------------------------------------
# zero-pinned combinations


def combination_row(a: PointSequence, alphas: Sequence[ScalarLike]) -> tuple:
    """The length-n row sum_t alphas[t] * row(t)."""
    if len(alphas) != a.dim:
        raise ValueError("one coefficient per coordinate row is required")
    coeffs = [scalar(x) for x in alphas]
    return tuple(
        sum(coeffs[t] * a.rows[t][i] for t in range(a.dim)) for i in range(a.length)
    )


def solve_prescribed_zeros(
    a: PointSequence,
    zero_positions: Sequence[int],
    normalization: tuple,
) -> tuple:
    """Coefficients alpha with the combination zero at the given positions.

    Takes dim-1 zero positions plus one (position, value) normalization pin;
    the resulting square system is solved exactly.
    """
    zeros = sorted(int(j) for j in zero_positions)
    if len(zeros) != a.dim - 1:
        raise ValueError(f"expected {a.dim - 1} zero positions, got {len(zeros)}")
    if len(set(zeros)) != len(zeros):
        raise ValueError("zero positions must be distinct")
    pin_pos, pin_value = int(normalization[0]), scalar(normalization[1])
    for j in zeros + [pin_pos]:
        if not 1 <= j <= a.length:
            raise IndexError(f"position {j} out of range 1..{a.length}")
    if pin_pos in zeros:
        raise ValueError("normalization position collides with a zero position")
    rows = [[a.entry(t, j) for t in range(1, a.dim + 1)] for j in zeros]
    rows.append([a.entry(t, pin_pos) for t in range(1, a.dim + 1)])
    rhs = [Fraction(0)] * len(zeros) + [pin_value]
    return solve_linear(Matrix(rows), rhs)


@dataclass(frozen=True)
class PinnedCombinationReport:
    """Outcome of checking a zero-pinned combination against its growth bounds."""

    combination: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_pinned_combination(
    a: PointSequence,
    q: ScalarLike,
    alphas: Sequence[ScalarLike],
    zero_positions: Sequence[int],
) -> PinnedCombinationReport:
    """Check sign structure and dominant-term bounds of a pinned combination.

    For positions more than one step away from the neighbouring zeros, the
    region's own term must dominate: with X the local term's magnitude and N
    the two neighbouring terms' magnitudes,

        (1 - 2/q) * X  <  X - N  <=  |b_i|  <  X.

    The middle comparison admits equality: when every term other than the
    local one is an immediate neighbour (three coordinate rows, middle
    region), the residual equals X - N exactly.

    The combination must vanish exactly at the prescribed zeros, keep a
    constant sign between consecutive zeros, flip sign across each zero, and
    its coefficients must alternate in sign.  Violations are reported as
    strings; an empty report means every check passed.
    """
    threshold = scalar(q)
    if threshold <= 3:
        raise ValueError("the bounds need q > 3")
    zeros = sorted(int(j) for j in zero_positions)
    if len(zeros) != a.dim - 1 or len(set(zeros)) != len(zeros):
        raise ValueError("zero positions must be distinct and one fewer than dim")
    if any(b - x < 3 for x, b in zip(zeros, zeros[1:])):
        raise ValueError("zero positions must be more than 2 apart")
    if not a.is_positive:
        raise ValueError("sequence entries must be positive")
    coeffs = [scalar(x) for x in alphas]
    if len(coeffs) != a.dim:
        raise ValueError("one coefficient per coordinate row is required")
    b = combination_row(a, coeffs)
    violations = []

    signs = [(x > 0) - (x < 0) for x in coeffs]
    if 0 in signs:
        violations.append("coefficient-zero: some alpha vanishes")
    elif any(u * v != -1 for u, v in zip(signs, signs[1:])):
        violations.append("coefficient-signs: alphas do not alternate")

    zero_set = set(zeros)
    for i in range(1, a.length + 1):
        value = b[i - 1]
        if i in zero_set and value != 0:
            violations.append(f"missing-zero: position {i} is {scalar_str(value)}")
        if i not in zero_set and value == 0:
            violations.append(f"unexpected-zero: position {i}")

    # Sign pattern: constant between zeros, flipping across each zero.
    boundaries = [0] + zeros + [a.length + 1]
    region_signs = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        inside = [(b[i - 1] > 0) - (b[i - 1] < 0) for i in range(lo + 1, hi) if b[i - 1] != 0]
        if inside and any(s != inside[0] for s in inside):
            violations.append(f"sign-change: inside positions {lo + 1}..{hi - 1}")
        region_signs.append(inside[0] if inside else 0)
    for idx, (u, v) in enumerate(zip(region_signs, region_signs[1:])):
        if u and v and u != -v:
            violations.append(f"no-flip: across zero at position {zeros[idx]}")

    slack = 1 - 2 / threshold
    for t in range(1, a.dim + 1):
        lo = zeros[t - 2] if t >= 2 else None
        hi = zeros[t - 1] if t <= len(zeros) else None
        start = (lo + 2) if lo is not None else 1
        stop = (hi - 2) if hi is not None else a.length
        for i in range(max(start, 1), min(stop, a.length) + 1):
            own = abs(coeffs[t - 1] * a.entry(t, i))
            neighbours = Fraction(0)
            if t >= 2:
                neighbours += abs(coeffs[t - 2] * a.entry(t - 1, i))
            if t <= a.dim - 1:
                neighbours += abs(coeffs[t] * a.entry(t + 1, i))
            value = abs(b[i - 1])
            if not (slack * own < own - neighbours <= value < own):
                violations.append(f"bound: coordinate {t}, position {i}")
    return PinnedCombinationReport(combination=b, violations=tuple(violations))
