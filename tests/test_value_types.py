"""Every value type survives copy.copy, copy.deepcopy and pickle with its type and value."""
import copy
import pickle

import pytest

from tverberg import (
    Matrix,
    Partition,
    PointSequence,
    build_system,
    decide_tverberg,
    dominance_report,
    enumerate_valid_fillings,
    gen_power_sequence,
    gen_super_dominant,
    ordered_lift,
)

SUP = gen_super_dominant(2, 2)
PARTITION = Partition(4, [[1, 3], [2, 4]])

# DominanceProfile is left out: it compares by identity.
VALUES = {
    "Matrix": lambda: Matrix([[1, "1/2"], [3, 4]]),
    "TverbergSystem": lambda: build_system(SUP.points, PARTITION),
    "PointSequence tabled": lambda: gen_power_sequence(2, [[1, 2, 3], [2, 4, 6]]),
    "PointSequence from rows": lambda: PointSequence([[1, "2/3", 5]]),
    "Partition": lambda: PARTITION,
    "Filling": lambda: enumerate_valid_fillings(PARTITION, 1)[0],
    "TverbergVerdict": lambda: decide_tverberg(SUP.points, PARTITION),
    "SuperDominantSequence": lambda: SUP,
    "DominanceReport": lambda: dominance_report(
        SUP.points, PARTITION, 1, SUP.q, ordered_lift(SUP.points, SUP.q)[1]
    ),
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
@pytest.mark.parametrize("make", VALUES.values(), ids=list(VALUES))
def test_value_round_trips(make, trip):
    value = make()
    again = trip(value)
    assert type(again) is type(value)
    assert again == value
