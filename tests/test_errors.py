"""Package errors cross a process boundary intact."""

import pickle

import pytest

from mssvs.errors import CapacityError, CutoffTooSmallError


@pytest.mark.parametrize(
    "error,attributes",
    [
        (CapacityError(66, 64), {"requested": 66, "cap": 64}),
        (CutoffTooSmallError(40, 1e-3, 60), {"cutoff": 40, "tail": 1e-3, "required_cutoff": 60}),
    ],
)
def test_pickle_round_trip(error, attributes):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name, value in attributes.items():
        assert getattr(copy, name) == value
