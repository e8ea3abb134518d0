"""``_canonical_value_ids``: each input slot maps to the first slot holding
an equal value, for hashable and unhashable inputs alike."""

import pytest

from repro.runtime.vectorized import _canonical_value_ids


def pairwise_scan(inputs):
    """The reference definition: first earlier slot comparing equal."""
    ids = []
    for index, value in enumerate(inputs):
        ids.append(next(earlier for earlier in range(index + 1)
                        if inputs[earlier] == value))
    return ids


@pytest.mark.parametrize("inputs", [
    [0, 1, 0, 1, 2, 2, 0],
    [1, 1.0, True, 2, 0, False, 0.0],
    [True, 1, "1", 1.0, b"1"],
    ["a", "b", "a", "c", "b"],
    [None, 0, None, (), ()],
    [[1], [2], [1], [1, 2], [2]],
    [[1], 1, [1], 1.0, True, [1.0]],
    [(1, [2]), (1, [2]), 3],
    list(range(40)) + list(range(40)),
    [7],
])
def test_matches_the_pairwise_scan(inputs):
    assert _canonical_value_ids(inputs) == pairwise_scan(inputs)


def test_equal_but_distinct_values_share_the_first_slot():
    assert _canonical_value_ids([2, 1, 1.0, True]) == [0, 1, 1, 1]


def test_unhashable_inputs_fall_back_to_the_scan():
    assert _canonical_value_ids([[0], [1], [0]]) == [0, 1, 0]
