"""Unit tests for personae (pre-flipped randomness bundles)."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.persona import (
    Persona,
    _sifting_persona,
    _snapshot_persona,
    highest_priority,
)
from repro.errors import ConfigurationError
from repro.memory.snapshot import SparseView


class TestPersonaBasics:
    def test_hashable_and_countable(self):
        one = Persona(value=1, origin=0)
        two = Persona(value=1, origin=1)
        assert len({one, two, one}) == 2

    def test_equality_is_structural(self):
        assert Persona(value=1, origin=0) == Persona(value=1, origin=0)

    def test_coin_must_be_binary(self):
        with pytest.raises(ConfigurationError):
            Persona(value=1, origin=0, coin=2)

    def test_immutability(self):
        persona = Persona(value=1, origin=0)
        with pytest.raises(Exception):
            persona.value = 2


class TestSnapshotPersona:
    def test_priority_vector_length(self):
        persona = Persona.for_snapshot(
            "v", 3, random.Random(0), rounds=5, priority_range=100
        )
        assert len(persona.priorities) == 5

    def test_priorities_in_range(self):
        persona = Persona.for_snapshot(
            "v", 0, random.Random(1), rounds=50, priority_range=10
        )
        assert all(1 <= priority <= 10 for priority in persona.priorities)

    def test_priority_accessor(self):
        persona = Persona.for_snapshot(
            "v", 0, random.Random(2), rounds=3, priority_range=1000
        )
        assert persona.priority(1) == persona.priorities[1]

    def test_different_rngs_give_different_priorities(self):
        one = Persona.for_snapshot("v", 0, random.Random(1), 10, 10**9)
        two = Persona.for_snapshot("v", 0, random.Random(2), 10, 10**9)
        assert one.priorities != two.priorities

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            Persona.for_snapshot("v", 0, random.Random(0), 0, 10)

    def test_rejects_bad_priority_range(self):
        with pytest.raises(ConfigurationError):
            Persona.for_snapshot("v", 0, random.Random(0), 1, 0)

    def test_carries_combine_coin(self):
        persona = Persona.for_snapshot("v", 0, random.Random(0), 1, 10)
        assert persona.coin in (0, 1)


class TestSiftingPersona:
    def test_write_bits_length(self):
        persona = Persona.for_sifting("v", 0, random.Random(0), [0.5] * 7)
        assert len(persona.write_bits) == 7

    def test_probability_one_always_writes(self):
        persona = Persona.for_sifting("v", 0, random.Random(0), [1.0] * 20)
        assert all(persona.write_bits)

    def test_probability_zero_never_writes(self):
        persona = Persona.for_sifting("v", 0, random.Random(0), [0.0] * 20)
        assert not any(persona.write_bits)

    def test_chooses_write_accessor(self):
        persona = Persona.for_sifting("v", 0, random.Random(3), [0.5] * 4)
        assert persona.chooses_write(2) == persona.write_bits[2]

    def test_rejects_empty_schedule(self):
        with pytest.raises(ConfigurationError):
            Persona.for_sifting("v", 0, random.Random(0), [])

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ConfigurationError):
            Persona.for_sifting("v", 0, random.Random(0), [1.5])

    def test_bits_frequency_tracks_probability(self):
        # Statistical sanity: p = 0.8 should set most bits.
        persona = Persona.for_sifting("v", 0, random.Random(0), [0.8] * 500)
        fraction = sum(persona.write_bits) / 500
        assert 0.7 < fraction < 0.9


class TestFactoryConstruction:
    """The factories set a persona's slots directly instead of running the
    frozen ``__init__``; what they build must be indistinguishable from a
    constructor-built persona."""

    def built_pairs(self):
        snapshot = Persona.for_snapshot("v", 2, random.Random(5), 6, 1000)
        sifting = Persona.for_sifting("w", 4, random.Random(6), [0.5] * 9)
        for built in (snapshot, sifting):
            yield built, Persona(
                value=built.value, origin=built.origin,
                priorities=built.priorities, write_bits=built.write_bits,
                coin=built.coin,
            )

    def test_equal_hash_and_repr(self):
        for built, constructed in self.built_pairs():
            assert built == constructed
            assert hash(built) == hash(constructed)
            assert repr(built) == repr(constructed)

    def test_pickle_round_trip(self):
        for built, constructed in self.built_pairs():
            restored = pickle.loads(pickle.dumps(built))
            assert restored == built == constructed
            assert type(restored) is Persona

    def test_replace_and_astuple(self):
        for built, constructed in self.built_pairs():
            assert dataclasses.astuple(built) == dataclasses.astuple(constructed)
            assert dataclasses.replace(built, value="x") == dataclasses.replace(
                constructed, value="x"
            )
            with pytest.raises(ConfigurationError):
                dataclasses.replace(built, coin=2)

    def test_fields_stay_frozen(self):
        for built, _ in self.built_pairs():
            for field in dataclasses.fields(Persona):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(built, field.name, None)

    def test_slotted(self):
        persona = Persona.for_sifting("v", 0, random.Random(0), [0.5])
        assert not hasattr(persona, "__dict__")

    @pytest.mark.parametrize("probabilities", [
        [float("nan")], [0.5, 1.5], [0.5, float("nan"), 0.5],
    ])
    def test_sifting_refuses_nan_and_out_of_range(self, probabilities):
        with pytest.raises(ConfigurationError):
            Persona.for_sifting("v", 0, random.Random(0), probabilities)

    def test_conciliator_paths_draw_what_the_public_factories_draw(self):
        probabilities = [0.9, 0.5, 0.25, 1.0, 0.0]
        for seed in range(10):
            public, private = random.Random(seed), random.Random(seed)
            assert _sifting_persona(
                "v", 1, private, probabilities
            ) == Persona.for_sifting("v", 1, public, probabilities)
            assert _snapshot_persona(
                "v", 1, private, 7, 10**6
            ) == Persona.for_snapshot("v", 1, public, 7, 10**6)
            assert private.random() == public.random()


class TestInlinedRandint:
    """``for_snapshot`` inlines ``randint``'s rejection loop; every seeded
    artifact assumes the streams stay equal, so a change in CPython's
    ``randint`` must fail here rather than drift silently."""

    @pytest.mark.parametrize("priority_range", [
        1, 2, 3, 7, 8, 9, 15, 16, 17, 255, 256, 257, 2**31 - 1, 2**31,
        2**31 + 1, 2**40 + 12345, 10**30,
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2012])
    def test_priorities_and_later_stream_equal_randint(self, seed, priority_range):
        rounds = 40
        reference = random.Random(seed)
        expected = tuple(
            reference.randint(1, priority_range) for _ in range(rounds)
        )
        expected_coin = reference.randrange(2)
        rng = random.Random(seed)
        persona = Persona.for_snapshot("v", 0, rng, rounds, priority_range)
        assert persona.priorities == expected
        assert persona.coin == expected_coin
        # The stream after the persona is where the reference left off.
        assert [rng.random() for _ in range(5)] == [
            reference.random() for _ in range(5)
        ]


class TestInlinedCoin:
    """``for_sifting`` and ``for_snapshot`` inline ``randrange(2)`` for the
    combine coin; the stream must stay the one ``randrange`` draws."""

    @pytest.mark.parametrize("seed", range(40))
    def test_sifting_bits_coin_and_later_stream_equal_reference(self, seed):
        probabilities = [0.9, 0.6, 0.5, 0.5, 0.25, 0.5, 0.5]
        reference = random.Random(seed)
        expected_bits = tuple(
            reference.random() < p for p in probabilities
        )
        expected_coin = reference.randrange(2)
        rng = random.Random(seed)
        persona = Persona.for_sifting("v", 3, rng, probabilities)
        assert persona == Persona(
            value="v", origin=3, write_bits=expected_bits,
            coin=expected_coin,
        )
        assert [rng.random() for _ in range(5)] == [
            reference.random() for _ in range(5)
        ]


def reference_adoption(view, round_index):
    candidates = [entry for entry in view if entry is not None]
    return max(
        candidates,
        key=lambda entry: (entry.priority(round_index), entry.origin),
    )


@st.composite
def views(draw):
    rounds = draw(st.integers(min_value=1, max_value=3))
    # A small pool, so views repeat personae (equal and identical) and
    # share priorities; a small priority range forces ties.
    top = draw(st.sampled_from([1, 2, 3, 10**6]))
    pool = draw(st.lists(
        st.builds(
            Persona,
            value=st.integers(0, 3),
            origin=st.integers(-1, 5),
            priorities=st.tuples(*[st.integers(1, top)] * rounds),
        ),
        min_size=1, max_size=6,
    ))
    entries = draw(st.lists(
        st.one_of(st.none(), st.sampled_from(pool)), min_size=1, max_size=12,
    ).filter(lambda entries: any(entry is not None for entry in entries)))
    round_index = draw(st.integers(0, rounds - 1))
    return entries, round_index


class TestHighestPriority:
    @given(views())
    def test_returns_the_object_max_returns(self, case):
        entries, round_index = case
        assert highest_priority(entries, round_index) is reference_adoption(
            entries, round_index
        )

    @given(views())
    def test_sparse_views_agree(self, case):
        entries, round_index = case
        sparse = SparseView(
            tuple((index, entry) for index, entry in enumerate(entries)
                  if entry is not None),
            len(entries),
        )
        assert highest_priority(sparse, round_index) is reference_adoption(
            sparse, round_index
        )

    def test_priority_tie_breaks_by_origin_then_view_order(self):
        low = Persona(value="a", origin=1, priorities=(5,))
        high = Persona(value="b", origin=4, priorities=(5,))
        twin = Persona(value="b", origin=4, priorities=(5,))
        view = (None, low, high, None, twin)
        assert highest_priority(view, 0) is high

    def test_empty_view_raises_like_max(self):
        with pytest.raises(ValueError):
            highest_priority((None, None), 0)
