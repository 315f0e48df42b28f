import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmu_prospector.seeding import derive_seed, point_fractions
from scalar_hash import mix64, point_fraction


def test_derive_seed_is_stable_across_calls():
    assert derive_seed(0, "scan") == derive_seed(0, "scan")
    assert derive_seed(1, "scan", 42) == derive_seed(1, "scan", 42)


def test_derive_seed_separates_streams():
    seen = {derive_seed(0, name) for name in ("scan", "split", "collect", "channel-noise")}
    assert len(seen) == 4


def test_derive_seed_distinguishes_int_from_str():
    # "1" the string and 1 the integer must not collide
    assert derive_seed(0, "1") != derive_seed(0, 1)


def test_derive_seed_rejects_other_types():
    with pytest.raises(TypeError):
        derive_seed(0, 1.5)
    with pytest.raises(TypeError):
        derive_seed(True)


def test_derive_seed_rejects_integers_past_16_signed_bytes():
    assert derive_seed(-(2**127), 2**127 - 1) != derive_seed(2**127 - 1, -(2**127))
    for part in (2**127, -(2**127) - 1, 2**128):
        with pytest.raises(ValueError, match=r"\[-2\*\*127, 2\*\*127\)"):
            derive_seed(part, "scan")


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_range(value):
    assert 0 <= mix64(value) < 2**64


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=63),
)
def test_point_fraction_in_unit_interval(seed, pos, cand, it):
    f = point_fraction(seed, pos, cand, it)
    assert 0.0 <= f < 1.0
    assert f == point_fraction(seed, pos, cand, it)


def test_point_fraction_is_roughly_uniform():
    values = [point_fraction(9, i, 0, 0) for i in range(10000)]
    mean = sum(values) / len(values)
    assert 0.47 < mean < 0.53


def test_point_fraction_draws_do_not_depend_on_draw_count():
    # draw for iteration 3 is identical whether 5 or 50 iterations are sampled
    five = [point_fraction(1, 0, 7, it) for it in range(5)]
    fifty = [point_fraction(1, 0, 7, it) for it in range(50)]
    assert fifty[:5] == five


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=2**32),
)
@example(0, 0, [0, 255], 0)
@example(2**64 - 1, 15, [0, 65, 255], 9)
def test_point_fractions_match_point_fraction_bit_for_bit(seed, position, guesses, iteration):
    vector = point_fractions(seed, position, np.array(guesses), np.full(len(guesses), iteration))
    assert vector.dtype == np.float64
    assert vector.tolist() == [point_fraction(seed, position, g, iteration) for g in guesses]


def test_point_fractions_broadcast_a_trial_grid():
    guesses = np.repeat(np.arange(256), 3)
    iterations = np.tile(np.arange(3), 256)
    grid = point_fractions(5, 1, guesses, iterations).tolist()
    assert grid == [point_fraction(5, 1, g, i) for g in range(256) for i in range(3)]
    assert point_fractions(5, 1, 7, 2).tolist() == [point_fraction(5, 1, 7, 2)]
