import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primecover.residues import ResidueSet, from_positions, positions


def test_from_elements_and_membership():
    s = ResidueSet.from_elements(7, [2, 3, 10])  # 10 = 3 mod 7
    assert s.elements() == [2, 3]
    assert 2 in s and 3 in s and 5 not in s
    assert len(s) == 2


def test_first_is_least_member():
    assert ResidueSet.empty(7).first() is None
    assert ResidueSet.from_elements(7, [5, 3, 6]).first() == 3
    assert ResidueSet.full_units(999983).first() == 1
    assert ResidueSet.from_elements(999983, [999982]).first() == 999982
    for bits in range(2, 1 << 11, 2):
        s = ResidueSet(11, bits)
        assert s.first() == min(s.elements())


def test_zero_rejected():
    with pytest.raises(ValueError):
        ResidueSet.from_elements(7, [7])
    with pytest.raises(ValueError):
        ResidueSet(7, 1)  # bit 0


def test_bits_outside_range_rejected():
    with pytest.raises(ValueError):
        ResidueSet(5, 1 << 5)


def test_set_algebra():
    a = ResidueSet.from_elements(11, [1, 2, 3])
    b = ResidueSet.from_elements(11, [3, 4])
    assert (a | b).elements() == [1, 2, 3, 4]
    assert (a & b).elements() == [3]
    assert (a - b).elements() == [1, 2]
    assert b.is_subset(a | b)
    with pytest.raises(ValueError):
        a | ResidueSet.from_elements(7, [1])


def test_full_and_complement():
    full = ResidueSet.full_units(5)
    assert full.elements() == [1, 2, 3, 4]
    assert full.covers_units
    s = ResidueSet.from_elements(5, [1, 4])
    assert s.complement_units().elements() == [2, 3]
    assert ResidueSet.empty(5).complement_units() == full


def test_positions_order():
    assert positions(0b101010, 6).tolist() == [1, 3, 5]
    assert positions(0, 6).tolist() == []


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=1, max_value=80).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    )
)
@example((13, 0))
@example((13, 1 << 12))
@example((1, 1))
@example((8, 0xFF))
@example((9, 0b100000001))
def test_codec_round_trip_from_mask(case):
    length, bits = case
    idx = positions(bits, length)
    assert idx.dtype == np.int64
    assert idx.tolist() == [i for i in range(length) if bits >> i & 1]
    assert from_positions(idx, length) == bits


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=1, max_value=80).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(min_value=0, max_value=n - 1)))
    )
)
@example((13, []))
@example((13, [12, 12, 0]))
@example((17, [16]))
def test_codec_round_trip_from_indices(case):
    length, idx = case
    bits = from_positions(idx, length)
    assert bits == sum(1 << i for i in set(idx))
    assert positions(bits, length).tolist() == sorted(set(idx))
