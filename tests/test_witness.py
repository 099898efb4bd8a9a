"""Bit-string witnesses: packing, hex, and bounds."""

import dataclasses

import pytest

from redkit.errors import ValidationError
from redkit.witness import Witness, all_witnesses, field_width, pack_fields, \
    unpack_fields


def test_field_width():
    assert field_width(0) == 1
    assert field_width(1) == 1
    assert field_width(2) == 2
    assert field_width(7) == 3
    assert field_width(8) == 4
    with pytest.raises(ValidationError):
        field_width(-1)


def test_witness_bounds():
    Witness(0, 0)
    Witness(3, 2)
    with pytest.raises(ValidationError):
        Witness(4, 2)
    with pytest.raises(ValidationError):
        Witness(-1, 2)
    with pytest.raises(ValidationError):
        Witness(1, 0)


def test_bits_msb_first():
    assert Witness(0b1101, 4).bits() == (1, 1, 0, 1)
    assert Witness(1, 3).bits() == (0, 0, 1)
    assert Witness(0, 0).bits() == ()


def test_hex_round_trip():
    for val, length in [(0, 0), (5, 3), (255, 8), (256, 9), (1, 13)]:
        wit = Witness(val, length)
        assert Witness.from_hex(wit.to_hex(), length) == wit
    with pytest.raises(ValidationError):
        Witness.from_hex("ff", 3)


def test_pack_unpack_round_trip():
    widths = [3, 1, 5, 2]
    values = [5, 1, 19, 0]
    wit = pack_fields(values, widths)
    assert wit.length == sum(widths)
    assert unpack_fields(wit, widths) == tuple(values)


def test_pack_rejects_overflow():
    with pytest.raises(ValidationError):
        pack_fields([4], [2])


def test_unpack_needs_exact_length():
    with pytest.raises(ValidationError):
        unpack_fields(Witness(0, 4), [3])


def test_all_witnesses_enumeration():
    seen = list(all_witnesses(3))
    assert len(seen) == 8
    assert len(set(seen)) == 8
    assert list(all_witnesses(0)) == [Witness(0, 0)]


def test_all_witnesses_are_plain_frozen_witnesses():
    wits = list(all_witnesses(3))
    assert wits == [Witness(v, 3) for v in range(8)]
    assert all(type(w) is Witness for w in wits)
    assert hash(wits[5]) == hash(Witness(5, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        wits[0].value = 1
    assert list(all_witnesses(0)) == [Witness(0, 0)]
    with pytest.raises(ValidationError):
        all_witnesses(-1)
