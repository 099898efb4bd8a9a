"""Bit-string witnesses: packing, hex, and bounds."""

import copy
import dataclasses
import pickle

import pytest

from redkit.errors import ValidationError
from redkit.witness import Witness, all_witnesses, field_width, pack_fields

from helpers import unpack_fields


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
    # int(text, 16) takes a sign ("-1" would read as -1 and "-0" as 0),
    # whitespace, a 0x prefix and underscores ("0X_1" as 1, "f_f" as 255)
    # and non-ASCII digits (ARABIC-INDIC DIGIT ONE as 1); the empty string
    for text in ("-1", "-0", "+1", " 1", "1\n", "0X_1", "0x1", "f_f",
                 "\u0661", ""):
        with pytest.raises(ValidationError, match="bad witness hex"):
            Witness.from_hex(text, 4)


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
    for length in range(13):
        wits = list(all_witnesses(length))
        assert wits == [Witness(v, length) for v in range(1 << length)]
        assert all(type(w) is Witness for w in wits)
    wits = list(all_witnesses(3))
    assert hash(wits[5]) == hash(Witness(5, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        wits[0].value = 1
    with pytest.raises(ValidationError):
        all_witnesses(-1)


def test_every_constructor_checks_the_range():
    wit = Witness(5, 3)
    bad = [lambda: Witness(8, 3), lambda: Witness(-1, 3),
           lambda: Witness(0, -1), lambda: Witness(value=1, length=0),
           lambda: Witness.zero(-1), lambda: Witness.from_hex("8", 3),
           lambda: Witness._make((8, 3)), lambda: Witness._make((0, -1)),
           lambda: wit._replace(value=8), lambda: wit._replace(length=2)]
    for make in bad:
        with pytest.raises(ValidationError):
            make()
    assert Witness._make((5, 3)) == wit
    assert type(Witness._make((5, 3))) is Witness
    assert wit._replace(value=2) == Witness(2, 3)
    assert wit._replace(length=4) == Witness(5, 4)
    assert type(wit._replace(length=4)) is Witness


def test_fields_cannot_be_assigned():
    wit = Witness(5, 3)
    for name in ("value", "length", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(wit, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del wit.value
    assert wit == Witness(5, 3)


def test_repr_hash_and_equality():
    wit = Witness(5, 3)
    assert repr(wit) == "Witness(value=5, length=3)"
    assert repr(Witness(0, 0)) == "Witness(value=0, length=0)"
    assert hash(wit) == hash((5, 3))
    assert (wit.value, wit.length) == (5, 3)
    assert wit.to_hex() == "5" and Witness(5, 9).to_hex() == "005"
    assert wit.bits() == (1, 0, 1)
    assert wit == Witness(5, 3) and wit != Witness(5, 4)
    assert wit != Witness(4, 3)
    assert len({wit, Witness(5, 3), Witness(5, 4)}) == 2
    # a witness is a (value, length) tuple, so it equals the plain pair
    assert wit == (5, 3)


def test_pickle_and_copy_round_trips():
    for wit in (Witness(5, 3), Witness(0, 0), Witness((1 << 70) - 1, 70)):
        for again in (pickle.loads(pickle.dumps(wit)), copy.copy(wit),
                      copy.deepcopy(wit)):
            assert again == wit and type(again) is Witness
            assert repr(again) == repr(wit)
