"""Fixed-width bit-string witnesses.

A witness is a bit string of a declared length, carried as (value, length)
with the first field occupying the most significant bits.  ``Witness`` is
an immutable tuple subclass of those two fields, so ``witnesses`` builds
the witnesses of packed values known to fit in one C-level pipeline (``map``
of ``tuple.__new__`` over ``zip``) and adds no Python step per witness.
``all_witnesses`` is that pipeline over every value of a length, and the
valid-witness enumerators of the reductions and certificate schemes feed it
their packed values; the sweeps of ``redkit.certificates`` pull them the
same way.  Field widths are ``(upper + 1).bit_length()`` bits for a value
range [0, upper]; decoders must treat out-of-range field values as
"reject" rather than error.

Reductions and certificate schemes compute the layout of their fields (the
length, widths, shifts and masks) once per instance, so that a sweep over
every witness of an instance decodes each one with a few shifts.  Each
layout function is wrapped by ``instances.layout_cache``, which holds one
instance and its layout; its docstring says why one is enough.  The
certificate schemes build a layout once per shape behind it (see
``redkit.certificates``), and so does cm-to-permss, per vector count and
dimension (see ``redkit.pipeline``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import FrozenInstanceError
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def field_width(upper: int) -> int:
    """Bits needed to store any integer in [0, upper]."""
    if upper < 0:
        raise ValidationError("field upper bound must be nonnegative")
    return max(upper.bit_length(), 1)


class Witness(namedtuple("Witness", ("value", "length"))):
    """A ``length``-bit string whose value is ``value``.

    An immutable pair whose fields are read by C-level getters.  Every
    public constructor (``Witness(...)``, ``zero``, ``from_hex``, ``_make``
    and ``_replace``) checks that the value fits the length; assigning a
    field raises ``FrozenInstanceError``.  Being a tuple, a witness equals
    the plain tuple ``(value, length)``.
    """

    __slots__ = ()

    def __new__(cls, value: int, length: int) -> "Witness":
        if length < 0:
            raise ValidationError("witness length must be nonnegative")
        if not 0 <= value < (1 << length):
            raise ValidationError("witness value out of range for length")
        return tuple.__new__(cls, (value, length))

    @classmethod
    def _make(cls, iterable) -> "Witness":
        # the namedtuple one skips __new__; _replace goes through this one
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.length - 1 - i)) & 1
                     for i in range(self.length))

    def to_hex(self) -> str:
        nibbles = max((self.length + 3) // 4, 1)
        return format(self.value, f"0{nibbles}x")

    @classmethod
    def from_hex(cls, text: str, length: int) -> "Witness":
        # ASCII hex digits only: int(text, 16) also takes a sign,
        # whitespace, a 0x prefix, underscores and non-ASCII digits
        if not text or not _HEX_DIGITS.issuperset(text):
            raise ValidationError(f"bad witness hex: {text!r}")
        value = int(text, 16)
        if value >> length:
            raise ValidationError("witness hex wider than declared length")
        return cls(value, length)

    @classmethod
    def zero(cls, length: int) -> "Witness":
        return cls(0, length)


def pack_fields(values: Sequence[int], widths: Sequence[int]) -> Witness:
    if len(values) != len(widths):
        raise ValidationError("field count mismatch")
    acc = 0
    for v, w in zip(values, widths):
        if not 0 <= v < (1 << w):
            raise ValidationError(f"field value {v} does not fit in {w} bits")
        acc = (acc << w) | v
    return Witness(acc, sum(widths))


def witnesses(values: Iterable[int], length: int) -> Iterator[Witness]:
    """A ``length``-bit witness of each of ``values``, lazily, in order.

    For values known to fit ``length`` bits, such as those an enumerator
    packs from fields it keeps in range: the pairs skip the checks in
    ``Witness.__new__``, and ``tuple.__new__`` makes each witness in C, with
    no Python step per value.
    """
    return map(tuple.__new__, repeat(Witness), zip(values, repeat(length)))


def all_witnesses(length: int) -> Iterator[Witness]:
    """Every witness of ``length`` bits, in increasing value order."""
    if length < 0:
        raise ValidationError("witness length must be nonnegative")
    return witnesses(range(1 << length), length)
