"""Fixed-width bit-string witnesses.

A witness is a bit string of a declared length, carried as (value, length)
with the first field occupying the most significant bits.  ``Witness`` is
an immutable tuple subclass of those two fields, so ``all_witnesses`` builds
every witness of a length in one C-level pipeline (``map`` of
``tuple.__new__`` over ``zip``) and adds no Python step per witness; the
sweeps of ``redkit.certificates`` pull them the same way.  Field widths are
``(upper + 1).bit_length()`` bits for a value range [0, upper]; decoders must
treat out-of-range field values as "reject" rather than error.

Reductions and certificate schemes compute the layout of their fields (the
length, widths, shifts and masks) once per instance, so that a sweep over
every witness of an instance decodes each one with a few shifts.  Each
layout function is wrapped by ``layout_cache``, which holds one instance and
its layout; its docstring says why one is enough.  The certificate schemes
build a layout once per shape behind it (see ``redkit.certificates``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import FrozenInstanceError
from functools import wraps
from itertools import repeat
from typing import Callable, Iterator, Sequence

from .errors import ValidationError


def layout_cache(build: Callable) -> Callable:
    """``build(inst)``, kept for the last instance object asked for.

    The memo holds exactly one instance and its layout, and reuses the
    layout while the very same object (``is``) is asked for again, so a hit
    costs one identity test and never hashes the instance.  A sweep checks
    every witness of one instance before the next, and a chain of
    reductions (``reductions.compose``) hands the next link one
    intermediate object per run of witnesses, so one entry is all either
    needs.  A caller that interleaves instances rebuilds the layout on each
    switch; nothing is kept past the last instance.  The pair is the item
    of the list ``layout.last``, so a verifier can test it without a call.

    ``build`` may itself look the layout up by the instance's shape, as the
    certificate schemes do (an ``lru_cache`` keyed by a few ints): a switch
    to a new instance then costs that lookup, instances of one shape share
    one layout object, and still no instance is kept past the last one.
    """
    # one tuple, stored in a single store, so the pair never mixes two
    # calls; it starts with an object no caller holds
    last = [(object(), None)]

    @wraps(build)
    def layout(inst):
        held, lay = last[0]
        if inst is held:
            return lay
        lay = build(inst)
        last[0] = (inst, lay)
        return lay
    layout.last = last
    return layout


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
        try:
            value = int(text, 16)
        except ValueError as exc:
            raise ValidationError(f"bad witness hex: {text!r}") from exc
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


def all_witnesses(length: int) -> Iterator[Witness]:
    """Every witness of ``length`` bits, in increasing value order."""
    if length < 0:
        raise ValidationError("witness length must be nonnegative")
    # Each value of range(1 << length) fits by construction, so the pairs
    # skip the checks in Witness.__new__: tuple.__new__ makes each witness
    # in C, with no Python step per value.
    return map(tuple.__new__, repeat(Witness),
               zip(range(1 << length), repeat(length)))
