"""Reference decoders and builders the tests check the library against.

The library decodes witness fields with shifts and masks from a cached
layout and builds permutations in place; these are the plain versions it
replaced, kept here as references.
"""

from redkit.errors import ValidationError
from redkit.groups import Permutation


def unpack_fields(wit, widths):
    """The fields of ``wit``, most significant first, ``widths`` bits each."""
    if wit.length != sum(widths):
        raise ValidationError("witness length does not match field widths")
    out = []
    rest = wit.value
    shift = wit.length
    for w in widths:
        shift -= w
        out.append((rest >> shift) & ((1 << w) - 1))
    return tuple(out)


def block_diagonal(perms):
    """Concatenate permutations acting on consecutive disjoint blocks."""
    img = []
    off = 0
    for p in perms:
        img.extend(off + q for q in p)
        off += p.degree
    return Permutation(img)
