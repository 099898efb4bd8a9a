"""Exact answers for the solve-mix inputs, computed without ``redkit.oracles``.

Each function decides one instance by a method unrelated to the oracle it is
compared against: big-integer bitsets for the subset-sum kinds and a
meet-in-the-middle search for 0/1 ILP.  They run during untimed set-up, so
a wrong oracle verdict cannot also hide in the expectation.
"""

from __future__ import annotations

def subset_sums_bitset(items) -> int:
    """Bit s is set iff some subset of ``items`` sums to s."""
    reach = 1
    for p in items:
        reach |= reach << p
    return reach


def modular_sums_bitset(items, q: int) -> int:
    """Bit r is set iff some subset of ``items`` sums to r mod q."""
    full = (1 << q) - 1
    reach = 1
    for p in items:
        p %= q
        if p:
            reach |= ((reach << p) | (reach >> (q - p))) & full
    return reach


def unbounded_sums_bitset(items, limit: int) -> int:
    """Bit s (s <= limit) is set iff s is a nonnegative combination of items.

    Per item, shifting by p, 2p, 4p, ... allows up to 2^j - 1 copies after
    j steps; doubling until the shift passes ``limit`` covers every count.
    """
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for p in items:
        if p < 1:
            continue
        shift = p
        while shift <= limit:
            reach |= (reach << shift) & mask
            shift <<= 1
    return reach


def ilp01_feasible(columns, rhs) -> bool:
    """Does some 0/1 choice of columns sum to rhs?  Meet in the middle."""
    half = len(columns) // 2

    def sums(cols):
        out = {(0,) * len(rhs)}
        for col in cols:
            out |= {tuple(a + b for a, b in zip(s, col)) for s in out}
        return out

    left = sums(columns[:half])
    for right in sums(columns[half:]):
        if tuple(b - r for b, r in zip(rhs, right)) in left:
            return True
    return False
