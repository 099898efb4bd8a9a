"""Permutations, the group U_q = Z_q^2 x| Z_2, and run-detecting homomorphisms.

Composition convention, used everywhere in the package: ``(a * b)(v) == a(b(v))``,
i.e. the right factor acts first.  Products of sequences are always taken in
increasing index order, ``g_1 * g_2 * ... * g_r``.

A ``Permutation`` is a ``tuple`` subclass holding its images, with no
``__dict__``: it equals and hashes like its image tuple, and code that
builds a permutation by construction (a product, the identity, or blocks
on disjoint points) makes it with ``tuple.__new__(Permutation, images)``,
skipping the check in ``Permutation.__new__``.

One cache lives here: ``_landau_table``, the one table of minimal-degree
permutations of large order.  ``make_run_context`` builds a new context on
each call; a context builds its generator images and its three letters
gamma_hat(-1), gamma_hat(0), gamma_hat(1) once, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ConstructionError, ValidationError


class Permutation(tuple):
    """A permutation in one-line notation over 0-based points: the tuple of
    its images, so it equals and hashes like that plain tuple."""

    __slots__ = ()

    def __new__(cls, images):
        self = tuple.__new__(cls, images)
        if sorted(self) != list(range(len(self))):
            raise ValidationError(f"not a permutation: {tuple(self)!r}")
        return self

    def __repr__(self) -> str:
        return f"Permutation(images={tuple.__repr__(self)})"

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, point: int) -> int:
        return self[point]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self * other, where other acts first."""
        if len(other) != len(self):
            raise ValidationError("degree mismatch in composition")
        # a product of permutations is one: skip the check in __new__
        return tuple.__new__(Permutation, map(self.__getitem__, other))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, p in enumerate(self):
            inv[p] = i
        return Permutation(inv)

    def power(self, e: int) -> "Permutation":
        if e < 0:
            return self.inverse().power(-e)
        acc = identity(self.degree)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = self[start]
            while p != start:
                seen[p] = True
                cyc.append(p)
                p = self[p]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self))


def identity(degree: int) -> Permutation:
    # a permutation by construction: skip the check in __new__
    return tuple.__new__(Permutation, range(degree))


def from_cycles(degree: int, cycles: list[tuple[int, ...]]) -> Permutation:
    img = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return Permutation(tuple(img))


# ---------------------------------------------------------------------------
# The group U_q.

@dataclass(frozen=True)
class UqElement:
    """Element ((x, y), z) of Z_q^2 x| Z_2, with Z_2 acting by coordinate swap."""

    x: int
    y: int
    z: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValidationError("q must be positive")
        if not (0 <= self.x < self.q and 0 <= self.y < self.q):
            raise ValidationError("coordinates out of Z_q range")
        if self.z not in (0, 1):
            raise ValidationError("z must be 0 or 1")

    def mul(self, other: "UqElement") -> "UqElement":
        if other.q != self.q:
            raise ValidationError("mixed moduli")
        q = self.q
        if self.z == 0:
            nx, ny = (self.x + other.x) % q, (self.y + other.y) % q
        else:
            nx, ny = (self.x + other.y) % q, (self.y + other.x) % q
        return UqElement(nx, ny, self.z ^ other.z, q)

    __mul__ = mul

    def inverse(self) -> "UqElement":
        q = self.q
        if self.z == 0:
            return UqElement((-self.x) % q, (-self.y) % q, 0, q)
        return UqElement((-self.y) % q, (-self.x) % q, 1, q)


def uq_identity(q: int) -> UqElement:
    return UqElement(0, 0, 0, q)


def gamma(b: int, q: int) -> UqElement:
    """Letter embedding: -1, 0, +1 into U_q."""
    if b == -1:
        return UqElement(1, 0, 1, q)
    if b == 0:
        return uq_identity(q)
    if b == 1:
        return UqElement(0, 1, 1, q)
    raise ValidationError(f"letter must be in {{-1,0,1}}, got {b!r}")


def uq_product(seq, q: int) -> UqElement:
    acc = uq_identity(q)
    for b in seq:
        acc = acc * gamma(b, q)
    return acc


def run_check_uq(seq, q: int) -> tuple[UqElement, bool]:
    """Product of the letter embeddings, and whether it has run form.

    Run form means ((0, n'), 0) with 0 <= n' <= len(seq); the empty run is the
    neutral element.  Requires q > len(seq) so counts cannot wrap.
    """
    seq = list(seq)
    if q <= len(seq):
        raise ValidationError("q must exceed the sequence length")
    prod = uq_product(seq, q)
    ok = prod.z == 0 and prod.x == 0 and prod.y <= len(seq)
    return prod, ok


# ---------------------------------------------------------------------------
# Small-degree permutations of large order.

_DEGREE_CAP = 128


# the table holds about 24 KB (23,560 B measured by tracemalloc, Python
# 3.11), and its build peaks at about 84 KB
@lru_cache(maxsize=1)
def _landau_table() -> list[tuple[int, tuple[int, ...]]]:
    """best[r] = (max order of a degree-r permutation, witnessing cycle lengths).

    Textbook DP over distinct prime powers: an order-maximal permutation of
    degree r is a disjoint union of cycles whose lengths are powers of
    distinct primes.  The table is non-decreasing in r: it starts constant,
    and each prime's pass takes a maximum of non-decreasing terms.
    """
    primes = [p for p in range(2, _DEGREE_CAP + 1)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    best: list[tuple[int, tuple[int, ...]]] = [(1, ())] * (_DEGREE_CAP + 1)
    for p in primes:
        nxt = list(best)
        for budget in range(p, _DEGREE_CAP + 1):
            pk = p
            while pk <= budget:
                order, parts = best[budget - pk]
                if order * pk > nxt[budget][0]:
                    nxt[budget] = (order * pk, parts + (pk,))
                pk *= p
        best = nxt
    return best


def landau_permutation(n: int) -> tuple[Permutation, int]:
    """A permutation of order > n of minimal degree, picked from the
    Landau-function table; returns (perm, degree)."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    table = _landau_table()
    for r in range(1, _DEGREE_CAP + 1):
        order, parts = table[r]
        if order > n:
            deg = sum(parts) if parts else 1
            return _consecutive_cycles(deg, parts), deg
    raise ConstructionError(f"degree cap {_DEGREE_CAP} too small for n={n}")


def _consecutive_cycles(degree: int, lengths: tuple[int, ...]) -> Permutation:
    cycles = []
    off = 0
    for ln in lengths:
        cycles.append(tuple(range(off, off + ln)))
        off += ln
    if off > degree:
        raise ConstructionError("cycle lengths exceed degree")
    return from_cycles(degree, cycles)


def degree_bound(n: int) -> int:
    """Pinned polylog bound the landau search must stay under."""
    return max(2, math.ceil(6 * math.log2(n + 2) ** 3))


# ---------------------------------------------------------------------------
# The faithful image of U_q in S_{2r}: chi and the run homomorphism gamma-hat.

@dataclass(frozen=True)
class RunContext:
    """Carrier data for detecting runs inside a symmetric group.

    ``carrier`` is a permutation g of degree r whose order q exceeds the
    sequence lengths of interest.  U_q embeds into S_{2r} over the domain
    [r] x {0,1}, flattened as (i, j) -> i + j*r: pi0 acts as g on the j=0
    block, pi1 as g on the j=1 block, and piz swaps the blocks.
    """

    n_bound: int
    q: int
    carrier: Permutation

    @property
    def r(self) -> int:
        return self.carrier.degree

    @property
    def domain(self) -> int:
        return 2 * self.carrier.degree

    # the generator images and the three letters are built once per
    # context: pi_exponent and pipeline._cps_shape read them
    @cached_property
    def pi0(self) -> Permutation:
        return self.chi(UqElement(0, 1, 0, self.q))

    @cached_property
    def pi1(self) -> Permutation:
        return self.chi(UqElement(1, 0, 0, self.q))

    @cached_property
    def piz(self) -> Permutation:
        return self.chi(UqElement(0, 0, 1, self.q))

    @cached_property
    def _letters(self) -> dict[int, Permutation]:
        return {b: self.chi(gamma(b, self.q)) for b in (-1, 0, 1)}

    @property
    def pi(self) -> Permutation:
        """The distinguished power-counting permutation, chi(((0,1),0)) = pi0."""
        return self.pi0

    def chi(self, e: UqElement) -> Permutation:
        """The faithful homomorphism U_q -> S_{2r}.

        On generators: chi((0,1),0) = pi0, chi((1,0),0) = pi1,
        chi((0,0),1) = piz, so chi(((x,y),z)) = pi1^x * pi0^y * piz^z.
        """
        if e.q != self.q:
            raise ValidationError("element modulus differs from context")
        r = self.r
        gx = self.carrier.power(e.x)
        gy = self.carrier.power(e.y)
        img = [0] * (2 * r)
        for p in range(2 * r):
            t = (p + r) % (2 * r) if e.z else p
            img[p] = gy[t] if t < r else gx[t - r] + r
        return Permutation(img)

    def gamma_hat(self, b: int) -> Permutation:
        """chi(gamma(b)); a letter outside {-1, 0, 1} is a ValidationError."""
        letter = self._letters.get(b)
        return letter if letter is not None else self.chi(gamma(b, self.q))

    def pi_exponent(self, perm: Permutation) -> int | None:
        """The n' in [0, n_bound] with perm == pi^n', or None."""
        acc = identity(self.domain)
        pi = self.pi
        for e in range(self.n_bound + 1):
            if acc == perm:
                return e
            acc = pi * acc
        return None


def make_run_context(n: int) -> RunContext:
    """Context whose carrier order exceeds max(n, 1), for run detection on
    length-n input: a carrier of order 1 would leave U_1 no pi0."""
    carrier, _deg = landau_permutation(max(n, 1))
    return RunContext(n_bound=n, q=carrier.order(), carrier=carrier)
