"""Certificate schemes with short witnesses, and the sweep that
machine-checks reduction contracts.

Certificates are fixed-width bit strings (``Witness`` values): a count field
followed by fixed slots, with unused trailing slots required to be zero.  A
verifier never raises on a malformed certificate; it rejects.  A scheme's
layout (length, shifts, masks and ``len_bound``) depends only on the
instance's shape: (t, n) for unbounded subset sum, (k, n) for Z_k^k, where
n is the item or element count.  Each shape is built once and kept in an
``lru_cache`` of ``USS_SHAPE_CACHE`` or ``ZKK_SHAPE_CACHE`` entries keyed by
those ints, and ``instances.layout_cache`` keeps the last instance's shape
in front of it; each verifier reads the kept pair inline, so its many calls on
one instance neither hash the instance nor call the layout function, and a
new instance of a known shape costs one cache lookup.  The Z_k^k verifier
adds the chosen elements as packed ints, k fields of w + 1 bits with
w = (2k - 1).bit_length(), and after each addition takes k off every field
that reached k, with the shape's addend and carry mask; it accepts when the
sum is the instance's packed target.  Its memo keeps, beside the shared
shape, that packed target and each element's packing, made the first time
a certificate chooses the element (one outside Z_k^k is a
``ValidationError`` then).  The layout function refuses, with one
``ValidationError``, an instance it cannot lay out: an unbounded target
that is not a nonnegative int (4.0 would alias the shape of 4) or a
negative item, a group other than Z_k^k with an int k >= 1, or a target
outside it; every entry point of a scheme goes through it.  The
synthesizers pack a certificate with the shape's shifts, and a field value
out of its range is a ``ValidationError``.

Only certificates that can reach the accept comparison are listed.  Items
are nonnegative, so an unbounded certificate whose running total passes t
never sums to t: the verifier rejects at the first slot that passes it, and
the enumerator lists exactly the certificates whose every running total
stays within t.  Per count, it walks the increasing index tuples and never
extends one whose items sum past t (at most n steps per listed certificate
and count), then the multiplicities of every slot but the last with what
each leaves of t, and yields the last slot's as one ``range``.  The Z_k^k
certificates whose indices decode depend on (k, n) alone: a shape with at
most ``ZKK_VALID_KEPT`` of them keeps their packed values in its layout, one
tuple built with the layout, and a larger one streams them.

A certificate scheme is a nondeterministic transformation whose target is
decided at once: ``CertificateScheme.reduction()`` maps a certificate to
the kind's trivial yes instance when ``verify`` accepts it and to the
trivial no instance otherwise.  So ``nppt_contract_check`` is the one sweep
for reductions and schemes alike (``certificate_scheme_check`` sweeps
``scheme.reduction()``), and ``compose(chain, scheme.reduction())`` carries
a scheme back along a reduction chain.  Yes instances must accept the
synthesized witness.  No instances must accept none, each covered by the
cheaper of two exact paths.  The stratified path checks every witness the
reduction enumerates as structurally valid, then probes the invalid
stratum with the all-zero, all-one and ``INVALID_SAMPLES`` random
witnesses, skipping a probe that is itself valid; each probe must map to a
declared constant answered no, which is what the transforms collapse an
invalid witness to.  The exhaustive path enumerates all ``2^L`` witnesses.
A no-instance with ``2^L <= exhaustive_cap`` is stratified only when its
valid list plus the ``2 + INVALID_SAMPLES`` probes is shorter than
``2^L``, so one of at most 4 bits never lists its valid witnesses.  A wider
one is stratified, or skipped when its valid list holds more than
``VALID_CAP``.  Reports record which path covered each instance; anything
not covered is listed as skipped, never silently passed.

One C-level pipeline, ``map`` of ``transform`` over ``repeat(inst)`` and
``compress``, transforms the witnesses of an instance, with no Python frame
of its own per witness.  The sweep has the oracle decide each of the
reduction's declared ``constants`` the first time it meets it, and
``filter`` drops every later target that is a constant answered no: Python
runs only on another target.  ``compress`` draws one number from a counter
per witness pulled, so ``witnesses_checked`` is exact however the loop ends;
a witness whose ``transform`` raised is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from itertools import (chain, combinations, compress, count, filterfalse,
                       islice, product, repeat)
from operator import is_not, itemgetter, lshift, ne
from random import Random
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from . import instances as I
from .errors import (ConstructionError, RedkitError, ReductionError,
                     ResourceLimitError, ValidationError)
from .oracles import check_solution, solve
from .witness import Witness, all_witnesses, field_width, witnesses

if TYPE_CHECKING:
    from .reductions import Reduction


@dataclass(frozen=True)
class CertificateScheme:
    """Nondeterministic-bit certificate scheme for one problem kind.

    ``verify`` must accept some certificate iff the instance is a yes
    instance; ``synthesize`` produces an accepting certificate from a known
    solution.  ``valid_certificates`` enumerates a superset of every
    certificate that could possibly reach the accept comparison (used for
    stratified soundness sweeps); ``len_bound`` is the per-instance numeric
    bit-budget ceiling that ``cert_len`` is expected to satisfy.
    """

    name: str
    problem_kind: str
    cert_len: Callable[[I.ProblemInstance], int]
    verify: Callable[[I.ProblemInstance, Witness], bool]
    synthesize: Callable[[I.ProblemInstance, object], Witness]
    valid_certificates: Callable[[I.ProblemInstance], Iterator[Witness]] | None = None
    len_bound: Callable[[I.ProblemInstance], int] | None = None

    def reduction(self) -> Reduction:
        """The scheme as a reduction from its kind to itself: a witness is
        a certificate, and its target is the kind's trivial yes instance
        when ``verify`` accepts it, the trivial no instance otherwise, each
        built once here and declared as its ``constants``.  ``len_bound``
        is its ``wit_bound``."""
        # a certificate sweep loads no reduction module but this one
        from .reductions import Reduction
        kind, verify = self.problem_kind, self.verify
        yes = I.trivial_instance(kind, True)
        no = I.trivial_instance(kind, False)
        return Reduction(
            name=self.name, source_kind=kind, target_kind=kind,
            witness_len=self.cert_len,
            transform=lambda inst, cert: yes if verify(inst, cert) else no,
            synthesize=self.synthesize,
            valid_witnesses=self.valid_certificates,
            wit_bound=self.len_bound, constants=(yes, no))


# ---------------------------------------------------------------------------
# Unbounded subset sum: at most floor(log2(t+1)) (index, multiplicity) pairs.
#
# Any multiset solution can be rewritten onto that few distinct items: while
# the support has more, any floor(log2(t+1)) + 1 of its items have two
# disjoint sub-supports that share a subset sum (their 2^len sums all land
# in [0, t]), and shifting the smallest multiplicity across the tie removes
# an item.


# Shapes kept per scheme.  An unbounded shape (t, n) or a Z_k^k shape (k, n)
# holds a few tuples whose size grows with its slot count, and a Z_k^k shape
# with at most ZKK_VALID_KEPT valid certificates also their packed values.
# Measured with tracemalloc on full caches of the largest shapes in range,
# counting the caches' own slots: about 1.9 KB per unbounded shape while
# t < 2^12 and n <= 2^12, so the 256 entries hold at most 0.6 MB.  A Z_k^k
# shape takes about 3.8 KB while k <= 4 and n <= 2^16, or up to 15.6 KB
# (k = 4, n = 8) with its values; the 30 shapes with 2 <= k <= 4 that keep
# them take 116 KB together, so the 64 entries hold at most 0.25 MB (242
# KB measured).  A sweep meets few shapes: cert-sweep's families have 100
# and 8.
USS_SHAPE_CACHE = 256
ZKK_SHAPE_CACHE = 64


def _tail_masks(count_width, slots, slot, length):
    """Per count field value c, the bits that must be zero: the unused slots
    after the first c (the low bits), or every bit once c > ``slots``."""
    full = (1 << length) - 1
    return tuple((1 << (slots - c) * slot) - 1 if c <= slots else full
                 for c in range(1 << count_width))


def _wide(value, mask):
    return ValidationError(
        f"field value {value} does not fit in {mask.bit_length()} bits")


class _UssLayout(NamedTuple):
    length: int         # certificate bits
    pairs: int          # slot count
    body: int           # bits after the count field: count = value >> body
    tails: tuple        # _tail_masks, indexed by the count
    shifts: tuple       # (index shift, multiplicity shift) per slot
    index_mask: int
    mult_mask: int
    bound: int          # len_bound


@lru_cache(maxsize=USS_SHAPE_CACHE)
def _uss_shape(t, n) -> _UssLayout:
    """Certificate layout of every instance with target t and n items: a
    count field, then (index, multiplicity - 1) per slot.  Its size is
    linear in the slot count."""
    pairs = (t + 1).bit_length() - 1
    wc = field_width(pairs)
    wi, wm = field_width(max(n - 1, 0)), field_width(max(t - 1, 0))
    slot = wi + wm
    body = pairs * slot
    shifts = tuple((body - j * slot - wi, body - (j + 1) * slot)
                   for j in range(pairs))
    length = wc + body
    bound = (t.bit_length() + 1) * (n.bit_length() + t.bit_length() + 1)
    return _UssLayout(length, pairs, body,
                      _tail_masks(wc, pairs, slot, length), shifts,
                      (1 << wi) - 1, (1 << wm) - 1, bound)


@I.layout_cache
def _uss_layout(inst) -> _UssLayout:
    """The shape of one instance.  A target that is not a nonnegative int
    is refused here, before it could alias a shape: 4.0 hashes like 4, and
    so is a negative item, which the running-total bound cannot take."""
    t, items = inst.target, inst.items
    if type(t) is not int or t < 0:
        raise ValidationError(
            f"unbounded-ss: target must be a nonnegative int, got {t!r}")
    if items and min(items) < 0:
        raise ValidationError(
            f"unbounded-ss: items must be nonnegative, got {min(items)!r}")
    return _uss_shape(t, len(items))


def _uss_cert_len(inst):
    return _uss_layout(inst).length


def _uss_len_bound(inst):
    return _uss_layout(inst).bound


_USS_LAST = _uss_layout.last


def _uss_verify(inst, cert):
    held, lay = _USS_LAST[0]
    if inst is not held:
        lay = _uss_layout(inst)
    length, _, body, tails, shifts, imask, mmask, _ = lay
    if cert.length != length:
        return False
    v = cert.value
    count = v >> body
    if v & tails[count]:
        return False
    items, t = inst.items, inst.target
    n = len(items)
    prev = -1
    total = 0
    for ishift, mshift in shifts[:count]:
        i = (v >> ishift) & imask
        m = ((v >> mshift) & mmask) + 1
        if i >= n or i <= prev or m > t:
            return False
        prev = i
        total += m * items[i]
        if total > t:
            return False
    return total == t


def _shrink_support(items, counts, cap):
    """Rewrite ``counts`` (index -> multiplicity, over positive items) onto
    at most ``cap`` = floor(log2(t + 1)) indices, keeping its sum t.

    Each step searches the first cap + 1 indices only: each of their
    subsets sums to at most t, so the first t + 2 masks hold two with one
    sum.  Less their common indices they are disjoint and both nonempty
    (positive items cannot sum to 0), so the step moves the least
    multiplicity of either side across and drops that index."""
    while len(counts) > cap:
        idxs = sorted(counts)[:cap + 1]
        sums, seen = [0], {0: 0}
        for mask in range(1, 1 << len(idxs)):
            bit = mask & -mask
            total = sums[mask ^ bit] + items[idxs[bit.bit_length() - 1]]
            if total in seen:
                break
            seen[total] = mask
            sums.append(total)
        else:
            # only a multiset summing past t gets here
            raise ConstructionError("no colliding sub-supports found")
        common = seen[total] & mask
        sides = [[idxs[b] for b in range(len(idxs)) if (m & ~common) >> b & 1]
                 for m in (seen[total], mask)]
        low = min(sides[0] + sides[1], key=lambda i: counts[i])
        if low in sides[1]:
            sides.reverse()
        shift = counts[low]
        for i in sides[0]:
            counts[i] -= shift
            if not counts[i]:
                del counts[i]
        for i in sides[1]:
            counts[i] = counts.get(i, 0) + shift
    return counts


def _uss_synthesize(inst, solution):
    lay = _uss_layout(inst)
    counts = {i: m for i, m in dict(solution).items()
              if m > 0 and inst.items[i] > 0}
    counts = _shrink_support(inst.items, counts, lay.pairs)
    imask, mmask = lay.index_mask, lay.mult_mask
    value = len(counts) << lay.body
    for (ishift, mshift), i in zip(lay.shifts, sorted(counts)):
        m = counts[i] - 1
        if not 0 <= i <= imask:
            raise _wide(i, imask)
        if not 0 <= m <= mmask:
            raise _wide(m, mmask)
        value |= i << ishift | m << mshift
    return Witness(value, lay.length)


def _uss_valid(inst):
    """The certificates the running-total bound keeps (see the module
    docstring), in increasing order of count, indices, multiplicities."""
    lay = _uss_layout(inst)
    t, items = inst.target, inst.items
    n = len(items)

    def walk(value, spare, slots):
        # ``spare`` is what t leaves once each of ``slots`` holds one copy
        # of its item, so the first slot takes up to spare // item more (a
        # zero item up to t in all); the last slot's multiplicities are one
        # range
        (i, (ishift, mshift)), rest = slots[0], slots[1:]
        item = items[i]
        value |= i << ishift
        top = spare // item + 1 if item else t
        if not rest:
            yield range(value, value + (top << mshift), 1 << mshift)
            return
        for m in range(top):
            yield from walk(value | m << mshift, spare - m * item, rest)

    def fits(c, start, spare):
        # the increasing c-tuples of indices from ``start`` on, in
        # lexicographic order, whose items sum to at most ``spare``, each
        # with what it leaves of it: a prefix past it is not extended
        if not c:
            yield (), spare
            return
        for i in range(start, n - c + 1):
            if items[i] <= spare:
                for rest, left in fits(c - 1, i + 1, spare - items[i]):
                    yield (i, *rest), left

    def runs():
        yield (0,)
        for c in range(1, min(lay.pairs, n) + 1):
            head = c << lay.body
            for idxs, spare in fits(c, 0, t):
                yield from walk(head, spare, tuple(zip(idxs, lay.shifts)))

    return witnesses(chain.from_iterable(runs()), lay.length)


UNBOUNDED_SS_SCHEME = CertificateScheme(
    name="unbounded-ss",
    problem_kind="unbounded_subset_sum",
    cert_len=_uss_cert_len,
    verify=_uss_verify,
    synthesize=_uss_synthesize,
    valid_certificates=_uss_valid,
    len_bound=_uss_len_bound,
)


# ---------------------------------------------------------------------------
# Z_k^k group subset sum: an index subsequence of length < s = ceil(k^2 lg k).


def zkk_bound(k: int) -> int:
    return max(1, math.ceil(k * k * math.log2(k))) if k > 1 else 1


# Z_k^k shapes whose layout keeps their valid packed values: those with at
# most ZKK_VALID_KEPT valid certificates.  cert-sweep's family (k = 2,
# n <= 7) has 8 shapes, of at most 64 values.
ZKK_VALID_KEPT = 256


class _ZkkLayout(NamedTuple):
    length: int         # certificate bits
    slots: int          # index slots: s - 1
    body: int           # bits after the count field: count = value >> body
    tails: tuple        # _tail_masks, indexed by the count
    shifts: tuple       # index shift per slot
    index_mask: int
    k: int
    fields: tuple       # shift of each coordinate's field in a packed element
    residues: frozenset  # 0 .. k - 1, the coordinates an element may hold
    w: int              # a field's bits but its carry: (2k - 1).bit_length()
    add: int            # 2^w - k per field: one of k or more reaches bit w
    carry: int          # bit w of each field
    bound: int          # len_bound
    values: tuple       # the valid packed values, None past ZKK_VALID_KEPT


@lru_cache(maxsize=ZKK_SHAPE_CACHE)
def _zkk_shape(k, n) -> _ZkkLayout:
    """Certificate layout of every Z_k^k instance with n elements: a count
    field, then one index per slot, and the valid packed values when they
    are at most ``ZKK_VALID_KEPT``; and the packing of an element, k fields
    of w + 1 bits, with the addend and carry mask that reduce each field mod
    k.  Without the values its size is linear in the slot count."""
    slots = zkk_bound(k) - 1
    wc, wi = field_width(slots), field_width(max(n - 1, 0))
    body = slots * wi
    shifts = tuple(body - (j + 1) * wi for j in range(slots))
    length = wc + body
    w = (2 * k - 1).bit_length()
    fields = tuple(range(0, k * (w + 1), w + 1))
    lay = _ZkkLayout(length, slots, body,
                     _tail_masks(wc, slots, wi, length), shifts,
                     (1 << wi) - 1, k, fields, frozenset(range(k)), w,
                     sum(((1 << w) - k) << f for f in fields),
                     sum(1 << w << f for f in fields),
                     max(k ** 3 * ((k - 1).bit_length() + 1) ** 2, 1), None)
    valid = sum(map(math.comb, repeat(n), range(min(slots, n) + 1)))
    if valid > ZKK_VALID_KEPT:
        return lay
    return lay._replace(values=tuple(_zkk_values(lay, n)))


@I.layout_cache
def _zkk_layout(inst) -> tuple:
    """The shape of one instance, with what the verifier keeps of it: the
    (shape, packed, goal) triple, where ``packed`` holds each element's
    packing once a certificate has chosen it (None before) and ``goal`` is
    the packed target.  A group other than Z_k^k with an int k >= 1, or a
    target outside it, is refused here."""
    group = inst.group
    if not isinstance(group, I.ProductGroup):
        raise ValidationError("scheme expects a Z_k^k instance")
    k = group.k
    if type(k) is not int or k < 1:
        raise ValidationError(f"zkk: k must be a positive int, got {k!r}")
    if not group.contains(inst.target):
        raise ValidationError(
            f"zkk: target {inst.target!r} is not in Z_{k}^{k}")
    lay = _zkk_shape(k, len(inst.elements))
    return (lay, [None] * len(inst.elements),
            sum(map(lshift, inst.target, lay.fields)))


def _zkk_pack(lay, e):
    """Element e as one int, coordinate j in the field at ``lay.fields[j]``.
    An element that is no k-tuple of ints in [0, k) is a
    ``ValidationError``: its fields would carry into their neighbours."""
    k = lay.k
    try:
        if len(e) == k and lay.residues.issuperset(e):
            # a float equal to a residue passes the test, and lshift
            # raises on it
            return sum(map(lshift, e, lay.fields))
    except TypeError:
        pass
    raise ValidationError(f"zkk: element {e!r} is not in Z_{k}^{k}")


def _zkk_cert_len(inst):
    return _zkk_layout(inst)[0].length


def _zkk_len_bound(inst):
    return _zkk_layout(inst)[0].bound


_ZKK_LAST = _zkk_layout.last


def _zkk_verify(inst, cert):
    held, run = _ZKK_LAST[0]
    if inst is not held:
        run = _zkk_layout(inst)
    lay, packed, goal = run
    length, _, body, tails, shifts, imask, k, _, _, w, add, carry, _, _ = lay
    if cert.length != length:
        return False
    v = cert.value
    count = v >> body
    if v & tails[count]:
        return False
    n = len(packed)
    prev = -1
    s = 0
    for shift in shifts[:count]:
        i = (v >> shift) & imask
        if i >= n or i <= prev:
            return False
        prev = i
        p = packed[i]
        if p is None:
            p = packed[i] = _zkk_pack(lay, inst.elements[i])
        # each field is at most 2k - 2 < 2^w; the addend carries those of
        # k or more into bit w, and each carry takes k off its field
        s += p
        s -= (((s + add) & carry) >> w) * k
    return s == goal


def find_zero_sum_subsequence(elements, k):
    """Indices (increasing) of a nonempty zero-sum subsequence, or None."""
    zero = (0,) * k
    reach = {}
    for j, g in enumerate(elements):
        g = tuple(x % k for x in g)
        fresh = {} if g in reach else {g: (None, j)}
        for s, _ in list(reach.items()):
            ns = tuple((a + b) % k for a, b in zip(s, g))
            if ns not in reach and ns not in fresh:
                fresh[ns] = (s, j)
        reach.update(fresh)
        if zero in reach:
            out = []
            cur = zero
            while cur is not None:
                prev, idx = reach[cur]
                out.append(idx)
                cur = prev
            return sorted(out)
    return None


def _zkk_synthesize(inst, solution):
    lay = _zkk_layout(inst)[0]
    chosen = sorted(solution)
    while len(chosen) > lay.slots:
        hit = find_zero_sum_subsequence([inst.elements[i] for i in chosen],
                                        lay.k)
        if hit is None:
            raise ConstructionError("no removable zero-sum subsequence")
        keep = set(range(len(chosen))) - set(hit)
        chosen = [chosen[p] for p in sorted(keep)]
    imask = lay.index_mask
    value = len(chosen) << lay.body
    for i, shift in zip(chosen, lay.shifts):
        if not 0 <= i <= imask:
            raise _wide(i, imask)
        value |= i << shift
    return Witness(value, lay.length)


def _zkk_values(lay, n):
    """The packed values of every certificate of shape ``lay`` with n
    elements that the verifier decodes, lazily: per count c, each
    increasing index tuple shifted into its slots and summed onto the count
    field, in C: sum(map(lshift, idxs, shifts), head)."""
    return chain.from_iterable(
        map(sum, map(map, repeat(lshift), combinations(range(n), c),
                     repeat(lay.shifts)), repeat(c << lay.body))
        for c in range(min(lay.slots, n) + 1))


def _zkk_valid(inst):
    """The certificates whose indices decode, kept in the layout or
    streamed (see the module docstring)."""
    lay = _zkk_layout(inst)[0]
    values = lay.values
    if values is None:
        values = _zkk_values(lay, len(inst.elements))
    return witnesses(values, lay.length)


ZKK_SCHEME = CertificateScheme(
    name="zkk",
    problem_kind="group_subset_sum",
    cert_len=_zkk_cert_len,
    verify=_zkk_verify,
    synthesize=_zkk_synthesize,
    valid_certificates=_zkk_valid,
    len_bound=_zkk_len_bound,
)


# ---------------------------------------------------------------------------
# Baseline scheme: the full selection mask, one bit per item.


def _fss_verify(inst, cert):
    return cert.length == len(inst.items) and check_solution(
        inst, [i for i, b in enumerate(cert.bits()) if b])


def _fss_synthesize(inst, solution):
    n = len(inst.items)
    mask = 0
    for i in solution:
        mask |= 1 << (n - 1 - i)
    return Witness(mask, n)


FULL_SS_SCHEME = CertificateScheme(
    name="full-ss",
    problem_kind="subset_sum",
    cert_len=lambda inst: len(inst.items),
    verify=_fss_verify,
    synthesize=_fss_synthesize,
    valid_certificates=lambda inst: all_witnesses(len(inst.items)),
)


SCHEMES = {s.name: s for s in (UNBOUNDED_SS_SCHEME, ZKK_SCHEME,
                               FULL_SS_SCHEME)}


# ---------------------------------------------------------------------------
# Reduction contract checking.


@dataclass
class ContractReport:
    name: str
    checked: int = 0
    yes_instances: int = 0
    no_instances: int = 0
    witnesses_checked: int = 0
    exhaustive: int = 0
    stratified: int = 0
    violations: list = dc_field(default_factory=list)
    skipped: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.skipped

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "yes_instances": self.yes_instances,
            "no_instances": self.no_instances,
            "witnesses_checked": self.witnesses_checked,
            "exhaustive": self.exhaustive,
            "stratified": self.stratified,
            "violations": [
                {k: (v if isinstance(v, (str, int, bool)) else repr(v))
                 for k, v in viol.items()} for viol in self.violations],
            "skipped": [[repr(inst), why] for inst, why in self.skipped],
            "ok": self.ok,
        }


# Random probes of the invalid stratum per stratified no-instance, after the
# all-zero and all-one witnesses.
INVALID_SAMPLES = 16
# Most valid witnesses enumerated per stratified no-instance; one with more
# is skipped, or enumerated outright when 2^L <= exhaustive_cap.
VALID_CAP = 200_000


def _corner_witnesses(length, rng, listed, kept):
    """The all-zero and all-one witnesses, then ``INVALID_SAMPLES`` random
    ones, each drawn from ``rng`` only as it is pulled; those whose value is
    in ``listed`` are dropped, and each other one is appended to ``kept``."""
    values = chain((0, (1 << length) - 1) if length else (0,),
                   map(rng.getrandbits, repeat(length, INVALID_SAMPLES)))
    # each value fits ``length`` bits: built without the range checks;
    # ``kept.append`` returns None, so the outer filter passes all, in C
    return filterfalse(kept.append, witnesses(
        filterfalse(listed.__contains__, values), length))


def _nth(head, tail, i):
    """The i-th item of ``head`` followed by ``tail``."""
    return head[i] if i < len(head) else tail[i - len(head)]


def nppt_contract_check(r: Reduction, family: Iterable[I.ProblemInstance],
                        *, exhaustive_cap: int = 4096,
                        seed: int = 0,
                        cache: dict | None = None) -> ContractReport:
    """Check the reduction's yes/no contract against the oracles.

    A witness is accepted when ``r.transform`` maps it to a target yes
    instance.  A source that ``r.check_source`` or ``r.witness_len``
    refuses (another kind, another ILP variant than ``r.source_variant``,
    or a group ``zq-to-ss`` does not read) raises ``ValidationError`` with
    its message.  The witness length is taken once per instance and checked
    against ``r.wit_bound`` when the reduction declares one; a synthesized
    or valid witness of another length is a ``ReductionError``.

    Each no-instance takes one path, chosen from the instance alone.  With
    ``r.valid_witnesses`` declared, the sweep pulls its valid list up to
    ``VALID_CAP`` entries, and on an instance with ``2^L <= exhaustive_cap``
    up to ``2^L - 3 - INVALID_SAMPLES`` too, plus one entry to tell that the
    list is longer; none is pulled when that bound is below 0 (L <= 4).  A
    list within the bound is swept stratified: each listed witness, then
    each probe not in the list, stopping at the first violation.  A probe
    whose target solves to yes is a ``soundness`` violation; one whose
    target is no declared constant (by identity) is an ``invalid-stratum``
    violation.  A longer list makes an instance within the cap exhaustive
    (every witness in increasing value order) and a wider one skipped; an
    instance within the cap with no valid witnesses declared is exhaustive.
    So the list held at once has at most ``VALID_CAP + 1`` witnesses.  The
    probes come from ``Random(seed)``, drawn only as they are pulled, in
    the same order whichever path the earlier instances took.  A caller
    that needs every witness of each no-instance within the cap checked
    sweeps ``dataclasses.replace(r, valid_witnesses=None)``.

    Each of ``r.constants`` is solved the first time ``transform`` returns
    it, and that answer serves the rest of the sweep; any other target is
    solved each time.  An answer is kept only once ``solve`` returns, so a
    solve that raises leaves nothing decided.  A caller that wants more
    reuse passes a dict as ``cache``; it is looked up and filled for every
    target that is not a decided constant, and the caller bounds its size.

    Every solve runs under the oracles' gates, the ``oracles.MAX_*``
    constants, as do those a transform or synthesis makes itself (a
    composed link's intermediate, say).  A ``ResourceLimitError`` skips
    the instance with the step that raised it: the source oracle, the
    synthesis or the target oracle.
    """
    name = r.name
    transform, witness_len, wit_bound = r.transform, r.witness_len, r.wit_bound
    synthesize, valid = r.synthesize, r.valid_witnesses
    rng = Random(seed)
    rep = ContractReport(name=name)
    # each constant's answer by id (``r`` holds them), None until decided
    decided = dict.fromkeys(map(id, r.constants))
    end = object()          # no target: the witnesses ran out

    def decide(tgt):
        hit = decided.get(id(tgt))
        if hit is None:
            if cache is None:
                hit = solve(tgt).answer
            else:
                hit = cache.get(tgt)
                if hit is None:
                    hit = cache[tgt] = solve(tgt).answer
            if id(tgt) in decided:
                decided[id(tgt)] = hit
        return hit

    def violation(kind, inst, wit, tgt):
        rep.violations.append({"kind": kind, "instance": inst,
                               "witness": wit.to_hex(), "target": tgt})

    def reject_all(inst, wits, at, probed=None):
        # ``at(i)`` is the i-th witness of ``wits``, for the record.  Once
        # the list ``probed`` is nonempty, the witnesses are probes of the
        # invalid stratum, whose targets must be declared constants too
        bad = decide
        if probed is not None:
            def bad(tgt):
                # ``r`` holds the constants, so no other target has their
                # id; a probe's target that is none is not solved here
                return probed and id(tgt) not in decided or decide(tgt)
        seen = count(1)
        tgts = map(transform, repeat(inst), compress(wits, seen))
        for const in r.constants:
            if decided[id(const)] is False:
                # in C: this target is no again
                tgts = filter(partial(is_not, const), tgts)
        try:
            tgt = next(filter(bad, tgts), end)
        finally:
            pulled = next(seen) - 1
            rep.witnesses_checked += pulled
        if tgt is not end:
            kind = "invalid-stratum" if probed and id(tgt) not in decided \
                and not decide(tgt) else "soundness"
            violation(kind, inst, at(pulled - 1), tgt)

    def wrong_length(got, length):
        return ReductionError(
            f"{name}: witness length {got}, expected {length}")

    for inst in family:
        try:
            r.check_source(inst)
            length = witness_len(inst)
        except ReductionError as exc:
            raise ValidationError(str(exc)) from None
        rep.checked += 1
        if wit_bound is not None:
            bound = wit_bound(inst)
            if length > bound:
                rep.violations.append({
                    "kind": "bit-length-bound", "instance": inst,
                    "witness_len": length, "bound": bound})
        try:
            src = solve(inst)
        except ResourceLimitError as exc:
            rep.skipped.append((inst, f"source oracle: {exc}"))
            continue
        if src.answer:
            rep.yes_instances += 1
            step = "synthesize"
            try:
                wit = synthesize(inst, src.solution)
                step = "target oracle"
                if wit.length != length:
                    raise wrong_length(wit.length, length)
                tgt = transform(inst, wit)
                accepted = decide(tgt)
            except ResourceLimitError as exc:
                rep.skipped.append((inst, f"{step}: {exc}"))
                continue
            except RedkitError as exc:
                rep.violations.append({
                    "kind": "completeness", "instance": inst,
                    "error": str(exc)})
                continue
            rep.witnesses_checked += 1
            if not accepted:
                violation("completeness", inst, wit, tgt)
            continue
        rep.no_instances += 1
        small = length <= 26 and (1 << length) <= exhaustive_cap
        # within the cap, a valid list is taken only while it and the
        # 2 + INVALID_SAMPLES probes are fewer than the 2^L witnesses
        most = (1 << length) - 3 - INVALID_SAMPLES if small else VALID_CAP
        try:
            wits = None
            if valid is not None and most >= 0:
                most = min(most, VALID_CAP)
                wits = list(islice(valid(inst), most + 1))
                if len(wits) > most:
                    if not small:
                        rep.skipped.append(
                            (inst, "valid witness family too large"))
                        continue
                    wits = None
            if wits is not None:
                odd = next(filter(partial(ne, length),
                                  map(itemgetter(1), wits)), length)
                if odd != length:
                    raise wrong_length(odd, length)
                # the valid list, then the probes not in it; ``kept`` holds
                # each probe pulled
                kept = []
                probes = _corner_witnesses(
                    length, rng, set(map(itemgetter(0), wits)), kept)
                reject_all(inst, chain(wits, probes),
                           partial(_nth, wits, kept), kept)
                rep.stratified += 1
            elif small:
                # in increasing value order: the i-th witness has value i
                reject_all(inst, all_witnesses(length),
                           partial(Witness, length=length))
                rep.exhaustive += 1
            else:
                rep.skipped.append((inst, f"witness space 2^{length} too large"))
        except ResourceLimitError as exc:
            rep.skipped.append((inst, f"target oracle: {exc}"))
        except RedkitError as exc:
            rep.violations.append({
                "kind": "transform-error", "instance": inst, "error": str(exc)})
    return rep


def certificate_scheme_check(scheme: CertificateScheme,
                             family: Iterable[I.ProblemInstance],
                             *, exhaustive_cap: int = 65536,
                             seed: int = 0) -> ContractReport:
    """``nppt_contract_check`` of ``scheme.reduction()``."""
    return nppt_contract_check(scheme.reduction(), family,
                               exhaustive_cap=exhaustive_cap, seed=seed)


# ---------------------------------------------------------------------------
# The zero-sum premise behind the Z_k^k bound.  With it, a solution of s or
# more elements drops a zero-sum subsequence, so every yes instance has one
# of fewer than s; ``certificate_scheme_check(ZKK_SCHEME, ...)`` checks that
# on a family, since a synthesized certificate holds at most s - 1 indices.


def zero_sum_premise_check(k: int) -> tuple[int, int]:
    """The length of the longest sequence over Z_k^k with no nonempty
    zero-sum subsequence, found by exhaustion, and the search's node count.

    The premise, that every sequence of s = ``zkk_bound(k)`` elements has a
    nonempty zero-sum subsequence, holds when that length is below s.
    Order does not matter, so the depth-first search extends each
    zero-sum-free multiset by elements no smaller than its last, one node
    per multiset (the empty one too).  An element is an int, the base-k
    digits of its coordinates; a node keeps the negated sums of its
    nonempty sub-multisets as one int of k^k bits, and g extends it while
    g is nonzero and not among them.  For prime-power k the length is
    D(Z_k^k) - 1 = k(k - 1) (Olson, 1969): 2 at k = 2 (7 nodes) and 6 at
    k = 3 (138,425 nodes).
    """
    if not 1 <= k <= 3:
        raise ValidationError(
            "zero-sum premise check is limited to 1 <= k <= 3")
    elems = list(product(range(k), repeat=k))
    size = len(elems)
    code = {e: i for i, e in enumerate(elems)}
    add = [[code[tuple((x + y) % k for x, y in zip(a, b))] for b in elems]
           for a in elems]
    neg = [code[tuple(-x % k for x in a)] for a in elems]
    # moved[h][c][bits]: the set whose chunk c (bits c*width onward) is
    # ``bits``, moved by h; a set moves by h as the union of its 3 chunks'
    width = -(-size // 3)
    moved = []
    for h in range(size):
        per_chunk = []
        for c in range(3):
            table = [0] * (1 << width)
            for bits in range(1, 1 << width):
                low = bits & -bits
                x = c * width + low.bit_length() - 1
                table[bits] = table[bits ^ low] | \
                    (1 << add[x][h] if x < size else 0)
            per_chunk.append(table)
        moved.append(per_chunk)
    chunk, full = (1 << width) - 1, (1 << size) - 1
    longest = nodes = 0
    stack = [(0, 1, 0)]     # negated sums, least next element, length
    while stack:
        negs, least, length = stack.pop()
        nodes += 1
        longest = max(longest, length)
        free = ~negs & full & -(1 << least)
        while free:
            bit = free & -free
            free ^= bit
            g = bit.bit_length() - 1
            h = neg[g]
            m0, m1, m2 = moved[h]
            # with g: the old sums, g, and each old sum plus g, negated
            stack.append((negs | 1 << h | m0[negs & chunk] |
                          m1[negs >> width & chunk] | m2[negs >> 2 * width],
                          g, length + 1))
    return longest, nodes
