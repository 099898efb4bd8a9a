"""Certificate schemes with short witnesses, and the sweep that
machine-checks reduction contracts.

Certificates are fixed-width bit strings (``Witness`` values): a count field
followed by fixed slots, with unused trailing slots required to be zero.  A
verifier never raises on a malformed certificate; it rejects.  A scheme's
layout (length, shifts, masks and ``len_bound``) depends only on the
instance's shape: (t, n) for unbounded subset sum, (k, n) for Z_k^k, where
n is the item or element count.  Each shape is built once and kept in an
``lru_cache`` of ``USS_SHAPE_CACHE`` or ``ZKK_SHAPE_CACHE`` entries keyed by
those ints, and ``witness.layout_cache`` keeps the last instance's shape in
front of it; each verifier reads the kept pair inline, so its many calls on
one instance neither hash the instance nor call the layout function, and a
new instance of a known shape costs one cache lookup.  The Z_k^k verifier
compares the coordinate sums with the instance's own target.  The layout
function refuses, with one ``ValidationError``, an instance it cannot lay
out: an unbounded target that is not a nonnegative int (4.0 would alias the
shape of 4), a group other than Z_k^k with an int k >= 1, or a target
outside it; every entry point of a scheme goes through it.  The
synthesizers pack a certificate with the shape's shifts, and a field value
out of its range is a ``ValidationError``.

A certificate scheme is a nondeterministic transformation whose target is
decided at once: ``CertificateScheme.reduction()`` maps a certificate to
the kind's trivial yes instance when ``verify`` accepts it and to the
trivial no instance otherwise.  So ``nppt_contract_check`` is the one sweep
for reductions and schemes alike (``certificate_scheme_check`` sweeps
``scheme.reduction()``), and ``compose(chain, scheme.reduction())`` carries
a scheme back along a reduction chain.  Yes instances must accept the
synthesized witness.  No instances must accept none, covered either by
enumerating all ``2^L`` witnesses (when small) or by a stratified-exact
sweep: every witness the reduction enumerates as structurally valid (an
instance with more than ``VALID_CAP`` is skipped), plus the all-zero,
all-one and ``INVALID_SAMPLES`` random probes of the invalid stratum, which
the transforms collapse to a fixed trivial no-instance.  Reports record
which strategy covered each instance; anything not covered is listed as
skipped, never silently passed.

One C-level pipeline, ``map`` of ``transform`` over ``compress``, transforms
the witnesses of an instance, and while the last target solved answered
no, ``filter`` drops the run of targets that are that very object: Python
runs only on another target.  ``compress`` draws one number from a counter
per witness pulled, so ``witnesses_checked`` is exact however the loop ends;
a witness whose ``transform`` raised is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from itertools import (chain, combinations, compress, count, islice, product,
                       repeat)
from operator import is_not, itemgetter, ne
from random import Random
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from . import instances as I
from .errors import (ConstructionError, RedkitError, ReductionError,
                     ResourceLimitError, ValidationError)
from .oracles import DEFAULT_BUDGET, Budget, check_solution, solve
from .witness import Witness, all_witnesses, field_width, layout_cache

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
        built once here.  ``len_bound`` is its ``wit_bound``."""
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
            wit_bound=self.len_bound)


# ---------------------------------------------------------------------------
# Unbounded subset sum: at most floor(log2(t+1)) (index, multiplicity) pairs.
#
# Any multiset solution can be rewritten onto that few distinct items: while
# the support has more, two disjoint sub-supports share a subset sum (2^len
# sums all land in [0, t]) and shifting the smallest multiplicity across the
# tie removes an item.


# Shapes kept per scheme.  An unbounded shape (t, n) or a Z_k^k shape (k, n)
# holds a few tuples whose size grows with its slot count.  Measured with
# tracemalloc on full caches of the largest shapes in range, counting the
# caches' own slots: about 1.9 KB per unbounded shape while t < 2^12 and
# n <= 2^12, so the 256 entries hold at most 0.6 MB, and about 3.4 KB per
# Z_k^k shape while k <= 4 and n <= 2^16, so the 64 entries hold at most
# 0.25 MB.  A sweep meets few shapes: cert-sweep's families have 100 and 8.
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


@layout_cache
def _uss_layout(inst) -> _UssLayout:
    """The shape of one instance.  A target that is not a nonnegative int
    is refused here, before it could alias a shape: 4.0 hashes like 4."""
    t = inst.target
    if type(t) is not int or t < 0:
        raise ValidationError(
            f"unbounded-ss: target must be a nonnegative int, got {t!r}")
    return _uss_shape(t, len(inst.items))


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
    return total == t


def _shrink_support(items, counts, cap):
    while len(counts) > cap:
        idxs = sorted(counts)
        if len(idxs) > 22:
            raise ResourceLimitError("support too large to rewrite")
        seen = {0: 0}
        hit = None
        for mask in range(1, 1 << len(idxs)):
            s = sum(items[idxs[b]] for b in range(len(idxs)) if mask >> b & 1)
            if s in seen:
                hit = (seen[s], mask)
                break
            seen[s] = mask
        if hit is None:
            raise ConstructionError("no colliding sub-supports found")
        common = hit[0] & hit[1]
        sides = [[idxs[b] for b in range(len(idxs)) if (m & ~common) >> b & 1]
                 for m in hit]
        if not sides[0] or not sides[1]:
            raise ConstructionError("colliding sub-supports must be disjoint")
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
    lay = _uss_layout(inst)
    t, items = inst.target, inst.items
    n = len(items)
    for c in range(min(lay.pairs, n) + 1):
        head = c << lay.body
        for idxs in combinations(range(n), c):
            choices = []
            for i, (ishift, mshift) in zip(idxs, lay.shifts):
                # prune: an accepting pair never exceeds the target on its own
                top = t // items[i] if items[i] else t
                choices.append([i << ishift | (m - 1) << mshift
                                for m in range(1, top + 1)])
            for parts in product(*choices):
                yield Witness(head | sum(parts), lay.length)


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


class _ZkkLayout(NamedTuple):
    length: int         # certificate bits
    slots: int          # index slots: s - 1
    body: int           # bits after the count field: count = value >> body
    tails: tuple        # _tail_masks, indexed by the count
    shifts: tuple       # index shift per slot
    index_mask: int
    k: int
    zero: tuple
    bound: int          # len_bound


@lru_cache(maxsize=ZKK_SHAPE_CACHE)
def _zkk_shape(k, n) -> _ZkkLayout:
    """Certificate layout of every Z_k^k instance with n elements: a count
    field, then one index per slot.  Its size is linear in the slot
    count."""
    slots = zkk_bound(k) - 1
    wc, wi = field_width(slots), field_width(max(n - 1, 0))
    body = slots * wi
    shifts = tuple(body - (j + 1) * wi for j in range(slots))
    length = wc + body
    return _ZkkLayout(length, slots, body,
                      _tail_masks(wc, slots, wi, length), shifts,
                      (1 << wi) - 1, k, (0,) * k,
                      max(k ** 3 * ((k - 1).bit_length() + 1) ** 2, 1))


@layout_cache
def _zkk_layout(inst) -> _ZkkLayout:
    """The shape of one instance.  A group other than Z_k^k with an int
    k >= 1, or a target outside it, is refused here."""
    group = inst.group
    if not isinstance(group, I.ProductGroup):
        raise ValidationError("scheme expects a Z_k^k instance")
    k = group.k
    if type(k) is not int or k < 1:
        raise ValidationError(f"zkk: k must be a positive int, got {k!r}")
    if not group.contains(inst.target):
        raise ValidationError(
            f"zkk: target {inst.target!r} is not in Z_{k}^{k}")
    return _zkk_shape(k, len(inst.elements))


def _zkk_cert_len(inst):
    return _zkk_layout(inst).length


def _zkk_len_bound(inst):
    return _zkk_layout(inst).bound


_ZKK_LAST = _zkk_layout.last


def _zkk_verify(inst, cert):
    held, lay = _ZKK_LAST[0]
    if inst is not held:
        lay = _zkk_layout(inst)
    length, _, body, tails, shifts, imask, k, zero, _ = lay
    if cert.length != length:
        return False
    v = cert.value
    count = v >> body
    if v & tails[count]:
        return False
    elements = inst.elements
    n = len(elements)
    prev = -1
    chosen = []
    for shift in shifts[:count]:
        i = (v >> shift) & imask
        if i >= n or i <= prev:
            return False
        prev = i
        chosen.append(elements[i])
    # coordinate sums of the chosen elements, each column led by a zero
    return tuple(map(k.__rmod__, map(sum, zip(zero, *chosen)))) == inst.target


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
    lay = _zkk_layout(inst)
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


def _zkk_valid(inst):
    lay = _zkk_layout(inst)
    n = len(inst.elements)
    for c in range(min(lay.slots, n) + 1):
        head = c << lay.body
        for idxs in combinations(range(n), c):
            yield Witness(head | sum(i << shift
                                     for i, shift in zip(idxs, lay.shifts)),
                          lay.length)


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
# is skipped.
VALID_CAP = 200_000


def _corner_witnesses(length, rng, drawn):
    """The all-zero and all-one witnesses, then ``INVALID_SAMPLES`` random
    ones drawn as they are pulled, each also appended to ``drawn``."""
    values = chain((0, (1 << length) - 1) if length else (0,),
                   map(rng.getrandbits, repeat(length, INVALID_SAMPLES)))
    for value in values:
        wit = Witness(value, length)
        drawn.append(wit)
        yield wit


def nppt_contract_check(r: Reduction, family: Iterable[I.ProblemInstance],
                        budget: Budget | None = None, *,
                        exhaustive_cap: int = 4096,
                        seed: int = 0,
                        cache: dict | None = None) -> ContractReport:
    """Check the reduction's yes/no contract against the oracles.

    A witness is accepted when ``r.transform`` maps it to a target yes
    instance.  A source that ``r.check_source`` refuses (another kind, or
    another ILP variant than ``r.source_variant``) raises
    ``ValidationError`` with its message.  The witness length is taken once
    per instance and checked against ``r.wit_bound`` when the reduction
    declares one; a synthesized or valid witness of another length is a
    ``ReductionError``.

    The sweep keeps one target: the last one solved, with its answer.  When
    ``transform`` returns that very object again (a run of rejected
    witnesses all map to the reduction's one trivial no-instance), the
    answer is reused; any other target is solved.  The pair is replaced only
    once ``solve`` returns, so a solve that raises leaves no stale answer.
    A caller that wants more reuse passes a dict as ``cache``; it is looked
    up and filled on memo misses only, and the caller bounds its size.
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    name = r.name
    transform, witness_len, wit_bound = r.transform, r.witness_len, r.wit_bound
    synthesize, valid = r.synthesize, r.valid_witnesses
    rng = Random(seed)
    rep = ContractReport(name=name)
    solved, answer = object(), False    # nothing solved yet
    end = object()                      # no target: the witnesses ran out

    def decide(tgt):
        nonlocal solved, answer
        if tgt is solved:
            return answer
        if cache is None:
            hit = solve(tgt, budget).answer
        else:
            hit = cache.get(tgt)
            if hit is None:
                hit = cache[tgt] = solve(tgt, budget).answer
        solved, answer = tgt, hit
        return hit

    # a record is made only about a witness whose target was decided, so
    # that target is the one last solved
    def violation(kind, inst, wit):
        return {"kind": kind, "instance": inst, "witness": wit.to_hex(),
                "target": solved}

    def reject_all(inst, wits, at):
        # ``at(i)`` is the i-th witness of ``wits``, for the record
        seen = count(1)
        tgts = map(partial(transform, inst), compress(wits, seen))
        try:
            tgt = next(tgts, end)
            while tgt is not end and not decide(tgt):
                # skip in C the run of targets that are the memo's no again
                tgt = next(tgts, end)
                if tgt is solved:
                    tgt = next(filter(partial(is_not, solved), tgts), end)
        finally:
            pulled = next(seen) - 1
            rep.witnesses_checked += pulled
        if tgt is end:
            return True
        rep.violations.append(violation("soundness", inst, at(pulled - 1)))
        return False

    def wrong_length(got, length):
        return ReductionError(
            f"{name}: witness length {got}, expected {length}")

    for inst in family:
        try:
            r.check_source(inst)
        except ReductionError as exc:
            raise ValidationError(str(exc)) from None
        rep.checked += 1
        length = witness_len(inst)
        if wit_bound is not None:
            bound = wit_bound(inst)
            if length > bound:
                rep.violations.append({
                    "kind": "bit-length-bound", "instance": inst,
                    "witness_len": length, "bound": bound})
        try:
            src = solve(inst, budget)
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
                accepted = decide(transform(inst, wit))
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
                rep.violations.append(violation("completeness", inst, wit))
            continue
        rep.no_instances += 1
        try:
            if length <= 26 and (1 << length) <= exhaustive_cap:
                # in increasing value order: the i-th witness has value i
                reject_all(inst, all_witnesses(length),
                           partial(Witness, length=length))
                rep.exhaustive += 1
            elif valid is not None:
                wits = list(islice(valid(inst), VALID_CAP + 1))
                if len(wits) > VALID_CAP:
                    rep.skipped.append((inst, "valid witness family too large"))
                    continue
                odd = next(filter(partial(ne, length),
                                  map(itemgetter(1), wits)), length)
                if odd != length:
                    raise wrong_length(odd, length)
                if reject_all(inst, wits, wits.__getitem__):
                    drawn = []
                    reject_all(inst, _corner_witnesses(length, rng, drawn),
                               drawn.__getitem__)
                rep.stratified += 1
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
                             budget: Budget | None = None, *,
                             exhaustive_cap: int = 65536,
                             seed: int = 0) -> ContractReport:
    """``nppt_contract_check`` of ``scheme.reduction()``."""
    return nppt_contract_check(scheme.reduction(), family, budget,
                               exhaustive_cap=exhaustive_cap, seed=seed)


# ---------------------------------------------------------------------------
# The zero-sum premise behind the Z_k^k bound.  With it, a solution of s or
# more elements drops a zero-sum subsequence, so every yes instance has one
# of fewer than s; ``certificate_scheme_check(ZKK_SCHEME, ...)`` checks that
# on a family, since a synthesized certificate holds at most s - 1 indices.


def zero_sum_premise_check(k: int, *, samples: int = 200,
                           seed: int = 0) -> tuple[int, list]:
    """Every length-s sequence over Z_k^k must contain a nonempty zero-sum
    subsequence: exhaustive for k <= 2, seeded random sampling for k = 3."""
    if k > 3:
        raise ValidationError("zero-sum premise check is limited to k <= 3")
    s = zkk_bound(k)
    elems = [tuple(v) for v in product(range(k), repeat=k)]
    violations = []
    checked = 0
    if k <= 2:
        for seq in product(elems, repeat=s):
            checked += 1
            if find_zero_sum_subsequence(seq, k) is None:
                violations.append(seq)
    else:
        rng = Random(seed)
        for _ in range(samples):
            seq = tuple(elems[rng.randrange(len(elems))] for _ in range(s))
            checked += 1
            if find_zero_sum_subsequence(seq, k) is None:
                violations.append(seq)
    return checked, violations
