"""Certificate schemes with short witnesses, the sweep that machine-checks
reduction contracts and scheme soundness/completeness, and ``transfer``,
which carries a scheme back along a reduction chain.

Certificates are fixed-width bit strings (``Witness`` values): a count field
followed by fixed slots, with unused trailing slots required to be zero.  A
verifier never raises on malformed input; it rejects.  A scheme's layout
(length, slot count, field widths and shifts) depends only on the instance,
so it is computed once per instance and kept by ``witness.layout_cache``
(which says what it holds), so the many ``verify`` calls on one instance
find its layout without hashing it.  ``verify`` decodes ``cert.value`` with
the layout's shifts and masks rather than splitting it into fields.

One sweep checks both kinds of contract.  A certificate scheme is the case
of a nondeterministic transformation whose target is decided at once, so
each entry point only says when a witness is accepted:
``nppt_contract_check`` transforms the instance and asks the target oracle
(unless the target is the very object it solved last),
``certificate_scheme_check`` asks ``scheme.verify``.  The witness length
is taken once per instance, and the fields of a violation record are built
only when one is made.  Yes instances must accept the synthesized
witness.  No instances must accept no witness, covered either by literal
enumeration of all ``2^L`` witnesses (when small) or by a stratified-exact
sweep: every witness the reduction or scheme enumerates as structurally
valid (an instance with more than ``VALID_CAP`` of them is skipped), plus
the all-zero, all-one and ``INVALID_SAMPLES`` random probes of the invalid
stratum.  Reductions here map every structurally invalid witness to a
fixed trivial no-instance, so a run of them is solved once, and verifiers
reject such certificates outright: the invalid stratum collapses to a
handful of outcomes.  Reports record which strategy covered each
instance; anything not covered is listed as skipped, never silently
passed.

The witnesses of one instance are checked by one C-level loop, ``filter``
over ``compress``, that stops at the first accepted witness; the sweep adds
no Python step per witness.  Under an exhaustive sweep the witnesses come
from ``all_witnesses``, which builds each ``Witness`` tuple in C, so no
Python code runs between two ``accepts`` calls.  ``compress`` draws one
number from a counter for each witness it pulls, so ``witnesses_checked``
is read from that counter once the loop ends.  It is exact when a witness
is accepted and when ``accepts`` or the enumerator raises; a witness whose
``accepts`` raised is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import combinations, compress, count, islice, product
from random import Random
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from . import instances as I
from .errors import (ConstructionError, RedkitError, ReductionError,
                     ResourceLimitError, ValidationError)
from .oracles import DEFAULT_BUDGET, Budget, check_solution, solve
from .witness import (Witness, all_witnesses, field_width, layout_cache,
                      pack_fields)

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


# ---------------------------------------------------------------------------
# Unbounded subset sum: at most floor(log2(t+1)) (index, multiplicity) pairs.
#
# Any multiset solution can be rewritten onto that few distinct items: while
# the support has more, two disjoint sub-supports share a subset sum (2^len
# sums all land in [0, t]) and shifting the smallest multiplicity across the
# tie removes an item.


class _UssLayout(NamedTuple):
    length: int         # certificate bits
    pairs: int          # slot count
    widths: tuple       # count, then (index, multiplicity - 1) per slot
    body: int           # bits after the count field: count = value >> body
    slot: int           # bits per slot
    shifts: tuple       # (index shift, multiplicity shift) per slot
    index_mask: int
    mult_mask: int


@layout_cache
def _uss_layout(inst) -> _UssLayout:
    """Certificate layout of one instance; its size is linear in the slot
    count."""
    t, n = inst.target, len(inst.items)
    pairs = (t + 1).bit_length() - 1
    wc = field_width(pairs)
    wi, wm = field_width(max(n - 1, 0)), field_width(max(t - 1, 0))
    slot = wi + wm
    body = pairs * slot
    shifts = tuple((body - j * slot - wi, body - (j + 1) * slot)
                   for j in range(pairs))
    return _UssLayout(wc + body, pairs, (wc,) + (wi, wm) * pairs, body, slot,
                      shifts, (1 << wi) - 1, (1 << wm) - 1)


def _uss_cert_len(inst):
    return _uss_layout(inst).length


def _uss_len_bound(inst):
    t, n = inst.target, len(inst.items)
    return (t.bit_length() + 1) * (n.bit_length() + t.bit_length() + 1)


def _uss_verify(inst, cert):
    length, pairs, _, body, slot, shifts, imask, mmask = _uss_layout(inst)
    if cert.length != length:
        return False
    v = cert.value
    count = v >> body
    # the unused slots after the first ``count`` are the low bits
    if count > pairs or v & ((1 << (pairs - count) * slot) - 1):
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
    vals = [len(counts)]
    for i in sorted(counts):
        vals += [i, counts[i] - 1]
    vals += [0, 0] * (lay.pairs - len(counts))
    return pack_fields(vals, lay.widths)


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


def _zkk_k(inst):
    if not isinstance(inst.group, I.ProductGroup):
        raise ValidationError("scheme expects a Z_k^k instance")
    return inst.group.k


class _ZkkLayout(NamedTuple):
    length: int         # certificate bits
    slots: int          # index slots: s - 1
    widths: tuple       # count, then one index per slot
    body: int           # bits after the count field: count = value >> body
    width: int          # bits per index slot
    shifts: tuple       # index shift per slot
    k: int
    zero: tuple
    target: tuple


@layout_cache
def _zkk_layout(inst) -> _ZkkLayout:
    """Certificate layout of one instance; its size is linear in the slot
    count."""
    k = _zkk_k(inst)
    slots = zkk_bound(k) - 1
    wc, wi = field_width(slots), field_width(max(len(inst.elements) - 1, 0))
    body = slots * wi
    shifts = tuple(body - (j + 1) * wi for j in range(slots))
    return _ZkkLayout(wc + body, slots, (wc,) + (wi,) * slots, body, wi,
                      shifts, k, (0,) * k, tuple(inst.target))


def _zkk_cert_len(inst):
    return _zkk_layout(inst).length


def _zkk_len_bound(inst):
    k = _zkk_k(inst)
    return max(k ** 3 * ((k - 1).bit_length() + 1) ** 2, 1)


def _zkk_verify(inst, cert):
    length, slots, _, body, wi, shifts, k, zero, target = _zkk_layout(inst)
    if cert.length != length:
        return False
    v = cert.value
    count = v >> body
    # the unused slots after the first ``count`` are the low bits
    if count > slots or v & ((1 << (slots - count) * wi) - 1):
        return False
    elements = inst.elements
    n = len(elements)
    imask = (1 << wi) - 1
    prev = -1
    chosen = []
    for shift in shifts[:count]:
        i = (v >> shift) & imask
        if i >= n or i <= prev:
            return False
        prev = i
        chosen.append(elements[i])
    # coordinate sums of the chosen elements, each column led by a zero
    return tuple(map(k.__rmod__, map(sum, zip(zero, *chosen)))) == target


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
    vals = [len(chosen)] + chosen + [0] * (lay.slots - len(chosen))
    return pack_fields(vals, lay.widths)


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


def _corner_witnesses(length, rng):
    yield Witness.zero(length)
    if length:
        yield Witness((1 << length) - 1, length)
    for _ in range(INVALID_SAMPLES):
        yield Witness(rng.getrandbits(length), length)


def _sweep(name, kind, noun, family, budget, *, wit_len, synthesize, valid,
           accepts, record, len_bound, exhaustive_cap, seed):
    """The contract sweep behind both checkers.

    ``wit_len(inst)`` is called once per instance, before any ``accepts``
    on it.  ``accepts(inst, wit)`` returns whether the witness leads to a
    yes verdict.  ``record()`` returns the fields (such as the target
    instance) to add to a record about the witness last passed to
    ``accepts``; it is called only when such a record is made, and is None
    when there are no fields.  ``noun`` names a witness in records and skip
    reasons.  Yes instances must accept the synthesized witness; no
    instances must accept none, covered as the module docstring describes.
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    rng = Random(seed)
    rep = ContractReport(name=name)

    def violation(kind, inst, wit):
        out = {"kind": kind, "instance": inst, noun: wit.to_hex()}
        if record is not None:
            out.update(record())
        return out

    def reject_all(inst, wits):
        # ``compress`` draws one number from ``seen`` per witness it pulls,
        # so the count is exact however the loop ends, and it includes a
        # witness whose ``accepts`` raised
        seen = count(1)
        try:
            wit = next(filter(partial(accepts, inst), compress(wits, seen)),
                       None)
        finally:
            rep.witnesses_checked += next(seen) - 1
        if wit is None:
            return True
        rep.violations.append(violation("soundness", inst, wit))
        return False

    for inst in family:
        if inst.kind != kind:
            raise ValidationError(f"{name} expects {kind}, got {inst.kind}")
        rep.checked += 1
        length = wit_len(inst)
        if len_bound is not None and length > len_bound(inst):
            rep.violations.append({
                "kind": "bit-length-bound", "instance": inst,
                "cert_len": length, "bound": len_bound(inst)})
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
                accepted = accepts(inst, wit)
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
                reject_all(inst, all_witnesses(length))
                rep.exhaustive += 1
            elif valid is not None:
                wits = list(islice(valid(inst), VALID_CAP + 1))
                if len(wits) > VALID_CAP:
                    rep.skipped.append((inst, f"valid {noun} family too large"))
                    continue
                if reject_all(inst, wits):
                    reject_all(inst, _corner_witnesses(length, rng))
                rep.stratified += 1
            else:
                rep.skipped.append((inst, f"{noun} space 2^{length} too large"))
        except ResourceLimitError as exc:
            rep.skipped.append((inst, f"target oracle: {exc}"))
        except RedkitError as exc:
            rep.violations.append({
                "kind": "transform-error", "instance": inst, "error": str(exc)})
    return rep


def nppt_contract_check(r: Reduction, family: Iterable[I.ProblemInstance],
                        budget: Budget | None = None, *,
                        exhaustive_cap: int = 4096,
                        seed: int = 0,
                        cache: dict | None = None) -> ContractReport:
    """Check the reduction's yes/no contract against the oracles.

    A witness is accepted when ``r.transform`` maps it to a target yes
    instance.  The witness length is taken once per instance, and a witness
    of another length raises ``Reduction.apply``'s ``ReductionError``.

    The sweep keeps one target: the last one solved, with its answer.  When
    ``transform`` returns that very object again (a run of rejected
    witnesses all map to the reduction's one trivial no-instance), the
    answer is reused; any other target is solved.  The pair is replaced only
    once ``solve`` returns, so a solve that raises leaves no stale answer.
    A caller that wants more reuse passes a dict as ``cache``; it is looked
    up and filled on memo misses only, and the caller bounds its size.
    """
    budget = budget if budget is not None else DEFAULT_BUDGET
    transform, witness_len = r.transform, r.witness_len
    length = 0
    solved, answer = object(), False    # nothing solved yet

    def wit_len(inst):
        nonlocal length
        length = witness_len(inst)
        return length

    def accepts(inst, wit):
        nonlocal solved, answer
        if wit.length != length:
            raise ReductionError(
                f"{r.name}: witness length {wit.length}, expected {length}")
        tgt = transform(inst, wit)
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

    # a record is made only about a witness whose ``accepts`` returned, so
    # its target is the one last solved
    return _sweep(r.name, r.source_kind, "witness", family, budget,
                  wit_len=wit_len, synthesize=r.synthesize,
                  valid=r.valid_witnesses, accepts=accepts,
                  record=lambda: {"target": solved}, len_bound=None,
                  exhaustive_cap=exhaustive_cap, seed=seed)


def certificate_scheme_check(scheme: CertificateScheme,
                             family: Iterable[I.ProblemInstance],
                             budget: Budget | None = None, *,
                             exhaustive_cap: int = 65536,
                             seed: int = 0) -> ContractReport:
    """Soundness/completeness sweep for a certificate scheme.

    A certificate is accepted when ``scheme.verify`` accepts it, and each
    instance's bit budget ``cert_len`` must stay within ``len_bound``.
    """
    return _sweep(scheme.name, scheme.problem_kind, "certificate", family,
                  budget, wit_len=scheme.cert_len,
                  synthesize=scheme.synthesize,
                  valid=scheme.valid_certificates, accepts=scheme.verify,
                  record=None, len_bound=scheme.len_bound,
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


# ---------------------------------------------------------------------------
# Certificate transfer along a reduction chain.


def transfer(chain: Reduction, scheme: CertificateScheme) -> Reduction:
    """``chain`` followed by ``scheme``, as one reduction into a target that
    is decided at once.

    The last link maps an instance of ``scheme.problem_kind`` to the
    trivial yes instance of that kind when ``scheme.verify`` accepts its
    witness, the certificate, and to the trivial no instance otherwise.  A
    witness of the composite is thus the chain's witness followed by a
    certificate slot that ``compose`` sizes from the canonical
    intermediate, and ``nppt_contract_check`` checks the transferred
    certificates.  The two trivial instances are built once here, so the
    sweep's one-target memo solves each of them once per run.
    """
    # a certificate sweep runs no reduction, so it never loads this module
    from .reductions import Reduction, compose
    kind, verify = scheme.problem_kind, scheme.verify
    yes = I.trivial_instance(kind, True)
    no = I.trivial_instance(kind, False)
    last = Reduction(
        name=scheme.name, source_kind=kind, target_kind=kind,
        witness_len=scheme.cert_len,
        transform=lambda inst, cert: yes if verify(inst, cert) else no,
        synthesize=scheme.synthesize,
        valid_witnesses=scheme.valid_certificates)
    return compose(chain, last)
