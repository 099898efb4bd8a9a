"""Reduction objects: witnessed instance transformations plus composition.

A reduction from kind A to kind B carries:

* ``witness_len(inst)`` -- declared witness length in bits for this instance;
* ``transform(inst, wit)`` -- total over *all* bit strings of that length,
  always returning a valid target instance (structurally bad witnesses must
  map to no-instances, never raise);
* ``synthesize(inst, solution)`` -- given a yes-instance and a solution,
  a witness making ``transform`` produce a yes-instance.

The contract: if the source is a no-instance, every witness yields a
no-instance; if it is a yes-instance, the synthesized witness yields a
yes-instance.  ``valid_witnesses`` optionally enumerates the witnesses that
decode structurally (used to stratify exhaustive checks), a widest
accepted one first: an accepted witness (one ``transform`` decodes rather
than maps to its fixed reject target) whose target needs the widest next
slot.  ``compose`` sizes its next slot from that first witness, or from the
zero witness when there is no list or it is empty.  ``wit_bound(inst)``,
when declared, is the most witness bits the reduction may use on ``inst``;
the contract sweep records a ``bit-length-bound`` violation on an instance
whose ``witness_len`` exceeds it.  ``compose`` declares none.
``constants`` are the shared targets ``transform`` returns by identity
(guard cases, rejected witnesses), which the contract sweep solves once;
``compose`` passes on the second link's, and each of the first link's that
the second returns as it is from a 0-bit witness (as an identity does).

``source_variant`` and ``target_variant`` name the variant a reduction
reads and writes (None: any): an ILP's ``variant`` field, or a subset-sum
instance's derived ``variant`` (``"modular"`` with a modulus, ``"plain"``
without; the three reductions from subset sum read ``"plain"``).
``check_source``, which ``apply`` calls, refuses a source of another kind
or variant, and ``apply`` then refuses, with a ``ValidationError`` naming
the reduction, a source ``instances.validate`` rejects; the transforms
themselves assume a valid source.  ``apply`` reads that check from
``instances.source_problems``, which keeps it for the last source object,
so many ``apply`` calls on one source validate it once, and so does
``redkit reduce``, whose loader shares the memo.  ``compose`` refuses
links whose variants do not meet and chains the two fields.  A link that keeps its
kind and names no variant (an identity) passes the other link's variant
through.  The transforms do not test the variant again.

A reduction that reads no witness is declared with ``deterministic``, which
takes its name, kinds and transform (plus any further ``Reduction`` field)
and fills in the rest: a 0-bit witness length, and one shared 0-bit witness
as both the synthesized witness and the only valid one.  The identities
(``identity_reduction``) are built the same way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ReductionError, ValidationError
from .instances import layout_cache, source_problems
from .witness import Witness


@dataclass(frozen=True)
class Reduction:
    name: str
    source_kind: str
    target_kind: str
    witness_len: Callable
    transform: Callable
    synthesize: Callable
    valid_witnesses: Optional[Callable] = None
    param_bound: Optional[Callable] = None
    wit_bound: Optional[Callable] = None
    source_variant: Optional[str] = None
    target_variant: Optional[str] = None
    constants: tuple = ()

    def check_source(self, inst) -> None:
        """Raise ``ReductionError`` unless ``inst`` has the source kind and,
        when one is named, the source variant."""
        if inst.kind != self.source_kind:
            raise ReductionError(
                f"{self.name} expects {self.source_kind}, got {inst.kind}")
        if self.source_variant is not None and \
                inst.variant != self.source_variant:
            raise ReductionError(
                f"{self.name} expects a {self.source_variant} instance, "
                f"got {inst.variant}")

    def apply(self, inst, wit: Witness):
        # before ``witness_len``, which may read fields of the source kind
        self.check_source(inst)
        problems = source_problems(inst)
        if problems:
            raise ValidationError(
                f"{self.name}: invalid source: {'; '.join(problems)}")
        if wit.length != self.witness_len(inst):
            raise ReductionError(
                f"{self.name}: witness length {wit.length}, "
                f"expected {self.witness_len(inst)}")
        return self.transform(inst, wit)


def deterministic(name: str, source_kind: str, target_kind: str,
                  transform: Callable, **fields) -> Reduction:
    """A reduction that reads no witness: its witness has 0 bits, and the
    one 0-bit witness is both the synthesized witness and the only valid
    one.  ``transform(inst, wit)`` ignores ``wit``; ``fields`` are further
    ``Reduction`` fields (``param_bound``, the variants, ``constants``)."""
    zero = Witness.zero(0)
    return Reduction(
        name=name,
        source_kind=source_kind,
        target_kind=target_kind,
        witness_len=lambda inst: 0,
        transform=transform,
        synthesize=lambda inst, sol: zero,
        valid_witnesses=lambda inst: iter((zero,)),
        **fields,
    )


def identity_reduction(kind: str) -> Reduction:
    """The identity on ``kind``, named ``identity-`` and the kind with
    dashes, as the catalog lists it."""
    return deterministic(f"identity-{kind.replace('_', '-')}", kind, kind,
                         lambda inst, wit: inst, param_bound=lambda p: p)


def compose(first: Reduction, second: Reduction) -> Reduction:
    """Chain two reductions; synthesis solves the intermediate instance
    with ``oracles.solve``.

    The composite witness is the first reduction's witness followed by a
    slot sized for the intermediate instance of the first reduction's
    first listed witness, a widest accepted one (the zero witness when it
    lists none).  The composite lists each first-link witness in turn, the
    second link's list behind it, so it starts from that witness too.
    When an actual intermediate wants a shorter witness the low-order bits
    are used; when it wants a longer one the first list broke the
    widest-first rule, and ``transform`` raises ``ReductionError`` (a
    ``transform-error`` in the contract sweep).  The witness enumeration
    yields one witness for each such first-link witness, its slot zero, so
    that a stratified sweep meets the error too.

    The composite keeps one intermediate: the instance and first-link
    witness of its last call, the ``first.transform`` result and that
    result's ``second.witness_len``, rebound only once that call returns.
    Every use of ``first.transform`` (the slot sizes, ``transform``,
    ``synthesize`` and the witness enumeration) goes through it, and it is
    reused while the very same instance object comes with an equal
    first-link witness.  A sweep in increasing value order thus builds
    each intermediate once per run of 2^l2 tails, and the next link's
    ``instances.layout_cache`` sees that same object again.
    """
    if first.target_kind != second.source_kind:
        raise ReductionError(
            f"cannot compose {first.name} ({first.target_kind}) "
            f"with {second.name} ({second.source_kind})")
    if None not in (first.target_variant, second.source_variant) and \
            first.target_variant != second.source_variant:
        raise ReductionError(
            f"cannot compose {first.name} ({first.target_variant}) "
            f"with {second.name} ({second.source_variant})")
    from . import oracles

    # one tuple, rebound in a single store; it starts with an object no
    # caller holds
    last = (object(), None, None, None)

    def intermediate(inst, w1):
        # (the intermediate, the witness length the next link wants on it)
        nonlocal last
        held, held_w1, mid, l2 = last
        if inst is held and w1 == held_w1:
            return mid, l2
        mid = first.transform(inst, w1)
        l2 = second.witness_len(mid)
        last = (inst, w1, mid, l2)
        return mid, l2

    @layout_cache
    def probe(inst):
        # the slot sizes depend only on the instance: computed once each
        l1 = first.witness_len(inst)
        # the first listed witness is a widest accepted one
        listed = first.valid_witnesses(inst) if first.valid_witnesses else ()
        return l1, intermediate(inst, next(iter(listed), Witness.zero(l1)))[1]

    def witness_len(inst):
        l1, l2 = probe(inst)
        return l1 + l2

    def transform(inst, wit):
        l1, l2 = probe(inst)
        if wit.length != l1 + l2:
            raise ReductionError("composite witness length mismatch")
        v = wit.value
        # both parts fit their lengths, since ``wit`` fits l1 + l2 bits, so
        # they skip Witness's range checks
        mid, l2p = intermediate(inst, tuple.__new__(Witness, (v >> l2, l1)))
        if l2p > l2:
            raise _overflow(second, l2p, l2)
        return second.transform(
            mid, tuple.__new__(Witness, (v & ((1 << l2p) - 1), l2p)))

    def synthesize(inst, sol):
        w1 = first.synthesize(inst, sol)
        mid = intermediate(inst, w1)[0]
        got = oracles.solve(mid)
        if not got.answer:
            raise ReductionError(
                f"{first.name}: synthesized witness produced a no-instance")
        w2 = second.synthesize(mid, got.solution)
        _, l2 = probe(inst)
        if w2.length > l2:
            raise _overflow(second, w2.length, l2)
        return Witness((w1.value << l2) | w2.value, w1.length + l2)

    def valid(inst):
        _, l2 = probe(inst)
        for w1 in first.valid_witnesses(inst):
            mid, l2p = intermediate(inst, w1)
            if l2p > l2:
                # ``transform`` raises on it
                yield Witness(w1.value << l2, w1.length + l2)
                continue
            for w2 in second.valid_witnesses(mid):
                yield Witness((w1.value << l2) | w2.value, w1.length + l2)

    has_valid = first.valid_witnesses is not None and \
        second.valid_witnesses is not None
    bound = None
    if first.param_bound is not None and second.param_bound is not None:
        bound = lambda p: second.param_bound(first.param_bound(p))  # noqa: E731

    zero = Witness.zero(0)
    passed = tuple(c for c in first.constants if second.witness_len(c) == 0
                   and second.transform(c, zero) is c)
    source_variant, target_variant = first.source_variant, second.target_variant
    if _passes_variant(first):
        source_variant = second.source_variant
    if _passes_variant(second):
        target_variant = first.target_variant
    return Reduction(
        name=f"{first.name}+{second.name}",
        source_kind=first.source_kind,
        target_kind=second.target_kind,
        witness_len=witness_len,
        transform=transform,
        synthesize=synthesize,
        valid_witnesses=valid if has_valid else None,
        param_bound=bound,
        source_variant=source_variant,
        target_variant=target_variant,
        constants=second.constants + passed,
    )


def _overflow(second: Reduction, wanted: int, slot: int) -> ReductionError:
    return ReductionError(
        f"{second.name}: intermediate wants a {wanted}-bit witness, "
        f"composite slot has {slot}")


def _passes_variant(r: Reduction) -> bool:
    return r.source_kind == r.target_kind and \
        r.source_variant is None and r.target_variant is None


def chain(*reductions: Reduction, name: str | None = None) -> Reduction:
    if not reductions:
        raise ReductionError("empty chain")
    acc = reductions[0]
    for red in reductions[1:]:
        acc = compose(acc, red)
    if name is not None:
        acc = dataclasses.replace(acc, name=name)
    return acc
