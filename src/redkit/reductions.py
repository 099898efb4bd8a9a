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
decode structurally (used to stratify exhaustive checks), and
``canonical_witness`` names one witness whose image has the generic shape
(used to size composite witnesses).

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

from .errors import ReductionError
from .witness import Witness, layout_cache


@dataclass(frozen=True)
class Reduction:
    name: str
    source_kind: str
    target_kind: str
    witness_len: Callable
    transform: Callable
    synthesize: Callable
    valid_witnesses: Optional[Callable] = None
    canonical_witness: Optional[Callable] = None
    param_bound: Optional[Callable] = None

    def probe_witness(self, inst) -> Witness:
        if self.canonical_witness is not None:
            return self.canonical_witness(inst)
        return Witness.zero(self.witness_len(inst))

    def apply(self, inst, wit: Witness):
        # before ``witness_len``, which may read fields of the source kind
        if inst.kind != self.source_kind:
            raise ReductionError(
                f"{self.name} expects {self.source_kind}, got {inst.kind}")
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
    ``Reduction`` fields (``param_bound``, ``canonical_witness``)."""
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


def compose(first: Reduction, second: Reduction,
            name: str | None = None) -> Reduction:
    """Chain two reductions; synthesis solves the intermediate instance
    with ``oracles.solve``.

    The composite witness is the first reduction's witness followed by a
    slot sized for the canonical intermediate instance.  When an actual
    intermediate wants a shorter witness the low-order bits are used; when
    it wants a longer one the zero witness is substituted, which is sound
    because a no-intermediate maps to a no-instance under every witness.

    The composite keeps one intermediate: the instance, first-link witness
    and ``first.transform`` result of its last call, rebound only once that
    call returns.  Every use of ``first.transform`` (the slot sizes,
    ``transform``, ``synthesize``, the witness enumeration and the
    canonical witness) goes through it, and it is reused while the very
    same instance object comes with an equal first-link witness.  A sweep
    in increasing value order thus builds each intermediate once per run of
    2^l2 tails, and the next link's ``witness.layout_cache`` sees that same
    object again.
    """
    if first.target_kind != second.source_kind:
        raise ReductionError(
            f"cannot compose {first.name} ({first.target_kind}) "
            f"with {second.name} ({second.source_kind})")
    from . import oracles

    # one tuple, rebound in a single store; it starts with an object no
    # caller holds
    last = (object(), None, None)

    def intermediate(inst, w1):
        nonlocal last
        held, held_w1, mid = last
        if inst is held and w1 == held_w1:
            return mid
        mid = first.transform(inst, w1)
        last = (inst, w1, mid)
        return mid

    @layout_cache
    def probe(inst):
        # the slot sizes depend only on the instance: computed once each
        l1 = first.witness_len(inst)
        mid0 = intermediate(inst, first.probe_witness(inst))
        return l1, second.witness_len(mid0)

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
        mid = intermediate(inst, tuple.__new__(Witness, (v >> l2, l1)))
        l2p = second.witness_len(mid)
        if l2p <= l2:
            w2 = tuple.__new__(Witness, (v & ((1 << l2p) - 1), l2p))
        else:
            w2 = Witness.zero(l2p)
        return second.transform(mid, w2)

    def synthesize(inst, sol):
        w1 = first.synthesize(inst, sol)
        mid = intermediate(inst, w1)
        got = oracles.solve(mid)
        if not got.answer:
            raise ReductionError(
                f"{first.name}: synthesized witness produced a no-instance")
        w2 = second.synthesize(mid, got.solution)
        _, l2 = probe(inst)
        if w2.length > l2:
            raise ReductionError(
                f"{second.name}: synthesized witness longer than composite slot")
        return Witness((w1.value << l2) | w2.value, w1.length + l2)

    def valid(inst):
        _, l2 = probe(inst)
        for w1 in first.valid_witnesses(inst):
            mid = intermediate(inst, w1)
            l2p = second.witness_len(mid)
            if l2p > l2:
                continue
            for w2 in second.valid_witnesses(mid):
                yield Witness((w1.value << l2) | w2.value, w1.length + l2)

    has_valid = first.valid_witnesses is not None and \
        second.valid_witnesses is not None
    bound = None
    if first.param_bound is not None and second.param_bound is not None:
        bound = lambda p: second.param_bound(first.param_bound(p))  # noqa: E731

    def canonical(inst):
        w1 = first.probe_witness(inst)
        mid = intermediate(inst, w1)
        w2 = second.probe_witness(mid)
        _, l2 = probe(inst)
        if w2.length > l2:
            raise ReductionError("canonical witness overflow in composition")
        return Witness((w1.value << l2) | w2.value, w1.length + l2)

    return Reduction(
        name=name or f"{first.name}+{second.name}",
        source_kind=first.source_kind,
        target_kind=second.target_kind,
        witness_len=witness_len,
        transform=transform,
        synthesize=synthesize,
        valid_witnesses=valid if has_valid else None,
        canonical_witness=canonical,
        param_bound=bound,
    )


def chain(*reductions: Reduction, name: str | None = None) -> Reduction:
    if not reductions:
        raise ReductionError("empty chain")
    acc = reductions[0]
    for red in reductions[1:]:
        acc = compose(acc, red)
    if name is not None:
        acc = dataclasses.replace(acc, name=name)
    return acc
