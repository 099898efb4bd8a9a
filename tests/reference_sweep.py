"""The contract sweep's documented semantics, as one plain loop.

``reference_sweep`` takes the arguments of
``certificates.nppt_contract_check`` except ``cache``, and returns the
same ``ContractReport``.  It applies every witness with
``Reduction.apply`` and decides every target with the referee
(``reference_oracle.decide``), so a wrong answer of the target oracle
moves the sweep's report and not this one.  No declared constant is
decided once, no answer is kept and no target is filtered.  A source is
solved by ``oracles.solve``, whose solution ``synthesize`` needs.  The
probes of the invalid stratum come from one ``Random(seed)`` per sweep,
drawn only as they are checked, in the sweep's order.
``tests/test_reference_sweep.py`` compares the two reports exactly.
"""

from itertools import islice
from random import Random

from redkit.certificates import INVALID_SAMPLES, VALID_CAP, ContractReport
from redkit.errors import (RedkitError, ReductionError, ResourceLimitError,
                           ValidationError)
from redkit.oracles import solve
from redkit.witness import Witness

from reference_oracle import decide


def reference_sweep(r, family, *, exhaustive_cap=4096, seed=0):
    rng = Random(seed)
    rep = ContractReport(name=r.name)

    def record(kind, inst, wit, tgt):
        rep.violations.append({"kind": kind, "instance": inst,
                               "witness": wit.to_hex(), "target": tgt})

    def rejects(inst, wits):
        """Check each witness in turn; record the first one accepted."""
        for wit in wits:
            rep.witnesses_checked += 1
            tgt = r.apply(inst, wit)
            if decide(tgt):
                record("soundness", inst, wit, tgt)
                return False
        return True

    def stratum_rejects(inst, length, wits):
        """Check the probes outside ``wits``: each must map to a declared
        constant that solves to no.  Record the first that does not."""
        draws = [0, 2 ** length - 1] if length else [0]
        for i in range(len(draws) + INVALID_SAMPLES):
            wit = Witness(draws[i] if i < len(draws) else
                          rng.getrandbits(length), length)
            if wit in wits:
                continue
            rep.witnesses_checked += 1
            tgt = r.apply(inst, wit)
            if decide(tgt):
                record("soundness", inst, wit, tgt)
                return
            if not any(tgt is const for const in r.constants):
                record("invalid-stratum", inst, wit, tgt)
                return

    for inst in family:
        try:
            r.check_source(inst)
            length = r.witness_len(inst)
        except ReductionError as exc:
            raise ValidationError(str(exc)) from None
        rep.checked += 1
        if r.wit_bound is not None and length > r.wit_bound(inst):
            rep.violations.append({
                "kind": "bit-length-bound", "instance": inst,
                "witness_len": length, "bound": r.wit_bound(inst)})
        try:
            src = solve(inst)
        except ResourceLimitError as exc:
            rep.skipped.append((inst, f"source oracle: {exc}"))
            continue
        if src.answer:
            rep.yes_instances += 1
            step = "synthesize"
            try:
                wit = r.synthesize(inst, src.solution)
                step = "target oracle"
                tgt = r.apply(inst, wit)
                accepted = decide(tgt)
            except ResourceLimitError as exc:
                rep.skipped.append((inst, f"{step}: {exc}"))
                continue
            except RedkitError as exc:
                rep.violations.append({"kind": "completeness",
                                       "instance": inst, "error": str(exc)})
                continue
            rep.witnesses_checked += 1
            if not accepted:
                record("completeness", inst, wit, tgt)
            continue
        rep.no_instances += 1
        small = length <= 26 and 2 ** length <= exhaustive_cap
        # the valid list, if stratifying is allowed and (on a small
        # instance) checks fewer witnesses than the 2^L there are
        most = min(VALID_CAP, 2 ** length - 3 - INVALID_SAMPLES) if small \
            else VALID_CAP
        wits = None
        try:
            if r.valid_witnesses is not None and most >= 0:
                wits = list(islice(r.valid_witnesses(inst), most + 1))
                if len(wits) > most:
                    if not small:
                        rep.skipped.append(
                            (inst, "valid witness family too large"))
                        continue
                    wits = None
            if wits is not None:
                for wit in wits:
                    if wit.length != length:
                        raise ReductionError(f"{r.name}: witness length "
                                             f"{wit.length}, expected {length}")
                if rejects(inst, wits):
                    stratum_rejects(inst, length, wits)
                rep.stratified += 1
            elif small:
                rejects(inst, (Witness(v, length) for v in range(2 ** length)))
                rep.exhaustive += 1
            else:
                rep.skipped.append((inst, f"witness space 2^{length} too large"))
        except ResourceLimitError as exc:
            rep.skipped.append((inst, f"target oracle: {exc}"))
        except RedkitError as exc:
            rep.violations.append({"kind": "transform-error", "instance": inst,
                                   "error": str(exc)})
    return rep
