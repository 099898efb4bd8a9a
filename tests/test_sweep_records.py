"""What a contract sweep reports, pinned exactly.

Witness counts and violation records of a sweep in which one witness is
accepted, or raises, at a known place in each coverage phase; and the
sha256 of whole reports for small sweeps of both certificate schemes and of
three reductions, each also with a planted fault, and of two more chains.
"""

import dataclasses
import hashlib
import json

import pytest

from redkit import certificates
from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (UNBOUNDED_SS_SCHEME, ZKK_SCHEME,
                                 certificate_scheme_check,
                                 nppt_contract_check)
from redkit.errors import ReductionError
from redkit.families import (cm_grid, subset_sums, unbounded_instances,
                             zkk_instances)
from redkit.instances import (IlpInstance, SubsetSumInstance,
                              UnboundedSubsetSumInstance, trivial_instance)
from redkit.oracles import solve

# no-instances: 8 and 14 certificate bits
SMALL = UnboundedSubsetSumInstance((2,), 3)
WIDE = UnboundedSubsetSumInstance((2, 4), 7)
# the target of an accepted unbounded-SS certificate
YES_USS = trivial_instance("unbounded_subset_sum", True)


def _accepting(value, on=None):
    """The unbounded-SS scheme with a verifier that also accepts the
    certificate ``value`` (of instance ``on``, or of every instance)."""
    verify = UNBOUNDED_SS_SCHEME.verify

    def broken(inst, cert):
        if cert.value == value and (on is None or inst == on):
            return True
        return verify(inst, cert)
    return dataclasses.replace(UNBOUNDED_SS_SCHEME, verify=broken)


def _raising(value):
    verify = UNBOUNDED_SS_SCHEME.verify

    def broken(inst, cert):
        if cert.value == value:
            raise ReductionError(f"fault at {value}")
        return verify(inst, cert)
    return dataclasses.replace(UNBOUNDED_SS_SCHEME, verify=broken)


def test_facts_the_counts_below_rest_on():
    assert not solve(SMALL).answer and not solve(WIDE).answer
    assert UNBOUNDED_SS_SCHEME.cert_len(SMALL) == 8
    assert UNBOUNDED_SS_SCHEME.cert_len(WIDE) == 14
    valid = [w.value for w in UNBOUNDED_SS_SCHEME.valid_certificates(WIDE)]
    assert valid == [0, 4096, 4352, 4608, 6144, 8320, 8576, 8832]


def test_accepting_witness_in_the_exhaustive_phase():
    # values 0..100 are checked; the sweep stops at the accepted one and
    # goes on to the next instance, whose 1024 certificates all reject
    other = UnboundedSubsetSumInstance((2,), 5)
    assert UNBOUNDED_SS_SCHEME.cert_len(other) == 10
    rep = certificate_scheme_check(_accepting(100, SMALL), [SMALL, other])
    assert (rep.witnesses_checked, rep.exhaustive, rep.stratified) == \
        (101 + 1024, 2, 0)
    assert rep.violations == [
        {"kind": "soundness", "instance": SMALL, "witness": "64",
         "target": YES_USS}]


def test_accepting_witness_in_the_stratified_phase():
    # the fourth valid certificate is accepted: no corner probes follow
    rep = certificate_scheme_check(_accepting(4608), [WIDE],
                                   exhaustive_cap=16)
    assert (rep.witnesses_checked, rep.exhaustive, rep.stratified) == \
        (4, 0, 1)
    assert rep.violations == [
        {"kind": "soundness", "instance": WIDE, "witness": "1200",
         "target": YES_USS}]


def test_accepting_witness_in_the_corner_probe_phase():
    # all 8 valid certificates, then the zero and the all-ones probes
    rep = certificate_scheme_check(_accepting((1 << 14) - 1), [WIDE],
                                   exhaustive_cap=16)
    assert (rep.witnesses_checked, rep.exhaustive, rep.stratified) == \
        (8 + 2, 0, 1)
    assert rep.violations == [
        {"kind": "soundness", "instance": WIDE, "witness": "3fff",
         "target": YES_USS}]
    # nothing accepted: 8 valid certificates and 2 + 16 probes
    rep = certificate_scheme_check(UNBOUNDED_SS_SCHEME, [WIDE],
                                   exhaustive_cap=16)
    assert rep.ok and rep.witnesses_checked == 8 + 18


def test_accepted_witness_whose_target_the_memo_holds(monkeypatch):
    # the yes-instance's certificate leads to the trivial yes target, a
    # declared constant the sweep then has decided; the no-instance's first
    # certificate leads to that very object, so it is caught without a solve
    yes = UnboundedSubsetSumInstance((2,), 4)
    assert solve(yes).answer
    real, asked = certificates.solve, []

    def counting(inst, budget=None):
        if inst is not yes and inst is not SMALL:
            asked.append(inst)
        return real(inst, budget)
    monkeypatch.setattr(certificates, "solve", counting)
    rep = certificate_scheme_check(_accepting(0), [yes, SMALL])
    assert rep.witnesses_checked == 2 and rep.exhaustive == 1
    assert rep.violations == [
        {"kind": "soundness", "instance": SMALL, "witness": "00",
         "target": YES_USS}]
    assert asked == [YES_USS]


@pytest.mark.parametrize("value, cap, counted, exhaustive", [
    (0, 65536, 1, 1), (100, 65536, 101, 1),
    (6144, 16, 5, 0), (0, 16, 1, 0)])
def test_raising_verifier_counts_the_raising_witness(value, cap, counted,
                                                     exhaustive):
    inst = SMALL if exhaustive else WIDE
    rep = certificate_scheme_check(_raising(value), [inst],
                                   exhaustive_cap=cap)
    assert rep.witnesses_checked == counted
    # an instance whose sweep raised is counted in neither phase
    assert (rep.exhaustive, rep.stratified) == (0, 0)
    assert rep.violations == [{"kind": "transform-error", "instance": inst,
                               "error": f"fault at {value}"}]


def test_raising_transform_counts_the_raising_witness():
    base = REDUCTIONS["ss-to-monotone"]
    no = SubsetSumInstance((2, 4), 5)
    assert not solve(no).answer and base.witness_len(no) == 9

    def transform(inst, wit):
        if wit.value == 37:
            raise ReductionError("transform fault")
        return base.transform(inst, wit)
    broken = dataclasses.replace(base, transform=transform)
    rep = nppt_contract_check(broken, [no, no])
    assert rep.witnesses_checked == 2 * 38
    assert rep.violations == 2 * [{"kind": "transform-error", "instance": no,
                                   "error": "transform fault"}]


def test_accepted_witness_record_carries_its_target():
    base = REDUCTIONS["ss-to-monotone"]
    no = SubsetSumInstance((2, 4), 5)
    yes_target = IlpInstance(((1,),), (1,), "monotone")

    def transform(inst, wit):
        return yes_target if wit.value == 50 else base.transform(inst, wit)
    broken = dataclasses.replace(base, transform=transform)
    rep = nppt_contract_check(broken, [no])
    assert (rep.witnesses_checked, rep.exhaustive) == (51, 1)
    assert rep.violations == [{"kind": "soundness", "instance": no,
                               "witness": "032", "target": yes_target}]


# ---------------------------------------------------------------------------
# Report digests: sha256 of the sorted-key JSON of ``as_dict()``.


def _every(n, value):
    """A fault on every witness whose value is ``value`` modulo ``n``."""
    return lambda wit: wit.value % n == value


def _scheme_fault(scheme):
    verify, hit = scheme.verify, _every(7, 3)
    return dataclasses.replace(
        scheme, verify=lambda inst, cert: hit(cert) or verify(inst, cert))


_YES_TARGETS = {
    "ilp": IlpInstance(((1,),), (1,), "monotone"),
    "subset_sum": SubsetSumInstance((1,), 1),
}


def _reduction_fault(red):
    """Witnesses 2 mod 5 raise, and 1 mod 7 map to a yes target where the
    target kind has one above."""
    transform, boom, hit = red.transform, _every(5, 2), _every(7, 1)
    yes = _YES_TARGETS.get(red.target_kind)

    def broken(inst, wit):
        if boom(wit):
            raise ReductionError(f"fault at {wit.value}")
        if yes is not None and hit(wit):
            return yes
        return transform(inst, wit)
    return dataclasses.replace(red, transform=broken)


DIGEST_CASES = {
    "unbounded-ss": lambda: certificate_scheme_check(
        UNBOUNDED_SS_SCHEME, unbounded_instances(2, 4, 10)),
    "unbounded-ss/stratified": lambda: certificate_scheme_check(
        UNBOUNDED_SS_SCHEME, unbounded_instances(2, 4, 10),
        exhaustive_cap=16),
    "unbounded-ss/fault": lambda: certificate_scheme_check(
        _scheme_fault(UNBOUNDED_SS_SCHEME), unbounded_instances(2, 4, 10),
        exhaustive_cap=16),
    "zkk": lambda: certificate_scheme_check(ZKK_SCHEME, zkk_instances(2, 3)),
    "zkk/stratified": lambda: certificate_scheme_check(
        ZKK_SCHEME, zkk_instances(2, 3), exhaustive_cap=16),
    "zkk/fault": lambda: certificate_scheme_check(
        _scheme_fault(ZKK_SCHEME), zkk_instances(2, 3)),
    "ss-to-monotone": lambda: nppt_contract_check(
        REDUCTIONS["ss-to-monotone"], subset_sums(3, 4, 10),
        exhaustive_cap=16),
    "ss-to-monotone/fault": lambda: nppt_contract_check(
        _reduction_fault(REDUCTIONS["ss-to-monotone"]),
        subset_sums(3, 4, 10)),
    "cm-to-permss": lambda: nppt_contract_check(
        REDUCTIONS["cm-to-permss"], cm_grid(1, 3)),
    "cm-to-permss/fault": lambda: nppt_contract_check(
        _reduction_fault(REDUCTIONS["cm-to-permss"]), cm_grid(1, 3)),
    "ss-ks-ss": lambda: nppt_contract_check(
        get_reduction("ss-to-knapsack+knapsack-to-ss"),
        subset_sums(3, 5, 10), exhaustive_cap=8),
    "ss-ks-ss/fault": lambda: nppt_contract_check(
        _reduction_fault(get_reduction("ss-to-knapsack+knapsack-to-ss")),
        subset_sums(3, 5, 10), exhaustive_cap=8),
    # a chain whose first link has witness bits, and one of three links
    "ss-ms-ss": lambda: nppt_contract_check(
        get_reduction("ss-to-monotone+monotone-to-ss"),
        subset_sums(3, 4, 10), exhaustive_cap=16),
    "ss-ks-ss-zq": lambda: nppt_contract_check(
        get_reduction("ss-to-knapsack+knapsack-to-ss+ss-to-zq"),
        subset_sums(3, 5, 10), exhaustive_cap=8),
}

# Recorded with the Python reject loop and the plain layout caches, before
# the loop moved into C and the identity memos went in front of the caches;
# the two ss-ms-ss and ss-ks-ss-zq chains were recorded later, with the
# 256-instance layout caches, before a chain kept its intermediate.  The two
# scheme fault pins were re-recorded when a scheme came to be swept as its
# reduction: each record names a ``witness`` and its ``target`` where it
# named a ``certificate``, and every count stayed the same.
DIGESTS = {
    "cm-to-permss":
        "4209ebc77d4b9d00b24b859bee3d2989c9da1abe20bbe2af4c65ae7ba2d5e550",
    "cm-to-permss/fault":
        "49db42bb7fd95c508b05ce00c65cd66945d87d3e2ddd584d0bdd537a53fd9e79",
    "ss-ks-ss":
        "58a51a5209399e63663859828656207cd52cb0c2b72586e6586b9622f6e65816",
    "ss-ks-ss/fault":
        "33f293a781223e085a946a79fb2d12ffba3597f5f93cbf91dca5bd0c6fc5c926",
    "ss-ks-ss-zq":
        "c9dcbf740a23e6468fa8aded8ad6d4a2ba96a62cc7dce10b75dbace210bb7c6e",
    "ss-ms-ss":
        "4d1c487f578e8a3db68945ef8d1a1f42b7b7976630fc7572264a06c4800f494a",
    "ss-to-monotone":
        "62435666bc0d699aef7a4bf6417ca1242b6434787d6ae9d878d68bdac60d54d7",
    "ss-to-monotone/fault":
        "01901e9dbef88b1bd50d21c6d37b83d8255250c7b59fac953bc088d98d8a9528",
    "unbounded-ss":
        "862645ee1842eac1c977747b5a1ab5c3317feabc2463ad9c7f7a4e3b19bfec36",
    "unbounded-ss/fault":
        "339f912e741db69b458765156d95cdd391efd1ab2e5789ca3c06b938244ef8b3",
    "unbounded-ss/stratified":
        "bd42b941c60abd718f8bd2c860f7b5f3f163af72b68c88d47c458e8b1392549d",
    "zkk":
        "707bb2b04d9742c38de4d682573ee4d36f2e07f3c2456845bcc004262d4a8a32",
    "zkk/fault":
        "5e6c8bb74f23b5ccf27edb3e7d9b7948c2ec90439a64d1b7ba5b945db5088eaa",
    "zkk/stratified":
        "531b278ed117639bbeacb9a1b31b7e993ceb80bf431be03f6848e79e84c27054",
}


def _digest(rep):
    text = json.dumps(rep.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_report_digest(name):
    rep = DIGEST_CASES[name]()
    assert _digest(rep) == DIGESTS[name], (
        rep.checked, rep.witnesses_checked, rep.violations[:3])
