"""What a contract sweep reports, pinned exactly.

Witness counts and violation records of a sweep in which one witness is
accepted, or raises, at a known place in each coverage phase; and whole
reports for small sweeps of both certificate schemes and of three
reductions, each also with a planted fault (cm-to-permss on two families),
and of two more chains, each pinned in three parts (``Pin``): the sha256
of its verdicts, its three coverage counts and the sha256 of the whole.
"""

import dataclasses
import hashlib
import json
from collections import Counter
from functools import partial
from typing import Callable, NamedTuple

import pytest

from redkit import certificates
from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (FULL_SS_SCHEME, UNBOUNDED_SS_SCHEME,
                                 ZKK_SCHEME, certificate_scheme_check,
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


def _exhaustive(scheme):
    """``scheme`` with every no-instance within the cap enumerated outright:
    it lists no valid certificates."""
    return dataclasses.replace(scheme, valid_certificates=None)


def _full(red):
    return dataclasses.replace(red, valid_witnesses=None)


def test_facts_the_counts_below_rest_on():
    assert not solve(SMALL).answer and not solve(WIDE).answer
    assert UNBOUNDED_SS_SCHEME.cert_len(SMALL) == 8
    assert UNBOUNDED_SS_SCHEME.cert_len(WIDE) == 14
    # not 8576 and 8832: item 2 twice or three times beside item 4 passes
    # t = 7
    valid = [w.value for w in UNBOUNDED_SS_SCHEME.valid_certificates(WIDE)]
    assert valid == [0, 4096, 4352, 4608, 6144, 8320]


def test_accepting_witness_in_the_exhaustive_phase():
    # values 0..100 are checked; the sweep stops at the accepted one and
    # goes on to the next instance, whose 1024 certificates all reject
    other = UnboundedSubsetSumInstance((2,), 5)
    assert UNBOUNDED_SS_SCHEME.cert_len(other) == 10
    rep = certificate_scheme_check(_exhaustive(_accepting(100, SMALL)),
                                   [SMALL, other])
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
    # all 6 valid certificates, then the all-ones probe: the zero probe is
    # the valid certificate 0, already checked
    rep = certificate_scheme_check(_accepting((1 << 14) - 1), [WIDE],
                                   exhaustive_cap=16)
    assert (rep.witnesses_checked, rep.exhaustive, rep.stratified) == \
        (6 + 1, 0, 1)
    assert rep.violations == [
        {"kind": "soundness", "instance": WIDE, "witness": "3fff",
         "target": YES_USS}]
    # nothing accepted: 6 valid certificates and 2 + 16 probes, less the
    # zero probe; the sweep takes this path also at the default cap, since
    # 6 + 18 < 2^14
    for cap in (16, 4096):
        rep = certificate_scheme_check(UNBOUNDED_SS_SCHEME, [WIDE],
                                       exhaustive_cap=cap)
        assert rep.ok and rep.witnesses_checked == 6 + 17
        assert (rep.exhaustive, rep.stratified) == (0, 1)


def test_accepted_witness_whose_target_the_memo_holds(monkeypatch):
    # the yes-instance's certificate leads to the trivial yes target, a
    # declared constant the sweep then has decided; the no-instance's first
    # certificate leads to that very object, so it is caught without a solve
    yes = UnboundedSubsetSumInstance((2,), 4)
    assert solve(yes).answer
    real, asked = certificates.solve, []

    def counting(inst):
        if inst is not yes and inst is not SMALL:
            asked.append(inst)
        return real(inst)
    monkeypatch.setattr(certificates, "solve", counting)
    rep = certificate_scheme_check(_exhaustive(_accepting(0)), [yes, SMALL])
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
    scheme = _raising(value)
    rep = certificate_scheme_check(
        _exhaustive(scheme) if exhaustive else scheme, [inst],
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
    rep = nppt_contract_check(_full(broken), [no, no])
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
    rep = nppt_contract_check(_full(broken), [no])
    assert (rep.witnesses_checked, rep.exhaustive) == (51, 1)
    assert rep.violations == [{"kind": "soundness", "instance": no,
                               "witness": "032", "target": yes_target}]


# ---------------------------------------------------------------------------
# The path of a no-instance within the cap, and the probes of the stratum.


def test_probe_mapped_to_another_no_target_is_an_invalid_stratum():
    # 9 bits and no valid witness (b_0 must be odd, and no item is), so the
    # stratified path: the zero probe, then the all-ones probe, which maps
    # to a no target that is not ss-to-monotone's declared constant
    base = REDUCTIONS["ss-to-monotone"]
    no = SubsetSumInstance((2, 4), 5)
    other_no = IlpInstance(((1,),), (2,), "monotone")
    assert not solve(other_no).answer
    assert list(base.valid_witnesses(no)) == []

    def transform(inst, wit):
        return other_no if wit.value == 511 else base.transform(inst, wit)
    rep = nppt_contract_check(dataclasses.replace(base, transform=transform),
                              [no])
    assert (rep.witnesses_checked, rep.exhaustive, rep.stratified) == \
        (2, 0, 1)
    assert rep.violations == [{"kind": "invalid-stratum", "instance": no,
                               "witness": "1ff", "target": other_no}]
    # the same target from a valid witness is a rejection like any other
    assert nppt_contract_check(_full(dataclasses.replace(
        base, transform=transform)), [no]).ok


def test_probe_inside_the_valid_set_is_neither_transformed_nor_counted():
    # one reduction: each ``reduction()`` builds its own constants
    base, seen = UNBOUNDED_SS_SCHEME.reduction(), []

    def counting(inst, cert):
        seen.append(cert.value)
        return base.transform(inst, cert)
    red = dataclasses.replace(base, transform=counting)
    rep = nppt_contract_check(red, [WIDE])
    # the zero probe is the valid certificate 0: transformed once, as valid
    assert seen.count(0) == 1 and seen[6] == (1 << 14) - 1
    assert rep.ok and rep.witnesses_checked == len(seen) == 6 + 17


def _counting_valid(scheme, pulled):
    valid = scheme.valid_certificates

    def counted(inst):
        for cert in valid(inst):
            pulled.append(cert)
            yield cert
    return dataclasses.replace(scheme, valid_certificates=counted)


def test_small_instance_whose_valid_set_is_not_smaller_stays_exhaustive():
    # 2^5 full-mask certificates, all valid: 32 + 18 >= 32, so all 32 are
    # enumerated, and the valid list is not pulled past 32 - 3 - 16 = 13
    # entries (one more tells that it is too long)
    no, pulled = SubsetSumInstance((1, 2, 3, 4, 5), 16), []
    assert not solve(no).answer
    rep = certificate_scheme_check(_counting_valid(FULL_SS_SCHEME, pulled),
                                   [no])
    assert (rep.witnesses_checked, rep.exhaustive, rep.stratified) == \
        (32, 1, 0)
    assert rep.ok and len(pulled) == 14


def test_instance_of_at_most_4_bits_lists_no_valid_witnesses():
    # 16 <= 2 + 16 + 1: stratifying could never check fewer
    pulled = []
    family = [SubsetSumInstance((1, 2, 3, 4), 11), SubsetSumInstance((), 1)]
    assert not any(solve(inst).answer for inst in family)
    rep = certificate_scheme_check(_counting_valid(FULL_SS_SCHEME, pulled),
                                   family)
    assert (rep.witnesses_checked, rep.exhaustive) == (16 + 1, 2)
    assert rep.ok and pulled == []


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


class Sweep(NamedTuple):
    """A sweep to pin: a reduction (built fresh by ``reduction()``), its
    family and its ``exhaustive_cap``."""

    reduction: Callable
    family: Callable
    cap: int = 4096

    def run(self, sweep=nppt_contract_check):
        return sweep(self.reduction(), self.family(), exhaustive_cap=self.cap)


_USS_FAMILY = partial(unbounded_instances, 2, 4, 10)
_ZKK_FAMILY = partial(zkk_instances, 2, 3)
_SS3 = partial(subset_sums, 3, 4, 10)
_SS5 = partial(subset_sums, 3, 5, 10)
_CM2 = partial(cm_grid, 2, 3)

DIGEST_CASES = {
    "unbounded-ss": Sweep(UNBOUNDED_SS_SCHEME.reduction, _USS_FAMILY, 65536),
    "unbounded-ss/fault": Sweep(_scheme_fault(UNBOUNDED_SS_SCHEME).reduction,
                                _USS_FAMILY, 16),
    "zkk": Sweep(_exhaustive(ZKK_SCHEME).reduction, _ZKK_FAMILY, 65536),
    "zkk/stratified": Sweep(ZKK_SCHEME.reduction, _ZKK_FAMILY, 16),
    "zkk/fault": Sweep(_exhaustive(_scheme_fault(ZKK_SCHEME)).reduction,
                       _ZKK_FAMILY, 65536),
    "ss-to-monotone": Sweep(lambda: REDUCTIONS["ss-to-monotone"], _SS3, 16),
    "ss-to-monotone/fault": Sweep(
        lambda: _reduction_fault(REDUCTIONS["ss-to-monotone"]), _SS3),
    "cm-to-permss": Sweep(lambda: REDUCTIONS["cm-to-permss"],
                          partial(cm_grid, 1, 3)),
    # dimension 2, where some no-sources are not fixed no and so are decoded
    "cm-to-permss/dim2": Sweep(lambda: REDUCTIONS["cm-to-permss"], _CM2),
    "cm-to-permss/fault": Sweep(
        lambda: _reduction_fault(REDUCTIONS["cm-to-permss"]), _CM2),
    "ss-ks-ss": Sweep(lambda: get_reduction("ss-to-knapsack+knapsack-to-ss"),
                      _SS5, 8),
    "ss-ks-ss/fault": Sweep(
        lambda: _reduction_fault(
            get_reduction("ss-to-knapsack+knapsack-to-ss")), _SS5, 8),
    # a chain whose first link has witness bits, and one of three links
    "ss-ms-ss": Sweep(lambda: get_reduction("ss-to-monotone+monotone-to-ss"),
                      _SS3, 16),
    "ss-ks-ss-zq": Sweep(
        lambda: get_reduction("ss-to-knapsack+knapsack-to-ss+ss-to-zq"),
        _SS5, 8),
}

# The report fields the witnesses checked decide, in a pin's ``counts``.
_COUNTS = ("witnesses_checked", "exhaustive", "stratified")


class Pin(NamedTuple):
    """A pinned report, in three parts: the sha256 of its verdicts (the
    report without ``_COUNTS`` and each violation's witness hex), those
    three counts, and the sha256 of the whole report, each digest over the
    sorted-key JSON.  A change that moves only which witnesses a sweep
    checks re-records the last two parts, and the first shows that no
    verdict moved."""

    verdicts: str
    counts: tuple
    full: str


# Recorded with the Python reject loop and the plain layout caches, before
# the loop moved into C and the identity memos went in front of the caches;
# the two ss-ms-ss and ss-ks-ss-zq chains were recorded later, with the
# 256-instance layout caches, before a chain kept its intermediate.  The two
# scheme fault pins were re-recorded when a scheme came to be swept as its
# reduction: each record names a ``witness`` and its ``target`` where it
# named a ``certificate``, and every count stayed the same.  Nine were
# re-recorded when a no-instance within the cap came to be stratified
# whenever its valid list and the 18 probes are fewer than its 2^L
# witnesses, and a probe inside the valid list came to be skipped: they
# changed only in ``exhaustive``, ``stratified`` and ``witnesses_checked``,
# but for ss-to-monotone/fault, on 39 of whose 120 records the first
# faulty witness met is now a raising probe (a ``transform-error``) where
# it was the accepted witness 001.  ``tests/test_reference_sweep.py``
# produces the same reports.  The zkk pins sweep the scheme with no valid
# certificates, so every no-instance is still enumerated outright.  There is
# no unbounded-ss pin at a small cap: the scheme's valid lists are shorter
# than 2^L less the 18 probes on every small family, so its no-instances
# take the stratified path at any cap, and such a pin held the bytes of
# unbounded-ss.  The cm-to-permss pin was re-recorded when a machine with a
# counter that allows no count (a fixed no) came to have one witness of 0
# bits: every no-source of cm_grid(1, 3) is such a machine, so it checks 259
# witnesses where it checked 666, and nothing else moved.  Since a fixed
# no's one witness (value 0) never meets the planted fault (values 2 mod 5),
# the fault pin moved then from cm_grid(1, 3) to cm_grid(2, 3), where 256 of
# the 4,749 no-sources are not fixed no and are decoded; cm-to-permss/dim2
# sweeps that family with no fault.  Recorded on the code before the 0-bit
# witness, cm-to-permss/dim2 differed only in ``witnesses_checked`` (77,314,
# now 10,015), and cm-to-permss/fault had a transform-error record on every
# one of the 4,749 no-sources and checked 15,582 witnesses (now 256 and
# 6,596, the 4,493 fixed no exhaustive); both have the same 91 completeness
# records of yes-sources.  The two unbounded-ss pins were re-recorded when
# the scheme came to list only the certificates whose running totals stay
# within t: they changed only in ``witnesses_checked`` (1,172, now 1,118,
# and 395, now 383) and in the certificate 9 of the fault pin's 59 records
# name, the first faulty one met on the shorter list, on the same 59
# no-instances.  The pins were then split into their three parts, each
# full digest as it was.  Three were re-recorded when ss-to-monotone came
# to list only the witnesses whose digit sums stay within their reach:
# ss-to-monotone and ss-ms-ss kept their verdicts and moved only in
# ``witnesses_checked`` (2,276, now 1,865; full digests c7d0cef5... and
# 1686409d... before).  ss-to-monotone/fault has one record on each of
# the same 120 instances, 6 of them yes-instances (see the test below),
# but on the shorter lists the first faulty witness met differs: on 18 of
# the 114 no-instances it is now an accepted witness (``soundness``) where
# it was a raising one (``transform-error``), and on 12 the other way
# round, so its verdicts part moved too (553a4d05... before), as did
# ``witnesses_checked`` and ``stratified`` (666 and 31, now 544 and 37:
# an instance whose sweep raised is counted in neither phase; full digest
# e809a767... before).  ss-ks-ss/fault was re-recorded when each valid list
# came to put its widest accepted witness first: knapsack-to-ss counts its
# guesses down, so on 74 of the 88 no-instances the first faulty witness
# met is now a raising one (``transform-error``) where it was an accepted
# one (``soundness``), on the same 146 instances (see the test below), and
# its counts went (521, 134, 88) -> (614, 134, 14) (verdicts 9f54b1f7...
# and full digest 33f293a7... before).
PINS = {
    "cm-to-permss": Pin(
        "49c3da461667f4cea7c03efda656a9ee44a6beb5511a8da5574bb3de98001307",
        (259, 137, 0),
        "40e63f5416cb9b9a85c01b98d57cfeeadce100061fa5532afc0c9ef2991dc374"),
    "cm-to-permss/dim2": Pin(
        "9bda7c633134a953b398dced944f91c5c8e645d14c9c2a67c29ba5966ba405ba",
        (10015, 4749, 0),
        "a0307b3a936a3998ef4b592c93142afbb34fb9af335c35ff4df588d2506875e3"),
    "cm-to-permss/fault": Pin(
        "d87f5f5d2548a268b3a48fbd803f61fb732ed72cf5ed2ad2cad489a2f8ab2bed",
        (6596, 4493, 0),
        "7ae94540de86824e374797b9344747851be38a1fe6f445ed2a7d992c73cd8f7c"),
    "ss-ks-ss": Pin(
        "39467b31290fba783ead80edc08bafa8a1ca0e036161916f8783cd7760db62ae",
        (10452, 134, 88),
        "ef3c1a2b015a3d1eec8442e02dbd05eefd606a0d07b1fdc3271a3ebd37fb33a9"),
    "ss-ks-ss-zq": Pin(
        "90bdcb7e89760417f9c8fbf779968707fbcc3a241eb5127c02b846e89b7fb353",
        (10452, 134, 88),
        "7b0be87233fa695280e45d360b9c7897dc7fa9fbc62c701bfa9fbdf620b0cab3"),
    "ss-ks-ss/fault": Pin(
        "a3482b85755102692cf6b18555485f8901d3fba8db4175989a701232e76d6f20",
        (614, 134, 14),
        "616122ea73b376bcb89db96e24f79a675975806b0ab7dbac893ddf13fe0016c3"),
    "ss-ms-ss": Pin(
        "3dfae40a1bbc94693f6d84e6419fdc0390ec44be2d5d0a96e92f0e4dd368e897",
        (1865, 48, 66),
        "ba92e6fb421391a563ea99c7f63cfc22a88cd807cb46007634ec7a9b9f9484ea"),
    "ss-to-monotone": Pin(
        "7bd609cb7569ba2b7aac23eb9bcfb38aaf8ea8544a524a1741e719800366573b",
        (1865, 48, 66),
        "b27a271257af1711029987ed199588ee27c46ecab3e9900919e5030b14594807"),
    "ss-to-monotone/fault": Pin(
        "e32b6b608ff6cbb4944dcf8bd3d8a02d7881903beac58f2e5101d36fbcfc8ffc",
        (544, 48, 37),
        "2def69df7d882600d3ec8bce6b1c5745dac450d5816950dc5e3a4ef5a3f113fb"),
    "unbounded-ss": Pin(
        "db6999a6b7995c899c75645ccd14de6e2bedf63bc6d5b8afabc877c2b55d6e00",
        (1118, 16, 43),
        "f5c21fd8b2f9202e2cd03d37cdbb654b887f4e61c88fc654e623953e152e6015"),
    "unbounded-ss/fault": Pin(
        "5259e36afc65c9e1aa88e7b7d4ac4a88ca53fd3a713f43270e13b710ef575d74",
        (383, 16, 43),
        "210b7d10f1f2c8d4b754c1cf0ec42e64bf4d6b295cfd381086e846acaf872cdd"),
    "zkk": Pin(
        "45723fcc1bcda3b03b2441b497173d821b9c47a32de7fc9fbf37cd1e3f36b675",
        (12838, 78, 0),
        "707bb2b04d9742c38de4d682573ee4d36f2e07f3c2456845bcc004262d4a8a32"),
    "zkk/fault": Pin(
        "07c61abf6932df4ede1332039d4b691c2f47457bf577cfc37c81e8d1d76fe53f",
        (574, 78, 0),
        "5e6c8bb74f23b5ccf27edb3e7d9b7948c2ec90439a64d1b7ba5b945db5088eaa"),
    "zkk/stratified": Pin(
        "45723fcc1bcda3b03b2441b497173d821b9c47a32de7fc9fbf37cd1e3f36b675",
        (1979, 0, 78),
        "b72c30cd4d7e95dfd30b64d316f5b38a33eff36f55aee1e91ccb9391a8043756"),
}


def _digest(data):
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _verdicts(rep):
    """``rep.as_dict()`` without what the witnesses checked decide: the
    three coverage counts and each violation's witness hex."""
    data = rep.as_dict()
    for key in _COUNTS:
        del data[key]
    data["violations"] = [{k: v for k, v in viol.items() if k != "witness"}
                          for viol in data["violations"]]
    return data


def _caught(rep):
    """Each record kind's count, and the sha256 of the sorted reprs of the
    instances the records name: a fault pin whose verdicts part moved but
    whose caught instances did not differs only in which faulty witness a
    sweep meets first."""
    kinds = Counter(v["kind"] for v in rep.violations)
    return dict(sorted(kinds.items())), \
        _digest(sorted(repr(v["instance"]) for v in rep.violations))


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_report_digest(name):
    rep = DIGEST_CASES[name].run()
    pin = PINS[name]
    assert _digest(_verdicts(rep)) == pin.verdicts, \
        (_caught(rep), rep.violations[:3])
    assert tuple(map(rep.as_dict().get, _COUNTS)) == pin.counts
    assert _digest(rep.as_dict()) == pin.full


def test_cm_fault_pin_reaches_decoded_no_sources():
    # the pin's family must keep no-sources whose witnesses are decoded (a
    # fixed no's one witness, value 0, never meets the fault), or the pin
    # no longer shows the fault reported on the no side; a digest would be
    # re-recorded without saying so
    red = REDUCTIONS["cm-to-permss"]
    rep = DIGEST_CASES["cm-to-permss/fault"].run()
    kinds = Counter((v["kind"], solve(v["instance"]).answer,
                     red.witness_len(v["instance"]) > 0)
                    for v in rep.violations)
    assert kinds == {("transform-error", False, True): 256,
                     ("completeness", True, True): 91}


def test_uss_fault_pin_catches_the_fault_on_the_same_no_instances():
    # 59 no-instances of unbounded_instances(2, 4, 10), each with one
    # soundness record, whichever of its faulty certificates is met first
    rep = DIGEST_CASES["unbounded-ss/fault"].run()
    assert Counter((v["kind"], solve(v["instance"]).answer)
                   for v in rep.violations) == {("soundness", False): 59}
    assert len({v["instance"] for v in rep.violations}) == 59


def test_ssm_fault_pin_catches_the_fault_on_the_same_instances():
    # one record on each of 120 instances, 6 of them yes-instances (a
    # completeness record), whichever faulty witness is met first on a
    # no-instance: an accepted one (soundness) or a raising one
    rep = DIGEST_CASES["ss-to-monotone/fault"].run()
    assert Counter((v["kind"] == "completeness", solve(v["instance"]).answer)
                   for v in rep.violations) == {(False, False): 114,
                                                (True, True): 6}
    assert len({v["instance"] for v in rep.violations}) == 120


def test_chain_fault_pin_catches_the_fault_on_the_same_instances():
    # one record on each of 146 instances, 58 of them yes-instances (a
    # completeness record), whichever faulty witness is met first on a
    # no-instance: a raising one (transform-error) or an accepted one
    # (soundness); the caught set is the one recorded before the lists
    # put their widest witness first
    rep = DIGEST_CASES["ss-ks-ss/fault"].run()
    assert Counter((v["kind"] == "completeness", solve(v["instance"]).answer)
                   for v in rep.violations) == {(False, False): 88,
                                                (True, True): 58}
    assert len({v["instance"] for v in rep.violations}) == 146
    assert _caught(rep) == (
        {"completeness": 58, "soundness": 14, "transform-error": 74},
        "11e9fc75a49d0eed881d6161dbd328542a0bde254f35dd5297d748b6be8b8512")
