"""Certificate schemes, contract checkers, and certificate transfer."""

import dataclasses
import gc
import re
import tracemalloc
from itertools import product, repeat

import pytest
from hypothesis import given, settings, strategies as st

from redkit import certificates, instances as I
from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (FULL_SS_SCHEME, UNBOUNDED_SS_SCHEME,
                                 ZKK_SCHEME, certificate_scheme_check,
                                 find_zero_sum_subsequence,
                                 nppt_contract_check,
                                 zero_sum_premise_check, zkk_bound,
                                 _shrink_support)
from redkit.errors import ReductionError, ResourceLimitError, ValidationError
from redkit.families import (cm_grid, ilps, knapsacks, subset_sums,
                             unbounded_instances, zkk_instances)
from redkit.instances import (CyclicGroup, GroupSubsetSumInstance,
                              IlpInstance, ProductGroup, SubsetSumInstance,
                              UnboundedSubsetSumInstance)
from redkit.oracles import Budget, solve
from redkit.reductions import chain, compose
from redkit.witness import Witness, all_witnesses, field_width, \
    pack_fields

from helpers import min_solution_length, unpack_fields


def test_unbounded_scheme_frozen_example():
    inst = UnboundedSubsetSumInstance((4, 5), 23)
    assert UNBOUNDED_SS_SCHEME.cert_len(inst) == 27
    assert UNBOUNDED_SS_SCHEME.len_bound(inst) == 48
    cert = UNBOUNDED_SS_SCHEME.synthesize(inst, {0: 2, 1: 3})
    assert cert.value == 33955840
    assert UNBOUNDED_SS_SCHEME.verify(inst, cert)


def test_unbounded_scheme_zero_target():
    inst = UnboundedSubsetSumInstance((4,), 0)
    assert UNBOUNDED_SS_SCHEME.cert_len(inst) == 1
    assert UNBOUNDED_SS_SCHEME.verify(inst, Witness.zero(1))


def test_unbounded_scheme_rejects_everything_on_no_instance():
    inst = UnboundedSubsetSumInstance((2,), 7)
    length = UNBOUNDED_SS_SCHEME.cert_len(inst)
    assert length == 14
    assert not any(UNBOUNDED_SS_SCHEME.verify(inst, w)
                   for w in all_witnesses(length))


def _uss_widths(inst):
    # layout: count, then (index, multiplicity-1) pairs
    t, n = inst.target, len(inst.items)
    pairs = (t + 1).bit_length() - 1
    return [field_width(pairs)] + \
        [field_width(max(n - 1, 0)), field_width(max(t - 1, 0))] * pairs


def _uss_cert(inst, fields):
    return pack_fields(fields, _uss_widths(inst))


def test_unbounded_scheme_rejects_malformed():
    inst = UnboundedSubsetSumInstance((4, 5, 6), 23)   # pairs=4
    good = UNBOUNDED_SS_SCHEME.synthesize(inst, {0: 3, 1: 1, 2: 1})
    assert UNBOUNDED_SS_SCHEME.verify(inst, good)
    bad = [
        _uss_cert(inst, [5, 0, 0, 0, 0, 0, 0, 0, 0]),     # count over cap
        _uss_cert(inst, [2, 1, 0, 0, 3, 0, 0, 0, 0]),     # indices decrease
        _uss_cert(inst, [2, 1, 0, 1, 3, 0, 0, 0, 0]),     # repeated index
        _uss_cert(inst, [1, 3, 4, 0, 0, 0, 0, 0, 0]),     # index out of range
        _uss_cert(inst, [1, 0, 4, 0, 1, 0, 0, 0, 0]),     # nonzero trailing
        _uss_cert(inst, [1, 0, 31, 0, 0, 0, 0, 0, 0]),    # multiplicity > t
    ]
    for cert in bad:
        assert not UNBOUNDED_SS_SCHEME.verify(inst, cert)
    assert not UNBOUNDED_SS_SCHEME.verify(
        inst, Witness.zero(UNBOUNDED_SS_SCHEME.cert_len(inst) + 1))


def test_shrink_support_preserves_mass():
    items = (1, 2, 3, 4)
    counts = _shrink_support(items, {0: 1, 1: 1, 2: 1, 3: 1}, 3)
    assert len(counts) <= 3
    assert all(m > 0 for m in counts.values())
    assert sum(items[i] * m for i, m in counts.items()) == 10


def test_unbounded_synthesize_rewrites_wide_support():
    inst = UnboundedSubsetSumInstance((1, 2, 3, 4), 10)
    assert UNBOUNDED_SS_SCHEME.cert_len(inst) == \
        2 + 3 * (2 + 4)   # 3 pairs even though the given solution has 4
    cert = UNBOUNDED_SS_SCHEME.synthesize(inst, {0: 1, 1: 1, 2: 1, 3: 1})
    assert UNBOUNDED_SS_SCHEME.verify(inst, cert)


def test_zkk_bound_values():
    assert zkk_bound(1) == 1
    assert zkk_bound(2) == 4
    assert zkk_bound(3) == 15


def test_zkk_scheme_frozen_example():
    inst = GroupSubsetSumInstance(ProductGroup(2), ((1, 0), (0, 1)), (1, 1))
    assert ZKK_SCHEME.cert_len(inst) == 5
    assert ZKK_SCHEME.len_bound(inst) == 32
    cert = ZKK_SCHEME.synthesize(inst, (0, 1))
    assert cert.value == 18            # count=2, indices 0 and 1
    assert ZKK_SCHEME.verify(inst, cert)


def test_zkk_scheme_identity_target():
    inst = GroupSubsetSumInstance(ProductGroup(2), ((1, 0),), (0, 0))
    assert ZKK_SCHEME.verify(inst, Witness.zero(ZKK_SCHEME.cert_len(inst)))


def test_zkk_scheme_rejects_everything_on_no_instance():
    inst = GroupSubsetSumInstance(ProductGroup(2), ((1, 0),), (0, 1))
    length = ZKK_SCHEME.cert_len(inst)
    assert not any(ZKK_SCHEME.verify(inst, w) for w in all_witnesses(length))


def test_zkk_scheme_rejects_malformed():
    inst = GroupSubsetSumInstance(
        ProductGroup(2), ((1, 0), (0, 1), (1, 1)), (1, 1))
    # layout: 2-bit count then three 2-bit index slots
    reject = [
        pack_fields([2, 1, 0, 0], [2, 2, 2, 2]),   # indices decrease
        pack_fields([2, 1, 1, 0], [2, 2, 2, 2]),   # repeated index
        pack_fields([1, 3, 0, 0], [2, 2, 2, 2]),   # index out of range
        pack_fields([1, 0, 2, 0], [2, 2, 2, 2]),   # nonzero trailing slot
    ]
    for cert in reject:
        assert not ZKK_SCHEME.verify(inst, cert)


def test_zkk_synthesize_shortens_long_solutions():
    elements = ((1, 0), (1, 0), (0, 1), (0, 1), (1, 1))
    inst = GroupSubsetSumInstance(ProductGroup(2), elements, (1, 1))
    cert = ZKK_SCHEME.synthesize(inst, (0, 1, 2, 3, 4))
    assert ZKK_SCHEME.verify(inst, cert)


def test_find_zero_sum_subsequence():
    assert find_zero_sum_subsequence(((1, 0), (1, 0), (1, 1)), 2) == [0, 1]
    assert find_zero_sum_subsequence(((1, 0),), 2) is None
    assert find_zero_sum_subsequence((), 2) is None


def test_full_ss_scheme_round_trip():
    inst = SubsetSumInstance((3, 5, 7), 8)
    cert = FULL_SS_SCHEME.synthesize(inst, solve(inst).solution)
    assert cert.bits() == (1, 1, 0)
    assert FULL_SS_SCHEME.verify(inst, cert)
    assert not FULL_SS_SCHEME.verify(inst, Witness(7, 3))
    modular = SubsetSumInstance((3, 5, 7), 1, modulus=4)
    assert FULL_SS_SCHEME.verify(modular, Witness(0b010, 3))
    assert not FULL_SS_SCHEME.verify(modular, Witness(0b100, 3))
    assert not FULL_SS_SCHEME.verify(modular, Witness(0b10, 2))


def _coverage(report):
    return (report.checked, report.witnesses_checked, report.exhaustive,
            report.stratified, sorted({why for _, why in report.skipped}),
            len(report.skipped))


def test_scheme_check_unbounded_grid(monkeypatch):
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 299067, 73, 27, [], 0)
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12),
                                      exhaustive_cap=16)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 2108, 25, 75, [], 0)
    monkeypatch.setattr(certificates, "VALID_CAP", 2)
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12),
                                      exhaustive_cap=16)
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 956, 25, 30, ["valid witness family too large"], 45)


def test_contract_check_coverage_counts(monkeypatch):
    red = REDUCTIONS["ss-to-monotone"]
    report = nppt_contract_check(red, subset_sums(3, 4, 10))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 24779, 94, 20, [], 0)
    report = nppt_contract_check(red, subset_sums(3, 4, 10),
                                 exhaustive_cap=16)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 2285, 48, 66, [], 0)
    with monkeypatch.context() as patch:
        patch.setattr(certificates, "VALID_CAP", 2)
        report = nppt_contract_check(red, subset_sums(3, 4, 10),
                                     exhaustive_cap=16)
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 647, 48, 0, ["valid witness family too large"], 66)
    blind = dataclasses.replace(red, valid_witnesses=None)
    report = nppt_contract_check(blind, subset_sums(2, 3, 6),
                                 exhaustive_cap=16)
    assert {why for _, why in report.skipped} == {"witness space 2^9 too large"}
    # a composite: its slot sizes come from probing the intermediate
    chain = get_reduction("ss-to-knapsack+knapsack-to-ss")
    report = nppt_contract_check(chain, subset_sums(3, 5, 10))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (491, 20451, 222, 0, [], 0)
    report = nppt_contract_check(chain, subset_sums(3, 5, 10),
                                 exhaustive_cap=8)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (491, 11416, 134, 88, [], 0)
    # the permutation-group link and the ILP link: the target oracle's
    # reach closure and its per-columns ILP coding
    report = nppt_contract_check(REDUCTIONS["cm-to-permss"], cm_grid(1, 3))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (259, 666, 137, 0, [], 0)
    red = REDUCTIONS["ilp-to-monotone"]
    report = nppt_contract_check(red, ilps("standard", 2, 2))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (1247, 251339, 1060, 0, [], 0)
    report = nppt_contract_check(red, ilps("standard", 2, 2),
                                 exhaustive_cap=16)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (1247, 21823, 84, 976, [], 0)


def test_zero_sum_target_missing_an_rhs_entry_is_caught():
    # the zero-sum oracle read only the columns, so a target whose rhs had
    # lost its last entry was answered as the full one and the planted
    # fault passed every check
    red = REDUCTIONS["monotone-to-zerosum"]

    def transform(inst, wit):
        tgt = red.transform(inst, wit)
        return dataclasses.replace(tgt, rhs=tgt.rhs[:-1])

    assert nppt_contract_check(red, ilps("monotone", 2, 3)).ok
    bad = dataclasses.replace(red, transform=transform)
    report = nppt_contract_check(bad, ilps("monotone", 2, 3))
    assert report.checked == 457
    assert len(report.violations) == 328
    assert all("rhs must be zeros" in v["error"] for v in report.violations)


def test_scheme_check_zkk_grid():
    report = certificate_scheme_check(ZKK_SCHEME, zkk_instances(2, 3))
    assert report.ok, report.as_dict()
    # every no-instance fully enumerated
    assert _coverage(report) == (340, 12838, 78, 0, [], 0)
    report = certificate_scheme_check(ZKK_SCHEME, zkk_instances(2, 4),
                                      exhaustive_cap=64)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (1364, 6488, 33, 138, [], 0)


def test_scheme_check_catches_unsound_verifier():
    broken = dataclasses.replace(
        UNBOUNDED_SS_SCHEME,
        verify=lambda inst, cert: True)
    report = certificate_scheme_check(broken, unbounded_instances(2, 4, 8))
    assert not report.ok
    assert any(v["kind"] == "soundness" for v in report.violations)


def test_scheme_check_catches_incomplete_synthesizer():
    broken = dataclasses.replace(
        UNBOUNDED_SS_SCHEME,
        verify=lambda inst, cert: False)
    report = certificate_scheme_check(broken, unbounded_instances(2, 4, 8))
    assert not report.ok
    assert any(v["kind"] == "completeness" for v in report.violations)


def test_scheme_check_catches_bound_overflow():
    broken = dataclasses.replace(
        UNBOUNDED_SS_SCHEME,
        len_bound=lambda inst: UNBOUNDED_SS_SCHEME.cert_len(inst) - 1)
    report = certificate_scheme_check(broken, unbounded_instances(1, 3, 6))
    assert not report.ok
    # one record per instance checked, and nothing else
    family = list(unbounded_instances(1, 3, 6))
    length = UNBOUNDED_SS_SCHEME.cert_len
    assert report.violations == [
        {"kind": "bit-length-bound", "instance": inst,
         "witness_len": length(inst), "bound": length(inst) - 1}
        for inst in family]


def test_contract_check_catches_a_reduction_bound_overflow():
    red = REDUCTIONS["ss-to-monotone"]
    assert red.wit_bound is None
    assert nppt_contract_check(red, subset_sums(2, 3, 6)).ok
    broken = dataclasses.replace(
        red, wit_bound=lambda inst: red.witness_len(inst) - 1)
    report = nppt_contract_check(broken, subset_sums(2, 3, 6))
    assert not report.ok and report.checked > 0
    assert report.violations == [
        {"kind": "bit-length-bound", "instance": inst,
         "witness_len": red.witness_len(inst),
         "bound": red.witness_len(inst) - 1}
        for inst in subset_sums(2, 3, 6)]


def test_scheme_check_records_raising_verifier():
    def verify(inst, cert):
        raise ReductionError("verifier fault")
    broken = dataclasses.replace(UNBOUNDED_SS_SCHEME, verify=verify)
    report = certificate_scheme_check(broken, unbounded_instances(1, 3, 6))
    assert not report.ok
    assert any(v["kind"] == "transform-error" and v["error"] == "verifier fault"
               for v in report.violations)


def test_source_oracle_skip_is_reported():
    starved = Budget(max_dp_cells=0)
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(1, 2, 3), starved)
    assert report.checked == len(report.skipped) > 0
    assert all(why.startswith("source oracle: ") for _, why in report.skipped)


def test_budget_skip_on_a_yes_instance_is_not_a_violation():
    # the target oracle runs out of budget on every target: a skip, whether
    # the instance is a yes instance (synthesized witness) or a no instance
    big = SubsetSumInstance(tuple(range(1 << 40, (1 << 40) + 60)), 1 << 45)
    red = dataclasses.replace(REDUCTIONS["ss-to-knapsack"],
                              transform=lambda inst, wit: big)
    report = nppt_contract_check(red, subset_sums(2, 3, 6))
    assert report.violations == []
    assert len(report.skipped) == report.checked == 49
    assert {why for _, why in report.skipped} == {
        "target oracle: subset sum: instance over budget"}


def test_budget_skip_in_synthesis_is_not_a_violation():
    def synthesize(inst, solution):
        raise ResourceLimitError("support too large to rewrite")
    broken = dataclasses.replace(UNBOUNDED_SS_SCHEME, synthesize=synthesize)
    report = certificate_scheme_check(broken, unbounded_instances(1, 3, 6))
    assert report.violations == [] and report.yes_instances > 0
    assert len(report.skipped) == report.yes_instances
    assert {why for _, why in report.skipped} == {
        "synthesize: support too large to rewrite"}


def test_wrong_length_witness_is_a_transform_error():
    # the sweep checks lengths against the instance's once-computed length;
    # a wrong one must still fail as ``Reduction.apply`` fails
    red = REDUCTIONS["ss-to-monotone"]
    family = list(subset_sums(2, 3, 6))
    for delta in (1, -1):
        off = dataclasses.replace(red, valid_witnesses=lambda inst: iter(
            [Witness.zero(red.witness_len(inst) + delta)]))
        report = nppt_contract_check(off, family, exhaustive_cap=1)
        errors = [v for v in report.violations
                  if v["kind"] == "transform-error"]
        assert len(errors) == len(report.violations) == report.no_instances > 0
        for v in errors:
            assert v["error"] == _apply_error(red, v["instance"], delta)
    # a synthesized witness of the wrong length: a completeness violation
    # that carries the same message
    grown = dataclasses.replace(
        red, synthesize=lambda inst, sol: Witness.zero(
            red.witness_len(inst) + 1))
    report = nppt_contract_check(grown, family)
    assert len(report.violations) == report.yes_instances > 0
    for v in report.violations:
        assert v["kind"] == "completeness"
        assert v["error"] == _apply_error(red, v["instance"], 1)


def _apply_error(red, inst, delta):
    with pytest.raises(ReductionError) as exc:
        red.apply(inst, Witness.zero(red.witness_len(inst) + delta))
    return str(exc.value)


def test_violation_records_carry_the_target_of_their_witness():
    base = REDUCTIONS["ss-to-monotone"]
    made = []

    def transform(inst, wit):
        # a witness with a set low bit leads to a yes-target naming it
        if wit.value & 1:
            tgt = IlpInstance(((1,),) * wit.value, (wit.value,), "monotone")
        else:
            tgt = base.transform(inst, wit)
        made.append(tgt)
        return tgt
    broken = dataclasses.replace(base, transform=transform)
    report = nppt_contract_check(broken, subset_sums(2, 3, 6))
    sound = [v for v in report.violations if v["kind"] == "soundness"]
    assert len(sound) == len(report.violations) > 0
    for v in sound:
        value = int(v["witness"], 16)
        assert v["target"] == IlpInstance(((1,),) * value, (value,),
                                          "monotone")
        # the very object transform made, not a second transform call
        assert any(t is v["target"] for t in made)
    # a completeness record carries the target of the synthesized witness
    no = dataclasses.replace(base, transform=lambda inst, wit: IlpInstance(
        (), (wit.length + 1,), "monotone"))
    report = nppt_contract_check(no, subset_sums(2, 3, 6))
    assert len(report.violations) == report.yes_instances > 0
    for v in report.violations:
        length = base.witness_len(v["instance"])
        assert v["kind"] == "completeness"
        assert v["target"] == IlpInstance((), (length + 1,), "monotone")


def test_checkers_reject_a_family_of_the_wrong_kind():
    with pytest.raises(ValidationError):
        nppt_contract_check(REDUCTIONS["ss-to-knapsack"], knapsacks(1, 2))
    with pytest.raises(ValidationError):
        certificate_scheme_check(ZKK_SCHEME, unbounded_instances(1, 2, 3))


@pytest.mark.parametrize("name,variant", [
    # these sweeps once reported 14 violations on 14 instances and 40 on 40
    ("ilp-to-monotone", "monotone"),
    ("monotone-to-ss", "standard"),
])
def test_sweep_refuses_a_source_of_another_ilp_variant(name, variant):
    red = REDUCTIONS[name]
    expects = f"{name} expects a {red.source_variant} instance, got {variant}"
    with pytest.raises(ValidationError, match=re.escape(expects)):
        nppt_contract_check(red, ilps(variant, 1, 2))
    # the message is the one check_source gives apply
    with pytest.raises(ReductionError, match=re.escape(expects)):
        red.check_source(next(ilps(variant, 1, 2)))


def test_zero_sum_premise():
    checked, failures = zero_sum_premise_check(2)
    assert (checked, failures) == (256, [])
    checked3, failures3 = zero_sum_premise_check(3, samples=50, seed=5)
    assert checked3 == 50 and failures3 == []


def test_minimal_solution_bound_report():
    # a synthesized certificate holds at most s - 1 indices, so the sweep's
    # completeness check fails on any yes instance that needs s elements
    rep = certificate_scheme_check(ZKK_SCHEME, zkk_instances(2, 4))
    assert rep.ok, rep.as_dict()
    assert (rep.checked, rep.yes_instances) == (1364, 1193)
    assert zkk_bound(2) == 4
    lengths = [min_solution_length(inst) for inst in zkk_instances(2, 4)]
    assert sum(m is not None for m in lengths) == 1193
    assert max(m for m in lengths if m is not None) == 2


def test_certified_solve_through_reduction():
    inst = GroupSubsetSumInstance(CyclicGroup(4), (1, 2), 3)
    composite = compose(REDUCTIONS["zq-to-ss"], FULL_SS_SCHEME.reduction())
    assert (composite.source_kind, composite.target_kind) == \
        ("group_subset_sum", "subset_sum")
    # the chain witness 3 in 4 bits, then the certificate 3 in 2 bits
    wit = composite.synthesize(inst, solve(inst).solution)
    assert (wit.value, wit.length) == (15, 6)
    assert solve(composite.apply(inst, wit)).answer
    assert not solve(composite.apply(inst, Witness(12, 6))).answer


def test_certified_solve_kind_mismatch():
    with pytest.raises(ReductionError, match="cannot compose"):
        compose(REDUCTIONS["ss-to-zq"], FULL_SS_SCHEME.reduction())


def test_an_identity_link_passes_the_variant_through():
    ident = REDUCTIONS["identity-ilp"]
    before = chain(REDUCTIONS["ss-to-monotone"], ident)
    after = chain(ident, REDUCTIONS["monotone-to-zerosum"])
    assert (before.source_variant, before.target_variant) == (None, "monotone")
    assert (after.source_variant, after.target_variant) == \
        ("monotone", "zero_sum")
    assert chain(ident, ident).target_variant is None
    for first, second in ((before, REDUCTIONS["zerosum-to-ilp"]),
                          (REDUCTIONS["zerosum-to-ilp"], after),
                          (REDUCTIONS["ss-to-monotone"],
                           chain(ident, REDUCTIONS["zerosum-to-ilp"]))):
        with pytest.raises(ReductionError, match="cannot compose"):
            chain(first, second)
    # a monotone ILP is refused where the chain reads one of another variant
    with pytest.raises(ReductionError, match="expects a standard instance"):
        chain(ident, REDUCTIONS["ilp-to-monotone"]).apply(
            I.IlpInstance(((1,),), (1,), "monotone"), Witness(0, 0))


@pytest.mark.parametrize("name", sorted(REDUCTIONS) + ["transfer"])
def test_apply_refuses_an_instance_of_another_kind(name):
    red = compose(REDUCTIONS["zq-to-ss"], FULL_SS_SCHEME.reduction()) \
        if name == "transfer" else REDUCTIONS[name]
    expects = f"{red.name} expects {red.source_kind}, got "
    for kind in I.KINDS:
        if kind != red.source_kind:
            with pytest.raises(ReductionError, match=re.escape(expects + kind)):
                red.apply(I.trivial_instance(kind, True), Witness(0, 6))


def test_transfer_identity_sweep():
    rep = nppt_contract_check(
        compose(get_reduction("identity-subset-sum"),
                FULL_SS_SCHEME.reduction()),
        subset_sums(3, 5, 10))
    assert rep.ok
    assert (rep.checked, rep.no_instances, rep.exhaustive,
            rep.witnesses_checked) == (491, 222, 222, 1692)


def test_contract_check_flags_broken_reduction():
    base = REDUCTIONS["ss-to-knapsack"]
    broken = dataclasses.replace(
        base,
        transform=lambda inst, wit: dataclasses.replace(
            base.transform(inst, wit),
            demand=base.transform(inst, wit).demand + 1))
    report = nppt_contract_check(broken, subset_sums(3, 3, 9))
    assert not report.ok
    assert report.violations


# ---------------------------------------------------------------------------
# The contract sweep keeps one target, the last it solved, with its answer.

# a no-instance with 9 witness bits, all 512 checked exhaustively
NO_SOURCE = SubsetSumInstance((3, 5), 4)
NO_A = IlpInstance((), (1,), "monotone")
NO_B = IlpInstance((), (2,), "monotone")


def _counting_solve(monkeypatch, fail_once=None):
    """Patch the sweep's oracle; return the list of target instances it is
    asked to solve.  ``fail_once`` is a target whose first solve raises."""
    real = certificates.solve
    asked = []

    def counting(inst, budget=None):
        if inst.kind == "ilp":
            asked.append(inst)
            if inst is fail_once and asked.count(inst) == 1:
                raise ResourceLimitError("planted limit")
        return real(inst, budget)
    monkeypatch.setattr(certificates, "solve", counting)
    return asked


def test_scheme_sweep_pulls_exhaustive_certificates_through_all_witnesses(
        monkeypatch):
    # a tracer counts enumerated witnesses by rebinding the module's
    # ``all_witnesses``; the sweep must look it up at call time
    real, pulled = certificates.all_witnesses, []

    def counting(length):
        for wit in real(length):
            pulled.append(wit)
            yield wit
    monkeypatch.setattr(certificates, "all_witnesses", counting)
    no = [UnboundedSubsetSumInstance((2,), 3),
          UnboundedSubsetSumInstance((2, 4), 7)]
    rep = certificate_scheme_check(UNBOUNDED_SS_SCHEME, no)
    assert rep.ok and rep.exhaustive == 2
    assert len(pulled) == rep.witnesses_checked == (1 << 8) + (1 << 14)


def test_a_scheme_is_a_reduction_to_its_kind():
    scheme = UNBOUNDED_SS_SCHEME
    red = scheme.reduction()
    kind = scheme.problem_kind
    assert (red.name, red.source_kind, red.target_kind) == \
        (scheme.name, kind, kind)
    assert red.witness_len is scheme.cert_len
    assert red.synthesize is scheme.synthesize
    assert red.valid_witnesses is scheme.valid_certificates
    assert red.wit_bound is scheme.len_bound
    inst = UnboundedSubsetSumInstance((2, 3), 7)
    cert = scheme.synthesize(inst, solve(inst).solution)
    yes = red.apply(inst, cert)
    no = red.apply(inst, Witness.zero(cert.length))
    assert yes == I.trivial_instance(kind, True)
    assert no == I.trivial_instance(kind, False)
    # the same two objects for every certificate
    assert red.apply(inst, cert) is yes and red.apply(inst, Witness(
        (1 << cert.length) - 1, cert.length)) is no
    # a chain ending in a scheme declares no witness bound
    ident = get_reduction("identity-unbounded-subset-sum")
    assert compose(ident, red).wit_bound is None


def _runs_of_four(inst, wit):
    # witnesses 0-3 map to NO_A, 4-7 to NO_B, 8-11 to NO_A again, ...
    return NO_B if wit.value >> 2 & 1 else NO_A


def test_contract_memo_solves_a_run_of_one_target_once(monkeypatch):
    asked = _counting_solve(monkeypatch)
    red = dataclasses.replace(REDUCTIONS["ss-to-monotone"],
                              transform=_runs_of_four)
    report = nppt_contract_check(red, [NO_SOURCE])
    assert report.ok and report.witnesses_checked == 512
    # one solve per run of four, though only two objects ever come back
    assert len(asked) == 128
    assert all(t is (NO_B if i % 2 else NO_A) for i, t in enumerate(asked))


def test_contract_memo_solves_equal_but_distinct_targets(monkeypatch):
    asked = _counting_solve(monkeypatch)
    red = dataclasses.replace(
        REDUCTIONS["ss-to-monotone"],
        transform=lambda inst, wit: IlpInstance((), (1,), "monotone"))
    report = nppt_contract_check(red, [NO_SOURCE])
    assert report.ok and report.witnesses_checked == 512
    assert len(asked) == 512 and len(set(map(id, asked))) > 1


def test_contract_memo_keeps_no_answer_from_a_raising_solve(monkeypatch):
    asked = _counting_solve(monkeypatch, fail_once=NO_A)
    red = dataclasses.replace(REDUCTIONS["ss-to-monotone"],
                              transform=lambda inst, wit: NO_A)
    report = nppt_contract_check(red, [NO_SOURCE, NO_SOURCE])
    # the first instance is skipped at its first witness; the second
    # solves the same object again, then reuses that answer
    assert report.skipped == [(NO_SOURCE, "target oracle: planted limit")]
    assert not report.violations and report.stratified == 0
    assert report.exhaustive == 1 and report.witnesses_checked == 513
    assert asked == [NO_A, NO_A]


def test_contract_cache_is_consulted_on_memo_misses_only(monkeypatch):
    class Counting(dict):
        gets = sets = 0

        def get(self, key, default=None):
            Counting.gets += 1
            return super().get(key, default)

        def __setitem__(self, key, value):
            Counting.sets += 1
            super().__setitem__(key, value)

    asked = _counting_solve(monkeypatch)
    red = dataclasses.replace(REDUCTIONS["ss-to-monotone"],
                              transform=_runs_of_four)
    cache = Counting()
    report = nppt_contract_check(red, [NO_SOURCE], cache=cache)
    assert report.ok and report.witnesses_checked == 512
    assert Counting.gets == 128 and Counting.sets == 2
    assert asked == [NO_A, NO_B]
    assert cache == {NO_A: False, NO_B: False}


def test_contract_sweep_keeps_one_target_alive():
    import weakref

    from redkit.pipeline import _PERM_NO, _PERM_YES, red_cm_to_perm_ss
    made = []
    most = 0

    def transform(inst, wit):
        nonlocal most
        most = max(most, sum(ref() is not None for ref in made))
        tgt = red_cm_to_perm_ss.transform(inst, wit)
        if tgt is not _PERM_NO and tgt is not _PERM_YES:
            # a target built for this witness, not a shared constant
            made.append(weakref.ref(tgt))
        return tgt
    red = dataclasses.replace(red_cm_to_perm_ss, transform=transform)
    report = nppt_contract_check(red, cm_grid(1, 3))
    assert report.ok, report.as_dict()
    assert len(made) > 100
    # only the memo's target, which is also the one ``record()`` names
    assert most <= 1
    gc.collect()
    assert not any(ref() is not None for ref in made)


# ---------------------------------------------------------------------------
# The verifiers decode certificates through a per-instance layout; these
# reference verifiers decode field by field with ``unpack_fields``, as the
# layout-free verifiers did, and must give the same verdict everywhere.


def _ref_uss_verify(inst, cert):
    widths = _uss_widths(inst)
    if cert.length != sum(widths):
        return False
    return _ref_uss_fields(inst, unpack_fields(cert, widths))


def _ref_uss_fields(inst, vals):
    pairs = (len(vals) - 1) // 2
    count = vals[0]
    if count > pairs:
        return False
    if any(v for v in vals[1 + 2 * count:]):
        return False
    idxs = vals[1:1 + 2 * count:2]
    mults = [m + 1 for m in vals[2:2 + 2 * count:2]]
    if any(i >= len(inst.items) for i in idxs):
        return False
    if any(a >= b for a, b in zip(idxs, idxs[1:])):
        return False
    if any(m > inst.target for m in mults):
        return False
    return sum(m * inst.items[i] for i, m in zip(idxs, mults)) == inst.target


def _zkk_widths(inst):
    # layout: count, then s - 1 index slots
    s = zkk_bound(inst.group.k)
    return [field_width(s - 1)] + \
        [field_width(max(len(inst.elements) - 1, 0))] * (s - 1)


def _ref_zkk_verify(inst, cert):
    widths = _zkk_widths(inst)
    if cert.length != sum(widths):
        return False
    return _ref_zkk_fields(inst, unpack_fields(cert, widths))


def _ref_zkk_fields(inst, vals):
    s = len(vals)
    count = vals[0]
    if count > s - 1:
        return False
    idxs = vals[1:1 + count]
    if any(v for v in vals[1 + count:]):
        return False
    if any(i >= len(inst.elements) for i in idxs):
        return False
    if any(a >= b for a, b in zip(idxs, idxs[1:])):
        return False
    k = inst.group.k
    acc = (0,) * k
    for i in idxs:
        acc = tuple((a + b) % k for a, b in zip(acc, inst.elements[i]))
    return acc == tuple(inst.target)


@st.composite
def _certificates(draw, widths, step):
    """Certificates near the layout: raw values of the right length or one
    bit off, and field-by-field values (count, slots, zeroed tail); the
    index fields are every ``step``-th field after the count."""
    length = sum(widths)
    if draw(st.booleans()):
        length = max(length + draw(st.sampled_from((-1, 0, 1))), 0)
        return Witness(draw(st.integers(0, (1 << length) - 1)), length)
    fields = [draw(st.integers(0, (1 << w) - 1)) for w in widths]
    if draw(st.booleans()):
        fields[1::step] = sorted(fields[1::step])
    cut = draw(st.integers(1, len(widths)))
    if draw(st.booleans()):
        fields[cut:] = [0] * (len(widths) - cut)
    return pack_fields(fields, widths)


@st.composite
def _uss_cases(draw):
    items = draw(st.lists(st.integers(0, 12), max_size=5))
    inst = UnboundedSubsetSumInstance(tuple(items),
                                      draw(st.integers(0, 150)))
    return inst, draw(_certificates(_uss_widths(inst), 2))


@st.composite
def _zkk_cases(draw):
    k = draw(st.integers(1, 3))
    elem = st.tuples(*[st.integers(0, k - 1)] * k)
    inst = GroupSubsetSumInstance(ProductGroup(k),
                                  tuple(draw(st.lists(elem, max_size=9))),
                                  draw(elem))
    return inst, draw(_certificates(_zkk_widths(inst), 1))


def _interleaved(a, b):
    """Two (instance, certificate) cases in the order A, B, A, then an
    equal but distinct copy of A, then B's instance with A's certificate:
    each switch of instance misses the layout's identity memo, and the
    repeats are answered by its bounded cache."""
    (inst_a, cert_a), (inst_b, _) = a, b
    return [a, b, a, (dataclasses.replace(inst_a), cert_a), (inst_b, cert_a)]


@settings(max_examples=400, deadline=None)
@given(_uss_cases(), _uss_cases())
def test_unbounded_verify_matches_reference(a, b):
    for inst, cert in _interleaved(a, b):
        assert UNBOUNDED_SS_SCHEME.cert_len(inst) == sum(_uss_widths(inst))
        assert UNBOUNDED_SS_SCHEME.verify(inst, cert) == \
            _ref_uss_verify(inst, cert)


@settings(max_examples=400, deadline=None)
@given(_zkk_cases(), _zkk_cases())
def test_zkk_verify_matches_reference(a, b):
    for inst, cert in _interleaved(a, b):
        assert ZKK_SCHEME.cert_len(inst) == sum(_zkk_widths(inst))
        assert ZKK_SCHEME.verify(inst, cert) == _ref_zkk_verify(inst, cert)


@pytest.mark.parametrize("scheme, widths, reference, family", [
    (UNBOUNDED_SS_SCHEME, _uss_widths, _ref_uss_fields,
     lambda: unbounded_instances(2, 5, 12)),
    (ZKK_SCHEME, _zkk_widths, _ref_zkk_fields, lambda: zkk_instances(2, 4)),
], ids=["unbounded", "zkk"])
def test_verify_matches_reference_on_every_certificate(scheme, widths,
                                                       reference, family):
    # the field tuples of all certificates, listed in increasing value order
    # (most significant field first), pair up with all_witnesses
    for inst in family():
        ws = widths(inst)
        got = list(map(scheme.verify, repeat(inst), all_witnesses(sum(ws))))
        want = list(map(reference, repeat(inst),
                        product(*[range(1 << w) for w in ws])))
        assert got == want, (inst, [v for v, (a, b) in
                                    enumerate(zip(got, want)) if a != b][:5])
        # the synthesizer packs with the layout's shifts; its fields must
        # read back as an accepted certificate
        res = solve(inst)
        if res.answer:
            cert = scheme.synthesize(inst, res.solution)
            assert cert.length == sum(ws)
            assert reference(inst, unpack_fields(cert, ws)), inst


# ---------------------------------------------------------------------------
# A scheme's layout depends only on the instance's shape: (t, n) for
# unbounded subset sum, (k, n) for Z_k^k.  Each shape is built once and kept
# in a bounded cache behind the one-instance memo.


def test_instances_of_one_shape_share_one_layout():
    a = UnboundedSubsetSumInstance((4, 5), 23)
    b = UnboundedSubsetSumInstance((1, 9), 23)
    lay = certificates._uss_layout(a)
    assert certificates._uss_layout(b) is lay
    assert certificates._uss_layout(UnboundedSubsetSumInstance((4,), 23)) \
        is not lay
    g = ProductGroup(2)
    c = GroupSubsetSumInstance(g, ((1, 0), (0, 1)), (1, 1))
    d = GroupSubsetSumInstance(ProductGroup(2), ((0, 0), (1, 1)), (0, 1))
    lay = certificates._zkk_layout(c)
    assert certificates._zkk_layout(d) is lay
    assert certificates._zkk_layout(
        GroupSubsetSumInstance(g, ((1, 0),), (1, 1))) is not lay
    # the target is read from the instance, not from the shared layout
    assert ZKK_SCHEME.verify(c, ZKK_SCHEME.synthesize(c, (0, 1)))
    assert not ZKK_SCHEME.verify(d, ZKK_SCHEME.synthesize(c, (0, 1)))


@pytest.mark.parametrize("shape, size, keys, bound", [
    # the bounds stated beside USS_SHAPE_CACHE and ZKK_SHAPE_CACHE, at the
    # largest shapes they cover
    ("_uss_shape", certificates.USS_SHAPE_CACHE,
     [(4095 - i, 4096 - i) for i in range(512)], 600_000),
    ("_zkk_shape", certificates.ZKK_SHAPE_CACHE,
     [(4, (1 << 16) - i) for i in range(128)], 250_000),
], ids=["unbounded", "zkk"])
def test_shape_cache_stays_within_its_stated_bytes(shape, size, keys, bound):
    build = getattr(certificates, shape)
    build.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for key in keys:
            build(*key)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        full = build.cache_info().currsize
    finally:
        tracemalloc.stop()
        build.cache_clear()
    assert len(keys) >= 2 * size and full == size
    assert held <= bound, held


def test_synthesizers_refuse_a_field_out_of_range():
    inst = UnboundedSubsetSumInstance((4, 5), 23)   # multiplicity: 5 bits
    for solution in ({0: 33}, {-1: 1}):
        with pytest.raises(ValidationError, match="does not fit"):
            UNBOUNDED_SS_SCHEME.synthesize(inst, solution)
    inst = GroupSubsetSumInstance(ProductGroup(2), ((1, 0), (0, 1)), (1, 1))
    for solution in ((0, 5), (-1,)):               # index: 1 bit
        with pytest.raises(ValidationError, match="does not fit"):
            ZKK_SCHEME.synthesize(inst, solution)


def _scheme_calls(scheme, inst):
    """Every scheme entry point on ``inst``, as thunks."""
    return (lambda: scheme.cert_len(inst),
            lambda: scheme.len_bound(inst),
            lambda: scheme.verify(inst, Witness(0, 1)),
            lambda: scheme.synthesize(inst, ()),
            lambda: next(scheme.valid_certificates(inst), None),
            lambda: certificate_scheme_check(scheme, [inst]))


def _assert_refused(scheme, inst):
    for call in _scheme_calls(scheme, inst):
        with pytest.raises(ValidationError):
            call()


def test_schemes_refuse_malformed_instances():
    # a Z_k^k target outside the group (a bare TypeError once)
    _assert_refused(ZKK_SCHEME, GroupSubsetSumInstance(
        ProductGroup(2), ((0, 1),), 5))
    _assert_refused(ZKK_SCHEME, GroupSubsetSumInstance(
        ProductGroup(2), ((0, 1),), (0, 2)))
    for k in (0, -1, 2.0, True):
        _assert_refused(ZKK_SCHEME, GroupSubsetSumInstance(
            ProductGroup(k), (), (0, 0)))
    _assert_refused(ZKK_SCHEME, GroupSubsetSumInstance(CyclicGroup(4), (), 0))
    # an unbounded target that is negative or not an int (once a bound
    # error, a 6-bit layout and an AttributeError), with the int shapes it
    # would alias already cached
    for t in (4, 1, 0):
        assert UNBOUNDED_SS_SCHEME.cert_len(
            UnboundedSubsetSumInstance((1, 2), t)) > 0
    for t in (-1, -5, 4.0, True, False, None, "4"):
        _assert_refused(UNBOUNDED_SS_SCHEME,
                        UnboundedSubsetSumInstance((1, 2), t))


_JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                  st.text(max_size=2))


@st.composite
def _uss_any(draw):
    target = draw(st.one_of(st.integers(-40, 40), _JUNK))
    items = draw(st.lists(st.integers(1, 9), max_size=3))
    ok = type(target) is int and target >= 0
    return UNBOUNDED_SS_SCHEME, UnboundedSubsetSumInstance(items, target), ok


@st.composite
def _zkk_any(draw):
    k = draw(st.one_of(st.integers(-1, 3), _JUNK))
    width = k if type(k) is int and k > 0 else 2
    coord = st.integers(0, width - 1)
    elements = draw(st.lists(st.tuples(*[coord] * width), max_size=3))
    target = draw(st.one_of(
        st.lists(st.integers(-1, width), min_size=width - 1,
                 max_size=width + 1).map(tuple),
        st.integers(-2, 2), _JUNK))
    ok = (type(k) is int and k > 0 and isinstance(target, tuple)
          and len(target) == k
          and all(type(c) is int and 0 <= c < k for c in target))
    return (ZKK_SCHEME,
            GroupSubsetSumInstance(ProductGroup(k), tuple(elements), target),
            ok)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_uss_any(), _zkk_any()))
def test_schemes_lay_out_or_refuse_any_target(case):
    scheme, inst, ok = case
    if not ok:
        _assert_refused(scheme, inst)
        return
    length = scheme.cert_len(inst)
    assert length <= scheme.len_bound(inst)
    assert scheme.verify(inst, Witness(0, length)) in (True, False)
    assert scheme.verify(inst, Witness(0, length + 1)) is False
    assert scheme.synthesize(inst, ()).length == length
    assert certificate_scheme_check(scheme, [inst]).ok
