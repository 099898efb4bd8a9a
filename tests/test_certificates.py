"""Certificate schemes, contract checkers, and the certified solver."""

import dataclasses

import pytest

from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (FULL_SS_SCHEME, UNBOUNDED_SS_SCHEME,
                                 ZKK_SCHEME, certificate_scheme_check,
                                 certified_solve, find_zero_sum_subsequence,
                                 minimal_solution_bound_check,
                                 nppt_contract_check, zero_sum_premise_check,
                                 zkk_bound, _shrink_support)
from redkit.errors import ReductionError, ResourceLimitError, ValidationError
from redkit.families import (knapsacks, subset_sums, unbounded_instances,
                             zkk_instances)
from redkit.instances import (CyclicGroup, GroupSubsetSumInstance,
                              ProductGroup, SubsetSumInstance,
                              UnboundedSubsetSumInstance)
from redkit.oracles import Budget, solve
from redkit.witness import Witness, all_witnesses, pack_fields


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


def _uss_cert(inst, fields):
    # layout: count, then (index, multiplicity-1) pairs
    t, n = inst.target, len(inst.items)
    pairs = (t + 1).bit_length() - 1
    from redkit.witness import field_width
    widths = [field_width(pairs)] + \
        [field_width(max(n - 1, 0)), field_width(max(t - 1, 0))] * pairs
    return pack_fields(fields, widths)


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


def _coverage(report):
    return (report.checked, report.witnesses_checked, report.exhaustive,
            report.stratified, sorted({why for _, why in report.skipped}),
            len(report.skipped))


def test_scheme_check_unbounded_grid():
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 299067, 73, 27, [], 0)
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12),
                                      exhaustive_cap=16)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 2108, 25, 75, [], 0)
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12),
                                      exhaustive_cap=16, valid_cap=2)
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 956, 25, 30, ["valid certificate family too large"], 45)


def test_contract_check_coverage_counts():
    red = REDUCTIONS["ss-to-monotone"]
    report = nppt_contract_check(red, subset_sums(3, 4, 10))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 24779, 94, 20, [], 0)
    report = nppt_contract_check(red, subset_sums(3, 4, 10),
                                 exhaustive_cap=16)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (273, 2285, 48, 66, [], 0)
    report = nppt_contract_check(red, subset_sums(3, 4, 10),
                                 exhaustive_cap=16, valid_cap=2)
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 647, 48, 0, ["valid witness family too large"], 66)
    blind = dataclasses.replace(red, valid_witnesses=None)
    report = nppt_contract_check(blind, subset_sums(2, 3, 6),
                                 exhaustive_cap=16)
    assert {why for _, why in report.skipped} == {"witness space 2^9 too large"}


def test_scheme_check_zkk_grid():
    report = certificate_scheme_check(ZKK_SCHEME, zkk_instances(2, 3))
    assert report.ok, report.as_dict()
    assert report.checked == 340
    assert report.stratified == 0      # every no-instance fully enumerated


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
    assert any(v["kind"] == "bit-length-bound" for v in report.violations)


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


def test_checkers_reject_a_family_of_the_wrong_kind():
    with pytest.raises(ValidationError):
        nppt_contract_check(REDUCTIONS["ss-to-knapsack"], knapsacks(1, 2))
    with pytest.raises(ValidationError):
        certificate_scheme_check(ZKK_SCHEME, unbounded_instances(1, 2, 3))


def test_zero_sum_premise():
    checked, failures = zero_sum_premise_check(2)
    assert (checked, failures) == (256, [])
    checked3, failures3 = zero_sum_premise_check(3, samples=50, seed=5)
    assert checked3 == 50 and failures3 == []


def test_minimal_solution_bound_report():
    rep = minimal_solution_bound_check(2, zkk_instances(2, 4))
    assert rep.ok
    assert (rep.k, rep.s) == (2, 4)
    assert (rep.checked, rep.solvable) == (1364, 1193)
    assert rep.max_min_length == 2
    assert rep.sequences_checked == 256


def test_certified_solve_through_reduction():
    inst = GroupSubsetSumInstance(CyclicGroup(4), (1, 2), 3)
    verdict = certified_solve(inst, REDUCTIONS["zq-to-ss"], FULL_SS_SCHEME)
    assert verdict.answer and verdict.method == "certified"
    wit, cert = verdict.solution
    assert (wit.value, wit.length) == (3, 4)
    assert (cert.value, cert.length) == (3, 2)


def test_certified_solve_identity_matches_direct():
    inst = SubsetSumInstance((3, 5, 7), 8)
    verdict = certified_solve(inst, get_reduction("identity-subset-sum"),
                              FULL_SS_SCHEME)
    assert verdict.answer is solve(inst).answer is True
    no = SubsetSumInstance((3, 5, 7), 2)
    assert not certified_solve(no, get_reduction("identity-subset-sum"),
                               FULL_SS_SCHEME).answer


def test_certified_solve_budget():
    inst = GroupSubsetSumInstance(CyclicGroup(4), (1, 2), 3)
    with pytest.raises(ResourceLimitError):
        certified_solve(inst, REDUCTIONS["zq-to-ss"], FULL_SS_SCHEME,
                        max_ops=2)


def test_certified_solve_kind_mismatch():
    inst = SubsetSumInstance((1,), 1)
    with pytest.raises(ValidationError):
        certified_solve(inst, REDUCTIONS["zq-to-ss"], FULL_SS_SCHEME)


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
