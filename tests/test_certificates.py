"""Certificate schemes, contract checkers, and certificate transfer."""

import dataclasses
import gc
import re
import time
import tracemalloc
from itertools import combinations, islice, product, repeat
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from redkit import certificates, instances as I
from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (FULL_SS_SCHEME, SCHEMES,
                                 UNBOUNDED_SS_SCHEME, ZKK_SCHEME,
                                 certificate_scheme_check,
                                 find_zero_sum_subsequence,
                                 nppt_contract_check,
                                 zero_sum_premise_check, zkk_bound,
                                 _shrink_support)
from redkit.errors import ReductionError, ResourceLimitError, ValidationError
from redkit.families import (and_sats, cm_grid, cnfs, graphs_upto, ilps,
                             knapsacks, subset_sums, unbounded_instances,
                             zkk_instances, zq_instances)
from redkit.instances import (CyclicGroup, GroupSubsetSumInstance,
                              IlpInstance, Permutation, ProductGroup,
                              SubsetSumInstance, UnboundedSubsetSumInstance)
from redkit.oracles import check_solution, solve
from redkit.reductions import chain, compose
from redkit.witness import Witness, all_witnesses, field_width, \
    pack_fields

from helpers import gates, min_solution_length, unpack_fields


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


def _certifies(scheme, inst, solution):
    cert = scheme.synthesize(inst, solution)
    return scheme.verify(inst, cert) and \
        cert.length == scheme.cert_len(inst) <= scheme.len_bound(inst)


@pytest.mark.parametrize("items", [
    tuple(range(100, 123)), tuple(range(100, 164)),
    # the first floor(log2(t + 1)) = 4 items have distinct subset sums, so
    # the collision needs the fifth
    (1, 2, 4, 8, 3)])
def test_unbounded_synthesize_rewrites_any_wide_support(items):
    # each item once: a support of every item, past 22 items as well
    inst = UnboundedSubsetSumInstance(items, sum(items))
    assert _certifies(UNBOUNDED_SS_SCHEME, inst,
                      [(i, 1) for i in range(len(items))])


def _multisets(items, t, start=0):
    """Every solution of the unbounded instance (``items``, ``t``) as
    (index, multiplicity) pairs; a zero item is taken at most once."""
    if start == len(items):
        if t == 0:
            yield []
        return
    p = items[start]
    for m in range(t // p + 1 if p else 2):
        for rest in _multisets(items, t - m * p, start + 1):
            yield [(start, m)] * bool(m) + rest


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 9), max_size=4), st.integers(0, 30))
@example([1, 2, 3], 6)
def test_every_unbounded_solution_synthesizes_an_accepted_certificate(
        items, t):
    inst = UnboundedSubsetSumInstance(tuple(items), t)
    for sol in _multisets(inst.items, t):
        assert check_solution(inst, sol)
        assert _certifies(UNBOUNDED_SS_SCHEME, inst, sol), sol


@st.composite
def _zkk_sources(draw):
    """A Z_k^k instance of s to s + 2 elements, k in {2, 3}, whose target
    is the sum of a drawn subsequence."""
    k = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(0, k - 1)] * k)
    elements = draw(st.lists(vec, min_size=zkk_bound(k),
                             max_size=zkk_bound(k) + 2))
    picked = draw(st.lists(st.booleans(), min_size=len(elements),
                           max_size=len(elements)))
    target = tuple(sum(e[j] for e, on in zip(elements, picked) if on) % k
                   for j in range(k))
    return GroupSubsetSumInstance(ProductGroup(k), tuple(elements), target)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_zkk_sources())
def test_every_long_zkk_solution_synthesizes_an_accepted_certificate(inst):
    s, n = zkk_bound(inst.group.k), len(inst.elements)
    for sol in (sol for c in range(s, n + 1)
                for sol in combinations(range(n), c)):
        if check_solution(inst, sol):
            assert _certifies(ZKK_SCHEME, inst, sol), sol


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
    # each no-instance of at least 5 bits has fewer valid certificates than
    # 2^L - 18, so the cap changes no path
    for cap in (65536, 16):
        report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                          unbounded_instances(2, 5, 12),
                                          exhaustive_cap=cap)
        assert report.ok, report.as_dict()
        assert _coverage(report) == (273, 1929, 25, 75, [], 0)
    # listing no valid certificates, the 73 within the cap are enumerated
    # outright, and the 27 of 17 bits are skipped
    report = certificate_scheme_check(
        dataclasses.replace(UNBOUNDED_SS_SCHEME, valid_certificates=None),
        unbounded_instances(2, 5, 12))
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 298357, 73, 0, ["witness space 2^17 too large"], 27)
    monkeypatch.setattr(certificates, "VALID_CAP", 2)
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12),
                                      exhaustive_cap=16)
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 921, 25, 30, ["valid witness family too large"], 45)
    # within the cap, a valid list past VALID_CAP is enumerated outright
    report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                      unbounded_instances(2, 5, 12))
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 207257, 48, 30, ["valid witness family too large"], 22)


def test_contract_check_coverage_counts(monkeypatch):
    red = REDUCTIONS["ss-to-monotone"]
    for cap in (4096, 16):
        report = nppt_contract_check(red, subset_sums(3, 4, 10),
                                     exhaustive_cap=cap)
        assert report.ok, report.as_dict()
        assert _coverage(report) == (273, 1865, 48, 66, [], 0)
    # 9 of the 66 stratified no-instances list 2 valid witnesses, the
    # others at most 1
    with monkeypatch.context() as patch:
        patch.setattr(certificates, "VALID_CAP", 1)
        report = nppt_contract_check(red, subset_sums(3, 4, 10),
                                     exhaustive_cap=16)
    assert not report.ok and not report.violations
    assert _coverage(report) == (
        273, 1686, 48, 57, ["valid witness family too large"], 9)
    blind = dataclasses.replace(red, valid_witnesses=None)
    report = nppt_contract_check(blind, subset_sums(2, 3, 6),
                                 exhaustive_cap=16)
    assert {why for _, why in report.skipped} == {"witness space 2^9 too large"}
    # a composite: its slot sizes come from probing the intermediate
    chain = get_reduction("ss-to-knapsack+knapsack-to-ss")
    report = nppt_contract_check(chain, subset_sums(3, 5, 10))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (491, 10631, 162, 60, [], 0)
    report = nppt_contract_check(chain, subset_sums(3, 5, 10),
                                 exhaustive_cap=8)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (491, 10452, 134, 88, [], 0)
    # the permutation-group link and the ILP link: the target oracle's
    # reach closure and its per-columns ILP coding
    report = nppt_contract_check(REDUCTIONS["cm-to-permss"], cm_grid(1, 3))
    assert report.ok, report.as_dict()
    # every no-source of the grid has a counter that allows no count, so
    # one witness of 0 bits each
    assert _coverage(report) == (259, 259, 137, 0, [], 0)
    red = REDUCTIONS["ilp-to-monotone"]
    for cap in (4096, 16):
        report = nppt_contract_check(red, ilps("standard", 2, 2),
                                     exhaustive_cap=cap)
        assert report.ok, report.as_dict()
        assert _coverage(report) == (1247, 19148, 84, 976, [], 0)
    report = nppt_contract_check(
        dataclasses.replace(red, valid_witnesses=None), ilps("standard", 2, 2))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (1247, 251339, 1060, 0, [], 0)


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
    assert _coverage(report) == (340, 1979, 0, 78, [], 0)
    # every no-instance fully enumerated
    report = certificate_scheme_check(
        dataclasses.replace(ZKK_SCHEME, valid_certificates=None),
        zkk_instances(2, 3))
    assert report.ok, report.as_dict()
    assert _coverage(report) == (340, 12838, 78, 0, [], 0)
    report = certificate_scheme_check(ZKK_SCHEME, zkk_instances(2, 4),
                                      exhaustive_cap=64)
    assert report.ok, report.as_dict()
    assert _coverage(report) == (1364, 5790, 0, 171, [], 0)


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
    with gates(MAX_DP_CELLS=0):
        report = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                          unbounded_instances(1, 2, 3))
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


def test_lowered_gate_reaches_a_chains_intermediate_solve(monkeypatch):
    # compose's synthesize solves its intermediate knapsack itself: with no
    # DP cells that front is refused, so every yes-instance is skipped at
    # synthesis, while each source solve takes the reach closure
    family = list(subset_sums(2, 3, 6))
    sources, real, methods = set(map(id, family)), certificates.solve, []

    def recording(inst):
        got = real(inst)
        if id(inst) in sources:
            methods.append(got.method)
        return got
    monkeypatch.setattr(certificates, "solve", recording)
    with gates(MAX_DP_CELLS=0):
        report = nppt_contract_check(
            get_reduction("ss-to-knapsack+knapsack-to-ss"), family)
    assert report.violations == [] and report.yes_instances > 0
    assert methods == ["brute"] * report.checked
    assert len(report.skipped) == report.yes_instances
    assert {why for _, why in report.skipped} == {
        "synthesize: knapsack: pareto front limit exceeded"}


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
    complete = [v for v in report.violations if v["kind"] == "completeness"]
    assert len(complete) == report.yes_instances > 0
    for v in complete:
        length = base.witness_len(v["instance"])
        assert v["target"] == IlpInstance((), (length + 1,), "monotone")
    # on a stratified no-instance, the first probe's target is no constant
    assert [v["kind"] for v in report.violations if v not in complete] == \
        ["invalid-stratum"] * report.stratified


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


def test_sweep_refuses_a_source_its_witness_len_refuses():
    # zq-to-ss reads cyclic groups only; its kind check passes S_3, and the
    # refusal comes from witness_len
    red = REDUCTIONS["zq-to-ss"]
    s3 = I.SymmetricGroup(3)
    inst = GroupSubsetSumInstance(s3, (Permutation((1, 0, 2)),),
                                  s3.identity())
    red.check_source(inst)
    expects = "zq-to-ss expects a cyclic-group instance"
    with pytest.raises(ValidationError, match=re.escape(expects)):
        nppt_contract_check(red, [inst])


@pytest.mark.parametrize("cap", [4096, 1])
def test_an_undersized_composite_slot_is_a_transform_error(cap):
    # zq-to-ss's totals listed in increasing order put the least total
    # first, which sizes the ss-to-monotone slot for a subset-sum target
    # below q, far below what the other guessed totals want; the composite
    # must say so, exhaustively (cap 4096) or over its valid witnesses
    # (cap 1), not narrow the witness
    first, second = REDUCTIONS["zq-to-ss"], REDUCTIONS["ss-to-monotone"]
    undersized = dataclasses.replace(
        first, valid_witnesses=lambda inst: iter(sorted(
            first.valid_witnesses(inst))))
    assert nppt_contract_check(compose(first, second), zq_instances(3, 2),
                               exhaustive_cap=cap).ok
    rep = nppt_contract_check(compose(undersized, second), zq_instances(3, 2),
                              exhaustive_cap=cap)
    # no-instances fail in transform, yes-instances in synthesize
    kinds = [v["kind"] for v in rep.violations]
    assert "transform-error" in kinds and "completeness" in kinds
    assert all(re.fullmatch(r"ss-to-monotone: intermediate wants a \d+-bit "
                            r"witness, composite slot has \d+", v["error"])
               for v in rep.violations)


def test_zero_sum_premise():
    # the longest zero-sum-free sequences, by exhaustion: Olson's k(k - 1),
    # below s = zkk_bound(k)
    assert zero_sum_premise_check(1) == (0, 1)
    assert zero_sum_premise_check(2) == (2, 7)
    assert zero_sum_premise_check(3) == (6, 138425)
    for k in (1, 2, 3):
        assert zero_sum_premise_check(k)[0] == k * (k - 1) < zkk_bound(k)
    # every sequence one longer than the longest has a zero-sum subsequence
    elems = list(product(range(2), repeat=2))
    assert all(find_zero_sum_subsequence(seq, 2) is not None
               for seq in product(elems, repeat=3))
    for k in (0, 4):
        with pytest.raises(ValidationError):
            zero_sum_premise_check(k)


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
    assert (before.source_variant, before.target_variant) == \
        ("plain", "monotone")
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


# 3 + 4 = 2 (mod 5): a modular yes-instance that reads as a plain no
MODULAR = SubsetSumInstance((3, 4), 2, modulus=5)


@pytest.mark.parametrize("name", ["ss-to-knapsack", "ss-to-monotone",
                                  "ss-to-zq", "ss-to-knapsack+knapsack-to-ss",
                                  "identity-subset-sum+ss-to-zq"])
def test_subset_sum_readers_refuse_a_modular_source(name):
    assert I.validate(MODULAR) == [] and solve(MODULAR).answer
    red = get_reduction(name)
    assert red.source_variant == "plain"
    expects = f"{name} expects a plain instance, got modular"
    with pytest.raises(ValidationError, match=re.escape(expects)):
        nppt_contract_check(red, [MODULAR])
    with pytest.raises(ReductionError, match=re.escape(expects)):
        red.apply(MODULAR, Witness.zero(red.witness_len(MODULAR)))
    plain = dataclasses.replace(MODULAR, modulus=None)
    assert plain.variant == "plain" and nppt_contract_check(red, [plain]).ok


def test_a_subset_sum_variant_is_derived_not_stored():
    assert MODULAR.variant == "modular"
    assert [f.name for f in dataclasses.fields(MODULAR)] == \
        ["items", "target", "modulus"]
    assert "variant" not in I.to_json(MODULAR)
    # the full-mask scheme reads the modulus through ``check_solution``
    rep = nppt_contract_check(FULL_SS_SCHEME.reduction(), [MODULAR])
    assert rep.ok and rep.yes_instances == 1


@pytest.mark.parametrize("name", sorted(REDUCTIONS) + ["transfer"])
def test_apply_refuses_an_instance_of_another_kind(name):
    red = compose(REDUCTIONS["zq-to-ss"], FULL_SS_SCHEME.reduction()) \
        if name == "transfer" else REDUCTIONS[name]
    expects = f"{red.name} expects {red.source_kind}, got "
    for kind in I.KINDS:
        if kind != red.source_kind:
            with pytest.raises(ReductionError, match=re.escape(expects + kind)):
                red.apply(I.trivial_instance(kind, True), Witness(0, 6))


# one source per kind and ILP variant that ``instances.validate`` rejects
_INVALID_SOURCES = [
    SubsetSumInstance((3, -1), 2),
    I.KnapsackInstance(((0, 1),), 1, 1),
    I.IlpInstance(((2, 0),), (0, 0)),
    I.IlpInstance(((1,), (-1,)), (0,), "monotone"),
    I.IlpInstance(((1,),), (1,), "zero_sum"),
    GroupSubsetSumInstance(CyclicGroup(5), (7,), 2),
    I.CounterMachineInstance(2, ((1, 0), (-1, 0)), (I.OPTIONAL,)),
    I.ColoringInstance(2, ((0, 5),), ((0, 1),)),
    I.SchedulingInstance(((0, 1, 1),), 0),
    I.CnfInstance(1, ((2,),)),
    I.AndSatInstance(1, (I.CnfInstance(2, ((1, 2),)),)),
    I.UnboundedSubsetSumInstance((-1,), 2),
]


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_apply_refuses_a_source_validate_rejects(name):
    red = REDUCTIONS[name]
    refused = 0
    for inst in _INVALID_SOURCES:
        try:
            red.check_source(inst)
        except ReductionError:
            continue
        problems = I.validate(inst)
        assert problems, inst
        with pytest.raises(ValidationError, match=re.escape(
                f"{name}: invalid source: {problems[0]}")):
            red.apply(inst, Witness.zero(0))
        refused += 1
    assert refused


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

    def counting(inst):
        if inst.kind == "ilp":
            asked.append(inst)
            if inst is fail_once and asked.count(inst) == 1:
                raise ResourceLimitError("planted limit")
        return real(inst)
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
    rep = certificate_scheme_check(
        dataclasses.replace(UNBOUNDED_SS_SCHEME, valid_certificates=None), no)
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


# A small family of each source kind, for sweeps that watch the targets.
_SMALL = {
    "subset_sum": lambda: subset_sums(3, 4, 10),
    "knapsack": lambda: knapsacks(2, 3),
    "ilp": lambda: (inst for v in ("standard", "monotone", "zero_sum")
                    for inst in ilps(v, 2, 2)),
    "group_subset_sum": lambda: zq_instances(4, 2),
    "counter_machine": lambda: cm_grid(1, 2),
    "coloring": lambda: graphs_upto(3),
    "scheduling": lambda: [I.SchedulingInstance(((2, 1, 1),), b)
                           for b in (0, 1)],
    "cnf": lambda: cnfs(2, 2, 2),
    "and_sat": lambda: and_sats(1, 2, 1, 2),
    "unbounded_subset_sum": lambda: unbounded_instances(2, 4, 8),
}
_SWEPT = {**REDUCTIONS, **{name: scheme.reduction()
                           for name, scheme in SCHEMES.items()}}


@pytest.mark.parametrize("name", sorted(_SWEPT))
def test_declared_constants_are_the_shared_targets(name):
    # every target ``transform`` returns twice by identity is declared, and
    # every declared one comes back: the sweep solves any other each time
    red = _SWEPT[name]
    held, again = {}, set()

    def transform(inst, wit):
        tgt = red.transform(inst, wit)
        if id(tgt) in held:
            again.add(id(tgt))
        # holding each target keeps its id from being reused
        held[id(tgt)] = tgt
        return tgt
    if name == "zkk":
        family = zkk_instances(2, 2)
    elif red.source_kind == "ilp" and red.source_variant is not None:
        # plus the variant's trivial no: monotone-to-ss returns ``_SS_NO``
        # only when a rhs entry exceeds the column count, as in no member
        # of ``ilps``
        v = red.source_variant
        family = [*ilps(v, 2, 2), I.trivial_instance("ilp", False, variant=v)]
    else:
        family = _SMALL[red.source_kind]()
    report = nppt_contract_check(
        dataclasses.replace(red, transform=transform), family)
    assert report.ok, report.as_dict()
    declared = set(map(id, red.constants))
    assert [held[i] for i in again - declared] == []
    assert declared <= held.keys()


# The families of perfbench's contract-sweep and cert-sweep jobs, every
# ``stride``-th instance as the benchmark samples them, and a chain ending in
# an identity, which passes on the first link's constants: (reduction,
# family, exhaustive_cap, stride).
_JOBS = [
    (REDUCTIONS["ss-to-monotone"], lambda: subset_sums(5, 8, 30), 4096, 12),
    (REDUCTIONS["ilp-to-monotone"], lambda: ilps("standard", 2, 4), 1024,
     20),
    (REDUCTIONS["knapsack-to-ss"], lambda: knapsacks(2, 4), 4096, 1),
    (get_reduction("ss-to-knapsack+knapsack-to-ss"),
     lambda: subset_sums(3, 8, 30), 1024, 14),
    (REDUCTIONS["cm-to-permss"],
     lambda: (inst for dim, n in ((1, 5), (2, 3)) for inst in cm_grid(dim, n)),
     4096, 1),
    (UNBOUNDED_SS_SCHEME.reduction(), lambda: unbounded_instances(3, 8, 24),
     1 << 14, 1),
    (ZKK_SCHEME.reduction(), lambda: zkk_instances(2, 7), 1 << 16, 4),
    (get_reduction("knapsack-to-ss+identity-subset-sum"),
     lambda: knapsacks(2, 4), 4096, 1),
]


@pytest.mark.parametrize("red, family, cap, stride", _JOBS,
                         ids=[job[0].name for job in _JOBS])
def test_contract_sweep_solves_each_declared_constant_once(
        monkeypatch, red, family, cap, stride):
    real, asked = certificates.solve, []
    declared = set(map(id, red.constants))

    def counting(inst):
        if id(inst) in declared:
            asked.append(inst)
        return real(inst)
    monkeypatch.setattr(certificates, "solve", counting)
    returned = 0

    def transform(inst, wit):
        nonlocal returned
        tgt = red.transform(inst, wit)
        returned += id(tgt) in declared
        return tgt
    report = nppt_contract_check(
        dataclasses.replace(red, transform=transform),
        islice(family(), 0, None, stride), exhaustive_cap=cap)
    assert report.ok, report.as_dict()
    # the constants come back many times, and each is solved at most once
    assert returned > 2 * len(declared)
    assert asked and len(set(map(id, asked))) == len(asked)


def test_contract_memo_solves_equal_but_distinct_targets(monkeypatch):
    asked = _counting_solve(monkeypatch)
    red = dataclasses.replace(
        REDUCTIONS["ss-to-monotone"], valid_witnesses=None,
        transform=lambda inst, wit: IlpInstance((), (1,), "monotone"))
    report = nppt_contract_check(red, [NO_SOURCE])
    assert report.ok and report.witnesses_checked == 512
    assert len(asked) == 512 and len(set(map(id, asked))) > 1


def test_contract_sweep_keeps_no_answer_from_a_raising_solve(monkeypatch):
    asked = _counting_solve(monkeypatch, fail_once=NO_A)
    red = dataclasses.replace(REDUCTIONS["ss-to-monotone"],
                              transform=lambda inst, wit: NO_A,
                              constants=(NO_A,), valid_witnesses=None)
    report = nppt_contract_check(red, [NO_SOURCE, NO_SOURCE, NO_SOURCE])
    # the first instance is skipped at its first witness, leaving the
    # constant undecided; the second solves it, and no later witness does
    assert report.skipped == [(NO_SOURCE, "target oracle: planted limit")]
    assert not report.violations and report.stratified == 0
    assert report.exhaustive == 2 and report.witnesses_checked == 1 + 2 * 512
    assert asked == [NO_A, NO_A]


def test_contract_cache_is_consulted_for_undecided_targets(monkeypatch):
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
                              transform=_runs_of_four, constants=(NO_A,),
                              valid_witnesses=None)
    cache = Counting()
    report = nppt_contract_check(red, [NO_SOURCE], cache=cache)
    assert report.ok and report.witnesses_checked == 512
    # the declared NO_A is looked up until decided, once; the undeclared
    # NO_B on each of its 256 witnesses
    assert Counting.gets == 1 + 256 and Counting.sets == 2
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
    # at most the target in hand: the sweep keeps no built target
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


@st.composite
def _wide_zkk_cases(draw):
    """A Z_k^k instance with k <= 9 and at most 5 random elements, and a
    certificate of its layout whose indices decode, the same with one
    field redrawn, or a raw value (one bit long or short at times).  Half
    the targets are the sum of the elements a decoding certificate names,
    so the reference accepts often."""
    k, n = draw(st.integers(1, 9)), draw(st.integers(0, 5))
    elem = st.tuples(*[st.integers(0, k - 1)] * k)
    elements = tuple(draw(st.lists(elem, min_size=n, max_size=n)))
    ws = _zkk_widths(GroupSubsetSumInstance(ProductGroup(k), elements,
                                            (0,) * k))
    slots = len(ws) - 1
    shape = draw(st.sampled_from(("decodes", "redrawn", "raw")))
    chosen = []
    if shape == "raw":
        length = max(sum(ws) + draw(st.sampled_from((-1, 0, 1))), 0)
        cert = Witness(draw(st.integers(0, (1 << length) - 1)), length)
    else:
        chosen = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)),
                                     max_size=min(slots, n))))
        fields = [len(chosen), *chosen, *[0] * (slots - len(chosen))]
        if shape == "redrawn":
            j = draw(st.integers(0, slots))
            fields[j] = draw(st.integers(0, (1 << ws[j]) - 1))
        cert = pack_fields(fields, ws)
    target = draw(elem)
    if draw(st.booleans()):
        target = tuple(sum(col) % k for col in
                       zip((0,) * k, *map(elements.__getitem__, chosen)))
    return GroupSubsetSumInstance(ProductGroup(k), elements, target), cert


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_wide_zkk_cases())
def test_packed_zkk_verify_matches_coordinate_sums(case):
    # the packed fields of w + 1 bits at every k up to 9; verify never
    # raises on a certificate
    inst, cert = case
    assert ZKK_SCHEME.verify(inst, cert) == _ref_zkk_verify(inst, cert)


def test_zkk_memo_tells_instances_of_one_shape_apart():
    # a and b share their shape, so only the packed elements and target the
    # memo keeps tell them apart: each certificate is verified on a, b, a
    # and equal copies, so every switch finds the other's packings held
    group = ProductGroup(3)
    a = GroupSubsetSumInstance(group, ((1, 2, 0), (2, 2, 1), (0, 1, 1)),
                               (0, 1, 1))
    b = GroupSubsetSumInstance(group, ((2, 0, 1), (1, 1, 2), (0, 1, 1)),
                               (2, 1, 2))
    certs = list(ZKK_SCHEME.valid_certificates(a))
    answers = set()
    for cert in certs:
        for inst in (a, b, a, dataclasses.replace(a), b,
                     dataclasses.replace(b)):
            got = ZKK_SCHEME.verify(inst, cert)
            assert got == _ref_zkk_verify(inst, cert), (inst, cert)
            answers.add((inst == a, got))
    assert answers == {(True, True), (True, False), (False, True),
                       (False, False)}
    for inst in (a, b, dataclasses.replace(a)):
        for cert in certs:
            assert ZKK_SCHEME.verify(inst, cert) == \
                _ref_zkk_verify(inst, cert)


@pytest.mark.parametrize("bad", [
    (1,), (1, 0, 1), (2, 0), (0, -1), (1.0, 0), (0.5, 1), (True, 0),
    (False, True), ("a", 0), (None, 1),
], ids=["short", "long", "coordinate-k", "coordinate-minus-1", "float-1",
        "float-half", "bool", "bools", "str", "none"])
def test_zkk_element_outside_the_group_is_refused_or_answered(bad):
    # an instance whose target lays out: each certificate either gets the
    # coordinate-sum answer or, once its indices reach the bad element in
    # increasing order, a ValidationError; never a TypeError
    inst = GroupSubsetSumInstance(ProductGroup(2), ((1, 0), bad, (1, 1)),
                                  (0, 1))
    ws = _zkk_widths(inst)
    packs = len(bad) == 2 and all(type(c) in (int, bool) and 0 <= c < 2
                                  for c in bad)
    for cert in all_witnesses(sum(ws)):
        count, *slots = unpack_fields(cert, ws)
        run = slots[:count]
        # the indices the verifier reads before one fails to increase
        read = run[:next((j for j in range(1, len(run))
                          if run[j] <= run[j - 1]), len(run))]
        reaches = count <= len(slots) and not any(slots[count:]) and \
            1 in read
        if reaches and not packs:
            with pytest.raises(ValidationError, match="not in Z_2"):
                ZKK_SCHEME.verify(inst, cert)
        else:
            assert ZKK_SCHEME.verify(inst, cert) == \
                _ref_zkk_verify(inst, cert), cert


def test_zkk_packs_each_element_once_per_instance(monkeypatch):
    # an element is packed (and checked) the first time a certificate
    # chooses it, not once per certificate; a new instance object packs
    # its own
    calls = []
    pack = certificates._zkk_pack

    def counting(lay, e):
        calls.append(e)
        return pack(lay, e)
    monkeypatch.setattr(certificates, "_zkk_pack", counting)
    elements = ((1, 0), (0, 1), (1, 1), (0, 0))
    inst = GroupSubsetSumInstance(ProductGroup(2), elements, (1, 0))
    length = ZKK_SCHEME.cert_len(inst)
    for _ in range(2):
        assert sum(map(ZKK_SCHEME.verify, repeat(inst),
                       all_witnesses(length))) > 1
    assert sorted(calls) == sorted(elements)
    ZKK_SCHEME.verify(dataclasses.replace(inst),
                      ZKK_SCHEME.synthesize(inst, (0,)))
    assert len(calls) == len(elements) + 1


def _zkk_every_family():
    """Every Z_k^k instance with k = 2 and n <= 4 or k = 1 and n <= 6, a
    yes and a no one per n <= 2 at k = 3 (2^18 certificates each), and yes
    and no ones with n <= 3 at k = 6, 7 and 9, of random elements."""
    yield from zkk_instances(2, 4)
    yield from zkk_instances(1, 6)
    for k, top in ((3, 2), (6, 3), (7, 3), (9, 3)):
        rng = Random(k)
        group = ProductGroup(k)
        for n in range(top + 1):
            elements = tuple(tuple(rng.randrange(k) for _ in range(k))
                             for _ in range(n))
            # the sum of the first and last elements, then that sum with
            # its first coordinate moved by one
            ends = (elements[0], elements[-1]) if n > 1 else elements
            yes = tuple(sum(col) % k for col in zip((0,) * k, *ends))
            for target in (yes, ((yes[0] + 1) % k, *yes[1:])):
                yield GroupSubsetSumInstance(group, elements, target)


@pytest.mark.parametrize("scheme, widths, reference, family", [
    (UNBOUNDED_SS_SCHEME, _uss_widths, _ref_uss_fields,
     lambda: unbounded_instances(2, 5, 12)),
    (ZKK_SCHEME, _zkk_widths, _ref_zkk_fields, _zkk_every_family),
], ids=["unbounded", "zkk"])
def test_verify_matches_reference_on_every_certificate(scheme, widths,
                                                       reference, family):
    # the field tuples of all certificates, listed in increasing value order
    # (most significant field first), pair up with all_witnesses.  A layout
    # wider than 18 bits is checked on each certificate whose indices
    # decode and each of those with one bit changed
    for inst in family():
        ws = widths(inst)
        length = sum(ws)
        if length <= 18:
            certs = all_witnesses(length)
            fields = product(*[range(1 << w) for w in ws])
        else:
            listed = [w.value for w in scheme.valid_certificates(inst)]
            certs = [Witness(v ^ flip, length) for v in listed
                     for flip in (0, *(1 << j for j in range(length)))]
            fields = [unpack_fields(c, ws) for c in certs]
        got = list(map(scheme.verify, repeat(inst), certs))
        want = list(map(reference, repeat(inst), fields))
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
    lay = certificates._zkk_layout(c)[0]
    assert certificates._zkk_layout(d)[0] is lay
    assert certificates._zkk_layout(
        GroupSubsetSumInstance(g, ((1, 0),), (1, 1)))[0] is not lay
    # the target is read from the instance, not from the shared layout
    assert ZKK_SCHEME.verify(c, ZKK_SCHEME.synthesize(c, (0, 1)))
    assert not ZKK_SCHEME.verify(d, ZKK_SCHEME.synthesize(c, (0, 1)))


# the 30 Z_k^k shapes with 2 <= k <= 4 whose layouts keep their valid values
_ZKK_KEPT_SHAPES = [(2, n) for n in range(12)] + [
    (k, n) for k in (3, 4) for n in range(9)]


@pytest.mark.parametrize("shape, size, keys, bound", [
    # the bounds stated beside USS_SHAPE_CACHE and ZKK_SHAPE_CACHE, at the
    # largest shapes they cover; a full Z_k^k cache ends holding every
    # shape with 2 <= k <= 4 that keeps its values and the largest others
    ("_uss_shape", certificates.USS_SHAPE_CACHE,
     [(4095 - i, 4096 - i) for i in range(512)], 600_000),
    ("_zkk_shape", certificates.ZKK_SHAPE_CACHE,
     [(4, (1 << 16) - i) for i in range(128 - len(_ZKK_KEPT_SHAPES))] +
     _ZKK_KEPT_SHAPES, 250_000),
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


# ---------------------------------------------------------------------------
# The valid lists hold exactly the certificates that can reach the accept
# comparison, each once.


def _uss_listable(inst, vals):
    """Whether the unbounded certificate of field values ``vals`` is one the
    running-total bound keeps: a count of at most the slot count, a zero
    tail, increasing indices below n, each multiplicity in [1, t], and
    every running total within t."""
    count, t = vals[0], inst.target
    if count > (len(vals) - 1) // 2 or any(vals[1 + 2 * count:]):
        return False
    prev, total = -1, 0
    for i, m in zip(vals[1:1 + 2 * count:2], vals[2:2 + 2 * count:2]):
        if i >= len(inst.items) or i <= prev or m + 1 > t:
            return False
        prev, total = i, total + (m + 1) * inst.items[i]
        if total > t:
            return False
    return True


def _uss_order(fields):
    """The order of an unbounded certificate's field values in its valid
    list: count, then the indices, then the multiplicities."""
    used = fields[1:1 + 2 * fields[0]]
    return fields[0], used[::2], used[1::2]


def test_unbounded_valid_list_is_exactly_what_the_bound_keeps():
    # every certificate of at most 16 bits, in increasing value order, as
    # its field tuple (most significant field first); the list is in the
    # order the unbounded-ss pins were recorded in
    checked = 0
    for family in (unbounded_instances(2, 4, 10),
                   unbounded_instances(3, 5, 12)):
        for inst in family:
            ws = _uss_widths(inst)
            if sum(ws) > 16:
                continue
            listed = [w.value for w in
                      UNBOUNDED_SS_SCHEME.valid_certificates(inst)]
            keep = map(_uss_listable, repeat(inst),
                       product(*[range(1 << w) for w in ws]))
            assert len(set(listed)) == len(listed), inst
            assert set(listed) == {v for v, ok in enumerate(keep) if ok}, \
                inst
            fields = [unpack_fields(Witness(v, sum(ws)), ws) for v in listed]
            assert fields == sorted(fields, key=_uss_order), inst
            checked += 1
    assert checked == 135 + 434


def test_unbounded_valid_list_never_extends_a_prefix_past_t():
    # every item is past t, so no index tuple fits and the list holds the
    # empty certificate alone: found in n steps per count, where building
    # every index tuple first took 33 s at n = 30
    inst = UnboundedSubsetSumInstance((2001,) * 40, 2000)
    started = time.perf_counter()
    rep = certificate_scheme_check(UNBOUNDED_SS_SCHEME, [inst])
    assert time.perf_counter() - started < 10
    # the one certificate, then 2 + 16 probes less the zero one it is
    assert (rep.no_instances, rep.stratified, rep.witnesses_checked) == \
        (1, 1, 18)
    assert rep.ok


def _zkk_reference_values(lay, n):
    """Per count, each increasing index tuple packed into its slots."""
    return [c << lay.body | sum(i << s for i, s in zip(idxs, lay.shifts))
            for c in range(min(lay.slots, n) + 1)
            for idxs in combinations(range(n), c)]


def test_zkk_kept_values_are_the_streamed_ones():
    # at k <= 3, on both sides of ZKK_VALID_KEPT (k = 1 has one certificate
    # at every n): a kept shape's values are those its stream yields, in
    # the same order, and a larger shape keeps none and streams them
    sides = set()
    for k in (1, 2, 3):
        for n in range(14):
            inst = GroupSubsetSumInstance(ProductGroup(k), ((0,) * k,) * n,
                                          (0,) * k)
            lay = certificates._zkk_layout(inst)[0]
            stream = list(certificates._zkk_values(lay, n))
            assert stream == _zkk_reference_values(lay, n)
            kept = lay.values is not None
            assert kept == (len(stream) <= certificates.ZKK_VALID_KEPT)
            if kept:
                assert lay.values == tuple(stream)
            listed = [w.value for w in ZKK_SCHEME.valid_certificates(inst)]
            assert listed == stream
            sides.add((k, kept))
    assert sides == {(1, True), (2, True), (2, False), (3, True), (3, False)}


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
    # a negative item, which the running-total bound cannot take: a
    # certificate could pass t and come back to it
    for items in ((1, -2), (-1,)):
        inst = UnboundedSubsetSumInstance(items, 4)
        assert I.validate(inst) == ["items must be nonnegative"]
        with pytest.raises(ValidationError, match="items must be nonneg"):
            certificates._uss_layout(inst)
        _assert_refused(UNBOUNDED_SS_SCHEME, inst)


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
