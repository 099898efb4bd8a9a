"""Numeric reductions: frozen construction vectors and contract checks.

Expected instances below were produced by running each transform and
confirming the verdicts with the independent solvers in `redkit.oracles`.
"""

import pytest

from redkit.catalog import REDUCTIONS
from redkit.certificates import nppt_contract_check
from redkit.errors import ConstructionError, ReductionError
from redkit.families import ilps, knapsacks, subset_sums, zq_instances
from redkit.instances import (CyclicGroup, GroupSubsetSumInstance,
                              IlpInstance, KnapsackInstance,
                              SubsetSumInstance)
from redkit.numeric import (_MONOTONE_NO, encode_base, graver_check,
                            graver_sequence)
from redkit.oracles import solve
from redkit.witness import Witness


def test_base_codec_round_trip():
    # least significant digit first: 3 + 7 * 11^2 + 2 * 11^3
    assert encode_base((3, 0, 7, 2), 11) == 3512
    assert encode_base((), 5) == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_graver_sequence_properties(k):
    seq = graver_sequence(k)
    assert len(seq) == 2 ** k
    assert graver_check(seq, k) == []


def test_graver_sequence_frozen_k2():
    assert graver_sequence(2) == ((1, 0), (-1, 1), (1, 0), (-1, -1))


def test_graver_check_flags_corruption():
    seq = graver_sequence(3)
    bad = seq[:-1] + ((1, 1, 1),)
    assert "total sum is not zero" in graver_check(bad, 3)
    with pytest.raises(ConstructionError):
        graver_check(graver_sequence(4), 4, subset_cap=8)


def test_apply_rejects_wrong_witness_length():
    r = REDUCTIONS["knapsack-to-ss"]
    kp = KnapsackInstance(((2, 3),), 2, 3)
    with pytest.raises(ReductionError):
        r.apply(kp, Witness(0, r.witness_len(kp) + 1))


def test_ss_to_knapsack_frozen():
    r = REDUCTIONS["ss-to-knapsack"]
    inst = SubsetSumInstance((3, 5), 5)
    out = r.apply(inst, Witness.zero(0))
    assert out.items == ((3, 3), (5, 5))
    assert out.capacity == 5 and out.demand == 5


def test_knapsack_to_ss_frozen():
    r = REDUCTIONS["knapsack-to-ss"]
    kp = KnapsackInstance(((2, 3),), 2, 3)
    assert r.witness_len(kp) == 3
    got = {w.value: r.apply(kp, w) for w in r.valid_witnesses(kp)}
    assert {v: (t.items, t.target) for v, t in got.items()} == {
        0: ((11,), 3), 2: ((11,), 7), 4: ((11,), 11)}
    assert solve(got[4]).answer and not solve(got[0]).answer
    # the widest accepted witness, the largest target, comes first
    assert next(r.valid_witnesses(kp)).value == 4


def test_knapsack_to_ss_guards():
    r = REDUCTIONS["knapsack-to-ss"]
    cases = [
        # demand met by one heavy item alone -> fixed yes
        (KnapsackInstance(((1, 9),), 5, 3), ((), 0), True),
        # zero demand -> fixed yes
        (KnapsackInstance(((2, 3),), 0, 0), ((), 0), True),
        # total usable weight below demand -> fixed no
        (KnapsackInstance(((9, 5), (2, 1)), 3, 4), ((), 1), False),
    ]
    for kp, (items, target), answer in cases:
        assert r.witness_len(kp) == 0
        out = r.apply(kp, Witness.zero(0))
        assert (out.items, out.target) == (items, target)
        assert solve(out).answer is answer is solve(kp).answer


def test_ss_to_monotone_frozen():
    r = REDUCTIONS["ss-to-monotone"]
    inst = SubsetSumInstance((3, 5), 5)
    assert r.witness_len(inst) == 9
    assert [w.value for w in r.valid_witnesses(inst)] == [65]
    out = r.apply(inst, Witness(65, 9))
    assert out.variant == "monotone"
    assert out.columns == ((1, 1, 0), (1, 0, 1))
    # the row targets re-sum to the original target
    assert out.rhs == (1, 0, 1)
    # (1, 2, 0), (3, 1, 0) and (5, 0, 0) re-sum to 5 too, but each has a
    # row total above that row's ones (2, 1, 1), so the witness is rejected
    # and not listed
    for value in (80, 200, 320):
        assert r.apply(inst, Witness(value, 9)) is _MONOTONE_NO


def test_monotone_to_ss_frozen():
    r = REDUCTIONS["monotone-to-ss"]
    ilp = IlpInstance(((1, 0), (1, 1)), (1, 1), variant="monotone")
    out = r.apply(ilp, Witness.zero(r.witness_len(ilp)))
    assert (out.items, out.target, out.modulus) == ((1, 4), 4, None)
    # rhs entry exceeding the column count -> fixed no
    big = IlpInstance(((1, 0), (1, 1)), (3, 1), variant="monotone")
    out2 = r.apply(big, Witness.zero(r.witness_len(big)))
    assert (out2.items, out2.target) == ((), 1)


def test_monotone_to_zerosum_frozen():
    r = REDUCTIONS["monotone-to-zerosum"]
    ilp = IlpInstance(((1,),), (1,), variant="monotone")
    out = r.apply(ilp, Witness.zero(r.witness_len(ilp)))
    assert out.variant == "zero_sum"
    assert out.columns == ((1, 0), (-1, 1), (0, -1))
    assert out.rhs == (0, 0)


def test_zerosum_to_ilp_frozen():
    r = REDUCTIONS["zerosum-to-ilp"]
    zs = IlpInstance(((1, -1), (-1, 1)), (0, 0), variant="zero_sum")
    assert r.witness_len(zs) == 1
    out = r.apply(zs, Witness(0, 1))
    assert out.variant == "standard"
    assert (out.columns, out.rhs) == ((((-1, 1),)), ((-1, 1)))


def test_ilp_to_monotone_frozen():
    r = REDUCTIONS["ilp-to-monotone"]
    ilp = IlpInstance(((1, -1), (0, 1)), (1, 0), variant="standard")
    assert r.witness_len(ilp) == 8
    # per row, (b_pos, b_neg) within the row's +1 and -1 entries: (1, 0) in
    # row 0 (no -1 there), and (0, 0) or (1, 1) in row 1
    # row 1's widest, (1, 1), first
    assert [w.value for w in r.valid_witnesses(ilp)] == [81, 64]
    out = r.apply(ilp, Witness(81, 8))
    assert out.columns == ((1, 0, 0, 1), (0, 1, 0, 0))
    assert out.rhs == (1, 1, 0, 1)
    assert solve(out).answer
    wit = r.synthesize(ilp, solve(ilp).solution)
    assert wit.value == 81
    assert solve(r.apply(ilp, wit)).answer


def test_ss_to_zq_frozen():
    r = REDUCTIONS["ss-to-zq"]
    inst = SubsetSumInstance((1, 2), 3)
    out = r.apply(inst, Witness.zero(r.witness_len(inst)))
    assert out.group == CyclicGroup(6)
    assert (out.elements, out.target) == ((1, 2), 3)


def test_ss_to_zq_guards():
    r = REDUCTIONS["ss-to-zq"]
    cases = [
        (SubsetSumInstance((4,), 0), ((), 0), True),     # zero target
        (SubsetSumInstance((2, 3), 3), ((), 0), True),   # single-item hit
        (SubsetSumInstance((5,), 3), ((), 1), False),    # too few usable items
    ]
    for src, (elements, target), answer in cases:
        out = r.apply(src, Witness.zero(r.witness_len(src)))
        assert (out.elements, out.target) == (elements, target)
        assert solve(out).answer is answer is solve(src).answer


def test_zq_to_ss_frozen():
    r = REDUCTIONS["zq-to-ss"]
    zq = GroupSubsetSumInstance(CyclicGroup(6), (1, 2), 3)
    assert r.witness_len(zq) == 4
    lifted = {w.value: r.apply(zq, w) for w in r.valid_witnesses(zq)}
    assert {v: (t.items, t.target) for v, t in lifted.items()} == {
        3: ((1, 2), 3), 9: ((1, 2), 9)}
    assert all(t.modulus is None for t in lifted.values())
    # out-of-family lift values all map to one fixed no-instance
    for bad in (0, 4, 15):
        out = r.apply(zq, Witness(bad, 4))
        assert (out.items, out.target) == ((), 1)


def test_zq_to_ss_synthesis():
    r = REDUCTIONS["zq-to-ss"]
    zq = GroupSubsetSumInstance(CyclicGroup(6), (4, 5), 3)
    sol = solve(zq)
    assert sol.answer
    wit = r.synthesize(zq, sol.solution)
    assert wit.value == 9          # 4 + 5 = 9, and 9 mod 6 == 3
    assert solve(r.apply(zq, wit)).answer


def test_round_trip_chain_preserves_verdicts():
    from redkit.reductions import chain
    fwd = chain(REDUCTIONS["ss-to-zq"], REDUCTIONS["zq-to-ss"])
    for inst in subset_sums(3, 5, 15):
        src = solve(inst)
        if src.answer:
            wit = fwd.synthesize(inst, src.solution)
            assert solve(fwd.apply(inst, wit)).answer
        else:
            # no-instances must stay no under every witness; spot-check
            # the first listed one, or the zero witness when none is
            wit = next(fwd.valid_witnesses(inst),
                       Witness.zero(fwd.witness_len(inst)))
            assert not solve(fwd.apply(inst, wit)).answer


@pytest.mark.parametrize("name,family", [
    ("ss-to-knapsack", lambda: subset_sums(3, 4, 14)),
    ("knapsack-to-ss", lambda: knapsacks(2, 4)),
    ("ss-to-monotone", lambda: subset_sums(3, 4, 14)),
    ("monotone-to-ss", lambda: ilps("monotone", 2, 3)),
    ("monotone-to-zerosum", lambda: ilps("monotone", 2, 2)),
    ("zerosum-to-ilp", lambda: ilps("zero_sum", 2, 3)),
    ("ilp-to-monotone", lambda: ilps("standard", 2, 2)),
    ("ss-to-zq", lambda: subset_sums(3, 4, 14)),
    ("zq-to-ss", lambda: zq_instances(6, 3)),
])
def test_small_grid_contract(name, family):
    report = nppt_contract_check(REDUCTIONS[name], family(),
                                 exhaustive_cap=512)
    assert report.ok, report.as_dict()
