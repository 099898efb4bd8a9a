"""Reductions that decode witnesses through a cached per-instance layout.

The reference functions below decode field by field with ``unpack_fields``
and rebuild every target part per witness, as the layout-free reductions
did; the layout-based reductions must agree with them on the witness
length, on the target of every witness, and on the witness enumerations.
"""

import dataclasses
import gc
import weakref
from functools import lru_cache
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from redkit import instances as I
from redkit.catalog import REDUCTIONS
from redkit.certificates import nppt_contract_check
from redkit.errors import ReductionError
from redkit.families import cm_grid, subset_sums
from redkit.groups import identity, make_run_context
from redkit.reductions import chain
from redkit.witness import Witness, all_witnesses, field_width, pack_fields

from helpers import block_diagonal, unpack_fields

# ---------------------------------------------------------------------------
# knapsack -> subset sum


def _kss_case(inst):
    t, w = inst.capacity, inst.demand
    if w == 0:
        return "yes", (), 0
    keep = [i for i, (p, wi) in enumerate(inst.items) if p <= t]
    if any(inst.items[i][1] > w for i in keep):
        return "yes", (), 0
    if sum(inst.items[i][1] for i in keep) < w:
        return "no", (), 0
    return "main", tuple(keep), len(keep) * w + 1


def _kss_widths(inst):
    _, _, W = _kss_case(inst)
    return (field_width(inst.capacity), field_width(W - 1 - inst.demand))


def _ref_kss_len(inst):
    return sum(_kss_widths(inst)) if _kss_case(inst)[0] == "main" else 0


def _ref_kss_transform(inst, wit):
    case, keep, W = _kss_case(inst)
    if case != "main":
        return I.trivial_instance("subset_sum", case == "yes")
    t_guess, w_off = unpack_fields(wit, _kss_widths(inst))
    w_guess = inst.demand + w_off
    if t_guess > inst.capacity or w_guess >= W:
        return I.trivial_instance("subset_sum", False)
    items = tuple(inst.items[i][0] * W + inst.items[i][1] for i in keep)
    return I.SubsetSumInstance(items, t_guess * W + w_guess)


def _ref_kss_valid(inst):
    case, _, W = _kss_case(inst)
    if case != "main":
        yield Witness.zero(0)
        return
    for t_guess in range(inst.capacity + 1):
        for w_guess in range(inst.demand, W):
            yield pack_fields((t_guess, w_guess - inst.demand),
                              _kss_widths(inst))


def _ref_kss_canonical(inst):
    case, _, W = _kss_case(inst)
    if case != "main":
        return Witness.zero(0)
    return pack_fields((inst.capacity, W - 1 - inst.demand), _kss_widths(inst))


# ---------------------------------------------------------------------------
# subset sum -> monotone ILP


def _ssm_widths(inst):
    return [field_width(inst.target)] * inst.target.bit_length()


def _ref_ssm_transform(inst, wit):
    t = inst.target
    k = t.bit_length()
    b = unpack_fields(wit, _ssm_widths(inst)) if k else ()
    if any(d > t for d in b) or sum(d << j for j, d in enumerate(b)) != t:
        return I.trivial_instance("ilp", False, variant="monotone")
    cols = tuple(tuple((p >> j) & 1 for j in range(k))
                 for p in inst.items if p <= t)
    return I.IlpInstance(cols, b, "monotone")


def _ref_ssm_valid(inst):
    t = inst.target
    k = t.bit_length()

    def rec(j, rem):
        if j == k:
            if rem == 0:
                yield ()
            return
        step = 1 << j
        for d in range(min(t, rem // step) + 1):
            for rest in rec(j + 1, rem - d * step):
                yield (d,) + rest

    for b in rec(0, t):
        yield pack_fields(b, _ssm_widths(inst))


def _ref_ssm_canonical(inst):
    b = tuple((inst.target >> j) & 1 for j in range(inst.target.bit_length()))
    return pack_fields(b, _ssm_widths(inst))


# ---------------------------------------------------------------------------
# standard ILP -> monotone ILP


def _im_widths(inst):
    return [field_width(len(inst.columns))] * (2 * inst.num_rows)


def _ref_im_transform(inst, wit):
    m = inst.num_rows
    n = len(inst.columns)
    fields = unpack_fields(wit, _im_widths(inst)) if m else ()
    b_pos, b_neg = fields[:m], fields[m:]
    if any(v > n for v in fields) or \
            any(bp - bn != b for bp, bn, b in zip(b_pos, b_neg, inst.rhs)):
        return I.trivial_instance("ilp", False, variant="monotone")
    cols = tuple(
        tuple(1 if a == 1 else 0 for a in col) +
        tuple(1 if a == -1 else 0 for a in col)
        for col in inst.columns)
    return I.IlpInstance(cols, tuple(b_pos) + tuple(b_neg), "monotone")


def _ref_im_valid(inst):
    m = inst.num_rows
    n = len(inst.columns)
    if m == 0:
        yield Witness.zero(0)
        return
    per_row = []
    for b in inst.rhs:
        opts = [(bp, bp - b) for bp in range(n + 1) if 0 <= bp - b <= n]
        if not opts:
            return
        per_row.append(opts)
    for combo in product(*per_row):
        yield pack_fields(tuple(bp for bp, _ in combo) +
                          tuple(bn for _, bn in combo), _im_widths(inst))


def _ref_im_canonical(inst):
    n = len(inst.columns)
    b_pos = tuple(min(max(b, 0), n) for b in inst.rhs)
    b_neg = tuple(min(max(-b, 0), n) for b in inst.rhs)
    return pack_fields(b_pos + b_neg, _im_widths(inst))


# ---------------------------------------------------------------------------
# counter machine -> symmetric group subset sum


@lru_cache(maxsize=4096)
def _cm_setup(inst):
    ctx = make_run_context(len(inst.vectors))
    ident = identity(ctx.domain)
    f_c = sum(1 for f in inst.flags if f == I.REQUIRED)
    elements = []
    for vec, flag in zip(inst.vectors, inst.flags):
        parts = [ctx.gamma_hat(b) for b in vec]
        parts.append(ctx.pi if flag == I.REQUIRED else ident)
        elements.append(block_diagonal(parts))
    degree = (inst.dimension + 1) * ctx.domain
    return I.SymmetricGroup(degree), tuple(elements), f_c


def _cps_widths(inst):
    return [field_width(len(inst.vectors))] * inst.dimension


def _ref_cps_len(inst):
    return sum(_cps_widths(inst)) if inst.vectors else 0


def _ref_cps_transform(inst, wit):
    n = len(inst.vectors)
    if n == 0:
        return I.trivial_instance("group_subset_sum", True,
                                  group=I.SymmetricGroup(2))
    counts = unpack_fields(wit, _cps_widths(inst))
    if any(c > n for c in counts):
        return I.trivial_instance("group_subset_sum", False,
                                  group=I.SymmetricGroup(2))
    group, elements, f_c = _cm_setup(inst)
    pi = make_run_context(n).pi
    parts = [pi.power(c) for c in counts]
    parts.append(pi.power(f_c))
    return I.GroupSubsetSumInstance(group, elements, block_diagonal(parts))


def _ref_cps_valid(inst):
    n = len(inst.vectors)
    if n == 0:
        yield Witness.zero(0)
        return
    for counts in product(range(n + 1), repeat=inst.dimension):
        yield pack_fields(counts, _cps_widths(inst))


# ---------------------------------------------------------------------------
# Instances and the comparison.

_knapsacks = st.builds(
    I.KnapsackInstance,
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
             max_size=3).map(tuple),
    st.integers(0, 8), st.integers(0, 10))

_subset_sums = st.builds(
    I.SubsetSumInstance, st.lists(st.integers(0, 20), max_size=4).map(tuple),
    st.integers(0, 20))


@st.composite
def _standard_ilps(draw):
    m = draw(st.integers(0, 2))
    col = st.tuples(*[st.integers(-1, 1)] * m)
    return I.IlpInstance(tuple(draw(st.lists(col, max_size=4))),
                         tuple(draw(st.lists(st.integers(-3, 3),
                                             min_size=m, max_size=m))))


@st.composite
def _counter_machines(draw):
    dim = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-1, 1)] * dim)
    vectors = tuple(draw(st.lists(vec, max_size=4)))
    flags = tuple(draw(st.lists(st.sampled_from((I.OPTIONAL, I.REQUIRED)),
                                min_size=len(vectors),
                                max_size=len(vectors))))
    return I.CounterMachineInstance(dim, vectors, flags)


CASES = {
    "knapsack-to-ss": (_knapsacks, _ref_kss_len, _ref_kss_transform,
                       _ref_kss_valid, _ref_kss_canonical),
    "ss-to-monotone": (_subset_sums, lambda inst: sum(_ssm_widths(inst)),
                       _ref_ssm_transform, _ref_ssm_valid,
                       _ref_ssm_canonical),
    "ilp-to-monotone": (_standard_ilps(), lambda inst: sum(_im_widths(inst)),
                        _ref_im_transform, _ref_im_valid, _ref_im_canonical),
    "cm-to-permss": (_counter_machines(), _ref_cps_len, _ref_cps_transform,
                     _ref_cps_valid, None),
}


def _witnesses(length, values):
    """Every witness up to 12 bits; past that, the corners and ``values``."""
    if length <= 12:
        return all_witnesses(length)
    top = (1 << length) - 1
    return [Witness(v & top, length) for v in [0, top] + values]


@pytest.mark.parametrize("name", sorted(CASES))
def test_layout_reduction_matches_reference(name):
    instances, ref_len, ref_transform, ref_valid, ref_canonical = CASES[name]
    red = REDUCTIONS[name]

    def agree(inst, values):
        length = red.witness_len(inst)
        assert length == ref_len(inst)
        for wit in _witnesses(length, values):
            assert red.apply(inst, wit) == ref_transform(inst, wit), wit
        for bad in (length - 1, length + 1):
            if bad >= 0:
                with pytest.raises(ReductionError):
                    red.apply(inst, Witness.zero(bad))
        assert list(islice(red.valid_witnesses(inst), 5000)) == \
            list(islice(ref_valid(inst), 5000))
        if ref_canonical is not None:
            assert red.canonical_witness(inst) == ref_canonical(inst)

    @settings(max_examples=150, deadline=None)
    @given(instances, instances,
           st.lists(st.integers(0, 1 << 30), max_size=64))
    def check(a, b, values):
        # A, B, A, then an equal but distinct copy of A: each switch of
        # instance misses the layout's one-instance memo and rebuilds it
        for inst in (a, b, a, dataclasses.replace(a)):
            agree(inst, values)

    check()


# ---------------------------------------------------------------------------
# What the per-instance memos hold: one instance per layout function, and
# one intermediate per chain link.


def test_chain_builds_each_intermediate_once_per_first_link_witness():
    calls = 0
    first = REDUCTIONS["ss-to-knapsack"]
    transform = first.transform

    def counting(inst, wit):
        nonlocal calls
        calls += 1
        return transform(inst, wit)

    red = chain(dataclasses.replace(first, transform=counting),
                REDUCTIONS["knapsack-to-ss"])
    rep = nppt_contract_check(red, subset_sums(3, 5, 10), exhaustive_cap=8)
    assert (rep.checked, rep.witnesses_checked) == (491, 11416)
    # ss-to-knapsack has no witness bits, so every witness of a source,
    # and its slot sizes, share one intermediate
    assert calls == rep.checked


def test_chain_matches_its_links_on_interleaved_instances():
    # witnesses in decreasing order, and instances switched (to an equal
    # but distinct copy too), so the intermediate memo misses between runs
    first, second = REDUCTIONS["ss-to-monotone"], REDUCTIONS["monotone-to-ss"]
    red = chain(first, second)

    def ref(inst, wit):
        l1 = first.witness_len(inst)
        l2 = red.witness_len(inst) - l1
        mid = first.apply(inst, Witness(wit.value >> l2, l1))
        l2p = second.witness_len(mid)
        if l2p > l2:
            return second.apply(mid, Witness.zero(l2p))
        return second.apply(mid, Witness(wit.value & ((1 << l2p) - 1), l2p))

    a, b = I.SubsetSumInstance((1, 2), 3), I.SubsetSumInstance((2, 3), 5)
    for inst in (a, b, a, dataclasses.replace(a)):
        wits = list(all_witnesses(red.witness_len(inst)))
        assert 1 < len(wits) <= 1 << 12
        for wit in reversed(wits):
            assert red.apply(inst, wit) == ref(inst, wit), wit


def test_layout_memo_keeps_only_the_last_source_alive():
    refs = []

    def family():
        for inst in cm_grid(1, 3):
            refs.append(weakref.ref(inst))
            yield inst

    rep = nppt_contract_check(REDUCTIONS["cm-to-permss"], family())
    assert rep.ok and rep.checked == len(refs) == 259
    gc.collect()
    assert [r() is None for r in refs] == [True] * 258 + [False]
