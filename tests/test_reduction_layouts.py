"""Reductions that decode witnesses through a cached per-instance layout.

The reference functions below decode field by field with ``unpack_fields``
and rebuild every target part per witness, as the layout-free reductions
did; the layout-based reductions must agree with them on the witness
length, on the target of every witness, and on the witness enumerations.
"""

import dataclasses
import gc
import tracemalloc
import weakref
from functools import lru_cache, partial
from itertools import combinations, compress, islice, product, repeat
from operator import is_not

import pytest
from hypothesis import given, settings, strategies as st

from redkit import instances as I, numeric, pipeline
from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (UNBOUNDED_SS_SCHEME, ZKK_SCHEME,
                                 nppt_contract_check)
from redkit.errors import ReductionError, ValidationError
from redkit.families import (cm_contract_family, cm_grid, ilps, knapsacks,
                             subset_sums, unbounded_instances, zkk_instances,
                             zq_instances)
from redkit.groups import identity, make_run_context
from redkit.numeric import _MONOTONE_NO
from redkit.oracles import solve
from redkit.reductions import chain, compose
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
    """Every guess, widest first: the capacity guess and then the demand
    guess counting down."""
    case, _, W = _kss_case(inst)
    if case != "main":
        yield Witness.zero(0)
        return
    for t_guess in reversed(range(inst.capacity + 1)):
        for w_guess in reversed(range(inst.demand, W)):
            yield pack_fields((t_guess, w_guess - inst.demand),
                              _kss_widths(inst))


def _ref_kss_canonical(inst):
    case, _, W = _kss_case(inst)
    if case != "main":
        return Witness.zero(0)
    return pack_fields((inst.capacity, W - 1 - inst.demand), _kss_widths(inst))


# ---------------------------------------------------------------------------
# subset sum -> monotone ILP


# What the two references below return for a rejected witness: this object,
# so a test can tell a reject from an accepted witness whose target equals
# the trivial no-instance.
_REF_MONOTONE_NO = I.trivial_instance("ilp", False, variant="monotone")


def _ssm_widths(inst):
    return [field_width(inst.target)] * inst.target.bit_length()


def _ssm_columns(inst):
    t = inst.target
    return tuple(tuple((p >> j) & 1 for j in range(t.bit_length()))
                 for p in inst.items if p <= t)


def _ssm_reach(inst):
    """Row j's ones in the target: the items <= t with bit j set."""
    t = inst.target
    return [sum(1 for p in inst.items if p <= t and (p >> j) & 1)
            for j in range(t.bit_length())]


def _im_reach(inst):
    """Each field's most: the +1 entries of each row, then the -1 ones."""
    return [sum(1 for col in inst.columns if col[j] == a)
            for a in (1, -1) for j in range(inst.num_rows)]


def _ref_ssm_transform(inst, wit):
    t = inst.target
    k = t.bit_length()
    b = unpack_fields(wit, _ssm_widths(inst)) if k else ()
    if any(d > r for d, r in zip(b, _ssm_reach(inst))) or \
            sum(d << j for j, d in enumerate(b)) != t:
        return _REF_MONOTONE_NO
    return I.IlpInstance(_ssm_columns(inst), b, "monotone")


def _ref_ssm_valid(inst, within_reach=True):
    """Every witness whose digit sums re-sum to t, b_0 in the outermost
    loop, each increasing; when ``within_reach``, only those whose every
    digit sum is at most its row's ones (the transform rejects the rest)."""
    t = inst.target
    k = t.bit_length()
    most = _ssm_reach(inst) if within_reach else [t] * k

    def rec(j, rem):
        if j == k:
            if rem == 0:
                yield ()
            return
        # the higher digits add multiples of 2^(j+1), so d has the parity
        # of bit j of rem
        step = 1 << j
        for d in range((rem >> j) & 1, min(rem // step, most[j]) + 1, 2):
            for rest in rec(j + 1, rem - d * step):
                yield (d,) + rest

    widths = _ssm_widths(inst)
    for b in rec(0, t):
        yield pack_fields(b, widths)


def _ref_ssm_canonical(inst):
    # the top digit first, each as large as its reach and the rest allow
    rem = inst.target
    b = []
    for j, r in reversed(list(enumerate(_ssm_reach(inst)))):
        d = min(r, rem // (1 << j))
        rem -= d * (1 << j)
        b.insert(0, d)
    return pack_fields(b, _ssm_widths(inst))


# ---------------------------------------------------------------------------
# standard ILP -> monotone ILP


def _im_widths(inst):
    return [field_width(len(inst.columns))] * (2 * inst.num_rows)


def _im_columns(inst):
    return tuple(tuple(1 if a == 1 else 0 for a in col) +
                 tuple(1 if a == -1 else 0 for a in col)
                 for col in inst.columns)


def _ref_im_transform(inst, wit):
    m = inst.num_rows
    fields = unpack_fields(wit, _im_widths(inst)) if m else ()
    b_pos, b_neg = fields[:m], fields[m:]
    # each row total is at most the row's +1 (b_pos) or -1 (b_neg) entries
    if any(v > r for v, r in zip(fields, _im_reach(inst))) or \
            any(bp - bn != b for bp, bn, b in zip(b_pos, b_neg, inst.rhs)):
        return _REF_MONOTONE_NO
    return I.IlpInstance(_im_columns(inst), tuple(b_pos) + tuple(b_neg),
                         "monotone")


def _ref_im_valid(inst, within_reach=True):
    """Every witness whose (b_pos, b_neg) per row, each in [0, n], differ
    by the row's rhs, row 0 in the outermost loop, each b_pos decreasing
    (widest first); when ``within_reach``, only those whose every field is
    at most its reach (the transform rejects the rest)."""
    m = inst.num_rows
    n = len(inst.columns)
    if m == 0:
        yield Witness.zero(0)
        return
    most = _im_reach(inst) if within_reach else [n] * (2 * m)
    per_row = []
    for j, b in enumerate(inst.rhs):
        opts = [(bp, bp - b) for bp in reversed(range(most[j] + 1))
                if 0 <= bp - b <= most[m + j]]
        if not opts:
            return
        per_row.append(opts)
    widths = _im_widths(inst)
    for combo in product(*per_row):
        yield pack_fields(tuple(bp for bp, _ in combo) +
                          tuple(bn for _, bn in combo), widths)


def _ref_im_canonical(inst):
    # the widest accepted witness: per row, the accepted (b_pos, b_neg)
    # with the largest fields, found by search; when some row has none,
    # the narrowest fields in range
    m, n = inst.num_rows, len(inst.columns)
    reach = _im_reach(inst)
    rows = [[(bn + b, bn) for bn in range(reach[m + j] + 1)
             if 0 <= bn + b <= reach[j]] for j, b in enumerate(inst.rhs)]
    if all(rows):
        b_pos, b_neg = zip(*map(max, rows)) if m else ((), ())
    else:
        b_pos = tuple(min(max(b, 0), n) for b in inst.rhs)
        b_neg = tuple(min(max(-b, 0), n) for b in inst.rhs)
    return pack_fields(tuple(b_pos) + tuple(b_neg), _im_widths(inst))


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
    # a machine with no vectors, or with a counter that no run can give
    # any count, has one witness of 0 bits
    if not inst.vectors or not all(_ref_cps_counts(inst)):
        return 0
    return sum(_cps_widths(inst))


def _ref_cps_counts(inst):
    """Per counter j, the counts c an accepting run can give it, by brute
    force: along a run counter j steps 0, 1, 0, ..., so c is the size of a
    subset of the vectors touching j that holds every REQUIRED one and
    whose entries at j, in index order, read +1, -1, +1, -1, ..., -1."""
    out = []
    for j in range(inst.dimension):
        touching = [i for i, v in enumerate(inst.vectors) if v[j] != 0]
        required = {i for i in touching if inst.flags[i] == I.REQUIRED}
        out.append([
            c for c in range(len(touching) + 1)
            if any(required <= set(sub)
                   and [inst.vectors[i][j] for i in sub] == [1, -1] * (c // 2)
                   for sub in combinations(touching, c))])
    return out


def _ref_cps_interval_counts(inst):
    """Per counter j, the counts the interval rule allows: even, at least
    the REQUIRED vectors touching j and at most twice the smaller of the
    vectors with +1 and with -1 at j.  Looser than the alternating rule."""
    out = []
    for j in range(inst.dimension):
        col = [v[j] for v in inst.vectors]
        req = sum(1 for b, f in zip(col, inst.flags)
                  if f == I.REQUIRED and b != 0)
        out.append([c for c in range(0, len(col) + 1, 2)
                    if req <= c <= 2 * min(col.count(1), col.count(-1))])
    return out


def _ref_cps_paper_target(inst, wit):
    """The target under the paper's rule, which rejects only a count above
    n: a witness the count rule rejects may still get a real target here."""
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


def _ref_cps_transform(inst, wit):
    if inst.vectors:
        allowed = _ref_cps_counts(inst)
        if not all(allowed) or any(
                c not in ok for c, ok in zip(
                    unpack_fields(wit, _cps_widths(inst)), allowed)):
            return I.trivial_instance("group_subset_sum", False,
                                      group=I.SymmetricGroup(2))
    return _ref_cps_paper_target(inst, wit)


def _ref_cps_valid(inst):
    if not inst.vectors:
        yield Witness.zero(0)
        return
    for counts in product(*_ref_cps_counts(inst)):
        yield pack_fields(counts, _cps_widths(inst))


def _runs(inst):
    """Every index set, as a sorted tuple, that holds each REQUIRED vector
    and whose vectors in index order are a run: each vector in turn is
    taken, when the counters stay in {0, 1}, or passed over, when it is
    OPTIONAL."""
    found = []

    def extend(i, chosen, state):
        if i == len(inst.vectors):
            if not any(state):
                found.append(chosen)
            return
        nxt = tuple(map(sum, zip(state, inst.vectors[i])))
        if set(nxt) <= {0, 1}:
            extend(i + 1, chosen + (i,), nxt)
        if inst.flags[i] == I.OPTIONAL:
            extend(i + 1, chosen, state)

    extend(0, (), (0,) * inst.dimension)
    return found


CPS_GRIDS = ((1, 5), (2, 3), (3, 2))


def test_cps_transform_rejects_exactly_the_unlisted_witnesses():
    # the count rule is exact: a witness maps to the declared no constant
    # if and only if ``valid_witnesses`` does not list it
    red = REDUCTIONS["cm-to-permss"]
    machines = 0
    for dim, n in CPS_GRIDS:
        for inst in cm_grid(dim, n):
            machines += 1
            valid = list(red.valid_witnesses(inst))
            assert valid == list(_ref_cps_valid(inst))
            listed = set(valid)
            for wit in all_witnesses(red.witness_len(inst)):
                assert (red.transform(inst, wit) is pipeline._PERM_NO) == \
                    (wit not in listed), (inst, wit)
    assert machines == 9331 + 6175 + 2971


def test_cps_fixed_no_is_exactly_a_counter_with_no_count():
    # a machine's layout answers its witness with the no constant, with no
    # decoding, exactly when some counter allows no count, which is exactly
    # when no witness is listed; such a machine has one witness of 0 bits,
    # which maps to the no constant, and no accepting run (by brute force,
    # without the oracle); any other machine with vectors has one field per
    # counter, and a witness of 0 bits exactly when its layout fixes the target
    red = REDUCTIONS["cm-to-permss"]
    families = [partial(cm_grid, dim, n) for dim, n in CPS_GRIDS]
    machines = fixed_no = 0
    for family in families + [cm_contract_family]:
        for inst in family():
            machines += 1
            lay = pipeline._cps_layout(inst)
            assert (red.witness_len(inst) == 0) == (lay.fixed is not None), \
                inst
            if not inst.vectors:
                continue
            empty = not all(_ref_cps_counts(inst))
            assert (lay.fixed is pipeline._PERM_NO) == empty, inst
            assert (lay.fixed is pipeline._PERM_NO) == \
                (next(red.valid_witnesses(inst), None) is None), inst
            assert lay.fixed in (None, pipeline._PERM_NO)
            assert red.witness_len(inst) == \
                (0 if empty else sum(_cps_widths(inst)))
            if empty:
                fixed_no += 1
                assert not _runs(inst), inst
                assert red.transform(inst, Witness.zero(0)) is \
                    pipeline._PERM_NO
    assert (machines, fixed_no) == (18477 + 17906, 24744)


def test_cps_layout_refuses_an_entry_outside_minus_one_to_one():
    # the scan reads an entry other than 0 and 1 as -1, and a fixed no
    # builds no element, so the entries are checked before either: with a
    # REQUIRED vector alone the counter allows no count, and with two
    # OPTIONAL ones it allows 0
    red = REDUCTIONS["cm-to-permss"]
    for bad in (2, -2, 0.5, "1", None, [1]):
        for inst in (I.CounterMachineInstance(1, ((bad,),), (I.REQUIRED,)),
                     I.CounterMachineInstance(1, ((1,), (bad,)),
                                              (I.OPTIONAL, I.OPTIONAL))):
            with pytest.raises(ValidationError, match=r"entries must be in"):
                red.witness_len(inst)


def test_cps_rule_drops_only_targets_that_solve_no():
    # a count vector the count rule rejects and the paper's rule (or the
    # looser interval rule) keeps has a target that solves no: the sweep
    # loses no check of the group construction.  Every count vector at the
    # field widths is tried; a fixed no, whose one witness has 0 bits,
    # rejects them all
    red = REDUCTIONS["cm-to-permss"]
    dropped = 0
    for dim, n in ((1, 4), (2, 2)):
        for inst in cm_grid(dim, n):
            if not inst.vectors:
                continue
            fixed = red.witness_len(inst) == 0
            for wit in all_witnesses(sum(_cps_widths(inst))):
                if not fixed and \
                        red.transform(inst, wit) is not pipeline._PERM_NO:
                    continue
                old = _ref_cps_paper_target(inst, wit)
                if old.kind == "group_subset_sum" and old.elements:
                    dropped += 1
                assert not solve(old).answer, (inst, wit)
    assert dropped > 0
    narrowed = 0
    for dim, n in ((2, 3), (3, 2)):
        for inst in cm_grid(dim, n):
            if not inst.vectors:
                continue
            exact, loose = _ref_cps_counts(inst), \
                _ref_cps_interval_counts(inst)
            assert all(set(e) <= set(lo) for e, lo in zip(exact, loose))
            if exact == loose:
                continue
            listed = set(red.valid_witnesses(inst))
            for counts in product(*loose):
                wit = pack_fields(counts, _cps_widths(inst))
                if wit not in listed:
                    narrowed += 1
                    assert not solve(_ref_cps_paper_target(inst, wit)).answer
    assert narrowed > 0


def test_cps_rule_is_exact_at_dimension_one():
    # one counter: the alternating rule is the whole acceptance condition,
    # so a machine has a listed witness iff it is a yes-instance, and every
    # listed witness's target solves yes
    red = REDUCTIONS["cm-to-permss"]
    yes_targets = 0
    for inst in cm_grid(1, 5):
        valid = list(red.valid_witnesses(inst))
        assert bool(valid) == solve(inst).answer, inst
        if not inst.vectors:
            continue
        for wit in valid:
            assert solve(red.apply(inst, wit)).answer, (inst, wit)
            yes_targets += 1
    assert yes_targets == 4055


def test_every_run_synthesizes_an_accepted_witness():
    # each brute-force solution of a small yes-machine synthesizes a
    # witness the count rule accepts and whose target solves yes
    red = REDUCTIONS["cm-to-permss"]
    solutions = 0
    for dim, n in CPS_GRIDS:
        for inst in cm_grid(dim, n):
            runs = _runs(inst)
            assert solve(inst).answer == bool(runs), inst
            if not inst.vectors:
                continue
            listed = set(red.valid_witnesses(inst))
            for sol in runs:
                wit = red.synthesize(inst, sol)
                assert wit in listed, (inst, sol)
                tgt = red.apply(inst, wit)
                assert tgt is not pipeline._PERM_NO and solve(tgt).answer
                solutions += 1
    assert solutions > 0


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


def _excess(name, inst, wit):
    """Each decoded field minus its reach, in the layout's field order
    (field 0 is the most significant): the packed reach test passes a
    witness whose excesses are all <= 0."""
    if name == "ilp-to-monotone":
        widths, reach = _im_widths(inst), _im_reach(inst)
    else:
        widths, reach = _ssm_widths(inst), _ssm_reach(inst)
    fields = unpack_fields(wit, widths) if widths else ()
    return [f - r for f, r in zip(fields, reach)]


# Witnesses the field check rejects.  The first of each has a field past
# its reach, which the packed reach test rejects; the second passes that
# test too, so the decode behind it runs on every run.
PACKED_BUT_REJECTED = {
    "ilp-to-monotone": (
        # b_pos (1, 0), b_neg (0, 7): 1 - 0 != 0; no column has a -1, so
        # b_neg of row 1 is past its reach
        (I.IlpInstance(((1, 1),) * 7, (0, 1)), Witness(0x207, 12)),
        # the same fields, with seven -1 entries in row 1
        (I.IlpInstance(((1, -1),) * 7, (0, 1)), Witness(0x207, 12)),
    ),
    "ss-to-monotone": (
        # digits b = (0, 0, 5): 5 * 4 != 5, and no item has bit 2, so b_2
        # is past its reach
        (I.SubsetSumInstance((1, 2, 3), 5), Witness(5, 9)),
        # the same digits, with five items 4 <= 5
        (I.SubsetSumInstance((4,) * 5, 5), Witness(5, 9)),
    ),
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
            got, want = red.apply(inst, wit), ref_transform(inst, wit)
            assert got == want, wit
            if want is _REF_MONOTONE_NO:
                # the sweep knows the declared constant by identity
                assert got is _MONOTONE_NO, wit
        for bad in (length - 1, length + 1):
            if bad >= 0:
                with pytest.raises(ReductionError):
                    red.apply(inst, Witness.zero(bad))
        assert list(islice(red.valid_witnesses(inst), 5000)) == \
            list(islice(ref_valid(inst), 5000))
        if ref_canonical is not None:
            # the widest accepted witness is listed first; with none
            # listed, every witness, the zero one a chain then sizes its
            # slot from too, maps to the reject constant
            first = next(red.valid_witnesses(inst), None)
            if first is not None:
                assert first == ref_canonical(inst)
            else:
                for wit in (ref_canonical(inst), Witness.zero(length)):
                    assert ref_transform(inst, wit) is _REF_MONOTONE_NO

    @settings(max_examples=150, deadline=None)
    @given(instances, instances,
           st.lists(st.integers(0, 1 << 30), max_size=64))
    def check(a, b, values):
        # A, B, A, then an equal but distinct copy of A: each switch of
        # instance misses the layout's one-instance memo and rebuilds it
        for inst in (a, b, a, dataclasses.replace(a)):
            agree(inst, values)

    check()
    if name in PACKED_BUT_REJECTED:
        passes_reach = []
        for inst, wit in PACKED_BUT_REJECTED[name]:
            passes_reach.append(max(_excess(name, inst, wit)) <= 0)
            assert ref_transform(inst, wit) is _REF_MONOTONE_NO
            assert red.apply(inst, wit) is _MONOTONE_NO
            agree(inst, [])
        assert passes_reach == [False, True]


# ---------------------------------------------------------------------------
# The packed reach test: per field, a carry out of field + (2^w - 1 - reach).


# An instance per reduction whose witnesses that meet the rhs, within reach
# or not, put a field at its reach, and exactly one field at reach + 1 at
# the top (index 0), at another even index and at an odd index.
REACH_EDGES = {
    # w = 3, reach (3, 1, 0): b = (2, 1, 0) is within reach, and (4, 0, 0),
    # (0, 2, 0) and (0, 0, 1) have one field at reach + 1
    "ss-to-monotone": I.SubsetSumInstance((1, 1, 3), 4),
    # w = 1, reach (0, 0, 0) for b_pos and (1, 1, 1) for b_neg: each row
    # takes b_pos = b_neg = 1 or 0
    "ilp-to-monotone": I.IlpInstance(((-1, -1, -1),), (0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(REACH_EDGES))
def test_packed_reach_test_edges(name):
    _, _, ref_transform, ref_valid, _ = CASES[name]
    red = REDUCTIONS[name]
    inst = REACH_EDGES[name]
    seen = set()
    for wit in ref_valid(inst, within_reach=False):
        excess = _excess(name, inst, wit)
        over = [j for j, e in enumerate(excess) if e > 0]
        got, want = red.apply(inst, wit), ref_transform(inst, wit)
        assert got == want, wit
        if over:
            assert got is _MONOTONE_NO and want is _REF_MONOTONE_NO, wit
        else:
            # decoded and accepted: a valid witness within reach meets the
            # exact check
            assert got is not _MONOTONE_NO, wit
            if 0 in excess:
                seen.add("at reach")
        if len(over) == 1 and excess[over[0]] == 1:
            j = over[0]
            seen.add("top" if j == 0 else ("even", "odd")[j % 2])
    assert seen == {"at reach", "top", "even", "odd"}


def test_packed_reach_test_clamps_a_reach_past_the_field():
    # reach_0 = 5 (five items <= 3 are odd) but a 2-bit field holds 3 at
    # most: the test must pass every b_0, not wrap to a negative addend
    red = REDUCTIONS["ss-to-monotone"]
    inst = I.SubsetSumInstance((1, 1, 1, 1, 3), 3)
    assert (_ssm_reach(inst), _ssm_widths(inst)) == ([5, 1], [2, 2])
    accepted = []
    for wit in all_witnesses(red.witness_len(inst)):
        got, want = red.apply(inst, wit), _ref_ssm_transform(inst, wit)
        assert got == want, wit
        if want is _REF_MONOTONE_NO:
            assert got is _MONOTONE_NO, wit
        else:
            accepted.append(got.rhs)
    assert accepted == [(1, 1), (3, 0)]


# ---------------------------------------------------------------------------
# The valid-witness enumerators of the two ILP-guessing reductions.


def test_ssm_valid_matches_reference_on_every_small_target():
    # every t <= 64, so t = 2^w - 1 and 2^w for each w <= 6, kept or not
    red = REDUCTIONS["ss-to-monotone"]
    for t in range(65):
        inst = I.SubsetSumInstance((1, 2, 3, 5, 8), t)
        assert list(red.valid_witnesses(inst)) == \
            list(_ref_ssm_valid(inst)), t


def test_im_valid_matches_reference_at_every_row_total():
    # rhs of each row in [-n-1, n+1]: a row with rhs = +-n takes one
    # (b_pos, b_neg), and one past it takes none
    red = REDUCTIONS["ilp-to-monotone"]
    columns = ((1, -1, 0), (-1, 1, 1), (1, 1, -1), (0, -1, 1))
    n = len(columns)
    totals = (-n - 1, -n, -n + 1, -1, 0, 1, n - 1, n, n + 1)
    for rhs in product(totals, repeat=3):
        inst = I.IlpInstance(columns, rhs)
        assert list(red.valid_witnesses(inst)) == \
            list(_ref_im_valid(inst)), rhs


# Criterion 01's ILP-guessing rows, and the layout function whose ``reach``
# bounds each row's valid list.
GUESSING_ROWS = {
    "ss-to-monotone": (partial(subset_sums, 5, 8, 40), "_ssm_layout"),
    "ilp-to-monotone": (partial(ilps, "standard", 2, 4), "_im_layout"),
}


def _listing_errors(red, family, most_bits=9):
    """(sources checked, sources whose valid list is not exactly the
    witnesses that ``red.transform`` does not map to the reject constant),
    over the sources of at most ``most_bits`` witness bits."""
    checked = wrong = 0
    for inst in family:
        length = red.witness_len(inst)
        if length > most_bits:
            continue
        checked += 1
        listed = list(red.valid_witnesses(inst))
        every = list(all_witnesses(length))
        decoded = compress(every, map(is_not, map(
            red.transform, repeat(inst), every), repeat(_MONOTONE_NO)))
        wrong += len(set(listed)) != len(listed) or \
            set(listed) != set(decoded)
    return checked, wrong


@pytest.mark.parametrize("name", sorted(GUESSING_ROWS))
def test_valid_list_is_exactly_the_witnesses_within_reach(name):
    # every criterion-01 source of at most 9 witness bits (ss-to-monotone
    # with t <= 7, ilp-to-monotone with m = 1 or n <= 3), all of its
    # witnesses: the list holds each one the transform decodes, once, and
    # nothing else
    family, _ = GUESSING_ROWS[name]
    checked, wrong = _listing_errors(REDUCTIONS[name], family())
    assert (checked, wrong) == \
        ({"ss-to-monotone": 10251, "ilp-to-monotone": 9537}[name], 0)


@pytest.mark.parametrize("name", sorted(GUESSING_ROWS))
def test_valid_list_check_catches_one_field_past_its_reach(name,
                                                           monkeypatch):
    # a planted fault: the enumerator reads field 0's reach one too high,
    # while the transform's packed test keeps the real one
    family, attr = GUESSING_ROWS[name]
    build = getattr(numeric, attr)

    def loose(inst):
        lay = build(inst)
        if not lay.reach:
            return lay
        return dataclasses.replace(lay, reach=(lay.reach[0] + 1,
                                               *lay.reach[1:]))
    monkeypatch.setattr(numeric, attr, loose)
    checked, wrong = _listing_errors(REDUCTIONS[name], family(), 6)
    assert 0 < wrong < checked


def test_ssm_valid_holds_o_k_values_while_it_streams():
    # t = 2^18 + 1 and 2^14 items 2^18 - 1: each digit sum below the top
    # one reaches 2^14, so b_0 has 2^13 choices within reach, and so has
    # each digit above it while what is left of t allows: the walk holds
    # one choice iterator per digit, not a pushed entry per choice, so the
    # first 1,000 witnesses come within 1 MB, and are the reference's
    # first 1,000 (the layout, built first, holds the items' digits)
    red = REDUCTIONS["ss-to-monotone"]
    inst = I.SubsetSumInstance((2 ** 18 - 1,) * 2 ** 14, 2 ** 18 + 1)
    red.witness_len(inst)
    gc.collect()
    tracemalloc.start()
    try:
        first = list(islice(red.valid_witnesses(inst), 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert len(set(first)) == 1000
    for wit in first:
        b = unpack_fields(wit, _ssm_widths(inst))
        assert sum(d << j for j, d in enumerate(b)) == inst.target
    assert first == list(islice(_ref_ssm_valid(inst), 1000))


# ---------------------------------------------------------------------------
# The reach test: a guessed row total above its row's ones is rejected.


def _accepts(red, inst, wit):
    return red.transform(inst, wit) is not _MONOTONE_NO


@pytest.mark.parametrize("name, family, counts", [
    ("ss-to-monotone", lambda: subset_sums(5, 8, 40), (28313, 22527)),
    ("ilp-to-monotone", lambda: ilps("standard", 2, 2), (1247, 291)),
    ("ilp-to-monotone", lambda: ilps("standard", 2, 3), (9402, 1806)),
], ids=["ss-to-monotone", "ilp-to-monotone-2x2", "ilp-to-monotone-2x3"])
def test_first_listed_witness_is_accepted_whenever_some_witness_is(
        name, family, counts):
    # a chain sizes its next slot from the first listed witness's target,
    # so that target must not be the reject constant when a witness's is
    # not; the valid witnesses include every accepted one
    red = REDUCTIONS[name]
    checked = some = 0
    for inst in family():
        checked += 1
        accepted = any(_accepts(red, inst, w)
                       for w in red.valid_witnesses(inst))
        some += accepted
        first = next(red.valid_witnesses(inst), None)
        assert (first is not None and _accepts(red, inst, first)) == accepted
    assert (checked, some) == counts


@pytest.mark.parametrize("spec, family", [
    ("ilp-to-monotone+monotone-to-ss+ss-to-monotone",
     partial(ilps, "standard", 2, 2)),
    ("knapsack-to-ss+ss-to-monotone", partial(knapsacks, 2, 4)),
    ("zq-to-ss+ss-to-monotone", partial(zq_instances, 5, 3)),
    ("ss-to-monotone+monotone-to-ss+ss-to-monotone",
     partial(subset_sums, 3, 4, 10)),
    ("ilp-to-monotone+monotone-to-zerosum+zerosum-to-ilp",
     partial(ilps, "standard", 2, 2)),
    ("ss-to-monotone+monotone-to-zerosum+zerosum-to-ilp",
     partial(subset_sums, 3, 4, 10)),
])
def test_three_link_chains_size_their_slots_for_every_accepted_witness(
        spec, family):
    # the first link's first listed witness is its widest accepted one, so
    # the next slot fits the target of every accepted witness: with the
    # narrowest, ilp-to-monotone's chains met intermediates that want more
    # bits than the slot has (completeness and transform-error violations)
    rep = nppt_contract_check(get_reduction(spec), family())
    assert rep.ok and rep.no_instances, rep.violations[:3]


# Criterion 01's source families, by kind: a reduction, or a chain, reads
# the family of its source kind, the members whose variant it reads.
_SOURCE_FAMILIES = {
    "subset_sum": partial(subset_sums, 5, 8, 40),
    "knapsack": partial(knapsacks, 3, 6),
    "ilp": lambda: (inst for variant in ("monotone", "zero_sum", "standard")
                    for inst in ilps(variant, 2, 4)),
    "group_subset_sum": partial(zq_instances, 8, 4),
}


def _composed(first, second):
    """``compose(first, second)``, or None where it refuses the pair."""
    try:
        return compose(first, second)
    except ReductionError:
        return None


def _narrower_first(first, nexts, most=1000, bits=10):
    """(source and next-link pairs checked, the names of the reductions of
    ``nexts`` for which the target of some witness ``first`` lists needs
    more bits than its first listed witness's target), over the first
    ``most`` sources of ``first``'s family with at most ``bits`` witness
    bits; a source that lists nothing is not checked."""
    def small(inst):
        try:
            first.check_source(inst)
        except ReductionError:
            return False
        return first.witness_len(inst) <= bits
    checked, narrower = 0, set()
    for inst in islice(filter(small, _SOURCE_FAMILIES[first.source_kind]()),
                       most):
        targets = [first.transform(inst, wit)
                   for wit in first.valid_witnesses(inst)]
        for second in nexts if targets else ():
            widths = [second.witness_len(tgt) for tgt in targets]
            checked += 1
            if max(widths) > widths[0]:
                narrower.add(second.name)
    return checked, narrower


def test_each_list_starts_with_a_widest_witness_for_every_next_link():
    # ``compose`` sizes its slot from the first link's first listed
    # witness, so that witness's target must need the most bits of the next
    # link among the listed witnesses' targets: checked for each reduction
    # of the catalog and each two-link chain of them (the ILP-guessing
    # widths matter only behind monotone-to-ss) whose source kind has a
    # criterion-01 family, followed by each reduction that ``compose``
    # accepts after it.  No order of one link's list can serve every chain:
    # behind ss-to-knapsack, knapsack-to-ss wants no bits for a target past
    # the items' sum (a fixed no) and the most just below it, while
    # ss-to-monotone behind zq-to-ss wants the largest total, so the two
    # chains through ss-to-knapsack break the rule, as their three-link
    # chains show (completeness violations: the slot is too narrow)
    singles = list(REDUCTIONS.values())
    firsts = singles + [pair for a in singles for b in singles
                        if (pair := _composed(a, b)) is not None]
    checked, narrower = 0, set()
    for first in firsts:
        if first.source_kind in _SOURCE_FAMILIES:
            nexts = [second for second in singles
                     if _composed(first, second) is not None]
            got, names = _narrower_first(first, nexts)
            checked += got
            narrower |= {(first.name, name) for name in names}
    assert narrower == {
        ("knapsack-to-ss+ss-to-knapsack", "knapsack-to-ss"),
        ("zq-to-ss+ss-to-knapsack", "knapsack-to-ss")}
    assert checked == 121783


def test_widest_first_check_catches_a_list_in_increasing_order():
    # a planted fault: zq-to-ss lists its totals least first, so the first
    # target is the narrowest for ss-to-monotone on every source with two
    # totals of different widths
    red = REDUCTIONS["zq-to-ss"]
    increasing = dataclasses.replace(red, valid_witnesses=lambda inst: iter(
        sorted(red.valid_witnesses(inst))))
    second = REDUCTIONS["ss-to-monotone"]
    assert _narrower_first(red, [second]) == (990, set())
    assert _narrower_first(increasing, [second]) == (990, {second.name})


def _target_without_reach(name, inst, wit):
    """The target the transform built before the reach test, or None for
    a witness that fails the other checks as well."""
    if name == "ss-to-monotone":
        b = unpack_fields(wit, _ssm_widths(inst)) if inst.target else ()
        if sum(d << j for j, d in enumerate(b)) != inst.target:
            return None
        return I.IlpInstance(_ssm_columns(inst), b, "monotone")
    m = inst.num_rows
    fields = unpack_fields(wit, _im_widths(inst)) if m else ()
    if any(v > len(inst.columns) for v in fields) or \
            any(p - q != b for p, q, b in zip(fields, fields[m:], inst.rhs)):
        return None
    return I.IlpInstance(_im_columns(inst), fields, "monotone")


@pytest.mark.parametrize("name, family, rejected", [
    ("ss-to-monotone", lambda: subset_sums(5, 8, 40), 772709),
    ("ilp-to-monotone", lambda: ilps("standard", 2, 4), 341683),
], ids=["ss-to-monotone", "ilp-to-monotone"])
def test_reach_test_rejects_only_targets_the_oracle_answers_range(
        name, family, rejected):
    # on criterion 01's ILP grids, every witness the reach test rejects
    # had a target that the oracle answers no, with method range; the
    # reference's witnesses that meet the rhs, within reach or not, include
    # every witness that passes the other checks
    red = REDUCTIONS[name]
    ref_valid = CASES[name][3]
    count = 0
    for inst in family():
        red.witness_len(inst)
        for wit in ref_valid(inst, within_reach=False):
            if _accepts(red, inst, wit):
                continue
            old = _target_without_reach(name, inst, wit)
            if old is None:
                continue
            count += 1
            got = solve(old)
            assert (got.answer, got.method) == (False, "range"), (inst, wit)
    assert count == rejected


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
    assert (rep.checked, rep.witnesses_checked) == (491, 10452)
    # ss-to-knapsack has no witness bits, so every witness of a source,
    # and its slot sizes, share one intermediate
    assert calls == rep.checked


def test_chain_asks_the_next_link_its_witness_length_once_per_intermediate():
    # the memo keeps the next link's witness length beside the
    # intermediate, so the sweep's transforms do not ask it again
    calls = 0
    second = REDUCTIONS["knapsack-to-ss"]
    witness_len = second.witness_len

    def counting(inst):
        nonlocal calls
        calls += 1
        return witness_len(inst)

    red = chain(REDUCTIONS["ss-to-knapsack"],
                dataclasses.replace(second, witness_len=counting))
    calls = 0
    rep = nppt_contract_check(red, subset_sums(3, 5, 10), exhaustive_cap=8)
    assert (rep.checked, rep.witnesses_checked) == (491, 10452)
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
        assert l2p <= l2
        return second.apply(mid, Witness(wit.value & ((1 << l2p) - 1), l2p))

    a, b = I.SubsetSumInstance((1, 2), 3), I.SubsetSumInstance((2, 3), 5)
    for inst in (a, b, a, dataclasses.replace(a)):
        wits = list(all_witnesses(red.witness_len(inst)))
        assert 1 < len(wits) <= 1 << 12
        for wit in reversed(wits):
            assert red.apply(inst, wit) == ref(inst, wit), wit


def test_chain_reports_a_synthesized_witness_with_a_no_intermediate():
    # a first link whose synthesizer picks a witness with a no intermediate:
    # the chain's synthesis refuses it, and the sweep reports the source's
    # completeness violation with the chain's message
    first, second = REDUCTIONS["ss-to-monotone"], REDUCTIONS["monotone-to-ss"]
    planted = []

    def to_no(inst, sol):
        # the first rejected witness, else the real one
        wit = next((wit for wit in all_witnesses(first.witness_len(inst))
                    if first.transform(inst, wit) is _MONOTONE_NO), None)
        planted.append(wit is not None)
        return first.synthesize(inst, sol) if wit is None else wit

    red = chain(dataclasses.replace(first, synthesize=to_no), second)
    rep = nppt_contract_check(red, subset_sums(2, 3, 6))
    assert len(planted) == rep.yes_instances
    assert 0 < len(rep.violations) == sum(planted) < rep.yes_instances
    for got in rep.violations:
        assert got["kind"] == "completeness"
        assert got["error"] == \
            "ss-to-monotone: synthesized witness produced a no-instance"


# An exhaustively swept no-instance per reduction whose transform reads its
# layout memo inline, and the module function that builds that layout.
INLINE_LAYOUT_CASES = {
    # t = 7 (3 digit sums of 3 bits): 512 witnesses
    "ss-to-monotone": (numeric, "_ssm_layout",
                       I.SubsetSumInstance((2, 4), 7), 9),
    # x2 = -1 cannot hold: 4 fields of 2 bits
    "ilp-to-monotone": (numeric, "_im_layout",
                        I.IlpInstance(((1, 0), (0, 1)), (1, -1)), 8),
    # both items fit, but together they pass the capacity
    "knapsack-to-ss": (numeric, "_kss_layout",
                       I.KnapsackInstance(((2, 1), (2, 1)), 3, 2), 4),
    # each counter allows a count (2 and 0), but taking the -1 for counter
    # 0 sends counter 1 below 0: 2 fields of 2 bits
    "cm-to-permss": (pipeline, "_cps_layout", I.CounterMachineInstance(
        2, ((1, 0), (-1, -1), (0, 1)),
        (I.REQUIRED, I.OPTIONAL, I.OPTIONAL)), 4),
}


@pytest.mark.parametrize("name", sorted(INLINE_LAYOUT_CASES))
def test_transform_builds_the_layout_once_per_exhaustive_sweep(
        name, monkeypatch):
    module, attr, inst, length = INLINE_LAYOUT_CASES[name]
    build = getattr(module, attr)
    calls = 0

    def counting(inst):
        nonlocal calls
        calls += 1
        return build(inst)

    monkeypatch.setattr(module, attr, counting)
    rep = nppt_contract_check(
        dataclasses.replace(REDUCTIONS[name], valid_witnesses=None), [inst])
    assert rep.ok and (rep.no_instances, rep.exhaustive) == (1, 1)
    assert rep.witnesses_checked == 1 << length
    # the sweep's ``witness_len`` call builds the layout; every witness's
    # ``transform`` then reads the kept pair without a call
    assert calls == 1


# A second instance per reduction of ``INLINE_LAYOUT_CASES``, with a witness
# of at most 12 bits.
OTHER_SOURCES = {
    "ss-to-monotone": I.SubsetSumInstance((1, 2, 3), 5),
    "ilp-to-monotone": I.IlpInstance(((1, -1), (1, 1), (0, 1)), (1, 0)),
    "knapsack-to-ss": I.KnapsackInstance(((1, 2), (2, 1), (3, 3)), 4, 3),
    "cm-to-permss": I.CounterMachineInstance(
        1, ((1,), (-1,), (0,)), (I.REQUIRED, I.OPTIONAL, I.OPTIONAL)),
}


@pytest.mark.parametrize("name", sorted(INLINE_LAYOUT_CASES))
def test_transform_builds_the_layout_of_an_instance_it_does_not_hold(
        name, monkeypatch):
    # the sweep and ``apply`` take ``witness_len`` first, so only a direct
    # ``transform`` call meets the memo holding another instance
    module, attr, held, _ = INLINE_LAYOUT_CASES[name]
    build, calls = getattr(module, attr), []
    monkeypatch.setattr(module, attr, lambda inst: calls.append(inst) or
                        build(inst))
    red, ref_transform = REDUCTIONS[name], CASES[name][2]
    other = OTHER_SOURCES[name]
    for inst in (other, dataclasses.replace(held)):
        for wit in all_witnesses(red.witness_len(inst)):
            red.witness_len(held)
            del calls[:]
            got = red.transform(inst, wit)
            assert len(calls) == 1 and calls[0] is inst, wit
            assert got == ref_transform(inst, wit) == red.apply(inst, wit)


def test_layout_memo_keeps_only_the_last_source_alive():
    # the scheme layouts are kept per shape too; no shape cache may keep
    # an instance alive
    jobs = ((REDUCTIONS["cm-to-permss"], cm_grid(1, 3), 259),
            (REDUCTIONS["ss-to-monotone"], subset_sums(2, 4, 8), 89),
            (UNBOUNDED_SS_SCHEME.reduction(), unbounded_instances(2, 3, 9),
             100),
            (ZKK_SCHEME.reduction(), zkk_instances(2, 2), 84))
    for red, instances, checked in jobs:
        refs = []

        def family():
            for inst in instances:
                refs.append(weakref.ref(inst))
                yield inst

        rep = nppt_contract_check(red, family())
        assert rep.ok and rep.checked == len(refs) == checked
        gc.collect()
        assert [r() is None for r in refs] == \
            [True] * (checked - 1) + [False], red.name
