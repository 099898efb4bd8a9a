"""Reductions between the arithmetic problem kinds.

Covers the equivalence chain: subset sum <-> knapsack, subset sum <->
monotone 0-1 ILP, monotone -> zero-sum ILP -> standard ILP -> monotone,
and subset sum <-> cyclic-group subset sum, plus the Graver-minimal
binary-counter vector sequence the zero-sum construction relies on.

Witness layouts use :mod:`redkit.witness` fixed-width fields; structurally
invalid witnesses map to fixed trivial no-instances so that exhaustive
contract checks can cover the invalid stratum with a single probe.  A
reduction whose witness has several fields computes the instance's layout
once (length, widths, shifts and mask, plus the parts of the target that do
not depend on the witness) and keeps it with ``instances.layout_cache``
(which says what it holds); ``transform``, ``witness_len``, ``synthesize``
and the enumerators read that layout, a frozen dataclass with slots, so
that each field is read as a slot.  ``transform``, called once per
witness, reads the kept pair inline (``<layout>.last``) and calls the
layout function only for another instance, then decodes ``wit.value`` with
its shifts and masks.  Targets are built from plain tuples, which their constructors neither copy
nor store again.  Each valid list puts a widest accepted witness first, as
``reductions.compose`` reads it: knapsack-to-ss, ilp-to-monotone and
zq-to-ss count their guesses down, and ss-to-monotone's first value is its
greedy one (see ``_ssm_values``).

ss-to-monotone and ilp-to-monotone share one row-guessing layout: each
witness field guesses one row total of a monotone 0-1 target whose columns
do not depend on the witness (for ss-to-monotone a row per binary digit of
t and a column per item <= t, for ilp-to-monotone the +1 rows and then the
-1 rows of the source and a column per source column).  ``_guess_layout``
builds it from those 0/1 columns, the field count and the field width, and
``_row_sums`` sums the columns' rows into each row's reach, its ones; the
synthesizers apply it to the chosen columns.  Both reductions reject most
witnesses of a no-instance, so each transform first tests the packed value
``v`` and returns its fixed no-instance without decoding a field when the
test fails; a witness that passes is decoded and checked field by field,
so the test changes no target.  The test is the reach test: each guessed
row total is at most its reach.  A total above its reach makes a target
that ``kernels.ilp_rhs_code`` answers no (method ``range``), so the fixed
no-instance changes no verdict, and the sweep skips it without a solve.
It runs on ``v`` with two (mask, addend, carry) triples built once per
layout: the mask keeps the even-index (or the odd-index) fields, each of
which then has a zeroed field above it, the addend puts
``2^w - 1 - min(reach_j, 2^w - 1)`` on field j, and the sum sets the carry
bit just above field j exactly when field j exceeds its reach.

Both list exactly the witnesses the transform decodes, those whose every
field is within its reach and that meet the rhs, as packed values fed to
``witness.witnesses``, with no Python step per witness; the packed test
stays in the transforms for the probes and the exhaustive sweeps.
ilp-to-monotone's are ``map(sum, product(...))`` over one ``range`` per
row, since a row's packed (b_pos, b_neg) is linear in b_pos: b_pos from
the least of its reach and b_neg's reach plus rhs_j down to max(0, rhs_j).
ss-to-monotone's are a walk over the ``k = t.bit_length()`` digits, each
b_j at most its reach and leaving no more of t than the digits above it
can cover; the digits above the last one with a nonzero reach are 0.  It
keeps an explicit stack of one choice iterator per digit below the last
two and yields one clipped ``range`` per choice of those digits, so it
holds O(k) values however many it yields: for t = 2^18 + 1 over 2^14
items 2^18 - 1 (2^13 choices of b_0) its first 1,000 take under 1 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import lshift, sub

from . import instances as I
from .errors import ConstructionError, ReductionError
from .reductions import Reduction, deterministic
from .witness import Witness, field_width, pack_fields, witnesses

# Fixed targets of guard cases and rejected witnesses, built once.
_SS_YES = I.trivial_instance("subset_sum", True)
_SS_NO = I.trivial_instance("subset_sum", False)
_MONOTONE_NO = I.trivial_instance("ilp", False, variant="monotone")
_STANDARD_NO = I.trivial_instance("ilp", False, variant="standard")
_ZERO_SUM_YES = I.trivial_instance("ilp", True, variant="zero_sum")
_ZERO_SUM_NO = I.trivial_instance("ilp", False, variant="zero_sum")
_ZQ_YES = I.trivial_instance("group_subset_sum", True)
_ZQ_NO = I.trivial_instance("group_subset_sum", False)

# ---------------------------------------------------------------------------
# Base-w digit encoding.


def encode_base(digits, base: int) -> int:
    """Digits are least-significant first; values may reach base-1 at most."""
    acc = 0
    for d in reversed(list(digits)):
        if not 0 <= d < base:
            raise ConstructionError(f"digit {d} out of range for base {base}")
        acc = acc * base + d
    return acc


# ---------------------------------------------------------------------------
# Graver-minimal vector sequence (binary counter construction).


def graver_sequence(k: int) -> tuple[tuple[int, ...], ...]:
    """Length-2^k sequence over {-1,0,1}^k: zero total sum, no proper
    nonempty subsequence summing to zero.  Coordinate 0 is the least
    significant counter bit.  Vectors 1..2^k-1 are the increment steps of a
    k-bit counter counting 0 -> 2^k - 1; the last vector is all minus-ones.
    """
    if k < 1:
        raise ConstructionError("graver_sequence requires k >= 1")
    out = []
    for c in range(1, 1 << k):
        prev, cur = c - 1, c
        vec = [0] * k
        for j in range(k):
            a, b = (prev >> j) & 1, (cur >> j) & 1
            if a != b:
                vec[j] = 1 if b else -1
        out.append(tuple(vec))
    out.append(tuple([-1] * k))
    return tuple(out)


def graver_check(vectors, k: int, subset_cap: int = 1 << 16) -> list[str]:
    """Exhaustively verify the three defining properties (entries in range
    and length are reported too).  Subset loops beyond ``subset_cap`` are
    refused rather than silently truncated."""
    violations = []
    n = len(vectors)
    if n != 1 << k:
        violations.append(f"length {n} != 2^{k}")
    for i, v in enumerate(vectors):
        if len(v) != k or any(c not in (-1, 0, 1) for c in v):
            violations.append(f"vector {i} outside {{-1,0,1}}^{k}")
    if any(sum(v[j] for v in vectors) != 0 for j in range(k)):
        violations.append("total sum is not zero")
    if 1 << n > subset_cap:
        raise ConstructionError("subset enumeration over cap")
    for mask in range(1, (1 << n) - 1):
        total = [0] * k
        for i in range(n):
            if mask >> i & 1:
                for j in range(k):
                    total[j] += vectors[i][j]
        if all(c == 0 for c in total):
            violations.append(f"proper nonempty zero subsequence mask={mask:#x}")
    return violations


# ---------------------------------------------------------------------------
# Subset sum -> knapsack (sizes equal weights).


def _ssk_transform(inst, wit):
    items = tuple((p, p) for p in inst.items if p >= 1)
    return I.KnapsackInstance(items, inst.target, inst.target)


red_ss_to_knapsack = deterministic(
    "ss-to-knapsack", "subset_sum", "knapsack", _ssk_transform,
    source_variant="plain")


# ---------------------------------------------------------------------------
# Knapsack -> subset sum (two-track base-W encoding, guessed totals).


@dataclass(frozen=True, slots=True)
class _KssLayout:
    fixed: object       # the target of a guard case, None in the main case
    length: int         # witness bits: capacity guess, then demand offset
    widths: tuple
    shift: int          # capacity guess = value >> shift
    mask: int           # demand offset = value & mask
    base: int           # W: size and weight tracks are base-W digits
    items: tuple        # the target's items, size * W + weight


@I.layout_cache
def _kss_layout(inst) -> _KssLayout:
    t, w = inst.capacity, inst.demand
    kept = [(p, wi) for p, wi in inst.items if p <= t]
    if w == 0 or any(wi > w for _, wi in kept):
        return _KssLayout(_SS_YES, 0, (), 0, 0, 0, ())
    if sum(wi for _, wi in kept) < w:
        return _KssLayout(_SS_NO, 0, (), 0, 0, 0, ())
    base = len(kept) * w + 1
    wt, ww = field_width(t), field_width(base - 1 - w)
    return _KssLayout(None, wt + ww, (wt, ww), ww, (1 << ww) - 1, base,
                      tuple(p * base + wi for p, wi in kept))


_KSS_LAST = _kss_layout.last


def _kss_transform(inst, wit):
    held, lay = _KSS_LAST[0]
    if inst is not held:
        lay = _kss_layout(inst)
    if lay.fixed is not None:
        return lay.fixed
    v = wit.value
    t_guess = v >> lay.shift
    w_guess = inst.demand + (v & lay.mask)
    if t_guess > inst.capacity or w_guess >= lay.base:
        return _SS_NO
    return I.SubsetSumInstance(lay.items, t_guess * lay.base + w_guess)


def _kss_synthesize(inst, sol):
    lay = _kss_layout(inst)
    if lay.fixed is _SS_YES:
        return Witness.zero(0)
    if lay.fixed is _SS_NO:
        raise ReductionError("cannot synthesize for a no-instance")
    chosen = set(sol)
    t_sum = sum(inst.items[i][0] for i in chosen)
    w_sum = sum(inst.items[i][1] for i in chosen)
    return pack_fields((t_sum, w_sum - inst.demand), lay.widths)


def _kss_valid(inst):
    lay = _kss_layout(inst)
    if lay.fixed is not None:
        return iter((Witness.zero(0),))
    # each capacity guess, then each demand offset below 2^shift, largest first
    span = lay.base - inst.demand
    heads = range(inst.capacity << lay.shift, -1, -1 << lay.shift)
    return witnesses(chain.from_iterable(range(h + span - 1, h - 1, -1)
                                         for h in heads), lay.length)


red_knapsack_to_ss = Reduction(
    name="knapsack-to-ss",
    source_kind="knapsack",
    target_kind="subset_sum",
    witness_len=lambda inst: _kss_layout(inst).length,
    transform=_kss_transform,
    synthesize=_kss_synthesize,
    valid_witnesses=_kss_valid,
    constants=(_SS_YES, _SS_NO),
)


# ---------------------------------------------------------------------------
# Row guessing: ss-to-monotone and ilp-to-monotone guess each row total of
# one monotone 0-1 target, within that row's reach.


@dataclass(frozen=True, slots=True)
class _GuessLayout:
    length: int         # witness bits: one guessed total per row
    widths: tuple
    shifts: tuple       # shift of row j's total: (fields - 1 - j) * width
    mask: int
    columns: tuple      # the target's 0/1 columns
    reach: tuple        # row j's ones over the columns: its total's most
    over: tuple         # the packed reach test's (mask, addend, carry)
                        # triples, for the even-index then the odd-index rows


def _row_sums(columns, fields):
    """Each row's total over 0/1 ``columns`` of ``fields`` rows, summed
    column by column in C."""
    return tuple(map(sum, zip(*columns))) if columns else (0,) * fields


def _guess_layout(columns, fields, width) -> _GuessLayout:
    top = (1 << width) - 1
    shifts = tuple(range((fields - 1) * width, -1, -width))
    reach = _row_sums(columns, fields)
    over = []
    for first in (0, 1):
        mask = addend = carry = 0
        for j in range(first, fields, 2):
            shift = shifts[j]
            mask |= top << shift
            # a field fits ``width`` bits, so a reach past ``top`` never
            # carries: clamped, not a negative addend
            addend |= (top - min(reach[j], top)) << shift
            carry |= 1 << shift + width
        over += (mask, addend, carry)
    return _GuessLayout(fields * width, (width,) * fields, shifts, top,
                        columns, reach, tuple(over))


# ---------------------------------------------------------------------------
# Subset sum -> monotone ILP (guessed digit sums of the target).


def _bits(items, t):
    """The binary digits of each of ``items`` <= t, least significant first,
    one per digit of t."""
    digits = range(t.bit_length())
    return tuple([tuple([(p >> j) & 1 for j in digits])
                  for p in items if p <= t])


@I.layout_cache
def _ssm_layout(inst) -> _GuessLayout:
    # one row per binary digit of t, one column per item <= t
    t = inst.target
    return _guess_layout(_bits(inst.items, t), t.bit_length(), field_width(t))


_SSM_LAST = _ssm_layout.last


def _ssm_transform(inst, wit):
    held, lay = _SSM_LAST[0]
    if inst is not held:
        lay = _ssm_layout(inst)
    v = wit.value
    # the packed reach test of the module docstring: an accepted witness
    # passes it
    em, ea, ec, om, oa, oc = lay.over
    if (v & em) + ea & ec or (v & om) + oa & oc:
        return _MONOTONE_NO
    mask = lay.mask
    b = tuple([(v >> shift) & mask for shift in lay.shifts])
    if sum(map(lshift, b, range(len(b)))) != inst.target:
        return _MONOTONE_NO
    return I.IlpInstance(lay.columns, b, "monotone")


def _ssm_synthesize(inst, sol):
    widths = _ssm_layout(inst).widths
    chosen = _bits([inst.items[i] for i in sol], inst.target)
    return pack_fields(_row_sums(chosen, len(widths)), widths)


def _ssm_values(t, lay):
    """The packed values of the digit sums b_j with sum(b_j 2^j) = t and
    each b_j <= reach_j, packed at ``lay``'s shifts, lazily: b_0 in the
    outermost loop, each increasing, so the values increase.

    The first value is the greedy one, widest first: from the top digit
    down, each takes as much of what is left of t as its reach allows.
    With power-of-two digits this meets t whenever some digit sums within
    reach do (any 2^j that lower digits make up can be traded for one more
    digit j), and it puts the most on the top digits."""
    k = t.bit_length()
    reach, shifts = lay.reach, lay.shifts
    # the digits above ``top``, the last with a nonzero reach, are 0
    top = max((j for j, r in enumerate(reach) if r), default=-1)
    if top < 1:
        # t = 0 has no digit; otherwise digit 0, the first field, takes t
        if t == 0:
            return iter((0,))
        if top == 0 and t <= reach[0]:
            return iter((t << shifts[0],))
        return iter(())
    # at digit top-1, b_{top-1} += 2 takes 1 from digit top
    shift_top = shifts[top]
    step = (2 * lay.mask + 1) << shift_top
    # cover[j] = sum(reach_i 2^i for i >= j): the most digits j.. can add
    cover = [0] * (k + 1)
    for j in reversed(range(k)):
        cover[j] = cover[j + 1] + (reach[j] << j)

    def runs():
        # digit j contributes b_j 2^j and the higher digits multiples of
        # 2^(j+1), so b_j has the parity of bit j of rem, is at most its
        # reach, and leaves the higher digits at most what they can cover.
        # stack[j] yields the (rem, acc) left by each choice of digit j-1
        # (stack[0] the start), and the values under one choice of digits
        # 0..top-2 are one range
        stack = [iter(((t, 0),))]
        while stack:
            j = len(stack) - 1
            for rem, acc in stack[-1]:
                h = rem >> j
                lo = max(h & 1, h - (cover[j + 1] >> j))
                hi = min(h, reach[j])
                hi -= (hi ^ h) & 1
                shift = shifts[j]
                if j < top - 1:
                    # b_j = lo, lo + 2, ..., hi: what each leaves of rem,
                    # and acc with b_j at ``shift``, as two ranges
                    stack.append(zip(
                        range(rem - (lo << j), -1, -2 << j),
                        range(acc | lo << shift, acc + (hi + 1 << shift),
                              2 << shift)))
                    break
                start = acc | lo << shift | \
                    (rem - (lo << j)) >> top << shift_top
                yield range(start, start + ((hi - lo) // 2 + 1) * step, step)
            else:
                # digit j-1's choices are spent: back to digit j-2's
                stack.pop()

    return chain.from_iterable(runs())


def _ssm_valid(inst):
    lay = _ssm_layout(inst)
    return witnesses(_ssm_values(inst.target, lay), lay.length)


red_ss_to_monotone = Reduction(
    name="ss-to-monotone",
    source_kind="subset_sum",
    target_kind="ilp",
    witness_len=lambda inst: _ssm_layout(inst).length,
    transform=_ssm_transform,
    synthesize=_ssm_synthesize,
    valid_witnesses=_ssm_valid,
    source_variant="plain",
    target_variant="monotone",
    constants=(_MONOTONE_NO,),
)


# ---------------------------------------------------------------------------
# Monotone ILP -> subset sum (base n+1 positional encoding).


def _mss_transform(inst, wit):
    n = len(inst.columns)
    if any(d > n for d in inst.rhs):
        return _SS_NO
    base = n + 1
    items = tuple(encode_base(col, base) for col in inst.columns)
    return I.SubsetSumInstance(items, encode_base(inst.rhs, base))


red_monotone_to_ss = deterministic(
    "monotone-to-ss", "ilp", "subset_sum", _mss_transform,
    source_variant="monotone", constants=(_SS_NO,))


# ---------------------------------------------------------------------------
# Monotone ILP -> zero-sum ILP (Graver counter gadget).


def _mzs_transform(inst, wit):
    m = inst.num_rows
    if all(d == 0 for d in inst.rhs):
        return _ZERO_SUM_YES
    cols = tuple(c for c in inst.columns if any(c))
    n = len(cols)
    if max(inst.rhs) > n:
        return _ZERO_SUM_NO
    kp = max(max(n, max(inst.rhs), 2) - 1, 1).bit_length()
    ell = 1 << kp
    gr = graver_sequence(kp)
    new_cols = [tuple(c) + (0,) * kp for c in cols]
    for i in range(1, ell + 1):
        b_i = tuple(-1 if i <= inst.rhs[j] else 0 for j in range(m))
        new_cols.append(b_i + gr[i - 1])
    return I.IlpInstance(tuple(new_cols), tuple([0] * (m + kp)), "zero_sum")


red_monotone_to_zerosum = deterministic(
    "monotone-to-zerosum", "ilp", "ilp", _mzs_transform,
    source_variant="monotone", target_variant="zero_sum",
    constants=(_ZERO_SUM_YES, _ZERO_SUM_NO))


# ---------------------------------------------------------------------------
# Zero-sum ILP -> standard ILP (guess one support column).


def _zsi_witness_len(inst):
    n = len(inst.columns)
    return field_width(n - 1) if n else 0


def _zsi_transform(inst, wit):
    n = len(inst.columns)
    if n == 0:
        return _STANDARD_NO
    i = wit.value       # the witness is one field
    if i >= n:
        return _STANDARD_NO
    cols = inst.columns[:i] + inst.columns[i + 1:]
    rhs = tuple(-a for a in inst.columns[i])
    return I.IlpInstance(cols, rhs, "standard")


def _zsi_synthesize(inst, sol):
    for i, x in enumerate(sol):
        if x:
            return pack_fields((i,), [_zsi_witness_len(inst)])
    raise ReductionError("zero-sum solution has empty support")


def _zsi_valid(inst):
    n = len(inst.columns)
    if n == 0:
        return iter((Witness.zero(0),))
    return witnesses(range(n), _zsi_witness_len(inst))


red_zerosum_to_ilp = Reduction(
    name="zerosum-to-ilp",
    source_kind="ilp",
    target_kind="ilp",
    witness_len=_zsi_witness_len,
    transform=_zsi_transform,
    synthesize=_zsi_synthesize,
    valid_witnesses=_zsi_valid,
    source_variant="zero_sum",
    target_variant="standard",
    constants=(_STANDARD_NO,),
)


# ---------------------------------------------------------------------------
# Standard ILP -> monotone ILP (guess positive/negative row totals).


@I.layout_cache
def _im_layout(inst) -> _GuessLayout:
    # rows: b_pos per source row, then b_neg per source row; each column's
    # +1 indicator, then its -1 indicator
    columns = tuple([tuple([1 if a == 1 else 0 for a in col] +
                           [1 if a == -1 else 0 for a in col])
                     for col in inst.columns])
    return _guess_layout(columns, 2 * inst.num_rows,
                         field_width(len(inst.columns)))


_IM_LAST = _im_layout.last


def _im_transform(inst, wit):
    held, lay = _IM_LAST[0]
    if inst is not held:
        lay = _im_layout(inst)
    v = wit.value
    # the packed reach test of the module docstring: an accepted witness
    # passes it
    em, ea, ec, om, oa, oc = lay.over
    if (v & em) + ea & ec or (v & om) + oa & oc:
        return _MONOTONE_NO
    mask = lay.mask
    fields = tuple([(v >> shift) & mask for shift in lay.shifts])
    m = len(inst.rhs)
    if tuple(map(sub, fields[:m], fields[m:])) != inst.rhs:
        return _MONOTONE_NO
    return I.IlpInstance(lay.columns, fields, "monotone")


def _im_synthesize(inst, sol):
    lay = _im_layout(inst)
    chosen = [col for col, x in zip(lay.columns, sol) if x]
    return pack_fields(_row_sums(chosen, len(lay.widths)), lay.widths)


def _im_valid(inst):
    m = inst.num_rows
    if m == 0:
        return iter((Witness.zero(0),))
    lay = _im_layout(inst)
    shifts, reach = lay.shifts, lay.reach
    # row j's packed (b_pos, b_pos - b_j) is linear in b_pos, over the
    # b_pos within its reach with b_pos - b_j in [0, its reach]: one range
    # per row, counting down, so the first value has every field at its most
    per_row = []
    for j, b in enumerate(inst.rhs):
        step = (1 << shifts[j]) + (1 << shifts[m + j])
        lo, hi = max(0, b), min(reach[j], reach[m + j] + b)
        per_row.append(range(hi * step - (b << shifts[m + j]),
                             (lo - 1) * step - (b << shifts[m + j]), -step))
    return witnesses(map(sum, product(*per_row)), lay.length)


red_ilp_to_monotone = Reduction(
    name="ilp-to-monotone",
    source_kind="ilp",
    target_kind="ilp",
    witness_len=lambda inst: _im_layout(inst).length,
    transform=_im_transform,
    synthesize=_im_synthesize,
    valid_witnesses=_im_valid,
    source_variant="standard",
    target_variant="monotone",
    constants=(_MONOTONE_NO,),
)


# ---------------------------------------------------------------------------
# Subset sum -> cyclic group subset sum (modulus n*t).


def _szq_transform(inst, wit):
    t = inst.target
    if t == 0 or t in inst.items:
        return _ZQ_YES
    keep = tuple(p for p in inst.items if 1 <= p < t)
    if len(keep) <= 1:
        return _ZQ_NO
    return I.GroupSubsetSumInstance(I.CyclicGroup(len(keep) * t), keep, t)


red_ss_to_zq = deterministic(
    "ss-to-zq", "subset_sum", "group_subset_sum", _szq_transform,
    source_variant="plain", constants=(_ZQ_YES, _ZQ_NO))


# ---------------------------------------------------------------------------
# Cyclic group subset sum -> subset sum (guess the integer total).


def _zqs_q(inst):
    if not isinstance(inst.group, I.CyclicGroup):
        raise ReductionError("zq-to-ss expects a cyclic-group instance")
    return inst.group.q


def _zqs_witness_len(inst):
    return field_width(len(inst.elements) * _zqs_q(inst))


def _zqs_transform(inst, wit):
    q = _zqs_q(inst)
    n = len(inst.elements)
    t_int = wit.value   # the witness is one field
    if t_int > n * q or t_int % q != inst.target % q:
        return _SS_NO
    return I.SubsetSumInstance(inst.elements, t_int)


def _zqs_synthesize(inst, sol):
    total = sum(inst.elements[i] for i in sol)
    return pack_fields((total,), [_zqs_witness_len(inst)])


def _zqs_valid(inst):
    q = _zqs_q(inst)
    # every total up to n*q fits the witness width; the largest comes first
    top = len(inst.elements) * q
    start = inst.target % q
    return witnesses(range(top - (top - start) % q, start - 1, -q),
                     _zqs_witness_len(inst))


red_zq_to_ss = Reduction(
    name="zq-to-ss",
    source_kind="group_subset_sum",
    target_kind="subset_sum",
    witness_len=_zqs_witness_len,
    transform=_zqs_transform,
    synthesize=_zqs_synthesize,
    valid_witnesses=_zqs_valid,
    constants=(_SS_NO,),
)


NUMERIC_REDUCTIONS = (
    red_ss_to_knapsack,
    red_knapsack_to_ss,
    red_ss_to_monotone,
    red_monotone_to_ss,
    red_monotone_to_zerosum,
    red_zerosum_to_ilp,
    red_ilp_to_monotone,
    red_ss_to_zq,
    red_zq_to_ss,
)
