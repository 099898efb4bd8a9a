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
not depend on the witness) and keeps it with ``witness.layout_cache`` (which
says what it holds); ``transform``, ``witness_len``, ``synthesize`` and the
enumerators read that layout, and ``transform`` decodes ``wit.value`` with
its shifts and masks.  Targets are built from tuples, so their constructors
keep them as they are.

The two reductions that guess per-row totals reject most witnesses of a
no-instance, so each first tests one identity on the packed value ``v``
that every accepted witness satisfies, and returns its fixed no-instance
without decoding a field when it fails; a witness that passes is decoded
and checked field by field, so the test changes no target.  With ``m``
rows, ``k = t.bit_length()`` digits and field width ``w``:

* ilp-to-monotone: ``(v >> m*w) - (v & ((1 << m*w) - 1))`` (the b_pos half
  minus the b_neg half) equals ``sum(rhs_j << (m-1-j)*w)`` whenever
  b_pos - b_neg = rhs row by row;
* ss-to-monotone: with ``M = 2^(w+1) - 1``, ``2^(w+1) = 1 (mod M)`` makes
  digit sum b_j, at bit ``(k-1-j)*w``, count as ``b_j 2^(j+1-k)``, so
  ``(v << (k-1)) % M == sum(b_j 2^j) % M``, and ``v % M`` is
  ``t * 2^(1-k) mod M`` whenever sum(b_j 2^j) = t.
"""

from __future__ import annotations

from itertools import product
from operator import lshift, sub
from typing import NamedTuple

from . import instances as I
from .errors import ConstructionError, ReductionError
from .reductions import Reduction, deterministic
from .witness import Witness, field_width, layout_cache, pack_fields

# Fixed targets of guard cases and rejected witnesses, built once.
_SS_YES = I.trivial_instance("subset_sum", True)
_SS_NO = I.trivial_instance("subset_sum", False)
_MONOTONE_NO = I.trivial_instance("ilp", False, variant="monotone")
_STANDARD_NO = I.trivial_instance("ilp", False, variant="standard")

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
    "ss-to-knapsack", "subset_sum", "knapsack", _ssk_transform)


# ---------------------------------------------------------------------------
# Knapsack -> subset sum (two-track base-W encoding, guessed totals).


class _KssLayout(NamedTuple):
    fixed: object       # the target of a guard case, None in the main case
    length: int         # witness bits: capacity guess, then demand offset
    widths: tuple
    shift: int          # capacity guess = value >> shift
    mask: int           # demand offset = value & mask
    base: int           # W: size and weight tracks are base-W digits
    items: tuple        # the target's items, size * W + weight


@layout_cache
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


def _kss_transform(inst, wit):
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
        yield Witness.zero(0)
        return
    for t_guess in range(inst.capacity + 1):
        head = t_guess << lay.shift
        for w_off in range(lay.base - inst.demand):
            yield Witness(head | w_off, lay.length)


def _kss_canonical(inst):
    lay = _kss_layout(inst)
    if lay.fixed is not None:
        return Witness.zero(0)
    return pack_fields((inst.capacity, lay.base - 1 - inst.demand), lay.widths)


red_knapsack_to_ss = Reduction(
    name="knapsack-to-ss",
    source_kind="knapsack",
    target_kind="subset_sum",
    witness_len=lambda inst: _kss_layout(inst).length,
    transform=_kss_transform,
    synthesize=_kss_synthesize,
    valid_witnesses=_kss_valid,
    canonical_witness=_kss_canonical,
)


# ---------------------------------------------------------------------------
# Subset sum -> monotone ILP (guessed digit sums of the target).


class _SsmLayout(NamedTuple):
    length: int         # witness bits: one digit sum per row
    widths: tuple
    shifts: tuple       # shift of row j's digit sum b_j
    mask: int
    modulus: int        # M = 2^(width+1) - 1
    residue: int        # t * 2^(1-k) mod M: value % M on every accepted witness
    columns: tuple      # the binary digits of each item <= t


@layout_cache
def _ssm_layout(inst) -> _SsmLayout:
    t = inst.target
    k = t.bit_length()
    width = field_width(t)
    modulus = (2 << width) - 1
    return _SsmLayout(
        k * width, (width,) * k,
        tuple((k - 1 - j) * width for j in range(k)), (1 << width) - 1,
        modulus, t * pow(2, 1 - k, modulus) % modulus,
        tuple(tuple((p >> j) & 1 for j in range(k))
              for p in inst.items if p <= t))


def _ssm_transform(inst, wit):
    lay = _ssm_layout(inst)
    v = wit.value
    # the packed test of the module docstring: sum(b_j 2^j) == t implies it
    if v % lay.modulus != lay.residue:
        return _MONOTONE_NO
    mask = lay.mask
    b = tuple([(v >> shift) & mask for shift in lay.shifts])
    # sum(b_j 2^j) == t also bounds every b_j by t
    if sum(map(lshift, b, range(len(b)))) != inst.target:
        return _MONOTONE_NO
    return I.IlpInstance(lay.columns, b, "monotone")


def _ssm_synthesize(inst, sol):
    lay = _ssm_layout(inst)
    chosen = [inst.items[i] for i in sol if inst.items[i] != 0]
    b = tuple(sum((p >> j) & 1 for p in chosen)
              for j in range(len(lay.widths)))
    return pack_fields(b, lay.widths)


def _ssm_valid(inst):
    t = inst.target
    lay = _ssm_layout(inst)
    shifts = lay.shifts
    k = len(shifts)

    def rec(j, rem, acc):
        # digit j contributes b_j * 2^j and the higher digits multiples of
        # 2^(j+1), so b_j has the parity of bit j of rem, and the top digit
        # takes all that is left (at most t)
        if j == k - 1:
            yield Witness(acc | (rem >> j) << shifts[j], lay.length)
            return
        step = 1 << j
        for d in range((rem >> j) & 1, min(t, rem // step) + 1, 2):
            yield from rec(j + 1, rem - d * step, acc | d << shifts[j])

    if k:
        yield from rec(0, t, 0)
    else:
        yield Witness.zero(0)


def _ssm_canonical(inst):
    lay = _ssm_layout(inst)
    b = tuple((inst.target >> j) & 1 for j in range(len(lay.widths)))
    return pack_fields(b, lay.widths)


red_ss_to_monotone = Reduction(
    name="ss-to-monotone",
    source_kind="subset_sum",
    target_kind="ilp",
    witness_len=lambda inst: _ssm_layout(inst).length,
    transform=_ssm_transform,
    synthesize=_ssm_synthesize,
    valid_witnesses=_ssm_valid,
    canonical_witness=_ssm_canonical,
    target_variant="monotone",
)


# ---------------------------------------------------------------------------
# Monotone ILP -> subset sum (base n+1 positional encoding).


def _mss_transform(inst, wit):
    if inst.variant != "monotone":
        raise ReductionError("monotone-to-ss expects a monotone instance")
    n = len(inst.columns)
    if any(d > n for d in inst.rhs):
        return _SS_NO
    base = n + 1
    items = tuple(encode_base(col, base) for col in inst.columns)
    return I.SubsetSumInstance(items, encode_base(inst.rhs, base))


red_monotone_to_ss = deterministic(
    "monotone-to-ss", "ilp", "subset_sum", _mss_transform,
    source_variant="monotone")


# ---------------------------------------------------------------------------
# Monotone ILP -> zero-sum ILP (Graver counter gadget).


def _mzs_transform(inst, wit):
    if inst.variant != "monotone":
        raise ReductionError("monotone-to-zerosum expects a monotone instance")
    m = inst.num_rows
    if all(d == 0 for d in inst.rhs):
        return I.trivial_instance("ilp", True, variant="zero_sum")
    cols = tuple(c for c in inst.columns if any(c))
    n = len(cols)
    if max(inst.rhs) > n:
        return I.trivial_instance("ilp", False, variant="zero_sum")
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
    source_variant="monotone", target_variant="zero_sum")


# ---------------------------------------------------------------------------
# Zero-sum ILP -> standard ILP (guess one support column).


def _zsi_witness_len(inst):
    n = len(inst.columns)
    return field_width(n - 1) if n else 0


def _zsi_transform(inst, wit):
    if inst.variant != "zero_sum":
        raise ReductionError("zerosum-to-ilp expects a zero-sum instance")
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
        yield Witness.zero(0)
        return
    width = _zsi_witness_len(inst)
    for i in range(n):
        yield pack_fields((i,), [width])


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
)


# ---------------------------------------------------------------------------
# Standard ILP -> monotone ILP (guess positive/negative row totals).


class _ImLayout(NamedTuple):
    length: int         # witness bits: b_pos per row, then b_neg per row
    widths: tuple
    shifts: tuple       # shift of each field
    mask: int
    half: int           # bits of the b_neg half: b_pos half = value >> half
    low: int            # b_neg half = value & low
    code: int           # sum(rhs_j << (m-1-j)*width): b_pos half - b_neg half
    columns: tuple      # each column's +1 indicator, then its -1 indicator


@layout_cache
def _im_layout(inst) -> _ImLayout:
    m = inst.num_rows
    fields = 2 * m
    width = field_width(len(inst.columns))
    half = m * width
    return _ImLayout(
        fields * width, (width,) * fields,
        tuple((fields - 1 - j) * width for j in range(fields)),
        (1 << width) - 1, half, (1 << half) - 1,
        sum(b << (m - 1 - j) * width for j, b in enumerate(inst.rhs)),
        tuple(tuple(1 if a == 1 else 0 for a in col) +
              tuple(1 if a == -1 else 0 for a in col)
              for col in inst.columns))


def _im_transform(inst, wit):
    if inst.variant != "standard":
        raise ReductionError("ilp-to-monotone expects a standard instance")
    lay = _im_layout(inst)
    v = wit.value
    # the packed test of the module docstring: b_pos - b_neg == rhs implies it
    if (v >> lay.half) - (v & lay.low) != lay.code:
        return _MONOTONE_NO
    mask = lay.mask
    fields = tuple([(v >> shift) & mask for shift in lay.shifts])
    m = len(inst.rhs)
    # b_pos - b_neg must equal rhs row by row
    if max(fields, default=0) > len(inst.columns) or \
            tuple(map(sub, fields[:m], fields[m:])) != inst.rhs:
        return _MONOTONE_NO
    return I.IlpInstance(lay.columns, fields, "monotone")


def _im_synthesize(inst, sol):
    m = inst.num_rows
    support = [i for i, x in enumerate(sol) if x]
    b_pos = tuple(sum(1 for i in support if inst.columns[i][j] == 1)
                  for j in range(m))
    b_neg = tuple(sum(1 for i in support if inst.columns[i][j] == -1)
                  for j in range(m))
    return pack_fields(b_pos + b_neg, _im_layout(inst).widths)


def _im_valid(inst):
    m = inst.num_rows
    n = len(inst.columns)
    if m == 0:
        yield Witness.zero(0)
        return
    lay = _im_layout(inst)
    shifts = lay.shifts
    per_row = []
    for j, b in enumerate(inst.rhs):
        opts = [bp << shifts[j] | (bp - b) << shifts[m + j]
                for bp in range(n + 1) if 0 <= bp - b <= n]
        if not opts:
            return
        per_row.append(opts)
    for combo in product(*per_row):
        yield Witness(sum(combo), lay.length)


def _im_canonical(inst):
    n = len(inst.columns)
    b_pos = tuple(min(max(b, 0), n) for b in inst.rhs)
    b_neg = tuple(min(max(-b, 0), n) for b in inst.rhs)
    return pack_fields(b_pos + b_neg, _im_layout(inst).widths)


red_ilp_to_monotone = Reduction(
    name="ilp-to-monotone",
    source_kind="ilp",
    target_kind="ilp",
    witness_len=lambda inst: _im_layout(inst).length,
    transform=_im_transform,
    synthesize=_im_synthesize,
    valid_witnesses=_im_valid,
    canonical_witness=_im_canonical,
    source_variant="standard",
    target_variant="monotone",
)


# ---------------------------------------------------------------------------
# Subset sum -> cyclic group subset sum (modulus n*t).


def _szq_case(inst):
    t = inst.target
    if t == 0 or any(p == t for p in inst.items):
        return "yes", ()
    keep = tuple(i for i, p in enumerate(inst.items) if 1 <= p < t)
    if len(keep) <= 1:
        return "no", ()
    return "main", keep


def _szq_transform(inst, wit):
    case, keep = _szq_case(inst)
    group = I.CyclicGroup(2)
    if case == "yes":
        return I.trivial_instance("group_subset_sum", True, group=group)
    if case == "no":
        return I.trivial_instance("group_subset_sum", False, group=group)
    t = inst.target
    q = len(keep) * t
    return I.GroupSubsetSumInstance(
        I.CyclicGroup(q), tuple(inst.items[i] for i in keep), t)


red_ss_to_zq = deterministic(
    "ss-to-zq", "subset_sum", "group_subset_sum", _szq_transform)


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
    n = len(inst.elements)
    width = _zqs_witness_len(inst)
    start = inst.target % q
    for t_int in range(start, n * q + 1, q):
        yield pack_fields((t_int,), [width])


def _zqs_canonical(inst):
    q = _zqs_q(inst)
    n = len(inst.elements)
    width = _zqs_witness_len(inst)
    start = inst.target % q
    if start > n * q:
        return Witness.zero(width)
    top = start + q * ((n * q - start) // q)
    return pack_fields((top,), [width])


red_zq_to_ss = Reduction(
    name="zq-to-ss",
    source_kind="group_subset_sum",
    target_kind="subset_sum",
    witness_len=_zqs_witness_len,
    transform=_zqs_transform,
    synthesize=_zqs_synthesize,
    valid_witnesses=_zqs_valid,
    canonical_witness=_zqs_canonical,
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
