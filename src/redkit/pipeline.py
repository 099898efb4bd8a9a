"""The coloring pipeline: 3-coloring -> counter machine -> permutation
group subset sum.

Counter layout for a graph labelled with k labels: counters x_c for label
x in [k] and color c in [3] at index 3(x-1)+(c-1); a switch counter S at
index 3k; six counters Z_(c,d) for ordered distinct color pairs at
3k+1+rank(c,d) with pairs ranked lexicographically.  Total dimension
3k + 7.

coloring-to-cm builds each command's block of (vector, flag) pairs once:
one ``lru_cache``, ``_block(k, cmd)``, keys it by k and the command over
labels (``("introduce", x)``, ``("forget", x)`` or ``("edge", x, y)``), so
every machine with k labels points at the same vector tuples and holds one
pointer per vector.

cm-to-permss reads a witness as one count c_j per counter j, the number
of chosen vectors that touch it.  It allows only the counts a run can give
counter j (``_cps_layout`` says how they are found): exact at dimension 1,
only necessary above.  A witness with another count maps to the declared
no constant, ``valid_witnesses`` lists exactly the others, and a
synthesized witness, the counts of a run, is always listed.

A machine with no vectors (yes) or with a counter that allows no count
(no) is a guard case: its witness has 0 bits, so a sweep checks one
witness where the fields would give 2^(l*w), and that witness maps to
the declared constant ``fixed`` with no element built.  Otherwise a
shape, ``_cps_shape(n, l)`` (an ``lru_cache``), holds what depends only
on the vector count n and the dimension l: the field layout, the images
of pi^0 .. pi^n and of the three letters gamma_hat(b) on each counter's
block, those of pi^0 .. pi^n on the last block, and the group, each
built from one run context (``groups.make_run_context``) on a miss.  A
machine's layout, kept by ``instances.layout_cache``, holds what is its
own: one ``_cps_element`` object per vector (an ``lru_cache`` keyed by n,
vector and flag), one int per counter whose bit c allows count c, and the
image of pi^f_C on the last block.  Consecutive machines of a grid thus
hand the group oracle the same group and element objects, and its reach
closure resumes from their shared prefix.  ``transform`` reads the kept
pair inline (``_cps_layout.last``), returns ``fixed`` when set, and else
concatenates each count's power image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, product, repeat
from operator import ne

from . import instances as I
from . import pathdecomp
from .errors import ValidationError
from .groups import Permutation, identity, make_run_context
from .reductions import Reduction, deterministic
from .witness import Witness, field_width, pack_fields, witnesses

COLOR_PAIRS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))


@dataclass(frozen=True)
class CounterLayout:
    k: int

    @property
    def dimension(self) -> int:
        return 3 * self.k + 7

    def x(self, label: int, color: int) -> int:
        if not (1 <= label <= self.k and 1 <= color <= 3):
            raise ValidationError("label or color out of range")
        return 3 * (label - 1) + (color - 1)

    @property
    def s(self) -> int:
        return 3 * self.k

    def z(self, c: int, d: int) -> int:
        return 3 * self.k + 1 + COLOR_PAIRS.index((c, d))

    def vector(self, ups=(), downs=()) -> tuple[int, ...]:
        v = [0] * self.dimension
        for i in ups:
            v[i] = 1
        for i in downs:
            v[i] = -1
        return tuple(v)


# ---------------------------------------------------------------------------
# 3-coloring -> counter machine.


# One entry per (k, command): at most 16 (vector, flag) pairs of 3k + 7
# entries each, at most 4.6 KB at k = 4, 6.9 KB at k = 10 and 15.1 KB at
# k = 32 (measured with tracemalloc on edge blocks; introduce and forget
# blocks take about a third), so the 128 entries hold at most about 0.9 MB
# while k <= 10 and 2 MB while k <= 32.  A machine with k labels uses at
# most k(k + 1) entries, 110 at k = 10.
@lru_cache(maxsize=128)
def _block(k: int, cmd: tuple) -> tuple:
    """The (vector, flag) pairs of one command of a machine with ``k``
    labels; ``cmd`` is ``("introduce", x)``, ``("forget", x)`` or
    ``("edge", x, y)`` over labels.  Shared by every machine with ``k``
    labels, which holds one pointer per vector."""
    lay = CounterLayout(k)
    block = []
    if cmd[0] == "introduce":
        x = cmd[1]
        for c in (1, 2, 3):
            block.append((lay.vector(ups=[lay.x(x, c), lay.s]), I.OPTIONAL))
        block.append((lay.vector(downs=[lay.s]), I.REQUIRED))
    elif cmd[0] == "forget":
        x = cmd[1]
        for c in (1, 2, 3):
            block.append((lay.vector(ups=[lay.s], downs=[lay.x(x, c)]),
                          I.OPTIONAL))
        block.append((lay.vector(downs=[lay.s]), I.REQUIRED))
    else:
        x, y = cmd[1], cmd[2]
        for c, d in COLOR_PAIRS:
            block.append((lay.vector(ups=[lay.z(c, d), lay.s],
                                     downs=[lay.x(x, c), lay.x(y, d)]),
                          I.OPTIONAL))
        block.append((lay.vector(downs=[lay.s]), I.REQUIRED))
        block.append((lay.vector(ups=[lay.s]), I.REQUIRED))
        for c, d in COLOR_PAIRS:
            block.append((lay.vector(ups=[lay.x(x, c), lay.x(y, d)],
                                     downs=[lay.z(c, d), lay.s]),
                          I.OPTIONAL))
        block.append((lay.vector(ups=[lay.s]), I.REQUIRED))
        block.append((lay.vector(downs=[lay.s]), I.REQUIRED))
    return tuple(block)


def coloring_blocks(inst: I.ColoringInstance):
    """Per-command vector blocks, for auditing the emitted structure.

    Returns (layout, list of (command, ((vector, flag), ...))).
    """
    # ``make_nice`` checks the decomposition and raises ``ValidationError``
    _, commands = pathdecomp.make_nice(inst.num_vertices, inst.edges, inst.bags)
    width = pathdecomp.width(inst.bags)
    k = width + 1
    labels = pathdecomp.greedy_labels(commands, width)
    return CounterLayout(k), [
        (cmd, _block(k, (cmd[0], *(labels[v] for v in cmd[1:]))))
        for cmd in commands]


def _ccm_transform(inst, wit):
    lay, blocks = coloring_blocks(inst)
    pairs = [pair for _, block in blocks for pair in block]
    return I.CounterMachineInstance(lay.dimension,
                                    tuple(vec for vec, _ in pairs),
                                    tuple(flag for _, flag in pairs))


red_coloring_to_cm = deterministic(
    "coloring-to-cm", "coloring", "counter_machine", _ccm_transform)


# ---------------------------------------------------------------------------
# Counter machine -> symmetric group subset sum.


@dataclass(frozen=True, slots=True)
class _CpsShape:
    length: int         # witness bits: one count per counter
    widths: tuple
    shifts: tuple       # shift of each counter's count
    mask: int
    powers: tuple       # per counter: images of pi^0 .. pi^n on its block
    letters: tuple      # per counter: images of gamma_hat(b), keyed by b
    tail: tuple         # images of pi^0 .. pi^n on the last block
    group: object


# An entry holds l + 1 blocks of n + 4 images of 2r points, each block's
# images sharing its r point objects.  Measured with tracemalloc (Python
# 3.11), it takes 4.6 KB at n = 5, l = 2, 0.83 MB at K4's n = 128, l = 19
# and 1.33 MB at n = 128, l = 31, so the two entries hold at most 2.7 MB
# while n <= 128 and l <= 31.  A grid lists its machines by vector count,
# so consecutive machines share a shape until n changes.
@lru_cache(maxsize=2)
def _cps_shape(n: int, ell: int) -> _CpsShape:
    """The shape of every machine with ``n`` vectors of ``ell`` counters."""
    ctx = make_run_context(n)
    r = ctx.domain
    pows, acc = [], identity(r)
    for _ in range(n + 1):
        pows.append(acc)
        acc = acc * ctx.pi
    # block j's point ints, one object each, shared by all its images
    blocks = [tuple(range(j * r, j * r + r)).__getitem__
              for j in range(ell + 1)]
    powers = [tuple([tuple(map(at, img)) for img in pows]) for at in blocks]
    width = field_width(n)
    return _CpsShape(
        ell * width, (width,) * ell,
        tuple((ell - 1 - j) * width for j in range(ell)), (1 << width) - 1,
        tuple(powers[:ell]),
        tuple({b: tuple(map(at, ctx.gamma_hat(b))) for b in (-1, 0, 1)}
              for at in blocks[:ell]),
        powers[ell], I.SymmetricGroup((ell + 1) * r))


# One entry per (n, vector, flag): a permutation of (dimension + 1) blocks
# of points, whose ints are the ``_cps_shape`` ones.  Measured with
# tracemalloc on coloring-to-cm's K4 machine (degree 640, 128 vectors, 98
# distinct (vector, flag) pairs), an entry takes about 5.4 KB, 8 bytes a
# point, so the 256 entries hold at most about 1.4 MB at degree 640 and
# 3.3 MB at degree 1,600 (128 vectors, dimension 49).  The machines of one
# vector count in a grid of dimension d share at most 2 * 3^d keys.
CPS_ELEMENT_CACHE = 256


@lru_cache(maxsize=CPS_ELEMENT_CACHE)
def _cps_element(n: int, vec: tuple, flag: str) -> Permutation:
    """gamma_hat(b) of each entry b of ``vec`` on its counter's block, then
    pi (``flag`` REQUIRED) or the identity on the last block: the element
    of one vector of a machine with ``n`` vectors, shared by every such
    machine.  ``vec`` must have entries in {-1, 0, 1}; a KeyError
    otherwise."""
    shape = _cps_shape(n, len(vec))
    img = []
    for letters, b in zip(shape.letters, vec):
        img += letters[b]
    img += shape.tail[1] if flag == I.REQUIRED else shape.tail[0]
    # blocks of permutations on disjoint points: a permutation
    return tuple.__new__(Permutation, img)


# Targets of machines with no vectors and of rejected witnesses.
_PERM_YES = I.trivial_instance("group_subset_sum", True,
                               group=I.SymmetricGroup(2))
_PERM_NO = I.trivial_instance("group_subset_sum", False,
                              group=I.SymmetricGroup(2))
_CPS_EMPTY = _CpsShape(0, (), (), 0, (), (), (), None)
# The entries a vector may hold, as ``_cps_element``'s letters are keyed.
_ENTRIES = frozenset((-1, 0, 1))


@dataclass(frozen=True, slots=True)
class _CpsLayout:
    fixed: object       # the target of a guard case, None in the main case
    shape: _CpsShape
    allowed: tuple      # per counter: bit c set when count c is allowed
    tail: tuple         # image of pi^f_C on the last block
    elements: tuple


# The layouts of the guard cases, shared by every such machine.
_CPS_FIXED_YES = _CpsLayout(_PERM_YES, _CPS_EMPTY, (), (), ())
_CPS_FIXED_NO = _CpsLayout(_PERM_NO, _CPS_EMPTY, (), (), ())


@I.layout_cache
def _cps_layout(inst) -> _CpsLayout:
    """A machine's layout.  A guard case has no elements and ``fixed``,
    the target of its one witness: ``_PERM_YES`` with no vectors and
    ``_PERM_NO`` when some counter allows no count, so a fixed no has 0
    witness bits (``_CPS_EMPTY``) and builds neither elements nor a shape.
    Otherwise ``fixed`` is None and the layout holds the machine's shape
    (``_cps_shape``), its elements from ``_cps_element``, one int of
    allowed counts per counter, and the image of pi^f_C on the last block.
    The entries are checked first, in one pass.

    On an accepting run counter j starts at 0, ends at 0 and stays in
    {0, 1}, so the chosen vectors that touch it, in index order, alternate
    +1, -1 and hold every REQUIRED vector that touches j.  Scanning j's
    nonzero entries in index order, bit c of ``at0`` (``at1``) says that
    some such choice among the entries so far takes c of them and leaves
    the counter at 0 (at 1).  An OPTIONAL +1 may be taken from 0 or passed
    over (at1 |= at0 << 1); a REQUIRED +1 must be taken from 0 (at0, at1 =
    0, at0 << 1); a -1 is the mirror image.  The allowed counts are the
    bits of ``at0`` at the end, all even and at most n, and a witness with
    any other count is rejected."""
    n, ell = len(inst.vectors), inst.dimension
    if n == 0:
        return _CPS_FIXED_YES
    if any(map(ne, map(len, inst.vectors), repeat(ell))):
        raise ValidationError(
            "counter machine: vector length differs from dimension")
    try:
        entries_ok = _ENTRIES.issuperset(chain.from_iterable(inst.vectors))
    except TypeError:       # an entry that cannot be hashed
        entries_ok = False
    if not entries_ok:
        raise ValidationError(
            "counter machine: vector entries must be in {-1,0,1}")
    required = [f == I.REQUIRED for f in inst.flags]
    allowed = []
    for col in zip(*inst.vectors):
        at0, at1 = 1, 0
        for b, req in zip(compress(col, col), compress(required, col)):
            if b == 1:
                at0, at1 = (0, at0 << 1) if req else (at0, at1 | at0 << 1)
            else:
                at0, at1 = (at1 << 1, 0) if req else (at0 | at1 << 1, at1)
        if not at0:
            return _CPS_FIXED_NO
        allowed.append(at0)
    shape = _cps_shape(n, ell)
    return _CpsLayout(None, shape, tuple(allowed), shape.tail[sum(required)],
                      tuple(map(_cps_element, repeat(n), inst.vectors,
                                inst.flags)))


_CPS_LAST = _cps_layout.last


def _cps_transform(inst, wit):
    held, lay = _CPS_LAST[0]
    if inst is not held:
        lay = _cps_layout(inst)
    if lay.fixed is not None:
        return lay.fixed
    shape, v = lay.shape, wit.value
    mask = shape.mask
    img = []
    for shift, ok, powers in zip(shape.shifts, lay.allowed, shape.powers):
        c = v >> shift & mask
        if not ok >> c & 1:
            return _PERM_NO
        img += powers[c]
    img += lay.tail
    # blocks of pi-powers on disjoint points: a permutation by construction
    return I.GroupSubsetSumInstance(shape.group, lay.elements,
                                    tuple.__new__(Permutation, img))


def _cps_synthesize(inst, sol):
    lay = _cps_layout(inst)
    if lay.fixed is _PERM_YES:
        return Witness.zero(0)
    chosen = set(sol)
    counts = tuple(
        sum(1 for i in chosen if inst.vectors[i][j] != 0)
        for j in range(inst.dimension))
    return pack_fields(counts, lay.shape.widths)


def _cps_valid(inst):
    lay = _cps_layout(inst)
    if lay.fixed is not None:
        # a fixed no's one witness maps to the no constant: none is valid
        return iter((Witness.zero(0),) if lay.fixed is _PERM_YES else ())
    # each allowed count at its field's shift
    return witnesses(map(sum, product(*[
        [c << shift for c in range(at0.bit_length()) if at0 >> c & 1]
        for shift, at0 in zip(lay.shape.shifts, lay.allowed)])),
        lay.shape.length)


red_cm_to_perm_ss = Reduction(
    name="cm-to-permss",
    source_kind="counter_machine",
    target_kind="group_subset_sum",
    witness_len=lambda inst: _cps_layout(inst).shape.length,
    transform=_cps_transform,
    synthesize=_cps_synthesize,
    valid_witnesses=_cps_valid,
    constants=(_PERM_YES, _PERM_NO),
)

PIPELINE_REDUCTIONS = (red_coloring_to_cm, red_cm_to_perm_ss)
