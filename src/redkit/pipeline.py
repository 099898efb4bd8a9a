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
of chosen vectors that touch it.  An accepting run starts every counter at
0, keeps it in {0, 1} and ends it at 0, so the chosen vectors that touch
counter j, in index order, alternate +1, -1 and hold every REQUIRED one
that touches j.  The counts such a choice can take are found by one scan
of counter j's nonzero entries in index order, keeping two bitsets over
counts, at0 and at1, of the choices so far that leave the counter at 0 and
at 1 (at first at0 = {0} and at1 = {}): an OPTIONAL +1 adds at0 shifted
by one to at1, a REQUIRED +1 makes at1 that and at0 empty, and a -1 does
the mirror image.  c_j is allowed when it is in at0 at the end.  The rule
looks at one counter at a time, so it is exact at dimension 1 and only
necessary above.  The transform maps a witness with any other count to the
declared no constant, ``valid_witnesses`` lists exactly the others, and a
synthesized witness, the counts of a run, is always listed.

The transform computes an instance's layout (a frozen dataclass with
slots, as in ``redkit.numeric``) once and keeps it with
``witness.layout_cache`` (which says what it holds): the witness length
and count shifts, the target group and elements, and for each counter a
tuple over its field values holding the image of pi^c moved onto that
counter's block for an allowed count c and None for any other.  An
element is the concatenation of per-block images of gamma_hat(b),
followed by pi or the identity.  Three ``lru_cache`` caches hold the shared
pieces: ``_block_images(n, block)``, each block's images of the powers of
pi and of the three letters for machines with n vectors;
``_cps_element(n, vector, flag)``, one element object per vector; and
``_symmetric_group(degree)``, one group object per degree.  So
consecutive machines of a grid hand the group oracle the same group and
the same element objects for their shared vectors, and its reach closure
resumes from their shared prefix.  ``transform`` reads the kept pair
inline (``_cps_layout.last``), calling the layout function only for
another instance, decodes ``wit.value`` with the shifts and concatenates
the chosen blocks into the target permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product, repeat
from operator import ne

from . import instances as I
from . import pathdecomp
from .errors import ValidationError
from .groups import Permutation, identity, make_run_context
from .reductions import Reduction, deterministic
from .witness import (Witness, field_width, layout_cache, pack_fields,
                      witnesses)

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


def is_run(vectors) -> bool:
    """Every prefix sum in {0,1}^l and total sum zero."""
    vectors = list(vectors)
    if not vectors:
        return True
    ell = len(vectors[0])
    if any(len(v) != ell for v in vectors):
        raise ValidationError("run check requires uniform dimension")
    state = [0] * ell
    for v in vectors:
        for j in range(ell):
            state[j] += v[j]
            if state[j] not in (0, 1):
                return False
    return all(c == 0 for c in state)


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


# One entry per (vector count n, block): n + 4 image tuples of 2r points,
# at most 1.7 KB at n = 5, 37 KB at n = 32 and 176 KB at n = 128 (measured
# with tracemalloc on block 19; lower blocks share more small ints), so the
# 32 entries of blocks 0 .. 31 hold at most about 1.1 MB while n <= 32 and
# 5.1 MB while n <= 128, where a K4 machine's 20 blocks fit.
@lru_cache(maxsize=32)
def _block_images(n: int, block: int) -> tuple[tuple, dict]:
    """Images of pi^0 .. pi^n (indexed by the exponent) and of the three
    letters gamma_hat(b) (keyed by b), moved onto the ``block``-th block of
    points; shared by every machine with ``n`` vectors."""
    ctx = make_run_context(n)
    off = block * ctx.domain
    powers, acc = [], identity(ctx.domain)
    for _ in range(n + 1):
        powers.append(tuple(off + p for p in acc))
        acc = acc * ctx.pi
    letters = {b: tuple(off + p for p in ctx.gamma_hat(b))
               for b in (-1, 0, 1)}
    return tuple(powers), letters


# One entry per (n, vector, flag): a permutation of (dimension + 1) blocks
# of points, whose ints are the ``_block_images`` ones.  Measured with
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
    img = []
    for j, b in enumerate(vec):
        img += _block_images(n, j)[1][b]
    tail = _block_images(n, len(vec))[0]
    img += tail[1] if flag == I.REQUIRED else tail[0]
    # blocks of permutations on disjoint points: a permutation
    return tuple.__new__(Permutation, img)


# One group object per degree, so that consecutive machines of a grid hand
# the group oracle the very group its reach memo holds.  A group is one int.
_symmetric_group = lru_cache(maxsize=32)(I.SymmetricGroup)

# Targets of machines with no vectors and of rejected witnesses.
_PERM_YES = I.trivial_instance("group_subset_sum", True,
                               group=I.SymmetricGroup(2))
_PERM_NO = I.trivial_instance("group_subset_sum", False,
                              group=I.SymmetricGroup(2))


@dataclass(frozen=True, slots=True)
class _CpsLayout:
    length: int         # witness bits: one count per counter
    widths: tuple
    shifts: tuple       # shift of each counter's count
    mask: int
    blocks: tuple       # per counter and count: a pi-power image or None
    tail: tuple         # images of pi^f_C on the last block
    group: object
    elements: tuple


@layout_cache
def _cps_layout(inst) -> _CpsLayout:
    """The witness layout and target parts of one machine with n vectors.

    On an accepting run counter j starts at 0, ends at 0 and stays in
    {0, 1}, so the chosen vectors that touch it, in index order, alternate
    +1, -1 and hold every REQUIRED vector that touches j.  Scanning j's
    nonzero entries in index order, bit c of ``at0`` (``at1``) says that
    some such choice among the entries so far takes c of them and leaves
    the counter at 0 (at 1).  An OPTIONAL +1 may be taken from 0 or passed
    over (at1 |= at0 << 1); a REQUIRED +1 must be taken from 0 (at0, at1 =
    0, at0 << 1); a -1 is the mirror image.  The allowed counts are the
    bits of ``at0`` at the end, all even and at most n, and a witness with
    any other count is rejected: ``blocks[j]`` holds, per field value, the
    image of pi^c on counter j's block for an allowed count c, else None.
    The elements come from ``_cps_element`` and the group from
    ``_symmetric_group``, so machines that share vectors share element
    objects and their group."""
    n, ell = len(inst.vectors), inst.dimension
    if n == 0:
        return _CpsLayout(0, (), (), 0, (), (), None, ())
    if any(map(ne, map(len, inst.vectors), repeat(ell))):
        raise ValidationError(
            "counter machine: vector length differs from dimension")
    try:
        elements = tuple(map(_cps_element, repeat(n), inst.vectors,
                             inst.flags))
    except (KeyError, TypeError):
        # an entry that is no letter's key, or one that cannot be hashed
        raise ValidationError(
            "counter machine: vector entries must be in {-1,0,1}") from None
    width = field_width(n)
    required = [f == I.REQUIRED for f in inst.flags]
    blocks = []
    for j, col in enumerate(zip(*inst.vectors)):
        at0, at1 = 1, 0
        for b, req in zip(compress(col, col), compress(required, col)):
            if b == 1:
                at0, at1 = (0, at0 << 1) if req else (at0, at1 | at0 << 1)
            else:
                at0, at1 = (at1 << 1, 0) if req else (at0 | at1 << 1, at1)
        powers = _block_images(n, j)[0]
        blocks.append(tuple([powers[c] if at0 >> c & 1 else None
                             for c in range(1 << width)]))
    tail = _block_images(n, ell)[0]
    return _CpsLayout(
        ell * width, (width,) * ell,
        tuple((ell - 1 - j) * width for j in range(ell)), (1 << width) - 1,
        tuple(blocks), tail[inst.flags.count(I.REQUIRED)],
        _symmetric_group((ell + 1) * len(tail[0])), elements)


_CPS_LAST = _cps_layout.last


def _cps_transform(inst, wit):
    n = len(inst.vectors)
    if n == 0:
        return _PERM_YES
    held, lay = _CPS_LAST[0]
    if inst is not held:
        lay = _cps_layout(inst)
    v, mask = wit.value, lay.mask
    img = []
    for shift, block in zip(lay.shifts, lay.blocks):
        part = block[(v >> shift) & mask]
        if part is None:
            return _PERM_NO
        img += part
    img += lay.tail
    # blocks of pi-powers on disjoint points: a permutation by construction
    return I.GroupSubsetSumInstance(lay.group, lay.elements,
                                    tuple.__new__(Permutation, img))


def _cps_synthesize(inst, sol):
    n = len(inst.vectors)
    if n == 0:
        return Witness.zero(0)
    chosen = set(sol)
    counts = tuple(
        sum(1 for i in chosen if inst.vectors[i][j] != 0)
        for j in range(inst.dimension))
    return pack_fields(counts, _cps_layout(inst).widths)


def _cps_valid(inst):
    n = len(inst.vectors)
    if n == 0:
        return iter((Witness.zero(0),))
    lay = _cps_layout(inst)
    # each allowed count (a field value with an image) at its field's shift
    return witnesses(map(sum, product(*[
        [c << shift for c, part in enumerate(block) if part is not None]
        for shift, block in zip(lay.shifts, lay.blocks)])), lay.length)


red_cm_to_perm_ss = Reduction(
    name="cm-to-permss",
    source_kind="counter_machine",
    target_kind="group_subset_sum",
    witness_len=lambda inst: _cps_layout(inst).length,
    transform=_cps_transform,
    synthesize=_cps_synthesize,
    valid_witnesses=_cps_valid,
    constants=(_PERM_YES, _PERM_NO),
)

PIPELINE_REDUCTIONS = (red_coloring_to_cm, red_cm_to_perm_ss)
