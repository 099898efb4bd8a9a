"""Exact solvers ("oracles") for every instance kind, plus solution checkers.

Each solver runs the exact method whose memory fits its gate, one of the
``MAX_*`` constants below: a bitset dynamic program, a non-dominated front
(``kernels.pareto_solve``, method ``pareto``, for knapsack and scheduling,
stored pairs gated by ``MAX_DP_CELLS``), a frontier or reach set, or a
brute-force search.  When no method fits it raises ResourceLimitError.  The
verdict's ``method`` names the one that ran.  Every yes verdict carries a
solution that has been re-checked by the standalone checker before being
returned.

Subset sum with a modulus q is group subset sum over Z_q
(``CyclicGroup(q)``) and is solved by the same path.  Past their DP gates,
plain subset sum (method ``brute``) and group subset sum (method
``reach``) run one reach closure (``_reach``): the products of
index-increasing subsequences, with back pointers.  A group closure stops
once it holds the group's ``order()`` products (q for Z_q, k^k for Z_k^k,
k! for S_k): no later product could be new, so the set and its back
pointers are those of the full closure.

Targets of one source often share their shape, so four solvers keep the
part that depends only on it:

- ``solve_subset_sum`` keeps one memo (``_last_sums``) for plain subset
  sum: the last items tuple its DP path was asked about and, from the
  second consecutive ask of the very same object (``is``) on, that tuple's
  subset sums as one int bitset.  The targets of one knapsack-to-ss or
  zq-to-ss source share their items tuple, so a no target is answered by
  one bit test, with method ``dp`` as the DP would; a set bit still runs
  the DP and the yes re-check.  The set is built only when max(n, 1) *
  (sum + 1) <= ``MAX_DP_CELLS``, so it holds at most that many bits (0.53
  MB), and it is read only where the DP path runs under the current gate.
- ``solve_ilp`` keeps the column bundles, row totals, base and column codes
  per (columns, row count) in an ``lru_cache`` of ``ILP_COLUMNS_CACHE`` =
  64 entries of about 2 KB each; an instance then only checks and codes its
  rhs.  A column whose length differs from the rhs's, or with an entry
  outside {-1, 0, 1} or a float one, is a ``ValidationError``, checked once
  per cache miss and never kept (1.0 hashes like 1, and its float code
  would answer the int columns equal to it); the entry also notes whether
  some entry is -1, so a monotone system with one is refused with no scan
  per instance.
- ``solve_group_ss`` keeps one memo (``_last_reach``), the last closure:
  its group, elements, reach set and the set's size after each element.
  Its key is the group object and a prefix of identical element objects
  (``is``, not ``==``): a closure in the very same group resumes from the
  products of the longest prefix of element objects it shares with the
  memo's, so consecutive sources of a family grid rerun only their last
  elements, and the targets of one source (which share its elements
  tuple) run none.  It holds one reach set of at most ``MAX_BRUTE_STATES``
  products and at most ``MAX_BRUTEFORCE_N`` sizes, and code that lowers
  that gate clears the memo first.  Every group runs the same closure with
  its ``times``: the map a -> a * e as one callable, taken once per
  element, so a product is one call from the closure's loop (for S_k,
  ``operator.itemgetter(*e)``, one C call).  A ``Permutation`` is a tuple,
  and an S_k product is the plain image tuple, so an S_k closure makes and
  hashes plain tuples.
- ``solve_counter_machine`` keeps each distinct vector's +1 and -1 masks
  in an ``lru_cache`` of ``CM_MASKS_CACHE`` = 1,024 entries, keyed by the
  vector and the dimension: at most 0.8 MB while the dimension is at most
  49 (the machines coloring-to-cm builds share their vectors).  A vector of
  another length, with an entry outside {-1, 0, 1} or with one that cannot
  be hashed is a ``ValidationError`` and is never kept.  Only the kernel's
  state limit is a ``ResourceLimitError``; a walk back that finds no
  predecessor is a bug and its ``RuntimeError`` goes up as it is.

Group subset sum refuses, under every gate setting, a target or element the
group does not contain (``group.contains``), as ``instances.validate``
does; the knapsack, unbounded subset sum, counter-machine, coloring,
scheduling, CNF and AND-SAT oracles refuse an instance ``validate``
rejects; plain subset sum refuses a negative target or item; the 0-1 ILP
refuses a variant other than standard, monotone and zero-sum, and a
monotone system with an entry -1; and the zero-sum ILP refuses an rhs
that is not all zeros, one per row.  Where a fast path skips ``validate``
(plain subset sum, the 0-1 ILP), a field of another type than int, a float
say, raises a ``TypeError`` in its arithmetic, which ``solve`` turns into
``validate``'s ``ValidationError``; a float that meets no such arithmetic
(an item past the target, a column entry 1.0 of a kept int column) is
solved by its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, count, islice, repeat
from operator import and_, attrgetter, eq, is_not, ne, not_
from typing import NamedTuple

from . import instances as I
from . import kernels
from .errors import ConstructionError, ResourceLimitError, ValidationError


# The gates: each bounds the memory or work of one exact method, and a
# solver with no method within its gates raises ResourceLimitError.
# Bits of a bitset DP table (n * (t+1), or q for Z_q) and pairs of a front.
MAX_DP_CELLS = 4_000_000
# Items of a subset-sum closure, elements of a group one, CNF variables.
MAX_BRUTEFORCE_N = 25
# Products a reach closure holds, and sums per half of the ILP's MITM.
MAX_BRUTE_STATES = 2_000_000
# States the counter-machine frontier search holds.
MAX_CM_STATES = 4_000_000
# Bag states the coloring DP holds, over all its layers.
MAX_COLORING_STATES = 500_000
# Clause checks of the CNF brute search, 2^k * (clauses + 1).
MAX_SAT_OPS = 8_000_000
# The most work, 3^n * (m + 1) for n vertices and m edges, at which
# ``solve_coloring`` runs the brute search rather than the DP.
COLORING_BRUTE_OPS = 600_000


@dataclass(frozen=True)
class Verdict:
    answer: bool
    solution: object = None
    method: str = ""

    def __bool__(self) -> bool:
        return self.answer


# A no verdict holds nothing but its method, and a Verdict is frozen, so
# each method's no verdict is built once and shared.
_NO = {m: Verdict(False, method=m) for m in (
    "dp", "brute", "pareto", "range", "mitm", "observation", "reach",
    "frontier", "per-formula")}


def _refuse_invalid(inst) -> None:
    """Raise ValidationError for an instance ``instances.validate`` rejects."""
    problems = I.validate(inst)
    if problems:
        raise ValidationError(f"{inst.kind}: {'; '.join(problems)}")


def _yes(inst, solution, method: str) -> Verdict:
    if not check_solution(inst, solution):
        raise ConstructionError(
            f"solver produced an invalid solution for {inst!r}: {solution!r}")
    return Verdict(True, solution, method)


# ---------------------------------------------------------------------------
# Subset sum.

# The (items, sums) of the last items tuple the plain subset-sum DP path
# was asked about.  ``sums`` is None on its first ask; on the second
# consecutive ask of the very same object (``is``) it becomes that tuple's
# subset sums as one int, bit s set when some subset sums to s.  The
# targets of one knapsack-to-ss or zq-to-ss source share its items tuple,
# so one set answers all their no targets.  The set is built only when
# max(n, 1) * (sum + 1) <= ``MAX_DP_CELLS`` for n items, so it holds at
# most that many bits: 0.53 MB, in CPython's 30-bit digits of 4 bytes
# (measured with tracemalloc).  It is exact under every gate and is read
# only where the DP path runs, so lowering a gate needs no clearing.
_last_sums = (None, None)


def _no_subset_sums_to(items, t) -> bool:
    """Whether the memo's subset sums of ``items`` show that none is t;
    False when the memo holds no set for this very object.  A set bit
    proves nothing here: the DP and ``_yes``'s re-check still run."""
    global _last_sums
    if max(len(items), 1) * (t + 1) > MAX_DP_CELLS:
        # the DP path may not run: the set is not read
        return False
    held, sums = _last_sums
    if items is not held:
        _last_sums = (items, None)
        return False
    if sums is None:
        if max(len(items), 1) * (sum(items) + 1) > MAX_DP_CELLS:
            return False
        sums = 1
        for p in items:
            sums |= sums << p
        _last_sums = (items, sums)
    return not sums >> t & 1


def solve_subset_sum(inst: I.SubsetSumInstance) -> Verdict:
    """Plain subset sum by the bitset DP when its max(n, 1) * (t+1) table
    fits ``MAX_DP_CELLS`` (n items in [1, t]), else by the reach closure
    over the sums up to the target.  With a modulus it is group subset sum
    over ``CyclicGroup(modulus)``, solved as that group is and re-checked
    here."""
    if inst.modulus is not None:
        return _solve_group(inst, I.CyclicGroup(inst.modulus), inst.items,
                            inst.target)
    t = inst.target
    if t < 0 or min(inst.items, default=0) < 0:
        _refuse_invalid(inst)
    if _no_subset_sums_to(inst.items, t):
        return _NO["dp"]
    keep = [i for i, p in enumerate(inst.items) if 1 <= p <= t]
    vals = [inst.items[i] for i in keep]
    n = len(vals)
    # the table has t + 1 bits even when no item fits
    if max(n, 1) * (t + 1) <= MAX_DP_CELLS:
        got = kernels.subset_sum_solve(vals, t)
        if got is None:
            return _NO["dp"]
        return _yes(inst, tuple(keep[i] for i in got), "dp")
    if n <= MAX_BRUTEFORCE_N:
        # times(e) is e.__add__
        reach = _reach(vals, 0, attrgetter("__add__"),
                       MAX_BRUTE_STATES, "subset sum: reachable sums",
                       keep=t.__ge__)
        if t not in reach:
            return _NO["brute"]
        return _yes(inst, tuple(keep[i] for i in _walk(reach, t)), "brute")
    raise ResourceLimitError("subset sum: instance over budget")


# ---------------------------------------------------------------------------
# Knapsack.

def solve_knapsack(inst: I.KnapsackInstance) -> Verdict:
    """Non-dominated (size, weight) fronts capped at the capacity, stopping
    at the first front that meets the demand; the fronts stored are gated
    by ``MAX_DP_CELLS`` pairs."""
    _refuse_invalid(inst)
    items = inst.items
    try:
        got = kernels.pareto_solve(items, [inst.capacity] * len(items),
                                   inst.demand, MAX_DP_CELLS)
    except RuntimeError as exc:
        raise ResourceLimitError(f"knapsack: {exc}") from exc
    if got is None:
        return _NO["pareto"]
    return _yes(inst, tuple(got), "pareto")


# ---------------------------------------------------------------------------
# 0-1 ILP feasibility.

# Column layouts ``solve_ilp`` keeps, one per (columns, row count): the
# targets of one ilp-to-monotone source share their columns and differ only
# in rhs, and a sweep solves them one source at a time.  An entry for 6 rows
# and 9-12 distinct columns costs about 2.1 KB with the columns tuple it
# keeps alive (tracemalloc over 64 such systems, Python 3.11), so a full
# cache is about 0.14 MB.
ILP_COLUMNS_CACHE = 64


class _IlpColumns(NamedTuple):
    bundles: tuple      # column indices in each bundle
    codes: tuple        # code of each bundled column (a column times its
                        # bundle size)
    totals: tuple       # row totals of |entries| over the bundles
    base: int
    items: tuple        # |code| of each bundle with a nonzero code
    keep: tuple         # those bundles' positions
    flipped: int        # minus the sum of the negative codes
    chosen: tuple       # 1 for each bundle with a negative code (y = 1 - x)
    negative: bool      # some entry is -1, which the monotone variant refuses


@lru_cache(maxsize=ILP_COLUMNS_CACHE)
def _ilp_columns(columns, rows) -> _IlpColumns:
    for col in columns:
        if len(col) != rows:
            raise ValidationError("ilp: column length differs from rhs length")
        if not {-1, 0, 1}.issuperset(col):
            raise ValidationError("ilp: column entries must be in {-1,0,1}")
    groups: dict[tuple, list[int]] = {}
    for i, col in enumerate(columns):
        groups.setdefault(col, []).append(i)
    bundles, cols = [], []
    for col, idx in groups.items():
        size = 1
        while idx:
            bundle, idx = tuple(idx[:size]), idx[size:]
            bundles.append(bundle)
            cols.append(tuple(a * len(bundle) for a in col))
            size <<= 1
    totals, base, codes = kernels.ilp_column_codes(cols, rows)
    if not {int}.issuperset(map(type, codes)):
        # an entry 1.0 passes the test above and makes its code a float
        raise ValidationError("ilp: column entries must be in {-1,0,1}")
    keep = tuple(b for b, c in enumerate(codes) if c)
    return _IlpColumns(tuple(bundles), tuple(codes), tuple(totals), base,
                       tuple(abs(codes[b]) for b in keep), keep,
                       -sum(c for c in codes if c < 0),
                       tuple(int(c < 0) for c in codes),
                       any(-1 in col for col in columns))


def solve_ilp(inst: I.IlpInstance) -> Verdict:
    """Standard and monotone 0-1 ILP as one subset sum over column codes.

    Identical columns are first grouped into bundles of 1, 2, 4, ...
    copies, so k copies cost about log2(k) items and every count from 0 to
    k stays reachable.  ``kernels.ilp_column_codes`` makes A x = rhs one
    integer equation over the bundles; setting y = 1 - x on the bundles
    with negative codes leaves positive items, and the bitset DP solves
    that plain subset sum when its n * (t+1) table fits ``MAX_DP_CELLS``.
    Otherwise a meet-in-the-middle search over the same codes runs when
    each half's 2^ceil(n/2) sums fit ``MAX_BRUTE_STATES``.  The bundles and
    their codes depend only on the columns and are cached per columns tuple
    (``ILP_COLUMNS_CACHE``), so each instance only checks and codes its rhs.
    """
    if inst.variant == "zero_sum":
        return _solve_zero_sum(inst)
    lay = _ilp_columns(inst.columns, len(inst.rhs))
    variant = inst.variant
    if variant != "standard" and (variant != "monotone" or lay.negative):
        _refuse_invalid(inst)
    goal = kernels.ilp_rhs_code(inst.rhs, lay.totals, lay.base)
    if goal is None:
        return _NO["range"]
    keep, codes = lay.keep, lay.codes
    target = goal + lay.flipped
    if len(keep) * (target + 1) <= MAX_DP_CELLS:
        got = kernels.subset_sum_solve(lay.items, target)
        if got is None:
            return _NO["dp"]
        chosen = list(lay.chosen)
        for k in got:
            chosen[keep[k]] ^= 1
        method = "dp"
    elif 1 << (len(codes) - len(codes) // 2) <= MAX_BRUTE_STATES:
        chosen = kernels.ilp01_brute(codes, inst.rhs, lay.base)
        if chosen is None:
            return _NO["mitm"]
        method = "mitm"
    else:
        raise ResourceLimitError("ilp: instance over budget")
    x = [0] * len(inst.columns)
    for bundle, pick in zip(lay.bundles, chosen):
        if pick:
            for i in bundle:
                x[i] = 1
    return _yes(inst, tuple(x), method)


def _solve_zero_sum(inst):
    # one standard feasibility call per candidate column forced to 1
    m = len(inst.rhs)
    if any(inst.rhs) or any(len(col) != m for col in inst.columns):
        raise ValidationError("zero_sum: rhs must be zeros, one per row")
    n = len(inst.columns)
    for i in range(n):
        cols = inst.columns[:i] + inst.columns[i + 1:]
        rhs = tuple(-a for a in inst.columns[i])
        sub = I.IlpInstance(cols, rhs, "standard")
        got = solve_ilp(sub)
        if got.answer:
            x = list(got.solution)
            x.insert(i, 1)
            return _yes(inst, tuple(x), "observation")
    return _NO["observation"]


# ---------------------------------------------------------------------------
# Group subset sum.

def _reach(elements, start, times, cap, what, keep=None, order=None,
           reach=None, sizes=None):
    """Every product ``start * e_i * e_j * ...`` over index-increasing
    subsequences, mapped to its back pointer (index of the last element,
    product before it); ``start`` maps to None.  ``times(e)`` is the map
    a -> a * e, taken once per element.  ``keep``, when given,
    refuses a product and, with it, every extension of it.  Raises
    ResourceLimitError once the set holds more than ``cap`` products.
    ``order``, when given, is the size of the group the products lie in:
    once the set holds that many no later product is new, so the closure
    stops there with the same dict and back pointers as the full one.
    ``sizes``, when given, is a list that gets the set's size after each
    element appended.  A closure resumes when it already holds p sizes:
    ``reach`` is then the closure of ``elements[:p]``, with ``sizes[i]``
    its size after element i, and the closure goes on in it from element
    p with absolute indices in its back pointers."""
    if reach is None:
        reach = {start: None}
    if sizes is None:
        sizes = []
    for i, e in enumerate(islice(elements, len(sizes), None), len(sizes)):
        step = times(e)
        for prod in list(reach):
            np = step(prod)
            if np not in reach and (keep is None or keep(np)):
                reach[np] = (i, prod)
        if len(reach) > cap:
            raise ResourceLimitError(f"{what} over budget")
        sizes.append(len(reach))
        if len(reach) == order:
            break
    return reach


def _walk(reach, cur):
    """The indices, in increasing order, by which ``reach`` reached ``cur``."""
    sol = []
    while reach[cur] is not None:
        i, cur = reach[cur]
        sol.append(i)
    return tuple(reversed(sol))


# The (group, elements, reach, sizes) of the last reach closure, where
# ``sizes[i]`` is the size of ``reach`` after element i (fewer sizes than
# elements when the closure stopped at the group's order).  A family grid
# enumerates in product order, so consecutive sources share their group
# and all but their last element objects, and the targets of one source
# share its elements tuple: a closure resumes from the longest prefix of
# element objects it shares with the memo's.  It holds one reach set of at
# most ``MAX_BRUTE_STATES`` products and at most ``MAX_BRUTEFORCE_N``
# sizes.  The memo is not keyed by that gate, so code that lowers it
# clears the memo first: a set built under one cap must never answer
# under a lower one.
_last_reach = (None,) * 4


def _group_reach(group, elements):
    """The reach set of ``elements`` in ``group``, resumed from the memo's
    closure of the longest prefix of element objects (an ``is`` test) it
    shares, when the group is the memo's very object.  Only the elements
    past that prefix are checked against the group (the prefix was checked
    under that group object), before the element count is held to
    ``MAX_BRUTEFORCE_N``, so an element outside the group is refused the
    same way under every gate setting.  A refused or failed closure leaves
    the memo as it was."""
    global _last_reach
    last_group, last_elements, reach, sizes = _last_reach
    # the targets of one source share its elements tuple: each element was
    # checked when the memo's closure was built, and that closure is the
    # one asked for
    known = group is last_group and elements is last_elements
    p = 0
    if group is last_group and not known:
        # the first element that is not the memo's, in C and building no
        # tuple; the memo's closure covers only its first len(sizes)
        p = min(next(compress(count(), map(is_not, elements, last_elements)),
                     len(elements)), len(sizes))
    if not known and not all(map(group.contains, islice(elements, p, None))):
        raise ValidationError(f"{group.family} group: element out of range")
    if len(elements) > MAX_BRUTEFORCE_N:
        raise ResourceLimitError("group subset sum: too many elements")
    if known:
        return reach
    order = group.order()
    if not p:
        reach, sizes = None, []
    elif p == len(sizes) and (p == len(elements) or len(reach) == order):
        # every element is shared, or the shared prefix's closure holds
        # the whole group: the very same set
        return reach
    else:
        # dicts keep insertion order: the closure of the prefix
        reach, sizes = dict(islice(reach.items(), sizes[p - 1])), sizes[:p]
    reach = _reach(elements, group.identity(), group.times, MAX_BRUTE_STATES,
                   "group subset sum: products", order=order, reach=reach,
                   sizes=sizes)
    _last_reach = (group, elements, reach, sizes)
    return reach


def _solve_group(inst, group, elements, target):
    """Group subset sum, a yes re-checked against ``inst``.  A product or
    symmetric group must have a positive degree, and the group must hold
    the target (both checked on every call) and the elements (checked on
    every call for the DP; for the closure, those past the prefix it shares
    with the reach memo).  Z_q runs the modular bitset DP when its q cells
    fit ``MAX_DP_CELLS``; every other case runs the reach closure."""
    if not isinstance(group, I.CyclicGroup) and group.k < 1:
        # Z_0^0 and S_0 hold their empty target, but validate rejects them
        raise ValidationError(f"{group.family} group: degree must be positive")
    if not group.contains(target):
        raise ValidationError(f"{group.family} group: target out of range")
    if isinstance(group, I.CyclicGroup) and group.q <= MAX_DP_CELLS:
        if not all(map(group.contains, elements)):
            raise ValidationError("cyclic group: element out of range")
        got = kernels.subset_sum_mod_solve(list(elements), group.q, target)
        if got is None:
            return _NO["dp"]
        return _yes(inst, tuple(got), "dp")
    reach = _group_reach(group, elements)
    if target not in reach:
        return _NO["reach"]
    return _yes(inst, _walk(reach, target), "reach")


def solve_group_ss(inst: I.GroupSubsetSumInstance) -> Verdict:
    return _solve_group(inst, inst.group, inst.elements, inst.target)


# ---------------------------------------------------------------------------
# Counter machines.

# One entry per distinct vector: the key the cache keeps alive (the vector
# and its dimension), the two masks and the cache's own slots.  Measured
# with tracemalloc on vectors of small ints, a full cache takes about
# 0.5 KB per entry at dimension 19 and 0.75 KB at dimension 49 (the
# coloring-to-cm dimension at k = 14), so the 1,024 entries hold at most
# 0.8 MB while the dimension is at most 49.
CM_MASKS_CACHE = 1024
# the text of the kernel's RuntimeError once its states exceed the limit
_CM_STATE_LIMIT = "counter machine state limit exceeded"


@lru_cache(maxsize=CM_MASKS_CACHE)
def _vector_masks(v: tuple, dim: int) -> tuple[int, int]:
    """The +1 mask and the -1 mask of one vector of length ``dim``.  A
    vector of another length or with an entry outside {-1, 0, 1} is a
    ValidationError, which the cache does not keep."""
    if len(v) != dim:
        raise ValidationError(
            "counter machine: vector length differs from dimension")
    inc = dec = 0
    for j, c in enumerate(v):
        # most entries are 0: one comparison each
        if c == 0:
            continue
        if c == 1:
            inc |= 1 << j
        elif c == -1:
            dec |= 1 << j
        else:
            raise ValidationError(
                "counter machine: vector entries must be in {-1,0,1}")
    return inc, dec


def cm_masks(inst: I.CounterMachineInstance) -> tuple[tuple, tuple, list[bool]]:
    """The +1 mask, the -1 mask and the required bit of each vector.  A
    machine ``instances.validate`` rejects (a dimension below 1, flags that
    do not line up with the vectors, a vector of another length, an entry
    outside {-1, 0, 1} or one that cannot be hashed, a flag other than O or
    R) is a ValidationError.  Each distinct vector's masks are computed
    once (``_vector_masks``); the machines coloring-to-cm builds share
    their vectors."""
    dim, vectors, flags = inst.dimension, inst.vectors, inst.flags
    if dim < 1:
        raise ValidationError("counter machine: dimension must be at least 1")
    if len(flags) != len(vectors):
        raise ValidationError("counter machine: flags and vectors must align")
    try:
        masks = tuple(zip(*map(_vector_masks, vectors, repeat(dim))))
    except TypeError:
        # an unhashable entry makes the vector unhashable
        raise ValidationError(
            "counter machine: vector entries must be in {-1,0,1}") from None
    if flags.count(I.REQUIRED) + flags.count(I.OPTIONAL) != len(flags):
        raise ValidationError("counter machine: flags must be 'O' or 'R'")
    incs, decs = masks or ((), ())
    return incs, decs, [*map(eq, flags, repeat(I.REQUIRED))]


def solve_counter_machine(inst: I.CounterMachineInstance) -> Verdict:
    incs, decs, req = cm_masks(inst)
    try:
        got = kernels.counter_machine_solve(incs, decs, req, inst.dimension,
                                            MAX_CM_STATES)
    except RuntimeError as exc:
        # only the state limit is a refusal; a failed walk back is a bug
        if str(exc) != _CM_STATE_LIMIT:
            raise
        raise ResourceLimitError(str(exc)) from exc
    if got is None:
        return _NO["frontier"]
    return _yes(inst, tuple(got), "frontier")


# ---------------------------------------------------------------------------
# 3-coloring.

def solve_coloring(inst: I.ColoringInstance) -> Verdict:
    """The brute search over 3^n colorings when its work is at most
    ``COLORING_BRUTE_OPS``, else the DP over the path decomposition's bags,
    whose states ``MAX_COLORING_STATES`` gates.  Each wins on some inputs:
    the brute search stops at the first proper coloring, the DP empties its
    layer at the first uncolorable bag."""
    _refuse_invalid(inst)
    n = inst.num_vertices
    m = len(inst.edges)
    if n <= 12 and 3 ** n * (m + 1) <= COLORING_BRUTE_OPS:
        return _coloring_brute(inst)
    return _coloring_dp(inst)


def _coloring_brute(inst):
    n = inst.num_vertices
    colors = [0] * n
    for code in range(3 ** n):
        c = code
        for v in range(n):
            colors[v] = c % 3
            c //= 3
        if all(colors[u] != colors[v] for u, v in inst.edges):
            return _yes(inst, tuple(colors), "brute")
    return _NO["brute"]


def _coloring_dp(inst):
    from .pathdecomp import make_nice
    _, commands = make_nice(inst.num_vertices, inst.edges, inst.bags)
    layers = [{(): None}]
    total = 1
    for cmd in commands:
        prev = layers[-1]
        cur = {}
        if cmd[0] == "introduce":
            v = cmd[1]
            for key in prev:
                for c in range(3):
                    nk = tuple(sorted(key + ((v, c),)))
                    cur[nk] = (key, (v, c))
        elif cmd[0] == "forget":
            v = cmd[1]
            for key in prev:
                nk = tuple(kv for kv in key if kv[0] != v)
                if nk not in cur:
                    cur[nk] = (key, None)
        else:
            _, u, v = cmd
            for key in prev:
                cmap = dict(key)
                if cmap[u] != cmap[v]:
                    cur[key] = (key, None)
        total += len(cur)
        if total > MAX_COLORING_STATES:
            raise ResourceLimitError("coloring: bag states over budget")
        layers.append(cur)
        if not cur:
            return _NO["dp"]
    # make_nice ends on an empty bag, so a nonempty last layer is {(): ...}
    assign = {}
    key = ()
    for j in range(len(layers) - 1, 0, -1):
        key, picked = layers[j][key]
        if picked is not None:
            assign[picked[0]] = picked[1]
    colors = tuple(assign[v] for v in range(inst.num_vertices))
    return _yes(inst, colors, "dp")


# ---------------------------------------------------------------------------
# Scheduling (minimize tardy weight against a budget).

def solve_scheduling(inst: I.SchedulingInstance) -> Verdict:
    """The on-time set as a knapsack front over the jobs in due-date order.

    A set of jobs can all be on time exactly when running them in due-date
    order meets every due date (Lawler and Moore, 1969), so the on-time set
    is a front over (processing, weight) whose cost is capped at each job's
    due date, and it must reach the total weight minus the tardy budget.
    The fronts stored are gated by ``MAX_DP_CELLS`` pairs.
    """
    _refuse_invalid(inst)
    jobs = inst.jobs
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i][2], i))
    goal = sum(w for _, w, _ in jobs) - inst.tardy_budget
    try:
        got = kernels.pareto_solve([jobs[i][:2] for i in order],
                                   [jobs[i][2] for i in order], goal,
                                   MAX_DP_CELLS)
    except RuntimeError as exc:
        raise ResourceLimitError(f"scheduling: {exc}") from exc
    if got is None:
        return _NO["pareto"]
    on_time = [order[k] for k in got]
    tardy = sorted(set(range(len(jobs))).difference(on_time))
    return _yes(inst, {"order": tuple(on_time + tardy),
                       "on_time": tuple(sorted(on_time))}, "pareto")


# ---------------------------------------------------------------------------
# CNF satisfiability and AND-SAT.

def solve_cnf(inst: I.CnfInstance) -> Verdict:
    _refuse_invalid(inst)
    k = inst.num_vars
    if k > MAX_BRUTEFORCE_N or \
            (1 << k) * (len(inst.clauses) + 1) > MAX_SAT_OPS:
        raise ResourceLimitError("cnf: instance over budget")
    pos, neg = [], []
    for cl in inst.clauses:
        pm = nm = 0
        for lit in cl:
            if lit > 0:
                pm |= 1 << (lit - 1)
            else:
                nm |= 1 << (-lit - 1)
        pos.append(pm)
        neg.append(nm)
    full = (1 << k) - 1
    for a in range(1 << k):
        if all(a & pm or ~a & full & nm for pm, nm in zip(pos, neg)):
            return _yes(inst, tuple(bool(a >> i & 1) for i in range(k)), "brute")
    return _NO["brute"]


def solve_and_sat(inst: I.AndSatInstance) -> Verdict:
    _refuse_invalid(inst)
    sols = []
    for f in inst.formulas:
        got = solve_cnf(f)
        if not got.answer:
            return _NO["per-formula"]
        sols.append(got.solution)
    return _yes(inst, tuple(sols), "per-formula")


# ---------------------------------------------------------------------------
# Unbounded subset sum.

def solve_unbounded_ss(inst: I.UnboundedSubsetSumInstance) -> Verdict:
    """Shift doubling: a 0/1 subset sum over the items p, 2p, 4p, ... <= t.

    After k of item p's doubles any count of p below 2^k is reachable, and
    2^k > t/p covers every count that fits.
    """
    _refuse_invalid(inst)
    t = inst.target
    n = len(inst.items)
    if (t + 1) * max(n, 1) > MAX_DP_CELLS:
        raise ResourceLimitError("unbounded subset sum: instance over budget")
    doubles, owner = [], []
    for i, p in enumerate(inst.items):
        copies = 1
        while 1 <= p * copies <= t:
            doubles.append(p * copies)
            owner.append((i, copies))
            copies <<= 1
    got = kernels.subset_sum_solve(doubles, t)
    if got is None:
        return _NO["dp"]
    counts: dict[int, int] = {}
    for k in got:
        i, copies = owner[k]
        counts[i] = counts.get(i, 0) + copies
    return _yes(inst, counts, "dp")


# ---------------------------------------------------------------------------
# Dispatch and checking.

_SOLVERS = {
    "subset_sum": solve_subset_sum,
    "knapsack": solve_knapsack,
    "ilp": solve_ilp,
    "group_subset_sum": solve_group_ss,
    "counter_machine": solve_counter_machine,
    "coloring": solve_coloring,
    "scheduling": solve_scheduling,
    "cnf": solve_cnf,
    "and_sat": solve_and_sat,
    "unbounded_subset_sum": solve_unbounded_ss,
}


def solve(inst: I.ProblemInstance) -> Verdict:
    try:
        solver = _SOLVERS[inst.kind]
    except KeyError:
        raise ValidationError(f"no solver for kind {inst.kind!r}") from None
    try:
        return solver(inst)
    except TypeError:
        # a fast path that skips ``validate`` meets a float (say) only in
        # its arithmetic: ``validate`` names it then, at no cost before
        _refuse_invalid(inst)
        raise


def check_solution(inst: I.ProblemInstance, sol) -> bool:
    """Standalone re-check of a claimed solution; no solver state involved."""
    k = inst.kind
    try:
        if k == "subset_sum":
            idx = list(sol)
            if idx != sorted(set(idx)) or not all(0 <= i < len(inst.items) for i in idx):
                return False
            total = sum(inst.items[i] for i in idx)
            if inst.modulus is not None:
                return total % inst.modulus == inst.target % inst.modulus
            return total == inst.target
        if k == "knapsack":
            idx = list(sol)
            if idx != sorted(set(idx)) or not all(0 <= i < len(inst.items) for i in idx):
                return False
            return (sum(inst.items[i][0] for i in idx) <= inst.capacity and
                    sum(inst.items[i][1] for i in idx) >= inst.demand)
        if k == "ilp":
            x = list(sol)
            if len(x) != len(inst.columns) or any(v not in (0, 1) for v in x):
                return False
            for j in range(inst.num_rows):
                if sum(x[i] * inst.columns[i][j] for i in range(len(x))) != inst.rhs[j]:
                    return False
            if inst.variant == "zero_sum" and not any(x):
                return False
            return True
        if k == "group_subset_sum":
            idx = list(sol)
            if idx != sorted(set(idx)) or not all(0 <= i < len(inst.elements) for i in idx):
                return False
            g = inst.group
            chosen = [inst.elements[i] for i in idx]
            # the Z_k^k and S_k multiplies would truncate a tuple of
            # another length
            if not all(map(g.contains, chosen + [inst.target])):
                return False
            acc = g.identity()
            for e in chosen:
                acc = g.mul(acc, e)
            return acc == inst.target
        if k == "counter_machine":
            # idx is sorted, so its ends bound the range
            idx = sorted(set(sol))
            vectors = inst.vectors
            if list(sol) != idx or idx and not (0 <= idx[0] and idx[-1] < len(vectors)):
                return False
            required = compress(count(), map(eq, inst.flags, repeat(I.REQUIRED)))
            if not set(idx).issuperset(required):
                return False
            rows = list(map(vectors.__getitem__, idx))
            if any(map(ne, map(len, rows), repeat(inst.dimension))):
                return False
            # each counter's running values stay in {0, 1} and end at 0,
            # checked column by column in the order of a plain loop.  The
            # sum reads the whole column, so an entry such as None or "" is
            # a TypeError (False) before ``filter`` could drop it; the
            # entries ``filter`` drops are zeros, which change no running
            # value.
            cols = list(zip(*rows))
            ends_at_zero = map(not_, map(sum, cols))
            stays_01 = map({0, 1}.issuperset,
                           map(accumulate, map(filter, repeat(None), cols)))
            return all(map(and_, ends_at_zero, stays_01))
        if k == "coloring":
            cols = list(sol)
            if len(cols) != inst.num_vertices or any(c not in (0, 1, 2) for c in cols):
                return False
            return all(cols[u] != cols[v] for u, v in inst.edges)
        if k == "scheduling":
            order = list(sol["order"])
            on_time = set(sol["on_time"])
            if sorted(order) != list(range(len(inst.jobs))):
                return False
            time = 0
            for i in order:
                p, w, d = inst.jobs[i]
                time += p
                if i in on_time and time > d:
                    return False
            tardy_w = sum(inst.jobs[i][1] for i in range(len(inst.jobs))
                          if i not in on_time)
            return tardy_w <= inst.tardy_budget
        if k == "cnf":
            a = list(sol)
            if len(a) != inst.num_vars:
                return False
            return all(any((lit > 0) == bool(a[abs(lit) - 1]) for lit in cl)
                       for cl in inst.clauses)
        if k == "and_sat":
            sols = list(sol)
            if len(sols) != len(inst.formulas):
                return False
            return all(check_solution(f, s) for f, s in zip(inst.formulas, sols))
        if k == "unbounded_subset_sum":
            total = 0
            for i, c in dict(sol).items():
                i, c = int(i), int(c)
                if not (0 <= i < len(inst.items) and c >= 1):
                    return False
                total += c * inst.items[i]
            return total == inst.target
    except (TypeError, KeyError, IndexError, AttributeError):
        return False
    return False
