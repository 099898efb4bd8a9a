"""Reference decoders, builders and solvers the tests check the library
against, and Hypothesis strategies for instances and instance-shaped JSON.

The library decodes witness fields with shifts and masks from a cached
layout and builds permutations in place; these are the plain versions it
replaced, kept here as references.  ``min_solution_length`` tries every
index subsequence of a Z_k^k instance, shortest first.  ``primes_landau``
is the plain large-order recipe that the Landau-function table of
``groups.landau_permutation`` must never lose to.  ``gates`` sets the
oracles' gate constants for a block.  ``PREFIX_RUNS`` draws runs of
group subset-sum element tuples that share prefixes of element objects,
as consecutive sources of a family grid do.
"""

import math
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers

from redkit import instances as I
from redkit import oracles
from redkit.errors import ValidationError
from redkit.groups import Permutation, from_cycles


def unpack_fields(wit, widths):
    """The fields of ``wit``, most significant first, ``widths`` bits each."""
    if wit.length != sum(widths):
        raise ValidationError("witness length does not match field widths")
    out = []
    rest = wit.value
    shift = wit.length
    for w in widths:
        shift -= w
        out.append((rest >> shift) & ((1 << w) - 1))
    return tuple(out)


@contextmanager
def gates(**values):
    """``redkit.oracles``' gate constants, ``MAX_DP_CELLS=0`` say, set for
    the block from cleared memos: the reach memo is not keyed by
    ``MAX_BRUTE_STATES``, and a set built under one cap must never answer
    under a lower one; the subset-sum memo starts the block empty, so that
    the block's calls alone decide when it builds its set.  A
    ``MonkeyPatch.context()``, so that it also runs inside ``@given``,
    where a function-scoped fixture cannot."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_last_reach", (None,) * 4)
        mp.setattr(oracles, "_last_sums", (None, None))
        for name, value in values.items():
            mp.setattr(oracles, name, value)
        yield


@contextmanager
def no_source_constants():
    """A block in which Hypothesis draws no literal from the source.  Now
    and then it draws a constant from the non-test modules loaded so far
    (``providers._get_local_constants``), so a derandomized run's examples
    change with the redkit modules earlier tests happened to load; with an
    empty pool it draws the same examples in any test order.  Its cache of
    the constants each draw permits is emptied on entry and on exit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(providers, "_get_local_constants", providers.Constants)
        providers.CONSTANTS_CACHE.cache.clear()
        try:
            yield
        finally:
            providers.CONSTANTS_CACHE.cache.clear()


def block_diagonal(perms):
    """Concatenate permutations acting on consecutive disjoint blocks."""
    img = []
    off = 0
    for p in perms:
        img.extend(off + q for q in p)
        off += p.degree
    return Permutation(img)


def primes_landau(n):
    """(perm, k): one cycle for each prime up to sqrt(k), on consecutive
    points of a degree-k permutation, for the least k up to 128 whose
    primes multiply past n, so the order exceeds n."""
    for k in range(2, 129):
        primes = [p for p in range(2, math.isqrt(k) + 1)
                  if all(p % d for d in range(2, p))]
        if math.prod(primes) > n and sum(primes) <= k:
            starts = [sum(primes[:i]) for i in range(len(primes))]
            return from_cycles(k, [tuple(range(s, s + p))
                                   for s, p in zip(starts, primes)]), k
    raise ValueError(f"no degree up to 128 has order above {n}")


def min_solution_length(inst):
    """The fewest elements of a Z_k^k instance that sum to its target, or
    None when no subsequence does."""
    k, n = inst.group.k, len(inst.elements)
    target = tuple(inst.target)
    for size in range(n + 1):
        for idxs in combinations(range(n), size):
            acc = (0,) * k
            for i in idxs:
                acc = tuple((a + b) % k for a, b in zip(acc, inst.elements[i]))
            if acc == target:
                return size
    return None


# ---------------------------------------------------------------------------
# Outside input: random JSON, and dicts naming a kind whose fields hold
# values of the right shape or random JSON.

# integers stay within 10^4 so that a vertex count costs little to check
_INT = st.integers(-10 ** 4, 10 ** 4) | st.integers(0, 99).map(str)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _INT | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

_INT_LIST = st.lists(_INT, max_size=4)
_INT_ROWS = st.lists(_INT_LIST, max_size=3)
# each kind's JSON keys, and a group's; ``test_instances`` checks that they
# are the keys the fields declare
_GROUP_SHAPE = {"family": st.sampled_from(("cyclic", "product", "symmetric")),
                "q": _INT, "k": _INT}
_SHAPES = {
    "subset_sum": {"items": _INT_LIST, "target": _INT, "modulus": _INT},
    "knapsack": {"items": _INT_ROWS, "capacity": _INT, "demand": _INT},
    "ilp": {"columns": _INT_ROWS, "rhs": _INT_LIST,
            "variant": st.sampled_from(I.ILP_VARIANTS)},
    "group_subset_sum": {
        "group": st.fixed_dictionaries(_GROUP_SHAPE),
        "elements": _INT_ROWS | _INT_LIST, "target": _INT_LIST | _INT},
    "counter_machine": {"dimension": _INT, "vectors": _INT_ROWS,
                        "flags": st.lists(st.sampled_from("OR"), max_size=3)},
    "coloring": {"n": _INT, "edges": _INT_ROWS, "bags": _INT_ROWS},
    "scheduling": {"jobs": _INT_ROWS, "tardy_budget": _INT},
    "cnf": {"num_vars": _INT, "clauses": _INT_ROWS, "arity_cap": _INT},
    "and_sat": {"num_vars": _INT,
                "formulas": st.lists(st.deferred(lambda: SHAPED_INSTANCES),
                                     max_size=2)},
    "unbounded_subset_sum": {"items": _INT_LIST, "target": _INT},
}


# a group dict with a small order and degree, so that elements shaped for
# it (``_group_element``) stay small
_SMALL_GROUP = st.fixed_dictionaries(
    {"family": _GROUP_SHAPE["family"], "q": st.integers(1, 40),
     "k": st.integers(1, 5)})


def _group_element(group):
    """A strategy for one element of ``group``, a ``_SMALL_GROUP`` dict, as
    JSON: an int in [0, q) for a cyclic group, a row of k ints in [0, k)
    for a product group, a permutation of [0, k) for a symmetric group."""
    if group["family"] == "cyclic":
        return st.integers(0, group["q"] - 1)
    k = group["k"]
    if group["family"] == "product":
        return st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    return st.permutations(range(k))


# Of 1,000 derandomized draws with no source constants (``test_instances``'
# ``test_shaped_draws_reach_valid_group_instances``), 76 load as group
# subset sum and 52 of them validate, so ``solve`` reaches the group oracle
# on them; with each field drawn alone, none loaded.
@st.composite
def _instance_shaped(draw):
    """A dict naming a kind, each of its fields (or a few left out) holding
    a value of the right shape or random JSON.  Group subset sum is named
    twice as often as each other kind, and half of its draws instead get
    a ``_SMALL_GROUP`` with elements and a target shaped for it; a third
    of those get one element or the target shaped for another size of
    the same family instead (a larger order, another degree), which
    ``validate`` rejects unless it fits this size too."""
    kind = draw(st.sampled_from(I.KINDS + ("group_subset_sum",)))
    out = {"problem": kind}
    if kind == "group_subset_sum" and draw(st.booleans()):
        group = out["group"] = draw(_SMALL_GROUP)
        element = _group_element(group)
        elements = out["elements"] = draw(st.lists(element, max_size=4))
        out["target"] = draw(element)
        if not draw(st.integers(0, 2)):
            k = group["k"]
            other = dict(group, q=group["q"] + draw(st.integers(1, 40)),
                         k=draw(st.integers(1, 5).filter(k.__ne__)))
            stray = draw(_group_element(other))
            slot = draw(st.integers(0, len(elements)))
            if slot < len(elements):
                elements[slot] = stray
            else:
                out["target"] = stray
        return out
    for key, shaped in _SHAPES[kind].items():
        if draw(st.integers(0, 9)):
            out[key] = draw(shaped | JSON_VALUES)
    return out


SHAPED_INSTANCES = _instance_shaped()


# ---------------------------------------------------------------------------
# Well-formed instances of every kind, keyed by kind.


def _ints(lo, hi, size=None):
    if size is not None:
        return st.tuples(*[st.integers(lo, hi)] * size)
    return st.lists(st.integers(lo, hi), max_size=4).map(tuple)


_BIG = st.integers(0, 1 << 70)


@st.composite
def _group_instance(draw):
    family = draw(st.sampled_from(("cyclic", "product", "symmetric")))
    if family == "cyclic":
        q = draw(st.integers(1, 1 << 70))
        elem = st.integers(0, q - 1)
        group = I.CyclicGroup(q)
    elif family == "product":
        k = draw(st.integers(1, 4))
        elem = _ints(0, k - 1, k)
        group = I.ProductGroup(k)
    else:
        k = draw(st.integers(1, 5))
        elem = st.permutations(range(k)).map(lambda p: Permutation(tuple(p)))
        group = I.SymmetricGroup(k)
    return I.GroupSubsetSumInstance(
        group, tuple(draw(st.lists(elem, max_size=4))), draw(elem))


_CNF = st.builds(I.CnfInstance, st.integers(0, 5),
                 st.lists(_ints(-5, 5), max_size=3).map(tuple),
                 st.none() | st.integers(0, 4))

INSTANCES = {
    "subset_sum": st.builds(I.SubsetSumInstance,
                            st.lists(_BIG, max_size=4).map(tuple), _BIG,
                            st.none() | _BIG),
    "knapsack": st.builds(I.KnapsackInstance,
                          st.lists(st.tuples(_BIG, _BIG),
                                   max_size=3).map(tuple), _BIG, _BIG),
    "ilp": st.builds(I.IlpInstance, st.lists(_ints(-1, 1), max_size=3).map(
        tuple), _ints(-3, 3), st.sampled_from(I.ILP_VARIANTS)),
    "group_subset_sum": _group_instance(),
    "counter_machine": st.builds(
        I.CounterMachineInstance, st.integers(1, 3),
        st.lists(_ints(-1, 1), max_size=3).map(tuple),
        st.lists(st.sampled_from((I.OPTIONAL, I.REQUIRED)),
                 max_size=3).map(tuple)),
    "coloring": st.builds(I.ColoringInstance, st.integers(0, 6),
                          st.lists(_ints(0, 6, 2), max_size=4).map(tuple),
                          st.lists(_ints(0, 6), max_size=3).map(tuple)),
    "scheduling": st.builds(I.SchedulingInstance,
                            st.lists(st.tuples(_BIG, _BIG, _BIG),
                                     max_size=3).map(tuple), _BIG),
    "cnf": _CNF,
    "and_sat": st.builds(I.AndSatInstance, st.integers(0, 5),
                         st.lists(_CNF, max_size=2).map(tuple)),
    "unbounded_subset_sum": st.builds(I.UnboundedSubsetSumInstance,
                                      st.lists(_BIG, max_size=4).map(tuple),
                                      _BIG),
}


# ---------------------------------------------------------------------------
# Runs of element tuples in one group, each sharing a prefix of element
# objects with the one before, as consecutive sources of a family grid
# share theirs.  Each group comes with an element it does not contain.


def _cells(k):
    return st.tuples(*[st.integers(0, k - 1)] * k)


def _distinct(e):
    """An element equal to ``e`` but a new object (the small ints of Z_q
    are shared by the interpreter, so those stay themselves)."""
    if isinstance(e, Permutation):
        return Permutation(list(e))
    return tuple(list(e)) if isinstance(e, tuple) else e


@st.composite
def _prefix_runs(draw):
    """(group, runs, cap): a group, a list of element tuples, each made of
    a drawn prefix of the one before (the very objects) and new objects
    after it, about one in forty outside the group; and a cap on the
    products, or None."""
    group, elem, outside = draw(st.one_of(
        st.integers(1, 3).map(lambda k: (
            I.ProductGroup(k), _cells(k), (1,) * (k - 1) + (k,))),
        st.integers(1, 4).map(lambda k: (
            I.SymmetricGroup(k), st.permutations(range(k)).map(Permutation),
            Permutation(range(k + 1)))),
        st.integers(1, 30).map(lambda q: (
            I.CyclicGroup(q), st.integers(0, q - 1), q))))

    def new(most):
        return [_distinct(outside if draw(st.integers(0, 39)) == 0
                          else draw(elem))
                for _ in range(draw(st.integers(0, most)))]
    runs = [tuple(new(8))]
    for _ in range(draw(st.integers(1, 5))):
        last = runs[-1]
        runs.append(tuple([*last[:draw(st.integers(0, len(last)))],
                           *new(3)]))
    return group, runs, draw(st.none() | st.integers(1, 30))


PREFIX_RUNS = _prefix_runs()
