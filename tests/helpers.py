"""Reference decoders, builders and solvers the tests check the library
against, and Hypothesis strategies for instances and instance-shaped JSON.

The library decodes witness fields with shifts and masks from a cached
layout and builds permutations in place; these are the plain versions it
replaced, kept here as references.  ``brute_scheduling`` tries every job
order, with no appeal to the due-date argument the scheduling oracle
rests on.  ``min_solution_length`` tries every index subsequence of a
Z_k^k instance, shortest first.  ``primes_landau`` is the plain
large-order recipe that the Landau-function table of
``groups.landau_permutation`` must never lose to.
"""

import math
from itertools import combinations, permutations

from hypothesis import strategies as st

from redkit import instances as I
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


def brute_scheduling(inst):
    """Whether some order of the jobs keeps the tardy weight within budget."""
    jobs = inst.jobs
    for order in permutations(range(len(jobs))):
        clock = 0
        tardy = 0
        for i in order:
            p, w, d = jobs[i]
            clock += p
            if clock > d:
                tardy += w
        if tardy <= inst.tardy_budget:
            return True
    return not jobs and inst.tardy_budget >= 0


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
_SHAPES = {
    "subset_sum": {"items": _INT_LIST, "target": _INT, "modulus": _INT},
    "knapsack": {"items": _INT_ROWS, "capacity": _INT, "demand": _INT},
    "ilp": {"columns": _INT_ROWS, "rhs": _INT_LIST,
            "variant": st.sampled_from(I.ILP_VARIANTS)},
    "group_subset_sum": {
        "group": st.fixed_dictionaries({
            "family": st.sampled_from(("cyclic", "product", "symmetric")),
            "q": _INT, "k": _INT}),
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


@st.composite
def _instance_shaped(draw):
    """A dict naming a kind, each of its fields (or a few left out) holding
    a value of the right shape or random JSON."""
    kind = draw(st.sampled_from(I.KINDS))
    out = {"problem": kind}
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
