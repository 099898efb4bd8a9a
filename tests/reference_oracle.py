"""An independent referee for group subset sum, plain subset sum and 0-1
ILP.

Each function decides an instance that ``instances.validate`` accepts from
an explicit ``set``, grown one element at a time:
- ``group_subset_sum(inst)``: every subsequence product, with each group's
  multiply written out here;
- ``subset_sum(inst)``: every subset sum of a subset-sum instance without
  a modulus;
- ``ilp(inst)``: every row-sum vector of the columns, each marked by
  whether a nonempty set of columns gives it (the zero-sum variant asks
  for one).

They import nothing from ``redkit.oracles`` or ``redkit.kernels``, keep
nothing between calls and return no solution, so a fault in the oracles'
reach closure, their memos or their bitset DPs is not repeated here.
``tests/test_reference_oracle.py`` compares them with the oracles.
"""

from itertools import permutations, product


def _identity(group):
    if group.family == "cyclic":
        return 0
    if group.family == "product":
        return (0,) * group.k
    return tuple(range(group.k))


def _multiply(group, a, e):
    """a * e: addition mod q, componentwise addition mod k, or the
    composition (a * e)(v) = a(e(v)) of image tuples."""
    if group.family == "cyclic":
        return (a + e) % group.q
    if group.family == "product":
        return tuple((x + y) % group.k for x, y in zip(a, e))
    return tuple(a[v] for v in e)


def members(group):
    """Every element of ``group``, as the referee writes products."""
    if group.family == "cyclic":
        return list(range(group.q))
    if group.family == "product":
        return list(product(range(group.k), repeat=group.k))
    return list(permutations(range(group.k)))


def group_subset_sum(inst) -> bool:
    """Whether some subsequence of ``inst.elements`` multiplies, in index
    order, to ``inst.target``."""
    group = inst.group
    products = {_identity(group)}
    for e in inst.elements:
        products |= {_multiply(group, a, e) for a in products}
    target = inst.target
    return (target if group.family == "cyclic" else tuple(target)) in products


def subset_sum(inst) -> bool:
    """Whether some subset of ``inst.items`` sums to ``inst.target``."""
    sums = {0}
    for p in inst.items:
        sums |= {s + p for s in sums}
    return inst.target in sums


def ilp(inst) -> bool:
    """Whether some 0/1 x has ``A x = inst.rhs`` for the columns of A,
    with x nonzero for the zero-sum variant."""
    reached = {((0,) * len(inst.rhs), False)}
    for col in inst.columns:
        reached |= {(tuple(a + b for a, b in zip(vec, col)), True)
                    for vec, _ in reached}
    rhs = tuple(inst.rhs)
    return (rhs, True) in reached or \
        (inst.variant != "zero_sum" and (rhs, False) in reached)
