"""An independent referee for group subset sum.

``group_subset_sum(inst)`` decides a ``GroupSubsetSumInstance`` that
``instances.validate`` accepts from an explicit ``set`` of every
subsequence product, grown one element at a time, with each group's
multiply written out here.  It imports nothing from ``redkit.oracles`` or
``redkit.kernels``, keeps nothing between calls and returns no solution,
so a fault in the oracle's reach closure, its memo or its bitset DP is
not repeated here.  ``tests/test_reference_oracle.py`` compares the two.
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
