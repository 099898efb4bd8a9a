"""An independent referee for every instance kind.

``decide(inst)`` answers an instance that ``instances.validate`` accepts
with the function named after its ``kind``.  Each grows an explicit
``set`` one item at a time, or tries every candidate:
- ``subset_sum``: every subset sum, as a set of residues mod q when the
  instance has a modulus q;
- ``knapsack``: every (size, weight) pair of a subset within the capacity;
- ``ilp``: every row-sum vector of the columns, each marked by whether a
  nonempty set of columns gives it (the zero-sum variant asks for one);
- ``group_subset_sum``: every subsequence product (``products``), with
  each group's multiply written out here;
- ``counter_machine``: every counter vector a subsequence reaches with its
  counters kept in {0, 1}, each REQUIRED vector taken;
- ``coloring``: each of the 3^n colorings;
- ``scheduling``: each order of the jobs;
- ``cnf``: each assignment; ``and_sat``: each formula by ``cnf``;
- ``unbounded_subset_sum``: every sum up to the target of items taken any
  number of times.

They import nothing from ``redkit.oracles`` or ``redkit.kernels``, keep
nothing between calls and return no solution, so a fault in the oracles'
reach closure, their memos, their bitset DPs or their fronts is not
repeated here.  ``tests/test_reference_oracle.py`` checks the imports,
and the oracle tests compare ``solve`` with these functions.
"""

from itertools import permutations, product

from redkit.instances import REQUIRED


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


def products(group, elements):
    """The products, in index order, of every subsequence of ``elements``."""
    out = {_identity(group)}
    for e in elements:
        out |= {_multiply(group, a, e) for a in out}
    return out


def group_subset_sum(inst) -> bool:
    """Whether some subsequence of ``inst.elements`` multiplies, in index
    order, to ``inst.target``."""
    target = inst.target
    return (target if inst.group.family == "cyclic" else tuple(target)) in \
        products(inst.group, inst.elements)


def subset_sum(inst) -> bool:
    """Whether some subset of ``inst.items`` sums to ``inst.target``, or to
    it mod q for a modulus q."""
    q = inst.modulus
    sums = {0}
    for p in inst.items:
        sums |= {s + p if q is None else (s + p) % q for s in sums}
    return inst.target in sums


def knapsack(inst) -> bool:
    """Whether some subset of the (size, weight) items fits the capacity
    and weighs at least the demand."""
    pairs = {(0, 0)}
    for p, w in inst.items:
        pairs |= {(s + p, v + w) for s, v in pairs if s + p <= inst.capacity}
    return any(v >= inst.demand for _, v in pairs)


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


def counter_machine(inst) -> bool:
    """Whether some subsequence of the vectors, with every REQUIRED one,
    keeps each running counter in {0, 1} and ends at zero."""
    zero = (0,) * inst.dimension
    states = {zero}
    for v, flag in zip(inst.vectors, inst.flags):
        moved = {s for s in (tuple(a + b for a, b in zip(c, v))
                             for c in states) if {0, 1}.issuperset(s)}
        states = moved if flag == REQUIRED else states | moved
    return zero in states


def coloring(inst) -> bool:
    """Whether some coloring of the vertices by 3 colors leaves no edge's
    ends alike."""
    return any(all(c[u] != c[v] for u, v in inst.edges)
               for c in product(range(3), repeat=inst.num_vertices))


def scheduling(inst) -> bool:
    """Whether some order of the jobs keeps the weight of the late ones
    within the budget."""
    for order in permutations(inst.jobs):
        clock = tardy = 0
        for p, w, d in order:
            clock += p
            if clock > d:
                tardy += w
        if tardy <= inst.tardy_budget:
            return True
    return False


def cnf(inst) -> bool:
    """Whether some assignment of the variables meets every clause."""
    return any(all(any(a[abs(lit) - 1] == (lit > 0) for lit in cl)
                   for cl in inst.clauses)
               for a in product((False, True), repeat=inst.num_vars))


def and_sat(inst) -> bool:
    """Whether every formula is satisfiable on its own."""
    return all(map(cnf, inst.formulas))


def unbounded_subset_sum(inst) -> bool:
    """Whether items, each taken any number of times, sum to the target."""
    t = inst.target
    sums = new = {0}
    while new:
        new = {s + p for s in new for p in inst.items if s + p <= t} - sums
        sums |= new
    return t in sums


DECIDERS = {f.__name__: f for f in (
    subset_sum, knapsack, ilp, group_subset_sum, counter_machine, coloring,
    scheduling, cnf, and_sat, unbounded_subset_sum)}


def decide(inst) -> bool:
    """The referee's answer for ``inst``, by the decider of its kind."""
    return DECIDERS[inst.kind](inst)
