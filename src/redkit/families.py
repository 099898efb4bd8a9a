"""Deterministic instance families.

Exhaustive grids for the checking harnesses (every generator enumerates in a
fixed order) and seeded random generators for spot checks and the CLI.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from random import Random
from typing import Iterator

from . import instances as I
from .errors import ValidationError

# ---------------------------------------------------------------------------
# Numeric grids.


def subset_sums(max_n: int = 5, max_item: int = 8,
                max_target: int = 40) -> Iterator[I.SubsetSumInstance]:
    """Item multisets over [1, max_item] with every target up to one past the
    total (capped), so each family member has a beyond-sum no-instance."""
    for n in range(max_n + 1):
        for items in combinations_with_replacement(range(1, max_item + 1), n):
            for t in range(min(max_target, sum(items) + 1) + 1):
                yield I.SubsetSumInstance(items, t)


def knapsacks(max_n: int = 3, max_val: int = 6) -> Iterator[I.KnapsackInstance]:
    pairs = [(p, w) for p in range(1, max_val + 1)
             for w in range(1, max_val + 1)]
    for n in range(max_n + 1):
        for items in combinations_with_replacement(pairs, n):
            for cap in range(max_val + 1):
                for dem in range(max_val + 1):
                    yield I.KnapsackInstance(items, cap, dem)


def ilps(variant: str = "standard", max_m: int = 2,
         max_n: int = 4) -> Iterator[I.IlpInstance]:
    entries = (0, 1) if variant == "monotone" else (-1, 0, 1)
    for m in range(1, max_m + 1):
        opts = list(product(entries, repeat=m))
        for n in range(max_n + 1):
            for cols in combinations_with_replacement(opts, n):
                if variant == "zero_sum":
                    yield I.IlpInstance(cols, (0,) * m, variant=variant)
                    continue
                lo = 0 if variant == "monotone" else -n
                for rhs in product(range(lo, n + 1), repeat=m):
                    yield I.IlpInstance(cols, rhs, variant=variant)


def zq_instances(max_q: int = 8, max_n: int = 4) -> Iterator[I.GroupSubsetSumInstance]:
    for q in range(1, max_q + 1):
        group = I.CyclicGroup(q)
        for n in range(max_n + 1):
            for elems in combinations_with_replacement(range(q), n):
                for t in range(q):
                    yield I.GroupSubsetSumInstance(group, elems, t)


def zkk_instances(k: int = 2, max_n: int = 5) -> Iterator[I.GroupSubsetSumInstance]:
    group = I.ProductGroup(k)
    opts = list(product(range(k), repeat=k))
    for n in range(max_n + 1):
        for elems in product(opts, repeat=n):
            for t in opts:
                yield I.GroupSubsetSumInstance(group, elems, t)


def unbounded_instances(max_n: int = 3, max_item: int = 8,
                        max_target: int = 20) -> Iterator[I.UnboundedSubsetSumInstance]:
    for n in range(max_n + 1):
        for items in combinations_with_replacement(range(1, max_item + 1), n):
            for t in range(max_target + 1):
                yield I.UnboundedSubsetSumInstance(items, t)


# ---------------------------------------------------------------------------
# Counter machines.


def cm_grid(dimension: int, max_n: int) -> Iterator[I.CounterMachineInstance]:
    opts = [(vec, flag) for vec in product((-1, 0, 1), repeat=dimension)
            for flag in (I.OPTIONAL, I.REQUIRED)]
    for n in range(max_n + 1):
        for seq in product(opts, repeat=n):
            vectors, flags = zip(*seq) if n else ((), ())
            yield I.CounterMachineInstance(dimension, vectors, flags)


def cm_samples(dimension: int, n: int, count: int,
               seed: int = 0) -> Iterator[I.CounterMachineInstance]:
    rng = Random(1_000_003 * seed + 1009 * dimension + n)
    for _ in range(count):
        vectors = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(dimension))
                        for _ in range(n))
        flags = tuple(rng.choice((I.OPTIONAL, I.REQUIRED)) for _ in range(n))
        yield I.CounterMachineInstance(dimension, vectors, flags)


def cm_contract_family(seed: int = 0) -> Iterator[I.CounterMachineInstance]:
    """Dimension 1 exhaustively to n=5 and dimension 2 to n=3, then seeded
    samples at the larger sizes where the full grid is out of reach."""
    yield from cm_grid(1, 5)
    yield from cm_grid(2, 3)
    for n in (4, 5):
        yield from cm_samples(2, n, 1200, seed=seed)


# ---------------------------------------------------------------------------
# Graphs with path decompositions.


def graphs_upto(max_n: int = 5) -> Iterator[I.ColoringInstance]:
    """Every graph on at most max_n labelled vertices, one all-vertex bag."""
    for v in range(max_n + 1):
        pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
        bags = (tuple(range(v)),) if v else ()
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            yield I.ColoringInstance(v, edges, bags)


_NAMED_GRAPHS = {
    "k3": (3, ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),)),
    "k4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
           ((0, 1, 2, 3),)),
    "c5": (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
           ((0, 1, 2), (0, 2, 3), (0, 3, 4))),
    "p4": (4, ((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2), (2, 3))),
}


def named_graph(name: str) -> I.ColoringInstance:
    try:
        return I.ColoringInstance(*_NAMED_GRAPHS[name])
    except KeyError:
        raise ValidationError(
            f"unknown graph {name!r}; choose from {sorted(_NAMED_GRAPHS)}") \
            from None


def random_coloring(rng: Random, num_vertices: int,
                    edge_prob: float = 0.5) -> I.ColoringInstance:
    edges = tuple((a, b) for a in range(num_vertices)
                  for b in range(a + 1, num_vertices)
                  if rng.random() < edge_prob)
    bags = (tuple(range(num_vertices)),) if num_vertices else ()
    return I.ColoringInstance(num_vertices, edges, bags)


# ---------------------------------------------------------------------------
# Formulas.


def cnfs(max_vars: int = 2, max_clauses: int = 2,
         arity: int = 2) -> Iterator[I.CnfInstance]:
    """All CNFs (clause multisets over literal sets) at the given bounds."""
    lits = [v for i in range(1, max_vars + 1) for v in (i, -i)]
    pool = []
    for size in range(1, arity + 1):
        for cl in combinations_with_replacement(lits, size):
            if len(set(cl)) == size:
                pool.append(cl)
    pool = sorted(set(tuple(sorted(set(c), key=abs)) for c in pool))
    for count in range(max_clauses + 1):
        for clauses in combinations_with_replacement(pool, count):
            yield I.CnfInstance(max_vars, clauses)


def and_sats(max_formulas: int = 2, max_vars: int = 2,
             max_clauses: int = 2, arity: int = 2) -> Iterator[I.AndSatInstance]:
    """Multisets of up to ``max_formulas`` CNFs from ``cnfs``, by count.
    The members of one formula or none stream from ``cnfs``; the list of
    every CNF is built only for two formulas or more."""
    if max_formulas >= 0:
        yield I.AndSatInstance(max_vars, ())
    if max_formulas >= 1:
        for f in cnfs(max_vars, max_clauses, arity):
            yield I.AndSatInstance(max_vars, (f,))
    if max_formulas >= 2:
        pool = list(cnfs(max_vars, max_clauses, arity))
        for count in range(2, max_formulas + 1):
            for formulas in combinations_with_replacement(pool, count):
                yield I.AndSatInstance(max_vars, formulas)


def random_3cnf(rng: Random, num_vars: int = 3,
                max_clauses: int = 4) -> I.CnfInstance:
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        choice = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in sorted(choice)))
    return I.CnfInstance(num_vars, tuple(clauses))


# ---------------------------------------------------------------------------
# Seeded random instances (round trips, CLI gen).


def random_subset_sum(rng: Random, max_n: int = 6,
                      max_item: int = 30) -> I.SubsetSumInstance:
    items = tuple(rng.randint(1, max_item)
                  for _ in range(rng.randint(0, max_n)))
    return I.SubsetSumInstance(items, rng.randint(0, sum(items) + 1))


def random_knapsack(rng: Random, max_n: int = 5,
                    max_val: int = 12) -> I.KnapsackInstance:
    items = tuple((rng.randint(1, max_val), rng.randint(1, max_val))
                  for _ in range(rng.randint(0, max_n)))
    return I.KnapsackInstance(items, rng.randint(0, max_val),
                              rng.randint(0, max_val))


def random_ilp(rng: Random, variant: str = "standard", max_m: int = 3,
               max_n: int = 5) -> I.IlpInstance:
    m = rng.randint(1, max_m)
    n = rng.randint(0, max_n)
    entries = (0, 1) if variant == "monotone" else (-1, 0, 1)
    cols = tuple(tuple(rng.choice(entries) for _ in range(m))
                 for _ in range(n))
    if variant == "zero_sum":
        rhs = (0,) * m
    else:
        lo = 0 if variant == "monotone" else -n
        rhs = tuple(rng.randint(lo, n) for _ in range(m))
    return I.IlpInstance(cols, rhs, variant=variant)


def random_cnf(rng: Random, num_vars: int = 3, max_clauses: int = 4,
               arity: int = 3) -> I.CnfInstance:
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        size = rng.randint(1, min(arity, num_vars))
        choice = rng.sample(range(1, num_vars + 1), size)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in sorted(choice)))
    return I.CnfInstance(num_vars, tuple(clauses))
