"""Oracle correctness against the independent referee of
``reference_oracle`` and against references written in the tests, so the
library solvers are never their own referee.
"""

import gc
import tracemalloc
from itertools import accumulate, product, repeat
from operator import add, attrgetter
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from redkit import instances as I
from redkit import kernels, oracles
from redkit.errors import (ConstructionError, ResourceLimitError,
                           ValidationError)
from redkit.groups import Permutation
from redkit.oracles import (Verdict, _coloring_dp, check_solution, solve,
                            solve_coloring, solve_group_ss, solve_ilp,
                            solve_scheduling)

from helpers import PREFIX_RUNS, SHAPED_INSTANCES, gates
from reference_oracle import decide, products


def test_knapsack():
    rng = Random(2)
    for _ in range(400):
        items = tuple((rng.randint(1, 8), rng.randint(1, 8))
                      for _ in range(rng.randint(0, 5)))
        inst = I.KnapsackInstance(items, rng.randint(0, 12), rng.randint(0, 12))
        got = solve(inst)
        assert got.answer == decide(inst), inst
        assert got.method == "pareto"
        if got.answer:
            assert check_solution(inst, got.solution)


def test_knapsack_with_large_values_keeps_a_small_front():
    # a dense table would need 30 * 1,500,001 cells; the front holds at most
    # one pair per count of items taken
    inst = I.KnapsackInstance(((100_000, 100_000),) * 30, 1_500_000, 1_500_000)
    got = solve(inst)
    assert got.answer and got.method == "pareto"
    assert check_solution(inst, got.solution) and len(got.solution) == 15
    assert not solve(I.KnapsackInstance(inst.items, 1_499_999, 1_500_000)).answer


def test_knapsack_with_negative_capacity_is_refused():
    # validate rejects a negative capacity; this was answered no
    for items in ((), ((1, 1),), ((1, 2), (2, 3))):
        for demand in (0, 1):
            inst = I.KnapsackInstance(items, -1, demand)
            assert I.validate(inst), inst
            for gate in ({}, {"MAX_DP_CELLS": 0}):
                with gates(**gate), \
                        pytest.raises(ValidationError, match="knapsack"):
                    solve(inst)


@pytest.mark.parametrize("variant", ["standard", "monotone", "zero_sum"])
def test_ilp_variants(variant):
    # several rhs on one columns tuple, as the targets of one ilp-to-monotone
    # source share their columns, with entries up to one past the most any
    # row can reach, on each side
    rng = Random(3)
    entries = (0, 1) if variant == "monotone" else (-1, 0, 1)
    searched = 0
    for _ in range(200):
        m = rng.randint(0, 3)
        n = rng.randint(0, 6)
        cols = tuple(tuple(rng.choice(entries) for _ in range(m))
                     for _ in range(n))
        low = -1 if variant == "monotone" else -n - 1
        for _ in range(1 if variant == "zero_sum" else rng.randint(1, 4)):
            rhs = (0,) * m if variant == "zero_sum" else tuple(
                rng.randint(low, n + 1) if rng.random() < 0.3 else
                rng.randint(max(low, -3), 3) for _ in range(m))
            inst = I.IlpInstance(cols, rhs, variant=variant)
            got = solve(inst)
            assert got.answer == decide(inst), inst
            if got.answer:
                assert check_solution(inst, got.solution)
            if variant == "zero_sum":
                assert got.method == "observation"
                continue
            # small systems go through the encoded subset sum
            assert got.method in ("dp", "range"), (inst, got)
            # without DP cells only an empty table stays on the DP path
            with gates(MAX_DP_CELLS=0):
                mitm = solve(inst)
            assert mitm.answer == got.answer, inst
            if mitm.answer:
                assert check_solution(inst, mitm.solution)
            if mitm.method == "mitm":
                searched += 1
            else:
                assert mitm.method == got.method, (inst, mitm)
    assert variant == "zero_sum" or searched >= 80, searched


def test_zero_sum_refuses_a_malformed_rhs():
    # the zero-sum oracle read only the columns: an rhs that was not all
    # zeros, or not one entry per row, was answered as the zero rhs
    cols = ((1, -1), (-1, 1))
    cases = [I.IlpInstance(cols, (0, 1), "zero_sum"),
             I.IlpInstance(cols, (0,), "zero_sum"),
             I.IlpInstance(cols, (0, 0, 0), "zero_sum"),
             I.IlpInstance(((1,), (-1,)), (-1,), "zero_sum"),
             I.IlpInstance((), (1,), "zero_sum")]
    for inst in cases:
        assert I.validate(inst)
        for gate in ({}, {"MAX_DP_CELLS": 0}, {"MAX_BRUTE_STATES": 0},
                     {"MAX_DP_CELLS": 0, "MAX_BRUTE_STATES": 0}):
            with gates(**gate), \
                    pytest.raises(ValidationError, match="rhs must be zeros"):
                solve(inst)
    assert solve(I.IlpInstance(cols, (0, 0), "zero_sum")).answer


def test_ilp_wide_systems_meet_in_the_middle():
    rng = Random(12)
    for i in range(20):
        n = 9 + i % 6
        cols = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(6))
                     for _ in range(n))
        x = [rng.randint(0, 1) for _ in range(n)]
        rhs = [sum(c[j] for c, xi in zip(cols, x) if xi) for j in range(6)]
        if i % 2:
            rhs[rng.randrange(6)] += rng.choice((-1, 1))
        inst = I.IlpInstance(cols, rhs)
        got = solve(inst)
        assert got.answer == decide(inst), inst
        if got.answer:
            assert check_solution(inst, got.solution)
        if got.method != "range":
            assert got.method == "mitm", (inst, got)
    # no room for either path
    with gates(MAX_DP_CELLS=0, MAX_BRUTE_STATES=1), \
            pytest.raises(ResourceLimitError):
        solve(inst)


def test_ilp_meet_in_the_middle_codes_the_columns_once(monkeypatch):
    coded = []
    column_codes = kernels.ilp_column_codes
    monkeypatch.setattr(kernels, "ilp_column_codes",
                        lambda *a: coded.append(a) or column_codes(*a))
    # columns no other test uses, so the first solve is a cache miss
    row = (1, -1, 0, 1, 0, -1, 0, 1)
    cols = tuple(row[i:] + row[:i] for i in range(8)) + \
        ((1, 1, 1, 1, -1, -1, -1, -1),)
    monkeypatch.setattr(oracles, "MAX_DP_CELLS", 0)
    for x in ((1,) * 9, (0, 1) * 4 + (1,), (1, 0) * 4 + (0,)):
        inst = I.IlpInstance(cols, tuple(
            sum(c[j] for c, xi in zip(cols, x) if xi) for j in range(8)))
        got = solve(inst)
        assert got.method == "mitm" and check_solution(inst, got.solution)
    assert len(coded) == 1


def test_ilp_repeated_columns_are_bundled():
    # 60 copies of one column: 2^30 sums per half without bundles
    col = (1,) * 8
    yes = I.IlpInstance((col,) * 60, (30,) * 8, "monotone")
    got = solve(yes)
    assert got.answer and sum(got.solution) == 30
    assert check_solution(yes, got.solution)
    # every choice keeps the rows equal
    assert not solve(I.IlpInstance((col,) * 60, (30,) * 7 + (29,))).answer
    mixed = I.IlpInstance(((1, -1),) * 5 + ((0, 1),) * 3, (2, 1))
    got = solve(mixed)
    assert got.answer == decide(mixed) and check_solution(mixed, got.solution)


def test_ilp_rhs_beyond_row_reach_is_no():
    # in base 3, rhs (-2, 1) has the code of column (1, 0): -2 + 3 == 1
    inst = I.IlpInstance(((1, 0),), (-2, 1))
    got = solve(inst)
    assert not got.answer and got.method == "range"
    assert not decide(inst)
    assert not solve(I.IlpInstance(((1,), (1,)), (3,), "monotone")).answer


def test_counter_machine():
    rng = Random(5)
    for _ in range(300):
        dim = rng.randint(1, 3)
        n = rng.randint(0, 6)
        vectors = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(dim))
                        for _ in range(n))
        flags = tuple(rng.choice((I.OPTIONAL, I.REQUIRED)) for _ in range(n))
        inst = I.CounterMachineInstance(dim, vectors, flags)
        got = solve(inst)
        assert got.answer == decide(inst), inst
        if got.answer:
            assert check_solution(inst, got.solution)


def test_coloring_brute_and_dp_agree():
    rng = Random(6)
    from redkit.families import random_coloring
    for _ in range(120):
        inst = random_coloring(rng, rng.randint(0, 5))
        expected = decide(inst)
        # graphs of at most 5 vertices take the brute path, so the DP is
        # called directly
        for got, method in ((solve_coloring(inst), "brute"),
                            (_coloring_dp(inst), "dp")):
            assert got.answer == expected and got.method == method, inst
            if got.answer:
                assert check_solution(inst, got.solution)


def test_scheduling_dp_and_brute_agree():
    rng = Random(7)
    for _ in range(200):
        jobs = tuple((rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 9))
                     for _ in range(rng.randint(0, 6)))
        inst = I.SchedulingInstance(jobs, rng.randint(0, 10))
        expected = decide(inst)
        got = solve_scheduling(inst)
        assert got.answer == expected and got.method == "pareto", inst
        if got.answer:
            assert check_solution(inst, got.solution)


def test_cnf_and_andsat():
    rng = Random(8)
    from redkit.families import random_cnf
    for _ in range(200):
        inst = random_cnf(rng, rng.randint(1, 4))
        assert solve(inst).answer == decide(inst), inst
    for _ in range(100):
        formulas = tuple(random_cnf(rng, 2, 2) for _ in range(rng.randint(0, 3)))
        inst = I.AndSatInstance(2, formulas)
        assert solve(inst).answer == decide(inst), inst


def test_unbounded_subset_sum():
    rng = Random(9)
    for _ in range(300):
        items = tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 4)))
        inst = I.UnboundedSubsetSumInstance(items, rng.randint(0, 25))
        got = solve(inst)
        assert got.answer == decide(inst), inst
        if got.answer:
            assert check_solution(inst, got.solution)


def test_check_solution_rejects_corruption():
    inst = I.SubsetSumInstance((3, 5, 7), 8)
    good = solve(inst).solution
    assert check_solution(inst, good)
    assert not check_solution(inst, [0])
    assert not check_solution(inst, [0, 0, 1])
    assert not check_solution(inst, [0, 5])
    assert not check_solution(inst, "nonsense")

    cm = I.CounterMachineInstance(1, ((1,), (-1,)), (I.OPTIONAL, I.REQUIRED))
    assert check_solution(cm, [0, 1])
    assert not check_solution(cm, [1])     # counter dips below zero
    assert not check_solution(cm, [0])     # omits the required vector
    # a chosen vector shorter or longer than the dimension
    for short_or_long in ((-1,), (-1, 0, 0)):
        cm = I.CounterMachineInstance(2, ((1, 0), short_or_long),
                                      (I.OPTIONAL,) * 2)
        assert not check_solution(cm, [0, 1])


_ONE_CLAUSE = I.CnfInstance(2, ((1, 2),))


@pytest.mark.parametrize("inst, sol", [
    (I.KnapsackInstance(((2, 1), (1, 1)), 3, 1), (0, 0)),
    (I.IlpInstance(((1,), (1,)), (1,)), (1,)),
    (I.IlpInstance(((1,), (1,)), (1,)), (1, 1)),
    (I.IlpInstance(((1,), (-1,)), (0,), "zero_sum"), (0, 0)),
    (I.GroupSubsetSumInstance(I.CyclicGroup(5), (1, 2), 3), (2,)),
    (I.GroupSubsetSumInstance(I.CyclicGroup(5), (1, 2), 7), (0,)),
    (I.ColoringInstance(2, ((0, 1),), ((0, 1),)), (0, 3)),
    (I.SchedulingInstance(((1, 1, 1), (1, 1, 1)), 0),
     {"order": (0,), "on_time": (0,)}),
    (I.SchedulingInstance(((2, 1, 1),), 0), {"order": (0,), "on_time": (0,)}),
    (_ONE_CLAUSE, (1,)),
    (I.AndSatInstance(2, (_ONE_CLAUSE, _ONE_CLAUSE)), ((1, 0),)),
    (I.UnboundedSubsetSumInstance((2,), 4), {0: 0}),
], ids=["knapsack-repeated-index", "ilp-short", "ilp-row-total",
        "zero-sum-empty", "group-index-past-end", "group-target-outside",
        "coloring-fourth-color", "scheduling-order-not-a-permutation",
        "scheduling-on-time-job-late", "cnf-short", "and-sat-short",
        "unbounded-zero-count"])
def test_check_solution_answers_a_malformed_solution_false(inst, sol):
    # each meets its kind's own reject branch, not the catch-all
    assert check_solution(inst, sol) is False


def test_budget_limits_raise():
    inst = I.SubsetSumInstance(tuple(range(1, 9)), 20)
    with gates(MAX_DP_CELLS=4, MAX_BRUTE_STATES=4, MAX_BRUTEFORCE_N=2), \
            pytest.raises(ResourceLimitError):
        solve(inst)
    # 27 counters, each raised by its own optional vector: 2^27 states
    units = tuple(tuple(int(i == j) for j in range(27)) for i in range(27))
    big_cm = I.CounterMachineInstance(27, units, (I.OPTIONAL,) * 27)
    with gates(MAX_CM_STATES=10_000), pytest.raises(ResourceLimitError):
        solve(big_cm)
    # the dimension alone is no limit
    assert solve(I.CounterMachineInstance(27, ((1,) * 27,), (I.OPTIONAL,))).answer
    with gates(MAX_DP_CELLS=0), pytest.raises(ResourceLimitError):
        solve(I.KnapsackInstance(((1, 1),), 1, 1))
    # no room for a front is a refusal at every job count
    for n in (1, 8, 9):
        jobs = I.SchedulingInstance(((1, 1, 1),) * n, n - 1)
        assert solve(jobs).answer
        with gates(MAX_DP_CELLS=0), pytest.raises(ResourceLimitError):
            solve(jobs)


def test_counter_machine_oracle_refuses_malformed_input():
    # each was answered (or, for the entry 2, raised ConstructionError)
    # though validate rejects it
    cases = [I.CounterMachineInstance(2, ((1,), (-1,)), (I.REQUIRED,) * 2),
             I.CounterMachineInstance(1, ((1, 0),), (I.OPTIONAL,)),
             I.CounterMachineInstance(1, ((1,), (-1,)), (I.REQUIRED,)),
             I.CounterMachineInstance(1, ((1,), (-1,)), (I.OPTIONAL,) * 3),
             I.CounterMachineInstance(1, ((0,),), ("X",)),
             I.CounterMachineInstance(1, ((2,),), (I.REQUIRED,)),
             I.CounterMachineInstance(1, ((None,),), (I.OPTIONAL,)),
             I.CounterMachineInstance(0, ((),), (I.OPTIONAL,))]
    for inst in cases:
        assert I.validate(inst), inst
        for gate in ({}, {"MAX_CM_STATES": 1}):
            with gates(**gate), \
                    pytest.raises(ValidationError, match="counter machine"):
                solve(inst)


def _ref_cm_masks(inst):
    """The per-entry loop ``cm_masks`` ran before its mask cache: the
    reference for the masks and the required bits."""
    incs, decs, req = [], [], []
    for v, f in zip(inst.vectors, inst.flags):
        inc = dec = 0
        for j, c in enumerate(v):
            if c == 1:
                inc |= 1 << j
            elif c == -1:
                dec |= 1 << j
            elif c != 0:
                raise ValidationError("entry")
        if f not in (I.OPTIONAL, I.REQUIRED):
            raise ValidationError("flag")
        incs.append(inc)
        decs.append(dec)
        req.append(f == I.REQUIRED)
    return incs, decs, req


# entries equal to -1, 0 or 1 of every type a machine may hold; equal
# vectors of different types share one cache entry
_CM_ENTRIES = st.sampled_from((-1, 0, 1, True, False, 1.0, -1.0, 0.0, -0.0))


@st.composite
def _cm_machines(draw, entries=_CM_ENTRIES, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    vectors = draw(st.lists(st.tuples(*[entries] * dim), max_size=7))
    flags = draw(st.lists(st.sampled_from((I.OPTIONAL, I.REQUIRED)),
                          min_size=len(vectors), max_size=len(vectors)))
    return I.CounterMachineInstance(dim, tuple(vectors), tuple(flags))


@settings(max_examples=300, deadline=None)
@given(_cm_machines())
def test_cm_masks_match_the_per_entry_loop(inst):
    want = _ref_cm_masks(inst)
    assert list(map(list, oracles.cm_masks(inst))) == list(want)
    # a second call reads every vector from the cache
    assert list(map(list, oracles.cm_masks(inst))) == list(want)


def _distinct_vectors(dim, count, seed):
    rng = Random(seed)
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.choice((-1, 0, 1)) for _ in range(dim)))
    return list(seen)


def test_cm_masks_refusals_hold_on_a_warm_and_an_evicted_cache():
    def refused():
        for bad in (2, None, "a", [1]):
            # the vector differs from a cached one in one entry only
            inst = I.CounterMachineInstance(
                2, ((1, 0), (bad, -1)), (I.OPTIONAL,) * 2)
            for gate in ({}, {"MAX_CM_STATES": 1}):
                with gates(**gate), \
                        pytest.raises(ValidationError, match="counter machine"):
                    solve(inst)

    warm = I.CounterMachineInstance(2, ((1, 0), (-1, 0), (0, -1)),
                                    (I.OPTIONAL,) * 3)
    assert solve(warm).answer
    refused()
    for v in _distinct_vectors(12, oracles.CM_MASKS_CACHE + 100, 0):
        oracles.cm_masks(I.CounterMachineInstance(12, (v,), (I.OPTIONAL,)))
    info = oracles._vector_masks.cache_info()
    assert info.currsize == info.maxsize == oracles.CM_MASKS_CACHE
    refused()
    assert solve(warm).answer


def test_cm_mask_cache_stays_within_its_stated_bytes():
    # the bound stated beside CM_MASKS_CACHE: 0.8 MB while the dimension is
    # at most 49, counting the vectors the cache keeps alive
    vectors = _distinct_vectors(49, 2 * oracles.CM_MASKS_CACHE, 1)
    oracles._vector_masks.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        while vectors:
            # only the cache holds a vector once it is popped
            oracles._vector_masks(vectors.pop(), 49)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert oracles._vector_masks.cache_info().currsize == oracles.CM_MASKS_CACHE
    assert held <= 800_000, held


def test_ilp_columns_cache_stays_within_its_stated_bytes():
    # the bound stated beside ILP_COLUMNS_CACHE: about 2.0 KB an entry for
    # 6 rows and 9-12 columns, counting the columns the cache keeps alive,
    # and about 0.13 MB when full
    rng = Random(0)
    systems = [tuple(map(tuple, _distinct_vectors(6, rng.randint(9, 12), s)))
               for s in range(2 * oracles.ILP_COLUMNS_CACHE)]
    oracles._ilp_columns.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        while systems:
            # only the cache holds a system once it is popped
            oracles._ilp_columns(systems.pop(), 6)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    entries = oracles._ilp_columns.cache_info().currsize
    assert entries == oracles.ILP_COLUMNS_CACHE
    assert held <= 2_200 * entries, held / entries
    assert oracles.ILP_COLUMNS_CACHE * 2_200 <= 145_000


def _reference_ilp_columns(columns, rows):
    """The column layout built entry by entry, one column at a time."""
    for col in columns:
        if len(col) != rows:
            raise ValidationError("ilp: column length differs from rhs length")
        if not {-1, 0, 1}.issuperset(col):
            raise ValidationError("ilp: column entries must be in {-1,0,1}")
    groups = {}
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
    totals = [0] * rows
    for col in cols:
        for j, a in enumerate(col):
            totals[j] += abs(a)
    base = 2 * max(totals, default=0) + 1
    codes = []
    for col in cols:
        acc = 0
        for d in reversed(col):
            acc = acc * base + d
        codes.append(acc)
    keep = tuple(b for b, c in enumerate(codes) if c)
    return oracles._IlpColumns(
        tuple(bundles), tuple(codes), tuple(totals), base,
        tuple(abs(codes[b]) for b in keep), keep,
        -sum(c for c in codes if c < 0), tuple(int(c < 0) for c in codes),
        any(-1 in col for col in columns))


def _layout_or_refusal(build, columns, rows):
    try:
        return build(columns, rows)
    except ValidationError as exc:
        return str(exc)


def test_ilp_columns_equal_the_reference_build():
    from redkit.families import ilps
    systems = {(inst.columns, len(inst.rhs))
               for variant in ("standard", "monotone")
               for inst in ilps(variant, 2, 4)}
    rng = Random(22)
    for _ in range(3_000):
        # columns drawn from a small pool, so that some repeat
        rows = rng.randint(1, 6)
        pool = [tuple(rng.choice((-1, 0, 1)) for _ in range(rows))
                for _ in range(rng.randint(1, 8))]
        systems.add((tuple(rng.choice(pool)
                           for _ in range(rng.randint(0, 12))), rows))
    assert len(systems) > 3_000
    # a short column, an entry 2 and an entry True, alone and after another
    # fault or a sound column (a list: a set would keep one of two systems
    # equal by value)
    faults = [(before + (bad, (1, -1)), 2)
              for bad in ((1,), (1, 2), (True, -1))
              for before in ((), ((0, 1),), ((2,),), ((0, True),))]
    build = oracles._ilp_columns.__wrapped__
    refusals = set()
    for columns, rows in [*systems, *faults]:
        want = _layout_or_refusal(_reference_ilp_columns, columns, rows)
        assert _layout_or_refusal(build, columns, rows) == want, columns
        if isinstance(want, str):
            refusals.add(want)
    assert refusals == {"ilp: column length differs from rhs length",
                        "ilp: column entries must be in {-1,0,1}"}


def test_ilp_columns_cache_never_keeps_a_float_column():
    # 1.0 hashes like 1: a kept entry built from the float columns would
    # answer the int system equal to them, whose codes would then be
    # floats, and the int entry kept answered the equal float columns
    oracles._ilp_columns.cache_clear()
    floats = I.IlpInstance(((1.0,), (1,)), (1,))
    with pytest.raises(ValidationError, match="must be ints"):
        solve(floats)
    assert oracles._ilp_columns.cache_info().currsize == 0
    assert solve(I.IlpInstance(((1,), (1,)), (2,))).solution == (1, 1)
    with pytest.raises(ValidationError, match="must be ints"):
        solve(floats)


def test_counter_machine_walk_back_failure_is_not_a_resource_limit(monkeypatch):
    inst = I.CounterMachineInstance(1, ((1,), (-1,)), (I.REQUIRED,) * 2)
    # the -1 and +1 coordinates of the second vector overlap, so the walk
    # back from state 0 finds no predecessor
    monkeypatch.setattr(oracles, "cm_masks",
                        lambda inst: ([1, 1], [0, 1], [True, True]))
    for gate in ({}, {"MAX_CM_STATES": 3}):
        with gates(**gate), pytest.raises(
                RuntimeError, match="reconstruction failed") as got:
            solve(inst)
        assert not isinstance(got.value, ResourceLimitError)
    # the state limit is still a refusal
    with gates(MAX_CM_STATES=2), \
            pytest.raises(ResourceLimitError, match="state limit"):
        solve(inst)


def _ref_cm_check(inst, sol):
    """The counter-machine rule ``check_solution`` ran before its
    column-wise passes: the reference it must agree with."""
    try:
        idx = sorted(set(sol))
        if list(sol) != idx or not all(0 <= i < len(inst.vectors) for i in idx):
            return False
        required = {i for i, f in enumerate(inst.flags) if f == I.REQUIRED}
        if not required <= set(idx):
            return False
        rows = [inst.vectors[i] for i in idx]
        if any(len(v) != inst.dimension for v in rows):
            return False
        for col in zip(*rows):
            if sum(col) or not {0, 1}.issuperset(accumulate(col)):
                return False
        return True
    except (TypeError, KeyError, IndexError, AttributeError):
        return False


# mostly -1, 0 and 1, so that many index lists are solutions; the rest are
# entries a malformed machine may hold
_CHECK_ENTRIES = st.one_of(
    st.sampled_from((-1, 0, 1)),
    st.sampled_from((True, False, 1.0, -0.0, 2, -2, 0.5, None, "")))


@st.composite
def _cm_checks(draw):
    inst = draw(_cm_machines(_CHECK_ENTRIES))
    if draw(st.booleans()):
        # vectors of another length, flags that do not line up
        vectors = inst.vectors + (draw(st.tuples(*[_CHECK_ENTRIES] *
                                                 draw(st.integers(0, 5)))),)
        flags = inst.flags + tuple(draw(st.lists(
            st.sampled_from((I.OPTIONAL, I.REQUIRED, "X")), max_size=2)))
        inst = I.CounterMachineInstance(inst.dimension, vectors, flags)
    n = len(inst.vectors)
    sol = draw(st.one_of(
        st.lists(st.integers(0, max(n - 1, 0)), unique=True).map(sorted),
        st.lists(st.integers(-2, n + 1), max_size=8),
        st.lists(st.sampled_from((0.0, 1.0, 0.5)), max_size=3),
        st.just(oracles.solve(inst).solution or ())
        if not I.validate(inst) else st.just(())))
    return inst, sol


@settings(max_examples=500, deadline=None)
@given(_cm_checks())
@example((I.CounterMachineInstance(1, ((None,),), (I.OPTIONAL,)), [0]))
@example((I.CounterMachineInstance(1, (("",),), (I.OPTIONAL,)), [0]))
@example((I.CounterMachineInstance(1, ((1,), (None,), (-1,)),
                                   (I.OPTIONAL,) * 3), [0, 1, 2]))
@example((I.CounterMachineInstance(2, ((1, 0), (0, "")), (I.OPTIONAL,) * 2),
          [0, 1]))
def test_counter_machine_check_matches_the_accumulate_rule(case):
    inst, sol = case
    assert check_solution(inst, sol) is _ref_cm_check(inst, sol)


def test_counter_machine_check_cases():
    inst = I.CounterMachineInstance(
        2, ((1, 0), (0, 1), (-1, 0), (0, -1)),
        (I.REQUIRED, I.OPTIONAL, I.OPTIONAL, I.OPTIONAL))
    for sol, want in (([0, 2], True), ([0, 1, 2, 3], True),
                      ((0, 2), True), ([2, 0], False), ([0, 0, 2], False),
                      ([0, 2, 4], False), ([-1, 0, 2], False),
                      ([0.0, 2.0], False), ([1, 3], False),
                      ([0, 3], False), ([], False)):
        assert check_solution(inst, sol) is want, sol
        assert _ref_cm_check(inst, sol) is want, sol
    # an index below 0 would pick the zero vector from the end; a row of
    # another length would leave a column out of ``zip``
    for inst, sol in (
            (I.CounterMachineInstance(1, ((0,),), (I.OPTIONAL,)), [-1]),
            (I.CounterMachineInstance(2, ((1, 0), (-1,)), (I.OPTIONAL,) * 2),
             [0, 1])):
        assert not check_solution(inst, sol), (inst, sol)
        assert not _ref_cm_check(inst, sol), (inst, sol)


_PATH = ((0, 1),)    # one bag holding both vertices of a 2-vertex graph


@pytest.mark.parametrize("inst", [
    I.ColoringInstance(2, ((0, 5),), _PATH),
    I.ColoringInstance(2, ((1, 1),), _PATH),
    I.CnfInstance(1, ((0,),)),
    I.CnfInstance(1, ((2,),)),
    I.CnfInstance(2, ((),)),
    I.CnfInstance(2, ((1, 2),), arity_cap=1),
    I.AndSatInstance(1, (I.CnfInstance(2, ((1, 2),)),)),
    I.SchedulingInstance(((0, 1, 1),), 0),
    I.SchedulingInstance(((1, 1, 1),), -1),
    I.KnapsackInstance(((0, 1),), 2, 2),
    I.KnapsackInstance(((1, 1),), 1, -1),
    I.IlpInstance(((2, 0),), (0, 0)),
    I.IlpInstance(((1,), (-2,)), (1,), "monotone"),
    I.UnboundedSubsetSumInstance((2,), -1),
    I.UnboundedSubsetSumInstance((-1, 3), 2),
    I.SubsetSumInstance((3, -1), 2),
    I.SubsetSumInstance((1,), -1),
    I.IlpInstance(((1,), (-1,)), (0,), "monotone"),
    I.IlpInstance(((-1,),), (-1,), "monotone"),
    I.IlpInstance(((1,),), (1,), "bogus"),
    I.SubsetSumInstance((0.5, 2), 2),
    I.IlpInstance(((1.0,), (1,)), (1,)),
], ids=["edge-out-of-range", "self-loop", "literal-zero", "literal-past-vars",
        "empty-clause", "over-arity-cap", "and-sat-over-vars",
        "processing-zero", "negative-tardy-budget", "knapsack-size-zero",
        "knapsack-negative-demand", "ilp-entry-two", "ilp-entry-minus-two",
        "unbounded-negative-target", "unbounded-negative-item",
        "subset-sum-negative-item", "subset-sum-negative-target",
        "monotone-entry-minus-one", "monotone-minus-one-rhs",
        "ilp-unknown-variant", "subset-sum-float-item", "ilp-float-entry"])
def test_oracles_refuse_what_validate_rejects(inst):
    # each was answered, or ended in a bare IndexError or ValueError, though
    # validate rejects it
    assert I.validate(inst)
    for gate in ({}, {"MAX_DP_CELLS": 0, "MAX_SAT_OPS": 0}):
        with gates(**gate), pytest.raises(ValidationError, match=inst.kind):
            solve(inst)


# the default gates; the closures, the MITM and the coloring DP in place of
# the DPs and the coloring brute search; past both subset-sum methods; stores
# of one entry; and every gate shut
_MISSHAPEN_GATES = (
    {},
    {"MAX_DP_CELLS": 0, "COLORING_BRUTE_OPS": 0},
    {"MAX_DP_CELLS": 0, "MAX_BRUTEFORCE_N": 0},
    {"MAX_BRUTE_STATES": 1, "MAX_CM_STATES": 1, "MAX_COLORING_STATES": 1,
     "MAX_SAT_OPS": 1},
    {name: 0 for name in ("MAX_DP_CELLS", "MAX_BRUTEFORCE_N",
                          "MAX_BRUTE_STATES", "MAX_CM_STATES",
                          "MAX_COLORING_STATES", "MAX_SAT_OPS",
                          "COLORING_BRUTE_OPS")},
)


@settings(max_examples=1000, deadline=None)
@given(SHAPED_INSTANCES)
def test_misshapen_input_is_refused_exactly_when_validate_rejects(data):
    """Whatever ``from_json`` loads, ``solve`` raises ``ValidationError``
    under every gate setting when ``validate`` rejects it, and otherwise
    never does, and every answer it gives agrees."""
    try:
        inst = I.from_json(data)
    except ValidationError:
        return
    rejected = bool(I.validate(inst))
    answers = set()
    for gate in _MISSHAPEN_GATES:
        with gates(**gate):
            try:
                answers.add(solve(inst).answer)
            except ValidationError:
                assert rejected, (inst, gate)
                continue
            except ResourceLimitError:
                pass
        assert not rejected, (inst, gate)
    assert len(answers) <= 1, inst


def test_verdict_truthiness():
    assert bool(Verdict(True, None, "x"))
    assert not bool(Verdict(False, None, "x"))


# ---------------------------------------------------------------------------
# solve_ilp codes each columns tuple once; this reference codes every
# instance from scratch, as solve_ilp did before the cache.


def _ref_solve_ilp(inst):
    groups = {}
    for i, col in enumerate(inst.columns):
        groups.setdefault(col, []).append(i)
    bundles, cols = [], []
    for col, idx in groups.items():
        size = 1
        while idx:
            bundle, idx = idx[:size], idx[size:]
            bundles.append(bundle)
            cols.append(tuple(a * len(bundle) for a in col))
            size <<= 1
    totals = [0] * len(inst.rhs)
    for col in cols:
        for j, a in enumerate(col):
            totals[j] += abs(a)
    if any(abs(b) > r for b, r in zip(inst.rhs, totals)):
        return Verdict(False, method="range")
    base = 2 * max(totals, default=0) + 1

    def code(vec):
        acc = 0
        for d in reversed(vec):
            acc = acc * base + d
        return acc
    codes, goal = [code(col) for col in cols], code(inst.rhs)
    keep = [b for b, c in enumerate(codes) if c]
    target = goal - sum(c for c in codes if c < 0)
    if len(keep) * (target + 1) <= oracles.MAX_DP_CELLS:
        got = kernels.subset_sum_solve([abs(codes[b]) for b in keep], target)
        if got is None:
            return Verdict(False, method="dp")
        chosen = [int(c < 0) for c in codes]
        for k in got:
            chosen[keep[k]] ^= 1
        method = "dp"
    else:
        chosen = kernels.ilp01_brute(codes, inst.rhs, base)
        if chosen is None:
            return Verdict(False, method="mitm")
        method = "mitm"
    x = [0] * len(inst.columns)
    for bundle, pick in zip(bundles, chosen):
        if pick:
            for i in bundle:
                x[i] = 1
    return Verdict(True, tuple(x), method)


@pytest.mark.parametrize("variant", ["standard", "monotone"])
def test_ilp_column_cache_matches_per_target_coding(variant, monkeypatch):
    rng = Random(21)
    entries = (0, 1) if variant == "monotone" else (-1, 0, 1)
    for cells in (oracles.MAX_DP_CELLS, 0):
        monkeypatch.setattr(oracles, "MAX_DP_CELLS", cells)
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(0, 7)
            # repeated columns, so that some bundles hold several copies
            opts = [tuple(rng.choice(entries) for _ in range(m))
                    for _ in range(3)]
            cols = tuple(rng.choice(opts) for _ in range(n))
            reach = max(n, 1) + 1
            methods = set()
            # many rhs on one columns tuple, some beyond every row's reach
            for rhs in product(range(-reach if variant == "standard" else 0,
                                     reach + 1), repeat=min(m, 2)):
                rhs = rhs + tuple(rng.randint(-1, n) for _ in range(m - len(rhs)))
                inst = I.IlpInstance(cols, rhs, variant)
                got = solve_ilp(inst)
                assert got == _ref_solve_ilp(inst), inst
                assert got.answer == decide(inst), inst
                methods.add(got.method)
            assert "range" in methods
            # an rhs of the wrong length is refused, and leaves the cache
            # of the right length alone
            if n:
                for bad in (rhs[:-1], rhs + (0,)):
                    with pytest.raises(ValidationError):
                        solve_ilp(I.IlpInstance(cols, bad, variant))
                assert solve_ilp(inst) == _ref_solve_ilp(inst)


# ---------------------------------------------------------------------------
# Symmetric-group reach runs on image tuples; the referee composes its
# products by its own rule.


_perms = st.integers(1, 6).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.permutations(range(k)), max_size=8),
        st.permutations(range(k))))


@settings(max_examples=300, deadline=None)
@given(_perms, st.booleans(), st.booleans())
def test_symmetric_reach_matches_brute_force(case, hit, default):
    k, elems, target = case
    group = I.SymmetricGroup(k)
    elements = tuple(Permutation(tuple(e)) for e in elems)
    reached = products(group, elements)
    if hit:
        # a reachable target, often the identity (the empty product)
        target = sorted(reached)[len(elements) % len(reached)]
    inst = I.GroupSubsetSumInstance(group, elements, Permutation(tuple(target)))
    # the identity's solve below hits the reach memo the first one left
    with gates(**{} if default else {"MAX_BRUTE_STATES": 10 ** 6}):
        got = solve_group_ss(inst)
        ident = I.GroupSubsetSumInstance(group, elements, group.identity())
        ident_got = solve_group_ss(ident)
    assert got.method == "reach"
    assert got.answer == (tuple(target) in reached), inst
    if got.answer:
        acc = group.identity()
        for i in got.solution:
            acc = acc * elements[i]
        assert acc == inst.target
    # the identity is always reached, by the empty product
    assert ident_got == Verdict(True, (), "reach")


def test_symmetric_reach_edges():
    g3 = I.SymmetricGroup(3)
    cyc, swap = Permutation((1, 2, 0)), Permutation((1, 0, 2))
    elements = (cyc, swap, cyc)
    # consecutive targets sharing (group, elements), then other elements
    # of equal value, then the first again: every answer from the referee
    other = tuple(Permutation(e.images) for e in elements)
    reached = products(g3, elements)
    for elems in (elements, elements, other, elements):
        for target in (Permutation(p) for p in
                       ((0, 1, 2), (2, 0, 1), (0, 2, 1), (2, 1, 0))):
            got = solve(I.GroupSubsetSumInstance(g3, elems, target))
            assert got.answer == (target.images in reached)
    assert not solve(I.GroupSubsetSumInstance(g3, (swap,), cyc)).answer
    # a cap too small for the products
    many = tuple(Permutation(p) for p in ((1, 0, 2, 3), (0, 2, 1, 3),
                                          (0, 1, 3, 2), (1, 2, 3, 0)))
    with gates(MAX_BRUTE_STATES=3), pytest.raises(ResourceLimitError):
        solve(I.GroupSubsetSumInstance(I.SymmetricGroup(4), many, many[0]))
    # an element of another degree, an element that is not a Permutation
    # (a plain image tuple or an int) and a target of another degree are
    # refused under either cap, as validate refuses them
    refused = [I.GroupSubsetSumInstance(g3, (cyc, Permutation((1, 0))), cyc),
               I.GroupSubsetSumInstance(g3, (cyc, (1, 0, 2)), cyc),
               I.GroupSubsetSumInstance(g3, (cyc, 1), cyc),
               I.GroupSubsetSumInstance(g3, elements, Permutation((1, 0))),
               I.GroupSubsetSumInstance(g3, elements, (1, 2, 0))]
    for bad in refused:
        assert I.validate(bad)
        for gate in ({}, {"MAX_BRUTE_STATES": 100}):
            with gates(**gate), \
                    pytest.raises(ValidationError, match="out of range"):
                solve(bad)
    # the re-check answers False, and does not raise, when a chosen element
    # or the target has another degree or is not a Permutation
    mixed = I.GroupSubsetSumInstance(
        g3, (cyc, Permutation((1, 0)), Permutation((0, 1, 2, 3))), cyc)
    for sol in ((1,), (0, 1), (2,), (0, 2)):
        assert check_solution(mixed, sol) is False
    assert check_solution(
        I.GroupSubsetSumInstance(g3, (cyc,), Permutation((1, 0))), (0,)) \
        is False
    for elem in (1, (1, 2, 0)):
        assert check_solution(I.GroupSubsetSumInstance(g3, (cyc, elem), cyc),
                              (0, 1)) is False
    assert check_solution(I.GroupSubsetSumInstance(g3, (cyc,), cyc), (0,))


def test_plain_reach_keeps_only_sums_up_to_the_target():
    # sums 0..3 fit a cap of 4 states; all 7 sums of the items would not
    inst = I.SubsetSumInstance((1, 2, 3), 3)
    with gates(MAX_DP_CELLS=0, MAX_BRUTE_STATES=4):
        assert solve(inst) == Verdict(True, (0, 1), "brute")
    with gates(MAX_DP_CELLS=0, MAX_BRUTE_STATES=3), pytest.raises(
            ResourceLimitError, match="reachable sums over budget"):
        solve(inst)


def test_subset_sum_dp_gate_counts_a_table_when_no_item_fits():
    # with no item in [1, t] the gate read 0 * (t+1) cells, and the DP
    # built its (t+1)-bit table past every gate
    for inst in (I.SubsetSumInstance((), 100),
                 I.SubsetSumInstance((200,), 100)):
        with gates(MAX_DP_CELLS=10):
            assert solve(inst) == Verdict(False, method="brute")
    assert solve(I.SubsetSumInstance((), 10 ** 15)) == \
        Verdict(False, method="brute")


def test_cyclic_input_outside_the_group_is_refused():
    # the DP reduced the target mod q and then refused its own solution
    cases = [I.GroupSubsetSumInstance(I.CyclicGroup(5), (2,), 7),
             I.GroupSubsetSumInstance(I.CyclicGroup(5), (2,), -3),
             I.GroupSubsetSumInstance(I.CyclicGroup(5), (2, 5), 2),
             I.SubsetSumInstance((2,), 7, modulus=5),
             I.SubsetSumInstance((2, -1), 2, modulus=5)]
    # residues must be ints: a float raised TypeError in the DP and was
    # answered by reach past it, and a bool was read as its value under
    # both gates
    cyc = I.CyclicGroup(5)
    cases += [I.GroupSubsetSumInstance(cyc, (2.0,), 2),
              I.GroupSubsetSumInstance(cyc, (2,), 2.0),
              I.GroupSubsetSumInstance(cyc, (True,), 1),
              I.GroupSubsetSumInstance(cyc, (1,), True),
              I.SubsetSumInstance((2.0,), 2, modulus=5),
              I.SubsetSumInstance((True,), 1, modulus=5)]
    for inst in cases:
        for gate in ({}, {"MAX_DP_CELLS": 0}):
            with gates(**gate), \
                    pytest.raises(ValidationError, match="out of range"):
                solve(inst)


def test_product_input_outside_the_group_is_refused():
    # the multiply read the first k coordinates, so a longer element was
    # truncated and its solution passed the re-check; a shorter one raised
    # IndexError
    g = I.ProductGroup(2)
    cases = [I.GroupSubsetSumInstance(g, ((1, 0, 1),), (1, 0)),
             I.GroupSubsetSumInstance(g, ((1,),), (1, 0)),
             I.GroupSubsetSumInstance(g, ((2, 1),), (0, 1)),
             I.GroupSubsetSumInstance(g, ((-1, 0),), (1, 0)),
             I.GroupSubsetSumInstance(g, (1,), (1, 0)),
             I.GroupSubsetSumInstance(g, ((1, 0),), (3, 0)),
             I.GroupSubsetSumInstance(g, ((1, 0),), (1, 0, 0)),
             I.GroupSubsetSumInstance(g, ((1, 0),), 1)]
    for inst in cases:
        assert not check_solution(inst, (0,))
        for gate in ({}, {"MAX_DP_CELLS": 0}, {"MAX_BRUTE_STATES": 1},
                     {"MAX_BRUTEFORCE_N": 0}):
            with gates(**gate), \
                    pytest.raises(ValidationError, match="out of range"):
                solve(inst)
    # the elements are checked on a memo miss, the target on every call
    elements = ((1, 0), (0, 1))
    assert solve(I.GroupSubsetSumInstance(g, elements, (1, 1))).answer
    with pytest.raises(ValidationError, match="target out of range"):
        solve(I.GroupSubsetSumInstance(g, elements, (1, 2)))
    with pytest.raises(ValidationError, match="element out of range"):
        solve(I.GroupSubsetSumInstance(g, elements + ((0, 2),), (1, 1)))
    assert solve(I.GroupSubsetSumInstance(g, elements, (1, 1))).answer


def test_product_bool_coordinate_is_refused_as_json_refuses_it():
    # a bool coordinate passed validate and solved yes, though the JSON
    # reader refuses it; CyclicGroup refused a bool element in both
    g = I.ProductGroup(2)
    cases = [I.GroupSubsetSumInstance(g, ((True, 0),), (1, 0)),
             I.GroupSubsetSumInstance(g, ((0, False), (1, 0)), (1, 0)),
             I.GroupSubsetSumInstance(g, ((1, 0),), (True, 0))]
    for inst in cases:
        assert I.validate(inst)
        for gate in ({}, {"MAX_DP_CELLS": 0}, {"MAX_BRUTEFORCE_N": 0}):
            with gates(**gate), \
                    pytest.raises(ValidationError, match="out of range"):
                solve(inst)
        with pytest.raises(ValidationError, match="expected an integer"):
            I.loads(I.dumps(inst))
    # with int coordinates all three take the instance
    inst = I.GroupSubsetSumInstance(g, ((1, 0),), (1, 0))
    assert not I.validate(inst) and solve(inst).answer
    assert I.loads(I.dumps(inst)) == inst


def test_group_of_degree_zero_is_refused():
    # Z_0^0 and S_0 hold their empty target, so the target check passed
    # them and solve answered yes where validate rejects the group
    for inst in (I.GroupSubsetSumInstance(I.ProductGroup(0), ((), ()), ()),
                 I.GroupSubsetSumInstance(I.SymmetricGroup(0), (),
                                          Permutation(()))):
        assert I.validate(inst) == ["group degree must be positive"]
        with pytest.raises(ValidationError, match="degree must be positive"):
            solve(inst)


def test_group_reach_memo_is_keyed_by_identity():
    # a closure resumes from the longest prefix of element objects it
    # shares with the memo's, under the memo's very group object
    g = I.ProductGroup(3)
    elements = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0))
    target = (2, 1, 1)
    # equal-valued but distinct element objects
    copies = tuple(tuple(list(e)) for e in elements)
    starts = []
    real = oracles._reach

    def counted(*args, sizes=None, **kwargs):
        # the element the closure starts from: 0, or the resumed prefix
        starts.append(len(sizes))
        return real(*args, sizes=sizes, **kwargs)

    def fresh(group, elems):
        return list(real(elems, group.identity(), group.times, 10 ** 6, "x",
                         order=group.order()).items())

    # (group, elements, the element its closure starts from, or None when
    # the memo answers with no closure)
    runs = [(g, elements, 0),
            (g, elements, None),
            # a new tuple of the same element objects
            (g, tuple(list(elements)), None),
            # an equal but distinct group
            (I.ProductGroup(3), elements, 0),
            (g, elements, 0),
            # a changed suffix
            (g, elements[:2] + ((0, 1, 1),), 2),
            # an equal third element is not the same object
            (g, elements[:2] + (copies[2], elements[3]), 2),
            (g, copies, 0),
            # a shorter tuple copies the products of its prefix
            (g, copies[:3], 3)]
    with gates(), mock.patch.object(oracles, "_reach", counted):
        for group, elems, start in runs:
            before = len(starts)
            inst = I.GroupSubsetSumInstance(group, elems, target)
            got = solve(inst)
            assert starts[before:] == ([] if start is None else [start])
            assert got.method == "reach"
            want = fresh(group, elems)
            assert got.answer == (target in dict(want))
            if got.answer:
                assert check_solution(inst, got.solution)
            # each result equals a fresh closure, item for item, and the
            # repeat is answered by the memo
            assert list(oracles._group_reach(group, elems).items()) == want
            assert len(starts) == before + (start is not None)
    # a closure over the cap leaves the memo as it was
    with gates(MAX_BRUTE_STATES=6):
        assert solve(I.GroupSubsetSumInstance(g, elements[:2], (1, 1, 0)))
        memo = oracles._last_reach
        with pytest.raises(ResourceLimitError):
            solve(I.GroupSubsetSumInstance(g, elements[:3], target))
        assert oracles._last_reach is memo
    # under a cap the products exceed, every pair is refused: the memo's
    # set, built under the default cap, does not answer for the same objects
    expected = solve(I.GroupSubsetSumInstance(g, elements, target))
    assert oracles._last_reach[:2] == (g, elements)
    for group, elems, _ in runs:
        with gates(MAX_BRUTE_STATES=3), pytest.raises(ResourceLimitError):
            solve(I.GroupSubsetSumInstance(group, elems, target))
    assert solve(I.GroupSubsetSumInstance(g, elements, target)) == expected


def test_a_wrong_walk_on_a_resumed_closure_is_a_construction_error(
        monkeypatch):
    # every yes answer is re-checked by ``_yes``, resumed closures too
    g = I.ProductGroup(3)
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    starts, real_reach, real_walk = [], oracles._reach, oracles._walk

    def counted(*args, sizes=None, **kwargs):
        starts.append(len(sizes))
        return real_reach(*args, sizes=sizes, **kwargs)
    monkeypatch.setattr(oracles, "_reach", counted)
    with gates():
        assert solve(I.GroupSubsetSumInstance(g, (a, b), (1, 1, 0))) == \
            Verdict(True, (0, 1), "reach")
        # one index short of the path the closure took
        monkeypatch.setattr(oracles, "_walk",
                            lambda reach, cur: real_walk(reach, cur)[:-1])
        with pytest.raises(ConstructionError, match="invalid solution"):
            solve(I.GroupSubsetSumInstance(g, (a, b, c), (1, 1, 1)))
    assert starts == [0, 2]


# ---------------------------------------------------------------------------
# A group closure stops once it holds the whole group.  The reference is the
# closure that runs every element step, whatever the set holds.


def _reach_on_mul(elements, start, mul, cap, what, keep=None, order=None,
                  reach=None, sizes=None):
    """The reach closure on a two-argument multiply, one call per product;
    ``reach`` and ``sizes`` resume it as they resume ``oracles._reach``."""
    if reach is None:
        reach = {start: None}
    if sizes is None:
        sizes = []
    for i in range(len(sizes), len(elements)):
        for prod in list(reach):
            np = mul(prod, elements[i])
            if np not in reach and (keep is None or keep(np)):
                reach[np] = (i, prod)
        if len(reach) > cap:
            raise ResourceLimitError(f"{what} over budget")
        sizes.append(len(reach))
        if len(reach) == order:
            break
    return reach


def _full_reach(elements, start, times, cap, what, keep=None, order=None,
                reach=None, sizes=None):
    """``oracles._reach`` without the stop: ``order`` is taken and unused."""
    return _reach_on_mul(elements, start, lambda a, e: times(e)(a), cap,
                         what, keep, reach=reach, sizes=sizes)


def _saturating_and_full(inst, **gate):
    """``inst``'s verdict from the saturating closure and from the full
    one, each on a cold reach memo, under the gates ``gate`` sets."""
    with gates(**gate):
        fast = solve_group_ss(inst)
    with gates(**gate), mock.patch.object(oracles, "_reach", _full_reach):
        full = solve_group_ss(inst)
    return fast, full


def _product_case(k):
    cell = st.tuples(*[st.integers(0, k - 1)] * k)
    return st.tuples(st.just(I.ProductGroup(k)),
                     st.lists(cell, max_size=12), cell)


_closures = st.one_of(
    _product_case(2), _product_case(3),
    st.integers(1, 30).flatmap(lambda q: st.tuples(
        st.just(I.CyclicGroup(q)), st.lists(st.integers(0, q - 1),
                                            max_size=12),
        st.integers(0, q - 1))),
    st.integers(3, 4).flatmap(lambda k: st.tuples(
        st.just(I.SymmetricGroup(k)),
        st.lists(st.permutations(range(k)).map(Permutation), max_size=10),
        st.permutations(range(k)).map(Permutation))))


@settings(max_examples=300, deadline=None)
@given(_closures)
def test_saturating_closure_matches_the_full_one(case):
    group, elements, target = case
    inst = I.GroupSubsetSumInstance(group, tuple(elements), target)
    # Z_q reaches the closure only past its DP gate
    gate = {"MAX_DP_CELLS": 0} if isinstance(group, I.CyclicGroup) else {}
    fast, full = _saturating_and_full(inst, **gate)
    assert fast == full
    assert fast.method == "reach"


class _CountingProductGroup(I.ProductGroup):
    """Z_k^k that counts the products it is asked for."""

    def __init__(self, k):
        super().__init__(k)
        self.calls = 0

    def times(self, e):
        step = super().times(e)

        def counted(a):
            self.calls += 1
            return step(a)
        return counted


def test_saturating_closure_makes_fewer_products():
    # the first two elements generate all four elements of Z_2^2
    elements = ((1, 0), (0, 1), (1, 1), (0, 0), (1, 0), (0, 1))
    calls = {}
    for name, closure in (("fast", oracles._reach), ("full", _full_reach)):
        group = _CountingProductGroup(2)
        with gates(), mock.patch.object(oracles, "_reach", closure):
            reach = oracles._group_reach(group, elements)
        calls[name] = (group.calls, list(reach.items()))
    # 1 + 2 products, then the set holds the group; the full closure goes
    # on with 4 products for each of the other four elements, all known
    assert calls["fast"][0] == 3
    assert calls["full"][0] == 1 + 2 + 4 * 4
    assert calls["fast"][1] == calls["full"][1]
    inst = I.GroupSubsetSumInstance(I.ProductGroup(2), elements, (1, 1))
    assert _saturating_and_full(inst) == \
        (Verdict(True, (0, 1), "reach"),) * 2
    # the cap is checked before the stop: a cap under the order still
    # refuses, and a cap of exactly the order suffices
    with gates(MAX_BRUTE_STATES=3), pytest.raises(ResourceLimitError):
        solve_group_ss(inst)
    with gates(MAX_BRUTE_STATES=4):
        assert solve_group_ss(inst).answer


# ---------------------------------------------------------------------------
# ``times(e)`` is the map a -> a * e, taken once per element by the reach
# closure.  The references below write each group's multiply out.


def _rule(group, a, e):
    """a * e by the group's definition."""
    if isinstance(group, I.CyclicGroup):
        return (a + e) % group.q
    if isinstance(group, I.ProductGroup):
        return tuple((x + y) % group.k for x, y in zip(a, e))
    # (a * e)(v) = a(e(v))
    return tuple(a[e[v]] for v in range(group.k))


def _perm(k):
    return st.permutations(range(k)).map(Permutation)


_factors = st.one_of(
    st.integers(1, 40).flatmap(lambda q: st.tuples(
        st.just(I.CyclicGroup(q)), st.integers(0, q - 1),
        st.integers(0, q - 1))),
    st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(I.ProductGroup(k)),
        *[st.tuples(*[st.integers(0, k - 1)] * k)] * 2)),
    st.integers(0, 6).flatmap(lambda k: st.tuples(
        st.just(I.SymmetricGroup(k)), _perm(k), _perm(k))))


@settings(max_examples=300, deadline=None)
@given(_factors)
@example((I.SymmetricGroup(0), Permutation(()), Permutation(())))
@example((I.SymmetricGroup(1), Permutation((0,)), Permutation((0,))))
def test_times_is_the_group_multiply(case):
    group, a, e = case
    want = _rule(group, a, e)
    got = group.times(e)(a)
    assert got == group.mul(a, e) == want
    assert hash(got) == hash(want)
    if isinstance(group, I.SymmetricGroup):
        # a closure's products are plain image tuples, and so is a * e
        assert type(got) is tuple and got == a * e
        assert group.times(e)(tuple(a)) == want


_small_symmetric = st.integers(0, 2).flatmap(lambda k: st.tuples(
    st.just(I.SymmetricGroup(k)), st.lists(_perm(k), max_size=6), _perm(k)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_closures, _small_symmetric))
def test_reach_on_times_matches_the_reach_on_mul(case):
    group, elements, _ = case
    start, order = group.identity(), group.order()
    got = oracles._reach(elements, start, group.times, 10 ** 6, "x",
                         order=order)
    want = _reach_on_mul(elements, start, group.mul, 10 ** 6, "x",
                         order=order)
    # the same products, in the same order, with the same back pointers
    assert list(got.items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=10), st.integers(0, 40))
def test_plain_reach_matches_the_reach_on_add(items, t):
    got = oracles._reach(items, 0, attrgetter("__add__"), 10 ** 6, "x",
                         keep=t.__ge__)
    want = _reach_on_mul(items, 0, add, 10 ** 6, "x", keep=t.__ge__)
    assert list(got.items()) == list(want.items())


# ---------------------------------------------------------------------------
# A group closure resumes from the prefix of element objects it shares with
# the memo's.  Each result must equal a fresh closure item for item, and a
# refused one must leave the memo as it was.


def _shared_runs():
    """One run per case the resume must get right, as ``PREFIX_RUNS``
    draws them."""
    z2, z3, s3, z7 = (I.ProductGroup(2), I.ProductGroup(3),
                      I.SymmetricGroup(3), I.CyclicGroup(7))
    # d equals a but is another object
    a, b, c, d = (1, 0), (0, 1), (1, 1), tuple([1, 0])
    x, y = Permutation((1, 2, 0)), Permutation((1, 0, 2))
    u, v = (1, 0, 0), (0, 1, 0)
    return [
        # the first closure holds all of Z_2^2 after b, inside the prefix
        (z2, [(a, b, c), (a, b, c, d), (a, b, d)], None),
        # a new tuple of the very same objects, then a strict prefix
        (s3, [(x, y, x), (x, y, x), (x, y)], None),
        # an element outside the group after the prefix, then a resume
        (z3, [(u, v), (u, v, (1, 1)), (u, v, (0, 0, 1))], None),
        # the prefix's 2 sums fit the cap, the full 7 do not
        (z7, [(1,), (1, 2, 4), (1, 2)], 5),
    ]


@settings(max_examples=300, deadline=None)
@given(PREFIX_RUNS)
@example(_shared_runs()[0])
@example(_shared_runs()[1])
@example(_shared_runs()[2])
@example(_shared_runs()[3])
def test_resumed_closure_matches_a_fresh_one(case):
    group, runs, cap = case
    gate = {"MAX_DP_CELLS": 0}
    if cap is not None:
        gate["MAX_BRUTE_STATES"] = cap
    with gates(**gate):
        for elements in runs:
            memo = oracles._last_reach
            if not all(map(group.contains, elements)):
                with pytest.raises(ValidationError, match="out of range"):
                    oracles._group_reach(group, elements)
                assert oracles._last_reach is memo
                continue
            want = list(_full_reach(elements, group.identity(), group.times,
                                    10 ** 6, "x").items())
            if cap is not None and len(want) > cap:
                with pytest.raises(ResourceLimitError):
                    oracles._group_reach(group, elements)
                assert oracles._last_reach is memo
                continue
            got = oracles._group_reach(group, elements)
            assert list(got.items()) == want


def test_no_verdicts_are_shared_and_equal_fresh_ones():
    from redkit.families import named_graph
    no_cnf = I.CnfInstance(1, ((1,), (-1,)))
    starved = {"MAX_DP_CELLS": 0}
    cases = [
        (I.SubsetSumInstance((2, 4), 3), {}, "dp"),
        (I.SubsetSumInstance((2, 4), 3), starved, "brute"),
        (I.SubsetSumInstance((2, 4), 1, modulus=6), {}, "dp"),
        (I.SubsetSumInstance((2, 4), 1, modulus=6), starved, "reach"),
        # few items over a large q: the halves' 4 sums beat 2 * 10^4 cells
        (I.SubsetSumInstance((2, 4), 1, modulus=10_000), {}, "mitm"),
        (I.KnapsackInstance(((2, 1),), 1, 1), {}, "pareto"),
        (I.IlpInstance(((1,),), (2,)), {}, "range"),
        (I.IlpInstance(((1, 1), (1, -1)), (1, 0)), {}, "dp"),
        (I.IlpInstance(((1, 1), (1, -1)), (1, 0)), starved, "mitm"),
        (I.IlpInstance(((1,),), (0,), "zero_sum"), {}, "observation"),
        (I.GroupSubsetSumInstance(I.ProductGroup(2), ((1, 0),), (0, 1)),
         {}, "reach"),
        (I.CounterMachineInstance(1, ((1,),), (I.REQUIRED,)), {}, "frontier"),
        (named_graph("k4"), {}, "brute"),
        (I.SchedulingInstance(((2, 1, 1),), 0), {}, "pareto"),
        (no_cnf, {}, "brute"),
        (I.AndSatInstance(1, (no_cnf,)), {}, "per-formula"),
        (I.UnboundedSubsetSumInstance((2,), 3), {}, "dp"),
    ]
    for inst, gate, method in cases:
        with gates(**gate):
            got = solve(inst)
            assert got == Verdict(False, method=method), inst
            assert got.solution is None and not got
            assert solve(inst) is got
    dp = _coloring_dp(named_graph("k4"))
    assert dp == Verdict(False, method="dp")


# ---------------------------------------------------------------------------
# The subset-sum memo: one set of subset sums per items tuple, built on the
# second consecutive ask of the very same object.


def test_subset_sum_memo_answers_no_targets_from_one_set(monkeypatch):
    items = (3, 5, 9)
    calls = []
    real = kernels.subset_sum_solve
    monkeypatch.setattr(kernels, "subset_sum_solve",
                        lambda vals, t: calls.append(t) or real(vals, t))

    def ask(objects, t):
        got = solve(I.SubsetSumInstance(objects, t))
        assert got.answer == decide(I.SubsetSumInstance(items, t))
        assert got.method == "dp"
        return got

    with gates():
        # the first ask runs the DP and notes the tuple; the second builds
        # the set, which answers no targets (past the sum too) with no DP
        ask(items, 4)
        assert oracles._last_sums == (items, None) and calls == [4]
        for t in (4, 6, 13, 18, 100):
            ask(items, t)
        assert calls == [4]
        assert oracles._last_sums[1] == sum(1 << s for s in
                                            (0, 3, 5, 8, 9, 12, 14, 17))
        # a set bit still runs the DP and the re-check
        assert ask(items, 14).solution == (1, 2) and calls == [4, 14]
        # an equal but distinct tuple starts over, and so does the first
        copy = tuple(list(items))
        for objects in (copy, copy, items):
            ask(objects, 4)
        assert calls == [4, 14, 4, 4]
        assert oracles._last_sums == (items, None)
        # items of 0 add no sum
        zeros = (0, 0, 2)
        for t in (1, 1, 2):
            assert solve(I.SubsetSumInstance(zeros, t)).answer == (t == 2)
        assert oracles._last_sums == (zeros, 0b101)
    # a lowered gate keeps the set unread where the DP would not run
    with gates():
        for t in (4, 4):
            ask(items, t)
        with monkeypatch.context() as mp:
            mp.setattr(oracles, "MAX_DP_CELLS", 3)
            got = solve(I.SubsetSumInstance(items, 4))
        assert (got.answer, got.method) == (False, "brute")


def test_subset_sum_memo_stays_within_its_stated_bytes():
    # the bound stated beside ``_last_sums``: a set of at most MAX_DP_CELLS
    # bits, 0.53 MB in 30-bit digits of 4 bytes, built only when
    # max(n, 1) * (sum + 1) fits the gate
    cells = oracles.MAX_DP_CELLS
    fits, over = (cells - 1,), (cells,)
    with gates():
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                assert not solve(I.SubsetSumInstance(fits, 5)).answer
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert oracles._last_sums[1] == 1 | 1 << cells - 1
        assert held <= cells * 4 // 30 + 1_000 <= 535_000, held
        for _ in range(3):
            assert not solve(I.SubsetSumInstance(over, 5)).answer
        assert oracles._last_sums == (over, None)
        two = (1, cells // 2 - 1)
        for _ in range(2):
            assert not solve(I.SubsetSumInstance(two, 5)).answer
        assert oracles._last_sums == (two, None)


def test_targets_of_one_source_share_one_items_object():
    # the memo's saving: every subset-sum target of one knapsack-to-ss or
    # zq-to-ss source (and of one chain source's intermediate) is built on
    # the very same items tuple
    from redkit.catalog import get_reduction
    from redkit.families import knapsacks, subset_sums, zq_instances
    jobs = (("knapsack-to-ss", knapsacks(2, 3)),
            ("zq-to-ss", zq_instances(5, 3)),
            ("ss-to-knapsack+knapsack-to-ss", subset_sums(2, 4, 8)))
    for spec, family in jobs:
        red = get_reduction(spec)
        shared = 0
        constants = set(map(id, red.constants))
        for inst in family:
            red.witness_len(inst)
            targets = [tgt for tgt in map(red.transform, repeat(inst),
                                          red.valid_witnesses(inst))
                       if id(tgt) not in constants]
            assert len({id(tgt.items) for tgt in targets}) <= 1, (spec, inst)
            shared += len(targets) > 1
        assert shared, spec
