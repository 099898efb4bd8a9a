"""Kernels against independent in-test brute forces.

Every expected answer here is recomputed by exhaustive search written in the
test itself, so the kernels are never their own referee.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from redkit import kernels
from redkit.kernels import BACKEND


def _brute_subset_sum(items, target, q=None):
    for mask in range(1 << len(items)):
        total = sum(p for i, p in enumerate(items) if mask >> i & 1)
        if (total % q == target) if q else total == target:
            return True
    return False


def _check_indices(items, sol):
    assert sol == sorted(set(sol))
    assert all(0 <= i < len(items) for i in sol)


def test_backend_is_declared():
    assert BACKEND == "pure"


def test_pure_subset_sum_known_values():
    assert kernels.subset_sum_solve((3, 5, 7), 8) == [0, 1]
    assert kernels.subset_sum_solve((3, 5, 7), 4) is None
    assert kernels.subset_sum_solve((), 0) == []
    assert kernels.subset_sum_solve((2, 2, 2), 6) == [0, 1, 2]
    assert kernels.subset_sum_solve((9, 0, 4), 4) == [2]
    assert kernels.subset_sum_solve((1,), -1) is None


def test_pure_mod_solve_known_values():
    assert kernels.subset_sum_mod_solve((3, 5), 6, 2) == [0, 1]
    assert kernels.subset_sum_mod_solve((2, 4), 8, 1) is None
    assert kernels.subset_sum_mod_solve((), 5, 0) == []
    assert kernels.subset_sum_mod_solve((7, 10, 3), 7, 3) == [1]


def test_pure_cm_known_values():
    # one up, one down on the same counter
    assert kernels.counter_machine_solve([1, 0], [0, 1], [False, False], 1, 100) == []
    assert kernels.counter_machine_solve([1, 0], [0, 1], [True, True], 1, 100) == [0, 1]
    # required up with no way back down
    assert kernels.counter_machine_solve([1], [0], [True], 1, 100) is None
    with pytest.raises(RuntimeError):
        kernels.counter_machine_solve([1, 0], [0, 1], [False, False], 1, 1)


def _ilp_mitm(cols, rhs):
    """The meet-in-the-middle search on the columns' codes, or None when rhs
    is out of every row's reach, as ``solve_ilp`` calls it."""
    totals, base, codes = kernels.ilp_column_codes(cols, len(rhs))
    if kernels.ilp_rhs_code(rhs, totals, base) is None:
        return None
    return kernels.ilp01_brute(codes, rhs, base)


def test_pure_ilp_brute_known_values():
    # base 3: codes 1 and 3, rhs code 4
    assert kernels.ilp01_brute([1, 3], (1, 1), 3) == [1, 1]
    # base 5: codes 6 and -4 make the sums 0, 6, -4 and 2, never 1
    assert kernels.ilp01_brute([6, -4], (1, 0), 5) is None
    assert kernels.ilp01_brute([], (0,), 1) == [0] * 0
    assert len(kernels.ilp01_brute([0, 0], (), 1)) == 2   # no rows: any x
    assert _ilp_mitm(((1, 0),), (0, 1)) is None           # row 1 out of reach


def test_subset_sum_matches_brute():
    rng = Random(7)
    for _ in range(400):
        t = rng.randint(0, 40)
        # items beyond the target and zeros must be skipped, never chosen
        items = tuple(rng.randint(0, t + 10) for _ in range(rng.randint(0, 8)))
        got = kernels.subset_sum_solve(items, t)
        assert (got is not None) == _brute_subset_sum(items, t), (items, t)
        if got is not None:
            _check_indices(items, got)
            assert sum(items[i] for i in got) == t


def test_mod_solve_matches_brute():
    rng = Random(8)
    for _ in range(400):
        q = rng.randint(1, 30)
        # items may be multiples of q or exceed it; they count mod q
        items = tuple(rng.choice((0, q, 2 * q, rng.randrange(3 * q)))
                      for _ in range(rng.randint(0, 8)))
        t = rng.randrange(q)
        got = kernels.subset_sum_mod_solve(items, q, t)
        assert (got is not None) == _brute_subset_sum(items, t, q), (items, q, t)
        if got is not None:
            _check_indices(items, got)
            assert sum(items[i] for i in got) % q == t


def test_mod_solve_many_items():
    # enough items for several checkpoint blocks in the walk back
    rng = Random(12)
    for _ in range(40):
        q = rng.randint(2, 400)
        items = [rng.randrange(q) * rng.choice((1, 2, 6)) % q
                 for _ in range(rng.randint(20, 90))]
        reach = {0}
        for p in items:
            reach |= {(r + p) % q for r in reach}
        for t in rng.sample(range(q), min(q, 5)):
            got = kernels.subset_sum_mod_solve(items, q, t)
            assert (got is not None) == (t in reach), (items, q, t)
            if got is not None:
                _check_indices(items, got)
                assert sum(items[i] for i in got) % q == t


def test_subset_sum_large_target():
    rng = Random(11)
    items = [rng.randint(1, 10**6) for _ in range(12)]
    for mask in (0, 1, 0b101010101010, (1 << 12) - 1):
        t = sum(p for i, p in enumerate(items) if mask >> i & 1)
        got = kernels.subset_sum_solve(items, t)
        assert got is not None and sum(items[i] for i in got) == t
    assert kernels.subset_sum_solve([2 * p for p in items], 2 * 10**6 + 1) is None


def test_cm_matches_brute():
    rng = Random(9)
    for _ in range(300):
        dim = rng.randint(1, 4)
        n = rng.randint(0, 7)
        incs, decs, req = [], [], []
        for _ in range(n):
            inc = dec = 0
            for d in range(dim):
                r = rng.random()
                if r < 0.35:
                    inc |= 1 << d
                elif r < 0.7:
                    dec |= 1 << d
            incs.append(inc)
            decs.append(dec)
            req.append(rng.random() < 0.4)

        def runs(chosen):
            state = 0
            for i in chosen:
                if state & incs[i] or state & decs[i] != decs[i]:
                    return False
                state = (state | incs[i]) & ~decs[i]
            return state == 0

        expected = any(
            all(mask >> i & 1 for i in range(n) if req[i]) and
            runs([i for i in range(n) if mask >> i & 1])
            for mask in range(1 << n))
        got = kernels.counter_machine_solve(incs, decs, req, dim, 10_000)
        assert (got is not None) == expected, (incs, decs, req)
        if got is not None:
            _check_indices(incs, got)
            assert all(i in got for i in range(n) if req[i])
            assert runs(got)


def test_ilp_brute_matches_brute():
    rng = Random(10)
    for _ in range(120):
        m = rng.randint(1, 6)
        n = rng.randint(0, 14)
        cols = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(m))
                     for _ in range(n))
        if rng.random() < 0.5:
            x = [rng.randint(0, 1) for _ in range(n)]
            rhs = tuple(sum(c[j] for c, xi in zip(cols, x) if xi)
                        for j in range(m))
        else:
            rhs = tuple(rng.randint(-3, 3) for _ in range(m))
        expected = any(
            all(sum(c[j] for i, c in enumerate(cols) if mask >> i & 1) == rhs[j]
                for j in range(m))
            for mask in range(1 << n))
        got = _ilp_mitm(cols, rhs)
        assert (got is not None) == expected, (cols, rhs)
        if got is not None:
            assert len(got) == n and set(got) <= {0, 1}
            for j in range(m):
                assert sum(cols[i][j] for i in range(n) if got[i]) == rhs[j]


def test_ilp_code_rejects_unreachable_rhs():
    # row 0 can reach at most 1 in absolute value; -2 would alias to (1, 0)
    # in base 3, since -2 + 1 * 3 == 1
    totals, base, _ = kernels.ilp_column_codes(((1, 0),), 2)
    assert kernels.ilp_rhs_code((-2, 1), totals, base) is None
    totals, base, codes = kernels.ilp_column_codes(((1, 0), (0, -1)), 2)
    assert codes == [1, -3]
    assert kernels.ilp_rhs_code((1, -1), totals, base) == 1 - 3


def _pareto_feasible(items, caps, chosen):
    cost = 0
    for i in chosen:
        cost += items[i][0]
        if cost > caps[i]:
            return False
    return True


@st.composite
def _pareto_cases(draw):
    # zero costs and values, caps of 0, items over their cap, and caps that
    # are constant (knapsack) or grow (due dates in order)
    items = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                          max_size=8))
    if draw(st.booleans()):
        caps = [draw(st.integers(0, 25))] * len(items)
    else:
        caps = sorted(draw(st.lists(st.integers(0, 25), min_size=len(items),
                                    max_size=len(items))))
    return items, caps, draw(st.integers(-3, 45))


@settings(max_examples=400, deadline=None)
@given(_pareto_cases())
def test_pareto_matches_brute(case):
    items, caps, goal = case
    n = len(items)
    expected = any(
        _pareto_feasible(items, caps, chosen) and
        sum(items[i][1] for i in chosen) >= goal
        for chosen in ([i for i in range(n) if mask >> i & 1]
                       for mask in range(1 << n)))
    got = kernels.pareto_solve(items, caps, goal, 10_000)
    assert (got is not None) == expected
    if got is not None:
        _check_indices(items, got)
        assert _pareto_feasible(items, caps, got)
        assert sum(items[i][1] for i in got) >= goal


def test_pareto_known_values():
    assert kernels.pareto_solve([(3, 4), (2, 3)], [5, 5], 7, 100) == [0, 1]
    assert kernels.pareto_solve([(3, 4), (3, 3)], [5, 5], 7, 100) is None
    assert kernels.pareto_solve([], [], 0, 100) == []
    assert kernels.pareto_solve([], [], 1, 100) is None
    # the later job's cap admits both, the earlier one's only itself
    assert kernels.pareto_solve([(2, 1), (3, 1)], [2, 5], 2, 100) == [0, 1]
    assert kernels.pareto_solve([(3, 1), (2, 1)], [2, 5], 2, 100) is None


def test_pareto_limit_counts_stored_pairs():
    # fronts of 1, 2 and 3 pairs before the goal of 10 is known out of reach
    items, caps = [(1, 1), (1, 1)], [5, 5]
    assert kernels.pareto_solve(items, caps, 10, 6) is None
    with pytest.raises(RuntimeError):
        kernels.pareto_solve(items, caps, 10, 5)
    with pytest.raises(RuntimeError):
        kernels.pareto_solve([], [], 0, 0)
