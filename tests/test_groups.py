"""Permutation algebra, U_q arithmetic, and the run-detecting embeddings."""

import copy
import gc
import math
import pickle
import tracemalloc
from itertools import permutations, product

import pytest

from redkit.errors import ValidationError
from redkit.groups import (Permutation, UqElement, _landau_table, degree_bound,
                           from_cycles, gamma, identity, landau_permutation,
                           make_run_context, run_check_uq, uq_identity,
                           uq_product)
from redkit.instances import SymmetricGroup

from helpers import block_diagonal, primes_landau


def test_permutation_composition_convention():
    # (a * b)(v) == a(b(v)): right factor acts first
    a = Permutation((1, 0, 2))
    b = Permutation((0, 2, 1))
    ab = a * b
    for v in range(3):
        assert ab(v) == a(b(v))


def test_permutation_algebra():
    p = from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p.order() == 6
    assert (p * p.inverse()).is_identity()
    assert p.power(6).is_identity()
    assert p.power(-1) == p.inverse()
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert identity(4).order() == 1
    with pytest.raises(ValidationError):
        Permutation((0, 0, 1))


def test_block_diagonal():
    p = block_diagonal([Permutation((1, 0)), Permutation((1, 2, 0))])
    assert p.images == (1, 0, 3, 4, 2)
    assert block_diagonal([]).degree == 0


def test_unchecked_products_are_plain_permutations():
    # compose skips the permutation check; its results must still equal,
    # and hash like, checked ones
    a, b = Permutation((2, 0, 1)), Permutation((0, 2, 1))
    assert a * b == Permutation((2, 1, 0))
    assert hash(a * b) == hash(Permutation((2, 1, 0)))
    assert type(a * b) is Permutation
    assert block_diagonal([a, b]) == Permutation((2, 0, 1, 3, 5, 4))
    assert type((a * b).images) is tuple
    with pytest.raises(ValidationError):
        Permutation((0, 0))
    with pytest.raises(ValidationError):
        a * Permutation((1, 0))
    # a permutation is its image tuple: equal, hashed alike, no __dict__,
    # and printed as before
    assert a == (2, 0, 1) and (2, 0, 1) == a
    assert hash(a) == hash((2, 0, 1))
    assert {(2, 0, 1): "x"}[a] == "x"
    assert a.images == (2, 0, 1) and a.degree == 3
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.images = (0, 1, 2)
    with pytest.raises(AttributeError):
        a.other = 1
    assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
    assert repr(Permutation((0,))) == "Permutation(images=(0,))"
    assert repr(a * b) == "Permutation(images=(2, 1, 0))"
    # the symmetric group's multiply is compose's rule on image tuples
    s3 = SymmetricGroup(3)
    for x, y in product(map(Permutation, permutations(range(3))), repeat=2):
        assert s3.mul(x, y) == x * y
        assert hash(s3.mul(x, y)) == hash(x * y)
    # pickling and copying go through the check and keep the type
    for c in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert c == a and type(c) is Permutation


def test_uq_semidirect_law():
    # z=1 swaps the coordinates of the right factor
    a = UqElement(1, 2, 1, 5)
    b = UqElement(3, 4, 0, 5)
    assert a * b == UqElement(0, 0, 1, 5)
    assert (a * a.inverse()) == uq_identity(5)
    # associativity on a sample
    elems = [UqElement(x, y, z, 3) for x, y, z
             in product(range(3), range(3), (0, 1))]
    for a in elems[:6]:
        for b in elems[7:13]:
            for c in elems[14:18]:
                assert (a * b) * c == a * (b * c)


def test_gamma_letters():
    assert gamma(-1, 7) == UqElement(1, 0, 1, 7)
    assert gamma(0, 7) == uq_identity(7)
    assert gamma(1, 7) == UqElement(0, 1, 1, 7)
    with pytest.raises(ValidationError):
        gamma(2, 7)


def _is_run(seq):
    acc = 0
    for b in seq:
        acc += b
        if acc not in (0, 1):
            return False
    return acc == 0


def test_run_form_equals_run_predicate_small():
    for n in range(6):
        q = n + 1
        for seq in product((-1, 0, 1), repeat=n):
            prod, ok = run_check_uq(seq, q)
            assert ok == _is_run(seq), seq
            if ok:
                assert (prod.x, prod.y, prod.z) == \
                    (0, sum(1 for b in seq if b), 0)


def test_run_check_requires_large_q():
    with pytest.raises(ValidationError):
        run_check_uq((1, -1), 2)


def test_uq_product_examples():
    assert uq_product((1, -1), 5) == UqElement(0, 2, 0, 5)
    assert uq_product((-1, 1), 5) == UqElement(2, 0, 0, 5)
    assert uq_product((), 5) == uq_identity(5)


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000])
def test_landau_permutation(n):
    perm, deg = landau_permutation(n)
    assert perm.degree == deg
    assert perm.order() > n
    assert deg <= degree_bound(n)
    perm2, deg2 = primes_landau(n)
    assert perm2.degree == deg2
    assert perm2.order() > n
    assert deg2 >= deg  # the table method is at least as tight


def test_landau_table_is_non_decreasing_in_the_degree():
    orders = [order for order, _ in _landau_table()]
    assert orders == sorted(orders)
    assert all(math.prod(parts) == order and sum(parts) <= degree
               for degree, (order, parts) in enumerate(_landau_table()))


def _held_bytes(build):
    """Bytes still allocated after ``build()``, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_landau_table_stays_within_its_stated_bytes():
    # the comment on ``_landau_table``: about 24 KB held
    _landau_table.cache_clear()
    held = _held_bytes(_landau_table)
    assert _landau_table.cache_info().currsize == 1
    assert held <= 30_000, held


def test_run_context_at_length_zero():
    # a carrier of order 1 would leave U_1 no pi0: n = 0 takes n = 1's
    ctx = make_run_context(0)
    assert ctx.n_bound == 0 and ctx.q == make_run_context(1).q == 2
    assert ctx.pi_exponent(identity(ctx.domain)) == 0
    assert ctx.pi_exponent(ctx.pi) is None
    assert all(ctx.gamma_hat(b).degree == ctx.domain for b in (-1, 0, 1))


def test_chi_generator_images():
    ctx = make_run_context(4)
    q = ctx.q
    assert ctx.chi(UqElement(0, 1, 0, q)) == ctx.pi0
    assert ctx.chi(UqElement(1, 0, 0, q)) == ctx.pi1
    assert ctx.chi(UqElement(0, 0, 1, q)) == ctx.piz
    assert ctx.chi(uq_identity(q)).is_identity()
    assert ctx.pi == ctx.pi0
    # built once per context, not on every access
    assert ctx.pi is ctx.pi0 is ctx.pi0 and ctx.pi1 is ctx.pi1
    assert ctx.piz is ctx.piz


def test_chi_is_homomorphism_exhaustive_u2():
    carrier = from_cycles(3, [(0, 1, 2)])
    from redkit.groups import RunContext
    ctx = RunContext(n_bound=2, q=3, carrier=carrier)
    elems = [UqElement(x, y, z, 3) for x, y, z
             in product(range(3), range(3), (0, 1))]
    table = {e: ctx.chi(e) for e in elems}
    for a in elems:
        for b in elems:
            assert table[a] * table[b] == ctx.chi(a * b)
    # faithful: distinct elements get distinct images
    assert len({p.images for p in table.values()}) == len(elems)


def test_gamma_hat_run_detection():
    ctx = make_run_context(5)
    for n in range(6):
        for seq in product((-1, 0, 1), repeat=n):
            acc = identity(ctx.domain)
            for b in seq:
                acc = acc * ctx.gamma_hat(b)
            exp = ctx.pi_exponent(acc)
            if _is_run(seq):
                assert exp == sum(1 for b in seq if b)
            else:
                assert exp is None
