"""Satisfiability reductions: frozen vectors and verdict preservation."""

from itertools import combinations_with_replacement
from random import Random
from unittest import mock

import pytest

from redkit import families
from redkit.errors import ValidationError
from redkit.families import cnfs, random_3cnf
from redkit.instances import (AndSatInstance, CnfInstance, parameter,
                              trivial_instance)
from redkit.oracles import solve
from redkit.satred import (cnf_coloring_layout, red_3sat_to_ss,
                           red_andsat_to_scheduling, red_cnf_to_coloring,
                           tsat_to_ss_instance)
from redkit.witness import Witness


def _apply(red, inst):
    return red.apply(inst, Witness.zero(red.witness_len(inst)))


def test_tsat_single_literal_frozen():
    ss = tsat_to_ss_instance(CnfInstance(1, ((1,),)))
    assert ss.items == (11, 1, 10, 20)
    assert ss.target == 41


def test_tsat_digit_structure():
    # two vars, two clauses: one digit column per var plus one per clause,
    # target carries 1 per var column and 4 per clause column
    f = CnfInstance(2, ((1, 2), (-1,)))
    ss = tsat_to_ss_instance(f)
    assert len(ss.items) == 2 * 2 + 2 * 2
    assert ss.target == 1 + 10 + 400 + 4000


def test_tsat_rejects_wide_clause():
    with pytest.raises(ValidationError):
        tsat_to_ss_instance(CnfInstance(4, ((1, 2, 3, 4),)))


def test_tsat_keeps_one_digit_per_distinct_clause():
    # a repeated clause (as a set of literals) adds no digit, so the target
    # parameter stays 13 however often one 3-variable clause repeats
    for m in (1, 8, 64, 1024):
        f = CnfInstance(3, ((1, -2, 3),) * m)
        assert parameter(_apply(red_3sat_to_ss, f)) == 13, m
    # first occurrence first, whatever order the literals come in
    assert tsat_to_ss_instance(CnfInstance(2, ((1, 2), (-1,), (2, 1)))) == \
        tsat_to_ss_instance(CnfInstance(2, ((1, 2), (-1,))))
    # and AND-SAT stacks the deduplicated sums: 4 copies of a formula with
    # a 512-fold clause give the target of 4 copies with the clause once
    once = CnfInstance(3, ((1, 2, 3), (-1, 2)))
    many = CnfInstance(3, ((1, 2, 3),) * 512 + ((-1, 2),))
    assert _apply(red_andsat_to_scheduling, AndSatInstance(3, (many,) * 4)) \
        == _apply(red_andsat_to_scheduling, AndSatInstance(3, (once,) * 4))


def test_3sat_reduction_preserves_verdicts():
    rng = Random(11)
    insts = [f for f in cnfs(2, 2, 2)] + \
        [random_3cnf(rng) for _ in range(40)]
    for f in insts:
        assert solve(_apply(red_3sat_to_ss, f)).answer is solve(f).answer, f


def test_andsat_single_formula_frozen():
    a = AndSatInstance(1, (CnfInstance(1, ((1,),)),))
    sched = _apply(red_andsat_to_scheduling, a)
    assert sched.jobs == ((11, 11, 41), (1, 1, 41), (10, 10, 41), (20, 20, 41))
    assert sched.tardy_budget == 1
    assert solve(sched).answer is solve(a).answer is True


def test_andsat_refuses_an_empty_clause():
    a = AndSatInstance(1, (CnfInstance(1, ((),)),))
    with pytest.raises(ValidationError,
                       match="andsat-to-scheduling: .*empty clause"):
        _apply(red_andsat_to_scheduling, a)


def test_andsat_dense_formula_guard():
    # once assignments are scarcer than formulas the transform answers by
    # brute force and emits a fixed instance
    f = CnfInstance(1, ((1,),))
    g = CnfInstance(1, ((-1,),))
    # (x) and (not x) are each satisfiable alone, so both pairs are yes
    for pair in (AndSatInstance(1, (f, f)), AndSatInstance(1, (f, g))):
        assert _apply(red_andsat_to_scheduling, pair) == \
            trivial_instance("scheduling", True)


def test_andsat_semantics_is_per_formula():
    f = CnfInstance(1, ((1,),))
    g = CnfInstance(1, ((-1,),))
    # (x) and (not x) are each satisfiable alone, so the instance is a yes
    a = AndSatInstance(1, (f, g))
    assert solve(a).answer


def test_andsat_verdict_preservation_sample():
    rng = Random(12)
    pool = list(cnfs(2, 2, 2))
    for _ in range(150):
        formulas = tuple(rng.choice(pool)
                         for _ in range(rng.randint(0, 2)))
        a = AndSatInstance(2, formulas)
        sched = _apply(red_andsat_to_scheduling, a)
        assert solve(sched).answer is solve(a).answer, a


def test_cnf_coloring_layout_frozen():
    c = CnfInstance(2, ((1, 2),))
    nv, edges, bags = cnf_coloring_layout(c)
    assert nv == 9
    assert edges == ((0, 1), (0, 2), (0, 3), (2, 3), (0, 4), (0, 5), (4, 5),
                     (2, 6), (4, 7), (6, 7), (8, 6), (8, 7), (8, 0), (8, 1))
    assert bags == ((0, 1, 2, 3, 4, 5, 6, 7, 8),)


def test_cnf_coloring_keeps_one_vertex_per_distinct_literal():
    # a repeated literal adds nothing to the OR chain, so a bag holds at
    # most 2n + 2 + 3(2n - 1) vertices: (x1 or x1 or ...) keeps parameter 6
    for m in (1, 4, 16, 64):
        f = CnfInstance(2, ((1,) * m,))
        assert parameter(_apply(red_cnf_to_coloring, f)) == 6, m
    assert cnf_coloring_layout(CnfInstance(2, ((1, 2, 1, 2),))) == \
        cnf_coloring_layout(CnfInstance(2, ((1, 2),)))


def test_cnf_coloring_layout_deterministic():
    c = CnfInstance(3, ((1, -2), (2, 3), (-1, -3)))
    assert cnf_coloring_layout(c) == cnf_coloring_layout(c)


def test_cnf_to_coloring_refuses_an_empty_clause():
    bad = CnfInstance(1, ((),))
    with pytest.raises(ValidationError,
                       match="cnf-to-coloring: .*empty clause"):
        _apply(red_cnf_to_coloring, bad)


def test_cnf_to_coloring_preserves_verdicts():
    rng = Random(13)
    insts = list(cnfs(2, 2, 2)) + [random_3cnf(rng) for _ in range(25)]
    for f in insts:
        out = _apply(red_cnf_to_coloring, f)
        assert solve(out).answer is solve(f).answer, f


def test_and_sats_member_order():
    pool = list(cnfs(2, 2, 2))
    expected = [AndSatInstance(2, tuple(pool[i] for i in idx))
                for count in range(3)
                for idx in combinations_with_replacement(range(len(pool)),
                                                         count)]
    assert list(families.and_sats(2, 2, 2, 2)) == expected
    assert list(families.and_sats(1, 2, 2, 2)) == expected[:1 + len(pool)]
    assert list(families.and_sats(0, 2, 2, 2)) == expected[:1]


def test_and_sats_first_members_build_no_pool():
    # vars=3, clauses=5, arity=3 has millions of CNFs: listing them all took
    # seconds and hundreds of MB before the first member
    pulled = []
    stream = families.cnfs

    def counted(*args):
        for f in stream(*args):
            pulled.append(f)
            yield f
    with mock.patch.object(families, "cnfs", counted):
        members = families.and_sats(2, 3, 5, 3)
        assert next(members) == AndSatInstance(3, ())
        assert pulled == []
        assert next(members) == AndSatInstance(3, (pulled[0],))
        assert len(pulled) == 1
