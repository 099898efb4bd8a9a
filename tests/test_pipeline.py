"""Coloring -> counter machine -> permutation subset-sum pipeline tests.

Golden vectors were produced by running the transforms and cross-checking
verdicts with the brute-force solvers.
"""

import gc
import hashlib
import operator
import tracemalloc
from itertools import permutations
from random import Random
from unittest import mock

import pytest

from redkit import oracles, pipeline
from redkit.errors import ValidationError
from redkit.families import cm_grid, graphs_upto, named_graph
from redkit.instances import (REQUIRED, ColoringInstance,
                              CounterMachineInstance)
from redkit.oracles import solve, solve_coloring, solve_counter_machine
from redkit.pipeline import (_block, coloring_blocks, red_cm_to_perm_ss,
                             red_coloring_to_cm)
from redkit.witness import Witness, all_witnesses

from helpers import gates


def _to_cm(graph):
    return red_coloring_to_cm.apply(
        graph, Witness.zero(red_coloring_to_cm.witness_len(graph)))


def test_single_vertex_machine_frozen():
    cm = _to_cm(ColoringInstance(1, (), ((0,),)))
    assert cm.dimension == 10                # 3*1 + 7 with one color slot set
    assert len(cm.vectors) == 8
    # introduce block: one optional vector per color, each bumping the
    # color cell and the shared step counter, then a required step-down
    assert cm.vectors[0] == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0)
    assert cm.vectors[1] == (0, 1, 0, 1, 0, 0, 0, 0, 0, 0)
    assert cm.vectors[2] == (0, 0, 1, 1, 0, 0, 0, 0, 0, 0)
    assert cm.vectors[3] == (0, 0, 0, -1, 0, 0, 0, 0, 0, 0)
    assert cm.flags[:4] == ("O", "O", "O", "R")
    # forget block mirrors the introduce block with the color cell lowered
    assert cm.vectors[4:8] == tuple(
        tuple(-c if j < 3 else c for j, c in enumerate(v))
        for v in cm.vectors[0:4])
    assert solve(cm).answer


def test_single_edge_machine_structure():
    cm = _to_cm(ColoringInstance(2, ((0, 1),), ((0, 1),)))
    assert cm.dimension == 13                # 3*2 + 7
    assert len(cm.vectors) == 32
    required = tuple(i for i, f in enumerate(cm.flags) if f == REQUIRED)
    assert required == (3, 7, 14, 15, 22, 23, 27, 31)
    step = 6                                 # shared step-counter coordinate
    # edge block: six color-pair options each retiring both endpoint cells
    # and setting a distinct pair cell, followed by step bookkeeping, then
    # the six exact inverses so the machine can restore the colors
    for i in range(8, 14):
        v = cm.vectors[i]
        assert v[step] == 1
        assert sorted(v[:6]).count(-1) == 2
        assert v[7:].count(1) == 1
        assert cm.vectors[i + 8] == tuple(-c for c in v)
    assert [cm.vectors[i][step] for i in required] == [-1, -1, -1, 1, 1, -1, -1, -1]
    assert solve(cm).answer


@pytest.mark.parametrize("name,dim,count,answer", [
    ("k3", 16, 72, True),
    ("k4", 19, 128, False),
    ("c5", 16, 120, True),
    ("p4", 13, 80, True),
])
def test_named_graph_machines(name, dim, count, answer):
    graph = named_graph(name)
    cm = _to_cm(graph)
    assert cm.dimension == dim
    assert len(cm.vectors) == count
    assert solve_counter_machine(cm).answer is answer
    assert solve_coloring(graph).answer is answer


def test_all_small_graphs_agree():
    for graph in graphs_upto(4):
        assert solve(_to_cm(graph)).answer is solve(graph).answer, graph


def test_coloring_to_cm_output_pinned():
    digest = hashlib.sha256()
    graphs = [named_graph(n) for n in ("k3", "k4", "c5", "p4")]
    for graph in graphs + list(graphs_upto(4)):
        digest.update(repr(_to_cm(graph)).encode())
    assert digest.hexdigest() == \
        "9bc1a4a6e3716fb1b57ee7674395b980bc5f3d11f196d8136d203f97b9cd9f7e"


def test_machines_share_block_vectors():
    k4, rng = named_graph("k4"), Random(7)
    machines = []
    for _ in range(100):
        perm = list(range(k4.num_vertices))
        rng.shuffle(perm)
        machines.append(_to_cm(ColoringInstance(
            k4.num_vertices,
            tuple((perm[a], perm[b]) for a, b in k4.edges),
            tuple(tuple(sorted(perm[v] for v in bag)) for bag in k4.bags))))
    slots = [vec for cm in machines for vec in cm.vectors]
    assert len(slots) == 12_800
    assert len({id(vec) for vec in slots}) <= 128
    info = _block.cache_info()
    assert info.currsize <= info.maxsize


def test_rejects_broken_decomposition():
    bad = ColoringInstance(2, ((0, 1),), ((0,), (1,)))
    with pytest.raises(ValidationError):
        coloring_blocks(bad)
    with pytest.raises(ValidationError):
        red_coloring_to_cm.apply(
            bad, Witness.zero(red_coloring_to_cm.witness_len(bad)))


def test_cm_to_perm_ss_round_trip():
    cm = CounterMachineInstance(1, ((1,), (-1,)), (REQUIRED, REQUIRED))
    assert red_cm_to_perm_ss.witness_len(cm) == 2
    sol = solve(cm)
    assert sol.answer
    wit = red_cm_to_perm_ss.synthesize(cm, sol.solution)
    assert wit.value == 2                    # counter trajectory 1, then 0
    target = red_cm_to_perm_ss.apply(cm, wit)
    assert len(target.elements) == 2
    assert solve(target).answer


def test_cm_to_perm_ss_no_instance_all_witnesses():
    cm = CounterMachineInstance(1, ((1,), (1,)), (REQUIRED, REQUIRED))
    assert not solve(cm).answer
    L = red_cm_to_perm_ss.witness_len(cm)
    for wit in all_witnesses(L):
        assert not solve(red_cm_to_perm_ss.apply(cm, wit)).answer


def test_cm_to_perm_ss_empty_machine():
    cm = CounterMachineInstance(1, (), ())
    out = red_cm_to_perm_ss.apply(
        cm, Witness.zero(red_cm_to_perm_ss.witness_len(cm)))
    assert out.elements == ()
    assert solve(out).answer


def test_full_pipeline_on_single_vertex():
    from redkit.reductions import chain
    pipe = chain(red_coloring_to_cm, red_cm_to_perm_ss)
    graph = ColoringInstance(1, (), ((0,),))
    wit = pipe.synthesize(graph, solve(graph).solution)
    assert solve(pipe.apply(graph, wit)).answer


def test_full_pipeline_target_is_well_formed():
    # larger graphs overflow the group oracle's element guard, so only
    # validate the chained image structurally
    from redkit.instances import validate
    from redkit.reductions import chain
    pipe = chain(red_coloring_to_cm, red_cm_to_perm_ss)
    graph = named_graph("k3")
    wit = pipe.synthesize(graph, solve(graph).solution)
    target = pipe.apply(graph, wit)
    assert validate(target) == []
    assert target.kind == "group_subset_sum"


def test_cps_caches_stay_within_their_stated_bytes():
    # the bounds stated beside the caches: about 5.4 KB per element at
    # coloring-to-cm's K4 machine (degree 640, 128 vectors), and a shape of
    # 4.6 KB at n = 5, l = 2, 0.83 MB at K4's n = 128, l = 19 and 1.33 MB
    # at n = 128, l = 31, the two entries at most 2.7 MB while n <= 128 and
    # l <= 31
    cm = _to_cm(named_graph("k4"))
    n, ell = len(cm.vectors), cm.dimension
    pipeline._cps_shape(n, ell)
    pipeline._cps_element.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for vec, flag in zip(cm.vectors, cm.flags):
            pipeline._cps_element(n, vec, flag)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    entries = pipeline._cps_element.cache_info().currsize
    assert entries == len(set(zip(cm.vectors, cm.flags))) == 98
    assert len(pipeline._cps_element(n, cm.vectors[0], cm.flags[0])) == 640
    assert held <= 5_400 * entries, held / entries
    assert pipeline.CPS_ELEMENT_CACHE * 5_400 <= 1_400_000

    def held_by(shapes):
        for key in shapes:
            # the Landau table is a cache of its own
            pipeline._cps_shape(*key)
        pipeline._cps_shape.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for key in shapes:
                pipeline._cps_shape(*key)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            pipeline._cps_shape.cache_clear()

    for key, bound in (((5, 2), 4_600), ((n, ell), 830_000),
                       ((128, 31), 1_330_000)):
        assert held_by([key]) <= bound, key
    # the largest two entries while n <= 128 and l <= 31
    assert pipeline._cps_shape.cache_info().maxsize == 2
    assert held_by([(127, 31), (128, 31)]) <= 2_700_000


def test_block_cache_stays_within_its_stated_bytes():
    # the bound stated beside ``_block``: an edge block (the largest) takes
    # at most 4.6 KB at k = 4, 6.9 KB at k = 10 and 15.1 KB at k = 32, and
    # the 128 entries at most 0.9 MB while k <= 10
    def held_by(keys):
        _block.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for k, cmd in keys:
                _block(k, cmd)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            _block.cache_clear()

    def edges(k):
        return [(k, ("edge", x, y))
                for x, y in permutations(range(1, k + 1), 2)]

    for k, bound in ((4, 4_600), (10, 6_900), (32, 15_100)):
        keys = edges(k)[:_block.cache_info().maxsize]
        assert held_by(keys) <= bound * len(keys), k
    # the largest 128 entries with k <= 10: all 90 edge blocks at k = 10,
    # then edge blocks at k = 9
    keys = (edges(10) + edges(9))[:128]
    assert _block.cache_info().maxsize == len(keys) == 128
    assert held_by(keys) <= 900_000


def test_consecutive_grid_sources_resume_the_group_closure():
    # consecutive machines of a grid share their group object and all but
    # their last element objects, so the second closure resumes from the
    # first's prefix and equals a fresh one, item for item
    red = red_cm_to_perm_ss
    machines = [inst for inst in cm_grid(2, 3) if len(inst.vectors) == 3]
    for a, b in zip(machines, machines[1:]):
        wits = [next(red.valid_witnesses(inst), None) for inst in (a, b)]
        if None not in wits and a.vectors[:2] == b.vectors[:2]:
            break
    targets = [red.apply(inst, wit) for inst, wit in zip((a, b), wits)]
    assert targets[0].group is targets[1].group
    assert all(map(operator.is_, targets[0].elements[:2],
                   targets[1].elements[:2]))
    starts, real = [], oracles._reach

    def counted(*args, sizes=None, **kwargs):
        starts.append(len(sizes))
        return real(*args, sizes=sizes, **kwargs)

    group, elements = targets[1].group, targets[1].elements
    with gates(), mock.patch.object(oracles, "_reach", counted):
        for tgt in targets:
            solve(tgt)
        # the memo holds the resumed closure and answers for it
        resumed = oracles._group_reach(group, elements)
    assert starts == [0, 2]
    fresh = real(elements, group.identity(), group.times, 10 ** 6, "x",
                 order=group.order())
    assert list(resumed.items()) == list(fresh.items())
