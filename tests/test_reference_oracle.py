"""The oracles against an independent referee, and the referee's own
independence.

``reference_oracle`` decides each instance from an explicit set of
products, sums or row-sum vectors.  The group runs share prefixes of
element objects, as consecutive sources of a family grid do, so the
oracle's reach closures resume from its memo; every member of the group is
a target.  The subset-sum calls drive the oracle's subset-sum memo, the
Z_q calls run on both sides of the rule that picks the bitset DP or meet
in the middle, and past the DP gate.  Every yes verdict is re-checked
with ``check_solution``.  The test of each other kind is in
``tests/test_oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_oracle
from redkit import instances as I
from redkit import oracles
from redkit.errors import ValidationError
from redkit.groups import Permutation
from redkit.oracles import check_solution, solve

from helpers import PREFIX_RUNS, gates, no_source_constants
from reference_oracle import group_subset_sum, members, subset_sum


def test_the_referee_decides_every_kind_and_imports_no_solver():
    assert set(reference_oracle.DECIDERS) == set(I.KINDS)
    tree = ast.parse(Path(reference_oracle.__file__).read_text())
    imported = {f"{node.module}.{alias.name}" if isinstance(
        node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import,
                                                        ast.ImportFrom))
        for alias in node.names}
    assert imported == {"itertools.permutations", "itertools.product",
                        "redkit.instances.REQUIRED"}


@settings(max_examples=200, deadline=None)
@given(PREFIX_RUNS)
def test_group_subset_sum_matches_the_referee(case):
    group, runs, _ = case
    targets = members(group)
    if group.family == "symmetric":
        targets = list(map(Permutation, targets))
    # default gates (Z_q by its bitset DP, the others by the reach closure),
    # then every group by the reach closure
    for gate in ({}, {"MAX_DP_CELLS": 0}):
        method = "dp" if group.family == "cyclic" and not gate else "reach"
        with gates(**gate):
            for elements in runs:
                if not all(map(group.contains, elements)):
                    continue
                for target in targets:
                    inst = I.GroupSubsetSumInstance(group, elements, target)
                    got = solve(inst)
                    assert got.answer == group_subset_sum(inst), inst
                    assert got.method == method, inst
                    if got.answer:
                        assert check_solution(inst, got.solution), inst


# Plain subset sum: calls on a few items tuples, each also as an equal but
# distinct copy, in runs on one object and interleaved between objects, so
# that the oracle's subset-sum memo notes a tuple, builds its set on the
# second ask and starts over on another object.  Targets run from below 0
# to past the sum, and each call runs under a DP gate of its own: the
# default, one under which some tables fit, or 0 (the reach closure).
_ITEMS = st.lists(st.integers(0, 12), max_size=6).map(tuple)
_SS_RUNS = st.tuples(
    st.lists(_ITEMS, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 5), st.lists(st.tuples(
        st.integers(-2, 80), st.sampled_from((None, 40, 0))),
        min_size=1, max_size=6)), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SS_RUNS)
def _subset_sum_matches_the_referee(case):
    pool, runs = case
    objects = [obj for items in pool for obj in (items, tuple(list(items)))]
    with gates(), pytest.MonkeyPatch.context() as mp:
        default = oracles.MAX_DP_CELLS
        for which, calls in runs:
            items = objects[which % len(objects)]
            for target, gate in calls:
                mp.setattr(oracles, "MAX_DP_CELLS",
                           default if gate is None else gate)
                inst = I.SubsetSumInstance(items, target)
                want = subset_sum(inst)
                if target < 0:
                    assert not want
                    with pytest.raises(ValidationError):
                        solve(inst)
                    continue
                got = solve(inst)
                assert got.answer == want, (inst, gate)
                if want:
                    assert check_solution(inst, got.solution), inst
                dp = max(sum(1 <= p <= target for p in items), 1) * \
                    (target + 1) <= oracles.MAX_DP_CELLS
                assert got.method == ("dp" if dp else "brute"), (inst, gate)


def test_subset_sum_matches_the_referee():
    # the same draws whichever modules earlier tests loaded
    with no_source_constants():
        _subset_sum_matches_the_referee()


@st.composite
def _zq_cases(draw):
    """(q, items, targets): a small q with every residue a target, or a
    large one with the sum of a drawn subset and a few drawn residues."""
    big = draw(st.booleans())
    q = draw(st.integers(1_000, 60_000) if big else st.integers(1, 40))
    items = draw(st.lists(st.integers(0, q - 1), max_size=12 if big else 7))
    if not big:
        return q, items, range(q)
    mask = draw(st.integers(0, (1 << len(items)) - 1))
    hit = sum(p for i, p in enumerate(items) if mask >> i & 1) % q
    return q, items, [hit, *draw(st.lists(st.integers(0, q - 1),
                                          min_size=1, max_size=3))]


def test_zq_subset_sum_matches_the_referee():
    # modular subset sum and Z_q group subset sum, each target under the
    # default gates, where the rule picks one method per (item count, q),
    # and a small q also past the DP gate, by the reach closure
    methods = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_zq_cases())
    def run(case):
        q, items, targets = case
        for gate in ({}, {"MAX_DP_CELLS": 0}) if q <= 40 else ({},):
            with gates(**gate):
                for target in targets:
                    modular = I.SubsetSumInstance(items, target, modulus=q)
                    want = subset_sum(modular)
                    for inst in (modular, I.GroupSubsetSumInstance(
                            I.CyclicGroup(q), items, target)):
                        got = solve(inst)
                        assert got.answer == want, inst
                        if want:
                            assert check_solution(inst, got.solution), inst
                        assert (got.method == "reach") == bool(gate), inst
            methods[got.method] += 1

    with no_source_constants():
        run()
    assert min(methods[m] for m in ("mitm", "dp", "reach")) >= 60, methods
