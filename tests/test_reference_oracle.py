"""The group subset-sum, plain subset-sum and 0-1 ILP oracles against an
independent referee.

``reference_oracle`` decides each instance from an explicit set of
products, sums or row-sum vectors.  The group runs share prefixes of
element objects, as consecutive sources of a family grid do, so the
oracle's reach closures resume from its memo; every member of the group is
a target.  The subset-sum calls drive the oracle's subset-sum memo, and the
ILP calls share their columns, as the targets of one source do.
"""

import pytest
from hypothesis import given, settings, strategies as st

from redkit import instances as I
from redkit import oracles
from redkit.errors import ValidationError
from redkit.groups import Permutation
from redkit.oracles import solve

from helpers import PREFIX_RUNS, gates, no_source_constants
from reference_oracle import group_subset_sum, ilp, members, subset_sum


@settings(max_examples=200, deadline=None)
@given(PREFIX_RUNS)
def test_group_subset_sum_matches_the_referee(case):
    group, runs, _ = case
    targets = members(group)
    if group.family == "symmetric":
        targets = list(map(Permutation, targets))
    # default gates (Z_q by its bitset DP), then Z_q by the reach closure
    for gate in ({}, {"MAX_DP_CELLS": 0}):
        with gates(**gate):
            for elements in runs:
                if not all(map(group.contains, elements)):
                    continue
                for target in targets:
                    inst = I.GroupSubsetSumInstance(group, elements, target)
                    assert solve(inst).answer == group_subset_sum(inst), inst


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
                dp = max(sum(1 <= p <= target for p in items), 1) * \
                    (target + 1) <= oracles.MAX_DP_CELLS
                assert got.method == ("dp" if dp else "brute"), (inst, gate)


def test_subset_sum_matches_the_referee():
    # the same draws whichever modules earlier tests loaded
    with no_source_constants():
        _subset_sum_matches_the_referee()


@st.composite
def _ilp_systems(draw):
    """(columns, rhs list, variant): one set of columns and several rhs,
    as the targets of one ilp-to-monotone source share their columns."""
    m = draw(st.integers(0, 3))
    variant = draw(st.sampled_from(("standard", "monotone", "zero_sum")))
    low = 0 if variant == "monotone" else -1
    columns = tuple(draw(st.lists(st.tuples(*[st.integers(low, 1)] * m),
                                  max_size=6)))
    if variant == "zero_sum":
        return columns, [(0,) * m], variant
    # one past the most any row can reach, on each side
    rhs = st.tuples(*[st.integers(7 * low - 1, 7)] * m)
    return columns, draw(st.lists(rhs, min_size=1, max_size=6)), variant


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ilp_systems())
def _ilp_matches_the_referee(case):
    columns, rhss, variant = case
    for rhs in rhss:
        inst = I.IlpInstance(columns, rhs, variant)
        assert solve(inst).answer == ilp(inst), inst


def test_ilp_matches_the_referee():
    with no_source_constants():
        _ilp_matches_the_referee()
