"""The group subset-sum oracle against an independent referee.

``reference_oracle.group_subset_sum`` decides each instance from an
explicit set of products.  The runs share prefixes of element objects,
as consecutive sources of a family grid do, so the oracle's reach
closures resume from its memo; every member of the group is a target.
"""

from hypothesis import given, settings

from redkit import instances as I
from redkit.groups import Permutation
from redkit.oracles import solve

from helpers import PREFIX_RUNS, gates
from reference_oracle import group_subset_sum, members


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
