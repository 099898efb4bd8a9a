"""Instance validation, trivial-instance verdicts, and JSON round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from redkit import instances as I
from redkit.errors import ValidationError
from redkit.oracles import solve

from helpers import INSTANCES, JSON_VALUES, SHAPED_INSTANCES


def _one_of_each():
    return [
        I.SubsetSumInstance((3, 5, 7), 8),
        I.SubsetSumInstance((3, 5), 2, modulus=6),
        I.KnapsackInstance(((2, 3), (4, 1)), 5, 3),
        I.IlpInstance(((1, 0), (-1, 1)), (0, 1)),
        I.IlpInstance(((1, 0), (1, 1)), (1, 1), variant="monotone"),
        I.IlpInstance(((1, -1), (-1, 1)), (0, 0), variant="zero_sum"),
        I.GroupSubsetSumInstance(I.CyclicGroup(5), (1, 2, 3), 4),
        I.GroupSubsetSumInstance(I.ProductGroup(2), ((1, 0), (0, 1)), (1, 1)),
        I.CounterMachineInstance(2, ((1, 0), (-1, 0)), (I.OPTIONAL, I.REQUIRED)),
        I.ColoringInstance(3, ((0, 1), (1, 2)), ((0, 1, 2),)),
        I.SchedulingInstance(((2, 3, 4), (1, 1, 2)), 1),
        I.CnfInstance(2, ((1, -2), (2,))),
        I.AndSatInstance(2, (I.CnfInstance(1, ((1,),)),)),
        I.UnboundedSubsetSumInstance((4, 5), 23),
    ]


def test_all_kinds_validate_clean():
    for inst in _one_of_each():
        assert I.validate(inst) == [], inst


def test_validation_catches_malformed():
    bad = [
        I.SubsetSumInstance((3, -1), 4),
        I.SubsetSumInstance((3,), 4, modulus=0),
        I.KnapsackInstance(((0, 1),), 2, 2),
        I.IlpInstance(((2, 0),), (0, 0)),
        I.IlpInstance(((-1, 0),), (0, 1), variant="monotone"),
        I.IlpInstance(((1, 0),), (1, 0), variant="zero_sum"),
        I.GroupSubsetSumInstance(I.CyclicGroup(5), (1, 7), 4),
        I.CounterMachineInstance(2, ((2, 0),), (I.OPTIONAL,)),
        I.CounterMachineInstance(2, ((1, 0),), ("X",)),
        I.ColoringInstance(2, ((0, 0),), ((0, 1),)),
        I.ColoringInstance(3, ((0, 2),), ((0, 1),)),
        I.SchedulingInstance(((0, 1, 1),), 0),
        I.CnfInstance(2, ((3,),)),
        I.CnfInstance(2, ((),)),
        I.UnboundedSubsetSumInstance((2,), -1),
    ]
    for inst in bad:
        assert I.validate(inst), inst


def test_group_elements_from_a_list_and_from_a_tuple():
    g = I.ProductGroup(2)
    # a list, and list members in it, become tuples
    inst = I.GroupSubsetSumInstance(g, [[1, 0], (0, 1)], [1, 1])
    assert inst.elements == ((1, 0), (0, 1))
    assert list(map(type, inst.elements)) == [tuple, tuple]
    assert type(inst.target) is tuple
    assert solve(inst).answer
    # a tuple is kept as the very object, members unscanned: a list member
    # stays a list, which the group does not contain
    for elements in (((1, 0), (0, 1)), ([1, 0], (0, 1))):
        inst = I.GroupSubsetSumInstance(g, elements, (1, 1))
        assert inst.elements is elements
    assert I.validate(inst)
    with pytest.raises(ValidationError, match="out of range"):
        solve(inst)


@pytest.mark.parametrize("kind", I.KINDS)
@pytest.mark.parametrize("answer", [True, False])
def test_trivial_instance_verdicts(kind, answer):
    inst = I.trivial_instance(kind, answer)
    assert I.validate(inst) == []
    assert solve(inst).answer is answer


@pytest.mark.parametrize("variant", ["standard", "monotone", "zero_sum"])
@pytest.mark.parametrize("answer", [True, False])
def test_trivial_ilp_variants(variant, answer):
    inst = I.trivial_instance("ilp", answer, variant=variant)
    assert inst.variant == variant
    assert solve(inst).answer is answer


def test_json_round_trip_every_kind():
    for inst in _one_of_each():
        text = I.dumps(inst)
        assert text == I.dumps(I.loads(text))
        assert I.loads(text) == inst


def test_dumps_is_byte_stable():
    inst = I.SubsetSumInstance((9, 2, 4), 11)
    assert I.dumps(inst) == I.dumps(inst)
    assert I.dumps(inst).endswith("\n")


def test_loads_rejects_garbage():
    with pytest.raises(ValidationError):
        I.loads('{"kind": "subset_sum", "items": ["x"], "target": "1"}')
    with pytest.raises(ValidationError):
        I.loads('{"kind": "made_up"}')


def test_parameter_is_positive():
    for inst in _one_of_each():
        assert I.parameter(inst) >= 1


# ---------------------------------------------------------------------------
# The loader takes outside input: whatever JSON it is given, it returns an
# instance or raises ValidationError, and validate() then lists problems
# rather than raising.


@settings(max_examples=1000, deadline=None)
@given(JSON_VALUES | SHAPED_INSTANCES)
def test_from_json_raises_only_validation_errors(data):
    try:
        inst = I.from_json(data)
    except ValidationError:
        return
    assert isinstance(I.validate(inst), list)


def test_instance_strategies_cover_every_kind():
    assert sorted(INSTANCES) == sorted(I.KINDS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(I.KINDS).flatmap(INSTANCES.get))
def test_json_round_trip_generated(inst):
    assert I.from_json(I.to_json(inst)) == inst
    assert I.loads(I.dumps(inst)) == inst
