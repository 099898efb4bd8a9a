"""Instance validation, trivial-instance verdicts, and JSON round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from redkit import instances as I
from redkit.errors import ValidationError
from redkit.groups import Permutation
from redkit.oracles import solve


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

# integers stay within 10^4 so that a vertex count costs little to check
_INT = st.integers(-10 ** 4, 10 ** 4) | st.integers(0, 99).map(str)
_JSON = st.recursive(
    st.none() | st.booleans() | _INT | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

_INT_LIST = st.lists(_INT, max_size=4)
_INT_ROWS = st.lists(_INT_LIST, max_size=3)
_SHAPES = {
    "subset_sum": {"items": _INT_LIST, "target": _INT, "modulus": _INT},
    "knapsack": {"items": _INT_ROWS, "capacity": _INT, "demand": _INT},
    "ilp": {"columns": _INT_ROWS, "rhs": _INT_LIST,
            "variant": st.sampled_from(I.ILP_VARIANTS)},
    "group_subset_sum": {
        "group": st.fixed_dictionaries({
            "family": st.sampled_from(("cyclic", "product", "symmetric")),
            "q": _INT, "k": _INT}),
        "elements": _INT_ROWS | _INT_LIST, "target": _INT_LIST | _INT},
    "counter_machine": {"dimension": _INT, "vectors": _INT_ROWS,
                        "flags": st.lists(st.sampled_from("OR"), max_size=3)},
    "coloring": {"n": _INT, "edges": _INT_ROWS, "bags": _INT_ROWS},
    "scheduling": {"jobs": _INT_ROWS, "tardy_budget": _INT},
    "cnf": {"num_vars": _INT, "clauses": _INT_ROWS, "arity_cap": _INT},
    "and_sat": {"num_vars": _INT,
                "formulas": st.lists(st.deferred(lambda: _SHAPED),
                                     max_size=2)},
    "unbounded_subset_sum": {"items": _INT_LIST, "target": _INT},
}


@st.composite
def _instance_shaped(draw):
    """A dict naming a kind, each of its fields (or a few left out) holding
    a value of the right shape or random JSON."""
    kind = draw(st.sampled_from(I.KINDS))
    out = {"problem": kind}
    for key, shaped in _SHAPES[kind].items():
        if draw(st.integers(0, 9)):
            out[key] = draw(shaped | _JSON)
    return out


_SHAPED = _instance_shaped()


@settings(max_examples=1000, deadline=None)
@given(_JSON | _SHAPED)
def test_from_json_raises_only_validation_errors(data):
    try:
        inst = I.from_json(data)
    except ValidationError:
        return
    assert isinstance(I.validate(inst), list)


def _ints(lo, hi, size=None):
    if size is not None:
        return st.tuples(*[st.integers(lo, hi)] * size)
    return st.lists(st.integers(lo, hi), max_size=4).map(tuple)


_BIG = st.integers(0, 1 << 70)


@st.composite
def _group_instance(draw):
    family = draw(st.sampled_from(("cyclic", "product", "symmetric")))
    if family == "cyclic":
        q = draw(st.integers(1, 1 << 70))
        elem = st.integers(0, q - 1)
        group = I.CyclicGroup(q)
    elif family == "product":
        k = draw(st.integers(1, 4))
        elem = _ints(0, k - 1, k)
        group = I.ProductGroup(k)
    else:
        k = draw(st.integers(1, 5))
        elem = st.permutations(range(k)).map(lambda p: Permutation(tuple(p)))
        group = I.SymmetricGroup(k)
    return I.GroupSubsetSumInstance(
        group, tuple(draw(st.lists(elem, max_size=4))), draw(elem))


_CNF = st.builds(I.CnfInstance, st.integers(0, 5),
                 st.lists(_ints(-5, 5), max_size=3).map(tuple),
                 st.none() | st.integers(0, 4))

_INSTANCES = {
    "subset_sum": st.builds(I.SubsetSumInstance,
                            st.lists(_BIG, max_size=4).map(tuple), _BIG,
                            st.none() | _BIG),
    "knapsack": st.builds(I.KnapsackInstance,
                          st.lists(st.tuples(_BIG, _BIG),
                                   max_size=3).map(tuple), _BIG, _BIG),
    "ilp": st.builds(I.IlpInstance, st.lists(_ints(-1, 1), max_size=3).map(
        tuple), _ints(-3, 3), st.sampled_from(I.ILP_VARIANTS)),
    "group_subset_sum": _group_instance(),
    "counter_machine": st.builds(
        I.CounterMachineInstance, st.integers(1, 3),
        st.lists(_ints(-1, 1), max_size=3).map(tuple),
        st.lists(st.sampled_from((I.OPTIONAL, I.REQUIRED)),
                 max_size=3).map(tuple)),
    "coloring": st.builds(I.ColoringInstance, st.integers(0, 6),
                          st.lists(_ints(0, 6, 2), max_size=4).map(tuple),
                          st.lists(_ints(0, 6), max_size=3).map(tuple)),
    "scheduling": st.builds(I.SchedulingInstance,
                            st.lists(st.tuples(_BIG, _BIG, _BIG),
                                     max_size=3).map(tuple), _BIG),
    "cnf": _CNF,
    "and_sat": st.builds(I.AndSatInstance, st.integers(0, 5),
                         st.lists(_CNF, max_size=2).map(tuple)),
    "unbounded_subset_sum": st.builds(I.UnboundedSubsetSumInstance,
                                      st.lists(_BIG, max_size=4).map(tuple),
                                      _BIG),
}


def test_instance_strategies_cover_every_kind():
    assert sorted(_INSTANCES) == sorted(I.KINDS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(I.KINDS).flatmap(_INSTANCES.get))
def test_json_round_trip_generated(inst):
    assert I.from_json(I.to_json(inst)) == inst
    assert I.loads(I.dumps(inst)) == inst
