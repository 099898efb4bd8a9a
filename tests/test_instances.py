"""Instance validation, trivial-instance verdicts, and JSON round trips."""

import dataclasses
import hashlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from redkit import instances as I
from redkit.errors import ValidationError
from redkit.families import cm_grid
from redkit.groups import Permutation
from redkit.oracles import solve

from helpers import (_GROUP_SHAPE, _SHAPES, INSTANCES, JSON_VALUES,
                     SHAPED_INSTANCES, no_source_constants)


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


@pytest.mark.parametrize("inst, name", [
    (I.IlpInstance(((0.5, 1), (1, 0)), (1, 1)), "ilp-to-monotone"),
    (I.IlpInstance(((0.5,),), (1,), "monotone"), "monotone-to-ss"),
])
def test_a_fractional_ilp_entry_is_refused_alike(inst, name):
    # the oracle's entry rule, {-1, 0, 1} ({0, 1} for monotone), not a
    # range: validate, solve and apply all refuse 0.5 (the Python API can
    # build it; JSON input cannot carry it)
    from redkit.catalog import REDUCTIONS
    from redkit.witness import Witness

    red = REDUCTIONS[name]
    assert I.validate(inst) == ["column entries out of range"]
    with pytest.raises(ValidationError, match="entries out of range"):
        solve(inst)
    with pytest.raises(ValidationError, match=f"{name}: invalid source"):
        red.apply(inst, Witness.zero(red.witness_len(inst)))


@pytest.mark.parametrize("inst", [
    I.IlpInstance(((1,),), (0.5,)),
    I.SubsetSumInstance((1.5, 2), 3.5),
    I.SubsetSumInstance((1, 2), 3.0),
    I.SubsetSumInstance((1, 2), 3, modulus=5.0),
    I.UnboundedSubsetSumInstance((1.5, 2), 3),
    I.UnboundedSubsetSumInstance((1, 2), True),
    I.KnapsackInstance(((1.5, 1),), 2, 1),
    I.KnapsackInstance(((1, 1),), 2, 1.0),
], ids=["ilp", "subset_sum", "subset_sum-target", "subset_sum-modulus",
        "unbounded_subset_sum", "unbounded_subset_sum-bool", "knapsack",
        "knapsack-demand"])
def test_a_number_that_is_not_an_int_is_refused(inst):
    # validate names it, and solve refuses it with that ValidationError,
    # not the TypeError of the fast paths that skip validate (the Python
    # API can build these; JSON input cannot carry them)
    assert [p for p in I.validate(inst) if p.endswith("must be ints")]
    with pytest.raises(ValidationError, match="must be ints"):
        solve(inst)


def test_an_ilp_column_entry_that_is_not_an_int_is_reported():
    # 1.0 and True are in range, so only the type check names them
    for col in ((1.0, 0), (True, 0)):
        inst = I.IlpInstance((col, (0, 1)), (1, 1))
        assert I.validate(inst) == ["column entries must be ints"]


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


class _Row(tuple):
    """A tuple subclass, as a caller's row or sequence type may be."""


# a well-formed and a malformed instance of each constructor that keeps a
# plain-tuple field as the very object it is given
_PLAIN_FIELDS = [
    (I.SubsetSumInstance, dict(items=(3, 5, 7), target=8)),
    (I.SubsetSumInstance, dict(items=(3, -1), target=4)),
    (I.KnapsackInstance, dict(items=((2, 3), (4, 1)), capacity=5, demand=3)),
    (I.KnapsackInstance, dict(items=((0, 1),), capacity=2, demand=2)),
    (I.IlpInstance, dict(columns=((1, 0), (-1, 1)), rhs=(0, 1))),
    (I.IlpInstance, dict(columns=((-1, 0),), rhs=(0, 1), variant="monotone")),
    (I.CounterMachineInstance, dict(dimension=2, vectors=((1, 0), (-1, 0)),
                                    flags=(I.OPTIONAL, I.REQUIRED))),
    (I.CounterMachineInstance, dict(dimension=2, vectors=((2, 0),),
                                    flags=("X",))),
    (I.UnboundedSubsetSumInstance, dict(items=(4, 5), target=23)),
    (I.UnboundedSubsetSumInstance, dict(items=(2,), target=-1)),
]


@pytest.mark.parametrize("cls, plain", _PLAIN_FIELDS)
def test_sequence_fields_from_lists_tuples_and_subclasses(cls, plain):
    ref = cls(**plain)
    seqs = [name for name, v in plain.items() if type(v) is tuple]
    # all plain tuples: each field is the very object passed in
    for name in seqs:
        assert getattr(ref, name) is plain[name]
    for name in seqs:
        value = plain[name]
        if type(value[0]) is tuple:
            # a list, a tuple of lists, a tuple of tuple-subclass rows
            forms = [list(value), tuple(map(list, value)),
                     tuple(map(_Row, value))]
        else:
            forms = [list(value), _Row(value)]
        for form in forms:
            inst = cls(**{**plain, name: form})
            got = getattr(inst, name)
            assert type(got) is tuple and got == value
            assert {*map(type, got)} <= {tuple, int, str}
            assert inst == ref and hash(inst) == hash(ref)
            assert I.validate(inst) == I.validate(ref)


def _ref_cm_grid(dimension, max_n):
    # each member's vectors and flags split by two generator expressions
    opts = [(vec, flag) for vec in product((-1, 0, 1), repeat=dimension)
            for flag in (I.OPTIONAL, I.REQUIRED)]
    for n in range(max_n + 1):
        for seq in product(opts, repeat=n):
            yield I.CounterMachineInstance(dimension,
                                           tuple(v for v, _ in seq),
                                           tuple(f for _, f in seq))


def test_cm_grid_members_match_the_reference():
    got, want = list(cm_grid(2, 2)), list(_ref_cm_grid(2, 2))
    assert len(got) == 1 + 18 + 18 ** 2
    assert got == want
    for inst in got:
        assert type(inst.vectors) is tuple and type(inst.flags) is tuple
        assert {*map(type, inst.vectors)} <= {tuple}


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


def _odd_fields():
    """Instances using what no ``--family`` makes (a modulus, an arity cap,
    S_k and big cyclic groups, scheduling jobs, integers past 2^64), and
    each kind's trivial instances."""
    big = 1 << 70
    s3 = I.SymmetricGroup(3)
    return [
        I.SubsetSumInstance((3, 5), 2, modulus=6),
        I.SubsetSumInstance((big, 3), big + 3, modulus=big << 1),
        I.KnapsackInstance(((big, 1), (2, big)), big, 1),
        I.CnfInstance(3, ((1, -2, 3),), arity_cap=3),
        I.AndSatInstance(3, (I.CnfInstance(2, ((1,),), 1),
                             I.CnfInstance(3, ()))),
        I.GroupSubsetSumInstance(s3, (Permutation((1, 0, 2)),
                                      Permutation((1, 2, 0))),
                                 Permutation((0, 2, 1))),
        I.GroupSubsetSumInstance(I.CyclicGroup(big), (big - 1, 5), 7),
        I.GroupSubsetSumInstance(I.ProductGroup(3), ((1, 2, 0),), (0, 0, 0)),
        I.SchedulingInstance(((2, 3, 4), (big, 1, 2)), 1),
        I.UnboundedSubsetSumInstance((big,), big << 2),
        I.trivial_instance("group_subset_sum", False, group=s3),
        *(I.trivial_instance(kind, answer)
          for kind in I.KINDS for answer in (True, False)),
    ]


# sha256 of the concatenated ``dumps`` of each CLI ``--family`` at its
# defaults, and of ``_odd_fields``: the JSON format, byte for byte
_DUMPS_SHA256 = {
    "subset-sum":
        "a1eb6c2cb729a5e4cb69a3caf3978bfcde60105cf67524cda663d336fd0da053",
    "knapsack":
        "71bf2c40714b4b63e41d856b9584c980fec3008dd193ab05ea00ae302105fafb",
    "ilp-standard":
        "9885dc45c8fba443ce635963d6138f1b705e33ff8f9529fa2f47bbc139beb3c5",
    "ilp-monotone":
        "2135cbf12176602675d030a9745d5fe2dc02f55156c9f4f7d07cff38dc534ff0",
    "ilp-zero-sum":
        "b416a90ea730f71990e7884ef04b57640ee717815d970d6cec1b2bc84f2f38b6",
    "zq":
        "211c4d736c08b41270abab33c25b9455107c58059cec62c4cceff2bd99e371c5",
    "zkk":
        "024d222afef813decfaac492966e5808adfc9205926c9acd434e448a347063cd",
    "cm":
        "a42e0020750380f9ed54891b45f92c18b8e9186cb29b4eeb15a6fb179e230c8a",
    "unbounded":
        "45d68893e1dfcafdf877c75048c1f3edec4dca8569b2176da6ae2bf3cf4fc55e",
    "graphs":
        "001286012495a4ee208497bf55aadfceaa703e4539a7bc27588b6c96b10d5524",
    "cnf":
        "784c3819247cc1a8fbb34bdcec46d1cc391a09fe02dc0118baa271e629513d40",
    "andsat":
        "63827beb81d66d4fc456034a2c4cd5a1c13b96cdbe9a52849b16a6478d88c8ac",
    "odd fields":
        "3556b6889fdac511f887a9962a31f24181fb60d86e7ac06589eca60412d4ae42",
}


def test_dumps_is_byte_stable():
    from redkit.cli import _FAMILIES, _parse_family
    got = {}
    for name, insts in [*((name, _parse_family(name)) for name in _FAMILIES),
                        ("odd fields", _odd_fields())]:
        digest = hashlib.sha256()
        for inst in insts:
            text = I.dumps(inst)
            assert text.endswith("\n") and I.loads(text) == inst, text
            digest.update(text.encode())
        got[name] = digest.hexdigest()
    assert got == _DUMPS_SHA256


def test_loads_rejects_garbage():
    with pytest.raises(ValidationError):
        I.loads('{"kind": "subset_sum", "items": ["x"], "target": "1"}')
    with pytest.raises(ValidationError):
        I.loads('{"kind": "made_up"}')
    # a tag that is not a string names no class
    for text in ('{"problem": ["cnf"]}', '{"problem": "group_subset_sum", '
                 '"group": {"family": {}}, "elements": [], "target": "0"}'):
        with pytest.raises(ValidationError, match="is not one of"):
            I.loads(text)


def test_decimal_strings_take_only_ascii_digits():
    # int(v, 10) also reads whitespace, a "+", underscores and non-ASCII
    # digits: " 1_0" loaded as 10, "\u0663" as 3 and "0_7" as 7
    for bad in (" 1_0", "\u0663", "0_7", " 7", "7\n", "+7", "-+7", "--7",
                "-", "", "1" * 5000):
        for data in ({"problem": "subset_sum", "items": [bad], "target": "7"},
                     {"problem": "subset_sum", "items": [], "target": bad},
                     {"problem": "group_subset_sum",
                      "group": {"family": "cyclic", "q": bad},
                      "elements": [], "target": "0"}):
            with pytest.raises(ValidationError, match="not a decimal integer"):
                I.from_json(data)
    got = I.from_json({"problem": "subset_sum", "items": ["10", "-3", "007"],
                       "target": "-0"})
    assert (got.items, got.target) == ((10, -3, 7), 0)


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


def test_fuzz_shapes_draw_the_declared_json_keys():
    # so a field added later is fuzzed too
    def keys(cls):
        return {f.metadata["key"] or f.name for f in dataclasses.fields(cls)}
    for kind, cls in I._KIND_CLASSES.items():
        assert set(_SHAPES[kind]) == keys(cls), kind
    assert set(_GROUP_SHAPE) == {"family"}.union(
        *map(keys, I._GROUP_CLASSES.values()))


def test_shaped_draws_reach_valid_group_instances():
    # elements and targets shaped for the drawn group: a share of the
    # misshapen-input draws loads and validates as group subset sum, so
    # ``solve`` reaches the group oracle (none did when each field was
    # drawn alone), and a share loads with one element or the target shaped
    # for another size, so it meets the oracle's refusals; the counts are
    # stated beside ``_instance_shaped``
    counts = {"draws": 0, "loaded": 0, "valid": 0}

    @settings(max_examples=1000, derandomize=True, database=None,
              deadline=None)
    @given(SHAPED_INSTANCES)
    def draw(data):
        counts["draws"] += 1
        try:
            inst = I.from_json(data)
        except ValidationError:
            return
        if inst.kind == "group_subset_sum":
            counts["loaded"] += 1
            counts["valid"] += not I.validate(inst)

    # the same draws whichever modules earlier tests loaded
    with no_source_constants():
        draw()
    assert counts["valid"] >= 20, counts
    assert counts["loaded"] - counts["valid"] >= 5, counts


def test_instance_strategies_cover_every_kind():
    assert sorted(INSTANCES) == sorted(I.KINDS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(I.KINDS).flatmap(INSTANCES.get))
def test_json_round_trip_generated(inst):
    assert I.from_json(I.to_json(inst)) == inst
    assert I.loads(I.dumps(inst)) == inst
