"""Problem instances: types, structural validation, trivial instances, JSON.

``validate`` lists an instance's structural problems; ``source_problems``
keeps that list for the last instance object, with ``layout_cache``, the
one-object memo that also keeps the reductions' and schemes' layouts.

Each instance and group field carries its JSON format in its declaration
(``_field``), and ``to_json``/``from_json`` read those declarations.
Potentially large integers (subset-sum items, knapsack values, scheduling
times, cyclic-group data) are decimal strings so readers without
big-integer support can parse files safely; structurally small integers
(vector entries, vertex ids, permutation images) stay plain JSON numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import wraps
from itertools import chain
from operator import add, itemgetter
from typing import Callable, NamedTuple, Union

from .errors import ValidationError
from .groups import Permutation, identity as perm_identity

OPTIONAL = "O"
REQUIRED = "R"

ILP_VARIANTS = ("standard", "monotone", "zero_sum")


def _tuplize(rows):
    """``rows`` as a tuple of tuples; returned as it is when it already is
    one, as in every target a reduction builds."""
    if type(rows) is tuple and {tuple}.issuperset(map(type, rows)):
        return rows
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# JSON serialization.

class _Codec(NamedTuple):
    """A field's JSON format: ``encode`` maps a value to JSON, ``decode``
    maps JSON back and raises ``ValidationError`` on another shape."""

    encode: Callable
    decode: Callable


_DIGITS = frozenset("0123456789")


def _iparse(v, what: str) -> int:
    if isinstance(v, bool):
        raise ValidationError(f"{what}: expected an integer")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        # ASCII digits after an optional "-" only: int(v, 10) also takes
        # whitespace, a "+", underscores and non-ASCII digits
        digits = v[1:] if v[:1] == "-" else v
        if digits and _DIGITS.issuperset(digits):
            try:
                return int(v, 10)
            except ValueError:
                pass        # more digits than int() converts
        raise ValidationError(f"{what}: not a decimal integer: {v!r}")
    raise ValidationError(f"{what}: expected an integer or decimal string")


def _list(v, what: str, size: int | None = None) -> list:
    """``v`` checked to be a JSON array, of ``size`` entries when given."""
    if not isinstance(v, list):
        raise ValidationError(f"{what}: expected a list")
    if size is not None and len(v) != size:
        raise ValidationError(f"{what}: expected {size} entries, got {len(v)}")
    return v


def _plain(what: str) -> _Codec:
    """An integer written as a JSON number (a decimal string is read too)."""
    return _Codec(lambda x: x, lambda v: _iparse(v, what))


def _decimal(what: str) -> _Codec:
    """An integer written as a decimal string (a JSON number is read too)."""
    return _Codec(lambda x: str(int(x)), lambda v: _iparse(v, what))


def _text(what: str) -> _Codec:
    def decode(v):
        if isinstance(v, str):
            return v
        raise ValidationError(f"{what}: expected a string")
    return _Codec(lambda x: x, decode)


def _array(item: _Codec, what: str, size: int | None = None) -> _Codec:
    """A tuple as a JSON array of ``item``, ``size`` long when given."""
    return _Codec(lambda v: list(map(item.encode, v)),
                  lambda v: tuple(map(item.decode, _list(v, what, size))))


def _row(scalar, what: str, size: int | None = None) -> _Codec:
    """A tuple of ``scalar(what)`` integers, named ``what`` throughout."""
    return _array(scalar(what), what, size)


def _field(codec, key: str | None = None, default=MISSING):
    """A dataclass field written with ``codec`` under ``key`` (default: its
    name), and left out while it holds its default None.  ``codec`` may
    instead be a function of the fields declared before this one (a dict
    of their values), as a group's elements are."""
    codec_of = codec if callable(codec) else lambda values: codec
    return field(default=default, metadata={"codec": codec_of, "key": key})


def _to_fields(obj) -> dict:
    values = vars(obj)
    return {f.metadata["key"] or f.name: f.metadata["codec"](values).encode(v)
            for f in fields(obj)
            if (v := values[f.name]) is not None or f.default is not None}


def _from_tagged(d, tag: str, classes: dict, what: str):
    """The member of ``classes`` that ``d[tag]`` names, built from the
    fields ``d`` holds, in field order.  A key left out takes its field's
    default, or raises ``KeyError`` when the field has none."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what}: expected an object")
    name = d.get(tag)
    if not isinstance(name, str) or name not in classes:
        raise ValidationError(
            f"{what}: {tag} {name!r} is not one of {', '.join(classes)}")
    cls = classes[name]
    got = {}
    for f in fields(cls):
        key = f.metadata["key"] or f.name
        v = d.get(key, f.default)
        if v is MISSING:
            raise KeyError(key)
        if v is not None or f.default is not None:
            v = f.metadata["codec"](got).decode(v)
        got[f.name] = v
    return cls(**got)


def to_json(inst: ProblemInstance) -> dict:
    return {"problem": inst.kind, **_to_fields(inst)}


def from_json(d: dict) -> ProblemInstance:
    try:
        return _from_tagged(d, "problem", _KIND_CLASSES, "instance")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed {d['problem']} JSON: {exc}") from exc


def dumps(inst: ProblemInstance) -> str:
    return json.dumps(to_json(inst), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> ProblemInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None
    return from_json(data)


# ---------------------------------------------------------------------------
# Group kinds for group subset sum.

@dataclass(frozen=True)
class CyclicGroup:
    """Z_q under addition; elements are residues."""

    q: int = _field(_decimal("group order"))

    family = "cyclic"
    element = _decimal("element")

    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.q

    def times(self, e):
        """The map a -> a * e as one callable, as the reach closure asks."""
        q = self.q
        return lambda a: (a + e) % q

    def contains(self, e) -> bool:
        return isinstance(e, int) and not isinstance(e, bool) and 0 <= e < self.q

    def order(self) -> int:
        return self.q

    def parameter(self) -> int:
        return self.q.bit_length()


@dataclass(frozen=True)
class ProductGroup:
    """Z_k^k under componentwise addition; elements are length-k tuples."""

    k: int = _field(_plain("group degree"))

    family = "product"
    element = _row(_plain, "element")

    def identity(self):
        return (0,) * self.k

    def mul(self, a, b):
        return tuple(map(self.k.__rmod__, map(add, a, b)))

    def times(self, e):
        """The map a -> a * e as one callable, as the reach closure asks."""
        k = self.k
        return lambda a: tuple(map(k.__rmod__, map(add, a, e)))

    def contains(self, e) -> bool:
        # a plain loop: the oracle asks this of every element it is given.
        # A coordinate is an int and not a bool, as CyclicGroup asks of an
        # element and the JSON reader of an integer; an exact int, the
        # common case, takes one type test
        k = self.k
        if not isinstance(e, tuple) or len(e) != k:
            return False
        for c in e:
            if type(c) is not int and (isinstance(c, bool)
                                       or not isinstance(c, int)) \
                    or not 0 <= c < k:
                return False
        return True

    def order(self) -> int:
        return self.k ** self.k

    def parameter(self) -> int:
        return self.k


@dataclass(frozen=True)
class SymmetricGroup:
    """S_k; elements are Permutation values of degree k."""

    k: int = _field(_plain("group degree"))

    family = "symmetric"
    element = _Codec(list, lambda v: Permutation(
        _row(_plain, "permutation").decode(v)))

    def identity(self):
        return perm_identity(self.k)

    def mul(self, a, b):
        # ``Permutation.compose``'s rule.  The product is a plain image
        # tuple, equal to the ``Permutation`` and hashed alike; making it a
        # ``Permutation`` with ``tuple.__new__`` copies it, about 5% slower
        # per product at degree 300
        return tuple(map(a.__getitem__, b))

    def times(self, e):
        """The map a -> a * e as one callable, as the reach closure asks:
        ``mul``'s rule, a * e = (a[e[0]], a[e[1]], ...).  ``itemgetter(*e)``
        gathers those images in one C call; it returns a tuple only for two
        or more, so degrees 0 and 1 call ``mul``."""
        if len(e) > 1:
            return itemgetter(*e)
        return lambda a: self.mul(a, e)

    def contains(self, e) -> bool:
        return isinstance(e, Permutation) and len(e) == self.k

    def order(self) -> int:
        return math.factorial(self.k)

    def parameter(self) -> int:
        return self.k


_GROUP_CLASSES = {g.family: g for g in (CyclicGroup, ProductGroup,
                                         SymmetricGroup)}
GroupKind = Union[tuple(_GROUP_CLASSES.values())]
_GROUP = _Codec(
    lambda g: {"family": g.family, **_to_fields(g)},
    lambda d: _from_tagged(d, "family", _GROUP_CLASSES, "group"))


# ---------------------------------------------------------------------------
# Instance types.

@dataclass(frozen=True)
class SubsetSumInstance:
    items: tuple[int, ...] = _field(_row(_decimal, "items"))
    target: int = _field(_decimal("target"))
    modulus: int | None = _field(_decimal("modulus"), default=None)

    kind = "subset_sum"

    def __post_init__(self):
        # a field is stored only when it is not a plain tuple already, as
        # in the targets and family members the library builds
        if type(self.items) is not tuple:
            object.__setattr__(self, "items", tuple(self.items))

    @property
    def variant(self) -> str:
        """``"modular"`` with a modulus, ``"plain"`` without: derived, so
        not a field and not in the JSON.  A reduction that reads plain
        subset sum names it as its ``source_variant``."""
        return "plain" if self.modulus is None else "modular"


@dataclass(frozen=True)
class KnapsackInstance:
    """Items are (size, weight) pairs; ask for total size <= capacity and
    total weight >= demand."""

    items: tuple[tuple[int, int], ...] = _field(
        _array(_row(_decimal, "knapsack item", 2), "items"))
    capacity: int = _field(_decimal("capacity"))
    demand: int = _field(_decimal("demand"))

    kind = "knapsack"

    def __post_init__(self):
        items = _tuplize(self.items)
        if items is not self.items:
            object.__setattr__(self, "items", items)


@dataclass(frozen=True)
class IlpInstance:
    """0-1 feasibility of A x = rhs with columns over {-1,0,1}."""

    columns: tuple[tuple[int, ...], ...] = _field(
        _array(_row(_plain, "column"), "columns"))
    rhs: tuple[int, ...] = _field(_row(_plain, "rhs"))
    variant: str = _field(_text("variant"), default="standard")

    kind = "ilp"

    def __post_init__(self):
        columns = _tuplize(self.columns)
        if columns is not self.columns:
            object.__setattr__(self, "columns", columns)
        if type(self.rhs) is not tuple:
            object.__setattr__(self, "rhs", tuple(self.rhs))

    @property
    def num_rows(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class GroupSubsetSumInstance:
    """Does some subsequence multiply (in index order) to the target?"""

    group: GroupKind = _field(_GROUP)
    # in the group's own element format, so decoded after the group
    elements: tuple = _field(lambda f: _array(f["group"].element, "elements"))
    target: object = _field(lambda f: f["group"].element)

    kind = "group_subset_sum"

    def __post_init__(self):
        # a tuple is kept as it is, unscanned: the targets of one
        # cm-to-permss source share one elements tuple
        if type(self.elements) is not tuple:
            object.__setattr__(self, "elements", tuple(
                tuple(e) if isinstance(e, list) else e for e in self.elements))
        if isinstance(self.target, list):
            object.__setattr__(self, "target", tuple(self.target))


@dataclass(frozen=True)
class CounterMachineInstance:
    """Vectors over {-1,0,1}^dimension with Optional/Required flags.

    Accepts iff some subsequence containing every Required vector keeps all
    running counters in {0,1} and ends at zero.
    """

    dimension: int = _field(_plain("dimension"))
    vectors: tuple[tuple[int, ...], ...] = _field(
        _array(_row(_plain, "vector"), "vectors"))
    flags: tuple[str, ...] = _field(_array(_text("flag"), "flags"))

    kind = "counter_machine"

    def __post_init__(self):
        vectors = _tuplize(self.vectors)
        if vectors is not self.vectors:
            object.__setattr__(self, "vectors", vectors)
        if type(self.flags) is not tuple:
            object.__setattr__(self, "flags", tuple(self.flags))


@dataclass(frozen=True)
class ColoringInstance:
    """3-colorability of a graph packaged with a path decomposition."""

    num_vertices: int = _field(_plain("n"), key="n")
    edges: tuple[tuple[int, int], ...] = _field(
        _array(_row(_plain, "edge", 2), "edges"))
    bags: tuple[tuple[int, ...], ...] = _field(
        _array(_row(_plain, "bag"), "bags"))

    kind = "coloring"

    def __post_init__(self):
        object.__setattr__(self, "edges", _tuplize(self.edges))
        object.__setattr__(self, "bags", _tuplize(self.bags))


@dataclass(frozen=True)
class SchedulingInstance:
    """Jobs are (processing, weight, due) triples on one machine; accept iff
    some order keeps the total weight of tardy jobs within the budget."""

    jobs: tuple[tuple[int, int, int], ...] = _field(
        _array(_row(_decimal, "job", 3), "jobs"))
    tardy_budget: int = _field(_decimal("tardy budget"))

    kind = "scheduling"

    def __post_init__(self):
        object.__setattr__(self, "jobs", _tuplize(self.jobs))


@dataclass(frozen=True)
class CnfInstance:
    """Clauses are tuples of nonzero literals; +i / -i for variable i in 1..num_vars."""

    num_vars: int = _field(_plain("num_vars"))
    clauses: tuple[tuple[int, ...], ...] = _field(
        _array(_row(_plain, "clause"), "clauses"))
    arity_cap: int | None = _field(_plain("arity cap"), default=None)

    kind = "cnf"

    def __post_init__(self):
        object.__setattr__(self, "clauses", _tuplize(self.clauses))


@dataclass(frozen=True)
class AndSatInstance:
    """A conjunction of CNF formulas, each over at most num_vars variables,
    satisfied when every formula is individually satisfiable."""

    num_vars: int = _field(_plain("num_vars"))
    formulas: tuple[CnfInstance, ...] = _field(_array(_Codec(
        to_json, lambda d: _from_tagged(d, "problem", {"cnf": CnfInstance},
                                        "and_sat formula")), "formulas"))

    kind = "and_sat"

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))


@dataclass(frozen=True)
class UnboundedSubsetSumInstance:
    items: tuple[int, ...] = _field(_row(_decimal, "items"))
    target: int = _field(_decimal("target"))

    kind = "unbounded_subset_sum"

    def __post_init__(self):
        if type(self.items) is not tuple:
            object.__setattr__(self, "items", tuple(self.items))


_KIND_CLASSES = {c.kind: c for c in (
    SubsetSumInstance, KnapsackInstance, IlpInstance, GroupSubsetSumInstance,
    CounterMachineInstance, ColoringInstance, SchedulingInstance, CnfInstance,
    AndSatInstance, UnboundedSubsetSumInstance)}
ProblemInstance = Union[tuple(_KIND_CLASSES.values())]
KINDS = tuple(_KIND_CLASSES)


# ---------------------------------------------------------------------------
# Validation.

def _ints(values) -> bool:
    """Whether every value is an int, and not a bool, as the JSON reader
    asks of an integer."""
    return {int}.issuperset(map(type, values))


def validate(inst: ProblemInstance) -> list[str]:
    """Structural invariant violations; an empty list means the instance is
    well formed.  The numbers of subset sum, knapsack, 0-1 ILP and
    unbounded subset sum must be ints: a float is reported, not compared."""
    out: list[str] = []
    k = inst.kind
    if k == "subset_sum":
        if not _ints((inst.target, *inst.items)) or \
                inst.modulus is not None and type(inst.modulus) is not int:
            out.append("items, target and modulus must be ints")
        else:
            if inst.target < 0:
                out.append("target must be nonnegative")
            if any(p < 0 for p in inst.items):
                out.append("items must be nonnegative")
            if inst.modulus is not None:
                if inst.modulus < 1:
                    out.append("modulus must be positive")
                elif not all(0 <= p < inst.modulus for p in inst.items) or \
                        not (0 <= inst.target < inst.modulus):
                    out.append(
                        "modular items and target must lie in [0, modulus)")
    elif k == "knapsack":
        if not _ints((inst.capacity, inst.demand,
                      *chain.from_iterable(inst.items))):
            out.append("item sizes, weights, capacity and demand must be ints")
        else:
            if inst.capacity < 0 or inst.demand < 0:
                out.append("capacity and demand must be nonnegative")
            for p, w in inst.items:
                if p <= 0 or w <= 0:
                    out.append("item sizes and weights must be positive")
                    break
    elif k == "ilp":
        if inst.variant not in ILP_VARIANTS:
            out.append(f"unknown variant {inst.variant!r}")
        m = len(inst.rhs)
        entries = (0, 1) if inst.variant == "monotone" else (-1, 0, 1)
        if not _ints(inst.rhs):
            out.append("rhs entries must be ints")
        typed = _ints(chain.from_iterable(inst.columns))
        for col in inst.columns:
            if len(col) != m:
                out.append("column length differs from rhs length")
            if any(a not in entries for a in col):
                out.append("column entries out of range")
            elif not typed and not _ints(col):
                # 1.0 and True are in range
                out.append("column entries must be ints")
        if inst.variant == "zero_sum" and any(b != 0 for b in inst.rhs):
            out.append("zero_sum variant requires rhs = 0")
    elif k == "group_subset_sum":
        g = inst.group
        if isinstance(g, CyclicGroup) and g.q < 1:
            out.append("cyclic order must be positive")
        elif not isinstance(g, CyclicGroup) and g.k < 1:
            out.append("group degree must be positive")
        else:
            for e in inst.elements:
                if not g.contains(e):
                    out.append(f"element {e!r} not in group")
            if not g.contains(inst.target):
                out.append("target not in group")
    elif k == "counter_machine":
        if inst.dimension < 1:
            out.append("dimension must be at least 1")
        if len(inst.flags) != len(inst.vectors):
            out.append("flags and vectors must align")
        for v in inst.vectors:
            if len(v) != inst.dimension:
                out.append("vector length differs from dimension")
            if any(c not in (-1, 0, 1) for c in v):
                out.append("vector entries must be in {-1,0,1}")
        if any(f not in (OPTIONAL, REQUIRED) for f in inst.flags):
            out.append("flags must be 'O' or 'R'")
    elif k == "coloring":
        n = inst.num_vertices
        if n < 0:
            out.append("vertex count must be nonnegative")
        edges = [e for e in inst.edges if len(e) == 2]
        if len(edges) != len(inst.edges):
            out.append("edges must be vertex pairs")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                out.append(f"edge ({u},{v}) out of range")
            if u == v:
                out.append("self-loops are not allowed")
        from .pathdecomp import check_path_decomposition
        out.extend(check_path_decomposition(n, edges, inst.bags))
    elif k == "scheduling":
        if inst.tardy_budget < 0:
            out.append("tardy budget must be nonnegative")
        for p, w, d in inst.jobs:
            if p <= 0 or w <= 0 or d <= 0:
                out.append("processing, weight, and due date must be positive")
                break
    elif k == "cnf":
        if inst.num_vars < 0:
            out.append("variable count must be nonnegative")
        for cl in inst.clauses:
            if not cl:
                out.append("empty clause")
            if any(lit == 0 or abs(lit) > inst.num_vars for lit in cl):
                out.append("literal out of range")
            if inst.arity_cap is not None and len(cl) > inst.arity_cap:
                out.append("clause exceeds arity cap")
    elif k == "and_sat":
        if inst.num_vars < 0:
            out.append("variable count must be nonnegative")
        for f in inst.formulas:
            if not isinstance(f, CnfInstance):
                out.append("and_sat formulas must be CNF instances")
                continue
            if f.num_vars > inst.num_vars:
                out.append("formula uses more variables than the shared bound")
            out.extend(validate(f))
    elif k == "unbounded_subset_sum":
        if not _ints((inst.target, *inst.items)):
            out.append("items and target must be ints")
        else:
            if inst.target < 0:
                out.append("target must be nonnegative")
            if any(p < 0 for p in inst.items):
                out.append("items must be nonnegative")
    else:
        out.append(f"unknown kind {k!r}")
    return out


def layout_cache(build: Callable) -> Callable:
    """``build(inst)``, kept for the last instance object asked for.

    The memo holds exactly one instance and its layout, and reuses the
    layout while the very same object (``is``) is asked for again, so a hit
    costs one identity test and never hashes the instance.  A sweep checks
    every witness of one instance before the next, and a chain of
    reductions (``reductions.compose``) hands the next link one
    intermediate object per run of witnesses, so one entry is all either
    needs.  A caller that interleaves instances rebuilds the layout on each
    switch; nothing is kept past the last instance.  The pair is the item
    of the list ``layout.last``: the transforms of the layout-based
    reductions and the verifiers of the certificate schemes, called once
    per witness, read it inline and call ``layout`` only on a miss, so a
    hit adds no Python frame.  ``source_problems`` keeps a source's
    ``validate`` list the same way.

    ``build`` may itself look the layout up by the instance's shape, as the
    certificate schemes do (an ``lru_cache`` keyed by a few ints): a switch
    to a new instance then costs that lookup, instances of one shape share
    one layout object, and still no instance is kept past the last one.
    It may also return that shared layout with a little of the instance's
    own, as the Z_k^k scheme keeps its packed target and elements beside
    the shape: that goes with the instance at the next switch.
    """
    # one tuple, stored in a single store, so the pair never mixes two
    # calls; it starts with an object no caller holds
    last = [(object(), None)]

    @wraps(build)
    def layout(inst):
        held, lay = last[0]
        if inst is held:
            return lay
        lay = build(inst)
        last[0] = (inst, lay)
        return lay
    layout.last = last
    return layout


@layout_cache
def source_problems(inst: ProblemInstance) -> list[str]:
    """``validate(inst)``, kept for the last instance object asked for.
    ``Reduction.apply`` and the CLI's loader read it, so many ``apply``
    calls on one source, and ``redkit reduce``'s load and apply, validate
    it once.  The list is shared: callers only read it."""
    return validate(inst)


# ---------------------------------------------------------------------------
# Trivial instances with a forced verdict.

def trivial_instance(kind: str, answer: bool, **params) -> ProblemInstance:
    """Smallest well-formed instance of the kind with the requested verdict."""
    if kind == "subset_sum":
        return SubsetSumInstance((), 0 if answer else 1)
    if kind == "knapsack":
        return KnapsackInstance((), 0, 0 if answer else 1)
    if kind == "ilp":
        variant = params.get("variant", "standard")
        if variant == "zero_sum":
            cols = ((0,),) if answer else ()
            return IlpInstance(cols, (0,), "zero_sum")
        return IlpInstance((), (0,) if answer else (1,), variant)
    if kind == "group_subset_sum":
        group = params.get("group", CyclicGroup(2))
        if answer:
            return GroupSubsetSumInstance(group, (), group.identity())
        target = _non_identity(group)
        return GroupSubsetSumInstance(group, (), target)
    if kind == "counter_machine":
        if answer:
            return CounterMachineInstance(1, (), ())
        return CounterMachineInstance(1, ((1,),), (REQUIRED,))
    if kind == "coloring":
        if answer:
            return ColoringInstance(1, (), ((0,),))
        edges = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
        return ColoringInstance(4, edges, ((0, 1, 2, 3),))
    if kind == "scheduling":
        return SchedulingInstance((), 0) if answer else \
            SchedulingInstance(((2, 1, 1),), 0)
    if kind == "cnf":
        return CnfInstance(1, () if answer else ((1,), (-1,)))
    if kind == "and_sat":
        forms = () if answer else (CnfInstance(1, ((1,), (-1,))),)
        return AndSatInstance(1, forms)
    if kind == "unbounded_subset_sum":
        return UnboundedSubsetSumInstance((), 0 if answer else 1)
    raise ValidationError(f"unknown kind {kind!r}")


def _non_identity(group: GroupKind):
    if isinstance(group, CyclicGroup):
        if group.q >= 2:
            return 1
    elif isinstance(group, ProductGroup):
        if group.k >= 2:
            return (1,) + (0,) * (group.k - 1)
    elif group.k >= 2:
        # S_k: a transposition
        return Permutation((1, 0) + tuple(range(2, group.k)))
    raise ValidationError("group has no non-identity element")


# ---------------------------------------------------------------------------
# Parameters (the quantity reductions must keep polynomially bounded).

def parameter(inst: ProblemInstance) -> int:
    k = inst.kind
    if k == "subset_sum":
        p = (inst.target + 1).bit_length()
        return p + (inst.modulus.bit_length() if inst.modulus is not None else 0)
    if k == "knapsack":
        return (inst.capacity + inst.demand + 1).bit_length()
    if k == "ilp":
        return len(inst.rhs)
    if k == "group_subset_sum":
        return inst.group.parameter()
    if k == "counter_machine":
        return inst.dimension
    if k == "coloring":
        from .pathdecomp import width
        return width(inst.bags) + 1
    if k == "scheduling":
        dmax = max((d for _, _, d in inst.jobs), default=0)
        wmax = max((w for _, w, _ in inst.jobs), default=0)
        return (dmax + wmax + 1).bit_length()
    if k in ("cnf", "and_sat"):
        return inst.num_vars
    if k == "unbounded_subset_sum":
        return (inst.target + 1).bit_length()
    raise ValidationError(f"unknown kind {k!r}")
