"""Problem instances: types, structural validation, trivial instances, JSON.

Serialization keeps potentially large integers (subset-sum items, knapsack
values, scheduling times, cyclic-group data) as decimal strings so readers
without big-integer support can parse files safely; structurally small
integers (vector entries, vertex ids, permutation images) stay plain JSON
numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Union

from . import pathdecomp
from .errors import ValidationError
from .groups import Permutation, identity as perm_identity

OPTIONAL = "O"
REQUIRED = "R"

ILP_VARIANTS = ("standard", "monotone", "zero_sum")


def _tuplize(rows):
    """``rows`` as a tuple of tuples; returned as it is when it already is
    one, as in every target a reduction builds."""
    if type(rows) is tuple and {*map(type, rows)} <= {tuple}:
        return rows
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# Group kinds for group subset sum.

@dataclass(frozen=True)
class CyclicGroup:
    """Z_q under addition; elements are residues."""

    q: int

    family = "cyclic"

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

    k: int

    family = "product"

    def identity(self):
        return (0,) * self.k

    def mul(self, a, b):
        return tuple(map(self.k.__rmod__, map(add, a, b)))

    def times(self, e):
        """The map a -> a * e as one callable, as the reach closure asks."""
        k = self.k
        return lambda a: tuple(map(k.__rmod__, map(add, a, e)))

    def contains(self, e) -> bool:
        # a plain loop: the oracle asks this of every element it is given
        k = self.k
        if not isinstance(e, tuple) or len(e) != k:
            return False
        for c in e:
            if not isinstance(c, int) or not 0 <= c < k:
                return False
        return True

    def order(self) -> int:
        return self.k ** self.k

    def parameter(self) -> int:
        return self.k


@dataclass(frozen=True)
class SymmetricGroup:
    """S_k; elements are Permutation values of degree k."""

    k: int

    family = "symmetric"

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


GroupKind = Union[CyclicGroup, ProductGroup, SymmetricGroup]


# ---------------------------------------------------------------------------
# Instance types.

@dataclass(frozen=True)
class SubsetSumInstance:
    items: tuple[int, ...]
    target: int
    modulus: int | None = None

    kind = "subset_sum"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class KnapsackInstance:
    """Items are (size, weight) pairs; ask for total size <= capacity and
    total weight >= demand."""

    items: tuple[tuple[int, int], ...]
    capacity: int
    demand: int

    kind = "knapsack"

    def __post_init__(self):
        object.__setattr__(self, "items", _tuplize(self.items))


@dataclass(frozen=True)
class IlpInstance:
    """0-1 feasibility of A x = rhs with columns over {-1,0,1}."""

    columns: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    variant: str = "standard"

    kind = "ilp"

    def __post_init__(self):
        object.__setattr__(self, "columns", _tuplize(self.columns))
        object.__setattr__(self, "rhs", tuple(self.rhs))

    @property
    def num_rows(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class GroupSubsetSumInstance:
    """Does some subsequence multiply (in index order) to the target?"""

    group: GroupKind
    elements: tuple
    target: object

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

    dimension: int
    vectors: tuple[tuple[int, ...], ...]
    flags: tuple[str, ...]

    kind = "counter_machine"

    def __post_init__(self):
        object.__setattr__(self, "vectors", _tuplize(self.vectors))
        object.__setattr__(self, "flags", tuple(self.flags))


@dataclass(frozen=True)
class ColoringInstance:
    """3-colorability of a graph packaged with a path decomposition."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    bags: tuple[tuple[int, ...], ...]

    kind = "coloring"

    def __post_init__(self):
        object.__setattr__(self, "edges", _tuplize(self.edges))
        object.__setattr__(self, "bags", _tuplize(self.bags))


@dataclass(frozen=True)
class SchedulingInstance:
    """Jobs are (processing, weight, due) triples on one machine; accept iff
    some order keeps the total weight of tardy jobs within the budget."""

    jobs: tuple[tuple[int, int, int], ...]
    tardy_budget: int

    kind = "scheduling"

    def __post_init__(self):
        object.__setattr__(self, "jobs", _tuplize(self.jobs))


@dataclass(frozen=True)
class CnfInstance:
    """Clauses are tuples of nonzero literals; +i / -i for variable i in 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    arity_cap: int | None = None

    kind = "cnf"

    def __post_init__(self):
        object.__setattr__(self, "clauses", _tuplize(self.clauses))


@dataclass(frozen=True)
class AndSatInstance:
    """A conjunction of CNF formulas, each over at most num_vars variables,
    satisfied when every formula is individually satisfiable."""

    num_vars: int
    formulas: tuple[CnfInstance, ...]

    kind = "and_sat"

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))


@dataclass(frozen=True)
class UnboundedSubsetSumInstance:
    items: tuple[int, ...]
    target: int

    kind = "unbounded_subset_sum"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


ProblemInstance = Union[
    SubsetSumInstance, KnapsackInstance, IlpInstance, GroupSubsetSumInstance,
    CounterMachineInstance, ColoringInstance, SchedulingInstance, CnfInstance,
    AndSatInstance, UnboundedSubsetSumInstance,
]

KINDS = ("subset_sum", "knapsack", "ilp", "group_subset_sum", "counter_machine",
         "coloring", "scheduling", "cnf", "and_sat", "unbounded_subset_sum")


# ---------------------------------------------------------------------------
# Validation.

def validate(inst: ProblemInstance) -> list[str]:
    """Structural invariant violations; an empty list means the instance is
    well formed."""
    out: list[str] = []
    k = inst.kind
    if k == "subset_sum":
        if inst.target < 0:
            out.append("target must be nonnegative")
        if any(p < 0 for p in inst.items):
            out.append("items must be nonnegative")
        if inst.modulus is not None:
            if inst.modulus < 1:
                out.append("modulus must be positive")
            elif not all(0 <= p < inst.modulus for p in inst.items) or \
                    not (0 <= inst.target < inst.modulus):
                out.append("modular items and target must lie in [0, modulus)")
    elif k == "knapsack":
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
        lo = 0 if inst.variant == "monotone" else -1
        for col in inst.columns:
            if len(col) != m:
                out.append("column length differs from rhs length")
            if any(not lo <= a <= 1 for a in col):
                out.append("column entries out of range")
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
        out.extend(pathdecomp.check_path_decomposition(n, edges, inst.bags))
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
        if inst.target < 0:
            out.append("target must be nonnegative")
        if any(p < 0 for p in inst.items):
            out.append("items must be nonnegative")
    else:
        out.append(f"unknown kind {k!r}")
    return out


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
        return pathdecomp.width(inst.bags) + 1
    if k == "scheduling":
        dmax = max((d for _, _, d in inst.jobs), default=0)
        wmax = max((w for _, w, _ in inst.jobs), default=0)
        return (dmax + wmax + 1).bit_length()
    if k in ("cnf", "and_sat"):
        return inst.num_vars
    if k == "unbounded_subset_sum":
        return (inst.target + 1).bit_length()
    raise ValidationError(f"unknown kind {k!r}")


# ---------------------------------------------------------------------------
# JSON serialization.

def _istr(x: int) -> str:
    return str(int(x))


def _iparse(v, what: str) -> int:
    if isinstance(v, bool):
        raise ValidationError(f"{what}: expected an integer")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            raise ValidationError(f"{what}: not a decimal integer: {v!r}") from None
    raise ValidationError(f"{what}: expected an integer or decimal string")


def _list(v, what: str, size: int | None = None) -> list:
    """``v`` checked to be a JSON array, of ``size`` entries when given."""
    if not isinstance(v, list):
        raise ValidationError(f"{what}: expected a list")
    if size is not None and len(v) != size:
        raise ValidationError(f"{what}: expected {size} entries, got {len(v)}")
    return v


def _ints(v, what: str, size: int | None = None) -> tuple[int, ...]:
    return tuple(_iparse(x, what) for x in _list(v, what, size))


def _str(v, what: str) -> str:
    if not isinstance(v, str):
        raise ValidationError(f"{what}: expected a string")
    return v


def _group_to_json(g: GroupKind) -> dict:
    if isinstance(g, CyclicGroup):
        return {"family": "cyclic", "q": _istr(g.q)}
    if isinstance(g, ProductGroup):
        return {"family": "product", "k": g.k}
    return {"family": "symmetric", "k": g.k}


def _group_from_json(d: dict) -> GroupKind:
    if not isinstance(d, dict):
        raise ValidationError("group: expected an object")
    fam = d.get("family")
    if fam == "cyclic":
        return CyclicGroup(_iparse(d["q"], "group order"))
    if fam == "product":
        return ProductGroup(_iparse(d["k"], "group degree"))
    if fam == "symmetric":
        return SymmetricGroup(_iparse(d["k"], "group degree"))
    raise ValidationError(f"unknown group family {fam!r}")


def to_json(inst: ProblemInstance) -> dict:
    k = inst.kind
    if k == "subset_sum":
        d = {"problem": k, "items": [_istr(p) for p in inst.items],
             "target": _istr(inst.target)}
        if inst.modulus is not None:
            d["modulus"] = _istr(inst.modulus)
        return d
    if k == "knapsack":
        return {"problem": k,
                "items": [[_istr(p), _istr(w)] for p, w in inst.items],
                "capacity": _istr(inst.capacity), "demand": _istr(inst.demand)}
    if k == "ilp":
        return {"problem": k, "variant": inst.variant,
                "columns": [list(c) for c in inst.columns],
                "rhs": list(inst.rhs)}
    if k == "group_subset_sum":
        g = inst.group
        enc = _istr if isinstance(g, CyclicGroup) else list
        return {"problem": k, "group": _group_to_json(g),
                "elements": [enc(e) for e in inst.elements],
                "target": enc(inst.target)}
    if k == "counter_machine":
        return {"problem": k, "dimension": inst.dimension,
                "vectors": [list(v) for v in inst.vectors],
                "flags": list(inst.flags)}
    if k == "coloring":
        return {"problem": k, "n": inst.num_vertices,
                "edges": [list(e) for e in inst.edges],
                "bags": [list(b) for b in inst.bags]}
    if k == "scheduling":
        return {"problem": k,
                "jobs": [[_istr(p), _istr(w), _istr(d)] for p, w, d in inst.jobs],
                "tardy_budget": _istr(inst.tardy_budget)}
    if k == "cnf":
        d = {"problem": k, "num_vars": inst.num_vars,
             "clauses": [list(c) for c in inst.clauses]}
        if inst.arity_cap is not None:
            d["arity_cap"] = inst.arity_cap
        return d
    if k == "and_sat":
        return {"problem": k, "num_vars": inst.num_vars,
                "formulas": [to_json(f) for f in inst.formulas]}
    if k == "unbounded_subset_sum":
        return {"problem": k, "items": [_istr(p) for p in inst.items],
                "target": _istr(inst.target)}
    raise ValidationError(f"unknown kind {k!r}")


def from_json(d: dict) -> ProblemInstance:
    if not isinstance(d, dict):
        raise ValidationError("instance JSON must be an object")
    k = d.get("problem")
    try:
        if k == "subset_sum":
            mod = d.get("modulus")
            return SubsetSumInstance(
                _ints(d["items"], "items"), _iparse(d["target"], "target"),
                _iparse(mod, "modulus") if mod is not None else None)
        if k == "knapsack":
            return KnapsackInstance(
                tuple(_ints(it, "knapsack item", 2)
                      for it in _list(d["items"], "items")),
                _iparse(d["capacity"], "capacity"), _iparse(d["demand"], "demand"))
        if k == "ilp":
            return IlpInstance(
                tuple(_ints(c, "column") for c in _list(d["columns"], "columns")),
                _ints(d["rhs"], "rhs"),
                _str(d.get("variant", "standard"), "variant"))
        if k == "group_subset_sum":
            g = _group_from_json(d["group"])
            if isinstance(g, CyclicGroup):
                dec = lambda v: _iparse(v, "element")
            elif isinstance(g, ProductGroup):
                dec = lambda v: _ints(v, "element")
            else:
                dec = lambda v: Permutation(_ints(v, "permutation"))
            return GroupSubsetSumInstance(
                g, tuple(dec(e) for e in _list(d["elements"], "elements")),
                dec(d["target"]))
        if k == "counter_machine":
            return CounterMachineInstance(
                _iparse(d["dimension"], "dimension"),
                tuple(_ints(v, "vector") for v in _list(d["vectors"], "vectors")),
                tuple(_str(f, "flag") for f in _list(d["flags"], "flags")))
        if k == "coloring":
            return ColoringInstance(
                _iparse(d["n"], "n"),
                tuple(_ints(e, "edge", 2) for e in _list(d["edges"], "edges")),
                tuple(_ints(b, "bag") for b in _list(d["bags"], "bags")))
        if k == "scheduling":
            return SchedulingInstance(
                tuple(_ints(j, "job", 3) for j in _list(d["jobs"], "jobs")),
                _iparse(d["tardy_budget"], "tardy budget"))
        if k == "cnf":
            return CnfInstance(
                _iparse(d["num_vars"], "num_vars"),
                tuple(_ints(c, "clause") for c in _list(d["clauses"], "clauses")),
                None if d.get("arity_cap") is None
                else _iparse(d["arity_cap"], "arity cap"))
        if k == "and_sat":
            formulas = tuple(from_json(f)
                             for f in _list(d["formulas"], "formulas"))
            if any(f.kind != "cnf" for f in formulas):
                raise ValidationError("and_sat formulas must be cnf instances")
            return AndSatInstance(_iparse(d["num_vars"], "num_vars"), formulas)
        if k == "unbounded_subset_sum":
            return UnboundedSubsetSumInstance(
                _ints(d["items"], "items"), _iparse(d["target"], "target"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {k or 'instance'} JSON: {exc}") from exc
    raise ValidationError(f"unknown problem kind {k!r}")


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
