"""SAT-sourced reductions: 3-CNF to subset sum, AND-of-3-CNFs to tardy-job
scheduling, and unbounded-arity CNF to 3-coloring via chained OR-gadgets.
"""

from __future__ import annotations

from . import instances as I
from . import oracles
from .errors import ReductionError, ValidationError
from .reductions import deterministic

# ---------------------------------------------------------------------------
# 3-CNF -> subset sum (base-10 digit construction).


def tsat_to_ss_instance(inst: I.CnfInstance) -> I.SubsetSumInstance:
    if any(len(set(cl)) > 3 for cl in inst.clauses):
        raise ValidationError("3sat-to-ss requires arity at most 3")
    k = inst.num_vars
    # one digit per distinct clause (as a set of literals), first occurrence
    # first: a repeated clause adds no constraint, and the target parameter
    # stays poly(num_vars)
    clause_sets = list(dict.fromkeys(map(frozenset, inst.clauses)))
    c = len(clause_sets)

    def clause_digits(lit):
        return sum(10 ** (k + j) for j, cl in enumerate(clause_sets) if lit in cl)

    items = []
    for i in range(1, k + 1):
        items.append(10 ** (i - 1) + clause_digits(i))
        items.append(10 ** (i - 1) + clause_digits(-i))
    for j in range(c):
        items.append(1 * 10 ** (k + j))
        items.append(2 * 10 ** (k + j))
    target = sum(10 ** (i - 1) for i in range(1, k + 1)) + \
        sum(4 * 10 ** (k + j) for j in range(c))
    return I.SubsetSumInstance(tuple(items), target)


red_3sat_to_ss = deterministic(
    "tsat-to-ss", "cnf", "subset_sum",
    lambda inst, wit: tsat_to_ss_instance(inst))


# ---------------------------------------------------------------------------
# AND-3SAT -> scheduling (stacked per-formula subset sums, weight slopes).


def _as_transform(inst, wit):
    n = len(inst.formulas)
    if (1 << inst.num_vars) <= n:
        # brute-forcing assignments is cheaper than the construction here
        got = oracles.solve_and_sat(inst)
        return I.trivial_instance("scheduling", got.answer)
    sub = [tsat_to_ss_instance(f) for f in inst.formulas]
    jobs = []
    prefix = 0
    demand = 0
    for j, ss in enumerate(sub, start=1):
        prefix += ss.target
        slope = n + 1 - j
        demand += ss.target * slope
        for x in ss.items:
            jobs.append((x, x * slope, prefix))
    total_w = sum(w for _, w, _ in jobs)
    if total_w < demand:
        raise ReductionError("slack underflow: item mass below target mass")
    return I.SchedulingInstance(tuple(jobs), total_w - demand)


red_andsat_to_scheduling = deterministic(
    "andsat-to-scheduling", "and_sat", "scheduling", _as_transform)


# ---------------------------------------------------------------------------
# CNF (any arity) -> 3-coloring with chained 2-OR gadgets.
#
# Vertex layout: g_B = 0, g_F = 1, literal vertices x_i^Y = 2i, x_i^N = 2i+1
# for 1-based variable i; gadget vertices appended per clause in chain order
# (u', v', output).  Base vertices sit in every bag; each clause gets one
# bag holding its gadget.


def cnf_coloring_layout(inst: I.CnfInstance):
    """(num_vertices, edges, bags) before instance assembly."""
    n = inst.num_vars
    base = list(range(2 * n + 2))
    edges = [(0, 1)]
    for i in range(1, n + 1):
        edges += [(0, 2 * i), (0, 2 * i + 1), (2 * i, 2 * i + 1)]

    def lit_vertex(lit):
        return 2 * lit if lit > 0 else 2 * (-lit) + 1

    next_v = 2 * n + 2
    bags = []
    for cl in inst.clauses:
        # a repeated literal adds nothing to the OR, so each gets one vertex
        lits = [lit_vertex(x) for x in dict.fromkeys(cl)]
        gadget = []
        out = lits[0]
        for w in lits[1:]:
            u_aux, v_aux, new_out = next_v, next_v + 1, next_v + 2
            next_v += 3
            gadget += [u_aux, v_aux, new_out]
            edges += [(out, u_aux), (w, v_aux), (u_aux, v_aux),
                      (new_out, u_aux), (new_out, v_aux), (new_out, 0)]
            out = new_out
        edges.append((out, 1))
        bags.append(tuple(base + gadget))
    if not bags:
        bags.append(tuple(base))
    return next_v, tuple(dict.fromkeys(edges)), tuple(bags)


def _cc_transform(inst, wit):
    num, edges, bags = cnf_coloring_layout(inst)
    return I.ColoringInstance(num, edges, bags)


red_cnf_to_coloring = deterministic(
    "cnf-to-coloring", "cnf", "coloring", _cc_transform)

SAT_REDUCTIONS = (red_3sat_to_ss, red_andsat_to_scheduling, red_cnf_to_coloring)
