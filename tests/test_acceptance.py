"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v -s tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Every expected value was produced by the independent
brute-force oracles in ``redkit.oracles``; time ceilings are asserted where
a criterion pins one.

The contract sweeps of criteria 01, 02, 06, 09 and 12 are the rows of one
table, ``CLAIMS``; a criterion's line gives each row's coverage class and
seconds.  Exhaustive rows enumerate every witness of every no-instance, as
criteria 06 and 12 require: they sweep their reduction with no valid
witnesses listed.  Stratified rows (in criteria 01, 02 and 09) cover each
no-instance by the cheaper exact path: every witness outright, or, when
fewer, every structurally valid witness plus corner and random probes of
the invalid remainder.  That remainder must collapse onto a declared
constant that solves to no.  The sweep checks this on every probe (an
``invalid-stratum`` violation otherwise), and
``test_invalid_witnesses_collapse_to_a_no_constant`` checks it for every
unlisted witness of each row's members of 5 to 10 witness bits.  Where
that premise holds, a single accepting witness would be found, so "zero
violations" certifies soundness over the whole witness space; the two
checks are its evidence, whole up to 10 bits and sampled beyond.  No row
is completeness-only (without no-instances), but the headline chain,
coloring to counter machine to permutation-group subset sum, is not a row
yet: its families have no no-instance, so criterion 06 checks its first
link by agreement.
"""

import dataclasses
import time
from functools import partial
from itertools import islice, product
from random import Random
from typing import Callable, NamedTuple

from redkit.catalog import get_reduction
from redkit.certificates import (FULL_SS_SCHEME, SCHEMES, nppt_contract_check,
                                 zero_sum_premise_check, zkk_bound)
from redkit.families import (and_sats, cm_contract_family, cnfs, graphs_upto,
                             ilps, knapsacks, named_graph, random_3cnf,
                             random_subset_sum, subset_sums,
                             unbounded_instances, zkk_instances, zq_instances)
from redkit.groups import (UqElement, RunContext, from_cycles, identity,
                           landau_permutation, make_run_context, run_check_uq)
from redkit.numeric import graver_check, graver_sequence
from redkit.oracles import (solve, solve_and_sat, solve_coloring,
                            solve_scheduling)
from redkit.pathdecomp import check_path_decomposition
from redkit.pipeline import red_coloring_to_cm
from redkit.reductions import compose
from redkit.satred import red_andsat_to_scheduling, red_cnf_to_coloring
from redkit.witness import Witness, all_witnesses

from reference_oracle import scheduling


class Claim(NamedTuple):
    """A contract sweep of a catalog spec or scheme name, composed with
    ``FULL_SS_SCHEME.reduction()`` when ``transfer`` is set."""

    criterion: int
    spec: str
    family: Callable
    cap: int = 4096
    pins: tuple = ()        # (report field, value) pairs
    exhaustive: bool = False    # every no-instance enumerated outright
    transfer: bool = False

    def base(self):
        red = SCHEMES[self.spec].reduction() if self.spec in SCHEMES \
            else get_reduction(self.spec)
        return compose(red, FULL_SS_SCHEME.reduction()) if self.transfer \
            else red

    def reduction(self):
        """The reduction the row sweeps: listing no valid witnesses when
        the row is exhaustive, so that every no-instance is enumerated."""
        red = self.base()
        return dataclasses.replace(red, valid_witnesses=None) \
            if self.exhaustive else red


def _random_sources():
    rng = Random(97)
    return [random_subset_sum(rng, 6, 30) for _ in range(500)]


_SS = partial(subset_sums, 5, 8, 40)
_MONOTONE = partial(ilps, "monotone", 2, 4)
_PINNED = ("checked", "no_instances", "witnesses_checked")

CLAIMS = (
    # the equivalence class: nine numeric reductions on full grids, then
    # three round trips through subset sum on random sources
    Claim(1, "ss-to-knapsack", _SS),
    Claim(1, "ss-to-monotone", _SS),
    Claim(1, "ss-to-zq", _SS),
    Claim(1, "knapsack-to-ss", partial(knapsacks, 3, 6)),
    Claim(1, "monotone-to-ss", _MONOTONE),
    Claim(1, "monotone-to-zerosum", _MONOTONE),
    Claim(1, "zerosum-to-ilp", partial(ilps, "zero_sum", 2, 4)),
    Claim(1, "ilp-to-monotone", partial(ilps, "standard", 2, 4), cap=1024),
    Claim(1, "zq-to-ss", partial(zq_instances, 8, 4)),
    *(Claim(2, spec, _random_sources)
      for spec in ("ss-to-knapsack+knapsack-to-ss",
                   "ss-to-monotone+monotone-to-ss", "ss-to-zq+zq-to-ss")),
    # the lower bound's counter-machine link
    Claim(6, "cm-to-permss", cm_contract_family, exhaustive=True),
    # short certificates for unbounded subset sum and Z_k^k
    Claim(9, "unbounded-ss", partial(unbounded_instances, 3, 8, 20),
          cap=1 << 17),
    Claim(9, "zkk", partial(zkk_instances, 2, 5), cap=1 << 17),
    Claim(9, "zkk", partial(zkk_instances, 3, 2), cap=1 << 17,
          pins=tuple(zip(_PINNED, (20439, 17628)))),
    # full-mask certificates transferred back into subset sum along five
    # chains: (checked, no_instances, witnesses_checked) pinned
    *(Claim(12, spec, family, pins=tuple(zip(_PINNED, counts)),
            exhaustive=True, transfer=True) for spec, family, counts in (
        ("knapsack-to-ss", partial(knapsacks, 2, 4), (3825, 1702, 20257)),
        ("monotone-to-ss", partial(ilps, "monotone", 2, 3), (457, 318, 2363)),
        ("zq-to-ss", partial(zq_instances, 5, 3), (504, 152, 11660)),
        ("tsat-to-ss", partial(cnfs, 2, 3, 2), (286, 30, 26368)),
        ("ilp-to-monotone+monotone-to-ss", partial(ilps, "standard", 1, 3),
         (110, 60, 962)),
        ("ilp-to-monotone+monotone-to-ss", partial(ilps, "standard", 2, 2),
         (1247, 1060, 325195)))),
)


def sweep_criterion(num):
    """Sweep each row of criterion ``num`` in table order, asserting
    ``report.ok``, the row's pins and its coverage: the reports, the rows'
    specs, coverage classes and seconds, and their total seconds."""
    reports, rows, total = [], [], 0.0
    for claim in (claim for claim in CLAIMS if claim.criterion == num):
        started = time.perf_counter()
        rep = nppt_contract_check(claim.reduction(), claim.family(),
                                  exhaustive_cap=claim.cap)
        seconds = time.perf_counter() - started
        total += seconds
        assert rep.ok, (claim.spec, rep.violations[:3], rep.skipped[:3])
        assert [(k, getattr(rep, k)) for k, _ in claim.pins] == \
            list(claim.pins), claim.spec
        full = rep.exhaustive == rep.no_instances
        assert full or not claim.exhaustive, claim.spec
        coverage = "stratified" if not full else \
            "exhaustive" if rep.no_instances else "completeness-only"
        reports.append(rep)
        rows.append(f"{claim.spec} {coverage} {seconds:.2f}s")
    return reports, ", ".join(rows), total


def test_invalid_witnesses_collapse_to_a_no_constant():
    """The premise of every stratified no-instance: a witness that its
    reduction does not list as valid maps to a declared constant that
    solves to no.  The sweep checks this on the probes it draws; here the
    real ``transform`` runs on every unlisted witness of the first 4,000
    members of 5 to 10 witness bits of each row's family, on yes-instances
    too."""
    for claim in CLAIMS:
        red = claim.base()
        no = {id(c) for c in red.constants if not solve(c).answer}
        lengths = ((inst, red.witness_len(inst)) for inst in claim.family())
        for inst, length in islice(((inst, length) for inst, length in lengths
                                    if 5 <= length <= 10), 4000):
            listed = {wit.value for wit in red.valid_witnesses(inst)}
            for wit in all_witnesses(length):
                if wit.value not in listed:
                    tgt = red.transform(inst, wit)
                    assert id(tgt) in no, (claim.spec, inst, wit, tgt)


def _line(num, detail):
    print(f"criterion {num:02d}: {detail}")


def test_criterion_01_numeric_reduction_grids():
    """All nine numeric reductions uphold the witness contract on full grids."""
    reports, rows, elapsed = sweep_criterion(1)
    checked = sum(rep.checked for rep in reports)
    witnesses = sum(rep.witnesses_checked for rep in reports)
    _line(1, f"PASS {checked} instances, {witnesses} witnesses, "
             f"0 violations ({elapsed:.1f}s: {rows})")
    assert (checked, witnesses) == (594426, 2566291)
    assert elapsed <= 300.0


def test_criterion_02_composed_reductions_preserve_verdicts():
    """Three round-trip compositions uphold the witness contract on 500
    random instances each (n <= 6, values <= 30)."""
    reports, rows, _ = sweep_criterion(2)
    _line(2, f"PASS {sum(rep.checked for rep in reports)} composed "
             f"instances, {sum(rep.witnesses_checked for rep in reports)} "
             f"witnesses, 0 violations ({rows})")


def test_criterion_03_graver_sequences():
    """graver_sequence(k) has length exactly 2^k and passes all three
    structural checks exhaustively for k in 1..4."""
    for k in range(1, 5):
        seq = graver_sequence(k)
        assert len(seq) == 2 ** k, (k, len(seq))
        problems = graver_check(seq, k, subset_cap=1 << 16)
        assert problems == [], (k, problems)
    _line(3, "PASS k in 1..4, lengths 2^k, zero structural violations")


def test_criterion_04_run_detection_three_ways():
    """Every sequence in {-1,0,1}^n for n <= 8 classifies identically under
    the direct predicate, the twisted-product form, and the permutation
    embedding."""
    started = time.time()

    def direct(seq):
        level = 0
        for step in seq:
            level += step
            if level not in (0, 1):
                return False
        return level == 0

    total = mismatches = 0
    for n in range(0, 9):
        ctx = make_run_context(n)
        for seq in product((-1, 0, 1), repeat=n):
            total += 1
            a = direct(seq)
            _, b = run_check_uq(seq, ctx.q)
            acc = identity(ctx.domain)
            for step in seq:
                acc = acc * ctx.gamma_hat(step)
            c = ctx.pi_exponent(acc) is not None
            if not (a == b == c):
                mismatches += 1
    elapsed = time.time() - started
    _line(4, f"PASS {total} sequences, {mismatches} mismatches "
             f"({elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed <= 60.0


def test_criterion_05_chi_homomorphism():
    """chi is a homomorphism: exhaustively over all 324 pairs for q=3 on an
    order-3 carrier, and on 10^4 random pairs for q=7."""
    carrier = from_cycles(3, [(0, 1, 2)])
    ctx = RunContext(n_bound=2, q=3, carrier=carrier)
    elems = [UqElement(x, y, z, 3)
             for x, y, z in product(range(3), range(3), (0, 1))]
    pairs = mismatches = 0
    for a in elems:
        for b in elems:
            pairs += 1
            if ctx.chi(a) * ctx.chi(b) != ctx.chi(a * b):
                mismatches += 1
    assert pairs == 324

    carrier7 = from_cycles(7, [tuple(range(7))])
    ctx7 = RunContext(n_bound=6, q=7, carrier=carrier7)
    rng = Random(55)
    rand_pairs = 10_000
    for _ in range(rand_pairs):
        a = UqElement(rng.randrange(7), rng.randrange(7), rng.randrange(2), 7)
        b = UqElement(rng.randrange(7), rng.randrange(7), rng.randrange(2), 7)
        if ctx7.chi(a) * ctx7.chi(b) != ctx7.chi(a * b):
            mismatches += 1
    _line(5, f"PASS {pairs} exhaustive + {rand_pairs} random pairs, "
             f"{mismatches} mismatches")
    assert mismatches == 0


def test_criterion_06_coloring_pipeline():
    """Coloring solved through the counter machine matches the direct
    oracle on every graph with <= 5 vertices plus the named graphs, and the
    machine-to-permutation reduction upholds its contract with full
    witness enumeration on every no-instance."""
    started = time.perf_counter()
    graphs = list(graphs_upto(5)) + \
        [named_graph(n) for n in ("k3", "k4", "c5", "p4")]
    disagreements = 0
    for graph in graphs:
        machine = red_coloring_to_cm.apply(graph, Witness.zero(0))
        if solve(machine).answer is not solve_coloring(graph).answer:
            disagreements += 1
    assert disagreements == 0

    [report], rows, _ = sweep_criterion(6)
    elapsed = time.perf_counter() - started
    _line(6, f"PASS {len(graphs)} graphs agree; contract on "
             f"{report.checked} machines, {report.witnesses_checked} "
             f"witnesses, 0 violations ({elapsed:.0f}s: {rows})")
    assert elapsed <= 600.0


def test_criterion_07_andsat_scheduling():
    """AND-of-formulas satisfiability equals scheduling feasibility of its
    image on every instance with <= 2 formulas over <= 2 variables and
    <= 2 clauses each; the scheduling side is solved exactly."""
    total = disagreements = 0
    cross_checked = 0
    for inst in and_sats(2, 2, 2, 2):
        total += 1
        image = red_andsat_to_scheduling.apply(inst, Witness.zero(0))
        via = solve_scheduling(image)
        assert via.method == "pareto"
        if via.answer is not solve_and_sat(inst).answer:
            disagreements += 1
        if len(image.jobs) <= 8:
            # the referee's search over job orders and the due-date front
            # must agree
            if scheduling(image) is not via.answer:
                disagreements += 1
            cross_checked += 1
    assert cross_checked == 68
    _line(7, f"PASS {total} instances, {disagreements} disagreements, "
             f"{cross_checked} schedule cross-checks")
    assert disagreements == 0


def test_criterion_08_cnf_coloring():
    """CNF satisfiability equals 3-colorability of its gadget image on
    every CNF with <= 2 variables, <= 2 clauses, arity <= 2, and on 50
    random 3-CNFs; every emitted path decomposition validates."""
    rng = Random(8)
    instances = list(cnfs(2, 2, 2)) + [random_3cnf(rng) for _ in range(50)]
    disagreements = bad_decompositions = 0
    for inst in instances:
        image = red_cnf_to_coloring.apply(inst, Witness.zero(0))
        if solve(image).answer is not solve(inst).answer:
            disagreements += 1
        if check_path_decomposition(image.num_vertices, image.edges,
                                    image.bags):
            bad_decompositions += 1
    _line(8, f"PASS {len(instances)} formulas, {disagreements} "
             f"disagreements, {bad_decompositions} bad decompositions")
    assert disagreements == 0
    assert bad_decompositions == 0


def test_criterion_09_certificate_schemes():
    """Both certificate schemes are sound and complete on their grids and
    respect their per-instance bit-length budgets: the sweep records a
    ``bit-length-bound`` violation on any instance it checks whose
    certificate is longer than the scheme's bound."""
    (uss, zkk, zkk3), rows, elapsed = sweep_criterion(9)
    _line(9, f"PASS unbounded: {uss.checked} instances "
             f"({uss.exhaustive} exhaustive / {uss.stratified} stratified); "
             f"zkk: {zkk.checked} instances at k = 2, {zkk3.checked} at "
             f"k = 3 ({zkk3.stratified} stratified), all bounds hold "
             f"({elapsed:.0f}s: {rows})")


def test_criterion_10_zero_sum_premise():
    """Every sequence of s = zkk_bound(k) elements of Z_k^k contains a
    nonempty zero-sum subsequence, for k = 2 and 3: an exhaustive search
    finds no zero-sum-free sequence longer than k(k - 1) < s."""
    found = {k: zero_sum_premise_check(k) for k in (2, 3)}
    _line(10, "PASS " + "; ".join(
        f"k = {k}: longest zero-sum-free {longest} < s = {zkk_bound(k)} "
        f"({nodes} nodes)" for k, (longest, nodes) in found.items()))
    assert found == {2: (2, 7), 3: (6, 138425)}
    assert all(longest < zkk_bound(k) for k, (longest, _) in found.items())


def test_criterion_11_landau_permutations():
    """landau_permutation(n) has order > n at degree <= 60 for every
    n in 1..1000."""
    worst_degree = 0
    for n in range(1, 1001):
        perm, degree = landau_permutation(n)
        assert perm.order() > n, (n, perm.order())
        worst_degree = max(worst_degree, degree)
    _line(11, f"PASS n in 1..1000, max degree {worst_degree}")
    assert worst_degree <= 60


def test_criterion_12_certificate_transfer():
    """Full-mask subset-sum certificates transfer back along the five
    chains into subset sum: each transferred composite upholds the witness
    contract with every no-instance covered exhaustively, and a verifier
    that also accepts the all-ones certificate is caught on exactly the
    no-instances whose certificate slot is nonempty, on at least one
    instance of every chain.  On the ilp chain's one-row family every
    witness of a no-instance maps to ilp-to-monotone's fixed no-instance,
    so every slot is empty; two rows give no-instances with a slot."""
    started = time.perf_counter()
    reports, rows, _ = sweep_criterion(12)

    def ones_too(inst, cert):
        return FULL_SS_SCHEME.verify(inst, cert) or \
            0 < cert.length and cert.value == (1 << cert.length) - 1

    faulty = dataclasses.replace(FULL_SS_SCHEME, verify=ones_too).reduction()
    claims = [claim for claim in CLAIMS if claim.criterion == 12]
    # each row, and the no-instances its planted fault is caught on
    for claim, caught in zip(claims, (112, 318, 142, 30, 0, 104), strict=True):
        spec, chain, transferred = claim.spec, get_reduction(claim.spec), \
            claim.reduction()
        planted = nppt_contract_check(dataclasses.replace(
            compose(chain, faulty), valid_witnesses=None), claim.family())
        slotted = [inst for inst in claim.family() if not solve(inst).answer
                   and transferred.witness_len(inst) > chain.witness_len(inst)]
        assert [v["instance"] for v in planted.violations] == slotted, spec
        assert len(slotted) == caught, spec
        assert {v["kind"] for v in planted.violations} <= {"soundness"}, spec
    elapsed = time.perf_counter() - started
    _line(12, f"PASS {sum(rep.checked for rep in reports)} instances "
              f"({sum(rep.no_instances for rep in reports)} no, all "
              f"exhaustive), {sum(rep.witnesses_checked for rep in reports)} "
              f"witnesses, 0 violations; the all-ones fault is caught on all "
              f"{len({claim.spec for claim in claims})} chains "
              f"({elapsed:.0f}s: {rows})")
