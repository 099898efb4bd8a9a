"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every expected value was produced by the independent
brute-force oracles in ``redkit.oracles``; time ceilings are asserted where
a criterion pins one.

No-instance coverage in the contract checks is complete in one of two
ways: either every witness bit string is enumerated outright, or every
structurally valid witness is enumerated while the invalid remainder -
which the transforms collapse onto one fixed no-instance - is probed
through corner and random representatives.  Either way a single accepting
witness would be found, so "zero violations" certifies soundness over the
whole witness space.
"""

import dataclasses
import time
from itertools import product
from random import Random

from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (FULL_SS_SCHEME, UNBOUNDED_SS_SCHEME,
                                 ZKK_SCHEME, certificate_scheme_check,
                                 nppt_contract_check,
                                 zero_sum_premise_check, zkk_bound)
from redkit.families import (and_sats, cm_contract_family, cnfs, graphs_upto,
                             ilps, knapsacks, named_graph, random_3cnf,
                             random_subset_sum, subset_sums,
                             unbounded_instances, zkk_instances, zq_instances)
from redkit.groups import (UqElement, RunContext, from_cycles, identity,
                           landau_permutation, make_run_context, run_check_uq,
                           uq_identity)
from redkit.numeric import graver_check, graver_sequence
from redkit.oracles import (DEFAULT_BUDGET, solve, solve_and_sat,
                            solve_coloring, solve_scheduling)
from redkit.pathdecomp import check_path_decomposition
from redkit.pipeline import red_cm_to_perm_ss, red_coloring_to_cm
from redkit.reductions import compose
from redkit.satred import red_andsat_to_scheduling, red_cnf_to_coloring
from redkit.witness import Witness

from helpers import brute_scheduling


def _line(num, detail):
    print(f"criterion {num:02d}: {detail}")


def test_criterion_01_numeric_reduction_grids():
    """All nine numeric reductions uphold the witness contract on full grids."""
    started = time.time()
    jobs = [
        ("ss-to-knapsack", subset_sums(5, 8, 40), 4096),
        ("ss-to-monotone", subset_sums(5, 8, 40), 4096),
        ("ss-to-zq", subset_sums(5, 8, 40), 4096),
        ("knapsack-to-ss", knapsacks(3, 6), 4096),
        ("monotone-to-ss", ilps("monotone", 2, 4), 4096),
        ("monotone-to-zerosum", ilps("monotone", 2, 4), 4096),
        ("zerosum-to-ilp", ilps("zero_sum", 2, 4), 4096),
        ("ilp-to-monotone", ilps("standard", 2, 4), 1024),
        ("zq-to-ss", zq_instances(8, 4), 4096),
    ]
    checked = witnesses = 0
    seconds = []
    for name, family, cap in jobs:
        job_started = time.time()
        report = nppt_contract_check(REDUCTIONS[name], family,
                                     exhaustive_cap=cap)
        seconds.append(f"{name} {time.time() - job_started:.2f}s")
        assert report.ok, (name, report.violations[:3], report.skipped[:3])
        checked += report.checked
        witnesses += report.witnesses_checked
    elapsed = time.time() - started
    _line(1, f"PASS {checked} instances, {witnesses} witnesses, "
             f"0 violations ({elapsed:.1f}s: {', '.join(seconds)})")
    assert elapsed <= 300.0


def test_criterion_02_composed_reductions_preserve_verdicts():
    """Three round-trip compositions uphold the witness contract on 500
    random instances each (n <= 6, values <= 30)."""
    budget = dataclasses.replace(DEFAULT_BUDGET, max_dp_cells=64_000_000)
    checked = witnesses = 0
    for spec in ("ss-to-knapsack+knapsack-to-ss",
                 "ss-to-monotone+monotone-to-ss", "ss-to-zq+zq-to-ss"):
        rng = Random(97)
        family = [random_subset_sum(rng, 6, 30) for _ in range(500)]
        report = nppt_contract_check(get_reduction(spec), family, budget)
        assert report.ok, (spec, report.violations[:3], report.skipped[:3])
        checked += report.checked
        witnesses += report.witnesses_checked
    _line(2, f"PASS {checked} composed instances, {witnesses} witnesses, "
             f"0 violations")


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
        ctx = make_run_context(max(n, 1))
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
    started = time.time()
    graphs = list(graphs_upto(5)) + \
        [named_graph(n) for n in ("k3", "k4", "c5", "p4")]
    disagreements = 0
    for graph in graphs:
        machine = red_coloring_to_cm.apply(graph, Witness.zero(0))
        if solve(machine).answer is not solve_coloring(graph).answer:
            disagreements += 1
    assert disagreements == 0

    report = nppt_contract_check(red_cm_to_perm_ss, cm_contract_family())
    assert report.ok, (report.violations[:3], report.skipped[:3])
    assert report.stratified == 0          # every no-instance fully enumerated
    elapsed = time.time() - started
    _line(6, f"PASS {len(graphs)} graphs agree; contract on "
             f"{report.checked} machines, {report.witnesses_checked} "
             f"witnesses, 0 violations ({elapsed:.0f}s)")
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
            # the permutation search and the due-date front must agree
            if brute_scheduling(image) is not via.answer:
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
    started = time.time()
    uss = certificate_scheme_check(UNBOUNDED_SS_SCHEME,
                                   unbounded_instances(3, 8, 20),
                                   exhaustive_cap=1 << 17)
    assert uss.ok, (uss.violations[:3], uss.skipped[:3])
    zkk = certificate_scheme_check(ZKK_SCHEME, zkk_instances(2, 5),
                                   exhaustive_cap=1 << 17)
    assert zkk.ok, (zkk.violations[:3], zkk.skipped[:3])
    zkk3 = certificate_scheme_check(ZKK_SCHEME, zkk_instances(3, 2),
                                    exhaustive_cap=1 << 17)
    assert zkk3.ok, (zkk3.violations[:3], zkk3.skipped[:3])
    assert (zkk3.checked, zkk3.no_instances) == (20439, 17628)
    elapsed = time.time() - started
    _line(9, f"PASS unbounded: {uss.checked} instances "
             f"({uss.exhaustive} exhaustive / {uss.stratified} stratified); "
             f"zkk: {zkk.checked} instances at k = 2, {zkk3.checked} at "
             f"k = 3 ({zkk3.stratified} stratified), all bounds hold "
             f"({elapsed:.0f}s)")


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
    instance of every chain.

    The ilp chain runs on two families.  At one row every standard 0/1
    no-instance has its row total out of the columns' reach under every
    witness, so ilp-to-monotone maps each witness to its fixed no-instance,
    every slot is empty and nothing can catch the fault there; two rows
    give no-instances with a guess in reach."""
    started = time.time()
    # (chain, family, (instances, no-instances, witnesses), caught)
    jobs = [
        ("knapsack-to-ss", lambda: knapsacks(2, 4), (3825, 1702, 20257), 112),
        ("monotone-to-ss", lambda: ilps("monotone", 2, 3), (457, 318, 2363),
         318),
        ("zq-to-ss", lambda: zq_instances(5, 3), (504, 152, 11660), 142),
        ("tsat-to-ss", lambda: cnfs(2, 3, 2), (286, 30, 29440), 30),
        ("ilp-to-monotone+monotone-to-ss", lambda: ilps("standard", 1, 3),
         (110, 60, 962), 0),
        ("ilp-to-monotone+monotone-to-ss", lambda: ilps("standard", 2, 2),
         (1247, 1060, 325195), 104),
    ]

    def ones_too(inst, cert):
        return FULL_SS_SCHEME.verify(inst, cert) or \
            0 < cert.length and cert.value == (1 << cert.length) - 1

    faulty = dataclasses.replace(FULL_SS_SCHEME, verify=ones_too)
    checked = no = witnesses = 0
    for spec, family, counts, caught in jobs:
        chain = get_reduction(spec)
        transferred = compose(chain, FULL_SS_SCHEME.reduction())
        report = nppt_contract_check(transferred, family())
        assert report.ok, (spec, report.violations[:3], report.skipped[:3])
        assert report.exhaustive == report.no_instances, spec
        assert (report.checked, report.no_instances,
                report.witnesses_checked) == counts, spec
        checked += report.checked
        no += report.no_instances
        witnesses += report.witnesses_checked
        planted = nppt_contract_check(compose(chain, faulty.reduction()),
                                      family())
        slotted = [inst for inst in family() if not solve(inst).answer and
                   transferred.witness_len(inst) > chain.witness_len(inst)]
        assert [v["instance"] for v in planted.violations] == slotted, spec
        assert len(slotted) == caught, spec
        if caught:
            assert not planted.ok, spec
            assert {v["kind"] for v in planted.violations} == \
                {"soundness"}, spec
    elapsed = time.time() - started
    chains = len({spec for spec, *_ in jobs})
    _line(12, f"PASS {checked} instances ({no} no, all exhaustive), "
              f"{witnesses} witnesses, 0 violations; the all-ones fault is "
              f"caught on all {chains} chains ({elapsed:.0f}s)")
