"""The contract sweep against its reference, a plain loop over every witness.

``reference_sweep`` applies every witness it checks and decides its
target with the referee, so a report it shares with
``nppt_contract_check`` says that the sweep's shortcuts (the constants
decided once, the identity filter, the C-level pipeline and the witness
counter) change nothing a report shows, and that the target oracle and
the referee agree on every target both sweeps check.  The
reports are compared whole on the pinned sweeps of
``tests/test_sweep_records.py``, on small families of the acceptance
suite's claims, and on faults that Hypothesis plants with
``replace(transform=…)``.
"""

import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from redkit.catalog import REDUCTIONS, get_reduction
from redkit.certificates import (FULL_SS_SCHEME, SCHEMES, UNBOUNDED_SS_SCHEME,
                                 nppt_contract_check)
from redkit.errors import ReductionError
from redkit.families import (cnfs, graphs_upto, ilps, knapsacks, named_graph,
                             subset_sums, unbounded_instances, zkk_instances,
                             zq_instances)
from redkit.instances import IlpInstance, trivial_instance
from redkit.reductions import compose

from reference_sweep import reference_sweep
from test_sweep_records import DIGEST_CASES, Sweep


def _same(sweep):
    got = sweep.run()
    assert got.as_dict() == sweep.run(reference_sweep).as_dict()
    return got


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_pinned_sweeps_match_the_reference(name):
    _same(DIGEST_CASES[name])


def test_coloring_to_cm_matches_the_reference():
    graphs = [named_graph(n) for n in ("k3", "k4", "c5", "p4")]
    _same(Sweep(lambda: REDUCTIONS["coloring-to-cm"],
                lambda: graphs + list(graphs_upto(4))))


def _transferred(spec):
    return lambda: compose(get_reduction(spec), FULL_SS_SCHEME.reduction())


def _full(make):
    """``make``'s reduction with every no-instance enumerated outright."""
    return lambda: dataclasses.replace(make(), valid_witnesses=None)


_SS = partial(subset_sums, 3, 5, 12)
_MONOTONE = partial(ilps, "monotone", 2, 3)

# small families of the acceptance suite's criteria 01, 09 and 12, at the
# claims' caps, each also with every no-instance within the cap enumerated
_CLAIM_SWEEPS = {
    **{spec: Sweep(partial(get_reduction, spec), _SS)
       for spec in ("ss-to-knapsack", "ss-to-monotone", "ss-to-zq")},
    "knapsack-to-ss": Sweep(partial(get_reduction, "knapsack-to-ss"),
                            partial(knapsacks, 2, 4)),
    **{spec: Sweep(partial(get_reduction, spec), _MONOTONE)
       for spec in ("monotone-to-ss", "monotone-to-zerosum")},
    "zerosum-to-ilp": Sweep(partial(get_reduction, "zerosum-to-ilp"),
                            partial(ilps, "zero_sum", 2, 3)),
    "ilp-to-monotone": Sweep(partial(get_reduction, "ilp-to-monotone"),
                             partial(ilps, "standard", 1, 4), 1024),
    "zq-to-ss": Sweep(partial(get_reduction, "zq-to-ss"),
                      partial(zq_instances, 6, 3)),
    "unbounded-ss": Sweep(SCHEMES["unbounded-ss"].reduction,
                          partial(unbounded_instances, 2, 4, 8), 1 << 17),
    "zkk": Sweep(SCHEMES["zkk"].reduction, partial(zkk_instances, 2, 4),
                 1 << 17),
    **{f"{spec}>full-ss": Sweep(_transferred(spec), family)
       for spec, family in (
           ("knapsack-to-ss", partial(knapsacks, 1, 4)),
           ("monotone-to-ss", partial(ilps, "monotone", 1, 3)),
           ("zq-to-ss", partial(zq_instances, 4, 3)),
           ("tsat-to-ss", partial(cnfs, 1, 2, 2)),
           ("ilp-to-monotone+monotone-to-ss",
            partial(ilps, "standard", 1, 3)))},
}
CLAIM_SWEEPS = {
    **_CLAIM_SWEEPS,
    **{f"{name}/exhaustive": sweep._replace(reduction=_full(sweep.reduction))
       for name, sweep in _CLAIM_SWEEPS.items()},
}


@pytest.mark.parametrize("name", sorted(CLAIM_SWEEPS))
def test_claim_sweeps_match_the_reference(name):
    # an exhaustive variant skips the instances past the cap
    rep = _same(CLAIM_SWEEPS[name])
    assert rep.no_instances and not rep.violations
    assert rep.ok or name.endswith("/exhaustive")


# (reduction, family) pairs for planted faults: a scheme, whose constants
# are a yes and a no target, and two reductions with one no constant
_FAULT_BASES = (
    (UNBOUNDED_SS_SCHEME.reduction, partial(unbounded_instances, 2, 3, 9)),
    (partial(get_reduction, "ss-to-monotone"), partial(subset_sums, 2, 3, 7)),
    (partial(get_reduction, "zq-to-ss"), partial(zq_instances, 5, 2)),
)


@st.composite
def _faults(draw):
    """A reduction whose transform, keyed on the witness value modulo m,
    accepts a set of residues (a yes target that is no constant), raises on
    one, returns a drawn declared constant on one, and returns a no target
    that is no constant on one; any residue may be absent."""
    base, family = draw(st.sampled_from(_FAULT_BASES))
    red = base()
    m = draw(st.integers(2, 40))
    residue = st.integers(0, m - 1)
    accept = draw(st.frozensets(residue, max_size=2))
    boom, const_at, fresh_at = (draw(st.none() | residue) for _ in range(3))
    const = draw(st.sampled_from(red.constants))
    yes = trivial_instance(red.target_kind, True)
    fresh_no = trivial_instance(red.target_kind, False)
    transform = red.transform

    def broken(inst, wit):
        key = wit.value % m
        if key == boom:
            raise ReductionError(f"fault at {wit.value}")
        if key in accept:
            return yes
        if key == const_at:
            return const
        if key == fresh_at:
            return fresh_no
        return transform(inst, wit)
    cap = draw(st.sampled_from((16, 4096)))
    seed = draw(st.integers(0, 3))
    return dataclasses.replace(red, transform=broken), family, cap, seed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_faults())
def test_planted_faults_match_the_reference(fault):
    red, family, cap, seed = fault
    got = nppt_contract_check(red, family(), exhaustive_cap=cap, seed=seed)
    want = reference_sweep(red, family(), exhaustive_cap=cap, seed=seed)
    assert got.as_dict() == want.as_dict()


def _wide_zero_sum_ilps():
    """One- and two-row zero-sum ILPs with 33 to 45 columns: the 6-bit
    witness of zerosum-to-ilp then has a valid list (one witness per
    column) that, with the 18 probes, is shorter than the 64 witnesses, so
    each no-instance takes the stratified path."""
    return [
        IlpInstance(((1,),) * 33, (0,), "zero_sum"),
        IlpInstance(((1,),) * 39 + ((-1,),), (0,), "zero_sum"),
        IlpInstance(((1, 0), (0, 1), (1, 1)) * 15, (0, 0), "zero_sum"),
        IlpInstance(((1, -1),) * 20 + ((1, 1),) * 16, (0, 0), "zero_sum"),
        IlpInstance(((1, -1), (-1, 1)) * 18, (0, 0), "zero_sum"),
    ]


def _zsi_stratum_fault():
    """zerosum-to-ilp whose all-ones witness, an invalid one the sweep
    always probes, maps to a fresh no target rather than its constant."""
    red = get_reduction("zerosum-to-ilp")
    transform = red.transform

    def broken(inst, wit):
        if wit.value == (1 << wit.length) - 1:
            return trivial_instance("ilp", False, variant="standard")
        return transform(inst, wit)
    return dataclasses.replace(red, transform=broken)


@pytest.mark.parametrize("make, kinds", [
    (partial(get_reduction, "zerosum-to-ilp"), []),
    (_zsi_stratum_fault, ["invalid-stratum"] * 3),
], ids=["clean", "invalid-stratum-fault"])
def test_wide_zero_sum_ilps_stratify_as_the_reference_does(make, kinds):
    rep = _same(Sweep(make, _wide_zero_sum_ilps))
    assert (rep.checked, rep.no_instances, rep.stratified) == (5, 3, 3)
    assert [v["kind"] for v in rep.violations] == kinds
