"""The benchmark's three workloads.

All three are closed loops with one caller: the harness (or, in solve-mix,
the benchmark itself) asks for the next instance only after the previous
verdict.  Inputs come from the seed alone, and the amount of work scales
with ``scale``: 1.0 is sized for about ``REFERENCE_SECONDS`` of measured
time (probe-scaled seconds, see ``calibrate.py``) with the pure kernels.

* contract-sweep: ``nppt_contract_check`` over five reduction/family jobs.
  Reduction transforms, the target oracle and the verdict cache do most of
  the work; kernels run millions of times on tiny inputs.
* cert-sweep: ``certificate_scheme_check`` for the unbounded-SS and Z_k^k
  schemes.  Certificate enumeration and ``scheme.verify`` do almost all of
  the work; there are no reductions and no cache.
* solve-mix: ``oracles.solve`` on seeded mid-size instances of six kinds, so
  the kernels and the oracles' own DPs do the work in a few large calls.

Sweep families are the exhaustive grids of ``redkit.families``; the seed
picks a stratified sample of each (one instance at a random position in
every block of ``stride`` consecutive grid members) and the harness's own
probe seed.  Skipped grid members are still generated, inside the family
pull.  The job mix is chosen so that the pooled median and 99th percentile
fall where many instances lie (inside the cm-to-permss body and the
ss-to-monotone tail), which keeps them steady from seed to seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from random import Random
from time import perf_counter

import reference
from tracing import CountingCache

REFERENCE_SECONDS = 20

# (reduction spec, family function, its arguments, exhaustive_cap, stride)
CONTRACT_JOBS = (
    ("ss-to-monotone", "subset_sums", (5, 8, 30), 4096, 12),
    ("ilp-to-monotone", "ilps", ("standard", 2, 4), 1024, 20),
    ("knapsack-to-ss", "knapsacks", (2, 4), 4096, 1),
    ("ss-to-knapsack+knapsack-to-ss", "subset_sums", (3, 8, 30), 1024, 14),
    ("cm-to-permss", "cm_grid", ((1, 5), (2, 3)), 4096, 1),
)

# (scheme, family function, its arguments, exhaustive_cap, stride)
CERT_JOBS = (
    ("UNBOUNDED_SS_SCHEME", "unbounded_instances", (3, 8, 24), 1 << 14, 1),
    ("ZKK_SCHEME", "zkk_instances", (2, 7), 1 << 16, 4),
)

# kind -> instances per kind at scale 1.0
SOLVE_MIX = {
    "subset_sum": 480,
    "subset_sum_mod": 480,
    "group_subset_sum": 480,
    "ilp": 480,
    "unbounded_subset_sum": 480,
    "counter_machine": 480,
}

SOLVE_MIX_SIZES = {
    "subset_sum": "n 20-40, items 1-500, target in the upper half of the sum",
    "subset_sum_mod": "q 1e4-5e4, n = bits(q) - 2 items",
    "group_subset_sum": "CyclicGroup(q), q 1e4-5e4, n = bits(q) - 1 items",
    "ilp": "standard 0/1, 6 rows x 9-12 columns in {-1,0,1}",
    "unbounded_subset_sum": "3-4 items in [t/40, t/8], t 1e4-3e4",
    "counter_machine": "coloring-to-cm of k3/k4/c5/p4, vertices relabelled",
}


def _stratified(family, rng, stride):
    """One member at a seeded random position of every ``stride`` block."""
    if stride <= 1:
        yield from family
        return
    pick = 0
    for i, inst in enumerate(family):
        offset = i % stride
        if offset == 0:
            pick = rng.randrange(stride)
        if offset == pick:
            yield inst


class Paced:
    """Family wrapper timing each instance from its pull to the next pull.

    Between instances it lets ``clock`` run its machine-speed probe, whose
    time falls outside every latency.  Latencies are (seconds, segment).
    """

    def __init__(self, family, clock):
        self.family = family
        self.clock = clock
        self.latencies = []

    def __iter__(self):
        lat, clock = self.latencies, self.clock
        segment = clock.segment
        start = perf_counter()
        for inst in self.family:
            yield inst
            lat.append((perf_counter() - start, segment))
            clock.tick()
            segment = clock.segment
            start = perf_counter()


@dataclasses.dataclass
class Outcome:
    latencies: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    harness: dict = dataclasses.field(default_factory=dict)


class _Sweep:
    """Sweep loop shared by the two sweep workloads."""

    jobs = ()

    def __init__(self, seed, scale, tracer=None, fault=False):
        import redkit.families as families
        self.seed = seed
        self.tracer = tracer
        self.fault = fault
        self.families = families
        self.plan = []
        for n, job in enumerate(self.jobs):
            rng = Random(f"{self.__class__.__name__}:{seed}:{n}")
            stride = max(1, round(job[-1] / scale))
            self.plan.append((job, self.checker(job), rng, stride))

    def grid(self, function, args):
        make = getattr(self.families, function)
        if args and isinstance(args[0], tuple):
            return itertools.chain.from_iterable(make(*a) for a in args)
        return make(*args)

    def describe(self):
        return [{"job": job[0], "family": f"{job[1]}{job[2]}",
                 "exhaustive_cap": job[3], "stride": stride}
                for job, _, _, stride in self.plan]

    def run(self, clock):
        out = Outcome()
        totals = {"exhaustive": 0, "stratified": 0, "skipped": 0,
                  "witnesses_checked": 0, "violations": 0}
        tracer = self.tracer
        for n, (job, checker, rng, stride) in enumerate(self.plan):
            _, function, args, cap, _ = job
            family = _stratified(self.grid(function, args), rng, stride)
            if tracer is not None:
                family = tracer.family(family)
            paced = Paced(family, clock)
            kwargs = {"exhaustive_cap": cap, "seed": self.seed * 1009 + n}
            if tracer is not None:
                tracer.enter("harness")
            rep = self.check(checker, paced, kwargs)
            if tracer is not None:
                tracer.exit()
            lat = paced.latencies
            out.latencies += lat
            out.attempted += rep.checked
            out.failed += len(rep.violations) + len(rep.skipped)
            if not rep.ok or rep.checked != len(lat):
                out.errors.append({"job": job[0], "checked": rep.checked,
                                   "pulled": len(lat),
                                   "violations": len(rep.violations),
                                   "skipped": len(rep.skipped)})
            for key in ("exhaustive", "stratified", "witnesses_checked"):
                totals[key] += getattr(rep, key)
            totals["skipped"] += len(rep.skipped)
            totals["violations"] += len(rep.violations)
        out.harness = totals
        return out


class ContractSweep(_Sweep):
    jobs = CONTRACT_JOBS

    def checker(self, job):
        from redkit.catalog import get_reduction
        from redkit.instances import trivial_instance
        red = get_reduction(job[0])
        if self.fault and job is self.jobs[0]:
            # a reduction that claims every witness leads to a yes-target
            yes = trivial_instance(red.target_kind, True)
            red = dataclasses.replace(red, transform=lambda inst, wit: yes)
        if self.tracer is not None:
            red = self.tracer.reduction(red)
        return red

    def check(self, red, family, kwargs):
        from redkit.certificates import nppt_contract_check
        if self.tracer is not None:
            kwargs = dict(kwargs, cache=CountingCache(self.tracer))
        return nppt_contract_check(red, family, **kwargs)


class CertSweep(_Sweep):
    jobs = CERT_JOBS

    def checker(self, job):
        import redkit.certificates as certificates
        scheme = getattr(certificates, job[0])
        if self.fault and job is self.jobs[0]:
            # a verifier that accepts every certificate
            scheme = dataclasses.replace(scheme, verify=lambda inst, c: True)
        if self.tracer is not None:
            scheme = self.tracer.scheme(scheme)
        return scheme

    def check(self, scheme, family, kwargs):
        from redkit.certificates import certificate_scheme_check
        return certificate_scheme_check(scheme, family, **kwargs)


# ---------------------------------------------------------------------------
# solve-mix inputs.  Each generator returns (instance, expected answer), the
# answer taken from ``reference`` or from the construction.  No-instances
# pass the cheap tests a shortcut could use: item gcd 1 (with the modulus,
# where there is one), target inside [0, total], each ILP row's rhs inside
# the range its columns can reach.


def _gen_subset_sum(rng, want, at, I):
    while True:
        items = [rng.randint(1, 500) for _ in range(20 + int(21 * at))]
        if math.gcd(*items) != 1:
            continue
        total = sum(items)
        reach = reference.subset_sums_bitset(items)
        lo = total // 2
        if want:
            while True:
                t = rng.randint(lo, total - 1)
                if reach >> t & 1:
                    return I.SubsetSumInstance(items, t)
        # unreachable sums in [lo, total): the mirror images of small gaps
        gaps = ~reach & ((1 << total) - 1) & ~((1 << lo) - 1)
        if gaps:
            picks = []
            while gaps:
                low = gaps & -gaps
                picks.append(low.bit_length() - 1)
                gaps ^= low
            return I.SubsetSumInstance(items, rng.choice(picks))


def _gen_modular(rng, want, at, I, group):
    while True:
        q = 10_000 + int(40_000 * at) + rng.randrange(100)
        n = q.bit_length() - (1 if group else 2)
        items = [rng.randrange(1, q) for _ in range(n)]
        if math.gcd(q, *items) != 1:
            continue
        reach = reference.modular_sums_bitset(items, q)
        for _ in range(200):
            t = rng.randrange(q)
            if bool(reach >> t & 1) == want:
                if group:
                    return I.GroupSubsetSumInstance(I.CyclicGroup(q), items, t)
                return I.SubsetSumInstance(items, t, q)


def _gen_ilp(rng, want, at, I):
    m, n = 6, 9 + int(4 * at)
    while True:
        cols = [tuple(rng.choice((-1, 0, 1)) for _ in range(m))
                for _ in range(n)]
        x = [rng.randint(0, 1) for _ in range(n)]
        rhs = [sum(c[j] for c, xi in zip(cols, x) if xi) for j in range(m)]
        if not want:
            rhs[rng.randrange(m)] += rng.choice((-1, 1))
            if any(not sum(min(c[j], 0) for c in cols) <= rhs[j]
                   <= sum(max(c[j], 0) for c in cols) for j in range(m)):
                continue
            if reference.ilp01_feasible(cols, rhs):
                continue
        return I.IlpInstance(tuple(cols), tuple(rhs), "standard")


def _gen_unbounded(rng, want, at, I):
    while True:
        t = 10_000 + int(20_000 * at) + rng.randrange(100)
        items = [rng.randint(t // 40, t // 8) for _ in range(rng.randint(3, 4))]
        if math.gcd(*items) != 1:
            continue
        reach = reference.unbounded_sums_bitset(items, t)
        for _ in range(50):
            target = rng.randint(t // 2, t)
            if bool(reach >> target & 1) == want:
                return I.UnboundedSubsetSumInstance(items, target)


# 3-colourability of the named graphs, known by hand
_COLORABLE = {"k3": True, "k4": False, "c5": True, "p4": True}


def _gen_counter_machine(rng, want, at, I):
    from redkit.families import named_graph
    from redkit.pipeline import red_coloring_to_cm
    from redkit.witness import Witness
    names = sorted(n for n, c in _COLORABLE.items() if c == want)
    g = named_graph(names[int(len(names) * at)])
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    relabelled = I.ColoringInstance(
        g.num_vertices,
        tuple((perm[a], perm[b]) for a, b in g.edges),
        tuple(tuple(sorted(perm[v] for v in bag)) for bag in g.bags))
    return red_coloring_to_cm.apply(relabelled, Witness.zero(0))


_GENERATORS = {
    "subset_sum": _gen_subset_sum,
    "subset_sum_mod": lambda *a: _gen_modular(*a, group=False),
    "group_subset_sum": lambda *a: _gen_modular(*a, group=True),
    "ilp": _gen_ilp,
    "unbounded_subset_sum": _gen_unbounded,
    "counter_machine": _gen_counter_machine,
}


class SolveMix:
    def __init__(self, seed, scale, tracer=None, fault=False):
        import redkit.instances as I
        import redkit.oracles as oracles
        from redkit.errors import ResourceLimitError
        self.tracer = tracer
        self.oracles = oracles
        self.solve = oracles.solve if tracer is None else \
            tracer.solver(oracles.solve, ResourceLimitError)
        rng = Random(f"solve-mix:{seed}")
        self.cases = []
        for kind, count in SOLVE_MIX.items():
            count = max(1, round(count * scale))
            for i in range(count):
                # sizes stratified over their range; yes and no alternate
                want, at = i % 2 == 0, (i + rng.random()) / count
                self.cases.append(
                    (kind, _GENERATORS[kind](rng, want, at, I), want))
        rng.shuffle(self.cases)
        if fault:
            kind, inst, want = self.cases[0]
            self.cases[0] = (kind, inst, not want)

    def describe(self):
        counts = {}
        for kind, _, _ in self.cases:
            counts[kind] = counts.get(kind, 0) + 1
        return [{"kind": k, "instances": counts[k], "size": SOLVE_MIX_SIZES[k]}
                for k in SOLVE_MIX]

    def run(self, clock):
        from redkit.errors import ResourceLimitError
        solve, tracer = self.solve, self.tracer
        latencies, verdicts = [], []
        if tracer is not None:
            tracer.enter("harness")
        for _, inst, _ in self.cases:
            clock.tick()
            segment = clock.segment
            if tracer is not None:
                tracer.current = inst
                tracer.enter("instance")
            t0 = perf_counter()
            try:
                verdicts.append(solve(inst))
            except ResourceLimitError as exc:
                verdicts.append(exc)
            latencies.append((perf_counter() - t0, segment))
            if tracer is not None:
                tracer.exit()
        if tracer is not None:
            tracer.exit()
        out = Outcome(latencies=latencies, attempted=len(self.cases))
        for (kind, inst, want), got in zip(self.cases, verdicts):
            if isinstance(got, ResourceLimitError):
                ok = False
            else:
                ok = got.answer == want and (
                    not got.answer or self.oracles.check_solution(inst, got.solution))
            if not ok:
                out.failed += 1
                if len(out.errors) < 5:
                    out.errors.append({"kind": kind, "expected": want,
                                       "got": repr(got)[:200]})
        return out


WORKLOADS = {
    "contract-sweep": ContractSweep,
    "cert-sweep": CertSweep,
    "solve-mix": SolveMix,
}
