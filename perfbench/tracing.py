"""Spans and counters recorded around calls into redkit, from outside it.

Nothing under ``src/`` is edited.  ``install`` rebinds module attributes the
harnesses and oracles look up at call time (``redkit.certificates.solve``,
``redkit.certificates.all_witnesses`` and the four ``redkit.kernels``
functions); reductions and certificate schemes are traced through
``dataclasses.replace`` copies whose callables are timed; the reduction
harness gets a counting dict as its verdict cache.

Each span records its name, start, end and parent.  Per-name call counts,
inclusive time and self time (duration minus the time covered by child
spans) are aggregated as the spans close; the span list itself is kept up to
``SPAN_CAP`` entries and written out by ``write_spans``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from time import perf_counter

SPAN_CAP = 100_000

KERNELS = ("subset_sum_solve", "subset_sum_mod_solve",
           "counter_machine_solve", "ilp01_brute")


def _kernel_cells(name, args):
    """DP or search size of one kernel call, computed from its arguments."""
    if name == "subset_sum_solve":
        items, target = args[:2]
        return len(items) * (target + 1)
    if name == "subset_sum_mod_solve":
        items, q = args[:2]
        return len(items) * q
    if name == "counter_machine_solve":
        incs, _decs, _req, dimension, limit = args[:5]
        return len(incs) * min(1 << dimension, limit)
    columns, rhs = args[:2]
    return (1 << len(columns)) * max(len(rhs), 1)


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [name, start, child_s, id]
        self.agg = {}            # name -> [calls, inclusive_s, self_s]
        self.spans = []          # (id, parent, name, start, end)
        self.counts = Counter()
        self.max_witness_len = 0
        self.current = None      # instance most recently pulled from a family
        self._ids = 0

    def enter(self, name):
        self._ids += 1
        self.stack.append([name, perf_counter(), 0.0, self._ids])

    def exit(self):
        end = perf_counter()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        parent = 0
        if self.stack:
            top = self.stack[-1]
            top[2] += dur
            parent = top[3]
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, start, end))
        return dur

    def wrap(self, name, fn):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    def wrap_len(self, name, fn):
        """Timed witness or certificate length function; tracks the max."""
        inner = self.wrap(name, fn)

        def traced(inst):
            length = inner(inst)
            if length > self.max_witness_len:
                self.max_witness_len = length
            return length
        return traced

    def wrap_enum(self, fn):
        """Timed witness enumerator: every ``next`` is a ``witness.enum`` span."""
        enter, exit_, counts = self.enter, self.exit, self.counts

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                enter("witness.enum")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_()
                counts["witness.enumerated"] += 1
                yield item
        return traced

    def family(self, family):
        """Pull instances under ``families.next`` spans; each instance's
        harness work runs under an ``instance`` span until the next pull."""
        it = iter(family)
        while True:
            self.enter("families.next")
            try:
                inst = next(it)
            except StopIteration:
                return
            finally:
                self.exit()
            self.current = inst
            self.enter("instance")
            try:
                yield inst
            finally:
                self.exit()

    def reduction(self, red):
        return dataclasses.replace(
            red,
            witness_len=self.wrap_len("reductions.witness_len", red.witness_len),
            transform=self.wrap("reductions.apply", red.transform),
            synthesize=self.wrap("reductions.synthesize", red.synthesize),
            valid_witnesses=(None if red.valid_witnesses is None
                             else self.wrap_enum(red.valid_witnesses)))

    def scheme(self, scheme):
        return dataclasses.replace(
            scheme,
            cert_len=self.wrap_len("certificates.cert_len", scheme.cert_len),
            verify=self.wrap("certificates.verify", scheme.verify),
            synthesize=self.wrap("certificates.synthesize", scheme.synthesize),
            valid_certificates=(None if scheme.valid_certificates is None
                                else self.wrap_enum(scheme.valid_certificates)),
            len_bound=(None if scheme.len_bound is None else
                       self.wrap("certificates.len_bound", scheme.len_bound)))

    def solver(self, solve, errors):
        """Timed oracle entry point.  A call on the instance just pulled from
        the family is a source solve; any other call is a target solve."""
        enter, exit_, counts = self.enter, self.exit, self.counts

        def traced(inst, *args, **kwargs):
            label = "oracles.source" if inst is self.current else "oracles.target"
            kind = inst.kind
            if kind == "subset_sum" and inst.modulus is not None:
                kind = "subset_sum_mod"
            enter(label)
            try:
                verdict = solve(inst, *args, **kwargs)
            except errors:
                counts["oracles.resource_limit"] += 1
                raise
            finally:
                counts[f"oracles.solve.{kind}.s"] += exit_()
            counts[f"oracles.method.{verdict.method}"] += 1
            return verdict
        return traced

    def kernel(self, name, fn):
        inner = self.wrap(f"kernels.{name}", fn)
        counts = self.counts

        def traced(*args):
            counts[f"kernels.{name}.cells"] += _kernel_cells(name, args)
            return inner(*args)
        return traced

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans,
                       "dropped": max(self._ids - len(self.spans), 0)}, fh)


class CountingCache(dict):
    """Verdict cache for ``nppt_contract_check(cache=...)`` that counts and
    times lookups and stores."""

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def get(self, key, default=None):
        t = self._tracer
        t.enter("cache.get")
        hit = super().get(key, default)
        t.exit()
        t.counts["cache.hits" if hit is not None else "cache.misses"] += 1
        return hit

    def __setitem__(self, key, value):
        t = self._tracer
        t.enter("cache.set")
        super().__setitem__(key, value)
        t.exit()
        if len(self) > t.counts["cache.peak_entries"]:
            t.counts["cache.peak_entries"] = len(self)


def install(tracer):
    """Rebind the module attributes the harnesses and oracles call through."""
    import redkit.certificates as certificates
    import redkit.kernels as kernels
    from redkit.errors import ResourceLimitError

    for name in KERNELS:
        setattr(kernels, name, tracer.kernel(name, getattr(kernels, name)))
    certificates.all_witnesses = tracer.wrap_enum(certificates.all_witnesses)
    certificates.solve = tracer.solver(certificates.solve, ResourceLimitError)
