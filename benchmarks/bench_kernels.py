#!/usr/bin/env python3
"""Time the kernels of ``redkit.kernels`` on four fixed workloads.

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N] [--seed S]

Workloads are deterministic for a seed; each timing is the best of
``--repeat`` runs, and the answer column says whether a solution was found.
"""

import argparse
import time
from random import Random

from redkit import kernels
from redkit.families import named_graph
from redkit.oracles import cm_masks
from redkit.pipeline import red_coloring_to_cm
from redkit.witness import Witness


def _subset_sum_workload(seed):
    rng = Random(seed)
    items = [2 * rng.randint(1, 300) for _ in range(24)]
    return (items, sum(items) // 2 | 1)           # odd target: full sweep


def _subset_sum_mod_workload(seed):
    rng = Random(seed)
    q = 99991
    return ([rng.randrange(q) for _ in range(22)], q, q - 1)


def _cm_workload(_seed):
    graph = named_graph("c5")
    machine = red_coloring_to_cm.apply(graph, Witness.zero(0))
    incs, decs, req = cm_masks(machine)
    return (incs, decs, req, machine.dimension, 4_000_000)


def _ilp_workload(seed):
    rng = Random(seed)
    cols = [tuple(rng.choice((-1, 0, 1)) for _ in range(6))
            for _ in range(21)]
    rhs = tuple(rng.randint(4, 7) for _ in range(6))  # likely infeasible
    return (cols, rhs)


WORKLOADS = [
    ("subset-sum dp", "subset_sum_solve", _subset_sum_workload),
    ("subset-sum mod dp", "subset_sum_mod_solve", _subset_sum_mod_workload),
    ("counter machine", "counter_machine_solve", _cm_workload),
    ("ilp 0/1 mitm", "ilp01_brute", _ilp_workload),
]


def _best(fn, args, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = f"{'kernel':<20} {'time':>10} {'answer':>7}"
    print(header)
    print("-" * len(header))
    for label, fn_name, make in WORKLOADS:
        seconds, result = _best(getattr(kernels, fn_name), make(args.seed),
                                args.repeat)
        answer = "no" if result is None else "yes"
        print(f"{label:<20} {seconds * 1000:>8.3f}ms {answer:>7}")


if __name__ == "__main__":
    main()
