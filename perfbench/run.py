#!/usr/bin/env python3
"""redkit's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see ``workloads.py``): contract-sweep, cert-sweep,
solve-mix.  Each measurement runs in a fresh single-threaded interpreter so
the library's module-level caches start cold, as they do for a CLI user;
processes run one at a time.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  Times are scaled by machine-speed probes run between instances
(``calibrate.py``), because other tenants change this machine's speed by
tens of percent; the raw rate and the speed factor are in the context line.  ``setup_s`` is the median over ``SETUP_RUNS`` fresh processes of
the time from process start to the first timed call.  ``--trace 1`` runs the
workload twice at half size, untraced and then traced, and reports the
per-layer metrics and the tracing overhead; its spans go to
``perfbench/out/spans-<workload>.json``.  The metric names printed are
those listed in BENCHMARK.json.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
context (machine, backend, commit, seed, input sizes, sample counts, fail
ratio).  The exit code is 0 only when every verdict was correct.
``--inject-fault`` plants one wrong verdict, which must make it fail.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPAN_DIR = os.path.join(HERE, "out")
SETUP_RUNS = 5
TIME_LIMIT_S = 170

sys.path.insert(0, HERE)
from tracing import KERNELS  # noqa: E402
from workloads import REFERENCE_SECONDS, WORKLOADS  # noqa: E402

# Span names grouped into the layers their self time is charged to.
LAYERS = (
    ("harness", ("harness", "instance")),
    ("families", ("families.next",)),
    ("oracles.source", ("oracles.source",)),
    ("oracles.target", ("oracles.target",)),
    ("kernels", tuple(f"kernels.{k}" for k in KERNELS)),
    ("reductions", ("reductions.apply", "reductions.witness_len",
                    "reductions.synthesize")),
    ("certificates", ("certificates.verify", "certificates.cert_len",
                      "certificates.synthesize", "certificates.len_bound")),
    ("witness", ("witness.enum",)),
    ("cache", ("cache.get", "cache.set")),
)

# The spans (inclusive time) of the layers each workload is named for.
NAMED_SPANS = {
    "contract-sweep": ("reductions.apply", "reductions.witness_len",
                       "reductions.synthesize", "oracles.target",
                       "cache.get", "cache.set"),
    "cert-sweep": ("certificates.verify", "witness.enum"),
    "solve-mix": ("oracles.source",),
}


def _commit():
    """Commit of the checkout, read from .git when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(opts, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    opts = dict(opts, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(opts)], cwd=ROOT, env=env,
        capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(setups, run):
    return {
        "setup_s": statistics.median(setups),
        "instances_per_s": run["instances_per_s"],
        "latency_ms.p50": run["latency_ms.p50"],
        "latency_ms.p99": run["latency_ms.p99"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _per_layer(workload, untraced, traced):
    tr = traced["trace"]
    agg, counts = tr["agg"], tr["counts"]

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    m = {}
    for span in ("reductions.apply", "reductions.witness_len",
                 "reductions.synthesize", "certificates.verify",
                 "certificates.cert_len", "certificates.synthesize",
                 "oracles.source", "oracles.target"):
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.s"] = incl(span)
    m["witness.enumerated"] = counts.get("witness.enumerated", 0)
    m["witness.enum_s"] = incl("witness.enum")
    for name in LAYERS[4][1]:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = incl(name)
        m[f"{name}.cells"] = counts.get(f"{name}.cells", 0)
    m["oracles.resource_limit"] = counts.get("oracles.resource_limit", 0)
    for key, value in counts.items():
        if key.startswith(("oracles.method.", "oracles.solve.")):
            m[key] = value
    hits = counts.get("cache.hits", 0)
    lookups = hits + counts.get("cache.misses", 0)
    m["cache.hits"] = hits
    m["cache.misses"] = lookups - hits
    m["cache.lookups"] = lookups
    m["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["cache.peak_entries"] = counts.get("cache.peak_entries", 0)
    m["cache.s"] = incl("cache.get") + incl("cache.set")
    m["families.instances"] = calls("instance")
    m["families.next_s"] = incl("families.next")
    harness = traced["harness"]
    m["harness.self_s"] = self_s("harness") + self_s("instance")
    for key in ("exhaustive", "stratified", "skipped", "witnesses_checked"):
        m[f"harness.{key}"] = harness.get(key, 0)
    m["harness.max_witness_len"] = tr["max_witness_len"]
    applies = calls("reductions.apply")
    m["harness.dedup_ratio"] = (applies - lookups) / applies if applies else 0.0
    total = incl("harness") - incl("probe")
    for layer, spans in LAYERS:
        m[f"share.{layer}"] = sum(self_s(s) for s in spans) / total
    m["share.named"] = sum(incl(s) for s in NAMED_SPANS[workload]) / total
    m["trace.untraced_instances_per_s"] = untraced["instances_per_s"]
    m["trace.traced_instances_per_s"] = traced["instances_per_s"]
    m["trace.overhead_ratio"] = (untraced["instances_per_s"]
                                 / traced["instances_per_s"])
    m["trace.instances"] = traced["instances"]
    m["trace.spans"] = tr["spans_recorded"]
    return m


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="plant one wrong verdict; the run must then fail")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "redkit", "__init__.py")):
        print(f"error: no redkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    end_to_end, per_layer = _declared()
    scale = args.seconds / REFERENCE_SECONDS
    opts = {"workload": args.workload, "seed": args.seed,
            "fault": args.inject_fault}
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        spans = os.path.join(SPAN_DIR, f"spans-{args.workload}.json")
        untraced = _spawn(dict(opts, mode="measure", scale=scale / 2), deadline)
        run = _spawn(dict(opts, mode="trace", scale=scale / 2, spans=spans),
                     deadline)
        values = _per_layer(args.workload, untraced, run)
        wanted = per_layer
        setup_runs = checked = (untraced, run)
    else:
        setup_runs = [_spawn(dict(opts, mode="setup", scale=scale), deadline)
                      for _ in range(SETUP_RUNS - 1)]
        run = _spawn(dict(opts, mode="measure", scale=scale), deadline)
        setup_runs.append(run)
        values = _end_to_end([r["setup_s"] for r in setup_runs], run)
        wanted = end_to_end
        checked = (run,)
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        # method and per-kind counters exist only once something hit them
        value = values.get(name, 0) if name.startswith(
            ("oracles.method.", "oracles.solve.")) else values[name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    errors = [e for r in checked for e in r["errors"]]
    correct = failed == 0 and not errors
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": scale,
        "commit": _commit(), "backend": run["backend"],
        "python": platform.python_version(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "inputs": run["inputs"], "latency_samples": run["instances"],
        "elapsed_raw_s": run["elapsed_raw_s"],
        "instances_per_s_raw": run["instances_per_s_raw"],
        "speed": run["speed"], "speed_probes": run["probes"],
        "setup_samples_s": [r["setup_s"] for r in setup_runs],
        "setup_raw_samples_s": [r["setup_raw_s"] for r in setup_runs],
        "fail_ratio": {"failed": failed, "attempted": attempted,
                       "value": failed / max(attempted, 1)},
        "harness": run["harness"], "errors": errors,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
