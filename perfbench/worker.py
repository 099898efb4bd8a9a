"""One measurement in a fresh interpreter; started by run.py, not by hand.

Usage: worker.py <json options>.  Options: workload, seed, scale, mode
("setup", "measure" or "trace"), spawned (the parent's time.monotonic()
just before it started this process), fault, spans (path for the span
dump, trace mode only).  Prints one JSON line.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _percentile(sorted_values, q):
    """Nearest-rank percentile of a nonempty ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main(opts):
    import calibrate
    import tracing
    import workloads

    tracer = None
    if opts["mode"] == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[opts["workload"]](
        opts["seed"], opts["scale"], tracer=tracer, fault=opts["fault"])
    import redkit.kernels
    setup_s = time.monotonic() - opts["spawned"]
    result = {"setup_raw_s": setup_s, "inputs": wl.describe(),
              "backend": redkit.kernels.BACKEND}
    clock = calibrate.Clock(tracer)
    if opts["mode"] == "setup":
        result["speed"] = clock.speed()
        result["setup_s"] = setup_s / result["speed"]
        return result
    out = wl.run(clock)
    clock.close()
    raw = [t for t, _ in out.latencies]
    speed, scaled = clock.speed(), clock.scale(out.latencies)
    lat = sorted(scaled)
    result.update({
        "speed": speed,
        "probes": len(clock.samples),
        "setup_s": setup_s / speed,
        "instances": len(raw),
        "elapsed_raw_s": sum(raw),
        "instances_per_s_raw": len(raw) / sum(raw),
        "instances_per_s": len(raw) / sum(scaled),
        "latency_ms.p50": 1000 * _percentile(lat, 50),
        "latency_ms.p99": 1000 * _percentile(lat, 99),
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "harness": out.harness,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        result["trace"] = {
            "agg": tracer.agg,
            "counts": dict(tracer.counts),
            "max_witness_len": tracer.max_witness_len,
            "spans_recorded": len(tracer.spans),
        }
        if opts.get("spans"):
            tracer.write_spans(opts["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
