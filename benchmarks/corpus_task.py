"""Run one corpus task in this fresh process, as `reflexa.corpus.run_task` does.

    python benchmarks/corpus_task.py entry auslander_x3 [--trace]

Prints one JSON object: the task's report block, its wall and CPU
seconds (interpreter start and imports excluded), the process's peak
RSS, and with --trace the per-layer totals of `tracing.Tracer`; the
traced spans go to .bench_run/spans/<kind>.<name>.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import common


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("kind", choices=["entry", "criterion"])
    ap.add_argument("name")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    common.use_checkout_src()
    from reflexa import corpus

    tracer = None
    if args.trace:
        import tracing

        tracing.install()
        tracer = tracing.TRACER
        tracer.set_context(f"{args.kind}:{args.name}")
    t0, c0 = time.perf_counter(), time.process_time()
    _, block = corpus.run_task((args.kind, args.name))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    out = {
        "task": [args.kind, args.name],
        "block": block,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        common.SPANS.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(common.SPANS / f"{args.kind}.{args.name}.json")
    json.dump(out, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
