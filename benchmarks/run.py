"""reflexa benchmark: the acceptance corpus as a batch, and a stream of queries.

    python3 benchmarks/run.py --workload corpus|queries --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py ... --smoke      # a few queries, a two-task corpus
    python3 benchmarks/run.py --self-check     # 1-worker vs nproc-worker corpus bytes

Workloads (both closed loops with one client, run from the checkout's `src/`):

- corpus: `python -m reflexa.cli corpus run --workers <nproc>` as one
  subprocess per unit.  Its report is compared block by block with
  golden/corpus_report.json.  One "query" of this workload is one whole
  corpus run, so its latency percentiles are batch latencies.
- queries: one pass of `queries.stream(seed)`, 504 workspace documents,
  each through `reflexa.cli.main(["-w", doc, "run"])` in this process.
  Every answer is compared with golden/queries.json.

A run repeats whole units (a corpus run or a pass) while the next one is
expected to end within --seconds; it always runs at least one.  Times per
unit are medians over the run's units.  `setup_s` is the median of several
fresh processes that import reflexa and build the workload's inputs.

With --trace 1 the run measures each layer instead: every corpus task
runs in its own process, once untraced and once with the wrappers of
`tracing` installed; the query pass runs once untraced and once traced.
Both must give the golden answers.  The untraced runs give the per-task
times, the traced ones the per-layer counts and self times, and their
difference the tracing overhead.  The corpus tasks run nproc at a time,
not one at a time: both passes one after the other would not end within
the run's time limit.  So each task time is taken beside another task,
as in the `corpus run` pool, and can read higher than a task run alone.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Failing operations (an
answer that differs from its golden, an exception, an error payload) are
counted in `failed`; `error_rate` is failed / attempted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

import common
import queries
import tracing

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
)
SETUP_REPEATS = 9
DOCS = common.WORK / "docs"
DEADLINE_S = 175.0  # the whole run, so that it ends within 180 s
SMOKE_TASKS = (("entry", "kA2"), ("criterion", "kA2_fixture"))
SMOKE_QUERIES = 6
# longest corpus tasks first, so the task pool's tail is short
HEAVY_TASKS = (
    ("entry", "auslander_x3"),
    ("criterion", "serre_roundtrip"),
    ("criterion", "ab_exactness"),
    ("entry", "square_zero"),
)


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        left = self.end - time.perf_counter()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return left


DEADLINE = Deadline(DEADLINE_S)


class Terminated(BaseException):
    """Raised on SIGTERM; no handler of a query's failures catches it."""


def _terminate(*_):
    raise Terminated


def log(msg):
    print(msg, flush=True)


def task_name(task):
    return f"corpus.task.{task[0]}.{task[1]}.s"


def per_layer_metrics(totals, task_times, overhead_s):
    """Every per-layer metric: the traced layers, the corpus tasks, the overhead."""
    metrics = tracing.layer_metrics(totals)
    for task in common.corpus_tasks():
        metrics[task_name(task)] = {"value": task_times.get(task, 0.0), "unit": "s"}
    total = sum(task_times.values())
    share = max(task_times.values()) / total if total else 0.0
    metrics["corpus.critical_path_share"] = {"value": share, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


# -- child processes ----------------------------------------------------------------


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(cmd):
    """Run `cmd` in its own process group; kill the whole group on the deadline."""
    proc = subprocess.Popen(
        cmd,
        cwd=common.ROOT,
        env=common.child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=DEADLINE.left())
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise TimeoutError(f"child exceeded the run's time limit: {' '.join(cmd)}")
    except BaseException:
        _kill_group(proc)
        raise
    return proc.returncode, out, err


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(workload, seed, repeats):
    """Median set-up time of fresh processes (see setup_probe.py)."""
    times = []
    for _ in range(repeats):
        cmd = [sys.executable, str(common.BENCH / "setup_probe.py"), workload, str(seed), str(DOCS)]
        code, out, err = run_child(cmd)
        if code != 0:
            raise common.SetupError(f"set-up failed: {err.decode(errors='replace')}")
        times.append(float(out))
    return statistics.median(times)


def run_tasks(jobs):
    """Run (task, traced) jobs, each in its own process, nproc at a time.

    The longest tasks start first, so the pool's tail is short.  Returns
    {job: the child's output, or None if it failed}.
    """
    rank = {t: i for i, t in enumerate(HEAVY_TASKS)}
    order = sorted(jobs, key=lambda job: (rank.get(job[0], len(rank)), not job[1]))
    running = {}  # job -> (process, output chunks, reader thread)
    results = {}
    try:
        while order or running:
            while order and len(running) < common.nproc():
                job = order.pop(0)
                task, traced = job
                cmd = [sys.executable, str(common.BENCH / "corpus_task.py"), *task]
                if traced:
                    cmd.append("--trace")
                proc = subprocess.Popen(
                    cmd, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
                    start_new_session=True,
                )
                chunks = []
                reader = threading.Thread(target=lambda p=proc, c=chunks: c.append(p.stdout.read()))
                reader.start()
                running[job] = (proc, chunks, reader)
            done = [j for j, (p, _, _) in running.items() if p.poll() is not None]
            if not done:
                DEADLINE.left()
                time.sleep(0.05)
                continue
            for job in done:
                proc, chunks, reader = running.pop(job)
                reader.join()
                proc.stdout.close()
                results[job] = json.loads(chunks[0]) if proc.returncode == 0 else None
    finally:
        for proc, _, reader in running.values():
            _kill_group(proc)
            reader.join()
            proc.stdout.close()
    return results


# -- corpus -------------------------------------------------------------------------


def load_corpus_golden():
    raw = common.CORPUS_GOLDEN.read_bytes()
    exit_code = json.loads((common.GOLDEN / "corpus_exit.json").read_text())["exit"]
    blocks = {k: common.canonical(v) for k, v in common.report_blocks(json.loads(raw)).items()}
    return raw, exit_code, blocks


def corpus_cli_unit(workers, golden):
    """One `reflexa corpus run`: (wall, cpu, failed blocks, report bytes)."""
    raw, exit_code, blocks = golden
    cmd = [sys.executable, "-m", "reflexa.cli", "corpus", "run", "--workers", str(workers)]
    c0, t0 = children_cpu(), time.perf_counter()
    code, out, err = run_child(cmd)
    wall, cpu = time.perf_counter() - t0, children_cpu() - c0
    if out == raw and code == exit_code:
        return wall, cpu, 0, out
    log(f"corpus run differs from the golden (exit {code}): {err.decode(errors='replace')[-2000:]}")
    try:
        got = {k: common.canonical(v) for k, v in common.report_blocks(json.loads(out)).items()}
    except (ValueError, KeyError, TypeError):
        return wall, cpu, len(blocks), out
    differing = sum(1 for k, v in blocks.items() if got.get(k) != v)
    return wall, cpu, max(1, differing), out


def task_failures(results, tasks, golden_blocks):
    failed = 0
    for task in tasks:
        res = results.get(task)
        if res is None or common.canonical(res["block"]) != golden_blocks[task]:
            log(f"task {task[0]}:{task[1]} differs from the golden")
            failed += 1
    return failed


def corpus_units(seconds, golden, smoke):
    """Untraced corpus units: per unit (wall, cpu, failed, attempted)."""
    units = []
    t0 = time.perf_counter()
    while True:
        if smoke:
            c0, w0 = children_cpu(), time.perf_counter()
            results = run_tasks([(t, False) for t in SMOKE_TASKS])
            wall, cpu = time.perf_counter() - w0, children_cpu() - c0
            results = {t: results[(t, False)] for t in SMOKE_TASKS}
            failed, attempted = task_failures(results, SMOKE_TASKS, golden[2]), len(SMOKE_TASKS)
        else:
            wall, cpu, failed, _ = corpus_cli_unit(common.nproc(), golden)
            attempted = len(common.corpus_tasks())
        units.append((wall, cpu, failed, attempted))
        log(f"corpus unit {len(units)}: wall {wall:.3f} s, cpu {cpu:.3f} s, failed {failed}/{attempted}")
        if time.perf_counter() - t0 + wall > seconds:
            return units


def corpus_traced(golden, smoke):
    """Every task once untraced and once traced, all in one task pool.

    The overhead is the traced minus the untraced task time, summed.
    """
    tasks = list(SMOKE_TASKS) if smoke else common.corpus_tasks()
    results = run_tasks([(t, traced) for t in tasks for traced in (True, False)])
    plain = {t: results[(t, False)] for t in tasks}
    traced = {t: results[(t, True)] for t in tasks}
    failed = task_failures(plain, tasks, golden[2]) + task_failures(traced, tasks, golden[2])
    totals = tracing.merge_totals(r["layers"] for r in traced.values() if r is not None)
    times = {t: r["wall_s"] for t, r in plain.items() if r is not None}
    overhead = 0.0
    for task, wall in times.items():
        if traced[task] is not None:
            log(f"  {task[0]}:{task[1]} {wall:.3f} s (traced {traced[task]['wall_s']:.3f} s)")
            overhead += traced[task]["wall_s"] - wall
    return per_layer_metrics(totals, times, overhead), 2 * len(tasks), failed


# -- queries ------------------------------------------------------------------------


def query_pass(cli, docs, golden, before=None):
    """One closed-loop pass: (latencies, wall, cpu, failed, answers).

    `before(i, query)` runs ahead of each query, outside its latency.  So
    does a garbage collection: each query starts from the same collector
    state, whatever ran before it, and pays only for its own garbage.
    """
    lat, answers = [], []
    gc.collect()
    gc.freeze()  # long-lived objects of the benchmark are not rescanned per query
    c0, t0 = time.process_time(), time.perf_counter()
    for i, (q, path) in enumerate(docs):
        if before is not None:
            before(i, q)
        gc.collect()
        q0 = time.perf_counter()
        try:
            answers.append(common.run_query(cli, path))
        except (Exception, SystemExit) as e:  # a crash is a failed query, not a crashed run
            answers.append((None, f"{type(e).__name__}: {e}"))
        lat.append(time.perf_counter() - q0)
        DEADLINE.left()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    failed = 0
    for (q, _), (code, text) in zip(docs, answers):
        if (
            code is None
            or common.has_error_payload(text)
            or common.answer_digest(code, text) != golden.get(q.key)
        ):
            log(f"query {q.key} differs from the golden: {text[:300]}")
            failed += 1
    return lat, wall, cpu, failed, answers


def query_units(cli, docs, seconds, golden):
    units, lat = [], []
    t0 = time.perf_counter()
    while True:
        ql, wall, cpu, failed, _ = query_pass(cli, docs, golden)
        lat += ql
        units.append((wall, cpu, failed, len(docs)))
        log(f"query pass {len(units)}: {len(docs)} queries, wall {wall:.3f} s, cpu {cpu:.3f} s, failed {failed}")
        if time.perf_counter() - t0 + wall > seconds:
            return units, lat


def queries_traced(cli, docs, golden):
    _, plain_wall, _, failed_plain, plain_answers = query_pass(cli, docs, golden)
    log(f"untraced pass: {plain_wall:.3f} s")
    tracing.install()
    tracer = tracing.TRACER
    _, traced_wall, _, failed_traced, traced_answers = query_pass(
        cli, docs, golden, before=lambda i, q: tracer.set_context(f"query:{i}:{q.key}")
    )
    log(f"traced pass: {traced_wall:.3f} s")
    common.SPANS.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(common.SPANS / "queries.json")
    mismatch = sum(1 for a, b in zip(plain_answers, traced_answers) if a != b)
    metrics = per_layer_metrics(tracer.layer_totals(), {}, traced_wall - plain_wall)
    return metrics, 2 * len(docs), failed_plain + failed_traced + mismatch


# -- entry points -------------------------------------------------------------------


def summarize(units, lat, setup_s):
    """End-to-end metrics from a run's units and its operation latencies (s)."""
    walls = [u[0] for u in units]
    cpus = [u[1] for u in units]
    if len(lat) >= 2:
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        p50, p90 = statistics.median(lat), deciles[8]
    else:
        p50 = p90 = lat[0]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
        "query_p50_ms": 1000.0 * p50,
        "query_p90_ms": 1000.0 * p90,
        "queries_per_s": len(lat) / sum(walls),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_workload(args):
    smoke = args.smoke
    if not args.trace:  # the traced run reports no set-up time
        repeats = 2 if smoke else SETUP_REPEATS
        setup_s = setup_seconds(args.workload, args.seed, repeats)
        log(f"setup: {setup_s:.4f} s (median of {repeats} fresh processes)")
    if args.workload == "corpus":
        golden = load_corpus_golden()
        if args.trace:
            metrics, attempted, failed = corpus_traced(golden, smoke)
        else:
            units = corpus_units(args.seconds, golden, smoke)
            metrics = summarize(units, [u[0] for u in units], setup_s)
            attempted, failed = sum(u[3] for u in units), sum(u[2] for u in units)
    else:
        from reflexa import cli

        golden = json.loads(common.QUERIES_GOLDEN.read_text())
        stream = queries.stream(args.seed)
        if smoke:
            stream = stream[:SMOKE_QUERIES]
        docs = queries.write_documents(stream, DOCS)
        if args.trace:
            metrics, attempted, failed = queries_traced(cli, docs, golden)
        else:
            units, lat = query_units(cli, docs, args.seconds, golden)
            metrics = summarize(units, lat, setup_s)
            attempted, failed = sum(u[3] for u in units), sum(u[2] for u in units)
    for name, m in metrics.items():
        log(f"{name}: {m['value']:.6g} {m['unit']}")
    log(f"error_rate: {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_check():
    """Corpus reports at 1 worker and at nproc workers equal each other and the golden."""
    golden = load_corpus_golden()
    reports = {}
    failed = 0
    metrics = {}
    for workers in sorted({1, common.nproc()}):
        wall, cpu, bad, out = corpus_cli_unit(workers, golden)
        reports[workers] = out
        failed += bad
        log(f"corpus run at {workers} worker(s): wall {wall:.3f} s, cpu {cpu:.3f} s, failed blocks {bad}")
        metrics[f"wall_s.workers{workers}"] = {"value": wall, "unit": "s"}
    identical = len(set(reports.values())) == 1
    log(f"1-worker and {common.nproc()}-worker reports byte-identical: {identical}")
    failed += not identical
    attempted = 2 * len(common.corpus_tasks())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["corpus", "queries"])
    ap.add_argument("--seed", type=int, default=queries.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="a few queries and a two-task corpus")
    ap.add_argument("--self-check", action="store_true", help="compare 1- and nproc-worker corpus runs")
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    os.environ.pop("REFLEXA_BUDGET", None)
    # a terminated run unwinds, so that it stops the children it started
    signal.signal(signal.SIGTERM, _terminate)
    global DEADLINE
    if args.self_check:
        DEADLINE = Deadline(600.0)  # two full corpus runs, one of them on one worker
    try:
        common.use_checkout_src()
        result = self_check() if args.self_check else run_workload(args)
    except (common.SetupError, TimeoutError, OSError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    except Terminated:
        print("benchmark terminated", file=sys.stderr)
        return 143
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
