"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Runs one workload's set-up several times (``setup_s`` is their median),
then repeats whole rounds of the workload's input sequence until
``--seconds`` have passed (serving workloads also until 100 requests
have completed), checks the outputs, and prints every metric by name
with its unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps each layer's entry points
with spans, alternates traced and untraced rounds, and reports the
per-layer metrics, a self-time table that adds up to the traced
makespan, and the tracing overhead against the untraced rounds. A run
whose checks fail prints its result with ``"correct": false`` and exits
with status 1. ``--seconds 1`` is the smoke size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SETUP_REPEATS = 5
N_WORKERS = 2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` (``unknown`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of one live process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _host_cpu_ticks() -> tuple[int, int]:
    """(all, steal) jiffies of the host's CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return 0, 0
    return sum(ticks), ticks[7] if len(ticks) > 7 else 0


def _cpu_now(workload) -> float:
    own = time.process_time()
    return own + sum(_proc_cpu_s(proc.pid) for proc in workload.workers)


def _quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def run_record(seed: int, workload_name: str) -> dict:
    import numpy

    cores = len(os.sched_getaffinity(0))
    record = {
        "workload": workload_name,
        "seed": seed,
        "git_commit": _git_commit(),
        "usable_cores": cores,
        "pool_workers": min(N_WORKERS, cores),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if cores < N_WORKERS:
        record["note"] = (f"only {cores} usable core(s): the serving pool runs "
                          f"{record['pool_workers']} worker(s), not {N_WORKERS}")
    return record


def layer_metrics(workload, spans_by_round, setup_spans, tiles, counts,
                  traced_makespans, untraced_makespans, counters, n_rounds,
                  out_rounds) -> tuple[dict, dict]:
    """Per-layer metrics (per traced round; set-up layers per set-up,
    added) and the self-time table."""
    from spans import self_seconds

    n_traced = len(spans_by_round)
    rows: dict[str, float] = {}
    for spans in spans_by_round:
        for name, seconds in self_seconds(spans).items():
            rows[name] = rows.get(name, 0.0) + seconds / n_traced
    setup_rows: dict[str, float] = {}
    for spans in setup_spans:
        for name, seconds in self_seconds(spans).items():
            setup_rows[name] = setup_rows.get(name, 0.0) + seconds / len(setup_spans)
    makespan = statistics.fmean(traced_makespans)
    table = dict(sorted(rows.items()))
    table["residual"] = makespan - sum(rows.values())

    def layer(*names):
        return sum(rows.get(name, 0.0) for name in names)

    def setup_layer(name):
        return setup_rows.get(name, 0.0) + rows.get(name, 0.0)

    def per_round(total):
        return total / n_rounds

    traced_rounds = [out for out, traced in out_rounds if traced]
    hits = [lat for out, traced in out_rounds if not traced for lat in out.hit_latencies]
    replay_s = layer("hwsim.replay")
    events = counts.get("hwsim.events", 0.0) / n_traced
    requests = counters.get("requests", 0)
    metrics = {
        "gaussians.generate_s": (setup_layer("gaussians.generate"), "s"),
        "bvh.build_mono_s": (setup_layer("bvh.build_mono"), "s"),
        "bvh.build_tlas_s": (setup_layer("bvh.build_tlas"), "s"),
        "bvh.flatten_s": (setup_layer("bvh.flatten"), "s"),
        "bvh.mb": (workload.structure_bytes_per_setup() / 2**20, "MB"),
        "rt.record_batched_s": (layer("rt.record_batched"), "s"),
        "rt.record_scalar_s": (layer("rt.record_scalar"), "s"),
        "rt.parent_trace_s": (layer("rt.parent_trace"), "s"),
        "rt.trace_mb": (counts.get("rt.trace_bytes", 0.0) / n_traced / 2**20, "MB"),
        "rt.rays": (traced_rounds[0].rays, "count"),
        "rt.node_visits": (traced_rounds[0].node_visits, "count"),
        "rt.rounds": (traced_rounds[0].trace_rounds, "count"),
        "hwsim.replay_s": (replay_s, "s"),
        "hwsim.events": (events, "count"),
        "hwsim.ns_per_event": (replay_s / events * 1e9 if events else 0.0, "ns"),
        "hwsim.sim_cycles": (traced_rounds[0].sim_cycles, "count"),
        "hwsim.node_fetches": (traced_rounds[0].node_fetches, "count"),
        "hwsim.l1_hits": (traced_rounds[0].l1_hits, "count"),
        "eval.assemble_s": (layer("eval.figure", "eval.run_config"), "s"),
        "serve.overhead_s": (layer("serve.request"), "s"),
        "serve.hit_s": (statistics.median(hits) if hits else 0.0, "s"),
        "serve.requests": (per_round(requests), "count"),
        "serve.frame_hit_ratio": (counters.get("frame_hits", 0) / requests
                                  if requests else 0.0, "ratio"),
        "serve.rendered": (per_round(counters.get("rendered", 0)), "count"),
        "registry.scene_s": (layer("registry.scene"), "s"),
        "registry.structure_s": (layer("registry.structure"), "s"),
        "registry.builds": (per_round(counters.get("structure_builds", 0)), "count"),
        "registry.scene_builds": (per_round(counters.get("scene_builds", 0)), "count"),
        "tiles.render_s": (layer("tiles.render"), "s"),
        "pool.submit_s": (layer("pool.submit"), "s"),
        "pool.worker_busy_s": (sum(w for _, w in tiles) / n_traced, "s"),
        "pool.wait_s": (sum(wall - w for wall, w in tiles) / n_traced, "s"),
        "pool.tasks": (per_round(counters.get("tasks_completed", 0)), "count"),
        "pool.scene_ships": (per_round(counters.get("scene_ships", 0)), "count"),
        "pool.steals": (per_round(counters.get("steals", 0)), "count"),
        "pool.requeues": (per_round(counters.get("requeues", 0)), "count"),
        "pool.failed": (per_round(counters.get("tasks_failed", 0)), "count"),
        "residual_s": (table["residual"], "s"),
        "trace.makespan_s": (makespan, "s"),
        "trace.overhead_pct": (
            (statistics.median(traced_makespans)
             / statistics.median(untraced_makespans) - 1.0) * 100.0, "%"),
    }
    return metrics, table


def instrument(recorder) -> None:
    """Wrap every layer's public entry point with a span."""
    import repro.serve.request as request_mod
    import repro.serve.tiles as tiles_mod
    from repro.eval import harness
    from repro.pool import WorkerPool
    from repro.render import GaussianRayTracer
    from repro.serve import SceneRegistry, TileScheduler

    def engine_layer(tracer, keep_traces):
        if not keep_traces:
            return "rt.parent_trace"
        if tracer.engine_active == "scalar":
            return "rt.record_scalar"
        return "rt.record_batched"

    def render_name(args, kwargs):
        return engine_layer(args[0], kwargs.get(
            "keep_traces", args[3] if len(args) > 3 else True))

    def trace_rays_name(args, kwargs):
        return engine_layer(args[0], kwargs.get(
            "keep_traces", args[5] if len(args) > 5 else True))

    def build_name(args, kwargs):
        proxy = kwargs.get("proxy", args[1] if len(args) > 1 else "")
        return "bvh.build_tlas" if str(proxy).startswith("tlas") else "bvh.build_mono"

    def size_traces(args, kwargs):
        traces = args[0] if args else kwargs["traces"]
        events = nbytes = 0
        for trace in traces:
            for rnd in trace.rounds:
                events += rnd.n_fetches
                nbytes += (len(rnd.stream) + len(rnd.pf)) * 8
        recorder.counts["hwsim.events"] += events
        recorder.counts["rt.trace_bytes"] += nbytes

    recorder.wrap(GaussianRayTracer, "render", render_name)
    recorder.wrap(GaussianRayTracer, "trace_rays", trace_rays_name)
    recorder.wrap(harness, "replay", "hwsim.replay", before=size_traces)
    recorder.wrap(harness, "build_structure_for", build_name)
    recorder.wrap(request_mod, "make_workload", "gaussians.generate")
    recorder.wrap(tiles_mod, "flatten", "bvh.flatten")
    recorder.wrap(SceneRegistry, "scene", "registry.scene")
    recorder.wrap(SceneRegistry, "structure", "registry.structure")
    recorder.wrap(TileScheduler, "render", "tiles.render")
    recorder.wrap_submit_tile(WorkerPool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "serve-frames", "serve-scenes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail(f"no repro package under {src}: run from a checkout of the repository")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    os.makedirs(RESULTS_DIR, exist_ok=True)

    from repro.obs import flight

    # Worker spools and incident bundles stay inside the checkout.
    flight.configure(directory=os.path.join(RESULTS_DIR, "flight"))

    from checks import Reference, check_campaign, check_serving
    from spans import SpanRecorder
    from workloads import WORKLOADS

    origin_ns = time.perf_counter_ns()
    ticks_start = _host_cpu_ticks()
    record = run_record(args.seed, args.workload)
    recorder = SpanRecorder()
    if args.trace:
        instrument(recorder)
    from repro.eval import harness

    build_reference = harness.build_structure_for
    workload = WORKLOADS[args.workload](args.seed, recorder, record["pool_workers"])

    setups, setup_spans = [], []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            gc.collect()
            recorder.enabled = bool(args.trace)
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            recorder.enabled = False
            setup_spans.append(recorder.take()[0])

        counters0 = workload.counters()
        out_rounds, makespans, cpu, traced_spans = [], [], [], []
        tiles, counts = [], {}
        ops = 0
        index = 0
        measure_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and index % 2 == 0
            # Every round starts from a collected heap, so garbage left
            # by the previous round is not collected inside this one.
            gc.collect()
            recorder.enabled = traced
            cpu_before = _cpu_now(workload)
            started = time.perf_counter()
            out = workload.run_round(index)
            makespans.append((time.perf_counter() - started, traced))
            cpu.append(_cpu_now(workload) - cpu_before)
            recorder.enabled = False
            spans, round_tiles, round_counts = recorder.take()
            if traced:
                traced_spans.append(spans)
                tiles += round_tiles
                for name, value in round_counts.items():
                    counts[name] = counts.get(name, 0.0) + value
            out_rounds.append((out, traced))
            ops += len(out.latencies)
            index += 1
            enough = (time.perf_counter() - measure_start >= args.seconds
                      and ops >= workload.min_ops)
            if enough and (not args.trace or index >= 2):
                break
        counters1 = workload.counters()
        parent_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        worker_peak_mb = max([_proc_peak_mb(p.pid) for p in workload.workers] or [0.0])
        record["peak_rss_parent_worker_mb"] = [parent_peak_mb, worker_peak_mb]

        reference = Reference(build_reference)
        recorder.enabled = False
        if args.workload == "campaign":
            failures = check_campaign(workload, reference, args.seed)
            record["fig13_speedups"] = workload.fig13_speedups()
        else:
            failures = check_serving(workload, reference, args.seed)
    finally:
        workload.close()
        recorder.unwrap()

    counters = {name: counters1[name] - counters0.get(name, 0) for name in counters1}
    record["loadavg_1m_end"] = os.getloadavg()[0]
    ticks_end = _host_cpu_ticks()
    elapsed_ticks = ticks_end[0] - ticks_start[0]
    record["cpu_steal_share"] = ((ticks_end[1] - ticks_start[1]) / elapsed_ticks
                                 if elapsed_ticks else 0.0)
    record["rounds"] = len(out_rounds)
    record["round_makespans_s"] = [m for m, _ in makespans]
    record["ops_per_round"] = workload.ops_per_round()
    record["attempted"] = ops
    record["failed"] = 0
    record["check_failures"] = failures

    untraced = [m for m, t in makespans if not t] or [m for m, _ in makespans]
    if args.trace:
        metrics, table = layer_metrics(
            workload, traced_spans, setup_spans, tiles, counts,
            [m for m, t in makespans if t], untraced, counters, len(out_rounds),
            out_rounds)
        record["self_time_table_s"] = table
        trace_path = os.path.join(
            RESULTS_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        recorder.write_chrome_trace(trace_path, origin_ns)
        record["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    else:
        latencies = [lat for out, _ in out_rounds for lat in out.latencies]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "makespan_s": (statistics.median(untraced), "s"),
            "throughput_rps": (ops / sum(m for m, _ in makespans), "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_p90_s": (_quantile(latencies, 90), "s"),
            "cpu_s": (statistics.median(cpu), "s"),
            "peak_rss_mb": (parent_peak_mb + worker_peak_mb, "MB"),
        }
        record["latency_samples"] = len(latencies)
        by_kind: dict = {}
        for served in getattr(workload, "served", []):
            for item in served:
                by_kind.setdefault(item.kind, []).append(item.latency_s)
        record["latency_by_kind_s"] = {
            kind: {"n": len(v), "min": min(v), "median": statistics.median(v),
                   "max": max(v)} for kind, v in sorted(by_kind.items())}

    metrics = {name: {"value": float(value), "unit": unit}
               for name, (value, unit) in metrics.items()}
    result = {"correct": not failures, "attempted": ops, "failed": 0,
              "metrics": metrics}
    record["result"] = result
    path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)

    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"},
                     default=str))
    for name, item in metrics.items():
        print(f"  {name:<24} {item['value']:.6g} {item['unit']}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
