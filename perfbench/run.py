"""Seeded closed-loop benchmark of the indexcoding CLI.

    python3 perfbench/run.py --workload solve-bulk --seed 1 --seconds 30 --trace 0

One client runs requests back to back in this process, on one thread, for
``--seconds`` of wall time.  Set-up draws the workload's instances with
``random_instance`` from ``--seed`` and writes them to files, so the program
only ever receives files.  Every op's output is checked.  Every reported
time is CPU time of this thread (``tracing.clock``); end-to-end times are
scaled to the reference speed (``reference``), and the report lines also
give the raw CPU and wall times.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics.  With ``--trace 1`` each request is also replayed through the
public stage functions, once with spans and once without, and the last line
carries the per-layer metrics instead; the spans go to ``.perfbench/``.
Lines before the last one are a readable report, including the op-kind
latencies and a SHA-256 of the stdout of the first requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from reference import RefTimer, normalise, reference_sample
from tracing import Tracer, clock, percentile, self_time_by_name, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# spans that group stage calls rather than wrap one
GROUP_SPANS = ("request", "cli.solve", "cli.verify", "cli.gap")

STAGE_METRICS = (
    "instance.parse",
    "instance.split",
    "instance.dedup",
    "graph.build",
    "cover.exact",
    "cover.greedy",
    "scheme.parse",
    "scheme.from_cover",
    "scheme.verify_symbolic",
    "scheme.verify_random",
    "scheme.assign",
    "oracle.mais",
    "oracle.linear_rate",
)
COUNT_METRICS = (
    "instance.virtuals",
    "instance.dedup_removed",
    "graph.vertices",
    "graph.edges",
    "graph.components",
    "graph.largest_component",
    "cover.exact_calls",
    "cover.greedy_fallbacks",
    "cover.greedy_excess",
    "scheme.decodes",
)


def load_program() -> float:
    """Put the checkout's ``src`` first on the path; return the import time."""
    src = ROOT / "src"
    if not (src / "indexcoding" / "__init__.py").is_file():
        sys.exit(f"error: no indexcoding package under {src}")
    sys.path.insert(0, str(src))
    start = clock()
    import indexcoding.cli  # noqa: F401

    elapsed = clock() - start
    import indexcoding

    if Path(indexcoding.__file__).resolve().parent != (src / "indexcoding").resolve():
        sys.exit(f"error: imported indexcoding from {indexcoding.__file__}, not {src}")
    return elapsed


def set_up(workload, seed: int, workdir: Path, tracer, timer: RefTimer):
    """Draw and write the instance pool, then run one warm-up request.

    Every step's CPU time goes to ``timer``; its reference loops are not timed.
    """
    from indexcoding import random_instance, serialize_instance
    from workloads import Files

    rng = random.Random(f"{workload.name}:{seed}")
    scheme = str(workdir / "scheme.json")
    files = []
    for i in range(workload.pool_size):
        start = clock()
        n, m, p, demand = workload.params(i, rng)
        inst = tracer.call(
            "generate.instance", random_instance, n, m, p, demand, seed=rng.getrandbits(32)
        )
        path = workdir / f"i{i:05d}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        files.append(Files(str(path), scheme))
        timer.add(clock() - start)
    start = clock()
    warm = workload.run(files[0])
    timer.add(clock() - start)
    if warm.problems:
        sys.exit(f"error: warm-up request failed: {warm.problems[0][1]}")
    return files


class Tally:
    """Per-op and per-request results of a loop, without keeping stdout."""

    def __init__(self, workload, hash_requests: int):
        self.hash_requests = hash_requests
        self.op_seconds: dict[str, list[float]] = {k: [] for k in workload.op_kinds}
        self.op_wall_seconds: dict[str, list[float]] = {k: [] for k in workload.op_kinds}
        self.request_seconds: list[float] = []
        self.request_wall_seconds: list[float] = []
        self.request_ops: list[list[tuple[str, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rate_total = 0
        self.stdout_hash = hashlib.sha256()
        self._first_output: dict[int, str] = {}

    def add(self, index: int, pool_index: int, req) -> None:
        self.attempted += len(req.ops)
        bad = {i for i, _ in req.problems}
        output = hashlib.sha256("".join(op.stdout for op in req.ops).encode()).hexdigest()
        first = self._first_output.setdefault(pool_index, output)
        if first != output:
            bad.add(0)
            self.problems.append(f"request {index}: stdout differs from an earlier run")
        self.failed += len(bad)
        self.problems.extend(f"request {index}: {msg}" for _, msg in req.problems)
        for op in req.ops:
            self.op_seconds[op.kind].append(op.seconds)
            self.op_wall_seconds[op.kind].append(op.wall_seconds)
        self.request_seconds.append(req.seconds)
        self.request_wall_seconds.append(sum(op.wall_seconds for op in req.ops))
        self.request_ops.append([(op.kind, op.seconds) for op in req.ops])
        if index < self.hash_requests:
            self.rate_total += req.rate or 0
            for op in req.ops:
                self.stdout_hash.update(op.stdout.encode())


def timed_loop(files, seconds: float, min_requests: int, on_request) -> int:
    """Closed loop over the pool until the deadline and ``min_requests`` are met."""
    deadline = perf_counter() + seconds
    index = 0
    while index < min_requests or perf_counter() < deadline:
        pool_index = index % len(files)
        on_request(index, pool_index, files[pool_index])
        index += 1
    return index


def end_to_end(workload, seed: int, seconds: float, import_s: float,
               setup_runs: list[float], files) -> dict:
    tally = Tally(workload, workload.rate_prefix)
    refs: list[tuple[float, int]] = []

    def on_request(index, pool_index, f):
        req = workload.run(f)
        refs.append(reference_sample(req.seconds))
        tally.add(index, pool_index, req)

    timed_loop(files, seconds, workload.rate_prefix, on_request)
    reqs = tally.request_seconds
    norm = normalise(reqs, refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "request_ref_s.p50": (percentile(norm, 50), "s"),
        "request_ref_s.p90": (percentile(norm, 90), "s"),
        "instances_per_ref_s": (len(norm) / sum(norm), "1/s"),
        "rate_total": (tally.rate_total, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_runs), "s"),
    }

    print(f"# {workload.name} seed={seed}: {len(reqs)} requests, "
          f"{tally.attempted} ops in {sum(reqs):.2f} s of op CPU time")
    if len(reqs) < 100:
        print("# note: fewer than 100 requests, so request_ref_s.p90 has fewer than 10 beyond it")
    # each op is scaled by the factor of the request it belongs to
    scale = [n / r for n, r in zip(norm, reqs)]
    for kind in workload.op_kinds:
        values = [s * k for ops, k in zip(tally.request_ops, scale) for o, s in ops if o == kind]
        tail = tail_percentile(len(values))
        print(f"{kind}_s.p50 = {percentile(values, 50):.6f} s  (n={len(values)})")
        if tail is not None:
            print(f"{kind}_s.p{tail} = {percentile(values, tail):.6f} s  (n={len(values)})")
        cpu, wall = tally.op_seconds[kind], tally.op_wall_seconds[kind]
        print(f"# {kind}: raw CPU p50 {percentile(cpu, 50):.6f} s, "
              f"wall p50 {percentile(wall, 50):.6f} s, wall total {sum(wall):.2f} s")
    print(f"# requests: raw CPU p50 {percentile(reqs, 50):.6f} s, "
          f"p90 {percentile(reqs, 90):.6f} s")
    print(f"instances_per_s = {len(reqs) / sum(tally.request_wall_seconds):.6f} 1/s  (wall)")
    ref_s, ref_loops = sum(s for s, _ in refs), sum(n for _, n in refs)
    print(f"# reference loop: {ref_loops} loops, {ref_s / ref_loops:.3e} s CPU each")
    failed_ratio = tally.failed / tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6f} {unit}")
    print(f"failed_ratio = {failed_ratio:.6f} ratio")
    print(f"# setup: import {import_s:.4f} s CPU, repeats "
          f"{[round(s, 4) for s in setup_runs]} s at the reference speed")
    print(f"# stdout sha256 of the first {workload.rate_prefix} requests: "
          f"{tally.stdout_hash.hexdigest()}")
    for msg in tally.problems[:10]:
        print(f"# FAILED {msg}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(workload, seed: int, seconds: float, setup_tracer, files) -> dict:
    tracer = Tracer()
    tally = Tally(workload, 0)
    replay_s = {True: 0.0, False: 0.0}
    counts: dict[str, float] = {}

    def on_request(index, pool_index, f):
        req = workload.run(f)
        tally.add(index, pool_index, req)
        if req.problems:
            return
        # alternate which replay runs first, so neither always finds warm caches
        for enabled in (index % 2 == 1, index % 2 == 0):
            tr = tracer if enabled else Tracer(enabled=False)
            tr.request = index
            seen: dict = {}
            start = clock()
            with tr.span("request"):
                answers = workload.replay(tr, f, seen)
            replay_s[enabled] += clock() - start
        if answers != workload.cli_answers(req):
            tally.failed += 1
            tally.problems.append(f"request {index}: replay {answers} differs from the CLI")
        for key, value in workload.counts(seen).items():
            counts[key] = counts.get(key, 0) + value

    requests = timed_loop(files, seconds, 1, on_request)
    spans = tracer.spans
    self_s = self_time_by_name(spans)
    stage_total = sum(
        s.end - s.start for s in spans if s.name not in GROUP_SPANS
    )
    gen = [s for s in setup_tracer.spans if s.name == "generate.instance"]

    metrics: dict[str, tuple[float, str]] = {}
    for name in STAGE_METRICS:
        metrics[f"{name}_s"] = (self_s.get(name, 0.0) / requests, "s/req")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0) / requests, "1/req")
    audited = counts.get("oracle.audited", 0)
    metrics["oracle.search_needed_ratio"] = (
        counts.get("oracle.search_needed", 0) / audited if audited else 0.0, "ratio")
    metrics["oracle.counterexamples"] = (counts.get("oracle.counterexamples", 0), "count")
    metrics["cli.overhead_s"] = (
        (sum(tally.request_seconds) - stage_total) / requests, "s/req")
    metrics["generate.instance_s"] = (
        sum(s.end - s.start for s in gen) / len(gen), "s/instance")
    metrics["trace.overhead_ratio"] = (replay_s[True] / replay_s[False], "ratio")
    metrics["trace.requests"] = (requests, "count")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(span_file)
    print(f"# {workload.name} seed={seed}: traced {requests} requests, "
          f"{len(spans)} spans written to {span_file}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6f} {unit}")
    for msg in tally.problems[:10]:
        print(f"# FAILED {msg}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("solve-bulk", "solve-exact", "audit-gap"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Set up SETUP_REPEATS times, then run the timed or the traced loop."""
    workdir = OUT_DIR / f"{workload.name}-seed{seed}-work"
    setup_tracer = Tracer(enabled=trace)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_runs = []  # import and set-up, in CPU seconds at the reference speed
        # Every set-up writes the same files.  Creating 2500 files cost from
        # 0.04 to 1.5 s of kernel time on this machine's file system, as it had
        # been busy in the seconds before; overwriting them cost about 0.1 s.
        # So the median set-up is one that overwrites.
        for _ in range(SETUP_REPEATS):
            timer = RefTimer()
            timer.add(import_s)
            files = set_up(workload, seed, workdir, setup_tracer, timer)
            setup_runs.append(timer.ref_seconds())
        if trace:
            return traced(workload, seed, seconds, setup_tracer, files)
        return end_to_end(workload, seed, seconds, import_s, setup_runs, files)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = load_program()
    from workloads import WORKLOADS

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
