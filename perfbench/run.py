"""polygpt benchmark: time to certified answers on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload hypercube-sweep --seed 1 --seconds 25 --trace 0

One process drives the program in-process through its public functions
and ``polygpt.cli.run``, closed loop: the next request is sent when the
previous one returns. With ``--trace 0`` it times batches of the workload
at the workload's worker count and prints the end-to-end metrics; with
``--trace 1`` it times one untraced batch (and one at workers=1 for
pooled workloads), then runs traced batches at workers=1 and prints the
per-layer metrics. The last line of stdout is the result as JSON; a line
before it gives the run context. Spans and a result file with the
context go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Optional

import calibrate
import layers
from spans import Recorder
from workloads import WORKLOADS, Program, Timer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
# Set-up is timed this many times before the batches and again after them:
# the machine's speed drifts over seconds, and a short set-up would
# otherwise see only one such phase.
SETUP_REPEATS = 5


def set_up(workload, seed: int, tmp: str, times: list):
    """Import the program afresh and build the workload's inputs,
    SETUP_REPEATS times; appends each time at reference speed and returns
    the last program."""
    for _ in range(SETUP_REPEATS):
        with Timer(probe=calibrate.sample) as timer:
            P = Program()
            workload.setup(P, seed, tmp)
        times.append(timer.reference_s)
    return P


def repeat(workload, P, workers: int, budget: float, start: float, make_timer):
    """At least one batch; another only while it is expected to end
    within `budget` seconds of `start`."""
    batches, elapsed = [], []
    while True:
        t0 = time.perf_counter()
        timer = make_timer()
        batch = workload.batch(P, workers, timer)
        batch.reference_s, batch.slowdowns = timer.reference_s, timer.slowdowns
        batches.append(batch)
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(elapsed) > budget:
            return batches


def compare_outputs(reference, batch, what: str) -> None:
    """Fail every op whose output differs from the reference batch's."""
    for op in batch.ops:
        if op.key in batch.outputs and batch.outputs[op.key] != reference.outputs.get(op.key):
            op.ok = op.verified = False
            op.note = f"output differs from {what}"


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


END_TO_END = {"run_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
              "verified_fraction": "ratio"}


def measure(workload, P, seconds: int, seed: int, tmp: str, setup_times: list):
    """Untraced run: batches at the workload's worker count, then one
    untimed batch at workers=1 to check that pooled output is unchanged."""
    batches = repeat(workload, P, workload.workers, seconds, time.perf_counter(),
                     lambda: Timer(probe=workload.probe))
    checked = list(batches)
    if workload.workers > 1:
        checked.append(workload.batch(P, 1, Timer()))
    set_up(workload, seed, tmp, setup_times)
    for b in checked[1:]:
        compare_outputs(batches[0], b, "the first batch")
    ops = [op for b in checked for op in b.ops]
    timed_ops = sum(len(b.ops) for b in batches)
    m = {
        "run_s": statistics.median(b.reference_s for b in batches),
        "ops_per_s": timed_ops / sum(b.reference_s for b in batches),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "verified_fraction": sum(op.verified for op in ops) / len(ops),
    }
    detail = {"batch_reference_s": [b.reference_s for b in batches],
              "batch_wall_s": [b.wall_s for b in batches],
              "batch_slowdowns": [b.slowdowns for b in batches],
              "setup_reference_s": setup_times}
    return {k: (m[k], unit) for k, unit in END_TO_END.items()}, ops, detail


def trace(workload, P, seconds: int, name: str, seed: int):
    """Traced run: untraced reference batches, then traced batches at
    workers=1 so that no span is lost inside a forked worker."""
    start = time.perf_counter()
    base = workload.batch(P, workload.workers, Timer())
    one = base
    if workload.workers > 1:
        one = workload.batch(P, 1, Timer())
        compare_outputs(base, one, f"workers={workload.workers}")
    recorder = Recorder()
    layers.install(recorder, P)
    try:
        traced = repeat(workload, P, 1, seconds, start, lambda: Timer(recorder))
    finally:
        recorder.restore()
    for b in traced:
        compare_outputs(base, b, "the untraced batch")
    recorder.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))

    m = layers.layer_metrics(recorder.spans, len(traced))
    attributed = sum(m[k] for k in layers.SELF_TIME) + m["trace.unattributed_s"]
    if abs(attributed - m["trace.run_s"]) > 1e-6 * max(1.0, m["trace.run_s"]):
        raise RuntimeError(f"self times add up to {attributed}, not {m['trace.run_s']}")
    m["trace.overhead_frac"] = m["trace.run_s"] / one.wall_s - 1
    m["pool.workers"] = workload.workers
    m["pool.efficiency"] = (one.pooled_s / (workload.workers * base.pooled_s)
                            if workload.workers > 1 else 1.0)
    gaps = [g for b in traced for g in b.gaps]
    m["clique.greedy_gap"] = statistics.mean(gaps) if gaps else 0.0
    untraced = [base] if one is base else [base, one]
    ops = [op for b in untraced + traced for op in b.ops]
    metrics = {k: (m[k], unit) for k, unit in layers.PER_LAYER.items()}
    detail = {"batch_s": [b.wall_s for b in untraced],
              "traced_batch_s": [b.wall_s for b in traced],
              "trace_overhead_frac": m["trace.overhead_frac"]}
    return metrics, ops, detail


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args, workload, overhead: Optional[float]) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(), "usable_cores": affinity,
        "python": platform.python_version(), "platform": platform.platform(),
        "git_revision": git_revision(),
        "workers": {"timed": workload.workers, "traced": 1,
                    "determinism_check": sorted({1, workload.workers})},
        "trace_overhead_frac": overhead,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run every workload untraced and, with --trace 1, traced; print each
    metric by name with its unit, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for traced in range(args.trace + 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print(f"{name} error_rate {result['failed'] / result['attempted']} ratio")
            for metric, value in result["metrics"].items():
                print(f"{name} {metric} {value['value']} {value['unit']}")
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polygpt", "__init__.py")):
        print(f"perfbench: no polygpt sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setup_times = []
        P = set_up(workload, args.seed, tmp, setup_times)
        if not os.path.abspath(P.cli.__file__).startswith(SRC + os.sep):
            print(f"perfbench: polygpt was imported from {P.cli.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.trace:
            metrics, ops, detail = trace(workload, P, args.seconds, args.workload, args.seed)
        else:
            metrics, ops, detail = measure(workload, P, args.seconds, args.seed, tmp,
                                           setup_times)
    finally:
        shutil.rmtree(tmp)

    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"perfbench: failed op {op.key}: {op.note}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    # The error rate is not a metric: it reads 0 on correct code.
    error_rate = len(failed) / len(ops)
    context = run_context(args, workload, detail.get("trace_overhead_frac"))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"context": context, "error_rate": error_rate, "detail": detail, **result},
                  fh, indent=2, sort_keys=True)
    print("context " + json.dumps(context, sort_keys=True))
    print(f"error_rate {error_rate} ({len(failed)} of {len(ops)} ops failed)")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
