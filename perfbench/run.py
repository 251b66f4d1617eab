"""pnta benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload check-mix --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  The
command starts a fresh interpreter for the workload, so peak memory and
the module-level region caches belong to this run, and a few more
interpreters that only set up, so set-up time is a median.  The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  The line before it
starts with `meta ` and records how the numbers were made.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("check-mix", "zone-grid", "witness-scale")
# Interpreters that only set up, before and after the workload's; setup_s
# is the median of their set-up times and the workload's.
SETUP_PROBES = 2
# Every run must end within 180 s.
RUN_LIMIT_S = 170.0


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout at root, read without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "pnta").glob("*.py")))


def percentile(values: list[float], p: float) -> float:
    """The p-quantile, 0 < p < 1, by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=1000, method="exclusive")[round(p * 1000) - 1]


# ---------------------------------------------------------------------------
# Worker: one fresh interpreter runs the workload


def measure(wl, ops, seconds: float, seed: int, tracer) -> dict:
    """Closed loop, one caller: whole passes over the inputs until `seconds` pass.

    Each pass runs every operation once, in an order fixed by the seed, and
    each operation starts with empty region caches, as one `pnta check`
    process does.  In a traced run passes alternate untraced/traced, ending
    on a traced one.
    """
    from workloads import clear_caches, wrong_count

    rng = random.Random(seed)
    # Alternate the CPU between passes: on a shared host one CPU can run
    # slower than the other for minutes, and each input's best time then
    # comes from the faster one.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    passes: list[list[float]] = []
    decided = wrong = failed = 0
    undecided: Counter = Counter()
    replay_s = 0.0
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < seconds
           or (tracer is not None and len(passes) % 2 == 1)):
        traced = tracer is not None and len(passes) % 2 == 1
        if len(cpus) > 1:  # both passes of an untraced/traced pair share a CPU
            k = len(passes) // 2 if tracer is not None else len(passes)
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        order = list(range(len(ops)))
        rng.shuffle(order)
        times = [0.0] * len(ops)
        if traced:
            tracer.install()
        for i in order:
            op = ops[i]
            clear_caches()
            if traced:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                raw = wl.run(op)
                err = None
            except Exception as exc:  # a budget stop or a crash: undecided, still timed
                err = type(exc).__name__
            times[i] = time.perf_counter() - t0
            if traced:
                tracer.end_op()
            if err is not None:
                undecided[err] += 1
                continue
            r0 = time.perf_counter()
            out = wl.read(op, raw)
            n_wrong = wrong_count(op, out, wl.needs_word)
            replay_s += (time.perf_counter() - r0) if traced else 0.0
            if out.decided:
                decided += 1
            else:
                undecided["no verdict"] += 1
            if n_wrong:
                wrong += n_wrong
                failed += 1
                print(f"wrong result on {op.key}: {out}", file=sys.stderr)
        if traced:
            tracer.uninstall()
        passes.append(times)
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus)
    clear_caches()
    return {"passes": passes, "decided": decided, "wrong": wrong, "failed": failed,
            "undecided": dict(undecided), "replay_s": replay_s}


def best_times(passes: list[list[float]]) -> list[float]:
    """Each input's fastest time over the passes, in seconds.

    The host is shared and its speed drifts by tens of percent over
    seconds; the best of passes spread over the run filters that drift.
    """
    return [min(ts) for ts in zip(*passes)]


def end_to_end(wl, passes: list[list[float]]) -> dict:
    best = best_times(passes)
    ms = [t * 1e3 for t in best]
    return {
        "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms.tail": {"value": percentile(ms, wl.tail), "unit": "ms"},
        "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
    }


def trace_overhead(passes: list[list[float]]) -> float:
    """Traced / untraced time of one pass, each input at its best."""
    return sum(best_times(passes[1::2])) / sum(best_times(passes[0::2]))


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload]
    answers = workloads.load_answers()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = wl.build(args.seed, args.smoke, workdir, answers)
        setup_done = time.monotonic()
        if args.setup_only:
            print(repr(setup_done))
            return 0
        tracer = Tracer() if args.trace else None
        res = measure(wl, ops, args.seconds, args.seed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = res["passes"]
    attempted = sum(len(p) for p in passes)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "budget_nodes": wl.budget,
        "inputs": len(ops),
        "passes": len(passes),
        "ops": attempted,
        "tail_percentile": wl.tail * 100,
        "tail_samples_beyond": round(len(ops) * (1 - wl.tail), 1),
        "wrong_results": res["wrong"],
        "undecided": res["undecided"],
        "answer_sources": dict(Counter(op.known.source for op in ops)),
        "src_pnta_lines": src_lines(),
    }
    if tracer is None:
        metrics = end_to_end(wl, passes)
        metrics["decided_ratio"] = {"value": res["decided"] / attempted, "unit": "ratio"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    else:
        traced_ops = sum(len(p) for p in passes[1::2])
        metrics = tracer.layer_metrics(traced_ops, res["replay_s"], trace_overhead(passes))
        meta["absent_layers"] = tracer.absent_layers()
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        meta["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps({"setup_done": setup_done, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics, "meta": meta}))
    return 0


# ---------------------------------------------------------------------------
# Launcher: set-up samples, then the workload interpreter


def launcher(args) -> int:
    if not (SRC / "pnta" / "__init__.py").is_file():
        print(f"error: no pnta package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    child = [sys.executable, str(Path(__file__).resolve()), "--worker",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        child.append("--smoke")

    def spawn(extra: list[str]) -> tuple[float, str]:
        t0 = time.monotonic()
        proc = subprocess.run(child + extra, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"workload interpreter exited with {proc.returncode}")
        return t0, proc.stdout.splitlines()[-1]

    def setup_probes() -> list[float]:
        samples = []
        for _ in range(SETUP_PROBES):
            t0, line = spawn(["--setup-only"])
            samples.append(float(line) - t0)
        return samples

    try:
        setups = setup_probes()
        t0, line = spawn([])
        res = json.loads(line)
        setups.append(res["setup_done"] - t0)
        setups += setup_probes()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    meta = res["meta"]
    meta["setup_samples_s"] = setups
    correct = meta["wrong_results"] == 0
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few inputs per workload, for the benchmark's own tests")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return worker(args) if args.worker else launcher(args)


if __name__ == "__main__":
    sys.exit(main())
