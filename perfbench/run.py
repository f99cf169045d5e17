"""rulkit benchmark: one workload per process, closed loop, one BLAS thread.

Run from the repository root:

    python3 perfbench/run.py --workload lstm_train --seed 1 --seconds 30 --trace 0

--trace 0 repeats the workload's cycle for --seconds and reports the
end-to-end metrics. --trace 1 alternates untraced and traced passes (one
set-up and one cycle each) until --seconds have passed and reports the
per-module metrics of the traced passes. --workload all runs every workload
in its own process. --smoke uses a 6-engine corpus and finishes in seconds.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, so that the numbers are about rulkit and
# not about how two BLAS threads share the machine's cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("lstm_train", "mlp_pipeline", "verify")


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_meta(corpus_seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "corpus_seed": corpus_seed,
        "git_commit": git_commit(ROOT),
    }


def measure_traced(run, seconds: float, results_dir: Path):
    """Untraced and traced passes in turn; per-module metrics of the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    overheads, layers, calls_seen = [], [], []
    start = time.perf_counter()
    run.one_pass()  # warm-up: the first pass in a process pays one-off costs
    while True:
        untraced_out = run.one_pass()
        tracer.run_id += 1
        try:
            tracer.install()
            run.tracer = tracer
            traced_out = run.one_pass()
        finally:
            run.tracer = None
            tracer.uninstall()
        spans = tracer.take()
        untraced_s, traced_s = run.durations("pass_s")[-2:]
        # Span times are wall clock; scale them by the traced pass's calibration.
        scale = traced_s / run.durations("pass_s", raw=True)[-1]
        overheads.append(traced_s - untraced_s)
        layer = tracing.per_layer(spans)
        for v in layer.values():
            v["s"] *= scale
        layers.append(layer)
        calls_seen.append({k: v["calls"] for k, v in layer.items()})
        problems = [] if traced_out == untraced_out else [
            f"trace: traced outputs {traced_out} differ from untraced {untraced_out}"]
        problems += tracing.train_span_problems(spans)
        if calls_seen[-1] != calls_seen[0]:
            problems.append("trace: call counts differ between traced passes")
        run.op(problems)
        if time.perf_counter() - start >= seconds:
            break

    tracing.write_spans(results_dir / "spans.jsonl", spans)
    (results_dir / "trace_summary.json").write_text(
        json.dumps(tracing.summary(spans, scale), indent=1) + "\n")

    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.s"] = (statistics.median(l[name]["s"] for l in layers), "s", len(layers))
        metrics[f"{name}.calls"] = (calls_seen[-1][name], "count", len(layers))
    train_total = sum(s[2] - s[1] for s in spans if s[0] == "train_eval.train")
    metrics["train_eval.train.total_s"] = (train_total * scale, "s", 1)
    for name, value in sorted(run.counts.items()):
        metrics[name] = (value, "bytes", 1)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s", len(overheads))
    return metrics


def run_workload(args) -> int:
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    size = (workloads.smoke_size if args.smoke else workloads.full_size)(args.corpus_seed)
    meta = machine_meta(args.corpus_seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    results_dir = WORK / "results" / tag
    results_dir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds}s, trace {args.trace}"
          f"{', smoke corpus' if args.smoke else ''}")
    print("machine " + json.dumps(meta, sort_keys=True))

    with tempfile.TemporaryDirectory(dir=WORK, prefix="data-") as data_dir:
        run = workloads.Run(spec, size, args.seed, Path(data_dir))
        try:
            with run.sampler:
                if args.trace:
                    metrics = measure_traced(run, args.seconds, results_dir)
                    raw = {}
                else:
                    run.measure(args.seconds)
                    metrics = run.end_to_end()
                    raw = run.end_to_end(raw=True)
        except Exception:
            traceback.print_exc()
            print(f"error: workload {args.workload} stopped; no result", file=sys.stderr)
            return 1

    width = max(len(k) for k in metrics)
    for name, (value, unit, n) in metrics.items():
        wall = f"  wall-clock {raw[name][0]:.6g}" if name in raw and raw[name][0] != value else ""
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} (n={n}){wall}")
    print(f"  machine slowness (median of {len(run.sampler.readings)} readings): "
          f"{run.median_slowness():.4g}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print(f"checks: {run.failed} of {run.attempted} operations failed")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, machine=meta,
                  samples={k: n for k, (_, _, n) in metrics.items()},
                  wall_clock={k: v for k, (v, _, _) in raw.items()},
                  slowness=run.median_slowness(), problems=run.problems,
                  intervals=run.samples,
                  speed_readings=list(zip(run.sampler.times, run.sampler.readings)))
    (results_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    failed = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--corpus-seed", str(args.corpus_seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            failed += 1
    print(f"workloads: {failed} of {len(WORKLOAD_NAMES)} failed or incorrect")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: training seed and request order")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=2014,
                        help="simdata seed of the generated corpus")
    parser.add_argument("--smoke", action="store_true",
                        help="6-engine, 960-row corpus and small stages")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rulkit" / "__init__.py").is_file():
        print(f"error: no rulkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
