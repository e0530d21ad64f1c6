"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload {fit,serve,jobs,stream} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` prints the per-layer profile instead and writes its
spans to ``.perfbench_out/``.  Every metric is printed with its unit, then
one JSON object as the last line: ``correct``, ``attempted``, ``failed``,
``metrics``.  A failed correctness gate prints ``correct: false`` with no
metrics and exits 1; a checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "group_f1": "ratio",
}


def layer_unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return {"ms": "ms", "mb": "MB", "pct": "%", "ratio": "ratio"}.get(suffix, "count")


def end_to_end(run, benchlib) -> dict:
    log = run["log"]
    summary = log.summary()
    if "latency_tail_ms" not in summary:
        raise RuntimeError(f"only {summary['n_samples']} operations: too few for a tail percentile")
    throughput = run["throughput_per_s"] if "throughput_per_s" in run else len(log.latencies_s) / run["elapsed_s"]
    metrics = {
        "setup_s": benchlib.median(run["setups"]),
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
        "throughput_per_s": throughput,
        "peak_rss_mb": run["peak_rss_mb"],
        "group_f1": run["group_f1"],
    }
    info = {"tail_percentile": summary["tail_percentile"], "latency_samples": summary["n_samples"],
            "setup_samples_s": run["setups"]}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["fit", "serve", "jobs", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # One BLAS thread in this process and every one it starts, set before
    # numpy loads: on a few shared cores, spinning BLAS threads measure the
    # neighbours rather than the program.  One malloc arena in the processes
    # it starts: with one per thread, the server's peak RSS depended on which
    # executor threads happened to take the large graphs (230 or 280 MB).
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MALLOC_ARENA_MAX"] = "1"
    sys.path.insert(0, str(SRC))
    import benchlib
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    ctx = workloads.Context(tmp=tmp, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), env=env)
    ctx.info["host"] = benchlib.host_facts()
    run = None
    try:
        run = workloads.WORKLOADS[args.workload](ctx)
        if args.trace:
            import layers

            metrics, spans = layers.profile(ctx, args.workload, run)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans.dump_jsonl(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, extra = end_to_end(run, benchlib)
            ctx.info.update(extra)
            units = END_TO_END_UNITS
        correct = True
    except Exception as error:  # noqa: BLE001 - any failure is reported as an incorrect run
        if not isinstance(error, workloads.GateError):
            traceback.print_exc()
        print(f"perfbench: {args.workload} failed: {error}", file=sys.stderr)
        metrics, units, correct = {}, {}, False
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    bad = [name for name, value in metrics.items()
           if not benchlib.METRIC_NAME.fullmatch(name) or value != value or value in (float("inf"), float("-inf"))]
    if bad:
        print(f"perfbench: invalid metrics {bad}", file=sys.stderr)
        metrics, correct = {}, False
    attempted = failed = 0
    if run is not None:
        log = run["log"]
        attempted = run.get("attempted", log.attempted)
        failed = run.get("failed", log.failed) + run.get("shed", log.shed)
        ctx.info["operations"] = {"attempted": attempted, "failed": run.get("failed", log.failed),
                                  "shed": run.get("shed", log.shed)}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print("info " + json.dumps(ctx.info, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if correct else max(1, failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
