"""memscrub benchmark: one command, three workloads, a traced per-layer run.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

Workloads: ``serve``, ``churn``, ``unlearn-eval`` (see perfbench/README.md),
or ``all`` to run the three one after another in child processes.

Output: a ``# env`` line (machine and library versions), a ``# e2e`` line
with the workload's named end-to-end metrics, with ``--trace 1`` a
``# layers`` line with every per-layer metric, and last one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the gated
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 before running anything.
Stores and scratch files go to a temporary directory under
``.perfbench_tmp/`` in the checkout, which is removed at exit.
"""

from __future__ import annotations

import argparse
import gc
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("serve", "churn", "unlearn-eval")


def _gated_names(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def env_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _line(tag: str, metrics: dict) -> None:
    print(f"# {tag} " + json.dumps(_as_json(metrics), separators=(",", ":")), flush=True)


def run_one(workload: str, seed: int, seconds: int, trace: bool, scale_name: str) -> dict:
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    run, scale_cls = WORKLOADS[workload]
    scale = scale_cls.tiny() if scale_name == "tiny" else scale_cls.for_seconds(seconds)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_tmp"))
    try:
        gc.collect()
        plain = run(seed, scale, NullTracer(), workdir / "plain")
        e2e = {
            "setup_s": (statistics.median(plain.setup_s), "s"),
            **plain.op_metrics(),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "error_rate": (plain.failed / max(plain.attempted, 1), "ratio"),
        }
        named = {**plain.named, **e2e}
        _line("e2e", named)
        attempted, failed = plain.attempted, plain.failed
        if not trace:
            metrics = {name: e2e[name] for name in _gated_names("end_to_end")}
        else:
            gc.collect()
            with Tracer() as tracer:
                traced = run(seed, scale, tracer, workdir / "traced", setups=1, trace_setup=True)
            layers = tracer.metrics()
            overhead = (traced.busy_s / plain.busy_s - 1.0) * 100.0 if plain.busy_s else 0.0
            layers["trace.overhead_pct"] = (overhead, "%")
            _line("layers", layers)
            attempted += traced.attempted
            failed += traced.failed
            metrics = {name: layers[name] for name in _gated_names("per_layer")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_json(metrics),
    }


def run_all(args) -> dict:
    """Each workload in its own child process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"# [{workload}] {line.lstrip('# ')}", flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {workload} exited with {proc.returncode}")
        last = json.loads(lines[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sets the fixed amount of work (nominal rate x seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second smoke run for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "memscrub" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}; nothing to benchmark\n")
        return 2
    # One BLAS thread: the workloads are single-client, and a shared box's
    # neighbours would otherwise set the speed of the threaded kernels.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    import memscrub

    if Path(memscrub.__file__).resolve().parent != SRC / "memscrub":
        sys.stderr.write(f"perfbench: memscrub imported from {memscrub.__file__}, not {SRC}\n")
        return 2

    print("# env " + json.dumps(env_info(), separators=(",", ":")), flush=True)
    started = time.perf_counter()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(f"# wall_s {time.perf_counter() - started:.3f}", flush=True)
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
