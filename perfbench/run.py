"""ghostsim benchmark: one workload per call, each measured in fresh processes.

    python3 perfbench/run.py --workload preset-B|stream-256|sweep-N|replay-gsim|all \
        [--seed 42] [--seconds 20] [--trace 0|1]

Run it from anywhere; it measures the ghostsim sources in `src/` next to
this directory and needs nothing built. `--seed` sets the speckle seed and
the noise seed (seed and 101*seed, so 42 gives the presets' 42/4242).

--trace 0 measures the end-to-end metrics. Two set-up-only workers and the
measuring worker each set up once, in their own process; `setup_s` is the
median of the three. The measuring worker then runs closed-loop ops, one
at a time, until `--seconds` have passed (at least one op).

--trace 1 splits `--seconds` between an untraced worker and a traced one
and reports the per-layer metrics of the traced ops (mean over ops, so the
self times add up to `trace.op_mean_s`) plus `trace.overhead_ratio`, the
traced median op time over the untraced one, minus 1. Spans go to
`.perfbench_out/<workload>-seed<n>.spans.jsonl`.

Every op's outputs are checked (worker.py). Stdout carries readable lines
and, last, one JSON object: correct, attempted, failed and metrics. The
full record, with the environment and array/cache sizes, is written to
`.perfbench_out/<workload>-seed<n>-trace<t>.json`. Exits 2 without a
result when the ghostsim sources are missing or a worker fails.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("preset-B", "stream-256", "sweep-N", "replay-gsim")
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run ends within 180 s


class WorkerFailed(Exception):
    pass


def run_worker(mode: str, workload: str, seed: int, seconds: float, tmp: Path, deadline: float,
               spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--tmp", str(tmp)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker for {workload} timed out") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    """Machine and library facts recorded with every result; not gated."""
    import numpy as np

    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if kind in ("Data", "Unified"):
            caches[f"L{level}"] = read(f"{index}/size")
    cpu_model = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def _blas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def sizes(facts: dict, env: dict) -> dict:
    """Array sizes next to the cache sizes the bandwidth figures depend on."""
    def mib(text):  # sysfs sizes read like "2048K"
        if not text:
            return None
        return float(text[:-1]) / (1024 if text.endswith("K") else 1)

    llc = mib(env["caches"].get("L3") or env["caches"].get("L2"))
    return {
        "frame_complex_mib": facts["frame_pixels"] * 16 / 2**20,
        "cube_mib": facts["cube_mb"] * 1e6 / 2**20,
        "l2_mib": mib(env["caches"].get("L2")),
        "llc_mib": llc,
        "cube_over_llc": facts["cube_mb"] * 1e6 / 2**20 / llc if llc else None,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    tmp = OUT / f"tmp-{os.getpid()}"
    if not trace:
        setups = [run_worker("setup", workload, seed, 0.0, tmp, deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        measured = run_worker("run", workload, seed, seconds, tmp, deadline)
        setups.append(measured["setup_s"])
        ops = measured["op_s"]
        metrics = {
            "op_s": (statistics.median(ops), "s") if ops else None,
            "records_per_s": (measured["records"] * len(ops) / sum(ops), "1/s") if ops else None,
            "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        runs = [measured]
        samples = {"op_s": ops, "setup_s": setups}
    else:
        spans = OUT / f"{workload}-seed{seed}.spans.jsonl"
        plain = run_worker("run", workload, seed, seconds / 2, tmp, deadline)
        traced = run_worker("trace", workload, seed, seconds / 2, tmp, deadline, spans)
        runs = [plain, traced]
        metrics = {}
        if plain["op_s"] and traced["op_s"]:
            layers = dict(traced["layers"])
            layers["trace.overhead_ratio"] = statistics.median(traced["op_s"]) / statistics.median(plain["op_s"]) - 1.0
            metrics = {k: (layers[k], unit) for k, unit in LAYER_UNITS.items()}
        samples = {"untraced_op_s": plain["op_s"], "traced_op_s": traced["op_s"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed, "failed_ops_ratio": failed / attempted,
        "errors": [e for r in runs for e in r["errors"]],
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "samples": samples, "facts": runs[-1]["facts"],
    }


def report(result: dict) -> None:
    name = result["workload"]
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    counts = {k: len(v) for k, v in result["samples"].items()}
    print(f"{name} samples {json.dumps(counts)}; failed_ops_ratio = {result['failed_ops_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for error in result["errors"]:
        print(f"{name} failed: {error}")
    print(f"{name} sizes {json.dumps(result['sizes'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ghostsim" / "__init__.py").is_file():
        print(f"error: no ghostsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"env {json.dumps(env)}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result["env"] = env
        result["sizes"] = sizes(result["facts"], env)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
        report(result)
        results.append(result)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 and r["metrics"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": u}
                    for r in results for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
