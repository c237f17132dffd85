"""End-to-end benchmark of the Contigra reproduction.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 20 --trace 0

Runs one workload (paper-batch, dense-sharded or serve-rw; see README.md)
from the root of a source checkout.  Each measuring process is started
fresh with ``PYTHONPATH=src`` and a pinned ``PYTHONHASHSEED``.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.

    --repeat N       N runs on seeds seed..seed+N-1; prints each metric's
                     median, quartiles and spread (bounds are set from it)
    --selfcheck      also inject one dropped and one extra match into the
                     outputs and require the checks to catch both
    --regen-expected rewrite the stored paper-batch digests
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import layers
from common import COLD, READY, RESULT, ROOT, OUT_DIR, fail, median, quartiles, reference_loop

WORKLOADS = ("paper-batch", "dense-sharded", "serve-rw")
#: Set-ups per run; set-up time is their median.
SETUP_SAMPLES = {"paper-batch": 5, "dense-sharded": 4, "serve-rw": 5}
#: Workloads whose cold unit is cheap enough to repeat in every set-up
#: process; their cold time is the median over those processes.
COLD_SAMPLED = ("dense-sharded", "serve-rw")
END_TO_END_UNITS = {
    "setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB",
    "queries_per_s": "1/s", "query_ms.p50": "ms",
}
RUN_TIMEOUT = 170.0


class BenchError(Exception):
    pass


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: List[str]) -> subprocess.Popen:
    command = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py")] + args
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)


def _read_until(process: subprocess.Popen, marker: str, deadline: float) -> str:
    """Lines of the child's stdout until one starts with ``marker``."""
    assert process.stdout is not None
    while True:
        if time.monotonic() > deadline:
            raise BenchError("run exceeded its time limit")
        line = process.stdout.readline()
        if not line:
            raise BenchError(f"worker exited before printing {marker.strip()}")
        if line.startswith(marker):
            return line[len(marker):]


def _finish(process: subprocess.Popen, deadline: float) -> None:
    try:
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()
    if process.returncode != 0:
        raise BenchError(f"worker exited with code {process.returncode}")


def run_once(workload: str, seed: int, seconds: float, trace: bool, selfcheck: bool = False) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_TIMEOUT
    reference_start = reference_loop()
    common_args = [workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups: List[float] = []
    colds: List[float] = []
    for _ in range(SETUP_SAMPLES[workload] - 1):
        started = time.perf_counter()
        process = _worker(common_args + ["--setup-only"])
        try:
            _read_until(process, READY, deadline)
            setups.append(time.perf_counter() - started)
            if workload in COLD_SAMPLED:
                colds.append(float(_read_until(process, COLD, deadline)))
        finally:
            _finish(process, deadline)
    extra = (["--trace"] if trace else []) + (["--selfcheck"] if selfcheck else [])
    started = time.perf_counter()
    process = _worker(common_args + extra)
    try:
        _read_until(process, READY, deadline)
        setups.append(time.perf_counter() - started)
        result = json.loads(_read_until(process, RESULT, deadline))
    finally:
        _finish(process, deadline)
    reference_end = reference_loop()
    if trace:
        metrics = layers.complete(result["layers"])
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = {"value": median(setups), "unit": "s"}
        if colds:
            metrics["cold_s"]["value"] = median(colds + [metrics["cold_s"]["value"]])
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
        "violations": result.get("violations", []),
        "unit_walls": result.get("unit_walls", []),
        "reference_loop_s": [reference_start, reference_end],
    }


def repeat(workload: str, first_seed: int, runs: int, seconds: float, trace: bool) -> int:
    results = []
    for seed in range(first_seed, first_seed + runs):
        result = run_once(workload, seed, seconds, trace)
        results.append(result)
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "reference_loop_s": result["reference_loop_s"],
                          "unit_walls": [round(w, 3) for w in result["unit_walls"]],
                          "metrics": {k: v["value"] for k, v in result["metrics"].items()}}),
              flush=True)
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = quartiles(values)
        spread = (q3 - q1) / mid if mid else 0.0
        print(f"{name:28s} {first['unit']:6s} {mid:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    refs = [r["reference_loop_s"][0] for r in results]
    print(f"correct in {sum(r['correct'] for r in results)}/{runs} runs; "
          f"failed shares {sorted(shares)}; reference loop median "
          f"{statistics.median(refs):.4f} s")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="paper-batch")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail("no program source at src/repro: run from the root of a checkout")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.regen_expected:
        command = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
                   "paper-batch", "--regen-expected"]
        return subprocess.run(command, env=_env(), cwd=ROOT).returncode
    try:
        if args.repeat:
            return repeat(args.workload, args.seed, args.repeat, args.seconds, bool(args.trace))
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.selfcheck)
    except BenchError as exc:
        fail(str(exc))
        return 1
    for violation in result["violations"]:
        print(f"violation: {violation}")
    start, end = result["reference_loop_s"]
    print(f"reference loop: {start:.4f} s at start, {end:.4f} s at end (host speed probe, not a metric)")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
