"""Helpers shared by the benchmark's processes (stdlib only)."""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
COLD = "PERFBENCH-COLD "


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    """A generator fixed by (workload, seed, stream); independent of
    ``PYTHONHASHSEED`` because string seeds are hashed with SHA-512."""
    return random.Random(f"{workload}/{seed}/{stream}")


def relabel(base: Any, builder_cls: Any, rng: random.Random, seed: int) -> Tuple[Any, Dict[int, int], Dict[Any, Any]]:
    """An isomorphic copy: vertices and labels permuted by ``rng``.

    ``builder_cls`` is the program's ``GraphBuilder``.  Seed 0 keeps the
    original numbering.  Returns the copy, new-to-base vertex ids and the
    base-to-new label map.
    """
    n = base.num_vertices
    order = list(range(n))
    labels = sorted({base.label(v) for v in range(n)}) if base.is_labeled else []
    shuffled = list(labels)
    if seed != 0:
        rng.shuffle(order)
        rng.shuffle(shuffled)
    to_new = dict(zip(range(n), order))
    label_map = dict(zip(labels, shuffled))
    builder = builder_cls(name=base.name)
    for v in range(n):
        builder.add_vertex(v)
    for u, v in base.edges():
        builder.add_edge(to_new[u], to_new[v])
    if base.is_labeled:
        for v in range(n):
            builder.set_label(to_new[v], label_map[base.label(v)])
    return builder.build(), {new: old for old, new in to_new.items()}, label_map


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: int) -> Optional[float]:
    """The q-th percentile, or None when fewer than ten samples lie
    beyond it (such a percentile would be no tail)."""
    if len(values) * (100 - q) / 100.0 < 10:
        return None
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return [value, value, value]
    return [float(v) for v in statistics.quantiles(values, n=4)]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest reaped
    child) in MiB; Linux reports ``ru_maxrss`` in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a probe of host speed.

    Printed at the start and end of every run beside the metrics, so a
    slower host can be told apart from a slower program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


def announce_ready() -> None:
    print(READY, flush=True)


def emit_result(payload: Dict[str, Any]) -> None:
    print(RESULT + json.dumps(payload, sort_keys=True), flush=True)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
