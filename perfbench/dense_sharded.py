"""dense-sharded: MQC on a dense planted-community graph, two processes.

The graph (8 communities x 22 vertices, p=0.8, average degree about
17) is the only input on which ``auto`` adjacency turns on the kernel
tier, and it is registered in the graph store, so the ``process``
scheduler shares it with its workers through shared memory.  The
query is MQC with gamma=0.8 and size <= 4, run by
``ProcessShardScheduler`` with 2 workers.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import time
from typing import Any, Dict, List

import checks
import layers
import tracing
from common import OUT_DIR, median, metric, peak_rss_mb, relabel, rng_for

COMMUNITIES, COMMUNITY_SIZE, INTRA_P, INTER_EDGES = 8, 22, 0.8, 2
GAMMA, MAX_SIZE, WORKERS = 0.8, 4, 2
#: One fixed graph whose vertex ids the run's seed permutes: every seed
#: mines the same problem up to isomorphism, so the work a pass does
#: hardly varies with the seed and the spread between runs is the host's.
GRAPH_SEED = 7


class State:
    def __init__(self, seed: int) -> None:
        started = time.perf_counter()
        import repro.apps as apps
        from repro.graph.builder import GraphBuilder
        from repro.graph.generators import community_graph
        from repro.graph.store import graph_store
        from repro.obs import RunScope

        self.import_s = time.perf_counter() - started
        self.apps = apps
        self.run_scope = RunScope
        base = community_graph(
            COMMUNITIES, COMMUNITY_SIZE, intra_probability=INTRA_P,
            inter_edges=INTER_EDGES, seed=GRAPH_SEED, name="dense",
        )
        self.graph, _, _ = relabel(base, GraphBuilder, rng_for("dense-sharded", seed), seed)
        graph_store().register(self.graph, "dense")
        self.adj = checks.adjacency_of(self.graph.edges(), self.graph.num_vertices)


def cold_sample(state: State) -> float:
    """Seconds of the first sharded run in a fresh process."""
    return run_pass(state)["wall"]


def run_pass(state: State, scheduler: str = "process") -> Dict[str, Any]:
    gc.collect()  # every pass starts from a collected heap
    scope = state.run_scope.begin()
    started = time.perf_counter()
    result = state.apps.maximal_quasi_cliques(
        state.graph, GAMMA, MAX_SIZE, scheduler=scheduler, n_workers=WORKERS
    )
    wall = time.perf_counter() - started
    return {
        "wall": wall,
        "sets": result.all_sets(),
        "stats": result.stats.as_dict(),
        "scope": scope.deltas(),
    }


class ShardProbe:
    """Records each shard's own elapsed time and, in traced passes,
    gathers the layer rollups the forked workers write."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        from repro.core.runtime import ContigraJob
        import repro.exec.scheduler as scheduler
        from repro.obs import RunScope as run_scope

        self.tracer = tracer
        self.shard_elapsed: List[float] = []
        self.tag = "pass"
        self._job = ContigraJob
        self._merge = ContigraJob.merge
        self._module = scheduler
        self._payload = scheduler.run_shard_payload
        probe = self

        def merge(job: Any, partials: Any, elapsed: float) -> Any:
            probe.shard_elapsed = [float(p[2]) for p in partials]
            return probe._merge(job, partials, elapsed)

        def run_shard_payload(payload: Any) -> Any:
            if not tracer.enabled:
                return probe._payload(payload)
            tracer.reset()
            scope = run_scope.begin()
            result = probe._payload(payload)
            path = os.path.join(OUT_DIR, f"shard-{probe.tag}-{os.getpid()}-{time.perf_counter_ns()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(tracer.rollup(), scope=scope.deltas()), fh)
            return result

        run_shard_payload.__module__ = self._payload.__module__
        run_shard_payload.__qualname__ = self._payload.__qualname__
        ContigraJob.merge = merge  # type: ignore[method-assign]
        scheduler.run_shard_payload = run_shard_payload

    def collect(self) -> List[Dict[str, Any]]:
        rollups = []
        for path in sorted(glob.glob(os.path.join(OUT_DIR, f"shard-{self.tag}-*.json"))):
            with open(path, encoding="utf-8") as fh:
                rollups.append(json.load(fh))
            os.remove(path)
        return rollups

    def uninstall(self) -> None:
        self._job.merge = self._merge  # type: ignore[method-assign]
        self._module.run_shard_payload = self._payload


def violations(state: State, sets: Any, serial: Any) -> List[str]:
    out = []
    if sets != serial:
        out.append(
            f"sharded result differs from serial: {len(sets - serial)} extra, "
            f"{len(serial - sets)} missing"
        )
    out += checks.mqc_violations(state.adj, sets, GAMMA, MAX_SIZE)
    return out


def measure(state: State, seconds: float, trace: bool, selfcheck_mode: bool = False) -> Dict[str, Any]:
    tracer = probe = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer = tracing.Tracer()
        tracer.install()
        probe = ShardProbe(tracer)
    window = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
        probe.tag = "cold"
    cold = run_pass(state)
    cold_rollup = tracer.rollup() if tracer is not None else {}
    if probe is not None:
        probe.collect()

    def unit(traced: bool) -> Dict[str, Any]:
        if probe is not None:
            probe.tag = f"warm{time.perf_counter_ns()}"
        result = run_pass(state)
        # Keep one result in memory only: peak RSS must not grow with
        # the number of passes a run happens to fit in.
        result["same"] = result.pop("sets") == cold["sets"]
        if probe is not None:
            result["shards"] = list(probe.shard_elapsed)
            result["rollups"] = probe.collect()
        return result

    warm, traced = tracing.alternate(unit, window, seconds, tracer)
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()
        probe.uninstall()
    rss = max(peak_rss_mb(), peak_rss_mb(children=True))

    serial = run_pass(state, scheduler="serial")
    found = violations(state, cold["sets"], serial["sets"])
    for number, result in enumerate(warm + traced, 1):
        if not result["same"]:
            found.append(f"pass {number}: output differs from the first pass")
    if selfcheck_mode:
        some = next(iter(cold["sets"]))
        dropped = set(cold["sets"]) - {some}
        extra = set(cold["sets"]) | {frozenset(list(some)[:3])}
        for label, changed in (("drop", dropped), ("extra", extra)):
            if not violations(state, changed, serial["sets"]):
                found.append(f"injected fault not caught: {label}")
    record: Dict[str, Any] = {
        "correct": not found,
        "violations": found[:20],
        "attempted": 1 + len(warm) + len(traced),
        "failed": 0,
        "unit_walls": [cold["wall"]] + [r["wall"] for r in warm],
    }
    warm_walls = [r["wall"] for r in warm]
    if tracer is None:
        record["metrics"] = {
            "cold_s": metric(cold["wall"], "s"),
            "warm_s": metric(median(warm_walls), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "queries_per_s": metric(len(warm) / sum(warm_walls), "1/s"),
            "query_ms.p50": metric(median(warm_walls) * 1000.0, "ms"),
        }
        return record
    tracer.dump(os.path.join(OUT_DIR, "dense-sharded-spans.jsonl"))
    worker_rollup = tracing.merge_rollups([r for t in traced for r in t["rollups"]])
    values: Dict[str, float] = {"import.s": state.import_s}
    values.update(layers.precompute_from(cold_rollup))
    values.update(layers.from_rollup(worker_rollup, len(traced)))
    values.update(layers.from_counters(layers.sum_counters([traced[-1]["stats"]])))
    overheads = [r["wall"] - max(r["shards"]) for r in warm if r["shards"]]
    imbalance = [max(r["shards"]) / (sum(r["shards"]) / len(r["shards"])) for r in warm if r["shards"]]
    values["scheduler.overhead_s"] = median(overheads)
    values["scheduler.imbalance"] = median(imbalance)
    values["scheduler.speedup"] = serial["wall"] / median(warm_walls)
    values.update(layers.scope_counters(
        [traced[-1]["scope"]] + [r["scope"] for r in traced[-1]["rollups"]]
    ))
    values["trace.overhead"] = median([r["wall"] for r in traced]) / median(warm_walls)
    record["layers"] = values
    return record
