"""The per-layer metrics a traced run prints, and how they are rolled up.

Every traced run prints every name below; a layer a workload does not
exercise reads 0 there (README.md lists where each layer is idle).
Seconds and counts are per *unit of work*: one pass of the query mix
(paper-batch), one sharded run (dense-sharded), one round of queries
plus a mutation batch (serve-rw).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

from common import median

PER_LAYER = (
    ("import.s", "s"),
    ("precompute.s", "s"),
    ("precompute.calls", "count"),
    ("etask.self_s", "s"),
    ("etasks_started", "count"),
    ("rl_paths", "count"),
    ("extensions_attempted", "count"),
    ("extensions_per_match", "ratio"),
    ("candidates.s", "s"),
    ("set_intersections", "count"),
    ("bitset_intersections", "count"),
    ("batch_intersections", "count"),
    ("cache_hit_rate", "ratio"),
    ("vtask.self_s", "s"),
    ("vtasks_started", "count"),
    ("vtasks_canceled_lateral", "count"),
    ("vtask_cancel_rate", "ratio"),
    ("constraint_checks", "count"),
    ("bridge_steps", "count"),
    ("promotions", "count"),
    ("canonical.s", "s"),
    ("canonical.calls", "count"),
    ("esu.s", "s"),
    ("app.mqc_s", "s"),
    ("app.nsq_s", "s"),
    ("app.kws_s", "s"),
    ("app.qc_fused_s", "s"),
    ("app.qc_plain_s", "s"),
    ("scheduler.overhead_s", "s"),
    ("scheduler.imbalance", "ratio"),
    ("scheduler.speedup", "ratio"),
    ("derived_cache.hits", "count"),
    ("derived_cache.misses", "count"),
    ("derived_cache.invalidations", "count"),
    ("shm.publishes", "count"),
    ("shm.attaches", "count"),
    ("apply_batch_ms.p50", "ms"),
    ("delta.on_batch_ms.p50", "ms"),
    ("delta.frontier", "count"),
    ("delta.region", "count"),
    ("delta.revalidated", "count"),
    ("delta.histogram_ms.mean", "ms"),
    ("serve.accept_ms.p50", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("admission_ms.p50", "ms"),
    ("query_ms.p90", "ms"),
    ("query_ms.samples", "count"),
    ("delta_ms.p50", "ms"),
    ("delta_ms.samples", "count"),
    ("trace.overhead", "ratio"),
)

#: ConstraintStats counters summed per unit of work.
COUNTERS = (
    "etasks_started", "rl_paths", "extensions_attempted", "matches_found",
    "set_intersections", "bitset_intersections", "batch_intersections",
    "cache_hits", "cache_misses", "vtasks_started", "vtasks_canceled_lateral",
    "constraint_checks", "bridge_steps", "promotions",
)

_APP_NAMES = {
    "maximal_quasi_cliques": "app.mqc_s",
    "nested_subgraph_query": "app.nsq_s",
    "keyword_search": "app.kws_s",
    "mine_quasi_cliques_fused": "app.qc_fused_s",
    "mine_quasi_cliques": "app.qc_plain_s",
}


def sum_counters(stats_dicts: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    totals = {name: 0.0 for name in COUNTERS}
    for stats in stats_dicts:
        for name in COUNTERS:
            totals[name] += float(stats.get(name, 0))
    return totals


def from_counters(totals: Mapping[str, float]) -> Dict[str, float]:
    """Counter metrics, with the ratios the layer table names."""
    out = {
        name: totals[name] for name in COUNTERS
        if name not in ("matches_found", "cache_hits", "cache_misses")
    }
    out["extensions_per_match"] = (
        totals["extensions_attempted"] / totals["matches_found"]
        if totals["matches_found"] else 0.0
    )
    lookups = totals["cache_hits"] + totals["cache_misses"]
    out["cache_hit_rate"] = totals["cache_hits"] / lookups if lookups else 0.0
    started = totals["vtasks_started"] + totals["vtasks_canceled_lateral"]
    out["vtask_cancel_rate"] = (
        totals["vtasks_canceled_lateral"] / started if started else 0.0
    )
    return out


def from_rollup(rollup: Mapping[str, Any], units: float) -> Dict[str, float]:
    """Layer seconds and call counts per unit of work."""
    self_s = rollup.get("self_s", {})
    inclusive = rollup.get("inclusive_s", {})
    calls = rollup.get("calls", {})
    units = max(units, 1.0)
    out = {
        "etask.self_s": self_s.get("etask", 0.0) / units,
        "candidates.s": self_s.get("candidates", 0.0) / units,
        "vtask.self_s": self_s.get("vtask", 0.0) / units,
        "canonical.s": self_s.get("canonical", 0.0) / units,
        "canonical.calls": calls.get("canonical_assignment", 0) / units,
        "esu.s": self_s.get("esu", 0.0) / units,
    }
    for name, key in _APP_NAMES.items():
        out[key] = inclusive.get(name, 0.0) / units
    return out


def precompute_from(rollup: Mapping[str, Any]) -> Dict[str, float]:
    return {
        "precompute.s": rollup.get("self_s", {}).get("precompute", 0.0),
        "precompute.calls": float(rollup.get("layer_calls", {}).get("precompute", 0)),
    }


def scope_counters(scopes: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Derived-cache and shared-memory counter deltas (``RunScope``),
    summed over the processes of one unit of work."""
    out: Dict[str, float] = {}
    for scope in scopes:
        for source, prefix, keys in (
            ("derived_cache", "derived_cache", ("hits", "misses", "invalidations")),
            ("shared_graphs", "shm", ("publishes", "attaches")),
        ):
            for key in keys:
                name = f"{prefix}.{key}"
                out[name] = out.get(name, 0.0) + float(scope.get(source, {}).get(key, 0))
    return out


def durations_p50_ms(rollup: Mapping[str, Any], name: str) -> float:
    return median(rollup.get("durations", {}).get(name, [])) * 1000.0


def complete(values: Mapping[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric with its unit; absent layers read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
