"""paper-batch: the paper's Table 2 query mix, serial, in one process.

Each pass runs eight rows on the bundled dataset analogs: MQC
(gamma=0.7, size <= 6) on amazon, mico and youtube; NSQ query 2
(tailed triangles) on patents; KWS with the three most frequent
keywords (size <= 5) on mico and products; unconstrained QC (gamma=0.8,
size <= 6) on mico, fused and per-pattern.  The seed relabels the
vertices and labels of every analog, so each seed poses the same
problems up to isomorphism.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Any, Dict, FrozenSet, List, Tuple

import checks
import layers
import tracing
from common import HERE, OUT_DIR, median, metric, peak_rss_mb, relabel, rng_for

EXPECTED_PATH = os.path.join(HERE, "expected_paper_batch.json")

DATASETS = ("amazon", "mico", "youtube", "patents", "products")
ROWS: Tuple[Tuple[str, str, str], ...] = (
    ("mqc-amazon", "mqc", "amazon"),
    ("mqc-mico", "mqc", "mico"),
    ("mqc-youtube", "mqc", "youtube"),
    ("nsq-patents", "nsq", "patents"),
    ("kws-mico", "kws", "mico"),
    ("kws-products", "kws", "products"),
    ("qc-fused-mico", "qc_fused", "mico"),
    ("qc-plain-mico", "qc_plain", "mico"),
)
MQC_GAMMA, MQC_MAX = 0.7, 6
KWS_MAX = 5
QC_GAMMA, QC_MAX = 0.8, 6


class State:
    def __init__(self, seed: int) -> None:
        started = time.perf_counter()
        import repro.apps as apps
        from repro.bench.datasets import spec
        from repro.graph.builder import GraphBuilder
        from repro.graph.store import graph_store
        from repro.obs import RunScope

        self.import_s = time.perf_counter() - started
        self.apps = apps
        self.run_scope = RunScope
        self.graphs: Dict[str, Any] = {}
        self.to_base: Dict[str, Dict[int, int]] = {}
        self.keywords: Dict[str, List[int]] = {}
        for key in DATASETS:
            base = spec(key).build()
            graph, to_base, label_map = relabel(
                base, GraphBuilder, rng_for("paper-batch", seed, key), seed
            )
            graph_store().register(graph, key)
            self.graphs[key] = graph
            self.to_base[key] = to_base
            if base.is_labeled:
                top, _ = apps.frequent_and_rare_keywords(base, 3)
                self.keywords[key] = [label_map[label] for label in top]
        self.nsq_query = apps.paper_query_tailed_triangles()


def run_row(state: State, kind: str, key: str) -> Tuple[List[Tuple[int, ...]], Dict[str, Any]]:
    """One query; returns its output as vertex groups and its counters."""
    apps, graph = state.apps, state.graphs[key]
    if kind == "mqc":
        result = apps.maximal_quasi_cliques(graph, MQC_GAMMA, MQC_MAX, scheduler="serial")
        groups = [tuple(sorted(s)) for s in result.all_sets()]
    elif kind == "nsq":
        p_m, p_plus = state.nsq_query
        result = apps.nested_subgraph_query(graph, p_m, p_plus, scheduler="serial")
        groups = [tuple(a) for a in result.assignments()]
    elif kind == "kws":
        result = apps.keyword_search(graph, state.keywords[key], KWS_MAX)
        groups = [tuple(sorted(s)) for s in result.minimal]
    elif kind == "qc_fused":
        result = apps.mine_quasi_cliques_fused(graph, QC_GAMMA, QC_MAX)
        groups = [tuple(sorted(s)) for s in result.all_sets()]
    else:
        result = apps.mine_quasi_cliques(graph, QC_GAMMA, QC_MAX)
        groups = [tuple(sorted(s)) for s in result.all_sets()]
    return groups, result.stats.as_dict()


def run_pass(state: State, tracer: Any = None) -> Dict[str, Any]:
    times, outputs, stats = {}, {}, []
    gc.collect()  # every pass starts from a collected heap
    scope = state.run_scope.begin()
    started = time.perf_counter()
    for name, kind, key in ROWS:
        if tracer is not None:
            tracer.request = name
        t0 = time.perf_counter()
        groups, counters = run_row(state, kind, key)
        times[name] = time.perf_counter() - t0
        outputs[name] = groups
        stats.append(counters)
    return {
        "wall": time.perf_counter() - started,
        "times": times,
        "outputs": outputs,
        "stats": stats,
        "scope": scope.deltas(),
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def references(state: State) -> Dict[str, Any]:
    """Independent results the outputs are compared with."""
    from repro.baselines.peregrine_plus import posthoc_kws, posthoc_nsq
    from repro.baselines.tthinker import tthinker_mqc

    p_m, p_plus = state.nsq_query
    expected = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)["rows"]
    return {
        "expected": expected,
        "mqc-amazon": {
            frozenset(s) for s in tthinker_mqc(state.graphs["amazon"], MQC_GAMMA, MQC_MAX).maximal
        },
        "nsq-patents": sorted(
            tuple(a) for a in posthoc_nsq(state.graphs["patents"], p_m, p_plus).assignments
        ),
        "kws-mico": {
            frozenset(s)
            for s in posthoc_kws(state.graphs["mico"], state.keywords["mico"], KWS_MAX).valid
        },
    }


def violations(state: State, outputs: Dict[str, List[Tuple[int, ...]]], refs: Dict[str, Any]) -> List[str]:
    apps = state.apps
    out: List[str] = []
    for name, kind, key in ROWS:
        groups = outputs[name]
        graph = state.graphs[key]
        sets: List[FrozenSet[int]] = [frozenset(g) for g in groups]
        want = refs["expected"].get(name)
        base_groups = [[state.to_base[key][v] for v in g] for g in groups]
        if want is None:
            out.append(f"{name}: no stored digest (run --regen-expected)")
        elif checks.digest(base_groups) != want["sha256"]:
            out.append(f"{name}: output differs from the stored digest "
                       f"({len(groups)} groups, {want['count']} expected)")
        if kind == "mqc":
            found = apps.verify_maximal_quasi_cliques(graph, sets, MQC_GAMMA, MQC_MAX)
            out += [f"{name}: {v}" for v in found[:3]]
        elif kind == "kws":
            found = apps.verify_minimal_covers(graph, sets, state.keywords[key], KWS_MAX)
            out += [f"{name}: {v}" for v in found[:3]]
        elif kind in ("qc_fused", "qc_plain"):
            found = apps.verify_quasi_clique_universe(graph, sets, QC_GAMMA, QC_MAX)
            out += [f"{name}: {v}" for v in found[:3]]
        if name in ("mqc-amazon", "kws-mico") and set(sets) != refs[name]:
            out.append(f"{name}: differs from the independent baseline")
        if name == "nsq-patents" and sorted(groups) != refs[name]:
            out.append(f"{name}: differs from posthoc_nsq")
    if sorted(outputs["qc-fused-mico"]) != sorted(outputs["qc-plain-mico"]):
        out.append("qc: fused and per-pattern results differ")
    return out


def inject(outputs: Dict[str, List[Tuple[int, ...]]], name: str, mode: str) -> Dict[str, List[Tuple[int, ...]]]:
    """A copy of ``outputs`` with one match of ``name`` dropped or one added."""
    changed = dict(outputs)
    groups = list(outputs[name])
    if mode == "drop":
        changed[name] = groups[1:]
    else:
        first = groups[0]
        other = next(v for g in groups for v in g if v not in first)
        changed[name] = groups + [tuple(sorted(first[:-1] + (other,)))]
    return changed


def selfcheck(state: State, outputs: Dict[str, Any], refs: Dict[str, Any]) -> List[str]:
    missed = []
    for name, _, _ in ROWS:
        for mode in ("drop", "extra"):
            if not violations(state, inject(outputs, name, mode), refs):
                missed.append(f"{name}/{mode}")
    return missed


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def measure(state: State, seconds: float, trace: bool, selfcheck_mode: bool = False) -> Dict[str, Any]:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    window = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
    cold = run_pass(state, tracer)
    cold_rollup = tracer.rollup() if tracer is not None else {}

    def unit(traced: bool) -> Dict[str, Any]:
        before = tracer.rollup() if traced else {}
        result = run_pass(state, tracer)
        result["same"] = result.pop("outputs") == cold["outputs"]
        if traced:
            result["rollup"] = tracing.diff_rollups(tracer.rollup(), before)
        return result

    warm, traced = tracing.alternate(unit, window, seconds, tracer)
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()
    rss = peak_rss_mb()

    refs = references(state)
    found = violations(state, cold["outputs"], refs)
    for number, result in enumerate(warm + traced, 1):
        if not result["same"]:
            found.append(f"pass {number}: output differs from the first pass")
    if selfcheck_mode:
        found += [f"injected fault not caught: {m}" for m in selfcheck(state, cold["outputs"], refs)]
    passes = 1 + len(warm) + len(traced)
    record: Dict[str, Any] = {
        "correct": not found,
        "violations": found[:20],
        "attempted": passes * len(ROWS),
        "failed": 0,
        "unit_walls": [cold["wall"]] + [r["wall"] for r in warm],
    }
    if tracer is None:
        # The median warm pass, taken row by row: each row's median over
        # the warm passes, so a host stall in one row of one pass drops out.
        row_medians = [median([r["times"][name] for r in warm]) for name, _, _ in ROWS]
        record["metrics"] = {
            "cold_s": metric(cold["wall"], "s"),
            "warm_s": metric(sum(row_medians), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "queries_per_s": metric(len(ROWS) / sum(row_medians), "1/s"),
            "query_ms.p50": metric(median(row_medians) * 1000.0, "ms"),
        }
        return record
    tracer.dump(os.path.join(OUT_DIR, "paper-batch-spans.jsonl"))
    rollup = tracing.merge_rollups([r["rollup"] for r in traced])
    values: Dict[str, float] = {"import.s": state.import_s}
    values.update(layers.precompute_from(cold_rollup))
    values.update(layers.from_rollup(rollup, len(traced)))
    values.update(layers.from_counters(layers.sum_counters(traced[-1]["stats"])))
    values.update(layers.scope_counters([traced[-1]["scope"]]))
    values["trace.overhead"] = median([r["wall"] for r in traced]) / median([r["wall"] for r in warm])
    record["layers"] = values
    return record


def regenerate() -> int:
    """Rewrite the stored digests from the bundled numbering (seed 0),
    after every row agrees with an independent computation."""
    from repro.baselines.peregrine_plus import posthoc_kws, posthoc_nsq
    from repro.baselines.tthinker import tthinker_mqc

    state = State(0)
    result = run_pass(state)
    outputs = result["outputs"]
    p_m, p_plus = state.nsq_query
    problems = []
    for name, kind, key in ROWS:
        graph = state.graphs[key]
        sets = {frozenset(g) for g in outputs[name]}
        if kind == "mqc":
            ref = {frozenset(s) for s in tthinker_mqc(graph, MQC_GAMMA, MQC_MAX).maximal}
        elif kind == "nsq":
            ref = None
            if sorted(outputs[name]) != sorted(
                tuple(a) for a in posthoc_nsq(graph, p_m, p_plus).assignments
            ):
                problems.append(name)
        elif kind == "kws":
            ref = {frozenset(s) for s in posthoc_kws(graph, state.keywords[key], KWS_MAX).valid}
        else:
            ref = None
            if state.apps.verify_quasi_clique_universe(graph, sets, QC_GAMMA, QC_MAX):
                problems.append(name)
        if ref is not None and ref != sets:
            problems.append(name)
    if sorted(outputs["qc-fused-mico"]) != sorted(outputs["qc-plain-mico"]):
        problems.append("qc: fused != per-pattern")
    if problems:
        print(f"not written: {problems} disagree with the independent computation")
        return 1
    rows = {
        name: {"count": len(outputs[name]), "sha256": checks.digest(outputs[name])}
        for name, _, _ in ROWS
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"rows": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0
