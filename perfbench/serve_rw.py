"""serve-rw: a daemon answering streamed queries while its graph changes.

The daemon (``perfbench/daemon.py``, its own process, max_concurrent 2,
admission ``warn``) serves one planted-community graph registered
through ``POST /graphs``.  One client runs a closed loop of rounds: four
streamed MQC queries (gamma 0.8, 0.7, 0.8, 0.7; size <= 4), then one
``MutationBatch`` removing two edges and adding two inside a community
(0.3% of the edges).
A second connection holds a standing subscription (gamma 0.8,
size <= 4); after each batch the client waits for its ``delta`` event.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import checks
import layers
from common import HERE, OUT_DIR, median, metric, percentile, relabel, rng_for

COMMUNITIES, COMMUNITY_SIZE, INTRA_P, INTER_EDGES = 40, 12, 0.5, 1
MAX_SIZE = 4
ROUND_GAMMAS = (0.8, 0.7, 0.8, 0.7)
STANDING_GAMMA = 0.8
BATCH_EDGES = 4  # half removed anywhere, half added inside a community
#: One fixed graph whose vertex ids the run's seed permutes (as in
#: dense-sharded): the work of a query hardly varies with the seed.
GRAPH_SEED = 3
TENANT = "bench"
TIMEOUT = 60.0


def make_graph(seed: int) -> Tuple[int, List[Tuple[int, int]], List[List[int]]]:
    """The seed's numbering of one fixed community graph: its vertex
    count, edges and the members of each community."""
    from repro.graph.builder import GraphBuilder
    from repro.graph.generators import community_graph

    base = community_graph(
        COMMUNITIES, COMMUNITY_SIZE, intra_probability=INTRA_P,
        inter_edges=INTER_EDGES, seed=GRAPH_SEED,
    )
    graph, to_base, _ = relabel(base, GraphBuilder, rng_for("serve-rw", seed), seed)
    members: List[List[int]] = [[] for _ in range(COMMUNITIES)]
    for new in sorted(to_base):
        members[to_base[new] // COMMUNITY_SIZE].append(new)
    return graph.num_vertices, sorted(graph.edges()), members


class Session:
    """One daemon process, its registered graph and one subscription."""

    def __init__(self, seed: int, trace: bool, tag: str) -> None:
        from repro.serve.client import ServeClient

        self.num_vertices, edges, self.communities = make_graph(seed)
        self.edges: Set[Tuple[int, int]] = set(edges)
        self.initial_edges = sorted(edges)
        self.batches = rng_for("serve-rw", seed, "batches")
        os.makedirs(OUT_DIR, exist_ok=True)
        self.report_path = os.path.join(OUT_DIR, f"daemon-{tag}.json")
        config_path = os.path.join(OUT_DIR, "tenants.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump({"tenants": {TENANT: {"rate": 1000.0, "burst": 1000}}}, fh)
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--report", self.report_path, "--tenant-config", config_path]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        self.events: "queue.Queue[Tuple[float, Dict[str, Any]]]" = queue.Queue()
        self.reader: Optional[threading.Thread] = None
        try:
            line = self.process.stdout.readline()
            host, _, port = json.loads(line)["serving"].rpartition(":")
            self.client = ServeClient(host, int(port), timeout=TIMEOUT)
            self.client.register_graph("g", edges=self.initial_edges, num_vertices=self.num_vertices)
            stream = self.client.subscribe(
                tenant=TENANT, graph="g", gamma=STANDING_GAMMA, max_size=MAX_SIZE
            )
            subscribed = next(stream)
            if subscribed.get("type") != "subscribed":
                raise RuntimeError(f"subscription failed: {subscribed}")
            self.baseline = int(subscribed["matches"])
            self.reader = threading.Thread(target=self._read, args=(stream,), daemon=True)
            self.reader.start()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _read(self, stream: Any) -> None:
        for event in stream:
            self.events.put((time.perf_counter(), event))

    def query(self, gamma: float) -> Dict[str, Any]:
        sent = time.perf_counter()
        accepted = None
        sets: List[frozenset] = []
        summary: Dict[str, Any] = {}
        for event in self.client.stream_query(
            tenant=TENANT, graph="g", gamma=gamma, max_size=MAX_SIZE
        ):
            kind = event.get("type")
            if kind == "accepted":
                accepted = time.perf_counter()
            elif kind == "match":
                sets.append(frozenset(event["vertices"]))
            else:
                summary = event
        done = time.perf_counter()
        return {
            "gamma": gamma, "sets": sets, "summary": summary,
            "ms": (done - sent) * 1000.0,
            "accept_ms": ((accepted or done) - sent) * 1000.0,
            "ok": summary.get("status") == "ok",
        }

    def mutate(self) -> Dict[str, Any]:
        """Send one batch and wait for the subscription's delta event."""
        rng = self.batches
        half = BATCH_EDGES // 2
        removed = rng.sample(sorted(self.edges), half)
        added: List[Tuple[int, int]] = []
        while len(added) < half:
            u, v = sorted(rng.sample(self.communities[rng.randrange(COMMUNITIES)], 2))
            if (u, v) not in self.edges and (u, v) not in added:
                added.append((u, v))
        sent = time.perf_counter()
        self.client.mutate_graph(
            "g", add_edges=[list(e) for e in added], remove_edges=[list(e) for e in removed]
        )
        delta_added, delta_retracted = set(), set()
        while True:
            arrived, event = self.events.get(timeout=TIMEOUT)
            kind = event.get("type")
            if kind == "match_added":
                delta_added.add(frozenset(event["vertices"]))
            elif kind == "match_retracted":
                delta_retracted.add(frozenset(event["vertices"]))
            elif kind == "delta":
                break
            else:
                raise RuntimeError(f"unexpected subscription event {event}")
        self.edges -= set(removed)
        self.edges |= set(added)
        return {
            "added_edges": added, "removed_edges": removed,
            "delta": event, "added": delta_added, "retracted": delta_retracted,
            "ms": (arrived - sent) * 1000.0,
        }

    def scrape(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for line in self.client.metrics().splitlines():
            if line.startswith("repro_incremental_delta_seconds_"):
                name, _, value = line.partition(" ")
                values[name] = float(value)
        return values

    def close(self) -> Dict[str, Any]:
        """Shut the daemon down; returns its exit report."""
        try:
            self.client.shutdown()
            self.process.wait(timeout=TIMEOUT)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
        if self.reader is not None:
            self.reader.join(timeout=TIMEOUT)
        with open(self.report_path, encoding="utf-8") as fh:
            return json.load(fh)


class State:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session = Session(seed, trace=False, tag="main")


def run_round(session: Session) -> Dict[str, Any]:
    started = time.perf_counter()
    queries = [session.query(gamma) for gamma in ROUND_GAMMAS]
    mutation = session.mutate()
    return {"queries": queries, "mutation": mutation, "wall": time.perf_counter() - started}


def cold_sample(state: State) -> float:
    """Seconds of the first round on a freshly booted daemon."""
    first = run_round(state.session)
    if not all(q["ok"] for q in first["queries"]):
        raise RuntimeError("a query of the cold round failed")
    return first["wall"]


def run_rounds(session: Session, seconds: float) -> Dict[str, Any]:
    """Whole rounds until ``seconds`` have passed, then one closing query."""
    rounds: List[Dict[str, Any]] = []
    failed = 0
    window = time.perf_counter()
    while True:
        rounds.append(run_round(session))
        failed += sum(not q["ok"] for q in rounds[-1]["queries"])
        if len(rounds) >= 3 and time.perf_counter() - window >= seconds:
            break
    closing = session.query(STANDING_GAMMA)
    failed += not closing["ok"]
    return {"rounds": rounds, "closing": closing, "failed": failed,
            "histogram": session.scrape()}


def violations(session: Session, run: Dict[str, Any]) -> List[str]:
    """Each round's answers satisfy the MQC properties on the client's own
    copy of that graph version, and each delta equals the set difference
    of the standing query's answers before and after its batch."""
    out: List[str] = []
    edges = set(session.initial_edges)
    rounds = run["rounds"]
    answers = [r["queries"] for r in rounds] + [[run["closing"]]]
    same_patterns = all(
        checks.min_degree(k, 0.7) == checks.min_degree(k, STANDING_GAMMA)
        for k in range(3, MAX_SIZE + 1)
    )
    first = answers[0][0]["sets"]
    if session.baseline != len(first):
        out.append(f"subscription baseline {session.baseline} != first answer {len(first)}")
    for number, group in enumerate(answers):
        adj = checks.adjacency_of(edges, session.num_vertices)
        standing = set(group[0]["sets"])
        checked = set()
        for q in group:
            sets = frozenset(q["sets"])
            if q["summary"].get("matches") != len(q["sets"]):
                out.append(f"round {number}: summary count != streamed matches")
            if q["gamma"] == STANDING_GAMMA or same_patterns:
                if set(q["sets"]) != standing:
                    out.append(f"round {number}: answers on one version differ")
                    continue
            if sets in checked:
                continue
            checked.add(sets)
            out += [f"round {number}: {v}" for v in
                    checks.mqc_violations(adj, q["sets"], q["gamma"], MAX_SIZE)]
        if number == len(rounds):
            break
        mutation = rounds[number]["mutation"]
        after = set(answers[number + 1][0]["sets"])
        if mutation["added"] != after - standing or mutation["retracted"] != standing - after:
            out.append(f"round {number}: delta != set difference of the answers")
        if mutation["delta"].get("matches") != len(after):
            out.append(f"round {number}: delta match count != next answer")
        edges -= set(mutation["removed_edges"])
        edges |= set(mutation["added_edges"])
    histogram_count = run["histogram"].get("repro_incremental_delta_seconds_count")
    if histogram_count != float(len(rounds)):
        out.append(f"/metrics counts {histogram_count} delta passes, {len(rounds)} batches sent")
    return out


def client_metrics(run: Dict[str, Any]) -> Dict[str, Any]:
    rounds = run["rounds"]
    warm = rounds[1:]
    query_ms = [q["ms"] for r in warm for q in r["queries"]]
    return {
        "warm": warm,
        "query_ms": query_ms,
        "delta_ms": [r["mutation"]["ms"] for r in warm],
        "accept_ms": [q["accept_ms"] for r in warm for q in r["queries"]],
        "overhead_ms": [q["ms"] - 1000.0 * q["summary"]["elapsed_seconds"]
                        for r in warm for q in r["queries"]],
    }


def measure(state: State, seconds: float, trace: bool, selfcheck_mode: bool = False) -> Dict[str, Any]:
    session = state.session
    run = run_rounds(session, seconds)
    report = session.close()
    found = violations(session, run)
    if selfcheck_mode:
        found += selfcheck(session, run)
    attempted = len(run["rounds"]) * (len(ROUND_GAMMAS) + 1) + 1
    record: Dict[str, Any] = {"correct": not found, "violations": found[:20],
                              "attempted": attempted, "failed": run["failed"],
                              "unit_walls": [r["wall"] for r in run["rounds"]]}
    client = client_metrics(run)
    warm_walls = [r["wall"] for r in client["warm"]]
    if not trace:
        record["metrics"] = {
            "cold_s": metric(run["rounds"][0]["wall"], "s"),
            "warm_s": metric(median(warm_walls), "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
            "queries_per_s": metric(len(client["query_ms"]) / sum(warm_walls), "1/s"),
            "query_ms.p50": metric(median(client["query_ms"]), "ms"),
        }
        return record

    traced_session = Session(state.seed, trace=True, tag="traced")
    traced_run = run_rounds(traced_session, seconds / 2.0)
    traced_report = traced_session.close()
    traced_found = violations(traced_session, traced_run)
    record["correct"] = record["correct"] and not traced_found
    record["violations"] += traced_found[:20]
    record["attempted"] += len(traced_run["rounds"]) * (len(ROUND_GAMMAS) + 1) + 1
    record["failed"] += traced_run["failed"]
    rollup = traced_report["rollup"]
    units = float(len(traced_run["rounds"]))
    traced_client = client_metrics(traced_run)
    p90 = percentile(client["query_ms"], 90)
    deltas = [r["mutation"]["delta"] for r in run["rounds"]]
    histogram = run["histogram"]
    summaries = [q["summary"] for r in run["rounds"] for q in r["queries"]]
    values: Dict[str, float] = {"import.s": traced_report["import_s"]}
    values.update(layers.from_rollup(rollup, units))
    values.update(layers.precompute_from(rollup))
    values["precompute.s"] /= units
    values["precompute.calls"] /= units
    counters = layers.sum_counters(s.get("counters", {}) for s in summaries)
    values.update(layers.from_counters({k: v / len(run["rounds"]) for k, v in counters.items()}))
    values.update({
        key: value / len(run["rounds"])
        for key, value in layers.scope_counters(s["run"] for s in summaries).items()
    })
    values.update({
        "apply_batch_ms.p50": layers.durations_p50_ms(rollup, "GraphStore.apply_batch"),
        "delta.on_batch_ms.p50": layers.durations_p50_ms(rollup, "SubscriptionRegistry.on_batch"),
        "admission_ms.p50": layers.durations_p50_ms(rollup, "admit_query"),
        "delta.frontier": median([d["frontier"] for d in deltas]),
        "delta.region": median([d["region"] for d in deltas]),
        "delta.revalidated": median([d["revalidated"] for d in deltas]),
        "delta.histogram_ms.mean": 1000.0 * histogram["repro_incremental_delta_seconds_sum"]
        / histogram["repro_incremental_delta_seconds_count"],
        "serve.accept_ms.p50": median(client["accept_ms"]),
        "serve.overhead_ms.p50": median(client["overhead_ms"]),
        "query_ms.p90": p90 if p90 is not None else 0.0,
        "query_ms.samples": float(len(client["query_ms"])),
        "delta_ms.p50": median(client["delta_ms"]),
        "delta_ms.samples": float(len(client["delta_ms"])),
        "trace.overhead": median([r["wall"] for r in traced_client["warm"]]) / median(warm_walls),
    })
    record["layers"] = values
    return record


def selfcheck(session: Session, run: Dict[str, Any]) -> List[str]:
    """Drop one streamed match, then add one, and expect the checks to fail."""
    missed = []
    target = run["rounds"][1]["queries"][0]
    original = list(target["sets"])
    for mode in ("drop", "extra"):
        if mode == "drop":
            target["sets"] = original[1:]
        else:
            target["sets"] = original + [frozenset(sorted(original[0])[:-1])]
        target["summary"]["matches"] = len(target["sets"])
        if not violations(session, run):
            missed.append(f"injected fault not caught: serve {mode}")
    target["sets"] = original
    target["summary"]["matches"] = len(original)
    return missed


def teardown(state: State) -> None:
    state.session.close()
