"""Spans around calls into the program's layers, recorded from outside.

The benchmark never edits the program to time it.  :class:`Tracer`
replaces public functions and methods of ``repro`` with timing
wrappers, at every module attribute that holds the original (so the
name is patched where each caller looks it up), and restores them on
:meth:`Tracer.uninstall`.

Each call made while the tracer is enabled becomes a span
``(name, layer, start, end, parent, request)``.  Spans are kept in
memory (the first ``keep`` of them; later ones are counted, not kept)
and written out by :meth:`Tracer.dump`.  Self time per layer — a span's
duration minus the part its child spans cover — is rolled up online,
so it is exact however many spans were kept.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute, layer, where).  ``attribute`` may be
#: ``Class.method``.  ``where`` lists the modules whose binding is
#: replaced; None means every ``repro`` module binding the original.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]]], ...] = (
    ("repro.patterns.quasicliques", "quasi_clique_patterns_up_to", "precompute", None),
    ("repro.patterns.plan", "plan_for", "precompute", None),
    ("repro.patterns.automorphisms", "automorphisms", "precompute", None),
    ("repro.patterns.symmetry", "symmetry_conditions", "precompute", None),
    ("repro.core.vtask", "alignment_embeddings", "precompute", None),
    ("repro.core.vtask", "connected_extension_orders", "precompute", None),
    ("repro.core.vtask", "bridge_recipes_for", "precompute", None),
    ("repro.mining.etask", "ETask.run", "etask", None),
    ("repro.mining.candidates", "compute_candidates", "candidates", None),
    ("repro.mining.candidates", "raw_intersection", "candidates", None),
    ("repro.mining.candidates", "kernel_pool", "candidates", None),
    ("repro.mining.candidates", "root_candidates", "candidates", None),
    ("repro.graph.index", "GraphIndex.batch_extend", "candidates", None),
    ("repro.core.lateral", "LateralScheduler.validate", "vtask", None),
    ("repro.patterns.symmetry", "canonical_assignment", "canonical",
     ("repro.core.runtime",)),
    ("repro.mining.subsets", "explore_connected_sets", "esu", None),
    ("repro.apps.mqc", "maximal_quasi_cliques", "app", None),
    ("repro.apps.nsq", "nested_subgraph_query", "app", None),
    ("repro.apps.kws", "keyword_search", "app", None),
    ("repro.apps.quasicliques", "mine_quasi_cliques_fused", "app", None),
    ("repro.apps.quasicliques", "mine_quasi_cliques", "app", None),
    ("repro.core.runtime", "ContigraEngine.run", "engine", None),
    ("repro.exec.scheduler", "ProcessShardScheduler.run", "scheduler", None),
    ("repro.graph.store", "GraphStore.apply_batch", "mutation", None),
    ("repro.mining.incremental", "SubscriptionRegistry.on_batch", "deltas", None),
    ("repro.serve.admission", "admit_query", "admission", None),
)

#: Span names whose individual durations are kept for medians.
DURATION_NAMES = frozenset(
    {"GraphStore.apply_batch", "SubscriptionRegistry.on_batch", "admit_query"}
)


class _ThreadState:
    """One thread's open-span stack and its rollup accumulators."""

    def __init__(self) -> None:
        # Frames: [name, layer, start, child_seconds, span_index].
        self.stack: List[List[Any]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)


class Tracer:
    """Timing wrappers over the program's layer boundaries."""

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.enabled = False
        self.request: Optional[str] = None
        self.spans: List[Tuple[str, str, float, float, int, Optional[str]]] = []
        self.dropped = 0
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def reset(self) -> None:
        """Forget every span and accumulator (open frames are abandoned)."""
        with self._lock:
            self.spans = []
            self.dropped = 0
            self._states = []
            self._local = threading.local()

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            parent = state.stack[-1][4] if state.stack else -1
            frame = [name, layer, time.perf_counter(), 0.0, -1]
            if len(tracer.spans) < tracer.keep:
                frame[4] = len(tracer.spans)
                tracer.spans.append((name, layer, frame[2], 0.0, parent, None))
            state.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                duration = end - frame[2]
                state.self_seconds[layer] += duration - frame[3]
                state.inclusive[name] += duration
                state.calls[name] += 1
                state.layer_calls[layer] += 1
                if name in DURATION_NAMES:
                    state.durations[name].append(duration)
                if state.stack:
                    state.stack[-1][3] += duration
                if frame[4] >= 0:
                    request = tracer.request
                    if request is None:
                        root = state.stack[0][4] if state.stack else frame[4]
                        request = f"span-{root}"
                    tracer.spans[frame[4]] = (
                        name, layer, frame[2], end, parent, request,
                    )
                else:
                    tracer.dropped += 1

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each place its caller looks it up."""
        for module_name, attribute, layer, where in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(original, attribute, layer))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, attribute, layer)
            holders = (
                [sys.modules[name] for name in where]
                if where is not None
                else [
                    mod for name, mod in list(sys.modules.items())
                    if (name == "repro" or name.startswith("repro."))
                    and getattr(mod, attribute, None) is original
                ]
            )
            for holder in holders:
                self._patch(holder, attribute, original, wrapper)

    def _patch(self, owner: Any, attribute: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []
        self.enabled = False

    # -- results -------------------------------------------------------

    def rollup(self) -> Dict[str, Any]:
        """Self time per layer, inclusive time and calls per span name."""
        out: Dict[str, Any] = {
            "self_s": defaultdict(float),
            "inclusive_s": defaultdict(float),
            "calls": defaultdict(int),
            "layer_calls": defaultdict(int),
            "durations": defaultdict(list),
        }
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.self_seconds.items():
                out["self_s"][key] += value
            for key, value in state.inclusive.items():
                out["inclusive_s"][key] += value
            for key, value in state.calls.items():
                out["calls"][key] += value
            for key, value in state.layer_calls.items():
                out["layer_calls"][key] += value
            for key, values in state.durations.items():
                out["durations"][key].extend(values)
        return {key: dict(value) for key, value in out.items()}

    def dump(self, path: str) -> None:
        """Write the kept spans (JSON lines) and a trailer with counts."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")
            fh.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")


def alternate(run_unit: Callable[[bool], Any], window: float, seconds: float,
              tracer: Optional[Tracer] = None) -> Tuple[List[Any], List[Any]]:
    """Warm units of work until ``seconds`` have passed since ``window``.

    Without a tracer every unit is untraced.  With one, units alternate
    untraced and traced (untraced first), so a traced run compares both
    in one process; ``run_unit(traced)`` runs one unit.  Returns the
    untraced and the traced results; each list has at least one entry.
    """
    warm: List[Any] = []
    traced: List[Any] = []
    while True:
        want = tracer is not None and len(traced) < len(warm)
        if tracer is not None:
            tracer.enabled = want
        (traced if want else warm).append(run_unit(want))
        if warm and (tracer is None or traced) and time.perf_counter() - window >= seconds:
            return warm, traced


def merge_rollups(rollups: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several rollups (e.g. one per worker process)."""
    out: Dict[str, Any] = {
        "self_s": defaultdict(float), "inclusive_s": defaultdict(float),
        "calls": defaultdict(int), "layer_calls": defaultdict(int),
        "durations": defaultdict(list),
    }
    for rollup in rollups:
        for section in ("self_s", "inclusive_s", "calls", "layer_calls"):
            for key, value in rollup.get(section, {}).items():
                out[section][key] += value
        for key, values in rollup.get("durations", {}).items():
            out["durations"][key].extend(values)
    return {key: dict(value) for key, value in out.items()}


def diff_rollups(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """What happened between two rollups of one tracer."""
    out: Dict[str, Any] = {}
    for section in ("self_s", "inclusive_s", "calls", "layer_calls"):
        base = before.get(section, {})
        out[section] = {
            key: value - base.get(key, 0) for key, value in after.get(section, {}).items()
        }
    out["durations"] = {
        key: values[len(before.get("durations", {}).get(key, [])):]
        for key, values in after.get("durations", {}).items()
    }
    return out
