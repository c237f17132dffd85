"""Output checks made apart from the program (stdlib only).

The graph is passed as plain adjacency sets the benchmark built itself,
so these checks share no code with the miner they judge.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set

Adjacency = Mapping[int, Set[int]]


def min_degree(size: int, gamma: float) -> int:
    """``ceil(gamma * (size - 1))`` in exact arithmetic."""
    return math.ceil(Fraction(str(gamma)) * (size - 1))


def _connected(adj: Adjacency, members: FrozenSet[int]) -> bool:
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()] & members:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(members)


def is_quasi_clique(adj: Adjacency, members: FrozenSet[int], gamma: float) -> bool:
    need = min_degree(len(members), gamma)
    if any(len(adj[v] & members) < need for v in members):
        return False
    return _connected(adj, members)


def mqc_violations(
    adj: Adjacency,
    sets: Iterable[FrozenSet[int]],
    gamma: float,
    max_size: int,
    min_size: int = 3,
    limit: int = 5,
) -> List[str]:
    """The maximal-quasi-clique properties, containment by hashing.

    Every set is a gamma-quasi-clique with ``min_size <= |S| <=
    max_size``; no set is reported twice; no reported set contains
    another (each proper subset of size >= ``min_size`` is looked up
    in a hash set, instead of comparing every pair); no set below the
    cap extends by one neighbour into a quasi-clique.
    """
    listed = list(sets)
    reported = set(listed)
    out: List[str] = []
    if len(reported) != len(listed):
        out.append("duplicate sets reported")
    for members in reported:
        size = len(members)
        if not min_size <= size <= max_size:
            out.append(f"{sorted(members)}: size out of range")
            continue
        if not is_quasi_clique(adj, members, gamma):
            out.append(f"{sorted(members)}: not a {gamma}-quasi-clique")
        for k in range(min_size, size):
            for sub in itertools.combinations(sorted(members), k):
                if frozenset(sub) in reported:
                    out.append(f"{list(sub)} contained in {sorted(members)}")
        if size < max_size:
            frontier = set().union(*(adj[v] for v in members)) - members
            for u in frontier:
                if is_quasi_clique(adj, members | {u}, gamma):
                    out.append(f"{sorted(members)} extends by {u}")
                    break
        if len(out) >= limit:
            break
    return out


def digest(groups: Iterable[Sequence[int]]) -> str:
    """Order-free fingerprint of a multiset of vertex groups."""
    canonical = sorted(tuple(sorted(group)) for group in groups)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def adjacency_of(edges: Iterable[Sequence[int]], num_vertices: int) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in range(num_vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj
