"""The series-parallel reducer as it was written before it worked on one map
of lines.

The graph is held twice, as adjacency lists of (neighbour, edge id) entries
and as a table of edge id -> _Weight, with a parallel-merge pass before each
elimination, exactly as before; the K4 core rebuilds its pair table from
both. The tests hold feynman's reducer to the same pendant trees, the same
core and the same valuations. Nothing here is called by the package.
"""

from __future__ import annotations

from wickworks.feynman import (
    Diagram,
    ValuationBudgetError,
    _base_weight,
    _model,
    _valuate_k4 as _valuate_k4_lines,
    _Weight,
    connected_components,
)


def _reduce_series_parallel(adj: dict, weights: dict, nodes: dict, protected=()) -> list:
    """Merge parallel bundles and eliminate pendant and two-valent vertices in place.

    adj: vertex -> multiset of (neighbor, edge id); weights: edge id -> _Weight.
    Returns the pendant weights, in the order they were removed.
    """
    pendants = []
    changed = True
    while changed:
        changed = False
        # parallel merges
        for v in list(adj):
            by_neighbor: dict = {}
            for (u, eid) in adj[v]:
                by_neighbor.setdefault(u, []).append(eid)
            for u, eids in by_neighbor.items():
                if len(eids) > 1 and u > v:
                    weights[eids[0]] = _Weight.bundle([weights[eid] for eid in eids], nodes)
                    for eid in eids[1:]:
                        del weights[eid]
                        adj[v].remove((u, eid))
                        adj[u].remove((v, eid))
                    changed = True
        # pendant and series eliminations (keep at least 2 vertices)
        if len(adj) > 2:
            for v in list(adj):
                if v in protected or len(adj[v]) > 2:
                    continue
                if len(adj[v]) == 1:
                    ((u, e),) = adj[v]
                    pendants.append(weights.pop(e))
                    adj[u].remove((v, e))
                else:
                    (u1, e1), (u2, e2) = adj[v]
                    weights[e1] = weights[e1].series(weights.pop(e2), nodes)
                    adj[u1].remove((v, e1))
                    adj[u2].remove((v, e2))
                    adj[u1].append((u2, e1))
                    adj[u2].append((u1, e1))
                del adj[v]
                changed = True
                break
    return pendants


def _reduced(g: Diagram, d, N: int, protected=()):
    """(pendants, adj, weights): the pendant weights and the reduced core of
    g, every line starting from the shared base node."""
    dim, s = _model(d)
    key = (dim, N, s)
    base = _Weight(_base_weight(*key), N)
    nodes = {key: base}
    adj: dict = {v: [] for v in range(g.nvertices)}
    weights: dict = {}
    eid = 0
    for (i, j), m in g.edges:
        for _ in range(m):
            weights[eid] = base
            adj[i].append((j, eid))
            adj[j].append((i, eid))
            eid += 1
    pendants = _reduce_series_parallel(adj, weights, nodes, protected)
    return pendants, adj, weights


def _valuate_k4(adj: dict, weights: dict) -> float:
    """The K4 core from its pair table, rebuilt in the order the adjacency
    lists give it: by first vertex, then by each list's order."""
    vs = sorted(adj)
    pair_w = {}
    for v in vs:
        for (u, eid) in adj[v]:
            if u > v:
                pair_w[(v, u)] = weights[eid]
    return _valuate_k4_lines(pair_w)


def _valuate_connected(g: Diagram, d, N: int) -> float:
    pendants, adj, weights = _reduced(g, d, N)
    factor = 1.0
    for w in pendants:
        factor *= w.center()
    if len(adj) == 2 and len(weights) == 1:
        (w,) = weights.values()
        return factor * w.center()
    if len(adj) == 4 and len(weights) == 6:
        return factor * _valuate_k4(adj, weights)
    raise ValuationBudgetError(
        f"irreducible core with {len(adj)} vertices and "
        f"{len(weights) - len(adj) + 1} loops: only series-parallel cores and "
        "the K4 core can be valuated"
    )


def valuate(g: Diagram, d, N: int) -> float:
    """The vacuum value, component by component in canonical order."""
    total = 1.0
    for comp in sorted(connected_components(g), key=lambda c: c.canonical_key()):
        total *= _valuate_connected(comp, d, N)
    return total
