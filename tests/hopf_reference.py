"""The extraction-contraction coproduct and the (twisted) antipode as they
were written before one extraction pass served all three.

Each function rebuilds its own "product of the extracted parts, contraction
of the rest" loop over the spinneys, exactly as before, so the tests can hold
feynman's single pass to the same DiagramSums, TensorPair lists and BPHZ
values. Nothing here is called by the package.
"""

from __future__ import annotations

import itertools

from wickworks.feynman import (
    Diagram,
    DiagramSum,
    TensorPair,
    connected_components,
    degree,
    is_connected,
    valuate_sum,
)


def proper_divergent_subgraphs(g: Diagram, d) -> list[tuple[frozenset, Diagram]]:
    """Connected full subgraphs on >= 2 vertices with deg <= 0, proper in g."""
    out = []
    n = g.nvertices
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            touched = set()
            for (i, j), _ in g.edges:
                if i in inside and j in inside:
                    touched.add(i)
                    touched.add(j)
            if touched != inside:
                continue  # an isolated vertex cannot join a full subgraph
            sub = g.induced(subset)
            if sub.n_edges() == 0 or not is_connected(sub):
                continue
            if size == n and sub.n_edges() == g.n_edges():
                continue  # the whole diagram is not a proper subgraph
            if degree(sub, d) <= 0:
                out.append((frozenset(subset), sub))
    return out


def spinneys(g: Diagram, d) -> list[list[tuple[frozenset, Diagram]]]:
    """Nonempty families of pairwise vertex-disjoint divergent full subgraphs."""
    candidates = proper_divergent_subgraphs(g, d)
    out = []

    def rec(start, used, current):
        for idx in range(start, len(candidates)):
            vs, sub = candidates[idx]
            if vs & used:
                continue
            chosen = current + [(vs, sub)]
            out.append(chosen)
            rec(idx + 1, used | vs, chosen)

    rec(0, frozenset(), [])
    return out


def ck_coproduct(g: Diagram, d) -> list[TensorPair]:
    if not is_connected(g):
        raise ValueError("the coproduct acts on connected diagrams")
    terms = [
        TensorPair(DiagramSum.of(g), DiagramSum.unit()),
        TensorPair(DiagramSum.unit(), DiagramSum.of(g)),
    ]
    for family in spinneys(g, d):
        left = DiagramSum.unit()
        for _, sub in family:
            left = left * DiagramSum.of(sub)
        right = g.contract([vs for vs, _ in family])
        terms.append(TensorPair(left, DiagramSum.of(right)))
    return terms


def _antipode_connected(g: Diagram, d, _depth=0) -> DiagramSum:
    if _depth > 16:
        raise RecursionError("antipode recursion budget exceeded")
    acc = DiagramSum.of(g, -1)
    for family in spinneys(g, d):
        left = DiagramSum.unit()
        for _, sub in family:
            left = left * _antipode_connected(sub, d, _depth + 1)
        right = g.contract([vs for vs, _ in family])
        acc = acc - left * DiagramSum.of(right)
    return acc


def antipode(g: Diagram, d) -> DiagramSum:
    if g.nvertices == 0:
        return DiagramSum.unit()
    out = DiagramSum.unit()
    for comp in connected_components(g):
        out = out * _antipode_connected(comp, d)
    return out


def twisted_antipode(g: Diagram, d) -> DiagramSum:
    if g.nvertices == 0:
        return DiagramSum.unit()
    out = DiagramSum.unit()
    for comp in connected_components(g):
        if degree(comp, d) > 0:
            return DiagramSum.zero()
        out = out * _antipode_connected(comp, d)
    return out


def bphz_valuate(g: Diagram, d, N: int, route: str = "direct") -> float:
    if not is_connected(g):
        raise ValueError("bphz_valuate acts on connected diagrams")
    if route == "lemma":
        if degree(g, d) <= 0:
            return 0.0
        return -valuate_sum(antipode(g, d), d, N)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    acc = DiagramSum.zero()
    for pair in ck_coproduct(g, d):
        left = DiagramSum.unit()
        for gl, cl in pair.left.terms.items():
            left = left * twisted_antipode(gl, d) * cl
        acc = acc + left * pair.right
    return valuate_sum(acc, d, N)
