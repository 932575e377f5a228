"""The canonical search as it was written before it pruned by automorphisms.

It walks every leaf of its individualization tree, keeps the smallest
relabelled (n, edges, labels) and returns the number of leaves that reach it
as |Aut|. The tests hold `feynman.canonical_search` to the same key and the
same |Aut|; `recorded_searches` and `disagreements` do so for every state
that generate_diagrams searches. Nothing here is called by the package.
"""

from __future__ import annotations

from wickworks import feynman as fy


def canonical_search(n: int, edges, colour, labels=()) -> tuple[tuple, int]:
    """Canonical key and automorphism count of a vertex-coloured multigraph.

    `edges` holds ((i, j), m) pairs on vertices 0..n-1, `colour` gives each
    vertex an initial colour (any mutually comparable values) and `labels`
    holds (v, label) pairs. Colour refinement gives each vertex the signature
    (own colour, sorted multiset of (multiplicity, neighbour colour)) and
    re-ranks the colours by signature until the number of cells stops
    growing; the ordered partition it reaches does not depend on the input
    labelling. While a cell has several vertices, each vertex of the first
    such cell is individualized in turn (ranked just before its cell-mates)
    and the partition refined again (McKay & Piperno 2014). Every discrete
    leaf numbers the vertices by rank, so vertex r carries the r-th smallest
    initial colour, and the key is the smallest relabelled (n, edges, labels)
    over the leaves. Distinct leaves are distinct numberings, two of them give
    the same key exactly when they differ by an automorphism, and the
    automorphisms permute the leaves freely; so the number of leaves that
    reach the key, returned second, is |Aut| of the coloured, labelled graph.
    """
    if n == 0:
        return (0, (), ()), 1
    nbrs = [[] for _ in range(n)]
    for (i, j), m in edges:
        nbrs[i].append((m, j))
        if i != j:
            nbrs[j].append((m, i))

    def refine(colour):
        cells = len(set(colour))
        while True:
            sig = [
                (colour[v], tuple(sorted((m, colour[w]) for m, w in nbrs[v])))
                for v in range(n)
            ]
            rank = {s: r for r, s in enumerate(sorted(set(sig)))}
            colour = [rank[s] for s in sig]
            if len(rank) == cells:
                return colour
            cells = len(rank)

    best, leaves = None, 0
    stack = [list(colour)]
    while stack:
        colour = refine(stack.pop())
        if len(set(colour)) < n:
            first = min(c for c in colour if colour.count(c) > 1)
            for v in range(n):
                if colour[v] == first:
                    stack.append(
                        [2 * c + (c == first and w != v) for w, c in enumerate(colour)]
                    )
            continue
        cand_edges = tuple(
            sorted(
                ((min(colour[i], colour[j]), max(colour[i], colour[j])), m)
                for (i, j), m in edges
            )
        )
        cand_labels = tuple(sorted((colour[v], label) for v, label in labels))
        cand = (n, cand_edges, cand_labels)
        if best is None or cand < best:
            best, leaves = cand, 1
        elif cand == best:
            leaves += 1
    return best, leaves


def recorded_searches(arities, labels=()) -> list:
    """(arguments, (key, |Aut|), generators) of every canonical search that
    feynman.generate_diagrams(arities, labels) runs."""
    calls = []
    search = fy.canonical_search

    def recording(*args, automorphisms=None):
        found = []
        result = search(*args, automorphisms=found)
        if automorphisms is not None:
            automorphisms.extend(found)
        calls.append((args, result, found))
        return result

    fy.canonical_search = recording
    try:
        fy.generate_diagrams(arities, labels)
    finally:
        fy.canonical_search = search
    return calls


def disagreements(calls) -> list:
    """The arguments of the recorded searches whose key or |Aut| differ from
    this module's search, or whose generators are not automorphisms of the
    key generating a group of order |Aut|."""
    return [
        args
        for args, (key, aut), gens in calls
        if (key, aut) != canonical_search(*args)
        or not generates(key, sorted(args[2]), gens, aut)
    ]


def generates(key, colours, gens, order) -> bool:
    """Whether each permutation in gens maps the coloured, labelled graph
    `key` to itself, and together they generate a group of `order` elements."""
    n, edges, labels = key
    for p in gens:
        image = sorted(((min(p[i], p[j]), max(p[i], p[j])), m) for (i, j), m in edges)
        if (
            tuple(image) != edges
            or tuple(sorted((p[v], label) for v, label in labels)) != labels
            or any(colours[p[v]] != colours[v] for v in range(n))
        ):
            return False
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo and len(group) <= order:
        g = todo.pop()
        for p in gens:
            h = tuple(p[v] for v in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return len(group) == order
