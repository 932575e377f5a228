"""Vacuum and external-leg Feynman diagrams for quartic-type field theories.

A diagram is a multigraph whose vertices are numbered 0..V-1; parallel edges
are stored with multiplicities, and external legs are modeled as labeled
arity-1 vertices (so a direct pairing of two external legs is just an edge
between two labeled vertices). Equality and hashing go through a canonical
key, which is what makes symmetry-factor bookkeeping exact: colour refinement
plus individualization (McKay & Piperno 2014) builds a search tree of ordered
vertex partitions, and the key is the smallest relabelled edge and label list
over its discrete leaves, so no vertex permutation is enumerated. Two leaves
with the same relabelled graph give an automorphism, and the search skips
every subtree that the automorphisms found map onto one already searched;
|Aut| is the product of the orbits along the first leaf's path
(orbit-stabilizer). Generation uses the key, |Aut| and the automorphisms: it
adds one vertex at a time, joins it to a state's open legs only up to the
state's automorphisms, keeps one canonical state per isomorphism class at
every step (McKay 1998), and gives each class its matching count
prod n_g! * prod a_v! / (|Aut| * prod m_ij!) without visiting its labelled
presentations.

Valuation works in momentum space: each edge carries a mode in the l1 ball
K_N with weight lambda_k^(-s), momentum is conserved at every vertex, and the
sum is evaluated by series, parallel and pendant reduction of spectral weight
arrays (one convolution per parallel bundle, pointwise product along series
chains, the zero-momentum weight for a pendant edge), with a dedicated
evaluator for the K4 core. The reduction only records its moves; each reader
then computes a bundle on the central l1 ball it uses (the whole weight for
the K4 core and the two-point series) by the two-grid lattice rule of
torusfield.convolution_window, on the smallest grid exact for that ball's
box, and a vacuum value reads a bundle at its centre as a constant term,
with no inverse transform. Every window is kept on its l1 ball, as a
torusfield.Ball. These moves
reduce exactly the graphs without a K4 minor (Duffin 1965), so a leftover
core has every degree >= 3: on four vertices it is K4, and a larger one is
rejected. The K4 evaluator's outer momentum loop visits one momentum per
orbit of the hyperoctahedral group (coordinate permutations and sign flips),
under which every weight array is invariant, and weights each term by the
orbit size. Each term is the mean of a trigonometric polynomial over two
interleaved grids, a rank-2 lattice rule (Sloan & Joe 1994) sized to
integrate it exactly. Renormalization follows the extraction-contraction
coproduct: divergent connected full subgraphs are extracted in all
vertex-disjoint families (spinneys), and the (twisted) antipode recursion
assembles the subtracted valuation as an exact rational combination of
diagram products before any float is produced. One extraction pass serves
the coproduct and both antipodes: it yields each spinney's parts with the
contraction of the rest.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .torusfield import (
    Ball,
    ModeLattice,
    _check_lattice,
    _check_samples,
    _grid_values,
    _mc_blocks,
    _paired_rule_mean,
    _smooth_len,
    _symmetric,
    as_point,
    constant_term,
    convolution_window,
    inverse_weight_ball,
    lattice_rule_size,
)


class Diagram:
    """Multigraph with labeled external (arity-1) vertices, canonically keyed.

    The key (n, edges, labels) is the minimum over the leaves of colour
    refinement plus individualization (see canonical_search); canonical()
    returns the diagram the key describes, already carrying that key.
    """

    __slots__ = ("nvertices", "edges", "labels", "_key")

    def __init__(self, nvertices: int, edges, labels=(), _canonical=False):
        self.nvertices = nvertices
        norm = {}
        for item in dict(edges).items() if isinstance(edges, dict) else edges:
            if isinstance(item[0], tuple):
                (i, j), mult = item
            else:
                i, j = item
                mult = 1
            if not (0 <= i < nvertices and 0 <= j < nvertices):
                raise ValueError("edge endpoint out of range")
            key = (min(i, j), max(i, j))
            norm[key] = norm.get(key, 0) + mult
        self.edges = tuple(sorted((k, m) for k, m in norm.items() if m))
        self.labels = tuple(sorted(tuple(lv) for lv in labels))
        for v, _ in self.labels:
            if not 0 <= v < nvertices:
                raise ValueError("label vertex out of range")
        if nvertices and not _canonical:
            degs = self.degrees()
            for v in range(nvertices):
                if degs[v] == 0:
                    raise ValueError(f"vertex {v} is isolated")
        # a canonical form is its own key
        self._key = (nvertices, self.edges, self.labels) if _canonical else None

    # -- structure ---------------------------------------------------------

    def degrees(self) -> list[int]:
        degs = [0] * self.nvertices
        for (i, j), m in self.edges:
            degs[i] += m
            degs[j] += m  # loops count twice
        return degs

    def arity(self, v: int) -> int:
        return self.degrees()[v]

    def n_edges(self) -> int:
        return sum(m for _, m in self.edges)

    def has_loop(self) -> bool:
        return any(i == j for (i, j), _ in self.edges)

    def is_vacuum(self) -> bool:
        return not self.labels

    def label_of(self, v: int):
        for w, label in self.labels:
            if w == v:
                return label
        return None

    # -- canonical form ----------------------------------------------------

    def canonical_key(self) -> tuple:
        if self._key is None:
            colour = [_colour(a, self.label_of(v)) for v, a in enumerate(self.degrees())]
            self._key = canonical_search(self.nvertices, self.edges, colour, self.labels)[0]
        return self._key

    def canonical(self) -> "Diagram":
        return Diagram(*self.canonical_key(), _canonical=True)

    def __eq__(self, other):
        return isinstance(other, Diagram) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Diagram({self.nvertices}, {list(self.edges)!r}" + (
            f", labels={list(self.labels)!r})" if self.labels else ")"
        )

    # -- operations --------------------------------------------------------

    def relabeled(self, perm: dict) -> "Diagram":
        edges = [((perm[i], perm[j]), m) for (i, j), m in self.edges]
        labels = [(perm[v], label) for v, label in self.labels]
        return Diagram(self.nvertices, edges, labels)

    def disjoint_union(self, other: "Diagram") -> "Diagram":
        shift = self.nvertices
        edges = list(self.edges) + [
            ((i + shift, j + shift), m) for (i, j), m in other.edges
        ]
        labels = list(self.labels) + [(v + shift, label) for v, label in other.labels]
        return Diagram(self.nvertices + other.nvertices, edges, labels)

    def induced(self, vertices) -> "Diagram":
        """Full subgraph on a vertex subset: all parallel edges inside come along."""
        vset = sorted(set(vertices))
        relabel = {v: i for i, v in enumerate(vset)}
        edges = [
            ((relabel[i], relabel[j]), m)
            for (i, j), m in self.edges
            if i in relabel and j in relabel
        ]
        labels = [(relabel[v], label) for v, label in self.labels if v in relabel]
        return Diagram(len(vset), edges, labels)

    def contract(self, parts) -> "Diagram":
        """Replace each vertex set in `parts` by a single vertex.

        Internal edges of each part disappear; everything else survives, so
        the new vertex's arity is the number of edges leaving the part.
        """
        parts = [frozenset(p) for p in parts]
        target = {v: idx for idx, p in enumerate(parts) for v in p}
        if len(target) < sum(len(p) for p in parts):
            raise ValueError("contraction parts must be disjoint")
        outside = [v for v in range(self.nvertices) if v not in target]
        target.update((v, len(parts) + pos) for pos, v in enumerate(outside))
        # an edge inside a part goes; a loop at an outside vertex stays
        edges = [
            ((target[i], target[j]), m)
            for (i, j), m in self.edges
            if target[i] != target[j] or target[i] >= len(parts)
        ]
        labels = [(target[v], label) for v, label in self.labels]
        return Diagram(len(parts) + len(outside), edges, labels)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vertices": self.nvertices,
            "arities": self.degrees(),
            "edges": [[i, j, m] for (i, j), m in self.edges],
            "external": [[v, label] for v, label in self.labels],
            "canonical": self.canonical_key() == (self.nvertices, self.edges, self.labels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagram":
        return cls(
            data["vertices"],
            [((i, j), m) for i, j, m in data["edges"]],
            [(v, label) for v, label in data.get("external", [])],
        )

    def to_dot(self, name: str = "diagram") -> str:
        lines = [f"graph {name} {{"]
        for v in range(self.nvertices):
            label = self.label_of(v)
            shape = 'shape=point' if label is None else f'label="{label}"'
            lines.append(f"  v{v} [{shape}];")
        for (i, j), m in self.edges:
            lines.extend([f"  v{i} -- v{j};"] * m)
        lines.append("}")
        return "\n".join(lines)


def _colour(arity: int, label) -> tuple:
    """A vertex's colour for canonical labelling: its arity and its label
    (the empty string for an internal vertex)."""
    return (arity, str(label or ""))


def canonical_search(
    n: int, edges, colour, labels=(), automorphisms: list | None = None
) -> tuple[tuple, int]:
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
    over the leaves.

    Two leaves with the same relabelled graph differ by an automorphism, so
    a leaf that repeats the first leaf or the best one so far yields one, and
    the search returns to where the two paths part: the subtree there is the
    automorphism's image of one already searched. A node skips every vertex
    of its cell in the orbit of one it has searched, under the automorphisms
    found that fix its path, so each skipped leaf is the image of a searched
    one: the key is the minimum over all leaves, and the automorphisms found
    generate Aut (McKay 1981).
    |Aut| of the coloured, labelled graph, returned second, is the product
    along the first leaf's path of the orbit of each individualized vertex
    under the automorphisms that fix the vertices before it
    (orbit-stabilizer). When `automorphisms` is a list, it receives these
    generators as tuples p, with p[r] the image of vertex r in the key's
    numbering.
    """
    if n == 0:
        return (0, (), ()), 1
    nbrs = [[] for _ in range(n)]
    for (i, j), m in edges:
        nbrs[i].append((m, j))
        if i != j:
            nbrs[j].append((m, i))

    def refine(colour, cells):
        """Refinement rounds on an ordered partition, in place: cells maps the
        position of each cell to its vertices, and colour[v] is the position
        of v's cell. A signature sorts by own colour first, so a round splits
        each cell where it stands, into fragments ranked by their vertices'
        sorted (m, neighbour colour) lists, coded as m * n + colour: the
        ordered partition that re-ranking every signature gives."""
        while len(cells) < n:
            splits = []
            for p, cell in cells.items():
                if len(cell) == 1:
                    continue
                sig = [tuple(sorted([m * n + colour[w] for m, w in nbrs[v]])) for v in cell]
                if len(set(sig)) > 1:
                    splits.append((p, sorted(zip(sig, cell))))
            if not splits:
                return
            for p, ranked in splits:
                start, last = p, ranked[0][0]
                cells[p] = []
                for s, v in ranked:
                    if s != last:
                        start, last = start + len(cells[start]), s
                        cells[start] = []
                    cells[start].append(v)
                    colour[v] = start

    gens = []  # automorphisms found, each as a tuple v -> image
    path = []  # the vertices individualized on the way to the current node
    first = best = None  # (relabelled graph, leaf numbering, path) of a leaf

    def search(colour, cells) -> int:
        """Search the subtree of the current node, and return the depth at
        which to go on: len(path) when nothing was found, else the depth
        where the paths of two leaves with the same relabelled graph part."""
        nonlocal first, best
        depth = len(path)
        refine(colour, cells)
        if len(cells) == n:
            relabelled = []
            for (i, j), m in edges:
                a, b = colour[i], colour[j]
                relabelled.append(((a, b) if a < b else (b, a), m))
            cand_labels = tuple(sorted((colour[v], label) for v, label in labels))
            leaf = ((n, tuple(sorted(relabelled)), cand_labels), colour, tuple(path))
            if first is None:
                first = best = leaf
                return depth
            for known in (first, best):
                if leaf[0] == known[0]:
                    vertex_of = [0] * n
                    for v, r in enumerate(colour):
                        vertex_of[r] = v
                    gens.append(tuple(vertex_of[r] for r in known[1]))
                    common = 0
                    while known[2][common] == path[common]:
                        common += 1
                    return common
            if leaf[0] < best[0]:
                best = leaf
            return depth
        target = min(p for p, cell in cells.items() if len(cell) > 1)
        done = []
        for v in cells[target]:
            if done and not _orbit(v, _fixing(gens, path)).isdisjoint(done):
                continue
            path.append(v)
            # v keeps the cell's position, and its cell-mates move up one
            mates = [u for u in cells[target] if u != v]
            child = list(colour)
            for u in mates:
                child[u] = target + 1
            back = search(child, {**cells, target: [v], target + 1: mates})
            path.pop()
            if back < depth:
                return back
            done.append(v)
        return depth

    order = sorted(range(n), key=colour.__getitem__)
    position, cells = [0] * n, {}
    for k, v in enumerate(order):
        if k == 0 or colour[v] != colour[order[k - 1]]:
            start = k
            cells[start] = []
        cells[start].append(v)
        position[v] = start
    search(position, cells)
    aut = 1
    for i, v in enumerate(first[2]):
        aut *= len(_orbit(v, _fixing(gens, first[2][:i])))
    if automorphisms is not None:
        number = best[1]
        for gen in gens:
            image = [0] * n
            for v, w in enumerate(gen):
                image[number[v]] = number[w]
            automorphisms.append(tuple(image))
    return best[0], aut


def _fixing(perms, points) -> list:
    """The permutations that fix every one of points."""
    return [p for p in perms if all(p[v] == v for v in points)]


def _orbit(point, perms, image=lambda p, x: p[x]) -> set:
    """The orbit of point under the group the permutations generate, each
    acting as image(p, x); by default a vertex x goes to p[x]."""
    orbit, todo = {point}, [point]
    while todo:
        x = todo.pop()
        for p in perms:
            y = image(p, x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


EMPTY = Diagram(0, ())


def single_edge() -> Diagram:
    return Diagram(2, [((0, 1), 1)])


def banana(m: int) -> Diagram:
    """Two vertices joined by m parallel edges."""
    return Diagram(2, [((0, 1), m)])


def double_triangle() -> Diagram:
    """Three vertices pairwise joined by double edges (the 1728-count class)."""
    return Diagram(3, [((0, 1), 2), ((0, 2), 2), ((1, 2), 2)])


def sunset_with_tail() -> Diagram:
    """Triple edge plus a two-valent spectator: edges 0=1 (x3), 0-2, 1-2."""
    return Diagram(3, [((0, 1), 3), ((0, 2), 1), ((1, 2), 1)])


class DiagramSum:
    """Formal rational combination of canonical diagrams; a commutative ring.

    The product is the disjoint union extended bilinearly; the empty diagram
    is the multiplicative unit, so these sums can serve as the value ring of
    the convolution algebra (linked-cluster via log*).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for g, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c:
                    g = g.canonical()
                    self.terms[g] = self.terms.get(g, Fraction(0)) + c
            self.terms = {g: c for g, c in self.terms.items() if c}

    @classmethod
    def zero(cls) -> "DiagramSum":
        return cls()

    @classmethod
    def unit(cls) -> "DiagramSum":
        return cls({EMPTY: 1})

    @classmethod
    def of(cls, diagram: Diagram, coeff=1) -> "DiagramSum":
        return cls({diagram: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, DiagramSum):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __add__(self, other):
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, Fraction(0)) + c
        return DiagramSum(out)

    __radd__ = __add__

    def __neg__(self):
        return DiagramSum({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DiagramSum({g: c * other for g, c in self.terms.items()})
        out = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = g1.disjoint_union(g2).canonical()
                out[g] = out.get(g, Fraction(0)) + c1 * c2
        return DiagramSum(out)

    __rmul__ = __mul__

    def total_coefficient(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def sorted_terms(self) -> list:
        """The (diagram, coefficient) terms in canonical order, which fixes
        the order of every sum over them."""
        return sorted(self.terms.items(), key=lambda item: item[0].canonical_key())

    def filter_connected(self) -> "DiagramSum":
        return DiagramSum({g: c for g, c in self.terms.items() if is_connected(g)})

    def __repr__(self):
        return f"DiagramSum({self.terms!r})"


# ---------------------------------------------------------------------------
# generation


def generate_diagrams(vertex_arities, external_labels=()) -> DiagramSum:
    """All loop-free multigraphs from leg matchings, with multiplicity counts.

    Vertices carry the given arities; each external label contributes one
    arity-1 labeled vertex. Self-pairings inside a vertex are excluded (the
    Wick-ordered powers have no self-contractions), and the coefficient of a
    canonical class is the number of labeled leg matchings realizing it.

    Classes are generated up to isomorphism, one vertex at a time: a state is
    the multigraph induced on the vertices placed so far, each coloured by
    (arity, label, legs still open), and the next vertex joins m_u <= open_u
    legs to each earlier vertex u. Choices m that an automorphism of the
    state maps onto each other give isomorphic states, so only the first of
    each orbit, in lexicographic order, is searched; the state's search found
    the generators, in its canonical numbering. A state with more open legs
    than the arity still to come is dropped, and one state per canonical key
    is kept at every step (McKay 1998, isomorph-free generation). A complete
    class then gets

        coeff = prod_g n_g! * prod_v a_v! / (|Aut| * prod_{i<j} m_ij!),

    with n_g the size of each (arity, label) group of vertices and |Aut| from
    canonical_search.
    """
    internal = len(vertex_arities)
    arities = list(vertex_arities) + [1] * len(external_labels)
    if any(a < 1 for a in arities):
        raise ValueError("arities must be >= 1")
    if sum(arities) % 2:
        raise ValueError("total leg count must be even")
    n = len(arities)
    names = [None] * internal + list(external_labels)
    to_come = [sum(arities[t + 1 :]) for t in range(n)]

    # a state is (colours by vertex, edges, labels) in canonical numbering;
    # the value is |Aut| of the coloured state and generators of Aut
    states = {((), (), ()): (1, [])}
    for t in range(n):
        arity, name = arities[t], names[t]
        # _colour plus open legs, so a complete state's key is its Diagram key
        colour_t = _colour(arity, name)
        grown = {}
        for (colours, edges, labels), (_, gens) in states.items():
            open_legs = [c[2] for c in colours]
            spare = sum(open_legs) + arity - to_come[t]
            # choices in the orbit of an earlier one are skipped: the first
            # choice that reaches each new class is still searched, so the
            # states keep their order
            seen = set()
            # open legs after this step, sum(open) + arity - 2 * sum(take),
            # may not exceed the arity still to come
            for take in _leg_choices(open_legs, (spare + 1) // 2, arity):
                if take in seen:
                    continue
                if gens:
                    # the automorphism p moves the legs taken at p[u] to u
                    seen |= _orbit(take, gens, lambda p, x: tuple([x[u] for u in p]))
                colour = [c[:2] + (c[2] - m,) for c, m in zip(colours, take)]
                colour.append(colour_t + (arity - sum(take),))
                new_edges = edges + tuple(((u, t), m) for u, m in enumerate(take) if m)
                new_labels = labels + ((t, name),) if t >= internal else labels
                found = []
                key, aut = canonical_search(
                    t + 1, new_edges, colour, new_labels, automorphisms=found
                )
                grown.setdefault((tuple(sorted(colour)), key[1], key[2]), (aut, found))
        states = grown

    groups: dict = {}
    for t, (a, name) in enumerate(zip(arities, names)):
        group = (a, t >= internal, name)
        groups[group] = groups.get(group, 0) + 1
    numerator = math.prod(factorial(k) for k in groups.values())
    numerator *= math.prod(factorial(a) for a in arities)
    out = {}
    for (_, edges, labels), (aut, _) in states.items():
        g = Diagram(n, edges, labels, _canonical=True)
        out[g] = Fraction(numerator, aut * math.prod(factorial(m) for _, m in edges))
    return DiagramSum(out)


def _leg_choices(open_legs, least, most) -> list:
    """Tuples m, in lexicographic order, with 0 <= m_u <= open_legs[u] and
    least <= sum(m) <= most."""
    choices = [((), least, most)]  # prefix, least and most still to take
    for u, cap in enumerate(open_legs):
        rest = sum(open_legs[u + 1 :])
        choices = [
            (take + (m,), lo - m, hi - m)
            for take, lo, hi in choices
            for m in range(max(0, lo - rest), min(cap, hi) + 1)
        ]
    return [take for take, lo, _ in choices if lo <= 0]


def connected_components(g: Diagram) -> list[Diagram]:
    if g.nvertices == 0:
        return []
    parent = list(range(g.nvertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (i, j), _ in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    comps: dict[int, list[int]] = {}
    for v in range(g.nvertices):
        comps.setdefault(find(v), []).append(v)
    # a connected g is its own component and keeps any key it carries
    return [g] if len(comps) == 1 else [g.induced(vs) for vs in comps.values()]


def is_connected(g: Diagram) -> bool:
    return len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# power counting


def degree(g: Diagram, d) -> float:
    """deg = d (|V| - c) - (d - 2) |E| with c the component count.

    For connected diagrams this is the usual d(|V| - 1) - (d - 2)|E|; the
    component-aware form keeps the degree additive across disjoint unions.
    """
    c = len(connected_components(g))
    return d * (g.nvertices - c) - (d - 2) * g.n_edges()


def degree_coeffs(g: Diagram) -> tuple[int, int]:
    """(a, b) with deg(Gamma, d) = a + b d, exact integers."""
    c = len(connected_components(g))
    e = g.n_edges()
    return (2 * e, g.nvertices - c - e)


def proper_divergent_subgraphs(g: Diagram, d) -> list[tuple[frozenset, Diagram]]:
    """Connected full subgraphs on >= 2 vertices with deg <= 0, proper in g.

    Returned as (vertex set, induced diagram) pairs; these are the candidates
    the extraction-contraction coproduct sums over. The full subgraph on all
    of g's vertices is g itself, so the sizes stop short of it.
    """
    out = []
    n = g.nvertices
    for size in range(2, n):
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
            if is_connected(sub) and degree(sub, d) <= 0:
                out.append((frozenset(subset), sub))
    return out


def divergent_subgraphs(g: Diagram, d) -> list[Diagram]:
    return [sub for _, sub in proper_divergent_subgraphs(g, d)]


def weinberg_check(g: Diagram, d) -> bool:
    """True when the diagram and all its full subgraphs have positive degree."""
    return degree(g, d) > 0 and not proper_divergent_subgraphs(g, d)


def _extractions(g: Diagram, d):
    """Yield (parts, contracted) for each spinney of g: a nonempty family of
    pairwise vertex-disjoint divergent full subgraphs, and g with each of
    their vertex sets contracted to one vertex. This one pass serves the
    coproduct and both antipodes."""
    candidates = proper_divergent_subgraphs(g, d)

    def rec(start, used, family):
        for idx in range(start, len(candidates)):
            vs, sub = candidates[idx]
            if vs & used:
                continue
            chosen = family + [(vs, sub)]
            yield [s for _, s in chosen], g.contract([v for v, _ in chosen])
            yield from rec(idx + 1, used | vs, chosen)

    return rec(0, frozenset(), [])


def _product(sums) -> DiagramSum:
    """The product of DiagramSums, folded from the unit: the unit for none."""
    out = DiagramSum.unit()
    for s in sums:
        out = out * s
    return out


class TensorPair:
    """One extraction-contraction term: (divergent part) x (contracted rest)."""

    __slots__ = ("left", "right")

    def __init__(self, left: DiagramSum, right: DiagramSum):
        self.left = left
        self.right = right

    def __eq__(self, other):
        return (
            isinstance(other, TensorPair)
            and self.left == other.left
            and self.right == other.right
        )

    def __repr__(self):
        return f"TensorPair({self.left!r}, {self.right!r})"


def ck_coproduct(g: Diagram, d) -> list[TensorPair]:
    """Delta(Gamma) = Gamma x 1 + 1 x Gamma + sum over spinneys of parts x contraction."""
    if not is_connected(g):
        raise ValueError("the coproduct acts on connected diagrams")
    return [
        TensorPair(DiagramSum.of(g), DiagramSum.unit()),
        TensorPair(DiagramSum.unit(), DiagramSum.of(g)),
    ] + [
        TensorPair(_product(map(DiagramSum.of, parts)), DiagramSum.of(contracted))
        for parts, contracted in _extractions(g, d)
    ]


def _antipode_connected(g: Diagram, d, _depth=0) -> DiagramSum:
    if _depth > 16:
        raise RecursionError("antipode recursion budget exceeded")
    acc = DiagramSum.of(g, -1)
    for parts, contracted in _extractions(g, d):
        left = _product(_antipode_connected(sub, d, _depth + 1) for sub in parts)
        acc = acc - left * DiagramSum.of(contracted)
    return acc


def antipode(g: Diagram, d) -> DiagramSum:
    """A(Gamma) = -Gamma - sum A(extracted) . (contracted), multiplicative on unions."""
    return _product(_antipode_connected(c, d) for c in connected_components(g))


def twisted_antipode(g: Diagram, d) -> DiagramSum:
    """A tilde: the antipode gated by divergence, zero on deg > 0 components."""
    comps = connected_components(g)
    if any(degree(c, d) > 0 for c in comps):
        return DiagramSum.zero()
    return _product(_antipode_connected(c, d) for c in comps)


# ---------------------------------------------------------------------------
# valuation


def _model(d) -> tuple[int, float]:
    """(dim, s): the lattice dimension and edge weight lambda_k^(-s) at d.

    d = 1, 2, 3 (an int or an integral float) gives (int(d), 1); a fractional
    3 < d < 4 gives the d = 3 lattice with s = (5-d)/2 (position-space decay
    ||x||^-(d-2)). Every other d raises ValueError, a bool included: True
    is no dimension, though Python counts it as 1."""
    if not isinstance(d, (bool, np.bool_)) and d in (1, 2, 3):
        return int(d), 1.0
    if 3 < d < 4:
        return 3, (5.0 - d) / 2.0
    raise ValueError(f"valuation supports d in {{1, 2, 3}} and fractional (3, 4), got {d!r}")


class _Weight:
    """Spectral weight on a centered cube of given radius: a given Ball, or
    a recorded bundle or series move on other weights.

    The reducer records moves without computing them. A bundle (parallel
    strands: the total momentum splits, so a linear convolution) has the sum
    of its strands' radii; a series product (one momentum through both: the
    pointwise product on the overlap) has the smaller radius. A reader asks
    for the window of radius r it needs, _kept(r), and only then do the
    transforms run. A reader of a whole weight (the two-point series, five
    of the K4 core's six bundles) asks for r = radius. A bundle read at its
    centre (r = 0: a vacuum value, a pendant edge, a series product under
    either) is torusfield.constant_term of its strands' windows: a dot
    product on their common ball for two strands, the two-grid mean for
    more. Any other window is torusfield.convolution_window, the two-grid
    lattice rule on the grid exact for the box of radius r.

    Every window is kept as a torusfield.Ball of its radius r, its entries
    on the l1 ball |k|_1 <= r only: a given weight's crop (Ball.crop), a
    bundle's convolution_window or centre and a series product's product of
    its parts' entries. Every reader uses only that ball: a whole read is
    its support, a strand's read and the K4 core's F_cd are read as Balls
    (torusfield._grid_values), the core unpacks the boxes it slices from its
    Balls, and a series product reads its parts on it. A two-strand centre
    read pairs a whole read, zero off its ball, with the other strand, so
    the entries off the ball that a box would hold only ever met zeros.
    Both reads need every strand even under k -> -k, and every weight is:
    the base weight depends on |k|^2, and bundles and series products of
    even weights are even.

    Within one valuation the reducer shares nodes: a move it records twice on
    the same parts, in the same order, is one node (see _reduced). Each node
    keeps every window it was asked for, one per radius, so a shared node is
    transformed once per radius however many readers it has. The nodes, and
    with them these caches, die with the valuation.
    """

    __slots__ = ("cube", "radius", "move", "parts", "ndim", "_windows")

    def __init__(self, cube: Ball | None, radius: int, move=None, parts=()):
        self.cube = cube
        self.radius = radius
        self.ndim = parts[0].ndim if cube is None else cube.ndim
        self.move = move
        self.parts = parts
        self._windows: dict = {}

    @classmethod
    def bundle(cls, parts, nodes: dict) -> "_Weight":
        parts = tuple(parts)
        return cls._node("bundle", sum(w.radius for w in parts), parts, nodes)

    def series(self, other: "_Weight", nodes: dict) -> "_Weight":
        return self._node("series", min(self.radius, other.radius), (self, other), nodes)

    @classmethod
    def _node(cls, move: str, radius: int, parts: tuple, nodes: dict) -> "_Weight":
        """The node nodes holds under the key (move, parts), made on first use.
        The key keeps the order of the parts, which sets the order of the
        strands into their transforms and so the roundoff."""
        key = (move, parts)
        if key not in nodes:
            nodes[key] = cls(None, radius, move, parts)
        return nodes[key]

    def _kept(self, r: int) -> Ball:
        """The window of radius r as the node keeps it, computed on first use.

        A bundle read at r needs strand i only up to min(r_i, r + sum of the
        other strands' radii): larger momenta on it cannot come back into
        the ball.
        """
        if r not in self._windows:
            self._windows[r] = self._compute_window(r)
        return self._windows[r]

    def _compute_window(self, r: int) -> Ball:
        if self.move is None:
            return self.cube.crop(r)
        if self.move == "series":
            # a pointwise product reads its parts on the same ball, so a bundle
            # under a series node transforms only on the grid that ball needs
            a, b = self.parts
            return Ball(a._kept(r).values * b._kept(r).values, self.ndim, r)
        total = self.radius
        radii = [min(w.radius, r + total - w.radius) for w in self.parts]
        strands = [w._kept(ri) for w, ri in zip(self.parts, radii)]
        if r == 0:
            return Ball(np.array([constant_term(*strands)]), self.ndim, 0)
        return convolution_window(*strands, radius=r)

    def center(self) -> float:
        return self._kept(0).values.item()


@lru_cache(maxsize=None)
def _base_weight(dim: int, N: int, s: float) -> Ball:
    """lambda_k^(-s) on K_N (torusfield.inverse_weight_ball), built once per
    (dim, N, s); read-only, since every valuation shares it."""
    ball = inverse_weight_ball(dim, N, s)
    ball.values.setflags(write=False)
    return ball


class ValuationBudgetError(ValueError):
    pass


def _reduce_series_parallel(lines: dict, nodes: dict, protected=()) -> list:
    """Eliminate pendant and two-valent vertices of a map of lines in place.

    lines: (u, v) with u < v -> the _Weight of every line between u and v,
    parallel lines already one bundle. Each step takes the first vertex, in
    vertex order, that is not in `protected` (the terminals of a two-point
    diagram) and has at most two lines, until two vertices are left or none
    qualifies. A pendant line carries zero momentum, so removing it
    multiplies the value by its weight at the origin; the pendant weights
    are returned. A two-valent vertex's lines p1, p2 become one series node,
    stored under the pair of their far ends, or bundled as [old, new] with
    the line that pair already has, in its place.

    The map keeps the order its lines came in (_reduced enters them in
    g.edges order), each new series line at the end. The lines at a vertex
    are read in that order, so it fixes every recorded node, down to the
    order of a bundle's strands, which sets the roundoff. Each move records
    a bundle or series node, shared through nodes (see _Weight); nothing is
    transformed here, so each reader later computes its node only on the
    window it uses.
    """
    pendants = []
    while True:
        vertices = sorted({v for pair in lines for v in pair})
        if len(vertices) <= 2:
            return pendants
        ends = ([pair for pair in lines if v in pair] for v in vertices if v not in protected)
        at = next((pairs for pairs in ends if len(pairs) <= 2), None)
        if at is None:
            return pendants
        if len(at) == 1:
            pendants.append(lines.pop(at[0]))
            continue
        p1, p2 = at
        new = lines.pop(p1).series(lines.pop(p2), nodes)
        pair = tuple(sorted(set(p1) ^ set(p2)))
        lines[pair] = _Weight.bundle([lines[pair], new], nodes) if pair in lines else new


def _valuate_k4(lines: dict) -> float:
    """Evaluate the irreducible 4-vertex complete-graph core, given as the
    six-line map of _reduce_series_parallel.

    With loop momenta p = k(ab), q = k(ac), r = k(bc) and conservation fixing
    the rest, the value is sum_p F_ab(p) V_p with
    V_p = sum_{q,r} A_p(q) B_p(r) F_cd(q + r), A_p(q) = F_ac(q) F_ad(p + q)
    and B_p(r) = F_bc(r) F_bd(r - p) (F_bd is even). The outer loop runs over
    the bundle with the smallest support. Every weight is invariant under
    coordinate permutations and sign flips (checked here), so the sum over p
    depends only on its orbit: the loop visits one p per orbit and multiplies
    by the orbit size.

    The doubled lines form a perfect matching, and the reducer's shared
    nodes make ad and bc one node, and ac and bd another, so B_p(q + p) =
    A_p(q) and V_p = sum_{q,s} A_p(q) A_p(s) F_cd(q + s + p). A core
    without that identity raises ValuationBudgetError, after the symmetry
    check.

    Each distinct weight is read once, as its node's Ball (_Weight._kept),
    which the core unpacks into a box for the symmetry check: F_ab, F_ac
    and F_ad whole, sliced as boxes, and F_cd as the Ball of radius r =
    min(R_ac + R_ad, R_cd) that (q + p) + s reaches, read on the grids as
    it is; f, its values u + iv on both grids (torusfield._grid_values), is
    formed after both checks. V_p is the constant term of a_p^2 e_p f, with
    a_p and f the trigonometric polynomials of A_p and F_cd and e_p(x) =
    exp(-2 pi i p.x), of l1 degree at most R_ac + R_ad + r. The two-grid
    lattice rule of torusfield.lattice_rule_size, on a 5-smooth M no
    shorter than the blocks below (side at most 2 min(R_ac, R_ad) + 1),
    integrates it exactly: V_p is the mean of a_p^2 e_p f over both grids,
    with no linear convolution and no inverse transform. The degree is
    taken from the radii, and every window is read as it comes: each is a
    torusfield.Ball or a box unpacked from one, so it is exactly zero off
    its l1 ball, and the rule is exact for what is summed.

    Every orbit's p has p_i >= 0, so only F_ac and the corner of F_ad that
    q + p reaches are held through the orbit loop; f and the loop's buffers
    are made after the other boxes are let go.

    A_p is sliced on box_ac & (box_ad - p), with lower corner lo_p, so
    a_p^2 e_p = psi_p alpha_p^2, alpha_p the block's polynomial with its
    index as the momentum and psi_p = exp(-2 pi i (2 lo_p + p).x). The
    orbits with a nonzero F_ab(p) go two at a time, in orbit order, as the
    block A_p + i A_p' (an odd last one alone), written at index 0 of the
    plain grid's row of the core's one transform buffer: one fftn gives
    Z = alpha_p + i alpha_p' on both grids. Both grids are symmetric under
    x -> -x and a real block has alpha(-x) = conj alpha(x), so Z~(x) =
    conj Z(-x) = alpha_p - i alpha_p'. With S = sum psi f Z^2 and X = sum
    psi f Z Z~ over both grids, each with the orbit's own psi, and every
    sum of psi f times two of these polynomials real (its summand at -x is
    the conjugate of that at x), Re S = sum psi f (alpha_p^2 - alpha_p'^2)
    and X = sum psi f (alpha_p^2 + alpha_p'^2). So V_p ~ (Re S_p + X_p)/2
    and V_p' ~ (X_p' - Re S_p')/2, the sums of psi f alpha^2 that
    torusfield._paired_rule_mean forms from alpha_p = (Z + Z~)/2 and
    alpha_p' = (Z - Z~)/2i, in that buffer.
    """
    # the outer pair is the smallest-support bundle, the first in the map on a tie
    a, b = min(lines, key=lambda pair: lines[pair].radius)
    c, dd = sorted({v for pair in lines for v in pair} - {a, b})
    ab, ac, ad, bc, bd, cd = (
        lines[(min(x, y), max(x, y))]
        for x, y in ((a, b), (a, c), (a, dd), (b, c), (b, dd), (c, dd))
    )
    R_ab, R_ac, R_ad = (w.radius for w in (ab, ac, ad))
    r = min(R_ac + R_ad, cd.radius)
    # each distinct read once, unpacked into a box for the symmetry check: a
    # shared node's window is one array. F_cd is read on the grids as its
    # Ball, and only F_ab, F_ac and F_ad are read as boxes after the checks
    boxes: dict = {}
    for w, rw in ((ab, R_ab), (ac, R_ac), (ad, R_ad), (bc, bc.radius), (bd, bd.radius), (cd, r)):
        if (w, rw) not in boxes:
            boxes[w, rw] = w._kept(rw).box()
    F_cd = cd._kept(r)
    F_ab, F_ac, F_ad = (boxes[w, w.radius] for w in (ab, ac, ad))
    for w in (ab, ac, ad, bc, bd, cd):
        # the core is its lines' last reader: no Ball but F_cd's is held
        # beside the boxes unpacked from them
        w._windows.clear()
    for cube in {id(x): x for x in boxes.values()}.values():
        _check_hyperoctahedral(cube)
    if ad is not bc or ac is not bd:
        raise ValuationBudgetError(
            "K4 core whose lines ad and bc, or ac and bd, are not one shared node: "
            "the paired orbit loop valuates a K4 core only when the reducer makes "
            "each pair one node, as for the 3-regular K4 and the doubled perfect "
            "matching; the others wait for the valuation engine for cores beyond "
            "K4 (ROADMAP item 1)"
        )
    dim = F_ab.ndim
    # the grid integrates the rule exactly and holds every block unfolded
    M = _smooth_len(max(lattice_rule_size(R_ac + R_ad + r), 2 * min(R_ac, R_ad) + 1))
    orbits = []
    for p, size in _orbits(dim, R_ab):
        wp = float(F_ab[tuple(t + R_ab for t in p)])
        if wp != 0.0:
            orbits.append((p, size * wp))
    # with p_i in [0, R_ab] and |q_i| <= min(R_ac, R_ad) (_overlap), the
    # loop reads F_ad(q + p) on [first, min(R_ac + R_ab, R_ad)] per axis
    # only: that corner of its box is kept, with momentum first at index 0
    first = -min(R_ac, R_ad)
    F_ad = _box(F_ad, [(first, min(R_ac + R_ab, R_ad))] * dim).copy()
    del boxes, cube, F_ab  # read only above
    # f on the plain and the half-cell grid, once, as u + iv
    f = _grid_values(F_cd, M)
    del F_cd
    # the spectra are a buffer of the core: each pair's blocks are written
    # into spec[0] at index 0, refilled per pair
    spec = np.empty((2,) + (M,) * dim, complex)
    total = 0.0
    for k in range(0, len(orbits), 2):
        pair = orbits[k : k + 2]
        spec[0].fill(0)
        offsets = []
        for part, (p, _) in zip((spec[0].real, spec[0].imag), pair):
            box = [_overlap(R_ac, R_ad, -t) for t in p]  # box_ac & (box_ad - p)
            np.multiply(_box(F_ac, box), _box(F_ad, box, p, first), out=part[_extent(box)])
            offsets.append([2 * lo + t for (lo, _), t in zip(box, p)])
        for (_, weight), value in zip(pair, _paired_rule_mean(offsets, f, spec)):
            total += weight * value
    return total / (4 * M**dim)


def _overlap(R: int, R_other: int, shift: int) -> tuple[int, int]:
    """The range [-R, R] & ([-R_other, R_other] + shift) on one axis; never
    empty here, since the boxes are centred and |shift| <= R_other."""
    return max(-R, shift - R_other), min(R, shift + R_other)


def _box(cube: np.ndarray, box, p=None, first=None) -> np.ndarray:
    """cube(q + p) for q on the box [lo, hi] per axis (p = 0 when omitted),
    where index 0 of the cube holds momentum first on every axis (-radius,
    a centred cube, when omitted)."""
    p = p or [0] * len(box)
    R = cube.shape[0] // 2 if first is None else -first
    return cube[tuple(slice(lo + t + R, hi + t + R + 1) for (lo, hi), t in zip(box, p))]


def _extent(box) -> tuple:
    """The slices that put a block on the box [lo, hi] per axis at index 0."""
    return tuple(slice(0, hi - lo + 1) for lo, hi in box)


def _orbits(dim: int, radius: int):
    """One momentum per hyperoctahedral orbit of the box [-radius, radius]^dim.

    Yields (p, size) with p_0 >= p_1 >= ... >= 0 and size the number of box
    points that coordinate permutations and sign flips carry p to.
    """
    for p in itertools.combinations_with_replacement(range(radius, -1, -1), dim):
        perms = factorial(dim)
        for c in set(p):
            perms //= factorial(p.count(c))
        yield p, perms << sum(1 for c in p if c)


def _check_hyperoctahedral(cube: np.ndarray) -> None:
    """Raise unless cube is invariant under the generators of B_d: a flip of
    axis 0, a swap of axes 0 and 1 and a cyclic shift of the axes."""
    images = [np.flip(cube, 0)]
    if cube.ndim > 1:
        images += [np.swapaxes(cube, 0, 1), np.moveaxis(cube, 0, -1)]
    if not _symmetric(cube, *images):
        raise ValueError(
            "K4 weight is not invariant under coordinate permutations and sign "
            "flips; the orbit loop would sum it wrongly"
        )


def _check_no_loops(g: Diagram) -> None:
    if g.has_loop():
        raise ValueError("self-contractions cannot be valuated; Wick-ordered vertices have none")


def _reduced(g: Diagram, d, N: int, protected=()):
    """Give every line of g the base weight and reduce the graph.

    Returns (factor, lines): the product of the pendant weights at the
    origin and the reduced core, in the layout of _reduce_series_parallel.
    Every line shares one base node, and the table of shared nodes, keyed by
    (move, parts), lives only here.
    """
    _check_no_loops(g)
    dim, s = _model(d)
    _check_lattice(dim, N)  # before the cache, which takes True for 1
    base = _Weight(_base_weight(dim, N, s), N)
    nodes: dict = {}
    lines = {pair: base if m == 1 else _Weight.bundle([base] * m, nodes) for pair, m in g.edges}
    factor = 1.0
    for w in _reduce_series_parallel(lines, nodes, protected):
        factor *= w.center()
    return factor, lines


def _valuate_connected(g: Diagram, d, N: int) -> float:
    factor, lines = _reduced(g, d, N)
    if len(lines) == 1:
        (w,) = lines.values()
        return factor * w.center()
    # six lines with every vertex at least three-valent: K4
    if len(lines) == 6:
        return factor * _valuate_k4(lines)
    n = len({v for pair in lines for v in pair})
    raise ValuationBudgetError(
        f"irreducible core with {n} vertices and "
        f"{len(lines) - n + 1} loops: only series-parallel cores and "
        "the K4 core can be valuated"
    )


@lru_cache(maxsize=None)
def _valuate_cached(key, d, N) -> float:
    """The value of the connected class with canonical key `key`, reduced on
    its canonical form, so each class has one value per (d, N)."""
    return _valuate_connected(Diagram(*key, _canonical=True), d, N)


def valuate(g: Diagram, d, N: int) -> float:
    """Momentum-space value: sum over conserving mode assignments in K_N.

    Each edge carries weight lambda_k^(-s(d)); the value is multiplicative
    over connected components and equals the position-space integral of the
    product of truncated Green functions. It is the product of the cached
    values of g's connected classes, in canonical-key order, so every
    labelling of a class gets the same bits.
    """
    if not g.is_vacuum():
        raise ValueError("external legs present; use valuate_external")
    _check_lattice(_model(d)[0], N)  # once: the cache takes True for 1, and EMPTY has no class
    total = 1.0
    for key in sorted(c.canonical_key() for c in connected_components(g)):
        total *= _valuate_cached(key, d, N)
    return total


# the name perfbench's layer tracing patches; the same function
valuate_cached = valuate


def valuate_sum(s: DiagramSum, d, N: int) -> float:
    """Valuation of a rational diagram combination, in canonical term order."""
    _check_lattice(_model(d)[0], N)  # the empty sum is 0.0 at a supported d and N only
    total = 0.0
    for g, c in s.sorted_terms():
        total += float(c) * valuate(g, d, N)
    return total


def bphz_valuate(g: Diagram, d, N: int) -> float:
    """Renormalized valuation (Pi_N A-tilde x Pi_N) Delta_CK.

    The coproduct terms are assembled as one exact rational diagram
    combination before any of it is valuated.
    """
    if not is_connected(g):
        raise ValueError("bphz_valuate acts on connected diagrams")
    _check_lattice(_model(d)[0], N)  # before the exact assembly, which takes any d
    acc = DiagramSum.zero()
    for pair in ck_coproduct(g, d):
        left = _product(twisted_antipode(gl, d) * cl for gl, cl in pair.left.terms.items())
        acc = acc + left * pair.right
    return valuate_sum(acc, d, N)


_POSITION_BLOCK = 4096  # samples per block of valuate_position_mc


def valuate_position_mc(g: Diagram, d, N: int, samples: int, seed: int):
    """Monte Carlo of the position-space integral, as an oracle for valuate.

    Per connected component one vertex is pinned at the origin (translation
    invariance) and the rest are uniform on the torus, component c drawing
    on from where whole draws of the ones before it end. The driver
    torusfield._mc_blocks (samples >= 2) returns (estimate, stderr) of the
    products over components in blocks of _POSITION_BLOCK samples: memory is
    one (block, |K_N|) array of phases plus the value vector.
    """
    if not g.is_vacuum():
        raise ValueError("external legs present")
    _check_no_loops(g)
    dim, s = _model(d)
    _check_samples(samples, seed)
    lat = ModeLattice(dim, N)
    modes = np.array(lat.modes, dtype=float)
    # numpy's x ** -1.0 is 1 / x to the bit, so integer d keeps its draws
    weights = np.array([float(lat.lam(k)) for k in lat.modes]) ** -s
    comps = connected_components(g)
    starts = itertools.accumulate((samples * c.nvertices * dim for c in comps), initial=0)
    rngs = [np.random.Generator(np.random.PCG64(seed).advance(k)) for k in starts]

    def fill(lo, out):
        out.fill(1.0)
        for comp, rng in zip(comps, rngs):
            pos = rng.uniform(size=(len(out), comp.nvertices, dim))
            pos[:, 0, :] = 0.0
            comp_vals = np.ones(len(out))
            for (i, j), m in comp.edges:
                phase = (pos[:, i, :] - pos[:, j, :]) @ modes.T
                phase *= 2.0 * math.pi
                comp_vals *= (np.cos(phase, out=phase) @ weights) ** m
            out *= comp_vals

    return _mc_blocks(samples, _POSITION_BLOCK, fill)


def _external_bundle(g: Diagram, d, N: int):
    """Scale factor and reduced x-y weight of a two-point diagram, the weight
    read whole: the Ball of the radius of its support, as its node keeps it.

    The two labeled legs fix the momentum flowing through the diagram. With
    the labeled vertices protected, the external component must reduce to a
    single bundle between them (true for every order <= 2 two-point diagram);
    that bundle, external propagators included, does not depend on the
    external momentum, so one reduction serves every mode. The scale factor
    collects the vacuum components and the pendant factors.
    """
    if len(g.labels) != 2:
        raise ValueError("need exactly two external legs")
    # vacuum components factor out of the external one
    comps = connected_components(g)
    vacuum = [c for c in comps if c.is_vacuum()]
    ext_comps = [c for c in comps if not c.is_vacuum()]
    if len(ext_comps) != 1:
        raise ValueError("the two external legs must share a component")
    factor = 1.0
    for c in vacuum:
        factor *= valuate(c, d, N)
    g = ext_comps[0].canonical()
    pendant, lines = _reduced(g, d, N, protected={v for v, _ in g.labels})
    if len(lines) != 1:
        raise ValuationBudgetError("external valuation needs a two-terminal reduction")
    (w,) = lines.values()
    return factor * pendant, w._kept(w.radius)


def valuate_external(g: Diagram, d, N: int, p=None) -> float:
    """Two-terminal valuation at external momentum p (default: the zero mode).

    The reduced x-y weight of _external_bundle, scaled and read at p from
    the one slab of its Ball that holds p; 0.0 off its box, and the slab's
    zero off its ball. Raises ValueError unless every coordinate of p is a
    finite integer.
    """
    dim, _ = _model(d)
    xs = (0.0,) * dim if p is None else as_point(p, dim, "external momentum p =")
    if not all(c.is_integer() for c in xs):
        raise ValueError(f"external momentum p = {p!r} needs finite integer coordinates")
    p = tuple(int(c) for c in xs)
    scale, ball = _external_bundle(g, d, N)
    R = ball.radius
    if any(abs(c) > R for c in p):
        return 0.0
    (slab,) = ball.box(slice(p[0] + R, p[0] + R + 1))
    return scale * float(slab[tuple(c + R for c in p[1:])])


def diagram_sum_to_json(s: DiagramSum) -> list:
    return [
        {"coefficient": [c.numerator, c.denominator], "diagram": g.to_dict()}
        for g, c in s.sorted_terms()
    ]
