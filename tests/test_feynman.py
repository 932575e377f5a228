import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wickworks import feynman as fy
from wickworks import phi4
from wickworks import torusfield as tf
from wickworks.feynman import (
    EMPTY,
    Diagram,
    DiagramSum,
    ValuationBudgetError,
    antipode,
    banana,
    bphz_valuate,
    ck_coproduct,
    connected_components,
    degree,
    degree_coeffs,
    divergent_subgraphs,
    double_triangle,
    generate_diagrams,
    is_connected,
    proper_divergent_subgraphs,
    single_edge,
    sunset_with_tail,
    twisted_antipode,
    valuate,
    valuate_external,
    valuate_position_mc,
    weinberg_check,
)
from wickworks.pairings import enumerate_matchings

import canonical_reference as canon
import dense_reference as dense_ref
import hopf_reference as ref
import k4_reference as k4_ref
import reduction_reference as red
from wickworks.torusfield import ModeLattice, convolve_cubes, wick_integral_variance


def dumbbell() -> Diagram:
    """Two triple-bonded pairs joined by two single edges."""
    return Diagram(4, [((0, 1), 3), ((2, 3), 3), ((0, 2), 1), ((1, 3), 1)])


def double_square() -> Diagram:
    """Four vertices in a cycle of double edges."""
    return Diagram(4, [((0, 1), 2), ((1, 2), 2), ((2, 3), 2), ((0, 3), 2)])


def k4_doubled() -> Diagram:
    """Doubles on (0,1) and (2,3), singles on the four cross pairs."""
    return Diagram(
        4,
        [((0, 1), 2), ((2, 3), 2), ((0, 2), 1), ((0, 3), 1), ((1, 2), 1), ((1, 3), 1)],
    )


def _shifted(w: fy._Weight, target_radius: int, p: tuple) -> np.ndarray:
    """Array S with S[q] = w(q + p) on the centered box of target_radius."""
    dim = w.cube.ndim
    side = 2 * target_radius + 1
    out = np.zeros((side,) * dim)
    src = []
    dst = []
    for ax in range(dim):
        lo = -target_radius + p[ax]
        hi = target_radius + p[ax]
        lo_c = max(lo, -w.radius)
        hi_c = min(hi, w.radius)
        if lo_c > hi_c:
            return out
        src.append(slice(lo_c + w.radius, hi_c + w.radius + 1))
        dst.append(slice(lo_c - p[ax] + target_radius, hi_c - p[ax] + target_radius + 1))
    out[tuple(dst)] = w.cube[tuple(src)]
    return out


def given_weight(cube: np.ndarray) -> fy._Weight:
    """A given weight node: a centred cube's entries on its l1 ball."""
    R = cube.shape[0] // 2
    return fy._Weight(tf.Ball(cube[tf._l1_mask(cube.ndim, R)], cube.ndim, R), R)


def k4_doubled_per_momentum(d: int, N: int) -> float:
    """Independent oracle for valuate(k4_doubled(), d, N): the K4 sum with the
    outer momentum p on the single edge (0, 2) run over every point of K_N.

    With q = k(0->1) and r = k(2->1), conservation leaves
    sum_{p,q,r} F01(q) F03(p+q) F12(r) F23(r-p) F13(q+r).
    """
    base = ModeLattice(d, N).inverse_weight_cube()
    single = fy._Weight(base, N)
    double = fy._Weight(convolve_cubes(base, base), 2 * N)
    core = (slice(2 * N, 4 * N + 1),) * d  # the K_N box inside the radius-3N result
    total = 0.0
    for idx in np.ndindex(base.shape):
        p = tuple(i - N for i in idx)
        A = double.cube * _shifted(single, 2 * N, p)
        B = base * _shifted(double, N, tuple(-c for c in p))
        total += base[idx] * float(np.sum(convolve_cubes(A, B)[core] * base))
    return total


def oracle_weights(d, N: int):
    """The modes of K_N, one per row, and their edge weights lambda_k^(-s):
    the d-dimensional lattice with s = 1 at d = 1, 2, 3, and the d = 3 lattice
    with s = (5-d)/2 at a fractional 3 < d < 4. numpy's x ** -1.0 is 1 / x
    to the bit, so the integer-d weights are the plain inverses."""
    dim, s = (3, (5.0 - d) / 2.0) if 3 < d < 4 else (d, 1.0)
    lat = ModeLattice(dim, N)
    modes = np.array(lat.modes).reshape(-1, dim)
    return modes, np.array([float(lat.lam(k)) for k in lat.modes]) ** -s


def valuate_bruteforce(g: Diagram, d, N: int) -> float:
    """Independent oracle: enumerate every edge-momentum assignment in K_N.

    The assignments run in chunks: np.indices ranges over the modes of the
    last edges while the first edges hold one prefix. One incidence einsum
    gives every vertex's net momentum, and math.fsum adds the weight products
    of the assignments that conserve it everywhere."""
    modes, weights = oracle_weights(d, N)
    edge_list = []
    for (i, j), m in g.edges:
        edge_list.extend([(i, j)] * m)
    incidence = np.zeros((g.nvertices, len(edge_list)), dtype=int)
    for e, (i, j) in enumerate(edge_list):
        incidence[i, e] += 1
        incidence[j, e] -= 1
    M, tail = len(modes), 0
    while tail < len(edge_list) and M ** (tail + 1) <= 2**15:
        tail += 1
    chunk = np.indices((M,) * tail).reshape(tail, M**tail)
    terms = []
    for prefix in itertools.product(range(M), repeat=len(edge_list) - tail):
        assign = np.vstack([np.tile(np.array(prefix, dtype=int)[:, None], M**tail), chunk])
        net = np.einsum("ve,ecx->vcx", incidence, modes[assign])
        conserving = ~net.any(axis=(0, 2))
        terms.extend(np.prod(weights[assign[:, conserving]], axis=0).tolist())
    return math.fsum(terms)


class TestDiagramBasics:
    def test_canonical_equality(self):
        a = Diagram(3, [((0, 1), 2), ((1, 2), 2), ((0, 2), 2)])
        b = Diagram(3, [((2, 1), 2), ((0, 2), 2), ((1, 0), 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_relabel_invariance(self):
        rng = random.Random(0)
        g = dumbbell()
        for _ in range(10):
            perm = list(range(4))
            rng.shuffle(perm)
            assert g.relabeled(dict(enumerate(perm))) == g

    def test_distinct_classes(self):
        assert dumbbell() != double_square()
        assert dumbbell() != k4_doubled()
        assert double_square() != k4_doubled()

    def test_labels_respected(self):
        a = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        b = Diagram(2, [((0, 1), 1)], labels=[(1, "x"), (0, "y")])
        assert a == b  # swapping both endpoints is an isomorphism
        c = Diagram(3, [((0, 1), 1), ((1, 2), 1)], labels=[(0, "x"), (2, "y")])
        d = Diagram(3, [((0, 1), 1), ((1, 2), 1)], labels=[(0, "y"), (2, "x")])
        assert c == d

    def test_brute_force_isomorphism_agrees(self):
        # canonical equality must match brute-force permutation isomorphism
        rng = random.Random(1)
        pool = [
            dumbbell(),
            double_square(),
            k4_doubled(),
            sunset_with_tail(),
            banana(4).disjoint_union(banana(2)),
        ]

        def iso_brute(a, b):
            if a.nvertices != b.nvertices:
                return False
            ea = {tuple(sorted(k)): m for k, m in a.edges}
            for perm in itertools.permutations(range(b.nvertices)):
                eb = {}
                for (i, j), m in b.edges:
                    key = tuple(sorted((perm[i], perm[j])))
                    eb[key] = eb.get(key, 0) + m
                if ea == eb:
                    return True
            return False

        for a in pool:
            for b in pool:
                assert (a == b) == iso_brute(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            Diagram(2, [((0, 5), 1)])
        with pytest.raises(ValueError):
            Diagram(3, [((0, 1), 1)])  # vertex 2 isolated

    def test_loops_representable(self):
        g = Diagram(1, [((0, 0), 1)])
        assert g.has_loop()
        assert g.arity(0) == 2

    def test_serialization_roundtrip(self):
        g = Diagram(3, [((0, 1), 3), ((0, 2), 1), ((1, 2), 1)], labels=[(2, "x")])
        assert Diagram.from_dict(g.to_dict()) == g

    def test_dot_export(self):
        dot = single_edge().to_dot()
        assert "graph" in dot and "v0 -- v1" in dot

    def test_contract_numbering(self):
        # parts first, then the outside vertices in order; the lines inside a
        # part go, and a loop at an outside vertex stays
        g = Diagram(
            6,
            [((0, 1), 2), ((1, 2), 1), ((2, 3), 1), ((3, 3), 1), ((3, 4), 1), ((0, 4), 1), ((4, 5), 1)],
            labels=[(4, "x"), (5, "y")],
        )
        h = g.contract([{5}, {1, 0}])
        assert h.nvertices == 5
        assert h.edges == (((0, 4), 1), ((1, 2), 1), ((1, 4), 1), ((2, 3), 1), ((3, 3), 1), ((3, 4), 1))
        assert h.labels == ((0, "y"), (4, "x"))
        with pytest.raises(ValueError, match="disjoint"):
            g.contract([{0, 1}, {1, 2}])


class TestGeneration:
    def test_two_quartic_vertices(self):
        out = generate_diagrams([4, 4])
        assert out.terms == {banana(4): Fraction(24)}

    def test_three_quartic_vertices(self):
        out = generate_diagrams([4, 4, 4])
        assert out.terms == {double_triangle(): Fraction(1728)}

    def test_external_pair_with_one_vertex_is_empty(self):
        out = generate_diagrams([4], ["x", "y"])
        assert out.terms == {}

    def test_triple_and_double_banana_counts(self):
        assert generate_diagrams([3, 3]).terms == {banana(3): Fraction(6)}
        assert generate_diagrams([2, 2]).terms == {banana(2): Fraction(2)}

    def test_triangle_of_two_valent(self):
        tri = Diagram(3, [((0, 1), 1), ((1, 2), 1), ((0, 2), 1)])
        assert generate_diagrams([2, 2, 2]).terms == {tri: Fraction(8)}

    def test_tailed_sunset_count(self):
        out = generate_diagrams([4, 4, 2])
        assert out.terms == {sunset_with_tail(): Fraction(192)}

    def test_order_four_classes(self):
        out = generate_diagrams([4, 4, 4, 4])
        connected = out.filter_connected()
        assert connected.terms[dumbbell()] == 55296
        # disconnected piece: two separate 4-bananas, 3 * 24^2 matchings
        disc = banana(4).disjoint_union(banana(4))
        assert out.terms[disc] == 3 * 24 * 24
        assert set(connected.terms) == {dumbbell(), double_square(), k4_doubled()}

    def test_total_count_vs_matching_filter(self):
        # loop-free totals agree with color-filtered perfect matchings
        for arities in ([4, 4], [4, 4, 2], [2, 2, 2]):
            legs = []
            for v, a in enumerate(arities):
                legs.extend([v] * a)
            count = 0
            for m in enumerate_matchings(len(legs), perfect_only=True):
                if all(legs[i] != legs[j] for i, j in m.pairs):
                    count += 1
            total = generate_diagrams(arities).total_coefficient()
            assert total == count

    def test_loopy_overcount_is_double_factorial(self):
        # allowing loops, the number of matchings of 4n legs is (4n-1)!!
        from wickworks.polyalg import double_factorial

        n = 2
        legs = 4 * n
        assert (
            sum(1 for _ in enumerate_matchings(legs, perfect_only=True))
            == double_factorial(legs - 1)
        )

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            generate_diagrams([3])

    def test_two_point_order2_contains_chain(self):
        out = generate_diagrams([4, 4], ["x", "y"])
        chain = Diagram(
            4,
            [((0, 1), 3), ((0, 2), 1), ((1, 3), 1)],
            labels=[(2, "x"), (3, "y")],
        )
        assert chain in out.terms
        assert out.terms[chain] == 192
        # and the disconnected direct propagator times a vacuum banana
        direct = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        disc = direct.disjoint_union(banana(4))
        assert out.terms[disc] == 24


def vertex_colours(g: Diagram) -> list:
    """The colours canonical_key hands canonical_search, one per vertex."""
    return [fy._colour(a, g.label_of(v)) for v, a in enumerate(g.degrees())]


def automorphism_count(g: Diagram) -> int:
    """|Aut(g)| by brute force over vertex permutations fixing labelled vertices."""
    fixed = {v for v, _ in g.labels}
    edges = dict(g.edges)
    count = 0
    for perm in itertools.permutations(range(g.nvertices)):
        if any(perm[v] != v for v in fixed):
            continue
        image = {(min(perm[i], perm[j]), max(perm[i], perm[j])): m for (i, j), m in g.edges}
        count += image == edges
    return count


def prism() -> Diagram:
    """Triangular prism: two triangles 0-1-2 and 3-4-5 joined by rungs i - i+3."""
    return Diagram(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    )


def k33() -> Diagram:
    return Diagram(6, [(i, j) for i in range(3) for j in range(3, 6)])


COEFFICIENT_CASES = [
    ([4] * 5, ()),
    ([4] * 6, ()),
    ([3, 3, 3, 3], ()),
    ([4, 4, 2], ()),
    ([4, 3, 3, 2], ()),
    ([3, 3, 1, 1], ()),
    ([4, 4], ("x", "y")),
]


class TestCanonicalLabelling:
    # Oracle for the canonical classes: a class's matching count is
    # prod n_g! * prod a_v! / (|Aut| * prod m_ij!), with n_g the size of each
    # arity group of unlabelled vertices and Aut fixing the labelled ones.
    # Merging two classes or splitting one breaks the equality.
    @pytest.mark.parametrize("arities, labels", COEFFICIENT_CASES)
    def test_coefficients_from_automorphisms(self, arities, labels):
        out = generate_diagrams(arities, labels)
        assert out.terms
        for g, coeff in out.terms.items():
            labelled = {v for v, _ in g.labels}
            degs = g.degrees()
            groups = {}
            for v in range(g.nvertices):
                if v not in labelled:
                    groups[degs[v]] = groups.get(degs[v], 0) + 1
            num = math.prod(math.factorial(k) for k in groups.values())
            num *= math.prod(math.factorial(a) for a in degs)
            den = automorphism_count(g) * math.prod(math.factorial(m) for _, m in g.edges)
            assert coeff == Fraction(num, den), g

    def test_refinement_equivalent_pairs_are_distinct(self):
        # each pair is regular with equal degrees, so colour refinement alone
        # leaves one cell; only individualization tells them apart
        assert prism() != k33()
        doubled_hexagon = Diagram(6, [((i, (i + 1) % 6), 2) for i in range(6)])
        two_doubled_triangles = Diagram(
            6, [((0, 1), 2), ((1, 2), 2), ((0, 2), 2), ((3, 4), 2), ((4, 5), 2), ((3, 5), 2)]
        )
        assert doubled_hexagon != two_doubled_triangles
        rng = random.Random(3)
        for g in (prism(), k33(), doubled_hexagon, two_doubled_triangles):
            perm = list(range(6))
            rng.shuffle(perm)
            assert g.relabeled(dict(enumerate(perm))).canonical_key() == g.canonical_key()

    def test_order6_keys_survive_relabelling(self):
        rng = random.Random(6)
        classes = generate_diagrams([4] * 6).terms
        assert len(classes) == 24
        for g in classes:
            key = g.canonical_key()
            for _ in range(20):
                perm = list(range(g.nvertices))
                rng.shuffle(perm)
                assert g.relabeled(dict(enumerate(perm))).canonical_key() == key

    def test_canonical_form_carries_its_key(self):
        chain = Diagram(
            4, [((0, 1), 3), ((0, 2), 1), ((1, 3), 1)], labels=[(2, "x"), (3, "y")]
        )
        for g in (dumbbell(), k4_doubled(), prism(), chain):
            key = g.canonical_key()
            c = g.canonical()
            assert c._key == key
            assert (c.nvertices, c.edges, c.labels) == key
            c._key = None
            assert c.canonical_key() == key


class TestPrunedSearch:
    """canonical_search against the search that walks every leaf
    (tests/canonical_reference.py): the same key and the same |Aut|."""

    @pytest.mark.parametrize(
        "arities, labels", [([4] * n, ()) for n in range(2, 8)] + COEFFICIENT_CASES
    )
    def test_every_searched_state_matches_the_reference(self, arities, labels):
        calls = canon.recorded_searches(arities, labels)
        assert calls
        assert canon.disagreements(calls) == []

    def test_relabelled_order6_classes_match_the_reference(self):
        rng = random.Random(21)
        for g in generate_diagrams([4] * 6).terms:
            for _ in range(20):
                perm = list(range(g.nvertices))
                rng.shuffle(perm)
                h = g.relabeled(dict(enumerate(perm)))
                colour = vertex_colours(h)
                got = fy.canonical_search(h.nvertices, h.edges, colour, h.labels)
                assert got == canon.canonical_search(h.nvertices, h.edges, colour, h.labels)
                assert got[0] == g.canonical_key()

    def test_random_coloured_labelled_graphs_match_the_reference(self):
        # loops, parallel lines, and colours and labels drawn independently
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 7)
            lines = Counter()
            for _ in range(rng.randint(0, 2 * n)):
                i, j = sorted((rng.randrange(n), rng.randrange(n)))
                lines[i, j] += rng.randint(1, 2)
            edges = tuple(sorted(lines.items()))
            colour = [rng.randrange(2) for _ in range(n)]
            labels = tuple((v, rng.choice("xy")) for v in range(n) if rng.random() < 0.3)
            gens = []
            got = fy.canonical_search(n, edges, colour, labels, automorphisms=gens)
            assert got == canon.canonical_search(n, edges, colour, labels), (edges, colour, labels)
            assert canon.generates(got[0], sorted(colour), gens, got[1])

    @pytest.mark.parametrize(
        "g, copies, aut", [(double_triangle(), 4, 6**4 * 24), (banana(4), 5, 2**5 * 120)]
    )
    def test_disjoint_unions_match_the_reference(self, g, copies, aut):
        # |Aut| of k copies of G is |Aut G|^k k!
        union = EMPTY
        for _ in range(copies):
            union = union.disjoint_union(g)
        colour = vertex_colours(union)
        args = (union.nvertices, union.edges, colour, union.labels)
        gens = []
        key, got = fy.canonical_search(*args, automorphisms=gens)
        assert got == aut
        assert (key, got) == canon.canonical_search(*args)
        assert canon.generates(key, sorted(colour), gens, aut)


def labelled_matching_sum(vertex_arities, external_labels=()) -> DiagramSum:
    """Brute-force oracle for generate_diagrams over labelled presentations.

    Walks every loop-free multigraph on the numbered vertices (each external
    label one arity-1 vertex), each vertex in turn pairing its open legs with
    later vertices, and credits it prod_v a_v! / prod_{i<j} m_ij! leg
    matchings. Presentations are sorted into classes by applying every vertex
    permutation that keeps arity and label, so only one canonical key per
    class is computed, when the sum is built; two classes sharing a key fail
    the assertion at the end.
    """
    arities = list(vertex_arities) + [1] * len(external_labels)
    n = len(arities)
    labels = [(len(vertex_arities) + i, label) for i, label in enumerate(external_labels)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: p for p, pair in enumerate(pairs)}
    groups = {}
    for v, colour in enumerate([(a, None) for a in vertex_arities] +
                               [(1, label) for label in external_labels]):
        groups.setdefault(colour, []).append(v)
    # image[k, p]: where vertex permutation k sends pair p
    image = []
    for images in itertools.product(*(itertools.permutations(vs) for vs in groups.values())):
        perm = list(range(n))
        for vs, img in zip(groups.values(), images):
            for v, w in zip(vs, img):
                perm[v] = w
        image.append([index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in pairs])
    image = np.array(image, dtype=np.intp).reshape(len(image), len(pairs))
    rows = np.arange(len(image))[:, None]
    matchings = math.prod(math.factorial(a) for a in arities)
    mult = np.zeros(len(pairs), dtype=np.uint8)
    remaining = list(arities)
    which, reps, totals = {}, [], []

    def fill(i, first, den):
        # vertices before i are saturated, i pairs its legs with j >= first,
        # and den is prod m_ij! over the pairs chosen so far
        while i < n and not remaining[i]:
            i, first = i + 1, i + 2
        if i == n:
            cls = which.get(mult.tobytes())
            if cls is None:
                cls = len(reps)
                orbit = np.zeros_like(image, dtype=np.uint8)
                orbit[rows, image] = mult
                for row in orbit:
                    which[row.tobytes()] = cls
                edges = [(pair, int(m)) for pair, m in zip(pairs, mult) if m]
                reps.append(Diagram(n, edges, labels))
                totals.append(0)
            totals[cls] += matchings // den
            return
        if remaining[i] > sum(remaining[first:]):
            return
        for j in range(first, n):
            p = index[i, j]
            for m in range(1, min(remaining[i], remaining[j]) + 1):
                remaining[i] -= m
                remaining[j] -= m
                mult[p] = m
                fill(i, j + 1, den * math.factorial(m))
                remaining[i] += m
                remaining[j] += m
            mult[p] = 0

    fill(0, 1, 1)
    out = DiagramSum(zip(reps, totals))
    assert len(out.terms) == len(reps)
    return out


def matchings_without_self_pairs(arities) -> int:
    """Perfect matchings of all legs with no pair inside one vertex.

    Inclusion-exclusion over k_v forced self-pairs at each vertex v:
    sum prod_v (-1)^k_v C(a_v, 2 k_v) (2 k_v - 1)!! * (L - 2K - 1)!!.
    """
    def double_factorial(m):
        return math.prod(range(m, 0, -2))

    legs = sum(arities)
    total = 0
    for ks in itertools.product(*(range(a // 2 + 1) for a in arities)):
        term = double_factorial(legs - 2 * sum(ks) - 1)
        for a, k in zip(arities, ks):
            term *= (-1) ** k * math.comb(a, 2 * k) * double_factorial(2 * k - 1)
        total += term
    return total


class TestIsomorphFreeGeneration:
    @pytest.mark.parametrize(
        "arities, labels",
        [([4] * n, ()) for n in range(4, 8)]
        + [
            ([4] * 4 + [2] * 2, ()),
            ([4] * 5 + [2] * 3, ()),
            ([3, 3, 1, 1], ()),
            ([4, 4], ("x", "x")),
            ([4] * 4, ("x", "y", "x", "y")),
            ([], ()),
            ([4], ()),
            ([1], ("x",)),
            ([], ("x", "y")),
        ]
        + [([4] * n, ("x", "y")) for n in range(1, 5)],
    )
    def test_matches_labelled_enumeration(self, arities, labels):
        assert generate_diagrams(arities, labels) == labelled_matching_sum(arities, labels)

    def test_arity_and_parity_errors(self):
        for arities, labels in [([4, 0, 2], ()), ([4, -1, 3], ()), ([3], ()), ([4], ("x",))]:
            with pytest.raises(ValueError):
                generate_diagrams(arities, labels)

    def test_order_seven(self):
        out = generate_diagrams([4] * 7)
        assert len(out.terms) == 60
        assert out.total_coefficient() == matchings_without_self_pairs([4] * 7)

    def test_keys_far_fewer_than_labelled_presentations(self, monkeypatch):
        # labelled enumeration keys 3 379 presentations at order 6
        calls = []
        search = fy.canonical_search

        def counted(*args, **kw):
            calls.append(1)
            return search(*args, **kw)

        monkeypatch.setattr(fy, "canonical_search", counted)
        assert len(generate_diagrams([4] * 6).terms) == 24
        # 713 when every leg choice of a state is searched, 482 up to the
        # state's automorphisms
        assert 0 < len(calls) <= 482

    def test_leaf_count_is_automorphism_count(self):
        for g in (prism(), k33(), dumbbell(), k4_doubled(), double_triangle(), banana(4)):
            colour = vertex_colours(g)
            key, aut = fy.canonical_search(g.nvertices, g.edges, colour, g.labels)
            assert key == g.canonical_key()
            assert aut == automorphism_count(g)


class TestConnectivity:
    def test_connected(self):
        assert is_connected(banana(4))
        assert is_connected(double_triangle())
        g = double_triangle().canonical()
        assert connected_components(g)[0] is g

    def test_disconnected(self):
        g = banana(4).disjoint_union(banana(4))
        assert not is_connected(g)
        assert len(connected_components(g)) == 2

    def test_components_partition_edges(self):
        g = banana(3).disjoint_union(double_triangle())
        comps = connected_components(g)
        assert sorted(c.n_edges() for c in comps) == [3, 6]


    def test_valuating_a_canonical_class_reuses_its_key(self, monkeypatch):
        # a _valuate_cached miss on a connected class needs no canonical search
        key = double_triangle().canonical_key()
        search, calls = fy.canonical_search, []

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(fy, "canonical_search", counting)
        value = fy._valuate_cached.__wrapped__(key, 3, 4)
        assert calls == []
        assert value == valuate(double_triangle(), 3, 4)


class TestDegrees:
    def test_symbolic_rows(self):
        assert degree_coeffs(banana(3)) == (6, -2)  # 6 - 2d
        assert degree_coeffs(sunset_with_tail()) == (10, -3)  # 10 - 3d
        assert degree_coeffs(banana(4)) == (8, -3)  # 8 - 3d
        assert degree_coeffs(double_triangle()) == (12, -4)

    def test_numeric_values(self):
        assert degree(banana(3), 3) == 0
        assert degree(sunset_with_tail(), 3) == 1
        assert degree(banana(4), 3) == -1
        assert degree(banana(3), 2) == 2

    def test_additive_under_extraction_contraction(self):
        for g, d in [(dumbbell(), 3), (sunset_with_tail(), 3), (k4_doubled(), 3.5)]:
            for vs, sub in proper_divergent_subgraphs(g, 4.0):
                contracted = g.contract([vs])
                assert degree(sub, d) + degree(contracted, d) == pytest.approx(
                    degree(g, d)
                )

    def test_additive_over_unions(self):
        g = banana(3).disjoint_union(banana(4))
        assert degree(g, 3) == degree(banana(3), 3) + degree(banana(4), 3)


class TestSubdivergences:
    def test_fgiv_primitive_at_d1(self):
        assert divergent_subgraphs(banana(4), 1) == []
        assert weinberg_check(banana(4), 1)

    def test_tailed_sunset_contains_bubble(self):
        subs = divergent_subgraphs(sunset_with_tail(), 3)
        assert banana(3) in subs

    def test_bubble_clean_at_d2(self):
        assert divergent_subgraphs(banana(3), 2) == []
        assert degree(banana(3), 2) == 2

    def test_weinberg_all_order3_vacuum_at_d1(self):
        for arities in ([4, 4], [4, 4, 4]):
            for g in generate_diagrams(arities).terms:
                for comp in connected_components(g):
                    assert weinberg_check(comp, 1)

    def test_dumbbell_two_disjoint_bubbles(self):
        subs = proper_divergent_subgraphs(dumbbell(), 3)
        bubbles = [vs for vs, sub in subs if sub == banana(3)]
        assert len(bubbles) == 2
        assert bubbles[0].isdisjoint(bubbles[1])


class TestHopf:
    def test_coproduct_tailed_sunset(self):
        terms = ck_coproduct(sunset_with_tail(), 3)
        assert len(terms) == 3
        extracted = terms[2]
        assert extracted.left == DiagramSum.of(banana(3))
        assert extracted.right == DiagramSum.of(banana(2))

    def test_coproduct_primitive_at_d1(self):
        terms = ck_coproduct(banana(4), 1)
        assert len(terms) == 2

    def _expand_triples(self, g, d, side):
        """Collect (A, B, C) canonical triples of (Delta x id)Delta or (id x Delta)Delta."""

        def delta_of_diagram(h):
            if h.nvertices == 0:
                return [(DiagramSum.unit(), DiagramSum.unit())]
            out = [(DiagramSum.unit(), DiagramSum.unit())]
            for comp in connected_components(h):
                comp_terms = [
                    (p.left, p.right) for p in ck_coproduct(comp, d)
                ]
                out = [
                    (l1 * l2, r1 * r2)
                    for (l1, r1) in out
                    for (l2, r2) in comp_terms
                ]
            return out

        triples = {}
        for pair in ck_coproduct(g, d):
            base_left, base_right = pair.left, pair.right
            if side == "left":
                for gl, cl in base_left.terms.items():
                    for (a, b) in delta_of_diagram(gl):
                        for gr, cr in base_right.terms.items():
                            for ga, ca in a.terms.items():
                                for gb, cb in b.terms.items():
                                    key = (ga, gb, gr)
                                    triples[key] = triples.get(key, Fraction(0)) + (
                                        cl * cr * ca * cb
                                    )
            else:
                for gr, cr in base_right.terms.items():
                    for (b, c) in delta_of_diagram(gr):
                        for gl, cl in base_left.terms.items():
                            for gb, cb in b.terms.items():
                                for gc, cc in c.terms.items():
                                    key = (gl, gb, gc)
                                    triples[key] = triples.get(key, Fraction(0)) + (
                                        cl * cr * cb * cc
                                    )
        return {k: v for k, v in triples.items() if v}

    def test_coassociativity_tailed_sunset(self):
        g = sunset_with_tail()
        assert self._expand_triples(g, 3, "left") == self._expand_triples(g, 3, "right")

    def test_coassociativity_dumbbell(self):
        g = dumbbell()
        assert self._expand_triples(g, 3, "left") == self._expand_triples(g, 3, "right")

    def test_antipode_primitive(self):
        assert antipode(banana(4), 1) == DiagramSum.of(banana(4), -1)

    def test_antipode_tailed_sunset(self):
        got = antipode(sunset_with_tail(), 3)
        expected = DiagramSum.of(sunset_with_tail(), -1) + DiagramSum.of(
            banana(3).disjoint_union(banana(2)), 1
        )
        assert got == expected

    def test_antipode_multiplicative(self):
        g1, g2 = banana(4), sunset_with_tail()
        union = g1.disjoint_union(g2)
        assert antipode(union, 3) == antipode(g1, 3) * antipode(g2, 3)

    def test_antipode_dumbbell(self):
        g = dumbbell()
        got = antipode(g, 3)
        third = sunset_with_tail()
        expected = (
            DiagramSum.of(g, -1)
            + DiagramSum.of(banana(3).disjoint_union(third), 2)
            - DiagramSum.of(
                banana(3).disjoint_union(banana(3)).disjoint_union(banana(2)), 1
            )
        )
        assert got == expected

    def test_twisted_antipode_gates_on_degree(self):
        assert twisted_antipode(banana(4), 1) == DiagramSum.zero()  # deg 5 > 0
        assert twisted_antipode(banana(3), 3) == DiagramSum.of(banana(3), -1)

    def test_antipode_hopf_identity(self):
        # M(A x id) Delta (Gamma) = 0 for non-unit Gamma
        for g, d in [(sunset_with_tail(), 3), (dumbbell(), 3), (banana(4), 3)]:
            acc = DiagramSum.zero()
            for pair in ck_coproduct(g, d):
                left_ant = DiagramSum.unit()
                for gl, cl in pair.left.terms.items():
                    left_ant = left_ant * antipode(gl, d) * cl
                acc = acc + left_ant * pair.right
            assert acc == DiagramSum.zero()


def quartic_classes(orders, labels=()) -> list[Diagram]:
    """Every class of n quartic vertices and the given external legs, n in orders."""
    return [g for n in orders for g in generate_diagrams([4] * n, labels).terms]


def extraction_cases() -> list[Diagram]:
    """Vacuum classes through order 5, two-point classes through order 3 and
    the tailed sunset, whose two-valent vertex no quartic class has."""
    return (
        quartic_classes(range(1, 6))
        + quartic_classes(range(1, 4), ("x", "y"))
        + [sunset_with_tail()]
    )


class TestOneExtractionPass:
    # the coproduct, both antipodes and the BPHZ routes read one extraction
    # pass; hopf_reference keeps the loops each of them had before, as the
    # oracle
    @pytest.mark.parametrize("d", [1, 3])
    def test_subgraphs_keep_their_order(self, d):
        for g in extraction_cases():
            got = [(vs, sub.nvertices, sub.edges, sub.labels)
                   for vs, sub in proper_divergent_subgraphs(g, d)]
            old = [(vs, sub.nvertices, sub.edges, sub.labels)
                   for vs, sub in ref.proper_divergent_subgraphs(g, d)]
            assert got == old, g

    @pytest.mark.parametrize("d", [1, 3])
    def test_coproduct_matches_the_oracle(self, d):
        for g in filter(is_connected, extraction_cases()):
            assert ck_coproduct(g, d) == ref.ck_coproduct(g, d), g

    @pytest.mark.parametrize("d", [1, 3])
    def test_antipodes_match_the_oracle(self, d):
        # disconnected classes too: both antipodes multiply over components
        for g in extraction_cases():
            assert antipode(g, d) == ref.antipode(g, d), g
            assert twisted_antipode(g, d) == ref.twisted_antipode(g, d), g

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("N", [2, 4])
    def test_bphz_keeps_its_bits(self, d, N):
        # every connected vacuum class up to the valuation limit, order 4
        for g in filter(is_connected, quartic_classes(range(1, 5))):
            got = bphz_valuate(g, d, N)
            for route in ("direct", "lemma"):
                assert got.hex() == ref.bphz_valuate(g, d, N, route=route).hex(), (g, route)

    def test_empty_diagram_is_the_unit(self):
        for d in (1, 3):
            assert antipode(EMPTY, d) == twisted_antipode(EMPTY, d) == DiagramSum.unit()
            assert ref.antipode(EMPTY, d) == DiagramSum.unit()


class TestValuate:
    def test_single_edge_is_one(self):
        assert valuate(single_edge(), 1, 8) == 1.0
        assert valuate(single_edge(), 2, 4) == 1.0

    def test_integral_float_dimension(self):
        # the caches key 3.0 and 3 alike: cleared, so the float runs
        fy._valuate_cached.cache_clear()
        fy._base_weight.cache_clear()
        assert valuate(banana(2), 3.0, 4) == valuate(banana(2), 3, 4)
        mc = valuate_position_mc(banana(2), 1.0, 2, samples=100, seed=1)
        assert mc == valuate_position_mc(banana(2), 1, 2, samples=100, seed=1)

    def test_empty_is_one(self):
        assert valuate(EMPTY, 1, 4) == 1.0

    def test_banana4_bruteforce_d1(self):
        got = valuate(banana(4), 1, 3)
        assert got == pytest.approx(valuate_bruteforce(banana(4), 1, 3), rel=1e-12)

    def test_banana4_equals_wick_variance(self):
        for d, N in [(1, 6), (2, 3)]:
            got = valuate(banana(4), d, N)
            assert got == pytest.approx(
                wick_integral_variance(d, N, 4) / 24.0, rel=1e-10
            )

    def test_double_triangle_bruteforce_d1(self):
        got = valuate(double_triangle(), 1, 2)
        assert got == pytest.approx(
            valuate_bruteforce(double_triangle(), 1, 2), rel=1e-12
        )

    def test_tailed_sunset_bruteforce_d1(self):
        got = valuate(sunset_with_tail(), 1, 2)
        assert got == pytest.approx(
            valuate_bruteforce(sunset_with_tail(), 1, 2), rel=1e-12
        )

    def test_order4_cores_bruteforce_d1(self):
        for g in (dumbbell(), double_square(), k4_doubled()):
            got = valuate(g, 1, 2)
            assert got == pytest.approx(valuate_bruteforce(g, 1, 2), rel=1e-11), g

    def test_isomorphism_invariance(self):
        rng = random.Random(2)
        g = k4_doubled()
        base = valuate(g, 1, 3)
        for _ in range(3):
            perm = list(range(4))
            rng.shuffle(perm)
            relabeled = g.relabeled(dict(enumerate(perm)))
            assert valuate(relabeled, 1, 3) == pytest.approx(base, rel=1e-12)

    def test_multiplicative_over_unions(self):
        g = banana(4).disjoint_union(banana(3))
        assert valuate(g, 1, 3) == pytest.approx(
            valuate(banana(4), 1, 3) * valuate(banana(3), 1, 3), rel=1e-12
        )

    def test_fractional_dimension_weights(self):
        # fractional d uses the d = 3 lattice with softer edge weights, so the
        # value must exceed the d = 3 one for the same diagram
        v3 = valuate(banana(3), 3, 3)
        v35 = valuate(banana(3), 3.5, 3)
        assert v35 > v3

    def test_rejects_externals(self):
        g = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        with pytest.raises(ValueError):
            valuate(g, 1, 4)

    def test_budget_guard(self):
        # a 5-vertex 3-regular-ish non-SP graph should trip the nested budget:
        # the Petersen-like core K5 minus enough edges is overkill; use K4 plus
        # a pendant chain arrangement that stays irreducible with 5 vertices
        g = Diagram(
            5,
            [
                ((0, 1), 1),
                ((0, 2), 1),
                ((0, 3), 1),
                ((0, 4), 2),
                ((1, 2), 1),
                ((1, 3), 1),
                ((1, 4), 1),
                ((2, 3), 1),
                ((2, 4), 1),
                ((3, 4), 1),
            ],
        )
        with pytest.raises(ValuationBudgetError):
            valuate(g, 2, 16)


def relabellings(g: Diagram, count: int, rng: random.Random) -> list[Diagram]:
    """count random relabellings of g's vertices."""
    out = []
    for _ in range(count):
        perm = list(range(g.nvertices))
        rng.shuffle(perm)
        out.append(g.relabeled(dict(enumerate(perm))))
    return out


class TestOneValuePerClass:
    """A class has one value per (d, N): its canonical form's, whatever
    labelling it is handed in."""

    @pytest.mark.parametrize("d, Ns", [(1, (2, 8)), (2, (1, 4)), (3, (1, 3)), (3.5, (1, 2))])
    def test_relabellings_keep_the_bits(self, d, Ns):
        rng = random.Random(5)
        for g in quartic_classes(range(2, 5)):
            if not is_connected(g):
                continue
            others = relabellings(g, 6, rng)
            for N in Ns:
                want = valuate(g, d, N).hex()
                for h in others:
                    fy._valuate_cached.cache_clear()  # h's value is computed, not looked up
                    assert valuate(h, d, N).hex() == want, (g, h, d, N)

    def test_union_is_the_product_in_key_order(self):
        rng = random.Random(6)
        classes = [g for g in quartic_classes(range(1, 5)) if is_connected(g)]
        for a, b in itertools.combinations_with_replacement(classes, 2):
            (union,) = relabellings(a.disjoint_union(b), 1, rng)
            for d, N in [(1, 8), (3, 3)]:
                want = 1.0
                for c in sorted((a, b), key=Diagram.canonical_key):
                    want *= valuate(c, d, N)
                assert valuate(union, d, N).hex() == want.hex(), (a, b, d, N)

    def test_two_point_relabellings_keep_the_bits(self):
        rng = random.Random(7)
        for g in quartic_classes(range(1, 4), ("x", "y")):
            if len(connected_components(g)) > 1:
                continue
            for d, N in [(1, 6), (3, 2)]:
                scale, ball = fy._external_bundle(g, d, N)
                for h in relabellings(g, 6, rng):
                    got_scale, got = fy._external_bundle(h, d, N)
                    assert got_scale == scale and got.values.tobytes() == ball.values.tobytes(), (g, h, d, N)

    def test_each_connected_class_reduces_once(self, monkeypatch):
        # the order-4 series has 5 connected classes; disconnected terms
        # multiply their components' cached values
        calls = []
        valuate_connected = fy._valuate_connected

        def counting(g, d, N):
            calls.append(g.canonical_key())
            return valuate_connected(g, d, N)

        monkeypatch.setattr(fy, "_valuate_connected", counting)
        fy._valuate_cached.cache_clear()
        phi4.partition_ratio_series(2, 16, 4)
        assert len(calls) == len(set(calls)) == 5

    def test_one_entry_point(self):
        assert fy.valuate_cached is valuate


def star(leaves: int) -> Diagram:
    """K_{1,leaves}: vertex 0 joined to `leaves` pendant vertices."""
    return Diagram(leaves + 1, [((0, v), 1) for v in range(1, leaves + 1)])


def k4() -> Diagram:
    return Diagram(4, [((i, j), 1) for i, j in itertools.combinations(range(4), 2)])


def k5() -> Diagram:
    return Diagram(5, [((i, j), 1) for i, j in itertools.combinations(range(5), 2)])


class TestPendantReduction:
    def test_pendant_classes_match_bruteforce(self):
        arities = [
            [4, 1, 1, 1, 1],
            [3, 3, 1, 1],
            [4, 4, 1, 1],
            [4, 3, 1],
            [3, 1, 1, 1],
            [4, 2, 1, 1],
            [3, 3, 3, 1],
            # a double edge to a two-valent vertex becomes a pendant bundle
            # whose zero-momentum weight is not 1
            [4, 2, 2],
            [4, 4, 2, 2],
        ]
        for ar in arities:
            for g in generate_diagrams(ar).terms:
                for d, N in [(1, 2), (2, 1)]:
                    got = valuate(g, d, N)
                    assert got == pytest.approx(
                        valuate_bruteforce(g, d, N), rel=1e-12
                    ), (ar, g, d)

    def test_stars_are_one(self):
        # every pendant edge is pinned to the zero mode, whose weight is 1
        for leaves in (3, 4):
            for d, N in [(1, 4), (2, 3), (3, 2)]:
                assert valuate(star(leaves), d, N) == 1.0

    def test_pendant_edge_on_k4(self):
        g = Diagram(5, list(k4().edges) + [((0, 4), 1)])
        assert valuate(g, 3, 2) == valuate(k4(), 3, 2)

    def test_leftover_core_is_named(self):
        with pytest.raises(ValuationBudgetError, match="5 vertices and 6 loops"):
            valuate(k5(), 2, 4)

    def test_self_contractions_rejected(self):
        looped = [
            Diagram(1, [((0, 0), 2)]),
            Diagram(2, [((0, 0), 1), ((0, 1), 2)]),
        ]
        for g in looped:
            for d in (1, 3):
                with pytest.raises(ValueError, match="self-contraction"):
                    valuate(g, d, 4)
        ext = Diagram(
            3, [((0, 0), 1), ((0, 1), 1), ((0, 2), 1)], labels=[(1, "x"), (2, "y")]
        )
        with pytest.raises(ValueError, match="self-contraction"):
            valuate_external(ext, 1, 4)


def node_tree(w) -> tuple | None:
    """A recorded node as (move, parts) down to the base, which is None."""
    return None if w.move is None else (w.move, tuple(node_tree(p) for p in w.parts))


def reduction_cases() -> list[Diagram]:
    """Every connected component of the vacuum classes through order 6 and
    of the two-point classes through order 3, as generation labels it."""
    classes = quartic_classes(range(1, 7)) + quartic_classes(range(1, 4), ("x", "y"))
    return [c for g in classes for c in connected_components(g)]


class TestOneMapOfLines:
    # the reducer works on one map of lines; reduction_reference keeps the
    # adjacency-list reducer it replaced, as the oracle
    @pytest.mark.parametrize("d", [1, 3])
    def test_same_pendants_and_core(self, d, monkeypatch):
        reduce = fy._reduce_series_parallel
        pendants = []

        def recording(*args):
            pendants[:] = reduce(*args)
            return pendants

        monkeypatch.setattr(fy, "_reduce_series_parallel", recording)
        for g in reduction_cases():
            protected = {v for v, _ in g.labels}
            _, lines = fy._reduced(g, d, 2, protected)
            old_pendants, adj, weights = red._reduced(g, d, 2, protected)
            old_core = {
                (v, u): node_tree(weights[eid]) for v in adj for u, eid in adj[v] if u > v
            }
            assert [node_tree(w) for w in pendants] == [node_tree(w) for w in old_pendants], g
            assert {pair: node_tree(w) for pair, w in lines.items()} == old_core, g

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("N", [2, 4])
    def test_valuate_keeps_its_bits(self, d, N):
        for g in quartic_classes(range(1, 5)):
            assert valuate(g, d, N).hex() == red.valuate(g, d, N).hex(), g


class TestK4Orbits:
    def test_orbit_sizes_cover_the_ball_and_the_box(self):
        for d in (1, 2, 3):
            for N in (0, 1, 3, 8):
                orbits = list(fy._orbits(d, N))
                assert sum(size for p, size in orbits if sum(p) <= N) == len(
                    ModeLattice(d, N).modes
                )
                assert sum(size for _, size in orbits) == (2 * N + 1) ** d

    def test_k4_matches_per_momentum_loop(self):
        for d, N in [(1, 5), (2, 3), (3, 2)]:
            assert valuate(k4_doubled(), d, N) == pytest.approx(
                k4_doubled_per_momentum(d, N), rel=1e-12
            )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_whole_reads_are_zero_off_their_balls(self, d):
        # the K4 core reads five of its six windows whole, with no mask, so
        # the lattice rule's degree bound needs them exactly zero off the l1
        # ball: a leaf, two- and three-strand bundles, and a series node
        # whose first part (the three-strand bundle) is not read whole
        N = 3
        nodes: dict = {}
        dim, s = fy._model(d)
        leaf = fy._Weight(fy._base_weight(dim, N, s), N)
        two = fy._Weight.bundle([leaf, leaf], nodes)
        three = fy._Weight.bundle([leaf, two, leaf], nodes)
        for w in (leaf, two, three, three.series(two, nodes)):
            cube = w._kept(w.radius).box()
            assert np.any(cube != 0.0)
            assert np.all(cube[~tf._l1_mask(d, w.radius)] == 0.0), (d, w.move, w.radius)

    def test_k4_at_zero_cutoff(self):
        # N = 0 leaves the zero mode alone: every weight is 1, the lattice
        # rule has M = 1, and the core is exactly 1
        for d in (1, 2, 3):
            assert valuate(k4_doubled(), d, 0) == 1.0

    def test_asymmetric_weight_raises(self):
        N = 2
        base = ModeLattice(2, N).inverse_weight_cube()
        skewed = base.copy()
        skewed[N + 1, N] *= 1.5  # breaks the swap of the two axes
        lines = {
            pair: given_weight(skewed if k == 5 else base)
            for k, pair in enumerate(itertools.combinations(range(4), 2))
        }
        # a broken symmetry is a bad input, not a core past the engine's limit
        with pytest.raises(ValueError, match="not invariant under coordinate permutations") as err:
            fy._valuate_k4(lines)
        assert not isinstance(err.value, ValuationBudgetError)

    def test_unshared_lines_raise_budget_error(self):
        # six equal but separate nodes: symmetric weights, but ad is not bc,
        # so the pairing of orbits does not apply; the per-orbit reference
        # still valuates the same core
        N = 2
        base = ModeLattice(2, N).inverse_weight_cube()
        lines = {pair: given_weight(base) for pair in itertools.combinations(range(4), 2)}
        with pytest.raises(ValuationBudgetError, match="ad and bc, or ac and bd, are not one shared node"):
            fy._valuate_k4(lines)
        shared = given_weight(base)
        assert k4_ref.valuate_k4(lines) == pytest.approx(
            fy._valuate_k4(dict.fromkeys(lines, shared)), rel=1e-15
        )

    def test_unshared_core_error_names_the_limit(self):
        # five vertices, one of them on a series chain: it reduces to a K4
        # core whose line 04 is a series node and whose other lines are single
        # edges, so ad and bc are different nodes
        singles = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4)]
        g = Diagram(5, [(pair, 1) for pair in singles] + [((3, 4), 2)])
        assert g in generate_diagrams([3, 3, 3, 3, 4]).terms
        with pytest.raises(ValuationBudgetError) as err:
            valuate(g, 3.5, 1)
        message = str(err.value)
        assert "ad and bc, or ac and bd, are not one shared node" in message
        assert "only when the reducer makes each pair one node" in message
        assert "the valuation engine for cores beyond K4 (ROADMAP item 1)" in message
        # the 3-regular K4 itself valuates
        assert valuate(k4(), 3.5, 1) == pytest.approx(valuate_loop_sum(k4(), 3.5, 1), rel=1e-12)

    def test_paired_core_matches_per_orbit_reference(self):
        # the reducer's own core of k4_doubled; d = 1 at even N has an odd
        # count of nonzero orbits (N = 2: p = 0, 1, 2), so its last orbit
        # goes alone with a zero imaginary part
        odd = []
        for d in (1, 2, 3, 3.5):
            for N in range(1, 13):
                _, lines = fy._reduced(k4_doubled(), d, N)
                got, want = fy._valuate_k4(lines), k4_ref.valuate_k4(lines)
                assert got == pytest.approx(want, rel=1e-15, abs=0), (d, N)
                ab = min(lines.values(), key=lambda w: w.radius)
                F_ab = ab._kept(ab.radius).box()
                R = ab.radius
                nonzero = sum(1 for p, _ in fy._orbits(int(d), R) if F_ab[tuple(t + R for t in p)])
                odd += [(d, N)] * (nonzero % 2)
        assert (1, 2) in odd

    @pytest.mark.parametrize("d, Ns", [(1, (1, 2, 5, 8)), (2, (1, 2, 4, 6)), (3, (1, 2, 3)), (3.5, (1, 2, 3))])
    def test_three_regular_core_on_its_enlarged_grid(self, d, Ns, monkeypatch):
        # six single edges, one base node: blocks of side 2N + 1 outgrow the
        # rule's grid for degree 3N, so the core enlarges M to hold them
        # whole; the per-orbit reference folds them onto the rule's grid
        grids = []
        paired = fy._paired_rule_mean

        def recording(offsets, f, out):
            grids.append(out.shape[1:])
            return paired(offsets, f, out)

        monkeypatch.setattr(fy, "_paired_rule_mean", recording)
        dim = int(d)
        for N in Ns:
            assert tf._smooth_len(tf.lattice_rule_size(3 * N)) < 2 * N + 1
            _, lines = fy._reduced(k4(), d, N)
            grids.clear()
            got = fy._valuate_k4(lines)
            assert set(grids) == {(tf._smooth_len(2 * N + 1),) * dim}, (d, N)
            assert got == pytest.approx(k4_ref.valuate_k4(lines), rel=1e-13, abs=0), (d, N)
            assert got == pytest.approx(valuate_loop_sum(k4(), d, N), rel=1e-12, abs=0), (d, N)

    def test_core_weighs_by_the_grid_values_as_returned(self, monkeypatch):
        # f reaches every pair step as _grid_values returned it, u + iv,
        # with no copy of its parts
        returned, received = [], []
        grid_values, paired = fy._grid_values, fy._paired_rule_mean

        def gridding(ball, M):
            returned.append(grid_values(ball, M))
            return returned[-1]

        def pairing(offsets, f, out):
            received.append(f)
            return paired(offsets, f, out)

        monkeypatch.setattr(fy, "_grid_values", gridding)
        monkeypatch.setattr(fy, "_paired_rule_mean", pairing)
        fy._valuate_cached.cache_clear()  # each class valuates, not the cache
        for d in (1, 2, 3, 3.5):
            fy._valuate_connected(k4_doubled(), d, 3)
        fy._valuate_cached.cache_clear()
        assert len(returned) == 4 and received
        assert all(any(f is g for g in returned) for f in received)

    def test_series_cores_keep_the_rule_grid(self, monkeypatch):
        # every K4 core of a connected class of order <= 4 holds its blocks
        # on the grid its degree asks for: no series grid is enlarged
        calls = []
        rule, paired, core = fy.lattice_rule_size, fy._paired_rule_mean, fy._valuate_k4

        def sizing(deg):
            calls[-1]["deg"] = deg
            return rule(deg)

        def pairing(offsets, f, out):
            calls[-1]["grids"].add(out.shape[1:])
            return paired(offsets, f, out)

        def valuating(lines):
            calls.append({"grids": set()})
            return core(lines)

        monkeypatch.setattr(fy, "lattice_rule_size", sizing)
        monkeypatch.setattr(fy, "_paired_rule_mean", pairing)
        monkeypatch.setattr(fy, "_valuate_k4", valuating)
        cores = 0
        for d in (1, 2, 3, 3.5):
            for N in range(1, 9):
                for g in connected_classes():
                    fy._valuate_connected(g, d, N)
                    for call in calls:
                        M = tf._smooth_len(rule(call["deg"]))
                        assert call["grids"] == {(M,) * int(d)}, (g, d, N)
                    cores += len(calls)
                    calls.clear()
        assert cores

    def test_orbit_transforms_share_one_buffer(self, monkeypatch):
        # a core of six single edges, all one node as the reducer shares
        # them (no bundle to transform): one transform of F_cd, then one per
        # pair of orbits with a nonzero outer weight, each written into the
        # same buffer of the core. N = 3 leaves seven such orbits, so the
        # last pair is one orbit
        N = 3
        base = fy._Weight(fy._base_weight(3, N, 1.0), N)
        lines = dict.fromkeys(itertools.combinations(range(4), 2), base)
        outs = []
        fftn = np.fft.fftn

        def recording(a, *args, **kwargs):
            outs.append(kwargs.get("out"))  # the array itself, so no id is reused
            return fftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", recording)
        fy._valuate_k4(lines)
        f_out, *per_pair = outs
        n = sum(1 for p, _ in fy._orbits(3, N) if sum(p) <= N)
        assert n == 7 and len(per_pair) == (n + 1) // 2
        assert per_pair[0] is not None and per_pair[0] is not f_out
        assert len({id(out) for out in per_pair}) == 1

    def test_returns_plain_float(self):
        assert type(valuate(k4_doubled(), 1, 2)) is float

    def test_base_cube_is_read_only(self):
        ball = fy._base_weight(1, 4, 1.0)
        with pytest.raises(ValueError):
            ball.values[0] = 1.0


class TestPositionMC:
    def test_single_edge(self):
        est, se = valuate_position_mc(single_edge(), 1, 8, samples=20_000, seed=4)
        assert abs(est - 1.0) <= 4 * se + 1e-9

    def test_banana4_d1(self):
        est, se = valuate_position_mc(banana(4), 1, 6, samples=40_000, seed=5)
        target = valuate(banana(4), 1, 6)
        assert abs(est - target) <= 4 * se

    def test_double_triangle_d1(self):
        est, se = valuate_position_mc(double_triangle(), 1, 6, samples=40_000, seed=6)
        target = valuate(double_triangle(), 1, 6)
        assert abs(est - target) <= 4 * se

    @pytest.mark.parametrize("d, N", [(3, 3), (2, 5), (1, 8), (3.5, 2)])
    def test_blocks_keep_the_unblocked_bits(self, d, N):
        # more samples than one block, against whole-array draws and Green
        # functions; a union draws its components one after the other
        samples = fy._POSITION_BLOCK + 904
        for g in (banana(2), banana(3), double_triangle(), banana(2).disjoint_union(double_triangle())):
            est, se = valuate_position_mc(g, d, N, samples=samples, seed=3)
            want_est, want_se = _position_mc_unblocked(g, d, N, samples, seed=3)
            assert (est.hex(), se.hex()) == (want_est.hex(), want_se.hex()), (g, d, N)

    def test_refuses_a_self_loop_as_valuate_does(self):
        loop = Diagram(1, [((0, 0), 1)])
        for call in (lambda: valuate(loop, 1, 2), lambda: valuate_position_mc(loop, 1, 2, 10, 1)):
            with pytest.raises(ValueError, match="self-contractions cannot be valuated"):
                call()

    def test_several_components(self):
        # the seed was fixed before the first run, not chosen by its result
        g = banana(2).disjoint_union(double_triangle())
        est, se = valuate_position_mc(g, 1, 6, samples=40_000, seed=21)
        assert abs(est - valuate(g, 1, 6)) <= 5 * se

    def test_memory_grows_by_the_value_vector(self):
        # 4x the samples costs 8 B per added sample: the blocks do not grow
        valuate_position_mc(banana(2), 2, 3, samples=100, seed=1)  # warm the caches
        peaks = []
        for samples in (20_000, 80_000):
            tracemalloc.start()
            try:
                valuate_position_mc(banana(2), 2, 3, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 8 * 60_000 + 64 * 1024

    def test_largest_array_is_one_block(self):
        # at d = 3, N = 5 one whole (samples, |K_N|) phase array would take 74 MB
        samples, modes = 40_000, len(ModeLattice(3, 5).modes)
        tracemalloc.start()
        try:
            valuate_position_mc(banana(2), 3, 5, samples=samples, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * fy._POSITION_BLOCK * modes + 8 * 16 * samples


def _position_mc_unblocked(g, d, N, samples, seed):
    """valuate_position_mc with each edge's Green function on all rows at once."""
    dim, s = fy._model(d)
    lat = ModeLattice(dim, N)
    modes = np.array(lat.modes, dtype=float)
    weights = np.array([float(lat.lam(k)) for k in lat.modes]) ** -s
    rng = np.random.default_rng(seed)
    vals = np.ones(samples)
    for comp in connected_components(g):
        pos = rng.uniform(size=(samples, comp.nvertices, dim))
        pos[:, 0, :] = 0.0
        comp_vals = np.ones(samples)
        for (i, j), m in comp.edges:
            comp_vals *= (np.cos(2.0 * math.pi * ((pos[:, i, :] - pos[:, j, :]) @ modes.T)) @ weights) ** m
        vals *= comp_vals
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


class TestBPHZ:
    def test_bubble_vanishes_at_d3(self):
        for N in (2, 4, 8):
            assert bphz_valuate(banana(3), 3, N) == 0.0
            assert ref.bphz_valuate(banana(3), 3, N, route="lemma") == 0.0

    def test_primitive_positive_degree_is_plain_value(self):
        g = banana(2)
        assert bphz_valuate(g, 3, 3) == pytest.approx(valuate(g, 3, 3), rel=1e-12)
        assert ref.bphz_valuate(g, 3, 3, route="lemma") == pytest.approx(
            valuate(g, 3, 3), rel=1e-12
        )

    def test_routes_agree_exactly(self):
        for g in (sunset_with_tail(), banana(4), dumbbell()):
            for d in (3, 1):
                direct = bphz_valuate(g, d, 2)
                lemma = ref.bphz_valuate(g, d, 2, route="lemma")
                assert direct == lemma, (g, d)

    def test_tailed_sunset_subtraction(self):
        # Pi(A(Gamma)) = -Pi(Gamma) + Pi(B3) Pi(B2), so BPHZ at deg > 0 equals
        # Pi(Gamma) - Pi(B3) Pi(B2)
        N = 3
        got = bphz_valuate(sunset_with_tail(), 3, N)
        expected = valuate(sunset_with_tail(), 3, N) - valuate(banana(3), 3, N) * valuate(
            banana(2), 3, N
        )
        assert got == pytest.approx(expected, rel=1e-12)


class TestExternal:
    def test_direct_propagator(self):
        g = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        assert valuate_external(g, 1, 8) == 1.0  # zero mode weight

    def test_chain_at_zero_momentum(self):
        chain = Diagram(
            4,
            [((0, 1), 3), ((0, 2), 1), ((1, 3), 1)],
            labels=[(2, "x"), (3, "y")],
        )
        got = valuate_external(chain, 1, 4)
        assert got == pytest.approx(valuate(banana(3), 1, 4), rel=1e-12)

    def test_chain_at_nonzero_momentum(self):
        chain = Diagram(
            4,
            [((0, 1), 3), ((0, 2), 1), ((1, 3), 1)],
            labels=[(2, "x"), (3, "y")],
        )
        lat = ModeLattice(1, 4)
        p = (1,)
        wp = 1.0 / float(lat.lam(p))
        # S3(p) by brute force
        s3 = 0.0
        for k1 in lat.modes:
            for k2 in lat.modes:
                k3 = (p[0] - k1[0] - k2[0],)
                if abs(k3[0]) <= 4:
                    s3 += 1.0 / (
                        float(lat.lam(k1)) * float(lat.lam(k2)) * float(lat.lam(k3))
                    )
        assert valuate_external(chain, 1, 4, p=p) == pytest.approx(wp * wp * s3, rel=1e-11)

    def test_momentum_dimension_is_checked(self):
        g = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        for p in [(1,), (1, 0, 0)]:
            with pytest.raises(ValueError, match="lattice dimension is 2"):
                valuate_external(g, 2, 4, p=p)

    def test_momentum_must_be_finite_integers(self):
        g = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        # int() would truncate 0.7 and -0.5 to the zero mode
        for p in [(0.7,), (-0.5,), (math.inf,), (-math.inf,), (math.nan,)]:
            with pytest.raises(ValueError, match="external momentum p"):
                valuate_external(g, 1, 4, p=p)
        want = 1.0 / ModeLattice(1, 4).lam((1,))
        assert valuate_external(g, 1, 4, p=(1,)) == valuate_external(g, 1, 4, p=(1.0,)) == want

    def test_vacuum_factor(self):
        direct = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        g = direct.disjoint_union(banana(4))
        got = valuate_external(g, 1, 3)
        assert got == pytest.approx(valuate(banana(4), 1, 3), rel=1e-12)

    def test_momentum_outside_the_reduced_cube_is_zero(self):
        # the direct propagator's cube has radius N: its edge is the last
        # nonzero value, and one step past it reads 0.0 without indexing
        direct = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        lat = ModeLattice(1, 4)
        assert valuate_external(direct, 1, 4, p=(4,)) == 1.0 / lat.lam((4,))
        for p in [(5,), (-5,), (40,)]:
            assert valuate_external(direct, 1, 4, p=p) == 0.0
        assert valuate_external(direct, 2, 4, p=(0, -5)) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_momentum_on_the_edge_and_off_the_ball(self, d):
        # p with |p|_1 = N, on the edge of the x-y weight's ball, reads the
        # entry of its box; p inside the box but off the ball reads 0.0
        N = 4
        direct = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        chain = Diagram(4, [((0, 1), 3), ((0, 2), 1), ((1, 3), 1)], labels=[(2, "x"), (3, "y")])
        pad = (0,) * (d - 2)
        for g in (direct, chain):
            scale, ball = fy._external_bundle(g, d, N)
            box = ball.box()
            assert ball.radius == N
            for p in [(2, -2) + pad, (-1, 3) + pad, (0, -4) + pad] + [(1, 1, -2)] * (d == 3):
                assert sum(map(abs, p)) == N
                want = scale * float(box[tuple(c + N for c in p)])
                assert want != 0.0
                assert valuate_external(g, d, N, p=p).hex() == want.hex(), (g, p)
            for p in [(4, 1) + pad, (-3, -3) + pad, (4,) * d]:
                assert valuate_external(g, d, N, p=p) == 0.0, (g, p)
        p = (2, -2) + pad
        assert valuate_external(direct, d, N, p=p) == 1.0 / ModeLattice(d, N).lam(p)

    def test_order4_classes_with_a_core_raise(self):
        # with both terminals protected, two of the twelve order-4 two-point
        # classes reduce to a core rather than one x-y bundle
        classes = generate_diagrams([4] * 4, ("x", "y")).sorted_terms()
        assert len(classes) == 12
        raised = []
        for g, _ in classes:
            try:
                valuate_external(g, 1, 2)
            except ValuationBudgetError as err:
                assert "two-terminal reduction" in str(err)
                raised.append(g)
        legs = [((0, 2), 1), ((1, 3), 1)]
        labels = [(0, "x"), (1, "y")]
        # on the internal vertices 2..5: K4 with one double line, and K4 less
        # the line between the two leg vertices, with two double lines
        k4 = [((2, 3), 1), ((2, 4), 1), ((2, 5), 1), ((3, 4), 1), ((3, 5), 1), ((4, 5), 2)]
        k4_less_one_line = [((2, 4), 1), ((2, 5), 2), ((3, 4), 2), ((3, 5), 1), ((4, 5), 1)]
        assert raised == [Diagram(6, legs + k4, labels), Diagram(6, legs + k4_less_one_line, labels)]


def test_fft_lengths_are_5_smooth(monkeypatch):
    # torusfield and feynman look the transforms up on np.fft at each call
    shapes = []

    def recording(name, fn):
        def wrapper(a, s=None, axes=None, **kwargs):
            shape = s
            if s is None:
                a = np.asarray(a)
                shape = a.shape if axes is None else [a.shape[ax] for ax in axes]
            shapes.append((name, tuple(shape)))
            return fn(a, s, axes=axes, **kwargs)

        return wrapper

    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, recording(name, getattr(np.fft, name)))
    fy._valuate_cached.cache_clear()  # a cached class runs no transform
    valuate(banana(4), 3, 24)
    # read at its centre, the radius-96 bundle is a constant term: the lattice
    # rule for degree 96 needs M = 49, padded to 50, and no inverse transform
    assert shapes == [("fftn", (50, 50, 50))]
    shapes.clear()
    N = 2
    valuate(k4_doubled(), 3, N)
    # the K4 core's lattice rule: outer pair on a single edge (radius N), so
    # R_ac = 2N (a double), R_bc = N and F_cd (a single) read at r = N; its
    # size comes from these radii, not from the roundoff FFT-built bundles
    # carry off their l1 balls, which would double it
    M = tf._smooth_len(tf.lattice_rule_size(2 * N + N + N))
    assert M == 5
    rule = [s for name, s in shapes if name == "fftn"]
    assert rule and set(rule) == {(M,) * 3}
    for _, shape in shapes:
        for n in shape:
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            assert n == 1, shape


@pytest.fixture
def full_length(monkeypatch):
    """Reference valuation: every node computed whole, and every convolution
    run on its full linear length of dense boxes, then cut to the ball the
    reader asked for."""
    kept = fy._Weight._kept

    def whole(self, r):
        return kept(self, self.radius).crop(r)

    def full(*cubes, radius):
        out = convolve_cubes(*(c.box() for c in cubes))
        half, dim = out.shape[0] // 2, out.ndim
        box = out[(slice(half - radius, half + radius + 1),) * dim]
        return tf.Ball(box[tf._l1_mask(dim, radius)], dim, radius)

    def run(g, d, N, fn=valuate):
        # the reference neither reads the class cache nor leaves its values in it
        fy._valuate_cached.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(fy._Weight, "_kept", whole)
                # a centre of three or more strands too, through constant_term
                for module in (fy, tf):
                    m.setattr(module, "convolution_window", full)
                return fn(g, d, N)
        finally:
            fy._valuate_cached.cache_clear()

    return run


def windowed_classes():
    """Vacuum classes up to order 4: quartic, with mass insertions and with
    the cubic pair of the counterterm families."""
    arities = [[4] * n for n in (2, 3, 4)]
    arities += [[4] * k + [2] * m for k, m in [(0, 2), (1, 1), (2, 1), (0, 3), (1, 2)]]
    arities += [[3, 3], [3, 3, 4], [3, 3, 4, 4], [3, 3, 2, 2]]
    # pendant edges and bundles, read at their centre
    arities += [[4, 3, 1], [4, 4, 1, 1], [4, 4, 2, 2]]
    return [g for ar in arities for g in generate_diagrams(ar).terms]


class TestWindowedTransforms:
    @pytest.mark.parametrize("d, Ns", [(1, (2, 5)), (2, (1, 3)), (3, (1, 2, 3))])
    def test_matches_full_length_reference(self, full_length, d, Ns):
        for g in windowed_classes():
            for N in Ns:
                want = full_length(g, d, N)
                assert valuate(g, d, N) == pytest.approx(want, rel=1e-12), (g, d, N)

    def test_whole_read_matches_full_length(self, full_length):
        # the two-point series reads every mode of its x-y weight
        for n in (1, 2):
            for g in generate_diagrams([4] * n, ["x", "y"]).terms:
                if len(connected_components(g)) > 1:
                    continue
                for d, N in [(1, 6), (2, 4), (3, 2)]:
                    scale, ball = fy._external_bundle(g, d, N)
                    want_scale, want = full_length(g, d, N, fy._external_bundle)
                    assert scale == want_scale and ball.radius == want.radius
                    np.testing.assert_allclose(ball.values, want.values, rtol=1e-12, err_msg=f"{g} {d} {N}")

    def test_matches_bruteforce(self):
        for g in windowed_classes():
            assert valuate(g, 1, 1) == pytest.approx(
                valuate_bruteforce(g, 1, 1), rel=1e-12
            ), g

    def test_reference_transforms_whole(self, full_length, monkeypatch):
        # the reference is not the windowed path in disguise: the windowed
        # path reads a centre as a window of radius 0 (constant_term's rule
        # mean, with no inverse transform) and the ring's bubble B on its
        # whole radius 2N by the lattice rule, with no real inverse
        # transform; the reference convolves every bundle on its full linear
        # length
        windows, lengths = [], []
        convolution_window, irfftn = tf.convolution_window, np.fft.irfftn

        def window(*cubes, radius):
            windows.append((len(cubes), radius))
            return convolution_window(*cubes, radius=radius)

        def recording(a, s=None, axes=None, **kwargs):
            lengths.append(s[0])
            return irfftn(a, s, axes=axes, **kwargs)

        for module in (fy, tf):
            monkeypatch.setattr(module, "convolution_window", window)
        monkeypatch.setattr(np.fft, "irfftn", recording)
        fy._valuate_cached.cache_clear()  # a cached class runs no transform
        valuate(banana(4), 3, 3)
        assert windows == [(4, 0)] and lengths == []
        windows.clear()
        full_length(banana(4), 3, 3)
        assert windows == [] and lengths == [tf._smooth_len(25)]
        N = 3
        lengths.clear()
        fy._valuate_cached.cache_clear()
        valuate(bubble_ring(), 3, N)
        assert windows == [(2, 2 * N)] and lengths == []
        full_length(bubble_ring(), 3, N)
        assert windows == [(2, 2 * N)]
        assert lengths == [tf._smooth_len(4 * N + 1), tf._smooth_len(8 * N + 1)]


class TestSeriesWindow:
    def test_bundle_under_series_transforms_on_the_series_box(self, monkeypatch):
        # a two-strand bundle whose strand is (triple bundle) x (single edge):
        # the series node has radius N, so the triple bundle is needed on the
        # box of radius N only, not on its whole radius 3N
        N = 3
        base = ModeLattice(1, N).inverse_weight_cube()

        def build():
            leaf = given_weight(base)
            strand = fy._Weight.bundle([leaf, leaf, leaf], {}).series(leaf, {})
            return fy._Weight.bundle([strand, leaf], {})

        radii = []
        convolution_window = fy.convolution_window

        def recording(*cubes, radius):
            radii.append((len(cubes), radius))
            return convolution_window(*cubes, radius=radius)

        # every node whole, on full-length convolutions
        strand = dense_ref.crop(tf.convolve_cubes(base, base, base), 3 * N, N) * base
        reference = dense_ref.crop(tf.convolve_cubes(strand, base), 2 * N, 0).item()
        monkeypatch.setattr(fy, "convolution_window", recording)
        value = build().center()
        assert radii == [(3, N)]
        assert value == pytest.approx(reference, rel=1e-12)

    def test_series_read_at_a_centre_keeps_its_product(self):
        # the ring's series node B.B, read at the ring's centre, keeps the
        # Ball of its radius: the product of its parts' Balls, to the byte
        N = 2
        base = fy._Weight(fy._base_weight(3, N, 1.0), N)
        nodes: dict = {}
        bubble = fy._Weight.bundle([base, base], nodes)
        square = bubble.series(bubble, nodes)
        ring = fy._Weight.bundle([bubble, square], nodes)
        assert ring.center() == valuate(bubble_ring(), 3, N)
        assert list(bubble._windows) == [2 * N] and list(square._windows) == [2 * N]
        kept, part = square._windows[2 * N], bubble._windows[2 * N]
        assert type(kept) is tf.Ball and kept.radius == 2 * N
        assert kept.values.tobytes() == (part.values * part.values).tobytes()

    def test_every_bundle_centre_is_a_constant_term(self, monkeypatch):
        # every bundle read at its centre, of two strands or more, in every
        # connected class of order <= 4, is one call to constant_term on its
        # strands' Balls, whose value the node keeps
        centres, terms, strands = [], [], set()
        compute, constant_term = fy._Weight._compute_window, fy.constant_term

        def computing(self, r):
            out = compute(self, r)
            if self.move == "bundle" and r == 0:
                centres.append(out.values.item())
            return out

        def reading(*balls):
            assert all(type(w) is tf.Ball for w in balls)
            strands.add(min(len(balls), 3))
            terms.append(constant_term(*balls))
            return terms[-1]

        monkeypatch.setattr(fy._Weight, "_compute_window", computing)
        monkeypatch.setattr(fy, "constant_term", reading)
        fy._valuate_cached.cache_clear()  # each class valuates, not the cache
        for d in (1, 2, 3, 3.5):
            for N in (1, 3):
                for g in connected_classes():
                    try:
                        fy._valuate_connected(g, d, N)
                    except ValuationBudgetError:
                        continue
        fy._valuate_cached.cache_clear()
        assert centres and [c.hex() for c in centres] == [t.hex() for t in terms]
        assert strands == {2, 3}


def connected_classes():
    """Every connected class of k quartic and m quadratic vertices with
    k + 2m <= 4, then the connected windowed classes."""
    classes = [
        g
        for k in range(5)
        for m in range((4 - k) // 2 + 1)
        if k or m
        for g in phi4._quartic_diagrams(k, m).filter_connected().terms
    ]
    return classes + [g for g in windowed_classes() if is_connected(g) and g not in classes]


class TestBallReads:
    def test_only_balls_reach_the_reads(self, monkeypatch):
        # every weight that reaches torusfield's lattice-sum reads, from each
        # connected class of order <= 4, the two-point series and the
        # Wick-integral variances, is a Ball
        seen = []
        for name in ("_grid_values", "convolution_window", "constant_term", "cosine_sum"):
            read = getattr(tf, name)

            def recording(*args, read=read, **kwargs):
                seen.append((read.__name__, args))
                return read(*args, **kwargs)

            for module in (tf, fy, phi4):
                if getattr(module, name, None) is read:
                    monkeypatch.setattr(module, name, recording)
        fy._valuate_cached.cache_clear()  # each class valuates, not the cache
        for d, N in [(1, 4), (2, 3), (3, 2), (3.5, 2)]:
            for g in connected_classes():
                try:
                    fy._valuate_connected(g, d, N)
                except ValuationBudgetError:
                    continue
            x = (0.1, 0.2, 0.3)[: int(d)]
            phi4.two_point_series(d, 8, 2, x, (0.4,) * len(x))
            if d in (1, 2, 3):
                for n in (2, 3, 4):
                    wick_integral_variance(d, N, n)
        fy._valuate_cached.cache_clear()
        assert {name for name, _ in seen} == {"_grid_values", "convolution_window", "constant_term", "cosine_sum"}
        for name, args in seen:
            weights = args[:1] if name in ("_grid_values", "cosine_sum") else args
            assert all(type(w) is tf.Ball for w in weights), (name, [type(w) for w in weights])


class TestPackedWindows:
    @pytest.mark.parametrize("d, Ns", [(1, (3, 8)), (2, (2, 5)), (3, (2, 6)), (3.5, (2, 4))])
    def test_classes_keep_the_dense_bits(self, d, Ns):
        # every window a box, kept per radius, and centres read from dense
        # slabs (dense_reference): the same value to the last bit
        for g in connected_classes():
            for N in Ns:
                want = dense_ref.valuate(g, d, N)
                assert fy._valuate_connected(g, d, N).hex() == want.hex(), (g, d, N)

    def test_no_node_keeps_a_dense_window(self, monkeypatch):
        # every vacuum class of order <= 4: whole reads, reads short of a
        # node's radius (a bundle under a series node, the K4 core's F_cd),
        # base lines and centres are all kept on their l1 balls
        kept = []
        compute = fy._Weight._compute_window

        def recording(self, r):
            out = compute(self, r)
            kept.append((self.radius, r, out))
            return out

        monkeypatch.setattr(fy._Weight, "_compute_window", recording)
        for d, N in [(3, 4), (2, 8)]:
            for g in connected_classes():
                try:
                    fy._valuate_connected(g, d, N)
                except ValuationBudgetError:
                    continue
        assert all(type(out) is tf.Ball and out.radius == r for _, r, out in kept)
        assert any(0 < r < radius for radius, r, _ in kept)

    def test_whole_reads_are_kept_on_their_balls(self):
        # the ring's bubble B is kept packed; a reader of its box gets a box
        # of its own, which the node does not keep
        N = 3
        base = fy._Weight(fy._base_weight(3, N, 1.0), N)
        nodes: dict = {}
        bubble = fy._Weight.bundle([base, base], nodes)
        ring = fy._Weight.bundle([bubble, bubble.series(bubble, nodes)], nodes)
        ring.center()
        kept = bubble._windows[2 * N]
        first, second = bubble._kept(2 * N).box(), bubble._kept(2 * N).box()
        assert first is not second and np.array_equal(first, kept.box())
        assert list(bubble._windows.values()) == [kept]
        cube = base.cube.box()
        want = dense_ref.convolution_window(cube, cube, radius=2 * N)
        assert np.array_equal(first, want)
        # a window short of the whole read is kept on its own ball too, with
        # the dense box's entries there
        short = bubble._kept(N)
        assert isinstance(short, tf.Ball) and short.radius == N
        want = dense_ref.convolution_window(cube, cube, radius=N)
        assert np.array_equal(short.box(), want * tf._l1_mask(3, N))
        # and so is a base line read short of K_N
        assert np.array_equal(base._kept(1).box(), cube[(slice(N - 1, N + 2),) * 3] * tf._l1_mask(3, 1))


def bubble_ring() -> Diagram:
    """Three vertices joined pairwise by double lines: the order-3 ring of bubbles."""
    return Diagram(3, [((0, 1), 2), ((1, 2), 2), ((0, 2), 2)])


class TestSharedNodes:
    def test_each_node_transforms_once_per_radius(self, monkeypatch):
        # the three bubbles F*F are one node B (radius 2N): the ring reduces to
        # the bundle of B and the series node B.B, read at its centre, so the
        # only transforms are B on its whole radius; that bundle at 0 is a dot
        N = 4
        calls, transforms = [], []
        convolution_window = fy.convolution_window

        def recording(*cubes, radius):
            calls.append((len(cubes), radius))
            return convolution_window(*cubes, radius=radius)

        def counting(fn):
            def wrapper(*args, **kwargs):
                transforms.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(fy, "convolution_window", recording)
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
        fy._valuate_cached.cache_clear()  # a cached class runs no transform
        first = valuate(bubble_ring(), 3, N)
        assert calls == [(2, 2 * N)]
        per_valuation = len(transforms)
        # a second valuation starts from nothing: the same calls and transforms
        fy._valuate_cached.cache_clear()
        second = valuate(bubble_ring(), 3, N)
        assert calls == [(2, 2 * N)] * 2
        assert len(transforms) == 2 * per_valuation
        assert second == first

    def test_shared_value_matches_unshared_nodes(self):
        # the same ring built by hand with a fresh node per move
        N = 4
        base = fy._base_weight(3, N, 1.0)
        bubbles = [fy._Weight.bundle([fy._Weight(base, N)] * 2, {}) for _ in range(3)]
        ring = fy._Weight.bundle([bubbles[0], bubbles[1].series(bubbles[2], {})], {})
        assert valuate(bubble_ring(), 3, N) == ring.center()

    def test_table_keeps_the_order_of_the_parts(self):
        nodes: dict = {}
        a = fy._Weight(np.ones(3), 1)
        b = fy._Weight(np.ones(5), 2)
        ab = fy._Weight.bundle([a, b], nodes)
        assert fy._Weight.bundle((a, b), nodes) is ab
        assert fy._Weight.bundle([b, a], nodes) is not ab
        assert a.series(b, nodes) is a.series(b, nodes)
        assert a.series(b, nodes) is not ab


def valuate_loop_sum(g: Diagram, d, N: int) -> float:
    """Independent oracle for connected diagrams too large to enumerate
    whole: valuate_bruteforce's sum, taken over the conserving edge-momentum
    assignments only. Each assignment of the edges off a spanning tree (one
    mode of K_N per edge) fixes the tree edges by conservation, solved leaf
    by leaf; a tree edge outside K_N contributes nothing."""
    modes, weights = oracle_weights(d, N)
    dim = modes.shape[1]
    table = np.zeros((2 * N + 1,) * dim)
    table[tuple((modes + N).T)] = weights
    root = list(range(g.nvertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    tree, chords = [], []
    for i, j in (e for e, m in g.edges for _ in range(m)):
        if find(i) == find(j):
            chords.append((i, j))
        else:
            root[find(i)] = find(j)
            tree.append((i, j))
    idx = np.indices((len(modes),) * len(chords)).reshape(len(chords), -1)
    value = np.prod(weights[idx], axis=0)
    # an edge (i, j) carrying k adds k to the residue of i and -k to that of j
    residue = np.zeros((g.nvertices, idx.shape[1], dim), dtype=np.int64)
    for (i, j), column in zip(chords, idx):
        residue[i] += modes[column]
        residue[j] -= modes[column]
    while tree:
        count = Counter(v for e in tree for v in e)
        i, j = e = next(e for e in tree if 1 in (count[e[0]], count[e[1]]))
        tree.remove(e)
        k = -residue[i] if count[i] == 1 else residue[j]  # the leaf's residue to 0
        inside = np.all(np.abs(k) <= N, axis=1)
        value *= np.where(inside, table[tuple(np.clip(k + N, 0, 2 * N).T)], 0.0)
        residue[i] += k
        residue[j] -= k
    return math.fsum(value.tolist())


class TestCentreRead:
    """A bundle read at its centre is a constant term: a dot product for two
    strands, the two-grid lattice rule for more."""

    cases = [banana(m) for m in (2, 3, 4, 5)] + [bubble_ring()]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_matches_bruteforce(self, d, N):
        for g in self.cases:
            edges = sum(m for _, m in g.edges)
            if len(ModeLattice(d, N).modes) ** edges <= 20000:
                want = valuate_bruteforce(g, d, N)
            else:
                want = valuate_loop_sum(g, d, N)
            assert valuate(g, d, N) == pytest.approx(want, rel=1e-12), (g, d, N)

    def test_loop_sum_is_the_bruteforce_sum(self):
        for g in self.cases + [double_triangle(), k4_doubled(), sunset_with_tail()]:
            for d, N in [(1, 1), (1, 2), (2, 1), (3, 1), (3.5, 1)]:
                if len(oracle_weights(d, N)[1]) ** sum(m for _, m in g.edges) <= 20000:
                    want = valuate_bruteforce(g, d, N)
                    assert valuate_loop_sum(g, d, N) == pytest.approx(want, rel=1e-13), (g, d, N)

    def test_fold_runs(self, monkeypatch):
        # banana(3) at N = 2: the rule for degree 6 has M = 4, shorter than
        # the strand side 5, so each axis folds its alias back onto M
        N = 2
        M = tf._smooth_len(tf.lattice_rule_size(3 * N))
        assert M < 2 * N + 1
        shapes = []
        fftn = np.fft.fftn

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return fftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", recording)
        fy._valuate_cached.cache_clear()  # a cached class runs no transform
        for d in (1, 2, 3):
            got = valuate(banana(3), d, N)
            assert got == pytest.approx(valuate_bruteforce(banana(3), d, N), rel=1e-12), d
        assert shapes == [(M,) * d for d in (1, 2, 3)]


class TestOneDimensionRule:
    """Every valuation entry point reads d through one rule: d = 1, 2, 3 on
    their own lattices, a fractional 3 < d < 4 on the d = 3 lattice with edge
    weight lambda^-(5-d)/2, and every other d refused by name."""

    @pytest.mark.parametrize("d", [3.25, 3.5, 3.75])
    def test_fractional_d_matches_the_loop_sum(self, d):
        # the oracle writes its own lambda^-(5-d)/2 on the d = 3 lattice
        for N, orders in [(1, range(1, 5)), (2, range(1, 4))]:
            for n in orders:
                for g in generate_diagrams([4] * n).filter_connected().terms:
                    want = valuate_loop_sum(g, d, N)
                    assert valuate(g, d, N) == pytest.approx(want, rel=1e-12), (g, d, N)

    def test_fractional_d_position_mc(self):
        # the seed was fixed before the run, not chosen by its result
        for g in (banana(2), banana(3), double_triangle()):
            est, se = valuate_position_mc(g, 3.5, 2, samples=200_000, seed=7)
            assert abs(est - valuate(g, 3.5, 2)) <= 5 * se, g

    def test_integer_d_position_mc_keeps_its_bits(self):
        # pinned from the weights 1 / lambda, which lambda ** -1.0 equals to the bit
        want = {
            1: ("0x1.0b8b6b666d7d2p+0", "0x1.91640370491a9p-8"),
            2: ("0x1.01610ff3e5fddp+0", "0x1.d11f318a68eabp-10"),
            3: ("0x1.002f511bc43e7p+0", "0x1.a040ea9a99487p-12"),
        }
        for d, pin in want.items():
            est, se = valuate_position_mc(banana(2), d, 3, samples=5000, seed=7)
            assert (est.hex(), se.hex()) == pin, d

    @pytest.mark.parametrize("d", [5, 0.5, True, np.True_])  # True is no dimension
    def test_entry_points_name_d(self, d):
        two_point = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
        calls = {
            "valuate": lambda: valuate(EMPTY, d, 2),
            "valuate_sum": lambda: fy.valuate_sum(DiagramSum.zero(), d, 2),
            "valuate_external": lambda: valuate_external(two_point, d, 4, (1,)),
            "bphz": lambda: bphz_valuate(banana(3), d, 2),
            "position MC": lambda: valuate_position_mc(banana(2), d, 2, samples=10, seed=0),
        }
        for call in calls.values():
            with pytest.raises(ValueError, match=f"got {d!r}$"):
                call()

    def test_position_mc_needs_two_samples(self):
        with pytest.raises(ValueError, match="samples"):
            valuate_position_mc(banana(2), 1, 2, samples=1, seed=0)
