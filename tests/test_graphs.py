import hashlib
import itertools
import math
import random

import pytest

from orientramsey import (Graph, OrientedGraph, TooLargeError, canonical,
                          complete_graph, cycle_graph, directed_path, dumps,
                          in_out_star, loads, make_family,
                          nonisomorphic_graphs, nonisomorphic_oriented_graphs,
                          path_graph, transitive_tournament, underlying)
from orientramsey.errors import GraphFormatError

from conftest import random_oriented


def test_graph_construction_and_counts():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.e == 3
    assert g.has_edge(1, 0)
    assert g.degree(1) == 2
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(TooLargeError):
        Graph.from_edges(4097, [])


def test_oriented_rejects_digons_and_loops():
    with pytest.raises(ValueError):
        OrientedGraph.from_arcs(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        OrientedGraph.from_arcs(3, [(2, 2)])
    with pytest.raises(ValueError):
        OrientedGraph.from_arcs(3, [(0, 1)], root=5)


def test_underlying_examples():
    assert underlying(transitive_tournament(3)) == complete_graph(3)
    assert underlying(OrientedGraph.from_arcs(2, [(0, 1)])) == complete_graph(2)
    assert underlying(OrientedGraph.from_arcs(5, [])) == Graph.empty(5)


def test_underlying_inverts_any_orientation():
    rng = random.Random(5)
    for _ in range(30):
        g = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                                 if rng.random() < 0.5])
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
        assert OrientedGraph.from_arcs(6, arcs).underlying() == g


def test_is_acyclic():
    for t in range(1, 9):
        assert transitive_tournament(t).is_acyclic()
    for t in range(3, 9):
        cyc = OrientedGraph.from_arcs(t, [(i, (i + 1) % t) for i in range(t)])
        assert not cyc.is_acyclic()
    assert OrientedGraph.from_arcs(4, []).is_acyclic()


def test_canonical_distinguishes_roots():
    tt3 = transitive_tournament(3)
    forms = {canonical(tt3.with_root(r)) for r in range(3)}
    assert len(forms) == 3


def test_canonical_isomorphism_invariance():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        d = random_oriented(rng, n, 10)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical(d.relabel(perm)) == canonical(d)
    # rooted: root must follow the permutation
    tt3 = transitive_tournament(3).with_root(1)
    assert canonical(tt3.relabel([2, 0, 1])) == canonical(tt3)


def test_canonical_on_single_arc():
    a = OrientedGraph.from_arcs(2, [(0, 1)])
    b = OrientedGraph.from_arcs(2, [(1, 0)])
    assert canonical(a) == canonical(b)


def test_canonical_size_cap():
    with pytest.raises(TooLargeError):
        canonical(OrientedGraph.from_arcs(11, []))


def test_families():
    tt3 = make_family("transitive_tournament", 3)
    assert tt3.arcs == ((0, 1), (0, 2), (1, 2))
    star = make_family("in_out_star", 1, 1)
    assert canonical(star) == canonical(directed_path(3))
    assert make_family("cycle", 4).e == 4
    assert path_graph(1).e == 0
    assert in_out_star(0, 4).e == 4
    with pytest.raises(ValueError):
        make_family("cycle", 2)
    with pytest.raises(ValueError):
        make_family("in_out_star", 0, 0)
    with pytest.raises(ValueError):
        make_family("nonsense", 3)
    with pytest.raises(ValueError):
        make_family("cycle", 3, 4)


def test_text_round_trip():
    objects = [
        complete_graph(4),
        Graph.empty(3),
        transitive_tournament(3).with_root(1),
        OrientedGraph.from_arcs(5, [(4, 0), (1, 3)]),
    ]
    for obj in objects:
        text = dumps(obj)
        assert loads(text) == obj
        assert dumps(loads(text)) == text


def test_text_parsing_comments_and_whitespace():
    text = """
    # a rooted transitive triangle
    d 3
    r 2   # sink root
    a 0 1
    a 0 2
    a 1 2
    """
    assert loads(text) == transitive_tournament(3).with_root(2)


@pytest.mark.parametrize("bad", [
    "",                          # no header
    "g",                         # header arity
    "g 3\ng 3",                  # duplicate header
    "g 3\na 0 1",                # arc in a graph
    "d 3\ne 0 1",                # edge in a digraph
    "g 2\nr 0",                  # root on a graph
    "d 3\na 0 1\na 1 0",         # digon
    "g 3\ne 0 x",                # non-integer
    "q 3",                       # unknown tag
])
def test_text_rejects_malformed(bad):
    with pytest.raises(GraphFormatError):
        loads(bad)


def test_graph_catalogue_counts():
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 8)] == \
        [1, 2, 4, 11, 34, 156, 1044]


def test_oriented_catalogue_counts():
    assert [len(nonisomorphic_oriented_graphs(n)) for n in range(1, 6)] == \
        [1, 2, 7, 42, 582]


def test_catalogue_digests():
    """Every representative, in catalogue order, pinned by a sha256."""
    graphs = [(g.n, g.rows) for n in range(8) for g in nonisomorphic_graphs(n)]
    oriented = [(d.n, d.arcs) for n in range(6) for d in nonisomorphic_oriented_graphs(n)]
    assert hashlib.sha256(repr(graphs).encode()).hexdigest() == \
        "3b8f806cece45b62b1b2b16ed3c96b67521ca1954c4563be7d4e18fea9922b8e"
    assert hashlib.sha256(repr(oriented).encode()).hexdigest() == \
        "904a15a4f8b407b8c85be2f3227e59509497fef63a70b3e6c660461e38d37689"


def _orbit(g):
    """g's edge set (arc set, if oriented) under every vertex relabeling."""
    if isinstance(g, OrientedGraph):
        pairs, key = g.arcs, tuple
    else:
        pairs, key = g.edges(), sorted
    return {tuple(sorted(tuple(key((p[u], p[v]))) for u, v in pairs))
            for p in itertools.permutations(range(g.n))}


@pytest.mark.parametrize("catalogue, n_max, base", [
    (nonisomorphic_graphs, 6, 2), (nonisomorphic_oriented_graphs, 5, 3)])
def test_catalogue_orbits_partition_labelled_graphs(catalogue, n_max, base):
    """Brute force, independent of the catalogue code: the classes' orbits
    are pairwise distinct (no class repeated) and their sizes n!/|Aut| sum
    to the base**C(n,2) labelled graphs (no class missing)."""
    for n in range(n_max + 1):
        orbits = [_orbit(g) for g in catalogue(n)]
        assert len({min(orbit) for orbit in orbits}) == len(orbits)
        assert sum(map(len, orbits)) == base ** math.comb(n, 2)


def test_catalogue_is_irredundant():
    reps = nonisomorphic_graphs(4)
    forms = {canonical(g) for g in reps}
    assert len(forms) == len(reps)


def test_cycle_graph_rejects_digon_length():
    with pytest.raises(ValueError):
        cycle_graph(2)
