import random

import pytest

from orientramsey import (BudgetExceededError, Graph, OrientedGraph,
                          TooLargeError, arrow, arrow_exhaustive, canonical,
                          complete_graph, contains_copy, count_copies,
                          cycle_graph, directed_path, enumerate_copies,
                          in_out_star, oriented_ramsey_number,
                          transitive_tournament, verify_certificate)
from orientramsey.constructions import rooted_tt3_variants
from orientramsey.experiments import sample_gnp
from orientramsey.witness import chromatic_number

from conftest import brute_arrow, brute_contains, random_graph

TT3 = transitive_tournament(3)
TT4 = transitive_tournament(4)
PATTERNS = [TT3, directed_path(3), directed_path(4), in_out_star(1, 2)]


def test_enumerate_copies_triangle_host():
    pats = enumerate_copies(complete_graph(3), TT3)
    assert len(pats) == 6                      # one per transitive orientation
    assert len({p.edges for p in pats}) == 1   # a single triangle carries them
    res = arrow_exhaustive(complete_graph(3), TT3)
    assert res.free_count == 2                 # exactly the two cyclic triangles


def test_enumerate_copies_counts_triangles_in_k4():
    pats = enumerate_copies(complete_graph(4), TT3)
    assert len({p.edges for p in pats}) == 4
    assert len(pats) == 24


def test_enumerate_copies_triangle_free_host():
    assert enumerate_copies(cycle_graph(5), TT3) == []


def test_enumerate_copies_deterministic():
    g = random_graph(random.Random(3), 7, 12)
    assert enumerate_copies(g, TT3) == enumerate_copies(g, TT3)


def test_arrow_k4_and_k3():
    assert arrow(complete_graph(4), TT3).verdict
    res = arrow(complete_graph(3), TT3)
    assert not res.verdict
    cyclic = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert canonical(res.certificate) == canonical(cyclic)


def test_arrow_directed_paths_track_chromatic_number():
    rng = random.Random(8)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7), 12)
        chi = chromatic_number(g).value
        for t in range(1, 5):
            assert arrow(g, directed_path(t)).verdict == (t <= chi)


def test_arrow_agrees_with_full_enumeration():
    rng = random.Random(4242)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 9)
        for h in PATTERNS:
            verdict, free, witness = brute_arrow(g, h)
            res = arrow(g, h)
            ex = arrow_exhaustive(g, h)
            assert res.verdict == verdict
            assert ex.verdict == verdict
            assert ex.free_count == free
            if not verdict:
                assert verify_certificate(g, h, res.certificate)
                assert not brute_contains(res.certificate, h)


def test_arrow_monotone_under_edge_addition():
    rng = random.Random(15)
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 7), 8)
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                   if not g.has_edge(u, v)]
        if not missing:
            continue
        bigger = Graph.from_edges(g.n, g.edges() + [missing[0]])
        for h in (TT3, directed_path(3)):
            if arrow(g, h).verdict:
                assert arrow(bigger, h).verdict


def test_arrow_ignores_roots():
    rng = random.Random(77)
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 7), 10)
        verdicts = {arrow(g, variant).verdict for variant in rooted_tt3_variants()}
        assert len(verdicts) == 1


def test_arrow_cyclic_pattern_short_circuits():
    cyc = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    res = arrow(complete_graph(5), cyc)
    assert not res.verdict
    assert res.certificate.is_acyclic()


def test_arrow_arcless_pattern_counts_vertices():
    empty3 = OrientedGraph.from_arcs(3, ())
    assert arrow(complete_graph(3), empty3).verdict
    assert arrow(Graph.empty(5), empty3).verdict
    assert not arrow(Graph.empty(2), empty3).verdict


def test_arrow_size_caps():
    with pytest.raises(TooLargeError):
        arrow(complete_graph(3), transitive_tournament(11))
    with pytest.raises(TooLargeError):
        arrow(Graph.empty(65), TT3)
    with pytest.raises(TooLargeError):
        arrow_exhaustive(complete_graph(8), TT3)   # 28 edges > scan cap


def test_arrow_budget_error():
    with pytest.raises(BudgetExceededError):
        arrow(complete_graph(3), TT3, node_budget=0)


def test_arrow_time_budget_chunking():
    res = arrow(complete_graph(4), TT3, time_budget=60.0)
    assert res.verdict


def test_arrow_pinned_node_counts():
    """Search sizes on fixed hard instances; they move only if the
    decision rule or the propagation changes."""
    assert arrow(complete_graph(8), TT4).nodes == 1222
    assert arrow(complete_graph(9), TT4).nodes == 1574
    res = arrow(sample_gnp(30, 0.5, 1), TT4)
    assert (res.verdict, res.nodes) == (False, 6492)


def test_arrow_time_budget_runs_one_search():
    """A generous deadline leaves the search and its node count as they are."""
    res = arrow(sample_gnp(30, 0.5, 1), TT4, time_budget=60.0)
    assert (res.verdict, res.nodes) == (False, 6492)


def test_arrow_expired_time_budget_stops_at_first_clock_read():
    with pytest.raises(BudgetExceededError) as err:
        arrow(sample_gnp(30, 0.5, 1), TT4, time_budget=0)
    assert err.value.nodes <= 1025


def test_certificate_verification_rejects_wrong_inputs():
    g = complete_graph(3)
    res = arrow(g, TT3)
    assert verify_certificate(g, TT3, res.certificate)
    # wrong underlying graph
    assert not verify_certificate(complete_graph(4), TT3, res.certificate)
    # an orientation that does contain the pattern
    assert not verify_certificate(g, TT3, transitive_tournament(3))


def test_contains_and_count_copies():
    assert contains_copy(transitive_tournament(4), TT3)
    assert not contains_copy(OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]), TT3)
    assert count_copies(transitive_tournament(4), TT3) == 4
    assert count_copies(transitive_tournament(3), directed_path(2)) == 3


def test_ramsey_numbers():
    assert oriented_ramsey_number(TT3) == 4
    assert oriented_ramsey_number(directed_path(2)) == 2
    assert oriented_ramsey_number(directed_path(3)) == 3
    assert oriented_ramsey_number(directed_path(4)) == 4
    assert oriented_ramsey_number(directed_path(5), n_max=3) is None


def test_ramsey_consistent_with_arrow_on_cliques():
    star = in_out_star(1, 2)
    r = oriented_ramsey_number(star)
    assert r is not None
    assert arrow(complete_graph(r), star).verdict
    assert not arrow(complete_graph(r - 1), star).verdict


def test_ramsey_rejects_bad_patterns():
    cyc = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        oriented_ramsey_number(cyc)
    with pytest.raises(TooLargeError):
        oriented_ramsey_number(transitive_tournament(6))
    with pytest.raises(TooLargeError):
        oriented_ramsey_number(TT3, n_max=11)


def test_ramsey_arcless_pattern():
    assert oriented_ramsey_number(OrientedGraph.from_arcs(4, ())) == 4
