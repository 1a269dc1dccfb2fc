import gc
import hashlib
import importlib
import itertools
import random
import time

import pytest

from orientramsey import (BudgetExceededError, Graph, OrientedGraph,
                          TooLargeError, arrow, arrow_exhaustive, canonical,
                          complete_graph, contains_copy, count_copies,
                          cycle_graph, directed_path, dumps, enumerate_copies,
                          in_out_star, kernels, nonisomorphic_oriented_graphs,
                          oriented_ramsey_number,
                          transitive_tournament, verify_certificate)
from orientramsey.constructions import rooted_tt3_variants, tree_params
from orientramsey.experiments import disjoint_k4_packing, sample_gnp
from orientramsey.witness import chromatic_number

from conftest import (all_orientations, brute_arrow, brute_contains, brute_copies,
                      random_graph, random_oriented)

TT3 = transitive_tournament(3)
TT4 = transitive_tournament(4)
ARROW_MODULE = importlib.import_module("orientramsey.arrow")
PATTERNS = [TT3, directed_path(3), directed_path(4), in_out_star(1, 2)]
# every acyclic oriented graph on 2-4 vertices with an arc, isolated
# vertices and disconnected patterns included
SMALL_ACYCLIC = [h for n in (2, 3, 4) for h in nonisomorphic_oriented_graphs(n)
                 if h.e and h.is_acyclic()]


def _edges(pattern):
    return tuple(e for e, _ in pattern)


def test_enumerate_copies_triangle_host():
    pats = enumerate_copies(complete_graph(3), TT3)
    assert len(pats) == 6                       # one per transitive orientation
    assert len({_edges(p) for p in pats}) == 1  # a single triangle carries them
    res = arrow_exhaustive(complete_graph(3), TT3)
    assert res.free_count == 2                  # exactly the two cyclic triangles


def test_enumerate_copies_counts_triangles_in_k4():
    pats = enumerate_copies(complete_graph(4), TT3)
    assert len({_edges(p) for p in pats}) == 4
    assert len(pats) == 24


def test_enumerate_copies_triangle_free_host():
    assert enumerate_copies(cycle_graph(5), TT3) == []


def test_enumerate_copies_deterministic():
    g = random_graph(random.Random(3), 7, 12)
    assert enumerate_copies(g, TT3) == enumerate_copies(g, TT3)


def test_enumerate_copies_matches_brute_force():
    """Each copy exactly once, against injective maps: SMALL_ACYCLIC and
    TT5, on seeded hosts."""
    assert len(SMALL_ACYCLIC) == 36
    hosts = [sample_gnp(n, p, seed) for n in range(4, 9)
             for seed, p in ((1, 0.5), (2, 0.8))]
    for g in hosts:
        edges = g.edges()
        for h in SMALL_ACYCLIC + [transitive_tournament(5)]:
            pats = enumerate_copies(g, h)
            arc_sets = [frozenset((u, v) if b == 0 else (v, u)
                                  for (u, v), b in ((edges[e], b) for e, b in p))
                        for p in pats]
            assert len(set(arc_sets)) == len(pats)
            assert set(arc_sets) == brute_copies(g, h)


def test_arrow_matches_orientation_oracle():
    """Every SMALL_ACYCLIC pattern against 60 hosts drawn with seed 2160
    (4-8 vertices, at most 10 edges): the verdict equals the one found by
    running contains_copy on every orientation, which uses neither
    enumerate_copies nor the kernel, and every false certificate checks.
    This gates the kernel's converse cut, which 16 of the patterns take."""
    rng = random.Random(2160)
    hosts = [random_graph(rng, rng.randint(4, 8), 10) for _ in range(60)]
    verdicts = set()
    for g in hosts:
        orientations = list(all_orientations(g))
        for h in SMALL_ACYCLIC:
            res = arrow(g, h)
            assert res.verdict == all(contains_copy(d, h) for d in orientations)
            assert res.verdict or verify_certificate(g, h, res.certificate)
            verdicts.add(res.verdict)
    assert verdicts == {False, True}


def test_arrow_cuts_the_root_only_for_closed_patterns():
    """The in-star in_out_star(2, 0) is not isomorphic to its reverse.  On
    this host the root decision's first value has no star-free completion
    and the second has, so cutting the root would make the verdict true."""
    g = Graph.from_edges(8, [(0, 1), (0, 5), (0, 6), (2, 7), (3, 4), (3, 5), (4, 5)])
    h = in_out_star(2, 0)
    assert not ARROW_MODULE._symmetry(h).converse
    cut = kernels.dpll_orientation_search(g.e, enumerate_copies(g, h), 100, converse=True)
    assert cut[0] == kernels.UNSAT
    res = arrow(g, h)
    assert not res.verdict and verify_certificate(g, h, res.certificate)


def test_enumerate_copies_arcless_pattern():
    assert enumerate_copies(complete_graph(3), OrientedGraph.from_arcs(3, ())) == [()]
    assert enumerate_copies(complete_graph(2), OrientedGraph.from_arcs(3, ())) == []


def test_searches_leave_no_reference_cycles():
    """The recursive searches must not keep their closures, and what they
    reach (the pattern list, for the placement searches), alive until a
    full collection."""
    g = sample_gnp(40, 0.2, 1)

    def over_budget(**budget):      # K12 -> TT4 needs 857 placements
        try:
            arrow(complete_graph(12), TT4, **budget)
        except BudgetExceededError:
            return
        raise AssertionError(f"{budget} not enforced")

    runs = [lambda: enumerate_copies(g, TT3), lambda: arrow(complete_graph(8), TT4),
            lambda: over_budget(embed_budget=500), lambda: over_budget(node_budget=100),
            lambda: contains_copy(transitive_tournament(6), TT4),
            lambda: chromatic_number(sample_gnp(14, 0.5, 3)),
            lambda: disjoint_k4_packing(sample_gnp(12, 0.6, 1), exact=True),
            lambda: tree_params(directed_path(5))]
    for run in runs:      # warm the plan and symmetry caches
        run()
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_arrow_calls_module_level_enumerate_copies(monkeypatch):
    """perfbench traces copy enumeration by wrapping this module attribute."""
    calls = []
    original = ARROW_MODULE.enumerate_copies

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ARROW_MODULE, "enumerate_copies", counting)
    assert arrow(complete_graph(4), TT3).verdict
    assert len(calls) == 1


def test_symmetry_table_built_only_for_present_copies():
    """No copy of K8 or K10 in the host: Aut(K10) is never listed."""
    g = sample_gnp(24, 0.5, 1)
    for t in (8, 10):
        start = time.perf_counter()
        assert not arrow(g, transitive_tournament(t)).verdict
        assert time.perf_counter() - start < 0.1


def test_symmetry_converse_flag():
    """converse: h's pattern set is closed under reversing every edge."""
    for h in (TT3, TT4, directed_path(3), directed_path(4)):
        assert ARROW_MODULE._symmetry(h).converse
    assert not ARROW_MODULE._symmetry(in_out_star(1, 2)).converse
    assert sum(ARROW_MODULE._symmetry(h).converse for h in SMALL_ACYCLIC) == 16


def test_embed_budget_charges_symmetry_table():
    with pytest.raises(BudgetExceededError):
        arrow(complete_graph(12), TT4, embed_budget=50)


def test_embed_budget_outcome_ignores_table_cache():
    """The table's placements count on every call, so a borderline budget
    has the same outcome with the table cached or not."""
    g = complete_graph(6)

    def fits(budget, cold):
        if cold:
            ARROW_MODULE._symmetry.cache_clear()
        try:
            arrow(g, TT4, embed_budget=budget)
        except BudgetExceededError:
            return False
        return True

    need = next(b for b in itertools.count(1) if fits(b, cold=True))
    assert need > ARROW_MODULE._symmetry(TT4).placements
    assert fits(need, cold=False) and not fits(need - 1, cold=False)


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
    """Search and pattern counts on fixed hard instances; the nodes move
    only if the decision rule or the propagation changes."""
    res = arrow(complete_graph(8), TT4)
    assert (res.nodes, res.n_patterns) == (611, 1680)
    res = arrow(complete_graph(9), TT4)
    assert (res.nodes, res.n_patterns) == (787, 3024)
    res = arrow(sample_gnp(30, 0.5, 1), TT4)
    assert (res.verdict, res.nodes, res.n_patterns) == (False, 407, 9720)
    assert verify_certificate(sample_gnp(30, 0.5, 1), TT4, res.certificate)
    assert hashlib.sha256(dumps(res.certificate).encode()).hexdigest() == \
        "dc482ffa1f8293b2b727976226b221a3d341a5892b236d3eda5e86d85adc6ec2"


def test_arrow_time_budget_runs_one_search():
    """A generous deadline leaves the search and its node count as they are."""
    res = arrow(sample_gnp(30, 0.5, 1), TT4, time_budget=60.0)
    assert (res.verdict, res.nodes) == (False, 407)


def test_arrow_expired_time_budget_stops_at_first_clock_read():
    """K12 -> TT4 takes 3,383 nodes, past the first clock read at 1,024."""
    with pytest.raises(BudgetExceededError) as err:
        arrow(complete_graph(12), TT4, time_budget=0)
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
    rng = random.Random(31)
    for _ in range(30):
        d = random_oriented(rng, rng.randint(2, 7), 14)
        for h in PATTERNS:
            expected = sum(arcs <= set(d.arcs) for arcs in brute_copies(d.underlying(), h))
            assert count_copies(d, h) == expected


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
