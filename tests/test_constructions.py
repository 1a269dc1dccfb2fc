import math
import random

import pytest

from orientramsey import (OrientedGraph, canonical, directed_path, in_out_star,
                          nonisomorphic_oriented_graphs, transitive_tournament)
from orientramsey.constructions import (random_oriented_tree, rooted_product,
                                        rooted_tt3, rooted_tt3_variants,
                                        tree_params)

from conftest import random_oriented


def test_rooted_tt3_variants():
    variants = rooted_tt3_variants()
    assert [v.root for v in variants] == [0, 1, 2]
    assert len({canonical(v) for v in variants}) == 3
    with pytest.raises(ValueError):
        rooted_tt3("hub")


def test_rooted_product_requires_root():
    with pytest.raises(ValueError):
        rooted_product(directed_path(2), transitive_tournament(3))


def test_rooted_product_counts_exhaustive_small():
    smalls = [g for n in (1, 2, 3) for g in nonisomorphic_oriented_graphs(n)]
    for f in smalls:
        for h0 in smalls:
            for root in range(h0.n):
                h = h0.with_root(root)
                prod = rooted_product(f, h)
                assert prod.n == f.n * h.n
                assert prod.e == f.e + f.n * h.e


def test_rooted_product_counts_random_4():
    rng = random.Random(23)
    for _ in range(60):
        f = random_oriented(rng, 4, 6)
        h = random_oriented(rng, 4, 6).with_root(rng.randrange(4))
        prod = rooted_product(f, h)
        assert prod.n == 16
        assert prod.e == f.e + 4 * h.e


def test_rooted_product_single_arc_with_rooted_triangle():
    f = directed_path(2)
    prod = rooted_product(f, rooted_tt3("source"))
    assert prod.n == 6 and prod.e == 7
    # two triangle blocks {0,1,2}, {3,4,5} plus one arc between the roots
    expected = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)}
    assert set(prod.arcs) == expected
    under = prod.underlying()
    assert under.e == 7
    assert under.rows[0] & under.rows[3] == 0    # the bridge joins the blocks


def test_rooted_product_block_structure():
    f = random_oriented(random.Random(4), 3, 3)
    h = rooted_tt3("middle")
    prod = rooted_product(f, h)
    for x in range(f.n):
        block = [x * 3 + i for i in range(3)]
        inside = [(u, v) for u, v in prod.arcs
                  if u in block and v in block]
        shifted = OrientedGraph.from_arcs(3, [(u - x * 3, v - x * 3) for u, v in inside])
        assert shifted == transitive_tournament(3)


def test_rooted_product_preserves_acyclicity():
    smalls = [g for n in (1, 2, 3) for g in nonisomorphic_oriented_graphs(n)
              if g.is_acyclic()]
    for f in smalls:
        for h0 in smalls:
            for root in range(h0.n):
                assert rooted_product(f, h0.with_root(root)).is_acyclic()
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        f = random_oriented(rng, 4, 6)
        h = random_oriented(rng, 4, 6).with_root(0)
        if not (f.is_acyclic() and h.is_acyclic()):
            continue
        assert rooted_product(f, h).is_acyclic()
        checked += 1


def test_tree_params_examples():
    for t in range(3, 8):
        params = tree_params(directed_path(t))
        assert (params.height, params.max_degree, params.a) == (t - 1, 2, t - 1)
    params = tree_params(in_out_star(2, 3))
    assert (params.height, params.max_degree, params.a) == (2, 5, 5)
    params = tree_params(in_out_star(0, 4))
    assert (params.height, params.max_degree, params.a) == (1, 4, 4)
    single = tree_params(OrientedGraph.from_arcs(1, ()))
    assert (single.height, single.max_degree, single.a) == (0, 0, 0)
    # the height pass is iterative: paths up to the type's vertex cap
    assert tree_params(directed_path(4096)).height == 4095


def test_tree_params_rejects_non_trees():
    cyc = OrientedGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        tree_params(cyc)
    forest = OrientedGraph.from_arcs(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        tree_params(forest)


def test_tree_params_relabel_invariant():
    rng = random.Random(19)
    for seed in range(10):
        t = random_oriented_tree(8, seed)
        perm = list(range(8))
        rng.shuffle(perm)
        assert tree_params(t.relabel(perm)) == tree_params(t)


def test_random_tree_tiny_orders():
    assert random_oriented_tree(1, 0).n == 1
    two = random_oriented_tree(2, 0)
    assert two.e == 1
    with pytest.raises(ValueError):
        random_oriented_tree(0, 0)


def test_random_tree_is_deterministic_tree():
    for seed in range(20):
        t = random_oriented_tree(12, seed)
        assert t == random_oriented_tree(12, seed)
        under = t.underlying()
        assert under.e == 11 and under.is_connected()


def test_random_tree_uniform_over_labeled_trees():
    # 4^2 = 16 labeled trees on 4 vertices; each should appear ~250 times
    counts = {}
    for seed in range(4000):
        under = random_oriented_tree(4, seed).underlying()
        counts[tuple(under.edges())] = counts.get(tuple(under.edges()), 0) + 1
    assert len(counts) == 16
    assert all(150 <= c <= 350 for c in counts.values())


def test_random_tree_max_degree_statistic():
    # Frozen from an independent estimate of the same distribution: vertex
    # degree = multiplicity in a uniform random length-998 sequence over
    # 1000 labels, plus one.  2000 such draws give mean max degree 6.48
    # (sd 0.68), so a 200-sample mean lands in [6.1, 6.9] with huge margin.
    # The asymptotic location log t / log log t (~3.57 at t = 1000) is
    # still far off at this size: the observed ratio is ~1.8.
    samples = []
    for seed in range(200):
        under = random_oriented_tree(1000, seed).underlying()
        samples.append(max(under.degree(v) for v in range(1000)))
    mean = sum(samples) / len(samples)
    assert 6.1 <= mean <= 6.9
    ratio = mean / (math.log(1000) / math.log(math.log(1000)))
    assert 1.4 <= ratio <= 2.2
