"""Definition-level checks of the enumeration machinery."""

import hashlib
import os
import random
from collections import Counter

import pytest

from gforest.genfun import GFKind
from gforest.oracle import (
    InvalidMove,
    contract_fully,
    contract_move,
    contractible_edges,
    count_by_statistics,
    decorate_grassmannian,
    decorated_vertices,
    enumerate_forests,
    enumerate_nc_partitions,
    enumerate_trees,
    forest_to_json,
    helicity,
    is_contracted,
    is_plabic,
    mom_dimension,
    schroeder_trees,
    tree_helicity,
    vertex_color,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
EXTENDED = os.environ.get("GFOREST_EXTENDED") == "1"


def all_set_partitions(elems):
    """Every set partition, by recursive placement of the last element."""
    elems = list(elems)
    if not elems:
        yield []
        return
    last = elems[-1]
    for partition in all_set_partitions(elems[:-1]):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [last]] + partition[i + 1 :]
        yield partition + [[last]]


def is_noncrossing(partition):
    index = {}
    for bi, block in enumerate(partition):
        for v in block:
            index[v] = bi
    elems = sorted(index)
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            for c in elems[i + 1 :]:
                for d in elems:
                    if a < b < c < d and index[a] == index[c] != index[b] == index[d]:
                        return False
    return True


@pytest.mark.parametrize("n", range(8))
def test_nc_partitions_match_filtered_set_partitions(n):
    brute = {
        frozenset(frozenset(b) for b in p)
        for p in all_set_partitions(range(1, n + 1))
        if is_noncrossing(p)
    }
    ours = set()
    for p in enumerate_nc_partitions(n):
        key = frozenset(frozenset(b) for b in p)
        assert key not in ours, "duplicate partition"
        ours.add(key)
    assert ours == brute
    assert len(ours) == CATALAN[n]


def test_nc_partition_of_empty_set():
    assert list(enumerate_nc_partitions(0)) == [()]


def test_crossing_partition_excluded():
    assert all(
        frozenset(map(frozenset, p)) != frozenset({frozenset({1, 3}), frozenset({2, 4})})
        for p in enumerate_nc_partitions(4)
    )


def test_tree_counts():
    assert len(list(enumerate_trees(2))) == 1
    assert len(list(enumerate_trees(4))) == 3
    assert len(list(enumerate_trees(5))) == 11


def test_forest_counts_small():
    assert len(list(enumerate_forests(0))) == 1
    assert len(list(enumerate_forests(2))) == 2
    assert len(list(enumerate_forests(3))) == 5


def test_schroeder_trees_are_series_reduced():
    for m in range(1, 7):
        for shape in schroeder_trees(m):
            stack = [shape]
            while stack:
                node = stack.pop()
                if node is not None:
                    assert len(node) >= 2
                    stack.extend(node)


# -- decorations -------------------------------------------------------------------


def star(n, h):
    return ((tuple(range(1, n + 1)), (h,) + (None,) * (n - 1)),)


def test_trivalent_star_has_two_decorations():
    tree = next(iter(enumerate_trees(3)))
    decs = list(decorate_grassmannian(tree))
    assert len(decs) == 2
    assert {d[0][1][0] for d in decs} == {1, 2}


def test_four_valent_star_decorations():
    tree = ((tuple(range(1, 5)), (None, None, None)),)
    assert len(list(decorate_grassmannian(tree))) == 3
    assert len(list(decorate_grassmannian(tree, plabic_only=True))) == 2


def test_adjacent_trivalent_contracted_colourings():
    tree = ((tuple(range(1, 5)), (None, (None, None))),)
    all_decs = list(decorate_grassmannian(tree, contracted_only=False))
    contracted = list(decorate_grassmannian(tree, contracted_only=True))
    assert len(all_decs) == 4
    assert len(contracted) == 2
    colours = {(d[0][1][0], d[0][1][2][0]) for d in contracted}
    assert colours == {(1, 2), (2, 1)}


# -- statistics --------------------------------------------------------------------


def test_helicity_of_stars():
    assert helicity(star(3, 1)) == 1
    assert helicity(star(3, 2)) == 2


def test_helicity_of_isolated_white_leaves():
    G = tuple(((i,), 1) for i in range(1, 6))
    assert helicity(G) == 5


def test_helicity_global_formula_matches_per_tree_sum():
    for F in enumerate_forests(5):
        for G in decorate_grassmannian(F, contracted_only=False):
            assert helicity(G) == sum(tree_helicity(c) for c in G)


@pytest.mark.parametrize("n", range(1, 7))
def test_statistics_match_the_vertex_pair_formulas(n):
    # helicity and mom_dimension are the sums over decorated_vertices' (h, deg)
    # pairs; this counts the forests they range over, contracted or not.
    seen = sum(
        1
        for F in enumerate_forests(n)
        for G in decorate_grassmannian(F, contracted_only=False)
    )
    everything = count_by_statistics(n, GFKind.GRASS_FOREST, contracted_only=False)
    assert seen == sum(everything.values())


def test_mom_dimension_small_trees():
    assert mom_dimension((((1,), 0),)) == 0
    assert mom_dimension((((1, 2), None),)) == 1
    assert mom_dimension(star(3, 1)) == 2
    assert mom_dimension(star(4, 2)) == 4  # generic vertex: 2*4 - 4


# -- contraction -------------------------------------------------------------------


def test_contract_two_white_trivalent_vertices():
    G = ((tuple(range(1, 5)), (1, None, (1, None, None))),)
    (edge,) = contractible_edges(G)
    merged = contract_move(G, edge)
    assert merged == ((tuple(range(1, 5)), (1, None, None, None)),)
    assert mom_dimension(G) == mom_dimension(merged) == 3
    assert helicity(G) == helicity(merged) == 1


def test_contract_rejects_mismatched_colours():
    G = ((tuple(range(1, 5)), (1, None, (2, None, None))),)
    with pytest.raises(InvalidMove):
        contract_move(G, (0, (2,)))


def test_contract_rejects_generic_vertex():
    G = ((tuple(range(1, 6)), (2, None, (1, None, None), None)),)
    with pytest.raises(InvalidMove):
        contract_move(G, (0, (2,)))


@pytest.mark.parametrize("n", range(1, 8))
def test_refinement_classes_have_unique_contracted_representative(n):
    reps = set()
    contracted = set()
    for F in enumerate_forests(n):
        for G in decorate_grassmannian(F, contracted_only=False):
            reps.add(contract_fully(G))
        contracted.update(decorate_grassmannian(F, contracted_only=True))
    assert reps == contracted


def test_contraction_order_does_not_matter():
    rng = random.Random(3)
    pool = [
        G
        for F in enumerate_forests(6)
        for G in decorate_grassmannian(F, contracted_only=False)
        if contractible_edges(G)
    ]
    for G in rng.sample(pool, 80):
        canonical = contract_fully(G)
        H = G
        while True:
            edges = contractible_edges(H)
            if not edges:
                break
            H = contract_move(H, rng.choice(edges))
        assert H == canonical


def test_invariance_under_random_moves():
    rng = random.Random(17)
    pool = [
        G
        for F in enumerate_forests(6)
        for G in decorate_grassmannian(F, contracted_only=False)
        if contractible_edges(G)
    ]
    for _ in range(300):
        G = rng.choice(pool)
        H = contract_move(G, rng.choice(contractible_edges(G)))
        assert helicity(H) == helicity(G)
        assert mom_dimension(H) == mom_dimension(G)


def _contractible_edges_by_walk(G):
    # Reference: one recursive walk per tree, each colour passed down.
    out = []

    def walk(ci, node, color, path):
        for i in range(1, len(node)):
            child = node[i]
            if child is not None:
                edge = path + (i,)
                child_color = vertex_color(child[0], len(child))
                if color is not None and child_color == color:
                    out.append((ci, edge))
                walk(ci, child, child_color, edge)

    for ci, (block, dec) in enumerate(G):
        if len(block) > 2:
            walk(ci, dec, vertex_color(dec[0], len(dec)), ())
    return out


@pytest.mark.parametrize(
    "n",
    [
        *range(1, 8),
        pytest.param(8, marks=pytest.mark.skipif(not EXTENDED, reason="set GFOREST_EXTENDED=1")),
    ],
)
def test_contractible_edges_match_the_walk(n):
    # Every decorated forest on n points, contracted or not; equal paths
    # come back as one object, so distinct ids count distinct paths.
    paths = []
    for F in enumerate_forests(n):
        for G in decorate_grassmannian(F, contracted_only=False):
            found = contractible_edges(G)
            assert found == _contractible_edges_by_walk(G), G
            paths.extend(path for _, path in found)
    assert len(set(map(id, paths))) == len(set(paths))


def test_contractible_edges_of_trees_built_elsewhere():
    # Contraction results and hand-built decorations are new tuples, not
    # the nodes decorate_grassmannian hands out.
    forests = [
        ((tuple(range(1, 7)), (1, None, (1, None, (1, None, None)), None)),),
        ((tuple(range(1, 8)), (2, (2, None, None), (1, None, (1, None, None)), None)),),
        ((tuple(range(1, 8)), (3, None, (2, None, (2, None, None)), None, None)),),
        (((1,), 1), ((2, 3, 4, 5, 6), (2, (2, None, None), (1, None, None))), ((7,), 0)),
        (
            (
                tuple(range(1, 12)),
                (1, (1, None, (1, None, None)), (2, None, (2, None, None)), None, (3, None, None, None)),
            ),
        ),
    ]
    for F in enumerate_forests(6):
        for G in decorate_grassmannian(F, contracted_only=False):
            forests.extend(contract_move(G, edge) for edge in contractible_edges(G))
    for G in forests:
        assert contractible_edges(G) == _contractible_edges_by_walk(G), G
    assert contractible_edges(forests[0]) == [(0, (2,)), (0, (2, 2))]
    assert contractible_edges(forests[4]) == [(0, (1,)), (0, (1, 2)), (0, (2, 2))]


def test_contractible_edges_are_a_new_list():
    G = ((tuple(range(1, 5)), (1, None, (1, None, None))),)
    found = contractible_edges(G)
    found.append((0, (1,)))
    found[0] = (0, (3,))
    assert contractible_edges(G) == [(0, (2,))]
    assert contractible_edges(G) is not contractible_edges(G)


# sha256 over repr(contractible_edges(G)) for every decorated forest on
# n <= 6 points, in enumeration order: (forests, edges, digest).  Seeded
# random moves pick from these lists, so their order is pinned too.
CONTRACTIBLE_EDGES_N6 = (
    3549,
    1504,
    "ff3251bbb6aa1059350e0c3dab5b9b4804a54fdcf8f82857eef97b7f69791f24",
)


def test_contractible_edges_are_pinned_to_n_six():
    digest = hashlib.sha256()
    forests = edges = 0
    for n in range(1, 7):
        for F in enumerate_forests(n):
            for G in decorate_grassmannian(F, contracted_only=False):
                found = contractible_edges(G)
                digest.update(repr(found).encode())
                forests += 1
                edges += len(found)
    assert (forests, edges, digest.hexdigest()) == CONTRACTIBLE_EDGES_N6


# -- histograms ---------------------------------------------------------------------


def test_count_by_statistics_examples():
    h4 = count_by_statistics(4, GFKind.GRASS_FOREST)
    assert {r: c for (k, r), c in h4.items() if k == 2} == {4: 1, 3: 4, 2: 10, 1: 12, 0: 6}
    assert count_by_statistics(3, GFKind.GRASS_TREE) == {(1, 2): 1, (2, 2): 1}
    h5 = count_by_statistics(5, GFKind.GRASS_FOREST)
    assert {r: c for (k, r), c in h5.items() if k == 2} == {
        6: 1, 5: 5, 4: 15, 3: 30, 2: 40, 1: 30, 0: 10,
    }


@pytest.mark.parametrize("kind", list(GFKind))
@pytest.mark.parametrize("n", range(1, 8))
def test_histograms_match_object_level_enumeration(n, kind):
    # Both count paths, contracted and not, in one test id per (n, kind).
    for contracted in (True, False):
        hist = Counter()
        source = enumerate_trees(n) if kind.is_tree else enumerate_forests(n)
        for F in source:
            for G in decorate_grassmannian(
                F, contracted_only=contracted, plabic_only=kind.is_plabic
            ):
                hist[(helicity(G), mom_dimension(G))] += 1
        assert dict(hist) == count_by_statistics(n, kind, contracted_only=contracted)


def test_contracted_plabic_forests_are_bipartite():
    for F in enumerate_forests(6):
        for G in decorate_grassmannian(F, contracted_only=True, plabic_only=True):
            assert is_plabic(G) and is_contracted(G)
            for ci, path in contractible_edges(G):
                raise AssertionError("same-colour adjacency in contracted forest")


def test_all_white_trees_collapse_to_unit_weight():
    # sum over trees of prod (-1)^(deg(v)-1) -- one net contribution per leaf set
    for n in range(3, 9):
        total = 0
        for tree in enumerate_trees(n):
            w = 1
            for h, deg in decorated_vertices(
                (tree[0][0], _all_white(tree[0][1]))
            ):
                w *= (-1) ** (deg - 1)
            total += w
        assert total == 1, n


def _all_white(shape):
    return (1,) + tuple(None if c is None else _all_white(c) for c in shape)


# -- serialization ------------------------------------------------------------------


def test_forest_json_round_trip_fields():
    G = (((1, 2, 3), (2, None, None)), ((4,), 1))
    doc = forest_to_json(G)
    assert doc["n"] == 4
    assert doc["helicity"] == helicity(G)
    assert doc["dimension"] == mom_dimension(G)
    assert doc["components"][0]["tree"] == [2, None, None]
    assert doc["components"][1] == {"block": [4], "tree": 1}
