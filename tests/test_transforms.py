"""Transform outputs against definitional sums over enumerated objects."""

import random

import pytest

from gforest.oracle import (
    component_degrees,
    dissection_piece_sizes,
    enumerate_dissections,
    enumerate_forests,
    enumerate_nc_partitions,
    enumerate_trees,
    tree_type_vector,
)
from gforest.ring import ONE, ZERO, BivarPoly, Q, Y
from gforest.series import TruncSeries
from gforest.transforms import (
    InvalidWeight,
    alternating_weight_series,
    forest_transform,
    nc_weight_series,
    speicher_transform,
    tree_transform,
    tree_type_count,
    vertex_weight_series,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
LITTLE_SCHROEDER = {2: 1, 3: 1, 4: 3, 5: 11, 6: 45, 7: 197, 8: 903, 9: 4279, 10: 20793}


def product(weights):
    out = ONE
    for w in weights:
        out = out * w
    return out


def nc_definitional(n, f):
    """Sum over noncrossing partitions of the product of block weights."""
    total = ZERO
    for partition in enumerate_nc_partitions(n):
        total = total + product(f[len(b)] for b in partition)
    return total


def tree_definitional(n, f):
    total = ZERO
    for tree in enumerate_trees(n):
        total = total + product(f[d] for d in component_degrees(tree[0]))
    return total


def forest_definitional(n, f, h1):
    total = ZERO
    for forest in enumerate_forests(n):
        weights = []
        for component in forest:
            if len(component[0]) == 1:
                weights.append(h1)
            else:
                weights.extend(f[d] for d in component_degrees(component))
        total = total + product(weights)
    return total


def random_weights(rng, degrees):
    return {
        d: BivarPoly({(rng.randrange(2), rng.randrange(2)): rng.randrange(-3, 4)})
        for d in degrees
    }


# -- noncrossing-partition transform ----------------------------------------------


def test_speicher_trivial_weight():
    h = speicher_transform({}, 6)
    assert all(h[i] == ONE if i == 0 else h[i].is_zero() for i in range(7))


def test_speicher_constant_weight_gives_catalan():
    h = speicher_transform({n: 1 for n in range(1, 11)}, 10)
    assert [h[i].constant_coefficient() for i in range(10)] == CATALAN
    # independently: brute-force count of noncrossing partitions
    for n in range(8):
        assert len(list(enumerate_nc_partitions(n))) == CATALAN[n]


def test_speicher_singleton_weight_gives_all_ones():
    h = speicher_transform({1: 1}, 8)
    assert all(h[i] == ONE for i in range(9))


def test_speicher_requires_unit_constant_term():
    with pytest.raises(InvalidWeight):
        speicher_transform(TruncSeries([2, 1, 1], 2))


@pytest.mark.parametrize("seed", range(7))
def test_speicher_matches_definitional_sums(seed):
    rng = random.Random(seed)
    f = random_weights(rng, range(1, 10))
    h = speicher_transform(f, 9)
    for n in range(10):
        assert h[n] == nc_definitional(n, f), n


# -- tree transform ----------------------------------------------------------------


def test_tree_constant_weight_gives_little_schroeder():
    h = tree_transform({d: 1 for d in range(3, 11)}, 10)
    for n, count in LITTLE_SCHROEDER.items():
        assert h[n].constant_coefficient() == count
        if n <= 9:
            assert len(list(enumerate_trees(n))) == count


def test_tree_trivalent_weight_gives_catalan():
    h = tree_transform({3: 1}, 8)
    assert [h[n].constant_coefficient() for n in range(2, 9)] == CATALAN[:7]


def test_tree_alternating_weight_gives_all_ones():
    h = tree_transform(alternating_weight_series(12))
    assert all(h[n] == ONE for n in range(2, 13))


def test_tree_rejects_low_degree_weights():
    with pytest.raises(InvalidWeight):
        tree_transform({2: 1}, 5)
    with pytest.raises(InvalidWeight):
        tree_transform(TruncSeries([0, 1, 0, 1], 3))


def test_tree_and_forest_refuse_orders_below_two():
    # The aggregate x^2 + ... needs order 2; below it the refusal is the
    # transform's own, not an error from inside the series layer.
    for order in (0, 1):
        with pytest.raises(InvalidWeight, match="order too small"):
            tree_transform({3: Y}, order)
        with pytest.raises(InvalidWeight, match="order too small"):
            forest_transform({3: Q}, Y, order=order)
    assert tree_transform({3: Y}, 2) == TruncSeries([0, 0, 1])


@pytest.mark.parametrize("seed", range(7))
def test_tree_matches_definitional_sums(seed):
    rng = random.Random(100 + seed)
    f = random_weights(rng, range(3, 10))
    h = tree_transform(f, 9)
    for n in range(2, 10):
        assert h[n] == tree_definitional(n, f), n


# -- forest transform --------------------------------------------------------------


def test_forest_no_weights_counts_nested_arcs():
    h = forest_transform(vertex_weight_series({}, 8), 0)
    assert [h[i].constant_coefficient() for i in range(6)] == [1, 0, 1, 0, 2, 0]


def test_forest_leaf_weight_counts_partial_matchings():
    h = forest_transform(vertex_weight_series({}, 8), 1)
    assert [h[i].constant_coefficient() for i in range(6)] == [1, 1, 2, 4, 9, 21]


def test_forest_alternating_weight_counts_block_shapes():
    # every tree on a block contributes 1, so [x^n] counts noncrossing partitions
    h = forest_transform(alternating_weight_series(9), 1)
    assert [h[n].constant_coefficient() for n in range(10)] == CATALAN


@pytest.mark.parametrize("seed", range(5))
def test_forest_matches_definitional_sums(seed):
    rng = random.Random(200 + seed)
    f = random_weights(rng, range(3, 10))
    h1 = BivarPoly({(rng.randrange(2), 0): rng.randrange(-2, 3)})
    h = forest_transform(f, h1, order=9)
    for n in range(10):
        assert h[n] == forest_definitional(n, f, h1), n


@pytest.mark.parametrize("seed", range(5))
def test_forest_factors_through_block_transform(seed):
    rng = random.Random(300 + seed)
    f = vertex_weight_series(random_weights(rng, range(3, 9)), 8)
    h1 = rng.randrange(-2, 3)
    direct = forest_transform(f, h1)
    block = 1 + TruncSeries.from_dict({1: h1}, 8) + tree_transform(f)
    assert direct == speicher_transform(block)


# -- dissections --------------------------------------------------------------------
# tree_transform counts dissections too: the cells of a dissection of the n-gon
# are the internal vertices of its dual tree.


def test_dissection_counts():
    h = tree_transform({d: 1 for d in range(3, 9)}, 8)
    for n in range(3, 8):
        assert h[n].constant_coefficient() == len(list(enumerate_dissections(n)))


def test_dissection_triangulations_are_catalan():
    h = tree_transform({3: 1}, 8)
    assert [h[n].constant_coefficient() for n in range(3, 9)] == CATALAN[1:7]


def test_dissection_size_marker_matches_piece_sizes():
    f = {d: BivarPoly({(d, 0): 1}) for d in range(3, 7)}
    h = tree_transform(f, 6)
    for n in range(3, 7):
        expect = {}
        for rho in enumerate_dissections(n):
            total = sum(dissection_piece_sizes(n, rho))
            expect[total] = expect.get(total, 0) + 1
        assert h[n] == BivarPoly({(t, 0): c for t, c in expect.items()}), n


# -- type counts --------------------------------------------------------------------


def test_tree_type_count_small_cases():
    assert tree_type_count(5, (3, 0, 0)) == 5
    assert tree_type_count(5, (1, 1, 0)) == 5
    assert tree_type_count(5, (0, 0, 1)) == 1
    assert tree_type_count(3, (1,)) == 1
    assert tree_type_count(9, (2, 1, 1, 0, 0, 0, 0)) == 495
    assert tree_type_count(5, (1, 0, 0)) == 0  # inconsistent type vector


def _type_vectors(n):
    """All (r_3, ..., r_n) with sum r_i (i - 2) = n - 2."""
    def rec(rest, degree):
        if degree > n:
            if rest == 0:
                yield ()
            return
        for count in range(rest // (degree - 2) + 1):
            for tail in rec(rest - count * (degree - 2), degree + 1):
                yield (count,) + tail

    yield from rec(n - 2, 3)


@pytest.mark.parametrize("n", range(2, 11))
def test_type_counts_sum_to_little_schroeder(n):
    assert sum(tree_type_count(n, r) for r in _type_vectors(n)) == LITTLE_SCHROEDER[n]


@pytest.mark.parametrize("n", range(2, 10))
def test_type_counts_match_enumeration(n):
    by_type = {}
    for tree in enumerate_trees(n):
        r = tree_type_vector(n, tree[0])
        by_type[r] = by_type.get(r, 0) + 1
    for r, count in by_type.items():
        assert tree_type_count(n, r) == count


@pytest.mark.parametrize("n", range(3, 8))
def test_dissection_types_match_tree_types(n):
    trees = {}
    for tree in enumerate_trees(n):
        r = tree_type_vector(n, tree[0])
        trees[r] = trees.get(r, 0) + 1
    dissections = {}
    for rho in enumerate_dissections(n):
        r = [0] * (n - 2)
        for size in dissection_piece_sizes(n, rho):
            r[size - 3] += 1
        key = tuple(r)
        dissections[key] = dissections.get(key, 0) + 1
    assert trees == dissections
