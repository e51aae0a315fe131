import copy
import hashlib
import itertools
import os
import pickle
import random
from collections import Counter

import pytest

from gforest import perms
from gforest.genfun import GFKind, build_tree_gf, extract_counts, series_for
from gforest.oracle import (
    contract_move,
    contractible_edges,
    count_by_statistics,
    decorate_grassmannian,
    enumerate_forests,
    enumerate_trees,
    helicity,
    mom_dimension,
)
from gforest.perms import (
    BudgetExceeded,
    DecoratedPermutation,
    SizeTooSmall,
    amalgamation,
    antiexcedances,
    cyclic_rotation,
    descents,
    direct_sum,
    grass_forest_permutation_sets,
    grass_tree_permutation_sets,
    pi_perm,
    separable_counts,
    separable_permutation_sets,
    skew_sum,
    trip_permutation,
)

class Label(int):
    pass


WHITE_STAR3 = ((tuple(range(1, 4)), (1, None, None)),)
BLACK_STAR3 = ((tuple(range(1, 4)), (2, None, None)),)

LARGE_SCHROEDER = [1, 2, 6, 22, 90, 394, 1806]

EXTENDED = os.environ.get("GFOREST_EXTENDED") == "1"


def test_decorated_permutation_validation():
    with pytest.raises(ValueError):
        DecoratedPermutation((1, 1))
    with pytest.raises(ValueError):
        DecoratedPermutation((1, 2))  # undecorated fixed points
    with pytest.raises(ValueError):
        DecoratedPermutation((2, 1), ((1, "white"),))
    with pytest.raises(ValueError):
        DecoratedPermutation((1, 2), ((1, "white"), (1, "black"), (2, "white")))
    with pytest.raises(ValueError):
        DecoratedPermutation((1, 3, 2), ((1, "grey"),))
    w = DecoratedPermutation((1, 3, 2), ((1, "white"),))
    assert w.decorations == ((1, "white"),)


@pytest.mark.parametrize(
    "images, decorations",
    [((2.0, 1.0), ()), ((True,), ((1, "white"),)), ((1,), ((True, "white"),)), (("1",), ())],
)
def test_letters_must_be_ints(images, decorations):
    # 2.0 == 2 and True == 1, so only the type check refuses these.
    with pytest.raises(ValueError, match="letters must be ints"):
        DecoratedPermutation(images, decorations)


def test_a_permutation_is_its_pair():
    w = DecoratedPermutation([2, 1, 3], [(3, "white")])
    assert (w.images, w.decorations) == ((2, 1, 3), ((3, "white"),)) and type(w.images) is tuple
    assert w in {DecoratedPermutation((2, 1, 3), ((3, "white"),))}
    assert pickle.loads(pickle.dumps(w)) == w and copy.copy(w) == w


def test_rendering_markers():
    w = DecoratedPermutation((1, 3, 2), ((1, "black"),))
    assert w.to_text() == "(_1,3,2)"
    v = DecoratedPermutation((2, 1, 3), ((3, "white"),))
    assert v.to_text() == "(2,1,^3)"
    assert v.images == (2, 1, 3) and v.decorations == ((3, "white"),)


def test_trip_permutations_of_trivalent_stars():
    assert trip_permutation(WHITE_STAR3).images == (2, 3, 1)
    assert trip_permutation(BLACK_STAR3).images == (3, 1, 2)


def test_trip_permutation_of_single_vertex_stars():
    for n in range(3, 8):
        for k in range(1, n):
            star = ((tuple(range(1, n + 1)), (k,) + (None,) * (n - 1)),)
            assert trip_permutation(star) == pi_perm(k, n), (k, n)


def test_trip_permutation_decorates_leaves():
    G = (((1,), 0), ((2,), 1), ((3, 4), None))
    w = trip_permutation(G)
    assert w.images == (1, 2, 4, 3)
    assert w.decorations == ((1, "black"), (2, "white"))
    # Singleton blocks out of order still give sorted decorations.
    w = trip_permutation((((2,), 0), ((1,), 1), ((3, 4, 5), (1, None, None))))
    assert w == DecoratedPermutation(w.images, w.decorations)
    assert (w.images, w.decorations) == ((1, 2, 4, 5, 3), ((1, "white"), (2, "black")))


@pytest.mark.parametrize(
    "G, match",
    [
        ((((1, 2, 3), (0, None, None)),), "helicity 0"),
        ((((1, 2, 3), (3, None, None)),), "helicity 3"),
        ((((1, 2, 3, 4), (1, None, (0, None, None))),), "helicity 0"),
        ((((1, 2, 3), (1, None, None)), ((3,), 0)), "partition"),  # duplicated label
        ((((0, 1), None),), "partition"),
        ((((1, 3), None),), "partition"),
        ((((1.0, 2), None),), "partition"),
        ((((1,), 2),), "leaf 1 has helicity 2"),
        ((((1, 2, 3), (1, None, None, None)),), "3 leaves"),
        ((((1, 2, 3, 4), (1, None, None)),), "2 leaves"),
        ((((True, 2), None),), "partition"),  # True == 1, but a bool is not a label
        ((((1, Label(2)), None),), "partition"),
        ((((-1, 1), None),), "partition"),  # -1 would index the last slot
    ],
)
def test_trip_permutation_refuses_malformed_forests(G, match):
    with pytest.raises(ValueError, match=match):
        trip_permutation(G)


def star(n):
    return ((tuple(range(1, n + 1)), (1,) + (None,) * (n - 1)),)


def test_codes_hold_at_most_63_letters(monkeypatch):
    cycle = tuple(range(2, 64)) + (1,)
    assert DecoratedPermutation(cycle).images == cycle
    with pytest.raises(ValueError, match="a permutation on 64 letters"):
        DecoratedPermutation((64,) + cycle)
    assert trip_permutation(star(63)) == pi_perm(1, 63)
    a, b, c = pi_perm(1, 40), pi_perm(1, 23), pi_perm(1, 24)
    assert direct_sum(a, b) == DecoratedPermutation(a.images + tuple(v + 40 for v in b.images))
    assert skew_sum(a, b) == DecoratedPermutation(tuple(v + 23 for v in a.images) + b.images)
    assert amalgamation(a, pi_perm(1, 25)) == pi_perm(1, 63)
    # Each refusal comes before any table is read or any trip is walked.
    monkeypatch.setattr(perms, "_SHIFT", None)
    monkeypatch.setattr(perms, "_exits", None)
    with pytest.raises(ValueError, match="a direct sum on 64 letters"):
        direct_sum(a, c)
    with pytest.raises(ValueError, match="a skew sum on 64 letters"):
        skew_sum(a, c)
    with pytest.raises(ValueError, match="an amalgamation on 64 letters"):
        amalgamation(a, pi_perm(1, 26))
    with pytest.raises(ValueError, match="a forest on 64 points"):
        trip_permutation(star(64))


def test_a_cached_tree_is_relabelled_by_each_block():
    tree = (1, None, (2, None, None))  # the amalgamation of pi(1, 3) and pi(2, 3)
    alone = trip_permutation((((1, 2, 3, 4), tree),))
    assert alone == amalgamation(pi_perm(1, 3), pi_perm(2, 3))
    hits = perms._exits.cache_info().hits
    # The same tree on {2, 3, 5, 6}, around a swap on {1, 4} and leaf 7.
    w = trip_permutation((((1, 4), None), ((2, 3, 5, 6), tree), ((7,), 1)))
    assert perms._exits.cache_info().hits > hits
    block = (2, 3, 5, 6)
    relabelled = {block[i]: block[v - 1] for i, v in enumerate(alone.images)}
    assert (w.images, w.decorations) == (
        (4, relabelled[2], relabelled[3], 1, relabelled[5], relabelled[6], 7),
        ((7, "white"),),
    )


def test_a_bad_helicity_raises_on_every_call():
    G = (((1, 2, 3, 4), (1, None, (3, None, None))),)
    for _ in range(2):
        with pytest.raises(ValueError, match="helicity 3"):
            trip_permutation(G)


def test_a_cached_tree_on_a_block_of_the_wrong_size_is_refused():
    tree = (2, None, None, None)
    assert trip_permutation((((1, 2, 3, 4), tree),)) == pi_perm(2, 4)
    with pytest.raises(ValueError, match=r"3 leaves on block \(1, 2, 3\)"):
        trip_permutation((((1, 2, 3), tree),))
    with pytest.raises(ValueError, match=r"3 leaves on block \(1, 2, 3, 4, 5\)"):
        trip_permutation((((1, 2, 3, 4, 5), tree),))


def assert_round_trips(w):
    assert type(w) is DecoratedPermutation, w
    assert w == DecoratedPermutation(w.images, w.decorations), w
    assert repr(w) == repr((w.images, w.decorations))
    for copied in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(copied) is DecoratedPermutation and copied == w, w


@pytest.mark.parametrize(
    "n",
    list(range(1, 8))
    + [pytest.param(8, marks=pytest.mark.skipif(not EXTENDED, reason="set GFOREST_EXTENDED=1"))],
)
def test_trip_permutations_pass_the_constructor(n):
    # trip_permutation builds its result without the constructor; this is
    # what makes that safe.  Contracted forests are among these.
    for F in enumerate_forests(n):
        for G in decorate_grassmannian(F, contracted_only=False):
            assert_round_trips(trip_permutation(G))


# sha256 over repr(trip_permutation(G)) for every decorated forest on
# n <= 6 points, in enumeration order: (forests, digest).
TRIP_PERMUTATIONS_N6 = (3549, "0eb1ec534f001dd4e368ecc9ad1058a3a2da49cdae9478fe4309465ee9831d65")


def test_trip_permutations_are_pinned_to_n_six():
    digest = hashlib.sha256()
    forests = 0
    for n in range(1, 7):
        for F in enumerate_forests(n):
            for G in decorate_grassmannian(F, contracted_only=False):
                digest.update(repr(trip_permutation(G)).encode())
                forests += 1
    assert (forests, digest.hexdigest()) == TRIP_PERMUTATIONS_N6


def test_antiexcedance_examples():
    assert antiexcedances(DecoratedPermutation((2, 3, 1))) == 1
    assert antiexcedances(DecoratedPermutation((3, 1, 2))) == 2
    all_white = DecoratedPermutation((1, 2, 3), tuple((i, "white") for i in (1, 2, 3)))
    assert antiexcedances(all_white) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_antiexcedances_follow_the_inverse_definition(n):
    # #{i : w^{-1}(i) > i} from the inverse array, plus the white fixed
    # points, under every colouring of the fixed points.
    for images in itertools.permutations(range(1, n + 1)):
        inverse = {v: i for i, v in enumerate(images, start=1)}
        plain = sum(1 for i in range(1, n + 1) if inverse[i] > i)
        fixed = [i for i in range(1, n + 1) if images[i - 1] == i]
        for colours in itertools.product(("black", "white"), repeat=len(fixed)):
            w = DecoratedPermutation(images, tuple(zip(fixed, colours)))
            assert antiexcedances(w) == plain + colours.count("white"), w


def test_direct_sum_examples():
    one = pi_perm(1, 1)
    assert direct_sum(one, one).images == (1, 2)
    swap = DecoratedPermutation((2, 1))
    assert direct_sum(swap, one).images == (2, 1, 3)
    assert direct_sum(swap, swap).images == (2, 1, 4, 3)
    shifted = direct_sum(one, pi_perm(0, 1))
    assert shifted.decorations == ((1, "white"), (2, "black"))


def test_amalgamation_examples():
    swap = DecoratedPermutation((2, 1))
    assert amalgamation(swap, swap) == swap
    assert amalgamation(pi_perm(1, 3), pi_perm(1, 3)) == pi_perm(1, 4)
    wb_tree = ((tuple(range(1, 5)), (1, None, (2, None, None))),)
    assert amalgamation(pi_perm(1, 3), pi_perm(2, 3)) == trip_permutation(wb_tree)


def test_amalgamation_refuses_fixed_points():
    for fixed in (
        DecoratedPermutation((1, 3, 2), ((1, "black"),)),
        DecoratedPermutation((3, 2, 1), ((2, "white"),)),
    ):
        for s, t in ((fixed, pi_perm(1, 3)), (pi_perm(1, 3), fixed)):
            with pytest.raises(ValueError, match="without fixed points"):
                amalgamation(s, t)


def test_amalgamation_rejects_small_operands():
    with pytest.raises(SizeTooSmall):
        amalgamation(pi_perm(1, 1), DecoratedPermutation((2, 1)))


def test_cyclic_rotation_examples():
    assert cyclic_rotation(DecoratedPermutation((2, 3, 1))).images == (2, 3, 1)
    w = DecoratedPermutation((2, 1, 3), ((3, "black"),))
    rotated = cyclic_rotation(w)
    assert rotated.images == (1, 3, 2)
    assert rotated.decorations == ((1, "black"),)
    # The fixed point at n wraps to 1 and must come first again.
    ends = DecoratedPermutation((1, 3, 2, 4), ((1, "black"), (4, "white")))
    assert cyclic_rotation(ends).decorations == ((1, "white"), (2, "black"))
    assert cyclic_rotation(ends) == DecoratedPermutation((1, 2, 4, 3), ((2, "black"), (1, "white")))
    v = pi_perm(2, 5)
    out = v
    for _ in range(5):
        out = cyclic_rotation(out)
    assert out == v


def test_n_rotations_return_every_forest_permutation():
    for n, found in grass_forest_permutation_sets(5).items():
        for w in found:
            out = w
            for _ in range(n):
                out = cyclic_rotation(out)
            assert out == w, w


def test_trip_permutation_invariant_under_contraction():
    rng = random.Random(23)
    pool = [
        G
        for F in enumerate_forests(6)
        for G in decorate_grassmannian(F, contracted_only=False)
        if contractible_edges(G)
    ]
    for _ in range(300):
        G = rng.choice(pool)
        H = contract_move(G, rng.choice(contractible_edges(G)))
        assert trip_permutation(H) == trip_permutation(G)


@pytest.mark.parametrize("n", range(1, 7))
def test_antiexcedances_equal_helicity(n):
    for F in enumerate_forests(n):
        for G in decorate_grassmannian(F, contracted_only=False):
            assert antiexcedances(trip_permutation(G)) == helicity(G)


# -- separable permutations ------------------------------------------------------


def is_separable(images) -> bool:
    """True when the permutation avoids both 2413 and 3142, by a scan over
    its 4-element subsequences."""
    for a, b, c, d in itertools.combinations(images, 4):
        if c < a < d < b or b < d < a < c:
            return False
    return True


def test_separable_histogram_n3():
    assert Counter(map(descents, separable_permutation_sets(3)[3])) == {0: 1, 1: 4, 2: 1}


def test_separable_totals_follow_large_schroeder():
    sets = separable_permutation_sets(7)
    for n in range(1, 8):
        assert len(sets[n]) == LARGE_SCHROEDER[n - 1]


def test_separable_pattern_examples():
    assert not is_separable((2, 4, 1, 3))
    assert not is_separable((3, 1, 4, 2))
    assert not is_separable((1, 3, 5, 2, 4))  # contains 2413 at positions 2..5
    assert is_separable((5, 4, 3, 2, 1))


@pytest.mark.parametrize(
    "n",
    list(range(1, 9))
    + [pytest.param(9, marks=pytest.mark.skipif(not EXTENDED, reason="set GFOREST_EXTENDED=1"))],
)
def test_separable_permutations_match_the_brute_force(n):
    # The reference filters all n! permutations for 2413 and 3142; the
    # builder makes each member once.
    built = [w.images for w in separable_permutation_sets(n)[n]]
    reference = {w for w in itertools.permutations(range(1, n + 1)) if is_separable(w)}
    assert len(built) == len(set(built)) and set(built) == reference


def test_skew_sum_examples():
    one = pi_perm(0, 1)
    swap = DecoratedPermutation((2, 1))
    assert skew_sum(one, one).images == (2, 1)
    assert skew_sum(swap, one).images == (3, 2, 1)
    assert skew_sum(one, swap) == DecoratedPermutation((3, 2, 1), ((2, "black"),))
    assert skew_sum(swap, swap).images == (4, 3, 2, 1)


def test_separable_counts_are_plabic_tree_coefficients():
    # A separable permutation on m letters is a plabic tree on m + 1 leaves.
    counts = separable_counts(14)
    series = build_tree_gf(GFKind.PLABIC_TREE, 15).eval_q(1)
    assert list(counts) == list(range(1, 15))
    for m, count in counts.items():
        assert count == series[m + 1].eval_y(1).constant_coefficient(), m


def test_separable_budget(monkeypatch):
    def never(*args):
        raise AssertionError("a permutation was built")

    for name in ("pi_perm", "direct_sum", "skew_sum"):
        monkeypatch.setattr(perms, name, never)
    with pytest.raises(
        BudgetExceeded, match="would hold 1296281 permutations, over the budget of 1000000"
    ):
        separable_permutation_sets(11)


@pytest.mark.parametrize("n", range(2, 8))
def test_separable_descents_match_plabic_tree_series(n):
    hist = Counter(map(descents, separable_permutation_sets(n - 1)[n - 1]))
    series = build_tree_gf(GFKind.PLABIC_TREE, n).eval_q(1)
    for k in range(1, n):
        assert hist.get(k - 1, 0) == series[n].coefficient(k, 0), (n, k)


# -- closures ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_permutation_closure_equals_trip_permutations(n):
    closure = grass_tree_permutation_sets(n)[n]
    trips = {
        trip_permutation(G)
        for T in enumerate_trees(n)
        for G in decorate_grassmannian(T, contracted_only=True)
    }
    assert closure == trips


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_permutation_counts_match_series(n):
    hist = Counter()
    for T in enumerate_trees(n):
        for G in decorate_grassmannian(T, contracted_only=True):
            hist[(antiexcedances(trip_permutation(G)), mom_dimension(G))] += 1
    assert dict(hist) == extract_counts(build_tree_gf(GFKind.GRASS_TREE, n), n)


@pytest.mark.parametrize("n", range(1, 7))
def test_forest_permutation_closure_equals_trip_permutations(n):
    closure = grass_forest_permutation_sets(n)[n]
    trips = {
        trip_permutation(G)
        for F in enumerate_forests(n)
        for G in decorate_grassmannian(F, contracted_only=True)
    }
    assert closure == trips


def all_pairs_forest_closure(max_n):
    sets = grass_tree_permutation_sets(max_n)
    for m in range(2, max_n + 1):
        for w in [direct_sum(s, t) for a in range(1, m) for s in sets[a] for t in sets[m - a]]:
            while w not in sets[m]:
                sets[m].add(w)
                w = cyclic_rotation(w)
    return sets


@pytest.mark.parametrize(
    "max_n",
    list(range(1, 8))
    + [pytest.param(8, marks=pytest.mark.skipif(not EXTENDED, reason="set GFOREST_EXTENDED=1"))],
)
def test_forest_closure_equals_the_all_pairs_closure(max_n):
    # The closure sums a tree permutation with a forest permutation; the
    # reference sums every ordered pair of smaller forest permutations.
    assert grass_forest_permutation_sets(max_n) == all_pairs_forest_closure(max_n)


def test_closure_budget(monkeypatch):
    monkeypatch.setattr(perms, "CLOSURE_BUDGET", 5)
    with pytest.raises(BudgetExceeded, match="closure exceeded 5 permutations"):
        grass_tree_permutation_sets(7)
    # At n <= 6 the tree closure (238 permutations) fits in 1000; the
    # forest closure (2357) does not.
    monkeypatch.setattr(perms, "CLOSURE_BUDGET", 1000)
    assert sum(map(len, grass_tree_permutation_sets(6).values())) == 238
    with pytest.raises(BudgetExceeded):
        grass_forest_permutation_sets(6)


def test_closure_budget_stops_the_build_within_a_size(monkeypatch):
    # The forest closure through n = 6 holds 2357 permutations; through
    # n = 7 it holds 15,553.  Candidates are built one at a time, so the
    # build stops soon after the budget is passed, long before the 5,008
    # direct sums of size 7 (each tree permutation with each smaller forest
    # permutation) are made.
    calls = []

    def counted(s, t):
        calls.append(1)
        return direct_sum(s, t)

    monkeypatch.setattr(perms, "direct_sum", counted)
    monkeypatch.setattr(perms, "CLOSURE_BUDGET", 2357)
    assert sum(map(len, grass_forest_permutation_sets(6).values())) == 2357
    calls.clear()
    with pytest.raises(BudgetExceeded, match="closure exceeded 2357 permutations"):
        grass_forest_permutation_sets(7)
    assert 0 < len(calls) < 1000


def test_amalgamation_with_the_two_letter_permutation_is_the_identity():
    swap = DecoratedPermutation((2, 1))
    sets = grass_tree_permutation_sets(7)
    for n in range(2, 8):
        for t in sets[n]:
            assert amalgamation(swap, t) == t == amalgamation(t, swap), t


# sha256 over the sorted (images, decorations) of every permutation on
# 1..7 letters in each closure.
CLOSURE_DIGESTS_N7 = {
    "tree": (1406, "005576673135e767120eeb0735e2286ff205d4b8f34f13699f2a0dad740e6088"),
    "forest": (15553, "09df9a40bf752f5c9588f35bfe3b3d352abd1755517b5f52e382757d7bdcf022"),
}


@pytest.mark.parametrize(
    "family, closure",
    [("tree", grass_tree_permutation_sets), ("forest", grass_forest_permutation_sets)],
)
def test_closures_are_pinned_at_n_seven(family, closure):
    keys = sorted((w.images, w.decorations) for s in closure(7).values() for w in s)
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(key).encode())
    assert (len(keys), digest.hexdigest()) == CLOSURE_DIGESTS_N7[family]


# (kind, builder, shift): the builder's set on n letters holds [x^(n + shift)]
# of the kind's series at y = q = 1.
CLOSURES = [
    (GFKind.GRASS_TREE, grass_tree_permutation_sets, 0),
    (GFKind.GRASS_FOREST, grass_forest_permutation_sets, 0),
    (GFKind.PLABIC_TREE, separable_permutation_sets, 1),
]


@pytest.mark.parametrize(
    "kind, closure, shift, max_n",
    [
        pytest.param(kind, closure, shift, 6, id=f"{kind}-{closure.__name__}")
        for kind, closure, shift in CLOSURES
    ]
    + [
        pytest.param(
            kind,
            closure,
            shift,
            8,
            id=f"{kind}-{closure.__name__}-8",
            marks=pytest.mark.skipif(not EXTENDED, reason="set GFOREST_EXTENDED=1"),
        )
        for kind, closure, shift in CLOSURES
    ],
)
def test_closure_sizes_are_the_series_coefficients_at_y_q_one(kind, closure, shift, max_n):
    sets = closure(max_n)
    series = series_for(kind, max_n + shift)
    for n in range(1, max_n + 1):
        assert len(sets[n]) == series[n + shift].eval_q(1).eval_y(1).constant_coefficient(), n
        assert len(sets[n]) == sum(count_by_statistics(n + shift, kind).values()), n


@pytest.mark.parametrize(
    "closure, max_n",
    [
        pytest.param(closure, n, id=f"{closure.__name__}-{n}", marks=marks)
        for _, closure, _ in CLOSURES
        for n, marks in ((7, ()), (8, pytest.mark.skipif(not EXTENDED, reason="set GFOREST_EXTENDED=1")))
    ],
)
def test_closure_members_pass_the_constructor(closure, max_n):
    # The closure operations skip validation; this is what makes that safe.
    for found in closure(max_n).values():
        for w in found:
            assert_round_trips(w)


def test_the_closures_validate_only_the_stars(monkeypatch):
    made = []
    new = DecoratedPermutation.__new__

    def counted(cls, *args):
        made.append(args)
        return new(cls, *args)

    monkeypatch.setattr(DecoratedPermutation, "__new__", staticmethod(counted))
    grass_forest_permutation_sets(6)
    assert len(made) == 2 + sum(range(1, 6))  # pi_perm(k, m) for 1 <= k < m
