"""Decorated permutations and the calculus that builds them from trees.

A decorated permutation is a permutation of [n] whose fixed points each
carry a colour (black or white).  Trip permutations of decorated forests
are computed by the rules-of-the-road walk: entering an internal vertex
through its i-th edge (edges ordered clockwise) the walk leaves through
edge i + h(v) mod deg(v).  Amalgamation glues two permutations the way
an edge glues two star trees; together with cyclic rotation it generates
exactly the permutations arising from trees.  A forest is a noncrossing
collection of trees, so the direct sum of a tree permutation with a
forest permutation, and rotation, take those to the permutations of
forests.  Both closures are built one size at a time, each size from the
finished sets of smaller sizes.
A DecoratedPermutation is the pair (images, decorations) and equals it.
Only its constructor validates.  The operations slice and shift the image
tuples of valid operands into valid results, and trip_permutation
relabels the trips of each decorated tree, walked once and cached, into
one after checking the forest (blocks, helicities, leaf counts) on every
call; all of them build the result with tuple.__new__, and the tests
check every closure member and every trip permutation through n = 7
against the constructor.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations as all_permutations
from operator import itemgetter

from .oracle import WHITE, BLACK


# The most permutations a closure may hold over all its sizes.
CLOSURE_BUDGET = 10**6
# The most letters the separable brute force runs on: it takes about 0.2 s
# at n = 8 and 1.9 s at n = 9 (2-CPU machine, Python 3.11), about tenfold
# per letter.
SEPARABLE_MAX_N = 10


class BudgetExceeded(RuntimeError):
    """A brute-force permutation family was asked for more than its fixed
    limit allows: SEPARABLE_MAX_N letters, or CLOSURE_BUDGET permutations."""


class SizeTooSmall(ValueError):
    """Amalgamation needs both operands on at least two letters."""


class DecoratedPermutation(tuple):
    """One-line permutation with coloured fixed points: the pair (images,
    decorations), and equal to it.

    images[i-1] = w(i); decorations is a sorted tuple of (fixed point,
    colour) pairs covering exactly the fixed points.
    """

    __slots__ = ()

    def __new__(cls, images, decorations=()):
        images = tuple(images)
        dec = dict(decorations)
        if any(type(v) is not int for v in chain(images, dec)):
            raise ValueError(f"letters must be ints: {images}, {decorations}")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {images}")
        fixed = {i for i, v in enumerate(images, start=1) if i == v}
        if len(dec) != len(decorations):
            raise ValueError(f"a fixed point is decorated twice: {decorations}")
        if dec.keys() != fixed:
            raise ValueError(f"decorations {sorted(dec)} do not match fixed points {sorted(fixed)}")
        if any(c not in (BLACK, WHITE) for c in dec.values()):
            raise ValueError("decorations must be black or white")
        return tuple.__new__(cls, (images, tuple(sorted(dec.items()))))

    def __getnewargs__(self):
        return tuple(self)

    images = property(itemgetter(0))
    decorations = property(itemgetter(1))

    def to_text(self) -> str:
        """One-line notation; black fixed points as _i, white as ^i."""
        dec = dict(self.decorations)
        parts = []
        for i, v in enumerate(self.images, start=1):
            if i in dec:
                parts.append(("_" if dec[i] == BLACK else "^") + str(v))
            else:
                parts.append(str(v))
        return "(" + ",".join(parts) + ")"


def _plain_antiexcedances(images) -> int:
    """Number of j with w(j) < j: the same set as the i = w(j) with
    w^{-1}(i) > i."""
    return sum(1 for j, v in enumerate(images, start=1) if v < j)


def antiexcedances(w: DecoratedPermutation) -> int:
    """Number of i with w^{-1}(i) > i, plus white fixed points."""
    return _plain_antiexcedances(w.images) + sum(1 for _, c in w.decorations if c == WHITE)


def descents(images) -> int:
    return sum(1 for a, b in zip(images, images[1:]) if a > b)


def pi_perm(k: int, n: int) -> DecoratedPermutation:
    """The single-vertex permutation (k+1, ..., n, 1, ..., k); for n = 1 the
    decorated one-letter permutations (black for k = 0, white for k = 1)."""
    if n == 1:
        if k not in (0, 1):
            raise ValueError("one-letter permutations have k in {0, 1}")
        return DecoratedPermutation((1,), ((1, BLACK if k == 0 else WHITE),))
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return DecoratedPermutation(tuple((i + k - 1) % n + 1 for i in range(1, n + 1)))


def direct_sum(s: DecoratedPermutation, t: DecoratedPermutation) -> DecoratedPermutation:
    """Block-diagonal concatenation, decorations shifted with their letters."""
    ns = len(s.images)
    images = s.images + tuple(v + ns for v in t.images)
    dec = s.decorations + tuple((i + ns, c) for i, c in t.decorations)
    return tuple.__new__(DecoratedPermutation, (images, dec))


def amalgamation(s: DecoratedPermutation, t: DecoratedPermutation) -> DecoratedPermutation:
    """Glue s and t into one permutation on n_s + n_t - 2 letters.

    Models gluing the tree of s at its boundary n_s to the tree of t at
    its boundary 1: trips of s that used to end at n_s continue through t
    from its first boundary, and vice versa.  Letters n_s .. n_s+n_t-2 of
    the result are letters 2 .. n_t of t.
    """
    ns, nt = len(s.images), len(t.images)
    if ns < 2 or nt < 2:
        raise SizeTooSmall("amalgamation needs both operands on >= 2 letters")
    if s.decorations or t.decorations:
        raise ValueError("amalgamation is defined on permutations without fixed points")
    top, bottom = t.images[0] + ns - 2, s.images[-1]
    left = tuple(top if v == ns else v for v in s.images[:-1])
    right = tuple(bottom if v == 1 else v + ns - 2 for v in t.images[1:])
    return tuple.__new__(DecoratedPermutation, (left + right, ()))


def cyclic_rotation(w: DecoratedPermutation) -> DecoratedPermutation:
    """cyc(w)(i) = w(i-1) + 1 with both index and value wrapped modulo n;
    a fixed point at n wraps to 1, so the decorations are sorted again."""
    images, dec = w
    n = len(images)
    images = tuple(v % n + 1 for v in images[-1:] + images[:-1])
    dec = tuple(sorted((i % n + 1, c) for i, c in dec))
    return tuple.__new__(DecoratedPermutation, (images, dec))


# -- trip permutations -------------------------------------------------------------


def trip_permutation(G) -> DecoratedPermutation:
    """Decorated permutation of a decorated forest via the rules of the road.

    Fixed points come exactly from single-leaf components and are coloured
    black when the leaf has h = 0, white when h = 1.  A component of three
    or more leaves takes its trips from _exits, computed once per decorated
    tree, relabelled by its block.  Decorations are nested tuples, as the
    oracle makes them.
    Raises ValueError when the blocks do not partition [n], a tree's leaves
    do not match its block, a vertex has h outside 1 .. deg - 1, or a
    single leaf has h outside {0, 1}.
    """
    labels = [p for block, _ in G for p in block]
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)) or not set(map(type, labels)) <= {int}:
        raise ValueError(f"the blocks of {G} do not partition [{n}]")
    images = [0] * n
    decorations = []
    for block, dec in G:
        if len(block) == 1:
            if dec not in (0, 1):
                raise ValueError(f"leaf {block[0]} has helicity {dec}, not 0 or 1")
            images[block[0] - 1] = block[0]
            decorations.append((block[0], WHITE if dec == 1 else BLACK))
        elif len(block) == 2:
            a, b = block
            images[a - 1] = b
            images[b - 1] = a
        else:
            exits = _exits(dec)
            if len(exits) != len(block):
                raise ValueError(f"a tree with {len(exits) - 1} leaves on block {block}")
            for p, e in zip(block, exits):
                images[p - 1] = block[e]
    decorations.sort()
    return tuple.__new__(DecoratedPermutation, (tuple(images), tuple(decorations)))


@lru_cache(maxsize=None)
def _exits(dec) -> tuple:
    """For each boundary position p of a decorated tree (0 the root's edge,
    then the leaves left to right), the position where the trip entering
    at p leaves.

    The trips follow the step table of _steps.  It is injective and no
    arrival from the boundary has a preimage, so every trip ends; with
    0 < h < deg no trip turns back along an edge, so on a tree none ends
    where it started.  A bad helicity raises ValueError, which is not
    cached, so it is raised on every call.
    """
    step, starts = [], [0]
    _steps(dec, ~0, step, starts)
    exits = []
    for a in starts:
        while a >= 0:
            a = step[a]
        exits.append(~a)
    return tuple(exits)


def _steps(node, back, step, starts):
    """Append to `step` the half-edges arriving at the vertices of `node`'s
    subtree, numbered consecutively per vertex from its parent edge (port 0)
    clockwise through its children, and return the number of port 0.

    step[a] is where the walk goes from arrival a: another arrival, or ~p
    when it leaves at boundary position p of the block (0 the root's edge,
    then the leaves left to right).  `back` is that target for port 0, and
    starts[p] collects the arrival from position p.
    """
    h, deg, base = node[0], len(node), len(step)
    if not 0 < h < deg:
        raise ValueError(f"a vertex of degree {deg} has helicity {h}")
    step.extend(node)  # reserve this vertex's slots ahead of its subtrees'
    targets = [back]
    for i in range(1, deg):
        if node[i] is None:
            targets.append(~len(starts))
            starts.append(base + i)
        else:
            targets.append(_steps(node[i], base + i, step, starts))
    step[base : base + deg] = targets[h:] + targets[:h]
    return base


# -- pattern avoidance ---------------------------------------------------------------


def is_separable(images) -> bool:
    """True when the permutation avoids both 2413 and 3142.

    Naive scan over 4-element subsequences; fine at the scale where
    exhaustive enumeration is feasible anyway.
    """
    for a, b, c, d in combinations(images, 4):
        if c < a < d < b or b < d < a < c:
            return False
    return True


def enumerate_separable(n: int, by_descents: bool = True) -> dict:
    """Histogram of separable permutations of [n], by descents (default) or
    by antiexcedances (fixed points counting as non-antiexcedances)."""
    if n > SEPARABLE_MAX_N:
        raise BudgetExceeded(f"separable enumeration capped at n = {SEPARABLE_MAX_N}")
    hist = {}
    for w in all_permutations(range(1, n + 1)):
        if not is_separable(w):
            continue
        key = descents(w) if by_descents else _plain_antiexcedances(w)
        hist[key] = hist.get(key, 0) + 1
    return hist


# -- closures ------------------------------------------------------------------------


def grass_tree_permutation_sets(max_n: int) -> dict:
    """Permutations of trees on 1..max_n letters (size -> set): the
    single-vertex permutations closed under amalgamation and cyclic rotation.

    Size m holds the stars, every amalgamation of a tree permutation on a
    letters with one on b letters, a + b = m + 2, and their rotations.
    Operands on two letters are left out: amalgamation with (2, 1) returns
    the other operand.
    """
    by_size = {}
    for m in range(1, max_n + 1):
        stars = [pi_perm(0, 1), pi_perm(1, 1)] if m == 1 else [pi_perm(k, m) for k in range(1, m)]
        glued = (
            amalgamation(s, t)
            for a in range(3, m)
            for s in by_size[a]
            for t in by_size[m + 2 - a]
        )
        _add_orbits(by_size, m, chain(stars, glued))
    return by_size


def grass_forest_permutation_sets(max_n: int) -> dict:
    """Closure of the tree permutations under direct sum and cyclic rotation:
    size m holds the tree permutations, every direct sum t + f of a tree
    permutation t on a letters and a forest permutation f on m - a, and
    their rotations.

    Taking the first summand from the trees alone loses nothing.  Every
    member of the closure under all direct sums has a noncrossing partition
    of its letters into blocks, with a tree permutation on each block, up
    to rotation: direct sum and rotation both keep that form.  Some block
    of a noncrossing partition is a cyclically contiguous arc, and rotating
    that arc to the front writes the member as t + f, with f of the same
    form on the other letters, so f is a forest permutation by induction
    on the size, and the member is a rotation of a seed built here.
    """
    by_size = grass_tree_permutation_sets(max_n)
    trees = {m: tuple(found) for m, found in by_size.items()}
    for m in range(2, max_n + 1):
        sums = (direct_sum(t, f) for a in range(1, m) for t in trees[a] for f in by_size[m - a])
        _add_orbits(by_size, m, sums)
    return by_size


def _add_orbits(by_size, m, seeds):
    """Add every seed on m letters and its cyclic rotations to by_size[m].
    Every permutation in by_size counts toward CLOSURE_BUDGET.  Each set
    stays a union of whole rotation orbits, so a seed not yet found starts
    an orbit none of whose members is found."""
    found = by_size.setdefault(m, set())
    total = sum(map(len, by_size.values()))
    for w in seeds:
        while w not in found:
            found.add(w)
            total += 1
            if total > CLOSURE_BUDGET:
                raise BudgetExceeded(f"closure exceeded {CLOSURE_BUDGET} permutations")
            w = cyclic_rotation(w)
