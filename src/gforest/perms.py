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
forests.  The two closures and the separable permutations are built one
size at a time, each size from the finished sets of smaller sizes.
A DecoratedPermutation is its code: one byte per letter, byte i - 1
holding w(i), plus WHITE_FLAG on a white fixed point, so it holds at most
MAX_LETTERS letters; it compares and hashes as those bytes.  Only its
constructor validates.  Direct sum, skew sum and rotation are one
concatenation and one `translate` through a 256-entry table for their
size, built on first use; amalgamation adds one `replace` on each
operand.  trip_permutation relabels the trips of each decorated tree,
walked once and cached, into one after checking the forest (blocks,
helicities, leaf counts) on every call.  All of them build the result
with bytes.__new__, and the tests check every member of each family and
every trip permutation through n = 7 against the constructor.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import eq, gt, lt

from .oracle import WHITE, BLACK
from .ring import _Tables


# The most permutations a family may hold over all its sizes.
CLOSURE_BUDGET = 10**6
# A letter takes the low six bits of its byte and the colour the seventh.
WHITE_FLAG = 64
MAX_LETTERS = WHITE_FLAG - 1


class BudgetExceeded(RuntimeError):
    """A permutation family would hold more than CLOSURE_BUDGET permutations
    over all its sizes."""


class SizeTooSmall(ValueError):
    """Amalgamation needs both operands on at least two letters."""


# Byte -> its letter, the flag cleared.
_LETTERS = bytes(range(WHITE_FLAG)) * 4
# Byte -> its letter, or 0 for a white fixed point.
_WHITE_AS_ZERO = bytes(range(WHITE_FLAG)) + bytes(256 - WHITE_FLAG)
# 1, 2, ..., MAX_LETTERS: the position of each byte of a code.
_POSITIONS = _LETTERS[1:WHITE_FLAG]
# Letter -> the one-byte code holding it.
_BYTE = [_LETTERS[v : v + 1] for v in range(WHITE_FLAG)]
# _SHIFT[a]: letter v -> v + a, the flag kept (v + a <= MAX_LETTERS).
_SHIFT = _Tables(lambda a: bytes((b + a) & 255 for b in range(256)))
# _ROTATE[n]: letter v -> v % n + 1, the flag kept (n = 0 has no letter).
_ROTATE = _Tables(
    lambda n: bytes(b & WHITE_FLAG | (b & MAX_LETTERS) % (n or 1) + 1 for b in range(256))
)


def _too_long(what: str, n: int) -> ValueError:
    return ValueError(f"{what} on {n} letters: a code holds at most {MAX_LETTERS}")


class DecoratedPermutation(bytes):
    """One-line permutation with coloured fixed points, stored as its code:
    byte i - 1 is w(i), plus WHITE_FLAG when i is a white fixed point.

    images is the tuple (w(1), ..., w(n)); decorations is the sorted tuple
    of (fixed point, colour) pairs covering exactly the fixed points; repr
    is that of the pair (images, decorations).
    """

    __slots__ = ()

    def __new__(cls, images, decorations=()):
        images = tuple(images)
        n = len(images)
        if n > MAX_LETTERS:
            raise _too_long("a permutation", n)
        dec = dict(decorations)
        if any(type(v) is not int for v in chain(images, dec)):
            raise ValueError(f"letters must be ints: {images}, {decorations}")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {images}")
        fixed = {i for i, v in enumerate(images, start=1) if i == v}
        if len(dec) != len(decorations):
            raise ValueError(f"a fixed point is decorated twice: {decorations}")
        if dec.keys() != fixed:
            raise ValueError(f"decorations {sorted(dec)} do not match fixed points {sorted(fixed)}")
        if any(c not in (BLACK, WHITE) for c in dec.values()):
            raise ValueError("decorations must be black or white")
        code = list(images)
        for i, c in dec.items():
            if c == WHITE:
                code[i - 1] += WHITE_FLAG
        return bytes.__new__(cls, code)

    def __getnewargs__(self):
        return self.images, self.decorations

    def letters(self) -> bytes:
        """w(1), ..., w(n) as bytes, the colours dropped."""
        return self.translate(_LETTERS)

    @property
    def images(self) -> tuple:
        return tuple(self.letters())

    @property
    def decorations(self) -> tuple:
        return tuple(
            (i, WHITE if b & WHITE_FLAG else BLACK)
            for i, b in enumerate(self, start=1)
            if b & MAX_LETTERS == i
        )

    def __repr__(self) -> str:
        return repr((self.images, self.decorations))

    __str__ = __repr__

    def to_text(self) -> str:
        """One-line notation; black fixed points as _i, white as ^i."""
        parts = []
        for i, b in enumerate(self, start=1):
            v = b & MAX_LETTERS
            if v == i:
                parts.append(("^" if b & WHITE_FLAG else "_") + str(v))
            else:
                parts.append(str(v))
        return "(" + ",".join(parts) + ")"


def antiexcedances(w: DecoratedPermutation) -> int:
    """Number of i with w^{-1}(i) > i, plus white fixed points: the j with
    w(j) < j, in one pass over the code with each white fixed point read
    as 0."""
    return sum(map(lt, w.translate(_WHITE_AS_ZERO), _POSITIONS))


def descents(images) -> int:
    """Number of i with images[i - 1] > images[i], for a tuple or bytes."""
    return sum(map(gt, images, images[1:]))


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
    """Block-diagonal concatenation: t's letters shifted by len(s), colours
    kept."""
    if len(s) + len(t) > MAX_LETTERS:
        raise _too_long("a direct sum", len(s) + len(t))
    return bytes.__new__(DecoratedPermutation, s + t.translate(_SHIFT[len(s)]))


def skew_sum(s: DecoratedPermutation, t: DecoratedPermutation) -> DecoratedPermutation:
    """Anti-diagonal concatenation: s's letters shifted by len(t).  The
    result's fixed points are black, so neither operand may have a white one."""
    if len(s) + len(t) > MAX_LETTERS:
        raise _too_long("a skew sum", len(s) + len(t))
    return bytes.__new__(DecoratedPermutation, s.translate(_SHIFT[len(t)]) + t)


def amalgamation(s: DecoratedPermutation, t: DecoratedPermutation) -> DecoratedPermutation:
    """Glue s and t into one permutation on n_s + n_t - 2 letters.

    Models gluing the tree of s at its boundary n_s to the tree of t at
    its boundary 1: trips of s that used to end at n_s continue through t
    from its first boundary, and vice versa.  Letters n_s .. n_s+n_t-2 of
    the result are letters 2 .. n_t of t.
    """
    ns, nt = len(s), len(t)
    if ns < 2 or nt < 2:
        raise SizeTooSmall("amalgamation needs both operands on >= 2 letters")
    if ns + nt - 2 > MAX_LETTERS:
        raise _too_long("an amalgamation", ns + nt - 2)
    if any(map(eq, s.translate(_LETTERS), _POSITIONS)) or any(
        map(eq, t.translate(_LETTERS), _POSITIONS)
    ):
        raise ValueError("amalgamation is defined on permutations without fixed points")
    # Without fixed points, s holds n_s once before its last letter, and t's
    # letter 1, shifted to n_s - 1, is the only such letter of the right part.
    left = s[:-1].replace(_BYTE[ns], _BYTE[t[0] + ns - 2])
    right = t[1:].translate(_SHIFT[ns - 2]).replace(_BYTE[ns - 1], s[-1:])
    return bytes.__new__(DecoratedPermutation, left + right)


def cyclic_rotation(w: DecoratedPermutation) -> DecoratedPermutation:
    """cyc(w)(i) = w(i-1) + 1 with both index and value wrapped modulo n;
    a fixed point keeps its colour."""
    return bytes.__new__(DecoratedPermutation, (w[-1:] + w[:-1]).translate(_ROTATE[len(w)]))


# -- trip permutations -------------------------------------------------------------


def trip_permutation(G) -> DecoratedPermutation:
    """Decorated permutation of a decorated forest via the rules of the road.

    Fixed points come exactly from single-leaf components and are coloured
    black when the leaf has h = 0, white when h = 1.  A component of three
    or more leaves takes its trips from _exits, computed once per decorated
    tree, relabelled by its block.  Decorations are nested tuples, as the
    oracle makes them.
    Raises ValueError when the forest has more than MAX_LETTERS points, the
    blocks do not partition [n], a tree's leaves do not match its block, a
    vertex has h outside 1 .. deg - 1, or a single leaf has h outside
    {0, 1}.
    """
    n = 0
    for block, _ in G:
        n += len(block)
    if n > MAX_LETTERS:
        raise ValueError(f"a forest on {n} points: a code holds at most {MAX_LETTERS} letters")
    # Each label is checked in the loop that writes its image: a label of
    # another type, out of range or already written means the blocks do not
    # partition [n].  Single leaves, most components, take no exit table.
    images = [0] * n
    for block, dec in G:
        if len(block) == 1:
            if dec not in (0, 1):
                raise ValueError(f"leaf {block[0]} has helicity {dec}, not 0 or 1")
            (p,) = block
            if type(p) is not int or not 0 < p <= n or images[p - 1]:
                raise ValueError(f"the blocks of {G} do not partition [{n}]")
            images[p - 1] = p + WHITE_FLAG if dec else p  # white adds the flag
            continue
        exits = (1, 0) if len(block) == 2 else _exits(dec)  # two leaves trip to each other
        if len(exits) != len(block):
            raise ValueError(f"a tree with {len(exits) - 1} leaves on block {block}")
        for p, e in zip(block, exits):
            if type(p) is not int or not 0 < p <= n or images[p - 1]:
                raise ValueError(f"the blocks of {G} do not partition [{n}]")
            images[p - 1] = block[e]
    return bytes.__new__(DecoratedPermutation, images)


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
    an orbit none of whose members is found.  A member is its m-byte code,
    so the membership test hashes and compares bytes, and each rotation is
    one `translate`."""
    found = by_size.setdefault(m, set())
    total = sum(map(len, by_size.values()))
    for w in seeds:
        while w not in found:
            found.add(w)
            total += 1
            if total > CLOSURE_BUDGET:
                raise BudgetExceeded(f"closure exceeded {CLOSURE_BUDGET} permutations")
            w = cyclic_rotation(w)


def separable_counts(max_n: int) -> dict:
    """Separable permutations on m letters (m -> count, 1 <= m <= max_n):
    I_1 = S_1 = 1 and, for m >= 2, P_m = sum_a I_a S_(m-a) direct sums, as
    many skew sums, S_m = 2 P_m in all and I_m = P_m that are no direct sum."""
    counts, firsts = {}, {}
    for m in range(1, max_n + 1):
        p = sum(firsts[a] * counts[m - a] for a in range(1, m))
        firsts[m], counts[m] = (p, 2 * p) if m > 1 else (1, 1)
    return counts


def separable_permutation_sets(max_n: int) -> dict:
    """Separable permutations (avoiding 2413 and 3142) on 1..max_n letters,
    max_n >= 1 (size -> tuple), with black fixed points.  On m >= 2 letters
    each is, in exactly one way, a direct sum s + t whose first block s is
    no direct sum, or a skew sum whose first block is no skew sum, with t
    separable, so each is built once.  Refuses, before building anything,
    when separable_counts adds up to more than CLOSURE_BUDGET."""
    size = sum(separable_counts(max_n).values())
    if size > CLOSURE_BUDGET:
        raise BudgetExceeded(
            f"the separable family through n = {max_n} would hold {size} "
            f"permutations, over the budget of {CLOSURE_BUDGET}"
        )
    # sums[a] and skews[a] hold the direct and the skew sums on a letters;
    # on one letter both hold the one-letter code, which may head either.
    one = (pi_perm(0, 1),)
    by_size, sums, skews = {1: one}, {1: one}, {1: one}
    for m in range(2, max_n + 1):
        sums[m] = tuple(
            direct_sum(s, t) for a in range(1, m) for s in skews[a] for t in by_size[m - a]
        )
        skews[m] = tuple(
            skew_sum(s, t) for a in range(1, m) for s in sums[a] for t in by_size[m - a]
        )
        by_size[m] = sums[m] + skews[m]
    return by_size
