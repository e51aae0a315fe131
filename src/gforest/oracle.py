"""Enumeration and counting of the combinatorial families, for ground truth.

Everything here works from the definitions, independently of the series
machinery, so the two can cross-check each other coefficient by
coefficient.  `count_by_statistics` counts without building objects: trees
are summed by leaf count over the subtrees at each vertex, and forests by
the tree on the first point's block and the forests in the gaps after it
(the blocks of a forest form a noncrossing partition).

Encodings (plain nested tuples, hashable and canonical):

* Schroeder tree on m leaves: ``None`` for a leaf, otherwise a tuple of
  >= 2 child subtrees in left-to-right order.
* Planar forest on [n]: tuple of components ordered by smallest label.
  A component is ``(block, shape)`` with ``block`` an ascending tuple of
  boundary labels and ``shape`` the Schroeder tree on ``len(block) - 1``
  leaves obtained by removing the smallest label's edge (``None`` for
  blocks of size 1 or 2).  Together the blocks form a noncrossing
  partition.  An internal vertex of degree 2 is unrepresentable: a
  Schroeder node has >= 2 children plus its parent edge, so degree >= 3.
* Decorated (Grassmannian) forest: same, except a decorated tree node is
  ``(h, child, ...)`` carrying its helicity first, and a singleton
  block's shape is the leaf helicity 0 or 1.  The degree of a decorated
  node equals ``len(node)``.

Colours: a vertex of degree d is white when h = 1, black when h = d - 1,
generic otherwise (boundary leaves: white h = 1, black h = 0).  A forest
is contracted when no edge joins two white or two black vertices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .genfun import GFKind


class InvalidMove(ValueError):
    """Contraction requested across a non-matching or generic vertex pair."""


WHITE = "white"
BLACK = "black"


# -- shapes --------------------------------------------------------------------


@lru_cache(maxsize=None)
def schroeder_trees(num_leaves: int) -> tuple:
    """All Schroeder trees (ordered, every internal node >= 2 children)."""
    if num_leaves < 1:
        return ()
    if num_leaves == 1:
        return (None,)
    out = []
    for parts in _compositions(num_leaves, 2):
        for children in product(*(schroeder_trees(p) for p in parts)):
            out.append(children)
    return tuple(out)


def _compositions(total: int, min_parts: int):
    """Ordered compositions of `total` into >= min_parts positive parts."""
    def rec(remaining, parts):
        if remaining == 0:
            if len(parts) >= min_parts:
                yield tuple(parts)
            return
        for p in range(1, remaining + 1):
            parts.append(p)
            yield from rec(remaining - p, parts)
            parts.pop()
    yield from rec(total, [])


def shape_degrees(shape) -> tuple:
    """Degrees of the internal vertices of a (plain) tree shape."""
    if shape is None:
        return ()
    out = []
    stack = [shape]
    while stack:
        node = stack.pop()
        out.append(len(node) + 1)
        stack.extend(c for c in node if c is not None)
    return tuple(out)


def component_degrees(component) -> tuple:
    """Internal-vertex degrees of a plain forest component."""
    block, shape = component
    if len(block) == 1:
        return (1,)
    return shape_degrees(shape)


def tree_type_vector(n: int, component) -> tuple:
    """(r_3, ..., r_n) for a single-block tree on n leaves."""
    r = [0] * max(0, n - 2)
    for d in component_degrees(component):
        r[d - 3] += 1
    return tuple(r)


# -- plain families --------------------------------------------------------------


def enumerate_nc_partitions(n: int):
    """Every noncrossing partition of [n] exactly once (blocks sorted by minimum)."""
    yield from _nc_partitions(tuple(range(1, n + 1)))


def _nc_partitions(elems: tuple):
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    m = len(rest)
    for j in range(m + 1):
        for idxs in combinations(range(m), j):
            block = (first,) + tuple(rest[i] for i in idxs)
            gaps = []
            prev = -1
            for i in idxs:
                gaps.append(rest[prev + 1 : i])
                prev = i
            gaps.append(rest[prev + 1 :])
            for sub in product(*(_nc_partitions(g) for g in gaps)):
                parts = (block,)
                for s in sub:
                    parts += s
                yield parts


def enumerate_trees(n: int):
    """All series-reduced planar trees on [n] as single-component forests."""
    if n < 1:
        return
    block = tuple(range(1, n + 1))
    if n == 1:
        yield ((block, None),)
        return
    for shape in schroeder_trees(n - 1):
        yield ((block, shape),)


def enumerate_forests(n: int):
    """All series-reduced planar forests on [n]."""
    for partition in enumerate_nc_partitions(n):
        choices = []
        for block in partition:
            if len(block) <= 2:
                choices.append(((block, None),))
            else:
                choices.append(tuple((block, s) for s in schroeder_trees(len(block) - 1)))
        yield from product(*choices)


# -- dissections ------------------------------------------------------------------


def enumerate_dissections(n: int):
    """All dissections of the convex n-gon, as frozensets of diagonals (i, j)."""
    if n < 3:
        raise ValueError("polygons need at least 3 vertices")
    diagonals = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]

    def crosses(d1, d2):
        a, b = d1
        c, d = d2
        return a < c < b < d or c < a < d < b

    def extend(chosen, start):
        yield frozenset(chosen)
        for i in range(start, len(diagonals)):
            d = diagonals[i]
            if all(not crosses(d, e) for e in chosen):
                chosen.append(d)
                yield from extend(chosen, i + 1)
                chosen.pop()

    yield from extend([], 0)


def dissection_piece_sizes(n: int, diagonals: frozenset) -> tuple:
    """Sizes of the sub-polygons cut out by a dissection, sorted."""

    def split(region):
        for ia in range(len(region)):
            for ib in range(ia + 2, len(region)):
                if ia == 0 and ib == len(region) - 1:
                    continue
                a, b = region[ia], region[ib]
                if ((a, b) if a < b else (b, a)) in diagonals:
                    return split(region[ia : ib + 1]) + split(
                        region[ib:] + region[: ia + 1]
                    )
        return [len(region)]

    return tuple(sorted(split(tuple(range(1, n + 1)))))


# -- helicity decorations ----------------------------------------------------------


def vertex_color(h: int, deg: int):
    if h == 1 and deg != 2:
        return WHITE
    if h == deg - 1:
        return BLACK
    return None


@lru_cache(maxsize=None)
def _decorated_nodes(shape, parent_color, plabic, contracted) -> tuple:
    """All helicity assignments of a tree shape, as decorated nodes."""
    out = []
    deg = len(shape) + 1
    for h in range(1, deg):
        if plabic and h not in (1, deg - 1):
            continue
        color = vertex_color(h, deg)
        if contracted and color is not None and color == parent_color:
            continue
        pools = [
            (None,) if child is None else _decorated_nodes(child, color, plabic, contracted)
            for child in shape
        ]
        out.extend((h,) + children for children in product(*pools))
    return tuple(out)


def decorate_grassmannian(forest, contracted_only: bool = True, plabic_only: bool = False):
    """All valid helicity decorations of a plain forest.

    The contracted filter drops decorations with two adjacent white or two
    adjacent black vertices; the plabic filter restricts every internal
    vertex to h in {1, deg - 1}.
    """
    pools = []
    for block, shape in forest:
        if len(block) == 1:
            pools.append(((block, 0), (block, 1)))
        elif len(block) == 2:
            pools.append(((block, None),))
        else:
            pools.append(
                tuple(
                    (block, dec)
                    for dec in _decorated_nodes(shape, None, plabic_only, contracted_only)
                )
            )
    yield from product(*pools)


def decorated_vertices(component):
    """(h, deg) for each internal vertex of a decorated component."""
    block, dec = component
    if len(block) == 1:
        return ((dec, 1),)
    if len(block) == 2:
        return ()
    out = []
    stack = [dec]
    while stack:
        node = stack.pop()
        out.append((node[0], len(node)))
        stack.extend(c for c in node[1:] if c is not None)
    return tuple(out)


def vertex_mom_dimension(h: int, deg: int) -> int:
    return 2 * deg - 4 if vertex_color(h, deg) is None else deg - 1


def helicity(G) -> int:
    """Helicity of a decorated forest: sum(h(v) - deg(v)/2) + n/2 over the
    internal vertices (`decorated_vertices`); a one-point block is a vertex
    of degree 1."""
    twice = sum(len(block) for block, _ in G)
    twice += sum(2 * h - deg for c in G for h, deg in decorated_vertices(c))
    assert twice % 2 == 0
    return twice // 2


def tree_helicity(component) -> int:
    """Per-tree form: 1 + sum(h(v) - 1) for trees with >= 2 boundary vertices."""
    block, dec = component
    if len(block) == 1:
        return dec
    return 1 + sum(h - 1 for h, _ in decorated_vertices(component))


def mom_dimension(G) -> int:
    """Sum over component trees of their dimension statistic: a tree of two
    or more leaves has 1 + sum(vertex_mom_dimension(v) - 1)."""
    return sum(
        1 + sum(vertex_mom_dimension(h, deg) - 1 for h, deg in decorated_vertices(c))
        for c in G
        if len(c[0]) > 1
    )


def is_contracted(G) -> bool:
    return not contractible_edges(G)


def is_plabic(G) -> bool:
    return all(
        vertex_color(h, deg) is not None
        for c in G
        for h, deg in decorated_vertices(c)
    )


# -- contraction moves --------------------------------------------------------------


class _EdgePaths(dict):
    """Decorated node -> the tuple of paths, in depth-first order, from the
    node to the child endpoints of the contractible edges below it; each
    entry is built from its children's on first use.

    Every path and every tuple of paths is one object shared through
    `_shared` (on n <= 7 points: 54 paths and 389 path tuples for 5,115
    decorated subtrees, about 0.2 MB), so the table costs little more than
    its keys, which are the decorated nodes the caller already holds.  Two
    threads that race on a node both build it and store equal values.
    """

    def __missing__(self, node):
        share = _shared.setdefault
        color = vertex_color(node[0], len(node))
        paths = []
        for i in range(1, len(node)):
            child = node[i]
            if child is not None:
                edge = (i,)
                if color is not None and vertex_color(child[0], len(child)) == color:
                    paths.append(share(edge, edge))
                for p in self[child]:
                    p = edge + p
                    paths.append(share(p, p))
        paths = tuple(paths)
        paths = self[node] = share(paths, paths)
        return paths


_shared = {}
_edge_paths = _EdgePaths()


def contractible_edges(G):
    """Addresses (component_index, path) of the edges joining two white or
    two black internal vertices, in depth-first order, as a new list.

    `path` is the tuple of child positions (1-based within each node tuple)
    leading from the component root to the child endpoint of the edge.  The
    paths under each tree come from `_edge_paths`, a process-wide table
    that builds each distinct decorated subtree's paths once, from its
    children's, and shares equal paths as one object.  Decorations are
    hashable nested tuples, as the oracle makes them.
    """
    return [
        (ci, path)
        for ci, (block, dec) in enumerate(G)
        if len(block) > 2
        for path in _edge_paths[dec]
    ]


def contract_move(G, edge):
    """Contract the edge (u, v), merging v into its parent u.

    Both endpoints must be white or both black; the merged vertex keeps
    the colour, with degree deg(u) + deg(v) - 2 and helicity
    h(u) + h(v) - 1.
    """
    ci, path = edge
    block, dec = G[ci]
    if len(block) < 3 or not path:
        raise InvalidMove(f"no internal edge at {edge}")

    def rebuild(node, path):
        i = path[0]
        child = node[i]
        if child is None:
            raise InvalidMove("edge endpoint is a boundary leaf")
        if len(path) > 1:
            return node[:i] + (rebuild(child, path[1:]),) + node[i + 1 :]
        cu = vertex_color(node[0], len(node))
        cv = vertex_color(child[0], len(child))
        if cu is None or cv is None:
            raise InvalidMove("cannot contract through a generic vertex")
        if cu != cv:
            raise InvalidMove("cannot contract vertices of different colours")
        return (node[0] + child[0] - 1,) + node[1:i] + child[1:] + node[i + 1 :]

    merged = rebuild(dec, path)
    return G[:ci] + ((block, merged),) + G[ci + 1 :]


def contract_fully(G):
    """Canonical contracted representative of the refinement class."""
    while True:
        edges = contractible_edges(G)
        if not edges:
            return G
        G = contract_move(G, edges[0])


# -- statistics -------------------------------------------------------------------


def _convolve_into(out: dict, a, b) -> None:
    """Add the product of two histograms, given as (key, count) pairs, to `out`."""
    for (k1, r1), c1 in a:
        for (k2, r2), c2 in b:
            key = (k1 + k2, r1 + r2)
            out[key] = out.get(key, 0) + c1 * c2


@lru_cache(maxsize=None)
def _subtree_hist(leaves: int, parent_color, plabic: bool, contracted: bool) -> tuple:
    """Histogram {(sum h-1, sum m-1): count} over decorated subtrees on `leaves`
    leaves whose root hangs below a vertex of colour `parent_color`."""
    if leaves == 1:
        return (((0, 0), 1),)
    hist = {}
    for d in range(2, leaves + 1):
        deg = d + 1
        for h in range(1, deg):
            if plabic and h not in (1, deg - 1):
                continue
            color = vertex_color(h, deg)
            if contracted and color is not None and color == parent_color:
                continue
            root = (((h - 1, vertex_mom_dimension(h, deg) - 1), 1),)
            children = _sequence_hist(_subtree_hist, 1, d, leaves, color, plabic, contracted)
            _convolve_into(hist, root, children)
    return tuple(sorted(hist.items()))


@lru_cache(maxsize=None)
def _forest_hist(points: int, plabic: bool, contracted: bool) -> tuple:
    """Histogram {(helicity, dimension): count} over decorated forests on
    `points` points: the tree on the first point's block of `size` points,
    then a possibly empty forest in each of the `size` gaps after its points."""
    if points == 0:
        return (((0, 0), 1),)
    hist = {}
    for size in range(1, points + 1):
        gaps = _sequence_hist(_forest_hist, 0, size, points - size, plabic, contracted)
        _convolve_into(hist, _block_hist(size, plabic, contracted), gaps)
    return tuple(sorted(hist.items()))


@lru_cache(maxsize=None)
def _sequence_hist(part, smallest: int, count: int, total: int, *args) -> tuple:
    """Histogram over ordered sequences of `count` parts, each counted by
    `part(points, *args)` on at least `smallest` points, with `total` points
    in all; split off the first part."""
    if count == 1:
        return part(total, *args)
    hist = {}
    for first in range(smallest, total - (count - 1) * smallest + 1):
        rest = _sequence_hist(part, smallest, count - 1, total - first, *args)
        _convolve_into(hist, part(first, *args), rest)
    return tuple(sorted(hist.items()))


@lru_cache(maxsize=None)
def _block_hist(size: int, plabic: bool, contracted: bool) -> tuple:
    """Histogram {(helicity, dimension): count} over decorated trees on `size` leaves."""
    if size == 1:
        return (((0, 0), 1), ((1, 0), 1))
    if size == 2:
        return (((1, 1), 1),)
    return tuple(
        ((1 + dh, 1 + dm), c)
        for (dh, dm), c in _subtree_hist(size - 1, None, plabic, contracted)
    )


def count_by_statistics(n: int, kind: GFKind, contracted_only: bool = True) -> dict:
    """Exact histogram {(helicity k, dimension r): count} for the family.

    Statistics add over the parts of an object, so histograms multiply.  A
    decorated tree is a root vertex over an ordered sequence of subtrees,
    summed by leaf count.  A forest is the tree on the first point's block
    of s points followed by a possibly empty forest in each of the s gaps
    after that block's points.  No object is listed, so the cost follows
    the number of histogram entries, not the count: all four kinds for
    every n <= 16 take about 0.2 s together in a cold process (2-CPU
    machine, Python 3.11), and no limit beyond the caller's order cap is
    needed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    count = _block_hist if kind.is_tree else _forest_hist
    return dict(count(n, kind.is_plabic, contracted_only))


# -- serialization -----------------------------------------------------------------


def _dec_to_json(dec):
    if dec is None or isinstance(dec, int):
        return dec
    return [dec[0]] + [_dec_to_json(c) for c in dec[1:]]


def forest_to_json(G) -> dict:
    """JSON-friendly rendering of a decorated forest; `check` names a
    forest that fails by it."""
    return {
        "n": sum(len(block) for block, _ in G),
        "helicity": helicity(G),
        "dimension": mom_dimension(G),
        "components": [
            {"block": list(block), "tree": _dec_to_json(dec)} for block, dec in G
        ],
    }
