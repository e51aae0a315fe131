"""Aggregate generating functions from per-block / per-vertex weights.

Three variants of the same compositional mechanism, each the root of an
algebraic equation solved by `series.algebraic_root`:

* ``speicher_transform`` -- weights on blocks of a noncrossing partition;
* ``tree_transform`` -- weights on internal vertices of series-reduced
  planar trees (equivalently, cells of polygon dissections);
* ``forest_transform`` -- weights on internal vertices of series-reduced
  planar forests, combining the two above.

Weight functions can be given either as closed-form TruncSeries or as
tabulated ``{degree: weight}`` mappings (with an explicit order).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .ring import ONE, as_poly
from .series import TruncSeries, algebraic_root


class InvalidWeight(ValueError):
    """Weight series has support outside the allowed degrees."""


def nc_weight_series(values: Mapping[int, object], order: int) -> TruncSeries:
    """Block-weight series 1 + sum f(n) x^n from a tabulated weight function."""
    coeffs = {0: ONE}
    for d, c in values.items():
        if d < 1:
            raise InvalidWeight(f"block weight at nonpositive size {d}")
        coeffs[d] = as_poly(c)
    return TruncSeries.from_dict(coeffs, order)


def vertex_weight_series(values: Mapping[int, object], order: int) -> TruncSeries:
    """Vertex-weight series sum_{d>=3} f(d) x^d from a tabulated weight function."""
    coeffs = {}
    for d, c in values.items():
        poly = as_poly(c)
        if d < 3 and poly:
            raise InvalidWeight(f"vertex weight at degree {d} < 3")
        coeffs[d] = poly
    return TruncSeries.from_dict(coeffs, order)


def alternating_weight_series(order: int) -> TruncSeries:
    """The weight (-1)^(d-1) on degree-d vertices, i.e. x^3/(1+x).

    With this weight every series-reduced planar tree counts exactly once,
    which is what collapses each run of same-coloured vertices to a single
    contribution in the coloured-tree counts.
    """
    return vertex_weight_series(
        {d: (-1) ** (d - 1) for d in range(3, order + 1)}, order
    )


def _as_series(f, order, builder) -> TruncSeries:
    if isinstance(f, TruncSeries):
        if order is not None and order != f.order:
            raise ValueError("pass either a series or (mapping, order), not both orders")
        return f
    if order is None:
        raise ValueError("tabulated weights need an explicit order")
    return builder(f, order)


def speicher_transform(f, order: int | None = None) -> TruncSeries:
    """Noncrossing-partition aggregate of a block-weight series.

    Input F = 1 + sum f(n) x^n; output H with [x^n]H the sum over
    noncrossing partitions of [n] of the product of block weights.
    H = g/x, where g, the compositional inverse of x/F, is the root of
    g = x F(g) (Speicher, Math. Ann. 298, 1994).
    """
    F = _as_series(f, order, nc_weight_series)
    if not F[0].is_one():
        raise InvalidWeight("block-weight series must have constant term 1")
    return algebraic_root([0, 1], [-c for c in F.coefficients()], F.order + 1).shift_down(1)


def tree_transform(f, order: int | None = None) -> TruncSeries:
    """Series-reduced planar tree aggregate of a vertex-weight series.

    Input F = sum_{d>=3} f(d) x^d; output H = x^2 + sum_{n>=3} h(n) x^n
    where h(n) sums the product of internal-vertex weights over all
    series-reduced planar trees on n leaves.  Computed as the inverse of
    x - F(x)/x, shifted back up by x.
    """
    F = _as_series(f, order, vertex_weight_series)
    if any(F[i] for i in range(min(3, F.order + 1))):
        raise InvalidWeight("vertex-weight series must vanish below x^3")
    if F.order < 2:
        raise InvalidWeight("order too small for the tree aggregate")
    c = TruncSeries.x(F.order - 1) - F.shift_down(1)
    return c.reversion().shift_up(1)


def forest_transform(f, h1=0, order: int | None = None) -> TruncSeries:
    """Series-reduced planar forest aggregate.

    ``f`` weights internal vertices of degree >= 3 as in `tree_transform`;
    ``h1`` is the weight of the single-leaf component.  The connected
    components of a planar forest form a noncrossing partition, so the
    result is the noncrossing aggregate of 1 + h1 x + tree aggregate.
    """
    h_tree = tree_transform(f, order)
    block = 1 + TruncSeries.from_dict({1: as_poly(h1)}, h_tree.order) + h_tree
    return speicher_transform(block)


def tree_type_count(n: int, r) -> int:
    """Number of series-reduced planar trees on n leaves with r[i] vertices
    of degree i+3 (r indexed from degree 3).

    Returns 0 for type vectors inconsistent with n.
    """
    if n < 2:
        return 0
    r = list(r)
    if any(v < 0 for v in r):
        return 0
    if sum(v * (i + 1) for i, v in enumerate(r)) != n - 2:
        return 0
    total = sum(r)
    num = math.factorial(n + total - 2)
    den = math.factorial(n - 1)
    for v in r:
        den *= math.factorial(v)
    assert num % den == 0
    return num // den
