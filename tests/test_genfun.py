"""The four headline series against hand values, the oracle, and each other."""

import hashlib
import math
import os
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gforest import cli, genfun
from gforest import series as series_module
from gforest.genfun import (
    GFKind,
    IntegralityViolation,
    build_C,
    build_forest_gf,
    build_tree_gf,
    checked_coefficient,
    coefficient_poly,
    euler_characteristic,
    extract_counts,
    forest_gf_via_lagrange,
    relation_residual,
    relation_table,
    series_for,
    verify_algebraic_relation,
)
from gforest.oracle import count_by_statistics
from gforest.ring import ONE, ZERO, BivarPoly, Q, Y, dot
from gforest.series import TruncSeries, algebraic_root, power_coefficient
from gforest.transforms import speicher_transform, tree_transform, vertex_weight_series

EXTENDED = os.environ.get("GFOREST_EXTENDED") == "1"

ROW_4_2 = "q^4+4q^3+10q^2+12q+6"
ROW_6_3 = "q^8+15q^7+54q^6+114q^5+180q^4+215q^3+180q^2+90q+20"
ROW_8_4 = (
    "q^12+32q^11+300q^10+1280q^9+3264q^8+5696q^7+7420q^6+7672q^5"
    "+6426q^4+4200q^3+1960q^2+560q+70"
)


# -- the driving rational functions ---------------------------------------------


def test_C_has_unit_linear_coefficient():
    assert build_C(GFKind.PLABIC_TREE, 6)[1] == ONE
    assert build_C(GFKind.GRASS_TREE, 6)[1] == ONE


def test_grassmannian_C_at_q_minus_one():
    c = build_C(GFKind.GRASS_TREE, 10).eval_q(-1)
    den = TruncSeries.from_dict({0: 1, 1: -1}, 10) * TruncSeries.from_dict(
        {0: 1, 1: -Y}, 10
    )
    assert c == TruncSeries.x(10) / den
    # its compositional inverse composes back to x
    inv = c.reversion()
    assert c.compose(inv) == TruncSeries.x(10)


def test_plabic_C_at_y_zero_alternates():
    c = build_C(GFKind.PLABIC_TREE, 6).eval_y(0)
    assert c == TruncSeries.x(6) / TruncSeries.from_dict({0: 1, 1: Q}, 6)


def _vertex_weights(kind, order):
    """The per-vertex weights the tree series aggregates: two non-generic
    colours with alternating sign, plus the generic helicities."""
    weights = {}
    for d in range(3, order + 1):
        w = BivarPoly({(0, d - 2): (-1) ** (d - 1), (d - 2, d - 2): (-1) ** (d - 1)})
        if kind is GFKind.GRASS_TREE:
            w = w + BivarPoly({(k - 1, 2 * d - 5): 1 for k in range(2, d - 1)})
        weights[d] = w
    return vertex_weight_series(weights, order)


@pytest.mark.parametrize("kind", [GFKind.PLABIC_TREE, GFKind.GRASS_TREE])
def test_C_matches_vertex_weight_route(kind):
    # x - F(x)/x for the explicit weights equals the closed rational form
    order = 9
    F = _vertex_weights(kind, order + 1)
    assert TruncSeries.x(order) - F.shift_down(1) == build_C(kind, order)


@pytest.mark.parametrize("kind", [GFKind.PLABIC_TREE, GFKind.GRASS_TREE])
def test_tree_gf_matches_transform_route(kind):
    order = 9
    h = tree_transform(_vertex_weights(kind, order))
    direct = build_tree_gf(kind, order)
    assert (Y * Q * h + TruncSeries.from_dict({1: 1 + Y}, order)) == direct


@pytest.mark.parametrize("kind", [GFKind.PLABIC_TREE, GFKind.GRASS_TREE])
def test_equation_builds_match_the_reversion_routes(kind):
    # The paper's routes: the tree series by reverting C, and the forest
    # series by a second reversion, Speicher's noncrossing form of the
    # Exponential Formula.  Truncated coefficients are exact, so the routes
    # at the top order give them at every lower one.
    top = 26 if EXTENDED else 20
    tree = (Y * Q * build_C(kind, top - 1).reversion() + (1 + Y)).shift_up(1)
    forest = speicher_transform(1 + tree)
    forest_kind = GFKind.PLABIC_FOREST if kind.is_plabic else GFKind.GRASS_FOREST
    for n in range(1, top + 1):
        assert build_tree_gf(kind, n) == tree.truncate(n), n
        assert build_forest_gf(forest_kind, n) == forest.truncate(n), n


# -- the gamma basis against the y-basis equations --------------------------------


def _times_linear(factors):
    """The coefficient list in x of the product of (1 + a x) over the factors a."""
    out = [ONE]
    for a in factors:
        out = [c + a * d for c, d in zip([*out, ZERO], [ZERO, *out])]
    return out


def _y_parts(kind):
    """N and D, as coefficient lists in x, for C = x N(x) / D(x).

    plabic:        N = 1 - q^2 x^2 y,  D = (1+xq)(1+xyq)
    Grassmannian:  N = 1 - x(1+y)q^2 - x^2 y q^2 (1+q-q^2) - x^4 y^2 q^5 (1+q),
                   D = (1+xq)(1+xyq)(1-xq^2)(1-xyq^2)
    """
    q2 = Q * Q
    if kind.is_plabic:
        return [ONE, ZERO, -(q2 * Y)], _times_linear((Q, Y * Q))
    N = [ONE, -((1 + Y) * q2), -(Y * q2 * (1 + Q - q2)), ZERO, -(Y * Y * Q**5 * (1 + Q))]
    return N, _times_linear((Q, Y * Q, -q2, -(Y * q2)))


def _y_equation(kind):
    """(c0, c1) of sum_j (c0[j] + x c1[j]) v^j = 0 in y: u N(u) = x D(u) for a
    tree, v N(v) (1 - x(1+y) - xyq v) = x D(v) for a forest."""
    N, D = _y_parts(kind)
    c0 = [ZERO, *N]
    c1 = [-d for d in D]
    if kind.is_forest:
        c1 += [ZERO] * (len(c0) + 1 - len(D))
        for j, c in enumerate(c0):
            c1[j] -= (1 + Y) * c
            c1[j + 1] -= Y * Q * c
    return c0, c1


@pytest.mark.parametrize("kind", list(GFKind))
def test_expanded_builds_match_the_y_basis_equations(kind):
    top = 26 if EXTENDED else 20
    t = (Y * Q * algebraic_root(*_y_equation(kind), top - 1) + (1 + Y)).shift_up(1)
    if kind.is_tree:
        assert build_tree_gf(kind, top) == t
    else:
        assert build_forest_gf(kind, top) == TruncSeries.one(top) / (1 - t)


def _at_z(p, e):
    """p(z = y/(1+y)^2) (1+y)^e, for e at least twice p's z-degree (its y-degree)."""
    terms = p.term_map().items()
    return sum((BivarPoly({(j, r): c}) * (1 + Y) ** (e - 2 * j) for (j, r), c in terms), ZERO)


@pytest.mark.parametrize("kind", list(GFKind))
def test_gamma_equation_is_the_y_equation_after_substitution(kind):
    # With z = y/(1+y)^2, w = (1+y)v and X = x(1+y), the term of w^j X^t
    # takes a factor (1+y)^(j+t), and the gamma equation becomes (1+y) times
    # the y equation.  Every z-degree is at most 2, so (1+y)^4 clears z.
    # A tree equation is solved in W = qw and X' = qX: its term of W^j X'^t
    # takes q^(j+t) first, and W N''(W) - X' D''(W) becomes
    # q (w N'(w) - X D'(w)), so q times (1+y) times the y equation.
    factor = (1 + Y) ** 5 * (Q if kind.is_tree else ONE)
    for t, (gamma, y) in enumerate(zip(genfun._equation(kind), _y_equation(kind))):
        assert len(gamma) == len(y)
        for j, (g, c) in enumerate(zip(gamma, y)):
            if kind.is_tree:
                g = g.times_monomial(0, j + t)
            assert _at_z(g, 4 + j + t) == factor * c, (t, j)


def test_plabic_tree_equation_has_no_q():
    # In W = qw and X' = qX the plabic-tree equation is W (1 - zW^2) =
    # X' (1 + W + zW^2), so its root, and [x^n] of the series apart from the
    # factor q^(n-1), has no q.
    c0, c1 = genfun._equation(GFKind.PLABIC_TREE)
    assert max(c.q_degree() for c in (*c0, *c1)) == 0
    assert all(c.q_degree() <= 0 for c in algebraic_root(c0, c1, 16).coefficients())


def test_grass_tree_root_in_W_has_q_degree_below_its_order():
    # [X'^m] W = q^(1-m) [X^m] w.  Its q-degree stays at most m - 2 (0 for
    # m <= 2), which keeps the packed stride of a build to order n, whose
    # root runs to n - 1, below n: 15 at order 16, where it was 29.
    root = algebraic_root(*genfun._equation(GFKind.GRASS_TREE), 24).coefficients()
    for m, c in enumerate(root):
        assert c.q_degree() <= max(m - 2, 0), m


def test_expansion_refuses_a_z_degree_above_half_the_order():
    # [x^n] takes (1+y)^(n+s-2j) for z^j at X^n, which is no polynomial for
    # 2j > n + s
    assert genfun._expand(TruncSeries([ONE, ONE, Y]), 0) == TruncSeries([ONE, 1 + Y, Y])
    assert genfun._expand(TruncSeries([ZERO, ONE, ONE, Y]), -1) == TruncSeries(
        [ZERO, ONE, 1 + Y, Y]
    )
    for coeffs, s in (([ONE, ZERO, ZERO, Y * Y], 0), ([ZERO, ZERO, Y], -1), ([ONE], -1)):
        with pytest.raises(IntegralityViolation, match="z-degree"):
            genfun._expand(TruncSeries(coeffs), s)


def _expand_by_powers(series, s):
    """The expansion `_expand` replaced, kept as its reference: (1+y)^(n+s-2j)
    from a table of powers of 1+y, times the slice of [X^n] at z^j, summed
    by one `dot` per coefficient."""
    powers = [ONE]  # (1+y)^m at [m]
    out = []
    for n, c in enumerate(series.coefficients()):
        while len(powers) <= n + s:
            powers.append(powers[-1] * (1 + Y))
        slices = {}  # j -> the terms of [X^n z^j], at y^j
        for (j, r), v in c.term_map().items():
            slices.setdefault(j, {})[j, r] = v
        out.append(dot((BivarPoly(t), powers[n + s - 2 * j]) for j, t in slices.items()))
    return TruncSeries(out, series.order)


def _stored_in_ascending_order(p):
    keys = list(p.term_map())  # (dy, dq) in storage order
    return keys == sorted(keys)


GAMMA_COEFFICIENTS = st.integers(-(2**80), 2**80) | st.sampled_from(
    [0, 1, -1, 2**70, -(2**70) - 1, 3**50]
)


@st.composite
def _gamma_series(draw):
    """(series in X with z in the place of y, s) whose [X^n] has z-degree at
    most (n+s)/2, with s in {0, -1}."""
    s = draw(st.sampled_from([0, -1]))
    order = draw(st.integers(0, 12))
    coeffs = []
    for n in range(order + 1):
        if n + s < 0:
            coeffs.append(ZERO)
            continue
        exponents = st.tuples(st.integers(0, (n + s) // 2), st.integers(0, 6))
        coeffs.append(BivarPoly(draw(st.dictionaries(exponents, GAMMA_COEFFICIENTS, max_size=8))))
    return TruncSeries(coeffs, order), s


@settings(max_examples=120, deadline=None)
@given(_gamma_series())
@example((TruncSeries([ZERO, ONE, 1 + Q, ONE - Y + Y * Q], 3), -1))
@example((TruncSeries([ONE, ZERO, ZERO, ZERO, Y * Y * 2**71 - Q], 4), 0))
def test_expansion_matches_the_power_table_reference(case):
    series, s = case
    expanded = genfun._expand(series, s)
    assert expanded == _expand_by_powers(series, s)
    assert expanded.order == series.order
    assert all(map(_stored_in_ascending_order, expanded.coefficients()))


@pytest.mark.parametrize("kind", list(GFKind))
def test_builds_store_each_coefficient_in_ascending_key_order(kind, monkeypatch):
    # The expansion writes each coefficient's keys in order, so a table
    # render's sort runs over sorted keys; it shares no multiplication kernel
    # with the Lagrange route and the relation check, which multiply by dot.
    def refused(pairs):
        raise AssertionError("the expansion called genfun.dot")

    monkeypatch.setattr(genfun, "dot", refused)
    build = build_tree_gf if kind.is_tree else build_forest_gf
    for series in (build.__wrapped__(kind, 16), build_C.__wrapped__(kind, 16)):
        assert series.order == 16
        assert all(map(_stored_in_ascending_order, series.coefficients()))


@pytest.mark.parametrize("kind", [GFKind.PLABIC_TREE, GFKind.PLABIC_FOREST])
def test_plabic_series_are_gamma_nonnegative(kind):
    """Every [X^n z^j q^r] of a plabic series is nonnegative, here through
    order 24, and for every n by this argument.  The tree root solves
    w = X f(w), and the forest root w = X f(w) / (1 - X - Xzq w), where
    f = (1 + qw + q^2 z w^2) / (1 - q^2 z w^2) has nonnegative coefficients.
    Each [X^m] w is then a sum of products of nonnegative coefficients and
    of [X^i] w for i < m, so w, X(1 + zq w) and 1/(1 - X - Xzq w) have
    nonnegative coefficients too."""
    gamma = genfun._gamma(kind, 24)
    assert min(c.min_coefficient() for c in gamma.coefficients()) >= 0


@pytest.mark.parametrize("kind", [GFKind.GRASS_TREE, GFKind.GRASS_FOREST])
def test_grassmannian_series_are_gamma_nonnegative_at_q_one(kind):
    # An observation through n = 20, not a claim of the paper.  In q the
    # gamma coefficients are not all nonnegative: the first negative term is
    # -z^3 q^8, at [X^6].
    gamma = genfun._gamma(kind, 20)
    assert min(c.eval_q(1).min_coefficient() for c in gamma.coefficients()) >= 0
    negative = ({t: c for t, c in p.term_map().items() if c < 0} for p in gamma.coefficients())
    assert next((n, terms) for n, terms in enumerate(negative) if terms) == (6, {(3, 8): -1})


def test_grass_forest_root_at_q_minus_one_is_X():
    """At q = -1 the root of the grass-forest equation is w = X, here
    through order 40.

    q := -1 is a ring map from Z[z, q] to Z[z].  It keeps the linear
    coefficient 1, and each coefficient of the root is a polynomial in the
    equation's coefficients, so the root of the equation at q = -1 is the
    root at q = -1.  There N' = 1 - w + z w^2 and D' = N'^2, so the
    equation is N'(w) (w - X) = 0, whose only root O(X) is X.  The forest
    series at q = -1 is then 1/(1 - X + zX^2) = 1/((1-x)(1-xy)), and
    [x^n y^k] = 1 for every 0 <= k <= n."""
    c0, c1 = ([c.eval_q(-1) for c in cs] for cs in genfun._equation(GFKind.GRASS_FOREST))
    assert algebraic_root(c0, c1, 40) == TruncSeries.x(40)
    X = TruncSeries.x(40)
    forest = genfun._expand(TruncSeries.one(40) / (1 - X + Y * X * X), 0)
    assert forest == TruncSeries([BivarPoly({(k, 0): 1 for k in range(n + 1)}) for n in range(41)])


def test_forest_builder_refuses_tree_kinds():
    with pytest.raises(ValueError):
        build_forest_gf(GFKind.GRASS_TREE, 4)


@pytest.mark.parametrize("kind", [GFKind.GRASS_FOREST, GFKind.PLABIC_FOREST])
def test_tree_builder_refuses_forest_kinds(kind):
    with pytest.raises(ValueError):
        build_tree_gf(kind, 4)


# -- tree series ---------------------------------------------------------------


def test_tree_gf_low_coefficients():
    t = build_tree_gf(GFKind.GRASS_TREE, 4)
    assert t[1] == 1 + Y
    assert t[2] == Y * Q
    assert t[3] == BivarPoly({(1, 2): 1, (2, 2): 1})
    assert t[4].y_coefficient(2).to_text() == "q^4+4q^3"


def test_plabic_tree_gf_top_dimension_only():
    # every contracted plabic tree on n leaves has dimension n - 1
    t = build_tree_gf(GFKind.PLABIC_TREE, 8)
    for n in range(2, 9):
        assert all(dq == n - 1 for (dy, dq), _ in t[n].terms())


def test_tree_symmetry_in_y():
    t = build_tree_gf(GFKind.GRASS_TREE, 9)
    for n in range(1, 10):
        for k in range(n + 1):
            assert t[n].y_coefficient(k) == t[n].y_coefficient(n - k), (n, k)


def test_plabic_tree_specialisation_refines_large_schroeder():
    t = build_tree_gf(GFKind.PLABIC_TREE, 9).eval_q(1).eval_y(1)
    for n in range(1, 10):
        total = sum(count_by_statistics(n, GFKind.PLABIC_TREE).values())
        assert t[n].constant_coefficient() == total


# -- forest series ----------------------------------------------------------------


def test_forest_gf_reference_rows():
    f = build_forest_gf(GFKind.GRASS_FOREST, 8)
    assert f[0] == ONE
    assert f[4].y_coefficient(2).to_text() == ROW_4_2
    assert f[6].y_coefficient(3).to_text() == ROW_6_3
    assert f[8].y_coefficient(4).to_text() == ROW_8_4


def test_forest_symmetry_in_y():
    f = build_forest_gf(GFKind.GRASS_FOREST, 8)
    for n in range(1, 9):
        for k in range(n + 1):
            assert f[n].y_coefficient(k) == f[n].y_coefficient(n - k)


def test_forest_zero_helicity_column():
    f = build_forest_gf(GFKind.GRASS_FOREST, 8)
    for n in range(1, 9):
        assert f[n].y_coefficient(0) == ONE  # all-black-leaf forest only


def test_forest_top_q_degree_is_2n_minus_4():
    f = build_forest_gf(GFKind.GRASS_FOREST, 12)
    for n in range(4, 13):
        for k in range(2, n - 1):
            poly = f[n].y_coefficient(k)
            assert poly.q_degree() == 2 * n - 4
            assert poly.coefficient(0, 2 * n - 4) == 1


def test_forest_zero_dimension_counts_are_binomial():
    f = build_forest_gf(GFKind.GRASS_FOREST, 12)
    for n in range(2, 13):
        for k in range(2, n - 1):
            assert f[n].y_coefficient(k).coefficient(0, 0) == math.comb(n, k)


def test_forest_lagrange_route_and_examples():
    f = build_forest_gf(GFKind.GRASS_FOREST, 6)
    assert forest_gf_via_lagrange(GFKind.GRASS_FOREST, 4, 6) == extract_counts(f, 4)
    one_letter = forest_gf_via_lagrange(GFKind.GRASS_FOREST, 1)
    assert one_letter == {(0, 0): 1, (1, 0): 1}
    row52 = {
        r: c for (k, r), c in forest_gf_via_lagrange(GFKind.GRASS_FOREST, 5).items() if k == 2
    }
    assert row52 == {6: 1, 5: 5, 4: 15, 3: 30, 2: 40, 1: 30, 0: 10}


@pytest.mark.parametrize("kind", [GFKind.PLABIC_FOREST, GFKind.GRASS_FOREST])
def test_dual_path_equality(kind):
    order = 10
    f = build_forest_gf(kind, order)
    for n in range(1, order + 1):
        assert forest_gf_via_lagrange(kind, n, order) == extract_counts(f, n), n


@pytest.mark.parametrize("kind", [GFKind.PLABIC_TREE, GFKind.GRASS_TREE])
def test_lagrange_route_rejects_tree_kinds(kind):
    with pytest.raises(ValueError, match="forest"):
        forest_gf_via_lagrange(kind, 4)


# -- the four series past the tables' order ------------------------------------------

# sha256 over repr(sorted(c.term_map().items())) of every coefficient of the
# four series, kinds in GFKind order, as the dict kernel computed them.
SERIES_SHA256 = {
    14: "1ee78ca8069d9755289fc7cb9c936bfa96d3d930094892815e148a5318c694ee",
    20: "f05cda776aeab60f8ea3ddf6cc9c0e8f794d2469f188a28776cd3e81b17854a4",
    26: "86aa617e955b7c11385880d584c93e087e44d4398381cfd6e128ce99f8b5025d",
    32: "2dc8e4ac5622b020761d296e3f93b774ecbfe43d5979e854841c0783cd515948",
}


@pytest.mark.parametrize(
    "order",
    [
        14,
        20,
        *(
            pytest.param(order, marks=pytest.mark.skipif(not EXTENDED, reason="set GFOREST_EXTENDED=1"))
            for order in (26, 32)
        ),
    ],
)
def test_the_four_series_are_pinned(order):
    digest = hashlib.sha256()
    for kind in GFKind:
        for c in series_for(kind, order).coefficients():
            digest.update(repr(sorted(c.term_map().items())).encode())
    assert digest.hexdigest() == SERIES_SHA256[order]


# -- Euler specialisation -----------------------------------------------------------


def test_euler_characteristic_examples():
    assert euler_characteristic(GFKind.GRASS_FOREST, 4, 2) == 1
    assert euler_characteristic(GFKind.GRASS_FOREST, 5, 2) == 1
    assert euler_characteristic(GFKind.GRASS_FOREST, 12, 6) == 1


def test_euler_specialisation_closed_form():
    f = build_forest_gf(GFKind.GRASS_FOREST, 10).eval_q(-1)
    for n in range(11):
        assert f[n] == BivarPoly({(k, 0): 1 for k in range(n + 1)})


def test_euler_characteristic_reads_a_checked_coefficient(monkeypatch):
    # A negative term elsewhere in [x^6] is no count, so there is no Euler
    # characteristic to give; `check` reports the error as the verdict's FAIL.
    _empty_stores(monkeypatch)  # the relation store must not keep the corrupted forest
    original = genfun.series_for
    extra = {6: BivarPoly({(3, 20): -5})}
    message = "[x^6 y^3 q^20] = -5 is negative"

    def corrupted(kind, order):
        series = original(kind, order)
        return series + TruncSeries.from_dict(extra, order) if kind.is_forest else series

    monkeypatch.setattr(genfun, "series_for", corrupted)
    assert _message(lambda: euler_characteristic(GFKind.GRASS_FOREST, 6, 3)) == message
    verdicts = {name: (ok, detail) for name, ok, detail in cli.run_checks(6, 14)}
    assert verdicts["euler-characteristic"] == (False, message)


def test_euler_rejects_tree_kinds_and_bad_range():
    with pytest.raises(ValueError):
        euler_characteristic(GFKind.GRASS_TREE, 4, 2)
    with pytest.raises(ValueError):
        euler_characteristic(GFKind.GRASS_FOREST, 4, 3)


# -- transcribed relations -----------------------------------------------------------


def _residual_term_by_term(kind, series):
    """The relation residual summed one transcribed term at a time."""
    table = relation_table(kind)
    powers = [TruncSeries.one(series.order)]
    for _ in range(table["degree"]):
        powers.append(powers[-1] * series)
    residual = TruncSeries.zero(series.order)
    for j, dx, dy, dq, num, den in table["terms"]:
        assert den == 1
        coeff = BivarPoly.monomial(num, dy, dq)
        residual = residual + (powers[j] * coeff).shift_up(dx).truncate(series.order)
    return residual


@pytest.mark.parametrize("kind", list(GFKind))
def test_algebraic_relations_hold(kind):
    ok, report = verify_algebraic_relation(kind, 12)
    assert ok, report
    series = series_for(kind, 12)
    assert relation_residual(kind, series) == _residual_term_by_term(kind, series)


def test_relation_detects_perturbation():
    for kind in GFKind:
        series = series_for(kind, 12) + TruncSeries.from_dict({3: 1}, 12)
        residual = relation_residual(kind, series)
        assert residual == _residual_term_by_term(kind, series)
        assert residual.valuation() is not None


def test_relation_loader_refuses_a_term_that_is_not_an_integer(monkeypatch):
    data = {kind: dict(table) for kind, table in genfun._relations().items()}
    table = data[GFKind.GRASS_TREE.value]
    table["terms"] = [*table["terms"], [1, 2, 0, 1, 3, 2]]
    monkeypatch.setattr(genfun, "_relations", lambda: data)
    with pytest.raises(ValueError, match=r"grass-tree relation term \[1, 2, 0, 1, 3, 2\]"):
        relation_residual(GFKind.GRASS_TREE, series_for(GFKind.GRASS_TREE, 6))


def test_lagrange_route_refuses_an_inexact_division(monkeypatch):
    # [x^4] (1 + G)^5 must be divisible by 5; 7 y q is not.
    monkeypatch.setattr(genfun, "_tree_power", lambda kind, n: BivarPoly({(1, 1): 7, (0, 0): 5}))
    with pytest.raises(IntegralityViolation, match=r"\[x\^4 y\^1 q\^1\] division by 5"):
        forest_gf_via_lagrange(GFKind.GRASS_FOREST, 4)


# -- extraction guards ----------------------------------------------------------------


def test_extract_counts_rejects_negatives():
    bad = TruncSeries([0, BivarPoly({(0, 0): -3})], 1)
    with pytest.raises(IntegralityViolation):
        extract_counts(bad, 1)


def test_extract_counts_rejects_a_y_degree_above_n():
    bad = TruncSeries([0, BivarPoly({(2, 0): 1, (1, 0): 1})], 1)
    with pytest.raises(IntegralityViolation, match="y-degree 2 exceeds n = 1"):
        extract_counts(bad, 1)


# [x^4] coefficients that break a sanity rule, with the error naming the first
# offending term in storage order; a term that breaks both is named as negative.
BAD_X4 = [
    ({(2, 1): 1, (1, 0): -2}, "[x^4 y^1 q^0] = -2 is negative"),
    ({(2, 0): 1, (5, 1): 3}, "y-degree 5 exceeds n = 4"),
    ({(5, 0): 1, (2, 1): -1}, "y-degree 5 exceeds n = 4"),
    ({(2, 1): -1, (5, 0): 1}, "[x^4 y^2 q^1] = -1 is negative"),
    ({(0, 0): 1, (5, 2): -3}, "[x^4 y^5 q^2] = -3 is negative"),
]


def _bad_series(terms):
    return TruncSeries([0, 0, 0, 0, BivarPoly(terms)], 4)


def _message(call):
    with pytest.raises(IntegralityViolation) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("terms, message", BAD_X4)
def test_each_validating_entry_point_names_the_first_bad_term(monkeypatch, terms, message):
    series = _bad_series(terms)
    assert _message(lambda: extract_counts(series, 4)) == message
    assert _message(lambda: checked_coefficient(series, 4)) == message
    monkeypatch.setattr(genfun, "series_for", lambda kind, order: series)
    for k in (0, 2, 4):
        assert _message(lambda: coefficient_poly(GFKind.GRASS_FOREST, 4, k)) == message


def test_checked_coefficient_returns_the_coefficient_itself():
    series = series_for(GFKind.GRASS_FOREST, 8)
    for n in range(9):
        assert checked_coefficient(series, n) is series[n]
    edge = _bad_series({(4, 0): 1, (0, 3): 2})  # a y-degree of exactly n is allowed
    assert checked_coefficient(edge, 4) is edge[4]


@pytest.mark.parametrize("kind", list(GFKind))
def test_extract_counts_equals_the_canonical_term_dict(kind):
    series = series_for(kind, 12)
    for n in range(13):
        canonical = {m: c for m, c in series[n].terms()}
        counts = extract_counts(series, n)
        assert counts == canonical, n
        assert {m: type(c) for m, c in counts.items()} == {m: int for m in canonical}


def test_coefficient_poly_examples():
    assert coefficient_poly(GFKind.GRASS_FOREST, 8, 4, 8).to_text() == ROW_8_4
    plabic42 = coefficient_poly(GFKind.PLABIC_FOREST, 4, 2, 6)
    assert plabic42.q_degree() == 3
    assert coefficient_poly(GFKind.GRASS_FOREST, 5, 0, 6) == ONE
    with pytest.raises(ValueError):
        coefficient_poly(GFKind.GRASS_FOREST, 9, 2, 8)
    for n, k in ((0, 0), (-1, 0), (-2, -1)):  # not the series cache's "order must be >= 1"
        with pytest.raises(ValueError, match="^n must be positive$"):
            coefficient_poly(GFKind.PLABIC_TREE, n, k)


# -- the series cache -------------------------------------------------------------------


def _empty_stores(monkeypatch):
    """Empty the series cache and the relation residual store built on it."""
    monkeypatch.setattr(genfun, "_longest", {})
    monkeypatch.setattr(genfun, "_residuals", {})


@pytest.fixture
def builds(monkeypatch):
    """Empty stores and tree powers; records each (kind, order) a builder is called for."""
    _empty_stores(monkeypatch)
    genfun._tree_power.cache_clear()
    calls = []
    for builder in (build_tree_gf, build_forest_gf):
        builder.cache_clear()

        def record(kind, order, builder=builder):
            calls.append((kind, order))
            return builder(kind, order)

        monkeypatch.setattr(genfun, builder.__name__, record)
    return calls


def _builder_misses():
    return build_tree_gf.cache_info().misses + build_forest_gf.cache_info().misses


@pytest.mark.parametrize("kind", list(GFKind))
def test_series_cache_serves_prefixes(kind, builds, monkeypatch):
    series_for(kind, 7)
    misses, built = _builder_misses(), len(builds)
    shorter = series_for(kind, 5)
    assert _builder_misses() == misses and len(builds) == built
    _empty_stores(monkeypatch)
    build_tree_gf.cache_clear()
    build_forest_gf.cache_clear()
    builder = build_tree_gf if kind.is_tree else build_forest_gf
    assert shorter == builder(kind, 5)


@pytest.mark.parametrize("kind", list(GFKind))
def test_series_cache_grows_with_one_build(kind, builds):
    series_for(kind, 5)
    builds.clear()
    grown = series_for(kind, 7)
    assert grown.order == 7
    assert builds == [(kind, 7)]  # a forest is built without its tree
    series_for(kind, 7)
    series_for(kind, 6)
    assert builds == [(kind, 7)]


@pytest.mark.parametrize("kind", list(GFKind))
def test_coefficient_poly_builds_only_to_n(kind, builds):
    coefficient_poly(kind, 4, 2)
    assert builds and max(order for _, order in builds) == 4


def test_series_cache_never_shrinks(builds, monkeypatch):
    # A longer series stored while a shorter build was running stays stored.
    kind = GFKind.GRASS_TREE
    build = genfun.build_tree_gf

    def interleaved(kind, order):
        if order == 5:
            series_for(kind, 7)
        return build(kind, order)

    monkeypatch.setattr(genfun, "build_tree_gf", interleaved)
    assert series_for(kind, 5).order == 5
    assert genfun._longest[kind].order == 7


def test_check_builds_each_kind_once(builds):
    # Every verdict reads its n from one series per kind, the Lagrange route's
    # tree powers included.
    for _ in cli.run_checks(8, 8):
        pass
    assert sorted(builds, key=str) == sorted(((kind, 8) for kind in GFKind), key=str)


# -- the relation residual store ----------------------------------------------------------


def _implied_verdict(kind, order):
    """What verify_algebraic_relation reports, from a fresh relation_residual."""
    residual = relation_residual(kind, series_for(kind, order))
    val = residual.valuation()
    if val is None:
        return True, f"{kind.value}: residual is 0 through x^{order}"
    return False, f"{kind.value}: first nonzero residual at x^{val}: {residual[val].to_text()}"


def test_residual_store_agrees_with_fresh_residuals(builds):
    orders = list(range(6, 15))
    implied = {(kind, o): _implied_verdict(kind, o) for kind in GFKind for o in orders}
    assert not genfun._residuals
    for sequence in (orders, orders[::-1], [7, 7, 12, 6, 12, 14, 9, 14, 6]):
        for kind in GFKind:
            for order in sequence:
                assert verify_algebraic_relation(kind, order) == implied[kind, order]


def _count_dots(monkeypatch):
    calls = []
    real = genfun.dot

    def counted(pairs, degree=None):
        calls.append(1)
        return real(pairs, degree)

    monkeypatch.setattr(genfun, "dot", counted)
    return calls


@pytest.mark.parametrize("kind", list(GFKind))
def test_residual_store_extends_without_recomputing(kind, builds, monkeypatch):
    verify_algebraic_relation(kind, 12)
    series_for(kind, 13)
    calls = _count_dots(monkeypatch)
    for order in (12, 6, 9):
        assert verify_algebraic_relation(kind, order)[0]
    assert not calls
    assert verify_algebraic_relation(kind, 13)[0]
    b = (relation_table(kind)["degree"] + 1) // 2
    assert len(calls) == b + 1  # S^2 .. S^b, A_1 and the residual


# The dot calls of one step of the grass-forest store (degree 6, b = 3), in order.
STEP_DOTS = ["S^2", "S^3", "A_1", "residual"]


@pytest.mark.parametrize("failing", range(len(STEP_DOTS)), ids=STEP_DOTS)
def test_residual_store_recovers_from_an_interrupted_extension(failing, builds, monkeypatch):
    kind = GFKind.GRASS_FOREST
    verify_algebraic_relation(kind, 8)
    series_for(kind, 12)  # so that every dot below is the store's
    real, calls = genfun.dot, []

    def interrupted(pairs, degree=None):  # raises at one dot of the step to x^9
        calls.append(1)
        if len(calls) == failing + 1:
            raise KeyboardInterrupt
        return real(pairs, degree)

    monkeypatch.setattr(genfun, "dot", interrupted)
    with pytest.raises(KeyboardInterrupt):
        verify_algebraic_relation(kind, 12)
    state = genfun._residuals[kind]
    rows = [*state.powers, state.top]
    assert len(state.residual) == 9
    assert [len(row) for row in rows] == [10] * failing + [9] * (len(rows) - failing)
    monkeypatch.setattr(genfun, "dot", real)
    assert verify_algebraic_relation(kind, 12) == _implied_verdict(kind, 12)
    assert all(len(row) == len(state.residual) == 13 for row in rows)


# Term products of a fresh store through x^12 when it formed every power
# S^2 .. S^(d-1) and recomputed [x^k] S^d for each x-shift of the top power.
POWER_STORE_PRODUCTS = {
    GFKind.PLABIC_TREE: 1868,
    GFKind.PLABIC_FOREST: 62099,
    GFKind.GRASS_TREE: 15224,
    GFKind.GRASS_FOREST: 198196,
}


@pytest.mark.parametrize("kind", list(GFKind))
def test_residual_store_makes_fewer_term_products(kind, monkeypatch):
    series = series_for(kind, 12)
    real, products = genfun.dot, []

    def counted(pairs, degree=None):  # a square's middle term is one of its pairs
        pairs = list(pairs)
        products.append(sum(len(a) * len(b) for a, b in pairs))
        return real(pairs, degree)

    monkeypatch.setattr(genfun, "dot", counted)
    genfun._RelationState(kind).extend(series.coefficients())
    before = POWER_STORE_PRODUCTS[kind]
    assert sum(products) < before
    if kind.is_forest:
        assert 3 * sum(products) <= 2 * before


def _term_products(pairs, degree):
    """The term products `dot` makes of the pairs: every one, or with a
    degree d, those whose y-degrees sum to at most d // 2."""
    if degree is None:
        return sum(len(a) * len(b) for a, b in pairs)
    return sum(
        ya + yb <= degree // 2 for a, b in pairs for ya, _ in a.term_map() for yb, _ in b.term_map()
    )


def _count_term_products(monkeypatch, module):
    """[made, all] term products of the `dot` calls of the module, and the
    degree of each call."""
    real, products, degrees = module.dot, [0, 0], []

    def counted(pairs, degree=None):
        pairs = list(pairs)
        products[0] += _term_products(pairs, degree)
        products[1] += _term_products(pairs, None)
        degrees.append(degree)
        return real(pairs, degree)

    monkeypatch.setattr(module, "dot", counted)
    return products, degrees


# Term products of a fresh store through x^12: the lower half of the
# y-degrees that it makes, and every one.
HALF_STORE_PRODUCTS = {
    GFKind.PLABIC_TREE: [766, 1381],
    GFKind.PLABIC_FOREST: [16328, 29766],
    GFKind.GRASS_TREE: [7070, 12585],
    GFKind.GRASS_FOREST: [71557, 129621],
}


@pytest.mark.parametrize("kind", list(GFKind))
def test_residual_store_multiplies_the_lower_half(kind, monkeypatch):
    series = series_for(kind, 12)
    products, degrees = _count_term_products(monkeypatch, genfun)
    state = genfun._RelationState(kind)
    assert state.half  # every transcribed C_(j,dx) is palindromic of y-degree dx
    state.extend(series.coefficients())
    assert products == HALF_STORE_PRODUCTS[kind]
    assert None not in degrees


def test_lagrange_route_multiplies_the_lower_half(monkeypatch):
    products, degrees = _count_term_products(monkeypatch, series_module)
    for kind in (GFKind.PLABIC_TREE, GFKind.GRASS_TREE):
        for n in range(4, 15):
            power_coefficient(1 + series_for(kind, n), n + 1, n)
    assert products == [48617, 88847]
    assert None not in degrees


def test_relation_with_a_term_that_is_not_palindromic_multiplies_in_full(monkeypatch):
    data = {kind: dict(table) for kind, table in genfun._relations().items()}
    table = data[GFKind.GRASS_TREE.value]
    table["terms"] = [*table["terms"], [1, 2, 0, 1, 3, 1]]  # 3q x^2 S: no mirror y^2 q
    monkeypatch.setattr(genfun, "_relations", lambda: data)
    series = series_for(GFKind.GRASS_TREE, 10)
    expect = _residual_term_by_term(GFKind.GRASS_TREE, series)
    assert expect[3] == 3 * Q * (1 + Y)  # 3q x^2 times S's x(1+y): not palindromic of degree 3
    _, degrees = _count_term_products(monkeypatch, genfun)
    assert not genfun._RelationState(GFKind.GRASS_TREE).half
    assert relation_residual(GFKind.GRASS_TREE, series) == expect
    assert degrees and set(degrees) == {None}


def test_relation_of_a_series_that_is_not_palindromic_multiplies_in_full_from_there(monkeypatch):
    kind = GFKind.GRASS_FOREST
    series = series_for(kind, 10) + TruncSeries.from_dict({4: Y}, 10)  # y at x^4
    _, degrees = _count_term_products(monkeypatch, genfun)
    assert relation_residual(kind, series) == _residual_term_by_term(kind, series)
    b = (relation_table(kind)["degree"] + 1) // 2
    assert degrees == [m for m in range(4) for _ in range(b + 1)] + [None] * (7 * (b + 1))


# A perturbation e x^3 changes the residual by e x^3 dP/dS, whose valuation
# is 3 plus that of dP/dS along the series: 2 for the plabic kinds, 4 for the
# Grassmannian ones.
PERTURBED_VALUATION = {
    GFKind.PLABIC_TREE: 5,
    GFKind.PLABIC_FOREST: 5,
    GFKind.GRASS_TREE: 7,
    GFKind.GRASS_FOREST: 7,
}


@pytest.mark.parametrize("kind", list(GFKind))
def test_residual_store_reports_a_perturbed_series(kind, monkeypatch):
    perturbed = series_for(kind, 12) + TruncSeries.from_dict({3: 1}, 12)
    monkeypatch.setattr(genfun, "_longest", {kind: perturbed})
    monkeypatch.setattr(genfun, "_residuals", {})
    ok, report = verify_algebraic_relation(kind, 12)
    residual = relation_residual(kind, perturbed)
    val = PERTURBED_VALUATION[kind]
    assert residual.valuation() == val
    assert not ok
    assert report == (
        f"{kind.value}: first nonzero residual at x^{val}: {residual[val].to_text()}"
    )


def test_residual_store_under_threads(builds):
    jobs = [(kind, order) for kind in GFKind for order in range(6, 13)]
    results, errors = [], []

    def worker(seed):
        mine = jobs[:]
        random.Random(seed).shuffle(mine)
        try:
            results.extend(verify_algebraic_relation(kind, o)[0] for kind, o in mine)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert results == [True] * (4 * len(jobs))


# -- oracle equivalence (the central property) ----------------------------------------


@pytest.mark.parametrize("kind", list(GFKind))
@pytest.mark.parametrize("n", range(1, 8))
def test_series_coefficients_match_oracle(n, kind):
    series = series_for(kind, n)
    assert extract_counts(series, n) == count_by_statistics(n, kind)
