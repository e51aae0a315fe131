import math
import random
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gforest import genfun, series
from gforest.ring import ONE, ZERO, BivarPoly, Q, Y, as_poly, dot
from gforest.series import (
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    NotInvertible,
    TruncSeries,
    algebraic_root,
    power_coefficient,
)


def S(coeffs, order=None):
    return TruncSeries(coeffs, order)


def consts(series):
    return [c.constant_coefficient() for c in series.coefficients()]


def test_x_squared():
    x = TruncSeries.x(4)
    assert consts(x * x) == [0, 0, 1, 0, 0]


def test_multiplicative_identity():
    a = S([1, 2, 3, 4])
    assert a * TruncSeries.one(3) == a


def test_difference_of_squares():
    assert consts(S([1, 1, 0, 0]) * S([1, -1, 0, 0])) == [1, 0, -1, 0]


def test_truncation_to_min_order():
    a = S([1, 1, 1, 1, 1])
    b = S([1, 1])
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_truncate_shares_the_coefficients_of_its_series():
    full = genfun.series_for(genfun.GFKind.GRASS_FOREST, 9)
    for order in range(10):
        prefix = full.truncate(order)
        assert prefix == TruncSeries(full.coefficients()[: order + 1], order)
        assert prefix.order == order and repr(prefix) == repr(S(full.coefficients()[: order + 1]))
        assert all(a is b for a, b in zip(prefix.coefficients(), full.coefficients()))
    assert full.truncate(9) is full
    for order in (-1, 10):
        with pytest.raises(ValueError, match=f"cannot truncate a series of order 9 to {order}"):
            full.truncate(order)


def test_equality_requires_matching_orders():
    with pytest.raises(ValueError):
        S([1, 2]) == S([1, 2, 3])


def test_geometric_series():
    x = TruncSeries.x(8)
    geo = x / (1 - x)
    assert consts(geo) == [0] + [1] * 8


def test_division_by_one():
    a = S([2, 0, 5, 1])
    assert a / TruncSeries.one(3) == a


def test_plabic_prefix_expansion():
    # x(1 - q^2 x^2 y) / ((1+xq)(1+xyq)): first two coefficients by hand.
    order = 4
    num = S([0, 1, 0, -(Q * Q * Y)], order)
    den = S([1, Q], order) * S([1, Y * Q], order)
    c = num / den
    assert c[1] == ONE
    assert c[2] == -(Q * (1 + Y))


def test_division_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        S([1, 1]) / TruncSeries.x(1)
    with pytest.raises(NonUnitConstantTerm):
        S([1, 1]) / S([Y, 1])
    # A non-constant x^0 is refused whatever the dividend, even one it divides.
    with pytest.raises(NonUnitConstantTerm):
        (S([1, Q]) * S([1 + Y, 1])) / S([1 + Y, 1])
    with pytest.raises(NonUnitConstantTerm):
        S([1, 1]) / S([1 + Y, 1])


def test_compose_square_with_x_plus_x_squared():
    out = TruncSeries.from_dict({2: 1}, 4).compose(S([0, 1, 1, 0, 0]))
    assert consts(out) == [0, 0, 1, 2, 1]


def test_compose_with_x_is_identity():
    f = S([Y, 1 + Q, 3, Y * Q])
    assert f.compose(TruncSeries.x(3)) == f


def test_compose_known_mutual_inverses():
    x = TruncSeries.x(10)
    f = x / (1 - x)
    g = x / (1 + x)
    assert f.compose(g) == x
    assert g.compose(f) == x


def test_compose_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantTerm):
        TruncSeries.x(3).compose(S([1, 1, 0, 0]))


def test_reversion_of_x():
    x = TruncSeries.x(6)
    assert x.reversion() == x
    with pytest.raises(NotInvertible):
        (-x).reversion()
    with pytest.raises(NotInvertible):
        S([0, -1]).reversion()  # order 1


def test_reversion_standard_pair():
    x = TruncSeries.x(9)
    f = x / (1 + x)
    g = f.reversion()
    assert g == x / (1 - x)
    assert f.compose(g) == x
    assert g.compose(f) == x


def test_reversion_preconditions():
    with pytest.raises(NotInvertible):
        S([1, 1]).reversion()
    with pytest.raises(NotInvertible):
        S([0, Y, 1]).reversion()  # x^1 coefficient has no constant part
    with pytest.raises(NotInvertible):
        S([0, 1 + Y, 1]).reversion()  # x^1 coefficient is not a constant
    with pytest.raises(NotInvertible):
        S([0]).reversion()
    with pytest.raises(NotInvertible):
        S([0, 2, 1]).reversion()  # 1/2 is not an integer


def lagrange_coefficient(c_series: TruncSeries, n: int, k: int) -> BivarPoly:
    """[x^n] of the k-th power of the compositional inverse of c_series, by
    Lagrange inversion: the reference the reversion tests compare with.

    Computed as (k/n) [x^(n-k)] (x / c_series)^n by `power_coefficient`,
    never constructing the inverse itself.  Like `reversion`, needs a zero
    constant term and 1 as the x^1 coefficient.
    """
    if not (n >= k >= 1):
        raise ValueError("need n >= k >= 1")
    if c_series.order < n - k + 1:
        raise ValueError("series order too small for the requested coefficient")
    if c_series._c[0]:
        raise NotInvertible("series with nonzero constant term has no inverse")
    series._unit(c_series._c[1], NotInvertible, "x^1")
    base = c_series.shift_down(1).truncate(n - k)
    return power_coefficient(base, -n, n - k).scale(k).divide_scalar(n)


def test_lagrange_examples():
    f = TruncSeries.x(6) / (1 + TruncSeries.x(6))
    assert lagrange_coefficient(f, 3, 1) == ONE
    assert lagrange_coefficient(f, 3, 2) == BivarPoly.constant(2)
    assert lagrange_coefficient(TruncSeries.x(4), 2, 2) == ONE


def test_lagrange_argument_validation():
    x = TruncSeries.x(5)
    with pytest.raises(ValueError):
        lagrange_coefficient(x, 2, 3)
    with pytest.raises(NotInvertible):
        lagrange_coefficient(S([1, 1, 0], 2), 2, 1)
    with pytest.raises(NotInvertible):
        lagrange_coefficient(S([0, 1 + Y, 1, 0]), 3, 1)  # as for `reversion`
    with pytest.raises(NotInvertible):
        lagrange_coefficient(S([0, Y, 1, 0]), 3, 1)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(min_value=-4, max_value=4),
    max_size=3,
).map(BivarPoly)


def admissible(order):
    """Series with [x^0] = 0 and [x^1] = 1."""
    return st.lists(small_polys, min_size=order - 1, max_size=order - 1).map(
        lambda tail: TruncSeries([0, 1, *tail], order)
    )


@given(admissible(7))
@settings(max_examples=40, deadline=None)
def test_reversion_round_trip(f):
    g = f.reversion()
    x = TruncSeries.x(f.order)
    assert f.compose(g) == x
    assert g.compose(f) == x


def test_reversion_round_trip_at_order_twenty():
    rng = random.Random(20)
    coeffs = [0, 1] + [
        BivarPoly({(rng.randrange(3), rng.randrange(3)): rng.randrange(-3, 4)})
        for _ in range(19)
    ]
    f = TruncSeries(coeffs, 20)
    assert f.compose(f.reversion()) == TruncSeries.x(20)
    assert f.reversion().compose(f) == TruncSeries.x(20)


@given(admissible(8))
@settings(max_examples=25, deadline=None)
def test_lagrange_matches_reversion_powers(f):
    g = f.reversion()
    power = TruncSeries.one(f.order)
    for k in range(1, 4):
        power = power * g
        for n in range(k, f.order - 1):
            assert lagrange_coefficient(f, n, k) == power[n], (n, k)


def test_lagrange_matches_reversion_powers_to_ten():
    rng = random.Random(10)
    coeffs = [0, 1] + [
        BivarPoly({(rng.randrange(2), rng.randrange(2)): rng.randrange(-2, 3)})
        for _ in range(10)
    ]
    f = TruncSeries(coeffs, 11)
    g = f.reversion()
    power = TruncSeries.one(11)
    for k in range(1, 11):
        power = power * g
        for n in range(k, 11):
            assert lagrange_coefficient(f, n, k) == power[n], (n, k)


def _power_by_products(f, e):
    """f^e by repeated plain products of f, or of TruncSeries.one / f for e < 0."""
    base = f if e >= 0 else TruncSeries.one(f.order) / f
    power = TruncSeries.one(f.order)
    for _ in range(abs(e)):
        power = power * base
    return power


@given(
    st.lists(small_polys, min_size=4, max_size=4),
    st.lists(small_polys, min_size=3, max_size=3),
    st.integers(min_value=-4, max_value=5),
)
@example([1, Y, 0, Q], [1 + Q, Y, -2], 5)
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(a_tail, b_tail, e):
    a = TruncSeries(a_tail, 3)
    b = TruncSeries([1, *b_tail], 3)
    assert (a * b) / b == a
    # Miller's recurrence for [x^m] b^e against plain products, for every m.
    expect = _power_by_products(b, e)
    assert [power_coefficient(b, e, m) for m in range(4)] == list(expect.coefficients())


@pytest.mark.parametrize("kind", [genfun.GFKind.PLABIC_TREE, genfun.GFKind.GRASS_TREE])
def test_power_coefficient_multiplies_half_only_of_a_palindromic_base(kind, monkeypatch):
    palindromic = 1 + genfun.series_for(kind, 8)  # [x^k] is palindromic of y-degree k
    broken = palindromic + TruncSeries.from_dict({5: Y}, 8)  # y is not, at x^5
    real, degrees = series.dot, []

    def recorded(pairs, degree=None):
        degrees.append(degree)
        return real(pairs, degree)

    monkeypatch.setattr(series, "dot", recorded)
    for base, m, halves in ((palindromic, 8, True), (broken, 8, False), (broken, 4, True)):
        degrees.clear()
        for e in (m + 1, -3):
            assert power_coefficient(base, e, m) == _power_by_products(base, e)[m]
        assert degrees == 2 * (list(range(1, m + 1)) if halves else [None] * m)


def test_power_coefficient_argument_validation():
    with pytest.raises(NonUnitConstantTerm):
        power_coefficient(S([0, 1, 1]), 2, 1)
    with pytest.raises(NonUnitConstantTerm):
        power_coefficient(S([Y, 1, 1]), 2, 1)
    with pytest.raises(NonUnitConstantTerm):
        power_coefficient(S([1 + Y, 1, 1]), -1, 1)
    with pytest.raises(ValueError):
        power_coefficient(S([1, 1, 1]), 3, 3)
    with pytest.raises(ValueError):
        power_coefficient(S([1, 1, 1]), 3, -1)
    with pytest.raises(TypeError):
        power_coefficient(S([1, 1, 1]), 0.5, 0)


NON_UNITS = [ZERO, BivarPoly.constant(2), BivarPoly.constant(-2), Y, 1 + Y, -ONE]


@pytest.mark.parametrize("c", NON_UNITS, ids=["0", "2", "-2", "y", "1+y", "-1"])
def test_non_unit_constants_are_refused_before_any_coefficient(monkeypatch, c):
    def never(*args):
        raise AssertionError("a coefficient was computed")

    monkeypatch.setattr(series, "dot", never)
    monkeypatch.setattr(series, "pack", never)
    with pytest.raises(NonUnitConstantTerm):
        S([1, 1, 1]) / S([c, 1, 1])
    with pytest.raises(NonUnitConstantTerm):
        power_coefficient(S([c, 1, 1]), 3, 2)
    with pytest.raises(NonUnitConstantTerm):
        power_coefficient(S([c, 1, 1]), -3, 0)
    with pytest.raises(NotInvertible):
        S([0, c, 1, 1]).reversion()
    with pytest.raises(NotInvertible):
        lagrange_coefficient(S([0, c, 1, 1]), 3, 1)
    with pytest.raises(NotInvertible):
        algebraic_root([0, c, 1], [-1, 1], 3)


# -- the packed kernels against the dict kernel ------------------------------------

# Terms of low and of high q-degree, with coefficients of either sign, small
# or above 2^70; an empty dict is a zero coefficient.
wide = st.integers(2**70, 2**72)
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.one_of(st.integers(0, 2), st.integers(60, 64))),
    st.one_of(st.integers(-9, 9), wide, wide.map(lambda c: -c)),
    max_size=3,
).map(BivarPoly)
BIG = 2**70
HIGH = BivarPoly({(1, 61): -BIG, (0, 60): 3})


def wide_series(min_order=0, head=()):
    """Series of order min_order .. 5 whose first coefficients are head."""
    return st.integers(min_order, 5).flatmap(
        lambda n: st.lists(wide_polys, min_size=n + 1 - len(head), max_size=n + 1 - len(head))
    ).map(lambda tail: TruncSeries([*head, *tail]))


@given(wide_series(), wide_series())
@example(S([0, 0]), S([0, HIGH]))  # all-zero coefficients
@example(S([1, BIG]), S([1, -BIG]))  # x^1 cancels: the majorant is far above 0
@example(S([HIGH, 1, ZERO, Y]), S([-HIGH, Q * Q, BIG]))
@settings(max_examples=40, deadline=None)
def test_product_matches_a_dot_convolution(a, b):
    n = min(a.order, b.order)
    a, b = a.coefficients(), b.coefficients()
    expect = [dot(zip(a[: m + 1], b[m::-1])) for m in range(n + 1)]
    assert list((S(a) * S(b)).coefficients()) == expect


@given(wide_series(), wide_series(head=[1]))
@settings(max_examples=40, deadline=None)
def test_quotient_times_divisor_is_the_dividend(a, b):
    n = min(a.order, b.order)
    assert (a / b) * b == a.truncate(n)


def test_quotient_far_below_its_majorant():
    b = S([1, BIG, -BIG * BIG, HIGH, 5 * BIG])
    assert (b * S([1, -1, 0, 0, 0])) / b == S([1, -1, 0, 0, 0])


@given(wide_series(min_order=1, head=[0, 1]))
@example(S([0, 1, HIGH, 0, -BIG]))
@settings(max_examples=30, deadline=None)
def test_reversion_matches_lagrange_inversion(f):
    g = f.reversion()
    assert [g[n] for n in range(1, f.order + 1)] == [
        lagrange_coefficient(f, n, 1) for n in range(1, f.order + 1)
    ]


def test_reversion_far_below_its_majorant():
    # The inverse of x + 2^70 x^2 has coefficients of alternating sign near
    # 2^(70(m-1)); inverting it back gives coefficients of at most 71 bits.
    h = S([0, 1, BIG, 0, 0, 0])
    f = h.reversion()
    assert f[5] == BivarPoly.constant(14 * BIG**4)
    assert f.reversion() == h


def test_shift_down_requires_divisibility():
    with pytest.raises(ValueError):
        S([1, 2, 3]).shift_down(1)
    assert S([0, 2, 3]).shift_down(1) == S([2, 3])


# -- the root of an algebraic equation -----------------------------------------------


def test_algebraic_root_gives_the_catalan_numbers():
    # v = x (1 + v)^2
    v = algebraic_root([0, 1], [-1, -2, -1], 12)
    assert consts(v) == [0] + [math.comb(2 * m, m) // (m + 1) for m in range(1, 13)]
    assert algebraic_root([0, 1], [-1, -2, -1], 0) == S([0])


def test_algebraic_root_preconditions():
    with pytest.raises(NotInvertible):
        algebraic_root([1, 1], [-1], 3)  # no root without a constant term
    with pytest.raises(NotInvertible):
        algebraic_root([0], [-1], 3)  # no linear term
    with pytest.raises(NotInvertible):
        algebraic_root([0, 1], [], 3)
    with pytest.raises(ValueError):
        algebraic_root([0, 1], [-1], -1)


# Shapes of equation the four genfun equations never give, each with
# coefficients above 2^70 of either sign: f(v) - x = 0 of a reversion, whose
# c0 has the degree of the order, and v = x F(v) of Speicher's transform,
# whose c1 is long.
SHAPED_EQUATIONS = {
    "reversion": ([0, 1, HIGH, BIG * Y, -BIG, Q * Q, ZERO, 3 * HIGH, -Y], [-1], 8),
    "speicher": ([0, 1], [-1, BIG, -HIGH, BIG * Q, ZERO, -BIG * Y, HIGH, 7, -BIG * BIG], 9),
}


@pytest.mark.parametrize("kind", [*genfun.GFKind, *SHAPED_EQUATIONS])
def test_algebraic_recurrence_on_polys_equals_the_packed_run(kind):
    if kind in SHAPED_EQUATIONS:
        c0, c1, n = SHAPED_EQUATIONS[kind]
        c0, c1 = [as_poly(c) for c in c0], [as_poly(c) for c in c1]
    else:
        c0, c1 = genfun._equation(kind)
        n = 16
    polys = series._Ops(lambda xs, ys: dot(zip(xs, ys)), add)
    e0, e1 = [-c for c in c0], [-c for c in c1]  # negated, as `algebraic_root` does
    v = series._algebraic(polys, e0, e1, n)  # on the dict kernel
    assert list(algebraic_root(c0, c1, n).coefficients()) == v
    norms = series._algebraic(series._SUMS, series._norms(c0), series._norms(c1), n)
    assert all(c.norm() <= bound for c, bound in zip(v, norms))


@pytest.mark.parametrize("kind", list(genfun.GFKind))
def test_majorant_of_each_gamma_equation_bounds_the_root(kind):
    # The majorant run of the equation itself sizes the root's slots.  It
    # bounds every coefficient's norm, within 2 bits for the plabic kinds,
    # whose roots have no negative term, and within 13 bits for the
    # Grassmannian kinds.
    c0, c1 = genfun._equation(kind)
    v = algebraic_root(c0, c1, 16).coefficients()
    bounds = series._algebraic(series._SUMS, series._norms(c0), series._norms(c1), 16)
    assert all(c.norm() <= bound for c, bound in zip(v, bounds))
    slack = max(bounds).bit_length() - max(c.norm() for c in v).bit_length()
    assert slack <= (2 if kind.is_plabic else 13)
