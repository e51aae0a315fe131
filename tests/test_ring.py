import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gforest.ring import (
    LATEX,
    ONE,
    TEXT,
    ZERO,
    BivarPoly,
    Q,
    Y,
    dot,
    format_terms,
    pack,
    slot_width,
    unpack,
)
from gforest.series import TruncSeries


def P(terms):
    return BivarPoly(terms)


coeffs = st.one_of(st.integers(min_value=-9, max_value=9), st.integers(-(2**70), 2**70))
polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 5)), coeffs, max_size=6
).map(BivarPoly)


def test_like_term_addition():
    yq = P({(1, 1): 1})
    assert yq + P({(1, 1): 2}) == P({(1, 1): 3})


def test_additive_identity():
    p = P({(2, 1): 3, (0, 0): -1})
    assert p + ZERO == p
    assert ZERO + p == p


def test_addition_of_table_row_halves():
    high = P({(0, 4): 1, (0, 3): 4})
    low = P({(0, 2): 10, (0, 1): 12, (0, 0): 6})
    assert (high + low).to_text() == "q^4+4q^3+10q^2+12q+6"


def test_product_of_binomials():
    assert (1 + Y) * (1 + Q) == P({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_multiplicative_identity():
    p = P({(3, 2): -5, (0, 1): 7})
    assert p * ONE == p


def test_square_of_yq():
    yq = Y * Q
    assert yq * yq == P({(2, 2): 1})


def test_eval_q_at_minus_one_collapses_row():
    row = P({(0, 4): 1, (0, 3): 4, (0, 2): 10, (0, 1): 12, (0, 0): 6})
    assert row.eval_q(-1) == ONE


def test_eval_q_at_one_groups_by_y_degree():
    p = P({(1, 2): 3, (1, 0): 4, (0, 5): 2})
    assert p.eval_q(1) == P({(1, 0): 7, (0, 0): 2})


def test_eval_q_at_zero_kills_positive_q_terms():
    assert P({(2, 1): 1}).eval_q(0).is_zero()
    assert P({(2, 0): 1, (0, 3): 5}).eval_q(0) == P({(2, 0): 1})


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        P({(-1, 0): 1})


TOP = 2**20 - 1  # the largest exponent the packed keys hold


def test_products_refuse_an_exponent_the_constructor_refuses():
    # A q-degree past TOP would carry into y: Q ** 2**20 would equal Y.
    with pytest.raises(ValueError, match="too large"):
        P({(0, TOP + 1): 1})
    with pytest.raises(ValueError, match="too large"):
        Q ** 2**20
    with pytest.raises(ValueError, match="too large"):
        BivarPoly.monomial(dq=2**19) * BivarPoly.monomial(dq=2**19)
    with pytest.raises(ValueError, match="too large"):
        Y ** 2**20
    with pytest.raises(ValueError, match="too large"):
        Q.times_monomial(0, TOP)
    with pytest.raises(ValueError, match="too large"):
        (Y + Q).times_monomial(TOP, 0)
    with pytest.raises(ValueError, match="negative"):
        Q.times_monomial(0, -1)


def test_products_reach_the_largest_exponent():
    top = P({(TOP, TOP): 1})
    assert Q**TOP == P({(0, TOP): 1})
    assert BivarPoly.monomial(dq=2**19) * BivarPoly.monomial(dq=2**19 - 1) == Q**TOP
    assert (Y ** (TOP - 1) * Q) * (Y * Q ** (TOP - 1)) == top
    assert ONE.times_monomial(TOP, TOP) == top
    assert ZERO * top == ZERO == top * ZERO and ZERO.times_monomial(TOP, TOP) == ZERO


@given(polys, st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=40)
def test_times_monomial_is_the_product(a, dy, dq):
    assert a.times_monomial(dy, dq) == a * BivarPoly.monomial(dy=dy, dq=dq)


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
@settings(max_examples=60)
def test_add_then_subtract_is_bit_identical(a, b):
    assert ((a + b) - b).term_map() == a.term_map()


@given(polys)
@settings(max_examples=40)
def test_no_zero_terms_stored(a):
    assert all(c for _, c in a.terms())
    assert (a - a).is_zero()


@given(polys, st.integers(0, 4))
@settings(max_examples=30)
def test_power_matches_repeated_product(a, e):
    expect = ONE
    for _ in range(e):
        expect = expect * a
    assert a**e == expect


def typed(p):
    """The terms with each coefficient's type, so that a coefficient that is
    not a plain int shows."""
    return {m: (c, type(c)) for m, c in p.term_map().items()}


@given(st.lists(st.tuples(polys, polys), max_size=6))
@settings(max_examples=60)
def test_dot_is_the_sum_of_products(pairs):
    """Checked against a term-by-term sum that shares no code with `dot`,
    since `*` is `dot` of one pair."""
    expect = {}
    for a, b in pairs:
        for (ya, qa), ca in a.terms():
            for (yb, qb), cb in b.terms():
                m = (ya + yb, qa + qb)
                expect[m] = expect.get(m, 0) + ca * cb
    assert typed(dot(iter(pairs))) == {m: (c, int) for m, c in expect.items() if c}


def test_dot_of_nothing_is_zero():
    assert dot([]) == ZERO


def test_dot_stores_no_cancelled_term():
    p = (1 + Y) * Q
    total = dot([(p, ONE), (-p, ONE), (Y, Q), (ONE, P({(0, 0): 2}))])
    assert total.term_map() == {(1, 1): 1, (0, 0): 2}
    assert dot([(1 + Y, 1 - Y), (Y, Y)]).term_map() == {(0, 0): 1}


@st.composite
def palindromes(draw, d):
    """A polynomial palindromic of y-degree d: terms drawn for the rows
    y^0 .. y^(d//2) and mirrored."""
    low = draw(st.dictionaries(st.tuples(st.integers(0, d // 2), st.integers(0, 3)), coeffs, max_size=4))
    return BivarPoly({**low, **{(d - dy, dq): c for (dy, dq), c in low.items()}})


@st.composite
def palindromic_pairs(draw):
    """(d, pairs): each a * b of the pairs is palindromic of y-degree d."""
    d = draw(st.integers(0, 9))
    splits = draw(st.lists(st.integers(0, d), max_size=5))
    return d, [(draw(palindromes(i)), draw(palindromes(d - i))) for i in splits]


@given(palindromic_pairs())
@settings(max_examples=80)
@example((4, [(1 + Y, 1 + 2 * Y + 2 * Y * Y + Y**3), (Y, Y)]))  # an even degree, with a middle row
@example((3, [(1 + Y, 1 + Y * Y), (ONE, Y + Y * Y)]))  # an odd one
def test_dot_of_palindromes_multiplies_half_and_mirrors(case):
    d, pairs = case
    half = dot(iter(pairs), d)
    assert typed(half) == typed(dot(pairs))
    assert list(half._t) == sorted(half._t)
    assert half.is_palindromic(d)


def test_dot_of_palindromes_with_cancellation_and_no_pairs():
    p = (1 + Y) * (1 + Q)  # palindromic of y-degree 1
    assert dot([(p, ONE), (-p, ONE)], 1) == ZERO
    assert dot([(p, p), (-p, p), (Y, Q)], 2) == Y * Q  # the cancelled rows are not stored
    assert dot([], 0) == ZERO == dot([], 5)


def test_dot_of_palindromes_reads_no_storage_order():
    a = (1 + Y) ** 3 * (1 + 2 * Q) + (Y + Y * Y) * Q * Q
    b = (Y + Y * Y) * (1 + Q) + 2 * (1 + Y**3) * Q
    assert a.is_palindromic(3) and b.is_palindromic(3)
    expect = dot([(a, b), (b, b)])
    for seed in range(5):
        shuffled = []
        for p in (a, b):
            keys = list(p._t)
            random.Random(seed).shuffle(keys)
            shuffled.append(BivarPoly._raw({k: p._t[k] for k in keys}))
        ra, rb = shuffled
        for pairs in ([(ra, rb), (rb, rb)], [(rb, ra), (rb, rb)]):
            half = dot(pairs, 6)
            assert half == expect
            assert list(half._t) == sorted(half._t)


def test_palindrome_check():
    assert ZERO.is_palindromic(0) and ZERO.is_palindromic(7)
    assert ONE.is_palindromic(0) and not ONE.is_palindromic(1)
    assert (1 + Y).is_palindromic(1) and not (1 + Y).is_palindromic(2)
    assert Y.is_palindromic(2) and Q.is_palindromic(0)  # a middle row mirrors onto itself
    assert not (1 + Y + Y * Q).is_palindromic(1)  # y q has no mirror q
    assert not (Y + 2 * Y * Y).is_palindromic(3)  # mirrored rows of different values
    assert (Y**3).is_palindromic(6)
    assert not (Y**3).is_palindromic(2)  # a y-degree above d
    assert not (Q + Y**3 * Q).is_palindromic(2)  # above d, with its mirror y^(-1) q absent


@given(polys, st.integers(0, 9))
@settings(max_examples=60)
def test_palindrome_check_is_the_definition(a, d):
    expect = all(0 <= dy <= d and a.coefficient(d - dy, dq) == c for (dy, dq), c in a.terms())
    assert a.is_palindromic(d) == expect


def test_divide_scalar():
    p = P({(0, 1): 3})
    with pytest.raises(ArithmeticError):
        p.divide_scalar(2)
    assert p.divide_scalar(3) == P({(0, 1): 1})
    assert p.divide_scalar(-3) == P({(0, 1): -1})
    with pytest.raises(ZeroDivisionError):
        p.divide_scalar(0)


int_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 5)), st.integers(-30, 30), max_size=6
).map(BivarPoly)


@given(st.one_of(int_polys, polys), st.integers(-12, 12).filter(bool), st.booleans())
@settings(max_examples=120)
def test_divide_scalar_is_scaling_by_the_inverse(a, c, divisible):
    if divisible:
        a = a.scale(c)  # every coefficient a multiple of c
    if any(v % c for v in a.term_map().values()):
        with pytest.raises(ArithmeticError):
            a.divide_scalar(c)
    else:
        assert typed(a.divide_scalar(c)) == typed(P({m: v // c for m, v in a.term_map().items()}))
        assert a.divide_scalar(c).scale(c) == a


def test_ring_refuses_fractions():
    half = Fraction(1, 2)
    for make in (
        lambda: P({(0, 1): half}),
        lambda: P({(0, 0): 2.0}),
        lambda: BivarPoly.constant(half),
        lambda: BivarPoly.monomial(half, 1, 1),
        lambda: Y + half,
        lambda: half + Y,
        lambda: Y - half,
        lambda: half - Y,
        lambda: Y * half,
        lambda: half * Y,
        lambda: Y.scale(half),
        lambda: Y.divide_scalar(half),
        lambda: Y.eval_q(half),
        lambda: Y.eval_y(half),
    ):
        with pytest.raises(TypeError):
            make()


def test_poly_with_a_series_falls_back_to_the_series():
    # Both operators leave a series operand to TruncSeries's reflected method.
    x = TruncSeries.x(3)
    assert Y + x == x + Y
    assert Y - x == -(x - Y)
    assert (Y - x)[0] == Y and (Y - x)[1] == -ONE


def test_canonical_term_order_is_decreasing_q_then_y():
    p = P({(0, 2): 1, (2, 2): 1, (1, 3): 1, (0, 0): 5})
    assert [m for m, _ in p.terms()] == [(1, 3), (2, 2), (0, 2), (0, 0)]


def test_text_rendering_corner_cases():
    assert ZERO.to_text() == "0"
    assert P({(0, 0): -7}).to_text() == "-7"
    assert P({(1, 1): -1, (0, 0): 1}).to_text() == "-yq+1"
    assert P({(2, 10): 1}).to_text() == "y^2q^10"
    assert P({(0, 1): -12}).to_text() == "-12q"


def test_latex_rendering():
    row = P({(0, 12): 1, (0, 3): 4, (0, 0): 6})
    assert row.to_latex() == "q^{12}+4 q^3+6"


def test_rendering_of_exponents_9_and_10():
    p = P({(9, 10): 1, (10, 9): 2, (10, 10): -3})
    assert p.to_text() == "-3y^10q^10+y^9q^10+2y^10q^9"
    assert p.to_latex() == "-3 y^{10} q^{10}+y^9 q^{10}+2 y^{10} q^9"


def test_rendering_of_signs_units_and_constants():
    p = P({(1, 3): -1, (2, 1): 1, (1, 0): -1, (0, 0): 1})
    assert p.to_text() == "-yq^3+y^2q-y+1"
    assert p.to_latex() == "-y q^3+y^2 q-y+1"
    assert P({(3, 0): 1, (0, 0): -1}).to_text() == "y^3-1"
    assert P({(0, 0): 1}).to_text() == P({(0, 0): 1}).to_latex() == "1"
    assert P({(0, 0): -1}).to_text() == "-1"
    assert P({(0, 0): 3**50}).to_latex() == str(3**50)
    assert P({(0, 2): -1, (0, 1): -1}).to_latex() == "-q^2-q"


def test_terms_break_a_q_degree_tie_by_descending_y():
    p = P({(0, 3): 1, (4, 3): 2, (1, 3): 3, (9, 3): 4, (2, 5): 5, (7, 0): 6, (1, 0): 7})
    assert [m for m, _ in p.terms()] == [(2, 5), (9, 3), (4, 3), (1, 3), (0, 3), (7, 0), (1, 0)]


def _render_reference(p, sep, power):
    """Reference renderer: terms sorted through a Python key, one factor list
    per term and the text built by repeated concatenation."""
    terms = sorted(p.term_map().items(), key=lambda t: (t[0][1], t[0][0]), reverse=True)
    if not terms:
        return "0"
    text = ""
    for (dy, dq), c in terms:
        factors = ["y" + (power(dy) if dy > 1 else "")] if dy else []
        factors += ["q" + (power(dq) if dq > 1 else "")] if dq else []
        mag = str(abs(c))
        term = sep.join(([mag] if mag != "1" else []) + factors) if factors else mag
        text += ("-" if c < 0 else "+" if text else "") + term
    return text


wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.one_of(st.sampled_from([1, -1]), coeffs),
    max_size=8,
).map(BivarPoly)


@given(wide_polys)
@settings(max_examples=120, deadline=None)
def test_rendering_and_term_order_match_the_reference(p):
    assert p.terms() == sorted(
        p.term_map().items(), key=lambda t: (t[0][1], t[0][0]), reverse=True
    )
    assert p.to_text() == _render_reference(p, "", lambda e: f"^{e}")
    latex_power = lambda e: f"^{{{e}}}" if e >= 10 else f"^{e}"
    assert p.to_latex() == _render_reference(p, " ", latex_power)
    assert p.y_degree() == max((dy for dy, _ in p.term_map()), default=-1)
    assert p.min_coefficient() == min(p.term_map().values(), default=0)


def test_degrees_and_smallest_coefficient():
    p = P({(3, 1): 5, (0, 7): -2, (2, 2): 1})
    assert (p.y_degree(), p.q_degree(), p.min_coefficient()) == (3, 7, -2)
    assert (ZERO.y_degree(), ZERO.q_degree(), ZERO.min_coefficient()) == (-1, -1, 0)
    assert (ONE.y_degree(), ONE.min_coefficient()) == (0, 1)


@given(polys, st.integers(0, 3), st.integers(-1, 5))
@settings(max_examples=60, deadline=None)
def test_y_rows_are_the_y_coefficients(a, lo, hi):
    # The table's range is y^2 .. y^(n // 2); every y-degree in it gets a row.
    rows = list(a.y_rows(lo, hi))
    assert [dy for dy, _ in rows] == list(range(lo, hi + 1))
    for dy, terms in rows:
        assert terms == [(dq, c) for (_, dq), c in a.y_coefficient(dy).terms()]
        assert all(type(c) is int for _, c in terms)


def test_y_rows_of_sparse_and_zero_polynomials():
    assert list(ZERO.y_rows(2, 4)) == [(2, []), (3, []), (4, [])]
    p = P({(3, 1): 3**50, (3, 0): -2, (0, 4): 5, (2, 2): 7, (5, 0): 1, (3, 12): -1})
    assert list(p.y_rows(2, 4)) == [(2, [(2, 7)]), (3, [(12, -1), (1, 3**50), (0, -2)]), (4, [])]
    assert list(p.y_rows(0, 1)) == [(0, [(4, 5)]), (1, [])]
    assert list(p.y_rows(5, 6)) == [(5, [(0, 1)]), (6, [])]
    assert list(p.y_rows(2, 1)) == []


def _parent_render(p, sep, wide):
    """The renderer `format_terms` replaced: canonical terms, one factor list
    per term; an exponent of 10 or more is written with the `wide` template."""
    out = []
    for (dy, dq), c in p.terms():
        factors = [] if (dy or dq) and (c == 1 or c == -1) else [str(abs(c))]
        if dy:
            factors.append("y" if dy == 1 else "y" + (wide if dy >= 10 else "^{}").format(dy))
        if dq:
            factors.append("q" if dq == 1 else "q" + (wide if dq >= 10 else "^{}").format(dq))
        out += ("-" if c < 0 else "+"), sep.join(factors)
    return "".join(out).removeprefix("+") or "0"


PARENT_TEXT = ("", "^{}")
PARENT_LATEX = (" ", "^{{{}}}")


@given(wide_polys, st.integers(0, 12))
@example(ZERO, 0)
@example(P({(0, 0): 1, (0, 1): -1, (0, 12): 1, (1, 0): -1, (10, 10): 3**50}), 0)
@example(P({(0, 0): -1, (3, 1): 1, (3, 10): -(3**50), (3, 11): -1}), 3)
@example(P({(2, 0): 1, (5, 3): 7}), 4)  # row 4 is absent
@settings(max_examples=120, deadline=None)
def test_format_terms_writes_what_the_parent_renderer_wrote(p, dy):
    assert p.to_text() == _parent_render(p, *PARENT_TEXT)
    assert p.to_latex() == _parent_render(p, *PARENT_LATEX)
    # A table row: y^dy's (dq, c) terms, whose packed exponent is dq.
    (_, row), = p.y_rows(dy, dy)
    part = p.y_coefficient(dy)
    assert format_terms(row, TEXT) == _parent_render(part, *PARENT_TEXT)
    assert format_terms(row, LATEX) == _parent_render(part, *PARENT_LATEX)


def test_format_terms_of_rows():
    assert format_terms([], TEXT) == format_terms([], LATEX) == "0"
    row = [(12, 1), (10, -1), (3, 4), (1, -(3**50)), (0, -1)]
    assert format_terms(row, TEXT) == f"q^12-q^10+4q^3-{3**50}q-1"
    assert format_terms(row, LATEX) == f"q^{{12}}-q^{{10}}+4 q^3-{3**50} q-1"
    assert format_terms([(0, 1)], TEXT) == "1"
    assert format_terms([(1, -1), (0, 3**50)], LATEX) == f"-q+{3**50}"


def _spec_format_terms(terms, monomials):
    """`format_terms` as written with the format spec {c:+}: the reference."""
    out = []
    for k, c in terms:
        plus, minus, times = monomials[k]
        out.append(plus if c == 1 else minus if c == -1 else f"{c:+}{times}")
    return "".join(out).removeprefix("+") or "0"


term_coeffs = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.integers(min_value=2**70 + 1),
    st.integers(max_value=-(2**70) - 1),
)
packed_exponents = st.builds(lambda dy, dq: dy << 20 | dq, st.integers(0, 12), st.integers(0, 12))


@given(st.lists(st.tuples(packed_exponents, term_coeffs), max_size=8))
@settings(max_examples=200, deadline=None)
def test_format_terms_matches_the_format_spec_writer(terms):
    assert format_terms(terms, TEXT) == _spec_format_terms(terms, TEXT)
    assert format_terms(terms, LATEX) == _spec_format_terms(terms, LATEX)


def test_json_terms():
    # The table's JSON layout: one {dy, dq, num, den} dict per term, in terms() order.
    p = P({(1, 2): -3, (0, 0): 4})
    assert [{"dy": dy, "dq": dq, "num": c, "den": 1} for (dy, dq), c in p.terms()] == [
        {"dy": 1, "dq": 2, "num": -3, "den": 1},
        {"dy": 0, "dq": 0, "num": 4, "den": 1},
    ]


# -- Kronecker packing ----------------------------------------------------------


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_packing_is_a_ring_homomorphism(a, b):
    width = slot_width((a.norm() + 1) * b.norm() + a.norm())  # a, b and a*b - b fit
    stride = max(a.q_degree() + b.q_degree(), a.q_degree(), b.q_degree(), 0) + 1
    pa, pb = pack(a, width, stride), pack(b, width, stride)
    assert unpack(pa, width, stride) == a
    assert unpack(pa * pb - pb, width, stride) == a * b - b
    product = unpack(pa * pb, width, stride)
    assert list(product.term_map()) == [key for key, _ in product.terms()]


def test_slot_width_keeps_a_sign_bit():
    assert [slot_width(c) for c in (0, 1, 127, 128, 2**70)] == [1, 1, 1, 2, 9]
    for c in (127, -128):
        assert unpack(pack(P({(2, 1): c}), 1, 3), 1, 3) == P({(2, 1): c})


def test_pack_refuses_a_term_that_leaves_its_slot():
    with pytest.raises(ValueError):
        pack(P({(0, 3): 1}), 1, 3)
    with pytest.raises(OverflowError):
        pack(P({(0, 0): 256}), 1, 1)
