"""Exact sparse polynomials in the two formal variables y and q.

y marks helicity and q marks dimension.  Coefficients are Python ints and
nothing else: every coefficient of the generating functions is a count,
and the series layer divides only by 1.  The constructor, `constant`,
the arithmetic and the substitutions refuse any other number with
`TypeError` before storing anything, and `divide_scalar` divides exactly
or raises `ArithmeticError`, so no operation can make a non-integer.

A polynomial is stored as a dict from packed exponents to nonzero
coefficients.  The packing ``(dy << _SHIFT) | dq`` turns exponent addition
during multiplication into a single integer add.  Exponents up to
``2**_SHIFT - 1`` are supported, far beyond anything produced here; the
constructor, `*` and `times_monomial` refuse a larger one with `ValueError`.
A sum of products is `dot`: every term product goes into a single dict,
cleaned once at the end; `*` is `dot` of one pair.  `dot` is the kernel of
Miller's power recurrence, the Lagrange route and the relation residual.
Their sums are palindromic in y, [y^k] = [y^(d-k)] (`is_palindromic`),
and given that degree d, `dot` multiplies only the term pairs whose
y-degrees sum to at most d/2 and writes the upper rows as the mirror of the
lower ones: about 55% of the term products of those two checks.
The series product, quotient and algebraic root (also the reversion) make
no coefficient with it: they run on Kronecker-packed ints (`pack`, `unpack`),
the ring homomorphism P(y, q) -> P(2^(b*stride), 2^b), with slots sized by
a Cauchy majorant (`slot_width`), so the cross-checks and the series build
multiply with different kernels.  `expand_gamma` maps each coefficient of a
build from the gamma basis back to y without `dot` either: a row of
binomials applied to a column of z-coefficients per q-degree, for the lower
half of the y-degrees only, the upper half mirrored, with the keys stored in
ascending order (so `y_rows`' sort runs over sorted keys).

`to_text`, `to_latex` and the CLI's table rows (`y_rows`) share one
formatter, `format_terms`, which reads monomial strings built on first use
and writes each term as one plain f-string, without a format spec, testing
the common case of a counting table, a coefficient above 1, first.

Values are immutable after construction; all operations return new
polynomials and are safe to use concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from itertools import chain
from math import comb
from operator import mul

_SHIFT = 20
_MASK = (1 << _SHIFT) - 1


# Kronecker substitution: P(y, q) packs to the int P(2^(b*stride), 2^b), so
# the coefficient of y^dy q^dq fills slot dy*stride + dq, b = 8*width bits
# wide.  Slots are whole bytes so that packing and unpacking are one bytes
# conversion each.


def slot_width(bound: int) -> int:
    """Bytes per slot for coefficients of absolute value at most bound, with
    one bit to spare for the sign of a balanced digit."""
    return bound.bit_length() // 8 + 1


def pack(p: "BivarPoly", width: int, stride: int) -> int:
    """p(2^(8*width*stride), 2^(8*width)).

    Every coefficient must be below 2^(8*width) in absolute value and every
    q-degree below stride, so that each term fills its own slot."""
    t = p._t
    if not t:
        return 0
    slots = {}
    for k, c in t.items():
        dq = k & _MASK
        if dq >= stride:
            raise ValueError(f"q-degree {dq} does not fit a stride of {stride}")
        slots[((k >> _SHIFT) * stride + dq) * width] = c
    size = max(slots) + width
    pos = bytearray(size)
    neg = None
    for at, c in slots.items():
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            if neg is None:
                neg = bytearray(size)
            neg[at : at + width] = (-c).to_bytes(width, "little")
    v = int.from_bytes(pos, "little")
    return v - int.from_bytes(neg, "little") if neg else v


def unpack(v: int, width: int, stride: int) -> "BivarPoly":
    """The polynomial P with P(2^(8*width*stride), 2^(8*width)) = v whose
    coefficients lie in [-2^(8*width-1), 2^(8*width-1)) and whose q-degrees
    are below stride: v's digits in balanced base 2^(8*width).

    Adding 2^(8*width-1) in every slot makes each digit nonnegative without
    a carry, so one conversion to bytes reads them all.  The terms are
    stored in canonical order."""
    if not v:
        return _ZERO
    bits = 8 * width
    half = 1 << (bits - 1)
    count = (abs(v).bit_length() + bits) // bits + 1  # enough slots for v's top digit
    centre = bytes(width - 1) + b"\x80"  # the digit 0
    data = (v + int.from_bytes(centre * count, "little")).to_bytes(count * width, "little")
    digits = [data[i : i + width] for i in range(0, count * width, width)]
    t = {}
    for dq in range(min(stride, count) - 1, -1, -1):
        column = digits[dq::stride]
        for dy in range(len(column) - 1, -1, -1):
            d = column[dy]
            if d != centre:
                t[(dy << _SHIFT) | dq] = int.from_bytes(d, "little") - half
    return BivarPoly._raw(t)


def _int(c) -> int:
    """c as a plain int; TypeError for any other number."""
    if not isinstance(c, int):
        raise TypeError(f"coefficient {c!r} is not an int")
    return int(c)


def _canonical(t) -> list:
    """t's (packed key, coefficient) terms by dq, then dy, both descending: keys
    sort by dy then dq, and a stable sort on dq alone keeps that within each dq."""
    keys = sorted(t, reverse=True)
    keys.sort(key=_MASK.__and__, reverse=True)
    return [(k, t[k]) for k in keys]


class _Tables(dict):
    """Values by key, each built on first use: the monomial strings of each
    output format below, and the translation tables of `perms`."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _monomial(sep: str, wide: str, k: int) -> tuple:
    """Packed exponent k's term with coefficient 1, its term with -1, and what
    follows any other coefficient: factors joined by sep, and an exponent of 10
    or more written with the `wide` template."""
    m = sep.join(
        v if e == 1 else v + (wide if e >= 10 else "^{}").format(e)
        for v, e in (("y", k >> _SHIFT), ("q", k & _MASK)) if e
    )
    return ("+" + m, "-" + m, sep + m) if k else ("+1", "-1", "")


TEXT = _Tables(partial(_monomial, "", "^{}"))  # q^4+4q^3+6, y^2q^10
LATEX = _Tables(partial(_monomial, " ", "^{{{}}}"))  # q^{12}+4 q^3+6, y^2 q^{10}


def format_terms(terms, monomials: _Tables) -> str:
    """The (packed exponent, nonzero coefficient) terms as one sum, in the order
    given, in the format of `monomials` (`TEXT` or `LATEX`); "0" for no terms.

    Each term is one plain f-string, without a format spec.  c > 1, nearly
    every term of a counting table, is tested first; c = 1 and c = -1 are the
    monomial's stored strings; any other c writes its own sign."""
    out = []
    for k, c in terms:
        plus, minus, times = monomials[k]
        out.append(
            f"+{c}{times}" if c > 1 else plus if c == 1 else minus if c == -1 else f"{c}{times}"
        )
    return "".join(out).removeprefix("+") or "0"


class BivarPoly:
    """Immutable sparse polynomial in y and q with int coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (dy, dq), c in terms.items():
                c = _int(c)
                if dy < 0 or dq < 0:
                    raise ValueError(f"negative exponent ({dy}, {dq})")
                if dq > _MASK or dy > _MASK:
                    raise ValueError(f"exponent too large ({dy}, {dq})")
                if c:
                    t[(dy << _SHIFT) | dq] = c
        self._t = t

    @classmethod
    def _raw(cls, t: dict) -> "BivarPoly":
        # Trusted constructor: t maps packed keys to nonzero ints, in any order.
        p = object.__new__(cls)
        p._t = t
        return p

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        c = _int(c)
        return cls._raw({0: c} if c else {})

    @classmethod
    def monomial(cls, c=1, dy=0, dq=0) -> "BivarPoly":
        return cls({(dy, dq): c})

    # -- queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        return self._t == {0: 1}

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_coefficient(self):
        """Coefficient of y^0 q^0."""
        return self._t.get(0, 0)

    def coefficient(self, dy: int, dq: int):
        return self._t.get((dy << _SHIFT) | dq, 0)

    def terms(self) -> list:
        """[((dy, dq), coeff), ...] in canonical order: dq then dy, both descending."""
        return [((k >> _SHIFT, k & _MASK), c) for k, c in _canonical(self._t)]

    def term_map(self) -> dict:
        return {(k >> _SHIFT, k & _MASK): c for k, c in self._t.items()}

    def q_degree(self) -> int:
        return max((k & _MASK for k in self._t), default=-1)

    def y_degree(self) -> int:
        return max(self._t, default=-1) >> _SHIFT  # dy sits in the high bits

    def min_coefficient(self) -> int:
        """The smallest coefficient; 0 for the zero polynomial."""
        return min(self._t.values(), default=0)

    def is_palindromic(self, d: int) -> bool:
        """Whether [y^k] = [y^(d-k)] for every k, by one look-up per term.  A
        term of y-degree above d mirrors to a negative key, which no term
        has, so it fails the test; 0 is palindromic of every degree."""
        t = self._t
        top = d << _SHIFT
        return all(t.get(top - (k & ~_MASK) + (k & _MASK)) == c for k, c in t.items())

    def norm(self) -> int:
        """The l1 norm: the sum of the absolute values of the coefficients."""
        return sum(map(abs, self._t.values()))

    def __len__(self):
        return len(self._t)

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, BivarPoly):
            return self._t == other._t
        if isinstance(other, int):
            return self._t == ({0: other} if other else {})
        return NotImplemented

    __hash__ = None

    def __neg__(self):
        return BivarPoly._raw({k: -c for k, c in self._t.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        elif not isinstance(other, BivarPoly):
            return NotImplemented
        if not self._t:
            return other
        if not other._t:
            return self
        out = dict(self._t)
        for k, c in other._t.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return BivarPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, BivarPoly)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        self._fit(other.y_degree(), other.q_degree())
        return dot(((self, other),))

    __rmul__ = __mul__

    def _fit(self, dy: int, dq: int) -> None:
        """`ValueError` unless this polynomial's degrees plus dy and dq stay
        within 2^_SHIFT - 1, the constructor's limit: a larger q-degree would
        carry into y.  The degrees of 0 are -1, so 0 always fits."""
        ey, eq = self.y_degree(), self.q_degree()
        if ey + dy > _MASK or eq + dq > _MASK:
            raise ValueError(f"exponent too large ({ey}, {eq}) + ({dy}, {dq})")

    def times_monomial(self, dy: int, dq: int) -> "BivarPoly":
        """self * y^dy q^dq, by adding one packed key to each term's key."""
        if dy < 0 or dq < 0:
            raise ValueError(f"negative exponent ({dy}, {dq})")
        self._fit(dy, dq)
        shift = (dy << _SHIFT) | dq
        return BivarPoly._raw({k + shift: c for k, c in self._t.items()})

    def scale(self, c):
        c = _int(c)
        if not c:
            return _ZERO
        if c == 1:
            return self
        return BivarPoly._raw({k: v * c for k, v in self._t.items()})

    def divide_scalar(self, c):
        """Exact division by a nonzero int c that divides every coefficient;
        `ArithmeticError` if c leaves a remainder."""
        c = _int(c)
        if not c:
            raise ZeroDivisionError("division of polynomial by zero")
        t = self._t
        if any(v % c for v in t.values()):
            raise ArithmeticError(f"{c} does not divide every coefficient of {self.to_text()}")
        return BivarPoly._raw({k: v // c for k, v in t.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- evaluation ------------------------------------------------------

    def eval_q(self, v) -> "BivarPoly":
        """Substitute the int q := v, leaving a polynomial in y alone."""
        v = _int(v)
        out = {}
        for k, c in self._t.items():
            dy, dq = k >> _SHIFT, k & _MASK
            w = out.get(dy << _SHIFT, 0) + c * v**dq
            if w:
                out[dy << _SHIFT] = w
            else:
                out.pop(dy << _SHIFT, None)
        return BivarPoly._raw(out)

    def eval_y(self, v) -> "BivarPoly":
        """Substitute the int y := v, leaving a polynomial in q alone."""
        v = _int(v)
        out = {}
        for k, c in self._t.items():
            dy, dq = k >> _SHIFT, k & _MASK
            w = out.get(dq, 0) + c * v**dy
            if w:
                out[dq] = w
            else:
                out.pop(dq, None)
        return BivarPoly._raw(out)

    def y_coefficient(self, dy: int) -> "BivarPoly":
        """The polynomial in q multiplying y^dy."""
        return BivarPoly._raw(
            {k & _MASK: c for k, c in self._t.items() if k >> _SHIFT == dy}
        )

    def y_rows(self, lo: int, hi: int):
        """Yields (dy, [(dq, c), ...]) for lo <= dy <= hi: the terms of
        `y_coefficient(dy)` in canonical order, [] where it is 0.  y^dy's keys
        are the run [dy << _SHIFT, (dy + 1) << _SHIFT) of the sorted keys,
        found by bisection; reversed, they are in canonical order."""
        t = self._t
        keys = sorted(t)
        i = bisect_left(keys, lo << _SHIFT)
        for dy in range(lo, hi + 1):
            j = bisect_left(keys, (dy + 1) << _SHIFT, i)
            yield dy, [(k & _MASK, t[k]) for k in reversed(keys[i:j])]
            i = j

    # -- rendering -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms in decreasing q-degree, e.g. q^4+4q^3+6."""
        return format_terms(_canonical(self._t), TEXT)

    def to_latex(self) -> str:
        return format_terms(_canonical(self._t), LATEX)

    def __repr__(self):
        return f"BivarPoly({self.to_text()})"


_ZERO = BivarPoly._raw({})
ZERO = _ZERO
ONE = BivarPoly._raw({0: 1})
Y = BivarPoly.monomial(dy=1)
Q = BivarPoly.monomial(dq=1)


def dot(pairs, degree=None) -> BivarPoly:
    """The sum of a * b over the (a, b) pairs, accumulated in one dict and cleaned once.

    Every term product must keep its y- and q-degrees within 2^_SHIFT - 1,
    as the constructor requires; a larger q-degree would carry into y.
    `dot` does not check this, since it would cost work per term in the
    kernel of the Lagrange route and the relation check; `*` and
    `times_monomial` check it, by comparing degrees before they multiply.

    With a `degree` d, the caller promises that every product a * b is
    palindromic of y-degree d: [y^k] = [y^(d-k)] (`is_palindromic`).  Then
    only the term pairs whose y-degrees sum to at most d // 2 are multiplied:
    the larger operand's terms are sorted by key once per pair, and each term
    of the other stops at the first key past the cut.  Each [y^(d-k)] row is
    [y^k] mirrored, the middle row of an even d written once, and the terms
    are stored in ascending key order.  Without a degree the same loop runs
    unsorted, with the cut past every key, and nothing is mirrored."""
    out = {}
    get = out.get
    half = degree is not None
    # the largest key of y-degree d // 2, or a key past the sum of any two
    cut = ((degree // 2 + 1) << _SHIFT) - 1 if half else 1 << (2 * _SHIFT + 1)
    for a, b in pairs:
        a, b = a._t, b._t
        if len(a) > len(b):
            a, b = b, a
        b = sorted(b.items()) if half else b.items()
        for ka, ca in a.items():
            last = cut - ka
            for kb, cb in b:
                if kb > last:
                    break
                k = ka + kb
                v = get(k)
                out[k] = ca * cb if v is None else v + ca * cb
    if not half:
        return BivarPoly._raw({k: c for k, c in out.items() if c})
    keys = sorted(k for k, c in out.items() if c)
    t = {k: out[k] for k in keys}
    top = degree << _SHIFT
    below = bisect_left(keys, ((degree + 1) // 2) << _SHIFT)  # the rows 2k < d
    t.update(sorted((top - (k & ~_MASK) + (k & _MASK), t[k]) for k in keys[:below]))
    return BivarPoly._raw(t)


@lru_cache(maxsize=None)
def _binomial_rows(m: int) -> tuple:
    """[C(m-2j, k-j) for j <= k] at [k], for k <= m/2."""
    return tuple(tuple(comb(m - 2 * j, k - j) for j in range(k + 1)) for k in range(m // 2 + 1))


def expand_gamma(p: BivarPoly, m: int) -> BivarPoly:
    """p(z = y/(1+y)^2) (1+y)^m for p in z and q with z-degree at most m/2:
    sum_j [z^j] p y^j (1+y)^(m-2j), whose y^k coefficient is
    g_k = sum_j [z^j] p C(m-2j, k-j).

    Each q-degree r takes the column [z^0 q^r] p .. [z^(m//2) q^r] p, and
    each k <= m/2 the binomial row C(m-2j, k-j) for j <= k; [y^k q^r] is one
    sum of their products.  C(m-2j, k-j) = C(m-2j, m-k-j), so g_(m-k) = g_k
    is written without a sum.  The terms are stored in ascending key order,
    by k and then by r."""
    h = m // 2
    columns = {}  # r -> [z^j q^r] p at [j]
    for k, c in p._t.items():
        r = k & _MASK
        column = columns.get(r)
        if column is None:
            column = columns[r] = [0] * (h + 1)
        column[k >> _SHIFT] = c
    columns = sorted(columns.items())  # (r, column) by ascending r
    rows = []  # [(r, g_k at q^r), ...] at [k], for k <= m/2
    for binomials in _binomial_rows(m):
        row = []
        for r, column in columns:
            v = sum(map(mul, column, binomials))
            if v:
                row.append((r, v))
        rows.append(row)
    out = {}
    for k, row in enumerate(chain(rows, reversed(rows[: m - h]))):
        base = k << _SHIFT
        for r, v in row:
            out[base | r] = v
    return BivarPoly._raw(out)


def as_poly(value) -> BivarPoly:
    """Lift ints to constant polynomials; pass polynomials through."""
    if isinstance(value, BivarPoly):
        return value
    return BivarPoly.constant(value)
