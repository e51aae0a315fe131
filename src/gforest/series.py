"""Truncated formal power series in x with BivarPoly coefficients.

A series of order N knows its coefficients for x^0 .. x^N and claims
nothing beyond.  Combining series of different orders truncates to the
smaller order; comparing series of different orders is an error.

The compositional inverse g of f is the root v = O(x) of f(v) - x = 0,
so `reversion` is a case of `algebraic_root` below.  Composition
(`compose`, Horner's rule over series products) uses another recurrence,
so it can cross-validate it.  `power_coefficient`, the helper behind the
Lagrange route, gives [x^m] f^e by Miller's recurrence without building any
power of f, on another kernel.

Coefficients are `BivarPoly`s over the integers, and each operation
divides by one coefficient, which must be 1: the x^0 coefficient of a
divisor or of the base of a power (else `NonUnitConstantTerm`), the x^1
coefficient of a series inverted compositionally or the linear coefficient
of an algebraic equation (else `NotInvertible`).  The check comes before
any coefficient is computed, so whether an operation succeeds never depends
on the values of the other coefficients, and every result has integer
coefficients.  Every equation the generating functions are solved from has
linear coefficient 1, and every reciprocal they take, of D' and of
1 - X - Xzq w in `genfun`'s gamma basis, has x^0 coefficient 1; a unit
linear term is what makes the power-series root unique.

`algebraic_root` gives the root v = O(x) of a polynomial equation
sum_j (c0[j] + x c1[j]) v^j = 0 order by order: each new coefficient is a
dot over the powers of v already known, O(d n^2) coefficient products for
degree d in v.  A reversion to order n is the case d = n, c1 = [-1], and
Speicher's transform (`transforms.speicher_transform`) the case c0 = [0, 1].

The product, the quotient and the algebraic root each run their whole
recurrence on Kronecker-packed ints: each input coefficient is packed once
(`ring.pack`), and each output coefficient unpacked once (`ring.unpack`),
as balanced base-2^b digits.  The divisor or the equation is negated
where it enters, so each recurrence is a plain sum of products.  The slot
width b comes from the same recurrence run on the inputs' l1 norms, a
Cauchy majorant of each output coefficient, and the q-stride from the same
recurrence run in (max, +) on q-degrees.  `power_coefficient` stays on
`ring.dot`, one call per coefficient, so that the Lagrange route checks the
packed builds with another kernel.
"""

from __future__ import annotations

from itertools import chain
from operator import add, mul
from typing import Callable, NamedTuple

from .ring import ONE, ZERO, BivarPoly, as_poly, dot, pack, slot_width, unpack


class NonUnitConstantTerm(ArithmeticError):
    """A divisor, or the base of a power, has an x^0 coefficient that is not 1."""


class NonzeroConstantTerm(ArithmeticError):
    """Inner series of a composition has a nonzero constant term."""


class NotInvertible(ArithmeticError):
    """Series does not satisfy the preconditions for compositional inversion."""


def _unit(c: BivarPoly, error, where: str) -> None:
    """Raise `error` unless c, a coefficient the caller divides by, is 1."""
    if c != 1:
        raise error(f"{where} coefficient is not 1")


# -- recurrences on packed coefficients -----------------------------------------
#
# Each recurrence is a sum of products, written once over `_Ops` and run
# three times: on packed ints and on l1 norms (both `_SUMS`; on norms it
# bounds each output's norm, and so each of its coefficients) and on
# q-degrees (`_DEGREES`).  Negating an input changes neither its norm nor its
# q-degree.


class _Ops(NamedTuple):
    dot: Callable  # the sum of x * y over two sequences
    plus: Callable


_NO_TERMS = float("-inf")  # the q-degree of 0 in (max, +)


def _int_dot(xs, ys):
    return sum(map(mul, xs, ys))


def _degree_dot(xs, ys):
    return max(map(add, xs, ys), default=_NO_TERMS)


_SUMS = _Ops(_int_dot, add)
_DEGREES = _Ops(_degree_dot, max)


def _product(ops, a, b):
    """[x^m] a*b for m = 0 .. len(a) - 1."""
    return [ops.dot(a[: m + 1], b[m::-1]) for m in range(len(a))]


def _quotient(ops, a, e):
    """[x^i] a/b for i = 0 .. len(a) - 1, given e = -b, where b_0 = 1:
    o_i = a_i + sum_{k=1..i} e_k o_(i-k).  e_0 is never read."""
    out = []
    for i in range(len(a)):
        out.append(ops.plus(a[i], ops.dot(e[1 : i + 1], out[::-1])))
    return out


def _algebraic(ops, e0, e1, n):
    """v_0 .. v_n of the root v of v = sum_j (e0[j] + x e1[j]) v^j with
    v_0 = e0[0] = 0; e0[1] is never read.

    v_1 = e1[0] and, for m >= 2,
        v_m = sum_{j>=2} e0[j] [x^m] v^j + sum_{j>=1} e1[j] [x^(m-1)] v^j,
    where [x^m] v^j = sum_{i>=1} v_i [x^(m-i)] v^(j-1) needs only
    v_1 .. v_(m-1), and vanishes for j > m."""
    d = max(len(e0), len(e1)) - 1
    v = [e0[0], e1[0]][: n + 1]
    powers = [None, v]  # powers[j][m] = [x^m] v^j, filled for j <= m <= the last v_m
    for m in range(2, n + 1):
        if m <= d:
            powers.append([None] * (n + 1))
        for j in range(2, len(powers)):
            powers[j][m] = ops.dot(v[1 : m - j + 2], powers[j - 1][m - 1 : j - 2 : -1])
        v.append(ops.plus(
            ops.dot(e0[2:], [row[m] for row in powers[2:]]),
            ops.dot(e1[1:], [row[m - 1] for row in powers[1:m]]),
        ))
    return v


def _norms(cs):
    return [c.norm() for c in cs]


def _packed(recurrence, *inputs):
    """The output coefficients of `recurrence` on the input coefficient
    sequences, computed on ints: each input coefficient is packed once and
    each output coefficient unpacked once.

    The inputs' norms and the majorant run, which bounds the outputs' norms,
    size the slots; the (max, +) run and the inputs' q-degrees size the
    stride.  Packing is a ring homomorphism, so nothing else has to
    fit: the intermediate ints are never unpacked."""
    norms = [_norms(cs) for cs in inputs]
    degrees = [[c.q_degree() if c else _NO_TERMS for c in cs] for cs in inputs]
    width = slot_width(max(chain(recurrence(_SUMS, *norms), *norms)))
    stride = 1 + max(chain([0], recurrence(_DEGREES, *degrees), *degrees))
    packed = [[pack(c, width, stride) for c in cs] for cs in inputs]
    return [unpack(v, width, stride) for v in recurrence(_SUMS, *packed)]


class TruncSeries:
    """Immutable truncated power series; coefficients indexed 0..order."""

    __slots__ = ("order", "_c")

    def __init__(self, coeffs, order=None):
        coeffs = [as_poly(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [ZERO] * (order + 1 - len(coeffs))
        self.order = order
        self._c = tuple(coeffs[: order + 1])

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([ONE], order)

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        if order < 1:
            raise ValueError("the series x needs order >= 1")
        return cls([ZERO, ONE], order)

    @classmethod
    def from_dict(cls, coeffs: dict, order: int) -> "TruncSeries":
        out = [ZERO] * (order + 1)
        for n, c in coeffs.items():
            if 0 <= n <= order:
                out[n] = as_poly(c)
        return cls(out, order)

    # -- access ----------------------------------------------------------

    def coefficient(self, n: int) -> BivarPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient x^{n} beyond known order {self.order}")
        return self._c[n]

    __getitem__ = coefficient

    def coefficients(self):
        return self._c

    def valuation(self):
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self._c):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._c)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(
                f"series of different orders are not comparable ({self.order} vs {other.order})"
            )
        return self._c == other._c

    __hash__ = None

    def __repr__(self):
        inner = " + ".join(
            f"({c.to_text()})x^{i}" for i, c in enumerate(self._c) if c
        )
        return f"TruncSeries({inner or '0'} + O(x^{self.order + 1}))"

    # -- shape adjustments -------------------------------------------------

    def truncate(self, order: int) -> "TruncSeries":
        """The prefix through x^order, sharing this series' coefficients."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} to {order}")
        if order == self.order:
            return self
        prefix = object.__new__(TruncSeries)  # the coefficients are polynomials already
        prefix.order, prefix._c = order, self._c[: order + 1]
        return prefix

    def shift_up(self, k: int = 1) -> "TruncSeries":
        """Multiply by x^k; the result is legitimately known to order+k."""
        return TruncSeries([ZERO] * k + list(self._c), self.order + k)

    def shift_down(self, k: int = 1) -> "TruncSeries":
        """Divide by x^k, requiring the low coefficients to vanish."""
        if any(self._c[i] for i in range(min(k, self.order + 1))):
            raise ValueError(f"series is not divisible by x^{k}")
        if self.order < k:
            raise ValueError("order too small to shift down")
        return TruncSeries(self._c[k:], self.order - k)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return TruncSeries([-c for c in self._c], self.order)

    def __add__(self, other):
        if isinstance(other, (int, BivarPoly)):
            out = list(self._c)
            out[0] = out[0] + other
            return TruncSeries(out, self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries([self._c[i] + other._c[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, BivarPoly)):
            return self + (-as_poly(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, BivarPoly)):
            other = as_poly(other)
            return TruncSeries([c * other for c in self._c], self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries(_packed(_product, self._c[: n + 1], other._c[: n + 1]), n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        _unit(other._c[0], NonUnitConstantTerm, "x^0")
        n = min(self.order, other.order)
        e = [-c for c in other._c[: n + 1]]
        return TruncSeries(_packed(_quotient, self._c[: n + 1], e), n)

    # -- composition and inversion ------------------------------------------

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(x)), truncated to the smaller order."""
        if inner._c[0]:
            raise NonzeroConstantTerm("inner series must have zero constant term")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = TruncSeries([self._c[n]], n)
        for i in range(n - 1, -1, -1):
            result = result * inner + self._c[i]
        return result

    def reversion(self) -> "TruncSeries":
        """Compositional inverse g with self(g) = g(self) = x up to the order.

        Requires a zero constant term and 1 as the x^1 coefficient;
        g is the root of self(v) - x = 0, so `algebraic_root` gives it.
        """
        return algebraic_root(self._c, (-1,), self.order)

    # -- coefficient-wise helpers --------------------------------------------

    def map_coefficients(self, fn) -> "TruncSeries":
        return TruncSeries([fn(c) for c in self._c], self.order)

    def eval_q(self, v) -> "TruncSeries":
        return self.map_coefficients(lambda c: c.eval_q(v))

    def eval_y(self, v) -> "TruncSeries":
        return self.map_coefficients(lambda c: c.eval_y(v))


def algebraic_root(c0, c1, order: int) -> TruncSeries:
    """The root v = O(x) of sum_j (c0[j] + x c1[j]) v^j = 0 to the given
    order, for coefficient lists c0 and c1 (polynomials in y and q).

    Needs c0[0] = 0 and 1 as c0[1], the linear coefficient (else
    `NotInvertible`).  Then v = v - sum_j (c0[j] + x c1[j]) v^j, which
    `_algebraic` solves with e0 = -c0 and e1 = -c1, one `dot` per power of
    v and order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    c0, c1 = [as_poly(c) for c in c0], [as_poly(c) for c in c1]
    if len(c0) < 2 or c0[0] or not c1:
        raise NotInvertible("the equation needs c0[0] = 0, a linear term and a c1")
    _unit(c0[1], NotInvertible, "v^1")
    e0, e1 = [-c for c in c0], [-c for c in c1]
    return TruncSeries(_packed(lambda ops, a, b: _algebraic(ops, a, b, order), e0, e1), order)


def power_coefficient(f: TruncSeries, e: int, m: int) -> BivarPoly:
    """[x^m] f^e for an int e, by J.C.P. Miller's recurrence.

    f's x^0 coefficient must be 1.  From p_0 = 1, each
    p_j = (1/j) sum_{k=1..j} ((e+1)k - j) a_k p_(j-k) is one `dot` and an
    exact division, so no power of f is built (Knuth, TAOCP Vol. 2, 4.7)."""
    if not isinstance(e, int):
        raise TypeError(f"the exponent {e!r} is not an int")
    if not 0 <= m <= f.order:
        raise ValueError(f"x^{m} is beyond the series order {f.order}")
    a = f._c
    _unit(a[0], NonUnitConstantTerm, "x^0")
    p = [ONE]
    for j in range(1, m + 1):
        s = dot((a[k].scale((e + 1) * k - j), p[j - k]) for k in range(1, j + 1))
        p.append(s.divide_scalar(j))
    return p[m]
