"""The headline generating functions for coloured planar trees and forests.

Four series are built here, each counting objects of type (k, n) by
dimension r in the coefficient [x^n y^k q^r]:

* plabic trees / forests (every internal vertex white or black);
* Grassmannian trees / forests (generic vertices allowed).

Each tree series is x(1 + y + yq C^<-1>) for an explicit rational
function C = x N(x) / D(x).  Neither C nor any series is inverted: the
inverse u = C^<-1> solves the polynomial equation u N(u) = x D(u), and the
forest series H is 1/(1 - x(1+y) - xyq v), where v solves
v N(v) (1 - x(1+y) - xyq v) = x D(v), so the forest needs no tree series.
y enters N and D only as u(1+y) and u^2 y, so each equation is solved in
X = x(1+y), z = y/(1+y)^2 and w = (1+y)u (or (1+y)v): w N'(w) = X D'(w)
with tree series X(1 + zq w), and w N'(w) (1 - X - Xzq w) = X D'(w) with
forest series 1/(1 - X - Xzq w), where N' and D' lie in Z[z, q][w].
The tree root's [X^m] w has q-valuation m - 1, so the tree equation is
solved in W = qw and X' = qX instead, as W N''(W) = X' D''(W), where
N''(W) = N'(W/q) and D''(W) = D'(W/q) (`_parts`) still lie in Z[z, q][W]:
a packed coefficient then carries no m - 1 empty q-slots, and
[X^n] of the tree series is z q^(n-1) [X'^(n-1)] W, one monomial shift.
The forest roots have q-valuation 0 and are solved in w, with N' and D'
from the same parts by W -> qw.
`series.algebraic_root` solves each equation order by order
(Flajolet and Sedgewick, *Analytic Combinatorics*, VII.6), and one
expansion, [x^n y^k] = sum_j [X^n z^j] C(n-2j, k-j), maps the result back
to y.  [X^n] has z-degree at most n/2: it is the gamma vector of [x^n]
(Athanasiadis, "Gamma-positivity in combinatorics and geometry", Sém.
Lothar. Combin. 77, 2018), so each series is palindromic in y by
construction.  The expansion uses that: C(n-2j, k-j) = C(n-2j, n-k-j), so
only the rows k <= n/2 are summed, each as the binomial row
[C(n-2j, k-j) for j <= k] against the column of [X^n z^j q^r] of each r
(`ring.expand_gamma`), and [x^n y^(n-k)] is [x^n y^k] mirrored.  The
paper's route, a second compositional inversion of x / (1 + G_tree), is
Speicher's transform in `transforms`, which the tests compare with these
builds; it takes the root g of g = x (1 + G_tree(g)) from the same
recurrence.  An independent Lagrange-inversion route
(`forest_gf_via_lagrange`) and the transcribed polynomial relations stored
in data/ (`verify_algebraic_relation`) check the forest series in y with
another kernel, and so check the expansion too.

Every coefficient is an integer throughout: each equation's linear
coefficient is 1, the reciprocal of 1 - X - Xzq w inverts an X^0
coefficient of 1, the expansion multiplies by binomial coefficients, the
Lagrange route's division by n + 1 is checked exact, and the relation
loader refuses a transcribed term that is not an integer.

Truncated coefficients never change as a series grows, so both caches
here only grow: `series_for` keeps the longest series of each kind, and
the relation check keeps, per kind, the residual coefficients and the
rows it has computed, extending them in order of x as longer checks are
asked for (the online power series of McIlroy, "Power series, power
serious", JFP 1999).  A relation of degree d in S is evaluated with baby
steps S^2 .. S^b, b = ceil(d/2), and one giant step by S^b (Paterson and
Stockmeyer, SIAM J. Comput. 2, 1973), so each coefficient of a check
costs b + 1 `dot`s: three rows and the residual for grass-forest.
Each transcribed coefficient of x^dx is palindromic in y of degree dx, so
while the substituted series' [x^k] is palindromic of degree k, [x^m] of
every row and of the residual is palindromic of degree m, and each `dot`
multiplies only the lower half of the y-degrees (`ring.dot` with a degree).
The store verifies both, the table once at load and each [x^m] of the series
as it arrives, and multiplies in full from the first coefficient that breaks
the symmetry, so a perturbed series gets its exact residual.
"""

from __future__ import annotations

import json
import threading
from enum import Enum
from functools import lru_cache
from importlib import resources
from itertools import chain

from .ring import ONE, ZERO, BivarPoly, Q, Y, dot, expand_gamma
from .series import TruncSeries, algebraic_root, power_coefficient

DEFAULT_ORDER = 14


class IntegralityViolation(ArithmeticError):
    """A coefficient is not a count: negative, of too high a y- or z-degree,
    or not divisible where the Lagrange route divides."""


class GFKind(Enum):
    PLABIC_TREE = "plabic-tree"
    PLABIC_FOREST = "plabic-forest"
    GRASS_TREE = "grass-tree"
    GRASS_FOREST = "grass-forest"

    @property
    def is_tree(self) -> bool:
        return self in (GFKind.PLABIC_TREE, GFKind.GRASS_TREE)

    @property
    def is_forest(self) -> bool:
        return not self.is_tree

    @property
    def is_plabic(self) -> bool:
        return self in (GFKind.PLABIC_TREE, GFKind.PLABIC_FOREST)

    @property
    def tree_kind(self) -> "GFKind":
        return GFKind.PLABIC_TREE if self.is_plabic else GFKind.GRASS_TREE


def _parts(kind: GFKind):
    """N'' and D'', as coefficient lists in W with z in the place of y, for
    C = x N(x) / D(x) in the gamma basis with W = qw: W N''(W) / D''(W) =
    q(1+y) C(u) for W = q(1+y)u, and z = y/(1+y)^2.  N'(w) = N''(qw) and
    D'(w) = D''(qw) (`_lift`) are the parts in w.

    plabic:        N'' = 1 - z W^2,  D'' = 1 + W + z W^2
    Grassmannian:  N'' = 1 - q W - (1+q-q^2) z W^2 - q(1+q) z^2 W^4,
                   D'' = (1 + W + z W^2)(1 - q W + q^2 z W^2)
    """
    z = Y
    if kind.is_plabic:
        return [ONE, ZERO, -z], [ONE, ONE, z]
    q2 = Q * Q
    N = [ONE, -Q, -(z * (1 + Q - q2)), ZERO, -(z * z * (Q + q2))]
    D = [ONE, 1 - Q, z * (1 + q2) - Q, z * (q2 - Q), z * z * q2]
    return N, D


def _lift(cs):
    """The coefficient list of p(qw) for p's coefficient list cs in W:
    coefficient j times q^j."""
    return [c.times_monomial(0, j) for j, c in enumerate(cs)]


def _expand(series: TruncSeries, s: int) -> TruncSeries:
    """The series in x and y of a series in X = x(1+y) and z = y/(1+y)^2,
    times (1+y)^s: [x^n] is sum_j [X^n z^j] y^j (1+y)^(n+s-2j), so
    [x^n y^k] = sum_j [X^n z^j] C(n+s-2j, k-j).  `ring.expand_gamma` takes
    each [X^n] in one pass: a row of binomials C(n+s-2j, k-j) per k up to
    (n+s)/2, applied to the column of z-coefficients of each q-degree, with
    [x^n y^(n+s-k)] = [x^n y^k] mirrored rather than summed, and the keys
    stored in ascending order.  A z-degree above (n+s)/2 would need a
    negative power of 1+y, an infinite series in y, and raises
    `IntegralityViolation`."""
    out = []
    for n, c in enumerate(series.coefficients()):
        if 2 * c.y_degree() > n + s:
            raise IntegralityViolation(
                f"[X^{n}] has z-degree {c.y_degree()}, above ({n}{s:+})/2"
            )
        out.append(expand_gamma(c, n + s))
    return TruncSeries(out, series.order)


@lru_cache(maxsize=None)
def build_C(kind: GFKind, order: int) -> TruncSeries:
    """The rational function x N(x) / D(x) whose compositional inverse
    drives the tree series, expanded from X N'(X) / D'(X) (`_parts`)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    N, D = map(_lift, _parts(kind))
    return _expand(TruncSeries([ZERO, *N], order) / TruncSeries(D, order), -1)


def _equation(kind: GFKind):
    """(c0, c1) of the kind's equation sum_j (c0[j] + X c1[j]) w^j = 0, with
    z in the place of y; for a tree, W and X' = qX stand for w and X.

    Tree: w = (1+y) C^<-1> solves w N'(w) = X D'(w), and the tree series is
    X(1 + zq w).  [X^m] w has q-valuation m - 1, so the tree equation is
    solved in W = qw and X' = qX, as W N''(W) = X' D''(W): its root's
    [X'^m] W is q^(1-m) [X^m] w, whose packed form carries no m - 1 empty
    q-slots.  Forest: with H the forest series, w = (1+y)
    C^<-1>(xH) solves w N'(w) (1 - X - Xzq w) = X D'(w), and
    H = 1/(1 - X - Xzq w); its root has q-valuation 0, so it is solved in w."""
    N, D = _parts(kind)
    if kind.is_tree:
        return [ZERO, *N], [-d for d in D]  # W N''(W) - X' D''(W)
    c0 = [ZERO, *_lift(N)]  # w N'(w)
    c1 = [-d for d in _lift(D)] + [ZERO] * (len(c0) + 1 - len(D))
    for j, c in enumerate(c0):
        c1[j] -= c
        c1[j + 1] -= c.times_monomial(1, 1)
    return c0, c1


def _gamma(kind: GFKind, order: int) -> TruncSeries:
    """The kind's series to the given order in X, with z in the place of y:
    X(1 + zq w) for a tree and 1/(1 - X(1 + zq w)) for a forest, where w is
    the root of the kind's `_equation`.  Each [X^n] X(1 + zq w) past X^1 is
    one monomial shift of the root's [X^(n-1)]: z q^(n-1) [X'^(n-1)] W for a
    tree, whose root is in W = qw and X' = qX, and z q [X^(n-1)] w for a
    forest."""
    root = algebraic_root(*_equation(kind), order - 1).coefficients()
    shifted = (c.times_monomial(1, m if kind.is_tree else 1) for m, c in enumerate(root[1:], 1))
    t = TruncSeries([ZERO, ONE, *shifted], order)
    return t if kind.is_tree else TruncSeries.one(order) / (1 - t)


# The builders keep their own caches only so that a direct caller does not
# repeat its last build; series_for keeps the longest series of each kind.
@lru_cache(maxsize=2)
def build_tree_gf(kind: GFKind, order: int) -> TruncSeries:
    """Tree generating function x(1 + y + yq C^<-1>) to the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if kind.is_forest:
        raise ValueError("build_tree_gf builds the tree kinds")
    return _expand(_gamma(kind, order), 0)


@lru_cache(maxsize=2)
def build_forest_gf(kind: GFKind, order: int) -> TruncSeries:
    """Forest generating function 1/(1 - x(1+y) - xyq v), where v solves the
    forest equation in y of which `_equation` is the gamma form."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if kind.is_tree:
        raise ValueError("build_forest_gf builds the forest kinds")
    return _expand(_gamma(kind, order), 0)


_longest: dict = {}  # GFKind -> the longest series of that kind built so far
_longest_lock = threading.Lock()


def series_for(kind: GFKind, order: int) -> TruncSeries:
    """The kind's series to the given order.

    Truncated coefficients are exact, so this is a prefix of the longest
    series of the kind built so far; a series is built only when a longer
    order is asked for.  The cache never shrinks, so two threads racing
    for the same growth cost a second build, never a wrong answer.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    series = _longest.get(kind)
    if series is None or series.order < order:
        series = (build_tree_gf if kind.is_tree else build_forest_gf)(kind, order)
        with _longest_lock:
            kept = _longest.get(kind)
            if kept is None or kept.order < order:
                _longest[kind] = series
    return series.truncate(order)


@lru_cache(maxsize=None)
def _tree_power(kind: GFKind, n: int) -> BivarPoly:
    """[x^n] (1 + G_tree)^(n+1), from the n-prefix of the tree series."""
    return power_coefficient(1 + series_for(kind, n), n + 1, n)


def forest_gf_via_lagrange(kind: GFKind, n: int, order: int | None = None) -> dict:
    """[x^n] of the forest series by the binomial-power route.

    Uses [x^n] G_forest = (1/(n+1)) [x^n] (1 + G_tree)^(n+1), which needs
    neither the forest equation nor any inverse.  `order`, if given, is a
    cap that n must not exceed.  Returns {(k, r): count}.
    """
    if kind.is_tree:
        raise ValueError("the binomial-power route gives the forest series")
    if n < 1:
        raise ValueError("n must be positive")
    if order is not None and order < n:
        raise ValueError("order too small for the requested coefficient")
    counts = {}
    for (dy, dq), c in _tree_power(kind.tree_kind, n).term_map().items():
        count, rest = divmod(c, n + 1)
        if rest:
            raise IntegralityViolation(
                f"[x^{n} y^{dy} q^{dq}] division by {n + 1} left remainder {rest}"
            )
        counts[(dy, dq)] = count
    return counts


def checked_coefficient(series: TruncSeries, n: int) -> BivarPoly:
    """[x^n] after checking the counting-series sanity rules, nonnegative and
    y-degree within [0, n], by one `min` and one `max`; only a failing rule
    walks the terms in storage order, to name the first offending term.
    Every coefficient is an integer already: the ring refuses a non-integer."""
    p = series[n]
    if p.min_coefficient() < 0 or p.y_degree() > n:
        for (dy, dq), c in p.term_map().items():
            if c < 0:
                raise IntegralityViolation(f"[x^{n} y^{dy} q^{dq}] = {c} is negative")
            if dy > n:
                raise IntegralityViolation(f"y-degree {dy} exceeds n = {n}")
    return p


def extract_counts(series: TruncSeries, n: int) -> dict:
    """{(k, r): count} for [x^n]: `checked_coefficient`'s checks, then its
    `term_map()`, in storage order rather than canonical term order."""
    return checked_coefficient(series, n).term_map()


def coefficient_poly(kind: GFKind, n: int, k: int, order: int | None = None) -> BivarPoly:
    """[x^n y^k] as a polynomial in q, validated as a counting coefficient.

    The series is built to n; n may not exceed `order` (DEFAULT_ORDER
    when not given)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    order = DEFAULT_ORDER if order is None else order
    if n > order:
        raise ValueError(f"n = {n} exceeds working order {order}")
    return checked_coefficient(series_for(kind, n), n).y_coefficient(k)


def euler_characteristic(kind: GFKind, n: int, k: int):
    """[x^n y^k] of the forest series at q = -1 (expected value: 1)."""
    if kind.is_tree:
        raise ValueError("Euler specialisation is defined for the forest series")
    if not 2 <= k <= n - 2:
        raise ValueError("need 2 <= k <= n-2")
    return checked_coefficient(series_for(kind, n), n).eval_q(-1).coefficient(k, 0)


# -- transcribed algebraic relations ------------------------------------------


@lru_cache(maxsize=None)
def _relations() -> dict:
    text = resources.files("gforest.data").joinpath("relations.json").read_text()
    return json.loads(text)


def relation_table(kind: GFKind) -> dict:
    """Transcribed relation for the kind: {'degree': d, 'terms': [[j, dx, dy, dq, num, den], ...]}."""
    return _relations()[kind.value]


class _RelationState:
    """One kind's relation residual, extended in order of x.

    With C_j the coefficient of S^j in the relation of degree d and
    b = ceil(d/2), the residual is A_0 + S^b A_1, where A_0 is the sum of
    C_j S^j over j < b and A_1 that of C_j S^(j-b) over j >= b: baby steps
    S^2 .. S^b and one giant step by S^b (Paterson and Stockmeyer, "On the
    number of nonscalar multiplications necessary to evaluate polynomials",
    SIAM J. Comput. 2, 1973).  Both sums need only S^0 .. S^b, since
    d - b <= b, so the store keeps the rows of S^2 .. S^b and of A_1, and
    [x^m] of each is one `dot`: an even power squares a stored row, an odd
    one is S times the power below it, and [x^m] of the residual runs over
    the terms of A_0 and the pairs ([x^k] S^b, [x^(m-k)] A_1).  [x^m] of
    every row needs only the series' coefficients up to m.  `half` stays
    true while every C_(j,dx) is palindromic of y-degree dx and every [x^k]
    S so far of degree k: then [x^m] of every row is palindromic of degree
    m, and each `dot` of the step is given that degree.
    """

    def __init__(self, kind: GFKind):
        table = relation_table(kind)
        grouped = {}  # (j, dx) -> {(dy, dq): coefficient}
        for term in table["terms"]:
            j, dx, dy, dq, num, den = term
            if den != 1:
                raise ValueError(f"{kind.value} relation term {term} is not an integer")
            terms = grouped.setdefault((j, dx), {})
            terms[dy, dq] = terms.get((dy, dq), 0) + num
        b = self.split = (table["degree"] + 1) // 2
        coeffs = {key: BivarPoly(t) for key, t in grouped.items()}
        self.low = [(j, dx, c) for (j, dx), c in coeffs.items() if j < b]
        self.high = [(j - b, dx, c) for (j, dx), c in coeffs.items() if j >= b]
        self.half = all(c.is_palindromic(dx) for (_, dx), c in coeffs.items())
        self.powers = [[] for _ in range(b - 1)]  # [x^m] S^j at [j - 2][m]
        self.top = []  # [x^m] A_1
        self.residual = []

    def extend(self, s) -> None:
        """Compute the residual through x^(len(s) - 1) from S's coefficients s."""
        b = self.split
        for row in (*self.powers, self.top):  # a raised extension may have left a partial step
            del row[len(self.residual) :]
        rows = [None, s, *self.powers]  # rows[j][k] = [x^k] S^j for 1 <= j <= b

        def terms(coeffs, m):  # (c_(j,dx), [x^(m-dx)] S^j); S^0 is 1
            return (
                (c, rows[j][m - dx] if j else ONE)
                for j, dx, c in coeffs
                if dx <= m and (j or dx == m)
            )

        for m in range(len(self.residual), len(s)):
            self.half = self.half and s[m].is_palindromic(m)
            degree = m if self.half else None
            for j in range(2, b + 1):
                if j % 2:
                    rows[j].append(dot(zip(s[: m + 1], rows[j - 1][m::-1]), degree))
                else:
                    rows[j].append(dot(_square_pairs(rows[j // 2], m), degree))
            self.top.append(dot(terms(self.high, m), degree))
            self.residual.append(dot(
                chain(terms(self.low, m), zip(rows[b][: m + 1], self.top[::-1])), degree
            ))


def _square_pairs(row, m):
    """The pairs whose `dot` is [x^m] T^2, for row = [x^0] T .. [x^m] T:
    (2 T_k, T_(m-k)) for k < m/2, and (T_(m/2), T_(m/2)) when m is even."""
    h = (m + 1) // 2
    middle = row[h : m + 1 - h]
    doubled = ((t.scale(2), u) for t, u in zip(row[:h], row[m : m - h : -1]))
    return chain(doubled, zip(middle, middle))


_residuals: dict = {}  # GFKind -> the _RelationState of the kind's longest check
_residuals_lock = threading.Lock()


def relation_residual(kind: GFKind, series: TruncSeries) -> TruncSeries:
    """Substitute a series into the kind's transcribed polynomial relation.

    The residual is A_0 + S^b A_1 of `_RelationState`, extended from x^0
    over a fresh state, as the check extends its own."""
    state = _RelationState(kind)
    state.extend(series.coefficients())
    return TruncSeries(state.residual, series.order)


def verify_algebraic_relation(kind: GFKind, order: int):
    """Check the computed series against its transcribed algebraic relation.

    Each kind keeps the residual of its longest check so far, with the
    rows of S^2 .. S^b and A_1 it needs (`_RelationState`), and a check
    computes only the residual coefficients above that order; a check
    within it computes nothing.  An interrupted extension leaves its partial
    step behind, and the next one trims every row back to the residual.
    Truncated coefficients never change as the series grows, so this is
    exact.  Returns (ok, report); the report names the first nonzero
    residual coefficient if verification fails.
    """
    if order < 6:
        raise ValueError("order must be >= 6 to be meaningful")
    series = series_for(kind, order)
    with _residuals_lock:
        state = _residuals.get(kind)
        if state is None:
            state = _residuals[kind] = _RelationState(kind)
        state.extend(series.coefficients())
        residual = TruncSeries(state.residual[: order + 1], order)
    val = residual.valuation()
    if val is None:
        return True, f"{kind.value}: residual is 0 through x^{order}"
    return False, (
        f"{kind.value}: first nonzero residual at x^{val}: "
        f"{residual[val].to_text()}"
    )
