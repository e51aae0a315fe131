"""Batch command-line front end.

Subcommands: table, coeff, check, euler, relations, perms.  All output is
UTF-8 and deterministic; CSV is RFC 4180 (CRLF, no field needs quoting).
Exit status: 0 all good, 1 mathematical mismatch, 2 configuration error.
The global `--order` is the one working order: no command asks for n above
it, and `relations` checks through x^order.

A table checks each x^n coefficient once (`genfun.checked_coefficient`:
one min and one max over its terms) and takes its rows, each y^k's (dq,
count) terms in canonical order, from one sorted list of its keys
(`BivarPoly.y_rows`).  Text and LaTeX write a row by `ring.format_terms`,
as `BivarPoly` does; CSV (`_csv_rows`) and JSON (`_json_rows`) write its
terms directly, CSV formatting each row's `n,k,` prefix once for all its
terms.

`check` decides every verdict by one rule (`_verdict`): a check is a lazy
stream of comparisons that FAILs at its first mismatch, and consumes no more;
an IntegralityViolation raised while comparing is such a mismatch, so it is a
FAIL line, not an `error:`.  Otherwise the check PASSes if anything was
compared and is SKIPped if nothing was.  It builds each Grassmannian series
once, at the working order, and the Lagrange route reads every n's tree
power from a prefix of that tree series.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter
from importlib import resources
from itertools import accumulate, groupby, product, tee
from operator import itemgetter

from . import genfun, oracle, perms
from .genfun import GFKind
from .ring import LATEX, TEXT, format_terms

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2

_KINDS = sorted(k.value for k in GFKind)
FORMATS = ("text", "csv", "json", "latex-table")


class ConfigError(Exception):
    pass


def _check_rows(n_min: int, n_max: int, order: int) -> None:
    """ConfigError unless 1 <= n_min <= n_max <= order."""
    if n_min < 1 or n_min > n_max:
        raise ConfigError("need 1 <= --n-min <= --n-max")
    if n_max > order:
        raise ConfigError(f"--n-max {n_max} exceeds working order {order}")


def _table_rows(n_min: int, n_max: int, kind: GFKind):
    """(n, k, [(dq, c), ...]) for each row: the terms of [x^n y^k], dq descending."""
    series = genfun.series_for(kind, n_max)
    for n in range(n_min, n_max + 1):
        for k, terms in genfun.checked_coefficient(series, n).y_rows(2, n // 2):
            yield n, k, terms


def _json_rows(rows) -> str:
    """json.dumps(rows, indent=1) for the (n, k, terms) rows as {n, k, coefficients}
    dicts, each term (dq, c) as {dy: 0, dq, num: c, den: 1}, without the encoder."""
    if not rows:
        return "[]"
    out = []
    for n, k, terms in rows:
        objects = [
            f'   {{\n    "dy": 0,\n    "dq": {dq},\n    "num": {c},\n    "den": 1\n   }}'
            for dq, c in terms
        ]
        coefficients = "[\n" + ",\n".join(objects) + "\n  ]" if objects else "[]"
        out.append(f' {{\n  "n": {n},\n  "k": {k},\n  "coefficients": {coefficients}\n }}')
    return "[\n" + ",\n".join(out) + "\n]"


def _csv_rows(rows) -> str:
    """The (n, k, terms) rows as RFC 4180 CSV under the header n,k,r,count: one
    line per term (dq, c), each row's `n,k,` prefix formatted once.  Every field
    is an int or a header name, so none is quoted."""
    out = ["n,k,r,count\r\n"]
    for n, k, terms in rows:
        head = f"{n},{k},"
        out += [f"{head}{dq},{c}\r\n" for dq, c in terms]
    return "".join(out)


def render_table(n_min: int, n_max: int, kind: GFKind, fmt: str, order: int) -> str:
    """Rows n_min <= n <= n_max of the kind's table; needs 1 <= n_min <= n_max <= `order`."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    _check_rows(n_min, n_max, order)
    rows = list(_table_rows(n_min, n_max, kind))
    if fmt == "text":
        return "".join([f"({n},{k}) {format_terms(terms, TEXT)}\n" for n, k, terms in rows])
    if fmt == "latex-table":
        lines = [r"\begin{tabular}{ll}", r"$(n,k)$ & coefficient \\ \midrule"]
        lines += [f"$({n},{k})$ & ${format_terms(terms, LATEX)}$ \\\\" for n, k, terms in rows]
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_rows(rows)
    return _json_rows(rows) + "\n"


def reference_table_text() -> str:
    """The checked-in reference table (data/forest_table.txt), comments stripped."""
    raw = resources.files("gforest.data").joinpath("forest_table.txt").read_text()
    return "".join(line + "\n" for line in raw.splitlines() if not line.startswith("#"))


def cmd_table(args) -> int:
    _check_rows(args.n_min, args.n_max, args.order)
    with _output(args.out) as fh:
        kind = GFKind(args.kind)
        fh.write(render_table(args.n_min, args.n_max, kind, args.format, args.order))
    return EXIT_OK


def cmd_coeff(args) -> int:
    if args.n < 1:
        raise ConfigError("need --n >= 1")
    if not 0 <= args.k <= args.n:
        raise ConfigError("need 0 <= k <= n")
    if args.n > args.order:
        raise ConfigError(f"n = {args.n} exceeds working order {args.order}")
    with _output(args.out) as fh:
        poly = genfun.coefficient_poly(GFKind(args.kind), args.n, args.k, args.order)
        fh.write(poly.to_text() + "\n")
    return EXIT_OK


def cmd_euler(args) -> int:
    if not 2 <= args.k <= args.n - 2:
        raise ConfigError("need 2 <= k <= n-2")
    if args.n > args.order:
        raise ConfigError(f"n = {args.n} exceeds working order {args.order}")
    with _output(args.out) as fh:
        value = genfun.euler_characteristic(GFKind.GRASS_FOREST, args.n, args.k)
        fh.write(f"{value}\n")
    return EXIT_OK if value == 1 else EXIT_MISMATCH


def cmd_relations(args) -> int:
    if args.order < 6:
        raise ConfigError("--order must be >= 6")
    with _output(args.out) as fh:
        ok, report = genfun.verify_algebraic_relation(GFKind(args.kind), args.order)
        fh.write(report + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_perms(args) -> int:
    if args.n < 1:
        raise ConfigError("need --n >= 1")
    if args.n > args.order:
        raise ConfigError(f"n = {args.n} exceeds working order {args.order}")
    # The whole family is sized before it is built or --out is opened, from its
    # exact count on each m letters, and refused at the first m whose running
    # total passes the budget.  The closure on m letters holds as many
    # permutations as there are contracted trees or forests on m points, which
    # the oracle counts: [x^m] of the kind's series at y = q = 1 (equal at every
    # m measured: m <= 10 for trees, m <= 9 for forests).  The oracle memoizes
    # its counts per size, so only the sizes read here are paid for.
    if args.family == "separable":
        counts = perms.separable_counts(args.n).values()
    else:
        kind = GFKind(args.family)
        counts = (sum(oracle.count_by_statistics(m, kind).values()) for m in range(1, args.n + 1))
    for m, size in enumerate(accumulate(counts), 1):
        if size > perms.CLOSURE_BUDGET:
            raise perms.BudgetExceeded(
                f"the {args.family} family would hold {size} permutations through n = {m}, "
                f"over the budget of {perms.CLOSURE_BUDGET}, so --n {args.n} cannot be built"
            )
    # separable_permutation_sets, grass_tree_permutation_sets, ...
    family = getattr(perms, args.family.replace("-", "_") + "_permutation_sets")
    with _output(args.out) as fh:
        members = family(args.n)[args.n]
        hist = Counter(
            map(perms.descents, map(perms.DecoratedPermutation.letters, members))
            if args.by == "descents"
            else map(perms.antiexcedances, members)
        )
        lines = [f"{key} {hist[key]}" for key in sorted(hist)]
        lines.append(f"total {sum(hist.values())}")
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _verdict(name: str, reason: str, results):
    """(name, ok, detail) by the module's verdict rule from a check's `results`,
    each None for a match or a mismatch's detail; ok None is SKIP, for `reason`."""
    compared = 0
    try:
        for compared, detail in enumerate(results, 1):
            if detail is not None:
                return name, False, detail
    except genfun.IntegralityViolation as exc:
        return name, False, str(exc)
    return (name, True, "") if compared else (name, None, reason)


def _reference_mismatch(top: int):
    """Rows 4 <= n <= top of the forest table against the reference rows."""
    got = render_table(4, top, GFKind.GRASS_FOREST, "text", top).splitlines()
    want = [r for r in reference_table_text().splitlines() if int(r[1 : r.index(",")]) <= top]
    diffs = (f"first differing line: got {a!r}, want {b!r}" for a, b in zip(got, want) if a != b)
    return None if got == want else next(diffs, "row counts differ")


def _oracle_mismatches(max_n: int):
    """Each kind's oracle counts against its series, n = 1 .. max_n."""
    for kind, n in product(GFKind, range(1, max_n + 1)):
        counts = oracle.count_by_statistics(n, kind)
        expect = genfun.extract_counts(genfun.series_for(kind, max_n), n)
        bad = counts != expect and min(set(counts.items()) ^ set(expect.items()))[0]
        yield f"{kind.value} first failing (n,k,r)=({n},{bad[0]},{bad[1]})" if bad else None


def _closure_mismatches(limit: int, trips):
    """The tree closure on n letters against the trips of the one-component forests."""
    sets = perms.grass_tree_permutation_sets(limit)
    for n, group in groupby(trips, itemgetter(0)):
        tree_trips = {w for _, G, w in group if len(G) == 1}
        mismatch = f"n={n}: closure {len(sets[n])} vs trips {len(tree_trips)}"
        yield None if sets[n] == tree_trips else mismatch


def run_checks(oracle_max_n: int, order: int):
    """All cross-checks; yields each (name, ok, detail) from `_verdict` when decided."""
    grass = GFKind.GRASS_FOREST
    forest = genfun.series_for(grass, order)
    genfun.series_for(grass.tree_kind, order)  # each n's tree power reads a prefix of it
    top = min(12, order)  # the reference rows, Euler and the relations stop at n = 12
    reference = map(_reference_mismatch, [top] if top >= 4 else [])
    yield _verdict("reference-table", "the reference rows start at n = 4", reference)
    lagrange = (
        None if genfun.forest_gf_via_lagrange(grass, n, order) == genfun.extract_counts(forest, n)
        else f"mismatch at n={n}"
        for n in range(1, order + 1)
    )
    yield _verdict("lagrange-dual-path", "nothing to compare for order < 1", lagrange)
    # The oracle and permutation checks run up to oracle_max_n, within the order cap.
    oracle_max_n = min(oracle_max_n, order)
    unchecked = "nothing to compare for --oracle-max-n < 1"
    yield _verdict("oracle-equivalence", unchecked, _oracle_mismatches(oracle_max_n))
    euler = (
        None if value == 1 else f"({n},{k}) -> {value}"
        for n in range(4, top + 1)
        for k in range(2, n - 1)
        for value in [genfun.euler_characteristic(grass, n, k)]
    )
    yield _verdict("euler-characteristic", "no 2 <= k <= n-2 for n < 4", euler)
    for kind in GFKind:
        reports = (genfun.verify_algebraic_relation(kind, t) for t in [top] if t >= 6)
        relation = (None if ok else report for ok, report in reports)
        yield _verdict(f"relation-{kind.value}", "the relations need order >= 6", relation)
    # Both permutation checks read one lazy pass over the contracted forests' trips.
    limit = min(oracle_max_n, 6)
    for_helicity, for_closure = tee(
        (n, G, perms.trip_permutation(G))
        for n in range(1, limit + 1)
        for F in oracle.enumerate_forests(n)
        for G in oracle.decorate_grassmannian(F, contracted_only=True)
    )
    helicity = (
        None if perms.antiexcedances(w) == oracle.helicity(G)
        else f"n={n}, forest {oracle.forest_to_json(G)}"
        for n, G, w in for_helicity
    )
    yield _verdict("antiexcedance-helicity", unchecked, helicity)
    yield _verdict("tree-permutation-closure", unchecked, _closure_mismatches(limit, for_closure))


def cmd_check(args) -> int:
    if args.oracle_max_n < 0:
        raise ConfigError("need --oracle-max-n >= 0")
    verdicts = Counter()  # None, True, False: SKIP, PASS, FAIL
    with _output(args.out) as fh:  # each verdict is written as soon as it is decided
        for name, ok, detail in run_checks(args.oracle_max_n, args.order):
            verdicts[ok] += 1
            verdict = "SKIP" if ok is None else "PASS" if ok else "FAIL"
            fh.write(f"{verdict} {name}" + (f": {detail}" if detail else "") + "\n")
            fh.flush()
        skipped = verdicts[None]
        passed = f"checks passed, {skipped} skipped" if skipped else "all checks passed"
        fh.write(("CHECK FAILED" if verdicts[False] else passed) + "\n")
    return EXIT_MISMATCH if verdicts[False] else EXIT_OK


def _output(path):
    """The file at `path` opened for writing, or stdout (left open) when no path."""
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gforest",
        description="Exact counts of contracted plabic and Grassmannian trees/forests.",
    )
    parser.add_argument(
        "--order",
        type=int,
        default=genfun.DEFAULT_ORDER,
        help=f"largest n any command may ask for (default {genfun.DEFAULT_ORDER}); "
        "each series is built only as far as the request needs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="coefficient table for 2 <= k <= floor(n/2)")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--kind", default=GFKind.GRASS_FOREST.value, choices=_KINDS)
    p.add_argument("--format", default="text", choices=FORMATS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("coeff", help="single [x^n y^k] coefficient as a q-polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", default=GFKind.GRASS_FOREST.value, choices=_KINDS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("check", help="run every cross-check; exit 1 on mismatch")
    p.add_argument("--oracle-max-n", type=int, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("euler", help="[x^n y^k] of the forest series at q = -1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("relations", help="verify the transcribed relation through x^order")
    p.add_argument("--kind", default=GFKind.GRASS_FOREST.value, choices=_KINDS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("perms", help="permutation family histograms")
    p.add_argument(
        "--family", required=True, choices=["separable", "grass-tree", "grass-forest"]
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--by", default="descents", choices=["descents", "antiexcedances"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_perms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.order < 1:
            raise ConfigError("order must be >= 1")
        return args.func(args)
    except (ConfigError, perms.BudgetExceeded, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except genfun.IntegralityViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
