"""Regenerate expected.txt, the answers the benchmark checks against.

    python3 perfbench/make_expected.py

Writes every coefficient row [x^n y^k], 1 <= n <= 16, 0 <= k <= n, of the
four series, and the number of forests with a contractible edge on n
points (the pool the contraction moves draw from).  Before writing, the
rows are checked against the reference table, the Lagrange route and the
brute-force oracle, none of which shares code with the series build.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gforest import genfun, oracle  # noqa: E402
from gforest.genfun import GFKind  # noqa: E402

from workloads import reference_rows  # noqa: E402

ORDER = 16
ORACLE_N = 8


def main():
    series = {}
    for kind in GFKind:
        s = genfun.series_for(kind, ORDER)
        for n in range(1, ORDER + 1):
            counts = genfun.extract_counts(s, n)
            if kind.is_forest:
                assert genfun.forest_gf_via_lagrange(kind, n, ORDER) == counts, (kind, n)
            if n <= ORACLE_N:
                assert oracle.count_by_statistics(n, kind) == counts, (kind, n)
        series[kind.value] = [
            (n, k, s[n].y_coefficient(k).to_text())
            for n in range(1, ORDER + 1)
            for k in range(n + 1)
        ]
    gf = genfun.series_for(GFKind.GRASS_FOREST, ORDER)
    for n, text in reference_rows().items():
        assert text == "".join(
            f"({n},{k}) {gf[n].y_coefficient(k).to_text()}\n" for k in range(2, n // 2 + 1)
        ), n
    pool = {
        n: sum(
            1
            for F in oracle.enumerate_forests(n)
            for G in oracle.decorate_grassmannian(F, contracted_only=False)
            if oracle.contractible_edges(G)
        )
        for n in range(3, 8)
    }
    with open(os.path.join(HERE, "expected.txt"), "w", encoding="utf-8") as fh:
        fh.write("# series <kind> <n> <k> <[x^n y^k] as a q-polynomial>\n")
        fh.write("# move-pool <n> <decorated forests on n points with a contractible edge>\n")
        for kind, rows in series.items():
            fh.writelines(f"series {kind} {n} {k} {text}\n" for n, k, text in rows)
        fh.writelines(f"move-pool {n} {size}\n" for n, size in pool.items())


if __name__ == "__main__":
    main()
