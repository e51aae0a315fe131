import csv
import hashlib
import io
import json
import os
import shlex
from pathlib import Path

import pytest

from gforest import cli, genfun, oracle
from gforest.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, main, run_checks
from gforest.ring import BivarPoly
from gforest.series import TruncSeries

ROW_4_2 = "q^4+4q^3+10q^2+12q+6"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_known_row(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "4", "--k", "2")
    assert code == EXIT_OK
    assert out.strip() == ROW_4_2


def test_coeff_plabic_and_zero_helicity(capsys):
    code, out, _ = run(capsys, "--order", "6", "coeff", "--n", "4", "--k", "2", "--kind", "plabic-forest")
    assert code == EXIT_OK
    assert out.strip() == "4q^3+10q^2+12q+6"  # q-degree 3: no generic vertices
    code, out, _ = run(capsys, "--order", "6", "coeff", "--n", "5", "--k", "0")
    assert out.strip() == "1"


def test_coeff_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "--order", "6", "coeff", "--n", "9", "--k", "2")
    assert code == EXIT_CONFIG and "order" in err
    code, _, err = run(capsys, "coeff", "--n", "3", "--k", "4")
    assert code == EXIT_CONFIG


def test_coeff_rejects_nonpositive_n(capsys):
    code, out, err = run(capsys, "coeff", "--n", "0", "--k", "0")
    assert code == EXIT_CONFIG and "--n >= 1" in err and out == ""


def test_the_environment_does_not_set_the_order(capsys, monkeypatch):
    # An old GFOREST_ORDER setting changes neither the CLI nor the library.
    monkeypatch.setenv("GFOREST_ORDER", "3")
    code, out, _ = run(capsys, "coeff", "--n", "4", "--k", "2")
    assert code == EXIT_OK and out.strip() == ROW_4_2
    assert genfun.coefficient_poly(genfun.GFKind.GRASS_FOREST, 4, 2).to_text() == ROW_4_2
    with pytest.raises(ValueError, match="exceeds working order 14"):
        genfun.coefficient_poly(genfun.GFKind.GRASS_FOREST, 15, 2)


def test_table_text_matches_reference(capsys):
    code, out, _ = run(capsys, "table", "--n-min", "4", "--n-max", "12")
    assert code == EXIT_OK
    assert out == cli.reference_table_text()


def test_table_is_deterministic(capsys):
    first = run(capsys, "--order", "6", "table", "--n-max", "6")
    second = run(capsys, "--order", "6", "table", "--n-max", "6")
    assert first == second


def test_table_latex_single_row(capsys):
    code, out, _ = run(capsys, "--order", "5", "table", "--n-min", "4", "--n-max", "4",
                       "--format", "latex-table")
    assert code == EXIT_OK
    assert "$(4,2)$ & $q^4+4 q^3+10 q^2+12 q+6$ \\\\" in out


def test_table_csv_long_format(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "--order", "5", "table", "--n-min", "4", "--n-max", "5",
                     "--format", "csv", "--out", str(path))
    assert code == EXIT_OK
    text = path.read_bytes().decode("utf-8")
    assert "\r\n" in text  # RFC 4180 line endings
    lines = text.split("\r\n")
    assert lines[0] == "n,k,r,count"
    assert "4,2,4,1" in lines and "5,2,0,10" in lines
    data = [l.split(",") for l in lines[1:] if l]
    assert all(all(col.lstrip("-").isdigit() for col in row) for row in data)
    assert len(data) == 5 + 7


def test_table_json_format(capsys):
    code, out, _ = run(capsys, "--order", "5", "table", "--n-min", "4", "--n-max", "4",
                       "--format", "json")
    rows = json.loads(out)
    assert rows[0]["n"] == 4 and rows[0]["k"] == 2
    assert rows[0]["coefficients"][0] == {"dy": 0, "dq": 4, "num": 1, "den": 1}


def _json_dumps_rows(rows):
    data = [
        {
            "n": n,
            "k": k,
            "coefficients": [
                {"dy": 0, "dq": dq, "num": c, "den": 1} for dq, c in terms
            ],
        }
        for n, k, terms in rows
    ]
    return json.dumps(data, indent=1)


@pytest.mark.parametrize("kind", list(genfun.GFKind))
def test_table_json_is_the_json_dumps_layout(kind):
    ranges = [(n, n) for n in range(1, 15)] + [(1, 14), (1, 3)]
    for n_min, n_max in ranges:
        rows = list(cli._table_rows(n_min, n_max, kind))
        got = cli.render_table(n_min, n_max, kind, "json", 14)
        assert got == _json_dumps_rows(rows) + "\n", (n_min, n_max)
    assert cli.render_table(1, 3, kind, "json", 14) == "[]\n"


def test_json_writer_on_hand_made_rows():
    rows = [
        (3, 2, []),
        (4, 2, [(2, -7), (0, 1)]),
        (5, 1, [(3, -5), (1, 3**50)]),
    ]
    for i in range(len(rows)):
        assert cli._json_rows(rows[i : i + 1]) == _json_dumps_rows(rows[i : i + 1])
    assert cli._json_rows(rows) == _json_dumps_rows(rows)
    assert cli._json_rows([]) == _json_dumps_rows([]) == "[]"


def test_csv_writer_on_hand_made_rows():
    rows = [
        (3, 2, []),
        (4, 2, [(2, -7), (0, 1)]),
        (5, 1, [(3, -5), (1, 3**50)]),
    ]

    def csv_writer(rows):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(["n", "k", "r", "count"])
        writer.writerows((n, k, dq, c) for n, k, terms in rows for dq, c in terms)
        return out.getvalue()

    for i in range(len(rows)):
        assert cli._csv_rows(rows[i : i + 1]) == csv_writer(rows[i : i + 1])
    assert cli._csv_rows(rows) == csv_writer(rows)
    assert cli._csv_rows([]) == csv_writer([]) == "n,k,r,count\r\n"


TABLE_SHA256 = {
    ("grass-forest", "text"): "d1d1d1219e9917d289c8a2c9302f17d8b39d9c41731ed57e716a94d241a985eb",
    ("grass-forest", "csv"): "e783bdf55531b28a686ec065e93c5bf65d87cb4119d801d7328cff70fb92b5e0",
    ("grass-forest", "json"): "19c3c5c439a00cd5e36fc136473d0220bea792f294020e5948bcd3939259fc9e",
    ("grass-forest", "latex-table"): "1a0f7321a04299397a9a9e0743ea51c64c39b66db5bc87d35161485dbfda413c",
    ("grass-tree", "text"): "b4312f34ce21a33617dca1d557851a34dda57ed443f7222e3e546ad0301fa593",
    ("grass-tree", "csv"): "b0c35918377b1e4b2c10150272b6d37272dc656d31ae8bcddf8c1902bd7c812a",
    ("grass-tree", "json"): "6bbee1b64e365d1f1f4e46bda9917429fee0851f7eb9a02c99b62bd57c5775b6",
    ("grass-tree", "latex-table"): "009445807a17c0eaefb0efd56fc810b16ab1d0844eefe4d06d0cc54b484782f3",
    ("plabic-forest", "text"): "e3aba0caf0a4342d628e08bcfb5c7530c15640e13d95f0a692600a56be715b4c",
    ("plabic-forest", "csv"): "d6755e46e78306c4998cc239cb924b1b4b00cffdc9f56684f4711366c344cf8a",
    ("plabic-forest", "json"): "5dbfeb8c3e1437fd3d9b7a701c544ed2f763efa1abb8ecda478bb52b6e1105bb",
    ("plabic-forest", "latex-table"): "44eb4d06be87c90d8a678334d74ad20db9f96b957a7db3738ce015f0c29fdd8b",
    ("plabic-tree", "text"): "2771555a21df3477025a3bb965f64ca60ed551426f4b10b9c9768d8fc0ebedc1",
    ("plabic-tree", "csv"): "1e7b597ef84561377332a4087a94bc5c41a3946640ec2ce0c3639c48e19f6bff",
    ("plabic-tree", "json"): "1ffb56f04fb92770bf03b4acbf0157ae9fe5cf59630534ec57a614384866fe36",
    ("plabic-tree", "latex-table"): "6aac6319174a475f7be795f7b5cb8c140b9e9a6151ae4f482c1306b7fd55d217",
}
CHECK_SHA256 = "ebe86f89e26ddb40a2c11332db33fd79aa3903db9b59720db4a5c92e673971aa"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 over every single-row render_table(n, n, kind, fmt, 16), n = 1 .. 16,
# concatenated in GFKind order, then FORMATS order, then n: gf-bulk's renders.
SINGLE_ROWS_SHA256 = "d00b8d0324dd941695d1e071139ba6ed509c64e7916508ffe5ec904d5e753ebd"


def test_single_row_tables_to_x16_are_pinned():
    digest = hashlib.sha256()
    for kind in genfun.GFKind:
        for fmt in cli.FORMATS:
            for n in range(1, 17):
                digest.update(cli.render_table(n, n, kind, fmt, 16).encode("utf-8"))
    assert digest.hexdigest() == SINGLE_ROWS_SHA256


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "terms, message",
    [
        ({(2, 1): 1, (1, 0): -2}, "[x^4 y^1 q^0] = -2 is negative"),
        ({(2, 0): 1, (5, 1): 3}, "y-degree 5 exceeds n = 4"),
        ({(5, 0): 1, (2, 1): -1}, "y-degree 5 exceeds n = 4"),
    ],
)
def test_render_table_validates_each_coefficient(monkeypatch, fmt, terms, message):
    bad = TruncSeries([0, 0, 0, 0, BivarPoly(terms)], 4)
    with pytest.raises(genfun.IntegralityViolation) as info:
        genfun.extract_counts(bad, 4)
    assert str(info.value) == message
    monkeypatch.setattr(genfun, "series_for", lambda kind, order: bad)
    for n_min in (1, 4):
        with pytest.raises(genfun.IntegralityViolation) as info:
            cli.render_table(n_min, 4, genfun.GFKind.GRASS_FOREST, fmt, 4)
        assert str(info.value) == message


def test_tables_to_x14_are_pinned():
    got = {
        (kind.value, fmt): _sha256(cli.render_table(1, 14, kind, fmt, 14))
        for kind in genfun.GFKind
        for fmt in cli.FORMATS
    }
    assert got == TABLE_SHA256


def test_check_output_at_the_defaults_is_pinned(capsys):
    code, out, _ = run(capsys, "check")
    assert code == EXIT_OK and _sha256(out) == CHECK_SHA256


PERMS_SHA256 = {
    ("separable", "8", "descents"): "7b7d807aa4c521e636c02cb0abacb5b5862d9e98906b555bf86dd58b5791117b",
    ("separable", "8", "antiexcedances"): "747887f0bbb7d69f2690d78666ad3cc7d0ba317ebd15aa04a0a793c28e7c207a",
    ("grass-tree", "7", "descents"): "dbc983ad7825c6cd43325e25db0fd0f09c0cae9d5ed2cbd26c5ec1dda8812bdc",
    ("grass-tree", "7", "antiexcedances"): "53448752532733890dd77770eb8740240fd191e79c0fd9d05d02f3b410f34bca",
    ("grass-forest", "7", "descents"): "453e6ec3f1b96ebc6e7aa46b65d77619e57c9f7cb28e559e35e9934cc92cdfa8",
    ("grass-forest", "7", "antiexcedances"): "274a9ee331bbb712fc637a93e1fc7c6f33c144cfd578523c39bc1dc327b7357f",
    ("grass-tree", "8", "descents"): "262bef4c1e4bbb4e5697bcf499a139dfd06479450451e625b7370fd301730335",
    ("grass-tree", "8", "antiexcedances"): "3ca624cd43eeb8e61e86bde7cd82e817d37cf61c465aec60e000cdbcd6a9fb31",
    ("grass-forest", "8", "descents"): "74ac0d62f98eb19d9ca62484629730471e7be5ae9bc8f0a9e8c5bf1d27db7881",
    ("grass-forest", "8", "antiexcedances"): "3f4c2349d713a818035f50b47fa46233b3d5bd86e0cede1aec90e7e32bf182fe",
}
EXTENDED = os.environ.get("GFOREST_EXTENDED") == "1"


@pytest.mark.parametrize(
    "family, n, by",
    [
        pytest.param(
            *key,
            marks=pytest.mark.skipif(
                key[0] != "separable" and key[1] == "8" and not EXTENDED,
                reason="set GFOREST_EXTENDED=1",
            ),
        )
        for key in sorted(PERMS_SHA256)
    ],
)
def test_perms_output_is_pinned(capsys, family, n, by):
    code, out, _ = run(capsys, "perms", "--family", family, "--n", n, "--by", by)
    assert code == EXIT_OK and _sha256(out) == PERMS_SHA256[family, n, by]


def test_table_order_guard(capsys):
    code, _, err = run(capsys, "--order", "6", "table", "--n-max", "8")
    assert code == EXIT_CONFIG and "order" in err


def test_euler_subcommand(capsys):
    code, out, _ = run(capsys, "euler", "--n", "12", "--k", "6")
    assert code == EXIT_OK and out.strip() == "1"
    code, _, err = run(capsys, "euler", "--n", "4", "--k", "3")
    assert code == EXIT_CONFIG


def test_euler_respects_order_cap(capsys):
    code, out, err = run(capsys, "--order", "3", "euler", "--n", "9", "--k", "3")
    assert code == EXIT_CONFIG and "order" in err and out == ""
    code, out, err = run(capsys, "euler", "--n", "30", "--k", "3")
    assert code == EXIT_CONFIG and "order" in err and out == ""


def test_relations_subcommand(capsys):
    code, out, _ = run(capsys, "--order", "8", "relations", "--kind", "grass-forest")
    assert code == EXIT_OK and out == "grass-forest: residual is 0 through x^8\n"
    code, out, _ = run(capsys, "relations")  # through the default working order
    want = f"grass-forest: residual is 0 through x^{genfun.DEFAULT_ORDER}\n"
    assert (code, out) == (EXIT_OK, want)


def test_relations_respects_order_cap(capsys):
    code, out, err = run(capsys, "--order", "5", "relations")
    assert (code, out, err) == (EXIT_CONFIG, "", "error: --order must be >= 6\n")
    code, out, _ = run(capsys, "--order", "6", "relations")
    assert code == EXIT_OK and "residual is 0 through x^6" in out


def test_perms_subcommands(capsys):
    code, out, _ = run(capsys, "perms", "--family", "separable", "--n", "4")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "total 22"
    code, out, _ = run(capsys, "perms", "--family", "grass-tree", "--n", "3",
                       "--by", "antiexcedances")
    assert out.splitlines() == ["1 1", "2 1", "total 2"]
    code, out, _ = run(capsys, "perms", "--family", "grass-forest", "--n", "2",
                       "--by", "antiexcedances")
    # edge tree plus the four decorated leaf pairs
    assert out.splitlines() == ["0 1", "1 3", "2 1", "total 5"]


@pytest.mark.parametrize("family", ["separable", "grass-tree", "grass-forest"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_perms_rejects_nonpositive_n(capsys, family, n):
    code, out, err = run(capsys, "perms", "--family", family, "--n", n)
    assert code == EXIT_CONFIG and "--n" in err and out == ""


def test_perms_budget_is_config_error(capsys):
    code, _, err = run(capsys, "perms", "--family", "separable", "--n", "11")
    assert code == EXIT_CONFIG
    assert "would hold 1296281 permutations through n = 11, over the budget of 1000000" in err


def test_perms_over_budget_n_leaves_the_out_file_alone(capsys, tmp_path):
    path = tmp_path / "perms.txt"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, "perms", "--family", "separable", "--n", "11", "--out", str(path))
    assert code == EXIT_CONFIG and out == ""
    assert "would hold 1296281 permutations through n = 11, over the budget of 1000000" in err
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "family, n, size",
    [
        ("grass-tree", "11", 2662953),
        ("grass-forest", "10", 7366079),
        ("grass-forest", "15", None),
        ("separable", "11", 1296281),
    ],
)
def test_perms_refuses_an_oversized_closure_before_it_starts(
    capsys, monkeypatch, tmp_path, family, n, size
):
    def never(*args, **kwargs):
        raise AssertionError("a closure was started")

    monkeypatch.setattr(cli.perms, "grass_tree_permutation_sets", never)
    monkeypatch.setattr(cli.perms, "grass_forest_permutation_sets", never)
    monkeypatch.setattr(cli.perms, "separable_permutation_sets", never)
    path = tmp_path / "perms.txt"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, "perms", "--family", family, "--n", n, "--out", str(path))
    assert code == EXIT_CONFIG and out == "" and err.startswith("error: ")
    assert path.read_bytes() == b"kept\n"
    if size is None:
        assert "exceeds working order 14" in err
    else:
        assert f"would hold {size} permutations through n = {n}, over the budget of 1000000" in err


def test_perms_refuses_a_far_oversized_closure_from_a_short_series(
    capsys, monkeypatch, tmp_path
):
    def never(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(cli.genfun, "series_for", never)
    path = tmp_path / "perms.txt"
    path.write_bytes(b"kept\n")
    argv = ["perms", "--family", "grass-forest", "--n", "50", "--out", str(path)]
    code, out, err = run(capsys, "--order", "64", *argv)
    assert code == EXIT_CONFIG and out == "" and path.read_bytes() == b"kept\n"
    assert err == (
        "error: the grass-forest family would hold 7366079 permutations through n = 10, "
        "over the budget of 1000000, so --n 50 cannot be built\n"
    )


@pytest.mark.parametrize(
    "family, m, size",
    [("grass-tree", 6, 238), ("grass-forest", 5, 414), ("separable", 5, 121)],
)
def test_perms_refuses_at_the_first_size_over_the_budget(
    capsys, monkeypatch, tmp_path, family, m, size
):
    def never(*args, **kwargs):
        raise AssertionError("a closure was started")

    monkeypatch.setattr(cli.perms, "CLOSURE_BUDGET", 100)
    monkeypatch.setattr(cli.perms, family.replace("-", "_") + "_permutation_sets", never)
    path = tmp_path / "perms.txt"
    path.write_bytes(b"kept\n")
    argv = ["perms", "--family", family, "--n", "9", "--out", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG and out == "" and path.read_bytes() == b"kept\n"
    assert err == (
        f"error: the {family} family would hold {size} permutations through n = {m}, "
        "over the budget of 100, so --n 9 cannot be built\n"
    )


def test_separable_perms_obey_the_order_cap_first(capsys, monkeypatch, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("permutations were enumerated")

    monkeypatch.setattr(cli.perms, "separable_permutation_sets", never)
    path = tmp_path / "perms.txt"
    path.write_bytes(b"kept\n")
    argv = ["perms", "--family", "separable", "--n", "9", "--out", str(path)]
    code, out, err = run(capsys, "--order", "5", *argv)
    assert code == EXIT_CONFIG and "n = 9 exceeds working order 5" in err and out == ""
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--budget", "5"],
        ["perms", "--family", "separable", "--n", "4", "--budget-n", "5"],
        ["relations", "--order", "12"],
    ],
    ids=["check --budget", "perms --budget-n", "relations --order"],
)
def test_removed_size_options_are_unknown_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_passes_by_default(capsys):
    code, out, _ = run(capsys, "--order", "8", "check", "--oracle-max-n", "5")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_check_skips_oracle_checks_at_oracle_max_n_zero(capsys):
    code, out, _ = run(capsys, "--order", "6", "check", "--oracle-max-n", "0")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    skipped = {"oracle-equivalence", "antiexcedance-helicity", "tree-permutation-closure"}
    for line in lines[:-1]:
        verdict, name = line.split(":")[0].split()
        assert verdict == ("SKIP" if name in skipped else "PASS"), line
    assert lines[-1] == "checks passed, 3 skipped"


def test_check_compares_the_oracle_only_within_the_order_cap(capsys, monkeypatch):
    asked = []
    original = oracle.count_by_statistics

    def counting(n, kind, **kw):
        asked.append(n)
        return original(n, kind, **kw)

    monkeypatch.setattr(oracle, "count_by_statistics", counting)
    code, out, _ = run(capsys, "--order", "3", "check", "--oracle-max-n", "6")
    assert code == EXIT_OK and "PASS oracle-equivalence" in out
    assert max(asked) == 3


@pytest.mark.parametrize("flag, value", [("--oracle-max-n", "-1")])
def test_check_rejects_bad_arguments_before_computing(capsys, monkeypatch, flag, value):
    def never(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(genfun, "series_for", never)
    code, out, err = run(capsys, "check", flag, value)
    assert code == EXIT_CONFIG and flag in err and out == ""


def test_render_table_rejects_an_unknown_format_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(genfun, "series_for", never)
    with pytest.raises(cli.ConfigError, match="unknown format 'xml'"):
        cli.render_table(4, 6, genfun.GFKind.GRASS_FOREST, "xml", 14)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("n_min, n_max", [(-1, 5), (0, 5), (6, 3), (2, 1)])
def test_render_table_rejects_a_bad_row_range_before_building(monkeypatch, fmt, n_min, n_max):
    def never(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(genfun, "series_for", never)
    with pytest.raises(cli.ConfigError, match=r"need 1 <= --n-min <= --n-max"):
        cli.render_table(n_min, n_max, genfun.GFKind.GRASS_FOREST, fmt, 14)


def test_table_refuses_a_bad_row_range_before_opening_out(capsys, monkeypatch, tmp_path):
    def never(*args):
        raise AssertionError("a series was built")

    monkeypatch.setattr(genfun, "series_for", never)
    out_file = tmp_path / "table.txt"
    for n_min, n_max in [("-1", "5"), ("6", "3")]:
        code, out, err = run(capsys, "table", "--n-min", n_min, "--n-max", n_max,
                             "--out", str(out_file))
        assert code == EXIT_CONFIG and "--n-min" in err and out == ""
        assert not out_file.exists()


def test_check_compares_the_oracle_up_to_the_order_cap(capsys):
    # The oracle multiplies component histograms, so n = 14 is cheap.
    code, out, _ = run(capsys, "check", "--oracle-max-n", "14")
    assert code == EXIT_OK and _sha256(out) == CHECK_SHA256
    lines = out.splitlines()
    assert len(lines) == 11 and all(line.startswith("PASS ") for line in lines[:-1])


def test_check_writes_the_same_lines_to_a_file(capsys, tmp_path):
    path = tmp_path / "check.txt"
    code, out, _ = run(capsys, "--order", "6", "check", "--oracle-max-n", "0", "--out", str(path))
    assert code == EXIT_OK and out == ""
    _, want, _ = run(capsys, "--order", "6", "check", "--oracle-max-n", "0")
    assert path.read_text(encoding="utf-8") == want


RELATIONS = {f"relation-{kind.value}" for kind in genfun.GFKind}


@pytest.mark.parametrize(
    "order, skipped",
    [("5", RELATIONS), ("3", RELATIONS | {"reference-table", "euler-characteristic"})],
)
def test_check_skips_checks_the_order_leaves_empty(capsys, order, skipped):
    code, out, _ = run(capsys, "--order", order, "check", "--oracle-max-n", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        verdict, name = line.split(":")[0].split()
        assert verdict == ("SKIP" if name in skipped else "PASS"), line
    assert lines[-1] == f"checks passed, {len(skipped)} skipped"


@pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        ["coeff", "--n", "4", "--k", "2"],
        ["euler", "--n", "6", "--k", "3"],
        ["relations"],
        ["perms", "--family", "separable", "--n", "4"],
        ["check"],
    ],
)
def test_unwritable_out_is_config_error_before_computing(capsys, monkeypatch, tmp_path, argv):
    def never(*args, **kwargs):
        raise AssertionError("the computation ran")

    monkeypatch.setattr(genfun, "series_for", never)
    monkeypatch.setattr(cli.perms, "separable_permutation_sets", never)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))  # a directory
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


def test_library_value_error_is_not_a_config_error(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(genfun, "coefficient_poly", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["coeff", "--n", "4", "--k", "2"])


def test_check_reports_injected_mom_dimension_bug(capsys, monkeypatch):
    # An off-by-one in the per-vertex dimension must surface at n = 3.
    original = oracle.vertex_mom_dimension
    caches = (
        oracle._subtree_hist, oracle._sequence_hist, oracle._forest_hist, oracle._block_hist
    )
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(
        oracle, "vertex_mom_dimension", lambda h, deg: original(h, deg) + 1
    )
    try:
        results = {name: (ok, detail) for name, ok, detail in run_checks(4, 6)}
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    ok, detail = results["oracle-equivalence"]
    assert not ok
    assert "(n,k,r)=(3," in detail


CHECK_NAMES = [
    "reference-table",
    "lagrange-dual-path",
    "oracle-equivalence",
    "euler-characteristic",
    *(f"relation-{kind.value}" for kind in genfun.GFKind),
    "antiexcedance-helicity",
    "tree-permutation-closure",
]


def test_verdict_rule():
    assert cli._verdict("c", "why", []) == ("c", None, "why")
    assert cli._verdict("c", "why", [None]) == ("c", True, "")
    assert cli._verdict("c", "why", [None, None]) == ("c", True, "")

    def mismatch_then_raise():
        yield None
        yield "first"
        raise AssertionError("the stream was read past its first mismatch")

    assert cli._verdict("c", "why", mismatch_then_raise()) == ("c", False, "first")


def test_verdict_fails_on_an_integrality_violation_and_on_nothing_else():
    def raising(exc):
        yield None
        raise exc

    violation = genfun.IntegralityViolation("[x^5 y^1 q^0] = -2 is negative")
    assert cli._verdict("c", "why", raising(violation)) == ("c", False, str(violation))
    with pytest.raises(ValueError, match="internal bug"):
        cli._verdict("c", "why", raising(ValueError("internal bug")))


def _first_contracted_forest(n):
    return next(
        G
        for F in oracle.enumerate_forests(n)
        for G in oracle.decorate_grassmannian(F, contracted_only=True)
    )


def _relation_fault(kind):
    def fault(verify):
        return lambda k, order=12: (False, "injected residual") if k is kind else verify(k, order)

    return genfun, "verify_algebraic_relation", fault, "injected residual"


# verdict: (module, attribute, the fault made from the original, the FAIL detail)
CHECK_FAULTS = {
    "reference-table": (
        cli,
        "reference_table_text",
        lambda text: lambda: text().replace("(4,2) q^4+4q^3", "(4,2) q^4+5q^3"),
        "first differing line: got '(4,2) q^4+4q^3+10q^2+12q+6', "
        "want '(4,2) q^4+5q^3+10q^2+12q+6'",
    ),
    "lagrange-dual-path": (
        genfun,
        "forest_gf_via_lagrange",
        lambda lag: lambda kind, n, order=None: (
            {**lag(kind, n, order), (0, 0): 7} if n == 5 else lag(kind, n, order)
        ),
        "mismatch at n=5",
    ),
    "oracle-equivalence": (
        oracle,
        "count_by_statistics",
        lambda count: lambda n, kind, **kw: (
            {**count(n, kind, **kw), (9, 9): 1}
            if (n, kind) == (3, genfun.GFKind.PLABIC_FOREST)
            else count(n, kind, **kw)
        ),
        "plabic-forest first failing (n,k,r)=(3,9,9)",
    ),
    "euler-characteristic": (
        genfun,
        "euler_characteristic",
        lambda euler: lambda kind, n, k: 2 if (n, k) == (7, 3) else euler(kind, n, k),
        "(7,3) -> 2",
    ),
    **{f"relation-{kind.value}": _relation_fault(kind) for kind in genfun.GFKind},
    "antiexcedance-helicity": (
        cli.perms,
        "antiexcedances",
        lambda anti: lambda w: anti(w) + (len(w) == 3),
        f"n=3, forest {oracle.forest_to_json(_first_contracted_forest(3))}",
    ),
    "tree-permutation-closure": (
        cli.perms,
        "grass_tree_permutation_sets",
        lambda close: lambda max_n: {
            n: members - {min(members)} if n == 4 else members
            for n, members in close(max_n).items()
        },
        "n=4: closure 6 vs trips 7",
    ),
}


def test_every_verdict_has_a_fault():
    assert sorted(CHECK_FAULTS) == sorted(CHECK_NAMES)


@pytest.mark.parametrize("verdict", CHECK_NAMES)
def test_check_fails_exactly_the_faulty_verdict_and_goes_on(capsys, monkeypatch, verdict):
    module, attribute, fault, detail = CHECK_FAULTS[verdict]
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    code, out, err = run(capsys, "check")
    lines = out.splitlines()
    assert code == EXIT_MISMATCH and err == ""
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"{'FAIL' if name == verdict else 'PASS'} {name}" for name in CHECK_NAMES
    ]
    assert f"FAIL {verdict}: {detail}" in lines
    assert lines[-1] == "CHECK FAILED"


def test_check_reports_a_missing_reference_row(monkeypatch):
    original = cli.reference_table_text
    monkeypatch.setattr(cli, "reference_table_text", lambda: original().rsplit("(12,", 1)[0])
    results = {name: (ok, detail) for name, ok, detail in run_checks(0, 14)}
    assert results["reference-table"] == (False, "row counts differ")


def test_check_reports_an_integrality_violation_as_a_fail_line(capsys, monkeypatch):
    original = genfun.extract_counts
    negative = TruncSeries([0, 0, 0, 0, 0, BivarPoly({(1, 0): -2})], 5)

    def corrupted(series, n):
        return original(negative if n == 5 else series, n)

    monkeypatch.setattr(genfun, "extract_counts", corrupted)
    code, out, err = run(capsys, "check")
    lines = out.splitlines()
    assert code == EXIT_MISMATCH and err == ""
    failed = {"lagrange-dual-path", "oracle-equivalence"}
    assert lines[:-1] == [
        f"FAIL {name}: [x^5 y^1 q^0] = -2 is negative" if name in failed else f"PASS {name}"
        for name in CHECK_NAMES
    ]
    assert lines[-1] == "CHECK FAILED"


def test_euler_exits_1_on_a_mismatch(capsys, monkeypatch):
    module, attribute, fault, _ = CHECK_FAULTS["euler-characteristic"]
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    assert run(capsys, "euler", "--n", "7", "--k", "3") == (EXIT_MISMATCH, "2\n", "")
    assert run(capsys, "euler", "--n", "7", "--k", "2") == (EXIT_OK, "1\n", "")


@pytest.mark.parametrize("kind", list(genfun.GFKind))
def test_relations_exits_1_on_a_mismatch(capsys, monkeypatch, kind):
    module, attribute, fault, detail = CHECK_FAULTS[f"relation-{kind.value}"]
    monkeypatch.setattr(module, attribute, fault(getattr(module, attribute)))
    code, out, err = run(capsys, "--order", "8", "relations", "--kind", kind.value)
    assert (code, out, err) == (EXIT_MISMATCH, detail + "\n", "")


# sha256 over the stdout of `--order o check --oracle-max-n m` for each o, then
# each m, in the order below: every SKIP line, which CHECK_SHA256 never sees.
CHECK_GRID_SHA256 = "9060fb131d05f92ec51151c04ef822cfa7375d66c2c29d55207c8937621dc44c"


def test_check_output_over_the_size_grid_is_pinned(capsys):
    digest = hashlib.sha256()
    for order in (1, 2, 3, 4, 5, 6, 7, 12, 14):
        for oracle_max_n in (0, 1, 3, 6):
            code, out, _ = run(
                capsys, "--order", str(order), "check", "--oracle-max-n", str(oracle_max_n)
            )
            assert code == EXIT_OK, (order, oracle_max_n)
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == CHECK_GRID_SHA256


def _readme_commands():
    """The argument lists of the `gforest` lines in README's Command line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("gforest ")
    ]
    assert commands, "no gforest lines in README's Command line block"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(capsys, tmp_path, argv):
    argv = [str(tmp_path / a) if b == "--out" else a for b, a in zip([None, *argv], argv)]
    assert main(argv) == EXIT_OK, capsys.readouterr().err


def test_exit_code_contract_documented_values():
    assert (EXIT_OK, EXIT_MISMATCH, EXIT_CONFIG) == (0, 1, 2)
