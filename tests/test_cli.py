"""End-to-end CLI behaviour via in-process main() calls."""

import hashlib
import json
import os
import stat

import pytest

from conftest import find_entry
from homolink.cli import (
    EXIT_CAP,
    EXIT_DISCONNECTED,
    EXIT_INHOMOGENEOUS,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNVERIFIED,
    main,
)
from homolink.enumeration import bound_p
from homolink.reference import entry_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_trefoil_text(capsys):
    code, out, _ = run(capsys, "analyze", "1 1 1")
    assert code == EXIT_OK
    assert "homogeneous: True" in out
    assert "conway degree: 2, leading coefficient +1" in out
    assert "genus: 1" in out
    assert "routes agree: True" in out
    assert "z^2 + 1" in out


def test_analyze_empty_word_is_unknot(capsys):
    code, out, _ = run(capsys, "analyze", "")
    assert code == EXIT_OK
    assert "components: 1" in out
    assert "conway degree: 0" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "1 -2 1 -2", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["homogeneous"] is True
    assert data["degree"] == 2
    assert data["leading_coefficient"] == -1
    assert data["routes_agree"] is True
    assert data["conway_skein"]["coeffs"] == {"0": 1, "2": -1}
    assert data["alexander"]["coeffs"] == {"-2": -1, "0": 3, "2": -1}
    assert data["genus"] == 1
    assert data["q"] == [2, 2] and data["alpha"] == [1, -1]


def test_analyze_weak_word_normalizes(capsys):
    code, out, _ = run(capsys, "analyze", "1 1 2", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["weak_indices"] == [2]
    assert data["normalized"] == {"n": 2, "word": [1, 1]}
    assert data["degree"] == 1


def test_analyze_inhomogeneous_still_reports_alexander(capsys):
    code, out, _ = run(capsys, "analyze", "1 1 1 -2 -1 -1 -1 -2")
    assert code == EXIT_OK
    assert "not homogeneous" in out
    assert "alexander" in out


def test_analyze_checks_burau_alexander_against_seifert(monkeypatch):
    # on a homogeneous word the printed Alexander comes from Burau and is
    # held equal to the Seifert route's, from the same symmetrized
    # determinant as the printed Seifert Conway
    from homolink.polynomials import LaurentPolynomial
    monkeypatch.setattr("homolink.cli.alexander_via_burau",
                        lambda w: LaurentPolynomial.from_dict({0: 1}))
    with pytest.raises(RuntimeError, match=r"failed on 1 1 1 on 2 strands: "
                                           r"burau \{0: 1\} != seifert \{"):
        main(["analyze", "1 1 1"])


def test_analyze_checks_degree_formula_against_seifert(monkeypatch):
    # the printed degree line comes from the word formula and is held
    # equal to the degree and leading coefficient of the Seifert Conway
    monkeypatch.setattr("homolink.cli.degree_and_leading", lambda w: (2, -1))
    with pytest.raises(RuntimeError, match=r"degree cross-check failed on "
                                           r"1 1 1 on 2 strands: formula "
                                           r"\(2, -1\) != seifert \(2, \+1\)"):
        main(["analyze", "1 1 1"])


def test_analyze_jones_cap(capsys):
    code, out, _ = run(capsys, "analyze", " ".join(["1"] * 17))
    assert code == EXIT_OK
    assert "jones: skipped (length over cap 16)" in out


def test_analyze_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "1 x 2")
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_analyze_disconnected(capsys):
    code, _, err = run(capsys, "analyze", "1 1", "--strands", "4")
    assert code == EXIT_DISCONNECTED
    assert "factors" in err


def test_monodromy_trefoil(capsys):
    code, out, _ = run(capsys, "monodromy", "1 1 1")
    assert code == EXIT_OK
    assert "loop (1,1) sign +1" in out
    assert "loop (1,2) sign +1" in out
    assert "char poly matches alexander up to unit: True" in out
    assert "twist route equals seifert route: True" in out


def test_monodromy_json(capsys):
    code, out, _ = run(capsys, "monodromy", "1 -2 1 -2", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["twists"] == [{"loop": [1, 1], "sign": 1},
                              {"loop": [2, 1], "sign": -1}]
    assert len(data["homology_matrix"]) == 2
    assert data["alexander_match"] is True
    assert data["form_preserved"] is True
    assert data["routes_agree"] is True


def test_monodromy_torus_order_line(capsys):
    code, out, _ = run(capsys, "monodromy", "1 1")
    assert code == EXIT_OK
    assert "order bound lcm(2,q): 2, computed homology order: 1" in out
    code, out, _ = run(capsys, "monodromy", "1 1 1")
    assert "order bound lcm(2,q): 6, computed homology order: 6" in out


def test_monodromy_normalizes_weak_words(capsys):
    code, out, _ = run(capsys, "monodromy", "1 1 2")
    assert code == EXIT_OK
    assert "normalized to [1 1] on 2 strands" in out


def test_commands_build_each_object_once(monkeypatch, capsys):
    from collections import Counter

    from homolink import cli, enumeration, jones, monodromy, reference
    calls = Counter()
    for mod in (cli, enumeration, jones, monodromy, reference):
        for name in ("build_surface", "seifert_matrix", "twist_sequence",
                     "jones_kauffman", "jones_polynomial"):
            fn = getattr(mod, name, None)
            if fn is not None:
                def counted(*args, _fn=fn, _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(mod, name, counted)
    assert run(capsys, "monodromy", "1 -2 1 -2")[0] == EXIT_OK
    assert calls == {"build_surface": 1, "seifert_matrix": 1,
                     "twist_sequence": 1}
    calls.clear()
    assert run(capsys, "analyze", "1 -2 1 -2")[0] == EXIT_OK
    assert calls["jones_polynomial"] == 1
    assert calls["jones_kauffman"] == 0
    calls.clear()
    assert run(capsys, "enumerate", "--degree", "2")[0] == EXIT_OK
    assert calls["jones_polynomial"] > 0
    assert calls["jones_kauffman"] == 0


def test_monodromy_error_codes(capsys):
    code, _, err = run(capsys, "monodromy", "1 -1")
    assert code == EXIT_INHOMOGENEOUS
    code, _, err = run(capsys, "monodromy", "1 1", "--strands", "3")
    assert code == EXIT_DISCONNECTED
    code, _, _ = run(capsys, "monodromy", "nope")
    assert code == EXIT_PARSE


def test_enumerate_degree_one_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "1",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == 1
    assert [c["matched"] for c in data["classes"]] == ["hopf"]


def test_enumerate_degree_two_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "2")
    assert code == EXIT_OK
    assert "degree 2: 3 classes" in out
    assert "3_1" in out and "4_1" in out and "chain_3" in out
    assert "note:" in out


def test_enumerate_genus_one_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "1")
    assert code == EXIT_OK
    assert "genus 1 (knots): 2 classes" in out


def test_enumerate_cap(capsys):
    # genus g is Conway degree 2g, and the cap reads the Conway degree
    for flag, value, degree in (("--degree", 6, 6), ("--degree", 9, 9),
                                ("--genus", 3, 6), ("--genus", 4, 8),
                                ("--genus", 6, 12)):
        code, out, err = run(capsys, "enumerate", flag, str(value))
        assert code == EXIT_CAP
        assert out == ""
        assert err == f"cap exceeded: Conway degree {degree} exceeds cap 5\n"


@pytest.mark.parametrize("mode, digest", [
    ("--degree",
     "f86e6791b3eb558a21af84c7a7c6ccef65b5ee2d46e41c2c14f2d2c9b23f873e"),
    ("--genus",
     "dd5d385a517b2549947b5a41ce9f1e71110800a95f502e6c9c3e0a493e010dd0"),
])
def test_enumerate_json_golden(capsys, mode, digest):
    # The full degree-4 / genus-2 reports, pinned byte for byte: any change
    # to orbit generation, reduction or representative choice shows here.
    param = "4" if mode == "--degree" else "2"
    code, out, _ = run(capsys, "enumerate", mode, param, "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_enumerate_degree_five_text_golden(capsys):
    # the largest space under the cap, pinned byte for byte
    code, out, _ = run(capsys, "enumerate", "--degree", "5")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "75a98e64db8976ad1c93cfbd96b70cd1c4d5821574b268f46e613693a3f7df09")


def test_enumerate_writes_files(tmp_path, capsys):
    jp = tmp_path / "report.json"
    cp = tmp_path / "report.csv"
    code, out, _ = run(capsys, "enumerate", "--degree", "1",
                       "--json", str(jp), "--csv", str(cp),
                       "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("class_index,")
    data = json.loads(jp.read_text(encoding="utf-8"))
    assert data["classes"][0]["matched"] == "hopf"
    assert cp.read_text(encoding="utf-8") == out


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_reports_get_the_umask_mode_or_keep_the_replaced_one(tmp_path, capsys,
                                                             umask_022):
    table = tmp_path / "t.jsonl"
    table.write_text(json.dumps(entry_to_json(find_entry("hopf"))) + "\n",
                     encoding="utf-8")
    jp, cp, out = (tmp_path / "r.json", tmp_path / "r.csv",
                   tmp_path / "t.jsonl.verified")
    argvs = (["enumerate", "--degree", "1", "--json", str(jp), "--csv",
              str(cp)], ["verify-table", str(table)])

    def modes():
        return [stat.S_IMODE(p.stat().st_mode) for p in (jp, cp, out)]

    for argv in argvs:  # new files: 0o666 & ~0o022, not mkstemp's 0o600
        assert run(capsys, *argv)[0] == EXIT_OK
    assert modes() == [0o644] * 3
    for p, mode in zip((jp, cp, out), (0o640, 0o604, 0o664)):
        p.chmod(mode)
    for argv in argvs:  # replaced files keep their own modes
        assert run(capsys, *argv)[0] == EXIT_OK
    assert modes() == [0o640, 0o604, 0o664]


@pytest.mark.parametrize("blocker", ["missing", "directory"])
@pytest.mark.parametrize("output", ["verify-out", "enumerate-json",
                                    "enumerate-csv"])
def test_unwritable_output_is_one_line_and_exit_2(tmp_path, capsys,
                                                  output, blocker):
    table = tmp_path / "t.jsonl"
    table.write_text(json.dumps(entry_to_json(find_entry("hopf"))) + "\n",
                     encoding="utf-8")
    if blocker == "missing":
        target = tmp_path / "nope" / "x"
    else:
        # the temp file is made, then cannot replace a directory
        target = tmp_path / "dir"
        target.mkdir()
    argv = {"verify-out": ["verify-table", str(table), "--out", str(target)],
            "enumerate-json": ["enumerate", "--degree", "1",
                               "--json", str(target)],
            "enumerate-csv": ["enumerate", "--degree", "1",
                              "--csv", str(target)]}[output]
    before = sorted(p.name for p in tmp_path.rglob("*"))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"cannot write {target}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_disconnected_report_is_shared(capsys):
    reports = [run(capsys, cmd, "1 -2 1", "--strands", "5")
               for cmd in ("analyze", "monodromy")]
    assert reports[0] == reports[1]
    code, out, err = reports[0]
    assert code == EXIT_DISCONNECTED and out == ""
    assert err.startswith("disconnected word; split closure with factors:\n")
    assert "  [1 -2 1] on 3 strands\n" in err


SPLIT = "disconnected word; split closure with factors:\n"


@pytest.mark.parametrize("cmd", ["analyze", "monodromy"])
@pytest.mark.parametrize("argv, code, err", [
    (("1 x 2",), EXIT_PARSE, "parse error: not an integer token: 'x'\n"),
    (("1 1", "--strands", "4"), EXIT_DISCONNECTED,
     SPLIT + "  [1 1] on 2 strands\n" + "  [] on 1 strands\n" * 2),
    # the empty word on 3 strands is a 3-component unlink, not the unknot
    (("", "--strands", "3"), EXIT_DISCONNECTED,
     SPLIT + "  [] on 1 strands\n" * 3),
    # split and inhomogeneous: refused as split by both commands
    (("1 -1 3 3", "--strands", "4"), EXIT_DISCONNECTED,
     SPLIT + "  [1 -1] on 2 strands\n  [1 1] on 2 strands\n"),
    # int() would read these as sigma_10 and as 1 1
    (("1_0 1_0",), EXIT_PARSE, "parse error: not an integer token: '1_0'\n"),
    (("\uff11 \uff11",), EXIT_PARSE,
     "parse error: not an integer token: '\uff11'\n"),
], ids=["parse", "split", "empty-on-3", "split-inhomogeneous", "underscore",
        "fullwidth"])
def test_analyze_and_monodromy_refuse_alike(capsys, cmd, argv, code, err):
    assert run(capsys, cmd, *argv) == (code, "", err)


def test_table_defect_is_one_line_and_exit_2(capsys, monkeypatch):
    from dataclasses import replace
    hopf = find_entry("hopf")
    monkeypatch.setattr("homolink.reference.load_reference_table",
                        lambda path=None: [hopf, replace(hopf, name="hopf_2")])
    assert run(capsys, "enumerate", "--degree", "1") == (
        EXIT_PARSE, "",
        "table defect: reference entries hopf and hopf_2 share a signature; "
        "fix the table before classifying\n")


def test_monodromy_inhomogeneous_names_the_word(capsys):
    code, out, err = run(capsys, "monodromy", "1 -1")
    assert code == EXIT_INHOMOGENEOUS and out == ""
    assert err == "monodromy needs a homogeneous word, got 1 -1 on 2 strands\n"


@pytest.mark.parametrize("argv, message", [
    (("enumerate", "--degree", "-1"), "--degree must be non-negative, got -1"),
    (("enumerate", "--genus", "-2", "--format", "json"),
     "--genus must be non-negative, got -2"),
    (("bounds", "--degree", "-1"), "--degree must be non-negative, got -1"),
    (("bounds", "--degree", "2", "--genus", "-1"),
     "--genus must be non-negative, got -1"),
])
def test_negative_search_parameter_is_one_line_and_exit_2(capsys, argv,
                                                          message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == message + "\n"


def test_enumerate_requires_exactly_one_mode(capsys):
    with pytest.raises(SystemExit):
        main(["enumerate", "--degree", "1", "--genus", "1"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["enumerate"])
    capsys.readouterr()


def test_verify_table_flow(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    rows = [
        json.dumps(entry_to_json(find_entry("hopf"))),
        "{\"name\": \"broken\"",
        json.dumps(entry_to_json(find_entry("3_1"))).replace(
            "[1, 1, 1]", "[1, 1, 1, 1, 1]"),
    ]
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    before = table.read_text(encoding="utf-8")

    code, out, _ = run(capsys, "verify-table", str(table))
    # a failed entry is a nonzero exit; the table is still written
    assert code == EXIT_UNVERIFIED == 1
    assert "hopf: ok" in out
    assert "line 2: malformed entry skipped" in out
    assert "3_1: FAIL" in out
    assert "verified 1, failed 1, malformed 1" in out

    # input never rewritten in place; refreshed flags land next to it
    assert table.read_text(encoding="utf-8") == before
    out_path = tmp_path / "table.jsonl.verified"
    assert out_path.exists()
    written = [json.loads(line) for line in
               out_path.read_text(encoding="utf-8").splitlines()]
    flags = {row["name"]: row["verified"] for row in written}
    assert flags == {"hopf": True, "3_1": False}


def test_verify_table_malformed_lines_exit_1(tmp_path, capsys):
    # every entry that parses verifies, but lines that never parsed were
    # never checked, so the table is not verified
    table = tmp_path / "table.jsonl"
    good = json.dumps(entry_to_json(find_entry("hopf")))
    table.write_text("\n".join([good] + ["{\"name\": \"broken\""] * 7) + "\n",
                     encoding="utf-8")
    code, out, err = run(capsys, "verify-table", str(table))
    assert code == EXIT_UNVERIFIED
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "hopf: ok (burau and seifert match published)"
    assert all(line.startswith(f"line {ln}: malformed entry skipped (")
               for ln, line in enumerate(lines[1:8], start=2))
    assert lines[8] == (f"verified 1, failed 0, malformed 7; wrote "
                        f"{table}.verified")
    written = (tmp_path / "table.jsonl.verified").read_text(encoding="utf-8")
    assert written == json.dumps(json.loads(good), sort_keys=True) + "\n"


def test_verify_table_reports_loose_exponent_keys_as_malformed(tmp_path,
                                                              capsys):
    # "02" would read as exponent 2 and overwrite the "2" term
    row = entry_to_json(find_entry("3_1"))
    row["published_alexander"]["coeffs"] = {"2": 1, "02": -1, "0": -1,
                                            "-2": 1}
    table = tmp_path / "table.jsonl"
    table.write_text(json.dumps(row) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify-table", str(table))
    assert code == EXIT_UNVERIFIED and err == ""
    lines = out.splitlines()
    assert lines[0] == ("line 1: malformed entry skipped (exponent keys must "
                        "be plain decimal integers, got '02')")
    assert lines[1].startswith("verified 0, failed 0, malformed 1; ")


def test_verify_table_reports_repeated_keys_as_malformed(tmp_path, capsys):
    # raw text: json.loads would keep the last "-2" and verify 3_1 as ok
    line = ('{"name": "3_1", "n": 2, "word": [1, 1, 1], "verified": true, '
            '"published_alexander": {"var": "t", "scale": 2, "coeffs": '
            '{"-2": 5, "-2": 1, "0": -1, "2": 1}}}')
    table = tmp_path / "table.jsonl"
    table.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify-table", str(table))
    assert code == EXIT_UNVERIFIED and err == ""
    lines = out.splitlines()
    assert lines[0] == "line 1: malformed entry skipped (repeated key '-2')"
    assert lines[1].startswith("verified 0, failed 0, malformed 1; ")


def test_verify_table_custom_out(tmp_path, capsys):
    table = tmp_path / "t.jsonl"
    table.write_text(json.dumps(entry_to_json(find_entry("unknot"))) + "\n",
                     encoding="utf-8")
    out_path = tmp_path / "checked.jsonl"
    code, out, _ = run(capsys, "verify-table", str(table),
                       "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.exists()


def test_verify_table_refuses_out_equal_to_input(tmp_path, capsys):
    table = tmp_path / "t.jsonl"
    table.write_text(json.dumps(entry_to_json(find_entry("hopf"))) + "\n"
                     + "{\"name\": \"broken\"\n", encoding="utf-8")
    before = table.read_bytes()
    same = tmp_path / "sub" / ".." / "t.jsonl"
    (tmp_path / "sub").mkdir()
    for out in (table, same):
        code, out_text, err = run(capsys, "verify-table", str(table),
                                  "--out", str(out))
        assert code == EXIT_PARSE
        assert "never rewrites its input" in err
        assert out_text == ""
        assert table.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub", "t.jsonl"]


def test_verify_table_empty_file(tmp_path, capsys):
    table = tmp_path / "empty.jsonl"
    table.write_text("", encoding="utf-8")
    code, out, _ = run(capsys, "verify-table", str(table))
    assert code == EXIT_OK
    assert "verified 0, failed 0, malformed 0" in out


def test_verify_table_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify-table", str(tmp_path / "nope.jsonl"))
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_verify_table_file_not_utf8(tmp_path, capsys):
    table = tmp_path / "utf16.jsonl"
    table.write_bytes(b"\xff\xfe" + "{}\n".encode("utf-16-le"))
    code, out, err = run(capsys, "verify-table", str(table))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"cannot read {table}: ")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["utf16.jsonl"]


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--degree", "2", "--genus", "1")
    assert code == EXIT_OK
    assert "bound_p(2) = 66" in out
    assert "bound_n(1) = 66" in out
    code, _, err = run(capsys, "bounds")
    assert code == EXIT_PARSE
    code, out, _ = run(capsys, "bounds", "--degree", "715", "--genus", "357")
    assert code == EXIT_OK
    p, n = out.splitlines()
    assert p.startswith("bound_p(715) = ") and len(p) == 15 + 4297
    assert n == f"bound_n(357) = {bound_p(714)}"


@pytest.mark.parametrize("argv", [("--degree", "716"), ("--genus", "358"),
                                  ("--degree", "2", "--genus", "358")])
def test_bounds_past_degree_715_are_one_line_and_exit_5(capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == EXIT_CAP
    assert out == ""
    assert err == "cap exceeded: bound_p(716) exceeds cap 715\n"
