import json

import pytest

from nihoval import bent, cli
from nihoval.reference import TABLE1, TABLE1_ORBITS, TABLE2
from conftest import GOLDEN


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_field(capsys):
    rc, out, _ = run(capsys, "field", "--m", "3")
    assert rc == 0
    assert json.loads(out) == {"m": 3, "modulus_bits": 11, "delta_bits": 1}


def test_field_custom_modulus(capsys):
    rc, out, _ = run(capsys, "field", "--m", "5", "--modulus-hex", "25")
    assert rc == 0 and json.loads(out)["modulus_bits"] == 0x25


def test_field_rejects_reducible(capsys):
    rc, _, err = run(capsys, "field", "--m", "3", "--modulus-hex", "f")
    assert rc == 2 and "error" in err
    # x^6+x^4+x+1 has the root 1
    rc, _, err = run(capsys, "field", "--m", "6", "--modulus-hex", "53")
    assert rc == 2 and "0x53 is not irreducible" in err


def test_opoly_csv_and_json(capsys):
    rc, out, _ = run(capsys, "opoly", "--family", "segre", "--m", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    meta = json.loads(lines[0][2:])
    assert meta["is_opolynomial"] is True
    assert lines[1] == "t_hex,h_hex"
    assert len(lines) == 2 + 32
    rc, out, _ = run(capsys, "opoly", "--family", "segre", "--m", "5",
                     "--format", "json")
    assert rc == 0 and json.loads(out)["is_opolynomial"] is True


def test_opoly_validation_error(capsys):
    rc, _, err = run(capsys, "opoly", "--family", "segre", "--m", "4")
    assert rc == 2 and err == "error: segre needs odd m >= 5\n"
    rc, out, err = run(capsys, "opoly", "--family", "glynn2", "--m", "5")
    assert rc == 2 and out == "" and err == "error: glynn2 needs odd m >= 7\n"


@pytest.mark.parametrize("d_hex", ["40", "0"])
def test_subiaco_d_out_of_range_exits_2(capsys, d_hex):
    rc, _, err = run(capsys, "opoly", "--family", "subiaco", "--m", "5", "--d-hex", d_hex)
    assert rc == 2 and f"d = 0x{d_hex}" in err


def test_gfun_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["gfun", "--family", "adelaide", "--m", "6",
                     "--out", str(a)]) == 0
    assert cli.main(["gfun", "--family", "adelaide", "--m", "6",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # g(1) = 1 for the adelaide table (1 + 1 + 1 in char 2)
    row0 = a.read_text().splitlines()[2]
    assert row0.split(",")[2] == "01"


def test_bent_check(capsys):
    rc, out, _ = run(capsys, "bent", "--family", "hyperconic", "--m", "4",
                     "--check")
    assert rc == 0
    rep = json.loads(out)
    assert rep["spectrum"] == {"is_bent": True, "max": 16, "min": -16}
    assert rep["validation"]["consistent"] is True


def test_bent_artifacts(tmp_path):
    bits = tmp_path / "f.bits"
    spec = tmp_path / "w.i32"
    poly = tmp_path / "f.json"
    assert cli.main(["bent", "--family", "hyperconic", "--m", "3",
                     "--format", "bits", "--out", str(bits)]) == 0
    assert len(bits.read_bytes()) == 64 // 8
    assert cli.main(["bent", "--family", "hyperconic", "--m", "3",
                     "--spectrum", "--out", str(spec)]) == 0
    assert len(spec.read_bytes()) == 64 * 4
    assert cli.main(["bent", "--family", "hyperconic", "--m", "3",
                     "--out", str(poly)]) == 0
    obj = json.loads(poly.read_text())
    assert all("exp" in t for t in obj)


@pytest.mark.parametrize("extra", [[], ["--s-index", "1"]])
def test_bent_polynomial_skips_the_walsh_transform(capsys, monkeypatch, extra):
    # the Niho polynomial output never writes the spectrum, so it never forms one
    argv = ["bent", "--family", "lunelli_sce", "--m", "4", *extra]
    rc, want, _ = run(capsys, *argv)
    assert rc == 0

    def no_walsh(f):
        raise AssertionError("walsh_spectrum called")
    monkeypatch.setattr(bent, "walsh_spectrum", no_walsh)
    assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("s_index", ["-1", "9", str(1 << 70)])
def test_bent_s_index_out_of_range(capsys, s_index):
    rc, _, err = run(capsys, "bent", "--m", "3", "--s-index", s_index)
    assert rc == 2 and "s_index" in err


@pytest.mark.parametrize("argv,message", [
    (["bent", "--m", "3", "--s-index", "99", "--format", "bits"],
     "--format bits and --s-index select different outputs"),
    (["bent", "--m", "3", "--check", "--spectrum"], "--check and --spectrum select different outputs"),
    (["bent", "--m", "3", "--check", "--format", "bits"],
     "--check and --format bits select different outputs"),
    (["bent", "--m", "3", "--spectrum", "--format", "bits"],
     "--spectrum and --format bits select different outputs"),
    (["bent", "--m", "3", "--spectrum", "--s-index", "1"],
     "--spectrum and --s-index select different outputs"),
    (["bent", "--m", "3", "--check", "--s-index", "1"],
     "--check and --s-index select different outputs"),
    (["gfun", "--family", "hyperconic", "--r", "2"], "--r applies only to --family translation"),
    (["bent", "--family", "segre", "--r", "2"], "--r applies only to --family translation"),
    (["classify", "--m", "3", "--r", "1"], "--r applies only to --family translation"),
    (["opoly", "--family", "hyperconic", "--r", "2"], "--r applies only to --family translation"),
    (["opoly", "--family", "segre", "--d-hex", "5"], "--d-hex applies only to --family subiaco"),
    (["opoly", "--family", "translation", "--r", "2", "--d-hex", "5"],
     "--d-hex applies only to --family subiaco"),
])
def test_options_that_would_be_ignored_exit_2(capsys, argv, message):
    # each option changes what is written, so none is silently dropped
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err == f"error: {message}\n"


def test_classify_report(capsys):
    rc, out, _ = run(capsys, "classify", "--family", "hyperconic", "--m", "3")
    assert rc == 0
    rep = json.loads(out)
    assert rep["stabilizer_order"] == 1512
    assert rep["orbit_sizes"] == [1, 9]
    assert len(rep["classes"]) == 2
    for c in rep["classes"]:
        assert c["bent_check"] is True
        assert len(c["g_table"]) == 9


@pytest.mark.parametrize("name,argv", [
    ("classify_hyperconic_m4.json", ["--family", "hyperconic", "--m", "4"]),
    ("classify_lunelli_sce_m4.json", ["--family", "lunelli_sce", "--m", "4"]),
    ("classify_translation_r2_m5.json", ["--family", "translation", "--r", "2", "--m", "5"]),
])
def test_classify_golden(tmp_path, name, argv):
    # origin and nucleus-shifted representatives, byte for byte
    out = tmp_path / name
    assert cli.main(["classify", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["classify", "--m", "3", "--threads", "0"],
    ["reproduce", "theorems", "--threads", "-1"],
    ["gfun", "--family", "subiaco", "--d-hex", "5"],
    ["field", "--threads", "2"],
    ["opoly", "--family", "segre", "--format", "bits"],
    ["bent", "--m", "3", "--format", "csv"],
    ["classify", "--m", "3", "--s-index", "1"],
    ["field", "--modulus-hex", "zz"],
    ["opoly", "--family", "subiaco", "--d-hex", "zz"],
    ["classify", "--m", "3", "--allow-slow"],
])
def test_rejected_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    if "--threads" in argv:     # an unknown option, not a value out of range
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_reproduce_theorems(capsys):
    rc, out, err = run(capsys, "reproduce", "theorems")
    assert rc == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert "[PASS]" in err


def test_reproduce_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_reproduce_theorems",
                        lambda: [{"check": "forced", "ok": False}])
    rc, out, err = run(capsys, "reproduce", "theorems")
    assert rc == 3
    assert "[FAIL]" in err


def test_reproduce_stderr_names_m_only_for_rows_that_have_one(capsys, monkeypatch):
    # Table 1 rows carry no m, the sec4.6 rows do; the JSON report is the rows
    table1 = {"family": "hyperconic", "expected_aut": 163680, "computed_aut": 163680,
              "expected_orbits": [1, 33], "computed_orbits": [1, 33],
              "g_is_hyperoval": True, "ok": True}
    sec46 = {"family": "hyperconic", "m": 5, "expected_classes": 2, "computed_classes": 2,
             "ok": True}
    # an explicit-form row is named by its form, which already carries m
    form = {"form": "x36_m3", "family": "hyperconic", "m": 3, "bent": True, "classes": [1],
            "ok": True}
    monkeypatch.setattr(cli, "_reproduce_table1", lambda: [table1])
    for target, row, line in (("table1", table1, "[PASS] table1: hyperconic"),
                              ("sec4.6", sec46, "[PASS] sec4.6: hyperconic m=5"),
                              ("sec4.6", form, "[PASS] sec4.6: x36_m3")):
        monkeypatch.setattr(cli, "_reproduce_sec46", lambda: [row])
        rc, out, err = run(capsys, "reproduce", target)
        assert rc == 0 and err == line + "\n"
        assert out == json.dumps({"target": target, "ok": True, "rows": [row]},
                                 sort_keys=True, indent=1) + "\n"


def test_unknown_family_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["gfun", "--family", "nosuch", "--m", "5"])


def test_reproduce_table1_end_to_end(capsys, tmp_path):
    out = tmp_path / "t1.json"
    rc = cli.main(["reproduce", "table1", "--quiet", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert [r["computed_aut"] for r in rep["rows"]] == [aut for _, _, aut in TABLE1]
    assert [r["computed_orbits"] for r in rep["rows"]] == \
        [list(TABLE1_ORBITS[fam]) for fam, _, _ in TABLE1]
    assert all(r["g_is_hyperoval"] for r in rep["rows"])


def test_reproduce_table2_end_to_end(capsys, tmp_path):
    out = tmp_path / "t2.json"
    rc = cli.main(["reproduce", "table2", "--quiet", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert [r["family"] for r in rep["rows"]] == [fam for fam, _, _ in TABLE2]
    assert [r["computed_aut"] for r in rep["rows"]] == [aut for _, aut, _ in TABLE2]
    assert [r["computed_orbits"] for r in rep["rows"]] == \
        [list(orbits) for _, _, orbits in TABLE2]
