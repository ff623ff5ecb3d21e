import pytest

from rclkit.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_fixture(fixture_dir, capsys):
    code, out, _ = run(["validate", str(fixture_dir / "fix_a2.rcl")], capsys)
    assert code == 0
    assert "[PASS]" in out


def test_check_recollement_exit0(fixture_dir, capsys):
    code, out, _ = run(["check-recollement", str(fixture_dir / "fix_a2.rcl"),
                        "--format", "structured"], capsys)
    assert code == 0
    assert "check.r3.status = pass" in out
    assert "meta.input-digest = sha256:" in out


def test_quotient_recollement_degenerate_exit1(fixture_dir, capsys):
    code, out, _ = run(["quotient-recollement", str(fixture_dir / "fix_a2.rcl"),
                        "--x", "S1,S2,P1", "--semantics", "strict",
                        "--format", "structured"], capsys)
    assert code == 1
    assert "check.r3.status = fail" in out
    assert "S1" in out
    assert "check.predicate.x-in-ker-j_up.witness = false" in out


def test_quotient_recollement_s2_exit0(fixture_dir, capsys):
    code, out, _ = run(["quotient-recollement", str(fixture_dir / "fix_a2.rcl"),
                        "--x", "S2"], capsys)
    assert code == 0


def test_quotient_command(fixture_dir, capsys):
    code, out, _ = run(["quotient", str(fixture_dir / "fix_a2.rcl"),
                        "--x", "S2", "--format", "structured"], capsys)
    assert code == 0
    assert "result.survivors = S1,P1" in out


def test_restrict_command(fixture_dir, capsys):
    code, _, _ = run(["restrict", str(fixture_dir / "fix_a2.rcl"), "--x", "S2"],
                     capsys)
    assert code == 0
    code, out, _ = run(["restrict", str(fixture_dir / "fix_a2.rcl"), "--x", "P1",
                        "--format", "structured"], capsys)
    assert code == 1
    assert "precondition" in out


def test_lift_command(fixture_dir, capsys):
    code, out, _ = run(["lift", str(fixture_dir / "fix_a2.rcl"),
                        "--xp", "V", "--xpp", "ModKR:",
                        "--format", "structured"], capsys)
    assert code == 0
    assert "result.lifted-subcategory = S2" in out


def test_left_quotient_command(fixture_dir, capsys):
    code, _, _ = run(["left-quotient", str(fixture_dir / "fix_a2.rcl"),
                      "--xp", "V"], capsys)
    assert code == 0
    code, _, _ = run(["left-quotient", str(fixture_dir / "fix_a2.rcl"),
                      "--xp", "ModKL:"], capsys)
    assert code == 0


def test_induce_command(fixture_dir, capsys):
    code, _, _ = run(["induce", str(fixture_dir / "fix_a2.rcl"),
                      "--name", "ju", "--x", "S2", "--xp", "ModKR:"], capsys)
    assert code == 0
    code, _, _ = run(["induce", str(fixture_dir / "fix_a2.rcl"),
                      "--name", "adj_i", "--x", "S2", "--xp", "V"], capsys)
    assert code == 0


def test_mutation_check_command(fixture_dir, capsys):
    code, _, _ = run(["mutation-check", str(fixture_dir / "fix_stab3.rcl")], capsys)
    assert code == 0


def test_triangulate_quotient_command(fixture_dir, capsys):
    code, out, _ = run(["triangulate-quotient", str(fixture_dir / "fix_stab3.rcl"),
                        "--format", "structured"], capsys)
    assert code == 0
    assert "check.triangulation.tr2.status = not-checked" in out
    assert "result.unchecked" in out


@pytest.mark.parametrize("text,message", [
    ("rclkit workspace 1\nfunctor f { source X target Y }\n", "unknown category"),
    ("rclkit workspace 1/0\n", "expected an integer"),
    ("rclkit workspace 1\nfield { kind prime 7/2 }\n", "expected an integer"),
    ("rclkit workspace 1\nfunctor f { source C target C\n"
     "  map (A A e) -> { (1/2 0) { e 1 } } }\n", "expected an integer"),
    ("rclkit workspace 1\nfield { kind prime 4 }\n", "characteristic must be prime"),
    ("rclkit workspace 1\ncategory A { object G hom G G { basis e } identity G { e 1 }\n"
     "  compose (G G e) (G G e) { e 1 } }\nfunctor f { source A target A object G -> G\n"
     "  map (G G e) -> { (-1 0) { e 1 } } }\n", "block (-1,0) outside morphism shape"),
    ("rclkit workspace 1\ncategory A { object G hom G G { basis e } identity G { e 1/0 } }\n",
     "line 2, col 58: invalid number '1/0'"),
    ("rclkit workspace 1\nfield { kind prime 7 }\n"
     "category A { object G hom G G { basis e } identity G { e 1/2/3 } }\n",
     "line 3, col 58: invalid number '1/2/3'"),
    ("rclkit workspace 1\ncategory A { assume_local object G }\n",
     "line 2, col 14: unknown category item 'assume_local'"),
], ids=["unknown-category", "fractional-version", "fractional-prime",
        "fractional-block-index", "composite-prime", "negative-block-index",
        "zero-denominator", "malformed-fraction", "retired-assume-local"])
def test_parse_error_exit2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.rcl"
    bad.write_text(text)
    code, _, err = run(["validate", str(bad)], capsys)
    assert code == 2
    assert message in err
    assert "line" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["restrict", "quotient-recollement"])
def test_invalid_input_adjunction_exit1(fixture_dir, tmp_path, capsys, command):
    """An input adjunction that fails its triangle identities is a failed
    precondition (exit 1), not an internal inconsistency (exit 3)."""
    text = (fixture_dir / "fix_a2.rcl").read_text()
    unit = "to il * iu\n  at S2 -> { (0 0) { a0 1 } }"
    assert unit in text
    bad = tmp_path / "bad.rcl"
    bad.write_text(text.replace(unit, unit.replace("a0 1", "a0 -1")))
    code, out, err = run([command, str(bad), "--x", "S2", "--format", "structured"],
                         capsys)
    assert code == 1
    assert err == ""
    assert ("check.precondition.witness = input adjunction adj_i fails its checks: "
            "triangle.left: at generator S2") in out


@pytest.mark.parametrize("data,message", [
    (b"rclkit workspace 1\n\xff\n", "line 2, col 1: invalid UTF-8 byte 0xff"),
    (b"rclkit workspace 1\r\n# caf\xc3\xa9 \xc3(\n", "line 2, col 8: invalid UTF-8 byte 0xc3"),
], ids=["bad-first-byte", "truncated-sequence-after-crlf"])
def test_non_utf8_input_exit2(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.rcl"
    bad.write_bytes(data)
    code, _, err = run(["validate", str(bad)], capsys)
    assert code == 2
    assert err == "error: %s\n" % message
    assert "Traceback" not in err


def test_missing_file_exit2(capsys):
    code, _, err = run(["validate", "/nonexistent/file.rcl"], capsys)
    assert code == 2


def test_missing_required_flag_exit2(fixture_dir, capsys):
    code, _, err = run(["restrict", str(fixture_dir / "fix_a2.rcl")], capsys)
    assert code == 2
    assert "requires --x" in err


def test_ambiguous_generators_exit2(fixture_dir, capsys):
    code, _, err = run(["quotient", str(fixture_dir / "fix_prod.rcl"),
                        "--x", "M2"], capsys)
    assert code == 2
    assert "no category contains" in err or "ambiguous" in err


def test_unknown_qualified_generator_exit2(fixture_dir, capsys):
    code, _, err = run(["quotient", str(fixture_dir / "fix_a2.rcl"),
                        "--x", "A2:NOPE"], capsys)
    assert code == 2
    assert "NOPE" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,fixture,flag,arg,member", [
    ("quotient", "fix_a2.rcl", "--x", "S2,S2", "S2"),
    ("quotient", "fix_a2.rcl", "--x", "A2:S2,S2", "S2"),
    ("triangulate-quotient", "fix_stab3.rcl", "--d", "M2,M2", "M2"),
], ids=["bare", "qualified", "approximating"])
def test_repeated_subcategory_member_exit2(fixture_dir, capsys, command, fixture, flag,
                                           arg, member):
    """A generator named twice in a subcategory argument is bad input, as a
    member named twice in a workspace subcategory is: the certificate would
    otherwise echo an argument the check did not read as given."""
    code, out, err = run([command, str(fixture_dir / fixture), flag, arg], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: duplicate member %r in subcategory %r\n" % (member, arg)


def test_unwritable_out_exit2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "c.cert"
    code, _, err = run(["check-recollement", str(fixture_dir / "fix_a2.rcl"),
                        "--out", str(out)], capsys)
    assert code == 2
    assert "cannot write" in err
    assert "Traceback" not in err


def test_unexpected_exception_exit4(fixture_dir, capsys, monkeypatch):
    import rclkit.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_command", boom)
    code, out, err = run(["validate", str(fixture_dir / "fix_a2.rcl")], capsys)
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_certificate_out_file(fixture_dir, tmp_path, capsys):
    out1 = tmp_path / "c1.cert"
    out2 = tmp_path / "c2.cert"
    for out in (out1, out2):
        code, _, _ = run(["check-recollement", str(fixture_dir / "fix_a2.rcl"),
                          "--out", str(out)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text == "".join(sorted(text.splitlines(keepends=True), key=lambda l: l))


def test_exit_code_matches_certificate(fixture_dir, tmp_path, capsys):
    out = tmp_path / "c.cert"
    code, _, _ = run(["quotient-recollement", str(fixture_dir / "fix_a2.rcl"),
                      "--x", "S1,S2,P1", "--out", str(out)], capsys)
    assert code == 1
    assert "result.verdict = fail" in out.read_text()


def test_digest_names_the_bytes_read(fixture_dir, tmp_path, capsys):
    """A comment appended to fix_a2 changes its certificate only in
    meta.input-digest."""
    plain = fixture_dir / "fix_a2.rcl"
    commented = tmp_path / "fix_a2.rcl"
    commented.write_text(plain.read_text() + "# a comment\n")
    outs = []
    for path in (plain, commented):
        code, out, _ = run(["check-recollement", str(path), "--format", "structured"],
                           capsys)
        assert code == 0
        outs.append(out.splitlines())
    assert len(outs[0]) == len(outs[1])
    changed = [a.split(" = ")[0] for a, b in zip(*outs) if a != b]
    assert changed == ["meta.input-digest"]
