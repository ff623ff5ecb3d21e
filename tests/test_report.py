from pathlib import Path

from rclkit.cli import main
from rclkit.report import FAIL, NOT_CHECKED, PASS, Certificate, Report

ALL_KINDS = Path(__file__).resolve().parent / "golden" / "workspace-all-kinds.rcl"


def entries(rep):
    return [(e.key, e.status, e.witness) for e in rep.entries]


def test_close_passes_with_its_witness():
    rep = Report()
    rep.close("other")
    rep.close("tr3", witness="total dimension 4")
    assert entries(rep) == [("other", PASS, ""), ("tr3", PASS, "total dimension 4")]


def test_a_failure_under_the_key_suppresses_the_pass():
    for failed in ("identity", "identity.left"):
        rep = Report()
        rep.fail(failed, "1_a o f != f")
        rep.close("identity", undecided="search gave up", witness="never")
        assert entries(rep) == [(failed, FAIL, "1_a o f != f")]


def test_a_sibling_key_does_not_suppress_the_pass():
    rep = Report()
    rep.fail("composites.other")
    rep.fail("tri.triangle.t10")
    rep.close("composites.zero")
    rep.close("tri.triangle.t1")
    assert entries(rep)[2:] == [("composites.zero", PASS, ""),
                                ("tri.triangle.t1", PASS, "")]


def test_undecided_gives_not_checked():
    rep = Report()
    rep.close("exact.triangle-image", undecided="image of t1: search gave up",
              witness="unused")
    assert entries(rep) == [("exact.triangle-image", NOT_CHECKED,
                             "image of t1: search gave up")]
    assert rep.ok_all


def test_has_failures_matches_the_key_and_its_subkeys():
    rep = Report()
    rep.fail("ideal.two-sided.pre-compose")
    assert rep.has_failures() and rep.has_failures("ideal")
    assert rep.has_failures("ideal.two-sided")
    assert not rep.has_failures("ideal.two")
    assert not rep.has_failures("ideal.member-identity")


def test_a_repeated_key_keeps_every_witness_and_fails_when_one_entry_did():
    rep = Report()
    rep.fail("naturality", "at basis a")
    rep.add("naturality", PASS, "unused")
    rep.fail("naturality", "at basis b")
    rep.not_checked("search", "gave up")
    rep.not_checked("search")
    cert = Certificate("validate")
    cert.finalize(rep)
    assert cert.fields["check.naturality.status"] == FAIL
    assert cert.fields["check.naturality.witness"] == "at basis a; unused; at basis b"
    assert cert.fields["check.search.witness"] == "gave up"
    assert cert.fields["result.unchecked"] == "check.search"
    assert cert.fields["result.failed-checks"] == "2"


def test_validate_keeps_both_counterexamples_of_a_natural_transformation(tmp_path, capsys):
    """workspace-all-kinds records five failures under three keys; the first
    counterexample of each naturality check is kept beside the second."""
    out = tmp_path / "v.cert"
    assert main(["validate", str(ALL_KINDS), "--out", str(out)]) == 1
    capsys.readouterr()
    fields = dict(line.split(" = ", 1) for line in out.read_text().splitlines())
    both = "at basis M1.a0 of Hom(M1,M2); at basis M2.a0 of Hom(M2,M1)"
    assert fields["check.nattrans.tw.naturality.witness"] == both
    assert fields["check.exactdata.E.exact.shift-iso.naturality.witness"] == both
    assert fields["result.failed-checks"] == "5"
    assert sorted(k for k, v in fields.items() if v == FAIL and k.startswith("check.")) == [
        "check.exactdata.E.exact.shift-iso.naturality.status",
        "check.exactdata.E.exact.triangle-image.status",
        "check.nattrans.tw.naturality.status"]
