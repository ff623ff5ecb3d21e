from rclkit.report import FAIL, NOT_CHECKED, PASS, Report


def entries(rep):
    return [(e.key, e.status, e.witness) for e in rep.entries]


def test_close_passes_with_its_witness():
    rep = Report()
    rep.ok("other")
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
