import copy
import itertools
from fractions import Fraction

import pytest

from rclkit.category import Morphism, Subcategory
from rclkit.cli import run_command
from rclkit.errors import PreconditionError
from rclkit.field import QQ
from rclkit.functor import (LinearFunctor, functor_equal, identity_functor,
                            nat_equal)
from rclkit.linalg import Mat
from rclkit.recollement import (ADJUNCTION_SLOTS, FUNCTOR_SLOTS, PARTS, Recollement,
                                check_recollement, lift_subcategory_pair,
                                normalize_recollement,
                                quotient_by_left_subcategory,
                                quotient_recollement, restrict_to_subcategory)
from rclkit.adjunction import make_adjunction, validate_adjunction

ALL_SUBSETS = [tuple(c) for k in range(4)
               for c in itertools.combinations(("S1", "S2", "P1"), k)]
HYP_OK = {(), ("S2",), ("S1", "S2", "P1")}


def test_fixture_passes_both_semantics(ws_a2):
    rec = ws_a2.recollements["R"]
    for sem in ("strict", "iso-closed"):
        rep = check_recollement(rec, sem)
        assert rep.ok_all, (sem, [str(e) for e in rep.failures()])


def test_unknown_semantics_is_refused_by_name(ws_a2):
    """"iso" is the CLI's spelling, which `run_command` maps to "iso-closed";
    the engine knows only "strict" and "iso-closed" and names any other
    reading instead of taking it for one of them."""
    rec = ws_a2.recollements["R"]
    x = Subcategory(rec.middle, ["S2"])
    for call in (lambda: check_recollement(rec, "iso"),
                 lambda: quotient_recollement(rec, x, "iso")):
        with pytest.raises(ValueError, match="unknown r3 semantics 'iso'"):
            call()


def test_degenerate_identity_recollement(ws_a2):
    """A' = A, A'' = zero category, i functors all the identity; the
    adjunctions are built from explicit identity and zero components."""
    cat = ws_a2.categories["A2"]
    from rclkit.category import FinLinCategory
    zero_cat = FinLinCategory(QQ, [], {}, {}, {}, name="Zero")
    idf = identity_functor(cat)
    ident = {g: Morphism.identity(cat, (g,)) for g in cat.generators}
    adj_id = make_adjunction(idf, idf, ident, ident, name="adj")
    to_zero = LinearFunctor(cat, zero_cat,
                            {g: () for g in cat.generators}, {},
                            name="tozero")
    from_zero = LinearFunctor(zero_cat, cat, {}, {}, name="fromzero")
    adj_z1 = make_adjunction(from_zero, to_zero, {},
                             {g: Morphism.zero(cat, (), (g,)) for g in cat.generators},
                             name="z1")
    adj_z2 = make_adjunction(to_zero, from_zero,
                             {g: Morphism.zero(cat, (g,), ()) for g in cat.generators}, {},
                             name="z2")
    for adj in (adj_id, adj_z1, adj_z2):
        assert validate_adjunction(adj).ok_all, adj.name
    rec = Recollement(left=cat, middle=cat, right=zero_cat,
                      i_up=adj_id.left, i_lo=adj_id.right, i_bang=adj_id.left,
                      j_bang=adj_z1.left, j_up=adj_z1.right, j_lo=adj_z2.right,
                      adj_i=adj_id,
                      adj_ib=make_adjunction(idf, idf, ident, ident, name="b"),
                      adj_jb=adj_z1, adj_j=adj_z2)
    rep = check_recollement(rec, "strict")
    assert rep.ok_all, [str(e) for e in rep.failures()]


def test_record_holds_exactly_the_slot_tables(ws_a2):
    rec = ws_a2.recollements["R"]
    assert set(vars(rec)) == set(PARTS) | set(FUNCTOR_SLOTS) | set(ADJUNCTION_SLOTS)
    slots = dict(vars(rec))
    del slots["adj_j"]
    with pytest.raises(TypeError, match="adj_j"):
        Recollement(**slots)
    with pytest.raises(TypeError, match="k_up"):
        Recollement(**{**vars(rec), "k_up": rec.j_up})


def test_miswired_adjunction_has_no_pass_entry(ws_a2):
    """An adjunction that validates but holds other functors fails its r1
    key through the wiring check alone: no pass line stands beside it."""
    rec = ws_a2.recollements["R"]
    rep = check_recollement(Recollement(**{**vars(rec), "adj_i": rec.adj_j}))
    key = "r1.adj-i_up-i_lo"
    assert [e.status for e in rep.entries if e.key == key + ".wiring"] == ["fail"]
    assert [e for e in rep.entries if e.key == key] == []


def test_checker_flags_wrong_embedding(ws_a2):
    """Replacing the closed-part embedding by one landing on S1 breaks the
    image/kernel condition."""
    rec = ws_a2.recollements["R"]
    modkl = ws_a2.categories["ModKL"]
    cat = ws_a2.categories["A2"]
    il_bad = LinearFunctor(modkl, cat, {"V": ("S1",)},
                           {("V", "V"): Mat(QQ, 1, 1, [[Fraction(1)]])},
                           name="il_bad")
    mutant = Recollement(**{**vars(rec), "i_lo": il_bad})
    rep = check_recollement(mutant, "strict")
    assert not rep.ok_all
    r3 = [e for e in rep.entries if e.key == "r3"][0]
    assert r3.status == "fail"
    assert "S1" in r3.witness and "S2" in r3.witness


def test_normalization_is_noop_on_strict_fixture(ws_a2):
    rec = ws_a2.recollements["R"]
    out, rep = normalize_recollement(rec)
    assert any("already strict" in (e.witness or "") for e in rep.entries)
    assert out.i_up is rec.i_up and out.j_up is rec.j_up


def _twisted(rec):
    """The same recollement with the unit and counit of all four adjunctions
    negated: still a recollement, but no longer strict."""
    F = rec.middle.field
    minus = F.neg(F.one)
    adjs = {}
    for slot in ADJUNCTION_SLOTS:
        adj = getattr(rec, slot)
        adjs[slot] = make_adjunction(
            adj.left, adj.right,
            {g: m.scale(minus) for g, m in adj.unit.components.items()},
            {g: m.scale(minus) for g, m in adj.counit.components.items()},
            name=adj.name)
    return Recollement(**{**vars(rec), **adjs})


def _performed(rep):
    return [e.witness for e in rep.entries if e.key == "normalization"] == ["performed"]


@pytest.mark.parametrize("fixture", ["ws_a2", "ws_prod"])
def test_normalize_twisted_recollement(fixture, request):
    rec = request.getfixturevalue(fixture).recollements["R"]
    out, rep = normalize_recollement(_twisted(rec))
    assert _performed(rep)
    # r1 validates all four adjunctions and checks that each holds the
    # diagram's functors (no stale copy left by the rewiring).
    rep = check_recollement(out)
    assert rep.ok_all, [str(e) for e in rep.failures()]
    if fixture == "ws_prod":
        for slot in FUNCTOR_SLOTS:
            assert functor_equal(getattr(out, slot), getattr(rec, slot)), slot
        for slot in ADJUNCTION_SLOTS:
            new, old = getattr(out, slot), getattr(rec, slot)
            assert nat_equal(new.unit, old.unit), slot
            assert nat_equal(new.counit, old.counit), slot


def test_twisted_recollement_pipelines_agree(ws_a2):
    """Every pipeline normalizes once: its report holds one normalization
    entry, performed on the twisted diagram, and otherwise the same checks
    and statuses as on the strict fixture."""
    rec = ws_a2.recollements["R"]
    cat, modkl, modkr = (ws_a2.categories[n] for n in ("A2", "ModKL", "ModKR"))
    x = Subcategory(cat, ["S2"])
    v, w = Subcategory(modkl, ["V"]), Subcategory(modkr, ["W"])
    zero_l, zero_r = Subcategory(modkl, []), Subcategory(modkr, [])
    jobs = {  # each pipeline returns its report last
        "quotient-recollement": lambda r: quotient_recollement(r, x),
        "restrict": lambda r: restrict_to_subcategory(r, x),
        "lift V 0": lambda r: lift_subcategory_pair(r, v, zero_r),
        "lift V W": lambda r: lift_subcategory_pair(r, v, w),
        "left-quotient 0": lambda r: quotient_by_left_subcategory(r, zero_l),
        "left-quotient V": lambda r: quotient_by_left_subcategory(r, v),
    }

    def statuses(rep):
        return [(e.key, e.status) for e in rep.entries if e.key != "normalization"]

    for label, job in jobs.items():
        plain = job(rec)[-1]
        twisted = job(_twisted(rec))[-1]
        assert _performed(twisted), label
        assert statuses(twisted) == statuses(plain), label


@pytest.mark.parametrize("command,options", [
    ("restrict", {"x": "S2"}),
    ("quotient-recollement", {"x": "S2"}),
    ("lift", {"xp": "V", "xpp": "ModKR:"}),
    ("lift", {"xp": "V", "xpp": "W"}),
    ("left-quotient", {"xp": "ModKL:"}),
    ("left-quotient", {"xp": "V"}),
])
def test_twisted_certificate_records_the_normalization(ws_a2, command, options):
    ws = copy.copy(ws_a2)
    ws.recollements = {"R": _twisted(ws_a2.recollements["R"])}
    cert = run_command(command, ws, options)
    assert cert.fields["check.normalization.witness"] == "performed"
    assert cert.passed


def test_pipelines_refuse_miswired_recollement(ws_a2):
    """A diagram whose adjunctions hold other functors than its slots is not
    normalized: the pipelines stop at a precondition naming the adjunction."""
    rec = ws_a2.recollements["R"]
    ju = rec.j_up
    copy = LinearFunctor(ju.source, ju.target, ju.object_map, ju.hom_maps, name="ju2")
    x = Subcategory(ws_a2.categories["A2"], ["S2"])
    for pipeline in (quotient_recollement, restrict_to_subcategory):
        with pytest.raises(PreconditionError) as info:
            pipeline(Recollement(**{**vars(rec), "j_up": copy}), x)
        assert info.value.witness == "adj_jb"


def test_restrict_exhaustive(ws_a2):
    rec = ws_a2.recollements["R"]
    cat = ws_a2.categories["A2"]
    for sub in ALL_SUBSETS:
        x = Subcategory(cat, sub)
        if sub in HYP_OK:
            out, rep = restrict_to_subcategory(rec, x)
            assert rep.ok_all, (sub, [str(e) for e in rep.failures()])
        else:
            with pytest.raises(PreconditionError):
                restrict_to_subcategory(rec, x)


def test_restrict_s2_shape(ws_a2):
    rec = ws_a2.recollements["R"]
    cat = ws_a2.categories["A2"]
    out, rep = restrict_to_subcategory(rec, Subcategory(cat, ["S2"]))
    assert out.middle.generators == ("S2",)
    assert out.left.generators == ("V",)
    assert out.right.generators == ()


def test_quotient_recollement_iff_strict(ws_a2):
    rec = ws_a2.recollements["R"]
    cat = ws_a2.categories["A2"]
    ker = {"S2"}
    for sub in ALL_SUBSETS:
        if sub not in HYP_OK:
            continue
        x = Subcategory(cat, sub)
        diagram, rep = quotient_recollement(rec, x, "strict")
        predicate = set(sub) <= ker
        assert rep.ok_all == predicate, (sub, [str(e) for e in rep.failures()])
        assert not rep.has_failures("iff-consistency")


def test_quotient_recollement_iso_divergence(ws_a2):
    """Documented divergence: collapsing everything passes the iso-closed
    reading while the membership predicate is false."""
    rec = ws_a2.recollements["R"]
    cat = ws_a2.categories["A2"]
    x = Subcategory(cat, ["S1", "S2", "P1"])
    diagram, rep = quotient_recollement(rec, x, "iso-closed")
    assert rep.ok_all
    pred = [e for e in rep.entries if e.key == "predicate.x-in-ker-j_up"][0]
    assert pred.witness == "false"


def test_quotient_recollement_shapes(ws_a2):
    rec = ws_a2.recollements["R"]
    cat = ws_a2.categories["A2"]
    diagram, rep = quotient_recollement(rec, Subcategory(cat, ["S2"]), "strict")
    assert rep.ok_all
    assert diagram.q_left.survivors == ()           # mod k / everything
    assert diagram.q_mid.survivors == ("S1", "P1")
    assert diagram.q_right.survivors == ("W",)
    assert diagram.rec.middle.hom_dim("P1", "S1") == 1


def test_lift_subcategory_pair(ws_a2):
    rec = ws_a2.recollements["R"]
    modkl = ws_a2.categories["ModKL"]
    modkr = ws_a2.categories["ModKR"]
    x, restricted, rep = lift_subcategory_pair(
        rec, Subcategory(modkl, ["V"]), Subcategory(modkr, []))
    assert x.members == ("S2",)
    assert rep.ok_all

    x, restricted, rep = lift_subcategory_pair(
        rec, Subcategory(modkl, ["V"]), Subcategory(modkr, ["W"]))
    assert x.members == ("S1", "S2", "P1")
    assert rep.ok_all

    x, restricted, rep = lift_subcategory_pair(
        rec, Subcategory(modkl, []), Subcategory(modkr, []))
    assert x.members == ()
    assert rep.ok_all
    assert restricted.middle.generators == ()


def test_left_quotient_all_subsets(ws_a2):
    rec = ws_a2.recollements["R"]
    modkl = ws_a2.categories["ModKL"]
    for sub in ((), ("V",)):
        diagram, rep = quotient_by_left_subcategory(rec, Subcategory(modkl, sub))
        assert rep.ok_all, (sub, [str(e) for e in rep.failures()])


def test_left_quotient_on_product(ws_prod):
    rec = ws_prod.recollements["R"]
    cl = ws_prod.categories["CL"]
    diagram, rep = quotient_by_left_subcategory(rec, Subcategory(cl, ["L.M2"]))
    assert rep.ok_all, [str(e) for e in rep.failures()]
    assert diagram.q_mid.survivors == ("C1.M1", "C2.M1", "C2.M2")
    assert diagram.q_left.survivors == ("L.M1",)
    assert diagram.q_right.survivors == ("R.M1", "R.M2")
