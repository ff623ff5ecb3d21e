from fractions import Fraction
from pathlib import Path

import pytest

from rclkit.category import Morphism, Subcategory, compose
from rclkit.cli import _tri_bundle, main
from rclkit.errors import PreconditionError
from rclkit.field import QQ
from rclkit.fixture_gen import build_fix_prod
from rclkit.functor import LinearFunctor
from rclkit.linalg import Mat
from rclkit.mutation import (ExactFunctorData, MutationData, check_mutation_pair,
                             image_mutation_pair, induced_exact_functor,
                             make_D_monic, standard_triangle,
                             triangulated_quotient_recollement,
                             verify_quotient_triangulation)
from rclkit.recollement import FUNCTOR_SLOTS
from rclkit.triangulated import Triangle, TriangulatedPresentation, identity_triangle

from oracles import basis_element, ladder_classes


def test_check_mutation_pair_fixture(ws_stab3):
    assert check_mutation_pair(ws_stab3.mutations["MU"]).ok_all


def test_check_mutation_pair_empty_d_fails(ws_stab3):
    """With nothing to approximate through, the only candidate triangle for
    M1 ends at its shift M2, which falls outside Z = add(M1)."""
    tri = ws_stab3.triangulated["TC"]
    cat = tri.cat
    z = Subcategory(cat, ["M1"])
    d = Subcategory(cat, [])
    ident = identity_triangle(tri, "M1")
    rot = tri.rotate(ident)  # (M1, 0, M2, 0, 0, -1)
    m = MutationData(tri, z, d, {"M1": rot})
    rep = check_mutation_pair(m)
    assert not rep.ok_all
    assert rep.has_failures("condition1.M1")


def test_check_mutation_pair_vacuous(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    cat = tri.cat
    m = MutationData(tri, Subcategory(cat, []), Subcategory(cat, []), {})
    assert check_mutation_pair(m).ok_all


def test_sigma_object_and_identity(ws_stab3):
    m = ws_stab3.mutations["MU"]
    assert m.quotient.survivors == ("M1",)
    assert m.sigma.object_map["M1"] == ("M1",)
    pres = m.quotient.presentation
    ident = Morphism.identity(pres, pres.obj("M1"))
    assert m.sigma.apply(ident).equal(ident)
    zero = ident.scale(Fraction(0))
    assert m.sigma.apply(zero).is_zero()


def test_mutation_shift_ladder_freedom(ws_stab3):
    """Every valid ladder solution b gives a c of sigma's residue class.  The
    fixed triangle of M1 gets the summand (0, M2, M2, 0, 1, 0), so that
    b o alpha = 0 has nonzero solutions b."""
    mu = ws_stab3.mutations["MU"]
    tri, cat = mu.tri, mu.tri.cat
    zero, m2 = (), cat.obj("M2")
    trivial = Triangle(zero, m2, m2, Morphism.zero(cat, zero, m2),
                       Morphism.identity(cat, m2), Morphism.zero(cat, m2, zero))
    fixed = dict(mu.fixed, M1=tri.direct_sum([mu.fixed["M1"], trivial]))
    m = MutationData(tri, mu.z, mu.d, fixed)
    assert tri.membership(fixed["M1"]) is not None
    f = Morphism.identity(cat, cat.obj("M1"))
    classes = ladder_classes(m, f)
    assert len(classes) > 1
    for c in classes:
        assert c.equal(m.sigma.apply(m.to_quotient(f)))


def test_standard_triangle_identity(ws_stab3):
    m = ws_stab3.mutations["MU"]
    cat = m.tri.cat
    one = Morphism.identity(cat, cat.obj("M1"))
    monic = make_D_monic(m, one)
    st = standard_triangle(m, monic)
    assert st.x == ("M1",)
    assert compose(st.g, st.f).is_zero()
    assert compose(st.h, st.g).is_zero()


def test_standard_triangle_identity_witness(ws_stab3):
    """The identity with its identity-triangle witness yields (X, X, 0)."""
    m = ws_stab3.mutations["MU"]
    tri = m.tri
    one = Morphism.identity(tri.cat, tri.cat.obj("M1"))
    st = standard_triangle(m, one, witness=identity_triangle(tri, "M1"))
    assert st.x == ("M1",)
    assert st.y == ("M1",)
    assert st.z == ()
    assert st.f.equal(Morphism.identity(m.quotient.presentation,
                                         m.quotient.presentation.obj("M1")))


def test_standard_triangle_socle(ws_stab3):
    """The socle map is monic-side; in the quotient its triangle reads
    (M1, 0, M1) with an invertible connecting class."""
    m = ws_stab3.mutations["MU"]
    cat = m.tri.cat
    soc = basis_element(cat, "M1", "M2", 0)
    st = standard_triangle(m, soc)
    assert st.y == ()
    assert st.z == ("M1",)
    from rclkit.adjunction import morphism_inverse
    assert morphism_inverse(st.h) is not None


def test_standard_triangle_leaves_the_register_alone(ws_stab3):
    """The socle map's standard triangle is none of TR1's, and building it
    does not register it."""
    m = ws_stab3.mutations["MU"]
    before = m.registered
    st = standard_triangle(m, basis_element(m.tri.cat, "M1", "M2", 0))
    assert not any(st.data_equal(t) for t in before)
    assert m.registered == before and len(before) == 2


def test_registered_triangles_are_named_by_their_tr1_key(ws_stab3):
    """Each registered triangle carries the TR1 key it was built under, once."""
    m = ws_stab3.mutations["MU"]
    assert [t.name for t in m.registered] == ["tr1.M1-M1.basis0", "tr1.M1-M1.zero"]


def test_standard_triangle_rejects_non_monic(ws_stab3):
    m = ws_stab3.mutations["MU"]
    cat = m.tri.cat
    zero_to_zero = Morphism.zero(cat, cat.obj("M1"), ())
    with pytest.raises(PreconditionError) as exc:
        standard_triangle(m, zero_to_zero)
    assert "M2" in exc.value.witness


def test_standard_triangle_rejects_bad_witness(ws_stab3):
    m = ws_stab3.mutations["MU"]
    cat = m.tri.cat
    soc = basis_element(cat, "M1", "M2", 0)
    bogus = Triangle(cat.obj("M1"), cat.obj("M2"), cat.obj("M2"),
                     soc, Morphism.zero(cat, cat.obj("M2"), cat.obj("M2")),
                     Morphism.zero(cat, cat.obj("M2"), cat.obj("M2")),
                     name="bogus")
    with pytest.raises(PreconditionError):
        standard_triangle(m, soc, witness=bogus)


def test_verify_quotient_triangulation(ws_stab3):
    rep = verify_quotient_triangulation(ws_stab3.mutations["MU"])
    assert rep.ok_all
    keys = {e.key: e.status for e in rep.entries}
    assert keys.get("tr2") == "not-checked"
    assert keys.get("tr4") == "not-checked"


def test_verify_flags_corrupted_beta(ws_stab3):
    mu = ws_stab3.mutations["MU"]
    tri = mu.tri
    cat = tri.cat
    t1 = mu.fixed["M1"]
    bad_fixed = dict(mu.fixed)
    bad_fixed["M1"] = Triangle(t1.x, t1.y, t1.z, t1.f,
                               t1.g.scale(Fraction(0)), t1.h, name="bad")
    m2 = MutationData(tri, mu.z, mu.d, bad_fixed)
    assert not check_mutation_pair(m2).ok_all
    rep = verify_quotient_triangulation(m2)
    assert not rep.ok_all


@pytest.mark.parametrize("first", ["sum", "zero"])
def test_fixed_triangle_with_the_wrong_first_vertex_names_it(ws_stab3, first):
    mu = ws_stab3.mutations["MU"]
    tri, cat = mu.tri, mu.tri.cat
    m2 = cat.obj("M2")
    if first == "sum":
        t, text = tri.direct_sum([mu.fixed["M1"], mu.fixed["M2"]]), "M1+M2"
    else:
        t = Triangle((), m2, m2, Morphism.zero(cat, (), m2),
                     Morphism.identity(cat, m2), Morphism.zero(cat, m2, ()))
        text = "0"
    rep = check_mutation_pair(MutationData(tri, mu.z, mu.d, dict(mu.fixed, M1=t)))
    entries = {e.key: (e.status, e.witness) for e in rep.entries}
    assert entries["condition1.M1"] == ("fail", "first vertex is " + text)


def test_image_mutation_pair_identity(ws_stab3):
    from rclkit.mutation import ExactFunctorData
    from rclkit.functor import identity_functor
    tri = ws_stab3.triangulated["TC"]
    e = ExactFunctorData(identity_functor(tri.cat), tri, tri, None, name="id")
    m2, rep = image_mutation_pair(e, ws_stab3.mutations["MU"])
    assert rep.ok_all, [str(x) for x in rep.failures()]
    assert m2.z.members == ("M1", "M2")
    assert m2.d.members == ("M2",)


def test_image_mutation_pair_projection(ws_prod):
    e = ws_prod.exactdata["ex_ju"]
    m2, rep = image_mutation_pair(e, ws_prod.mutations["MU"])
    assert rep.ok_all, [str(x) for x in rep.failures()]
    assert m2.d.members == ()
    assert set(m2.z.members) == {"R.M1", "R.M2"}
    assert check_mutation_pair(m2).ok_all


def test_image_mutation_pair_rejects_non_full(ws_prod):
    """Corrupt a hom map so the functor is no longer full."""
    from rclkit.functor import LinearFunctor
    from rclkit.linalg import Mat
    from rclkit.mutation import ExactFunctorData
    ju = ws_prod.functors["ju"]
    hom_maps = dict(ju.hom_maps)
    hom_maps[("C2.M1", "C2.M2")] = Mat.zeros(QQ, 1, 1)
    bad = LinearFunctor(ju.source, ju.target, ju.object_map, hom_maps, name="bad")
    e = ExactFunctorData(bad, ws_prod.triangulated["TRI_C"],
                         ws_prod.triangulated["TRI_R"], None, name="bad")
    m2, rep = image_mutation_pair(e, ws_prod.mutations["MU"])
    assert m2 is None
    assert not rep.ok_all


def test_image_mutation_pair_does_not_validate_again(ws_prod, monkeypatch):
    """The push expects a validated functor: it decides only fullness."""
    def no_validation(self):
        raise AssertionError("ExactFunctorData.validate called")

    monkeypatch.setattr(ExactFunctorData, "validate", no_validation)
    m2, rep = image_mutation_pair(ws_prod.exactdata["ex_ju"], ws_prod.mutations["MU"])
    assert m2 is not None and rep.ok_all
    assert not any(e.key.startswith("push.exact.") for e in rep.entries)


def test_shift_commutation_names_its_first_mismatch(ws_prod):
    """A target shift twisted by 2 on Hom(R.M1, R.M2) makes T' o ju differ
    from ju o T on the basis morphism of Hom(C2.M1, C2.M2), which ju sends
    there; the strict check's FAIL names it.  The twisted presentation
    carries no triangles: only the shift is compared."""
    e = ws_prod.exactdata["ex_ju"]
    tri = e.target_tri
    hom_maps = dict(tri.shift.hom_maps)
    hom_maps[("R.M1", "R.M2")] = Mat(QQ, 1, 1, [[Fraction(2)]])
    twisted = LinearFunctor(tri.cat, tri.cat, tri.shift.object_map, hom_maps,
                            name="twisted")
    target = TriangulatedPresentation(tri.cat, twisted, tri.shift_inv, ())
    rep = ExactFunctorData(e.functor, e.source_tri, target, None).validate()
    assert [(x.status, x.witness) for x in rep.entries
            if x.key == "exact.shift-commutation"] == [
        ("fail", "composites differ on morphisms, basis 0 of Hom(C2.M1,C2.M2); "
                 "no comparison isomorphism given")]


def test_induced_exact_functor_identity(ws_stab3):
    from rclkit.mutation import ExactFunctorData
    from rclkit.functor import identity_functor
    tri = ws_stab3.triangulated["TC"]
    m = ws_stab3.mutations["MU"]
    verify_quotient_triangulation(m)  # registers standard triangles
    e = ExactFunctorData(identity_functor(tri.cat), tri, tri, None, name="id")
    tilde, rep = induced_exact_functor(e, m, m)
    assert rep.ok_all, [str(x) for x in rep.failures()]
    assert tilde.object_map["M1"] == ("M1",)


@pytest.mark.parametrize("image,column,objects", [
    (("M1",), (Fraction(2),), "pass"),
    (("M1", "M1"), (1, 0, 0, 1), "fail"),
])
def test_induced_exact_functor_flags_a_sigma_mismatch(ws_stab3, image, column, objects):
    """With the target's sigma replaced by 2 on End(M1), or by the diagonal
    M1 -> M1 + M1, the identity does not commute with the two shifts:
    exact.sigma-morphisms fails on the basis element of End(M1), and
    exact.sigma-objects fails too when the object images differ."""
    from rclkit.functor import LinearFunctor, identity_functor
    from rclkit.linalg import Mat
    from rclkit.mutation import ExactFunctorData
    mu = ws_stab3.mutations["MU"]
    m, m2 = (MutationData(mu.tri, mu.z, mu.d, mu.fixed) for _ in range(2))
    pres = m2.quotient.presentation
    m2._sigma = LinearFunctor(pres, pres, {"M1": image},
                              {("M1", "M1"): Mat.column(QQ, column)}, name="twisted")
    e = ExactFunctorData(identity_functor(mu.tri.cat), mu.tri, mu.tri, None, name="id")
    _, rep = induced_exact_functor(e, m, m2)
    entries = {e.key: (e.status, e.witness) for e in rep.entries}
    assert entries["exact.sigma-objects"][0] == objects
    assert entries["exact.sigma-morphisms"] == ("fail", "basis 0 of Hom(M1,M1)")


def prod_pipeline():
    """fix_prod's tri-recollement with D = add(C1.M2): the exact data, the
    three sides' mutation pairs and the pipeline's report."""
    ws = build_fix_prod()
    rec = ws.recollements["R"]
    tris, exact, m = _tri_bundle(ws, "R", rec)
    out, rep = triangulated_quotient_recollement(rec, tris, exact, m)
    assert rep.ok_all
    return exact, {"left": out["m_left"], "middle": m, "right": out["m_right"]}, rep


def test_every_slot_checks_its_source_register():
    """The registers are TR1's (14/2/8 triangles), and each induced
    functor checks exactly the register of its source side."""
    _, sides, rep = prod_pipeline()
    assert [len(sides[k].registered) for k in ("middle", "left", "right")] == [14, 2, 8]
    for slot, (src, _) in FUNCTOR_SLOTS.items():
        [entry] = [e for e in rep.entries
                   if e.key == "exact.%s.exact.standard-triangle-image" % slot]
        assert entry.witness == "%d registered triangles checked" % len(sides[src].registered)


def test_induced_exact_functors_do_not_depend_on_slot_order():
    """The six induced functors, certified again in reverse slot order after
    the pipeline, give the pipeline's reports entry for entry."""
    exact, sides, rep = prod_pipeline()
    for slot, (src, tgt) in reversed(list(FUNCTOR_SLOTS.items())):
        _, sub = induced_exact_functor(exact[slot], sides[src], sides[tgt])
        prefix = "exact.%s." % slot
        assert [(e.key, e.status, e.witness) for e in sub.entries] == \
            [(e.key[len(prefix):], e.status, e.witness)
             for e in rep.entries if e.key.startswith(prefix)]


ROOT = Path(__file__).resolve().parent.parent


def test_triangulate_quotient_on_a_proper_z(tmp_path, capsys):
    """With z the first factor of fix_prod, the mutation restricts to a
    full subcategory before it quotients, and the certificate is the one of
    fix_stab3 under the names of that factor."""
    text = (ROOT / "src" / "rclkit" / "fixtures" / "fix_prod.rcl").read_text()
    assert "  z Zall\n" in text
    text = text.replace("  z Zall\n", "  z Z1\n").replace(
        "subcategory Zall {", "subcategory Z1 { of C members C1.M1 C1.M2 }\nsubcategory Zall {")
    src, out = tmp_path / "z1.rcl", tmp_path / "z1.cert"
    src.write_text(text)
    assert main(["triangulate-quotient", str(src), "--out", str(out)]) == 0
    capsys.readouterr()

    def lines(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("meta.input-digest ")]

    got = [line.replace("C1.", "").replace("c1_", "") for line in lines(out)]
    assert got == lines(ROOT / "tests" / "golden" / "triangulate-quotient.cert")
