"""Failing inputs for the checks that no other test drives to `fail`.

Each test asserts the failing key, its witness, and that no pass entry
carries that key.  Inputs are perturbed fixtures; where a check can fail
only on an engine bug, the test patches the engine and its docstring says
so."""

from fractions import Fraction

from rclkit import mutation, recollement
from rclkit.adjunction import make_adjunction, validate_adjunction
from rclkit.category import Morphism, Subcategory
from rclkit.cli import _tri_bundle
from rclkit.field import QQ
from rclkit.fixture_gen import build_fix_a2, build_fix_prod
from rclkit.functor import LinearFunctor, NatTransform, compose_functors, identity_functor
from rclkit.linalg import Mat
from rclkit.mutation import (ExactFunctorData, MutationData, check_mutation_pair,
                             image_mutation_pair, triangulated_quotient_recollement,
                             verify_quotient_triangulation)
from rclkit.recollement import (Recollement, check_recollement, lift_subcategory_pair,
                                quotient_recollement)
from rclkit.report import Report
from rclkit.triangulated import Triangle, TriangulatedPresentation
from rclkit.workspace import parse


def entries(rep, key):
    """The (status, witness) of every entry under exactly key."""
    return [(e.status, e.witness) for e in rep.entries if e.key == key]


def assert_fails(rep, key, *witnesses):
    assert entries(rep, key) == [("fail", w) for w in witnesses]


def assert_no_pass(rep, key):
    assert ("pass", key) not in {(e.status, e.key) for e in rep.entries}


# -- triangulated presentations ------------------------------------------

def test_a_shift_inverse_that_is_not_inverse_fails(ws_stab3):
    """The identity is not inverse to the shift of stab k[x]/(x^3), which
    swaps M1 and M2."""
    tri = ws_stab3.triangulated["TC"]
    bad = TriangulatedPresentation(tri.cat, tri.shift, identity_functor(tri.cat),
                                   tri.triangles)
    rep = bad.validate()
    assert_fails(rep, "tri.shift.strict-inverse", "T o T^-1 or T^-1 o T is not Id")
    assert_no_pass(rep, "tri.shift.strict-inverse")


def test_a_triangle_whose_maps_miss_its_vertices_fails(ws_stab3):
    """t1 with first vertex M1 + M1: its first map still starts at M1."""
    tri = ws_stab3.triangulated["TC"]
    t = tri.triangles[0]
    bad = Triangle(t.x + t.x, t.y, t.z, t.f, t.g, t.h, name="bad")
    rep = TriangulatedPresentation(tri.cat, tri.shift, tri.shift_inv, (bad,)).validate()
    assert_fails(rep, "tri.triangle.bad.boundaries", "maps do not match the vertices")
    assert_no_pass(rep, "tri.triangle.bad")


def test_a_triangle_with_nonzero_composites_names_each(ws_stab3):
    """(M1, M1, M2, 1, u, 1) with u spanning Hom(M1, M2): g o f = u,
    h o g = u and T(f) o h = 1 are all nonzero."""
    tri = ws_stab3.triangulated["TC"]
    cat = tri.cat
    one = Morphism.identity(cat, ("M1",))
    u = Morphism(cat, ("M1",), ("M2",), (Fraction(1),))
    bad = Triangle(("M1",), ("M1",), ("M2",), one, u, Morphism.identity(cat, ("M2",)),
                   name="bad")
    rep = TriangulatedPresentation(cat, tri.shift, tri.shift_inv, (bad,)).validate()
    assert_fails(rep, "tri.triangle.bad.composite",
                 "g o f != 0", "h o g != 0", "T(f) o h != 0")
    assert_no_pass(rep, "tri.triangle.bad")


def test_a_presentation_without_triangles_misses_the_identity_triangles(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    rep = TriangulatedPresentation(tri.cat, tri.shift, tri.shift_inv, ()).validate()
    assert_fails(rep, "tri.identity-closure", "identity triangle of M1 not found",
                 "identity triangle of M2 not found")
    assert_no_pass(rep, "tri.identity-closure")


# -- mutation pairs --------------------------------------------------------

def d_outside_z(ws):
    """stab k[x]/(x^3) with z = add(M1) and d = add(M2)."""
    mu = ws.mutations["MU"]
    cat = mu.tri.cat
    return MutationData(mu.tri, Subcategory(cat, ["M1"]), Subcategory(cat, ["M2"]),
                        {"M1": mu.fixed["M1"]})


def test_d_outside_z_fails(ws_stab3):
    """t1 = (M1, M2, M1) also has its middle term outside z = add(M1)."""
    rep = check_mutation_pair(d_outside_z(ws_stab3))
    assert_fails(rep, "structure.d-in-z", "members ['M2'] outside z")
    assert_fails(rep, "extension-closed", "triangle t1 has middle term outside z")
    for key in ("structure.d-in-z", "extension-closed"):
        assert_no_pass(rep, key)


def test_a_z_member_without_a_fixed_triangle_fails(ws_stab3):
    mu = ws_stab3.mutations["MU"]
    rep = check_mutation_pair(MutationData(mu.tri, mu.z, mu.d, {"M2": mu.fixed["M2"]}))
    assert_fails(rep, "condition1.M1", "no fixed triangle")
    assert_no_pass(rep, "condition1.M1")


def test_a_sigma_that_merges_classes_fails(ws_stab3):
    """sigma is built from the fixed triangles, and on a mutation pair it is
    an equivalence; the test patches the engine by replacing it with the
    diagonal M1 -> M1 + M1, which is no bijection of isomorphism classes and
    not full on End(M1)."""
    mu = ws_stab3.mutations["MU"]
    m = MutationData(mu.tri, mu.z, mu.d, mu.fixed)
    pres = m.quotient.presentation
    m._sigma = LinearFunctor(pres, pres, {"M1": ("M1", "M1")},
                             {("M1", "M1"): Mat.column(QQ, (1, 0, 0, 1))}, name="diagonal")
    rep = Report()
    mutation._sigma_is_equivalence(m, rep)
    assert_fails(rep, "sigma.fully-faithful", "Hom(M1,M1)")
    assert_fails(rep, "sigma.object-bijection",
                 "object map is not a bijection of isomorphism classes")
    for key in ("sigma.fully-faithful", "sigma.object-bijection"):
        assert_no_pass(rep, key)


def test_sigma_without_a_shift_ladder_fails(ws_stab3, monkeypatch):
    """On a mutation pair every shift ladder exists; the test patches the
    engine so that none does, and building sigma fails."""
    mu = ws_stab3.mutations["MU"]
    monkeypatch.setattr(mutation, "_ladder", lambda *args: None)
    rep = verify_quotient_triangulation(MutationData(mu.tri, mu.z, mu.d, mu.fixed))
    assert_fails(rep, "sigma", "no shift ladder for M1 -> M1")
    assert_no_pass(rep, "sigma")


def test_a_registered_triangle_with_nonzero_composites_fails(ws_stab3):
    """The register holds only standard triangles, whose composites vanish;
    the test hands `_check_triangles` the quotient sextuple
    (M1, M1, M1, 1, 1, 1) instead of a register."""
    mu = ws_stab3.mutations["MU"]
    m1 = ("M1",)
    one = Morphism.identity(mu.quotient.presentation, m1)
    rep = mutation._check_triangles(mu, (Triangle(m1, m1, m1, one, one, one, name="bad"),))
    assert_fails(rep, "composites.zero", "bad: second o first != 0",
                 "bad: third o second != 0")
    assert_no_pass(rep, "composites.zero")


def test_exact_data_on_other_presentations_fails(ws_stab3, ws_prod):
    tri = ws_stab3.triangulated["TC"]
    e = ExactFunctorData(identity_functor(tri.cat), ws_prod.triangulated["TRI_C"], tri, None)
    rep = e.validate()
    assert_fails(rep, "exact.boundaries", "functor does not match the presentations")
    assert_no_pass(rep, "exact.boundaries")


def test_exact_data_on_a_functor_that_is_not_full_fails(ws_prod):
    ju = ws_prod.functors["ju"]
    hom_maps = {**ju.hom_maps, ("C2.M1", "C2.M2"): Mat.zeros(QQ, 1, 1)}
    bad = LinearFunctor(ju.source, ju.target, ju.object_map, hom_maps, name="bad")
    rep = ExactFunctorData(bad, ws_prod.triangulated["TRI_C"],
                           ws_prod.triangulated["TRI_R"], None).validate()
    assert_fails(rep, "exact.full", "Hom map (C2.M1,C2.M2) not surjective")
    assert_no_pass(rep, "exact.full")


def test_a_zero_shift_iso_is_natural_but_not_invertible(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    F = identity_functor(tri.cat)
    ft, tf = compose_functors(F, tri.shift), compose_functors(tri.shift, F)
    zero = NatTransform(ft, tf, {g: Morphism.zero(tri.cat, ft.object_map[g], tf.object_map[g])
                                 for g in tri.cat.generators})
    rep = ExactFunctorData(F, tri, tri, zero, name="zero").validate()
    assert entries(rep, "exact.shift-iso.natural") == [("pass", "")]
    assert_fails(rep, "exact.shift-iso.invertible", "at M1")
    assert_no_pass(rep, "exact.shift-iso.invertible")


def test_the_push_of_a_pair_with_d_outside_z_fails(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    e = ExactFunctorData(identity_functor(tri.cat), tri, tri, None, name="id")
    m2, rep = image_mutation_pair(e, d_outside_z(ws_stab3))
    assert m2 is not None
    assert entries(rep, "image.structure.d-in-z")[0][0] == "fail"
    assert_fails(rep, "push.image-is-mutation-pair", "pushed pair fails the mutation-pair check")
    assert_no_pass(rep, "push.image-is-mutation-pair")


def test_an_approximating_subcategory_outside_the_closed_image_fails():
    """fix_prod's i_lo with L.M2 sent to zero: D = add(C1.M2) lies in
    Ker j_up, but no left generator maps onto it."""
    ws = build_fix_prod()
    rec = ws.recollements["R"]
    tris, exact, m = _tri_bundle(ws, "R", rec)
    il = rec.i_lo
    cut = LinearFunctor(il.source, il.target, {"L.M1": ("C1.M1",), "L.M2": ()},
                        {("L.M1", "L.M1"): il.hom_maps[("L.M1", "L.M1")]}, name="cut")
    _, rep = triangulated_quotient_recollement(Recollement(**{**vars(rec), "i_lo": cut}),
                                               tris, exact, m)
    assert_fails(rep, "preimage-subcategory",
                 "no left subcategory maps onto the approximating one")
    assert_no_pass(rep, "preimage-subcategory")
    # The adjunctions still hold the old i_lo, so the additive quotient stops.
    assert_fails(rep, "additive.hypotheses",
                 "adjunction functors differ from the diagram (adj_i)")


def test_a_mutation_pair_on_part_of_the_middle_fails():
    ws = build_fix_prod()
    rec = ws.recollements["R"]
    tris, exact, m = _tri_bundle(ws, "R", rec)
    part = MutationData(m.tri, Subcategory(m.tri.cat, ["C1.M1", "C1.M2"]), m.d, m.fixed)
    out, rep = triangulated_quotient_recollement(rec, tris, exact, part)
    assert out is None
    assert_fails(rep, "precondition.z-is-everything",
                 "mutation data does not cover the whole middle category")
    assert_no_pass(rep, "precondition.z-is-everything")


# End(X) = k x k: the functor X -> Y1 + Y2 that sends the two idempotents to
# the two identities is full, but no generator maps onto Y1 alone.
SPLIT = """rclkit workspace 1

field { kind rationals }

category S {
  object X
  hom X X { basis e1 e2 }
  identity X { e1 1 e2 1 }
  compose (X X e1) (X X e1) { e1 1 }
  compose (X X e2) (X X e2) { e2 1 }
}

category B {
  object Y1
  object Y2
  hom Y1 Y1 { basis e }
  hom Y2 Y2 { basis e }
  identity Y1 { e 1 }
  identity Y2 { e 1 }
  compose (Y1 Y1 e) (Y1 Y1 e) { e 1 }
  compose (Y2 Y2 e) (Y2 Y2 e) { e 1 }
}
"""


def test_the_push_through_a_full_functor_onto_a_sum_is_not_dense():
    ws = parse(SPLIT)
    src, tgt = ws.categories["S"], ws.categories["B"]
    split = LinearFunctor(src, tgt, {"X": ("Y1", "Y2")}, {("X", "X"): Mat.identity(QQ, 2)},
                          name="split")
    tris = [TriangulatedPresentation(c, identity_functor(c), identity_functor(c), ())
            for c in (src, tgt)]
    m = MutationData(tris[0], Subcategory(src, ["X"]), Subcategory(src, []), {})
    m2, rep = image_mutation_pair(ExactFunctorData(split, *tris, None), m)
    assert m2 is None
    assert_fails(rep, "push.dense", "no source generator maps onto Y1")
    assert_no_pass(rep, "push.dense")


def test_an_induced_functor_that_breaks_a_standard_triangle_fails():
    """fix_prod's i_bang with its map Hom(C1.M1, C1.M2) doubled: the images
    of two zero-class standard triangles are not standard."""
    ws = build_fix_prod()
    rec = ws.recollements["R"]
    tris, exact, m = _tri_bundle(ws, "R", rec)
    e = exact["i_bang"]
    hom_maps = {**e.functor.hom_maps, ("C1.M1", "C1.M2"): Mat(QQ, 1, 1, [[Fraction(2)]])}
    doubled = LinearFunctor(e.functor.source, e.functor.target, e.functor.object_map,
                            hom_maps, name="doubled")
    exact = {**exact, "i_bang": ExactFunctorData(doubled, e.source_tri, e.target_tri, None)}
    _, rep = triangulated_quotient_recollement(rec, tris, exact, m)
    key = "exact.i_bang.exact.standard-triangle-image"
    assert_fails(rep, key, "tr1.C1.M1-C2.M1.zero", "tr1.C1.M1-C2.M2.zero")
    assert_no_pass(rep, key)


def test_an_induced_functor_that_moves_the_approximating_subcategory_fails():
    """i_lo with L.M1 and L.M2 swapped sends the left D = add(L.M2) to C1.M1,
    outside D = add(C1.M2)."""
    ws = build_fix_prod()
    rec = ws.recollements["R"]
    tris, exact, m = _tri_bundle(ws, "R", rec)
    e = exact["i_lo"]
    one = Mat(QQ, 1, 1, [[Fraction(1)]])
    swap = LinearFunctor(e.functor.source, e.functor.target,
                         {"L.M1": ("C1.M2",), "L.M2": ("C1.M1",)},
                         {key: one for key in e.functor.hom_maps}, name="swap")
    exact = {**exact, "i_lo": ExactFunctorData(swap, e.source_tri, e.target_tri, None)}
    _, rep = triangulated_quotient_recollement(rec, tris, exact, m)
    assert_fails(rep, "exact.i_lo",
                 "functor does not preserve the approximating subcategories")
    assert_no_pass(rep, "exact.i_lo")


# -- recollements ----------------------------------------------------------

def test_a_counit_scaled_by_two_breaks_both_triangle_identities(ws_a2):
    adj = ws_a2.adjunctions["adj_i"]
    counit = {g: c.scale(Fraction(2)) for g, c in adj.counit.components.items()}
    rep = validate_adjunction(make_adjunction(adj.left, adj.right, adj.unit.components,
                                              counit, name="doubled"))
    assert_fails(rep, "triangle.left", "at generator S2")
    assert_fails(rep, "triangle.right", "at generator V")
    assert_no_pass(rep, "triangle.right")


def test_an_embedding_with_a_zero_hom_map_fails_r2(ws_a2):
    rec = ws_a2.recollements["R"]
    il = rec.i_lo
    zeroed = LinearFunctor(il.source, il.target, il.object_map,
                           {("V", "V"): Mat.zeros(QQ, 1, 1)}, name="zeroed")
    rep = check_recollement(Recollement(**{**vars(rec), "i_lo": zeroed}))
    assert_fails(rep, "r2.i_lo", "Hom(V,V): 1x1 of rank 0")
    assert_no_pass(rep, "r2.i_lo")


# The path category P -> T -> S with both outer parts k, glued by four valid
# adjunctions whose embedded composites are identities, but with
# Im i_lo = {T} != Ker j_up = {}: not a recollement, and the lift cannot
# recover either outer subcategory.
NOT_A_RECOLLEMENT = """rclkit workspace 1

field { kind rationals }

category A3 {
  object P
  object T
  object S
  hom P P { basis e }
  hom T T { basis e }
  hom S S { basis e }
  hom P T { basis a }
  hom T S { basis b }
  hom P S { basis c }
  identity P { e 1 }
  identity T { e 1 }
  identity S { e 1 }
  compose (P P e) (P P e) { e 1 }
  compose (T T e) (T T e) { e 1 }
  compose (S S e) (S S e) { e 1 }
  compose (P T a) (P P e) { a 1 }
  compose (T T e) (P T a) { a 1 }
  compose (T S b) (T T e) { b 1 }
  compose (S S e) (T S b) { b 1 }
  compose (P S c) (P P e) { c 1 }
  compose (S S e) (P S c) { c 1 }
  compose (T S b) (P T a) { c 1 }
}

category KL {
  object V
  hom V V { basis e }
  identity V { e 1 }
  compose (V V e) (V V e) { e 1 }
}

category KR {
  object W
  hom W W { basis e }
  identity W { e 1 }
  compose (W W e) (W W e) { e 1 }
}

functor iu {
  source A3
  target KL
  object P -> V
  object T -> V
  object S -> 0
  map (P P e) -> { (0 0) { e 1 } }
  map (T T e) -> { (0 0) { e 1 } }
  map (P T a) -> { (0 0) { e 1 } }
}

functor il {
  source KL
  target A3
  object V -> T
  map (V V e) -> { (0 0) { e 1 } }
}

functor ib {
  source A3
  target KL
  object P -> 0
  object T -> V
  object S -> V
  map (T T e) -> { (0 0) { e 1 } }
  map (S S e) -> { (0 0) { e 1 } }
  map (T S b) -> { (0 0) { e 1 } }
}

functor jb {
  source KR
  target A3
  object W -> P
  map (W W e) -> { (0 0) { e 1 } }
}

functor ju {
  source A3
  target KR
  object P -> W
  object T -> W
  object S -> W
  map (P P e) -> { (0 0) { e 1 } }
  map (T T e) -> { (0 0) { e 1 } }
  map (S S e) -> { (0 0) { e 1 } }
  map (P T a) -> { (0 0) { e 1 } }
  map (T S b) -> { (0 0) { e 1 } }
  map (P S c) -> { (0 0) { e 1 } }
}

functor jl {
  source KR
  target A3
  object W -> S
  map (W W e) -> { (0 0) { e 1 } }
}

nattrans u_i {
  from id A3
  to il * iu
  at P -> { (0 0) { a 1 } }
  at T -> { (0 0) { e 1 } }
}

nattrans c_i {
  from iu * il
  to id KL
  at V -> { (0 0) { e 1 } }
}

nattrans u_ib {
  from id KL
  to ib * il
  at V -> { (0 0) { e 1 } }
}

nattrans c_ib {
  from il * ib
  to id A3
  at T -> { (0 0) { e 1 } }
  at S -> { (0 0) { b 1 } }
}

nattrans u_jb {
  from id KR
  to ju * jb
  at W -> { (0 0) { e 1 } }
}

nattrans c_jb {
  from jb * ju
  to id A3
  at P -> { (0 0) { e 1 } }
  at T -> { (0 0) { a 1 } }
  at S -> { (0 0) { c 1 } }
}

nattrans u_j {
  from id A3
  to jl * ju
  at P -> { (0 0) { c 1 } }
  at T -> { (0 0) { b 1 } }
  at S -> { (0 0) { e 1 } }
}

nattrans c_j {
  from ju * jl
  to id KR
  at W -> { (0 0) { e 1 } }
}

adjunction adj_i { left iu right il unit u_i counit c_i }
adjunction adj_ib { left il right ib unit u_ib counit c_ib }
adjunction adj_j { left ju right jl unit u_j counit c_j }
adjunction adj_jb { left jb right ju unit u_jb counit c_jb }

recollement R {
  left KL
  middle A3
  right KR
  i_up iu
  i_lo il
  i_bang ib
  j_bang jb
  j_up ju
  j_lo jl
  adj_i adj_i
  adj_ib adj_ib
  adj_jb adj_jb
  adj_j adj_j
}
"""


def test_the_lift_on_a_non_recollement_recovers_neither_side():
    """Every generator of A3 has a nonzero image under j_up and under one
    of i_up, i_bang, so the lift of (V, 0) and of (0, W) is zero."""
    ws = parse(NOT_A_RECOLLEMENT)
    rec = ws.recollements["R"]
    kl, kr = ws.categories["KL"], ws.categories["KR"]
    assert entries(check_recollement(rec), "r3")[0][0] == "fail"
    for xp, xpp, key, witness in (
            (["V"], [], "recovers-left", "i_up(x) = {} != {V}"),
            ([], ["W"], "recovers-right", "j_up(x) = {} != {W}")):
        x, _, rep = lift_subcategory_pair(rec, Subcategory(kl, xp), Subcategory(kr, xpp))
        assert x.members == ()
        assert_fails(rep, key, witness)
        assert_no_pass(rep, key)


def test_a_verdict_that_disagrees_with_the_predicate_fails(monkeypatch):
    """x = everything of fix_a2 is not inside Ker j_up, so the strict
    reading must fail r3.  The test patches the engine: with the Im = Ker
    comparison blinded, r3 passes and the verdict no longer matches."""
    monkeypatch.setattr(recollement, "_im_ker_mismatch", lambda *args: "")
    ws = build_fix_a2()
    cat = ws.categories["A2"]
    _, rep = quotient_recollement(ws.recollements["R"], Subcategory(cat, cat.generators))
    assert entries(rep, "predicate.x-in-ker-j_up") == [("info", "false")]
    assert_fails(rep, "iff-consistency", "verdict True but predicate False")
    assert_no_pass(rep, "iff-consistency")
