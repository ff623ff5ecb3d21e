import random
from fractions import Fraction

from rclkit.category import Morphism, ObjectExpr, Subcategory, compose
from rclkit.field import QQ
from rclkit.linalg import candidate_stream
from rclkit.triangulated import (Triangle, canonical_left_approximation,
                                 canonical_right_approximation, identity_triangle,
                                 is_D_epic, is_D_monic)


def test_presentation_validates(ws_stab3):
    assert ws_stab3.triangulated["TC"].validate().ok_all


def test_shift_swaps_generators(ws_stab3):
    t = ws_stab3.functors["T"]
    assert t.object_map["M1"].summands == ("M2",)
    assert t.object_map["M2"].summands == ("M1",)


def test_identity_triangles_in_closure(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    for g in tri.cat.generators:
        assert tri.membership(identity_triangle(tri, g)) is not None


def test_sum_of_triangles_in_closure(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    t1 = tri.triangles[0]
    double = tri.direct_sum([t1, t1])
    assert tri.membership(double) is not None


def test_scaled_triangle_membership(ws_stab3):
    """A sextuple isomorphic to a basic one (conjugated by -1) is a member."""
    tri = ws_stab3.triangulated["TC"]
    t1 = tri.triangles[0]
    twisted = Triangle(t1.x, t1.y, t1.z,
                       t1.f.scale(Fraction(-1)), t1.g.scale(Fraction(-1)),
                       t1.h, name="twisted")
    assert tri.membership(twisted) is not None


def test_non_triangle_rejected(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    cat = tri.cat
    m1 = cat.obj("M1")
    bogus = Triangle(m1, ObjectExpr(()), m1,
                     Morphism.zero(cat, m1, ObjectExpr(())),
                     Morphism.zero(cat, ObjectExpr(()), m1),
                     Morphism.zero(cat, m1, cat.obj("M2")), name="bogus")
    # (M1, 0, M1, 0, 0, 0) has no invertible connecting map, so it is not
    # isomorphic to any sum of rotations.
    assert tri.membership(bogus) is None


def test_complete_monic(ws_stab3):
    tri = ws_stab3.triangulated["TC"]
    cat = tri.cat
    soc = Morphism.basis_element(cat, "M1", "M2", 0)
    done = tri.complete_monic(soc)
    assert done is not None
    assert done.f.equal(soc)
    assert tri.membership(done) is not None
    assert compose(done.g, done.f).is_zero()
    assert compose(done.h, done.g).is_zero()


def test_is_D_epic_examples(ws_stab3):
    cat = ws_stab3.categories["STAB"]
    d = Subcategory(cat, ["M2"])
    ident = Morphism.identity(cat, cat.obj("M1"))
    assert is_D_epic(cat, ident, d)
    proj = Morphism.basis_element(cat, "M2", "M1", 0)
    assert is_D_epic(cat, proj, d)
    zero = proj.scale(Fraction(0))
    assert not is_D_epic(cat, zero, d)


def test_is_D_monic_examples(ws_stab3):
    cat = ws_stab3.categories["STAB"]
    d = Subcategory(cat, ["M2"])
    soc = Morphism.basis_element(cat, "M1", "M2", 0)
    assert is_D_monic(cat, soc, d)
    assert not is_D_monic(cat, soc.scale(Fraction(0)), d)


def test_canonical_right_approximation(ws_stab3):
    cat = ws_stab3.categories["STAB"]
    d = Subcategory(cat, ["M2"])
    f = canonical_right_approximation(cat, cat.obj("M1"), d)
    assert f.source.summands == ("M2",)
    assert is_D_epic(cat, f, d)
    # an object already inside: includes the identity summand
    f2 = canonical_right_approximation(cat, cat.obj("M2"), d)
    assert is_D_epic(cat, f2, d)
    # empty approximating class: the map from the zero object
    f3 = canonical_right_approximation(cat, cat.obj("M1"), Subcategory(cat, []))
    assert f3.source.is_zero()
    assert is_D_epic(cat, f3, Subcategory(cat, []))


def test_canonical_left_approximation(ws_stab3):
    cat = ws_stab3.categories["STAB"]
    d = Subcategory(cat, ["M2"])
    f = canonical_left_approximation(cat, cat.obj("M1"), d)
    assert f.target.summands == ("M2",)
    assert is_D_monic(cat, f, d)


def test_product_presentation_validates(ws_prod):
    assert ws_prod.triangulated["TRI_C"].validate().ok_all
    assert ws_prod.triangulated["TRI_L"].validate().ok_all
    assert ws_prod.triangulated["TRI_R"].validate().ok_all


def test_exact_data_validates(ws_prod):
    for name in ("ex_iu", "ex_il", "ex_ib", "ex_jb", "ex_ju", "ex_jl"):
        rep = ws_prod.exactdata[name].validate()
        assert rep.ok_all, (name, [str(e) for e in rep.failures()])


def test_candidate_stream_order():
    one, zero = Fraction(1), Fraction(0)
    basis = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    stream = list(candidate_stream(QQ, basis, 20240811, 4))
    assert stream[:3] == basis
    assert stream[3:6] == [(one, one, zero), (one, zero, one), (zero, one, one)]
    assert 0 < len(stream[6:]) <= 4
    assert stream == list(candidate_stream(QQ, basis, 20240811, 4))


def test_candidate_stream_seeded_draws_skip_zero():
    # With a one-vector basis every draw is (c,) for one pool scalar c, so
    # the draws are the nonzero picks of the seeded generator, in order.
    tries = 40
    pool = QQ.sample_scalars() + [QQ.zero]
    rng = random.Random(7042)
    picks = [pool[rng.randrange(len(pool))] for _ in range(tries)]
    stream = list(candidate_stream(QQ, [(Fraction(1),)], 7042, tries))
    assert stream[0] == (Fraction(1),)
    assert stream[1:] == [(c,) for c in picks if c != 0]
    assert len(stream[1:]) < tries
    assert list(candidate_stream(QQ, [], 7042, tries)) == [()]
