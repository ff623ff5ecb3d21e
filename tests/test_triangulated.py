from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from rclkit.category import Morphism, Subcategory, compose
from rclkit.field import QQ
from rclkit.fixture_gen import (_component_category, _component_shift, _embed_triangle,
                                _shift_functors, _stable_category, _stable_triangles,
                                _StableCore, build_fix_prod)
from rclkit.triangulated import (Triangle, TriangulatedPresentation, identity_triangle,
                                 is_D_epic, is_D_monic)

from oracles import candidate_combos


def test_presentation_validates(ws_stab3):
    assert ws_stab3.triangulated["TC"].validate().ok_all


def test_shift_swaps_generators(ws_stab3):
    t = ws_stab3.functors["T"]
    assert t.object_map["M1"] == ("M2",)
    assert t.object_map["M2"] == ("M1",)


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
    bogus = Triangle(m1, (), m1,
                     Morphism.zero(cat, m1, ()),
                     Morphism.zero(cat, (), m1),
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
    assert is_D_epic(ident, d)
    proj = Morphism.basis_element(cat, "M2", "M1", 0)
    assert is_D_epic(proj, d)
    zero = proj.scale(Fraction(0))
    assert not is_D_epic(zero, d)


def test_is_D_monic_examples(ws_stab3):
    cat = ws_stab3.categories["STAB"]
    d = Subcategory(cat, ["M2"])
    soc = Morphism.basis_element(cat, "M1", "M2", 0)
    assert is_D_monic(soc, d)
    assert not is_D_monic(soc.scale(Fraction(0)), d)


def test_product_presentation_validates(ws_prod):
    assert ws_prod.triangulated["TRI_C"].validate().ok_all
    assert ws_prod.triangulated["TRI_L"].validate().ok_all
    assert ws_prod.triangulated["TRI_R"].validate().ok_all


def test_exact_data_validates(ws_prod):
    for name in ("ex_iu", "ex_il", "ex_ib", "ex_jb", "ex_ju", "ex_jl"):
        rep = ws_prod.exactdata[name].validate()
        assert rep.ok_all, (name, [str(e) for e in rep.failures()])


# -- the combination enumerator against the unmemoized recursion -------------

@lru_cache(maxsize=None)
def presentation(name):
    """stab<m> (m copies of stable k[x]/(x^3), each with fix_stab3's
    triangles) or fix_prod's middle presentation, over QQ."""
    if name == "fix_prod":
        return build_fix_prod().triangulated["TRI_C"]
    core = _StableCore(QQ)
    prefixes = tuple("C%d." % i for i in range(1, int(name[4:]) + 1))
    cat = _component_category(QQ, core, prefixes, "C")
    shift, shift_inv = _component_shift(QQ, core, cat, prefixes, "TC")
    base = _stable_category(QQ, core)
    core_triangles = _stable_triangles(QQ, core, base, _shift_functors(QQ, core, base)[0])
    return TriangulatedPresentation(cat, shift, shift_inv,
                                    [_embed_triangle(cat, shift, t, p, p + t.name)
                                     for p in prefixes for t in core_triangles])


@st.composite
def vertex_queries(draw):
    """(presentation, vertices): k = 2 or 3 objects, each the matching vertex
    of a sum of up to three atoms, the zero object or a random sum of up to
    three generators, with its summands shuffled."""
    tri = presentation(draw(st.sampled_from(("stab1", "stab2", "stab3", "fix_prod"))))
    k = draw(st.sampled_from((2, 3)))
    atoms = draw(st.lists(st.sampled_from(tri.atoms()), max_size=3))
    gens = st.sampled_from(tri.cat.generators)
    objs = []
    for i in range(k):
        kind = draw(st.sampled_from(("atoms", "atoms", "zero", "generators")))
        if kind == "atoms":
            summands = [g for a in atoms for g in a.vertices()[i]]
        elif kind == "zero":
            summands = []
        else:
            summands = draw(st.lists(gens, max_size=3))
        objs.append(tuple(draw(st.permutations(summands))))
    return tri, tuple(objs)


@settings(max_examples=150, deadline=None)
@given(vertex_queries())
def test_candidate_combos_match_the_unmemoized_recursion(query):
    tri, objs = query
    found = tri._candidate_combos(objs)
    assert [[id(a) for a in c] for c in found] == \
        [[id(a) for a in c] for c in candidate_combos(tri, objs)]
    again = tri._candidate_combos(tuple(o[::-1] for o in objs))
    assert again == found
