from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from rclkit import triangulated
from rclkit.category import (Morphism, Subcategory, compose, morphism_inverse, postcompose_mat,
                             precompose_mat)
from rclkit.field import QQ, PrimeField
from rclkit.fixture_gen import (_component_category, _component_shift, _embed_triangle,
                                _shift_functors, _stable_category, _stable_triangles,
                                _StableCore, build_fix_prod)
from rclkit.linalg import rank
from rclkit.triangulated import (Triangle, TriangulatedPresentation, identity_triangle,
                                 invertible_commuting_tuple, is_D_epic, is_D_monic)

from oracles import basis_element, candidate_combos


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
    soc = basis_element(cat, "M1", "M2", 0)
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
    proj = basis_element(cat, "M2", "M1", 0)
    assert is_D_epic(proj, d)
    zero = proj.scale(Fraction(0))
    assert not is_D_epic(zero, d)


def test_is_D_monic_examples(ws_stab3):
    cat = ws_stab3.categories["STAB"]
    d = Subcategory(cat, ["M2"])
    soc = basis_element(cat, "M1", "M2", 0)
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
def presentation(name, field=QQ):
    """stab<m> (m copies of stable k[x]/(x^3), each with fix_stab3's
    triangles) or fix_prod's middle presentation, over field."""
    if name == "fix_prod":
        return build_fix_prod(field).triangulated["TRI_C"]
    core = _StableCore(field)
    prefixes = tuple("C%d." % i for i in range(1, int(name[4:]) + 1))
    cat = _component_category(field, core, prefixes, "C")
    shift, shift_inv = _component_shift(field, core, cat, prefixes, "TC")
    base = _stable_category(field, core)
    core_triangles = _stable_triangles(field, core, base,
                                       _shift_functors(field, core, base)[0])
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


# -- the rank profile that prunes complete_monic ----------------------------

GF3 = PrimeField(3)


@st.composite
def first_maps(draw):
    """(presentation, f) over QQ or GF(3): f runs between the first two
    vertices of a sum of one or two atoms, and is either that sum's first
    map, scaled, or has random coordinates in {-1, 0, 1}."""
    field = draw(st.sampled_from((QQ, GF3)))
    tri = presentation(draw(st.sampled_from(("stab1", "stab2", "fix_prod"))), field)
    t = tri.direct_sum(draw(st.lists(st.sampled_from(tri.atoms()), min_size=1, max_size=2)))
    if draw(st.booleans()):
        return tri, t.f.scale(field.of_int(draw(st.sampled_from((1, 2)))))
    n = len(t.f.coords)
    coords = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    return tri, Morphism(tri.cat, t.f.source, t.f.target, map(field.of_int, coords))


def direct_rank_profile(f):
    """The ranks of Hom(G, f) and Hom(f, G), read off the matrices of f."""
    return tuple(rank(hom_mat(f, (g,))) for g in f.cat.generators
                 for hom_mat in (postcompose_mat, precompose_mat))


@settings(max_examples=60, deadline=None)
@given(first_maps())
def test_rank_profile_rules_out_only_sums_without_an_isomorphism(query):
    """A candidate sum's profile, summed over its atoms, is the profile of
    its first map; every sum whose profile differs from f's has no
    isomorphism of first maps onto f, which the search decides without a
    morphism_inverse call; and complete_monic gives the same
    triangle as a run that searches every candidate."""
    tri, f = query
    want = tri._rank_profile(f)
    assert want == direct_rank_profile(f)
    for combo in tri._candidate_combos((f.source, f.target)):
        if not combo:
            continue
        ts = tri.direct_sum(combo)
        profile = tuple(map(sum, zip(*(tri._rank_profile(a.f) for a in combo))))
        assert profile == direct_rank_profile(ts.f)
        if profile != want:
            inverses = []
            triangulated.morphism_inverse = lambda m: inverses.append(m) or morphism_inverse(m)
            try:
                assert invertible_commuting_tuple(
                    tri.cat, ((f.source, ts.x), (f.target, ts.y)),
                    ((postcompose_mat(ts.f, f.source), 0, precompose_mat(f, ts.y), 1),)) is None
            finally:
                triangulated.morphism_inverse = morphism_inverse
            assert inverses == []  # the None is decided without an inverse
    pruned = tri.complete_monic(f)
    tri._rank_profile = lambda f: ()  # every sum has the one empty profile
    try:
        unpruned = tri.complete_monic(f)
    finally:
        del tri._rank_profile
    assert (pruned is None) == (unpruned is None)
    assert pruned is None or pruned.data_equal(unpruned)
