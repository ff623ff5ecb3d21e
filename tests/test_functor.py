import gc
import weakref
from fractions import Fraction

from rclkit.category import Morphism
from rclkit.field import QQ
from rclkit.functor import (LinearFunctor, compose_functors, functor_equal,
                            functor_mismatches, identity_functor,
                            image_subcategory, is_full_embedding,
                            kernel_subcategory, non_full_pairs, validate_functor)
from rclkit.linalg import Mat


def test_identity_functor_valid(ws_a2):
    idf = identity_functor(ws_a2.categories["A2"])
    assert validate_functor(idf).ok_all
    assert image_subcategory(idf).members == ("S1", "S2", "P1")
    assert kernel_subcategory(idf).members == ()


def test_restriction_functor_valid(ws_a2):
    ju = ws_a2.functors["ju"]
    assert validate_functor(ju).ok_all
    assert ju.object_map["S1"] == ("W",)
    assert ju.object_map["S2"] == ()
    assert kernel_subcategory(ju).members == ("S2",)


def test_corrupted_hom_map_fails(ws_a2):
    ib = ws_a2.functors["ib"]
    hom_maps = dict(ib.hom_maps)
    hom_maps[("S2", "S2")] = Mat(QQ, 1, 1, [[Fraction(2)]])
    bad = LinearFunctor(ib.source, ib.target, ib.object_map, hom_maps, name="bad")
    rep = validate_functor(bad)
    assert not rep.ok_all
    assert any("S2" in (e.witness or "") for e in rep.failures())


def test_image_of_embedding(ws_a2):
    assert image_subcategory(ws_a2.functors["il"]).members == ("S2",)


def test_zero_functor_kernel_and_image(ws_a2):
    cat = ws_a2.categories["A2"]
    tgt = ws_a2.categories["ModKL"]
    zero = LinearFunctor(cat, tgt, {g: () for g in cat.generators},
                         {}, name="zero")
    assert validate_functor(zero).ok_all
    assert image_subcategory(zero).members == ()
    assert kernel_subcategory(zero).members == cat.generators


def test_kernel_image_monotone_under_composition(ws_a2):
    ju = ws_a2.functors["ju"]
    jl = ws_a2.functors["jl"]
    comp = compose_functors(jl, ju)
    assert set(kernel_subcategory(ju).members) <= set(kernel_subcategory(comp).members)
    assert set(image_subcategory(comp).members) <= set(image_subcategory(jl).members)


def test_functor_application_blockwise(ws_a2):
    cat = ws_a2.categories["A2"]
    ju = ws_a2.functors["ju"]
    obj = cat.obj("P1", "S2", "S1")
    assert ju.apply_obj(obj) == ("W", "W")
    ident = Morphism.identity(cat, obj)
    assert ju.apply(ident).equal(Morphism.identity(ju.target, ju.apply_obj(obj)))


def test_full_embedding_detection(ws_a2):
    assert is_full_embedding(ws_a2.functors["il"])
    assert is_full_embedding(ws_a2.functors["jb"])
    assert not is_full_embedding(ws_a2.functors["ju"])


def test_functor_mismatches_name_a_twisted_hom_space(ws_a2):
    ib = ws_a2.functors["ib"]
    hom_maps = dict(ib.hom_maps)
    hom_maps[("S2", "S2")] = Mat(QQ, 1, 1, [[Fraction(2)]])
    bad = LinearFunctor(ib.source, ib.target, ib.object_map, hom_maps, name="bad")
    assert list(functor_mismatches(ib, ib)) == []
    assert list(functor_mismatches(ib, bad)) == [("morphisms", "basis 0 of Hom(S2,S2)")]
    assert functor_equal(ib, ib) and not functor_equal(ib, bad)


def test_functor_mismatches_list_objects_before_morphisms(ws_stab3):
    """The shift of stable k[x]/(x^3) swaps M1 and M2, so against the
    identity every object differs, and so does every basis morphism."""
    shift = ws_stab3.triangulated["TC"].shift
    cat = shift.source
    found = list(functor_mismatches(shift, identity_functor(cat)))
    assert found[:2] == [("objects", "at M1: M2 vs M1"), ("objects", "at M2: M1 vs M2")]
    assert found[2:] == [("morphisms", "basis %d of Hom(%s,%s)" % (q, x, y))
                         for x in cat.generators for y in cat.generators
                         for q in range(cat.hom_dim(x, y))]


def test_non_full_pairs(ws_prod):
    """Zeroing the one-dimensional hom map of ju at (C2.M1, C2.M2) leaves
    that pair, and only it, not surjective."""
    ju = ws_prod.functors["ju"]
    assert list(non_full_pairs(ju)) == []
    hom_maps = dict(ju.hom_maps)
    hom_maps[("C2.M1", "C2.M2")] = Mat.zeros(QQ, 1, 1)
    bad = LinearFunctor(ju.source, ju.target, ju.object_map, hom_maps, name="bad")
    assert list(non_full_pairs(bad)) == [("C2.M1", "C2.M2")]


def test_composite_built_once_per_inner_functor(ws_a2):
    ju, jl, il = ws_a2.functors["ju"], ws_a2.functors["jl"], ws_a2.functors["il"]
    first = compose_functors(ju, jl)
    assert compose_functors(ju, jl) is first
    assert compose_functors(ju, il) is not first


def test_composite_cache_does_not_keep_the_inner_functor_alive(ws_a2):
    ju, jl = ws_a2.functors["ju"], ws_a2.functors["jl"]
    inner = LinearFunctor(jl.source, jl.target, jl.object_map, jl.hom_maps, name="copy")
    composite = compose_functors(ju, inner)
    assert composite.hom_maps == compose_functors(ju, jl).hom_maps
    alive = weakref.ref(inner)
    del inner
    gc.collect()
    assert alive() is None


def test_parsed_adjunctions_share_the_cached_composites(fixture_dir):
    from rclkit.workspace import parse
    ws = parse((fixture_dir / "fix_a2.rcl").read_text())
    assert ws.adjunctions
    for adj in ws.adjunctions.values():
        assert adj.unit.to_f is compose_functors(adj.right, adj.left)
        assert adj.counit.from_f is compose_functors(adj.left, adj.right)


def test_dropped_workspace_frees_its_categories_without_the_cycle_collector(fixture_dir):
    """No reference cycle holds a category, its identity functor or what
    they cache: with the cycle collector off, a workspace dropped after a
    check-recollement job frees its categories."""
    from rclkit.cli import run_command
    from rclkit.workspace import parse
    text = (fixture_dir / "fix_a2.rcl").read_text()
    gc.collect()
    gc.disable()
    try:
        ws = parse(text)
        assert run_command("check-recollement", ws, {}).passed
        refs = [weakref.ref(cat) for cat in ws.categories.values()]
        del ws
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()
