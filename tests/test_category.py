import random
from fractions import Fraction

import pytest

from rclkit.category import (FinLinCategory, Morphism, Subcategory, block_diagonal,
                             compose, hom_dim_expr, ideal_subspace, is_isomorphic,
                             validate_category)
from rclkit.errors import PresentationError
from rclkit.field import QQ, PrimeField
from rclkit.fixture_gen import (_StableCore, _component_category, build_fix_a2,
                                build_fix_prod)

from oracles import basis_element, brute_force_isomorphic, from_blocks


def test_validate_single_generator():
    cat = FinLinCategory(QQ, ["G"], {("G", "G"): ("e",)},
                         {("G", "G", "G"): [[(Fraction(1),)]]},
                         {"G": (Fraction(1),)})
    assert validate_category(cat).ok_all


def test_validate_fixture(ws_a2):
    assert validate_category(ws_a2.categories["A2"]).ok_all


def test_corrupted_composition_fails(ws_a2):
    cat = ws_a2.categories["A2"]
    comp = {k: [[list(vec) for vec in row] for row in v] for k, v in cat.comp.items()}
    # soc then the P1 endomorphism should still be soc; corrupt it
    comp[("S2", "P1", "P1")][0][0] = (Fraction(2),)
    bad = FinLinCategory(cat.field, cat.generators, cat.hom_bases, comp,
                         cat.identities, name="bad")
    rep = validate_category(bad)
    assert not rep.ok_all
    assert rep.has_failures("identity") or rep.has_failures("associativity")


def test_hom_space_dims(ws_a2):
    cat = ws_a2.categories["A2"]
    assert hom_dim_expr(cat, cat.obj("P1"), cat.obj("S1")) == 1
    assert hom_dim_expr(cat, cat.obj("S1"), cat.obj("S2")) == 0
    assert hom_dim_expr(cat, (), cat.obj("S2")) == 0


def test_hom_additivity(ws_a2):
    cat = ws_a2.categories["A2"]
    a = cat.obj("P1", "S2")
    ap = cat.obj("S1")
    b = cat.obj("P1", "S1")
    lhs = hom_dim_expr(cat, a + ap, b)
    assert lhs == hom_dim_expr(cat, a, b) + hom_dim_expr(cat, ap, b)


def test_compose_identity_law(ws_a2):
    cat = ws_a2.categories["A2"]
    soc = basis_element(cat, "S2", "P1", 0)
    assert compose(Morphism.identity(cat, cat.obj("P1")), soc).equal(soc)
    assert compose(soc, Morphism.identity(cat, cat.obj("S2"))).equal(soc)


def test_compose_socle_projection_vanishes(ws_a2):
    cat = ws_a2.categories["A2"]
    soc = basis_element(cat, "S2", "P1", 0)
    top = basis_element(cat, "P1", "S1", 0)
    assert compose(top, soc).is_zero()


def test_compose_boundary_mismatch(ws_a2):
    cat = ws_a2.categories["A2"]
    soc = basis_element(cat, "S2", "P1", 0)
    with pytest.raises(PresentationError):
        compose(soc, soc)


def test_block_composition_is_matrix_product(ws_a2):
    cat = ws_a2.categories["A2"]
    rng = random.Random(5)

    def rand_mor(a, b):
        d = hom_dim_expr(cat, a, b)
        return Morphism(cat, a, b, [Fraction(rng.randint(-3, 3)) for _ in range(d)])

    a = cat.obj("S2", "P1")
    b = cat.obj("P1", "P1", "S1")
    c = cat.obj("S1", "S2")
    d = cat.obj("P1",)
    for _ in range(25):
        f = rand_mor(a, b)
        g = rand_mor(b, c)
        h = rand_mor(c, d)
        assert compose(h, compose(g, f)).equal(compose(compose(h, g), f))


def test_is_isomorphic(ws_a2):
    cat = ws_a2.categories["A2"]
    assert is_isomorphic(cat, cat.obj("S1"), cat.obj("S1")) is True
    assert is_isomorphic(cat, cat.obj("S1"), cat.obj("P1")) is False
    assert is_isomorphic(cat, cat.obj("P1", "P1"), cat.obj("P1", "P1")) is True
    # permuted listing of the same multiset
    assert is_isomorphic(cat, cat.obj("S1", "P1"), cat.obj("P1", "S1")) is True


def test_is_isomorphic_decided_in_char_p():
    from rclkit.field import PrimeField
    from rclkit.fixture_gen import build_fix_a2
    ws = build_fix_a2(PrimeField(101))
    cat = ws.categories["A2"]
    assert is_isomorphic(cat, cat.obj("S1"), cat.obj("P1")) is False
    assert is_isomorphic(cat, cat.obj("S1"), cat.obj("S1")) is True


def _doubled_dual_numbers(field):
    """Two names A, B for one object with End = k[x]/(x^2): every Hom space
    has basis (e, x) and composition is the product of k[x]/(x^2)."""
    one, zero = field.one, field.zero
    table = [[(one, zero), (zero, one)], [(zero, one), (zero, zero)]]
    return FinLinCategory(field, ["A", "B"], {(a, b): ("e", "x") for a in "AB" for b in "AB"},
                          {(a, b, c): table for a in "AB" for b in "AB" for c in "AB"},
                          {"A": (one, zero), "B": (one, zero)})


@pytest.mark.parametrize("p", [2, 3])
def test_is_isomorphic_agrees_with_brute_force(p):
    """On every generator pair of fix_a2, fix_prod, stab2 (two copies of
    stable k[x]/(x^3)) and a category with two isomorphic generators,
    is_isomorphic agrees with trying every pair of morphisms over GF(p)."""
    F = PrimeField(p)
    cats = list(build_fix_a2(F).categories.values())
    cats += list(build_fix_prod(F).categories.values())
    cats.append(_component_category(F, _StableCore(F), ("C1.", "C2."), "stab2"))
    cats.append(_doubled_dual_numbers(F))
    verdicts = set()
    for cat in cats:
        for g in cat.generators:
            for h in cat.generators:
                verdict = is_isomorphic(cat, cat.obj(g), cat.obj(h))
                assert verdict == brute_force_isomorphic(cat, g, h), (cat.name, g, h)
                verdicts.add((verdict, g == h))
    assert verdicts == {(True, True), (False, False), (True, False)}


def test_ideal_subspace_examples(ws_a2):
    cat = ws_a2.categories["A2"]
    p1 = cat.obj("P1")
    full_end = ideal_subspace(cat, p1, p1, Subcategory(cat, ["P1"]))
    assert full_end.dim == 1
    through_s2 = ideal_subspace(cat, p1, p1, Subcategory(cat, ["S2"]))
    assert through_s2.dim == 0
    empty = ideal_subspace(cat, p1, p1, Subcategory(cat, []))
    assert empty.dim == 0


def test_subcategory_membership(ws_a2):
    cat = ws_a2.categories["A2"]
    with pytest.raises(PresentationError):
        Subcategory(cat, ["nope"])


def test_block_diagonal_with_zero_target_summand(ws_a2):
    cat = ws_a2.categories["A2"]
    soc = Morphism(cat, ("S2",), ("P1",), (Fraction(2),))
    to_zero = Morphism.zero(cat, cat.obj("S1"), ())
    top = Morphism(cat, ("P1",), ("S1",), (Fraction(3),))
    got = block_diagonal(cat, [soc, to_zero, top])
    # Rows are the targets P1, S1; columns the sources S2, S1, P1.  The
    # middle part adds a column and no row.
    want = from_blocks(cat, cat.obj("S2", "S1", "P1"), cat.obj("P1", "S1"), [
        [(Fraction(2),), (), (Fraction(0),)],
        [(), (Fraction(0),), (Fraction(3),)],
    ])
    assert got.equal(want)


def test_block_diagonal_of_no_parts(ws_a2):
    cat = ws_a2.categories["A2"]
    got = block_diagonal(cat, [])
    assert got.source == () and got.target == ()
    assert got.coords == ()


@pytest.mark.parametrize("source,target,coords,message", [
    (("S2",), ("P1",), (1, 2), "morphism S2 -> P1 has 2 coords, expected 1"),
    (("S2", "P1"), ("P1",), (1, 1, 0), r"morphism S2\+P1 -> P1 has 3 coords, expected 2"),
    (("S2",), ("P1",), (), "morphism S2 -> P1 has 0 coords, expected 1"),
    (("S2", "P1"), ("P1", "S1"), (1,), r"morphism S2\+P1 -> P1\+S1 has 1 coords, expected 3"),
    (("S2", "P1"), ("P1",), (1,), r"morphism S2\+P1 -> P1 has 1 coords, expected 2"),
    ((), ("P1",), (1,), "morphism 0 -> P1 has 1 coords, expected 0"),
], ids=["too-many", "too-many-over-two-blocks", "none-for-a-nonzero-hom",
        "too-few-over-four-blocks", "too-few-over-two-blocks", "some-from-zero"])
def test_morphism_rejects_the_wrong_coordinate_count(ws_a2, source, target, coords, message):
    cat = ws_a2.categories["A2"]
    with pytest.raises(PresentationError, match="^%s$" % message):
        Morphism(cat, source, target, coords)


def test_compose_names_both_morphisms_on_a_boundary_mismatch(ws_a2):
    cat = ws_a2.categories["A2"]
    f = Morphism.zero(cat, ("S2", "P1"), ("P1",))
    g = Morphism.zero(cat, ("S1",), ())
    with pytest.raises(PresentationError) as exc:
        compose(g, f)
    assert str(exc.value) == "boundary mismatch: Morphism(S2+P1 -> P1) then Morphism(S1 -> 0)"
