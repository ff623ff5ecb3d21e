from fractions import Fraction

import pytest

from rclkit.adjunction import (make_adjunction, morphism_inverse, normalize_embedding,
                               rewire_adjunction, validate_adjunction)
from rclkit.category import FinLinCategory, Morphism, compose
from rclkit.errors import PreconditionError, PresentationError
from rclkit.field import QQ
from rclkit.functor import compose_functors, identity_functor, is_identity_functor
from rclkit.linalg import Mat

from oracles import basis_element, hom_bijection


def test_identity_adjunction(ws_a2):
    cat = ws_a2.categories["A2"]
    idf = identity_functor(cat)
    ident = {g: Morphism.identity(cat, (g,)) for g in cat.generators}
    adj = make_adjunction(idf, idf, ident, ident, name="id")
    assert validate_adjunction(adj).ok_all
    fwd, bwd = hom_bijection(adj, cat.obj("P1"), cat.obj("S1"))
    assert fwd.mul(bwd) == Mat.identity(QQ, 1)


def test_fixture_adjunctions_validate(ws_a2):
    for name in ("adj_i", "adj_ib", "adj_jb", "adj_j"):
        assert validate_adjunction(ws_a2.adjunctions[name]).ok_all, name


def test_corrupted_counit_fails(ws_a2):
    adj = ws_a2.adjunctions["adj_jb"]
    counit = dict(adj.counit.components)
    counit["S1"] = counit["S1"].scale(Fraction(0))
    bad = make_adjunction(adj.left, adj.right, dict(adj.unit.components),
                          counit, name="bad")
    rep = validate_adjunction(bad)
    assert not rep.ok_all
    assert any("S1" in (e.witness or "") for e in rep.failures())


def test_unit_with_a_stray_component_is_rejected(ws_a2):
    """A component keyed by something other than a generator of the
    source is an error, not silently dropped: adj_ib's unit lives on ModKL
    (generator V), and S1 is a generator of A2."""
    adj = ws_a2.adjunctions["adj_ib"]
    unit = dict(adj.unit.components)
    unit["S1"] = ws_a2.adjunctions["adj_j"].unit.components["S1"]
    with pytest.raises(PresentationError,
                       match=r"^nat bad\.unit: component at S1, not a generator of ModKL$"):
        make_adjunction(adj.left, adj.right, unit, adj.counit.components, name="bad")


def test_hom_bijection_examples(ws_a2):
    cat = ws_a2.categories["A2"]
    # Hom(i_up P1, V) = Hom(0, V) = 0 matches Hom(P1, i_lo V) = Hom(P1, S2) = 0
    adj = ws_a2.adjunctions["adj_i"]
    fwd, bwd = hom_bijection(adj, cat.obj("P1"), ws_a2.categories["ModKL"].obj("V"))
    assert fwd.rows == 0 and fwd.cols == 0

    # Hom(j_up P1, W) = k matches Hom(P1, j_lo W) = Hom(P1, S1) = k
    adj = ws_a2.adjunctions["adj_j"]
    fwd, bwd = hom_bijection(adj, cat.obj("P1"), ws_a2.categories["ModKR"].obj("W"))
    assert fwd.rows == 1 and fwd.cols == 1
    assert fwd.mul(bwd) == Mat.identity(QQ, 1)
    assert bwd.mul(fwd) == Mat.identity(QQ, 1)


def test_hom_bijection_natural(ws_a2):
    # eta(f o L(h)) = eta(f) o h for h: b -> a
    cat = ws_a2.categories["A2"]
    adj = ws_a2.adjunctions["adj_j"]
    L, R = adj.left, adj.right
    a = cat.obj("P1")
    b = cat.obj("S2", "P1")
    w = ws_a2.categories["ModKR"].obj("W")
    h = Morphism(cat, b, a, (Fraction(0), Fraction(3)))
    from rclkit.category import hom_dim_expr
    d = hom_dim_expr(R.source, L.apply_obj(a), w)
    for q in range(d):
        coords = [Fraction(0)] * d
        coords[q] = Fraction(1)
        f = Morphism(R.source, L.apply_obj(a), w, coords)
        eta_a, _ = hom_bijection(adj, a, w)
        eta_b, _ = hom_bijection(adj, b, w)
        lhs = eta_b.apply(compose(f, L.apply(h)).coords)
        rhs = compose(Morphism(cat, a, R.apply_obj(w), eta_a.apply(f.coords)), h).coords
        assert lhs == tuple(rhs)


def test_normalize_already_strict(ws_a2):
    assert normalize_embedding(ws_a2.adjunctions["adj_ib"], side="left") is None


def _relabeled_a2(ws_a2):
    """A copy of the middle category with an isomorphic duplicate of S2, and
    the closed-part embedding landing on the duplicate."""
    cat = ws_a2.categories["A2"]
    gens = list(cat.generators) + ["S2x"]
    hom_bases = dict(cat.hom_bases)
    comp = {k: v for k, v in cat.comp.items()}
    for (a, b), names in list(cat.hom_bases.items()):
        na = "S2x" if a == "S2" else a
        nb = "S2x" if b == "S2" else b
        if (na, nb) != (a, b):
            hom_bases[(na, nb)] = names
    hom_bases[("S2", "S2x")] = ("u",)
    hom_bases[("S2x", "S2")] = ("v",)
    one = Fraction(1)

    # Only the pairs involving S2/S2x need extra composition data; S2x is a
    # literal clone connected by inverse isomorphisms u, v.
    comp2 = dict(comp)
    pairs = dict(hom_bases)

    def setcomp(a, b, c, p, q, coeffs):
        dab = len(pairs.get((a, b), ()))
        dbc = len(pairs.get((b, c), ()))
        dac = len(pairs.get((a, c), ()))
        key = (a, b, c)
        if key not in comp2:
            comp2[key] = [[(Fraction(0),) * dac for _ in range(dab)]
                          for _ in range(dbc)]
        tbl = [list(row) for row in comp2[key]]
        tbl[p][q] = coeffs
        comp2[key] = tuple(tuple(r) for r in tbl)

    # clone structure: End(S2x), u v = 1, v u = 1, soc' = soc o v etc.
    setcomp("S2x", "S2x", "S2x", 0, 0, (one,))
    setcomp("S2", "S2x", "S2", 0, 0, (one,))   # v o u = 1_S2
    setcomp("S2x", "S2", "S2x", 0, 0, (one,))  # u o v = 1_S2x
    setcomp("S2", "S2", "S2x", 0, 0, (one,))   # u o 1
    setcomp("S2", "S2x", "S2x", 0, 0, (one,))  # 1_S2x o u
    setcomp("S2x", "S2", "S2", 0, 0, (one,))   # 1 o v
    setcomp("S2x", "S2x", "S2", 0, 0, (one,))  # v o 1_S2x
    setcomp("S2x", "P1", "P1", 0, 0, (one,))   # 1_P1 o soc'
    setcomp("S2x", "S2", "P1", 0, 0, (one,))   # soc o v
    setcomp("S2", "S2x", "P1", 0, 0, (one,))   # soc' o u
    setcomp("S2x", "S2x", "P1", 0, 0, (one,))  # soc' o 1
    identities = dict(cat.identities)
    identities["S2x"] = (one,)
    return FinLinCategory(QQ, gens, hom_bases, comp2, identities, name="A2x")


def test_isomorphic_clone_generator_detected(ws_a2):
    from rclkit.category import is_isomorphic
    big = _relabeled_a2(ws_a2)
    from rclkit.category import validate_category
    assert validate_category(big).ok_all
    assert is_isomorphic(big, big.obj("S2"), big.obj("S2x")) is True
    assert is_isomorphic(big, big.obj("S2"), big.obj("P1")) is False


def test_normalize_twisted_unit(ws_a2):
    """An adjunction rescaled so the unit is minus the identity: still valid,
    not strict; normalization conjugates it back to the identity unit."""
    from rclkit.functor import identity_nat, nat_equal
    adj = ws_a2.adjunctions["adj_ib"]
    minus = Fraction(-1)
    unit = {g: m.scale(minus) for g, m in adj.unit.components.items()}
    counit = {g: m.scale(minus) for g, m in adj.counit.components.items()}
    twisted = make_adjunction(adj.left, adj.right, unit, counit, name="twisted")
    assert validate_adjunction(twisted).ok_all
    new, conj, conj_inv = normalize_embedding(twisted, side="left")
    out = rewire_adjunction(twisted, "right", new, conj, conj_inv)
    assert is_identity_functor(compose_functors(out.right, out.left))
    assert nat_equal(out.unit, identity_nat(identity_functor(out.left.source)))
    assert validate_adjunction(out).ok_all
    # Hom bijections survive conjugation: dimensions and invertibility.
    cat = ws_a2.categories["A2"]
    modk = ws_a2.categories["ModKL"]
    fwd, bwd = hom_bijection(out, modk.obj("V"), cat.obj("P1"))
    assert fwd.mul(bwd) == Mat.identity(QQ, fwd.rows)


def test_normalize_non_embedding_errors(ws_a2):
    adj = ws_a2.adjunctions["adj_j"]
    with pytest.raises(PreconditionError):
        normalize_embedding(adj, side="left")  # j_up kills S2


def test_morphism_inverse(ws_a2):
    cat = ws_a2.categories["A2"]
    ident = Morphism.identity(cat, cat.obj("P1", "S2"))
    inv = morphism_inverse(ident)
    assert inv is not None and inv.equal(ident)
    soc = basis_element(cat, "S2", "P1", 0)
    assert morphism_inverse(soc) is None
