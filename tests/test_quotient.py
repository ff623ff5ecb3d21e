import random

import pytest

from rclkit import quotient
from rclkit.category import Morphism, Subcategory, hom_dim_expr, ideal_subspace
from rclkit.cli import main
from rclkit.errors import PreconditionError
from rclkit.field import QQ, PrimeField
from rclkit.fixture_gen import build_fix_a2
from rclkit.functor import (LinearFunctor, compose_functors, functor_equal, identity_functor,
                            validate_functor)
from rclkit.linalg import Mat, SubspaceBasis
from rclkit.quotient import (MorphismIdeal, build_quotient, factor_through_quotient,
                             induce_adjunction, induce_functor)
from rclkit.adjunction import make_adjunction, transpose_mat, validate_adjunction
from rclkit.workspace import parse

from oracles import brute_force_ideal, hom_bijection


def test_ideal_matches_brute_force(ws_a2):
    cat = ws_a2.categories["A2"]
    for members in (["S2"], ["P1"], ["S2", "P1"]):
        sub = Subcategory(cat, members)
        for a in cat.generators:
            for b in cat.generators:
                fast = ideal_subspace(cat, (a,), (b,), sub)
                slow = brute_force_ideal(cat, (a,), (b,), members)
                assert fast == slow, (a, b, members)


def test_build_quotient_by_empty(ws_a2):
    cat = ws_a2.categories["A2"]
    q = build_quotient(cat, Subcategory(cat, []))
    assert q.survivors == cat.generators
    for a in cat.generators:
        for b in cat.generators:
            assert q.presentation.hom_dim(a, b) == cat.hom_dim(a, b)
    assert functor_equal(q.projection, identity_functor(cat)) or all(
        q.projection.object_map[g] == (g,) for g in cat.generators)
    assert q.validate().ok_all


def test_build_quotient_by_s2(ws_a2):
    cat = ws_a2.categories["A2"]
    q = build_quotient(cat, Subcategory(cat, ["S2"]))
    assert q.survivors == ("S1", "P1")
    assert q.presentation.hom_dim("P1", "S1") == 1
    assert q.presentation.hom_dim("S1", "P1") == 0
    assert q.validate().ok_all


def test_build_quotient_by_everything(ws_a2):
    cat = ws_a2.categories["A2"]
    q = build_quotient(cat, Subcategory(cat, list(cat.generators)))
    assert q.survivors == ()
    assert q.validate().ok_all


def test_quotient_dimension_formula(ws_a2):
    cat = ws_a2.categories["A2"]
    for members in ([], ["S2"], ["P1"], ["S1", "S2", "P1"]):
        q = build_quotient(cat, Subcategory(cat, members))
        surv = set(q.survivors)
        for a in cat.generators:
            for b in cat.generators:
                want = cat.hom_dim(a, b) - q.ideal.subspace(a, b).dim
                got = q.presentation.hom_dim(a, b) if (a in surv and b in surv) else 0
                assert got == want


def test_factor_through_quotient(ws_a2):
    cat = ws_a2.categories["A2"]
    q = build_quotient(cat, Subcategory(cat, ["S2"]))
    ju = ws_a2.functors["ju"]
    tilde = factor_through_quotient(ju, q)
    assert validate_functor(tilde).ok_all
    assert functor_equal(compose_functors(tilde, q.projection), ju)
    # factoring the projection itself gives the identity
    tq = factor_through_quotient(q.projection, q)
    assert functor_equal(tq, identity_functor(q.presentation))


def _doubling(cat):
    """g -> g+g with zero hom maps: only its object map is read."""
    return LinearFunctor(cat, cat, {g: (g, g) for g in cat.generators}, {}, name="double")


def test_factor_through_quotient_precondition(ws_a2):
    cat = ws_a2.categories["A2"]
    q = build_quotient(cat, Subcategory(cat, ["S2"]))
    ib = ws_a2.functors["ib"]  # does not kill S2
    for f, witness in ((ib, "S2 -> V"), (_doubling(cat), "S2 -> S2+S2")):
        with pytest.raises(PreconditionError) as exc:
            factor_through_quotient(f, q)
        assert str(exc.value) == "functor does not kill the subcategory"
        assert exc.value.witness == witness


def test_factorization_unique_on_representatives(ws_a2):
    cat = ws_a2.categories["A2"]
    q = build_quotient(cat, Subcategory(cat, ["S2"]))
    ju = ws_a2.functors["ju"]
    t1 = factor_through_quotient(ju, q)
    t2 = factor_through_quotient(compose_functors(identity_functor(ju.target), ju), q)
    assert functor_equal(t1, t2)


def test_induce_functor_examples(ws_a2):
    cat = ws_a2.categories["A2"]
    modkr = ws_a2.categories["ModKR"]
    q_mid = build_quotient(cat, Subcategory(cat, ["S2"]))
    q_right = build_quotient(modkr, Subcategory(modkr, []))
    tilde = induce_functor(ws_a2.functors["ju"], q_mid, q_right)
    assert validate_functor(tilde).ok_all
    assert tilde.object_map["S1"] == ("W",)
    assert tilde.object_map["P1"] == ("W",)

    q_bad = build_quotient(cat, Subcategory(cat, ["P1"]))
    for f, q_tgt, image in ((ws_a2.functors["ju"], q_right, "W"),
                            (_doubling(cat), q_mid, "P1+P1")):
        with pytest.raises(PreconditionError) as exc:
            induce_functor(f, q_bad, q_tgt)
        assert exc.value.witness == "P1 maps to %s outside the target subcategory" % image


def test_induce_adjunction_audit(ws_a2):
    cat = ws_a2.categories["A2"]
    modkl = ws_a2.categories["ModKL"]
    q_mid = build_quotient(cat, Subcategory(cat, ["S2"]))
    q_left = build_quotient(modkl, Subcategory(modkl, ["V"]))
    induced, rep = induce_adjunction(ws_a2.adjunctions["adj_i"], q_mid, q_left)
    assert rep.ok_all
    assert validate_adjunction(induced).ok_all
    # everything on the quotient-left side is the zero category
    assert induced.right.source.generators == ()

    modkr = ws_a2.categories["ModKR"]
    q_right = build_quotient(modkr, Subcategory(modkr, []))
    induced, rep = induce_adjunction(ws_a2.adjunctions["adj_jb"], q_right, q_mid)
    assert rep.ok_all
    assert validate_adjunction(induced).ok_all


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_well_definedness_randomized(field):
    """The Hom bijection sends classes to classes: recomputing through a
    representative shifted by an ideal element gives the same residue."""
    ws = build_fix_a2(field)
    cat = ws.categories["A2"]
    adj = ws.adjunctions["adj_i"]
    x = Subcategory(cat, ["S2"])
    modkl = ws.categories["ModKL"]
    xp = Subcategory(modkl, ["V"])
    rng = random.Random(42)
    gens = cat.generators
    trials = 0
    while trials < 100:
        a = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
        b = tuple(rng.choice(modkl.generators) for _ in range(rng.randint(1, 2)))
        la = adj.left.apply_obj(a)
        d = hom_dim_expr(modkl, la, b)
        ide = ideal_subspace(modkl, la, b, xp)
        if d == 0 or ide.dim == 0:
            trials += 1
            continue
        fwd, _ = hom_bijection(adj, a, b)
        target_ideal = ideal_subspace(cat, a, adj.right.apply_obj(b), x)
        fvec = [field.of_int(rng.randint(-5, 5)) for _ in range(d)]
        rcoef = [field.of_int(rng.randint(-5, 5)) for _ in range(ide.dim)]
        rvec = [field.zero] * d
        for c, row in zip(rcoef, ide.rows):
            rvec = [field.add(x0, field.mul(c, y0)) for x0, y0 in zip(rvec, row)]
        img1 = fwd.apply(tuple(fvec))
        img2 = fwd.apply(tuple(field.add(x0, y0) for x0, y0 in zip(fvec, rvec)))
        assert target_ideal.reduce(img1) == target_ideal.reduce(img2)
        trials += 1


def test_ideal_failures_lie_under_two_sided(ws_a2):
    """With (P1,S1) emptied, the ideal through S1 no longer holds the
    composite of 1_S1 with the map P1 -> S1: the failure is recorded under
    ideal.two-sided, which therefore has no pass entry."""
    cat = ws_a2.categories["A2"]
    ideal = MorphismIdeal(cat, Subcategory(cat, ["S1"]))
    assert [(e.key, e.status) for e in ideal.validate().entries] == [
        ("ideal.two-sided", "pass"), ("ideal.member-identity", "pass")]
    ideal.table[("P1", "S1")] = SubspaceBasis(cat.field, 1, (), ())
    rep = ideal.validate()
    assert [(e.key, e.status, e.witness) for e in rep.entries] == [
        ("ideal.two-sided.pre-compose", "fail", "(S1,S1) composed into Hom(P1,S1)"),
        ("ideal.member-identity", "pass", "")]


# End(G) = k[x]/(x^2) with x = v o u, the composite G -> H -> G, so the ideal
# through H is nonzero between survivors: [H](G, G) = span(x).
THROUGH_H = """rclkit workspace 1

field { kind rationals }

category K {
  object G
  object H
  hom G G { basis e x }
  hom G H { basis u }
  hom H G { basis v }
  hom H H { basis e }
  identity G { e 1 }
  identity H { e 1 }
  compose (G G e) (G G e) { e 1 }
  compose (G G e) (G G x) { x 1 }
  compose (G G x) (G G e) { x 1 }
  compose (G H u) (G G e) { u 1 }
  compose (H G v) (G H u) { x 1 }
  compose (G G e) (H G v) { v 1 }
  compose (H H e) (G H u) { u 1 }
  compose (H G v) (H H e) { v 1 }
  compose (H H e) (H H e) { e 1 }
}
"""


def _quotient_by_h():
    cat = parse(THROUGH_H).categories["K"]
    return cat, build_quotient(cat, Subcategory(cat, ["H"]))


def test_quotient_dimension_fails_where_the_ideal_table_disagrees():
    """The quotient is built from the ideal table, so on a valid category
    quotient.dimension fails only when the table changes after the build.
    The test empties the entry of the surviving pair (G,G) and of the pair
    (G,H), whose H died; each gives a witness."""
    cat, q = _quotient_by_h()
    assert q.survivors == ("G",)
    assert q.validate().ok_all
    for pair in (("G", "G"), ("G", "H")):
        q.ideal.table[pair] = SubspaceBasis(cat.field, cat.hom_dim(*pair), (), ())
    rep = q.validate()
    assert [(e.status, e.witness) for e in rep.entries if e.key == "quotient.dimension"] == [
        ("fail", "(G,G): 1 != 2 - 0"), ("fail", "(G,H): 0 != 1 - 0")]


DEAD_GENERATOR = """rclkit workspace 1

field { kind rationals }

category P {
  object G
  object H
  hom G G { basis e }
  hom G H { basis u }
  hom H H { basis i }
  identity G { e 1 }
  identity H { i 1 }
  compose (G G e) (G G e) { e 1 }
  compose (H H i) (H H i) { i 1 }
  compose (H H i) (G H u) { u 1 }
}
"""


def test_quotient_dimension_fails_on_a_dead_generator_of_an_invalid_category(tmp_path):
    """u o e = 0 breaks the right identity law at u.  Quotienting by G kills
    G, and the quotient has no Hom(G,H), but the ideal [G](G,H) is zero:
    u o e = 0 does not reach u.  The ideal itself is two-sided.  The
    certificate also validates the parent, so it names the broken law as
    well as the quotient check it breaks."""
    src, out = tmp_path / "p.rcl", tmp_path / "p.cert"
    src.write_text(DEAD_GENERATOR)
    assert main(["validate", str(src), "--out", str(out)]) == 1
    assert "check.category.P.identity.right.witness = u o 1_G != u\n" in out.read_text()
    assert main(["quotient", str(src), "--x", "G", "--out", str(out)]) == 1
    cert = out.read_text()
    assert "check.ideal.two-sided.status = pass\n" in cert
    assert "check.quotient.dimension.status = fail\n" in cert
    assert "check.quotient.dimension.witness = (G,H): 0 != 1 - 0\n" in cert
    assert "check.parent.identity.right.status = fail\n" in cert
    assert "check.parent.identity.right.witness = u o 1_G != u\n" in cert


def test_factor_through_quotient_rejects_maps_that_keep_the_ideal():
    """A functor that kills H kills [H].  Hom maps that keep x = v o u but
    send u to zero are not functorial, and the ideal check names the pair."""
    cat, q = _quotient_by_h()
    f = LinearFunctor(cat, cat, {"G": ("G",), "H": ()},
                      {("G", "G"): Mat.identity(cat.field, 2)}, name="keep-x")
    with pytest.raises(PreconditionError) as exc:
        factor_through_quotient(f, q)
    assert str(exc.value) == "functor does not kill the ideal"
    assert exc.value.witness == "pair (G,G)"


def test_induce_adjunction_audit_fails_on_a_wrong_transpose(monkeypatch):
    """Once both induced functors exist, R maps the ideal into the ideal, so
    R(f) o eta_a does too and the audit fails only on an engine bug.  The
    test patches the engine: its transpose_mat reverses the rows of the
    true matrix, which on the identity adjunction sends x to e."""
    cat, q = _quotient_by_h()
    idf = identity_functor(cat)
    ident = {g: Morphism.identity(cat, (g,)) for g in cat.generators}
    adj = make_adjunction(idf, idf, ident, ident, name="id")
    assert induce_adjunction(adj, q, q)[1].ok_all

    def reversed_transpose(right, eta_a, la, b):
        mat = transpose_mat(right, eta_a, la, b)
        return Mat(mat.field, mat.rows, mat.cols, mat.data[::-1])

    monkeypatch.setattr(quotient, "transpose_mat", reversed_transpose)
    _, rep = induce_adjunction(adj, q, q)
    assert [(e.key, e.status, e.witness) for e in rep.entries] == [
        ("well-defined", "fail", "ideal element of Hom(L G, G) maps outside the ideal")]
