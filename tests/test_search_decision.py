"""The exact decision behind the triangle-isomorphism search: the
Krull-Schmidt premise check, the choice of a point, agreement with a
brute-force oracle, the undecided paths of the search and of isomorphism
between objects, membership of an atom by lookup, and a counter guard."""

import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rclkit.mutation as mutation
import rclkit.recollement as recollement
import rclkit.triangulated as triangulated
from rclkit.category import (FinLinCategory, Morphism, compose, is_isomorphic,
                             morphism_inverse, postcompose_mat, precompose_mat,
                             validate_category)
from rclkit.cli import main
from rclkit.errors import UndecidedError
from rclkit.field import QQ, PrimeField
from rclkit.fixture_gen import build_fix_prod, build_fix_stab3
from rclkit.linalg import (_determinant, _evaluate, _linear_form, _nonvanishing_point,
                           invertible_point)
from rclkit.triangulated import (Triangle, TriangulatedPresentation, identity_triangle,
                                 invertible_commuting_tuple)
from rclkit.workspace import parse

from oracles import brute_force_invertible_point

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "rclkit" / "fixtures"


def one_generator(field, basis, products, identity=None):
    """A category on one generator G whose End(G) has the given basis and
    products[(u, v)] = coords of u o v; the identity has the given coords,
    by default those of the first basis element."""
    n = len(basis)
    comp = {("G", "G", "G"): [[products[(basis[u], basis[v])] for v in range(n)]
                              for u in range(n)]}
    ident = identity or [field.one] + [field.zero] * (n - 1)
    return FinLinCategory(field, ["G"], {("G", "G"): basis}, comp, {"G": ident})


def test_premise_holds_on_every_fixture_category(ws_a2, ws_stab3, ws_prod):
    for ws in (ws_a2, ws_stab3, ws_prod):
        for cat in ws.categories.values():
            forms, reason = cat.residues()
            assert reason is None, (cat.name, reason)
            assert set(forms) == set(cat.generators)


def test_residue_when_p_divides_dim_end():
    """k[x]/(x^2) over GF(2): dim End(G) = 2 = p, so the trace cannot be
    divided by it; the residue is the lambda with L_b - lambda nilpotent."""
    F = PrimeField(2)
    cat = one_generator(F, ("one", "x"), {
        ("one", "one"): (1, 0), ("one", "x"): (0, 1),
        ("x", "one"): (0, 1), ("x", "x"): (0, 0)})
    assert cat.residues() == ({"G": (1, 0)}, None)


# End(G) = k x k, with i an idempotent other than 0 and 1.
SPLIT = {("one", "one"): (1, 0), ("one", "i"): (0, 1), ("i", "one"): (0, 1),
         ("i", "i"): (0, 1)}


# End(G) = GF(2) x GF(2)[x]/(x^2), identity e1 + e2: phi = trace / 3 is
# (1, 0, 0), unital and multiplicative, but ker phi holds the idempotent e2.
SPLIT_DUAL = {(u, v): (0, 0, 0) for u in ("e1", "e2", "x") for v in ("e1", "e2", "x")}
SPLIT_DUAL.update({("e1", "e1"): (1, 0, 0), ("e2", "e2"): (0, 1, 0),
                   ("e2", "x"): (0, 0, 1), ("x", "e2"): (0, 0, 1)})


@pytest.mark.parametrize("field,basis,identity,table,reason", [
    # QQ(i): the trace gives phi(i) = 0, but i o i = -1.
    (QQ, ("one", "i"), None, {("one", "one"): (1, 0), ("one", "i"): (0, 1),
                              ("i", "one"): (0, 1), ("i", "i"): (-1, 0)},
     "End(G) has no algebra map onto QQ"),
    # GF(4) = GF(2)[w]/(w^2 + w + 1): L_w has no eigenvalue in GF(2).
    (PrimeField(2), ("one", "i"), None, {("one", "one"): (1, 0), ("one", "i"): (0, 1),
                                         ("i", "one"): (0, 1), ("i", "i"): (1, 1)},
     "End(G) has an element with no eigenvalue in GF(2)"),
    # k x k: phi = trace / 2 is not multiplicative.
    (QQ, ("one", "i"), None, SPLIT, "End(G) has no algebra map onto QQ"),
    (PrimeField(2), ("e1", "e2", "x"), (1, 1, 0), SPLIT_DUAL,
     "End(G) is not local: its residue kernel is not nilpotent"),
], ids=["QQ(i)", "GF(4)", "split", "GF(2)-x-dual-numbers"])
def test_premise_rejects_non_local_end(field, basis, identity, table, reason):
    table = {k: tuple(field.of_int(x) for x in v) for k, v in table.items()}
    if identity is not None:
        identity = tuple(field.of_int(x) for x in identity)
    cat = one_generator(field, basis, table, identity)
    assert cat.residues() == (None, reason)
    statuses = {(e.key, e.status, e.witness) for e in validate_category(cat).entries}
    assert ("locality", "fail", reason) in statuses


def test_non_local_end_fails_locality_and_leaves_isomorphism_undecided():
    """End(G) = QQ x QQ: locality fails with the residue reason, and
    G ~ G + G is undecided rather than answered."""
    cat = one_generator(QQ, ("one", "i"), {k: tuple(map(Fraction, v))
                                           for k, v in SPLIT.items()})
    statuses = {(e.key, e.status, e.witness) for e in validate_category(cat).entries}
    assert ("locality", "fail", "End(G) has no algebra map onto QQ") in statuses
    assert is_isomorphic(cat, cat.obj("G"), cat.obj("G")) is True
    with pytest.raises(UndecidedError, match="End\\(G\\) has no algebra map onto QQ"):
        is_isomorphic(cat, cat.obj("G"), cat.obj("G", "G"))


def _undecided(*args):
    raise UndecidedError("isomorphism class of S1 undecided: stub")


@pytest.mark.parametrize("args,key", [
    (["check-recollement", "fix_a2.rcl", "--semantics", "iso"], "r3"),
    (["quotient-recollement", "fix_a2.rcl", "--x", "A2:", "--semantics", "iso"], "r3"),
    (["quotient-recollement", "fix_a2.rcl", "--x", "A2:"], "r3-alt.iso-closed"),
], ids=["check-recollement-iso", "quotient-recollement-iso", "quotient-recollement-strict"])
def test_undecided_isomorphism_is_not_checked(monkeypatch, capsys, args, key):
    """An undecided isomorphism leaves the iso-closed reading of r3
    not-checked with the reason; it is neither a failure nor a crash."""
    monkeypatch.setattr(recollement, "is_isomorphic", _undecided)
    code = main([args[0], str(FIXTURES / args[1])] + args[2:] + ["--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check.%s.status = not-checked" % key in out
    assert "check.%s.witness = isomorphism class of S1 undecided: stub" % key in out
    assert "= fail" not in out


def test_undecided_sigma_classes_are_not_checked(monkeypatch, capsys):
    monkeypatch.setattr(mutation, "iso_class", _undecided)
    code = main(["triangulate-quotient", str(FIXTURES / "fix_stab3.rcl"),
                 "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check.triangulation.sigma.object-bijection.status = not-checked" in out
    assert "= fail" not in out


def test_premise_rejects_isomorphic_generators():
    one = (Fraction(1),)
    cat = FinLinCategory(
        QQ, ["A", "B"], {(a, b): ("e",) for a in "AB" for b in "AB"},
        {(a, b, c): [[one]] for a in "AB" for b in "AB" for c in "AB"},
        {"A": one, "B": one})
    assert cat.residues() == (None, "a composite A -> B -> A has nonzero residue")


def poly(F, terms):
    """{exponent tuple: coefficient} from (coefficient, exponents) pairs."""
    return {tuple(e): F.of_int(c) for c, e in terms}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=18, max_size=18),
       st.integers(-3, 3), st.integers(-3, 3))
def test_determinant_matches_the_rule_of_sarrus(coeffs, x, y):
    """A 3 x 3 block of linear forms a x + b y, expanded and then evaluated,
    equals the determinant of the evaluated block."""
    pairs = [coeffs[2 * k:2 * k + 2] for k in range(9)]
    block = [[_linear_form(QQ, 2, [QQ.of_int(c) for c in pairs[3 * i + j]])
              for j in range(3)] for i in range(3)]
    m = [[a * x + b * y for a, b in pairs[3 * i:3 * i + 3]] for i in range(3)]
    sarrus = sum(m[0][j] * m[1][(j + 1) % 3] * m[2][(j + 2) % 3]
                 - m[0][j] * m[1][(j + 2) % 3] * m[2][(j + 1) % 3] for j in range(3))
    assert _evaluate(QQ, _determinant(QQ, 2, block), (QQ.of_int(x), QQ.of_int(y))) == sarrus


def test_determinant_of_dependent_rows_is_identically_zero():
    x, y = poly(QQ, [(1, (1, 0))]), poly(QQ, [(1, (0, 1))])
    assert _determinant(QQ, 2, [[x, x], [y, y]]) == {}
    assert _determinant(QQ, 2, [[x, y], [y, x]]) == poly(QQ, [(1, (2, 0)), (-1, (0, 2))])


@pytest.mark.parametrize("factors, point", [
    ([poly(QQ, [(1, (1, 0))])], (1, 0)),
    ([poly(QQ, [(1, (0, 1))])], (0, 1)),
    ([poly(QQ, [(1, (1, 0))]), poly(QQ, [(1, (0, 1))])], (1, 1)),
])
def test_grid_point_of_coordinate_factors(factors, point):
    # D = 1 or 2: a variable takes 0 unless its own factor needs 1, so x
    # alone, y alone and both give (1,0), (0,1) and (1,1).
    assert _nonvanishing_point(QQ, 2, factors) == point


def test_grid_skips_every_value_that_kills_a_factor():
    # x, y and x + y - 2, D = 3: x = 1 (x = 0 kills x), then y = 2 (y = 0
    # kills y and y = 1 kills x + y - 2).
    factors = [poly(QQ, [(1, (1, 0))]), poly(QQ, [(1, (0, 1))]),
               poly(QQ, [(1, (1, 0)), (1, (0, 1)), (-2, (0, 0))])]
    assert _nonvanishing_point(QQ, 2, factors) == (1, 2)


def test_small_field_enumeration_proves_absence():
    # x y (x + y) is a nonzero polynomial that vanishes on all of GF(2)^2,
    # and on no point of GF(3)^2 with x, y nonzero and x != -y.
    def factors(F):
        return [poly(F, [(1, (1, 0))]), poly(F, [(1, (0, 1))]),
                poly(F, [(1, (1, 0)), (1, (0, 1))])]
    assert _nonvanishing_point(PrimeField(2), 2, factors(PrimeField(2))) is None
    assert _nonvanishing_point(PrimeField(3), 2, factors(PrimeField(3))) == (1, 1)


@pytest.mark.parametrize("block", [[[(1,), (1,)]], [[(1,)], [(1,)]]], ids=["1x2", "2x1"])
def test_non_square_block_proves_that_no_point_is_invertible(block):
    """A non-square block is never invertible: None, before expanding it,
    and before reading the blocks after it."""
    def blocks():
        yield block
        raise AssertionError("read past a non-square block")
    assert invertible_point(QQ, 1, blocks()) is None


def test_multiplicity_mismatch_proves_that_no_isomorphism_exists(ws_stab3, monkeypatch):
    cat = ws_stab3.categories["STAB"]
    calls = []
    monkeypatch.setattr(triangulated, "morphism_inverse",
                        lambda m: calls.append(m) or morphism_inverse(m))
    assert invertible_commuting_tuple(cat, ((cat.obj("M1"), cat.obj("M2")),), ()) is None
    assert calls == []
    (a, a_inv), = invertible_commuting_tuple(cat, ((cat.obj("M1", "M2"), cat.obj("M2", "M1")),), ())
    assert len(calls) == 1 and morphism_inverse(a).equal(a_inv)


# End(G) = k[e]/(e^2).
DUAL = {("one", "one"): (1, 0), ("one", "e"): (0, 1), ("e", "one"): (0, 1),
        ("e", "e"): (0, 0)}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["QQ", "GF2", "GF3"])
def test_vanishing_determinant_proves_that_no_pair_exists(field, monkeypatch):
    """Over End(G) = k[e]/(e^2), a pair (u, v) with u = v o e has u in the
    radical, so the determinant of u's block vanishes identically: None,
    without a single inverse, since no isomorphism takes e to 1.  With e on
    both sides, e o u = v o e, the search finds a pair."""
    cat = one_generator(field, ("one", "e"), DUAL)
    g = cat.obj("G")
    one = Morphism.identity(cat, g)
    e = Morphism(cat, g, g, (field.zero, field.one))
    calls = []
    monkeypatch.setattr(triangulated, "morphism_inverse",
                        lambda m: calls.append(m) or morphism_inverse(m))
    assert invertible_commuting_tuple(
        cat, ((g, g), (g, g)),
        ((postcompose_mat(one, g), 0, precompose_mat(e, g), 1),)) is None
    assert calls == []
    (u, u_inv), (v, v_inv) = invertible_commuting_tuple(
        cat, ((g, g), (g, g)), ((postcompose_mat(e, g), 0, precompose_mat(e, g), 1),))
    assert compose(e, u).equal(compose(v, e))
    for m, m_inv in ((u, u_inv), (v, v_inv)):
        assert compose(m_inv, m).equal(one) and compose(m, m_inv).equal(one)


# -- agreement with the brute-force oracle over GF(2) and GF(3) -------------

@lru_cache(maxsize=None)
def fixture_presentation(p, name):
    """stab1 (TC of fix_stab3) or one of fix_prod's three presentations
    (stab2 is its middle TRI_C) over QQ (p = 0) or GF(p)."""
    field = PrimeField(p) if p else QQ
    ws = build_fix_stab3(field) if name == "TC" else build_fix_prod(field)
    return ws.triangulated[name]


@st.composite
def queries(draw):
    """(presentation, kind, argument): a membership query on a scaled,
    rotated or summed triangle (a scale of 0 makes most of them
    non-triangles), or a complete_monic query on a scaled or arbitrary map."""
    p = draw(st.sampled_from((2, 3)))
    copies = draw(st.sampled_from((1, 2)))
    tri = fixture_presentation(p, "TC" if copies == 1 else "TRI_C")
    atoms = tri.atoms()
    parts = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=2 if copies == 1 else 1))
    t = tri.direct_sum(parts) if len(parts) > 1 else parts[0]
    if draw(st.booleans()):
        t = tri.rotate(t)
    c = [draw(st.integers(0, p - 1)) for _ in range(3)]
    if draw(st.booleans()):
        t = Triangle(t.x, t.y, t.z, t.f.scale(c[0]), t.g.scale(c[1]), t.h.scale(c[2]))
        return tri, "membership", t
    n = len(t.f.coords)
    coords = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    f = Morphism(tri.cat, t.f.source, t.f.target, coords) if draw(st.booleans()) \
        else t.f.scale(c[0])
    return tri, "complete_monic", f


@settings(max_examples=100, deadline=None)
@given(queries())
def test_search_returns_none_exactly_when_oracle_finds_no_point(query):
    tri, kind, arg = query
    searches = []
    original = triangulated._invertible_candidate

    def recording(cat, spaces, basis, parts):
        found = original(cat, spaces, basis, parts)
        searches.append((cat.field, basis, parts, found))
        return found

    triangulated._invertible_candidate = recording
    try:
        getattr(tri, kind)(arg)
    finally:
        triangulated._invertible_candidate = original
    for field, basis, parts, found in searches:
        assert (found is None) == (brute_force_invertible_point(field, basis, parts) is None)


# -- the undecided path -----------------------------------------------------

QQ_I_WORKSPACE = """rclkit workspace 1
field { kind rationals }
category Gi {
  object G
  hom G G { basis one i }
  identity G { one 1 }
  compose (G G one) (G G one) { one 1 }
  compose (G G one) (G G i) { i 1 }
  compose (G G i) (G G one) { i 1 }
  compose (G G i) (G G i) { one -1 }
}
subcategory Z { of Gi members G }
functor T {
  source Gi
  target Gi
  object G -> G
  map (G G one) -> { (0 0) { one 1 } }
  map (G G i) -> { (0 0) { i 1 } }
}
triangulated TR {
  base Gi
  shift T
  shift_inv T
  triangle zero { x G y G z 0 f { } g { } h { } }
}
mutation MU {
  ambient TR
  z Z
  d Z
  fixed G { dx G m 0 alpha { (0 0) { one 1 } } beta { } gamma { } }
  cofixed G { x 0 dx G f { } g { (0 0) { one 1 } } h { } }
}
"""


def test_undecided_search_is_not_checked(tmp_path, capsys):
    """End(G) = QQ(i) fails the premise.  The fixed and cofixed triangles are
    not isomorphic to sums of rotations of (G, G, 0, 0, 0, 0), but no point
    of either search is invertible and nothing proves it: both conditions
    are not-checked with the reason, never FAIL, and the exit code is 0."""
    path = tmp_path / "qq_i.rcl"
    path.write_text(QQ_I_WORKSPACE)
    code = main(["mutation-check", str(path), "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    reason = "isomorphism search undecided: End(G) has no algebra map onto QQ"
    for cond in ("condition1.G", "condition2.G"):
        assert "check.%s.status = not-checked" % cond in out
        assert "check.%s.witness = %s" % (cond, reason) in out
    assert "= fail" not in out
    assert "result.unchecked = check.condition1.G,check.condition2.G" in out


def test_same_searches_are_decided_when_the_premise_holds(tmp_path, capsys):
    """With End(G) = QQ(i) replaced by QQ the same searches prove that no
    isomorphism exists, so both conditions fail."""
    text = QQ_I_WORKSPACE.replace("basis one i", "basis one")
    text = "\n".join(line for line in text.splitlines() if "(G G i)" not in line) + "\n"
    path = tmp_path / "qq.rcl"
    path.write_text(text)
    code = main(["mutation-check", str(path), "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 1
    assert "check.condition1.G.witness = triangle not in the distinguished closure" in out
    assert "check.condition2.G.status = fail" in out


def test_identity_closure_undecided_is_not_checked():
    """The identity triangle of G matched against (G, G, 0, 0, 0, 0) forces
    a = 0: no point is invertible, and without the premise that is no proof."""
    tri = parse(QQ_I_WORKSPACE).triangulated["TR"]
    with pytest.raises(UndecidedError):
        tri.membership(identity_triangle(tri, "G"))
    statuses = {e.key: e.status for e in tri.validate().entries}
    assert statuses["tri.identity-closure"] == "not-checked"
    assert "fail" not in statuses.values()


def test_repeated_membership_raises_the_remembered_error(monkeypatch):
    """An undecided membership is remembered with its error: asking again,
    with an equal triangle, raises the same UndecidedError without a
    search, and its traceback does not grow with the repeats."""
    def depth(tb):
        return 0 if tb is None else 1 + depth(tb.tb_next)

    tri = parse(QQ_I_WORKSPACE).triangulated["TR"]
    with pytest.raises(UndecidedError) as first:
        tri.membership(identity_triangle(tri, "G"))
    searches = []
    search = triangulated._invertible_candidate
    monkeypatch.setattr(triangulated, "_invertible_candidate",
                        lambda *args: searches.append(args) or search(*args))
    depths = []
    for _ in range(2):
        with pytest.raises(UndecidedError) as again:
            tri.membership(identity_triangle(tri, "G"))
        depths.append(depth(again.value.__traceback__))
    assert again.value is first.value
    assert searches == []
    assert depths[0] == depths[1]  # a repeat keeps no frames of the earlier ones


def test_basic_triangle_is_a_member_without_a_search(monkeypatch):
    """End(G) = QQ(i) fails the premise, so a search could not decide it,
    but the basic triangle zero and its rotation are atoms: each is its own
    witness, with the identity, and no search is made."""
    tri = parse(QQ_I_WORKSPACE).triangulated["TR"]
    searches = []
    search = triangulated._invertible_candidate
    monkeypatch.setattr(triangulated, "_invertible_candidate",
                        lambda *args: searches.append(args) or search(*args))
    zero = tri.triangles[0]
    assert tri.membership(zero) == {"combo": ("zero",), "iso": None}
    assert tri.membership(tri.rotate(zero)) == {"combo": ("zero'",), "iso": None}
    assert searches == []


# -- atoms are decided by lookup ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from((0, 2, 3)), st.sampled_from(("TC", "TRI_C", "TRI_L", "TRI_R")),
       st.data())
def test_atom_membership_is_a_lookup_that_agrees_with_the_search(p, name, data):
    """Every atom is a member by lookup: no search, a witness naming that
    atom with the identity, and the search, where it decides, agrees."""
    tri = fixture_presentation(p, name)
    atom = data.draw(st.sampled_from(tri.atoms()))
    searches = []
    original = triangulated._invertible_candidate
    triangulated._invertible_candidate = lambda *args: searches.append(args) or original(*args)
    try:
        found = tri.membership(atom)
    finally:
        triangulated._invertible_candidate = original
    assert searches == []
    assert found == {"combo": (atom.name,), "iso": None}
    try:
        assert tri._search_membership(atom) is not None
    except UndecidedError:
        pass


def test_renamed_atom_gets_the_atom_answer(ws_stab3):
    """The memo key excludes the name: a copy of an atom under another
    name, and a rotation that cycles back onto an atom, get that atom's
    witness."""
    tri = ws_stab3.triangulated["TC"]
    atoms = {a.data_key(): a for a in tri.atoms()}
    for a in tri.atoms():
        copy = Triangle(a.x, a.y, a.z, a.f, a.g, a.h, name="copy")
        assert tri.membership(copy) is tri.membership(a)
        assert tri.membership(copy)["combo"] == (a.name,)
        turned = tri.rotate(a)
        assert tri.membership(turned)["combo"] == (atoms[turned.data_key()].name,)


# -- counter guard ----------------------------------------------------------

def test_search_counts_on_tri_recollement(monkeypatch, capsys):
    """tri-recollement fix_prod --d C1.M2 asks 57 memberships, of which 25
    are distinct; each distinct one is decided once, and none by a search.
    Two of those are zero triangles, matched by the empty sum.  The other
    23 are each equal as data to an atom of their presentation and are
    answered by lookup: 8 identity closures, 8 triangle images of the exact
    functors' input validation, 2 fixed and 2 cofixed triangles of the
    mutation check, and 3 pushed witnesses in the exact functors'
    standard-triangle check.  complete_monic makes 24 first-map searches:
    the rank profile rules out every other candidate sum without one.  The
    image check adds 5 sextuple isomorphisms (an image equal as data to its
    reference needs none).  So there are 29 searches, 24 + 5, and every one
    returns a tuple."""
    searches, memberships = [], []
    search, membership = triangulated._invertible_candidate, TriangulatedPresentation.membership

    def counting_membership(tri, t):
        memberships.append((id(tri), t.vertices(), t.f.coords, t.g.coords, t.h.coords))
        return membership(tri, t)

    def counting_search(*args):
        found = search(*args)
        searches.append(found is not None)
        return found

    monkeypatch.setattr(TriangulatedPresentation, "membership", counting_membership)
    monkeypatch.setattr(triangulated, "_invertible_candidate", counting_search)
    assert main(["tri-recollement", str(FIXTURES / "fix_prod.rcl"), "--d", "C1.M2"]) == 0
    capsys.readouterr()
    assert len(memberships) == 57
    assert len(set(memberships)) == 25
    assert len(searches) == 29
    assert sum(searches) == 29


def test_failed_searches_make_no_inverse_call(monkeypatch, capsys):
    """With the rank profile disabled, complete_monic on tri-recollement
    fix_prod --d C1.M2 also searches the 60 candidate sums that the profile
    rules out, and every one of those searches returns None: 89 searches,
    of which the 29 of `test_search_counts_on_tri_recollement` return a
    tuple.  Each None is decided by the top blocks, without a single
    morphism_inverse call."""
    searches, inverses = [], [0]
    search, inverse = triangulated._invertible_candidate, triangulated.morphism_inverse

    def counting_inverse(m):
        inverses[0] += 1
        return inverse(m)

    def counting_search(*args):
        before = inverses[0]
        found = search(*args)
        searches.append((found is not None, inverses[0] - before))
        return found

    monkeypatch.setattr(TriangulatedPresentation, "_rank_profile", lambda tri, f: ())
    monkeypatch.setattr(triangulated, "morphism_inverse", counting_inverse)
    monkeypatch.setattr(triangulated, "_invertible_candidate", counting_search)
    assert main(["tri-recollement", str(FIXTURES / "fix_prod.rcl"), "--d", "C1.M2"]) == 0
    capsys.readouterr()
    assert len(searches) == 89
    assert sum(hit for hit, _ in searches) == 29
    assert [n for hit, n in searches if not hit] == [0] * 60


def test_morphism_inverse_counts_on_tri_recollement(monkeypatch, capsys):
    """tri-recollement fix_prod --d C1.M2 solves for 63 inverses, all in
    the searches, one per component of each tuple found: 48 in the 24
    first-map isomorphisms found by complete_monic and 15 in the 5 sextuple
    isomorphisms of the image check.  Every membership is answered without
    a search (an atom by lookup, a zero triangle by the empty sum, a repeat
    from the memo), an image equal as data to its reference (every
    all-zero one among them) is passed without a search, and
    complete_monic reuses the inverse its search verified."""
    calls = [0]

    def counting_inverse(m):
        calls[0] += 1
        return morphism_inverse(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("rclkit") and getattr(module, "morphism_inverse", None) \
                is morphism_inverse:
            monkeypatch.setattr(module, "morphism_inverse", counting_inverse)
    assert main(["tri-recollement", str(FIXTURES / "fix_prod.rcl"), "--d", "C1.M2"]) == 0
    capsys.readouterr()
    assert calls[0] == 63
