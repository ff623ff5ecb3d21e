"""The Hom-action kernels against their per-basis oracles.

`LinearFunctor.apply`, `compose_functors`, `compose`, `postcompose_mat`,
`precompose_mat`, `validate_nat`, the structure constants of a quotient
presentation and the three structure checks `validate_category`,
`validate_functor` and `MorphismIdeal.validate` are built from action
matrices and the structure constants; tests/oracles.py computes the same
things one basis element at a time.  They must agree on random morphisms of
fix_a2, fix_prod, stab2 (two copies of stable k[x]/(x^3) with their shift)
and `kronecker` over QQ, GF(2), GF(3) and GF(101), and the structure checks
on perturbed presentations of those four over GF(2) and GF(3).  The three
composition kernels read the structure constants through one block walk,
so they must also agree with one another: g o f is `compose(g, f)`,
postcompose(g) applied to f and precompose(f) applied to g.  The helpers
that place blocks in a morphism's flat coordinates are checked against
`blocks_of`, a reader of the layout that uses hom_dim alone."""

import itertools
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from rclkit.category import (FinLinCategory, Morphism, Subcategory, block_diagonal,
                             block_offsets, compose, hom_basis, hom_dim_expr,
                             ideal_subspace, postcompose_mat, precompose_mat,
                             validate_category)
from rclkit.field import QQ, PrimeField
from rclkit.fixture_gen import (_component_category, _component_shift, _StableCore,
                                build_fix_a2, build_fix_prod, build_fix_stab3)
from rclkit.functor import (LinearFunctor, NatTransform, compose_functors, identity_functor,
                            validate_functor, validate_nat)
from rclkit.linalg import Mat, SubspaceBasis
from rclkit.mutation import make_D_monic
from rclkit.quotient import MorphismIdeal, build_quotient
from rclkit.workspace import _build_morphism, _fmt_morph, _Parser, _Tokens

from oracles import (blocks_of, brute_force_ideal, per_basis_apply, per_basis_compose,
                     per_basis_compose_functors, per_basis_ideal_validate,
                     per_basis_postcompose_mat, per_basis_precompose_mat, per_basis_quotient_comp,
                     per_basis_validate_category, per_basis_validate_functor,
                     per_basis_validate_nat)

FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(101))
PRESENTATIONS = ("fix_a2", "fix_prod", "stab2", "kronecker")


def doubling(cat):
    """The functor g |-> g + g, f |-> diag(f, f): its images are sums."""
    hom_maps = {}
    for g in cat.generators:
        for h in cat.generators:
            d = cat.hom_dim(g, h)
            # Hom(g + g, h + h) is the blocks (0,0), (0,1), (1,0), (1,1) in
            # turn, so f lands at rows q and 3d + q.
            hom_maps[(g, h)] = Mat(cat.field, 4 * d, d,
                                   [[cat.field.one if r - q in (0, 3 * d) else cat.field.zero
                                     for q in range(d)] for r in range(4 * d)])
    return LinearFunctor(cat, cat, {g: (g, g) for g in cat.generators},
                         hom_maps, name="double")


def kronecker(field):
    """The functor S on the Kronecker quiver G => H (arrows a, b) that
    fixes a and doubles b.  Hom(G, H) is two-dimensional, so the structure
    constants' two indices are told apart."""
    one, zero = field.one, field.zero
    cat = FinLinCategory(field, ["G", "H"],
                         {("G", "G"): ["e"], ("H", "H"): ["e"], ("G", "H"): ["a", "b"]},
                         {("G", "G", "G"): [[(one,)]], ("H", "H", "H"): [[(one,)]],
                          ("G", "G", "H"): [[(one, zero)], [(zero, one)]],
                          ("G", "H", "H"): [[(one, zero), (zero, one)]]},
                         {"G": (one,), "H": (one,)}, name="K")
    hom_maps = dict(identity_functor(cat).hom_maps)
    hom_maps[("G", "H")] = Mat(field, 2, 2, [[one, zero], [zero, field.of_int(2)]])
    return LinearFunctor(cat, cat, {g: (g,) for g in cat.generators},
                         hom_maps, name="S")


@lru_cache(maxsize=None)
def functors(name, field):
    """Every functor of the presentation, with the identity and the
    doubling functor of each of its categories."""
    if name == "kronecker":
        found = [kronecker(field)]
        cats = [found[0].source]
    elif name == "stab2":
        prefixes = ("C1.", "C2.")
        core = _StableCore(field)
        cat = _component_category(field, core, prefixes, "C")
        found = list(_component_shift(field, core, cat, prefixes, "TC"))
        cats = [cat]
    else:
        ws = build_fix_a2(field) if name == "fix_a2" else build_fix_prod(field)
        found = list(ws.functors.values())
        cats = list(ws.categories.values())
    return tuple(found + [identity_functor(cat) for cat in cats]
                 + [doubling(cat) for cat in cats])


def scalars(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    # Zeros are common in real data, and half-integers exercise Fractions.
    return st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def functor_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    return draw(st.sampled_from(functors(draw(st.sampled_from(PRESENTATIONS)), field)))


@st.composite
def objects(draw, cat):
    return tuple(draw(st.lists(st.sampled_from(cat.generators), max_size=3)))


@st.composite
def morphisms(draw, cat, source=None, target=None):
    a = draw(objects(cat)) if source is None else source
    b = draw(objects(cat)) if target is None else target
    n = hom_dim_expr(cat, a, b)
    coords = draw(st.lists(scalars(cat.field), min_size=n, max_size=n))
    return Morphism(cat, a, b, coords)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_matches_per_basis_oracle(data):
    functor = data.draw(functor_cases())
    mor = data.draw(morphisms(functor.source))
    assert functor.apply(mor).equal(per_basis_apply(functor, mor))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_composition_kernels_match_per_basis_oracle(data):
    cat = data.draw(functor_cases()).source
    f = data.draw(morphisms(cat))
    g = data.draw(morphisms(cat, source=f.target))
    c = data.draw(objects(cat))
    assert compose(g, f).equal(per_basis_compose(g, f))
    assert postcompose_mat(f, c) == per_basis_postcompose_mat(f, c)
    assert precompose_mat(f, c) == per_basis_precompose_mat(f, c)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_composition_kernels_agree(data):
    """g o f three ways: `compose`, the matrix of g o - applied to f and
    the matrix of - o f applied to g."""
    cat = data.draw(functor_cases()).source
    f = data.draw(morphisms(cat))
    g = data.draw(morphisms(cat, source=f.target))
    assert (compose(g, f).coords == postcompose_mat(g, f.source).apply(f.coords)
            == precompose_mat(f, g.target).apply(g.coords))


def test_composition_kernels_on_kronecker_basis():
    """Every composable pair of basis morphisms of `kronecker`, where the
    two indices of the structure constants have different ranges."""
    cat = kronecker(QQ).source
    objs = [(g,) for g in cat.generators] + [("G", "H")]
    for a in objs:
        for b in objs:
            for f in hom_basis(cat, a, b):
                for c in objs:
                    assert postcompose_mat(f, c) == per_basis_postcompose_mat(f, c)
                    assert precompose_mat(f, c) == per_basis_precompose_mat(f, c)
                    for g in hom_basis(cat, b, c):
                        assert compose(g, f).equal(per_basis_compose(g, f))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_functors_matches_per_basis_oracle(data):
    inner = data.draw(functor_cases())
    name = next(n for n in PRESENTATIONS if inner in functors(n, inner.source.field))
    outer = data.draw(st.sampled_from([f for f in functors(name, inner.source.field)
                                       if f.source is inner.target]))
    assert compose_functors(outer, inner).hom_maps == per_basis_compose_functors(outer, inner)


def lines(rep):
    return [(e.key, e.status, e.witness) for e in rep.entries]


def kronecker_nat(field):
    """The identity family Id => S on `kronecker`: natural at a and, where
    2 != 0, not at b.  The fixtures have only one-dimensional Hom spaces
    between generators, so this is the case where witnesses inside one Hom
    space must keep their order."""
    s = kronecker(field)
    return NatTransform(identity_functor(s.source), s,
                        {g: Morphism.identity(s.source, (g,))
                         for g in s.source.generators}, name="k")


def test_naturality_witnesses_match_per_basis_loop():
    """Perturb one coordinate of one component of each natural
    transformation of fix_a2 and fix_prod, and of `kronecker_nat`, at a
    time: validate_nat names the same failing basis elements, in the same
    order, as the per-basis loop."""
    assert lines(validate_nat(kronecker_nat(QQ))) == [
        ("naturality", "fail", "at basis G.b of Hom(G,H)")]
    failing = 0
    for field in (QQ, PrimeField(3)):
        for nats in (build_fix_a2(field).nats, build_fix_prod(field).nats,
                     {"k": kronecker_nat(field)}):
            for nt in nats.values():
                assert lines(validate_nat(nt)) == lines(per_basis_validate_nat(nt))
                for g, comp in nt.components.items():
                    for k in range(len(comp.coords)):
                        coords = list(comp.coords)
                        coords[k] = field.add(coords[k], field.one)
                        comps = dict(nt.components)
                        comps[g] = Morphism(comp.cat, comp.source, comp.target, coords)
                        bad = NatTransform(nt.from_f, nt.to_f, comps, name=nt.name)
                        got = lines(validate_nat(bad))
                        assert got == lines(per_basis_validate_nat(bad))
                        failing += any(status == "fail" for _, status, _ in got)
    assert failing > 0


@lru_cache(maxsize=None)
def fixture_categories(field):
    """The categories of fix_a2 and fix_prod that have generators."""
    return tuple(cat for ws in (build_fix_a2(field), build_fix_prod(field))
                 for cat in ws.categories.values() if cat.generators)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quotient_structure_constants_match_per_basis_oracle(data):
    cat = data.draw(st.sampled_from(fixture_categories(data.draw(st.sampled_from(FIELDS)))))
    members = data.draw(st.lists(st.sampled_from(cat.generators), unique=True))
    q = build_quotient(cat, Subcategory(cat, members))
    assert q.presentation.comp == per_basis_quotient_comp(q)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ideal_subspace_on_sums_matches_brute_force(data):
    """The ideal between sums of up to two summands, which the `well-defined`
    audit of induce_adjunction reads, is the span of every composite through
    a sum of up to two members."""
    cat = data.draw(st.sampled_from(fixture_categories(data.draw(st.sampled_from(FIELDS)))))
    members = data.draw(st.lists(st.sampled_from(cat.generators), unique=True))
    a, b = (tuple(data.draw(st.lists(st.sampled_from(cat.generators), max_size=2)))
            for _ in range(2))
    assert (ideal_subspace(cat, a, b, Subcategory(cat, members))
            == brute_force_ideal(cat, a, b, members))


def only_tuples(value):
    return not isinstance(value, (list, dict, set)) and (
        not isinstance(value, tuple) or all(map(only_tuples, value)))


def test_layout_table_is_per_category():
    """A2 and its quotient by S2 share generator names, and the same sums
    have other Hom dimensions in each (S2 is zero in the quotient).  Calls
    interleaved between the two read each category's own layout table,
    whose values are tuples."""
    a2 = build_fix_a2(QQ).categories["A2"]
    quo = build_quotient(a2, Subcategory(a2, ["S2"])).presentation
    sums = [(), ("P1",), ("S2", "P1"), ("P1", "S1", "S2")]
    assert any(hom_dim_expr(a2, a, b) != hom_dim_expr(quo, a, b)
               for a, b in itertools.product(sums, repeat=2))
    for a, b in itertools.product(sums, repeat=2):
        for cat in (a2, quo, a2, quo):
            starts = [0, *itertools.accumulate(cat.hom_dim(s, t) for t in b for s in a)]
            rows = tuple(tuple(starts[i * len(a):(i + 1) * len(a)]) for i in range(len(b)))
            assert block_offsets(cat, a, b) == (rows, starts[-1])
            assert hom_dim_expr(cat, a, b) == starts[-1]
            for g in hom_basis(cat, b, ("S1", "P1")):
                assert postcompose_mat(g, a) == per_basis_postcompose_mat(g, a)
    for cat in (a2, quo):
        assert cat._layouts and only_tuples(tuple(cat._layouts.values()))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_structure_checks_match_per_basis_oracles(data):
    """Add a nonzero scalar to one structure constant of a category, one
    entry of a functor's hom map or one coordinate of a row of a morphism
    ideal: validate_category, validate_functor and MorphismIdeal.validate
    give the verdict and the (key, status, witness) entries of the per-basis
    loops.  Where there is nothing to perturb, the data is checked as is."""
    field = data.draw(st.sampled_from((PrimeField(2), PrimeField(3))))
    found = functors(data.draw(st.sampled_from(PRESENTATIONS)), field)

    def bumped(value):
        return field.add(value, field.of_int(data.draw(st.integers(1, field.characteristic - 1))))

    def spot(shape):
        return data.draw(st.sampled_from(shape)) if shape else None

    kind = data.draw(st.sampled_from(("category", "functor", "ideal")))
    if kind == "functor":
        f = data.draw(st.sampled_from(found))
        hom_maps = dict(f.hom_maps)
        at = spot([(key, r, c) for key, mat in hom_maps.items()
                   for r in range(mat.rows) for c in range(mat.cols)])
        if at:
            key, r, c = at
            rows = [list(row) for row in hom_maps[key].data]
            rows[r][c] = bumped(rows[r][c])
            hom_maps[key] = Mat(field, len(rows), hom_maps[key].cols, rows)
        f = LinearFunctor(f.source, f.target, f.object_map, hom_maps, name=f.name)
        got, want = validate_functor(f), per_basis_validate_functor(f)
    else:
        cat = data.draw(st.sampled_from(list(
            {id(c): c for f in found for c in (f.source, f.target) if c.generators}.values())))
        if kind == "category":
            comp = {key: [[list(vec) for vec in row] for row in table]
                    for key, table in cat.comp.items()}
            at = spot([(key, p, q, r) for key, table in comp.items()
                       for p, row in enumerate(table) for q, vec in enumerate(row)
                       for r in range(len(vec))])
            if at:
                key, p, q, r = at
                comp[key][p][q][r] = bumped(comp[key][p][q][r])
            cat = FinLinCategory(field, cat.generators, cat.hom_bases, comp,
                                 cat.identities, name=cat.name)
            got, want = validate_category(cat), per_basis_validate_category(cat)
        else:
            members = data.draw(st.lists(st.sampled_from(cat.generators), unique=True))
            ideal = MorphismIdeal(cat, Subcategory(cat, members))
            at = spot([(key, i, k) for key, sub in ideal.table.items()
                       for i, row in enumerate(sub.rows) for k in range(len(row))])
            if at:
                key, i, k = at
                rows = [list(row) for row in ideal.table[key].rows]
                rows[i][k] = bumped(rows[i][k])
                ideal.table[key] = SubspaceBasis.from_vectors(
                    field, ideal.table[key].ambient, rows)
            got, want = ideal.validate(), per_basis_ideal_validate(ideal)
    assert got.ok_all == want.ok_all
    assert set(lines(got)) == set(lines(want))


@lru_cache(maxsize=None)
def mutation_data(field):
    return build_fix_stab3(field).mutations["MU"]


@lru_cache(maxsize=None)
def quotient(cat, members):
    return build_quotient(cat, Subcategory(cat, members))


def zero_blocks(cat, source, target):
    return [[(cat.field.zero,) * cat.hom_dim(s, t) for s in source]
            for t in target]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_layout_helpers_match_the_per_block_reader(data):
    """block_diagonal, Morphism.identity, make_D_monic,
    QuotientCategory.lift_morphism and the workspace morph writer and
    reader put every block where `blocks_of`, which cuts the flat
    coordinates with hom_dim alone, reads it; on random morphisms between
    sums over QQ, GF(2) and GF(3)."""
    field = data.draw(st.sampled_from(FIELDS[:3]))
    cat = data.draw(st.sampled_from(fixture_categories(field)))

    parts = data.draw(st.lists(morphisms(cat), max_size=3))
    diag = block_diagonal(cat, parts)
    want = zero_blocks(cat, diag.source, diag.target)
    soff = toff = 0
    for p in parts:
        for li, row in enumerate(blocks_of(p)):
            want[toff + li][soff:soff + len(row)] = row
        soff += len(p.source)
        toff += len(p.target)
    assert blocks_of(diag) == want

    obj = data.draw(objects(cat))
    want = zero_blocks(cat, obj, obj)
    for i, g in enumerate(obj):
        want[i][i] = cat.identities[g]
    assert blocks_of(Morphism.identity(cat, obj)) == want

    mor = data.draw(morphisms(cat))
    parsed = _Parser(_Tokens(_fmt_morph(cat, mor))).parse_morph()
    written = {(i, j): {name: field.parse(num.value) for name, num, _ in coeffs}
               for (i, j), coeffs, _ in parsed}
    want = {(i, j): {n: x for n, x in zip(cat.basis_names(s, t), vec) if x}
            for i, (t, row) in enumerate(zip(mor.target, blocks_of(mor)))
            for j, (s, vec) in enumerate(zip(mor.source, row)) if any(vec)}
    assert written == want
    assert _build_morphism(cat, mor.source, mor.target, parsed).equal(mor)

    q = quotient(cat, tuple(data.draw(st.lists(st.sampled_from(cat.generators), unique=True))))
    if q.presentation.generators:
        mor = data.draw(morphisms(q.presentation))
        want = [[q.section[(s, t)].apply(vec) for s, vec in zip(mor.source, row)]
                for t, row in zip(mor.target, blocks_of(mor))]
        assert blocks_of(q.lift_morphism(mor)) == want

    m = mutation_data(field)
    x = data.draw(st.sampled_from(sorted(m.fixed)))
    f = data.draw(morphisms(m.tri.cat, source=(x,)))
    assert blocks_of(make_D_monic(m, f)) == blocks_of(f) + blocks_of(m.fixed[x].f)
