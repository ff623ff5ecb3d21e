"""Morphism ideals, additive quotient categories, and induced data.

The ideal of morphisms factoring through a subcategory is computed per
generator pair, as the span of the parent's structure constants through the
members (`ideal_subspace`); the quotient is re-presented on the generators
whose identity survives, with canonical echelon-complement coset
representatives so that quotient data is reproducible across runs.  Its
structure constants are the parent's constants at those representatives
(`comp_vec`), reduced modulo the ideal; the quotient presentation keeps its
own layout table.
"""

from __future__ import annotations

import itertools

from .category import (FinLinCategory, Morphism, Subcategory, block_offsets,
                       hom_basis, ideal_subspace, obj_text, postcompose_mat,
                       precompose_mat, validate_category)
from .errors import PreconditionError
from .functor import LinearFunctor, compose_functors
from .adjunction import Adjunction, make_adjunction, transpose_mat
from .linalg import Mat, SubspaceBasis
from .report import Report


class MorphismIdeal:
    """The two-sided ideal [X](a,b) of morphisms factoring through X."""

    def __init__(self, parent: FinLinCategory, through: Subcategory):
        if through.parent is not parent:
            raise PreconditionError("subcategory does not live in the parent category")
        self.parent = parent
        self.through = through
        self.table = {}
        for a in parent.generators:
            for b in parent.generators:
                self.table[(a, b)] = ideal_subspace(parent, (a,), (b,), through)

    def subspace(self, a: str, b: str) -> SubspaceBasis:
        return self.table[(a, b)]

    def validate(self) -> Report:
        """Two-sidedness, as matrix identities on the rows of [X](a, b): for
        basis u: b -> c and v: c -> a, P_u(a) maps them into [X](a, c) and
        Q_v(b) into [X](c, b); and the identities of members."""
        rep = Report()
        cat = self.parent
        objs = {g: (g,) for g in cat.generators}
        for (a, b), sub in self.table.items():
            if not sub.rows:
                continue
            for c in cat.generators:
                for u in hom_basis(cat, objs[b], objs[c]):
                    for img in map(postcompose_mat(u, objs[a]).apply, sub.rows):
                        if not self.table[(a, c)].contains_vector(img):
                            rep.fail("ideal.two-sided.post-compose",
                                     "(%s,%s) composed into Hom(%s,%s)" % (a, b, a, c))
                for v in hom_basis(cat, objs[c], objs[a]):
                    for img in map(precompose_mat(v, objs[b]).apply, sub.rows):
                        if not self.table[(c, b)].contains_vector(img):
                            rep.fail("ideal.two-sided.pre-compose",
                                     "(%s,%s) composed into Hom(%s,%s)" % (a, b, c, b))
        rep.close("ideal.two-sided")
        for m in self.through.members:
            if not self.table[(m, m)].contains_vector(tuple(cat.identities[m])):
                rep.fail("ideal.member-identity", m)
        rep.close("ideal.member-identity")
        return rep


class QuotientCategory:
    """Additive quotient re-presented on surviving generators.

    For each pair of survivors the quotient Hom basis is the canonical
    echelon complement of the ideal, named after the surviving parent basis
    elements; `section` lifts quotient coordinates to parent coordinates and
    the hom maps of `projection` reduce parent coordinates to quotient
    coordinates (the coset coordinates of the ideal).
    """

    def __init__(self, parent: FinLinCategory, x: Subcategory):
        self.parent = parent
        self.ideal = MorphismIdeal(parent, x)
        F = parent.field
        self.survivors = tuple(
            g for g in parent.generators
            if not self.ideal.subspace(g, g).contains_vector(tuple(parent.identities[g])))

        self.section = {}
        reduction, free, hom_bases, comp = {}, {}, {}, {}
        for a in self.survivors:
            for b in self.survivors:
                d = parent.hom_dim(a, b)
                sub = self.ideal.subspace(a, b)
                free[(a, b)] = sub.complement_coords()
                names = tuple(parent.basis_names(a, b)[i] for i in free[(a, b)])
                if names:
                    hom_bases[(a, b)] = names
                ident = Mat.identity(F, d)
                self.section[(a, b)] = Mat.from_columns(
                    F, d, [ident.data[i] for i in free[(a, b)]])
                reduction[(a, b)] = Mat.from_columns(
                    F, len(names), [sub.coset_coords(row) for row in ident.data])
        identities = {a: reduction[(a, a)].apply(tuple(parent.identities[a]))
                      for a in self.survivors}
        for a, b, c in itertools.product(self.survivors, repeat=3):
            if (a, b) in hom_bases and (b, c) in hom_bases:
                # [p][q]: the reduced composite of the lifts of g_p and f_q,
                # which are the parent basis elements at the free coordinates.
                red = reduction[(a, c)].apply
                comp[(a, b, c)] = [[red(parent.comp_vec(a, b, c, p, q)) for q in free[(a, b)]]
                                   for p in free[(b, c)]]

        self.presentation = FinLinCategory(
            F, self.survivors, hom_bases, comp, identities,
            name=parent.name + "/" + ("+".join(x.members) or "0"))
        # A generator that dies goes to the zero object; LinearFunctor fills
        # the hom maps of its pairs with zeros.
        self.projection = LinearFunctor(
            parent, self.presentation,
            {g: (g,) if g in self.survivors else () for g in parent.generators},
            reduction, name="Q")

    def lift_basis(self, a: str, b: str, q: int) -> Morphism:
        """Parent representative of the q-th quotient basis element."""
        col = self.section[(a, b)].col(q)
        return Morphism(self.parent, (a,), (b,), col)

    def lift_morphism(self, mor: Morphism) -> Morphism:
        """Canonical parent representative of a quotient morphism (section)."""
        src, tgt = mor.source, mor.target
        offsets, _ = block_offsets(mor.cat, src, tgt)
        coords = []
        for i, b in enumerate(tgt):
            for j, a in enumerate(src):
                start = offsets[i][j]
                coords.extend(self.section[(a, b)].apply(
                    mor.coords[start:start + mor.cat.hom_dim(a, b)]))
        return Morphism(self.parent, src, tgt, coords)

    def validate(self) -> Report:
        rep = Report()
        rep.merge(self.ideal.validate())
        for a in self.parent.generators:
            for b in self.parent.generators:
                d = self.parent.hom_dim(a, b)
                di = self.ideal.subspace(a, b).dim
                dq = self.presentation.hom_dim(a, b)
                if dq != d - di:
                    rep.fail("quotient.dimension",
                             "(%s,%s): %d != %d - %d" % (a, b, dq, d, di))
        rep.close("quotient.dimension")
        rep.merge(validate_category(self.presentation), prefix="quotient.")
        return rep


def build_quotient(cat: FinLinCategory, x: Subcategory) -> QuotientCategory:
    return QuotientCategory(cat, x)


def factor_through_quotient(f: LinearFunctor, q: QuotientCategory,
                            name: str = "") -> LinearFunctor:
    """The unique functor from the quotient with F = (result) o Q.

    Requires F to kill every member generator of the ideal's subcategory.
    """
    if f.source is not q.parent:
        raise PreconditionError("functor does not start at the quotient's parent")
    for m in q.ideal.through.members:
        if f.object_map[m]:
            raise PreconditionError("functor does not kill the subcategory",
                                    witness="%s -> %s" % (m, obj_text(f.object_map[m])))
    object_map = {g: f.object_map[g] for g in q.survivors}
    hom_maps = {}
    for a in q.survivors:
        for b in q.survivors:
            dq = q.presentation.hom_dim(a, b)
            if dq == 0:
                continue
            hom_maps[(a, b)] = f.hom_maps[(a, b)].mul(q.section[(a, b)])
    tilde = LinearFunctor(q.presentation, f.target, object_map, hom_maps,
                          name=name or (f.name + "~"))
    # Killing objects forces killing the ideal; verify on ideal basis vectors.
    for (a, b), sub in q.ideal.table.items():
        for vec in sub.rows:
            img = f.hom_maps[(a, b)].apply(vec)
            if any(not f.target.field.is_zero(x) for x in img):
                raise PreconditionError("functor does not kill the ideal",
                                        witness="pair (%s,%s)" % (a, b))
    return tilde


def induce_functor(f: LinearFunctor, q_src: QuotientCategory,
                   q_tgt: QuotientCategory) -> LinearFunctor:
    """Induced functor f~ between quotients when f maps the source
    subcategory into the target one; satisfies Q' o f = f~ o Q."""
    if f.source is not q_src.parent or f.target is not q_tgt.parent:
        raise PreconditionError("functor boundaries do not match the quotients")
    x_tgt = q_tgt.ideal.through.member_set()
    for m in q_src.ideal.through.members:
        img = f.object_map[m]
        if not set(img) <= x_tgt:
            raise PreconditionError(
                "subcategory containment fails",
                witness="%s maps to %s outside the target subcategory" % (m, obj_text(img)))
    return factor_through_quotient(compose_functors(q_tgt.projection, f), q_src,
                                   name=f.name + "~")


def induce_adjunction(adj: Adjunction, q_src: QuotientCategory,
                      q_tgt: QuotientCategory, left=None, right=None) -> tuple:
    """Induced adjunction between quotients plus the well-definedness audit.

    q_src quotients the source of the left adjoint, q_tgt its target; the
    containment preconditions are those of induce_functor in each direction.
    Prebuilt induced functors may be passed in so callers can share
    instances.  Returns (adjunction, report): the report carries the audit
    that the Hom bijection maps ideal elements into ideal elements, which is
    guaranteed for genuine input and so flags data corruption when it fails.
    """
    rep = Report()
    L, R = adj.left, adj.right
    lt = left if left is not None else induce_functor(L, q_src, q_tgt)
    rt = right if right is not None else induce_functor(R, q_tgt, q_src)
    unit_comps = {}
    for g in q_src.survivors:
        unit_comps[g] = q_src.projection.apply(adj.unit.components[g])
    counit_comps = {}
    for h in q_tgt.survivors:
        counit_comps[h] = q_tgt.projection.apply(adj.counit.components[h])
    induced = make_adjunction(lt, rt, unit_comps, counit_comps, name=adj.name + "~")

    A = L.source
    for a in A.generators:
        la = L.apply_obj((a,))
        for b in R.source.generators:
            bobj = (b,)
            ide = ideal_subspace(R.source, la, bobj, q_tgt.ideal.through)
            if ide.dim == 0:
                continue
            fwd = transpose_mat(R, adj.unit.components[a], la, bobj)
            target_ideal = ideal_subspace(A, (a,), R.apply_obj(bobj), q_src.ideal.through)
            for vec in ide.rows:
                img = fwd.apply(vec)
                if not target_ideal.contains_vector(img):
                    rep.fail("well-defined",
                             "ideal element of Hom(L %s, %s) maps outside the ideal"
                             % (a, b))
    rep.close("well-defined")
    return induced, rep
