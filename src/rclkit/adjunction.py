"""Adjoint pairs: validation, Hom bijections, strictification, witness search."""

from __future__ import annotations

from .category import (Morphism, block_diagonal, commuting_space, compose, hom_basis,
                       hom_dim_expr, morphism_inverse, postcompose_mat, precompose_mat)
from .errors import InconsistentDataError, PreconditionError
from .functor import (LinearFunctor, NatTransform, compose_functors,
                      identity_functor, identity_nat, is_full_embedding,
                      is_identity_functor, nat_equal, validate_nat)
from .linalg import Mat, invertible_point, solve, span_point
from .report import Report


class Adjunction:
    """(left, right) with unit Id => right o left and counit left o right => Id."""

    def __init__(self, left: LinearFunctor, right: LinearFunctor,
                 unit: NatTransform, counit: NatTransform, name: str = ""):
        if left.target is not right.source or right.target is not left.source:
            raise PreconditionError("adjunction functors have mismatched boundaries")
        self.left = left
        self.right = right
        self.unit = unit
        self.counit = counit
        self.name = name

    def __repr__(self):
        return "Adjunction(%s -| %s)" % (self.left.name, self.right.name)


def make_adjunction(left, right, unit_components, counit_components, name=""):
    """Wrap raw component dictionaries, building the composite functors."""
    rl = compose_functors(right, left)
    lr = compose_functors(left, right)
    unit = NatTransform(identity_functor(left.source), rl, unit_components,
                        name=name + ".unit")
    counit = NatTransform(lr, identity_functor(right.source), counit_components,
                          name=name + ".counit")
    return Adjunction(left, right, unit, counit, name=name)


def validate_adjunction(adj: Adjunction) -> Report:
    """Naturality of unit/counit plus both triangle identities."""
    rep = Report()
    rep.merge(validate_nat(adj.unit), prefix="unit.")
    rep.merge(validate_nat(adj.counit), prefix="counit.")

    L, R = adj.left, adj.right
    for g in L.source.generators:
        eta = adj.unit.components[g]
        lhs = compose(adj.counit.at(L.object_map[g]), L.apply(eta))
        if not lhs.equal(Morphism.identity(L.target, L.object_map[g])):
            rep.fail("triangle.left", "at generator %s" % g)
    rep.close("triangle.left")

    for h in R.source.generators:
        eps = adj.counit.components[h]
        rhs = compose(R.apply(eps), adj.unit.at(R.object_map[h]))
        if not rhs.equal(Morphism.identity(R.target, R.object_map[h])):
            rep.fail("triangle.right", "at generator %s" % h)
    rep.close("triangle.right")
    return rep


def hom_bijection(adj: Adjunction, a: tuple, b: tuple):
    """The bijection Hom(L a, b) -> Hom(a, R b) and its inverse, as matrices.

    Forward: f |-> R(f) o unit_a.  Backward: g |-> counit_b o L(g).
    """
    L, R = adj.left, adj.right
    la = L.apply_obj(a)
    fwd = transpose_mat(R, adj.unit.at(a), la, b)
    bwd = postcompose_mat(adj.counit.at(b), la).mul(L.action(a, R.apply_obj(b)))
    return fwd, bwd


def transpose_mat(right: LinearFunctor, eta_a: Morphism, la: tuple, b: tuple):
    """The matrix of f |-> right(f) o eta_a, Hom(la, b) -> Hom(a, right(b)),
    for eta_a: a -> right(la)."""
    return precompose_mat(eta_a, right.apply_obj(b)).mul(right.action(la, b))


def _single_gen_image_map(f: LinearFunctor):
    """Object map as generator -> generator, or None if some image is a sum."""
    out = {}
    for g in f.source.generators:
        img = f.object_map[g]
        if len(img) != 1:
            return None
        out[g] = img[0]
    return out


def normalize_embedding(adj: Adjunction, side: str):
    """Strictify the composite on the embedded side to the identity functor.

    side "left": the left adjoint embeds, and the right adjoint is replaced
    by its conjugate by the unit isomorphisms, so that right o left = Id;
    side "right" is dual, via the counit.  Returns None when adj is already
    strict, else (new, conj, conj_inv): the replacement and the conjugating
    isomorphism family old(g) -> new(g) with its inverses, for
    `rewire_adjunction` on every adjunction that holds the replaced functor
    (adj included, whose unit, resp. counit, then becomes the identity).
    """
    if side == "left":
        emb, other, iso = adj.left, adj.right, adj.unit
    elif side == "right":
        emb, other, iso = adj.right, adj.left, adj.counit
    else:
        raise ValueError("side must be left or right")
    if not is_full_embedding(emb):
        raise PreconditionError("not a full embedding", witness=emb.name)
    A = emb.source
    if is_identity_functor(compose_functors(other, emb)) \
            and nat_equal(iso, identity_nat(identity_functor(A))):
        return None
    image = _single_gen_image_map(emb)
    if image is None:
        raise PreconditionError("embedding image is not generator-to-generator",
                                witness=emb.name)
    preimage = {}
    for a, img in image.items():
        if img in preimage:
            raise PreconditionError("embedding hits the same generator twice", witness=img)
        preimage[img] = a
    iso_inv = {}
    for a in A.generators:
        inv = morphism_inverse(iso.components[a])
        if inv is None:
            raise PreconditionError("%s component is not invertible"
                                    % ("unit" if side == "left" else "counit"), witness=a)
        iso_inv[a] = inv
    # conj[b]: other(b) -> new(b); for b = emb(a) that is other(emb(a)) -> a,
    # the inverse unit (left embeds) or the counit (right embeds) at a.
    new_objects, conj, conj_inv = {}, {}, {}
    for b in other.source.generators:
        if b in preimage:
            a = preimage[b]
            new_objects[b] = (a,)
            conj[b], conj_inv[b] = ((iso_inv[a], iso.components[a]) if side == "left"
                                    else (iso.components[a], iso_inv[a]))
        else:
            new_objects[b] = other.object_map[b]
            conj[b] = conj_inv[b] = Morphism.identity(A, other.object_map[b])
    new = _conjugated_functor(other, new_objects, conj, conj_inv, other.name)
    if not is_identity_functor(compose_functors(new, emb)):
        raise InconsistentDataError("strictification failed for %s" % adj.name)
    return new, conj, conj_inv


def _conjugated_functor(f: LinearFunctor, new_objects, conj, conj_inv, name):
    """Functor with object map new_objects and hom maps conj_h o F(-) o conj_g^{-1}."""
    hom_maps = {}
    for (g, h), mat in f.hom_maps.items():
        if f.source.hom_dim(g, h):
            hom_maps[(g, h)] = postcompose_mat(conj[h], new_objects[g]).mul(
                precompose_mat(conj_inv[g], f.object_map[h]).mul(mat))
    return LinearFunctor(f.source, f.target, new_objects, hom_maps, name=name)


def rewire_adjunction(adj: Adjunction, side: str, new: LinearFunctor,
                      conj, conj_inv) -> Adjunction:
    """Replace the adjoint on side ("left" or "right") by new, conjugating the
    unit and counit by the isomorphism family old(g) -> new(g)."""
    L, R = adj.left, adj.right
    if side == "left":
        unit_comps = {g: compose(R.apply(conj[g]), adj.unit.components[g])
                      for g in L.source.generators}
        counit_comps = {}
        for y in R.source.generators:
            c_at = block_diagonal(L.target,
                                  [conj_inv[s] for s in R.object_map[y]])
            counit_comps[y] = compose(adj.counit.components[y], c_at)
        return make_adjunction(new, R, unit_comps, counit_comps, name=adj.name)
    if side == "right":
        unit_comps = {}
        for g in L.source.generators:
            c_at = block_diagonal(R.target, [conj[s] for s in L.object_map[g]])
            unit_comps[g] = compose(c_at, adj.unit.components[g])
        counit_comps = {y: compose(adj.counit.components[y], L.apply(conj_inv[y]))
                        for y in R.source.generators}
        return make_adjunction(L, new, unit_comps, counit_comps, name=adj.name)
    raise ValueError("side must be left or right")


def solve_unit_counit(left: LinearFunctor, right: LinearFunctor, name: str = ""):
    """Unit and counit witnessing that (left, right) is adjoint, as a
    validated Adjunction, or None when the pair is not adjoint.

    By Yoneda a natural family eta: Id => right o left is a unit exactly
    when, for all generators a and b, the map Hom(L a, b) -> Hom(a, R b),
    f |-> R(f) o eta_a, is bijective.  Its matrix is linear in eta: one block
    per generator pair, with one coefficient per basis vector of the natural
    families.  None is returned only with a proof: a pair whose two Hom
    spaces differ in dimension, or, from `linalg.invertible_point`, a
    determinant that vanishes identically or no point of GF(p)^n.  The
    Laplace expansion of a block costs 2^(block size) memoised minors, and
    the block size is dim Hom(L a, b).  With the unit fixed, the counit at b
    is the unique preimage of 1_{R b} under the bijection at (R b, b).
    """
    A, B = left.source, right.source
    if left.target is not B or right.target is not A:
        raise PreconditionError("solve_unit_counit: functor boundaries mismatch")
    F = A.field
    rl = compose_functors(right, left)
    ida = identity_functor(A)
    basis, split = _nat_solution_space(ida, rl)
    families = [split(v) for v in basis]
    blocks = []
    for i, a in enumerate(A.generators):
        la = left.object_map[a]
        for b in B.generators:
            size = hom_dim_expr(B, la, (b,))
            if size != hom_dim_expr(A, (a,), right.object_map[b]):
                return None
            mats = [transpose_mat(right, eta[i], la, (b,)) for eta in families]
            blocks.append([[[m.data[r][c] for m in mats] for c in range(size)]
                           for r in range(size)])
    point = invertible_point(F, len(basis), blocks)
    if point is None:
        return None
    unit = dict(zip(A.generators, split(span_point(F, point, basis))))
    counit = {}
    for b in B.generators:
        rb = right.object_map[b]
        lrb = left.apply_obj(rb)
        eta_rb = block_diagonal(A, [unit[s] for s in rb])
        eps = solve(transpose_mat(right, eta_rb, lrb, (b,)),
                    Mat.column(F, Morphism.identity(A, rb).coords))
        if eps is None:
            raise InconsistentDataError("solve_unit_counit: no counit at %s for "
                                        "an invertible unit" % b)
        counit[b] = Morphism(B, lrb, (b,), eps.col(0))
    adj = make_adjunction(left, right, unit, counit, name=name)
    if not validate_adjunction(adj).ok_all:
        raise InconsistentDataError("solve_unit_counit: the unit and counit found "
                                    "for %s do not validate" % (name or "?"))
    return adj


def _nat_solution_space(from_f: LinearFunctor, to_f: LinearFunctor):
    """(basis, split) of the space of natural families from_f => to_f, as
    `commuting_space` gives them: one component per source generator, in
    generator order, with to_f(f) o comp_a = comp_b o from_f(f) for every
    basis morphism f: a -> b."""
    src = from_f.source
    gens = src.generators
    index = {g: i for i, g in enumerate(gens)}
    return commuting_space(
        from_f.target, [(from_f.object_map[g], to_f.object_map[g]) for g in gens],
        [(postcompose_mat(to_f.apply(f), from_f.object_map[a]), index[a],
          precompose_mat(from_f.apply(f), to_f.object_map[b]), index[b])
         for a in gens for b in gens
         for f in hom_basis(src, (a,), (b,))])
