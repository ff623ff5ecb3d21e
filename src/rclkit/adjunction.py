"""Adjoint pairs: validation, the transpose along a unit, strictification."""

from __future__ import annotations

from .category import (Morphism, block_diagonal, compose, morphism_inverse,
                       postcompose_mat, precompose_mat)
from .errors import InconsistentDataError, PreconditionError
from .functor import (LinearFunctor, NatTransform, compose_functors,
                      identity_functor, identity_nat, is_full_embedding,
                      is_identity_functor, nat_equal, validate_nat)
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
