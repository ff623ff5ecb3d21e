"""Additive functors between finite presentations, and natural transformations."""

from __future__ import annotations

import itertools
import weakref

from .category import (FinLinCategory, Morphism, Subcategory, block_diagonal,
                       block_offsets, hom_basis, hom_dim_expr, obj_text,
                       postcompose_mat, precompose_mat)
from .errors import PresentationError
from .linalg import Mat, rank
from .report import Report


class LinearFunctor:
    """Presented by generator images and linear maps on generator Hom spaces.

    hom_maps[(g,h)] is the matrix of Hom(g,h) -> Hom(F g, F h) in the flat
    coordinates of the target Hom space; keys with a zero-dimensional source
    or target space may be omitted.  hom_maps is never mutated after
    `__init__`, so the action matrices built from it, and the composites
    with this functor outermost, are cached.
    """

    def __init__(self, source: FinLinCategory, target: FinLinCategory,
                 object_map, hom_maps, name: str = ""):
        self.source = source
        self.target = target
        self.name = name
        self.object_map = {}
        known = set(target.generators)
        for g in source.generators:
            if g not in object_map:
                raise PresentationError("functor %s: no image for generator %s" % (name, g))
            img = tuple(object_map[g])
            for s in img:
                if s not in known:
                    raise PresentationError("functor %s: image summand %s unknown" % (name, s))
            self.object_map[g] = img
        self.hom_maps = {}
        dims = source._dims
        for g in source.generators:
            for h in source.generators:
                d = dims.get((g, h), 0)
                dim_img = hom_dim_expr(target, self.object_map[g], self.object_map[h])
                mat = hom_maps.get((g, h))
                if mat is None:
                    mat = Mat.zeros(target.field, dim_img, d)
                if mat.rows != dim_img or mat.cols != d:
                    raise PresentationError(
                        "functor %s: hom map (%s,%s) is %dx%d, expected %dx%d"
                        % (name, g, h, mat.rows, mat.cols, dim_img, d))
                self.hom_maps[(g, h)] = mat
        # On one generator each, the action matrix is the hom map itself.
        self._actions = {((g,), (h,)): mat for (g, h), mat in self.hom_maps.items()}
        self._composites = {}  # see compose_functors

    def apply_obj(self, obj: tuple) -> tuple:
        out = ()
        for g in obj:
            out += self.object_map[g]
        return out

    def action(self, a: tuple, b: tuple) -> Mat:
        """The block matrix of Hom(a, b) -> Hom(F a, F b) in flat coordinates,
        assembled from hom_maps and cached per (a, b)."""
        key = (a, b)
        if key in self._actions:
            return self._actions[key]
        # Row r of hom_maps[(g, h)] is coordinate r of Hom(F g, F h), which
        # lies in the block of F a and F b that F g and F h start at.
        tgt = self.target
        out_off, rows = block_offsets(tgt, self.apply_obj(a), self.apply_obj(b))
        in_off, cols = block_offsets(self.source, a, b)
        soff = [0]
        for g in a:
            soff.append(soff[-1] + len(self.object_map[g]))
        toff = [0]
        for h in b:
            toff.append(toff[-1] + len(self.object_map[h]))
        data = [[tgt.field.zero] * cols for _ in range(rows)]
        for i, h in enumerate(b):
            for j, g in enumerate(a):
                mat = self.hom_maps[(g, h)]
                if not mat.cols:
                    continue
                c0 = in_off[i][j]
                local = iter(mat.data)
                for ti, t in enumerate(self.object_map[h]):
                    for sj, s in enumerate(self.object_map[g]):
                        r0 = out_off[toff[i] + ti][soff[j] + sj]
                        for r in range(tgt.hom_dim(s, t)):
                            data[r0 + r][c0:c0 + mat.cols] = next(local)
        mat = self._actions[key] = Mat(tgt.field, rows, cols, data)
        return mat

    def apply(self, mor: Morphism) -> Morphism:
        if mor.cat is not self.source:
            raise PresentationError("functor %s applied to foreign morphism" % self.name)
        return Morphism(self.target, self.apply_obj(mor.source), self.apply_obj(mor.target),
                        self.action(mor.source, mor.target).apply(mor.coords))

    def __repr__(self):
        return "LinearFunctor(%s: %s -> %s)" % (self.name or "?",
                                                self.source.name, self.target.name)


_identity_functors = weakref.WeakValueDictionary()  # id(cat) -> identity functor


def identity_functor(cat: FinLinCategory) -> LinearFunctor:
    """The identity functor of cat, built once while something holds it.
    Cached on cat, it would put every category in a reference cycle; the
    weak entry keyed by id(cat) dies with its functor, which holds cat."""
    functor = _identity_functors.get(id(cat))
    if functor is None:
        hom_maps = {key: Mat.identity(cat.field, d) for key, d in cat._dims.items()}
        functor = _identity_functors[id(cat)] = LinearFunctor(
            cat, cat, {g: (g,) for g in cat.generators}, hom_maps, name="id")
    return functor


def compose_functors(outer: LinearFunctor, inner: LinearFunctor) -> LinearFunctor:
    """outer o inner (apply inner first): each hom map is outer's action
    matrix on the inner images times inner's hom map.  Built once per inner
    functor and cached on outer, which holds inner only weakly: a strong
    reference would tie each adjoint pair into a reference cycle."""
    key = id(inner)
    cached = outer._composites.get(key)
    if cached is not None and cached[0]() is inner:  # ids of freed objects recur
        return cached[1]
    if inner.target is not outer.source:
        raise PresentationError("functor composition boundary mismatch")
    object_map = {g: outer.apply_obj(inner.object_map[g]) for g in inner.source.generators}
    hom_maps = {}
    for (g, h), mat in inner.hom_maps.items():
        if inner.source.hom_dim(g, h):
            hom_maps[(g, h)] = outer.action(inner.object_map[g],
                                            inner.object_map[h]).mul(mat)
    composite = LinearFunctor(inner.source, outer.target, object_map, hom_maps,
                              name="%s*%s" % (outer.name, inner.name))
    outer._composites[key] = (weakref.ref(inner), composite)
    return composite


def functor_mismatches(f: LinearFunctor, g: LinearFunctor):
    """Where the parallel functors f and g differ, lazily: ("objects", "at x:
    f(x) vs g(x)") per generator, then ("morphisms", "basis q of Hom(x,y)")
    per basis morphism whose images differ or whose ends already do.  Each
    hom map is compared whole before it is split into columns."""
    gens = f.source.generators
    differ = set()
    for x in gens:
        if f.object_map[x] != g.object_map[x]:
            differ.add(x)
            yield "objects", "at %s: %s vs %s" % (x, obj_text(f.object_map[x]),
                                                  obj_text(g.object_map[x]))
    for x in gens:
        for y in gens:
            fm, gm = f.hom_maps[(x, y)], g.hom_maps[(x, y)]
            if x in differ or y in differ:
                cols = range(fm.cols)
            elif fm == gm:
                continue
            else:
                cols = [q for q in range(fm.cols) if fm.col(q) != gm.col(q)]
            for q in cols:
                yield "morphisms", "basis %d of Hom(%s,%s)" % (q, x, y)


def functor_equal(f: LinearFunctor, g: LinearFunctor) -> bool:
    return (f.source is g.source and f.target is g.target
            and next(functor_mismatches(f, g), None) is None)


def is_identity_functor(f: LinearFunctor) -> bool:
    return f.source is f.target and functor_equal(f, identity_functor(f.source))


def validate_functor(f: LinearFunctor) -> Report:
    """F_(g,g) 1_g = 1_(F g), and F_(a,c) P_g(a) = P_(F g)(F a) F_(a,b) on
    Hom(a, b) for basis g: b -> c, with F_(a,b) = hom_maps[(a, b)] and
    P_x(y) composition with x on Hom(y, -); column q is basis q of Hom(a, b).
    Each identity is compared whole and split into columns only where it fails."""
    rep = Report()
    src = f.source
    gens = src.generators
    for g in gens:
        img = f.hom_maps[(g, g)].apply(src.identities[g])
        if img != Morphism.identity(f.target, f.object_map[g]).coords:
            rep.fail("preserves-identity", "at %s" % g)
    rep.close("preserves-identity")

    objs = {g: (g,) for g in gens}
    images = {(b, c): [(x, f.apply(x)) for x in hom_basis(src, objs[b], objs[c])]
              for b in gens for c in gens}
    for a, b, c in itertools.product(gens, repeat=3):
        if not src.hom_dim(a, b):
            continue
        for q2, (g, fg) in enumerate(images[(b, c)]):
            lhs = f.hom_maps[(a, c)].mul(postcompose_mat(g, objs[a]))
            rhs = postcompose_mat(fg, f.object_map[a]).mul(f.hom_maps[(a, b)])
            if lhs == rhs:
                continue
            for q1 in range(lhs.cols):
                if lhs.col(q1) != rhs.col(q1):
                    rep.fail("preserves-composition",
                             "witness pair (%s in Hom(%s,%s), %s in Hom(%s,%s))" % (
                                 src.basis_names(a, b)[q1], a, b,
                                 src.basis_names(b, c)[q2], b, c))
    rep.close("preserves-composition")
    return rep


def image_subcategory(f: LinearFunctor) -> Subcategory:
    gens = set()
    for g in f.source.generators:
        gens.update(f.object_map[g])
    return Subcategory(f.target, gens)


def kernel_subcategory(f: LinearFunctor) -> Subcategory:
    gens = [g for g in f.source.generators if not f.object_map[g]]
    return Subcategory(f.source, gens)


def non_bijective_pairs(f: LinearFunctor):
    """The generator pairs whose hom map is not bijective, lazily, as
    (g, h, "Hom(g,h): RxC of rank r"); none exactly when f is a full
    embedding."""
    for g in f.source.generators:
        for h in f.source.generators:
            d = f.source.hom_dim(g, h)
            mat = f.hom_maps[(g, h)]
            r = rank(mat) if d else 0
            if mat.rows != d or r != d:
                yield g, h, "Hom(%s,%s): %dx%d of rank %d" % (g, h, mat.rows, mat.cols, r)


def non_full_pairs(f: LinearFunctor):
    """The generator pairs (g, h), lazily, whose hom map onto Hom(F g, F h)
    is not surjective; none exactly when f is full."""
    for g in f.source.generators:
        for h in f.source.generators:
            mat = f.hom_maps[(g, h)]
            if rank(mat) != mat.rows:
                yield g, h


def is_full_embedding(f: LinearFunctor) -> bool:
    """Hom maps bijective on every generator pair."""
    return next(non_bijective_pairs(f), None) is None


class NatTransform:
    """Componentwise natural transformation between parallel functors."""

    def __init__(self, from_f: LinearFunctor, to_f: LinearFunctor, components, name: str = ""):
        if from_f.source is not to_f.source or from_f.target is not to_f.target:
            raise PresentationError("natural transformation between non-parallel functors")
        self.from_f = from_f
        self.to_f = to_f
        self.name = name
        stray = [g for g in components if g not in from_f.source.generators]
        if stray:
            raise PresentationError("nat %s: component at %s, not a generator of %s"
                                    % (name, stray[0], from_f.source.name))
        self.components = {}
        for g in from_f.source.generators:
            if g not in components:
                raise PresentationError("nat %s: missing component at %s" % (name, g))
            comp = components[g]
            if comp.source != from_f.object_map[g] or comp.target != to_f.object_map[g]:
                raise PresentationError("nat %s: component at %s has wrong boundary" % (name, g))
            self.components[g] = comp

    def at(self, obj: tuple) -> Morphism:
        """Component at a formal sum: block diagonal of generator components."""
        return block_diagonal(self.from_f.target, [self.components[g] for g in obj])

    def __repr__(self):
        return "NatTransform(%s: %s => %s)" % (self.name or "?",
                                               self.from_f.name, self.to_f.name)


def validate_nat(nt: NatTransform) -> Report:
    """Naturality squares on every basis morphism of the source: for each
    generator pair (a, b), G(f) o eta_a = eta_b o F(f) for every f: a -> b
    is the matrix identity precompose(eta_a) G_ab = postcompose(eta_b) F_ab,
    compared whole and split into columns only where it fails."""
    rep = Report()
    src = nt.from_f.source
    F, G = nt.from_f, nt.to_f
    for a in src.generators:
        for b in src.generators:
            if not src.hom_dim(a, b):
                continue
            lhs = precompose_mat(nt.components[a], G.object_map[b]).mul(G.hom_maps[(a, b)])
            rhs = postcompose_mat(nt.components[b], F.object_map[a]).mul(F.hom_maps[(a, b)])
            if lhs == rhs:
                continue
            for q, name in enumerate(src.basis_names(a, b)):
                if lhs.col(q) != rhs.col(q):
                    rep.fail("naturality", "at basis %s.%s of Hom(%s,%s)" % (a, name, a, b))
    rep.close("naturality")
    return rep


def identity_nat(f: LinearFunctor) -> NatTransform:
    comps = {g: Morphism.identity(f.target, f.object_map[g]) for g in f.source.generators}
    return NatTransform(f, f, comps, name="id")


def nat_equal(a: NatTransform, b: NatTransform) -> bool:
    for g in a.from_f.source.generators:
        if not a.components[g].equal(b.components[g]):
            return False
    return True
