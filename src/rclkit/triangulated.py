"""Desk-scale triangulated presentations: strict shift, a finite table of
basic triangles, and decidable membership in the distinguished class.

The distinguished class is the closure of the basic table under rotation,
finite direct sums and isomorphism of sextuples.  Membership is decided by
matching vertex multisets against sums of rotated basic triangles and then
searching for an isomorphism of sextuples.  Both that search and the one in
`complete_monic` (an isomorphism of first maps) go through one solver,
`invertible_commuting_tuple`: it takes the Hom spaces of the unknown
morphisms and the commutation constraints P u_i = Q u_j between them, solves
the linear system, and looks for a simultaneously invertible point of the
solution space with a deterministic seeded sampler.
"""

from __future__ import annotations

from .category import (Morphism, ObjectExpr, block_diagonal, compose, hom_basis,
                       hom_dim_expr, morphism_inverse, postcompose_mat,
                       precompose_mat, unflatten)
from .errors import PresentationError
from .functor import LinearFunctor, compose_functors, is_identity_functor, validate_functor
from .linalg import Mat, candidate_stream, difference_rows, nullspace, rank
from .report import Report

_SEARCH_SEED = 20240811


class Triangle:
    """A sextuple (x, y, z, f: x->y, g: y->z, h: z->T x)."""

    __slots__ = ("x", "y", "z", "f", "g", "h", "name")

    def __init__(self, x, y, z, f, g, h, name=""):
        self.x, self.y, self.z = x, y, z
        self.f, self.g, self.h = f, g, h
        self.name = name

    def vertices(self):
        return (self.x, self.y, self.z)

    def data_equal(self, other: "Triangle") -> bool:
        return (self.x.summands == other.x.summands
                and self.y.summands == other.y.summands
                and self.z.summands == other.z.summands
                and self.f.flatten() == other.f.flatten()
                and self.g.flatten() == other.g.flatten()
                and self.h.flatten() == other.h.flatten())

    def __repr__(self):
        return "Triangle(%s: %r -> %r -> %r)" % (self.name or "?", self.x, self.y, self.z)


class TriangulatedPresentation:
    def __init__(self, cat, shift: LinearFunctor, shift_inv: LinearFunctor,
                 triangles, name: str = ""):
        self.cat = cat
        self.shift = shift
        self.shift_inv = shift_inv
        self.triangles = tuple(triangles)
        self.name = name
        self._atoms = None

    def validate(self) -> Report:
        rep = Report()
        for label, f in (("shift", self.shift), ("shift-inverse", self.shift_inv)):
            rep.record("tri.%s.functor" % label, validate_functor(f))
        if is_identity_functor(compose_functors(self.shift, self.shift_inv)) and \
                is_identity_functor(compose_functors(self.shift_inv, self.shift)):
            rep.ok("tri.shift.strict-inverse")
        else:
            rep.fail("tri.shift.strict-inverse", "T o T^-1 or T^-1 o T is not Id")
        for t in self.triangles:
            key = "tri.triangle.%s" % (t.name or "?")
            ok = True
            if t.f.source.summands != t.x.summands or t.f.target.summands != t.y.summands \
                    or t.g.source.summands != t.y.summands or t.g.target.summands != t.z.summands \
                    or t.h.source.summands != t.z.summands \
                    or t.h.target.summands != self.shift.apply_obj(t.x).summands:
                rep.fail(key + ".boundaries", "maps do not match the vertices")
                continue
            if not compose(t.g, t.f).is_zero():
                ok = False
                rep.fail(key + ".composite", "g o f != 0")
            if not compose(t.h, t.g).is_zero():
                ok = False
                rep.fail(key + ".composite", "h o g != 0")
            if not compose(self.shift.apply(t.f), t.h).is_zero():
                ok = False
                rep.fail(key + ".composite", "T(f) o h != 0")
            if ok:
                rep.ok(key)
        for g in self.cat.generators:
            ident = identity_triangle(self, g)
            if self.membership(ident) is None:
                rep.fail("tri.identity-closure", "identity triangle of %s not found" % g)
        if not rep.has_failures("tri.identity-closure"):
            rep.ok("tri.identity-closure")
        return rep

    def rotate(self, t: Triangle) -> Triangle:
        """(y, z, Tx, g, h, -T f)."""
        tf = self.shift.apply(t.f)
        return Triangle(ObjectExpr(t.y.summands), ObjectExpr(t.z.summands),
                        self.shift.apply_obj(t.x), t.g, t.h,
                        tf.scale(self.cat.field.neg(self.cat.field.one)),
                        name=t.name + "'")

    def atoms(self):
        """All distinct rotations of the basic triangles."""
        if self._atoms is not None:
            return self._atoms
        out = []
        for t in self.triangles:
            cur = t
            for _ in range(64):
                if any(cur.data_equal(a) for a in out):
                    break
                out.append(cur)
                cur = self.rotate(cur)
            else:
                raise PresentationError("rotation of %s does not cycle" % t.name)
        self._atoms = out
        return out

    def direct_sum(self, parts) -> Triangle:
        cat = self.cat
        f = block_diagonal(cat, [p.f for p in parts])
        g = block_diagonal(cat, [p.g for p in parts])
        h = block_diagonal(cat, [p.h for p in parts])
        return Triangle(f.source, f.target, g.target, f, g, h,
                        name="+".join(p.name or "?" for p in parts))

    def _candidate_combos(self, objs):
        """Multisets of atoms whose leading len(objs) vertices, summed, have
        the vertex multisets of objs."""
        atoms = self.atoms()
        k = len(objs)
        results = []

        def rec(idx, rems, chosen):
            if not any(rems):
                results.append(list(chosen))
                return
            if idx == len(atoms):
                return
            a = atoms[idx]
            counts = [v.multiplicities() for v in a.vertices()[:k]]
            # Try zero or more copies of atom idx.
            copies = 0
            rest = [dict(r) for r in rems]
            while True:
                rec(idx + 1, rest, chosen + [a] * copies)
                if any(counts) and all(_fits(c, r) for c, r in zip(counts, rest)):
                    for c, r in zip(counts, rest):
                        _subtract(c, r)
                    copies += 1
                else:
                    break

        rec(0, [dict(o.multiplicities()) for o in objs], [])
        return results

    def membership(self, t: Triangle):
        """Witness that t is isomorphic to a sum of rotated basic triangles,
        or None.  The witness records the combination and the isomorphism."""
        for combo in self._candidate_combos(t.vertices()):
            if not combo:
                if t.x.is_zero() and t.y.is_zero() and t.z.is_zero():
                    return {"combo": (), "iso": None}
                continue
            ts = self.direct_sum(combo)
            iso = triangle_iso(self, ts, t)
            if iso is not None:
                return {"combo": tuple(a.name for a in combo), "iso": iso}
        return None

    def complete_monic(self, f: Morphism):
        """A distinguished triangle whose first map is exactly f, or None.

        Searches sums of atoms with matching first two vertices and
        transports along an isomorphism of the first map.
        """
        for combo in self._candidate_combos((f.source, f.target)):
            if not combo:
                continue
            ts = self.direct_sum(combo)
            # a: f.source -> ts.x, b: f.target -> ts.y with ts.f a = b f
            pair = invertible_commuting_tuple(
                self.cat, ((f.source, ts.x), (f.target, ts.y)),
                ((postcompose_mat(ts.f, f.source), 0, precompose_mat(f, ts.y), 1),))
            if pair is None:
                continue
            a, b = pair
            g2 = compose(ts.g, b)
            h2 = compose(self.shift.apply(morphism_inverse(a)), ts.h)
            return Triangle(ObjectExpr(f.source.summands), ObjectExpr(f.target.summands),
                            ObjectExpr(ts.z.summands), f, g2, h2,
                            name="completion")
        return None


def _fits(small, big):
    return all(big.get(k, 0) >= v for k, v in small.items())


def _subtract(small, big):
    for k, v in small.items():
        big[k] -= v
        if big[k] == 0:
            del big[k]


def identity_triangle(tri: TriangulatedPresentation, g: str) -> Triangle:
    cat = tri.cat
    gobj = ObjectExpr((g,))
    zero = ObjectExpr(())
    return Triangle(gobj, ObjectExpr((g,)), zero,
                    Morphism.identity(cat, gobj),
                    Morphism.zero(cat, gobj, zero),
                    Morphism.zero(cat, zero, tri.shift.apply_obj(gobj)),
                    name="id(%s)" % g)


def _invertible_candidate(field, parts, basis, max_tries=400):
    """Search a linear space of morphism tuples for a simultaneously
    invertible point; deterministic (fixed seed)."""
    for vec in candidate_stream(field, basis, _SEARCH_SEED, max_tries):
        mors = parts(vec)
        if all(morphism_inverse(m) is not None for m in mors):
            return mors
    return None


def invertible_commuting_tuple(cat, spaces, constraints):
    """Simultaneously invertible morphisms u_0, ..., u_{n-1} with u_i in
    Hom(*spaces[i]) satisfying P u_i = Q u_j for each constraint (P, i, Q, j),
    where P and Q are matrices of linear maps on those Hom spaces; or None.

    The unknowns are stacked in the given order, which fixes the canonical
    nullspace basis and hence the search order and the tuple found."""
    F = cat.field
    dims = [hom_dim_expr(cat, s, t) for s, t in spaces]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    total = sum(dims)

    def split(vec):
        if not vec:
            vec = [F.zero] * total
        return tuple(unflatten(cat, s, t, vec[o:o + d])
                     for (s, t), o, d in zip(spaces, offsets, dims))

    if total == 0:
        mors = split(())
        return mors if all(morphism_inverse(m) is not None for m in mors) else None
    rows = difference_rows(F, total, [(p, offsets[i], q, offsets[j])
                                      for p, i, q, j in constraints])
    return _invertible_candidate(F, split, nullspace(Mat(F, len(rows), total, rows)))


def triangle_iso(tri: TriangulatedPresentation, ts: Triangle, t: Triangle):
    """Isomorphism of sextuples (a, b, c): ts -> t, or None.

    Constraints: t.f a = b ts.f, t.g b = c ts.g, t.h c = T(a) ts.h.
    """
    cat = tri.cat
    shift = tri.shift
    # a |-> T(a) o ts.h: the shift's action on Hom(ts.x, t.x), then precompose.
    shift_mat = Mat.from_columns(cat.field,
                                 hom_dim_expr(cat, shift.apply_obj(ts.x), shift.apply_obj(t.x)),
                                 [shift.apply(u).flatten() for u in hom_basis(cat, ts.x, t.x)])
    return invertible_commuting_tuple(
        cat, ((ts.x, t.x), (ts.y, t.y), (ts.z, t.z)),
        ((postcompose_mat(t.f, ts.x), 0, precompose_mat(ts.f, t.y), 1),
         (postcompose_mat(t.g, ts.y), 1, precompose_mat(ts.g, t.z), 2),
         (postcompose_mat(t.h, ts.z), 2,
          precompose_mat(ts.h, shift.apply_obj(t.x)).mul(shift_mat), 0)))


def d_approximation_failure(f: Morphism, d, monic: bool):
    """First member D of d at which f is not a D-approximation, or None.

    monic: every map f.source -> D factors through f (pre-composition onto
    Hom(f.source, D)); otherwise every map D -> f.target factors through f
    (post-composition onto Hom(D, f.target))."""
    hom_mat = precompose_mat if monic else postcompose_mat
    for m in d.members:
        mat = hom_mat(f, ObjectExpr((m,)))
        if rank(mat) != mat.rows:
            return m
    return None


def is_D_epic(cat, f: Morphism, d) -> bool:
    """Post-composition surjective on Hom(D, -) for every member D."""
    return d_approximation_failure(f, d, monic=False) is None


def is_D_monic(cat, f: Morphism, d) -> bool:
    """Pre-composition surjective on Hom(-, D) for every member D."""
    return d_approximation_failure(f, d, monic=True) is None


def canonical_right_approximation(cat, x: ObjectExpr, d) -> Morphism:
    """Evaluation morphism from a sum of member copies onto x; always a
    right approximation in a finite presentation."""
    parts = [(m, u) for m in d.members for u in hom_basis(cat, ObjectExpr((m,)), x)]
    blocks = [[u.blocks[i][0] for _, u in parts] for i in range(len(x.summands))]
    return Morphism(cat, ObjectExpr([m for m, _ in parts]), x, blocks)


def canonical_left_approximation(cat, x: ObjectExpr, d) -> Morphism:
    """Coevaluation morphism from x into a sum of member copies."""
    parts = [(m, u) for m in d.members for u in hom_basis(cat, x, ObjectExpr((m,)))]
    return Morphism(cat, x, ObjectExpr([m for m, _ in parts]), [u.blocks[0] for _, u in parts])
