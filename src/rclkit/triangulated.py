"""Desk-scale triangulated presentations: strict shift, a finite table of
basic triangles, and decidable membership in the distinguished class.

The distinguished class is the closure of the basic table under rotation,
finite direct sums and isomorphism of sextuples.  Membership is decided by
matching vertex multisets against sums of rotated basic triangles and then
searching for an isomorphism of sextuples.  Both that search and the one in
`complete_monic` (an isomorphism of first maps) go through one solver,
`invertible_commuting_tuple`: it takes the Hom spaces of the unknown
morphisms and the commutation constraints P u_i = Q u_j between them, solves
the linear system, and decides whether the solution space has a
simultaneously invertible point.  Under the Krull-Schmidt premise that
`FinLinCategory.residues` checks, invertibility is a product of top-block
determinants, polynomials of small degree in the solution coordinates: a
determinant that vanishes identically proves that no isomorphism exists,
and otherwise the grid lemma gives a point (`linalg.invertible_point`),
which `morphism_inverse` verifies.  Where the premise fails, a search that
finds no verified point raises UndecidedError, and the check that asked
records not-checked.

A presentation decides each membership once and remembers the answer or the
error, keyed by `Triangle.data_key`.  The atoms (the rotations of the basic
triangles) are members by definition: when `atoms` first builds them it
records each one with itself and the identity as witness, so a triangle
equal as data to an atom is decided by lookup, without a search, even where
the premise fails.  `complete_monic` skips, without a search, every
candidate sum whose first map has another rank profile than f: ranks of
Hom-action maps are invariant under isomorphism of arrows, so a mismatch is
a proof.
"""

from __future__ import annotations

from .category import (Morphism, block_diagonal, block_offsets, commuting_space,
                       compose, hom_dim_expr, morphism_inverse, obj_text,
                       postcompose_mat, precompose_mat, residue)
from .errors import PresentationError, UndecidedError
from .functor import LinearFunctor, compose_functors, is_identity_functor, validate_functor
from .linalg import invertible_point, rank, span_point
from .report import Report


class Triangle:
    """A sextuple (x, y, z, f: x->y, g: y->z, h: z->T x)."""

    __slots__ = ("x", "y", "z", "f", "g", "h", "name")

    def __init__(self, x, y, z, f, g, h, name=""):
        self.x, self.y, self.z = x, y, z
        self.f, self.g, self.h = f, g, h
        self.name = name

    def vertices(self):
        return (self.x, self.y, self.z)

    def data_key(self) -> tuple:
        """The vertices and the coordinates of f, g and h: equal exactly when
        the triangles are equal as data.  The name is not part of it."""
        return (self.x, self.y, self.z, self.f.coords, self.g.coords, self.h.coords)

    def data_equal(self, other: "Triangle") -> bool:
        return self.data_key() == other.data_key()

    def __repr__(self):
        return "Triangle(%s: %s)" % (self.name or "?",
                                     " -> ".join(map(obj_text, self.vertices())))


class TriangulatedPresentation:
    def __init__(self, cat, shift: LinearFunctor, shift_inv: LinearFunctor,
                 triangles, name: str = ""):
        self.cat = cat
        self.shift = shift
        self.shift_inv = shift_inv
        self.triangles = tuple(triangles)
        self.name = name
        self._atoms = None
        self._atom_vectors = None
        self._gen_index = {g: i for i, g in enumerate(cat.generators)}
        self._combos = {}
        self._memberships = {}
        self._profiles = {}

    def validate(self) -> Report:
        rep = Report()
        for label, f in (("shift", self.shift), ("shift-inverse", self.shift_inv)):
            rep.record("tri.%s.functor" % label, validate_functor(f))
        if not (is_identity_functor(compose_functors(self.shift, self.shift_inv)) and
                is_identity_functor(compose_functors(self.shift_inv, self.shift))):
            rep.fail("tri.shift.strict-inverse", "T o T^-1 or T^-1 o T is not Id")
        rep.close("tri.shift.strict-inverse")
        for t in self.triangles:
            key = "tri.triangle.%s" % (t.name or "?")
            if (t.f.source, t.f.target, t.g.source, t.g.target, t.h.source, t.h.target) \
                    != (t.x, t.y, t.y, t.z, t.z, self.shift.apply_obj(t.x)):
                rep.fail(key + ".boundaries", "maps do not match the vertices")
                continue
            for second, first, text in ((t.g, t.f, "g o f"), (t.h, t.g, "h o g"),
                                        (self.shift.apply(t.f), t.h, "T(f) o h")):
                if not compose(second, first).is_zero():
                    rep.fail(key + ".composite", text + " != 0")
            rep.close(key)
        undecided = ""
        for g in self.cat.generators:
            try:
                found = self.membership(identity_triangle(self, g))
            except UndecidedError as exc:
                undecided = undecided or "identity triangle of %s: %s" % (g, exc)
                continue
            if found is None:
                rep.fail("tri.identity-closure", "identity triangle of %s not found" % g)
        rep.close("tri.identity-closure", undecided)
        return rep

    def rotate(self, t: Triangle) -> Triangle:
        """(y, z, Tx, g, h, -T f)."""
        tf = self.shift.apply(t.f)
        return Triangle(t.y, t.z, self.shift.apply_obj(t.x), t.g, t.h,
                        tf.scale(self.cat.field.neg(self.cat.field.one)),
                        name=t.name + "'")

    def atoms(self):
        """All distinct rotations of the basic triangles, in the order built.

        Built on first use.  Each atom is then recorded as a member of the
        distinguished class (`membership`), witnessed by itself and the
        identity."""
        if self._atoms is not None:
            return self._atoms
        out, members = [], {}
        for t in self.triangles:
            cur = t
            for _ in range(64):
                key = cur.data_key()
                if key in members:
                    break
                members[key] = {"combo": (cur.name,), "iso": None}
                out.append(cur)
                cur = self.rotate(cur)
            else:
                raise PresentationError("rotation of %s does not cycle" % t.name)
        self._memberships.update(members)
        self._atoms = out
        # Each atom's count vector (`_count_vector`) as its nonzero entries.
        self._atom_vectors = [[(p, c) for p, c in enumerate(self._count_vector(a.vertices()))
                               if c] for a in out]
        return out

    def direct_sum(self, parts) -> Triangle:
        cat = self.cat
        f = block_diagonal(cat, [p.f for p in parts])
        g = block_diagonal(cat, [p.g for p in parts])
        h = block_diagonal(cat, [p.h for p in parts])
        return Triangle(f.source, f.target, g.target, f, g, h,
                        name="+".join(p.name or "?" for p in parts))

    def _count_vector(self, objs):
        """The generator multiplicities of objs, vertex after vertex: the
        count of generator g in objs[i] at position i * n + index of g."""
        n, index = len(self._gen_index), self._gen_index
        counts = [0] * (n * len(objs))
        for i, obj in enumerate(objs):
            for g in obj:
                counts[i * n + index[g]] += 1
        return counts

    def _candidate_combos(self, objs):
        """Multisets of atoms whose leading len(objs) vertices, summed, have
        the vertex multisets of objs.

        Enumerated on count vectors (`_count_vector`) and memoized per
        vector: callers must not mutate the lists."""
        need = self._count_vector(objs)
        key = tuple(need)
        if key in self._combos:
            return self._combos[key]
        # Remainders only shrink, so an atom that does not fit at the start
        # is never used; skipping it keeps the results and their order.
        usable = []
        for a, full in zip(self.atoms(), self._atom_vectors):
            vec = [(p, c) for p, c in full if p < len(need)]
            if vec and all(need[p] >= c for p, c in vec):
                usable.append((a, vec))
        results = []

        def rec(idx, rem, chosen):
            if not any(rem):
                results.append(chosen)
                return
            if idx == len(usable):
                return
            a, vec = usable[idx]
            # Try zero or more copies of atom idx.
            while True:
                rec(idx + 1, rem, chosen)
                if not all(rem[p] >= c for p, c in vec):
                    break
                rem = list(rem)
                for p, c in vec:
                    rem[p] -= c
                chosen = chosen + [a]

        rec(0, need, [])
        self._combos[key] = results
        return results

    def membership(self, t: Triangle):
        """Witness that t is isomorphic to a sum of rotated basic triangles,
        or None when it is not.  The witness records the combination and the
        isomorphism; an iso of None means the identity.  Raises
        UndecidedError when no combination gives a witness and some search
        was undecided.  The answer, or the error, is remembered per
        `Triangle.data_key`, and an atom (`atoms`) is answered without a
        search: it is its own witness."""
        self.atoms()
        key = t.data_key()
        if key not in self._memberships:
            try:
                self._memberships[key] = self._search_membership(t)
            except UndecidedError as exc:
                self._memberships[key] = exc
        found = self._memberships[key]
        if isinstance(found, UndecidedError):
            raise found.with_traceback(None)  # a repeat does not grow its traceback
        return found

    def _search_membership(self, t: Triangle):
        undecided = None
        for combo in self._candidate_combos(t.vertices()):
            if not combo:
                if not (t.x or t.y or t.z):
                    return {"combo": (), "iso": None}
                continue
            try:
                iso = triangle_iso(self.shift, self.direct_sum(combo), t)
            except UndecidedError as exc:
                undecided = undecided or exc
                continue
            if iso is not None:
                return {"combo": tuple(a.name for a in combo), "iso": iso}
        if undecided:
            raise undecided
        return None

    def _rank_profile(self, f: Morphism):
        """For each generator G, the ranks of Hom(G, f) and Hom(f, G),
        remembered per first map; 0 where that Hom space is 0.  The profile
        is invariant under isomorphism of arrows and additive over direct
        sums."""
        key = (f.source, f.target, f.coords)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles[key] = tuple(
                rank(hom_mat(f, (g,))) for g in self.cat.generators
                for hom_mat in (postcompose_mat, precompose_mat))
        return profile

    def complete_monic(self, f: Morphism):
        """A distinguished triangle whose first map is exactly f, or None
        when there is none; UndecidedError as in `membership`.

        Searches sums of atoms with matching first two vertices and
        transports along an isomorphism of the first map.  A sum whose first
        map has another rank profile (`_rank_profile`) than f is not
        isomorphic to it, so it is skipped without a search.
        """
        undecided = None
        want = self._rank_profile(f)
        for combo in self._candidate_combos((f.source, f.target)):
            if not combo:
                continue
            profile = tuple(map(sum, zip(*(self._rank_profile(a.f) for a in combo))))
            if profile != want:
                continue
            ts = self.direct_sum(combo)
            # a: f.source -> ts.x, b: f.target -> ts.y with ts.f a = b f
            try:
                pair = invertible_commuting_tuple(
                    self.cat, ((f.source, ts.x), (f.target, ts.y)),
                    ((postcompose_mat(ts.f, f.source), 0, precompose_mat(f, ts.y), 1),))
            except UndecidedError as exc:
                undecided = undecided or exc
                continue
            if pair is None:
                continue
            (_, a_inv), (b, _) = pair
            g2 = compose(ts.g, b)
            h2 = compose(self.shift.apply(a_inv), ts.h)
            return Triangle(f.source, f.target, ts.z, f, g2, h2, name="completion")
        if undecided:
            raise undecided
        return None


def identity_triangle(tri: TriangulatedPresentation, g: str) -> Triangle:
    cat = tri.cat
    gobj = (g,)
    zero = ()
    return Triangle(gobj, gobj, zero,
                    Morphism.identity(cat, gobj),
                    Morphism.zero(cat, gobj, zero),
                    Morphism.zero(cat, zero, tri.shift.apply_obj(gobj)),
                    name="id(%s)" % g)


def _invertible_candidate(cat, spaces, basis, parts):
    """A simultaneously invertible point of the span of basis, as the tuple
    parts(vec) with each part paired with its inverse; or None when there is
    none.  basis spans a subspace of the
    stacked Hom(*spaces[i]) coordinates; an empty basis spans the zero
    point.

    Under the Krull-Schmidt premise (`FinLinCategory.residues`) a tuple is
    invertible exactly when every top block is: for each component and each
    generator g, the multiplicity x multiplicity matrix of residues of its
    g -> g blocks.  The entries are linear forms in the coefficients of
    basis, so each determinant is a polynomial of degree at most the
    multiplicity.  None is returned only with a proof: a multiplicity that
    differs between source and target, a determinant that is identically
    zero, or, over GF(p) with p at most the total degree, no point of
    GF(p)^n.  Otherwise `linalg.invertible_point` picks a point and one
    `morphism_inverse` per component verifies it and gives its inverse.  Without the premise the
    basis points are tried, and UndecidedError is raised when none is
    invertible."""
    F = cat.field
    forms, reason = cat.residues()
    if forms is None:
        for vec in basis or [()]:
            pairs = _with_inverses(parts(vec))
            if pairs is not None:
                return pairs
        raise UndecidedError("isomorphism search undecided: %s" % reason)
    blocks = _top_blocks(cat, forms, spaces, basis)
    if blocks is None:
        return None
    point = invertible_point(F, len(basis), blocks)
    if point is None:
        return None
    pairs = _with_inverses(parts(span_point(F, point, basis)))
    if pairs is None:
        raise UndecidedError("isomorphism search undecided: the chosen point "
                             "has invertible top blocks but is not invertible")
    return pairs


def _with_inverses(mors):
    """Each morphism paired with its inverse, or None at the first one that
    has none."""
    pairs = []
    for m in mors:
        inv = morphism_inverse(m)
        if inv is None:
            return None
        pairs.append((m, inv))
    return tuple(pairs)


def _top_blocks(cat, forms, spaces, basis):
    """Every top block as a square matrix of linear forms in len(basis)
    variables, each form given by its coefficients; or None when a block is
    not square, which proves that no point is invertible.  The blocks are
    generated lazily, so a determinant that vanishes spares the residues of
    the blocks after it."""
    F = cat.field
    tops = []
    base = 0
    for s, t in spaces:
        offsets, size = block_offsets(cat, s, t)
        for g in dict.fromkeys(s + t):
            rows = [i for i, x in enumerate(t) if x == g]
            cols = [j for j, x in enumerate(s) if x == g]
            if len(rows) != len(cols):
                return None
            tops.append((forms[g], cat.hom_dim(g, g), rows, cols, base, offsets))
        base += size
    return ([[[residue(F, form, b[base + offsets[i][j]:base + offsets[i][j] + d])
               for b in basis] for j in cols] for i in rows]
            for form, d, rows, cols, base, offsets in tops)


def invertible_commuting_tuple(cat, spaces, constraints):
    """Simultaneously invertible morphisms u_0, ..., u_{n-1} with u_i in
    Hom(*spaces[i]) satisfying P u_i = Q u_j for each constraint (P, i, Q, j),
    where P and Q are matrices of linear maps on those Hom spaces, as the
    pairs (u_i, u_i^-1); or None when no such tuple exists.

    The unknowns are stacked in the given order, which fixes the canonical
    nullspace basis of `commuting_space` and hence the tuple found."""
    basis, split = commuting_space(cat, spaces, constraints)
    if not any(hom_dim_expr(cat, s, t) for s, t in spaces):  # nothing to search
        return _with_inverses(split(()))
    return _invertible_candidate(cat, spaces, basis, split)


def triangle_iso(shift: LinearFunctor, ts: Triangle, t: Triangle):
    """Isomorphism of sextuples (a, b, c): ts -> t over the shift functor T,
    as the pairs ((a, a^-1), (b, b^-1), (c, c^-1)), or None.

    Constraints: t.f a = b ts.f, t.g b = c ts.g, t.h c = T(a) ts.h.
    """
    # a |-> T(a) o ts.h: the shift's action on Hom(ts.x, t.x), then precompose.
    return invertible_commuting_tuple(
        shift.source, ((ts.x, t.x), (ts.y, t.y), (ts.z, t.z)),
        ((postcompose_mat(t.f, ts.x), 0, precompose_mat(ts.f, t.y), 1),
         (postcompose_mat(t.g, ts.y), 1, precompose_mat(ts.g, t.z), 2),
         (postcompose_mat(t.h, ts.z), 2,
          precompose_mat(ts.h, shift.apply_obj(t.x)).mul(shift.action(ts.x, t.x)), 0)))


def d_approximation_failure(f: Morphism, d, monic: bool):
    """First member D of d at which f is not a D-approximation, or None.

    monic: every map f.source -> D factors through f (pre-composition onto
    Hom(f.source, D)); otherwise every map D -> f.target factors through f
    (post-composition onto Hom(D, f.target))."""
    hom_mat = precompose_mat if monic else postcompose_mat
    for m in d.members:
        mat = hom_mat(f, (m,))
        if rank(mat) != mat.rows:
            return m
    return None


def is_D_epic(f: Morphism, d) -> bool:
    """Post-composition surjective on Hom(D, -) for every member D."""
    return d_approximation_failure(f, d, monic=False) is None


def is_D_monic(f: Morphism, d) -> bool:
    """Pre-composition surjective on Hom(-, D) for every member D."""
    return d_approximation_failure(f, d, monic=True) is None

