"""Mutation pairs and the triangulated structure on the quotient.

Fixed approximation triangles define the auto-equivalence of the quotient by
ladder completion; standard triangles are produced from monic-side
approximable morphisms and registered so that the triangle-rotation-free
axioms (completion of every commuting square, vanishing composites) can be
decided on them by linear algebra.  The rotation and octahedron axioms are
reported as unchecked.
"""

from __future__ import annotations

from .category import (FinLinCategory, Morphism, ObjectExpr, Subcategory,
                       compose, hom_basis, hom_dim_expr, iso_class,
                       morphism_in, morphism_inverse, postcompose_mat,
                       precompose_mat, restrict_category, unflatten)
from .errors import InconsistentDataError, PreconditionError, UndecidedError
from .functor import (LinearFunctor, compose_functors, functor_equal,
                      validate_functor, validate_nat)
from .linalg import Mat, nullspace, rank, solve
from .quotient import QuotientCategory, build_quotient, induce_functor
from .recollement import (FUNCTOR_SLOTS, Recollement, _restricted_functor,
                          quotient_recollement, supp_image)
from .report import Report
from .triangulated import (Triangle, TriangulatedPresentation,
                           d_approximation_failure, is_D_epic, is_D_monic)


class StandardTriangle:
    """A registered sextuple of the quotient, with its ambient witness."""

    __slots__ = ("x", "y", "zv", "f", "g", "h", "ladder_y", "ladder_z",
                 "qx", "qy", "qz_obj", "qf", "qg", "qz", "name")

    def __init__(self, x, y, zv, f, g, h, ladder_y, ladder_z,
                 qx, qy, qz_obj, qf, qg, qz, name=""):
        self.x, self.y, self.zv = x, y, zv
        self.f, self.g, self.h = f, g, h
        self.ladder_y, self.ladder_z = ladder_y, ladder_z
        self.qx, self.qy, self.qz_obj = qx, qy, qz_obj
        self.qf, self.qg, self.qz = qf, qg, qz
        self.name = name

    def quotient_data(self):
        return (self.qx.summands, self.qy.summands, self.qz_obj.summands,
                self.qf.flatten(), self.qg.flatten(), self.qz.flatten())

    def __repr__(self):
        return "StandardTriangle(%s: %r -> %r -> %r)" % (self.name or "?",
                                                         self.qx, self.qy, self.qz_obj)


class MutationData:
    """A subcategory pair (z, d) with fixed approximation triangles."""

    def __init__(self, tri: TriangulatedPresentation, z: Subcategory,
                 d: Subcategory, fixed, cofixed=None, name: str = ""):
        if z.parent is not tri.cat or d.parent is not tri.cat:
            raise PreconditionError("subcategories do not live in the ambient category")
        self.tri = tri
        self.z = z
        self.d = d
        self.fixed = dict(fixed)
        self.cofixed = dict(cofixed or {})
        self.name = name
        self._quotient = None
        self._restricted = None
        self._sigma = None
        self.registered = []

    @property
    def restricted(self) -> FinLinCategory:
        if self._restricted is None:
            if set(self.z.members) == set(self.tri.cat.generators):
                self._restricted = self.tri.cat
            else:
                self._restricted = restrict_category(self.tri.cat, self.z.members,
                                                     name=self.tri.cat.name + "|Z")
        return self._restricted

    @property
    def quotient(self) -> QuotientCategory:
        if self._quotient is None:
            res = self.restricted
            self._quotient = build_quotient(res, Subcategory(res, self.d.members))
        return self._quotient

    def to_quotient(self, mor: Morphism) -> Morphism:
        return self.quotient.project_morphism(morphism_in(self.restricted, mor))

    def to_quotient_obj(self, obj: ObjectExpr) -> ObjectExpr:
        return self.quotient.project_object(obj)

    def lift(self, mor: Morphism) -> Morphism:
        """Canonical ambient representative of a quotient morphism."""
        return morphism_in(self.tri.cat, self.quotient.lift_morphism(mor))

    @property
    def sigma(self) -> LinearFunctor:
        if self._sigma is None:
            self._sigma = self._build_sigma()
        return self._sigma

    def _solve_shift(self, x: str, y: str, f: Morphism, d_override=None):
        """Ladder solve for the shift of an ambient morphism f: x -> y.

        Returns (d, z) with d o alpha_x = alpha_y o f, z o beta_x = beta_y o d
        and gamma_y o z = T(f) o gamma_x.  Raises when no completion exists.
        """
        cat = self.tri.cat
        tx, ty = self.fixed[x], self.fixed[y]
        if d_override is not None:
            dmor = d_override
        else:
            rhs = compose(ty.f, f)
            mat = precompose_mat(tx.f, ty.y)  # d |-> d o alpha_x
            sol = solve(mat, Mat.column(cat.field, rhs.flatten()))
            if sol is None:
                raise InconsistentDataError(
                    "no approximation ladder for %s -> %s" % (x, y))
            dmor = unflatten(cat, tx.y, ty.y, sol.col(0))
        zmor = _ladder_solve(tx.g, ty.h, compose(ty.g, dmor),
                             compose(self.tri.shift.apply(f), tx.h))
        if zmor is None:
            raise InconsistentDataError(
                "no shift-ladder completion for %s -> %s" % (x, y))
        return dmor, zmor

    def shift_nullspace(self, x: str, y: str):
        """Basis of the d-solutions of d o alpha_x = 0 (the ladder freedom)."""
        cat = self.tri.cat
        tx, ty = self.fixed[x], self.fixed[y]
        mat = precompose_mat(tx.f, ty.y)
        return [unflatten(cat, tx.y, ty.y, v) for v in nullspace(mat)]

    def _build_sigma(self) -> LinearFunctor:
        q = self.quotient
        pres = q.presentation
        object_map = {}
        for x in q.survivors:
            object_map[x] = self.to_quotient_obj(self.fixed[x].z)
        hom_maps = {}
        for x in q.survivors:
            for y in q.survivors:
                cols = []
                for qidx in range(pres.hom_dim(x, y)):
                    rep_mor = morphism_in(self.tri.cat, q.lift_basis(x, y, qidx))
                    _, zmor = self._solve_shift(x, y, rep_mor)
                    cols.append(self.to_quotient(zmor).flatten())
                if cols:
                    hom_maps[(x, y)] = Mat.from_columns(
                        pres.field, hom_dim_expr(pres, object_map[x], object_map[y]), cols)
        return LinearFunctor(pres, pres, object_map, hom_maps, name="sigma")


def mutation_shift(m: MutationData, fbar: Morphism) -> Morphism:
    """Image of a quotient morphism class under the mutation auto-equivalence."""
    x = fbar.source.summands
    y = fbar.target.summands
    if len(x) != 1 or len(y) != 1:
        return m.sigma.apply(fbar)
    rep = m.lift(fbar)
    _, zmor = m._solve_shift(x[0], y[0], rep)
    return m.to_quotient(zmor)


def make_D_monic(m: MutationData, f: Morphism) -> Morphism:
    """Replace f: X -> Y by the monic-side representative (f; alpha_X)."""
    x = f.source.summands
    if len(x) != 1:
        raise PreconditionError("monic replacement needs a single-generator source")
    alpha = m.fixed[x[0]].f
    cat = m.tri.cat
    tgt = ObjectExpr(f.target.summands + alpha.target.summands)
    blocks = [list(row) for row in f.blocks] + [list(row) for row in alpha.blocks]
    return Morphism(cat, ObjectExpr(f.source.summands), tgt, blocks)


def check_mutation_pair(m: MutationData) -> Report:
    """Both approximation-triangle conditions plus structural checks."""
    rep = Report()
    cat = m.tri.cat
    if not set(m.d.members) <= set(m.z.members):
        rep.fail("structure.d-in-z",
                 "members %s outside z" % sorted(set(m.d.members) - set(m.z.members)))
    else:
        rep.ok("structure.d-in-z")

    for x in m.z.members:
        key = "condition1.%s" % x
        t = m.fixed.get(x)
        if t is None:
            rep.fail(key, "no fixed triangle")
            continue
        problems = []
        if t.x.summands != (x,):
            problems.append("first vertex is %r" % t.x)
        if not t.y.support() <= m.d.member_set():
            problems.append("middle term outside d")
        if not t.z.support() <= m.z.member_set():
            problems.append("third term outside z")
        if not is_D_monic(cat, t.f, m.d):
            problems.append("left map is not a left approximation")
        if not is_D_epic(cat, t.g, m.d):
            problems.append("right map is not a right approximation")
        undecided = ""
        try:
            if m.tri.membership(t) is None:
                problems.append("triangle not in the distinguished closure")
        except UndecidedError as exc:
            undecided = str(exc)
        if problems:
            rep.fail(key, "; ".join(problems))
        rep.conclude(key, not problems, undecided)

    for y in m.z.members:
        key = "condition2.%s" % y
        try:
            t = _condition2_triangle(m, y)
        except UndecidedError as exc:
            rep.not_checked(key, str(exc))
            continue
        if t is None:
            rep.fail(key, "no co-approximation triangle ending at %s" % y)
        else:
            rep.ok(key, "via %s" % (t.name or "triangle"))

    ok = True
    for t in m.tri.triangles:
        if t.x.support() <= m.z.member_set() and t.z.support() <= m.z.member_set():
            if not t.y.support() <= m.z.member_set():
                ok = False
                rep.fail("extension-closed",
                         "triangle %s has middle term outside z" % (t.name or "?"))
    if ok:
        rep.ok("extension-closed")
    return rep


def _condition2_ok(m: MutationData, t: Triangle, y: str) -> bool:
    cat = m.tri.cat
    return (t.z.summands == (y,)
            and t.x.support() <= m.z.member_set()
            and t.y.support() <= m.d.member_set()
            and is_D_monic(cat, t.f, m.d)
            and is_D_epic(cat, t.g, m.d)
            and m.tri.membership(t) is not None)


def _condition2_triangle(m: MutationData, y: str):
    """A user-supplied or searched triangle witnessing the second condition,
    or None; UndecidedError when there is none and a search was undecided."""
    if y in m.cofixed:
        candidates = [m.cofixed[y]]
    else:
        candidates = [m.fixed[x] for x in m.z.members if x in m.fixed] + m.tri.atoms()
    undecided = None
    for t in candidates:
        try:
            if _condition2_ok(m, t, y):
                return t
        except UndecidedError as exc:
            undecided = undecided or exc
    if undecided:
        raise undecided
    return None


def standard_triangle(m: MutationData, f: Morphism, witness=None,
                      name: str = "") -> StandardTriangle:
    """Ladder a distinguished completion of a monic-side morphism down to the
    fixed triangle and register the resulting quotient sextuple."""
    cat = m.tri.cat
    x = f.source.summands
    if len(x) != 1 or x[0] not in m.fixed:
        raise PreconditionError("source must be a single generator with a fixed triangle")
    x = x[0]
    w = d_approximation_failure(f, m.d, monic=True)
    if w is not None:
        raise PreconditionError("morphism is not monic for the approximating "
                                "subcategory", witness="fails against %s" % w)
    if witness is None:
        witness = m.tri.complete_monic(f)
        if witness is None:
            raise InconsistentDataError("no distinguished completion found")
    else:
        if witness.f.flatten() != f.flatten() \
                or witness.f.source.summands != f.source.summands \
                or witness.f.target.summands != f.target.summands:
            raise PreconditionError("witness triangle does not start with the morphism")
        if m.tri.membership(witness) is None:
            raise PreconditionError("witness triangle is not distinguished")
    t0 = m.fixed[x]
    mat = precompose_mat(f, t0.y)  # y |-> y o f
    sol = solve(mat, Mat.column(cat.field, t0.f.flatten()))
    if sol is None:
        raise InconsistentDataError("monic morphism admits no lift of the approximation")
    ymor = unflatten(cat, witness.y, t0.y, sol.col(0))
    zmor = _ladder_solve(witness.g, t0.h, compose(t0.g, ymor), witness.h)
    if zmor is None:
        raise InconsistentDataError("no ladder completion onto the fixed triangle")
    st = StandardTriangle(
        witness.x, witness.y, witness.z, witness.f, witness.g, witness.h,
        ymor, zmor,
        m.to_quotient_obj(witness.x), m.to_quotient_obj(witness.y),
        m.to_quotient_obj(witness.z),
        m.to_quotient(witness.f), m.to_quotient(witness.g), m.to_quotient(zmor),
        name=name)
    for prev in m.registered:
        if prev.quotient_data() == st.quotient_data():
            return prev
    m.registered.append(st)
    return st


def _sigma_is_equivalence(m: MutationData, rep: Report):
    q = m.quotient
    pres = q.presentation
    sigma = m.sigma
    rep.record("sigma.functor", validate_functor(sigma))
    ok = True
    for xg in q.survivors:
        for yg in q.survivors:
            d = pres.hom_dim(xg, yg)
            mat = sigma.hom_maps[(xg, yg)]
            if mat.rows != d or (d and rank(mat) != d):
                ok = False
                rep.fail("sigma.fully-faithful", "Hom(%s,%s)" % (xg, yg))
    if ok:
        rep.ok("sigma.fully-faithful")

    try:
        class_of = {g: iso_class(pres, g) for g in q.survivors}
    except UndecidedError as exc:
        rep.not_checked("sigma.object-bijection", str(exc))
        return
    image = {}
    for xg in q.survivors:
        summands = sigma.object_map[xg].summands
        image[class_of[xg]] = class_of[summands[0]] if len(summands) == 1 else None
    if set(image.values()) == set(image):
        rep.ok("sigma.object-bijection")
    else:
        rep.fail("sigma.object-bijection",
                 "object map is not a bijection of isomorphism classes")


def verify_quotient_triangulation(m: MutationData) -> Report:
    """Check the quotient's triangulation on its registered standard triangles.

    sigma must be an auto-equivalence.  TR1 is sampled: the zero, identity
    and basis morphism classes between surviving generators must each embed
    in a standard triangle, which is registered.  Both composites of every
    registered triangle must vanish.  TR3 is decided exactly on every
    ordered pair of registered triangles: each commuting square between
    their first maps, not only sampled ones, must complete to a morphism of
    triangles (`_tr3_pair`); the witness is the total dimension of the
    square spaces.  The check covers the registered triangles, not their
    closure under sums and isomorphism.  Rotation (TR2) and the octahedron
    (TR4) are reported not-checked."""
    rep = Report()
    q = m.quotient
    pres = q.presentation
    try:
        _sigma_is_equivalence(m, rep)
    except InconsistentDataError as exc:
        rep.fail("sigma", str(exc))
        return rep

    for xg in q.survivors:
        for yg in q.survivors:
            src, tgt = ObjectExpr((xg,)), ObjectExpr((yg,))
            classes = [("basis%d" % qidx, fbar)
                       for qidx, fbar in enumerate(hom_basis(pres, src, tgt))]
            classes.append(("zero", Morphism.zero(pres, src, tgt)))
            if xg == yg:
                classes.append(("identity", Morphism.identity(pres, src)))
            seen = set()
            for label, fbar in classes:
                if fbar.flatten() in seen:
                    continue
                seen.add(fbar.flatten())
                key = "tr1.%s-%s.%s" % (xg, yg, label)
                famb = m.lift(fbar)
                try:
                    monic = make_D_monic(m, famb)
                    standard_triangle(m, monic, name="tr1.%s" % key)
                    rep.ok(key)
                except (PreconditionError, InconsistentDataError) as exc:
                    rep.fail(key, str(exc))
                except UndecidedError as exc:
                    rep.not_checked(key, str(exc))

    ok = True
    for st in m.registered:
        if not compose(st.qg, st.qf).is_zero():
            ok = False
            rep.fail("composites.zero", "%s: second o first != 0" % (st.name or "?"))
        if not compose(st.qz, st.qg).is_zero():
            ok = False
            rep.fail("composites.zero", "%s: third o second != 0" % (st.name or "?"))
    if ok:
        rep.ok("composites.zero")

    ok = True
    squares = 0
    for i1, t1 in enumerate(m.registered):
        for i2, t2 in enumerate(m.registered):
            dim, completes = _tr3_pair(m, t1, t2)
            squares += dim
            if not completes:
                ok = False
                rep.fail("tr3", "no completion between %d and %d" % (i1, i2))
    if ok:
        rep.ok("tr3", "every commuting square completes (total dimension %d)"
               % squares)
    rep.not_checked("tr2")
    rep.not_checked("tr4")
    return rep


def _tr3_pair(m: MutationData, t1, t2):
    """(dim, completes): the dimension of the space of commuting squares
    (a, b) with f2 o a = b o f1, and whether every such square extends to a
    morphism of triangles.

    The ladder right-hand side (g2 o b, sigma(a) o h1) is linear in (a, b),
    so every square completes exactly when the images of a basis of the
    square space lie in the column space of `_ladder_matrix(g1, h2)`: one
    solve, against all of them at once."""
    F = m.quotient.presentation.field
    x1, x2, y1 = t1.qf.source, t2.qf.source, t1.qg.source
    post_a = postcompose_mat(t2.qf, x1)
    da = post_a.cols
    squares = nullspace(post_a.hstack(precompose_mat(t1.qf, t2.qf.target).neg()))
    if not squares:
        return 0, True
    na = Mat.from_columns(F, da, [v[:da] for v in squares])
    nb = Mat.from_columns(F, len(squares[0]) - da, [v[da:] for v in squares])
    images = postcompose_mat(t2.qg, y1).mul(nb).vstack(
        precompose_mat(t1.qz, t2.qz.target).mul(m.sigma.action(x1, x2)).mul(na))
    return len(squares), solve(_ladder_matrix(t1.qg, t2.qz), images) is not None


def _ladder_matrix(g: Morphism, h: Morphism) -> Mat:
    """Matrix of c |-> (c o g, h o c) on Hom(g.target, h.source)."""
    return precompose_mat(g, h.source).vstack(postcompose_mat(h, g.target))


def _ladder_solve(g: Morphism, h: Morphism, r1: Morphism, r2: Morphism):
    """The canonical c: g.target -> h.source with c o g = r1 and h o c = r2,
    or None when no such c exists."""
    cat = g.cat
    sol = solve(_ladder_matrix(g, h), Mat.column(cat.field, r1.flatten() + r2.flatten()))
    if sol is None:
        return None
    return unflatten(cat, g.target, h.source, sol.col(0))


class ExactFunctorData:
    """A functor between triangulated presentations with shift-commutation
    data and (validated) exactness evidence."""

    def __init__(self, functor: LinearFunctor, source_tri: TriangulatedPresentation,
                 target_tri: TriangulatedPresentation, shift_iso=None, name: str = ""):
        self.functor = functor
        self.source_tri = source_tri
        self.target_tri = target_tri
        self.shift_iso = shift_iso  # None means strict commutation
        self.name = name or functor.name
        self.fullness_certified = False

    def shift_twist(self, obj: ObjectExpr) -> Morphism:
        """Component F(T obj) -> T'(F obj) of the commutation isomorphism."""
        if self.shift_iso is None:
            src = self.functor.apply_obj(self.source_tri.shift.apply_obj(obj))
            return Morphism.identity(self.functor.target, src)
        return self.shift_iso.at(obj)

    def push_triangle(self, t: Triangle, name: str = "") -> Triangle:
        F = self.functor
        h = compose(self.shift_twist(t.x), F.apply(t.h))
        return Triangle(F.apply_obj(t.x), F.apply_obj(t.y), F.apply_obj(t.z),
                        F.apply(t.f), F.apply(t.g), h, name=name or ("F" + (t.name or "")))

    def validate(self) -> Report:
        rep = Report()
        F = self.functor
        if F.source is not self.source_tri.cat or F.target is not self.target_tri.cat:
            rep.fail("exact.boundaries", "functor does not match the presentations")
            return rep
        rep.record("exact.functor", validate_functor(F))
        ft = compose_functors(F, self.source_tri.shift)
        tf = compose_functors(self.target_tri.shift, F)
        if self.shift_iso is None:
            if functor_equal(ft, tf):
                rep.ok("exact.shift-commutation", "strict")
            else:
                rep.fail("exact.shift-commutation",
                         "composites differ and no comparison isomorphism given")
        else:
            sub = validate_nat(self.shift_iso)
            if sub.ok_all:
                rep.ok("exact.shift-iso.natural")
            else:
                for e in sub.failures():
                    rep.fail("exact.shift-iso.%s" % e.key, e.witness)
            bad = [g for g in F.source.generators
                   if morphism_inverse(self.shift_iso.components[g]) is None]
            if bad:
                rep.fail("exact.shift-iso.invertible", "at %s" % bad[0])
            else:
                rep.ok("exact.shift-iso.invertible")
        full = True
        for g in F.source.generators:
            for h in F.source.generators:
                mat = F.hom_maps[(g, h)]
                if rank(mat) != mat.rows:
                    full = False
                    rep.fail("exact.full", "Hom map (%s,%s) not surjective" % (g, h))
        if full:
            rep.ok("exact.full")
            self.fullness_certified = True
        ok, undecided = True, ""
        for t in self.source_tri.triangles:
            try:
                found = self.target_tri.membership(self.push_triangle(t))
            except UndecidedError as exc:
                undecided = undecided or "image of %s: %s" % (t.name or "?", exc)
                continue
            if found is None:
                ok = False
                rep.fail("exact.triangle-image",
                         "image of %s not distinguished" % (t.name or "?"))
        rep.conclude("exact.triangle-image", ok, undecided)
        return rep


def image_mutation_pair(e: ExactFunctorData, m: MutationData,
                        name: str = "") -> tuple:
    """Push a mutation pair through a full exact functor and re-check it."""
    rep = Report()
    sub = e.validate()
    rep.merge(sub, prefix="push.")
    if not e.fullness_certified:
        rep.fail("push.fullness-required", "functor is not full")
        return None, rep
    F = e.functor
    tgt = e.target_tri.cat
    z2 = Subcategory(tgt, supp_image(F, m.z.members))
    d2 = Subcategory(tgt, supp_image(F, m.d.members))
    fixed2 = {}
    for g2 in z2.members:
        src_gen = None
        for x in m.z.members:
            if F.object_map[x].summands == (g2,):
                src_gen = x
                break
        if src_gen is None:
            rep.fail("push.dense", "no source generator maps onto %s" % g2)
            return None, rep
        fixed2[g2] = e.push_triangle(m.fixed[src_gen], name="F.%s" % src_gen)
    cofixed2 = {}
    for y, t in sorted(m.cofixed.items()):
        img = F.object_map[y].summands
        if len(img) == 1:
            cofixed2[img[0]] = e.push_triangle(t, name="F.co.%s" % y)
    m2 = MutationData(e.target_tri, z2, d2, fixed2, cofixed2,
                      name=name or ("F." + (m.name or "")))
    sub = check_mutation_pair(m2)
    rep.merge(sub, prefix="image.")
    if not sub.ok_all:
        rep.fail("push.image-is-mutation-pair",
                 "pushed pair fails the mutation-pair check")
    else:
        rep.ok("push.image-is-mutation-pair")
    return m2, rep


def induced_exact_functor(e: ExactFunctorData, m: MutationData,
                          m2: MutationData) -> tuple:
    """The functor induced between the quotients, certified exact: it must
    commute with the two shifts and send registered standard triangles to
    standard triangles of the target."""
    rep = Report()
    F = e.functor
    if not supp_image(F, m.z.members) <= set(m2.z.members):
        raise PreconditionError("functor does not preserve the middle subcategories")
    bad = supp_image(F, m.d.members) - set(m2.d.members)
    if bad:
        raise PreconditionError("functor does not preserve the approximating "
                                "subcategories", witness=sorted(bad)[0])
    res_src, res_tgt = m.restricted, m2.restricted
    if res_src is F.source and res_tgt is F.target:
        fres = F
    else:
        fres = _restricted_functor(F, res_src, res_tgt)
    tilde = induce_functor(fres, m.quotient, m2.quotient, name=F.name + "~")

    ok = True
    for x in m.quotient.survivors:
        lhs = tilde.apply_obj(m.sigma.object_map[x])
        rhs = m2.sigma.apply_obj(tilde.object_map[x])
        if lhs.summands != rhs.summands:
            ok = False
            rep.fail("exact.sigma-objects",
                     "at %s: %r vs %r" % (x, lhs, rhs))
    if ok:
        rep.ok("exact.sigma-objects")

    ok = True
    pres = m.quotient.presentation
    for xg in m.quotient.survivors:
        for yg in m.quotient.survivors:
            for qidx, fbar in enumerate(hom_basis(pres, ObjectExpr((xg,)),
                                                  ObjectExpr((yg,)))):
                lhs = tilde.apply(mutation_shift(m, fbar))
                rhs = mutation_shift(m2, tilde.apply(fbar))
                if not lhs.equal(rhs):
                    ok = False
                    rep.fail("exact.sigma-morphisms",
                             "basis %d of Hom(%s,%s)" % (qidx, xg, yg))
    if ok:
        rep.ok("exact.sigma-morphisms")

    ok, undecided = True, ""
    for st in m.registered:
        try:
            standard = _image_is_standard(e, m, m2, st)
        except UndecidedError as exc:
            undecided = undecided or "%s: %s" % (st.name or "?", exc)
            continue
        if not standard:
            ok = False
            rep.fail("exact.standard-triangle-image", st.name or "?")
    rep.conclude("exact.standard-triangle-image", ok, undecided,
                 "%d registered triangles checked" % len(m.registered))
    return tilde, rep


def _image_is_standard(e: ExactFunctorData, m: MutationData, m2: MutationData,
                       st: StandardTriangle) -> bool:
    F = e.functor
    img_qf = m2.to_quotient(F.apply(st.f))
    img_qg = m2.to_quotient(F.apply(st.g))
    img_qz = m2.to_quotient(F.apply(st.ladder_z))
    img_data = (img_qf.source.summands, img_qf.target.summands,
                img_qg.target.summands, img_qf.flatten(), img_qg.flatten(),
                img_qz.flatten())
    for prev in m2.registered:
        if prev.quotient_data() == img_data:
            return True
    if img_qf.source.is_zero():
        # The first vertex collapses: the sextuple is standard exactly when
        # it is isomorphic to (0, Y, Y, 0, 1, 0), i.e. the middle map is
        # invertible (or everything vanished).
        if img_qf.target.is_zero():
            return img_qg.target.is_zero()
        return morphism_inverse(img_qg) is not None
    famb = F.apply(st.f)
    witness = e.push_triangle(Triangle(st.x, st.y, st.zv, st.f, st.g, st.h))
    try:
        rebuilt = standard_triangle(m2, famb, witness=witness,
                                    name="img." + (st.name or "?"))
    except (PreconditionError, InconsistentDataError):
        return False
    if rebuilt.quotient_data() == img_data:
        return True
    # Same first two maps; accept any isomorphism of sextuples fixing them.
    c = _ladder_solve(img_qg, rebuilt.qz, rebuilt.qg, img_qz)
    return c is not None and morphism_inverse(c) is not None


def triangulated_quotient_recollement(rec: Recollement, tris: dict, exact: dict,
                                      d: Subcategory, m: MutationData,
                                      semantics: str = "strict"):
    """Full pipeline: additive quotient diagram plus triangulated structure on
    all three quotients and exactness certificates for the six induced
    functors.

    tris maps "left"/"mid"/"right" to the triangulated presentations; exact
    maps the six functor slots to their ExactFunctorData.
    """
    rep = Report()
    for key in ("left", "mid", "right"):
        sub = tris[key].validate()
        rep.merge(sub, prefix="presentation.%s." % key)
    for slot in FUNCTOR_SLOTS:
        sub = exact[slot].validate()
        rep.merge(sub, prefix="input.%s." % slot)

    bad = [g for g in d.members
           if not rec.j_up.apply_obj(ObjectExpr((g,))).is_zero()]
    if bad:
        rep.fail("precondition.d-in-ker-j_up",
                 "generator %s has nonzero image under j_up" % bad[0])
        return None, rep
    rep.ok("precondition.d-in-ker-j_up")

    if set(m.z.members) != set(rec.middle.generators):
        rep.fail("precondition.z-is-everything",
                 "mutation data does not cover the whole middle category")
        return None, rep
    sub = check_mutation_pair(m)
    rep.merge(sub, prefix="mutation.")
    if not sub.ok_all:
        return None, rep

    d_pre = [g for g in rec.left.generators
             if supp_image(rec.i_lo, [g]) <= set(d.members)]
    if supp_image(rec.i_lo, d_pre) == set(d.members):
        rep.ok("preimage-subcategory", ",".join(d_pre) or "(zero)")
    else:
        rep.fail("preimage-subcategory",
                 "no left subcategory maps onto the approximating one")

    try:
        diagram, sub = quotient_recollement(rec, d, semantics)
    except PreconditionError as exc:
        rep.fail("additive.hypotheses", "%s (%s)" % (exc, exc.witness))
        return None, rep
    rep.merge(sub, prefix="additive.")

    m_left, sub = image_mutation_pair(exact["i_up"], m, name="left")
    rep.merge(sub, prefix="push.left.")
    m_right, sub = image_mutation_pair(exact["j_up"], m, name="right")
    rep.merge(sub, prefix="push.right.")
    if m_left is None or m_right is None:
        return None, rep

    rep.merge(verify_quotient_triangulation(m), prefix="triangulation.mid.")
    rep.merge(verify_quotient_triangulation(m_left), prefix="triangulation.left.")
    rep.merge(verify_quotient_triangulation(m_right), prefix="triangulation.right.")

    sides = {"left": m_left, "middle": m, "right": m_right}
    induced = {}
    for slot, (src, tgt) in FUNCTOR_SLOTS.items():
        try:
            tilde, sub = induced_exact_functor(exact[slot], sides[src], sides[tgt])
            induced[slot] = tilde
            rep.merge(sub, prefix="exact.%s." % slot)
        except (PreconditionError, InconsistentDataError) as exc:
            rep.fail("exact.%s" % slot, str(exc))
    return {"diagram": diagram, "m_left": m_left, "m_right": m_right,
            "induced": induced}, rep
