"""Mutation pairs and the triangulated structure on the quotient.

One ladder primitive, `_ladder`, builds both the auto-equivalence sigma of
the quotient (ladders between the fixed approximation triangles; sigma is a
functor, and a morphism is shifted only by applying it) and every standard
triangle (the ladder of a distinguished completion of a monic-side morphism
onto the fixed triangle).  A `StandardTriangle` is the quotient sextuple with
its ambient triangle and ladder.  The register `MutationData.registered` is
the value TR1 computes once; no check adds to it.  Composites and TR3 are
decided on it by linear algebra, and the images of standard triangles under
an exact functor by `triangulated.triangle_iso`.  The rotation and
octahedron axioms are reported as unchecked.
"""

from __future__ import annotations

from .category import (FinLinCategory, Morphism, Subcategory, compose, hom_basis,
                       hom_dim_expr, iso_class, morphism_in, morphism_inverse,
                       obj_text, postcompose_mat, precompose_mat, restrict_category)
from .errors import InconsistentDataError, PreconditionError, UndecidedError
from .functor import (LinearFunctor, compose_functors, functor_mismatches,
                      non_bijective_pairs, non_full_pairs, validate_functor,
                      validate_nat)
from .linalg import Mat, nullspace, solve
from .quotient import QuotientCategory, build_quotient, induce_functor
from .recollement import (FUNCTOR_SLOTS, Recollement, _restricted_functor,
                          quotient_recollement, supp_image)
from .report import Report
from .triangulated import (Triangle, TriangulatedPresentation,
                           d_approximation_failure, is_D_epic, is_D_monic,
                           triangle_iso)


class StandardTriangle(Triangle):
    """A registered sextuple of the quotient (the inherited x, y, z, f, g, h),
    with the ambient distinguished triangle it comes from and the third map
    ladder_z of the ladder (1, y, ladder_z) from that triangle onto the fixed
    triangle of x."""

    __slots__ = ("ambient", "ladder_z")

    def __init__(self, quotient: Triangle, ambient: Triangle, ladder_z):
        super().__init__(quotient.x, quotient.y, quotient.z, quotient.f,
                         quotient.g, quotient.h, name=quotient.name)
        self.ambient, self.ladder_z = ambient, ladder_z


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
        self._tr1_pass = None

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
        return self.quotient.projection.apply(morphism_in(self.restricted, mor))

    def to_quotient_obj(self, obj: tuple) -> tuple:
        return self.quotient.projection.apply_obj(obj)

    def to_quotient_triangle(self, t: Triangle, h: Morphism, name: str = "") -> Triangle:
        """The quotient sextuple of t with third map the class of h, a ladder
        map from t.z onto the third vertex of the fixed triangle of t.x."""
        return Triangle(self.to_quotient_obj(t.x), self.to_quotient_obj(t.y),
                        self.to_quotient_obj(t.z), self.to_quotient(t.f),
                        self.to_quotient(t.g), self.to_quotient(h), name=name)

    def lift(self, mor: Morphism) -> Morphism:
        """Canonical ambient representative of a quotient morphism."""
        return morphism_in(self.tri.cat, self.quotient.lift_morphism(mor))

    @property
    def sigma(self) -> LinearFunctor:
        if self._sigma is None:
            self._sigma = self._build_sigma()
        return self._sigma

    def tr1(self) -> tuple:
        """(report, registered) of the one TR1 pass (`_tr1`), computed once."""
        if self._tr1_pass is None:
            self._tr1_pass = _tr1(self)
        return self._tr1_pass

    @property
    def registered(self) -> tuple:
        """The distinct standard triangles built by TR1, in the order built."""
        return self.tr1()[1]

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
                    lift = morphism_in(self.tri.cat, q.lift_basis(x, y, qidx))
                    zmor = _ladder(self.tri.shift, self.fixed[x], self.fixed[y], lift)
                    if zmor is None:
                        raise InconsistentDataError("no shift ladder for %s -> %s" % (x, y))
                    cols.append(self.to_quotient(zmor).coords)
                if cols:
                    hom_maps[(x, y)] = Mat.from_columns(
                        pres.field, hom_dim_expr(pres, object_map[x], object_map[y]), cols)
        return LinearFunctor(pres, pres, object_map, hom_maps, name="sigma")


def make_D_monic(m: MutationData, f: Morphism) -> Morphism:
    """Replace f: X -> Y by the monic-side representative (f; alpha_X)."""
    x = f.source
    if len(x) != 1:
        raise PreconditionError("monic replacement needs a single-generator source")
    alpha = m.fixed[x[0]].f
    cat = m.tri.cat
    return Morphism(cat, x, f.target + alpha.target, f.coords + alpha.coords)


def check_mutation_pair(m: MutationData) -> Report:
    """Both approximation-triangle conditions plus structural checks."""
    rep = Report()
    if not set(m.d.members) <= set(m.z.members):
        rep.fail("structure.d-in-z",
                 "members %s outside z" % sorted(set(m.d.members) - set(m.z.members)))
    rep.close("structure.d-in-z")

    for x in m.z.members:
        key = "condition1.%s" % x
        t = m.fixed.get(x)
        if t is None:
            rep.fail(key, "no fixed triangle")
            continue
        problems = list(_approximation_problems(m, t, x, first=True))
        undecided = ""
        try:
            if m.tri.membership(t) is None:
                problems.append("triangle not in the distinguished closure")
        except UndecidedError as exc:
            undecided = str(exc)
        if problems:
            rep.fail(key, "; ".join(problems))
        rep.close(key, undecided)

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
            rep.close(key, witness="via %s" % (t.name or "triangle"))

    for t in m.tri.triangles:
        if set(t.x) <= m.z.member_set() and set(t.z) <= m.z.member_set():
            if not set(t.y) <= m.z.member_set():
                rep.fail("extension-closed",
                         "triangle %s has middle term outside z" % (t.name or "?"))
    rep.close("extension-closed")
    return rep


def _approximation_problems(m: MutationData, t: Triangle, gen: str, first: bool):
    """The structural reasons, lazily, why t is not an approximation triangle
    at gen: gen must be its first vertex (first, condition 1) or its third
    (condition 2), the middle term must lie in d and the other end in z, the
    first map must be a left and the second a right d-approximation."""
    end, far = (t.x, t.z) if first else (t.z, t.x)
    if end != (gen,):
        yield "%s vertex is %s" % ("first" if first else "third", obj_text(end))
    if not set(t.y) <= m.d.member_set():
        yield "middle term outside d"
    if not set(far) <= m.z.member_set():
        yield "%s term outside z" % ("third" if first else "first")
    if not is_D_monic(t.f, m.d):
        yield "left map is not a left approximation"
    if not is_D_epic(t.g, m.d):
        yield "right map is not a right approximation"


def _condition2_triangle(m: MutationData, y: str):
    """A user-supplied or searched triangle witnessing the second condition,
    or None; UndecidedError when there is none and a search was undecided."""
    if y in m.cofixed:
        candidates = [m.cofixed[y]]
    else:
        candidates = [m.fixed[x] for x in m.z.members if x in m.fixed] + m.tri.atoms()
    undecided = None
    for t in candidates:
        if next(_approximation_problems(m, t, y, first=False), None) is not None:
            continue
        try:
            if m.tri.membership(t) is not None:
                return t
        except UndecidedError as exc:
            undecided = undecided or exc
    if undecided:
        raise undecided
    return None


def standard_triangle(m: MutationData, f: Morphism, witness=None,
                      name: str = "") -> StandardTriangle:
    """Ladder a distinguished completion of a monic-side morphism down to the
    fixed triangle and return the resulting quotient sextuple."""
    cat = m.tri.cat
    x = f.source
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
        if not witness.f.equal(f):
            raise PreconditionError("witness triangle does not start with the morphism")
        if m.tri.membership(witness) is None:
            raise PreconditionError("witness triangle is not distinguished")
    zmor = _ladder(m.tri.shift, witness, m.fixed[x], Morphism.identity(cat, f.source))
    if zmor is None:
        raise InconsistentDataError("no ladder completion onto the fixed triangle")
    return StandardTriangle(m.to_quotient_triangle(witness, zmor, name), witness, zmor)


def _sigma_is_equivalence(m: MutationData, rep: Report):
    q = m.quotient
    pres = q.presentation
    sigma = m.sigma
    rep.record("sigma.functor", validate_functor(sigma))
    for xg, yg, _ in non_bijective_pairs(sigma):
        rep.fail("sigma.fully-faithful", "Hom(%s,%s)" % (xg, yg))
    rep.close("sigma.fully-faithful")

    try:
        class_of = {g: iso_class(pres, g) for g in q.survivors}
    except UndecidedError as exc:
        rep.not_checked("sigma.object-bijection", str(exc))
        return
    image = {}
    for xg in q.survivors:
        img = sigma.object_map[xg]
        image[class_of[xg]] = class_of[img[0]] if len(img) == 1 else None
    if set(image.values()) != set(image):
        rep.fail("sigma.object-bijection",
                 "object map is not a bijection of isomorphism classes")
    rep.close("sigma.object-bijection")


def _tr1(m: MutationData) -> tuple:
    """(report, triangles) of TR1, which is sampled: the zero, identity and
    basis morphism classes between surviving generators must each embed in
    a standard triangle.  The triangles are the distinct ones built, in
    order; they are the register `MutationData.registered`."""
    rep = Report()
    built, registered = [], set()
    q = m.quotient
    pres = q.presentation
    for xg in q.survivors:
        for yg in q.survivors:
            src, tgt = (xg,), (yg,)
            classes = [("basis%d" % qidx, fbar)
                       for qidx, fbar in enumerate(hom_basis(pres, src, tgt))]
            classes.append(("zero", Morphism.zero(pres, src, tgt)))
            if xg == yg:
                classes.append(("identity", Morphism.identity(pres, src)))
            seen = set()
            for label, fbar in classes:
                if fbar.coords in seen:
                    continue
                seen.add(fbar.coords)
                key = "tr1.%s-%s.%s" % (xg, yg, label)
                try:
                    st = standard_triangle(m, make_D_monic(m, m.lift(fbar)), name=key)
                except (PreconditionError, InconsistentDataError) as exc:
                    rep.fail(key, str(exc))
                except UndecidedError as exc:
                    rep.not_checked(key, str(exc))
                else:
                    rep.close(key)
                    if st.data_key() not in registered:
                        registered.add(st.data_key())
                        built.append(st)
    return rep, tuple(built)


def verify_quotient_triangulation(m: MutationData) -> Report:
    """Check the quotient's triangulation on its registered standard triangles.

    sigma must be an auto-equivalence.  TR1 (`_tr1`) builds the register.
    Composites and TR3 are then decided on it (`_check_triangles`).  The
    check covers the registered triangles, not their closure under sums and
    isomorphism.  Rotation (TR2) and the octahedron (TR4) are reported
    not-checked."""
    rep = Report()
    try:
        _sigma_is_equivalence(m, rep)
    except InconsistentDataError as exc:
        rep.fail("sigma", str(exc))
        return rep
    tr1, registered = m.tr1()
    rep.merge(tr1)
    rep.merge(_check_triangles(m, registered))
    rep.not_checked("tr2")
    rep.not_checked("tr4")
    return rep


def _check_triangles(m: MutationData, triangles: tuple) -> Report:
    """Both composites of every triangle must vanish, and TR3 is decided
    exactly on every ordered pair: each commuting square between their first
    maps, not only sampled ones, must complete to a morphism of triangles
    (`_tr3_pair`); the witness is the total dimension of the square spaces."""
    rep = Report()
    for st in triangles:
        if not compose(st.g, st.f).is_zero():
            rep.fail("composites.zero", "%s: second o first != 0" % (st.name or "?"))
        if not compose(st.h, st.g).is_zero():
            rep.fail("composites.zero", "%s: third o second != 0" % (st.name or "?"))
    rep.close("composites.zero")

    squares = 0
    mats = _HomMats()
    for i1, t1 in enumerate(triangles):
        for i2, t2 in enumerate(triangles):
            dim, completes = _tr3_pair(m, t1, t2, mats)
            squares += dim
            if not completes:
                rep.fail("tr3", "no completion between %d and %d" % (i1, i2))
    rep.close("tr3", witness="every commuting square completes (total dimension %d)"
              % squares)
    return rep


class _HomMats(dict):
    """Memo of Hom-action matrices: mats[act, mor, obj] is act(mor, obj) for
    act `postcompose_mat` or `precompose_mat`, built on first use."""

    def __missing__(self, key):
        act, mor, obj = key
        mat = self[key] = act(mor, obj)
        return mat


def _tr3_pair(m: MutationData, t1, t2, mats):
    """(dim, completes): the dimension of the space of commuting squares
    (a, b) with f2 o a = b o f1, and whether every such square extends to a
    morphism of triangles.

    The ladder right-hand side (g2 o b, sigma(a) o h1) is linear in (a, b),
    so every square completes exactly when the images of a basis of the
    square space lie in the column space of `_ladder_matrix(g1, h2)`: one
    solve, against all of them at once.  The matrices come from mats, which
    a caller shares across pairs."""
    F = m.quotient.presentation.field
    post_a = mats[postcompose_mat, t2.f, t1.x]
    da = post_a.cols
    squares = nullspace(post_a.hstack(mats[precompose_mat, t1.f, t2.y].neg()))
    if not squares:
        return 0, True
    na = Mat.from_columns(F, da, [v[:da] for v in squares])
    nb = Mat.from_columns(F, len(squares[0]) - da, [v[da:] for v in squares])
    images = mats[postcompose_mat, t2.g, t1.y].mul(nb).vstack(
        mats[precompose_mat, t1.h, t2.h.target].mul(m.sigma.action(t1.x, t2.x)).mul(na))
    return len(squares), solve(_ladder_matrix(t1.g, t2.h, mats), images) is not None


def _ladder_matrix(g: Morphism, h: Morphism, mats) -> Mat:
    """Matrix of c |-> (c o g, h o c) on Hom(g.target, h.source), from the
    memo mats (`_HomMats`)."""
    return mats[precompose_mat, g, h.source].vstack(mats[postcompose_mat, h, g.target])


def _ladder(shift: LinearFunctor, s: Triangle, t: Triangle, a: Morphism):
    """The third map c of the canonical (b, c) completing a: s.x -> t.x to
    a morphism of triangles s -> t, with b o s.f = t.f o a, c o s.g = t.g o b
    and t.h o c = T(a) o s.h; or None when there is no such completion."""
    cat = a.cat
    sol = solve(precompose_mat(s.f, t.y), Mat.column(cat.field, compose(t.f, a).coords))
    if sol is None:
        return None
    b = Morphism(cat, s.y, t.y, sol.col(0))
    rhs = compose(t.g, b).coords + compose(shift.apply(a), s.h).coords
    sol = solve(_ladder_matrix(s.g, t.h, _HomMats()), Mat.column(cat.field, rhs))
    if sol is None:
        return None
    return Morphism(cat, s.g.target, t.h.source, sol.col(0))


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

    def shift_twist(self, obj: tuple) -> Morphism:
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
            first = next(functor_mismatches(ft, tf), None)
            if first is not None:
                rep.fail("exact.shift-commutation",
                         "composites differ on %s, %s; no comparison isomorphism "
                         "given" % first)
            rep.close("exact.shift-commutation", witness="strict")
        else:
            # validate_nat fails under "naturality", which is not a sub-key
            # of "exact.shift-iso.natural": close it only when nothing failed.
            sub = validate_nat(self.shift_iso)
            for e in sub.failures():
                rep.fail("exact.shift-iso.%s" % e.key, e.witness)
            if sub.ok_all:
                rep.close("exact.shift-iso.natural")
            bad = [g for g in F.source.generators
                   if morphism_inverse(self.shift_iso.components[g]) is None]
            if bad:
                rep.fail("exact.shift-iso.invertible", "at %s" % bad[0])
            rep.close("exact.shift-iso.invertible")
        for g, h in non_full_pairs(F):
            rep.fail("exact.full", "Hom map (%s,%s) not surjective" % (g, h))
        rep.close("exact.full")
        undecided = ""
        for t in self.source_tri.triangles:
            try:
                found = self.target_tri.membership(self.push_triangle(t))
            except UndecidedError as exc:
                undecided = undecided or "image of %s: %s" % (t.name or "?", exc)
                continue
            if found is None:
                rep.fail("exact.triangle-image",
                         "image of %s not distinguished" % (t.name or "?"))
        rep.close("exact.triangle-image", undecided)
        return rep


def image_mutation_pair(e: ExactFunctorData, m: MutationData,
                        name: str = "") -> tuple:
    """Push a mutation pair through a full exact functor and re-check it.
    e is expected to be validated already (`ExactFunctorData.validate`);
    only its fullness, which the push needs, is decided here again."""
    rep = Report()
    F = e.functor
    if next(non_full_pairs(F), None) is not None:
        rep.fail("push.fullness-required", "functor is not full")
        return None, rep
    tgt = e.target_tri.cat
    z2 = Subcategory(tgt, supp_image(F, m.z.members))
    d2 = Subcategory(tgt, supp_image(F, m.d.members))
    fixed2 = {}
    for g2 in z2.members:
        src_gen = None
        for x in m.z.members:
            if F.object_map[x] == (g2,):
                src_gen = x
                break
        if src_gen is None:
            rep.fail("push.dense", "no source generator maps onto %s" % g2)
            return None, rep
        fixed2[g2] = e.push_triangle(m.fixed[src_gen], name="F.%s" % src_gen)
    cofixed2 = {}
    for y, t in sorted(m.cofixed.items()):
        img = F.object_map[y]
        if len(img) == 1:
            cofixed2[img[0]] = e.push_triangle(t, name="F.co.%s" % y)
    m2 = MutationData(e.target_tri, z2, d2, fixed2, cofixed2,
                      name=name or ("F." + (m.name or "")))
    sub = check_mutation_pair(m2)
    rep.merge(sub, prefix="image.")
    if not sub.ok_all:
        rep.fail("push.image-is-mutation-pair",
                 "pushed pair fails the mutation-pair check")
    rep.close("push.image-is-mutation-pair")
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
    tilde = induce_functor(fres, m.quotient, m2.quotient)

    lhs = compose_functors(tilde, m.sigma)
    rhs = compose_functors(m2.sigma, tilde)
    for kind, where in functor_mismatches(lhs, rhs):
        rep.fail("exact.sigma-" + kind, where)
    rep.close("exact.sigma-objects")
    rep.close("exact.sigma-morphisms")

    undecided = ""
    for st in m.registered:
        try:
            standard = _image_is_standard(e, m2, st)
        except UndecidedError as exc:
            undecided = undecided or "%s: %s" % (st.name or "?", exc)
            continue
        if not standard:
            rep.fail("exact.standard-triangle-image", st.name or "?")
    rep.close("exact.standard-triangle-image", undecided,
              "%d registered triangles checked" % len(m.registered))
    return tilde, rep


def _image_is_standard(e: ExactFunctorData, m2: MutationData,
                       st: StandardTriangle) -> bool:
    """Whether the image of st, the quotient sextuple of the pushed ambient
    triangle with third map the class of F(ladder_z), is isomorphic to a
    standard triangle of m2: the standard triangle rebuilt on its first map,
    or (0, Y, Y, 0, 1, 0) when its first vertex vanishes in the quotient.
    An image equal as data to a registered triangle or to that reference
    passes without a search; the reference is not registered.  Raises
    UndecidedError when the isomorphism search is undecided."""
    pushed = e.push_triangle(st.ambient)
    img = m2.to_quotient_triangle(pushed, e.functor.apply(st.ladder_z))
    if any(prev.data_equal(img) for prev in m2.registered):
        return True
    if not img.x:
        pres = m2.quotient.presentation
        ref = Triangle(img.x, img.y, img.y, Morphism.zero(pres, img.x, img.y),
                       Morphism.identity(pres, img.y), Morphism.zero(pres, img.y, img.x))
    else:
        try:
            ref = standard_triangle(m2, pushed.f, witness=pushed,
                                    name="img." + (st.name or "?"))
        except (PreconditionError, InconsistentDataError):
            return False
    return ref.data_equal(img) or triangle_iso(m2.sigma, ref, img) is not None


def triangulated_quotient_recollement(rec: Recollement, tris: dict, exact: dict,
                                      m: MutationData, semantics: str = "strict"):
    """Full pipeline: additive quotient diagram plus triangulated structure on
    all three quotients and exactness certificates for the six induced
    functors.

    tris maps "left"/"mid"/"right" to the triangulated presentations; exact
    maps the six functor slots to their ExactFunctorData.  The approximating
    subcategory is m.d, for the additive quotient as for the triangulated one.
    """
    d = m.d
    rep = Report()
    for key in ("left", "mid", "right"):
        sub = tris[key].validate()
        rep.merge(sub, prefix="presentation.%s." % key)
    for slot in FUNCTOR_SLOTS:
        sub = exact[slot].validate()
        rep.merge(sub, prefix="input.%s." % slot)

    bad = [g for g in d.members
           if rec.j_up.apply_obj((g,))]
    if bad:
        rep.fail("precondition.d-in-ker-j_up",
                 "generator %s has nonzero image under j_up" % bad[0])
        return None, rep
    rep.close("precondition.d-in-ker-j_up")

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
    if supp_image(rec.i_lo, d_pre) != set(d.members):
        rep.fail("preimage-subcategory",
                 "no left subcategory maps onto the approximating one")
    rep.close("preimage-subcategory", witness=",".join(d_pre) or "(zero)")

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
