"""Six-functor recollement data, the axiom checker, and the derived pipelines:
restriction to a subcategory, quotient diagrams, lifting subcategory pairs,
and quotients by a subcategory of the closed part."""

from __future__ import annotations

from dataclasses import dataclass

from .adjunction import (Adjunction, make_adjunction, normalize_embedding,
                         rewire_adjunction, validate_adjunction)
from .category import (FinLinCategory, ObjectExpr, Subcategory, is_isomorphic,
                       morphism_in, restrict_category)
from .errors import InconsistentDataError, PreconditionError
from .functor import (LinearFunctor, compose_functors, image_subcategory,
                      is_identity_functor, kernel_subcategory, validate_functor)
from .linalg import rank
from .quotient import QuotientCategory, build_quotient, induce_adjunction, induce_functor
from .report import Report

SLOTS = ("i_up", "i_lo", "i_bang", "j_bang", "j_up", "j_lo")


@dataclass
class Recollement:
    left: FinLinCategory       # the closed part
    middle: FinLinCategory
    right: FinLinCategory      # the open part
    i_up: LinearFunctor        # middle -> left
    i_lo: LinearFunctor        # left -> middle, full embedding
    i_bang: LinearFunctor      # middle -> left
    j_bang: LinearFunctor      # right -> middle, full embedding
    j_up: LinearFunctor        # middle -> right
    j_lo: LinearFunctor        # right -> middle, full embedding
    adj_i: Adjunction          # (i_up, i_lo)
    adj_ib: Adjunction         # (i_lo, i_bang)
    adj_jb: Adjunction         # (j_bang, j_up)
    adj_j: Adjunction          # (j_up, j_lo)
    normalized: bool = False

    def functor(self, slot: str) -> LinearFunctor:
        return getattr(self, slot)


def supp_image(f: LinearFunctor, members) -> set:
    out = set()
    for g in members:
        out |= f.object_map[g].support()
    return out


def normalize_recollement(r: Recollement):
    """Strictify the four composites of the embedded sides (returns a new
    recollement and a report entry).  The two adjunctions sharing the middle
    projection to the open part are rewired consistently."""
    rep = Report()
    if r.normalized:
        rep.info("normalization", "already normalized")
        return r, rep
    n1 = normalize_embedding(r.adj_i, side="right")
    n2 = normalize_embedding(r.adj_ib, side="left")
    adj_jb, adj_j = r.adj_jb, r.adj_j
    n3 = normalize_embedding(adj_jb, side="left")
    adj_jb = n3.adj
    if n3.changed:
        adj_j = rewire_adjunction(adj_j, n3.old, n3.new, n3.conj, n3.conj_inv)
    n4 = normalize_embedding(adj_j, side="right")
    adj_j = n4.adj
    if n4.changed:
        adj_jb = rewire_adjunction(adj_jb, n4.old, n4.new, n4.conj, n4.conj_inv)

    out = Recollement(
        left=r.left, middle=r.middle, right=r.right,
        i_up=n1.adj.left, i_lo=n1.adj.right, i_bang=n2.adj.right,
        j_bang=adj_jb.left, j_up=adj_j.left, j_lo=adj_j.right,
        adj_i=n1.adj, adj_ib=n2.adj, adj_jb=adj_jb, adj_j=adj_j,
        normalized=True)
    for name, comp in (("i_up*i_lo", compose_functors(out.i_up, out.i_lo)),
                       ("i_bang*i_lo", compose_functors(out.i_bang, out.i_lo)),
                       ("j_up*j_bang", compose_functors(out.j_up, out.j_bang)),
                       ("j_up*j_lo", compose_functors(out.j_up, out.j_lo))):
        if not is_identity_functor(comp):
            raise InconsistentDataError("normalization left %s != Id" % name)
    for adj in (out.adj_i, out.adj_ib, out.adj_jb, out.adj_j):
        if not validate_adjunction(adj).ok_all:
            raise InconsistentDataError(
                "normalization broke adjunction %s" % adj.name)
    changed = any(n.changed for n in (n1, n2, n3, n4))
    rep.info("normalization", "performed" if changed else "already strict")
    return out, rep


def full_embedding_witness(f: LinearFunctor):
    """None when every generator-pairwise hom map is bijective, else the
    first failing pair."""
    for g in f.source.generators:
        for h in f.source.generators:
            d = f.source.hom_dim(g, h)
            mat = f.hom_maps[(g, h)]
            if mat.rows != d or (d and rank(mat) != d):
                return "Hom(%s,%s): %dx%d of rank %d" % (g, h, mat.rows, mat.cols,
                                                          rank(mat) if d else 0)
    return None


def _iso_closure(cat: FinLinCategory, members: set, rep: Report, key: str) -> set:
    out = set(members)
    for g in cat.generators:
        if g in out:
            continue
        for h in list(out):
            verdict = is_isomorphic(cat, ObjectExpr((g,)), ObjectExpr((h,)))
            if verdict is True:
                out.add(g)
                break
            if verdict is None:
                rep.info(key + ".iso-unknown",
                         "cannot decide %s ~ %s in characteristic p" % (g, h))
    return out


def check_r1(r: Recollement, rep: Report):
    pairs = (("adj-i_up-i_lo", r.adj_i, r.i_up, r.i_lo),
             ("adj-i_lo-i_bang", r.adj_ib, r.i_lo, r.i_bang),
             ("adj-j_bang-j_up", r.adj_jb, r.j_bang, r.j_up),
             ("adj-j_up-j_lo", r.adj_j, r.j_up, r.j_lo))
    for key, adj, left, right in pairs:
        if adj.left is not left or adj.right is not right:
            rep.fail("r1.%s.wiring" % key, "adjunction functors differ from the diagram")
        sub = validate_adjunction(adj)
        if sub.ok_all:
            rep.ok("r1.%s" % key)
        else:
            for e in sub.failures():
                rep.fail("r1.%s.%s" % (key, e.key), e.witness)


def check_r2(r: Recollement, rep: Report):
    for key, f in (("i_lo", r.i_lo), ("j_bang", r.j_bang), ("j_lo", r.j_lo)):
        w = full_embedding_witness(f)
        if w is None:
            rep.ok("r2.%s" % key)
        else:
            rep.fail("r2.%s" % key, w)


def check_r3(r: Recollement, rep: Report, semantics: str):
    im = set(image_subcategory(r.i_lo).members)
    ker = set(kernel_subcategory(r.j_up).members)
    if semantics == "iso-closed":
        im = _iso_closure(r.middle, im, rep, "r3")
        ker = _iso_closure(r.middle, ker, rep, "r3")
    if im == ker:
        rep.ok("r3", "Im = Ker = {%s}" % ",".join(sorted(im)))
    else:
        diff = sorted(ker - im) + sorted(im - ker)
        rep.fail("r3", "Im {%s} != Ker {%s}; witnesses %s"
                 % (",".join(sorted(im)), ",".join(sorted(ker)), ",".join(diff)))


def check_recollement(r: Recollement, semantics: str = "strict") -> Report:
    """Functor validity plus the three recollement conditions."""
    rep = Report()
    for slot in SLOTS:
        sub = validate_functor(r.functor(slot))
        if sub.ok_all:
            rep.ok("functor.%s" % slot)
        else:
            for e in sub.failures():
                rep.fail("functor.%s.%s" % (slot, e.key), e.witness)
    check_r1(r, rep)
    check_r2(r, rep)
    check_r3(r, rep, semantics)
    return rep


def _closure_hypotheses(r: Recollement, x: Subcategory):
    """The four stability composites; raises with the violating generator."""
    checks = (("i_lo(i_up(%s))", r.i_up, r.i_lo),
              ("j_lo(j_up(%s))", r.j_up, r.j_lo),
              ("i_lo(i_bang(%s))", r.i_bang, r.i_lo),
              ("j_bang(j_up(%s))", r.j_up, r.j_bang))
    member_set = x.member_set()
    for g in x.members:
        for label, inner, outer in checks:
            img = outer.apply_obj(inner.apply_obj(ObjectExpr((g,))))
            bad = img.support() - member_set
            if bad:
                raise PreconditionError(
                    "closure hypothesis fails",
                    witness=(label % g) + " contains %s" % sorted(bad)[0])


def _restricted_functor(f: LinearFunctor, src: FinLinCategory, tgt: FinLinCategory,
                        name: str = "") -> LinearFunctor:
    tgt_gens = set(tgt.generators)
    object_map = {}
    for g in src.generators:
        img = f.object_map[g]
        bad = img.support() - tgt_gens
        if bad:
            raise PreconditionError("restriction not well-defined",
                                    witness="%s(%s) contains %s" % (f.name, g, sorted(bad)[0]))
        object_map[g] = ObjectExpr(img.summands)
    hom_maps = {}
    for g in src.generators:
        for h in src.generators:
            if src.hom_dim(g, h):
                hom_maps[(g, h)] = f.hom_maps[(g, h)]
    return LinearFunctor(src, tgt, object_map, hom_maps, name=name or f.name)


def _restricted_adjunction(adj: Adjunction, left: LinearFunctor,
                           right: LinearFunctor) -> Adjunction:
    unit_comps = {g: morphism_in(left.source, adj.unit.components[g])
                  for g in left.source.generators}
    counit_comps = {h: morphism_in(right.source, adj.counit.components[h])
                    for h in right.source.generators}
    return make_adjunction(left, right, unit_comps, counit_comps, name=adj.name)


def restrict_to_subcategory(r: Recollement, x: Subcategory,
                            semantics: str = "strict"):
    """Recollement on (i_up(x), x, j_up(x)), by restriction of everything.

    Requires the four closure hypotheses; the result is re-checked.
    """
    rep = Report()
    r, nrep = normalize_recollement(r)
    rep.merge(nrep)
    if x.parent is not r.middle:
        raise PreconditionError("subcategory does not live in the middle category")
    _closure_hypotheses(r, x)
    rep.ok("hypotheses", "all four closure composites stay inside")

    mid = restrict_category(r.middle, x.members, name=r.middle.name + "|x")
    left = restrict_category(r.left, sorted(supp_image(r.i_up, x.members)),
                             name=r.left.name + "|x")
    right = restrict_category(r.right, sorted(supp_image(r.j_up, x.members)),
                              name=r.right.name + "|x")

    f_i_up = _restricted_functor(r.i_up, mid, left)
    f_i_lo = _restricted_functor(r.i_lo, left, mid)
    f_i_bang = _restricted_functor(r.i_bang, mid, left)
    f_j_bang = _restricted_functor(r.j_bang, right, mid)
    f_j_up = _restricted_functor(r.j_up, mid, right)
    f_j_lo = _restricted_functor(r.j_lo, right, mid)

    out = Recollement(
        left=left, middle=mid, right=right,
        i_up=f_i_up, i_lo=f_i_lo, i_bang=f_i_bang,
        j_bang=f_j_bang, j_up=f_j_up, j_lo=f_j_lo,
        adj_i=_restricted_adjunction(r.adj_i, f_i_up, f_i_lo),
        adj_ib=_restricted_adjunction(r.adj_ib, f_i_lo, f_i_bang),
        adj_jb=_restricted_adjunction(r.adj_jb, f_j_bang, f_j_up),
        adj_j=_restricted_adjunction(r.adj_j, f_j_up, f_j_lo),
        normalized=True)
    rep.merge(check_recollement(out, semantics), prefix="restricted.")
    return out, rep


@dataclass
class QuotientDiagram:
    q_left: QuotientCategory
    q_mid: QuotientCategory
    q_right: QuotientCategory
    rec: Recollement


def quotient_recollement(r: Recollement, x: Subcategory, semantics: str = "strict"):
    """The induced diagram on (A'/i_up(x), A/x, A''/j_up(x)) plus its
    certificate.  The membership condition Im = Ker for the induced diagram
    is evaluated on the object classes of the parent categories (the quotient
    presentations drop null generators); both readings are reported and the
    requested one is operative.  Also reports whether x lies inside
    Ker(j_up), which under the strict reading must match the verdict."""
    rep = Report()
    r, nrep = normalize_recollement(r)
    rep.merge(nrep)
    if x.parent is not r.middle:
        raise PreconditionError("subcategory does not live in the middle category")
    _closure_hypotheses(r, x)
    rep.ok("hypotheses", "all four closure composites stay inside")

    xp = Subcategory(r.left, supp_image(r.i_up, x.members))
    xpp = Subcategory(r.right, supp_image(r.j_up, x.members))
    q_mid = build_quotient(r.middle, x)
    q_left = build_quotient(r.left, xp)
    q_right = build_quotient(r.right, xpp)

    t_i_up = induce_functor(r.i_up, q_mid, q_left)
    t_i_lo = induce_functor(r.i_lo, q_left, q_mid)
    t_i_bang = induce_functor(r.i_bang, q_mid, q_left)
    t_j_bang = induce_functor(r.j_bang, q_right, q_mid)
    t_j_up = induce_functor(r.j_up, q_mid, q_right)
    t_j_lo = induce_functor(r.j_lo, q_right, q_mid)

    adj_i, audit1 = induce_adjunction(r.adj_i, q_mid, q_left,
                                      left=t_i_up, right=t_i_lo)
    adj_ib, audit2 = induce_adjunction(r.adj_ib, q_left, q_mid,
                                       left=t_i_lo, right=t_i_bang)
    adj_jb, audit3 = induce_adjunction(r.adj_jb, q_right, q_mid,
                                       left=t_j_bang, right=t_j_up)
    adj_j, audit4 = induce_adjunction(r.adj_j, q_mid, q_right,
                                      left=t_j_up, right=t_j_lo)
    rep.merge(audit1, prefix="audit.adj-i_up-i_lo.")
    rep.merge(audit2, prefix="audit.adj-i_lo-i_bang.")
    rep.merge(audit3, prefix="audit.adj-j_bang-j_up.")
    rep.merge(audit4, prefix="audit.adj-j_up-j_lo.")

    out = Recollement(
        left=q_left.presentation, middle=q_mid.presentation,
        right=q_right.presentation,
        i_up=t_i_up, i_lo=t_i_lo, i_bang=t_i_bang,
        j_bang=t_j_bang, j_up=t_j_up, j_lo=t_j_lo,
        adj_i=adj_i, adj_ib=adj_ib, adj_jb=adj_jb, adj_j=adj_j,
        normalized=True)

    for slot in SLOTS:
        sub = validate_functor(out.functor(slot))
        if sub.ok_all:
            rep.ok("functor.%s" % slot)
        else:
            for e in sub.failures():
                rep.fail("functor.%s.%s" % (slot, e.key), e.witness)
    check_r1(out, rep)
    check_r2(out, rep)

    # Membership condition at the parent level.
    dead_right = set(r.right.generators) - set(q_right.survivors)
    ker_parent = {g for g in r.middle.generators
                  if supp_image(r.j_up, [g]) <= dead_right}
    im_parent = set(image_subcategory(r.i_lo).members)
    strict_ok = im_parent == ker_parent
    strict_witness = ""
    if not strict_ok:
        diff = sorted(ker_parent - im_parent) + sorted(im_parent - ker_parent)
        strict_witness = ("Im {%s} != Ker {%s}; witnesses %s"
                          % (",".join(sorted(im_parent)),
                             ",".join(sorted(ker_parent)), ",".join(diff)))
    dead_mid = set(r.middle.generators) - set(q_mid.survivors)
    im_iso = set(im_parent) | dead_mid
    for g in q_mid.survivors:
        if g in im_iso:
            continue
        for h in im_parent:
            if h not in set(q_mid.survivors):
                continue
            verdict = is_isomorphic(q_mid.presentation, ObjectExpr((g,)), ObjectExpr((h,)))
            if verdict is True:
                im_iso.add(g)
                break
    iso_ok = im_iso == ker_parent
    iso_witness = ""
    if not iso_ok:
        diff = sorted(ker_parent - im_iso) + sorted(im_iso - ker_parent)
        iso_witness = ("Im-closure {%s} != Ker {%s}; witnesses %s"
                       % (",".join(sorted(im_iso)),
                          ",".join(sorted(ker_parent)), ",".join(diff)))

    if semantics == "strict":
        rep.add("r3", "pass" if strict_ok else "fail",
                strict_witness or "Im = Ker = {%s}" % ",".join(sorted(im_parent)))
        rep.info("r3-alt.iso-closed",
                 "would pass" if iso_ok else "would fail: %s" % iso_witness)
    else:
        rep.add("r3", "pass" if iso_ok else "fail",
                iso_witness or "Im-closure = Ker = {%s}" % ",".join(sorted(im_iso)))
        rep.info("r3-alt.strict",
                 "would pass" if strict_ok else "would fail: %s" % strict_witness)

    predicate = all(r.j_up.apply_obj(ObjectExpr((g,))).is_zero() for g in x.members)
    rep.info("predicate.x-in-ker-j_up", "true" if predicate else "false")
    if semantics == "strict":
        verdict = not rep.has_failures()
        if verdict == predicate:
            rep.ok("iff-consistency",
                   "verdict %s matches predicate" % ("pass" if verdict else "fail"))
        else:
            rep.fail("iff-consistency",
                     "verdict %s but predicate %s" % (verdict, predicate))
    return QuotientDiagram(q_left, q_mid, q_right, out), rep


def lift_subcategory_pair(r: Recollement, xp: Subcategory, xpp: Subcategory,
                          semantics: str = "strict"):
    """Lift subcategories of the outer parts to the middle and restrict.

    The middle subcategory is cut out by membership of all three projections;
    its images under i_up and j_up are verified to recover the inputs.
    """
    rep = Report()
    r, nrep = normalize_recollement(r)
    rep.merge(nrep)
    if xp.parent is not r.left or xpp.parent is not r.right:
        raise PreconditionError("subcategories do not live in the outer categories")
    for g in xpp.members:
        img = supp_image(r.i_up, r.j_lo.apply_obj(ObjectExpr((g,))).support())
        bad = img - xp.member_set()
        if bad:
            raise PreconditionError("hypothesis i_up(j_lo(x'')) inside x' fails",
                                    witness="%s gives %s" % (g, sorted(bad)[0]))
        img = supp_image(r.i_bang, r.j_bang.apply_obj(ObjectExpr((g,))).support())
        bad = img - xp.member_set()
        if bad:
            raise PreconditionError("hypothesis i_bang(j_bang(x'')) inside x' fails",
                                    witness="%s gives %s" % (g, sorted(bad)[0]))
    members = []
    for g in r.middle.generators:
        if not r.j_up.apply_obj(ObjectExpr((g,))).support() <= xpp.member_set():
            continue
        if not r.i_up.apply_obj(ObjectExpr((g,))).support() <= xp.member_set():
            continue
        if not r.i_bang.apply_obj(ObjectExpr((g,))).support() <= xp.member_set():
            continue
        members.append(g)
    x = Subcategory(r.middle, members)
    rep.info("lifted-subcategory", ",".join(x.members) or "(zero)")

    got_xp = supp_image(r.i_up, x.members)
    if got_xp == xp.member_set():
        rep.ok("recovers-left", ",".join(sorted(got_xp)) or "(zero)")
    else:
        rep.fail("recovers-left", "i_up(x) = {%s} != {%s}"
                 % (",".join(sorted(got_xp)), ",".join(xp.members)))
    got_xpp = supp_image(r.j_up, x.members)
    if got_xpp == xpp.member_set():
        rep.ok("recovers-right", ",".join(sorted(got_xpp)) or "(zero)")
    else:
        rep.fail("recovers-right", "j_up(x) = {%s} != {%s}"
                 % (",".join(sorted(got_xpp)), ",".join(xpp.members)))

    restricted, sub = restrict_to_subcategory(r, x, semantics)
    rep.merge(sub)
    return x, restricted, rep


def quotient_by_left_subcategory(r: Recollement, xp: Subcategory,
                                 semantics: str = "strict"):
    """Quotient the diagram by the image of a subcategory of the closed part;
    the stability hypotheses hold automatically and the result must pass."""
    rep = Report()
    r, nrep = normalize_recollement(r)
    rep.merge(nrep)
    if xp.parent is not r.left:
        raise PreconditionError("subcategory does not live in the left category")
    x = Subcategory(r.middle, supp_image(r.i_lo, xp.members))
    rep.info("image-subcategory", ",".join(x.members) or "(zero)")
    diagram, sub = quotient_recollement(r, x, semantics)
    rep.merge(sub)
    return diagram, rep
