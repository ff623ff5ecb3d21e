"""Six-functor recollement data, the axiom checker, and the derived pipelines:
restriction to a subcategory, quotient diagrams, lifting subcategory pairs,
and quotients by a subcategory of the closed part.

The shape of the diagram is written down once, in two ordered tables:
FUNCTOR_SLOTS sends each functor slot to its (source part, target part),
the parts being the attributes left, middle and right of a Recollement, and
ADJUNCTION_SLOTS sends each adjunction slot to its (left adjoint slot,
right adjoint slot, embedded side).  Every other module that needs the
slot names reads them from here.  A construction applied to each category
(restriction, quotient) is carried over to the whole diagram by _transport,
which rebuilds the six functors and then the four adjunctions from them.

Each public pipeline normalizes its input once, at entry
(`normalize_recollement`), and hands the normalized diagram and the report
begun there to a private body (`_restrict`, `_quotient`); the body takes a
normalized diagram, so a pipeline built on another calls its body directly.
"""

from __future__ import annotations

from .adjunction import (Adjunction, make_adjunction, normalize_embedding,
                         rewire_adjunction, validate_adjunction)
from .category import (FinLinCategory, Subcategory, is_isomorphic, morphism_in,
                       restrict_category)
from .errors import InconsistentDataError, PreconditionError, UndecidedError
from .functor import (LinearFunctor, compose_functors, image_subcategory,
                      is_identity_functor, kernel_subcategory, non_bijective_pairs,
                      validate_functor)
from .quotient import QuotientCategory, build_quotient, induce_adjunction, induce_functor
from .report import Report

PARTS = ("left", "middle", "right")

# functor slot -> (source part, target part)
FUNCTOR_SLOTS = {
    "i_up": ("middle", "left"),
    "i_lo": ("left", "middle"),
    "i_bang": ("middle", "left"),
    "j_bang": ("right", "middle"),
    "j_up": ("middle", "right"),
    "j_lo": ("right", "middle"),
}

# adjunction slot -> (left adjoint slot, right adjoint slot, embedded side)
ADJUNCTION_SLOTS = {
    "adj_i": ("i_up", "i_lo", "right"),
    "adj_ib": ("i_lo", "i_bang", "left"),
    "adj_jb": ("j_bang", "j_up", "left"),
    "adj_j": ("j_up", "j_lo", "right"),
}

SLOTS = PARTS + tuple(FUNCTOR_SLOTS) + tuple(ADJUNCTION_SLOTS)


class Recollement:
    """One attribute per name of SLOTS, each required: the parts (left is
    the closed part, right the open part), the functors and the adjunctions
    of the tables above."""

    def __init__(self, **slots):
        if set(slots) != set(SLOTS):
            raise TypeError("Recollement: missing slots %s, unknown slots %s" % (
                sorted(set(SLOTS) - set(slots)), sorted(set(slots) - set(SLOTS))))
        vars(self).update((name, slots[name]) for name in SLOTS)

    def wired(self, slot: str) -> bool:
        """Whether the adjunction in slot holds the diagram's functors."""
        left, right, _ = ADJUNCTION_SLOTS[slot]
        adj = getattr(self, slot)
        return adj.left is getattr(self, left) and adj.right is getattr(self, right)


def _embedded(slot: str):
    """(embedded functor slot, its adjoint's slot) of an adjunction slot."""
    left, right, side = ADJUNCTION_SLOTS[slot]
    return (left, right) if side == "left" else (right, left)


def supp_image(f: LinearFunctor, members) -> set:
    out = set()
    for g in members:
        out.update(f.object_map[g])
    return out


def normalize_recollement(r: Recollement):
    """Strictify the four composites of the embedded sides (returns a new
    recollement and a report entry).  Each adjunction is normalized on its
    embedded side, and every adjunction holding the functor it replaced, that
    one included, is rewired to the replacement.  Requires every adjunction
    to hold the diagram's functors and to pass validate_adjunction;
    afterwards only the adjunctions it rewrote are validated again."""
    miswired = [slot for slot in ADJUNCTION_SLOTS if not r.wired(slot)]
    if miswired:
        raise PreconditionError("adjunction functors differ from the diagram",
                                witness=miswired[0])
    for slot in ADJUNCTION_SLOTS:
        failures = validate_adjunction(getattr(r, slot)).failures()
        if failures:
            raise PreconditionError("input adjunction %s fails its checks" % slot,
                                    witness="%s: %s" % (failures[0].key, failures[0].witness))
    functors = {slot: getattr(r, slot) for slot in FUNCTOR_SLOTS}
    adjs = {slot: getattr(r, slot) for slot in ADJUNCTION_SLOTS}
    rewritten = set()
    for slot, (_, _, side) in ADJUNCTION_SLOTS.items():
        strictified = normalize_embedding(adjs[slot], side=side)
        if strictified is None:
            continue
        new, conj, conj_inv = strictified
        replaced = _embedded(slot)[1]
        functors[replaced] = new
        for other, (other_left, other_right, _) in ADJUNCTION_SLOTS.items():
            if replaced in (other_left, other_right):
                other_side = "left" if other_left == replaced else "right"
                adjs[other] = rewire_adjunction(adjs[other], other_side, new,
                                                conj, conj_inv)
                rewritten.add(other)

    out = Recollement(left=r.left, middle=r.middle, right=r.right, **functors, **adjs)
    for slot in ADJUNCTION_SLOTS:
        inner, outer = _embedded(slot)
        if not is_identity_functor(compose_functors(functors[outer], functors[inner])):
            raise InconsistentDataError("normalization left %s*%s != Id" % (outer, inner))
    for slot in ADJUNCTION_SLOTS:
        if slot in rewritten and not validate_adjunction(adjs[slot]).ok_all:
            raise InconsistentDataError(
                "normalization broke adjunction %s" % adjs[slot].name)
    rep = Report()
    rep.info("normalization", "performed" if rewritten else "already strict")
    return out, rep


def _iso_closure(cat: FinLinCategory, members) -> set:
    """The generators of cat isomorphic to some member, members included;
    UndecidedError as in `is_isomorphic`."""
    out = set(members)
    for g in cat.generators:
        if g not in out and any(is_isomorphic(cat, (g,), (h,))
                                for h in members):
            out.add(g)
    return out


def check_functors(r: Recollement, rep: Report):
    for slot in FUNCTOR_SLOTS:
        rep.record("functor.%s" % slot, validate_functor(getattr(r, slot)))


def check_r1(r: Recollement, rep: Report):
    for slot, (left, right, _) in ADJUNCTION_SLOTS.items():
        key = "r1.adj-%s-%s" % (left, right)
        if not r.wired(slot):
            rep.fail(key + ".wiring", "adjunction functors differ from the diagram")
        rep.record(key, validate_adjunction(getattr(r, slot)))


def check_r2(r: Recollement, rep: Report):
    """Every functor that some adjunction embeds is a full embedding."""
    for slot in dict.fromkeys(_embedded(adj)[0] for adj in ADJUNCTION_SLOTS):
        bad = next(non_bijective_pairs(getattr(r, slot)), None)
        if bad is not None:
            rep.fail("r2.%s" % slot, bad[2])
        rep.close("r2.%s" % slot)


def _im_ker_mismatch(im: set, ker: set, label: str = "Im") -> str:
    """Empty when im == ker, else a witness naming both sides and the
    generators in exactly one of them."""
    if im == ker:
        return ""
    diff = sorted(ker - im) + sorted(im - ker)
    return "%s {%s} != Ker {%s}; witnesses %s" % (
        label, ",".join(sorted(im)), ",".join(sorted(ker)), ",".join(diff))


def _require_semantics(semantics: str):
    """ValueError unless semantics is a reading of r3 that the checks know."""
    if semantics not in ("strict", "iso-closed"):
        raise ValueError("unknown r3 semantics %r: expected \"strict\" or \"iso-closed\""
                         % (semantics,))


def check_r3(r: Recollement, rep: Report, semantics: str):
    _require_semantics(semantics)
    im = set(image_subcategory(r.i_lo).members)
    ker = set(kernel_subcategory(r.j_up).members)
    if semantics == "iso-closed":
        try:
            im, ker = _iso_closure(r.middle, im), _iso_closure(r.middle, ker)
        except UndecidedError as exc:
            rep.not_checked("r3", str(exc))
            return
    witness = _im_ker_mismatch(im, ker)
    if witness:
        rep.fail("r3", witness)
    rep.close("r3", witness="Im = Ker = {%s}" % ",".join(sorted(im)))


def check_recollement(r: Recollement, semantics: str = "strict") -> Report:
    """Functor validity plus the three recollement conditions."""
    rep = Report()
    check_functors(r, rep)
    check_r1(r, rep)
    check_r2(r, rep)
    check_r3(r, rep, semantics)
    return rep


def _hypotheses(r: Recollement, x: Subcategory, rep: Report):
    """x lives in the middle of r and satisfies the four closure hypotheses
    (stability of x under the four composites); raises with the violating
    generator."""
    if x.parent is not r.middle:
        raise PreconditionError("subcategory does not live in the middle category")
    checks = (("i_lo(i_up(%s))", r.i_up, r.i_lo),
              ("j_lo(j_up(%s))", r.j_up, r.j_lo),
              ("i_lo(i_bang(%s))", r.i_bang, r.i_lo),
              ("j_bang(j_up(%s))", r.j_up, r.j_bang))
    member_set = x.member_set()
    for g in x.members:
        for label, inner, outer in checks:
            img = outer.apply_obj(inner.apply_obj((g,)))
            bad = set(img) - member_set
            if bad:
                raise PreconditionError(
                    "closure hypothesis fails",
                    witness=(label % g) + " contains %s" % sorted(bad)[0])
    rep.close("hypotheses", witness="all four closure composites stay inside")


def _restricted_functor(f: LinearFunctor, src: FinLinCategory,
                        tgt: FinLinCategory) -> LinearFunctor:
    tgt_gens = set(tgt.generators)
    object_map = {}
    for g in src.generators:
        img = f.object_map[g]
        bad = set(img) - tgt_gens
        if bad:
            raise PreconditionError("restriction not well-defined",
                                    witness="%s(%s) contains %s" % (f.name, g, sorted(bad)[0]))
        object_map[g] = img
    hom_maps = {}
    for g in src.generators:
        for h in src.generators:
            if src.hom_dim(g, h):
                hom_maps[(g, h)] = f.hom_maps[(g, h)]
    return LinearFunctor(src, tgt, object_map, hom_maps, name=f.name)


def _restricted_adjunction(adj: Adjunction, left: LinearFunctor,
                           right: LinearFunctor) -> Adjunction:
    unit_comps = {g: morphism_in(left.source, adj.unit.components[g])
                  for g in left.source.generators}
    counit_comps = {h: morphism_in(right.source, adj.counit.components[h])
                    for h in right.source.generators}
    return make_adjunction(left, right, unit_comps, counit_comps, name=adj.name)


def _transport(r: Recollement, parts: dict, on_functor, on_adjunction) -> Recollement:
    """The recollement carried over part by part.

    parts maps "left"/"middle"/"right" to the new part (a category, a
    quotient, ...).  Each functor slot f: P -> Q becomes
    on_functor(f, parts[P], parts[Q]); each adjunction slot becomes
    on_adjunction(adj, left, right, parts[P], parts[Q]), where left: P -> Q
    and right are the carried-over adjoints.  The categories of the result
    are read off the carried-over functors.
    """
    new = {}
    for slot, (src, tgt) in FUNCTOR_SLOTS.items():
        f = new[slot] = on_functor(getattr(r, slot), parts[src], parts[tgt])
        new[src], new[tgt] = f.source, f.target
    for slot, (left, right, _) in ADJUNCTION_SLOTS.items():
        src, tgt = FUNCTOR_SLOTS[left]
        new[slot] = on_adjunction(getattr(r, slot), new[left], new[right],
                                  parts[src], parts[tgt])
    return Recollement(**new)


def restrict_to_subcategory(r: Recollement, x: Subcategory,
                            semantics: str = "strict"):
    """Recollement on (i_up(x), x, j_up(x)), by restriction of everything.

    Requires the four closure hypotheses; the result is re-checked.
    """
    r, rep = normalize_recollement(r)
    return _restrict(r, x, semantics, rep)


def _restrict(r: Recollement, x: Subcategory, semantics: str, rep: Report):
    """restrict_to_subcategory of a normalized r, recording into rep."""
    _hypotheses(r, x, rep)
    parts = {
        "middle": restrict_category(r.middle, x.members, name=r.middle.name + "|x"),
        "left": restrict_category(r.left, sorted(supp_image(r.i_up, x.members)),
                                  name=r.left.name + "|x"),
        "right": restrict_category(r.right, sorted(supp_image(r.j_up, x.members)),
                                   name=r.right.name + "|x"),
    }
    out = _transport(r, parts, _restricted_functor,
                     lambda adj, left, right, *_: _restricted_adjunction(adj, left, right))
    rep.merge(check_recollement(out, semantics), prefix="restricted.")
    return out, rep


class QuotientDiagram:
    def __init__(self, q_left: QuotientCategory, q_mid: QuotientCategory,
                 q_right: QuotientCategory, rec: Recollement):
        self.q_left, self.q_mid, self.q_right, self.rec = q_left, q_mid, q_right, rec


def quotient_recollement(r: Recollement, x: Subcategory, semantics: str = "strict"):
    """The induced diagram on (A'/i_up(x), A/x, A''/j_up(x)) plus its
    certificate.  The membership condition Im = Ker for the induced diagram
    is evaluated on the object classes of the parent categories (the quotient
    presentations drop null generators); both readings are reported and the
    requested one is operative.  Also reports whether x lies inside
    Ker(j_up), which under the strict reading must match the verdict."""
    r, rep = normalize_recollement(r)
    return _quotient(r, x, semantics, rep)


def _quotient(r: Recollement, x: Subcategory, semantics: str, rep: Report):
    """quotient_recollement of a normalized r, recording into rep."""
    _require_semantics(semantics)
    _hypotheses(r, x, rep)
    xp = Subcategory(r.left, supp_image(r.i_up, x.members))
    xpp = Subcategory(r.right, supp_image(r.j_up, x.members))
    q_mid = build_quotient(r.middle, x)
    q_left = build_quotient(r.left, xp)
    q_right = build_quotient(r.right, xpp)

    audits = []

    def on_adjunction(adj, left, right, q_src, q_tgt):
        induced, audit = induce_adjunction(adj, q_src, q_tgt, left=left, right=right)
        audits.append(audit)
        return induced

    out = _transport(r, {"left": q_left, "middle": q_mid, "right": q_right},
                     induce_functor, on_adjunction)
    for (left, right, _), audit in zip(ADJUNCTION_SLOTS.values(), audits):
        rep.merge(audit, prefix="audit.adj-%s-%s." % (left, right))

    check_functors(out, rep)
    check_r1(out, rep)
    check_r2(out, rep)

    # Membership condition at the parent level.
    dead_right = set(r.right.generators) - set(q_right.survivors)
    ker_parent = {g for g in r.middle.generators
                  if supp_image(r.j_up, [g]) <= dead_right}
    im_parent = set(image_subcategory(r.i_lo).members)
    survivors = set(q_mid.survivors)
    dead_mid = set(r.middle.generators) - survivors
    im_iso, iso_mismatch, undecided = set(), "", ""
    try:
        im_iso = dead_mid | _iso_closure(q_mid.presentation, im_parent & survivors)
        iso_mismatch = _im_ker_mismatch(im_iso, ker_parent, "Im-closure")
    except UndecidedError as exc:
        undecided = str(exc)
    # reading -> (mismatch, undecided reason, witness of agreement)
    readings = {
        "strict": (_im_ker_mismatch(im_parent, ker_parent), "",
                   "Im = Ker = {%s}" % ",".join(sorted(im_parent))),
        "iso-closed": (iso_mismatch, undecided,
                       "Im-closure = Ker = {%s}" % ",".join(sorted(im_iso))),
    }
    mismatch, undecided, agreement = readings.pop(semantics)
    if mismatch:
        rep.fail("r3", mismatch)
    rep.close("r3", undecided, agreement)
    for reading, (mismatch, undecided, _) in readings.items():
        if undecided:
            rep.not_checked("r3-alt." + reading, undecided)
        else:
            rep.info("r3-alt." + reading,
                     "would fail: %s" % mismatch if mismatch else "would pass")

    predicate = all(not r.j_up.apply_obj((g,)) for g in x.members)
    rep.info("predicate.x-in-ker-j_up", "true" if predicate else "false")
    if semantics == "strict":
        verdict = not rep.has_failures()
        if verdict != predicate:
            rep.fail("iff-consistency",
                     "verdict %s but predicate %s" % (verdict, predicate))
        rep.close("iff-consistency",
                  witness="verdict %s matches predicate" % ("pass" if verdict else "fail"))
    return QuotientDiagram(q_left, q_mid, q_right, out), rep


def lift_subcategory_pair(r: Recollement, xp: Subcategory, xpp: Subcategory,
                          semantics: str = "strict"):
    """Lift subcategories of the outer parts to the middle and restrict.

    The middle subcategory is cut out by membership of all three projections;
    its images under i_up and j_up are verified to recover the inputs.
    """
    r, rep = normalize_recollement(r)
    if xp.parent is not r.left or xpp.parent is not r.right:
        raise PreconditionError("subcategories do not live in the outer categories")
    checks = (("i_up(j_lo(x''))", r.j_lo, r.i_up),
              ("i_bang(j_bang(x''))", r.j_bang, r.i_bang))
    for g in xpp.members:
        for label, inner, outer in checks:
            bad = supp_image(outer, inner.apply_obj((g,))) - xp.member_set()
            if bad:
                raise PreconditionError("hypothesis %s inside x' fails" % label,
                                        witness="%s gives %s" % (g, sorted(bad)[0]))
    inside = {"left": xp.member_set(), "right": xpp.member_set()}
    projections = [(getattr(r, slot), inside[tgt])
                   for slot, (src, tgt) in FUNCTOR_SLOTS.items() if src == "middle"]
    x = Subcategory(r.middle, [g for g in r.middle.generators
                               if all(supp_image(f, [g]) <= allowed
                                      for f, allowed in projections)])
    rep.info("lifted-subcategory", ",".join(x.members) or "(zero)")

    for key, label, f, want in (("recovers-left", "i_up", r.i_up, xp),
                                ("recovers-right", "j_up", r.j_up, xpp)):
        got = supp_image(f, x.members)
        if got != want.member_set():
            rep.fail(key, "%s(x) = {%s} != {%s}"
                     % (label, ",".join(sorted(got)), ",".join(want.members)))
        rep.close(key, witness=",".join(sorted(got)) or "(zero)")

    restricted, rep = _restrict(r, x, semantics, rep)
    return x, restricted, rep


def quotient_by_left_subcategory(r: Recollement, xp: Subcategory,
                                 semantics: str = "strict"):
    """Quotient the diagram by the image of a subcategory of the closed part;
    the stability hypotheses hold automatically and the result must pass."""
    r, rep = normalize_recollement(r)
    if xp.parent is not r.left:
        raise PreconditionError("subcategory does not live in the left category")
    x = Subcategory(r.middle, supp_image(r.i_lo, xp.members))
    rep.info("image-subcategory", ",".join(x.members) or "(zero)")
    return _quotient(r, x, semantics, rep)
