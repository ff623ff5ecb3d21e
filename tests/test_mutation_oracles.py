"""The mutation shift and the standard-triangle image check against
brute force over GF(2) and GF(3).

sigma is applied only through the functor `MutationData.sigma`; on every
morphism between surviving generators it must equal `ladder_shift`, one
ladder solve per morphism.  `_image_is_standard` decides with the
sextuple-isomorphism search whether an exact functor sends a registered
standard triangle to a standard one; it must agree with
`brute_force_sextuple_iso`, which tries every (a, b, c), on every
registered triangle of fix_prod's three sides and on copies whose
ladder_z is replaced by each other element of its Hom space."""

import pytest

from rclkit.category import Morphism
from rclkit.cli import _tri_bundle
from rclkit.errors import InconsistentDataError, PreconditionError
from rclkit.field import PrimeField
from rclkit.fixture_gen import build_fix_prod, build_fix_stab3
from rclkit.mutation import (StandardTriangle, _image_is_standard, standard_triangle,
                             triangulated_quotient_recollement)
from rclkit.recollement import FUNCTOR_SLOTS
from rclkit.triangulated import Triangle

from oracles import brute_force_sextuple_iso, every_morphism, ladder_shift

PRIMES = (2, 3)


def pipeline(p):
    """fix_prod's tri-recollement over GF(p): the exact data and the three
    sides' mutation pairs, with their standard triangles registered.  The
    middle pair is stab2 (fix_prod's own, D = add(C1.M2))."""
    ws = build_fix_prod(PrimeField(p))
    rec = ws.recollements["R"]
    tris, exact, m = _tri_bundle(ws, "R", rec)
    out, rep = triangulated_quotient_recollement(rec, tris, exact, m)
    assert rep.ok_all, [str(e) for e in rep.failures()]
    return exact, {"left": out["m_left"], "middle": m, "right": out["m_right"]}


@pytest.mark.parametrize("p", PRIMES)
def test_sigma_functor_equals_the_ladder_solve(p):
    pairs = [build_fix_stab3(PrimeField(p)).mutations["MU"]]
    pairs += pipeline(p)[1].values()
    checked = 0
    for m in pairs:
        pres = m.quotient.presentation
        for x in m.quotient.survivors:
            for y in m.quotient.survivors:
                for fbar in every_morphism(pres, pres.obj(x), pres.obj(y)):
                    assert m.sigma.apply(fbar).equal(ladder_shift(m, fbar))
                    checked += 1
    assert checked


def image_cases(p):
    """(e, m2, st) for every registered triangle st of a side and every exact
    functor e out of that side, with m2 the side e lands in."""
    exact, sides = pipeline(p)
    for slot, (src, tgt) in FUNCTOR_SLOTS.items():
        for st in list(sides[src].registered):
            yield exact[slot], sides[tgt], st


def brute_force_image_is_standard(e, m2, st):
    """Whether the image of st is isomorphic to the standard triangle of m2
    on its first map, or to (0, Y, Y, 0, 1, 0) when its first vertex
    vanishes in the quotient, by trying every (a, b, c)."""
    pushed = e.push_triangle(st.ambient)
    img = m2.to_quotient_triangle(pushed, e.functor.apply(st.ladder_z))
    pres = m2.quotient.presentation
    if not img.x:
        ref = Triangle(img.x, img.y, img.y, Morphism.zero(pres, img.x, img.y),
                       Morphism.identity(pres, img.y), Morphism.zero(pres, img.y, img.x))
    else:
        try:
            ref = standard_triangle(m2, pushed.f, witness=pushed)
        except (PreconditionError, InconsistentDataError):
            return False
    return brute_force_sextuple_iso(m2.sigma, ref, img) is not None


def ladder_z_variants(st, cat):
    """st with ladder_z replaced by each other element of its Hom space."""
    z = st.ladder_z
    return [StandardTriangle(st, st.ambient, other)
            for other in every_morphism(cat, z.source, z.target) if not other.equal(z)]


@pytest.mark.parametrize("p", PRIMES)
def test_image_check_agrees_with_brute_force(p):
    verdicts = []
    for e, m2, st in image_cases(p):
        verdict = _image_is_standard(e, m2, st)
        assert verdict == brute_force_image_is_standard(e, m2, st)
        verdicts.append(verdict)
    assert verdicts and all(verdicts)


@pytest.mark.parametrize("p", PRIMES)
def test_image_check_agrees_on_replaced_ladder_maps(p):
    verdicts = []
    for e, m2, st in image_cases(p):
        for variant in ladder_z_variants(st, e.functor.source):
            verdict = _image_is_standard(e, m2, variant)
            assert verdict == brute_force_image_is_standard(e, m2, variant)
            verdicts.append(verdict)
    assert {True, False} <= set(verdicts)
