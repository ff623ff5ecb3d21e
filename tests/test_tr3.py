"""TR3 on the quotient triangulation against brute force over GF(2) and GF(3).

`verify_quotient_triangulation` decides TR3 for each ordered pair of
registered standard triangles with one linear solve over a basis of the
commuting squares (`_tr3_pair`).  `brute_force_tr3` tries every pair (a, b)
instead, keeps the commuting squares and ladder-solves each.  They must
agree on stab1 (fix_stab3) and stab2 (the middle of fix_prod), as built, and
on copies where one triangle's third map is replaced so that some pairs
fail.  A first map replaced by 2 * 1 over GF(3) shows the gap of the sampled
check that the exact one replaced: the failing squares are ones the sampled
check never tried."""

import re

import pytest

from rclkit.category import Morphism, hom_basis
from rclkit.field import PrimeField
from rclkit.fixture_gen import build_fix_prod, build_fix_stab3
from rclkit.mutation import (StandardTriangle, _check_triangles, _HomMats, _tr3_pair,
                             verify_quotient_triangulation)
from rclkit.triangulated import Triangle

from oracles import brute_force_tr3, sampled_tr3

CASES = [(p, name) for p in (2, 3) for name in ("stab1", "stab2")]


def mutation_pair(p, name):
    """A fresh mutation pair over GF(p) with its standard triangles
    registered, and the certificate of that first verification."""
    F = PrimeField(p)
    ws = build_fix_stab3(F) if name == "stab1" else build_fix_prod(F)
    m = ws.mutations["MU"]
    return m, verify_quotient_triangulation(m)


def replaced(st, **maps):
    """A copy of a registered triangle with some of f, g, h replaced."""
    f, g, h = (maps.get(k, getattr(st, k)) for k in ("f", "g", "h"))
    return StandardTriangle(Triangle(st.x, st.y, st.z, f, g, h, name=st.name + "'"),
                            st.ambient, st.ladder_z)


def third_map_variants(st):
    """h replaced by zero and by h plus each basis element of its Hom space."""
    pres = st.h.cat
    others = [Morphism.zero(pres, st.h.source, st.h.target)]
    others += [st.h.add(e) for e in hom_basis(pres, st.h.source, st.h.target)]
    return [replaced(st, h=o) for o in others if not o.equal(st.h)]


def assert_pair_agrees(m, t1, t2):
    dim, completes = _tr3_pair(m, t1, t2, _HomMats())
    commuting, failing = brute_force_tr3(m, t1, t2)
    assert commuting == m.tri.cat.field.characteristic ** dim
    assert completes == (not failing)
    return completes


@pytest.mark.parametrize("p,name", CASES)
def test_exact_tr3_agrees_with_brute_force(p, name):
    m, rep = mutation_pair(p, name)
    statuses = {e.key: e.status for e in rep.entries}
    assert statuses["tr3"] == "pass"
    for t1 in m.registered:
        for t2 in m.registered:
            assert assert_pair_agrees(m, t1, t2)


@pytest.mark.parametrize("p,name", CASES)
def test_exact_tr3_agrees_on_replaced_third_maps(p, name):
    m, _ = mutation_pair(p, name)
    registered = list(m.registered)
    failures = 0
    for i, st in enumerate(registered):
        for variant in third_map_variants(st):
            triangles = registered[:i] + [variant] + registered[i + 1:]
            for other in triangles:
                for t1, t2 in ((variant, other), (other, variant)):
                    failures += not assert_pair_agrees(m, t1, t2)
    assert failures


def failing_pairs(rep):
    return {tuple(map(int, re.fullmatch(r"no completion between (\d+) and (\d+)",
                                        e.witness).groups()))
            for e in rep.entries if e.key == "tr3" and e.status == "fail"}


@pytest.mark.parametrize("p", (2, 3))
def test_verify_reports_every_failing_pair(p):
    """With the third map of M1 -> M1 -> M1 + M1 replaced by zero, and the
    original triangle appended last, the triangle checks name exactly the
    pairs the oracle finds failing."""
    m, _ = mutation_pair(p, "stab1")
    i = next(i for i, t in enumerate(m.registered) if len(t.z) == 2)
    st = m.registered[i]
    edited = replaced(st, h=Morphism.zero(st.h.cat, st.h.source, st.h.target))
    triangles = m.registered[:i] + (edited,) + m.registered[i + 1:] + (st,)
    assert len(triangles) == 3
    rep = _check_triangles(m, triangles)
    expected = {(i1, i2) for i1, t1 in enumerate(triangles)
                for i2, t2 in enumerate(triangles) if brute_force_tr3(m, t1, t2)[1]}
    assert expected and failing_pairs(rep) == expected


def test_sampled_tr3_misses_squares_outside_its_candidates():
    """Over GF(3), give M1 -> M1 -> M1 + M1 (first map 0) the first map
    2 * 1_M1.  Between it and M1 -> M1 -> 0 (first map 1_M1) the commuting
    squares are the multiples of (1, 2) and (2, 1): neither is a zero,
    basis or identity pair, and neither completes.  The exact check fails
    both pairs; the sampled check, which tries only such pairs, passes
    them."""
    m, _ = mutation_pair(3, "stab1")
    t0, t1 = m.registered
    assert t0.z == () and t1.f.is_zero()
    changed = replaced(t1, f=t0.f.scale(2))
    for pair in ((t0, changed), (changed, t0)):
        commuting, failing = brute_force_tr3(m, *pair)
        assert commuting == 3
        assert sorted((a.coords, b.coords) for a, b in failing) == [((1,), (2,)),
                                                                           ((2,), (1,))]
        assert _tr3_pair(m, *pair, _HomMats()) == (1, False)
        assert sampled_tr3(m, *pair)
