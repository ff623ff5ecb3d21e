"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here runs exact arithmetic; tolerances are literal equality.
"""

import itertools
import random

import pytest

from rclkit.adjunction import make_adjunction, validate_adjunction
from rclkit.category import (Morphism, Subcategory, hom_dim_expr, ideal_subspace,
                             obj_text)
from rclkit.cli import main as cli_main
from rclkit.errors import (InconsistentDataError, PreconditionError,
                           PresentationError)
from rclkit.field import QQ, PrimeField
from rclkit.fixture_gen import build_fix_a2
from rclkit.functor import LinearFunctor
from rclkit.linalg import Mat
from rclkit.mutation import check_mutation_pair, verify_quotient_triangulation
from rclkit.quotient import build_quotient, induce_adjunction
from rclkit.recollement import (Recollement, check_recollement,
                                lift_subcategory_pair,
                                quotient_by_left_subcategory,
                                quotient_recollement, restrict_to_subcategory)

from oracles import brute_force_ideal, hom_bijection

ALL_SUBSETS = [tuple(c) for k in range(4)
               for c in itertools.combinations(("S1", "S2", "P1"), k)]


# --------------------------------------------------------------------------
# Criterion 1: checker soundness and completeness under single-site mutations


def _coord_variants(field, value):
    out = []
    if field.is_zero(value):
        out.append(field.one)
    else:
        out.append(field.zero)
        out.append(field.add(value, field.one))
    return out


def _mutate_morphism(mor, k, value):
    coords = list(mor.coords)
    coords[k] = value
    return Morphism(mor.cat, mor.source, mor.target, coords)


def _rebuild(ws, functors, adjs):
    return Recollement(
        left=ws.categories["ModKL"], middle=ws.categories["A2"],
        right=ws.categories["ModKR"],
        i_up=functors["iu"], i_lo=functors["il"], i_bang=functors["ib"],
        j_bang=functors["jb"], j_up=functors["ju"], j_lo=functors["jl"],
        adj_i=adjs["adj_i"], adj_ib=adjs["adj_ib"],
        adj_jb=adjs["adj_jb"], adj_j=adjs["adj_j"])


ADJ_FUNCTORS = {"adj_i": ("iu", "il"), "adj_ib": ("il", "ib"),
                "adj_jb": ("jb", "ju"), "adj_j": ("ju", "jl")}


def _remake_adjunctions(ws, functors):
    adjs = {}
    for name, (ln, rn) in ADJ_FUNCTORS.items():
        orig = ws.adjunctions[name]
        adjs[name] = make_adjunction(functors[ln], functors[rn],
                                     dict(orig.unit.components),
                                     dict(orig.counit.components), name=name)
    return adjs


def _enumerate_mutants(ws):
    """All single-site mutations: every adjunction-component coordinate,
    every functor hom-matrix cell, every object-map entry."""
    base_functors = {n: ws.functors[n] for n in ("iu", "il", "ib", "jb", "ju", "jl")}
    field = ws.field

    for adj_name, adj in sorted(ws.adjunctions.items()):
        for side in ("unit", "counit"):
            comps = getattr(adj, side).components
            for gen in sorted(comps):
                for k, val in enumerate(comps[gen].coords):
                    for variant in _coord_variants(field, val):
                        def build(adj_name=adj_name, side=side, gen=gen, k=k,
                                  variant=variant):
                            adjs = _remake_adjunctions(ws, base_functors)
                            orig = ws.adjunctions[adj_name]
                            unit = dict(orig.unit.components)
                            counit = dict(orig.counit.components)
                            target = unit if side == "unit" else counit
                            target[gen] = _mutate_morphism(target[gen], k, variant)
                            adjs[adj_name] = make_adjunction(
                                orig.left, orig.right, unit, counit, name=adj_name)
                            return _rebuild(ws, base_functors, adjs)
                        yield ("%s.%s.%s[%d]" % (adj_name, side, gen, k), build)

    for fname in sorted(base_functors):
        f = base_functors[fname]
        for (a, b), mat in sorted(f.hom_maps.items()):
            for r in range(mat.rows):
                for c in range(mat.cols):
                    for variant in _coord_variants(field, mat.data[r][c]):
                        def build(fname=fname, a=a, b=b, r=r, c=c, variant=variant):
                            f0 = base_functors[fname]
                            data = [list(row) for row in f0.hom_maps[(a, b)].data]
                            data[r][c] = variant
                            hom_maps = dict(f0.hom_maps)
                            hom_maps[(a, b)] = Mat(field, len(data),
                                                   len(data[0]), data)
                            mutated = LinearFunctor(f0.source, f0.target,
                                                    f0.object_map, hom_maps,
                                                    name=fname)
                            functors = dict(base_functors)
                            functors[fname] = mutated
                            return _rebuild(ws, functors,
                                            _remake_adjunctions(ws, functors))
                        yield ("%s.hom[%s,%s][%d,%d]" % (fname, a, b, r, c), build)

    for fname in sorted(base_functors):
        f = base_functors[fname]
        tgt_gens = f.target.generators
        for gen in f.source.generators:
            current = f.object_map[gen]
            alternatives = [(t,) for t in tgt_gens if (t,) != current]
            if current:
                alternatives.append(())
                alternatives.append(current + current)
            for alt in alternatives:
                def build(fname=fname, gen=gen, alt=alt):
                    f0 = base_functors[fname]
                    object_map = dict(f0.object_map)
                    object_map[gen] = alt
                    mutated = LinearFunctor(f0.source, f0.target, object_map,
                                            f0.hom_maps, name=fname)
                    functors = dict(base_functors)
                    functors[fname] = mutated
                    return _rebuild(ws, functors,
                                    _remake_adjunctions(ws, functors))
                yield ("%s.object[%s->%s]" % (fname, gen, obj_text(alt)), build)


def _mutant_detected(build):
    try:
        rec = build()
    except (PresentationError, PreconditionError, InconsistentDataError):
        return True
    return not check_recollement(rec, "strict").ok_all


def test_criterion_1_checker_soundness(ws_a2):
    for sem in ("strict", "iso-closed"):
        assert check_recollement(ws_a2.recollements["R"], sem).ok_all
    undetected = []
    count = 0
    for label, build in _enumerate_mutants(ws_a2):
        count += 1
        if not _mutant_detected(build):
            undetected.append(label)
    assert not undetected, undetected
    assert count >= 60
    print("\nACCEPTANCE 1: checker soundness on FIX-A2 "
          "(%d single-site mutants, all detected) PASS" % count)


# --------------------------------------------------------------------------
# Criterion 2: restriction yields recollements whenever the hypotheses hold


def test_criterion_2_restriction(ws_a2):
    rec = ws_a2.recollements["R"]
    cat = ws_a2.categories["A2"]
    passing = 0
    for sub in ALL_SUBSETS:
        x = Subcategory(cat, sub)
        try:
            out, rep = restrict_to_subcategory(rec, x)
        except PreconditionError:
            continue
        passing += 1
        assert rep.ok_all, (sub, [str(e) for e in rep.failures()])
        assert check_recollement(out, "strict").ok_all
    assert passing == 3  # the empty set, {S2}, and everything
    print("\nACCEPTANCE 2: restriction over all %d subsets "
          "(%d satisfy the hypotheses, all pass) PASS"
          % (len(ALL_SUBSETS), passing))


# --------------------------------------------------------------------------
# Criterion 3: quotient diagram is a recollement iff x lies in Ker j_up


def test_criterion_3_quotient_iff(ws_a2):
    rec = ws_a2.recollements["R"]
    cat = ws_a2.categories["A2"]
    ker = {"S2"}
    scored = 0
    for sub in ALL_SUBSETS:
        x = Subcategory(cat, sub)
        try:
            _, rep = quotient_recollement(rec, x, "strict")
        except PreconditionError:
            continue
        scored += 1
        predicate = set(sub) <= ker
        assert rep.ok_all == predicate, (sub, [str(e) for e in rep.failures()])
        assert not rep.has_failures("iff-consistency")
    assert scored == 3
    # pinned divergence: the collapse-everything case passes the iso-closed
    # reading although the predicate is false
    x = Subcategory(cat, ("S1", "S2", "P1"))
    _, rep = quotient_recollement(rec, x, "iso-closed")
    assert rep.ok_all
    pred = [e for e in rep.entries if e.key == "predicate.x-in-ker-j_up"][0]
    assert pred.witness == "false"
    _, rep_strict = quotient_recollement(rec, x, "strict")
    r3 = [e for e in rep_strict.entries if e.key == "r3"][0]
    assert r3.status == "fail" and "S1" in r3.witness
    print("\nACCEPTANCE 3: quotient-diagram iff (strict) over %d admissible "
          "subsets; iso-closed divergence pinned PASS" % scored)


# --------------------------------------------------------------------------
# Criterion 4: well-definedness of the induced Hom bijections, randomized


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_criterion_4_well_definedness(field):
    ws = build_fix_a2(field)
    cat = ws.categories["A2"]
    modkl = ws.categories["ModKL"]
    modkr = ws.categories["ModKR"]
    adj = ws.adjunctions["adj_i"]
    x = Subcategory(cat, ["S2"])
    xp = Subcategory(modkl, ["V"])
    rng = random.Random(int(field.characteristic) + 7)
    gens = cat.generators
    trials = 0
    while trials < 100:
        a = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
        b = tuple(rng.choice(modkl.generators) for _ in range(rng.randint(1, 2)))
        la = adj.left.apply_obj(a)
        d = hom_dim_expr(modkl, la, b)
        ide = ideal_subspace(modkl, la, b, xp)
        if d == 0 or ide.dim == 0:
            trials += 1
            continue
        fwd, _ = hom_bijection(adj, a, b)
        target_ideal = ideal_subspace(cat, a, adj.right.apply_obj(b), x)
        fvec = [field.of_int(rng.randint(-5, 5)) for _ in range(d)]
        rcoef = [field.of_int(rng.randint(-5, 5)) for _ in range(ide.dim)]
        rvec = [field.zero] * d
        for c, row in zip(rcoef, ide.rows):
            rvec = [field.add(x0, field.mul(c, y0)) for x0, y0 in zip(rvec, row)]
        img1 = fwd.apply(tuple(fvec))
        img2 = fwd.apply(tuple(field.add(x0, y0) for x0, y0 in zip(fvec, rvec)))
        assert target_ideal.reduce(img1) == target_ideal.reduce(img2)
        trials += 1

    # induced adjunctions validate across the admissible containments
    q_mid = build_quotient(cat, x)
    q_left = build_quotient(modkl, xp)
    q_right = build_quotient(modkr, Subcategory(modkr, []))
    for name, q_src, q_tgt in (("adj_i", q_mid, q_left),
                               ("adj_ib", q_left, q_mid),
                               ("adj_jb", q_right, q_mid),
                               ("adj_j", q_mid, q_right)):
        induced, rep = induce_adjunction(ws.adjunctions[name], q_src, q_tgt)
        assert rep.ok_all, name
        assert validate_adjunction(induced).ok_all, name
    print("\nACCEPTANCE 4: induced-bijection well-definedness, 100 trials "
          "over %r plus induced adjunction validation PASS" % (field,))


# --------------------------------------------------------------------------
# Criterion 5: lifting subcategory pairs and closed-part quotients


def test_criterion_5_corollaries(ws_a2):
    rec = ws_a2.recollements["R"]
    modkl = ws_a2.categories["ModKL"]
    modkr = ws_a2.categories["ModKR"]
    x, restricted, rep = lift_subcategory_pair(
        rec, Subcategory(modkl, ["V"]), Subcategory(modkr, []))
    assert x.members == ("S2",)
    assert rep.ok_all, [str(e) for e in rep.failures()]
    for sub in ((), ("V",)):
        _, rep = quotient_by_left_subcategory(rec, Subcategory(modkl, sub))
        assert rep.ok_all, (sub, [str(e) for e in rep.failures()])
    print("\nACCEPTANCE 5: subcategory lifting and closed-part quotients "
          "(both subsets) PASS")


# --------------------------------------------------------------------------
# Criterion 6: the mutation-pair layer on FIX-STAB3


def test_criterion_6_mutation_layer(ws_stab3):
    m = ws_stab3.mutations["MU"]
    assert check_mutation_pair(m).ok_all
    rep = verify_quotient_triangulation(m)
    assert rep.ok_all, [str(e) for e in rep.failures()]
    statuses = {e.key: e.status for e in rep.entries}
    assert statuses["tr2"] == "not-checked"
    assert statuses["tr4"] == "not-checked"
    assert any(k.startswith("tr1.") for k in statuses)
    assert statuses["tr3"] == "pass"

    cat = ws_stab3.categories["STAB"]
    checked = 0
    for a in cat.generators:
        for b in cat.generators:
            fast = ideal_subspace(cat, (a,), (b,), m.d)
            slow = brute_force_ideal(cat, (a,), (b,), list(m.d.members), max_mult=2)
            assert fast == slow, (a, b)
            checked += 1
    print("\nACCEPTANCE 6: mutation pair + quotient triangulation on "
          "FIX-STAB3; ideal oracle agreed on %d pairs PASS" % checked)


# --------------------------------------------------------------------------
# Criterion 7: the full triangulated pipeline on FIX-PROD, via the CLI


def _run_cli(args, tmp_path, tag):
    out = tmp_path / (tag + ".cert")
    code = cli_main(list(args) + ["--out", str(out)])
    return code, out.read_text()


def test_criterion_7_tri_recollement(fixture_dir, tmp_path, ws_prod, capsys):
    prod = str(fixture_dir / "fix_prod.rcl")
    code, cert = _run_cli(["tri-recollement", prod, "--d", "C1.M2"],
                          tmp_path, "pos")
    assert code == 0
    assert "result.verdict = pass" in cert
    for cond in ("r1.adj-i_up-i_lo", "r2.i_lo", "r3"):
        assert "check.additive.%s.status = pass" % cond in cert
    for slot in ("i_up", "i_lo", "i_bang", "j_bang", "j_up", "j_lo"):
        assert "check.exact.%s.exact.sigma-objects.status = pass" % slot in cert
        assert "check.exact.%s.exact.sigma-morphisms.status = pass" % slot in cert
        assert ("check.exact.%s.exact.standard-triangle-image.status = pass"
                % slot) in cert

    code, cert_neg = _run_cli(["tri-recollement", prod, "--d", "C2.M2"],
                              tmp_path, "neg")
    assert code == 1
    assert "check.precondition.d-in-ker-j_up.status = fail" in cert_neg
    assert "C2.M2" in cert_neg

    # pipeline coherence: the additive layer of the certificate agrees with
    # running the quotient pipeline directly
    rec = ws_prod.recollements["R"]
    d = ws_prod.subcategories["D1"]
    _, direct = quotient_recollement(rec, d, "strict")
    direct_map = {e.key: e.status for e in direct.entries}
    embedded = {}
    for line in cert.splitlines():
        if line.startswith("check.additive.") and ".status = " in line:
            key, _, val = line.partition(" = ")
            embedded[key[len("check.additive."):-len(".status")]] = val
    assert embedded
    for key, status in embedded.items():
        assert direct_map.get(key) == status, key
    print("\nACCEPTANCE 7: full triangulated pipeline on FIX-PROD "
          "(positive exit 0, negative control exit 1, additive layer "
          "coherent) PASS")


# --------------------------------------------------------------------------
# Criterion 8: byte-identical certificates across consecutive runs


def test_criterion_8_determinism(fixture_dir, tmp_path, capsys):
    a2 = str(fixture_dir / "fix_a2.rcl")
    stab = str(fixture_dir / "fix_stab3.rcl")
    prod = str(fixture_dir / "fix_prod.rcl")
    runs = [
        ("check-a2-strict", ["check-recollement", a2, "--semantics", "strict"]),
        ("check-a2-iso", ["check-recollement", a2, "--semantics", "iso"]),
        ("quot-s2", ["quotient-recollement", a2, "--x", "S2"]),
        ("quot-all", ["quotient-recollement", a2, "--x", "S1,S2,P1"]),
        ("lift", ["lift", a2, "--xp", "V", "--xpp", "ModKR:"]),
        ("left-quot", ["left-quotient", a2, "--xp", "V"]),
        ("mut-check", ["mutation-check", stab]),
        ("tri-quot", ["triangulate-quotient", stab]),
        ("tri-rec", ["tri-recollement", prod, "--d", "C1.M2"]),
        ("tri-rec-neg", ["tri-recollement", prod, "--d", "C2.M2"]),
    ]
    for tag, args in runs:
        _, first = _run_cli(args, tmp_path, tag + "-run1")
        _, second = _run_cli(args, tmp_path, tag + "-run2")
        assert first == second, tag
        assert first.endswith("\n")
    print("\nACCEPTANCE 8: %d certificates byte-identical across two "
          "consecutive runs PASS" % len(runs))
