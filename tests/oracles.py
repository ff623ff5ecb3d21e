"""Independent brute-force oracles shared by the test modules."""

import itertools
from collections import Counter

from rclkit.adjunction import transpose_mat
from rclkit.category import (Morphism, compose, hom_basis, hom_dim_expr, morphism_inverse,
                             postcompose_mat, precompose_mat)
from rclkit.errors import InputError
from rclkit.linalg import Mat, SubspaceBasis, nullspace, solve
from rclkit.mutation import _HomMats, _ladder_matrix
from rclkit.report import Report
from rclkit.workspace import Diagnostic


def brute_force_ideal(cat, a, b, members, max_mult=2):
    """Span of composites factoring through explicit direct sums of members
    with multiplicity up to max_mult (not just single generators)."""
    vectors = []
    mids = []
    for k in range(1, max_mult + 1):
        mids.extend(itertools.combinations_with_replacement(members, k))
    for mid in mids:
        d_in = hom_dim_expr(cat, a, mid)
        d_out = hom_dim_expr(cat, mid, b)
        for q in range(d_in):
            cin = [cat.field.zero] * d_in
            cin[q] = cat.field.one
            g = Morphism(cat, a, mid, cin)
            for p in range(d_out):
                cout = [cat.field.zero] * d_out
                cout[p] = cat.field.one
                h = Morphism(cat, mid, b, cout)
                vectors.append(compose(h, g).coords)
    return SubspaceBasis.from_vectors(cat.field, hom_dim_expr(cat, a, b), vectors)


def brute_force_invertible_point(field, basis, parts):
    """Some point of the span of basis whose parts are all invertible, or
    None.  Every point over the prime field is tried, so keep p^len(basis)
    small."""
    p = field.characteristic
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        vec = [field.zero] * len(basis[0]) if basis else ()
        for c, b in zip(coeffs, basis):
            vec = [field.add(x, field.mul(c, y)) for x, y in zip(vec, b)]
        mors = parts(vec)
        if all(morphism_inverse(m) is not None for m in mors):
            return mors
    return None


def every_morphism(cat, a, b):
    """Every morphism a -> b over a prime field, in coordinate order."""
    F = cat.field
    for coeffs in itertools.product(range(F.characteristic), repeat=hom_dim_expr(cat, a, b)):
        yield Morphism(cat, a, b, [F.of_int(c) for c in coeffs])


def brute_force_isomorphic(cat, g, h):
    """Whether some f: g -> h and f': h -> g satisfy f' o f = 1 and
    f o f' = 1.  Every pair of coordinate vectors over the prime field is
    tried, so keep p^(dim Hom(g, h) + dim Hom(h, g)) small."""
    src, tgt = (g,), (h,)
    one_g, one_h = Morphism.identity(cat, src), Morphism.identity(cat, tgt)
    backs = list(every_morphism(cat, tgt, src))
    return any(compose(back, f).equal(one_g) and compose(f, back).equal(one_h)
               for f in every_morphism(cat, src, tgt) for back in backs)


def basis_element(cat, a, b, q):
    """The basis morphism q of Hom(a, b), for generators a and b."""
    return list(hom_basis(cat, (a,), (b,)))[q]


def hom_bijection(adj, a, b):
    """The bijection Hom(L a, b) -> Hom(a, R b) and its inverse, as matrices.

    Forward: f |-> R(f) o unit_a.  Backward: g |-> counit_b o L(g).
    """
    L, R = adj.left, adj.right
    la = L.apply_obj(a)
    fwd = transpose_mat(R, adj.unit.at(a), la, b)
    bwd = postcompose_mat(adj.counit.at(b), la).mul(L.action(a, R.apply_obj(b)))
    return fwd, bwd


# -- the block layout, read with hom_dim alone --

def blocks_of(mor):
    """The components of mor as nested blocks: blocks[i][j] holds the
    coordinates of source summand j -> target summand i.  The flat
    coordinates are cut target row by row, source column by column, with
    each block's length taken from hom_dim, not from `block_offsets`."""
    cat, coords = mor.cat, iter(mor.coords)
    blocks = [[tuple(itertools.islice(coords, cat.hom_dim(s, t))) for s in mor.source]
              for t in mor.target]
    assert next(coords, None) is None
    return blocks


def from_blocks(cat, source, target, blocks):
    """The morphism source -> target whose nested blocks (as `blocks_of`
    reads them) are the given ones."""
    assert [[len(vec) for vec in row] for row in blocks] == \
        [[cat.hom_dim(s, t) for s in source] for t in target]
    return Morphism(cat, source, target, [x for row in blocks for vec in row for x in vec])


# -- per-basis kernels: the Hom-action matrices, one basis element at a time --

def basis_morphisms(cat):
    """Every (a, b, q, f) with f the basis morphism q of Hom(a, b), for
    generators a and b, in generator order."""
    return [(a, b, q, basis_element(cat, a, b, q))
            for a in cat.generators for b in cat.generators for q in range(cat.hom_dim(a, b))]


def per_basis_compose(g, f):
    """g o f, one pair of basis coordinates at a time through comp_vec."""
    cat = f.cat
    F = cat.field
    gblocks, fblocks = blocks_of(g), blocks_of(f)
    blocks = []
    for i, c in enumerate(g.target):
        row = []
        for j, a in enumerate(f.source):
            acc = [F.zero] * cat.hom_dim(a, c)
            for m, b in enumerate(f.target):
                for p, gc in enumerate(gblocks[i][m]):
                    for q, fc in enumerate(fblocks[m][j]):
                        cv = cat.comp_vec(a, b, c, p, q)
                        coef = F.mul(gc, fc)
                        acc = [F.add(x, F.mul(coef, y)) for x, y in zip(acc, cv)]
            row.append(tuple(acc))
        blocks.append(row)
    return from_blocks(cat, f.source, g.target, blocks)


def per_basis_postcompose_mat(g, a):
    """Hom(a, g.source) -> Hom(a, g.target), h |-> g o h, column by column."""
    cat = g.cat
    return Mat.from_columns(cat.field, hom_dim_expr(cat, a, g.target),
                            [per_basis_compose(g, h).coords
                             for h in hom_basis(cat, a, g.source)])


def per_basis_precompose_mat(f, b):
    """Hom(f.target, b) -> Hom(f.source, b), h |-> h o f, column by column."""
    cat = f.cat
    return Mat.from_columns(cat.field, hom_dim_expr(cat, f.source, b),
                            [per_basis_compose(h, f).coords
                             for h in hom_basis(cat, f.target, b)])


def per_basis_apply(functor, mor):
    """functor(mor), block by block through the generator hom maps."""
    tgt = functor.target
    F = tgt.field
    src_img = functor.apply_obj(mor.source)
    tgt_img = functor.apply_obj(mor.target)
    soff, toff = [0], [0]
    for g in mor.source:
        soff.append(soff[-1] + len(functor.object_map[g]))
    for h in mor.target:
        toff.append(toff[-1] + len(functor.object_map[h]))
    blocks = [[(F.zero,) * tgt.hom_dim(s, t) for s in src_img]
              for t in tgt_img]
    mblocks = blocks_of(mor)
    for i, h in enumerate(mor.target):
        for j, g in enumerate(mor.source):
            vec = mblocks[i][j]
            if not vec:
                continue
            mat = functor.hom_maps[(g, h)]
            coords = [F.zero] * mat.rows
            for r in range(mat.rows):
                for q, x in enumerate(vec):
                    coords[r] = F.add(coords[r], F.mul(mat.data[r][q], x))
            local = Morphism(tgt, functor.object_map[g], functor.object_map[h], coords)
            for li, row in enumerate(blocks_of(local)):
                for lj, v in enumerate(row):
                    blocks[toff[i] + li][soff[j] + lj] = v
    return from_blocks(tgt, src_img, tgt_img, blocks)


def per_basis_compose_functors(outer, inner):
    """The hom maps of outer o inner, one basis morphism at a time."""
    hom_maps = {}
    for (g, h) in inner.hom_maps:
        src_img = outer.apply_obj(inner.object_map[g])
        tgt_img = outer.apply_obj(inner.object_map[h])
        hom_maps[(g, h)] = Mat.from_columns(
            outer.target.field, hom_dim_expr(outer.target, src_img, tgt_img),
            [per_basis_apply(outer, per_basis_apply(inner, f)).coords
             for f in hom_basis(inner.source, (g,), (h,))])
    return hom_maps


def per_basis_validate_nat(nt):
    """Naturality square by square, one basis morphism at a time."""
    rep = Report()
    src = nt.from_f.source
    for a, b, q, f in basis_morphisms(src):
        lhs = per_basis_compose(per_basis_apply(nt.to_f, f), nt.components[a])
        rhs = per_basis_compose(nt.components[b], per_basis_apply(nt.from_f, f))
        if lhs.coords != rhs.coords:
            rep.fail("naturality", "at basis %s.%s of Hom(%s,%s)"
                     % (a, src.basis_names(a, b)[q], a, b))
    rep.close("naturality")
    return rep


def per_basis_quotient_comp(q):
    """The structure constants of a quotient presentation, one composite of
    two lifted basis morphisms at a time."""
    pres = q.presentation
    comp = {}
    for a in q.survivors:
        for b in q.survivors:
            for c in q.survivors:
                da, db = pres.hom_dim(a, b), pres.hom_dim(b, c)
                if da == 0 or db == 0:
                    continue
                reduce = q.projection.hom_maps[(a, c)].apply
                comp[(a, b, c)] = tuple(
                    tuple(reduce(compose(q.lift_basis(b, c, p), q.lift_basis(a, b, r)).coords)
                          for r in range(da))
                    for p in range(db))
    return comp


# -- the structure laws, one composite of basis morphisms at a time --

def per_basis_validate_category(cat):
    """Identity laws, associativity and locality, with one `compose` per
    basis morphism and per triple of composable basis morphisms."""
    rep = Report()
    gens = cat.generators
    for g in gens:
        ident = Morphism(cat, (g,), (g,), cat.identities[g])
        for h in gens:
            for q in range(cat.hom_dim(g, h)):
                f = basis_element(cat, g, h, q)
                name = cat.basis_names(g, h)[q]
                if not compose(f, ident).equal(f):
                    rep.fail("identity.right", "%s o 1_%s != %s" % (name, g, name))
                ident_h = Morphism(cat, (h,), (h,), cat.identities[h])
                if not compose(ident_h, f).equal(f):
                    rep.fail("identity.left", "1_%s o %s != %s" % (h, name, name))
    rep.close("identity")
    for a, b, q1, f in basis_morphisms(cat):
        for c in gens:
            for q2 in range(cat.hom_dim(b, c)):
                g = basis_element(cat, b, c, q2)
                gf = compose(g, f)
                for d in gens:
                    for q3 in range(cat.hom_dim(c, d)):
                        h = basis_element(cat, c, d, q3)
                        if not compose(h, gf).equal(compose(compose(h, g), f)):
                            rep.fail("associativity",
                                     "witness (%s in Hom(%s,%s), %s in Hom(%s,%s), "
                                     "%s in Hom(%s,%s))" % (
                                         cat.basis_names(a, b)[q1], a, b,
                                         cat.basis_names(b, c)[q2], b, c,
                                         cat.basis_names(c, d)[q3], c, d))
    rep.close("associativity")
    for reason in cat.residue_data()[1].values():
        rep.fail("locality", reason)
    rep.close("locality")
    return rep


def per_basis_validate_functor(f):
    """Identity preservation and F(g o f) = F(g) o F(f), one pair of basis
    morphisms at a time."""
    rep = Report()
    src = f.source
    for g in src.generators:
        img = per_basis_apply(f, Morphism.identity(src, (g,)))
        if not img.equal(Morphism.identity(f.target, f.object_map[g])):
            rep.fail("preserves-identity", "at %s" % g)
    rep.close("preserves-identity")
    for a, b, q1, mor_f in basis_morphisms(src):
        for c in src.generators:
            for q2 in range(src.hom_dim(b, c)):
                mor_g = basis_element(src, b, c, q2)
                lhs = per_basis_apply(f, compose(mor_g, mor_f))
                rhs = compose(per_basis_apply(f, mor_g), per_basis_apply(f, mor_f))
                if not lhs.equal(rhs):
                    rep.fail("preserves-composition",
                             "witness pair (%s in Hom(%s,%s), %s in Hom(%s,%s))" % (
                                 src.basis_names(a, b)[q1], a, b,
                                 src.basis_names(b, c)[q2], b, c))
    rep.close("preserves-composition")
    return rep


def per_basis_ideal_validate(ideal):
    """Two-sidedness of a MorphismIdeal, one composite of an ideal row with
    a basis morphism at a time, and the identities of its members."""
    rep = Report()
    cat = ideal.parent
    for (a, b), sub in ideal.table.items():
        for vec in sub.rows:
            w = Morphism(cat, (a,), (b,), vec)
            for c in cat.generators:
                for p in range(cat.hom_dim(b, c)):
                    u = basis_element(cat, b, c, p)
                    if not ideal.table[(a, c)].contains_vector(compose(u, w).coords):
                        rep.fail("ideal.two-sided.post-compose",
                                 "(%s,%s) composed into Hom(%s,%s)" % (a, b, a, c))
                for p in range(cat.hom_dim(c, a)):
                    v = basis_element(cat, c, a, p)
                    if not ideal.table[(c, b)].contains_vector(compose(w, v).coords):
                        rep.fail("ideal.two-sided.pre-compose",
                                 "(%s,%s) composed into Hom(%s,%s)" % (a, b, c, b))
    rep.close("ideal.two-sided")
    for m in ideal.through.members:
        if not ideal.table[(m, m)].contains_vector(tuple(cat.identities[m])):
            rep.fail("ideal.member-identity", m)
    rep.close("ideal.member-identity")
    return rep


# -- the triangulated layer --------------------------------------------------

def _completes(m, t1, t2, a, b):
    """Whether the square (a, b) extends to c: Z1 -> Z2 with c o g1 = g2 o b
    and h2 o c = sigma(a) o h1, with the ladder matrix built one basis
    element at a time."""
    ladder = per_basis_precompose_mat(t1.g, t2.h.source).vstack(
        per_basis_postcompose_mat(t2.h, t1.g.target))
    rhs = compose(t2.g, b).coords + compose(m.sigma.apply(a), t1.h).coords
    return solve(ladder, Mat.column(ladder.field, rhs)) is not None


def brute_force_tr3(m, t1, t2):
    """(commuting, failing) for two registered standard triangles of a
    mutation pair over GF(p): the number of squares (a, b) with
    f2 o a = b o f1, found by trying every pair, and the list of those that
    do not complete.  Keep p^(dim Hom(X1, X2) + dim Hom(Y1, Y2)) small."""
    pres = m.quotient.presentation
    commuting, failing = 0, []
    bs = list(every_morphism(pres, t1.y, t2.y))
    for a in every_morphism(pres, t1.x, t2.x):
        fa = compose(t2.f, a)
        for b in bs:
            if fa.equal(compose(b, t1.f)):
                commuting += 1
                if not _completes(m, t1, t2, a, b):
                    failing.append((a, b))
    return commuting, failing


def sampled_tr3(m, t1, t2):
    """The sampled TR3 check the exact one replaced: whether every commuting
    square (a, b) with a and b each zero, a Hom-basis element or an identity
    completes."""
    pres = m.quotient.presentation

    def candidates(src, tgt):
        out = [Morphism.zero(pres, src, tgt)] + list(hom_basis(pres, src, tgt))
        if src == tgt and src:
            out.append(Morphism.identity(pres, src))
        return out

    return all(_completes(m, t1, t2, a, b)
               for a in candidates(t1.x, t2.x) for b in candidates(t1.y, t2.y)
               if compose(t2.f, a).equal(compose(b, t1.f)))


def ladder_shift(m, fbar):
    """sigma(fbar) for a class fbar between surviving generators, by one
    ladder solve per morphism (the path that applying the functor
    `MutationData.sigma` replaced): lift fbar to f: x -> y, solve
    d o alpha_x = alpha_y o f, then z o beta_x = beta_y o d and
    gamma_y o z = T(f) o gamma_x with every matrix built one basis element
    at a time, and take the class of z."""
    cat = m.tri.cat
    (x,), (y,) = fbar.source, fbar.target
    tx, ty = m.fixed[x], m.fixed[y]
    f = m.lift(fbar)

    def solved(mat, rhs, src, tgt):
        return Morphism(cat, src, tgt, solve(mat, Mat.column(cat.field, rhs)).col(0))

    d = solved(per_basis_precompose_mat(tx.f, ty.y), compose(ty.f, f).coords, tx.y, ty.y)
    ladder = per_basis_precompose_mat(tx.g, ty.z).vstack(per_basis_postcompose_mat(ty.h, tx.z))
    rhs = compose(ty.g, d).coords + compose(per_basis_apply(m.tri.shift, f), tx.h).coords
    return m.to_quotient(solved(ladder, rhs, tx.z, ty.z))


def ladder_classes(m, f):
    """The classes of c over the freedom of b in the ladder on f: x -> y
    from the fixed triangle of x to that of y.  b runs over the canonical
    solution of b o alpha_x = alpha_y o f and its sums with each basis
    vector of the solutions of b o alpha_x = 0; for each, c is solved from
    c o beta_x = beta_y o b and gamma_y o c = T(f) o gamma_x through
    `mutation._ladder_matrix`."""
    cat = m.tri.cat
    (x,), (y,) = f.source, f.target
    tx, ty = m.fixed[x], m.fixed[y]
    alpha = precompose_mat(tx.f, ty.y)
    b0 = Morphism(cat, tx.y, ty.y,
                  solve(alpha, Mat.column(cat.field, compose(ty.f, f).coords)).col(0))
    bs = [b0] + [b0.add(Morphism(cat, tx.y, ty.y, v)) for v in nullspace(alpha)]
    tail = compose(m.tri.shift.apply(f), tx.h).coords
    classes = []
    for b in bs:
        rhs = Mat.column(cat.field, compose(ty.g, b).coords + tail)
        c = solve(_ladder_matrix(tx.g, ty.h, _HomMats()), rhs)
        classes.append(m.to_quotient(Morphism(cat, tx.z, ty.z, c.col(0))))
    return classes


def brute_force_sextuple_iso(shift, ts, t):
    """Some isomorphism of sextuples (a, b, c): ts -> t over the shift
    functor, with t.f a = b ts.f, t.g b = c ts.g and t.h c = T(a) ts.h, or
    None.  Every triple over the prime field is tried, so keep p^(total
    dimension of the three Hom spaces) small."""
    cat = shift.source
    cs = list(every_morphism(cat, ts.z, t.z))
    for a in every_morphism(cat, ts.x, t.x):
        fa, ta_h = compose(t.f, a), compose(per_basis_apply(shift, a), ts.h)
        for b in every_morphism(cat, ts.y, t.y):
            if not fa.equal(compose(b, ts.f)):
                continue
            gb = compose(t.g, b)
            for c in cs:
                if gb.equal(compose(c, ts.g)) and compose(t.h, c).equal(ta_h) \
                        and all(morphism_inverse(u) is not None for u in (a, b, c)):
                    return a, b, c
    return None


def candidate_combos(tri, objs):
    """Multisets of atoms whose leading len(objs) vertices, summed, have the
    vertex multisets of objs: a recursion over every atom, with no memo."""
    atoms = tri.atoms()
    k = len(objs)
    results = []

    def fits(small, big):
        return all(big.get(g, 0) >= v for g, v in small.items())

    def rec(idx, rems, chosen):
        if not any(rems):
            results.append(list(chosen))
            return
        if idx == len(atoms):
            return
        a = atoms[idx]
        counts = [Counter(v) for v in a.vertices()[:k]]
        copies = 0
        rest = [dict(r) for r in rems]
        while True:
            rec(idx + 1, rest, chosen + [a] * copies)
            if any(counts) and all(fits(c, r) for c, r in zip(counts, rest)):
                for c, r in zip(counts, rest):
                    for g, v in c.items():
                        r[g] -= v
                        if r[g] == 0:
                            del r[g]
                copies += 1
            else:
                break

    rec(0, [dict(Counter(o)) for o in objs], [])
    return results


# -- quiver representations: every map, enumerated ---------------------------

def intertwines(src, tgt, mats):
    """Whether the vertex matrices mats satisfy phi_t A = B phi_s on every
    arrow (s, t) with matrix A in src and B in tgt."""
    return all(mats[t].mul(a) == b.mul(mats[s])
               for (s, t, a), (_, _, b) in zip(src.arrows, tgt.arrows))


def brute_force_rep_maps(src, tgt, p):
    """Every tuple of vertex matrices src -> tgt over GF(p) that intertwines
    the arrows.  All p^(sum of dim_t * dim_s) tuples are tried, so keep that
    small."""
    F = src.field
    shapes = list(zip(tgt.dims, src.dims))
    found = []
    for entries in itertools.product(range(p), repeat=sum(r * c for r, c in shapes)):
        mats, at = [], 0
        for r, c in shapes:
            mats.append(Mat(F, r, c, [entries[at + i * c:at + (i + 1) * c] for i in range(r)]))
            at += r * c
        if intertwines(src, tgt, mats):
            found.append(tuple(mats))
    return found


# -- the workspace tokenizer, one character at a time --

def reference_tokenize(text):
    """The (kind, value, line, col) list of the workspace tokens of text,
    ending in ("eof", "", line, col); InputError at the first character no
    token starts with.  Comments are not counted in the column."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}()+*":
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and (text[i].isdigit() or text[i] == "/"):
                i += 1
            tokens.append(("number", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "._"):
                i += 1
            tokens.append(("ident", text[start:i], line, col))
            col += i - start
            continue
        raise InputError([Diagnostic(line, col, "unexpected character %r" % ch)])
    tokens.append(("eof", "", line, col))
    return tokens
