"""Independent brute-force oracles shared by the test modules."""

import itertools

from rclkit.adjunction import (_nat_solution_space, _unpack_components, make_adjunction,
                               validate_adjunction)
from rclkit.category import (Morphism, ObjectExpr, basis_morphisms, block_diagonal, compose,
                             hom_basis, hom_dim_expr, morphism_inverse, postcompose_mat,
                             precompose_mat, unflatten)
from rclkit.functor import compose_functors, identity_functor
from rclkit.linalg import Mat, SubspaceBasis, difference_rows, solve
from rclkit.report import Report


def brute_force_ideal(cat, a, b, members, max_mult=2):
    """Span of composites factoring through explicit direct sums of members
    with multiplicity up to max_mult (not just single generators)."""
    vectors = []
    mids = []
    for k in range(1, max_mult + 1):
        mids.extend(ObjectExpr(comb)
                    for comb in itertools.combinations_with_replacement(members, k))
    for mid in mids:
        d_in = hom_dim_expr(cat, a, mid)
        d_out = hom_dim_expr(cat, mid, b)
        for q in range(d_in):
            cin = [cat.field.zero] * d_in
            cin[q] = cat.field.one
            g = unflatten(cat, a, mid, cin)
            for p in range(d_out):
                cout = [cat.field.zero] * d_out
                cout[p] = cat.field.one
                h = unflatten(cat, mid, b, cout)
                vectors.append(compose(h, g).flatten())
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
        yield unflatten(cat, a, b, [F.of_int(c) for c in coeffs])


def brute_force_isomorphic(cat, g, h):
    """Whether some f: g -> h and f': h -> g satisfy f' o f = 1 and
    f o f' = 1.  Every pair of coordinate vectors over the prime field is
    tried, so keep p^(dim Hom(g, h) + dim Hom(h, g)) small."""
    src, tgt = ObjectExpr((g,)), ObjectExpr((h,))
    one_g, one_h = Morphism.identity(cat, src), Morphism.identity(cat, tgt)
    backs = list(every_morphism(cat, tgt, src))
    return any(compose(back, f).equal(one_g) and compose(f, back).equal(one_h)
               for f in every_morphism(cat, src, tgt) for back in backs)


# -- per-basis kernels: the Hom-action matrices, one basis element at a time --

def per_basis_compose(g, f):
    """g o f, one pair of basis coordinates at a time through comp_vec."""
    cat = f.cat
    F = cat.field
    blocks = []
    for i, c in enumerate(g.target.summands):
        row = []
        for j, a in enumerate(f.source.summands):
            acc = [F.zero] * cat.hom_dim(a, c)
            for m, b in enumerate(f.target.summands):
                for p, gc in enumerate(g.blocks[i][m]):
                    for q, fc in enumerate(f.blocks[m][j]):
                        cv = cat.comp_vec(a, b, c, p, q)
                        coef = F.mul(gc, fc)
                        acc = [F.add(x, F.mul(coef, y)) for x, y in zip(acc, cv)]
            row.append(tuple(acc))
        blocks.append(row)
    return Morphism(cat, f.source, g.target, blocks)


def per_basis_postcompose_mat(g, a):
    """Hom(a, g.source) -> Hom(a, g.target), h |-> g o h, column by column."""
    cat = g.cat
    return Mat.from_columns(cat.field, hom_dim_expr(cat, a, g.target),
                            [per_basis_compose(g, h).flatten()
                             for h in hom_basis(cat, a, g.source)])


def per_basis_precompose_mat(f, b):
    """Hom(f.target, b) -> Hom(f.source, b), h |-> h o f, column by column."""
    cat = f.cat
    return Mat.from_columns(cat.field, hom_dim_expr(cat, f.source, b),
                            [per_basis_compose(h, f).flatten()
                             for h in hom_basis(cat, f.target, b)])


def per_basis_apply(functor, mor):
    """functor(mor), block by block through the generator hom maps."""
    tgt = functor.target
    F = tgt.field
    src_img = functor.apply_obj(mor.source)
    tgt_img = functor.apply_obj(mor.target)
    soff, toff = [0], [0]
    for g in mor.source.summands:
        soff.append(soff[-1] + len(functor.object_map[g].summands))
    for h in mor.target.summands:
        toff.append(toff[-1] + len(functor.object_map[h].summands))
    blocks = [[(F.zero,) * tgt.hom_dim(s, t) for s in src_img.summands]
              for t in tgt_img.summands]
    for i, h in enumerate(mor.target.summands):
        for j, g in enumerate(mor.source.summands):
            vec = mor.blocks[i][j]
            if not vec:
                continue
            mat = functor.hom_maps[(g, h)]
            coords = [F.zero] * mat.rows
            for r in range(mat.rows):
                for q, x in enumerate(vec):
                    coords[r] = F.add(coords[r], F.mul(mat.data[r][q], x))
            local = unflatten(tgt, functor.object_map[g], functor.object_map[h], coords)
            for li, row in enumerate(local.blocks):
                for lj, v in enumerate(row):
                    blocks[toff[i] + li][soff[j] + lj] = v
    return Morphism(tgt, src_img, tgt_img, blocks)


def per_basis_compose_functors(outer, inner):
    """The hom maps of outer o inner, one basis morphism at a time."""
    hom_maps = {}
    for (g, h) in inner.hom_maps:
        src_img = outer.apply_obj(inner.object_map[g])
        tgt_img = outer.apply_obj(inner.object_map[h])
        hom_maps[(g, h)] = Mat.from_columns(
            outer.target.field, hom_dim_expr(outer.target, src_img, tgt_img),
            [per_basis_apply(outer, per_basis_apply(inner, f)).flatten()
             for f in hom_basis(inner.source, ObjectExpr(g), ObjectExpr(h))])
    return hom_maps


def per_basis_validate_nat(nt):
    """Naturality square by square, one basis morphism at a time."""
    rep = Report()
    src = nt.from_f.source
    ok = True
    for a, b, q, f in basis_morphisms(src):
        lhs = per_basis_compose(per_basis_apply(nt.to_f, f), nt.components[a])
        rhs = per_basis_compose(nt.components[b], per_basis_apply(nt.from_f, f))
        if lhs.flatten() != rhs.flatten():
            ok = False
            rep.fail("naturality", "at basis %s.%s of Hom(%s,%s)"
                     % (a, src.basis_names(a, b)[q], a, b))
    if ok:
        rep.ok("naturality")
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
                comp[(a, b, c)] = tuple(
                    tuple(q.reduce_coords(a, c, compose(q.lift_basis(b, c, p),
                                                        q.lift_basis(a, b, r)).flatten())
                          for r in range(da))
                    for p in range(db))
    return comp


# -- adjunctions: every natural family, each with the counit linear system --

def brute_force_adjoint(left, right):
    """A validated Adjunction (left, right), or None when there is none.
    Every natural family Id => right o left over the prime field is tried as
    the unit, and the counit for it is found by the reference linear system
    `solve_counit_given_unit`.  Keep p^(dimension of the natural families)
    small."""
    F = left.source.field
    rl = compose_functors(right, left)
    ida = identity_functor(left.source)
    basis, shape = _nat_solution_space(ida, rl)
    total = sum(d for _, _, d in shape)
    for coeffs in itertools.product(range(F.characteristic), repeat=len(basis)):
        vec = [F.zero] * total
        for c, b in zip(coeffs, basis):
            vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, b)]
        adj = solve_counit_given_unit(left, right, _unpack_components(ida, rl, shape, vec), "")
        if adj is not None:
            return adj
    return None


def _stacked_offsets(obj, offset):
    """Global unknown-vector offsets for the stacked component coordinates of
    the summands of obj, in order."""
    out = []
    for s in obj.summands:
        o, d = offset[s]
        for c in range(d):
            out.append(o + c)
    return out


def _counit_placement(lr, obj):
    """Matrix sending stacked per-summand counit coordinates to the flat
    coordinates of the block-diagonal morphism lr(obj) -> obj."""
    B = lr.source
    parts = [Morphism.zero(B, lr.object_map[s], ObjectExpr(s)) for s in obj.summands]
    cols = []
    for k, s in enumerate(obj.summands):
        for e in hom_basis(B, lr.object_map[s], ObjectExpr(s)):
            cols.append(block_diagonal(B, parts[:k] + [e] + parts[k + 1:]).flatten())
    return Mat.from_columns(B.field, hom_dim_expr(B, lr.apply_obj(obj), obj), cols)


def solve_counit_given_unit(left, right, unit_comps, name):
    """The counit for fixed unit components, from one linear system:
    naturality and both triangle identities are linear in the counit.  The
    result is validated; None when the system has no solution or the
    adjunction does not validate."""
    A, B = left.source, right.source
    F = B.field
    lr = compose_functors(left, right)
    shape = []
    total = 0
    for y in B.generators:
        d = hom_dim_expr(B, lr.object_map[y], ObjectExpr((y,)))
        shape.append((y, total, d))
        total += d
    offset = {y: (o, d) for (y, o, d) in shape}

    # Naturality: eps_b o lr(f) = f o eps_a for every basis f: a -> b in B.
    rows = difference_rows(F, total, [
        (precompose_mat(lr.apply(f), ObjectExpr(b)), offset[b][0],
         postcompose_mat(f, lr.object_map[a]), offset[a][0])
        for a, b, _, f in basis_morphisms(B)])
    rhs = [F.zero] * len(rows)

    # Triangle 1: counit at (L g) composed with L(unit_g) equals 1_{L g}.
    for g in A.generators:
        lg = left.object_map[g]
        pre = precompose_mat(left.apply(unit_comps[g]), lg)
        comp_mat = pre.mul(_counit_placement(lr, lg))
        stacked = _stacked_offsets(lg, offset)
        ident = Morphism.identity(B, lg).flatten()
        for r in range(comp_mat.rows):
            row = [F.zero] * total
            for col, glob in enumerate(stacked):
                row[glob] = F.add(row[glob], comp_mat.data[r][col])
            rows.append(row)
            rhs.append(ident[r])

    # Triangle 2: R(counit_y) composed with unit at (R y) equals 1_{R y}.
    for y in B.generators:
        ry = right.object_map[y]
        o, d = offset[y]
        eta_ry = block_diagonal(A, [unit_comps[g] for g in ry.summands])
        ident = Morphism.identity(A, ry).flatten()
        mat = precompose_mat(eta_ry, ry).mul(right.action(lr.object_map[y], ObjectExpr(y)))
        for r in range(len(ident)):
            row = [F.zero] * total
            row[o:o + d] = mat.data[r]
            rows.append(row)
            rhs.append(ident[r])

    if total == 0:
        sol_vec = ()
    else:
        sol = solve(Mat(F, len(rows), total, rows), Mat.column(F, rhs))
        if sol is None:
            return None
        sol_vec = sol.col(0)
    counit_comps = {y: unflatten(B, lr.object_map[y], ObjectExpr((y,)), sol_vec[o:o + d])
                    for (y, o, d) in shape}
    adj = make_adjunction(left, right, unit_comps, counit_comps, name=name)
    return adj if validate_adjunction(adj).ok_all else None


# -- the triangulated layer --------------------------------------------------

def _completes(m, t1, t2, a, b):
    """Whether the square (a, b) extends to c: Z1 -> Z2 with c o g1 = g2 o b
    and h2 o c = sigma(a) o h1, with the ladder matrix built one basis
    element at a time."""
    ladder = per_basis_precompose_mat(t1.qg, t2.qz.source).vstack(
        per_basis_postcompose_mat(t2.qz, t1.qg.target))
    rhs = compose(t2.qg, b).flatten() + compose(m.sigma.apply(a), t1.qz).flatten()
    return solve(ladder, Mat.column(ladder.field, rhs)) is not None


def brute_force_tr3(m, t1, t2):
    """(commuting, failing) for two registered standard triangles of a
    mutation pair over GF(p): the number of squares (a, b) with
    f2 o a = b o f1, found by trying every pair, and the list of those that
    do not complete.  Keep p^(dim Hom(X1, X2) + dim Hom(Y1, Y2)) small."""
    pres = m.quotient.presentation
    commuting, failing = 0, []
    bs = list(every_morphism(pres, t1.qy, t2.qy))
    for a in every_morphism(pres, t1.qx, t2.qx):
        fa = compose(t2.qf, a)
        for b in bs:
            if fa.equal(compose(b, t1.qf)):
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
        if src.summands == tgt.summands and not src.is_zero():
            out.append(Morphism.identity(pres, src))
        return out

    return all(_completes(m, t1, t2, a, b)
               for a in candidates(t1.qx, t2.qx) for b in candidates(t1.qy, t2.qy)
               if compose(t2.qf, a).equal(compose(b, t1.qf)))


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
        counts = [v.multiplicities() for v in a.vertices()[:k]]
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

    rec(0, [dict(o.multiplicities()) for o in objs], [])
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
