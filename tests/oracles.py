"""Independent brute-force oracles shared by the test modules."""

import itertools

from rclkit.category import (Morphism, ObjectExpr, basis_morphisms, compose, hom_basis,
                             hom_dim_expr, morphism_inverse, unflatten)
from rclkit.linalg import Mat, SubspaceBasis
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


def brute_force_isomorphic(cat, g, h):
    """Whether some f: g -> h and f': h -> g satisfy f' o f = 1 and
    f o f' = 1.  Every pair of coordinate vectors over the prime field is
    tried, so keep p^(dim Hom(g, h) + dim Hom(h, g)) small."""
    F = cat.field
    src, tgt = ObjectExpr((g,)), ObjectExpr((h,))
    one_g, one_h = Morphism.identity(cat, src), Morphism.identity(cat, tgt)

    def every(a, b):
        for coeffs in itertools.product(range(F.characteristic), repeat=hom_dim_expr(cat, a, b)):
            yield unflatten(cat, a, b, [F.of_int(c) for c in coeffs])

    backs = list(every(tgt, src))
    return any(compose(back, f).equal(one_g) and compose(f, back).equal(one_h)
               for f in every(src, tgt) for back in backs)


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
