"""Independent brute-force oracles shared by the test modules."""

import itertools

from rclkit.category import ObjectExpr, compose, hom_dim_expr, morphism_inverse, unflatten
from rclkit.linalg import SubspaceBasis


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
