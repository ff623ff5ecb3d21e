"""Exact dense linear algebra over a field object.

Everything here is deterministic: reduced row echelon form is the canonical
form for matrices and stored subspaces, so equal subspaces compare equal as
data.  Dimensions are desk scale; no attempt at sparsity.

`invertible_point` decides whether square matrices that depend linearly on
n unknowns are invertible together at some point; the triangle-isomorphism
search and the fixture generator's module isomorphism call it.
"""

from __future__ import annotations

import itertools


class Mat:
    """Immutable-by-convention dense matrix over a field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        data = tuple(map(tuple, data))
        if len(data) != rows or rows and set(map(len, data)) != {cols}:
            raise ValueError("shape mismatch: %dx%d vs data" % (rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, field, data):
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if data else 0
        return cls(field, rows, cols, data)

    @classmethod
    def from_columns(cls, field, rows: int, columns):
        """Matrix whose j-th column is columns[j]; rows is given so that a
        matrix without columns keeps its height."""
        columns = list(columns)
        return cls(field, rows, len(columns), [[c[r] for c in columns] for r in range(rows)])

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, ((field.zero,) * cols,) * rows)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, field, vec):
        return cls(field, len(vec), 1, [[x] for x in vec])

    def col(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def mul(self, other: "Mat") -> "Mat":
        """Matrix product; zero entries of either factor are skipped."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        F = self.field
        add, mul = F.add, F.mul
        odata = other.data
        out = []
        for row in self.data:
            acc = [F.zero] * other.cols
            for k, a in enumerate(row):
                if a:
                    for j, b in enumerate(odata[k]):
                        if b:
                            acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return Mat(F, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times coordinate vector (tuple in, tuple out); zero
        coordinates are skipped."""
        if len(vec) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(vec), self.cols))
        F = self.field
        add, mul = F.add, F.mul
        out = [F.zero] * self.rows
        data = self.data
        for k, x in enumerate(vec):
            if x:
                for i in range(self.rows):
                    a = data[i][k]
                    if a:
                        out[i] = add(out[i], mul(a, x))
        return tuple(out)

    def add(self, other: "Mat") -> "Mat":
        F = self.field
        return Mat(F, self.rows, self.cols,
                   [[F.add(a, b) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)])

    def scale(self, c) -> "Mat":
        F = self.field
        return Mat(F, self.rows, self.cols, [[F.mul(c, x) for x in r] for r in self.data])

    def neg(self) -> "Mat":
        return self.scale(self.field.neg(self.field.one))

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Mat(self.field, self.rows, self.cols + other.cols,
                   [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Mat(self.field, self.rows + other.rows, self.cols, self.data + other.data)

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(x) for r in self.data for x in r)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in r) for r in self.data)
        return "Mat(%dx%d: %s)" % (self.rows, self.cols, body)


def rref(m: Mat):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    F = m.field
    rows = [list(r) for r in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = None
        for i in range(r, m.rows):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Mat(F, m.rows, m.cols, rows), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1]) if m.rows and m.cols else 0


def solve(a: Mat, b: Mat):
    """Solve a @ x = b; returns the canonical echelon particular solution or None.

    Free variables are set to zero, so the answer is deterministic.
    """
    if a.rows != b.rows:
        raise ValueError("solve: a has %d rows, b has %d" % (a.rows, b.rows))
    F = a.field
    aug, pivots = rref(a.hstack(b))
    for c in pivots:
        if c >= a.cols:
            return None
    piv_rows = {c: i for i, c in enumerate(pivots)}
    out = []
    for j in range(b.cols):
        col = [F.zero] * a.cols
        for c, i in piv_rows.items():
            col[c] = aug.data[i][a.cols + j]
        out.append(col)
    return Mat(F, a.cols, b.cols, [[out[j][i] for j in range(b.cols)] for i in range(a.cols)])


def nullspace(a: Mat):
    """Canonical nullspace basis (one vector per free column)."""
    F = a.field
    R, pivots = rref(a)
    piv_set = set(pivots)
    piv_rows = {c: i for i, c in enumerate(pivots)}
    basis = []
    for free in range(a.cols):
        if free in piv_set:
            continue
        v = [F.zero] * a.cols
        v[free] = F.one
        for c, i in piv_rows.items():
            v[c] = F.neg(R.data[i][free])
        basis.append(tuple(v))
    return basis


class SubspaceBasis:
    """A subspace of k^n stored by its canonical reduced echelon basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient: int, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors):
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length %d in ambient %d" % (len(v), ambient))
        if not vectors:
            return cls(field, ambient, (), ())
        R, pivots = rref(Mat.from_rows(field, vectors))
        rows = [R.data[i] for i in range(len(pivots))]
        return cls(field, ambient, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Canonical coset representative of vec modulo this subspace."""
        F = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not F.is_zero(c):
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains_vector(self, vec) -> bool:
        F = self.field
        return all(F.is_zero(x) for x in self.reduce(vec))

    def complement_coords(self):
        """Indices of the canonical complementary coordinate subspace."""
        piv = set(self.pivots)
        return tuple(i for i in range(self.ambient) if i not in piv)

    def coset_coords(self, vec):
        """Coordinates of vec + W in the canonical complement basis."""
        red = self.reduce(vec)
        return tuple(red[i] for i in self.complement_coords())

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis) and self.field == other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def __repr__(self):
        return "SubspaceBasis(dim %d in k^%d)" % (self.dim, self.ambient)


def difference_rows(field, total: int, constraints):
    """Rows of the homogeneous system P u - Q v = 0 over a stacked unknown
    vector of length total.  Each constraint is (P, u_offset, Q, v_offset):
    the blocks u and v start at those offsets and may coincide."""
    rows = []
    for p_mat, p_off, q_mat, q_off in constraints:
        for r in range(p_mat.rows):
            row = [field.zero] * total
            for c in range(p_mat.cols):
                row[p_off + c] = field.add(row[p_off + c], p_mat.data[r][c])
            for c in range(q_mat.cols):
                row[q_off + c] = field.sub(row[q_off + c], q_mat.data[r][c])
            rows.append(row)
    return rows


def invertible_point(F, n, blocks):
    """A point of k^n at which every block is invertible, or None when there
    is none.  Each block is a square matrix whose entries are linear forms
    in n variables, each given by its n coefficients; blocks may be a lazy
    iterable, which is read no further than the first block whose
    determinant vanishes identically.

    None is returned only with a proof: a block that is not square, a
    determinant that is identically zero, or, over GF(p) with p at most the
    total degree, no point of GF(p)^n.  Expanding a block of size s costs
    2^s memoised minors."""
    factors = []
    for block in blocks:
        if any(len(row) != len(block) for row in block):
            return None
        det = _determinant(F, n, [[_linear_form(F, n, e) for e in row] for row in block])
        if not det:
            return None
        factors.append(det)
    return _nonvanishing_point(F, n, factors)


def span_point(F, coeffs, basis):
    """The vector sum(coeffs[i] * basis[i]), such as the point of the span
    of basis at the coefficients `invertible_point` found; () when basis is
    empty."""
    vec = [F.zero] * len(basis[0]) if basis else ()
    for c, b in zip(coeffs, basis):
        vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, b)]
    return tuple(vec)


# Polynomials in n variables are dicts {exponent tuple: nonzero coefficient}.

def _linear_form(F, n, coeffs):
    return {tuple(int(k == v) for k in range(n)): c
            for v, c in enumerate(coeffs) if not F.is_zero(c)}


def _poly_add(F, p, q, sign):
    out = dict(p)
    for e, c in q.items():
        out[e] = F.add(out.get(e, F.zero), F.mul(sign, c))
    return {e: c for e, c in out.items() if not F.is_zero(c)}


def _poly_mul(F, p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = F.add(out.get(e, F.zero), F.mul(c1, c2))
    return {e: c for e, c in out.items() if not F.is_zero(c)}


def _determinant(F, n, block):
    """Laplace expansion along the rows; minors are memoised by the set of
    columns already used."""
    size = len(block)
    memo = {}

    def minor(used):
        r = bin(used).count("1")
        if r == size:
            return {(0,) * n: F.one}
        if used not in memo:
            acc, sign = {}, F.one
            for j in range(size):
                if not used >> j & 1:
                    acc = _poly_add(F, acc, _poly_mul(F, block[r][j], minor(used | 1 << j)), sign)
                    sign = F.neg(sign)
            memo[used] = acc
        return memo[used]

    return minor(0)


def _power(F, c, e):
    out = F.one
    for _ in range(e):
        out = F.mul(out, c)
    return out


def _substitute(F, poly, k, c):
    """poly with variable k set to c."""
    out = {}
    for e, coef in poly.items():
        e2 = e[:k] + (0,) + e[k + 1:]
        out[e2] = F.add(out.get(e2, F.zero), F.mul(coef, _power(F, c, e[k])))
    return {e: v for e, v in out.items() if not F.is_zero(v)}


def _nonvanishing_point(F, n, factors):
    """A point of k^n at which no factor vanishes, or None when there is
    none, by the grid lemma (Schwartz-Zippel, DeMillo-Lipton): with D the
    sum of the degrees, each variable in turn takes the first value in
    {0..D} that leaves every factor nonzero, and at most D values fail.
    Over GF(p) with p <= D those values are not distinct, and GF(p)^n is
    searched instead."""
    def nonvanishing(point):
        return not any(F.is_zero(_evaluate(F, f, point)) for f in factors)

    degree = sum(max(sum(e) for e in f) for f in factors)
    if F.characteristic and F.characteristic <= degree:
        for point in itertools.product(range(F.characteristic), repeat=n):
            if nonvanishing(point):
                return point
        return None
    point = []
    for k in range(n):
        for c in map(F.of_int, range(degree + 1)):
            fixed = [_substitute(F, f, k, c) for f in factors]
            if all(fixed):
                factors = fixed
                point.append(c)
                break
    return tuple(point)


def _evaluate(F, poly, point):
    acc = F.zero
    for e, c in poly.items():
        for x, k in zip(point, e):
            c = F.mul(c, _power(F, x, k))
        acc = F.add(acc, c)
    return acc
