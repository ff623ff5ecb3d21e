"""Finite presentations of additive k-linear categories.

A category is presented by a finite list of generator objects (intended to be
the pairwise non-isomorphic indecomposables), a chosen basis for every Hom
space between generators, structure constants for the bilinear composition,
and the coordinates of each identity.  An object is a direct sum of
generators, held as the plain tuple of their names in summand order: () is
the zero object, and `obj_text` gives the text form.  A morphism between sums
is the flat vector of its Hom coordinates, block by block in `block_offsets`
order.  `_composition_blocks` alone lays the composition law out over the
blocks of three sums, and `compose`, `postcompose_mat`, `precompose_mat` and
`ideal_subspace` read it through that walk; `comp_vec` reads one constant.

Each category keeps two tables that it fixes once: its residue data
(`residue_data`, built on first use), and its layout table, which
`block_offsets` and `hom_dim_expr` fill per pair of objects and
`_composition_blocks` per triple, with tuples, on first use.  Both die with
the category; a quotient or restricted presentation has its own.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import PresentationError, UndecidedError
from .linalg import Mat, SubspaceBasis, difference_rows, nullspace, solve
from .report import Report


def obj_text(obj) -> str:
    """The text form of an object: its summands joined by "+", or "0"."""
    return "+".join(obj) or "0"


class FinLinCategory:
    """Presentation of an additive k-linear category on generator objects."""

    def __init__(self, field, generators, hom_bases, comp, identities, name: str = ""):
        self.field = field
        self.generators = tuple(generators)
        self.name = name
        self.hom_bases = {}
        for (a, b), names in hom_bases.items():
            if names:
                self.hom_bases[(a, b)] = tuple(names)
        self._dims = {key: len(names) for key, names in self.hom_bases.items()}
        # comp[(a, b, c)][p][q] = coords in Hom(a,c) of (p-th basis of Hom(b,c)) o (q-th of Hom(a,b))
        self.comp = {}
        for key, table in comp.items():
            self.comp[key] = tuple(tuple(tuple(vec) for vec in row) for row in table)
        self.identities = {g: tuple(v) for g, v in identities.items()}
        self._residues = None
        # (a, b) -> `block_offsets`, (a, b, c) -> `_composition_blocks`
        self._layouts = {}
        gen_set = set(self.generators)
        if len(gen_set) != len(self.generators):
            raise PresentationError("duplicate generator names in %r" % (name,))
        for (a, b) in self.hom_bases:
            if a not in gen_set or b not in gen_set:
                raise PresentationError("hom pair (%s,%s) uses unknown generator" % (a, b))
        for g in self.generators:
            if self.hom_dim(g, g) == 0:
                raise PresentationError("generator %s has zero-dimensional End" % (g,))
            if g not in self.identities or len(self.identities[g]) != self.hom_dim(g, g):
                raise PresentationError("generator %s lacks identity coordinates" % (g,))

    def residue_data(self):
        """`residue_forms` of this presentation, computed once."""
        if self._residues is None:
            self._residues = residue_forms(self)
        return self._residues

    def residues(self):
        """The Krull-Schmidt premise of the triangle search: (forms, None)
        when every End(g) is local with residue field k and the generators
        are pairwise non-isomorphic, else (None, reason) naming the first
        part that fails."""
        forms, reasons, classes = self.residue_data()
        if reasons:
            return None, next(iter(reasons.values()))
        for cls in classes.values():
            if len(cls) > 1:
                return None, "a composite %s -> %s -> %s has nonzero residue" % (
                    cls[0], cls[1], cls[0])
        return forms, None

    def hom_dim(self, a: str, b: str) -> int:
        return self._dims.get((a, b), 0)

    def basis_names(self, a: str, b: str):
        return self.hom_bases.get((a, b), ())

    def comp_vec(self, a: str, b: str, c: str, p: int, q: int):
        """Coordinates of (p-th basis of Hom(b,c)) o (q-th basis of Hom(a,b))."""
        table = self.comp.get((a, b, c))
        dim_ac = self.hom_dim(a, c)
        if table is None:
            return (self.field.zero,) * dim_ac
        return table[p][q]

    def obj(self, *gens) -> tuple:
        known = set(self.generators)
        for g in gens:
            if g not in known:
                raise PresentationError("unknown generator %r" % (g,))
        return gens

    def __repr__(self):
        return "FinLinCategory(%s: %s)" % (self.name or "?", ",".join(self.generators))


class Subcategory:
    """Additively closed full subcategory, recorded by its member generators.
    Compared by identity, as categories are."""

    def __init__(self, parent: FinLinCategory, members):
        members = set(members)
        unknown = members - set(parent.generators)
        if unknown:
            raise PresentationError("subcategory members not in parent: %s" % sorted(unknown))
        self.parent = parent
        # Keep parent generator order for determinism.
        self.members = tuple(g for g in parent.generators if g in members)

    def member_set(self):
        return set(self.members)

    def __repr__(self):
        return "Subcategory{%s}" % (",".join(self.members) or "")


class Morphism:
    """A morphism between two formal sums, as its Hom coordinates.

    coords is one tuple in `block_offsets` order: for each target summand
    t (outer) and each source summand s (inner), the coordinates of the
    component s -> t in the chosen basis of Hom(s, t).
    """

    __slots__ = ("cat", "source", "target", "coords")

    def __init__(self, cat: FinLinCategory, source: tuple, target: tuple, coords):
        coords = tuple(coords)
        size = hom_dim_expr(cat, source, target)
        if len(coords) != size:
            raise PresentationError("morphism %s -> %s has %d coords, expected %d"
                                    % (obj_text(source), obj_text(target), len(coords), size))
        self.cat = cat
        self.source = source
        self.target = target
        self.coords = coords

    @classmethod
    def zero(cls, cat, source: tuple, target: tuple):
        return cls(cat, source, target, (cat.field.zero,) * hom_dim_expr(cat, source, target))

    @classmethod
    def identity(cls, cat, obj: tuple):
        offsets, size = block_offsets(cat, obj, obj)
        coords = [cat.field.zero] * size
        for i, g in enumerate(obj):
            one = cat.identities[g]
            coords[offsets[i][i]:offsets[i][i] + len(one)] = one
        return cls(cat, obj, obj, coords)

    def add(self, other: "Morphism") -> "Morphism":
        return Morphism(self.cat, self.source, self.target,
                        map(self.cat.field.add, self.coords, other.coords))

    def scale(self, c) -> "Morphism":
        mul = self.cat.field.mul
        return Morphism(self.cat, self.source, self.target, [mul(c, x) for x in self.coords])

    def is_zero(self) -> bool:
        return all(map(self.cat.field.is_zero, self.coords))

    def equal(self, other: "Morphism") -> bool:
        return (self.cat is other.cat
                and self.source == other.source
                and self.target == other.target
                and self.coords == other.coords)

    def __repr__(self):
        return "Morphism(%s -> %s)" % (obj_text(self.source), obj_text(self.target))


def hom_dim_expr(cat: FinLinCategory, a: tuple, b: tuple) -> int:
    """dim Hom(a, b), the size that `block_offsets` lays out."""
    layout = cat._layouts.get((a, b))
    if layout is None:
        layout = block_offsets(cat, a, b)
    return layout[1]


def block_offsets(cat: FinLinCategory, a: tuple, b: tuple):
    """(offsets, dimension) of Hom(a, b): offsets[i][j] is where block (i, j),
    Hom(a[j], b[i]), starts in the flat coordinates.  Laid out once per
    pair and kept in the category's layout table."""
    key = (a, b)
    layout = cat._layouts.get(key)
    if layout is None:
        dims = cat._dims
        offsets, pos = [], 0
        for t in b:
            row = []
            for s in a:
                row.append(pos)
                pos += dims.get((s, t), 0)
            offsets.append(tuple(row))
        layout = cat._layouts[key] = (tuple(offsets), pos)
    return layout


def _composition_blocks(cat: FinLinCategory, a: tuple, b: tuple, c: tuple):
    """The layout of composition Hom(b, c) x Hom(a, b) -> Hom(a, c), as
    (terms, dim Hom(a, c), dim Hom(b, c), dim Hom(a, b)): one term
    (table, r0, g0, f0) per block triple (i, m, j) with structure constants,
    table = comp[(a_j, b_m, c_i)], and r0, g0, f0 where blocks (i, j) of
    Hom(a, c), (i, m) of Hom(b, c) and (m, j) of Hom(a, b) start.  Laid out
    once per triple and kept in the category's layout table."""
    key = (a, b, c)
    layout = cat._layouts.get(key)
    if layout is not None:
        return layout
    comp, dims = cat.comp, cat._dims
    f_offs, fpos = [], 0
    for t in b:
        f_offs.append((t, fpos))
        for s in a:
            fpos += dims.get((s, t), 0)
    terms, rpos, gpos = [], 0, 0
    for ci in c:
        for t, f0 in f_offs:
            r0 = rpos
            for s in a:
                table = comp.get((s, t, ci))
                if table:
                    terms.append((table, r0, gpos, f0))
                f0 += dims.get((s, t), 0)
                r0 += dims.get((s, ci), 0)
            gpos += dims.get((t, ci), 0)
        for s in a:
            rpos += dims.get((s, ci), 0)
    layout = cat._layouts[key] = (tuple(terms), rpos, gpos, fpos)
    return layout


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Composition g o f via the structure constants (apply f first): each
    term of the walk adds g[g0+p] f[f0+q] table[p][q] into the rows from r0."""
    if g.cat is not f.cat:
        raise PresentationError("composition across different categories")
    if f.target != g.source:
        raise PresentationError("boundary mismatch: %r then %r" % (f, g))
    F = f.cat.field
    add, mul = F.add, F.mul
    terms, rows, _, _ = _composition_blocks(f.cat, f.source, f.target, g.target)
    out = [F.zero] * rows
    for table, r0, g0, f0 in terms:
        fvec = f.coords[f0:f0 + len(table[0])]
        for gc, trow in zip(g.coords[g0:g0 + len(table)], table):
            if not gc:
                continue
            for fc, cv in zip(fvec, trow):
                if not fc:
                    continue
                coef = mul(gc, fc)
                for r, x in enumerate(cv, r0):
                    if x:
                        out[r] = add(out[r], mul(coef, x))
    return Morphism(f.cat, f.source, g.target, out)


def hom_basis(cat: FinLinCategory, a: tuple, b: tuple):
    """The basis morphisms of Hom(a, b), in flat coordinate order."""
    F = cat.field
    n = hom_dim_expr(cat, a, b)
    for i in range(n):
        coords = [F.zero] * n
        coords[i] = F.one
        yield Morphism(cat, a, b, coords)


def postcompose_mat(g: Morphism, a: tuple) -> Mat:
    """Matrix of Hom(a, g.source) -> Hom(a, g.target), h |-> g o h: each
    term of the walk adds g[g0+p] table[p][q] into column f0 + q."""
    F = g.cat.field
    add, mul = F.add, F.mul
    terms, rows, _, cols = _composition_blocks(g.cat, a, g.source, g.target)
    data = [[F.zero] * cols for _ in range(rows)]
    for table, r0, g0, f0 in terms:
        for gc, trow in zip(g.coords[g0:g0 + len(table)], table):
            if not gc:
                continue
            for q, cv in enumerate(trow, f0):
                for r, x in enumerate(cv, r0):
                    if x:
                        out = data[r]
                        out[q] = add(out[q], mul(gc, x))
    return Mat(F, rows, cols, data)


def precompose_mat(f: Morphism, b: tuple) -> Mat:
    """Matrix of Hom(f.target, b) -> Hom(f.source, b), h |-> h o f: each
    term of the walk adds f[f0+q] table[p][q] into column g0 + p."""
    F = f.cat.field
    add, mul = F.add, F.mul
    terms, rows, cols, _ = _composition_blocks(f.cat, f.source, f.target, b)
    data = [[F.zero] * cols for _ in range(rows)]
    for table, r0, g0, f0 in terms:
        fvec = f.coords[f0:f0 + len(table[0])]
        for p, trow in enumerate(table, g0):
            for fc, cv in zip(fvec, trow):
                if not fc:
                    continue
                for r, x in enumerate(cv, r0):
                    if x:
                        out = data[r]
                        out[p] = add(out[p], mul(fc, x))
    return Mat(F, rows, cols, data)


def commuting_space(cat: FinLinCategory, spaces, constraints):
    """The tuples (u_0, ..., u_{n-1}), u_i in Hom(*spaces[i]), with
    P u_i = Q u_j for each constraint (P, i, Q, j), where P and Q are
    matrices of linear maps on those Hom spaces, as (basis, split): the
    canonical nullspace basis of the unknowns stacked in the given order,
    and split, which cuts a stacked vector, or () for zero, into the tuple
    of morphisms."""
    F = cat.field
    dims = [hom_dim_expr(cat, s, t) for s, t in spaces]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    total = sum(dims)

    def split(vec):
        if not vec:
            vec = [F.zero] * total
        return tuple(Morphism(cat, s, t, vec[o:o + d])
                     for (s, t), o, d in zip(spaces, offsets, dims))

    if total == 0:
        return [], split
    rows = difference_rows(F, total, [(p, offsets[i], q, offsets[j])
                                      for p, i, q, j in constraints])
    return nullspace(Mat(F, len(rows), total, rows)), split


def morphism_inverse(m: Morphism):
    """Two-sided inverse of a morphism, or None (linear solve)."""
    cat = m.cat
    post = postcompose_mat(m, m.target)  # Hom(target, source) -> End(target)
    want = Morphism.identity(cat, m.target).coords
    sol = solve(post, Mat.column(cat.field, want))
    if sol is None:
        return None
    inv = Morphism(cat, m.target, m.source, sol.col(0))
    if not compose(inv, m).equal(Morphism.identity(cat, m.source)):
        return None
    if not compose(m, inv).equal(Morphism.identity(cat, m.target)):
        return None
    return inv


def block_diagonal(cat: FinLinCategory, parts) -> Morphism:
    """Block-diagonal morphism with the given morphisms on the diagonal; its
    source and target are the concatenations of theirs."""
    src = tuple(s for p in parts for s in p.source)
    tgt = tuple(t for p in parts for t in p.target)
    offsets, size = block_offsets(cat, src, tgt)
    coords = [cat.field.zero] * size
    soff = toff = 0
    for p in parts:
        pos = 0
        for li, t in enumerate(p.target):
            for lj, s in enumerate(p.source):
                start, d = offsets[toff + li][soff + lj], cat.hom_dim(s, t)
                coords[start:start + d] = p.coords[pos:pos + d]
                pos += d
        soff += len(p.source)
        toff += len(p.target)
    return Morphism(cat, src, tgt, coords)


def _residue_of(mat: Mat):
    """The lambda with mat - lambda nilpotent, assuming there is one: the
    trace over the size when the size is nonzero in the field, else found
    by trying every lambda in GF(p); None when no lambda works."""
    F, n = mat.field, mat.rows
    if F.characteristic == 0 or n % F.characteristic:
        trace = F.zero
        for i in range(n):
            trace = F.add(trace, mat.data[i][i])
        return F.div(trace, F.of_int(n))
    ident = Mat.identity(F, n)
    for lam in range(F.characteristic):
        shifted = mat.add(ident.scale(F.neg(lam)))
        power = shifted
        for _ in range(n - 1):
            power = power.mul(shifted)
        if power.is_zero():
            return lam
    return None


def _residue_form(cat: FinLinCategory, g: str):
    """(phi, None) when End(g) is local with residue field k, phi listing
    phi_g(b) for the basis elements b of End(g); else (None, reason).

    If End(g) is local with residue field k, left multiplication L_b has the
    single eigenvalue phi_g(b), which `_residue_of` reads off; the candidate
    phi_g is then checked: phi_g(1) = 1, phi_g is multiplicative and
    ker phi_g is a nilpotent ideal."""
    F = cat.field
    n = cat.hom_dim(g, g)
    obj = (g,)
    left = [postcompose_mat(u, obj) for u in hom_basis(cat, obj, obj)]
    phi = tuple(_residue_of(mat) for mat in left)
    if None in phi:
        return None, "End(%s) has an element with no eigenvalue in %r" % (g, F)
    if not _same(F, residue(F, phi, cat.identities[g]), F.one) or any(
            not _same(F, residue(F, phi, cat.comp_vec(g, g, g, u, v)),
                      F.mul(phi[u], phi[v]))
            for u in range(n) for v in range(n)):
        return None, "End(%s) has no algebra map onto %r" % (g, F)
    kernel = nullspace(Mat(F, 1, n, [phi]))
    power = kernel
    for _ in range(n):
        if not power:
            break
        power = SubspaceBasis.from_vectors(F, n, [
            compose(Morphism(cat, obj, obj, u), Morphism(cat, obj, obj, v)).coords
            for u in power for v in kernel]).rows
    if power:
        return None, "End(%s) is not local: its residue kernel is not nilpotent" % g
    return phi, None


def residue_forms(cat: FinLinCategory):
    """Decide the Krull-Schmidt premise generator by generator, exactly and
    in any characteristic.  Returns (forms, reasons, classes): forms[g] is
    `_residue_form`'s phi_g for each g whose End(g) is local with residue
    field k, reasons[g] says why not for every other g, and classes[g] is
    the tuple, in generator order, of the local generators isomorphic to g.

    Local generators g and h are isomorphic exactly when
    phi_g(f' o f) != 0 for some basis pair f: g -> h, f': h -> g: then
    f' o f is invertible, so f (f' o f)^-1 f' is a nonzero idempotent of the
    local ring End(h), hence 1, and f is invertible.  Under the premise
    (every End(g) local, no two generators isomorphic) a morphism between
    sums is invertible exactly when, for each generator g, its matrix of
    residues of g -> g blocks is square and invertible."""
    F = cat.field
    forms, reasons = {}, {}
    for g in cat.generators:
        phi, reason = _residue_form(cat, g)
        if phi is None:
            reasons[g] = reason
        else:
            forms[g] = phi
    groups = []
    for h in forms:
        for group in groups:
            g = group[0]
            if any(not F.is_zero(residue(F, forms[g], cat.comp_vec(g, h, g, p, q)))
                   for p in range(cat.hom_dim(h, g)) for q in range(cat.hom_dim(g, h))):
                group.append(h)
                break
        else:
            groups.append([h])
    classes = {}
    for group in groups:
        for g in group:
            classes[g] = tuple(group)
    return forms, reasons, classes


def residue(field, form, coords):
    """The residue sum(form[q] * coords[q]) of an endomorphism of a generator."""
    acc = field.zero
    for c, x in zip(form, coords):
        acc = field.add(acc, field.mul(c, x))
    return acc


def _same(field, a, b) -> bool:
    return field.is_zero(field.sub(a, b))


def validate_category(cat: FinLinCategory) -> Report:
    """Identity laws, associativity and locality of the End rings.  With
    P_x(a), Q_x(b) composition with x on Hom(a, -), Hom(-, b), the first two
    are P_{1_b}(a) = Q_{1_a}(b) = I and P_h(a) P_g(a) = P_{h o g}(a) on
    Hom(a, b) for basis g: b -> c, h: c -> d, with P_{h o g}(a) the sum of
    the P_k(a), k in Hom(b, d), weighted by the structure constants."""
    rep = Report()
    gens = cat.generators
    objs = {g: (g,) for g in gens}

    ones = {g: Morphism.identity(cat, objs[g]) for g in gens}
    for a, b in itertools.product(gens, repeat=2):
        if not cat.hom_dim(a, b):
            continue
        ident = Mat.identity(cat.field, cat.hom_dim(a, b))
        right = precompose_mat(ones[a], objs[b])
        left = postcompose_mat(ones[b], objs[a])
        if right == ident == left:
            continue
        for q, name in enumerate(cat.basis_names(a, b)):
            if right.col(q) != ident.col(q):
                rep.fail("identity.right", "%s o 1_%s != %s" % (name, a, name))
            if left.col(q) != ident.col(q):
                rep.fail("identity.left", "1_%s o %s != %s" % (b, name, name))
    rep.close("identity")

    one = cat.field.one
    for a in gens:
        ends = [b for b in gens if cat.hom_dim(a, b)]
        reach = {c for b in ends for c in gens if cat.hom_dim(b, c)}  # holds ends: 1_b != 0
        post = {(b, c): [postcompose_mat(x, objs[a]) for x in hom_basis(cat, objs[b], objs[c])]
                for b in reach for c in gens}
        for b, c, d in itertools.product(ends, gens, gens):
            for q2, pg in enumerate(post[(b, c)]):
                for q3, ph in enumerate(post[(c, d)]):
                    lhs = ph.mul(pg)
                    rhs = None
                    for x, pk in zip(cat.comp_vec(b, c, d, q3, q2), post[(b, d)]):
                        if x:
                            term = pk if x == one else pk.scale(x)
                            rhs = term if rhs is None else rhs.add(term)
                    if lhs.is_zero() if rhs is None else lhs == rhs:
                        continue
                    if rhs is None:
                        rhs = Mat.zeros(cat.field, lhs.rows, lhs.cols)
                    for q1 in range(lhs.cols):
                        if lhs.col(q1) != rhs.col(q1):
                            rep.fail("associativity", "witness (%s in Hom(%s,%s), "
                                     "%s in Hom(%s,%s), %s in Hom(%s,%s))" % (
                                         cat.basis_names(a, b)[q1], a, b,
                                         cat.basis_names(b, c)[q2], b, c,
                                         cat.basis_names(c, d)[q3], c, d))
    rep.close("associativity")

    _, reasons, _ = cat.residue_data()
    for reason in reasons.values():
        rep.fail("locality", reason)
    rep.close("locality")
    return rep


def iso_class(cat: FinLinCategory, g: str):
    """The generators isomorphic to g, g among them, in generator order;
    UndecidedError when End(g) is not local with residue field k."""
    _, reasons, classes = cat.residue_data()
    if g in reasons:
        raise UndecidedError("isomorphism class of %s undecided: %s" % (g, reasons[g]))
    return classes[g]


def is_isomorphic(cat: FinLinCategory, a: tuple, b: tuple) -> bool:
    """Decide a ~ b by Krull-Schmidt: equal multiplicities of generators,
    or else of their isomorphism classes.  UndecidedError when the
    generator multiplicities differ and a generator involved has no local
    End ring."""
    if Counter(a) == Counter(b):
        return True
    return (Counter(iso_class(cat, g) for g in a)
            == Counter(iso_class(cat, g) for g in b))


def ideal_subspace(cat: FinLinCategory, a: tuple, b: tuple, x: Subcategory) -> SubspaceBasis:
    """Span of all composites a -> X_i -> b over member generators X_i.

    Factorizations through sums reduce to sums of these, so member
    generators suffice, and by bilinearity so do composites of basis
    elements: the structure constants of each block of the walk
    a -> (X_i) -> b, placed at the block where they land.
    """
    F = cat.field
    vectors = []
    for m in x.members:
        terms, rows, _, _ = _composition_blocks(cat, a, (m,), b)
        for table, r0, _, _ in terms:
            for trow in table:
                for cv in trow:
                    vec = [F.zero] * rows
                    vec[r0:r0 + len(cv)] = cv
                    vectors.append(vec)
    return SubspaceBasis.from_vectors(F, hom_dim_expr(cat, a, b), vectors)


def restrict_category(cat: FinLinCategory, members, name: str = "") -> FinLinCategory:
    """Full subcategory presentation on a subset of the generators."""
    keep = [g for g in cat.generators if g in set(members)]
    keep_set = set(keep)
    hom_bases = {k: v for k, v in cat.hom_bases.items() if k[0] in keep_set and k[1] in keep_set}
    comp = {k: v for k, v in cat.comp.items()
            if k[0] in keep_set and k[1] in keep_set and k[2] in keep_set}
    identities = {g: cat.identities[g] for g in keep}
    return FinLinCategory(cat.field, keep, hom_bases, comp, identities,
                          name=name or (cat.name + "|"))


def morphism_in(cat: FinLinCategory, mor: Morphism) -> Morphism:
    """The same coordinate data read in another presentation (e.g. a full
    subcategory) sharing generator names and bases."""
    return Morphism(cat, mor.source, mor.target, mor.coords)
