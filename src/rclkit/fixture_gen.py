"""Brute-force construction of the bundled fixtures.

Nothing in the shipped fixture files is transcribed by hand.  Every fixture
object is a quiver representation: the A2 objects represent the quiver
1 -> 2, mod k is the quiver with one vertex and no arrow, and the modules
over k[x]/(x^3) represent the one-loop quiver.  A morphism is a tuple of
matrices, one per vertex, and one solver, `_hom_basis`, enumerates the maps
between two representations as the canonical nullspace basis of their
intertwining equations.  One builder, `_Concrete`, evaluates composition and
identities on those bases; the stable category of k[x]/(x^3) reads its
coordinates modulo the maps factoring through the free module.  All functor,
adjunction, shift and triangle data is evaluated on the same bases, and the
recollements are registered from the slot tables of `recollement`.  Run as

    python -m rclkit.fixture_gen <output-directory>

to regenerate fix_a2.rcl, fix_stab3.rcl and fix_prod.rcl.
"""

from __future__ import annotations

import sys

from .adjunction import Adjunction
from .category import FinLinCategory, Morphism, Subcategory
from .field import QQ
from .functor import LinearFunctor, NatTransform, compose_functors, identity_functor
from .linalg import Mat, SubspaceBasis, invertible_point, nullspace, solve
from .mutation import ExactFunctorData, MutationData
from .recollement import ADJUNCTION_SLOTS, FUNCTOR_SLOTS, PARTS, Recollement
from .triangulated import Triangle, TriangulatedPresentation
from .workspace import Workspace, serialize


def _flat(*mats):
    """The entries of the matrices, each read row by row."""
    return tuple(x for m in mats for row in m.data for x in row)


def _coords_in(field, basis_flats, flat):
    """Coordinates of flat in the span of basis_flats (must exist)."""
    if not basis_flats:
        if any(not field.is_zero(x) for x in flat):
            raise ValueError("vector outside an empty basis")
        return ()
    sol = solve(Mat.from_columns(field, len(flat), basis_flats), Mat.column(field, flat))
    if sol is None:
        raise ValueError("vector outside the spanned space")
    return sol.col(0)


def invert(m: Mat):
    """Two-sided inverse of a square matrix, or None."""
    if m.rows != m.cols:
        return None
    sol = solve(m, Mat.identity(m.field, m.rows))
    if sol is None or m.mul(sol) != Mat.identity(m.field, m.rows):
        return None
    return sol


def _combination(field, rows, cols, coeffs, mats):
    """The rows x cols matrix sum of c * m over the pairs of coeffs and mats."""
    out = Mat.zeros(field, rows, cols)
    for c, m in zip(coeffs, mats):
        out = out.add(m.scale(c))
    return out


def _coker(field, mat: Mat):
    """Column-space subspace; canonical projection is coset_coords."""
    return SubspaceBasis.from_vectors(field, mat.rows, [mat.col(j) for j in range(mat.cols)])


def _on_cosets(field, mat: Mat, src_sub, tgt_sub) -> Mat:
    """The map k^n / src_sub -> k^m / tgt_sub that mat induces (mat must send
    src_sub into tgt_sub), in the canonical complement coordinates of both."""
    return Mat.from_columns(field, tgt_sub.ambient - tgt_sub.dim,
                            [tgt_sub.coset_coords(mat.col(j))
                             for j in src_sub.complement_coords()])


# ---------------------------------------------------------------------------
# Quiver representations


class _Rep:
    """A space k^dims[v] per vertex v and, per arrow (s, t, A), a matrix A
    from the space at s to the space at t."""

    def __init__(self, field, dims, arrows):
        self.field = field
        self.dims = tuple(dims)
        self.arrows = tuple(arrows)


def _hom_basis(src: _Rep, tgt: _Rep):
    """Canonical basis of the tuples phi with phi_t A = B phi_s on each arrow
    (A of src, B of tgt): the nullspace of those equations, whose unknowns
    are the entries of phi_0, phi_1, ... each read row by row."""
    F = src.field
    offsets, total = [], 0
    for ds, dt in zip(src.dims, tgt.dims):
        offsets.append(total)
        total += dt * ds
    rows = []
    for (s, t, a), (_, _, b) in zip(src.arrows, tgt.arrows):
        for r in range(tgt.dims[t]):
            for c in range(src.dims[s]):
                row = [F.zero] * total
                for k in range(src.dims[t]):
                    i = offsets[t] + r * src.dims[t] + k
                    row[i] = F.add(row[i], a.data[k][c])
                for k in range(tgt.dims[s]):
                    i = offsets[s] + k * src.dims[s] + c
                    row[i] = F.sub(row[i], b.data[r][k])
                rows.append(row)
    return [tuple(Mat(F, dt, ds, [vec[off + r * ds:off + (r + 1) * ds] for r in range(dt)])
                  for off, ds, dt in zip(offsets, src.dims, tgt.dims))
            for vec in nullspace(Mat(F, len(rows), total, rows))]


def _a2(field, d1, d2, arrow=None) -> _Rep:
    """A representation of the quiver 1 -> 2."""
    if arrow is None:
        arrow = Mat.zeros(field, d2, d1)
    return _Rep(field, (d1, d2), ((0, 1, arrow),))


def _module(x: Mat) -> _Rep:
    """k^n with x acting by the matrix x: a representation of the one-loop
    quiver."""
    return _Rep(x.field, (x.rows,), ((0, 0, x),))


def _cyclic(field, n) -> _Rep:
    """k[x]/(x^n), with x sending the i-th basis vector to the next."""
    return _module(Mat(field, n, n, [[field.one if i == j + 1 else field.zero
                                      for j in range(n)] for i in range(n)]))


def _module_iso(src: _Rep, tgt: _Rep):
    """An invertible module map src -> tgt, or None, which proves that there
    is none: the Hom block is not square, or `invertible_point` finds no
    coefficients on _hom_basis(src, tgt) at which it is invertible."""
    F = src.field
    (d,), (dt,) = src.dims, tgt.dims
    if d != dt:
        return None
    basis = [m for (m,) in _hom_basis(src, tgt)]
    block = [[[m.data[r][c] for m in basis] for c in range(d)] for r in range(d)]
    point = invertible_point(F, len(basis), [block])
    if point is None:
        return None
    return _combination(F, d, d, point, basis)


class _Concrete:
    """A presentation evaluated on concrete models: Hom(a, b) has the basis
    bases[(a, b)] of morphisms (tuples of vertex matrices), coords(a, b, mor)
    reads a morphism in it, and composition and identities are computed
    vertex by vertex."""

    def __init__(self, field, models, bases, coords, name):
        self.bases = bases
        self.coords = coords
        gens = tuple(models)
        hom_bases = {k: tuple("a%d" % i for i in range(len(v))) for k, v in bases.items() if v}
        comp = {(a, b, c): [[coords(a, c, tuple(g.mul(f) for g, f in zip(gm, fm)))
                             for fm in bases[(a, b)]] for gm in bases[(b, c)]]
                for a in gens for b in gens for c in gens
                if bases[(a, b)] and bases[(b, c)]}
        identities = {g: coords(g, g, tuple(Mat.identity(field, d) for d in models[g].dims))
                      for g in gens}
        self.cat = FinLinCategory(field, gens, hom_bases, comp, identities, name=name)

    def single(self, a, b, mor) -> Morphism:
        return Morphism(self.cat, (a,), (b,), self.coords(a, b, mor))


def _rep_concrete(field, models, name) -> _Concrete:
    """The full subcategory of representations on the given models."""
    bases = {(a, b): _hom_basis(models[a], models[b]) for a in models for b in models}
    flats = {k: [_flat(*m) for m in v] for k, v in bases.items()}
    return _Concrete(field, models, bases,
                     lambda a, b, mor: _coords_in(field, flats[(a, b)], _flat(*mor)), name)


def _rep_functor(cc_src: _Concrete, cc_tgt: _Concrete, name, obj_names, push):
    """Functor with single-generator-or-zero images evaluated on basis models."""
    src, tgt = cc_src.cat, cc_tgt.cat
    object_map = {g: (obj_names[g],) if obj_names[g] else () for g in src.generators}
    hom_maps = {}
    for a in src.generators:
        for b in src.generators:
            d = src.hom_dim(a, b)
            if d == 0:
                continue
            ia, ib_ = obj_names[a], obj_names[b]
            rows = tgt.hom_dim(ia, ib_) if (ia and ib_) else 0
            cols = [cc_tgt.coords(ia, ib_, push(a, b, mor)) if rows else ()
                    for mor in cc_src.bases[(a, b)]]
            hom_maps[(a, b)] = Mat.from_columns(tgt.field, rows, cols)
    return LinearFunctor(src, tgt, object_map, hom_maps, name=name)


def _register_recollement(ws, parts, functors, units, counits):
    """Register the recollement "R" of ws: parts sends each part of PARTS to
    a category name of ws, functors each slot of FUNCTOR_SLOTS to its functor
    (registered under the functor's name), and units and counits each slot
    of ADJUNCTION_SLOTS to the components of that adjunction's unit and
    counit.  The adjunction of slot adj_<x> holds the nattrans u_<x> and
    c_<x> registered here, and the writer reads every name off the objects."""
    for slot in FUNCTOR_SLOTS:
        ws.functors[functors[slot].name] = functors[slot]
    for slot, (left_slot, right_slot, _) in ADJUNCTION_SLOTS.items():
        left, right = functors[left_slot], functors[right_slot]
        unit_name, counit_name = "u_" + slot[4:], "c_" + slot[4:]
        unit = ws.nats[unit_name] = NatTransform(identity_functor(left.source),
                                                 compose_functors(right, left),
                                                 units[slot], name=unit_name)
        counit = ws.nats[counit_name] = NatTransform(compose_functors(left, right),
                                                     identity_functor(right.source),
                                                     counits[slot], name=counit_name)
        ws.adjunctions[slot] = Adjunction(left, right, unit, counit, name=slot)
    ws.recollements["R"] = Recollement(
        **{p: ws.categories[parts[p]] for p in PARTS},
        **{slot: functors[slot] for slot in FUNCTOR_SLOTS},
        **{slot: ws.adjunctions[slot] for slot in ADJUNCTION_SLOTS})


def build_fix_a2(field=QQ) -> Workspace:
    """Module categories of the two-vertex quiver: the standard recollement
    with closed part the vertex-2 simples and open part restriction to
    vertex 1."""
    one1 = Mat.identity(field, 1)
    e00 = Mat.zeros(field, 0, 0)
    modk = _Rep(field, (1,), ())  # mod k: one vertex, no arrow
    models = {"S1": _a2(field, 1, 0), "S2": _a2(field, 0, 1), "P1": _a2(field, 1, 1, one1)}
    cc = _rep_concrete(field, models, "A2")
    ccl = _rep_concrete(field, {"V": modk}, "ModKL")
    ccr = _rep_concrete(field, {"W": modk}, "ModKR")

    ws = Workspace(field)
    ws.categories["A2"] = cc.cat
    ws.categories["ModKL"] = ccl.cat
    ws.categories["ModKR"] = ccr.cat

    cokers = {g: _coker(field, models[g].arrows[0][2]) for g in models}

    def on_vertex(i, name):
        return {g: (name if models[g].dims[i] == 1 else None) for g in models}

    functors = {
        "i_up": _rep_functor(
            cc, ccl, "iu",
            {g: ("V" if cokers[g].ambient - cokers[g].dim == 1 else None) for g in models},
            lambda a, b, mor: (_on_cosets(field, mor[1], cokers[a], cokers[b]),)),
        "i_lo": _rep_functor(ccl, cc, "il", {"V": "S2"}, lambda a, b, mor: (e00, mor[0])),
        "i_bang": _rep_functor(cc, ccl, "ib", on_vertex(1, "V"), lambda a, b, mor: (mor[1],)),
        "j_bang": _rep_functor(ccr, cc, "jb", {"W": "P1"}, lambda a, b, mor: (mor[0], mor[0])),
        "j_up": _rep_functor(cc, ccr, "ju", on_vertex(0, "W"), lambda a, b, mor: (mor[0],)),
        "j_lo": _rep_functor(ccr, cc, "jl", {"W": "S1"}, lambda a, b, mor: (mor[0], e00)),
    }

    e01 = Mat.zeros(field, 0, 1)
    e10 = Mat.zeros(field, 1, 0)
    A2, zero = cc.cat, ()
    units = {
        # Unit of (iu, il): corestriction onto the cokernel part.
        "adj_i": {"S1": Morphism.zero(A2, A2.obj("S1"), zero),
                  "S2": cc.single("S2", "S2", (e00, one1)),
                  "P1": Morphism.zero(A2, A2.obj("P1"), zero)},
        "adj_ib": {"V": ccl.single("V", "V", (one1,))},
        "adj_jb": {"W": ccr.single("W", "W", (one1,))},
        "adj_j": {"S1": cc.single("S1", "S1", (one1, e00)),
                  "S2": Morphism.zero(A2, A2.obj("S2"), zero),
                  "P1": cc.single("P1", "S1", (one1, e01))},
    }
    counits = {
        "adj_i": {"V": ccl.single("V", "V", (one1,))},
        "adj_ib": {"S1": Morphism.zero(A2, zero, A2.obj("S1")),
                   "S2": cc.single("S2", "S2", (e00, one1)),
                   "P1": cc.single("S2", "P1", (e10, one1))},
        "adj_jb": {"S1": cc.single("P1", "S1", (one1, e01)),
                   "S2": Morphism.zero(A2, zero, A2.obj("S2")),
                   "P1": cc.single("P1", "P1", (one1, one1))},
        "adj_j": {"W": ccr.single("W", "W", (one1,))},
    }
    _register_recollement(ws, {"left": "ModKL", "middle": "A2", "right": "ModKR"},
                          functors, units, counits)
    return ws


# ---------------------------------------------------------------------------
# Modules over k[x]/(x^3) and their stable category


class _StableCore:
    """Everything the stable presentation of k[x]/(x^3) needs, computed from
    the module models: stable hom bases, composition, the syzygy shift and
    the connecting maps of the two defining short exact sequences.  Module
    maps outside the Hom bases are single matrices, the loop quiver having
    one vertex."""

    def __init__(self, field):
        self.field = field
        self.models = {"M1": _cyclic(field, 1), "M2": _cyclic(field, 2)}
        self.free = _cyclic(field, 3)
        self.gens = tuple(self.models)
        n = self.free.dims[0]

        self.full_flats, self.stable_sub, self.stable_basis = {}, {}, {}
        for a in self.gens:
            for b in self.gens:
                basis = _hom_basis(self.models[a], self.models[b])
                flats = [_flat(*m) for m in basis]
                through = [_coords_in(field, flats, _flat(psi.mul(phi)))
                           for (phi,) in _hom_basis(self.models[a], self.free)
                           for (psi,) in _hom_basis(self.free, self.models[b])]
                sub = SubspaceBasis.from_vectors(field, len(basis), through)
                self.full_flats[(a, b)] = flats
                self.stable_sub[(a, b)] = sub
                self.stable_basis[(a, b)] = [basis[i] for i in sub.complement_coords()]
        self.cat = _Concrete(field, self.models, self.stable_basis,
                             lambda a, b, mor: self.stable_coords(a, b, *mor), "STAB").cat

        # Embeddings into the free module: 1 |-> x^(n - dim).
        ident = Mat.identity(field, n)
        self.embed = {g: Mat.from_columns(field, n, [ident.col(j)
                                                     for j in range(n - m.dims[0], n)])
                      for g, m in self.models.items()}
        self.coker_sub = {g: _coker(field, self.embed[g]) for g in self.gens}
        # Identify each cokernel with the generator of its dimension.
        (_, _, x_free), = self.free.arrows
        self.shift_obj, self.ident_iso = {}, {}
        for g in self.gens:
            xbar = _on_cosets(field, x_free, self.coker_sub[g], self.coker_sub[g])
            tgt = next(h for h in self.gens if self.models[h].dims[0] == xbar.rows)
            iso = _module_iso(_module(xbar), self.models[tgt])
            if iso is None:
                raise RuntimeError("cannot identify the cokernel of %s" % g)
            self.shift_obj[g] = tgt
            self.ident_iso[g] = iso

        self.shift_mats = {}
        for (a, b), basis in self.stable_basis.items():
            ta, tb = self.shift_obj[a], self.shift_obj[b]
            self.shift_mats[(a, b)] = Mat.from_columns(
                field, len(self.stable_basis[(ta, tb)]),
                [self.stable_coords(ta, tb, self.shift_of(a, b, f)) for (f,) in basis])

        # Connecting maps of 0 -> M1 -> M2 -> M1 -> 0 and 0 -> M2 -> A -> M1 -> 0.
        sigma = Mat(field, 2, 1, [[field.zero], [field.one]])
        pi = Mat(field, 1, 2, [[field.one, field.zero]])
        self.sigma_model, self.pi_model = sigma, pi
        self.h1 = self._connecting("M1", self.models["M2"], sigma, pi, "M1")
        top = Mat.from_rows(field, [ident.data[0]])  # A -> A / xA
        self.h2 = self._connecting("M2", self.free, self.embed["M2"], top, "M1")

    def stable_coords(self, a, b, model: Mat):
        """Stable coordinates of the module map a -> b with matrix model."""
        full = _coords_in(self.field, self.full_flats[(a, b)], _flat(model))
        return self.stable_sub[(a, b)].coset_coords(full)

    def _free_extension(self, dom: _Rep, src: Mat, tgt: Mat) -> Mat:
        """The module map e: dom -> free with e src = tgt whose coordinates
        on _hom_basis(dom, free) are the canonical solution."""
        basis = [e for (e,) in _hom_basis(dom, self.free)]
        coords = _coords_in(self.field, [_flat(e.mul(src)) for e in basis], _flat(tgt))
        return _combination(self.field, self.free.dims[0], dom.dims[0], coords, basis)

    def shift_of(self, a, b, f: Mat) -> Mat:
        """Syzygy shift of a module map, between the canonical models."""
        e = self._free_extension(self.free, self.embed[a], self.embed[b].mul(f))
        raw = _on_cosets(self.field, e, self.coker_sub[a], self.coker_sub[b])
        return self.ident_iso[b].mul(raw).mul(invert(self.ident_iso[a]))

    def _connecting(self, xg, y: _Rep, f: Mat, gmap: Mat, zg):
        """Connecting map Z -> (shift of X) of a short exact sequence
        X -> Y -> Z, via an extension over the free-module embedding of X."""
        field = self.field
        e = self._free_extension(y, f, self.embed[xg])
        sec = solve(gmap, Mat.identity(field, gmap.rows))
        if sec is None:
            raise RuntimeError("epimorphism has no linear section")
        whole = SubspaceBasis.from_vectors(field, sec.cols, [])
        h = self.ident_iso[xg].mul(_on_cosets(field, e.mul(sec), whole, self.coker_sub[xg]))
        (_, _, xz), = self.models[zg].arrows
        (_, _, xt), = self.models[self.shift_obj[xg]].arrows
        if h.mul(xz) != xt.mul(h):
            raise RuntimeError("connecting map is not a module map")
        return h


def _stable_category(field, core: _StableCore, name="STAB") -> FinLinCategory:
    return _component_category(field, core, ("",), name)


def _shift_functors(field, core: _StableCore, cat: FinLinCategory):
    return _component_shift(field, core, cat, ("",), "T")


def _stable_triangles(field, core: _StableCore, cat, t):
    """The triangles of the two defining short exact sequences plus the
    identity triangle of the approximating generator."""
    m1, m2 = cat.obj("M1"), cat.obj("M2")
    zero = ()
    sig = Morphism(cat, m1, m2, core.stable_coords("M1", "M2", core.sigma_model))
    pi = Morphism(cat, m2, m1, core.stable_coords("M2", "M1", core.pi_model))
    h1 = Morphism(cat, m1, m2, core.stable_coords("M1", "M2", core.h1))
    t1 = Triangle(m1, m2, m1, sig, pi, h1, name="t1")
    h2 = Morphism(cat, m1, m1, core.stable_coords("M1", "M1", core.h2))
    t2 = Triangle(m2, zero, m1, Morphism.zero(cat, m2, zero),
                  Morphism.zero(cat, zero, m1), h2, name="t2")
    t3 = Triangle(m2, m2, zero, Morphism.identity(cat, m2),
                  Morphism.zero(cat, m2, zero),
                  Morphism.zero(cat, zero, t.apply_obj(m2)), name="t3")
    return [t1, t2, t3]


def build_fix_stab3(field=QQ) -> Workspace:
    """Stable module category of k[x]/(x^3) with its mutation data."""
    core = _StableCore(field)
    cat = _stable_category(field, core)
    t, tinv = _shift_functors(field, core, cat)
    triangles = _stable_triangles(field, core, cat, t)
    tri = TriangulatedPresentation(cat, t, tinv, triangles, name="TC")

    ws = Workspace(field)
    ws.categories["STAB"] = cat
    ws.functors["T"] = t
    ws.functors["Tinv"] = tinv
    ws.triangulated["TC"] = tri
    ws.subcategories["Zall"] = Subcategory(cat, ["M1", "M2"])
    ws.subcategories["DM2"] = Subcategory(cat, ["M2"])
    fixed = {"M1": triangles[0], "M2": triangles[2]}
    ws.mutations["MU"] = MutationData(tri, ws.subcategories["Zall"],
                                      ws.subcategories["DM2"], fixed, name="MU")
    return ws


# ---------------------------------------------------------------------------
# Products of copies of the stable category


def _component_category(field, core: _StableCore, prefixes, name):
    """One copy of the stable category per prefix p, on the generators p + g."""
    base = core.cat
    gens = [p + g for p in prefixes for g in core.gens]
    hom_bases, comp, identities = {}, {}, {}
    for p in prefixes:
        for (a, b), names in base.hom_bases.items():
            hom_bases[(p + a, p + b)] = names
        for (a, b, c), table in base.comp.items():
            comp[(p + a, p + b, p + c)] = table
        for g in core.gens:
            identities[p + g] = base.identities[g]
    return FinLinCategory(field, gens, hom_bases, comp, identities, name=name)


def _component_shift(field, core: _StableCore, cat, prefixes, name):
    """The syzygy shift of each copy and its strict inverse."""
    object_map, hom_maps, inv_maps = {}, {}, {}
    for p in prefixes:
        for g in core.gens:
            object_map[p + g] = (p + core.shift_obj[g],)
        for (a, b), mat in core.shift_mats.items():
            key = (p + a, p + b)
            if cat.hom_dim(*key):
                hom_maps[key] = mat
                inv = invert(core.shift_mats[(core.shift_obj[a], core.shift_obj[b])])
                if inv is None:
                    raise RuntimeError("shift is not invertible on Hom(%s,%s)" % key)
                inv_maps[key] = inv
    t = LinearFunctor(cat, cat, object_map, hom_maps, name=name)
    tinv = LinearFunctor(cat, cat, dict(object_map), inv_maps, name=name + "inv")
    return t, tinv


def _embed_triangle(cat, t_on_cat, core_triangle: Triangle, prefix, name):
    def conv_obj(obj):
        return tuple(prefix + g for g in obj)

    def conv_mor(mor, src, tgt):
        return Morphism(cat, src, tgt, mor.coords)

    x, y, z = (conv_obj(core_triangle.x), conv_obj(core_triangle.y),
               conv_obj(core_triangle.z))
    tx = t_on_cat.apply_obj(x)
    return Triangle(x, y, z,
                    conv_mor(core_triangle.f, x, y),
                    conv_mor(core_triangle.g, y, z),
                    conv_mor(core_triangle.h, z, tx), name=name)


def _rename_functor(src_cat, tgt_cat, old, new, name):
    """Send each generator with prefix old to the one with prefix new, by
    the identity on its Hom spaces, and every other generator to zero."""
    F = src_cat.field

    def rename(g):
        return new + g[len(old):] if g.startswith(old) else None

    object_map = {g: (rename(g),) if rename(g) else () for g in src_cat.generators}
    hom_maps = {}
    for a in src_cat.generators:
        for b in src_cat.generators:
            d = src_cat.hom_dim(a, b)
            if d:
                kept = rename(a) and rename(b)
                hom_maps[(a, b)] = Mat.identity(F, d) if kept else Mat.zeros(F, 0, d)
    return LinearFunctor(src_cat, tgt_cat, object_map, hom_maps, name=name)


def _component_identity(cat, prefix, unit):
    """Components of a unit (g -> image) or, with unit false, a counit
    (image -> g): the identity on the generators with the prefix and zero
    on the others."""
    out = {}
    for g in cat.generators:
        obj = cat.obj(g)
        if g.startswith(prefix):
            out[g] = Morphism.identity(cat, obj)
        elif unit:
            out[g] = Morphism.zero(cat, obj, ())
        else:
            out[g] = Morphism.zero(cat, (), obj)
    return out


def build_fix_prod(field=QQ) -> Workspace:
    """Product of two copies of the stable category: the componentwise
    recollement carrying triangulated structure and mutation data on the
    closed component."""
    core = _StableCore(field)
    ws = Workspace(field)

    C = _component_category(field, core, ("C1.", "C2."), "C")
    CL = _component_category(field, core, ("L.",), "CL")
    CR = _component_category(field, core, ("R.",), "CR")
    ws.categories["C"] = C
    ws.categories["CL"] = CL
    ws.categories["CR"] = CR

    functors = {
        "i_up": _rename_functor(C, CL, "C1.", "L.", "iu"),
        "i_lo": _rename_functor(CL, C, "L.", "C1.", "il"),
        "i_bang": _rename_functor(C, CL, "C1.", "L.", "ib"),
        "j_bang": _rename_functor(CR, C, "R.", "C2.", "jb"),
        "j_up": _rename_functor(C, CR, "C2.", "R.", "ju"),
        "j_lo": _rename_functor(CR, C, "R.", "C2.", "jl"),
    }
    units = {"adj_i": _component_identity(C, "C1.", True),
             "adj_ib": _component_identity(CL, "L.", True),
             "adj_jb": _component_identity(CR, "R.", True),
             "adj_j": _component_identity(C, "C2.", True)}
    counits = {"adj_i": _component_identity(CL, "L.", False),
               "adj_ib": _component_identity(C, "C1.", False),
               "adj_jb": _component_identity(C, "C2.", False),
               "adj_j": _component_identity(CR, "R.", False)}
    _register_recollement(ws, {"left": "CL", "middle": "C", "right": "CR"},
                          functors, units, counits)

    tc, tcinv = _component_shift(field, core, C, ("C1.", "C2."), "TC")
    tl, tlinv = _component_shift(field, core, CL, ("L.",), "TL")
    tr, trinv = _component_shift(field, core, CR, ("R.",), "TR")
    for nm, f in (("TC", tc), ("TCinv", tcinv), ("TL", tl), ("TLinv", tlinv),
                  ("TR", tr), ("TRinv", trinv)):
        ws.functors[nm] = f

    base_cat = _stable_category(field, core, name="_core")
    tbase, _ = _shift_functors(field, core, base_cat)
    core_triangles = _stable_triangles(field, core, base_cat, tbase)

    tri_c_triangles = []
    for p, tag in (("C1.", "c1_"), ("C2.", "c2_")):
        for t in core_triangles:
            tri_c_triangles.append(_embed_triangle(C, tc, t, p, tag + t.name))
    tri_c = TriangulatedPresentation(C, tc, tcinv, tri_c_triangles, name="TRI_C")
    tri_l = TriangulatedPresentation(
        CL, tl, tlinv,
        [_embed_triangle(CL, tl, t, "L.", t.name) for t in core_triangles],
        name="TRI_L")
    tri_r = TriangulatedPresentation(
        CR, tr, trinv,
        [_embed_triangle(CR, tr, t, "R.", t.name) for t in core_triangles],
        name="TRI_R")
    ws.triangulated["TRI_C"] = tri_c
    ws.triangulated["TRI_L"] = tri_l
    ws.triangulated["TRI_R"] = tri_r

    for nm, fn, st, tt in (("ex_iu", "iu", "TRI_C", "TRI_L"),
                           ("ex_il", "il", "TRI_L", "TRI_C"),
                           ("ex_ib", "ib", "TRI_C", "TRI_L"),
                           ("ex_jb", "jb", "TRI_R", "TRI_C"),
                           ("ex_ju", "ju", "TRI_C", "TRI_R"),
                           ("ex_jl", "jl", "TRI_R", "TRI_C")):
        ws.exactdata[nm] = ExactFunctorData(ws.functors[fn],
                                            ws.triangulated[st],
                                            ws.triangulated[tt], None, name=nm)

    ws.subcategories["Zall"] = Subcategory(C, list(C.generators))
    ws.subcategories["D1"] = Subcategory(C, ["C1.M2"])

    by_name = {t.name: t for t in tri_c_triangles}
    fixed = {
        "C1.M1": by_name["c1_t1"],
        "C1.M2": by_name["c1_t3"],
        "C2.M2": by_name["c2_t2"],
    }
    rot3 = by_name["c2_t2"]
    for _ in range(3):
        rot3 = tri_c.rotate(rot3)
    fixed["C2.M1"] = Triangle(rot3.x, rot3.y, rot3.z, rot3.f, rot3.g, rot3.h,
                              name="c2_rot")
    ws.mutations["MU"] = MutationData(tri_c, ws.subcategories["Zall"],
                                      ws.subcategories["D1"], fixed, name="MU")
    return ws


BUILDERS = {
    "fix_a2": build_fix_a2,
    "fix_stab3": build_fix_stab3,
    "fix_prod": build_fix_prod,
}


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m rclkit.fixture_gen <output-directory>")
        return 2
    import os
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    for name, builder in BUILDERS.items():
        ws = builder()
        path = os.path.join(outdir, name + ".rcl")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(serialize(ws))
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
